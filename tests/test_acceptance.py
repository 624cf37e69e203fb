"""Acceptance gate: one test per shipped guarantee, exact values throughout.

Each test is a single pass/fail line under pytest -v. Nothing here is
statistical; randomized sweeps use fixed seeds.
"""

import random
import time
from fractions import Fraction

from tangleslopes import (
    Product,
    WeightState,
    kn,
    kn_system,
    parse,
    solve,
    solve_sn,
    verify_system,
)
from tangleslopes.cli import main
from tangleslopes.diagram import vertex_triple
from tangleslopes.edgepaths import ConstantPath, tau
from tangleslopes.slopes import seifert_tau
from tangleslopes.tangles import mirror
from tangleslopes.transforms import rotate_reflect


def high_slope(n):
    return 2 * (n + 1) ** 2 - 4


def test_criterion_1_certified_family_slopes():
    for n in range(2, 9):
        started = time.perf_counter()
        rep = solve_sn(kn(n))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, (n, elapsed)
        h = Fraction(high_slope(n))
        assert rep.certified == (-h, h), n
        assert {-h, h} <= set(rep.slopes), n


def test_criterion_2_distinguished_system_trace():
    for n in range(2, 9):
        system = kn_system(n)
        b = n * n + n - 1
        assert system.nodes[2].state == WeightState(1, b, -(n + 1)), n
        assert system.nodes[3].state == WeightState(1, b, n), n
        assert system.nodes[1].state == WeightState(1, b, -1), n
        assert system.nodes[0].transformed == WeightState(1, 0, -(n * n + n)), n
        assert system.nodes[0].tau_prime == 2, n
        assert system.nodes[4].tau == -2 * (n * n + 2 * n), n
        assert system.tau == -2 * (n + 1) ** 2 + 4, n
        assert seifert_tau(kn(n)) == 0, n
        assert system.slope == system.tau, n
        assert system in solve_sn(kn(n)).systems, n


def test_criterion_3_diameter_and_ratio_growth():
    for n in range(2, 9):
        rep = solve_sn(kn(n))
        assert rep.diameter >= 4 * (n + 1) ** 2 - 8, n
        assert rep.ratio >= Fraction((n + 1) ** 2 - 2, n), n
        if n >= 3:
            assert rep.ratio > 3, n
    started = time.perf_counter()
    rep10 = solve_sn(kn(10))
    assert time.perf_counter() - started < 60.0
    assert rep10.ratio > 10


def test_criterion_4_k2_beats_twice_crossing_number():
    rep = solve_sn(kn(2))
    assert {Fraction(-14), Fraction(14)} <= set(rep.slopes)
    assert rep.crossings == 8
    assert rep.diameter == 28 > 2 * rep.crossings


def _random_feasible_state(rng):
    case = rng.randint(1, 4)
    if case == 1:
        a = rng.randint(1, 9)
        c = rng.choice((-1, 1)) * rng.randint(a, a + 12)
        return WeightState(a, rng.randint(0, 12), c)
    if case == 2:
        c = rng.choice((-1, 1)) * rng.randint(1, 6)
        return WeightState(abs(c) + rng.randint(0, 6), rng.randint(0, 9), c, has_zero=True)
    if case == 3:
        a = rng.randint(2, 9)
        t = rng.randint(1, a - 1)
        c = rng.choice((-1, 1)) * rng.randint(max(a - t, 1), a + 9)
        return WeightState(a, rng.randint(0, 9), c, n_inf=t)
    c = rng.choice((-1, 1)) * rng.randint(1, 5)
    t = rng.randint(1, 5)
    return WeightState(abs(c) + t + rng.randint(1, 5), rng.randint(0, 9), c,
                       n_inf=t, has_zero=True)


def test_criterion_5a_transform_identities():
    rng = random.Random(505)
    seen = set()
    for _ in range(1000):
        state = _random_feasible_state(rng)
        out = rotate_reflect(state)
        seen.add(out.case_id)
        k = rng.randint(2, 6)
        scaled = rotate_reflect(state.scaled(k))
        assert scaled.case_id == out.case_id
        assert scaled.m == k * out.m
        assert scaled.tau_prime == out.tau_prime
        assert scaled.state == out.state.scaled(k)
        if out.case_id == 1:
            assert rotate_reflect(out.state).state == state
    assert seen == {1, 2, 3, 4}


def test_criterion_5b_twist_sign_rule():
    rng = random.Random(707)
    for _ in range(1000):
        state = _random_feasible_state(rng)
        out = rotate_reflect(state)
        assert abs(out.tau_prime) <= 2
        assert out.tau_prime == Fraction(-2 * (1 if state.c > 0 else -1) * out.m, state.a)


MIRROR_CORPUS = (
    "(-1/2 + 1/3) o (-1/2 + 1/3)",
    "(-1/3 + 1/4) o (-1/3 + 1/4)",
    "(-1/2 + 1/3) o (1/2 + 1/3)",
    "(1/2 + 1/3) o 1/4",
    "(1/2 + 1/5) o (1/2 + 1/3)",
    "1/2 o 1/3",
    "(1/2 o 1/3) o 1/4",
    "((-1/2 + 1/3) o 2) o 1/3",
    "(2/3 + 1/4) o 1/2",
    "(-2/3 + 1/2) o (1/3 + 1/4)",
    "-1/2 + 1/3 + 1/7",
    "-1/2 + 1/3 + 1/5",
    "-1/2 + 1/3 + 1/3",
    "1/2 + 1/4 + 1/4",
    "1/2 + 1/3 + 1/7",
    "-2/3 + 1/4 + 1/5",
    "3/4 + 1/3 + 1/5",
    "-1/2 + 2/3 + 1/4",
    "1/2 + 1/3 + 1/4",
    "2/3 + 1/4 + 1/5",
)


def test_criterion_5c_mirror_antisymmetry():
    assert len(MIRROR_CORPUS) == 20
    for text in MIRROR_CORPUS:
        expr = parse(text)
        rep = solve(expr, c_bound=8)
        mrep = solve(mirror(expr), c_bound=8)
        assert set(mrep.slopes) == {-s for s in rep.slopes}, text


def test_criterion_5d_emitted_systems_validate():
    reports = [solve_sn(kn(n)) for n in (2, 3)]
    reports += [
        solve(parse("-1/2 + 1/3 + 1/7")),
        solve(parse("-1/2 + 1/3 + 1/3")),
        solve(parse("(1/2 + 1/3) o 1/4")),
    ]
    checked = 0
    for rep in reports:
        # one system per (tau, note), the Seifert reference included
        assert len({(s.tau, s.note) for s in rep.systems}) == len(rep.systems)
        for system in rep.systems:
            assert verify_system(system) == [], (rep.expr, system.note)
            checked += 1
    assert checked == 55


def test_criterion_5e_constants_and_square_cancellation():
    rng = random.Random(909)
    for _ in range(200):
        q = rng.randint(1, 9)
        p = rng.choice((-1, 1)) * rng.randint(1, 3 * q)
        x = Fraction(p, q)
        if x == 0:
            continue
        assert tau(ConstantPath(x, vertex_triple(x).scaled(rng.randint(1, 5)))) == 0
    for _ in range(50):
        q = 2 * rng.randint(1, 4)
        p = rng.choice((-1, 1)) * rng.randint(1, q + 3)
        even_leaf = Fraction(p, q)
        if even_leaf.denominator % 2:
            continue
        other = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        factor = parse("%s + %s" % (even_leaf, other))
        assert seifert_tau(Product(factor, factor)) == 0


def test_criterion_6_montesinos_fixture():
    rep = solve(parse("-1/2 + 1/3 + 1/7"))
    assert [str(s) for s in rep.slopes] == ["0", "16", "37/2", "20"]


def test_criterion_7_verify_is_reproducible(capsys):
    code1 = main(["verify", "--n-max", "8"])
    first = capsys.readouterr()
    code2 = main(["verify", "--n-max", "8"])
    second = capsys.readouterr()
    assert code1 == code2 == 0
    assert first.out == second.out and first.out.endswith("all pass (n=2..8)\n")
