import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangleslopes import (
    ConstantPath,
    MismatchedWeights,
    NodeTrace,
    Product,
    SeifertUndefined,
    Sum,
    VertexPath,
    WeightState,
    kn,
    parse,
    solve,
    verify_system,
)
from tangleslopes.edgepaths import enumerate_paths, tau, validate
from tangleslopes.slopes import (
    build_system,
    replay,
    seifert_leaf_path,
    seifert_system,
    seifert_tau,
)


def _reference_path(pq):
    """The Seifert reference path of one tangle, picked from its descents."""
    pq = Fraction(pq)
    return seifert_leaf_path(pq)


def E(pq):
    """Reference twist contribution of one tangle."""
    return tau(_reference_path(pq))


# frozen oracle values, worked out by hand from the even continued
# fraction expansion before the solver was written
FROZEN_E = {
    Fraction(-1, 2): -2,
    Fraction(1, 2): 2,
    Fraction(1, 3): -4,
    Fraction(1, 5): -8,
    Fraction(1, 7): -12,
    Fraction(1, 4): 2,
    Fraction(-1, 3): 4,
    Fraction(2, 3): 4,
}


def test_reference_contributions_match_frozen_oracles():
    for pq, expected in FROZEN_E.items():
        assert E(pq) == expected, pq


def test_reference_tau_of_pretzels():
    assert seifert_tau(parse("-1/2 + 1/3 + 1/7")) == -18
    assert seifert_tau(parse("-1/2 + 1/3 + 1/5")) == -14
    assert seifert_tau(parse("-1/2 + 1/3 + 1/3")) == -10
    assert seifert_tau(parse("-1/2 + 1/3 + 1/4")) == -4


def test_reference_tau_cancels_on_the_family():
    for n in range(2, 7):
        assert seifert_tau(kn(n)) == 0


def test_reference_tau_cancels_on_squared_tangles():
    rng = random.Random(7)
    for _ in range(50):
        leaves = []
        for _ in range(rng.randint(2, 4)):
            q = rng.randint(2, 9)
            p = rng.choice([x for x in range(-q, q + 1) if x and Fraction(x, q).denominator == q])
            leaves.append(parse("%d/%d" % (p, q)))
        if not any(l.fraction.denominator % 2 == 0 for l in leaves):
            leaves[0] = parse("1/2")
        t = leaves[0]
        for leaf in leaves[1:]:
            t = Sum(t, leaf)
        assert seifert_tau(Product(t, t)) == 0


def test_reference_undefined_without_even_denominator():
    with pytest.raises(SeifertUndefined):
        seifert_tau(parse("1/3 + 1/3 + 1/3"))
    with pytest.raises(SeifertUndefined):
        seifert_tau(parse("(1/3 + 1/5) o 1/7"))


def test_reference_is_odd_and_even_translation_invariant():
    rng = random.Random(11)
    for _ in range(60):
        q = rng.randint(1, 12)
        p = rng.randint(-25, 25)
        if p == 0:
            continue
        x = Fraction(p, q)
        assert E(-x) == -E(x), x
        if x.denominator > 1:
            # integer tangles step to sign-dependent anchors, so only
            # fractional ones are stable under even translation
            assert E(x + 2 * rng.randint(-2, 2)) == E(x), x


def test_reference_handles_integer_tangles():
    assert E(2) == 0 and E(-2) == 0
    assert E(3) == 2 and E(-3) == -2
    assert _reference_path(4).vertices == (Fraction(4),)


def test_reference_paths_validate():
    rng = random.Random(13)
    for _ in range(40):
        q = rng.randint(2, 12)
        p = rng.randint(-25, 25)
        if p == 0 or Fraction(p, q).denominator == 1:
            continue
        path = _reference_path(Fraction(p, q))
        assert validate(path) == [], Fraction(p, q)
        assert path.final_fraction == 1


def _fraction_anchor(p, q):
    """The Seifert path's integer end, chosen in Fractions as before the
    integer comparisons: an even integer for an integer tangle, the nearer
    of two candidates of the right parity otherwise."""
    if q == 1:
        return p if p % 2 == 0 else (p - 1 if p > 0 else p + 1)
    f, x = p // q, Fraction(p, q)
    if q % 2:
        r1 = f if (f - p) % 2 == 0 else f - 1
        return r1 if x - r1 <= (r1 + 2) - x else r1 + 2
    if x - f < f + 1 - x:
        return f
    if f + 1 - x < x - f:
        return f + 1
    return f if f % 2 == 0 else f + 1


def _even_entries(x):
    # continued fraction with even entries; x has even numerator*denominator,
    # so 1/x is never exactly an odd integer and the nearest-even choice is
    # unique with remainder strictly smaller in numerator
    entries = []
    while x:
        y = 1 / x
        b = 2 * round(y / 2)
        entries.append(b)
        x = y - b
    return entries


def _fraction_seifert_vertices(pq):
    """The Seifert path's vertices built in Fractions, each convergent
    folded up from its entries: the construction the integer one replaced."""
    r = _fraction_anchor(pq.numerator, pq.denominator)
    if pq.denominator == 1:
        return (pq,) if pq == r else (pq, Fraction(r))
    entries = _even_entries(pq - r)
    vertices = [Fraction(r)]
    for j in range(1, len(entries) + 1):
        value = Fraction(entries[j - 1])
        for b in reversed(entries[: j - 1]):
            value = b + 1 / value
        vertices.append(r + 1 / value)
    return tuple(reversed(vertices))


def test_integer_seifert_paths_match_fraction_construction():
    # every p/q with q <= 24 and |p/q| <= 5, integer tangles included
    for q in range(1, 25):
        for p in range(-5 * q, 5 * q + 1):
            if gcd(p, q) == 1:
                pq = Fraction(p, q)
                path = _reference_path(pq)
                assert path.vertices == _fraction_seifert_vertices(pq), pq
                assert all(type(v) is Fraction for v in path.vertices), pq


def _even_descents(pq):
    """The descents of pq whose odd-denominator vertices all have the
    parity of their integer end."""
    out = []
    for descent in enumerate_paths(pq):
        m = descent.vertices[-1].numerator
        if all((v.numerator - m) % 2 == 0 for v in descent.vertices if v.denominator % 2):
            out.append(descent)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 400).flatmap(
    lambda q: st.builds(Fraction, st.integers(-6 * q, 6 * q), st.just(q))))
# the q = 2 tie, an odd integer, and a fraction with many descents
@example(Fraction(5, 2))
@example(Fraction(-3))
@example(Fraction(233, 377))
def test_seifert_pick_matches_fraction_construction(pq):
    # the parity rule leaves one descent for q odd and two for q even,
    # and the pick among them is the even-expansion path
    assert len(_even_descents(pq)) == (1 if pq.denominator % 2 else 2), pq
    assert _reference_path(pq).vertices == _fraction_seifert_vertices(pq), pq


def test_replay_reproduces_the_family_trace():
    expr = kn(2)
    paths = (
        ConstantPath(Fraction(-1, 2), WeightState(1, 5, -3)),
        ConstantPath(Fraction(1, 3), WeightState(1, 5, 2)),
        VertexPath(Fraction(-1, 2), (Fraction(-1, 2), Fraction(0))),
        VertexPath(
            Fraction(1, 3),
            (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(5), Fraction(6)),
        ),
    )
    nodes, state, total = replay(expr, paths)
    assert state == WeightState(1, 0, 0)
    assert total == -14
    assert nodes[1].state == WeightState(1, 5, -1)
    assert nodes[0].transformed == WeightState(1, 0, -6)
    assert nodes[0].tau_prime == 2
    assert nodes[4].tau == -16
    assert [n.kind for n in nodes] == ["product", "sum", "leaf", "leaf", "sum", "leaf", "leaf"]


def test_replay_rescales_to_common_ab():
    expr = parse("-1/2 + 1/3")
    paths = (
        ConstantPath(Fraction(-1, 2), WeightState(1, 5, -3)),
        ConstantPath(Fraction(1, 3), WeightState(2, 10, 4)),
    )
    nodes, state, total = replay(expr, paths)
    assert state == WeightState(1, 5, -1)
    assert nodes[0].scales == (2, 1)
    assert total == 0


def test_replay_rejects_mismatched_directions():
    expr = parse("-1/2 + 1/3")
    paths = (
        ConstantPath(Fraction(-1, 2), WeightState(1, 1, -1)),
        ConstantPath(Fraction(1, 3), WeightState(1, 5, 3)),
    )
    with pytest.raises(MismatchedWeights):
        replay(expr, paths)


def test_replay_checks_path_count():
    with pytest.raises(ValueError):
        replay(kn(2), (ConstantPath(Fraction(-1, 2), WeightState(1, 1, -1)),))
    # one path short and one path too long: replay raises before it walks,
    # and verify_system reports the count without replaying
    expr = parse("-1/2 + 1/3 + 1/7")
    paths = tuple(
        VertexPath(leaf.fraction, (leaf.fraction, Fraction(0)))
        for leaf in expr.leaves()
    )
    good = build_system(expr, paths, reference_tau=seifert_tau(expr))
    for wrong in (paths[:-1], paths + paths[-1:]):
        with pytest.raises(ValueError, match="expected 3 paths, got %d" % len(wrong)):
            replay(expr, wrong)
        assert verify_system(good._replace(assignment=wrong)) == [
            "assignment covers %d of 3 leaves" % len(wrong)
        ]


def test_build_system_and_boundary_slope():
    expr = parse("-1/2 + 1/3 + 1/7")
    paths = tuple(
        VertexPath(leaf.fraction, vs)
        for leaf, vs in zip(
            expr.leaves(),
            (
                (Fraction(-1, 2), Fraction(0)),
                (Fraction(1, 3), Fraction(0)),
                (Fraction(1, 7), Fraction(0)),
            ),
        )
    )
    system = build_system(expr, paths, reference_tau=seifert_tau(expr))
    assert system.closure == WeightState(1, 0, 0)
    assert system.tau == 2
    assert system.slope == 20
    assert verify_system(system) == []


def test_seifert_system_shape():
    system = seifert_system(kn(3))
    assert system.note == "seifert-reference"
    assert system.closure is None and system.slope == 0
    assert len(system.assignment) == 4
    assert verify_system(system) == []


def test_verify_system_catches_tampering():
    system = seifert_system(kn(2))
    wrong = system._replace(tau=system.tau + 2)
    assert verify_system(wrong)

    expr = parse("-1/2 + 1/3 + 1/7")
    paths = tuple(
        VertexPath(leaf.fraction, (leaf.fraction, Fraction(0)))
        for leaf in expr.leaves()
    )
    good = build_system(expr, paths, reference_tau=seifert_tau(expr))
    assert verify_system(good) == []
    assert verify_system(good._replace(slope=good.slope + 1))
    assert verify_system(good._replace(tau=good.tau - 2))


def _malformed(*paths):
    """A solved system of (1/2 + 1/3) o 1/4 with its first leaf paths
    replaced by paths."""
    good = next(s for s in solve(parse("(1/2 + 1/3) o 1/4")).systems if s.note == "")
    return good._replace(assignment=paths + good.assignment[len(paths):])


def test_verify_system_reports_an_empty_vertex_list():
    # validate flags it, and its end state does not exist to replay
    system = _malformed(VertexPath(Fraction(1, 2), ()))
    assert verify_system(system) == ["1/2: E1: empty vertex list"]


def test_verify_system_reports_a_violated_case_precondition():
    # the left sum closes at (1, 1, 2) with 5 slope-infinity edges, which
    # rotate_reflect's case 3 rejects (t < a)
    nf = ConstantPath(Fraction(1, 2), WeightState(1, 1, 1, n_inf=5))
    assert validate(nf) == []
    clean = _malformed(nf, VertexPath(Fraction(1, 3), (Fraction(1, 3), Fraction(1, 2))))
    assert verify_system(clean) == ["replay failed: case 3 needs t < a, got t=5 a=1"]
    # with a constant off its line the path is flagged and not replayed
    off = _malformed(nf, ConstantPath(Fraction(1, 3), WeightState(1, 1, 1)))
    assert verify_system(off) and all(p.startswith("1/3: E1:") for p in verify_system(off))


def test_records_are_immutable_and_keep_their_defaults():
    state = WeightState(1, 2, 3)
    assert state.n_inf == 0 and state.has_zero is False
    path = VertexPath(Fraction(1, 3), (Fraction(1, 3), Fraction(0)))
    assert path.sheets == 1 and path.final_fraction == 1
    node = NodeTrace("L1", "leaf", state, Fraction(2))
    assert node.scales == (1, 1) and node.case_id == 0 and node.m == 0
    assert node.tau_prime is None and node.transformed is None
    rep = solve(parse("-1/2 + 1/3 + 1/7"))
    system = rep.systems[0]
    for record, field in (
        (state, "a"), (path, "sheets"), (node, "tau"), (system, "slope"), (rep, "slopes"),
    ):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.unknown_field = None
        assert getattr(record, field) is before
    note = system.note
    assert system._replace(note="edited").note == "edited" and system.note == note
    assert repr(state) == "WeightState(a=1, b=2, c=3, n_inf=0, has_zero=False)"


def test_verify_system_flags_open_root():
    expr = parse("-1/2 + 1/3")
    paths = (
        ConstantPath(Fraction(-1, 2), WeightState(1, 5, -3)),
        ConstantPath(Fraction(1, 3), WeightState(1, 5, 2)),
    )
    system = build_system(expr, paths, reference_tau=Fraction(0))
    assert any("not closed" in p for p in verify_system(system))
