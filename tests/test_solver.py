import hashlib
import logging
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product as iterproduct
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tangleslopes import (
    FamilyRange,
    UnsupportedShape,
    VertexPath,
    WeightState,
    kn,
    kn_system,
    parse,
    solve,
    solve_montesinos,
    solve_sn,
    verify_system,
)
from tangleslopes import edgepaths as edgepaths_module
from tangleslopes import slopes
from tangleslopes.cli import format_json
from tangleslopes.slopes import replay
from tangleslopes.solver import (
    _demand_pass,
    _distinct_nodes,
    _essential,
    _glue_witnesses,
    _key_pass,
    _leaf_segments,
    _leaf_table,
    _leaf_witnesses,
    _merge_product,
    _merge_sum,
    _montesinos_candidates,
    _root_table,
    _segment_label,
    _segment_pick,
    _tau_pass,
    _turn,
    _turned,
    _type_i_candidates,
    _type_i_stage,
    _type_ii_options,
    _u_of,
    default_c_bound,
)
from tangleslopes.diagram import vertex_point
from tangleslopes.edgepaths import (
    LEAF_MEMO_SIZE,
    ConstantPath,
    constant_path,
    end_weights,
    endpoint_state,
    enumerate_paths,
    leaf_descents,
    run_to,
    tau as path_tau,
)
from tangleslopes.errors import Infeasible, UndefinedCase
from tangleslopes.tangles import Leaf, Product, Sum, mirror, render
from tangleslopes.transforms import glue_scaled, rotate_reflect
from test_edgepaths import u_zero_ends
from test_golden import GOLDEN, _expr

PRETZEL_237 = "-1/2 + 1/3 + 1/7"

# every per-fraction memo of the package
LEAF_MEMOS = (
    leaf_descents,
    slopes._seifert_leaf,
    _leaf_segments,
    _type_ii_options,
    _leaf_table,
)


def _clear_leaf_memos():
    for memo in LEAF_MEMOS:
        memo.cache_clear()


def test_family_report_n2():
    rep = solve_sn(kn(2))
    assert {Fraction(-14), Fraction(14)} <= set(rep.slopes)
    assert rep.certified == (Fraction(-14), Fraction(14))
    assert rep.diameter == 28
    assert rep.crossings == 8 and rep.crossing_source == "family-exact"
    assert rep.ratio == Fraction(7, 2)
    assert rep.c_bound == 8


def test_family_report_n3():
    rep = solve_sn(kn(3), c_bound=12)
    assert {Fraction(-28), Fraction(28)} <= set(rep.slopes)
    assert rep.diameter >= 56


def test_distinguished_system_appears_in_enumeration():
    # the one system the solve lists at the certified slope
    # -(2(n+1)^2 - 4) is the published witness
    for n in range(2, 13):
        low = -(2 * (n + 1) ** 2 - 4)
        listed = [s for s in solve_sn(kn(n)).systems if s.slope == low]
        assert listed == [kn_system(n)], n


def test_kn_system_values():
    system = kn_system(4)
    assert system.nodes[2].state == WeightState(1, 19, -5)
    assert system.nodes[3].state == WeightState(1, 19, 4)
    assert system.nodes[1].state == WeightState(1, 19, -1)
    assert system.nodes[0].transformed == WeightState(1, 0, -20)
    assert system.nodes[0].tau_prime == 2
    assert system.nodes[4].tau == -48
    assert system.tau == -46
    assert system.slope == -46
    assert system.closure == WeightState(1, 0, 0)


def test_kn_system_range():
    with pytest.raises(FamilyRange):
        kn_system(1)


def test_mirror_slopes_negate():
    rep = solve_sn(kn(2))
    mrep = solve_sn(mirror(kn(2)))
    assert set(mrep.slopes) == {-s for s in rep.slopes}


def test_every_listed_slope_is_realized():
    for rep in (solve_sn(kn(2)), solve(parse(PRETZEL_237))):
        realized = {s.slope for s in rep.systems if s.note in ("", "seifert-reference")}
        assert set(rep.slopes) <= realized


def test_slopes_are_read_off_the_listed_systems():
    # the slope of each listed system with an empty note, plus S0's 0;
    # none without S0, whose systems then have no slope
    cases = [(_expr(text), c_bound) for text, c_bound, _ in GOLDEN] + _pass_cases()
    normalized = 0
    for expr, c_bound in cases:
        rep = solve(expr, c_bound)
        counted = {s.slope for s in rep.systems if s.note == ""}
        if any(s.note == "seifert-reference" for s in rep.systems):
            normalized += 1
            assert rep.slopes == tuple(sorted(counted | {0})), (expr, c_bound)
        else:
            assert rep.slopes == () and counted <= {None}, (expr, c_bound)
    assert normalized >= 29


def _closed_root_taus(expr):
    table = _root_table(expr, default_c_bound(expr))
    return {Fraction(t) for entries in table.values() for t in entries}


def test_one_system_per_tau_and_note():
    texts = ("1/3 o 1/2", "(1/2 + 1/3) o 1/4", PRETZEL_237, "-1/2 + 1/3 + 1/3")
    for expr in (kn(3),) + tuple(parse(text) for text in texts):
        rep = solve(expr)
        listed = [(s.tau, s.note) for s in rep.systems if s.note != "seifert-reference"]
        assert len(listed) == len(set(listed)), expr
        if not expr.is_montesinos():
            assert {t for t, _ in listed} == _closed_root_taus(expr), expr


def test_leaf_traces_are_shared_per_position_and_path():
    # within one report a leaf's trace is one object per (position, path
    # object); S0 builds its own. Both reports do share some
    for expr in (parse("-3/7 + 5/11 + 2/9 + 1/4"), kn(3)):
        traces, slots = {}, 0
        for system in solve(expr).systems:
            if system.note == "seifert-reference":
                continue
            leaves = [(i, n) for i, n in enumerate(system.nodes) if n.kind == "leaf"]
            for (i, node), path in zip(leaves, system.assignment):
                traces.setdefault((i, id(path)), set()).add(id(node))
                slots += 1
        assert all(len(ids) == 1 for ids in traces.values()), expr
        assert len(traces) < slots, expr


def test_null_slope_systems_list_every_tau():
    # 1/3 o 1/2 has no even-denominator tangle in its first factor, so it
    # has no normalization: each closed tau is listed once, slope None
    rep = solve(parse("1/3 o 1/2"))
    assert rep.slopes == ()
    assert all(s.slope is None and s.note == "" for s in rep.systems)
    assert sorted(s.tau for s in rep.systems) == [-4, 2, 6]


def _listing_key(system):
    return (
        system.slope is None,
        system.slope if system.slope is not None else Fraction(0),
        system.note,
        tuple(path.describe() for path in system.assignment),
    )


def test_systems_are_listed_by_slope_note_and_descriptor():
    cases = [(_expr(text), c_bound) for text, c_bound, _ in GOLDEN] + _pass_cases()
    # no normalization, so every slope is None: 2 + 1/3 + 1/7 lists no
    # system; in the others the descriptor orders the systems of one note
    null = ("2 + 1/3 + 1/7", "1/3 o 1/2", "1/3 + 1/3 + -1/5", "-1/3 + 1/5 + 1/7 + 1/9")
    decided = []
    for expr, c_bound in cases + [(parse(text), None) for text in null]:
        systems = solve(expr, c_bound).systems
        keys = [_listing_key(s) for s in systems]
        assert keys == sorted(keys), (expr, c_bound)
        if all(s.slope is None for s in systems) and len({s.note for s in systems}) < len(systems):
            decided.append(expr)
    assert {parse(text) for text in null[1:]} <= set(decided)


def test_monotone_in_bounds():
    small = solve_sn(kn(2), c_bound=6)
    large = solve_sn(kn(2), c_bound=10)
    assert set(small.slopes) <= set(large.slopes)


def test_deterministic_reports():
    assert solve_sn(kn(2)) == solve_sn(kn(2))
    assert solve(parse(PRETZEL_237)) == solve(parse(PRETZEL_237))


def test_shape_dispatch_and_guards():
    with pytest.raises(UnsupportedShape):
        solve_sn(parse("1/2 + 1/3 + 1/7"))
    with pytest.raises(UnsupportedShape):
        solve_montesinos(kn(2))
    with pytest.raises(UnsupportedShape):
        solve(parse("1/2 + 1/3"))  # two-bridge closure
    with pytest.raises(UnsupportedShape):
        solve(parse("1/2"))
    with pytest.raises(ValueError):
        solve_sn(kn(2), c_bound=0)
    with pytest.raises(ValueError):
        solve_montesinos(parse(PRETZEL_237), c_bound=-1)


@pytest.mark.parametrize("c_bound", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "engine, text",
    [(solve, "1/2 o 1/3"), (solve, PRETZEL_237), (solve_sn, "1/2 o 1/3"),
     (solve_montesinos, PRETZEL_237)],
    ids=["solve-product", "solve-sum", "solve_sn", "solve_montesinos"],
)
def test_c_bound_must_be_an_int(monkeypatch, engine, text, c_bound):
    # rejected before any descent is walked
    _clear_leaf_memos()
    monkeypatch.setattr(edgepaths_module, "enumerate_paths", None)
    with pytest.raises(TypeError, match="c_bound"):
        engine(parse(text), c_bound)


def test_solve_dispatches_by_shape():
    assert solve(kn(2)) == solve_sn(kn(2))
    assert solve(parse(PRETZEL_237)) == solve_montesinos(parse(PRETZEL_237))


def test_montesinos_fixture_237():
    rep = solve_montesinos(parse(PRETZEL_237))
    assert [str(s) for s in rep.slopes] == ["0", "16", "37/2", "20"]
    assert rep.crossing_source == "diagram-count"
    assert rep.certified == ()


def test_montesinos_fixture_235():
    rep = solve_montesinos(parse("-1/2 + 1/3 + 1/5"))
    assert [str(s) for s in rep.slopes] == ["0", "15"]


def test_montesinos_fixture_233():
    rep = solve_montesinos(parse("-1/2 + 1/3 + 1/3"))
    assert [str(s) for s in rep.slopes] == ["0", "12"]
    assert any("degenerate closure family" in note for note in rep.notes)
    assert not any(s.note == "degenerate-family-endpoint" for s in rep.systems)


def test_montesinos_type_i_system_structure():
    rep = solve_montesinos(parse(PRETZEL_237))
    target = [s for s in rep.systems if s.slope == Fraction(37, 2) and s.note == ""]
    assert target
    system = target[0]
    assert system.tau == Fraction(1, 2)
    assert system.closure == WeightState(2, 3, 0)
    const, partial_third, partial_seventh = system.assignment
    assert const.is_constant and const.state == WeightState(4, 6, -5)
    assert partial_third.vertices == (Fraction(1, 3), Fraction(1, 2))
    assert partial_third.final_fraction == Fraction(1, 2)
    assert partial_seventh.vertices == (Fraction(1, 7), Fraction(0))
    assert partial_seventh.final_fraction == Fraction(3, 4)


def test_montesinos_u_zero_closure_is_exact():
    rep = solve_montesinos(parse(PRETZEL_237))
    twenty = [s for s in rep.systems if s.slope == 20 and s.note == ""]
    assert twenty
    assert all(
        isinstance(p, VertexPath) and p.vertices[-1] == 0
        for p in twenty[0].assignment
    )


def _has_vertical_run(path):
    vs = () if path.is_constant else path.vertices
    return len(vs) > 2 and vs[-1].denominator == 1 and vs[-2].denominator == 1


def test_montesinos_inessential_candidates_are_flagged():
    rep = solve_montesinos(parse("-1/2 + 1/3 + 1/5"))
    flagged = [s for s in rep.systems if s.note == "inessential-candidate"]
    assert sorted(s.slope for s in flagged) == [10, 14, 16]
    # u=0 systems are descents only; the flag means sum 1/y > 1
    for system in flagged:
        assert not any(_has_vertical_run(p) for p in system.assignment)
        ys = [p.vertices[-2].denominator if len(p.vertices) > 1 else 1
              for p in system.assignment]
        assert sum(Fraction(1, y) for y in ys) > 1


def test_montesinos_essential_sum_rule():
    # N(1/2 + 1/4 + 1/4): the straight-to-zero system has sum 1/y = 1
    rep = solve_montesinos(parse("1/2 + 1/4 + 1/4"))
    assert Fraction(0) in set(rep.slopes)
    plain = [s for s in rep.systems if s.note == "" and s.closure is not None]
    assert plain and all(s.slope == 0 for s in plain)


def test_montesinos_undefined_reference():
    rep = solve_montesinos(parse("2 + 1/3 + 1/7"))
    assert rep.slopes == ()
    assert rep.diameter is None and rep.ratio is None
    assert any("normalization unavailable" in note for note in rep.notes)
    assert all(s.slope is None for s in rep.systems)


def test_montesinos_u_zero_search_never_skips():
    for text in ("-1/2 + 1/3 + 1/3 + 1/3 + 1/3", "-3/7 + 5/11 + 2/9 + 1/4"):
        rep = solve_montesinos(parse(text))
        assert not any("skipped" in note for note in rep.notes), text


def test_montesinos_slopes_grow_with_c_bound():
    text = "-1/5 + -2/7 + 5/6 + -3/4"
    default = set(solve_montesinos(parse(text)).slopes)
    assert {Fraction(-10), Fraction(-6)} <= default
    for c_bound in (2, 3, 4):
        assert set(solve_montesinos(parse(text), c_bound=c_bound).slopes) <= default
    assert Fraction(12) in solve_montesinos(parse("3/5 + 1/9 + -7/9 + -3/8")).slopes


def test_type_i_segments_outnumber_u_zero_options():
    # bounds the u=0 product by the type-I product, which runs unguarded
    for q in range(1, 13):
        for p in range(-3 * q, 3 * q + 1):
            if p and gcd(p, q) == 1:
                pq = Fraction(p, q)
                segments = _leaf_segments(pq)
                assert len(segments) >= len(_type_ii_options(pq, 32)), pq


def _reference_piece(pq, segment):
    """A segment's line v = coeff * u + offset and its interval [lo, hi), in
    Fractions: from the vertex points of its last edge, or from p/q for the
    constant; not from the segment's own int fields."""
    if segment.kind == "const":
        return Fraction(0), pq, vertex_point(pq).u, Fraction(1)
    vj, vk = (vertex_point(v) for v in segment.prefix[-2:])
    coeff = (vk.v - vj.v) / (vk.u - vj.u)
    return coeff, vj.v - coeff * vj.u, vk.u, vj.u


def _walk(leaves, notes):
    """The type-I walk's candidates, as solve_montesinos finds them."""
    return list(_type_i_candidates(leaves, notes))


def _type_i_by_product(leaves, notes):
    """The exhaustive segment product the depth-first walk replaced."""
    per_leaf = [
        [
            (s, _reference_piece(l.fraction, s))
            for s in _leaf_segments(l.fraction)
        ]
        for l in leaves
    ]
    for choice in iterproduct(*per_leaf):
        combo = tuple(s for s, _ in choice)
        pieces = [piece for _, piece in choice]
        coeff = sum(c for c, _, _, _ in pieces)
        offset = sum(o for _, o, _, _ in pieces)
        lo = max(l for _, _, l, _ in pieces)
        hi = min(h for _, _, _, h in pieces)
        if lo >= hi:
            continue
        if coeff == 0:
            if offset == 0:
                notes.append(
                    "degenerate closure family on u in [%s, %s) for %s"
                    % (lo, hi, "; ".join(_segment_label(s) for s in combo))
                )
                if lo > 0:
                    yield lo, combo, "degenerate-family-endpoint"
            continue
        u0 = -offset / coeff
        if u0 <= 0:
            continue
        if all(l <= u0 < h for _, _, l, h in pieces):
            yield u0, combo, ""


def _walk_sums():
    """25 sums of 3-5 leaves, q <= 9, an integer leaf first in every fourth."""
    rng = random.Random(4)
    sums = [[Fraction(f) for f in ("-3/4", "2/3", "3/5", "-4/5")]]
    for i in range(24):
        leaves = []
        for _ in range(rng.randint(3, 5)):
            if i % 4 == 0 and not leaves:
                leaves.append(Fraction(rng.choice([-2, -1, 1, 2])))
                continue
            q = rng.randint(2, 9)
            p = rng.choice([p for p in range(1 - q, q) if p and gcd(p, q) == 1])
            leaves.append(Fraction(p, q))
        sums.append(leaves)
    return sums


def test_type_i_walk_matches_segment_product():
    # same candidates, same order, same degenerate-family notes
    degenerate = 0
    for pqs in _walk_sums():
        leaves = [Leaf(pq) for pq in pqs]
        walk_notes, product_notes = [], []
        walk = _walk(leaves, walk_notes)
        assert walk == list(_type_i_by_product(leaves, product_notes)), pqs
        assert walk_notes == product_notes, pqs
        degenerate += bool(walk_notes)
    assert degenerate >= 3


def _fraction_pick(pq, segment, u0):
    """A segment's leaf pick at u0 in Fractions: the share of the last edge
    is f = (1/(1 - u0) - qj)/(qk - qj), and the key and tau are those of the
    resulting path, through edgepaths.end_weights and tau."""
    if segment.kind == "const":
        path = constant_path(pq, u=u0)
        return path.state.triple(), 0, path
    vj, vk = segment.prefix[-2:]
    f = (1 / (1 - u0) - vj.denominator) / (vk.denominator - vj.denominator)
    path = VertexPath(pq, segment.prefix, final_fraction=f)
    return end_weights(path).triple(), path_tau(path), path


def test_integer_type_i_picks_match_fractions():
    # the walk's sums, and one whose degenerate family yields its endpoint
    family = [Fraction(f) for f in ("5/3", "1", "-11/4")]
    picks = 0
    for pqs in _walk_sums() + [family]:
        leaves = [Leaf(pq) for pq in pqs]
        for u0, combo, _ in _walk(leaves, []):
            # the picks are built from the stage's order entries
            _, order = _type_i_stage(combo, u0)
            for pq, segment, entry in zip(pqs, combo, order):
                pick = _segment_pick(pq, segment, entry)
                assert pick == _fraction_pick(pq, segment, u0), (pqs, u0, segment)
                if segment.kind == "edge":
                    assert type(pick[1]) is Fraction, (pqs, u0, segment)
                    picks += 1
    assert picks >= 150


@st.composite
def _type_i_sums(draw, budget=2000):
    """3-6 leaves, q <= 13 and |p/q| < 3, integer leaves included; a leaf of
    denominator q has at most q + 1 segments, and q is capped so that the
    segment product stays within budget for the reference."""
    leaves, size = [], 1
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        q = draw(st.integers(min_value=1, max_value=max(1, min(13, budget // size - 1))))
        p = draw(st.sampled_from([p for p in range(1 - 3 * q, 3 * q) if p and gcd(p, q) == 1]))
        leaves.append(Fraction(p, q))
        size *= q + 1
    return leaves


@settings(max_examples=150, deadline=None)
@given(_type_i_sums())
# a closure exactly at the lower end of its interval: u0 = lo = 1/2
@example([Fraction(f) for f in ("-3/2", "13/8", "15/8", "-7/5")])
# a degenerate family on [1/2, 2/3), whose endpoint lo > 0 is yielded
@example([Fraction(f) for f in ("5/3", "1", "-11/4")])
def test_integer_type_i_walk_matches_segment_product(pqs):
    leaves = [Leaf(pq) for pq in pqs]
    walk_notes, product_notes = [], []
    walk = _walk(leaves, walk_notes)
    assert walk == list(_type_i_by_product(leaves, product_notes))
    assert walk_notes == product_notes
    assert all(type(u0) is Fraction for u0, _, _ in walk)


def _check_staged_candidates(pqs):
    """Each staged Montesinos candidate of the sum of pqs: its tau is the
    sum of its built picks' taus and its order their paths' descriptors.
    Returns the numbers of type-I and of u = 0 candidates."""
    leaves = [Leaf(pq) for pq in pqs]
    staged = list(_montesinos_candidates(reduce(Sum, leaves), 32, []))
    for t, note, order, build in staged:
        picks = build()
        assert len(picks) == len(pqs), (pqs, note)
        assert t == sum(pick[1] for pick in picks), (pqs, note)
        assert order == tuple(path.describe() for _, _, path in picks), (pqs, note)
    type_i = len(_walk(leaves, []))
    return type_i, len(staged) - type_i


def test_staged_candidates_match_built_picks():
    type_i = u_zero = 0
    for pqs in _walk_sums():
        counts = _check_staged_candidates(pqs)
        type_i, u_zero = type_i + counts[0], u_zero + counts[1]
    assert type_i >= 40 and u_zero >= 100


@settings(max_examples=100, deadline=None)
@given(_type_i_sums())
@example([Fraction(f) for f in ("-3/2", "13/8", "15/8", "-7/5")])
@example([Fraction(f) for f in ("5/3", "1", "-11/4")])  # a degenerate endpoint
def test_staged_candidates_match_built_picks_on_draws(pqs):
    _check_staged_candidates(pqs)


def test_type_i_examples_hit_interval_ends():
    # the two examples above reach the cases they are there for
    pqs = [Fraction(f) for f in ("-3/2", "13/8", "15/8", "-7/5")]
    at_lo = _walk([Leaf(pq) for pq in pqs], [])
    assert any(
        u0 == max(_reference_piece(pq, s)[2] for pq, s in zip(pqs, combo))
        for u0, combo, _ in at_lo
    )
    notes = []
    family = _walk([Leaf(Fraction(f)) for f in ("5/3", "1", "-11/4")], notes)
    assert [(u0, note) for u0, _, note in family if note] == [
        (Fraction(1, 2), "degenerate-family-endpoint")
    ]
    assert notes and notes[0].startswith("degenerate closure family on u in [1/2, 2/3)")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=6))
def test_integer_essential_rule_matches_fractions(ys):
    assert _essential(ys) == (sum(Fraction(1, y) for y in ys) <= 1)


def test_w_ends_map_back_to_segment_intervals():
    # every leaf p/q with q <= 12 and |p/q| <= 3, integer leaves included
    for q in range(1, 13):
        for p in range(-3 * q, 3 * q + 1):
            if p and gcd(p, q) == 1:
                for s in _leaf_segments(Fraction(p, q)):
                    w_lo, w_hi = s.w_lo, s.w_hi
                    assert type(w_lo) is int and w_lo >= 1, (p, q, s)
                    assert w_hi is None or (type(w_hi) is int and w_lo < w_hi), (p, q, s)
                    coeff, offset, lo, hi = _reference_piece(Fraction(p, q), s)
                    assert (_u_of(w_lo), _u_of(w_hi)) == (lo, hi), (p, q, s)
                    assert all(type(x) is int for x in (s.coeff, s.offset, s.den)), (p, q, s)
                    assert Fraction(s.coeff, s.den) == coeff, (p, q, s)
                    assert Fraction(s.offset, s.den) == offset, (p, q, s)


def test_montesinos_monotone_in_c_bound():
    small = solve_montesinos(parse(PRETZEL_237), c_bound=8)
    large = solve_montesinos(parse(PRETZEL_237), c_bound=16)
    assert set(small.slopes) <= set(large.slopes)


def test_all_emitted_systems_verify():
    reports = (
        solve_sn(kn(2)),
        solve_sn(mirror(kn(2))),
        solve(parse(PRETZEL_237)),
        solve(parse("-1/2 + 1/3 + 1/3")),
        solve(parse("(1/2 + 1/3) o 1/4")),
    )
    for rep in reports:
        for system in rep.systems:
            assert verify_system(system) == [], (rep.expr, system.note)


@st.composite
def _fractions(draw, q_max):
    """p/q with q <= q_max and |p/q| < 3, integers included."""
    q = draw(st.integers(min_value=1, max_value=q_max))
    ps = [p for p in range(1 - 3 * q, 3 * q) if p and gcd(p, q) == 1]
    return Fraction(draw(st.sampled_from(ps)), q)


def _tree(draw, parts, node):
    """A binary tree of node over parts, in order, split where drawn."""
    if len(parts) == 1:
        return parts[0]
    cut = draw(st.integers(min_value=1, max_value=len(parts) - 1))
    return node(_tree(draw, parts[:cut], node), _tree(draw, parts[cut:], node))


@st.composite
def _montesinos_sums(draw):
    leaves = draw(st.lists(_fractions(9).map(Leaf), min_size=3, max_size=5))
    return _tree(draw, leaves, Sum)


@st.composite
def _products(draw):
    factor = st.lists(_fractions(5).map(Leaf), min_size=1, max_size=2)
    factors = [
        _tree(draw, leaves, Sum)
        for leaves in draw(st.lists(factor, min_size=2, max_size=3))
    ]
    return _tree(draw, factors, Product)


def _check_traces_equal_replay(expr):
    systems = [s for s in solve(expr).systems if s.note != "seifert-reference"]
    for system in systems:
        nodes, closure, total = replay(expr, system.assignment)
        assert nodes == system.nodes, (expr, system.slope)
        assert closure == system.closure, (expr, system.slope)
        assert total == system.tau, (expr, system.slope)
    return len(systems)


@settings(max_examples=100, deadline=None)
@given(_montesinos_sums())
@example(parse("1/2 + (-1/3 + 2/5)"))  # a right-nested sum
@example(parse("-5/2 + 1/3 + 1/7 + 2"))  # an integer leaf
@example(parse("2 + -1/3 + -1/7"))  # no normalization: a null slope
def test_montesinos_traces_equal_replay(expr):
    # the engine builds every node's state and tau in integers from its
    # leaf picks; replay, through rotate_reflect and glue_scaled, agrees
    _check_traces_equal_replay(expr)


@settings(max_examples=100, deadline=None)
@given(_products())
@example(parse("(2 + 1/3) o 1/2"))  # an integer leaf
@example(parse("1/2 o (1/3 o -2/5)"))  # a right-nested product
def test_product_traces_equal_replay(expr):
    _check_traces_equal_replay(expr)


def test_sn_notes_are_sorted():
    # both engines sort their notes; the SN engine once listed these two in
    # the order it met them
    assert solve(parse("3 o 1/3")).notes == (
        "no closed systems within c_bound=32",
        "slope normalization unavailable: factor 3 has no even-denominator tangle",
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(_montesinos_sums(), _products()))
@example(parse("3 o 1/3"))  # an SN report with two notes
@example(parse("5/3 + 1 + -11/4"))  # two degenerate type-I families
def test_report_notes_are_sorted_and_distinct(expr):
    notes = solve(expr).notes
    assert list(notes) == sorted(set(notes))


def test_trace_examples_list_systems():
    # the property's examples are not vacuous; the (-2, 3, 7) pretzel has
    # type-I systems, whose partial last edges give Fraction taus
    texts = (
        "1/2 + (-1/3 + 2/5)",
        "-5/2 + 1/3 + 1/7 + 2",
        "2 + -1/3 + -1/7",
        "(2 + 1/3) o 1/2",
        "1/2 o (1/3 o -2/5)",
        PRETZEL_237,
    )
    for text in texts:
        assert _check_traces_equal_replay(parse(text)), text
    assert _check_traces_equal_replay(kn(3))


def test_solve_never_replays(monkeypatch):
    # replay (and build_system, which calls it) is the checker only
    def refuse(expr, paths):
        raise AssertionError("solve called slopes.replay")

    monkeypatch.setattr(slopes, "replay", refuse)
    for expr in (parse("(1/2 + 1/3) o 1/4"), kn(3), parse(PRETZEL_237)):
        assert solve(expr).systems, expr
    with pytest.raises(AssertionError):  # the patch does reach replay
        kn_system(3)


def _key_of(state):
    """The key of a state the solve builds: its triple, after checking
    that it carries no slope-0 or slope-infinity boundary edges."""
    assert state.n_inf == 0 and state.has_zero is False, state
    return state.triple()


def _lattice_leaf(leaf, c_bound):
    """The leaf table the key pass replaced: constants sampled on the whole
    weight lattice up to c_bound and reduced to primitive keys, plus every
    descent and vertical run; the smallest (descriptor, assignment) trace
    of each (state, tau), tau a Fraction."""
    pq = leaf.fraction
    p, q = pq.numerator, pq.denominator
    table = {}

    def add(key, t, path):
        entries = table.setdefault(key, {})
        desc = (path.describe(),)
        if t not in entries or desc < entries[t][0]:
            entries[t] = (desc, (path,))

    for k in range(1, c_bound // abs(p) + 1):
        for a in range(1, k + 1):
            path = ConstantPath(pq, WeightState(a, q * k - a, p * k))
            add(_key_of(path.state.primitive()), Fraction(0), path)
    for descent in enumerate_paths(pq):
        # an integer leaf keeps its trivial path whatever the bound
        ends = (p,) if q == 1 else u_zero_ends(descent, c_bound)
        for path in (run_to(descent, end) for end in ends):
            key = _key_of(endpoint_state(path).primitive())
            add(key, Fraction(path_tau(path)), path)
    return table


def _check_leaf_table(table, keys):
    """A leaf's table holds exactly keys: it finds each of them, every
    direction (da, T - da) with T <= bound * q gives no constant or one of
    them, its runs are among them, and it counts as many."""
    assert all(key in table for key in keys), table[:3]
    for t in range(1, table.bound * table.q + 1):
        for da in range(t + 1):
            if gcd(da, t) == 1:
                key = table.constant(da, t - da)
                assert key is None or key in keys, (table[:3], key)
    assert set(table.runs) <= set(keys), table[:3]
    assert len(table) == len(keys), table[:3]


def _check_turned(turned, table, keys):
    """A product's turned leaf table holds exactly the _turns of the
    leaf's keys, its turned runs those of its runs, each of which turns
    back to its run."""
    _check_leaf_table(turned, _turns(keys))
    assert turned.runs == _turns(table.runs)
    assert all(_turn(t)[0] in table.runs for t in turned.runs)


def _key_set(node, table, c_bound):
    """A node's key set: a merge's table, or a leaf's lattice keys once its
    table is checked against them."""
    if not isinstance(node, Leaf):
        return set(table)
    keys = set(_lattice_leaf(node, c_bound))
    _check_leaf_table(table, keys)
    return keys


def _eager_tables(node, c_bound, memo):
    """The merge the three passes replaced: every node carries the
    smallest (descriptor, assignment) trace of each (state, tau), tau a
    Fraction, combined eagerly at every node. memo maps id(node) to its
    table."""

    def combine(table, state, t, ltrace, rtrace):
        entries = table.setdefault(_key_of(state), {})
        trace = (ltrace[0] + rtrace[0], ltrace[1] + rtrace[1])
        if t not in entries or trace[0] < entries[t][0]:
            entries[t] = trace

    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Leaf):
        table = _lattice_leaf(node, c_bound)
    else:
        left = _eager_tables(node.left, c_bound, memo)
        right = _eager_tables(node.right, c_bound, memo)
        table = {}
        for lkey in sorted(left):
            lw, shift = WeightState(*lkey), None
            if isinstance(node, Product):
                if lkey[2] == 0:
                    continue
                try:
                    outcome = rotate_reflect(lw)
                except Infeasible:
                    continue
                lw, shift = outcome.state, outcome.tau_prime
                _key_of(lw)
            lents = sorted(left[lkey].items())
            if shift is not None:  # product twist: tau' - tau(left) + tau(right)
                lents = [(shift - lt, trace) for lt, trace in lents]
            for rkey in sorted(right):
                glued = glue_scaled(lw, WeightState(*rkey))
                if glued is None:
                    continue
                for lt, ltrace in lents:
                    for rt, rtrace in sorted(right[rkey].items()):
                        combine(table, glued[0], lt + rt, ltrace, rtrace)
    memo[id(node)] = table
    return table


def _closed(table):
    return {key: entries for key, entries in table.items() if key[2] == 0}


def _leaf_path(item):
    """The path of a leaf witness's (key, tau, leaf fraction, descent)
    item: the key's constant when descent is None, else the descent run
    to the key's vertex."""
    key, _, pq, descent = item
    if descent is None:
        return ConstantPath(pq, WeightState(*key))
    return run_to(descent, key[2])


def _paths(assignment):
    """The paths of a nested assignment, left to right: a merge's part is
    a (left, right) pair, a leaf's its (key, tau, leaf fraction, descent)
    item."""
    if len(assignment) == 4:
        return (_leaf_path(assignment),)
    return tuple(path for item in assignment for path in _paths(item))


def _flat(entries):
    """A {tau: witness} table with each nested witness flattened to the
    (descriptor, assignment) tuples of its paths."""
    flat = {}
    for t, (_, assignment) in entries.items():
        paths = _paths(assignment)
        flat[t] = (tuple(path.describe() for path in paths), paths)
    return flat


def _random_product(rng):
    def leaf():
        q = rng.randint(2, 5)
        p = rng.choice([p for p in range(1 - q, q) if p and gcd(p, q) == 1])
        return Leaf(Fraction(p, q))

    def factor():
        return leaf() if rng.random() < 0.4 else Sum(leaf(), leaf())

    expr = Product(factor(), factor())
    if rng.random() < 0.4:
        expr = Product(expr, factor())
    return expr


def _pass_cases():
    """(expr, c_bound) pairs: the family, a shared-subtree product, root
    sums, integer leaves, c_bound 1 and 2, and random products."""
    rng = random.Random(5)
    f, g = parse("1/2 + -1/3"), parse("2/5")
    cases = [(kn(n), default_c_bound(kn(n))) for n in range(2, 6)]
    cases.append((Product(Product(f, g), Product(f, g)), 6))  # shared subtrees
    # shared subtrees whose parents demand different keys of them
    half = Leaf(Fraction(-1, 2))
    cases.append((Product(Sum(half, Leaf(Fraction(1, 3))), Sum(half, Leaf(Fraction(2, 5)))), 6))
    cases.append((Product(Product(f, g), Product(f, parse("1/3"))), 6))
    # a root sum; integer leaves, whose constant (1, 0, p) and trivial
    # path share a key; a root sum with a leaf on the left
    for text in ("(1/2 o 1/3) + 1/5", "(2 + 1/3) o 1/2", "3 o 1/2 o -2", "1/5 + (1/2 o 1/3)"):
        cases += [(parse(text), 32), (parse(text), 1)]
    # an integer leaf whose constant family is empty: it keeps its trivial run
    cases.append((parse("(3 + 1/2) o 1/3"), 2))
    cases.append((kn(2), 1))
    cases += [(_random_product(rng), rng.choice([2, 4, 8])) for _ in range(22)]
    return cases


def test_distinct_nodes_list_each_node_once_children_first():
    shared = 0
    for expr in [kn(n) for n in range(2, 6)] + [expr for expr, _ in _pass_cases()]:
        nodes = _distinct_nodes(expr)
        place = {id(node): i for i, node in enumerate(nodes)}
        assert len(place) == len(nodes), expr
        assert place.keys() == {id(node) for node in expr.nodes()}, expr
        assert nodes[-1] is expr
        for node in nodes:
            if not isinstance(node, Leaf):
                assert place[id(node.left)] < place[id(node)] > place[id(node.right)], expr
        shared += len(nodes) < sum(1 for _ in expr.nodes())
    assert shared >= 12


def test_root_witnesses_match_eager_traces():
    # same closed root entries, integer taus, same smallest
    # (descriptor, assignment)
    closed_entries = 0
    for expr, c_bound in _pass_cases():
        table = _root_table(expr, c_bound)
        eager = _closed(_eager_tables(expr, c_bound, {}))
        assert sorted(table) == sorted(eager), (expr, c_bound)
        for key in sorted(table):
            assert all(type(t) is int for t in table[key]), (expr, c_bound, key)
            assert _flat(table[key]) == eager[key], (expr, c_bound, key)
            closed_entries += len(table[key])
    assert closed_entries >= 100


def test_passes_match_eager_tables_at_every_node():
    # the key pass builds every non-root node's eager keys and only the
    # root's closed ones; every demanded key gets its complete tau set,
    # with the eager merge's witness for each tau
    demanded = 0
    for expr, c_bound in _pass_cases():
        nodes = _distinct_nodes(expr)
        assert nodes[-1] is expr
        assert len(nodes) == len({id(node) for node in expr.nodes()})
        keys, turns = _key_pass(nodes, c_bound)
        eager = {}
        _eager_tables(expr, c_bound, eager)
        for node in nodes[:-1]:
            assert _key_set(node, keys[id(node)], c_bound) == set(eager[id(node)]), (expr, c_bound)
        assert set(keys[id(expr)]) == set(_closed(eager[id(expr)])), (expr, c_bound)
        # each product's left keys, turned once by the key pass
        for node in nodes:
            if isinstance(node, Product):
                left = keys[id(node.left)]
                if isinstance(node.left, Leaf):
                    _check_turned(turns[id(node)], left, eager[id(node.left)])
                else:
                    assert turns[id(node)] == _turns(left)
        assert len(turns) == sum(isinstance(node, Product) for node in nodes)
        demand = _demand_pass(nodes, keys, turns)
        taus = _tau_pass(nodes, keys, demand)
        for node in nodes:
            table = taus[id(node)]
            assert set(table) == set(demand[id(node)])
            assert all(key in keys[id(node)] for key in table), (expr, c_bound, node)
            for key, entries in table.items():
                assert _flat(entries) == eager[id(node)][key], (expr, c_bound, node, key)
            demanded += len(table)
            if not isinstance(node, Leaf):
                # a merge's descriptors are ranks 0, 1, ... among its
                # witnesses, in the order of their flat descriptors
                ranked = sorted(w for entries in table.values() for w in entries.values())
                assert [rank for rank, _ in ranked] == list(range(len(ranked)))
                flat = [tuple(p.describe() for p in _paths(paths)) for _, paths in ranked]
                assert flat == sorted(flat), (expr, c_bound, node)
    assert demanded >= 1000


def _brute_pairs(left, right, product):
    """{glued key: {(left key, right key)}} over every pair of two key
    tables, glued by transforms.glue_scaled after rotate_reflect at a
    product."""
    out = {}
    for lkey in left:
        lw = WeightState(*lkey)
        if product:
            try:
                lw = rotate_reflect(lw).state
            except (Infeasible, UndefinedCase):
                continue
        for rkey in right:
            glued = glue_scaled(lw, WeightState(*rkey))
            if glued is not None:
                out.setdefault(_key_of(glued[0]), set()).add((lkey, rkey))
    return out


def test_demand_pass_recovers_every_pair_of_a_demanded_key():
    # the key pass keeps only the glued keys; at every merge the demand
    # pass must recover, for each demanded key, exactly the key pairs
    # that glue to it, each once
    pairs = 0
    for expr, c_bound in _pass_cases():
        nodes = _distinct_nodes(expr)
        keys, turns = _key_pass(nodes, c_bound)
        demand = _demand_pass(nodes, keys, turns)
        for node in nodes:
            if isinstance(node, Leaf):
                assert set(demand[id(node)].values()) <= {None}
                continue
            left = _key_set(node.left, keys[id(node.left)], c_bound)
            right = _key_set(node.right, keys[id(node.right)], c_bound)
            brute = _brute_pairs(left, right, isinstance(node, Product))
            for key, recovered in demand[id(node)].items():
                assert len(set(recovered)) == len(recovered), (expr, c_bound, node, key)
                assert set(recovered) == brute[key], (expr, c_bound, node, key)
                pairs += len(recovered)
    assert pairs >= 1000


def test_sn_solve_logs_one_info_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="tangleslopes.solver"):
        solve_sn(kn(3))
    [record] = [r for r in caplog.records if r.name == "tangleslopes.solver"]
    assert record.levelno == logging.INFO
    assert "267 keys built, 66 demanded, 212 witness pairs compared" in record.getMessage()


# The merges glue integer keys in place; transforms.glue_scaled and
# transforms.rotate_reflect are the reference. These feed hand-built
# one-key tables: primitive keys (a, b, c), as the key pass builds them,
# and left keys of a product whose rotation is case 1, the only case the
# solve reaches.

_directions = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
).filter(lambda d: gcd(*d) == 1)
_sheets = st.integers(min_value=1, max_value=12)
_cs = st.integers(min_value=-40, max_value=40)


def _key(direction, sheets, c):
    return (sheets * direction[0], sheets * direction[1], c)


def _one_key_table(key, t, name):
    return {key: {t: (name, name)}}


def _turns(left):
    """The turned keys of those that _turn keeps, as the key pass hands a
    product's left keys to the later passes."""
    return {_turn(key)[0] for key in left if _turn(key)}


def _merged(merge, left, right, closing=False):
    """merge's keys from a left and a right key table."""
    return merge(_turns(left) if merge is _merge_product else left, right, closing)


def _recovered(merge, left, right, keys):
    """The demand pass over one merge whose keys are all demanded: its
    {key: recovered (left key, right key) pairs}."""
    lnode, rnode = Leaf(Fraction(1, 2)), Leaf(Fraction(1, 3))
    node = (Product if merge is _merge_product else Sum)(lnode, rnode)
    tables = {id(lnode): left, id(rnode): right, id(node): keys}
    turns = {id(node): _turns(left)} if merge is _merge_product else {}
    return _demand_pass([lnode, rnode, node], tables, turns)[id(node)]


def _glue_one(merge, left, right):
    """The three passes over two one-key tables: (glued keys, recovered
    pairs, witness table), and the glued keys of the same merge at the
    root."""
    keys = _merged(merge, left, right)
    pairs = _recovered(merge, left, right, keys)
    witnesses = _glue_witnesses(pairs, left, right, merge is _merge_product)
    return keys, pairs, witnesses, _merged(merge, left, right, True)


def _closing_part(keys, glued):
    return keys if glued.c == 0 else set()


@settings(max_examples=400, deadline=None)
@given(_directions, _sheets, _cs, _sheets, _cs)
def test_sum_glue_matches_glue_scaled(direction, ls, lc, rs, rc):
    assume(gcd(ls, lc) == 1 and gcd(rs, rc) == 1)
    lkey, rkey = _key(direction, ls, lc), _key(direction, rs, rc)
    keys, pairs, out, root = _glue_one(
        _merge_sum, _one_key_table(lkey, 3, "l"), _one_key_table(rkey, -5, "r")
    )
    glued, _ = glue_scaled(WeightState(*lkey), WeightState(*rkey))
    assert keys == {_key_of(glued)}
    assert pairs == {_key_of(glued): [(lkey, rkey)]}
    assert out == {_key_of(glued): {-2: (("l", "r"), ("l", "r"))}}
    assert root == _closing_part(keys, glued)


@st.composite
def _turnable_keys(draw):
    """Left keys whose rotation is case 1 with a feasible outcome."""
    a = draw(st.integers(min_value=1, max_value=5))
    b = draw(st.integers(min_value=0, max_value=8))
    sign = draw(st.sampled_from((-1, 1)))
    c = sign * (a + draw(st.integers(0, 8)))
    assume(gcd(a, b, c) == 1)
    return (a, b, c)


@settings(max_examples=400, deadline=None)
@given(_turnable_keys(), _sheets, _cs)
def test_product_glue_matches_glue_scaled(lkey, rs, rc):
    turn = rotate_reflect(WeightState(*lkey))
    assert turn.case_id == 1
    s = gcd(turn.state.a, turn.state.b)
    assume(gcd(rs, rc) == 1)
    rkey = _key((turn.state.a // s, turn.state.b // s), rs, rc)
    keys, pairs, out, root = _glue_one(
        _merge_product, _one_key_table(lkey, 3, "l"), _one_key_table(rkey, 1, "r")
    )
    glued, _ = glue_scaled(turn.state, WeightState(*rkey))
    assert keys == {_key_of(glued)}
    assert pairs == {_key_of(glued): [(lkey, rkey)]}
    # tau' is an int, equal to the transform's Fraction
    assert _turn(lkey) == (turn.state.triple(), turn.tau_prime)
    assert type(_turn(lkey)[1]) is int
    [(t, witness)] = out[_key_of(glued)].items()
    assert type(t) is int and t == turn.tau_prime - 3 + 1
    assert witness == (("l", "r"), ("l", "r"))
    assert root == _closing_part(keys, glued)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-30, max_value=30),
)
def test_turn_matches_rotate_reflect(a, b, c):
    try:
        outcome = rotate_reflect(WeightState(a, b, c))
    except (Infeasible, UndefinedCase):
        assert _turn((a, b, c)) is None
        return
    assert _turn((a, b, c)) == (outcome.state.triple(), outcome.tau_prime)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-80, max_value=80),
)
def test_turn_is_its_own_inverse(a, b, c):
    # the demand pass reads a product's turned keys and gets each left key
    # back by turning it again, with the same tau'
    assume(gcd(a, b, c) == 1 and abs(c) >= a)
    turned, tau_prime = _turn((a, b, c))
    assert gcd(*turned) == 1
    assert _turn(turned) == ((a, b, c), tau_prime)


# several keys per direction, with gaps and negative c: the one-sheet keys
# of a direction glue as one sumset
_glue_directions = ((1, 0), (1, 1), (1, 2), (2, 1), (2, 3))


@st.composite
def _multi_key_tables(draw):
    """(left keys, right keys of a sum, right keys of a product): in one or
    two directions, a one-sheet run of c with gaps plus primitive keys of
    1-4 sheets; the product's right keys take the directions of the turned
    left keys, so that they glue."""

    def keys(directions):
        out = set()
        few = st.lists(st.sampled_from(directions), min_size=1, max_size=2, unique=True)
        for da, db in draw(few):
            low = draw(_cs)
            run = range(low, low + draw(st.integers(min_value=0, max_value=24)))
            gaps = draw(st.sets(st.sampled_from(run))) if run else set()
            out.update((da, db, c) for c in run if c not in gaps)
            drawn = st.builds(_key, st.just((da, db)), st.integers(min_value=1, max_value=4), _cs)
            out.update(draw(st.lists(drawn.filter(lambda key: gcd(*key) == 1), max_size=8)))
        return out

    left = keys(_glue_directions)
    turned = sorted(
        {(a // gcd(a, b), b // gcd(a, b)) for (a, b, _), _ in filter(None, map(_turn, left))}
    )
    return left, keys(_glue_directions), keys(turned) if turned else set()


_runs = {(1, 0, c) for c in range(-12, 13) if c != 3}


@settings(max_examples=200, deadline=None)
@given(_multi_key_tables())
@example((_runs, _runs, {(1, 0, c) for c in range(-9, 9)}))  # dense
@example(({(1, 0, -40), (1, 0, 40)}, {(1, 0, 1), (1, 0, 39)}, set()))  # sparse, wide
def test_multi_key_merges_match_glue_scaled(tables):
    # the one-key tests above never glue a sumset of more than one element
    left, right, product_right = tables
    for merge, rkeys in ((_merge_sum, right), (_merge_product, product_right)):
        brute = _brute_pairs(left, rkeys, merge is _merge_product)
        assert _merged(merge, left, rkeys) == set(brute)
        assert _merged(merge, left, rkeys, True) == {key for key in brute if key[2] == 0}


# small primitive weights, so that many drawn pairs close
_small_keys = st.builds(
    _key,
    st.sampled_from(((1, 0), (0, 1), (1, 1), (1, 2))),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-4, max_value=4),
).filter(lambda key: gcd(*key) == 1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_small_keys, max_size=6),
    st.lists(_turnable_keys(), max_size=6),
    st.lists(_small_keys, max_size=6),
)
def test_closing_merges_keep_exactly_the_closed_keys(lkeys, turnable, rkeys):
    # the root looks up the right key with the same sheets and negated c
    # instead of gluing every pair of a direction; it must find the same
    # closed keys, and the demand pass the same pairs behind each
    right = set(rkeys)
    for merge, left in ((_merge_sum, set(lkeys)), (_merge_product, set(turnable))):
        full, root = _merged(merge, left, right), _merged(merge, left, right, True)
        assert root == {key for key in full if key[2] == 0}
        closed, every = _recovered(merge, left, right, root), _recovered(merge, left, right, full)
        assert closed == {key: every[key] for key in root}
        brute = _brute_pairs(left, right, merge is _merge_product)
        assert {key: set(pairs) for key, pairs in closed.items()} == {
            key: brute[key] for key in brute if key[2] == 0
        }


def test_key_pass_builds_no_key_without_direction():
    # a key with a = b = 0 glues to nothing, and the key pass never builds
    # one, so its merges need no guard: leaf constants and vertex ends have
    # a >= 1, _turn keeps a, and a glue of two such keys has a >= 1
    zero = (0, 0, 3)
    for other in (zero, (0, 0, -2), (1, 2, 3)):
        assert glue_scaled(WeightState(*zero), WeightState(*other)) is None
    keys = 0
    for expr, c_bound in _pass_cases():
        nodes = _distinct_nodes(expr)
        tables = _key_pass(nodes, c_bound)[0]
        for table in (_key_set(node, tables[id(node)], c_bound) for node in nodes):
            assert all(key[0] >= 1 for key in table), (expr, c_bound)
            # primitive, as the demand pass's lookups need
            assert all(gcd(*key) == 1 for key in table), (expr, c_bound)
            keys += len(table)
    assert keys >= 1000


# every leaf p/q with q <= 7 and |p/q| <= 3, integer leaves included
_SMALL_LEAVES = [
    Fraction(p, q) for q in range(1, 8) for p in range(-3 * q, 3 * q + 1) if p and gcd(p, q) == 1
]


@pytest.mark.parametrize("c_bound", [1, 4, 32])
def test_leaf_table_taus_and_keys_match_their_paths(c_bound):
    runs = 0
    for pq in _SMALL_LEAVES:
        leaf = Leaf(pq)
        table = _leaf_table(pq, c_bound)
        # the solves share the memo's descents: the table leaves them as walked
        assert leaf_descents(pq) == tuple(enumerate_paths(pq)), pq
        lattice = _lattice_leaf(leaf, c_bound)
        _check_leaf_table(table, lattice)
        # a product turns every constant into the family of
        # sign(p) q/|p|, with the same bound, and each run on its own
        _check_turned(_turned(table), table, lattice)
        # the fact the run order rests on: no descent's vertices are a
        # prefix of another's
        for d1, d2 in iterproduct(enumerate_paths(pq), repeat=2):
            assert d1 is d2 or d2.vertices[: len(d1.vertices)] != d1.vertices, (pq, d1, d2)
        # one window per descent, by rank, its place by vertices: the
        # descent, its endpoint and its tau
        descents = enumerate_paths(pq)
        assert [d.describe() for d in descents] == sorted(d.describe() for d in descents), pq
        assert [w[4] for w in table.windows] == descents, pq
        assert [w[:2] for w in table.windows] == [(int(d.vertices[-1]), path_tau(d)) for d in descents]
        # every constant and run of the table, not only the witnesses, with
        # the order a witness would carry
        every = [((0, key), (key, 0, pq, None)) for key in lattice if key not in table.runs]
        for rank, (m, t, lo, hi, d) in enumerate(table.windows):
            every += [
                ((1, rank, m - e if e <= m else e - lo), ((1, 0, e), t - 2 * (e - m), pq, d))
                for e in range(lo, hi + 1)
            ]
        every.sort(key=lambda w: w[0])
        # the runs are the reference walk's, by rank and then by the walk's
        # order of ends, with their keys and taus; the lattice holds each
        walked = []
        for d in descents:
            # an integer leaf keeps its trivial path whatever the bound
            ends = (pq.numerator,) if pq.denominator == 1 else u_zero_ends(d, c_bound)
            for path in (run_to(d, end) for end in ends):
                key = _key_of(endpoint_state(path).primitive())
                if key != table.constant(1, 0):  # an integer leaf's constant
                    walked.append((key, path_tau(path), path))
        assert [(item[0], item[1], _leaf_path(item)) for _, item in every if item[3]] == walked, pq
        assert all(Fraction(t) in lattice[key] for key, t, _ in walked), pq
        # the orders are distinct and sort as the descriptors of the built
        # paths
        described = [_leaf_path(item).describe() for _, item in every]
        assert described == sorted(described), pq
        assert len({order for order, _ in every}) == len(every), pq
        witnesses = _leaf_witnesses(leaf, table, set(lattice))
        for key, entries in witnesses.items():
            # the same smallest witness per (key, tau) as the lattice
            assert _flat(entries) == lattice[key], (pq, key)
            for t, (order, item) in entries.items():
                pick_key, pick_t, leaf_pq, descent = item
                assert (pick_key, pick_t, leaf_pq) == (key, t, pq)
                # the order of its constant or run, as checked above
                assert (order, item) in every, (pq, key, t)
                path = _leaf_path(item)
                if path.is_constant:
                    assert (t, key) == (0, _key_of(path.state.primitive()))
                    continue
                assert t == path_tau(path), (pq, path)
                assert key == _key_of(endpoint_state(path).primitive())
                # a descent's penultimate vertex is never an integer
                vs = path.vertices
                runs += len(vs) > 1 and vs[-2].denominator == 1
    assert runs


def test_large_denominator_leaf_solves():
    # a 1200-vertex descent: the recursive walk raised RecursionError here
    rep = solve(parse("1/1200 + 1/3 + 1/5"), c_bound=2)
    assert set(rep.slopes) == {Fraction(0), Fraction(16)}
    assert rep.systems
    for system in rep.systems:
        assert verify_system(system) == [], system.note


def test_montesinos_enumerates_each_distinct_leaf_once(monkeypatch):
    # a process walks one descent tuple per distinct leaf fraction, which
    # the Seifert reference and either engine read: the type-I segments
    # and the u=0 options, or every SN leaf node. A solve against cleared
    # memos walks each once, a second solve walks none; the report bytes
    # are those pinned before
    pinned = (
        (parse("1/3 + 1/3 + -1/5"), 2,
         "49d6f64087f2d03290ec78ce639ece70ecaafd54d0bdfb76bd38347e08c503be"),
        (parse(PRETZEL_237), 3,
         "a6fdd7d87c17a5682451c7aa4bf85fc552f6bfa9f21b7474c11f5a1b569ad708"),
        (kn(3), 2,
         "33b30918b316472829dee770e1b5a444092512494a8f278f9b47d77812fa194d"),
        (parse(" o ".join(["1/3"] * 19)), 1,
         "647a4a583901e01ec948bda1a22ca37a2bf735218ab3f0e66ae3136a82ca44e8"),
    )
    calls = []

    def counted(pq):
        calls.append(pq)
        return enumerate_paths(pq)

    monkeypatch.setattr(edgepaths_module, "enumerate_paths", counted)
    for expr, count, digest in pinned:
        _clear_leaf_memos()
        calls.clear()
        out = format_json(solve(expr))
        assert len(calls) == count == len(set(calls)), expr
        assert hashlib.sha256(out.encode()).hexdigest() == digest, expr
        calls.clear()
        assert format_json(solve(expr)) == out, expr
        assert calls == [], expr


def test_warm_memos_give_cold_bytes():
    # a memo entry depends on its fraction, and on c_bound where c_bound is
    # part of its key: a report's bytes are the same whether its solve
    # finds the memos cleared, filled in reverse order, or warm from
    # solving every other case
    exprs = [_expr(text) for text, _, _ in GOLDEN] + [expr for expr, _ in _pass_cases()]
    # descents that end at -3, -2 and 2: the u=0 options differ between
    # c_bound 1, 2 and 32
    exprs.append(parse("-5/2 + 1/3 + 1/7 + 2"))
    cases = [(expr, c_bound) for expr in exprs for c_bound in (None, 1, 2)]
    cold = []
    for expr, c_bound in cases:
        _clear_leaf_memos()
        cold.append(format_json(solve(expr, c_bound)))
    for order in (reversed, list):  # reverse, then each after all others
        for i in order(range(len(cases))):
            expr, c_bound = cases[i]
            assert format_json(solve(expr, c_bound)) == cold[i], (render(expr), c_bound)


def test_leaf_memos_stay_within_their_bound():
    fractions = [Fraction(k, 2) for k in range(1, 2 * LEAF_MEMO_SIZE + 40, 2)]
    assert len(fractions) > LEAF_MEMO_SIZE
    for pq in fractions:
        leaf_descents(pq)
        slopes._seifert_leaf(pq)
        _leaf_segments(pq)
        _type_ii_options(pq, 1)
        _leaf_table(pq, 1)
    for memo in LEAF_MEMOS:
        info = memo.cache_info()
        assert info.maxsize == LEAF_MEMO_SIZE and info.currsize <= LEAF_MEMO_SIZE, memo


@pytest.mark.parametrize("pq", [Fraction(1, 31), Fraction(5, 8)])
def test_leaf_table_keeps_one_window_per_descent(pq):
    # a kn(30) leaf and a q = 8 leaf at kn(30)'s c_bound 932: each run
    # end is one key of the set, its descent's window a few ints; with a
    # (tau, rank, position, descent) record per end as well, each table
    # took over 700 KB
    leaf_descents(pq)  # the memo's, not the table's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = _leaf_table.__wrapped__(pq, 932)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 400 * 1024, retained
    assert len(table.runs) == 2 * 932 + 1 and len(table.windows) == len(leaf_descents(pq))


def test_memo_entries_equal_a_fresh_computation():
    # no solve mutates what the memos hand it: after a solve, each leaf's
    # entries, read without a miss, equal a computation from scratch
    checked = 0
    exprs = [_expr(text) for text, _, _ in GOLDEN] + [expr for expr, _ in _pass_cases()[:12]]
    for expr in exprs:
        _clear_leaf_memos()
        rep = solve(expr)
        c_bound = rep.c_bound
        # without S0 the Seifert paths were not all built
        normalized = any(s.note == "seifert-reference" for s in rep.systems)
        lookups = [(slopes._seifert_leaf, ())] if normalized else []
        if expr.is_montesinos():
            lookups += [(_leaf_segments, ()), (_type_ii_options, (c_bound,))]
        else:
            lookups += [(_leaf_table, (c_bound,))]
        misses = [memo.cache_info().misses for memo in LEAF_MEMOS]
        for pq in {leaf.fraction for leaf in expr.leaves()}:
            assert leaf_descents(pq) == tuple(enumerate_paths(pq)), (render(expr), pq)
            for memo, rest in lookups:
                assert memo(pq, *rest) == memo.__wrapped__(pq, *rest), (render(expr), pq)
                checked += 1
        assert [memo.cache_info().misses for memo in LEAF_MEMOS] == misses, render(expr)
    assert checked >= 100
