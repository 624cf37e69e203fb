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
from tangleslopes.edgepaths import (
    LEAF_MEMO_SIZE,
    end_weights,
    endpoint_state,
    enumerate_paths,
    leaf_descents,
    run_to,
    tau as path_tau,
)
# the per-fraction memos, read only to clear them and to check their bounds
from tangleslopes.montesinos import _leaf_segments, _type_ii_options
from tangleslopes.slopes import replay
from tangleslopes.sn import _leaf_table
from tangleslopes.tangles import Leaf, Product, Sum, mirror, render
from tangleslopes.transforms import glue_scaled, rotate_reflect

from reference import (
    eager_tables,
    lattice_leaf,
    pass_cases,
    reference,
    segments,
    type_i_closures,
    type_i_size,
    u_zero_ends,
)
from strategies import one_sheet_chains, trees, two_leaf_products
from test_golden import GOLDEN, _expr, corpus_batches

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


def test_runs_add_int_vertices_and_kn_system_holds_the_solved_long_path():
    # a run adds the integers past its descent's end as ints, one step at a
    # time to its end; the descent's own vertices stay Fractions
    runs = 0
    for start in (Fraction(-1, 2), Fraction(3, 7), Fraction(7, 2), Fraction(-5, 3)):
        for descent in enumerate_paths(start):
            k, m = len(descent.vertices), int(descent.vertices[-1])
            for end in range(m - 6, m + 7):
                vs = run_to(descent, end).vertices
                assert vs[:k] == descent.vertices
                assert all(type(v) is Fraction for v in vs[:k])
                assert all(type(v) is int for v in vs[k:])
                d = 1 if end > m else -1
                assert vs[k:] == tuple(range(m + d, end + d, d))
                runs += len(vs) > k
    assert runs == 12 * 9
    # kn_system's long path is the solved one, value by value and type by type
    for n in (2, 5, 12):
        low = -(2 * (n + 1) ** 2 - 4)
        [solved] = [s for s in solve_sn(kn(n)).systems if s.slope == low]
        built, solved = kn_system(n).assignment[3], solved.assignment[3]
        assert built.tangle == solved.tangle == Fraction(1, n + 1)
        assert len(built.vertices) == n + 1 + n * n + n - 1
        assert [(type(v), v) for v in built.vertices] == [(type(v), v) for v in solved.vertices]


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
    cases = [(_expr(text), c_bound) for text, c_bound, _ in GOLDEN] + pass_cases()
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


def _check_slopes_from_fractions(rep):
    """rep's slopes, listing order, diameter and ratio, recomputed from the
    systems' Fraction slopes."""
    counted = {s.slope for s in rep.systems if s.note == ""}
    if any(s.note == "seifert-reference" for s in rep.systems):
        slopes = tuple(sorted({Fraction(0), *counted}))
    else:
        slopes = ()
    assert rep.slopes == slopes and all(type(s) is Fraction for s in rep.slopes)
    keys = [(s.slope if s.slope is not None else 0, s.note) for s in rep.systems]
    assert keys == sorted(keys)
    diameter = slopes[-1] - slopes[0] if slopes else None
    assert rep.diameter == diameter
    assert rep.ratio == (diameter / rep.crossings if slopes else None)


@st.composite
def _half_integer_sums(draw):
    """Sums of three or four leaves, one of them +-1/2 and the others 1/q
    or -1/q with q odd, as in -1/2 + 1/3 + 1/7, whose slopes include 37/2."""
    odd = st.sampled_from((3, 5, 7, 9)).flatmap(
        lambda q: st.sampled_from((Fraction(1, q), Fraction(-1, q))))
    fractions = [draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 2))))]
    fractions += draw(st.lists(odd, min_size=2, max_size=3))
    return _sum_of(draw(st.permutations(fractions)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(trees(max_merges=4), _half_integer_sums()), st.integers(min_value=1, max_value=4))
@example(parse("-1/2 + 1/3 + 1/7"), 1)  # slopes 0, 16, 37/2 and 20
@example(parse("5/3 + 1 + -11/4"), 1)  # a degenerate family's endpoint at a counted slope
def test_slopes_are_ordered_as_their_fractions(expr, c_bound):
    try:
        rep = solve(expr, c_bound)
    except UnsupportedShape:
        return
    _check_slopes_from_fractions(rep)


def test_family_certification_reads_the_extreme_slopes():
    # kn(n) and its mirror certify -+(2(n + 1)^2 - 4); a knot outside the
    # family certifies nothing
    for n in range(2, 13):
        extreme = Fraction(2 * (n + 1) ** 2 - 4)
        for expr in (kn(n), mirror(kn(n))):
            rep = solve_sn(expr)
            _check_slopes_from_fractions(rep)
            assert rep.certified == (-extreme, extreme), (n, render(expr))
            assert all(type(s) is Fraction for s in rep.certified)
            assert rep.crossing_source == "family-exact"
    assert solve(parse("(-1/2 + 1/3) o (-1/2 + 1/4)")).certified == ()


def test_one_system_per_tau_and_note():
    texts = ("1/3 o 1/2", "(1/2 + 1/3) o 1/4", PRETZEL_237, "-1/2 + 1/3 + 1/3")
    for expr in (kn(3),) + tuple(parse(text) for text in texts):
        rep = solve(expr)
        listed = [(s.tau, s.note) for s in rep.systems if s.note != "seifert-reference"]
        assert len(listed) == len(set(listed)), expr
        if not expr.is_montesinos():
            # every closed tau of the reference's root
            expected = reference(expr, rep.c_bound).systems
            assert {t for t, _ in listed} == {t for t, _ in expected}, expr


def _unshared_traces(rep):
    """The node slots of rep's systems, S0's aside, whose trace is not the
    first one seen with the same label over the same leaf path objects."""
    spans, first = [], 0  # each preorder node's slice of the leaf paths
    for node in rep.expr.nodes():
        spans.append(slice(first, first + sum(1 for _ in node.leaves())))
        first += isinstance(node, Leaf)
    seen, unshared = {}, 0
    for system in rep.systems:
        if system.note != "seifert-reference":
            for node, span in zip(system.nodes, spans):
                key = node.label, tuple(map(id, system.assignment[span]))
                unshared += seen.setdefault(key, node) is not node
    return unshared


def test_node_traces_are_shared_per_label_and_paths():
    # within one report, S0 aside, a subtree's trace is one object per
    # label and leaf path objects, wherever it sits: kn(n)'s factor at both
    # of its positions, P(-2, 3, 3)'s 1/3 at both of its. The corpora are
    # the seed-1 batches of a 16-second benchmark run
    products, sums, wide = corpus_batches(1)
    texts = products + sums + wide + ("-1/2 + 1/3 + 1/3", "-3/7 + 5/11 + 2/9 + 1/4")
    for expr in [kn(n) for n in range(2, 9)] + [parse(text) for text in texts]:
        assert _unshared_traces(solve(expr)) == 0, render(expr)
    # records are shared between systems, and at two positions where a
    # subtree repeats
    repeats = ((parse("-3/7 + 5/11 + 2/9 + 1/4"), False), (parse("-1/2 + 1/3 + 1/3"), True),
               (kn(3), True))
    for expr, repeated in repeats:
        places = {}
        for system in solve(expr).systems:
            for i, node in enumerate(system.nodes):
                places.setdefault(id(node), []).append(i)
        assert any(len(at) > 1 for at in places.values()), render(expr)
        assert any(len(set(at)) > 1 for at in places.values()) == repeated, render(expr)


def test_a_shared_factor_and_its_copy_print_the_same_report():
    # kn(n) holds its factor as one object, the parsed text as two equal
    # copies, whose paths are distinct objects: equal labels over
    # different paths share no trace, and the bytes agree
    for n in range(2, 11):
        shared, copied = kn(n), parse(render(kn(n)))
        assert shared.left is shared.right and copied.left is not copied.right
        assert format_json(solve_sn(shared)) == format_json(solve(copied)), n


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
    cases = [(_expr(text), c_bound) for text, c_bound, _ in GOLDEN] + pass_cases()
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


def test_default_c_bound_keeps_the_product_slope_sets():
    # products-corpus knots (seeds 1-3) whose slope sets at c_bound 64
    # need at least 21, 21, 21 and 10: below, the first three lose their
    # extreme slopes (80..84, -80..-74, -70..-64) and the last loses -28.
    # The rule "2 + the largest floor(|1/v|) over each product's
    # product-free operands" gives 12, 12, 12 and 3 (ROADMAP item 17b)
    for text in ("(-2/3 + 1/2) o (-2/5 + 1/2) o -1/2", "(-1/2 + -2/3) o (2/5 + -1/2) o 1/2",
                 "3/4 o (1/2 + -3/5) o (-1/2 + 1/3)", "-3/4 o (1/2 + 3/5) o (-1/3 + -1/2)"):
        expr = parse(text)
        assert solve(expr).slopes == solve(expr, 64).slopes, text


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
        solve(parse(PRETZEL_237), c_bound=-1)  # checked, though a sum reads no bound


@pytest.mark.parametrize("c_bound", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "engine, text",
    [(solve, "1/2 o 1/3"), (solve, PRETZEL_237), (solve_sn, "1/2 o 1/3")],
    ids=["solve-product", "solve-sum", "solve_sn"],
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


def test_montesinos_sums_keep_their_listed_slopes():
    assert {Fraction(-10), Fraction(-6)} <= set(solve_montesinos(parse("-1/5 + -2/7 + 5/6 + -3/4")).slopes)
    assert Fraction(12) in solve_montesinos(parse("3/5 + 1/9 + -7/9 + -3/8")).slopes


def test_large_leaf_sums_keep_their_u_zero_slopes():
    # slopes 12 and 16 are u = 0 systems of descents to 33 and -33, past
    # the SN default c_bound 32, which a sum does not read
    for text, expected in (
        ("67/2 + -100/3 + 1/7", {0, 12, Fraction(100, 7)}),
        ("131/4 + -98/3 + 1/5", {0, 16, Fraction(58, 3)}),
    ):
        rep = solve(parse(text))
        assert set(rep.slopes) == expected, text
        for system in rep.systems:
            assert verify_system(system) == [], (text, system.slope, system.note)


# The reference (tests/reference.py) says what a solve must list, from the
# edgepath definitions and the package's public names alone. The tests
# below compare solve's output with it and check each listed system's
# traces against the public transforms; none reads a solver stage.


def _listed(rep):
    """{(tau, note): descriptor} of a report's systems other than S0, after
    checking that each (tau, note) is listed once."""
    systems = [s for s in rep.systems if s.note != "seifert-reference"]
    listed = {(s.tau, s.note): tuple(path.describe() for path in s.assignment) for s in systems}
    assert len(listed) == len(systems), render(rep.expr)
    return listed


def _check_reference(expr, c_bound):
    """solve(expr, c_bound) lists the reference's systems and degenerate-
    family notes, and every listed system passes verify_system; or both
    raise UnsupportedShape. Returns the report, None when unsupported."""
    try:
        expected = reference(expr, c_bound)
    except UnsupportedShape:
        with pytest.raises(UnsupportedShape):
            solve(expr, c_bound)
        return None
    rep = solve(expr, c_bound)
    where = (render(expr), c_bound)
    assert _listed(rep) == expected.systems, where
    degenerate = [note for note in rep.notes if note.startswith("degenerate closure family")]
    assert degenerate == expected.notes, where
    for system in rep.systems:
        assert verify_system(system) == [], where + (system.note,)
    return rep


def _sum_of(pqs):
    return reduce(Sum, map(Leaf, pqs))


def _at_u_zero(system):
    """Whether each path of a system is a whole descent to an integer."""
    return all(
        not p.is_constant and p.final_fraction == 1 and p.vertices[-1].denominator == 1
        for p in system.assignment
    )


# the reference's type-I closures walk the full segment product: a drawn
# sum with more combinations is left to the fixed sums further down
TYPE_I_BUDGET = 20_000

_HALF = Leaf(Fraction(-1, 2))
# one -1/2 leaf object under both factors, each demanding its own keys
_SHARED = Product(Sum(_HALF, Leaf(Fraction(1, 3))), Sum(_HALF, Leaf(Fraction(2, 5))))


@settings(max_examples=200, deadline=None)
@given(trees(max_merges=4), st.integers(min_value=1, max_value=4))
@example(parse("1/4 o (1/2 + -3/4)"), 2)  # runs up from a descent's end, ordered by length
@example(parse("1/2 + 1/4 + 1/4"), 4)  # a u = 0 system with sum 1/y = 1 exactly
@example(parse("5/3 + 1 + -11/4"), 1)  # a degenerate family's endpoint
@example(parse("-3/2 + 13/8 + 15/8 + -7/5"), 1)  # a lower-end closure; u = 0 descents past +-1
@example(parse("(7/2 + 1/3) o 1/2"), 1)  # a run window clipped to c_bound
@example(parse("(3 + 1/2) o 1/3"), 2)  # an integer leaf with no constant in its bound
@example(parse("(2 + 1/3) o 1/2"), 4)  # an integer leaf whose constant and path share a key
@example(parse("(3 o -2/3) o -2/3"), 2)  # a turned integer leaf with no constant in its bound
@example(parse("(3 o -2/3) o -2/3"), 3)  # a turned integer leaf whose constant and path share a key
@example(kn(2), 8)
@example(_SHARED, 4)
@example(parse("-1/2 + -1/2 + (2/3 o 1/2)"), 2)  # a root whose closing keys pair c with -c only
@example(parse("-1/2 o ((-1/2 o -1/2) + (-1/2 o -1/2))"), 4)  # two-sheet keys glued and reduced
@example(parse("3/11 o 1/2"), 1)  # two descents whose runs reach one (key, tau): the first wins
@example(parse("(-1/3 + 2/3) o (3/2 + 2/3)"), 2)  # two leaves' constants glued up to the largest T
@example(parse("-1/12 + -31/12 + 8/3"), 1)  # a closure at an upper end belongs to the next segment
@example(parse("2/5 + -2 + 11/6"), 1)  # a u = 0 family through an integer leaf beyond +-1
@example(parse("(1/3 + -1/3) o (1/3 + -1/3)"), 2)  # a turned family of value 0 glued to one of value 0
@example(parse("-1/4 o (3/4 + 3)"), 1)  # a turned constant closes where no turned run does
@example(parse("-1/2 o (2/5 o 1)"), 2)  # the same on the keys of a product
@example(parse("1/2 o (1/3 o 1/4)"), 1)  # turned runs (1, k, +-1) close on a product's runs
@example(parse("3/4 o ((-2/5 + 2/5) o 1/5)"), 2)  # a right factor of value 1/0
# roots of value 0 keep only their family's first key: there it wins a tau
# in the first two, and an explicit closing wins the family's tau in the third
@example(parse("(-1/4 + -1/2) o (-1/3 + 1/3) o 3/4"), 6)
@example(parse("(1/2 + 1/3) o (-1/5 + -1)"), 10)
@example(parse("-1/2 o (-1/4 + 3/4) o 2/3"), 4)
# every root closes through one test (sn._closings), whatever its sides hold
@example(parse("1/3 o 1/2 o -1/3 o 2/5"), 4)  # a root's left side an explicit set
@example(parse("1/5 + (1/3 o 1/2)"), 4)  # a root sum over a product
@example(parse("(1/2 + 1/3) o ((1/4 + -1/3) o (1/5 + 1/2))"), 3)  # right runs kept by formula
@example(parse("(1/5 + (1/3 o 1/2)) o 2/7"), 4)  # a merge below the root with a one-sheet side
@example(parse("(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2) o (1/3 + -1/2)"), 3)  # a four-factor chain
def test_solve_lists_the_reference_systems(expr, c_bound):
    assume(not expr.is_montesinos() or type_i_size(expr) <= TYPE_I_BUDGET)
    _check_reference(expr, c_bound)


def _runs_up(path):
    """Whether a path ends with a vertical run up along u = 0."""
    vs = () if path.is_constant else path.vertices
    return len(vs) > 2 and vs[-2].denominator == 1 and vs[-1] > vs[-2]


def test_reference_examples_reach_their_cases():
    # the property's fixed products list what they are there for
    def paths(text, c_bound):
        return [p for s in solve(parse(text), c_bound).systems for p in s.assignment]

    assert any(_runs_up(p) for p in paths("1/4 o (1/2 + -3/4)", 2))
    # 7/2 descends to 3, past c_bound 1, and runs back down into the bound
    clipped = [p for p in paths("(7/2 + 1/3) o 1/2", 1) if p.tangle == Fraction(7, 2)]
    assert any(p.vertices[-3:] == (3, 2, 1) for p in clipped)
    # the leaf 3 has no constant within c_bound 2, so its trivial path
    assert VertexPath(Fraction(3), (Fraction(3),)) in paths("(3 + 1/2) o 1/3", 2)
    # turned, the leaf 3 closes no system at c_bound 2; at c_bound 3 both
    # systems take its constant (1, 0, 3), whose descriptor is smaller than
    # its trivial path's
    assert solve(parse("(3 o -2/3) o -2/3"), 2).systems == ()
    turned = [s.assignment[0] for s in solve(parse("(3 o -2/3) o -2/3"), 3).systems]
    assert len(turned) == 2 and all(p.is_constant and p.state.triple() == (1, 0, 3) for p in turned)
    # a -1/2 o -1/2 glues its one-sheet turned key to a two-sheet key
    rep = solve(parse("-1/2 o ((-1/2 o -1/2) + (-1/2 o -1/2))"), 4)
    assert any(node.scales != (1, 1) for s in rep.systems for node in s.nodes)
    # a factor whose two leaves both take their constants
    rep = solve(parse("(-1/3 + 2/3) o (3/2 + 2/3)"), 2)
    assert any(all(p.is_constant for p in s.assignment[i:i + 2]) for s in rep.systems for i in (0, 2))
    # a product turns a leaf's run (1, 0, c) into (1, |c| - 1, sign c), so
    # a turned key (1, 0, c) with |c| > 1 is a turned constant: -1/4's
    # (1, 0, -4) and -1/2's (1, 0, -2) close where no turned run does
    for text, c_bound in (("-1/4 o (3/4 + 3)", 1), ("-1/2 o (2/5 o 1)", 2)):
        assert any(s.assignment[0].is_constant and abs(s.nodes[0].transformed.c) > 1
                   for s in solve(parse(text), c_bound).systems)
    # a counted u = 0 system of 1/2 + 1/4 + 1/4 has sum 1/y = 1
    rep = solve(parse("1/2 + 1/4 + 1/4"), 4)
    assert any(
        s.note == "" and sum(Fraction(1, p.vertices[-2].denominator) for p in s.assignment) == 1
        for s in rep.systems
        if _at_u_zero(s)
    )


_THIRD = Leaf(Fraction(1, 3))
# one leaf object added to itself, beside a factor with an integer leaf
_DOUBLED = Product(Sum(_THIRD, _THIRD), Sum(Leaf(Fraction(-1, 2)), Leaf(Fraction(2))))


# a sum of two leaves is solved by formula: its one-sheet keys per pair of
# run windows, its constant pairs as one family, turned at a product
@settings(max_examples=150, deadline=None)
@given(two_leaf_products(), st.integers(min_value=1, max_value=12))
@example(parse("(2 + 1/3) o (-1 + 1/2)"), 4)  # integer leaves: each constant (1, 0, p) joins the runs
@example(parse("(5/8 + -4/9) o (4/9 + 1/2)"), 6)  # leaves of three or more descents
@example(parse("(5/8 + 4/9) o (5/8 + 4/9)"), 12)  # the same at the largest c_bound drawn
@example(parse("(7/2 + -1/3) o (1/2 + -5/2)"), 2)  # descents ending past +-c_bound: clipped windows
@example(parse("(-1/2 + 1/3) o (-1/8 + 1/9)"), 12)  # unequal factors
@example(kn(3), 12)  # one factor object on both sides of the product
@example(_DOUBLED, 6)  # Sum(x, x) of a single Leaf object x
@example(parse("(1/2 + 1/3) o (-1/5 + -1)"), 8)  # 6/5 - 6/5: every key of the root's family closes
def test_two_leaf_sums_list_the_reference_systems(expr, c_bound):
    _check_reference(expr, c_bound)


def test_two_leaf_examples_reach_their_cases():
    # the fixed products of the property above hold what they are there for
    def assignments(expr, c_bound):
        return [s.assignment for s in solve(expr, c_bound).systems if s.note != "seifert-reference"]

    # the integer leaf 2 takes its constant (1, 0, 2) beside a run of 1/3
    assert any(
        ps[0].is_constant and ps[0].state.triple() == (1, 0, 2) and not ps[1].is_constant
        for ps in assignments(parse("(2 + 1/3) o (-1 + 1/2)"), 4)
    )
    assert all(len(enumerate_paths(Fraction(pq))) >= 3 for pq in ("5/8", "-4/9", "4/9"))
    # 7/2 descends to 3 or 4, past c_bound 2, and runs back into the bound;
    # -5/2 descends to -2 or -3
    listed = assignments(parse("(7/2 + -1/3) o (1/2 + -5/2)"), 2)
    assert any(ps[0].vertices[-3:] == (3, 2, 1) for ps in listed)
    assert {int(d.vertices[-1]) for d in enumerate_paths(Fraction(7, 2))} == {3, 4}
    # both leaves of the left factor take their constants: a key of the
    # turned constant-pair family closes
    assert any(ps[0].is_constant and ps[1].is_constant
               for ps in assignments(parse("(-1/2 + 1/3) o (-1/8 + 1/9)"), 12))
    assert assignments(_DOUBLED, 6)


# a product of one-sheet factors below the root keeps its glued keys by
# formula: its runs plus sums of spans, and per direction (1 : k) the glue
# of a turned run to the right factor's constant; the next product turns
# them by formula and closes on them by value
@settings(max_examples=150, deadline=None)
@given(one_sheet_chains(), st.integers(min_value=1, max_value=8))
@example(parse("(2 + 5/2) o -1/4 o 1/4"), 8)  # an integer left leaf; a turned run glued to a constant
@example(parse("(1/2 + -1/3) o (-1/3 + 1/3) o 2/3"), 8)  # a factor of value 0
@example(parse("3/4 o ((-2/5 + 2/5) o 1/5)"), 6)  # a right factor of value 1/0
@example(parse("(-1/3 + 1/5) o (1 + 1/2) o (1/3 + -1/5)"), 6)  # two-sheet glues in direction (1 : 0)
@example(parse("(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)"), 8)  # a GOLDEN chain
def test_one_sheet_chains_list_the_reference_systems(expr, c_bound):
    _check_reference(expr, c_bound)


def test_one_sheet_chain_examples_reach_their_cases():
    # the fixed chains of the property above hold what they are there for
    def nodes(text, c_bound):
        return [[n.state.triple() for n in s.nodes] for s in solve(parse(text), c_bound).systems
                if s.note != "seifert-reference"]

    def transformed(text, c_bound):
        return [s.nodes[1].transformed.triple() for s in solve(parse(text), c_bound).systems
                if s.note != "seifert-reference"]

    # the run (1, 0, 8) of 2 + 5/2 turns into (1, 7, 1), which glues to
    # -1/4's constant (1, 7, -2) into (1, 7, -1); the leaf 2 takes its
    # trivial path (1, 0, 2)
    assert [(1, 7, -1), (1, 0, 8), (1, 0, 2), (1, 0, 6), (1, 7, -2), (1, 0, 8)] in [
        ns[1:] for ns in nodes("(2 + 5/2) o -1/4 o 1/4", 8)]
    # 1/2 + -1/3 has value 1/6: its constant (1, 5, 1) turns into one sheet,
    # (1, 0, 6), and glues to a run of the value-0 factor -1/3 + 1/3
    assert (1, 0, 6) in transformed("(1/2 + -1/3) o (-1/3 + 1/3) o 2/3", 8)
    # (-2/5 + 2/5) o 1/5 has value 1/0 and no constant: the root closes on
    # its one-sheet keys
    listed = nodes("3/4 o ((-2/5 + 2/5) o 1/5)", 6)
    assert listed and all(ns[2][:2] == (1, 0) for ns in listed)
    # -1/3 + 1/5 has value -2/15: its constant turns into two sheets,
    # (2, 0, -15), and glues to the run (1, 0, 0) of 1 + 1/2
    assert any(ns[1] == (2, 0, -15) and ns[5] == (1, 0, 0)
               for ns in nodes("(-1/3 + 1/5) o (1 + 1/2) o (1/3 + -1/5)", 6))
    # a knot: every system has a slope, and the inner product closes the
    # root through its runs (1, 0, +-1), sums of spans
    rep = solve(parse("(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)"), 8)
    assert all(s.slope is not None for s in rep.systems)
    assert {s.nodes[1].state.triple() for s in rep.systems if s.nodes[1].transformed} == {(1, 0, 1), (1, 0, -1)}


def test_root_witnesses_match_eager_traces():
    # the fixed products list the reference's systems: the least
    # descriptor per closed tau of its eager merge over the sampled lattice
    listed = 0
    for expr, c_bound in pass_cases():
        listed += len(_check_reference(expr, c_bound).systems)
    assert listed >= 100


def _subtrees(system):
    """(node, trace, the paths of its leaves) per node of a system, in
    preorder: a node's leaves follow those of the nodes before it."""
    out, first = [], 0
    for node, trace in zip(system.expr.nodes(), system.nodes):
        out.append((node, trace, system.assignment[first:first + sum(1 for _ in node.leaves())]))
        first += isinstance(node, Leaf)
    return out


def _listed_systems(cases):
    for expr, c_bound in cases:
        for system in solve(expr, c_bound).systems:
            if system.note != "seifert-reference":
                yield system, c_bound


def test_passes_match_eager_tables_at_every_node():
    # a listed witness is built from its children's least witnesses: at
    # every node, the subtree's (state, tau) is in the node's eager table
    # with the subtree's own descriptor as its least
    checked, memos = 0, {}
    for system, c_bound in _listed_systems(pass_cases()):
        memo = memos.setdefault((id(system.expr), c_bound), {})
        eager_tables(system.expr, c_bound, memo)
        for node, trace, paths in _subtrees(system):
            entries = memo[id(node)][trace.state.triple()]
            desc = tuple(path.describe() for path in paths)
            assert entries[Fraction(trace.tau)][0] == desc, (render(system.expr), c_bound, trace.label)
            checked += 1
    assert checked >= 1000


def _merges(kind):
    """(trace, left child's trace, right child's trace) of every `kind`
    node of every system listed for the fixed products."""
    for system, _ in _listed_systems(pass_cases()):
        nodes = list(system.expr.nodes())
        for i, node in enumerate(nodes):
            if system.nodes[i].kind == kind:
                right = i + 1 + sum(1 for _ in node.left.nodes())
                yield system.nodes[i], system.nodes[i + 1], system.nodes[right]


def test_sum_glue_matches_glue_scaled():
    # a sum glues its children's states as glue_scaled does; taus add
    glued = 0
    for trace, left, right in _merges("sum"):
        assert glue_scaled(left.state, right.state) == (trace.state, trace.scales), trace
        assert type(trace.tau) is int and trace.tau == left.tau + right.tau, trace
        glued += 1
    assert glued >= 500


def test_product_glue_matches_glue_scaled():
    # a product glues its turned left state to its right one; its tau is
    # tau' - tau(left) + tau(right), an int
    glued = 0
    for trace, left, right in _merges("product"):
        assert glue_scaled(trace.transformed, right.state) == (trace.state, trace.scales), trace
        assert type(trace.tau) is int, trace
        assert trace.tau == trace.tau_prime - left.tau + right.tau, trace
        glued += 1
    assert glued >= 500


def test_turn_matches_rotate_reflect():
    # every turn the solve makes is case 1 of rotate_reflect, tau' an int
    for trace, left, _ in _merges("product"):
        outcome = rotate_reflect(left.state)
        assert outcome.case_id == trace.case_id == 1, trace
        assert (outcome.state, outcome.m, outcome.tau_prime) == (trace.transformed, trace.m, trace.tau_prime)
        assert type(trace.tau_prime) is int, trace


def test_turn_is_its_own_inverse():
    # turning a product's turned state again gives its left state back,
    # with the same tau'
    for trace, left, _ in _merges("product"):
        back = rotate_reflect(trace.transformed)
        assert (back.state, back.tau_prime) == (left.state, trace.tau_prime), trace


def test_key_pass_builds_no_key_without_direction():
    # a key with a = b = 0 glues to nothing: no state a solve lists has
    # one. Each is primitive with a >= 1, and carries no slope-0 or
    # slope-infinity boundary edges
    zero = (0, 0, 3)
    for other in (zero, (0, 0, -2), (1, 2, 3)):
        assert glue_scaled(WeightState(*zero), WeightState(*other)) is None
    states = 0
    for system, _ in _listed_systems(pass_cases()):
        for trace in system.nodes:
            for state in filter(None, (trace.state, trace.transformed)):
                assert state.a >= 1 and gcd(*state.triple()) == 1, trace
                assert state.n_inf == 0 and state.has_zero is False, trace
                states += 1
    assert states >= 1000


def _merge_sums():
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


def test_type_i_merge_matches_segment_product():
    # the reference's type I is the full segment product; same listed
    # systems, same degenerate-family notes
    degenerate = 0
    for pqs in _merge_sums():
        rep = _check_reference(_sum_of(pqs), 32)
        degenerate += any(note.startswith("degenerate closure family") for note in rep.notes)
    assert degenerate >= 3


def test_integer_type_i_picks_match_fractions():
    # the merge's sums, and one whose degenerate family yields its endpoint:
    # each leaf trace holds its path's end weights and tau, from the
    # path's Fractions through edgepaths.end_weights and tau
    family = [Fraction(f) for f in ("5/3", "1", "-11/4")]
    partial = 0
    for pqs in _merge_sums() + [family]:
        for system in solve(_sum_of(pqs)).systems:
            leaves = [trace for trace in system.nodes if trace.kind == "leaf"]
            for trace, path in zip(leaves, system.assignment):
                assert (trace.state, trace.tau) == (end_weights(path), path_tau(path)), (pqs, path)
                if not path.is_constant and path.final_fraction != 1:
                    assert type(trace.tau) is Fraction, (pqs, path)
                    partial += 1
    assert partial >= 140


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
# a degenerate family on [1/2, 2/3), whose endpoint lo > 0 is listed
@example([Fraction(f) for f in ("5/3", "1", "-11/4")])
def test_integer_type_i_merge_matches_segment_product(pqs):
    _check_reference(_sum_of(pqs), 32)


def _check_staged_candidates(pqs):
    """Each listed system of the sum of pqs: its tau, by which it was
    staged, is the sum of its built paths' taus. Returns the numbers of
    type-I and of u = 0 systems listed."""
    type_i = u_zero = 0
    for system in solve(_sum_of(pqs)).systems:
        if system.note == "seifert-reference":
            continue
        assert system.tau == sum(map(path_tau, system.assignment)), (pqs, system.note)
        at_zero = _at_u_zero(system)
        type_i, u_zero = type_i + (not at_zero), u_zero + at_zero
    return type_i, u_zero


def test_staged_candidates_match_built_picks():
    type_i = u_zero = 0
    for pqs in _merge_sums():
        counts = _check_staged_candidates(pqs)
        type_i, u_zero = type_i + counts[0], u_zero + counts[1]
    assert type_i >= 40 and u_zero >= 80


@settings(max_examples=100, deadline=None)
@given(_type_i_sums())
@example([Fraction(f) for f in ("-3/2", "13/8", "15/8", "-7/5")])
@example([Fraction(f) for f in ("5/3", "1", "-11/4")])  # a degenerate endpoint
def test_staged_candidates_match_built_picks_on_draws(pqs):
    _check_staged_candidates(pqs)


def test_type_i_examples_hit_interval_ends():
    # the two examples above reach the cases they are there for
    pqs = [Fraction(f) for f in ("-3/2", "13/8", "15/8", "-7/5")]
    assert any(
        u0 == max(segment[3] for segment in combo)
        for u0, combo, _ in type_i_closures(pqs, set())
    )
    notes = set()
    family = type_i_closures([Fraction(f) for f in ("5/3", "1", "-11/4")], notes)
    assert [(u0, note) for u0, _, note in family if note] == [
        (Fraction(1, 2), "degenerate-family-endpoint")
    ]
    assert any(note.startswith("degenerate closure family on u in [1/2, 2/3)") for note in notes)
    rep = solve(parse("5/3 + 1 + -11/4"))
    assert any(s.note == "degenerate-family-endpoint" for s in rep.systems)


@pytest.mark.parametrize("text, families", [
    # a link: on [0, 1/2) three combinations share tau 18 and one has tau
    # 14. Two of the three end past +-1 at u = 0; a sum reads no bound,
    # so c_bound 1 drops none of them
    ("-3/2 + 13/8 + 15/8 + -7/5", [
        "edge to -1; edge to 1; edge to 1; edge to -1",
        "edge to -2; edge to 2; edge to 1; edge to -1 and 2 more",
    ]),
    # a knot (one even denominator) with families of three and of one
    ("-1/2 + 6/7 + 11/7 + -8/5", [
        "edge to -1; edge to 0; edge to 2; edge to -1 and 2 more",
        "edge to 0; edge to 0; edge to 2; edge to -2",
    ]),
], ids=["link", "knot"])
def test_degenerate_family_is_one_note_per_interval_and_tau(text, families):
    # one note per (interval, tau), naming the least combination
    notes = solve(parse(text), 1).notes
    family = "degenerate closure family on u in [0, 1/2) for "
    assert [n for n in notes if n.startswith(family)] == [family + f for f in families]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(min_value=1, max_value=30)),
                min_size=3, max_size=6))
@example([(1, 2), (1, 4), (1, 4)])
@example([(1, 2), (1, 3), (1, 6)])
def test_integer_essential_rule_matches_fractions(leaves):
    # a u = 0 system of the sum of +-1/y counts exactly when the
    # penultimate denominators of its descents have sum 1/y <= 1
    pqs = [Fraction(sign, y) for sign, y in leaves]
    for system in solve(_sum_of(pqs), 1).systems:
        if system.note != "seifert-reference" and _at_u_zero(system):
            ys = [p.vertices[-2].denominator if len(p.vertices) > 1 else 1 for p in system.assignment]
            essential = sum(Fraction(1, y) for y in ys) <= 1
            assert system.note == ("" if essential else "inessential-candidate"), (pqs, ys)


def test_w_ends_map_back_to_segment_intervals():
    # every leaf p/q with q <= 12 and |p/q| <= 3, integer leaves included:
    # the memo's segments in ints, interval ends in w = 1/(1 - u), are the
    # reference's lines and intervals in Fractions
    for q in range(1, 13):
        for p in range(-3 * q, 3 * q + 1):
            if p and gcd(p, q) == 1:
                pq = Fraction(p, q)
                expected = segments(pq)
                assert len(_leaf_segments(pq)) == len(expected), pq
                # the merge's least combinations rest on this: the constant
                # first, then distinct edge prefixes in increasing order
                prefixes = [s.prefix for s in _leaf_segments(pq)[1:]]
                assert prefixes == sorted(set(prefixes)), pq
                for s, (prefix, coeff, offset, lo, hi) in zip(_leaf_segments(pq), expected):
                    assert (s.kind, s.prefix or None) == ("const" if prefix is None else "edge", prefix)
                    assert type(s.w_lo) is int and s.w_lo >= 1, (pq, s)
                    assert s.w_hi is None or (type(s.w_hi) is int and s.w_lo < s.w_hi), (pq, s)
                    assert 1 - Fraction(1, s.w_lo) == lo, (pq, s)
                    assert (1 if s.w_hi is None else 1 - Fraction(1, s.w_hi)) == hi, (pq, s)
                    assert all(type(x) is int for x in (s.coeff, s.offset, s.den)), (pq, s)
                    assert (Fraction(s.coeff, s.den), Fraction(s.offset, s.den)) == (coeff, offset)


def test_montesinos_systems_do_not_depend_on_c_bound():
    # a sum is solved exactly: a given c_bound is checked and then unused,
    # so systems whose descents end past +-1 are listed at c_bound 1 too
    # (3 of the first sum's 6, and 6 of the second's 17)
    for text, count in (("2/5 + -2 + 11/6", 6), ("-3/2 + 13/8 + 15/8 + -7/5", 17),
                        ("5/3 + 1 + -11/4", 5), (PRETZEL_237, 6), ("-1/5 + -2/7 + 5/6 + -3/4", 9)):
        rep = solve(parse(text))
        assert rep.c_bound is None and len(rep.systems) == count, text
        for c_bound in (1, 2, 3, 4, 32):
            bounded = solve(parse(text), c_bound)
            assert (bounded.systems, bounded.notes) == (rep.systems, rep.notes), (text, c_bound)


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


def test_sn_solve_logs_one_info_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="tangleslopes.solver"):
        solve_sn(kn(3))
    [record] = [r for r in caplog.records if r.name == "tangleslopes.solver"]
    assert record.levelno == logging.INFO
    # tests/test_cli.py checks its numbers
    assert record.getMessage().startswith("sn solve, c_bound=14, 4 nodes: ")


def _window_ends(table):
    """The run ends of a leaf's table, read off its windows."""
    return {e for _, _, lo, hi, _ in table.windows for e in range(lo, hi + 1)}


def _check_leaf_table(table, keys):
    """A leaf's table holds exactly keys: it finds each of them, every
    direction (da, T - da) with T <= bound * q gives no constant or one of
    them, and its runs are among them. Its runs are exactly the (1, 0, e)
    of its windows' integers, and its len() counts them."""
    assert all(key in table for key in keys), table[:3]
    for t in range(1, table.bound * table.q + 1):
        for da in range(t + 1):
            if gcd(da, t) == 1:
                key = table.constant(da, t - da)
                assert key is None or key in keys, (table[:3], key)
    assert set(table.runs) <= set(keys), table[:3]
    ends = _window_ends(table)
    assert set(table.runs) == {(1, 0, e) for e in ends}, table[:3]
    assert len(table) == len(table.runs) == len(ends), table[:3]
    # just past a window's ends the runs hold nothing no other window holds
    for _, _, lo, hi, _ in table.windows:
        for e in (lo - 1, hi + 1):
            assert ((1, 0, e) in table.runs) == (e in ends), (table[:3], e)


# every leaf p/q with q <= 7 and |p/q| <= 3, integer leaves included
_SMALL_LEAVES = [
    Fraction(p, q) for q in range(1, 8) for p in range(-3 * q, 3 * q + 1) if p and gcd(p, q) == 1
]


@pytest.mark.parametrize("c_bound", [1, 4, 32])
def test_leaf_table_taus_and_keys_match_their_paths(c_bound):
    runs = dropped = shared = 0
    for pq in _SMALL_LEAVES:
        table = _leaf_table(pq, c_bound)
        # the solves share the memo's descents: the table leaves them as walked
        assert leaf_descents(pq) == tuple(enumerate_paths(pq)), pq
        # the lattice holds an integer's (1, 0, p) once, as its constant and
        # as its trivial path; the table keeps it in both its family and
        # its runs
        lattice = lattice_leaf(pq, c_bound)
        _check_leaf_table(table, lattice)
        # the fact the run order rests on: no descent's vertices are a
        # prefix of another's
        for d1, d2 in iterproduct(enumerate_paths(pq), repeat=2):
            assert d1 is d2 or d2.vertices[: len(d1.vertices)] != d1.vertices, (pq, d1, d2)
        descents = enumerate_paths(pq)
        assert [d.describe() for d in descents] == sorted(d.describe() for d in descents), pq
        if pq.denominator == 1:
            # an integer leaf keeps its trivial window p..p, past c_bound
            # too; within it, (1, 0, p) is its constant as well
            p = pq.numerator
            assert table.windows == ((p, 0, p, p, descents[0]),), pq
            assert set(table.runs) == {(1, 0, p)} and Fraction(0) in lattice[1, 0, p], pq
            assert (table.constant(1, 0) == (1, 0, p)) == (abs(p) <= c_bound), pq
            shared += abs(p) <= c_bound
            continue
        # one window per descent whose reference walk ends within
        # +-c_bound, by rank, its place by vertices: the descent, its
        # endpoint and its tau; a descent that ends nowhere there has none
        walks = [(d, list(u_zero_ends(d, c_bound))) for d in descents]
        kept = [(d, ends) for d, ends in walks if ends]
        dropped += len(walks) - len(kept)
        assert [w[4] for w in table.windows] == [d for d, _ in kept], pq
        assert [w[:2] for w in table.windows] == [(int(d.vertices[-1]), path_tau(d)) for d, _ in kept]
        for (_, _, lo, hi, d), (_, ends) in zip(table.windows, kept):
            # the window, not empty, holds the reference walk's ends, each a
            # run key whose path, with its tau, the lattice holds
            assert lo <= hi and set(range(lo, hi + 1)) == set(ends), (pq, d)
            for path in (run_to(d, end) for end in ends):
                key = endpoint_state(path).primitive().triple()
                assert key in table.runs and Fraction(path_tau(path)) in lattice[key], (pq, path)
                # a descent's penultimate vertex is never an integer
                runs += path.vertices[-2].denominator == 1
    assert runs and shared
    assert dropped or c_bound > 1


@pytest.mark.parametrize("c_bound", [1, 4, 32])
def test_leaf_run_sums_are_the_sums_of_their_ends(c_bound):
    # the one-sheet keys of a sum of two leaves, x.runs + y.runs, are the
    # (1, 0, e1 + e2) of every run end e1 of x and e2 of y, and len()
    # counts them; each distinct pair of end sets is summed once
    tables = [_leaf_table(pq, c_bound) for pq in _SMALL_LEAVES]
    ends = [frozenset(_window_ends(table)) for table in tables]
    sums = {}
    for x, xs in zip(tables, ends):
        for y, ys in zip(tables, ends):
            if (xs, ys) not in sums:
                sums[xs, ys] = {(1, 0, e1 + e2) for e1 in xs for e2 in ys}
            both = x.runs + y.runs
            assert set(both) == sums[xs, ys] and len(both) == len(sums[xs, ys]), (x[:2], y[:2])


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
         "d13ddfdc0ca59773203427d6b3cfc19347482f9987ac20b9dfba7346f02b87c4"),
        (parse(PRETZEL_237), 3,
         "9bfd07e2e158ccf720ede813730fe29de92d6b6176ed236b43174d3ed5fff3fc"),
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
    exprs = [_expr(text) for text, _, _ in GOLDEN] + [expr for expr, _ in pass_cases()]
    # descents that end at -3, -2 and 2, past c_bound 1 and 2
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
        _type_ii_options(pq)
        _leaf_table(pq, 1)
    for memo in LEAF_MEMOS:
        info = memo.cache_info()
        assert info.maxsize == LEAF_MEMO_SIZE and info.currsize <= LEAF_MEMO_SIZE, memo


@pytest.mark.parametrize("pq", [Fraction(1, 31), Fraction(5, 8)])
def test_leaf_table_keeps_one_window_per_descent(pq):
    # a kn(30) leaf and a q = 8 leaf at kn(30)'s c_bound 932: the runs
    # are spans of their ends, each descent's window a few ints, so the
    # table keeps a few hundred bytes; a set of (1, 0, e) keys, one per
    # end, took about 300 KB, and a (tau, rank, position, descent)
    # record per end as well over 700 KB
    leaf_descents(pq)  # the memo's, not the table's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = _leaf_table.__wrapped__(pq, 932)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * 1024, retained
    assert len(table.runs) == 2 * 932 + 1 and len(table.windows) == len(leaf_descents(pq))


def test_memo_entries_equal_a_fresh_computation():
    # no solve mutates what the memos hand it: after a solve, each leaf's
    # entries, read without a miss, equal a computation from scratch
    checked = 0
    exprs = [_expr(text) for text, _, _ in GOLDEN] + [expr for expr, _ in pass_cases()[:12]]
    for expr in exprs:
        _clear_leaf_memos()
        rep = solve(expr)
        # without S0 the Seifert paths were not all built
        normalized = any(s.note == "seifert-reference" for s in rep.systems)
        lookups = [(slopes._seifert_leaf, ())] if normalized else []
        if expr.is_montesinos():
            lookups += [(_leaf_segments, ()), (_type_ii_options, ())]
        else:
            lookups += [(_leaf_table, (rep.c_bound,))]
        misses = [memo.cache_info().misses for memo in LEAF_MEMOS]
        for pq in {leaf.fraction for leaf in expr.leaves()}:
            assert leaf_descents(pq) == tuple(enumerate_paths(pq)), (render(expr), pq)
            for memo, rest in lookups:
                assert memo(pq, *rest) == memo.__wrapped__(pq, *rest), (render(expr), pq)
                checked += 1
        assert [memo.cache_info().misses for memo in LEAF_MEMOS] == misses, render(expr)
    assert checked >= 100
