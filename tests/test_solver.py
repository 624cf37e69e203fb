import logging
import random
from fractions import Fraction
from itertools import product as iterproduct
from math import gcd

import pytest
from hypothesis import given, settings
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
from tangleslopes.solver import (
    _demand_pass,
    _distinct_nodes,
    _glue_witnesses,
    _key_pass,
    _leaf_segments,
    _leaf_table,
    _leaf_witnesses,
    _merge_product,
    _merge_sum,
    _root_table,
    _segment_label,
    _tau_pass,
    _type_i_candidates,
    _type_ii_options,
    default_c_bound,
)
from tangleslopes.edgepaths import (
    ConstantPath,
    endpoint_state,
    enumerate_paths,
    tau as path_tau,
    u_zero_paths,
)
from tangleslopes.tangles import Leaf, Product, Sum, mirror
from tangleslopes.transforms import glue_scaled, rotate_reflect

PRETZEL_237 = "-1/2 + 1/3 + 1/7"


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
    for n in (2, 3):
        rep = solve_sn(kn(n))
        assert kn_system(n) in rep.systems


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


def test_null_slope_systems_list_every_tau():
    # 1/3 o 1/2 has no even-denominator tangle in its first factor, so it
    # has no normalization: each closed tau is listed once, slope None
    rep = solve(parse("1/3 o 1/2"))
    assert rep.slopes == ()
    assert all(s.slope is None and s.note == "" for s in rep.systems)
    assert sorted(s.tau for s in rep.systems) == [-4, 2, 6]


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
                assert len(_leaf_segments(pq)) >= len(_type_ii_options(pq, 32)), pq


def _type_i_by_product(leaves, notes):
    """The exhaustive segment product the depth-first walk replaced."""
    for combo in iterproduct(*[_leaf_segments(l.fraction) for l in leaves]):
        coeff = sum(s.coeff for s in combo)
        offset = sum(s.offset for s in combo)
        lo = max(s.lo for s in combo)
        hi = min(s.hi for s in combo)
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
        if all(s.lo <= u0 < s.hi for s in combo):
            yield u0, combo, ""


def test_type_i_walk_matches_segment_product():
    # same candidates, same order, same degenerate-family notes
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
    degenerate = 0
    for pqs in sums:
        leaves = [Leaf(pq) for pq in pqs]
        walk_notes, product_notes = [], []
        walk = list(_type_i_candidates(leaves, walk_notes))
        assert walk == list(_type_i_by_product(leaves, product_notes)), pqs
        assert walk_notes == product_notes, pqs
        degenerate += bool(walk_notes)
    assert degenerate >= 3


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
        paths = (descent,) if q == 1 else u_zero_paths(descent, c_bound)
        for path in paths:
            key = _key_of(endpoint_state(path).primitive())
            add(key, Fraction(path_tau(path)), path)
    return table


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
                outcome = rotate_reflect(lw, allow_infeasible=True)
                if not outcome.feasible:
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
    """(expr, c_bound) pairs: the family, a shared-subtree product, a root
    sum of products, integer leaves, c_bound 1, and random products."""
    rng = random.Random(5)
    f, g = parse("1/2 + -1/3"), parse("2/5")
    cases = [(kn(n), default_c_bound(kn(n))) for n in range(2, 6)]
    cases.append((Product(Product(f, g), Product(f, g)), 6))  # shared subtrees
    # shared subtrees whose parents demand different keys of them
    half = Leaf(Fraction(-1, 2))
    cases.append((Product(Sum(half, Leaf(Fraction(1, 3))), Sum(half, Leaf(Fraction(2, 5)))), 6))
    cases.append((Product(Product(f, g), Product(f, parse("1/3"))), 6))
    # a root sum; integer leaves, whose constant (1, 0, p) and trivial
    # path share a key
    for text in ("(1/2 o 1/3) + 1/5", "(2 + 1/3) o 1/2", "3 o 1/2 o -2"):
        cases += [(parse(text), 32), (parse(text), 1)]
    cases.append((kn(2), 1))
    cases += [(_random_product(rng), rng.choice([2, 4, 8])) for _ in range(22)]
    return cases


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
            assert table[key] == eager[key], (expr, c_bound, key)
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
        keys = _key_pass(nodes, c_bound)
        eager = {}
        _eager_tables(expr, c_bound, eager)
        for node in nodes[:-1]:
            assert set(keys[id(node)]) == set(eager[id(node)]), (expr, c_bound, node)
        assert set(keys[id(expr)]) == set(_closed(eager[id(expr)])), (expr, c_bound)
        demand = _demand_pass(nodes, keys)
        taus = _tau_pass(nodes, keys, demand)
        for node in nodes:
            table = taus[id(node)]
            assert set(table) == demand[id(node)] <= set(keys[id(node)])
            for key, entries in table.items():
                assert entries == eager[id(node)][key], (expr, c_bound, node, key)
            demanded += len(table)
    assert demanded >= 1000


def test_sn_solve_logs_one_info_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="tangleslopes.solver"):
        solve_sn(kn(3))
    [record] = [r for r in caplog.records if r.name == "tangleslopes.solver"]
    assert record.levelno == logging.INFO
    assert "267 keys built, 66 demanded, 212 witness pairs compared" in record.getMessage()


# The merges glue integer keys in place; transforms.glue_scaled and
# transforms.rotate_reflect are the reference. These feed hand-built
# one-key tables: keys (a, b, c), and left keys of a product whose
# rotation is case 1, the only case the solve reaches.

_directions = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
).filter(lambda d: gcd(*d) == 1)
_sheets = st.integers(min_value=1, max_value=12)
_cs = st.integers(min_value=-40, max_value=40)


def _key(direction, sheets, c):
    return (sheets * direction[0], sheets * direction[1], c)


def _one_key_table(key, t, name):
    return {key: {t: ((name,), (name,))}}


def _glue_one(merge, left, right):
    """Both passes over two one-key tables: (key table, witness table),
    and the key table of the same merge at the root."""
    keys = merge(left, right)
    return keys, _glue_witnesses(keys, left, right, set(keys)), merge(left, right, True)


def _closing_part(keys, glued):
    return keys if glued.c == 0 else {}


@settings(max_examples=400, deadline=None)
@given(_directions, _sheets, _cs, _sheets, _cs)
def test_sum_glue_matches_glue_scaled(direction, ls, lc, rs, rc):
    lkey, rkey = _key(direction, ls, lc), _key(direction, rs, rc)
    keys, out, root = _glue_one(
        _merge_sum, _one_key_table(lkey, 3, "l"), _one_key_table(rkey, -5, "r")
    )
    glued, _ = glue_scaled(WeightState(*lkey), WeightState(*rkey))
    assert keys == {_key_of(glued): [(lkey, rkey)]}
    assert out == {_key_of(glued): {-2: (("l", "r"), ("l", "r"))}}
    assert root == _closing_part(keys, glued)


@st.composite
def _turnable_keys(draw):
    """Left keys whose rotation is case 1 with a feasible outcome."""
    a = draw(st.integers(min_value=1, max_value=5))
    b = draw(st.integers(min_value=0, max_value=8))
    sign = draw(st.sampled_from((-1, 1)))
    return (a, b, sign * (a + draw(st.integers(0, 8))))


@settings(max_examples=400, deadline=None)
@given(_turnable_keys(), _sheets, _cs)
def test_product_glue_matches_glue_scaled(lkey, rs, rc):
    turn = rotate_reflect(WeightState(*lkey))
    assert turn.case_id == 1
    s = gcd(turn.state.a, turn.state.b)
    rkey = _key((turn.state.a // s, turn.state.b // s), rs, rc)
    keys, out, root = _glue_one(
        _merge_product, _one_key_table(lkey, 3, "l"), _one_key_table(rkey, 1, "r")
    )
    glued, _ = glue_scaled(turn.state, WeightState(*rkey))
    assert keys == {_key_of(glued): [(lkey, rkey)]}
    # tau' is stored as an int, equal to the transform's Fraction
    assert keys.turns == {lkey: turn.tau_prime}
    assert type(keys.turns[lkey]) is int
    [(t, witness)] = out[_key_of(glued)].items()
    assert type(t) is int and t == turn.tau_prime - 3 + 1
    assert witness == (("l", "r"), ("l", "r"))
    assert root == _closing_part(keys, glued)


# small weights, so that many drawn pairs close
_small_keys = st.builds(
    _key,
    st.sampled_from(((1, 0), (0, 1), (1, 1), (1, 2))),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_small_keys, max_size=6),
    st.lists(_turnable_keys(), max_size=6),
    st.lists(_small_keys, max_size=6),
)
def test_closing_merges_keep_exactly_the_closed_keys(lkeys, turnable, rkeys):
    # the root looks up the negated per-sheet c class instead of gluing
    # every pair of a direction; it must find the same closed keys
    for merge, left in ((_merge_sum, lkeys), (_merge_product, turnable)):
        full, root = merge(left, rkeys), merge(left, rkeys, True)
        closed = {key: sorted(pairs) for key, pairs in _closed(full).items()}
        assert {key: sorted(pairs) for key, pairs in root.items()} == closed


def test_keys_without_direction_glue_to_nothing():
    zero = (0, 0, 3)
    for other in (zero, (0, 0, -2), (1, 2, 3)):
        assert glue_scaled(WeightState(*zero), WeightState(*other)) is None
        for closing in (False, True):
            assert _merge_sum([zero], [other], closing) == {}
            assert _merge_sum([other], [zero], closing) == {}
    # a rotation output always has a + b > 0, so a product never pairs it
    # with a right key that has no direction
    assert _merge_product([(1, 2, -4)], [zero]) == {}


@pytest.mark.parametrize("c_bound", [1, 4, 32])
def test_leaf_table_taus_and_keys_match_their_paths(c_bound):
    # every leaf p/q with q <= 7 and |p/q| <= 3, integer leaves included
    leaves = [
        Fraction(p, q)
        for q in range(1, 8)
        for p in range(-3 * q, 3 * q + 1)
        if p and gcd(p, q) == 1
    ]
    runs = 0
    for pq in leaves:
        leaf = Leaf(pq)
        keys = _leaf_table(leaf, c_bound)
        lattice = _lattice_leaf(leaf, c_bound)
        assert set(keys) == set(lattice), pq
        for key, entries in _leaf_witnesses(leaf, keys, set(keys)).items():
            # the same smallest witness per (key, tau) as the lattice
            assert entries == lattice[key], (pq, key)
            for t, (_, (path,)) in entries.items():
                if path.is_constant:
                    assert (t, key) == (0, _key_of(path.state.primitive()))
                    continue
                assert t == path_tau(path), (pq, path)
                assert key == _key_of(endpoint_state(path).primitive())
                # a descent's penultimate vertex is never an integer
                vs = path.vertices
                runs += len(vs) > 1 and vs[-2].denominator == 1
    assert runs
