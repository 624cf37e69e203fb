from fractions import Fraction
from math import gcd

import pytest

from tangleslopes import ConstantPath, FractionalEndpoint, VertexPath, WeightState
from tangleslopes.diagram import is_edge, vertex_triple
from tangleslopes.edgepaths import (
    end_weights,
    endpoint_point,
    endpoint_state,
    enumerate_paths,
    leaf_descents,
    run_to,
    tau,
    u_zero_window,
    validate,
)

from reference import constant_path, u_zero_ends

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def path(*vertices, **kw):
    return VertexPath(Fraction(vertices[0]), tuple(Fraction(v) for v in vertices), **kw)


def test_constant_path_default_state():
    p = ConstantPath(Fraction(-1, 2), vertex_triple(Fraction(-1, 2)))
    assert p.is_constant and p.state == WeightState(1, 1, -1)
    assert validate(p) == []


def test_constant_path_at_u():
    p = constant_path(Fraction(-1, 2), u=Fraction(3, 5))
    assert p.state == WeightState(4, 6, -5)
    assert validate(p) == []


def test_constant_path_scale():
    assert ConstantPath(THIRD, vertex_triple(THIRD).scaled(4)).state == WeightState(4, 8, 4)


def test_constant_left_of_vertex_is_invalid():
    bad = ConstantPath(Fraction(-1, 2), WeightState(3, 1, -2))  # u = 1/4 < 1/2
    assert any("E1" in v for v in validate(bad))


def test_constant_off_line_is_invalid():
    bad = ConstantPath(Fraction(-1, 2), WeightState(1, 5, 2))
    assert validate(bad)


def test_validate_accepts_the_long_family_path():
    p = path(THIRD, HALF, 1, 2, 3, 4, 5, 6)
    assert validate(p) == []
    assert endpoint_state(p) == WeightState(1, 0, 6)


def test_validate_rejects_nonadjacent_step():
    p = path(THIRD, 1)
    assert any("not an edge" in v for v in validate(p))


def test_validate_rejects_retrace():
    p = path(THIRD, HALF, THIRD)
    assert any("E2" in v for v in validate(p))


def test_validate_rejects_triangle_shortcut():
    # 1/3 -> 1/2 -> 1 cuts a triangle iff 1/3 and 1 are adjacent; they are not,
    # but 2/5 -> 1/3 -> 1/2 skips the 2/5-1/2 edge
    p = path(Fraction(2, 5), THIRD, HALF)
    assert any("E2" in v for v in validate(p))


def test_validate_rejects_u_increase():
    p = path(HALF, 1, HALF)
    assert validate(p)


def test_validate_final_fraction_range():
    assert validate(path(THIRD, HALF, final_fraction=Fraction(1, 2))) == []
    assert validate(path(THIRD, HALF, final_fraction=Fraction(0))) != []
    assert validate(path(THIRD, HALF, final_fraction=Fraction(3, 2))) != []


def test_validate_start_must_match_tangle():
    p = VertexPath(Fraction(1, 3), (HALF, Fraction(1)))
    assert any("start" in v.lower() for v in validate(p))


def test_endpoint_state_full_edge():
    assert endpoint_state(path(-HALF, 0)) == WeightState(1, 0, 0)
    assert endpoint_state(path(THIRD, HALF)) == WeightState(1, 1, 1)
    wide = VertexPath(THIRD, (THIRD, HALF), sheets=3)
    assert endpoint_state(wide) == WeightState(3, 3, 3)


def test_endpoint_state_fractional_raises():
    with pytest.raises(FractionalEndpoint):
        endpoint_state(path(THIRD, HALF, final_fraction=HALF))


def test_endpoint_point_barycentric():
    p = path(THIRD, HALF, final_fraction=HALF)
    pt = endpoint_point(p)
    # halfway along the edge from (2/3, 1/3) to (1/2, 1/2) in state space:
    # (1,2,1) + (1,1,1) = (2,3,2) -> u = 3/5, v = 2/5
    assert (pt.u, pt.v) == (Fraction(3, 5), Fraction(2, 5))


def test_end_weights_mixes_partial_edge_and_scales_by_sheets():
    assert end_weights(path(THIRD, HALF, final_fraction=HALF)) == WeightState(2, 3, 2)
    doubled = VertexPath(THIRD, (THIRD, HALF), final_fraction=HALF, sheets=2)
    assert end_weights(doubled) == WeightState(4, 6, 4)
    assert end_weights(path(THIRD, HALF, 1)) == endpoint_state(path(THIRD, HALF, 1))
    assert end_weights(ConstantPath(THIRD, vertex_triple(THIRD))) == WeightState(1, 2, 1)


def test_tau_counts_slope_decreasing_edges():
    assert tau(path(-HALF, 0)) == -2
    assert tau(path(HALF, 0)) == 2
    assert tau(path(THIRD, HALF, 1)) == -4
    assert tau(ConstantPath(Fraction(-1, 2), vertex_triple(Fraction(-1, 2)))) == 0


def test_tau_scales_final_edge_by_fraction():
    assert tau(path(THIRD, HALF, final_fraction=HALF)) == -1
    assert tau(path(THIRD, HALF, 1, final_fraction=THIRD)) == -2 - Fraction(2, 3)


def test_tau_ignores_sheets():
    threefold = VertexPath(THIRD, (THIRD, HALF, Fraction(1)), sheets=3)
    assert tau(threefold) == -4


def test_tau_signs_steps_as_fraction_comparison():
    # tau signs each step by cross-multiplied ints; the reference compares
    # the Fraction vertices. Every descent with q <= 13 and |p/q| <= 2,
    # whole and with a partial last edge
    def reference(p):
        steps = [2 if b < a else -2 for a, b in zip(p.vertices, p.vertices[1:])]
        if not steps or p.final_fraction == 1:
            return sum(steps)
        return sum(steps[:-1]) + steps[-1] * p.final_fraction

    partial = 0
    for q in range(1, 14):
        for n in range(-2 * q, 2 * q + 1):
            if gcd(n, q) != 1:
                continue
            for descent in enumerate_paths(Fraction(n, q)):
                for f in (Fraction(1), Fraction(1, 3), Fraction(5, 7)):
                    p = VertexPath(descent.tangle, descent.vertices, final_fraction=f)
                    got, want = tau(p), reference(p)
                    assert got == want and type(got) is type(want), (p, got, want)
                    partial += type(got) is Fraction
    assert partial >= 1000


def u_zero(start, c_bound):
    return [run_to(d, end) for d in enumerate_paths(start) for end in u_zero_ends(d, c_bound)]


def test_u_zero_window_holds_exactly_the_run_ends():
    # every p/q with q <= 13 and |p/q| <= 3, integer starts included
    starts = [
        Fraction(p, q) for q in range(1, 14) for p in range(-3 * q, 3 * q + 1) if gcd(p, q) == 1
    ]
    empty = clipped = blocked = 0
    for c_bound in (1, 2, 3, 4, 32):
        for start in starts:
            for d in enumerate_paths(start):
                lo, hi = u_zero_window(d, c_bound)
                ends = list(u_zero_ends(d, c_bound))
                assert set(range(lo, hi + 1)) == set(ends), (start, c_bound, d)
                assert len(ends) == len(set(ends)), (start, c_bound, d)
                m = int(d.vertices[-1])
                empty += lo > hi
                clipped += abs(m) > c_bound and lo <= hi
                blocked += lo == m < hi or lo < m == hi
    assert empty and clipped and blocked
    # 7/2 descends to 3 and 4, past c_bound 1: the run from 3 comes back
    # to 1, 0 and -1; the one from 4 is blocked toward 3 and stays out
    assert [u_zero_window(d, 1) for d in enumerate_paths(Fraction(7, 2))] == [(-1, 1), (4, 1)]
    # -1/2 descends to -1 and 0, each blocked toward the other
    assert [u_zero_window(d, 3) for d in enumerate_paths(Fraction(-1, 2))] == [(-3, -1), (0, 3)]


def test_enumerate_paths_reaches_integer_runs_both_ways():
    paths = u_zero(Fraction(-1, 2), 3)
    ends = {p.vertices[-1] for p in paths}
    assert {Fraction(0), Fraction(-3), Fraction(3)} <= ends
    assert all(abs(p.vertices[-1]) <= 3 for p in paths)


def test_enumerate_paths_blocks_run_into_triangle():
    # arriving at 0 from -1/2 blocks the immediate run toward -1
    for p in u_zero(Fraction(-1, 2), 3):
        if len(p.vertices) >= 3 and p.vertices[:2] == (Fraction(-1, 2), Fraction(0)):
            assert p.vertices[2] != Fraction(-1)


def test_enumerate_paths_all_validate():
    for start in (Fraction(-1, 2), Fraction(1, 3), Fraction(3, 7), Fraction(2)):
        for p in u_zero(start, 4):
            assert validate(p) == [], (start, p)


def test_enumerate_paths_descents_only():
    paths = enumerate_paths(Fraction(3, 7))
    assert paths and all(p.vertices[-1].denominator == 1 for p in paths)
    # no vertical runs: denominators strictly fall along every descent
    for p in paths:
        dens = [v.denominator for v in p.vertices]
        assert dens == sorted(set(dens), reverse=True)
        assert validate(p) == []


def test_enumerate_paths_integer_start_is_trivial():
    paths = enumerate_paths(Fraction(2))
    assert paths == [VertexPath(Fraction(2), (Fraction(2),))]
    # the trivial path neither runs nor survives a bound below its endpoint
    assert [run_to(paths[0], end) for end in u_zero_ends(paths[0], 4)] == paths
    assert list(u_zero_ends(paths[0], 1)) == []
    assert u_zero_window(paths[0], 4) == (2, 2)
    lo, hi = u_zero_window(paths[0], 1)
    assert lo > hi


def test_enumerate_paths_deterministic():
    assert enumerate_paths(Fraction(3, 7)) == enumerate_paths(Fraction(3, 7))
    assert u_zero(Fraction(3, 7), 5) == u_zero(Fraction(3, 7), 5)


def test_enumerate_paths_returns_a_fresh_list():
    # the memo keeps leaf_descents' tuple; enumerate_paths stays a list
    # of the caller's own, so changing it changes no later call
    pq = Fraction(3, 7)
    first, second = enumerate_paths(pq), enumerate_paths(pq)
    assert type(first) is list and first == second and first is not second
    first.clear()
    assert enumerate_paths(pq) == second == list(leaf_descents(pq))


def parents(pq):
    """The two adjacent vertices of strictly smaller denominator.

    These are the continued-fraction splittings of p/q: the fractions
    r1/s1, r2/s2 with r1+r2 = p and s1+s2 = q. Needs q >= 2.
    """
    pq = Fraction(pq)
    p, q = pq.numerator, pq.denominator
    if q < 2:
        raise ValueError("integer vertex %s has no parents in the strip" % pq)
    # solve p*s = 1 (mod q) with 1 <= s < q
    s = pow(p % q, -1, q)
    r = (p * s - 1) // q
    first = Fraction(r, s)
    second = Fraction(p - r, q - s)
    return tuple(sorted((first, second), key=lambda f: (f.denominator, f)))


def test_parents_of_one_third():
    assert parents(Fraction(1, 3)) == (Fraction(0, 1), Fraction(1, 2))


def test_parents_of_three_fifths():
    lo, hi = parents(Fraction(3, 5))
    assert {lo, hi} == {Fraction(1, 2), Fraction(2, 3)}
    assert lo.denominator <= hi.denominator


def test_parents_are_adjacent_to_child_and_each_other():
    for pq in (Fraction(3, 5), Fraction(-2, 7), Fraction(5, 8), Fraction(1, 9)):
        a, b = parents(pq)
        assert is_edge(pq, a) and is_edge(pq, b)
        assert is_edge(a, b) or a == b


def test_parents_rejects_integers():
    with pytest.raises(ValueError):
        parents(Fraction(4))


def _recursive_descents(start):
    """The Fraction walk enumerate_paths replaced: recurse through
    parents, skip a step that is an edge from the vertex before
    (it would cut across a triangle), sort by vertices."""
    start = Fraction(start)
    if start.denominator == 1:
        return [VertexPath(start, (start,))]
    paths = []

    def descend(vs):
        here = vs[-1]
        if here.denominator == 1:
            paths.append(VertexPath(start, vs))
            return
        for nxt in parents(here):
            if len(vs) >= 2 and is_edge(vs[-2], nxt):
                continue
            descend(vs + (nxt,))

    descend((start,))
    paths.sort(key=lambda p: p.vertices)
    return paths


def test_integer_descent_walk_matches_recursive_walk():
    # every p/q with 2 <= q <= 13 and |p/q| <= 3: same list, same order
    for q in range(2, 14):
        for p in range(-3 * q, 3 * q + 1):
            if gcd(p, q) == 1:
                pq = Fraction(p, q)
                assert enumerate_paths(pq) == _recursive_descents(pq), pq


def test_descent_walk_takes_a_large_denominator():
    # 1/1200 descends through every 1/k, a 1200-vertex path: one frame per
    # step overflowed the interpreter's recursion limit
    paths = enumerate_paths(Fraction(1, 1200))
    assert [len(p.vertices) for p in paths] == [2, 1200]
    assert paths[1].vertices[1:3] == (Fraction(1, 1199), Fraction(1, 1198))
    assert all(validate(p) == [] for p in paths)
