from fractions import Fraction

import pytest

from tangleslopes import DegeneratePoint, WeightState, uv_coords
from tangleslopes.diagram import is_edge, vertex_point, vertex_triple


def test_vertex_triple():
    assert vertex_triple(Fraction(-1, 2)) == WeightState(1, 1, -1)
    assert vertex_triple(Fraction(1, 3)) == WeightState(1, 2, 1)
    assert vertex_triple(Fraction(3)) == WeightState(1, 0, 3)


def test_uv_coords_on_vertices():
    p = vertex_point(Fraction(-1, 2))
    assert (p.u, p.v) == (Fraction(1, 2), Fraction(-1, 2))
    p = vertex_point(Fraction(1, 3))
    assert (p.u, p.v) == (Fraction(2, 3), Fraction(1, 3))
    p = vertex_point(Fraction(5))
    assert (p.u, p.v) == (0, 5)


def test_uv_coords_scale_invariant():
    w = WeightState(1, 5, -3)
    assert uv_coords(w) == uv_coords(w.scaled(4))
    assert (uv_coords(w).u, uv_coords(w).v) == (Fraction(5, 6), Fraction(-1, 2))


def test_uv_coords_degenerate():
    with pytest.raises(DegeneratePoint):
        uv_coords(WeightState(0, 0, 1))


def test_is_edge_determinant_rule():
    assert is_edge(Fraction(1, 3), Fraction(1, 2))
    assert is_edge(Fraction(1, 2), Fraction(1))
    assert is_edge(Fraction(0), Fraction(-1))
    assert not is_edge(Fraction(1, 3), Fraction(1))  # determinant 2
    assert not is_edge(Fraction(2, 5), Fraction(1, 4))  # determinant 3
    assert is_edge(Fraction(2, 5), Fraction(1, 2))
    assert is_edge(Fraction(2, 5), Fraction(1, 3))
    assert not is_edge(Fraction(1, 2), Fraction(1, 2))


def test_is_edge_symmetric_and_mirror_stable():
    pairs = [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(2, 5), Fraction(1, 2)),
        (Fraction(-1, 4), Fraction(0)),
        (Fraction(3, 7), Fraction(2, 5)),
    ]
    for a, b in pairs:
        assert is_edge(a, b) == is_edge(b, a)
        assert is_edge(a, b) == is_edge(-a, -b)


def test_scaled_and_primitive():
    w = WeightState(2, 10, -6, n_inf=4)
    assert w.scaled(3) == WeightState(6, 30, -18, n_inf=12)
    assert w.primitive() == WeightState(1, 5, -3, n_inf=2)
    assert WeightState(1, 5, -3).primitive() == WeightState(1, 5, -3)


def test_primitive_handles_zero_entries():
    assert WeightState(4, 6, 0).primitive() == WeightState(2, 3, 0)
    assert WeightState(3, 0, -9).primitive() == WeightState(1, 0, -3)


def test_primitive_keeps_has_zero():
    w = WeightState(2, 2, 2, has_zero=True)
    assert w.primitive() == WeightState(1, 1, 1, has_zero=True)


def test_triple():
    assert WeightState(1, 5, -3).triple() == (1, 5, -3)
