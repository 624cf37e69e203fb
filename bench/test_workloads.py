"""Tests for the benchmark's input generators.

Run from the repository root: python3 -m pytest bench/test_workloads.py
"""

from fractions import Fraction

import workloads
from workloads import is_knot


def test_two_even_denominators_make_a_link():
    assert not is_knot([(1, 2), (1, 4), (1, 4)])


def test_pretzel_fixtures_are_knots():
    for q in (3, 5, 7):
        assert is_knot([(-1, 2), (1, 3), (1, q)])


def test_odd_denominators_need_an_odd_numerator_sum():
    assert is_knot([(1, 3), (1, 3), (1, 3)])  # P(3,3,3)
    assert not is_knot([(1, 3), (1, 3), (1, 3), (1, 3)])  # P(3,3,3,3)
    assert not is_knot([(1, 3), (2, 5), (1, 7)])


def _leaves(text):
    return [
        (Fraction(x).numerator, Fraction(x).denominator)
        for x in text.replace("(", "").replace(")", "").replace(" o ", " + ").split(" + ")
    ]


def test_montesinos_inputs_are_seeded_knots_of_fixed_shape():
    for counts in ((3,), (4, 5)):
        a = workloads.montesinos_inputs(counts, 40, seed=1)
        assert a == workloads.montesinos_inputs(counts, 40, seed=1)
        b = workloads.montesinos_inputs(counts, 40, seed=2)
        assert a != b
        for x, y, shape in zip(a, b, workloads.montesinos_shapes(counts, 40)):
            assert is_knot(_leaves(x)) and is_knot(_leaves(y))
            assert len(_leaves(x)) in counts
            # the seed changes signs and order only
            key = sorted((abs(p), q) for p, q in shape)
            assert sorted((abs(p), q) for p, q in _leaves(x)) == key
            assert sorted((abs(p), q) for p, q in _leaves(y)) == key


def test_product_inputs_are_seeded_non_family_products():
    a = workloads.product_inputs(40, seed=1)
    assert a == workloads.product_inputs(40, seed=1)
    assert a != workloads.product_inputs(40, seed=2)
    for text in a:
        factors = text.split(" o ")
        assert 2 <= len(factors) <= 3
        assert all(len(_leaves(f)) <= 2 for f in factors)
        assert all(abs(p) < q <= 5 for p, q in _leaves(text))
    assert workloads._is_family([[(-1, 2), (1, 3)], [(-1, 2), (1, 3)]])
    assert workloads._is_family([[(1, 3), (-1, 4)], [(1, 3), (-1, 4)]])


def test_kn_inputs_are_a_seeded_order_of_two_to_eight():
    assert sorted(workloads.kn_inputs(5)) == list(range(2, 9))
    assert workloads.kn_inputs(5) == workloads.kn_inputs(5)
