"""Knot-invariance oracles: rewrite an expression, keep the knot, compare
the slope sets.

The boundary slopes of a knot are an invariant of the knot, so every
rewrite that keeps the knot must keep the reported slope set. Cyclic
rotation and reversal of a Montesinos sum's leaves are isotopies of its
closure: rotation carries the last tangle around the back of the
diagram, and turning the diagram over reverses the order while each
rational tangle is carried to itself. No invariant is needed to show
that the rewritten expression is the same knot.

Mirroring negates every leaf, and with it the knot's slope set and the
twist number tau of every closed system: the mirror of a closed surface
is a closed surface of the mirror knot, with the opposite twisting. This
oracle reads only the two reports, not how either was solved.

Slope sets are compared only where the report has a normalization (the
Seifert reference system), since without one no slope is reported.

Spellings that move integer twists between leaves also keep the knot: a
Montesinos knot with at least three non-integer tangles is determined by
e0 = sum p/q and the cyclic sequence of its fractions mod 1, up to
rotation and reversal (Bonahon; Boileau-Siebenmann). Two such groups
disagree today; their tests are strict xfails until the normalization is
fixed (ROADMAP item 5).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tangleslopes import parse, solve, solve_sn
from tangleslopes.tangles import Leaf, Product, Sum, mirror


@st.composite
def _leaves(draw):
    """3-4 leaves p/q with 2 <= q <= 7 and |p/q| < 1."""
    leaves = []
    for _ in range(draw(st.integers(min_value=3, max_value=4))):
        q = draw(st.integers(min_value=2, max_value=7))
        p = draw(st.sampled_from([p for p in range(1 - q, q) if p and gcd(p, q) == 1]))
        leaves.append(Fraction(p, q))
    return leaves


def _normalized_slopes(leaves):
    """The slope set of the sum of `leaves`, or None without a normalization."""
    rep = solve(parse(" + ".join(str(pq) for pq in leaves)))
    if not any(s.note == "seifert-reference" for s in rep.systems):
        return None
    return rep.slopes


@settings(max_examples=60, deadline=None)
@given(_leaves())
# P(-2, 3, 7), whose pinned set {0, 16, 37/2, 20} has four slopes
@example([Fraction(-1, 2), Fraction(1, 3), Fraction(1, 7)])
@example([Fraction(-1, 5), Fraction(-2, 7), Fraction(5, 6), Fraction(-3, 4)])
def test_rotation_and_reversal_keep_montesinos_slopes(leaves):
    slopes = _normalized_slopes(leaves)
    assume(slopes is not None)
    for moved in (leaves[1:] + leaves[:1], leaves[::-1]):
        assert _normalized_slopes(moved) == slopes, moved


def _leaf(draw):
    q = draw(st.integers(min_value=2, max_value=5))
    return Leaf(Fraction(draw(st.sampled_from([p for p in range(1 - q, q) if gcd(p, q) == 1])), q))


@st.composite
def _products(draw):
    """Products of 2-3 factors, each one leaf or a sum of two, q <= 5."""
    factors = [
        _leaf(draw) if draw(st.booleans()) else Sum(_leaf(draw), _leaf(draw))
        for _ in range(draw(st.integers(min_value=2, max_value=3)))
    ]
    expr = factors[0]
    for factor in factors[1:]:
        expr = Product(expr, factor)
    return expr


def _closed_taus(rep):
    return {s.tau for s in rep.systems if s.note != "seifert-reference"}


@settings(max_examples=40, deadline=None)
@given(_products())
# with a normalization, and without one
@example(parse("-1/2 o (-1/2 + -3/4) o 1/2"))
@example(parse("(1/2 + -1/3) o 2/5 o (-1/2 + 1/4)"))
def test_mirror_negates_closed_taus_and_slopes(expr):
    rep, mirrored = solve_sn(expr), solve_sn(mirror(expr))
    assert _closed_taus(mirrored) == {-t for t in _closed_taus(rep)}
    if any(s.note == "seifert-reference" for s in rep.systems):
        assert mirrored.slopes == tuple(sorted(-s for s in rep.slopes))


def _montesinos_class(text):
    """(e0, the least rotation or reversal of the non-integer leaves mod 1)."""
    fractions = [leaf.fraction for leaf in parse(text).leaves()]
    seq = [f % 1 for f in fractions if f.denominator > 1]
    turns = [seq[i:] + seq[:i] for i in range(len(seq))]
    return sum(fractions), min(tuple(t) for turn in turns for t in (turn, turn[::-1]))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5 (the normalization): one knot, different slope sets",
)
@pytest.mark.parametrize("texts", [
    # P(-2, 3, 7): {0, 16, 37/2, 20}, {0, 12, 29/2, 16} and {0, 16, 37/2}
    ("-1/2 + 1/3 + 1/7", "1/2 + 1/3 + -6/7", "-5/2 + 1/3 + 1/7 + 2"),
    # {-3, 0, 2/3} and {0, 1, 14/3}
    ("2/5 + -1/3 + 1/2", "-1/2 + 2/3 + 2/5"),
], ids=["P(-2,3,7)", "2/5 + -1/3 + 1/2"])
def test_spellings_of_one_knot_report_one_slope_set(texts):
    # pytest.fail is not an AssertionError: a pair that is not one knot
    # fails the test instead of meeting the xfail
    if len({_montesinos_class(text) for text in texts}) != 1:
        pytest.fail("not one knot: %s" % (texts,))
    reports = [solve(parse(text)) for text in texts]
    assert all(any(s.note == "seifert-reference" for s in rep.systems) for rep in reports)
    assert len({rep.slopes for rep in reports}) == 1, [rep.slopes for rep in reports]
