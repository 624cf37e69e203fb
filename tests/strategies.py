"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from tangleslopes import Leaf, Product, Sum


def leaves(q_max=9):
    """Nonzero leaves p/q with q <= q_max; q = 1 gives the integer tangles."""
    numerators = st.integers(-3 * q_max, 3 * q_max).filter(bool)
    return st.builds(Fraction, numerators, st.integers(1, q_max)).map(Leaf)


@st.composite
def trees(draw, max_merges=12):
    """Any tree of sums and products: each merge joins two nodes drawn from
    the leaves and the earlier merges, so a tree can reach any depth up to
    max_merges and can hold one subtree object in several places."""
    pool = draw(st.lists(leaves(), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, max_merges))):
        kind = draw(st.sampled_from((Sum, Product)))
        pool.append(kind(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool[-1]


@st.composite
def two_leaf_products(draw, q_max=9):
    """Products of two sums of two leaves. A sum may be one leaf object
    added to itself, and the right factor may be the left factor object
    again, as in kn(n)."""

    def factor():
        x = draw(leaves(q_max))
        return Sum(x, x if draw(st.integers(0, 4)) == 0 else draw(leaves(q_max)))

    left = factor()
    return Product(left, left if draw(st.integers(0, 3)) == 0 else factor())


@st.composite
def one_sheet_chains(draw, q_max=5):
    """Chains of factors whose runs are one-sheet, each a leaf or a sum of
    two leaves: A o B o C, sometimes with a fourth factor, or right-nested
    as A o (B o C)."""

    def factor():
        x = draw(leaves(q_max))
        return Sum(x, draw(leaves(q_max))) if draw(st.booleans()) else x

    a, b, c = factor(), factor(), factor()
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return Product(Product(Product(a, b), c), factor())
    if shape == 1:
        return Product(a, Product(b, c))
    return Product(Product(a, b), c)
