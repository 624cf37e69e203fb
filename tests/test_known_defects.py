"""The defect ledger: every known wrong answer, one strict xfail each.

Each expected value comes from a theorem or a published value, not from
this code, and each mark names the ROADMAP item that fixes its defect. The
marks are strict and expect an AssertionError: a case that starts to pass
fails the run until its mark is removed, so a fix shows in the pass count,
and a case that fails for another reason (an exception, a shape the
solver rejects) is not taken for the known defect. Where the sign
convention is not pinned yet (item 4), a set or its negative is accepted.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from tangleslopes import parse, solve
from tangleslopes.cli import EXIT_USAGE, main


def defect(item, why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP %s: %s" % (item, why))


def _slopes(text):
    return set(solve(parse(text)).slopes)


def _up_to_sign(slopes, expected):
    return slopes in (set(expected), {-s for s in expected})


@defect("items 5 and 24a", "the normalization: P(-2,3,7) spelled otherwise loses or moves slopes;"
        " folding each integer leaf into its left neighbour gives back a spelling of the same knot")
@pytest.mark.parametrize("text", ["1/2 + 1/3 + -6/7", "-5/2 + 1/3 + 1/7 + 2",
                                  "-1/2 + 1/3 + 1/7 + 1 + -1", "-1/2 + 1 + 1/3 + -1 + 1/7"])
def test_pretzel_237_in_other_spellings(text):
    # P(-2, 3, 7), as -1/2 + 1/3 + 1/7 reports it: {0, 16, 37/2, 20}
    # (Hatcher-Oertel's worked example); the last two add cancelling integers
    assert _slopes(text) == {0, 16, Fraction(37, 2), 20}


@defect("item 4", "essentiality: the trefoil lists a false slope")
def test_trefoil():
    # 1/2 o -1/2 is a trefoil, whose boundary slopes are {0, 6}
    # (Hatcher-Thurston; a torus knot T(p, q) has {0, pq})
    assert _up_to_sign(_slopes("1/2 o -1/2"), {0, 6})


@defect("item 4", "essentiality: the figure-eight reports {0} alone")
def test_figure_eight():
    # 1/2 + 1 + 1 is the figure-eight knot: {-4, 0, 4} (Hatcher-Thurston)
    assert _slopes("1/2 + 1 + 1") == {-4, 0, 4}


@defect("item 4", "essentiality: the torus knot T(2, 5) reports {0} alone")
def test_torus_knot_2_5():
    # -1/2 + 1/3 + 1 is P(-2, 3, 1) = T(2, 5): {0, 2 * 5}
    assert _up_to_sign(_slopes("-1/2 + 1/3 + 1"), {0, 10})


@defect("item 4", "essentiality: a two-bridge product lists invented slopes, diameter 22")
def test_two_bridge_product_diameter_at_most_2c():
    # with a o b = 1/a + b, 1/2 o 1/2 o 1/2 is N(2/5 + 1/2), a two-bridge
    # knot of determinant 9 drawn with 6 crossings, so its slope diameter
    # is at most 2 * 6 (Hatcher-Thurston; Ichihara-Mizushima)
    assert solve(parse("1/2 o 1/2 o 1/2")).diameter <= 12


@defect("item 7", "type III pieces: same-sign sums report {0}, not diameter 2c")
@pytest.mark.parametrize("text, c", [("-1/2 + -1/3 + -1/5", 2 + 3 + 5), ("1/2 + 1/3 + 1/3", 2 + 3 + 3)])
def test_same_sign_sum_has_diameter_2c(text, c):
    # an alternating Montesinos knot whose tangles share a sign has
    # diameter 2c, c the sum of its partial quotients (Curtis-Taylor)
    assert solve(parse(text)).diameter == 2 * c


@defect("items 4 and 5", "these products report no slope")
@pytest.mark.parametrize("text", ["1/3 o 1/2", "(2 o -1) + 1/3 + 1/3"])
def test_product_knot_has_two_slopes(text):
    # a knot has at least two boundary slopes (Culler-Shalen); the second
    # is P(-2, 3, 3), as 2 o -1 is -1/2
    assert len(_slopes(text)) >= 2


@defect("item 7", "type III pieces: the 12-tangle same-sign knot reports {0}")
def test_many_leaf_same_sign_sum_has_two_slopes():
    # Culler-Shalen, as above; 1/2 and eleven 4/9s
    assert len(_slopes(" + ".join(["1/2"] + ["4/9"] * 11))) >= 2


@defect("item 2a", "links are solved and exit 0 or 3")
@pytest.mark.parametrize("text", ["1/2 + 1/4 + 1/4", "3 o 1/3", "2 + 1/3 + 1/7"])
def test_link_exits_2(text):
    # 1/2 + 1/4 + 1/4 has three components, 3 o 1/3 and 2 + 1/3 + 1/7 two
    # (no even denominator, and the numerators sum to an even number); a
    # link is a usage error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["slopes", text])
    assert code == EXIT_USAGE


@defect("item 17", "c_bound cuts kn(2, 8) silently")
def test_kn_2_8_is_whole_or_says_it_was_cut():
    # kn(2, 8) has diameter 2 * 3**2 + 2 * 9**2 - 8 = 172 (reached at
    # c_bound 64); at the default bound 32 the report must reach it or say
    # that the bound cut the search
    rep = solve(parse("(-1/2 + 1/3) o (-1/8 + 1/9)"))
    assert rep.diameter == 172 or any("cut" in note for note in rep.notes)
