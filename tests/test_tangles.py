import copy
import pickle
from fractions import Fraction

import pytest

from tangleslopes import (
    FamilyRange,
    Leaf,
    ParseError,
    Product,
    Sum,
    ZeroDenominator,
    kn,
    parse,
    render,
)
from tangleslopes.tangles import (
    crossing_count,
    family_crossing_count,
    family_index,
    mirror,
    montesinos_factors,
)


def test_parse_single_fraction():
    e = parse("-1/2")
    assert isinstance(e, Leaf) and e.fraction == Fraction(-1, 2)


def test_parse_integer_leaf():
    assert parse("3").fraction == 3
    assert parse("-3").fraction == -3


def test_parse_sum_left_associates():
    e = parse("1/2 + 1/3 + 1/4")
    assert isinstance(e, Sum) and isinstance(e.left, Sum)
    assert e.right.fraction == Fraction(1, 4)


def test_parse_product_binds_through_parens():
    e = parse("(-1/2 + 1/3) o (-1/2 + 1/3)")
    assert isinstance(e, Product)
    assert isinstance(e.left, Sum) and isinstance(e.right, Sum)


def test_parse_whitespace_insensitive():
    assert parse("1/2+1/3") == parse("1/2 + 1/3")


@pytest.mark.parametrize(
    "text, position",
    [("", 0), ("bad//", 0), ("0", 0), ("(1/2 + 1/3", 0), ("1/2 )", 4), ("1/2 1/3", 4)],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert "position %d" % position in str(err.value)


def test_parse_rejects_deep_nesting():
    deep = (
        " + ".join(["1/3"] * 1200),
        " o ".join(["1/3"] * 1200),
        "1/3 + (" * 1200 + "1/3" + ")" * 1200,
        "(" * 1200 + "1/3" + " + 1/3)" * 1200,
    )
    for text in deep:
        with pytest.raises(ParseError, match="nests too deeply"):
            parse(text)
    # parentheses alone add no tree depth, and parsing does not recurse
    assert parse("(" * 1200 + "1/3" + ")" * 1200) == Leaf(Fraction(1, 3))
    # the cap is on depth, not size: 500 levels parse and walk
    for text in (" + ".join(["1/3"] * 500), "1/3 o (" * 499 + "1/3" + ")" * 499):
        e = parse(text)
        assert len(list(e.leaves())) == 500
        assert render(mirror(e)).count("-1/3") == 500


def test_tree_equality_and_hash_do_not_recurse():
    for text in ("1/3 + (" * 499 + "1/3" + ")" * 499, "1/3 o (" * 499 + "1/3" + ")" * 499):
        a, b = parse(text), parse(text)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
    assert parse("(1/2 + 1/3) + 1/5") != parse("1/2 + (1/3 + 1/5)")
    assert parse("1/2 + 1/3") != parse("1/2 o 1/3")
    leaf = Leaf(Fraction(1, 3))
    assert leaf != Sum(leaf, leaf)
    assert leaf == Leaf(Fraction(1, 3)) and hash(leaf) == hash(Leaf(Fraction(1, 3)))
    for n in range(2, 7):
        assert family_index(kn(n)) == n


def test_repr_copy_and_pickle_do_not_recurse():
    for text in ("1/3 + (" * 499 + "1/3" + ")" * 499, "1/3 o (" * 499 + "1/3" + ")" * 499):
        e = parse(text)
        assert eval(repr(e), {"parse": parse}) == e
        assert copy.deepcopy(e) == e
        back = pickle.loads(pickle.dumps(e))
        assert back == e and render(back) == render(e)
    leaf = Leaf(Fraction(-2, 3))
    assert repr(leaf) == "parse('-2/3')"
    assert copy.copy(leaf) == leaf and pickle.loads(pickle.dumps(leaf)) == leaf


def test_nodes_are_immutable_without_instance_dicts():
    leaf = Leaf(Fraction(1, 3))
    for node, field in ((leaf, "fraction"), (Sum(leaf, leaf), "left"), (Product(leaf, leaf), "right")):
        before = getattr(node, field)
        with pytest.raises(AttributeError):
            setattr(node, field, leaf)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.unknown_field = None
        assert getattr(node, field) is before
        assert not hasattr(node, "__dict__")


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ZeroDenominator):
        parse("1/0")
    assert issubclass(ZeroDenominator, ParseError)


def test_render_is_canonical_and_reparses():
    for text in (
        "-1/2 + 1/3",
        "(-1/2 + 1/3) o (-1/2 + 1/3)",
        "1/2 + (1/3 + 1/4)",
        "(1/2 + 1/3) o 1/4 o 1/5",
    ):
        e = parse(text)
        assert parse(render(e)) == e


def test_render_parenthesizes_only_where_needed():
    assert render(parse("1/2 + 1/3 + 1/4")) == "1/2 + 1/3 + 1/4"
    assert render(parse("1/2 + (1/3 + 1/4)")) == "1/2 + (1/3 + 1/4)"
    assert render(kn(2)) == "(-1/2 + 1/3) o (-1/2 + 1/3)"


def test_str_matches_render():
    assert str(kn(3)) == render(kn(3))


def test_mirror_negates_every_leaf():
    e = mirror(parse("(-1/2 + 1/3) o 1/4"))
    assert [l.fraction for l in e.leaves()] == [
        Fraction(1, 2),
        Fraction(-1, 3),
        Fraction(-1, 4),
    ]
    assert mirror(mirror(e)) == e


def test_kn_builds_the_family():
    e = kn(4)
    leaves = [l.fraction for l in e.leaves()]
    assert leaves == [
        Fraction(-1, 4),
        Fraction(1, 5),
        Fraction(-1, 4),
        Fraction(1, 5),
    ]


def test_kn_range():
    with pytest.raises(FamilyRange):
        kn(1)
    with pytest.raises(FamilyRange):
        kn(0)


def test_family_index_detects_members_and_mirrors():
    assert family_index(kn(2)) == 2
    assert family_index(kn(7)) == 7
    assert family_index(mirror(kn(3))) == 3
    assert family_index(parse("1/2 + 1/3")) is None
    assert family_index(parse("(-1/2 + 1/3) o (-1/2 + 1/4)")) is None


def test_montesinos_predicate():
    assert parse("1/2 + 1/3 + 1/7").is_montesinos()
    assert not kn(2).is_montesinos()


def test_montesinos_factors_carry_reflection_parity():
    factors = montesinos_factors(parse("(1/2 + 1/3) o (1/4 + 1/5)"))
    assert [(render(f), p) for f, p in factors] == [
        ("1/2 + 1/3", 1),
        ("1/4 + 1/5", 0),
    ]


def test_montesinos_factors_nested_product():
    factors = montesinos_factors(parse("((1/2 + 1/3) o 1/4) o 1/5"))
    assert [(render(f), p) for f, p in factors] == [
        ("1/2 + 1/3", 2),
        ("1/4", 1),
        ("1/5", 0),
    ]


def test_crossing_counts():
    assert family_crossing_count(2) == 8
    assert family_crossing_count(5) == 20
    # the generic count is an upper bound, never below the family value
    for n in range(2, 7):
        assert crossing_count(kn(n)) >= family_crossing_count(n)
    assert crossing_count(parse("3/10")) == 6  # [3,3] continued fraction
    assert crossing_count(parse("-3")) == 3
