import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import trees

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
    node_labels,
)
from tangleslopes.tangles import MAX_DEPTH

# a product under a sum: without its parentheses the text reparses as a
# different tree, since + binds tighter than o
PRODUCT_UNDER_SUM = (
    "(2 o -1) + 1/3 + 1/3",
    "1/2 + (1/3 o 1/5)",
    "(1/3 o 1/2) + 1/3 + 1/5",
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


# a numeral one digit past what int() converts; 0 digits is no limit
_LONG = "9" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
_LIMITED = pytest.mark.skipif(len(_LONG) == 1, reason="int() converts numerals of any length here")


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("bad//", 0),
        ("0", 0),
        ("(1/2 + 1/3", 0),
        ("1/2 )", 4),
        ("1/2 1/3", 4),
        ("1/\u00b2", 2),  # superscript two
        ("\u0663", 0),  # Arabic-Indic three
        pytest.param("1/" + _LONG, 2, marks=_LIMITED, id="long-denominator"),
        pytest.param(_LONG + "/7", 0, marks=_LIMITED, id="long-numerator"),
    ],
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
    for text in PRODUCT_UNDER_SUM:
        assert render(parse(text)) == text


@settings(max_examples=300, deadline=None)
@given(trees())
@example(parse(PRODUCT_UNDER_SUM[0]))
@example(parse(PRODUCT_UNDER_SUM[1]))
@example(parse(PRODUCT_UNDER_SUM[2]))
def test_render_round_trips_every_tree(e):
    assert parse(render(e)) == e
    assert copy.deepcopy(e) == e
    assert pickle.loads(pickle.dumps(e)) == e
    assert eval(repr(e), {"parse": parse}) == e
    assert node_labels(e) == [render(node) for node in e.nodes()]


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


# ---------------------------------------------------------------------------
# the parser parse replaced, kept as a reference: a token list, a _Parser
# class reading it, and _reduce applying the pending operators, with its own
# binding table: o binds looser than +, an open parenthesis binds 0
_BINDING = {"o": 1, "+": 2}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+o()/-":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    return tokens


def _reduce(operands, pending, floor):
    """Apply the pending operators that bind at least as tightly as floor."""
    while pending and _BINDING.get(pending[-1][0], 0) >= floor:
        op, position = pending.pop()
        (right, rdepth), (left, ldepth) = operands.pop(), operands.pop()
        depth = 1 + max(ldepth, rdepth)
        if depth > MAX_DEPTH:
            raise ParseError("expression nests too deeply (over %d levels)" % MAX_DEPTH, position)
        operands.append(((Sum if op == "+" else Product)(left, right), depth))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def here(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        operands, pending, opened = [], [], 0
        while True:
            while self.peek() == "(":
                pending.append(self.take())
                opened += 1
            operands.append((self.fraction(), 1))
            while opened and self.peek() == ")":
                _reduce(operands, pending, 1)
                pending.pop()
                opened -= 1
                self.take()
            if self.peek() not in _BINDING:
                break
            _reduce(operands, pending, _BINDING[self.peek()])
            pending.append(self.take())
        _reduce(operands, pending, 1)
        if pending:
            raise ParseError("unbalanced parenthesis", pending[-1][1])
        return operands[0][0]

    def fraction(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError("expected a fraction", self.here())
        num_pos = self.here()
        num = int(self.take()[0])
        den = 1
        if self.peek() == "/":
            self.take()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise ParseError("expected a denominator", self.here())
            den_pos = self.here()
            den = int(self.take()[0])
            if den == 0:
                raise ZeroDenominator("zero denominator", den_pos)
        if num == 0:
            raise ParseError("zero tangle is not allowed", num_pos)
        return Leaf(Fraction(sign * num, den))


def _reference_parse(text):
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty input", 0)
    node = parser.expr()
    if parser.peek() is not None:
        raise ParseError("unexpected token %r" % parser.peek(), parser.here())
    return node


def _outcome(parse_text, text):
    try:
        return parse_text(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


_TEXT_ALPHABET = "0123456789 /+o()-x"
_TEXT_PIECES = ("(", ")", " + ", "+", " o ", "o", "-", "/", "0", "1", "12", "7", " ", "x")


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.text(_TEXT_ALPHABET, max_size=40),
        st.lists(st.sampled_from(_TEXT_PIECES), max_size=30).map("".join),
        trees().map(render),
    )
)
@example("1/3 + (" * 1200 + "1/3" + ")" * 1200)
@example("(" * 1200 + "1/3" + " + 1/3)" * 1200)
@example("(" * 1200 + "1/3" + ")" * 1200)
def test_parse_matches_the_reference_parser(text):
    # the same tree, or the same exception type, message and position
    assert _outcome(parse, text) == _outcome(_reference_parse, text)
