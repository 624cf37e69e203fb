"""The indented JSON writer in `cli` against `json.dumps(indent=2)`.

`cli._emit` must write exactly the text of `json.dumps(value, indent=2)`
for the value types a report holds, and refuse every other type.
`json.dumps` is the reference here on every Python version, including
3.13 and later, where `format_json` calls it instead of `_emit`.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleslopes import parse, solve
from tangleslopes.cli import _emit, format_json, report_document
from test_golden import GOLDEN, _expr


def _written(value):
    out = []
    _emit(out, value)
    return "".join(out)


# quotes, backslashes, control characters, DEL, non-ASCII, astral and
# lone surrogate code points, plus anything hypothesis draws
_tricky = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∞", " ", "😀", "\ud800", "/"]
)
_text = st.lists(st.one_of(_tricky, st.text(max_size=4)), max_size=5).map("".join)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _text,
)
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2)


def test_writer_on_fixed_edge_cases():
    # bool before int: True is an int but prints as true, not 1
    assert _written([True, False, 1, 0, -1]) == json.dumps([True, False, 1, 0, -1], indent=2)
    assert _written({"a": [], "b": {}, "c": [[[]]], "d": None}) == json.dumps(
        {"a": [], "b": {}, "c": [[[]]], "d": None}, indent=2
    )
    assert _written(-(10**100)) == str(-(10**100))
    assert _written("\"\\\x01é😀") == json.dumps("\"\\\x01é😀")


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        0.0,
        Fraction(0),
        Fraction(1, 2),
        (1, 2),
        (),
        {1, 2},
        set(),
        {1: "int key"},
        [Fraction(0)],
        {"nested": {"deeper": [0.0]}},
        {"key": Fraction(0)},
    ],
    ids=repr,
)
def test_writer_refuses_other_types(value):
    # Fraction(0) and empty tuples and sets are falsy: a writer that
    # falls through to a container branch would print them as [] or {}
    with pytest.raises(TypeError):
        _written(value)


def _leaf(rng, q_max):
    q = rng.randint(2, q_max)
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
    return "%d/%d" % (rng.choice((p, -p)), q)


def _sum_input(rng):
    return " + ".join(_leaf(rng, 9) for _ in range(rng.randint(3, 5)))


def _product_input(rng):
    return " o ".join(
        "(%s)" % " + ".join(_leaf(rng, 5) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(2, 3))
    )


_rng = random.Random(20261018)
SWEEP = [(_sum_input(_rng), 4) for _ in range(20)] + [(_product_input(_rng), 4) for _ in range(10)]
# every test_golden input, the 500-factor chain of its deep-product pin included
DEEP = " o ".join(["1/3"] * 500)
CORPUS = [(text, c_bound) for text, c_bound, _ in GOLDEN] + [(DEEP, 1)] + SWEEP


@pytest.mark.parametrize(
    "text, c_bound", CORPUS, ids=["1/3 o ... o 1/3" if c[0] == DEEP else c[0] for c in CORPUS]
)
def test_format_json_is_json_dumps_on_reports(text, c_bound):
    rep = solve(_expr(text), c_bound=c_bound)
    doc = report_document(rep)
    reference = json.dumps(doc, indent=2) + "\n"
    written = _written(doc) + "\n"
    assert written == reference
    assert format_json(rep) == written
    assert json.loads(written) == doc


def test_null_diameter_and_ratio_reach_the_writer():
    # a golden input: no even-denominator tangle, so no normalization and
    # null diameter and ratio
    doc = report_document(solve(parse("2 + 1/3 + 1/7")))
    assert doc["slopes"] == [] and doc["diameter"] is None and doc["ratio"] is None
    assert '"diameter": null,\n  "ratio": null,' in _written(doc)
