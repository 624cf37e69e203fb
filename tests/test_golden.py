"""Byte-level pins on the JSON report.

Each case fixes the SHA-256 of `cli.format_json` for one input, so a
refactor that changes any slope, system, note or ordering shows up here.
A change that alters output on purpose updates the digest and says why in
CHANGES.md.
"""

import hashlib

import pytest

from tangleslopes import kn, parse, solve
from tangleslopes.cli import format_json

GOLDEN = (
    ("kn(2)", None, "11ff13bf58491406f80bc646c97b66f1eac5e3ca52addbb6b60de44d2fb84af9"),
    ("kn(3)", None, "33b30918b316472829dee770e1b5a444092512494a8f278f9b47d77812fa194d"),
    ("kn(4)", None, "24779d35839580d82a81c3d4aea9a7dfaa405ed65fbaaf6497c7737879113ee0"),
    ("kn(6)", None, "5c850e7e5c7ad0a1bf8999cfece667cc79be41e11a24a1ce5730ede60670133b"),
    ("kn(8)", None, "161ba54e24a41adb096ae85c0a285207e54658b2ef06a95c7dd9aaed75506478"),
    ("kn(10)", None, "fccd3a95fd948cd74b823403079246eaec6d8e25e6f9749961dbe66cc5f80535"),
    ("-1/2 + 1/3 + 1/3", None, "707211ff29b3dc5d4a3f2dec212d156b4f1d02d8b03a351dc5b5c53e5a1e4c79"),
    ("-1/2 + 1/3 + 1/5", None, "7dee1ae7dbe01a75e270378877bef3ce792928781adefb9087aa369126500743"),
    ("-1/2 + 1/3 + 1/7", None, "a6fdd7d87c17a5682451c7aa4bf85fc552f6bfa9f21b7474c11f5a1b569ad708"),
    ("(1/2 + 1/3) o 1/4", None, "14fa8bcd088a446e26231c6ce81acbe2182c276c7897f33943f3fcda4d83393e"),
    (
        "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)",
        None,
        "0464613e45529e27e49fff89bc80a9365cf0e1aeac8e5ca109c2d9e4bf718159",
    ),
    # four tangles: the digest pins the complete u=0 search, no skip note
    ("-3/7 + 5/11 + 2/9 + 1/4", None, "53179aae35a7af62d8a0b7a3cf673cf29e81f26d4a5b52f0b612e0e74521cdb2"),
    # six tangles: pins the type-I walk over overlapping segment prefixes
    (
        "3/7 + -5/9 + 2/9 + -4/7 + 5/8 + 1/9",
        None,
        "0e295d116edff6be89585d5e8b502b92e86d0a0bc033504cfc9df49622a8a641",
    ),
    # no even-denominator tangle: systems with null slopes
    ("2 + 1/3 + 1/7", None, "22b5afdeec80f6a6579c87504de24ff44816c39b650b15119da12cd5d2e0c840"),
    # the integer leaf keeps its trivial path even past c_bound
    ("(2 + 1/3) o 1/2", 1, "4c426dc830dc49b3bf9b32a681f82a34b2a5690376472f0a2e96a3cda2f36d13"),
)


def _expr(text):
    if text.startswith("kn("):
        return kn(int(text[3:-1]))
    return parse(text)


@pytest.mark.parametrize("text, c_bound, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes_are_pinned(text, c_bound, digest):
    out = format_json(solve(_expr(text), c_bound=c_bound))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _right_nested(leaf, levels):
    text = leaf
    for _ in range(levels - 1):
        text = "%s o (%s)" % (leaf, text)
    return text


DEEP = (
    # 40 right-nested factors at c_bound 1: every level's right operand
    # is the product below it
    (_right_nested("1/3", 40), 1,
     "baae35267bdeb7cb6ddf1b1e47d4421c6f34049fbbf9e33bd0170fd166e177b0"),
    # 20 left-nested factors at the default c_bound
    (" o ".join(["1/3"] * 20), None,
     "d0568877d20c494897fab941377ec5323cb78ce1ce30cbfd727a1d9983580403"),
)


@pytest.mark.parametrize("text, c_bound, digest", DEEP, ids=["right-40", "chain-20"])
def test_nested_products_are_pinned(text, c_bound, digest):
    out = format_json(solve(parse(text), c_bound=c_bound))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_left_nested_product_is_pinned():
    # 500 factors, the parse depth cap: slopes.replay, which recurses
    # once per level, must stay within the recursion limit
    expr = parse(" o ".join(["1/3"] * 500))
    out = format_json(solve(expr, c_bound=1))
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bb8f7f026cfd534a8888c75edb1274324855e0985eed1c58b3bdbf66a43fdbf6"
    )
