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
    ("kn(2)", None, "24d5401f0abbdf90a1fdd3678856ee581844c6ed6f74048dad138c7af213dc13"),
    ("kn(3)", None, "3d4500c1daa632e0bfb02c0fbe36abeb0e4c64bb0f353d27093924ed572cb616"),
    ("kn(4)", None, "86bf05943aba4af6b0a7d0b34f1d81ccdf4e767d2a8c8631539e0c9a0f95f677"),
    ("kn(6)", None, "f0230912c50b3cd33a20670f31c765222f06116a642ec2785d8d0b89402cefa1"),
    ("kn(8)", None, "c72e8d8cf6500d2987e4237e6b6f7d6ac2e85577325a2645ddb4004bd2d93ab5"),
    ("kn(10)", None, "49564501c699bd2239eeb42c8548cba62ec607b25bdfbf808043d0366043c046"),
    ("-1/2 + 1/3 + 1/3", None, "cded4f23fcb32a6ef582475921646c0e7bcd2418687a2ad3e01b5186b39dc84b"),
    ("-1/2 + 1/3 + 1/5", None, "7dee1ae7dbe01a75e270378877bef3ce792928781adefb9087aa369126500743"),
    ("-1/2 + 1/3 + 1/7", None, "a6fdd7d87c17a5682451c7aa4bf85fc552f6bfa9f21b7474c11f5a1b569ad708"),
    ("(1/2 + 1/3) o 1/4", None, "fd5be9fbfd7df094535b5c6449f6da5429eef112163f86c1b9d3973eaa84bfa2"),
    (
        "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)",
        None,
        "3d316eeb81c8688179a33e7a6577b125470cbdb8598974cbdf3aa3e495f747cf",
    ),
    # four tangles: the digest pins the complete u=0 search, no skip note
    ("-3/7 + 5/11 + 2/9 + 1/4", None, "1ceacbde5cbecb2beffab388ff8d62a6e66ff929272c21be26bdba7a63813c35"),
    # six tangles: pins the type-I walk over overlapping segment prefixes
    (
        "3/7 + -5/9 + 2/9 + -4/7 + 5/8 + 1/9",
        None,
        "4c4951e56c3aeb01e5e43135d4125b66458f38ba8ac25d9c59f8a6d07e14e6bc",
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


def test_deep_left_nested_product_is_pinned():
    # 500 factors, the parse depth cap: the root witness walk, which
    # recurses once per level, must stay within the recursion limit
    expr = parse(" o ".join(["1/3"] * 500))
    out = format_json(solve(expr, c_bound=1))
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bb8f7f026cfd534a8888c75edb1274324855e0985eed1c58b3bdbf66a43fdbf6"
    )
