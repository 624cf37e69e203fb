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
    ("kn(2)", None, "b084c0a778f139c2c116347bf8f3ecc68739dd9bcba5aa6499109d65fb486651"),
    ("kn(3)", None, "67871f13d705990a13bafdfdcb2739ff3e5181b0b6d82c9c4e95ab5711ed536f"),
    ("kn(4)", None, "20c46fde421d33a4b93fa62e8ccd1f50fd88926650483d89a7478724151bc588"),
    ("kn(6)", None, "0255717851a67379b8ae5797f4a5a66ad69e37fe5944083b5c5618c87901d9e8"),
    ("kn(8)", None, "1dabc6d197fda9053ec442a28e0dd32f9adcbf3e23fb78c943c8eb7bcf1addb2"),
    ("kn(10)", None, "bc6bfc8cb53c9c91a9fcbe0eb87a84635a0cc3d1c533cd3fa4f879ea93c35b05"),
    ("-1/2 + 1/3 + 1/3", None, "bbaef03dec384575aa02435bd541c1323db3166229ebfc0f796bfba38ea50feb"),
    ("-1/2 + 1/3 + 1/5", None, "fb5243df1a8c7cca24bca080be963f9124ab4550a319ee93fce9db65b22bf6a8"),
    ("-1/2 + 1/3 + 1/7", None, "50d3b878ca85e5af983c0fa13e6a75fc0efd10091ef733a76c4dcf3004e307e5"),
    ("(1/2 + 1/3) o 1/4", None, "d6f82b14beae8dbfa23c21f4d1f1e9cb103a57b47bf71caf8ae4d1d674c5d7f2"),
    (
        "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)",
        None,
        "63fab5b1b709c06ac08db6827d6b46db2b983c07695ef115703233e9727730d4",
    ),
    # four tangles: the digest pins the complete u=0 search, no skip note
    ("-3/7 + 5/11 + 2/9 + 1/4", None, "2dbef73abf9ccf98e40c10cca96a671c83c29e68591b5e910b4409035a2c31b1"),
    # six tangles: pins the type-I walk over overlapping segment prefixes
    (
        "3/7 + -5/9 + 2/9 + -4/7 + 5/8 + 1/9",
        None,
        "d14aeee2a54e9df91695e4aa51921e7a016b7bdbf8b050725bdd95ada28f5fb4",
    ),
    # no even-denominator tangle: systems with null slopes
    ("2 + 1/3 + 1/7", None, "c6fc6296c75d8631d0b053a89e4c0fcf434453190d436727ea46f408ce83c928"),
    # the integer leaf keeps its trivial path even past c_bound
    ("(2 + 1/3) o 1/2", 1, "01a4f643a14ea89505dc0eb00b30d2aeec383656c820faab9274b96d0aed55b2"),
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
    out = format_json(solve(expr, c_bound=1, scale_bound=1))
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "3302d547355f54af244e243f30d74d5ea514f28aabe5a645f2c76a1a0fdd3979"
    )
