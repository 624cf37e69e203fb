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
    ("-1/2 + 1/3 + 1/3", None, "9ab64e37db8bb6b2116d516cc45d288f731e831e098e0615e68c4ea71d7ff11c"),
    ("-1/2 + 1/3 + 1/5", None, "f94e1ec970137a5253453638fe46efbdf7e3cb8f4e7d9e0f0907074b699f3c3b"),
    ("-1/2 + 1/3 + 1/7", None, "5f2a2d1c38db2237c2bc2a9c242af59b346ce6e6ad1e082ab322e059b944c821"),
    ("(1/2 + 1/3) o 1/4", None, "d6f82b14beae8dbfa23c21f4d1f1e9cb103a57b47bf71caf8ae4d1d674c5d7f2"),
    (
        "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)",
        None,
        "63fab5b1b709c06ac08db6827d6b46db2b983c07695ef115703233e9727730d4",
    ),
    # the u=0 enumeration is skipped here; the digest pins that note
    ("-3/7 + 5/11 + 2/9 + 1/4", None, "395508b9e97178e0c18ebf11bf5db8849d45fd86ccd46fcf12cd68f3d7e65a41"),
    # no even-denominator tangle: systems with null slopes
    ("2 + 1/3 + 1/7", None, "b9f99163187c849d91c2643a33f88a9be37b9f4b905f4d5ef01f3efe75c86efc"),
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
