"""Byte-level pins on the JSON report.

Each case fixes the SHA-256 of `cli.format_json` for one input, so a
refactor that changes any slope, system, note or ordering shows up here.
GOLDEN and DEEP pin hand-picked inputs; tests/corpus_digests.tsv pins
the benchmark corpora, one row per pair `corpus()` rebuilds from
bench/workloads.py. A change that alters output on purpose updates the
digests, rewriting the table with

    PYTHONPATH=src python tests/test_golden.py > tests/corpus_digests.tsv

and says why in CHANGES.md; the table's diff names the inputs it moved.
"""

import hashlib
import importlib.util
from functools import lru_cache
from pathlib import Path

import pytest

from tangleslopes import kn, parse, solve, verify_system
from tangleslopes.cli import format_json

GOLDEN = (
    ("kn(2)", None, "11ff13bf58491406f80bc646c97b66f1eac5e3ca52addbb6b60de44d2fb84af9"),
    ("kn(3)", None, "33b30918b316472829dee770e1b5a444092512494a8f278f9b47d77812fa194d"),
    ("kn(4)", None, "24779d35839580d82a81c3d4aea9a7dfaa405ed65fbaaf6497c7737879113ee0"),
    ("kn(6)", None, "5c850e7e5c7ad0a1bf8999cfece667cc79be41e11a24a1ce5730ede60670133b"),
    ("kn(8)", None, "161ba54e24a41adb096ae85c0a285207e54658b2ef06a95c7dd9aaed75506478"),
    ("kn(10)", None, "fccd3a95fd948cd74b823403079246eaec6d8e25e6f9749961dbe66cc5f80535"),
    # c_bound 422: each leaf's constant family holds 55,131 keys
    ("kn(20)", None, "7f4b03148556e81686d3e5536a9a8a07cfa740947fc72a60b29d53d3c601d99a"),
    # past the corpus's kn(30): c_bound 1,642 and 3,662, where the two-leaf
    # factors' constant pairs and run windows are solved by formula
    ("kn(40)", None, "a1023ddbd0c6345f5822663525b12e49ab00eacf9bb2dc9bde61f7e2a3d88084"),
    ("kn(60)", None, "e3380ff29bed9bc83788ad6237470836b37b01e1e2004ed4410b12249633ef80"),
    # unequal two-leaf factors, at the default c_bound 32 and at kn(8)'s,
    # 74: every run window of the four leaves is clipped at -c_bound or
    # +c_bound
    ("(-1/2 + 1/3) o (-1/8 + 1/9)", None, "5cb4ab895777ebd5dc917d91238b96b43ac4aebba98bc910e33d40053e58966b"),
    ("(-1/2 + 1/3) o (-1/8 + 1/9)", 74, "99b88e9730628eabb35acfde9f6b57f260d07543f6d2af41dc204eac7156f220"),
    ("-1/2 + 1/3 + 1/3", None, "60ad564d509082a7a62624d61096578be9b59df3b36664767ed7dbdbc4a5ca65"),
    ("-1/2 + 1/3 + 1/5", None, "2807d7f6269cb0ad224312b3431ebe9e87bddd7ff8d1328b0e36855f59d71432"),
    ("-1/2 + 1/3 + 1/7", None, "9bfd07e2e158ccf720ede813730fe29de92d6b6176ed236b43174d3ed5fff3fc"),
    ("(1/2 + 1/3) o 1/4", None, "14fa8bcd088a446e26231c6ce81acbe2182c276c7897f33943f3fcda4d83393e"),
    (
        "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)",
        None,
        "0464613e45529e27e49fff89bc80a9365cf0e1aeac8e5ca109c2d9e4bf718159",
    ),
    # products of one-sheet factors below the root, whose glued keys are
    # kept by formula and turned by formula at the root: the first has 26
    # slopes, the same at c_bound 32 and 16,384, the second none (no
    # even-denominator tangle in its first factor); the first is spaced
    # apart from the c_bound-32 row above so the two test ids differ
    ("(1/2 + 1/3) o (1/4 + -1/3) o (1/5 + 1/2)", 1024,
     "c155e6a55b9fe4109f46e51ce8d4e61da7c7d2ade2d4af9ce11932e566d702de"),
    ("(-2/5 + -1/5) o (-2/3 + 1/2) o (1/4 + -1/3)", 1024,
     "e6dd802ace07848a9858a381eae30241d3f1e05433ea57361e20c6a49d878963"),
    # four factors: the second product glues the first's keys, turned by
    # formula, to the one-sheet leaf -1/3
    ("1/3 o 1/2 o -1/3 o 2/5", 32, "f14bfbb0b4e3154a2db60a2e871ba022c694ecac06f1aab2bb1c516f3d89036b"),
    # four tangles: the digest pins the complete u=0 search, no skip note
    ("-3/7 + 5/11 + 2/9 + 1/4", None, "02083ac022018c09cb6c20be9659ef9009800929aa9a6c7bac2028121f5b8b30"),
    # six tangles: pins the type-I merge over overlapping segment prefixes
    (
        "3/7 + -5/9 + 2/9 + -4/7 + 5/8 + 1/9",
        None,
        "2a78e3a9820b0aa571ec442ff1ce11cafc20457f7547f6422a43024db42a1adc",
    ),
    # no even-denominator tangle and no system: only the note "no closed
    # systems", which names no bound for a sum
    ("2 + 1/3 + 1/7", None, "0ecaeba48e9297d92752edac700829c9d01884e1e7a91428eba924989d16b6b0"),
    # no even-denominator tangle: three systems with null slopes
    ("1/3 + 1/3 + -1/5", None, "d13ddfdc0ca59773203427d6b3cfc19347482f9987ac20b9dfba7346f02b87c4"),
    # both factors have value 0: the product turns a family of value 0,
    # which turns into no key, and glues that to a family of value 0; no
    # even-denominator tangle, so six systems with null slopes
    ("(1/3 + -1/3) o (1/3 + -1/3)", None, "57b85c02ddec2c0556e42de77bb15749d0685166eba9295ee0bba10fd39f1196"),
    # a turned leaf's runs are (1, k, +-1), one per sign and direction
    # (1 : k), so these roots close only through the turned constant:
    # -1/4's (1, 0, -4) on the run (1, 0, 4) of a sum of two leaves, and
    # -3/4's (1, 2, -4) on a key of a product, whose runs are not one-sheet
    ("-1/4 o (3/4 + 3)", 1, "4b217e87803423d3bb048974827b168cefffa9864d8576ec7c7dc134c8252cf0"),
    ("-3/4 o (2/5 o 1)", None, "3bb9d4b5707f5f9ab632c7bd6bff8283338b0e71b771b6447ca835d788a146d3"),
    # turned runs closing on a product's runs, at c_bound 1 and 32
    ("1/2 o (1/3 o 1/4)", 1, "4cebb5e3b3cc69098c2575457eb2423c478c9bf899c6be58c6c47aeb2a991613"),
    ("1/2 o (1/3 o 1/4)", None, "9c96ed1f1c4e7e977e5817a3e723a6a48ca1205b689bb15719c93af5c9305efa"),
    # a right factor of value 1/0 (a product over a left factor of value
    # 0) has no family key for a turned run to close on
    ("3/4 o ((-2/5 + 2/5) o 1/5)", None, "9e84ff8f7e494a82beb1e5e8a68394edb952900dab6a39796b9a0a7f4dae6fed"),
    # roots of value 0 at c_bound 1024: every key of the root's family
    # closes (25,182 in the first, 35,486 in the second, whose inner
    # factor -1/3 + 1/3 has value 0 too), and the root keeps only the
    # first beside its explicit closings
    ("-1/2 o (-1/4 + 3/4) o 2/3", 1024, "03050d1760d1bcf3ca65d56121cfe4d207d05431d0e10e5221b30d9835e840c9"),
    ("(-1/4 + -1/2) o (-1/3 + 1/3) o 3/4", 1024,
     "43e6b0acaf438ccc0a3af402e334e1541b03ee192292476e56ee62108ea14874"),
    # the integer leaf keeps its trivial path even past c_bound
    ("(2 + 1/3) o 1/2", 1, "4c426dc830dc49b3bf9b32a681f82a34b2a5690376472f0a2e96a3cda2f36d13"),
    # an integer leaf whose constant family is empty at c_bound 2: it
    # keeps its trivial run (1, 0, 3)
    ("(3 + 1/2) o 1/3", 2, "754e29ee13e2759507c370e266a30f0d7736ac2e2d5f4b6276f44fd877114125"),
    # a turned integer leaf: at c_bound 2 the leaf 3 has no constant, only
    # its trivial window 3..3, and no system closes; at c_bound 3 its
    # constant (1, 0, 3), the same key as its trivial path, witnesses both
    # systems listed
    ("(3 o -2/3) o -2/3", 2, "b9cb92060c5a7a9020aa758c5c5506d6506bfd593cc4ce1070ce6f2563e76214"),
    ("(3 o -2/3) o -2/3", 3, "bdd8e2327a65691f219510f3b9e11a5b16383ddee03cf5ac68c97db1414443ad"),
    # the 7/2 leaf's descent to 3 ends past c_bound 1; its run comes back
    # through 2 into the bound, to 1 and 0
    ("(7/2 + 1/3) o 1/2", 1, "54dee8ce3d26b777f10b5e82d39d105a2864833c82c67d1bd734b3f63665424a"),
    # a turned leaf glued to a sum of two leaves; a root sum with a leaf
    # on the left, over a product of two leaves
    ("1/3 o (1/2 + 1/5)", None, "0d51899a8dac09db227ce993c01f4132deb7f49627c24139395932a8e13a9b77"),
    ("1/5 + (1/3 o 1/2)", None, "0befa615d8c6bbde70bb1c46c44a6c77f5a982f59070f3b0de2de87471500242"),
    # a sum of three leaves has one-sheet runs too: as a left factor its
    # runs turn by formula, and as a right factor the root's closing test
    # asks its runs only for (1, 0, +-1)
    ("(1/2 + 1/3 + -1/5) o (-1/4 + 1/5)", None,
     "720966e5dbaa9e26dc1a887b8e3922ff9ffb228d8da53d8d0a5b31e357360ff0"),
    ("(-1/4 + 1/5) o (1/2 + 1/3 + -1/5)", None,
     "70d3c546e7d3bd875d4feb309072ea62829da073c62370d3d354d2b92c3525c9"),
    # the Montesinos merge names each degenerate family by its least
    # combination: this knot (one even denominator) has families on
    # [0, 1/2) of one combination and of three
    ("-1/2 + 6/7 + 11/7 + -8/5", None, "e1d70d44d2aa5e1503d9aa126839cdc2a7b957d0d252d740163f040d636158bd"),
    # multi-sheet key pairs glue into sets: the -1/2 o -1/2 products glue
    # a one-sheet turned key to a two-sheet key, scales (2, 1)
    (
        "-1/2 o ((-1/2 o -1/2) + (-1/2 o -1/2))",
        4,
        "0e6dbfcc45f4ae8fa11dbf919cf72c96370c6b5c780925b9b473ddc4e1786438",
    ),
)


def _expr(text):
    if text.startswith("kn("):
        return kn(int(text[3:-1]))
    return parse(text)


def _digest(text, c_bound):
    out = format_json(solve(_expr(text), c_bound=c_bound))
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("text, c_bound, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes_are_pinned(text, c_bound, digest):
    assert _digest(text, c_bound) == digest


def _bench_workloads():
    """bench/workloads.py, the benchmark's seeded inputs; it imports
    nothing of the package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def corpus_batches(seed):
    """The products, montesinos-3 and montesinos-wide inputs of one seed,
    as many as a `bench/run.py --seconds 16` run draws."""
    workloads = _bench_workloads()
    batches = (workloads.product_inputs(32, seed), workloads.montesinos_inputs((3,), 104, seed),
               workloads.montesinos_inputs((4, 5), 48, seed))
    return tuple(map(tuple, batches))


DIGESTS = Path(__file__).with_name("corpus_digests.tsv")


def corpus():
    """The (text, c_bound) pairs of DIGESTS in row order: the corpora of
    seeds 1-3, each product also at c_bound 1, 3 and 8, then kn(2..30).
    Each pair once, and none that GOLDEN pins."""
    pairs = []
    for seed in (1, 2, 3):
        products, sums, wide = corpus_batches(seed)
        pairs += [(text, c_bound) for c_bound in (None, 1, 3, 8) for text in products]
        pairs += [(text, None) for text in sums + wide]
    pairs += [("kn(%d)" % n, None) for n in range(2, 31)]
    golden = {(text, c_bound) for text, c_bound, _ in GOLDEN}
    return [pair for pair in dict.fromkeys(pairs) if pair not in golden]


def _key(text, c_bound):
    return "%s\t%s" % (text, "default" if c_bound is None else c_bound)


def test_corpus_report_bytes_are_pinned():
    rows = DIGESTS.read_text(encoding="utf-8").splitlines()[1:]  # after the header
    pairs = corpus()
    keys = [_key(*pair) for pair in pairs]
    assert [row.rsplit("\t", 1)[0] for row in rows] == keys, (
        "%s does not list corpus() row for row: rewrite it as the module docstring says" % DIGESTS.name
    )
    moved = [key for key, row, pair in zip(keys, rows, pairs) if row != "%s\t%s" % (key, _digest(*pair))]
    assert not moved, "%d of %d corpus reports changed bytes:\n%s" % (
        len(moved), len(rows), "\n".join(moved))


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
    # 100 right-nested factors at c_bound 1
    (_right_nested("1/3", 100), 1,
     "e2a25b0dc147c4d3d169a5ca5ae335db065b4d93ecc217d1469cc067a227127b"),
    # 20 left-nested factors at the default c_bound
    (" o ".join(["1/3"] * 20), None,
     "d0568877d20c494897fab941377ec5323cb78ce1ce30cbfd727a1d9983580403"),
)


@pytest.mark.parametrize("text, c_bound, digest", DEEP, ids=["right-40", "right-100", "chain-20"])
def test_nested_products_are_pinned(text, c_bound, digest):
    assert _digest(text, c_bound) == digest


def test_deep_left_nested_product_is_pinned():
    # 500 factors, the parse depth cap. The solve builds its traces
    # without recursion; verify_system re-derives each one through
    # slopes.replay, which recurses once per level and must stay within
    # the recursion limit
    expr = parse(" o ".join(["1/3"] * 500))
    rep = solve(expr, c_bound=1)
    out = format_json(rep)
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bb8f7f026cfd534a8888c75edb1274324855e0985eed1c58b3bdbf66a43fdbf6"
    )
    assert rep.systems
    for system in rep.systems:
        assert verify_system(system) == []


if __name__ == "__main__":
    print("input\tc_bound\tsha256")
    for pair in corpus():
        print("%s\t%s" % (_key(*pair), _digest(*pair)))
