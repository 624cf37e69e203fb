"""`cli.format_json` against `json.dumps(report_dict(rep), indent=2)`.

`format_json` writes report text from per-record templates; it must give
exactly the text `json.dumps` gives for `reference.report_dict(rep)`, plus
a newline, on every Python version. `report_dict`, built field by field
from the records, and `json.dumps` are the reference here; the CLI's
`report_document` reads the dict back from `format_json`'s text. Solved
reports give the writer shared records and realistic shapes; strings put
into their notes and node labels with the records' `_replace` keep
escaping covered, and a non-string put in any of those slots must raise
`TypeError`.
"""

import json
import random
from fractions import Fraction
from itertools import cycle
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleslopes import WeightState, parse, solve
from tangleslopes.cli import format_json, report_document
from reference import report_dict
from test_golden import GOLDEN, _expr


def _reference(rep):
    return json.dumps(report_dict(rep), indent=2) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII, astral and
# lone surrogate code points, plus anything hypothesis draws
_tricky = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∞", " ", "😀", "\ud800", "/"]
)
_text = st.lists(st.one_of(_tricky, st.text(max_size=4)), max_size=5).map("".join)


def _relabel(rep, strings):
    """rep with its notes, crossing source, system notes and node labels
    drawn in turn from `strings`; a node shared between systems stays
    shared, so the writer's per-record reuse sees the new labels."""
    text = cycle(strings)
    nodes = {}

    def node(n):
        if id(n) not in nodes:
            nodes[id(n)] = n._replace(label=next(text))
        return nodes[id(n)]

    systems = tuple(
        s._replace(note=next(text), nodes=tuple(node(n) for n in s.nodes)) for s in rep.systems
    )
    notes = tuple(next(text) for _ in range(len(rep.notes) + 1))
    return rep._replace(systems=systems, notes=notes, crossing_source=next(text))


def test_writer_on_fixed_edge_cases():
    rep = solve(parse("-1/2 + 1/3 + 1/5"), c_bound=4)
    # no systems and no notes: empty arrays
    bare = rep._replace(systems=(), notes=(), slopes=(), certified=(), diameter=None, ratio=None)
    assert '"systems": []\n}\n' in format_json(bare)
    # a state with slope-infinity and slope-0 edges, which no solve builds,
    # as a closure and as a node state
    odd = WeightState(2, 3, -5, 4, True)
    system = rep.systems[0]
    system = system._replace(closure=odd, nodes=(system.nodes[0]._replace(state=odd),))
    for case in (bare, rep._replace(systems=(system,)), _relabel(rep, ['"\\\x01é😀\ud800'])):
        assert format_json(case) == _reference(case)
    assert '"has_zero": true' in format_json(rep._replace(systems=(system,)))
    # bools in a node's case_id and m and in a state's ints, and a has_zero
    # that is not a bool, which no solve builds either: json writes true,
    # not True, and a has_zero of 1 as 1
    node, plain = rep.systems[0].nodes[0], WeightState(1, 0, 0)
    built = [
        dict(case_id=True), dict(m=False), dict(case_id=True, m=True, transformed=plain),
        dict(state=WeightState(True, False, -5, True, 1)), dict(state=WeightState(2, 3, -5, 0, 0)),
        dict(state=WeightState(2, 3, -5, 0, None), transformed=WeightState(1, 0, 0, 0, 1)),
    ]
    for fields in built:
        for closure in (plain, fields.get("state", plain)):
            case = rep._replace(systems=(rep.systems[0]._replace(
                closure=closure, nodes=(node._replace(**fields),) + rep.systems[0].nodes[1:]),))
            text = format_json(case)
            assert text == _reference(case), fields
            assert json.loads(text) == report_dict(case), fields


def test_writer_templates_follow_the_values_not_the_kind():
    # format_json writes a node whose last four fields hold a leaf's or a
    # sum's defaults from a template with those written in, and each state,
    # path and vertex tuple once per call: records built against both
    rep = solve(parse("(1/2 + 1/3) o 1/4"))
    system = rep.systems[0]
    root, total, first, second, third = system.nodes
    assert (root.kind, total.kind, first.kind) == ("product", "sum", "leaf")
    state = WeightState(3, 4, -5)
    # values equal to a default but not the default itself: 0.0 for an
    # int 0, a tau' of 0 for None
    changed = [dict(case_id=2), dict(m=-3), dict(tau_prime=Fraction(1, 2)), dict(transformed=state),
               dict(case_id=0.0), dict(m=0.0), dict(tau_prime=0), dict(case_id=2, m=0.0)]
    defaults = dict(case_id=0, m=0, tau_prime=None, transformed=None)
    systems = [
        system._replace(nodes=(root, total._replace(**fields), first._replace(**fields), second,
                               third))
        for fields in changed
    ]
    # a product node holding all the defaults
    systems.append(system._replace(nodes=(root._replace(**defaults),) + system.nodes[1:]))
    # one WeightState as a node state, a transformed state and the closure
    shared = (root._replace(transformed=state), total._replace(state=state)) + system.nodes[2:]
    systems.append(system._replace(closure=state, nodes=shared))
    # one vertex tuple under two paths with different final fractions, and
    # one path under two systems
    path = system.assignment[2]
    other = path._replace(final_fraction=Fraction(1, 2))
    assert other.vertices is path.vertices
    systems.append(system._replace(assignment=(path, other, path)))
    systems.append(system._replace(assignment=(other,) + system.assignment[1:]))
    case = rep._replace(systems=tuple(systems))
    assert format_json(case) == _reference(case)
    # and each built record on its own, where it is the first of its kind
    for built in systems:
        case = rep._replace(systems=(built,))
        assert format_json(case) == _reference(case)


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
    # every string slot of a report (a note, the crossing source, a system
    # note, a node label or kind) must hold a str; a writer that formats
    # the value with %s would print 1.5 or 1/2 unquoted, and Fraction(0)
    # or an empty tuple or set as 0, () or set()
    rep = solve(parse("-1/2 + 1/3 + 1/5"), c_bound=4)
    system = rep.systems[0]
    # a node written from the template with a sum's defaults, and one that
    # is not
    nodes = system.nodes[0], system.nodes[0]._replace(case_id=1, m=2)
    cases = [
        rep._replace(notes=(value,)),
        rep._replace(crossing_source=value),
        rep._replace(systems=(system._replace(note=value),)),
    ] + [
        rep._replace(systems=(system._replace(nodes=(node._replace(**{field: value}),)),))
        for node in nodes
        for field in ("label", "kind")
    ]
    for case in cases:
        with pytest.raises(TypeError):
            format_json(case)


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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.lists(_text, min_size=1, max_size=8))
def test_writer_matches_json_dumps(rng, product, strings):
    # a 3-5-leaf sum or a product of 2-3 factors, as in the sweep below
    text = _product_input(rng) if product else _sum_input(rng)
    rep = _relabel(solve(parse(text), c_bound=4), strings)
    assert format_json(rep) == _reference(rep)


_rng = random.Random(20261018)
SWEEP = [(_sum_input(_rng), 4) for _ in range(20)] + [(_product_input(_rng), 4) for _ in range(10)]
# every test_golden input, the 500-factor chain of its deep-product pin
# included, and a leaf whose descent passes all 1200 vertices 1/k
DEEP = " o ".join(["1/3"] * 500)
CORPUS = [(text, c_bound) for text, c_bound, _ in GOLDEN] + [(DEEP, 1), ("1/1200 + 1/3 + 1/5", 2)] + SWEEP


@pytest.mark.parametrize(
    "text, c_bound", CORPUS, ids=["1/3 o ... o 1/3" if c[0] == DEEP else c[0] for c in CORPUS]
)
def test_format_json_is_json_dumps_on_reports(text, c_bound):
    rep = solve(_expr(text), c_bound=c_bound)
    written = format_json(rep)
    assert written == _reference(rep)
    assert report_document(rep) == report_dict(rep)


def test_null_diameter_and_ratio_reach_the_writer():
    # a golden input: no even-denominator tangle, so no normalization and
    # null diameter and ratio
    rep = solve(parse("2 + 1/3 + 1/7"))
    doc = report_dict(rep)
    assert doc["slopes"] == [] and doc["diameter"] is None and doc["ratio"] is None
    assert '"diameter": null,\n  "ratio": null,' in format_json(rep)
