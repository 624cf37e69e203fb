"""Candidate system enumeration and closure solving.

One pipeline, _solve, serves both engines: it builds the Seifert
reference system S0, runs the engine's search and reports. c_bound
(default_c_bound unless given, at least 1) bounds the SN search alone.

A leaf's analysis depends on its fraction alone, or on (fraction,
c_bound), never on the expression around it. So each is built once per
process and kept in a bounded memo (functools.lru_cache, LEAF_MEMO_SIZE
entries): its descents (edgepaths.leaf_descents), its Seifert path and
leaf trace (slopes), its type-I segments (_leaf_segments) and each
descent's u = 0 pick and order (_type_ii_options), and per c_bound its
SN key table (_leaf_table). Each search still asks for them once per
leaf; no reader mutates what the memo holds.

The engines live in their own modules, each described by its docstring:
sn (solve_sn, the SN passes) and montesinos (solve_montesinos, the
type-I merge).

A search yields (tau, note, order, build) per candidate and builds no
path; order is the SN rank or the flat descriptor tuple. _solve keeps the
least order per (tau, note), plus S0 (slope 0) when the normalization
exists. Only a kept candidate's build() makes its leaf picks (key, tau,
path), and _materialize derives every node's trace from them in integers
(_glue, _turn), one per subtree label and leaf paths. The systems are
listed by (slope, note, order), a slope as an int over the common
denominator, each key computed once. The report's slopes are read off the
listed systems in that order: the slope tau - tau(S0) of each with an
empty note, plus S0's 0, equal slopes told apart by their int keys, so no
Fraction is hashed or sorted. slopes.verify_system, by replay, is
the independent check; the solve does not call it. Nothing depends on hash
order: the SN passes visit keys in set and dict order, but each minimum
they keep is unique, as an order names one (key, tau) or system; the
Montesinos merge reads its dicts in insertion order; and the listing sorts.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import lcm
from operator import itemgetter

from .diagram import WeightState
from .edgepaths import ConstantPath, VertexPath
from .errors import FamilyCheckFailed, SeifertUndefined, UnsupportedShape
from .montesinos import _montesinos_candidates
from .slopes import CandidateSystem, NodeTrace, build_system, seifert_system, seifert_tau
from .sn import _glue, _sn_candidates, _turn
from .tangles import (
    Leaf,
    Product,
    Sum,
    crossing_count,
    family_crossing_count,
    family_index,
    kn,
    node_labels,
    render,
)

# bench/tracer.py looks these engine stages up on this module by name and
# wraps the same objects in sn and montesinos, where the engines call them
from .montesinos import _leaf_segments, _segment_path, _type_i_candidates, _type_ii_options
from .sn import _leaf_table, _merge_product, _merge_sum

ZERO = Fraction(0)


class SlopeReport(namedtuple("SlopeReport", (
    "expr",
    "systems",
    "slopes",  # sorted distinct Fractions
    "certified",  # slopes carrying the family certification
    "diameter",  # None when no slopes
    "crossings",
    "crossing_source",  # "family-exact" | "diagram-count"
    "ratio",  # None when no slopes
    "c_bound",  # None for a sum: its solve takes no bound
    "notes",
), defaults=((),))):
    __slots__ = ()


def default_c_bound(expr):
    """Family expressions get room for their long vertical runs."""
    return _family_c_bound(family_index(expr))


def _family_c_bound(n):
    # default_c_bound of an expression whose family index is n
    return n * n + n + 2 if n is not None else 32


def report(expr, n, systems, slopes, c_bound, notes=()):
    """Aggregate systems and slopes into a SlopeReport.

    n is expr's family index (tangles.family_index), None outside the
    family; the slopes arrive sorted and distinct.
    """
    slopes = tuple(slopes)
    if n is not None:
        crossings, source = family_crossing_count(n), "family-exact"
        # the family's slopes -+(2(n + 1)^2 - 4), found by an int test
        extreme = 2 * (n + 1) ** 2 - 4
        certified = tuple(s for s in slopes if s.denominator == 1 and abs(s.numerator) == extreme)
    else:
        crossings, source = crossing_count(expr), "diagram-count"
        certified = ()
    diameter = slopes[-1] - slopes[0] if slopes else None
    ratio = diameter / crossings if diameter is not None else None
    return SlopeReport(
        expr,
        tuple(systems),
        slopes,
        certified,
        diameter,
        crossings,
        source,
        ratio,
        c_bound,
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# the solve both engines share


def _check_c_bound(c_bound):
    if type(c_bound) is not int:
        raise TypeError("c_bound must be an int, got %r" % (c_bound,))
    if c_bound < 1:
        raise ValueError("c_bound must be at least 1")
    return c_bound


def _solve(expr, n, c_bound, search):
    """Solve expr, of family index n, by the engine search search(notes);
    see the module docstring."""
    notes = []
    try:
        seifert = seifert_system(expr)
    except SeifertUndefined as exc:
        notes.append(str(exc))
        seifert = None
    reference = seifert.tau if seifert is not None else None
    grouped = {}  # (tau, note) -> the (order, build) of least order
    for t, note, order, build in search(notes):
        kept = grouped.get((t, note))
        if kept is None or order < kept[0]:
            grouped[t, note] = order, build
    if not grouped:
        notes.append("no closed systems" + (" within c_bound=%d" % c_bound if c_bound is not None else ""))
    systems = _materialize(expr, grouped, reference)
    if seifert is not None:
        systems.append((None, seifert))  # its own note: order never compared
    scale = lcm(*(s.slope.denominator for _, s in systems if s.slope is not None))
    listed = []
    for order, system in systems:
        slope = system.slope or ZERO  # None without S0
        listed.append(((slope.numerator * scale // slope.denominator, system.note, order), system))
    listed.sort(key=itemgetter(0))
    # S0's 0 and the slope of each system with an empty note, each once:
    # the listing puts equal slopes next to each other
    slopes, last = [], None
    if seifert is not None:
        for (key, note, _), system in listed:
            if key != last and (not note or system is seifert):
                slopes.append(system.slope)
                last = key
    return report(expr, n, [s for _, s in listed], slopes, c_bound, sorted(set(notes)))


class _States(dict):
    """key -> WeightState(*key), each built once: the systems of one solve
    share few distinct states."""

    def __missing__(self, key):
        state = self[key] = WeightState(*key)
        return state


def _system(expr, shape, picks, note, reference, states, shared):
    """The CandidateSystem of one assignment, from its leaf picks.

    shape is the expression's (node kind, label) pairs in preorder, walked
    backwards: each node after its subtree, the leaves right to left, each
    subtree's (key, tau) left on a stack, the left one on top. The systems
    of one solve share records: states builds each WeightState once, and
    shared each node's (trace, (key, tau)), per (label, id(path)) at a leaf,
    whose path fixes its key and tau, and per (label, ids of its two
    (key, tau)) at a merge: equal subtrees over the same paths share one.
    """
    nodes = [None] * len(shape)
    done = []
    leaf = len(picks)
    for i in range(len(shape) - 1, -1, -1):
        kind, label = shape[i]
        if kind == "leaf":
            leaf -= 1
            key, t, path = picks[leaf]
            built = shared.get((label, id(path)))
            if built is None:
                built = shared[label, id(path)] = NodeTrace(label, kind, states[key], t), (key, t)
        else:
            left, right = done.pop(), done.pop()
            built = shared.get((label, id(left), id(right)))
            if built is None:
                (lkey, lt), (rkey, rt) = left, right
                if kind == "product":
                    turned, tau_prime = _turn(lkey)
                    key, scales = _glue(turned, rkey)
                    t = tau_prime - lt + rt
                    trace = NodeTrace(label, kind, states[key], t, scales, 1, lkey[0], tau_prime,
                                      states[turned])
                else:
                    key, scales = _glue(lkey, rkey)
                    t = lt + rt
                    trace = NodeTrace(label, kind, states[key], t, scales)
                built = shared[label, id(left), id(right)] = trace, (key, t)
        nodes[i] = built[0]
        done.append(built[1])
    [(key, total)] = done
    slope = total - reference if reference is not None else None
    paths = tuple(path for _, _, path in picks)
    return CandidateSystem(expr, paths, tuple(nodes), states[key], total, slope, note)


def _materialize(expr, grouped, reference):
    """(order, system) per (tau, note) group, from its kept (order,
    build) pair; build() gives the leaf picks, left to right."""
    kinds = {Leaf: "leaf", Sum: "sum", Product: "product"}
    shape = [
        (kinds[type(node)], label)
        for node, label in zip(expr.nodes(), node_labels(expr))
    ]
    states, shared = _States(), {}
    return [
        (order, _system(expr, shape, build(), note, reference, states, shared))
        for (_, note), (order, build) in grouped.items()
    ]


def solve_sn(expr, c_bound=None):
    """Enumerate closed systems for an expression with products."""
    if expr.is_montesinos():
        raise UnsupportedShape(
            "expression %s has no product; use solve_montesinos" % render(expr)
        )
    n = family_index(expr)
    c_bound = _family_c_bound(n) if c_bound is None else _check_c_bound(c_bound)
    return _solve(expr, n, c_bound, partial(_sn_candidates, expr, c_bound))


def solve_montesinos(expr):
    """Full closure solve for a sum of three or more rational tangles."""
    if not expr.is_montesinos():
        raise UnsupportedShape(
            "expression %s contains a product; use solve_sn" % render(expr)
        )
    count = sum(1 for _ in expr.leaves())
    if count < 3:
        raise UnsupportedShape(
            "need at least 3 rational tangles, got %d (two-bridge closures"
            " are out of scope)" % count
        )
    # a sum is never a family knot, whose root is a product
    return _solve(expr, None, None, partial(_montesinos_candidates, expr))


def solve(expr, c_bound=None):
    """Dispatch on shape; a given c_bound is checked, but only solve_sn reads it."""
    if c_bound is not None:
        _check_c_bound(c_bound)
    return solve_montesinos(expr) if expr.is_montesinos() else solve_sn(expr, c_bound)


# ---------------------------------------------------------------------------
# the distinguished family system


def family_nodes(system):
    """(root, left sum, left leaves, right sum) of a kn(n) system's trace.

    The trace is preorder over (L1 + L2) o (R1 + R2): root, left sum, L1,
    L2, right sum, R1, R2.
    """
    root, lsum, l1, l2, rsum = system.nodes[:5]
    return root, lsum, (l1, l2), rsum


def kn_system(n):
    """The published closed system for the n-th family knot, fully checked.

    Builds the exact edgepaths (two constant paths on the left factor, the
    short and the long descending-then-climbing path on the right), replays
    them, and checks every intermediate value before returning.
    """
    expr = kn(n)
    nn = n * n + n
    lneg = ConstantPath(Fraction(-1, n), WeightState(1, nn - 1, -(n + 1)))
    lpos = ConstantPath(Fraction(1, n + 1), WeightState(1, nn - 1, n))
    short = VertexPath(Fraction(-1, n), (Fraction(-1, n), ZERO))
    climb = tuple(Fraction(1, q) for q in range(n + 1, 0, -1)) + tuple(range(2, nn + 1))
    long = VertexPath(Fraction(1, n + 1), climb)
    reference = seifert_tau(expr)
    system = build_system(expr, (lneg, lpos, short, long), reference_tau=reference)
    root, lsum, lleaves, rsum = family_nodes(system)
    checks = (
        ("left leaf triples", tuple(leaf.state for leaf in lleaves),
         (WeightState(1, nn - 1, -(n + 1)), WeightState(1, nn - 1, n))),
        ("left glued state", lsum.state, WeightState(1, nn - 1, -1)),
        ("left tau", lsum.tau, ZERO),
        ("transformed state", root.transformed, WeightState(1, 0, -nn)),
        ("tau prime", root.tau_prime, Fraction(2)),
        ("right tau", rsum.tau, Fraction(-2 * (n * n + 2 * n))),
        ("system tau", root.tau, Fraction(-2 * (n + 1) ** 2 + 4)),
        ("reference tau", reference, ZERO),
        ("closure", system.closure, WeightState(1, 0, 0)),
        ("slope", system.slope, Fraction(-2 * (n + 1) ** 2 + 4)),
    )
    for name, got, expected in checks:
        if got != expected:
            raise FamilyCheckFailed(
                "family system check '%s' failed: %r != %r" % (name, got, expected)
            )
    return system
