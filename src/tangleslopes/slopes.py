"""Twist numbers, Seifert normalization, and candidate-system records.

The twist number tau of a glued surface follows the expression tree:

    sum:     tau = tau(left) + tau(right)
    product: tau = -tau(left) + tau'(left) + tau(right)

where tau' comes from the rotation transform applied to the left operand.
A candidate's boundary slope is tau(S) - tau(S0), with S0 the Seifert
surface. tau(S0) is assembled from one reference edgepath per rational
tangle and summed over the maximal Montesinos factors with a sign per
reflection parity. The reference edgepath is one of the descents that
edgepaths.leaf_descents walks once per fraction per process, the tuple
both engines read: the one that spells the even-entry continued
fraction. It depends on p/q alone, so each fraction's path and leaf
trace are built once per process too, and seifert_tau, which
verify_system calls per system, walks no descent again. The
construction needs an even-denominator tangle in every factor; otherwise
the normalization is reported as unavailable.

CandidateSystem records one closed surface: the per-leaf edgepaths, a
trace of every node's glued state and twist number, the root state, and
the slope. The solver builds each listed system's trace from its own
integer data. `replay` is the checker: it recomputes the trace from the
assignment alone, through transforms.rotate_reflect and glue_scaled, and
`verify_system` compares the two. `build_system` assembles a system by
replay; the hand-built family system (solver.kn_system) uses it.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .edgepaths import (
    LEAF_MEMO_SIZE,
    VertexPath,
    end_weights,
    endpoint_state,
    leaf_descents,
    tau,
    validate,
)
from .errors import MismatchedWeights, SeifertUndefined, TangleSlopesError
from .tangles import Leaf, Product, montesinos_factors, node_labels, render
from .transforms import glue_scaled, rotate_reflect

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Seifert reference edgepaths


def seifert_leaf_path(pq):
    """Reference edgepath for one rational tangle, picked from its
    descents, leaf_descents(pq).

    Every continued fraction of p/q with entries of absolute value at
    least 2 is a descent (Hatcher-Thurston, Invent. Math. 79, 1985), the
    even one included: the descent whose odd-denominator vertices all
    have the parity of its integer end m. One descent qualifies for q odd
    and two for q even; of those two the end nearer p/q is taken,
    |p - m*q| in ints, the even m on the q = 2 tie. An odd integer tangle
    steps to its even neighbour; the remainder +-1 has no even expansion.
    """
    p, q = pq.numerator, pq.denominator
    if q == 1 and p % 2:
        return VertexPath(pq, (pq, Fraction(p - 1 if p > 0 else p + 1)))

    def even(descent):
        m = descent.vertices[-1].numerator
        return all((v.numerator - m) % 2 == 0 for v in descent.vertices if v.denominator % 2)

    def distance(descent):
        m = descent.vertices[-1].numerator
        return abs(p - m * q), m % 2

    return min(filter(even, leaf_descents(pq)), key=distance)


def seifert_tau(expr):
    """tau of the Seifert surface: signed sum over Montesinos factors."""
    return seifert_system(expr).tau


# ---------------------------------------------------------------------------
# candidate systems


class NodeTrace(namedtuple("NodeTrace", (
    "label",
    "kind",  # leaf | sum | product
    "state",
    "tau",
    "scales",
    "case_id",
    "m",
    "tau_prime",
    "transformed",
), defaults=((1, 1), 0, 0, None, None))):
    __slots__ = ()


class CandidateSystem(namedtuple("CandidateSystem", (
    "expr",
    "assignment",  # one edgepath per leaf, left to right
    "nodes",  # NodeTrace per expression node, preorder
    "closure",  # root glued WeightState; None for reference systems
    "tau",
    "slope",  # None when normalization is unavailable
    "note",
), defaults=("",))):
    __slots__ = ()


def replay(expr, paths):
    """Recompute node traces for an assignment; returns (nodes, state, tau).

    Deterministic: gluing always uses the least common (a, b) rescaling, and
    every glued state is reduced to primitive weights. Raises UndefinedCase,
    CasePreconditionViolated, Infeasible, or MismatchedWeights when the
    assignment does not combine.
    """
    paths = tuple(paths)
    want = sum(1 for _ in expr.leaves())
    if len(paths) != want:
        raise ValueError("expected %d paths, got %d" % (want, len(paths)))
    labels = node_labels(expr)  # preorder, as visit appends
    nodes = []
    cursor = [0]

    def visit(node):
        idx = len(nodes)
        nodes.append(None)
        if isinstance(node, Leaf):
            path = paths[cursor[0]]
            cursor[0] += 1
            st, t = end_weights(path), tau(path)
            nodes[idx] = NodeTrace(labels[idx], "leaf", st, t)
            return st, t
        ls, lt = visit(node.left)
        rs, rt = visit(node.right)
        outcome = None
        if isinstance(node, Product):
            outcome = rotate_reflect(ls)
            ls, lt = outcome.state, outcome.tau_prime - lt
        glued = glue_scaled(ls, rs)
        if glued is None:
            raise MismatchedWeights(
                "states %r and %r admit no common (a, b) scaling" % (ls, rs)
            )
        st, ks = glued
        t = lt + rt
        if outcome is None:
            nodes[idx] = NodeTrace(labels[idx], "sum", st, t, scales=ks)
        else:
            nodes[idx] = NodeTrace(
                labels[idx],
                "product",
                st,
                t,
                scales=ks,
                case_id=outcome.case_id,
                m=outcome.m,
                tau_prime=outcome.tau_prime,
                transformed=outcome.state,
            )
        return st, t

    state, total = visit(expr)
    return tuple(nodes), state, total


def build_system(expr, paths, reference_tau=None):
    """Assemble a CandidateSystem from a leaf-path assignment."""
    nodes, state, total = replay(expr, paths)
    slope = total - reference_tau if reference_tau is not None else None
    return CandidateSystem(expr, tuple(paths), nodes, state, total, slope)


@lru_cache(maxsize=LEAF_MEMO_SIZE)
def _seifert_leaf(pq):
    """(seifert_leaf_path(pq), its leaf NodeTrace), built once per process."""
    path = seifert_leaf_path(pq)
    return path, NodeTrace(str(pq), "leaf", endpoint_state(path), tau(path))


def seifert_system(expr):
    """The Seifert reference as a stored system: slope 0 by definition.

    Its edgepaths are per-factor reference paths, not a closed system in the
    gluing calculus, so the closure slot is empty and replay does not apply.
    Each leaf's path and trace come from the per-fraction memo.
    """
    reference = ZERO
    paths = []
    nodes = []
    for factor, parity in montesinos_factors(expr):
        leaves = list(factor.leaves())
        if not any(l.fraction.denominator % 2 == 0 for l in leaves):
            raise SeifertUndefined(
                "slope normalization unavailable: factor %s has no "
                "even-denominator tangle" % render(factor)
            )
        sign = -1 if parity % 2 else 1
        for leaf in leaves:
            path, trace = _seifert_leaf(leaf.fraction)
            paths.append(path)
            nodes.append(trace)
            reference += sign * trace.tau
    return CandidateSystem(
        expr, tuple(paths), tuple(nodes), None, reference, ZERO, "seifert-reference"
    )


def verify_system(system):
    """Re-derive everything a stored system claims; return found problems.
    A path that fails validate is not replayed; a failed replay is one problem."""
    problems = []
    leaves = list(system.expr.leaves())
    if len(system.assignment) != len(leaves):
        return ["assignment covers %d of %d leaves" % (len(system.assignment), len(leaves))]
    for leaf, path in zip(leaves, system.assignment):
        if path.tangle != leaf.fraction:
            problems.append("path for %s carries tangle %s" % (leaf, path.tangle))
        problems.extend("%s: %s" % (leaf, v) for v in validate(path))
    if system.note == "seifert-reference":
        try:
            reference = seifert_tau(system.expr)
        except SeifertUndefined as exc:
            return problems + [str(exc)]
        if system.tau != reference:
            problems.append("reference tau %s != %s" % (system.tau, reference))
        if system.slope != 0:
            problems.append("reference slope %s != 0" % (system.slope,))
        return problems
    if problems:
        return problems
    try:
        nodes, state, total = replay(system.expr, system.assignment)
    except TangleSlopesError as exc:
        return ["replay failed: %s" % exc]
    if nodes != system.nodes:
        problems.append("node trace differs on replay")
    if state != system.closure:
        problems.append("closure state %r != replayed %r" % (system.closure, state))
    if total != system.tau:
        problems.append("tau %s != replayed %s" % (system.tau, total))
    if state.c != 0 or state.n_inf != 0:
        problems.append("root state %r is not closed" % (state,))
    try:
        slope = total - seifert_tau(system.expr)
    except SeifertUndefined:
        slope = None
    if slope != system.slope:
        problems.append("slope %s != recomputed %s" % (system.slope, slope))
    return problems
