"""Twist numbers, Seifert normalization, and candidate-system records.

The twist number tau of a glued surface follows the expression tree:

    sum:     tau = tau(left) + tau(right)
    product: tau = -tau(left) + tau'(left) + tau(right)

where tau' comes from the rotation transform applied to the left operand.
A candidate's boundary slope is tau(S) - tau(S0), with S0 the Seifert
surface. tau(S0) is assembled from one reference edgepath per rational
tangle, built from the even-entry continued fraction of its fraction, and
summed over the maximal Montesinos factors with a sign per reflection
parity. The construction needs an even-denominator tangle in every factor;
otherwise the normalization is reported as unavailable.

CandidateSystem records one closed surface: the per-leaf edgepaths, a
trace of every node's glued state and twist number, the root state, and
the slope. `replay` recomputes the trace from the assignment alone, so a
stored system can be verified independently (`verify_system`).
"""

from dataclasses import dataclass
from fractions import Fraction

from .diagram import WeightState
from .edgepaths import VertexPath, end_weights, endpoint_state, tau, validate
from .errors import Infeasible, MismatchedWeights, SeifertUndefined, UndefinedCase
from .tangles import Leaf, Product, montesinos_factors, node_labels, render
from .transforms import glue_scaled, rotate_reflect

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Seifert reference edgepaths


def _anchor(p, q):
    # integer endpoint of the reference path: remainder p/q - r must have
    # even numerator*denominator for the even expansion to exist
    if q == 1:
        if p % 2 == 0:
            return p
        return p - 1 if p > 0 else p + 1
    f, x = p // q, Fraction(p, q)
    if q % 2:
        r1 = f if (f - p) % 2 == 0 else f - 1
        return r1 if x - r1 <= (r1 + 2) - x else r1 + 2
    if x - f < f + 1 - x:
        return f
    if f + 1 - x < x - f:
        return f + 1
    return f if f % 2 == 0 else f + 1  # halfway only for q = 2: even side


def _even_entries(x):
    # continued fraction with even entries; x has even numerator*denominator,
    # so 1/x is never exactly an odd integer and the nearest-even choice is
    # unique with remainder strictly smaller in numerator
    entries = []
    while x:
        y = 1 / x
        b = 2 * round(y / 2)
        entries.append(b)
        x = y - b
    return entries


def seifert_leaf_path(pq):
    """Reference edgepath for one rational tangle, via its even expansion."""
    pq = Fraction(pq)
    r = _anchor(pq.numerator, pq.denominator)
    if pq.denominator == 1:
        # integer tangles step straight to the even neighbour (or sit still);
        # the remainder +-1 has no even expansion
        vertices = (pq,) if pq == r else (pq, Fraction(r))
        return VertexPath(pq, vertices)
    entries = _even_entries(pq - r)
    vertices = [Fraction(r)]
    for j in range(1, len(entries) + 1):
        value = Fraction(entries[j - 1])
        for b in reversed(entries[: j - 1]):
            value = b + 1 / value
        vertices.append(r + 1 / value)
    return VertexPath(pq, tuple(reversed(vertices)))


def seifert_tau(expr):
    """tau of the Seifert surface: signed sum over Montesinos factors."""
    total = ZERO
    for factor, parity in montesinos_factors(expr):
        leaves = list(factor.leaves())
        if not any(l.fraction.denominator % 2 == 0 for l in leaves):
            raise SeifertUndefined(
                "slope normalization unavailable: factor %s has no "
                "even-denominator tangle" % render(factor)
            )
        part = sum((tau(seifert_leaf_path(l.fraction)) for l in leaves), ZERO)
        total += part if parity % 2 == 0 else -part
    return total


# ---------------------------------------------------------------------------
# candidate systems


@dataclass(frozen=True)
class NodeTrace:
    label: str
    kind: str  # leaf | sum | product
    state: WeightState
    tau: Fraction
    scales: tuple = (1, 1)
    case_id: int = 0
    m: int = 0
    tau_prime: Fraction = None
    transformed: WeightState = None


@dataclass(frozen=True)
class CandidateSystem:
    expr: object
    assignment: tuple  # one edgepath per leaf, left to right
    nodes: tuple  # NodeTrace per expression node, preorder
    closure: WeightState  # root glued state; None for reference systems
    tau: Fraction
    slope: Fraction  # None when normalization is unavailable
    note: str = ""

    def descriptor(self):
        """Deterministic sort key for the assignment."""
        return tuple(path.describe() for path in self.assignment)


def replay(expr, paths):
    """Recompute node traces for an assignment; returns (nodes, state, tau).

    Deterministic: gluing always uses the least common (a, b) rescaling, and
    every glued state is reduced to primitive weights. Raises UndefinedCase,
    Infeasible, or MismatchedWeights when the assignment does not combine.
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
    if cursor[0] != len(paths):
        raise ValueError("assignment has %d paths, expression has %d leaves" % (len(paths), cursor[0]))
    return tuple(nodes), state, total


def build_system(expr, paths, note="", reference_tau=None):
    """Assemble a CandidateSystem from a leaf-path assignment."""
    nodes, state, total = replay(expr, paths)
    slope = total - reference_tau if reference_tau is not None else None
    return CandidateSystem(expr, tuple(paths), nodes, state, total, slope, note)


def seifert_system(expr):
    """The Seifert reference as a stored system: slope 0 by definition.

    Its edgepaths are per-factor reference paths, not a closed system in the
    gluing calculus, so the closure slot is empty and replay does not apply.
    """
    reference = seifert_tau(expr)
    paths = []
    nodes = []
    for leaf in expr.leaves():
        path = seifert_leaf_path(leaf.fraction)
        paths.append(path)
        nodes.append(
            NodeTrace(render(leaf), "leaf", endpoint_state(path), tau(path))
        )
    return CandidateSystem(
        expr, tuple(paths), tuple(nodes), None, reference, ZERO, "seifert-reference"
    )


def verify_system(system):
    """Re-derive everything a stored system claims; return found problems."""
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
    try:
        nodes, state, total = replay(system.expr, system.assignment)
    except (UndefinedCase, Infeasible, MismatchedWeights) as exc:
        return problems + ["replay failed: %s" % exc]
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
