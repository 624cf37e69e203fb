"""Candidate system enumeration and closure solving.

Two closure regimes:

* solve_sn handles expressions with at least one product. Each leaf gets
  a table of choices: its constant family sampled on weights up to
  c_bound, and every descent to u = 0 with its vertical runs, ending
  within +-c_bound (an integer leaf keeps its trivial path regardless).
  Tables combine bottom-up through one glue step on integer state keys:
  the left state (after the rotation transform at a product node) and
  the right state are rescaled to their least common (a, b) and glued.
  Keys are bucketed by (a : b) direction, each with its sheet count
  gcd(a, b), and every pair within a bucket is glued in integers, so
  c_bound is the only bound; slopes.replay re-glues each materialized
  system through transforms.glue_scaled, the reference for it. A
  system closes when the root state carries no net slope weight (c = 0)
  and no leftover slope-infinity edges. A merged table keeps, per
  (state, tau), only back-pointers to the (left state, tau) and (right
  state, tau) pairs that glue to it; tau is an integer numerator over one
  denominator per table (the lcm of the children's, and at a product of
  the tau' denominators too). A witness is built only for the closed
  root entries, by a walk down the back-pointers that keeps the smallest
  descriptor per entry: the one an eager merge keeping only the smallest
  at every node would hold.

* solve_montesinos handles sums of three or more rational tangles. The
  common endpoint abscissa u is one unknown: each leaf contributes either
  its constant family or a partially traversed final edge, v is affine in
  u on each piece, and sum v = 0 is solved exactly piece by piece
  (type I). The type-I walk visits only the prefixes of segment choices
  whose validity intervals overlap; it skips no combination that can
  close. Systems whose paths all reach the u = 0 line close when the
  integer endpoints sum to zero (type II). Their choices are the descents
  alone, ending within +-c_bound; no path travels along u = 0. Such a
  system is counted as a slope when the penultimate-vertex denominators
  y_i satisfy sum 1/y_i <= 1, and is stored flagged as an inessential
  candidate otherwise. Every leaf has at least as many type-I segments
  as descents, so the type-II product is never larger than the full
  type-I one; it is enumerated in full.

Both list one system per distinct (tau, note), the one with the smallest
descriptor, and attach the Seifert reference system (slope 0) when the
normalization exists; no other cap applies. All output is exhaustively
sorted; nothing depends on hash or insertion order, so identical inputs
give identical reports.
"""

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iterproduct
from math import gcd, lcm

from .diagram import WeightState
from .edgepaths import (
    ConstantPath,
    VertexPath,
    constant_path,
    enumerate_paths,
    tau,
    u_zero_paths,
)
from .errors import FamilyCheckFailed, SeifertUndefined, UnsupportedShape
from .slopes import build_system, seifert_system, seifert_tau
from .tangles import (
    Leaf,
    Sum,
    crossing_count,
    family_crossing_count,
    family_index,
    kn,
    render,
)
from .transforms import rotate_reflect

log = logging.getLogger("tangleslopes.solver")

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SlopeReport:
    expr: object
    systems: tuple
    slopes: tuple  # sorted distinct Fractions
    certified: tuple  # slopes carrying the family certification
    diameter: Fraction  # None when no slopes
    crossings: int
    crossing_source: str  # "family-exact" | "diagram-count"
    ratio: Fraction  # None when no slopes
    c_bound: int
    notes: tuple = ()


def default_c_bound(expr):
    """Family expressions get room for their long vertical runs."""
    n = family_index(expr)
    return max(8, n * n + n + 2) if n is not None else 32


def report(expr, systems, slopes, c_bound, notes=()):
    """Aggregate systems and slopes into a SlopeReport."""
    slopes = tuple(sorted(set(slopes)))
    n = family_index(expr)
    if n is not None:
        crossings, source = family_crossing_count(n), "family-exact"
        family = (Fraction(-2 * (n + 1) ** 2 + 4), Fraction(2 * (n + 1) ** 2 - 4))
        certified = tuple(s for s in family if s in slopes)
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
# the product-expression solve (closure at u = 0)


def _statekey(w):
    return (w.a, w.b, w.c, w.n_inf, w.has_zero)


class _Table(dict):
    """State key -> {tau numerator: entry}, every tau over `den`.

    A leaf table's entry is its witness: the (descriptor, assignment) pair
    with the smallest descriptor. A merged table's entries are lists of
    back-pointers (left key, left tau, right key, right tau) into its
    `left` and `right` child tables, each tau a numerator over that
    child's own `den`.
    """

    def __init__(self, den=1, left=None, right=None):
        super().__init__()
        self.den, self.left, self.right = den, left, right


def _leaf_table(leaf, c_bound):
    pq = leaf.fraction
    p, q = pq.numerator, pq.denominator
    table = _Table()

    def add(key, t, path):
        entries = table.setdefault(key, {})
        desc = (path.describe(),)
        if t not in entries or desc < entries[t][0]:
            entries[t] = (desc, (path,))

    for k in range(1, c_bound // abs(p) + 1):
        for a in range(1, k + 1):
            path = ConstantPath(pq, WeightState(a, q * k - a, p * k))
            add(_statekey(path.state.primitive()), 0, path)
    for descent in enumerate_paths(pq):
        # an integer leaf keeps its trivial path whatever the bound
        paths = (descent,) if q == 1 else u_zero_paths(descent, c_bound)
        m, descent_tau = int(descent.vertices[-1]), tau(descent)
        for path in paths:
            # every path ends on the vertex <end>, state (1, 0, end), and
            # each unit step of a run along u = 0 adds -2 times its rise
            end = int(path.vertices[-1])
            add((1, 0, end, 0, False), descent_tau - 2 * (end - m), path)
    return table


def _bucket_by_direction(table):
    """(a : b) direction -> [(key, sheet count gcd(a, b))], keys sorted.

    Keys with a = b = 0 have no direction and glue to nothing
    (common_scaling returns None for them), so they are left out.
    """
    buckets = {}
    for key in sorted(table):
        s = gcd(key[0], key[1])
        if s:
            buckets.setdefault((key[0] // s, key[1] // s), []).append((key, s))
    return buckets


def _scaled_taus(table, den):
    """key -> [(tau numerator over den, own numerator)] for a child table."""
    k = den // table.den
    return {key: [(t * k, t) for t in entries] for key, entries in table.items()}


def _glue_into(out, lw, ls, lkey, lents, rbucket, rtaus):
    """Glue the key lw, of sheet count ls, to every key of its (a : b)
    bucket on the right, and point every (left tau, right tau) pair back
    to (lkey, rkey).

    This is transforms.glue_scaled on integer keys. In a bucket of
    direction (da, db) a key is (s*da, s*db, c, n_inf, has_zero), s its
    sheet count. Both sides go to L = lcm(s1, s2) sheets (multipliers
    k_i = L / s_i), c and n_inf add, has_zero ORs, and the sum is divided
    by g = gcd(L, c, n_inf) to stay primitive. lents and rtaus hold
    (tau over out.den, child's own tau) lists; a product's left taus
    arrive already turned into tau' - tau(left), and its lkey is the
    untransformed left key.
    """
    a, b, c, t, has_zero = lw
    for rkey, rs in rbucket:
        common = lcm(ls, rs)
        k1, k2 = common // ls, common // rs
        gc = c * k1 + rkey[2] * k2
        gt = t * k1 + rkey[3] * k2
        g = gcd(common, gc, gt)
        glued = (a * k1 // g, b * k1 // g, gc // g, gt // g, has_zero or rkey[4])
        entries = out.setdefault(glued, {})
        rents = rtaus[rkey]
        for lt, lback in lents:
            for rt, rback in rents:
                entries.setdefault(lt + rt, []).append((lkey, lback, rkey, rback))


def _merge_sum(left, right):
    out = _Table(lcm(left.den, right.den), left, right)
    lbuckets = _bucket_by_direction(left)
    rbuckets = _bucket_by_direction(right)
    ltaus = _scaled_taus(left, out.den)
    rtaus = _scaled_taus(right, out.den)
    for direction in sorted(set(lbuckets) & set(rbuckets)):
        rbucket = rbuckets[direction]
        for lkey, ls in lbuckets[direction]:
            _glue_into(out, lkey, ls, lkey, ltaus[lkey], rbucket, rtaus)
    return out


def _merge_product(left, right):
    turned = []
    den = lcm(left.den, right.den)
    for lkey in sorted(left):
        if lkey[2] == 0:
            log.debug("product: dropped untransformable c=0 state %r", lkey)
            continue
        outcome = rotate_reflect(WeightState(*lkey), allow_infeasible=True)
        if outcome.feasible:
            turned.append((lkey, outcome))
            den = lcm(den, outcome.tau_prime.denominator)
    out = _Table(den, left, right)
    rbuckets = _bucket_by_direction(right)
    ltaus = _scaled_taus(left, den)
    rtaus = _scaled_taus(right, den)
    for lkey, outcome in turned:
        tw = _statekey(outcome.state)
        ts = gcd(tw[0], tw[1])  # > 0: a feasible rotation output has a + b > 0
        # product twist: -tau(left) + tau' + tau(right)
        tp = outcome.tau_prime
        shift = tp.numerator * (den // tp.denominator)
        lents = [(shift - lt, back) for lt, back in ltaus[lkey]]
        rbucket = rbuckets.get((tw[0] // ts, tw[1] // ts), ())
        _glue_into(out, tw, ts, lkey, lents, rbucket, rtaus)
    return out


def _eval_tables(node, c_bound, memo):
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Leaf):
        result = _leaf_table(node, c_bound)
    else:
        left = _eval_tables(node.left, c_bound, memo)
        right = _eval_tables(node.right, c_bound, memo)
        merge = _merge_sum if isinstance(node, Sum) else _merge_product
        result = merge(left, right)
    memo[id(node)] = result
    return result


def _witnesses(table, key, t, memo):
    """The (descriptor, assignment) pair of one table entry with the
    smallest descriptor.

    A subtree's leaf count is fixed, so a concatenated descriptor sorts as
    the pair (left, right), and the smallest one of an entry joins the
    smallest ones of the child entries it points back to. memo maps
    (table id, key, tau) to the pairs built so far, so an entry reached
    twice, or through a shared subtree, is built once. Recurses once per
    tree level, as deep as _eval_tables does.
    """
    if table.left is None:
        return table[key][t]
    if (id(table), key, t) in memo:
        return memo[id(table), key, t]
    best = None
    for lk, lt, rk, rt in table[key][t]:
        left = _witnesses(table.left, lk, lt, memo)
        right = _witnesses(table.right, rk, rt, memo)
        if best is None or (left[0], right[0]) < (best[0][0], best[1][0]):
            best = left, right
    (ldesc, lassign), (rdesc, rassign) = best
    witness = memo[id(table), key, t] = (ldesc + rdesc, lassign + rassign)
    return witness


def _materialize(expr, grouped, reference):
    """Build one system per (tau, note) group, from the candidate
    (descriptor, assignment) pair with the smallest descriptor."""
    systems = []
    for (_, note), candidates in grouped.items():
        _, assignment = min(candidates, key=lambda c: c[0])
        systems.append(
            build_system(expr, assignment, note=note, reference_tau=reference)
        )
    return systems


def _seifert(expr, notes):
    """The Seifert reference system, or None with the reason in notes."""
    try:
        return seifert_system(expr)
    except SeifertUndefined as exc:
        notes.append(str(exc))
        return None


def _finish(expr, grouped, seifert, slopes, c_bound, notes):
    """Materialize the groups, attach the Seifert reference, and report."""
    reference = seifert.tau if seifert is not None else None
    systems = _materialize(expr, grouped, reference)
    if seifert is not None:
        systems.append(seifert)
        slopes.add(ZERO)
    systems.sort(key=_system_order)
    return report(expr, systems, slopes, c_bound, notes)


def solve_sn(expr, c_bound=None):
    """Enumerate closed systems for an expression with products."""
    if expr.is_montesinos():
        raise UnsupportedShape(
            "expression %s has no product; use solve_montesinos" % render(expr)
        )
    if c_bound is None:
        c_bound = default_c_bound(expr)
    if c_bound < 1:
        raise ValueError("c_bound must be at least 1")
    notes = []
    seifert = _seifert(expr, notes)
    reference = seifert.tau if seifert is not None else None
    table = _eval_tables(expr, c_bound, {})
    closed = {}
    for key, entries in table.items():
        if key[2] == 0 and key[3] == 0:
            for t in entries:
                closed.setdefault(Fraction(t, table.den), []).append((key, t))
    # lazy groups: _materialize draws them, so the root witness build is
    # timed there
    memo = {}
    grouped = {
        (total, ""): (_witnesses(table, key, t, memo) for key, t in entries)
        for total, entries in closed.items()
    }
    slopes = set() if reference is None else {total - reference for total in closed}
    if not grouped:
        notes.append("no closed systems within c_bound=%d" % c_bound)
    return _finish(expr, grouped, seifert, slopes, c_bound, notes)


def _system_order(system):
    return (
        system.slope is None,
        system.slope if system.slope is not None else ZERO,
        system.note,
        system.descriptor(),
    )


# ---------------------------------------------------------------------------
# the Montesinos solve (full piecewise-linear closure)


@dataclass(frozen=True)
class _Segment:
    kind: str  # "const" | "edge"
    prefix: tuple  # vertices through the partial edge (edge segments)
    coeff: Fraction  # v(u) = coeff * u + offset on the validity interval
    offset: Fraction
    lo: Fraction  # valid for lo <= u < hi
    hi: Fraction


def _leaf_segments(pq):
    p, q = pq.numerator, pq.denominator
    segments = [
        _Segment("const", (), ZERO, Fraction(p, q), Fraction(q - 1, q), ONE)
    ]
    seen = set()
    for path in enumerate_paths(pq):
        vs = path.vertices
        for j in range(len(vs) - 1):
            prefix = vs[: j + 2]
            if prefix in seen:
                continue
            seen.add(prefix)
            pj, qj = vs[j].numerator, vs[j].denominator
            pk, qk = vs[j + 1].numerator, vs[j + 1].denominator
            rise = Fraction(pk - pj, qk - qj)
            segments.append(
                _Segment(
                    "edge",
                    prefix,
                    -pj + qj * rise,
                    pj + (1 - qj) * rise,
                    Fraction(qk - 1, qk),
                    Fraction(qj - 1, qj),
                )
            )
    return segments


def _segment_path(pq, segment, u0):
    if segment.kind == "const":
        return constant_path(pq, u=u0)
    vj, vk = segment.prefix[-2], segment.prefix[-1]
    total = 1 / (1 - u0)
    f = (total - vj.denominator) / (vk.denominator - vj.denominator)
    return VertexPath(pq, segment.prefix, final_fraction=f)


def _type_i_candidates(leaves, notes):
    """Solve sum v_i(u) = 0 on every segment combination whose validity
    intervals overlap; yield systems in product order.

    A depth-first walk over the leaves carries each prefix's running
    coeff, offset and interval [lo, hi). Extending a prefix only narrows
    its interval, so a prefix whose interval is empty is dropped together
    with every extension: no combination that can close is skipped.
    """
    per_leaf = [_leaf_segments(l.fraction) for l in leaves]
    stack = [((), ZERO, ZERO, ZERO, ONE)]  # every lo >= 0 and every hi <= 1
    while stack:
        combo, coeff, offset, lo, hi = stack.pop()
        if len(combo) < len(per_leaf):
            # pushed in reverse, so extensions pop in product order
            for s in reversed(per_leaf[len(combo)]):
                slo, shi = max(lo, s.lo), min(hi, s.hi)
                if slo < shi:
                    stack.append(
                        (combo + (s,), coeff + s.coeff, offset + s.offset, slo, shi)
                    )
            continue
        if coeff == 0:
            if offset == 0:
                # the closure holds along the whole interval; only its
                # reachable endpoint is kept, flagged, and not counted
                notes.append(
                    "degenerate closure family on u in [%s, %s) for %s"
                    % (lo, hi, "; ".join(_segment_label(s) for s in combo))
                )
                if lo > 0:
                    yield lo, combo, "degenerate-family-endpoint"
            continue
        u0 = -offset / coeff
        if 0 < u0 and lo <= u0 < hi:  # u = 0 closures belong to the integer solve
            yield u0, combo, ""


def _segment_label(segment):
    if segment.kind == "const":
        return "const %s" % segment.offset
    return "edge to %s" % segment.prefix[-1]


def _type_ii_options(pq, c_bound):
    """(descent, endpoint m, y) for each descent of a leaf ending within
    +-c_bound; y is the denominator of its penultimate vertex."""
    options = []
    for descent in enumerate_paths(pq):
        vs = descent.vertices
        m = int(vs[-1])
        if abs(m) <= c_bound:
            options.append((descent, m, vs[-2].denominator if len(vs) > 1 else 1))
    return options


def solve_montesinos(expr, c_bound=None):
    """Full closure solve for a sum of three or more rational tangles."""
    if not expr.is_montesinos():
        raise UnsupportedShape(
            "expression %s contains a product; use solve_sn" % render(expr)
        )
    leaves = list(expr.leaves())
    if len(leaves) < 3:
        raise UnsupportedShape(
            "need at least 3 rational tangles, got %d (two-bridge closures"
            " are out of scope)" % len(leaves)
        )
    if c_bound is None:
        c_bound = default_c_bound(expr)
    if c_bound < 1:
        raise ValueError("c_bound must be at least 1")
    notes = []
    seifert = _seifert(expr, notes)
    reference = seifert.tau if seifert is not None else None

    grouped = {}
    slopes = set()

    def stage(assignment, note, counted):
        total = sum((tau(p) for p in assignment), ZERO)
        if counted and reference is not None:
            slopes.add(total - reference)
        desc = tuple(p.describe() for p in assignment)
        grouped.setdefault((total, note), []).append((desc, tuple(assignment)))

    for u0, combo, note in _type_i_candidates(leaves, notes):
        assignment = [
            _segment_path(l.fraction, s, u0) for l, s in zip(leaves, combo)
        ]
        stage(assignment, note, counted=(note == ""))

    per_leaf = [_type_ii_options(l.fraction, c_bound) for l in leaves]
    for combo in iterproduct(*per_leaf):
        if sum(m for _, m, _ in combo) != 0:
            continue
        essential = sum(Fraction(1, y) for _, _, y in combo) <= 1
        stage(
            [path for path, _, _ in combo],
            "" if essential else "inessential-candidate",
            counted=essential,
        )

    if not grouped:
        notes.append("no closed systems within c_bound=%d" % c_bound)
    return _finish(expr, grouped, seifert, slopes, c_bound, sorted(set(notes)))


def solve(expr, c_bound=None):
    """Dispatch on expression shape."""
    if expr.is_montesinos():
        return solve_montesinos(expr, c_bound)
    return solve_sn(expr, c_bound)


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
    climb = tuple(Fraction(1, q) for q in range(n + 1, 0, -1)) + tuple(
        Fraction(m) for m in range(2, nn + 1)
    )
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
