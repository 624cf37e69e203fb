"""Candidate system enumeration and closure solving.

Two closure regimes:

* solve_sn handles expressions with at least one product. It makes three
  passes over the distinct nodes of the expression; a subtree object
  shared by several parents, as in kn(n), is one node. Every state key is
  a primitive triple (a, b, c): a leaf state has no slope-0 or
  slope-infinity boundary edges, a glue adds none, and the rotation of
  such a state is case 1 of transforms.rotate_reflect, which adds none
  either and has tau' = -2 or +2. So every tau is an integer.

  1. Key pass, bottom-up, integers only. A leaf's keys are the primitive
     states of its constant family, (a, q*k - a, p*k) with
     1 <= a <= k <= c_bound // |p| and gcd(a, k) = 1, and the vertices
     <m> that end its descents and their vertical runs within +-c_bound
     (an integer leaf keeps its trivial path regardless). A merge glues
     the left key (after the rotation transform at a product node) to
     each right key of the same (a : b) direction: both are rescaled to
     their least common (a, b) and added, in integers, so c_bound is the
     only bound. Each glued key records the (left key, right key) pairs
     behind it. The root glues only pairs that close, leaving no net
     slope weight (c = 0). That holds exactly when the two per-sheet c
     are negatives of each other, so the root indexes its right operand
     by direction and reduced per-sheet c, and each left key looks up its
     negated class.
  2. Demand pass, top-down. The root demands all its keys, which are the
     closed ones. Each merge adds the left and right keys of the pairs
     behind its demanded keys to its children's demand, after all of its
     own parents have added theirs.
  3. Tau pass, bottom-up, demanded keys only. Each (demanded key, tau)
     keeps one witness: the (descriptor, assignment) pair with the
     smallest descriptor. A leaf picks it among its paths. A merge glues
     the child witnesses of every key pair behind the key, and keeps per
     tau the pair with the smallest (left descriptor, right descriptor),
     joined once.

  The merge's choice is the smallest witness of its entry. A subtree's
  leaf count is fixed, so a joined descriptor sorts as the pair (left,
  right), and the smallest join is that of the smallest child witnesses.
  The entry sees every child pair: the key pass recorded every key pair
  behind a demanded key, and both keys of each pair are demanded in turn.
  This is the argmin that a walk down back-pointers from the closed root
  entries would take, and it builds no witness that walk would not: every
  (demanded key, tau) is glued into some entry of a demanded parent key,
  and every closed root entry is materialized. slopes.replay re-glues
  each materialized system through transforms.glue_scaled, the reference
  for the integer glue.

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
    run_to,
    tau,
    u_zero_ends,
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


def _distinct_nodes(expr):
    """The expression's distinct nodes, each after its children.

    A subtree object shared by several parents is listed once, so reversed
    the list puts every node after all of its parents.
    """
    order, seen, stack = [], set(), [(expr, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            if not isinstance(node, Leaf):
                stack += [(node.right, False), (node.left, False)]
    return order


# key pass: state keys, and the key pairs that glue to each merged key


def _leaf_table(leaf, c_bound):
    """A leaf's primitive state keys, each -> None for a constant, else
    the [(tau, descent, end)] of the paths ending on its vertex <end>.

    The constant (a, q*k - a, p*k), 1 <= a <= k <= c_bound // |p|, is
    primitive exactly when gcd(a, k) = 1, and every other one is a multiple
    of a primitive one with a smaller k; the smallest descriptor of a key is
    its own triple. A path ends on <end>, state (1, 0, end): that is a
    constant key only for the trivial path of an integer leaf p, tau 0,
    where the constant's descriptor is smaller.
    """
    pq = leaf.fraction
    p, q = pq.numerator, pq.denominator
    table = {}
    for k in range(1, c_bound // abs(p) + 1):
        for a in range(1, k + 1):
            if gcd(a, k) == 1:
                table[a, q * k - a, p * k] = None
    for descent in enumerate_paths(pq):
        m, descent_tau = int(descent.vertices[-1]), tau(descent)
        # an integer leaf keeps its trivial path whatever the bound
        for end in (m,) if q == 1 else u_zero_ends(descent, c_bound):
            key = (1, 0, end)
            if key in table and table[key] is None:
                continue  # an integer leaf's constant (1, 0, p)
            # each unit step of a run along u = 0 adds -2 times its rise
            runs = table.setdefault(key, [])
            runs.append((descent_tau - 2 * (end - m), descent, end))
    return table


class _Keys(dict):
    """Glued key -> [(left key, right key)], every key pair that glues to
    it; at a product, turns maps each left key that glues to its tau'."""

    def __init__(self, turns=None):
        super().__init__()
        self.turns = turns


def _glue_class(key, sheets, closing, sign=1):
    """What a key must match to glue: its (a : b) direction, and when
    closing also sign times its per-sheet c as a reduced pair."""
    direction = (key[0] // sheets, key[1] // sheets)
    if not closing:
        return direction
    g = gcd(key[2], sheets)
    return direction + (sign * key[2] // g, sheets // g)


def _index(table, closing):
    """The right operand's keys by glue class, each with its sheet count.

    Keys with a = b = 0 have no direction and glue to nothing
    (common_scaling returns None for them), so they are left out.
    """
    index = {}
    for key in table:
        s = gcd(key[0], key[1])
        if s:
            index.setdefault(_glue_class(key, s, closing), []).append((key, s))
    return index


def _glue_keys(out, lw, ls, lkey, partners):
    """Glue the key lw, of sheet count ls, to each (right key, sheet count)
    of partners, and record (lkey, right key) under the glued key.

    This is transforms.glue_scaled on integer keys. Of one direction
    (da, db) a key is (s*da, s*db, c), s its sheet count. Both sides go
    to L = lcm(s1, s2) sheets (multipliers k_i = L / s_i), c adds, and
    the sum is divided by g = gcd(L, c) to stay primitive. At a product,
    lw is the rotation output of the left key lkey.
    """
    a, b, c = lw
    for rkey, rs in partners:
        common = lcm(ls, rs)
        k1, k2 = common // ls, common // rs
        gc = c * k1 + rkey[2] * k2
        g = gcd(common, gc)
        glued = (a * k1 // g, b * k1 // g, gc // g)
        pairs = out.get(glued)
        if pairs is None:
            out[glued] = [(lkey, rkey)]
        else:
            pairs.append((lkey, rkey))


def _merge_sum(left, right, closing=False):
    """Key pass at a sum; when closing, only the pairs that close."""
    out = _Keys()
    index = _index(right, closing)
    for lkey in left:
        s = gcd(lkey[0], lkey[1])
        partners = index.get(_glue_class(lkey, s, closing, -1)) if s else None
        if partners:
            _glue_keys(out, lkey, s, lkey, partners)
    return out


def _merge_product(left, right, closing=False):
    """Key pass at a product: the rotation output of each left key with
    c != 0 and a feasible outcome glues to the right keys; when closing,
    only the pairs that close."""
    out = _Keys(turns={})
    index = _index(right, closing)
    for lkey in left:
        if lkey[2] == 0:
            continue  # the rotation is undefined at c = 0
        outcome = rotate_reflect(WeightState(*lkey), allow_infeasible=True)
        if not outcome.feasible:
            continue
        tw = outcome.state.triple()
        ts = gcd(tw[0], tw[1])  # > 0: a feasible rotation output has a + b > 0
        partners = index.get(_glue_class(tw, ts, closing, -1))
        if partners:
            # case 1: tau' = -+2a/a, so its denominator is 1
            out.turns[lkey] = outcome.tau_prime.numerator
            _glue_keys(out, tw, ts, lkey, partners)
    return out


def _key_pass(nodes, c_bound):
    """id(node) -> its key table, bottom-up; the last node is the root,
    whose merge keeps only the pairs that close."""
    keys = {}
    for node in nodes:
        if isinstance(node, Leaf):
            keys[id(node)] = _leaf_table(node, c_bound)
        else:
            merge = _merge_sum if isinstance(node, Sum) else _merge_product
            closing = node is nodes[-1]
            keys[id(node)] = merge(keys[id(node.left)], keys[id(node.right)], closing)
    return keys


# demand pass: the keys that a closed root key reaches


def _demand_pass(nodes, keys):
    """id(node) -> the set of its keys that some closed root key glues
    from, top-down; a shared subtree collects from all its parents first."""
    root = nodes[-1]
    demand = {id(root): set(keys[id(root)])}
    for node in reversed(nodes):
        if isinstance(node, Leaf):
            continue
        table = keys[id(node)]
        ldemand = demand.setdefault(id(node.left), set())
        rdemand = demand.setdefault(id(node.right), set())
        for key in demand[id(node)]:
            for lkey, rkey in table[key]:
                ldemand.add(lkey)
                rdemand.add(rkey)
    return demand


# tau pass: one witness per (demanded key, tau)


def _leaf_witnesses(leaf, table, wanted):
    """{tau: witness} per wanted key of a leaf's key table; a witness is
    the (descriptor, assignment) pair with the smallest descriptor."""
    pq = leaf.fraction
    out = {}
    for key in sorted(wanted):
        runs = table[key]
        if runs is None:
            path = ConstantPath(pq, WeightState(*key))
            out[key] = {0: ((path.describe(),), (path,))}
            continue
        entries = out[key] = {}
        for t, descent, end in runs:
            path = run_to(descent, end)
            desc = (path.describe(),)
            if t not in entries or desc < entries[t][0]:
                entries[t] = (desc, (path,))
    return out


def _glue_witnesses(table, left, right, wanted):
    """{tau: witness} per wanted key of a merged key table, from the
    children's {tau: witness} tables.

    tau adds at a sum; at a product it is tau' - tau(left) + tau(right).
    Each tau keeps the child witness pair with the smallest (left
    descriptor, right descriptor), and joins it once.
    """
    turns = table.turns
    out = {}
    for key in sorted(wanted):
        best = {}
        for lkey, rkey in table[key]:
            rents = right[rkey].items()
            for lt, lw in left[lkey].items():
                if turns is not None:
                    lt = turns[lkey] - lt
                for rt, rw in rents:
                    kept = best.get(lt + rt)
                    if kept is None or (lw[0], rw[0]) < (kept[0][0], kept[1][0]):
                        best[lt + rt] = lw, rw
        out[key] = {
            t: (ldesc + rdesc, lassign + rassign)
            for t, ((ldesc, lassign), (rdesc, rassign)) in best.items()
        }
    return out


def _tau_pass(nodes, keys, demand):
    """id(node) -> its witness table over its demanded keys, bottom-up."""
    taus = {}
    for node in nodes:
        table, wanted = keys[id(node)], demand[id(node)]
        if isinstance(node, Leaf):
            taus[id(node)] = _leaf_witnesses(node, table, wanted)
        else:
            left, right = taus[id(node.left)], taus[id(node.right)]
            taus[id(node)] = _glue_witnesses(table, left, right, wanted)
    return taus


def _root_table(expr, c_bound):
    """The witness table of the root's closed keys, after all three
    passes."""
    nodes = _distinct_nodes(expr)
    keys = _key_pass(nodes, c_bound)
    demand = _demand_pass(nodes, keys)
    taus = _tau_pass(nodes, keys, demand)
    if log.isEnabledFor(logging.INFO):
        # every child witness pair a merge compared
        pairs = sum(
            len(taus[id(node.left)][lkey]) * len(taus[id(node.right)][rkey])
            for node in nodes
            if not isinstance(node, Leaf)
            for key in demand[id(node)]
            for lkey, rkey in keys[id(node)][key]
        )
        log.info(
            "sn solve, c_bound=%d, %d nodes: %d keys built, %d demanded,"
            " %d witness pairs compared",
            c_bound,
            len(nodes),
            sum(len(keys[id(node)]) for node in nodes),
            sum(len(demand[id(node)]) for node in nodes),
            pairs,
        )
    return taus[id(expr)]


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
    grouped = {}  # every root key is closed: c = 0
    for entries in _root_table(expr, c_bound).values():
        for t, witness in entries.items():
            grouped.setdefault((Fraction(t), ""), []).append(witness)
    slopes = set() if reference is None else {total - reference for total, _ in grouped}
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
