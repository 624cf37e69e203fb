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

* solve_sn handles expressions with at least one product, in three
  passes over the distinct nodes; a subtree object shared by several
  parents, as in kn(n), is one node. Every state key is a primitive
  triple (a, b, c): leaf states and glues add no slope-0 or
  slope-infinity boundary edges, and the rotation of such a state is case
  1 of transforms.rotate_reflect, which _turn computes on the triple with
  tau' = -2 sign(c). So every tau is an integer.

  1. Key pass, bottom-up, integers only. A leaf's keys are the primitive
     states of its constant family, (a, q*k - a, p*k) with 1 <= a <= k
     <= c_bound // |p| and gcd(a, k) = 1, and the vertices <e> that end
     its descents and their vertical runs within +-c_bound, a window per
     descent that ends there (an integer leaf p keeps its trivial window
     p..p regardless). Every table below the root is a _Family: its
     explicit keys, which are its size, and a formula family of at most
     one key per primitive (a : b) direction, the primitive state of
     that direction on the plane c = v (a + b) of its value v, asked per
     direction, enumerated only where a root's family closes. A leaf's
     is the family of p/q, a product turns the family of v into that of
     1/v (_Turned), or, where v is 0 or 1/0, into one of value 1/0 that
     admits nothing (_Keys): a key of value 0 has c = 0 and does not
     turn. A merge's constant pairs are the family of the sum of its
     sides' values (_Glued), 1/0 where either is. A merge glues the left
     key (turned, at a product) to each right key of its direction, both
     rescaled to their least common (a, b) and added, so c_bound is the
     only bound. A family joins a merge once per direction of the other
     side's explicit keys, as in the demand pass; one-sheet pairs glue
     by adding their c, all others by _glue; sums and products share
     this one merge. A leaf's runs are one-sheet, (1, 0, c), kept as
     spans of c (_Runs), and so are those of a sum of two such sides: the
     sums of their spans. A product turns a one-sheet left table by
     formula and builds no turned set (_Sheets): a run (1, 0, c) turns to
     (1, |c| - 1, sign c). Such a root closes on the right table's runs
     (1, b, +-1), on its family at the one source end c = -p*q of a right
     value p/q (|p| = 1), and on the left constants per direction of the
     right runs (_sheet_closings). A merge keeps its table, the root only
     the set of its keys that close (c = 0), and a product its turned
     left table.
  2. Demand pass, top-down. The root demands all its keys. Each merge
     recovers the (left key, right key) pairs behind its demanded keys
     and adds both keys of each to its children's demand, after all of
     its own parents have added theirs; a product's left key is the _turn
     of its turned one. A family is asked for its key of each demanded
     direction, and a turned one-sheet table for its runs of each, at
     most (1, k, 1) and (1, k, -1) in direction (1 : k). A sum of two
     leaves recovers one pair per pair of run windows that reaches a
     demanded (1, 0, c): every split of c in one window pair adds the
     same tau, and the split of least descriptor takes the left leaf's
     least feasible end by its run order: its descent's own end, else
     the nearest below, else the nearest above.
  3. Tau pass, bottom-up, demanded keys only. Each (demanded key, tau)
     keeps the witness of smallest descriptor. A leaf's is (order, (key,
     tau, leaf fraction, descent)), order sorting as the path's
     descriptor. A merge keeps the child pair of smallest (left
     descriptor, right descriptor), as (that pair, (left picks, right
     picks)), then replaces each descriptor by its rank among the node's
     witnesses.

  A node's witnesses share its tree shape, so nested descriptors and
  ranks sort as the flat tuples of leaf descriptors; the smallest pair is
  that of the smallest child witnesses, and the demand pass gives the
  merge every child pair that can be it: all of them, or at a sum of two
  leaves the least of each window pair.

* solve_montesinos handles sums of three or more rational tangles. The
  common endpoint abscissa u is one unknown: each leaf contributes either
  its constant family or a partially traversed final edge, v is affine in
  u on each piece, and sum v = 0 is solved exactly piece by piece
  (type I, _type_i_candidates) by a merge over the leaves, whose states
  stand for every combination that reaches them, in integers: an interval
  end (q - 1)/q is the int q in w = 1/(1 - u). The merge decides each
  closure, u0 = n/d with its tau and note, from its state's ints, and
  staging only names the paths: at u0 > 0 its order holds a constant's
  triple or an edge's prefix and share f, from which its leaf picks are
  built. The same merge closes at u = 0 (type II): a segment valid there
  ends a descent at an integer m, or is an integer leaf's constant m, so
  such segments whose ms sum to zero are a system of descents, of int tau,
  picked by rank from their u = 0 options (_type_ii_options). It is
  counted as a slope when the penultimate-vertex denominators y_i satisfy
  sum 1/y_i <= 1, and flagged as an inessential candidate otherwise.

A search yields (tau, note, order, build) per candidate and builds no
path; order is the SN rank or the flat descriptor tuple. _solve keeps the
least order per (tau, note), plus S0 (slope 0) when the normalization
exists. Only a kept candidate's build() makes its leaf picks (key, tau,
path), and _materialize derives every node's trace from them in integers
(_glue, _turn), one per subtree label and leaf paths. The report's slopes are
read off the listed systems: the slope tau - tau(S0) of each with an empty
note, plus S0's 0. The systems are listed by (slope, note, order), a slope
as an int over the common denominator. slopes.verify_system, by replay, is
the independent check; the solve does not call it. Nothing depends on hash
order: the SN passes visit keys in set and dict order, but each minimum
they keep is unique, as an order names one (key, tau) or system; the
Montesinos merge reads its dicts in insertion order; and the listing sorts.
"""

import sys
from bisect import bisect
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, inf, lcm

from .diagram import WeightState
from .edgepaths import (
    LEAF_MEMO_SIZE,
    ConstantPath,
    VertexPath,
    leaf_descents,
    run_to,
    tau,
    u_zero_window,
)
from .errors import FamilyCheckFailed, SeifertUndefined, UnsupportedShape
from .slopes import (
    CandidateSystem,
    NodeTrace,
    build_system,
    seifert_system,
    seifert_tau,
)
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

ZERO = Fraction(0)
ONE = Fraction(1)


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
    n = family_index(expr)
    return n * n + n + 2 if n is not None else 32


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
# the solve both engines share


def _check_c_bound(c_bound):
    if type(c_bound) is not int:
        raise TypeError("c_bound must be an int, got %r" % (c_bound,))
    if c_bound < 1:
        raise ValueError("c_bound must be at least 1")
    return c_bound


def _solve(expr, c_bound, search):
    """Solve expr by the engine search search(notes); see the module docstring."""
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
    slopes = []
    if seifert is not None:
        systems.append((None, seifert))  # its own note: order never compared
        slopes = [ZERO] + [s.slope for _, s in systems if not s.note]
    scale = lcm(*(s.slope.denominator for _, s in systems if s.slope is not None))

    def listing(item):
        slope = item[1].slope or ZERO  # None without S0
        return slope.numerator * scale // slope.denominator, item[1].note, item[0]

    systems.sort(key=listing)
    return report(expr, [s for _, s in systems], slopes, c_bound, sorted(set(notes)))


# ---------------------------------------------------------------------------
# the product-expression solve (closure at u = 0)


def _distinct_nodes(expr):
    """The distinct nodes, each after its children and before its parents,
    the root last: reversed preorder, keeping a shared subtree object's
    first copy, which lies before the first copy of each of its parents."""
    return list({id(node): node for node in reversed(list(expr.nodes()))}.values())


# key pass: the state keys of every node


def _plane_key(p, q, da, db):
    """The one primitive key of direction (da, db) whose per-sheet value
    is T p/q, T = da + db: (s*da, s*db, c) with c/s = T p/q in lowest
    terms, s = q/g and c = p*T/g for g = gcd(q, T) (q > 0, gcd(p, q) = 1)."""
    t = da + db
    g = gcd(q, t)
    return q * da // g, q * db // g, p * t // g


class _Family:
    """A key table: runs, its explicit keys, which are its len(), and a
    formula family of value p/q: at most one key per primitive (a : b)
    direction (da, db), its _plane_key where admits(da, db), asked per
    direction; a solve enumerates (family()) only a root's family of
    value 0, all of whose keys close. An integer leaf's (1, 0, p) is both
    a run and a key of its family. A family of value 1/0 (q = 0) admits
    nothing."""

    __slots__ = ()

    def constant(self, da, db):
        """The family's key of direction (da, db), or None."""
        return _plane_key(self.p, self.q, da, db) if self.admits(da, db) else None

    def holds(self, key):
        """Whether key is the family's key of its direction."""
        s = gcd(key[0], key[1])
        da, db = key[0] // s, key[1] // s
        return key == _plane_key(self.p, self.q, da, db) and self.admits(da, db)

    def __contains__(self, key):
        return key in self.runs or self.holds(key)

    def __len__(self):
        return len(self.runs)


class _Leaf(_Family, namedtuple("_Leaf", ("p", "q", "bound", "runs", "windows"))):
    """A leaf's key table: the constant family of p/q, plus runs, its
    one-sheet keys (_Runs), and the windows they come from.

    The family's primitive keys are (a, q*k - a, p*k), 1 <= a <= k <= bound,
    gcd(a, k) = 1: at most one per primitive direction (da, db). With
    T = da + db and g = gcd(q, T), it is (q*da/g, q*db/g, p*T/g), of
    per-sheet value p*T/q, where da >= 1, q*da <= T and T/g <= bound.
    """

    __slots__ = ()

    def admits(self, da, db):
        t = da + db
        return da >= 1 and self.q * da <= t and t <= self.bound * gcd(self.q, t)

    def family(self):
        for k in range(1, self.bound + 1):
            for a in range(1, k + 1):
                if gcd(a, k) == 1:
                    yield a, self.q * k - a, self.p * k


class _Glued(_Family, namedtuple("_Glued", ("p", "q", "left", "right", "runs"))):
    """A merge's table: its children's constant pairs, one per direction
    that both admit, as the family of p/q, the sum of their values (a glue
    adds per-sheet values), 1/0 where either is; plus runs, its other
    keys."""

    __slots__ = ()

    def admits(self, da, db):
        return self.left.admits(da, db) and self.right.admits(da, db)

    def family(self):
        for a, b, _ in self.left.family():
            s = gcd(a, b)
            if self.right.admits(a // s, b // s):
                yield _plane_key(self.p, self.q, a // s, b // s)


class _Turned(_Family, namedtuple("_Turned", ("p", "q", "left", "runs"))):
    """A product's left table turned: the family of p/q, the inverse of
    left's value (a turn maps the plane of value v onto that of 1/v),
    admitting a direction where its _plane_key turns (_turn) into left's
    family; plus runs, its turned runs."""

    __slots__ = ()

    def admits(self, da, db):
        back = _turn(_plane_key(self.p, self.q, da, db))
        if back is None:
            return False
        a, b, _ = back[0]
        s = gcd(a, b)
        return self.left.admits(a // s, b // s)

    def family(self):
        for key in self.left.family():
            turned = _turn(key)
            if turned:
                yield turned[0]


class _Keys(_Family, namedtuple("_Keys", ("runs",))):
    """A product's left table of value 0 or 1/0 turned: only runs, its
    turned runs. Each key of a family of value 0 has c = 0, which does not
    turn, so its family is of value 1/0 and admits nothing."""

    __slots__ = ()
    p, q = 1, 0

    def admits(self, da, db):
        return False


class _Runs:
    """The one-sheet keys (1, 0, c) for c in spans, sorted, disjoint and
    non-adjacent ranges (lo, hi): len() counts them, iteration is by c,
    and the sum of two is the union of their pairwise span sums, as a glue
    of two one-sheet keys adds their c."""

    __slots__ = ("spans",)

    def __init__(self, spans):
        self.spans = []
        for lo, hi in sorted(spans):
            if self.spans and lo <= self.spans[-1][1] + 1:
                lo, top = self.spans.pop()
                hi = max(hi, top)
            self.spans.append((lo, hi))

    def __contains__(self, key):
        a, b, c = key
        i = bisect(self.spans, (c, inf))  # the spans with lo <= c
        return a == 1 and b == 0 and i > 0 and c <= self.spans[i - 1][1]

    def __len__(self):
        return sum(hi - lo + 1 for lo, hi in self.spans)

    def __iter__(self):
        return ((1, 0, c) for lo, hi in self.spans for c in range(lo, hi + 1))

    def __eq__(self, other):
        return isinstance(other, _Runs) and self.spans == other.spans

    def __add__(self, other):
        return _Runs([(lo + olo, hi + ohi) for lo, hi in self.spans for olo, ohi in other.spans])


@lru_cache(maxsize=LEAF_MEMO_SIZE)
def _leaf_table(pq, c_bound):
    """The _Leaf table of leaf p/q, bound c_bound // |p|: windows holds
    (m, tau, lo, hi, descent) per descent whose window is not empty, by
    rank, its place by vertices, for a descent ending at <m> whose runs end
    at lo..hi (u_zero_window), and runs the (1, 0, e) of them. An integer
    leaf p keeps its trivial window p..p, within c_bound or not: within,
    (1, 0, p) is its constant too. Memoized: the solves only read it.
    """
    p, q = pq.numerator, pq.denominator
    windows = []
    for descent in leaf_descents(pq):
        m = int(descent.vertices[-1])
        lo, hi = u_zero_window(descent, c_bound) if q > 1 else (m, m)
        if lo <= hi:
            windows.append((m, tau(descent), lo, hi, descent))
    return _Leaf(p, q, c_bound // abs(p), _Runs(w[2:4] for w in windows), tuple(windows))


def _turn(key):
    """Case 1 of transforms.rotate_reflect on a primitive key: the
    primitive key (a, |c| - a, sign(c) * (a + b)) and tau' = -2 sign(c),
    or None where the rotation is undefined (c = 0) or infeasible (|c| < a).
    """
    a, b, c = key
    if c == 0 or abs(c) < a:
        return None
    sign = 1 if c > 0 else -1
    return (a, abs(c) - a, sign * (a + b)), -2 * sign


def _glue(lw, rkey):
    """transforms.glue_scaled on two triples of one (a : b) direction: the
    glued primitive triple and the multipliers (k1, k2). The triples need
    not be primitive: a Montesinos leaf's end state may not be."""
    ls, rs = gcd(lw[0], lw[1]), gcd(rkey[0], rkey[1])
    common = lcm(ls, rs)
    k1, k2 = common // ls, common // rs
    c = lw[2] * k1 + rkey[2] * k2
    g = gcd(common, c)
    return (lw[0] * k1 // g, lw[1] * k1 // g, c // g), (k1, k2)


class _Sheets:
    """The turned runs of a one-sheet table, by formula over its _Runs
    source: _turn takes a run (1, 0, c), c != 0, to (1, |c| - 1, sign c),
    so each direction (1 : k) holds at most (1, k, 1) and (1, k, -1). No
    turned set is built; iterating turns the runs one by one."""

    __slots__ = ("source",)

    def __init__(self, source):
        self.source = source

    def __contains__(self, key):
        a, b, c = key
        return a == 1 and c in (1, -1) and (1, 0, c * (b + 1)) in self.source

    def __len__(self):
        return len(self.source) - ((1, 0, 0) in self.source)

    def __iter__(self):
        return ((1, abs(c) - 1, 1 if c > 0 else -1) for _, _, c in self.source if c)

    def along(self, directions):
        """The runs of the given primitive (a : b) directions."""
        return [key for da, db in directions if da == 1 for key in ((1, db, 1), (1, db, -1)) if key in self]


def _turned(table):
    """A product's left table turned: its turned runs, by formula (_Sheets)
    where they are one-sheet (_Runs), and its family of value p/q, a
    leaf's included, turned into the family of q/p, a _Turned, or a _Keys
    where p/q is 0 or 1/0."""
    p, q, runs = table.p, table.q, table.runs
    runs = _Sheets(runs) if isinstance(runs, _Runs) else {t[0] for key in runs if (t := _turn(key))}
    return _Turned(q if p > 0 else -q, abs(p), table, runs) if p and q else _Keys(runs)


def _directions(keys):
    """The primitive (a : b) directions of keys."""
    return {(a // (s := gcd(a, b)), b // s) for a, b, _ in keys}


def _constants(table, directions):
    """A _Family table's key of each primitive (a : b) direction, but
    those among its runs."""
    return [key for d in directions if (key := table.constant(*d)) and key not in table.runs]


def _with_constants(table, keys):
    """table's keys in a merge: its runs plus its constant of each (a : b)
    direction among keys, the other side's runs or the demanded keys."""
    return [*_constants(table, _directions(keys)), *table.runs]


def _window_pairs(x, y, c):
    """The (left key, right key) pairs behind the one-sheet key (1, 0, c)
    of a sum of two leaves: per pair of their windows that reaches it, the
    split e1 + e2 = c of least e1 by the left leaf's run order
    (_leaf_witnesses), as every split of one pair adds the same tau, t1 +
    t2 - 2(c - m1 - m2). The feasible e1 are an interval, so that e1 is m1
    clamped to it."""
    out = []
    for m1, _, lo1, hi1, _ in x.windows:
        for _, _, lo2, hi2, _ in y.windows:
            low, high = max(lo1, c - hi2), min(hi1, c - lo2)
            if low <= high:
                e = min(max(m1, low), high)
                out.append(((1, 0, e), (1, 0, c - e)))
    return list(dict.fromkeys(out))


def _explicit_keys(lws, right, closing):
    """The set of keys glued (_glue) from each key of lws and each key of
    right of its (a : b) direction; when closing, only those with c = 0.

    Of one direction (da, db) a primitive key is (s*da, s*db, c), s its
    sheet count, and stands for the reduced per-sheet value c/s: a glue
    adds the values. So a pair closes when the values are negatives:
    (a, b, c) and (a, b, -c). One-sheet pairs glue by adding their c,
    every other pair by _glue.
    """
    if closing:
        return {(a // gcd(a, b), b // gcd(a, b), 0) for a, b, c in lws if (a, b, -c) in right}
    groups = {}  # direction -> sheet count -> keys
    for key in right:
        s = gcd(key[0], key[1])
        groups.setdefault((key[0] // s, key[1] // s), {}).setdefault(s, []).append(key)
    out = set()
    for key in lws:
        s = gcd(key[0], key[1])
        direction = (key[0] // s, key[1] // s)
        for rs, rkeys in groups.get(direction, {}).items():
            if s == rs == 1:
                out.update([(*direction, key[2] + rkey[2]) for rkey in rkeys])
            else:
                out.update([_glue(key, rkey)[0] for rkey in rkeys])
    return out


def _sheet_closings(left, right):
    """The closing test of a root product whose left table turns a
    one-sheet table (_Sheets): the (da, db, 0) of each left key (a, b, c)
    with (a, b, -c) in right.

    Left's constants are asked per direction of right's runs, as in
    _explicit_keys; a one-sheet right's are all of direction (1 : 0). A
    turned run (1, k, +-1) closes on right's key (1, k, -+1): one of
    right's runs, for a one-sheet right (1, 0, +-1), or the key of right's
    family of value p/q in direction (1 : k), which is (1, k, -+1) only for
    k = q - 1 and p = -+1, the turn of the source run (1, 0, -p*q)."""
    sheets, p, q = left.runs, right.p, right.q
    if isinstance(right.runs, _Runs):
        directions = {(1, 0)} if right.runs else ()
        ones = [key for key in ((1, 0, 1), (1, 0, -1)) if key in right.runs]
    else:
        directions, ones = _directions(right.runs), right.runs
    out = {(a // (s := gcd(a, b)), b // s, 0) for a, b, c in _constants(left, directions) if (a, b, -c) in right}
    out.update((1, b, 0) for a, b, c in ones if a == 1 and c in (1, -1) and (1, b, -c) in sheets)
    if q and (1, q - 1, -p) in sheets and right.holds((1, q - 1, p)):
        out.add((1, q - 1, 0))
    return out


def _merge_sum(left, right, closing=False):
    """Key pass at a merge: the _Glued table of the keys glued from each
    key of left (the _turned left table, at a product) and each right key
    of its (a : b) direction; when closing, only those with c = 0, as a
    set.

    Two one-sheet sides add their _Runs, which hold their constants of
    direction (1 : 0). Else a family joins once per direction of the
    other side's runs (_with_constants), as in the demand pass, and the
    closing test asks the right table itself per key, or, where left
    turns a one-sheet table, per formula (_sheet_closings). The tables'
    constant pairs are the _Glued family, kept by formula: the root keeps
    all of its keys, each with c = 0, when its value is 0, else none."""
    if isinstance(left.runs, _Runs) and isinstance(right.runs, _Runs):  # never the root: it has a product below
        out = left.runs + right.runs
    elif closing and isinstance(left.runs, _Sheets):
        out = _sheet_closings(left, right)
    else:
        rkeys = right if closing else _with_constants(right, left.runs)
        out = _explicit_keys(_with_constants(left, right.runs), rkeys, closing)
    q = left.q * right.q
    p = left.p * right.q + right.p * left.q if q else 1  # 1/0 plus any value is 1/0
    g = gcd(p, q)
    glued = _Glued(p // g, q // g, left, right, out)
    if closing:
        return out.union(glued.family()) if p == 0 else out
    return glued


# a second name, so that bench/tracer.py times product merges apart
_merge_product = _merge_sum


def _key_pass(nodes, c_bound):
    """(id(node) -> key table, id(product) -> its _turned left table),
    bottom-up; the root keeps only the keys that close."""
    keys, turns = {}, {}
    for node in nodes:
        if isinstance(node, Leaf):
            keys[id(node)] = _leaf_table(node.fraction, c_bound)
            continue
        left, right, closing = keys[id(node.left)], keys[id(node.right)], node is nodes[-1]
        if isinstance(node, Sum):
            keys[id(node)] = _merge_sum(left, right, closing)
        else:
            turned = turns[id(node)] = _turned(left)
            keys[id(node)] = _merge_product(turned, right, closing)
    return keys, turns


# demand pass: the keys that a closed root key reaches, and their pairs


def _demand_pass(nodes, keys, turns):
    """id(node) -> {demanded key: the (left key, right key) pairs glued to
    it}, None at a leaf, top-down; a shared subtree collects from all its
    parents first.

    A glue adds per-sheet values (_explicit_keys), so for a demanded key
    and a left key of its direction (turned, at a product) the one right
    key that can glue to it has the reduced difference of their values. A
    family joins once per demanded direction (_constants), as do a turned
    one-sheet table's runs (_Sheets.along), and the right table, its
    family included, is asked for that key. A sum of two leaves takes its
    one-sheet keys' pairs per pair of windows (_window_pairs), not per
    run. At a product the left key is the _turn of the turned one.
    """
    demand = {id(nodes[-1]): dict.fromkeys(keys[id(nodes[-1])])}
    for node in reversed(nodes):
        if isinstance(node, Leaf):
            continue
        right, product = keys[id(node.right)], isinstance(node, Product)
        left = turns[id(node)] if product else keys[id(node.left)]
        ldemand = demand.setdefault(id(node.left), {})
        rdemand = demand.setdefault(id(node.right), {})
        wanted, by_direction = demand[id(node)], {}
        for key in wanted:
            a, b, c = key
            s = gcd(a, b)
            wanted[key] = pairs = []
            by_direction.setdefault((a // s, b // s), []).append((s, c, pairs))
        if isinstance(left, _Leaf) and isinstance(right, _Leaf):  # a _turned leaf is a _Turned
            # a one-sheet key (1, 0, c) is a run of left, never among lkeys
            lkeys = _constants(left, by_direction)
            for (a, b, c), pairs in wanted.items():
                if not b:
                    pairs += _window_pairs(left, right, c)
                    for lkey, rkey in pairs:
                        ldemand[lkey] = rdemand[rkey] = None
        elif isinstance(left.runs, _Sheets):
            lkeys = [*_constants(left, by_direction), *left.runs.along(by_direction)]
        else:
            lkeys = _with_constants(left, wanted)
        for a, b, lc in lkeys:
            ls = gcd(a, b)
            da, db = a // ls, b // ls
            for s, c, pairs in by_direction.get((da, db), ()):
                # the right value c/s - lc/ls, reduced
                n, d = c * ls - lc * s, s * ls
                g = gcd(n, d)
                rkey = (da * d // g, db * d // g, n // g)
                if rkey in right:
                    lkey = _turn((a, b, lc))[0] if product else (a, b, lc)
                    pairs.append((lkey, rkey))
                    ldemand[lkey] = rdemand[rkey] = None
    return demand


# tau pass: one witness per (demanded key, tau)


def _leaf_witnesses(leaf, table, wanted):
    """{tau: witness} per wanted key of a leaf's _Leaf table: (order,
    (key, tau, leaf fraction, descent)) of the smallest path, descent None
    for a constant. A key's constant comes first, where the family holds
    it; then each window adds a run per tau not yet taken. A run from <m>
    to <e> adds -2(e - m) to the descent's tau; its order, (1, rank, m - e
    if e <= m else e - lo), sorts as the descriptor (a constant's is (0,
    key)): runs down by length, then up, and no descent is a prefix of
    another (enumerate_paths)."""
    pq = leaf.fraction
    out, runs = {}, []  # (key, its end e, its entries) per wanted run key
    for key in wanted:
        entries = out[key] = {0: ((0, key), (key, 0, pq, None))} if table.holds(key) else {}
        if key in table.runs:
            runs.append((key, key[2], entries))
    for rank, (m, t, lo, hi, descent) in enumerate(table.windows):
        for key, e, entries in runs:
            if lo <= e <= hi:
                run_tau = t - 2 * (e - m)
                if run_tau not in entries:  # else the constant's or a smaller rank's
                    order = (1, rank, m - e if e <= m else e - lo)
                    entries[run_tau] = order, (key, run_tau, pq, descent)
    return out


def _glue_witnesses(wanted, left, right, product):
    """{tau: witness} per demanded key of a merge, from its
    {key: (left key, right key) pairs} and the children's {tau: witness}
    tables.

    tau adds at a sum; at a product it is tau' - tau(left) + tau(right),
    tau' = -2 sign(c) of the left key (_turn). The keys are visited as
    they come: a child descriptor names one (key, tau) of its node, so no
    two pairs tie, and _rank orders the table.
    """
    out = {}
    for key in wanted:
        best = {}
        for lkey, rkey in wanted[key]:
            lents, rents = left[lkey].items(), right[rkey].items()
            if product:
                turn = -2 if lkey[2] > 0 else 2
                lents = [(turn - lt, lw) for lt, lw in lents]
            for lt, (ldesc, lpicks) in lents:
                for rt, (rdesc, rpicks) in rents:
                    desc = (ldesc, rdesc)
                    kept = best.get(lt + rt)
                    if kept is None or desc < kept[0]:
                        best[lt + rt] = desc, (lpicks, rpicks)
        out[key] = best
    return out


def _rank(table):
    """Replace each witness descriptor of a merged table by its rank among
    the node's witnesses, in place, so that comparing two costs the same at
    every depth; ranks order a parent's pairs as the descriptors would."""
    order = sorted((w[0], key, t) for key, ws in table.items() for t, w in ws.items())
    for rank, (_, key, t) in enumerate(order):
        table[key][t] = rank, table[key][t][1]
    return table


def _tau_pass(nodes, keys, demand):
    """id(node) -> its witness table over its demanded keys, bottom-up."""
    taus = {}
    for node in nodes:
        wanted = demand[id(node)]
        if isinstance(node, Leaf):
            taus[id(node)] = _leaf_witnesses(node, keys[id(node)], wanted)
        else:
            left, right = taus[id(node.left)], taus[id(node.right)]
            table = _glue_witnesses(wanted, left, right, isinstance(node, Product))
            taus[id(node)] = _rank(table)
    return taus


def _root_table(expr, c_bound):
    """The witness table of the root's closed keys, after all three
    passes."""
    nodes = _distinct_nodes(expr)
    keys, turns = _key_pass(nodes, c_bound)
    demand = _demand_pass(nodes, keys, turns)
    taus = _tau_pass(nodes, keys, demand)
    # no handler or level can be set before logging is imported, so the
    # solver leaves the import to its caller (the CLI's LOG_LEVEL)
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger("tangleslopes.solver")
    if log and log.isEnabledFor(logging.INFO):
        tables = [*keys.values(), *turns.values()]
        # every pair of one-sheet windows a sum of two leaves compared, and
        # every child witness pair a merge compared
        windows = sum(
            len(x.windows) * len(y.windows) * sum(not key[1] for key in demand[id(node)])
            for node in nodes
            if isinstance(node, Sum) and isinstance(x := keys[id(node.left)], _Leaf)
            and isinstance(y := keys[id(node.right)], _Leaf)
        )
        # a root of value 0 lists the family of its constant pairs
        # (_merge_sum): that family walks its left table's, which walks its
        # own left's, and so on down to a leaf
        root = nodes[-1]
        table = turns[id(root)] if isinstance(root, Product) else keys[id(root.left)]
        right, walked = keys[id(root.right)], 0
        if table.q * right.q and table.p * right.q + right.p * table.q == 0:
            walked = 2  # the root's family and its left table's
            while not isinstance(table, _Leaf):
                walked += 1
                table = table.left
        pairs = sum(
            len(taus[id(node.left)][lkey]) * len(taus[id(node.right)][rkey])
            for node in nodes
            if not isinstance(node, Leaf)
            for pairs in demand[id(node)].values()
            for lkey, rkey in pairs
        )
        log.info(
            "sn solve, c_bound=%d, %d nodes: %d keys counted and %d formula families"
            " enumerated, %d demanded, %d window pairs and %d witness pairs compared",
            c_bound,
            len(nodes),
            sum(map(len, tables)),
            walked,
            sum(len(demand[id(node)]) for node in nodes),
            windows,
            pairs,
        )
    return taus[id(expr)]


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


def _leaf_picks(witness, built):
    """The leaf picks (key, tau, path) of a nested SN witness, left to
    right: a merge's part is a (left, right) pair; built keeps each leaf
    item's pick by id."""
    picks, stack = [], [witness]
    while stack:
        item = stack.pop()
        if len(item) == 2:
            stack += (item[1], item[0])
            continue
        pick = built.get(id(item))
        if pick is None:
            key, t, pq, descent = item
            path = run_to(descent, key[2]) if descent else ConstantPath(pq, WeightState(*key))
            pick = built[id(item)] = key, t, path
        picks.append(pick)
    return picks


def _sn_candidates(expr, c_bound, notes):
    """The SN search: every closed root witness, ordered by its rank and
    flattened to leaf picks."""
    built = {}
    for entries in _root_table(expr, c_bound).values():  # all closed: c = 0
        for t, (rank, witness) in entries.items():
            yield t, "", rank, partial(_leaf_picks, witness, built)


def solve_sn(expr, c_bound=None):
    """Enumerate closed systems for an expression with products."""
    if expr.is_montesinos():
        raise UnsupportedShape(
            "expression %s has no product; use solve_montesinos" % render(expr)
        )
    c_bound = default_c_bound(expr) if c_bound is None else _check_c_bound(c_bound)
    return _solve(expr, c_bound, partial(_sn_candidates, expr, c_bound))


# ---------------------------------------------------------------------------
# the Montesinos solve (full piecewise-linear closure)


class _Segment(namedtuple("_Segment", (
    "kind",  # "const" | "edge"
    "prefix",  # vertices through the partial edge (edge segments)
    "w_lo",  # valid for w_lo <= w < w_hi, w = 1 / (1 - u): vertex denominators
    "w_hi",  # None: unbounded
    "coeff",  # v(u) = (coeff * u + offset) / den on that interval; den is q
    "offset",  # for the constant p/q, and qk - qj < 0 for an edge vj -> vk
    "den",
    "steps",  # tau of the whole edges before the partial one
    "last",  # tau of the partial edge taken whole: 2 down, -2 up
    "rank",  # read at u = 0 (w_lo = 1): the rank of the descent it ends
), defaults=(0, 0, None))):
    __slots__ = ()


@lru_cache(maxsize=LEAF_MEMO_SIZE)
def _leaf_segments(pq):
    """The type-I segments of leaf p/q: its constant, then one edge
    segment per distinct descent prefix, as a memoized tuple."""
    p, q = pq.numerator, pq.denominator
    segments = [_Segment("const", (), q, None, 0, p, q, rank=0 if q == 1 else None)]
    seen = set()
    for rank, path in enumerate(leaf_descents(pq)):
        vs = path.vertices
        ends = [(v.numerator, v.denominator) for v in vs]
        steps = 0  # tau through vs[j + 1]
        for j in range(len(vs) - 1):
            (pj, qj), (pk, qk) = ends[j], ends[j + 1]
            last = 2 if pk * qj < pj * qk else -2
            steps += last
            key = tuple(ends[: j + 2])
            if key in seen:
                continue
            seen.add(key)
            # the line through the points (1 - 1/q, p/q) of vj and vk
            den = qk - qj
            coeff, offset = qj * pk - pj * qk, pj * den + (1 - qj) * (pk - pj)
            segments.append(
                _Segment("edge", vs[: j + 2], qk, qj, coeff, offset, den, steps - last, last, rank)
            )
    return tuple(segments)


def _segment_path(pq, entry):
    """The path of a _type_i_stage order entry."""
    if entry[0] == "const":
        return ConstantPath(pq, WeightState(*entry[1]))
    return VertexPath(pq, entry[1], final_fraction=entry[2])


def _segment_pick(pq, segment, entry):
    """The leaf pick (key, tau, path) of a segment at its stage entry.

    An edge's path ends the share f = n/d along its last edge, at the mix
    (d - n) <vj> + n <vk> of the two vertex states (1, q - 1, p), as in
    edgepaths.end_weights; its tau is steps + last * f.
    """
    path = _segment_path(pq, entry)
    if segment.kind == "const":
        return entry[1], 0, path
    n, d = entry[2].numerator, entry[2].denominator
    vj, vk = segment.prefix[-2], segment.prefix[-1]
    key = (
        d,
        (d - n) * (segment.w_hi - 1) + n * (segment.w_lo - 1),
        (d - n) * vj.numerator + n * vk.numerator,
    )
    return key, Fraction(segment.steps * d + segment.last * n, d), path


def _type_i_picks(leaves, combo, order):
    return [_segment_pick(l.fraction, s, e) for l, s, e in zip(leaves, combo, order)]


def _u_of(w):
    """The u = 1 - 1/w of an interval end in w, or 1 for unbounded w."""
    return ONE if w is None else Fraction(w - 1, w)


def _type_i_candidates(leaves, notes):
    """Solve sum v_i(u) = 0 on the segment combinations whose validity
    intervals overlap; yield (n, d, tau, least combination, note) per
    closing state, u0 = n/d in lowest terms.

    A merge over the leaves, left to right, keeps as a prefix's state what
    its extensions read, in ints: coeff and offset scaled by the lcm of
    their denominators, the interval [lo, hi) in w (dropped when empty), tau
    as (ta + tb * w) / scale (an edge adds steps + last * (w - w_hi) / den),
    and while lo = 1 the sum of whole / y, capped at whole + 1: y = w_hi
    for a descent's last edge, its penultimate denominator, and 1 for an
    integer's constant. A state keeps its least prefix and a count: the
    segments sort as their stage entries and states are visited in
    insertion order, that of their least prefixes, so a first visit is a
    least combination. The last leaf keeps only closings, keyed in ints."""
    per_leaf = [_leaf_segments(l.fraction) for l in leaves]
    scale = lcm(*(s.den for segs in per_leaf for s in segs))
    whole = lcm(*(s.w_hi or 1 for segs in per_leaf for s in segs if s.w_lo == 1))
    # per leaf: (segment, w_lo, w_hi, coeff, offset, ta, tb, share at w = 1)
    choices = [[(s, s.w_lo, s.w_hi, s.coeff * (k := scale // s.den), s.offset * k,
                 (s.steps * s.den - s.last * (s.w_hi or 0)) * k, s.last * k,
                 whole // (s.w_hi or 1) if s.w_lo == 1 else 0)
                for s in segs] for segs in per_leaf]
    states, closed, families = {(0, 0, 1, None, 0, 0, 0): [(), 1]}, {}, {}  # u in [0, 1)
    for depth, leaf_choices in enumerate(choices, 1):
        merged, last = {}, depth == len(choices)
        for (coeff, offset, lo, hi, ta, tb, shares), (combo, count) in states.items():
            for s, slo, shi, c, o, a, b, share in leaf_choices:
                if slo < lo:
                    slo = lo
                if shi is None or (hi is not None and hi < shi):
                    shi = hi
                if shi is not None and slo >= shi:
                    continue
                c, o = coeff + c, offset + o
                if last and (c or o):
                    # u0 = n / d, d > 0, w0 = d / (d - n): lo <= w0 < hi times d - n
                    n, d = (-o, c) if c > 0 else (o, -c)
                    if not (0 <= n < d and slo * (d - n) <= d and (shi is None or d < shi * (d - n))):
                        continue
                share = 0 if slo > 1 else min(shares + share, whole + 1)
                a, b = ta + a, tb + b
                if not last:
                    merged.setdefault((c, o, slo, shi, a, b, share), [combo + (s,), 0])[1] += count
                    continue
                note = ""
                if not (c or o):
                    # closed along the whole interval: one note per interval
                    # and tau; its lower end u0 = 1 - 1/lo is kept, flagged
                    families.setdefault((slo, shi, a, b), [combo + (s,), 0])[1] += count
                    n, d, note = slo - 1, slo, "degenerate-family-endpoint"
                if not n:
                    note = "" if share <= whole else "inessential-candidate"  # sum 1/y <= 1
                g = gcd(n, d)
                closed.setdefault((n // g, d // g, note, a, b), combo + (s,))
        states = merged
    for (lo, hi, _, _), (combo, count) in families.items():
        labels = "; ".join(map(_segment_label, combo)) + (" and %d more" % (count - 1) if count > 1 else "")
        notes.append("degenerate closure family on u in [%s, %s) for %s" % (_u_of(lo), _u_of(hi), labels))
    for (n, d, note, a, b), combo in closed.items():
        # tau at w0 = d / (d - n); at u0 = 0 the sum of whole descents' taus
        yield n, d, Fraction(a * (d - n) + b * d, scale * (d - n)) if n else (a + b) // scale, combo, note


def _segment_label(segment):
    if segment.kind == "const":
        return "const %s" % Fraction(segment.offset, segment.den)
    return "edge to %s" % segment.prefix[-1]


@lru_cache(maxsize=LEAF_MEMO_SIZE)
def _type_ii_options(pq):
    """The u = 0 option (pick, order) of each of leaf p/q's descents, by
    rank, as a memoized tuple: pick is its (key, tau, path), the key <m> of
    its end, and order its describe()."""
    return tuple((((1, 0, int(path.vertices[-1])), tau(path), path), path.describe())
                 for path in leaf_descents(pq))


def _type_i_stage(combo, n, d):
    """The order of a type-I closure at u0 = n/d from the segments' ints:
    each leaf's entry is its path's descriptor, from which _segment_pick
    builds its pick, a constant's least integer state at u0 or an edge's
    prefix and last-edge share f = (1/(1 - u0) - qj) / (qk - qj)."""
    e, order = d - n, []
    for s in combo:
        if s.kind == "const":
            total = lcm(s.den, d)
            b = n * total // d
            order.append(("const", (total - b, b, s.offset * total // s.den)))
        else:
            order.append(("path", s.prefix, Fraction(d - s.w_hi * e, e * (s.w_lo - s.w_hi))))
    return tuple(order)


def _montesinos_candidates(expr, notes):
    """The Montesinos search: the type-I merge's closures with their tau,
    staged from their segments at u > 0 and from their descents' u = 0
    options at u = 0."""
    leaves = list(expr.leaves())
    per_leaf = [_type_ii_options(l.fraction) for l in leaves]
    for n, d, t, combo, note in _type_i_candidates(leaves, notes):
        if n:
            order = _type_i_stage(combo, n, d)
            yield t, note, order, partial(_type_i_picks, leaves, combo, order)
            continue
        picks, order = zip(*(opts[s.rank] for opts, s in zip(per_leaf, combo)))
        yield t, note, order, partial(list, picks)


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
    return _solve(expr, None, partial(_montesinos_candidates, expr))


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
