"""The SN engine: the product-expression solve (closure at u = 0).

solve_sn handles expressions with at least one product, in three
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
"""

import sys
from bisect import bisect
from collections import namedtuple
from functools import lru_cache, partial
from math import gcd, inf, lcm

from .diagram import WeightState
from .edgepaths import LEAF_MEMO_SIZE, ConstantPath, leaf_descents, run_to, tau, u_zero_window
from .tangles import Leaf, Product, Sum


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
