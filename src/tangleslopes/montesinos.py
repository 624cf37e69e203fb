"""The Montesinos engine: the Montesinos solve (full piecewise-linear closure).

solve_montesinos handles sums of three or more rational tangles. The
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
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from .diagram import WeightState
from .edgepaths import LEAF_MEMO_SIZE, ConstantPath, VertexPath, leaf_descents, tau

ONE = Fraction(1)


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
