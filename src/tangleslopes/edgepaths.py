"""Edgepaths: the curves in the diagram that encode candidate surfaces.

An edgepath for a rational tangle p/q is either

* constant: a single point on the horizontal line v = p/q with
  u >= (q-1)/q, stored as an integer weight state, or
* a vertex path: a chain of adjacent vertices starting at <p/q>, moving
  monotonically leftward (non-increasing u), never retracing an edge and
  never cutting across a triangle, with an optional fractional share of the
  last edge.

The properties checked by `validate`:

* E1: a vertex path starts at the vertex of its own tangle; a constant
  point lies on the tangle's horizontal edge.
* E2: no retracing, and no two successive edges of one triangle.
* E4: u never increases along the path (vertical edges at u = 0 are fine).

The twist number tau of a path is 2*(e_minus - e_plus) where e_plus counts
slope-increasing edges and e_minus slope-decreasing ones; the last edge
counts fractionally when partial. Constants have tau = 0. tau is an int
unless the last edge is partial.

`enumerate_paths` lists the descents from <p/q> to the u = 0 line, and
`u_zero_window` gives the integers where a descent and its vertical runs
along that line end. The descents depend on p/q alone, so `leaf_descents`
walks each fraction once per process, in ints, and both engines and the
Seifert reference read that tuple. The product-expression solver builds its
per-tangle choices from both, and builds a run with `run_to` only where
it needs a witness; runs share their integer vertices through _INTEGERS,
a process cache with no bound. The Montesinos solver uses the descents
alone. The Seifert reference path of a tangle is one of its descents
(slopes.seifert_leaf_path).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .diagram import WeightState, is_edge, uv_coords, vertex_point, vertex_triple
from .errors import FractionalEndpoint

ONE = Fraction(1)

# entries kept by each per-fraction lru_cache of the package (here, in
# slopes and in solver): leaf fractions, or (fraction, c_bound) pairs
LEAF_MEMO_SIZE = 128


class ConstantPath(namedtuple("ConstantPath", "tangle state")):
    __slots__ = ()

    @property
    def is_constant(self):
        return True

    def describe(self):
        return ("const", self.state.triple())


class VertexPath(namedtuple("VertexPath", "tangle vertices final_fraction sheets",
                            defaults=(ONE, 1))):
    __slots__ = ()

    @property
    def is_constant(self):
        return False

    def describe(self):
        return ("path", self.vertices, self.final_fraction)


def validate(path):
    """Return the list of property violations; empty means the path is ok."""
    problems = []
    if path.is_constant:
        st = path.state
        p, q = path.tangle.numerator, path.tangle.denominator
        if st.a < 1 or st.b < 0:
            problems.append("E1: constant state %r is not a positive point" % (st,))
            return problems
        if st.c * q != p * (st.a + st.b):
            problems.append("E1: constant point is off the line v = %s" % path.tangle)
        if st.b * q < (q - 1) * (st.a + st.b):
            problems.append("E1: constant point lies left of the vertex <%s>" % path.tangle)
        return problems

    vs = path.vertices
    if not vs:
        return ["E1: empty vertex list"]
    if vs[0] != path.tangle:
        problems.append("E1: path starts at <%s>, not <%s>" % (vs[0], path.tangle))
    if not 0 < path.final_fraction <= 1:
        problems.append("final fraction %s outside (0, 1]" % (path.final_fraction,))
    if path.sheets < 1:
        problems.append("sheet count %d < 1" % path.sheets)
    for i in range(len(vs) - 1):
        if not is_edge(vs[i], vs[i + 1]):
            problems.append("adjacency: <%s>-<%s> is not an edge (index %d)" % (vs[i], vs[i + 1], i + 1))
    for i in range(len(vs) - 2):
        if vs[i + 2] == vs[i]:
            problems.append("E2: retraced edge at index %d" % (i + 2,))
        elif is_edge(vs[i], vs[i + 2]):
            problems.append("E2: two sides of one triangle at index %d" % (i + 2,))
    for i in range(len(vs) - 1):
        if vertex_point(vs[i + 1]).u > vertex_point(vs[i]).u:
            problems.append("E4: u increases at index %d" % (i + 1,))
    return problems


def end_weights(path):
    """Weight state at the end of the path, a partial last edge included.

    A partial edge ends at the barycentric mix (1-f) * previous + f * last of
    its two vertex states, cleared to integers; sheets multiply the result.
    """
    if path.is_constant:
        return path.state
    vs, f = path.vertices, path.final_fraction
    w2 = vertex_triple(vs[-1])
    if len(vs) == 1 or f == 1:
        return w2.scaled(path.sheets)
    w1 = vertex_triple(vs[-2])
    k1, k2 = f.denominator - f.numerator, f.numerator
    mixed = WeightState(
        k1 * w1.a + k2 * w2.a, k1 * w1.b + k2 * w2.b, k1 * w1.c + k2 * w2.c
    )
    return mixed.scaled(path.sheets)


def endpoint_state(path):
    """Integer weight state at the end of a path that ends on a vertex."""
    if not path.is_constant and path.final_fraction != 1:
        raise FractionalEndpoint(
            "path ends %s of the way along its last edge" % (path.final_fraction,)
        )
    return end_weights(path)


def endpoint_point(path):
    """Diagram coordinates of the end of the path, fractional edges included."""
    return uv_coords(end_weights(path))


def tau(path):
    """Twist number 2*(e_minus - e_plus), last edge weighted when partial.

    Whole steps count as an int, so a path that ends on a vertex (or a
    constant) has an int tau; only a partial last edge makes a Fraction.
    """
    if path.is_constant:
        return 0
    vs = path.vertices
    # b < a, cross-multiplied over the positive denominators
    steps = [
        2 if b.numerator * a.denominator < a.numerator * b.denominator else -2
        for a, b in zip(vs, vs[1:])
    ]
    if not steps or path.final_fraction == 1:
        return sum(steps)
    return sum(steps[:-1]) + steps[-1] * path.final_fraction


def enumerate_paths(start):
    """Every descent from <start> to an integer vertex on u = 0.

    A descent steps to a parent vertex (smaller denominator) each time and
    never cuts across a triangle. An integer start, on u = 0 already, has
    only its trivial one-vertex path. In the order of their vertices.

    The walk is in (p, q) int pairs on an explicit stack: the parents of
    p/q are r/s < p/q < (p - r)/(q - s) with s = p^-1 mod q, and a step
    cuts across a triangle when the integer determinant of the vertex
    before and the next one is +-1. The smaller parent is walked first,
    and no descent is a prefix of another, so the descents are found in
    the order of their vertices. Each distinct vertex becomes a Fraction once.
    """
    start = Fraction(start)
    ends, stack = [], [((start.numerator, start.denominator),)]
    while stack:
        vs = stack.pop()
        p, q = vs[-1]
        if q == 1:
            ends.append(vs)
            continue
        s = pow(p % q, -1, q)
        r = (p * s - 1) // q
        for nxt in ((p - r, q - s), (r, s)):
            if len(vs) < 2 or abs(vs[-2][0] * nxt[1] - vs[-2][1] * nxt[0]) != 1:
                stack.append(vs + (nxt,))
    vertex = {v: Fraction(*v) for v in set().union(*ends)}
    return [VertexPath(start, tuple(map(vertex.__getitem__, vs))) for vs in ends]


@lru_cache(maxsize=LEAF_MEMO_SIZE)
def leaf_descents(pq):
    """enumerate_paths(pq) as a tuple, walked once per process: the
    descents every solve and the Seifert reference read."""
    return tuple(enumerate_paths(pq))


def u_zero_window(descent, c_bound):
    """(lo, hi): the descent and its vertical runs end at exactly the
    integers lo..hi, none when lo > hi.

    A run walks along u = 0 away from the descent's endpoint m, one integer
    at a time, unless its first step cuts across a triangle; a trivial
    path (integer tangle) does not run. Both ends are clipped to +-c_bound.
    """
    vs = descent.vertices
    m = int(vs[-1])
    lo = hi = m
    if len(vs) > 1:
        if not is_edge(vs[-2], Fraction(m - 1)):
            lo = -c_bound
        if not is_edge(vs[-2], Fraction(m + 1)):
            hi = c_bound
    return max(lo, -c_bound), min(hi, c_bound)


class _Integers(dict):
    """k -> Fraction(k), each built once: the runs share their vertices.
    Unlike the memos it has no bound: one entry per integer a run reached
    in the process (933 after solve_sn(kn(30)), 3,663 after kn(60))."""

    def __missing__(self, k):
        value = self[k] = Fraction(k)
        return value


_INTEGERS = _Integers()


def run_to(descent, end):
    """The descent continued along u = 0 to the integer `end`; the descent
    itself when it already ends there."""
    vs = descent.vertices
    m = int(vs[-1])
    if end == m:
        return descent
    d = 1 if end > m else -1
    run = tuple(map(_INTEGERS.__getitem__, range(m + d, end + d, d)))
    return VertexPath(descent.tangle, vs + run)
