"""Geometry of the Hatcher-Oertel diagram.

A candidate surface inside a rational tangle meets the tangle sphere in a
train track with weights (a, b, c): a strands through the middle, b around
it, and c counting boundary slope. The diagram places such a state at

    u = b / (a + b),    v = c / (a + b)

inside the strip 0 <= u <= 1. The vertex <p/q> is the state (1, q-1, p),
sitting at ((q-1)/q, p/q). Vertices p/q and r/s span an edge exactly when
|p*s - q*r| = 1; this includes the vertical edges <m>-<m+1> between integer
vertices on the u = 0 line. Three pairwise adjacent vertices bound a
triangle, always of the form {p/q, r/s, (p+r)/(q+s)}.

The diagram is infinite, so it is kept implicit: an adjacency predicate plus
parent generation, no stored graph.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DegeneratePoint


@dataclass(frozen=True)
class WeightState:
    """Train-track weights plus special boundary-edge bookkeeping.

    n_inf counts slope-infinity boundary edges; has_zero records whether
    slope-0 boundary edges are present. States built from edgepaths carry
    n_inf = 0 and has_zero = False, and gluing two such states or rotating
    one (case 1 of transforms.rotate_reflect) keeps both at that; so every
    state the solvers build is its triple(). Other values reach only cases
    2-4 of the rotation, from states built by hand.
    """

    a: int
    b: int
    c: int
    n_inf: int = 0
    has_zero: bool = False

    def scaled(self, k):
        """The k-sheeted copy: all strand counts multiply."""
        return WeightState(self.a * k, self.b * k, self.c * k, self.n_inf * k, self.has_zero)

    def primitive(self):
        """Divide out the common factor of all strand counts."""
        g = gcd(gcd(self.a, self.b), gcd(abs(self.c), self.n_inf))
        if g <= 1:
            return self
        return WeightState(self.a // g, self.b // g, self.c // g, self.n_inf // g, self.has_zero)

    def triple(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class DiagramPoint:
    u: Fraction
    v: Fraction


def vertex_triple(pq):
    """The weight state (1, q-1, p) of the vertex <p/q>."""
    pq = Fraction(pq)
    return WeightState(1, pq.denominator - 1, pq.numerator)


def uv_coords(w):
    """Exact diagram coordinates of a weight state."""
    total = w.a + w.b
    if total <= 0:
        raise DegeneratePoint("state %r has a + b <= 0" % (w,))
    return DiagramPoint(Fraction(w.b, total), Fraction(w.c, total))


def vertex_point(pq):
    """Diagram coordinates ((q-1)/q, p/q) of the vertex <p/q>."""
    pq = Fraction(pq)
    return DiagramPoint(Fraction(pq.denominator - 1, pq.denominator), pq)


def is_edge(pq, rs):
    """Whether the distinct vertices <p/q> and <r/s> span a diagram edge."""
    pq = Fraction(pq)
    rs = Fraction(rs)
    det = pq.numerator * rs.denominator - pq.denominator * rs.numerator
    return abs(det) == 1


def parents(pq):
    """The two adjacent vertices of strictly smaller denominator.

    These are the continued-fraction splittings of p/q: the fractions
    r1/s1, r2/s2 with r1+r2 = p and s1+s2 = q. Needs q >= 2.
    """
    pq = Fraction(pq)
    p, q = pq.numerator, pq.denominator
    if q < 2:
        raise ValueError("integer vertex %s has no parents in the strip" % pq)
    # solve p*s = 1 (mod q) with 1 <= s < q
    s = pow(p % q, -1, q)
    r = (p * s - 1) // q
    first = Fraction(r, s)
    second = Fraction(p - r, q - s)
    return tuple(sorted((first, second), key=lambda f: (f.denominator, f)))
