"""Structural moves on weighted surfaces: sum gluing and rotation-reflection.

Gluing two candidate surfaces along a tangle sum requires matching (a, b)
weights; the c weights add, as do slope-infinity edge counts. Two states
whose (a : b) directions agree always reach a common (a, b) by
replicating each side into parallel sheets, and `common_scaling` gives the
least such multipliers; `glue_scaled` does both steps and reduces the
result.

The tangle product reflects and quarter-rotates its left operand. On
weights (a, b, c) the move splits into four cases according to the special
boundary edges present, and for each case into a c > 0 and a c < 0 variant:

    case 1 (no slope-0, no slope-inf):  (a, |c|-a, sign(c)*(a+b))
    case 2 (slope-0 only):              (|c|, 0, sign(c)*(b+|c|)),
                                        a-|c| slope-inf edges out
    case 3 (t slope-inf only, t < a):   (a, |c|-a+t, sign(c)*(a-t))
    case 4 (both, t < a-|c|):           c > 0: (c+t, 0, c)
                                        c < 0: (|c|+t, 0, -c),
                                        a-t-|c| slope-inf edges out

The isotopy rotates m sheets around the knot: m = a in case 1, m = |c| in
cases 2 and 4, m = a-t in case 3. Its twist contribution is
tau' = -2m/a for c > 0 and +2m/a for c < 0.

The case-4 c < 0 output keeps the sign printed in the source calculus
(z = -c > 0); it is not the mirror of the c > 0 branch.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .diagram import WeightState
from .errors import (
    CasePreconditionViolated,
    Infeasible,
    MismatchedWeights,
    UndefinedCase,
)


def glue_sum(w1, w2):
    """Glue two states with identical (a, b); c and n_inf add."""
    if (w1.a, w1.b) != (w2.a, w2.b):
        raise MismatchedWeights(
            "cannot glue (a,b)=(%d,%d) with (a,b)=(%d,%d)" % (w1.a, w1.b, w2.a, w2.b)
        )
    return WeightState(
        w1.a, w1.b, w1.c + w2.c, w1.n_inf + w2.n_inf, w1.has_zero or w2.has_zero
    )


def common_scaling(w1, w2):
    """Least sheet multipliers (k1, k2) putting both states at a common
    (a, b); None when their (a : b) directions differ or a state has
    a = b = 0."""
    if w1.a * w2.b != w2.a * w1.b:
        return None
    s1 = gcd(w1.a, w1.b)
    s2 = gcd(w2.a, w2.b)
    if s1 == 0 or s2 == 0:
        return None
    common = lcm(s1, s2)
    return common // s1, common // s2


def glue_scaled(w1, w2):
    """Glue two states at their least common (a, b), reduced to primitive.

    Returns (glued state, (k1, k2)), or None when common_scaling gives
    None.
    """
    ks = common_scaling(w1, w2)
    if ks is None:
        return None
    return glue_sum(w1.scaled(ks[0]), w2.scaled(ks[1])).primitive(), ks


class TransformOutcome(namedtuple("TransformOutcome", "state case_id m tau_prime")):
    __slots__ = ()


def rotate_reflect(w):
    """Weights and twist bookkeeping after reflect + quarter rotation.

    Raises UndefinedCase for c = 0, CasePreconditionViolated when the
    slope-infinity count t falls outside the stated range of its case, and
    Infeasible when a strand count would go negative.
    """
    a, b, c, t = w.a, w.b, w.c, w.n_inf
    if c == 0:
        raise UndefinedCase("rotation transform is undefined for c = 0")
    sign = 1 if c > 0 else -1
    ac = abs(c)
    # rotated output never carries a slope-0 edge, so has_zero stays False
    if not w.has_zero and t == 0:
        case_id, m = 1, a
        out = WeightState(a, ac - a, sign * (a + b))
    elif w.has_zero and t == 0:
        case_id, m = 2, ac
        out = WeightState(ac, 0, sign * (b + ac), n_inf=a - ac)
    elif not w.has_zero:
        if t >= a:
            raise CasePreconditionViolated("case 3 needs t < a, got t=%d a=%d" % (t, a))
        case_id, m = 3, a - t
        out = WeightState(a, ac - a + t, sign * (a - t))
    else:
        if t >= a - ac:
            raise CasePreconditionViolated(
                "case 4 needs t < a - |c|, got t=%d a=%d |c|=%d" % (t, a, ac)
            )
        case_id, m = 4, ac
        out = WeightState(ac + t, 0, c if c > 0 else -c, n_inf=a - t - ac)
    tau_prime = Fraction(-2 * m, a) if c > 0 else Fraction(2 * m, a)
    if out.a < 0 or out.b < 0 or out.n_inf < 0:
        raise Infeasible("transform output %r has a negative strand count" % (out,))
    return TransformOutcome(out, case_id, m, tau_prime)
