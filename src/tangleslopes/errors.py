"""Exception types shared across the package."""


class TangleSlopesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TangleSlopesError):
    """Bad expression text. Carries the offending token position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ZeroDenominator(ParseError):
    """A fraction with denominator 0, e.g. "1/0"."""


class FamilyRange(TangleSlopesError):
    """Family index out of range; the kn family starts at n = 2."""


class DegeneratePoint(TangleSlopesError):
    """Weight state with a + b <= 0 cannot be mapped to coordinates."""


class FractionalEndpoint(TangleSlopesError):
    """Integer endpoint state requested for a path with a partial last edge."""


class MismatchedWeights(TangleSlopesError):
    """glue_sum called on states whose (a, b) weights differ, or replay
    gluing states whose (a : b) directions differ."""


class UndefinedCase(TangleSlopesError):
    """rotate_reflect called with c = 0; the transform splits on sign(c)."""


class Infeasible(TangleSlopesError):
    """A transform produced a negative strand count."""


class CasePreconditionViolated(TangleSlopesError):
    """Slope-infinity edge count outside the stated range of the case."""


class SeifertUndefined(TangleSlopesError):
    """Slope normalization unavailable: some Montesinos factor of the
    expression has no leaf with even denominator."""


class UnsupportedShape(TangleSlopesError):
    """Expression shape outside the solvers' scope."""


class FamilyCheckFailed(TangleSlopesError):
    """A value in the family witness system disagrees with its closed form."""
