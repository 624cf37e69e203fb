"""Candidate boundary slopes of algebraic tangle closures.

Rational tangles combine by sum and product; closing the result gives an
arborescent knot. Surfaces in the complement are tracked as edgepaths in
the (u, v) strip with integer weight triples, glued across tangle sums,
pushed through the rotation transform at products, and closed at the
axis. The slope of each surviving system is its twist number relative to
the Seifert reference. Everything is exact rational arithmetic.

>>> from tangleslopes import kn, solve_sn
>>> rep = solve_sn(kn(2))
>>> [str(s) for s in rep.certified]
['-14', '14']
"""

from .diagram import WeightState, uv_coords
from .edgepaths import ConstantPath, VertexPath
from .errors import (
    CasePreconditionViolated,
    DegeneratePoint,
    FamilyCheckFailed,
    FamilyRange,
    FractionalEndpoint,
    Infeasible,
    MismatchedWeights,
    ParseError,
    SeifertUndefined,
    TangleSlopesError,
    UndefinedCase,
    UnsupportedShape,
    ZeroDenominator,
)
from .slopes import CandidateSystem, NodeTrace, verify_system
from .solver import SlopeReport, kn_system, solve, solve_montesinos, solve_sn
from .tangles import Leaf, Product, Sum, TangleExpr, kn, parse, render

__version__ = "0.1.0"

__all__ = [
    # entry points
    "kn",
    "kn_system",
    "parse",
    "render",
    "render_svg",
    "render_tsv",
    "solve",
    "solve_montesinos",
    "solve_sn",
    "uv_coords",
    "verify_system",
    # what a report holds
    "CandidateSystem",
    "ConstantPath",
    "Leaf",
    "NodeTrace",
    "Product",
    "SlopeReport",
    "Sum",
    "TangleExpr",
    "VertexPath",
    "WeightState",
    # errors
    "CasePreconditionViolated",
    "DegeneratePoint",
    "FamilyCheckFailed",
    "FamilyRange",
    "FractionalEndpoint",
    "Infeasible",
    "MismatchedWeights",
    "ParseError",
    "SeifertUndefined",
    "TangleSlopesError",
    "UndefinedCase",
    "UnsupportedShape",
    "ZeroDenominator",
    "__version__",
]


def __getattr__(name):
    # plotting loads on first use: a CLI call that draws nothing skips it
    if name in ("render_svg", "render_tsv"):
        from . import plotting

        return getattr(plotting, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
