"""Numerical toolkit for Kleinian-group limit sets built from glued surfaces.

Builds Fuchsian representations of one-holed surfaces, extends them by a
stable letter into hyperbolic 3-space, enumerates orbits of the graded
subgroup, and estimates limit-set dimension, critical exponents, growth
entropy and quasi-geodesic constants.
"""

__version__ = "0.1.0"

from .moebius import (  # noqa: F401
    BASEPOINT,
    HPoint,
    INF,
    MoebiusMap,
    SpherePoint,
    chordal,
    hdist,
)
