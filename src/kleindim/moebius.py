"""SL(2,C) Mobius maps and hyperbolic metric primitives.

Matrices act on the Riemann sphere by z -> (az+b)/(cz+d) and on upper
half-space {(z,t) : t > 0} through the Poincare extension.  Every map is
stored det-normalized and sign-canonicalized, so M and -M have a single
representative and matrices can be compared entrywise.
"""

from __future__ import annotations

import cmath
import math

from .errors import ElementNotLoxodromic, NumericError

LOXO_TOL = 1e-9
# |c| <= FIXES_INF_TOL * max|entry|: the map is taken to fix infinity
FIXES_INF_TOL = 1e-14
# the sign rule of canonical representatives: the first entry of modulus
# above PIVOT_TOL gets positive real part or, when the real part is at
# most REAL_TOL times that modulus, positive imaginary part
PIVOT_TOL = 1e-9
REAL_TOL = 1e-12


class SpherePoint:
    """A point of the Riemann sphere: a finite complex number or infinity."""

    __slots__ = ("z", "infinite")

    def __init__(self, z=0j, infinite=False):
        if infinite:
            self.z = 0j
        else:
            z = complex(z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("finite SpherePoint with non-finite value; use INF")
            self.z = z
        self.infinite = bool(infinite)

    def __repr__(self):
        return "SpherePoint(inf)" if self.infinite else f"SpherePoint({self.z})"


INF = SpherePoint(infinite=True)


def sphere_point(z):
    if isinstance(z, SpherePoint):
        return z
    return SpherePoint(z)


def chordal(p, q):
    """Chordal distance: euclidean distance on the unit-sphere model, max 2."""
    p, q = sphere_point(p), sphere_point(q)
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite or q.infinite:
        w = q.z if p.infinite else p.z
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    return 2.0 * abs(p.z - q.z) / math.sqrt((1.0 + abs(p.z) ** 2) * (1.0 + abs(q.z) ** 2))


class HPoint:
    """Point of upper half-space: horizontal complex part z, height t > 0."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        t = float(t)
        if not t > 0.0:
            raise ValueError("height must be positive")
        self.z = complex(z)
        self.t = t

    def __repr__(self):
        return f"HPoint({self.z}, {self.t})"


BASEPOINT = HPoint(0j, 1.0)


def hdist(p, q):
    """Hyperbolic distance in upper half-space."""
    num = abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2
    return math.acosh(1.0 + num / (2.0 * p.t * q.t))


class MoebiusMap:
    """Unit-determinant 2x2 complex matrix, sign-canonicalized."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, _normalized=False):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if not _normalized:
            det = a * d - b * c
            if det == 0:
                raise NumericError("singular matrix")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
            a, b, c, d = _canonical_sign(a, b, c, d)
        self.a, self.b, self.c, self.d = a, b, c, d

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1, _normalized=True)

    @classmethod
    def diagonal(cls, lam):
        return cls(lam, 0, 0, 1.0 / complex(lam))

    @classmethod
    def vertical_translation(cls, length):
        """Translation by `length` along the axis {0, inf}."""
        return cls.diagonal(cmath.exp(length / 2.0))

    @classmethod
    def vertical_rotation(cls, angle):
        """Rotation by `angle` about the axis {0, inf} (z -> e^{i angle} z)."""
        return cls.diagonal(cmath.exp(1j * angle / 2.0))

    # -- basic algebra ------------------------------------------------

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def compose(self, other):
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self):
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, q):
        """q self q^{-1}."""
        return q @ self @ q.inverse()

    def dist(self, other):
        """Max entrywise distance between the canonical representatives."""
        return max(
            abs(x - y) for x, y in zip(self.entries(), other.entries())
        )

    def __repr__(self):
        return f"MoebiusMap({self.a}, {self.b}, {self.c}, {self.d})"

    # -- actions ------------------------------------------------------

    def apply(self, p):
        if isinstance(p, HPoint):
            return self._apply_hpoint(p)
        p = sphere_point(p)
        a, b, c, d = self.entries()
        if p.infinite:
            if abs(c) == 0.0:
                return INF
            return SpherePoint(a / c)
        den = c * p.z + d
        if abs(den) == 0.0:
            return INF
        return SpherePoint((a * p.z + b) / den)

    def _apply_hpoint(self, p):
        a, b, c, d = self.entries()
        z, t = p.z, p.t
        u = c * z + d
        den = abs(u) ** 2 + (abs(c) * t) ** 2
        znew = ((a * z + b) * u.conjugate() + a * c.conjugate() * t * t) / den
        return HPoint(znew, t / den)

    # -- classification -----------------------------------------------

    def complex_translation_length(self):
        """2 arccosh(tr/2), principal branch (real part >= 0)."""
        return 2.0 * cmath.acosh(self.trace() / 2.0)

    def is_loxodromic(self):
        return self.complex_translation_length().real > LOXO_TOL

    def translation_length(self):
        ell = self.complex_translation_length().real
        if ell <= LOXO_TOL:
            raise ElementNotLoxodromic(f"translation length {ell} not positive")
        return ell

    def fixed_points(self):
        """(attracting, repelling) fixed points of a loxodromic map."""
        if not self.is_loxodromic():
            raise ElementNotLoxodromic("fixed points require a loxodromic map")
        a, b, c, d = self.entries()
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if abs(c) <= FIXES_INF_TOL * scale:
            # Fixes infinity; the other fixed point solves (a-d) z = -b.
            other = SpherePoint(b / (d - a)) if abs(d - a) > 0 else INF
            if abs(a) > abs(d):
                return INF, other
            return other, INF
        disc = cmath.sqrt(self.trace() ** 2 - 4.0)
        z1 = ((a - d) + disc) / (2.0 * c)
        z2 = ((a - d) - disc) / (2.0 * c)
        # Attracting fixed point has |derivative| = 1/|c z + d|^2 < 1.
        if abs(c * z1 + d) > abs(c * z2 + d):
            return SpherePoint(z1), SpherePoint(z2)
        return SpherePoint(z2), SpherePoint(z1)

    def conjugator_to_standard(self):
        """Q with Q M Q^{-1} diagonal, attracting point sent to inf."""
        att, rep = self.fixed_points()
        return _frame_from_endpoints(att, rep)


def _canonical_sign(a, b, c, d):
    for z in (a, b, c, d):
        if abs(z) > PIVOT_TOL:
            if abs(z.real) <= REAL_TOL * abs(z):
                flip = z.imag < 0
            else:
                flip = z.real < 0
            if flip:
                return -a, -b, -c, -d
            return a, b, c, d
    return a, b, c, d


def _frame_from_endpoints(att, rep):
    """Mobius map sending att -> inf and rep -> 0."""
    if att.infinite and rep.infinite:
        raise ValueError("coincident endpoints")
    if att.infinite:
        return MoebiusMap(1, -rep.z, 0, 1)
    if rep.infinite:
        return MoebiusMap(0, 1, 1, -att.z)
    return MoebiusMap(1, -rep.z, 1, -att.z)
