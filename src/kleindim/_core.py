"""The batched kernels, in NumPy: 2x2 complex matrix products with det
renormalization and sign fixing, for the ball enumeration and the strata
frames; displacements; attracting fixed points and sphere coordinates
for limit-set samples.

One arithmetic rule makes every result the same on every CPU.  NumPy
picks its loops by the CPU's SIMD features, and its complex `*` (a fused
multiply-add where the CPU has one) and complex `np.abs` round
differently from one loop to another.  So every product of complex
arrays is `cmul`, from real products of the parts, and every modulus is
`cabs` (np.hypot); the rest is real arithmetic, NumPy's complex `/` and
complex `np.sqrt`, whose bits no loop changes.
`tests/test_report_bytes.py` checks the report with NumPy's dispatched
features disabled.  The known residual is `np.arccosh` in
`displacements`, whose last bits differ between loops; no report byte
has been seen to depend on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .moebius import FIXES_INF_TOL, LOXO_TOL, PIVOT_TOL, REAL_TOL

KERNEL_NAME = "numpy"

# items one pass of every batched kernel holds (products, frontier rows x
# columns, lift rows x axes, point pairs), so that no transient outgrows
# the kept data; each decides item by item, so no result depends on it
PASS_BUDGET = 1 << 15

_LEFT = ([0, 0, 2, 2], [1, 1, 3, 3])  # left entries (a, 0), (a, 1) of entry (a, c)
_RIGHT = ([0, 1, 0, 1], [2, 3, 2, 3])  # right entries (0, c), (1, c)
# 2 asinh(x) > LOXO_TOL exactly where x > sinh(LOXO_TOL / 2): asinh increases
_LOXO_X = math.sinh(LOXO_TOL / 2.0)


def cmul(x, y):
    """x * y for complex arrays (broadcast), from the real and imaginary
    parts: (xr yr - xi yi) + i (xr yi + xi yr), each product rounded."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def cabs(z):
    """|z| for a complex array: np.hypot of its parts."""
    return np.hypot(z.real, z.imag)


def c_quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) as CPython rounds it; a zero divisor gives
    NaN.  Only `dimension._box_counts` uses it, for the chart reciprocal
    1 / z: perfbench's box-count check recomputes the cells with CPython's
    rounding, which NumPy's 1 / z, a product by 1 / denominator, misses."""
    ar, ai, br, bi = (np.asarray(v, dtype=np.float64) for v in (ar, ai, br, bi))
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        re = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


# -- matrix products ---------------------------------------------------


def expand(left, right):
    """The products left[i] @ right[i] of (n, 4) complex128 rows (a, b, c,
    d), renormalized to det 1 but not sign-fixed: a row and its negative
    are the same map, so callers fix the sign (`fix_sign`) of the rows
    they keep.  `subgroup.enumerate_ball` hands it one pass at a time."""
    (f0, f1), (g0, g1) = _LEFT, _RIGHT
    with np.errstate(all="ignore"):
        out = cmul(left[:, f0], right[:, g0]) + cmul(left[:, f1], right[:, g1])
        det = cmul(out[:, 0], out[:, 3]) - cmul(out[:, 1], out[:, 2])
        out /= np.sqrt(det)[:, None]
    return out


def _sign_flips(mats):
    """The det-1 rows of `mats` whose sign representative is their
    negative, by the sign rule of moebius._canonical_sign and its
    PIVOT_TOL and REAL_TOL.  A det-1 row has an entry above PIVOT_TOL,
    where _canonical_sign finds its pivot."""
    # the first entry with modulus above the pivot threshold
    pivot = mats[np.arange(len(mats)), np.argmax(cabs(mats) > PIVOT_TOL, axis=1)]
    re, im = pivot.real, pivot.imag
    re_zero = np.abs(re) <= REAL_TOL * cabs(pivot)
    with np.errstate(invalid="ignore"):
        return np.where(re_zero, im < 0.0, re < 0.0)


def fix_sign(mats):
    """In place: the sign representative of each det-1 row (_sign_flips)."""
    flip = _sign_flips(mats)
    mats[flip] = -mats[flip]
    return mats


def compose(left, right):
    """The sign representatives of the det-1 products left[i] @ right[i]:
    `fix_sign` of `expand`.  Either side may be one (1, 4) row for all.
    A product that is not finite or is zero (a zero determinant, an
    overflow, a non-finite entry) raises NumericError."""
    out = fix_sign(expand(*np.broadcast_arrays(left, right)))
    if not (np.isfinite(out).all() and out.any(axis=1).all()):
        raise NumericError("singular matrix")
    return out


def displacements(mats):
    """Hyperbolic displacement of the base point (0, 1) for each row."""
    re, im = mats.real, mats.imag
    q = re * re + im * im
    # the four columns added in order, without the cost of a length-4
    # reduction
    s = (((q[:, 0] + q[:, 1]) + q[:, 2]) + q[:, 3]) / 2.0
    return np.arccosh(np.maximum(s, 1.0))


# -- limit-set sampling ------------------------------------------------


def attracting_points(mats):
    """Attracting fixed point of each row, by MoebiusMap's decisions:
    (loxodromic, z, infinite), z 0 where it is inf or not loxodromic.
    - Loxodromic: 2 Re acosh(w) > LOXO_TOL, w = tr / 2, where Re acosh(w)
      = asinh(Re s1 Re s2 + Im s1 Im s2), s1 = sqrt(w - 1), s2 = sqrt(w + 1).
    - Fixes inf: |c| <= FIXES_INF_TOL max |entry|; inf attracts when
      |a| > |d| or a = d, and the other fixed point is b / (d - a).
    - Else ((a - d) +- sqrt(tr^2 - 4)) / 2c, the attracting one with the
      larger |c z + d| (|derivative| = 1 / |c z + d|^2 < 1).
    A loxodromic row with a non-finite entry or fixed point raises
    NumericError."""
    a, b, c, d = (mats[:, k] for k in range(4))
    with np.errstate(all="ignore"):
        tr = a + d
        w = tr / 2.0
        s1, s2 = np.sqrt(w - 1.0), np.sqrt(w + 1.0)
        lox = s1.real * s2.real + s1.imag * s2.imag > _LOXO_X
        ha, hc, hd = cabs(a), cabs(c), cabs(d)
        scale = np.maximum(np.maximum(ha, cabs(b)), np.maximum(hc, hd))
        fixes_inf = hc <= FIXES_INF_TOL * scale
        disc = np.sqrt(cmul(tr, tr) - 4.0)
        z1, z2 = (a - d + disc) / (c + c), (a - d - disc) / (c + c)
        first = cabs(cmul(c, z1) + d) > cabs(cmul(c, z2) + d)
        z = np.where(fixes_inf, b / (d - a), np.where(first, z1, z2))
    infinite = lox & fixes_inf & ((ha > hd) | (d == a))
    z[~lox | infinite] = 0.0
    if not (np.isfinite(z).all() and np.isfinite(scale[lox]).all()):
        raise NumericError("loxodromic element with a non-finite fixed point")
    return lox, z, infinite


def sphere_xyz(z, infinite):
    """Unit-sphere coordinates (inverse stereographic projection), (0, 0, 1)
    at infinity; chordal distance is euclidean distance.  |z|^2 is
    pow(|z|, 2.0), as `abs(z) ** 2` forms it."""
    h = cabs(z)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.float_power(h, np.full_like(h, 2.0))
        xyz = np.stack([2.0 * z.real, 2.0 * z.imag, n - 1.0], axis=1) / (n + 1.0)[:, None]
    xyz[infinite] = (0.0, 0.0, 1.0)
    return xyz
