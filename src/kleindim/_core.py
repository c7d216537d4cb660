"""The batched kernels, in NumPy: 2x2 complex matrix products, det
renormalization and sign fixing for the ball enumeration; attracting
fixed points and sphere coordinates for limit-set samples; Moebius
products as MoebiusMap.compose forms them, for the strata tree.
"""

from __future__ import annotations

import math

import numpy as np

from .moebius import FIXES_INF_TOL, LOXO_TOL, PIVOT_TOL, REAL_TOL, MoebiusMap

KERNEL_NAME = "numpy"


# -- ball enumeration --------------------------------------------------
#
# expand must give, for each pair of rows, the bytes that
# np.einsum("nab,kbc->nkac") followed by the det renormalization gave, so
# the products replay einsum's complex sum of products on real arrays:
# each component is a sum of two complex products, accumulated from +0.0,
# and `0.0 + p` turns a first product of -0.0 into +0.0 as einsum does.
# tests/test_core.py checks the mirror against einsum bit for bit.

_LEFT = ([0, 0, 2, 2], [1, 1, 3, 3])  # left entries (a, 0), (a, 1) of entry (a, c)
_RIGHT = ([0, 1, 0, 1], [2, 3, 2, 3])  # right entries (0, c), (1, c)
# items one pass of every batched kernel holds (products, frontier rows x
# columns, lift rows x axes, point pairs), so that no transient outgrows
# the kept data; each decides item by item, so no result depends on it
PASS_BUDGET = 1 << 15


def _products(left, right, out):
    """Fill out, (n, 4) complex128, with the rows left[i] @ right[i] as
    np.einsum("nab,kbc->nkac") computes each of them."""
    lr, li, rr, ri = left.real, left.imag, right.real, right.imag
    (f0, f1), (g0, g1) = _LEFT, _RIGHT
    x0, y0, x1, y1 = lr[:, f0], li[:, f0], lr[:, f1], li[:, f1]
    u0, v0, u1, v1 = rr[:, g0], ri[:, g0], rr[:, g1], ri[:, g1]
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = (0.0 + (x0 * u0 - y0 * v0)) + (x1 * u1 - y1 * v1)
        out.imag = (0.0 + (x0 * v0 + y0 * u0)) + (x1 * v1 + y1 * u1)


def expand(left, right):
    """The products left[i] @ right[i], renormalized to det 1.

    left, right: (n, 4) complex128 rows (a, b, c, d); returns (n, 4).
    `subgroup.enumerate_ball` hands it one ball pass at a time.  Rows are
    not sign-fixed: a row and its negative are the same map, so callers
    fix the sign (`fix_sign`) of the rows they keep.
    """
    out = np.empty((len(left), 4), dtype=np.complex128)
    _products(left, right, out)
    det = out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= np.sqrt(det)[:, None]
    return out


def _sign_flips(mats):
    """The det-1 rows of `mats` whose sign representative is their
    negative, by the sign rule of moebius._canonical_sign and its
    PIVOT_TOL and REAL_TOL.  A det-1 row has an entry above PIVOT_TOL,
    where _canonical_sign finds its pivot."""
    big = np.abs(mats) > PIVOT_TOL
    # the first entry with modulus above the pivot threshold
    pivot = mats[np.arange(len(mats)), np.argmax(big, axis=1)]
    re, im = pivot.real, pivot.imag
    re_zero = np.abs(re) <= REAL_TOL * np.abs(pivot)
    with np.errstate(invalid="ignore"):
        return np.where(re_zero, im < 0.0, re < 0.0)


def fix_sign(mats):
    """In place: the sign representative of each det-1 row (_sign_flips).

    mats: (n, 4) complex128 rows (a, b, c, d).
    """
    flip = _sign_flips(mats)
    with np.errstate(invalid="ignore"):
        mats[flip] *= -1.0
    return mats


def displacements(mats):
    """Hyperbolic displacement of the base point (0, 1) for each row."""
    # the four columns added in order, as np.sum(axis=1) adds them, without
    # the cost of a length-4 reduction
    q = np.abs(mats) ** 2
    s = (((q[:, 0] + q[:, 1]) + q[:, 2]) + q[:, 3]) / 2.0
    return np.arccosh(np.maximum(s, 1.0))


# -- limit-set sampling ------------------------------------------------
#
# Sample coordinates must come out bit for bit as MoebiusMap.fixed_points
# and abs(z) ** 2 compute them one map at a time, so the kernel replays
# CPython's complex arithmetic on real arrays: products and quotients as
# _Py_c_prod and _Py_c_quot, a float in a mixed operation promoted to a
# complex (2.0 * c is (2 + 0j) * c), tr ** 2 as (1 + 0j) * (tr * tr),
# cmath.sqrt's own algorithm, abs() as hypot and abs(z) ** 2 as
# pow(h, 2.0), which h * h misses in the last bit.  tests/test_core.py
# checks each primitive against CPython.

_DBL_MIN = float(np.finfo(np.float64).tiny)
# cmath.acosh switches to its large-argument formula above this
_CM_LARGE = float(np.finfo(np.float64).max) / 4.0


def c_prod(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) as CPython rounds it."""
    return ar * br - ai * bi, ar * bi + ai * br


def c_quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) as CPython rounds it, but a zero divisor
    gives NaN, where CPython raises ZeroDivisionError, and a NaN part of
    the divisor gives a NaN of its sign, where CPython gives +NaN.
    growth._image_endpoints, which meets both, reads no NaN's sign and
    marks a zero divisor undefined wherever its threshold is positive."""
    ar, ai, br, bi = (np.asarray(v, dtype=np.float64) for v in (ar, ai, br, bi))
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        re = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def c_sqrt(re, im):
    """cmath.sqrt(re + i im) by CPython's algorithm: (real, imag, ok).

    `ok` is False where CPython would take another route: a non-finite
    input, or both parts below DBL_MIN without both being zero.
    """
    ax, ay = np.abs(re), np.abs(im)
    zero = (re == 0.0) & (im == 0.0)
    ok = np.isfinite(re) & np.isfinite(im) & (zero | (ax >= _DBL_MIN) | (ay >= _DBL_MIN))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ax = ax / 8.0
        s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
        d = ay / (2.0 * s)
    pos = re >= 0.0
    out_re = np.where(zero, 0.0, np.where(pos, s, d))
    out_im = np.where(zero, im, np.copysign(np.where(pos, d, s), im))
    return out_re, out_im, ok


def compose(left, right):
    """The rows MoebiusMap.compose gives for left[i] @ right[i], bit for
    bit: CPython's complex products and sums, the determinant renormalized
    by cmath.sqrt and the sign rule of moebius._canonical_sign, applied by
    negation (CPython's -z, which keeps the signs of zeros that a product
    by -1.0 would change).

    left, right: (n, 4) complex128 rows (a, b, c, d); either may be one
    (1, 4) row for all.  Rows outside the mirrored domain (a non-finite
    entry, a zero determinant, cmath.sqrt's subnormal branch) go through
    MoebiusMap itself, so a singular product raises NumericError.
    """
    left, right = np.broadcast_arrays(left, right)
    (f0, f1), (g0, g1) = _LEFT, _RIGHT
    out = np.empty(left.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each entry a sum of two products as CPython adds them, not from
        # +0.0 as _products does
        pr, pi = c_prod(left.real[:, f0], left.imag[:, f0], right.real[:, g0], right.imag[:, g0])
        qr, qi = c_prod(left.real[:, f1], left.imag[:, f1], right.real[:, g1], right.imag[:, g1])
        xr, xi = pr + qr, pi + qi
        pr, pi = c_prod(xr[:, 0], xi[:, 0], xr[:, 3], xi[:, 3])
        qr, qi = c_prod(xr[:, 1], xi[:, 1], xr[:, 2], xi[:, 2])
        det_r, det_i = pr - qr, pi - qi
        sr, si, ok = c_sqrt(det_r, det_i)
        out.real, out.imag = c_quot(xr, xi, sr[:, None], si[:, None])
    ok &= ((det_r != 0.0) | (det_i != 0.0)) & np.isfinite(out).all(axis=1)
    flip = _sign_flips(out) & ok
    out[flip] = -out[flip]
    for i in np.flatnonzero(~ok).tolist():
        m = MoebiusMap(*left[i].tolist(), _normalized=True)
        out[i] = m.compose(MoebiusMap(*right[i].tolist(), _normalized=True)).entries()
    return out


def acosh_real_arg(re, im):
    """x with cmath.acosh(re + i im).real == asinh(x), by CPython's formula
    x = s1.re s2.re + s1.im s2.im, s1 = sqrt(z - 1), s2 = sqrt(z + 1):
    (x, ok), `ok` False outside that formula's domain."""
    s1r, s1i, ok1 = c_sqrt(re - 1.0, im)
    s2r, s2i, ok2 = c_sqrt(re + 1.0, im)
    ok = ok1 & ok2 & (np.abs(re) <= _CM_LARGE) & (np.abs(im) <= _CM_LARGE)
    return s1r * s2r + s1i * s2i, ok


def _loxodromic(tr_re, tr_im):
    """MoebiusMap.is_loxodromic from the trace: 2 Re acosh(tr / 2) > LOXO_TOL.

    NumPy's arcsinh may differ from libm's in the last bits, so values
    near the threshold are decided by math.asinh.  Returns (mask, ok).
    """
    hr, hi = c_quot(tr_re, tr_im, 2.0, 0.0)
    x, ok = acosh_real_arg(hr, hi)
    with np.errstate(invalid="ignore"):
        ell = 2.0 * np.arcsinh(x)
    near = np.flatnonzero(np.abs(ell - LOXO_TOL) <= 1e-9 * LOXO_TOL)
    ell[near] = [2.0 * math.asinh(v) for v in x[near].tolist()]
    return ell > LOXO_TOL, ok


def _finite(*parts):
    return np.logical_and.reduce([np.isfinite(p) for p in parts])


def attracting_points(mats):
    """Attracting fixed point of each row, as MoebiusMap.is_loxodromic and
    MoebiusMap.fixed_points find it.

    mats: (n, 4) complex128 rows (a, b, c, d).  Returns (loxodromic, z,
    infinite, scalar_rows): z holds the attracting point, 0 where it is
    infinity or the row is not loxodromic.  Rows outside the mirrored
    domain (non-finite intermediates, cmath.sqrt's subnormal branch,
    cmath.acosh's large-argument branch) go through MoebiusMap itself;
    `scalar_rows` counts them.
    """
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((mats[:, k].real, mats[:, k].imag)
                                              for k in range(4))
    ha, hb, hc, hd = (np.hypot(mats[:, k].real, mats[:, k].imag) for k in range(4))
    tr_r, tr_i = ar + dr, ai + di
    lox, ok = _loxodromic(tr_r, tr_i)
    scale = np.maximum(np.maximum(ha, hb), np.maximum(hc, hd))
    fixes_inf = hc <= FIXES_INF_TOL * scale

    # fixes infinity: the other fixed point solves (a - d) z = -b
    dar, dai = dr - ar, di - ai
    no_other = (dar == 0.0) & (dai == 0.0)
    other_r, other_i = c_quot(br, bi, dar, dai)
    at_inf = (ha > hd) | no_other
    ok_inf = no_other | _finite(other_r, other_i)

    # otherwise ((a - d) +- sqrt(tr ** 2 - 4)) / (2 c)
    with np.errstate(over="ignore", invalid="ignore"):
        qr, qi = c_prod(1.0, 0.0, *c_prod(tr_r, tr_i, tr_r, tr_i))
        sr, si, ok_sqrt = c_sqrt(qr - 4.0, qi - 0.0)
        amd_r, amd_i = ar - dr, ai - di
        c2r, c2i = c_prod(2.0, 0.0, cr, ci)
        z1r, z1i = c_quot(amd_r + sr, amd_i + si, c2r, c2i)
        z2r, z2i = c_quot(amd_r - sr, amd_i - si, c2r, c2i)
        w1r, w1i = c_prod(cr, ci, z1r, z1i)
        w2r, w2i = c_prod(cr, ci, z2r, z2i)
        w1 = np.hypot(w1r + dr, w1i + di)
        w2 = np.hypot(w2r + dr, w2i + di)
    # the attracting point has |derivative| = 1 / |c z + d|^2 < 1
    first = w1 > w2
    ok_two = ok_sqrt & _finite(z1r, z1i, z2r, z2i, w1, w2)

    ok &= np.isfinite(scale) & (~lox | np.where(fixes_inf, ok_inf, ok_two))
    infinite = fixes_inf & at_inf
    z = np.empty(len(mats), dtype=np.complex128)
    z.real = np.where(fixes_inf, np.where(at_inf, 0.0, other_r), np.where(first, z1r, z2r))
    z.imag = np.where(fixes_inf, np.where(at_inf, 0.0, other_i), np.where(first, z1i, z2i))

    scalar = np.flatnonzero(~ok)
    for i in scalar.tolist():
        m = MoebiusMap(*mats[i].tolist(), _normalized=True)
        lox[i] = m.is_loxodromic()
        if lox[i]:
            att = m.fixed_points()[0]
            z[i], infinite[i] = att.z, att.infinite
    z[~lox] = 0.0
    infinite &= lox
    return lox, z, infinite, len(scalar)


def sphere_xyz(z, infinite):
    """Unit-sphere coordinates (inverse stereographic projection), (0, 0, 1)
    at infinity; chordal distance is euclidean distance."""
    h = np.hypot(z.real, z.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.float_power(h, np.full_like(h, 2.0))
        xyz = np.stack([2.0 * z.real, 2.0 * z.imag, n - 1.0], axis=1) / (n + 1.0)[:, None]
    xyz[infinite] = (0.0, 0.0, 1.0)
    return xyz
