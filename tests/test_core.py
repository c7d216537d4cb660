"""Accuracy and arithmetic of the batched kernels in `_core`.

The kernels follow one arithmetic rule (`_core`'s docstring): complex
products by `cmul`, moduli by `cabs` (np.hypot), and otherwise real
arithmetic, NumPy's complex `/` and complex `np.sqrt`.  These tests
check three things.
- What each kernel computes, against 50-digit mpmath arithmetic on
  seeded rows, each within the bound its test states: `expand` and
  `compose`, `attracting_points` in chordal distance, its loxodromic
  decision (exact outside a stated band around LOXO_TOL),
  `growth._image_endpoints` and `sphere_xyz`.
- The primitives that must round as CPython does: `cmul` (CPython's
  complex product), `cabs` (abs), np.float_power (pow: `sphere_xyz`
  forms |z|^2 as `abs(z) ** 2` does) and `c_quot` (the chart reciprocal
  of `dimension._box_counts`, which perfbench recomputes in CPython's
  rounding).
- The sign rule, `displacements`' order of summation and the
  NumericError paths.
That no kernel's bits depend on the SIMD paths NumPy picks for the CPU
is checked on the whole pipeline, by `tests/test_report_bytes.py`.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from kleindim import _core, growth, moebius
from kleindim.errors import NumericError
from kleindim.moebius import LOXO_TOL, PIVOT_TOL, REAL_TOL, MoebiusMap

U = 2.0**-53  # unit roundoff
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0, 1e-300, -1e-300, 2.5e-308,
            1e150, -1e150, 1e-150]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(got) & np.isnan(want)
    return bool(np.all((got.view(np.int64) == want.view(np.int64)) | nan))


def _reals(seed, n=20_000, top=150):
    """Seeded reals of both signs from 1e-top to 1e+top, plus signed zeros
    and other edge values."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-top, top, n)
    return np.concatenate([x, _SPECIAL])


def _pairs(seed, n=20_000, top=150):
    """Seeded (re, im) pairs, plus every pair of edge values."""
    re, im = _reals(seed, n, top), _reals(seed + 1, n, top)
    sr, si = np.meshgrid(_SPECIAL, _SPECIAL)
    return np.concatenate([re, sr.ravel()]), np.concatenate([im, si.ravel()])


def _complex(re, im):
    """The complex array with these parts, set part by part (re + 1j * im
    would turn an infinite part into a NaN in the other)."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def _split(zs):
    z = np.array(zs, dtype=np.complex128)
    return z.real, z.imag


def _mp(z):
    return mpmath.mpc(complex(z))


def _chordal(z, w):
    return 2 * abs(z - w) / mpmath.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))


# -- primitives that round as CPython does -----------------------------


def test_float_power_is_libm_pow():
    # abs(z) ** 2 is pow(h, 2.0), which h * h misses in the last bit
    h = np.abs(_reals(0, top=150))
    got = np.float_power(h, np.full_like(h, 2.0))
    assert _same_bits(got, [math.pow(v, 2.0) for v in h.tolist()])
    assert _same_bits(got, [v ** 2 for v in h.tolist()])


def test_hypot_is_complex_abs():
    re, im = _pairs(1, top=300)
    want = [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    assert _same_bits(_core.cabs(_complex(re, im)), want)


def test_quotient_and_product_mirrors():
    ar, ai = _pairs(3)
    br, bi = _pairs(4)
    nonzero = (br != 0) | (bi != 0)
    ar, ai, br, bi = ar[nonzero], ai[nonzero], br[nonzero], bi[nonzero]
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    want_re, want_im = _split([x / y for x, y in zip(a, b)])
    got = _core.c_quot(ar, ai, br, bi)
    assert _same_bits(got[0], want_re) and _same_bits(got[1], want_im)
    with np.errstate(all="ignore"):
        got = _core.cmul(_complex(ar, ai), _complex(br, bi))
    want_re, want_im = _split([x * y for x, y in zip(a, b)])
    assert _same_bits(got.real, want_re) and _same_bits(got.imag, want_im)


def test_quotient_departs_from_cpython_only_as_documented():
    # a NaN part of the divisor gives a NaN of its sign, where CPython
    # returns +nan
    got = _core.c_quot(-1.0, 0.0, -math.inf, -math.nan)
    want = complex(-1.0, 0.0) / complex(-math.inf, -math.nan)
    assert np.isnan(got).all() and np.signbit(got).all()
    assert math.isnan(want.real) and not np.signbit([want.real, want.imag]).any()
    # a zero divisor gives NaN, where CPython raises
    assert np.isnan(_core.c_quot(math.nan, 0.0, 0.0, 0.0)).all()
    with pytest.raises(ZeroDivisionError):
        complex(math.nan, 0.0) / complex(0.0, 0.0)


# -- matrix products -----------------------------------------------------


def _matrices(seed, n):
    """Seeded (n, 4) complex rows with parts from 1e-300 to 1e150 in
    magnitude; a third of the parts are signed zeros, subnormals or huge
    values whose products overflow to inf and then to nan."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, n, 4)) * 10.0 ** rng.uniform(-300, 150, (2, n, 4))
    edge = rng.random((2, n, 4)) < 1 / 3
    parts[edge] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e200, -1e300], edge.sum(),
                             p=[0.35, 0.35, 0.1, 0.1, 0.05, 0.05])
    return parts[0] + 1j * parts[1]


def _unit_rows(seed, n):
    """Seeded det-1 rows (a, b, c, (1 + b c) / a), with pure imaginary,
    tiny and exactly zero entries where the sign fix picks its pivot."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    a[::5] = 1j * a[::5].imag
    a[1::5] = -1j * np.abs(a[1::5])
    b[2::5] = 1e-12 * b[2::5]
    b[3::5] = complex(-0.0, 0.0)
    c[3::5] = 0.0
    a[4::7] *= 1e-10
    return np.stack([a, b, c, (1.0 + b * c) / a], axis=1)


def _spread_rows(seed, n, spread):
    """Seeded det-1 rows whose entries a, b, c have moduli from
    e^-spread to e^spread."""
    rng = np.random.default_rng(seed)
    a, b, c = ((rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
               * np.exp(rng.uniform(-spread, spread, (3, n))))
    return np.stack([a, b, c, (1.0 + b * c) / a], axis=1)


def _mp_product(x, y):
    """x @ y over 50 digits, divided by the square root of its determinant."""
    with mpmath.workdps(50):
        a, b, c, d = map(_mp, x)
        e, f, g, h = map(_mp, y)
        p = [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]
        s = mpmath.sqrt(p[0] * p[3] - p[1] * p[2])
        return [v / s for v in p]


def _product_errors(got, left, right, up_to_sign=False):
    """Each row's largest entry error against _mp_product, over its bound
    8 u N (1 + N^2), N = |x| |y| in Frobenius norms.  The entries of x y
    err by at most 2 sqrt(2) u N, and its determinant by about 6 u N^2,
    which the renormalization turns into a relative error of 3 u N^2."""
    out = []
    for g, x, y in zip(got, left, right):
        want = _mp_product(x, y)
        errs = [max(abs(_mp(v) - s * w) for v, w in zip(g, want)) for s in (1, -1)]
        n = float(np.linalg.norm(x) * np.linalg.norm(y))
        out.append(float(min(errs) if up_to_sign else errs[0]) / (8 * U * n * (1 + n * n)))
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_expand_against_mpmath(seed):
    # pairs with N up to 1e5, where the determinant's error 6 u N^2 stays
    # far below 1 (beyond, it is rounding noise: ROADMAP item 12)
    left = np.concatenate([_unit_rows(seed, 500), _spread_rows(seed, 1500, 3.0)])
    right = np.concatenate([_unit_rows(seed + 100, 500), _spread_rows(seed + 100, 1500, 3.0)])
    small = np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1) <= 1e5
    left, right = left[small], right[small]
    assert len(left) > 1500
    ratios = _product_errors(_core.expand(left, right), left, right)
    assert ratios.max() <= 1.0
    # the bound is not vacuous on every row
    assert ratios.max() > 1e-3


@pytest.mark.parametrize("seed", [0, 1])
def test_compose_against_mpmath(seed):
    # det-1 rows, and either side one row for all: expand's products and
    # bound, up to sign, each row the sign representative
    left, right = _spread_rows(seed, 1000, 2.0), _spread_rows(seed + 100, 1000, 2.0)
    for x, y in ((left, right), (left[:1], right), (left, right[-1:])):
        got = _core.compose(x, y)
        x, y = np.broadcast_arrays(x, y)
        assert _product_errors(got, x, y, up_to_sign=True).max() <= 1.0
        want = [moebius._canonical_sign(*row) for row in got.tolist()]
        assert _same_bits(got.view(np.float64), np.array(want).view(np.float64))


def _composed(left, right):
    """MoebiusMap.compose of each pair of rows, either side broadcast."""
    left, right = np.broadcast_arrays(left, right)
    maps = [(MoebiusMap(*x, _normalized=True), MoebiusMap(*y, _normalized=True))
            for x, y in zip(left.tolist(), right.tolist())]
    return np.array([x.compose(y).entries() for x, y in maps],
                    dtype=np.complex128).reshape(-1, 4)


def _steps(x, k=16):
    """x and its neighbours up to k ulps either side, ascending."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return sorted(float(v) for v in out)


@pytest.mark.parametrize("threshold", ["pivot", "real"])
def test_compose_sign_rule_at_its_thresholds(threshold):
    # rows (a, 1, -1, 0) of det 1, composed with the identity: a stays a,
    # and whether a is the pivot (PIVOT_TOL), or whether its real part
    # counts as zero (REAL_TOL), decides the sign
    if threshold == "pivot":
        firsts = [complex(-t, 0.0) for t in _steps(PIVOT_TOL)]
    else:
        firsts = [complex(t, -1.0) for t in _steps(REAL_TOL)]
    rows = np.array([(a, 1, -1, 0) for a in firsts], dtype=np.complex128)
    ident = np.array([[1, 0, 0, 1]], dtype=np.complex128)
    got = _core.compose(ident, rows)
    assert np.array_equal(got, _composed(ident, rows))
    flips = got[:, 1].real < 0
    assert 0 < flips.sum() < len(rows)


def test_compose_singular_product_raises():
    left = np.array([[1, 1, 1, 1]], dtype=np.complex128)
    right = _unit_rows(0, 5)
    with pytest.raises(NumericError, match="singular matrix"):
        _core.compose(left, right)
    with pytest.raises(NumericError, match="singular matrix"):
        _composed(left, right)


@pytest.mark.parametrize("row", [(math.inf, 0, 0, 1), (math.nan, 0, 0, 1), (1, math.inf, 0, 1),
                                 (1, 0, complex(0, math.nan), 1), (1e200, 0, 0, 1e200)])
def test_compose_nonfinite_rows_raise(row):
    # a non-finite entry, or a determinant that overflows (a zero row):
    # no row is returned
    rows = np.concatenate([_unit_rows(3, 4), np.array([row], dtype=np.complex128)])
    for x, y in ((rows, rows[:1]), (rows[:1], rows)):
        with pytest.raises(NumericError, match="singular matrix"):
            _core.compose(x, y)


@pytest.mark.parametrize("seed", [0, 1])
def test_sign_fix_of_kept_rows_is_canonicalize(seed):
    # fix_sign on any subset of det-1 rows gives, row by row, the bits of
    # moebius._canonical_sign, the sign rule of MoebiusMap
    rows = _core.expand(_unit_rows(seed, 2000), _unit_rows(seed + 100, 2000))
    keep = np.random.default_rng(seed).random(len(rows)) < 0.4
    got = _core.fix_sign(rows[keep])
    want = np.array([moebius._canonical_sign(*row) for row in rows[keep].tolist()])
    assert _same_bits(got.view(np.float64), want.view(np.float64))
    # and the sign fix decided something
    assert not _same_bits(rows[keep].view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_displacements_match_the_length_4_sum(seed):
    # adding the four columns in order gives the bytes np.sum(axis=1) gives
    mats = np.concatenate([_matrices(seed, 20_000), _unit_rows(seed, 5000)])
    rng = np.random.default_rng(seed)
    mats[rng.random(mats.shape) < 0.01] = complex(math.nan, 0.0)
    mats[rng.random(mats.shape) < 0.01] = complex(0.0, -math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = mats.real * mats.real + mats.imag * mats.imag
        want = np.arccosh(np.maximum(np.sum(parts, axis=1) / 2.0, 1.0))
        got = _core.displacements(mats)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(want).sum() > 100 and np.isinf(want).sum() > 100
    assert np.count_nonzero((parts > 0.0) & (parts < 2.2250738585072014e-308)) > 100


# -- fixed points ----------------------------------------------------------


def _mp_attracting(row):
    """(2 Re acosh(tr / 2), the attracting fixed point) of a row with c != 0,
    over 50 digits: the root of c z^2 + (d - a) z - b with the larger
    |c z + d|, the determinant taken as it is."""
    with mpmath.workdps(50):
        a, b, c, d = map(_mp, row)
        tr = a + d
        disc = mpmath.sqrt(tr * tr - 4 * (a * d - b * c))
        z1, z2 = (a - d + disc) / (2 * c), (a - d - disc) / (2 * c)
        att = z1 if abs(c * z1 + d) > abs(c * z2 + d) else z2
        return 2 * mpmath.re(mpmath.acosh(tr / 2)), att, disc


@pytest.mark.parametrize("seed", [2, 3])
def test_attracting_points_against_mpmath(seed):
    # the chordal error is within 8 u (N + (N^2 + |tr|^2) / |disc|) /
    # (|c| (1 + |z|^2)): the roots' cancellation, and the discriminant's
    # error over its size, in the chordal metric at the fixed point z
    rows = np.concatenate([_spread_rows(seed, 1500, 2.0), _spread_rows(seed, 500, 5.0)])
    lox, z, infinite = _core.attracting_points(rows)
    assert lox.all() and not infinite.any()
    ratios = []
    for row, got in zip(rows, z):
        ell, att, disc = _mp_attracting(row)
        a, _, c, d = (complex(v) for v in row)
        n = float(np.linalg.norm(row))
        bound = (8 * U * (n + (n * n + abs(a + d) ** 2) / float(abs(disc)))
                 / (abs(c) * (1 + float(abs(att)) ** 2)))
        ratios.append(float(_chordal(_mp(got), att)) / bound)
    assert max(ratios) <= 1.0
    assert max(ratios) > 1e-2


def test_attracting_points_fixing_infinity():
    # c = 0, or |c| at most FIXES_INF_TOL times the largest entry: infinity
    # attracts when |a| > |d| (or a = d), and the other fixed point is
    # b / (d - a) within 4 u |b / (d - a)| (1 + (|a| + |d|) / |d - a|)
    rng = np.random.default_rng(4)
    lam = np.exp(rng.uniform(0.1, 3.0, 400) + 1j * rng.uniform(-3, 3, 400))
    lam[::2] = 1.0 / lam[::2]
    b = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    c = np.where(np.arange(400) % 4 < 2, 0.0, 1e-15 * np.abs(lam))
    rows = np.stack([lam, b, c, 1.0 / lam], axis=1)
    lox, z, infinite = _core.attracting_points(rows)
    assert lox.all()
    assert infinite.tolist() == (np.abs(lam) > 1.0).tolist()
    for got, (a, b, _, d) in zip(z[~infinite], rows[~infinite]):
        want = _mp(b) / (_mp(d) - _mp(a))
        assert abs(_mp(got) - want) <= 4 * U * abs(want) * (1 + (abs(a) + abs(d)) / abs(d - a))


def _lox_x(row):
    """x with 2 Re acosh(tr / 2) = 2 asinh(x) for a row, over 50 digits,
    and the band 8 u (|s1 s2| + |w| / |s1 s2|) within which the computed
    x may fall on either side of it: the rounding of tr / 2 moves x by
    about u |w| / |s1 s2|, and the square roots and the sum by u |s1 s2|."""
    with mpmath.workdps(50):
        w = (_mp(row[0]) + _mp(row[3])) / 2
        s1, s2 = mpmath.sqrt(w - 1), mpmath.sqrt(w + 1)
        x = mpmath.re(s1) * mpmath.re(s2) + mpmath.im(s1) * mpmath.im(s2)
        return x, 8 * U * (abs(s1 * s2) + abs(w) / abs(s1 * s2))


@pytest.mark.parametrize("angle", [1.0, 2.5])
def test_loxodromic_test_at_the_threshold(angle):
    # loxodromics with rotation angle `angle` and translation lengths
    # stepping through LOXO_TOL: the decision is the exact one wherever x
    # lies outside the band around sinh(LOXO_TOL / 2)
    ells = LOXO_TOL + np.arange(-400, 400) * 2e-17
    maps = [MoebiusMap.diagonal(cmath.exp(complex(ell, angle) / 2.0))
            for ell in ells.tolist()]
    mats = np.array([m.entries() for m in maps], dtype=np.complex128)
    lox = _core.attracting_points(mats)[0]
    threshold = mpmath.sinh(mpmath.mpf(LOXO_TOL) / 2)
    outside = []
    for row, decided in zip(mats, lox.tolist()):
        x, band = _lox_x(row)
        if abs(x - threshold) > band:
            outside.append(x > threshold)
            assert decided == (x > threshold), row
    assert 0 < sum(outside) < len(outside) < len(mats)


def test_loxodromic_decision_is_monotone_at_the_threshold():
    # tr = 2 + 2iv gives x ~ sqrt(v), stepping through the threshold an
    # ulp of v at a time: the decision switches once, inside the band
    v0 = (LOXO_TOL / 2.0) ** 2
    tr_im = 2.0 * (v0 + np.arange(-3000, 3000) * np.spacing(v0))
    mats = _complex(np.zeros(len(tr_im)), np.zeros(len(tr_im)))[:, None].repeat(4, axis=1)
    mats[:, 0], mats[:, 3] = _complex(np.full_like(tr_im, 1.0), tr_im), 1.0
    lox = _core.attracting_points(mats)[0]
    switch = int(np.argmax(lox))
    assert 0 < switch and lox[switch:].all() and not lox[:switch].any()
    threshold = mpmath.sinh(mpmath.mpf(LOXO_TOL) / 2)
    for k in (switch - 1, switch):
        x, band = _lox_x(mats[k])
        assert abs(x - threshold) <= band


@pytest.mark.parametrize("row", [(1e200, 0, 1e190, 1e-200), (2, math.nan, 0, 0.5),
                                 (2, 0, math.inf, 0.5)])
def test_attracting_points_nonfinite_raise(row):
    # a loxodromic row whose fixed point overflows, or with a non-finite
    # entry, is not passed over
    rows = np.concatenate([_spread_rows(0, 3, 1.0), np.array([row], dtype=np.complex128)])
    with pytest.raises(NumericError, match="non-finite fixed point"):
        _core.attracting_points(rows)


def test_image_endpoints_against_mpmath():
    # real det-1 rows and real endpoints: (a z + b) / (c z + d) within
    # 4 u |image| (k_num + k_den + 1), k the condition numbers
    # (|a z| + |b|) / |a z + b| and (|c z| + |d|) / |c z + d|; a / c, the
    # image of inf, within 4 u |a / c|
    rng = np.random.default_rng(5)
    a, b, c = rng.standard_normal((3, 3000)) * np.exp(rng.uniform(-3, 3, (3, 3000)))
    rows = np.stack([a, b, c, (1 + b * c) / a], axis=1).astype(np.complex128)
    z = rng.standard_normal(3000) * np.exp(rng.uniform(-5, 5, 3000))
    vals, defined = growth._image_endpoints(rows, z, True)
    at_inf, inf_defined = growth._image_endpoints(rows, 0.0, False)
    assert defined.all() and inf_defined.all()
    with mpmath.workdps(50):
        for (p, q, r, s), x, got, got_inf in zip(rows.real.tolist(), z.tolist(), vals, at_inf):
            p, q, r, s, x = map(mpmath.mpf, (p, q, r, s, x))
            num, den = p * x + q, r * x + s
            kappa = (abs(p * x) + abs(q)) / abs(num) + (abs(r * x) + abs(s)) / abs(den)
            assert abs(got - num / den) <= 4 * U * abs(num / den) * (kappa + 1)
            assert abs(got_inf - p / r) <= 4 * U * abs(p / r)


def test_sphere_xyz_against_mpmath():
    # each coordinate within 4 u of the exact inverse stereographic
    # projection, for |z| from 1e-8 to 1e8; (0, 0, 1) at infinity
    rng = np.random.default_rng(6)
    z = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * np.exp(
        rng.uniform(-18.0, 18.0, 3000))
    infinite = np.arange(3000) % 100 == 0
    xyz = _core.sphere_xyz(z, infinite)
    assert (xyz[infinite] == (0.0, 0.0, 1.0)).all()
    with mpmath.workdps(50):
        for w, got in zip(z[~infinite], xyz[~infinite]):
            w = _mp(w)
            n = abs(w) ** 2
            want = (2 * mpmath.re(w) / (n + 1), 2 * mpmath.im(w) / (n + 1), (n - 1) / (n + 1))
            assert max(abs(g - e) for g, e in zip(got.tolist(), want)) <= 4 * U
