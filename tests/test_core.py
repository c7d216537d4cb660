"""Guards for the arithmetic the batched kernels mirror.

`_core.attracting_points` reproduces MoebiusMap.fixed_points bit for bit
by replaying CPython's complex arithmetic with real NumPy ufuncs.
`_core.expand` reproduces, pair by pair, the products of
np.einsum("nab,kbc->nkac") bit for bit with real ufuncs, and
`_core.fix_sign` on the rows the ball enumeration keeps gives the bytes
the sign fix of every row gave.  `_core.compose` reproduces
MoebiusMap.compose bit for bit.  These
tests compare each primitive with CPython or NumPy itself on seeded
inputs, so a NumPy or CPython upgrade that changes one of them fails here
instead of silently changing report bytes.
"""

import cmath
import math

import numpy as np
import pytest

import helpers
from kleindim import _core
from kleindim.errors import NumericError
from kleindim.moebius import LOXO_TOL, PIVOT_TOL, REAL_TOL, MoebiusMap

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


def _split(zs):
    z = np.array(zs, dtype=np.complex128)
    return z.real, z.imag


def test_float_power_is_libm_pow():
    # abs(z) ** 2 is pow(h, 2.0), which h * h misses in the last bit
    h = np.abs(_reals(0, top=150))
    got = np.float_power(h, np.full_like(h, 2.0))
    assert _same_bits(got, [math.pow(v, 2.0) for v in h.tolist()])
    assert _same_bits(got, [v ** 2 for v in h.tolist()])


def test_hypot_is_complex_abs():
    re, im = _pairs(1, top=300)
    want = [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    assert _same_bits(np.hypot(re, im), want)


def test_sqrt_mirror():
    re, im = _pairs(2, top=300)
    got_re, got_im, ok = _core.c_sqrt(re, im)
    want = [cmath.sqrt(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    want_re, want_im = _split(want)
    assert ok.sum() > len(re) - 10
    assert _same_bits(got_re[ok], want_re[ok])
    assert _same_bits(got_im[ok], want_im[ok])
    # outside the mirror: both parts below DBL_MIN, not both zero
    tiny = (np.abs(re) < 2.2250738585072014e-308) & (np.abs(im) < 2.2250738585072014e-308)
    assert np.array_equal(~ok, tiny & ~((re == 0) & (im == 0)))


def test_quotient_and_product_mirrors():
    ar, ai = _pairs(3)
    br, bi = _pairs(4)
    nonzero = (br != 0) | (bi != 0)
    ar, ai, br, bi = ar[nonzero], ai[nonzero], br[nonzero], bi[nonzero]
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    for got, want in ((_core.c_quot(ar, ai, br, bi), [x / y for x, y in zip(a, b)]),
                      (_core.c_prod(ar, ai, br, bi), [x * y for x, y in zip(a, b)])):
        want_re, want_im = _split(want)
        assert _same_bits(got[0], want_re) and _same_bits(got[1], want_im)


def test_quotient_departs_from_cpython_only_as_documented():
    # c z + d of the row (1, 0, inf, 1) at z = -1 is (-inf, -nan): the
    # quotient keeps the NaN's sign, where CPython returns +nan
    got = _core.c_quot(-1.0, 0.0, -math.inf, -math.nan)
    want = complex(-1.0, 0.0) / complex(-math.inf, -math.nan)
    assert np.isnan(got).all() and np.signbit(got).all()
    assert math.isnan(want.real) and not np.signbit([want.real, want.imag]).any()
    # a / c of the row (nan, 0, 0, 1) at z = inf: a zero divisor gives NaN,
    # where CPython raises
    assert np.isnan(_core.c_quot(math.nan, 0.0, 0.0, 0.0)).all()
    with pytest.raises(ZeroDivisionError):
        complex(math.nan, 0.0) / complex(0.0, 0.0)


def test_mixed_float_complex_operations():
    # CPython promotes the float to a complex, so zeros keep or lose
    # their sign as a complex operation would leave them
    re, im = _pairs(5)
    z = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]
    cases = [
        (_core.c_prod(2.0, 0.0, re, im), [2.0 * w for w in z]),
        (_core.c_quot(re, im, 2.0, 0.0), [w / 2.0 for w in z]),
        (_core.c_prod(1.0, 0.0, *_core.c_prod(re, im, re, im)), [w ** 2 for w in z]),
    ]
    nonzero = (re != 0) | (im != 0)
    inv = _core.c_quot(1.0, 0.0, re[nonzero], im[nonzero])
    cases.append((inv, [1.0 / w for w, keep in zip(z, nonzero) if keep]))
    for (got_re, got_im), want in cases:
        want_re, want_im = _split(want)
        assert _same_bits(got_re, want_re) and _same_bits(got_im, want_im)
    sq_re, sq_im = _core.c_prod(1.0, 0.0, *_core.c_prod(re, im, re, im))
    want_re, want_im = _split([w ** 2 - 4.0 for w in z])
    assert _same_bits(sq_re - 4.0, want_re) and _same_bits(sq_im - 0.0, want_im)


def test_acosh_mirror():
    re, im = _pairs(6)
    x, ok = _core.acosh_real_arg(re, im)
    want = [cmath.acosh(complex(a, b)).real for a, b in zip(re.tolist(), im.tolist())]
    assert ok.sum() > len(re) - 10
    assert _same_bits([math.asinh(v) for v in x[ok].tolist()], np.array(want)[ok])


@pytest.mark.parametrize("angle", [1.0, 2.5])
def test_loxodromic_test_at_the_threshold(angle):
    # loxodromics with rotation angle `angle` and translation lengths
    # stepping through LOXO_TOL, where NumPy's arcsinh and libm's may
    # disagree in the last bit
    ells = LOXO_TOL + np.arange(-300, 300) * 1e-18
    maps = [MoebiusMap.diagonal(cmath.exp(complex(ell, angle) / 2.0))
            for ell in ells.tolist()]
    mats = np.array([m.entries() for m in maps], dtype=np.complex128)
    lox = _core.attracting_points(mats)[0]
    want = [m.is_loxodromic() for m in maps]
    assert lox.tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("arcsinh_error", [0.0, -np.inf, np.inf])
def test_loxodromic_threshold_one_ulp_at_a_time(monkeypatch, arcsinh_error):
    # tr = 2 + 2iv gives asinh arguments x ~ sqrt(v) that step through
    # the threshold one ulp at a time; an arcsinh one ulp off either way
    # (as SIMD builds of NumPy can be) must not change the decision
    if arcsinh_error:
        exact = np.arcsinh
        monkeypatch.setattr(np, "arcsinh",
                            lambda x: np.nextafter(exact(x), arcsinh_error))
    v0 = (LOXO_TOL / 2.0) ** 2
    tr_im = 2.0 * (v0 + np.arange(-3000, 3000) * np.spacing(v0))
    lox, ok = _core._loxodromic(np.full_like(tr_im, 2.0), tr_im)
    want = [(2.0 * cmath.acosh(complex(2.0, t) / 2.0)).real > LOXO_TOL
            for t in tr_im.tolist()]
    assert ok.all()
    assert lox.tolist() == want
    assert 0 < sum(want) < len(want)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_products_mirror_einsum(seed):
    frontier, gens = _matrices(seed, 3000), _matrices(seed + 100, 14)
    left, right = helpers.outer_pairs(frontier, gens)
    got = np.empty((3000 * 14, 4), dtype=np.complex128)
    _core._products(left, right, got)
    want = helpers.einsum_products(frontier, gens)
    assert _same_bits(got.view(np.float64), want.view(np.float64))
    # the inputs reach the cases the mirror must get right; einsum sums
    # from +0.0, so its zeros are +0.0 even where both products are -0.0
    parts = want.view(np.float64)
    zeros = parts == 0.0
    assert np.count_nonzero(zeros) > 1000 and not np.signbit(parts[zeros]).any()
    assert np.count_nonzero(np.isinf(parts)) > 10 and np.count_nonzero(np.isnan(parts)) > 10
    tiny = np.abs(parts) < 2.2250738585072014e-308
    assert np.count_nonzero(tiny & (parts != 0.0)) > 100


@pytest.mark.parametrize("seed", [0, 1])
def test_sign_fix_of_kept_rows_is_canonicalize(seed):
    # expand, then fix_sign on a subset of rows, equals expand-and-
    # canonicalize of every row, on those rows
    for frontier, gens in ((_unit_rows(seed, 2000), _unit_rows(seed + 100, 8)),
                           (_matrices(seed, 1000), _matrices(seed + 100, 6))):
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _core.expand(*helpers.outer_pairs(frontier, gens))
            want = helpers.einsum_expand(frontier, gens)
        keep = np.random.default_rng(seed).random(len(rows)) < 0.4
        got = _core.fix_sign(rows[keep])
        assert _same_bits(got.view(np.float64), want[keep].view(np.float64))
        # and the sign fix decided something
        assert not _same_bits(rows[keep].view(np.float64), want[keep].view(np.float64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_displacements_match_the_length_4_sum(seed):
    # adding the four columns in order gives the bytes np.sum(axis=1) gave
    mats = np.concatenate([_matrices(seed, 20_000), _unit_rows(seed, 5000)])
    rng = np.random.default_rng(seed)
    mats[rng.random(mats.shape) < 0.01] = complex(math.nan, 0.0)
    mats[rng.random(mats.shape) < 0.01] = complex(0.0, -math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.arccosh(np.maximum(np.sum(np.abs(mats) ** 2, axis=1) / 2.0, 1.0))
        got = _core.displacements(mats)
        parts = np.abs(mats) ** 2
    assert got.tobytes() == want.tobytes()
    assert np.isnan(want).sum() > 100 and np.isinf(want).sum() > 100
    assert np.count_nonzero((parts > 0.0) & (parts < 2.2250738585072014e-308)) > 100


def _composed(left, right):
    """MoebiusMap.compose of each pair of rows, either side broadcast."""
    left, right = np.broadcast_arrays(left, right)
    maps = [(MoebiusMap(*x, _normalized=True), MoebiusMap(*y, _normalized=True))
            for x, y in zip(left.tolist(), right.tolist())]
    return np.array([x.compose(y).entries() for x, y in maps],
                    dtype=np.complex128).reshape(-1, 4)


def _nonsingular(left, right):
    """The pairs of rows whose product MoebiusMap can normalize, all but a
    few: a product of det-1 rows with entries near 1e-10 and 1e10 can
    round to determinant 0."""
    keep = []
    for i, (x, y) in enumerate(zip(left.tolist(), right.tolist())):
        try:
            MoebiusMap(*x, _normalized=True).compose(MoebiusMap(*y, _normalized=True))
            keep.append(i)
        except NumericError:
            pass
    assert len(keep) > 0.99 * len(left)
    return left[keep], right[keep]


def _same_rows(got, want):
    """Equal bytes, NaNs included."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_compose_mirrors_moebius_compose(seed):
    # det-1 rows, real rows (whose zero imaginary parts keep or lose their
    # sign under the sign rule) and rows of any determinant and scale
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((1000, 4)) + 0j
    scaled = _unit_rows(seed + 200, 1000) * 10.0 ** rng.uniform(-50, 50, (1000, 1))
    left = np.concatenate([_unit_rows(seed, 1000), real, scaled])
    right = np.concatenate([_unit_rows(seed + 100, 1000), real[::-1], scaled[::-1]])
    for x, y in ((left, right), (left[:1], right), (left, right[-1:])):
        x, y = _nonsingular(*np.broadcast_arrays(x, y))
        assert _same_rows(_core.compose(x, y), _composed(x, y))
    # real products of positive determinant have zero imaginary parts,
    # of both signs once the sign rule has negated some
    imag = _core.compose(real, real[::-1]).imag
    zeros = imag[imag == 0.0]
    assert zeros.size > 1000 and 100 < np.signbit(zeros).sum() < zeros.size - 100


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
    assert _same_rows(got, _composed(ident, rows))
    flips = got[:, 1].real < 0
    assert 0 < flips.sum() < len(rows)


def test_compose_singular_product_raises():
    left = np.array([[1, 1, 1, 1]], dtype=np.complex128)
    right = _unit_rows(0, 5)
    with pytest.raises(NumericError, match="singular matrix"):
        _core.compose(left, right)
    with pytest.raises(NumericError, match="singular matrix"):
        _composed(left, right)


def test_compose_rows_outside_the_mirror():
    # non-finite entries, products that overflow, and a subnormal
    # determinant (cmath.sqrt's other branch): MoebiusMap's own bytes
    inf, nan = math.inf, math.nan
    rows = np.array([(inf, 0, 0, 1), (nan, 0, 0, 1), (1, inf, 0, 1), (1, 0, complex(0, nan), 1),
                     (1e300, 1e300, 1, 1), (1e200, 0, 0, 1e200), (1e-160, 0, 0, 1e-160),
                     (1, 2, 3, 5)], dtype=np.complex128)
    right = np.concatenate([_unit_rows(3, 4), np.array([[2, 1, 1, 1]], dtype=np.complex128)])
    for x, y in ((rows, right[:1]), (right[-1:], rows)):
        with np.errstate(all="ignore"):
            want = _composed(x, y)
        assert _same_rows(_core.compose(x, y), want)
        assert not np.isfinite(want).all()
