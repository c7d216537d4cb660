"""Limit-set sampling, box-counting dimension, critical exponent, and
connected-component (Cantor) diagnostics on the chordal sphere."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _core
from .errors import DegenerateScaleWindow, IncompleteBall
from .moebius import SpherePoint

DEDUP_TOL = 1e-10
# a regression window: local slopes within this spread, over this many scales
_WINDOW_SPREAD = 0.15
_WINDOW_MIN_LEN = 4
_SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass
class LimitSample:
    """Deduplicated attracting fixed points of sampled loxodromics, as
    parallel arrays; `points` builds the SpherePoints on first use."""

    z: np.ndarray  # (n,) complex128, 0 at infinity
    infinite: np.ndarray  # (n,) bool
    xyz: np.ndarray  # (n, 3) unit-sphere coordinates
    skipped: int = 0  # non-loxodromic elements passed over

    @property
    def count(self):
        return len(self.xyz)

    def __len__(self):
        return self.count

    @functools.cached_property
    def points(self):
        return [SpherePoint(z, infinite=inf)
                for z, inf in zip(self.z.tolist(), self.infinite.tolist())]


def _keys(xyz, k, rows):
    """Axis k of the keys of the stacked rows `rows`: row i < n is point i
    on the first lattice, rint(xyz / DEDUP_TOL), row n + i the same point
    on the second, rint(xyz / DEDUP_TOL + 0.5)."""
    n = len(xyz)
    scaled = xyz[rows % n, k] / DEDUP_TOL
    scaled[rows >= n] += 0.5
    return np.rint(scaled).astype(np.int64)


def _mix(h, column):
    """The 64-bit hashes h with one more key column mixed in."""
    h ^= column.view(np.uint64)
    h *= np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    return h


def _one_key_per_run(xyz, order, same):
    """Whether the stacked rows order[i] and order[i + 1] have one key for
    every i in `same`."""
    for s in range(0, len(same), _core.PASS_BUDGET):
        at = same[s:s + _core.PASS_BUDGET]
        a, b = order[at], order[at + 1]
        if any(np.any(_keys(xyz, k, a) != _keys(xyz, k, b)) for k in range(3)):
            return False
    return True


def _first_by_key(xyz):
    """Which points the greedy dedup keeps, scanning in order.

    Each point has two keys, rint(xyz / DEDUP_TOL) and
    rint(xyz / DEDUP_TOL + 0.5), on two lattices offset by half a step
    but held in one set, so one point's first key can meet another's
    second.  A point is kept unless either of its keys belongs to a point
    kept before it; a kept point adds both.

    The scan needs only which keys are equal.  Keys are numbered by one
    unstable argsort of a 64-bit hash of each key (`_mix` of its three
    axes), both lattices stacked and hashed in passes, so no key column
    is held whole.  Each run of equal hashes is checked key by key, and
    if one holds two keys they are numbered by a lexsort of the key
    columns instead.  Points whose keys no other point has are always
    kept, and the scan runs over the rest only.
    """
    n = len(xyz)
    if n == 0:
        return np.zeros(0, dtype=bool)
    h = np.zeros(2 * n, dtype=np.uint64)
    for s in range(0, 2 * n, _core.PASS_BUDGET):
        e = min(s + _core.PASS_BUDGET, 2 * n)
        for k in range(3):
            h[s:e] = _mix(h[s:e], _keys(xyz, k, np.arange(s, e)))
    order = np.argsort(h)
    h.sort()
    new = h[1:] != h[:-1]
    del h
    if not _one_key_per_run(xyz, order, np.flatnonzero(~new)):
        rows = np.arange(2 * n)
        axes = [_keys(xyz, k, rows) for k in range(3)]
        order = np.lexsort(axes[::-1])
        new[:] = False
        for axis in axes:
            ranked = axis[order]
            new |= ranked[1:] != ranked[:-1]
        del rows, axes, ranked
    # key numbers in sorted order, then scattered to the stacked rows
    ranks = np.zeros(2 * n, dtype=np.int64)
    np.cumsum(new, out=ranks[1:])
    del new
    ids = np.empty(2 * n, dtype=np.int64)
    ids[order] = ranks
    del order, ranks
    k0, k1 = ids[:n], ids[n:]
    owners = np.bincount(np.concatenate([k0, k1[k1 != k0]]))
    shared = (owners[k0] > 1) | (owners[k1] > 1)
    keep = ~shared
    taken = bytearray(len(owners))
    for i, a, b in zip(np.flatnonzero(shared).tolist(), k0[shared].tolist(),
                       k1[shared].tolist()):
        if not (taken[a] or taken[b]):
            taken[a] = taken[b] = 1
            keep[i] = True
    return keep


def sample_limit_set(ball, cap=100_000):
    """Attracting fixed points of the loxodromic elements of `ball`,
    deduplicated, at most `cap` of them.

    Elements are taken longest word first, ties in ball order (a stable
    sort on `ball.words.lengths`; no word is spelled).  ROADMAP item 5
    calls this order biased: a ball cut by its count cap holds a partial
    last layer, which then fills the sample.  It is kept until the
    sampling itself is redesigned, so that every sample stays as it was.
    Non-loxodromic elements are passed over.  Dedup is `_first_by_key`'s
    rule: a point is dropped when either of its two keys belongs to an
    earlier kept point.  The scan stops once `cap` points are kept, so
    `skipped` counts only the non-loxodromic elements before the cap-th
    kept point (none when cap <= 0).  The fixed points come from
    `_core.attracting_points` on `ball.mats`.
    """
    lengths = ball.words.lengths
    n = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    lox, infinite = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    z = np.empty(n, dtype=np.complex128)
    # in passes of the pass budget; the kernels decide row by row
    for s in range(0, n, _core.PASS_BUDGET):
        part = slice(s, s + _core.PASS_BUDGET)
        lox[part], z[part], infinite[part] = _core.attracting_points(ball.mats[order[part]])
    del order
    rows = np.flatnonzero(lox)
    xyz = np.empty((len(rows), 3))
    for s in range(0, len(rows), _core.PASS_BUDGET):
        part = rows[s:s + _core.PASS_BUDGET]
        xyz[s:s + len(part)] = _core.sphere_xyz(z[part], infinite[part])
    keep = np.flatnonzero(_first_by_key(xyz))[:max(cap, 0)]
    if len(keep) < cap:
        end = len(lox)
    else:
        end = int(rows[keep[-1]]) if cap > 0 else 0
    kept = rows[keep]
    return LimitSample(z=z[kept], infinite=infinite[kept], xyz=xyz[keep],
                       skipped=end - int(np.count_nonzero(lox[:end])))


def merge_samples(a, b):
    """Union of two samples, deduplicated.

    The points of a, then those of b, go through `_first_by_key`'s rule:
    a point is dropped when either of its keys belongs to an earlier kept
    point.  A sample built by this rule keeps all its points, so b adds
    the points a lacks.  `skipped` adds up.  Limit sets
    of nested groups are nested, so accumulating sample points across
    truncation levels keeps the sampled sets nested too, which the
    box-count comparison across levels relies on.
    """
    xyz = np.concatenate([a.xyz, b.xyz])
    keep = _first_by_key(xyz)
    return LimitSample(z=np.concatenate([a.z, b.z])[keep],
                       infinite=np.concatenate([a.infinite, b.infinite])[keep],
                       xyz=xyz[keep], skipped=a.skipped + b.skipped)


def sample_from_points(points):
    """LimitSample from explicit SpherePoints (mostly for tests)."""
    z = np.array([p.z for p in points], dtype=np.complex128)
    infinite = np.array([p.infinite for p in points], dtype=bool)
    return LimitSample(z=z, infinite=infinite, xyz=_core.sphere_xyz(z, infinite))


@dataclass(frozen=True)
class ScaleRow:
    delta: float
    box_count: int
    components: int
    max_diam: float


@dataclass
class ScaleTable:
    rows: list


@dataclass(frozen=True)
class DimEstimate:
    value: float
    stderr: float
    scale_window: tuple
    method: str


def default_scales(n=10):
    return [0.5**k for k in range(n)]


def _box_counts(sample, scales):
    """Occupied chordal-grid cells of side delta / sqrt(8) at each delta of
    `scales`, in their order, across the two stereographic charts: z
    where |z| <= 1, 1/z elsewhere (0 at infinity), 1/z rounded as
    CPython's complex division (`_core.c_quot`).  Each point's chart and
    its w in that chart are computed once for the sample; each scale
    bins them and counts the distinct `_cell_keys` of (chart, x, y)."""
    if sample.count == 0:
        return [0] * len(scales)
    z = sample.z
    outer = sample.infinite | (_core.cabs(z) > 1.0)
    wr, wi = _core.c_quot(1.0, 0.0, z.real, z.imag)
    w = np.stack([np.where(sample.infinite, 0.0, np.where(outer, wr, z.real)),
                  np.where(sample.infinite, 0.0, np.where(outer, wi, z.imag))])
    chart = outer.astype(np.int64)
    del outer, wr, wi
    counts = []
    for delta in scales:
        cells = np.floor(w / (delta / _SQRT8)).astype(np.int64)
        counts.append(len(np.unique(_cell_keys([chart, *cells])[0])))
    return counts


def _box_count(sample, delta):
    """The box count at one delta: the one-scale case of `_box_counts`."""
    return _box_counts(sample, [delta])[0]


def _key_strides(spans):
    """The key step of each axis of cells with these spans, and the keys'
    dtype: int64 while the spans' product is below 2^63, else object."""
    strides = [math.prod(spans[k + 1:]) for k in range(len(spans))]
    return strides, np.int64 if math.prod(spans) < 2**63 else object


def _cell_keys(cells):
    """One lexicographic key per cell, and the key step of each axis.

    `cells` holds the cells' integer coordinates, one array per axis.
    Each axis is shifted to run from 2 to its span - 3, so a cell moved
    by at most 2 along every axis stays inside the spans, and its key is
    that cell's key or no occupied cell's: nothing wraps.  Keys are int64
    while the spans' product is below 2^63, Python ints (an object array)
    above it, so every scale is exact.
    """
    lows = [int(c.min()) - 2 for c in cells]
    strides, dtype = _key_strides([int(c.max()) + 3 - lo for c, lo in zip(cells, lows)])
    return sum((c - lo).astype(dtype, copy=False) * s
               for c, lo, s in zip(cells, lows, strides)), strides


def _cube_keys(xyz, side):
    """`_cell_keys` of the cubes floor(xyz / side) of the points, without
    the whole (n, 3) quotient: int64 keys are filled in passes of
    `_core.PASS_BUDGET` points.  Division by a positive side rounds
    monotonically and floor is monotone, so each axis's least and
    greatest cube are those of its least and greatest coordinate, and
    the spans, strides and keys are `_cell_keys`' own.  Spans whose
    product reaches 2^63 go through `_cell_keys` itself.
    """
    # column by column: a reduction along axis 0 of (n, 3) is ten times slower
    lows = [math.floor(xyz[:, k].min() / side) - 2 for k in range(3)]
    strides, dtype = _key_strides([math.floor(xyz[:, k].max() / side) + 3 - lo
                                   for k, lo in enumerate(lows)])
    if dtype is object:
        return _cell_keys(np.floor(xyz / side).astype(np.int64).T)
    keys = np.empty(len(xyz), dtype=np.int64)
    for s in range(0, len(xyz), _core.PASS_BUDGET):
        cells = xyz[s:s + _core.PASS_BUDGET] / side
        cells = np.floor(cells, out=cells).astype(np.int64)
        keys[s:s + len(cells)] = sum((cells[:, k] - lo) * stride
                                     for k, (lo, stride) in enumerate(zip(lows, strides)))
    return keys, strides


def _ols(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    if n > 2:
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


def _stable_window(slopes, prefer_tail=False):
    """Longest run of consecutive local slopes varying by < _WINDOW_SPREAD
    that spans at least _WINDOW_MIN_LEN scales.

    Returns (i, j) meaning scales i..j inclusive (j - i local slopes).
    Ties go to the later run when prefer_tail.
    """
    n = len(slopes)
    best = None
    for i in range(n):
        for j in range(i, n):
            run = slopes[i : j + 1]
            if max(run) - min(run) >= _WINDOW_SPREAD:
                break
            if j - i + 2 >= _WINDOW_MIN_LEN:
                length = j - i
                if best is None or length > best[0] or (prefer_tail and length == best[0]):
                    best = (length, i, j)
    if best is None:
        return None
    return best[1], best[2] + 1


def _window_fit(xs, counts, prefer_tail=False, fallback=None):
    """Least-squares slope of ln(count) against xs over the stable window
    of local slopes: (slope, stderr, i, j), fitted on xs[i..j].

    With no stable window the fit takes the last `fallback` points, or
    raises DegenerateScaleWindow when `fallback` is None.  A count of 0
    (an empty sample or ball) or xs not strictly increasing (a repeated
    scale or radius) raises DegenerateScaleWindow.
    """
    if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        raise DegenerateScaleWindow("abscissae not strictly increasing: a repeated "
                                    "scale or radius leaves no slope")
    if min(counts) < 1:
        raise DegenerateScaleWindow("empty sample or ball: a count of 0 leaves no slope")
    logs = [math.log(c) for c in counts]
    local = [
        (logs[i + 1] - logs[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
    ]
    win = _stable_window(local, prefer_tail=prefer_tail)
    if win is None:
        if fallback is None:
            raise DegenerateScaleWindow(
                f"no run of {_WINDOW_MIN_LEN} consecutive scales with stable local slopes"
            )
        win = max(0, len(xs) - fallback), len(xs) - 1
    i, j = win
    slope, stderr = _ols(xs[i : j + 1], logs[i : j + 1])
    return slope, stderr, i, j


def box_dimension(sample, scales=None, with_components=True):
    """Box-counting dimension with an automatically chosen scale window,
    and the scale table, coarsest scale first.

    The table's component columns come from one `component_table` pass
    over the scales; with_components=False leaves them zero, as the
    dimension estimate does not use them.
    """
    if scales is None:
        scales = default_scales()
    scales = sorted(scales, reverse=True)
    counts = _box_counts(sample, scales)
    comps = (component_table(sample, scales) if with_components
             else [(0, 0.0)] * len(scales))
    table = ScaleTable(rows=[ScaleRow(delta=d, box_count=c, components=k, max_diam=diam)
                             for d, c, (k, diam) in zip(scales, counts, comps)])
    slope, stderr, i, j = _window_fit([math.log(1.0 / d) for d in scales], counts)
    est = DimEstimate(
        value=max(slope, 0.0),
        stderr=stderr,
        scale_window=(scales[j], scales[i]),
        method="box",
    )
    return est, table


def critical_exponent(ball, radii):
    """Orbit-counting exponent: slope of ln N(R) against R.

    `ball` must carry a completeness certificate covering max(radii).
    """
    radii = sorted(radii)
    if ball.complete_radius < radii[-1]:
        raise IncompleteBall(
            f"ball complete to {ball.complete_radius}, need {radii[-1]}"
        )
    disps = np.sort(ball.disps)
    counts = [int(np.searchsorted(disps, r, side="right")) for r in radii]
    slope, stderr, i, j = _window_fit(radii, counts, prefer_tail=True, fallback=4)
    return DimEstimate(
        value=max(slope, 0.0),
        stderr=stderr,
        scale_window=(radii[i], radii[j]),
        method="orbit",
    )


def _dots(a, b):
    """a . b as (x x' + y y') + z z', with a and b broadcast against each
    other: the one form in which this module takes a dot product, so that
    every test of a pair of points rounds it alike."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def _pair_blocks(a, b):
    """The dot products of every point of a with every point of b, in
    blocks of at most `_core.PASS_BUDGET`, rows of a against columns of b."""
    cols = min(len(b), _core.PASS_BUDGET)
    rows = max(_core.PASS_BUDGET // cols, 1)
    for i in range(0, len(a), rows):
        for j in range(0, len(b), cols):
            yield _dots(a[i:i + rows, None], b[None, j:j + cols])


def _min_dot(pts):
    """The least a . b over all pairs of pts, each unordered pair once
    (a . b and b . a round alike), in blocks of `_core.PASS_BUDGET`."""
    rows = max(_core.PASS_BUDGET // len(pts), 1)
    return min(float(_dots(pts[i:i + rows, None], pts[None, i:]).min())
               for i in range(0, len(pts), rows))


# the rim's margin in squared distance, times the largest squared norm
_RIM_MARGIN = 2.0**-40


def _rim(pts):
    """The points of pts that can end a pair with the least `_dots`, a
    subset over which `_min_dot` gives the same float as over pts.

    Two farthest-point sweeps (from pts[0], then from the point found)
    realise a pair with computed dot d.  With c the centroid and R the
    largest |p - c|, both ends of a pair (a, b) have |a - c| >= |a - b| -
    R by the triangle inequality, whatever c is.  Any pair whose computed
    dot is at most d has |a - b|^2 >= 2 (min |p|^2 - d) less the rounding
    of four dot products and of min |p|^2 - d, a few ulps of the largest
    squared norm.  The margin, 2^-40 of that norm, covers them: near 0,
    where a squared distance is the difference of two numbers within
    rounding of 1, it is what keeps the bound a bound.  Distances here
    are at most about 2, so the margin also lowers the bound's root by
    more than 2^-43, far beyond the few ulps by which |p - c| (from p - c,
    its squared norm and the root), R and the roots round.  So a point
    with sqrt(|p - c|^2) below sqrt(bound) - R, as computed, ends no pair
    with a dot of at most d, and every other point is kept: the least
    pair is among those kept.  Each pair's `_dots` rounds alike in any
    block and in either order, so the least computed value is the same
    float.
    """
    far = pts[np.argmin(_dots(pts, pts[0]))]
    d = float(_dots(pts, far).min())
    gap = pts - pts.mean(axis=0)
    r2 = _dots(gap, gap)
    norms = _dots(pts, pts)
    bound = 2.0 * (float(norms.min()) - d) - _RIM_MARGIN * float(norms.max())
    reach = math.sqrt(max(bound, 0.0)) - math.sqrt(float(r2.max()))
    return pts[np.sqrt(r2) >= reach]


# Cube pairs the triage leaves with at most this many point pairs are
# tested in one vectorised pass; larger ones through every point pair,
# stopping at the first block with a hit.  Both skip the pairs whose
# cubes are already joined.
_SMALL_PAIR = 256
# absolute margin in dot-product terms of the triage's miss test
_MISS_MARGIN = 1e-12
# the least delta components are taken at.  A pair with a . b computed
# >= 1 - delta^2 / 2 may lie up to sqrt(delta^2 + 2^-47) apart (rounding of
# the dot product and of the norms), which the search's reach, 2 delta /
# sqrt(3), covers only for delta >= 1.5e-7; below it rounding, not delta,
# decides which pairs are joined
_MIN_DELTA = 2.0**-22
# exact O(k^2) diameter up to this component size, double sweep above
_EXACT_DIAM = 4000
# the rows of cubes, steps (a, b) on the first two axes, that hold the
# neighbours after a cube in key order
_HALF_ROWS = [(a, b) for a in range(3) for b in range(-2, 3) if (a, b) >= (0, 0)]


def _cell_pairs(xyz, side):
    """Occupied cubes of side `side` and the pairs of them at most 2
    apart on every axis, each unordered pair once.

    Returns (order, cell_of, counts, first, second): the points in cube
    order, the cube index of each point (cubes in lexicographic order),
    the points per cube, and the two cubes of each neighbouring pair,
    first[k] < second[k].  The cubes' `_cube_keys` are sorted once,
    stably, so `order` is also np.argsort(cell_of, kind="stable"), and
    the cubes, their counts and cell_of are read off the runs of equal
    keys.  The neighbours after a cube lie in 13 rows of cubes, steps
    (a, b) >= (0, 0) on the first two axes, at steps c in [-2, 2] on the
    third ([1, 2] in the cube's own row).  Every axis is padded by 2, so
    they are consecutive keys of that row, and one search per row finds
    both ends of the run, int64 and Python-int keys alike.
    """
    keys, strides = _cube_keys(xyz, side)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    occupied = keys[new]
    del keys
    counts = np.diff(np.append(np.flatnonzero(new), len(new)))
    ranks = np.cumsum(new, dtype=np.int64)
    del new
    ranks -= 1
    cell_of = np.empty(len(ranks), dtype=np.int64)
    cell_of[order] = ranks
    del ranks
    cubes = np.arange(len(occupied))
    first, second = [], []
    for a, b in _HALF_ROWS:
        row = occupied + (a * strides[0] + b * strides[1])
        lo, hi = np.searchsorted(occupied, [row + (1 if a == b == 0 else -2), row + 3])
        size = hi - lo
        first.append(np.repeat(cubes, size))
        second.append(np.arange(int(size.sum())) + np.repeat(lo - (np.cumsum(size) - size), size))
    return order, cell_of, counts, np.concatenate(first), np.concatenate(second)


def _triage(pts, starts, first, second, dot_needed):
    """The cube pairs (first[k], second[k]) decided from two summaries
    of each cube, its first point and its bounding box: (hit, miss).

    `pts` holds the points grouped by cube, cube k from starts[k].  Hit:
    the two first points pass a . b >= dot_needed, a point pair of the
    exhaustive test, rounded alike (`_dots`).  Miss: the squared gap of
    the two boxes exceeds 2 (1 - dot_needed) + 2 _MISS_MARGIN, about
    delta^2 + 2e-12.  Each point's gap to the other box is, axis by axis
    and as rounded, at least the boxes' gap; |p - q|^2 >= dist(p, box)^2
    exactly and p . q = (|p|^2 + |q|^2 - |p - q|^2) / 2, so every dot
    product lies below dot_needed - _MISS_MARGIN up to a few ulps, and
    the margin makes the miss one the exhaustive test would find too.
    In passes of `_core.PASS_BUDGET` pairs."""
    head = pts[starts]
    low, high = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    clear = 2.0 * (1.0 - dot_needed) + 2.0 * _MISS_MARGIN
    hit, miss = np.empty(len(first), dtype=bool), np.empty(len(first), dtype=bool)
    for s in range(0, len(first), _core.PASS_BUDGET):
        part = slice(s, s + _core.PASS_BUDGET)
        i, j = first[part], second[part]
        hit[part] = _dots(head[i], head[j]) >= dot_needed
        gap = np.maximum(np.maximum(low[j] - high[i], low[i] - high[j]), 0.0)
        miss[part] = _dots(gap, gap) > clear
    return hit, miss


def _small_pairs_linked(pts, starts, counts, first, second, dot_needed):
    """Which cell pairs hold a point pair with a . b >= dot_needed.

    `pts` holds the points grouped by cell, cell k at starts[k]; every
    point pair of every cell pair is tested, in passes of at most
    `_core.PASS_BUDGET` point pairs or of one cell pair."""
    nb = counts[second]
    size = counts[first] * nb
    ends = np.cumsum(size)
    linked = np.zeros(len(first), dtype=bool)
    lo = 0
    while lo < len(first):
        base = ends[lo] - size[lo]
        hi = max(int(np.searchsorted(ends, base + _core.PASS_BUDGET, side="right")), lo + 1)
        pair = np.repeat(np.arange(lo, hi), size[lo:hi])
        # position of each point pair within its cell pair, row-major
        within = np.arange(len(pair)) - (ends[pair] - size[pair] - base)
        ia = starts[first[pair]] + within // nb[pair]
        ib = starts[second[pair]] + within % nb[pair]
        hit = _dots(pts[ia], pts[ib]) >= dot_needed
        linked[pair[hit]] = True
        lo = hi
    return linked


def _flatten(root):
    """Point every cube of `root` at the end of its chain, in place, by
    pointer jumping."""
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return
        root[:] = up


def _join(root, first, second):
    """Join the classes of cubes first[k] and second[k] for every k, in
    place, and flatten `root`.

    `root` maps each cube to a cube of its class no larger than itself.
    Each round hooks the larger root of every edge whose ends have
    different roots to the least root it meets (np.minimum.at) and
    flattens; the rounds end when no edge joins two roots.  Hooks only
    go down, so each class's root is its least cube, as in a union-find
    that hooks the larger root under the smaller.
    """
    _flatten(root)
    while True:
        a, b = root[first], root[second]
        apart = a != b
        if not apart.any():
            return
        first, second, a, b = first[apart], second[apart], a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        _flatten(root)


def _find(root, i):
    """The root of cube i, halving its path in `root`."""
    while root[i] != i:
        root[i] = i = root[root[i]]
    return i


def component_analysis(sample, delta):
    """Components of the graph joining sample points at chordal distance
    <= delta, that is with unit vectors a . b >= 1 - delta^2 / 2.

    Returns (component_count, max_component_diameter): the one-scale case
    of `component_table`, through the same kernel.
    """
    return component_table(sample, [delta])[0]


def component_table(sample, scales):
    """`component_analysis` at every delta of `scales`, in their order, in
    one pass run from the finest scale to the coarsest.

    The graph at delta' < delta is a subgraph of the graph at delta: in
    floating point too, 1 - delta'^2 / 2 >= 1 - delta^2 / 2.  So every
    component at delta is a union of components at delta' (single
    linkage), whatever the scales are, and each scale hands its
    partition to the next coarser one, which reuses its diameters and,
    when it is one component, takes it whole (`_components_at`).  Only
    one scale's labels and diameters are held at a time.  A delta below
    `_MIN_DELTA` (2^-22, about 2.4e-7) raises ValueError: there the
    threshold is within rounding of 1.
    """
    if any(delta < _MIN_DELTA for delta in scales):
        raise ValueError(f"component scales must be at least {_MIN_DELTA:.3g}")
    rows = [None] * len(scales)
    finer = None
    for k in sorted(range(len(scales)), key=scales.__getitem__):
        rows[k], finer = _components_at(sample, scales[k], finer)
    return rows


def _components_at(sample, delta, finer):
    """(component_count, max_component_diameter) at delta, and the
    partition it found, (labels of the points, component sizes,
    diameters, NaN where not taken), for the next coarser scale.

    `finer` is that partition at a finer scale, or None.  When it is one
    component, so is this scale, with that component's diameter.
    Otherwise the graph is built on cells: points are binned in cubes of
    side delta / sqrt(3) (`_cell_pairs`, one sort of the cube keys), so
    points sharing a cube are always joined and an edge can only join
    cubes at most 2 apart on every axis.  A union-find runs over cubes,
    not points, on a root array (`_join`), and each class's root is its
    least cube.  The neighbouring pairs are decided in this order:
    - every pair at once by `_triage`, from each cube's first point and
      bounding box: the sure hits are joined, the sure misses dropped;
    - of the pairs left, those whose cubes are not yet joined: small
      pairs (at most 256 point pairs), every point pair in one
      vectorised pass, the linked ones joined at once;
    - each large pair whose cubes are still apart, one by one (`_find`),
      every point pair, block by block, stopping at the first block with
      a hit.
    The partition is the components of the linked pairs, whatever order
    they are joined in, and components are numbered by their least cube.
    Every dot product, here and in the diameters, is `_dots`, so a pair
    rounds alike in every test.  The diameter is exact for components of
    at most 4,000 points, the least dot product over the pairs of the
    points that can end a farthest pair (`_rim`), and a double-sweep
    lower bound above, from the component's lowest-index point; either
    is a function of the point set.  So a component with the size of the
    finer component of its first point is that component and keeps its
    diameter.  The others are taken in decreasing order of their
    bounding box, and those whose box is smaller than the largest
    diameter so far are skipped, which leaves the maximum unchanged.
    """
    if sample.count == 0:
        return (0, 0.0), finer
    if finer is not None and len(finer[1]) == 1:
        return (1, float(finer[2][0])), finer
    xyz = sample.xyz
    order, cell_of, counts, first, second = _cell_pairs(xyz, delta / math.sqrt(3.0))
    starts = np.cumsum(counts) - counts
    dot_needed = 1.0 - delta * delta / 2.0
    pts = xyz[order]
    del order
    hit, miss = _triage(pts, starts, first, second, dot_needed)
    root = np.arange(len(counts))
    _join(root, first[hit], second[hit])
    apart = ~(hit | miss) & (root[first] != root[second])
    first, second = first[apart], second[apart]
    small = counts[first] * counts[second] <= _SMALL_PAIR
    linked = _small_pairs_linked(pts, starts, counts, first[small], second[small], dot_needed)
    _join(root, first[small][linked], second[small][linked])
    for i, j in zip(first[~small].tolist(), second[~small].tolist()):
        ri, rj = _find(root, i), _find(root, j)
        if ri != rj and any(float(d.max()) >= dot_needed for d in _pair_blocks(
                pts[starts[i]:starts[i] + counts[i]], pts[starts[j]:starts[j] + counts[j]])):
            root[max(ri, rj)] = min(ri, rj)
    # the pair tests' slices, views of pts, are gone, so this frees it
    del pts
    _flatten(root)

    # components numbered by their least cube, each class's root
    label = np.cumsum(root == np.arange(len(root))) - 1
    comp = label[root][cell_of]
    del cell_of
    sizes = np.bincount(comp)
    begins = np.cumsum(sizes) - sizes
    # members of each component in ascending point index: one component
    # is the points in their own order, neither sorted nor copied
    by_comp = np.argsort(comp, kind="stable") if len(sizes) > 1 else None
    diams = np.where(sizes > 1, np.nan, 0.0)
    if finer is not None:
        finer_comp, finer_sizes, finer_diams = finer
        # the finer component of each component's first point
        head = finer_comp[begins if by_comp is None else by_comp[begins]]
        same = sizes == finer_sizes[head]
        diams[same] = finer_diams[head[same]]
    grouped = xyz if by_comp is None else xyz[by_comp]
    del by_comp
    box = np.maximum.reduceat(grouped, begins) - np.minimum.reduceat(grouped, begins)
    # a diameter never exceeds its bounding box's diagonal; the margin
    # covers the rounding of sqrt(2 - 2 a . b)
    bound = np.sqrt(_dots(box, box)) + 1e-6
    known = ~np.isnan(diams)
    max_diam = float(diams[known].max(initial=0.0))
    todo = np.flatnonzero(~known)
    for c in todo[np.argsort(-bound[todo], kind="stable")]:
        if bound[c] < max_diam:
            break
        pts = grouped[begins[c]:begins[c] + sizes[c]]
        if sizes[c] <= _EXACT_DIAM:
            diams[c] = math.sqrt(max(2.0 - 2.0 * _min_dot(_rim(pts)), 0.0))
        else:
            diams[c] = _double_sweep(pts)
        max_diam = max(max_diam, float(diams[c]))
    return (len(sizes), max_diam), (comp, sizes, diams)


def _double_sweep(pts):
    """Approximate diameter: repeated farthest-point sweeps, in passes of
    `_core.PASS_BUDGET` points.  A pass's first farthest point replaces
    the sweep's only when strictly farther, as np.argmax over all picks."""
    i, best = 0, 0.0
    for _ in range(4):
        far = -math.inf
        for s in range(0, len(pts), _core.PASS_BUDGET):
            d = 2.0 - 2.0 * _dots(pts[s:s + _core.PASS_BUDGET], pts[i])
            k = int(np.argmax(d))
            if d[k] > far:
                far, j = float(d[k]), s + k
        best = max(best, math.sqrt(max(far, 0.0)))
        i = j
    return best
