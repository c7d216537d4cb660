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
    scalar_rows: int = 0  # elements the kernel left to MoebiusMap

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
    `_core.attracting_points` on `ball.mats`, bit for bit as
    `MoebiusMap.fixed_points` gives them.
    """
    lengths = ball.words.lengths
    n = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    lox, infinite = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    z = np.empty(n, dtype=np.complex128)
    scalar_rows = 0
    # in passes of the pass budget; the kernels decide row by row
    for s in range(0, n, _core.PASS_BUDGET):
        part = slice(s, s + _core.PASS_BUDGET)
        lox[part], z[part], infinite[part], scalar = _core.attracting_points(ball.mats[order[part]])
        scalar_rows += scalar
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
                       skipped=end - int(np.count_nonzero(lox[:end])),
                       scalar_rows=scalar_rows)


def merge_samples(a, b):
    """Union of two samples, deduplicated.

    The points of a, then those of b, go through `_first_by_key`'s rule:
    a point is dropped when either of its keys belongs to an earlier kept
    point.  A sample built by this rule keeps all its points, so b adds
    the points a lacks.  `skipped` and `scalar_rows` add up.  Limit sets
    of nested groups are nested, so accumulating sample points across
    truncation levels keeps the sampled sets nested too, which the
    box-count comparison across levels relies on.
    """
    xyz = np.concatenate([a.xyz, b.xyz])
    keep = _first_by_key(xyz)
    return LimitSample(z=np.concatenate([a.z, b.z])[keep],
                       infinite=np.concatenate([a.infinite, b.infinite])[keep],
                       xyz=xyz[keep], skipped=a.skipped + b.skipped,
                       scalar_rows=a.scalar_rows + b.scalar_rows)


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


def _box_count(sample, delta):
    """Occupied chordal-grid cells of side delta / sqrt(8) across the two
    stereographic charts: z where |z| <= 1, 1/z elsewhere (0 at infinity)."""
    if sample.count == 0:
        return 0
    side = delta / _SQRT8
    z = sample.z
    outer = sample.infinite | (np.hypot(z.real, z.imag) > 1.0)
    wr, wi = _core.c_quot(1.0, 0.0, z.real, z.imag)
    wr = np.where(sample.infinite, 0.0, np.where(outer, wr, z.real))
    wi = np.where(sample.infinite, 0.0, np.where(outer, wi, z.imag))
    cells = np.floor(np.stack([wr, wi]) / side).astype(np.int64)
    return len(np.unique(_cell_keys([outer.astype(np.int64), *cells])[0]))


def _cell_keys(cells):
    """One lexicographic key per cell, and the key step of each axis.

    `cells` holds the cells' integer coordinates, one array per axis.
    Each axis is shifted to run from 2 to its span - 3, so a cell moved
    by at most 2 along every axis stays inside the spans, and its key is
    that cell's key or no occupied cell's: nothing wraps.  Keys are int64
    while the spans' product is below 2^63, Python ints (an object array)
    above it, so every scale is exact.
    """
    cols = [c - (c.min() - 2) for c in cells]
    spans = [int(c.max()) + 3 for c in cols]
    strides = [math.prod(spans[k + 1:]) for k in range(len(spans))]
    dtype = np.int64 if math.prod(spans) < 2**63 else object
    return sum(c.astype(dtype, copy=False) * s for c, s in zip(cols, strides)), strides


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
    counts = [_box_count(sample, d) for d in scales]
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


def _facing_test(a, b, dot_needed):
    """Decide a cell pair from its facing points where that is clear:
    True when a pair with a . b >= dot_needed exists, False when none
    surely does, None when only the exhaustive test can tell.

    Hit: the point of each cell nearest the other cell's centroid is
    tested against every point of the other cell.  Its dot products are
    `_dots`, as in the exhaustive test, so a hit here is a hit there.
    Miss: every point of one cell lies at squared distance above
    2 (1 - dot_needed) + 2 _FACING_MARGIN, about delta^2 + 2e-12, from
    the other cell's bounding box, which holds every point of that cell.
    |p - q|^2 >= dist(p, box)^2 holds exactly and p . q = (|p|^2 + |q|^2
    - |p - q|^2) / 2, so every dot product lies below dot_needed -
    _FACING_MARGIN up to a few ulps of the computed distance, norms and
    dot_needed; the margin makes the miss one the exhaustive test would
    find too.
    """
    for near, far in ((a, b), (b, a)):
        gap = near - far.mean(axis=0)
        p = near[np.argmin(_dots(gap, gap))]
        if float(_dots(far, p).max()) >= dot_needed:
            return True
    clear = 2.0 * (1.0 - dot_needed) + 2.0 * _FACING_MARGIN
    for near, far in ((a, b), (b, a)):
        gap = np.maximum(np.maximum(far.min(axis=0) - near, near - far.max(axis=0)), 0.0)
        if float(_dots(gap, gap).min()) > clear:
            return False
    return None


# Cell pairs with at most this many point pairs are tested in one
# vectorised pass; larger ones go through _facing_test, then, when it
# cannot tell, through every point pair, stopping at the first block with
# a hit.  Both are skipped once the two cells are already joined.
_SMALL_PAIR = 256
# absolute margin in dot-product terms of _facing_test's miss test
_FACING_MARGIN = 1e-12
# the least delta components are taken at.  A pair with a . b computed
# >= 1 - delta^2 / 2 may lie up to sqrt(delta^2 + 2^-47) apart (rounding of
# the dot product and of the norms), which the search's reach, 2 delta /
# sqrt(3), covers only for delta >= 1.5e-7; below it rounding, not delta,
# decides which pairs are joined
_MIN_DELTA = 2.0**-22
# exact O(k^2) diameter up to this component size, double sweep above
_EXACT_DIAM = 4000
# the 62 cell offsets in {-2..2}^3 that are lexicographically positive:
# each unordered pair of nearby cells is visited once
_HALF_OFFSETS = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3)
                 for c in range(-2, 3) if (a, b, c) > (0, 0, 0)]


def _cell_pairs(cells):
    """Occupied cells and the pairs of them at most 2 apart on every axis.

    `cells` holds the points' integer cell coordinates, one array per
    axis.  Returns (cell_of, counts, first, second): the cell index of
    each point (cells in lexicographic order), the points per cell, and
    the two cells of each neighbouring pair.  Cells are found by one sort
    of their `_cell_keys` and each offset's neighbours by one search.
    """
    keys, strides = _cell_keys(cells)
    occupied, cell_of, counts = np.unique(keys, return_inverse=True, return_counts=True)
    first, second = [], []
    for offset in _HALF_OFFSETS:
        target = occupied + sum(a * s for a, s in zip(offset, strides))
        hit = np.minimum(np.searchsorted(occupied, target), len(occupied) - 1)
        found = occupied[hit] == target
        first.append(np.flatnonzero(found))
        second.append(hit[found])
    return cell_of, counts, np.concatenate(first), np.concatenate(second)


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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def roots(self):
        """The root of every element, as an array, by pointer jumping."""
        p = np.array(self.parent)
        while True:
            q = p[p]
            if np.array_equal(q, p):
                return p
            p = q


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
    linkage), and each scale starts from the partition of the finer
    scale before it, whatever the scales are; `_components_at` says how.
    Only one scale's labels and diameters are held at a time.  A delta
    below `_MIN_DELTA` (2^-22, about 2.4e-7) raises ValueError: there the
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

    `finer` is that partition at a finer scale, or None.  The graph is
    built on cells first: points are binned in cubes of side
    delta / sqrt(3), so points sharing a cube are always joined and an
    edge can only join cubes at most 2 apart on every axis.  A union-find
    runs over cubes, not points.  It starts from `finer`: the cubes that
    hold the points of one finer component are joined, and the pairs of
    nearby cubes already joined are dropped.  The rest are decided in
    this order:
    - small pairs (at most 256 point pairs), every point pair in one
      vectorised pass;
    - each large pair whose cubes are not yet joined: by _facing_test's
      hit test (the points nearest the other cube's centroid), then by
      its miss test (distances to the other cube's bounding box, with a
      margin that makes it agree with the exact test);
    - the large pairs neither test decides, every point pair, block by
      block, stopping at the first block with a hit.
    Every dot product, here and in the diameters, is `_dots`, so a pair
    rounds alike in every test.  The diameter is exact (all pairs, in
    blocks) for components of at most 4,000 points and a double-sweep
    lower bound above, from the component's lowest-index point; either
    is a function of the point set.  So a component with the size of the
    finer component of its first point is that component and keeps its
    diameter.  The others are taken in decreasing order of their
    bounding box, and those whose box is smaller than the largest
    diameter so far are skipped, which leaves the maximum unchanged.
    """
    if sample.count == 0:
        return (0, 0.0), finer
    xyz = sample.xyz
    side = delta / math.sqrt(3.0)
    cell_of, counts, first, second = _cell_pairs(np.floor(xyz / side).astype(np.int64).T)
    order = np.argsort(cell_of, kind="stable")
    starts = np.cumsum(counts) - counts
    dot_needed = 1.0 - delta * delta / 2.0

    uf = _UnionFind(len(counts))
    if finer is not None:
        finer_comp, finer_sizes, finer_diams = finer
        # the distinct (finer component, cube) pairs, by component; each
        # cube is joined to the one before it in its component
        comps, cubes = np.divmod(np.unique(finer_comp * len(counts) + cell_of), len(counts))
        shared = comps[1:] == comps[:-1]
        for i, j in zip(cubes[:-1][shared].tolist(), cubes[1:][shared].tolist()):
            uf.union(i, j)
        roots = uf.roots()
        apart = roots[first] != roots[second]
        first, second = first[apart], second[apart]
    small = counts[first] * counts[second] <= _SMALL_PAIR
    linked = _small_pairs_linked(xyz[order], starts, counts, first[small],
                                 second[small], dot_needed)
    for i, j in zip(first[small][linked].tolist(), second[small][linked].tolist()):
        uf.union(i, j)
    for i, j in zip(first[~small].tolist(), second[~small].tolist()):
        if uf.find(i) == uf.find(j):
            continue
        a = xyz[order[starts[i]:starts[i] + counts[i]]]
        b = xyz[order[starts[j]:starts[j] + counts[j]]]
        joined = _facing_test(a, b, dot_needed)
        if joined is None:
            joined = any(float(d.max()) >= dot_needed for d in _pair_blocks(a, b))
        if joined:
            uf.union(i, j)

    comp = np.unique(uf.roots(), return_inverse=True)[1][cell_of]
    # members of each component in ascending point index
    by_comp = np.argsort(comp, kind="stable")
    sizes = np.bincount(comp)
    begins = np.cumsum(sizes) - sizes
    diams = np.where(sizes > 1, np.nan, 0.0)
    if finer is not None:
        # the finer component of each component's first point
        head = finer_comp[by_comp[begins]]
        same = sizes == finer_sizes[head]
        diams[same] = finer_diams[head[same]]
    grouped = xyz[by_comp]
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
            diams[c] = math.sqrt(max(2.0 - 2.0 * _min_dot(pts), 0.0))
        else:
            diams[c] = _double_sweep(pts)
        max_diam = max(max_diam, float(diams[c]))
    return (len(sizes), max_diam), (comp, sizes, diams)


def _double_sweep(pts):
    """Approximate diameter: repeated farthest-point sweeps."""
    i = 0
    best = 0.0
    for _ in range(4):
        d = 2.0 - 2.0 * _dots(pts, pts[i])
        j = int(np.argmax(d))
        best = max(best, math.sqrt(max(float(d[j]), 0.0)))
        i = j
    return best
