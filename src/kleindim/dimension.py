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


def _first_by_key(xyz):
    """Which points the greedy dedup keeps, scanning in order.

    Each point has two keys, rint(xyz / DEDUP_TOL) and
    rint(xyz / DEDUP_TOL + 0.5), on two lattices offset by half a step
    but held in one set, so one point's first key can meet another's
    second.  A point is kept unless either of its keys belongs to a point
    kept before it; a kept point adds both.  Keys are numbered by one
    lexsort; points whose keys no other point has are always kept, and
    the scan runs over the rest only.
    """
    n = len(xyz)
    if n == 0:
        return np.zeros(0, dtype=bool)
    scaled = xyz / DEDUP_TOL
    keys = np.concatenate([np.rint(scaled), np.rint(scaled + 0.5)]).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    ids = np.empty(2 * n, dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1))))
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
    sort on word length).  ROADMAP item 4 calls this order biased: a ball
    cut by its count cap holds a partial last layer, which then fills
    the sample.  It is kept until the sampling itself is redesigned, so
    that every sample stays as it was.  Non-loxodromic elements are passed
    over.  Dedup is `_first_by_key`'s rule: a point is dropped when either
    of its two keys belongs to an earlier kept point.  The scan stops once
    `cap` points are kept, so `skipped` counts only the non-loxodromic
    elements before the cap-th kept point (none when cap <= 0).  The fixed
    points come from `_core.attracting_points` on `ball.mats`, bit for
    bit as `MoebiusMap.fixed_points` gives them.
    """
    lengths = np.fromiter(map(len, ball.words), dtype=np.int64, count=len(ball.words))
    order = np.argsort(-lengths, kind="stable")
    lox, z, infinite, scalar_rows = _core.attracting_points(ball.mats[order])
    rows = np.flatnonzero(lox)
    xyz = _core.sphere_xyz(z[rows], infinite[rows])
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


def default_scales(n=10, start=1.0):
    return [start * 0.5**k for k in range(n)]


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
    cells -= cells.min(axis=1, keepdims=True)
    span = int(cells.max()) + 1
    if 2 * span * span >= 2**63:
        # far below the dedup tolerance: rank the cell indices so the
        # packed keys stay within int64
        cells = np.unique(cells.ravel(), return_inverse=True)[1].reshape(cells.shape)
        span = int(cells.max()) + 1
    return len(np.unique((outer * span + cells[0]) * span + cells[1]))


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
    (an empty sample or ball) raises DegenerateScaleWindow.
    """
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
    """Box-counting dimension with an automatically chosen scale window.

    The per-scale component columns are costly on large samples; pass
    with_components=False to leave them zero when only the dimension
    estimate is needed.
    """
    if scales is None:
        scales = default_scales()
    scales = sorted(scales, reverse=True)
    counts = [_box_count(sample, d) for d in scales]
    rows = []
    for d, c in zip(scales, counts):
        comp, diam = component_analysis(sample, d) if with_components else (0, 0.0)
        rows.append(ScaleRow(delta=d, box_count=c, components=comp, max_diam=diam))
    table = ScaleTable(rows=rows)
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


def _cross_within(a, b, d2):
    """Any pair across the two unit-vector sets at squared distance <= d2.

    Squared distance is 2 - 2 (a . b); chunked to bound memory, with an
    early exit on the first hit.
    """
    dot_needed = 1.0 - d2 / 2.0
    step = 2048
    for i in range(0, len(a), step):
        blk = a[i : i + step]
        for j in range(0, len(b), step):
            if float(np.max(blk @ b[j : j + step].T)) >= dot_needed:
                return True
    return False


# Cell pairs with at most this many point pairs are tested in one
# vectorised pass; larger ones go through _cross_within, which can stop at
# the first hit and is skipped once the two cells are already joined.
_SMALL_PAIR = 256
# point pairs per vectorised pass, to bound memory
_PAIR_CHUNK = 1 << 18
# exact O(k^2) diameter up to this component size, double sweep above
_EXACT_DIAM = 4000
# the 62 cell offsets in {-2..2}^3 that are lexicographically positive:
# each unordered pair of nearby cells is visited once
_HALF_OFFSETS = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3)
                 for c in range(-2, 3) if (a, b, c) > (0, 0, 0)]


def _compress(v):
    """Relabel integers so gaps of 1 or 2 are kept and larger gaps become 3.

    Whether two cells lie within 2 of each other along an axis is all the
    neighbour search asks, and the labels stay below 3 * len(unique(v)) + 5
    whatever the scale.  Labels start at 2 so an offset of -2 stays >= 0.
    """
    vals, inv = np.unique(v, return_inverse=True)
    labels = np.concatenate(([2], 2 + np.cumsum(np.minimum(np.diff(vals), 3))))
    return labels[inv], int(labels[-1]) + 3


def _cell_pairs(ijk):
    """Occupied cells and the pairs of them at most 2 apart on every axis.

    Returns (cell_of, counts, first, second): the cell index of each
    point (cells sorted by key), the points per cell, and the two cells
    of each neighbouring pair.
    """
    (x, _), (y, sy), (z, sz) = (_compress(ijk[:, k]) for k in range(3))
    # two packed int64 levels, so no scale or sample size overflows:
    # the occupied (x, y) columns, then the rank of the column and z
    col_keys, col = np.unique(x * sy + y, return_inverse=True)
    keys, cell_of, counts = np.unique(col * sz + z, return_inverse=True,
                                      return_counts=True)
    cell_col, cell_z = np.divmod(keys, sz)
    cell_xy = col_keys[cell_col]
    first, second = [], []
    for a, b, c in _HALF_OFFSETS:
        target = cell_xy + (a * sy + b)
        pos = np.minimum(np.searchsorted(col_keys, target), len(col_keys) - 1)
        target = pos * sz + cell_z + c
        hit = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
        found = (col_keys[pos] == cell_xy + (a * sy + b)) & (keys[hit] == target)
        first.append(np.flatnonzero(found))
        second.append(hit[found])
    return cell_of, counts, np.concatenate(first), np.concatenate(second)


def _small_pairs_linked(pts, starts, counts, first, second, dot_needed):
    """Which cell pairs hold a point pair with a . b >= dot_needed.

    `pts` holds the points grouped by cell, cell k at starts[k]; every
    point pair of every cell pair is tested, in chunks.
    """
    nb = counts[second]
    size = counts[first] * nb
    ends = np.cumsum(size)
    linked = np.zeros(len(first), dtype=bool)
    lo = 0
    while lo < len(first):
        base = ends[lo] - size[lo]
        hi = max(int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")), lo + 1)
        pair = np.repeat(np.arange(lo, hi), size[lo:hi])
        # position of each point pair within its cell pair, row-major
        within = np.arange(len(pair)) - (ends[pair] - size[pair] - base)
        ia = starts[first[pair]] + within // nb[pair]
        ib = starts[second[pair]] + within % nb[pair]
        hit = np.einsum("ij,ij->i", pts[ia], pts[ib]) >= dot_needed
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


def component_analysis(sample, delta):
    """Components of the graph joining sample points at chordal distance
    <= delta, that is with unit vectors a . b >= 1 - delta^2 / 2.

    Returns (component_count, max_component_diameter).  The graph is
    built on cells first: points are binned in cubes of side
    delta / sqrt(3), so points sharing a cube are always joined and an
    edge can only join cubes at most 2 apart on every axis.  Each pair of
    occupied nearby cubes is tested point pair by point pair, vectorised
    when small, and a union-find runs over cubes, not points.  The
    diameter is exact (all pairs) for components of at most 4,000 points
    and a double-sweep lower bound above; components whose bounding box
    is smaller than the largest diameter so far are skipped, which
    leaves the maximum unchanged.
    """
    if sample.count == 0:
        return 0, 0.0
    xyz = sample.xyz
    side = delta / math.sqrt(3.0)
    cell_of, counts, first, second = _cell_pairs(np.floor(xyz / side).astype(np.int64))
    order = np.argsort(cell_of, kind="stable")
    starts = np.cumsum(counts) - counts
    dot_needed = 1.0 - delta * delta / 2.0

    uf = _UnionFind(len(counts))
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
        if _cross_within(a, b, delta * delta):
            uf.union(i, j)

    roots = np.array([uf.find(i) for i in range(len(counts))])
    _, comp = np.unique(roots[cell_of], return_inverse=True)
    # members of each component in ascending point index
    by_comp = np.argsort(comp, kind="stable")
    sizes = np.bincount(comp)
    begins = np.cumsum(sizes) - sizes
    grouped = xyz[by_comp]
    box = np.maximum.reduceat(grouped, begins) - np.minimum.reduceat(grouped, begins)
    # a diameter never exceeds its bounding box's diagonal; the margin
    # covers the rounding of sqrt(2 - 2 a . b)
    bound = np.sqrt(np.sum(box * box, axis=1)) + 1e-6
    max_diam = 0.0
    multi = np.flatnonzero(sizes > 1)
    for c in multi[np.argsort(-bound[multi], kind="stable")]:
        if bound[c] < max_diam:
            break
        pts = xyz[by_comp[begins[c]:begins[c] + sizes[c]]]
        if sizes[c] <= _EXACT_DIAM:
            diam = math.sqrt(max(2.0 - 2.0 * float(np.min(pts @ pts.T)), 0.0))
        else:
            diam = _double_sweep(pts)
        max_diam = max(max_diam, diam)
    return len(sizes), max_diam


def _double_sweep(pts):
    """Approximate diameter: repeated farthest-point sweeps."""
    i = 0
    best = 0.0
    for _ in range(4):
        d = 2.0 - 2.0 * pts @ pts[i]
        j = int(np.argmax(d))
        best = max(best, math.sqrt(max(float(d[j]), 0.0)))
        i = j
    return best
