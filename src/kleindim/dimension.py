"""Limit-set sampling, box-counting dimension, critical exponent, and
connected-component (Cantor) diagnostics on the chordal sphere."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleWindow, IncompleteBall
from .moebius import INF, SpherePoint

DEDUP_TOL = 1e-10
_SQRT8 = 2.0 * math.sqrt(2.0)


def _to_xyz(z):
    """Unit-sphere embedding; chordal distance = euclidean distance."""
    if z is None:
        return np.array([0.0, 0.0, 1.0])
    n = abs(z) ** 2
    return np.array([2.0 * z.real, 2.0 * z.imag, n - 1.0]) / (n + 1.0)


@dataclass
class LimitSample:
    """Deduplicated attracting fixed points of sampled loxodromics."""

    points: list  # SpherePoints
    xyz: np.ndarray  # (n, 3) unit-sphere coordinates, parallel to points
    provenance: str
    count: int
    skipped: int = 0

    def __len__(self):
        return self.count


def sample_limit_set(elements, cap=100_000, provenance=""):
    """Attracting fixed points of loxodromic elements, deduplicated.

    When over the cap, elements with the longest words are kept first;
    deeper words give better-distributed points.
    """
    ordered = sorted(elements, key=lambda e: -len(e.word))
    pts = []
    coords = []
    seen = {}
    skipped = 0
    for e in ordered:
        if len(pts) >= cap:
            break
        m = e.moebius()
        if not m.is_loxodromic():
            skipped += 1
            continue
        att, _ = m.fixed_points()
        xyz = _to_xyz(None if att.infinite else att.z)
        key0 = tuple(np.rint(xyz / DEDUP_TOL).astype(np.int64))
        key1 = tuple(np.rint(xyz / DEDUP_TOL + 0.5).astype(np.int64))
        if key0 in seen or key1 in seen:
            continue
        seen[key0] = True
        seen[key1] = True
        pts.append(att)
        coords.append(xyz)
    xyz = np.array(coords) if coords else np.empty((0, 3))
    return LimitSample(points=pts, xyz=xyz, provenance=provenance,
                       count=len(pts), skipped=skipped)


def merge_samples(a, b):
    """Union of two samples, deduplicated; keeps b's provenance.

    Limit sets of nested groups are nested, so accumulating sample
    points across truncation levels keeps the sampled sets nested too,
    which the box-count comparison across levels relies on.
    """
    pts = []
    coords = []
    seen = {}
    skipped = a.skipped + b.skipped
    for sample in (a, b):
        for p, xyz in zip(sample.points, sample.xyz):
            key0 = tuple(np.rint(xyz / DEDUP_TOL).astype(np.int64))
            key1 = tuple(np.rint(xyz / DEDUP_TOL + 0.5).astype(np.int64))
            if key0 in seen or key1 in seen:
                continue
            seen[key0] = True
            seen[key1] = True
            pts.append(p)
            coords.append(xyz)
    xyz = np.array(coords) if coords else np.empty((0, 3))
    return LimitSample(points=pts, xyz=xyz, provenance=b.provenance,
                       count=len(pts), skipped=skipped)


def sample_from_points(points, provenance=""):
    """LimitSample from explicit SpherePoints (mostly for tests)."""
    coords = [_to_xyz(None if p.infinite else p.z) for p in points]
    xyz = np.array(coords) if coords else np.empty((0, 3))
    return LimitSample(points=list(points), xyz=xyz, provenance=provenance,
                       count=len(points))


@dataclass(frozen=True)
class ScaleRow:
    delta: float
    box_count: int
    components: int
    max_diam: float


@dataclass
class ScaleTable:
    rows: list

    def to_csv(self):
        lines = ["delta,box_count,components,max_diam"]
        for r in self.rows:
            lines.append(f"{r.delta!r},{r.box_count},{r.components},{r.max_diam!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DimEstimate:
    value: float
    stderr: float
    scale_window: tuple
    method: str


def default_scales(n=10, start=1.0):
    return [start * 0.5**k for k in range(n)]


def _box_count(sample, delta):
    """Occupied chordal-grid cells across the two stereographic charts."""
    side = delta / _SQRT8
    cells = set()
    for p in sample.points:
        if p.infinite:
            z, chart = 0.0 + 0.0j, 1
        elif abs(p.z) <= 1.0:
            z, chart = p.z, 0
        else:
            z, chart = 1.0 / p.z, 1
        cells.add((chart, math.floor(z.real / side), math.floor(z.imag / side)))
    return len(cells)


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


def _stable_window(slopes, spread=0.15, min_len=4, prefer_tail=False):
    """Longest run of consecutive local slopes varying by < spread.

    Returns (i, j) meaning scales i..j inclusive (j - i local slopes).
    Ties go to the later run when prefer_tail.
    """
    n = len(slopes)
    best = None
    for i in range(n):
        for j in range(i, n):
            run = slopes[i : j + 1]
            if max(run) - min(run) >= spread:
                break
            if j - i + 2 >= min_len:
                length = j - i
                if best is None or length > best[0] or (prefer_tail and length == best[0]):
                    best = (length, i, j)
    if best is None:
        return None
    return best[1], best[2] + 1


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

    logs = [math.log(c) for c in counts]
    invs = [math.log(1.0 / d) for d in scales]
    local = [
        (logs[i + 1] - logs[i]) / (invs[i + 1] - invs[i]) for i in range(len(scales) - 1)
    ]
    win = _stable_window(local)
    if win is None:
        raise DegenerateScaleWindow(
            "no run of 4 consecutive scales with stable local slopes"
        )
    i, j = win
    slope, stderr = _ols(invs[i : j + 1], logs[i : j + 1])
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
    if min(counts) < 1:
        raise DegenerateScaleWindow("empty orbit count at the smallest radius")
    logs = [math.log(c) for c in counts]
    local = [
        (logs[i + 1] - logs[i]) / (radii[i + 1] - radii[i]) for i in range(len(radii) - 1)
    ]
    win = _stable_window(local, prefer_tail=True)
    if win is None:
        i, j = max(0, len(radii) - 4), len(radii) - 1
    else:
        i, j = win
    slope, stderr = _ols(radii[i : j + 1], logs[i : j + 1])
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
