"""Tree-of-planes model of the glued space: strata, leaf-count bound,
volume-growth entropy bound, and empirical quasi-geodesic constants.

The glued space deformation-retracts to a tree of hyperbolic planes
joined along lifts of the two length-1 curves.  The unfolding projection
maps every stratum isometrically onto the base plane; counting how many
strata can carry a copy of a point at a given distance yields the
entropy bound 1 + ln2/(2r).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _core
from .errors import (BoundViolation, EnumerationBudgetExceeded, NumericError,
                     UnrealizablePath)
from .hnn import solve_stable_letter
from .moebius import BASEPOINT, MoebiusMap, hdist
from .subgroup import BallLimit, enumerate_ball

GAP_TOL = 1e-6
_ENDPOINT_QUANT = 1e-6
# relative margin of the lift sieve's gap test: a row whose |(u + v) /
# (u - v)| lies this near cosh(radius) is left to the scalar acosh
_SIEVE_MARGIN = 1e-9
MAX_NODES = 50_000  # strata tree size at which the build gives up
# shifts s of the leaf check's chart z -> -1/(z - s), in the order tried
_CHART_SHIFTS = (2.718281828, 4.6692016, 7.389056)
MAX_BENDS = 5  # bends per sampled bend path, at most
DIM_TOL = 0.1  # slack of the dimension bound check


def entropy_bound(r):
    """Upper bound 1 + ln2/(2r) for the volume-growth entropy."""
    if r <= 0:
        raise ValueError("collar radius must be positive")
    return 1.0 + math.log(2.0) / (2.0 * r)


# -- strata tree ------------------------------------------------------


@dataclass(frozen=True)
class LiftBall:
    """The displacement ball one entry's lift list was taken from.

    `complete_radius` is the band's claim (BallResult), not a
    certificate.  `missing_inverses` counts the ball's words whose
    inverse word it lacks, found by walking the ball's word trie along
    each inverse (`_lift_ball`); a missing inverse has the same
    displacement, so the ball is complete at most to `min_missing_disp`,
    the smallest displacement among them (None when there is none)."""

    elements: int
    cap: float
    complete_radius: float
    truncated: bool
    missing_inverses: int
    min_missing_disp: float | None


@dataclass
class StrataTree:
    """The tree of strata as columns, one row per node in depth-first
    preorder (build_strata_tree); row 0 is the root placeholder, with
    parent -1, depth, d and gap 0 and no endpoints."""

    parent: np.ndarray  # (n,) int64 row of each node's parent
    depth: np.ndarray  # (n,) int64
    d: np.ndarray  # (n,) cumulative distance from the base point to the geodesic
    gap: np.ndarray  # (n,) separation from the parent's entry geodesic
    ends: np.ndarray  # (n, 2) projected entry geodesic, endpoints in base coords, 0 at inf
    finite: np.ndarray  # (n, 2) False where an endpoint is inf
    radius: float
    lift_balls: dict  # entry kind -> LiftBall

    def __len__(self):
        return len(self.parent)

    def min_gap(self):
        gaps = self.gap[self.depth >= 2]
        return float(gaps.min()) if len(gaps) else math.inf

    def max_depth(self):
        return int(self.depth.max())


def _base_distances(ends, finite):
    """Distance from the base point i to each geodesic with real endpoints
    `ends` (inf where not `finite`), inf where the endpoints coincide.
    With projective endpoints (p1:p2), (q1:q2), sinh d = |p1 q1 + p2 q2| /
    |p1 q2 - p2 q1|; math.asinh is mapped over the rows, since NumPy's
    arcsinh differs from libm's in the last bits."""
    (p1, q1), (p2, q2) = np.where(finite, ends, 1.0).T, finite.T.astype(float)
    with np.errstate(all="ignore"):
        num = np.abs(p1 * q1 + p2 * q2)
        den = np.abs(p1 * q2 - p2 * q1)
        some = np.flatnonzero(den != 0.0)
        ratio = num[some] / den[some]
    d = np.full(len(num), math.inf)
    d[some] = [math.asinh(x) for x in ratio.tolist()]
    return d


def _vertical_gaps(u, u_finite, v, v_finite):
    """Distance from the vertical axis {0, inf} to each geodesic with real
    endpoints u, v (inf where not finite): (gap, has_gap).  There is none
    where the endpoints share the axis or an endpoint, or where both are
    finite and one lies outside 1e-9 <= |x| <= 1e9; one endpoint at inf
    gives 0 unless the other is 0.  The gap above 0 is math.acosh of
    |(u + v) / (u - v)|, mapped over those rows, since NumPy's arccosh
    differs from libm's in the last bits.  NaN endpoints give a NaN gap."""
    both = u_finite & v_finite
    with np.errstate(all="ignore"):
        au, av = np.abs(u), np.abs(v)
        ratio = np.abs((u + v) / (u - v))
        none = np.where(both, (au < 1e-9) | (av < 1e-9) | (au > 1e9) | (av > 1e9) | (u == v),
                        ~(u_finite | v_finite) | (np.where(u_finite, u, v) == 0.0))
    gap = np.zeros(len(none))
    acosh = np.flatnonzero(both & ~none & ~(ratio < 1.0))
    gap[acosh] = [math.acosh(x) for x in ratio[acosh].tolist()]
    return gap, ~none


def _geodesic_keys(u, u_finite, v, v_finite):
    """The dedup key of each geodesic with real endpoints u, v (inf where
    not finite), one int64 that the order of the endpoints does not
    change.  An endpoint keys as x / (_ENDPOINT_QUANT (1 + |x|)) rounded
    half to even, at most 1e6 in modulus, or above all those when it is
    inf or beyond 1e8.  A NaN endpoint has no key: ValueError."""
    keys = []
    for x, finite in ((u, u_finite), (v, v_finite)):
        with np.errstate(invalid="ignore"):
            near = finite & ~(np.abs(x) > 1e8)
            step = np.where(near, x / (_ENDPOINT_QUANT * (1.0 + np.abs(x))), 0.0)
        if np.isnan(step).any():
            round(math.nan)  # raises ValueError
        keys.append(np.where(near, np.rint(step).astype(np.int64) + (1 << 21), 1 << 22))
    return (np.minimum(*keys) << 23) + np.maximum(*keys)


class _Lifts(NamedTuple):
    """Lift candidates, one row per lift, in the order they were found."""

    m: np.ndarray  # (n, 4) representative surface-group elements, entry frame
    w: np.ndarray  # (n, 4) the same elements in standard coordinates
    kind: np.ndarray  # (n,) "gamma" or "boundary": the axis lifted
    gap: np.ndarray  # (n,) separation from the entry axis ({0, inf} in local frame)
    ends: np.ndarray  # (n, 2) endpoints in the stratum's standard coordinates
    finite: np.ndarray  # (n, 2) False where an endpoint is inf

    @classmethod
    def joined(cls, parts):
        return cls(*(np.concatenate(column) for column in zip(*parts)))


def _axis_endpoints(mat):
    """The real fixed points of `mat`, attracting first: (ends, finite), 0 at inf."""
    points = mat.fixed_points()
    return (np.array([0.0 if p.infinite else p.z.real for p in points]),
            np.array([not p.infinite for p in points]))


def _image_endpoints(mats, z, finite):
    """Images of real endpoints under real Moebius rows (a, b, c, d):
    (values, defined).  The image of z is (a z + b) / (c z + d), undefined
    (inf) where |c z + d| < 1e-12 (|a z| + |b| + 1); the image of inf is
    a / c, undefined where |c| < 1e-14 |a|.

    `mats` holds one row per endpoint, or one (1, 4) row for all; `z` is
    one endpoint, or one per row, with `finite` False where it is inf.
    The arithmetic replays CPython's complex arithmetic, bit for bit but
    for the sign of a NaN.  Where the quotient divides by zero (c, or
    c z + d, is 0 and its threshold 0 or NaN) the value is NaN."""
    one = np.ndim(finite) == 0
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((mats[:, k].real, mats[:, k].imag)
                                              for k in range(4))
    with np.errstate(all="ignore"):
        if not (one and finite):
            at_inf, _ = _core.c_quot(ar, ai, cr, ci)
            at_inf_ok = ~(np.hypot(cr, ci) < 1e-14 * np.hypot(ar, ai))
            if one:
                return at_inf, at_inf_ok
        # a float in a complex product is promoted to (z + 0j)
        nr, ni = _core.c_prod(ar, ai, z, 0.0)
        er, ei = _core.c_prod(cr, ci, z, 0.0)
        er, ei = er + dr, ei + di
        ok = ~(np.hypot(er, ei) < 1e-12 * ((np.hypot(nr, ni) + np.hypot(br, bi)) + 1.0))
        vals, _ = _core.c_quot(nr + br, ni + bi, er, ei)
    if one:
        return vals, ok
    return np.where(finite, vals, at_inf), np.where(finite, ok, at_inf_ok)


def _may_lift(u, u_defined, v, v_defined, radius):
    """Rows whose lift with image endpoints u, v (from _image_endpoints)
    _vertical_gaps could keep within `radius`: all but those with both
    endpoints defined and outside its endpoint window, equal, or with a
    gap beyond radius by more than _SIEVE_MARGIN.  A NaN endpoint is never
    ruled out."""
    with np.errstate(all="ignore"):
        au, av = np.abs(u), np.abs(v)
        out = ((au < 1e-9) | (av < 1e-9) | (au > 1e9) | (av > 1e9) | (u == v)
               | (np.abs((u + v) / (u - v)) > np.cosh(radius) * (1.0 + _SIEVE_MARGIN)))
    return ~(u_defined & v_defined & out)


def _entry_frame(surface, entry):
    """The frame carrying the axis of `entry` to {0, inf} (attracting end
    at inf), the surface generators in it, and the real endpoints of both
    gluing axes in it, kind -> (ends, finite) columns."""
    frame = entry.conjugator_to_standard()
    gens = [g.conjugate_by(frame) for g in surface.generators]
    axes = {
        "gamma": _axis_endpoints(surface.gamma_matrix().conjugate_by(frame)),
        "boundary": _axis_endpoints(surface.boundary_matrix().conjugate_by(frame)),
    }
    return frame, gens, axes


def _lift_candidates(surface, entry, radius, max_elements):
    """Distinct lifts of both gluing axes near the axis of `entry` (the
    gamma or the boundary matrix), as one _Lifts, and the LiftBall they
    came from.

    In the frame that carries the entry axis to {0, inf}, `entry` is
    z -> e^l z, l its translation length: it keeps every gap and adds l
    to a lift's axial offset 0.5 log|u v|, the log height of the lift's
    foot on the vertical axis.  The list holds the lifts within `radius`
    of that axis with |axial| <= radius + 1, built in three steps.

    - Ball: the displacement ball of the frame generators to cap =
      radius + 1 + the larger distance from i to either axis.  A lift
      with gap <= radius and |axial| <= l/2 passes within radius + l/2
      of i, and moving along it by its own length-1 element gives an
      element w taking the axis to it with d(i, w i) <= cap.
    - Representatives: _select_lifts over the ball's rows and their
      inverses, with the half-open axial window [-l/2, l/2).  An
      inverse lies in the true ball too, and the band search can miss
      it (LiftBall.missing_inverses).
    - Translates: each representative times the exact diagonal
      diag(e^{kl/2}, e^{-kl/2}) for |k| <= ceil((radius + 1)/l + 1/2),
      through _select_lifts again for the representative's own axis,
      with the window |axial| <= radius + 1.  Products with `entry`'s
      own matrix would add its rounding to every translate.

    The coset argument holds only as far as the ball is complete, and
    its complete radius is the band's claim (BallResult).
    """
    frame, gens, axes = _entry_frame(surface, entry)
    frame_inv = frame.inverse()
    cap = radius + 1.0 + float(_base_distances(*map(np.stack, zip(*axes.values()))).max())
    ball = enumerate_ball(gens, BallLimit(max_displacement=cap, max_count=max_elements))
    inverses = ball.mats[:, [3, 1, 2, 0]] * np.array([1, -1, -1, 1])
    rows = np.concatenate([ball.mats, inverses])
    ell = entry.translation_length()
    reps = _select_lifts(rows, axes, radius, frame_inv, (-0.5 * ell, 0.5 * ell))

    top = math.ceil((radius + 1.0) / ell + 0.5)
    diagonals = np.array([[math.exp(0.5 * k * ell)] * 2 + [math.exp(-0.5 * k * ell)] * 2
                          for k in range(-top, top + 1)])
    window = (-(radius + 1.0), math.nextafter(radius + 1.0, math.inf))
    parts = []
    for kind, axis in axes.items():
        base = reps.m[reps.kind == kind]
        translates = (diagonals[:, None, :] * base[None, :, :]).reshape(-1, 4)
        parts.append(_select_lifts(translates, {kind: axis}, radius, frame_inv, window))
    return _Lifts.joined(parts), _lift_ball(ball, cap)


def _lift_ball(ball, cap):
    """The LiftBall record of a lift ball enumerated to `cap`.

    Lift balls have free generators, so a reduced word is its own
    element, and w^-1 is in the ball exactly when a walk from the root of
    the ball's word trie (subgroup.Words) along w^-1 reaches an element's
    row.  w^-1 takes w's letters last first, each inverted (the inverse
    of column j is column j + n mod 2n), so the walk reads them by
    climbing from w's row, and each step down is one gather from a child
    table of trie rows x 2n columns (-1 where a row has no such child),
    for the whole ball at once."""
    words = ball.words
    ncols = len(words.letters)
    child = np.full((len(words.parents), ncols), -1, dtype=np.int32)
    child[words.parents[1:], words.columns[1:]] = np.arange(1, len(words.parents), dtype=np.int32)
    inverse = ((words.columns.astype(np.int32) + ncols // 2) % ncols).astype(words.columns.dtype)
    # one more row, never an element: where a walk ends at -1
    element = np.zeros(len(words.parents) + 1, dtype=bool)
    element[words.rows] = True
    up = words.rows.astype(np.int32)
    down = np.zeros(len(up), dtype=np.int32)
    for s in range(int(words.lengths.max(initial=0))):
        walking = np.flatnonzero((down >= 0) & (words.lengths > s))
        down[walking] = child[down[walking], inverse[up[walking]]]
        up[walking] = words.parents[up[walking]]
    missing = np.flatnonzero(~element[down])
    return LiftBall(elements=len(ball), cap=cap, complete_radius=ball.complete_radius,
                    truncated=ball.truncated, missing_inverses=len(missing),
                    min_missing_disp=float(ball.disps[missing].min()) if len(missing) else None)


def _select_lifts(mats, axes, radius, frame_inv, window):
    """Candidates for the images of `axes` (kind -> (ends, finite) of its
    real endpoints) under the rows of `mats`, within `radius` of the
    vertical axis and with axial offset in the half-open `window` (lo,
    hi): a _Lifts in row order, and in the order of `axes` within a row.

    The decision runs on arrays, in passes of `_core.PASS_BUDGET` (row,
    axis) pairs: each row's image endpoints (_image_endpoints, once per
    axis), the sieve (_may_lift), the gap (_vertical_gaps) and the axial
    window.  Only math.acosh for a gap and math.log for the axial offset
    0.5 log|u v| stay scalar, mapped over the pairs that reach them, since
    NumPy's versions differ from libm's in the last bits.  The dedup keeps
    the first pair of each _geodesic_keys key, and the kept lifts get
    w = frame_inv m frame_inv^-1 from _core.compose and their endpoints
    in standard coordinates from _image_endpoints, all at once.
    """
    kinds = list(axes)
    lo, hi = window
    step = max(_core.PASS_BUDGET // len(kinds), 1)
    found = []
    # one pass at least, so that no rows still give (empty) columns
    for start in range(0, max(len(mats), 1), step):
        part = mats[start:start + step]
        images = [_image_endpoints(part, ends[0], finite[0])
                  + _image_endpoints(part, ends[1], finite[1]) for ends, finite in axes.values()]
        # the (row, axis) pairs _may_lift keeps, row by row, and their
        # u, u_defined, v, v_defined
        rows, axis = np.nonzero(np.stack([_may_lift(*image, radius) for image in images], 1))
        u, u_ok, v, v_ok = (np.stack(column, 1)[rows, axis] for column in zip(*images))
        gap, has_gap = _vertical_gaps(u, u_ok, v, v_ok)
        keep = np.flatnonzero(has_gap & ~(gap > radius))
        both = u_ok[keep] & v_ok[keep]
        with np.errstate(invalid="ignore"):
            size = np.abs(u[keep] * v[keep])
            logged = np.flatnonzero(both & (size > 0))
        axial = np.zeros(len(keep))
        axial[logged] = [0.5 * math.log(x) for x in size[logged].tolist()]
        keep = keep[~both | ((lo <= axial) & (axial < hi))]
        found.append((start + rows[keep], axis[keep], u[keep], u_ok[keep], v[keep],
                      v_ok[keep], gap[keep]))
    row, axis, u, u_ok, v, v_ok, gap = (np.concatenate(column) for column in zip(*found))
    _, first = np.unique(_geodesic_keys(u, u_ok, v, v_ok), return_index=True)
    first.sort()
    q = np.array([frame_inv.entries()])
    m = mats[row[first]]
    ends = [_image_endpoints(q, x[first], ok[first]) for x, ok in ((u, u_ok), (v, v_ok))]
    w = _core.compose(_core.compose(q, m), np.array([frame_inv.inverse().entries()]))
    return _Lifts(m=m, w=w, kind=np.array(kinds)[axis[first]], gap=gap[first],
                  ends=np.stack([ends[0][0], ends[1][0]], 1),
                  finite=np.stack([ends[0][1], ends[1][1]], 1))


def build_strata_tree(rep, radius, max_depth=4, max_elements=200_000):
    """Tree of strata reachable within `radius` of the base point, as the
    columns of a StrataTree.

    Children of a stratum are the distinct lifts of the two gluing axes;
    a node's distance accumulates the separations along its chain, and
    its frame unfolds the node's plane isometrically onto the base plane,
    where its entry geodesic's endpoints are projected.  The rows are in
    the order of a depth-first walk that pushes a node's children in
    lift-list order and so visits them last first; at depth 1 it keeps
    the first node it visits of each projected geodesic (_geodesic_keys),
    the last in list order.

    The tree is built a depth at a time on arrays, in three steps.
    - Shape: each depth's children as (parent, lift) pairs, a lift being
      a child where its gap is at least GAP_TOL and the parent's d plus
      the gap is at most `radius`, in passes of `_core.PASS_BUDGET` pairs.
      The depth-1 distances from the base point are _base_distances of
      the lifts' endpoints.  A depth that takes the tree past MAX_NODES
      raises before any frame is formed.
    - Order: each node's row in the walk, from subtree sizes.
    - Columns: each depth's rows filled at once at their places, with the
      projected endpoints by _image_endpoints (depth 1's from the dedup)
      and, above the deepest depth, the frames, parent frame @ w @
      t_real^(+-1), by _core.compose.  The frames are not kept.
    """
    surface = rep.surface
    # Fuchsian counterpart of the stable letter: carries the boundary
    # axis to the designated curve's axis with matching translation
    t_real = solve_stable_letter(surface, rotation=0.0)

    # candidate lifts per entry type, in standard surface coordinates, as
    # one list, the gamma entry's first; crossing a lift of the curve, the
    # far side enters the next stratum through its boundary axis
    parts, lift_balls = [], {}
    for kind, entry in (("gamma", surface.gamma_matrix()),
                        ("boundary", surface.boundary_matrix())):
        lifts, lift_balls[kind] = _lift_candidates(surface, entry, radius, max_elements)
        parts.append(lifts)
    lifts = _Lifts.joined(parts)
    split = len(parts[0].gap)
    pools = {"gamma": np.arange(split, len(lifts.gap)), "boundary": np.arange(split)}

    # shape.  Depth 1: lifts measured from the base point itself
    d = _base_distances(lifts.ends, lifts.finite)
    lift = np.flatnonzero(d <= radius)
    frames = np.array([MoebiusMap.identity().entries()])
    proj = _image_endpoints(frames, lifts.ends[lift].T, lifts.finite[lift].T)
    (u, v), (u_ok, v_ok) = proj
    _, last = np.unique(_geodesic_keys(u, u_ok, v, v_ok)[::-1], return_index=True)
    kept = np.sort(len(lift) - 1 - last)
    lift, proj = lift[kept], [column[:, kept] for column in proj]
    layers = [(np.zeros(len(lift), dtype=np.int64), lift, d[lift])]
    count = 1 + len(lift)
    while len(layers) < max_depth and count <= MAX_NODES and len(layers[-1][1]):
        _, above, d = layers[-1]
        pairs = []
        for kind, pool in pools.items():
            who = np.flatnonzero(lifts.kind[above] == kind)
            if not len(who):
                continue
            # a gap below GAP_TOL is the entry geodesic itself; d + gap
            # rounds monotonically in d, so a lift beyond the nearest
            # parent's reach is no node's child
            gap = lifts.gap[pool]
            pool = pool[(gap >= GAP_TOL) & (d[who].min() + gap <= radius)]
            gap = lifts.gap[pool]
            rows = max(_core.PASS_BUDGET // max(len(pool), 1), 1)
            for s in range(0, len(who), rows):
                parent = who[s:s + rows]
                reach = d[parent, None] + gap
                i, j = np.nonzero(reach <= radius)
                pairs.append((parent[i], pool[j], reach[i, j]))
        parent, child, d_child = (np.concatenate(column) for column in zip(*pairs))
        # a node's children in list order, nodes in layer order
        order = np.argsort(parent, kind="stable")
        layers.append((parent[order], child[order], d_child[order]))
        count += len(parent)
    if count > MAX_NODES:
        raise EnumerationBudgetExceeded(f"strata tree exceeded {MAX_NODES} nodes")

    # order: a node is followed by its children's subtrees, the last
    # child's first
    sizes = [np.ones(len(layers[-1][1]), dtype=np.int64)]
    for (parent, _, _), (_, above, _) in zip(layers[:0:-1], layers[-2::-1]):
        below = np.bincount(parent, weights=sizes[0], minlength=len(above))
        sizes.insert(0, 1 + below.astype(np.int64))
    places = [np.zeros(1, dtype=np.int64)]
    for (parent, _, _), size in zip(layers, sizes):
        after = np.cumsum(size)
        last = np.searchsorted(parent, parent, side="right") - 1
        places.append(places[-1][parent] + 1 + (after[last] - after))

    # columns and frames, a depth at a time
    tree = StrataTree(parent=np.full(count, -1, dtype=np.int64),
                      depth=np.zeros(count, dtype=np.int64), d=np.zeros(count),
                      gap=np.zeros(count), ends=np.zeros((count, 2)),
                      finite=np.zeros((count, 2), dtype=bool), radius=radius,
                      lift_balls=lift_balls)
    turns = np.array([t_real.entries(), t_real.inverse().entries()])
    for depth, (parent, lift, d) in enumerate(layers, start=1):
        at, above = places[depth], frames[parent]
        tree.parent[at] = places[depth - 1][parent]
        tree.depth[at] = depth
        tree.d[at] = d
        tree.gap[at] = d if depth == 1 else lifts.gap[lift]
        if depth > 1:
            proj = _image_endpoints(above, lifts.ends[lift].T, lifts.finite[lift].T)
        tree.ends[at], tree.finite[at] = np.where(proj[1], proj[0], 0.0).T, proj[1].T
        # a gamma lift's far side enters through the boundary axis: t_real;
        # a boundary lift's through the curve's axis: t_real^-1
        if depth < len(layers):
            frames = _core.compose(_core.compose(above, lifts.w[lift]),
                                   turns[(lifts.kind[lift] == "boundary").astype(np.int64)])
    return tree


# -- leaf-count bound -------------------------------------------------


@dataclass(frozen=True)
class LeafRow:
    d: float
    leaves_at_d: int
    bound: float


@dataclass
class LeafTable:
    rows: list

    def violations(self):
        return [r for r in self.rows if r.leaves_at_d > r.bound]


def _finite_chart(ends, finite):
    """Map the real endpoints `ends` (inf where not `finite`) and the base
    point through z -> -1/(z - s) for a shift s keeping every image
    finite: (the base point's image, the endpoints' images, 0 for inf)."""
    for s in _CHART_SHIFTS:
        if (finite & (np.abs(ends - s) < 1e-6)).any():
            continue
        z0 = MoebiusMap(0.0, -1.0, 1.0, -s).apply(BASEPOINT)
        return complex(z0.z.real, z0.t), np.where(finite, -1.0 / (ends - s), 0.0)
    raise NumericError("no admissible chart shift")


def leaf_count_check(tree, r):
    """Leaf multiplicity and the preimage bound 2^{1 + d/(2r)} at every node.

    A stratum carries a copy of a node's geodesic at comparable distance
    exactly when every geodesic along the stratum's chain separates the
    base point from the target; the count of such strata is the leaf
    multiplicity.  Every row is returned, sorted by d (stable);
    `LeafTable.violations` lists those above their bound.  The counts are
    batched a depth at a time (_leaf_counts); only the rows and their
    bounds are made one at a time.
    """
    rows = [LeafRow(d=0.0, leaves_at_d=1, bound=2.0)]
    d, counts = tree.d[1:], _leaf_counts(tree)
    order = np.argsort(d, kind="stable")
    for dm, count in zip(d[order].tolist(), counts[order].tolist()):
        rows.append(LeafRow(d=dm, leaves_at_d=count, bound=2.0 ** (1.0 + dm / (2.0 * r))))
    return LeafTable(rows=rows)


def _leaf_counts(tree):
    """The leaf multiplicity of each node of `tree` but the root.

    The chains are followed a depth at a time on the tree's columns: the
    (node, target) pairs whose chain so far separates the base point from
    the target, in passes of `_core.PASS_BUDGET` pairs.  A node tests only
    targets alive at its parent (at the root, every target), and one
    bincount counts each target's pairs.  The rows must be in depth-first
    preorder, each node's parent the last row before it one level up
    (ValueError otherwise), as build_strata_tree gives them.
    """
    n, depth, parent = len(tree), tree.depth, tree.parent
    z0, ends = _finite_chart(tree.ends[1:], tree.finite[1:])
    # the last node before each node one level up, by slots depth n + index
    slots = depth * n + np.arange(n)
    by_depth = np.sort(slots)
    at = np.searchsorted(by_depth, slots[1:] - n) - 1
    last = by_depth[np.maximum(at, 0)]
    if not np.all((at >= 0) & (last // n == depth[1:] - 1) & (last % n == parent[1:])):
        raise ValueError("strata nodes are not in depth-first preorder")

    # node and target m stand for the tree's row m + 1
    e1, e2 = ends[:, 0], ends[:, 1]
    centers = (e1 + e2) / 2.0
    radii = np.abs(e1 - e2) / 2.0
    squares = radii * radii
    z_in = np.abs(z0 - centers) < radii
    # a node whose disk leaves out z0 separates only targets with both
    # endpoints in the disk, so it tests only the targets on its parent's
    # list whose first endpoint e lies in [c - r, c + r], both ends rounded:
    # rounding is monotone, so (e - c)^2 < r^2 as rounded gives |e - c| < r.
    # The lists are kept in the order of that endpoint, by its rank among
    # all targets
    order = np.argsort(e1)
    ranked = e1[order]
    rank = np.empty(n - 1, dtype=np.int64)
    rank[order] = np.arange(n - 1)

    def separates(m, t):
        """Whether node m's entry geodesic separates the base point from
        target t's, t not m."""
        c, sq = centers[m], squares[m]
        x = e1[t]
        x -= c
        in1 = x * x < sq
        x = e2[t]
        x -= c
        in2 = x * x < sq
        return np.where(z_in[m], ~(in1 | in2), in1 & in2) & (t != m)

    counted = [order[:0]]  # none at all in a tree of the root alone
    node, target = np.full(n - 1, -1), order  # the root's list: every target
    for k in range(1, int(depth.max()) + 1):
        layer = np.flatnonzero(depth == k) - 1
        up = parent[layer + 1] - 1
        c, r = centers[layer], radii[layer]
        lo = np.where(z_in[layer], 0, np.searchsorted(ranked, c - r))
        hi = np.where(z_in[layer], n - 1, np.searchsorted(ranked, c + r, side="right"))
        keys = node * n + rank[target]
        first = np.searchsorted(keys, up * n + lo)
        size = np.searchsorted(keys, up * n + hi) - first
        end = np.cumsum(size)
        start = end - size
        pairs = [(layer[:0], layer[:0])]
        # passes over the layer's pairs, node by node
        for s in range(0, int(end[-1]) if len(end) else 0, _core.PASS_BUDGET):
            e = min(s + _core.PASS_BUDGET, int(end[-1]))
            a, b = np.searchsorted(end, s, side="right"), np.searchsorted(start, e)
            count = np.minimum(end[a:b], e) - np.maximum(start[a:b], s)
            m = np.repeat(layer[a:b], count)
            t = target[np.repeat(first[a:b] - start[a:b], count) + np.arange(s, e)]
            keep = separates(m, t)
            pairs.append((m[keep], t[keep]))
        node, target = (np.concatenate(column) for column in zip(*pairs))
        counted.append(target)
    return 1 + np.bincount(np.concatenate(counted), minlength=n - 1)


# -- quasi-geodesic constants -----------------------------------------


@dataclass(frozen=True)
class BendPath:
    """Piecewise geodesic: segment lengths joined at given bend angles."""

    lengths: tuple
    angles: tuple  # interior angles at the bends, len(lengths) - 1 of them

    def __post_init__(self):
        if not self.lengths or any(l <= 0 for l in self.lengths):
            raise UnrealizablePath("segment lengths must be positive")
        if len(self.angles) != len(self.lengths) - 1:
            raise UnrealizablePath("need one angle per interior bend")
        for a in self.angles:
            if not (math.pi / 2.0 - 1e-12 <= a <= math.pi + 1e-12):
                raise UnrealizablePath("bend angles must lie in [pi/2, pi]")

    @property
    def total_length(self):
        return float(sum(self.lengths))


def _rotation_about_i(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return MoebiusMap(c, s, -s, c)


def realize_bend_path(path):
    """Isometry carrying the base point to the path's far endpoint."""
    m = MoebiusMap.identity()
    for i, length in enumerate(path.lengths):
        if i > 0:
            m = m @ _rotation_about_i(math.pi - path.angles[i - 1])
        m = m @ MoebiusMap.vertical_translation(length)
    return m


def endpoint_distance(path):
    m = realize_bend_path(path)
    return hdist(BASEPOINT, m.apply(BASEPOINT))


@dataclass(frozen=True)
class QiFit:
    epsilon_hat: float
    c_hat: float
    n_samples: int
    max_ratio: float
    min_ratio: float

    def satisfied(self, d_path, d_space):
        return d_path / (1.0 + self.epsilon_hat) - self.c_hat <= d_space + 1e-9


def sample_bend_paths(r, n_paths=200, seed=0):
    """Worst-case-regime sample: legs uniform in [2r, 4r], right-angle
    bends, up to MAX_BENDS bends per path."""
    rng = random.Random(seed)
    paths = []
    for _ in range(n_paths):
        k = rng.randint(0, MAX_BENDS)
        lengths = tuple(rng.uniform(2.0 * r, 4.0 * r) for _ in range(k + 1))
        angles = (math.pi / 2.0,) * k
        paths.append(BendPath(lengths=lengths, angles=angles))
    return paths


def qi_constants(rep, paths):
    """Empirical quasi-geodesic constants over realized bend paths.

    With the additive constant pinned to zero, the multiplicative
    constant is the worst ratio of path length to endpoint distance; the
    defining inequality is re-verified on every sample.
    """
    if not paths:
        raise ValueError("need at least one path")
    ratios = []
    samples = []
    for p in paths:
        d_space = endpoint_distance(p)
        d_path = p.total_length
        if d_space <= 0:
            raise UnrealizablePath("path endpoints coincide")
        ratios.append(d_path / d_space)
        samples.append((d_path, d_space))
    eps = max(max(ratios) - 1.0, 0.0)
    fit = QiFit(epsilon_hat=eps, c_hat=0.0, n_samples=len(paths),
                max_ratio=max(ratios), min_ratio=min(ratios))
    for d_path, d_space in samples:
        if not fit.satisfied(d_path, d_space):
            raise BoundViolation("fitted constants fail on a sample path")
    return fit


@dataclass(frozen=True)
class DimBoundReport:
    bound: float
    tol: float
    passed: bool


def dim_bound_check(dim, fit, r):
    """Check dim <= (1 + eps_hat) * (1 + ln2/(2r)) + DIM_TOL."""
    bound = (1.0 + fit.epsilon_hat) * entropy_bound(r)
    return DimBoundReport(bound=bound, tol=DIM_TOL,
                          passed=dim.value <= bound + DIM_TOL)
