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

import numpy as np

from . import _core
from .errors import BoundViolation, EnumerationBudgetExceeded, UnrealizablePath
from .hnn import solve_stable_letter
from .moebius import BASEPOINT, MoebiusMap, hdist
from .subgroup import BallLimit, enumerate_ball
from .words import word_inverse

GAP_TOL = 1e-6
_ENDPOINT_QUANT = 1e-6
# relative margin around each threshold of the lift sieve: rows this near
# one are left to the scalar decision
_SIEVE_MARGIN = 1e-9
# ball rows sieved per pass.  Whole-ball temporaries stay resident as heap
# after the tree: sieving each ball in one pass raised the full-run-torus
# benchmark's peak RSS from 141.4 to 142.1 MB and its wall time by 0.2 to
# 0.4 s (2 of 2 runs; an earlier pair read 141.5 -> 145.6 MB), 2-core VM
_SIEVE_ROWS = 16384
MAX_NODES = 50_000  # strata tree size at which the build gives up
MAX_BENDS = 5  # bends per sampled bend path, at most
DIM_TOL = 0.1  # slack of the dimension bound check


def entropy_bound(r):
    """Upper bound 1 + ln2/(2r) for the volume-growth entropy."""
    if r <= 0:
        raise ValueError("collar radius must be positive")
    return 1.0 + math.log(2.0) / (2.0 * r)


# -- strata tree ------------------------------------------------------


@dataclass
class StrataNode:
    parent: int  # index into the tree's node list; -1 for the root
    depth: int
    kind: str  # "gamma" or "boundary": which curve the entry lifts
    d: float  # cumulative distance from the base point to the geodesic
    gap: float  # separation from the parent's entry geodesic
    proj: tuple  # projected entry geodesic, endpoints in base coords
    frame: MoebiusMap  # local stratum coords -> base-plane coords


@dataclass(frozen=True)
class LiftBall:
    """The displacement ball one entry's lift list was taken from.

    `complete_radius` is the band's claim (BallResult), not a
    certificate.  `missing_inverses` counts the ball's words whose
    inverse word it lacks; a missing inverse has the same displacement,
    so the ball is complete at most to `min_missing_disp`, the smallest
    displacement among them (None when there is none)."""

    elements: int
    cap: float
    complete_radius: float
    truncated: bool
    missing_inverses: int
    min_missing_disp: float | None


@dataclass
class StrataTree:
    nodes: list  # StrataNode; nodes[0] is the root placeholder
    radius: float
    lift_balls: dict  # entry kind -> LiftBall

    def __len__(self):
        return len(self.nodes)

    def min_gap(self):
        gaps = [n.gap for n in self.nodes[1:] if n.depth >= 2]
        return min(gaps) if gaps else math.inf

    def max_depth(self):
        return max(n.depth for n in self.nodes)


def _base_distance(e1, e2):
    """Distance from the base point i to the geodesic with real endpoints
    e1, e2 (None = inf)."""
    p1, p2 = (e1, 1.0) if e1 is not None else (1.0, 0.0)
    q1, q2 = (e2, 1.0) if e2 is not None else (1.0, 0.0)
    # projective endpoints (p1:p2), (q1:q2):
    # sinh d = |p1 q1 + p2 q2| / |p1 q2 - p2 q1|
    num = abs(p1 * q1 + p2 * q2)
    den = abs(p1 * q2 - p2 * q1)
    if den == 0.0:
        return math.inf
    return math.asinh(num / den)


def _vertical_gap(u, v):
    """Distance from the vertical axis {0, inf} to the geodesic with real
    endpoints u, v; None when they share the axis or an endpoint."""
    if u is None or v is None:
        return 0.0 if (u not in (None, 0.0) or v not in (None, 0.0)) else None
    if abs(u) < 1e-9 or abs(v) < 1e-9 or abs(u) > 1e9 or abs(v) > 1e9:
        return None
    if u == v:
        return None
    val = (u + v) / (u - v)
    if abs(val) < 1.0:
        return 0.0
    return math.acosh(abs(val))


def _endpoint_key(x):
    if x is None or abs(x) > 1e8:
        return (1, 0)
    q = _ENDPOINT_QUANT * (1.0 + abs(x))
    return (0, round(float(x) / q))


def _geodesic_key(e1, e2):
    a, b = _endpoint_key(e1), _endpoint_key(e2)
    return (a, b) if a <= b else (b, a)


@dataclass
class _Candidate:
    m: MoebiusMap  # representative surface-group element, entry frame
    w: MoebiusMap  # the same element in standard coordinates
    kind: str
    gap: float  # separation from the entry axis ({0, inf} in local frame)
    ends: tuple  # endpoints in the stratum's standard coordinates


def _image_endpoint(m, z):
    """Image of a real endpoint (None = inf) under a real Moebius map."""
    if z is None:
        return None if abs(m.c) < 1e-14 * abs(m.a) else (m.a / m.c).real
    den = m.c * z + m.d
    if abs(den) < 1e-12 * (abs(m.a * z) + abs(m.b) + 1.0):
        return None
    return ((m.a * z + m.b) / den).real


def _axis_endpoints(mat):
    att, rep = mat.fixed_points()
    return (None if att.infinite else att.z.real,
            None if rep.infinite else rep.z.real)


def _image_endpoints(mats, z):
    """_image_endpoint of the real endpoint z (None = inf) under every row
    of `mats`, replayed on arrays with CPython's complex arithmetic:
    (values, sure).  `sure` is False where _image_endpoint may return None
    (within _SIEVE_MARGIN of its thresholds) or the value is not finite."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((mats[:, k].real, mats[:, k].imag)
                                              for k in range(4))
    grow = 1.0 + _SIEVE_MARGIN
    with np.errstate(all="ignore"):
        if z is None:
            vals, _ = _core.c_quot(ar, ai, cr, ci)
            undefined = np.hypot(cr, ci) < 1e-14 * np.hypot(ar, ai) * grow
        else:
            # a float in a complex product is promoted to (z + 0j)
            nr, ni = _core.c_prod(ar, ai, z, 0.0)
            er, ei = _core.c_prod(cr, ci, z, 0.0)
            er, ei = er + dr, ei + di
            limit = 1e-12 * ((np.hypot(nr, ni) + np.hypot(br, bi)) + 1.0)
            undefined = np.hypot(er, ei) < limit * grow
            vals, _ = _core.c_quot(nr + br, ni + bi, er, ei)
    return vals, ~undefined & np.isfinite(vals)


def _may_lift(first, second, radius):
    """Rows whose lift with image endpoints u, v (`first` and `second`,
    from _image_endpoints) _vertical_gap could keep within `radius`: all
    but those clearly outside its endpoint window, with u == v, or with a
    gap beyond radius by more than _SIEVE_MARGIN."""
    (u, u_sure), (v, v_sure) = first, second
    lo, hi = 1e-9 * (1.0 - _SIEVE_MARGIN), 1e9 * (1.0 + _SIEVE_MARGIN)
    with np.errstate(all="ignore"):
        au, av = np.abs(u), np.abs(v)
        val = np.abs((u + v) / (u - v))
        near = ((au >= lo) & (au <= hi) & (av >= lo) & (av <= hi) & (u != v)
                & (val <= np.cosh(radius) * (1.0 + _SIEVE_MARGIN)))
    return ~(u_sure & v_sure) | near


def _entry_frame(surface, entry):
    """The frame carrying the axis of `entry` to {0, inf} (attracting end
    at inf), the surface generators in it, and the real endpoints of both
    gluing axes in it."""
    frame = entry.conjugator_to_standard()
    gens = [g.conjugate_by(frame) for g in surface.generators]
    axes = {
        "gamma": _axis_endpoints(surface.gamma_matrix().conjugate_by(frame)),
        "boundary": _axis_endpoints(surface.boundary_matrix().conjugate_by(frame)),
    }
    return frame, gens, axes


def _lift_candidates(surface, entry, radius, max_elements):
    """Distinct lifts of both gluing axes near the axis of `entry` (the
    gamma or the boundary matrix), and the LiftBall they came from.

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
    cap = radius + 1.0 + max(_base_distance(*ends) for ends in axes.values())
    ball = enumerate_ball(gens, BallLimit(max_displacement=cap, max_count=max_elements))
    inverses = ball.mats[:, [3, 1, 2, 0]] * np.array([1, -1, -1, 1])
    rows = np.concatenate([ball.mats, inverses])
    ell = entry.translation_length()
    reps = _select_lifts(rows, axes, radius, frame_inv, (-0.5 * ell, 0.5 * ell))

    top = math.ceil((radius + 1.0) / ell + 0.5)
    diagonals = np.array([[math.exp(0.5 * k * ell)] * 2 + [math.exp(-0.5 * k * ell)] * 2
                          for k in range(-top, top + 1)])
    window = (-(radius + 1.0), math.nextafter(radius + 1.0, math.inf))
    out = []
    for kind, ends in axes.items():
        base = np.array([c.m.entries() for c in reps if c.kind == kind],
                        dtype=np.complex128).reshape(-1, 4)
        translates = (diagonals[:, None, :] * base[None, :, :]).reshape(-1, 4)
        out += _select_lifts(translates, {kind: ends}, radius, frame_inv, window)
    return out, _lift_ball(ball, cap)


def _lift_ball(ball, cap):
    """The LiftBall record of a lift ball enumerated to `cap`."""
    words = set(ball.words)
    missing = [disp for word, disp in zip(ball.words, ball.disps.tolist())
               if word_inverse(word) not in words]
    return LiftBall(elements=len(ball), cap=cap, complete_radius=ball.complete_radius,
                    truncated=ball.truncated, missing_inverses=len(missing),
                    min_missing_disp=min(missing, default=None))


def _select_lifts(mats, axes, radius, frame_inv, window):
    """Candidates for the images of `axes` (kind -> real endpoints, None
    = inf) under the rows of `mats`, within `radius` of the vertical
    axis and with axial offset in the half-open `window` (lo, hi).

    An array sieve drops a row when, for every axis, its image endpoints
    are defined, finite and clearly out: outside the endpoint window,
    equal, or with a gap beyond `radius` by more than _SIEVE_MARGIN.
    Every other row gets the exact scalar decision (_image_endpoint,
    _vertical_gap, the axial window and the _geodesic_key dedup), in row
    order and in the order of `axes` within a row, so the list is the one
    a scalar pass over all rows gives.
    """
    survive = np.zeros(len(mats), dtype=bool)
    for start in range(0, len(mats), _SIEVE_ROWS):
        part = mats[start:start + _SIEVE_ROWS]
        for e1, e2 in axes.values():
            survive[start:start + _SIEVE_ROWS] |= _may_lift(
                _image_endpoints(part, e1), _image_endpoints(part, e2), radius)
    lo, hi = window
    out = []
    seen = set()
    for entries in mats[survive].tolist():
        m = MoebiusMap(*entries, _normalized=True)
        for kind, (e1, e2) in axes.items():
            u = _image_endpoint(m, e1)
            v = _image_endpoint(m, e2)
            gap = _vertical_gap(u, v)
            if gap is None or gap > radius:
                continue
            if u is not None and v is not None:
                axial = 0.5 * math.log(abs(u * v)) if abs(u * v) > 0 else 0.0
                if not lo <= axial < hi:
                    continue
            key = _geodesic_key(u, v)
            if key in seen:
                continue
            seen.add(key)
            ends = (_image_endpoint(frame_inv, u), _image_endpoint(frame_inv, v))
            out.append(_Candidate(m=m, w=m.conjugate_by(frame_inv), kind=kind,
                                  gap=gap, ends=ends))
    return out


def build_strata_tree(rep, radius, max_depth=4, max_elements=200_000):
    """Tree of strata reachable within `radius` of the base point.

    Children of a stratum are the distinct lifts of the two gluing axes;
    a node's distance accumulates the separations along its chain, and
    `frame` unfolds the node's plane isometrically onto the base plane.
    """
    surface = rep.surface
    # Fuchsian counterpart of the stable letter: carries the boundary
    # axis to the designated curve's axis with matching translation
    t_real = solve_stable_letter(surface, rotation=0.0)

    # candidate lifts per entry type, in standard surface coordinates
    cands, lift_balls = {}, {}
    for kind, entry in (("gamma", surface.gamma_matrix()),
                        ("boundary", surface.boundary_matrix())):
        cands[kind], lift_balls[kind] = _lift_candidates(surface, entry, radius,
                                                         max_elements)

    gaps = {kind: np.array([c.gap for c in cs], dtype=float) for kind, cs in cands.items()}

    ident = MoebiusMap.identity()
    root = StrataNode(parent=-1, depth=0, kind="", d=0.0, gap=0.0,
                      proj=(), frame=ident)
    nodes = [root]

    # depth-1 children: lifts measured from the base point itself
    stack = []
    for c in cands["gamma"] + cands["boundary"]:
        d = _base_distance(*c.ends)
        if d <= radius:
            stack.append((0, 1, c, d))

    seen_depth1 = set()
    while stack:
        parent_idx, depth, cand, d = stack.pop()
        parent = nodes[parent_idx]
        proj = tuple(_image_endpoint(parent.frame, e) for e in cand.ends)
        if depth == 1:
            key = _geodesic_key(*proj)
            if key in seen_depth1:
                continue
            seen_depth1.add(key)
        if cand.kind == "gamma":
            # crossing a lift of the curve: the far side enters through
            # the boundary axis of the next stratum
            frame = parent.frame @ cand.w @ t_real
            child_entry = "boundary"
        else:
            frame = parent.frame @ cand.w @ t_real.inverse()
            child_entry = "gamma"
        idx = len(nodes)
        nodes.append(StrataNode(parent=parent_idx, depth=depth,
                                kind=cand.kind, d=d, gap=d if depth == 1 else cand.gap,
                                proj=proj, frame=frame))
        if len(nodes) > MAX_NODES:
            raise EnumerationBudgetExceeded(
                f"strata tree exceeded {MAX_NODES} nodes")
        if depth >= max_depth:
            continue
        # children in list order; a gap below GAP_TOL is the entry
        # geodesic itself
        d_child = d + gaps[child_entry]
        children = cands[child_entry]
        for i in np.flatnonzero((gaps[child_entry] >= GAP_TOL) & (d_child <= radius)).tolist():
            stack.append((idx, depth + 1, children[i], float(d_child[i])))
    return StrataTree(nodes=nodes, radius=radius, lift_balls=lift_balls)


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


def _finite_chart(endpoints_list, shifts=(2.718281828, 4.6692016, 7.389056)):
    """Map all real/inf endpoints and the base point through z -> -1/(z-s)
    for a shift s keeping every image finite."""
    for s in shifts:
        ok = True
        for e1, e2 in endpoints_list:
            for e in (e1, e2):
                if e is not None and abs(e - s) < 1e-6:
                    ok = False
        if ok:
            m = MoebiusMap(0.0, -1.0, 1.0, -s)
            z0 = m.apply(BASEPOINT)
            conv = []
            for e1, e2 in endpoints_list:
                a = -1.0 / (e1 - s) if e1 is not None else 0.0
                b = -1.0 / (e2 - s) if e2 is not None else 0.0
                conv.append((a, b))
            return complex(z0.z.real, z0.t), conv
    raise RuntimeError("no admissible chart shift")


def leaf_count_check(tree, r):
    """Leaf multiplicity and the preimage bound 2^{1 + d/(2r)} at every node.

    A stratum carries a copy of a node's geodesic at comparable distance
    exactly when every geodesic along the stratum's chain separates the
    base point from the target; the count of such strata is the leaf
    multiplicity.  Every row is returned; `LeafTable.violations` lists
    those above their bound.
    """
    nodes = tree.nodes
    n = len(nodes)
    if n == 1:
        return LeafTable(rows=[LeafRow(d=0.0, leaves_at_d=1, bound=2.0)])
    z0, ends = _finite_chart([nd.proj for nd in nodes[1:]])
    centers = np.array([(a + b) / 2.0 for a, b in ends])
    radii = np.array([abs(a - b) / 2.0 for a, b in ends])
    e1 = np.array([a for a, _ in ends])
    e2 = np.array([b for _, b in ends])

    # sep[m] over targets: does node m's entry geodesic separate the base
    # point from each target geodesic
    z_in = np.abs(z0 - centers) < radii
    counts = np.ones(n - 1, dtype=np.int64)  # the base stratum always counts
    chain_ok = [None] * n
    chain_ok[0] = np.ones(n - 1, dtype=bool)
    for m in range(1, n):
        nd = nodes[m]
        c, rad = centers[m - 1], radii[m - 1]
        in1 = (e1 - c) ** 2 < rad * rad
        in2 = (e2 - c) ** 2 < rad * rad
        if z_in[m - 1]:
            sep = ~in1 & ~in2
        else:
            sep = in1 & in2
        sep[m - 1] = False  # a geodesic does not separate from itself
        ok = chain_ok[nd.parent] & sep
        chain_ok[m] = ok
        counts += ok

    rows = [LeafRow(d=0.0, leaves_at_d=1, bound=2.0)]
    order = sorted(range(1, n), key=lambda m: nodes[m].d)
    for m in order:
        d = nodes[m].d
        bound = 2.0 ** (1.0 + d / (2.0 * r))
        rows.append(LeafRow(d=d, leaves_at_d=int(counts[m - 1]), bound=bound))
    return LeafTable(rows=rows)


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
