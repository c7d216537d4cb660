"""Discrete Fuchsian representations of one-holed surfaces.

A genus-g surface with one boundary geodesic of length 1 is realized by
2g real SL(2) matrices whose commutator product is the boundary holonomy.
The designated non-separating curve (first generator) also has length 1.
Genus 1 comes from the trace equations directly; higher genus is assembled
by amalgamating handle tori onto connector pants along matching cuffs,
with the matching exact at the level of traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscretenessSuspect, GluingResidual, NoDiscreteSolution
from .moebius import MoebiusMap
from .subgroup import BallLimit, enumerate_ball
from .words import evaluate_word, surface_boundary_word

LENGTH_TOL = 1e-9
GLUE_TOL = 1e-8


@dataclass(frozen=True)
class FrickeTriple:
    """Traces (tr X, tr Y, tr XY) of a two-generator group."""

    x: float
    y: float
    z: float

    def commutator_trace(self):
        x, y, z = self.x, self.y, self.z
        return x * x + y * y + z * z - x * y * z - 2.0


@dataclass(frozen=True)
class CollarReport:
    curve: tuple
    measured_halfwidth: float
    search_n: int
    witness: tuple | None


class SurfaceRep:
    """2g real generators of a one-holed genus-g surface group."""

    def __init__(self, genus, generators, gluing_residuals=None):
        if len(generators) != 2 * genus:
            raise ValueError("need 2g generators")
        self.genus = genus
        self.generators = list(generators)
        self.gamma_index = 1
        self.gluing_residuals = list(gluing_residuals or [])
        self._check()

    def _check(self):
        for g in self.generators:
            if max(abs(g.a.imag), abs(g.b.imag), abs(g.c.imag), abs(g.d.imag)) > 1e-9:
                raise ValueError("surface generators must be real")
            if abs(g.det() - 1.0) > 1e-9:
                raise ValueError("generator determinant drifted")

    def boundary_word(self):
        return surface_boundary_word(self.genus)

    def evaluate(self, word):
        return evaluate_word(word, self.generators)

    def boundary_matrix(self):
        return self.evaluate(self.boundary_word())

    def gamma_matrix(self):
        return self.generators[self.gamma_index - 1]


# -- two-generator building blocks ------------------------------------


def pants_rep(l1, l2, l3):
    """Normal-form matrices for a pair of pants with cuff lengths l1,l2,l3."""
    if min(l1, l2, l3) <= 0:
        raise ValueError("cuff lengths must be positive")
    x = -2.0 * math.cosh(l1 / 2.0)
    y = -2.0 * math.cosh(l2 / 2.0)
    z = -2.0 * math.cosh(l3 / 2.0)
    zeta = (-z + math.sqrt(z * z - 4.0)) / 2.0  # root with |zeta| > 1
    X = MoebiusMap(x, 1.0, -1.0, 0.0)
    Y = MoebiusMap(0.0, zeta, -1.0 / zeta, y)
    return X, Y


def _two_generator_matrices(x, t):
    """Real matrices with tr A = x, tr B = tr AB = t."""
    if t * t < 4.0:
        raise NoDiscreteSolution(f"second generator trace {t} is elliptic")
    zeta = (-t - math.copysign(math.sqrt(t * t - 4.0), t)) / 2.0
    A = MoebiusMap(x, 1.0, -1.0, 0.0)
    B = MoebiusMap(0.0, zeta, -1.0 / zeta, t)
    return A, B


def one_holed_torus_rep(len_gamma, len_boundary):
    """Genus-1 rep: interior curve length len_gamma, boundary len_boundary."""
    kappa = -2.0 * math.cosh(len_boundary / 2.0)
    return _torus_rep_from_traces(2.0 * math.cosh(len_gamma / 2.0), kappa)


def _torus_rep_from_traces(x, kappa):
    if kappa > -2.0:
        raise NoDiscreteSolution(f"commutator trace {kappa} > -2 is not discrete")
    # symmetric ansatz y = z = t: t^2 (2 - x) = kappa + 2 - x^2
    denom = x - 2.0
    if denom <= 0:
        raise NoDiscreteSolution("interior curve trace must exceed 2")
    t_sq = (x * x - 2.0 + (-kappa)) / denom
    if t_sq < 4.0:
        raise NoDiscreteSolution("no real hyperbolic solution for the ansatz")
    t = math.sqrt(t_sq)
    A, B = _two_generator_matrices(x, t)
    # normalize: axis of the interior curve becomes {0, inf}
    q = A.conjugator_to_standard()
    gens = [A.conjugate_by(q), B.conjugate_by(q)]
    return SurfaceRep(1, gens)


# -- raw 2x2 helpers for the gluing assembly --------------------------
#
# All pieces are real, so the assembly runs in extended precision to keep
# the boundary identity exact after conversion back to double.

_F = np.longdouble


def _raw(m):
    return np.array(
        [[m.a.real, m.b.real], [m.c.real, m.d.real]], dtype=_F
    )


def _wrap(arr):
    return MoebiusMap(float(arr[0, 0]), float(arr[0, 1]), float(arr[1, 0]), float(arr[1, 1]))


def _inv2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=m.dtype) / det


def _fixed_points_raw(m):
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc <= 0:
        raise NoDiscreteSolution("non-hyperbolic element in gluing")
    if abs(c) < 1e-16 * max(abs(a), abs(b), abs(d), 1.0):
        other = b / (d - a)
        if abs(a) > abs(d):
            return np.inf, other
        return other, np.inf
    r = np.sqrt(disc)
    z1 = ((a - d) + r) / (2.0 * c)
    z2 = ((a - d) - r) / (2.0 * c)
    if abs(c * z1 + d) > abs(c * z2 + d):
        return z1, z2  # attracting, repelling
    return z2, z1


def _diag_frame_raw(m):
    """Real 2x2 Q (any determinant) with Q m Q^-1 diagonal, |lambda|>1 at top."""
    att, rep = _fixed_points_raw(m)
    if np.isinf(att):
        return np.array([[1.0, -rep], [0.0, 1.0]], dtype=_F)
    if np.isinf(rep):
        return np.array([[0.0, 1.0], [1.0, -att]], dtype=_F)
    return np.array([[1.0, -rep], [1.0, -att]], dtype=_F)


def _conj_raw(q, m):
    return q @ m @ _inv2(q)


def _side_of_axis(frame, mats):
    """Sign of the limit points of `mats` after moving a cuff to {0, inf}."""
    signs = set()
    for m in mats:
        mm = _conj_raw(frame, m)
        for z in _fixed_points_raw(mm):
            if 1e-8 < abs(z) < 1e8 and np.isfinite(z):
                signs.add(1 if z > 0 else -1)
    if len(signs) != 1:
        raise GluingResidual(f"ambiguous limit-set side: {signs}")
    return signs.pop()


_FLIP = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=_F)


def _match_piece(gens, boundary, target, ambient_refs, twist):
    """Conjugate a piece so its boundary matrix equals `target` exactly,
    with its limit set on the opposite side from `ambient_refs`."""
    qk = _diag_frame_raw(boundary)
    qx = _diag_frame_raw(target)
    if _side_of_axis(qk, gens) == _side_of_axis(qx, ambient_refs):
        qk = _FLIP @ qk
    half = np.exp(_F(twist) / 2.0)
    tw = np.array([[half, 0.0], [0.0, 1.0 / half]], dtype=_F)
    q = _inv2(qx) @ tw @ qk
    new_gens = [_conj_raw(q, g) for g in gens]
    moved = _conj_raw(q, boundary)
    # the piece boundary is a product of commutators, so its SL(2) sign is
    # fixed; matching the cuff is only possible projectively
    residual = min(
        float(np.max(np.abs(moved - target))),
        float(np.max(np.abs(moved + target))),
    )
    if residual > GLUE_TOL:
        raise GluingResidual(f"cuff matching residual {residual}")
    return new_gens, residual


def _commutator_raw(a, b):
    return a @ b @ _inv2(a) @ _inv2(b)


def _boundary_raw(gens):
    out = np.eye(2, dtype=gens[0].dtype)
    for i in range(0, len(gens), 2):
        out = out @ _commutator_raw(gens[i], gens[i + 1])
    return out


def _pants_raw(l1, l2, l3):
    x = -2.0 * np.cosh(_F(l1) / 2.0)
    y = -2.0 * np.cosh(_F(l2) / 2.0)
    z = -2.0 * np.cosh(_F(l3) / 2.0)
    zeta = (-z + np.sqrt(z * z - 4.0)) / 2.0
    X = np.array([[x, 1.0], [-1.0, 0.0]], dtype=_F)
    Y = np.array([[0.0, zeta], [-1.0 / zeta, y]], dtype=_F)
    return X, Y


def _torus_raw(interior_length, boundary_length):
    x = 2.0 * np.cosh(_F(interior_length) / 2.0)
    kappa = -2.0 * np.cosh(_F(boundary_length) / 2.0)
    denom = x - 2.0
    if denom <= 0 or kappa > -2.0:
        raise NoDiscreteSolution("torus piece parameters out of range")
    t_sq = (x * x - 2.0 - kappa) / denom
    if t_sq < 4.0:
        raise NoDiscreteSolution("no real hyperbolic solution for the ansatz")
    t = np.sqrt(t_sq)
    zeta = (-t - np.sqrt(t_sq - 4.0)) / 2.0
    A = np.array([[x, 1.0], [-1.0, 0.0]], dtype=_F)
    B = np.array([[0.0, zeta], [-1.0 / zeta, t]], dtype=_F)
    return A, B


def fn_surface_rep(g, interior_length, boundary_length=1.0, twists=None):
    """Genus-g one-holed surface via torus/pants amalgamation.

    The designated curve (first generator) has length 1; other handle
    curves and all connector cuffs have length `interior_length`.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if g == 1:
        return one_holed_torus_rep(1.0, boundary_length)
    L = float(interior_length)
    twists = list(twists or [])
    residuals = []

    def next_twist():
        return twists.pop(0) if twists else 0.0

    def torus_into(target, target_len, refs, first):
        # one torus, conjugated once so its boundary matches the target cuff
        gens = list(_torus_raw(1.0 if first else L, target_len))
        out, res = _match_piece(gens, _boundary_raw(gens), target, refs, next_twist())
        residuals.append(res)
        return out

    def build(n, X, Y, first):
        # fill the two cuffs X, Y of an already-placed pair of pants
        lgens = torus_into(X, L, [Y, X @ Y], first)
        if n == 2:
            rgens = torus_into(Y, L, [X] + lgens, False)
        else:
            Xs, Ys = _pants_raw(L, L, L)
            sub, res = _match_piece([Xs, Ys], Xs @ Ys, Y, [X] + lgens, next_twist())
            residuals.append(res)
            rgens = build(n - 1, sub[0], sub[1], False)
        return lgens + rgens

    X, Y = _pants_raw(L, L, boundary_length)
    gens = build(g, X, Y, True)
    bnd = _boundary_raw(gens)
    cuff = X @ Y
    if min(float(np.max(np.abs(bnd - cuff))), float(np.max(np.abs(bnd + cuff)))) > GLUE_TOL:
        raise GluingResidual("assembled boundary disagrees with pants cuff")
    gens = _axis_unit_normalize(_recenter(gens))
    return SurfaceRep(g, [_wrap(m) for m in gens], gluing_residuals=residuals)


_CAYLEY = np.array([[1.0, -1.0], [1.0, 1.0]])


def _axis_unit_normalize(gens):
    """Conjugate so the designated curve's axis has endpoints {-1, +1}.

    Frames built later on this axis are then perfectly conditioned.  The
    leftover freedom (translation along the axis) is spent keeping the
    generator entries small.
    """
    att, rep = _fixed_points_raw(gens[0])
    if np.isinf(att):
        m = np.array([[1.0, -rep], [0.0, 1.0]], dtype=_F)
    elif np.isinf(rep):
        m = np.array([[0.0, 1.0], [1.0, -att]], dtype=_F)
    else:
        m = np.array([[1.0, -rep], [1.0, -att]], dtype=_F)
    cay = np.array(_CAYLEY, dtype=_F)
    q0 = cay @ m
    base = [_conj_raw(q0, g) for g in gens]

    cay64 = np.asarray(cay, dtype=float)

    def cost(s):
        h = math.exp(s / 2.0)
        k = cay64 @ np.array([[h, 0.0], [0.0, 1.0 / h]]) @ np.linalg.inv(cay64)
        ki = np.linalg.inv(k)
        return sum(float(np.sum((k @ np.asarray(g, dtype=float) @ ki) ** 2)) for g in base)

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(cost, bounds=(-20.0, 20.0), method="bounded",
                          options={"xatol": 1e-10})
    h = np.exp(_F(res.x) / 2.0)
    d = np.array([[h, 0.0], [0.0, 1.0 / h]], dtype=_F)
    k = cay @ d @ _inv2(cay)
    return [_conj_raw(k, g) for g in base]


def _recenter(gens):
    """Conjugate so the generators move a common base point least.

    Keeps matrix entries small, which preserves the boundary identity
    through the rounding to double precision.
    """
    from scipy.optimize import minimize

    g64 = [np.asarray(m, dtype=float) for m in gens]

    def cost(p):
        u, lt = p
        t = math.exp(lt)
        q = np.array([[1.0, -u], [0.0, t]]) / math.sqrt(t)
        qi = np.linalg.inv(q)
        return sum(np.sum((q @ m @ qi) ** 2) for m in g64)

    res = minimize(cost, [0.0, 0.0], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-10})
    u, lt = res.x
    t = np.exp(_F(lt))
    q = np.array([[1.0, -_F(u)], [0.0, t]], dtype=_F) / np.sqrt(t)
    return [_conj_raw(q, m) for m in gens]


# -- measurements -----------------------------------------------------


def collar_width(rep, curve, n=5, max_elements=500_000):
    """Half the minimal distance from the curve's axis to its translates.

    Words are explored by BFS up to length `n`, pruned by an adaptive
    displacement cap measured from a point on the axis.
    """
    curve = tuple(curve)
    cm = rep.evaluate(curve)
    frame = cm.conjugator_to_standard()
    # work in coordinates where the curve axis is {0, inf}
    gens = [g.conjugate_by(frame) for g in rep.generators]
    ell = cm.translation_length()

    # seed the displacement cap from a shallow pass
    best = math.inf
    witness = None
    shallow = enumerate_ball(gens, BallLimit(max_word_len=min(2, n)))
    sd = _translate_distances(shallow.mats)
    i = int(np.argmin(sd))
    if sd[i] < best:
        best, witness = float(sd[i]), shallow.words[i]
    cap = (2.0 * best + ell + 2.0) if math.isfinite(best) else (2.0 * n)
    ball = enumerate_ball(
        gens,
        BallLimit(max_word_len=n, max_displacement=cap, max_count=max_elements),
    )
    dists = _translate_distances(ball.mats)
    i = int(np.argmin(dists))
    if dists[i] < best:
        best, witness = float(dists[i]), ball.words[i]
    return CollarReport(
        curve=curve,
        measured_halfwidth=best / 2.0 if math.isfinite(best) else math.inf,
        search_n=n,
        witness=witness,
    )


def _translate_distances(mats):
    """Distance from the axis {0, inf} to its image under each (n, 4) row.

    0 where the image passes through inf (a shared endpoint); inf where
    the row stabilizes the axis (the word commutes with the curve) or
    the image's endpoints collapse (the translate is far away)."""
    a, b, c, d = mats[:, 0], mats[:, 1], mats[:, 2], mats[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = a / c
        v = b / d
        ratio = (u + v) / (u - v)
        dist = np.arccosh(ratio.astype(complex)).real
    u_fin = np.isfinite(u)
    v_fin = np.isfinite(v)
    u_zero = u_fin & (np.abs(u) < 1e-8)
    v_zero = v_fin & (np.abs(v) < 1e-8)
    u_inf = ~u_fin | (np.abs(u) > 1e8)
    v_inf = ~v_fin | (np.abs(v) > 1e8)
    same_axis = (u_zero & v_inf) | (v_zero & u_inf)
    through_inf = ~u_fin | ~v_fin
    dist = np.where(through_inf, 0.0, dist)
    dist = np.where(np.isnan(dist), np.inf, dist)
    dist = np.where(same_axis, np.inf, np.maximum(dist, 0.0))
    return dist


def discreteness_proxy(rep, n=8, max_elements=200_000, tol=1e-6, scan_radius=None):
    """Sanity guard: no short nontrivial word near the identity, and
    Jorgensen's inequality for all generator pairs.

    The near-identity scan is restricted to a displacement band around the
    base point; words that leave the band cannot return close to the
    identity without a short near-identity prefix appearing first.
    """
    if scan_radius is None:
        scan_radius = max(g.displacement() for g in rep.generators) + 10.0
    ball = enumerate_ball(
        rep.generators,
        BallLimit(max_word_len=n, max_displacement=scan_radius, max_count=max_elements),
    )
    ident = MoebiusMap.identity()
    min_dist = math.inf
    for e in ball:
        if not e.word:
            continue
        d = e.moebius().dist(ident)
        if d < min_dist:
            min_dist = d
        if d < tol:
            raise DiscretenessSuspect(
                f"word {e.word} within {d:.2e} of the identity", witness=e.word
            )
    jmin = math.inf
    gens = rep.generators
    for i in range(len(gens)):
        for j in range(len(gens)):
            if i == j:
                continue
            a, b = gens[i], gens[j]
            comm = a @ b @ a.inverse() @ b.inverse()
            val = abs(a.trace() ** 2 - 4.0) + abs(comm.trace() - 2.0)
            jmin = min(jmin, val)
            if val < 1.0 - 1e-12:
                raise DiscretenessSuspect(
                    f"Jorgensen inequality fails for generators {i + 1},{j + 1}: {val}",
                    witness=(i + 1, j + 1),
                )
    return {
        "max_word_len": n,
        "words_checked": len(ball),
        "min_identity_distance": min_dist,
        "jorgensen_min": jmin,
    }
