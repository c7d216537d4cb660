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

from .errors import GluingResidual, NoDiscreteSolution, NumericError
from .moebius import MoebiusMap
from .subgroup import BallLimit, enumerate_ball
from .words import evaluate_word, surface_boundary_word

GLUE_TOL = 1e-8
# length of the boundary geodesic and of the designated curve; the stable
# letter conjugates one to the other, so they must agree
BOUNDARY_LENGTH = 1.0
COLLAR_WORD_LEN = 5  # longest word searched for a collar's nearest translate
_COLLAR_MAX_ELEMENTS = 500_000


@dataclass(frozen=True)
class CollarReport:
    measured_halfwidth: float


class SurfaceRep:
    """2g real generators of a one-holed genus-g surface group."""

    def __init__(self, genus, generators, gluing_residuals=None):
        if len(generators) != 2 * genus:
            raise ValueError("need 2g generators")
        self.genus = genus
        self.generators = list(generators)
        self.gluing_residuals = list(gluing_residuals or [])
        self._check()

    def _check(self):
        for g in self.generators:
            if max(abs(g.a.imag), abs(g.b.imag), abs(g.c.imag), abs(g.d.imag)) > 1e-9:
                raise NumericError("surface generators must be real")
            if abs(g.det() - 1.0) > 1e-9:
                raise NumericError("generator determinant drifted")

    def boundary_word(self):
        return surface_boundary_word(self.genus)

    def evaluate(self, word):
        return evaluate_word(word, self.generators)

    def boundary_matrix(self):
        return self.evaluate(self.boundary_word())

    def gamma_matrix(self):
        return self.generators[0]


# -- two-generator building blocks ------------------------------------


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
    # real matrices with tr A = x, tr B = tr AB = t
    zeta = (-t - math.sqrt(t * t - 4.0)) / 2.0
    A = MoebiusMap(x, 1.0, -1.0, 0.0)
    B = MoebiusMap(0.0, zeta, -1.0 / zeta, t)
    # normalize: axis of the interior curve becomes {0, inf}
    q = A.conjugator_to_standard()
    gens = [A.conjugate_by(q), B.conjugate_by(q)]
    return SurfaceRep(1, gens)


# -- raw 2x2 helpers for the gluing assembly --------------------------
#
# All pieces are real, so the assembly runs in extended precision to keep
# the boundary identity exact after conversion back to double.

_F = np.longdouble


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


def _match_piece(gens, boundary, target, ambient_refs):
    """Conjugate a piece so its boundary matrix equals `target` exactly,
    with its limit set on the opposite side from `ambient_refs`."""
    qk = _diag_frame_raw(boundary)
    qx = _diag_frame_raw(target)
    if _side_of_axis(qk, gens) == _side_of_axis(qx, ambient_refs):
        qk = _FLIP @ qk
    q = _inv2(qx) @ qk
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


def fn_surface_rep(g, interior_length):
    """Genus-g one-holed surface via torus/pants amalgamation.

    The boundary and the designated curve (first generator) have length
    BOUNDARY_LENGTH; other handle curves and all connector cuffs have
    length `interior_length`.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if g == 1:
        return one_holed_torus_rep(BOUNDARY_LENGTH, BOUNDARY_LENGTH)
    L = float(interior_length)
    residuals = []

    def torus_into(target, target_len, refs, first):
        # one torus, conjugated once so its boundary matches the target cuff
        gens = list(_torus_raw(BOUNDARY_LENGTH if first else L, target_len))
        out, res = _match_piece(gens, _boundary_raw(gens), target, refs)
        residuals.append(res)
        return out

    def build(n, X, Y, first):
        # fill the two cuffs X, Y of an already-placed pair of pants
        lgens = torus_into(X, L, [Y, X @ Y], first)
        if n == 2:
            rgens = torus_into(Y, L, [X] + lgens, False)
        else:
            Xs, Ys = _pants_raw(L, L, L)
            sub, res = _match_piece([Xs, Ys], Xs @ Ys, Y, [X] + lgens)
            residuals.append(res)
            rgens = build(n - 1, sub[0], sub[1], False)
        return lgens + rgens

    X, Y = _pants_raw(L, L, BOUNDARY_LENGTH)
    gens = build(g, X, Y, True)
    bnd = _boundary_raw(gens)
    cuff = X @ Y
    if min(float(np.max(np.abs(bnd - cuff))), float(np.max(np.abs(bnd + cuff)))) > GLUE_TOL:
        raise GluingResidual("assembled boundary disagrees with pants cuff")
    gens = _axis_unit_normalize(gens)
    return SurfaceRep(g, [_wrap(m) for m in gens], gluing_residuals=residuals)


_CAYLEY = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=_F)


def _axis_unit_normalize(gens):
    """Conjugate so the designated curve's axis has endpoints {-1, +1}.

    Frames built later on this axis are then perfectly conditioned.  The
    leftover freedom, translation by s along the axis, is spent keeping
    the generator entries small.  _CAYLEY / sqrt(2) is a rotation, so with
    entries (a, b, c, d) in the curve's diagonal frame the summed squared
    entries are sum(a^2 + d^2 + e^{2s} b^2 + e^{-2s} c^2), least at
    s = ln(sum c^2 / sum b^2) / 4.
    """
    q = _diag_frame_raw(gens[0])
    frame = [_conj_raw(q, g) for g in gens]
    s = np.log(sum(m[1, 0] ** 2 for m in frame) / sum(m[0, 1] ** 2 for m in frame)) / 4.0
    h = np.exp(s / 2.0)
    # two conjugations, the axis frame and then the translation.  At genus 3
    # the entries reach 1e4, so criterion 1's residual rests on last-bit
    # rounding and moves with the order of these products: at (3,5) it reads
    # 1.2e-10 in this order and 7.7e-11 to 8.6e-11 for one conjugation by
    # _CAYLEY @ diag(h, 1/h) @ q.  Re-check it against its 1e-9 gate on any change.
    base = [_conj_raw(_CAYLEY @ q, g) for g in gens]
    k = _CAYLEY @ np.array([[h, 0.0], [0.0, 1.0 / h]], dtype=_F) @ _inv2(_CAYLEY)
    return [_conj_raw(k, g) for g in base]


# -- measurements -----------------------------------------------------


def collar_width(rep, curve):
    """Half the minimal distance from the curve's axis to its translates.

    Words are explored by BFS up to length COLLAR_WORD_LEN, pruned by an
    adaptive displacement cap measured from a point on the axis.
    """
    cm = rep.evaluate(curve)
    frame = cm.conjugator_to_standard()
    # work in coordinates where the curve axis is {0, inf}
    gens = [g.conjugate_by(frame) for g in rep.generators]
    ell = cm.translation_length()

    # seed the displacement cap from a shallow pass
    shallow = enumerate_ball(gens, BallLimit(max_word_len=2))
    best = float(np.min(_translate_distances(shallow.mats)))
    cap = (2.0 * best + ell + 2.0) if math.isfinite(best) else (2.0 * COLLAR_WORD_LEN)
    ball = enumerate_ball(
        gens,
        BallLimit(max_word_len=COLLAR_WORD_LEN, max_displacement=cap,
                  max_count=_COLLAR_MAX_ELEMENTS),
    )
    best = min(best, float(np.min(_translate_distances(ball.mats))))
    return CollarReport(measured_halfwidth=best / 2.0)


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

