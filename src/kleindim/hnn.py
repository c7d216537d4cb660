"""HNN extension of a surface representation by a stable letter.

The stable letter conjugates the boundary holonomy W to the designated
curve (both have translation length 1) while rotating the invariant
plane of the surface group by a right angle, so the image plane meets it
orthogonally.  `HnnPresentation` decides equality in the abstract
extension exactly, through normal forms, where the matrices can only
approximate it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import LengthMismatch, PlanesDisjoint
from .moebius import INF, MoebiusMap
from .words import evaluate_word as _eval
from .words import word_inverse

LENGTH_TOL = 1e-8
ANGLE_TOL = 1e-9
_OFFSET = 128  # byte encoding of a letter: letter + _OFFSET


class HnnPresentation:
    """Britton normal forms in <a_1, b_1, ..., a_g, b_g, tau | tau W tau^-1 = a_1>.

    W is the boundary word of the base free group F of rank 2g, tau the
    stable letter 2g+1.  An element is written g_0 tau^e_1 g_1 ...
    tau^e_n g_n with each g_i (i < n) the shortest word of its left coset
    g_i <a_1> (when e_{i+1} = +1) or g_i <W> (when e_{i+1} = -1), ties
    resolved towards the y for which y u is the other shortest word, and
    no pinch tau^e 1 tau^-e.  By the normal form theorem for HNN
    extensions (Lyndon-Schupp, Combinatorial Group Theory, ch. IV.2)
    two words are equal in the group exactly when their normal forms
    coincide.  Normal forms are `bytes`, one byte per letter, so they
    hash and compare cheaply; right multiplication only rewrites the
    last syllable.
    """

    def __init__(self, genus, boundary_word):
        self.stable_letter = 2 * genus + 1
        if self.stable_letter >= _OFFSET:
            raise ValueError("genus too large for the byte encoding")
        a1 = (1,)
        w = tuple(boundary_word)
        # u^k passes tau^e as image^k: a_1^k tau = tau W^k and
        # W^k tau^-1 = tau^-1 a_1^k; stored as (u, u^-1, image) with u
        # encoded
        self._through = {
            1: (_encode(a1), _encode(word_inverse(a1)), w),
            -1: (_encode(w), _encode(word_inverse(w)), a1),
        }
        self._stable = {e: _encode((e * self.stable_letter,)) for e in (1, -1)}

    def identity(self):
        return b""

    def normal_form(self, word):
        return self.multiply(b"", word)

    def multiply(self, nf, word):
        """Normal form of (element nf) * word."""
        for letter in word:
            if abs(letter) == self.stable_letter:
                nf = self._times_stable(nf, 1 if letter > 0 else -1)
            else:
                nf = _append_base(nf, _encode((letter,)))
        return nf

    def to_word(self, nf):
        return tuple(x - _OFFSET for x in nf)

    def _times_stable(self, nf, e):
        p = max(nf.rfind(self._stable[1]), nf.rfind(self._stable[-1]))
        fwd, back, image = self._through[e]
        rep, k = _left_coset_rep(nf[p + 1:], fwd, back)
        tail = _encode(_power(image, k))
        if not rep and p >= 0 and nf[p] == self._stable[-e][0]:
            # pinch: tau^-e u^k tau^e is the base element image^k
            return _append_base(nf[:p], tail)
        return nf[:p + 1] + rep + self._stable[e] + tail


def _encode(word):
    return bytes(x + _OFFSET for x in word)


def _power(u, k):
    return u * k if k >= 0 else word_inverse(u) * -k


def _append_base(nf, tail):
    """Freely reduced nf * tail for encoded base letters tail; they can
    only cancel against the trailing base segment of nf."""
    c = 0
    n = len(nf)
    while c < len(tail) and c < n and nf[n - 1 - c] + tail[c] == 2 * _OFFSET:
        c += 1
    return nf[:n - c] + tail[c:]


def _common_suffix(seg, w):
    """Length of the longest common suffix of seg and the periodic ...www."""
    n = len(w)
    s = 0
    while s < len(seg) and seg[-1 - s] == w[-1 - (s % n)]:
        s += 1
    return s


def _left_coset_rep(seg, fwd, back):
    """(rep, k) with seg = rep u^k and rep the canonical word of seg <u>.

    seg is an encoded reduced base word; fwd and back encode u and u^-1,
    u cyclically reduced and not a proper power, so at most one of them
    matches a suffix of seg.  rep is the shortest word in the coset; when
    two are shortest they are y and y u, and y is taken.
    """
    n = len(fwd)
    s = _common_suffix(seg, fwd)
    if s:
        q, r = divmod(s, n)
        j = q + 1 if 2 * r >= n and r else q
        sign, w = 1, fwd
    else:
        s = _common_suffix(seg, back)
        if not s:
            return seg, 0
        q, r = divmod(s, n)
        j = q + 1 if 2 * r > n else q
        sign, w = -1, back
    if j == q:
        return seg[:len(seg) - q * n], sign * j
    # one copy more than the match: strip the match, then cancel the
    # unmatched head of w
    head = w[:n - r]
    return seg[:len(seg) - s] + bytes(2 * _OFFSET - x for x in reversed(head)), sign * j


class HnnRep:
    """Surface generators plus the stable letter as one representation.

    Letters 1..2g are the surface generators, letter 2g+1 the stable
    letter.
    """

    def __init__(self, surface, T):
        self.surface = surface
        self.T = T
        self.generators = list(surface.generators) + [T]
        self.presentation = HnnPresentation(surface.genus, surface.boundary_word())

    def stable_letter_index(self):
        return 2 * self.surface.genus + 1

    def evaluate(self, word):
        return _eval(word, self.generators)

    def relator_word(self):
        tau = self.stable_letter_index()
        w_inv = tuple(-x for x in reversed(self.surface.boundary_word()))
        return (1,) + (tau,) + w_inv + (-tau,)

    def relator_residual(self):
        """Sign-canonical distance between rho(gamma_1) and T rho(W) T^-1.

        Measured on the defining conjugation rather than by expanding the
        relator word letter by letter; the letterwise product is far more
        sensitive to the rounding of the stored generators.
        """
        a = self.surface.gamma_matrix()
        w = self.surface.boundary_matrix()
        return (self.T @ w @ self.T.inverse()).dist(a)


def solve_stable_letter(surface, rotation=math.pi / 2.0):
    """Stable letter T with T W T^-1 = gamma_1 and plane rotation pi/2.

    Canonical choice: attracting fixed points matched, no translation
    offset along the axis.
    """
    A = surface.gamma_matrix()
    W = surface.boundary_matrix()
    la = A.translation_length()
    lw = W.translation_length()
    if abs(la - lw) > LENGTH_TOL:
        raise LengthMismatch(f"curve lengths {la} and {lw} cannot be conjugate")
    qa = A.conjugator_to_standard()
    qw = W.conjugator_to_standard()
    rot = MoebiusMap.vertical_rotation(rotation)
    return qa.inverse() @ rot @ qw


def build_hnn(surface, rotation=math.pi / 2.0):
    return HnnRep(surface, solve_stable_letter(surface, rotation))


def _circumcircle(z1, z2, z3):
    """Center and radius of the circle through three complex points."""
    m = np.array(
        [
            [2.0 * z1.real, 2.0 * z1.imag, 1.0],
            [2.0 * z2.real, 2.0 * z2.imag, 1.0],
            [2.0 * z3.real, 2.0 * z3.imag, 1.0],
        ]
    )
    rhs = np.array([abs(z1) ** 2, abs(z2) ** 2, abs(z3) ** 2])
    cx, cy, s = np.linalg.solve(m, rhs)
    center = complex(cx, cy)
    radius = math.sqrt(max(s + cx * cx + cy * cy, 0.0))
    return center, radius


def plane_angle(T):
    """Dihedral angle between the vertical plane over the real line and
    its image under T, in [0, pi/2]."""
    images = [T.apply(p) for p in (0.0, 1.0, INF)]
    finite = [p.z for p in images if not p.infinite]
    if len(finite) == 3:
        # collinear images mean the circline is a euclidean line
        u, v, w = finite
        area = (v - u).real * (w - u).imag - (v - u).imag * (w - u).real
        if abs(area) <= 1e-12 * (abs(v - u) * abs(w - u) + 1e-300):
            finite = [u, v]
    if len(finite) == 2:
        # the image circline is a euclidean line through two points
        p, q = finite
        delta = q - p
        if abs(delta.imag) <= 1e-12 * abs(delta):
            if abs(p.imag) > ANGLE_TOL:
                raise PlanesDisjoint("image plane is parallel to the reference plane")
            return 0.0
        theta = abs(cmath.phase(delta)) % math.pi
        return min(theta, math.pi - theta)
    center, radius = _circumcircle(*finite)
    gap = abs(center.imag)
    if gap > radius + ANGLE_TOL:
        raise PlanesDisjoint(f"image hemisphere misses the reference plane by {gap - radius}")
    return math.acos(min(gap / radius, 1.0))
