"""HNN extension of a surface representation by a stable letter.

The stable letter conjugates the boundary holonomy W to the designated
curve (both have translation length 1) while rotating the invariant
plane of the surface group by a right angle, so the image plane meets it
orthogonally.  `HnnPresentation` decides equality in the abstract
extension exactly, through normal forms, where the matrices can only
approximate it.
"""

from __future__ import annotations

import math

from .errors import LengthMismatch, PlanesDisjoint
from .moebius import MoebiusMap
from .words import _LETTER, _OFFSET, _append_base, _encode, word_inverse
from .words import evaluate_word as _eval

LENGTH_TOL = 1e-8
ANGLE_TOL = 1e-9


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
    coincide.  Normal forms are `bytes` in the encoding of `words`, so
    they hash and compare cheaply; right multiplication only rewrites the
    last syllable.
    """

    def __init__(self, genus, boundary_word):
        self.stable_letter = 2 * genus + 1
        if self.stable_letter >= _OFFSET:
            raise ValueError("genus too large for the byte encoding")
        a1, a1_inv = _encode((1,)), _encode((-1,))
        w, w_inv = _encode(boundary_word), _encode(word_inverse(boundary_word))
        # u^k passes tau^e as image^k: a_1^k tau = tau W^k and
        # W^k tau^-1 = tau^-1 a_1^k; stored encoded as
        # (u, u^-1, image, image^-1)
        self._through = {1: (a1, a1_inv, w, w_inv), -1: (w, w_inv, a1, a1_inv)}
        self._stable = {e: _encode((e * self.stable_letter,)) for e in (1, -1)}
        # the suffixes of a form after which _times_stable(nf, e) may do
        # more than append tau^e
        self._rewriting = {e: (self._stable[-e], fwd[-((len(fwd) + 1) // 2):],
                               back[-(len(back) // 2 + 1):])
                           for e, (fwd, back, _, _) in self._through.items()}

    def identity(self):
        return b""

    def rewriting_bytes(self, letter):
        """The last bytes of a form after which `multiply` may not just
        append the letter's byte: for a base letter its inverse's, which
        cancels; for tau^e the byte of tau^-e (a pinch) and the last bytes
        of u and u^-1, where the coset rewrite starts."""
        if abs(letter) != self.stable_letter:
            return _LETTER[_OFFSET - letter]
        return bytes(tail[-1] for tail in self._rewriting[1 if letter > 0 else -1])

    def normal_form(self, word):
        return self.multiply(b"", word)

    def multiply(self, nf, word):
        """Normal form of (element nf) * word."""
        for letter in word:
            if abs(letter) == self.stable_letter:
                nf = self._times_stable(nf, 1 if letter > 0 else -1)
            elif nf and nf[-1] + letter == _OFFSET:
                nf = nf[:-1]  # the letter cancels the last one
            else:
                nf += _LETTER[letter + _OFFSET]
        return nf

    def _times_stable(self, nf, e):
        """Normal form of nf tau^e.  The last syllable g = rep u^k moves a
        copy of u past tau^e (`_left_coset_rep`) only when it ends with at
        least half a copy of u or more than half a copy of u^-1, its last
        ceil(n/2) or floor(n/2) + 1 bytes (n = |u|), and tau^e pinches only
        after tau^-e; after any other form, the empty one too, the product
        is nf followed by tau^e."""
        if not nf.endswith(self._rewriting[e]):
            return nf + self._stable[e]
        p = max(nf.rfind(self._stable[1]), nf.rfind(self._stable[-1]))
        fwd, back, image, image_inv = self._through[e]
        rep, k = _left_coset_rep(nf[p + 1:], fwd, back)
        tail = image * k if k >= 0 else image_inv * -k
        if not rep and p >= 0 and nf[p] == self._stable[-e][0]:
            # pinch: tau^-e u^k tau^e is the base element image^k
            return _append_base(nf[:p], tail)
        return nf[:p + 1] + rep + self._stable[e] + tail


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

    def evaluate(self, word):
        return _eval(word, self.generators)

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
    """Stable letter T with T W T^-1 = gamma_1 that turns the invariant
    plane by `rotation`: pi/2 for the extension, 0 for its Fuchsian
    counterpart, which unfolds the strata tree.

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


def build_hnn(surface):
    return HnnRep(surface, solve_stable_letter(surface))


def plane_angle(T):
    """Dihedral angle between the vertical plane over the real line and
    its image under T, in [0, pi/2].

    For unit-determinant T = (a, b, c, d) the inversive product of the
    real line and its image (Beardon, The Geometry of Discrete Groups,
    ch. 3) is I = Re(conj(a) d - conj(b) c), and the angle is acos |I|.
    |I| > 1 means the planes are disjoint.  |I| = 1 means they are tangent,
    unless T preserves the real line, i.e. Im(conj(a) b) and
    Im(conj(c) d) vanish, when they coincide and the angle is 0.  Both
    tests take ANGLE_TOL as their slack, so an angle below about
    sqrt(2 ANGLE_TOL) reads as tangent or as 0.
    """
    a, b, c, d = T.entries()
    cos = abs((a.conjugate() * d - b.conjugate() * c).real)
    if cos > 1.0 + ANGLE_TOL:
        raise PlanesDisjoint(f"image plane misses the reference plane (|I| = {cos})")
    if cos >= 1.0 - ANGLE_TOL:
        if (abs((a.conjugate() * b).imag) <= ANGLE_TOL
                and abs((c.conjugate() * d).imag) <= ANGLE_TOL):
            return 0.0
        raise PlanesDisjoint("image plane is tangent to the reference plane")
    return math.acos(cos)
