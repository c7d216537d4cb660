"""Graded words, truncated generating sets, and orbit-ball enumeration.

The extension group carries a grading counting stable-letter exponents;
its kernel restricted to the positive strata is generated, at truncation
level m, by the conjugates tau^k gamma_i tau^-k for 0 <= k <= m.  That
truncation group H_m is free, and its elements are told apart by free
reduction on a free basis.  Orbit balls of such generating sets feed the
dimension estimators.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _core
from .words import _LETTER, _OFFSET, _append_base, _encode, free_reduce, word_inverse

_COLLISION_TOL = 1e-6
# displacement band kept for expansion beyond a ball's max_displacement.
# The BFS assumes that every element within the cap has a word whose
# prefixes all stay within the band, and nothing checks it.  It fails for
# the extension group: at (3, 5) the radius-12 ball lacks 410 elements of
# displacement < 10, and 56,294 of the 317,383 elements of the radius-14
# ball lack their inverse (ROADMAP item 7).  It fails for the genus-3
# surface groups in a lift frame too, where the generators a_2 ... b_3
# move the base point 11.7 to 18.5.  At (3, 3) in the gamma frame the
# word (6, 5, -6, -5, 4, 3, -4, -3, 2) has displacement 7.1, but every
# prefix of length 1 to 7 lies at 15.0 to 18.2, so the lift ball to 12.5
# lacks it and its inverse; the strata tree's lift lists there miss 7 to
# 21 lifts that a ball to 2R + 3 reaches (growth._lift_candidates).
_BAND_SLACK = 1.0
# _beyond_band's rounding bounds, with u = 2^-53 and S = tr G tr H: the
# Gram sum, the products and each determinant err by less than 25 u S
# (64 u here); the product's determinant by less than 6.4 u sqrt(T S),
# T = ||g h||^2 (16 u here)
_SIEVE_ROUNDING = 2.0**-47
_DET_ROUNDING = 2.0**-49
# relative margin of _beyond_band's displacement test, far above the few
# dozen ulps of the renormalisation, of cosh and of arccosh
_SIEVE_MARGIN = 1e-9
# a matrix whose tr G lies outside this range is never dropped, so no term
# of the bounds overflows or underflows
_SIEVE_RANGE = (1e-100, 1e100)
# bits per storable row of _FormIndex's Bloom filter of appended forms
_BLOOM_BITS_PER_ROW = 8
# rows that a store and each new layer hold before they first grow
_FIRST_ROWS = 1024


@dataclass(frozen=True)
class TruncationGenerators:
    """Matrices for T_m = {tau^k gamma_i tau^-k : 0 <= k <= m}, k outer,
    and the identity of the group H_m they generate (None at m = 0, where
    T_0 is a free basis)."""

    matrices: list
    presentation: FreeForms | None


class FreeForms:
    """Elements of H_m as byte-encoded reduced words on its free basis
    S_m: T_m without tau^k a_1 tau^-k (k < m), which is tau^(k+1) W
    tau^-(k+1), W in level-(k+1) letters with its a_1 expanded in turn.
    H_m is a chain of copies of F_2g amalgamated along a_1 = W, a_1
    primitive, hence free on S_m (Serre, Trees, 1980; Lyndon-Schupp ch.
    IV), so two words are equal in H_m exactly when their forms are.
    Letter k * 2g + i is tau^k gamma_i tau^-k.  The image of
    tau^k a_1 tau^-k doubles in length with each level above k: 4 and 10
    letters at genus 1 and m = 2, 4094 at m = 10."""

    def __init__(self, genus, boundary_word, level):
        rank = 2 * genus
        if rank * (level + 1) >= _OFFSET:
            raise ValueError("truncation level too large for the byte encoding")
        images = {}
        for k in range(level, -1, -1):
            up = (k + 1) * rank
            for i in range(1, rank + 1):
                x = k * rank + i
                images[x] = (free_reduce(y for v in boundary_word
                                         for y in images[v + up if v > 0 else v - up])
                             if i == 1 and k < level else (x,))
                images[-x] = word_inverse(images[x])
        self._images = {x: _encode(w) for x, w in images.items()}

    def identity(self):
        return b""

    def rewriting_bytes(self, letter):
        """The last byte of a form after which `multiply` does not just
        append the letter's image: the byte that cancels the image's
        head."""
        return _LETTER[2 * _OFFSET - self._images[letter][0]]

    def multiply(self, nf, word):
        """Form of (element nf) * word, word in the letters of T_m."""
        for letter in word:
            image = self._images[letter]
            if len(image) > 1:
                nf = _append_base(nf, image)
            elif nf and nf[-1] + image[0] == 2 * _OFFSET:
                nf = nf[:-1]  # the letter cancels the last one
            else:
                nf += image
        return nf


def truncated_generators(rep, m):
    """Level-m generating set of the positive-strata subgroup."""
    if m < 0:
        raise ValueError("level must be >= 0")
    tau = rep.presentation.stable_letter
    mats = [rep.evaluate((tau,) * k + (i,) + (-tau,) * k)
            for k in range(m + 1) for i in range(1, 2 * rep.surface.genus + 1)]
    forms = FreeForms(rep.surface.genus, rep.surface.boundary_word(), m) if m else None
    return TruncationGenerators(matrices=mats, presentation=forms)


@dataclass(frozen=True)
class BallLimit:
    max_word_len: int | None = None
    max_displacement: float | None = None
    max_count: int | None = None


def _layers(parents):
    """(lo, hi) of each layer of a trie whose rows are in BFS order, the
    root's first: the rows of a layer are those whose parent lies in the
    layer before, and parents never decrease."""
    lo, hi = 0, 1
    while lo < hi:
        yield lo, hi
        lo, hi = hi, int(np.searchsorted(parents, hi))


class Words(Sequence):
    """The words of a ball's elements, spelled on request from a prefix
    trie; nothing is cached.

    Trie row t is a word: `parents[t]` is the row of the word without its
    last letter (-1 at row 0, the empty word), `columns[t]` the column of
    that letter, `letters[columns[t]]`.  The rows are the ball's elements
    and the band rows that prefix one, in the store's order: parents come
    first, so the keys parents * len(letters) + columns ascend.  Element i
    is trie row `rows[i]` (ascending) and has `lengths[i]` letters.

    `words[i]` walks up the trie from row i; iteration spells every word
    a layer at a time, holding only the layer before.  A slice is the
    list of its words, and `Words` equals the list it spells.
    """

    def __init__(self, parents, columns, rows, lengths, letters):
        self.parents = parents
        self.columns = columns
        self.rows = rows
        self.lengths = lengths
        self.letters = letters

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        t, word = int(self.rows[i]), []
        while t > 0:
            word.append(self.letters[self.columns[t]])
            t = int(self.parents[t])
        return tuple(reversed(word))

    def __iter__(self):
        # the words of the layer [above, lo) spell those of [lo, hi)
        spelled, above, done = [()], 0, 0
        for lo, hi in _layers(self.parents):
            if lo:
                spelled = [spelled[p - above] + (self.letters[c],)
                           for p, c in zip(self.parents[lo:hi].tolist(),
                                           self.columns[lo:hi].tolist())]
            end = int(np.searchsorted(self.rows, hi))
            for t in self.rows[done:end].tolist():
                yield spelled[t - lo]
            above, done = lo, end

    def __eq__(self, other):
        if not isinstance(other, (list, Words)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class BallResult:
    """Deduplicated orbit ball with the radius it claims to be complete to.

    Each group element appears once, under its first word in BFS order.
    `words` spells those words on request (`Words`): the ball keeps their
    prefix trie as parent and column arrays, and each word's length, but
    no word.  Elements are told apart exactly: by their reduced word when the
    generators are free, by the form of `enumerate_ball`'s presentation
    when it got one (a reduced S_m word for a truncation ball, a Britton
    normal form for the extension group); never by rounding their
    matrices.  A form that is its parent's form and its own letter can
    only equal a form that is not, so only those others are kept for the
    whole search (see `_FormIndex`).  `complete_radius` is the band's
    claim, not a certificate:
    it holds only where every element within it is reached through
    prefixes inside the displacement band (see _BAND_SLACK), which
    nothing checks.

    The search stops at the element that reaches either count cap:
    `max_count` elements within the displacement cap, or 4 `max_count`
    stored rows, band rows included.  `truncated` is set by either cap,
    and `collisions`, `skipped` and `numeric_drops` count the rows up to
    that element.  A stored band row keeps its matrix only while its
    layer is live, so `mats` and `disps` are the search's own ball
    columns, filled a layer at a time.  The search keeps no grading:
    `sigmas`, like `words.lengths`, is a sum down the word trie.
    """

    mats: np.ndarray  # (n, 4) complex128, canonical representatives
    words: Words
    disps: np.ndarray
    sigmas: np.ndarray
    complete_radius: float
    # words equal in the group whose matrices differ by more than 1e-6
    collisions: int = 0
    truncated: bool = False
    # stored band rows beyond the displacement cap
    skipped: int = 0
    # products with a non-finite entry
    numeric_drops: int = 0

    def __len__(self):
        return len(self.words)


def _gen_array(gens):
    return np.array([g.entries() for g in gens] + [g.inverse().entries() for g in gens],
                    dtype=np.complex128)


def _gram(mats):
    """Per row g = (a, b, c, d): the terms (x00, x11, Re x01, Im x01) of
    X = g* g, from the columns (a, c) and (b, d), tr X, and lower and
    upper bounds on |det g| for g as stored.  The terms of g g* are those
    of the conjugate transpose, rows (conj a, conj c, conj b, conj d)."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((mats[:, k].real, mats[:, k].imag)
                                              for k in range(4))
    x00 = ((ar * ar + ai * ai) + cr * cr) + ci * ci
    x11 = ((br * br + bi * bi) + dr * dr) + di * di
    re = ((ar * br + ai * bi) + cr * dr) + ci * di
    im = ((ar * bi - ai * br) + cr * di) - ci * dr
    tr = x00 + x11
    det = np.abs(mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2])
    # ad - bc errs by less than 3 u (|a d| + |b c|) + 1.5 u |ad - bc| <= 3 u tr
    slack = _SIEVE_ROUNDING * tr
    return x00, x11, re, im, tr, np.maximum(det - slack, 0.0), det + slack


def _beyond_band(frontier, gterms, band):
    """(n, k) mask of the products frontier[i] @ gens[j] that the exact
    path surely drops as beyond `band`: `_core.expand` gives a finite row
    whose displacement exceeds band.  `gterms` is `_gram` of the
    generators' conjugate transposes, the terms of h h*.

    Decided before any product from T = ||g h||^2 = tr(G H), G = g* g,
    H = h h*: four real products per pair, elementwise (no BLAS).  With
    S = tr G tr H, u = 2^-53 and d_lo, d_hi `_gram`'s bounds on |det|
    (|det h*| = |det h|, tr(h h*) = tr(h* h)):
    - the computed tr(G H) and the computed product's squared norm both
      lie within 25 u S of T (Gram terms and `_core._products`; these
      bounds and _gram's on |det| hold in any order of summation, so for
      H's terms taken from h* too);
    - the product's computed determinant lies within 6.4 u sqrt(T S) of
      det g det h (the products' error moves the determinant by
      ||g h|| ||E||, its own rounding adds 1.5 u ||g h||^2 + 1.5 u |det|,
      and T >= 2 |det g det h|).
    A pair is dropped when the computed tr(G H) (norm2) satisfies both
      norm2 - 64 u S > 2 cosh(band) (1 + _SIEVE_MARGIN)
                       (d_hi(g) d_hi(h) + 64 u S)   and
      d_lo(g)^2 d_lo(h)^2 > (16 u)^2 2 norm2 S,
    where the first gives norm2 > 64 u S, hence T < 2 norm2.  The second
    makes the computed determinant nonzero, so the renormalised row is
    finite (with tr G and tr H in _SIEVE_RANGE nothing overflows).  Its
    squared norm is the product's over |det|, so by the first its
    displacement arccosh(norm^2 / 2) exceeds band.
    """
    g00, g11, g01r, g01i, gtr, glo, ghi = _gram(frontier)
    h00, h11, h01r, h01i, htr, hlo, hhi = gterms
    lo, hi = _SIEVE_RANGE
    with np.errstate(over="ignore", invalid="ignore"):
        need = 2.0 * np.cosh(band) * (1.0 + _SIEVE_MARGIN)
        # a row outside the range gets nan bounds, which drop nothing
        gtr = np.where((gtr > lo) & (gtr < hi), gtr, np.nan)
        htr = np.where((htr > lo) & (htr < hi), htr, np.nan)
        # tr(G H) = g00 h00 + g11 h11 + 2 Re(g01 conj(h01))
        norm2 = ((g00[:, None] * h00[None] + g11[:, None] * h11[None])
                 + (2.0 * g01r)[:, None] * h01r[None]) + (2.0 * g01i)[:, None] * h01i[None]
        far = norm2 > ((need * ghi)[:, None] * hhi[None]
                       + ((need + 1.0) * _SIEVE_ROUNDING * gtr)[:, None] * htr[None])
        far &= ((glo * glo)[:, None] * (hlo * hlo)[None]
                > (2.0 * _DET_ROUNDING**2 * gtr)[:, None] * htr[None] * norm2)
    return far


class _Columns:
    """Matrix and displacement columns of `n` rows, grown in place, one
    column at a time, so that the old and the new arrays are never held
    together (a large block is remapped, not copied).  The data may move,
    so no view of a column may outlive the statement that takes it while
    the columns can grow: readers copy or index.  refcheck would enforce
    that, but any tracer or profiler adds a reference to the array whose
    method it sees called."""

    def __init__(self, cap):
        self.n = 0
        self.mats = np.empty((cap, 4), dtype=np.complex128)
        self.disps = np.empty(cap)

    def resize(self, cap):
        self.mats.resize((cap, 4), refcheck=False)
        self.disps.resize(cap, refcheck=False)

    def append(self, mats, disps):
        need = self.n + len(disps)
        if need > len(self.disps):
            # the slack of a live layer counts toward the search's peak
            self.resize(max(need, len(self.disps) * 3 // 2))
        self.mats[self.n:need] = mats
        self.disps[self.n:need] = disps
        self.n = need

    def take(self, source, rows):
        """Append the rows `rows` of `source`, growing to hold just them."""
        need = self.n + len(rows)
        self.resize(need)
        # "clip" writes straight into out, where "raise" would buffer
        np.take(source.mats, rows, axis=0, out=self.mats[self.n:need], mode="clip")
        np.take(source.disps, rows, out=self.disps[self.n:need], mode="clip")
        self.n = need


class _Store:
    """The rows found so far, in BFS order.

    Every row keeps its link and appended flag, which the word trie and
    `_FormIndex`'s walk read, and its slot: its index in the ball's
    columns `ball`, -1 until its layer retires and for a band row.  Row
    matrices and displacements are kept for the ball's rows and for the
    two live layers only: the frontier, rows [lo, hi) at index
    row - lo of `front`, and the next layer, rows [hi, n) at index row - hi
    of `next`.  The frontier's arrays never grow, so a pass reads them
    through a view.  When the frontier has been expanded it retires: its
    ball rows move to `ball`, and its band rows keep their link and flag
    alone.  A retired band row's matrix, which only a duplicate's
    collision check asks for, is replayed from its nearest ancestor that
    kept one.  No row keeps a grading: like a word's length, it is a sum
    down the trie (`trie`)."""

    def __init__(self, garr):
        self.garr = garr
        self.ncols = len(garr)
        self.n = self.lo = self.hi = 0
        # parent row * ncols + last letter's column, -1 for (): rows are
        # stored in strictly increasing order of it, so one search finds
        # the child of a row at a column
        self.links = np.empty(_FIRST_ROWS, dtype=np.int64)
        # whether the row's form is its parent's form and its own letter
        self.appended = np.empty(_FIRST_ROWS, dtype=bool)
        self.slot = np.empty(_FIRST_ROWS, dtype=np.int32)
        self.ball, self.front, self.next = _Columns(0), _Columns(0), _Columns(_FIRST_ROWS)

    def append(self, mats, disps, links, appended):
        """Store rows of the next layer."""
        need = self.n + len(disps)
        if need > len(self.links):
            # by half, as a live layer: the slack counts toward the peak
            cap = max(len(self.links) * 3 // 2, need)
            for name in ("links", "appended", "slot"):
                getattr(self, name).resize(cap, refcheck=False)
        part = slice(self.n, need)
        self.links[part] = links
        self.appended[part] = appended
        self.slot[part] = -1
        self.next.append(mats, disps)
        self.n = need

    def retire(self, cap):
        """Retire the frontier: its rows within `cap`, and the root, move
        to the ball's columns; the next layer, shrunk to its rows, becomes
        the frontier."""
        front = self.front
        in_ball = front.disps[:front.n] <= cap
        in_ball[:1] |= self.lo == 0  # the root, whatever the cap
        rows = np.flatnonzero(in_ball)
        self.slot[self.lo + rows] = np.arange(self.ball.n, self.ball.n + len(rows))
        self.ball.take(front, rows)
        self.next.resize(self.next.n)
        self.front, self.next = self.next, _Columns(_FIRST_ROWS)
        self.lo, self.hi = self.hi, self.n

    def matrices(self, rows):
        """The matrix of each stored row of `rows`."""
        out = np.empty((len(rows), 4), dtype=np.complex128)
        later = np.flatnonzero(rows >= self.hi)
        out[later] = self.next.mats[rows[later] - self.hi]
        live = np.flatnonzero((rows >= self.lo) & (rows < self.hi))
        out[live] = self.front.mats[rows[live] - self.lo]
        retired = np.flatnonzero(rows < self.lo)
        slot = self.slot[rows[retired]]
        out[retired[slot >= 0]] = self.ball.mats[slot[slot >= 0]]
        for i in retired[slot < 0].tolist():
            out[i] = self._replay(int(rows[i]))
        return out

    def _replay(self, row):
        """The matrix of a retired band row, formed again from its nearest
        ancestor that kept one by the kernels that formed it: row by row,
        so no batch changes a byte."""
        cols = []
        while self.slot[row] < 0:
            row, col = divmod(int(self.links[row]), self.ncols)
            cols.append(col)
        mat = self.ball.mats[self.slot[row]][None]
        for col in reversed(cols):
            mat = _core.fix_sign(_core.expand(mat, self.garr[col][None]))
        return mat[0]

    def trie(self, keep, letters, grades):
        """The `Words` of the stored elements `keep` (ascending), and their
        gradings.  The trie's rows are the rows of `keep` and those that
        prefix them, numbered in store order, each with its parent's number
        and its column.  A row's word length and grading are its parent's
        plus one and plus its column's grade, `grades[column]`, summed a
        layer at a time."""
        need = np.zeros(self.n, dtype=bool)
        front = keep
        while len(front):
            need[front] = True
            up = np.unique(self.links[front] // self.ncols)
            front = up[(up >= 0) & ~need[up]]
        rows = np.flatnonzero(need)
        number = np.cumsum(need, dtype=np.int32) - 1
        parents = np.full(len(rows), -1, dtype=np.int32)
        columns = np.zeros(len(rows), dtype=np.min_scalar_type(self.ncols - 1))
        # row 0 is the root, whose link is -1
        up, columns[1:] = np.divmod(self.links[rows[1:]], self.ncols)
        parents[1:] = number[up]
        depth = np.zeros(len(rows), dtype=np.int32)
        sigmas = np.zeros(len(rows), dtype=np.int64)
        for d, (lo, hi) in enumerate(_layers(parents)):
            if lo:
                depth[lo:hi] = d
                sigmas[lo:hi] = sigmas[parents[lo:hi]] + grades[columns[lo:hi]]
        at = number[keep]
        return Words(parents, columns, at, depth[at], tuple(letters)), sigmas[at]


def _form_hashes(forms):
    """The 64-bit hashes of forms that the prefilter of `_FormIndex` takes
    (bytes cache their hash, so a form already used as a key costs none)."""
    return np.fromiter(map(hash, forms), dtype=np.int64, count=len(forms)).view(np.uint64)


class _FormIndex:
    """The identity of a presentation ball's rows, keeping only the forms
    that a later row can equal.

    A letter's image is its form, `multiply(identity(), (x,))`.  A row is
    appended when its letter's image is one byte and its form is its
    parent's form followed by that byte, and rewritten otherwise (a
    stable-letter rewrite, a pinch, a cancellation, a multi-byte image).
    Stored forms are distinct, so two appended rows with one form would
    have one parent and one column, and each (parent, column) pair is
    formed once: an appended row can only equal a rewritten row or the
    root.  So the rewritten forms and the root's, b"", are kept for good,
    in `rewritten`, and the forms of a layer only while it is the
    frontier, to multiply.

    A rewritten row equals a stored appended row R* in one way only.  The
    rows from R* up to its first ancestor in `rewritten` are appended, so
    their forms are prefixes of R*'s form and none is in `rewritten`: the
    ancestor holds the longest proper prefix of the form that `rewritten`
    has, and R* is reached from it by taking, byte by byte, the child at
    that byte's column, each one appended.  `_Store.links` ascends, so
    each step is one search.  A Bloom filter of the stored appended forms
    (3 bits in one 64-bit word per `_form_hashes` value) picks the
    rewritten rows to walk; the walk confirms every positive, so the
    filter never decides alone.

    Whether `multiply` is needed is read off the parent form's last byte:
    the presentation's `rewriting_bytes(letter)` names the last bytes
    after which `multiply` may do more than append the letter's image, so
    `multiply` is called only for those rows, and every other row's form,
    the root's children's too, is its parent's form and that image.

    The index keeps no row position and no grading: its frontier is the
    store's, rows [store.lo, store.hi), and gradings, like word lengths,
    are sums down the trie (`_Store.trie`).
    """

    def __init__(self, presentation, letters, max_rows):
        self.multiply = presentation.multiply
        self.steps = [(x,) for x in letters]
        root = presentation.identity()
        self.images = [presentation.multiply(root, step) for step in self.steps]
        self.single = np.array([len(image) == 1 for image in self.images])
        self.ncols = len(letters)
        # the column of each one-byte image, -1 for every other byte
        self.column = np.full(256, -1, dtype=np.int64)
        self.column[[im[0] for im in self.images if len(im) == 1]] = np.flatnonzero(self.single)
        # whether multiply may do more than append column j's image to a
        # form ending in byte b; the root's, b"", reads as _OFFSET
        self.rewrites = np.zeros((256, len(letters)), dtype=bool)
        for j, x in enumerate(letters):
            self.rewrites[list(presentation.rewriting_bytes(x)), j] = True
        self.rewritten = {root: 0}
        # the forms of the store's frontier, rows [store.lo, store.hi), and
        # of its next layer
        self.frontier, self.next = [root], []
        # the last byte of each frontier form, and of the next layer's
        self.last, self.next_last = np.array([_OFFSET], dtype=np.uint8), []
        # 8 bits per row the store can hold, a power of two of at most 2^26,
        # in 64-bit words; a form sets 3 bits of one word
        nbits = 1 << min(max((_BLOOM_BITS_PER_ROW * max_rows - 1).bit_length(), 6), 26)
        self.bloom = np.zeros(nbits // 64, dtype=np.uint64)

    def next_layer(self):
        self.frontier, self.next = self.next, []
        self.last = np.concatenate(self.next_last or [np.zeros(0, dtype=np.uint8)])
        self.next_last = []

    def decide(self, store, parents, cols, depth):
        """(hits, appended) for the candidate rows (parent, column) of one
        step of a pass, rows of word length `depth`: the row each repeats,
        -1 for a new element, and whether its form is appended.  A row of
        this step is numbered store.n + its rank among the new rows, so a
        row repeats an earlier row of its step exactly when the first
        occurrence of its form lies before it.  The new rows are indexed
        under those numbers before it returns, so the store must append
        them, in order, before the next step is decided."""
        n = len(parents)
        at = parents - store.lo
        pforms = [self.frontier[p] for p in at.tolist()]
        steps, images, multiply = self.steps, self.images, self.multiply
        maybe = np.flatnonzero(self.rewrites[self.last[at], cols])
        appended = self.single[cols]
        cols = cols.tolist()
        forms = [f + images[c] for f, c in zip(pforms, cols)]
        for i in maybe.tolist():
            form = multiply(pforms[i], steps[cols[i]])
            if form != forms[i]:
                forms[i] = form
                appended[i] = False
        # the first row of each form in the step
        first = dict(zip(reversed(forms), range(n - 1, -1, -1)))
        own = np.zeros(n, dtype=bool)
        own[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = True
        later = np.flatnonzero(~own)
        earlier = np.array([first[forms[i]] for i in later.tolist()], dtype=np.int64)
        # the first rows whose form a kept rewritten row has
        kept = list(first.keys() & self.rewritten.keys())
        hits = np.full(n, -1, dtype=np.int64)
        hits[[first[f] for f in kept]] = [self.rewritten[f] for f in kept]
        hashes = _form_hashes(forms)
        probe = np.flatnonzero(own & ~appended & (hits < 0))
        if len(probe):
            probe = probe[self._maybe_stored(hashes[probe])]
            hits[probe] = self._walk(store, [forms[i] for i in probe.tolist()], depth)
        fresh = own & (hits < 0)
        new_row = store.n + np.cumsum(fresh) - 1
        hits[later] = np.where(fresh[earlier], new_row[earlier], hits[earlier])
        new = np.flatnonzero(fresh)
        new_forms = [forms[i] for i in new.tolist()] if len(new) < n else forms
        self.next.extend(new_forms)
        # a new row's form is not the root's, so it has a last byte
        self.next_last.append(np.frombuffer(b"".join([f[-1:] for f in new_forms]), dtype=np.uint8))
        rewritten = np.flatnonzero(fresh & ~appended)
        self.rewritten.update(zip([forms[i] for i in rewritten.tolist()],
                                  new_row[rewritten].tolist()))
        np.bitwise_or.at(self.bloom, *self._bits(hashes[fresh & appended]))
        return hits, appended

    def _bits(self, hashes):
        """The filter's word of each hash (its low bits) and the 3 bits it
        sets there (bits 32 to 49, 6 at a time)."""
        a, b, c = (np.uint64(1) << ((hashes >> np.uint64(s)) & np.uint64(63))
                   for s in (32, 38, 44))
        return hashes & np.uint64(len(self.bloom) - 1), a | b | c

    def _maybe_stored(self, hashes):
        word, bits = self._bits(hashes)
        return self.bloom[word] & bits == bits

    def _walk(self, store, forms, depth):
        """The stored appended row of each form, -1 where there is none.

        Each step of a walk goes one layer down, and no stored row lies
        below the layer being decided, of word length `depth`, so the
        longest kept prefix is looked for only among the `depth` longest
        proper prefixes."""
        rows, tails = [], []
        for form in forms:
            rows.append(-1)
            for k in range(len(form) - 1, max(len(form) - depth, 0) - 1, -1):
                if form[:k] in self.rewritten:
                    rows[-1] = self.rewritten[form[:k]]
                    break
            tails.append(form[k:] if rows[-1] >= 0 else b"")
        row = np.array(rows, dtype=np.int64)
        lens = np.fromiter(map(len, tails), dtype=np.int64, count=len(tails))
        starts = np.cumsum(lens) - lens
        path = np.frombuffer(b"".join(tails), dtype=np.uint8)
        found = row >= 0
        for s in range(int(lens.max(initial=0))):
            walking = np.flatnonzero(found & (lens > s))
            col = self.column[path[starts[walking] + s]]
            key = row[walking] * self.ncols + col
            # no view of the store is named, so none outlives this call
            at = np.minimum(np.searchsorted(store.links[:store.n], key), store.n - 1)
            row[walking] = at
            found[walking] = (col >= 0) & (store.links[at] == key) & store.appended[at]
        return np.where(found, row, -1)


def enumerate_ball(gens, limit, sigma_values=None, presentation=None):
    """BFS over reduced words in `gens` and their inverses.

    Exactly one element per distinct group element, told apart by an
    exact identity; matrices serve only for displacements and fixed
    points.  Without a `presentation` the generators are taken to
    generate freely, so every reduced word is its own element.  With
    one (`FreeForms`, `hnn.HnnPresentation`), generator i is its letter
    i + 1 and elements are keyed by the forms its `identity()` and
    `multiply(form, word)` give (`rewriting_bytes(letter)` names the last
    bytes of a form after which `multiply` may do more than append the
    letter's image, `multiply(identity(), (letter,))`), so words that
    are equal in the group are merged however far their matrices have
    drifted apart.  The output
    order is (word length, lexicographic word).  `sigma_values[i]` is the
    grading of generator i (default 0); the search keeps none, and a kept
    word's grading, like its length, is summed down the trie at the end.

    Each frontier row is multiplied only by the columns that can give a
    kept row.  Backtracks are dropped before any product.  With a
    `max_displacement`, a sieve (`_beyond_band`) also drops each product
    whose squared norm tr(g* g h h*), less a bound on its rounding of
    64 u tr(g* g) tr(h h*) (u = 2^-53), already puts it beyond the band,
    and whose determinant is surely nonzero, so that the exact path would
    have dropped it as beyond the band and not as a numeric drop.  The
    remaining (frontier row, generator) pairs go through one paired
    `_core.expand` per pass of `_core.PASS_BUDGET` // 2n frontier rows (2n
    columns: products and sieve terms fit the budget at any genus and
    level), then `_core.displacements` and the exact decision unchanged,
    so the ball is bit for bit the one that forming every product gives.

    A pass decides the identity of its rows in order and cuts at the
    first new element that reaches a count cap, `max_count` elements
    within `max_displacement` or 4 `max_count` stored rows (band rows
    included).  The search ends there.  Where a cap may fall in a pass,
    its rows are decided in steps, each through the row where the cap
    would fall if no row of the step were a duplicate: the cut falls at
    the last row of a step or not in it, so no form past the cut is
    formed, and no numeric drop or collision after it is counted.

    The identity keeps a form only where a later row can equal it, reads
    the layer's position off the store and indexes each new row as it
    decides it (`_FormIndex`).  Only the ball's rows and the two live
    layers keep a matrix (`_Store`); a duplicate of a retired band row has
    its matrix replayed for the collision check.  At the end the forms go,
    the last layer retires and the words become a prefix trie of the kept
    rows and their band ancestors (`_Store.trie`, `Words`): the ball
    returns the search's own columns, no copy of them, and spells no word.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if limit == BallLimit():
        raise ValueError("unbounded enumeration")
    if limit.max_count is not None and limit.max_count < 1:
        raise ValueError("max_count must be >= 1")

    ngen = len(gens)
    ncols = 2 * ngen
    garr = _gen_array(gens)
    gterms = _gram(np.conj(garr[:, [0, 2, 1, 3]]))
    # letter and grade of column j of garr; the inverse column of j is
    # (j + ngen) % 2n
    letters = np.outer([1, -1], range(1, ngen + 1)).ravel().tolist()
    sig_of_col = np.outer([1, -1], sigma_values or [0] * ngen).ravel()
    cap = limit.max_displacement if limit.max_displacement is not None else math.inf
    band = cap + _BAND_SLACK
    max_count = limit.max_count if limit.max_count is not None else 10**7
    max_len = limit.max_word_len if limit.max_word_len is not None else 10**6
    index = _FormIndex(presentation, letters, 4 * max_count) if presentation is not None else None

    store = _Store(garr)
    store.append(np.array([[1, 0, 0, 1]]), [0.0], [-1], [True])
    store.retire(cap)  # the root becomes the frontier
    n_in_ball = 1
    numeric_drops = 0
    collisions = 0
    truncated = n_in_ball >= max_count  # the identity alone fills the cap
    depth = 0
    step = max(_core.PASS_BUDGET // ncols, 1)

    while store.hi > store.lo and depth < max_len and not truncated:
        depth += 1
        for c0 in range(store.lo, store.hi, step):
            c1 = min(c0 + step, store.hi)
            # the frontier's arrays never grow, so a view of them is safe
            frontier = store.front.mats[c0 - store.lo:c1 - store.lo]
            # a copy, as the links grow in place below
            links = store.links[c0:c1].copy()
            # immediate backtracks are not reduced words
            formed = np.arange(ncols) != np.where(links < 0, -1, (links + ngen) % ncols)[:, None]
            if math.isfinite(band):
                formed &= ~_beyond_band(frontier, gterms, band)
            # products are formed for these flat indices (frontier row) *
            # ncols + (column) only, and kept in that order
            flat = np.flatnonzero(formed)
            prods = _core.expand(frontier[flat // ncols], garr[flat % ncols])
            disps = _core.displacements(prods)
            # a numeric drop is a row with a non-finite entry; a finite row's
            # displacement may still overflow, and then only the band drops it
            finite = np.isfinite(prods).all(axis=1)
            rows = np.flatnonzero(finite & (disps <= band))
            parents, cols = np.divmod(flat[rows], ncols)
            parents += c0
            in_ball = disps[rows] <= cap
            start, end_row = 0, len(prods)
            while start < len(rows) and not truncated:
                # the identity is decided through the row where a cap would
                # fall if no row were a duplicate, and on from there in
                # steps: a cap is reached at the last row of a step or not
                # at all, so no row past the cut is decided
                reach = np.flatnonzero(
                    (n_in_ball + np.cumsum(in_ball[start:]) >= max_count)
                    | (store.n + np.arange(1, len(rows) - start + 1) >= 4 * max_count))
                stop = start + int(reach[0]) + 1 if len(reach) else len(rows)
                if index is not None:
                    hits, appended = index.decide(store, parents[start:stop], cols[start:stop],
                                                  depth)
                else:
                    # a reduced word is its parent's word and its letter
                    hits, appended = np.full(stop - start, -1), np.ones(stop - start, dtype=bool)
                new = start + np.flatnonzero(hits < 0)
                dups = start + np.flatnonzero(hits >= 0)
                n_in_ball += int(np.count_nonzero(in_ball[new]))
                # the sign does not change a displacement, so only kept rows
                # are sign-fixed
                store.append(_core.fix_sign(prods[rows[new]]), disps[rows[new]],
                             parents[new] * ncols + cols[new], appended[new - start])
                if len(dups):
                    a, b = store.matrices(hits[dups - start]), prods[rows[dups]]
                    drift = np.minimum(np.abs(a - b).max(axis=1), np.abs(a + b).max(axis=1))
                    collisions += int(np.count_nonzero(drift > _COLLISION_TOL))
                truncated = n_in_ball >= max_count or store.n >= 4 * max_count
                if truncated:
                    end_row = int(rows[stop - 1])
                start = stop
            # drops after the cut row are not counted
            numeric_drops += int(np.count_nonzero(~finite[:end_row]))
            if truncated:
                break
        frontier = None  # the frontier's arrays go when it retires
        store.retire(cap)
        if index is not None:
            index.next_layer()

    # when the frontier ran out every word within the band was expanded;
    # else the least displacement left unexpanded bounds the claim (a cut
    # leaves the partial layer, now the frontier, holding at least its own
    # row)
    complete_radius = cap
    if truncated or (depth >= max_len and store.hi > store.lo):
        least = min(float(store.front.disps[:store.front.n].min()), cap)
        complete_radius = least if math.isfinite(least) else 0.0

    # the forms go before the trie is built, and the last layer retires,
    # so that the ball's columns hold every kept row
    index = None
    store.retire(cap)
    words, sigmas = store.trie(np.flatnonzero(store.slot[:store.n] >= 0), letters, sig_of_col)
    ball = store.ball
    return BallResult(
        mats=ball.mats,
        words=words,
        disps=ball.disps,
        sigmas=sigmas,
        complete_radius=complete_radius,
        collisions=collisions,
        truncated=truncated,
        skipped=store.n - ball.n,
        numeric_drops=numeric_drops,
    )
