"""Free words over signed integer letters.

A word is a tuple of nonzero ints; letter ``i > 0`` is the i-th generator,
``-i`` its inverse.  Generators of a genus-g surface use letters 1..2g; the
stable letter of an extension uses 2g+1.
"""

from __future__ import annotations

import math

from .moebius import MoebiusMap

# words compared exactly are bytes, one per letter, which hash and compare
# cheaply: letter + _OFFSET, for |letter| < 128
_OFFSET = 128
_LETTER = [bytes((x,)) for x in range(256)]  # _LETTER[letter + _OFFSET] encodes letter


def free_reduce(word):
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word):
    return tuple(-letter for letter in reversed(word))


def _encode(word):
    return bytes(x + _OFFSET for x in word)


def _append_base(nf, tail):
    """Freely reduced nf * tail for encoded freely reduced words nf and
    tail: only the head of tail can cancel, against the end of nf."""
    c = 0
    n = len(nf)
    while c < len(tail) and c < n and nf[n - 1 - c] + tail[c] == 2 * _OFFSET:
        c += 1
    return nf[:n - c] + tail[c:]


def evaluate_word(word, generators):
    """Evaluate a (freely reduced) word; generators[i-1] realizes letter i.

    Words of up to 96 letters are multiplied in the matrix-chain order
    that minimizes the summed norms of the intermediate products (an
    O(n^3) search), which limits rounding on words that nearly cancel;
    longer words are multiplied left to right.
    """
    letters = free_reduce(word)
    if not letters:
        return MoebiusMap.identity()
    mats = [
        generators[letter - 1] if letter > 0 else generators[-letter - 1].inverse()
        for letter in letters
    ]

    n = len(mats)
    if n > 96:
        m = mats[0]
        for x in mats[1:]:
            m = m @ x
        return m

    def norm(m):
        return math.sqrt(abs(m.a) ** 2 + abs(m.b) ** 2 + abs(m.c) ** 2 + abs(m.d) ** 2)

    # choose the multiplication order that keeps every intermediate
    # product small; long words that nearly cancel lose precision badly
    # under a fixed order
    nrm = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m = mats[i]
        nrm[i][i] = norm(m)
        for j in range(i + 1, n):
            m = m @ mats[j]
            nrm[i][j] = norm(m)
    cost = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            best, arg = math.inf, i
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j] + nrm[i][k] * nrm[k + 1][j]
                if c < best:
                    best, arg = c, k
            cost[i][j] = best
            split[i][j] = arg

    def prod(i, j):
        if i == j:
            return mats[i]
        k = split[i][j]
        return prod(i, k) @ prod(k + 1, j)

    return prod(0, n - 1)


def commutator_word(i, j):
    return (i, j, -i, -j)


def surface_boundary_word(genus):
    """The product of commutators of consecutive generator pairs."""
    word = ()
    for i in range(1, genus + 1):
        word += commutator_word(2 * i - 1, 2 * i)
    return word
