"""The hot enumeration kernel, in NumPy: batched 2x2 complex matrix
products, det renormalization and sign canonicalization.
"""

from __future__ import annotations

import numpy as np

KERNEL_NAME = "numpy"
PIVOT_TOL = 1e-9
_REAL_TOL = 1e-12


def canonicalize(mats):
    """In place: renormalize to det 1 and fix the sign representative.

    mats: (n, 4) complex128 rows (a, b, c, d).
    """
    det = mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        mats /= np.sqrt(det)[:, None]
    absval = np.abs(mats)
    big = absval > PIVOT_TOL
    # index of the first entry with modulus above the pivot threshold
    pivot_idx = np.argmax(big, axis=1)
    pivot = mats[np.arange(len(mats)), pivot_idx]
    papb = np.abs(pivot)
    re, im = pivot.real, pivot.imag
    re_zero = np.abs(re) <= _REAL_TOL * papb
    with np.errstate(invalid="ignore"):
        flip = np.where(re_zero, im < 0.0, re < 0.0)
        mats[flip] *= -1.0
    return mats


def expand(frontier, gens):
    """All products frontier[i] @ gens[j], canonicalized.

    frontier: (n, 4) complex128, gens: (k, 4) complex128.
    Returns (n*k, 4) ordered with j fastest.
    """
    f = frontier.reshape(-1, 2, 2)
    g = gens.reshape(-1, 2, 2)
    prods = np.einsum("nab,kbc->nkac", f, g).reshape(-1, 4)
    return canonicalize(prods)


def displacements(mats):
    """Hyperbolic displacement of the base point (0, 1) for each row."""
    s = np.sum(np.abs(mats) ** 2, axis=1) / 2.0
    return np.arccosh(np.maximum(s, 1.0))
