"""Correctness checks on the program's outputs.

Each check is a computation made here, apart from the program, or a
property the method must have; none compares with a stored copy of an
earlier output.  Every check returns a list of problems, empty when the
output passes.
"""

from __future__ import annotations

import math
import random

import numpy as np

# collar lemma: a simple closed geodesic of length 1 has an embedded
# collar of half-width asinh(1 / sinh(1/2))
COLLAR_LEMMA_WIDTH = math.asinh(1.0 / math.sinh(0.5))


def entropy_bound(r):
    return 1.0 + math.log(2.0) / (2.0 * r)


# -- full run ---------------------------------------------------------


def _reciprocal(z):
    """1 / z rounded as CPython's complex division rounds it, so that the
    cell of every point agrees bit for bit with a scalar computation."""
    re, im = z.real, z.imag
    out = np.empty_like(z)
    wide = np.abs(re) >= np.abs(im)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = im / re
        denom = re + im * ratio
        r1 = 1.0 / denom + 1j * (-ratio / denom)
        ratio2 = re / im
        denom2 = re * ratio2 + im
        r2 = ratio2 / denom2 + 1j * (-1.0 / denom2)
    out[wide] = r1[wide]
    out[~wide] = r2[~wide]
    return out


def box_count(points, delta):
    """Occupied cells of side delta/sqrt(8) in the two stereographic charts
    (|z| <= 1 in z, the rest and infinity in 1/z), counted with NumPy."""
    infinite = np.array([p.infinite for p in points], dtype=bool)
    z = np.array([0j if p.infinite else p.z for p in points], dtype=np.complex128)
    outer = ~infinite & (np.abs(z) > 1.0)
    w = np.where(infinite, 0j, z)
    w[outer] = _reciprocal(z[outer])
    side = delta / (2.0 * math.sqrt(2.0))
    keys = np.stack([(infinite | outer).astype(np.float64),
                     np.floor(w.real / side), np.floor(w.imag / side)], axis=1)
    return len(np.unique(keys, axis=0))


def check_box_counts(samples, tables):
    problems = []
    for m, table in tables.items():
        for row in table.rows:
            ours = box_count(samples[m].points, row.delta)
            if ours != row.box_count:
                problems.append(f"m={m} delta={row.delta}: box_count {row.box_count}, "
                                f"NumPy count {ours}")
    return problems


def check_components_within_boxes(tables):
    """Two points in one chart cell of side delta/sqrt(8) lie within
    chordal distance delta, so components <= occupied cells."""
    return [f"m={m} delta={r.delta}: {r.components} components > {r.box_count} boxes"
            for m, table in tables.items() for r in table.rows
            if r.components > r.box_count]


def check_monotone(tables):
    """Components never fall as delta shrinks; box counts never fall from
    one level to the next, since the samples are nested."""
    problems = []
    levels = sorted(tables)
    for m in levels:
        rows = sorted(tables[m].rows, key=lambda r: -r.delta)
        for a, b in zip(rows, rows[1:]):
            if b.components < a.components:
                problems.append(f"m={m}: components fall from {a.components} at "
                                f"delta={a.delta} to {b.components} at delta={b.delta}")
    for lo, hi in zip(levels, levels[1:]):
        boxes = {r.delta: r.box_count for r in tables[lo].rows}
        for r in tables[hi].rows:
            if r.box_count < boxes.get(r.delta, 0):
                problems.append(f"delta={r.delta}: box_count falls from "
                                f"{boxes[r.delta]} at m={lo} to {r.box_count} at m={hi}")
    return problems


def kdtree_components(xyz, delta, max_pairs):
    """Components of the chordal delta-graph from a k-d tree and csgraph;
    None when the graph has more than `max_pairs` edges."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = len(xyz)
    if n == 0:
        return 0
    tree = cKDTree(xyz)
    if tree.count_neighbors(tree, delta) > 2 * max_pairs + n:
        return None
    pairs = tree.query_pairs(delta, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[0]


def check_components_kdtree(samples, tables, max_pairs=2_000_000):
    """Components against an independent count, finest scale first, up to
    the first scale whose graph exceeds `max_pairs` edges.  Returns
    (problems, number of scales compared)."""
    problems = []
    compared = 0
    for m, table in tables.items():
        for row in sorted(table.rows, key=lambda r: r.delta):
            ours = kdtree_components(samples[m].xyz, row.delta, max_pairs)
            if ours is None:
                break
            compared += 1
            if ours != row.components:
                problems.append(f"m={m} delta={row.delta}: {row.components} components, "
                                f"k-d tree count {ours}")
    return problems, compared


def check_estimates(report, tol=0.1):
    """Box and orbit estimates lie in [0, (1 + eps) (1 + ln2/(2r)) + tol]."""
    r = report["surface"]["r_achieved"]
    eps = report["qi_fit"]["epsilon_hat"]
    bound = (1.0 + eps) * entropy_bound(r)
    problems = []
    for level in report["levels"]:
        if not math.isclose(level["dim_bound"]["bound"], bound, rel_tol=1e-12):
            problems.append(f"m={level['m']}: bound {level['dim_bound']['bound']}, "
                            f"recomputed {bound}")
        for kind in ("box", "orbit"):
            est = level[kind]
            if est is not None and not 0.0 <= est["value"] <= bound + tol:
                problems.append(f"m={level['m']}: {kind} estimate {est['value']} "
                                f"outside [0, {bound + tol}]")
    return problems


# -- extension-group control ------------------------------------------


def normal_forms(words, presentation):
    """Normal form of each word, each one the product of its prefix's form
    and its last letter."""
    memo = {(): presentation.identity()}

    def form(w):
        f = memo.get(w)
        if f is None:
            f = memo[w] = presentation.multiply(form(w[:-1]), w[-1:])
        return f

    return [form(w) for w in words]


def check_ball(ball, radius, presentation):
    problems = []
    if ball.truncated:
        problems.append("control ball truncated")
    if len(ball) and float(np.max(ball.disps)) > radius:
        problems.append(f"displacement {float(np.max(ball.disps))} beyond {radius}")
    forms = set(normal_forms(ball.words, presentation))
    if len(forms) != len(ball):
        problems.append(f"{len(ball) - len(forms)} repeated normal forms")
    return problems


def mp_displacement(word, entries, dps=50):
    """Displacement of the base point under a word, in `dps`-digit
    arithmetic.  `entries[i]` is (a, b, c, d) of generator i + 1."""
    import mpmath

    with mpmath.workdps(dps):
        gens = {}
        for i, e in enumerate(entries):
            a, b, c, d = (mpmath.mpc(x) for x in e)
            det = a * d - b * c
            gens[i + 1] = (a, b, c, d)
            gens[-(i + 1)] = (d / det, -b / det, -c / det, a / det)
        m = (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1))
        for letter in word:
            a, b, c, d = m
            e, f, g, h = gens[letter]
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        a, b, c, d = m
        det = abs(a * d - b * c)
        s = (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) / (2 * det)
        return float(mpmath.acosh(max(s, mpmath.mpf(1))))


def check_displacements(ball, entries, seed, n=1000, tol=1e-8):
    """Displacements of `n` elements drawn with `seed`, recomputed from
    their words.  Returns (problems, largest difference)."""
    rng = random.Random(seed)
    picks = rng.sample(range(len(ball)), min(n, len(ball)))
    worst = 0.0
    problems = []
    for i in picks:
        diff = abs(mp_displacement(ball.words[i], entries) - float(ball.disps[i]))
        worst = max(worst, diff)
        if diff > tol:
            problems.append(f"element {ball.words[i]}: displacement off by {diff:.3g}")
    return problems[:5], worst


def check_one_component(counts):
    """The extension group is one-ended, so its limit set is connected."""
    return [] if all(c == 1 for c in counts) else [f"control components {counts}"]


def check_both_signs(sigmas):
    if len(sigmas) and int(np.max(sigmas)) > 0 and int(np.min(sigmas)) < 0:
        return []
    return ["the grading takes only one sign on the control ball"]


# -- strata grid ------------------------------------------------------


def check_collars(key, halfwidths):
    return [f"{key}: collar half-width {w} below the collar lemma's "
            f"{COLLAR_LEMMA_WIDTH}" for w in halfwidths if w < COLLAR_LEMMA_WIDTH]


def check_leaf_bound(key, table, r):
    return [f"{key}: {row.leaves_at_d} leaves at d={row.d} exceed {2.0 ** (1.0 + row.d / (2.0 * r))}"
            for row in table.rows if row.leaves_at_d > 2.0 ** (1.0 + row.d / (2.0 * r))]


def check_eps_decreasing(r_eps):
    """eps_hat strictly decreases along r; r is rounded to 9 digits so
    keys with the same collar radius count once."""
    by_r = {round(r, 9): eps for r, eps in r_eps}
    eps = [by_r[r] for r in sorted(by_r)]
    if all(a > b for a, b in zip(eps, eps[1:])):
        return []
    return [f"eps_hat along r is not strictly decreasing: {eps}"]


def check_one_bend(paths, endpoint_distance, tol=1e-9):
    """Right-angled one-bend paths obey cosh d = cosh a cosh b."""
    problems = []
    for p in paths:
        if len(p.lengths) != 2:
            continue
        a, b = p.lengths
        want = math.acosh(math.cosh(a) * math.cosh(b))
        got = endpoint_distance(p)
        if abs(got - want) > tol * max(1.0, want):
            problems.append(f"one-bend path {p.lengths}: distance {got}, expected {want}")
    return problems
