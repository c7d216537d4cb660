"""Shared builders for the test suite, cached per process, and oracles
of the array code."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np

from kleindim import _core, dimension, growth, moebius, words
from kleindim.dimension import DEDUP_TOL
from kleindim.errors import EnumerationBudgetExceeded
from kleindim.hnn import build_hnn, solve_stable_letter
from kleindim.moebius import MoebiusMap, SpherePoint
from kleindim.report import RunConfig, sample_stage, surface_stage
from kleindim.subgroup import BallResult, Words
from kleindim.surface import fn_surface_rep

# (genus, interior length) grid used by the structural suites; genus 1
# ignores the interior length, so its entries collapse to one rep
GRID = [(g, float(L)) for g in (1, 2, 3) for L in (3, 4, 5)]


def grid_key(g, L):
    return (1, 3.0) if g == 1 else (g, float(L))


@functools.lru_cache(maxsize=None)
def surface_for(g, L):
    return fn_surface_rep(g, L)


@functools.lru_cache(maxsize=None)
def hnn_for(g, L):
    return build_hnn(surface_for(g, L))


def axis_translation(p, q, length):
    """Translation by `length` along the geodesic from p to q."""
    f = moebius._frame_from_endpoints(SpherePoint(q), SpherePoint(p))
    return f.inverse() @ MoebiusMap.vertical_translation(length) @ f


@functools.lru_cache(maxsize=None)
def r_achieved_for(g, L):
    r = surface_stage(RunConfig(genus=g, interior_length=L))[1]["r_achieved"]
    assert math.isfinite(r) and r > 0
    return r


@functools.lru_cache(maxsize=None)
def torus_samples():
    """The cumulative samples of levels 0, 1 and 2 of
    `RunConfig(max_elements=10_000)`, as its run builds them."""
    config = RunConfig(max_elements=10_000)
    rep = hnn_for(config.genus, config.interior_length)
    samples, sample = [], None
    for m in range(config.level + 1):
        sample, _ = sample_stage(rep, m, config, sample)
        samples.append(sample)
    return tuple(samples)


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while fn ran, in
    bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def to_word(nf):
    """The word that a byte-encoded form (hnn.HnnPresentation,
    subgroup.FreeForms) spells."""
    return tuple(x - words._OFFSET for x in nf)


def truncation_words(rep, m):
    """The level-m truncation letters tau^k gamma_i tau^-k spelled in the
    extension's letters, k outer: the words whose matrices
    subgroup.truncated_generators lists."""
    tau = rep.presentation.stable_letter
    return [(tau,) * k + (i,) + (-tau,) * k
            for k in range(m + 1) for i in range(1, 2 * rep.surface.genus + 1)]


class BrittonTruncation:
    """Identity in the level-m truncation group by Britton normal forms of
    the extension: each truncation letter spelled in the extension's
    letters, then hnn.HnnPresentation.multiply.  The reference for
    subgroup.FreeForms, which must tell the same elements apart."""

    def __init__(self, rep, m):
        self.spell = {i + 1: w for i, w in enumerate(truncation_words(rep, m))}
        self.spell.update({-x: words.word_inverse(w) for x, w in list(self.spell.items())})
        self.presentation = rep.presentation

    def identity(self):
        return self.presentation.identity()

    def rewriting_bytes(self, letter):
        # a spelled letter may rewrite after any byte
        return bytes(range(256))

    def multiply(self, nf, word):
        for letter in word:
            nf = self.presentation.multiply(nf, self.spell[letter])
        return nf

    def spelled(self, word):
        """A word in truncation letters, spelled in the extension's."""
        return sum((self.spell[x] for x in word), ())


def sigma(word, stable_letter):
    """Exponent sum of the stable letter in a word: its grading."""
    n = 0
    for letter in word:
        if letter == stable_letter:
            n += 1
        elif letter == -stable_letter:
            n -= 1
    return n


def relator_word(rep):
    """The HNN relator a_1 tau W^-1 tau^-1 of an extension `rep`."""
    tau = rep.presentation.stable_letter
    w_inv = tuple(-x for x in reversed(rep.surface.boundary_word()))
    return (1,) + (tau,) + w_inv + (-tau,)


# -- scalar oracles of the limit-set sampling layer --------------------
#
# The one-object-at-a-time loops that dimension.sample_limit_set,
# merge_samples and _box_count replaced, each fixed point from
# _core.attracting_points on its row alone; the array code must
# reproduce them bit for bit.

def scalar_xyz(z):
    """Unit-sphere embedding of a complex number, or of infinity (None)."""
    if z is None:
        return np.array([0.0, 0.0, 1.0])
    n = abs(z) ** 2
    return np.array([2.0 * z.real, 2.0 * z.imag, n - 1.0]) / (n + 1.0)


def lexsort_first_by_key(xyz):
    """dimension._first_by_key as it numbered keys before it built them
    one axis at a time: both lattices' keys as one (2n, 3) float array,
    cast to int64, lexsorted as rows and compared row against row."""
    n = len(xyz)
    if n == 0:
        return np.zeros(0, dtype=bool)
    scaled = xyz / DEDUP_TOL
    keys = np.concatenate([np.rint(scaled), np.rint(scaled + 0.5)]).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    ids = np.empty(2 * n, dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1))))
    k0, k1 = ids[:n], ids[n:]
    owners = np.bincount(np.concatenate([k0, k1[k1 != k0]]))
    shared = (owners[k0] > 1) | (owners[k1] > 1)
    keep = ~shared
    taken = bytearray(len(owners))
    for i, a, b in zip(np.flatnonzero(shared).tolist(), k0[shared].tolist(),
                       k1[shared].tolist()):
        if not (taken[a] or taken[b]):
            taken[a] = taken[b] = 1
            keep[i] = True
    return keep


def _dedup_keys(xyz):
    return (tuple(np.rint(xyz / DEDUP_TOL).astype(np.int64)),
            tuple(np.rint(xyz / DEDUP_TOL + 0.5).astype(np.int64)))


def scalar_sample_limit_set(ball, cap=100_000):
    ordered = sorted(range(len(ball.words)), key=lambda i: -len(ball.words[i]))
    pts, coords, seen, skipped = [], [], {}, 0
    for i in ordered:
        if len(pts) >= cap:
            break
        lox, z, infinite = (v[0] for v in _core.attracting_points(ball.mats[i:i + 1]))
        if not lox:
            skipped += 1
            continue
        att = SpherePoint(complex(z), infinite=infinite)
        xyz = scalar_xyz(None if att.infinite else att.z)
        key0, key1 = _dedup_keys(xyz)
        if key0 in seen or key1 in seen:
            continue
        seen[key0] = seen[key1] = True
        pts.append(att)
        coords.append(xyz)
    xyz = np.array(coords) if coords else np.empty((0, 3))
    return SimpleNamespace(points=pts, xyz=xyz, count=len(pts), skipped=skipped)


def scalar_merge_samples(a, b):
    pts, coords, seen = [], [], {}
    for sample in (a, b):
        for p, xyz in zip(sample.points, sample.xyz):
            key0, key1 = _dedup_keys(xyz)
            if key0 in seen or key1 in seen:
                continue
            seen[key0] = seen[key1] = True
            pts.append(p)
            coords.append(xyz)
    xyz = np.array(coords) if coords else np.empty((0, 3))
    return SimpleNamespace(points=pts, xyz=xyz, count=len(pts),
                           skipped=a.skipped + b.skipped)


def scalar_box_count(points, delta):
    side = delta / (2.0 * math.sqrt(2.0))
    cells = set()
    for p in points:
        if p.infinite:
            z, chart = 0.0 + 0.0j, 1
        elif abs(p.z) <= 1.0:
            z, chart = p.z, 0
        else:
            z, chart = 1.0 / p.z, 1
        cells.add((chart, math.floor(z.real / side), math.floor(z.imag / side)))
    return len(cells)


def assert_same_sample(got, want):
    """Equal counts, `skipped`, xyz bytes (signs of zeros included) and
    points, against an oracle's sample."""
    assert got.count == want.count
    assert got.skipped == want.skipped
    assert got.xyz.shape == want.xyz.shape
    assert got.xyz.tobytes() == want.xyz.tobytes()
    want_z = np.array([p.z for p in want.points], dtype=np.complex128)
    assert got.z.tobytes() == want_z.tobytes()
    assert got.infinite.tolist() == [p.infinite for p in want.points]
    assert [(p.z, p.infinite) for p in got.points] == [(p.z, p.infinite) for p in want.points]


# -- ball words ---------------------------------------------------------

def words_of(spelled, letters):
    """The subgroup.Words of a list of reduced words in BFS order (word
    length, then the columns of `letters` letter by letter), built from a
    dict of their prefixes: a prefix that is not in the list is a band
    row."""
    column = {x: j for j, x in enumerate(letters)}
    prefixes = {w[:k] for w in spelled for k in range(len(w))} | set(spelled) | {()}
    order = sorted(prefixes, key=lambda w: (len(w), [column[x] for x in w]))
    row = {w: t for t, w in enumerate(order)}
    rows = np.array([row[w] for w in spelled], dtype=np.int32)
    assert np.all(np.diff(rows) > 0), "not in BFS order"
    return Words(parents=np.array([row[w[:-1]] if w else -1 for w in order], dtype=np.int32),
                 columns=np.array([column[w[-1]] if w else 0 for w in order], dtype=np.uint8),
                 rows=rows, lengths=np.array([len(w) for w in spelled], dtype=np.int32),
                 letters=tuple(letters))


def scalar_missing_inverses(ball):
    """(count, least displacement or None) of the words of `ball` whose
    inverse word it lacks, by a set of its words: the loop that
    growth._lift_ball's trie walk replaced."""
    spelled = list(ball.words)
    present = set(spelled)
    missing = [disp for word, disp in zip(spelled, ball.disps.tolist())
               if words.word_inverse(word) not in present]
    return len(missing), min(missing, default=None)


def search_missing_inverses(ball):
    """(count, least displacement or None) of the words of `ball` whose
    inverse word it lacks, by the trie walk growth._lift_ball ran before
    its child table: one searchsorted over the trie's ascending keys
    parent * 2n + column per word-length step."""
    w = ball.words
    ncols = len(w.letters)
    keys = w.parents.astype(np.int64) * ncols + w.columns
    inverse = (w.columns.astype(np.int64) + ncols // 2) % ncols
    element = np.zeros(len(keys), dtype=bool)
    element[w.rows] = True
    up = w.rows.astype(np.int64)
    down = np.zeros(len(up), dtype=np.int64)
    found = np.ones(len(up), dtype=bool)
    for s in range(int(w.lengths.max(initial=0))):
        walking = np.flatnonzero(found & (w.lengths > s))
        key = down[walking] * ncols + inverse[up[walking]]
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        down[walking] = at
        found[walking] = keys[at] == key
        up[walking] = w.parents[up[walking]]
    missing = np.flatnonzero(~(found & element[down]))
    return len(missing), float(ball.disps[missing].min()) if len(missing) else None


# -- reference orbit ball -----------------------------------------------
#
# subgroup.enumerate_ball as its docstring and BallResult's describe it,
# one row at a time: every reduced word's product is formed, in (word
# length, lexicographic) order, with no sieve and no passes, a row's
# children by _core.expand and _core.fix_sign of that row alone.  Its rows
# must come out as the enumeration's, field for field.

def reference_ball(gens, limit, sigma_values=None, presentation=None):
    """The ball of `enumerate_ball(gens, limit, sigma_values,
    presentation)`.  Column j < n is generator j, letter j + 1; column
    n + j its inverse, letter -(j + 1).  A product is stored when its
    entries are finite (else a numeric drop), its displacement is within
    the band max_displacement + 1 and its element is new (else a
    duplicate, a collision when its matrix is more than 1e-6 from the
    stored one's up to sign).  The search stops at the element that
    reaches either cap, `max_count` stored elements within
    max_displacement or 4 `max_count` stored rows; nothing after it is
    counted.  Its words are a list of tuples, which the enumeration's
    `Words` must equal."""
    n = len(gens)
    garr = np.array([g.entries() for g in gens] + [g.inverse().entries() for g in gens],
                    dtype=np.complex128)
    letters = [j + 1 for j in range(n)] + [-(j + 1) for j in range(n)]
    sig = list(sigma_values or [0] * n)
    sig += [-x for x in sig]
    cap = math.inf if limit.max_displacement is None else limit.max_displacement
    band = cap + 1.0
    max_count = math.inf if limit.max_count is None else limit.max_count
    max_len = math.inf if limit.max_word_len is None else limit.max_word_len

    # stored rows: matrix, displacement, grading, word
    mats, disps, sigmas, spelled = [np.array([1, 0, 0, 1], dtype=np.complex128)], [0.0], [0], [()]
    identity = presentation.identity() if presentation else ()
    forms, key = {identity: 0}, [identity]  # element of each form, form of each row
    in_ball, drops, collisions = 1, 0, 0
    truncated = in_ball >= max_count
    layer, depth = [0], 0
    while layer and depth < max_len and not truncated:
        depth += 1
        new_layer = []
        for i in layer:
            children = _core.fix_sign(_core.expand(np.repeat(mats[i][None], 2 * n, axis=0),
                                                   garr))
            disp_of = _core.displacements(children)
            for j in range(2 * n):
                if spelled[i] and letters[j] == -spelled[i][-1]:
                    continue  # not a reduced word
                row, disp = children[j], float(disp_of[j])
                if not np.isfinite(row).all():
                    drops += 1
                    continue
                if disp > band:
                    continue
                word = spelled[i] + (letters[j],)
                form = presentation.multiply(key[i], (letters[j],)) if presentation else word
                if form in forms:
                    hit = mats[forms[form]]
                    drift = min(_core.cabs(hit - row).max(), _core.cabs(hit + row).max())
                    collisions += int(drift > 1e-6)
                    continue
                forms[form] = len(mats)
                key.append(form)
                mats.append(row)
                disps.append(disp)
                sigmas.append(sigmas[i] + sig[j])
                spelled.append(word)
                new_layer.append(len(mats) - 1)
                in_ball += disp <= cap
                if in_ball >= max_count or len(mats) >= 4 * max_count:
                    truncated = True
                    break
            if truncated:
                break
        layer = new_layer

    if truncated or (depth >= max_len and layer):
        # the least displacement not expanded, within the cap
        radius = min(min(disps[i] for i in layer), cap)
        complete_radius = radius if math.isfinite(radius) else 0.0
    else:
        complete_radius = cap
    keep = [i for i in range(len(mats)) if i == 0 or disps[i] <= cap]
    return BallResult(
        mats=np.array([mats[i] for i in keep]).reshape(-1, 4),
        words=[spelled[i] for i in keep],
        disps=np.array([disps[i] for i in keep]),
        sigmas=np.array([sigmas[i] for i in keep], dtype=np.int64),
        complete_radius=complete_radius,
        collisions=collisions,
        truncated=truncated,
        skipped=len(mats) - len(keep),
        numeric_drops=drops,
    )


# -- oracles of the strata tree ----------------------------------------
#
# The scalar code that growth._select_lifts, build_strata_tree and
# leaf_count_check replaced: one lift, node or chain mask at a time, each
# product one row of _core.compose and each image endpoint in NumPy's
# complex arithmetic on one row.  The array code must give the same
# lifts, nodes and rows, in the same order, with the same bytes.

@dataclasses.dataclass
class StrataNode:
    """One row of a strata tree, as the scalar walk made it."""

    parent: int  # the parent's row; -1 for the root
    depth: int
    d: float  # cumulative distance from the base point to the geodesic
    gap: float  # separation from the parent's entry geodesic
    proj: tuple  # projected entry geodesic, endpoints in base coords (None = inf)


def strata_tree(nodes, radius=5.0, lift_balls=None):
    """The growth.StrataTree whose rows are `nodes`, nodes[0] the root
    (StrataNode; proj () at the root, an endpoint 0 in the columns where
    it is None)."""
    ends = [[0.0, 0.0]] + [[0.0 if e is None else e for e in nd.proj] for nd in nodes[1:]]
    finite = [[False, False]] + [[e is not None for e in nd.proj] for nd in nodes[1:]]
    return growth.StrataTree(
        parent=np.array([nd.parent for nd in nodes], dtype=np.int64),
        depth=np.array([nd.depth for nd in nodes], dtype=np.int64),
        d=np.array([nd.d for nd in nodes], dtype=float),
        gap=np.array([nd.gap for nd in nodes], dtype=float),
        ends=np.array(ends, dtype=float), finite=np.array(finite, dtype=bool),
        radius=radius, lift_balls={} if lift_balls is None else lift_balls)


def tree_rows(tree):
    """The rows of a growth.StrataTree as StrataNode records."""
    return [StrataNode(parent=p, depth=depth, d=d, gap=gap,
                       proj=() if depth == 0 else tuple(e if ok else None
                                                        for e, ok in zip(ends, finite)))
            for p, depth, d, gap, ends, finite in zip(
                tree.parent.tolist(), tree.depth.tolist(), tree.d.tolist(),
                tree.gap.tolist(), tree.ends.tolist(), tree.finite.tolist())]


def base_distance(e1, e2):
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

def image_endpoint(m, z):
    """Image of a real endpoint (None = inf) under a real Moebius map, in
    NumPy's complex arithmetic on the map's entries, as
    growth._image_endpoints rounds it."""
    a, b, c, d = (np.complex128(x) for x in m.entries())
    with np.errstate(all="ignore"):
        if z is None:
            return None if abs(c) < 1e-14 * abs(a) else float((a / c).real)
        den = c * z + d
        if abs(den) < 1e-12 * (abs(a * z) + abs(b) + 1.0):
            return None
        return float(((a * z + b) / den).real)


def compose_maps(*maps):
    """The product of `maps`, left to right, a step at a time, each step
    one row of _core.compose."""
    row = np.array([maps[0].entries()])
    for m in maps[1:]:
        row = _core.compose(row, np.array([m.entries()]))
    return MoebiusMap(*row[0].tolist(), _normalized=True)


def vertical_gap(u, v):
    """Distance from the vertical axis {0, inf} to the geodesic with real
    endpoints u, v (None = inf); None when they share the axis or an
    endpoint."""
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


def endpoint_key(x):
    if x is None or abs(x) > 1e8:
        return (1, 0)
    q = growth._ENDPOINT_QUANT * (1.0 + abs(x))
    return (0, round(float(x) / q))


def geodesic_key(e1, e2):
    a, b = endpoint_key(e1), endpoint_key(e2)
    return (a, b) if a <= b else (b, a)


def lift_rows(lifts):
    """The rows of a growth._Lifts, each with its kind, gap, endpoints (None
    = inf) and its elements m and w as maps."""
    ends = [tuple(x if ok else None for x, ok in zip(row, oks))
            for row, oks in zip(lifts.ends.tolist(), lifts.finite.tolist())]
    return [SimpleNamespace(kind=kind, gap=gap, ends=end, m=MoebiusMap(*m, _normalized=True),
                            w=MoebiusMap(*w, _normalized=True))
            for kind, gap, end, m, w in zip(lifts.kind.tolist(), lifts.gap.tolist(), ends,
                                            lifts.m.tolist(), lifts.w.tolist())]


def as_lifts(rows):
    """A growth._Lifts of rows with kind, gap, ends, m and w."""
    return growth._Lifts(
        m=np.array([r.m.entries() for r in rows], dtype=np.complex128).reshape(-1, 4),
        w=np.array([r.w.entries() for r in rows], dtype=np.complex128).reshape(-1, 4),
        kind=np.array([r.kind for r in rows], dtype=str),
        gap=np.array([r.gap for r in rows], dtype=float),
        ends=np.array([[0.0 if e is None else e for e in r.ends] for r in rows],
                      dtype=float).reshape(-1, 2),
        finite=np.array([[e is not None for e in r.ends] for r in rows],
                        dtype=bool).reshape(-1, 2))


def axis_pairs(axes):
    """Axes as growth._entry_frame gives them, kind -> (ends, finite)
    columns, as kind -> (endpoint, endpoint), None for inf."""
    return {kind: tuple(float(e) if f else None for e, f in zip(*axis))
            for kind, axis in axes.items()}


def axis_columns(pairs):
    """The axes of axis_pairs back as (ends, finite) columns."""
    return {kind: (np.array([0.0 if e is None else e for e in pair]),
                   np.array([e is not None for e in pair]))
            for kind, pair in pairs.items()}


def scalar_lift_candidates(mats, axes, radius, frame_inv, window):
    """growth._select_lifts as the per-row loop over the whole ball that
    ran before the array sieve, with the axial window as a parameter."""
    lo, hi = window
    out = []
    seen = set()
    for entries in mats.tolist():
        m = MoebiusMap(*entries, _normalized=True)
        for kind, (e1, e2) in axis_pairs(axes).items():
            u = image_endpoint(m, e1)
            v = image_endpoint(m, e2)
            gap = vertical_gap(u, v)
            if gap is None or gap > radius:
                continue
            if u is not None and v is not None:
                axial = 0.5 * math.log(abs(u * v)) if abs(u * v) > 0 else 0.0
                if not lo <= axial < hi:
                    continue
            key = geodesic_key(u, v)
            if key in seen:
                continue
            seen.add(key)
            ends = (image_endpoint(frame_inv, u), image_endpoint(frame_inv, v))
            out.append(SimpleNamespace(m=m, w=compose_maps(frame_inv, m, frame_inv.inverse()),
                                       kind=kind, gap=gap, ends=ends))
    return as_lifts(out)


def scalar_strata_tree(rep, radius, max_depth=4, max_elements=200_000):
    """growth.build_strata_tree as the depth-first walk it ran one node at
    a time: a stack of (parent, depth, lift, d), frames by compose_maps
    and the depth-1 dedup as each node is popped."""
    surface = rep.surface
    t_real = solve_stable_letter(surface, rotation=0.0)
    cands, lift_balls = {}, {}
    for kind, entry in (("gamma", surface.gamma_matrix()),
                        ("boundary", surface.boundary_matrix())):
        lifts, lift_balls[kind] = growth._lift_candidates(surface, entry, radius,
                                                          max_elements)
        cands[kind] = lift_rows(lifts)
    gaps = {kind: np.array([c.gap for c in cs], dtype=float) for kind, cs in cands.items()}

    nodes = [StrataNode(parent=-1, depth=0, d=0.0, gap=0.0, proj=())]
    frames = [MoebiusMap.identity()]
    stack = []
    for c in cands["gamma"] + cands["boundary"]:
        d = base_distance(*c.ends)
        if d <= radius:
            stack.append((0, 1, c, d))

    seen_depth1 = set()
    while stack:
        parent_idx, depth, cand, d = stack.pop()
        parent_frame = frames[parent_idx]
        proj = tuple(image_endpoint(parent_frame, e) for e in cand.ends)
        if depth == 1:
            key = geodesic_key(*proj)
            if key in seen_depth1:
                continue
            seen_depth1.add(key)
        if cand.kind == "gamma":
            frame = compose_maps(parent_frame, cand.w, t_real)
            child_entry = "boundary"
        else:
            frame = compose_maps(parent_frame, cand.w, t_real.inverse())
            child_entry = "gamma"
        idx = len(nodes)
        nodes.append(StrataNode(parent=parent_idx, depth=depth, d=d,
                                gap=d if depth == 1 else cand.gap, proj=proj))
        frames.append(frame)
        if len(nodes) > growth.MAX_NODES:
            raise EnumerationBudgetExceeded(
                f"strata tree exceeded {growth.MAX_NODES} nodes")
        if depth >= max_depth:
            continue
        d_child = d + gaps[child_entry]
        children = cands[child_entry]
        for i in np.flatnonzero((gaps[child_entry] >= growth.GAP_TOL)
                                & (d_child <= radius)).tolist():
            stack.append((idx, depth + 1, children[i], float(d_child[i])))
    return strata_tree(nodes, radius, lift_balls)


# -- oracle of the leaf-count table -------------------------------------
#
# growth.leaf_count_check as it was before it kept one chain mask per
# depth: one mask per node, read through the node's parent index, n^2
# bytes in all.  The tables must agree row for row.

def per_node_leaf_table(tree, r):
    nodes = tree_rows(tree)
    n = len(nodes)
    if n == 1:
        return growth.LeafTable(rows=[growth.LeafRow(d=0.0, leaves_at_d=1, bound=2.0)])
    z0, ends = growth._finite_chart(
        np.array([[0.0 if e is None else e for e in nd.proj] for nd in nodes[1:]]),
        np.array([[e is not None for e in nd.proj] for nd in nodes[1:]]))
    centers = np.array([(a + b) / 2.0 for a, b in ends.tolist()])
    radii = np.array([abs(a - b) / 2.0 for a, b in ends.tolist()])
    e1 = np.array([a for a, _ in ends.tolist()])
    e2 = np.array([b for _, b in ends.tolist()])
    z_in = np.abs(z0 - centers) < radii
    counts = np.ones(n - 1, dtype=np.int64)
    chain_ok = [None] * n
    chain_ok[0] = np.ones(n - 1, dtype=bool)
    for m in range(1, n):
        c, rad = centers[m - 1], radii[m - 1]
        in1 = (e1 - c) ** 2 < rad * rad
        in2 = (e2 - c) ** 2 < rad * rad
        sep = ~in1 & ~in2 if z_in[m - 1] else in1 & in2
        sep[m - 1] = False
        chain_ok[m] = chain_ok[nodes[m].parent] & sep
        counts += chain_ok[m]
    rows = [growth.LeafRow(d=0.0, leaves_at_d=1, bound=2.0)]
    for m in sorted(range(1, n), key=lambda m: nodes[m].d):
        d = nodes[m].d
        rows.append(growth.LeafRow(d=d, leaves_at_d=int(counts[m - 1]),
                                   bound=2.0 ** (1.0 + d / (2.0 * r))))
    return growth.LeafTable(rows=rows)


# -- components ---------------------------------------------------------

def cell_of(order, counts):
    """The cube index of each point, from dimension._cell_pairs' points
    in cube order and points per cube."""
    out = np.empty(len(order), dtype=np.int64)
    out[order] = np.repeat(np.arange(len(counts)), counts)
    return out


def offset_cell_pairs(xyz, side):
    """The neighbouring cube pairs as dimension._cell_pairs found them
    before its row search, one search per each of the 62 offsets in
    {-2..2}^3 that are lexicographically positive: (first, second) cube
    indices, cubes in key order."""
    keys, strides = dimension._cube_keys(xyz, side)
    occupied = np.unique(keys)
    first, second = [], []
    for offset in itertools.product(range(-2, 3), repeat=3):
        if offset <= (0, 0, 0):
            continue
        target = occupied + sum(a * s for a, s in zip(offset, strides))
        hit = np.minimum(np.searchsorted(occupied, target), len(occupied) - 1)
        found = occupied[hit] == target
        first.append(np.flatnonzero(found))
        second.append(hit[found])
    return np.concatenate(first), np.concatenate(second)


class UnionFind:
    """The scalar union-find that dimension._join replaced: find with
    path compression, union hooking the larger root under the smaller,
    so every class's root is its least element."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def roots(self):
        return np.array([self.find(i) for i in range(len(self.parent))], dtype=np.int64)
