"""Unit tests for limit-set sampling and dimension estimators."""

import cmath
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import helpers
from kleindim import _core, dimension
from kleindim.dimension import (LimitSample, ScaleRow, ScaleTable, _box_count, _dots,
                                box_dimension, component_analysis, component_table,
                                critical_exponent,
                                default_scales, merge_samples,
                                sample_from_points, sample_limit_set)
from kleindim.errors import DegenerateScaleWindow, IncompleteBall
from kleindim.moebius import INF, MoebiusMap, SpherePoint
from kleindim.report import RunConfig, sample_stage, table_csv, truncation_ball
from kleindim.subgroup import BallLimit, enumerate_ball


def _arc_sample(n):
    pts = [SpherePoint(cmath.exp(1j * math.pi * k / (n - 1))) for k in range(n)]
    return sample_from_points(pts)


class TestSampleLimitSet:
    def test_cyclic_group_two_points(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_word_len=3))
        sample = sample_limit_set(ball)
        assert sample.count == 2

    def test_fuchsian_sample_on_real_circle(self):
        rep = helpers.surface_for(1, 3.0)
        ball = enumerate_ball(rep.generators, BallLimit(max_word_len=5))
        sample = sample_limit_set(ball)
        assert sample.count > 100
        for p in sample.points:
            if not p.infinite:
                assert abs(p.z.imag) <= 1e-9

    def test_mixed_sample_leaves_the_plane(self):
        rep = helpers.hnn_for(1, 3.0)
        ball = enumerate_ball(rep.generators, BallLimit(max_word_len=3))
        sample = sample_limit_set(ball)
        assert any((not p.infinite) and abs(p.z.imag) > 1e-3
                   for p in sample.points)

    def test_dedup(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_word_len=5))
        assert sample_limit_set(ball).count == 2

    def test_merge_samples_dedup_union(self):
        a = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        b = sample_from_points([SpherePoint(1 + 0j), SpherePoint(2 + 0j)])
        merged = merge_samples(a, b)
        assert merged.count == 3
        assert len(merged.xyz) == 3

    def test_cap_respected(self):
        rep = helpers.surface_for(1, 3.0)
        ball = enumerate_ball(rep.generators, BallLimit(max_word_len=5))
        assert sample_limit_set(ball, cap=50).count == 50


class TestFirstByKey:
    """The dedup rule's keys, numbered by a sort of their hashes, against
    the (2n, 3) lexsort it replaced (`helpers.lexsort_first_by_key`)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lexsort_oracle(self, seed):
        # coordinates a few key steps apart at offsets of 0, 1/4, 1/2 and
        # 3/4 of a step, so keys repeat within a lattice and across both
        rng = np.random.default_rng(seed)
        steps = rng.integers(-3, 3, size=(5_000, 3)) + rng.choice([0.0, 0.25, 0.5, 0.75],
                                                                   size=(5_000, 3))
        xyz = steps * dimension.DEDUP_TOL
        got = dimension._first_by_key(xyz)
        assert got.tolist() == helpers.lexsort_first_by_key(xyz).tolist()
        assert 0 < np.count_nonzero(got) < len(xyz)
        first = {tuple(k) for k in np.rint(xyz / dimension.DEDUP_TOL).astype(np.int64)}
        second = {tuple(k) for k in np.rint(xyz / dimension.DEDUP_TOL + 0.5).astype(np.int64)}
        assert first & second

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_colliding_hashes_fall_back_to_the_lexsort(self, monkeypatch, seed):
        # with one hash for every key, each run of equal hashes holds many
        # keys, so the keys are numbered by their lexsort
        rng = np.random.default_rng(seed)
        steps = rng.integers(-3, 3, size=(5_000, 3)) + rng.choice([0.0, 0.25, 0.5, 0.75],
                                                                   size=(5_000, 3))
        xyz = steps * dimension.DEDUP_TOL
        checked = []
        check = dimension._one_key_per_run

        def recorded(*args):
            checked.append(check(*args))
            return checked[-1]

        monkeypatch.setattr(dimension, "_one_key_per_run", recorded)
        want = helpers.lexsort_first_by_key(xyz)
        assert dimension._first_by_key(xyz).tolist() == want.tolist()
        monkeypatch.setattr(dimension, "_mix", lambda h, column: np.zeros_like(h))
        assert dimension._first_by_key(xyz).tolist() == want.tolist()
        assert checked == [True, False]

    def test_peak_is_bounded(self):
        # 300,000 points on the sphere: 55.8 MB traced with the (2n, 3)
        # float and ranked copies, 29.4 MB with one key column per axis,
        # 15.0 MB numbering the keys by a sort of their hashes
        rng = np.random.default_rng(0)
        xyz = rng.normal(size=(300_000, 3))
        xyz /= np.linalg.norm(xyz, axis=1)[:, None]
        keep, peak = helpers.traced_peak(lambda: dimension._first_by_key(xyz))
        assert keep.all()
        assert peak <= 20e6


class TestBoxCounting:
    def test_counts_non_increasing_in_delta(self):
        sample = _arc_sample(500)
        scales = sorted(default_scales(), reverse=True)
        counts = [_box_count(sample, d) for d in scales]
        assert counts == sorted(counts)

    def test_two_points_dimension_zero(self):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        est, _ = box_dimension(sample)
        assert abs(est.value) <= 0.02

    def test_arc_dimension_one(self):
        est, _ = box_dimension(_arc_sample(4000))
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_infinity_handled(self):
        sample = sample_from_points([INF, SpherePoint(0j), SpherePoint(5 + 0j)])
        assert _box_count(sample, 0.5) >= 2

    def test_degenerate_window_raises(self):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        with pytest.raises(DegenerateScaleWindow):
            box_dimension(sample, scales=[1.0, 0.5, 0.25])

    def test_table_rows_match_scales(self):
        scales = default_scales(6)
        _, table = box_dimension(_arc_sample(1000), scales=scales)
        assert [r.delta for r in table.rows] == sorted(scales, reverse=True)

    def test_counts_match_scalar_count_at_every_scale(self):
        # one chart for all scales; points with |z| exactly 1 (1, -1, i,
        # -i and 0.6 + 0.8i) lie in the inner chart, next to inner points
        # and outer ones in the same cells
        on_circle = [1 + 0j, -1 + 0j, 1j, -1j, complex(0.6, 0.8)]
        assert all(abs(z) == 1.0 for z in on_circle)
        pts = [INF] + [SpherePoint(z * f) for z in on_circle for f in (1.0, 0.999, 1.001)]
        rng = np.random.default_rng(0)
        pts += [SpherePoint(complex(*xy)) for xy in rng.normal(0.0, 1.5, (300, 2))]
        for sample in (sample_from_points(pts), _arc_sample(700)) + helpers.torus_samples():
            scales = default_scales(12)
            _, table = box_dimension(sample, scales, with_components=False)
            want = [helpers.scalar_box_count(sample.points, d) for d in scales]
            assert [r.box_count for r in table.rows] == want
            assert dimension._box_counts(sample, scales[::-1]) == want[::-1]


class TestCriticalExponent:
    def test_cyclic_group_exponent_zero(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_displacement=40.0))
        est = critical_exponent(ball, [20.0, 25.0, 30.0, 35.0, 40.0])
        assert abs(est.value) <= 0.05

    def test_incomplete_ball_rejected(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_displacement=10.0))
        with pytest.raises(IncompleteBall):
            critical_exponent(ball, [5.0, 10.0, 15.0])

    def test_positive_for_free_group(self):
        rep = helpers.surface_for(1, 3.0)
        ball = enumerate_ball(rep.generators,
                              BallLimit(max_displacement=10.0, max_count=500_000))
        est = critical_exponent(ball, [6.0, 7.0, 8.0, 9.0, 10.0])
        assert 0.0 < est.value < 1.0

    @pytest.mark.parametrize("xs", [[2.0] * 5, [1.0, 2.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0, 5.0]],
                             ids=["all-equal", "one-repeat", "decreasing"])
    def test_window_needs_increasing_abscissae(self, xs):
        # five equal radii come from an orbit ball complete to 2.0; they
        # used to divide by zero in the local slopes
        with pytest.raises(DegenerateScaleWindow):
            dimension._window_fit(xs, [1, 2, 4, 8, 16], prefer_tail=True, fallback=4)

    def test_repeated_radius_is_degenerate(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_displacement=2.0))
        with pytest.raises(DegenerateScaleWindow):
            critical_exponent(ball, [2.0] * 5)


class TestComponentAnalysis:
    def test_two_far_points(self):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        count, diam = component_analysis(sample, 0.5)
        assert count == 2
        assert diam == 0.0

    def test_two_close_points(self):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(0.01 + 0j)])
        count, diam = component_analysis(sample, 0.5)
        assert count == 1
        assert diam > 0.0

    def test_dense_circle_is_one_component(self):
        n = 800
        pts = [SpherePoint(cmath.exp(2j * math.pi * k / n)) for k in range(n)]
        count, diam = component_analysis(sample_from_points(pts), 0.05)
        assert count == 1
        assert diam == pytest.approx(2.0, abs=0.01)

    def test_fragments_below_minimal_gap(self):
        sample = _arc_sample(100)
        count, _ = component_analysis(sample, 1e-6)
        assert count == 100

    def test_empty_sample(self):
        assert component_analysis(sample_from_points([]), 0.1) == (0, 0.0)


def _brute_dots(xyz, k):
    """Dot products of point k with every point, in component_analysis's
    documented form (x x' + y y') + z z', one row at a time."""
    x, y, z = xyz.T
    return (x[k] * x + y[k] * y) + z[k] * z


def _brute_diameter(xyz):
    return math.sqrt(max(2.0 - 2.0 * min(float(_brute_dots(xyz, k).min())
                                         for k in range(len(xyz))), 0.0))


def _brute_labels(xyz, delta):
    """All-pairs reference: the components of the graph joining every pair
    with a . b >= 1 - delta^2 / 2, as (count, label of each point)."""
    n = len(xyz)
    edges = [np.flatnonzero(_brute_dots(xyz, k) >= 1.0 - delta * delta / 2.0)
             for k in range(n)]
    i = np.repeat(np.arange(n), [len(e) for e in edges])
    j = np.concatenate(edges)
    return connected_components(coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)),
                                directed=False)


def _brute_components(xyz, delta):
    """All-pairs reference: the component count and the exact diameter of
    every component."""
    if len(xyz) == 0:
        return 0, 0.0
    count, labels = _brute_labels(xyz, delta)
    max_diam = 0.0
    for c in range(count):
        pts = xyz[np.flatnonzero(labels == c)]
        if len(pts) > 1:
            max_diam = max(max_diam, _brute_diameter(pts))
    return count, max_diam


def _clustered_points(rng):
    """Gaussian clusters in the plane, one of them around infinity (the
    point itself included), so cells hold from one to hundreds of points."""
    pts = [INF]
    for k in range(6):
        centre = complex(*rng.uniform(-3.0, 3.0, 2))
        spread = 0.02 * 3.0 ** (k % 3)
        for dx, dy in rng.normal(0.0, spread, (90, 2)):
            pts.append(SpherePoint(centre + complex(dx, dy)))
    for dx, dy in rng.normal(0.0, 0.01, (40, 2)):
        pts.append(SpherePoint(1.0 / complex(dx, dy)))
    return sample_from_points(pts)


_FACING_DELTA = 0.05


def _facing_cells(gap, rng, n=40):
    """Two cells of n points each, mirror images across the plane x = 0,
    whose closest pair (-s, y0, z0), (s, y0, z0) lies at distance
    2 s = _FACING_DELTA + gap, the cells' first points.  Every other point
    of a cell lies at least 1e-3 further out along x, so the pair's
    distance is also the gap between the cells' bounding boxes.  At
    delta = _FACING_DELTA each cell is one cube of the grid."""
    s, y0 = (_FACING_DELTA + gap) / 2.0, 0.246
    x = -s - np.concatenate(([0.0], rng.uniform(1e-3, 3e-3, n - 1)))
    y = y0 + np.concatenate(([0.0], rng.uniform(0.0, 3e-3, n - 1)))
    z = np.sqrt(1.0 - x * x - y * y)
    xyz = np.concatenate([np.stack([x, y, z], axis=1), np.stack([-x, y, z], axis=1)])
    # stereographic preimages, so z and xyz describe the same points
    return LimitSample(z=(xyz[:, 0] + 1j * xyz[:, 1]) / (1.0 - xyz[:, 2]),
                       infinite=np.zeros(len(xyz), dtype=bool), xyz=xyz)


def _joined(a, b):
    return LimitSample(z=np.concatenate([a.z, b.z]),
                       infinite=np.concatenate([a.infinite, b.infinite]),
                       xyz=np.concatenate([a.xyz, b.xyz]))


def _cell_boundary_points(rng, delta):
    """Unit vectors with x and y on multiples of the cell side delta/sqrt(3):
    a random subset of a square grid, each point on a cell boundary."""
    side = delta / math.sqrt(3.0)
    grid = [(k * side, m * side) for k in range(-12, 13) for m in range(-12, 13)]
    keep = rng.random(len(grid)) < 0.55
    xyz = np.array([(x, y, math.sqrt(1.0 - x * x - y * y))
                    for (x, y), kept in zip(grid, keep) if kept])
    # stereographic preimages, so z and xyz describe the same points; the
    # grid's centre (0, 0, 1) is infinity
    infinite = xyz[:, 2] == 1.0
    z = np.zeros(len(xyz), dtype=np.complex128)
    z[~infinite] = (xyz[~infinite, 0] + 1j * xyz[~infinite, 1]) / (1.0 - xyz[~infinite, 2])
    return LimitSample(z=z, infinite=infinite, xyz=xyz)


def _wide_key_sample(seed, delta):
    """`_cell_boundary_points` at delta, joined with 0, 1 and -i.  The
    three points spread the sample across the sphere, so at delta = 1e-6
    and below its cube keys need more than 63 bits: they are Python ints."""
    far = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j), SpherePoint(-1j)])
    sample = _joined(_cell_boundary_points(np.random.default_rng(seed), delta), far)
    assert dimension._cube_keys(sample.xyz, delta / math.sqrt(3.0))[0].dtype == object
    return sample


class TestComponentsAgainstBruteForce:
    """component_analysis against an all-pairs union under the same
    predicate, on seeded samples, through every way a cell pair is
    decided."""

    DELTAS = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.004]

    @pytest.fixture
    def paths(self, monkeypatch):
        """Counts of the cube pairs _triage decided as hits and as misses,
        of the pairs tested as small pairs, and of the large pairs sent to
        the exhaustive test: the calls of _pair_blocks."""
        seen = {"hit": 0, "miss": 0, "small": 0, "exhaustive": 0}
        triage = dimension._triage
        small, blocks = dimension._small_pairs_linked, dimension._pair_blocks

        def count_triage(*args):
            hit, miss = triage(*args)
            seen["hit"] += int(hit.sum())
            seen["miss"] += int(miss.sum())
            return hit, miss

        def count_small(pts, starts, counts, first, second, dot_needed):
            seen["small"] += len(first)
            return small(pts, starts, counts, first, second, dot_needed)

        def count_blocks(a, b):
            seen["exhaustive"] += 1
            return blocks(a, b)

        monkeypatch.setattr(dimension, "_triage", count_triage)
        monkeypatch.setattr(dimension, "_small_pairs_linked", count_small)
        monkeypatch.setattr(dimension, "_pair_blocks", count_blocks)
        return seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered(self, paths, seed):
        # the facing cells lie apart from every cluster and, at delta =
        # 0.05, only the exhaustive test can decide them
        sample = _joined(_clustered_points(np.random.default_rng(seed)),
                         _facing_cells(1e-13, np.random.default_rng(seed)))
        for delta in self.DELTAS:
            assert component_analysis(sample, delta) == _brute_components(sample.xyz, delta)
            # components are numbered by their least cube, each class's root
            count, labels = _brute_labels(sample.xyz, delta)
            cube = dimension._cell_pairs(sample.xyz, delta / math.sqrt(3.0))[1]
            least = np.full(count, len(cube))
            np.minimum.at(least, labels, cube)
            comp = dimension._components_at(sample, delta, None)[1][0]
            assert comp.tolist() == np.argsort(np.argsort(least))[labels].tolist()
        assert min(paths.values()) > 0, paths

    @pytest.mark.parametrize("gap", [-1e-13, 1e-13])
    def test_near_threshold_pair(self, paths, gap):
        sample = _facing_cells(gap, np.random.default_rng(0))
        got = component_analysis(sample, _FACING_DELTA)
        assert got == _brute_components(sample.xyz, _FACING_DELTA)
        # joined just below delta by the triage's hit test: the closest
        # pair is each cell's first point, and the test rounds as the
        # exhaustive test does; apart just above it, where neither the
        # hit nor the miss test can tell
        if gap < 0:
            assert got[0] == 1 and paths == {"hit": 1, "miss": 0, "small": 0, "exhaustive": 0}
        else:
            assert got[0] == 2 and paths == {"hit": 0, "miss": 0, "small": 0, "exhaustive": 1}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_points_on_cell_boundaries(self, seed):
        rng = np.random.default_rng(seed)
        for delta in (0.05, 0.01):
            sample = _cell_boundary_points(rng, delta)
            got = component_analysis(sample, delta)
            assert got == _brute_components(sample.xyz, delta)
            assert 1 < got[0] < sample.count
        for delta in (1e-6, dimension._MIN_DELTA):
            sample = _wide_key_sample(seed, delta)
            got = component_analysis(sample, delta)
            assert got == _brute_components(sample.xyz, delta)
            # the grid's components and the three far points
            assert 3 < got[0] < sample.count

    def test_scales_within_rounding_of_one_are_rejected(self):
        # below _MIN_DELTA rounding, not delta, decides which pairs are
        # joined: at 5e-10, 1 - delta^2 / 2 is 1.0 and joins this grid's
        # diagonal neighbours, beyond the search's reach; at 5e-8 pairs up to
        # about 8e-8 apart may round to joined
        sample = _wide_key_sample(0, 1e-9)
        assert 1.0 - 5e-10 * 5e-10 / 2.0 == 1.0
        for delta in (5e-10, 5e-8, np.nextafter(dimension._MIN_DELTA, 0.0)):
            for s in (sample, sample_from_points([])):
                with pytest.raises(ValueError, match="at least"):
                    component_analysis(s, delta)
                with pytest.raises(ValueError, match="at least"):
                    component_table(s, [1e-3, delta])

    def test_single_point_and_empty(self):
        for pts in ([INF], [SpherePoint(0.3 + 0.1j)], []):
            sample = sample_from_points(pts)
            for delta in (1.0, 0.01):
                assert component_analysis(sample, delta) == _brute_components(sample.xyz, delta)

    def test_exact_diameter_in_bounded_memory(self):
        # one component of 4,000 points, whose diameter is taken over all
        # pairs: a 4,000 x 4,000 product would take 128 MB.  The farthest
        # pair is the last two points, outside the first block of pairs.
        rng = np.random.default_rng(0)
        n = 4000
        radius = 0.01 * np.sqrt(rng.random(n - 2))
        angle = rng.uniform(0.0, 2.0 * math.pi, n - 2)
        u = np.concatenate([radius * np.cos(angle), [-0.012, 0.012]])
        v = np.concatenate([radius * np.sin(angle), [0.0, 0.0]])
        # the tangent plane at (0.6, 0, 0.8), projected back to the sphere
        xyz = (np.array([0.6, 0.0, 0.8]) + u[:, None] * np.array([0.8, 0.0, -0.6])
               + v[:, None] * np.array([0.0, 1.0, 0.0]))
        xyz /= np.sqrt(np.sum(xyz * xyz, axis=1))[:, None]
        sample = LimitSample(z=(xyz[:, 0] + 1j * xyz[:, 1]) / (1.0 - xyz[:, 2]),
                             infinite=np.zeros(n, dtype=bool), xyz=xyz)
        got, peak = helpers.traced_peak(lambda: component_analysis(sample, 0.05))
        assert n <= dimension._EXACT_DIAM
        assert got == (1, _brute_diameter(xyz))
        assert peak < 32 * 2**20


def _oracle_cell_pairs(cells):
    """The occupied cells of `cells` (tuples) in lexicographic order, and
    every pair (c, d) of them with c < d lexicographically and d - c in
    {-2..2} on each axis."""
    occupied = sorted(set(cells))
    seen = set(occupied)
    pairs = set()
    for c in occupied:
        for step in itertools.product(range(-2, 3), repeat=3):
            d = tuple(a + b for a, b in zip(c, step))
            if d > c and d in seen:
                pairs.add((c, d))
    return occupied, pairs


class TestCellKeys:
    """`_cell_pairs` against a set of tuples, on random integer cells."""

    @staticmethod
    def _cells(seed, spans=None):
        """300 points' cells, each axis drawn from values spaced by gaps of
        1, 2, 3 and 5 from a negative start.  With `spans`, two more cells
        stretch the axes so `_cell_keys` gives each axis that span."""
        rng = np.random.default_rng(seed)
        axes = [-9 + np.cumsum(rng.permutation([1, 2, 3, 5] * 2)) for _ in range(3)]
        cells = np.stack([rng.choice(v, 300) for v in axes], axis=1)
        if spans is not None:
            lo = cells.min(axis=0) - 1
            cells = np.concatenate([cells, [lo, lo + np.array(spans) - 5]])
        return cells

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spans, dtype", [
        (None, np.int64),
        ((2**21 - 1, 2**21, 2**21), np.int64),
        ((2**21 + 1, 2**21, 2**21), object),
    ], ids=["small", "below-2^63", "above-2^63"])
    def test_pairs_match_oracle(self, seed, spans, dtype):
        cells = self._cells(seed, spans)
        if spans is not None:
            assert (math.prod(spans) < 2**63) == (dtype is np.int64)
        assert dimension._cell_keys(cells.T)[0].dtype == dtype
        # integer coordinates are their own cubes of side 1
        assert dimension._cube_keys(cells.astype(float), 1.0)[0].dtype == dtype
        order, cell_of, counts, first, second = dimension._cell_pairs(cells.astype(float), 1.0)
        assert order.tolist() == np.argsort(cell_of, kind="stable").tolist()
        points = list(map(tuple, cells.tolist()))
        occupied, pairs = _oracle_cell_pairs(points)
        label = [None] * len(counts)
        for p, k in zip(points, cell_of.tolist()):
            assert label[k] in (None, p)
            label[k] = p
        assert label == occupied
        tally = Counter(points)
        assert counts.tolist() == [tally[c] for c in occupied]
        got = [(label[i], label[j]) for i, j in zip(first.tolist(), second.tolist())]
        assert len(got) == len(set(got))
        assert set(got) == pairs
        assert any(max(abs(a - b) for a, b in zip(*pair)) == 2 for pair in pairs)

    @staticmethod
    def _assert_offset_search(xyz, side):
        first, second = dimension._cell_pairs(xyz, side)[3:]
        got = list(zip(first.tolist(), second.tolist()))
        assert len(got) == len(set(got))
        want = helpers.offset_cell_pairs(xyz, side)
        assert set(got) == set(zip(*(w.tolist() for w in want)))
        assert len(got) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spans", [None, (2**21 - 1, 2**21, 2**21), (2**21 + 1, 2**21, 2**21)],
                             ids=["small", "below-2^63", "above-2^63"])
    def test_row_search_matches_offset_search(self, seed, spans):
        self._assert_offset_search(self._cells(seed, spans).astype(float), 1.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_search_on_python_int_keys(self, seed):
        for delta in (1e-6, dimension._MIN_DELTA):
            self._assert_offset_search(_wide_key_sample(seed, delta).xyz, delta / math.sqrt(3.0))


class TestCubeKeys:
    """`_cube_keys`, filled in passes, against `_cell_keys` on the whole
    cube array, and `_cell_pairs`' one sort against np.unique."""

    @pytest.mark.parametrize("delta", [1.0, 0.05, 2.0**-9, 1e-6])
    def test_keys_and_cubes_match_whole_array(self, monkeypatch, delta):
        xyz = _joined(_clustered_points(np.random.default_rng(0)),
                      _cell_boundary_points(np.random.default_rng(1), 0.05)).xyz
        side = delta / math.sqrt(3.0)
        want = dimension._cell_keys(np.floor(xyz / side).astype(np.int64).T)
        monkeypatch.setattr(_core, "PASS_BUDGET", 7)
        keys, strides = dimension._cube_keys(xyz, side)
        assert keys.tolist() == want[0].tolist() and strides == want[1]
        order, cell_of, counts, first, second = dimension._cell_pairs(xyz, side)
        occupied, inverse, tally = np.unique(want[0], return_inverse=True, return_counts=True)
        assert cell_of.tolist() == inverse.tolist()
        assert counts.tolist() == tally.tolist()
        assert order.tolist() == np.argsort(inverse, kind="stable").tolist()

    def test_control_sized_keys_in_bounded_memory(self):
        # the cube step of 316,178 points took an (n, 3) quotient and its
        # int64 copy, 14.5 MiB; in passes it is the key column and a
        # pass's quotient and cubes
        xyz = np.random.default_rng(0).normal(size=(316_178, 3))
        xyz /= np.sqrt(_dots(xyz, xyz))[:, None]
        (keys, _), peak = helpers.traced_peak(lambda: dimension._cube_keys(xyz, 0.025))
        assert peak < keys.nbytes + 3 * 24 * _core.PASS_BUDGET


def _all_pairs_join(n, first, second):
    uf = helpers.UnionFind(n)
    for i, j in zip(first.tolist(), second.tolist()):
        uf.union(i, j)
    return uf.roots().tolist()


class TestJoin:
    """The array union-find against the scalar one it replaced: the same
    root, each class's least element, for every element."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 2 * n))
        first, second = rng.integers(0, n, m), rng.integers(0, n, m)
        root = np.arange(n)
        dimension._join(root, first, second)
        assert root.tolist() == _all_pairs_join(n, first, second)
        # from a joined start, as after the triage's hits
        more = rng.integers(0, n, (2, m // 2))
        dimension._join(root, *more)
        want = _all_pairs_join(n, np.concatenate([first, more[0]]),
                               np.concatenate([second, more[1]]))
        assert root.tolist() == want

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_long_chains(self, shuffle):
        # a chain through 20,000 elements in a random order of labels,
        # its edges in order or shuffled, and a second chain beside it
        rng = np.random.default_rng(3)
        n = 40_000
        labels = rng.permutation(n)
        chain = [labels[:n // 2], labels[n // 2:]]
        first = np.concatenate([c[:-1] for c in chain])
        second = np.concatenate([c[1:] for c in chain])
        if shuffle:
            at = rng.permutation(len(first))
            first, second = first[at], second[at]
        root = np.arange(n)
        dimension._join(root, first, second)
        assert root.tolist() == _all_pairs_join(n, first, second)
        assert len(set(root.tolist())) == 2

    def test_find_halves_paths(self):
        root = np.array([0, 0, 1, 2, 3])
        assert dimension._find(root, 4) == 0
        assert root[4] <= 2 and root.tolist()[:2] == [0, 0]


def _cap(rng, n, radius):
    """n random unit vectors within angle `radius` of a random centre."""
    centre = rng.normal(size=3)
    centre /= math.sqrt(float(_dots(centre, centre)))
    tangent = rng.normal(size=(n, 3))
    tangent -= _dots(tangent, centre)[:, None] * centre
    tangent /= np.sqrt(_dots(tangent, tangent))[:, None]
    angle = radius * np.sqrt(rng.random(n))
    return np.cos(angle)[:, None] * centre + np.sin(angle)[:, None] * tangent


def _assert_rim_exact(pts):
    rim = dimension._rim(pts)
    assert dimension._min_dot(rim).hex() == dimension._min_dot(pts).hex()
    return len(rim)


class TestRimDiameter:
    """The least dot product over the rim, against all pairs, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_caps(self, seed):
        rng = np.random.default_rng(seed)
        kept = 0
        for n in (2, 3, 7, 40, 300, 1500):
            for radius in (1e-6, 0.01, 0.4, 1.5, 3.1):
                kept += _assert_rim_exact(_cap(rng, n, radius))
        assert kept < 0.5 * 5 * (2 + 3 + 7 + 40 + 300 + 1500)
        _assert_rim_exact(_cap(rng, 4000, rng.uniform(0.01, 3.0)))

    @pytest.mark.parametrize("n", [2, 3, 4, 64, 101, 1000])
    def test_great_circle(self, n):
        # every point at the rim's reach from the centroid: a tie of
        # rounding, and the antipodal pairs tie too
        rng = np.random.default_rng(n)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            a /= math.sqrt(float(_dots(a, a)))
            b -= float(_dots(a, b)) * a
            b /= math.sqrt(float(_dots(b, b)))
            t = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n) / n
            pts = np.cos(t)[:, None] * a + np.sin(t)[:, None] * b
            _assert_rim_exact(pts)
            _assert_rim_exact(pts[rng.permutation(n)])

    def test_duplicates_and_tied_pairs(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 50):
            pts = _cap(rng, n, 0.3)
            _assert_rim_exact(np.concatenate([pts, pts]))
            _assert_rim_exact(np.repeat(pts, 3, axis=0))
        _assert_rim_exact(np.repeat(_cap(rng, 1, 0.1), 5, axis=0))
        # regular polygons on small circles: every opposite pair is
        # farthest, and every point is at one distance from the centre
        for k in (4, 6, 12, 50):
            for radius in (1e-7, 1e-3, 0.5):
                t = 2.0 * math.pi * np.arange(k) / k
                pts = np.stack([radius * np.cos(t), radius * np.sin(t),
                                np.full(k, math.sqrt(1.0 - radius * radius))], axis=1)
                _assert_rim_exact(pts)
                _assert_rim_exact(np.concatenate([pts, pts[::-1]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_diameters_near_1e_7(self, seed):
        # squared distances within rounding of their dot products
        rng = np.random.default_rng(seed)
        for n in (2, 3, 30, 500):
            for radius in (3e-8, 1e-7, 3e-7):
                _assert_rim_exact(_cap(rng, n, radius))
                # on a line: a tie of the triangle inequality
                pts = _cap(rng, 2, radius)
                s = rng.random(n)[:, None]
                line = pts[0] + s * (pts[1] - pts[0])
                line /= np.sqrt(_dots(line, line))[:, None]
                _assert_rim_exact(line)

    def test_every_torus_component(self):
        # every component of 2 to 4,000 points of the three torus
        # samples at every default scale
        checked = pairs = 0
        for sample in helpers.torus_samples():
            for delta in default_scales():
                comp = dimension._components_at(sample, delta, None)[1][0]
                by_comp = np.argsort(comp, kind="stable")
                sizes = np.bincount(comp)
                begins = np.cumsum(sizes) - sizes
                for c in np.flatnonzero((sizes > 1) & (sizes <= dimension._EXACT_DIAM)):
                    pts = sample.xyz[by_comp[begins[c]:begins[c] + sizes[c]]]
                    pairs += _assert_rim_exact(pts) ** 2
                    checked += 1
        assert checked > 1000


def _whole_array_sweep(pts):
    """_double_sweep as it ran before its passes: each sweep's squared
    distances over all the points at once.  (diameter, the sweeps' start
    points)"""
    i, best, starts = 0, 0.0, []
    for _ in range(4):
        starts.append(i)
        d = 2.0 - 2.0 * _dots(pts, pts[i])
        i = int(np.argmax(d))
        best = max(best, math.sqrt(max(float(d[i]), 0.0)))
    return best, starts


class TestDoubleSweep:
    """_double_sweep in passes picks the whole-array sweep's points, the
    first of ties, and its diameter, bit for bit."""

    @staticmethod
    def _assert_whole_array_sweep(monkeypatch, pts, budget):
        monkeypatch.setattr(_core, "PASS_BUDGET", budget)
        centres = []
        dots = dimension._dots

        def recorded(a, b):
            centres.append(b.tobytes())
            return dots(a, b)

        monkeypatch.setattr(dimension, "_dots", recorded)
        got = dimension._double_sweep(pts)
        want, starts = _whole_array_sweep(pts)
        assert got == want
        assert centres[::math.ceil(len(pts) / budget)] == [pts[i].tobytes() for i in starts]

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_random_points(self, monkeypatch, budget):
        rng = np.random.default_rng(budget)
        for n in (1, 2, 7, 8, 50, 300):
            self._assert_whole_array_sweep(monkeypatch, _cap(rng, n, rng.uniform(0.01, 3.0)),
                                           budget)

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_ties(self, monkeypatch, budget):
        # four octahedron vertices exactly equally far from the first
        # sweep's start, repeated points put equal farthest points in
        # different passes, and the regular polygons' opposite points tie
        # in rounding
        rng = np.random.default_rng(budget)
        square = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        for _ in range(10):
            pts = np.concatenate([[[1.0, 0.0, 0.0]], square[rng.permutation(4)]])
            self._assert_whole_array_sweep(monkeypatch, pts, budget)
        for k in (2, 3, 4, 6, 12, 50):
            t = 2.0 * math.pi * np.arange(k) / k
            polygon = np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1)
            for pts in (polygon, np.tile(polygon, (3, 1)), np.repeat(polygon, 3, axis=0),
                        np.tile(_cap(rng, k, 1.0), (4, 1))):
                self._assert_whole_array_sweep(monkeypatch, pts, budget)
                self._assert_whole_array_sweep(monkeypatch, pts[::-1], budget)

    def test_default_budget(self, monkeypatch):
        rng = np.random.default_rng(0)
        pts = _cap(rng, 3 * _core.PASS_BUDGET + 5, 2.0)
        self._assert_whole_array_sweep(monkeypatch, np.concatenate([pts, pts]),
                                       _core.PASS_BUDGET)


class TestComponentTable:
    """The fine-to-coarse pass against the one-scale path and the
    all-pairs reference, scale by scale, on the samples above."""

    UNSORTED = [0.013, 0.3, 0.0071, 0.05, 0.11, 0.021]

    @staticmethod
    def _check(sample, scales):
        got = component_table(sample, scales)
        assert len(got) == len(scales)
        for delta, row in zip(scales, got):
            assert row == component_analysis(sample, delta)
            assert row == _brute_components(sample.xyz, delta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered(self, seed):
        sample = _joined(_clustered_points(np.random.default_rng(seed)),
                         _facing_cells(1e-13, np.random.default_rng(seed)))
        self._check(sample, TestComponentsAgainstBruteForce.DELTAS)
        self._check(sample, self.UNSORTED)

    @pytest.mark.parametrize("gap", [-1e-13, 1e-13])
    def test_near_threshold_pair(self, gap):
        sample = _facing_cells(gap, np.random.default_rng(0))
        self._check(sample, [_FACING_DELTA, 0.01, 0.2, _FACING_DELTA / 2])

    def test_points_on_cell_boundaries(self):
        sample = _cell_boundary_points(np.random.default_rng(0), 0.05)
        self._check(sample, TestComponentsAgainstBruteForce.DELTAS)
        self._check(sample, self.UNSORTED)
        for delta in (1e-6, dimension._MIN_DELTA):
            self._check(_wide_key_sample(0, delta), [2 * delta, 1e-3, delta, 4 * delta])

    def test_single_point_and_empty(self):
        for pts in ([INF], [SpherePoint(0.3 + 0.1j)], []):
            self._check(sample_from_points(pts), self.UNSORTED)

    @pytest.mark.parametrize("case", ["facing", "clustered"])
    def test_one_component_stop(self, monkeypatch, case):
        # the scales coarser than the first one-component scale never
        # search for cube pairs: they take that component whole
        if case == "facing":
            sample = _facing_cells(-1e-13, np.random.default_rng(0))
            scales = [0.5, 0.01, 2.0, _FACING_DELTA, 0.2]
        else:
            sample = _joined(_clustered_points(np.random.default_rng(0)),
                             _facing_cells(1e-13, np.random.default_rng(0)))
            scales = TestComponentsAgainstBruteForce.DELTAS + [4.0, 1.0, 2.0, 3.0]
        want = [component_analysis(sample, delta) for delta in scales]
        whole = min(delta for delta, (count, _) in zip(scales, want) if count == 1)
        assert 0 < sum(count > 1 for count, _ in want) < len(scales) - 1
        searched = []
        cell_pairs = dimension._cell_pairs

        def refuse_coarser(xyz, side):
            searched.append(side)
            if side > whole / math.sqrt(3.0):
                raise AssertionError("a scale coarser than one component was searched")
            return cell_pairs(xyz, side)

        monkeypatch.setattr(dimension, "_cell_pairs", refuse_coarser)
        got = component_table(sample, scales)
        assert [(k, d.hex()) for k, d in got] == [(k, d.hex()) for k, d in want]
        assert len(searched) == sum(delta <= whole for delta in scales)

    def test_default_level_two_sample(self):
        # every scale bit for bit, through box_dimension's own call
        config = RunConfig()
        rep = helpers.hnn_for(config.genus, config.interior_length)
        sample = None
        for m in range(config.level + 1):
            sample, _ = sample_stage(rep, m, config, sample)
        _, table = box_dimension(sample, config.scales)
        for row, delta in zip(table.rows, config.scales):
            count, diam = component_analysis(sample, delta)
            assert (row.delta, row.components, row.max_diam.hex()) == (delta, count, diam.hex())


class TestPassBudget:
    """The pair kernels take `_core.PASS_BUDGET` point pairs per pass; no
    pass boundary changes a component or a diameter."""

    def test_table_is_the_same_at_any_budget(self, monkeypatch):
        rep = helpers.hnn_for(1, 3.0)
        ball = truncation_ball(rep, 1, BallLimit(max_word_len=64, max_count=3_000))
        clustered = _joined(_clustered_points(np.random.default_rng(0)),
                            _facing_cells(1e-13, np.random.default_rng(0)))
        for sample, scales in ((sample_limit_set(ball), default_scales()),
                               (clustered, TestComponentsAgainstBruteForce.DELTAS)):
            want = component_table(sample, scales)
            for budget in (1, 7, 64):
                with monkeypatch.context() as mp:
                    mp.setattr(_core, "PASS_BUDGET", budget)
                    got = component_table(sample, scales)
                assert [(k, d.hex()) for k, d in got] == [(k, d.hex()) for k, d in want], budget

    def test_sample_is_the_same_at_any_budget(self, monkeypatch):
        # fixed points in passes of the budget, on a ball with a row of
        # subnormal trace / 2 - 1 in every 500, at caps that end the scan
        # after every row and before the last
        ball = truncation_ball(helpers.hnn_for(1, 3.0), 1,
                               BallLimit(max_word_len=64, max_count=3_000))
        mats = ball.mats.copy()
        mats[::500] = (1 + 1e-310j, 0, 0, 1)
        ball = SimpleNamespace(mats=mats, words=ball.words)
        for cap in (len(mats), 1_000):
            want = sample_limit_set(ball, cap=cap)
            with monkeypatch.context() as mp:
                mp.setattr(_core, "PASS_BUDGET", 7)
                got = sample_limit_set(ball, cap=cap)
            assert want.skipped > 1
            for field in ("xyz", "z", "infinite"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.skipped == want.skipped

    def test_table_peak_is_bounded_by_the_pass_budget(self):
        # the m = 2 sample of a run at a 10k budget: 27.8 MB traced with
        # passes of 2^18 point pairs, 8.2 MB with the pass budget
        rep = helpers.hnn_for(1, 3.0)
        ball = truncation_ball(rep, 2, BallLimit(max_word_len=64, max_count=30_000))
        sample = sample_limit_set(ball, cap=30_000)
        del ball
        _, peak = helpers.traced_peak(lambda: component_table(sample, default_scales()))
        assert len(sample) > 25_000
        assert peak <= 15e6


class TestScalarOracle:
    """The array sampling layer against the scalar loops it replaced
    (`helpers.scalar_*`): equal counts and `skipped`, and equal bytes of
    xyz and z, signs of zeros included."""

    @pytest.mark.parametrize("key", [(1, 3.0), (3, 5.0)])
    def test_truncation_levels(self, key):
        # the full run's balls, samples, merges and box counts at a
        # 10,000-element budget per level
        rep = helpers.hnn_for(*key)
        got = want = None
        for m in range(3):
            budget = 10_000 * (m + 1)
            ball = truncation_ball(rep, m, BallLimit(max_word_len=64, max_count=budget))
            level = sample_limit_set(ball, cap=budget)
            level_want = helpers.scalar_sample_limit_set(ball, cap=budget)
            helpers.assert_same_sample(level, level_want)
            got = level if got is None else merge_samples(got, level)
            want = (level_want if want is None
                    else helpers.scalar_merge_samples(want, level_want))
            helpers.assert_same_sample(got, want)
            for delta in default_scales():
                assert _box_count(got, delta) == helpers.scalar_box_count(want.points, delta)

    def test_caps(self):
        ball = truncation_ball(helpers.hnn_for(1, 3.0), 1, BallLimit(max_word_len=4))
        distinct = helpers.scalar_sample_limit_set(ball, cap=len(ball)).count
        # the identity comes last, so it is skipped only below the cap
        for cap in (0, 1, 57, distinct - 1, distinct, len(ball), len(ball) + 100):
            got = sample_limit_set(ball, cap=cap)
            helpers.assert_same_sample(got, helpers.scalar_sample_limit_set(ball, cap=cap))
        assert sample_limit_set(ball, cap=distinct).skipped == 0
        assert sample_limit_set(ball, cap=len(ball)).skipped == 1

    def test_cyclic_diagonal_groups(self):
        # the identity, and maps fixing infinity with either fixed point
        # attracting
        for lam in (2.0, -1.5, 1.5 * cmath.exp(0.4j), cmath.exp(complex(1e-3, 2.0))):
            ball = enumerate_ball([MoebiusMap.diagonal(lam)], BallLimit(max_word_len=6))
            got = sample_limit_set(ball)
            helpers.assert_same_sample(got, helpers.scalar_sample_limit_set(ball))
            assert got.count == 2 and got.skipped == 1 and got.infinite.sum() == 1

    def test_shared_fixed_points(self):
        # g and g^2 share their fixed points, so most words repeat a point
        g = helpers.axis_translation(1.0, 3.0, 2.0)
        h = helpers.axis_translation(-1.0, -3.0, 3.0)
        ball = enumerate_ball([g, g @ g, h], BallLimit(max_word_len=4))
        got = sample_limit_set(ball)
        helpers.assert_same_sample(got, helpers.scalar_sample_limit_set(ball))
        assert got.count < len(ball) // 2
        other = sample_limit_set(enumerate_ball([h, g], BallLimit(max_word_len=3)))
        want = helpers.scalar_merge_samples(got, other)
        helpers.assert_same_sample(merge_samples(got, other), want)
        assert want.count < got.count + other.count

    def test_subnormal_trace(self):
        # trace / 2 - 1 = 5e-311 i, a subnormal square root argument: not
        # loxodromic, like the identity
        g = MoebiusMap.diagonal(2.0)
        mats = np.array([[1, 0, 0, 1], g.entries(), [1 + 1e-310j, 0, 0, 1]],
                        dtype=np.complex128)
        ball = SimpleNamespace(mats=mats,
                               words=helpers.words_of([(), (1,), (2,)], (1, 2, -1, -2)))
        got = sample_limit_set(ball)
        helpers.assert_same_sample(got, helpers.scalar_sample_limit_set(ball))
        assert got.count == 1 and got.skipped == 2

    def test_points_and_small_scales(self):
        pts = [INF, SpherePoint(0j), SpherePoint(-0.0 - 0.0j), SpherePoint(-2.5 + 0.0j),
               SpherePoint(1 + 0j), SpherePoint(complex(0.3, -1e-200)),
               SpherePoint(complex(-1e5, 3e4))]
        sample = sample_from_points(pts)
        want = np.array([helpers.scalar_xyz(None if p.infinite else p.z) for p in pts])
        assert sample.xyz.tobytes() == want.tobytes()
        arc = _arc_sample(300)
        # the spans of the (chart, x, y) cells multiply past 2^63 for the
        # arc at 1e-9 and for both samples at 1e-13: Python-int box keys
        for delta in (1.0, 0.1, 1e-9, 1e-13):
            for s in (sample, arc):
                assert _box_count(s, delta) == helpers.scalar_box_count(s.points, delta)
        assert _box_count(sample_from_points([]), 0.1) == 0

    def test_box_keys_do_not_wrap(self):
        # cells (0, 0), (2^31, 0) and (0, 2^33 - 1) after the offset: the
        # spans multiply past 2^63, so the keys are Python ints; in int64
        # the second cell's key, about 2^31 * 2^33, would wrap
        side = 1e-10
        cells = [(0, 0), (2**31, 0), (0, 2**33 - 1)]
        pts = [SpherePoint(complex((i - 2**32 + 0.5) * side, (j - 2**32 + 0.5) * side))
               for i, j in cells]
        sample = sample_from_points(pts)
        delta = side * 2.0 * math.sqrt(2.0)
        assert _box_count(sample, delta) == helpers.scalar_box_count(pts, delta) == 3


class TestScaleTable:
    def test_csv_header_and_rows(self):
        table = ScaleTable(rows=[ScaleRow(delta=0.5, box_count=3,
                                          components=2, max_diam=0.25)])
        csv = table_csv(ScaleRow, table.rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "delta,box_count,components,max_diam"
        assert len(lines) == 2

    def test_empty_table_is_header_only(self):
        assert table_csv(ScaleRow, ScaleTable(rows=[]).rows) == (
            "delta,box_count,components,max_diam\n")
