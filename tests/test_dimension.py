"""Unit tests for limit-set sampling and dimension estimators."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import helpers
from kleindim import dimension
from kleindim.dimension import (LimitSample, ScaleRow, ScaleTable, _box_count, box_dimension,
                                component_analysis, critical_exponent,
                                default_scales, merge_samples,
                                sample_from_points, sample_limit_set)
from kleindim.errors import DegenerateScaleWindow, IncompleteBall
from kleindim.moebius import INF, MoebiusMap, SpherePoint
from kleindim.report import table_csv, truncation_ball
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


def _brute_components(xyz, delta):
    """All-pairs reference: join every pair with a . b >= 1 - delta^2 / 2;
    the exact diameter of every component."""
    n = len(xyz)
    if n == 0:
        return 0, 0.0
    i, j = np.nonzero(xyz @ xyz.T >= 1.0 - delta * delta / 2.0)
    count, labels = connected_components(coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)),
                                         directed=False)
    max_diam = 0.0
    for c in range(count):
        pts = xyz[np.flatnonzero(labels == c)]
        if len(pts) > 1:
            max_diam = max(max_diam, math.sqrt(max(2.0 - 2.0 * float(np.min(pts @ pts.T)), 0.0)))
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


class TestComponentsAgainstBruteForce:
    """component_analysis against an all-pairs union under the same
    predicate, on seeded samples, through both cell-pair paths."""

    DELTAS = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.004]

    @pytest.fixture
    def paths(self, monkeypatch):
        """Counts of cell pairs sent down the small- and large-pair paths."""
        seen = {"small": 0, "large": 0}
        small, cross = dimension._small_pairs_linked, dimension._cross_within

        def count_small(pts, starts, counts, first, second, dot_needed):
            seen["small"] += len(first)
            return small(pts, starts, counts, first, second, dot_needed)

        def count_large(a, b, d2):
            seen["large"] += 1
            return cross(a, b, d2)

        monkeypatch.setattr(dimension, "_small_pairs_linked", count_small)
        monkeypatch.setattr(dimension, "_cross_within", count_large)
        return seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered(self, paths, seed):
        sample = _clustered_points(np.random.default_rng(seed))
        for delta in self.DELTAS:
            assert component_analysis(sample, delta) == _brute_components(sample.xyz, delta)
        assert paths["small"] > 0 and paths["large"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_points_on_cell_boundaries(self, seed):
        rng = np.random.default_rng(seed)
        for delta in (0.05, 0.01):
            sample = _cell_boundary_points(rng, delta)
            got = component_analysis(sample, delta)
            assert got == _brute_components(sample.xyz, delta)
            assert 1 < got[0] < sample.count

    def test_single_point_and_empty(self):
        for pts in ([INF], [SpherePoint(0.3 + 0.1j)], []):
            sample = sample_from_points(pts)
            for delta in (1.0, 0.01):
                assert component_analysis(sample, delta) == _brute_components(sample.xyz, delta)


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

    def test_rows_outside_the_mirror(self):
        # trace / 2 - 1 = 5e-311 i: cmath.sqrt rescales both parts below
        # DBL_MIN, a branch the kernel leaves to MoebiusMap
        g = MoebiusMap.diagonal(2.0)
        mats = np.array([[1 + 1e-310j, 0, 0, 1], g.entries(), [1, 0, 0, 1]],
                        dtype=np.complex128)
        ball = SimpleNamespace(mats=mats, words=[(2,), (1,), ()])
        got = sample_limit_set(ball)
        helpers.assert_same_sample(got, helpers.scalar_sample_limit_set(ball))
        assert got.scalar_rows == 1 and got.skipped == 2

    def test_points_and_small_scales(self):
        pts = [INF, SpherePoint(0j), SpherePoint(-0.0 - 0.0j), SpherePoint(-2.5 + 0.0j),
               SpherePoint(1 + 0j), SpherePoint(complex(0.3, -1e-200)),
               SpherePoint(complex(-1e5, 3e4))]
        sample = sample_from_points(pts)
        want = np.array([helpers.scalar_xyz(None if p.infinite else p.z) for p in pts])
        assert sample.xyz.tobytes() == want.tobytes()
        arc = _arc_sample(300)
        # 1e-9 and below pack cell keys through their ranks
        for delta in (1.0, 0.1, 1e-9, 1e-13):
            for s in (sample, arc):
                assert _box_count(s, delta) == helpers.scalar_box_count(s.points, delta)
        assert _box_count(sample_from_points([]), 0.1) == 0

    def test_box_keys_do_not_wrap(self):
        # cells (0, 0), (2^31, 0) and (0, 2^33 - 1) after the offset: packed
        # as i * 2^33 + j in int64 the first two would wrap onto one key
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
