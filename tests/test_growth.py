"""Unit tests for the strata-tree model, entropy/leaf bounds, and
quasi-geodesic constants."""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from kleindim import growth
from kleindim.dimension import DimEstimate
from kleindim.errors import UnrealizablePath
from kleindim.growth import (BendPath, LeafRow, LeafTable, QiFit,
                             _rotation_about_i, build_strata_tree,
                             dim_bound_check, endpoint_distance, entropy_bound,
                             leaf_count_check, qi_constants, realize_bend_path,
                             sample_bend_paths)
from kleindim.moebius import BASEPOINT, MoebiusMap, hdist
from kleindim.report import table_csv
from kleindim.subgroup import BallLimit, enumerate_ball


class TestEntropyBound:
    def test_reference_value(self):
        assert entropy_bound(4.0) == pytest.approx(1.0 + math.log(2.0) / 8.0,
                                                   abs=1e-12)
        assert round(entropy_bound(4.0), 5) == 1.08664

    def test_half_log_two_gives_two(self):
        assert entropy_bound(math.log(2.0) / 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_decreasing_to_one(self):
        vals = [entropy_bound(r) for r in (1.0, 2.0, 4.0, 8.0, 1e6)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(1.0, abs=1e-5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            entropy_bound(0.0)


class TestBendPath:
    def test_validation(self):
        with pytest.raises(UnrealizablePath):
            BendPath(lengths=(), angles=())
        with pytest.raises(UnrealizablePath):
            BendPath(lengths=(1.0, -2.0), angles=(math.pi / 2.0,))
        with pytest.raises(UnrealizablePath):
            BendPath(lengths=(1.0, 2.0), angles=())
        with pytest.raises(UnrealizablePath):
            BendPath(lengths=(1.0, 2.0), angles=(0.5,))  # sharper than 90 deg

    def test_total_length(self):
        p = BendPath(lengths=(2.0, 3.0), angles=(math.pi / 2.0,))
        assert p.total_length == 5.0

    def test_rotation_fixes_base_point(self):
        q = _rotation_about_i(1.1)._apply_hpoint(BASEPOINT)
        assert hdist(BASEPOINT, q) <= 1e-12

    def test_straight_segment_is_geodesic(self):
        p = BendPath(lengths=(3.7,), angles=())
        assert endpoint_distance(p) == pytest.approx(3.7, abs=1e-9)

    def test_pi_bend_continues_straight(self):
        p = BendPath(lengths=(2.0, 3.0), angles=(math.pi,))
        assert endpoint_distance(p) == pytest.approx(5.0, abs=1e-9)

    def test_right_angle_law_of_cosines(self):
        for a in (2.0, 3.0, 4.0):
            p = BendPath(lengths=(a, a), angles=(math.pi / 2.0,))
            oracle = math.acosh(math.cosh(a) * math.cosh(a))
            assert endpoint_distance(p) == pytest.approx(oracle, abs=1e-9)

    def test_realize_is_isometry_composition(self):
        p = BendPath(lengths=(1.0, 2.0, 1.5), angles=(math.pi / 2.0, 2.0))
        m = realize_bend_path(p)
        assert endpoint_distance(p) == pytest.approx(
            hdist(BASEPOINT, m._apply_hpoint(BASEPOINT)), abs=1e-12)


class TestQiConstants:
    def test_straight_paths_give_zero_epsilon(self):
        rep = helpers.hnn_for(1, 3.0)
        paths = [BendPath(lengths=(l,), angles=()) for l in (2.0, 3.0, 5.0)]
        fit = qi_constants(rep, paths)
        assert fit.epsilon_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.c_hat == 0.0

    def test_inequality_holds_on_samples(self):
        rep = helpers.hnn_for(1, 3.0)
        fit = qi_constants(rep, sample_bend_paths(1.5, n_paths=50, seed=3))
        for p in sample_bend_paths(1.5, n_paths=50, seed=3):
            assert fit.satisfied(p.total_length, endpoint_distance(p))

    def test_sampler_is_seeded_and_in_range(self):
        a = sample_bend_paths(2.0, n_paths=30, seed=5)
        b = sample_bend_paths(2.0, n_paths=30, seed=5)
        assert [p.lengths for p in a] == [p.lengths for p in b]
        assert len(a) == 30
        for p in a:
            assert all(4.0 <= l <= 8.0 for l in p.lengths)
            assert all(ang == math.pi / 2.0 for ang in p.angles)

    def test_epsilon_decreases_in_r(self):
        eps = [qi_constants(None, sample_bend_paths(r, seed=0)).epsilon_hat
               for r in (1.0, 1.5, 2.0, 2.5)]
        assert eps == sorted(eps, reverse=True)
        assert len(set(eps)) == len(eps)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            qi_constants(None, [])


class TestStrataTree:
    def test_small_radius_gives_root_only(self):
        rep = helpers.hnn_for(1, 3.0)
        tree = build_strata_tree(rep, 0.3, max_depth=3)
        assert len(tree) == 1
        assert tree.max_depth() == 0

    def test_tree_invariants(self):
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        tree = build_strata_tree(rep, 4.0 * r, max_depth=3)
        assert len(tree) > 1
        for node in tree.nodes[1:]:
            assert node.d <= tree.radius + 1e-9
            assert 0 <= node.parent < len(tree.nodes)
            assert node.depth == tree.nodes[node.parent].depth + 1
        # consecutive gluing geodesics along any chain stay a full collar
        # diameter apart
        assert tree.min_gap() >= 2.0 * r - 1e-6

    def test_child_distance_accumulates(self):
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        tree = build_strata_tree(rep, 4.0 * r, max_depth=3)
        for node in tree.nodes[1:]:
            if node.depth >= 2:
                parent = tree.nodes[node.parent]
                assert node.d == pytest.approx(parent.d + node.gap, abs=1e-9)


def _bits(x):
    if x is None:
        return None
    x = complex(x)
    return struct.pack("<dd", x.real, x.imag)


def _candidate_bits(cands):
    return [(c.kind, _bits(c.gap), tuple(_bits(e) for e in c.ends),
             tuple(_bits(e) for e in c.w.entries())) for c in cands]


def _node_bits(tree):
    return [(n.parent, n.depth, n.kind, _bits(n.d), _bits(n.gap),
             tuple(_bits(e) for e in n.proj), tuple(_bits(e) for e in n.frame.entries()))
            for n in tree.nodes]


def _ulps(x, k=8):
    """x and its neighbours up to k ulps either side, ascending."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return sorted(float(v) for v in out)


_IDENT = MoebiusMap.identity()
_C3 = math.cosh(3.0)


def _den(b):
    """_image_endpoint's threshold on |c z + d| at z = 0, a = 1."""
    return 1e-12 * ((0.0 + b) + 1.0)


def _closed_window(radius):
    """|axial| <= radius + 1 as the half-open window (lo, hi) that
    _select_lifts takes."""
    return (-(radius + 1.0), math.nextafter(radius + 1.0, math.inf))


_INF, _NAN = math.inf, math.nan

# (rows, axes, radius) at each threshold of the lift selection, with the
# translates' window unless a fourth item gives one; rows are (a, b, c, d)
# and need not have det 1.  One axis where a second one would keep the
# rows in the sieve for its own sake.
_EDGE_CASES = {
    # c == 0 sends the endpoint at infinity to None; so does c just
    # below 1e-14 |a|
    "endpoint_at_inf": ([(1, 0.25, 0, 1)] + [(1, 0.25, c, 1) for c in _ulps(1e-14)],
                        {"gamma": (None, 0.5)}, 25.0),
    # |c z + d| at 1e-12 (|a z| + |b| + 1), with the image inside the
    # endpoint window (b = 1e-4) and outside it (b = 1e-2)
    "denominator": ([(1, b, 1, d) for b in (1e-4, 1e-2)
                     for d in _ulps(_den(b)) + [_den(b) * (1 - 1e-6), _den(b) * (1 + 1e-6)]],
                    {"gamma": (0.0, 5.0)}, 25.0),
    # both endpoints round to one image, or to neighbouring floats
    "equal_images": ([(1e8, -k * 1e-9, 1e8, 0) for k in range(1, 20)],
                     {"gamma": (1.0, 2.0), "boundary": (3.0, 4.0)}, 40.0),
    # |u| at the edges of _vertical_gap's endpoint window
    "endpoint_window": ([(s, 0, 0, 1) for s in _ulps(1e-9) + _ulps(1e9) + _ulps(-1e9)],
                        {"gamma": (1.0, -1.0)}, 25.0),
    # |(u + v) / (u - v)| within ulps of cosh(radius), and just outside
    # the sieve's margin
    "gap_at_radius": ([(1, t, 0, 1) for t in _ulps(_C3, 16) + [_C3 * (1 - 2e-9), _C3 * (1 + 2e-9)]],
                      {"gamma": (1.0, -1.0)}, 3.0),
    # |log|u v|| / 2 at radius + 1
    "axial_window": ([(s, 0, 0, 1) for s in _ulps(math.exp(7.0), 16)],
                     {"gamma": (1.0, -1.0)}, 6.0),
    # log|u v| / 2 at either end of the representatives' window
    # [-1/2, 1/2): its upper end is excluded, its lower end included
    "representative_window": ([(s, 0, 0, 1) for t in (0.5, -0.5)
                               for s in _ulps(math.exp(t), 16)],
                              {"gamma": (1.0, -1.0)}, 6.0, (-0.5, 0.5)),
}

_NONFINITE = [(_INF, 0, 0, 1), (1, _INF, 0, 1), (1, 0, _INF, 1), (1, 0, 0, _INF),
              (_NAN, 0, 0, 1), (1, _NAN, 0, 1), (1, 0, _NAN, 1), (1, 0, 0, _NAN),
              (_INF, _INF, _INF, _INF), (1e300, 1e300, 1, 1), (1, 0, 0, 0)]


def _outcome(select, rows, axes, radius, window=None):
    """The candidates' bits, or the error the selection raised."""
    try:
        return _candidate_bits(select(np.array(rows, dtype=np.complex128).reshape(-1, 4),
                                      axes, radius, _IDENT, window or _closed_window(radius)))
    except ValueError as exc:  # a NaN endpoint fails in _endpoint_key
        return repr(exc)


def _assert_same_selection(rows, axes, radius, window=None):
    """The sieve and the scalar oracle agree on the rows together and on
    each row alone; returns the oracle's (kind, zero gap) per row."""
    assert (_outcome(growth._select_lifts, rows, axes, radius, window)
            == _outcome(helpers.scalar_lift_candidates, rows, axes, radius, window))
    decisions = []
    for row in rows:
        want = _outcome(helpers.scalar_lift_candidates, [row], axes, radius, window)
        assert _outcome(growth._select_lifts, [row], axes, radius, window) == want
        if not isinstance(want, str):
            decisions.append(tuple((kind, gap == _bits(0.0)) for kind, gap, *_ in want))
    return decisions


class TestLiftSieve:
    @pytest.mark.parametrize("key", [(1, 3.0), (3, 5.0)])
    @pytest.mark.parametrize("entry", ["gamma", "boundary"])
    def test_grid_lifts_match_scalar_oracle(self, key, entry, monkeypatch):
        surface = helpers.surface_for(*key)
        radius = 4.5 * helpers.r_achieved_for(*key)
        got, _ = growth._lift_candidates(surface, _entry(surface, entry), radius, 20_000)
        monkeypatch.setattr(growth, "_select_lifts", helpers.scalar_lift_candidates)
        want, _ = growth._lift_candidates(surface, _entry(surface, entry), radius, 20_000)
        assert len(want) > 10
        assert _candidate_bits(got) == _candidate_bits(want)

    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_thresholds(self, case):
        decisions = _assert_same_selection(*_EDGE_CASES[case])
        # the rows straddle the threshold: the oracle decides both ways
        assert len(set(decisions)) > 1

    def test_key_shared_by_gamma_and_boundary_lifts(self):
        # the first lift of a geodesic is kept: rows in order, and gamma
        # before boundary within a row
        axes = {"gamma": (1.0, -1.0), "boundary": (2.0, -2.0)}
        one, half = (1, 0, 0, 1), (0.5, 0, 0, 1)  # half's boundary lift is one's gamma lift
        for rows, kinds in (([one, half], ["gamma", "boundary", "gamma"]),
                            ([half, one], ["gamma", "boundary", "boundary"])):
            _assert_same_selection(rows, axes, 25.0)
            got = growth._select_lifts(np.array(rows, dtype=np.complex128), axes, 25.0,
                                       _IDENT, _closed_window(25.0))
            assert [c.kind for c in got] == kinds
        same = {"gamma": (1.0, -1.0), "boundary": (-1.0, 1.0)}
        got = growth._select_lifts(np.array([one], dtype=np.complex128), same, 25.0,
                                   _IDENT, _closed_window(25.0))
        assert [c.kind for c in got] == ["gamma"]
        _assert_same_selection([one], same, 25.0)

    def test_nonfinite_rows(self):
        axes = {"gamma": (1.0, -1.0), "boundary": (None, 0.5)}
        _assert_same_selection(_NONFINITE, axes, 25.0)
        for row in _NONFINITE:
            _assert_same_selection([(1, 0.25, 0, 1), row], axes, 25.0)

    def test_tree_matches_scalar_oracle_tree(self, monkeypatch):
        rep = helpers.hnn_for(1, 3.0)
        radius = 4.0 * helpers.r_achieved_for(1, 3.0)
        got = build_strata_tree(rep, radius, max_depth=3)
        monkeypatch.setattr(growth, "_select_lifts", helpers.scalar_lift_candidates)
        want = build_strata_tree(rep, radius, max_depth=3)
        assert len(want) > 100
        assert _node_bits(got) == _node_bits(want)


def _entry(surface, kind):
    return surface.gamma_matrix() if kind == "gamma" else surface.boundary_matrix()


def _selection_over_ball(surface, kind, radius, cap, max_count):
    """The lifts _select_lifts takes from the displacement ball of the
    entry frame's generators to `cap`, in the window |axial| <= radius + 1,
    and that ball."""
    frame, gens, axes = growth._entry_frame(surface, _entry(surface, kind))
    ball = enumerate_ball(gens, BallLimit(max_displacement=cap, max_count=max_count))
    return growth._select_lifts(ball.mats, axes, radius, frame.inverse(),
                                _closed_window(radius)), ball


def _unmatched(lifts, pool, rtol):
    """The lifts with no lift of the same kind in `pool` whose endpoints
    agree within `rtol` relative (inf with inf)."""
    def ends(cands):
        return np.array([sorted(math.inf if e is None else e for e in c.ends)
                         for c in cands]).reshape(-1, 2)
    out = []
    for kind in ("gamma", "boundary"):
        mine = [c for c in lifts if c.kind == kind]
        theirs = ends([c for c in pool if c.kind == kind])[None]
        for start in range(0, len(mine), 256):
            e = ends(mine[start:start + 256])[:, None]
            with np.errstate(invalid="ignore"):
                close = (theirs == e) | (np.abs(theirs - e) <= rtol * (1.0 + np.abs(e)))
            found = close.all(axis=2).any(axis=1)
            out += [c for c, ok in zip(mine[start:start + 256], found) if not ok]
    return out


class TestLiftsModuloEntryAxis:
    """The lift list is built from one fundamental domain of the entry
    element and its exact translates along the entry axis."""

    @pytest.mark.parametrize("radius", [4.0, 5.0])
    @pytest.mark.parametrize("kind", ["gamma", "boundary"])
    def test_keys_match_an_untruncated_large_ball(self, radius, kind):
        # a lift with gap <= R and |axial| <= R + 1 passes within 2R + 1
        # of i, so a coset representative lies within 2R + 1.5 + d(i, far
        # axis): a ball that needs no translates
        surface = helpers.surface_for(1, 3.0)
        got, lift_ball = growth._lift_candidates(surface, _entry(surface, kind), radius,
                                                 200_000)
        _, _, axes = growth._entry_frame(surface, _entry(surface, kind))
        cap = 2.0 * radius + 1.5 + max(growth._base_distance(*e) for e in axes.values())
        want, ball = _selection_over_ball(surface, kind, radius, cap, 2_000_000)
        assert not ball.truncated and not lift_ball.truncated
        assert len(ball) > 10 * lift_ball.elements
        assert len(want) > 20
        keys = sorted((c.kind, growth._geodesic_key(*c.ends)) for c in got)
        assert keys == sorted((c.kind, growth._geodesic_key(*c.ends)) for c in want)

    @pytest.mark.parametrize("key", [(1, 3.0), (2, 3.0), (2, 4.0), (2, 5.0)])
    @pytest.mark.parametrize("kind", ["gamma", "boundary"])
    def test_no_lift_of_the_count_capped_ball_is_lost(self, key, kind):
        # the lists taken from 200,000-element balls to 2R + 3, cut by
        # their count cap, hold nothing the new lists lack (below genus 3)
        surface = helpers.surface_for(*key)
        radius = 4.5 * helpers.r_achieved_for(*key)
        got, lift_ball = growth._lift_candidates(surface, _entry(surface, kind), radius,
                                                 200_000)
        old, ball = _selection_over_ball(surface, kind, radius, 2.0 * radius + 3.0, 200_000)
        assert ball.truncated and not lift_ball.truncated
        assert _unmatched(old, got, 1e-6) == []
        assert len(got) > len(old)

    @pytest.mark.parametrize("key", [(1, 3.0), (2, 4.0), (3, 5.0)])
    @pytest.mark.parametrize("kind", ["gamma", "boundary"])
    def test_list_is_closed_under_the_entry_translation(self, key, kind):
        surface = helpers.surface_for(*key)
        radius = 4.5 * helpers.r_achieved_for(*key)
        entry = _entry(surface, kind)
        got, _ = growth._lift_candidates(surface, entry, radius, 200_000)
        frame, _, axes = growth._entry_frame(surface, entry)
        ell = entry.translation_length()

        def framed(c):
            ends = [growth._image_endpoint(c.m, e) for e in axes[c.kind]]
            return SimpleNamespace(kind=c.kind, ends=ends)

        listed = [framed(c) for c in got]
        moved = []
        for c in listed:
            u, v = c.ends
            if u is None or v is None or growth._vertical_gap(u, v) < growth.GAP_TOL:
                continue
            axial = 0.5 * math.log(abs(u * v))
            for sign in (1, -1):
                if abs(axial + sign * ell) <= radius + 1.0 - 1e-6:
                    scale = math.exp(sign * ell)
                    moved.append(SimpleNamespace(kind=c.kind, ends=[u * scale, v * scale]))
        assert len(moved) > len(got)
        # _endpoint_key quantises x / (1 + |x|) in steps of about 1e-6, so
        # toward either end of the axis a lift can share its key with a
        # distinct lift, which the dedup keeps instead
        keys = {growth._geodesic_key(*c.ends) for c in listed}
        merged = _unmatched(moved, listed, 1e-9)
        for c in merged:
            assert growth._geodesic_key(*c.ends) in keys
            assert not 1e-3 < abs(c.ends[0]) < 1e3
        assert len(merged) <= 0.01 * len(moved)


class TestLiftBallRecord:
    def test_record_shows_what_is_not_certified(self):
        surface = helpers.surface_for(1, 3.0)
        radius = 4.5 * helpers.r_achieved_for(1, 3.0)
        entry = surface.boundary_matrix()
        _, rec = growth._lift_candidates(surface, entry, radius, 200_000)
        _, _, axes = growth._entry_frame(surface, entry)
        assert rec.cap == radius + 1.0 + max(growth._base_distance(*e) for e in axes.values())
        assert not rec.truncated and rec.complete_radius == rec.cap
        # the band claims the whole cap, yet the ball lacks the inverses
        # of some of its own words, well inside it
        assert rec.missing_inverses > 0
        assert rec.min_missing_disp < rec.cap - 1.0
        _, small = growth._lift_candidates(surface, entry, radius, 100)
        assert small.truncated and small.elements <= 100
        assert small.complete_radius < small.cap


class TestLeafCount:
    def test_bound_arithmetic(self):
        r = 1.25
        rep = helpers.hnn_for(1, 3.0)
        tree = build_strata_tree(rep, 3.2 * helpers.r_achieved_for(1, 3.0),
                                 max_depth=3)
        table = leaf_count_check(tree, r)
        assert table.rows[0] == LeafRow(d=0.0, leaves_at_d=1, bound=2.0)
        for row in table.rows:
            assert row.bound == pytest.approx(2.0 ** (1.0 + row.d / (2.0 * r)))

    def test_no_violations_on_torus(self):
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        tree = build_strata_tree(rep, 4.0 * r, max_depth=3)
        table = leaf_count_check(tree, r)
        assert table.violations() == []

    def test_csv_header(self):
        table = LeafTable(rows=[LeafRow(d=1.0, leaves_at_d=2, bound=4.0)])
        assert table_csv(LeafRow, table.rows) == "d,leaves_at_d,bound\n1.0,2,4.0\n"

    def test_corrupted_radius_detected(self):
        # a huge r drives every bound down to 2, so every multiplicity
        # above 2 is a violation, counted in the table and not raised
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        tree = build_strata_tree(rep, 4.5 * r, max_depth=4)
        table = leaf_count_check(tree, 1e9)
        assert len(table.rows) == len(tree)
        violations = table.violations()
        assert violations
        assert violations == [row for row in table.rows if row.leaves_at_d > 2]

    def test_violation_rows_reported(self):
        table = LeafTable(rows=[LeafRow(d=1.0, leaves_at_d=5, bound=4.0)])
        assert len(table.violations()) == 1


class TestDimBoundCheck:
    def _fit(self, eps):
        return QiFit(epsilon_hat=eps, c_hat=0.0, n_samples=1,
                     max_ratio=1.0 + eps, min_ratio=1.0)

    def _dim(self, value):
        return DimEstimate(value=value, stderr=0.0, scale_window=(0.1, 1.0),
                           method="box")

    def test_pass_case(self):
        report = dim_bound_check(self._dim(1.05), self._fit(0.05), 4.0)
        assert report.passed
        assert report.bound == pytest.approx(1.05 * entropy_bound(4.0))

    def test_zero_epsilon_reduces_to_entropy(self):
        report = dim_bound_check(self._dim(0.9), self._fit(0.0), 4.0)
        assert report.bound == pytest.approx(entropy_bound(4.0))

    def test_corrupted_dimension_fails(self):
        report = dim_bound_check(self._dim(2.0), self._fit(0.05), 4.0)
        assert not report.passed
