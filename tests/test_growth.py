"""Unit tests for the strata-tree model, entropy/leaf bounds, and
quasi-geodesic constants."""

import dataclasses
import functools
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from kleindim import _core, growth
from kleindim.dimension import DimEstimate
from kleindim.errors import EnumerationBudgetExceeded, NumericError, UnrealizablePath
from kleindim.growth import (BendPath, LeafRow, LeafTable, QiFit,
                             _rotation_about_i, build_strata_tree,
                             dim_bound_check, endpoint_distance, entropy_bound,
                             leaf_count_check, qi_constants, realize_bend_path,
                             sample_bend_paths)
from kleindim.moebius import BASEPOINT, MoebiusMap, hdist
from kleindim.report import table_csv
from kleindim.subgroup import BallLimit, BallResult, enumerate_ball


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
        assert tree.min_gap() == math.inf
        assert leaf_count_check(tree, 1.0) == LeafTable(rows=[LeafRow(d=0.0, leaves_at_d=1,
                                                                      bound=2.0)])

    def test_tree_invariants(self):
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        tree = build_strata_tree(rep, 4.0 * r, max_depth=3)
        assert len(tree) > 1
        nodes = helpers.tree_rows(tree)
        for node in nodes[1:]:
            assert node.d <= tree.radius + 1e-9
            assert 0 <= node.parent < len(nodes)
            assert node.depth == nodes[node.parent].depth + 1
        # consecutive gluing geodesics along any chain stay a full collar
        # diameter apart
        assert tree.min_gap() >= 2.0 * r - 1e-6

    def test_child_distance_accumulates(self):
        rep = helpers.hnn_for(1, 3.0)
        r = helpers.r_achieved_for(1, 3.0)
        nodes = helpers.tree_rows(build_strata_tree(rep, 4.0 * r, max_depth=3))
        for node in nodes[1:]:
            if node.depth >= 2:
                parent = nodes[node.parent]
                assert node.d == pytest.approx(parent.d + node.gap, abs=1e-9)

    def test_base_distances_match_scalar_distance(self):
        # inf endpoints, endpoints 0 and +-1, shared endpoints and NaN
        rng = np.random.default_rng(0)
        values = rng.uniform(-4.0, 4.0, 12).tolist() + [0.0, -0.0, 1.0, -1.0, math.nan, None]
        pairs = [(x, y) for x in values for y in values]
        ends = np.array([[0.0 if e is None else e for e in p] for p in pairs])
        finite = np.array([[e is not None for e in p] for p in pairs])
        got = growth._base_distances(ends, finite)
        want = [helpers.base_distance(*p) for p in pairs]
        assert [_bits(x) for x in got.tolist()] == [_bits(x) for x in want]
        assert np.isinf(got).sum() == sum(x == y for x, y in pairs if x is not None) + 1


def _bits(x):
    if x is None:
        return None
    x = complex(x)
    return struct.pack("<dd", x.real, x.imag)


def _candidate_bits(lifts):
    return [(c.kind, _bits(c.gap), tuple(_bits(e) for e in c.ends),
             tuple(_bits(e) for e in c.w.entries()), tuple(_bits(e) for e in c.m.entries()))
            for c in helpers.lift_rows(lifts)]


def _node_bits(tree):
    return [(n.parent, n.depth, _bits(n.d), _bits(n.gap), tuple(_bits(e) for e in n.proj))
            for n in helpers.tree_rows(tree)]


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
    """The image endpoint's threshold on |c z + d| at z = 0, a = 1."""
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
    # |u| at the edges of the gap's endpoint window
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
                                      helpers.axis_columns(axes), radius, _IDENT,
                                      window or _closed_window(radius)))
    except ValueError as exc:  # a NaN endpoint has no key
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
        assert len(want.gap) > 10
        assert _candidate_bits(got) == _candidate_bits(want)

    @pytest.mark.parametrize("entry", ["gamma", "boundary"])
    def test_lifts_are_the_same_at_any_pass_budget(self, entry, monkeypatch):
        # lift balls and sieve passes of one to three rows, on a tree
        # radius short of the pipeline's 4.5 r to keep the passes few
        surface = helpers.surface_for(1, 3.0)
        radius = 3.0 * helpers.r_achieved_for(1, 3.0)
        want, want_ball = growth._lift_candidates(surface, _entry(surface, entry), radius,
                                                  20_000)
        monkeypatch.setattr(_core, "PASS_BUDGET", 7)
        got, got_ball = growth._lift_candidates(surface, _entry(surface, entry), radius,
                                                20_000)
        assert len(want.gap) > 10
        assert _candidate_bits(got) == _candidate_bits(want)
        assert got_ball == want_ball

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
            got = growth._select_lifts(np.array(rows, dtype=np.complex128),
                                       helpers.axis_columns(axes), 25.0, _IDENT,
                                       _closed_window(25.0))
            assert got.kind.tolist() == kinds
        same = {"gamma": (1.0, -1.0), "boundary": (-1.0, 1.0)}
        got = growth._select_lifts(np.array([one], dtype=np.complex128),
                                   helpers.axis_columns(same), 25.0, _IDENT,
                                   _closed_window(25.0))
        assert got.kind.tolist() == ["gamma"]
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


def _cache_lifts(monkeypatch):
    """Patch growth._lift_candidates to compute each entry's lifts once;
    returns the list of the calls that have returned."""
    lifts, returned = {}, []
    lift_candidates = growth._lift_candidates

    def cached(surface, entry, radius, max_elements):
        key = (entry.entries(), radius, max_elements)
        if key not in lifts:
            lifts[key] = lift_candidates(surface, entry, radius, max_elements)
        returned.append(key)
        return lifts[key]

    monkeypatch.setattr(growth, "_lift_candidates", cached)
    return returned


class TestStrataTreeOracle:
    """build_strata_tree gives the nodes of the depth-first walk that
    built them one at a time (helpers.scalar_strata_tree), bit for bit."""

    @pytest.mark.parametrize("key", [(1, 3.0), (2, 3.0), (2, 4.0), (3, 5.0)], ids=str)
    def test_grid_trees_match_scalar_walk(self, key):
        # perfbench's four grid keys, one per collar radius
        want = helpers.scalar_strata_tree(helpers.hnn_for(*key),
                                          4.5 * helpers.r_achieved_for(*key), max_depth=4)
        assert len(want) > 400 and want.max_depth() >= 2
        assert _node_bits(_grid_tree(key)) == _node_bits(want)

    def test_tree_is_the_same_at_any_pass_budget(self, monkeypatch):
        # lifts taken at the full budget: the shape's passes of one to
        # seven (parent, lift) pairs, the frames' and the leaf check's
        key = (1, 3.0)
        rep, r = helpers.hnn_for(*key), helpers.r_achieved_for(*key)
        _cache_lifts(monkeypatch)
        want = helpers.scalar_strata_tree(rep, 4.5 * r, max_depth=4)
        monkeypatch.setattr(_core, "PASS_BUDGET", 7)
        got = build_strata_tree(rep, 4.5 * r, max_depth=4)
        assert len(got) > 1000
        assert _node_bits(got) == _node_bits(want)
        assert leaf_count_check(got, r) == helpers.per_node_leaf_table(want, r)

    def test_node_budget(self, monkeypatch):
        # the (1,3) tree has 131 nodes at depth 1: a budget of 100 stops
        # the build at depth 1, before any node's frame is formed
        rep = helpers.hnn_for(1, 3.0)
        radius = 4.5 * helpers.r_achieved_for(1, 3.0)
        size = len(_grid_tree((1, 3.0)))
        assert np.count_nonzero(_grid_tree((1, 3.0)).depth == 1) > 100
        returned, composed = _cache_lifts(monkeypatch), []
        compose = _core.compose

        def counted(left, right):
            composed.append(len(returned))
            return compose(left, right)

        monkeypatch.setattr(_core, "compose", counted)
        monkeypatch.setattr(growth, "MAX_NODES", 100)
        message = "^strata tree exceeded 100 nodes$"
        with pytest.raises(EnumerationBudgetExceeded, match=message):
            build_strata_tree(rep, radius, max_depth=4)
        # every product was a lift's, formed before both lift lists returned
        assert len(returned) == 2 and composed and max(composed) < 2
        with pytest.raises(EnumerationBudgetExceeded, match=message):
            helpers.scalar_strata_tree(rep, radius, max_depth=4)
        # a budget of the tree's size holds it, and one less does not
        monkeypatch.setattr(growth, "MAX_NODES", size)
        assert len(build_strata_tree(rep, radius, max_depth=4)) == size
        monkeypatch.setattr(growth, "MAX_NODES", size - 1)
        with pytest.raises(EnumerationBudgetExceeded):
            build_strata_tree(rep, radius, max_depth=4)


class TestImageEndpoints:
    """_image_endpoints is the scalar image endpoint (helpers.image_endpoint,
    NumPy's complex arithmetic on one row) on arrays, bit for bit, and
    _select_lifts evaluates each row once."""

    @staticmethod
    def _assert_matches_scalar(rows, zs):
        mats = np.array(rows, dtype=np.complex128).reshape(-1, 4)
        for z in zs:
            vals, defined = growth._image_endpoints(mats, 0.0 if z is None else z,
                                                    z is not None)
            TestImageEndpoints._assert_rows_match(mats, [z] * len(mats), vals, defined)

    @staticmethod
    def _assert_rows_match(mats, zs, vals, defined):
        for row, z, val, ok in zip(mats.tolist(), zs, vals.tolist(), defined.tolist()):
            want = helpers.image_endpoint(MoebiusMap(*row, _normalized=True), z)
            assert ok == (want is not None), (row, z)
            if ok and math.isnan(want):
                assert math.isnan(val), (row, z)  # of either sign
            elif ok:
                assert _bits(val) == _bits(want), (row, z)

    def test_edge_and_nonfinite_rows(self):
        rows = [row for case in _EDGE_CASES.values() for row in case[0]] + _NONFINITE
        zs = {None, 0.0, 1.0, -1.0, 0.5, 5.0}
        zs |= {e for case in _EDGE_CASES.values() for ends in case[1].values() for e in ends}
        self._assert_matches_scalar(rows, sorted(zs, key=lambda z: (z is not None, z)))

    def test_per_row_endpoints(self):
        # one endpoint per row, inf (None) among them, under one row per
        # endpoint and under one row for all
        rows = [row for case in _EDGE_CASES.values() for row in case[0]] + _NONFINITE
        edges = [None, 0.0, -0.0, 1.0, -1.0, 5.0] + _ulps(1e-9) + _ulps(1e9) + _ulps(-1e9)
        zs = [edges[i % len(edges)] for i in range(len(rows))]
        assert len(rows) > 2 * len(edges)
        z = np.array([0.0 if e is None else e for e in zs])
        finite = np.array([e is not None for e in zs])
        mats = np.array(rows, dtype=np.complex128).reshape(-1, 4)
        self._assert_rows_match(mats, zs, *growth._image_endpoints(mats, z, finite))
        for row in (mats[:1], mats[-1:], np.array([[2.0, 1.0, 3.0, 2.0]], dtype=np.complex128)):
            self._assert_rows_match(np.repeat(row, len(zs), axis=0), zs,
                                    *growth._image_endpoints(row, z, finite))

    @pytest.mark.parametrize("entry", ["gamma", "boundary"])
    def test_grid_lift_ball_and_inverses(self, entry):
        surface = helpers.surface_for(1, 3.0)
        radius = 4.5 * helpers.r_achieved_for(1, 3.0)
        _, gens, axes = growth._entry_frame(surface, _entry(surface, entry))
        axes = helpers.axis_pairs(axes)
        cap = radius + 1.0 + max(helpers.base_distance(*ends) for ends in axes.values())
        ball = enumerate_ball(gens, BallLimit(max_displacement=cap, max_count=200_000))
        assert 500 < len(ball) < 20_000
        inverses = ball.mats[:, [3, 1, 2, 0]] * np.array([1, -1, -1, 1])
        zs = [None, 0.0] + [e for ends in axes.values() for e in ends]
        self._assert_matches_scalar(np.concatenate([ball.mats, inverses]), zs)

    def test_rejected_rows_are_not_evaluated_again(self, monkeypatch):
        surface = helpers.surface_for(1, 3.0)
        radius = 4.5 * helpers.r_achieved_for(1, 3.0)
        frame, gens, axes = growth._entry_frame(surface, surface.gamma_matrix())
        ball = enumerate_ball(gens, BallLimit(max_displacement=radius + 3.0, max_count=50_000))
        calls = {"endpoints": 0, "map": 0}
        image_endpoints, moebius_map = growth._image_endpoints, growth.MoebiusMap

        def endpoints(mats, z, *finite):
            calls["endpoints"] += np.broadcast(mats[:, 0], z).size
            return image_endpoints(mats, z, *finite)

        def built(*args, **kwargs):
            calls["map"] += 1
            return moebius_map(*args, **kwargs)

        monkeypatch.setattr(growth, "_image_endpoints", endpoints)
        monkeypatch.setattr(growth, "MoebiusMap", built)
        got = growth._select_lifts(ball.mats, axes, radius, frame.inverse(),
                                   _closed_window(radius))
        # four image endpoints per row, two standard-coordinate endpoints
        # per kept lift, and no map built row by row
        kept = len(got.gap)
        assert 10 < kept < len(ball) // 5
        assert calls == {"endpoints": 4 * len(ball) + 2 * kept, "map": 0}


def _entry(surface, kind):
    return surface.gamma_matrix() if kind == "gamma" else surface.boundary_matrix()


def _selection_over_ball(surface, kind, radius, cap, max_count):
    """The lifts _select_lifts takes from the displacement ball of the
    entry frame's generators to `cap`, in the window |axial| <= radius + 1,
    as helpers.lift_rows, and that ball."""
    frame, gens, axes = growth._entry_frame(surface, _entry(surface, kind))
    ball = enumerate_ball(gens, BallLimit(max_displacement=cap, max_count=max_count))
    return helpers.lift_rows(growth._select_lifts(ball.mats, axes, radius, frame.inverse(),
                                                  _closed_window(radius))), ball


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
        axes = helpers.axis_pairs(growth._entry_frame(surface, _entry(surface, kind))[2])
        cap = 2.0 * radius + 1.5 + max(helpers.base_distance(*e) for e in axes.values())
        want, ball = _selection_over_ball(surface, kind, radius, cap, 2_000_000)
        assert not ball.truncated and not lift_ball.truncated
        assert len(ball) > 10 * lift_ball.elements
        assert len(want) > 20
        keys = sorted((c.kind, helpers.geodesic_key(*c.ends)) for c in helpers.lift_rows(got))
        assert keys == sorted((c.kind, helpers.geodesic_key(*c.ends)) for c in want)

    @pytest.mark.parametrize("key", [(1, 3.0), (2, 3.0), (2, 4.0), (2, 5.0)])
    @pytest.mark.parametrize("kind", ["gamma", "boundary"])
    def test_no_lift_of_the_count_capped_ball_is_lost(self, key, kind):
        # the lists taken from 200,000-element balls to 2R + 3, cut by
        # their count cap, hold nothing the new lists lack (below genus 3)
        surface = helpers.surface_for(*key)
        radius = 4.5 * helpers.r_achieved_for(*key)
        got, lift_ball = growth._lift_candidates(surface, _entry(surface, kind), radius,
                                                 200_000)
        got = helpers.lift_rows(got)
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
        got = helpers.lift_rows(got)
        axes = helpers.axis_pairs(growth._entry_frame(surface, entry)[2])
        ell = entry.translation_length()

        def framed(c):
            ends = [helpers.image_endpoint(c.m, e) for e in axes[c.kind]]
            return SimpleNamespace(kind=c.kind, ends=ends)

        listed = [framed(c) for c in got]
        moved = []
        for c in listed:
            u, v = c.ends
            if u is None or v is None or helpers.vertical_gap(u, v) < growth.GAP_TOL:
                continue
            axial = 0.5 * math.log(abs(u * v))
            for sign in (1, -1):
                if abs(axial + sign * ell) <= radius + 1.0 - 1e-6:
                    scale = math.exp(sign * ell)
                    moved.append(SimpleNamespace(kind=c.kind, ends=[u * scale, v * scale]))
        assert len(moved) > len(got)
        # the endpoint key quantises x / (1 + |x|) in steps of about 1e-6,
        # so toward either end of the axis a lift can share its key with a
        # distinct lift, which the dedup keeps instead
        keys = {helpers.geodesic_key(*c.ends) for c in listed}
        merged = _unmatched(moved, listed, 1e-9)
        for c in merged:
            assert helpers.geodesic_key(*c.ends) in keys
            assert not 1e-3 < abs(c.ends[0]) < 1e3
        assert len(merged) <= 0.01 * len(moved)


class TestLiftBallRecord:
    def test_record_shows_what_is_not_certified(self):
        surface = helpers.surface_for(1, 3.0)
        radius = 4.5 * helpers.r_achieved_for(1, 3.0)
        entry = surface.boundary_matrix()
        _, rec = growth._lift_candidates(surface, entry, radius, 200_000)
        axes = helpers.axis_pairs(growth._entry_frame(surface, entry)[2])
        assert rec.cap == radius + 1.0 + max(helpers.base_distance(*e) for e in axes.values())
        assert not rec.truncated and rec.complete_radius == rec.cap
        # the band claims the whole cap, yet the ball lacks the inverses
        # of some of its own words, well inside it
        assert rec.missing_inverses > 0
        assert rec.min_missing_disp < rec.cap - 1.0
        _, small = growth._lift_candidates(surface, entry, radius, 100)
        assert small.truncated and small.elements <= 100
        assert small.complete_radius < small.cap

    @pytest.mark.parametrize("budget", [200_000, 100])
    @pytest.mark.parametrize("kind", ["gamma", "boundary"])
    @pytest.mark.parametrize("key", [(1, 3.0), (2, 3.0), (2, 4.0), (3, 5.0)], ids=str)
    def test_record_matches_word_set_oracle(self, monkeypatch, key, kind, budget):
        # the child-table walk against a set of the ball's spelled words,
        # and against the searchsorted walk it replaced, on the lift balls
        # of the benchmark's grid keys
        surface = helpers.surface_for(*key)
        balls = []
        enumerate_ball = growth.enumerate_ball

        def recorded(gens, limit):
            balls.append(enumerate_ball(gens, limit))
            return balls[-1]

        monkeypatch.setattr(growth, "enumerate_ball", recorded)
        _, rec = growth._lift_candidates(surface, _entry(surface, kind),
                                         4.5 * helpers.r_achieved_for(*key), budget)
        (ball,) = balls
        missing, least = helpers.scalar_missing_inverses(ball)
        assert helpers.search_missing_inverses(ball) == (missing, least)
        assert rec == growth.LiftBall(elements=len(ball), cap=rec.cap,
                                      complete_radius=ball.complete_radius,
                                      truncated=ball.truncated, missing_inverses=missing,
                                      min_missing_disp=least)
        assert ball.truncated == (budget == 100)

    def test_missing_inverse_through_a_band_row(self):
        # (2,) is a band row: it prefixes the element (2, 1) but is none.
        # The walk for (-2,)^-1 ends there, the ball's one missing inverse;
        # the walk for (-1, -2)^-1 = (2, 1) passes it
        spelled = [(), (1,), (-1,), (-2,), (2, 1), (-1, -2)]
        ball = BallResult(mats=np.zeros((6, 4), dtype=np.complex128),
                          words=helpers.words_of(spelled, (1, 2, -1, -2)),
                          disps=np.array([0.0, 1.0, 1.0, 2.5, 3.0, 3.0]),
                          sigmas=np.zeros(6, dtype=np.int64), complete_radius=4.0)
        assert ball.words.parents.tolist() == [-1, 0, 0, 0, 0, 2, 3]
        assert ball.words.rows.tolist() == [0, 1, 3, 4, 5, 6]
        rec = growth._lift_ball(ball, 4.0)
        assert (rec.missing_inverses, rec.min_missing_disp) == (1, 2.5)
        assert helpers.scalar_missing_inverses(ball) == (1, 2.5)
        assert helpers.search_missing_inverses(ball) == (1, 2.5)


_GRID_KEYS = sorted({helpers.grid_key(*k) for k in helpers.GRID})


@functools.lru_cache(maxsize=None)
def _grid_tree(key):
    """The strata tree of `key` as report.bound_checks builds it."""
    return build_strata_tree(helpers.hnn_for(*key), 4.5 * helpers.r_achieved_for(*key),
                             max_depth=4)


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

    @pytest.mark.parametrize("key", _GRID_KEYS, ids=str)
    def test_grid_trees_are_in_depth_first_preorder(self, key):
        # each node's parent is the last node before it one level up,
        # which leaf_count_check's one mask per depth relies on
        nodes = helpers.tree_rows(_grid_tree(key))
        last = {0: 0}
        for m, node in enumerate(nodes[1:], start=1):
            assert node.parent == last[node.depth - 1]
            last[node.depth] = m

    @pytest.mark.parametrize("key", _GRID_KEYS, ids=str)
    def test_grid_tables_match_per_node_oracle(self, key):
        tree, r = _grid_tree(key), helpers.r_achieved_for(*key)
        assert len(tree) > 100
        assert leaf_count_check(tree, r) == helpers.per_node_leaf_table(tree, r)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_endpoints_match_per_node_oracle(self, seed):
        # a random tree in preorder whose geodesics share endpoints, or
        # miss them by an ulp, so that targets sit on the edges of the
        # disks' intervals that each node tests
        rng = np.random.default_rng(seed)
        values = rng.uniform(-3.0, 2.5, 10).tolist()
        values += [float(np.nextafter(x, np.inf)) for x in values[:4]] + [None, 0.0]
        nodes = [helpers.StrataNode(parent=-1, depth=0, d=0.0, gap=0.0, proj=())]
        last = [0]
        for m in range(1, 600):
            depth = int(rng.integers(1, min(len(last), 5) + 1))
            e1, e2 = rng.choice(len(values), 2, replace=False).tolist()
            nodes.append(helpers.StrataNode(parent=last[depth - 1], depth=depth,
                                            d=float(rng.uniform(0.0, 5.0)), gap=1.0,
                                            proj=(values[e1], values[e2])))
            last[depth:] = [m]
        tree = helpers.strata_tree(nodes)
        table = leaf_count_check(tree, 1.0)
        assert table == helpers.per_node_leaf_table(tree, 1.0)
        assert max(row.leaves_at_d for row in table.rows) > 3

    def test_targets_on_the_ends_of_a_disks_interval(self, monkeypatch):
        # chart endpoints at c - r and c + r as rounded, which the
        # separation test, rounding too, can count inside the disk: each
        # node tests the targets whose first endpoint lies in that interval,
        # both ends included
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-5.0, 5.0, (2, 20_000)) + 20.0 * np.arange(20_000)  # apart
        c, rad = (a + b) / 2.0, np.abs(a - b) / 2.0
        nodes = [helpers.StrataNode(parent=-1, depth=0, d=0.0, gap=0.0, proj=())]
        used = set()
        for x in (c - rad, c + rad):
            edge = [k for k in np.flatnonzero((x - c) ** 2 < rad * rad).tolist()
                    if k not in used][:10]
            used.update(edge)
            for k in edge:
                for proj in ((a[k], b[k]), (x[k], c[k])):
                    nodes.append(helpers.StrataNode(parent=0, depth=1, d=1.0, gap=1.0,
                                                    proj=proj))
        assert len(nodes) == 41
        monkeypatch.setattr(growth, "_finite_chart", lambda ends, finite: (100j, ends))
        tree = helpers.strata_tree(nodes)
        table = leaf_count_check(tree, 1.0)
        assert table == helpers.per_node_leaf_table(tree, 1.0)
        assert sum(row.leaves_at_d == 2 for row in table.rows) == 20

    def test_memory_grows_with_depth_not_nodes(self):
        # one chain mask per node took 32 MB here
        key = (2, 5.0)
        tree, r = _grid_tree(key), helpers.r_achieved_for(*key)
        assert len(tree) > 5000
        _, peak = helpers.traced_peak(lambda: leaf_count_check(tree, r))
        assert peak <= 2e6

    def test_chart_without_admissible_shift(self):
        # an endpoint within 1e-6 of each shift of z -> -1/(z - s)
        shifts = growth._CHART_SHIFTS
        ends = np.array([[shifts[0] + 5e-7, 0.5], [shifts[1] - 5e-7, shifts[2] + 9e-7]])
        finite = np.ones((2, 2), dtype=bool)
        with pytest.raises(NumericError, match="no admissible chart shift"):
            growth._finite_chart(ends, finite)
        # one shift left free: its images, 0 at inf
        z0, images = growth._finite_chart(ends[:1], np.array([[True, False]]))
        assert images.tolist() == [[-1.0 / (ends[0, 0] - shifts[1]), 0.0]]
        assert z0 == complex(shifts[1] / (1.0 + shifts[1] ** 2), 1.0 / (1.0 + shifts[1] ** 2))

    def test_nodes_out_of_preorder_rejected(self):
        # a depth-2 node moved under the first depth-1 node, whose
        # subtree ended before a later depth-1 node
        tree = _grid_tree((1, 3.0))
        assert tree.depth[1] == 1
        k = int(np.flatnonzero((tree.depth == 2) & (tree.parent > 1))[0])
        moved = dataclasses.replace(tree, parent=tree.parent.copy())
        moved.parent[k] = 1
        with pytest.raises(ValueError, match="preorder"):
            leaf_count_check(moved, 1.0)


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
