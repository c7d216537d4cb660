"""Unit tests for the Fuchsian surface-representation builders."""

import math

import pytest

import helpers
from kleindim.errors import NoDiscreteSolution
from kleindim.moebius import MoebiusMap
from kleindim.surface import (SurfaceRep, _diag_frame_raw, _pants_raw,
                              _torus_rep_from_traces, _wrap, collar_width,
                              fn_surface_rep, one_holed_torus_rep)

COLLAR_FLOOR = math.asinh(1.0 / math.sinh(0.5))  # collar lemma, length-1 curve


def pants_rep(l1, l2, l3):
    """The extended-precision pants of the gluing, as double-precision maps."""
    return [_wrap(m) for m in _pants_raw(l1, l2, l3)]


class TestPantsRep:
    def test_normal_form_traces(self):
        l1 = 2.0 * math.acosh(1.5)  # cuff trace -3
        X, Y = pants_rep(l1, 1.0, 1.0)
        assert abs(X.trace()) == pytest.approx(3.0, abs=1e-12)
        assert abs(Y.trace()) == pytest.approx(2.0 * math.cosh(0.5), abs=1e-12)

    def test_product_trace_and_zeta(self):
        # third cuff trace -3 comes from zeta = (3 + sqrt 5)/2
        l3 = 2.0 * math.acosh(1.5)
        X, Y = pants_rep(1.0, 1.0, l3)
        assert abs((X @ Y).trace()) == pytest.approx(3.0, abs=1e-10)

    def test_cuff_lengths_realized(self):
        X, Y = pants_rep(1.0, 2.0, 3.0)
        assert X.translation_length() == pytest.approx(1.0, abs=1e-12)
        assert Y.translation_length() == pytest.approx(2.0, abs=1e-12)
        assert (X @ Y).translation_length() == pytest.approx(3.0, abs=1e-10)

    def test_positive_lengths_required(self):
        # a zero-length cuff is parabolic: the gluing finds no frame for it
        X, _ = _pants_raw(0.0, 1.0, 1.0)
        with pytest.raises(NoDiscreteSolution):
            _diag_frame_raw(X)


class TestOneHoledTorus:
    def test_trace_solution(self):
        rep = one_holed_torus_rep(1.0, 1.0)
        x = 2.0 * math.cosh(0.5)
        a, b = rep.generators
        assert abs(a.trace()) == pytest.approx(x, abs=1e-9)
        comm = rep.boundary_matrix()
        assert abs(comm.trace()) == pytest.approx(x, abs=1e-9)

    def test_lengths(self):
        rep = one_holed_torus_rep(1.0, 1.0)
        assert rep.gamma_matrix().translation_length() == pytest.approx(1.0, abs=1e-9)
        assert rep.boundary_matrix().translation_length() == pytest.approx(1.0, abs=1e-9)

    def test_gamma_axis_is_vertical(self):
        rep = one_holed_torus_rep(1.0, 1.0)
        a = rep.gamma_matrix()
        assert abs(a.b) <= 1e-9 and abs(a.c) <= 1e-9

    def test_no_discrete_solution_paths(self):
        with pytest.raises(NoDiscreteSolution):
            _torus_rep_from_traces(3.0, -1.0)  # commutator trace above -2
        with pytest.raises(NoDiscreteSolution):
            _torus_rep_from_traces(1.5, -3.0)  # interior trace below 2


class TestSurfaceRep:
    def test_generator_count_enforced(self):
        v = MoebiusMap.vertical_translation(1.0)
        with pytest.raises(ValueError):
            SurfaceRep(2, [v, v])

    def test_real_entries_enforced(self):
        v = MoebiusMap.vertical_translation(1.0)
        rot = MoebiusMap.vertical_rotation(0.5)
        with pytest.raises(ValueError):
            SurfaceRep(1, [v, rot])

    def test_boundary_matrix_matches_word(self):
        rep = one_holed_torus_rep(1.0, 1.0)
        direct = rep.evaluate((1, 2, -1, -2))
        assert rep.boundary_matrix().dist(direct) <= 1e-12


class TestFnSurfaceRep:
    @pytest.mark.parametrize("g", [2, 3])
    def test_structural_invariants(self, g):
        rep = helpers.surface_for(g, 3.0)
        assert len(rep.generators) == 2 * g
        assert rep.gamma_matrix().translation_length() == pytest.approx(1.0, abs=1e-9)
        assert rep.boundary_matrix().translation_length() == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.boundary_matrix().trace()) == pytest.approx(
            2.0 * math.cosh(0.5), abs=1e-9)
        assert all(res <= 1e-8 for res in rep.gluing_residuals)

    def test_genus_one_delegates_to_torus_solver(self):
        rep = fn_surface_rep(1, 3.0)
        assert rep.genus == 1
        assert rep.gamma_matrix().translation_length() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_genus(self):
        with pytest.raises(ValueError):
            fn_surface_rep(0, 3.0)


class TestAxisNormalization:
    """At genus >= 2 the designated curve's axis is {-1, +1}, and the
    translation along it leaves the least summed squared generator
    entries."""

    KEYS = [(2, 3.0), (2, 5.0), (3, 5.0)]

    @pytest.mark.parametrize("key", KEYS)
    def test_axis_endpoints(self, key):
        ends = helpers.surface_for(*key).gamma_matrix().fixed_points()
        assert sorted(p.z.real for p in ends) == pytest.approx([-1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("key", KEYS)
    def test_translation_minimizes_entries(self, key):
        gens = helpers.surface_for(*key).generators

        def cost(s):
            k = helpers.axis_translation(-1.0, 1.0, s)
            return sum(abs(x) ** 2 for g in gens for x in g.conjugate_by(k).entries())

        best = cost(0.0)
        assert cost(1e-6) >= best and cost(-1e-6) >= best


class TestCollarWidth:
    def test_cyclic_rep_has_no_competitor(self):
        v = MoebiusMap.vertical_translation(1.0)
        rep = SurfaceRep(1, [v, v])
        report = collar_width(rep, (1,))
        assert report.measured_halfwidth == math.inf

    def test_collar_lemma_floor(self):
        rep = helpers.surface_for(1, 3.0)
        report = collar_width(rep, (1,))
        assert report.measured_halfwidth >= COLLAR_FLOOR - 1e-6

    def test_conjugation_invariance(self):
        rep = helpers.surface_for(1, 3.0)
        q = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        conj = SurfaceRep(1, [g.conjugate_by(q) for g in rep.generators])
        a = collar_width(rep, (1,)).measured_halfwidth
        b = collar_width(conj, (1,)).measured_halfwidth
        assert b == pytest.approx(a, abs=1e-9)

    def test_interior_length_trend(self):
        # widening the interior cuffs cannot shrink the designated collar
        r3 = helpers.r_achieved_for(2, 3.0)
        r5 = helpers.r_achieved_for(2, 5.0)
        assert r5 >= r3 - 1e-9

