"""Unit tests for the stable-letter extension."""

import cmath
import math
import random

import pytest

import helpers
from kleindim.errors import LengthMismatch, PlanesDisjoint
from kleindim.hnn import (HnnPresentation, build_hnn, plane_angle,
                          solve_stable_letter)
from kleindim.moebius import MoebiusMap
from kleindim.surface import one_holed_torus_rep
from kleindim.words import free_reduce, surface_boundary_word, word_inverse


class TestSolveStableLetter:
    def test_defining_conditions_torus(self):
        rep = helpers.hnn_for(1, 3.0)
        assert rep.relator_residual() <= 1e-9
        assert plane_angle(rep.T) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_zero_rotation_preserves_plane(self):
        surface = helpers.surface_for(1, 3.0)
        t0 = solve_stable_letter(surface, rotation=0.0)
        conj = t0 @ surface.boundary_matrix() @ t0.inverse()
        assert conj.dist(surface.gamma_matrix()) <= 1e-9
        assert plane_angle(t0) == pytest.approx(0.0, abs=1e-9)

    def test_stable_letter_is_loxodromic(self):
        rep = helpers.hnn_for(1, 3.0)
        assert rep.T.is_loxodromic()

    def test_length_mismatch_rejected(self):
        surface = one_holed_torus_rep(1.0, 1.1)
        with pytest.raises(LengthMismatch):
            solve_stable_letter(surface)


class TestEvaluateWord:
    def test_empty_word(self):
        rep = helpers.hnn_for(1, 3.0)
        assert rep.evaluate(()).dist(MoebiusMap.identity()) <= 1e-12

    def test_relator_word_near_identity(self):
        rep = helpers.hnn_for(1, 3.0)
        relator = rep.evaluate(helpers.relator_word(rep))
        assert relator.dist(MoebiusMap.identity()) <= 1e-7

    def test_homomorphism_on_random_words(self):
        rep = helpers.hnn_for(1, 3.0)
        rng = random.Random(0)
        letters = [1, -1, 2, -2, 3, -3]
        for _ in range(20):
            u = tuple(rng.choice(letters) for _ in range(3))
            v = tuple(rng.choice(letters) for _ in range(3))
            lhs = rep.evaluate(u + v)
            rhs = rep.evaluate(u) @ rep.evaluate(v)
            assert lhs.dist(rhs) <= 1e-8


class TestPlaneAngle:
    def test_real_map_preserves_plane(self):
        assert plane_angle(MoebiusMap(2.0, 1.0, 1.0, 1.0)) == pytest.approx(0.0)

    def test_quarter_rotation(self):
        t = MoebiusMap.diagonal(cmath.exp(1j * math.pi / 4.0))
        assert plane_angle(t) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_general_rotation_angle(self):
        for angle in (0.3, 1.0, 1.4):
            t = MoebiusMap.vertical_rotation(angle)
            assert plane_angle(t) == pytest.approx(angle, abs=1e-9)

    def test_disjoint_planes_detected(self):
        t = MoebiusMap(1.0, 2j, 0.0, 1.0)  # z -> z + 2i
        with pytest.raises(PlanesDisjoint):
            plane_angle(t)

    def test_tangent_image_circle_detected(self):
        t = MoebiusMap(0.0, 1.0, 1.0, -1j)  # z -> 1/(z - i), image circle through 0
        with pytest.raises(PlanesDisjoint):
            plane_angle(t)

    @staticmethod
    def _real_map(rng):
        """A random real Mobius map, of either determinant sign; it
        preserves the real line."""
        while True:
            entries = [rng.uniform(-2.0, 2.0) for _ in range(4)]
            if abs(entries[0] * entries[3] - entries[1] * entries[2]) > 0.1:
                return MoebiusMap(*entries)

    def test_invariant_under_real_maps(self):
        rng = random.Random(5)
        for _ in range(200):
            t = MoebiusMap(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
            p, q = self._real_map(rng), self._real_map(rng)
            try:
                angle = plane_angle(t)
            except PlanesDisjoint:
                with pytest.raises(PlanesDisjoint):
                    plane_angle(p @ t @ q)
                continue
            assert plane_angle(p @ t @ q) == pytest.approx(angle, abs=1e-12)

    def test_rotation_about_a_geodesic_in_the_plane(self):
        # q R(alpha) q^-1 turns the plane by alpha about q's image of the
        # vertical axis, which lies in the plane
        rng = random.Random(6)
        for alpha in [rng.uniform(1e-3, math.pi / 2.0) for _ in range(50)] + [math.pi / 2.0]:
            q = self._real_map(rng)
            t = MoebiusMap.vertical_rotation(alpha).conjugate_by(q)
            assert plane_angle(t) == pytest.approx(alpha, abs=1e-12)


class TestConjugationInvariance:
    def test_diagnostics_stable_under_real_conjugation(self):
        # conjugating by a plane-preserving map transports the reference
        # plane to itself, so both diagnostics must be unchanged
        surface = helpers.surface_for(1, 3.0)
        rep = build_hnn(surface)
        q = MoebiusMap(1.0, 0.5, 0.5, 2.0)
        tq = rep.T.conjugate_by(q)
        a = surface.gamma_matrix().conjugate_by(q)
        w = surface.boundary_matrix().conjugate_by(q)
        residual = (tq @ w @ tq.inverse()).dist(a)
        assert residual <= 1e-8
        assert plane_angle(tq) == pytest.approx(math.pi / 2.0, abs=1e-8)


class TestNormalForm:
    @staticmethod
    def _setup(g):
        pres = HnnPresentation(g, surface_boundary_word(g))
        tau = pres.stable_letter
        w = surface_boundary_word(g)
        rel = (1, tau) + word_inverse(w) + (-tau,)
        rotations = [rel[i:] + rel[:i] for i in range(len(rel))]
        return pres, tau, w, rotations + [word_inverse(r) for r in rotations]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_relators_are_trivial(self, g):
        pres, _, _, relators = self._setup(g)
        for r in relators:
            assert pres.normal_form(r) == pres.identity()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_invariant_under_relator_insertion(self, g):
        pres, tau, _, relators = self._setup(g)
        letters = [x for x in range(-tau, tau + 1) if x]
        rng = random.Random(g)
        for _ in range(500):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            nf = pres.normal_form(w)
            i = rng.randint(0, len(w))
            assert pres.normal_form(w[:i] + rng.choice(relators) + w[i:]) == nf
            assert pres.normal_form(w + word_inverse(w)) == pres.identity()
            # the normal form spells the same element
            assert pres.normal_form(helpers.to_word(nf)) == nf

    def test_base_group_embeds(self):
        pres, _, _, _ = self._setup(2)
        for w in [(1,), (2, -1, 3), (1, 2, -1, -2, 3, 4, -3, -4)]:
            assert helpers.to_word(pres.normal_form(w)) == w

    @pytest.mark.parametrize("g", [1, 2])
    def test_coset_ties_resolved_once(self, g):
        # y and y W^-1 are both shortest in the coset y <W> when y is the
        # second half of W; reached from either side, y tau^-1 = (y W^-1)
        # tau^-1 a_1 must get one normal form
        pres, tau, w, _ = self._setup(g)
        y = w[2 * g:]
        z = free_reduce(y + word_inverse(w))
        assert len(z) == len(y)
        assert pres.normal_form(y + (-tau,)) == pres.normal_form(z + (-tau, 1))

    def test_conjugation_rules(self):
        pres, tau, w, _ = self._setup(1)
        # tau W^2 tau^-1 = a_1^2 and tau^-1 a_1^-1 tau = W^-1
        assert helpers.to_word(pres.normal_form((tau,) + w * 2 + (-tau,))) == (1, 1)
        assert helpers.to_word(pres.normal_form((-tau, -1, tau))) == word_inverse(w)
        # no pinch: tau^-1 W tau is already reduced
        assert len(helpers.to_word(pres.normal_form((-tau,) + w + (tau,)))) == 6
