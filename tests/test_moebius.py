"""Unit tests for the Mobius-map and hyperbolic-metric primitives."""

import cmath
import math
import random

import numpy as np
import pytest

import helpers
from kleindim import _core
from kleindim.errors import ElementNotLoxodromic, NumericError
from kleindim.moebius import BASEPOINT, INF, HPoint, MoebiusMap, SpherePoint, chordal, hdist


def _random_map(rng):
    while True:
        a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
        if abs(a * d - b * c) > 1e-3:
            return MoebiusMap(a, b, c, d)


class TestChordal:
    def test_zero_to_infinity_is_sphere_diameter(self):
        assert chordal(SpherePoint(0j), INF) == pytest.approx(2.0)

    def test_zero_to_one(self):
        assert chordal(SpherePoint(0j), SpherePoint(1 + 0j)) == pytest.approx(math.sqrt(2.0))

    def test_symmetric(self):
        p, q = SpherePoint(2 + 1j), SpherePoint(-0.5j)
        assert chordal(p, q) == chordal(q, p)

    def test_matches_r3_embedding(self):
        rng = random.Random(3)
        for _ in range(50):
            p = SpherePoint(complex(rng.gauss(0, 2), rng.gauss(0, 2)))
            q = SpherePoint(complex(rng.gauss(0, 2), rng.gauss(0, 2)))
            dx = helpers.scalar_xyz(p.z) - helpers.scalar_xyz(q.z)
            assert chordal(p, q) == pytest.approx(math.sqrt(sum(x * x for x in dx)))


class TestHdist:
    def test_horizontal_oracle(self):
        # cosh d = 1 + |3|^2 / 2 = 5.5
        assert hdist(HPoint(0j, 1.0), HPoint(3 + 0j, 1.0)) == pytest.approx(
            math.acosh(5.5), abs=1e-12)

    def test_vertical_is_log_ratio(self):
        assert hdist(HPoint(0j, 1.0), HPoint(0j, math.e)) == pytest.approx(1.0, abs=1e-12)

    def test_height_must_be_positive(self):
        with pytest.raises(ValueError):
            HPoint(0j, 0.0)


class TestMoebiusBasics:
    def test_det_normalized(self):
        m = MoebiusMap(2, 0, 0, 2)
        assert m.det() == pytest.approx(1.0)

    def test_sign_canonical_identifies_pm(self):
        rng = random.Random(1)
        for _ in range(25):
            m = _random_map(rng)
            n = MoebiusMap(-m.a, -m.b, -m.c, -m.d)
            assert m.dist(n) <= 1e-12

    def test_compose_inverse_is_identity(self):
        rng = random.Random(2)
        for _ in range(25):
            m = _random_map(rng)
            assert (m @ m.inverse()).dist(MoebiusMap.identity()) <= 1e-10

    def test_singular_matrix_is_a_numeric_error(self):
        # a package error, which the CLI maps to exit 3, and a ValueError
        with pytest.raises(NumericError) as info:
            MoebiusMap(1, 2, 2, 4)
        assert isinstance(info.value, ValueError)

    def test_apply_is_projective_action(self):
        m = MoebiusMap(1, 1, 1, 2)  # z -> (z+1)/(z+2)
        assert m.apply(SpherePoint(0j)).z == pytest.approx(0.5)
        assert m.apply(INF).z == pytest.approx(1.0)
        assert m.apply(SpherePoint(-2 + 0j)).infinite

    def test_apply_hpoint_preserves_distance(self):
        rng = random.Random(4)
        p = HPoint(0.3 + 0.1j, 0.7)
        q = HPoint(-1 + 2j, 2.5)
        for _ in range(25):
            m = _random_map(rng)
            assert hdist(m.apply(p), m.apply(q)) == pytest.approx(hdist(p, q), abs=1e-9)


class TestClassification:
    def test_vertical_translation_length(self):
        m = MoebiusMap.diagonal(cmath.exp(0.5))
        assert m.trace().real == pytest.approx(2.0 * math.cosh(0.5))
        assert m.translation_length() == pytest.approx(1.0, abs=1e-12)

    def test_rotation_not_loxodromic(self):
        m = MoebiusMap.vertical_rotation(0.7)
        assert not m.is_loxodromic()
        with pytest.raises(ElementNotLoxodromic):
            m.translation_length()

    def test_translation_length_conjugation_invariant(self):
        rng = random.Random(5)
        m = MoebiusMap.vertical_translation(1.7)
        for _ in range(25):
            q = _random_map(rng)
            assert m.conjugate_by(q).translation_length() == pytest.approx(
                1.7, abs=1e-9)

    def test_fixed_points_diagonal(self):
        att, rep = MoebiusMap.diagonal(2.0).fixed_points()
        assert att.infinite and rep.z == pytest.approx(0.0)

    def test_fixed_points_are_fixed(self):
        rng = random.Random(6)
        found = 0
        while found < 25:
            m = _random_map(rng)
            if not m.is_loxodromic():
                continue
            found += 1
            for p in m.fixed_points():
                assert chordal(m.apply(p), p) <= 1e-6

    def test_conjugator_to_standard(self):
        rng = random.Random(7)
        found = 0
        while found < 25:
            m = _random_map(rng)
            if not m.is_loxodromic():
                continue
            found += 1
            q = m.conjugator_to_standard()
            d = m.conjugate_by(q)
            assert abs(d.b) <= 1e-8 and abs(d.c) <= 1e-8
            assert abs(d.a) > 1.0  # attracting fixed point at infinity

    def test_displacement_matches_hdist(self):
        # the base-point displacement of each row of a ball
        rng = random.Random(8)
        maps = [_random_map(rng) for _ in range(25)]
        disps = _core.displacements(np.array([m.entries() for m in maps]))
        for m, d in zip(maps, disps.tolist()):
            assert d == pytest.approx(hdist(BASEPOINT, m.apply(BASEPOINT)), abs=1e-9)


class TestTraceIdentity:
    def test_commutator_trace_identity(self):
        # tr[A,B] = x^2 + y^2 + z^2 - xyz - 2 with x,y,z = tr A, tr B, tr AB.
        # The stored maps are canonical up to sign, so the commutator trace
        # is recomputed from one fixed lift of each factor.
        rng = random.Random(10)
        for _ in range(50):
            a, b = _random_map(rng), _random_map(rng)
            x, y = a.trace(), b.trace()
            ab = _mat_mul(a.entries(), b.entries())
            z = ab[0] + ab[3]
            comm = _mat_mul(_mat_mul(a.entries(), b.entries()),
                            _mat_mul(_mat_inv(a.entries()), _mat_inv(b.entries())))
            lhs = comm[0] + comm[3]
            rhs = x * x + y * y + z * z - x * y * z - 2.0
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)
