"""Unit tests for free-word utilities and word evaluation."""

import random

import pytest

from kleindim.moebius import MoebiusMap
from kleindim.words import (commutator_word, evaluate_word, free_reduce,
                            surface_boundary_word, word_inverse)


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((1, 2, -2, 3)) == (1, 3)

    def test_cascading_cancellation(self):
        assert free_reduce((1, 2, 3, -3, -2, -1, 4)) == (4,)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0, 2))

    def test_reduced_word_unchanged(self):
        w = (1, 2, 1, -2)
        assert free_reduce(w) == w


class TestWordInverse:
    def test_inverse(self):
        assert word_inverse((1, 2, -3)) == (3, -2, -1)

    def test_word_times_inverse_reduces_to_identity(self):
        w = (1, 2, -1, 3, 3)
        assert free_reduce(w + word_inverse(w)) == ()


class TestBoundaryWord:
    def test_genus_one(self):
        assert surface_boundary_word(1) == (1, 2, -1, -2)

    def test_genus_two(self):
        assert surface_boundary_word(2) == (1, 2, -1, -2, 3, 4, -3, -4)

    def test_commutator_word(self):
        assert commutator_word(3, 4) == (3, 4, -3, -4)


class TestEvaluateWord:
    def _gens(self, seed):
        rng = random.Random(seed)
        out = []
        while len(out) < 3:
            a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
            if abs(a * d - b * c) > 1e-2:
                out.append(MoebiusMap(a, b, c, d))
        return out

    def test_empty_word_is_identity(self):
        assert evaluate_word((), self._gens(0)).dist(MoebiusMap.identity()) <= 1e-12

    def test_single_letters(self):
        gens = self._gens(1)
        assert evaluate_word((2,), gens).dist(gens[1]) <= 1e-12
        assert evaluate_word((-3,), gens).dist(gens[2].inverse()) <= 1e-10

    def test_homomorphism(self):
        gens = self._gens(2)
        rng = random.Random(3)
        for _ in range(20):
            u = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(4))
            v = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(4))
            lhs = evaluate_word(u + v, gens)
            rhs = evaluate_word(u, gens) @ evaluate_word(v, gens)
            assert lhs.dist(rhs) <= 1e-8

    def test_reduction_before_evaluation(self):
        gens = self._gens(4)
        assert evaluate_word((1, 2, -2, -1), gens).dist(MoebiusMap.identity()) <= 1e-10

    def test_long_word_matches_sequential_product(self):
        gens = self._gens(5)
        rng = random.Random(6)
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(30))
        seq = MoebiusMap.identity()
        for letter in free_reduce(w):
            m = gens[letter - 1] if letter > 0 else gens[-letter - 1].inverse()
            seq = seq @ m
        assert evaluate_word(w, gens).dist(seq) <= 1e-6
