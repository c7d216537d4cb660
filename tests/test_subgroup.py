"""Unit tests for grading, truncated generators, and ball enumeration."""

import cmath
import copy
import functools
import math
import random
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import helpers
from kleindim import _core, growth, hnn, subgroup
from kleindim.moebius import MoebiusMap
from kleindim.report import RunConfig, truncation_ball
from kleindim.subgroup import BallLimit, FreeForms, enumerate_ball, truncated_generators
from kleindim.words import evaluate_word, free_reduce, surface_boundary_word, word_inverse


def _schottky_pair():
    # disjoint axes, large translation length: ping-pong, hence free
    return helpers.axis_translation(1.0, 3.0, 4.0), helpers.axis_translation(-1.0, -3.0, 4.0)


def _keys(mats):
    return {tuple(np.rint(np.asarray(row).view(float) * 1e6).astype(int))
            for row in mats}


class TestSigma:
    def test_stable_letter(self):
        assert helpers.sigma((3,), 3) == 1

    def test_surface_letters_vanish(self):
        assert helpers.sigma((2, -1), 3) == 0

    def test_exponent_sum(self):
        assert helpers.sigma((3, 1, -3, -3), 3) == -1

    def test_additivity(self):
        u, v = (3, 1, -3), (3, 3, 2)
        assert helpers.sigma(u + v, 3) == helpers.sigma(u, 3) + helpers.sigma(v, 3)


class TestTruncatedGenerators:
    def test_counts_and_grading(self):
        rep = helpers.hnn_for(1, 3.0)
        tau = rep.presentation.stable_letter
        for m in (0, 1, 2):
            tg = truncated_generators(rep, m)
            spelled = helpers.truncation_words(rep, m)
            assert len(tg.matrices) == len(spelled) == 2 * rep.surface.genus * (m + 1)
            assert all(helpers.sigma(w, tau) == 0 for w in spelled)
            # the spelling is the program's: each word evaluates to its
            # generator's matrix
            for w, mat in zip(spelled, tg.matrices):
                assert rep.evaluate(w).entries() == mat.entries()

    @pytest.mark.parametrize("key", [(1, 3.0), (3, 5.0)])
    def test_truncation_balls_have_grading_zero(self, key):
        # every generator tau^k gamma_i tau^-k has grading 0, so every
        # element of a truncation ball does
        rep = helpers.hnn_for(*key)
        for m in (0, 1, 2):
            ball = truncation_ball(rep, m, BallLimit(max_word_len=3, max_count=5_000))
            assert len(ball) > 1 and not ball.sigmas.any()

    def test_level_zero_is_surface_generators(self):
        rep = helpers.hnn_for(1, 3.0)
        tg = truncated_generators(rep, 0)
        for got, gen in zip(tg.matrices, rep.surface.generators):
            assert got.dist(gen) <= 1e-12

    def test_level_relation(self):
        # the conjugated boundary at level k+1 lands in the level-k group
        rep = helpers.hnn_for(1, 3.0)
        tau = rep.presentation.stable_letter
        w = rep.surface.boundary_word()
        for k in (0, 1):
            lhs = rep.evaluate((tau,) * (k + 1) + w + (-tau,) * (k + 1))
            rhs = rep.evaluate((tau,) * k + (1,) + (-tau,) * k)
            assert lhs.dist(rhs) <= 1e-9

    def test_negative_level_rejected(self):
        rep = helpers.hnn_for(1, 3.0)
        with pytest.raises(ValueError):
            truncated_generators(rep, -1)


class TestEnumerateBall:
    def test_cyclic_group_counts(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_word_len=3))
        assert len(ball) == 7  # identity and g^{+-1,+-2,+-3}

    def test_free_group_counts(self):
        a, b = _schottky_pair()
        ball2 = enumerate_ball([a, b], BallLimit(max_word_len=2))
        assert len(ball2) == 1 + 4 + 12
        ball3 = enumerate_ball([a, b], BallLimit(max_word_len=3))
        assert len(ball3) == 1 + 4 + 12 + 36

    def test_displacement_oracle(self):
        g = MoebiusMap.vertical_translation(1.0)
        ball = enumerate_ball([g], BallLimit(max_word_len=1))
        by_word = dict(zip(ball.words, ball.disps.tolist()))
        assert by_word[()] == 0.0
        assert by_word[(1,)] == pytest.approx(1.0, abs=1e-12)
        assert by_word[(-1,)] == pytest.approx(1.0, abs=1e-12)

    def test_completeness_certificate(self):
        a, b = _schottky_pair()
        ball = enumerate_ball([a, b], BallLimit(max_displacement=9.0))
        assert not ball.truncated
        assert ball.complete_radius == pytest.approx(9.0)
        assert float(np.max(ball.disps)) <= 9.0

    def test_count_cap_sets_truncated_flag(self):
        a, b = _schottky_pair()
        ball = enumerate_ball([a, b], BallLimit(max_word_len=6, max_count=30))
        assert ball.truncated
        assert len(ball) <= 30

    def test_deterministic_order(self):
        a, b = _schottky_pair()
        b1 = enumerate_ball([a, b], BallLimit(max_word_len=3))
        b2 = enumerate_ball([a, b], BallLimit(max_word_len=3))
        assert b1.words == b2.words
        assert np.array_equal(b1.mats, b2.mats)

    def test_sigma_propagation(self, monkeypatch):
        g = MoebiusMap.vertical_translation(1.0)
        h = helpers.axis_translation(1.0, 3.0, 4.0)
        ball = enumerate_ball([g, h], BallLimit(max_word_len=2),
                              sigma_values=[1, 0])
        for word, s in zip(ball.words, ball.sigmas.tolist()):
            assert s == helpers.sigma(word, 1)
        # an extension ball with every letter but one graded, with mixed
        # signs, against the row-by-row reference at any pass budget
        gens, limit, kwargs = _extension_args(
            (2, 4.0), BallLimit(max_displacement=9.0, max_count=3_000))
        kwargs["sigma_values"] = [2, -1, 0, 3, 1]
        want = helpers.reference_ball(gens, limit, **kwargs).sigmas
        assert len(want) > 500 and want.min() < 0 < want.max()
        for budget in (_core.PASS_BUDGET, 7):
            monkeypatch.setattr(_core, "PASS_BUDGET", budget)
            got = enumerate_ball(gens, limit, **kwargs).sigmas
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), budget

    def test_truncation_monotone_in_level(self):
        rep = helpers.hnn_for(1, 3.0)
        k0 = _keys(enumerate_ball(truncated_generators(rep, 0).matrices,
                                  BallLimit(max_word_len=2)).mats)
        k1 = _keys(enumerate_ball(truncated_generators(rep, 1).matrices,
                                  BallLimit(max_word_len=2)).mats)
        assert k0 <= k1

    def test_no_near_identity_elements(self):
        ball = truncation_ball(helpers.hnn_for(1, 3.0), 1, BallLimit(max_word_len=4))
        ident = MoebiusMap.identity()
        for word, entries in zip(ball.words, ball.mats.tolist()):
            if word:
                assert MoebiusMap(*entries, _normalized=True).dist(ident) > 1e-6

    def test_relator_merges_words(self):
        # tau W tau^-1 = a_1: at length 4g+1 = 5 words of the level-1
        # generators first meet a relation, so the ball falls short of the
        # free count however close the matrices of equal words come
        rep = helpers.hnn_for(1, 3.0)
        tg = truncated_generators(rep, 1)
        free = enumerate_ball(tg.matrices, BallLimit(max_word_len=5))
        ball = truncation_ball(rep, 1, BallLimit(max_word_len=5))
        spelled = helpers.BrittonTruncation(rep, 1).spelled
        forms = {rep.presentation.normal_form(spelled(w)) for w in ball.words}
        assert len(forms) == len(ball) < len(free)

    def test_normal_form_keys_keep_ball_discrete(self):
        # at (3, 5) relator rotations drift up to 1e-2 in floating point;
        # keyed by rounded matrices this ball filled a 300k cap with
        # copies of short elements (187 of displacement < 2)
        ball = truncation_ball(helpers.hnn_for(3, 5.0), 2,
                               BallLimit(max_displacement=12.5, max_count=300_000))
        assert not ball.truncated
        assert int(np.count_nonzero(ball.disps < 2.0)) == 3

    def test_unbounded_request_rejected(self):
        g = MoebiusMap.vertical_translation(1.0)
        with pytest.raises(ValueError):
            enumerate_ball([g], BallLimit())
        with pytest.raises(ValueError):
            enumerate_ball([], BallLimit(max_word_len=2))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_count_cap_below_one_rejected(self, cap):
        a, b = _schottky_pair()
        with pytest.raises(ValueError):
            enumerate_ball([a, b], BallLimit(max_displacement=4.0, max_count=cap))

    def test_count_cap_one_is_the_identity(self):
        a, b = _schottky_pair()
        ball = enumerate_ball([a, b], BallLimit(max_displacement=9.0, max_count=1))
        assert ball.words == [()]
        assert ball.truncated
        assert ball.complete_radius == 0.0

    def test_count_cap_two_stops_at_second_element(self):
        a, b = _schottky_pair()
        ball = enumerate_ball([a, b], BallLimit(max_displacement=9.0, max_count=2))
        assert ball.words == [(), (1,)]
        assert ball.truncated

    def test_zero_displacement_cap_is_a_cap(self):
        # a cap of 0.0 bounds the complete radius like any other cap
        g = MoebiusMap.vertical_translation(0.3)
        screw = MoebiusMap.diagonal(cmath.exp(complex(0.3, 1.0) / 2.0))
        h = screw.conjugate_by(MoebiusMap(1, 1, 0, 1))
        for cap in (0.0, 0.1):
            ball = enumerate_ball([g, h], BallLimit(max_displacement=cap, max_count=2))
            assert ball.truncated and ball.words == [()]
            assert ball.complete_radius == cap

    def test_count_growth_log_linear(self):
        a, b = _schottky_pair()
        ball = enumerate_ball([a, b], BallLimit(max_word_len=6))
        lens = [len(word) for word in ball.words]
        counts = [lens.count(k) for k in range(7)]
        # reduced words in a rank-2 free group: 4 * 3^(k-1)
        slopes = [math.log(counts[k + 1] / counts[k]) for k in range(2, 6)]
        for s in slopes:
            assert s == pytest.approx(math.log(3.0), abs=1e-9)


# -- the enumeration kernel against a sign fix of every row --------------

def _truncation(key, m):
    # a sample ball of the full run at a 10k element budget, cut by its
    # count cap
    return lambda: truncation_ball(helpers.hnn_for(*key), m,
                                   BallLimit(max_word_len=64, max_count=10_000 * (m + 1)))


def _extension_args(key, limit):
    # (gens, limit, keyword arguments) of an extension-group ball
    rep = helpers.hnn_for(*key)
    return rep.generators, limit, {"sigma_values": [0] * (2 * rep.surface.genus) + [1],
                                   "presentation": rep.presentation}


def _extension(key, radius):
    def make():
        gens, limit, kwargs = _extension_args(
            key, BallLimit(max_displacement=radius, max_count=1_000_000))
        return enumerate_ball(gens, limit, **kwargs)
    return make


def _surface_free(key, radius):
    return lambda: enumerate_ball(helpers.surface_for(*key).generators,
                                  BallLimit(max_displacement=radius, max_count=50_000))


ORACLE_BALLS = {
    **{f"truncation-{g}-{L:g}-m{m}": _truncation((g, L), m)
       for g, L in ((1, 3.0), (3, 5.0)) for m in (0, 1, 2)},
    "extension-3-5-R10": _extension((3, 5.0), 10.0),
    "surface-2-3-free": _surface_free((2, 3.0), 12.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BALLS))
def test_kernel_matches_sign_fix_of_every_row(monkeypatch, name):
    # expand without a sign fix, then fix_sign on the kept rows, gives the
    # ball that a sign fix of every product gives
    got = ORACLE_BALLS[name]()
    expand = _core.expand
    monkeypatch.setattr(_core, "expand", lambda left, right: _core.fix_sign(expand(left, right)))
    want = ORACLE_BALLS[name]()
    assert len(got) > 1000
    for field in ("mats", "disps", "sigmas"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.words == want.words
    for field in ("collisions", "numeric_drops", "skipped", "truncated", "complete_radius"):
        assert getattr(got, field) == getattr(want, field), field


# -- the band sieve against a keep-every-row oracle ----------------------

BALL_FIELDS = ("mats", "disps", "sigmas", "words", "complete_radius", "collisions",
               "truncated", "skipped", "numeric_drops")


def _orbit(key, m):
    # level m's orbit ball of the default full run
    config = RunConfig()
    return lambda: [truncation_ball(helpers.hnn_for(*key), m, BallLimit(
        max_displacement=config.radius, max_count=config.max_elements * (m + 1),
        max_word_len=config.word_budget))]


def _lift_balls(key):
    # the two balls growth._lift_candidates enumerates for the strata tree
    def make():
        surface = helpers.surface_for(*key)
        radius = 4.5 * helpers.r_achieved_for(*key)
        balls = []

        def recorded(gens, limit):
            balls.append(enumerate_ball(gens, limit))
            return balls[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(growth, "enumerate_ball", recorded)
            for entry in (surface.gamma_matrix(), surface.boundary_matrix()):
                growth._lift_candidates(surface, entry, radius, 200_000)
        return balls
    return make


SIEVE_BALLS = {
    "extension-3-5-R10": lambda: [_extension((3, 5.0), 10.0)()],
    **{f"orbit-{g}-{L:g}-m{m}": _orbit((g, L), m)
       for g, L in ((1, 3.0), (3, 3.0)) for m in (0, 1, 2)},
    "lifts-3-5": _lift_balls((3, 5.0)),
}


def _field_bytes(ball, field):
    value = getattr(ball, field)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name", sorted(SIEVE_BALLS))
def test_band_sieve_matches_keep_all_oracle(monkeypatch, name):
    # the balls with every product formed, the sieve keeping every row
    dropped = []
    sieve = subgroup._beyond_band

    def counted(frontier, gterms, band):
        far = sieve(frontier, gterms, band)
        dropped.append(int(np.count_nonzero(far)))
        return far

    monkeypatch.setattr(subgroup, "_beyond_band", counted)
    got = SIEVE_BALLS[name]()
    monkeypatch.setattr(subgroup, "_beyond_band", lambda frontier, gterms, band:
                        np.zeros((len(frontier), len(gterms[0])), dtype=bool))
    want = SIEVE_BALLS[name]()
    assert sum(dropped) > 0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) > 100
        for field in BALL_FIELDS:
            assert _field_bytes(g, field) == _field_bytes(w, field), field


# -- the pass budget ------------------------------------------------------

BUDGET_BALLS = {
    "free-2-3": _surface_free((2, 3.0), 10.0),
    # cut by its count cap inside a pass of the default budget
    "truncation-1-3-m2-capped": lambda: truncation_ball(
        helpers.hnn_for(1, 3.0), 2, BallLimit(max_word_len=64, max_count=5_000)),
    "extension-3-5-R9": _extension((3, 5.0), 9.0),
}


@pytest.mark.parametrize("name", sorted(BUDGET_BALLS))
def test_ball_is_the_same_at_any_pass_budget(monkeypatch, name):
    # passes of one frontier row: no pass boundary changes a decision
    want = BUDGET_BALLS[name]()
    monkeypatch.setattr(_core, "PASS_BUDGET", 7)
    got = BUDGET_BALLS[name]()
    assert len(want) > 1000
    assert want.truncated == ("capped" in name)
    for field in BALL_FIELDS:
        assert _field_bytes(got, field) == _field_bytes(want, field), field


def test_sample_ball_peak_is_bounded_by_the_pass_budget():
    # the m = 2 sample ball of a run at a 10k budget: 45.6 MB traced with
    # passes of 16,384 frontier rows, 21.7 MB with the pass budget
    rep = helpers.hnn_for(1, 3.0)
    ball, peak = helpers.traced_peak(
        lambda: truncation_ball(rep, 2, BallLimit(max_word_len=64, max_count=30_000)))
    assert len(ball) == 30_000
    assert peak <= 25e6


# -- the enumeration against a row-by-row reference ----------------------

def _forms(key, m, limit):
    tg = truncated_generators(helpers.hnn_for(*key), m)
    return tg.matrices, limit, {"presentation": tg.presentation}


# (gens, limit, keyword arguments) of each ball
REFERENCE_BALLS = {
    "free-1-3-word-length": lambda: (helpers.surface_for(1, 3.0).generators,
                                     BallLimit(max_word_len=7), {}),
    "forms-1-3-m2-capped": lambda: _forms((1, 3.0), 2,
                                          BallLimit(max_word_len=64, max_count=3_000)),
    # at the default budget its cut falls in a pass after 10 of that
    # pass's 25 numeric drops
    "forms-3-3-m1-capped": lambda: _forms((3, 3.0), 1,
                                          BallLimit(max_word_len=64, max_count=8_000)),
    "extension-2-4-R9-capped": lambda: _extension_args(
        (2, 4.0), BallLimit(max_displacement=9.0, max_count=3_000)),
    # the (1, 3) level-1 orbit ball to R = 11, cut at 20,000 elements:
    # 13 of its duplicates repeat a band row whose layer has retired
    "forms-1-3-m1-orbit": lambda: _forms((1, 3.0), 1, BallLimit(
        max_displacement=11.0, max_count=20_000, max_word_len=64)),
    # two short translations taken as free generators: the band beyond
    # R = 0.5 fills the 4 max_count stored rows first
    "free-store-capped": lambda: ([helpers.axis_translation(1.0, 3.0, 0.3),
                                   helpers.axis_translation(-1.0, -3.0, 0.3)],
                                  BallLimit(max_displacement=0.5, max_count=1_000), {}),
}


@functools.cache
def _reference(name):
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    return helpers.reference_ball(gens, limit, **kwargs)


@pytest.mark.parametrize("budget", [None, 7], ids=["default-budget", "budget-7"])
@pytest.mark.parametrize("name", sorted(REFERENCE_BALLS))
def test_ball_matches_row_by_row_reference(monkeypatch, name, budget):
    # every field at any pass budget; and a duplicate of a band row whose
    # layer has retired is checked against the row's matrix formed again
    # from its nearest ancestor that kept one: the bytes the search stored
    stored, replayed = [], []
    append, replay = subgroup._Store.append, subgroup._Store._replay

    def recorded(store, mats, *rest):
        stored.append(np.array(mats, dtype=np.complex128).reshape(-1, 4))
        append(store, mats, *rest)

    def counted(store, row):
        replayed.append((row, replay(store, row)))
        assert row < store.lo and store.slot[row] < 0
        return replayed[-1][1]

    monkeypatch.setattr(subgroup._Store, "append", recorded)
    monkeypatch.setattr(subgroup._Store, "_replay", counted)
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    if budget is not None:
        monkeypatch.setattr(_core, "PASS_BUDGET", budget)
    got = enumerate_ball(gens, limit, **kwargs)
    want = _reference(name)
    assert len(want) > 500
    for field in BALL_FIELDS:
        assert _field_bytes(got, field) == _field_bytes(want, field), field
    rows = np.concatenate(stored)
    for row, mat in replayed:
        assert mat.tobytes() == rows[row].tobytes()
    if name == "forms-1-3-m1-orbit":
        assert len(replayed) == 13


# (gens, limit, keyword arguments) of the balls whose words are checked:
# the reference balls, the pass-budget balls and two that hold the
# identity alone
WORD_BALLS = {
    **REFERENCE_BALLS,
    "budget-free-2-3": lambda: (helpers.surface_for(2, 3.0).generators,
                                BallLimit(max_displacement=10.0, max_count=50_000), {}),
    "budget-truncation-1-3-m2-capped": lambda: _forms(
        (1, 3.0), 2, BallLimit(max_word_len=64, max_count=5_000)),
    "budget-extension-3-5-R9": lambda: _extension_args(
        (3, 5.0), BallLimit(max_displacement=9.0, max_count=1_000_000)),
    "identity-count-cap": lambda: (list(_schottky_pair()),
                                   BallLimit(max_displacement=9.0, max_count=1), {}),
    "identity-zero-cap": lambda: (list(_schottky_pair()), BallLimit(max_displacement=0.0), {}),
}


@pytest.mark.parametrize("name", sorted(WORD_BALLS))
def test_words_are_spelled_from_the_trie(name):
    # iteration, indexing and the length column against the row-by-row
    # reference's list of words
    gens, limit, kwargs = WORD_BALLS[name]()
    words = enumerate_ball(gens, limit, **kwargs).words
    want = helpers.reference_ball(gens, limit, **kwargs).words
    assert isinstance(words, subgroup.Words)
    assert list(words) == want and words == want and want == words
    assert [words[i] for i in range(len(words))] == want
    assert words[-1] == want[-1] and words[1:4] == want[1:4]
    assert words.lengths.tolist() == [len(w) for w in want]
    assert (len(want) == 1) == name.startswith("identity")
    if len(want) > 1:
        assert words != want[:-1] + [want[-2]]


def test_reference_balls_reach_each_stop():
    # which rule stops each reference ball
    stops = {}
    for name in REFERENCE_BALLS:
        limit = REFERENCE_BALLS[name]()[1]
        ball = _reference(name)
        if not ball.truncated:
            stops[name] = "word length"
        elif len(ball) == limit.max_count:
            stops[name] = "count"
        else:
            assert len(ball) + ball.skipped == 4 * limit.max_count
            stops[name] = "store"
    assert stops == {"free-1-3-word-length": "word length", "forms-1-3-m2-capped": "count",
                     "forms-3-3-m1-capped": "count", "extension-2-4-R9-capped": "count",
                     "forms-1-3-m1-orbit": "count", "free-store-capped": "store"}
    assert _reference("free-1-3-word-length").complete_radius < math.inf
    assert _reference("extension-2-4-R9-capped").skipped > 0


@pytest.mark.parametrize("budget", [None, 7], ids=["default-budget", "budget-7"])
@pytest.mark.parametrize("name", ["forms-1-3-m2-capped", "forms-3-3-m1-capped",
                                  "extension-2-4-R9-capped"])
def test_no_row_past_the_cut_is_decided(monkeypatch, name, budget):
    # every row the identity finds new is stored: the last step of the
    # capped pass ends at the cut
    if budget is not None:
        monkeypatch.setattr(_core, "PASS_BUDGET", budget)
    new = []
    decide = subgroup._FormIndex.decide

    def counted(index, store, parents, cols, depth):
        hits, appended = decide(index, store, parents, cols, depth)
        new.append(int(np.count_nonzero(hits < 0)))
        return hits, appended

    monkeypatch.setattr(subgroup._FormIndex, "decide", counted)
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    ball = enumerate_ball(gens, limit, **kwargs)
    assert ball.truncated
    assert sum(new) == len(ball) + ball.skipped - 1


def test_cut_falls_after_a_numeric_drop_in_its_pass(monkeypatch):
    # drops before the cut row of the last pass are counted, those after
    # it are not
    nonfinite = []
    expand = _core.expand

    def counted(left, right):
        out = expand(left, right)
        nonfinite.append(int(np.count_nonzero(~np.isfinite(out).all(axis=1))))
        return out

    monkeypatch.setattr(_core, "expand", counted)
    gens, limit, kwargs = REFERENCE_BALLS["forms-3-3-m1-capped"]()
    ball = enumerate_ball(gens, limit, **kwargs)
    assert sum(nonfinite[:-1]) < ball.numeric_drops < sum(nonfinite)


# -- the bounded identity: appended forms, the walk and the prefilter ----

# (gens, limit, keyword arguments) of each ball, and branches by which
# some of its duplicates are found, at the default pass budget and at a
# budget of 7 together: (the duplicate row is appended, the row it repeats
# is appended, where that row lies).  The (1, 3) m = 2 ball is the sample
# ball of a run at a 10k budget; at a cap of 5,000 no rewritten row
# repeats an appended row of an earlier pass of its layer at any budget
# tried.
IDENTITY_BALLS = {
    "forms-1-3-m2-capped": (
        lambda: _forms((1, 3.0), 2, BallLimit(max_word_len=64, max_count=30_000)),
        {(False, True, "earlier layer"), (False, True, "earlier pass"),
         (False, True, "same pass"), (True, False, "earlier layer"),
         (True, False, "same pass")}),
    "extension-2-4-R9-capped": (
        REFERENCE_BALLS["extension-2-4-R9-capped"],
        {(False, True, "earlier layer"), (True, False, "earlier layer")}),
}


def _identity_branches(monkeypatch):
    """Count the duplicates that `_FormIndex.decide` finds, by branch."""
    seen = Counter()
    decide = subgroup._FormIndex.decide

    def recorded(index, store, parents, cols, depth):
        start, layer = store.n, store.hi
        hits, appended = decide(index, store, parents, cols, depth)
        fresh = hits < 0
        # the appended flag of every row a hit can name: the stored rows,
        # then the new rows of this pass
        flags = np.concatenate([store.appended[:start], appended[fresh]])
        for i in np.flatnonzero(~fresh).tolist():
            hit = int(hits[i])
            where = ("earlier layer" if hit < layer else
                     "earlier pass" if hit < start else "same pass")
            seen[bool(appended[i]), bool(flags[hit]), where] += 1
        return hits, appended

    monkeypatch.setattr(subgroup._FormIndex, "decide", recorded)
    return seen


@functools.cache
def _identity_reference(name):
    gens, limit, kwargs = IDENTITY_BALLS[name][0]()
    return helpers.reference_ball(gens, limit, **kwargs)


@pytest.mark.parametrize("name", sorted(IDENTITY_BALLS))
def test_identity_branches_match_reference(monkeypatch, name):
    # each way a duplicate is found gives the row-by-row reference's ball
    make, branches = IDENTITY_BALLS[name]
    gens, limit, kwargs = make()
    want = _identity_reference(name)
    seen = _identity_branches(monkeypatch)
    for budget in (_core.PASS_BUDGET, 7):
        monkeypatch.setattr(_core, "PASS_BUDGET", budget)
        got = enumerate_ball(gens, limit, **kwargs)
        for field in BALL_FIELDS:
            assert _field_bytes(got, field) == _field_bytes(want, field), (budget, field)
    assert branches <= set(seen), seen


@pytest.mark.parametrize("name", ["forms-1-3-m2-capped", "forms-3-3-m1-capped",
                                  "extension-2-4-R9-capped"])
def test_multiply_appends_after_every_other_byte(name):
    # rewriting_bytes(x) names every last byte after which multiply may do
    # more than append x's image, multiply(identity(), (x,)); after any
    # other, and after the empty form, on every form of the ball and every
    # letter, it appends that image, so _FormIndex.decide calls it only
    # after the named bytes.  A free basis letter's image is its byte, and
    # FreeForms names one byte for every letter, the one cancelling the
    # head of its image.  A one-byte image b after the byte 256 - b
    # cancels it, which decide spells without multiply
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    pres = kwargs["presentation"]
    ball = enumerate_ball(gens, limit, **kwargs)
    forms = {pres.multiply(pres.identity(), w) for w in ball.words}
    letters = [x for j in range(1, len(gens) + 1) for x in (j, -j)]
    appended = rewritten = longer = cancelled = 0
    for x in letters:
        image = pres.multiply(pres.identity(), (x,))
        flagged = set(pres.rewriting_bytes(x))
        if isinstance(pres, FreeForms):
            assert flagged == {256 - image[0]}
        if len(image) == 1:
            assert image == bytes([x + 128])
        for form in forms:
            if not form or form[-1] not in flagged:
                assert pres.multiply(form, (x,)) == form + image, (form, x)
                appended += 1
                longer += len(image) > 1
            elif pres.multiply(form, (x,)) != form + image:
                rewritten += 1
            if len(image) == 1 and form[-1:] == bytes([256 - image[0]]):
                assert pres.multiply(form, (x,)) == form[:-1], (form, x)
                cancelled += 1
    assert appended > rewritten > cancelled > 0
    assert (longer > 0) == isinstance(pres, FreeForms)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_stable_letter_appends_unless_the_coset_rewrite_can_act(genus):
    # _times_stable appends tau^e at once after a form that ends in none of
    # tau^-e, the last ceil(n/2) bytes of u and the last floor(n/2) + 1 of
    # u^-1; on every form of the genus-2 reference ball and on seeded
    # random normal forms, many ending in part of a power of u or u^-1,
    # it gives what the coset rewrite, forced on every form, gives
    if genus == 2:
        gens, limit, kwargs = REFERENCE_BALLS["extension-2-4-R9-capped"]()
        pres = kwargs["presentation"]
    else:
        pres = hnn.HnnPresentation(genus, surface_boundary_word(genus))
    full = copy.copy(pres)
    full._rewriting = {1: (b"",), -1: (b"",)}  # every form ends with b""
    forms = set()
    if genus == 2:
        forms.update(full.normal_form(w) for w in enumerate_ball(gens, limit, **kwargs).words)
    rng = random.Random(genus)
    tau = pres.stable_letter
    letters = [x for j in range(1, tau + 1) for x in (j, -j)]
    for _ in range(3000):
        word = [rng.choice(letters) for _ in range(rng.randrange(10))]
        power = rng.choice([(1,), surface_boundary_word(genus)]) * 3
        power = power if rng.random() < 0.5 else word_inverse(power)
        forms.add(full.normal_form(free_reduce(word + list(power[rng.randrange(len(power)):]))))
    early = rewrites = 0
    for form in forms:
        for e in (1, -1):
            got = pres._times_stable(form, e)
            assert got == full._times_stable(form, e), (form, e)
            early += not form.endswith(pres._rewriting[e])
            rewrites += got != form + pres._stable[e]
    assert min(early, rewrites) > 1000, (early, rewrites)


@pytest.mark.parametrize("name", ["forms-1-3-m2-capped", "forms-3-3-m1-capped",
                                  "extension-2-4-R9-capped"])
def test_decide_multiplies_only_rows_it_cannot_spell(monkeypatch, name):
    # a row is spelled without multiply when its parent form does not end
    # in a rewriting byte of its letter (its parent's form and its image),
    # and when its one-byte image b follows the byte 256 - b (the parent's
    # form without that byte): decide calls multiply once for each other
    # row and for no more
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    pres = kwargs["presentation"]
    calls = []
    multiply = type(pres).multiply

    def counted(presentation, nf, word):
        calls.append((nf, word))
        return multiply(presentation, nf, word)

    due, made = [], []
    decide = subgroup._FormIndex.decide

    def checked(index, store, parents, cols, depth):
        flagged = [set(pres.rewriting_bytes(x)) for (x,) in index.steps]
        for p, c in zip(parents.tolist(), cols.tolist()):
            form, image = index.frontier[p - store.lo], index.images[c]
            last = form[-1] if form else None
            due.append(last in flagged[c] and not (len(image) == 1 and last == 256 - image[0]))
        start = len(calls)
        out = decide(index, store, parents, cols, depth)
        made.extend(calls[start:])
        return out

    monkeypatch.setattr(type(pres), "multiply", counted)
    monkeypatch.setattr(subgroup._FormIndex, "decide", checked)
    enumerate_ball(gens, limit, **kwargs)
    assert 0 < len(made) == sum(due) < len(due)
    assert all(len(word) == 1 for _, word in made)


def _colliding_hashes(forms):
    """One hash for all forms of one length and last byte: the rows of a
    step share hashes, and the filter passes forms that were never
    stored."""
    return np.array([len(f) << 8 | f[-1] if f else 0 for f in forms], dtype=np.uint64)


@pytest.mark.parametrize("name", sorted(IDENTITY_BALLS))
def test_colliding_hashes_give_the_reference_ball(monkeypatch, name):
    # a row that shares its hash with another row of its step, or that
    # the filter passes, is compared exactly: distinct forms under one
    # hash and filter positives of new forms leave every field as the
    # row-by-row reference has it.  At a budget of 7 a pass expands one
    # row, whose children rarely share a length and a last byte
    gens, limit, kwargs = IDENTITY_BALLS[name][0]()
    want = _identity_reference(name)
    shared, passed, repeats = [], [], []

    def colliding(forms):
        hashes = _colliding_hashes(forms)
        shared.append(len(set(forms)) - len(set(hashes.tolist())))
        return hashes

    maybe_stored, decide = subgroup._FormIndex._maybe_stored, subgroup._FormIndex.decide

    def probed(index, hashes):
        out = maybe_stored(index, hashes)
        passed.append(int(np.count_nonzero(out)))
        return out

    def counted(index, *args):
        hits, appended = decide(index, *args)
        repeats.append(int(np.count_nonzero(hits >= 0)))
        return hits, appended

    monkeypatch.setattr(subgroup, "_form_hashes", colliding)
    monkeypatch.setattr(subgroup._FormIndex, "_maybe_stored", probed)
    monkeypatch.setattr(subgroup._FormIndex, "decide", counted)
    for budget in (_core.PASS_BUDGET, 7):
        monkeypatch.setattr(_core, "PASS_BUDGET", budget)
        got = enumerate_ball(gens, limit, **kwargs)
        for field in BALL_FIELDS:
            assert _field_bytes(got, field) == _field_bytes(want, field), (budget, field)
        assert sum(passed) > 10 * sum(repeats) > 0
        passed.clear(), repeats.clear()
    assert sum(shared) > 1000


@pytest.mark.parametrize("name", sorted(IDENTITY_BALLS))
def test_prefilter_never_decides_alone(monkeypatch, name):
    # with one hash for every form each rewritten row that no kept form
    # names is walked, and the walks alone decide
    gens, limit, kwargs = IDENTITY_BALLS[name][0]()
    walked = []
    walk = subgroup._FormIndex._walk

    def counted(index, store, forms, depth):
        walked.append(len(forms))
        return walk(index, store, forms, depth)

    monkeypatch.setattr(subgroup._FormIndex, "_walk", counted)
    want = enumerate_ball(gens, limit, **kwargs)
    filtered = sum(walked)
    monkeypatch.setattr(subgroup, "_form_hashes",
                        lambda forms: np.zeros(len(forms), dtype=np.uint64))
    walked.clear()
    got = enumerate_ball(gens, limit, **kwargs)
    assert sum(walked) > filtered
    for field in BALL_FIELDS:
        assert _field_bytes(got, field) == _field_bytes(want, field), field


@pytest.mark.parametrize("name", ["free-1-3-word-length", "forms-1-3-m2-capped",
                                  "extension-2-4-R9-capped"])
def test_store_links_strictly_increase(monkeypatch, name):
    # parent * 2n + column ascends over the store, and over the ball's
    # word trie, so one search finds a row's child at a column
    # the kept rows, and only they, have slots, in store order
    links, slots = [], []
    trie = subgroup._Store.trie

    def recorded(store, keep, *rest):
        links.append(store.links[:store.n].copy())
        slots.append(store.slot[:store.n].copy())
        return trie(store, keep, *rest)

    monkeypatch.setattr(subgroup._Store, "trie", recorded)
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    ball = enumerate_ball(gens, limit, **kwargs)
    words = ball.words
    (got,), (slot,) = links, slots
    assert len(got) > 1000
    assert got[0] == -1
    assert np.all(np.diff(got) > 0)
    keys = words.parents.astype(np.int64) * len(words.letters) + words.columns
    assert keys[0] < 0 and np.all(np.diff(keys) > 0)
    assert np.all(np.diff(words.rows) > 0)
    assert slot[slot >= 0].tolist() == list(range(len(ball)))
    assert np.count_nonzero(slot < 0) == ball.skipped


def _column_refs(store):
    """References to each column that grows in place beyond its owner's
    own: one more for every view of it that is alive.  The frontier's
    columns never grow."""
    owners = [(store, "links"), (store, "appended"), (store, "slot")] + [
        (part, name) for part in (store.next, store.ball) for name in ("mats", "disps")]
    return [sys.getrefcount(getattr(owner, name)) - 2 for owner, name in owners]


@pytest.mark.parametrize("name", sorted(IDENTITY_BALLS))
def test_no_view_of_the_store_outlives_a_pass(monkeypatch, name):
    # the per-row columns, the next layer's and the ball's grow in place,
    # so no view of one may be alive when it grows.  A profiler that
    # holds this module's frames keeps their locals, so a view named in
    # any of them would be counted.  The ball returns the ball's own
    # columns: each owns its data, and nothing holds the store after the
    # call.
    store = subgroup._Store(np.eye(2, 4, dtype=np.complex128))
    view = store.links[:1]
    assert _column_refs(store) == [1] + [0] * 6
    del view, store
    stores = []
    init = subgroup._Store.__init__

    def recorded(store, *args):
        init(store, *args)
        stores.append(weakref.ref(store))

    gens, limit, kwargs = IDENTITY_BALLS[name][0]()
    with monkeypatch.context() as mp:
        mp.setattr(subgroup._Store, "__init__", recorded)
        want = enumerate_ball(gens, limit, **kwargs)
    assert len(stores) == 1 and stores[0]() is None
    for column in (want.mats, want.disps, want.sigmas, want.words.parents,
                   want.words.columns, want.words.rows, want.words.lengths):
        assert column.flags.owndata and len(column) >= len(want)
    assert len(want.mats) == len(want.disps) == len(want.sigmas) == len(want)
    grown, held = [], []
    append, retire = subgroup._Store.append, subgroup._Store.retire

    def checked(store, mats, *rest):
        if (store.n + len(mats) > len(store.links)
                or store.next.n + len(mats) > len(store.next.disps)):
            grown.append(_column_refs(store))
        append(store, mats, *rest)

    def retired(store, cap):
        grown.append(_column_refs(store))
        retire(store, cap)

    def hold(frame, event, arg):
        if (event == "return" and frame.f_code.co_filename == subgroup.__file__
                and any(isinstance(v, np.ndarray) for v in frame.f_locals.values())):
            held.append(frame)

    monkeypatch.setattr(subgroup._Store, "append", checked)
    monkeypatch.setattr(subgroup._Store, "retire", retired)
    sys.setprofile(hold)
    try:
        got = enumerate_ball(gens, limit, **kwargs)
    finally:
        sys.setprofile(None)
    assert {f.f_code.co_name for f in held} >= {"decide", "_walk", "matrices"}
    assert len(grown) >= 6
    assert all(refs == [0] * 7 for refs in grown), grown
    for field in BALL_FIELDS:
        assert _field_bytes(got, field) == _field_bytes(want, field), field


@pytest.mark.parametrize("name", ["extension-2-4-R9-capped", "forms-1-3-m1-orbit",
                                  "free-store-capped"])
def test_matrices_are_kept_for_the_ball_and_two_live_layers(monkeypatch, name):
    # at each retirement the matrix and displacement columns hold
    # the ball's rows of the retired layers, the frontier and the next
    # layer, each with no row to spare but the next layer's slack
    gens, limit, kwargs = REFERENCE_BALLS[name]()
    seen = []
    retire = subgroup._Store.retire

    def checked(store, cap):
        assert (store.front.n, store.next.n) == (store.hi - store.lo, store.n - store.hi)
        assert len(store.front.disps) == store.front.n
        retire(store, cap)
        ball = store.ball
        assert len(ball.mats) == len(ball.disps) == ball.n
        assert ball.n == np.count_nonzero(store.slot[:store.lo] >= 0)
        assert np.all(store.slot[store.lo:store.n] < 0)
        assert np.all(ball.disps[1:] <= cap)
        assert (store.front.n, store.next.n) == (store.n - store.lo, 0)
        arrays = {k for k, v in vars(store).items() if isinstance(v, np.ndarray)}
        assert arrays == {"garr", "links", "appended", "slot"}
        seen.append((store.n, ball.n + store.front.n))

    monkeypatch.setattr(subgroup._Store, "retire", checked)
    got = enumerate_ball(gens, limit, **kwargs)
    assert len(seen) > 3
    # the band rows of retired layers keep no matrix
    assert any(kept < n for n, kept in seen)
    assert seen[-1] == (len(got) + got.skipped, len(got))


def test_extension_ball_peak_is_bounded():
    # the (3, 5) extension ball to R = 12: 32.3 MB traced when every
    # stored form was kept, 22.8 MB keeping the rewritten forms only (4.2
    # MB of it the prefilter, sized by the count cap), 14.6 MB keeping
    # matrices for the ball and the two live layers only
    gens, limit, kwargs = _extension_args(
        (3, 5.0), BallLimit(max_displacement=12.0, max_count=1_000_000))
    ball, peak = helpers.traced_peak(lambda: enumerate_ball(gens, limit, **kwargs))
    assert len(ball) == 38_386
    assert peak <= 19e6


# -- identity in H_m: free reduction on S_m against Britton normal forms --

# each key's displacement cap for the reference balls, far enough that
# at m >= 1 they merge words equal in the group
_REFERENCE_RADIUS = {(1, 3.0): 9.0, (2, 4.0): 12.0, (3, 5.0): 12.5}


@pytest.mark.parametrize("kind", ["word-length", "displacement"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("key", sorted(_REFERENCE_RADIUS), ids=str)
def test_free_reduction_matches_britton(key, m, kind):
    # H_m is free on S_m, so the S_m forms tell apart exactly the
    # elements that the extension's normal forms do
    if kind == "word-length":
        limit = BallLimit(max_word_len=64, max_count=5_000 * (m + 1))
    else:
        limit = BallLimit(max_displacement=_REFERENCE_RADIUS[key], max_count=20_000,
                          max_word_len=64)
    rep = helpers.hnn_for(*key)
    tg = truncated_generators(rep, m)
    got = truncation_ball(rep, m, limit)
    want = enumerate_ball(tg.matrices, limit, presentation=helpers.BrittonTruncation(rep, m))
    assert len(got) > 300
    for field in BALL_FIELDS:
        assert _field_bytes(got, field) == _field_bytes(want, field), field
    if kind == "displacement" and m:
        # relations merged words: the free ball differs
        assert enumerate_ball(tg.matrices, limit).words != got.words


def test_truncation_ball_needs_no_britton_forms(monkeypatch):
    def fail(*args):
        raise AssertionError("HnnPresentation.multiply called")

    monkeypatch.setattr(hnn.HnnPresentation, "multiply", fail)
    rep = helpers.hnn_for(1, 3.0)
    ball = truncation_ball(rep, 2, BallLimit(max_displacement=9.0, max_count=20_000))
    assert len(ball) > 1000


def _images(rep, m):
    """S_m image of each letter of T_m and its inverse, as a word."""
    forms = FreeForms(rep.surface.genus, rep.surface.boundary_word(), m)
    n = 2 * rep.surface.genus * (m + 1)
    return {x: helpers.to_word(forms.multiply(forms.identity(), (x,)))
            for x in range(-n, n + 1) if x}


class TestFreeForms:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("key", sorted({helpers.grid_key(*k) for k in helpers.GRID}), ids=str)
    def test_images_are_the_generators(self, key, m):
        rep = helpers.hnn_for(*key)
        g = rep.surface.genus
        images = _images(rep, m)
        # S_m: 2g(m+1) - m letters, each image freely reduced
        assert len({abs(x) for w in images.values() for x in w}) == 2 * g * (m + 1) - m
        assert all(free_reduce(w) == w for w in images.values())
        # each image spelled in the extension's letters has the normal
        # form of the generator's word
        spelled = helpers.BrittonTruncation(rep, m).spelled
        pres = rep.presentation
        for x, w in images.items():
            assert pres.normal_form(spelled(w)) == pres.normal_form(spelled((x,))), x

    def test_torus_level_two_images(self):
        images = _images(helpers.hnn_for(1, 3.0), 2)
        assert images[1] == (5, 6, -5, -6, 4, 6, 5, -6, -5, -4)
        assert images[3] == (5, 6, -5, -6)
        assert all(images[x] == (x,) for x in (2, 4, 5, 6))
        assert images[-1] == tuple(-x for x in reversed(images[1]))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_images_evaluate_to_the_generators(self, m):
        # only at genus 1 and low levels: the longer images at higher genus
        # drift far in floating point, which is why identity is decided on
        # words
        rep = helpers.hnn_for(1, 3.0)
        mats = truncated_generators(rep, m).matrices
        for x, w in _images(rep, m).items():
            if x > 0:
                assert evaluate_word(w, mats).dist(mats[x - 1]) <= 1e-9, x

    def test_level_zero_needs_no_forms(self):
        assert truncated_generators(helpers.hnn_for(1, 3.0), 0).presentation is None

    def test_byte_encoding_bounds_the_letters(self):
        # 2g(m+1) letters must stay below 128; the check comes before the
        # images, whose length doubles with each level
        FreeForms(21, surface_boundary_word(21), 2)  # 126 letters
        for genus, m in ((21, 3), (1, 63), (64, 0)):
            with pytest.raises(ValueError):
                FreeForms(genus, surface_boundary_word(genus), m)


def _times(x, y):
    return (x.reshape(-1, 2, 2) @ y.reshape(-1, 2, 2)).reshape(-1, 4)


def _at_displacement(rng, disps):
    """Rows k1 diag(e^(d/2), e^(-d/2)) k2 with k1, k2 random in SU(2): the
    displacement of the base point is d."""
    def su2(n):
        a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
        a, b = a / norm, b / norm
        return np.stack([a, b, -b.conj(), a.conj()], axis=1)

    return _times(_times(su2(len(disps)), _diagonal(disps)), su2(len(disps)))


def _diagonal(disps):
    half = np.exp(np.asarray(disps) / 2.0)
    rows = np.zeros((len(half), 4), dtype=np.complex128)
    rows[:, 0], rows[:, 3] = half, 1.0 / half
    return rows


def _on_one_axis(disps, angle=0.3):
    """Real translations by d along one axis through the base point."""
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, s, -s, c]] * len(disps), dtype=np.complex128)
    back = np.array([[c, -s, s, c]] * len(disps), dtype=np.complex128)
    return _times(_times(turn, _diagonal(disps)), back)


def test_band_sieve_never_drops_a_row_the_exact_path_keeps():
    rng = np.random.default_rng(0)
    band = 18.4
    # frontier entries up to about 1e4; half the rows within 1e-12 of the
    # band, and rows (x + 1, x, x, x - 1) of exact determinant -1 that
    # rounds to 0 or -2
    x = np.array([1e8, 3e7, 1e6])
    frontier = np.concatenate([
        _at_displacement(rng, band + rng.uniform(-1e-12, 1e-12, 2000)),
        _at_displacement(rng, rng.uniform(0.0, band, 1000)),
        _on_one_axis(rng.uniform(band - 2.0, band, 1000)),
        np.stack([x + 1.0, x, x, x - 1.0], axis=1).astype(np.complex128)])
    # rotations about the base point keep a row's displacement; the
    # translations along the frontier's one axis make real products with
    # entries near 1e8, whose computed determinants are rounding noise and
    # often 0
    gens = np.concatenate([_at_displacement(rng, np.zeros(4)),
                           _at_displacement(rng, rng.uniform(0.1, band, 5)),
                           _on_one_axis(rng.uniform(band, band + 4.0, 5))])
    gterms = subgroup._gram(np.conj(gens[:, [0, 2, 1, 3]]))
    far = subgroup._beyond_band(frontier, gterms, band).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prods = _core.expand(np.repeat(frontier, len(gens), axis=0),
                             np.tile(gens, (len(frontier), 1)))
        disps = _core.displacements(prods)
    finite = np.isfinite(prods).all(axis=1)
    assert not (far & ~(finite & (disps > band))).any()
    # the rows reach the cases the bound must get right, and it decides
    assert np.count_nonzero(np.abs(disps - band) <= 1e-12) > 1000
    assert np.count_nonzero(~finite) > 10
    assert np.abs(frontier).max() > 5e3
    assert 0.2 < np.count_nonzero(far) / len(far) < 0.9


def _row_gram(mats):
    """The terms of X = h h* from the rows (a, b) and (c, d) of each h, as
    `_gram` took the generators' terms before it had one formula."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((mats[:, k].real, mats[:, k].imag)
                                              for k in range(4))
    x00 = ((ar * ar + ai * ai) + br * br) + bi * bi
    x11 = ((cr * cr + ci * ci) + dr * dr) + di * di
    re = ((ar * cr + ai * ci) + br * dr) + bi * di
    im = ((ai * cr - ar * ci) + bi * dr) - br * di
    det = np.abs(mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2])
    return x00, x11, re, im, x00 + x11, det


def test_gram_of_conjugate_transpose_is_row_gram():
    rng = np.random.default_rng(1)
    shape = (20_000, 4)
    scale = np.exp(rng.uniform(-8.0, 8.0, (shape[0], 1)))
    rows = [(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale]
    for key in ((1, 3.0), (3, 5.0)):
        rep = helpers.hnn_for(*key)
        rows.append(subgroup._gen_array(rep.generators))
        rows.append(subgroup._gen_array(truncated_generators(rep, 2).matrices))
    mats = np.concatenate(rows)
    x00, x11, re, im, tr, lo, hi = subgroup._gram(np.conj(mats[:, [0, 2, 1, 3]]))
    w00, w11, wre, wim, wtr, wdet = _row_gram(mats)
    for got, want in ((x00, w00), (x11, w11), (re, wre), (tr, wtr)):
        assert got.tobytes() == want.tobytes()
    # Im x01 and |det| sum their products in another order
    u = 2.0**-53
    assert (np.abs(im - wim) <= 4 * u * tr).all()
    slack = subgroup._SIEVE_ROUNDING * tr
    assert (np.abs(hi - slack - wdet) <= 4 * u * tr).all()
    assert (lo <= np.maximum(wdet - slack, 0.0) + 4 * u * tr).all()
