"""Self-tests of the benchmark's checks: each passes the program's own
output on a small input and rejects it once corrupted.

    python3 -m pytest -q perfbench
"""

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

import checks
import workloads
from kleindim import dimension, growth
from kleindim.dimension import ScaleTable, box_dimension, sample_from_points
from kleindim.moebius import SpherePoint
from kleindim.subgroup import BallLimit, enumerate_ball


@pytest.fixture(scope="module")
def sample():
    rng = random.Random(7)
    pts = [SpherePoint(cmath.rect(rng.uniform(0.2, 5.0), rng.uniform(0, 2 * math.pi)))
           for _ in range(400)]
    return sample_from_points(pts + [SpherePoint(infinite=True)])


@pytest.fixture(scope="module")
def table(sample):
    return box_dimension(sample, scales=[0.5**k for k in range(2, 8)])[1]


@pytest.fixture(scope="module")
def torus():
    return workloads.build_reps([workloads.TORUS])[workloads.TORUS]


def _changed(table, i, **fields):
    rows = list(table.rows)
    rows[i] = dataclasses.replace(rows[i], **fields)
    return ScaleTable(rows=rows)


def test_box_count_matches_scalar_count(sample):
    for delta in (1.0, 0.1, 0.013):
        assert checks.box_count(sample.points, delta) == dimension._box_count(sample, delta)


def test_changed_box_count_rejected(sample, table):
    assert checks.check_box_counts({0: sample}, {0: table}) == []
    bad = _changed(table, 3, box_count=table.rows[3].box_count + 1)
    assert checks.check_box_counts({0: sample}, {0: bad})


def test_split_component_rejected(sample, table):
    assert checks.check_components_kdtree({0: sample}, {0: table})[0] == []
    bad = _changed(table, 2, components=table.rows[2].components + 1)
    assert checks.check_components_kdtree({0: sample}, {0: bad})[0]


def test_components_within_boxes_and_monotone(table):
    assert checks.check_components_within_boxes({0: table}) == []
    assert checks.check_monotone({0: table, 1: table}) == []
    assert checks.check_components_within_boxes(
        {0: _changed(table, 0, components=table.rows[0].box_count + 1)})
    assert checks.check_monotone({0: _changed(table, 4, components=0)})
    assert checks.check_monotone({0: table, 1: _changed(table, 1, box_count=0)})


def test_perturbed_displacement_rejected(torus):
    gens = torus.surface.generators
    ball = enumerate_ball(gens, BallLimit(max_word_len=4))
    entries = [g.entries() for g in gens]
    problems, worst = checks.check_displacements(ball, entries, seed=0, n=len(ball))
    assert problems == [] and worst < 1e-10
    ball.disps[17] += 1e-6
    assert checks.check_displacements(ball, entries, seed=0, n=len(ball))[0]


def test_control_ball_checks():
    rep = workloads.build_reps([(2, 4.0)])[(2, 4.0)]
    pres = rep.presentation
    ball = enumerate_ball(rep.generators, BallLimit(max_word_len=3),
                          sigma_values=[0, 0, 0, 0, 1], presentation=pres)
    assert checks.normal_forms(ball.words, pres) == [pres.normal_form(w) for w in ball.words]
    assert checks.check_ball(ball, 100.0, pres) == []
    assert checks.check_ball(ball, 0.5, pres)
    assert checks.check_ball(dataclasses.replace(ball, truncated=True), 100.0, pres)
    repeated = dataclasses.replace(ball, words=ball.words[:-1] + [ball.words[-2]])
    assert checks.check_ball(repeated, 100.0, pres)
    assert checks.check_both_signs(ball.sigmas) == []
    assert checks.check_both_signs(np.abs(ball.sigmas))
    assert checks.check_one_component([1] * 5) == []
    assert checks.check_one_component([1, 1, 2, 1, 1])


def test_truncated_lift_ball_seen(torus):
    original = growth.enumerate_ball
    with workloads.lift_balls() as balls:
        growth.build_strata_tree(torus, 2.0, max_depth=2, max_elements=100)
    assert any(t for t, _ in balls)
    with workloads.lift_balls() as balls:
        growth.build_strata_tree(torus, 0.5, max_depth=2)
    assert balls and not any(t for t, _ in balls)
    assert growth.enumerate_ball is original


def test_grid_checks(torus):
    r = 1.5
    paths = growth.sample_bend_paths(r, seed=0)
    assert checks.check_one_bend(paths, growth.endpoint_distance) == []
    assert checks.check_one_bend(paths, lambda p: growth.endpoint_distance(p) + 1e-6)
    assert checks.check_collars((1, 3.0), [1.5, 1.41]) == []
    assert checks.check_collars((1, 3.0), [1.5, 1.40])
    assert checks.check_eps_decreasing([(1.4, 0.3), (1.8, 0.2), (1.8 + 1e-15, 0.2)]) == []
    assert checks.check_eps_decreasing([(1.4, 0.3), (1.8, 0.3)])
    row = growth.LeafRow(d=2.0, leaves_at_d=2, bound=2.0 ** (1 + 2.0 / 3.0))
    table = growth.LeafTable(rows=[row])
    assert checks.check_leaf_bound((1, 3.0), table, r) == []
    bad = growth.LeafTable(rows=[dataclasses.replace(row, leaves_at_d=4)])
    assert checks.check_leaf_bound((1, 3.0), bad, r)


def test_estimates_within_bound():
    r, eps = 1.5, 0.2
    bound = (1 + eps) * (1 + math.log(2) / (2 * r))
    level = {"m": 0, "dim_bound": {"bound": bound}, "box": {"value": 1.05}, "orbit": None}
    rep = {"surface": {"r_achieved": r}, "qi_fit": {"epsilon_hat": eps}, "levels": [level]}
    assert checks.check_estimates(rep) == []
    level["box"] = {"value": bound + 0.11}
    assert checks.check_estimates(rep)
    level["box"] = {"value": 1.05}
    level["dim_bound"] = {"bound": bound * 1.001}
    assert checks.check_estimates(rep)
