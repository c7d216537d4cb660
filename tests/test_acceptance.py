"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Criterion 7 checks the Cantor structure qualitatively, at the five
dyadic scales delta = 0.4 * 2^-k, k = 0..4:

- the level-2 truncation sample at the largest collar radius splits into
  strictly more delta-components at every halving;
- a negative control, the limit set of the whole extension group (which
  is one-ended, so its limit set is connected), stays one component at
  every scale.  It is sampled from an untruncated displacement ball whose
  radius is set by what the finest scale needs.

The largest component diameter is printed but not required to shrink at
any set rate.  The paper only has it tend to 0, and a Cantor set need not
halve it per halving (for the middle-thirds set it is constant on each
[3^-(n+1), 3^-n)).  A sample is a subset of the limit set, so each
sampled delta-component lies inside a true one and measured diameters
are lower bounds that denser sampling can only raise; here they stay at
the sphere's diameter 2.0 down to delta = 0.05 on the untruncated
radius-12 displacement ball of the level-2 generators at (3, 5), so a
factor-2 contraction could only pass on a sample that misrepresents the
set.
"""

import cmath
import functools
import json
import math
import random

from click.testing import CliRunner

import helpers
from kleindim.cli import main as cli_main
from kleindim.dimension import (box_dimension, component_table,
                                critical_exponent, merge_samples,
                                sample_from_points, sample_limit_set)
from kleindim.growth import (build_strata_tree, entropy_bound,
                             leaf_count_check, qi_constants,
                             sample_bend_paths, BendPath, endpoint_distance)
from kleindim.hnn import plane_angle
from kleindim.moebius import MoebiusMap, SpherePoint, chordal
from kleindim.report import truncation_ball
from kleindim.subgroup import BallLimit, enumerate_ball

GRID = helpers.GRID
DISTINCT = sorted({helpers.grid_key(g, L) for g, L in GRID})
HALF_PI = math.pi / 2.0
# displacement radius of the criterion-7 control ball: at 13.5 the sample
# still splits at delta = 0.025, at 14 it is one component down to 0.02
CONTROL_RADIUS = 14.0


def _largest_r():
    """Grid key with the largest collar radius; r is rounded as in
    criterion 5 so that float noise cannot decide, and ties go to the
    larger genus."""
    return max(DISTINCT, key=lambda k: (round(helpers.r_achieved_for(*k), 9), k[0]))


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def _qi_fit(g, L):
    r = helpers.r_achieved_for(g, L)
    return qi_constants(helpers.hnn_for(g, L), sample_bend_paths(r, seed=0))


@functools.lru_cache(maxsize=None)
def _truncation_sample(g, L, m):
    # cumulative across levels: the truncations are nested, so points
    # sampled at lower levels stay valid and keep the samples nested
    budget = 50_000 * (m + 1)
    ball = truncation_ball(helpers.hnn_for(g, L), m,
                           BallLimit(max_word_len=64, max_count=budget))
    sample = sample_limit_set(ball, cap=budget)
    if m == 0:
        return sample
    return merge_samples(_truncation_sample(g, L, m - 1), sample)


@functools.lru_cache(maxsize=None)
def _box_trend(g, L):
    out = []
    for m in range(4):
        est, _ = box_dimension(_truncation_sample(g, L, m),
                               with_components=False)
        out.append(est.value)
    return out


def test_criterion_1_construction_exactness():
    worst = 0.0
    for g, L in GRID:
        surface = helpers.surface_for(*helpers.grid_key(g, L))
        rep = helpers.hnn_for(*helpers.grid_key(g, L))
        checks = [
            rep.relator_residual(),
            abs(plane_angle(rep.T) - HALF_PI),
            abs(surface.gamma_matrix().translation_length() - 1.0),
            abs(surface.boundary_matrix().translation_length() - 1.0),
        ]
        worst = max(worst, *checks)
    _verdict(1, worst <= 1e-9,
             f"relator/angle/length residuals over the grid, worst {worst:.2e}")


def test_criterion_2_kernel_properties():
    rng = random.Random(20240817)

    def rand_map():
        while True:
            e = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
            if abs(e[0] * e[3] - e[1] * e[2]) > 1e-3:
                return MoebiusMap(*e)

    def mat_mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    failures = 0
    for _ in range(10_000):
        a, b = rand_map(), rand_map()
        z = SpherePoint(complex(rng.gauss(0, 2), rng.gauss(0, 2)))
        # equivariance of the sphere action under composition
        if chordal((a @ b).apply(z), a.apply(b.apply(z))) > 1e-9:
            failures += 1
        # inverse and sign canonicalization
        if (a @ a.inverse()).dist(MoebiusMap.identity()) > 1e-10:
            failures += 1
        if MoebiusMap(-a.a, -a.b, -a.c, -a.d).dist(a) > 1e-12:
            failures += 1
        # commutator trace identity on fixed matrix lifts
        ab = mat_mul(a.entries(), b.entries())
        comm = mat_mul(ab, mat_mul((a.d, -a.b, -a.c, a.a),
                                   (b.d, -b.b, -b.c, b.a)))
        x, y, zz = a.trace(), b.trace(), ab[0] + ab[3]
        rhs = x * x + y * y + zz * zz - x * y * zz - 2.0
        if abs((comm[0] + comm[3]) - rhs) > 1e-9 * max(1.0, abs(rhs)):
            failures += 1
    _verdict(2, failures == 0,
             f"10^4 randomized identity/equivariance/trace checks, "
             f"{failures} failures")


def test_criterion_3_estimator_calibration():
    two = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
    dim2, _ = box_dimension(two)

    arc = sample_from_points(
        [SpherePoint(cmath.exp(1j * math.pi * k / 9999)) for k in range(10_000)])
    dim_arc, _ = box_dimension(arc)

    surface = helpers.surface_for(1, 3.0)
    wball = enumerate_ball(surface.generators,
                           BallLimit(max_word_len=12, max_count=50_000))
    box_f, _ = box_dimension(sample_limit_set(wball, cap=50_000))
    dball = enumerate_ball(surface.generators,
                           BallLimit(max_displacement=11.0, max_count=1_000_000))
    orbit_f = critical_exponent(dball, [7.0, 8.0, 9.0, 10.0, 11.0])

    ok = (abs(dim2.value) <= 0.02
          and abs(dim_arc.value - 1.0) <= 0.05
          and 0.0 < box_f.value < 1.0
          and abs(box_f.value - orbit_f.value) <= 0.1)
    _verdict(3, ok,
             f"2-point {dim2.value:.3f}, arc {dim_arc.value:.3f}, "
             f"torus box {box_f.value:.3f} vs orbit {orbit_f.value:.3f}")


def test_criterion_4_entropy_and_leaf_bounds():
    ent = entropy_bound(4.0)
    arithmetic_ok = (abs(ent - (1.0 + math.log(2.0) / 8.0)) <= 1e-9
                     and round(ent, 5) == 1.08664)
    total_violations = 0
    for g, L in DISTINCT:
        r = helpers.r_achieved_for(g, L)
        tree = build_strata_tree(helpers.hnn_for(g, L), 4.5 * r, max_depth=4)
        table = leaf_count_check(tree, r)
        total_violations += len(table.violations())
    _verdict(4, arithmetic_ok and total_violations == 0,
             f"entropy_bound(4)={ent:.9f}, leaf violations across grid: "
             f"{total_violations}")


def test_criterion_5_quasi_geodesic():
    worst = 0.0
    for a in (2.0, 3.0, 4.0):
        path = BendPath(lengths=(a, a), angles=(HALF_PI,))
        oracle = math.acosh(math.cosh(a) * math.cosh(a))
        worst = max(worst, abs(endpoint_distance(path) - oracle))

    by_r = {}
    for g, L in DISTINCT:
        r = helpers.r_achieved_for(g, L)
        by_r[round(r, 9)] = _qi_fit(g, L).epsilon_hat
    rs = sorted(by_r)
    eps = [by_r[r] for r in rs]
    decreasing = all(eps[i + 1] < eps[i] for i in range(len(eps) - 1))
    _verdict(5, worst <= 1e-9 and decreasing,
             f"one-bend oracle residual {worst:.2e}; eps_hat along r "
             + " > ".join(f"{e:.4f}" for e in eps)
             + (" (strictly decreasing)" if decreasing else " (NOT decreasing)"))


def test_criterion_6_dimension_trend():
    problems = []
    summary = []
    for g, L in DISTINCT:
        dims = _box_trend(g, L)
        r = helpers.r_achieved_for(g, L)
        eps = _qi_fit(g, L).epsilon_hat
        bound = (1.0 + eps) * entropy_bound(r) + 0.1
        summary.append(f"({g},{L:g}): " + "/".join(f"{d:.3f}" for d in dims))
        for m in range(3):
            if dims[m + 1] < dims[m] - 0.05:
                problems.append(f"({g},{L:g}) m={m + 1} drops "
                                f"{dims[m] - dims[m + 1]:.3f}")
        if dims[-1] > bound:
            problems.append(f"({g},{L:g}) final {dims[-1]:.3f} > bound {bound:.3f}")
    largest = _largest_r()
    final_largest = _box_trend(*largest)[-1]
    if final_largest > 1.3:
        problems.append(f"largest-r final {final_largest:.3f} > 1.3")
    _verdict(6, not problems,
             "; ".join(summary) + (f"; issues: {problems}" if problems else
                                   f"; largest-r final {final_largest:.3f} <= 1.3"))


def test_criterion_7_cantor_structure():
    largest = _largest_r()
    sample = _truncation_sample(*largest, 2)
    scales = [0.4 * 0.5**k for k in range(5)]
    rows = component_table(sample, scales)
    counts = [r[0] for r in rows]
    diams = [r[1] for r in rows]
    count_ok = all(counts[i + 1] > counts[i] for i in range(4))

    rep = helpers.hnn_for(*largest)
    grades = [0] * (2 * rep.surface.genus) + [1]
    full = enumerate_ball(rep.generators,
                          BallLimit(max_displacement=CONTROL_RADIUS,
                                    max_count=1_000_000),
                          sigma_values=grades, presentation=rep.presentation)
    assert not full.truncated
    assert full.sigmas.max() > 0 and full.sigmas.min() < 0
    control = sample_limit_set(full, cap=len(full))
    control_counts = [count for count, _ in component_table(control, scales)]
    control_ok = all(c == 1 for c in control_counts)

    ratios = [diams[i] / diams[i + 1] if diams[i + 1] > 0 else math.inf
              for i in range(4)]
    _verdict(7, count_ok and control_ok,
             f"({largest[0]},{largest[1]:g}) m=2: components {counts} "
             f"(strictly increasing: {count_ok}); max diameters "
             + "/".join(f"{d:.3f}" for d in diams)
             + ", ratios per halving "
             + "/".join(f"{x:.2f}" for x in ratios)
             + f" (reported only); control: untruncated ball R={CONTROL_RADIUS:g} "
             f"of {len(full)} elements, components {control_counts} "
             f"(need all 1: {control_ok})")


def test_criterion_8_determinism(tmp_path):
    out = tmp_path / "run"
    config = {
        "genus": 1,
        "interior_length": 3.0,
        "level": 1,
        "max_elements": 20_000,
        "seed": 0,
        "out_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    runner = CliRunner()

    def run_once():
        result = runner.invoke(cli_main, ["full-run", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in out.iterdir()
                       if p.suffix in (".json", ".csv") and p.name != "timing.json")
        return {name: (out / name).read_bytes() for name in names}

    first = run_once()
    second = run_once()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    _verdict(8, same,
             f"two identical-config runs, {len(first)} JSON/CSV artifacts "
             + ("byte-identical" if same else "DIFFER"))
