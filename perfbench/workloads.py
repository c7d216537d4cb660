"""The benchmark's three workloads.

Each workload builds its inputs from a seed (`setup`), runs one round of
operations through the package's public functions (`run`) and checks the
outputs of that round (`check`).  Only `run` is timed.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

from kleindim import dimension, growth, hnn, report, subgroup, surface
from kleindim.errors import KleindimError

import checks

# genus 1 ignores the interior length, as on the test grid
TORUS = (1, 3.0)
# one grid key per distinct collar radius (r depends on L alone above
# genus 1), so every radius of the 7-key test grid is measured once
GRID_KEYS = [(1, 3.0), (2, 3.0), (2, 4.0), (3, 5.0)]
CONTROL_KEY = (3, 5.0)
CONTROL_RADIUS = 14.0
CONTROL_SCALES = [0.4 * 0.5**k for k in range(5)]
# the default RunConfig except for the per-level element budget
# (default 50_000), which sets the samples' size
FULL_RUN_ELEMENTS = 10_000


def build_reps(keys):
    return {key: hnn.build_hnn(surface.fn_surface_rep(*key)) for key in keys}


class FullRunTorus:
    """`run_pipeline` and `write_report`, as `kleindim full-run` runs them."""

    name = "full-run-torus"
    keys = [TORUS]

    def setup(self, seed, out_root):
        # the same set-up as every workload's, though run_pipeline builds
        # its own representation
        reps = build_reps(self.keys)
        out_dir = Path(out_root) / f"{self.name}-seed{seed}"
        config = report.RunConfig(max_elements=FULL_RUN_ELEMENTS, seed=seed,
                                  out_dir=str(out_dir))
        return {"reps": reps, "config": config, "report_bytes": None}

    def run(self, inputs):
        config = inputs["config"]
        rep, artifacts = report.run_pipeline(config)
        path = report.write_report(rep, artifacts, config.out_dir)
        return {"report": rep, "artifacts": artifacts, "path": path}, 1, 0

    def check(self, inputs, out):
        samples = out["artifacts"]["samples"]
        tables = out["artifacts"]["scale_tables"]
        problems = checks.check_box_counts(samples, tables)
        problems += checks.check_components_within_boxes(tables)
        problems += checks.check_monotone(tables)
        found, compared = checks.check_components_kdtree(samples, tables)
        problems += found
        problems += checks.check_estimates(out["report"])
        data = Path(out["path"]).read_bytes()
        if inputs["report_bytes"] is not None and data != inputs["report_bytes"]:
            problems.append("report.json differs between rounds")
        inputs["report_bytes"] = data
        return problems, {"kdtree_scales_compared": compared}


class ExtensionControl:
    """Criterion 7's negative control: the untruncated displacement ball of
    the whole extension group, sampled whole, then its components."""

    name = "extension-control"
    keys = [CONTROL_KEY]

    def setup(self, seed, out_root):
        return {"rep": build_reps(self.keys)[CONTROL_KEY], "seed": seed}

    def run(self, inputs):
        rep = inputs["rep"]
        grades = [0] * (2 * rep.surface.genus) + [1]
        ball = subgroup.enumerate_ball(
            rep.generators,
            subgroup.BallLimit(max_displacement=CONTROL_RADIUS, max_count=1_000_000),
            sigma_values=grades, presentation=rep.presentation)
        sample = dimension.sample_limit_set(ball, cap=len(ball))
        counts = [dimension.component_analysis(sample, d)[0] for d in CONTROL_SCALES]
        return {"ball": ball, "counts": counts}, 1, 0

    def check(self, inputs, out):
        rep, ball = inputs["rep"], out["ball"]
        problems = checks.check_ball(ball, CONTROL_RADIUS, rep.presentation)
        found, worst = checks.check_displacements(
            ball, [g.entries() for g in rep.generators], inputs["seed"])
        problems += found
        problems += checks.check_one_component(out["counts"])
        problems += checks.check_both_signs(ball.sigmas)
        return problems, {"elements": len(ball), "components": out["counts"],
                          "max_displacement_error": worst}


@contextlib.contextmanager
def lift_balls():
    """Record whether each ball that `build_strata_tree` asks for was
    truncated, through the attribute it looks `enumerate_ball` up by."""
    inner = growth.enumerate_ball
    seen = []

    def watched(*args, **kwargs):
        ball = inner(*args, **kwargs)
        seen.append((ball.truncated, ball.complete_radius))
        return ball

    growth.enumerate_ball = watched
    try:
        yield seen
    finally:
        growth.enumerate_ball = inner


class StrataGrid:
    """The `check-bounds` path over the grid: collar radii, strata tree,
    leaf-count check and quasi-geodesic constants.  One operation per key;
    it fails while any lift-candidate ball of its tree is truncated."""

    name = "strata-grid"
    keys = GRID_KEYS

    def setup(self, seed, out_root):
        return {"reps": build_reps(self.keys), "seed": seed}

    def run(self, inputs):
        results = []
        failed = 0
        for key, rep in inputs["reps"].items():
            s = rep.surface
            try:
                widths = [surface.collar_width(s, (1,)).measured_halfwidth,
                          surface.collar_width(s, s.boundary_word()).measured_halfwidth]
                r = min(widths)
                with lift_balls() as balls:
                    tree = growth.build_strata_tree(rep, 4.5 * r, max_depth=4)
                table = growth.leaf_count_check(tree, r)
                paths = growth.sample_bend_paths(r, seed=inputs["seed"])
                fit = growth.qi_constants(rep, paths)
            except KleindimError as exc:
                failed += 1
                results.append({"key": key, "error": repr(exc)})
                continue
            truncated = [cr for t, cr in balls if t]
            failed += bool(truncated)
            results.append({"key": key, "widths": widths, "r": r, "table": table,
                            "paths": paths, "fit": fit, "nodes": len(tree),
                            "lift_balls": len(balls), "truncated": len(truncated),
                            "complete_to": min(truncated, default=None),
                            "radius": 4.5 * r})
        return results, len(inputs["reps"]), failed

    def check(self, inputs, results):
        problems = []
        done = [res for res in results if "error" not in res]
        for res in done:
            key = res["key"]
            problems += checks.check_collars(key, res["widths"])
            problems += checks.check_leaf_bound(key, res["table"], res["r"])
            problems += checks.check_one_bend(res["paths"], growth.endpoint_distance)
        problems += checks.check_eps_decreasing([(res["r"], res["fit"].epsilon_hat)
                                                 for res in done])
        info = {f"{res['key'][0]},{res['key'][1]:g}":
                {"nodes": res["nodes"], "truncated_lift_balls": res["truncated"],
                 "lift_balls": res["lift_balls"],
                 "complete_to": res["complete_to"], "tree_radius": res["radius"]}
                if "error" not in res else {"error": res["error"]}
                for res in results}
        return problems, info


WORKLOADS = {w.name: w for w in (FullRunTorus(), ExtensionControl(), StrataGrid())}
