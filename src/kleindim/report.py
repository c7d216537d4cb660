"""End-to-end pipeline: configuration, orchestration, rendering, and
machine-readable reports.

Reports are byte-deterministic for a fixed (config, seed, version);
wall-clock timings therefore live in a sidecar file, not in report.json.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import (ScaleRow, ScaleTable, box_dimension, critical_exponent,
                        default_scales, merge_samples, sample_limit_set)
from .errors import DegenerateScaleWindow, IncompleteBall, KleindimError
from .growth import (build_strata_tree, dim_bound_check, entropy_bound,
                     leaf_count_check, qi_constants, sample_bend_paths)
from .hnn import build_hnn, plane_angle
from .subgroup import BallLimit, enumerate_ball, truncated_generators
from .surface import collar_width, fn_surface_rep

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    genus: int = 1
    interior_length: float = 3.0
    level: int = 2  # truncation level m
    word_budget: int = 64  # max word length N for enumeration
    radius: float = 11.0  # displacement cap R for the orbit ball
    scales: list = field(default_factory=default_scales)
    seed: int = 0
    out_dir: str = "out"
    resolution: int = 512
    max_elements: int = 50_000  # per-level base element budget

    def validate(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if self.interior_length <= 0:
            raise ValueError("interior length must be positive")
        if self.level < 0:
            raise ValueError("truncation level must be >= 0")
        if self.word_budget < 1 or self.radius <= 0 or self.resolution < 8:
            raise ValueError("budgets must be positive")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        if self.max_elements < 100:
            raise ValueError("element budget too small")

    @classmethod
    def from_json(cls, path):
        """Config from a JSON object; ValueError on malformed JSON or a
        key that is not a RunConfig field."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        data.pop("schema", None)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


def _estimate_dict(est):
    if est is None:
        return None
    return {
        "value": est.value,
        "stderr": est.stderr,
        "scale_window": list(est.scale_window),
        "method": est.method,
    }


def _scale_table_dict(table):
    return [
        {"delta": r.delta, "box_count": r.box_count,
         "components": r.components, "max_diam": r.max_diam, "row": i}
        for i, r in enumerate(table.rows)
    ]


def run_pipeline(config):
    """Build the representation, estimate dimensions, check all bounds.

    Returns (report_dict, artifacts) where artifacts maps file names to
    table objects and samples used by the exporters.
    """
    config.validate()
    t_start = time.time()

    surface = fn_surface_rep(config.genus, config.interior_length)
    col_gamma = collar_width(surface, (1,))
    col_bound = collar_width(surface, surface.boundary_word())
    r_achieved = min(col_gamma.measured_halfwidth, col_bound.measured_halfwidth)

    rep = build_hnn(surface)
    diag = {
        "relator_residual": rep.relator_residual(),
        "plane_angle": plane_angle(rep.T),
        "gamma_length": surface.gamma_matrix().translation_length(),
        "boundary_length": surface.boundary_matrix().translation_length(),
    }

    fit = qi_constants(rep, sample_bend_paths(r_achieved, seed=config.seed))

    tree = build_strata_tree(rep, 4.5 * r_achieved, max_depth=4)
    leaf_table = leaf_count_check(tree, r_achieved)

    levels = []
    samples = {}
    tables = {}
    sample = None
    for m in range(config.level + 1):
        tg = truncated_generators(rep, m)
        budget = config.max_elements * (m + 1)
        ball = enumerate_ball(
            tg.matrices,
            BallLimit(max_word_len=config.word_budget, max_count=budget),
            sigma_values=[1] * len(tg.matrices),
            words=tg.words, presentation=rep.presentation,
        )
        # cumulative sample: the truncations are nested, so points from
        # lower levels remain limit points and keep the samples nested
        level_sample = sample_limit_set(ball, cap=budget,
                                        provenance=f"truncation m={m}")
        sample = (level_sample if sample is None
                  else merge_samples(sample, level_sample))
        box, table = box_dimension(sample, scales=config.scales)
        samples[m] = sample
        tables[m] = table

        orbit = None
        orbit_ball = enumerate_ball(
            tg.matrices,
            BallLimit(max_displacement=config.radius, max_count=budget,
                      max_word_len=config.word_budget),
            sigma_values=[1] * len(tg.matrices),
            words=tg.words, presentation=rep.presentation,
        )
        cr = orbit_ball.complete_radius
        radii = [max(2.0, cr - 4.0) + k * (cr - max(2.0, cr - 4.0)) / 4.0
                 for k in range(5)]
        try:
            orbit = critical_exponent(orbit_ball, radii)
        except (IncompleteBall, DegenerateScaleWindow):
            orbit = None
        verdict = dim_bound_check(box, fit, r_achieved)
        levels.append({
            "m": m,
            "n_elements": len(ball),
            "n_sample": len(sample),
            "box": _estimate_dict(box),
            "orbit": _estimate_dict(orbit),
            "orbit_complete_radius": cr,
            "scale_table": _scale_table_dict(table),
            "dim_bound": {
                "bound": verdict.bound,
                "tol": verdict.tol,
                "passed": verdict.passed,
            },
        })

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config": {**asdict(config), "scales": list(config.scales)},
        "surface": {
            "genus": config.genus,
            "interior_length": config.interior_length,
            "gamma_collar_halfwidth": col_gamma.measured_halfwidth,
            "boundary_collar_halfwidth": col_bound.measured_halfwidth,
            "r_achieved": r_achieved,
            "gluing_residuals": surface.gluing_residuals,
        },
        "hnn": diag,
        "qi_fit": {
            "epsilon_hat": fit.epsilon_hat,
            "c_hat": fit.c_hat,
            "n_samples": fit.n_samples,
            "max_ratio": fit.max_ratio,
            "min_ratio": fit.min_ratio,
        },
        "entropy_bound": entropy_bound(r_achieved),
        "strata": {
            "nodes": len(tree),
            "max_depth": tree.max_depth(),
            "min_gap": tree.min_gap() if math.isfinite(tree.min_gap()) else None,
            "leaf_rows": len(leaf_table.rows),
            "leaf_violations": len(leaf_table.violations()),
        },
        "levels": levels,
        "all_passed": all(lv["dim_bound"]["passed"] for lv in levels)
        and not leaf_table.violations(),
    }
    artifacts = {
        "samples": samples,
        "scale_tables": tables,
        "leaf_table": leaf_table,
        "wall_clock": time.time() - t_start,
    }
    return report, artifacts


def write_report(report, artifacts, out_dir):
    """Write report.json, CSV tables, the rendered limit set, and the
    timing sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "timing.json").write_text(
        json.dumps({"wall_clock_seconds": artifacts["wall_clock"]}) + "\n")
    for m, table in artifacts["scale_tables"].items():
        (out / f"scales_m{m}.csv").write_text(table.to_csv())
    (out / "leaves.csv").write_text(artifacts["leaf_table"].to_csv())
    top = max(artifacts["samples"])
    resolution = report["config"]["resolution"]
    render_limit_set(artifacts["samples"][top], resolution,
                     out / "limitset.ppm")
    return out / "report.json"


def render_limit_set(sample, resolution, path):
    """Square binary P6 image of the primary stereographic chart.

    Chart bounds (the sample's bounding square, padded 5%) go to a
    sidecar JSON next to the image.
    """
    if sample.count == 0:
        raise ValueError("empty sample")
    zs = np.array([complex(1e9, 0.0) if p.infinite else p.z for p in sample.points])
    finite = np.abs(zs) < 1e8
    if not finite.any():
        raise ValueError("no sample point in the primary chart")
    zs = zs[finite]
    lo_x, hi_x = float(np.min(zs.real)), float(np.max(zs.real))
    lo_y, hi_y = float(np.min(zs.imag)), float(np.max(zs.imag))
    cx, cy = (lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0
    half = max(hi_x - lo_x, hi_y - lo_y, 1e-9) / 2.0 * 1.05
    n = int(resolution)
    ix = np.clip(((zs.real - (cx - half)) / (2 * half) * n).astype(int), 0, n - 1)
    iy = np.clip(((zs.imag - (cy - half)) / (2 * half) * n).astype(int), 0, n - 1)
    img = np.zeros((n, n), dtype=np.uint8)
    img[n - 1 - iy, ix] = 255
    path = Path(path)
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{n} {n}\n255\n".encode())
        fh.write(rgb.tobytes())
    sidecar = {
        "chart": "z",
        "center": [cx, cy],
        "half_width": half,
        "resolution": n,
        "points_plotted": int(len(zs)),
        "points_off_chart": int(sample.count - len(zs)),
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    return path


def read_scale_csv(path):
    """Inverse of ScaleTable.to_csv."""
    lines = Path(path).read_text().strip().split("\n")
    rows = []
    for line in lines[1:]:
        d, c, comp, md = line.split(",")
        rows.append(ScaleRow(delta=float(d), box_count=int(c),
                             components=int(comp), max_diam=float(md)))
    return ScaleTable(rows=rows)
