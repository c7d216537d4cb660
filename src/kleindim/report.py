"""End-to-end pipeline: configuration, orchestration, rendering, and
machine-readable reports.

Reports are byte-deterministic for a fixed (config, seed, version);
wall-clock timings therefore live in a sidecar file, not in report.json.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import (_MIN_DELTA, ScaleRow, box_dimension, critical_exponent,
                        default_scales, merge_samples, sample_limit_set)
from .errors import DegenerateScaleWindow, IncompleteBall, NumericError
from .growth import (LeafRow, build_strata_tree, dim_bound_check, entropy_bound,
                     leaf_count_check, qi_constants, sample_bend_paths)
from .hnn import build_hnn, plane_angle
from .subgroup import BallLimit, enumerate_ball, truncated_generators
from .surface import collar_width, fn_surface_rep
from .words import _OFFSET

SCHEMA_VERSION = 2
# the rendered top-level sample, written by write_report and `kleindim render`
IMAGE = "limitset.ppm"


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the values each RunConfig field type admits, keyed by its annotation:
# an int is not a bool, a float may be an int, scales are numbers
_ADMITS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _ADMITS[f.type](value):
                raise ValueError(f"{f.name} must be of type {f.type}, not {value!r}")
        if not all(map(math.isfinite, [self.interior_length, self.radius, *self.scales])):
            raise ValueError("interior length, radius and scales must be finite")
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if self.interior_length <= 0:
            raise ValueError("interior length must be positive")
        if self.level < 0:
            raise ValueError("truncation level must be >= 0")
        if 2 * self.genus * (self.level + 1) >= _OFFSET:
            raise ValueError("genus and level too large for the byte encoding of words")
        if self.word_budget < 1 or self.radius <= 0:
            raise ValueError("budgets must be positive")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if min(self.scales) < _MIN_DELTA:
            raise ValueError(f"scales must be at least {_MIN_DELTA:.3g}")
        if len(set(self.scales)) < len(self.scales):
            raise ValueError("scales must be distinct")
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


def surface_stage(config):
    """The surface group and the collars of its two length-1 curves:
    (surface, report["surface"]).  r_achieved is the smaller collar
    half-width."""
    surface = fn_surface_rep(config.genus, config.interior_length)
    col_gamma = collar_width(surface, (1,)).measured_halfwidth
    col_bound = collar_width(surface, surface.boundary_word()).measured_halfwidth
    return surface, {
        "genus": config.genus,
        "interior_length": config.interior_length,
        "gamma_collar_halfwidth": col_gamma,
        "boundary_collar_halfwidth": col_bound,
        "r_achieved": min(col_gamma, col_bound),
        "gluing_residuals": surface.gluing_residuals,
    }


def extension_stage(surface):
    """The extension by the stable letter and its exactness diagnostics:
    (rep, report["hnn"])."""
    rep = build_hnn(surface)
    return rep, {
        "relator_residual": rep.relator_residual(),
        "plane_angle": plane_angle(rep.T),
        "gamma_length": surface.gamma_matrix().translation_length(),
        "boundary_length": surface.boundary_matrix().translation_length(),
    }


def bound_checks(rep, r, seed):
    """Strata tree to radius 4.5 r, its leaf-count table and the
    quasi-geodesic fit on bend paths of leg scale r: (fit, leaf table,
    the report's "qi_fit", "entropy_bound" and "strata")."""
    tree = build_strata_tree(rep, 4.5 * r, max_depth=4)
    leaf_table = leaf_count_check(tree, r)
    fit = qi_constants(rep, sample_bend_paths(r, seed=seed))
    return fit, leaf_table, {
        "qi_fit": asdict(fit),
        "entropy_bound": entropy_bound(r),
        "strata": {
            "nodes": len(tree),
            "max_depth": tree.max_depth(),
            "min_gap": tree.min_gap() if math.isfinite(tree.min_gap()) else None,
            "leaf_rows": len(leaf_table.rows),
            "leaf_violations": len(leaf_table.violations()),
            "lift_balls": {kind: asdict(ball) for kind, ball in tree.lift_balls.items()},
        },
    }


def truncation_ball(rep, m, limit):
    """Ball of the level-m truncation generators within `limit`, its
    elements told apart by free reduction on the free basis S_m of H_m
    (`subgroup.FreeForms`; at m = 0 the generators are that basis).
    Every generator tau^k gamma_i tau^-k has grading 0, enumerate_ball's
    default."""
    tg = truncated_generators(rep, m)
    return enumerate_ball(tg.matrices, limit, presentation=tg.presentation)


def _budget(config, m):
    return config.max_elements * (m + 1)


def sample_stage(rep, m, config, sample):
    """Level m's cumulative sample: `sample`, that of level m - 1 (None at
    m = 0), merged with the sample of level m's ball.  The truncations
    are nested, so points of lower levels remain limit points and the
    samples stay nested.  Returns (sample, the m, n_elements and n_sample
    of report["levels"][m])."""
    budget = _budget(config, m)
    ball = truncation_ball(
        rep, m, BallLimit(max_word_len=config.word_budget, max_count=budget))
    level_sample = sample_limit_set(ball, cap=budget)
    sample = level_sample if sample is None else merge_samples(sample, level_sample)
    return sample, {"m": m, "n_elements": len(ball), "n_sample": len(sample)}


def box_stage(sample, config, with_components=True):
    """Box dimension of a level's sample on the configured scales: (box,
    scale table, its "box" and "scale_table").  Without components the
    table's component columns read 0; the estimate does not use them."""
    box, table = box_dimension(sample, scales=config.scales,
                               with_components=with_components)
    return box, table, {
        "box": asdict(box),
        "scale_table": [{**asdict(row), "row": i} for i, row in enumerate(table.rows)],
    }


def orbit_stage(rep, m, config):
    """Critical exponent of level m's displacement ball: (its element
    count, truncated flag and collisions, and the "orbit" and
    "orbit_complete_radius" of report["levels"][m]).  The fit runs over
    five radii ending at the ball's complete radius; it is None when the
    ball is not complete that far or no window is usable."""
    ball = truncation_ball(
        rep, m, BallLimit(max_displacement=config.radius, max_count=_budget(config, m),
                          max_word_len=config.word_budget))
    cr = ball.complete_radius
    radii = [max(2.0, cr - 4.0) + k * (cr - max(2.0, cr - 4.0)) / 4.0
             for k in range(5)]
    try:
        orbit = asdict(critical_exponent(ball, radii))
    except (IncompleteBall, DegenerateScaleWindow):
        orbit = None
    described = {"elements": len(ball), "truncated": ball.truncated,
                 "collisions": ball.collisions}
    return described, {"orbit": orbit, "orbit_complete_radius": cr}


def _timed(stages, name, level, stage, *args):
    """stage(*args), with its wall seconds and the process's ru_maxrss
    after it (a high-water mark, in MB) appended to `stages`."""
    start = time.perf_counter()
    out = stage(*args)
    stages.append({"stage": name, "level": level, "wall_s": time.perf_counter() - start,
                   "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return out


def run_pipeline(config):
    """Build the representation, estimate dimensions, check all bounds:
    the stages above in order, the levels' in a loop over m.

    Returns (report_dict, artifacts) where artifacts maps file names to
    table objects and samples used by the exporters, and "stages" to each
    stage's `_timed` record, in the order the stages ran.
    """
    config.validate()
    t_start = time.time()
    stages = []

    surface, surface_section = _timed(stages, "surface", None, surface_stage, config)
    r_achieved = surface_section["r_achieved"]
    rep, hnn_section = _timed(stages, "extension", None, extension_stage, surface)
    fit, leaf_table, bound_sections = _timed(stages, "bound_checks", None, bound_checks,
                                             rep, r_achieved, config.seed)

    levels = []
    samples = {}
    tables = {}
    sample = None
    for m in range(config.level + 1):
        sample, level = _timed(stages, "sample", m, sample_stage, rep, m, config, sample)
        box, tables[m], box_section = _timed(stages, "box", m, box_stage, sample, config)
        _, orbit_section = _timed(stages, "orbit", m, orbit_stage, rep, m, config)
        samples[m] = sample
        levels.append({**level, **box_section, **orbit_section,
                       "dim_bound": asdict(dim_bound_check(box, fit, r_achieved))})

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config": asdict(config),
        "surface": surface_section,
        "hnn": hnn_section,
        **bound_sections,
        "levels": levels,
        "all_passed": all(lv["dim_bound"]["passed"] for lv in levels)
        and not leaf_table.violations(),
    }
    artifacts = {
        "samples": samples,
        "scale_tables": tables,
        "leaf_table": leaf_table,
        "wall_clock": time.time() - t_start,
        "stages": stages,
    }
    return report, artifacts


def write_report(report, artifacts, out_dir):
    """Write report.json, CSV tables, the rendered limit set, and the
    timing sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "timing.json").write_text(json.dumps(
        {"wall_clock_seconds": artifacts["wall_clock"], "stages": artifacts["stages"]}) + "\n")
    for m, table in artifacts["scale_tables"].items():
        (out / f"scales_m{m}.csv").write_text(table_csv(ScaleRow, table.rows))
    (out / "leaves.csv").write_text(table_csv(LeafRow, artifacts["leaf_table"].rows))
    top = max(artifacts["samples"])
    resolution = report["config"]["resolution"]
    render_limit_set(artifacts["samples"][top], resolution, out / IMAGE)
    return out / "report.json"


def table_csv(row_type, rows):
    """CSV text of `rows`, instances of the dataclass `row_type`: a header
    of its field names, then each row's values by repr, so every float
    survives a read-back bit for bit."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


def render_limit_set(sample, resolution, path):
    """Square binary P6 image of the primary stereographic chart, its
    directory made if missing; nothing is written for a sample with no
    point to plot.

    Chart bounds (the sample's bounding square, padded 5%) go to a
    sidecar JSON next to the image.
    """
    if sample.count == 0:
        raise NumericError("empty sample")
    zs = np.where(sample.infinite, complex(1e9, 0.0), sample.z)
    finite = np.hypot(zs.real, zs.imag) < 1e8
    if not finite.any():
        raise NumericError("no sample point in the primary chart")
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
    path.parent.mkdir(parents=True, exist_ok=True)
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
