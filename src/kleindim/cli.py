"""Command-line interface.

Exit codes: 0 pass, 1 a bound or invariant check failed, 2 usage error,
3 numeric/construction error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .dimension import box_dimension, critical_exponent, sample_limit_set
from .errors import KleindimError
from .growth import (build_strata_tree, dim_bound_check, leaf_count_check,
                     qi_constants, sample_bend_paths)
from .hnn import build_hnn, plane_angle
from .report import RunConfig, render_limit_set, run_pipeline, write_report
from .subgroup import BallLimit, enumerate_ball, truncated_generators
from .surface import collar_width, fn_surface_rep


def _fail_numeric(exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(3)


@click.group()
def main():
    """Hyperbolic limit-set construction and dimension estimation."""


_shared = [
    click.option("--genus", "-g", type=int, default=1, show_default=True),
    click.option("--interior-length", "-L", type=float, default=3.0, show_default=True),
]


def _with_shared(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


def _build(genus, length):
    try:
        return fn_surface_rep(genus, length)
    except KleindimError as exc:
        _fail_numeric(exc)


@main.command("build-surface")
@_with_shared
def build_surface_cmd(genus, interior_length):
    """Build the surface representation and print its diagnostics."""
    surface = _build(genus, interior_length)
    col_g = collar_width(surface, (1,))
    col_b = collar_width(surface, surface.boundary_word())
    out = {
        "genus": genus,
        "gamma_length": surface.gamma_matrix().translation_length(),
        "boundary_length": surface.boundary_matrix().translation_length(),
        "gluing_residuals": surface.gluing_residuals,
        "gamma_collar_halfwidth": col_g.measured_halfwidth,
        "boundary_collar_halfwidth": col_b.measured_halfwidth,
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command("build-rep")
@_with_shared
def build_rep_cmd(genus, interior_length):
    """Build the extension and print the exactness diagnostics."""
    surface = _build(genus, interior_length)
    try:
        rep = build_hnn(surface)
        out = {
            "relator_residual": rep.relator_residual(),
            "plane_angle": plane_angle(rep.T),
            "stable_letter_index": rep.stable_letter_index(),
        }
    except KleindimError as exc:
        _fail_numeric(exc)
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command("enumerate")
@_with_shared
@click.option("--level", "-m", type=int, default=0, show_default=True)
@click.option("--radius", "-R", type=float, default=10.0, show_default=True)
@click.option("--max-count", type=int, default=100_000, show_default=True)
def enumerate_cmd(genus, interior_length, level, radius, max_count):
    """Enumerate an orbit ball of the truncated subgroup."""
    surface = _build(genus, interior_length)
    try:
        rep = build_hnn(surface)
        tg = truncated_generators(rep, level)
        ball = enumerate_ball(
            tg.matrices,
            BallLimit(max_displacement=radius, max_count=max_count),
            sigma_values=[1] * len(tg.matrices),
            words=tg.words, presentation=rep.presentation,
        )
    except KleindimError as exc:
        _fail_numeric(exc)
    out = {
        "elements": len(ball),
        "complete_radius": ball.complete_radius,
        "truncated": ball.truncated,
        "collisions": ball.collisions,
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command("estimate-dim")
@_with_shared
@click.option("--level", "-m", type=int, default=2, show_default=True)
@click.option("--max-count", type=int, default=100_000, show_default=True)
def estimate_dim_cmd(genus, interior_length, level, max_count):
    """Box dimension of the truncated subgroup's limit-set sample."""
    surface = _build(genus, interior_length)
    try:
        rep = build_hnn(surface)
        tg = truncated_generators(rep, level)
        ball = enumerate_ball(tg.matrices, BallLimit(max_count=max_count),
                              sigma_values=[1] * len(tg.matrices),
                              words=tg.words, presentation=rep.presentation)
        sample = sample_limit_set(ball, cap=max_count)
        est, table = box_dimension(sample)
    except KleindimError as exc:
        _fail_numeric(exc)
    out = {
        "box_dimension": est.value,
        "stderr": est.stderr,
        "scale_window": list(est.scale_window),
        "n_sample": len(sample),
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command("check-bounds")
@_with_shared
@click.option("--seed", type=int, default=0, show_default=True)
def check_bounds_cmd(genus, interior_length, seed):
    """Leaf-count and quasi-geodesic bound checks; exit 1 on failure."""
    surface = _build(genus, interior_length)
    try:
        rep = build_hnn(surface)
        r_achieved = min(collar_width(surface, (1,)).measured_halfwidth,
                         collar_width(surface, surface.boundary_word()).measured_halfwidth)
        tree = build_strata_tree(rep, 4.5 * r_achieved, max_depth=4)
        table = leaf_count_check(tree, r_achieved)
        fit = qi_constants(rep, sample_bend_paths(r_achieved, seed=seed))
    except KleindimError as exc:
        _fail_numeric(exc)
    out = {
        "r_achieved": r_achieved,
        "strata_nodes": len(tree),
        "leaf_violations": len(table.violations()),
        "epsilon_hat": fit.epsilon_hat,
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))
    if table.violations():
        sys.exit(1)


@main.command("render")
@_with_shared
@click.option("--level", "-m", type=int, default=2, show_default=True)
@click.option("--max-count", type=int, default=100_000, show_default=True)
@click.option("--resolution", type=int, default=512, show_default=True)
@click.option("--out", type=click.Path(), default="limitset.ppm", show_default=True)
def render_cmd(genus, interior_length, level, max_count, resolution, out):
    """Render the limit-set sample to a P6 image."""
    surface = _build(genus, interior_length)
    try:
        rep = build_hnn(surface)
        tg = truncated_generators(rep, level)
        ball = enumerate_ball(tg.matrices, BallLimit(max_count=max_count),
                              sigma_values=[1] * len(tg.matrices),
                              words=tg.words, presentation=rep.presentation)
        sample = sample_limit_set(ball, cap=max_count)
    except KleindimError as exc:
        _fail_numeric(exc)
    try:
        render_limit_set(sample, resolution, out)
    except ValueError as exc:  # a sample with nothing to plot
        _fail_numeric(exc)
    click.echo(f"wrote {out}")


@main.command("full-run")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_with_shared
@click.option("--level", "-m", type=int, default=2, show_default=True)
@click.option("--word-budget", "-N", type=int, default=64, show_default=True)
@click.option("--radius", "-R", type=float, default=11.0, show_default=True)
@click.option("--scales", type=str, default=None,
              help="comma-separated scale list")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default="out", show_default=True)
@click.option("--resolution", type=int, default=512, show_default=True)
def full_run_cmd(config_path, genus, interior_length, level, word_budget,
                 radius, scales, seed, out, resolution):
    """Full pipeline; writes report.json, CSV tables and the image."""
    try:
        if config_path:
            config = RunConfig.from_json(config_path)
        else:
            config = RunConfig(genus=genus, interior_length=interior_length,
                               level=level, word_budget=word_budget, radius=radius,
                               seed=seed, out_dir=out, resolution=resolution)
            if scales:
                config.scales = [float(s) for s in scales.split(",")]
        config.validate()
    except ValueError as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)
    try:
        report, artifacts = run_pipeline(config)
    except KleindimError as exc:
        _fail_numeric(exc)
    path = write_report(report, artifacts, config.out_dir)
    click.echo(f"wrote {path}")
    if not report["all_passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
