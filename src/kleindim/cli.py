"""Command-line interface.

Every subcommand builds one `RunConfig`, validated as `full-run`'s is,
runs the stages of `report.run_pipeline` it needs and prints what those
stages put in the report, keyed by its path in report.json.

Exit codes: 0 pass, 1 a bound or invariant check failed, 2 usage error,
3 numeric/construction error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import report
from .errors import KleindimError


class _Main(click.Group):
    """Maps a package error raised by any subcommand to exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KleindimError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Hyperbolic limit-set construction and dimension estimation."""


def floats(value):
    """A comma-separated list of numbers, or a copy of the default list."""
    return list(value) if isinstance(value, list) else [float(s) for s in value.split(",")]


_DEFAULTS = report.RunConfig()
# one option per RunConfig field, its default the field's
_OPTIONS = {
    name: click.option(*decls, name, type=kind, default=getattr(_DEFAULTS, name),
                       show_default=True, help=help)
    for name, decls, kind, help in [
        ("genus", ["--genus", "-g"], int, None),
        ("interior_length", ["--interior-length", "-L"], float, None),
        ("level", ["--level", "-m"], int, "truncation level m"),
        ("word_budget", ["--word-budget", "-N"], int, "longest word enumerated"),
        ("radius", ["--radius", "-R"], float, "orbit ball displacement radius"),
        ("scales", ["--scales"], floats, "comma-separated box-count scales"),
        ("seed", ["--seed"], int, "bend-path seed"),
        ("out_dir", ["--out"], click.Path(), "output directory"),
        ("resolution", ["--resolution"], int, "image side in pixels"),
        ("max_elements", ["--max-elements"], int,
         "element budget per level: level m's balls hold at most max_elements*(m+1)"),
    ]
}


def _config(config_path, values):
    """The validated RunConfig of the options given, or of --config alone;
    exit 2 when it is not valid."""
    try:
        if config_path:
            ctx = click.get_current_context()
            given = [max(p.opts, key=len) for p in ctx.command.params
                     if p.name != "config_path" and ctx.get_parameter_source(p.name)
                     is ParameterSource.COMMANDLINE]
            if given:
                raise ValueError(f"--config cannot be combined with {', '.join(given)}")
            config = report.RunConfig.from_json(config_path)
        else:
            config = report.RunConfig(**values)
        config.validate()
    except ValueError as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)
    return config


def _command(name, *fields):
    """Subcommand `name` with an option for each RunConfig field in
    `fields` and --config; the function is called with the config."""

    def register(fn):
        @functools.wraps(fn)
        def run(config_path, **values):
            return fn(_config(config_path, values))

        for field in reversed(fields):
            run = _OPTIONS[field](run)
        run = click.option("--config", "config_path", type=click.Path(exists=True),
                           help="JSON file of RunConfig fields, instead of options")(run)
        return main.command(name)(run)

    return register


def _echo(out):
    click.echo(json.dumps(out, sort_keys=True, indent=2))


def _extension(config):
    """report's surface and extension stages: (rep, report["surface"],
    report["hnn"])."""
    surface, surface_section = report.surface_stage(config)
    rep, hnn_section = report.extension_stage(surface)
    return rep, surface_section, hnn_section


def _top_sample(config):
    """The cumulative sample of level config.level and its level section."""
    rep, _, _ = _extension(config)
    sample = None
    for m in range(config.level + 1):
        sample, level = report.sample_stage(rep, m, config, sample)
    return sample, level


@_command("build-surface", "genus", "interior_length")
def build_surface_cmd(config):
    """Build the surface representation; print report["surface"]."""
    _, section = report.surface_stage(config)
    _echo({"surface": section})


@_command("build-rep", "genus", "interior_length")
def build_rep_cmd(config):
    """Build the extension; print report["hnn"], its exactness."""
    _, _, section = _extension(config)
    _echo({"hnn": section})


@_command("enumerate", "genus", "interior_length", "level", "word_budget", "radius",
          "max_elements")
def enumerate_cmd(config):
    """Enumerate level m's orbit ball; print its size and the critical
    exponent fitted on it."""
    rep, _, _ = _extension(config)
    ball, section = report.orbit_stage(rep, config.level, config)
    m = config.level
    _echo({f"levels[{m}].orbit": section["orbit"],
           f"levels[{m}].orbit_complete_radius": section["orbit_complete_radius"],
           "orbit_ball": ball})


@_command("estimate-dim", "genus", "interior_length", "level", "word_budget", "scales",
          "max_elements")
def estimate_dim_cmd(config):
    """Box dimension of level m's cumulative limit-set sample."""
    sample, level = _top_sample(config)
    _, _, section = report.box_stage(sample, config, with_components=False)
    m = config.level
    _echo({f"levels[{m}].box": section["box"],
           f"levels[{m}].n_sample": level["n_sample"]})


@_command("check-bounds", "genus", "interior_length", "seed")
def check_bounds_cmd(config):
    """Leaf-count and quasi-geodesic bound checks; exit 1 on failure."""
    rep, surface_section, _ = _extension(config)
    r = surface_section["r_achieved"]
    _, _, sections = report.bound_checks(rep, r, config.seed)
    _echo({"surface.r_achieved": r, **sections})
    if sections["strata"]["leaf_violations"]:
        sys.exit(1)


@_command("render", "genus", "interior_length", "level", "word_budget", "max_elements",
          "resolution", "out_dir")
def render_cmd(config):
    """Render level m's cumulative sample as full-run's limitset.ppm."""
    sample, _ = _top_sample(config)
    path = report.render_limit_set(sample, config.resolution,
                                   Path(config.out_dir) / report.IMAGE)
    click.echo(f"wrote {path}")


@_command("full-run", *_OPTIONS)
def full_run_cmd(config):
    """Full pipeline; writes report.json, CSV tables and the image.

    With --config every setting comes from the file, so no other option
    may be given."""
    results, artifacts = report.run_pipeline(config)
    path = report.write_report(results, artifacts, config.out_dir)
    click.echo(f"wrote {path}")
    if not results["all_passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
