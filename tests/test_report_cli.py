"""Unit tests for configuration, rendering, table export, and the CLI."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from kleindim import dimension, growth, report
from kleindim.cli import main
from kleindim.dimension import ScaleRow, ScaleTable, sample_from_points
from kleindim.errors import IncompleteBall
from kleindim.moebius import SpherePoint
from kleindim.report import RunConfig, render_limit_set, table_csv
from kleindim.subgroup import BallLimit, BallResult


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"genus": 0},
        {"interior_length": -1.0},
        {"level": -1},
        {"word_budget": 0},
        {"radius": 0.0},
        {"scales": []},
        {"scales": [0.5, -0.25]},
        {"scales": [0.5, 1e-9]},
        {"seed": None},
        {"max_elements": 10},
        {"genus": "2"},
        {"genus": True},
        {"level": 1.0},
        {"radius": "11"},
        {"scales": [1.0, "0.5"]},
        {"scales": [1.0, False]},
        {"scales": 0.5},
        {"out_dir": 3},
        {"interior_length": math.nan},
        {"interior_length": math.inf},
        {"radius": math.nan},
        {"radius": math.inf},
        {"scales": [math.nan, 0.5, 0.25]},
        {"scales": [1.0, math.inf]},
        {"scales": [0.5, 0.5, 0.25]},
        {"genus": 64, "level": 0},
        {"genus": 1, "level": 63},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs).validate()

    def test_int_accepted_for_float(self):
        RunConfig(interior_length=3, radius=11, scales=[1, 0.5]).validate()

    def test_json_round_trip(self, tmp_path):
        config = RunConfig(genus=2, level=1, seed=7, scales=[1.0, 0.5, 0.25])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": 1, "genus": 2, "level": 1,
                                    "seed": 7, "scales": [1.0, 0.5, 0.25]}))
        loaded = RunConfig.from_json(path)
        assert loaded.genus == config.genus
        assert loaded.scales == config.scales
        assert loaded.seed == 7


def _read_ppm(path):
    data = path.read_bytes()
    header, rest = data.split(b"255\n", 1)
    magic, dims = header.split(b"\n", 1)
    assert magic == b"P6"
    w, h = (int(x) for x in dims.split())
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


class TestRender:
    def test_two_point_sample_lights_two_pixels(self, tmp_path):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        out = tmp_path / "two.ppm"
        render_limit_set(sample, 64, out)
        img = _read_ppm(out)
        assert img.shape == (64, 64, 3)
        assert int(np.count_nonzero(img[:, :, 0])) == 2

    def test_sidecar_metadata(self, tmp_path):
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        out = tmp_path / "two.ppm"
        render_limit_set(sample, 32, out)
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["resolution"] == 32
        assert meta["points_plotted"] == 2
        assert meta["points_off_chart"] == 0

    def test_empty_sample_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_limit_set(sample_from_points([]), 32, tmp_path / "x.ppm")


class TestScaleCsvRoundTrip:
    def test_round_trip(self):
        # floats are written by repr, so every bit survives a read-back
        table = ScaleTable(rows=[
            ScaleRow(delta=1.0, box_count=4, components=2, max_diam=0.5),
            ScaleRow(delta=0.5, box_count=9, components=5, max_diam=0.1 + 0.2),
        ])
        assert table_csv(ScaleRow, table.rows) == ("delta,box_count,components,max_diam\n"
                                                   "1.0,4,2,0.5\n"
                                                   "0.5,9,5,0.30000000000000004\n")


class TestCli:
    def test_usage_error_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(main, ["full-run", "--level", "-1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ['{"genus": 1, "bogus": 3}', '{"genus": 1,'],
                             ids=["unknown-key", "malformed"])
    def test_bad_config_is_usage_error(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        runner = CliRunner()
        result = runner.invoke(main, ["full-run", "--config", str(path)])
        assert result.exit_code == 2
        assert "usage error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("text", [
        '{"radius": NaN}',
        '{"interior_length": Infinity}',
        '{"scales": [0.5, NaN, 0.125]}',
        '{"scales": [0.5, 0.25, 0.25]}',
    ])
    def test_non_finite_or_repeated_config_is_usage_error(self, tmp_path, monkeypatch, text):
        # Python's json reads NaN and Infinity; report.json could not
        # hold them
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(text)
        for cmd in ("enumerate", "estimate-dim", "full-run"):
            result = CliRunner().invoke(main, [cmd, "--config", str(path)])
            assert result.exit_code == 2, cmd
            assert "usage error:" in result.output
        assert list(tmp_path.iterdir()) == [path]

    def test_orbit_ball_complete_to_two_has_no_orbit(self):
        # its five fit radii all equal 2.0: no window, so orbit is null
        result = CliRunner().invoke(main, ["enumerate", "-R", "2"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["levels[2].orbit"] is None
        assert out["levels[2].orbit_complete_radius"] == 2.0

    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"genus": "2"}')
        result = CliRunner().invoke(main, ["full-run", "--config", str(path)])
        assert result.exit_code == 2
        assert "usage error: genus must be of type int" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_config_with_other_flags_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"genus": 1, "out_dir": str(tmp_path / "o1")}))
        result = CliRunner().invoke(main, ["full-run", "--config", str(path), "-g", "2",
                                           "--out", str(tmp_path / "o2")])
        assert result.exit_code == 2
        assert "usage error: --config cannot be combined with --genus, --out" in result.output
        assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()

    def test_render_empty_sample_is_numeric_error(self, tmp_path, monkeypatch):
        empty = BallResult(mats=np.empty((0, 4), dtype=np.complex128),
                           words=helpers.words_of([], ()),
                           disps=np.empty(0), sigmas=np.empty(0, dtype=np.int64),
                           complete_radius=0.0)
        monkeypatch.setattr(report, "truncation_ball", lambda *a, **k: empty)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["render", "-g", "1", "-m", "0",
                                           "--out", str(out)])
        assert result.exit_code == 3
        assert "error: empty sample" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("args", [["estimate-dim"], ["full-run"]], ids=" ".join)
    def test_empty_sample_is_numeric_error(self, tmp_path, monkeypatch, args):
        # a one-element ball holds only the identity, so no limit point
        ball = report.truncation_ball
        monkeypatch.setattr(report, "truncation_ball",
                            lambda rep, m, limit: ball(rep, m, BallLimit(max_count=1)))
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args + ["-g", "1", "-m", "0"])
        assert result.exit_code == 3
        assert "error: empty sample" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_render_sample_at_infinity_is_numeric_error(self, tmp_path, monkeypatch):
        # a two-element ball whose one loxodromic fixes infinity
        ball = report.truncation_ball
        monkeypatch.setattr(report, "truncation_ball",
                            lambda rep, m, limit: ball(rep, m, BallLimit(max_count=2)))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["render", "-g", "1", "-m", "0",
                                           "--out", str(out)])
        assert result.exit_code == 3
        assert "error: no sample point in the primary chart" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, step", [
        (["build-surface"], "collar_width"),
        (["build-rep"], "build_hnn"),
        (["enumerate", "-R", "4"], "truncation_ball"),
        (["estimate-dim", "-m", "0", "--max-elements", "200"], "box_dimension"),
        (["check-bounds"], "bound_checks"),
        (["render", "-m", "0"], "truncation_ball"),
        (["full-run"], "run_pipeline"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_package_error_is_numeric_error(self, tmp_path, monkeypatch, args, step):
        def fail(*a, **k):
            raise IncompleteBall("stopped short")

        monkeypatch.setattr(report, step, fail)
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args + ["-g", "1"])
        assert result.exit_code == 3
        assert "error: stopped short" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_singular_matrix_is_numeric_error(self):
        # the level-5 truncation generators at (3,5) lose their determinant
        result = CliRunner().invoke(main, ["estimate-dim", "-g", "3", "-L", "5", "-m", "5",
                                           "--max-elements", "100"])
        assert result.exit_code == 3
        assert "error: singular matrix" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("args", [
        ["enumerate", "-m", "-1"],
        ["estimate-dim", "-g", "0"],
        ["render", "--resolution", "0"],
        ["build-surface", "-g", "2", "-L", "-1"],
        ["full-run", "--max-elements", "99"],
        ["enumerate", "-m", "0", "--max-elements", "1000", "-R", "nan"],
        ["enumerate", "-R", "inf"],
        ["build-surface", "-L", "nan"],
        ["full-run", "-L", "nan"],
        ["estimate-dim", "--scales", "nan,0.5,0.25,0.125"],
        ["estimate-dim", "--scales", "0.5,0.5,0.25,0.125,0.0625"],
        ["full-run", "--scales", "0.5,0.25,0.25"],
        ["full-run", "--scales", "0.5,0.25,1e-9"],
        ["enumerate", "-g", "1", "-m", "63"],
    ], ids=" ".join)
    def test_usage_error_writes_nothing(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "usage error:" in result.output
        assert isinstance(result.exception, SystemExit)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["enumerate", "estimate-dim", "render"])
    def test_max_elements_below_100_is_usage_error(self, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, [cmd, "-g", "1", "--max-elements", "99"])
        assert result.exit_code == 2
        assert "usage error: element budget too small" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_max_elements_caps_the_orbit_ball(self):
        # level m's balls hold at most max_elements * (m + 1) elements
        result = CliRunner().invoke(main, ["enumerate", "-g", "1", "-m", "1",
                                           "--max-elements", "100", "-R", "20"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["orbit_ball"]["elements"] == 200
        assert out["orbit_ball"]["truncated"] is True
        assert out["levels[1].orbit_complete_radius"] < 20.0

    def test_build_surface_reports_collars(self):
        result = CliRunner().invoke(main, ["build-surface", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)["surface"]
        assert out["genus"] == 1
        for key in ("gamma_collar_halfwidth", "boundary_collar_halfwidth"):
            assert 0.0 < out[key] < float("inf")

    def test_check_bounds_uses_the_smaller_collar(self):
        runner = CliRunner()
        surface = json.loads(runner.invoke(main, ["build-surface", "-g", "1"]).output)
        surface = surface["surface"]
        result = runner.invoke(main, ["check-bounds", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["surface.r_achieved"] == min(surface["gamma_collar_halfwidth"],
                                                surface["boundary_collar_halfwidth"])
        assert out["surface.r_achieved"] == helpers.r_achieved_for(1, 3.0)
        assert out["strata"]["leaf_violations"] == 0
        assert out["strata"]["nodes"] > 1
        assert out["qi_fit"]["epsilon_hat"] >= 0.0

    @pytest.mark.parametrize("args", [["check-bounds"], ["full-run", "-m", "0"]],
                             ids=lambda v: v[0])
    def test_leaf_chart_without_shift_is_numeric_error(self, tmp_path, monkeypatch, args):
        # the leaf check's chart, given endpoints at each of its shifts too
        chart = growth._finite_chart
        crowd = np.array([growth._CHART_SHIFTS] * 2).T

        def crowded(ends, finite):
            return chart(np.concatenate([ends, crowd]),
                         np.concatenate([finite, np.ones_like(crowd, dtype=bool)]))

        monkeypatch.setattr(growth, "_finite_chart", crowded)
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args + ["-g", "1"])
        assert result.exit_code == 3
        assert "error: no admissible chart shift" in result.output
        assert isinstance(result.exception, SystemExit)

    @staticmethod
    def _break_leaf_bound(monkeypatch):
        # r = 1e9 drives every leaf bound down to 2, which the default
        # torus tree exceeds
        check = report.leaf_count_check
        monkeypatch.setattr(report, "leaf_count_check", lambda tree, r: check(tree, 1e9))

    def test_check_bounds_leaf_violation_exits_1(self, monkeypatch):
        self._break_leaf_bound(monkeypatch)
        result = CliRunner().invoke(main, ["check-bounds", "-g", "1"])
        assert result.exit_code == 1
        assert json.loads(result.output)["strata"]["leaf_violations"] > 0

    def test_full_run_leaf_violation_fails_the_report(self, tmp_path, monkeypatch):
        self._break_leaf_bound(monkeypatch)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["full-run", "-g", "1", "-m", "0",
                                           "--out", str(out)])
        assert result.exit_code == 1
        written = json.loads((out / "report.json").read_text())
        assert written["strata"]["leaf_violations"] > 0
        assert written["all_passed"] is False
        assert all(level["dim_bound"]["passed"] for level in written["levels"])
        leaves = (out / "leaves.csv").read_text().splitlines()
        assert len(leaves) == 1 + written["strata"]["leaf_rows"]

    def test_estimate_dim_command(self):
        result = CliRunner().invoke(main, ["estimate-dim", "-g", "1", "-m", "1",
                                           "--max-elements", "5000"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        # the cumulative sample: at most 5,000 points from level 0, 10,000 from 1
        assert 0 < out["levels[1].n_sample"] <= 15000
        box = out["levels[1].box"]
        assert 0.0 < box["value"] <= 2.0
        assert box["stderr"] >= 0.0
        lo, hi = box["scale_window"]
        assert lo < hi

    def test_estimate_dim_skips_components(self, monkeypatch):
        # only the dimension estimate is printed, so the component columns
        # of the scale table are never computed: the one component kernel,
        # which every scale of every table goes through, is never entered
        def refuse(sample, delta, finer):
            raise AssertionError("component kernel called")

        monkeypatch.setattr(dimension, "_components_at", refuse)
        result = CliRunner().invoke(main, ["estimate-dim", "-m", "0",
                                           "--max-elements", "200"])
        assert result.exception is None
        assert result.exit_code == 0
        assert 0 < json.loads(result.output)["levels[0].n_sample"] <= 200
        # the stub is where a table with components would go
        sample = sample_from_points([SpherePoint(0j), SpherePoint(1 + 0j)])
        with pytest.raises(AssertionError, match="component kernel called"):
            dimension.box_dimension(sample, [1.0, 0.5])

    def test_build_rep_reports_exactness(self):
        runner = CliRunner()
        result = runner.invoke(main, ["build-rep", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)["hnn"]
        assert out["relator_residual"] <= 1e-9
        assert abs(out["plane_angle"] - 1.5707963267948966) <= 1e-9
        assert out["gamma_length"] == pytest.approx(1.0, abs=1e-9)
        assert out["boundary_length"] == pytest.approx(1.0, abs=1e-9)

    def test_enumerate_command(self):
        runner = CliRunner()
        result = runner.invoke(main, ["enumerate", "-g", "1", "-m", "0",
                                      "-R", "6.0"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["orbit_ball"]["elements"] > 1
        assert out["levels[0].orbit_complete_radius"] == pytest.approx(6.0)

    def test_help_lists_subcommands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("build-surface", "build-rep", "enumerate", "estimate-dim",
                    "check-bounds", "render", "full-run"):
            assert cmd in result.output


# a small config that every subcommand and full-run share
SMALL = ["-g", "1", "-m", "1", "--max-elements", "1000"]


def _at(data, path):
    """The value at a printed key such as "levels[1].box" in report.json."""
    for part in re.findall(r"[^.\[\]]+", path):
        data = data[int(part)] if isinstance(data, list) else data[part]
    return data


class TestOnePipeline:
    """Every subcommand prints the numbers full-run writes for the same
    config, keyed by their paths in report.json."""

    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("full") / "out"
        result = CliRunner().invoke(main, ["full-run", *SMALL, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out, json.loads((out / "report.json").read_text())

    @pytest.mark.parametrize("args", [
        ["build-surface", "-g", "1"],
        ["build-rep", "-g", "1"],
        ["enumerate", *SMALL],
        ["estimate-dim", *SMALL],
        ["check-bounds", "-g", "1"],
    ], ids=lambda args: args[0])
    def test_printed_values_are_the_reports(self, full_run, args):
        _, written = full_run
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        printed = json.loads(result.output)
        # the orbit ball's size is the one printed value not in the report
        printed.pop("orbit_ball", None)
        assert printed
        for path, value in printed.items():
            assert value == _at(written, path), path

    def test_timing_records_every_stage_in_order(self, full_run):
        out, _ = full_run
        timing = json.loads((out / "timing.json").read_text())
        assert sorted(timing) == ["stages", "wall_clock_seconds"]
        stages = timing["stages"]
        assert [(s["stage"], s["level"]) for s in stages] == [
            ("surface", None), ("extension", None), ("bound_checks", None),
            ("sample", 0), ("box", 0), ("orbit", 0), ("sample", 1), ("box", 1), ("orbit", 1)]
        assert all(sorted(s) == ["level", "ru_maxrss_mb", "stage", "wall_s"] for s in stages)
        assert all(s["wall_s"] >= 0.0 for s in stages)
        # ru_maxrss is the process's high-water mark: it never falls
        rss = [s["ru_maxrss_mb"] for s in stages]
        assert rss == sorted(rss) and rss[0] > 0.0

    def test_render_writes_full_runs_image(self, full_run, tmp_path):
        out, _ = full_run
        result = CliRunner().invoke(main, ["render", *SMALL, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        for name in (report.IMAGE, "limitset.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
