"""Unit tests for configuration, rendering, table export, and the CLI."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from kleindim import dimension, report
from kleindim.cli import main
from kleindim.dimension import ScaleRow, ScaleTable, sample_from_points
from kleindim.errors import IncompleteBall
from kleindim.moebius import SpherePoint
from kleindim.report import RunConfig, render_limit_set
from kleindim.subgroup import BallResult


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
        assert table.to_csv() == ("delta,box_count,components,max_diam\n"
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
        empty = BallResult(mats=np.empty((0, 4), dtype=np.complex128), words=[],
                           disps=np.empty(0), sigmas=np.empty(0, dtype=np.int64),
                           complete_radius=0.0)
        monkeypatch.setattr("kleindim.cli.truncation_ball", lambda *a, **k: empty)
        out = tmp_path / "limitset.ppm"
        result = CliRunner().invoke(main, ["render", "-g", "1", "-m", "0",
                                           "--out", str(out)])
        assert result.exit_code == 3
        assert "error: empty sample" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_render_sample_at_infinity_is_numeric_error(self, tmp_path):
        # a two-element ball whose one loxodromic fixes infinity
        out = tmp_path / "limitset.ppm"
        result = CliRunner().invoke(main, ["render", "-g", "1", "-m", "0",
                                           "--max-count", "2", "--out", str(out)])
        assert result.exit_code == 3
        assert "error: no sample point in the primary chart" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, step", [
        (["build-surface"], "collars"),
        (["build-rep"], "build_hnn"),
        (["enumerate", "-R", "4"], "truncation_ball"),
        (["estimate-dim", "-m", "0", "--max-count", "200"], "box_dimension"),
        (["check-bounds"], "bound_checks"),
        (["render", "-m", "0"], "truncation_ball"),
        (["full-run"], "run_pipeline"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_package_error_is_numeric_error(self, tmp_path, monkeypatch, args, step):
        def fail(*a, **k):
            raise IncompleteBall("stopped short")

        monkeypatch.setattr(f"kleindim.cli.{step}", fail)
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args + ["-g", "1"])
        assert result.exit_code == 3
        assert "error: stopped short" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("cmd", ["enumerate", "estimate-dim", "render"])
    def test_max_count_zero_is_usage_error(self, tmp_path, cmd):
        out = tmp_path / "limitset.ppm"
        args = [cmd, "-g", "1", "--max-count", "0"]
        if cmd == "render":
            args += ["--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert not out.exists()

    def test_max_count_one_is_the_identity(self):
        result = CliRunner().invoke(main, ["enumerate", "-g", "1", "-m", "0",
                                           "--max-count", "1", "-R", "6"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["elements"] == 1
        assert out["truncated"] is True

    def test_build_surface_reports_collars(self):
        result = CliRunner().invoke(main, ["build-surface", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["genus"] == 1
        assert out["gamma_length"] == pytest.approx(1.0, abs=1e-9)
        assert out["boundary_length"] == pytest.approx(1.0, abs=1e-9)
        for key in ("gamma_collar_halfwidth", "boundary_collar_halfwidth"):
            assert 0.0 < out[key] < float("inf")

    def test_check_bounds_uses_the_smaller_collar(self):
        runner = CliRunner()
        surface = json.loads(runner.invoke(main, ["build-surface", "-g", "1"]).output)
        result = runner.invoke(main, ["check-bounds", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["r_achieved"] == min(surface["gamma_collar_halfwidth"],
                                        surface["boundary_collar_halfwidth"])
        assert out["r_achieved"] == helpers.r_achieved_for(1, 3.0)
        assert out["leaf_violations"] == 0
        assert out["strata_nodes"] > 1
        assert out["epsilon_hat"] >= 0.0

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
        assert json.loads(result.output)["leaf_violations"] > 0

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
                                           "--max-count", "5000"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert 0 < out["n_sample"] <= 5000
        assert 0.0 < out["box_dimension"] <= 2.0
        assert out["stderr"] >= 0.0
        lo, hi = out["scale_window"]
        assert lo < hi

    def test_estimate_dim_skips_components(self, monkeypatch):
        # only the dimension estimate is printed, so the component columns
        # of the scale table are never computed
        def refuse(sample, delta):
            raise AssertionError("component_analysis called")

        monkeypatch.setattr(dimension, "component_analysis", refuse)
        result = CliRunner().invoke(main, ["estimate-dim", "-m", "0",
                                           "--max-count", "200"])
        assert result.exception is None
        assert result.exit_code == 0
        assert 0 < json.loads(result.output)["n_sample"] <= 200

    def test_build_rep_reports_exactness(self):
        runner = CliRunner()
        result = runner.invoke(main, ["build-rep", "-g", "1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["relator_residual"] <= 1e-9
        assert abs(out["plane_angle"] - 1.5707963267948966) <= 1e-9
        assert out["stable_letter_index"] == 3

    def test_enumerate_command(self):
        runner = CliRunner()
        result = runner.invoke(main, ["enumerate", "-g", "1", "-m", "0",
                                      "-R", "6.0"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["elements"] > 1
        assert out["complete_radius"] == pytest.approx(6.0)

    def test_help_lists_subcommands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("build-surface", "build-rep", "enumerate", "estimate-dim",
                    "check-bounds", "render", "full-run"):
            assert cmd in result.output
