"""Unit tests for configuration, rendering, table round-trips, and the CLI."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from kleindim.cli import main
from kleindim.dimension import ScaleRow, ScaleTable, sample_from_points
from kleindim.moebius import SpherePoint
from kleindim.report import (RunConfig, read_scale_csv, render_limit_set)


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
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs).validate()

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
    def test_round_trip(self, tmp_path):
        table = ScaleTable(rows=[
            ScaleRow(delta=1.0, box_count=4, components=2, max_diam=0.5),
            ScaleRow(delta=0.5, box_count=9, components=5, max_diam=0.125),
        ])
        path = tmp_path / "scales.csv"
        path.write_text(table.to_csv())
        back = read_scale_csv(path)
        assert back.rows == table.rows


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

    def test_render_empty_sample_is_numeric_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kleindim.cli.enumerate_ball", lambda *a, **k: [])
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
                                           "--max-count", "1", "--out", str(out)])
        assert result.exit_code == 3
        assert "error: no sample point in the primary chart" in result.output
        assert not out.exists()

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
