"""The report of `RunConfig(max_elements=10000)` against pinned copies.

`tests/data/torus_10k/` holds this run's `report.json` (with
`config.out_dir` set to "out"), its three scale CSVs, and `pinned.json`:
the SHA-256 of `leaves.csv`, `limitset.ppm` and `limitset.json`, and the
Python and NumPy versions that wrote the copies.  `timing.json` holds wall
times and is not compared.

On the recorded versions every value must match exactly (floats by
repr, so bit for bit), and every digest.  On other versions the
numbers are compared to a relative tolerance of REL_TOL (strings and
booleans exactly), the digests are not compared, and a warning says so:
another libm or NumPy may round the last bit differently.

A change that moves report bytes on purpose rewrites the copies with

    PYTHONPATH=src python tests/test_report_bytes.py

and explains each changed field.
"""

import hashlib
import json
import math
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from kleindim import report

DATA = Path(__file__).resolve().parent / "data" / "torus_10k"
CSVS = [f"scales_m{m}.csv" for m in range(3)]
DIGESTED = ["leaves.csv", "limitset.ppm", "limitset.json"]
REL_TOL = 1e-6


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run(out_dir):
    config = report.RunConfig(max_elements=10_000, out_dir=str(out_dir))
    rep, artifacts = report.run_pipeline(config)
    report.write_report(rep, artifacts, out_dir)


def _report(out_dir):
    data = json.loads((Path(out_dir) / "report.json").read_text())
    data["config"]["out_dir"] = "out"
    return data


def _number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _csv(text):
    """Rows of a scale CSV, each a dict of header name to value."""
    head, *rows = text.strip().split("\n")
    names = head.split(",")
    return [dict(zip(names, map(_number, row.split(",")))) for row in rows]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _differences(want, got, exact, path=""):
    """Every path at which `got` differs from `want`, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [d for k in sorted(set(want) | set(got))
                for d in _differences(want.get(k), got.get(k), exact, f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in _differences(a, b, exact, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (want, got))
    if numbers and not exact:
        same = math.isclose(want, got, rel_tol=REL_TOL) or (math.isnan(want)
                                                            and math.isnan(got))
    else:
        same = type(want) is type(got) and repr(want) == repr(got)
    return [] if same else [f"{path or '.'}: pinned {want!r}, got {got!r}"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("torus_10k")
    _run(out)
    return out


def test_report_matches_pinned_copy(run):
    pinned = json.loads((DATA / "pinned.json").read_text())
    exact = pinned["versions"] == _versions()
    diffs = _differences(json.loads((DATA / "report.json").read_text()), _report(run),
                         exact, "report.json")
    for name in CSVS:
        diffs += _differences(_csv((DATA / name).read_text()), _csv((run / name).read_text()),
                              exact, name)
    if exact:
        diffs += [f"{name}: pinned sha256 {want}, got {_digest(run / name)}"
                  for name, want in pinned["sha256"].items() if _digest(run / name) != want]
    how = ("exactly" if exact else
           f"to relative tolerance {REL_TOL:g}, as the copies were written by "
           f"{pinned['versions']} and this is {_versions()}; "
           f"{', '.join(DIGESTED)} not compared")
    assert not diffs, f"compared {how}:\n" + "\n".join(diffs)
    if not exact:
        warnings.warn(f"report compared {how}")


def _write_copies():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        _run(out)
        DATA.mkdir(parents=True, exist_ok=True)
        (DATA / "report.json").write_text(json.dumps(_report(out), sort_keys=True, indent=2)
                                          + "\n")
        for name in CSVS:
            (DATA / name).write_text((out / name).read_text())
        pinned = {"versions": _versions(),
                  "sha256": {name: _digest(out / name) for name in DIGESTED}}
        (DATA / "pinned.json").write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    _write_copies()
