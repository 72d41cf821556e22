"""Golden outputs of the README's example configs and of the paths around them.

Each golden file holds the full JSON report, the CSV header and row count,
and every 100th CSV row plus the last one.  Headers and row counts must
match exactly and every number within 1e-12 (relative above 1), so that the
verdict does not depend on the BLAS build.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from sjdyn.runner import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
SAMPLE_EVERY = 100
TOL = 1e-12

SCALAR = {"eps_a_re": 0.3, "eps_a_im": -0.1, "eps_0": 0.8, "eps_plus_re": 0.2, "eps_plus_im": 0.4}
SCALAR_INITIAL = {"chart": "fc", "eta": [0.2, -0.1], "w": [0.1, 0.15]}
GRID = {"t0": 0.0, "t1": 1.0, "step": 0.001}
BALL = {
    "n": 2,
    "eps": [[0.1, 0.2], [0.0, -0.3]],
    "eps0": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]],
    "eps_plus": [[[0.2, 0.0], [0.0, 0.1]], [[0.0, 0.1], [-0.4, 0.0]]],
}
BALL_INITIAL = {
    "chart": "fc",
    "eta": [[0.2, -0.1], [0.0, 0.3]],
    "W": [[[0.1, 0.0], [0.0, 0.2]], [[0.0, 0.2], [-0.1, 0.0]]],
}
SCHEDULE = [
    {"until": 1.0, "coefficients": {"eps_a_re": 0.3, "eps_a_im": 0.0,
                                    "eps_0": 0.8, "eps_plus_re": 0.2, "eps_plus_im": 0.4}},
    {"until": 2.0, "coefficients": {"eps_a_re": 0.0, "eps_a_im": 0.0,
                                    "eps_0": -0.3, "eps_plus_re": 0.0, "eps_plus_im": 0.0}},
]

CONFIGS = {
    "scalar-compare": {
        "method": "compare-all", "grid": GRID, "coefficients": SCALAR,
        "initial": SCALAR_INITIAL, "k": 0.25,
    },
    "ball-compare": {"method": "compare-all", "grid": GRID, "coefficients": BALL, "initial": BALL_INITIAL},
    "fock-oracle": {
        "method": "fock-oracle", "grid": GRID, "coefficients": SCALAR,
        "initial": SCALAR_INITIAL, "fock": {"dim": 250},
    },
    "scalar-product-compare": {
        "method": "compare-all", "grid": GRID, "coefficients": SCALAR,
        "initial": {"chart": "product", "z": [-0.15, 0.3], "w": [-0.2, 0.1]}, "k": 0.25,
    },
    "schedule-compare-fock": {
        "method": "compare-all", "grid": {"t0": 0.0, "t1": 2.0, "step": 0.01}, "schedule": SCHEDULE,
        "initial": SCALAR_INITIAL, "fock": {"dim": 120},
    },
    "ball-rk45": {
        "method": "berezin-ball", "integrator": "rk45", "grid": {"t0": 0.0, "t1": 1.0, "step": 0.01},
        "coefficients": BALL, "initial": BALL_INITIAL,
    },
}


def summarize(name: str, workdir: Path) -> dict:
    csv, report = workdir / f"{name}.csv", workdir / f"{name}.json"
    cfg = dict(CONFIGS[name], output={"csv": str(csv), "report": str(report)})
    run_experiment(ExperimentConfig.from_json(cfg))
    rep = json.loads(report.read_text(encoding="utf-8"))
    del rep["csv"]  # the output path
    header, *rows = csv.read_text(encoding="utf-8").splitlines()
    keep = sorted(set(range(0, len(rows), SAMPLE_EVERY)) | {len(rows) - 1})
    return {
        "report": rep,
        "csv_header": header,
        "csv_rows": len(rows),
        "csv_sample": {str(i): rows[i] for i in keep},
    }


def assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= TOL * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", CONFIGS)
def test_readme_config_matches_golden(name, tmp_path):
    got = summarize(name, tmp_path)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert got["csv_header"] == want["csv_header"]
    assert got["csv_rows"] == want["csv_rows"]
    assert sorted(got["csv_sample"]) == sorted(want["csv_sample"])
    for i, row in want["csv_sample"].items():
        values = [float(v) for v in got["csv_sample"][i].split(",")]
        expected = [float(v) for v in row.split(",")]
        assert len(values) == len(expected), f"csv row {i}"
        for col, (g, w) in enumerate(zip(values, expected)):
            assert_close(g, w, f"csv row {i} column {col}")
    assert_close(got["report"], want["report"], "report")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            summary = summarize(name, Path(tmp))
            with open(GOLDEN / f"{name}.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {GOLDEN / f'{name}.json'}", file=sys.stderr)
