"""Write the CLI outputs of a fixed config matrix, to compare two checkouts byte for byte.

    python tests/output_matrix.py OUTDIR

runs every config below through ``sjdyn.cli.main`` of the checkout this file
sits in.  For each config NAME, OUTDIR gets NAME.json (the config),
NAME.csv and NAME.report.json when the run writes them, and NAME.out with
the exit code, stdout and stderr.  All paths are relative to OUTDIR, so the
outputs of two checkouts agree exactly when ``diff -r`` of their OUTDIRs is
empty.

The matrix is every method × rk4/rk45 (compare-all rk4 only) × fc/product
start × constant/two-segment drive × k ∈ {0.25, 0.75} (fock-oracle at 0.25
only), plus three failures for each n = 1 lane: an overflow at an RK stage
point, a first sample that is not finite, and |w| reaching 1.  At n = 2 it
runs the README ball drive through the two ball lanes × rk4/rk45 and
compare-all × fc/product start × constant/two-segment drive.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from sjdyn import cli  # noqa: E402

SCALAR = {"eps_a_re": 0.3, "eps_a_im": -0.1, "eps_0": 0.8, "eps_plus_re": 0.2, "eps_plus_im": 0.4}
SECOND = {"eps_a_re": -0.2, "eps_a_im": 0.25, "eps_0": -0.6, "eps_plus_re": 0.1, "eps_plus_im": -0.15}
INITIAL = {
    "fc": {"chart": "fc", "eta": [0.2, -0.1], "w": [0.1, 0.15]},
    "product": {"chart": "product", "z": [-0.15, 0.3], "w": [-0.2, 0.1]},
}
GRID = {"t0": 0.0, "t1": 1.0, "step": 0.01}
BALL = {
    "n": 2,
    "eps": [[0.1, 0.2], [0.0, -0.3]],
    "eps0": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]],
    "eps_plus": [[[0.2, 0.0], [0.0, 0.1]], [[0.0, 0.1], [-0.4, 0.0]]],
}
BALL_SECOND = {
    "n": 2,
    "eps": [[-0.2, 0.1], [0.15, 0.0]],
    "eps0": [[[-0.6, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.4, 0.0]]],
    "eps_plus": [[[0.1, 0.05], [0.0, -0.1]], [[0.0, -0.1], [0.15, 0.0]]],
}
BALL_INITIAL = {
    "fc": {"chart": "fc", "eta": [[0.2, -0.1], [0.0, 0.3]],
           "W": [[[0.1, 0.0], [0.0, 0.2]], [[0.0, 0.2], [-0.1, 0.0]]]},
    "product": {"chart": "product", "z": [[-0.15, 0.3], [0.1, 0.0]],
                "W": [[[-0.2, 0.1], [0.05, 0.0]], [[0.05, 0.0], [0.1, -0.1]]]},
}
N1_LANES = ("wei-norman", "berezin-fc", "berezin-disk")
METHODS = (*N1_LANES, "berezin-ball", "riccati-linearized", "fock-oracle", "compare-all")
VERB = {"compare-all": "compare", "fock-oracle": "oracle"}


def matrix() -> dict[str, dict]:
    configs = {}
    for method, integrator, chart, drive, k in itertools.product(
        METHODS, ("rk4", "rk45"), INITIAL, ("constant", "schedule"), (0.25, 0.75)
    ):
        if (method == "compare-all" and integrator == "rk45") or (method == "fock-oracle" and k != 0.25):
            continue
        cfg = {"method": method, "integrator": integrator, "grid": GRID, "initial": INITIAL[chart], "k": k}
        if drive == "constant":
            cfg["coefficients"] = SCALAR
        else:
            cfg["schedule"] = [{"until": 0.555, "coefficients": SCALAR}, {"until": 1.0, "coefficients": SECOND}]
        if method == "fock-oracle":
            cfg["fock"] = {"dim": 120}
        configs[f"{method}-{integrator}-{chart}-{drive}-k{k}"] = cfg
    for method, integrator, chart, drive in itertools.product(
        ("berezin-ball", "riccati-linearized", "compare-all"), ("rk4", "rk45"), BALL_INITIAL, ("constant", "schedule")
    ):
        if method == "compare-all" and integrator == "rk45":
            continue
        cfg = {"method": method, "integrator": integrator, "grid": GRID, "initial": BALL_INITIAL[chart]}
        if drive == "constant":
            cfg["coefficients"] = BALL
        else:
            cfg["schedule"] = [{"until": 0.555, "coefficients": BALL}, {"until": 1.0, "coefficients": BALL_SECOND}]
        configs[f"n2-{method}-{integrator}-{chart}-{drive}"] = cfg
    for method in N1_LANES:
        base = {"method": method, "grid": GRID, "initial": INITIAL["fc"]}
        configs[f"{method}-fail-stage-overflow"] = dict(
            base, grid={"t0": 0.0, "t1": 0.3, "step": 1e-3}, coefficients=dict(SCALAR, eps_a_re=1e300))
        configs[f"{method}-fail-first-sample"] = dict(
            base, coefficients=SCALAR, initial={"chart": "fc", "eta": [1e155, 0.0], "w": [0.1, 0.15]})
        configs[f"{method}-fail-edge"] = dict(
            base, grid={"t0": 0.0, "t1": 5.0, "step": 0.1}, coefficients=dict(SCALAR, eps_plus_re=50.0),
            initial={"chart": "fc", "eta": [0.0, 0.0], "w": [0.9, 0.0]})
    return configs


def main(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for name, cfg in matrix().items():
        cfg = dict(cfg, output={"csv": f"{name}.csv", "report": f"{name}.report.json"})
        with open(f"{name}.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main([VERB.get(cfg["method"], "run"), "--config", f"{name}.json"])
        with open(f"{name}.out", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/output_matrix.py OUTDIR")
    main(sys.argv[1])
