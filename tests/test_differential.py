"""Every lane against the exact solutions of ``perfbench/exact.py``, through the CLI.

``exact.py`` imports nothing from ``sjdyn``: it solves (α, W) per segment by
matrix exponentials derived afresh from the quadratic Hamiltonian, and checks
a run's CSV and report row by row (state, W in the ball and symmetric,
energy per segment, φ_D against −∫E dt).  The configs come from one fixed
seed, so the verdict is the same on any machine.  They cover all five lanes,
RK4 at step 1e−3 and RK45, fc and product starts with |w| ≤ 0.9, definite
drives (|ε₊| ≤ 0.45·|ε₀|), t1 in [0.5, 3] and two-segment schedules whose cut
falls between samples.  The bounds are ``exact.py``'s own.

RK45 controls a relative error of ``RK45_RTOL`` = 1e−8, while ``exact.py``
bounds the energy and φ_D by an absolute 1e−8.  An rk45 config is therefore
drawn again until |E| and |φ_D| stay at most 1 on the exact path; without
that rule, runs with |φ_D| of 5 to 34 missed the φ_D bound by 4e−8 to 4e−7.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sjdyn import cli

LANES = ("wei-norman", "berezin-fc", "berezin-disk", "berezin-ball", "riccati-linearized")
SEED = 20140624
COUNT = 40


def _load_exact():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
    spec = importlib.util.spec_from_file_location("perfbench_exact", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up while they are built
    spec.loader.exec_module(module)
    return module


exact = _load_exact()


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _polar(rng, r_max: float) -> complex:
    return rng.uniform(0.0, r_max) * np.exp(2j * np.pi * rng.uniform())


def _coefficients(rng) -> dict:
    eps0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
    eps_plus = _polar(rng, 0.45 * abs(eps0))
    eps_a = _polar(rng, 1.0)
    return {"eps_a_re": eps_a.real, "eps_a_im": eps_a.imag, "eps_0": eps0,
            "eps_plus_re": eps_plus.real, "eps_plus_im": eps_plus.imag}


def _phase_scale(cfg: dict) -> float:
    """max(|E|, Σ|E|·Δt) over the segments of the exact path: the size of E and of the final φ_D."""
    segments = exact.segments_from_config(cfg)
    alpha, W = exact.exact_path(cfg, np.array([lo for lo, _, _ in segments]))
    energies = [abs(exact.energy(q, complex(a[0]), complex(w[0, 0]))) for (_, _, q), a, w in zip(segments, alpha, W)]
    return max(*energies, sum(e * (hi - lo) for e, (lo, hi, _) in zip(energies, segments)))


def _draw(rng, lane: str, integrator: str, chart: str, schedule: bool) -> dict:
    t1 = float(np.round(rng.uniform(0.5, 3.0), 3))
    step = 1e-3 if integrator == "rk4" else 0.05
    cfg = {
        "method": lane,
        "integrator": integrator,
        "grid": {"t0": 0.0, "t1": t1, "step": step},
        "initial": {"chart": chart, "eta" if chart == "fc" else "z": _pair(_polar(rng, 1.0)),
                    "w": _pair(_polar(rng, 0.9))},
    }
    if schedule:
        # a cut strictly between two samples
        cut = (np.floor(rng.uniform(0.3, 0.7) * t1 / step) + 0.5) * step
        cfg["schedule"] = [{"until": float(cut), "coefficients": _coefficients(rng)},
                           {"until": t1, "coefficients": _coefficients(rng)}]
    else:
        cfg["coefficients"] = _coefficients(rng)
    return cfg


def _configs() -> list[tuple[str, dict]]:
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(COUNT):
        lane, integrator = LANES[i % len(LANES)], "rk45" if i % 3 == 2 else "rk4"
        chart, schedule = "product" if i % 2 else "fc", i % 4 == 3
        cfg = _draw(rng, lane, integrator, chart, schedule)
        while integrator == "rk45" and _phase_scale(cfg) > 1.0:
            cfg = _draw(rng, lane, integrator, chart, schedule)
        out.append((f"{i:02d}-{lane}-{integrator}-{chart}{'-schedule' if schedule else ''}", cfg))
    return out


@pytest.mark.parametrize("cfg", [pytest.param(cfg, id=name) for name, cfg in _configs()])
def test_lane_matches_the_exact_solution(tmp_path, capsys, cfg):
    csv, report = tmp_path / "out.csv", tmp_path / "out.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, output={"csv": str(csv), "report": str(report)})))
    assert cli.main(["run", "--config", str(path)]) == 0, capsys.readouterr().err
    header, data = exact.read_csv(str(csv))
    assert exact.check_output(cfg, header, data, json.loads(report.read_text())) == []
