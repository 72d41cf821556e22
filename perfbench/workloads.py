"""Seeded inputs of the three workloads.

Every workload is a fixed list of operations per seed.  An operation is one
or two `sjdyn` CLI calls on generated config files.  Drives are chosen so
that every operation is well posed: the quadratic part of each Hamiltonian
is definite (|ε₊| well below |ε₀|/2, or the n-mode analogue), so W stays
well inside the ball, α stays bounded and the Fock tail stays far below the
oracle's truncation guard.

Schedule drives (two or three segments) do not depend on the seed: they fail
on every seed through the schedule-boundary fault (see README.md), so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

#: grid step of every RK4 grid; a power of two, so segment ends at multiples
#: of 1/4 land exactly on grid times
STEP = 1.0 / 256.0

SCALAR_T1 = 1.25
BALL_N = 3
BALL_T1 = 1.0
BALL_RK45_T1 = 16.0
BALL_RK45_SAMPLE = 0.5
FOCK_T1 = 1.0
FOCK_DIM = 240

SCALAR_SEEDED = 8
BALL_SEEDED = 9
FOCK_SEEDED = 4


@dataclass
class Call:
    """One CLI call: verb plus the config object written for it."""

    verb: str
    config: dict


@dataclass
class Operation:
    name: str
    calls: list[Call]
    schedule: bool


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _scalar_coeffs(rng: np.random.Generator) -> dict:
    eps0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.6))
    eps_plus = 0.35 * abs(eps0) * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
    eps_a = rng.uniform(0.1, 0.5) * np.exp(2j * np.pi * rng.uniform())
    return {
        "eps_a_re": float(eps_a.real), "eps_a_im": float(eps_a.imag),
        "eps_0": eps0,
        "eps_plus_re": float(eps_plus.real), "eps_plus_im": float(eps_plus.imag),
    }


def _scalar_initial(rng: np.random.Generator, chart: str) -> dict:
    first = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
    w = rng.uniform(0.05, 0.45) * np.exp(2j * np.pi * rng.uniform())
    key = "eta" if chart == "fc" else "z"
    return {"chart": chart, key: _pair(first), "w": _pair(w)}


def _ball_coeffs(rng: np.random.Generator, n: int) -> dict:
    """eps0 hermitian with a fixed spectrum ±(1.6 .. 3.2) in random axes, eps_plus
    symmetric with norm 0.3, entries of eps of modulus 0.3 in random phases.

    Fixed magnitudes keep the RK45 step count, and so the cost of an
    operation, nearly the same from seed to seed.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sign = rng.choice([-1.0, 1.0])
    eps0 = sign * (q * np.linspace(1.6, 3.2, n)) @ q.conj().T
    eps0 = 0.5 * (eps0 + eps0.conj().T)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = s + s.T
    eps_plus = 0.3 * s / np.linalg.norm(s, 2)
    eps = 0.3 * np.exp(2j * np.pi * rng.uniform(size=n))
    return {
        "n": n,
        "eps": [_pair(x) for x in eps],
        "eps0": [[_pair(x) for x in row] for row in eps0],
        "eps_plus": [[_pair(x) for x in row] for row in eps_plus],
    }


def _ball_initial(rng: np.random.Generator, n: int, chart: str) -> dict:
    first = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    first *= 0.3 / np.linalg.norm(first)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = s + s.T
    W = 0.3 * s / np.linalg.norm(s, 2)
    key = "eta" if chart == "fc" else "z"
    return {
        "chart": chart,
        key: [_pair(x) for x in first],
        "W": [[_pair(x) for x in row] for row in W],
    }


# fixed schedule drives (seed-independent, see module docstring)

_SCALAR_A = {"eps_a_re": 0.3, "eps_a_im": -0.1, "eps_0": 0.8, "eps_plus_re": 0.2, "eps_plus_im": 0.1}
_SCALAR_B = {"eps_a_re": -0.2, "eps_a_im": 0.25, "eps_0": -1.2, "eps_plus_re": 0.0, "eps_plus_im": -0.3}
_SCALAR_C = {"eps_a_re": 0.1, "eps_a_im": 0.4, "eps_0": 1.5, "eps_plus_re": -0.25, "eps_plus_im": 0.2}


def _scalar_schedules(t1: float) -> list[tuple[list[dict], dict]]:
    two = [{"until": 0.5, "coefficients": _SCALAR_A}, {"until": t1, "coefficients": _SCALAR_B}]
    three = [
        {"until": 0.25, "coefficients": _SCALAR_B},
        {"until": 0.75, "coefficients": _SCALAR_C},
        {"until": t1, "coefficients": _SCALAR_A},
    ]
    init_fc = {"chart": "fc", "eta": [0.2, -0.1], "w": [0.1, 0.15]}
    init_product = {"chart": "product", "z": [-0.15, 0.3], "w": [-0.2, 0.1]}
    return [(two, init_fc), (three, init_product)]


def _ball_schedule(t1: float) -> tuple[list[dict], dict]:
    rng = np.random.default_rng(20140325)
    first = _ball_coeffs(rng, BALL_N)
    second = _ball_coeffs(rng, BALL_N)
    initial = _ball_initial(rng, BALL_N, "fc")
    return [{"until": 0.5, "coefficients": first}, {"until": t1, "coefficients": second}], initial


def _grid(t1: float, step: float = STEP) -> dict:
    return {"t0": 0.0, "t1": t1, "step": step}


def scalar_compare(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(SCALAR_SEEDED):
        chart = "fc" if i % 2 == 0 else "product"
        cfg = {
            "method": "compare-all",
            "grid": _grid(SCALAR_T1),
            "coefficients": _scalar_coeffs(rng),
            "initial": _scalar_initial(rng, chart),
            "k": 0.25,
        }
        ops.append(Operation(f"drive{i}", [Call("compare", cfg)], schedule=False))
    for i, (sched, init) in enumerate(_scalar_schedules(SCALAR_T1)):
        cfg = {"method": "compare-all", "grid": _grid(SCALAR_T1), "schedule": sched,
               "initial": init, "k": 0.25}
        ops.append(Operation(f"schedule{i}", [Call("compare", cfg)], schedule=True))
    return ops


def _ball_op(name: str, drive: dict, initial: dict, schedule: bool) -> Operation:
    compare = {"method": "compare-all", "grid": _grid(BALL_T1), "initial": initial, **drive}
    if schedule:
        # the RK45 run covers the long horizon with the schedule's last drive
        last = drive["schedule"][-1]["coefficients"]
        run_drive = {"schedule": drive["schedule"][:-1] + [{"until": BALL_RK45_T1, "coefficients": last}]}
    else:
        run_drive = drive
    run = {
        "method": "berezin-ball",
        "integrator": "rk45",
        "grid": _grid(BALL_RK45_T1, BALL_RK45_SAMPLE),
        "initial": initial,
        **run_drive,
    }
    return Operation(name, [Call("compare", compare), Call("run", run)], schedule=schedule)


def ball_n3(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(BALL_SEEDED):
        chart = "fc" if i % 2 == 0 else "product"
        drive = {"coefficients": _ball_coeffs(rng, BALL_N)}
        ops.append(_ball_op(f"drive{i}", drive, _ball_initial(rng, BALL_N, chart), False))
    sched, init = _ball_schedule(BALL_T1)
    ops.append(_ball_op("schedule0", {"schedule": sched}, init, True))
    return ops


def fock_oracle(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(FOCK_SEEDED):
        chart = "fc" if i % 2 == 0 else "product"
        cfg = {
            "method": "fock-oracle",
            "grid": _grid(FOCK_T1),
            "coefficients": _scalar_coeffs(rng),
            "initial": _scalar_initial(rng, chart),
            "fock": {"dim": FOCK_DIM},
        }
        ops.append(Operation(f"drive{i}", [Call("oracle", cfg)], schedule=False))
    sched, init = _scalar_schedules(FOCK_T1)[0]
    cfg = {"method": "fock-oracle", "grid": _grid(FOCK_T1), "schedule": sched,
           "initial": init, "fock": {"dim": FOCK_DIM}}
    ops.append(Operation("schedule0", [Call("oracle", cfg)], schedule=True))
    return ops


WORKLOADS = {
    "scalar-compare": scalar_compare,
    "ball-n3": ball_n3,
    "fock-oracle": fock_oracle,
}


def write_configs(ops: list[Operation], root: str) -> list[list[tuple[str, str, str, str]]]:
    """Write each call's config under root/<op>/<call>/.

    Returns, per operation, one (verb, config path, csv path, report path)
    per call.  Output paths are absolute, so the CLI may run from any
    directory.
    """
    plan = []
    for op in ops:
        entries = []
        for j, call in enumerate(op.calls):
            d = os.path.join(root, op.name, str(j))
            os.makedirs(d, exist_ok=True)
            csv_path = os.path.join(d, "out.csv")
            report_path = os.path.join(d, "report.json")
            cfg = dict(call.config, output={"csv": csv_path, "report": report_path})
            cfg_path = os.path.join(d, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            entries.append((call.verb, cfg_path, csv_path, report_path))
        plan.append(entries)
    return plan
