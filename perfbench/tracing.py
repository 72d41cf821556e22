"""Per-layer tracing of `sjdyn`, wrapped from outside.

The tracer replaces, for the duration of a `with` block, the names that
`sjdyn.runner`, `sjdyn.fockoracle` and `sjdyn.cli` look up at call time
(module globals, the `_LANES` table, two class attributes and
`numpy.linalg.eigh`).  No program file changes.  Spans are recorded only
while `active` is set, so the benchmark's own work (reference kernels,
checks) is never counted.

For each wrapped entry it keeps the call count, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

import numpy as np

LANES = ("wei-norman", "berezin-fc", "berezin-disk", "berezin-ball", "riccati-linearized")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.extra: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._restore: list[Callable[[], None]] = []

    def reset(self) -> None:
        self.stats = {}
        self.extra = {}

    def wrap(self, name: str, fn: Callable, after: Callable[..., None] | None = None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                rec = self.stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
                if after is not None:
                    after(self, *args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _patch_classmethod(self, cls: type, attr: str, name: str) -> None:
        func = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self.wrap(name, func)))

    def __enter__(self) -> "Tracer":
        from sjdyn import algebra, cli, fockoracle, runner

        lane_wrappers = {lane: self.wrap(f"runner.lane.{lane}", runner._LANES[lane]) for lane in LANES}
        self._patch(runner, "_LANES", dict(lane_wrappers))
        self._patch(runner, "_lane_wei_norman", lane_wrappers["wei-norman"])
        for attr, name in (
            ("integrate", "runner.integrate"),
            ("expm", "runner.expm"),
            ("_fock_fidelity_series", "runner.fock_fidelity"),
            ("_rhs_fc_raw", "berezin.rhs"),
            ("_rhs_disk_raw", "berezin.rhs"),
            ("_rhs_ball_raw", "berezin.rhs"),
            ("_energy_raw", "berezin.phase"),
            ("_berry_raw", "berezin.phase"),
            ("hc_matrix", "berezin.hc_matrix"),
            ("wn_rhs", "weinorman.wn_rhs"),
            ("wn_phase_rhs", "weinorman.wn_phase_rhs"),
            ("quasienergy_coeffs", "weinorman.quasienergy"),
            ("conjugation_dictionary", "weinorman.dictionary"),
            ("coeffs_to_real", "algebra.coeffs_to_real"),
            ("_ball_margin", "geometry.ball_margin"),
            ("chart_state_vector", "fockoracle.chart_state_vector"),
            ("hamiltonian_matrix", "fockoracle.hamiltonian_matrix"),
        ):
            self._patch(runner, attr, self.wrap(name, getattr(runner, attr)))
        self._patch(runner, "write_csv", self.wrap("runner.write_csv", runner.write_csv, _csv_bytes))
        self._patch_classmethod(runner.ExperimentConfig, "from_json", "runner.parse")
        self._patch(algebra.BallCoefficients, "__post_init__",
                    self.wrap("algebra.ball_coefficients", algebra.BallCoefficients.__post_init__))
        self._patch(fockoracle, "build_generators",
                    self.wrap("fockoracle.build_generators", fockoracle.build_generators))
        self._patch(np.linalg, "eigh", self.wrap("fockoracle.eigh", np.linalg.eigh, _eigh_gflop))
        self._patch(cli, "_load_config", self.wrap("cli.load_config", cli._load_config))
        self._patch(cli, "run_experiment", self.wrap("cli.run_experiment", cli.run_experiment))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            self._restore.pop()()


def _csv_bytes(tracer: Tracer, path: str, *args: Any, **kwargs: Any) -> None:
    tracer.extra["runner.write_csv.bytes"] = (
        tracer.extra.get("runner.write_csv.bytes", 0.0) + os.path.getsize(path))


def _eigh_gflop(tracer: Tracer, a: Any, *args: Any, **kwargs: Any) -> None:
    # computed, not counted: a complex Hermitian eigendecomposition with
    # eigenvectors takes about 9·n³ complex multiply-adds, 4 real flops each
    n = np.shape(a)[-1]
    tracer.extra["fockoracle.eigh.gflop"] = (
        tracer.extra.get("fockoracle.eigh.gflop", 0.0) + 36.0 * n ** 3 / 1e9)


#: per-layer metrics, as (name, unit, source) with source (stat, field) or
#: ("extra", key); one round's totals
PER_LAYER: list[tuple[str, str, tuple[str, str]]] = [
    *[(f"runner.lane.{lane}.s", "s", (f"runner.lane.{lane}", "incl")) for lane in LANES],
    ("runner.integrate.calls", "count", ("runner.integrate", "calls")),
    ("runner.integrate.self_s", "s", ("runner.integrate", "self")),
    ("runner.write_csv.s", "s", ("runner.write_csv", "incl")),
    ("runner.write_csv.bytes", "bytes", ("extra", "runner.write_csv.bytes")),
    ("runner.parse.s", "s", ("runner.parse", "incl")),
    ("runner.expm.calls", "count", ("runner.expm", "calls")),
    ("runner.expm.s", "s", ("runner.expm", "incl")),
    ("runner.fock_fidelity.self_s", "s", ("runner.fock_fidelity", "self")),
    ("berezin.rhs.calls", "count", ("berezin.rhs", "calls")),
    ("berezin.rhs.self_s", "s", ("berezin.rhs", "self")),
    ("berezin.phase.calls", "count", ("berezin.phase", "calls")),
    ("berezin.phase.self_s", "s", ("berezin.phase", "self")),
    ("berezin.hc_matrix.calls", "count", ("berezin.hc_matrix", "calls")),
    ("weinorman.wn_rhs.calls", "count", ("weinorman.wn_rhs", "calls")),
    ("weinorman.wn_rhs.self_s", "s", ("weinorman.wn_rhs", "self")),
    ("weinorman.wn_phase_rhs.calls", "count", ("weinorman.wn_phase_rhs", "calls")),
    ("weinorman.quasienergy.calls", "count", ("weinorman.quasienergy", "calls")),
    ("weinorman.quasienergy.self_s", "s", ("weinorman.quasienergy", "self")),
    ("weinorman.dictionary.calls", "count", ("weinorman.dictionary", "calls")),
    ("algebra.ball_coefficients.calls", "count", ("algebra.ball_coefficients", "calls")),
    ("algebra.ball_coefficients.self_s", "s", ("algebra.ball_coefficients", "self")),
    ("algebra.coeffs_to_real.calls", "count", ("algebra.coeffs_to_real", "calls")),
    ("algebra.coeffs_to_real.self_s", "s", ("algebra.coeffs_to_real", "self")),
    ("geometry.ball_margin.calls", "count", ("geometry.ball_margin", "calls")),
    ("geometry.ball_margin.self_s", "s", ("geometry.ball_margin", "self")),
    ("fockoracle.eigh.calls", "count", ("fockoracle.eigh", "calls")),
    ("fockoracle.eigh.self_s", "s", ("fockoracle.eigh", "self")),
    ("fockoracle.eigh.gflop", "GFLOP", ("extra", "fockoracle.eigh.gflop")),
    ("fockoracle.build_generators.calls", "count", ("fockoracle.build_generators", "calls")),
    ("fockoracle.build_generators.self_s", "s", ("fockoracle.build_generators", "self")),
    ("fockoracle.chart_state_vector.calls", "count", ("fockoracle.chart_state_vector", "calls")),
    ("fockoracle.chart_state_vector.self_s", "s", ("fockoracle.chart_state_vector", "self")),
    ("fockoracle.hamiltonian_matrix.calls", "count", ("fockoracle.hamiltonian_matrix", "calls")),
    ("cli.load_config.s", "s", ("cli.load_config", "incl")),
    ("cli.run_experiment.s", "s", ("cli.run_experiment", "incl")),
]


def round_values(tracer: Tracer) -> dict[str, float]:
    """The per-layer values of the spans recorded since the last reset."""
    field_index = {"calls": 0, "incl": 1, "self": 2}
    out = {}
    for name, _unit, (src, fld) in PER_LAYER:
        if src == "extra":
            out[name] = float(tracer.extra.get(fld, 0.0))
        else:
            rec = tracer.stats.get(src, [0, 0.0, 0.0])
            out[name] = float(rec[field_index[fld]])
    return out
