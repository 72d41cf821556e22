"""Experiment engine: time stepping, method lanes, comparison reports, file output.

An experiment is a JSON-described run of one solution method (or all of them
side by side) for a hermitian Hamiltonian linear in the generators.  The
scalar coefficient forms describe H = ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε₋·K₋;
the engine routes them to each method in that method's own convention — the
coherent-state lanes receive ``conjugation_dictionary``-translated
coefficients, the product-of-exponentials lane uses them as-is — so all lanes
integrate the same physics and can be compared pointwise on a common chart.
The matrix form, in the coherent-state convention, reaches the ball lanes as
is: H = Σ(ε̄_i·a_i + ε_i·a_i†) + Σ_ij[(ε₀)_ji·¼(a_i†a_j + a_j·a_i†) + (ε̄₊)_ij·½a_i†a_j†
+ (ε₊)_ij·½a_i·a_j], the scalar form with ε_a = ε̄, ε₊ = ε̄₊ at n = 1.  The start
is parsed once into (η₀, z₀ = η₀ − W₀·η̄₀, W₀), the configured chart exactly.

Methods: berezin-disk | berezin-fc | berezin-ball | wei-norman |
riccati-linearized | fock-oracle | compare-all.

Output: a flat CSV trajectory (`t, state columns, phi_D, phi_B, phi, energy,
margin`, header names the chart) and a JSON report with margins, drifts,
residuals, and in compare mode pairwise deviations.  Identical config and
build produce byte-identical files.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .algebra import (
    BallCoefficients,
    ComplexCoefficients,
    RealCoefficients,
    coeffs_from_real,
    coeffs_to_real,
    expm,
)
from .berezin import (
    _ball_terms,
    _berry_raw,
    _energy_raw,
    _rhs_ball_raw,
    _rhs_disk_raw,
    _rhs_fc_raw,
    _riccati_step,
    hc_matrix,
    hr_matrix,
)
from .fockoracle import FockBasisSpec, _check_tail, chart_state_vector, hamiltonian_matrix, propagator
from .geometry import MARGIN_MIN, BargmannIndex, FCPoint, JacobiPoint, _ball_margin, fc_forward, fc_inverse
from .weinorman import (
    RealState,
    conjugation_dictionary,
    quasienergy_coeffs,
    wn_phase_rhs,
    wn_rhs,
)

__all__ = [
    "GRID_STEPS_MAX",
    "RK45_ATOL",
    "RK45_RTOL",
    "DEFAULT_TOLERANCES",
    "FOCK_DIM_MAX",
    "ConfigError",
    "InvariantViolation",
    "StepUnderflowError",
    "TimeGrid",
    "Trajectory",
    "ExperimentConfig",
    "integrate",
    "run_experiment",
    "solution_fidelity",
]

GRID_STEPS_MAX = 10**7
RK45_ATOL = 1e-10
RK45_RTOL = 1e-8

#: largest accepted ``fock.dim``: each dense dim × dim complex matrix then
#: takes 16 MiB, and one oracle run holds about ten of them
FOCK_DIM_MAX = 1024

#: compare/oracle gate defaults (overridable per config)
DEFAULT_TOLERANCES = {"state": 1e-8, "phase": 1e-6, "fidelity": 1.0 - 1e-6}

SCALAR_METHODS = ("berezin-disk", "berezin-fc", "wei-norman", "fock-oracle")
BALL_METHODS = ("berezin-ball", "riccati-linearized")
METHODS = SCALAR_METHODS + BALL_METHODS + ("compare-all",)


class ConfigError(ValueError):
    """Invalid experiment configuration; message starts with the field path."""

    def __init__(self, path: str, msg: str) -> None:
        super().__init__(f"{path}: {msg}")
        self.path = path


class InvariantViolation(RuntimeError):
    """A chart invariant (|w|<1, ball positivity) failed during integration."""


class StepUnderflowError(RuntimeError):
    """The adaptive integrator could not meet tolerances at any usable step."""


# --- grid and trajectory ---------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid; `step` is also the fixed RK4 step."""

    t0: float
    t1: float
    step: float

    def __post_init__(self) -> None:
        t0, t1, step = float(self.t0), float(self.t1), float(self.step)
        if not (np.isfinite(t0) and np.isfinite(t1) and np.isfinite(step)):
            raise ValueError("grid bounds and step must be finite")
        if not t1 > t0:
            raise ValueError(f"t1 must exceed t0, got [{t0}, {t1}]")
        if not step > 0:
            raise ValueError(f"step must be > 0, got {step}")
        if (t1 - t0) / step > GRID_STEPS_MAX:
            raise ValueError(f"(t1-t0)/step exceeds {GRID_STEPS_MAX:.0e}")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "step", step)

    def times(self) -> np.ndarray:
        """Samples t0, t0+step, ...; the final sample lands exactly on t1."""
        n = int(math.ceil((self.t1 - self.t0) / self.step - 1e-12))
        ts = self.t0 + self.step * np.arange(n + 1)
        ts[-1] = self.t1
        return ts


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory on one chart, with per-sample diagnostic columns."""

    times: np.ndarray
    chart: str
    states: np.ndarray  # (N, m) complex rows, layout set by `chart`
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError("times and states must have matching lengths")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        for key, arr in self.diagnostics.items():
            if np.asarray(arr).shape != (times.size,):
                raise ValueError(f"diagnostic {key!r} must have one value per sample")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


Observer = Callable[[float, np.ndarray], tuple[np.ndarray, dict[str, float]]]
Advance = Callable[[float, np.ndarray, float], np.ndarray]  # (a, y(a), b) -> y(b)


# --- integrators -------------------------------------------------------------------

# Dormand-Prince 5(4) tableau; row i of _DP_A weighs the first i stage slopes
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(np.array(row)[:, None] for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])[:, None]
_DP_E = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)[:, None]  # b5 − b4, the weights of the error estimate


def _rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _combine(weights: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Σ_j weights[j]·ks[j] for a column of weights, summed in order from 0.0.

    That is the order of Python's ``sum(w * k for …)``, down to its leading
    ``0 +`` that turns a −0.0 sum into +0.0, so the bits are the textbook ones.
    """
    return np.add.reduce(weights * ks[: weights.shape[0]], axis=0, initial=0.0)


def _rk45_span(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    t_end: float,
    h0: float,
) -> tuple[np.ndarray, float]:
    """Adaptive Dormand-Prince from t to t_end; returns (y(t_end), last h).

    The seven stage slopes of a step are the rows of one (7, m) array.  An
    error estimate that is not finite raises :class:`InvariantViolation`:
    no step size can mend a state that has overflowed.
    """
    h = h0
    h_min = 1e-14 * max(1.0, abs(t_end))
    ks = np.empty((7, y.size))
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepUnderflowError(f"step underflow at t={t:.6g} (h={h:.3e})")
        ks[0] = rhs(t, y)
        for i in range(1, 7):
            ks[i] = rhs(t + _DP_C[i] * h, y + h * _combine(_DP_A[i], ks))
        y5 = y + h * _combine(_DP_B5, ks)
        err_vec = h * _combine(_DP_E, ks)
        scale = RK45_ATOL + RK45_RTOL * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(err_vec) / scale)) if y.size else 0.0
        if not math.isfinite(err):
            raise InvariantViolation(f"at t={t:.6g}: state not finite")
        if err <= 1.0:
            t += h
            y = y5
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y, h


def _owner(ends: Sequence[float], t: float) -> int:
    """The one segment rule: segment j owns [ends[j−1], ends[j]), the last one
    owns the rest, so a time on a segment end belongs to the next segment."""
    return min(bisect.bisect_right(ends, t), len(ends) - 1)


def _substeps(ends: Sequence[float], a: float, b: float) -> Iterator[tuple[int, float, float]]:
    """Cut [a, b] at the segment ends inside it: yields (owner, lo, hi) in order.

    An end within rounding of a or b (a grid time such as 0.1·3 against an
    end of 0.3) makes no cut: the sliver of order 1e−16 is stepped with the
    neighbouring segment instead of as a step too short to take.
    """
    tol = 1e-12 * max(1.0, abs(b))
    j = _owner(ends, a)
    while j + 1 < len(ends) and ends[j] < b - tol:
        if ends[j] > a + tol:
            yield j, a, ends[j]
            a = ends[j]
        j += 1
    yield j, a, b


def _checked_rhs(rhs: Callable[[float, np.ndarray], np.ndarray], t: float, yv: np.ndarray) -> np.ndarray:
    # a chart violation or an overflow at an RK stage point aborts with time context
    try:
        return np.asarray(rhs(t, yv), dtype=float)
    except (InvariantViolation, ValueError) as exc:
        raise InvariantViolation(f"at t={t:.6g}: {exc}") from exc
    except ArithmeticError as exc:  # Python complex arithmetic raises where numpy gives inf
        raise InvariantViolation(f"at t={t:.6g}: right-hand side not finite ({exc})") from exc


def _rk_stepper(method: str, h0: float) -> Callable[[Callable[[float, np.ndarray], np.ndarray]], Advance]:
    """The run's one stepper: maps a right-hand side to its ``advance(a, y, b)``.

    "rk4" takes one step from a to b; "rk45" is adaptive Dormand-Prince whose
    step size, starting at h0, carries over from span to span and segment to segment.
    """
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown integration method {method!r}")
    h = h0

    def stepper(rhs: Callable[[float, np.ndarray], np.ndarray]) -> Advance:
        checked = functools.partial(_checked_rhs, rhs)
        if method == "rk4":
            return lambda a, y, b: _rk4_step(checked, a, y, b - a)

        def advance(a: float, y: np.ndarray, b: float) -> np.ndarray:
            nonlocal h
            y, h = _rk45_span(checked, a, y, b, h)
            return y

        return advance

    return stepper


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    grid: TimeGrid,
    method: str = "rk4",
    *,
    chart: str = "raw",
    observer: Observer | None = None,
) -> Trajectory:
    """Integrate ẏ = rhs(t, y) over the grid, sampling at every grid time.

    "rk4" takes one fixed step per grid interval; "rk45" is adaptive
    Dormand-Prince (atol 1e−10, rtol 1e−8) between samples.  `observer`
    maps (t, y) to (complex state row, diagnostic columns) at every sample;
    it may check an invariant and raise :class:`InvariantViolation`, and the
    integration then aborts with time context.  Without it the row is y and
    there are no columns.
    """
    obs = observer or (lambda t, yv: (yv.astype(complex), {}))
    advance = _rk_stepper(method, grid.step)(rhs)
    return _integrate_segments([(math.inf, advance, obs)], y0, grid, chart=chart)


def _integrate_segments(
    segments: Sequence[tuple[float, Advance, Observer]],
    y0: np.ndarray,
    grid: TimeGrid,
    *,
    chart: str,
) -> Trajectory:
    """The one sample loop, for a piecewise-constant drive given as (end, advance, observer).

    Each grid time is sampled by the observer of the segment that owns it
    (see :func:`_owner`); an invariant it finds broken, or an overflow, gets
    the time added.  Between samples each segment's ``advance(a, y, b)`` (from
    :func:`_rk_stepper`, or an exact propagator) maps y(a) to y(b); a grid
    interval that contains a segment end is cut there.  A state row or
    column that is not finite stops the run at its first such sample.
    """
    times = grid.times()
    y = np.asarray(y0, dtype=float).copy()
    ends = [seg[0] for seg in segments]
    rows: list[np.ndarray] = []
    diags: dict[str, list[float]] = {}

    for i, t in enumerate(times):
        try:
            row, dg = segments[_owner(ends, t)][2](t, y)
        except InvariantViolation as exc:
            raise InvariantViolation(f"at t={t:.6g}: {exc}") from exc
        except ArithmeticError as exc:
            raise InvariantViolation(f"at t={t:.6g}: sample not finite ({exc})") from exc
        rows.append(np.asarray(row, dtype=complex))
        for key, val in dg.items():
            diags.setdefault(key, []).append(float(val))
        if i + 1 == times.size:
            break
        for j, a, b in _substeps(ends, t, times[i + 1]):
            y = segments[j][1](a, y, b)

    states, columns = np.vstack(rows), {key: np.asarray(v) for key, v in diags.items()}
    finite = {"state": np.isfinite(states).all(axis=1), **{key: np.isfinite(v) for key, v in columns.items()}}
    ok = np.logical_and.reduce(list(finite.values()))
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvariantViolation(f"at t={times[i]:.6g}: {', '.join(k for k, v in finite.items() if not v[i])} not finite")
    return Trajectory(times=times, chart=chart, states=states, diagnostics=columns)


# --- configuration ------------------------------------------------------------------


def _req(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _as_float(val: Any, path: str) -> float:
    if isinstance(val, bool):
        raise ConfigError(path, f"expected a number, got {val!r}")
    try:
        x = float(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected a number, got {val!r}") from None
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    return x


def _complex_from_pair(val: Any, path: str) -> complex:
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise ConfigError(path, f"expected [re, im], got {val!r}")
    return complex(_as_float(val[0], path), _as_float(val[1], path))


def _complex_array(val: Any, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Nested lists of [re, im] pairs of the given shape; entries report as path[i][j]."""

    def parse(v: Any, p: str, dims: tuple[int, ...]) -> Any:
        if not dims:
            return _complex_from_pair(v, p)
        if not (isinstance(v, list) and len(v) == dims[0]):
            raise ConfigError(path, f"expected {'x'.join(map(str, shape))} entries")
        return [parse(x, f"{p}[{i}]", dims[1:]) for i, x in enumerate(v)]

    return np.array(parse(val, path, shape), dtype=complex)


def _as_count(val: Any, path: str, lo: int, hi: float) -> int:
    x = _as_float(val, path)
    if not (x.is_integer() and lo <= x <= hi):
        raise ConfigError(path, f"expected an integer from {lo} to {hi}, got {x!r}")
    return int(x)


def _parse_coefficients(obj: Any, path: str) -> ComplexCoefficients | BallCoefficients:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")

    def num(key: str) -> float:
        return _as_float(_req(obj, key, path), f"{path}.{key}")

    try:
        if "n" in obj:
            n = _as_count(obj["n"], f"{path}.n", 1, math.inf)
            return BallCoefficients(
                n=n,
                eps=_complex_array(_req(obj, "eps", path), f"{path}.eps", (n,)),
                eps0=_complex_array(_req(obj, "eps0", path), f"{path}.eps0", (n, n)),
                eps_plus=_complex_array(_req(obj, "eps_plus", path), f"{path}.eps_plus", (n, n)),
            )
        if "eps_a_re" in obj:
            return ComplexCoefficients(
                eps_a=complex(num("eps_a_re"), num("eps_a_im")),
                eps_0=num("eps_0"),
                eps_plus=complex(num("eps_plus_re"), num("eps_plus_im")),
            )
        if "nu1" in obj or "veps0" in obj:
            keys = ("nu1", "nu2", "veps0", "veps1", "veps2")
            real = {key: _as_float(obj.get(key, 0.0), f"{path}.{key}") for key in keys}
            return coeffs_from_real(RealCoefficients(**real))
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:  # out-of-range values, e.g. a non-hermitian eps0
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "unrecognized coefficient form (complex, real, or ball keys required)")


@dataclass(frozen=True)
class _Segment:
    until: float
    coefficients: ComplexCoefficients | BallCoefficients


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; build with :meth:`from_json`."""

    method: str
    grid: TimeGrid
    segments: tuple[_Segment, ...]
    eta0: np.ndarray  # (n,) start in the decoupling chart
    z0: np.ndarray  # (n,) start in the product chart, z₀ = η₀ − W₀·η̄₀
    W0: np.ndarray  # (n, n) start on the ball; n = 1 too
    k: BargmannIndex
    integrator: str = "rk4"
    csv_path: str | None = None
    report_path: str | None = None
    fock_dim: int | None = None
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config", "top level must be an object")
        method = _req(obj, "method", "config")
        if method not in METHODS:
            raise ConfigError("config.method", f"unknown method {method!r}; choose from {METHODS}")

        gobj = _req(obj, "grid", "config")
        try:
            grid = TimeGrid(
                t0=_as_float(_req(gobj, "t0", "config.grid"), "config.grid.t0"),
                t1=_as_float(_req(gobj, "t1", "config.grid"), "config.grid.t1"),
                step=_as_float(_req(gobj, "step", "config.grid"), "config.grid.step"),
            )
        except ValueError as exc:
            raise ConfigError("config.grid", str(exc)) from exc

        segments = cls._parse_segments(obj, grid)
        ball_form = isinstance(segments[0].coefficients, BallCoefficients)

        # ball-form coefficients drive the coherent-state matrix equations
        # directly; the scalar methods need the scalar Hamiltonian convention
        if ball_form and method in SCALAR_METHODS:
            raise ConfigError(
                "config.method", f"{method} requires the complex or real coefficient form"
            )

        n = segments[0].coefficients.n if ball_form else 1
        eta0, z0, W0 = cls._parse_initial(_req(obj, "initial", "config"), n)

        k_val = _as_float(obj.get("k", 0.25), "config.k")
        try:
            k = BargmannIndex(k_val)
        except ValueError as exc:
            raise ConfigError("config.k", str(exc)) from exc

        integrator = obj.get("integrator", "rk4")
        if integrator not in ("rk4", "rk45"):
            raise ConfigError("config.integrator", f"expected 'rk4' or 'rk45', got {integrator!r}")
        if method == "compare-all" and integrator != "rk4":
            raise ConfigError("config.integrator", "compare-all shares one fixed RK4 grid")

        out = obj.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("config.output", "expected an object")
        for key in ("csv", "report"):
            if not isinstance(out.get(key, ""), str):
                raise ConfigError(f"config.output.{key}", "expected a path string")

        fock_dim: int | None = None
        if "fock" in obj:
            fobj = obj["fock"]
            if not isinstance(fobj, dict):
                raise ConfigError("config.fock", "expected an object")
            fock_dim = _as_count(_req(fobj, "dim", "config.fock"), "config.fock.dim", 2, FOCK_DIM_MAX)
            if abs(k.k - 0.25) > 1e-12:
                raise ConfigError("config.fock", "the direct oracle realizes k=0.25 only")
            if ball_form:
                raise ConfigError("config.fock", "the direct oracle needs scalar coefficients")
            if method not in ("fock-oracle", "compare-all"):
                raise ConfigError("config.fock", f"read only by fock-oracle and compare-all, not {method}")
        if method == "fock-oracle" and fock_dim is None:
            fock_dim = 300

        tol = dict(DEFAULT_TOLERANCES)
        tobj = obj.get("tolerances", {})
        if not isinstance(tobj, dict):
            raise ConfigError("config.tolerances", "expected an object")
        for key, val in tobj.items():
            if key not in tol:
                raise ConfigError(f"config.tolerances.{key}", "unknown tolerance")
            tol[key] = _as_float(val, f"config.tolerances.{key}")

        return cls(
            method=method,
            grid=grid,
            segments=segments,
            eta0=eta0,
            z0=z0,
            W0=W0,
            k=k,
            integrator=integrator,
            csv_path=out.get("csv"),
            report_path=out.get("report"),
            fock_dim=fock_dim,
            tolerances=tol,
        )

    @staticmethod
    def _parse_segments(obj: dict, grid: TimeGrid) -> tuple[_Segment, ...]:
        has_single = "coefficients" in obj
        has_schedule = "schedule" in obj
        if has_single == has_schedule:
            raise ConfigError("config", "provide exactly one of 'coefficients' or 'schedule'")
        if has_single:
            return (_Segment(grid.t1, _parse_coefficients(obj["coefficients"], "config.coefficients")),)
        sched = obj["schedule"]
        if not isinstance(sched, list) or not sched:
            raise ConfigError("config.schedule", "expected a non-empty list")
        segments = []
        prev = grid.t0
        for i, seg in enumerate(sched):
            path = f"config.schedule[{i}]"
            if not isinstance(seg, dict):
                raise ConfigError(path, "expected an object")
            until = _as_float(_req(seg, "until", path), f"{path}.until")
            if until <= prev:
                raise ConfigError(f"{path}.until", "segment ends must be strictly increasing")
            prev = until
            segments.append(_Segment(until, _parse_coefficients(_req(seg, "coefficients", path), f"{path}.coefficients")))
        if prev < grid.t1:
            raise ConfigError("config.schedule", f"schedule ends at {prev} before t1={grid.t1}")
        kinds = {type(s.coefficients) for s in segments}
        if len(kinds) > 1:
            raise ConfigError("config.schedule", "all segments must use the same coefficient form")
        ns = {s.coefficients.n for s in segments if isinstance(s.coefficients, BallCoefficients)}
        if len(ns) > 1:
            raise ConfigError("config.schedule", "all segments must share the same n")
        return tuple(segments)

    @staticmethod
    def _parse_initial(obj: Any, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(η₀, z₀, W₀) of shapes (n,), (n,), (n, n): the configured chart exactly, the other mapped once."""
        if not isinstance(obj, dict):
            raise ConfigError("config.initial", "expected an object")
        chart = _req(obj, "chart", "config.initial")
        if chart not in ("product", "fc"):
            raise ConfigError("config.initial.chart", f"expected 'product' or 'fc', got {chart!r}")
        key, w_key = ("z" if chart == "product" else "eta"), ("w" if n == 1 else "W")
        path, w_path = f"config.initial.{key}", f"config.initial.{w_key}"
        dims, w_dims = ((n,), (n, n)) if n > 1 else ((), ())  # n = 1 reads bare [re, im] pairs
        first = _complex_array(_req(obj, key, "config.initial"), path, dims).reshape(n)
        W = _complex_array(_req(obj, w_key, "config.initial"), w_path, w_dims).reshape(n, n)
        with np.errstate(all="ignore"):
            sym = float(np.max(np.abs(W - W.T)))
            bounded = bool(np.all(np.abs(W) < 1.0))  # every ball matrix has |W_ij| < 1
        if not sym <= 1e-12:
            raise ConfigError(w_path, f"not symmetric (residual {sym:.3e})")
        if not (bounded and _ball_margin(W) > MARGIN_MIN):
            raise ConfigError(w_path, f"1 - W·conj(W) must be positive definite above {MARGIN_MIN:g}")
        try:
            with np.errstate(all="ignore"):
                if chart == "fc":
                    return first, fc_forward(FCPoint(eta=first, W=W)).z, W
                return fc_inverse(JacobiPoint(z=first, W=W)).eta, first, W
        except ValueError:  # the image is not finite
            raise ConfigError(path, "its image in the other chart is not finite") from None

    # -- derived accessors -------------------------------------------------------

    @property
    def ends(self) -> list[float]:
        return [seg.until for seg in self.segments]

    @property
    def n(self) -> int:
        return self.W0.shape[0]

    @property
    def ball_form(self) -> bool:
        return isinstance(self.segments[0].coefficients, BallCoefficients)

    def coefficients_at(self, t: float) -> ComplexCoefficients | BallCoefficients:
        return self.segments[_owner(self.ends, t)].coefficients


# --- method lanes --------------------------------------------------------------------
#
# Every lane shares the packing convention: real ODE vector y, complex state
# rows for the Trajectory, diagnostic columns (margin, energy, phases, ...)
# per sample.  A lane's observer checks the lane's invariant on y before it
# returns the row and columns.  A lane translates each segment's coefficients
# once, into that segment's advance (an RK step of its right-hand side, or an
# exact propagator) and observer, and all lanes run through
# :func:`_integrate_segments`.


def _eta(z: Any, w: Any) -> Any:
    """η = (z + w·z̄)/(1 − |w|²) at n = 1, per sample: on Python scalars and on sample columns."""
    return (z + w * z.conjugate()) / (1.0 - abs(w) ** 2)


def _integrate_lane(
    cfg: ExperimentConfig,
    segment: Callable[[Any], tuple[Callable[[float, np.ndarray], np.ndarray], Observer]],
    y0: np.ndarray,
    chart: str,
) -> Trajectory:
    step = _rk_stepper(cfg.integrator, cfg.grid.step)
    segments = [(seg.until, *segment(seg.coefficients)) for seg in cfg.segments]
    segments = [(end, step(rhs), observer) for end, rhs, observer in segments]
    return _integrate_segments(segments, y0, cfg.grid, chart=chart)


def _disk_sample(bcc: ComplexCoefficients, eta: complex, w: complex, y: np.ndarray, k: float) -> dict[str, float]:
    """The n = 1 lanes' columns, once |w| < 1 holds on y = (·, ·, Re w, Im w, .., φ_D, φ_B):
    margin, energy at (η, w), and the phases."""
    if not y[2] ** 2 + y[3] ** 2 < 1.0:
        raise InvariantViolation(f"|w| reached 1 (u={y[2]:.6g}, v={y[3]:.6g})")
    return {
        "margin": 1.0 - abs(w) ** 2,
        "energy": _energy_raw(bcc, eta, w, k),
        "phi_D": y[-2],
        "phi_B": y[-1],
        "phi": y[-2] + y[-1],
    }


def _lane_wei_norman(cfg: ExperimentConfig) -> Trajectory:
    """Real equations of motion (x, y, u, v) with the factorization phase φ.

    CSV-facing phases are the coherent-state pair (φ_D, φ_B), co-integrated
    on the same grid with dictionary-translated coefficients; φ itself is
    kept as the 'phi_wn' diagnostic (they differ — see phase_bridge).
    """
    eta0, w0 = cfg.eta0.item(), cfg.W0.item()
    k = cfg.k
    y0 = np.array([eta0.real, eta0.imag, w0.real, w0.imag, 0.0, 0.0, 0.0])

    def segment(cc: ComplexCoefficients) -> tuple[Callable, Observer]:
        rc = coeffs_to_real(cc)
        bcc = conjugation_dictionary(cc)

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            s = RealState(x=y[0], y=y[1], u=y[2], v=y[3])
            dx, dy, du, dv = wn_rhs(rc, s)
            dphi = wn_phase_rhs(rc, s, k)
            eta, w = complex(y[0], y[1]), complex(y[2], y[3])
            deta, dw = _rhs_fc_raw(bcc, eta, w)
            return np.array([dx, dy, du, dv, dphi, -_energy_raw(bcc, eta, w, k.k), _berry_raw(eta, w, deta, dw, k.k)])

        def observer(t: float, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
            eta, w = complex(y[0], y[1]), complex(y[2], y[3])
            columns = _disk_sample(bcc, eta, w, y, k.k)
            s = RealState(x=y[0], y=y[1], u=y[2], v=y[3])
            q = quasienergy_coeffs(rc, s, wn_rhs(rc, s), wn_phase_rhs(rc, s, k))
            columns["quasienergy_residual"] = max(abs(q.G1), abs(q.G2), abs(q.H1), abs(q.H2))
            columns["phi_wn"] = y[4]
            return np.array([eta, w]), columns

        return rhs, observer

    return _integrate_lane(cfg, segment, y0, "fc")


def _lane_berezin_fc(cfg: ExperimentConfig) -> Trajectory:
    """Decoupled coherent-state flow (η, w) with co-integrated phases."""
    eta0, w0 = cfg.eta0.item(), cfg.W0.item()
    k = cfg.k
    y0 = np.array([eta0.real, eta0.imag, w0.real, w0.imag, 0.0, 0.0])

    def segment(cc: ComplexCoefficients) -> tuple[Callable, Observer]:
        bcc = conjugation_dictionary(cc)

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            eta, w = complex(y[0], y[1]), complex(y[2], y[3])
            deta, dw = _rhs_fc_raw(bcc, eta, w)
            return np.array([deta.real, deta.imag, dw.real, dw.imag,
                             -_energy_raw(bcc, eta, w, k.k), _berry_raw(eta, w, deta, dw, k.k)])

        def observer(t: float, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
            eta, w = complex(y[0], y[1]), complex(y[2], y[3])
            return np.array([eta, w]), _disk_sample(bcc, eta, w, y, k.k)

        return rhs, observer

    return _integrate_lane(cfg, segment, y0, "fc")


def _lane_berezin_disk(cfg: ExperimentConfig) -> Trajectory:
    """Product-chart coherent-state flow (z, w); phases evaluated on the η image."""
    z0, w0 = cfg.z0.item(), cfg.W0.item()
    k = cfg.k
    y0 = np.array([z0.real, z0.imag, w0.real, w0.imag, 0.0, 0.0])

    def segment(cc: ComplexCoefficients) -> tuple[Callable, Observer]:
        bcc = conjugation_dictionary(cc)

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            z, w = complex(y[0], y[1]), complex(y[2], y[3])
            dz, dw = _rhs_disk_raw(bcc, z, w)
            eta = _eta(z, w)
            deta, _ = _rhs_fc_raw(bcc, eta, w)
            return np.array([dz.real, dz.imag, dw.real, dw.imag,
                             -_energy_raw(bcc, eta, w, k.k), _berry_raw(eta, w, deta, dw, k.k)])

        def observer(t: float, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
            z, w = complex(y[0], y[1]), complex(y[2], y[3])
            return np.array([z, w]), _disk_sample(bcc, _eta(z, w), w, y, k.k)

        return rhs, observer

    return _integrate_lane(cfg, segment, y0, "product")


def _ball_coefficients(c: ComplexCoefficients | BallCoefficients) -> BallCoefficients:
    """Coefficients for the ball lanes, in the coherent-state convention."""
    if isinstance(c, ComplexCoefficients):
        return BallCoefficients.from_scalar(conjugation_dictionary(c))
    return c


def _pack_ball(z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The ball lanes' real state: (z, W.ravel()) as one complex vector, viewed as floats.

    Real and imaginary parts interleave (Re z₁, Im z₁, …, Re W₁₁, Im W₁₁, …).
    The steppers act elementwise and the RK45 error norm is a max, so the
    order of the components changes no arithmetic.
    """
    return np.concatenate([z, W.reshape(-1)], dtype=complex).view(float)


def _unpack_ball(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, W) of a packed ball state, as views of y: no copies."""
    c = y.view(complex)
    return c[:n], c[n:].reshape(n, n)


def _ball_sample(z: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
    """The ball lanes' row (z, W..) and margin, once W is symmetric and 1 − W·W̄ ≻ 0."""
    sym = float(np.max(np.abs(W - W.T)))
    if not sym <= 1e-8:
        raise InvariantViolation(f"W symmetry drifted to {sym:.3e}")
    margin = _ball_margin(0.5 * (W + W.T))
    if not margin > 0.0:
        raise InvariantViolation(f"ball margin reached {margin:.3e}")
    return np.concatenate([z, W.reshape(-1)]), {"margin": margin}


def _lane_berezin_ball(cfg: ExperimentConfig) -> Trajectory:
    """Matrix flow (z, W); phases are not defined for this lane (NaN columns)."""
    n = cfg.n

    def observer(t: float, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        return _ball_sample(*_unpack_ball(y, n))

    def segment(c: ComplexCoefficients | BallCoefficients) -> tuple[Callable, Observer]:
        terms = _ball_terms(_ball_coefficients(c))

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return _rhs_ball_raw(terms, *_unpack_ball(y, n))

        return rhs, observer

    return _integrate_lane(cfg, segment, _pack_ball(cfg.z0, cfg.W0), "ball")


def _lane_riccati(cfg: ExperimentConfig) -> Trajectory:
    """(η, W) solved exactly per segment by matrix exponentials; rows are (z = η − W·η̄, W).

    Each step restarts (X, Y) at (W, 1), applies exp(h·h_c) and reads W = X·Y⁻¹;
    η moves by Van Loan's augmented exp(h·[[h_r, F], [0, 0]]) on (Re η, −Im η, 1).
    Both exponentials are cached per segment and step length.
    """
    n = cfg.n

    def observer(t: float, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        eta, W = _unpack_ball(y, n)
        return _ball_sample(eta - W @ eta.conj(), W)

    def segment(c: ComplexCoefficients | BallCoefficients) -> Advance:
        bc = _ball_coefficients(c)
        hc = hc_matrix(bc)
        hr, F = hr_matrix(bc)
        affine = np.zeros((2 * n + 1, 2 * n + 1))
        affine[: 2 * n, : 2 * n], affine[: 2 * n, 2 * n] = hr, F
        cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

        def advance(a: float, y: np.ndarray, b: float) -> np.ndarray:
            h = b - a
            if h not in cache:
                cache[h] = expm(h * hc), expm(h * affine)
            m_w, m_eta = cache[h]
            eta, W = _unpack_ball(y, n)
            xi = m_eta @ np.concatenate([eta.real, -eta.imag, [1.0]])
            return _pack_ball(xi[:n] - 1j * xi[n : 2 * n], _riccati_step(m_w, W))

        return advance

    segments = [(seg.until, segment(seg.coefficients), observer) for seg in cfg.segments]
    return _integrate_segments(segments, _pack_ball(cfg.eta0, cfg.W0), cfg.grid, chart="ball")


def _fock_fidelity_series(cfg: ExperimentConfig, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and phase of e^{−iφ}D(α)S(w)|0⟩ against direct propagation at ≤11 samples.

    Returns |⟨ψ_direct, ψ_closed⟩| over the two norms and arg⟨ψ_direct, ψ_closed⟩,
    which is zero when φ is the quantum phase.  The direct propagation takes
    the same segment cuts as the lanes and diagonalizes each segment's H
    once; its state is tail-checked at every checked sample, before the
    closed-form state is.  NaN marks samples that were not checked.
    """
    assert cfg.fock_dim is not None
    spec = FockBasisSpec(dim=cfg.fock_dim, sector="even")
    times = traj.times
    idx = np.unique(np.linspace(0, times.size - 1, min(11, times.size)).astype(int))
    fidelity = np.full(times.size, np.nan)
    phase = np.full(times.size, np.nan)
    propagators: dict[int, Callable[[np.ndarray, float], np.ndarray]] = {}

    psi = chart_state_vector(cfg.eta0.item(), cfg.W0.item(), 0.0, spec).psi
    phi_wn = traj.diagnostics["phi_wn"]

    t_prev = times[0]
    for j in idx:
        t_j = times[j]
        for s, a, b in _substeps(cfg.ends, t_prev, t_j):
            if b <= a:
                continue
            if s not in propagators:
                propagators[s] = propagator(hamiltonian_matrix(cfg.segments[s].coefficients, spec))
            psi = propagators[s](psi, b - a)
        t_prev = t_j
        _check_tail(psi, f"direct propagation at t={t_j:.6g}")
        eta, w = complex(traj.states[j, 0]), complex(traj.states[j, 1])
        psi_cs = chart_state_vector(eta, w, phi_wn[j], spec)
        overlap = complex(np.vdot(psi, psi_cs.psi))
        fidelity[j] = abs(overlap) / (float(np.linalg.norm(psi)) * psi_cs.norm)
        phase[j] = cmath.phase(overlap)
    return fidelity, phase


_LANES: dict[str, Callable[[ExperimentConfig], Trajectory]] = {
    "wei-norman": _lane_wei_norman,
    "berezin-fc": _lane_berezin_fc,
    "berezin-disk": _lane_berezin_disk,
    "berezin-ball": _lane_berezin_ball,
    "riccati-linearized": _lane_riccati,
}


# --- comparison ------------------------------------------------------------------------


def _common_chart_states(traj: Trajectory, n: int) -> np.ndarray:
    """Map a lane's samples to the shared comparison chart.

    n=1 lanes compare as (η, w); ball lanes (n≥1) compare as (z, W..) rows.
    """
    if traj.chart == "product" or (traj.chart == "ball" and n == 1):
        z, w = traj.states[:, 0], traj.states[:, 1]
        return np.column_stack([_eta(z, w), w])
    return traj.states


def _compare_all(cfg: ExperimentConfig) -> tuple[dict[str, Any], Trajectory]:
    if not cfg.ball_form:
        lane_names = ["wei-norman", "berezin-fc", "berezin-disk", "berezin-ball", "riccati-linearized"]
    else:
        lane_names = ["berezin-ball", "riccati-linearized"]
    trajs = {name: _LANES[name](cfg) for name in lane_names}

    mapped = {name: _common_chart_states(t, cfg.n) for name, t in trajs.items()}
    comparisons: dict[str, float] = {}
    for i, a in enumerate(lane_names):
        for b in lane_names[i + 1 :]:
            comparisons[f"{a}|{b}"] = float(np.max(np.abs(mapped[a] - mapped[b])))

    report: dict[str, Any] = {"comparisons": comparisons}

    if cfg.ball_form:
        return report, trajs["berezin-ball"]

    wn = trajs["wei-norman"]
    fc = trajs["berezin-fc"]
    phi_wn = wn.diagnostics["phi_wn"]
    alpha = wn.states[:, 0]
    w = wn.states[:, 1]
    resid = -phi_wn - fc.diagnostics["phi"] + 0.5 * (w * np.conj(alpha) ** 2).imag
    # the residual is conserved at its initial value ½·Im(w₀·ᾱ₀²);
    # the co-integration check is its drift, not its magnitude
    report["phase_bridge_constant"] = float(resid[0])
    report["phase_bridge_max"] = float(np.max(np.abs(resid - resid[0])))
    disk = trajs["berezin-disk"]
    report["phase_pair_deviation"] = {
        key: float(np.max(np.abs(fc.diagnostics[key] - disk.diagnostics[key]))) for key in ("phi_D", "phi_B")
    }
    return report, wn


# --- reporting and file output -----------------------------------------------------------

_PHASES = ("phi_D", "phi_B", "phi")


def _energy_drift(cfg: ExperimentConfig, traj: Trajectory) -> float | None:
    """Largest energy drift within one segment (samples owned as by :func:`_owner`)."""
    if "energy" not in traj.diagnostics:
        return None
    energy = traj.diagnostics["energy"]
    ends = cfg.ends
    owner = np.array([_owner(ends, t) for t in traj.times])
    drift = 0.0
    for j in np.unique(owner):
        seg = energy[owner == j]
        drift = max(drift, float(np.max(np.abs(seg - seg[0]))))
    return drift


def _build_report(cfg: ExperimentConfig, traj: Trajectory, extra: dict[str, Any]) -> dict[str, Any]:
    report: dict[str, Any] = {
        "method": cfg.method,
        "k": cfg.k.k,
        "n": cfg.n,
        "grid": {"t0": cfg.grid.t0, "t1": cfg.grid.t1, "step": cfg.grid.step},
        "samples": int(traj.times.size),
        "chart": traj.chart,
        "margin_min": float(np.min(traj.diagnostics["margin"])),
    }
    drift = _energy_drift(cfg, traj)
    if drift is not None:
        report["energy_drift"] = drift
    if "quasienergy_residual" in traj.diagnostics:
        report["quasienergy_residual_max"] = float(np.max(traj.diagnostics["quasienergy_residual"]))
    if "phi_wn" in traj.diagnostics:
        report["phi_wn_final"] = float(traj.diagnostics["phi_wn"][-1])
    phi = traj.diagnostics.get("phi")
    if phi is not None and np.isfinite(phi[-1]):
        report["phases_final"] = {key: float(traj.diagnostics[key][-1]) for key in _PHASES}
    report.update(extra)
    return report


def _state_headers(chart: str, n: int) -> list[str]:
    if chart == "fc":
        return ["re_eta", "im_eta", "re_w", "im_w"]
    if chart == "product":
        return ["re_z", "im_z", "re_w", "im_w"]
    names = []
    for i in range(n):
        names += [f"re_z_{i + 1}", f"im_z_{i + 1}"]
    for i in range(n):
        for j in range(n):
            names += [f"re_W_{i + 1}_{j + 1}", f"im_W_{i + 1}_{j + 1}"]
    return names


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: str, traj: Trajectory, n: int) -> None:
    """Flat UTF-8 CSV: t, state columns (chart-named), phases, energy, margin; NaN where a lane has none."""
    tail = [*_PHASES, "energy", "margin"]
    headers = ["t"] + _state_headers(traj.chart, n) + tail
    nan = np.full(traj.times.size, np.nan)
    columns = [traj.diagnostics.get(key, nan) for key in tail]
    lines = [",".join(headers)]
    for i, t in enumerate(traj.times):
        row = [_fmt(t)]
        for val in traj.states[i]:
            row += [_fmt(val.real), _fmt(val.imag)]
        row += [_fmt(col[i]) for col in columns]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> dict[str, Any]:
    """Run the configured method; write CSV/JSON if paths are set; return the report.

    numpy's floating-point warnings are off while the lanes run: a state
    that overflows stops the run through the finiteness checks, with time
    context, and prints nothing else.
    """
    extra: dict[str, Any] = {}
    with np.errstate(all="ignore"):
        if cfg.method == "compare-all":
            extra, traj = _compare_all(cfg)
        elif cfg.method == "fock-oracle":
            traj = _lane_wei_norman(cfg)
        else:
            traj = _LANES[cfg.method](cfg)
        if cfg.fock_dim is not None:
            fid, phase = _fock_fidelity_series(cfg, traj)
            extra["fock"] = {
                "dim": cfg.fock_dim,
                "fidelity_min": float(np.nanmin(fid)),
                "phase_max": float(np.nanmax(np.abs(phase))),
            }

    report = _build_report(cfg, traj, extra)
    if cfg.csv_path:
        write_csv(cfg.csv_path, traj, cfg.n)
        report["csv"] = cfg.csv_path
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def solution_fidelity(
    c: ComplexCoefficients,
    s0: RealState,
    t: float,
    spec: FockBasisSpec,
    *,
    step: float = 1e-3,
) -> tuple[float, float]:
    """(fidelity, phase) of the closed-form e^{−iφ}D(α)S(w)|0⟩ against direct propagation.

    Runs the ``fock-oracle`` method for the constant drive `c` from
    (α₀, w₀) = s0 over [0, t] (t > 0) with grid step `step`, and returns the
    report's ``fidelity_min`` and ``phase_max``.  Inadequate truncation raises
    :class:`~sjdyn.fockoracle.TruncationError`.
    """
    if spec.sector != "even":
        raise ValueError("solution_fidelity uses the even sector (k=1/4)")
    cfg = ExperimentConfig.from_json({
        "method": "fock-oracle",
        "grid": {"t0": 0.0, "t1": t, "step": step},
        "coefficients": c.to_json(),
        "initial": {"chart": "fc", "eta": [s0.alpha.real, s0.alpha.imag], "w": [s0.w.real, s0.w.imag]},
        "k": spec.k.k,
        "fock": {"dim": spec.dim},
    })
    fock = run_experiment(cfg)["fock"]
    return fock["fidelity_min"], fock["phase_max"]


def tolerance_failures(cfg: ExperimentConfig, report: dict[str, Any]) -> list[str]:
    """Gate checks used by the compare/oracle CLI verbs (empty list = pass)."""
    failures = []
    tol = cfg.tolerances
    for pair, dev in report.get("comparisons", {}).items():
        if not dev <= tol["state"]:
            failures.append(f"state deviation {pair}: {dev:.3e} > {tol['state']:.1e}")
    if "phase_bridge_max" in report and not report["phase_bridge_max"] <= tol["phase"]:
        failures.append(f"phase bridge residual {report['phase_bridge_max']:.3e} > {tol['phase']:.1e}")
    fock = report.get("fock")
    if fock is not None:
        if not fock["fidelity_min"] >= tol["fidelity"]:
            failures.append(f"fock fidelity {fock['fidelity_min']:.9f} < {tol['fidelity']:.9f}")
        if not fock["phase_max"] <= tol["phase"]:
            failures.append(f"fock phase {fock['phase_max']:.3e} > {tol['phase']:.1e}")
    return failures
