"""Time grids, the fixed/adaptive steppers, experiment configs, and the CLI.

Config parsing is exercised one rejection path at a time, asserting the field
path each error reports.  Integration tests pin the classical fourth-order
convergence rate and the guard/underflow failure modes on synthetic
right-hand sides before any physics enters.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import sjdyn
from sjdyn import cli, runner
from sjdyn.algebra import BallCoefficients, ComplexCoefficients
from sjdyn.berezin import energy, rhs_fc
from sjdyn.fockoracle import TruncationError
from sjdyn.geometry import BargmannIndex, FCPoint
from sjdyn.weinorman import conjugation_dictionary
from conftest import rk4
from sjdyn.runner import (
    DEFAULT_TOLERANCES,
    FOCK_DIM_MAX,
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    StepUnderflowError,
    TimeGrid,
    Trajectory,
    integrate,
    run_experiment,
    tolerance_failures,
)

SCALAR_COEFFS = {
    "eps_a_re": 0.3,
    "eps_a_im": -0.1,
    "eps_0": 0.8,
    "eps_plus_re": 0.2,
    "eps_plus_im": 0.4,
}

BALL_COEFFS = {
    "n": 2,
    "eps": [[0.1, 0.2], [0.0, -0.3]],
    "eps0": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]],
    "eps_plus": [[[0.2, 0.0], [0.0, 0.1]], [[0.0, 0.1], [-0.4, 0.0]]],
}


def scalar_config(**over):
    cfg = {
        "method": "compare-all",
        "grid": {"t0": 0.0, "t1": 0.3, "step": 1e-3},
        "coefficients": dict(SCALAR_COEFFS),
        "initial": {"chart": "fc", "eta": [0.2, -0.1], "w": [0.1, 0.15]},
        "k": 0.25,
    }
    cfg.update(over)
    return cfg


def ball_config(**over):
    cfg = {
        "method": "compare-all",
        "grid": {"t0": 0.0, "t1": 0.5, "step": 1e-3},
        "coefficients": json.loads(json.dumps(BALL_COEFFS)),
        "initial": {
            "chart": "fc",
            "eta": [[0.2, -0.1], [0.0, 0.3]],
            "W": [[[0.1, 0.0], [0.0, 0.2]], [[0.0, 0.2], [-0.1, 0.0]]],
        },
        "k": 0.25,
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- time grid ------------------------------------------------------------------


def test_grid_rejects_reversed_interval():
    with pytest.raises(ValueError, match="t1 must exceed t0"):
        TimeGrid(1.0, 0.0, 0.1)


def test_grid_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="step must be > 0"):
        TimeGrid(0.0, 1.0, 0.0)


def test_grid_rejects_non_finite_bounds():
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(0.0, np.inf, 0.1)


def test_grid_caps_sample_count():
    with pytest.raises(ValueError, match="exceeds"):
        TimeGrid(0.0, 1.0, 1e-9)


def test_grid_times_land_exactly_on_both_endpoints():
    ts = TimeGrid(0.0, 1.0, 0.3).times()
    # non-divisible step: the last interval is shortened, never overshot
    assert ts.shape == (5,)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.allclose(ts[:4], [0.0, 0.3, 0.6, 0.9])

    ts = TimeGrid(0.0, 1.0, 0.1).times()
    assert ts.shape == (11,) and ts[-1] == 1.0
    assert np.allclose(np.diff(ts), 0.1)


# --- trajectory container ---------------------------------------------------------


def test_trajectory_rejects_length_mismatch():
    with pytest.raises(ValueError, match="matching lengths"):
        Trajectory(np.arange(3.0), "raw", np.zeros((2, 1)))


def test_trajectory_rejects_unordered_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, 2.0, 1.0]), "raw", np.zeros((3, 1)))


def test_trajectory_rejects_misshapen_diagnostic():
    with pytest.raises(ValueError, match="one value per sample"):
        Trajectory(np.arange(3.0), "raw", np.zeros((3, 1)), diagnostics={"margin": np.zeros(2)})


def test_trajectory_coerces_dtypes():
    tr = Trajectory([0, 1], "raw", [[1], [2]], {"m": np.ones(2)})
    assert tr.times.dtype == float and tr.states.dtype == complex
    assert tr.chart == "raw"


# --- fixed and adaptive stepping ---------------------------------------------------


def _rotation(t, y):
    return np.array([-y[1], y[0]])


ROTATION_AT_1 = np.array([np.cos(1.0), np.sin(1.0)])


def test_integrate_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown integration method"):
        integrate(_rotation, np.array([1.0, 0.0]), TimeGrid(0.0, 1.0, 0.1), method="euler")


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_integrate_zero_rhs_holds_state(method):
    grid = TimeGrid(0.0, 2.0, 0.1)
    tr = integrate(lambda t, y: np.zeros_like(y), np.array([0.3, -1.2]), grid, method=method)
    assert tr.times[0] == 0.0 and tr.times[-1] == 2.0
    assert np.array_equal(tr.states, np.tile([0.3, -1.2], (21, 1)))
    assert tr.diagnostics == {}


def test_rk4_matches_rotation_closed_form():
    tr = integrate(_rotation, np.array([1.0, 0.0]), TimeGrid(0.0, 1.0, 1e-3))
    assert np.abs(tr.states[-1].real - ROTATION_AT_1).max() < 1e-12


def test_rk4_error_falls_sixteenfold_per_halving():
    errs = []
    for step in (0.01, 0.005):
        tr = integrate(_rotation, np.array([1.0, 0.0]), TimeGrid(0.0, 1.0, step))
        errs.append(np.abs(tr.states[-1].real - ROTATION_AT_1).max())
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_rk45_tracks_closed_form_across_coarse_samples():
    # the sample grid is 10x coarser than rk4 would need; accuracy comes
    # from the adaptive sub-stepping, not the grid
    tr = integrate(_rotation, np.array([1.0, 0.0]), TimeGrid(0.0, 1.0, 0.1), method="rk45")
    assert np.abs(tr.states[-1].real - ROTATION_AT_1).max() < 1e-8


def test_integrate_coerces_integer_input():
    tr = integrate(lambda t, y: y * 0, np.array([1, 0]), TimeGrid(0.0, 1.0, 0.5))
    assert tr.states.dtype == complex
    assert np.array_equal(tr.states[-1], [1, 0])


def test_integrate_observer_row_and_columns_are_recorded():
    def obs(t, y):
        return y.astype(complex) + 1j * t, {"load": t * t, "phi": 3 * t}

    tr = integrate(
        lambda t, y: np.zeros_like(y), np.array([1.0]),
        TimeGrid(0.0, 1.0, 0.25), observer=obs,
    )
    assert np.allclose(tr.states[:, 0], 1.0 + 1j * tr.times)
    assert np.allclose(tr.diagnostics["load"], tr.times**2)
    assert np.allclose(tr.diagnostics["phi"], 3 * tr.times)


def test_guard_failure_carries_time_context():
    # the observer is the one per-sample hook; an invariant it finds broken
    # stops the run with the sample time
    def obs(t, y):
        if y[0] > 0.5:
            raise InvariantViolation("ceiling hit")
        return y.astype(complex), {}

    with pytest.raises(InvariantViolation, match=r"at t=0\.51: ceiling hit"):
        integrate(
            lambda t, y: np.ones_like(y), np.array([0.0]),
            TimeGrid(0.0, 2.0, 0.01), observer=obs,
        )


def test_rhs_error_at_stage_point_carries_time_context():
    def rhs(t, y):
        if t > 0.3:
            raise ValueError("bad region")
        return np.zeros_like(y)

    with pytest.raises(InvariantViolation, match=r"at t=.*bad region"):
        integrate(rhs, np.array([0.0]), TimeGrid(0.0, 1.0, 0.01))


def test_adaptive_step_underflows_on_finite_time_blowup():
    # y' = y^2 from y(0)=1 diverges at t=1; no step can cross it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepUnderflowError, match="step underflow"):
            integrate(
                lambda t, y: y * y, np.array([1.0]),
                TimeGrid(0.0, 2.0, 0.1), method="rk45",
            )


# --- config parsing ---------------------------------------------------------------


def test_config_error_exposes_field_path():
    err = ConfigError("config.x", "boom")
    assert str(err) == "config.x: boom"
    assert err.path == "config.x"


def test_from_json_scalar_defaults():
    cfg = scalar_config()
    del cfg["k"]
    parsed = ExperimentConfig.from_json(cfg)
    assert parsed.method == "compare-all"
    assert parsed.n == 1
    assert parsed.k == BargmannIndex(0.25)
    assert parsed.integrator == "rk4"
    assert parsed.grid == TimeGrid(0.0, 0.3, 1e-3)
    assert parsed.tolerances == DEFAULT_TOLERANCES
    c = parsed.coefficients_at(0.0)
    assert c.eps_a == 0.3 - 0.1j and c.eps_0 == 0.8 and c.eps_plus == 0.2 + 0.4j


def test_from_json_merges_tolerance_overrides():
    parsed = ExperimentConfig.from_json(scalar_config(tolerances={"phase": 1e-3}))
    assert parsed.tolerances["phase"] == 1e-3
    assert parsed.tolerances["state"] == DEFAULT_TOLERANCES["state"]


def test_fock_oracle_dimension_defaults():
    parsed = ExperimentConfig.from_json(scalar_config(method="fock-oracle"))
    assert parsed.fock_dim == 300
    assert ExperimentConfig.from_json(scalar_config()).fock_dim is None


def test_fock_dimension_is_an_integer_up_to_the_bound():
    for dim in (250, 250.0, "250", FOCK_DIM_MAX):
        parsed = ExperimentConfig.from_json(scalar_config(method="fock-oracle", fock={"dim": dim}))
        assert parsed.fock_dim == int(float(dim)) and type(parsed.fock_dim) is int


def test_schedule_segments_select_by_strict_until():
    cfg = scalar_config(grid={"t0": 0.0, "t1": 0.4, "step": 1e-3})
    del cfg["coefficients"]
    cfg["schedule"] = [
        {"until": 0.2, "coefficients": dict(SCALAR_COEFFS)},
        {"until": 0.5, "coefficients": dict(SCALAR_COEFFS, eps_0=-0.3)},
    ]
    parsed = ExperimentConfig.from_json(cfg)
    assert parsed.coefficients_at(0.0).eps_0 == 0.8
    assert parsed.coefficients_at(0.1999).eps_0 == 0.8
    # boundary belongs to the next segment, and queries past the last
    # boundary stick to the final segment
    assert parsed.coefficients_at(0.2).eps_0 == -0.3
    assert parsed.coefficients_at(9.0).eps_0 == -0.3


def test_scalar_initial_product_chart_converts_to_fc():
    cfg = scalar_config(initial={"chart": "product", "z": [0.2, -0.1], "w": [0.1, 0.15]})
    eta, w = ExperimentConfig.from_json(cfg).scalar_initial_fc()
    z, w0 = 0.2 - 0.1j, 0.1 + 0.15j
    assert w == w0
    assert eta == pytest.approx((z + w0 * np.conj(z)) / (1 - abs(w0) ** 2))


def test_ball_initial_embeds_scalar_chart():
    z, W = ExperimentConfig.from_json(scalar_config()).ball_initial()
    eta, w = 0.2 - 0.1j, 0.1 + 0.15j
    assert W.shape == (1, 1) and W[0, 0] == w
    assert z[0] == pytest.approx(eta - w * np.conj(eta))


def test_ball_initial_matrix_chart():
    z, W = ExperimentConfig.from_json(ball_config()).ball_initial()
    eta = np.array([0.2 - 0.1j, 0.3j])
    W_in = np.array([[0.1, 0.2j], [0.2j, -0.1]])
    assert np.allclose(W, W_in)
    assert np.allclose(z, eta - W_in @ eta.conj())


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        pytest.param(lambda c: c.pop("method"), "config.method", id="method-missing"),
        pytest.param(lambda c: c.update(method="euler"), "config.method", id="method-unknown"),
        pytest.param(lambda c: c.pop("grid"), "config.grid", id="grid-missing"),
        pytest.param(lambda c: c["grid"].update(t0="zero"), "config.grid.t0", id="grid-t0-type"),
        pytest.param(lambda c: c["grid"].update(t1=-1.0), "config.grid", id="grid-reversed"),
        pytest.param(lambda c: c["grid"].update(step="x"), "config.grid.step", id="grid-step-type"),
        pytest.param(
            lambda c: c.update(schedule=[{"until": 1.0, "coefficients": dict(SCALAR_COEFFS)}]),
            "exactly one",
            id="coeffs-and-schedule",
        ),
        pytest.param(lambda c: c.pop("coefficients"), "exactly one", id="coeffs-missing"),
        pytest.param(lambda c: c.update(coefficients={"bogus": 1}), "config.coefficients", id="coeffs-form"),
        pytest.param(
            lambda c: (c.pop("coefficients"), c.update(schedule={"until": 1.0}))[0],
            "config.schedule",
            id="schedule-not-list",
        ),
        pytest.param(
            lambda c: (c.pop("coefficients"), c.update(schedule=[]))[0],
            "config.schedule",
            id="schedule-empty",
        ),
        pytest.param(
            lambda c: (
                c.pop("coefficients"),
                c.update(schedule=[
                    {"until": 0.2, "coefficients": dict(SCALAR_COEFFS)},
                    {"until": 0.1, "coefficients": dict(SCALAR_COEFFS)},
                ]),
            )[0],
            "until",
            id="schedule-until-order",
        ),
        pytest.param(
            lambda c: (
                c.pop("coefficients"),
                c.update(schedule=[{"until": 0.1, "coefficients": dict(SCALAR_COEFFS)}]),
            )[0],
            "schedule ends at",
            id="schedule-coverage",
        ),
        pytest.param(
            lambda c: (
                c.pop("coefficients"),
                c.update(schedule=[
                    {"until": 0.2, "coefficients": dict(SCALAR_COEFFS)},
                    {"until": 0.5, "coefficients": json.loads(json.dumps(BALL_COEFFS))},
                ]),
            )[0],
            "config.schedule",
            id="schedule-mixed-forms",
        ),
        pytest.param(lambda c: c.pop("initial"), "config.initial", id="initial-missing"),
        pytest.param(lambda c: c["initial"].update(chart="polar"), "config.initial.chart", id="chart-unknown"),
        pytest.param(lambda c: c["initial"].update(w=[1.0, 0.0]), "config.initial.w", id="w-outside-disk"),
        pytest.param(lambda c: c["initial"].update(w=[0.1]), "config.initial.w", id="w-bad-pair"),
        pytest.param(lambda c: c["initial"].pop("eta"), "config.initial.eta", id="eta-missing"),
        pytest.param(lambda c: c.update(k="quarter"), "config.k", id="k-type"),
        pytest.param(lambda c: c.update(integrator="euler2"), "config.integrator", id="integrator-unknown"),
        pytest.param(lambda c: c.update(integrator="rk45"), "config.integrator", id="integrator-compare-all"),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": 1}),
            "config.fock.dim",
            id="fock-dim",
        ),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": 64}, k=0.75),
            "config.fock",
            id="fock-needs-quarter-k",
        ),
        pytest.param(lambda c: c.update(fock=5), "config.fock", id="fock-not-object"),
        pytest.param(lambda c: c.update(tolerances={"margin": 1e-3}), "config.tolerances.margin", id="tolerance-unknown"),
        pytest.param(lambda c: c.update(output="out.csv"), "config.output", id="output-not-object"),
        pytest.param(lambda c: c.update(grid=3), "config.grid", id="grid-not-object"),
        pytest.param(lambda c: c.update(tolerances=[1]), "config.tolerances", id="tolerances-not-object"),
        pytest.param(lambda c: c.update(tolerances={"state": "nan"}), "config.tolerances.state", id="tolerance-nan"),
        pytest.param(lambda c: c.update(k="nan"), "config.k", id="k-nan"),
        pytest.param(lambda c: c.update(k=-1.0), "config.k", id="k-negative"),
        pytest.param(lambda c: c.update(k=10**400), "config.k", id="k-overflow"),
        pytest.param(lambda c: c["grid"].update(step="inf"), "config.grid.step", id="grid-step-inf"),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": "inf"}), "config.fock.dim", id="fock-dim-inf"
        ),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": 2.7}), "config.fock.dim", id="fock-dim-fraction"
        ),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": 1e12}), "config.fock.dim", id="fock-dim-huge"
        ),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": FOCK_DIM_MAX + 1}),
            "config.fock.dim",
            id="fock-dim-above-bound",
        ),
        pytest.param(
            lambda c: c.update(method="fock-oracle", fock={"dim": True}), "config.fock.dim", id="fock-dim-bool"
        ),
        pytest.param(lambda c: c["grid"].update(t1=True), "config.grid.t1", id="grid-t1-bool"),
        pytest.param(lambda c: c.update(k=True), "config.k", id="k-bool"),
        pytest.param(lambda c: c.update(tolerances={"phase": False}), "config.tolerances.phase", id="tolerance-bool"),
        pytest.param(lambda c: c["initial"].update(w=[True, 0.0]), "config.initial.w", id="w-bool"),
        pytest.param(lambda c: c.update(output={"csv": 3}), "config.output.csv", id="output-csv-type"),
        pytest.param(lambda c: c.update(output={"report": ["r.json"]}), "config.output.report", id="output-report-type"),
        pytest.param(
            lambda c: c["coefficients"].update(eps_0="nan"), "config.coefficients.eps_0", id="eps0-nan"
        ),
        pytest.param(
            lambda c: c["coefficients"].update(eps_a_re=float("inf")), "config.coefficients.eps_a_re", id="eps-a-inf"
        ),
        pytest.param(
            lambda c: c.update(coefficients={"nu1": 0.1, "veps0": 1e308}), "config.coefficients", id="real-form-overflow"
        ),
        pytest.param(
            lambda c: (
                c.pop("coefficients"),
                c.update(schedule=[{"until": "nan", "coefficients": dict(SCALAR_COEFFS)}]),
            )[0],
            "config.schedule[0].until",
            id="schedule-until-nan",
        ),
        pytest.param(lambda c: c["initial"].update(w=[1e308, 1e308]), "config.initial.w", id="w-overflow"),
        pytest.param(lambda c: c["coefficients"].update(eps_a_re=True), "config.coefficients.eps_a_re", id="eps-a-bool"),
        pytest.param(lambda c: c["coefficients"].pop("eps_plus_im"), "config.coefficients.eps_plus_im", id="eps-plus-im-missing"),
        pytest.param(lambda c: c.update(method="wei-norman", fock={"dim": 50}), "config.fock", id="fock-not-read"),
        pytest.param(
            lambda c: c.update(method="riccati-linearized", initial={"chart": "product", "z": [0.1, 0.0], "w": [1 - 4e-16, 0.0]}),
            "config.initial.w",
            id="w-below-margin-floor",
        ),
    ],
)
def test_from_json_rejects_bad_scalar_field(mutate, fragment):
    cfg = scalar_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(cfg)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        pytest.param(lambda c: c.update(method="berezin-fc"), "config.method", id="scalar-method"),
        pytest.param(
            lambda c: c["initial"].update(W=[[[0.1, 0.0], [0.0, 0.2]]]),
            "config.initial.W",
            id="W-row-count",
        ),
        pytest.param(
            lambda c: c["initial"].update(
                W=[[[0.1, 0.0], [0.0, 0.2]], [[0.0, -0.2], [-0.1, 0.0]]]
            ),
            "config.initial.W",
            id="W-asymmetric",
        ),
        pytest.param(
            lambda c: c["initial"].update(
                W=[[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            ),
            "config.initial.W",
            id="W-margin",
        ),
        pytest.param(
            lambda c: c["initial"].update(
                W=[[[0.1, 0.0], [0.0]], [[0.0], [-0.1, 0.0]]]
            ),
            "config.initial.W[0][1]",
            id="W-bad-pair",
        ),
        pytest.param(
            lambda c: c["initial"].update(eta=[[0.2, -0.1]]),
            "config.initial.eta",
            id="eta-count",
        ),
        pytest.param(
            lambda c: c.update(method="berezin-ball", fock={"dim": 64}),
            "config.fock",
            id="fock-on-ball-form",
        ),
        pytest.param(lambda c: c["coefficients"]["eps"].__setitem__(0, [float("nan"), 0.0]), "config.coefficients.eps[0]",
                     id="eps-nan"),
        pytest.param(lambda c: c["coefficients"]["eps"].__setitem__(0, []), "config.coefficients", id="eps-empty-pair"),
        pytest.param(lambda c: c["coefficients"].update(n="inf"), "config.coefficients", id="n-inf"),
        pytest.param(lambda c: c["initial"].update(W=[5, 6]), "config.initial.W", id="W-rows-not-lists"),
        pytest.param(
            lambda c: c["initial"].update(W=[[[0.1, 0.0], [0.0, 0.2]], [[0.0, 0.2]]]),
            "config.initial.W",
            id="W-ragged",
        ),
        pytest.param(
            lambda c: c["initial"].update(W=[[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]),
            "config.initial.W",
            id="W-overflow",
        ),
        pytest.param(lambda c: c["coefficients"].update(n=2.7), "config.coefficients.n", id="n-fraction"),
        pytest.param(lambda c: c["coefficients"].update(n="2.5"), "config.coefficients.n", id="n-fraction-string"),
        pytest.param(lambda c: c["coefficients"].update(n=True), "config.coefficients.n", id="n-bool"),
        pytest.param(lambda c: c["coefficients"]["eps"].__setitem__(0, [True, 0]), "config.coefficients.eps[0]",
                     id="eps-bool-entry"),
        pytest.param(lambda c: c["coefficients"]["eps"].__setitem__(0, [0.1, 0.2, 9]), "config.coefficients.eps[0]",
                     id="eps-three-values"),
        pytest.param(lambda c: c["coefficients"]["eps0"].pop(), "config.coefficients.eps0", id="eps0-row-count"),
        pytest.param(lambda c: c["coefficients"]["eps_plus"][1].__setitem__(0, "x"), "config.coefficients.eps_plus[1][0]",
                     id="eps-plus-bad-pair"),
        pytest.param(lambda c: c["coefficients"].pop("eps0"), "config.coefficients.eps0", id="eps0-missing"),
        pytest.param(
            lambda c: c.update(method="riccati-linearized", initial={
                "chart": "product", "z": [[0.1, 0.0], [0.0, 0.0]],
                "W": [[[1 - 5e-16, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            }),
            "config.initial.W",
            id="W-below-margin-floor",
        ),
    ],
)
def test_from_json_rejects_bad_ball_field(mutate, fragment):
    cfg = ball_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(cfg)
    assert fragment in str(err.value)


# --- experiment runs ---------------------------------------------------------------


def test_compare_all_scalar_lanes_agree():
    rep = run_experiment(ExperimentConfig.from_json(scalar_config()))
    assert sorted(rep) == [
        "chart", "comparisons", "energy_drift", "grid", "k", "margin_min",
        "method", "n", "phase_bridge_constant", "phase_bridge_max",
        "phase_pair_deviation", "phases_final", "phi_wn_final",
        "quasienergy_residual_max", "samples",
    ]
    assert rep["method"] == "compare-all" and rep["chart"] == "fc" and rep["n"] == 1
    assert rep["samples"] == 301
    assert len(rep["comparisons"]) == 10
    assert max(rep["comparisons"].values()) < 1e-12
    assert rep["phase_bridge_max"] < 1e-12
    assert max(rep["phase_pair_deviation"].values()) < 1e-12
    assert rep["quasienergy_residual_max"] < 1e-12
    assert rep["energy_drift"] < 1e-10
    assert rep["margin_min"] > 0.0


def test_compare_all_zero_coefficients_is_static():
    zero = {k: 0.0 for k in SCALAR_COEFFS}
    rep = run_experiment(ExperimentConfig.from_json(scalar_config(coefficients=zero)))
    # the fixed point survives every lane; chart round-trips cost one ulp
    assert max(rep["comparisons"].values()) < 1e-15
    assert rep["energy_drift"] == 0.0
    assert rep["phases_final"] == {"phi_D": 0.0, "phi_B": 0.0, "phi": 0.0}


def test_compare_all_ball_lanes_agree():
    rep = run_experiment(ExperimentConfig.from_json(ball_config()))
    assert rep["chart"] == "ball" and rep["n"] == 2
    assert list(rep["comparisons"]) == ["berezin-ball|riccati-linearized"]
    assert rep["comparisons"]["berezin-ball|riccati-linearized"] < 1e-8
    assert rep["margin_min"] > 0.0


def test_fock_oracle_reports_fidelity():
    cfg = scalar_config(method="fock-oracle", fock={"dim": 150})
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert rep["fock"]["dim"] == 150
    assert rep["fock"]["fidelity_min"] >= 1.0 - 1e-6
    # the closed-form state carries the quantum phase, not only the ray
    assert rep["fock"]["phase_max"] < 1e-10


def test_adaptive_lane_conserves_energy():
    cfg = scalar_config(method="berezin-fc", integrator="rk45")
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert rep["samples"] == 301
    assert rep["energy_drift"] < 1e-8


def test_schedule_run_reports_per_segment_quantities():
    cfg = {
        "method": "wei-norman",
        "grid": {"t0": 0.0, "t1": 0.4, "step": 1e-3},
        "schedule": [
            {"until": 0.2, "coefficients": dict(SCALAR_COEFFS)},
            {"until": 0.5, "coefficients": dict(SCALAR_COEFFS, eps_0=-0.3)},
        ],
        "initial": {"chart": "fc", "eta": [0.2, -0.1], "w": [0.1, 0.15]},
        "k": 0.25,
    }
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert sorted(rep) == [
        "chart", "energy_drift", "grid", "k", "margin_min", "method", "n",
        "phases_final", "phi_wn_final", "quasienergy_residual_max", "samples",
    ]
    # drift is the largest drift within one segment; the sample at the
    # switch belongs to the second segment, so each segment conserves its
    # own energy and the eps_0 switch does not show up in it
    assert rep["energy_drift"] <= 1e-12
    assert rep["quasienergy_residual_max"] < 1e-12
    assert rep["margin_min"] > 0.0


SECOND_SEGMENT = {"eps_a_re": 0.0, "eps_a_im": 0.0, "eps_0": -0.3, "eps_plus_re": 0.0, "eps_plus_im": 0.0}


def two_segment_config(method, step, first_end, **over):
    cfg = scalar_config(method=method, grid={"t0": 0.0, "t1": 2.0, "step": step}, **over)
    del cfg["coefficients"]
    cfg["schedule"] = [
        {"until": first_end, "coefficients": dict(SCALAR_COEFFS)},
        {"until": 2.0, "coefficients": dict(SECOND_SEGMENT)},
    ]
    return cfg


@pytest.mark.parametrize(
    "step, first_end",
    [pytest.param(1 / 256, 1.0, id="end-on-grid"), pytest.param(1e-3, 1.0003, id="end-between-samples")],
)
def test_schedule_drive_lanes_agree_across_segment_end(tmp_path, capsys, step, first_end):
    # no step crosses the segment end, so every lane stays RK4-accurate
    # through the switch and the riccati lane's exact W agrees with the rest
    path = write_config(tmp_path, "sched.json", two_segment_config("compare-all", step, first_end))
    assert cli.main(["compare", "--config", path]) == 0
    cfg = ExperimentConfig.from_json(json.loads(Path(path).read_text()))
    rep = run_experiment(cfg)
    assert max(rep["comparisons"].values()) <= 1e-8
    assert rep["phase_bridge_max"] <= 1e-8
    assert rep["energy_drift"] <= 1e-12

    # the lanes agree with an independent RK4 run segment by segment
    y, t = np.array(cfg.scalar_initial_fc()), cfg.grid.t0
    for seg in cfg.segments:
        c = conjugation_dictionary(seg.coefficients)
        y = rk4(lambda _, v, c=c: np.array(rhs_fc(c, FCPoint.scalar(v[0], v[1]))), y, t, seg.until, 1000)
        t = seg.until
    assert np.max(np.abs(runner._LANES["berezin-fc"](cfg).states[-1] - y)) <= 1e-10


@pytest.mark.parametrize("first_end", [1.0, 1.0003])
def test_ball_schedule_drive_lanes_agree_across_segment_end(first_end):
    second = json.loads(json.dumps(BALL_COEFFS))
    second["eps"][0] = [0.5, 0.1]
    second["eps0"][0][0] = [-0.4, 0.0]
    cfg = ball_config(grid={"t0": 0.0, "t1": 2.0, "step": 1 / 256})
    del cfg["coefficients"]
    cfg["schedule"] = [
        {"until": first_end, "coefficients": json.loads(json.dumps(BALL_COEFFS))},
        {"until": 2.0, "coefficients": second},
    ]
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert rep["comparisons"]["berezin-ball|riccati-linearized"] <= 1e-8


def _exact_flow(c, eta, W, tau):
    """(η, W) after time tau of constant ball coefficients c, each from one expm.

    W = X·Y⁻¹ linearizes i·Ẇ = ε₋ + (W·ε₀)ˢ + W·ε₊·W; the flow
    i·η̇ = ε + ε₋·η̄ + ½ε₀ᵗ·η is real-affine in (Re η, Im η), so its matrix
    is read off by probing it at 0 and at the unit vectors.
    """
    n = c.n
    gen_w = np.block([[-0.5j * c.eps0.T, -1j * c.eps_minus], [1j * c.eps_plus, 0.5j * c.eps0]])

    def deta(v):
        e = v[:n] + 1j * v[n:]
        d = -1j * (c.eps + c.eps_minus @ e.conj() + 0.5 * c.eps0.T @ e)
        return np.concatenate([d.real, d.imag])

    offset = deta(np.zeros(2 * n))
    gen_eta = np.zeros((2 * n + 1, 2 * n + 1))
    gen_eta[: 2 * n, : 2 * n] = np.column_stack([deta(e) - offset for e in np.eye(2 * n)])
    gen_eta[: 2 * n, 2 * n] = offset
    blk = expm(tau * gen_w) @ np.vstack([W, np.eye(n)])
    v = expm(tau * gen_eta) @ np.concatenate([eta.real, eta.imag, [1.0]])
    return v[:n] + 1j * v[n : 2 * n], np.linalg.solve(blk[n:].T, blk[:n].T).T


def _pairs(obj):
    return np.array([complex(*p) for p in obj])


@pytest.mark.parametrize("form", ["scalar", "ball"])
@pytest.mark.parametrize("first_end", [None, 2.6], ids=["one-segment", "two-segment"])
def test_riccati_lane_is_exact_per_segment(form, first_end):
    # at grid step 0.25 a stepped z would miss by ~1e-7; the lane must match
    # a reference that takes one expm from the start of each sample's segment
    if form == "scalar":
        cfg = scalar_config(method="riccati-linearized")
        second = dict(SECOND_SEGMENT, eps_a_re=0.4, eps_plus_im=0.3)
        eta0, W0 = _pairs([cfg["initial"]["eta"]]), _pairs([cfg["initial"]["w"]]).reshape(1, 1)
    else:
        cfg = ball_config(method="riccati-linearized")
        second = json.loads(json.dumps(BALL_COEFFS))
        second["eps"][0], second["eps0"][0][0] = [0.5, 0.1], [-0.4, 0.0]
        eta0, W0 = _pairs(cfg["initial"]["eta"]), np.array([_pairs(r) for r in cfg["initial"]["W"]])
    cfg["grid"] = {"t0": 0.0, "t1": 5.0, "step": 0.25}
    if first_end is not None:
        cfg["schedule"] = [{"until": first_end, "coefficients": cfg.pop("coefficients")},
                           {"until": 5.0, "coefficients": second}]
    exp = ExperimentConfig.from_json(cfg)
    coeffs = [s.coefficients for s in exp.segments]
    if form == "scalar":
        coeffs = [BallCoefficients.from_scalar(conjugation_dictionary(c)) for c in coeffs]
    traj = runner._LANES["riccati-linearized"](exp)

    ends = exp.ends
    j, start, eta_s, W_s = 0, 0.0, eta0, W0
    for t, row in zip(traj.times, traj.states):
        while j + 1 < len(ends) and t >= ends[j]:
            eta_s, W_s = _exact_flow(coeffs[j], eta_s, W_s, ends[j] - start)
            j, start = j + 1, ends[j]
        eta, W = _exact_flow(coeffs[j], eta_s, W_s, t - start)
        assert np.max(np.abs(row - np.concatenate([eta - W @ eta.conj(), W.reshape(-1)]))) <= 1e-12, t


@pytest.mark.parametrize("lane", ["wei-norman", "berezin-fc", "berezin-disk", "berezin-ball"])
@pytest.mark.parametrize(
    "step, ends",
    [
        pytest.param(0.1, (0.3, 1.0), id="grid-time-just-above-end"),  # 0.1*3 = 0.30000000000000004
        pytest.param(0.3, (0.9, 1.5), id="grid-time-just-below-end"),  # 0.3*3 = 0.8999999999999999
    ],
)
def test_rk45_schedule_end_within_rounding_of_a_grid_time(tmp_path, capsys, lane, step, ends):
    # an end a few ulps from a sample makes no sub-span too short to step
    cfg = scalar_config(method=lane, integrator="rk45", grid={"t0": 0.0, "t1": ends[1], "step": step})
    del cfg["coefficients"]
    cfg["schedule"] = [
        {"until": ends[0], "coefficients": dict(SCALAR_COEFFS)},
        {"until": ends[1], "coefficients": dict(SECOND_SEGMENT)},
    ]
    path = write_config(tmp_path, "sched.json", cfg)
    assert cli.main(["run", "--config", path]) == 0
    exp = ExperimentConfig.from_json(cfg)
    got = runner._common_chart_states(runner._LANES[lane](exp), 1)
    ref = runner._common_chart_states(runner._LANES["riccati-linearized"](exp), 1)
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_substeps_make_no_cut_within_rounding_of_either_end():
    assert list(runner._substeps([0.3, 1.0], 0.2, 0.1 * 3)) == [(0, 0.2, 0.1 * 3)]
    assert list(runner._substeps([0.9, 1.5], 0.3 * 3, 1.2)) == [(1, 0.3 * 3, 1.2)]
    assert list(runner._substeps([0.25, 1.0], 0.2, 0.3)) == [(0, 0.2, 0.25), (1, 0.25, 0.3)]


def test_readme_schedule_conserves_energy_per_segment():
    cfg = two_segment_config("berezin-fc", 0.01, 1.0, integrator="rk45")
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert rep["samples"] == 201
    assert rep["energy_drift"] <= 1e-12


def test_schedule_sample_on_segment_end_uses_next_segment_energy():
    cfg = ExperimentConfig.from_json(two_segment_config("berezin-fc", 0.25, 1.0))
    tr = runner._LANES["berezin-fc"](cfg)
    at_end = int(np.flatnonzero(tr.times == 1.0)[0])
    eta, w = complex(tr.states[at_end, 0]), complex(tr.states[at_end, 1])
    second = conjugation_dictionary(cfg.segments[1].coefficients)
    assert tr.diagnostics["energy"][at_end] == energy(second, FCPoint.scalar(eta, w), cfg.k)


def test_fock_oracle_diagonalizes_each_segment_once(monkeypatch):
    # the coherent states come from their closed form; only the direct
    # propagation builds H and diagonalizes it, once per segment
    built, diagonalized = [], []
    real_h, real_eigh = runner.hamiltonian_matrix, np.linalg.eigh
    monkeypatch.setattr(runner, "hamiltonian_matrix", lambda c, spec: built.append(c) or real_h(c, spec))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: diagonalized.append(1) or real_eigh(*a, **kw))
    cfg = two_segment_config("fock-oracle", 1e-3, 1.0003, fock={"dim": 120})
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert len(built) == 2 and len(diagonalized) == 2
    assert rep["fock"]["fidelity_min"] >= 1.0 - 1e-6 and rep["fock"]["phase_max"] < 1e-10


def test_fock_oracle_tail_checks_the_direct_propagation(tmp_path, capsys):
    # a squeezing drive fills the top of a 30-level basis; the directly
    # propagated state is refused before its closed-form partner is built
    squeeze = {"eps_a_re": 0.0, "eps_a_im": 0.0, "eps_0": 0.0, "eps_plus_re": 2.0, "eps_plus_im": 0.0}
    cfg = scalar_config(method="fock-oracle", fock={"dim": 30}, coefficients=squeeze,
                        initial={"chart": "fc", "eta": [0.0, 0.0], "w": [0.0, 0.0]})
    with pytest.raises(TruncationError, match="direct propagation at t=.*tail mass"):
        run_experiment(ExperimentConfig.from_json(cfg))
    assert cli.main(["oracle", "--config", write_config(tmp_path, "tail.json", cfg)]) == 1
    assert "run failed: direct propagation at t=" in capsys.readouterr().err


def _shift_phi_wn(monkeypatch, offset):
    lane = runner._lane_wei_norman

    def shifted(cfg):
        traj = lane(cfg)
        diagnostics = dict(traj.diagnostics, phi_wn=traj.diagnostics["phi_wn"] + offset)
        return dataclasses.replace(traj, diagnostics=diagnostics)

    monkeypatch.setattr(runner, "_lane_wei_norman", shifted)


def test_fock_oracle_gates_the_phase(tmp_path, capsys, monkeypatch):
    # a wrong φ leaves |overlap| at 1; only arg⟨ψ_direct, ψ_closed⟩ sees it
    _shift_phi_wn(monkeypatch, 0.3)
    cfg = scalar_config(method="fock-oracle", fock={"dim": 120})
    rep = run_experiment(ExperimentConfig.from_json(cfg))
    assert rep["fock"]["fidelity_min"] >= 1.0 - 1e-12
    assert rep["fock"]["phase_max"] == pytest.approx(0.3, abs=1e-9)
    assert cli.main(["oracle", "--config", write_config(tmp_path, "phase.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert "fock phase max 3.000e-01" in captured.out
    assert "FAIL fock phase 3.000e-01 > 1.0e-06" in captured.err


# --- non-finite values never pass a guard or a gate ------------------------------------


def test_disk_guard_rejects_nan():
    bcc = conjugation_dictionary(ComplexCoefficients(eps_a=0.3, eps_0=0.8, eps_plus=0.2))
    with pytest.raises(InvariantViolation, match="reached 1"):
        runner._disk_sample(bcc, 0j, complex(np.nan, 0.0), np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0]), 0.25)


def test_ball_guard_rejects_nan():
    with pytest.raises(InvariantViolation, match="symmetry"):
        runner._ball_sample(np.zeros(1, dtype=complex), np.array([[complex(np.nan, 0.0)]]))


@pytest.mark.parametrize("lane", ["berezin-ball", "riccati-linearized"])
def test_nan_ball_margin_stops_the_run(monkeypatch, lane):
    cfg = ExperimentConfig.from_json(ball_config(method=lane))
    monkeypatch.setattr(runner, "_ball_margin", lambda W: float("nan"))
    with pytest.raises(InvariantViolation, match="ball margin reached nan"):
        runner._LANES[lane](cfg)


def test_tolerance_gates_fail_on_nan():
    cfg = ExperimentConfig.from_json(scalar_config())
    nan = float("nan")
    failures = tolerance_failures(
        cfg,
        {
            "comparisons": {"x|y": nan},
            "phase_bridge_max": nan,
            "fock": {"dim": 5, "fidelity_min": nan, "phase_max": nan},
        },
    )
    assert [" ".join(f.split(" ")[:2]) for f in failures] == [
        "state deviation",
        "phase bridge",
        "fock fidelity",
        "fock phase",
    ]


def test_nonfinite_coefficients_are_rejected_at_construction():
    with pytest.raises(ValueError, match="eps_plus must be finite"):
        ComplexCoefficients(eps_plus=complex(0.0, np.nan))
    with pytest.raises(ValueError, match="eps must be finite"):
        BallCoefficients(n=1, eps=[np.inf], eps0=[[0.0]], eps_plus=[[0.0]])


# --- file output -------------------------------------------------------------------


def test_csv_header_follows_chart(tmp_path):
    p = tmp_path / "fc.csv"
    cfg = scalar_config(method="berezin-fc", output={"csv": str(p)})
    run_experiment(ExperimentConfig.from_json(cfg))
    assert p.read_text(encoding="utf-8").splitlines()[0] == (
        "t,re_eta,im_eta,re_w,im_w,phi_D,phi_B,phi,energy,margin"
    )

    p2 = tmp_path / "prod.csv"
    cfg = scalar_config(
        method="berezin-disk",
        initial={"chart": "product", "z": [0.2, -0.1], "w": [0.1, 0.15]},
        output={"csv": str(p2)},
    )
    run_experiment(ExperimentConfig.from_json(cfg))
    assert p2.read_text(encoding="utf-8").splitlines()[0] == (
        "t,re_z,im_z,re_w,im_w,phi_D,phi_B,phi,energy,margin"
    )

    p3 = tmp_path / "ball.csv"
    cfg = ball_config(method="berezin-ball", output={"csv": str(p3)})
    run_experiment(ExperimentConfig.from_json(cfg))
    assert p3.read_text(encoding="utf-8").splitlines()[0] == (
        "t,re_z_1,im_z_1,re_z_2,im_z_2,"
        "re_W_1_1,im_W_1_1,re_W_1_2,im_W_1_2,re_W_2_1,im_W_2_1,re_W_2_2,im_W_2_2,"
        "phi_D,phi_B,phi,energy,margin"
    )


def test_csv_output_is_deterministic(tmp_path):
    p = tmp_path / "out.csv"
    cfg = ExperimentConfig.from_json(scalar_config(output={"csv": str(p)}))
    rep = run_experiment(cfg)
    assert rep["csv"] == str(p)
    first = p.read_bytes()
    run_experiment(cfg)
    assert p.read_bytes() == first
    assert first.endswith(b"\n")
    # header plus one row per sample
    assert first.count(b"\n") == rep["samples"] + 1


def test_report_file_round_trips(tmp_path):
    p = tmp_path / "report.json"
    cfg = ExperimentConfig.from_json(scalar_config(output={"report": str(p)}))
    rep = run_experiment(cfg)
    assert json.loads(p.read_text(encoding="utf-8")) == rep


def test_tolerance_failures_format_and_gate():
    cfg = ExperimentConfig.from_json(scalar_config())
    bad = {
        "comparisons": {"x|y": 1e-3},
        "phase_bridge_max": 1.0,
        "fock": {"dim": 5, "fidelity_min": 0.5, "phase_max": 2e-6},
    }
    assert tolerance_failures(cfg, bad) == [
        "state deviation x|y: 1.000e-03 > 1.0e-08",
        "phase bridge residual 1.000e+00 > 1.0e-06",
        "fock fidelity 0.500000000 < 0.999999000",
        "fock phase 2.000e-06 > 1.0e-06",
    ]
    assert tolerance_failures(cfg, {"samples": 3}) == []
    assert tolerance_failures(cfg, {"fock": {"dim": 5, "fidelity_min": 1.0, "phase_max": 1e-6}}) == []


# --- command line ------------------------------------------------------------------


def test_cli_validate_reports_summary(tmp_path, capsys):
    path = write_config(tmp_path, "ok.json", scalar_config())
    assert cli.main(["validate", "--config", path]) == 0
    assert "ok (compare-all, n=1, 0.0..0.3)" in capsys.readouterr().out


def test_cli_missing_file_is_config_error(tmp_path, capsys):
    assert cli.main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_verb_must_match_method(tmp_path, capsys):
    path = write_config(tmp_path, "fc.json", scalar_config(method="berezin-fc"))
    assert cli.main(["compare", "--config", path]) == 1
    assert "requires method" in capsys.readouterr().err


def test_cli_run_prints_margin(tmp_path, capsys):
    path = write_config(tmp_path, "fc.json", scalar_config(method="berezin-fc"))
    assert cli.main(["run", "--config", path]) == 0
    assert "ok, samples=301" in capsys.readouterr().out


def test_cli_run_failure_exits_one(tmp_path, capsys):
    runaway = {
        "method": "berezin-fc",
        "grid": {"t0": 0.0, "t1": 5.0, "step": 0.1},
        "coefficients": dict(SCALAR_COEFFS, eps_plus_re=50.0),
        "initial": {"chart": "fc", "eta": [0.0, 0.0], "w": [0.9, 0.0]},
        "k": 0.25,
    }
    # coarse fixed steps on a fast drive overshoot the disk; the run
    # must abort with context instead of sampling garbage
    path = write_config(tmp_path, "runaway.json", runaway)
    assert cli.main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "run failed" in err and "|w| reached 1" in err


def test_cli_compare_prints_sorted_deviations(tmp_path, capsys):
    path = write_config(tmp_path, "cmp.json", scalar_config())
    assert cli.main(["compare", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "max deviation" in l]
    assert len(lines) == 10
    assert lines == sorted(lines)
    assert "phase bridge residual max" in out


def test_cli_compare_gate_failure_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, "tight.json", scalar_config(tolerances={"state": 1e-30}))
    assert cli.main(["compare", "--config", path]) == 2
    assert "FAIL state deviation" in capsys.readouterr().err


def test_cli_oracle_gate_failure_exits_two(tmp_path, capsys):
    cfg = scalar_config(method="fock-oracle", fock={"dim": 120}, tolerances={"fidelity": 1.1})
    path = write_config(tmp_path, "gate.json", cfg)
    assert cli.main(["oracle", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "fock fidelity min" in captured.out
    assert "FAIL fock fidelity" in captured.err


def test_cli_batch_exit_code_is_worst(tmp_path, capsys):
    good = write_config(tmp_path, "good.json", scalar_config())
    missing = str(tmp_path / "absent.json")
    assert cli.main(["validate", "--config", good, "--config", missing]) == 1
    captured = capsys.readouterr()
    assert "ok (" in captured.out and "config error" in captured.err


def test_cli_batch_runs_every_config(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", scalar_config())
    b = write_config(tmp_path, "b.json", ball_config())
    assert cli.main(["validate", "--config", a, "--config", b]) == 0
    out = capsys.readouterr().out
    assert "n=1" in out and "n=2" in out


def test_cli_nan_coefficient_is_config_error(tmp_path, capsys):
    cfg = scalar_config(method="berezin-fc")
    cfg["coefficients"]["eps_0"] = "nan"
    assert cli.main(["run", "--config", write_config(tmp_path, "nan.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "config.coefficients.eps_0: expected a finite number" in err


def test_cli_nan_tolerance_is_config_error(tmp_path, capsys):
    cfg = scalar_config(tolerances={"state": "nan"})
    assert cli.main(["compare", "--config", write_config(tmp_path, "tol.json", cfg)]) == 1
    assert "config.tolerances.state" in capsys.readouterr().err


def test_cli_non_string_output_path_is_config_error(tmp_path, capsys):
    cfg = scalar_config(method="berezin-fc", output={"csv": 3})
    assert cli.main(["run", "--config", write_config(tmp_path, "fd.json", cfg)]) == 1
    assert "config.output.csv" in capsys.readouterr().err


def test_cli_overflowing_drive_is_run_failure(tmp_path, capsys):
    cfg = scalar_config(method="wei-norman")
    cfg["coefficients"]["eps_0"] = 1e300
    with np.errstate(all="ignore"):
        assert cli.main(["run", "--config", write_config(tmp_path, "big.json", cfg)]) == 1
    assert "run failed" in capsys.readouterr().err


def test_cli_unwritable_output_is_run_failure(tmp_path, capsys):
    cfg = scalar_config(method="berezin-fc", output={"csv": str(tmp_path / "absent" / "out.csv")})
    assert cli.main(["run", "--config", write_config(tmp_path, "out.json", cfg)]) == 1
    assert "run failed" in capsys.readouterr().err


def test_cli_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


# --- malformed input, property-based ------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
TOP_LEVEL_FIELDS = [
    "method", "grid", "coefficients", "schedule", "initial", "k",
    "integrator", "output", "fock", "tolerances",
]


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(["scalar", "ball"]), key=st.sampled_from(TOP_LEVEL_FIELDS), value=JSON_VALUES)
def test_any_top_level_field_parses_or_raises_config_error(base, key, value):
    cfg = scalar_config() if base == "scalar" else ball_config()
    cfg[key] = value
    try:
        parsed = ExperimentConfig.from_json(cfg)
    except ConfigError:
        return
    assert isinstance(parsed, ExperimentConfig)
    # a boolean is never a number
    assert not (key == "k" and isinstance(value, bool))
    if parsed.fock_dim is not None:
        assert type(parsed.fock_dim) is int and 2 <= parsed.fock_dim <= FOCK_DIM_MAX


@settings(max_examples=300, deadline=None)
@given(dim=JSON_VALUES | st.floats(min_value=-10.0, max_value=3000.0) | st.integers(-10, 3000))
def test_any_fock_dim_is_a_bounded_integer_or_config_error(dim):
    cfg = scalar_config(method="fock-oracle", fock={"dim": dim})
    try:
        parsed = ExperimentConfig.from_json(cfg)
    except ConfigError as exc:
        assert "config.fock.dim" in str(exc)
        return
    assert not isinstance(dim, bool)
    assert type(parsed.fock_dim) is int and 2 <= parsed.fock_dim <= FOCK_DIM_MAX
    assert parsed.fock_dim == float(dim)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    line = next(l for l in pyproject.read_text().splitlines() if l.startswith("version"))
    assert line == f'version = "{sjdyn.__version__}"'


def test_perfbench_tracer_wraps_and_restores_runner_names(tmp_path, capsys):
    # the benchmark's tracer patches runner names given as strings; a rename
    # in runner must fail here, not only in `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lanes, energy_raw = runner._LANES, runner._energy_raw
    path = write_config(tmp_path, "cfg.json", scalar_config(grid={"t0": 0.0, "t1": 0.01, "step": 1e-3}))
    with tracing.Tracer() as tracer:
        tracer.active = True
        assert cli.main(["compare", "--config", path]) == 0
    values = tracing.round_values(tracer)
    assert all(values[f"runner.lane.{lane}.s"] > 0 for lane in tracing.LANES)
    assert values["berezin.rhs.calls"] > 0 and values["cli.run_experiment.s"] > 0
    assert runner._LANES is lanes and runner._energy_raw is energy_raw
