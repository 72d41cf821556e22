"""Tests of the benchmark's own checker (run: python3 -m pytest -q perfbench).

They show that exact.py agrees with `sjdyn` where `sjdyn` is right, and that
it reports a wrong state or a wrong phase as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import workloads  # noqa: E402


def _run(verb: str, cfg: dict, tmp_path: Path):
    from sjdyn import cli

    csv_path, report_path = tmp_path / "out.csv", tmp_path / "report.json"
    cfg = dict(cfg, output={"csv": str(csv_path), "report": str(report_path)})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([verb, "--config", str(cfg_path)])
    header, data = exact.read_csv(str(csv_path))
    return code, cfg, header, data, json.loads(report_path.read_text())


def _first(ops, schedule: bool):
    return next(op for op in ops if op.schedule == schedule)


def test_riccati_and_affine_flows_match_direct_integration():
    rng = np.random.default_rng(7)
    coeffs = workloads._ball_coeffs(rng, 3)
    init = workloads._ball_initial(rng, 3, "fc")
    q = exact.quadratic_from_config(coeffs)
    alpha0, W0 = exact.initial_alpha_W({"initial": init})

    def rhs(_t, y):
        a = y[:3] + 1j * y[3:6]
        W = (y[6:15] + 1j * y[15:]).reshape(3, 3)
        da = -1j * (q.f.conj() + q.A @ a + q.B @ a.conj())
        dW = -1j * (q.B + q.A @ W + W @ q.A.T + W @ q.B.conj() @ W)
        return np.concatenate([da.real, da.imag, dW.real.ravel(), dW.imag.ravel()])

    y0 = np.concatenate([alpha0.real, alpha0.imag, W0.real.ravel(), W0.imag.ravel()])
    sol = solve_ivp(rhs, (0.0, 2.0), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    alphas, Ws = exact.propagate(alpha0, W0, q, np.array([2.0]))
    y = sol.y[:, -1]
    assert np.max(np.abs(alphas[0] - (y[:3] + 1j * y[3:6]))) < 1e-10
    assert np.max(np.abs(Ws[0] - (y[6:15] + 1j * y[15:]).reshape(3, 3))) < 1e-10


def test_gaussian_vector_matches_displaced_squeezed_vacuum():
    dim, alpha, w, phi = 80, 0.4 - 0.3j, 0.25 + 0.2j, 0.7
    a = exact.ladder(dim)
    ad = a.conj().T
    zeta = w / abs(w) * np.arctanh(abs(w))
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    squeeze = expm(0.5 * (zeta * ad @ ad - np.conj(zeta) * a @ a))
    displace = expm(alpha * ad - np.conj(alpha) * a)
    ref = np.exp(-1j * phi) * displace @ (squeeze @ vac)
    got = exact.gaussian_vector(alpha, w, phi, dim)
    assert np.max(np.abs(got[:60] - ref[:60])) < 1e-12


def test_compare_output_passes_and_a_perturbed_state_fails(tmp_path):
    op = _first(workloads.scalar_compare(1), schedule=False)
    code, cfg, header, data, report = _run("compare", op.calls[0].config, tmp_path)
    assert code == 0
    assert exact.check_output(cfg, header, data, report) == []
    bad = data.copy()
    bad[-1, header.index("re_eta")] += 1e-6
    problems = exact.check_output(cfg, header, bad, report)
    assert any("exact solution" in p for p in problems)


def test_ball_output_passes_and_a_perturbed_state_fails(tmp_path):
    op = _first(workloads.ball_n3(1), schedule=False)
    code, cfg, header, data, report = _run("run", op.calls[1].config, tmp_path)
    assert code == 0
    assert exact.check_output(cfg, header, data, report) == []
    bad = data.copy()
    bad[-1, header.index("re_W_1_2")] += 1e-6
    problems = exact.check_output(cfg, header, bad, report)
    assert any("symmetry" in p for p in problems)
    assert any("exact solution" in p for p in problems)


@pytest.fixture(scope="module")
def oracle_output(tmp_path_factory):
    op = _first(workloads.fock_oracle(1), schedule=False)
    cfg = dict(op.calls[0].config, fock={"dim": 120})
    return _run("oracle", cfg, tmp_path_factory.mktemp("oracle"))


def test_oracle_output_passes_with_its_phase(oracle_output):
    code, cfg, header, data, report = oracle_output
    assert code == 0
    assert exact.check_output(cfg, header, data, report) == []


def test_oracle_phase_offset_fails(oracle_output):
    _code, cfg, header, data, report = oracle_output
    shifted = dict(report, phi_wn_final=report["phi_wn_final"] + 0.3)
    problems = exact.check_output(cfg, header, data, shifted)
    assert any("arg(overlap)" in p for p in problems)
    # the program's own gate sees nothing: |overlap| does not move
    assert not any("|overlap|" in p for p in problems)


def test_schedule_drive_fails_through_the_boundary_fault(tmp_path):
    op = _first(workloads.scalar_compare(1), schedule=True)
    code, cfg, header, data, report = _run("compare", op.calls[0].config, tmp_path)
    assert code == 2
    assert any("exact solution" in p for p in exact.check_output(cfg, header, data, report))
