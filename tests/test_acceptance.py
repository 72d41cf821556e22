"""End-to-end acceptance gate.

One test per shipped guarantee, ordered from algebra up to the Fock-space
oracle.  Each test prints a single summary line with the measured residual
and elapsed time (run with ``pytest tests/test_acceptance.py -v -s`` to see
them); the asserts pin the advertised tolerances.
"""

import time

import numpy as np
import pytest

from sjdyn.algebra import (
    RealCoefficients,
    adjoint_matrix,
    coeffs_from_real,
)
from sjdyn.berezin import (
    energy,
    hc_matrix,
    hr_matrix,
    phase_rhs,
    rhs_ball,
    rhs_fc,
    rhs_fc_ball,
    riccati_by_linearization,
)
from sjdyn.fockoracle import (
    FockBasisSpec,
    TruncationError,
    build_generators,
    coherent_vector,
)
from sjdyn.geometry import (
    BargmannIndex,
    FCPoint,
    JacobiPoint,
    fc_forward,
    fc_inverse,
    overlap_log,
)
from sjdyn.runner import solution_fidelity
from sjdyn.weinorman import (
    RealState,
    WNParameters,
    adjoint_chain,
    adjoint_chain_product,
    conjugation_dictionary,
    phase_bridge,
    wn_phase_rhs,
    wn_rhs,
)
from conftest import draw_ball_coeffs, draw_ball_point, draw_real_coeffs, rk4, rk4_path

# ([X_i, X_j], {basis index: coefficient}) for every nonzero bracket
BRACKET_TABLE = {
    (3, 2): {1: 1.0},
    (5, 4): {4: 1.0},
    (5, 6): {6: -1.0},
    (6, 4): {5: 2.0},
    (3, 4): {2: 1.0},
    (6, 2): {3: 1.0},
    (5, 2): {2: 0.5},
    (5, 3): {3: -0.5},
}


def bounded_real_coeffs(rng):
    """Hermitian coefficient set with every complex coefficient in the unit disk."""
    nu1, nu2 = rng.uniform(-0.7, 0.7, 2)
    veps1, veps2 = rng.uniform(-0.7, 0.7, 2)
    return RealCoefficients(
        nu1=nu1, nu2=nu2, veps0=rng.uniform(-0.5, 0.5), veps1=veps1, veps2=veps2
    )


def interior_state(rng, w_radius=0.4, a_radius=0.6):
    u = rng.uniform(-w_radius, w_radius, 2) / np.sqrt(2)
    a = rng.uniform(-a_radius, a_radius, 2)
    return RealState(a[0], a[1], u[0], u[1])


def _bracket_table_residual():
    # adjoint route: exact structure constants on every ordered pair
    expected = np.zeros((6, 6, 6))
    for (i, j), coeffs in BRACKET_TABLE.items():
        for m, c in coeffs.items():
            expected[i - 1, j - 1, m - 1] = c
            expected[j - 1, i - 1, m - 1] = -c
    for i in range(1, 7):
        for j in range(1, 7):
            e = np.zeros(6, dtype=complex)
            e[j - 1] = 1.0
            assert np.array_equal(adjoint_matrix(i) @ e, expected[i - 1, j - 1])

    # Fock route: same table on truncated matrices, away from the top
    # two levels that truncation corrupts.  The residual is scaled by the
    # bracket's own entry magnitude: K-sector products reach ~2.4e3 here,
    # where double storage alone already costs ~1.4e-12 absolute, so an
    # unscaled threshold would be unmeetable for any float64 matrices.
    ops = build_generators(FockBasisSpec(dim=100, sector="even"))
    mats = [ops.Id, ops.adag, ops.a, ops.Kp, ops.K0, ops.Km]
    lo = 98
    worst = 0.0
    for i in range(6):
        for j in range(6):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            want = np.zeros_like(comm)
            for m, c in enumerate(expected[i, j]):
                if c:
                    want += c * mats[m]
            scaled = np.abs(comm - want) / np.maximum(1.0, np.abs(want))
            worst = max(worst, np.max(scaled[:lo, :lo]))
    return worst


def test_bracket_table_via_adjoint_and_fock_matrices():
    # the first dense complex matmuls of a fresh process pay for library
    # start-up (up to ~1 s); one untimed warm-up call keeps that out of dt
    _bracket_table_residual()
    tic = time.perf_counter()
    worst = _bracket_table_residual()
    dt = time.perf_counter() - tic
    print(f"\n[criterion 01] brackets: adjoint exact, fock residual {worst:.3e} (<1e-12), {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 1.0


def test_closed_form_chain_matches_generic_exponential_product():
    tic = time.perf_counter()
    rng = np.random.default_rng(2001)
    worst = 0.0
    for _ in range(200):
        p = WNParameters(xi=tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(6)))
        for a, b in zip(adjoint_chain(p), adjoint_chain_product(p)):
            worst = max(worst, np.max(np.abs(a.c - b.c)))
    dt = time.perf_counter() - tic
    print(f"\n[criterion 02] chain: 200 draws, closed vs generic {worst:.3e} (<1e-12), {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 5.0


def test_group_and_symbol_trajectories_agree_under_dictionary():
    tic = time.perf_counter()
    rng = np.random.default_rng(2003)
    worst = 0.0
    for _ in range(50):
        rc = bounded_real_coeffs(rng)
        dcc = conjugation_dictionary(coeffs_from_real(rc))
        s0 = interior_state(rng)

        def f(_, y):
            dx, dy_, du, dv = wn_rhs(rc, RealState(y[0].real, y[1].real, y[2].real, y[3].real))
            deta, dw = rhs_fc(
                dcc,
                FCPoint.scalar(complex(y[4].real, y[5].real), complex(y[6].real, y[7].real)),
            )
            return np.array([dx, dy_, du, dv, deta.real, deta.imag, dw.real, dw.imag])

        y0 = np.array([s0.x, s0.y, s0.u, s0.v, s0.x, s0.y, s0.u, s0.v])
        _, path = rk4_path(f, y0, 0.0, 5.0, 5000, 100)
        dev = np.max(np.abs(path[:, :4] - path[:, 4:]))
        worst = max(worst, dev)
    dt = time.perf_counter() - tic
    print(f"\n[criterion 03] dictionary: 50 sets over [0,5], deviation {worst:.3e} (<1e-8), {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 60.0


def test_fc_transform_decouples_trajectories():
    tic = time.perf_counter()
    rng = np.random.default_rng(2005)
    worst = 0.0
    for n in (1, 2):
        c = draw_ball_coeffs(rng, n, scale=0.7)
        p0 = FCPoint(eta=0.25 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)),
                     W=draw_ball_point(rng, n, 0.3).W)
        j0 = fc_forward(p0)

        def f_ball(_, y):
            z, W = y[:n], y[n:].reshape(n, n)
            dz, dW = rhs_ball(c, JacobiPoint(z=z, W=0.5 * (W + W.T)))
            return np.concatenate([dz, dW.reshape(-1)])

        y = rk4(f_ball, np.concatenate([j0.z, j0.W.W.reshape(-1)]), 0.0, 2.0, 2000)
        eta = rk4(lambda _, e: rhs_fc_ball(c, e), p0.eta, 0.0, 2.0, 2000)
        Wf = y[n:].reshape(n, n)
        back = fc_inverse(JacobiPoint(z=y[:n], W=0.5 * (Wf + Wf.T)))
        worst = max(worst, np.max(np.abs(back.eta - eta)))
    dt = time.perf_counter() - tic
    print(f"\n[criterion 04] fc decoupling: n=1,2 deviation {worst:.3e} (<1e-8), {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 60.0


def test_riccati_linearization_matches_direct_integration():
    tic = time.perf_counter()
    rng = np.random.default_rng(2007)
    worst = 0.0
    for n in (1, 2, 3):
        c = draw_ball_coeffs(rng, n, scale=0.6)
        W0 = draw_ball_point(rng, n, radius=0.3)

        def f(_, y):
            W = y.reshape(n, n)
            _, dW = rhs_ball(c, JacobiPoint(z=np.zeros(n, complex), W=0.5 * (W + W.T)))
            return dW.reshape(-1)

        ts, path = rk4_path(f, W0.W.reshape(-1).astype(complex), 0.0, 5.0, 5000, 500)
        for t, row in zip(ts, path):
            got = riccati_by_linearization(c, W0, float(t)).W
            worst = max(worst, np.max(np.abs(got - row.reshape(n, n))))
    dt = time.perf_counter() - tic
    print(f"\n[criterion 05] riccati: n=1,2,3 over [0,5], deviation {worst:.3e} (<1e-8), {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 30.0


def test_generator_matrices_are_hamiltonian_symplectic():
    tic = time.perf_counter()
    rng = np.random.default_rng(2011)
    worst = 0.0
    for m in range(100):
        n = 1 + m % 3
        J = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-np.eye(n), np.zeros((n, n))],
        ])
        c = draw_ball_coeffs(rng, n)
        hc = hc_matrix(c)
        hr, _ = hr_matrix(c)
        worst = max(worst, np.max(np.abs(hc.T @ J + J @ hc)))
        worst = max(worst, np.max(np.abs(hr.T @ J + J @ hr)))
    dt = time.perf_counter() - tic
    print(f"\n[criterion 06] symplectic: 100 sets, residual {worst:.3e} (<1e-12), {dt:.2f}s")
    assert worst < 1e-12


def test_phase_bridge_identity_along_flow():
    tic = time.perf_counter()
    rng = np.random.default_rng(2013)
    k = BargmannIndex(1.0)
    worst = 0.0
    for _ in range(20):
        rc = draw_real_coeffs(rng)
        dcc = conjugation_dictionary(coeffs_from_real(rc))
        a0 = complex(*rng.uniform(-0.5, 0.5, 2))
        # w(0)=0 makes the bridge combination start at zero; it must stay there
        s0 = RealState(a0.real, a0.imag, 0.0, 0.0)

        def f(_, y):
            s = RealState(y[0].real, y[1].real, y[2].real, y[3].real)
            dx, dy_, du, dv = wn_rhs(rc, s)
            dphi = wn_phase_rhs(rc, s, k)
            d_D, d_B, _ = phase_rhs(dcc, FCPoint.scalar(s.alpha, s.w), k)
            return np.array([dx, dy_, du, dv, dphi, d_D, d_B])

        y0 = np.array([s0.x, s0.y, 0.0, 0.0, 0.0, 0.0, 0.0])
        _, path = rk4_path(f, y0, 0.0, 3.0, 3000, 150)
        for row in path:
            resid = phase_bridge(
                row[4].real, row[5].real, row[6].real,
                complex(row[0].real, row[1].real), complex(row[2].real, row[3].real),
            )
            worst = max(worst, abs(resid))
    dt = time.perf_counter() - tic
    print(f"\n[criterion 07] phase bridge: 20 sets over [0,3], residual {worst:.3e} (<1e-6), {dt:.1f}s")
    assert worst < 1e-6


def test_closed_form_solution_matches_fock_propagation():
    tic = time.perf_counter()
    rng = np.random.default_rng(2017)
    spec = FockBasisSpec(dim=400, sector="even")
    fidelities, phases = [], []
    attempts = 0
    while len(fidelities) < 10:
        attempts += 1
        assert attempts <= 40, "too many truncation-inadequate draws"
        c = coeffs_from_real(bounded_real_coeffs(rng))
        s0 = interior_state(rng, w_radius=0.3, a_radius=0.5)
        try:
            fidelity, phase = solution_fidelity(c, s0, 3.0, spec)
        except TruncationError:
            continue
        fidelities.append(fidelity)
        phases.append(phase)
    dt = time.perf_counter() - tic
    lo, hi = min(fidelities), max(phases)
    print(f"\n[criterion 08] fock oracle: 10 sets, min fidelity {lo:.12f} (>=1-1e-6), "
          f"max phase {hi:.3e} (<=1e-6), {dt:.1f}s")
    assert lo >= 1.0 - 1e-6
    assert hi <= 1e-6
    assert dt < 120.0


def test_invariants_preserved_along_trajectories():
    tic = time.perf_counter()
    rng = np.random.default_rng(2019)
    k = BargmannIndex(0.25)
    min_margin = np.inf
    worst_drift = 0.0
    for _ in range(5):
        c = coeffs_from_real(bounded_real_coeffs(rng))
        s0 = interior_state(rng)
        p0 = FCPoint.scalar(s0.alpha, s0.w)
        e0 = energy(c, p0, k)

        def f(_, y):
            deta, dw = rhs_fc(c, FCPoint.scalar(complex(y[0]), complex(y[1])))
            return np.array([deta, dw])

        _, path = rk4_path(f, np.array([p0.eta1, p0.w1]), 0.0, 2.0, 2000, 50)
        for row in path:
            p = FCPoint.scalar(complex(row[0]), complex(row[1]))
            min_margin = min(min_margin, 1.0 - abs(p.w1) ** 2)
            worst_drift = max(worst_drift, abs(energy(c, p, k) - e0))

    # matrix route: the ball propagator must keep the margin positive too
    c2 = draw_ball_coeffs(rng, 2, scale=0.7)
    W0 = draw_ball_point(rng, 2, radius=0.3)
    for t in np.linspace(0.25, 3.0, 12):
        min_margin = min(min_margin, riccati_by_linearization(c2, W0, t).margin)
    dt = time.perf_counter() - tic
    print(
        f"\n[criterion 09] invariants: margin_min {min_margin:.3f} (>0), "
        f"energy drift {worst_drift:.3e} (<1e-8), {dt:.1f}s"
    )
    assert min_margin > 0.0
    assert worst_drift < 1e-8


def test_overlap_formula_matches_fock_norms():
    tic = time.perf_counter()
    spec = FockBasisSpec(dim=200, sector="even")
    k = BargmannIndex(0.25)
    zs = [0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0.5j, -0.5 + 0.25j, 0.75 - 0.5j, -0.25 - 0.75j]
    ws = [0j, 0.5 + 0j, -0.5 + 0j, 0.5j, -0.5j, 0.25 + 0.25j, -0.25 + 0.25j,
          0.3 - 0.4j, -0.3 - 0.1j, 0.45 + 0j, 0.2j, -0.15 - 0.2j]
    worst = 0.0
    for z in zs:
        for w in ws:
            got = coherent_vector(z, w, spec).norm ** 2
            want = np.exp(overlap_log(JacobiPoint.scalar(z, w), k))
            worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - tic
    print(
        f"\n[criterion 10] overlap: {len(zs)}x{len(ws)} grid, relative error "
        f"{worst:.3e} (<1e-8), {dt:.1f}s"
    )
    assert worst < 1e-8
