"""Product-of-exponentials machinery: chains, conjugated coefficients, real flows.

The closed-form adjoint chain is checked against a brute-force product of
adjoint-matrix exponentials, and the conjugated-Hamiltonian coefficients
against an explicit operator conjugation in a truncated number basis; both
oracles share no code with the functions under test.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from sjdyn.algebra import (
    ComplexCoefficients,
    GeneratorVector,
    RealCoefficients,
    coeffs_from_real,
    coeffs_to_real,
)
from sjdyn.geometry import BargmannIndex, FCPoint, disk_param
from sjdyn import weinorman
from sjdyn.weinorman import (
    CHAIN_COND_MAX,
    ChartSingularError,
    QuasienergyCoefficients,
    RealState,
    WNParameters,
    adjoint_chain,
    adjoint_chain_product,
    conjugation_dictionary,
    forward_chain_matrix,
    hhat_coeffs,
    hhat_coeffs_real,
    phase_bridge,
    quasienergy_coeffs,
    squeeze_real_params,
    t_inv_tdot,
    t_inv_tdot_real,
    wn_parameters,
    wn_phase_rhs,
    wn_rhs,
    wn_solve_step,
)
from sjdyn.berezin import phase_rhs, rhs_fc
from conftest import draw_complex, draw_real_coeffs, draw_scalar_coeffs, rk4_path

CHAIN_TOL = 1e-12
SOLVE_TOL = 1e-10
FOCK_TOL = 1e-6
BRIDGE_TOL = 1e-6


def random_xi(rng, scale=1.0):
    return WNParameters(xi=tuple(draw_complex(rng, scale) for _ in range(6)))


def random_state(rng, radius=0.45):
    w = draw_complex(rng, radius)
    return RealState(
        x=rng.uniform(-1, 1), y=rng.uniform(-1, 1), u=w.real, v=w.imag
    )


# --- chart parameters -----------------------------------------------------------


def test_wn_parameters_at_identity():
    assert not wn_parameters(0j, 0j).xi.any()


def test_wn_parameters_pinned_point():
    xi = wn_parameters(1.0 + 0j, 0.5 + 0j).xi
    want = (-0.5, 1.0, -1.0, 0.5, np.log(0.75), -0.5)
    for got, ref in zip(xi, want):
        assert got == pytest.approx(ref, abs=1e-15)


def test_wn_parameters_rejects_boundary():
    with pytest.raises(ValueError, match=r"\|w\|"):
        wn_parameters(0j, 1.0 + 0j)


@seed(21)
@settings(max_examples=50)
@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2),
    wr=st.floats(-0.7, 0.7), wi=st.floats(-0.7, 0.7),
)
def test_wn_parameters_chart_shape(ar, ai, wr, wi):
    p = wn_parameters(complex(ar, ai), complex(wr, wi))
    xi = p.xi
    assert xi[4].imag == 0 and xi[4].real <= 0  # ξ₅ = ln(1−|w|²)
    assert xi[2] == -np.conj(xi[1])
    assert xi[5] == -np.conj(xi[3])
    assert p.canonical_residual() < 1e-15


def test_wn_parameters_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        WNParameters(xi=(1, 2, 3))


# --- adjoint chains -------------------------------------------------------------


def test_adjoint_chain_at_identity():
    for i, y in enumerate(adjoint_chain(WNParameters(xi=(0,) * 6))):
        want = np.zeros(6, complex)
        want[i] = 1
        assert np.array_equal(y.c, want)


def test_adjoint_chain_closed_forms():
    rng = np.random.default_rng(33)
    p = random_xi(rng)
    x1, x2, x3, x4, x5, x6 = p.xi
    em = np.exp(-x5 / 2)
    y1, y2, y3, y4, y5, y6 = adjoint_chain(p)
    assert np.array_equal(y1.c, [1, 0, 0, 0, 0, 0])
    assert np.allclose(y2.c, [-x3, em, -em * x6, 0, 0, 0], atol=1e-14, rtol=0)
    assert np.allclose(y3.c, [0, x4 * em, 1 / em - x4 * x6 * em, 0, 0, 0], atol=1e-14, rtol=0)
    assert np.allclose(y4.c, [0, 0, 0, em**2, -2 * x6 * em**2, x6**2 * em**2], atol=1e-14, rtol=0)
    assert np.allclose(y5.c, [0, 0, 0, 0, 1, -x6], atol=1e-14, rtol=0)
    assert np.array_equal(y6.c, [0, 0, 0, 0, 0, 1])


def test_adjoint_chain_second_entry_weight():
    rng = np.random.default_rng(37)
    for _ in range(10):
        p = random_xi(rng)
        assert adjoint_chain(p)[1][2] == pytest.approx(np.exp(-p.xi[4] / 2), abs=1e-15)


def test_adjoint_chain_matches_exponential_product():
    # brute force: right-accumulated expm(−ξₖ·ad_k) applied to each basis vector
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = random_xi(rng)
        for a, b in zip(adjoint_chain(p), adjoint_chain_product(p)):
            assert np.max(np.abs(a.c - b.c)) < CHAIN_TOL


def test_forward_chain_matrix_is_ascending_product():
    # column j carries X_j pushed through the exponentials that precede it
    from scipy.linalg import expm

    from sjdyn.algebra import adjoint_matrix

    rng = np.random.default_rng(43)
    p = random_xi(rng)
    m = forward_chain_matrix(p)
    P = np.eye(6, dtype=complex)
    for j in range(6):
        assert np.max(np.abs(m[:, j] - P[:, j])) < CHAIN_TOL
        P = P @ expm(p.xi[j] * adjoint_matrix(j + 1))


# --- left-logarithmic derivative ------------------------------------------------


def test_t_inv_tdot_zero_velocity():
    assert not t_inv_tdot((0.3 - 0.2j, 0.25j), (0j, 0j)).c.any()


def test_t_inv_tdot_pinned_creation_weight():
    # z=0, dz=1, w=1/2: weight on a† is r·(dz − conj(dz)·w) = r/2 with r=(3/4)^{-1/2}
    g = t_inv_tdot((0j, 0.5 + 0j), (1 + 0j, 0j))
    assert g[2] == pytest.approx(0.5 * (0.75) ** -0.5, abs=1e-15)


def test_t_inv_tdot_chain_rule_assembly():
    # dξ from differentiating the canonical chart, contracted against the Y-chain
    rng = np.random.default_rng(47)
    for _ in range(20):
        z, w = draw_complex(rng), draw_complex(rng, 0.6)
        dz, dw = draw_complex(rng), draw_complex(rng)
        dxi = (
            -0.5 * (dz * np.conj(z) + z * np.conj(dz)),
            dz,
            -np.conj(dz),
            dw,
            -(dw * np.conj(w) + w * np.conj(dw)) / (1 - abs(w) ** 2),
            -np.conj(dw),
        )
        acc = np.zeros(6, complex)
        for d, y in zip(dxi, adjoint_chain(wn_parameters(z, w))):
            acc += d * y.c
        got = t_inv_tdot((z, w), (dz, dw)).c
        assert np.max(np.abs(acc - got)) < CHAIN_TOL


def test_t_inv_tdot_real_zero_velocity():
    assert not t_inv_tdot_real(RealState(0.2, -0.1, 0.3, 0.1), (0, 0, 0, 0)).any()


def test_t_inv_tdot_real_pinned_squeeze_direction():
    # x=y=v=0, du=1: only the K₂ slot survives, with weight 2r² = 2/(1−u²)
    u = 0.3
    out = t_inv_tdot_real(RealState(0.0, 0.0, u, 0.0), (0.0, 0.0, 1.0, 0.0))
    want = np.zeros(6)
    want[5] = 2.0 / (1.0 - u * u)
    assert np.allclose(out, want, atol=1e-15, rtol=0)


def test_t_inv_tdot_real_matches_complex_route():
    # expand −i·T⁻¹dT over (I, N₁, N₂, K₀, K₁, K₂) from the complex-basis result
    rng = np.random.default_rng(53)
    for _ in range(15):
        s = random_state(rng)
        ds = tuple(rng.uniform(-1, 1) for _ in range(4))
        g = t_inv_tdot((s.alpha, s.w), (complex(ds[0], ds[1]), complex(ds[2], ds[3]))).c
        conv = np.array(
            [
                -1j * g[0],
                -0.5j * (g[1] + g[2]),
                0.5 * (g[1] - g[2]),
                -1j * g[4],
                -1j * (g[3] + g[5]),
                g[3] - g[5],
            ]
        )
        assert np.max(np.abs(conv.imag)) < CHAIN_TOL
        assert np.max(np.abs(conv.real - t_inv_tdot_real(s, ds))) < CHAIN_TOL


# --- conjugated Hamiltonian coefficients ----------------------------------------


def test_hhat_coeffs_zero_hamiltonian():
    got = hhat_coeffs(ComplexCoefficients(0j, 0.0, 0j), 0.4 - 0.1j, 0.2 + 0.3j)
    assert got == (0, 0, 0, 0)


def test_hhat_coeffs_at_origin():
    c = ComplexCoefficients(eps_a=0.4 - 0.9j, eps_0=1.3, eps_plus=0.2 + 0.7j)
    I0, C1, C0, Cp = hhat_coeffs(c, 0j, 0j)
    assert I0 == 0
    assert C1 == np.conj(c.eps_a)
    assert C0 == c.eps_0
    assert Cp == c.eps_plus


def test_hhat_coeffs_against_operator_conjugation():
    # oracle: sandwich the truncated Hamiltonian between displacement and squeeze
    # matrices and read the low matrix elements of the result
    from sjdyn.fockoracle import (
        FockBasisSpec,
        displacement_matrix,
        hamiltonian_matrix,
        squeeze_matrix,
    )

    rng = np.random.default_rng(59)
    spec = FockBasisSpec(dim=200, sector="even")
    for _ in range(3):
        c = draw_scalar_coeffs(rng)
        alpha = draw_complex(rng, 0.8)
        w = draw_complex(rng, 0.4)
        T = displacement_matrix(alpha, spec) @ squeeze_matrix(w, spec)
        Hh = T.conj().T @ hamiltonian_matrix(c, spec) @ T
        C1 = Hh[1, 0]
        Cp = np.sqrt(2) * Hh[2, 0]
        C0 = 2 * (Hh[1, 1] - Hh[0, 0])
        I0 = Hh[0, 0] - C0 / 4
        got = hhat_coeffs(c, alpha, w)
        for a, b in zip(got, (I0, C1, C0, Cp)):
            assert abs(a - b) < FOCK_TOL


def test_hhat_coeffs_real_zero():
    rc = RealCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)
    assert hhat_coeffs_real(rc, RealState(0.3, 0.1, 0.2, -0.1)) == (0, 0, 0, 0, 0, 0)


def test_hhat_coeffs_real_no_identity_term_at_zero_alpha():
    rng = np.random.default_rng(61)
    for _ in range(5):
        rc = draw_real_coeffs(rng)
        s = RealState(0.0, 0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert hhat_coeffs_real(rc, s)[0] == 0


def test_hhat_coeffs_real_matches_complex_route():
    rng = np.random.default_rng(67)
    for _ in range(10):
        rc = draw_real_coeffs(rng)
        s = random_state(rng)
        I0, C1, C0, Cp = hhat_coeffs(coeffs_from_real(rc), s.alpha, s.w)
        want = (I0.real, C1.real, -C1.imag, C0.real, 2 * Cp.real, -2 * Cp.imag)
        assert abs(I0.imag) < CHAIN_TOL and abs(C0.imag) < CHAIN_TOL
        got = hhat_coeffs_real(rc, s)
        assert np.max(np.abs(np.array(got) - np.array(want))) < CHAIN_TOL


# --- real equations of motion ---------------------------------------------------


def test_wn_rhs_zero_coefficients():
    rc = RealCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)
    assert wn_rhs(rc, RealState(0.4, -0.2, 0.3, 0.25)) == (0, 0, 0, 0)


def test_wn_rhs_disk_part_is_riccati():
    # recombined: i·dw = ε₊ + ε₀·w + ε₋·w²  (group-side labels)
    rng = np.random.default_rng(71)
    for _ in range(15):
        rc = draw_real_coeffs(rng)
        cc = coeffs_from_real(rc)
        s = random_state(rng)
        _, _, du, dv = wn_rhs(rc, s)
        dw = complex(du, dv)
        resid = 1j * dw - (cc.eps_plus + cc.eps_0 * s.w + cc.eps_minus * s.w**2)
        assert abs(resid) < 1e-13


def test_wn_rhs_matches_decoupled_flow_under_dictionary():
    rng = np.random.default_rng(73)
    for _ in range(15):
        rc = draw_real_coeffs(rng)
        s = random_state(rng)
        dx, dy, du, dv = wn_rhs(rc, s)
        deta, dw = rhs_fc(
            conjugation_dictionary(coeffs_from_real(rc)), FCPoint.scalar(s.alpha, s.w)
        )
        assert abs(complex(dx, dy) - deta) < 1e-13
        assert abs(complex(du, dv) - dw) < 1e-13


def test_wn_phase_rhs_zero():
    rc = RealCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)
    assert wn_phase_rhs(rc, RealState(0.1, 0.2, 0.3, -0.3), BargmannIndex(0.75)) == 0


def test_wn_phase_rhs_at_origin():
    rc = RealCoefficients(nu1=0.4, nu2=-0.3, veps0=0.7, veps1=0.2, veps2=-0.5)
    for k in (0.25, 1.0):
        got = wn_phase_rhs(rc, RealState(0.0, 0.0, 0.0, 0.0), BargmannIndex(k))
        assert got == pytest.approx(2 * k * 0.7, abs=1e-15)


def test_quasienergy_zero_input():
    rc = RealCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)
    q = quasienergy_coeffs(rc, RealState(0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0), 0.0)
    assert (q.G0, q.G1, q.G2, q.H0, q.H1, q.H2) == (0, 0, 0, 0, 0, 0)


def test_quasienergy_vanishes_on_solutions():
    # plugging the flow back in must kill every non-constant coefficient
    rng = np.random.default_rng(79)
    k = BargmannIndex(0.75)
    for _ in range(15):
        rc = draw_real_coeffs(rng)
        s = random_state(rng)
        ds = wn_rhs(rc, s)
        dphi = wn_phase_rhs(rc, s, k)
        q = quasienergy_coeffs(rc, s, ds, dphi)
        assert max(abs(q.G1), abs(q.G2), abs(q.H1), abs(q.H2)) < 1e-12
        want_h0 = -2 * (rc.veps0 + rc.veps1 * s.u - rc.veps2 * s.v)
        assert q.H0 == pytest.approx(want_h0, abs=1e-12)
        assert q.G0 == pytest.approx(dphi - (rc.nu1 * s.x - rc.nu2 * s.y), abs=1e-12)
        assert abs(q.G0 + k.k * q.H0) < 1e-12


def test_quasienergy_detects_off_solution_input():
    rc = RealCoefficients(nu1=0.4, nu2=-0.3, veps0=0.7, veps1=0.2, veps2=-0.5)
    s = RealState(0.3, -0.2, 0.1, 0.25)
    q = quasienergy_coeffs(rc, s, (1.0, 0.0, 0.0, 0.0), 0.0)
    assert max(abs(q.G1), abs(q.G2), abs(q.H1), abs(q.H2)) > 1e-3


# --- the linear solve behind the product representation ---------------------------


def test_wn_solve_step_zero_rhs():
    rng = np.random.default_rng(83)
    p = wn_parameters(draw_complex(rng), draw_complex(rng, 0.5))
    assert not wn_solve_step(GeneratorVector(np.zeros(6, complex)), p).any()


def test_wn_solve_step_identity_chart():
    e2 = np.zeros(6, complex)
    e2[1] = 1
    got = wn_solve_step(GeneratorVector(e2), WNParameters(xi=(0,) * 6))
    assert np.allclose(got, e2, atol=1e-15, rtol=0)


def test_wn_solve_step_reproduces_real_flow():
    # Hamiltonian right-hand side −i·H fed through the chart: the ξ₂/ξ₄ slots
    # must return the (α, w) velocities, ξ₁/ξ₅ absorb phase and normalization
    rng = np.random.default_rng(89)
    for _ in range(10):
        rc = draw_real_coeffs(rng)
        cc = coeffs_from_real(rc)
        s = random_state(rng)
        p = wn_parameters(s.alpha, s.w)
        eps = GeneratorVector(-1j * cc.generator_vector().c)
        dxi = wn_solve_step(eps, p)
        assert np.max(np.abs(forward_chain_matrix(p) @ dxi - eps.c)) < SOLVE_TOL
        dx, dy, du, dv = wn_rhs(rc, s)
        dalpha, dw = complex(dx, dy), complex(du, dv)
        assert abs(dxi[1] - dalpha) < SOLVE_TOL
        assert abs(dxi[3] - dw) < SOLVE_TOL
        want1 = -1j * (rc.nu1 * s.x - rc.nu2 * s.y) - (np.conj(s.alpha) * dalpha).real
        want5 = (
            -2j * (rc.veps0 + rc.veps1 * s.u - rc.veps2 * s.v)
            - 2 * (np.conj(s.w) * dw).real / (1 - abs(s.w) ** 2)
        )
        assert abs(dxi[0] - want1) < SOLVE_TOL
        assert abs(dxi[4] - want5) < SOLVE_TOL


def test_wn_solve_step_near_boundary_raises():
    eps = GeneratorVector(np.array([0, 0.3, 0.3, 0.2, 0.5, 0.2], complex))
    with pytest.raises(ChartSingularError, match="condition"):
        wn_solve_step(eps, wn_parameters(0j, (1 - 1e-12) * 1j))
    # comfortably inside: same call succeeds
    wn_solve_step(eps, wn_parameters(0j, 0.9j))


# --- squeeze parameters and the phase bridge --------------------------------------


def test_squeeze_real_params_origin():
    assert squeeze_real_params(0.0, 0.0) == (0.0, 0.0)


def test_squeeze_real_params_pinned():
    k1, k2 = squeeze_real_params(np.tanh(1.0), 0.0)
    assert k1 == 0
    assert k2 == pytest.approx(1.0, abs=1e-14)


def test_squeeze_real_params_inverts_disk_param():
    rng = np.random.default_rng(97)
    for _ in range(10):
        w = draw_complex(rng, 0.8)
        k1, k2 = squeeze_real_params(w.real, w.imag)
        back, _ = disk_param(complex(k2, k1))
        assert abs(back - w) < 1e-13
        assert np.hypot(k1, k2) == pytest.approx(np.arctanh(abs(w)), abs=1e-13)


def test_squeeze_real_params_rejects_boundary():
    with pytest.raises(ValueError):
        squeeze_real_params(1.0, 0.0)


def test_phase_bridge_zeros():
    assert phase_bridge(0.0, 0.0, 0.0, 0j, 0j) == 0


def test_phase_bridge_algebraic_form():
    # α=0 kills the cross term; generic inputs reproduce the stated combination
    assert phase_bridge(0.3, 0.1, 0.05, 0j, 0.4 + 0.2j) == pytest.approx(-0.45, abs=1e-15)
    alpha, w = 0.5 - 0.2j, 0.1 + 0.3j
    want = -0.3 - 0.15 + 0.5 * (w * np.conj(alpha) ** 2).imag
    assert phase_bridge(0.3, 0.1, 0.05, alpha, w) == pytest.approx(want, abs=1e-15)


def test_phase_bridge_conserved_along_coupled_flow():
    # co-integrate the group-side phase and both Berezin phases on one trajectory;
    # the bridge combination must hold its initial value
    rng = np.random.default_rng(101)
    k = BargmannIndex(1.0)
    for _ in range(3):
        rc = draw_real_coeffs(rng)
        dcc = conjugation_dictionary(coeffs_from_real(rc))
        s0 = random_state(rng, radius=0.3)

        def f(_, yv):
            s = RealState(yv[0].real, yv[1].real, yv[2].real, yv[3].real)
            dx, dy, du, dv = wn_rhs(rc, s)
            dphi = wn_phase_rhs(rc, s, k)
            d_D, d_B, _ = phase_rhs(dcc, FCPoint.scalar(s.alpha, s.w), k)
            return np.array([dx, dy, du, dv, dphi, d_D, d_B], complex)

        y0 = np.array([s0.x, s0.y, s0.u, s0.v, 0.0, 0.0, 0.0], complex)
        start = phase_bridge(0.0, 0.0, 0.0, s0.alpha, s0.w)
        _, path = rk4_path(f, y0, 0.0, 1.5, 1500, 300)
        for row in path:
            got = phase_bridge(
                row[4].real, row[5].real, row[6].real,
                complex(row[0].real, row[1].real), complex(row[2].real, row[3].real),
            )
            assert abs(got - start) < BRIDGE_TOL


# --- conventions ------------------------------------------------------------------


def test_conjugation_dictionary_swaps_ladder_labels():
    c = ComplexCoefficients(eps_a=0.4 - 0.9j, eps_0=1.3, eps_plus=0.2 + 0.7j)
    d = conjugation_dictionary(c)
    assert d.eps_a == np.conj(c.eps_a)
    assert d.eps_0 == c.eps_0
    assert d.eps_plus == c.eps_minus


def test_conjugation_dictionary_is_involution():
    rng = np.random.default_rng(103)
    for _ in range(5):
        c = draw_scalar_coeffs(rng)
        dd = conjugation_dictionary(conjugation_dictionary(c))
        assert dd == c


def test_real_state_validation():
    with pytest.raises(ValueError, match="unit disk"):
        RealState(0.0, 0.0, 0.8, 0.7)
    s = RealState(0.1, -0.2, 0.3, 0.4)
    assert s.alpha == 0.1 - 0.2j
    assert s.w == 0.3 + 0.4j


@pytest.mark.parametrize("xyuv, error, message", [
    ((float("nan"), 0.0, 0.0, 0.0), ValueError, "x must be finite"),
    ((0.0, float("inf"), float("nan"), 0.0), ValueError, "y must be finite"),
    ((0.0, 0.0, float("nan"), 0.0), ValueError, "u must be finite"),
    ((0.0, 0.0, 0.0, float("-inf")), ValueError, "v must be finite"),
    ((0.0, 0.0, 0.8, 0.7), ValueError, "(u,v) must lie inside the unit disk: u=0.8, v=0.7"),
    ((0.0, 0.0, 0.9038, -4.561), ValueError, "(u,v) must lie inside the unit disk: u=0.9038, v=-4.561"),
    ((0.0, 0.0, 1e200, 0.0), OverflowError, None),
])
@pytest.mark.parametrize("build", [RealState, weinorman._raw_state], ids=["RealState", "raw"])
def test_real_state_checks_on_raw_floats(build, xyuv, error, message):
    with pytest.raises(error) as exc:
        build(*xyuv)
    if message is not None:
        assert str(exc.value) == message


def test_raw_state_reads_as_real_state():
    s, raw = RealState(0.1, -0.2, 0.3, 0.4), weinorman._raw_state(0.1, -0.2, 0.3, 0.4)
    assert (raw.x, raw.y, raw.u, raw.v) == (s.x, s.y, s.u, s.v)
    rc = RealCoefficients(0.3, -0.1, 0.4, 0.2, -0.15)
    assert wn_rhs(rc, raw) == wn_rhs(rc, s)
