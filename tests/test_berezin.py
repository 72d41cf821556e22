"""Equations of motion on the disk/ball, linearizations, and phase tracking.

The Fock-space cross-checks (energy expectation, Berry connection by central
differences) live here rather than in test_fockoracle because they pin down
*this* module's sign and normalization choices against an independent route.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from sjdyn import berezin
from sjdyn.algebra import BallCoefficients, ComplexCoefficients
from sjdyn.berezin import (
    LinearizationPair,
    RiccatiSingularError,
    berry_phase_rhs,
    energy,
    hc_matrix,
    hr_matrix,
    phase_rhs,
    rhs_ball,
    rhs_disk,
    rhs_fc,
    rhs_fc_ball,
    riccati_by_linearization,
    riccati_propagate,
)
from sjdyn.geometry import (
    BallPoint,
    BargmannIndex,
    FCPoint,
    JacobiPoint,
    ball_membership,
    fc_forward,
    fc_inverse,
)
from sjdyn.weinorman import conjugation_dictionary
from conftest import (
    draw_ball_coeffs,
    draw_ball_point,
    draw_complex,
    draw_scalar_coeffs,
    rk4,
    rk4_path,
)

SCALAR_MATCH_TOL = 1e-14
SYMPLECTIC_TOL = 1e-12
CROSS_METHOD_TOL = 1e-8
DECOMP_TOL = 1e-10
FOCK_ENERGY_TOL = 1e-6
BERRY_FD_TOL = 1e-5

K_QUARTER = BargmannIndex(0.25)


def zero_scalar():
    return ComplexCoefficients(eps_a=0j, eps_0=0.0, eps_plus=0j)


def zero_ball(n):
    return BallCoefficients(
        n=n,
        eps=np.zeros(n, complex),
        eps0=np.zeros((n, n), complex),
        eps_plus=np.zeros((n, n), complex),
    )


def random_jacobi_point(rng, n, radius=0.35):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return JacobiPoint(z=z, W=draw_ball_point(rng, n, radius).W)


# --- right-hand sides -----------------------------------------------------------


def test_rhs_disk_zero_coefficients():
    dz, dw = rhs_disk(zero_scalar(), JacobiPoint.scalar(0.3 + 0.2j, 0.4 - 0.1j))
    assert dz == 0 and dw == 0


def test_rhs_disk_pure_number_term():
    # i·dw = ε₀·w at z=0 with only ε₀ on: w=1/2 rotates at rate -i/2
    c = ComplexCoefficients(eps_a=0j, eps_0=1.0, eps_plus=0j)
    dz, dw = rhs_disk(c, JacobiPoint.scalar(0j, 0.5 + 0j))
    assert dz == 0
    assert dw == pytest.approx(-0.5j, abs=1e-15)


def test_rhs_disk_matches_posted_formula():
    rng = np.random.default_rng(101)
    for _ in range(20):
        c = draw_scalar_coeffs(rng)
        z = draw_complex(rng)
        w = draw_complex(rng, 0.5)
        dz, dw = rhs_disk(c, JacobiPoint.scalar(z, w))
        want_dz = -1j * (c.eps_a + np.conj(c.eps_a) * w + (c.eps_0 / 2 + c.eps_plus * w) * z)
        want_dw = -1j * (c.eps_minus + c.eps_0 * w + c.eps_plus * w * w)
        assert abs(dz - want_dz) < SCALAR_MATCH_TOL
        assert abs(dw - want_dw) < SCALAR_MATCH_TOL


def test_rhs_disk_rejects_matrix_points():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="n=1"):
        rhs_disk(zero_scalar(), random_jacobi_point(rng, 2))


def test_rhs_fc_zero_coefficients():
    assert rhs_fc(zero_scalar(), FCPoint.scalar(0.1j, 0.2 + 0j)) == (0, 0)


def test_rhs_fc_constant_drive():
    # only ε_a=1: i·deta = 1 regardless of the point
    c = ComplexCoefficients(eps_a=1.0 + 0j, eps_0=0.0, eps_plus=0j)
    for eta, w in [(0j, 0j), (0.4 - 0.2j, 0.3j), (-0.7 + 0.1j, -0.2 + 0.4j)]:
        deta, _ = rhs_fc(c, FCPoint.scalar(eta, w))
        assert abs(deta - (-1j)) < SCALAR_MATCH_TOL


def test_rhs_fc_eta_component_ignores_w():
    rng = np.random.default_rng(55)
    for _ in range(10):
        c = draw_scalar_coeffs(rng)
        eta = draw_complex(rng)
        d1, _ = rhs_fc(c, FCPoint.scalar(eta, draw_complex(rng, 0.5)))
        d2, _ = rhs_fc(c, FCPoint.scalar(eta, draw_complex(rng, 0.5)))
        assert d1 == d2


def test_rhs_fc_w_component_matches_disk():
    rng = np.random.default_rng(56)
    for _ in range(10):
        c = draw_scalar_coeffs(rng)
        w = draw_complex(rng, 0.5)
        _, dw_fc = rhs_fc(c, FCPoint.scalar(draw_complex(rng), w))
        _, dw_disk = rhs_disk(c, JacobiPoint.scalar(0j, w))
        assert dw_fc == dw_disk


def test_rhs_ball_zero_coefficients():
    rng = np.random.default_rng(23)
    p = random_jacobi_point(rng, 3)
    dz, dW = rhs_ball(zero_ball(3), p)
    assert not dz.any() and not dW.any()


def test_rhs_ball_scalar_reduction():
    rng = np.random.default_rng(31)
    for _ in range(15):
        c = draw_scalar_coeffs(rng)
        z = draw_complex(rng)
        w = draw_complex(rng, 0.5)
        dz, dw = rhs_disk(c, JacobiPoint.scalar(z, w))
        dzv, dWm = rhs_ball(
            BallCoefficients.from_scalar(c),
            JacobiPoint(z=np.array([z]), W=np.array([[w]])),
        )
        assert abs(dzv[0] - dz) < SCALAR_MATCH_TOL
        assert abs(dWm[0, 0] - dw) < SCALAR_MATCH_TOL


def test_rhs_ball_keeps_w_symmetric():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        for _ in range(8):
            c = draw_ball_coeffs(rng, n)
            _, dW = rhs_ball(c, random_jacobi_point(rng, n))
            assert np.max(np.abs(dW - dW.T)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prepared_rhs_ball_is_the_printed_equations_bit_for_bit(n):
    # the coefficients prepared once per segment and the one W·ε₊ shared by
    # W·ε₊·W and W·ε₊·z must give the bits of the equations as printed
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        c = draw_ball_coeffs(rng, n)
        p = random_jacobi_point(rng, n)
        z, W = p.z, p.W.W
        WE = W @ c.eps0
        dW = -1j * (c.eps_minus + 0.5 * (WE + WE.T) + W @ c.eps_plus @ W)
        dz = -1j * (c.eps + W @ c.eps.conj() + 0.5 * c.eps0.T @ z + W @ c.eps_plus @ z)
        terms = berezin._ball_terms(c)
        packed = berezin._rhs_ball_raw(terms, z, W)
        assert packed.dtype == float
        assert np.array_equal(packed.view(complex), np.concatenate([dz, dW.reshape(-1)]))
        dz_pub, dW_pub = rhs_ball(c, p)
        assert np.array_equal(dz_pub, dz) and np.array_equal(dW_pub, dW)


def test_rhs_ball_dimension_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rhs_ball(zero_ball(2), random_jacobi_point(rng, 3))


def test_rhs_fc_ball_zero():
    eta = np.array([0.2 + 0.1j, -0.3j])
    assert not rhs_fc_ball(zero_ball(2), eta).any()


def test_rhs_fc_ball_scalar_reduction():
    rng = np.random.default_rng(61)
    for _ in range(10):
        c = draw_scalar_coeffs(rng)
        eta = draw_complex(rng)
        deta, _ = rhs_fc(c, FCPoint.scalar(eta, 0j))
        detav = rhs_fc_ball(BallCoefficients.from_scalar(c), np.array([eta]))
        assert abs(detav[0] - deta) < SCALAR_MATCH_TOL


def test_rhs_fc_ball_affine_superposition():
    # affine in (η, conj(η)): f(a+b) = f(a) + f(b) − f(0)
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        c = draw_ball_coeffs(rng, n)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = rhs_fc_ball(c, a + b)
        rhs = rhs_fc_ball(c, a) + rhs_fc_ball(c, b) - rhs_fc_ball(c, np.zeros(n))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_rhs_fc_ball_shape_check():
    with pytest.raises(ValueError, match="length 2"):
        rhs_fc_ball(zero_ball(2), np.zeros(3, complex))


# --- linearization matrices -----------------------------------------------------


def _sympl_form(n):
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def test_hc_matrix_zero():
    assert not hc_matrix(zero_ball(2)).any()


def test_hc_matrix_pure_number_scalar():
    c = BallCoefficients(
        n=1,
        eps=np.zeros(1, complex),
        eps0=np.array([[2.0 + 0j]]),
        eps_plus=np.zeros((1, 1), complex),
    )
    assert np.allclose(hc_matrix(c), np.diag([-1j, 1j]), atol=1e-15, rtol=0)


def test_hc_matrix_blocks():
    rng = np.random.default_rng(83)
    c = draw_ball_coeffs(rng, 2)
    h = hc_matrix(c)
    assert np.allclose(h[:2, :2], -0.5j * c.eps0.T, atol=1e-15)
    assert np.allclose(h[:2, 2:], -1j * c.eps_minus, atol=1e-15)
    assert np.allclose(h[2:, :2], 1j * c.eps_plus, atol=1e-15)
    assert np.allclose(h[2:, 2:], 0.5j * c.eps0, atol=1e-15)


def test_hr_matrix_zero():
    h, F = hr_matrix(zero_ball(3))
    assert not h.any() and not F.any()


def test_hr_matrix_scalar_entries():
    # ε_a = b + i·a with a=-0.2, b=0.7; ε₀=2; ε₊=3-4i  →  pinned real 2×2 system
    c = BallCoefficients.from_scalar(
        ComplexCoefficients(eps_a=0.7 - 0.2j, eps_0=2.0, eps_plus=3 - 4j)
    )
    h, F = hr_matrix(c)
    assert np.array_equal(h, np.array([[4.0, 2.0], [4.0, -4.0]]))
    assert np.array_equal(F, np.array([-0.2, 0.7]))


def test_hr_matrix_is_real():
    rng = np.random.default_rng(97)
    for n in (1, 2, 3):
        h, F = hr_matrix(draw_ball_coeffs(rng, n))
        assert h.dtype.kind == "f" and F.dtype.kind == "f"
        assert h.shape == (2 * n, 2 * n) and F.shape == (2 * n,)


def test_symplectic_residuals():
    rng = np.random.default_rng(103)
    for n in (1, 2, 3):
        J = _sympl_form(n)
        for _ in range(12):
            c = draw_ball_coeffs(rng, n)
            hc = hc_matrix(c)
            hr, _ = hr_matrix(c)
            assert np.max(np.abs(hc.T @ J + J @ hc)) < SYMPLECTIC_TOL
            assert np.max(np.abs(hr.T @ J + J @ hr)) < SYMPLECTIC_TOL


# --- Riccati propagation --------------------------------------------------------


def test_riccati_at_zero_time():
    rng = np.random.default_rng(19)
    W0 = draw_ball_point(rng, 2)
    out = riccati_by_linearization(draw_ball_coeffs(rng, 2), W0, 0.0)
    assert np.allclose(out.W, W0.W, atol=1e-15, rtol=0)


def test_riccati_zero_coefficients_is_identity_flow():
    rng = np.random.default_rng(29)
    W0 = draw_ball_point(rng, 3)
    out = riccati_by_linearization(zero_ball(3), W0, 7.5)
    assert np.allclose(out.W, W0.W, atol=1e-14, rtol=0)


def _integrate_ball_w(c, W0, t, steps):
    # reference route: fixed-step RK4 on the flattened Riccati equation
    n = c.n

    def f(_, y):
        W = y.reshape(n, n)
        _, dW = rhs_ball(c, JacobiPoint(z=np.zeros(n, complex), W=0.5 * (W + W.T)))
        return dW.reshape(-1)

    return rk4(f, W0.W.reshape(-1), 0.0, t, steps).reshape(n, n)


@pytest.mark.parametrize("n", [1, 2])
def test_riccati_matches_direct_integration(n):
    rng = np.random.default_rng(100 + n)
    c = draw_ball_coeffs(rng, n, scale=0.8)
    W0 = draw_ball_point(rng, n, radius=0.3)
    t = 1.5
    got = riccati_by_linearization(c, W0, t).W
    ref = _integrate_ball_w(c, W0, t, 1500)
    assert np.max(np.abs(got - ref)) < CROSS_METHOD_TOL


def test_riccati_propagate_agrees_with_single_shot():
    rng = np.random.default_rng(131)
    c = draw_ball_coeffs(rng, 2, scale=0.6)
    W0 = draw_ball_point(rng, 2, radius=0.3)
    a = riccati_by_linearization(c, W0, 2.0).W
    b = riccati_propagate(c, W0, 2.0).W
    assert np.max(np.abs(a - b)) < 1e-12


def test_riccati_stays_in_ball():
    rng = np.random.default_rng(137)
    c = draw_ball_coeffs(rng, 2)
    W0 = draw_ball_point(rng, 2, radius=0.4)
    for t in np.linspace(0.25, 4.0, 8):
        assert ball_membership(riccati_by_linearization(c, W0, float(t)).W).ok


def test_to_ball_recovers_quotient():
    rng = np.random.default_rng(139)
    W = draw_ball_point(rng, 2, radius=0.5).W
    Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pair = LinearizationPair(X=W @ Y, Y=Y)
    assert np.allclose(pair.to_ball().W, W, atol=1e-12, rtol=0)


def test_to_ball_singular_y_raises():
    with pytest.raises(RiccatiSingularError):
        LinearizationPair(
            X=np.eye(2, dtype=complex),
            Y=np.diag([1.0, 1e-14]).astype(complex),
        ).to_ball()


# --- phases and energy ----------------------------------------------------------


def test_energy_zero_coefficients():
    assert energy(zero_scalar(), FCPoint.scalar(0.3 + 0.1j, 0.2j), K_QUARTER) == 0


def test_energy_at_origin_is_k_eps0():
    c = ComplexCoefficients(eps_a=0.4 - 0.9j, eps_0=1.7, eps_plus=0.3 + 0.2j)
    for k in (0.25, 0.75, 1.0):
        got = energy(c, FCPoint.scalar(0j, 0j), BargmannIndex(k))
        assert got == pytest.approx(k * 1.7, abs=1e-15)


def test_energy_is_real_for_hermitian_coefficients():
    rng = np.random.default_rng(149)
    for _ in range(10):
        val = energy(
            draw_scalar_coeffs(rng),
            FCPoint.scalar(draw_complex(rng), draw_complex(rng, 0.5)),
            K_QUARTER,
        )
        assert isinstance(val, float)


def test_energy_matches_fock_expectation():
    # independent route: ⟨ψ|H|ψ⟩ on the normalized coherent state, truncation 200.
    # The Fock Hamiltonian uses the group-side labels, hence the dictionary.
    from sjdyn.fockoracle import (
        FockBasisSpec,
        coherent_vector,
        expectation,
        hamiltonian_matrix,
    )

    rng = np.random.default_rng(151)
    spec = FockBasisSpec(dim=200, sector="even")
    for _ in range(4):
        c = draw_scalar_coeffs(rng)
        eta = draw_complex(rng, 0.8)
        w = draw_complex(rng, 0.4)
        z = eta - w * np.conj(eta)
        psi = coherent_vector(z, w, spec)
        want = expectation(psi, hamiltonian_matrix(conjugation_dictionary(c), spec)).real
        got = energy(c, FCPoint.scalar(eta, w), K_QUARTER)
        assert abs(got - want) < FOCK_ENERGY_TOL


def test_berry_phase_rhs_zero_velocity():
    assert berry_phase_rhs(FCPoint.scalar(0.4j, 0.2 + 0j), 0j, 0j, K_QUARTER) == 0


def test_berry_phase_rhs_matches_fock_connection():
    # central difference of the normalized coherent-state section ψ̃(s):
    # dφ_B/ds = Re i⟨ψ̃|∂_s ψ̃⟩.  Gauge is fixed by a positive vacuum component.
    from sjdyn.fockoracle import FockBasisSpec, coherent_vector

    spec = FockBasisSpec(dim=200, sector="even")

    def section(eta, w):
        v = coherent_vector(eta - w * np.conj(eta), w, spec).psi
        return v / np.linalg.norm(v)

    rng = np.random.default_rng(157)
    h = 1e-4
    for _ in range(4):
        eta = draw_complex(rng, 0.8)
        w = draw_complex(rng, 0.4)
        deta = draw_complex(rng)
        dw = draw_complex(rng)
        dpsi = (section(eta + h * deta, w + h * dw) - section(eta - h * deta, w - h * dw)) / (2 * h)
        oracle = (1j * np.vdot(section(eta, w), dpsi)).real
        got = berry_phase_rhs(FCPoint.scalar(eta, w), deta, dw, K_QUARTER)
        assert abs(got - oracle) < BERRY_FD_TOL


def test_phase_rhs_zero_coefficients():
    assert phase_rhs(zero_scalar(), FCPoint.scalar(0.1j, 0.2 + 0j), K_QUARTER) == (0, 0, 0)


def test_phase_rhs_at_origin():
    # origin is stationary for pure ε₀, so the Berry part vanishes there
    c = ComplexCoefficients(eps_a=0j, eps_0=1.3, eps_plus=0j)
    d_D, d_B, d = phase_rhs(c, FCPoint.scalar(0j, 0j), K_QUARTER)
    assert d_B == 0
    assert d == pytest.approx(-0.25 * 1.3, abs=1e-15)
    assert d_D == d


def test_phase_rhs_splits_into_dynamical_plus_berry():
    rng = np.random.default_rng(163)
    for _ in range(10):
        c = draw_scalar_coeffs(rng)
        p = FCPoint.scalar(draw_complex(rng), draw_complex(rng, 0.5))
        d_D, d_B, d = phase_rhs(c, p, K_QUARTER)
        assert d_D == pytest.approx(-energy(c, p, K_QUARTER), abs=1e-15)
        deta, dw = rhs_fc(c, p)
        assert d_B == pytest.approx(berry_phase_rhs(p, deta, dw, K_QUARTER), abs=1e-15)
        assert d == pytest.approx(d_D + d_B, abs=1e-15)


def test_phase_rhs_closed_form_decomposition():
    # −dφ = k(ε₀ + ε₋w̄ + ε₊w) + ¼(ε₋z̄² + ε₊z²) + ½(ε_a z̄ + ε̄_a z), z = η − w·η̄
    rng = np.random.default_rng(167)
    for k in (0.25, 0.75):
        for _ in range(15):
            c = draw_scalar_coeffs(rng)
            eta = draw_complex(rng)
            w = draw_complex(rng, 0.5)
            _, _, d = phase_rhs(c, FCPoint.scalar(eta, w), BargmannIndex(k))
            z = eta - w * np.conj(eta)
            zb = np.conj(z)
            want = (
                k * (c.eps_0 + c.eps_minus * np.conj(w) + c.eps_plus * w)
                + 0.25 * (c.eps_minus * zb**2 + c.eps_plus * z**2)
                + 0.5 * (c.eps_a * zb + np.conj(c.eps_a) * z)
            )
            assert abs(want.imag) < DECOMP_TOL
            assert abs(-d - want.real) < DECOMP_TOL


# --- trajectory-level invariants ------------------------------------------------


def test_fc_decoupling_scalar_trajectory():
    # η evolved on its own must track fc_inverse of the coupled (z,w) flow
    rng = np.random.default_rng(173)
    c = draw_scalar_coeffs(rng)
    p0 = FCPoint.scalar(0.3 - 0.2j, 0.25 + 0.1j)
    j0 = fc_forward(p0)

    def f_disk(_, y):
        dz, dw = rhs_disk(c, JacobiPoint.scalar(complex(y[0]), complex(y[1])))
        return np.array([dz, dw])

    def f_fc(_, y):
        deta, dw = rhs_fc(c, FCPoint.scalar(complex(y[0]), complex(y[1])))
        return np.array([deta, dw])

    y_disk = rk4(f_disk, np.array([j0.z1, j0.w1]), 0.0, 1.0, 1000)
    y_fc = rk4(f_fc, np.array([p0.eta1, p0.w1]), 0.0, 1.0, 1000)
    back = fc_inverse(JacobiPoint.scalar(complex(y_disk[0]), complex(y_disk[1])))
    assert abs(back.eta1 - y_fc[0]) < CROSS_METHOD_TOL
    assert abs(back.w1 - y_fc[1]) < CROSS_METHOD_TOL


def test_fc_decoupling_matrix_trajectory():
    rng = np.random.default_rng(179)
    n = 2
    c = draw_ball_coeffs(rng, n, scale=0.7)
    p0 = FCPoint(eta=np.array([0.2 - 0.1j, 0.1 + 0.3j]), W=draw_ball_point(rng, n, 0.3).W)
    j0 = fc_forward(p0)

    def pack(z, W):
        return np.concatenate([z, W.reshape(-1)])

    def f_ball(_, y):
        z, W = y[:n], y[n:].reshape(n, n)
        dz, dW = rhs_ball(c, JacobiPoint(z=z, W=0.5 * (W + W.T)))
        return pack(dz, dW)

    y = rk4(f_ball, pack(j0.z, j0.W.W), 0.0, 1.0, 1000)
    eta = rk4(lambda _, e: rhs_fc_ball(c, e), p0.eta, 0.0, 1.0, 1000)
    back = fc_inverse(JacobiPoint(z=y[:n], W=0.5 * (y[n:].reshape(n, n) + y[n:].reshape(n, n).T)))
    assert np.max(np.abs(back.eta - eta)) < CROSS_METHOD_TOL


def test_energy_conserved_and_disk_preserved():
    rng = np.random.default_rng(181)
    c = draw_scalar_coeffs(rng)
    p0 = FCPoint.scalar(0.4 + 0.1j, -0.2 + 0.3j)

    def f(_, y):
        deta, dw = rhs_fc(c, FCPoint.scalar(complex(y[0]), complex(y[1])))
        return np.array([deta, dw])

    _, samples = rk4_path(f, np.array([p0.eta1, p0.w1]), 0.0, 2.0, 2000, 100)
    e0 = energy(c, p0, K_QUARTER)
    for eta, w in samples:
        assert abs(w) < 1.0
        assert abs(energy(c, FCPoint.scalar(complex(eta), complex(w)), K_QUARTER) - e0) < 1e-8
