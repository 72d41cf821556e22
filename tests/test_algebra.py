import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from sjdyn.algebra import (
    BallCoefficients,
    ComplexCoefficients,
    GeneratorIndex,
    GeneratorVector,
    RealCoefficients,
    adjoint_matrix,
    ball_real_decomposition,
    coeffs_from_real,
    coeffs_to_real,
    displacement_phase,
)
from sjdyn.runner import _parse_coefficients
from conftest import draw_ball_coeffs, draw_complex

EXACT = 0.0
MACHINE = 1e-15

# every nonzero bracket of the algebra, as ([X_i, X_j], {basis index: coefficient})
BRACKET_TABLE = {
    (3, 2): {1: 1.0},      # [a, a†] = I
    (5, 4): {4: 1.0},      # [K₀, K₊] = K₊
    (5, 6): {6: -1.0},     # [K₀, K₋] = −K₋
    (6, 4): {5: 2.0},      # [K₋, K₊] = 2K₀
    (3, 4): {2: 1.0},      # [a, K₊] = a†
    (6, 2): {3: 1.0},      # [K₋, a†] = a
    (5, 2): {2: 0.5},      # [K₀, a†] = ½a†
    (5, 3): {3: -0.5},     # [K₀, a] = −½a
}


def bracket_vector(i, j):
    """[X_i, X_j] as a length-6 coefficient vector, from the adjoint matrices."""
    e = np.zeros(6, dtype=complex)
    e[j - 1] = 1.0
    return adjoint_matrix(i) @ e


def test_generator_ordering():
    assert [g.value for g in GeneratorIndex] == [1, 2, 3, 4, 5, 6]
    assert GeneratorIndex.IDENTITY == 1
    assert GeneratorIndex.A_DAG == 2
    assert GeneratorIndex.A == 3
    assert GeneratorIndex.K_PLUS == 4
    assert GeneratorIndex.K_ZERO == 5
    assert GeneratorIndex.K_MINUS == 6


def test_adjoint_reproduces_every_bracket_exactly():
    expected = np.zeros((6, 6, 6))
    for (i, j), coeffs in BRACKET_TABLE.items():
        for m, c in coeffs.items():
            expected[i - 1, j - 1, m - 1] = c
            expected[j - 1, i - 1, m - 1] = -c
    for i in range(1, 7):
        for j in range(1, 7):
            got = bracket_vector(i, j)
            assert np.array_equal(got, expected[i - 1, j - 1].astype(complex)), (i, j)


def test_identity_is_central():
    assert np.array_equal(adjoint_matrix(1), np.zeros((6, 6), dtype=complex))


def test_k0_brackets_with_oscillator_pair():
    # [K₀, a†] = ½a†, [K₀, a] = −½a
    v = bracket_vector(5, 2)
    assert v[1] == 0.5 and np.count_nonzero(v) == 1
    v = bracket_vector(5, 3)
    assert v[2] == -0.5 and np.count_nonzero(v) == 1


def test_a_with_kplus_gives_adag():
    v = bracket_vector(3, 4)
    assert v[1] == 1.0 and np.count_nonzero(v) == 1


def test_jacobi_identity():
    """Equivalent homomorphism form: ad_[Xi,Xj] = ad_i·ad_j − ad_j·ad_i."""
    ad = [adjoint_matrix(i) for i in range(1, 7)]
    for i in range(6):
        for j in range(6):
            cij = ad[i][:, j]
            lhs = sum(cij[m] * ad[m] for m in range(6))
            rhs = ad[i] @ ad[j] - ad[j] @ ad[i]
            assert np.max(np.abs(lhs - rhs)) < 1e-14, (i, j)


def test_adjoint_matrix_rejects_bad_index():
    with pytest.raises(ValueError):
        adjoint_matrix(0)
    with pytest.raises(ValueError):
        adjoint_matrix(7)


# --- coefficient conversions -------------------------------------------------


def test_coeffs_from_real_zero():
    cc = coeffs_from_real(RealCoefficients(0, 0, 0, 0, 0))
    assert cc.eps_a == 0 and cc.eps_0 == 0 and cc.eps_plus == 0


def test_coeffs_from_real_oscillator_only():
    cc = coeffs_from_real(RealCoefficients(1, 0, 0, 0, 0))
    assert cc.eps_a == 1 and cc.eps_0 == 0 and cc.eps_plus == 0


def test_coeffs_from_real_su11_block():
    cc = coeffs_from_real(RealCoefficients(0, 0, 1, 1, 1))
    assert cc.eps_a == 0
    assert cc.eps_0 == 2.0
    assert cc.eps_plus == 1.0 - 1.0j


def test_coeffs_to_real_zero():
    rc = coeffs_to_real(ComplexCoefficients(0j, 0.0, 0j))
    assert (rc.nu1, rc.nu2, rc.veps0, rc.veps1, rc.veps2) == (0, 0, 0, 0, 0)


def test_coeffs_to_real_pinned_values():
    rc = coeffs_to_real(ComplexCoefficients(eps_a=1 + 0j, eps_0=0.0, eps_plus=0j))
    assert rc.nu1 == 1.0 and rc.nu2 == 0.0
    rc = coeffs_to_real(ComplexCoefficients(eps_a=0j, eps_0=0.0, eps_plus=-1j))
    assert rc.veps1 == 0.0 and rc.veps2 == 1.0


@seed(17)
@given(
    vals=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=5, max_size=5
    )
)
def test_real_complex_round_trip(vals):
    rc = RealCoefficients(*vals)
    back = coeffs_to_real(coeffs_from_real(rc))
    for name in ("nu1", "nu2", "veps0", "veps1", "veps2"):
        assert getattr(back, name) == pytest.approx(getattr(rc, name), abs=1e-15)


def test_eps_minus_is_conjugate():
    cc = ComplexCoefficients(eps_a=0.3 - 0.1j, eps_0=0.7, eps_plus=0.2 + 0.5j)
    assert cc.eps_minus == cc.eps_plus.conjugate()


def test_generator_vector_layout():
    # H = ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε₋·K₋ over (I, a†, a, K₊, K₀, K₋)
    cc = ComplexCoefficients(eps_a=0.3 - 0.1j, eps_0=0.7, eps_plus=0.2 + 0.5j)
    g = cc.generator_vector()
    assert g[1] == 0
    assert g[2] == cc.eps_a.conjugate()
    assert g[3] == cc.eps_a
    assert g[4] == cc.eps_plus
    assert g[5] == cc.eps_0
    assert g[6] == cc.eps_minus


def test_generator_vector_validation():
    with pytest.raises(ValueError):
        GeneratorVector(np.array([np.nan, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        GeneratorVector(np.zeros(5))
    v = GeneratorVector.basis(2)
    assert v[2] == 1.0 and sum(abs(v[i]) for i in range(1, 7)) == 1.0
    with pytest.raises((ValueError, TypeError)):
        v.c[0] = 1.0  # frozen storage


def test_complex_coefficients_json_round_trip():
    cc = ComplexCoefficients(eps_a=0.3 - 0.1j, eps_0=0.7, eps_plus=0.2 + 0.5j)
    obj = cc.to_json()
    assert set(obj) == {"eps_a_re", "eps_a_im", "eps_0", "eps_plus_re", "eps_plus_im"}
    back = _parse_coefficients(obj, "c")
    assert back == cc


# --- displacement composition phase -------------------------------------------


def test_displacement_phase_zero_first_argument():
    assert displacement_phase(0, 0.3 + 0.7j) == 0.0


def test_displacement_phase_quarter_turn():
    # Im(i·conj(1)) = 1
    assert displacement_phase(1j, 1) == pytest.approx(1.0, abs=1e-15)


@seed(3)
@given(
    re1=st.floats(-5, 5), im1=st.floats(-5, 5),
    re2=st.floats(-5, 5), im2=st.floats(-5, 5),
)
def test_displacement_phase_antisymmetry(re1, im1, re2, im2):
    a = complex(re1, im1)
    b = complex(re2, im2)
    assert displacement_phase(a, b) == pytest.approx(-displacement_phase(b, a), abs=1e-12)


# --- matrix (ball) coefficients -----------------------------------------------


def test_ball_decomposition_zero():
    bc = BallCoefficients(n=2, eps=np.zeros(2), eps0=np.zeros((2, 2)), eps_plus=np.zeros((2, 2)))
    d = ball_real_decomposition(bc)
    for M in (d.m, d.n_, d.p, d.q):
        assert np.array_equal(M, np.zeros((2, 2)))


def test_ball_decomposition_scalar_case():
    # ε₋ = 3+4i (so ε₊ = 3−4i), ε₀ = 2  →  m=3, n_=4, p=1, q=0
    bc = BallCoefficients(
        n=1, eps=np.zeros(1), eps0=np.array([[2.0]]), eps_plus=np.array([[3.0 - 4.0j]])
    )
    d = ball_real_decomposition(bc)
    assert d.m[0, 0] == pytest.approx(3.0)
    assert d.n_[0, 0] == pytest.approx(4.0)
    assert d.p[0, 0] == pytest.approx(1.0)
    assert d.q[0, 0] == pytest.approx(0.0)


def test_ball_decomposition_symmetries():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        bc = draw_ball_coeffs(rng, n)
        d = ball_real_decomposition(bc)
        assert np.max(np.abs(d.m - d.m.T)) < 1e-14
        assert np.max(np.abs(d.n_ - d.n_.T)) < 1e-14
        assert np.max(np.abs(d.p - d.p.T)) < 1e-14
        assert np.max(np.abs(d.q + d.q.T)) < 1e-14
        # reassembly: ε₋ = m + i·n_ and ε₀ᵗ/2 = p + i·q
        np.testing.assert_allclose(d.m + 1j * d.n_, bc.eps_minus, atol=1e-14)
        np.testing.assert_allclose(d.p + 1j * d.q, 0.5 * bc.eps0.T, atol=1e-14)


def test_ball_coefficients_reject_nonhermitian_eps0():
    with pytest.raises(ValueError):
        BallCoefficients(
            n=2,
            eps=np.zeros(2),
            eps0=np.array([[0.0, 1.0], [0.0, 0.0]]),
            eps_plus=np.zeros((2, 2)),
        )


def test_ball_coefficients_reject_asymmetric_eps_plus():
    with pytest.raises(ValueError):
        BallCoefficients(
            n=2,
            eps=np.zeros(2),
            eps0=np.zeros((2, 2)),
            eps_plus=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        )


def test_ball_scalar_round_trip():
    rng = np.random.default_rng(5)
    cc = ComplexCoefficients(
        eps_a=draw_complex(rng), eps_0=rng.uniform(-1, 1), eps_plus=draw_complex(rng)
    )
    back = BallCoefficients.from_scalar(cc).to_scalar()
    assert back.eps_a == pytest.approx(cc.eps_a)
    assert back.eps_0 == pytest.approx(cc.eps_0)
    assert back.eps_plus == pytest.approx(cc.eps_plus)


def test_ball_coefficients_json_round_trip():
    rng = np.random.default_rng(7)
    bc = draw_ball_coeffs(rng, 2)
    back = _parse_coefficients(bc.to_json(), "c")
    np.testing.assert_allclose(back.eps, bc.eps, atol=1e-15)
    np.testing.assert_allclose(back.eps0, bc.eps0, atol=1e-15)
    np.testing.assert_allclose(back.eps_plus, bc.eps_plus, atol=1e-15)
