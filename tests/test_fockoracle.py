"""Truncated number-basis oracle: generator matrices, coherent vectors, propagation.

Truncation corrupts the top of the ladder, so operator identities are asserted
on masked blocks and factorization identities on low-occupation vectors; see
the matrix-level composition counterexample in test_displacement_composition.
The closed-form coherent vectors are held to the dense D(α)·S(w) built by
eigendecomposition, in both parity sectors.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from sjdyn import algebra, berezin, fockoracle, runner, weinorman
from sjdyn.algebra import ComplexCoefficients, displacement_phase
from sjdyn.geometry import BargmannIndex, JacobiPoint, overlap_log
from sjdyn.fockoracle import (
    FockBasisSpec,
    StateVector,
    TruncationError,
    build_generators,
    chart_state_vector,
    coherent_vector,
    cyclic_vector,
    displacement_matrix,
    expectation,
    hamiltonian_matrix,
    propagate,
    squeeze_matrix,
)
from sjdyn.runner import solution_fidelity
from sjdyn.weinorman import RealState
from conftest import draw_complex, draw_scalar_coeffs, rk4

MASKED_TOL = 1e-12
UNITARITY_TOL = 1e-12
VECTOR_TOL = 1e-8

EVEN60 = FockBasisSpec(dim=60, sector="even")
EVEN200 = FockBasisSpec(dim=200, sector="even")


def _comm(A, B):
    return A @ B - B @ A


def _masked(R, levels):
    return np.max(np.abs(R[:levels, :levels]))


# --- basis spec and generators --------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="dim"):
        FockBasisSpec(dim=1, sector="even")
    with pytest.raises(ValueError, match="sector"):
        FockBasisSpec(dim=10, sector="mixed")


def test_spec_sector_labels():
    even = FockBasisSpec(dim=10, sector="even")
    odd = FockBasisSpec(dim=10, sector="odd")
    assert even.k == BargmannIndex(0.25) and even.cyclic_index == 0
    assert odd.k == BargmannIndex(0.75) and odd.cyclic_index == 1


def test_annihilator_smallest_truncation():
    ops = build_generators(FockBasisSpec(dim=2, sector="even"))
    assert np.array_equal(ops.a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_ladder_weights():
    ops = build_generators(FockBasisSpec(dim=5, sector="even"))
    for m in range(1, 5):
        assert ops.a[m - 1, m] == pytest.approx(np.sqrt(m), abs=1e-15)
    assert np.array_equal(ops.adag, ops.a.conj().T)


def test_operator_set_invariants():
    ops = build_generators(EVEN60)
    assert np.array_equal(ops.adag, ops.a.conj().T)
    assert np.array_equal(ops.Km, ops.Kp.conj().T)
    assert np.max(np.abs(ops.K0 - ops.K0.conj().T)) == 0
    assert np.array_equal(ops.Id, np.eye(60))
    # one-mode realization used throughout
    assert np.allclose(ops.Kp, 0.5 * ops.adag @ ops.adag, atol=1e-15, rtol=0)
    assert np.allclose(ops.K0, 0.25 * (2 * ops.adag @ ops.a + ops.Id), atol=1e-15, rtol=0)


def _generators_by_matmul(dim):
    # the products that define the one-mode K's, as a dense reference
    a = np.zeros((dim, dim), dtype=complex)
    for m in range(1, dim):
        a[m - 1, m] = np.sqrt(m)
    adag = a.conj().T
    return {
        "a": a,
        "adag": adag,
        "Kp": 0.5 * (adag @ adag),
        "Km": 0.5 * (a @ a),
        "K0": 0.25 * (2.0 * (adag @ a) + np.eye(dim)),
        "Id": np.eye(dim, dtype=complex),
    }


@pytest.mark.parametrize("dim", [2, 60, 250])
def test_generators_equal_the_matmul_construction(dim):
    spec = FockBasisSpec(dim=dim, sector="even")
    ops = build_generators(spec)
    for name, want in _generators_by_matmul(dim).items():
        assert np.array_equal(getattr(ops, name), want), name
    # so the Hamiltonian, and every diagonalization of it, is unchanged bit for bit
    c = ComplexCoefficients(eps_a=0.3 - 0.1j, eps_0=0.8, eps_plus=0.2 + 0.4j)
    ref = _generators_by_matmul(dim)
    H = c.eps_a * ref["a"] + c.eps_a.conjugate() * ref["adag"] + c.eps_0 * ref["K0"]
    H = H + c.eps_plus * ref["Kp"] + c.eps_minus * ref["Km"]
    assert hamiltonian_matrix(c, spec).tobytes() == np.ascontiguousarray(H).tobytes()


def test_bracket_table_masked():
    # products leak into the top two levels; mask them off and demand exactness
    ops = build_generators(EVEN60)
    lo = 58
    table = [
        (_comm(ops.a, ops.adag), ops.Id),
        (_comm(ops.K0, ops.Kp), ops.Kp),
        (_comm(ops.K0, ops.Km), -ops.Km),
        (_comm(ops.Km, ops.Kp), 2 * ops.K0),
        (_comm(ops.a, ops.Kp), ops.adag),
        (_comm(ops.Km, ops.adag), ops.a),
        (_comm(ops.Kp, ops.adag), np.zeros((60, 60))),
        (_comm(ops.Km, ops.a), np.zeros((60, 60))),
        (_comm(ops.K0, ops.adag), 0.5 * ops.adag),
        (_comm(ops.K0, ops.a), -0.5 * ops.a),
    ]
    for got, want in table:
        assert _masked(got - want, lo) < MASKED_TOL


def test_casimir_is_scalar_in_both_sectors():
    # K₀² − ½(K₊K₋+K₋K₊) = k(k−1)·Id with k(k−1) = −3/16 for k=¼ and k=¾ alike
    for sector in ("even", "odd"):
        ops = build_generators(FockBasisSpec(dim=60, sector=sector))
        C = ops.K0 @ ops.K0 - 0.5 * (ops.Kp @ ops.Km + ops.Km @ ops.Kp)
        assert _masked(C + (3 / 16) * ops.Id, 56) < MASKED_TOL


def test_cyclic_vector_occupation():
    even = cyclic_vector(FockBasisSpec(dim=10, sector="even")).psi
    odd = cyclic_vector(FockBasisSpec(dim=10, sector="odd")).psi
    assert even[0] == 1 and not even[1:].any()
    assert odd[1] == 1 and odd[0] == 0 and not odd[2:].any()


# --- coherent vectors -----------------------------------------------------------


def test_coherent_vector_vacuum():
    v = coherent_vector(0j, 0j, EVEN60).psi
    assert v[0] == 1 and not v[1:].any()


def test_coherent_vector_norm_matches_overlap_log():
    rng = np.random.default_rng(11)
    for _ in range(6):
        z = draw_complex(rng, 1.0)
        w = draw_complex(rng, 0.5)
        got = coherent_vector(z, w, EVEN200).norm ** 2
        want = np.exp(overlap_log(JacobiPoint.scalar(z, w), BargmannIndex(0.25)))
        assert got == pytest.approx(want, rel=VECTOR_TOL)


def test_coherent_vector_factorization():
    # D(η)S(w)|0⟩ = (1−|w|²)^{1/4}·e^{−η̄z/2}·e_{z,w} with z = η − w·η̄
    rng = np.random.default_rng(13)
    vac = cyclic_vector(EVEN200).psi
    for _ in range(4):
        eta = draw_complex(rng, 0.8)
        w = draw_complex(rng, 0.4)
        z = eta - w * np.conj(eta)
        lhs = displacement_matrix(eta, EVEN200) @ squeeze_matrix(w, EVEN200) @ vac
        rhs = (
            (1 - abs(w) ** 2) ** 0.25
            * np.exp(-0.5 * np.conj(eta) * z)
            * coherent_vector(z, w, EVEN200).psi
        )
        assert np.max(np.abs(lhs - rhs)) < VECTOR_TOL


def _draw_alpha_w(rng):
    alpha = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    w = 0.4 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    return complex(alpha), complex(w)


@pytest.mark.parametrize("dim, bound", [(60, 1e-10), (120, 1e-12), (240, 1e-12)])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_closed_form_matches_dense_displaced_squeezed_state(dim, bound, sector):
    # at dim 60 the dense route's own truncation is the less exact of the two
    spec = FockBasisSpec(dim=dim, sector=sector)
    even = FockBasisSpec(dim=dim, sector="even")
    rng = np.random.default_rng(31)
    for _ in range(4):
        alpha, w = _draw_alpha_w(rng)
        dense = displacement_matrix(alpha, spec) @ squeeze_matrix(w, spec) @ cyclic_vector(spec).psi
        assert np.max(np.abs(chart_state_vector(alpha, w, 0.0, spec).psi - dense)) <= bound
        # D(α)S(w)|k⟩ = (1−|w|²)^k·e^{−ᾱz/2}·e_{z,w} (even), ·(a† − ᾱ)·e_{z,w} (odd)
        z = alpha - w * np.conj(alpha)
        lead = (1 - abs(w) ** 2) ** spec.k.k * np.exp(-0.5 * np.conj(alpha) * z)
        closed = coherent_vector(z, w, spec).psi
        if sector == "odd":
            closed = closed - np.conj(alpha) * coherent_vector(z, w, even).psi
        assert np.max(np.abs(lead * closed - dense)) <= bound


def test_closed_form_coherent_states_build_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix work in a closed-form coherent state")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(fockoracle, "build_generators", refuse)
    for sector in ("even", "odd"):
        spec = FockBasisSpec(dim=240, sector=sector)
        chart_state_vector(0.3 + 0.1j, 0.2j, 0.7, spec)
        coherent_vector(0.3 + 0.1j, 0.2j, spec)


def test_chart_state_vector_far_out_is_truncation_error():
    # e^{−|α|²/2} underflows to zero: the state does not fit 60 levels
    with pytest.raises(TruncationError, match="zero vector"):
        chart_state_vector(40.0, 0.0, 0.0, EVEN60)


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize(
    "alpha, w", [(complex("nan"), 0.1j), (complex(0.0, np.nan), 0j), (0.2, complex("nan")), (0.2, complex(0.1, np.inf))]
)
def test_nonfinite_point_raises_and_returns_no_vector(sector, alpha, w):
    spec = FockBasisSpec(dim=60, sector=sector)
    with pytest.raises((ValueError, TruncationError)):
        chart_state_vector(alpha, w, 0.0, spec)
    with pytest.raises((ValueError, TruncationError)):
        coherent_vector(alpha, w, spec)


def test_squeeze_matrix_rejects_nonfinite_w():
    for w in (complex("nan"), complex(0.1, np.inf)):
        with pytest.raises(ValueError, match="must be < 1"):
            squeeze_matrix(w, EVEN60)


def test_tail_guard_rejects_nonfinite_amplitudes():
    psi = np.zeros(30, complex)
    psi[0] = 1.0
    for bad in (np.nan, np.inf):
        psi[3] = bad
        with pytest.raises(TruncationError, match="non-finite"):
            fockoracle._check_tail(psi, "test")
    with pytest.raises(TruncationError, match="non-finite"):
        coherent_vector(1e200, 0.5, FockBasisSpec(dim=30, sector="even"))


def test_coherent_vector_truncation_guard():
    with pytest.raises(TruncationError, match="tail"):
        coherent_vector(0j, 0.9 + 0j, FockBasisSpec(dim=30, sector="even"))


def test_coherent_vector_rejects_boundary():
    with pytest.raises(ValueError, match=r"\|w\|"):
        coherent_vector(0j, 1.0 + 0j, EVEN200)


# --- group element matrices -----------------------------------------------------


def test_displacement_and_squeeze_unitary():
    rng = np.random.default_rng(17)
    eye = np.eye(120)
    spec = FockBasisSpec(dim=120, sector="even")
    for _ in range(3):
        D = displacement_matrix(draw_complex(rng, 0.8), spec)
        S = squeeze_matrix(draw_complex(rng, 0.4), spec)
        assert np.max(np.abs(D.conj().T @ D - eye)) < UNITARITY_TOL
        assert np.max(np.abs(S.conj().T @ S - eye)) < UNITARITY_TOL


def test_displacement_composition():
    # D(α₂)D(α₁) = e^{iθ(α₂,α₁)}·D(α₂+α₁) — checked on low-occupation vectors;
    # as a full matrix identity the truncated top rows disagree by O(1)
    rng = np.random.default_rng(19)
    spec = FockBasisSpec(dim=120, sector="even")
    for _ in range(3):
        a2, a1 = draw_complex(rng, 0.6), draw_complex(rng, 0.6)
        lhs = displacement_matrix(a2, spec) @ displacement_matrix(a1, spec)
        rhs = np.exp(1j * displacement_phase(a2, a1)) * displacement_matrix(a2 + a1, spec)
        for idx in (0, 1, 3):
            e = np.zeros(120, complex)
            e[idx] = 1
            assert np.max(np.abs(lhs @ e - rhs @ e)) < VECTOR_TOL


def test_chart_state_vector_composition_and_phase():
    spec = EVEN200
    alpha, w = 0.3 + 0.1j, 0.2j
    base = chart_state_vector(alpha, w, 0.0, spec).psi
    want = displacement_matrix(alpha, spec) @ squeeze_matrix(w, spec) @ cyclic_vector(spec).psi
    assert np.max(np.abs(base - want)) < 1e-12
    shifted = chart_state_vector(alpha, w, 0.7, spec).psi
    assert np.max(np.abs(shifted - np.exp(-0.7j) * base)) < 1e-12
    assert StateVector(base).norm == pytest.approx(1.0, abs=1e-12)


# --- Hamiltonian and propagation ------------------------------------------------


def test_hamiltonian_matrix_zero():
    assert not hamiltonian_matrix(ComplexCoefficients(0j, 0.0, 0j), EVEN60).any()


def test_hamiltonian_matrix_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(5):
        H = hamiltonian_matrix(draw_scalar_coeffs(rng), EVEN60)
        assert np.max(np.abs(H - H.conj().T)) < 1e-14


def test_hamiltonian_vacuum_expectation():
    c = ComplexCoefficients(eps_a=0.4 - 0.3j, eps_0=1.9, eps_plus=0.2 + 0.5j)
    H = hamiltonian_matrix(c, EVEN60)
    assert H[0, 0] == pytest.approx(0.25 * 1.9, abs=1e-15)


def test_propagate_zero_time_and_zero_hamiltonian():
    spec = FockBasisSpec(dim=100, sector="even")
    c = ComplexCoefficients(eps_a=0.4 - 0.3j, eps_0=0.8, eps_plus=0.2 + 0.5j)
    psi0 = coherent_vector(0.3 + 0.2j, 0.1 - 0.2j, spec)
    H = hamiltonian_matrix(c, spec)
    assert np.max(np.abs(propagate(psi0, H, 0.0).psi - psi0.psi)) < 1e-14
    out = propagate(psi0, np.zeros((100, 100)), 2.0)
    assert np.array_equal(out.psi, psi0.psi)


def test_propagate_rk4_matches_exponential():
    spec = FockBasisSpec(dim=100, sector="even")
    c = ComplexCoefficients(eps_a=0.4 - 0.3j, eps_0=0.8, eps_plus=0.2 + 0.5j)
    psi0 = coherent_vector(0.3 + 0.2j, 0.1 - 0.2j, spec)
    H = hamiltonian_matrix(c, spec)
    direct = propagate(psi0, H, 1.0)
    stepped = rk4(lambda _, psi: -1j * (H @ psi), psi0.psi, 0.0, 1.0, 2000)
    assert np.max(np.abs(direct.psi - stepped)) < VECTOR_TOL


def test_propagate_argument_validation():
    psi0 = cyclic_vector(EVEN60)
    H = np.zeros((60, 60), dtype=complex)
    H[0, 1] = 1.0
    with pytest.raises(ValueError, match="hermitian"):
        propagate(psi0, H, 1.0)
    # diagonalization is the only method: no step count is accepted
    with pytest.raises(TypeError):
        propagate(psi0, H + H.conj().T, 1.0, steps=3)


def test_expectation_normalizes():
    psi = StateVector(np.array([0, 2.0], complex))
    assert expectation(psi, np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


# --- fidelity against the coherent-state solution --------------------------------


def test_fidelity_free_evolution():
    fidelity, phase = solution_fidelity(
        ComplexCoefficients(0j, 0.0, 0j), RealState(0.2, -0.1, 0.1, 0.15), 1.0, EVEN200
    )
    assert fidelity == pytest.approx(1.0, abs=1e-12)
    assert phase <= 1e-12


def test_fidelity_short_horizon():
    rng = np.random.default_rng(29)
    c = draw_scalar_coeffs(rng)
    fidelity, phase = solution_fidelity(c, RealState(0.2, -0.1, 0.1, 0.15), 0.1, EVEN200)
    assert fidelity >= 1 - 1e-8
    assert phase <= 1e-6


def test_fidelity_reports_a_phase_error_that_fidelity_misses(monkeypatch):
    # φ off by 0.3 rad at t = 1 leaves |overlap| at 1; only the phase sees it
    real = runner.wn_phase_rhs
    monkeypatch.setattr(runner, "wn_phase_rhs", lambda rc, s, k: real(rc, s, k) + 0.3)
    c = ComplexCoefficients(eps_a=0.3 - 0.1j, eps_0=0.8, eps_plus=0.2 + 0.4j)
    fidelity, phase = solution_fidelity(c, RealState(0.2, -0.1, 0.1, 0.15), 1.0, FockBasisSpec(dim=80))
    assert fidelity >= 1 - 1e-12
    assert phase == pytest.approx(0.3, abs=1e-9)


def test_fidelity_requires_even_sector():
    with pytest.raises(ValueError, match="even"):
        solution_fidelity(
            ComplexCoefficients(0j, 0.0, 0j),
            RealState(0.0, 0.0, 0.0, 0.0),
            0.1,
            FockBasisSpec(dim=200, sector="odd"),
        )


# --- independence -------------------------------------------------------------------


def test_oracle_imports_none_of_the_equations_it_checks():
    # the brute-force layer shares no code path with the lanes it checks
    tree = ast.parse(Path(fockoracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert "algebra" in names  # the scan sees the module's relative imports
    assert not names & {"weinorman", "berezin", "runner"}


def _import_time_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports a module runs when it is imported."""
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a function body runs when called, not at import
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_at_import_time():
    # scipy.linalg costs more than the rest of the import; only algebra.expm
    # loads it, on its first call, and every caller goes through that one function
    package = Path(fockoracle.__file__).parent
    scans = {path.name: _import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert "numpy" in scans["runner.py"]  # the scan sees each module's imports
    assert [name for name, mods in scans.items() if "scipy" in mods] == []
    assert _import_time_modules(ast.parse("def f():\n    import scipy\n")) == set()
    assert _import_time_modules(ast.parse("try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n")) == {"scipy"}
    assert runner.expm is berezin.expm is weinorman.expm is algebra.expm
