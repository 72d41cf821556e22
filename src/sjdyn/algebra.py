"""Structure constants and Hamiltonian coefficients for the Jacobi algebra.

The one-mode Jacobi algebra is spanned by the ordered basis

    (X₁, X₂, X₃, X₄, X₅, X₆) = (I, a†, a, K₊, K₀, K₋),

i.e. the Heisenberg generators extended by an su(1,1) triple, with the
brackets

    [a, a†] = I,          [K₀, K±] = ±K±,       [K₋, K₊] = 2K₀,
    [a, K₊] = a†,         [K₋, a†] = a,
    [K₀, a†] = ½a†,       [K₀, a]  = −½a,       [K₊, a†] = [K₋, a] = 0.

Hermitian Hamiltonians linear in the generators,

    H = ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε₋·K₋,    ε₀ ∈ ℝ, ε₋ = ε̄₊,

are stored as :class:`ComplexCoefficients` (scalar case) or
:class:`BallCoefficients` (matrix-valued case, n degrees of freedom, with
ε₀ hermitian and ε₊ symmetric).  Hermiticity is enforced by construction:
ε₋ is always derived, never stored.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "GeneratorIndex",
    "GeneratorVector",
    "ComplexCoefficients",
    "RealCoefficients",
    "BallCoefficients",
    "RealBallDecomposition",
    "adjoint_matrix",
    "coeffs_from_real",
    "coeffs_to_real",
    "displacement_phase",
    "ball_real_decomposition",
]

#: tolerance for the hermiticity / symmetry residuals of matrix coefficients
HERMITICITY_TOL = 1e-12


class GeneratorIndex(IntEnum):
    """Fixed 1-based labels of the ordered basis (I, a†, a, K₊, K₀, K₋)."""

    IDENTITY = 1
    A_DAG = 2
    A = 3
    K_PLUS = 4
    K_ZERO = 5
    K_MINUS = 6


# --- structure constants -------------------------------------------------
#
# _BRACKETS[i, j, :] holds the coefficients of [X_{i+1}, X_{j+1}] over the
# basis (hard-coded; entries are 0, ±1, ±1/2, ±2 only).

_BRACKETS = np.zeros((6, 6, 6))


def _set_bracket(i: int, j: int, coeffs: dict[int, float]) -> None:
    for m, c in coeffs.items():
        _BRACKETS[i - 1, j - 1, m - 1] = c
        _BRACKETS[j - 1, i - 1, m - 1] = -c


_set_bracket(3, 2, {1: 1.0})        # [a, a†] = I
_set_bracket(5, 4, {4: 1.0})        # [K₀, K₊] = K₊
_set_bracket(5, 6, {6: -1.0})       # [K₀, K₋] = −K₋
_set_bracket(6, 4, {5: 2.0})        # [K₋, K₊] = 2K₀
_set_bracket(3, 4, {2: 1.0})        # [a, K₊] = a†
_set_bracket(6, 2, {3: 1.0})        # [K₋, a†] = a
_set_bracket(5, 2, {2: 0.5})        # [K₀, a†] = ½a†
_set_bracket(5, 3, {3: -0.5})       # [K₀, a] = −½a
_BRACKETS.setflags(write=False)


def adjoint_matrix(i: GeneratorIndex | int) -> np.ndarray:
    """Matrix of ad_{X_i} in the ordered basis; column j holds [X_i, X_j]."""
    idx = int(i)
    if not 1 <= idx <= 6:
        raise ValueError(f"generator index must be in 1..6, got {i!r}")
    return _BRACKETS[idx - 1].T.astype(complex)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: ``scipy.linalg.expm``, imported on the first call.

    The only scipy routine in the package.  Only the linearizations and the
    brute-force chains take a matrix exponential, so importing sjdyn and
    integrating the equations of motion never load scipy.linalg.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@dataclass(frozen=True)
class GeneratorVector:
    """An algebra element as a coefficient 6-vector over (I, a†, a, K₊, K₀, K₋)."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (6,):
            raise ValueError(f"expected 6 coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @classmethod
    def basis(cls, i: GeneratorIndex | int) -> "GeneratorVector":
        e = np.zeros(6, dtype=complex)
        e[int(i) - 1] = 1.0
        return cls(e)

    def __getitem__(self, i: GeneratorIndex | int) -> complex:
        """Coefficient on X_i (1-based label)."""
        return complex(self.c[int(i) - 1])


# --- Hamiltonian coefficient records -------------------------------------


@dataclass(frozen=True)
class ComplexCoefficients:
    """Scalar coefficients (ε_a, ε₀, ε₊) of a hermitian linear Hamiltonian.

    ε₀ is real and ε₋ := conj(ε₊) is derived, so hermiticity cannot be
    violated by construction.  ε₋ is derived once, here: the right-hand
    sides read it at every stage point.
    """

    eps_a: complex = 0.0
    eps_0: float = 0.0
    eps_plus: complex = 0.0
    eps_minus: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_a", complex(self.eps_a))
        object.__setattr__(self, "eps_0", float(self.eps_0))
        object.__setattr__(self, "eps_plus", complex(self.eps_plus))
        for name in ("eps_a", "eps_0", "eps_plus"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "eps_minus", self.eps_plus.conjugate())

    def generator_vector(self) -> GeneratorVector:
        """Coefficients of H over (I, a†, a, K₊, K₀, K₋)."""
        return GeneratorVector(np.array(
            [0.0, self.eps_a.conjugate(), self.eps_a,
             self.eps_plus, self.eps_0, self.eps_minus], dtype=complex))

    def to_json(self) -> dict[str, float]:
        return {
            "eps_a_re": self.eps_a.real,
            "eps_a_im": self.eps_a.imag,
            "eps_0": self.eps_0,
            "eps_plus_re": self.eps_plus.real,
            "eps_plus_im": self.eps_plus.imag,
        }


@dataclass(frozen=True)
class RealCoefficients:
    """Real-basis coefficients (ν₁, ν₂, ε̃₀, ε̃₁, ε̃₂) of the same Hamiltonian.

    These multiply the real generators (N₁, N₂, K₀, K₁, K₂) with
    N₁ = a + a†, N₂ = i(a − a†), K₁ = ½(K₊+K₋), K₂ = (K₊−K₋)/(2i).
    """

    nu1: float = 0.0
    nu2: float = 0.0
    veps0: float = 0.0
    veps1: float = 0.0
    veps2: float = 0.0


def coeffs_from_real(rc: RealCoefficients) -> ComplexCoefficients:
    """ε_a = ν₁ + iν₂,  ε₀ = 2ε̃₀,  ε₊ = ε̃₁ − iε̃₂."""
    return ComplexCoefficients(
        eps_a=complex(rc.nu1, rc.nu2),
        eps_0=2.0 * rc.veps0,
        eps_plus=complex(rc.veps1, -rc.veps2),
    )


def coeffs_to_real(cc: ComplexCoefficients) -> RealCoefficients:
    """Inverse of :func:`coeffs_from_real`."""
    return RealCoefficients(
        nu1=cc.eps_a.real,
        nu2=cc.eps_a.imag,
        veps0=0.5 * cc.eps_0,
        veps1=cc.eps_plus.real,
        veps2=-cc.eps_plus.imag,
    )


def displacement_phase(a2: complex, a1: complex) -> float:
    """Composition phase θ(α₂, α₁) = Im(α₂·ᾱ₁) of two displacements,

    D(α₂)D(α₁) = e^{iθ}D(α₂+α₁).
    """
    return (complex(a2) * complex(a1).conjugate()).imag


# --- matrix-valued (ball) coefficients ------------------------------------


def _as_square(a: Any, n: int, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


@dataclass(frozen=True)
class BallCoefficients:
    """Matrix coefficients (ε, ε₀, ε₊) for n degrees of freedom.

    Hermiticity of the Hamiltonian requires ε₀ hermitian and ε₊ symmetric;
    ε₋ := ε₊† (equal to conj(ε₊) by symmetry) is derived.  The validating
    constructor rejects violations beyond :data:`HERMITICITY_TOL`.
    """

    n: int
    eps: np.ndarray
    eps0: np.ndarray
    eps_plus: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        eps = np.asarray(self.eps, dtype=complex).reshape(-1)
        if eps.shape != (n,):
            raise ValueError(f"eps must be a length-{n} vector, got shape {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps must be finite")
        eps0 = _as_square(self.eps0, n, "eps0")
        eps_plus = _as_square(self.eps_plus, n, "eps_plus")
        herm = np.max(np.abs(eps0 - eps0.conj().T)) if n else 0.0
        if herm > HERMITICITY_TOL:
            raise ValueError(f"eps0 not hermitian: residual {herm:.3e}")
        sym = np.max(np.abs(eps_plus - eps_plus.T))
        if sym > HERMITICITY_TOL:
            raise ValueError(f"eps_plus not symmetric: residual {sym:.3e}")
        for arr in (eps, eps0, eps_plus):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps0", eps0)
        object.__setattr__(self, "eps_plus", eps_plus)

    @property
    def eps_minus(self) -> np.ndarray:
        """ε₋ = ε₊† (symmetric for valid input)."""
        return self.eps_plus.conj().T

    @classmethod
    def from_scalar(cls, cc: ComplexCoefficients) -> "BallCoefficients":
        return cls(
            n=1,
            eps=np.array([cc.eps_a]),
            eps0=np.array([[cc.eps_0]]),
            eps_plus=np.array([[cc.eps_plus]]),
        )

    def to_scalar(self) -> ComplexCoefficients:
        if self.n != 1:
            raise ValueError(f"to_scalar requires n=1, got n={self.n}")
        return ComplexCoefficients(
            eps_a=complex(self.eps[0]),
            eps_0=float(self.eps0[0, 0].real),
            eps_plus=complex(self.eps_plus[0, 0]),
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "eps": _vector_to_json(self.eps),
            "eps0": _matrix_to_json(self.eps0),
            "eps_plus": _matrix_to_json(self.eps_plus),
        }


@dataclass(frozen=True)
class RealBallDecomposition:
    """Real/imaginary split ε₋ = m + i·n_, ε₀ᵗ/2 = p + i·q.

    For valid coefficients m, n_, p are symmetric and q is antisymmetric.
    """

    m: np.ndarray
    n_: np.ndarray
    p: np.ndarray
    q: np.ndarray


def ball_real_decomposition(bc: BallCoefficients) -> RealBallDecomposition:
    """Split ε₋ and ε₀ᵗ/2 into real matrices (m, n_, p, q)."""
    eps_minus = bc.eps_minus
    half_eps0_t = 0.5 * bc.eps0.T
    return RealBallDecomposition(
        m=eps_minus.real.copy(),
        n_=eps_minus.imag.copy(),
        p=half_eps0_t.real.copy(),
        q=half_eps0_t.imag.copy(),
    )


# --- JSON output (complex entries as [re, im] pairs, matrices row-major) ---
# configs are parsed, strictly and with field paths, by the runner


def _vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [_vector_to_json(row) for row in np.asarray(m, dtype=complex)]

