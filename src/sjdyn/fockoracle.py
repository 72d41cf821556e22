"""Truncated Fock-space oracle: dense matrices, states, direct propagation.

The direct propagation is brute force on purpose.  The six generators are
explicit dim×dim matrices in the number basis, with the su(1,1) triple
realized on a single bosonic mode:

    K₊ = ½(a†)²,   K₋ = ½a²,   K₀ = ¼(2a†a + 1).

The realization splits into parity sectors with lowest K₀ eigenvalue
k = ¼ (even, cyclic vector |0⟩) or k = ¾ (odd, cyclic vector |1⟩).  The
closed-form machinery elsewhere in the package is checked against direct
Schrödinger integration: each Hamiltonian is diagonalized densely, and
:func:`propagator` is that diagonalization, made once per Hamiltonian and
applied at any number of times, and nothing else.  This module imports none
of the equations of motion it checks (no ``weinorman``, ``berezin`` or
``runner``); the cross-check itself, with its fidelity and phase, is the
runner's ``fock-oracle`` method (``runner.solution_fidelity``).

The coherent states themselves come from their closed form, not from dense
matrix exponentials.  exp(z·a† + w·K₊)|0⟩ has number-basis amplitudes

    ψ₀ = 1,   ψ_{m+1} = (z·ψ_m + √m·w·ψ_{m−1}) / √(m+1),

an O(dim) three-term recurrence (Perelomov, *Generalized Coherent States*,
1986), and D(α)S(w)|0⟩ = (1−|w|²)^{1/4}·e^{−ᾱz/2}·exp(z·a† + w·K₊)|0⟩ with
z = α − w·ᾱ.  The dense D(α) and S(w) of :func:`displacement_matrix` and
:func:`squeeze_matrix` stay as the reference that the tests hold the closed
form to.

Truncation policy: any operation whose result would leak into the top of the
basis refuses (raises :class:`TruncationError`) rather than silently
truncating.  Squeezing populates high levels fast; never trust a truncated
tail.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ComplexCoefficients
from .geometry import BargmannIndex

__all__ = [
    "TAIL_LEVELS",
    "TAIL_MASS_MAX",
    "FockBasisSpec",
    "OperatorSet",
    "StateVector",
    "TruncationError",
    "build_generators",
    "cyclic_vector",
    "coherent_vector",
    "displacement_matrix",
    "squeeze_matrix",
    "chart_state_vector",
    "hamiltonian_matrix",
    "propagate",
    "propagator",
    "expectation",
]

#: size of the top-of-basis window used for truncation adequacy
TAIL_LEVELS = 10
#: maximum tail mass relative to total mass
TAIL_MASS_MAX = 1e-10


class TruncationError(RuntimeError):
    """The truncated basis cannot represent this state adequately."""


@dataclass(frozen=True)
class FockBasisSpec:
    """Truncated number basis |0⟩..|dim−1⟩ with a parity sector selection.

    sector "even" uses cyclic vector |0⟩ (k = ¼), "odd" uses |1⟩ (k = ¾);
    the odd sector is meaningful for the su(1,1) part only.
    """

    dim: int
    sector: str = "even"

    def __post_init__(self) -> None:
        dim = int(self.dim)
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if self.sector not in ("even", "odd"):
            raise ValueError(f"sector must be 'even' or 'odd', got {self.sector!r}")
        object.__setattr__(self, "dim", dim)

    @property
    def k(self) -> BargmannIndex:
        return BargmannIndex(0.25 if self.sector == "even" else 0.75)

    @property
    def cyclic_index(self) -> int:
        return 0 if self.sector == "even" else 1


@dataclass(frozen=True)
class OperatorSet:
    """The six generator matrices; adag = a†, Km = K₊†, K0 hermitian."""

    a: np.ndarray
    adag: np.ndarray
    K0: np.ndarray
    Kp: np.ndarray
    Km: np.ndarray
    Id: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class StateVector:
    """A (generally unnormalized) vector of number-basis amplitudes."""

    psi: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        if psi.size < 2:
            raise ValueError("state must have at least 2 amplitudes")
        if not np.all(np.isfinite(psi)):
            raise ValueError("amplitudes must be finite")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))

    def normalized(self) -> "StateVector":
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.psi / nrm)


# --- generators and states ------------------------------------------------------


def build_generators(spec: FockBasisSpec) -> OperatorSet:
    """Number-basis matrices with a|m⟩ = √m|m−1⟩ and the one-mode K's.

    Each matrix is set on its one nonzero diagonal, with the entries the
    products a†a†, aa and a†a would give (K₀'s diagonal is ¼(2·√m·√m + 1),
    not ¼(2m + 1)).  Truncation corrupts only the top two levels of each
    bracket; every commutator check must mask those rows/columns.
    """
    dim = spec.dim
    root = np.sqrt(np.arange(dim, dtype=float))
    pair = 0.5 * (root[2:] * root[1:-1])
    return OperatorSet(
        a=np.diag(root[1:], 1).astype(complex),
        adag=np.diag(root[1:], -1).astype(complex),
        K0=np.diag(0.25 * (2.0 * (root * root) + 1.0)).astype(complex),
        Kp=np.diag(pair, -2).astype(complex),
        Km=np.diag(pair, 2).astype(complex),
        Id=np.eye(dim, dtype=complex),
    )


def cyclic_vector(spec: FockBasisSpec) -> StateVector:
    """|0⟩ for the even sector, |1⟩ for the odd one."""
    psi = np.zeros(spec.dim, dtype=complex)
    psi[spec.cyclic_index] = 1.0
    return StateVector(psi)


def _check_tail(psi: np.ndarray, what: str) -> None:
    total = float(np.vdot(psi, psi).real)
    if not math.isfinite(total):
        raise TruncationError(f"{what}: non-finite amplitudes")
    if total == 0.0:
        raise TruncationError(f"{what}: zero vector")
    lo = max(1, psi.size - TAIL_LEVELS)
    tail = float(np.vdot(psi[lo:], psi[lo:]).real)
    if not (tail <= TAIL_MASS_MAX * total):
        raise TruncationError(
            f"{what}: tail mass {tail / total:.3e} of total exceeds {TAIL_MASS_MAX:.1e}; "
            "increase dim"
        )


def _check_disk(w: complex) -> None:
    if not abs(w) < 1.0:
        raise ValueError(f"|w| must be < 1, got |w|={abs(w)}")


def _ladder_amplitudes(z: complex, w: complex, lead: complex, size: int) -> np.ndarray:
    """ψ₀..ψ_{size−1} of lead·exp(z·a† + w·K₊)|0⟩ by the three-term recurrence.

    ψ₀ = lead and ψ_{m+1} = (z·ψ_m + √m·w·ψ_{m−1})/√(m+1): the generating
    function exp(z·x + ½w·x²) of the coefficients of (a†)^m|0⟩ = √(m!)|m⟩.
    Starting from the normalizing prefactor keeps every amplitude of a
    normalized state, so none can overflow.
    """
    root = np.sqrt(np.arange(size, dtype=float)).tolist()
    out = [0j] * size
    prev, cur = 0j, complex(lead)
    out[0] = cur
    for m in range(size - 1):
        prev, cur = cur, (z * cur + root[m] * w * prev) / root[m + 1]
        out[m + 1] = cur
    return np.array(out, dtype=complex)


def _raise_once(e: np.ndarray) -> np.ndarray:
    """a†·e in the truncated basis: (a†e)_m = √m·e_{m−1}."""
    out = np.zeros_like(e)
    out[1:] = np.sqrt(np.arange(1, e.size, dtype=float)) * e[:-1]
    return out


def coherent_vector(z: complex, w: complex, spec: FockBasisSpec) -> StateVector:
    """Unnormalized e_{z,w} = exp(z·a† + w·K₊) applied to the cyclic vector.

    z·a† + w·K₊ only raises the level, so the truncated vector holds the
    exact leading amplitudes: the recurrence of :func:`_ladder_amplitudes`,
    times a† in the odd sector (exp(z·a† + w·K₊)|1⟩ = a†·e_{z,w}).  Raises
    :class:`TruncationError` when the top :data:`TAIL_LEVELS` levels carry
    more than :data:`TAIL_MASS_MAX` of the mass, or an amplitude is not finite.
    """
    z = complex(z)
    w = complex(w)
    _check_disk(w)
    psi = _ladder_amplitudes(z, w, 1.0, spec.dim)
    if spec.sector == "odd":
        psi = _raise_once(psi)
    _check_tail(psi, "coherent_vector")
    return StateVector(psi)


def _expm_skew(hermitian_generator: np.ndarray) -> np.ndarray:
    """exp(−i·G) for hermitian G, via eigendecomposition (exactly unitary)."""
    vals, vecs = np.linalg.eigh(hermitian_generator)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def displacement_matrix(alpha: complex, spec: FockBasisSpec) -> np.ndarray:
    """Unitary D(α) = exp(α·a† − ᾱ·a)."""
    alpha = complex(alpha)
    ops = build_generators(spec)
    return _expm_skew(1j * (alpha * ops.adag - alpha.conjugate() * ops.a))


def squeeze_matrix(w: complex, spec: FockBasisSpec) -> np.ndarray:
    """Unitary S(w) = exp(ζ·K₊ − ζ̄·K₋) with ζ = artanh|w|·(w/|w|), |w| < 1."""
    w = complex(w)
    _check_disk(w)
    s = abs(w)
    if s == 0.0:
        zeta = 0.0 + 0.0j
    else:
        zeta = (w / s) * np.arctanh(s)
    ops = build_generators(spec)
    return _expm_skew(1j * (zeta * ops.Kp - zeta.conjugate() * ops.Km))


def chart_state_vector(alpha: complex, w: complex, phi: float, spec: FockBasisSpec) -> StateVector:
    """e^{−iφ}·D(α)·S(w) applied to the cyclic vector, tail-checked.

    With z = α − w·ᾱ and k the sector's Bargmann index, this is
    (1−|w|²)^k·e^{−ᾱz/2}·e^{−iφ}·e_{z,w} in the even sector and the same
    prefactor times (a† − ᾱ)·e_{z,w} in the odd one (e_{z,w} from |0⟩).  A
    state too far out for the basis underflows the prefactor and raises
    :class:`TruncationError` as a zero vector.
    """
    alpha = complex(alpha)
    w = complex(w)
    _check_disk(w)
    z = alpha - w * alpha.conjugate()
    lead = (1.0 - abs(w) ** 2) ** spec.k.k * cmath.exp(-0.5 * alpha.conjugate() * z - 1j * float(phi))
    psi = _ladder_amplitudes(z, w, lead, spec.dim)
    if spec.sector == "odd":
        psi = _raise_once(psi) - alpha.conjugate() * psi
    _check_tail(psi, "chart_state_vector")
    return StateVector(psi)


# --- Hamiltonians and propagation --------------------------------------------------


def hamiltonian_matrix(c: ComplexCoefficients, spec: FockBasisSpec) -> np.ndarray:
    """H = ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε₋·K₋ (hermitian by construction)."""
    ops = build_generators(spec)
    return (
        c.eps_a * ops.a
        + c.eps_a.conjugate() * ops.adag
        + c.eps_0 * ops.K0
        + c.eps_plus * ops.Kp
        + c.eps_minus * ops.Km
    )


def _require_hermitian(H: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(H))))
    resid = float(np.max(np.abs(H - H.conj().T)))
    if resid > 1e-12 * scale:
        raise ValueError(f"H not hermitian: residual {resid:.3e}")


def propagator(H: np.ndarray) -> Callable[[np.ndarray, float], np.ndarray]:
    """Diagonalize constant hermitian H once; return (ψ, t) ↦ e^{−iHt}·ψ on raw amplitudes."""
    H = np.asarray(H, dtype=complex)
    _require_hermitian(H)
    vals, vecs = np.linalg.eigh(H)
    return lambda psi, t: (vecs * np.exp(-1j * vals * float(t))) @ (vecs.conj().T @ psi)


def propagate(psi0: StateVector, H: np.ndarray, t: float) -> StateVector:
    """Solve i·ψ̇ = H·ψ for constant hermitian H over time t (see :func:`propagator`)."""
    return StateVector(propagator(H)(psi0.psi, t))


def expectation(psi: StateVector, M: np.ndarray) -> complex:
    """⟨ψ|M|ψ⟩ / ⟨ψ|ψ⟩."""
    num = complex(np.vdot(psi.psi, M @ psi.psi))
    den = float(np.vdot(psi.psi, psi.psi).real)
    return num / den
