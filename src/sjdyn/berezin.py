"""Coherent-state (covariant-symbol) equations of motion on disk and ball.

For the scalar case the Hamiltonian coefficients (ε_a, ε₀, ε₊) drive

    i·ż = ε_a + ε̄_a·w + (ε₀/2 + ε₊·w)·z                 (product chart)
    i·ẇ = ε₋ + ε₀·w + ε₊·w²                               (Riccati)
    i·η̇ = ε_a + ε₋·η̄ + (ε₀/2)·η                          (decoupling chart)

and for n degrees of freedom the matrix Riccati equation

    i·Ẇ = ε₋ + (W·ε₀)ˢ + W·ε₊·W,        Aˢ := ½(A + Aᵗ),
    i·ż = ε + W·ε̄ + ½ε₀ᵗ·z + W·ε₊·z,
    i·η̇ = ε + ε₋·η̄ + ½ε₀ᵗ·η.

The Riccati flow linearizes through W = X·Y⁻¹ with (X, Y) evolved by the
block matrix h_c of :func:`hc_matrix`; the same dynamics in real variables
is the affine symplectic system of :func:`hr_matrix`.  The energy function
(covariant symbol) and the dynamical/geometric phase rates for the scalar
case complete the module.

Sign conventions note: these are the equations as printed in their original
coherent-state derivation.  The product-of-exponentials derivation (see the
weinorman module) yields the same family with ε_a ↔ ε̄_a, ε₊ ↔ ε₋
substituted; cross-method comparisons must apply
`weinorman.conjugation_dictionary` at the boundary.  Each module keeps its
own convention pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BallCoefficients, ComplexCoefficients, ball_real_decomposition, expm
from .geometry import BallPoint, BargmannIndex, FCPoint, JacobiPoint

__all__ = [
    "RICCATI_SINGULAR_TOL",
    "LinearizationPair",
    "RiccatiSingularError",
    "rhs_disk",
    "rhs_fc",
    "rhs_ball",
    "rhs_fc_ball",
    "hc_matrix",
    "hr_matrix",
    "riccati_by_linearization",
    "riccati_propagate",
    "energy",
    "berry_phase_rhs",
    "phase_rhs",
]

#: relative singularity threshold on Y in W = X·Y⁻¹ (inverse condition number)
RICCATI_SINGULAR_TOL = 1e-10


class RiccatiSingularError(RuntimeError):
    """Y in W = X·Y⁻¹ is numerically singular; subdivide the time interval."""


@dataclass(frozen=True)
class LinearizationPair:
    """(X, Y) block pair of the linearized Riccati flow, W = X·Y⁻¹."""

    X: np.ndarray
    Y: np.ndarray

    def to_ball(self) -> BallPoint:
        """W = X·Y⁻¹; raises :class:`RiccatiSingularError` near singular Y."""
        return BallPoint(_quotient_raw(self.X, self.Y))


def _riccati_step(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Unvalidated W ↦ X·Y⁻¹ with (X, Y) = M·(W, 1ₙ), for a propagator M of h_c."""
    n = W.shape[0]
    block = M @ np.vstack([W, np.eye(n)])
    return _quotient_raw(block[:n], block[n:])


def _quotient_raw(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Unvalidated W = X·Y⁻¹; raises :class:`RiccatiSingularError` near singular Y."""
    sv = np.linalg.svd(Y, compute_uv=False)
    if not sv[-1] > RICCATI_SINGULAR_TOL * sv[0]:
        raise RiccatiSingularError(
            f"relative smallest singular value of Y is {sv[-1] / sv[0]:.3e}")
    return np.linalg.solve(Y.T, X.T).T


# --- right-hand sides -------------------------------------------------------
# raw helpers work on plain scalars/arrays (integrator hot path); the public
# operations validate through the chart point types.


def _rhs_disk_raw(c: ComplexCoefficients, z: complex, w: complex) -> tuple[complex, complex]:
    dz = -1j * (c.eps_a + c.eps_a.conjugate() * w + (0.5 * c.eps_0 + c.eps_plus * w) * z)
    dw = -1j * (c.eps_minus + c.eps_0 * w + c.eps_plus * w * w)
    return dz, dw


def _rhs_fc_raw(c: ComplexCoefficients, eta: complex, w: complex) -> tuple[complex, complex]:
    deta = -1j * (c.eps_a + c.eps_minus * eta.conjugate() + 0.5 * c.eps_0 * eta)
    dw = -1j * (c.eps_minus + c.eps_0 * w + c.eps_plus * w * w)
    return deta, dw


def _ball_terms(c: BallCoefficients) -> tuple[np.ndarray, ...]:
    """(ε, ε̄, ε₀, ½ε₀ᵗ, ε₊, ε₋) of c, prepared once per segment for :func:`_rhs_ball_raw`."""
    return c.eps, c.eps.conj(), c.eps0, 0.5 * c.eps0.T, c.eps_plus, c.eps_minus


def _rhs_ball_raw(p: tuple[np.ndarray, ...], z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Unvalidated (ż, Ẇ) as one real vector: (ż, Ẇ.ravel()) in complex form, viewed as floats.

    The real and imaginary parts interleave, the layout of the ball lanes'
    state.  W·ε₊ is formed once for both W·ε₊·W and W·ε₊·z; every sum runs
    in the order the equations are printed, so the bits are those of the
    printed form.
    """
    eps, eps_bar, eps0, half_eps0_t, eps_plus, eps_minus = p
    n = z.shape[0]
    out = np.empty(n + n * n, dtype=complex)
    dz, dW = out[:n], out[n:].reshape(n, n)
    WE, WP = W @ eps0, W @ eps_plus
    np.add(eps_minus, 0.5 * (WE + WE.T), out=dW)
    dW += WP @ W
    np.add(eps, W @ eps_bar, out=dz)
    dz += half_eps0_t @ z
    dz += WP @ z
    out *= -1j
    return out.view(float)


def _rhs_fc_ball_raw(c: BallCoefficients, eta: np.ndarray) -> np.ndarray:
    return -1j * (c.eps + c.eps_minus @ eta.conj() + 0.5 * c.eps0.T @ eta)


def rhs_disk(c: ComplexCoefficients, p: JacobiPoint) -> tuple[complex, complex]:
    """Time derivatives (ż, ẇ) of the product-chart flow at p (n=1)."""
    if p.n != 1:
        raise ValueError("rhs_disk requires n=1; use rhs_ball")
    return _rhs_disk_raw(c, p.z1, p.w1)


def rhs_fc(c: ComplexCoefficients, p: FCPoint) -> tuple[complex, complex]:
    """Time derivatives (η̇, ẇ) of the decoupled flow at p (n=1).

    η̇ does not depend on w: the coordinate change z = η − w·η̄ decouples
    the translation part from the Riccati part.
    """
    if p.n != 1:
        raise ValueError("rhs_fc requires n=1; use rhs_fc_ball")
    return _rhs_fc_raw(c, p.eta1, p.w1)


def rhs_ball(c: BallCoefficients, p: JacobiPoint) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (ż, Ẇ) of the matrix flow at p; Ẇ stays symmetric."""
    if p.n != c.n:
        raise ValueError(f"dimension mismatch: point n={p.n}, coefficients n={c.n}")
    d = _rhs_ball_raw(_ball_terms(c), p.z, p.W.W).view(complex)
    return d[: c.n], d[c.n :].reshape(c.n, c.n)


def rhs_fc_ball(c: BallCoefficients, eta: np.ndarray) -> np.ndarray:
    """Time derivative η̇ of the decoupled matrix flow (affine in η, η̄)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if eta.shape != (c.n,):
        raise ValueError(f"eta must have length {c.n}, got shape {eta.shape}")
    return _rhs_fc_ball_raw(c, eta)


# --- linearization -----------------------------------------------------------


def hc_matrix(c: BallCoefficients) -> np.ndarray:
    """Block generator h_c = [[−iε₀ᵗ/2, −iε₋], [iε₊, iε₀/2]] of the linearized flow.

    Satisfies h_cᵗJ + Jh_c = 0 with J = [[0, 1ₙ], [−1ₙ, 0]].
    """
    n = c.n
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = -0.5j * c.eps0.T
    h[:n, n:] = -1j * c.eps_minus
    h[n:, :n] = 1j * c.eps_plus
    h[n:, n:] = 0.5j * c.eps0
    return h


def hr_matrix(c: BallCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Real affine system Ż = h_r·Z + F for Z = (ξ, ζ), η = ξ − iζ.

    With (m, n_, p, q) the real/imaginary split of ε₋ and ε₀ᵗ/2, and the
    drive ε = b + i·a:

        h_r = [[n_+q, m−p], [m+p, −n_+q]],     F = (a, b).

    h_r lies in sp(n, ℝ): h_rᵗJ + Jh_r = 0.
    """
    d = ball_real_decomposition(c)
    n = c.n
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = d.n_ + d.q
    h[:n, n:] = d.m - d.p
    h[n:, :n] = d.m + d.p
    h[n:, n:] = -d.n_ + d.q
    F = np.concatenate([c.eps.imag, c.eps.real])
    return h, F


def riccati_by_linearization(c: BallCoefficients, W0: BallPoint, t: float) -> BallPoint:
    """Propagate the matrix Riccati flow by W(t) = X(t)·Y(t)⁻¹.

    (X, Y) start at (W₀, 1ₙ) and evolve by the matrix exponential of t·h_c.
    Valid for time-independent coefficients only.  Raises
    :class:`RiccatiSingularError` when Y(t) is numerically singular; the
    caller must subdivide t (see :func:`riccati_propagate`).
    """
    if W0.n != c.n:
        raise ValueError(f"dimension mismatch: W0 n={W0.n}, coefficients n={c.n}")
    return BallPoint(_riccati_step(expm(float(t) * hc_matrix(c)), W0.W))


def riccati_propagate(
    c: BallCoefficients, W0: BallPoint, t: float, *, max_splits: int = 40
) -> BallPoint:
    """Like :func:`riccati_by_linearization`, subdividing t around singular Y."""
    try:
        return riccati_by_linearization(c, W0, t)
    except RiccatiSingularError:
        if max_splits <= 0:
            raise
    half = riccati_propagate(c, W0, 0.5 * t, max_splits=max_splits - 1)
    return riccati_propagate(c, half, 0.5 * t, max_splits=max_splits - 1)


# --- energy and phases (n=1) --------------------------------------------------


def _energy_raw(c: ComplexCoefficients, eta: complex, w: complex, k: float) -> float:
    s = abs(w) ** 2
    h_eta = (
        c.eps_a.conjugate() * eta
        + c.eps_a * eta.conjugate()
        + 0.5 * (c.eps_plus * eta**2 + c.eps_minus * eta.conjugate() ** 2
                 + c.eps_0 * eta * eta.conjugate())
    )
    h_w = k * c.eps_0 + (2.0 * k / (1.0 - s)) * (
        c.eps_plus * w + c.eps_minus * w.conjugate() + c.eps_0 * s
    )
    return float((h_eta + h_w).real)


def energy(c: ComplexCoefficients, p: FCPoint, k: BargmannIndex) -> float:
    """Covariant symbol (energy function) H(η, w) = H_η + H_w,

        H_η = ε̄_a·η + ε_a·η̄ + ½(ε₊η² + ε₋η̄² + ε₀ηη̄),
        H_w = k·ε₀ + (2k/(1−ww̄))·(ε₊w + ε₋w̄ + ε₀ww̄).

    Real for hermitian coefficients; conserved along the flow of rhs_fc.
    """
    if p.n != 1:
        raise ValueError("energy is implemented for n=1 only")
    return _energy_raw(c, p.eta1, p.w1, k.k)


def _berry_raw(eta: complex, w: complex, deta: complex, dw: complex, k: float) -> float:
    s = abs(w) ** 2
    val = (2.0 * k * w.conjugate() / (1.0 - s) - 0.5 * eta.conjugate() ** 2) * dw \
        + (eta.conjugate() + w.conjugate() * eta) * deta
    return float(-val.imag)


def berry_phase_rhs(p: FCPoint, deta: complex, dw: complex, k: BargmannIndex) -> float:
    """Geometric phase rate φ̇_B along a curve through p with velocity (η̇, ẇ):

        φ̇_B = −Im[(2kw̄/(1−ww̄) − η̄²/2)·ẇ + (η̄ + w̄η)·η̇].
    """
    if p.n != 1:
        raise ValueError("berry_phase_rhs is implemented for n=1 only")
    return _berry_raw(p.eta1, p.w1, complex(deta), complex(dw), k.k)


def phase_rhs(
    c: ComplexCoefficients, p: FCPoint, k: BargmannIndex
) -> tuple[float, float, float]:
    """(φ̇_D, φ̇_B, φ̇) along the flow: φ̇_D = −H, φ̇_B geometric, φ̇ the sum.

    −φ̇ decomposes as k·(ε₀ + ε₋w̄ + ε₊w) + ¼(ε₋z̄² + ε₊z²) + ½(ε_az̄ + ε̄_az)
    with z = η − w·η̄ (tested property, not used in the computation).
    """
    if p.n != 1:
        raise ValueError("phase_rhs is implemented for n=1 only")
    eta, w = p.eta1, p.w1
    deta, dw = _rhs_fc_raw(c, eta, w)
    dphi_d, dphi_b = -_energy_raw(c, eta, w, k.k), _berry_raw(eta, w, deta, dw, k.k)
    return dphi_d, dphi_b, dphi_d + dphi_b
