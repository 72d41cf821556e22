"""Charts and geometry of the Siegel ball 𝒟ₙ and the Siegel-Jacobi domain ℂⁿ×𝒟ₙ.

Two charts are used throughout: the "product" chart (z, W) and the
decoupling chart (η, W) related by

    z = η − W·η̄,        η = (1ₙ − W·W̄)⁻¹ (z + W·z̄),

a diffeomorphism for W in the ball (W symmetric, 1 − W·W̄ ≻ 0).  The n=1
coherent-state overlap and the Kähler metric derived from it live here as
well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "SYMMETRY_TOL",
    "MARGIN_MIN",
    "DiskPoint",
    "BallPoint",
    "JacobiPoint",
    "FCPoint",
    "BargmannIndex",
    "BallMembership",
    "fc_forward",
    "fc_inverse",
    "disk_param",
    "overlap_log",
    "kahler_metric",
    "ball_membership",
    "point_to_json",
]

#: symmetry residual allowed on ball matrices
SYMMETRY_TOL = 1e-12
#: strict positivity floor for the smallest eigenvalue of 1 − W·W̄
MARGIN_MIN = 1e-14


def _ball_margin(W: np.ndarray) -> float:
    """Smallest eigenvalue of 1ₙ − W·W̄ (W·W̄ is hermitian for symmetric W).

    At n = 1 that is 1 − w·w̄ itself, computed on a Python complex: the same
    bits as ``eigvalsh``, also for NaN, ±inf and overflow, without its cost.
    """
    n = W.shape[0]
    if n == 1:
        w = complex(W[0, 0])
        return float((1 - w * w.conjugate()).real)
    gram = np.eye(n) - W @ W.conj()
    return float(np.linalg.eigvalsh(gram)[0].real)


@dataclass(frozen=True)
class DiskPoint:
    """A point of the unit disk 𝒟₁ (|w| < 1)."""

    w: complex

    def __post_init__(self) -> None:
        w = complex(self.w)
        if not abs(w) < 1.0:
            raise ValueError(f"|w| must be < 1, got |w|={abs(w):.6g}")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class BallPoint:
    """A point of the Siegel ball: W symmetric with 1 − W·W̄ ≻ 0."""

    W: np.ndarray

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=complex)
        if W.ndim == 0:
            W = W.reshape(1, 1)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"W must be square, got shape {W.shape}")
        if not np.isfinite(W).all():
            raise ValueError("W must be finite")
        sym = float(np.max(np.abs(W - W.T))) if W.size else 0.0
        if not sym <= SYMMETRY_TOL:
            raise ValueError(f"W not symmetric: residual {sym:.3e}")
        margin = _ball_margin(W)
        if not margin > MARGIN_MIN:
            raise ValueError(f"1 - W Wbar not positive definite: margin {margin:.3e}")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def margin(self) -> float:
        return _ball_margin(self.W)

    @classmethod
    def from_scalar(cls, w: complex) -> "BallPoint":
        return cls(np.array([[w]], dtype=complex))

    def scalar(self) -> complex:
        if self.n != 1:
            raise ValueError(f"scalar access requires n=1, got n={self.n}")
        return complex(self.W[0, 0])


def _as_vector(z: Any, n: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(z, dtype=complex))
    if v.shape != (n,):
        raise ValueError(f"state vector must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class JacobiPoint:
    """Point of ℂⁿ×𝒟ₙ in the (z, W) chart."""

    z: np.ndarray
    W: BallPoint

    def __post_init__(self) -> None:
        W = self.W if isinstance(self.W, BallPoint) else BallPoint(self.W)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "z", _as_vector(self.z, W.n))

    @property
    def n(self) -> int:
        return self.W.n

    @classmethod
    def scalar(cls, z: complex, w: complex) -> "JacobiPoint":
        return cls(z=np.array([z], dtype=complex), W=BallPoint.from_scalar(w))

    @property
    def z1(self) -> complex:
        """Scalar z (n=1 only)."""
        if self.n != 1:
            raise ValueError("z1 requires n=1")
        return complex(self.z[0])

    @property
    def w1(self) -> complex:
        """Scalar w (n=1 only)."""
        return self.W.scalar()


@dataclass(frozen=True)
class FCPoint:
    """Point of ℂⁿ×𝒟ₙ in the decoupling chart (η, W)."""

    eta: np.ndarray
    W: BallPoint

    def __post_init__(self) -> None:
        W = self.W if isinstance(self.W, BallPoint) else BallPoint(self.W)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "eta", _as_vector(self.eta, W.n))

    @property
    def n(self) -> int:
        return self.W.n

    @classmethod
    def scalar(cls, eta: complex, w: complex) -> "FCPoint":
        return cls(eta=np.array([eta], dtype=complex), W=BallPoint.from_scalar(w))

    @property
    def eta1(self) -> complex:
        if self.n != 1:
            raise ValueError("eta1 requires n=1")
        return complex(self.eta[0])

    @property
    def w1(self) -> complex:
        return self.W.scalar()


@dataclass(frozen=True)
class BargmannIndex:
    """Positive weight k of the lowest-weight su(1,1) representation.

    The discrete series requires 2k ∈ {2, 3, ...}; smaller values (k=¼, ¾)
    are allowed for the one-mode oracle realization.
    """

    k: float

    def __post_init__(self) -> None:
        k = float(self.k)
        if not k > 0:
            raise ValueError(f"k must be > 0, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def is_discrete_series(self) -> bool:
        two_k = 2.0 * self.k
        return two_k >= 2.0 and abs(two_k - round(two_k)) < 1e-12


# --- chart maps ------------------------------------------------------------


def fc_forward(p: FCPoint) -> JacobiPoint:
    """(η, W) ↦ (z, W) with z = η − W·η̄."""
    z = p.eta - p.W.W @ p.eta.conj()
    return JacobiPoint(z=z, W=p.W)


def fc_inverse(p: JacobiPoint) -> FCPoint:
    """(z, W) ↦ (η, W) with η = (1 − W·W̄)⁻¹(z + W·z̄)."""
    W = p.W.W
    eta = np.linalg.solve(np.eye(p.n) - W @ W.conj(), p.z + W @ p.z.conj())
    return FCPoint(eta=eta, W=p.W)


def disk_param(zc: complex) -> tuple[complex, float]:
    """Map a squeeze exponent to the disk: w = (z/|z|)·tanh|z|, ρ = ln(1−|w|²).

    Returns (0, 0) exactly at zc = 0.
    """
    zc = complex(zc)
    mag = abs(zc)
    if mag == 0.0:
        return 0.0 + 0.0j, 0.0
    w = (zc / mag) * np.tanh(mag)
    # tanh rounds to 1.0 for mag ≳ 19; keep the contract |w| < 1 strict
    m = abs(w)
    if m >= 1.0:
        w *= (1.0 - np.finfo(float).eps) / m
    return w, float(np.log1p(-abs(w) ** 2))


# --- n=1 overlap and metric -------------------------------------------------


def overlap_log(p: JacobiPoint, k: BargmannIndex) -> float:
    """ln⟨e_{z,w}, e_{z,w}⟩ = −2k·ln(1−w·w̄) + F with

    2F = (2z·z̄ + z²·w̄ + z̄²·w)/(1 − w·w̄).
    """
    if p.n != 1:
        raise ValueError("overlap_log is implemented for n=1 only")
    return _overlap_xy((p.z1.real, p.z1.imag, p.w1.real, p.w1.imag), k)


def _overlap_xy(x: Sequence[float], k: BargmannIndex) -> float:
    """overlap_log over real coordinates (Re z, Im z, Re w, Im w), no validation."""
    z = complex(x[0], x[1])
    w = complex(x[2], x[3])
    s = abs(w) ** 2
    two_f = (2 * z * z.conjugate() + z * z * w.conjugate() + z.conjugate() ** 2 * w) / (1 - s)
    return float(-2.0 * k.k * np.log1p(-s) + 0.5 * two_f.real)


def kahler_metric(p: JacobiPoint, k: BargmannIndex, h: float = 1e-5) -> np.ndarray:
    """Kähler metric g_{αβ̄} = ∂²/∂ζ_α∂ζ̄_β ln⟨e_ζ, e_ζ⟩ at ζ = (z, w), n=1.

    Computed by central finite differences of :func:`overlap_log` with the
    Wirtinger convention ∂/∂ζ = ½(∂_x − i∂_y):

        g_{αβ̄} = ¼[f_{x_αx_β} + f_{y_αy_β} + i(f_{x_αy_β} − f_{y_αx_β})].
    """
    if p.n != 1:
        raise ValueError("kahler_metric is implemented for n=1 only")
    if abs(p.w1) > 1.0 - 10.0 * h:
        raise ValueError("too close to the disk boundary for finite differencing")
    x0 = np.array([p.z1.real, p.z1.imag, p.w1.real, p.w1.imag])

    def second(i: int, j: int) -> float:
        if i == j:
            fp = _overlap_xy(x0 + h * _unit(i), k)
            fm = _overlap_xy(x0 - h * _unit(i), k)
            f0 = _overlap_xy(x0, k)
            return (fp - 2.0 * f0 + fm) / h**2
        fpp = _overlap_xy(x0 + h * _unit(i) + h * _unit(j), k)
        fpm = _overlap_xy(x0 + h * _unit(i) - h * _unit(j), k)
        fmp = _overlap_xy(x0 - h * _unit(i) + h * _unit(j), k)
        fmm = _overlap_xy(x0 - h * _unit(i) - h * _unit(j), k)
        return (fpp - fpm - fmp + fmm) / (4.0 * h**2)

    def _unit(i: int) -> np.ndarray:
        e = np.zeros(4)
        e[i] = 1.0
        return e

    # coordinate layout: ζ₁=z ↔ (x0[0], x0[1]), ζ₂=w ↔ (x0[2], x0[3])
    g = np.zeros((2, 2), dtype=complex)
    for a, (xa, ya) in enumerate(((0, 1), (2, 3))):
        for b, (xb, yb) in enumerate(((0, 1), (2, 3))):
            g[a, b] = 0.25 * (
                second(xa, xb) + second(ya, yb)
                + 1j * (second(xa, yb) - second(ya, xb))
            )
    return g


# --- membership diagnostics --------------------------------------------------


@dataclass(frozen=True)
class BallMembership:
    """Diagnostic result of a ball-membership test."""

    ok: bool
    symmetry_residual: float
    margin: float


def ball_membership(W: Any) -> BallMembership:
    """Check W ∈ 𝒟ₙ; never raises, returns diagnostics instead."""
    Wm = np.asarray(W, dtype=complex)
    if Wm.ndim == 0:
        Wm = Wm.reshape(1, 1)
    if Wm.ndim != 2 or Wm.shape[0] != Wm.shape[1] or not np.all(np.isfinite(Wm)):
        return BallMembership(ok=False, symmetry_residual=np.inf, margin=-np.inf)
    sym = float(np.max(np.abs(Wm - Wm.T)))
    margin = _ball_margin(Wm)
    return BallMembership(ok=sym <= SYMMETRY_TOL and margin > 0.0, symmetry_residual=sym, margin=margin)


# --- serialization ------------------------------------------------------------


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def point_to_json(p: JacobiPoint | FCPoint | DiskPoint) -> dict[str, Any]:
    """Serialize a point; complex entries as [re, im], matrices row-major."""
    if isinstance(p, DiskPoint):
        return {"chart": "disk", "w": _c2j(p.w)}
    W = [[_c2j(p.W.W[i, j]) for j in range(p.n)] for i in range(p.n)]
    if isinstance(p, JacobiPoint):
        return {"chart": "product", "z": [_c2j(z) for z in p.z], "W": W}
    return {"chart": "fc", "eta": [_c2j(e) for e in p.eta], "W": W}
