"""Product-of-exponentials (Wei-Norman) machinery for the oscillator ⋊ su(1,1) algebra.

The factorized evolution operator

    T(ξ) = e^{ξ₁·I} e^{ξ₂·a†} e^{ξ₃·a} e^{ξ₄·K₊} e^{ξ₅·K₀} e^{ξ₆·K₋}

equals D(α)·S(w) on the canonical chart

    ξ₁ = −½|α|²,  ξ₂ = α,  ξ₃ = −ᾱ,  ξ₄ = w,  ξ₅ = ln(1−ww̄),  ξ₆ = −w̄.

This module provides the adjoint chains that expand T⁻¹Ṫ and ṪT⁻¹ over the
generator basis, the conjugated Hamiltonian Ĥ = T⁻¹HT, the quasienergy
coefficients whose vanishing characterizes solutions, the resulting real
equations of motion for (x, y, u, v) with α = x+iy, w = u+iv, and the phase.

Conventions: H = ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε₋·K₋ with ε₋ = ε̄₊,
ε_a = ν₁+iν₂, ε₀ = 2ε̃₀, ε₊ = ε̃₁−iε̃₂.  The coherent-state equations of the
berezin module use the ε_a ↔ ε̄_a, ε₊ ↔ ε₋ convention instead;
:func:`conjugation_dictionary` translates at comparison boundaries.  Apply it
there and only there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ComplexCoefficients,
    GeneratorVector,
    RealCoefficients,
    adjoint_matrix,
    expm,
)
from .geometry import BargmannIndex

__all__ = [
    "CHAIN_COND_MAX",
    "WNParameters",
    "RealState",
    "QuasienergyCoefficients",
    "ChartSingularError",
    "wn_parameters",
    "adjoint_chain",
    "adjoint_chain_product",
    "forward_chain_matrix",
    "t_inv_tdot",
    "t_inv_tdot_real",
    "hhat_coeffs",
    "hhat_coeffs_real",
    "wn_rhs",
    "wn_phase_rhs",
    "quasienergy_coeffs",
    "wn_solve_step",
    "squeeze_real_params",
    "phase_bridge",
    "conjugation_dictionary",
]

#: condition-number ceiling for the factorization linear system
CHAIN_COND_MAX = 1e12


class ChartSingularError(RuntimeError):
    """The product-of-exponentials chart is degenerate at this ξ."""


# --- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class WNParameters:
    """Factorization parameters ξ₁..ξ₆ (generic; not restricted to the chart)."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=complex)
        if xi.shape != (6,):
            raise ValueError(f"xi must have shape (6,), got {xi.shape}")
        if not np.all(np.isfinite(xi)):
            raise ValueError("xi must be finite")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    def __getitem__(self, i: int) -> complex:
        """1-based component access: p[4] is ξ₄."""
        if not 1 <= i <= 6:
            raise IndexError(f"generator index out of range: {i}")
        return complex(self.xi[i - 1])

    def canonical_residual(self) -> float:
        """Max violation of the D(α)S(w) chart relations (diagnostic only)."""
        x1, x2, x3, x4, x5, x6 = self.xi
        return max(
            abs(x3 + x2.conjugate()),
            abs(x6 + x4.conjugate()),
            abs(x1 + 0.5 * abs(x2) ** 2),
            abs(np.exp(x5) - (1.0 - abs(x4) ** 2)),
        )


@dataclass(frozen=True)
class RealState:
    """Real chart coordinates: α = x+iy, w = u+iv with u²+v² < 1."""

    x: float
    y: float
    u: float
    v: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "u", "v"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)
        if self.u**2 + self.v**2 >= 1.0:
            raise ValueError(f"(u,v) must lie inside the unit disk: u={self.u}, v={self.v}")

    @property
    def alpha(self) -> complex:
        return complex(self.x, self.y)

    @property
    def w(self) -> complex:
        return complex(self.u, self.v)


@dataclass(frozen=True)
class QuasienergyCoefficients:
    """Coefficients of the quasienergy operator over (I, N₁, N₂, K₀, K₁, K₂).

    On an exact solution of the equations of motion, G1=G2=H1=H2=0 and the
    surviving pair obeys G0 + k·H0 = 0.
    """

    G0: float
    G1: float
    G2: float
    H0: float
    H1: float
    H2: float


# --- chart and chains -----------------------------------------------------------


def wn_parameters(alpha: complex, w: complex) -> WNParameters:
    """Canonical-chart ξ for T(ξ) = D(α)·S(w); requires |w| < 1."""
    alpha = complex(alpha)
    w = complex(w)
    s = abs(w) ** 2
    if s >= 1.0:
        raise ValueError(f"|w| must be < 1, got |w|={abs(w)}")
    xi = np.array(
        [
            -0.5 * abs(alpha) ** 2,
            alpha,
            -alpha.conjugate(),
            w,
            np.log1p(-s),
            -w.conjugate(),
        ],
        dtype=complex,
    )
    return WNParameters(xi)


def adjoint_chain(p: WNParameters) -> tuple[GeneratorVector, ...]:
    """Closed-form chain vectors Y₁..Y₆ with T⁻¹Ṫ = Σ ξ̇ᵢ·Yᵢ(ξ).

    Yᵢ = (e^{−ξ₆ad X₆}···e^{−ξᵢ₊₁ad Xᵢ₊₁})·Xᵢ, evaluated in closed form:

        Y₁ = I
        Y₂ = −ξ₃·I + e^{−ξ₅/2}(a† − ξ₆·a)
        Y₃ = (e^{ξ₅/2} − ξ₄ξ₆e^{−ξ₅/2})·a + ξ₄e^{−ξ₅/2}·a†
        Y₄ = e^{−ξ₅}(K₊ − 2ξ₆·K₀ + ξ₆²·K₋)
        Y₅ = K₀ − ξ₆·K₋
        Y₆ = K₋

    Valid for generic ξ (the chart relations are not assumed);
    :func:`adjoint_chain_product` is the brute-force equivalent.
    """
    x3, x4, x5, x6 = p.xi[2], p.xi[3], p.xi[4], p.xi[5]
    em = np.exp(-0.5 * x5)
    ep = np.exp(0.5 * x5)
    rows = np.zeros((6, 6), dtype=complex)
    rows[0, 0] = 1.0
    rows[1, 0] = -x3
    rows[1, 1] = em
    rows[1, 2] = -x6 * em
    rows[2, 1] = x4 * em
    rows[2, 2] = ep - x4 * x6 * em
    rows[3, 3] = em * em
    rows[3, 4] = -2.0 * x6 * em * em
    rows[3, 5] = x6 * x6 * em * em
    rows[4, 4] = 1.0
    rows[4, 5] = -x6
    rows[5, 5] = 1.0
    return tuple(GeneratorVector(rows[i]) for i in range(6))


def adjoint_chain_product(p: WNParameters) -> tuple[GeneratorVector, ...]:
    """Brute-force chain via products of adjoint-matrix exponentials."""
    out = []
    M = np.eye(6, dtype=complex)
    # accumulate right-to-left: after processing k, M = e^{−ξ₆ad}···e^{−ξₖad}
    vectors: list[np.ndarray] = [np.zeros(6, dtype=complex)] * 6
    vectors[5] = M @ _basis(6)
    for k in range(6, 1, -1):
        M = M @ expm(-p.xi[k - 1] * adjoint_matrix(k))
        vectors[k - 2] = M @ _basis(k - 1)
    return tuple(GeneratorVector(v) for v in vectors)


def _basis(i: int) -> np.ndarray:
    e = np.zeros(6, dtype=complex)
    e[i - 1] = 1.0
    return e


def forward_chain_matrix(p: WNParameters) -> np.ndarray:
    """6×6 matrix η(ξ) with ṪT⁻¹ = Σ ξ̇ⱼ·(column j), columns
    (e^{ξ₁ad X₁}···e^{ξⱼ₋₁ad Xⱼ₋₁})·Xⱼ."""
    eta = np.zeros((6, 6), dtype=complex)
    M = np.eye(6, dtype=complex)
    eta[:, 0] = _basis(1)
    for j in range(2, 7):
        M = M @ expm(p.xi[j - 2] * adjoint_matrix(j - 1))
        eta[:, j - 1] = M @ _basis(j)
    return eta


# --- T⁻¹Ṫ expansions ------------------------------------------------------------


def t_inv_tdot(state: tuple[complex, complex], dstate: tuple[complex, complex]) -> GeneratorVector:
    """Expand T⁻¹Ṫ over (I, a†, a, K₊, K₀, K₋) at (z, w) with velocity (ż, ẇ).

        T⁻¹Ṫ = i·Im(ż·z̄)·I + r(ż − ż̄·w)·a† − r(ż̄ − ż·w̄)·a
               + r²·ẇ·K₊ + 2i·Im(ẇ·w̄)·r²·K₀ − r²·ẇ̄·K₋,   r = (1−ww̄)^{−1/2}.

    The I-coefficient sign is fixed by the chain-rule expansion
    Σ dξᵢ·Yᵢ on the canonical chart (see adjoint_chain), which the tests
    enforce at <1e−12.
    """
    z, w = complex(state[0]), complex(state[1])
    dz, dw = complex(dstate[0]), complex(dstate[1])
    s = abs(w) ** 2
    if s >= 1.0:
        raise ValueError(f"|w| must be < 1, got |w|={abs(w)}")
    r2 = 1.0 / (1.0 - s)
    r = np.sqrt(r2)
    c = np.zeros(6, dtype=complex)
    c[0] = 1j * (dz * z.conjugate()).imag
    c[1] = r * (dz - dz.conjugate() * w)
    c[2] = -c[1].conjugate()
    c[3] = r2 * dw
    c[4] = 2j * (dw * w.conjugate()).imag * r2
    c[5] = -c[3].conjugate()
    return GeneratorVector(c)


def t_inv_tdot_real(s: RealState, ds: tuple[float, float, float, float]) -> np.ndarray:
    """Coefficients of −i·T⁻¹dT over the real basis (I, N₁, N₂, K₀, K₁, K₂):

        (x·dy − y·dx)·I + r[(1+u)dy − v·dx]·N₁ + r[(1−u)dx − v·dy]·N₂
        + 2r²[(u·dv − v·du)·K₀ + dv·K₁ + du·K₂]
    """
    dx, dy, du, dv = (float(t) for t in ds)
    r2 = 1.0 / (1.0 - s.u**2 - s.v**2)
    r = np.sqrt(r2)
    return np.array(
        [
            s.x * dy - s.y * dx,
            r * ((1.0 + s.u) * dy - s.v * dx),
            r * ((1.0 - s.u) * dx - s.v * dy),
            2.0 * r2 * (s.u * dv - s.v * du),
            2.0 * r2 * dv,
            2.0 * r2 * du,
        ]
    )


# --- conjugated Hamiltonian ------------------------------------------------------


def hhat_coeffs(
    c: ComplexCoefficients, alpha: complex, w: complex
) -> tuple[complex, complex, complex, complex]:
    """Coefficients (I0, C1, C0, Cp) of Ĥ = T⁻¹HT = I0 + C1·a† + C̄1·a + C0·K₀ + Cp·K₊ + C̄p·K₋.

    Built from the conjugation rules â = r(a + w·a†) + α and the matching
    K̂₀, K̂± formulas; C0 is real for hermitian input.
    """
    alpha = complex(alpha)
    w = complex(w)
    s = abs(w) ** 2
    if s >= 1.0:
        raise ValueError(f"|w| must be < 1, got |w|={abs(w)}")
    r2 = 1.0 / (1.0 - s)
    r = np.sqrt(r2)
    ea, e0, ep, em = c.eps_a, c.eps_0, c.eps_plus, c.eps_minus
    ac = alpha.conjugate()
    i0 = ea * alpha + ea.conjugate() * ac + 0.5 * (e0 * abs(alpha) ** 2 + em * alpha**2 + ep * ac**2)
    c1 = r * (ea.conjugate() + ea * w + 0.5 * e0 * (alpha + ac * w) + em * alpha * w + ep * ac)
    c0 = r2 * (e0 * (1.0 + s) + 2.0 * (em * w + ep * w.conjugate()))
    cp = r2 * (e0 * w + em * w * w + ep)
    return i0, c1, c0, cp


def hhat_coeffs_real(
    rc: RealCoefficients, s: RealState
) -> tuple[float, float, float, float, float, float]:
    """Real coefficients (D0, D1, D2, F0, F1, F2) of Ĥ over (I, N₁, N₂, K₀, K₁, K₂)."""
    n1, n2, t1, t2 = rc.nu1, rc.nu2, rc.veps1, rc.veps2
    e0 = 2.0 * rc.veps0
    x, y, u, v = s.x, s.y, s.u, s.v
    r2 = 1.0 / (1.0 - u * u - v * v)
    r = np.sqrt(r2)
    d0 = 2.0 * (n1 * x - n2 * y) + 0.5 * e0 * (x * x + y * y) + t1 * (x * x - y * y) - 2.0 * t2 * x * y
    d1 = r * (
        n1 * (1.0 + u)
        - n2 * v
        + 0.5 * e0 * (x * (1.0 + u) + y * v)
        + t1 * (x * (1.0 + u) - y * v)
        - t2 * (x * v + (1.0 + u) * y)
    )
    d2 = -r * (
        n1 * v
        + n2 * (u - 1.0)
        + 0.5 * e0 * (x * v + y * (1.0 - u))
        + t1 * (x * v + y * (u - 1.0))
        + t2 * (x * (u - 1.0) - y * v)
    )
    f0 = r2 * (e0 * (1.0 + u * u + v * v) + 4.0 * (t1 * u - t2 * v))
    f1 = 2.0 * r2 * (e0 * u + t1 * (u * u - v * v + 1.0) - 2.0 * t2 * u * v)
    f2 = -2.0 * r2 * (e0 * v + 2.0 * t1 * u * v + t2 * (-1.0 + u * u - v * v))
    return d0, d1, d2, f0, f1, f2


# --- equations of motion, phase, quasienergy -------------------------------------


def wn_rhs(rc: RealCoefficients, s: RealState) -> tuple[float, float, float, float]:
    """(ẋ, ẏ, u̇, v̇): linear drift for the oscillator part, Riccati for the disk.

        ẋ = −ε̃₂x + (ε̃₀−ε̃₁)y − ν₂        u̇ = 2v(ε̃₁u+ε̃₀) − ε̃₂(1−u²+v²)
        ẏ = −(ε̃₀+ε̃₁)x + ε̃₂y − ν₁        v̇ = 2u(ε̃₂v−ε̃₀) − ε̃₁(1+u²−v²)

    In complex form the disk part satisfies i·ẇ = ε₊ + ε₀w + ε₋w².
    """
    n1, n2, t0, t1, t2 = rc.nu1, rc.nu2, rc.veps0, rc.veps1, rc.veps2
    x, y, u, v = s.x, s.y, s.u, s.v
    dx = -t2 * x + (t0 - t1) * y - n2
    dy = -(t0 + t1) * x + t2 * y - n1
    du = 2.0 * v * (t1 * u + t0) - t2 * (1.0 - u * u + v * v)
    dv = 2.0 * u * (t2 * v - t0) - t1 * (1.0 + u * u - v * v)
    return dx, dy, du, dv


def wn_phase_rhs(rc: RealCoefficients, s: RealState, k: BargmannIndex) -> float:
    """φ̇ = ν₁x − ν₂y + 2k(ε̃₀ + ε̃₁u − ε̃₂v) for the solution e^{−iφ}T(ξ)|0⟩."""
    return float(
        rc.nu1 * s.x - rc.nu2 * s.y + 2.0 * k.k * (rc.veps0 + rc.veps1 * s.u - rc.veps2 * s.v)
    )


def quasienergy_coeffs(
    rc: RealCoefficients,
    s: RealState,
    ds: tuple[float, float, float, float],
    dphi: float,
) -> QuasienergyCoefficients:
    """Quasienergy coefficients Ê = (φ̇ − ⟨−iT⁻¹Ṫ⟩ − Ĥ) over (I, N₁, N₂, K₀, K₁, K₂).

    G0 gets the φ̇ contribution; all six collect the −iT⁻¹Ṫ expansion and
    the conjugated-Hamiltonian coefficients with a minus sign.  For
    ds = wn_rhs(rc, s) and dphi = wn_phase_rhs(rc, s, k): G1=G2=H1=H2=0,
    −H0/2 = ε̃₀ + ε̃₁u − ε̃₂v, G0 = dphi − (ν₁x − ν₂y), hence G0 + k·H0 = 0.
    """
    m = t_inv_tdot_real(s, ds)
    d0, d1, d2, f0, f1, f2 = hhat_coeffs_real(rc, s)
    return QuasienergyCoefficients(
        G0=float(dphi) - m[0] - d0,
        G1=-m[1] - d1,
        G2=-m[2] - d2,
        H0=-m[3] - f0,
        H1=-m[4] - f1,
        H2=-m[5] - f2,
    )


# --- factorization-parameter flow -------------------------------------------------


def wn_solve_step(eps: GeneratorVector, p: WNParameters) -> np.ndarray:
    """Solve Σ ξ̇ⱼ·(forward chain)ⱼ(ξ) = Σ εⱼ·Xⱼ for ξ̇ (6 complex).

    With eps = −i·(Hamiltonian coefficients) this is the factorization-
    parameter flow ṪT⁻¹ = −iH; on the canonical chart it reproduces
    wn_rhs through the chart map.  Raises :class:`ChartSingularError` when
    the chain matrix condition number exceeds CHAIN_COND_MAX.
    """
    eta = forward_chain_matrix(p)
    cond = np.linalg.cond(eta)
    if not np.isfinite(cond) or cond > CHAIN_COND_MAX:
        raise ChartSingularError(f"chain matrix condition {cond:.3e} exceeds {CHAIN_COND_MAX:.1e}")
    return np.linalg.solve(eta, eps.c)


# --- auxiliary real-parameter maps -------------------------------------------------


def squeeze_real_params(u: float, v: float) -> tuple[float, float]:
    """(k₁, k₂) with k₁ = (v/2s)·ln((1+s)/(1−s)), k₂ = (u/2s)·ln((1+s)/(1−s)), s = |w|.

    Continuous extension (0, 0) at s = 0.  √(k₁²+k₂²) = artanh(s), matching
    the radial inverse of geometry.disk_param.
    """
    u = float(u)
    v = float(v)
    s = np.hypot(u, v)
    if s >= 1.0:
        raise ValueError(f"(u,v) must lie inside the unit disk, got |w|={s}")
    if s == 0.0:
        return 0.0, 0.0
    scale = 0.5 * (np.log1p(s) - np.log1p(-s)) / s
    return float(v * scale), float(u * scale)


def phase_bridge(phi: float, phi_D: float, phi_B: float, alpha: complex, w: complex) -> float:
    """Residual −φ − (φ_D + φ_B) + ½·Im(w·ᾱ²) connecting the two phase conventions.

    Constant along co-integrated trajectories; from zero initial phases it
    equals ½·Im(w₀·ᾱ₀²), so it vanishes identically whenever the trajectory
    starts at w = 0 (or more generally Im(w₀·ᾱ₀²) = 0).
    """
    alpha = complex(alpha)
    w = complex(w)
    return float(-phi - (phi_D + phi_B) + 0.5 * (w * alpha.conjugate() ** 2).imag)


def conjugation_dictionary(c: ComplexCoefficients) -> ComplexCoefficients:
    """Translate Hamiltonian coefficients between the two derivation conventions.

    ε_a ↔ ε̄_a and ε₊ ↔ ε₋ (an involution).  The product-of-exponentials
    equations with coefficients c trace the same trajectories as the
    coherent-state equations (berezin module) with conjugation_dictionary(c).
    Use at comparison boundaries only; never fold into either method.
    """
    return ComplexCoefficients(
        eps_a=c.eps_a.conjugate(),
        eps_0=c.eps_0,
        eps_plus=c.eps_plus.conjugate(),
    )
