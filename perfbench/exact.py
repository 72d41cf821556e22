"""Exact solutions that the benchmark checks `sjdyn` outputs against.

Nothing here imports `sjdyn`.  The equations are derived afresh from the
quadratic Hamiltonian of n bosonic modes

    H = f·a + f̄·a† + a†ᵀ·A·a + ½·a†ᵀ·B·a† + ½·aᵀ·B̄·a  (+ const),

A hermitian and B symmetric.  A displaced squeezed state is annihilated by
a − W·a† − z, with W symmetric in the ball and z = α − W·ᾱ, α = ⟨a⟩.
Transporting that annihilator with the Schrödinger flow gives

    i·α̇ = f̄ + A·α + B·ᾱ                          (affine in α, ᾱ)
    i·Ẇ = B + A·W + W·Aᵀ + W·B̄·W                  (matrix Riccati)

and the Riccati flow is linear in (X, Y), W = X·Y⁻¹:

    d/dt (X; Y) = [[−iA, −iB], [iB̄, iAᵀ]]·(X; Y).

For piecewise-constant drives both are solved exactly by matrix
exponentials per segment.  The scalar config form (ε_a, ε₀, ε₊) is the
Hamiltonian ε_a·a + ε̄_a·a† + ε₀·K₀ + ε₊·K₊ + ε̄₊·K₋ with K₀ = ¼(2a†a + 1)
and K₊ = ½a†², so f = ε_a, A = ε₀/2, B = ε₊.  The matrix form
(eps, eps0, eps_plus) enters the printed coherent-state equations
i·Ẇ = ε₋ + (W·ε₀)ˢ + W·ε₊·W, i·η̇ = ε + ε₋·η̄ + ½ε₀ᵀ·η directly, which is
the Hamiltonian above with f = ε̄, A = ½ε₀ᵀ, B = ε̄₊.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

#: final and per-row state deviation allowed against the exact solution
STATE_TOL = {"rk4": 1e-8, "rk45": 1e-7}
#: energy drift allowed within one segment, and φ_D against −∫E dt
ENERGY_TOL = 1e-8
#: W symmetry residual allowed at any row
SYMMETRY_TOL = 1e-12
#: Fock check: 1 − |overlap| and |arg overlap| allowed
FOCK_MODULUS_TOL = 1e-8
FOCK_PHASE_TOL = 1e-6
#: largest share of the norm allowed in the top ten levels of a Fock vector
FOCK_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class Quadratic:
    """Hamiltonian coefficients f (n,), A (n, n) hermitian, B (n, n) symmetric."""

    f: np.ndarray
    A: np.ndarray
    B: np.ndarray
    const: float = 0.0  # ε₀/4 of K₀ = ¼(2a†a + 1) in the scalar form

    @property
    def n(self) -> int:
        return self.f.size


def _c(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def quadratic_from_config(coeffs: dict) -> Quadratic:
    """Read one `coefficients` object of a config (scalar or matrix form)."""
    if "n" in coeffs:
        eps = np.array([_c(p) for p in coeffs["eps"]])
        eps0 = np.array([[_c(p) for p in row] for row in coeffs["eps0"]])
        eps_plus = np.array([[_c(p) for p in row] for row in coeffs["eps_plus"]])
        return Quadratic(f=eps.conj(), A=0.5 * eps0.T, B=eps_plus.conj())
    eps_a = complex(coeffs["eps_a_re"], coeffs["eps_a_im"])
    eps0 = float(coeffs["eps_0"])
    eps_plus = complex(coeffs["eps_plus_re"], coeffs["eps_plus_im"])
    return Quadratic(
        f=np.array([eps_a]), A=np.array([[0.5 * eps0]], dtype=complex),
        B=np.array([[eps_plus]]), const=0.25 * eps0,
    )


def segments_from_config(cfg: dict) -> list[tuple[float, float, Quadratic]]:
    """(start, end, drive) per segment, clipped to the grid."""
    t0, t1 = float(cfg["grid"]["t0"]), float(cfg["grid"]["t1"])
    if "coefficients" in cfg:
        return [(t0, t1, quadratic_from_config(cfg["coefficients"]))]
    out = []
    lo = t0
    for seg in cfg["schedule"]:
        hi = min(float(seg["until"]), t1)
        if hi > lo:
            out.append((lo, hi, quadratic_from_config(seg["coefficients"])))
        lo = hi
    return out


def initial_alpha_W(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Initial α = ⟨a⟩ and W from the config's `initial` object."""
    init = cfg["initial"]
    if "W" in init:
        W = np.array([[_c(p) for p in row] for row in init["W"]])
        first = np.array([_c(p) for p in init["eta" if init["chart"] == "fc" else "z"]])
    else:
        W = np.array([[_c(init["w"])]])
        first = np.array([_c(init["eta" if init["chart"] == "fc" else "z"])])
    if init["chart"] == "fc":
        return first, W
    # z = α − W·ᾱ  ⇒  (1 − W·W̄)·α = z + W·z̄
    n = W.shape[0]
    alpha = np.linalg.solve(np.eye(n) - W @ W.conj(), first + W @ first.conj())
    return alpha, W


def _alpha_generator(q: Quadratic) -> np.ndarray:
    """Augmented real generator of α̇ = −i(f̄ + A·α + B·ᾱ) on (Re α, Im α, 1)."""
    n = q.n
    M, N, g = -1j * q.A, -1j * q.B, -1j * q.f.conj()
    gen = np.zeros((2 * n + 1, 2 * n + 1))
    gen[:n, :n] = M.real + N.real
    gen[:n, n:2 * n] = -M.imag + N.imag
    gen[n:2 * n, :n] = M.imag + N.imag
    gen[n:2 * n, n:2 * n] = M.real - N.real
    gen[:n, -1] = g.real
    gen[n:2 * n, -1] = g.imag
    return gen


def _riccati_generator(q: Quadratic) -> np.ndarray:
    return np.block([[-1j * q.A, -1j * q.B], [1j * q.B.conj(), 1j * q.A.T]])


def propagate(alpha: np.ndarray, W: np.ndarray, q: Quadratic, taus: np.ndarray):
    """Exact (α, W) after each duration in `taus` under the constant drive q.

    Returns arrays of shape (len(taus), n) and (len(taus), n, n).
    """
    n = q.n
    taus = np.asarray(taus, dtype=float)
    ga = expm(taus[:, None, None] * _alpha_generator(q))
    vec = np.concatenate([alpha.real, alpha.imag, [1.0]])
    av = ga @ vec
    alphas = av[:, :n] + 1j * av[:, n:2 * n]
    gw = expm(taus[:, None, None] * _riccati_generator(q))
    blk = gw @ np.vstack([W, np.eye(n)])
    X, Y = blk[:, :n], blk[:, n:]
    # W = X·Y⁻¹  ⇔  Yᵀ·Wᵀ = Xᵀ
    Ws = np.swapaxes(np.linalg.solve(np.swapaxes(Y, 1, 2), np.swapaxes(X, 1, 2)), 1, 2)
    return alphas, Ws


def exact_path(cfg: dict, times: np.ndarray):
    """Exact (α, W) at each time of `times` (ascending, inside the grid)."""
    alpha, W = initial_alpha_W(cfg)
    n = alpha.size
    out_a = np.empty((times.size, n), dtype=complex)
    out_W = np.empty((times.size, n, n), dtype=complex)
    segs = segments_from_config(cfg)
    for i, (lo, hi, q) in enumerate(segs):
        last = i + 1 == len(segs)
        mask = (times >= lo) & ((times <= hi) if last else (times < hi))
        if np.any(mask):
            a_s, W_s = propagate(alpha, W, q, times[mask] - lo)
            out_a[mask], out_W[mask] = a_s, W_s
        a_end, W_end = propagate(alpha, W, q, np.array([hi - lo]))
        alpha, W = a_end[0], W_end[0]
    return out_a, out_W


def energy(q: Quadratic, alpha: complex, w: complex) -> float:
    """⟨H⟩ in the one-mode displaced squeezed state with ⟨a⟩ = α and W = w."""
    s = abs(w) ** 2
    n_sq = s / (1.0 - s)           # ⟨a†a⟩ of the squeezed vacuum
    m_sq = w / (1.0 - s)           # ⟨a²⟩ of the squeezed vacuum
    f, A, B = complex(q.f[0]), complex(q.A[0, 0]).real, complex(q.B[0, 0])
    a2 = alpha * alpha + m_sq
    val = (f * alpha + f.conjugate() * alpha.conjugate() + A * (abs(alpha) ** 2 + n_sq)
           + 0.5 * (B * a2.conjugate() + B.conjugate() * a2) + q.const)
    return float(val.real)


# --- Fock space ------------------------------------------------------------------


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator a|m⟩ = √m|m−1⟩ on the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def fock_hamiltonian(q: Quadratic, dim: int) -> np.ndarray:
    a = ladder(dim)
    ad = a.conj().T
    f, A, B = complex(q.f[0]), complex(q.A[0, 0]), complex(q.B[0, 0])
    H = (f * a + f.conjugate() * ad + A * (ad @ a) + 0.5 * B * (ad @ ad)
         + 0.5 * B.conjugate() * (a @ a) + q.const * np.eye(dim))
    return 0.5 * (H + H.conj().T)


def gaussian_vector(alpha: complex, w: complex, phi: float, dim: int) -> np.ndarray:
    """e^{−iφ}·D(α)·S(w)|0⟩ in the number basis, from its closed form.

    D(α)S(w)|0⟩ = (1−|w|²)^{1/4}·exp(−|α|²/2 + w·ᾱ²/2)·exp(z·a† + w·a†²/2)|0⟩
    with z = α − w·ᾱ; the amplitudes of the last factor obey
    ψ_{m+1} = (z·ψ_m + √m·w·ψ_{m−1}) / √(m+1).
    """
    z = alpha - w * alpha.conjugate()
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    if dim > 1:
        psi[1] = z
    for m in range(1, dim - 1):
        psi[m + 1] = (z * psi[m] + math.sqrt(m) * w * psi[m - 1]) / math.sqrt(m + 1)
    pref = (1.0 - abs(w) ** 2) ** 0.25 * np.exp(
        -0.5 * abs(alpha) ** 2 + 0.5 * w * alpha.conjugate() ** 2 - 1j * phi)
    return pref * psi


def tail_share(psi: np.ndarray) -> float:
    total = float(np.vdot(psi, psi).real)
    return float(np.vdot(psi[-10:], psi[-10:]).real) / total


def fock_overlap(cfg: dict, alpha_t: complex, w_t: complex, phi_t: float) -> tuple[complex, float]:
    """⟨ψ_direct(t1), ψ_closed(t1)⟩ normalized, and the largest tail share seen.

    ψ_direct propagates D(α₀)S(w₀)|0⟩ by diagonalizing H on each segment;
    ψ_closed is e^{−iφ}D(α)S(w)|0⟩ from the program's final (α, w, φ).
    """
    dim = int(cfg["fock"]["dim"])
    alpha0, W0 = initial_alpha_W(cfg)
    psi = gaussian_vector(complex(alpha0[0]), complex(W0[0, 0]), 0.0, dim)
    tail = tail_share(psi)
    for lo, hi, q in segments_from_config(cfg):
        vals, vecs = np.linalg.eigh(fock_hamiltonian(q, dim))
        psi = (vecs * np.exp(-1j * vals * (hi - lo))) @ (vecs.conj().T @ psi)
        tail = max(tail, tail_share(psi))
    closed = gaussian_vector(alpha_t, w_t, phi_t, dim)
    tail = max(tail, tail_share(closed))
    ov = complex(np.vdot(psi, closed)) / (np.linalg.norm(psi) * np.linalg.norm(closed))
    return ov, tail


# --- reading sjdyn outputs -------------------------------------------------------------


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def states_from_csv(header: list[str], data: np.ndarray):
    """(times, first, W) from an `fc`/`product`/`ball` chart CSV."""
    col = {name: i for i, name in enumerate(header)}
    t = data[:, col["t"]]
    if "re_eta" in col or "re_z" in col:
        key = "eta" if "re_eta" in col else "z"
        first = (data[:, col[f"re_{key}"]] + 1j * data[:, col[f"im_{key}"]])[:, None]
        W = (data[:, col["re_w"]] + 1j * data[:, col["im_w"]])[:, None, None]
        return t, key, first, W
    n = sum(1 for h in header if h.startswith("re_z_"))
    first = np.stack([data[:, col[f"re_z_{i}"]] + 1j * data[:, col[f"im_z_{i}"]]
                      for i in range(1, n + 1)], axis=1)
    W = np.empty((t.size, n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            W[:, i - 1, j - 1] = data[:, col[f"re_W_{i}_{j}"]] + 1j * data[:, col[f"im_W_{i}_{j}"]]
    return t, "z", first, W


# --- the check ---------------------------------------------------------------------


def check_output(cfg: dict, header: list[str], data: np.ndarray, report: dict) -> list[str]:
    """Everything wrong with one call's CSV and report; empty when it is right."""
    problems: list[str] = []
    t, key, first, W = states_from_csv(header, data)
    grid = cfg["grid"]
    if report.get("samples") != t.size:
        problems.append(f"report samples {report.get('samples')} != {t.size} CSV rows")
    if not (t[0] == grid["t0"] and t[-1] == grid["t1"]):
        problems.append(f"CSV spans [{t[0]}, {t[-1]}], grid is [{grid['t0']}, {grid['t1']}]")

    # properties of every row: W symmetric and 1 − W·W̄ ≻ 0
    sym = float(np.max(np.abs(W - np.swapaxes(W, 1, 2))))
    if not sym <= SYMMETRY_TOL:
        problems.append(f"W symmetry residual {sym:.3e}")
    sv_max = float(np.max(np.linalg.svd(W, compute_uv=False)))
    if not sv_max < 1.0:
        problems.append(f"W left the ball: largest singular value {sv_max:.6g}")

    # every row against the exact solution
    alpha_x, W_x = exact_path(cfg, t)
    first_x = alpha_x if key == "eta" else alpha_x - np.einsum("rij,rj->ri", W_x, alpha_x.conj())
    dev = max(float(np.max(np.abs(first - first_x))), float(np.max(np.abs(W - W_x))))
    tol = STATE_TOL[cfg.get("integrator", "rk4")]
    if not dev <= tol:
        problems.append(f"state deviates from the exact solution by {dev:.3e} > {tol:.0e}")

    col = {name: i for i, name in enumerate(header)}
    e_col = data[:, col["energy"]]
    if W.shape[1] == 1 and np.all(np.isfinite(e_col)):
        segs = segments_from_config(cfg)
        phi_d_exact = 0.0
        for i, (lo, hi, q) in enumerate(segs):
            j0 = int(np.searchsorted(t, lo))
            a0, w0 = complex(alpha_x[j0, 0]), complex(W_x[j0, 0, 0])
            e_exact = energy(q, a0, w0)
            last = i + 1 == len(segs)
            mask = (t >= lo) & ((t <= hi) if last else (t < hi))
            drift = float(np.max(np.abs(e_col[mask] - e_exact)))
            if not drift <= ENERGY_TOL:
                problems.append(f"energy on segment [{lo}, {hi}] departs from {e_exact:.12g} by {drift:.3e}")
            phi_d_exact -= e_exact * (hi - lo)
        phi_d = data[-1, col["phi_D"]]
        if not abs(phi_d - phi_d_exact) <= ENERGY_TOL:
            problems.append(f"phi_D final {phi_d:.12g} != -∫E dt = {phi_d_exact:.12g}")

    if "fock" in cfg:
        if key != "eta" or "phi_wn_final" not in report:
            problems.append("oracle output lacks the fc-chart state or phi_wn_final")
        else:
            ov, tail = fock_overlap(cfg, complex(first[-1, 0]), complex(W[-1, 0, 0]),
                                    float(report["phi_wn_final"]))
            if not tail <= FOCK_TAIL_TOL:
                problems.append(f"Fock tail share {tail:.3e} is too large for dim {cfg['fock']['dim']}")
            if not 1.0 - abs(ov) <= FOCK_MODULUS_TOL:
                problems.append(f"Fock |overlap| {abs(ov):.12f}")
            if not abs(np.angle(ov)) <= FOCK_PHASE_TOL:
                problems.append(f"Fock arg(overlap) {np.angle(ov):.3e} rad")
    return problems
