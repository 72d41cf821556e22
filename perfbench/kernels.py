"""Reference kernels that measured times are divided by.

On the shared 2-core reference host (see README.md) the speed changes by up
to about 1.8x from one second to the next and over tens of seconds, and the
speed of interpreted Python, of small numpy calls and of LAPACK changes by
different factors.  Each operation is
timed right after a kernel, and the benchmark reports operation time /
kernel time.  The kernels never call `sjdyn`, and each does the same kind of
work as the layer that dominates what it normalizes:

* `ode_kernel` — scalar complex arithmetic, small array construction, 3x3
  matmuls and 1x1 / 3x3 `eigvalsh`, `svd` and `solve` calls in an
  interpreted loop, like the RK4 and RK45 lanes with their observers and
  guards (`scalar-compare`, `ball-n3`);
* `EighKernel` — dense Hermitian eigendecompositions at the oracle's basis
  size (`fock-oracle`);
* `py_kernel` — a pure interpreted loop, like importing modules
  (`setup_s`).
"""

from __future__ import annotations

import time

import numpy as np

ODE_ITERATIONS = 1500
LINALG_ITERATIONS = 400
EIGH_REPEATS = 3
PY_ITERATIONS = 50000

#: duration of `py_kernel` on the reference host in its faster state;
#: setup_s is expressed in seconds at this kernel speed
PY_KERNEL_NOMINAL_S = 0.0060


def ode_kernel() -> float:
    """Run the ODE-lane kernel once; return its wall time in seconds."""
    m = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.2], [0.0, 0.2, 0.7]], dtype=complex)
    y = np.array([0.3, -0.1, 0.2, 0.15, 0.0, 0.0])
    v = np.array([1.0, 0.5j, 0.25], dtype=complex)
    eps_a, eps_0, eps_plus = 0.3 - 0.1j, 0.8, 0.2 + 0.4j
    h = 1e-3
    w1 = np.array([[0.3 + 0.1j]])
    w3 = 0.2 * m
    eye1, eye3 = np.eye(1), np.eye(3)
    t0 = time.perf_counter()
    for _ in range(ODE_ITERATIONS):
        eta, w = complex(y[0], y[1]), complex(y[2], y[3])
        deta = -1j * (eps_a + eps_plus.conjugate() * eta.conjugate() + 0.5 * eps_0 * eta)
        dw = -1j * (eps_plus.conjugate() + eps_0 * w + eps_plus * w * w)
        s = abs(w) ** 2
        e = (eps_a.conjugate() * eta + 0.5 * eps_0 * eta * eta.conjugate()).real + s / (1.0 - s)
        k = np.array([deta.real, deta.imag, dw.real, dw.imag, -e, 0.5 * e])
        y = y + h * k
        v = m @ v
        v = v / (1.0 + 1e-3 * abs(v[0]))
    acc = 0.0
    for i in range(LINALG_ITERATIONS):
        W, eye = (w1, eye1) if i % 2 else (w3, eye3)
        acc += np.linalg.eigvalsh(eye - W @ W.conj())[0]
        acc += np.linalg.svd(W + eye, compute_uv=False)[-1]
        acc += np.linalg.solve(W.T + eye, W.T)[0, 0].real
    elapsed = time.perf_counter() - t0
    if not (np.all(np.isfinite(y)) and np.isfinite(acc)):
        raise RuntimeError("reference kernel diverged")
    return elapsed


class EighKernel:
    """Dense Hermitian `eigh` of a fixed dim x dim matrix, repeated."""

    def __init__(self, dim: int) -> None:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.matrix = 0.5 * (a + a.conj().T)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(EIGH_REPEATS):
            np.linalg.eigh(self.matrix)
        return time.perf_counter() - t0


def py_kernel() -> float:
    """Run the pure-Python kernel once; return its wall time in seconds."""
    z, acc = 0.3 + 0.1j, 0.0
    t0 = time.perf_counter()
    for _ in range(PY_ITERATIONS):
        z = z * (0.9999 + 0.0001j) + 1e-4
        acc += abs(z)
    elapsed = time.perf_counter() - t0
    if acc != acc:
        raise RuntimeError("reference kernel diverged")
    return elapsed
