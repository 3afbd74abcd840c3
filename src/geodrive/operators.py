"""Complex linear algebra for the driven three-level system.

Everything lives in the basis {|-1>, |0>, |+1>} (in that order).  States are
plain complex ndarrays of shape (3,), operators of shape (3, 3).  Angular
frequencies are rad/us, times are us.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

SQRT2 = np.sqrt(2.0)

K_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
K_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
K_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
for _k in (K_X, K_Y, K_Z):
    _k.flags.writeable = False

IDENTITY3 = np.eye(3, dtype=complex)
IDENTITY3.flags.writeable = False

#: basis kets
KET_MINUS1 = np.array([1, 0, 0], dtype=complex)
KET_0 = np.array([0, 1, 0], dtype=complex)
KET_PLUS1 = np.array([0, 0, 1], dtype=complex)
for _k in (KET_MINUS1, KET_0, KET_PLUS1):
    _k.flags.writeable = False


#: Gauss-Legendre nodes of a step [t, t + h] sit at mid -+ _GAUSS_OFFSET h
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_MAGNUS_C = np.sqrt(3.0) / 12.0
_CHUNK = 1024  # 3x3 (step, delta) pairs per exponentiation block; bounds the temporaries


class IntegrationFailure(RuntimeError):
    """Propagation could not continue (non-finite H, step-size underflow)."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at t = {time:.6g} us)")
        self.time = time


def spin1_generators():
    """The three spin-1 angular momentum matrices (K_x, K_y, K_z)."""
    return K_X, K_Y, K_Z


def hamiltonian(omega: float, delta: float, phi: float) -> np.ndarray:
    """Driving Hamiltonian Omega*cos(phi)*K_x + Omega*sin(phi)*K_y + Delta*K_z.

    ``omega`` is the reduced Rabi frequency (lab-frame envelopes are
    sqrt(2) * omega); must be non-negative.
    """
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    return omega * np.cos(phi) * K_X + omega * np.sin(phi) * K_Y + delta * K_Z


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def scaled_frobenius_norm(m: np.ndarray) -> float:
    """sqrt(sum |m_ij|^2) / sqrt(2); unitarily invariant.

    Under this normalization each of K_x, K_y, K_z has norm 1, so the norm of
    a combination v . (K_x, K_y, K_z) equals the Euclidean length of v.
    """
    return float(np.linalg.norm(m) / SQRT2)


def norm_defect(psi: np.ndarray) -> float:
    """Deviation of the 2-norm from 1 (reported, never silently repaired)."""
    return abs(float(np.linalg.norm(psi)) - 1.0)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - IDENTITY3))


def density_matrix_defects(rho: np.ndarray):
    """(hermiticity, trace, min-eigenvalue) diagnostics of a density matrix,
    or arrays of them over the leading axes of a stack (..., 3, 3)."""
    adjoint = rho.conj().swapaxes(-1, -2)
    herm = np.linalg.norm(rho - adjoint, axis=(-2, -1))
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min(axis=-1)
    return herm, tr, min_eig


def _step_grid(schedule, times):
    """Step boundaries for samples at ``times``: the samples plus the schedule
    knots between them, less knots within 1e-12 of the span of a sample."""
    times = np.asarray(times, dtype=float)
    t0, t1 = times[0], times[-1]
    if t1 <= t0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"need strictly increasing times, got [{t0}, ..., {t1}]")
    span = schedule.time_span
    if t0 < span[0] - 1e-12 or t1 > span[1] + 1e-12:
        raise ValueError(f"[{t0}, {t1}] outside schedule support {span}")
    knots = np.asarray(schedule.time, dtype=float)
    knots = knots[(knots > t0) & (knots < t1)]
    after = np.searchsorted(times, knots)
    gap = np.minimum(knots - times[after - 1], times[after] - knots)
    return np.union1d(times, knots[gap > 1e-12 * (t1 - t0)])


def _integrate(rhs, y0, t0, t1, rtol, atol, t_eval=None):
    """Adaptive DOP853 solve: the Magnus stepper's oracle in the tests."""
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise IntegrationFailure(sol.message, float(sol.t[-1]) if sol.t.size else t0)
    return sol


def _liouvillian(h, dissipator):
    """K(H) with -iK = -i(H (x) I - I (x) H^T) + D, acting on row-major vec(rho)."""
    lifted = (h[..., :, None, :, None] * IDENTITY3[None, :, None, :]
              - IDENTITY3[:, None, :, None] * h.swapaxes(-1, -2)[..., None, :, None, :])
    return lifted.reshape(h.shape[:-2] + (9, 9)) + 1j * dissipator


def _propagate(schedule, y0, times, deltas, dissipator=None):
    """Samples of Y solving i dY/dt = K(t) Y from Y(times[0]) = y0.

    K = H(t) + delta K_z on a ket (3,) or a matrix (3, 3).  With a constant
    ``dissipator`` D (9, 9), y0 is a density matrix (3, 3), stepped as its
    row-major vec(rho) under the Liouvillian K of :func:`_liouvillian`
    (delta K_z is added to H before the lift).
    One fourth-order Magnus step per interval of :func:`_step_grid`, so each
    step lies in one PCHIP piece, where H(t) is smooth (it is C1 at knots).
    With K1, K2 at the two Gauss nodes, a step h is exp(-iG),
    G = h/2 (K1 + K2) - i sqrt(3)/12 h^2 [K2, K1], by ``eigh`` when G is
    Hermitian and by ``expm`` otherwise.  The result has shape
    (len(deltas), len(times)) + y0.shape and is never renormalized.
    """
    times = np.asarray(times, dtype=float)
    grid = _step_grid(schedule, times)
    dt = np.diff(grid)
    nodes = 0.5 * (grid[1:] + grid[:-1]) + np.multiply.outer([-_GAUSS_OFFSET, _GAUSS_OFFSET], dt)
    hams = schedule.hamiltonians(nodes.ravel()).reshape(2, -1, 1, 3, 3)
    finite = np.isfinite(hams).all(axis=(2, 3, 4))
    if not finite.all():
        raise IntegrationFailure("non-finite Hamiltonian", float(nodes[~finite].min()))
    shift = np.multiply.outer(np.asarray(deltas, dtype=float), K_Z)
    dim = 3 if dissipator is None else 9
    # the running product, stored only on the grid rows that are samples
    sample_of = {row: i for i, row in enumerate(np.searchsorted(grid, times).tolist())}
    samples = np.empty((len(shift), times.size, dim, np.size(y0) // dim), dtype=complex)
    samples[:, 0] = state = np.reshape(y0, (dim, -1))
    block = max(1, _CHUNK * 9 // dim**2 // len(shift))
    for lo in range(0, dt.size, block):
        h = dt[lo:lo + block, None, None, None]
        k1, k2 = hams[0, lo:lo + block] + shift, hams[1, lo:lo + block] + shift
        if dissipator is not None:
            k1, k2 = _liouvillian(k1, dissipator), _liouvillian(k2, dissipator)
        gen = 0.5 * h * (k1 + k2) - (1j * _MAGNUS_C) * h**2 * (k2 @ k1 - k1 @ k2)
        if dissipator is None:
            w, v = np.linalg.eigh(gen)
            steps = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        else:
            steps = expm(-1j * gen)
        for j, step in enumerate(steps, start=lo + 1):
            if j in sample_of:
                state = np.matmul(step, state, out=samples[:, sample_of[j]])
            else:
                state = step @ state
    return samples.reshape(samples.shape[:2] + np.shape(y0))


def propagate_state(schedule, state, times, delta=0.0):
    """State samples at the given times (times[0] is the start) under H(t) + delta K_z.

    ``delta`` may be a 1-D array: the result then has a leading axis over it,
    shape (len(delta), len(times), 3), from one stepper call.
    """
    samples = _propagate(schedule, state, times, np.atleast_1d(delta))
    return samples if np.ndim(delta) else samples[0]


def propagate_operator(schedule, times):
    """Propagator samples U(t, times[0]) as an (n, 3, 3) array."""
    return _propagate(schedule, IDENTITY3, times, [0.0])[0]


def toggling_frame(schedule, n_samples):
    """Uniform grid over the schedule and the samples of U^dag K_z U on it.

    U^dag K_z U is the toggling-frame noise operator, the integrand of the
    noise integral m(t) = int U^dag K_z U dt'.
    """
    times = np.linspace(*schedule.time_span, n_samples)
    props = propagate_operator(schedule, times)
    return times, np.einsum("nji,jk,nkl->nil", props.conj(), K_Z, props)
