"""Complex linear algebra for the driven three-level system.

Everything lives in the basis {|-1>, |0>, |+1>} (in that order).  States are
plain complex ndarrays of shape (3,), operators of shape (3, 3).  Angular
frequencies are rad/us, times are us.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

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


class IntegrationFailure(RuntimeError):
    """Adaptive integration could not continue (e.g. step-size underflow)."""

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


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def scaled_frobenius_norm(m: np.ndarray) -> float:
    """sqrt(sum |m_ij|^2) / sqrt(2); unitarily invariant.

    Under this normalization each of K_x, K_y, K_z has norm 1, so the norm of
    a combination v . (K_x, K_y, K_z) equals the Euclidean length of v.
    """
    return float(np.linalg.norm(m) / SQRT2)


def norm_defect(psi: np.ndarray) -> float:
    """Deviation of the 2-norm from 1 (reported, never silently repaired)."""
    return abs(float(np.linalg.norm(psi)) - 1.0)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - dagger(m)))


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(dagger(u) @ u - IDENTITY3))


def density_matrix_defects(rho: np.ndarray):
    """(hermiticity, trace, min-eigenvalue) diagnostics for a density matrix."""
    herm = hermiticity_defect(rho)
    tr = abs(float(np.trace(rho).real) - 1.0)
    sym = 0.5 * (rho + dagger(rho))
    min_eig = float(np.linalg.eigvalsh(sym).min())
    return herm, tr, min_eig


def _check_span(schedule, t0, t1):
    if t1 <= t0:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    span = schedule.time_span
    if t0 < span[0] - 1e-12 or t1 > span[1] + 1e-12:
        raise ValueError(f"[{t0}, {t1}] outside schedule support {span}")


def _integrate(rhs, y0, t0, t1, rtol, atol, t_eval=None):
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise IntegrationFailure(sol.message, float(sol.t[-1]) if sol.t.size else t0)
    return sol


def _propagate(schedule, y0, times, delta, rtol, atol):
    """Samples of Y solving i dY/dt = (H(t) + delta K_z) Y from Y(times[0]) = y0.

    ``y0`` is a ket (3,) or a matrix (3, 3); the result has shape
    (len(times),) + y0.shape and is never renormalized.
    """
    times = np.asarray(times, dtype=float)
    _check_span(schedule, times[0], times[-1])
    hfun = schedule.hamiltonian
    if delta:
        shift = delta * K_Z

        def hfun(t, base=hfun):
            return base(t) + shift

    shape = np.shape(y0)

    def rhs(t, y):
        # (-1j * H) @ Y, not -1j * (H @ Y): the propagator samples feed the
        # invariant-angle fit, whose dI/dt defect is sensitive to the rounding
        return ((-1j * hfun(t)) @ y.reshape(shape)).ravel()

    sol = _integrate(rhs, np.array(y0, dtype=complex).ravel(), times[0], times[-1],
                     rtol, atol, t_eval=times)
    return np.ascontiguousarray(sol.y.T.reshape((-1,) + shape))


def propagate_state(schedule, state, times, rtol=1e-10, atol=1e-12, delta=0.0):
    """State samples at the given times (times[0] is the start) under H(t) + delta K_z."""
    return _propagate(schedule, state, times, delta, rtol, atol)


def propagate_operator(schedule, times, rtol=1e-10, atol=1e-12):
    """Propagator samples U(t, times[0]) as an (n, 3, 3) array."""
    return _propagate(schedule, IDENTITY3, times, 0.0, rtol, atol)


def toggling_frame(schedule, n_samples, rtol=1e-10, atol=1e-12):
    """Uniform grid over the schedule and the samples of U^dag K_z U on it.

    U^dag K_z U is the toggling-frame noise operator, the integrand of the
    noise integral m(t) = int U^dag K_z U dt'.
    """
    t0, t1 = schedule.time_span
    times = np.linspace(t0, t1, n_samples)
    props = propagate_operator(schedule, times, rtol=rtol, atol=atol)
    return times, np.einsum("nji,jk,nkl->nil", props.conj(), K_Z, props)
