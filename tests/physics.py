"""Reference formulas and the paper's identities that the tests check the package
against: the scalar H, H from a schedule's fields, the relaxation dissipator, the
invariant equation, mode phases and the angle rebuild."""

import numpy as np

from geodrive.invariants import InvariantAngles, evolution_operator, invariant_eigenstates
from geodrive.numerics import cumulative_simpson
from geodrive.operators import IDENTITY3, K_X, K_Y, K_Z, SQRT2
from geodrive.schedules import ControlSchedule, TwoToneSchedule

#: the basis kets |0> and |+1> (|-1> is operators.KET_MINUS1)
KET_0 = np.array([0, 1, 0], dtype=complex)
KET_PLUS1 = np.array([0, 0, 1], dtype=complex)


def hamiltonian(omega: float, delta: float, phi: float) -> np.ndarray:
    """Driving Hamiltonian Omega*cos(phi)*K_x + Omega*sin(phi)*K_y + Delta*K_z.

    ``omega`` is the reduced Rabi frequency (lab-frame envelopes are
    sqrt(2) * omega); must be non-negative.
    """
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    return omega * np.cos(phi) * K_X + omega * np.sin(phi) * K_Y + delta * K_Z


def hamiltonians(schedule, times) -> np.ndarray:
    """H at ``times`` from a schedule's real ``fields`` on its ``_BASIS``, shape (..., 3, 3):
    the H that every solve steps with."""
    return np.tensordot(schedule.fields(np.asarray(times, dtype=float)), schedule._BASIS, 1)


def constant_schedule(omega: float, delta: float, phi: float) -> ControlSchedule:
    """Detuning-mode schedule with constant fields, for comparing the program's H with
    the scalar formula."""
    time = np.linspace(0.0, 1.0, 501)
    return ControlSchedule(time=time, omega=np.full(time.size, omega),
                           delta=np.full(time.size, delta), phi=np.full(time.size, phi),
                           mode="detuning")


# 12 h times the 5-point first-derivative weights at the first, second and middle
# point of the stencil (Fornberg, Math. Comp. 51, 699 (1988)); the last two points
# of a grid take the first two rows reversed and negated
FD4_WEIGHTS = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1], [1, -8, 0, 8, -1]]) / 12


def fd4_slopes(x, y) -> np.ndarray:
    """Fourth-order knot slopes of y (n, m) on the uniform grid x, as weighted sums
    over 5-point windows: the slopes of the schedules' interpolant, computed apart."""
    y = np.asarray(y, dtype=float)
    h = (x[-1] - x[0]) / (len(x) - 1)
    windows = np.lib.stride_tricks.sliding_window_view(y, 5, axis=0)  # (n - 4, m, 5)
    ends = [windows[0] @ FD4_WEIGHTS[0], windows[0] @ FD4_WEIGHTS[1]]
    ends_right = [-(windows[-1] @ FD4_WEIGHTS[1][::-1]), -(windows[-1] @ FD4_WEIGHTS[0][::-1])]
    return np.vstack([ends, windows @ FD4_WEIGHTS[2], ends_right]) / h


def dissipator_superoperator(jumps) -> np.ndarray:
    """sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2 as a (9, 9) matrix on row-major
    vec(rho), where vec(A rho B) = (A (x) B^T) vec(rho)."""
    eye = np.eye(3)
    return sum(np.kron(jump, jump.conj()) - 0.5 * (np.kron(jump.conj().T @ jump, eye)
                                                   + np.kron(eye, (jump.conj().T @ jump).T))
               for jump in jumps)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def scaled_frobenius_norm(m: np.ndarray) -> float:
    """sqrt(sum |m_ij|^2) / sqrt(2); unitarily invariant.

    Under this normalization each of K_x, K_y, K_z has norm 1, so the norm of
    a combination v . (K_x, K_y, K_z) equals the Euclidean length of v.
    """
    return float(np.linalg.norm(m) / SQRT2)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - IDENTITY3))


def as_two_tone(schedule: ControlSchedule) -> TwoToneSchedule:
    """Expand a common-envelope schedule into per-tone arrays."""
    return TwoToneSchedule(
        time=schedule.time,
        pump_omega=schedule.omega, stokes_omega=schedule.omega,
        pump_delta=schedule.delta, stokes_delta=-schedule.delta,
        pump_phi=schedule.phi, stokes_phi=-schedule.phi,
        warnings=schedule.warnings,
    )


def invariant_operator(theta, beta):
    """I = sin(theta)cos(beta) K_x + sin(theta)sin(beta) K_y + cos(theta) K_z."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    nx = np.cos(beta) * np.sin(theta)
    ny = np.sin(beta) * np.sin(theta)
    nz = np.cos(theta)
    return (np.multiply.outer(nx, K_X) + np.multiply.outer(ny, K_Y)
            + np.multiply.outer(nz, K_Z))


def invariant_defect(schedule, angles: InvariantAngles):
    """Scaled Frobenius norm of dI/dt - i[I, H] at interior grid points.

    dI/dt is a 5-point 4th-order finite-difference stencil on the sampled
    invariant; a vanishing defect validates the extracted (theta, beta).
    """
    i_op = invariant_operator(angles.theta, angles.beta)
    dt = angles.time[1] - angles.time[0]
    di = (-i_op[4:] + 8.0 * i_op[3:-1] - 8.0 * i_op[1:-3] + i_op[:-4]) / (12.0 * dt)
    interior = angles.time[2:-2]
    hams = hamiltonians(schedule, interior)
    comm = np.matmul(i_op[2:-2], hams) - np.matmul(hams, i_op[2:-2])
    defect = di - 1j * comm
    return np.linalg.norm(defect, axis=(1, 2)) / SQRT2


def lr_phase_series(schedule, angles: InvariantAngles, mode_index: int = 1):
    """Mode phase alpha_n(t) on the angle grid, by Simpson quadrature.

    The integrand Re<phi_n| i d/dt - H |phi_n> is evaluated from the sampled
    eigenstates, with the time derivative taken by finite differences of the
    state components.
    """
    if mode_index not in (1, 2, 3):
        raise ValueError("mode_index must be 1, 2 or 3")
    states = invariant_eigenstates(angles.theta, angles.beta)[mode_index - 1]
    dt = angles.time[1] - angles.time[0]
    dstates = np.gradient(states, dt, axis=0, edge_order=2)
    inner_dt = np.einsum("nj,nj->n", states.conj(), dstates)
    hams = hamiltonians(schedule, angles.time)
    inner_h = np.einsum("nj,njk,nk->n", states.conj(), hams, states)
    integrand = (1j * inner_dt - inner_h).real
    return cumulative_simpson(integrand, angles.time)


def tangent_from_angles(angles: InvariantAngles):
    """Tangent of the noise-integral curve implied by the extracted angles.

    Uses the total azimuth alpha + frame_offset, i.e. the frame of the
    integrated propagator (the same frame reconstruct_curve works in).
    """
    azimuth = angles.alpha + angles.frame_offset
    sin_t = np.sin(angles.theta)
    return np.stack([-sin_t * np.cos(azimuth),
                     -sin_t * np.sin(azimuth),
                     np.cos(angles.theta)], axis=1)


def propagator_rebuild_error(angles: InvariantAngles):
    """Frobenius deviation between integrated and rebuilt propagators."""
    rebuilt = evolution_operator(angles.theta, angles.beta, angles.alpha + angles.frame_offset)
    return np.linalg.norm(rebuilt - angles.propagators, axis=(1, 2))
