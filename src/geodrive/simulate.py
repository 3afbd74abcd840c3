"""Ideal and noisy propagation of the three-level system.

Noise enters two ways: a quasistatic frequency error delta * K_z added to
the Hamiltonian (constant within a run), and longitudinal relaxation between
|0> and |+-1| at a common rate Gamma through the quantum master equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (KET_MINUS1, _propagate, _step_grid, density_matrix_defects,
                        norm_defect, propagate_state)

SOLVER = "magnus4"  # every solve: the fourth-order Magnus stepper, operators._propagate


@dataclass
class NoiseModel:
    """Quasistatic frequency-error strength and common relaxation rate (rad/us)."""

    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass
class SimulationResult:
    time_grid: np.ndarray
    populations: np.ndarray          # shape (n, 3): P_-1, P_0, P_+1
    final_fidelity: float            # P_+1 at the final time
    trace_defect: float
    metadata: dict = field(default_factory=dict)


def relaxation_channels():
    """Jump operators |k><j| for the four relaxation channels j -> k.

    Channels: (+1 -> 0), (0 -> +1), (-1 -> 0), (0 -> -1); basis order is
    (|-1>, |0>, |+1>), so index 0 is m_s = -1.
    """
    basis = np.eye(3, dtype=complex)
    return [np.outer(basis[k], basis[j]) for j, k in [(2, 1), (1, 2), (0, 1), (1, 0)]]


_CHANNELS = relaxation_channels()
#: their dissipator at unit rate on row-major vec(rho), for real L_k:
#: sum_k L_k (x) L_k - (P_k (x) I + I (x) P_k) / 2, with P_k = L_k^T L_k
_RELAXATION = sum(np.kron(op, op) - 0.5 * (np.kron(op.T @ op, np.eye(3))
                                          + np.kron(np.eye(3), op.T @ op))
                  for op in _CHANNELS)


def run_schrodinger(schedule, noise: NoiseModel = None, initial=None,
                    n_samples: int = 1001, label: str = None) -> SimulationResult:
    """Pure-state propagation under H(t) + delta K_z (requires gamma = 0)."""
    noise = noise or NoiseModel()
    if noise.gamma != 0:
        raise ValueError("run_schrodinger handles gamma = 0 only; use run_lindblad")
    psi0 = np.asarray(KET_MINUS1 if initial is None else initial, dtype=complex)
    times = np.linspace(*schedule.time_span, n_samples)
    grid = _step_grid(schedule, times)
    states = _propagate(schedule, psi0, times, [noise.delta], grid=grid)[0]
    populations = np.abs(states) ** 2
    return SimulationResult(
        time_grid=times,
        populations=populations,
        final_fidelity=float(populations[-1, 2]),
        trace_defect=norm_defect(states[-1]),
        metadata={"solver": SOLVER, "steps": grid.size - 1,
                  "scheme": label, "noise": {"delta": noise.delta, "gamma": 0.0}},
    )


def run_lindblad(schedule, noise: NoiseModel = None, initial=None,
                 n_samples: int = 1001, label: str = None) -> SimulationResult:
    """Density-matrix propagation with the four relaxation channels.

    ``initial`` may be a state vector or a density matrix.  Populations are
    the real diagonal; the worst Hermiticity defect over the samples and the
    final trace and min-eigenvalue defects are recorded, never repaired.
    Samples after the first are Hermitian by construction, so the worst
    Hermiticity defect is the initial or the final one.
    """
    noise = noise or NoiseModel()
    initial = np.asarray(KET_MINUS1 if initial is None else initial, dtype=complex)
    rho0 = np.outer(initial, initial.conj()) if initial.ndim == 1 else initial.copy()
    herm0, trace0, eig0 = density_matrix_defects(rho0)
    if herm0 > 1e-10 or trace0 > 1e-8 or eig0 < -1e-8:
        raise ValueError("initial density matrix must be Hermitian, unit trace, "
                         f"and positive (defects: {herm0:.1e}, {trace0:.1e}, {eig0:.1e})")
    times = np.linspace(*schedule.time_span, n_samples)
    grid = _step_grid(schedule, times)
    rhos = _propagate(schedule, rho0, times, [noise.delta], noise.gamma * _RELAXATION, grid)[0]
    populations = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    herm, trace, min_eig = density_matrix_defects(rhos[-1])
    return SimulationResult(
        time_grid=times,
        populations=populations,
        final_fidelity=float(populations[-1, 2]),
        trace_defect=float(trace),
        metadata={"solver": SOLVER, "steps": grid.size - 1,
                  "scheme": label, "noise": {"delta": noise.delta, "gamma": noise.gamma},
                  "hermiticity_defect": float(max(herm0, herm)),
                  "min_eigenvalue": float(min_eig)},
    )


def sweep_delta(schedule, deltas, gamma: float = 0.0, n_samples: int = 401):
    """Rows (delta, P_+1, Hermiticity, trace and min-eigenvalue defects) of the
    final state from |-1>, all deltas in one stepper call that steps on the grid
    of :func:`run_lindblad` but samples only its end, so each row equals that
    run's final state."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.size == 0:
        raise ValueError("deltas must be non-empty")
    grid = _step_grid(schedule, np.linspace(*schedule.time_span, n_samples))
    rho0 = np.outer(KET_MINUS1, KET_MINUS1)
    finals = _propagate(schedule, rho0, grid[[0, -1]], deltas, gamma * _RELAXATION, grid)[:, -1]
    return np.column_stack([deltas, finals[:, 2, 2].real, *density_matrix_defects(finals)])


def _infidelities(schedule, deltas):
    """||psi_d - <psi_0|psi_d> psi_0||^2 per delta, psi_d = |psi(T; d)> from |-1>.

    One stepper call.  Equal to 1 - |<psi_0|psi_d>|^2 for unit states, but a
    sum of squares does not cancel to rounding noise at small delta.  psi_0 is solved
    once per schedule, in the first call's batch, and kept in its ``__dict__``.
    """
    known = "_unperturbed_final" in schedule.__dict__
    finals = propagate_state(schedule, KET_MINUS1, schedule.time_span,
                             delta=deltas if known else [0.0, *deltas])[:, -1]
    ref = schedule.__dict__.setdefault("_unperturbed_final", finals[0])
    perturbed = finals if known else finals[1:]
    residual = perturbed - np.outer(perturbed @ ref.conj(), ref)
    return np.sum(np.abs(residual) ** 2, axis=1)


def overlap_fidelity(schedule, delta: float) -> float:
    """|<psi(T; 0)|psi(T; delta)>|^2: fidelity against the unperturbed run.

    For schemes with exact ideal transfer this equals the final P_+1; for
    approximate ones (SRT) it isolates the noise-induced infidelity from the
    scheme's own ideal error floor.
    """
    return float(1.0 - _infidelities(schedule, [delta])[0])


def infidelity_scaling_exponent(schedule, delta_lo: float, delta_hi: float,
                                n: int = 7, floor: float = 1e-12) -> float:
    """Least-squares slope of log(1 - F) against log(delta), gamma = 0.

    1 - F is the cancellation-free infidelity against the unperturbed
    evolution; all deltas and the reference share one stepper call.
    Infidelities at or below ``floor`` are dropped as numerical noise;
    fewer than 3 surviving points is an error.
    """
    if not (0 < delta_lo < delta_hi):
        raise ValueError("need 0 < delta_lo < delta_hi")
    if n < 5:
        raise ValueError("need at least 5 sample points")
    deltas = np.geomspace(delta_lo, delta_hi, n)
    infidelities = _infidelities(schedule, deltas)
    keep = infidelities > floor
    if np.count_nonzero(keep) < 3:
        raise ValueError("fewer than 3 infidelity points above the numerical floor")
    slope = np.polyfit(np.log(deltas[keep]), np.log(infidelities[keep]), 1)[0]
    return float(slope)
