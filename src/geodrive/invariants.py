"""Dynamical-invariant machinery for the driven three-level system.

The propagator of any schedule built from the K operators factors as
U(t, 0) = e^{-i beta K_z} e^{-i theta K_y} e^{i (alpha + beta0) K_z},
where (theta, beta) orient the invariant's eigenframe, alpha is the
accumulated mode phase, and beta0 is the constant azimuth of the initial
eigenframe.  This module extracts those angles from integrated propagators
and evaluates the second-order perturbative fidelity under a quasistatic K_z
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import simpson
from .operators import _ENTRIES, SQRT2, propagate_operator, toggling_frame


#: the largest Frobenius deviation of the rebuilt three-angle propagator
RESIDUAL_TOL = 1e-6


class InconsistentAnglesError(RuntimeError):
    """Propagator samples do not fit the three-angle factorization."""


def invariant_eigenstates(theta, beta):
    """Eigenstates of the invariant for eigenvalues (+1, 0, -1).

    Vectorized over the leading axes of theta and beta; each state has the
    shape of the broadcast inputs plus a trailing axis of 3.  Assembled so
    that phi3 is exactly the flip-conjugate of phi1 sample by sample; the
    mode-phase identities then cancel at machine precision.
    """
    theta, beta = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                      np.asarray(beta, dtype=float))
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    sn = np.sin(theta) / SQRT2
    e = np.exp(1j * beta)
    phi1 = np.stack([c2 * e.conj(), sn + 0j, s2 * e], axis=-1)
    phi2 = np.stack([-sn * e.conj(), np.cos(theta) + 0j, sn * e], axis=-1)
    phi3 = np.stack([s2 * e.conj(), -sn + 0j, c2 * e], axis=-1)
    return phi1, phi2, phi3


def evolution_operator(theta, beta, alpha):
    """The three-angle propagator matrix (vectorized over leading axes).

    Its columns are the invariant eigenstates times e^{i alpha}, 1 and
    e^{-i alpha}.
    """
    phi1, phi2, phi3 = invariant_eigenstates(theta, beta)
    ea = np.exp(1j * np.asarray(alpha, dtype=float))[..., None]
    return np.stack([phi1 * ea, phi2, phi3 * ea.conj()], axis=-1)


@dataclass
class InvariantAngles:
    """Continuous (theta, beta, alpha) extracted from a propagator.

    ``frame_offset`` is beta(0+): the initial eigenframe azimuth.
    ``evolution_operator(theta, beta, alpha + frame_offset)`` rebuilds the
    integrated ``propagators``; the reported alpha is normalized so
    alpha(0) = 0, matching the mode-phase integral.
    """

    time: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    frame_offset: float
    residual: float
    propagators: np.ndarray = None


def _fill_invalid(values, valid):
    """Replace invalid entries by their nearest preceding valid neighbour."""
    if not valid.any():
        return values.copy()
    idx = np.where(valid, np.arange(valid.size), -1)
    np.maximum.accumulate(idx, out=idx)
    idx[idx < 0] = np.argmax(valid)  # leading gap backfills from first valid
    return values[idx]


def _unwrap_masked(raw, valid):
    out = raw.copy()
    if valid.any():
        out[valid] = np.unwrap(raw[valid])
    return _fill_invalid(out, valid)


def _fit_euler_angles(props):
    """Least-squares (theta, B, C) fit of U = e^{-iB Kz} e^{-i th Ky} e^{iC Kz}.

    Four redundant phase observations are fused per sample, each weighted by
    its squared magnitude, so the fit stays conditioned through the
    sin(theta) -> 0 regions where individual off-diagonal phases blow up.
    """
    e_b = props[:, 2, 1] - props[:, 0, 1].conj()     # 2 sn e^{iB}
    e_c = props[:, 1, 0] - props[:, 1, 2].conj()     # 2 sn e^{iC}
    e_p = props[:, 2, 2] + props[:, 0, 0].conj()     # 2 cos^2(th/2) e^{i(B-C)}
    e_q = props[:, 2, 0] + props[:, 0, 2].conj()     # 2 sin^2(th/2) e^{i(B+C)}

    sin_est = (np.abs(e_b) + np.abs(e_c)) / (2.0 * SQRT2)
    theta = np.arctan2(sin_est, props[:, 1, 1].real)

    tiny = 1e-8
    b_hat = _unwrap_masked(np.angle(e_b), np.abs(e_b) > tiny)
    c_hat = _unwrap_masked(np.angle(e_c), np.abs(e_c) > tiny)
    p_hat = _unwrap_masked(np.angle(e_p), np.abs(e_p) > tiny)
    q_hat = _unwrap_masked(np.angle(e_q), np.abs(e_q) > tiny)
    two_pi = 2.0 * np.pi
    p_hat += two_pi * np.round(((b_hat - c_hat) - p_hat) / two_pi)
    q_hat += two_pi * np.round(((b_hat + c_hat) - q_hat) / two_pi)

    # Weighted least squares in (B, C).  The tiny Tikhonov term pulls toward
    # the (gap-filled) off-diagonal observations, which implements the
    # carry-over of the azimuths through sin(theta) -> 0 zones: there only
    # B - C (theta = 0 pole) or B + C (theta = pi pole) is physical, and the
    # corresponding e_p / e_q observation keeps full weight.
    w_b, w_c = np.abs(e_b) ** 2, np.abs(e_c) ** 2
    w_p, w_q = np.abs(e_p) ** 2, np.abs(e_q) ** 2
    lam = 1e-9 * (w_b + w_c + w_p + w_q) + 1e-300
    a11 = w_b + w_p + w_q + lam
    a22 = w_c + w_p + w_q + lam
    a12 = w_q - w_p
    rhs1 = (w_b + lam) * b_hat + w_p * p_hat + w_q * q_hat
    rhs2 = (w_c + lam) * c_hat - w_p * p_hat + w_q * q_hat
    det = a11 * a22 - a12 * a12
    big_b = (rhs1 * a22 - a12 * rhs2) / det
    big_c = (a11 * rhs2 - a12 * rhs1) / det
    return theta, big_b, big_c


def angles_from_schedule(schedule, n_samples: int = 10_001) -> InvariantAngles:
    """Extract continuous invariant angles from an integrated propagator.

    theta comes from the central matrix element, the azimuths from a fused
    phase fit; beta0 is extrapolated to t = 0 from the first well-resolved
    window.  Raises :class:`InconsistentAnglesError` if the rebuilt
    three-angle propagator deviates from the integrated one by more than
    ``RESIDUAL_TOL`` in Frobenius norm; it is rebuilt one block of samples at
    a time, so no full-length temporary outlives its block.
    """
    t0, t1 = schedule.time_span
    times = np.linspace(t0, t1, n_samples)
    props = propagate_operator(schedule, times)
    theta, big_b, big_c = _fit_euler_angles(props)

    # initial-frame azimuth: quadratic extrapolation over the first samples
    # where the off-diagonals are well above the integrator noise floor
    window = np.flatnonzero(np.sin(theta) >= 1e-3)[:60]
    if window.size >= 3:
        frame_offset = float(np.polyval(np.polyfit(times[window] - t0, big_b[window], 2), 0.0))
    else:
        frame_offset = float(big_b[window[0]]) if window.size else 0.0

    alpha = big_c - frame_offset
    block = _ENTRIES // 9  # samples per rebuilt block: the stepper's build bound on 3 x 3 entries
    residual = max(float(np.max(np.linalg.norm(
        evolution_operator(theta[i:i + block], big_b[i:i + block], big_c[i:i + block])
        - props[i:i + block], axis=(1, 2)))) for i in range(0, n_samples, block))
    if residual > RESIDUAL_TOL:
        raise InconsistentAnglesError(
            f"three-angle factorization residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return InvariantAngles(time=times, theta=theta, beta=big_b, alpha=alpha,
                           frame_offset=frame_offset, residual=residual,
                           propagators=props)


def noise_suppression_term(schedule, n_samples: int = 2001) -> float:
    """The delta^2 coefficient of the perturbative infidelity.

    Sums |int <psi_1| K_z |psi_n> dt|^2 over the two other dynamical modes,
    with the modes obtained by propagating the basis states under the ideal
    schedule.  Kept per ``n_samples`` in the schedule's ``__dict__``: one solve per schedule.
    """
    memo = schedule.__dict__.setdefault("_noise_terms", {})
    if n_samples not in memo:
        times, mdot = toggling_frame(schedule, n_samples)
        memo[n_samples] = float(np.sum(np.abs(simpson(mdot[:, 0, 1:], times)) ** 2))
    return memo[n_samples]


def perturbative_fidelity(schedule, delta: float, n_samples: int = 2001) -> float:
    """Second-order fidelity estimate 1 - delta^2 * (noise term)."""
    noise = noise_suppression_term(schedule, n_samples)
    return float(np.clip(1.0 - delta**2 * noise, 0.0, 1.0))
