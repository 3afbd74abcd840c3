"""Comparison schemes: stimulated Raman transition, STIRAP, and the
constant resonant invariant-based shortcut pulse.

All parameters are angular frequencies (rad/us) and times (us).  Rabi
parameters are quoted lab-frame, as the field amplitudes seen by each leg;
reduced schedule amplitudes are lab / sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SQRT2
from .schedules import (DETUNING_MODE, MIN_GRID, ControlSchedule,
                        TwoToneSchedule)

TWO_SQRT2_PI = 2.0 * SQRT2 * np.pi


class BaselineParamError(ValueError):
    """A baseline parameter is out of range; carries the parameter name."""

    param = property(lambda self: self.args[0])  # args holds both parts, so it unpickles

    def __str__(self):
        return "%s %s" % self.args


@dataclass
class SrtParams:
    """Far-detuned Raman transfer through the virtually-populated |0>."""

    rabi: float = TWO_SQRT2_PI          # lab-frame Omega for both tones
    detuning: float = 8.0 * np.pi       # common intermediate-level detuning
    duration: float = None              # None: first P_+1 maximum

    def __post_init__(self):
        if self.rabi < 0:
            raise BaselineParamError("rabi", f"must be non-negative, got {self.rabi}")
        if self.detuning == 0:
            raise BaselineParamError("detuning", "must be nonzero for SRT")
        if self.duration is not None and self.duration <= 0:
            raise BaselineParamError("duration", f"must be positive, got {self.duration}")


@dataclass
class StirapParams:
    """Counterintuitively ordered Gaussian pulse pair."""

    peak: float = 5.0        # lab-frame Gaussian peak Omega_sti
    separation: float = 3.0  # pulse-centre spacing (pump centre - Stokes centre)
    width: float = 2.0       # Gaussian sigma
    window: float = 14.0     # total schedule duration

    def __post_init__(self):
        if self.peak < 0:
            raise BaselineParamError("peak", f"must be non-negative, got {self.peak}")
        for name in ("separation", "width", "window"):
            if getattr(self, name) <= 0:
                raise BaselineParamError(name, f"must be positive, got {getattr(self, name)}")

    @property
    def centers(self):
        """(Stokes, pump) Gaussian centres, symmetric about the midpoint."""
        mid = self.window / 2.0
        return mid - self.separation / 2.0, mid + self.separation / 2.0


@dataclass
class StaParams:
    """Constant resonant pulse executing an exact pi rotation."""

    rabi: float = SQRT2 * np.pi / 2.0  # lab-frame amplitude of both tones
    phase: float = 0.0
    duration: float = 2.0

    def __post_init__(self):
        if self.duration <= 0:
            raise BaselineParamError("duration", f"must be positive, got {self.duration}")
        area = (self.rabi / SQRT2) * self.duration
        if abs(area - np.pi) > 1e-9:
            raise BaselineParamError(
                "rabi", f"gives reduced pulse area {area}; a complete transfer needs pi")


def _constant_two_tone(amplitude, detuning, duration, n_samples, warnings=()):
    time = np.linspace(0.0, duration, n_samples)
    const = np.full(n_samples, amplitude)
    det = np.full(n_samples, detuning)
    zero = np.zeros(n_samples)
    return TwoToneSchedule(time=time, pump_omega=const, stokes_omega=const,
                           pump_delta=det, stokes_delta=det,
                           pump_phi=zero, stokes_phi=zero, warnings=warnings)


def _first_population_maximum(hamiltonian, horizon, smooth_window):
    """Time in [0, horizon] of the first local maximum of P_+1(t), ripple-smoothed, under
    a constant H: P_+1(t) = |sum_k V_2k conj(V_0k) exp(-i e_k t)|^2 from one ``eigh``
    H = V diag(e) V^dag, a closed form that picks a parameter, not an output path."""
    n_probe = 3001
    grid = np.linspace(0.0, horizon, n_probe)
    e, v = np.linalg.eigh(hamiltonian)
    amplitude = (np.exp(-1j * np.outer(grid, e)) * (v[2] * v[0].conj())).sum(axis=1)
    p_plus = np.abs(amplitude) ** 2  # a sum, not a BLAS product, which may start threads
    win = max(3, int(round(smooth_window / (grid[1] - grid[0]))))
    smooth = np.convolve(p_plus, np.ones(win) / win, mode="same")
    for i in range(1, n_probe - 1):
        if smooth[i] >= smooth[i - 1] and smooth[i] > smooth[i + 1] and smooth[i] > 0.5:
            lo, hi = max(i - win, 0), min(i + win, n_probe)
            return float(grid[lo + int(np.argmax(p_plus[lo:hi]))])
    return float(grid[int(np.argmax(p_plus))])


def srt_schedule(params: SrtParams = None, n_samples: int = MIN_GRID,
                 scan_horizon: float = 6.0) -> TwoToneSchedule:
    """Constant far-detuned two-tone schedule.

    Both tones are detuned by the same amount from the intermediate level
    (two-photon resonance between |-1> and |+1>).  With no duration given,
    the schedule stops at the first maximum of P_+1, which the
    ac-Stark corrections shift slightly away from pi / Omega_eff, with the
    two-photon Rabi frequency Omega_eff = rabi^2 / (2 |detuning|).
    """
    params = params or SrtParams()
    warnings = ()
    if abs(params.detuning) < 3.0 * params.rabi:
        warnings = (f"detuning/rabi ratio {abs(params.detuning) / params.rabi:.2f} "
                    "is below 3; adiabatic elimination is marginal",)
    reduced = params.rabi / SQRT2
    duration = params.duration
    if duration is None:
        fields = [reduced, 0.0, reduced, 0.0, params.detuning, params.detuning]  # at phase 0
        # smoothing window ~ one off-resonant ripple period
        duration = _first_population_maximum(np.tensordot(fields, TwoToneSchedule._BASIS, 1),
                                             scan_horizon, 2.0 * np.pi / abs(params.detuning))
    return _constant_two_tone(reduced, params.detuning, duration, n_samples, warnings)


def stirap_schedule(params: StirapParams = None, n_samples: int = 2801) -> TwoToneSchedule:
    """Gaussian pulse pair with the Stokes tone leading the pump tone.

    The default grid puts the default pulse centres exactly on grid points,
    so the interpolated envelopes hit their analytic peaks.
    """
    params = params or StirapParams()
    warnings = ()
    if params.window < params.separation + 4.0 * params.width:
        warnings = (f"window {params.window} us is shorter than separation + 4 sigma "
                    f"= {params.separation + 4 * params.width}; truncated Gaussian "
                    "tails may spoil adiabatic following",)
    mu_stokes, mu_pump = params.centers
    time = np.linspace(0.0, params.window, n_samples)
    reduced_peak = params.peak / SQRT2
    pump = reduced_peak * np.exp(-((time - mu_pump) ** 2) / (2.0 * params.width**2))
    stokes = reduced_peak * np.exp(-((time - mu_stokes) ** 2) / (2.0 * params.width**2))
    zero = np.zeros(n_samples)
    return TwoToneSchedule(time=time, pump_omega=pump, stokes_omega=stokes,
                           pump_delta=zero, stokes_delta=zero.copy(),
                           pump_phi=zero.copy(), stokes_phi=zero.copy(),
                           warnings=warnings)


def sta_schedule(params: StaParams = None, n_samples: int = MIN_GRID) -> ControlSchedule:
    """Constant resonant schedule: reduced Omega = rabi/sqrt(2), Delta = 0.

    The phase default of 0 makes the extracted invariant azimuth come out at
    beta = 3 pi / 2 (checked by test, not assumed); any constant phase
    realizes the same transfer.
    """
    params = params or StaParams()
    time = np.linspace(0.0, params.duration, n_samples)
    return ControlSchedule(
        time=time,
        omega=np.full(n_samples, params.rabi / SQRT2),
        delta=np.zeros(n_samples),
        phi=np.full(n_samples, params.phase),
        mode=DETUNING_MODE,
    )
