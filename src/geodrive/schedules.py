"""Driving-field schedules and the curve <-> pulse maps.

The forward map turns sampled curve geometry into (Omega, Delta, phi); the
inverse map integrates the propagator, accumulates the noise integral
m(t) = int U^dag K_z U dt', and reads the curve back out of its spin-1
expansion.  The inverse map is the roundtrip oracle for the forward one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import curves as _curves
from .numerics import CubicHermite, centred_slopes, cumulative_simpson
from .operators import K_X, K_Y, K_Z, toggling_frame

PHASE_MODE = "phase"
DETUNING_MODE = "detuning"

MIN_GRID = 501


def _uniform(time):
    steps = np.diff(time)
    if steps.size == 0 or np.any(steps <= 0):
        raise ValueError("time grid must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-30):
        raise ValueError("time grid must be uniform")


class _InterpolatedFields:
    """Shared plumbing: the grid and field checks, one cached fourth-order
    interpolant over the stacked ``_FIELDS`` columns (cubic Hermite with the slopes
    of :func:`~geodrive.numerics.centred_slopes`), and range-checked field
    values, which each subclass maps to real ``fields(times)`` (..., f), with
    H = sum_i fields_i ``_BASIS``_i over a constant Hermitian (f, 3, 3) basis."""

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        n = self.time.size
        if n < MIN_GRID:
            raise ValueError(f"schedule grid needs at least {MIN_GRID} points, got {n}")
        _uniform(self.time)
        for name in self._FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must match the time grid")
            setattr(self, name, arr)

    def values(self, t):
        """Field values at t, one per entry of ``_FIELDS``; raises outside the grid."""
        t0, t1 = self.time_span
        if np.any(np.asarray(t) < t0 - 1e-12) or np.any(np.asarray(t) > t1 + 1e-12):
            raise ValueError(f"t = {t} outside schedule support [{t0}, {t1}]")
        if "_interpolant" not in self.__dict__:
            columns = np.stack([getattr(self, name) for name in self._FIELDS], axis=-1)
            self._interpolant = CubicHermite(self.time, columns, centred_slopes(self.time, columns))
        return tuple(np.moveaxis(self._interpolant(t)[0], -1, 0))

    @property
    def time_span(self):
        return float(self.time[0]), float(self.time[-1])

    @property
    def duration(self):
        t0, t1 = self.time_span
        return t1 - t0


@dataclass
class ControlSchedule(_InterpolatedFields):
    """Sampled common-envelope driving fields (Omega, Delta, phi).

    Units: time us, omega/delta rad/us, phi rad.  ``omega`` is the reduced
    Rabi frequency; the lab-frame pump/Stokes envelopes are sqrt(2)*omega
    with phases +-phi and detunings +-delta.  Values between grid points are
    cubic Hermite interpolated with fourth-order slopes, which need not keep
    the sign of the samples, so ``fields`` clamps Omega at 0; evaluation
    outside the grid raises.
    """

    time: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    mode: str = PHASE_MODE
    warnings: tuple = ()

    _FIELDS = ("omega", "delta", "phi")
    _BASIS = np.array([K_X, K_Y, K_Z])

    def __post_init__(self):
        super().__post_init__()
        if np.min(self.omega) < -1e-12:
            raise ValueError("omega must be non-negative")
        self.omega = np.maximum(self.omega, 0.0)
        if self.mode == PHASE_MODE and np.max(np.abs(self.delta)) > 1e-12:
            raise ValueError("phase-mode schedules must have delta == 0")
        if self.mode == DETUNING_MODE and np.ptp(self.phi) > 1e-12:
            raise ValueError("detuning-mode schedules must have constant phi")

    def fields(self, times):
        """(Omega cos phi, Omega sin phi, Delta) at ``times``, on (K_x, K_y, K_z)."""
        om, de, ph = self.values(np.asarray(times, dtype=float))
        om = np.maximum(om, 0.0)
        return np.stack([om * np.cos(ph), om * np.sin(ph), de], axis=-1)

    def rescaled(self, new_duration: float) -> "ControlSchedule":
        """Uniform time rescaling t -> s t with Omega, Delta scaled by 1/s.

        Phase values are carried over pointwise (phi-dot picks up the 1/s
        automatically), so the underlying curve shape is unchanged.
        """
        if new_duration <= 0:
            raise ValueError("duration must be positive")
        s = new_duration / self.duration
        return replace(self, time=self.time * s, omega=self.omega / s,
                       delta=self.delta / s)


@dataclass
class TwoToneSchedule(_InterpolatedFields):
    """Generalized schedule with independent pump and Stokes tones.

    The pump tone couples |-1> <-> |0>, the Stokes tone |0> <-> |+1>.
    Amplitudes are reduced (lab envelope / sqrt(2)), so a TwoToneSchedule
    with equal tones and opposite detunings/phases is exactly a
    ControlSchedule.  Used by the STIRAP and SRT baselines.
    """

    time: np.ndarray
    pump_omega: np.ndarray
    stokes_omega: np.ndarray
    pump_delta: np.ndarray
    stokes_delta: np.ndarray
    pump_phi: np.ndarray
    stokes_phi: np.ndarray
    warnings: tuple = ()

    _FIELDS = ("pump_omega", "stokes_omega", "pump_delta", "stokes_delta",
               "pump_phi", "stokes_phi")
    _BASIS = (np.array([K_X, K_Y, K_X, -K_Y, K_Z, -K_Z])
              * np.array([np.outer(v, v) for v in ([1, 1, 0], [0, 1, 1])])[[0, 0, 1, 1, 0, 1]])

    def __post_init__(self):
        super().__post_init__()
        if min(np.min(self.pump_omega), np.min(self.stokes_omega)) < -1e-12:
            raise ValueError("envelopes must be non-negative")

    def fields(self, times):
        """Omega cos phi, Omega sin phi of the pump, then of the Stokes tone, then the two
        detunings: the weights of each tone's part of K_x, K_y, K_x, -K_y, K_z, -K_z."""
        om_p, om_s, de_p, de_s, ph_p, ph_s = self.values(np.asarray(times, dtype=float))
        return np.stack([om_p * np.cos(ph_p), om_p * np.sin(ph_p),
                         om_s * np.cos(ph_s), om_s * np.sin(ph_s), de_p, de_s], axis=-1)


# ---------------------------------------------------------------------------
# forward map: geometry -> schedule
# ---------------------------------------------------------------------------

def synthesize(geometry: "_curves.CurveGeometry", mode: str = PHASE_MODE) -> ControlSchedule:
    """Turn sampled (kappa, tau) into a driving schedule.

    Omega(t) = kappa(t) in both modes.  Phase mode integrates the torsion,
    phi(t) = int_0^t tau (Simpson, phi(0) = 0) with Delta = 0; detuning mode
    sets Delta(t) = -tau(t) with phi = 0.  Either split realizes
    phi-dot - Delta = tau.
    """
    grid = np.asarray(geometry.time_grid, dtype=float)
    _uniform(grid)
    warnings = ()
    if geometry.flagged_count:
        warnings = (f"{geometry.flagged_count} torsion samples were flagged "
                    "(curvature below threshold); phase continued through them",)
    if mode not in (PHASE_MODE, DETUNING_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    phase, zeros = mode == PHASE_MODE, np.zeros_like(grid)
    return ControlSchedule(time=grid, omega=geometry.curvature.copy(),
                           delta=zeros if phase else -geometry.torsion,
                           phi=cumulative_simpson(geometry.torsion, grid) if phase else zeros,
                           mode=mode, warnings=warnings)


# ---------------------------------------------------------------------------
# inverse map: schedule -> curve (verification oracle)
# ---------------------------------------------------------------------------

def reconstruct_curve(schedule, n_samples: int = None) -> "_curves.ArcLengthCurve":
    """Recover r(t) from a schedule via the spin-1 expansion of m(t).

    The components are x = Tr(K_x m)/2 etc., accumulated by Simpson
    quadrature over the propagator samples.  The result is automatically
    unit-speed and starts at the origin with tangent +z; its azimuthal
    orientation is set by the schedule's initial phase.
    """
    if n_samples is None:
        n_samples = max(schedule.time.size, MIN_GRID)
    grid, mdot = toggling_frame(schedule, n_samples)
    tangents = np.stack([
        0.5 * np.einsum("ij,nji->n", k, mdot).real for k in (K_X, K_Y, K_Z)
    ], axis=1)
    positions = cumulative_simpson(tangents, grid)
    return _curves.from_samples(grid - grid[0], positions, tangents,
                                name=f"reconstructed({getattr(schedule, 'mode', 'schedule')})")


def end_distance(rec) -> float:
    """|r_rec(T)| of a reconstructed curve, which starts at the origin."""
    return float(np.linalg.norm(rec.position(rec.total_length)))


def noise_term(schedule) -> float:
    """Scaled Frobenius norm of m(T): the length |r(T)| of the traced curve.

    Zero (up to numerics) exactly when the schedule suppresses quasistatic
    K_z noise to second order.
    """
    return end_distance(reconstruct_curve(schedule))


def roundtrip_deviation(arc, schedule, n_samples: int = 1001) -> float:
    """Max |R_z(gamma) r(t) - r_rec(t)| between a curve and its reconstruction."""
    return curve_deviation(arc, reconstruct_curve(schedule), n_samples)


def curve_deviation(arc, rec, n_samples: int = 1001) -> float:
    """Max |R_z(gamma) r(t) - r_rec(t)| between a curve and a reconstruction.

    The curve is defined up to a global z-rotation, the constant-phase gauge of
    the driving fields.  gamma removes it as the least-squares rotation of the xy
    parts over the compared samples (2-D Procrustes): with z = x + iy,
    gamma = arg sum conj(z) z_rec.
    """
    grid = np.linspace(0.0, min(arc.total_length, rec.total_length), n_samples)
    reference, reconstructed = arc.position(grid), rec.position(grid)
    z, z_rec = (p[:, 0] + 1j * p[:, 1] for p in (reference, reconstructed))
    rotated = z * np.exp(1j * np.angle(np.vdot(z, z_rec)))
    return float(np.max(np.hypot(np.abs(rotated - z_rec), reference[:, 2] - reconstructed[:, 2])))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _rows(columns, end="\n"):
    """The text of equal-length number columns, one row per entry, each closed by ``end``:
    17 significant digits, -0 as 0, formatted by one ``%`` over the whole table."""
    table = np.column_stack(columns) + 0.0
    row_format = ",".join(["%.17g"] * table.shape[1]) + end
    return row_format * table.shape[0] % tuple(table.ravel().tolist())


def write_table(path, header, columns):
    """CSV with a header row and one row per entry of the columns, LF line ends."""
    with open(path, "w", newline="") as fh:
        fh.writelines([",".join(header) + "\n", _rows(columns)])


def json_text(payload) -> str:
    """The JSON of every artifact and report: sorted keys, 2-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_schedule_csv(schedule, path, sidecar_path=None, provenance=None):
    """Schedule CSV (t,omega,delta,phi per row) plus a JSON sidecar.

    Two-tone schedules get the per-tone column layout instead; the sidecar
    records which one was written.
    """
    write_table(path, ("t",) + schedule._FIELDS,
                [schedule.time] + [getattr(schedule, f) for f in schedule._FIELDS])
    if sidecar_path is not None:
        meta = {
            "layout": "two-tone" if isinstance(schedule, TwoToneSchedule) else "common-envelope",
            "mode": getattr(schedule, "mode", None),
            "duration_us": schedule.duration,
            "grid_size": int(schedule.time.size),
            "warnings": list(schedule.warnings),
        }
        with open(sidecar_path, "w") as fh:
            fh.write(json_text({**meta, **(provenance or {})}))


def read_schedule_csv(path, mode=PHASE_MODE):
    """Read back a common-envelope schedule CSV."""
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        if header[:4] != ["t", "omega", "delta", "phi"]:
            raise ValueError(f"{path}: expected columns t,omega,delta,phi")
        time, omega, delta, phi = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(4)).T
    return ControlSchedule(time=time, omega=omega, delta=delta, phi=phi, mode=mode)
