import bisect
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import geodrive as gd
from geodrive import operators
from geodrive.baselines import srt_schedule, sta_schedule, stirap_schedule
from geodrive.invariants import angles_from_schedule
from geodrive.operators import K_Z, KET_MINUS1
from geodrive.schedules import ControlSchedule
from geodrive.simulate import relaxation_channels
from physics import dissipator_superoperator, fd4_slopes


@pytest.fixture(scope="session")
def reference_arc():
    return gd.reparametrize_by_arclength(gd.reference_curve())


@pytest.fixture(scope="session")
def reference_geometry(reference_arc):
    return gd.curvature_torsion(reference_arc)


@pytest.fixture(scope="session")
def natural_schedule(reference_geometry):
    return gd.synthesize(reference_geometry, mode="phase")


@pytest.fixture(scope="session")
def scaled_schedule(natural_schedule):
    return natural_schedule.rescaled(2.0)


@pytest.fixture(scope="session")
def detuning_schedule(reference_geometry):
    return gd.synthesize(reference_geometry, mode="detuning")


@pytest.fixture(scope="session")
def sta():
    return sta_schedule()


@pytest.fixture(scope="session")
def srt():
    return srt_schedule()


@pytest.fixture(scope="session")
def stirap():
    return stirap_schedule()


@pytest.fixture(scope="session")
def geometric_angles(scaled_schedule):
    return angles_from_schedule(scaled_schedule)


@pytest.fixture(scope="session")
def sta_angles(sta):
    return angles_from_schedule(sta)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def peak_bytes():
    return _peak_bytes


def _peak_bytes(fn):
    """(fn(), the peak in bytes of the memory that tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def solves(monkeypatch):
    """The deltas of every unitary propagation made through operators._propagate."""
    calls = []
    propagate = operators._propagate

    def counted(schedule, y0, times, deltas, dissipator=None):
        calls.append(list(deltas))
        return propagate(schedule, y0, times, deltas, dissipator)

    monkeypatch.setattr(operators, "_propagate", counted)
    return calls


@pytest.fixture(scope="session")
def dop853_oracle():
    return _dop853_oracle


def _oracle_hamiltonian(schedule):
    """H(t) of a schedule from scipy's cubic Hermite spline over its ``_FIELDS`` with
    the tests' own fourth-order slopes, independent of the program's interpolant:
    the piece by ``bisect``, each field by a float Horner step over the piece's
    coefficients held as Python lists."""
    columns = np.stack([getattr(schedule, name) for name in schedule._FIELDS], axis=-1)
    spline = CubicHermiteSpline(schedule.time, columns, fd4_slopes(schedule.time, columns))
    knots, coeffs = spline.x.tolist(), spline.c.transpose(1, 2, 0).tolist()

    def hamiltonian(t):  # t in [t0, t1], where the piece index runs from 0 to len(coeffs) - 1
        piece = min(bisect.bisect_right(knots, t), len(coeffs)) - 1
        x = float(t) - knots[piece]
        fields = [((c3 * x + c2) * x + c1) * x + c0 for c3, c2, c1, c0 in coeffs[piece]]
        if isinstance(schedule, ControlSchedule):  # the two tones of a common envelope
            omega, delta, phi = fields
            fields = [max(omega, 0.0), max(omega, 0.0), delta, -delta, phi, -phi]
        om_p, om_s, de_p, de_s, ph_p, ph_s = fields
        pump = om_p / math.sqrt(2.0) * cmath.exp(-1j * ph_p)
        stokes = om_s / math.sqrt(2.0) * cmath.exp(1j * ph_s)
        return np.array([de_p, pump, 0.0, pump.conjugate(), 0.0, stokes,
                         0.0, stokes.conjugate(), de_s], dtype=complex).reshape(3, 3)

    return hamiltonian


def _dop853_oracle(schedule, deltas, gamma=None, times=None):
    """One adaptive DOP853 solve at rtol 1e-13 from |-1> under H(t) + delta K_z
    for all ``deltas`` at once, with its own H(t) and without the stepper's Liouville lift.

    Returns the kets, shape (len(deltas), len(times), 3); with a relaxation
    rate ``gamma``, the density matrices of the master equation with the
    four relaxation channels, shape (len(deltas), len(times), 3, 3).
    ``times`` defaults to the schedule's end points.
    """
    shifts, hamiltonian = np.multiply.outer(deltas, K_Z), _oracle_hamiltonian(schedule)
    t0, t1 = schedule.time_span
    times = np.array([t0, t1] if times is None else times)
    if gamma is None:
        def rhs(t, y):
            kets = y.reshape(len(deltas), 3, 1)
            return (-1j * ((hamiltonian(t) + shifts) @ kets)).ravel()
        y0, shape = np.tile(KET_MINUS1, len(deltas)), (3,)
    else:
        dissipator = (gamma * dissipator_superoperator(relaxation_channels())).T

        def rhs(t, y):
            rho = y.reshape(len(deltas), 3, 3)
            h = hamiltonian(t) + shifts
            drho = -1j * (h @ rho - rho @ h)
            return (drho.reshape(len(deltas), 9) + rho.reshape(len(deltas), 9) @ dissipator).ravel()
        y0, shape = np.tile(np.outer(KET_MINUS1, KET_MINUS1).ravel(), len(deltas)), (3, 3)
    sol = operators._integrate(rhs, y0, t0, t1, 1e-13, 1e-15, t_eval=times)
    return sol.y.T.reshape((len(times), len(deltas)) + shape).swapaxes(0, 1)


@pytest.fixture(scope="session")
def block_reference():
    return _block_reference


def _per_matrix_expm(a):
    """operators._expm with each matrix's own 1-norm and the polynomial in expression
    form: scaled by 2^-s to 1-norm <= operators._THETA8, X = exp(a / 2^s) - I from the
    degree 8 of operators._taylor8, s squarings X <- 2 X + X X, then I + X.  The
    arithmetic that its whole-stack bound and its in-place stages must keep, bit for bit."""
    ops, eye = operators, np.eye(a.shape[-1])
    mantissa, squarings = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / ops._THETA8)
    squarings = np.maximum(squarings - (mantissa == 0.5), 0)
    a = a * np.ldexp(1.0, -squarings)[..., None, None]
    x2, x3, x4, x5, x6, x7, y2 = (ops._X2, ops._X3, ops._X4, ops._X5, ops._X6, ops._X7, ops._Y2)
    a2 = a @ a
    b = a2 @ (4.0 * a + a2)  # a4 / x2
    a8 = (x3 / x2 * a2 + b) @ (x2 * x2 * x7 * b + x2 * x6 * a2 + x2 * x5 * a + x2 * x4 * eye)
    x = a8 + y2 * a2 + a
    for i in range(squarings.max(initial=0)):
        more = squarings > i
        x[more] = 2.0 * x[more] + x[more] @ x[more]
    return x + eye


def _block_reference(schedule, y0, times, deltas, dissipator=None):
    """operators._propagate one block of _BLOCK steps at a time, all deltas at
    once, with _per_matrix_expm: the association and the arithmetic that its
    grouped builds must keep, bit for bit.  Each block's exponents are its rows
    of operators._magnus_terms times each delta's table, as in the program, and
    zero rows fill the last block up; the last sample is read after them.  The
    block's product is a pairwise up-sweep, and every step's end state comes
    from a full down-sweep: an odd child takes its parent's end state, an even
    child its node times the state that enters its parent."""
    ops, times = operators, np.asarray(times, dtype=float)
    grid = ops._step_grid(schedule, times)
    embed, w, t0, t1 = ops._magnus_terms(schedule, grid, dissipator)
    n = embed.shape[1]
    w = np.concatenate([w, np.zeros((-len(w) % ops._BLOCK, w.shape[1]))])
    tables = t0 + np.multiply.outer(np.asarray(deltas, dtype=float), t1)
    start = np.reshape(y0, (embed.shape[0], -1))
    state = np.repeat((embed.conj().T @ start).real[None], len(tables), axis=0)
    rows = np.append(np.searchsorted(grid, times[:-1]), len(w))
    samples = np.empty((len(tables), times.size) + start.shape, dtype=complex)
    for lo in range(0, len(w), ops._BLOCK):
        a = (w[lo:lo + ops._BLOCK] @ tables).swapaxes(0, 1)  # (steps, deltas, n^2)
        tree = [_per_matrix_expm(a.reshape(a.shape[:2] + (n, n)))]
        while len(tree[-1]) > 1:
            tree.append(tree[-1][1::2] @ tree[-1][::2])
        ends = tree.pop() @ state  # the end state of each node of a level, from the root
        for p in reversed(tree):
            enter = [state, *ends[:-1]]
            ends = np.array([p[i] @ enter[i // 2] if i % 2 == 0 else ends[i // 2]
                             for i in range(len(p))])
        state = ends[-1]
        taken = np.flatnonzero((rows > lo) & (rows <= lo + ops._BLOCK))
        samples[:, taken] = (embed @ ends[rows[taken] - lo - 1]).swapaxes(0, 1)
    samples[:, 0] = start
    return samples.reshape(samples.shape[:2] + np.shape(y0))
