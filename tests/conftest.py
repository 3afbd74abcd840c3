import numpy as np
import pytest

import geodrive as gd
from geodrive import operators
from geodrive.baselines import srt_schedule, sta_schedule, stirap_schedule
from geodrive.invariants import angles_from_schedule
from geodrive.operators import K_Z, KET_MINUS1
from geodrive.simulate import relaxation_channels


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


def _dop853_oracle(schedule, deltas, gamma=None, times=None):
    """One adaptive DOP853 solve at rtol 1e-13 from |-1> under H(t) + delta K_z
    for all ``deltas`` at once, written without the stepper's Liouville lift.

    Returns the kets, shape (len(deltas), len(times), 3); with a relaxation
    rate ``gamma``, the density matrices of the master equation with the
    four relaxation channels, shape (len(deltas), len(times), 3, 3).
    ``times`` defaults to the schedule's end points.
    """
    shifts = np.multiply.outer(deltas, K_Z)
    t0, t1 = schedule.time_span
    times = np.array([t0, t1] if times is None else times)
    if gamma is None:
        def rhs(t, y):
            kets = y.reshape(len(deltas), 3, 1)
            return (-1j * ((schedule.hamiltonian(t) + shifts) @ kets)).ravel()
        y0, shape = np.tile(KET_MINUS1, len(deltas)), (3,)
    else:
        channels = [(jump, jump.conj().T, jump.conj().T @ jump) for jump in relaxation_channels()]

        def rhs(t, y):
            rho = y.reshape(len(deltas), 3, 3)
            h = schedule.hamiltonian(t) + shifts
            drho = -1j * (h @ rho - rho @ h)
            for jump, jump_dag, proj in channels:
                drho += gamma * (jump @ rho @ jump_dag - 0.5 * (proj @ rho + rho @ proj))
            return drho.ravel()
        y0, shape = np.tile(np.outer(KET_MINUS1, KET_MINUS1).ravel(), len(deltas)), (3, 3)
    sol = operators._integrate(rhs, y0, t0, t1, 1e-13, 1e-15, t_eval=times)
    return sol.y.T.reshape((len(times), len(deltas)) + shape).swapaxes(0, 1)
