import numpy as np
import pytest

import geodrive as gd
from geodrive import operators
from geodrive.baselines import srt_schedule, sta_schedule, stirap_schedule
from geodrive.invariants import angles_from_schedule


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

    def counted(schedule, y0, times, deltas):
        calls.append(list(deltas))
        return propagate(schedule, y0, times, deltas)

    monkeypatch.setattr(operators, "_propagate", counted)
    return calls
