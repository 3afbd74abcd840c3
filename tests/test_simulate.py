import numpy as np
import pytest

from geodrive import operators, simulate
from geodrive.baselines import sta_schedule
from geodrive.schedules import ControlSchedule
from geodrive.simulate import (NoiseModel, infidelity_scaling_exponent,
                               overlap_fidelity, relaxation_channels,
                               run_lindblad, run_schrodinger, sweep_delta)
from physics import KET_0, dissipator_superoperator

GAMMA_NV = 0.002  # 2 kHz in rad/us


def constant_pulse_fidelity(delta):
    """Closed-form final P_+1 of the constant pi pulse under delta K_z."""
    x2 = (2.0 * delta / np.pi) ** 2
    p = np.sin(0.5 * np.pi * np.sqrt(1.0 + x2)) ** 2 / (1.0 + x2)
    return p ** 2


def quiet_schedule(duration=1.0, n=501):
    t = np.linspace(0, duration, n)
    z = np.zeros(n)
    return ControlSchedule(time=t, omega=z, delta=z.copy(), phi=z.copy())


class TestSchrodinger:
    def test_geometric_ideal_transfer(self, scaled_schedule):
        result = run_schrodinger(scaled_schedule)
        assert result.final_fidelity >= 1 - 1e-6
        assert result.trace_defect <= 1e-9

    def test_populations_sum_to_one(self, scaled_schedule):
        result = run_schrodinger(scaled_schedule, NoiseModel(delta=0.3))
        sums = result.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1)) <= 1e-6

    def test_center_mode_returns_home(self, scaled_schedule):
        # theta(T) = pi maps the middle dynamical mode back onto |0>
        result = run_schrodinger(scaled_schedule, initial=KET_0)
        assert result.populations[-1, 1] >= 1 - 1e-6

    def test_rejects_relaxation(self, scaled_schedule):
        with pytest.raises(ValueError):
            run_schrodinger(scaled_schedule, NoiseModel(gamma=0.001))


class TestLindblad:
    def test_channels_connect_center_level_only(self):
        for op in relaxation_channels():
            assert op[0, 2] == 0 and op[2, 0] == 0  # no direct -1 <-> +1 jumps

    def test_oracle_superoperator_matches_channel_sum(self, rng):
        # the DOP853 oracle's one (9, 9) dissipator against the per-channel sum
        z = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        rho = z @ z.conj().swapaxes(1, 2)
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
        expected = sum(jump @ rho @ jump.conj().T
                       - 0.5 * (jump.conj().T @ jump @ rho + rho @ jump.conj().T @ jump)
                       for jump in relaxation_channels())
        superoperator = dissipator_superoperator(relaxation_channels())
        got = (rho.reshape(20, 9) @ superoperator.T).reshape(20, 3, 3)
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_matches_schrodinger_without_relaxation(self, scaled_schedule):
        noise = NoiseModel(delta=0.4)
        pure = run_schrodinger(scaled_schedule, noise, n_samples=201)
        mixed = run_lindblad(scaled_schedule, noise, n_samples=201)
        assert np.max(np.abs(pure.populations - mixed.populations)) <= 1e-8

    def test_trace_preserved_under_relaxation(self):
        result = run_lindblad(quiet_schedule(300.0), NoiseModel(gamma=GAMMA_NV))
        assert result.trace_defect <= 1e-8

    def test_relaxation_drives_toward_uniformity(self):
        # slowest relaxation mode decays at rate Gamma: run ~5 time constants
        result = run_lindblad(quiet_schedule(2500.0), NoiseModel(gamma=GAMMA_NV))
        assert np.allclose(result.populations[-1], 1 / 3, atol=0.05)
        # monotone decay out of the initial level
        assert np.all(np.diff(result.populations[:, 0]) <= 1e-12)

    def test_uniform_state_is_stationary(self):
        rho0 = np.eye(3, dtype=complex) / 3
        result = run_lindblad(quiet_schedule(50.0), NoiseModel(gamma=GAMMA_NV),
                              initial=rho0)
        assert np.max(np.abs(result.populations - 1 / 3)) <= 1e-9

    def test_positivity_and_hermiticity_reported(self, scaled_schedule):
        result = run_lindblad(scaled_schedule, NoiseModel(delta=0.5, gamma=GAMMA_NV))
        assert result.metadata["min_eigenvalue"] >= -1e-8
        assert result.metadata["hermiticity_defect"] <= 1e-8

    def test_noisy_transfer_stays_high(self, scaled_schedule):
        result = run_lindblad(scaled_schedule, NoiseModel(delta=0.5, gamma=GAMMA_NV))
        assert result.final_fidelity >= 0.98

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(gamma=-0.1)

    def test_invalid_initial_density_rejected(self):
        bad = np.diag([0.7, 0.7, 0.0]).astype(complex)  # trace 1.4
        with pytest.raises(ValueError, match="density"):
            run_lindblad(quiet_schedule(1.0), NoiseModel(gamma=GAMMA_NV), initial=bad)

    def test_scheme_label_recorded(self, scaled_schedule):
        result = run_schrodinger(scaled_schedule, n_samples=51, label="geometric")
        assert result.metadata["scheme"] == "geometric"

    def test_runs_are_deterministic(self, scaled_schedule):
        noise = NoiseModel(delta=0.21, gamma=GAMMA_NV)
        first = run_lindblad(scaled_schedule, noise, n_samples=101)
        second = run_lindblad(scaled_schedule, noise, n_samples=101)
        assert np.array_equal(first.populations, second.populations)


SCHEMES = ["scaled_schedule", "srt", "stirap", "sta"]
ORACLE_DELTAS = [0.0, 0.5, -0.3]
ORACLE_GAMMA = 0.004


@pytest.mark.parametrize("scheme", SCHEMES)
class TestLindbladStepper:
    """The Liouville-space Magnus stepper against one DOP853 solve."""

    def test_matches_dop853_oracle(self, scheme, request, dop853_oracle):
        schedule = request.getfixturevalue(scheme)
        times = np.linspace(*schedule.time_span, 51)
        oracle = dop853_oracle(schedule, ORACLE_DELTAS, gamma=ORACLE_GAMMA, times=times)
        for delta, rhos in zip(ORACLE_DELTAS, oracle):
            result = run_lindblad(schedule, NoiseModel(delta=delta, gamma=ORACLE_GAMMA),
                                  n_samples=times.size)
            expected = np.real(np.diagonal(rhos, axis1=1, axis2=2))
            assert np.max(np.abs(result.populations - expected)) <= 1e-8
            assert result.trace_defect <= 1e-12

    def test_batch_member_equals_single_delta(self, scheme, request):
        schedule = request.getfixturevalue(scheme)
        rows = sweep_delta(schedule, ORACLE_DELTAS, gamma=ORACLE_GAMMA, n_samples=51)
        for delta, row in zip(ORACLE_DELTAS, rows):
            single = run_lindblad(schedule, NoiseModel(delta=delta, gamma=ORACLE_GAMMA),
                                  n_samples=51)
            assert abs(row[1] - single.final_fidelity) <= 1e-12


class TestSweep:
    def test_zero_row_matches_single_run(self, scaled_schedule):
        rows = sweep_delta(scaled_schedule, [0.0], gamma=GAMMA_NV, n_samples=101)
        single = run_lindblad(scaled_schedule, NoiseModel(gamma=GAMMA_NV),
                              n_samples=101)
        assert rows[0, 1] == single.final_fidelity

    def test_robustness_curve_nearly_symmetric(self, scaled_schedule):
        deltas = np.array([-0.4, -0.2, 0.2, 0.4])
        rows = sweep_delta(scaled_schedule, deltas, gamma=0.0, n_samples=101)
        assert abs(rows[0, 1] - rows[3, 1]) <= 2e-3
        assert abs(rows[1, 1] - rows[2, 1]) <= 2e-3

    def test_geometric_dominates_baselines(self, scaled_schedule, sta, srt):
        # ordering claim away from delta = 0, where all schemes are
        # relaxation-limited and essentially tie
        deltas = np.array([-0.5, -0.25, 0.25, 0.5])
        geo = sweep_delta(scaled_schedule, deltas, gamma=GAMMA_NV, n_samples=201)
        sta_rows = sweep_delta(sta, deltas, gamma=GAMMA_NV, n_samples=201)
        srt_rows = sweep_delta(srt, deltas, gamma=GAMMA_NV, n_samples=201)
        assert np.all(geo[:, 1] >= sta_rows[:, 1])
        assert np.all(geo[:, 1] >= srt_rows[:, 1])

    def test_defects_reported_per_delta(self, scaled_schedule):
        deltas = np.array([-0.5, 0.0, 0.3])
        rows = sweep_delta(scaled_schedule, deltas, gamma=GAMMA_NV, n_samples=101)
        assert rows.shape == (3, 5)
        for delta, row in zip(deltas, rows):
            single = run_lindblad(scaled_schedule, NoiseModel(delta=delta, gamma=GAMMA_NV),
                                  n_samples=101)
            herm, trace, min_eig = row[2:]
            assert trace == pytest.approx(single.trace_defect, abs=1e-14)
            assert min_eig == pytest.approx(single.metadata["min_eigenvalue"], abs=1e-12)
            assert herm <= single.metadata["hermiticity_defect"] + 1e-14
            assert trace <= 1e-12 and herm <= 1e-12 and min_eig >= -1e-8

    def test_wide_sweep_memory(self, stirap, peak_bytes):
        # 3 MB: the sweep keeps only each delta's final state (1.97 MB measured);
        # a build of every step's generators at once would hold 2 x 2800 x 101 of them
        deltas = np.linspace(-0.8, 0.8, 101)
        sweep_delta(stirap, deltas[:2], gamma=0.003)  # the schedule's lazy interpolant
        rows, peak = peak_bytes(lambda: sweep_delta(stirap, deltas, gamma=0.003, n_samples=401))
        assert peak <= 3.0e6
        assert np.max(rows[:, 3]) <= 1e-13 and np.max(rows[:, 2]) == 0.0

    def test_dense_lindblad_memory(self, stirap, peak_bytes):
        # 3 MB: 2.6 MB measured for 1001 samples over 3600 steps with three 64-step
        # blocks per build (2.0 MB with one)
        noise = NoiseModel(delta=0.3, gamma=0.003)
        run_lindblad(stirap, noise, n_samples=11)  # the schedule's lazy interpolant
        result, peak = peak_bytes(lambda: run_lindblad(stirap, noise, n_samples=1001))
        assert peak <= 3.0e6
        assert result.trace_defect <= 1e-12

    def test_empty_grid_rejected(self, sta):
        with pytest.raises(ValueError):
            sweep_delta(sta, [])


class TestScalingExponents:
    def test_geometric_quartic_suppression(self, scaled_schedule):
        exponent = infidelity_scaling_exponent(scaled_schedule, 0.01, 0.1)
        assert exponent == pytest.approx(4.0, abs=0.01)
        # the estimator has no cancellation floor down to delta = 1e-3
        wide = infidelity_scaling_exponent(scaled_schedule, 1e-3, 0.1, n=9)
        assert wide == pytest.approx(4.0, abs=0.01)

    def test_sta_quadratic(self, sta):
        assert infidelity_scaling_exponent(sta, 0.01, 0.1) == pytest.approx(2.0, abs=0.2)

    def test_srt_quadratic(self, srt):
        assert infidelity_scaling_exponent(srt, 0.01, 0.1) == pytest.approx(2.0, abs=0.3)

    def test_floor_exclusion_error(self, scaled_schedule):
        # far below the numerical floor every point is discarded
        with pytest.raises(Exception, match="floor|fewer"):
            infidelity_scaling_exponent(scaled_schedule, 1e-9, 3e-9, n=5)

    def test_bad_range_rejected(self, sta):
        with pytest.raises(ValueError):
            infidelity_scaling_exponent(sta, 0.1, 0.01)

    def test_reference_state_propagated_once(self, solves):
        sta = sta_schedule()  # fresh: a shared schedule may already hold its unperturbed ket
        infidelity_scaling_exponent(sta, 0.01, 0.1, n=5)
        assert len(solves) == 1
        assert solves[0][0] == 0.0 and len(solves[0]) == 5 + 1
        cached = overlap_fidelity(sta, 0.05)  # later calls solve only their own deltas
        assert solves[1:] == [[0.05]]
        assert cached == overlap_fidelity(sta_schedule(), 0.05)

    def test_overlap_equals_population_for_exact_transfer(self, scaled_schedule):
        pop = run_schrodinger(scaled_schedule, NoiseModel(delta=0.05)).final_fidelity
        ovl = overlap_fidelity(scaled_schedule, 0.05)
        assert ovl == pytest.approx(pop, abs=1e-8)


@pytest.mark.parametrize("run", [run_schrodinger, run_lindblad])
def test_one_step_grid_per_solve(monkeypatch, stirap, run):
    """The steps in the metadata come from the grid the solve stepped on."""
    grids = []
    build = operators._step_grid

    def counted(schedule, times):
        grids.append(build(schedule, times))
        return grids[-1]

    monkeypatch.setattr(operators, "_step_grid", counted)
    monkeypatch.setattr(simulate, "_step_grid", counted)
    result = run(stirap, NoiseModel(delta=0.1), n_samples=301)
    assert len(grids) == 1
    assert result.metadata["steps"] == grids[0].size - 1 > stirap.time.size - 1


@pytest.mark.parametrize("delta", [0.05, -0.05, 0.5])
class TestConstantPulseOracle:
    """The delta path against the constant pulse's closed form F = p^2."""

    def test_overlap_fidelity(self, sta, delta):
        assert overlap_fidelity(sta, delta) == pytest.approx(
            constant_pulse_fidelity(delta), abs=1e-10)

    def test_schrodinger_final_population(self, sta, delta):
        result = run_schrodinger(sta, NoiseModel(delta=delta))
        assert result.final_fidelity == pytest.approx(
            constant_pulse_fidelity(delta), abs=1e-9)
