from dataclasses import replace

import numpy as np
import pytest
from geodrive.numerics import CubicHermite

from geodrive.curves import (curvature_torsion, curve_from_expressions,
                             reparametrize_by_arclength)
from geodrive.operators import K_Z, KET_MINUS1, propagate_state
from geodrive.schedules import (ControlSchedule, noise_term, read_schedule_csv,
                                reconstruct_curve, roundtrip_deviation,
                                synthesize, write_schedule_csv)
from physics import as_two_tone, commutator, hamiltonians, scaled_frobenius_norm

N = 501


def zero_schedule(duration=1.5, n=N):
    t = np.linspace(0, duration, n)
    z = np.zeros(n)
    return ControlSchedule(time=t, omega=z, delta=z.copy(), phi=z.copy())


class TestControlScheduleContract:
    def test_requires_minimum_grid(self):
        t = np.linspace(0, 1, 100)
        z = np.zeros(100)
        with pytest.raises(ValueError, match="at least"):
            ControlSchedule(time=t, omega=z, delta=z, phi=z)

    def test_requires_uniform_grid(self):
        t = np.linspace(0, 1, N) ** 2
        z = np.zeros(N)
        with pytest.raises(ValueError, match="uniform"):
            ControlSchedule(time=t, omega=z, delta=z, phi=z)

    def test_rejects_negative_omega(self):
        t = np.linspace(0, 1, N)
        z = np.zeros(N)
        with pytest.raises(ValueError, match="non-negative"):
            ControlSchedule(time=t, omega=z - 0.5, delta=z, phi=z)

    def test_phase_mode_forbids_detuning(self):
        t = np.linspace(0, 1, N)
        z = np.zeros(N)
        with pytest.raises(ValueError, match="delta"):
            ControlSchedule(time=t, omega=z, delta=z + 1.0, phi=z, mode="phase")

    def test_detuning_mode_needs_constant_phase(self):
        t = np.linspace(0, 1, N)
        z = np.zeros(N)
        with pytest.raises(ValueError, match="constant phi"):
            ControlSchedule(time=t, omega=z, delta=z, phi=t, mode="detuning")

    def test_out_of_range_evaluation(self):
        sched = zero_schedule()
        with pytest.raises(ValueError, match="outside"):
            hamiltonians(sched, np.array([2.0]))

    @pytest.mark.parametrize("t", [-0.1, 1.6, np.array([0.0, 1.6]), np.array([-1e-6, 1.0])])
    def test_two_tone_out_of_range_evaluation(self, t):
        two = as_two_tone(zero_schedule(duration=1.5))
        with pytest.raises(ValueError, match="outside"):
            two.values(t)
        with pytest.raises(ValueError, match="outside"):
            hamiltonians(two, np.array([t], dtype=float))

    @pytest.mark.parametrize("name", ["scaled_schedule", "stirap"])
    def test_hamiltonian_is_one_interpolant_call(self, request, monkeypatch, name):
        schedule = request.getfixturevalue(name)
        calls = []
        evaluate = CubicHermite.__call__

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(CubicHermite, "__call__", counted)
        hamiltonians(schedule, np.array([0.37 * schedule.duration]))
        assert len(calls) == 1

    def test_two_tone_reduces_to_common_envelope(self, scaled_schedule):
        two = as_two_tone(scaled_schedule)
        times = np.array([0.0, 0.37, 1.2, 2.0])
        assert np.allclose(hamiltonians(two, times), hamiltonians(scaled_schedule, times),
                           atol=1e-13)


class TestSynthesize:
    def test_circle_gives_constant_resonant_drive(self):
        arc = reparametrize_by_arclength(
            curve_from_expressions("2*cos(2*pi*d)", "2*sin(2*pi*d)", "0"))
        geo = curvature_torsion(arc, n_samples=N)
        sched = synthesize(geo, mode="phase")
        assert np.allclose(sched.omega, 0.5, atol=1e-8)
        assert np.allclose(sched.phi, 0.0, atol=1e-8)
        assert np.all(sched.delta == 0)

    def test_helix_detuning_mode(self):
        arc = reparametrize_by_arclength(
            curve_from_expressions("cos(2*pi*d)", "sin(2*pi*d)", "1.5*d"))
        geo = curvature_torsion(arc, n_samples=N)
        sched = synthesize(geo, mode="detuning")
        b = 1.5 / (2 * np.pi)
        assert np.allclose(sched.delta, -b / (1 + b**2), atol=1e-8)
        assert np.all(sched.phi == 0)

    def test_phase_starts_at_zero(self, natural_schedule):
        assert natural_schedule.phi[0] == 0.0

    def test_curvature_identity_on_own_hamiltonian(self, scaled_schedule):
        # Omega(t) must equal ||[H(t), K_z]||_F on the generated schedule
        idx = np.arange(0, scaled_schedule.time.size, 97)
        for i, h in zip(idx, hamiltonians(scaled_schedule, scaled_schedule.time[idx])):
            assert abs(scaled_frobenius_norm(commutator(h, K_Z))
                       - scaled_schedule.omega[i]) <= 1e-8


class TestReconstruction:
    def test_zero_schedule_traces_z_axis(self):
        sched = zero_schedule(duration=1.5)
        rec = reconstruct_curve(sched)
        grid = np.linspace(0, 1.5, 31)
        expected = np.stack([0 * grid, 0 * grid, grid], axis=1)
        assert np.allclose(rec.position(grid), expected, atol=1e-10)

    def test_zero_schedule_noise_term_is_duration(self):
        assert noise_term(zero_schedule(2.5)) == pytest.approx(2.5, abs=1e-9)

    def test_reconstructed_tangent_is_unit(self, scaled_schedule):
        rec = reconstruct_curve(scaled_schedule)
        grid = np.linspace(0, 2.0, 201)
        speeds = np.linalg.norm(rec.jet(grid)[1], axis=1)
        assert np.max(np.abs(speeds - 1)) <= 1e-6

    def test_roundtrip_phase_mode(self, reference_arc, natural_schedule):
        assert roundtrip_deviation(reference_arc, natural_schedule) <= 1e-4

    def test_roundtrip_detuning_mode(self, reference_arc, detuning_schedule):
        assert roundtrip_deviation(reference_arc, detuning_schedule) <= 1e-4

    @pytest.mark.parametrize("fixture", ["natural_schedule", "detuning_schedule"])
    def test_roundtrip_residual_is_the_closure_error(self, request, reference_arc, fixture):
        # with the least-squares gauge the residual measures the reconstruction, not the
        # gauge step: at least its end gap |r_rec(L)|, as the input curve closes
        schedule = request.getfixturevalue(fixture)
        deviation = roundtrip_deviation(reference_arc, schedule)
        assert noise_term(schedule) - 1e-12 <= deviation <= 2e-8

    @pytest.mark.parametrize("fixture", ["natural_schedule", "detuning_schedule"])
    def test_reference_noise_term_at_the_magnus_floor(self, request, fixture):
        # the fourth-order interpolant leaves the closure error at the Magnus
        # stepper's floor: 2.0e-9 (phase) and 4.0e-10 (detuning)
        assert noise_term(request.getfixturevalue(fixture)) <= 5e-9

    def test_helix_geometry_survives_roundtrip(self):
        # reconstruct from a helix schedule, then re-measure kappa and tau
        a, pitch = 1.0, 1.5
        b = pitch / (2 * np.pi)
        arc = reparametrize_by_arclength(
            curve_from_expressions("cos(2*pi*d)", "sin(2*pi*d)", f"{pitch}*d"))
        sched = synthesize(curvature_torsion(arc, n_samples=1001), mode="phase")
        rec = reconstruct_curve(sched)
        geo = curvature_torsion(rec, n_samples=201)
        interior = slice(10, -10)
        assert np.allclose(geo.curvature[interior], a / (a**2 + b**2), atol=1e-5)
        assert np.allclose(geo.torsion[interior], b / (a**2 + b**2), atol=1e-4)

    def test_roundtrip_on_rotated_curve(self):
        # same closed curve rotated about z: still satisfies the boundary
        # conditions, but starts with a different horizontal normal, so this
        # exercises the gauge alignment of the comparison
        c, s = float(np.cos(0.7)), float(np.sin(0.7))
        base_x = "2^(1/2)*sin(pi*d)*d*cos(pi*d/2)^2"
        base_y = "2^(1/2)*sin(pi*d)*(1-d)*sin(pi*d/2)^2"
        base_z = "2^(1/2)*sin(pi*d)*((1-d)*cos(pi*d/2)^2 + d*sin(pi*d/2)^2)"
        curve = curve_from_expressions(
            f"{c!r}*({base_x}) - {s!r}*({base_y})",
            f"{s!r}*({base_x}) + {c!r}*({base_y})",
            base_z,
            name="rotated")
        arc = reparametrize_by_arclength(curve)
        from geodrive.curves import check_boundary_conditions
        assert check_boundary_conditions(arc).passed
        sched = synthesize(curvature_torsion(arc), mode="phase")
        assert roundtrip_deviation(arc, sched) <= 1e-4

    def test_geometric_noise_term_suppressed(self, natural_schedule):
        assert noise_term(natural_schedule) <= 1e-4

    def test_sta_noise_term_large(self, sta):
        value = noise_term(sta)
        assert value > 0.1
        assert value == pytest.approx(4 / np.pi, abs=1e-6)


class TestPhysicalEquivalences:
    def test_phase_and_detuning_modes_agree(self, natural_schedule, detuning_schedule):
        grid = np.linspace(0, natural_schedule.duration, 101)
        pop_p = np.abs(propagate_state(natural_schedule, KET_MINUS1, grid)) ** 2
        pop_d = np.abs(propagate_state(detuning_schedule, KET_MINUS1, grid)) ** 2
        assert np.max(np.abs(pop_p - pop_d)) <= 1e-6

    def test_constant_phase_offset_is_gauge(self, scaled_schedule):
        grid = np.linspace(0, 2.0, 51)
        base = np.abs(propagate_state(scaled_schedule, KET_MINUS1, grid)) ** 2
        shifted = replace(scaled_schedule, phi=scaled_schedule.phi + 1.234)
        other = np.abs(propagate_state(shifted, KET_MINUS1, grid)) ** 2
        assert np.max(np.abs(base - other)) <= 1e-9

    def test_rescaling_preserves_transfer(self, natural_schedule):
        sched = natural_schedule.rescaled(2.0)
        assert sched.duration == pytest.approx(2.0)
        # amplitudes scale inversely with time
        s = 2.0 / natural_schedule.duration
        assert np.allclose(sched.omega * s, natural_schedule.omega, atol=1e-12)
        final = propagate_state(sched, KET_MINUS1, np.array([0.0, 2.0]))[-1]
        assert abs(final[2]) ** 2 >= 1 - 1e-6


class TestScheduleFiles:
    def test_csv_roundtrip(self, tmp_path, scaled_schedule):
        path = tmp_path / "schedule.csv"
        side = tmp_path / "schedule.json"
        write_schedule_csv(scaled_schedule, path, side, provenance={"curve": "reference"})
        back = read_schedule_csv(path, mode=scaled_schedule.mode)
        assert np.allclose(back.omega, scaled_schedule.omega, atol=1e-12)
        assert np.allclose(back.phi, scaled_schedule.phi, atol=1e-12)
        assert side.exists()

    def test_two_tone_layout(self, tmp_path, stirap):
        path = tmp_path / "stirap.csv"
        write_schedule_csv(stirap, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t,pump_omega,stokes_omega")
