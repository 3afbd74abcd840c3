from dataclasses import replace

import numpy as np
import pytest

from geodrive.invariants import (InconsistentAnglesError, _fit_euler_angles, angles_from_schedule,
                                 evolution_operator, invariant_eigenstates,
                                 noise_suppression_term, perturbative_fidelity)
from geodrive.baselines import sta_schedule
from geodrive.operators import KET_MINUS1, propagate_operator
from geodrive.schedules import ControlSchedule, reconstruct_curve
from geodrive.simulate import overlap_fidelity
from physics import (invariant_defect, invariant_operator, lr_phase_series,
                     propagator_rebuild_error, tangent_from_angles, unitarity_defect)

TWO_PI = 2 * np.pi


def wrap_angle(values, center):
    """Map angles into [center - pi, center + pi)."""
    return (np.asarray(values) - center + np.pi) % TWO_PI + center - np.pi


class TestEigenstates:
    def test_initial_frame_is_basis(self):
        phi1, phi2, phi3 = invariant_eigenstates(0.0, 0.0)
        assert np.allclose(phi1, [1, 0, 0], atol=1e-15)
        assert np.allclose(phi2, [0, 1, 0], atol=1e-15)
        assert np.allclose(phi3, [0, 0, 1], atol=1e-15)

    def test_transfer_endpoint(self):
        beta = 0.77
        phi1, _, _ = invariant_eigenstates(np.pi, beta)
        assert np.allclose(phi1, [0, 0, np.exp(1j * beta)], atol=1e-15)

    def test_eigen_relation(self, rng):
        for _ in range(20):
            theta = rng.uniform(0, np.pi)
            beta = rng.uniform(-np.pi, np.pi)
            inv = invariant_operator(theta, beta)
            states = invariant_eigenstates(theta, beta)
            for lam, state in zip((1.0, 0.0, -1.0), states):
                assert np.linalg.norm(inv @ state - lam * state) <= 1e-12

    def test_orthonormal_modes(self, rng):
        theta, beta = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        basis = np.column_stack(invariant_eigenstates(theta, beta))
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10


    def test_vectorized_matches_single_angles(self, rng):
        theta, beta = rng.uniform(0, np.pi, 50), rng.uniform(-np.pi, np.pi, 50)
        stacked = invariant_eigenstates(theta, beta)
        for i in range(theta.size):
            for many, one in zip(stacked, invariant_eigenstates(theta[i], beta[i])):
                assert np.array_equal(many[i], one)
        phi1, _, phi3 = stacked
        assert np.array_equal(phi3, phi1[:, ::-1].conj() * [1, -1, 1])


class TestEvolutionOperator:
    def test_columns_are_phased_eigenstates(self, rng):
        theta, beta, alpha = rng.uniform(-4, 4, (3, 50))
        phi1, phi2, phi3 = invariant_eigenstates(theta, beta)
        u = evolution_operator(theta, beta, alpha)
        ea = np.exp(1j * alpha)[:, None]
        assert np.array_equal(u[..., 0], phi1 * ea)
        assert np.array_equal(u[..., 1], phi2)
        assert np.array_equal(u[..., 2], phi3 * ea.conj())

    def test_identity_at_origin(self):
        assert np.allclose(evolution_operator(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)

    def test_transfer_at_theta_pi(self):
        u = evolution_operator(np.pi, 0.0, 0.0)
        out = u @ KET_MINUS1
        assert abs(out[2]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_unitary_for_random_angles(self, rng):
        for _ in range(20):
            u = evolution_operator(rng.uniform(0, np.pi), rng.uniform(-5, 5),
                                   rng.uniform(-5, 5))
            assert unitarity_defect(u) <= 1e-12


class TestAngleExtraction:
    def test_sta_matches_printed_parameters(self, sta_angles):
        # theta(t) = (pi/2) t, alpha = 0, beta = 3 pi / 2
        t = sta_angles.time
        assert np.max(np.abs(sta_angles.theta - np.pi / 2 * t)) <= 1e-6
        assert np.max(np.abs(sta_angles.alpha)) <= 1e-6
        interior = slice(10, -10)
        beta_wrapped = wrap_angle(sta_angles.beta[interior], 3 * np.pi / 2)
        assert np.max(np.abs(beta_wrapped - 3 * np.pi / 2)) <= 1e-6

    def test_zero_schedule_angles(self):
        n = 501
        t = np.linspace(0, 1, n)
        z = np.zeros(n)
        sched = ControlSchedule(time=t, omega=z, delta=z.copy(), phi=z.copy())
        angles = angles_from_schedule(sched, n_samples=1001)
        assert np.max(np.abs(angles.theta)) <= 1e-9

    def test_geometric_boundary_angles(self, geometric_angles):
        assert abs(geometric_angles.theta[0]) <= 1e-6
        assert abs(geometric_angles.theta[-1] - np.pi) <= 1e-6

    def test_rebuild_matches_integrated_propagator(self, geometric_angles, sta_angles):
        assert np.max(propagator_rebuild_error(geometric_angles)) <= 1e-6
        assert np.max(propagator_rebuild_error(sta_angles)) <= 1e-6

    def test_residual_is_the_largest_rebuild_error(self, geometric_angles, sta_angles):
        # reduced one block of samples at a time, the residual keeps the bits of the whole
        # stack rebuilt from the fit at once.  Rebuilt from the reported alpha + beta0, whose
        # sum rounds away from the fitted C, it moves by rounding only (6.5e-16 here)
        for angles in (geometric_angles, sta_angles):
            theta, big_b, big_c = _fit_euler_angles(angles.propagators)
            whole = np.linalg.norm(evolution_operator(theta, big_b, big_c) - angles.propagators,
                                   axis=(1, 2))
            assert angles.residual == np.max(whole)
            assert abs(angles.residual - np.max(propagator_rebuild_error(angles))) <= 1e-14

    def test_extraction_memory(self, natural_schedule, peak_bytes):
        # 4.5 MB: 3.85 MB measured with the residual rebuilt per block of samples,
        # 6.3 MB with the whole rebuilt stack and its difference at once
        propagate_operator(natural_schedule, natural_schedule.time_span)  # the lazy interpolant
        angles, peak = peak_bytes(lambda: angles_from_schedule(natural_schedule))
        assert peak <= 4.5e6
        assert angles.residual <= 1e-6

    def test_out_of_family_schedule_raises(self, srt):
        # equal-sign detunings leave the K-operator orbit, so the three-angle
        # factorization cannot hold
        with pytest.raises(InconsistentAnglesError):
            angles_from_schedule(srt, n_samples=2001)


class TestInvariantEquation:
    def test_geometric_defect(self, scaled_schedule):
        # away from the pole theta = pi, where beta is undefined and the 5-point
        # dI/dt amplifies the fitted azimuth's jitter by 1/dt
        angles = angles_from_schedule(scaled_schedule, n_samples=80_001)
        well = np.sin(angles.theta[2:-2]) > 1e-3
        assert np.max(invariant_defect(scaled_schedule, angles)[well]) <= 1e-7

    def test_sta_defect(self, sta, sta_angles):
        assert np.max(invariant_defect(sta, sta_angles)) <= 1e-6


class TestModePhases:
    def test_phase_starts_at_zero(self, scaled_schedule, geometric_angles):
        assert lr_phase_series(scaled_schedule, geometric_angles)[0] == 0.0

    @pytest.mark.parametrize("fixture", ["geometric", "sta"])
    def test_phase_identities(self, fixture, scaled_schedule, geometric_angles,
                              sta, sta_angles):
        sched, angles = ((scaled_schedule, geometric_angles) if fixture == "geometric"
                         else (sta, sta_angles))
        a1 = lr_phase_series(sched, angles, 1)
        a2 = lr_phase_series(sched, angles, 2)
        a3 = lr_phase_series(sched, angles, 3)
        assert np.max(np.abs(a2)) <= 1e-9
        assert np.max(np.abs(a1 + a3)) <= 1e-9

    def test_bad_mode_index(self, sta, sta_angles):
        with pytest.raises(ValueError):
            lr_phase_series(sta, sta_angles, mode_index=4)


class TestPerturbativeFidelity:
    def test_exact_at_zero_error(self, sta):
        assert perturbative_fidelity(sta, 0.0) == 1.0

    def test_geometric_noise_term_suppressed(self, scaled_schedule):
        assert noise_suppression_term(scaled_schedule) <= 1e-7

    def test_sta_third_order_agreement(self, sta):
        # closed form for the constant pulse (Omega T = pi, x = 2 delta / pi):
        # F = p^2, p = sin^2((pi/2) sqrt(1 + x^2)) / (1 + x^2), so
        # F = 1 - (8/pi^2) delta^2 + c4 delta^4 + O(delta^6)
        assert noise_suppression_term(sta) == pytest.approx(8 / np.pi**2, rel=1e-9)
        c4 = (48 - 2 * np.pi**2) / np.pi**4
        for delta in (0.05, 0.025):
            exact = overlap_fidelity(sta, delta)
            pert = perturbative_fidelity(sta, delta)
            assert abs(exact - pert) <= delta**3
            assert abs(exact - pert) / delta**4 == pytest.approx(c4, rel=1e-2)

    def test_noise_term_solved_once_per_schedule(self, solves):
        schedule = sta_schedule()
        first = perturbative_fidelity(schedule, 0.05)
        assert len(solves) == 1
        assert perturbative_fidelity(schedule, 0.1) == 1.0 - 0.1**2 * noise_suppression_term(schedule)
        assert len(solves) == 1
        copy = replace(schedule)
        assert perturbative_fidelity(copy, 0.05) == first
        assert len(solves) == 2
        noise_suppression_term(schedule, n_samples=1001)
        assert len(solves) == 3
        assert noise_suppression_term(schedule) == noise_suppression_term(replace(schedule))


class TestTangentConsistency:
    def test_angles_reproduce_reconstructed_tangent(self, scaled_schedule,
                                                    geometric_angles, sta, sta_angles):
        for sched, angles in ((scaled_schedule, geometric_angles), (sta, sta_angles)):
            rec = reconstruct_curve(sched, n_samples=angles.time.size)
            formula = tangent_from_angles(angles)
            sampled = rec.jet(angles.time - angles.time[0])[1]
            assert np.max(np.abs(formula - sampled)) <= 1e-6

    @pytest.mark.parametrize("fixture", ["natural_schedule", "detuning_schedule"])
    def test_angles_follow_input_tangent(self, request, reference_arc, fixture):
        # U^dag K_z U = T . K: theta = arccos T_z of the input curve's unit tangent, and
        # C = alpha + frame_offset is its azimuth atan2(-T_y, -T_x) plus a constant, the
        # z-rotation gauge that the roundtrip fits by least squares
        schedule = request.getfixturevalue(fixture)
        angles = angles_from_schedule(schedule, n_samples=2001)
        tangent = reference_arc.jet(angles.time - angles.time[0])[1]
        assert np.max(np.abs(angles.theta - np.arccos(np.clip(tangent[:, 2], -1, 1)))) <= 1e-8
        grid = np.linspace(0.0, reference_arc.total_length, 1001)
        z, z_rec = (arc.position(grid) @ [1, 1j, 0]
                    for arc in (reference_arc, reconstruct_curve(schedule)))
        gamma = np.angle(np.vdot(z, z_rec))
        well = np.sin(angles.theta) > 1e-2
        offset = wrap_angle(angles.alpha + angles.frame_offset
                            - np.arctan2(-tangent[:, 1], -tangent[:, 0]), gamma)[well] - gamma
        assert np.ptp(offset) <= 1e-6 and np.max(np.abs(offset)) <= 1e-6
