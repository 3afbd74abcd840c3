import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from geodrive import operators
from geodrive.operators import (K_X, K_Y, K_Z, KET_MINUS1, KET_0, KET_PLUS1,
                                IntegrationFailure, commutator, hamiltonian,
                                norm_defect, propagate_operator,
                                propagate_state, scaled_frobenius_norm,
                                spin1_generators, unitarity_defect)
from geodrive.simulate import _RELAXATION

SQRT2 = np.sqrt(2.0)


def random_unitary(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGenerators:
    def test_kz_is_diagonal(self):
        kx, ky, kz = spin1_generators()
        assert np.array_equal(kz, np.diag([1.0, 0.0, -1.0]))

    def test_explicit_entries(self):
        kx, ky, kz = spin1_generators()
        assert np.allclose(kx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2)
        assert np.allclose(ky, np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2)

    @pytest.mark.parametrize("a, b, c", [(K_X, K_Y, K_Z), (K_Y, K_Z, K_X), (K_Z, K_X, K_Y)])
    def test_commutation_relations(self, a, b, c):
        assert np.allclose(commutator(a, b), 1j * c, atol=1e-15, rtol=0)

    def test_self_commutator_vanishes(self):
        assert np.all(commutator(K_X, K_X) == 0)

    def test_kx_couples_center_state(self):
        out = K_X @ KET_0
        assert np.allclose(out, (KET_MINUS1 + KET_PLUS1) / SQRT2, atol=1e-15)


class TestHamiltonian:
    def test_zero_fields(self):
        assert np.all(hamiltonian(0.0, 0.0, 0.0) == 0)

    def test_resonant_x_drive(self):
        assert np.allclose(hamiltonian(1.0, 0.0, 0.0), K_X, atol=1e-15)

    def test_explicit_matrix_entries(self):
        h = hamiltonian(1.0, 2.0, np.pi / 2)
        assert h[0, 0] == pytest.approx(2.0)
        assert h[0, 1] == pytest.approx(-1j / SQRT2, abs=1e-15)

    def test_expansion_matches_explicit_matrix(self, rng):
        # the K-operator expansion and the explicit tridiagonal form must agree
        for _ in range(25):
            om = rng.uniform(0, 5)
            de = rng.uniform(-5, 5)
            ph = rng.uniform(-2 * np.pi, 2 * np.pi)
            explicit = np.array([
                [de, om / SQRT2 * np.exp(-1j * ph), 0],
                [om / SQRT2 * np.exp(1j * ph), 0, om / SQRT2 * np.exp(-1j * ph)],
                [0, om / SQRT2 * np.exp(1j * ph), -de],
            ])
            assert np.allclose(hamiltonian(om, de, ph), explicit, atol=1e-14)

    def test_always_hermitian(self, rng):
        for _ in range(25):
            h = hamiltonian(rng.uniform(0, 10), rng.uniform(-10, 10),
                            rng.uniform(-7, 7))
            assert np.linalg.norm(h - h.conj().T) < 1e-12

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian(-0.1, 0.0, 0.0)


class TestScaledFrobeniusNorm:
    def test_generators_are_unit_norm(self):
        assert scaled_frobenius_norm(K_Z) == pytest.approx(1.0)
        assert scaled_frobenius_norm(K_X) == pytest.approx(1.0)
        assert scaled_frobenius_norm(K_Y) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert scaled_frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_unitary_invariance(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        base = scaled_frobenius_norm(m)
        for _ in range(10):
            v = random_unitary(rng)
            assert scaled_frobenius_norm(v.conj().T @ m @ v) == pytest.approx(base, abs=1e-12)


class _ConstantDrive:
    """Minimal schedule stand-in: constant H over [0, duration], knots every 0.25."""

    def __init__(self, h, duration):
        self._h = h
        self.time = np.linspace(0.0, duration, int(np.ceil(duration / 0.25)) + 1)
        self.time_span = (0.0, duration)

    def hamiltonians(self, times):
        return np.broadcast_to(self._h, np.shape(times) + (3, 3))


def final_state(drive, psi, t0, t1):
    return propagate_state(drive, psi, [t0, t1])[-1]


class TestPropagation:
    def test_pi_pulse_matches_closed_form(self):
        omega = 1.3
        drive = _ConstantDrive(omega * K_X, np.pi / omega)
        out = final_state(drive, KET_MINUS1, 0.0, np.pi / omega)
        exact = expm(-1j * np.pi * K_X) @ KET_MINUS1
        assert np.allclose(out, exact, atol=1e-9)
        # complete transfer up to a global phase
        assert abs(out[2]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_zero_schedule_is_identity(self):
        drive = _ConstantDrive(np.zeros((3, 3), dtype=complex), 1.0)
        psi = np.array([0.6, 0.8j, 0.0])
        out = final_state(drive, psi, 0.0, 1.0)
        assert np.allclose(out, psi, atol=1e-12)

    def test_norm_is_preserved(self):
        drive = _ConstantDrive(hamiltonian(2.0, 0.7, 0.3), 3.0)
        out = final_state(drive, KET_MINUS1, 0.0, 3.0)
        assert norm_defect(out) <= 1e-9

    def test_propagator_unitarity(self, scaled_schedule):
        u = propagate_operator(scaled_schedule, np.array([0.0, 2.0]))[-1]
        assert unitarity_defect(u) <= 1e-9

    def test_partial_interval(self):
        omega = 0.9
        drive = _ConstantDrive(omega * K_X, 4.0)
        out = final_state(drive, KET_MINUS1, 0.5, 2.5)
        exact = expm(-2j * omega * K_X) @ KET_MINUS1
        assert np.allclose(out, exact, atol=1e-9)

    def test_invalid_interval_rejected(self):
        drive = _ConstantDrive(K_X, 1.0)
        with pytest.raises(ValueError):
            final_state(drive, KET_MINUS1, 0.5, 0.5)
        with pytest.raises(ValueError):
            final_state(drive, KET_MINUS1, 0.0, 2.0)  # outside support
        with pytest.raises(ValueError, match="strictly increasing"):
            propagate_state(drive, KET_MINUS1, [0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("delta", [0.0, 0.4, -1.1])
    def test_delta_shift_matches_closed_form(self, delta):
        h = hamiltonian(1.2, 0.3, 0.7)
        drive = _ConstantDrive(h, 2.0)
        out = propagate_state(drive, KET_MINUS1, [0.0, 2.0], delta=delta)[-1]
        exact = expm(-2j * (h + delta * K_Z)) @ KET_MINUS1
        assert np.allclose(out, exact, atol=1e-9)

    def test_integration_failure_carries_time(self):
        class Blowup(_ConstantDrive):
            """H turns infinite at t = 0.6."""

            def hamiltonians(self, times):
                h = np.array(super().hamiltonians(times))
                h[np.asarray(times) >= 0.6] = np.inf
                return h

        with pytest.raises(IntegrationFailure, match="non-finite") as err:
            final_state(Blowup(K_X, 1.0), KET_MINUS1, 0.0, 1.0)
        # the first Gauss node at or past t = 0.6, inside the step [0.5, 0.75]
        assert 0.6 <= err.value.time <= 0.75


SCHEMES = ["scaled_schedule", "srt", "stirap", "sta"]
ORACLE_DELTAS = [0.0, 0.01, 0.3]


class TestMagnusStepper:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_dop853_oracle(self, scheme, request, dop853_oracle):
        schedule = request.getfixturevalue(scheme)
        finals = propagate_state(schedule, KET_MINUS1, schedule.time_span,
                                 delta=np.array(ORACLE_DELTAS))[:, -1]
        oracle = dop853_oracle(schedule, ORACLE_DELTAS)[:, -1]
        assert np.max(np.linalg.norm(finals - oracle, axis=1)) <= 1e-8

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batch_member_equals_single_delta(self, scheme, request):
        schedule = request.getfixturevalue(scheme)
        deltas = np.array([-0.2, 0.0, 0.05, 0.3])
        grid = np.linspace(*schedule.time_span, 37)
        batch = propagate_state(schedule, KET_MINUS1, grid, delta=deltas)
        assert batch.shape == (deltas.size, grid.size, 3)
        for delta, member in zip(deltas, batch):
            single = propagate_state(schedule, KET_MINUS1, grid, delta=delta)
            assert np.max(np.abs(member - single)) <= 1e-12

    def test_steps_on_knots_and_samples(self, sta):
        samples = np.array([0.1, 0.55, 1.3])
        grid = operators._step_grid(sta, samples)
        knots = sta.time[(sta.time > 0.1) & (sta.time < 1.3)]
        assert np.array_equal(grid, np.union1d(samples, knots))

    def test_knot_next_to_sample_adds_no_sliver_step(self, sta):
        knot = sta.time[100]
        grid = operators._step_grid(sta, [0.0, knot + 1e-14, sta.time[-1]])
        assert np.min(np.diff(grid)) >= 0.5 * (sta.time[1] - sta.time[0])


def _hermitian_stack(rng, count):
    z = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    return z + z.conj().swapaxes(-1, -2)


def _at_one_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


EXPM_NORMS = [0.0, 1e-3, 0.1, 0.25, 3.0, 30.0]  # 3 and 30 need squaring


class TestExpm:
    """operators._expm against scipy.linalg.expm, used here only as an oracle."""

    @staticmethod
    def stacks(rng, norm):
        ket_steps = -1j * _hermitian_stack(rng, 40)
        lindblad_steps = -1j * operators._liouvillian(_hermitian_stack(rng, 40),
                                                      0.3 * _RELAXATION)
        return [_at_one_norm(a, norm) for a in (ket_steps, lindblad_steps)]

    @pytest.mark.parametrize("norm", EXPM_NORMS)
    def test_matches_scipy(self, rng, norm):
        for a in self.stacks(rng, norm):
            ours = operators._expm(a)
            oracle = np.array([expm(m) for m in a])
            err = np.linalg.norm(ours - oracle, axis=(1, 2)) / np.linalg.norm(oracle, axis=(1, 2))
            assert np.max(err) <= 1e-13

    def test_zero_matrix_gives_identity_exactly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (3, 9):
                out = operators._expm(np.zeros((2, n, n), dtype=complex))
                assert np.array_equal(out, np.broadcast_to(np.eye(n), (2, n, n)))

    def test_member_independent_of_batch(self, rng):
        # norms from 1e-3 to 30 in one batch: its members square different numbers of times
        for a in self.stacks(rng, 1.0):
            a = a * np.geomspace(1e-3, 30.0, len(a))[:, None, None]
            batch = operators._expm(a)
            for member, m in zip(batch, a):
                assert np.array_equal(member, operators._expm(m))
                assert np.array_equal(member, operators._expm(m[None])[0])

    # the shipped schedules' Magnus steps have 1-norms <= 0.12, far below 3
    @pytest.mark.parametrize("norm", [n for n in EXPM_NORMS if n <= 3.0])
    def test_ket_steps_are_unitary(self, rng, norm):
        steps = operators._expm(self.stacks(rng, norm)[0])
        assert max(unitarity_defect(u) for u in steps) <= 1e-14
