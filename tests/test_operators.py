import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from geodrive import operators
from geodrive.operators import (K_X, K_Y, K_Z, KET_MINUS1, IntegrationFailure, norm_defect,
                                propagate_operator, propagate_state)
from geodrive.simulate import _RELAXATION
from physics import (KET_0, KET_PLUS1, commutator, constant_schedule, hamiltonian, hamiltonians,
                     scaled_frobenius_norm, unitarity_defect)

SQRT2 = np.sqrt(2.0)


def random_unitary(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGenerators:
    def test_kz_is_diagonal(self):
        assert np.array_equal(K_Z, np.diag([1.0, 0.0, -1.0]))

    def test_explicit_entries(self):
        assert np.allclose(K_X, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2)
        assert np.allclose(K_Y, np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2)

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

    def test_schedule_hamiltonians_match_formula(self, rng):
        # the H that every solve steps with, from a schedule's interpolant
        times = np.array([0.0, 0.37, 1.0])
        for _ in range(25):
            fields = rng.uniform(0, 10), rng.uniform(-10, 10), rng.uniform(-7, 7)
            hams = hamiltonians(constant_schedule(*fields), times)
            assert np.max(np.abs(hams - hamiltonian(*fields))) <= 1e-14
            assert np.max(np.linalg.norm(hams - hams.conj().swapaxes(1, 2), axis=(1, 2))) <= 1e-14


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
    """Minimal schedule stand-in: constant H over [0, duration], knots every 0.25;
    its one field is 1 on the basis matrix H."""

    def __init__(self, h, duration):
        self._BASIS = np.array([h])
        self.time = np.linspace(0.0, duration, int(np.ceil(duration / 0.25)) + 1)
        self.time_span = (0.0, duration)

    def fields(self, times):
        return np.ones(np.shape(times) + (1,))


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

            def fields(self, times):
                f = super().fields(times)
                f[np.asarray(times) >= 0.6] = np.inf
                return f

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

    @pytest.mark.parametrize("equation", ["ket", "propagator", "density"])
    def test_grouped_build_matches_block_reference(self, sta, stirap, equation, block_reference):
        y0, dissipator = {"ket": (KET_MINUS1, None), "propagator": (operators.IDENTITY3, None),
                          "density": (np.outer(KET_MINUS1, KET_MINUS1), 0.004 * _RELAXATION)}[equation]
        t0, t1 = sta.time_span
        random = np.union1d(np.random.default_rng(53).uniform(t0, t1, 51), [t0, t1])
        # batches of 0, 1, 3, 7 and 101 deltas; the last spans several delta chunks
        cases = [(stirap, np.linspace(*stirap.time_span, 10001), [0.2]),  # dense
                 (sta, random, [-0.3, 0.0, 0.2]),
                 (sta, sta.time[[0, 200]], np.linspace(-0.8, 0.8, 101)),  # 200 = 3 x 64 + 8 steps
                 (sta, sta.time[:64], np.linspace(-0.4, 0.3, 7)), (sta, sta.time[:201], [0.2]),
                 (sta, sta.time_span, [])]
        cases += [(sta, np.union1d(sta.time[::stride], t1), [0.2])  # samples on every stride-th knot
                  for stride in (1, 2, 4, 7)]
        for schedule, times, deltas in cases:
            ours = operators._propagate(schedule, y0, times, deltas, dissipator)
            assert np.array_equal(ours, block_reference(schedule, y0, times, deltas, dissipator))

    def test_dense_propagator_memory(self, natural_schedule, peak_bytes):
        # 4.0 MB: 3.54 MB measured, the rows of 10 000 steps (one group) and the samples
        times = np.linspace(*natural_schedule.time_span, 10001)
        propagate_operator(natural_schedule, times[::5000])  # the schedule's lazy interpolant
        props, peak = peak_bytes(lambda: propagate_operator(natural_schedule, times))
        assert peak <= 4.0e6
        assert unitarity_defect(props[-1]) <= 1e-9

    def test_dense_two_tone_propagator_memory(self, stirap, peak_bytes):
        # below 7 MB: 5.04 MB measured for 12 400 steps in three groups of rows, against
        # 8.29 MB with the rows of every step at once
        times = np.linspace(*stirap.time_span, 10001)
        propagate_operator(stirap, times[::5000])  # the schedule's lazy interpolant
        props, peak = peak_bytes(lambda: propagate_operator(stirap, times))
        assert peak < 7.0e6
        assert unitarity_defect(props[-1]) <= 1e-9

    @pytest.mark.parametrize("equation", ["ket", "density"])
    def test_row_groups_keep_the_bits(self, sta, equation, monkeypatch):
        # one build per group of rows, so one _magnus_terms call per build: the same bits
        dissipator = None if equation == "ket" else 0.004 * _RELAXATION
        y0 = KET_MINUS1 if dissipator is None else np.outer(KET_MINUS1, KET_MINUS1)
        times, deltas = np.linspace(*sta.time_span, 301), np.linspace(-0.8, 0.8, 11)
        whole = operators._propagate(sta, y0, times, deltas, dissipator)
        monkeypatch.setattr(operators, "_ROWS", 1)
        assert np.array_equal(operators._propagate(sta, y0, times, deltas, dissipator), whole)

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


def _lindblad_generator(h, dissipator):
    """-i(H (x) I - I (x) H^T) + D on row-major vec(rho), for a stack of H."""
    eye = np.eye(3)
    lifted = (h[..., :, None, :, None] * eye[None, :, None, :]
              - eye[:, None, :, None] * h.swapaxes(-1, -2)[..., None, :, None, :])
    return -1j * lifted.reshape(h.shape[:-2] + (9, 9)) + dissipator


def _realify(h):
    """-iH acting on (Re psi; Im psi), from its blocks."""
    return np.block([[h.imag, h.real], [-h.real, h.imag]])


#: row a is vec(l_a)^*, so T vec(rho) = (Tr(l_a rho))_a
_T = operators._HERMITIAN_BASIS.reshape(9, 9).conj()


class TestRealCoordinates:
    def test_hermitian_basis_orthonormal(self):
        basis = operators._HERMITIAN_BASIS
        assert np.array_equal(basis, basis.conj().swapaxes(-1, -2))
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-15

    def test_hermitian_round_trip(self, rng):
        rho = _hermitian_stack(rng, 20)
        coords = np.einsum("aij,nji->na", operators._HERMITIAN_BASIS, rho)
        assert np.max(np.abs(coords.imag)) <= 1e-15
        back = np.einsum("na,aij->nij", coords.real, operators._HERMITIAN_BASIS)
        assert np.max(np.abs(back - rho)) <= 1e-14
        again = np.einsum("aij,nji->na", operators._HERMITIAN_BASIS, back).real
        assert np.max(np.abs(again - coords.real)) <= 1e-14

    def test_ket_lift_is_realified_generator(self, rng):
        h = _hermitian_stack(rng, 20)
        assert np.array_equal(operators._real_lift(*operators._KET_LIFT, h), _realify(h))

    def test_lindblad_lift_matches_liouvillian(self, rng):
        h = _hermitian_stack(rng, 20)
        assert np.array_equal(operators._DENSITY_LIFT[0], _T.conj().T)
        dissipator = (_T @ _RELAXATION @ _T.conj().T).real
        expected = _T @ _lindblad_generator(h, _RELAXATION) @ _T.conj().T
        assert np.max(np.abs(expected.imag)) <= 1e-14
        lifted = operators._real_lift(*operators._DENSITY_LIFT, h)
        assert np.max(np.abs(lifted + dissipator - expected)) <= 1e-14

    @pytest.mark.parametrize("equation", ["ket", "density"])
    @pytest.mark.parametrize("scheme", ["natural_schedule", "detuning_schedule", "stirap", "srt"])
    def test_field_rows_match_matrix_exponent(self, request, scheme, equation):
        # A = h/2 (R1 + R2) + sqrt(3)/12 h^2 [R2, R1] with R lifted from the tests' H
        schedule, delta = request.getfixturevalue(scheme), 0.3
        dissipator = None if equation == "ket" else 0.004 * _RELAXATION
        grid = operators._step_grid(schedule, np.linspace(*schedule.time_span, 201))
        embed, w, t0, t1 = operators._magnus_terms(schedule, grid, dissipator)
        n = embed.shape[1]
        ours = (w @ (t0 + delta * t1)).reshape(-1, n, n)
        h = np.diff(grid)[:, None, None]
        mid = 0.5 * (grid[1:] + grid[:-1])
        generators = []
        for node in (mid - np.sqrt(3.0) / 6.0 * h[:, 0, 0], mid + np.sqrt(3.0) / 6.0 * h[:, 0, 0]):
            k = hamiltonians(schedule, node) + delta * K_Z
            generators.append(_realify(k) if dissipator is None else
                              (_T @ _lindblad_generator(k, dissipator) @ _T.conj().T).real)
        r1, r2 = generators
        matrix_form = 0.5 * h * (r1 + r2) + np.sqrt(3.0) / 12.0 * h**2 * (r2 @ r1 - r1 @ r2)
        err = np.linalg.norm(ours - matrix_form, axis=(1, 2))
        assert np.max(err / np.linalg.norm(matrix_form, axis=(1, 2))) <= 1e-14

    @pytest.mark.parametrize("equation", ["ket", "density"])
    def test_batch_member_bitwise_equal_to_single_delta(self, sta, equation):
        y0, dissipator = KET_MINUS1, None
        if equation == "density":
            y0, dissipator = np.outer(KET_MINUS1, KET_MINUS1), 0.004 * _RELAXATION
        times = np.linspace(*sta.time_span, 37)
        for size in (1, 3, 7):
            deltas = np.linspace(-0.4, 0.3, size)
            batch = operators._propagate(sta, y0, times, deltas, dissipator)
            for delta, member in zip(deltas, batch):
                single = operators._propagate(sta, y0, times, [delta], dissipator)[0]
                assert np.array_equal(member, single)

    @pytest.mark.parametrize("equation", ["ket", "density"])
    def test_dense_final_row_equals_endpoint_call(self, sta, equation):
        y0, dissipator = KET_MINUS1, None
        if equation == "density":
            y0, dissipator = np.outer(KET_MINUS1, KET_MINUS1), 0.004 * _RELAXATION
        # samples on knots add no steps: both calls step from knot to knot; the
        # strides fold 0, 1, 2 and 0 step pairs in the blocks of the dense call
        final = operators._propagate(sta, y0, sta.time_span, [0.2], dissipator)[0]
        assert operators._step_grid(sta, sta.time_span).size > 3 * operators._BLOCK
        for stride in (1, 2, 4, 7):
            times = np.union1d(sta.time[::stride], sta.time[-1])
            dense = operators._propagate(sta, y0, times, [0.2], dissipator)[0]
            assert np.array_equal(dense[-1], final[-1])


def _at_one_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


THETA8 = operators._THETA8
# either side of theta_8, 2 theta_8 and 4 theta_8, where the count of squarings steps
# from 0 to 1, 2 and 3; 1/4 and either side of it square twice, 3 and 30 six and nine times
EXPM_NORMS = [0.0, 1e-3, THETA8 * (1 - 1e-9), THETA8 * (1 + 1e-9), 0.1,
              2 * THETA8 * (1 - 1e-9), 2 * THETA8 * (1 + 1e-9), 0.25 * (1 - 1e-9), 0.25,
              0.25 * (1 + 1e-9), 4 * THETA8 * (1 - 1e-9), 4 * THETA8 * (1 + 1e-9), 3.0, 30.0]


class TestExpm:
    """operators._expm against scipy.linalg.expm, used here only as an oracle."""

    @staticmethod
    def stacks(rng, norm):
        """-iH and Liouvillian stacks, complex, then in the stepper's real coordinates."""
        ket_steps = -1j * _hermitian_stack(rng, 40)
        lindblad_steps = _lindblad_generator(_hermitian_stack(rng, 40), 0.3 * _RELAXATION)
        real_ket_steps = _realify(_hermitian_stack(rng, 40))
        real_lindblad_steps = (_T @ _lindblad_generator(_hermitian_stack(rng, 40), 0.3 * _RELAXATION)
                               @ _T.conj().T).real
        return [_at_one_norm(a, norm) for a in
                (ket_steps, lindblad_steps, real_ket_steps, real_lindblad_steps)]

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
            for n, dtype in ((3, complex), (9, complex), (6, float), (9, float)):
                out = operators._expm(np.zeros((2, n, n), dtype=dtype))
                assert np.array_equal(out, np.broadcast_to(np.eye(n), (2, n, n)))

    def test_member_independent_of_batch(self, rng):
        # norms from 1e-3 to 30 in one batch: its members square different numbers of times
        for a in self.stacks(rng, 1.0):
            a = a * np.geomspace(1e-3, 30.0, len(a))[:, None, None]
            batch = operators._expm(a)
            for member, m in zip(batch, a):
                assert np.array_equal(member, operators._expm(m))
                assert np.array_equal(member, operators._expm(m[None])[0])

    def test_stack_below_the_bound_matches_per_matrix_scaling(self, rng):
        # n max|a_ij| < theta_8 over the whole stack: every member takes the degree-8
        # polynomial, and the norms are skipped; beside a member that squares, each
        # takes the per-matrix path
        for a in self.stacks(rng, 1.0):
            n = a.shape[-1]
            flat = rng.choice([-1.0, 1.0], size=a.shape) if a.dtype == float else \
                np.exp(2j * np.pi * rng.uniform(size=a.shape))
            below = np.concatenate([a * np.geomspace(1e-4, 0.99 * THETA8, len(a))[:, None, None]
                                    / (n * np.abs(a).max(axis=(1, 2)))[:, None, None],
                                    flat * (THETA8 * (1 - 1e-9) / n)])  # 1-norms just under theta_8
            assert n * np.abs(below).max() < THETA8 * (1 - 1e-10)
            assert np.abs(below).sum(axis=-2).max() >= THETA8 * (1 - 1e-8)
            beside = operators._expm(np.concatenate([below, 12.0 * below[-1:]]))
            assert np.array_equal(operators._expm(below), beside[:-1])

    def test_mixed_stack_member_equals_single_matrix(self, rng):
        # 1-norms either side of theta_8, 2 theta_8 and 4 theta_8 in one stack, the
        # whole-stack bound exceeded: 0 to 4 squarings side by side, each member with
        # the bits of its single-matrix call
        norms = [0.5 * THETA8, THETA8 * (1 - 1e-12), THETA8 * (1 + 1e-12), 0.1,
                 2 * THETA8 * (1 - 1e-12), 2 * THETA8 * (1 + 1e-12),
                 4 * THETA8 * (1 - 1e-12), 4 * THETA8 * (1 + 1e-12), 0.7]
        for a in self.stacks(rng, 1.0):
            a = np.concatenate([_at_one_norm(a[i::len(norms)], norm) for i, norm in enumerate(norms)])
            assert np.abs(a).sum(axis=-2).max(axis=-1).min() < THETA8
            batch = operators._expm(a)
            for member, m in zip(batch, a):
                assert np.array_equal(member, operators._expm(m[None])[0])

    # the shipped schedules' Magnus steps have 1-norms <= 0.12, far below 3
    @pytest.mark.parametrize("norm", [n for n in EXPM_NORMS if n <= 3.0])
    def test_ket_steps_are_unitary(self, rng, norm):
        complex_steps, real_steps = (operators._expm(a) for a in self.stacks(rng, norm)[::2])
        assert max(unitarity_defect(u) for u in complex_steps) <= 3e-15
        assert max(np.linalg.norm(o.T @ o - np.eye(6)) for o in real_steps) <= 3e-15

    @pytest.mark.parametrize("norm", [n for n in EXPM_NORMS if n <= 3.0])
    def test_lindblad_steps_keep_the_trace_row(self, rng, norm):
        # Tr rho = t . x with t = (1, 1, 1, 0, ..., 0) on x_a = Tr(l_a rho): a trace-preserving
        # generator has t^T a = 0, so each step must keep t^T exp(a) = t^T
        trace_row = np.trace(operators._HERMITIAN_BASIS, axis1=1, axis2=2).real
        steps = operators._expm(self.stacks(rng, norm)[3])
        assert np.max(np.abs(trace_row @ steps - trace_row)) <= 1e-15
