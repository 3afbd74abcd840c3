"""Acceptance criteria, one test per criterion.

Each test rebuilds what it needs from scratch, measures wall time against
the criterion's runtime budget, and prints a single PASS/FAIL line (visible
with ``pytest -s``).
"""

import time

import numpy as np

import geodrive as gd
from geodrive.baselines import srt_schedule, sta_schedule, stirap_schedule
from geodrive.invariants import angles_from_schedule, perturbative_fidelity
from geodrive.operators import K_X, K_Y, K_Z, propagate_operator
from geodrive.schedules import noise_term, roundtrip_deviation
from geodrive.simulate import (NoiseModel, infidelity_scaling_exponent,
                               overlap_fidelity, run_lindblad, run_schrodinger)
from physics import (commutator, constant_schedule, hamiltonian, hamiltonians,
                     invariant_defect, lr_phase_series, propagator_rebuild_error,
                     unitarity_defect)

GAMMA_NV = 0.002


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.checks = []
        self.start = time.perf_counter()

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget
        ok = all(flag for _, flag in self.checks) and in_budget
        detail = "; ".join(f"{label}={'ok' if flag else 'FAIL'}"
                           for label, flag in self.checks)
        print(f"ACCEPTANCE {self.number:02d} [{'PASS' if ok else 'FAIL'}] "
              f"{self.name}: {detail} ({elapsed:.2f}s / {self.budget:.0f}s budget)")
        for label, flag in self.checks:
            assert flag, f"criterion {self.number}: {label}"
        assert in_budget, f"criterion {self.number} exceeded budget: {elapsed:.2f}s"


def _pipeline(mode="phase", duration=None):
    arc = gd.reparametrize_by_arclength(gd.reference_curve())
    geometry = gd.curvature_torsion(arc)
    schedule = gd.synthesize(geometry, mode=mode)
    if duration is not None:
        schedule = schedule.rescaled(duration)
    return arc, geometry, schedule


def test_criterion_01_arc_length():
    crit = _Criterion(1, "reference-curve arc length", 1.0)
    arc = gd.reparametrize_by_arclength(gd.reference_curve())
    crit.check("|L - 2.116| <= 0.005", abs(arc.total_length - 2.116) <= 5e-3)
    crit.finish()


def test_criterion_02_boundary_conditions():
    crit = _Criterion(2, "closure and endpoint tangents", 1.0)
    arc = gd.reparametrize_by_arclength(gd.reference_curve())
    report = gd.check_boundary_conditions(arc, tol=1e-6)
    crit.check("closure <= 1e-6", report.closure_residual <= 1e-6)
    crit.check("start tangent <= 1e-6", report.start_residual <= 1e-6)
    crit.check("end tangent <= 1e-6", report.end_residual <= 1e-6)
    crit.finish()


def test_criterion_03_ideal_transfer():
    crit = _Criterion(3, "ideal transfer of the synthesized schedule", 5.0)
    _, _, schedule = _pipeline(mode="phase")
    result = run_schrodinger(schedule)
    crit.check("P_+1 >= 1 - 1e-6", result.final_fidelity >= 1 - 1e-6)
    crit.finish()


def test_criterion_04_roundtrip_oracle():
    crit = _Criterion(4, "roundtrip reconstruction and noise terms", 10.0)
    arc, _, schedule = _pipeline(mode="phase")
    crit.check("roundtrip <= 1e-4", roundtrip_deviation(arc, schedule) <= 1e-4)
    crit.check("geometric noise term <= 1e-4", noise_term(schedule) <= 1e-4)
    crit.check("constant-pulse noise term > 0.1", noise_term(sta_schedule()) > 0.1)
    crit.finish()


def test_criterion_05_error_suppression_scaling():
    crit = _Criterion(5, "infidelity scaling exponents", 60.0)
    _, _, schedule = _pipeline(mode="phase", duration=2.0)
    exp_geo = infidelity_scaling_exponent(schedule, 0.01, 0.1)
    exp_sta = infidelity_scaling_exponent(sta_schedule(), 0.01, 0.1)
    exp_srt = infidelity_scaling_exponent(srt_schedule(), 0.01, 0.1)
    crit.check(f"geometric exponent {exp_geo:.2f} >= 3.8", exp_geo >= 3.8)
    crit.check(f"constant-pulse exponent {exp_sta:.2f} in 2.0 +- 0.3",
               abs(exp_sta - 2.0) <= 0.3)
    crit.check(f"raman exponent {exp_srt:.2f} in 2.0 +- 0.3", abs(exp_srt - 2.0) <= 0.3)
    crit.finish()


def test_criterion_06_noisy_comparison():
    crit = _Criterion(6, "noisy-transfer comparison at delta=0.5, gamma=0.002", 30.0)
    _, _, schedule = _pipeline(mode="phase", duration=2.0)
    noise = NoiseModel(delta=0.5, gamma=GAMMA_NV)
    geo = run_lindblad(schedule, noise).final_fidelity
    sta = run_lindblad(sta_schedule(), noise).final_fidelity
    srt = run_lindblad(srt_schedule(), noise).final_fidelity
    crit.check(f"geometric {geo:.4f} >= 0.98", geo >= 0.98)
    crit.check(f"geometric > constant pulse ({sta:.4f})", geo > sta)
    crit.check(f"geometric > raman ({srt:.4f})", geo > srt)
    crit.finish()


def test_criterion_07_perturbative_consistency():
    crit = _Criterion(7, "perturbative-vs-exact fidelity gap halving", 10.0)
    sta = sta_schedule()
    gaps = {}
    for delta in (0.05, 0.025):
        exact = overlap_fidelity(sta, delta)
        parity = abs(exact - overlap_fidelity(sta, -delta))
        crit.check(f"δ⁴: F even in δ, |F({delta}) - F(-{delta})| = {parity:.1e} <= 1e-12",
                   parity <= 1e-12)
        pert = perturbative_fidelity(sta, delta)
        gaps[delta] = abs(exact - pert)
    # Omega K_x + delta K_z is real-symmetric and a pi rotation about x maps
    # delta to -delta, so F is even in delta: no delta^3 term.  The gap left by
    # a correct second-order estimate is c4 delta^4 + O(delta^6), with
    # c4 = (48 - 2 pi^2) / pi^4 for Omega T = pi, so halving delta divides it
    # by ~16.  A wrong delta^2 coefficient gives ~4, a spurious delta^3 term ~8.
    ratio = gaps[0.05] / gaps[0.025]
    crit.check(f"gap ratio {ratio:.2f} in [15, 17]", 15.0 <= ratio <= 17.0)
    crit.finish()


def test_criterion_08_invariant_identities():
    crit = _Criterion(8, "invariant-engine identities", 10.0)
    _, _, schedule = _pipeline(mode="phase", duration=2.0)
    angles_geo = angles_from_schedule(schedule, n_samples=80_001)
    sta = sta_schedule()
    angles_sta = angles_from_schedule(sta)
    # the geometric theta runs to pi, where beta is undefined and the 5-point dI/dt
    # amplifies the fitted azimuth's ~1e-10 jitter by 1/dt: its defect is taken where
    # sin theta > 1e-3, which drops 164 of the 80 001 samples
    for tag, sched, angles, well_posed, bound in (
            ("geometric", schedule, angles_geo, 1e-3, 1e-7),
            ("constant-pulse", sta, angles_sta, -np.inf, 1e-6)):
        a1 = lr_phase_series(sched, angles, 1)
        a2 = lr_phase_series(sched, angles, 2)
        a3 = lr_phase_series(sched, angles, 3)
        crit.check(f"{tag} alpha2 <= 1e-9", np.max(np.abs(a2)) <= 1e-9)
        crit.check(f"{tag} alpha1 + alpha3 <= 1e-9", np.max(np.abs(a1 + a3)) <= 1e-9)
        well = np.sin(angles.theta[2:-2]) > well_posed  # invariant_defect's samples
        crit.check(f"{tag} dI/dt defect <= {bound:.0e}",
                   np.max(invariant_defect(sched, angles)[well]) <= bound)
        crit.check(f"{tag} propagator rebuild <= 1e-6",
                   np.max(propagator_rebuild_error(angles)) <= 1e-6)
    crit.finish()


def test_criterion_09_algebra_and_properties():
    crit = _Criterion(9, "algebra and noise-channel properties", 5.0)
    rng = np.random.default_rng(7)
    comm_ok = (np.allclose(commutator(K_X, K_Y), 1j * K_Z, atol=1e-15)
               and np.allclose(commutator(K_Y, K_Z), 1j * K_X, atol=1e-15)
               and np.allclose(commutator(K_Z, K_X), 1j * K_Y, atol=1e-15))
    crit.check("commutation relations", comm_ok)
    herm_ok = program_ok = True
    for _ in range(50):
        fields = rng.uniform(0, 10), rng.uniform(-10, 10), rng.uniform(-7, 7)
        h = hamiltonian(*fields)
        herm_ok &= np.linalg.norm(h - h.conj().T) <= 1e-12
        # the H that the solves step with, from the schedule's interpolant
        program = hamiltonians(constant_schedule(*fields), [0.0, 0.37, 1.0])
        program_ok &= (np.max(np.abs(program - h)) <= 1e-14 and np.max(np.linalg.norm(
            program - program.conj().swapaxes(1, 2), axis=(1, 2))) <= 1e-14)
    crit.check("random Hamiltonians Hermitian <= 1e-12", herm_ok)
    crit.check("schedule Hamiltonians match the formula and are Hermitian <= 1e-14",
               program_ok)
    sta = sta_schedule()
    u = propagate_operator(sta, np.array([0.0, 2.0]))[-1]
    crit.check("propagator unitarity <= 1e-9", unitarity_defect(u) <= 1e-9)
    noisy = run_lindblad(sta, NoiseModel(delta=0.5, gamma=GAMMA_NV), n_samples=201)
    crit.check("lindblad trace defect <= 1e-8", noisy.trace_defect <= 1e-8)
    crit.check("lindblad min eigenvalue >= -1e-8",
               noisy.metadata["min_eigenvalue"] >= -1e-8)
    crit.finish()


def test_criterion_10_stirap_sanity():
    crit = _Criterion(10, "stirap ordering sensitivity", 10.0)
    import dataclasses
    stirap = stirap_schedule()
    forward = run_schrodinger(stirap).final_fidelity
    swapped = dataclasses.replace(stirap, pump_omega=stirap.stokes_omega,
                                  stokes_omega=stirap.pump_omega)
    reverse = run_schrodinger(swapped).final_fidelity
    crit.check(f"counterintuitive order {forward:.4f} >= 0.95", forward >= 0.95)
    crit.check(f"reversed order {reverse:.4f} <= 0.5", reverse <= 0.5)
    crit.finish()
