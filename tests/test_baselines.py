import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from geodrive.baselines import (SrtParams, StaParams, StirapParams,
                                srt_schedule, stirap_schedule)
from geodrive.operators import K_X, KET_MINUS1, propagate_state
from geodrive.schedules import noise_term
from geodrive.simulate import infidelity_scaling_exponent, run_schrodinger

SQRT2 = np.sqrt(2.0)


class TestSrt:
    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            SrtParams(detuning=0.0)

    def test_marginal_ratio_warns(self, srt):
        assert any("ratio" in w for w in srt.warnings)

    def test_intermediate_level_scarcely_populated(self, srt):
        result = run_schrodinger(srt)
        assert np.max(result.populations[:, 1]) <= 0.15

    def test_transfer_at_first_maximum(self, srt):
        assert run_schrodinger(srt).final_fidelity >= 0.95

    def test_oscillation_frequency_near_effective_rabi(self, srt):
        # the auto-selected duration is half a Raman period, so the implied
        # angular frequency pi / T must sit within 15% of Omega_srt
        implied = np.pi / srt.duration
        assert implied == pytest.approx(np.pi / 2, rel=0.15)

    def test_explicit_duration_respected(self):
        sched = srt_schedule(SrtParams(duration=1.0))
        assert sched.duration == pytest.approx(1.0)


class TestStirap:
    def test_ideal_transfer(self, stirap):
        assert run_schrodinger(stirap).final_fidelity >= 0.95

    def test_stokes_peak_at_center(self, stirap):
        params = StirapParams()
        mu_stokes, _ = params.centers
        stokes_lab = SQRT2 * stirap.values(mu_stokes)[1]
        assert stokes_lab == pytest.approx(params.peak, rel=1e-9)

    def test_counterintuitive_order_matters(self, stirap):
        swapped = dataclasses.replace(stirap,
                                      pump_omega=stirap.stokes_omega,
                                      stokes_omega=stirap.pump_omega)
        assert run_schrodinger(swapped).final_fidelity <= 0.5

    def test_narrow_window_warns(self):
        sched = stirap_schedule(StirapParams(window=9.0))
        assert any("window" in w for w in sched.warnings)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            StirapParams(separation=-1.0)
        with pytest.raises(ValueError):
            StirapParams(width=0.0)


class TestSta:
    def test_ideal_transfer_is_exact(self, sta):
        assert run_schrodinger(sta).final_fidelity >= 1 - 1e-6

    def test_matches_analytic_rotation(self, sta):
        final = propagate_state(sta, KET_MINUS1, np.array([0.0, 2.0]))[-1]
        exact = expm(-1j * np.pi * K_X) @ KET_MINUS1
        assert np.allclose(final, exact, atol=1e-9)

    def test_incomplete_area_rejected(self):
        with pytest.raises(ValueError, match="area"):
            StaParams(rabi=1.0, duration=2.0)

    def test_open_curve_noise_term(self, sta):
        assert noise_term(sta) > 0.1

    def test_quadratic_noise_sensitivity(self, sta):
        exponent = infidelity_scaling_exponent(sta, 0.01, 0.1)
        assert exponent == pytest.approx(2.0, abs=0.2)
