"""Output checks, one function per workload.

Each check compares what the program wrote or returned against a value the
benchmark computes on its own, or against a property the method must have.
A check gets the op's observed outputs as plain data and returns a list of
failure messages, empty when the op passed.
"""

from __future__ import annotations

import numpy as np

BOUNDARY_TOL = 1e-6          # closure and endpoint-tangent residuals
ARC_LENGTH_RTOL = 1e-9       # program arc length against the numpy quadrature
ROUNDTRIP_TOL = 1e-4
NOISE_TERM_TOL = 1e-4        # |m(T)| of a closed curve is 0
ANGLES_RESIDUAL_TOL = 1e-6   # three-angle factorization of the propagator
EXACT_TRANSFER_TOL = 1e-6    # ideal P+1 of the geometric and constant pulses
STIRAP_IDEAL_MIN = 0.95
TRACE_DEFECT_TOL = 1e-8
EXPONENT_MIN = 3.8           # the delta^4 law, with room for the fit
GEOMETRIC_PERT_TOL = 1e-10   # 1 - F_pert of the geometric pulse (delta^2 term vanishes)
STA_OVERLAP_TOL = 1e-10
STA_PERT_TOL = 1e-12

BOUNDARY_KEYS = ("closure_residual", "start_residual", "end_residual")
BASELINES = ("srt", "stirap", "sta")


def sta_overlap_closed_form(delta):
    """Exact overlap fidelity of the constant pi pulse: p^2 with
    p = sin^2((pi/2) sqrt(1 + x^2)) / (1 + x^2) and x = 2 delta / pi."""
    x2 = (2.0 * np.asarray(delta) / np.pi) ** 2
    p = np.sin(0.5 * np.pi * np.sqrt(1.0 + x2)) ** 2 / (1.0 + x2)
    return p * p


def sta_perturbative_closed_form(delta):
    """Second-order fidelity of the constant pi pulse, 1 - (8/pi^2) delta^2."""
    return 1.0 - 8.0 / np.pi**2 * np.asarray(delta) ** 2


class _Failures(list):
    def expect(self, ok, message):
        # written so that a NaN fails: every comparison with NaN is False
        if not ok:
            self.append(message)


def check_design(obs):
    """validate-curve stdout, schedule.json and the angle fit of one design op."""
    f = _Failures()
    report, sidecar = obs["validate"], obs["sidecar"]
    for key in BOUNDARY_KEYS:
        f.expect(report[key] <= BOUNDARY_TOL, f"validate-curve {key} {report[key]!r} > {BOUNDARY_TOL}")
        value = sidecar["boundary"][key]
        f.expect(value <= BOUNDARY_TOL, f"schedule.json boundary.{key} {value!r} > {BOUNDARY_TOL}")
    f.expect(report["passed"] is True, "validate-curve did not pass")
    expected = obs["arc_length"]
    for label, length in (("validate-curve arc_length", report["arc_length"]),
                          ("schedule.json arc_length_us", sidecar["arc_length_us"])):
        f.expect(abs(length - expected) <= ARC_LENGTH_RTOL * expected,
                 f"{label} {length!r} differs from quadrature {expected!r}")
    f.expect(sidecar["roundtrip_residual"] <= ROUNDTRIP_TOL,
             f"roundtrip_residual {sidecar['roundtrip_residual']!r} > {ROUNDTRIP_TOL}")
    f.expect(sidecar["noise_term"] <= NOISE_TERM_TOL,
             f"noise_term {sidecar['noise_term']!r} > {NOISE_TERM_TOL}")
    f.expect(obs["angles_residual"] <= ANGLES_RESIDUAL_TOL,
             f"angle factorization residual {obs['angles_residual']!r} > {ANGLES_RESIDUAL_TOL}")
    return f


def check_compare(obs):
    """manifest.json of one `run` with scheme `all`."""
    f = _Failures()
    schemes = obs["manifest"]["schemes"]
    f.expect(set(schemes) == {"geometric", *BASELINES}, f"schemes {sorted(schemes)}")
    for name, entry in schemes.items():
        f.expect("error" not in entry, f"{name}: error entry {entry.get('error')!r}")
    if f:
        return f
    for name, floor in (("geometric", 1 - EXACT_TRANSFER_TOL), ("sta", 1 - EXACT_TRANSFER_TOL),
                        ("stirap", STIRAP_IDEAL_MIN)):
        value = schemes[name]["ideal_final_p_plus1"]
        f.expect(value >= floor, f"{name} ideal P+1 {value!r} < {floor}")
    for name, entry in schemes.items():
        defect = entry["noisy_trace_defect"]
        f.expect(defect <= TRACE_DEFECT_TOL, f"{name} noisy trace defect {defect!r} > {TRACE_DEFECT_TOL}")
    geometric = schemes["geometric"]["noisy_final_p_plus1"]
    for name in BASELINES:
        other = schemes[name]["noisy_final_p_plus1"]
        f.expect(geometric > other, f"geometric noisy P+1 {geometric!r} not above {name} {other!r}")
    return f


def check_robustness(obs):
    """sweep outputs plus the perturbative and closed-form anchors of one robustness op."""
    f = _Failures()
    exponent = obs["report"]["infidelity_exponents"]["geometric"]
    f.expect(isinstance(exponent, float) and exponent >= EXPONENT_MIN,
             f"geometric infidelity exponent {exponent!r} < {EXPONENT_MIN}")
    rows = np.asarray(obs["sweep_rows"], dtype=float)
    grid = np.asarray(obs["grid"], dtype=float)
    f.expect(rows.shape == (grid.size, 2) and np.allclose(rows[:, 0], grid, rtol=0, atol=1e-12),
             f"sweep rows {rows.shape} do not match the delta grid {grid.tolist()}")
    f.expect(bool(np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))),
             f"swept P+1 outside [0, 1]: {rows[:, 1].tolist()}")
    deltas = np.asarray(obs["scaling_deltas"], dtype=float)
    geo = np.asarray(obs["geometric_pert"], dtype=float)
    f.expect(bool(np.all(geo >= 1.0 - GEOMETRIC_PERT_TOL)),
             f"geometric perturbative fidelity {geo.tolist()} below 1 - {GEOMETRIC_PERT_TOL}")
    for label, got, want, tol in (
            ("sta overlap_fidelity", obs["sta_overlap"], sta_overlap_closed_form(deltas), STA_OVERLAP_TOL),
            ("sta perturbative_fidelity", obs["sta_pert"], sta_perturbative_closed_form(deltas), STA_PERT_TOL)):
        err = np.max(np.abs(np.asarray(got, dtype=float) - want))
        f.expect(err <= tol, f"{label} off its closed form by {err!r} > {tol}")
    return f


CHECKS = {"design": check_design, "compare": check_compare, "robustness": check_robustness}


def check(workload, obs):
    """Failure messages for one op; malformed output is a failure too."""
    try:
        return list(CHECKS[workload](obs))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
