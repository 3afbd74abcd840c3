import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geodrive import cli, schedules
from geodrive.cli import main
from geodrive.curves import curve_from_expressions
from geodrive.operators import IntegrationFailure
from geodrive.scenarios import ScenarioError, load_scenario
from geodrive.schedules import ControlSchedule, TwoToneSchedule
from geodrive.simulate import NoiseModel, run_lindblad, run_schrodinger
from test_curves import DYNAMIC_OPENBLAS, REFERENCE_EXPRESSIONS

REFERENCE = {
    "version": 1,
    "name": "demo",
    "scheme": "geometric",
    "curve": "reference",
    "mode": "phase",
    "duration": 2.0,
    "noise": {"delta": 0.5, "gamma": 0.002},
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def reference_rows(d):
    """The d,x,y,z rows of the reference curve at the parameters d."""
    return np.column_stack([d, curve_from_expressions(*REFERENCE_EXPRESSIONS).position(d)])


def write_rows(tmp_path, rows, name="curve.csv"):
    """A scenario whose curve is the d,x,y,z table ``rows``."""
    np.savetxt(tmp_path / name, rows, fmt="%.17g", delimiter=",", header="d,x,y,z",
               comments="")
    return {**REFERENCE, "curve": {"table": name}}


def write_table(tmp_path, d, name="curve.csv"):
    """A d,x,y,z table of the reference curve at the parameters d."""
    return write_rows(tmp_path, reference_rows(d), name)


def write_text_table(text):
    """A scenario writer whose curve table file holds ``text``."""
    def write(tmp_path):
        (tmp_path / "curve.csv").write_text(text)
        return {**REFERENCE, "curve": {"table": "curve.csv"}}
    return write


def write_nan_table(tmp_path):
    rows = reference_rows(np.linspace(0.0, 1.0, 20))
    rows[9, 1] = np.nan
    return write_rows(tmp_path, rows)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestScenarioLoading:
    def test_minimal_geometric(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, REFERENCE))
        assert scenario.scheme == "geometric"
        assert scenario.noise.delta == 0.5

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)

    def test_unknown_scheme(self, tmp_path):
        with pytest.raises(ScenarioError, match="scheme"):
            load_scenario(write_scenario(tmp_path, {**REFERENCE, "scheme": "magic"}))

    def test_curve_required_for_geometric(self, tmp_path):
        payload = {k: v for k, v in REFERENCE.items() if k != "curve"}
        with pytest.raises(ScenarioError, match="curve"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_curve_forbidden_for_baselines(self, tmp_path):
        payload = {**REFERENCE, "scheme": "sta"}
        with pytest.raises(ScenarioError, match="curve"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_expression_curve(self, tmp_path):
        payload = {**REFERENCE,
                   "curve": {"x": "cos(2*pi*d)", "y": "sin(2*pi*d)", "z": "0"}}
        scenario = load_scenario(write_scenario(tmp_path, payload))
        assert scenario.curve_label == "expression"

    def test_cyclic_convention_scales_frequencies(self, tmp_path):
        path = write_scenario(tmp_path, REFERENCE)
        angular = load_scenario(path, convention="angular")
        cyclic = load_scenario(path, convention="cyclic")
        assert cyclic.noise.delta == pytest.approx(2 * np.pi * angular.noise.delta)

    def test_version_required(self, tmp_path):
        payload = {k: v for k, v in REFERENCE.items() if k != "version"}
        with pytest.raises(ScenarioError, match="version"):
            load_scenario(write_scenario(tmp_path, payload))


class TestValidateCurveCommand:
    def test_reference_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, REFERENCE)
        code = main(["validate-curve", "--scenario", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["arc_length"] == pytest.approx(2.116, abs=5e-3)
        assert payload["passed"] is True
        assert payload["flagged_samples"] == 0

    def test_open_segment_fails(self, tmp_path, capsys):
        payload = {**REFERENCE, "curve": {"x": "0", "y": "0", "z": "3*d"}}
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["closed"] is False

    def test_circle_fails_tangents(self, tmp_path, capsys):
        payload = {**REFERENCE,
                   "curve": {"x": "cos(2*pi*d)", "y": "sin(2*pi*d)", "z": "0"}}
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["closed"] is True
        assert out["start_tangent_ok"] is False

    def test_malformed_expression_is_input_error(self, tmp_path):
        payload = {**REFERENCE, "curve": {"x": "frob(d)", "y": "0", "z": "d"}}
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        assert code == 2

    @pytest.mark.parametrize("text, reason", [
        ("d^0.5", "not an integer"),
        ("sin(pi*d)^(1/3)", "not an integer"),
        ("d^d", "depends on d"),
        ("2^d", "depends on d"),
        ("d.real", "unsupported syntax"),
        ("exp(d)", "unknown names ['exp']"),
        ("(d)(2)", "unsupported syntax"),
        ("sin(d, d)", "unsupported syntax"),
        ("sin(x=d)", "unsupported syntax"),
        ("d[0]", "unsupported syntax"),
        ("(lambda: d)()", "unsupported syntax"),
        ("d % 2", "unsupported syntax"),
        ("d + 1/(2 - 2)", "division by zero"),
        ("d/0", "division by zero"),
        ("sin(pi*d)/(1-1)", "division by zero"),
        ("d + 1/(0*d)", "division by zero"),
        ("10^400*d", "'10 ** 400' overflows a float"),
        ("d*(-8)^(1/3)", "not a real number"),
    ])
    def test_expression_outside_grammar_is_input_error(self, tmp_path, capsys, text, reason):
        payload = {**REFERENCE, "curve": {"x": "0", "y": text, "z": "d"}}
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        err = capsys.readouterr().err
        assert code == 2
        assert "curve.y: component 'y'" in err and reason in err
        assert "Traceback" not in err

    def test_constant_exponent_expression_matches_builtin(self, tmp_path, capsys):
        payload = {**REFERENCE, "curve": dict(zip("xyz", REFERENCE_EXPRESSIONS))}
        assert main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))]) == 0
        expression = json.loads(capsys.readouterr().out)
        assert main(["validate-curve", "--scenario", str(write_scenario(tmp_path, REFERENCE))]) == 0
        builtin = json.loads(capsys.readouterr().out)
        assert expression.pop("curve") == "expression" and builtin.pop("curve") == "reference"
        assert expression == builtin
        assert curve_from_expressions("2^(1/2)*d", "0", "d").position(1.0)[0, 0] == np.sqrt(2.0)

    @pytest.mark.parametrize("write, reason", [
        (lambda p: write_table(p, np.linspace(0.0, 1.0, 7)), "at least 8 table rows"),
        (lambda p: write_table(p, np.linspace(0.0, 1.0, 20)[[0, 1, 2, 4, 3, *range(5, 20)]]),
         "strictly increasing"),
        (write_text_table("d,x,y,z\n"), "at least 8 table rows"),
        (write_text_table(""), "expected header 'd,x,y,z'"),
        (lambda p: {**REFERENCE, "curve": {"table": 5}}, "expected str, got int"),
        (write_nan_table, "must be finite"),
        # the reference curve sampled past d = 1 and short of it: cut or extrapolated
        (lambda p: write_table(p, np.linspace(0.0, 2.0, 401)), "from exactly 0 to exactly 1"),
        (lambda p: write_table(p, np.linspace(0.0, 0.5, 401)), "from exactly 0 to exactly 1"),
    ], ids=["seven-rows", "non-increasing", "header-only", "empty-file", "not-a-string",
            "nan-value", "d-to-2", "d-to-half"])
    def test_bad_table_is_input_error(self, tmp_path, capsys, write, reason):
        payload = write(tmp_path)
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        err = capsys.readouterr().err
        assert code == 2
        assert "curve.table" in err and reason in err and "Traceback" not in err

    def test_baseline_scenario_is_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "scheme": "sta"})
        for command, out_args in (("validate-curve", []), ("synthesize", ["--out", "o"])):
            assert main([command, "--scenario", str(path), *out_args]) == 2
            err = capsys.readouterr().err
            assert err.startswith("scenario error: curve: ") and command in err


@pytest.mark.parametrize("command", ["validate-curve", "synthesize"])
@pytest.mark.parametrize("tol", ["0", "-1e-6"])
def test_nonpositive_tol_is_input_error(tmp_path, capsys, command, tol):
    path = write_scenario(tmp_path, REFERENCE)
    out_args = ["--out", str(tmp_path / "o")] if command == "synthesize" else []
    code = main([command, "--scenario", str(path), *out_args, "--tol", tol])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("run", ["--tol", "1e-6"]),
                                           ("validate-curve", ["--out", "o"])])
def test_flag_the_command_does_not_read_is_input_error(tmp_path, capsys, command, flag):
    path = write_scenario(tmp_path, REFERENCE)
    assert main([command, "--scenario", str(path), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command, curve, error", [
    # r'(d) = (0, 0, 9 d^2) vanishes at d = 0, the point t = 0 of every sampled grid
    ("validate-curve", ("0", "0", "3*d^3"), "has zero speed at d = 0.0"),
    ("synthesize", ("0", "0", "3*d^3"), "has zero speed at d = 0.0"),
    # y = 1/d is infinite at d = 0: no divide-by-zero warning ahead of the error line
    ("validate-curve", ("0", "d^-1", "d"), "produced non-finite samples"),
    # x = 1/(d - 0.5) has its pole inside [0, 1]: no NaN in a geometry report
    ("validate-curve", ("1/(d-0.5)",) + REFERENCE_EXPRESSIONS[1:], "is not finite at d = 0.5"),
    ("synthesize", ("1/(d-0.5)",) + REFERENCE_EXPRESSIONS[1:], "is not finite at d = 0.5"),
], ids=["validate-curve", "synthesize", "pole-validate-curve", "interior-pole-validate-curve",
        "interior-pole-synthesize"])
def test_zero_speed_curve_is_curve_error(tmp_path, capsys, command, curve, error):
    payload = {**REFERENCE, "curve": dict(zip("xyz", curve))}
    path = write_scenario(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out_args = ["--out", str(tmp_path / "o")] if command == "synthesize" else []
        code = main([command, "--scenario", str(path), *out_args])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert f"curve error: curve 'expression-curve' {error}" in err
    assert "NaN" not in err and "Traceback" not in err and "Warning" not in err


class TestSynthesizeCommand:
    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        path = write_scenario(tmp_path, REFERENCE)
        out = tmp_path / "out"
        assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        sidecar = json.loads((out / "schedule.json").read_text())
        assert sidecar["roundtrip_residual"] <= 1e-4
        assert sidecar["noise_term"] <= 1e-4
        assert sidecar["mode"] == "phase"
        first = (out / "schedule.csv").read_bytes()
        geometry_first = (out / "geometry.csv").read_bytes()
        assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "schedule.csv").read_bytes() == first
        assert (out / "geometry.csv").read_bytes() == geometry_first

    def test_reconstructs_once(self, tmp_path, capsys, solves):
        path = write_scenario(tmp_path, REFERENCE)
        assert main(["synthesize", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(solves) == 1

    def test_curve_with_kappa_zero_at_start_synthesizes(self, tmp_path, capsys):
        # a smooth turn-on (Omega -> 0 at t = 0) has no normal there to align; the
        # roundtrip gauge is a fit over the whole curve, so it needs none
        curve = {"x": "sin(pi*d)^8", "y": "sin(pi*d)^8*cos(pi*d)", "z": "sin(pi*d)/pi"}
        path = write_scenario(tmp_path, {**REFERENCE, "curve": curve})
        out = tmp_path / "out"
        assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert json.loads((out / "schedule.json").read_text())["roundtrip_residual"] <= 1e-4

    def test_subnormal_phase_secants_synthesize(self, tmp_path, capsys):
        # x = 1e-308 d leaves phi with secants near 1e-311; the curve is all but planar,
        # with an inflection that Omega = kappa does not follow, so its pulse does not close
        curve = dict(zip("xyz", ("1e-308*d",) + REFERENCE_EXPRESSIONS[1:]))
        path = write_scenario(tmp_path, {**REFERENCE, "curve": curve})
        assert main(["synthesize", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "Warning" not in capsys.readouterr().err

    def test_pulse_that_does_not_close_is_refused(self, tmp_path, capsys):
        # the planar curve passes boundary validation, but at its inflection the Frenet
        # frame flips and Omega = kappa >= 0 loses the sign: noise_term reads 1.47
        curve = dict(zip("xyz", ("0",) + REFERENCE_EXPRESSIONS[1:]))
        path = write_scenario(tmp_path, {**REFERENCE, "curve": curve})
        out = tmp_path / "o"
        assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        report = json.loads(err)
        assert stdout == "" and not any(out.iterdir())
        assert "noise_term" in report["error"] and report["noise_term"] > 1.0

    def test_failing_curve_aborts(self, tmp_path, capsys):
        payload = {**REFERENCE, "curve": {"x": "0", "y": "0", "z": "3*d"}}
        path = write_scenario(tmp_path, payload)
        code = main(["synthesize", "--scenario", str(path), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_plot_script_emitted(self, tmp_path, capsys):
        path = write_scenario(tmp_path, REFERENCE)
        out = tmp_path / "plots"
        assert main(["synthesize", "--scenario", str(path), "--out", str(out),
                     "--plot-script"]) == 0
        capsys.readouterr()
        assert "plot" in (out / "schedule.gp").read_text()


class TestRunCommand:
    def test_single_scheme_outputs(self, tmp_path, capsys, sta):
        payload = {"version": 1, "name": "sta-only", "scheme": "sta",
                   "noise": {"delta": 0.5, "gamma": 0.002}}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        ideal = read_csv(out / "sta_ideal.csv")
        noisy = read_csv(out / "sta_noisy.csv")
        assert ideal["p_plus1"][-1] >= 1 - 1e-6
        assert noisy["p_plus1"][-1] <= 0.95
        sums = noisy["p_minus1"] + noisy["p_0"] + noisy["p_plus1"]
        assert np.max(np.abs(sums - 1)) <= 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["schemes"]["sta"]
        assert entry["ideal_final_p_plus1"] >= 1 - 1e-6
        # every defect the two solves computed is reported, none repaired
        ideal = run_schrodinger(sta)
        noisy = run_lindblad(sta, NoiseModel(delta=0.5, gamma=0.002))
        assert entry["steps"] == ideal.metadata["steps"] == noisy.metadata["steps"] == 1000
        assert entry["ideal_norm_defect"] == ideal.trace_defect <= 1e-12
        assert entry["noisy_trace_defect"] == noisy.trace_defect <= 1e-12
        assert entry["noisy_hermiticity_defect"] == noisy.metadata["hermiticity_defect"] <= 1e-12
        assert entry["noisy_min_eigenvalue"] == noisy.metadata["min_eigenvalue"] >= -1e-12

    def test_bundle_produces_eight_csvs(self, tmp_path, capsys):
        payload = {**REFERENCE, "scheme": "all", "name": "fig5"}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "fig5"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        csvs = sorted(p.name for p in out.glob("*_*.csv"))
        assert csvs == sorted(f"{s}_{kind}.csv" for s in ("geometric", "srt", "stirap", "sta")
                              for kind in ("ideal", "noisy"))
        manifest = json.loads((out / "manifest.json").read_text())
        geo = manifest["schemes"]["geometric"]
        assert geo["ideal_final_p_plus1"] >= 1 - 1e-6
        assert geo["noisy_final_p_plus1"] >= 0.98


#: values whose text is easy to get wrong: signed zero, tiny, huge, round
AWKWARD_VALUES = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300, 1.0, 0.1, 1 / 3, -2.5,
                  123456789.0, 1e-5, -0.0, 2.0**-1074, 0.5, 1e16, 1e17, 1 - 1e-16,
                  7e-8, 3.0, -1.0, 0.25, 1e22, -0.0]

#: the header of each table the commands write; ordering.csv's numbers are rows of the
#: same writer, ahead of its text column
TABLE_LAYOUTS = {
    "populations": ("t", "p_minus1", "p_0", "p_plus1"),
    "sweep": ("delta", "p_plus1_final"),
    "ordering": ("delta", "p_geometric", "p_srt", "p_stirap", "p_sta"),
    "geometry": ("t", "kappa", "tau", "flag"),
    "schedule": ("t",) + ControlSchedule._FIELDS,
    "two-tone-schedule": ("t",) + TwoToneSchedule._FIELDS,
}


def _per_value_table(path, header, table):
    """The reference writer: one ``format(v + 0.0, ".17g")`` per value, so -0 reads 0."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(format(float(v) + 0.0, ".17g") for v in row) + "\n")


def _tokens(text):
    return re.split(r"[,\n]", text)


@pytest.mark.parametrize("layout", TABLE_LAYOUTS)
def test_table_writer_matches_per_value_writer(tmp_path, layout):
    """Every table keeps 17 significant digits and writes -0 as 0."""
    header = TABLE_LAYOUTS[layout]
    table = np.random.default_rng(5).normal(size=(101, len(header)))
    table.ravel()[:24] = AWKWARD_VALUES
    # the commands pass single columns and blocks of columns alike
    schedules.write_table(tmp_path / "new.csv", header, [table[:, 0], table[:, 1:]])
    _per_value_table(tmp_path / "old.csv", header, table)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert "-0" not in _tokens(new.decode())


def test_planar_detuning_curve_writes_no_negative_zero(tmp_path, capsys):
    # a planar curve has zero torsion, so detuning mode's delta = -tau is -0 on every sample;
    # this one, w = z + iy = i (e^(i pi d) - e^(3i pi d)) / (2 pi), turns by 3 pi with
    # kappa > 0 throughout, so its pulse closes (noise_term 1e-11)
    payload = {"version": 1, "scheme": "geometric", "mode": "detuning",
               "curve": {"x": "0", "y": "(cos(pi*d)-cos(3*pi*d))/(2*pi)",
                         "z": "(sin(3*pi*d)-sin(pi*d))/(2*pi)"}}
    out = tmp_path / "o"
    assert main(["synthesize", "--scenario", str(write_scenario(tmp_path, payload)),
                 "--out", str(out)]) == 0
    delta = read_csv(out / "schedule.csv")["delta"]
    assert delta.size == 2001 and not delta.any()
    for name in ("schedule.csv", "geometry.csv"):
        assert "-0" not in _tokens((out / name).read_text())


BAD_BASELINES = [
    ("srt", {"duration": 0.0}, "scenario.srt.duration"),
    ("srt", {"rabi": -8.0}, "scenario.srt.rabi"),
    ("stirap", {"peak": -5.0}, "scenario.stirap.peak"),
    # passes the pulse-area check: (rabi / sqrt 2) * duration = pi
    ("sta", {"rabi": -np.pi / np.sqrt(2.0), "duration": -2.0}, "scenario.sta.duration"),
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scheme, block, field", BAD_BASELINES,
                         ids=[f for _, _, f in BAD_BASELINES])
def test_malformed_baseline_block_is_input_error(tmp_path, capsys, command, scheme,
                                                 block, field):
    payload = {"version": 1, "scheme": scheme, scheme: block,
               "sweep": {"start": -0.2, "stop": 0.2, "count": 3,
                         "scaling": {"lo": 0.02, "hi": 0.1, "n": 5}}}
    path = write_scenario(tmp_path, payload)
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scenario error: ")
    assert field in err


NON_FINITE = [
    ("run", {"noise": {"delta": float("nan")}}, "scenario.noise.delta"),
    ("run", {"duration": float("inf")}, "duration"),
    ("run", {"noise": {"gamma": float("inf")}}, "scenario.noise.gamma"),
    ("sweep", {"sweep": {"start": float("nan")}}, "scenario.sweep.start"),
]


@pytest.mark.parametrize("command, change, field", NON_FINITE, ids=[f for _, _, f in NON_FINITE])
def test_non_finite_number_is_input_error(tmp_path, capsys, command, change, field):
    # json admits NaN and Infinity: each must stop at the field that holds it
    path = write_scenario(tmp_path, {**REFERENCE, **change})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"scenario error: {field}: ")
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o").exists()


#: finite values past the range a run stays finite in: each printed numpy warnings and
#: exited 1 (or 0, for scaling.hi) before the range check
EXTREME = [
    ("run", {"duration": 1e-300}, [], "duration"),
    ("run", {"duration": 1e300}, [], "duration"),
    ("run", {"noise": {"delta": 1e300}}, [], "scenario.noise.delta"),
    ("run", {"noise": {"gamma": 1e300}}, [], "scenario.noise.gamma"),
    ("run", {"noise": {"delta": 2e5}}, ["--convention", "cyclic"], "scenario.noise.delta"),
    ("sweep", {"sweep": {"stop": 1e300}}, [], "scenario.sweep.stop"),
    ("sweep", {"sweep": {"scaling": {"hi": 1e300}}}, [], "scenario.sweep.scaling.hi"),
    ("run", {"scheme": "all", "srt": {"rabi": 1e300}}, [], "scenario.srt.rabi"),
    ("run", {"scheme": "all", "stirap": {"peak": 1e300}}, [], "scenario.stirap.peak"),
    ("run", {"scheme": "all", "srt": {"duration": 1e300}}, [], "scenario.srt.duration"),
    ("run", {"scheme": "all", "stirap": {"window": 1e300}}, [], "scenario.stirap.window"),
    ("sweep", {"scheme": "all", "stirap": {"width": 1e-300}}, [], "scenario.stirap.width"),
]


@pytest.mark.parametrize("command, change, flags, field", EXTREME,
                         ids=[f"{f}={c}" for _, c, _, f in EXTREME])
def test_finite_extreme_is_input_error(tmp_path, capsys, command, change, flags, field):
    path = write_scenario(tmp_path, {**REFERENCE, **change})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"scenario error: {field}: ")
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o").exists()


def test_range_edges_are_accepted(tmp_path, capsys):
    # the edges of the ranges load, run and sweep: durations and baseline times of 1e-6 and
    # 1e6 us, frequencies of 1e6 rad/us; the constant pulse needs its pulse area of pi, which
    # at 1e-6 us would take 4.4e6 rad/us, so it sits at its 1e6 us edge in both rounds
    for duration, rate in ((1e-6, 1e6), (1e6, -1e6)):
        times = {"separation": duration, "width": duration, "window": duration}
        payload = {**REFERENCE, "scheme": "all", "duration": duration,
                   "noise": {"delta": rate, "gamma": abs(rate)},
                   "sweep": {"start": -rate, "stop": rate, "count": 3,
                             "scaling": {"lo": rate, "hi": rate}},
                   "srt": {"rabi": abs(rate), "detuning": rate, "duration": duration},
                   # a 1e6 rad/us peak over 1e6 us Gaussians overflows the Lindblad solve
                   "stirap": {**times, "peak": abs(rate)} if duration < 1 else times,
                   "sta": {"rabi": 2**0.5 * np.pi / 1e6, "duration": 1e6}}
        path = write_scenario(tmp_path, payload)
        scenario = load_scenario(path)
        assert scenario.duration == duration and scenario.noise.delta == rate
        assert scenario.sweep.start == -rate and scenario.sweep.scaling_hi == rate
        assert scenario.srt.duration == duration and scenario.stirap.window == duration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("run", "sweep"):
                assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()


@pytest.mark.skipif(not DYNAMIC_OPENBLAS, reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_outputs_across_blas_kernels(tmp_path, capsys, core):
    # the curve and schedule files keep their bits under every kernel; the populations
    # move with the stepper's small matmuls: 5.4e-14 at most under Nehalem, 1.3e-15 under
    # Haswell, over seeds 1 and 2 of the compare workload
    path = write_scenario(tmp_path, {**REFERENCE, "scheme": "all"})
    script = ("import sys\nfrom geodrive.cli import main\n"
              "sys.exit(main(['synthesize', '--scenario', sys.argv[1], '--out', sys.argv[2]])\n"
              "         or main(['run', '--scenario', sys.argv[1], '--out', sys.argv[2]]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / core)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for command in ("synthesize", "run"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    for name in ("geometry.csv", "schedule.csv"):
        assert (tmp_path / core / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    for scheme in ("geometric", "srt", "stirap", "sta"):
        for run in ("ideal", "noisy"):
            ours, theirs = (np.loadtxt(tmp_path / side / f"{scheme}_{run}.csv", delimiter=",",
                                       skiprows=1) for side in ("default", core))
            assert np.max(np.abs(ours - theirs)) <= 1e-13


class TestSweepCommand:
    def test_requires_sweep_block(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "scheme": "sta"})
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("scenario error: sweep: ")
        assert not (tmp_path / "s").exists()

    def test_sta_sweep_outputs(self, tmp_path, capsys):
        payload = {"version": 1, "scheme": "sta", "noise": {"gamma": 0.0},
                   "sweep": {"start": -0.2, "stop": 0.2, "count": 5,
                             "scaling": {"lo": 0.02, "hi": 0.1, "n": 5}}}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--plot-script"]) == 0
        capsys.readouterr()
        rows = read_csv(out / "sta_sweep.csv")
        assert rows["delta"].size == 5
        # delta = 0 column equals the ideal-run fidelity
        mid = rows["p_plus1_final"][2]
        assert mid >= 1 - 1e-6
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["infidelity_exponents"]["sta"] == pytest.approx(2.0, abs=0.2)
        ordering = (out / "ordering.csv").read_text().splitlines()
        assert ordering[0] == "delta,p_sta,dominant"
        assert (out / "sweep.gp").exists()
        [entry] = report["schemes"].values()
        assert entry["warnings"] == []
        assert entry["max_trace_defect"] <= 1e-12
        assert entry["max_hermiticity_defect"] <= 1e-12
        assert entry["min_eigenvalue"] >= -1e-12

    def test_scheme_failure_is_recorded_and_sweep_goes_on(self, tmp_path, capsys,
                                                          monkeypatch):
        def failing(schedule, grid, gamma=0.0):
            if schedule.duration > 10.0:  # only the STIRAP window (14 us) is this long
                raise IntegrationFailure("step size underflow", 1.5)
            return real_sweep(schedule, grid, gamma=gamma)

        real_sweep = cli.sweep_delta
        monkeypatch.setattr(cli, "sweep_delta", failing)
        payload = {**REFERENCE, "scheme": "all",
                   "sweep": {"start": -0.2, "stop": 0.2, "count": 3,
                             "scaling": {"lo": 0.02, "hi": 0.1, "n": 5}}}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1
        capsys.readouterr()
        report = json.loads((out / "sweep_report.json").read_text())
        assert "step size underflow" in report["schemes"]["stirap"]["error"]
        assert "stirap" not in report["infidelity_exponents"]
        assert not (out / "stirap_sweep.csv").exists()
        for scheme in ("geometric", "srt", "sta"):
            assert (out / f"{scheme}_sweep.csv").exists()
        # the default SRT block is marginal; its schedule warning reaches the report
        [warning] = report["schemes"]["srt"]["warnings"]
        assert "adiabatic elimination" in warning
        assert report["schemes"]["sta"]["warnings"] == []
        assert (out / "ordering.csv").read_text().splitlines()[0] == \
            "delta,p_geometric,p_srt,p_sta,dominant"



class TestReruns:
    @pytest.mark.parametrize("command, report", [("run", "manifest.json"),
                                                 ("sweep", "sweep_report.json"),
                                                 ("synthesize", "schedule.json")],
                             ids=["run-manifest.json", "sweep-sweep_report.json",
                                  "synthesize-table"])
    def test_byte_identical_and_one_solver_key(self, tmp_path, capsys, command, report):
        payload = {**REFERENCE, "scheme": "all",
                   "sweep": {"start": -0.2, "stop": 0.2, "count": 3,
                             "scaling": {"lo": 0.02, "hi": 0.1, "n": 5}}}
        if command == "synthesize":
            payload = write_table(tmp_path, np.linspace(0.0, 1.0, 401))
        path = write_scenario(tmp_path, payload)
        outputs = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        capsys.readouterr()
        assert report in outputs[0] and outputs[0] == outputs[1]
        payload = json.loads(outputs[0][report])
        assert payload["solver"] == "magnus4"
        assert "tolerances" not in payload and "unitary_solver" not in payload


@pytest.mark.parametrize("command, curve", [
    ("import", "reference"),
    ("validate-curve", "reference"),
    ("validate-curve", "table"),
    ("synthesize", "table"),
], ids=["import", "validate-curve", "table-validate-curve", "table-synthesize"])
def test_import_path_loads_neither_sympy_nor_scipy(tmp_path, command, curve):
    """A CLI process imports numpy only: sympy and scipy cost ~1 s of set-up."""
    payload = write_table(tmp_path, np.linspace(0.0, 1.0, 401)) if curve == "table" else REFERENCE
    path = write_scenario(tmp_path, payload)
    out_arg = ", '--out', 'out'" if command == "synthesize" else ""
    run = "import geodrive.cli" if command == "import" else (
        "from geodrive.cli import main\n"
        f"if main(['{command}', '--scenario', sys.argv[1]{out_arg}]) != 0:\n"
        f"    sys.exit('{command} failed')")
    script = ("import sys\n" + run + "\n"
              "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy'))\n"
              "if loaded:\n"
              "    sys.exit(f'loaded {loaded}')\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
