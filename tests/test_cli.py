import json
from dataclasses import replace

import numpy as np
import pytest

from geodrive import cli
from geodrive.cli import main
from geodrive.operators import IntegrationFailure
from geodrive.scenarios import ScenarioError, load_scenario
from geodrive.simulate import NoiseModel, run_lindblad

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

    def test_baseline_scenario_is_input_error(self, tmp_path):
        payload = {"version": 1, "scheme": "sta"}
        code = main(["validate-curve", "--scenario", str(write_scenario(tmp_path, payload))])
        assert code == 2


@pytest.mark.parametrize("command", ["validate-curve", "synthesize"])
@pytest.mark.parametrize("tol", ["0", "-1e-6"])
def test_nonpositive_tol_is_input_error(tmp_path, capsys, command, tol):
    path = write_scenario(tmp_path, REFERENCE)
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o"),
                 "--tol", tol])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


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
    def test_single_scheme_outputs(self, tmp_path, capsys):
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
        assert manifest["schemes"]["sta"]["ideal_final_p_plus1"] >= 1 - 1e-6

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


def _per_value_populations_csv(path, result):
    """The writer as it was: one ``format(v + 0.0, ".17g")`` per value."""
    with open(path, "w", newline="") as fh:
        fh.write("t,p_minus1,p_0,p_plus1\n")
        for t, row in zip(result.time_grid, result.populations):
            fh.write(",".join(format(float(v) + 0.0, ".17g") for v in (t, *row)) + "\n")


def test_population_csv_matches_per_value_writer(tmp_path, sta):
    result = run_lindblad(sta, NoiseModel(delta=0.3, gamma=0.002), n_samples=201)
    populations = result.populations.copy()
    # values whose text is easy to get wrong: signed zero, tiny, huge, round
    populations[:8] = np.reshape([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300,
                                         1.0, 0.1, 1 / 3, -2.5, 123456789.0, 1e-5,
                                         -0.0, 2.0**-1074, 0.5, 1e16, 1e17, 1 - 1e-16,
                                         7e-8, 3.0, -1.0, 0.25, 1e22, -0.0], (8, 3))
    result = replace(result, populations=populations)
    cli._write_populations_csv(tmp_path / "new.csv", result)
    _per_value_populations_csv(tmp_path / "old.csv", result)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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


class TestSweepCommand:
    def test_requires_sweep_block(self, tmp_path):
        path = write_scenario(tmp_path, {"version": 1, "scheme": "sta"})
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "s")]) == 2

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
                                                 ("sweep", "sweep_report.json")])
    def test_byte_identical_and_one_solver_key(self, tmp_path, capsys, command, report):
        payload = {**REFERENCE, "scheme": "all",
                   "sweep": {"start": -0.2, "stop": 0.2, "count": 3,
                             "scaling": {"lo": 0.02, "hi": 0.1, "n": 5}}}
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
