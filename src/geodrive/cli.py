"""Command-line front end: validate-curve, synthesize, run, sweep.

All commands read a scenario JSON file and write deterministic CSV/JSON
outputs (``schedules.write_table`` and ``schedules.json_text``, no
timestamps), so reruns with identical inputs are byte-identical.  Exit codes: 0 success,
1 validation or physics failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, curves
from .config import ANGULAR, CONVENTIONS
from .operators import IntegrationFailure
from .scenarios import (Scenario, ScenarioError, build_schedule,
                        geometric_pipeline, load_scenario)
from .schedules import (_rows, curve_deviation, end_distance, json_text, reconstruct_curve,
                        synthesize, write_schedule_csv, write_table)
from .simulate import (SOLVER, NoiseModel, infidelity_scaling_exponent, run_lindblad,
                       run_schrodinger, sweep_delta)

#: the largest noise_term and roundtrip residual of a pulse that synthesize writes
CLOSURE_TOL = 1e-4

#: failures confined to one scheme, recorded in its entry while the command goes on
SCHEME_ERRORS = (IntegrationFailure, ValueError)


def _run_header(scenario: Scenario, **fields):
    """The run fields that every JSON artifact records, plus ``fields``."""
    return {"scenario": scenario.name, "convention": scenario.convention,
            "solver": SOLVER, "tool_version": __version__, **fields}


def _write_plot_script(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def _geometry_summary(geometry):
    return {
        "kappa_min": float(geometry.curvature.min()),
        "kappa_max": float(geometry.curvature.max()),
        "kappa_mean": float(geometry.curvature.mean()),
        "tau_min": float(geometry.torsion.min()),
        "tau_max": float(geometry.torsion.max()),
        "flagged_samples": geometry.flagged_count,
    }


def _scheme_params(scenario: Scenario, scheme: str):
    if scheme == "geometric":
        return {"curve": scenario.curve_label, "mode": scenario.mode,
                "duration": scenario.duration}
    params = getattr(scenario, scheme)
    return {name: getattr(params, name) for name in params.__dataclass_fields__}


def cmd_validate_curve(scenario: Scenario, args) -> int:
    if scenario.curve is None:
        raise ScenarioError("curve", "validate-curve needs a geometric scenario with a curve")
    arc = curves.reparametrize_by_arclength(scenario.curve)
    report = curves.check_boundary_conditions(arc, tol=args.tol)
    geometry = curves.curvature_torsion(arc)
    payload = {
        "curve": scenario.curve_label,
        "arc_length": arc.total_length,
        "tol": args.tol,
        **report.as_dict(),
        **_geometry_summary(geometry),
        "passed": report.passed,
    }
    sys.stdout.write(json_text(payload))
    return 0 if report.passed else 1


def cmd_synthesize(scenario: Scenario, args) -> int:
    if scenario.curve is None:
        raise ScenarioError("curve", "synthesize needs a geometric scenario with a curve")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    arc, geometry, report, schedule = geometric_pipeline(scenario, tol=args.tol)
    if not report.passed:
        sys.stderr.write(json_text({"error": "curve failed boundary validation",
                                    **report.as_dict()}))
        return 1
    reconstructed = reconstruct_curve(synthesize(geometry, mode=scenario.mode))
    residual = curve_deviation(arc, reconstructed)
    suppression = end_distance(reconstructed)
    closure = {"noise_term": suppression, "roundtrip_residual": residual}
    if above := [name for name, value in closure.items() if not value <= CLOSURE_TOL]:
        sys.stderr.write(json_text({"error": f"the pulse does not close: {' and '.join(above)} "
                                             f"above {CLOSURE_TOL:g}", **closure}))
        return 1
    write_table(out / "geometry.csv", ("t", "kappa", "tau", "flag"),
                [geometry.time_grid, geometry.curvature, geometry.torsion, geometry.flags])
    write_schedule_csv(schedule, out / "schedule.csv", out / "schedule.json",
                       provenance=_run_header(
                           scenario, curve=scenario.curve_label,
                           arc_length_us=arc.total_length, roundtrip_residual=residual,
                           noise_term=suppression, boundary=report.as_dict()))
    if args.plot_script:
        _write_plot_script(out / "schedule.gp", [
            "set datafile separator ','",
            "set xlabel 't (us)'",
            f"plot '{out / 'schedule.csv'}' using 1:2 with lines title 'omega', \\",
            f"     '{out / 'schedule.csv'}' using 1:3 with lines title 'delta', \\",
            f"     '{out / 'schedule.csv'}' using 1:4 with lines title 'phi'",
        ])
    sys.stdout.write(json_text({"schedule": str(out / "schedule.csv"),
                                "roundtrip_residual": residual,
                                "noise_term": suppression}))
    return 0


def cmd_run(scenario: Scenario, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schemes = scenario.schemes()
    manifest = _run_header(scenario, schemes={}, noise={"delta": scenario.noise.delta,
                                                        "gamma": scenario.noise.gamma})
    failed = False
    for scheme in schemes:
        try:
            schedule = build_schedule(scenario, scheme)
            ideal = run_schrodinger(schedule, NoiseModel(), label=scheme)
            noisy = run_lindblad(schedule, scenario.noise, label=scheme)
        except SCHEME_ERRORS as exc:
            manifest["schemes"][scheme] = {"error": str(exc)}
            failed = True
            continue
        for kind, result in (("ideal", ideal), ("noisy", noisy)):
            write_table(out / f"{scheme}_{kind}.csv", ("t", "p_minus1", "p_0", "p_plus1"),
                        [result.time_grid, result.populations])
        manifest["schemes"][scheme] = {
            "params": _scheme_params(scenario, scheme),
            "warnings": list(schedule.warnings),
            "duration_us": schedule.duration,
            "steps": noisy.metadata["steps"],
            "ideal_final_p_plus1": ideal.final_fidelity,
            "ideal_norm_defect": ideal.trace_defect,
            "noisy_final_p_plus1": noisy.final_fidelity,
            "noisy_trace_defect": noisy.trace_defect,
            "noisy_hermiticity_defect": noisy.metadata["hermiticity_defect"],
            "noisy_min_eigenvalue": noisy.metadata["min_eigenvalue"],
        }
    (out / "manifest.json").write_text(json_text(manifest))
    if args.plot_script:
        lines = ["set datafile separator ','", "set xlabel 't (us)'", "set ylabel 'population'"]
        for scheme in schemes:
            for kind in ("ideal", "noisy"):
                lines.append(f"plot '{out / f'{scheme}_{kind}.csv'}' using 1:2 with lines title 'P-1', "
                             f"'' using 1:3 with lines title 'P0', '' using 1:4 with lines title 'P+1'")
                lines.append("pause -1")
        _write_plot_script(out / "populations.gp", lines)
    sys.stdout.write(json_text({scheme: manifest["schemes"][scheme] for scheme in schemes}))
    return 1 if failed else 0


def cmd_sweep(scenario: Scenario, args) -> int:
    if scenario.sweep is None:
        raise ScenarioError("sweep", "the sweep command needs a 'sweep' block in the scenario")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = scenario.sweep
    grid = spec.grid()
    schemes = scenario.schemes()
    results, exponents, entries = {}, {}, {}
    for scheme in schemes:
        try:
            schedule = build_schedule(scenario, scheme)
            rows = sweep_delta(schedule, grid, gamma=scenario.noise.gamma)
        except SCHEME_ERRORS as exc:
            entries[scheme] = {"error": str(exc)}
            continue
        entries[scheme] = {"warnings": list(schedule.warnings),
                           "max_hermiticity_defect": float(rows[:, 2].max()),
                           "max_trace_defect": float(rows[:, 3].max()),
                           "min_eigenvalue": float(rows[:, 4].min())}
        results[scheme] = rows
        write_table(out / f"{scheme}_sweep.csv", ("delta", "p_plus1_final"), [rows[:, :2]])
        try:
            exponents[scheme] = infidelity_scaling_exponent(
                schedule, spec.scaling_lo, spec.scaling_hi, spec.scaling_n)
        except SCHEME_ERRORS as exc:
            exponents[scheme] = f"unavailable: {exc}"
    swept = list(results)
    fids = np.reshape([results[s][:, 1] for s in swept], (len(swept), grid.size))
    dominant = [swept[i] for i in fids.argmax(axis=0)] if swept else [""] * grid.size
    with open(out / "ordering.csv", "w", newline="") as fh:
        fh.write(",".join(["delta", *(f"p_{s}" for s in swept), "dominant"]) + "\n")
        fh.writelines(f"{row}{name}\n" for row, name in zip(_rows([grid, *fids], ","), dominant))
    report = _run_header(
        scenario, gamma=scenario.noise.gamma, infidelity_exponents=exponents, schemes=entries,
        delta_grid={"start": spec.start, "stop": spec.stop, "count": spec.count})
    (out / "sweep_report.json").write_text(json_text(report))
    if args.plot_script:
        lines = ["set datafile separator ','",
                 "set xlabel 'delta (rad/us)'", "set ylabel 'final P+1'",
                 "plot " + ", \\\n     ".join(
                     f"'{out / f'{s}_sweep.csv'}' using 1:2 with lines title '{s}'"
                     for s in swept)]
        _write_plot_script(out / "sweep.gp", lines)
    sys.stdout.write(json_text(report))
    return 0 if len(swept) == len(schemes) else 1


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="geodrive",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "validate-curve": cmd_validate_curve,
        "synthesize": cmd_synthesize,
        "run": cmd_run,
        "sweep": cmd_sweep,
    }
    for name, handler in handlers.items():  # each command accepts only the flags it reads
        cmd = sub.add_parser(name)
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        if name != "validate-curve":
            cmd.add_argument("--out", default=None, help="output directory")
            cmd.add_argument("--plot-script", action="store_true",
                             help="also emit gnuplot script files")
        if name in ("validate-curve", "synthesize"):
            cmd.add_argument("--tol", type=_positive_float, default=1e-6,
                             help="boundary-condition tolerance")
        cmd.add_argument("--convention", choices=CONVENTIONS, default=ANGULAR,
                         help="how scenario frequencies are interpreted")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        scenario = load_scenario(args.scenario, convention=args.convention)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if "out" in args and args.out is None:
        args.out = scenario.output_dir
    try:
        return args.handler(scenario, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except curves.DegenerateCurveError as exc:
        print(f"curve error: {exc}", file=sys.stderr)
        return 1
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
