"""One benchmark process: set up, then a closed loop of whole rounds of ops.

Started by run.py, never by hand.  It prints one JSON object on stdout.  A
single client runs the ops back to back: the CLI commands through
``geodrive.cli.main`` in-process, and the public library calls that each
workload names.  Every op is checked as soon as it returns.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent


class OpFailed(RuntimeError):
    """A command exited non-zero."""


def _no_span(name):
    return nullcontext()


class Client:
    """Runs the ops of one workload.  Program calls go through module
    attributes, looked up at call time, so that traced wrappers apply."""

    def __init__(self, geodrive, span=_no_span):
        self.gd = geodrive
        self.span = span

    def cli(self, *argv):
        buffer = io.StringIO()
        with self.span(f"cli.{argv[0]}"), redirect_stdout(buffer):
            code = self.gd.cli.main(list(argv))
        if code != 0:
            raise OpFailed(f"geodrive {' '.join(argv)} exited {code}")
        return buffer.getvalue()

    def design(self, spec):
        validate = json.loads(self.cli("validate-curve", "--scenario", spec["scenario"]))
        self.cli("synthesize", "--scenario", spec["scenario"], "--out", spec["out"])
        out = Path(spec["out"])
        sidecar = json.loads((out / "schedule.json").read_text())
        schedule = self.gd.schedules.read_schedule_csv(out / "schedule.csv")
        angles = self.gd.invariants.angles_from_schedule(schedule)
        return {"validate": validate, "sidecar": sidecar, "arc_length": spec["arc_length"],
                "angles_residual": angles.residual}

    def compare(self, spec):
        self.cli("run", "--scenario", spec["scenario"], "--out", spec["out"])
        return {"manifest": json.loads((Path(spec["out"]) / "manifest.json").read_text())}

    def robustness(self, spec):
        gd = self.gd
        self.cli("sweep", "--scenario", spec["scenario"], "--out", spec["out"])
        out = Path(spec["out"])
        report = json.loads((out / "sweep_report.json").read_text())
        rows = np.loadtxt(out / "geometric_sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        geometric = gd.scenarios.build_schedule(gd.scenarios.load_scenario(spec["scenario"]),
                                                "geometric")
        deltas = spec["scaling_deltas"]
        sta = gd.baselines.sta_schedule()
        return {"report": report, "sweep_rows": rows, "grid": spec["grid"],
                "scaling_deltas": deltas,
                "geometric_pert": [gd.invariants.perturbative_fidelity(geometric, d)
                                   for d in deltas],
                "sta_overlap": [gd.simulate.overlap_fidelity(sta, d) for d in deltas],
                "sta_pert": [gd.invariants.perturbative_fidelity(sta, d) for d in deltas]}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--stop-by", type=float, required=True,
                        help="time.monotonic() by which the op loop must have ended")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: imports, the first reference-curve build and input generation
    sys.path.insert(0, str(ROOT / "src"))
    import geodrive.cli
    geodrive.curves.reference_curve()
    out = Path(args.out)
    specs = inputs.make_round(args.workload, args.seed, out / "inputs")
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    client = Client(geodrive)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        client = Client(geodrive, tracer.span)
    run_op = getattr(client, args.workload)

    durations, failed, check_failures = [], 0, []
    cut_short = False
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds and not cut_short:
        for spec in specs:
            index = len(durations)
            # a slow program ends mid-round with what finished, not in a timeout
            if durations and time.monotonic() + max(durations) > args.stop_by:
                cut_short = True
                break
            t0 = time.perf_counter()
            try:
                with tracer.op(index) if tracer else nullcontext():
                    observed = run_op(spec)
            except Exception:  # an op that raises counts as failed; the loop goes on
                observed = None
                failed += 1
                traceback.print_exc()
            durations.append(time.perf_counter() - t0)
            if observed is not None:
                check_failures += [f"op {index}: {m}" for m in checks.check(args.workload, observed)]
    timed_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "attempted": len(durations), "failed": failed,
              "check_failures": check_failures, "cut_short": cut_short,
              "timed_s": timed_s, "durations": durations,
              "ops_per_s": (len(durations) - failed) / timed_s,
              "op_p50_s": statistics.median(durations),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.write_jsonl(out / "trace.jsonl")
        result["layers"] = spans.layer_metrics(tracer.spans, len(durations))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
