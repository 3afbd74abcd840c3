"""Self-test of the benchmark's own code; it runs no geodrive computation.

    python3 geobench/selftest.py

Feeds every output check a good result, which must pass, and corrupted
results, each of which must fail.  Also checks span self time, span parents
across threads, the per-op layer medians, and that BENCHMARK.json names the
workloads and metrics this directory produces.  Exits 1 on any problem.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import run
import spans

DELTAS = [0.01, 0.0178, 0.0316, 0.0562, 0.1]


def good_design():
    boundary = {"closure_residual": 1.7e-16, "start_residual": 0.0, "end_residual": 4e-17}
    return {"validate": {**boundary, "passed": True, "arc_length": 2.115694988399553},
            "sidecar": {"boundary": dict(boundary), "arc_length_us": 2.115694988399553,
                        "roundtrip_residual": 5.7e-7, "noise_term": 3.0e-8},
            "arc_length": 2.115694988399554, "angles_residual": 9.3e-8}


def good_compare():
    def entry(ideal, noisy):
        return {"ideal_final_p_plus1": ideal, "noisy_final_p_plus1": noisy,
                "noisy_trace_defect": 2e-15}
    return {"manifest": {"schemes": {"geometric": entry(1.0000000003, 0.998),
                                     "srt": entry(0.9939, 0.935), "stirap": entry(0.9984, 0.981),
                                     "sta": entry(0.999999999998, 0.966)}}}


def good_robustness():
    deltas = np.array(DELTAS)
    return {"report": {"infidelity_exponents": {"geometric": 4.21}},
            "sweep_rows": [[-0.6, 0.71], [0.0, 0.998], [0.6, 0.72]], "grid": [-0.6, 0.0, 0.6],
            "scaling_deltas": DELTAS, "geometric_pert": [1.0] * 5,
            "sta_overlap": checks.sta_overlap_closed_form(deltas).tolist(),
            "sta_pert": checks.sta_perturbative_closed_form(deltas).tolist()}


def corrupt(obs, path, value):
    out = copy.deepcopy(obs)
    *parents, last = path
    target = out
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value(target[last]) if callable(value) else value
    return out


DELETE = object()

CORRUPTIONS = {
    "design": (good_design, [
        (("validate", "closure_residual"), 2e-6),
        (("validate", "end_residual"), float("nan")),
        (("sidecar", "boundary", "start_residual"), 2e-6),
        (("validate", "passed"), False),
        (("validate", "arc_length"), lambda v: v * (1 + 1e-8)),
        (("sidecar", "arc_length_us"), lambda v: v * (1 - 1e-8)),
        (("sidecar", "roundtrip_residual"), 2e-4),
        (("sidecar", "noise_term"), 1e-3),
        (("angles_residual",), 2e-6),
        (("sidecar", "noise_term"), DELETE),
    ]),
    "compare": (good_compare, [
        (("manifest", "schemes", "srt"), lambda v: {**v, "error": "integration failure"}),
        (("manifest", "schemes", "sta"), DELETE),
        (("manifest", "schemes", "geometric", "ideal_final_p_plus1"), 1 - 2e-6),
        (("manifest", "schemes", "sta", "ideal_final_p_plus1"), 0.99),
        (("manifest", "schemes", "stirap", "ideal_final_p_plus1"), 0.94),
        (("manifest", "schemes", "srt", "noisy_trace_defect"), 1e-7),
        (("manifest", "schemes", "stirap", "noisy_final_p_plus1"), 0.9985),
        (("manifest", "schemes", "geometric", "noisy_final_p_plus1"), 0.981),
    ]),
    "robustness": (good_robustness, [
        (("report", "infidelity_exponents", "geometric"), 2.0),
        (("report", "infidelity_exponents", "geometric"), "unavailable: fewer than 3 points"),
        (("sweep_rows",), [[-0.6, 0.71], [0.0, 1.01], [0.6, 0.72]]),
        (("sweep_rows",), [[-0.6, 0.71], [0.6, 0.72]]),
        (("sweep_rows",), [[-0.5, 0.71], [0.0, 0.998], [0.6, 0.72]]),
        (("geometric_pert",), [1.0, 1.0, 1.0, 1.0, 1.0 - 1e-9]),
        (("sta_overlap",), lambda v: [v[0] + 1e-9] + v[1:]),
        (("sta_pert",), lambda v: v[:-1] + [v[-1] - 1e-11]),
        (("sta_pert",), lambda v: v[:-1] + [float("nan")]),
    ]),
}


def check_checks(problems):
    for workload, (good, corruptions) in CORRUPTIONS.items():
        failures = checks.check(workload, good())
        if failures:
            problems.append(f"{workload}: good result rejected: {failures}")
        for path, value in corruptions:
            if not checks.check(workload, corrupt(good(), path, value)):
                problems.append(f"{workload}: corruption {'.'.join(path)} not caught")


def check_spans(problems):
    def span(i, name, start, end, parent=None, op=0, h=0):
        return spans.Span(i, name, start, end, parent, 0, op, h)

    root = span(0, "cli.run", 0.0, 10.0)
    kids = [span(1, "a", 1.0, 4.0, 0), span(2, "b", 3.0, 5.0, 0), span(3, "c", 8.0, 12.0, 0)]
    if abs(spans.self_time(root, kids) - 4.0) > 1e-12:
        problems.append(f"self time {spans.self_time(root, kids)} != 4")

    tracer = spans.Tracer()
    counted = tracer._counting(lambda nfev: SimpleNamespace(nfev=nfev))
    with tracer.op(0), tracer.span("outer"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            def work(n):
                with tracer.span("inner"), tracer.span("leaf"):
                    counted(1)
                    counted(n - 1)
            list(pool.map(work, (3, 5)))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["outer"][0]
    inner = by_name["inner"]
    if any(s.parent != outer.id for s in inner) or outer.parent != by_name["op"][0].id:
        problems.append("worker-thread spans did not take the client's open span as parent")
    if sorted(s.parent for s in by_name["leaf"]) != sorted(s.id for s in inner):
        problems.append("nested worker-thread spans did not take their own thread's parent")
    if sorted(s.h_evals for s in inner) != [3, 5] or outer.h_evals != 0:
        problems.append(f"h_evals per thread wrong: {[s.h_evals for s in inner]}, {outer.h_evals}")
    if any(s.thread == threading.get_ident() for s in inner):
        problems.append("inner spans not recorded on their own threads")

    ops = [span(10 + i, "operators.propagate_state", 0.0, d, op=i, h=h)
           for i, (d, h) in enumerate(((1.0, 100), (3.0, 300), (2.0, 200)))]
    ops.append(span(20, "operators.propagate_state", 5.0, 6.0, op=2, h=50))
    ops.append(span(21, "curves.read_curve_table", 0.0, 0.5, op=1))
    metrics = {name: m["value"] for name, m in spans.layer_metrics(ops, 3).items()}
    if (metrics["operators.propagate_state.s"] != 3.0
            or metrics["operators.propagate_state.h_evals"] != 250
            or metrics["curves.read_curve_table.s"] != 0.5
            or metrics["simulate.sweep_delta.s"] != 0.0):
        problems.append(f"layer medians wrong: {metrics}")


def check_benchmark_json(problems):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(spans.LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if end_to_end != [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
                      ("peak_rss_mb", "MB")]:
        problems.append(f"BENCHMARK.json end_to_end differs: {end_to_end}")


def main():
    problems = []
    check_checks(problems)
    check_spans(problems)
    check_benchmark_json(problems)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    n = sum(len(c) for _, c in CORRUPTIONS.values())
    print(f"selftest: {n} corruptions, span and BENCHMARK.json checks: "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
