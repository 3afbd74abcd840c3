"""Reference figures: two interleaved sets of runs of one workload, summarised.

    python3 geobench/figures.py --workload robustness --seeds 1-10

Runs ``geobench/run.py`` twice per seed, once for set A and then once for
set B, with the run length from BENCHMARK.json and ``--trace 0``.  Both sets
thus see the same inputs and the same stretch of time.  For each end-to-end
metric it prints, per set, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile distance
as a share of the median; then how much worse B's median is than A's, as a
share of A's, next to the metric's bound.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = ("A", "B")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: {s: [] for s in SETS} for name in metrics}
    for seed in args.seeds:
        for label in SETS:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                                   "--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, check=True)
            summary, result = proc.stdout.strip().splitlines()[-2:]
            print(f"{label}: {summary}", flush=True)
            result = json.loads(result)
            if not result["correct"] or result["failed"]:
                print(f"{label} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values[name][label].append(metric["value"])

    for name, metric in metrics.items():
        medians = {}
        for label in SETS:
            series = values[name][label]
            medians[label] = median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{args.workload}/{name} {label}: median {median:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {(q3 - q1) / median:.3f}")
        a, b = medians["A"], medians["B"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        print(f"{args.workload}/{name}: B worse than A by {worse:+.3f} "
              f"(bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
