"""Benchmark of geodrive: the design, compare and robustness workloads.

    python3 geobench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a geodrive checkout; geodrive is imported from its
``src/``.  The run sets up the workload in fresh processes and then runs a
closed loop of whole rounds of ops in one of them for ``--seconds``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Outputs and the span trace go to
``geobench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design", "compare", "robustness")
SETUP_PROBES = 2       # set-up-only processes, besides the one that runs the ops
LIMIT_S = 175.0        # a whole run, set-up included, ends within 180 s
RESULT_MARGIN_S = 5.0  # left to the op process after its last op


class BenchmarkError(RuntimeError):
    pass


def _worker(args, out, deadline, setup_only=False):
    """Run worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ)
    env.pop("GEODRIVE_THREADS", None)  # the program's default pool size
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out),
               "--stop-by", repr(deadline - RESULT_MARGIN_S)]
    if setup_only:
        command.append("--setup-only")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "geodrive" / "cli.py").is_file():
        print(f"geobench: no geodrive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + LIMIT_S
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        setups = [_worker(args, out / f"setup-{i}", deadline, setup_only=True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        result = _worker(args, out / "run", deadline)
    except BenchmarkError as exc:
        print(f"geobench: {exc}", file=sys.stderr)
        return 1

    for message in result["check_failures"]:
        print(f"geobench: check failed: {message}", file=sys.stderr)
    if result["cut_short"]:
        print(f"geobench: stopped mid-round to end within {LIMIT_S:.0f} s; the metrics "
              f"cover the {result['attempted']} ops that ran", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": result["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops in "
          f"{result['timed_s']:.2f} s, {result['failed']} failed, "
          f"{len(result['check_failures'])} check failures; set-up "
          f"{' '.join(f'{s:.3f}' for s in setups + [result['setup_s']])} s; "
          f"ops {' '.join(f'{d:.3f}' for d in result['durations'])} s")
    print(json.dumps({"correct": not result["check_failures"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
