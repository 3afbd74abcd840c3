"""Seeded inputs for the benchmark workloads, and the numpy references the checks use.

The program sees only the scenario and table files written here.  Every
round of a workload repeats the same inputs, so a per-op median or count
does not depend on how many rounds fit into a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SQRT2 = np.sqrt(2.0)

# design: the reference curve plus eps_j sin^2(pi d) sin(k_j pi d) in each
# component j; the bump vanishes with its first derivative at d = 0 and 1, so
# closure and both endpoint tangents are kept.  Small bumps keep the ODE work
# of every seed's curve within about 15% of the reference curve's; with
# |eps_j| up to 0.08 it ranged from 0.56x to 1.5x, so the seed set the cost.
BUMP_EPS = (0.005, 0.02)       # |eps_j|, sign drawn at random
BUMP_K = (1, 2, 3)
TABLE_ROWS = 401
ARC_QUAD_POINTS = 20_001       # composite Simpson nodes for the arc-length reference

# compare: the regime of the paper's comparison (rad/us)
NOISE_DELTA = (0.2, 0.8)       # |delta|; the sign alternates within a round
NOISE_GAMMA = (0.001, 0.005)
COMPARE_DURATION = 2.0         # us, the constant-pulse baseline's duration
COMPARE_POINTS = 3             # noise points per round

# robustness: Lindblad sweep grid and scaling range for the delta^4 fit
SWEEP_START = (-0.8, -0.4)
SWEEP_STOP = (0.4, 0.8)
SWEEP_COUNT = 3
SCALING_LO = (0.01, 0.015)
SCALING_HI = (0.08, 0.1)
SCALING_N = 5                  # the fewest the exponent fit accepts

_REFERENCE_EXPRESSIONS = (
    "d*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2",
    "(1-d)*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
    "(1-d)*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2 + d*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
)


def reference_position(d):
    """The builtin reference curve, r(d) = (1-d) r1(d) + d r2(d), in numpy.

    Works for complex d, which the complex-step derivative below relies on.
    """
    s = SQRT2 * np.sin(np.pi * d)
    c2 = np.cos(np.pi * d / 2.0) ** 2
    s2 = np.sin(np.pi * d / 2.0) ** 2
    return np.stack([d * s * c2, (1 - d) * s * s2, (1 - d) * s * c2 + d * s * s2], axis=-1)


def curve_position(d, eps=(0.0, 0.0, 0.0), k=(1, 1, 1)):
    """Reference curve plus the three sin^2 bumps."""
    envelope = np.sin(np.pi * d) ** 2
    bumps = np.stack([e * envelope * np.sin(kk * np.pi * d) for e, kk in zip(eps, k)], axis=-1)
    return reference_position(d) + bumps


def arc_length(eps=(0.0, 0.0, 0.0), k=(1, 1, 1)):
    """Length of the curve: composite Simpson of |r'(d)| on [0, 1].

    r'(d) is the complex-step derivative Im r(d + ih) / h, exact to rounding.
    """
    d = np.linspace(0.0, 1.0, ARC_QUAD_POINTS)
    h = 1e-30
    speed = np.linalg.norm(curve_position(d + 1j * h, eps, k).imag / h, axis=1)
    weights = np.ones(ARC_QUAD_POINTS)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ speed * (d[1] - d[0]) / 3.0)


def curve_expressions(eps, k):
    """x, y, z expression strings in the CLI grammar (+ - * / ^ sin cos pi d)."""
    return [f"{base} + ({e:.12f})*sin(pi*d)^2*sin({kk}*pi*d)"
            for base, e, kk in zip(_REFERENCE_EXPRESSIONS, eps, k)]


def _write_scenario(path, payload):
    path.write_text(json.dumps({"version": 1, "name": path.stem, **payload}, indent=2) + "\n")
    return str(path)


def _uniform(rng, bounds):
    return float(rng.uniform(*bounds))


def _bump_curve(rng, out: Path):
    """Reference curve plus seeded bumps, as an expression and as a table."""
    signs = rng.choice((-1.0, 1.0), size=3)
    eps = tuple(float(s) * _uniform(rng, BUMP_EPS) for s in signs)
    k = tuple(int(v) for v in rng.choice(BUMP_K, size=3))
    d = np.linspace(0.0, 1.0, TABLE_ROWS)
    table = out / "design-curve.csv"
    with open(table, "w", newline="") as fh:
        fh.write("d,x,y,z\n")
        for dv, row in zip(d, curve_position(d, eps, k)):
            fh.write(",".join(f"{v:.17g}" for v in (dv, *row)) + "\n")
    x, y, z = curve_expressions(eps, k)
    length = arc_length(eps, k)
    return [("expression", {"x": x, "y": y, "z": z}, length),
            ("table", {"table": table.name}, length)]


def design_round(rng, out: Path):
    """Three ops in the fixed rotation reference, expression, table: the
    builtin curve, then one bump curve as expressions and sampled to a
    d,x,y,z table."""
    curves = [("reference", "reference", arc_length())] + _bump_curve(rng, out)
    return [{"scenario": _write_scenario(out / f"design-{i}-{kind}.json",
                                         {"scheme": "geometric", "curve": curve,
                                          "mode": "phase", "duration": "natural"}),
             "out": str(out / f"design-{i}-{kind}"),
             "arc_length": length}
            for i, (kind, curve, length) in enumerate(curves)]


def compare_round(rng, out: Path):
    """`run all` ops at noise points of alternating sign."""
    ops = []
    for i in range(COMPARE_POINTS):
        sign = 1.0 if i % 2 == 0 else -1.0
        noise = {"delta": sign * _uniform(rng, NOISE_DELTA), "gamma": _uniform(rng, NOISE_GAMMA)}
        ops.append({"scenario": _write_scenario(out / f"compare-{i}.json",
                                                {"scheme": "all", "curve": "reference",
                                                 "duration": COMPARE_DURATION, "noise": noise}),
                    "out": str(out / f"compare-{i}")})
    return ops


def robustness_round(rng, out: Path):
    """One op: a geometric sweep plus the perturbative and closed-form anchors."""
    sweep = {"start": _uniform(rng, SWEEP_START), "stop": _uniform(rng, SWEEP_STOP),
             "count": SWEEP_COUNT,
             "scaling": {"lo": _uniform(rng, SCALING_LO), "hi": _uniform(rng, SCALING_HI),
                         "n": SCALING_N}}
    gamma = _uniform(rng, NOISE_GAMMA)
    return [{"scenario": _write_scenario(out / "robustness.json",
                                         {"scheme": "geometric", "curve": "reference",
                                          "duration": COMPARE_DURATION,
                                          "noise": {"delta": 0.0, "gamma": gamma},
                                          "sweep": sweep}),
             "out": str(out / "robustness"),
             "grid": np.linspace(sweep["start"], sweep["stop"], SWEEP_COUNT).tolist(),
             "scaling_deltas": np.geomspace(sweep["scaling"]["lo"], sweep["scaling"]["hi"],
                                            SCALING_N).tolist()}]


ROUNDS = {"design": design_round, "compare": compare_round, "robustness": robustness_round}


def make_round(workload: str, seed: int, out: Path):
    """The op specs of one round of ``workload``; files go under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    return ROUNDS[workload](np.random.default_rng(seed), out)
