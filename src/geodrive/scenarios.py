"""Scenario files: JSON descriptions of a transfer experiment.

A scenario selects a scheme (or the full comparison bundle), the curve and
mode for the geometric scheme, the noise model, and optional sweep settings.
All frequency-like numbers are interpreted under the active convention
(angular by default) when the scenario is loaded.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, curves
from .config import ANGULAR, CONVENTIONS, to_angular
from .schedules import DETUNING_MODE, PHASE_MODE, synthesize
from .simulate import NoiseModel

SCHEMES = ("geometric", "srt", "stirap", "sta")
NATURAL = "natural"
#: the range a run stays finite and warning-free in: durations and the baseline times in
#: us, and the magnitude of every frequency in rad/us (at 1e20 rad/us the stepper overflows)
DURATION_RANGE, MAX_FREQUENCY = (1e-6, 1e6), 1e6


class ScenarioError(ValueError):
    """Malformed scenario input; carries the offending field path."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass
class SweepSpec:
    start: float = -1.0
    stop: float = 1.0
    count: int = 101
    scaling_lo: float = 0.01
    scaling_hi: float = 0.1
    scaling_n: int = 7

    def grid(self):
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class Scenario:
    name: str
    scheme: str                      # one of SCHEMES or "all"
    curve: object = None             # ParametricCurve, iff geometric involved
    curve_label: str = ""
    mode: str = PHASE_MODE
    duration: object = NATURAL       # us, or "natural" = arc length
    noise: NoiseModel = field(default_factory=NoiseModel)
    sweep: SweepSpec = None
    srt: baselines.SrtParams = field(default_factory=baselines.SrtParams)
    stirap: baselines.StirapParams = field(default_factory=baselines.StirapParams)
    sta: baselines.StaParams = field(default_factory=baselines.StaParams)
    output_dir: str = "out"
    convention: str = ANGULAR

    def schemes(self):
        return list(SCHEMES) if self.scheme == "all" else [self.scheme]


def _require(mapping, key, kind, where, default=None, required=False):
    if key not in mapping:
        if required:
            raise ScenarioError(f"{where}.{key}", "missing required field")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not -sys.float_info.max <= value <= sys.float_info.max:  # JSON admits NaN, Infinity
            raise ScenarioError(f"{where}.{key}", "must be a finite number")
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    raise ScenarioError(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")


def _time(value, field_path, alternative=""):
    """A time in us within DURATION_RANGE."""
    lo, hi = DURATION_RANGE
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo <= value <= hi:
        raise ScenarioError(field_path, f"must be a number in [{lo:g}, {hi:g}] us{alternative}")
    return float(value)


def _frequency(mapping, key, where, default, convention):
    """A frequency-like float in rad/us, at most MAX_FREQUENCY in magnitude."""
    value = to_angular(_require(mapping, key, float, where, default=default), convention)
    if abs(value) > MAX_FREQUENCY:
        raise ScenarioError(f"{where}.{key}",
                            f"must be at most {MAX_FREQUENCY:g} rad/us in magnitude")
    return value


def _load_curve(spec, base_dir, convention):
    if isinstance(spec, str):
        if spec == "reference":
            return curves.reference_curve(), "reference"
        raise ScenarioError("curve", f"unknown builtin curve {spec!r}")
    if isinstance(spec, dict):
        if "table" in spec:
            table = spec["table"]
            if not isinstance(table, str):
                raise ScenarioError("curve.table", f"expected str, got {type(table).__name__}")
            try:
                return curves.read_curve_table(Path(base_dir) / table), f"table:{table}"
            except (OSError, ValueError) as exc:
                raise ScenarioError("curve.table", str(exc)) from exc
        if {"x", "y", "z"} <= set(spec):
            try:
                curve = curves.curve_from_expressions(spec["x"], spec["y"], spec["z"])
            except curves.CurveExpressionError as exc:
                raise ScenarioError(f"curve.{exc.component}", str(exc)) from exc
            return curve, "expression"
        raise ScenarioError("curve", "need either 'table' or all of 'x', 'y', 'z'")
    raise ScenarioError("curve", f"expected string or object, got {type(spec).__name__}")


#: block -> (params class, ((key, kind), ...)): a frequency and a time are range-checked,
#: a number is only finite
_BASELINES = {
    "srt": (baselines.SrtParams, (("rabi", "frequency"), ("detuning", "frequency"),
                                  ("duration", "time"))),
    "stirap": (baselines.StirapParams, (("peak", "frequency"), ("separation", "time"),
                                        ("width", "time"), ("window", "time"))),
    "sta": (baselines.StaParams, (("rabi", "frequency"), ("phase", "number"),
                                  ("duration", "time"))),
}


def _baseline_params(raw, convention):
    """The (SrtParams, StirapParams, StaParams) blocks; a bad value names its field."""
    blocks = []
    for block, (cls, keys) in _BASELINES.items():
        block_raw = _require(raw, block, dict, "scenario", default={})
        where = f"scenario.{block}"
        kwargs = {}
        for key, kind in keys:
            if key not in block_raw:
                continue
            if kind == "frequency":
                kwargs[key] = _frequency(block_raw, key, where, None, convention)
            elif kind == "time":
                kwargs[key] = _time(block_raw[key], f"{where}.{key}")
            else:
                kwargs[key] = _require(block_raw, key, float, where)
        try:
            blocks.append(cls(**kwargs))
        except baselines.BaselineParamError as exc:
            raise ScenarioError(f"{where}.{exc.param}", str(exc)) from exc
    return tuple(blocks)


def load_scenario(path, convention: str = ANGULAR) -> Scenario:
    """Parse and validate a scenario JSON file."""
    if convention not in CONVENTIONS:
        raise ScenarioError("convention", f"must be one of {CONVENTIONS}")
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(str(path), "scenario must be a JSON object")

    version = raw.get("version")
    if version != 1:
        raise ScenarioError("version", f"unsupported scenario version {version!r} (expected 1)")
    name = _require(raw, "name", str, "scenario", default=path.stem)
    scheme = _require(raw, "scheme", str, "scenario", required=True)
    if scheme not in SCHEMES + ("all",):
        raise ScenarioError("scheme", f"must be one of {SCHEMES + ('all',)}, got {scheme!r}")

    needs_curve = scheme in ("geometric", "all")
    curve = None
    curve_label = ""
    if "curve" in raw:
        if not needs_curve:
            raise ScenarioError("curve", f"curve given but scheme is {scheme!r}")
        curve, curve_label = _load_curve(raw["curve"], path.parent, convention)
    elif needs_curve:
        raise ScenarioError("curve", f"scheme {scheme!r} requires a curve")

    mode = _require(raw, "mode", str, "scenario", default=PHASE_MODE)
    if mode not in (PHASE_MODE, DETUNING_MODE):
        raise ScenarioError("mode", f"must be {PHASE_MODE!r} or {DETUNING_MODE!r}")

    duration = raw.get("duration", NATURAL)
    if duration != NATURAL:
        duration = _time(duration, "duration", " or 'natural'")

    noise_raw = _require(raw, "noise", dict, "scenario", default={})
    delta = _frequency(noise_raw, "delta", "scenario.noise", 0.0, convention)
    gamma = _frequency(noise_raw, "gamma", "scenario.noise", 0.0, convention)
    try:
        noise = NoiseModel(delta=delta, gamma=gamma)
    except ValueError as exc:
        raise ScenarioError("scenario.noise", str(exc)) from exc

    sweep = None
    if "sweep" in raw:
        sweep_raw = _require(raw, "sweep", dict, "scenario")
        scaling = _require(sweep_raw, "scaling", dict, "scenario.sweep", default={})
        sweep = SweepSpec(
            start=_frequency(sweep_raw, "start", "scenario.sweep", -1.0, convention),
            stop=_frequency(sweep_raw, "stop", "scenario.sweep", 1.0, convention),
            count=_require(sweep_raw, "count", int, "scenario.sweep", default=101),
            scaling_lo=_frequency(scaling, "lo", "scenario.sweep.scaling", 0.01, convention),
            scaling_hi=_frequency(scaling, "hi", "scenario.sweep.scaling", 0.1, convention),
            scaling_n=_require(scaling, "n", int, "scenario.sweep.scaling", default=7),
        )
        if sweep.count < 1:
            raise ScenarioError("scenario.sweep.count", "must be at least 1")

    srt, stirap, sta = _baseline_params(raw, convention)
    return Scenario(name=name, scheme=scheme, curve=curve, curve_label=curve_label,
                    mode=mode, duration=duration, noise=noise, sweep=sweep,
                    srt=srt, stirap=stirap, sta=sta,
                    output_dir=_require(raw, "output_dir", str, "scenario", default="out"),
                    convention=convention)


def geometric_pipeline(scenario: Scenario, tol: float = 1e-6):
    """Curve -> arc-length form -> geometry -> schedule for a scenario.

    Returns (arc, geometry, boundary_report, schedule); the schedule is
    rescaled to the requested duration when one is given.
    """
    arc = curves.reparametrize_by_arclength(scenario.curve)
    report = curves.check_boundary_conditions(arc, tol=tol)
    geometry = curves.curvature_torsion(arc)
    schedule = synthesize(geometry, mode=scenario.mode)
    if scenario.duration != NATURAL:
        schedule = schedule.rescaled(scenario.duration)
    return arc, geometry, report, schedule


def build_schedule(scenario: Scenario, scheme: str):
    """Schedule for one scheme of a scenario."""
    if scheme == "geometric":
        return geometric_pipeline(scenario)[3]
    if scheme == "srt":
        return baselines.srt_schedule(scenario.srt)
    if scheme == "stirap":
        return baselines.stirap_schedule(scenario.stirap)
    if scheme == "sta":
        return baselines.sta_schedule(scenario.sta)
    raise ScenarioError("scheme", f"unknown scheme {scheme!r}")
