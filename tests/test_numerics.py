"""geodrive.numerics against scipy, which the tests keep as the oracle."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicHermiteSpline, make_interp_spline

from geodrive import numerics
from geodrive.curves import curvature_torsion, curve_from_expressions, reparametrize_by_arclength
from geodrive.schedules import read_schedule_csv, synthesize, write_schedule_csv
from physics import fd4_slopes
from test_curves import REFERENCE_EXPRESSIONS


def _columns(schedule):
    return np.stack([getattr(schedule, name) for name in schedule._FIELDS], axis=-1)


def _assert_interpolant_matches(schedule, rng):
    """The schedule's field values against scipy's cubic Hermite spline with the
    tests' own fourth-order slopes."""
    columns = _columns(schedule)
    t0, t1 = schedule.time_span
    times = np.concatenate([rng.uniform(t0, t1, 20_000), schedule.time[::7], [t0, t1]])
    expected = CubicHermiteSpline(schedule.time, columns, fd4_slopes(schedule.time, columns))(times)
    got = np.stack(schedule.values(times), axis=-1)
    scale = np.maximum(np.max(np.abs(columns), axis=0), 1e-300)
    assert np.max(np.abs(got - expected) / scale) <= 1e-14


@pytest.fixture(scope="module")
def subnormal_phase_schedule():
    """The reference curve with x = 1e-308 d: its phi has secants near 1e-311."""
    _, y, z = REFERENCE_EXPRESSIONS
    arc = reparametrize_by_arclength(curve_from_expressions("1e-308*d", y, z))
    return synthesize(curvature_torsion(arc))


@pytest.mark.parametrize("name", ["natural_schedule", "stirap", "sta", "srt",
                                  "subnormal_phase_schedule"])
def test_interpolant_matches_scipy_on_shipped_schedules(request, rng, name):
    _assert_interpolant_matches(request.getfixturevalue(name), rng)


def test_interpolant_matches_scipy_on_jittered_csv_schedule(tmp_path, natural_schedule, rng):
    # the time column is uniform only to the 1e-9 relative that schedules accept,
    # so no piece index may be taken from (t - t0) / h
    step = natural_schedule.time[1] - natural_schedule.time[0]
    jitter = rng.uniform(-2e-10, 2e-10, natural_schedule.time.size) * step
    jitter[[0, -1]] = 0.0
    path = tmp_path / "schedule.csv"
    write_schedule_csv(natural_schedule, path)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row, shift in zip(rows, jitter):
        row[0] = f"{float(row[0]) + shift:.17g}"
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    schedule = read_schedule_csv(path)
    assert np.ptp(np.diff(schedule.time)) > 1e-11 * step
    _assert_interpolant_matches(schedule, rng)


def test_interpolant_is_fourth_order():
    # a cubic Hermite interpolant with O(h^3) slopes is O(h^4): its error at the piece
    # midpoints falls 16x per halving of h
    def f(x):
        return np.stack([np.sin(2 * np.pi * x), np.exp(x)], axis=1)

    errors = []
    for n in (161, 321, 641):
        x = np.linspace(0.0, 2.0, n)
        mid = (x[1:] + x[:-1]) / 2
        interpolant = numerics.CubicHermite(x, f(x), numerics.centred_slopes(x, f(x)))
        errors.append(np.max(np.abs(interpolant(mid)[0] - f(mid))))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((14 <= ratios) & (ratios <= 18)), ratios


def test_hermite_derivatives_match_scipy(rng):
    x = np.cumsum(rng.uniform(0.5, 1.5, 60))
    y, slopes = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
    t = np.concatenate([rng.uniform(x[0], x[-1], 500), x])
    spline = CubicHermiteSpline(x, y, slopes)
    for order, value in enumerate(numerics.CubicHermite(x, y, slopes)(t, order=3)):
        expected = spline.derivative(order)(t) if order else spline(t)
        assert np.max(np.abs(value - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [2000, 2001])
def test_simpson_rules_match_scipy(n):
    x = np.linspace(0.0, 2.3, n)
    y = np.stack([np.cos(3.0 * x) * np.exp(-x), x**3 - x, np.sin(7.0 * x) ** 2], axis=1)
    y = y + 1j * np.roll(y, 1, axis=1)
    scale = 2.3 * np.max(np.abs(y))
    got = numerics.cumulative_simpson(y, x)
    assert np.max(np.abs(got - cumulative_simpson(y, x=x, initial=0.0, axis=0))) <= 1e-14 * scale
    assert np.max(np.abs(numerics.simpson(y, x) - simpson(y, x=x, axis=0))) <= 1e-14 * scale


def _table_rows(kind, rng):
    if kind == "minimum":
        return np.linspace(0.0, 1.0, 8)
    d = np.linspace(0.0, 1.0, 401)
    if kind == "jittered":
        d[1:-1] += rng.uniform(-0.3, 0.3, 399) * d[1]
    return d


@pytest.mark.parametrize("kind", ["minimum", "uniform", "jittered"])
def test_quintic_spline_matches_scipy(rng, kind):
    d = _table_rows(kind, rng)
    s = np.sin(np.pi * d)
    y = np.stack([d * s + 0.05 * s**2 * np.sin(3 * np.pi * d), (1 - d) * s * np.cos(d),
                  s * np.cos(np.pi * d / 2) ** 2 - 0.1 * d], axis=1)
    oracle = make_interp_spline(d, y, k=5)
    assert np.array_equal(numerics._quintic_knots(d), oracle.t)
    t = np.concatenate([rng.uniform(0.0, 1.0, 5000), d])
    # an order-nu derivative of sampled data is known to eps times max|y| / h^nu at
    # best: rounding y or the B-spline coefficients by one ulp moves scipy's own
    # third derivative by ~1e-9 of its size on 401 rows (measured <= 1e-14 here)
    h = np.min(np.diff(d))
    for order, value in enumerate(numerics.quintic_spline(d, y)(t, order=3)):
        scale = np.max(np.abs(y), axis=0) / h**order
        assert np.max(np.abs(value - oracle(t, order)) / scale) <= 1e-12
