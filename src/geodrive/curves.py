"""Three-dimensional parametric curves and their arc-length geometry.

Curves enter in one of three forms: closed-form sympy expressions in the
parameter d (analytic derivatives), dense sample tables (quintic-spline
derivatives), or bare position callables (finite-difference derivatives).
Everything downstream works with the arc-length form, from which curvature
and torsion are read off.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy.interpolate import CubicHermiteSpline, make_interp_spline

_GL_ORDER = 10


class DegenerateCurveError(ValueError):
    """Curve has (numerically) zero length or non-finite samples."""


class CurveExpressionError(ValueError):
    """A user curve expression failed to parse; carries the component name."""

    def __init__(self, component, message):
        super().__init__(f"component {component!r}: {message}")
        self.component = component


def _as_points(values, n):
    """Stack a lambdified component tuple into an (n, 3) float array."""
    out = np.empty((n, 3), dtype=float)
    for j, comp in enumerate(values):
        out[:, j] = np.broadcast_to(comp, (n,))
    return out


@dataclass
class ParametricCurve:
    """Curve r(d) on d in [0, 1] with optional analytic derivatives.

    ``position`` and the entries of ``derivatives`` map an (n,) parameter
    array to an (n, 3) array of positions / d-derivatives.
    """

    position: callable
    derivatives: tuple = ()
    name: str = "curve"

    @property
    def derivative_order(self) -> int:
        return len(self.derivatives)

    def derivative(self, order: int):
        if order == 0:
            return self.position
        return self.derivatives[order - 1]

    def validate(self, n_check: int = 10_000) -> None:
        d = np.linspace(0.0, 1.0, n_check)
        pts = self.position(d)
        if not np.all(np.isfinite(pts)):
            raise DegenerateCurveError(f"curve {self.name!r} produced non-finite samples")


def curve_from_sympy(expressions, name="curve", max_order=3) -> ParametricCurve:
    """Build a curve from three sympy expressions in the symbol ``d``."""
    d = sp.Symbol("d")
    vecs = [sp.Matrix([sp.sympify(e) for e in expressions])]
    for _ in range(max_order):
        vecs.append(sp.diff(vecs[-1], d))

    def make_eval(vec):
        components = sp.lambdify(d, list(vec), modules="numpy")
        def evaluate(dv):
            dv = np.atleast_1d(np.asarray(dv, dtype=float))
            return _as_points(components(dv), dv.size)
        return evaluate

    evals = [make_eval(vec) for vec in vecs]
    return ParametricCurve(position=evals[0], derivatives=tuple(evals[1:]), name=name)


_EXPRESSION_NAMES = {"sin", "cos", "pi", "d"}
#: numeric literals, scientific notation included, outside identifiers
_NUMBER = re.compile(r"(?<![A-Za-z_])(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _parse_component(component, text):
    if not isinstance(text, str) or not text.strip():
        raise CurveExpressionError(component, "expected a non-empty expression string")
    cleaned = text.replace("^", "**")
    names = set(re.findall(r"[A-Za-z_]+", _NUMBER.sub(" ", cleaned)))
    unknown = names - _EXPRESSION_NAMES
    if unknown:
        raise CurveExpressionError(
            component, f"unknown names {sorted(unknown)}; allowed: sin, cos, pi, d")
    local = {"sin": sp.sin, "cos": sp.cos, "pi": sp.pi, "d": sp.Symbol("d")}
    constructors = {"Float": sp.Float, "Integer": sp.Integer,
                    "Rational": sp.Rational, "Symbol": sp.Symbol}
    try:
        expr = sp.parse_expr(cleaned, local_dict=local, global_dict=constructors)
    except Exception as exc:
        raise CurveExpressionError(component, str(exc)) from exc
    if not expr.free_symbols <= {sp.Symbol("d")}:
        raise CurveExpressionError(component, "only the parameter d may appear")
    return expr


def curve_from_expressions(x, y, z, name="expression-curve") -> ParametricCurve:
    """Curve from three expression strings in d (grammar: + - * / ^ sin cos pi)."""
    exprs = [_parse_component(label, text)
             for label, text in (("x", x), ("y", y), ("z", z))]
    return curve_from_sympy(exprs, name=name)


def curve_from_table(d_values, points, name="table-curve") -> ParametricCurve:
    """Curve from a dense sample table; derivatives come from a quintic spline."""
    d_values = np.asarray(d_values, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.shape != (d_values.size, 3):
        raise ValueError("table must have shape (n, 3)")
    if d_values.size < 8:
        raise ValueError("need at least 8 table rows")
    if np.any(np.diff(d_values) <= 0):
        raise ValueError("table parameter column must be strictly increasing")
    spline = make_interp_spline(d_values, points, k=5)
    derivs = [spline.derivative(order) for order in (1, 2, 3)]

    def wrap(f):
        return lambda dv: np.atleast_2d(f(np.atleast_1d(np.asarray(dv, dtype=float))))

    return ParametricCurve(position=wrap(spline),
                           derivatives=tuple(wrap(f) for f in derivs),
                           name=name)


def read_curve_table(path, name=None) -> ParametricCurve:
    """Read a CSV sample table with header ``d,x,y,z``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["d", "x", "y", "z"]:
            raise ValueError(f"{path}: expected header 'd,x,y,z', got {header}")
        rows = np.array([[float(v) for v in row] for row in reader], dtype=float)
    return curve_from_table(rows[:, 0], rows[:, 1:], name=name or str(path))


def curve_from_position(position, name="sampled-curve", h=1e-2) -> ParametricCurve:
    """Numeric-derivative fallback for a bare position callable.

    4th-order central differences with one Richardson extrapolation step.
    The base step is deliberately coarse: third derivatives from noisy
    positions need h ~ 1e-2 to stay away from the roundoff floor.
    """

    def fd(order, dv, step):
        dv = np.atleast_1d(np.asarray(dv, dtype=float))
        if order == 1:
            stencil = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]
            scale = step
        elif order == 2:
            stencil = [(-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)]
            scale = step * step
        else:
            stencil = [(-3, 1 / 8), (-2, -1), (-1, 13 / 8), (1, -13 / 8), (2, 1), (3, -1 / 8)]
            scale = step ** 3
        acc = np.zeros((dv.size, 3))
        for offset, weight in stencil:
            acc += weight * np.atleast_2d(position(dv + offset * step))
        return acc / scale

    def make_deriv(order):
        step = h if order < 3 else 2 * h

        def evaluate(dv):
            coarse = fd(order, dv, step)
            fine = fd(order, dv, step / 2)
            return (16.0 * fine - coarse) / 15.0
        return evaluate

    def wrap_pos(dv):
        return np.atleast_2d(position(np.atleast_1d(np.asarray(dv, dtype=float))))

    return ParametricCurve(position=wrap_pos,
                           derivatives=tuple(make_deriv(k) for k in (1, 2, 3)),
                           name=name)


@functools.lru_cache(maxsize=1)
def reference_curve() -> ParametricCurve:
    """Built-in closed curve realizing the transfer boundary conditions.

    Blend of two loops, r(d) = (1-d) r1(d) + d r2(d) with
    r1 = sqrt(2) sin(pi d) (0, sin^2(pi d/2), cos^2(pi d/2)) and
    r2 = sqrt(2) sin(pi d) (cos^2(pi d/2), 0, sin^2(pi d/2)).
    Starts and ends at the origin with tangents +z and -z.
    """
    d = sp.Symbol("d")
    s = sp.sqrt(2) * sp.sin(sp.pi * d)
    r1 = [0, s * sp.sin(sp.pi * d / 2) ** 2, s * sp.cos(sp.pi * d / 2) ** 2]
    r2 = [s * sp.cos(sp.pi * d / 2) ** 2, 0, s * sp.sin(sp.pi * d / 2) ** 2]
    blended = [(1 - d) * a + d * b for a, b in zip(r1, r2)]
    return curve_from_sympy(blended, name="reference")


# ---------------------------------------------------------------------------
# arc-length reparametrization
# ---------------------------------------------------------------------------

@dataclass
class ArcLengthCurve:
    """Unit-speed curve r(t) on t in [0, L] with derivatives to order 3.

    ``jet`` maps an (n,) arc-length array to the (n, 3) arrays
    (r, r', r'', r''') from one evaluation; the four accessors below each
    return one of them.
    """

    total_length: float
    jet: callable
    parameter_map: callable = None  # t -> original parameter d, when applicable
    source: ParametricCurve = None
    name: str = "curve"

    def position(self, t):
        return self.jet(t)[0]

    def tangent(self, t):
        return self.jet(t)[1]

    def second_derivative(self, t):
        return self.jet(t)[2]

    def third_derivative(self, t):
        return self.jet(t)[3]


def reparametrize_by_arclength(curve, n_quad: int = 256) -> ArcLengthCurve:
    """Transform r(d) into the unit-speed form r(t), t in [0, L].

    Total length uses composite Gauss-Legendre quadrature over ``n_quad``
    panels; the inverse map d(t) is solved by bracketed Newton iteration on
    the cumulative-length table to |s(d) - t| <= 1e-12.  An
    :class:`ArcLengthCurve` is already unit speed and is returned unchanged.
    """
    if isinstance(curve, ArcLengthCurve):
        return curve
    if n_quad < 64:
        raise ValueError("n_quad must be at least 64")
    if curve.derivative_order < 3:
        curve = curve_from_position(curve.position, name=curve.name)
    curve.validate()

    speed_of = lambda dv: np.linalg.norm(curve.derivative(1)(dv), axis=1)
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(0.0, 1.0, n_quad + 1)
    lows, highs = edges[:-1], edges[1:]
    half = 0.5 * (highs - lows)
    mids = 0.5 * (highs + lows)
    quad_d = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    speeds = speed_of(quad_d).reshape(n_quad, _GL_ORDER)
    if not np.all(np.isfinite(speeds)):
        raise DegenerateCurveError(f"curve {curve.name!r} is not rectifiable")
    panel_lengths = (speeds * weights[None, :]).sum(axis=1) * half
    cumulative = np.concatenate([[0.0], np.cumsum(panel_lengths)])
    total = float(cumulative[-1])
    if not np.isfinite(total) or total < 1e-12:
        raise DegenerateCurveError(f"curve {curve.name!r} has zero arc length")

    def partial_length(d_points):
        # cumulative length s(d), evaluated with local Gauss-Legendre panels
        idx = np.clip(np.searchsorted(edges, d_points, side="right") - 1, 0, n_quad - 1)
        lo = edges[idx]
        h2 = 0.5 * (d_points - lo)
        mid = 0.5 * (d_points + lo)
        local = (mid[:, None] + h2[:, None] * nodes[None, :]).ravel()
        sp_local = speed_of(local).reshape(-1, _GL_ORDER)
        return cumulative[idx] + (sp_local * weights[None, :]).sum(axis=1) * h2

    def invert(t_values):
        t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        if np.any(t_values < -1e-9) or np.any(t_values > total + 1e-9):
            raise ValueError("arc-length parameter outside [0, L]")
        t_clip = np.clip(t_values, 0.0, total)
        guess = np.clip(np.interp(t_clip, cumulative, edges), 0.0, 1.0)
        lo_b = np.zeros_like(guess)
        hi_b = np.ones_like(guess)
        for _ in range(100):
            residual = partial_length(guess) - t_clip
            open_ = np.abs(residual) > 1e-12  # converged points stay where they are
            if not open_.any():
                break
            hi_b = np.where(residual > 0, np.minimum(hi_b, guess), hi_b)
            lo_b = np.where(residual <= 0, np.maximum(lo_b, guess), lo_b)
            step = residual / np.maximum(speed_of(guess), 1e-300)
            proposal = guess - step
            outside = (proposal <= lo_b) | (proposal >= hi_b)
            guess = np.where(open_, np.where(outside, 0.5 * (lo_b + hi_b), proposal), guess)
        return guess

    d1f, d2f, d3f = (curve.derivative(k) for k in (1, 2, 3))

    def chain(t_values):
        # one inversion d(t), then the chain rule for the three t-derivatives
        dv = invert(t_values)
        v1, v2, v3 = d1f(dv), d2f(dv), d3f(dv)
        speed = np.linalg.norm(v1, axis=1, keepdims=True)
        a = (v1 * v2).sum(axis=1, keepdims=True)
        b = (v2 * v2).sum(axis=1, keepdims=True) + (v1 * v3).sum(axis=1, keepdims=True)
        rdot = v1 / speed
        rddot = v2 / speed**2 - v1 * a / speed**4
        rdddot = (v3 / speed**3 - 3.0 * v2 * a / speed**5
                  - v1 * b / speed**5 + 4.0 * v1 * a**2 / speed**7)
        return curve.position(dv), rdot, rddot, rdddot

    return ArcLengthCurve(
        total_length=total,
        jet=chain,
        parameter_map=invert,
        source=curve,
        name=curve.name,
    )


def from_samples(times, positions, tangents, name="reconstructed") -> ArcLengthCurve:
    """Arc-length curve from (t, r, rdot) samples via cubic Hermite pieces."""
    times = np.asarray(times, dtype=float)
    spline = CubicHermiteSpline(times, np.asarray(positions, dtype=float),
                                np.asarray(tangents, dtype=float))
    pieces = (spline,) + tuple(spline.derivative(k) for k in (1, 2, 3))

    def jet(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return tuple(np.atleast_2d(f(t)) for f in pieces)

    return ArcLengthCurve(total_length=float(times[-1] - times[0]), jet=jet, name=name)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

#: curvature threshold below which torsion is reported as 0 and flagged
EPS_KAPPA = 1e-9


@dataclass
class CurveGeometry:
    """Sampled curvature/torsion of an arc-length curve."""

    time_grid: np.ndarray
    curvature: np.ndarray
    torsion: np.ndarray
    flags: np.ndarray  # True where torsion is undefined (kappa below threshold)
    name: str = "curve"

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.flags))


def curvature_torsion(arc: ArcLengthCurve, n_samples: int = 2001,
                      eps_kappa: float = EPS_KAPPA) -> CurveGeometry:
    """Sample kappa(t) = |r''(t)| and tau(t) = (r' x r'').r''' / |r' x r''|^2."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, arc.total_length, n_samples)
    _, rdot, rddot, rdddot = arc.jet(grid)
    kappa = np.linalg.norm(rddot, axis=1)
    cross = np.cross(rdot, rddot)
    denom = (cross**2).sum(axis=1)
    flags = kappa < eps_kappa
    tau = np.where(flags, 0.0,
                   (cross * rdddot).sum(axis=1) / np.where(flags, 1.0, denom))
    return CurveGeometry(time_grid=grid, curvature=kappa, torsion=tau,
                         flags=flags, name=arc.name)


@dataclass
class BoundaryReport:
    """Closure and endpoint-tangent diagnostics for an arc-length curve."""

    closed: bool
    start_tangent_ok: bool
    end_tangent_ok: bool
    closure_residual: float
    start_residual: float
    end_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.closed and self.start_tangent_ok and self.end_tangent_ok

    def as_dict(self):
        return {
            "closed": self.closed,
            "start_tangent_ok": self.start_tangent_ok,
            "end_tangent_ok": self.end_tangent_ok,
            "closure_residual": self.closure_residual,
            "start_residual": self.start_residual,
            "end_residual": self.end_residual,
            "tol": self.tol,
        }


def check_boundary_conditions(arc: ArcLengthCurve, tol: float = 1e-6) -> BoundaryReport:
    """Check r(L) = r(0), r'(0) = (0,0,1) and r'(L) = (0,0,-1)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    ends, tangents = arc.jet(np.array([0.0, arc.total_length]))[:2]
    closure = float(np.linalg.norm(ends[1] - ends[0]))
    start = float(np.linalg.norm(tangents[0] - np.array([0.0, 0.0, 1.0])))
    end = float(np.linalg.norm(tangents[1] - np.array([0.0, 0.0, -1.0])))
    return BoundaryReport(
        closed=closure <= tol,
        start_tangent_ok=start <= tol,
        end_tangent_ok=end <= tol,
        closure_residual=closure,
        start_residual=start,
        end_residual=end,
        tol=tol,
    )


def write_geometry_csv(geometry: CurveGeometry, path) -> None:
    """Geometry CSV with header ``t,kappa,tau,flag``."""
    with open(path, "w", newline="") as fh:
        fh.write("t,kappa,tau,flag\n")
        for t, k, tau, flag in zip(geometry.time_grid, geometry.curvature,
                                   geometry.torsion, geometry.flags):
            fh.write(f"{t:.17g},{k:.17g},{tau:.17g},{int(flag)}\n")
