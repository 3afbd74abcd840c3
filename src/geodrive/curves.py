"""Three-dimensional parametric curves and their arc-length geometry.

Curves enter in one of two forms: closed-form expression strings in the
parameter d (exact derivatives, by Taylor-jet arithmetic over the parsed
expression) or dense sample tables (quintic-spline derivatives).
Everything downstream works with the arc-length form, from which curvature
and torsion are read off.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import CubicHermite, PiecewisePolynomial, quintic_spline

_GL_ORDER = 10
#: Gauss-Legendre panels of the cumulative arc-length table
_N_QUAD = 256
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_integral(nodes, n_quad):
    """(len(nodes) + 1, len(nodes)): a panel's node speeds to the coefficients, highest
    power of d - lo first, of the integral from its left edge of their interpolant.

    Column j integrates the Lagrange polynomial L_j(u) = sum_k c_k u^k of node u_j on
    [0, 1]: sum_k c_k N^k / (k + 1) (d - lo)^(k + 1), u = N (d - lo).  The float nodes
    are a_j / 2^e, so each entry is one exact ratio of integers, rounded once, and no
    entry depends on a BLAS or LAPACK kernel (an inverse Vandermonde matrix did).
    """
    ratios = [x.as_integer_ratio() for x in 0.5 * (1.0 + nodes)]
    scale = max(den for _, den in ratios)  # 2^e: every denominator is a power of 2
    a = [num * (scale // den) for num, den in ratios]
    out = np.zeros((len(a) + 1, len(a)))
    for j, aj in enumerate(a):
        poly, denom = [1], 1  # L_j(u) = poly(2^e u) / denom, poly rising: prod_{i != j} (U - a_i)
        for i, ai in enumerate(a):
            if i != j:
                poly = [lo - ai * hi for lo, hi in zip([0] + poly, poly + [0])]
                denom *= aj - ai
        for k, p in enumerate(poly):  # c_k = p 2^(e k) / denom
            out[len(a) - 1 - k, j] = p * (scale * n_quad) ** k / (denom * (k + 1))
    return out


_PANEL_INTEGRAL = _panel_integral(_NODES, _N_QUAD)


class DegenerateCurveError(ValueError):
    """Curve has (numerically) zero length or non-finite samples."""


class CurveExpressionError(ValueError):
    """A user curve expression failed to parse; carries the component name."""

    component = property(lambda self: self.args[0])  # args holds both parts, so it unpickles

    def __str__(self):
        return "component %r: %s" % self.args


@dataclass
class ParametricCurve:
    """Curve r(d) on d in [0, 1].

    ``derivatives(d, k)`` maps an (n,) parameter array d to [r, r', ..., r^(k)],
    k <= 3, each an (n, 3) array; entry j has the same bits for every k >= j.
    """

    derivatives: callable
    name: str = "curve"

    def position(self, d):
        return self.derivatives(np.atleast_1d(np.asarray(d, dtype=float)), 0)[0]


_EXPRESSION_NAMES = {"sin", "cos", "pi", "d"}
#: a number glued to a name, such as "2e": a syntax error best reported as the name
_GLUED = re.compile(r"(?<![\w.])[\d.]+(?:[eE][+-]?\d+)?([A-Za-z_]\w*)")
_FOLD = {"sin": math.sin, "cos": math.cos, "Add": operator.add, "Mult": operator.mul,
         "Div": operator.truediv}


def _fold(op, *args):
    """The node (op, *args), or its value when every operand is a float; a product
    with a factor 0.0 is 0.0, as its jet rows are, so a division by it is seen."""
    if all(isinstance(x, float) for x in args):
        return _FOLD[op](*args)
    return 0.0 if op == "Mult" and 0.0 in args else (op, *args)


def _compile(node):
    """An expression's ``ast`` as nested tuples (op, *operands) over the leaf "d",
    with a - b as a + (-1) b and every subexpression free of d folded to a float.

    An exponent must be free of d, and an integer unless its base is free of d
    too; this, a divisor that folds to 0, a constant power that overflows a
    float and anything outside the grammar raise ValueError.
    """
    match node:
        case ast.Constant(value=int() | float() as value) if not isinstance(value, bool):
            return float(value)
        case ast.Name(id="pi" | "d" as name):
            return math.pi if name == "pi" else "d"
        case ast.UnaryOp(op=ast.UAdd(), operand=operand):
            return _compile(operand)
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return _fold("Mult", -1.0, _compile(operand))
        case ast.Call(func=ast.Name(id="sin" | "cos" as name), args=[arg], keywords=[]):
            return _fold(name, _compile(arg))
        case ast.BinOp(op=ast.Sub()):
            return _fold("Add", _compile(node.left), _fold("Mult", -1.0, _compile(node.right)))
        case ast.BinOp(op=ast.Add() | ast.Mult() | ast.Div()):
            left, right = _compile(node.left), _compile(node.right)
            if isinstance(node.op, ast.Div) and right == 0.0:
                raise ValueError("division by zero")
            return _fold(type(node.op).__name__, left, right)
        case ast.BinOp(op=ast.Pow()):
            base, exponent = _compile(node.left), _compile(node.right)
            if not isinstance(exponent, float):
                raise ValueError(f"exponent {ast.unparse(node.right)!r} depends on d")
            if isinstance(base, float):
                try:
                    value = base ** exponent
                except OverflowError:
                    raise ValueError(f"{ast.unparse(node)!r} overflows a float") from None
                if isinstance(value, complex):
                    raise ValueError(f"{ast.unparse(node)!r} is not a real number")
                return value
            if not exponent.is_integer():
                raise ValueError(f"exponent {exponent!r} of an expression in d is not an integer")
            return ("Pow", base, int(exponent))
    raise ValueError(f"unsupported syntax {ast.unparse(node)!r}")


def _zero(row):
    """Whether a jet row, an array or a float, is an exact float zero, as the
    rows of d and of constants are; arithmetic with those is left out."""
    return isinstance(row, float) and row == 0.0


def _dot(xs, ys):
    terms = [x * y for x, y in zip(xs, ys) if not (_zero(x) or _zero(y))]
    return sum(terms[1:], terms[0]) if terms else 0.0


def _sum(a, b):
    return [y if _zero(x) else x if _zero(y) else x + y for x, y in zip(a, b)]


def _product(a, b):
    return [_dot(a[:j + 1], b[j::-1]) for j in range(len(a))]


def _quotient(a, b):
    q = []
    for j in range(len(a)):
        rest = _dot(b[1:j + 1], q[::-1])
        q.append((a[j] if _zero(rest) else a[j] - rest) / b[0])
    return q


def _power(a, n):
    """a^n for an integer n, by repeated squaring."""
    out, one = a, [1.0] + [0.0] * (len(a) - 1)
    for bit in bin(abs(n))[3:]:
        out = _product(out, out) if bit == "0" else _product(_product(out, out), a)
    return one if n == 0 else out if n > 0 else _quotient(one, out)


def _sin_cos(u):
    s, c = [np.sin(u[0])], [np.cos(u[0])]
    for j in range(1, len(u)):
        du = [i * u[i] for i in range(1, j + 1)]
        s.append(_dot(du, c[::-1]) / j)
        c.append(-_dot(du, s[-2::-1]) / j)
    return s, c


_RULES = {"Add": _sum, "Mult": _product, "Div": _quotient}


def _jet(expr, d, k, memo):
    """Taylor jet of a compiled expression about the points d: the rows f, f',
    f''/2, ..., f^(k)/k!, each an array over d or a float.

    + acts termwise, * and / by the Cauchy product and its inverse, sin and
    cos by their coupled recurrence, ^ by repeated products.  ``memo`` keeps
    every subexpression's jet, so a repeated one is evaluated once.
    """
    if isinstance(expr, float):
        return [expr] + [0.0] * k
    if expr not in memo:
        if expr == "d":
            memo[expr] = ([d, 1.0] + [0.0] * k)[:k + 1]
        elif expr[0] in ("sin", "cos"):
            memo[("sin", expr[1])], memo[("cos", expr[1])] = _sin_cos(_jet(expr[1], d, k, memo))
        elif expr[0] == "Pow":
            memo[expr] = _power(_jet(expr[1], d, k, memo), expr[2])
        else:
            memo[expr] = _RULES[expr[0]](*(_jet(x, d, k, memo) for x in expr[1:]))
    return memo[expr]


def _parse_component(component, text):
    """One component, ``^`` read as ``**``, parsed with ``ast`` and compiled."""
    if not isinstance(text, str) or not text.strip():
        raise CurveExpressionError(component, "expected a non-empty expression string")
    cleaned = text.strip().replace("^", "**")
    try:
        tree = ast.parse(cleaned, mode="eval").body
        unknown = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - _EXPRESSION_NAMES
    except (SyntaxError, ValueError, RecursionError) as exc:
        unknown = set(_GLUED.findall(cleaned)) - _EXPRESSION_NAMES
        if not unknown:
            raise CurveExpressionError(
                component, f"invalid syntax: {getattr(exc, 'msg', exc)}") from exc
    if unknown:
        raise CurveExpressionError(
            component, f"unknown names {sorted(unknown)}; allowed: sin, cos, pi, d")
    try:
        return _compile(tree)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        raise CurveExpressionError(component, str(exc)) from exc


def curve_from_expressions(x, y, z, name="expression-curve") -> ParametricCurve:
    """Curve from three expression strings in d (grammar: + - * / ^ sin cos pi d).

    The k-th derivative is k! times row k of each component's :func:`_jet`;
    the three components share one memo per evaluation.
    """
    exprs = [_parse_component(label, text) for label, text in zip("xyz", (x, y, z))]

    def derivatives(dv, k):
        memo, out = {}, np.empty((k + 1, np.size(dv), 3))
        for i, expr in enumerate(exprs):
            for j, row in enumerate(_jet(expr, dv, k, memo)):
                out[j, :, i] = row
        for j in range(2, k + 1):
            out[j] *= math.factorial(j)
        return out

    return ParametricCurve(derivatives, name)


def curve_from_table(d_values, points, name="table-curve") -> ParametricCurve:
    """Curve from a dense sample table; derivatives come from a quintic spline."""
    d_values = np.asarray(d_values, dtype=float)
    points = np.asarray(points, dtype=float)
    if d_values.size < 8:
        raise ValueError("need at least 8 table rows")
    if points.shape != (d_values.size, 3):
        raise ValueError("table must have shape (n, 3)")
    if not (np.all(np.isfinite(d_values)) and np.all(np.isfinite(points))):
        raise ValueError("table values must be finite")
    if np.any(np.diff(d_values) <= 0):
        raise ValueError("table parameter column must be strictly increasing")
    if d_values[0] != 0.0 or d_values[-1] != 1.0:
        raise ValueError("table parameter column must run from exactly 0 to exactly 1")
    return ParametricCurve(quintic_spline(d_values, points), name)


def read_curve_table(path, name=None) -> ParametricCurve:
    """Read a CSV sample table with header ``d,x,y,z``."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        if header != ["d", "x", "y", "z"]:
            raise ValueError(f"{path}: expected header 'd,x,y,z', got {header}")
        with warnings.catch_warnings():  # a table without rows fails the row count instead
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return curve_from_table(rows[:, 0], rows[:, 1:], name=name or str(path))


@functools.lru_cache(maxsize=1)
def reference_curve() -> ParametricCurve:
    """Built-in closed curve realizing the transfer boundary conditions.

    Blend of two loops, r(d) = (1-d) r1(d) + d r2(d) with
    r1 = sqrt(2) sin(pi d) (0, sin^2(pi d/2), cos^2(pi d/2)) and
    r2 = sqrt(2) sin(pi d) (cos^2(pi d/2), 0, sin^2(pi d/2)).
    Starts and ends at the origin with tangents +z and -z.
    """
    return curve_from_expressions(
        "d*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2",
        "(1-d)*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
        "(1-d)*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2 + d*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
        name="reference")


# ---------------------------------------------------------------------------
# arc-length reparametrization
# ---------------------------------------------------------------------------

@dataclass
class ArcLengthCurve:
    """Unit-speed curve r(t) on t in [0, L] with derivatives to order 3.

    ``jet`` maps an (n,) arc-length array to the (n, 3) arrays
    (r, r', r'', r''') from one evaluation; ``position`` returns the first.
    """

    total_length: float
    jet: callable
    parameter_map: callable = None  # t -> original parameter d, when applicable
    name: str = "curve"

    def position(self, t):
        return self.jet(t)[0]


def reparametrize_by_arclength(curve) -> ArcLengthCurve:
    """Transform r(d) into the unit-speed form r(t), t in [0, L].

    Total length uses composite Gauss-Legendre quadrature over ``_N_QUAD``
    panels.  The same speed samples give s(d) on each panel as the integral of
    their degree-9 interpolant, one piecewise polynomial; the inverse map d(t)
    is Newton's iteration on it, clipped to the panel that holds t, to
    |s(d) - t| <= 1e-13 L, with no further curve evaluation.  The jet raises
    :class:`DegenerateCurveError` at a sample where the speed is exactly 0.
    An :class:`ArcLengthCurve` is already unit speed and is returned unchanged.
    """
    if isinstance(curve, ArcLengthCurve):
        return curve
    edges = np.linspace(0.0, 1.0, _N_QUAD + 1)
    half = 0.5 / _N_QUAD
    quad_d = ((edges[:-1] + half)[:, None] + half * _NODES).ravel()
    with np.errstate(all="ignore"):  # the isfinite checks report a pole or an overflow
        position, velocity = curve.derivatives(np.concatenate([quad_d, [0.0, 1.0]]), 1)  # nodes, ends
        if not np.all(np.isfinite(position)):
            raise DegenerateCurveError(f"curve {curve.name!r} produced non-finite samples")
        speeds = np.linalg.norm(velocity[:-2], axis=1).reshape(_N_QUAD, _GL_ORDER)
        if not np.all(np.isfinite(speeds)):
            raise DegenerateCurveError(f"curve {curve.name!r} is not rectifiable")
        cumulative = np.concatenate([[0.0], np.cumsum((speeds * _WEIGHTS).sum(axis=1) * half)])
    total = float(cumulative[-1])
    if not np.isfinite(total) or total < 1e-12:
        raise DegenerateCurveError(f"curve {curve.name!r} has zero arc length")

    # a panel's mean speed integrates to mean (d - lo) exactly, so the matrix meets only the
    # deviations from it and its rounding scales with them; einsum calls no BLAS, so the
    # coefficients have the same bits under every kernel
    base = speeds.mean(axis=1)
    coeffs = np.einsum("kj,pj->kp", _PANEL_INTEGRAL, speeds - base[:, None])
    coeffs[-2] += base
    coeffs[-1] = cumulative[:-1]
    length = PiecewisePolynomial(edges, coeffs[:, None, :])

    def invert(t_values):
        t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        if np.any(t_values < -1e-9) or np.any(t_values > total + 1e-9):
            raise ValueError("arc-length parameter outside [0, L]")
        t_clip = np.clip(t_values, 0.0, total)
        panel = np.minimum(np.searchsorted(cumulative, t_clip, side="right") - 1, _N_QUAD - 1)
        lo, hi = edges[panel], edges[panel + 1]
        guess = np.clip(np.interp(t_clip, cumulative, edges), lo, hi)
        for _ in range(50):  # a few rounds converge; the cap only ends a cycle
            s, speed = length(guess, order=1)
            residual = s[:, 0] - t_clip
            open_ = np.abs(residual) > 1e-13 * total  # converged points stay where they are
            if not open_.any():
                break
            guess[open_] = np.clip(guess[open_] - residual[open_] / speed[open_, 0],
                                   lo[open_], hi[open_])
        return guess

    def chain(t_values):
        # one inversion d(t), one jet of r(d), then the chain rule for the t-derivatives
        dv = invert(t_values)
        with np.errstate(all="ignore"):  # a pole inside [0, 1] raises below, unwarned
            v0, v1, v2, v3 = jet = curve.derivatives(dv, 3)
            speed = np.linalg.norm(v1, axis=1, keepdims=True)
        for fault, ok in (("is not finite", np.isfinite(jet).all(axis=(0, 2))),
                          ("has zero speed", speed[:, 0] != 0)):
            if not ok.all():
                raise DegenerateCurveError(
                    f"curve {curve.name!r} {fault} at d = {float(dv[np.argmin(ok)])!r}")
        a = (v1 * v2).sum(axis=1, keepdims=True)
        b = (v2 * v2).sum(axis=1, keepdims=True) + (v1 * v3).sum(axis=1, keepdims=True)
        rdot = v1 / speed
        rddot = v2 / speed**2 - v1 * a / speed**4
        rdddot = (v3 / speed**3 - 3.0 * v2 * a / speed**5
                  - v1 * b / speed**5 + 4.0 * v1 * a**2 / speed**7)
        return v0, rdot, rddot, rdddot

    return ArcLengthCurve(
        total_length=total,
        jet=chain,
        parameter_map=invert,
        name=curve.name,
    )


def from_samples(times, positions, tangents, name="reconstructed") -> ArcLengthCurve:
    """Arc-length curve from (t, r, rdot) samples via cubic Hermite pieces."""
    times = np.asarray(times, dtype=float)
    pieces = CubicHermite(times, np.asarray(positions, dtype=float),
                          np.asarray(tangents, dtype=float))

    def jet(t):
        return tuple(pieces(np.atleast_1d(np.asarray(t, dtype=float)), order=3))

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


def curvature_torsion(arc: ArcLengthCurve, n_samples: int = 2001) -> CurveGeometry:
    """Sample kappa(t) = |r''(t)| and tau(t) = (r' x r'').r''' / |r' x r''|^2."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, arc.total_length, n_samples)
    _, rdot, rddot, rdddot = arc.jet(grid)
    kappa = np.linalg.norm(rddot, axis=1)
    cross = np.cross(rdot, rddot)
    denom = (cross**2).sum(axis=1)
    flags = kappa < EPS_KAPPA
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
        return dataclasses.asdict(self)


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

