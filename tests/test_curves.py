import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from geodrive import curves
from geodrive.cli import main
from geodrive.curves import (CurveExpressionError, DegenerateCurveError,
                             ParametricCurve, check_boundary_conditions,
                             curvature_torsion, curve_from_expressions,
                             curve_from_table, read_curve_table, reference_curve,
                             reparametrize_by_arclength)
from geodrive.schedules import reconstruct_curve, synthesize

SQRT2 = np.sqrt(2.0)


def _dynamic_openblas():
    """Whether numpy's BLAS picks its kernel from the CPU or from OPENBLAS_CORETYPE."""
    try:  # mode="dicts" needs numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration"))


DYNAMIC_OPENBLAS = _dynamic_openblas()


def circle_curve(radius=1.0):
    return curve_from_expressions(f"{radius}*cos(2*pi*d)", f"{radius}*sin(2*pi*d)", "0",
                                  name="circle")


def segment_curve(length=3.0):
    return curve_from_expressions("0", "0", f"{length}*d", name="segment")


def helix_curve(a=1.0, pitch=1.5):
    # (a cos u, a sin u, b u) with u = 2 pi d, b = pitch / (2 pi)
    return curve_from_expressions("cos(2*pi*d)", "sin(2*pi*d)", f"{pitch}*d", name="helix")


class TestReferenceCurve:
    def test_closed_endpoints(self):
        curve = reference_curve()
        assert np.allclose(curve.position(0.0), 0.0, atol=1e-15)
        assert np.allclose(curve.position(1.0), 0.0, atol=1e-14)

    def test_midpoint_value(self):
        expected = np.array([SQRT2 / 4, SQRT2 / 4, SQRT2 / 2])
        assert np.allclose(reference_curve().position(0.5)[0], expected, atol=1e-14)

    def test_arc_length_value(self):
        arc = reparametrize_by_arclength(reference_curve())
        assert arc.total_length == pytest.approx(2.116, abs=5e-3)


class TestReparametrization:
    def test_circle_length(self):
        arc = reparametrize_by_arclength(circle_curve())
        assert arc.total_length == pytest.approx(2 * np.pi, abs=1e-10)

    def test_segment_length_and_tangent(self):
        arc = reparametrize_by_arclength(segment_curve())
        assert arc.total_length == pytest.approx(3.0, abs=1e-10)
        tangents = arc.jet(np.linspace(0, 3, 7))[1]
        assert np.allclose(tangents, [0, 0, 1], atol=1e-10)

    def test_unit_speed(self, reference_arc):
        grid = np.linspace(0, reference_arc.total_length, 500)
        speeds = np.linalg.norm(reference_arc.jet(grid)[1], axis=1)
        assert np.max(np.abs(speeds - 1)) <= 1e-8

    def test_acceleration_orthogonal_to_tangent(self, reference_arc):
        grid = np.linspace(0, reference_arc.total_length, 500)
        _, rdot, rddot, _ = reference_arc.jet(grid)
        dots = np.sum(rdot * rddot, axis=1)
        assert np.max(np.abs(dots)) <= 1e-6

    def test_idempotent(self, reference_arc):
        again = reparametrize_by_arclength(reference_arc)
        assert abs(again.total_length - reference_arc.total_length) <= 1e-10
        grid = np.linspace(0, reference_arc.total_length, 201)
        assert np.array_equal(again.position(grid), reference_arc.position(grid))

    @pytest.mark.parametrize("kind", ["reference", "bump", "bump-table", "zero-speed"])
    def test_inversion_on_reference_grid(self, kind):
        # the 2001-point grid of curvature_torsion; residuals against an
        # independent 20-point Gauss-Legendre quadrature between the roots.  The
        # 401-row table's length panels straddle spline knots, and the speed of
        # (2d - 1)^3 vanishes at d = 1/2
        rows = np.linspace(0.0, 1.0, 401)
        bump = curve_from_expressions(*SEED_1_BUMP)
        curve = {"reference": reference_curve,
                 "bump": lambda: bump,
                 "bump-table": lambda: curve_from_table(rows, bump.position(rows)),
                 "zero-speed": lambda: curve_from_expressions("0", "0", "(2*d-1)^3"),
                 }[kind]()
        calls = []

        def counted(dv, k):
            calls.append(k)
            return curve.derivatives(dv, k)

        arc = reparametrize_by_arclength(ParametricCurve(counted, kind))
        grid = np.linspace(0.0, arc.total_length, 2001)
        calls.clear()
        roots = arc.parameter_map(grid)
        assert calls == []  # the inversion reads only the length's own polynomial
        assert roots[0] == 0.0 and roots[-1] == 1.0
        nodes, weights = np.polynomial.legendre.leggauss(20)
        lo, hi = np.concatenate([[0.0], roots[:-1]]), roots
        points = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * nodes
        speeds = np.linalg.norm(curve.derivatives(points.ravel(), 1)[1], axis=1)
        lengths = np.cumsum((speeds.reshape(-1, 20) * weights).sum(axis=1) * 0.5 * (hi - lo))
        assert np.max(np.abs(lengths - grid)) <= 5e-13

    @pytest.mark.skipif(not DYNAMIC_OPENBLAS, reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
    def test_arc_length_bits_do_not_depend_on_the_blas_kernel(self, core):
        # under Nehalem an inverse-Vandermonde panel matrix and a BLAS product moved the
        # inversion residuals above 1e-12: the matrix and the arc-length map keep their bits
        arc = reparametrize_by_arclength(reference_curve())
        grid = np.linspace(0.0, arc.total_length, 2001)
        script = ("import numpy as np\nfrom geodrive import curves\n"
                  "arc = curves.reparametrize_by_arclength(curves.reference_curve())\n"
                  "grid = np.linspace(0.0, arc.total_length, 2001)\n"
                  "print(curves._PANEL_INTEGRAL.tobytes().hex(),"
                  " arc.parameter_map(grid).tobytes().hex())")
        src = str(Path(curves.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        matrix, roots = map(bytes.fromhex, done.stdout.split())
        assert matrix == curves._PANEL_INTEGRAL.tobytes()
        assert roots == arc.parameter_map(grid).tobytes()

    def test_degenerate_curve_rejected(self):
        point = curve_from_expressions("0", "0", "0", name="point")
        with pytest.raises(DegenerateCurveError):
            reparametrize_by_arclength(point)

    def test_non_finite_curve_rejected(self):
        def bad(d, k):
            out = np.stack([np.stack([d, d, d], axis=1)] + [np.ones((d.size, 3))] * k)
            out[:, d > 0.5] = np.nan
            return out

        # and a pole, 1/d at d = 0, reported without numpy's divide-by-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for curve in (ParametricCurve(bad), curve_from_expressions("0", "d^-1", "d")):
                with pytest.raises(DegenerateCurveError, match="non-finite"):
                    reparametrize_by_arclength(curve)


class TestGeometry:
    def test_circle_curvature_torsion(self):
        arc = reparametrize_by_arclength(circle_curve(radius=2.0))
        geo = curvature_torsion(arc, n_samples=201)
        assert np.allclose(geo.curvature, 0.5, atol=1e-8)
        assert np.allclose(geo.torsion, 0.0, atol=1e-8)
        assert geo.flagged_count == 0

    def test_helix_invariants(self):
        a, pitch = 1.0, 1.5
        b = pitch / (2 * np.pi)
        arc = reparametrize_by_arclength(helix_curve(a, pitch))
        geo = curvature_torsion(arc, n_samples=201)
        assert np.allclose(geo.curvature, a / (a**2 + b**2), atol=1e-8)
        assert np.allclose(geo.torsion, b / (a**2 + b**2), atol=1e-8)

    def test_reference_interior_curvature_positive(self, reference_geometry):
        assert np.all(np.isfinite(reference_geometry.curvature))
        assert np.all(np.isfinite(reference_geometry.torsion))
        assert np.all(reference_geometry.curvature > 0)
        assert reference_geometry.flagged_count == 0

    def test_straight_line_flags_torsion(self):
        arc = reparametrize_by_arclength(segment_curve())
        geo = curvature_torsion(arc, n_samples=51)
        assert np.all(geo.flags)
        assert np.all(geo.torsion == 0)

    def test_geometry_memory(self, peak_bytes):
        # 4 MB: 2.1 MB measured; a length quadrature per Newton step would hold
        # 2001 x 10 order-1 jets at once (11.3 MB)
        arc = reparametrize_by_arclength(curve_from_expressions(*SEED_1_BUMP))
        curvature_torsion(arc)
        assert peak_bytes(lambda: curvature_torsion(arc))[1] <= 4.0e6

    def test_matches_finite_differences(self, reference_arc):
        # independent cross-check: differentiate the tangent numerically
        arc = reference_arc
        h = 1e-4 * arc.total_length
        grid = np.linspace(5 * h, arc.total_length - 5 * h, 101)

        def geo_t(t):
            return arc.jet(t)[1]

        def fd1(f, t):
            return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)

        def fd2(f, t):
            return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h)
                    - f(t - 2 * h)) / (12 * h * h)

        rdot = geo_t(grid)
        rddot = fd1(geo_t, grid)
        rdddot = fd2(geo_t, grid)
        kappa_fd = np.linalg.norm(rddot, axis=1)
        cross = np.cross(rdot, rddot)
        tau_fd = np.sum(cross * rdddot, axis=1) / np.sum(cross**2, axis=1)
        _, _, second, third = arc.jet(grid)
        kappa = np.linalg.norm(second, axis=1)
        cross_a = np.cross(rdot, second)
        tau = np.sum(cross_a * third, axis=1) / np.sum(cross_a**2, axis=1)
        assert np.max(np.abs(kappa_fd - kappa) / kappa) <= 1e-5
        scale = np.maximum(np.abs(tau), 1.0)
        assert np.max(np.abs(tau_fd - tau) / scale) <= 1e-5


class TestJet:
    @staticmethod
    def helix_arc(kind):
        d = np.linspace(0.0, 1.0, 401)
        u = 2 * np.pi * d
        pts = np.stack([np.cos(u), np.sin(u), 1.5 * d], axis=1)
        if kind == "expression":
            return reparametrize_by_arclength(helix_curve())
        if kind == "table":
            return reparametrize_by_arclength(curve_from_table(d, pts))
        arc = reparametrize_by_arclength(helix_curve())
        return reconstruct_curve(synthesize(curvature_torsion(arc, n_samples=501)))

    @pytest.mark.parametrize("kind", ["expression", "table", "reconstructed"])
    def test_components_equal_accessors(self, kind):
        arc = self.helix_arc(kind)
        grid = np.linspace(0.0, arc.total_length, 37)
        jet = arc.jet(grid)
        assert len(jet) == 4 and all(value.shape == (grid.size, 3) for value in jet)
        assert np.array_equal(jet[0], arc.position(grid))

    def test_one_inversion_per_geometry_call(self):
        # the source's evaluator is called once per jet, at order 3, and by nothing else
        base = helix_curve()
        calls = []

        def counted(dv, k):
            calls.append((k, np.size(dv)))
            return base.derivatives(dv, k)

        arc = reparametrize_by_arclength(ParametricCurve(counted, "counted"))
        calls.clear()
        curvature_torsion(arc, n_samples=101)
        assert calls == [(3, 101)]
        calls.clear()
        check_boundary_conditions(arc)
        assert [n for k, n in calls if k == 3] == [2]


class TestBoundaryConditions:
    def test_reference_passes(self, reference_arc):
        report = check_boundary_conditions(reference_arc, tol=1e-6)
        assert report.passed
        assert report.closure_residual <= 1e-6
        assert report.start_residual <= 1e-6
        assert report.end_residual <= 1e-6

    def test_segment_fails_closure(self):
        arc = reparametrize_by_arclength(segment_curve())
        report = check_boundary_conditions(arc)
        assert not report.closed
        assert not report.passed

    def test_circle_fails_tangents_only(self):
        arc = reparametrize_by_arclength(circle_curve())
        report = check_boundary_conditions(arc)
        assert report.closed
        assert not report.start_tangent_ok
        assert not report.end_tangent_ok


class TestCurveInputs:
    def test_table_ingestion(self, tmp_path):
        d = np.linspace(0, 1, 2001)
        pts = np.stack([np.cos(2 * np.pi * d), np.sin(2 * np.pi * d), 0 * d], axis=1)
        path = tmp_path / "circle.csv"
        with open(path, "w") as fh:
            fh.write("d,x,y,z\n")
            for row in np.column_stack([d, pts]):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        curve = read_curve_table(path)
        arc = reparametrize_by_arclength(curve)
        assert arc.total_length == pytest.approx(2 * np.pi, abs=1e-6)
        geo = curvature_torsion(arc, n_samples=101)
        interior = slice(5, -5)
        assert np.allclose(geo.curvature[interior], 1.0, atol=1e-5)

    def test_table_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_curve_table(path)

    def test_expression_grammar(self):
        curve = curve_from_expressions("sin(pi*d)^2", "cos(pi*d)/2", "d")
        value = curve.position(0.5)[0]
        assert value == pytest.approx([1.0, 0.0, 0.5], abs=1e-14)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(CurveExpressionError) as err:
            curve_from_expressions("exp(d)", "0", "d")
        assert err.value.component == "x"

    @pytest.mark.parametrize("scientific, fixed", [
        ("1e-3*sin(pi*d)", "0.001*sin(pi*d)"),
        ("2.5E+2*d^2", "250.0*d^2"),
        ("1e3*cos(pi*d)", "1000.0*cos(pi*d)"),
    ])
    def test_expression_scientific_notation(self, scientific, fixed):
        d = np.linspace(0.0, 1.0, 11)
        expected = curve_from_expressions(fixed, "d", "d^2").position(d)
        assert np.array_equal(
            curve_from_expressions(scientific, "d", "d^2").position(d), expected)

    @pytest.mark.parametrize("text", ["e*d", "2e*d"])
    def test_expression_rejects_bare_e(self, text):
        with pytest.raises(CurveExpressionError, match="unknown names"):
            curve_from_expressions(text, "0", "d")

    def test_expression_rejects_bad_syntax(self):
        with pytest.raises(CurveExpressionError):
            curve_from_expressions("1", "0", "d*(")


REFERENCE_EXPRESSIONS = (
    "d*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2",
    "(1-d)*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
    "(1-d)*2^(1/2)*sin(pi*d)*cos(pi*d/2)^2 + d*2^(1/2)*sin(pi*d)*sin(pi*d/2)^2",
)


def bump_expressions(eps, k):
    # the reference curve plus sin^2(pi d) sin(k pi d) bumps, written the way the
    # benchmark's input generator writes them
    return [f"{base} + ({e:.12f})*sin(pi*d)^2*sin({kk}*pi*d)"
            for base, e, kk in zip(REFERENCE_EXPRESSIONS, eps, k)]


#: the benchmark's seed-1 design curve
SEED_1_BUMP = bump_expressions((-0.007162394191, 0.019229741707, 0.009677471780), (3, 3, 2))


@pytest.mark.parametrize("expressions", [
    REFERENCE_EXPRESSIONS,
    ("cos(2*pi*d)", "sin(2*pi*d)", "1.5*d"),
    bump_expressions((0.05, -0.03, 0.02), (2, 3, 4)),
    bump_expressions((-0.08, 0.06, -0.1), (5, 1, 2)),
    bump_expressions((0.1, 0.1, -0.04), (3, 6, 1)),
], ids=["reference", "helix", "bumps-1", "bumps-2", "bumps-3"])
def test_jet_derivatives_match_sympy(expressions):
    """Orders 0-3 against sympy's lambdified derivatives, relative to each order's scale."""
    curve = curve_from_expressions(*expressions)
    d = sp.Symbol("d")
    vec = sp.Matrix([sp.sympify(text.replace("^", "**")) for text in expressions])
    x = np.linspace(0.0, 1.0, 2001)
    jet = curve.derivatives(x, 3)
    for order in range(4):
        expected = np.stack([np.broadcast_to(sp.lambdify(d, comp, modules="numpy")(x), x.shape)
                             for comp in vec], axis=1)
        error = np.max(np.abs(jet[order] - expected))
        assert error <= 1e-13 * np.max(np.abs(expected)), order
        vec = vec.diff(d)


def test_reference_curve_is_its_expressions():
    d = np.linspace(0.0, 1.0, 101)
    fresh = curve_from_expressions(*REFERENCE_EXPRESSIONS)
    assert np.array_equal(reference_curve().derivatives(d, 3), fresh.derivatives(d, 3))


@pytest.mark.parametrize("kind", ["expression", "table"])
def test_each_order_has_the_same_bits_at_every_k(kind):
    """derivatives(d, k)[j] does not depend on k >= j, so the speeds of the
    arc-length table and the r' of its chain rule are the same bits."""
    rows = np.linspace(0.0, 1.0, 401)
    curve = {"expression": reference_curve,
             "table": lambda: curve_from_table(rows, reference_curve().position(rows)),
             }[kind]()
    d = np.linspace(0.0, 1.0, 1001)
    full = curve.derivatives(d, 3)
    for k in range(4):
        jet = curve.derivatives(d, k)
        assert len(jet) == k + 1
        for j in range(k + 1):
            assert jet[j].shape == (d.size, 3)
            assert jet[j].tobytes() == full[j].tobytes(), (k, j)


@pytest.mark.parametrize("text, value", [
    ("2^(1/2)*d", SQRT2 * 0.3), ("d^-2", 1 / 0.09), ("-d^2", -0.09),
    ("d^2.0/(1+d)", 0.09 / 1.3), ("sin(pi/6)^3*d", 0.125 * 0.3),
])
def test_expression_constant_folding_and_powers(text, value):
    position = curve_from_expressions(text, "0", "d").position(0.3)
    assert position[0, 0] == pytest.approx(value, rel=1e-15)


def test_geometry_csv_output(tmp_path, capsys, reference_geometry):
    # synthesize writes the geometry it sampled; 17 significant digits read back exactly
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"version": 1, "scheme": "geometric", "curve": "reference"}')
    assert main(["synthesize", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    path = tmp_path / "geometry.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kappa,tau,flag"
    assert len(lines) == reference_geometry.time_grid.size + 1
    t, kappa, tau, flag = np.loadtxt(path, delimiter=",", skiprows=1).T
    assert t.tobytes() == reference_geometry.time_grid.tobytes()
    assert kappa.tobytes() == reference_geometry.curvature.tobytes()
    assert tau.tobytes() == (reference_geometry.torsion + 0.0).tobytes()
    assert np.array_equal(flag, reference_geometry.flags)
