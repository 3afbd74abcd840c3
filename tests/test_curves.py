import numpy as np
import pytest
import sympy as sp

from geodrive.curves import (CurveExpressionError, DegenerateCurveError,
                             ParametricCurve, check_boundary_conditions,
                             curvature_torsion, curve_from_expressions,
                             curve_from_position, curve_from_sympy, curve_from_table,
                             read_curve_table, reference_curve,
                             reparametrize_by_arclength, write_geometry_csv)
from geodrive.schedules import reconstruct_curve, synthesize

SQRT2 = np.sqrt(2.0)


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
        tangents = arc.tangent(np.linspace(0, 3, 7))
        assert np.allclose(tangents, [0, 0, 1], atol=1e-10)

    def test_unit_speed(self, reference_arc):
        grid = np.linspace(0, reference_arc.total_length, 500)
        speeds = np.linalg.norm(reference_arc.tangent(grid), axis=1)
        assert np.max(np.abs(speeds - 1)) <= 1e-8

    def test_acceleration_orthogonal_to_tangent(self, reference_arc):
        grid = np.linspace(0, reference_arc.total_length, 500)
        dots = np.sum(reference_arc.tangent(grid) * reference_arc.second_derivative(grid), axis=1)
        assert np.max(np.abs(dots)) <= 1e-6

    def test_idempotent(self, reference_arc):
        again = reparametrize_by_arclength(reference_arc)
        assert abs(again.total_length - reference_arc.total_length) <= 1e-10
        grid = np.linspace(0, reference_arc.total_length, 201)
        assert np.array_equal(again.position(grid), reference_arc.position(grid))

    def test_inversion_on_reference_grid(self):
        # the 2001-point grid of curvature_torsion; residuals against an
        # independent 20-point Gauss-Legendre quadrature between the roots
        reference = reference_curve()
        speed_calls = []

        def counted(dv, first=reference.derivatives[0]):
            speed_calls.append(np.size(dv))
            return first(dv)

        curve = ParametricCurve(position=reference.position, name="reference",
                                derivatives=(counted,) + reference.derivatives[1:])
        arc = reparametrize_by_arclength(curve)
        grid = np.linspace(0.0, arc.total_length, 2001)
        speed_calls.clear()
        roots = arc.parameter_map(grid)
        # one speed evaluation for each residual and one for each Newton step
        newton_steps = len(speed_calls) // 2
        assert newton_steps <= 5  # 43 when converged points were bisected away
        nodes, weights = np.polynomial.legendre.leggauss(20)
        lo, hi = np.concatenate([[0.0], roots[:-1]]), roots
        points = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * nodes
        speeds = np.linalg.norm(reference.derivatives[0](points.ravel()), axis=1)
        lengths = np.cumsum((speeds.reshape(-1, 20) * weights).sum(axis=1) * 0.5 * (hi - lo))
        assert np.max(np.abs(lengths - grid)) <= 1e-12

    def test_degenerate_curve_rejected(self):
        point = curve_from_expressions("0", "0", "0", name="point")
        with pytest.raises(DegenerateCurveError):
            reparametrize_by_arclength(point)

    def test_non_finite_curve_rejected(self):
        def bad(d):
            d = np.atleast_1d(d)
            out = np.stack([d, d, d], axis=1)
            out[d > 0.5] = np.nan
            return out

        with pytest.raises(DegenerateCurveError):
            reparametrize_by_arclength(curve_from_position(bad))

    def test_small_n_quad_rejected(self):
        with pytest.raises(ValueError):
            reparametrize_by_arclength(circle_curve(), n_quad=8)


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

    def test_matches_finite_differences(self, reference_arc):
        # independent cross-check: differentiate the tangent numerically
        arc = reference_arc
        h = 1e-4 * arc.total_length
        grid = np.linspace(5 * h, arc.total_length - 5 * h, 101)
        geo_t = arc.tangent

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
        kappa = np.linalg.norm(arc.second_derivative(grid), axis=1)
        cross_a = np.cross(rdot, arc.second_derivative(grid))
        tau = np.sum(cross_a * arc.third_derivative(grid), axis=1) / np.sum(cross_a**2, axis=1)
        assert np.max(np.abs(kappa_fd - kappa) / kappa) <= 1e-5
        scale = np.maximum(np.abs(tau), 1.0)
        assert np.max(np.abs(tau_fd - tau) / scale) <= 1e-5


class TestJet:
    @staticmethod
    def helix_arc(kind):
        d = np.linspace(0.0, 1.0, 401)
        u = 2 * np.pi * d
        pts = np.stack([np.cos(u), np.sin(u), 1.5 * d], axis=1)
        if kind == "sympy":
            return reparametrize_by_arclength(helix_curve())
        if kind == "table":
            return reparametrize_by_arclength(curve_from_table(d, pts))
        if kind == "finite-difference":
            return reparametrize_by_arclength(curve_from_position(
                lambda dv: np.stack([np.cos(2 * np.pi * dv), np.sin(2 * np.pi * dv),
                                     1.5 * dv], axis=1)))
        arc = reparametrize_by_arclength(helix_curve())
        return reconstruct_curve(synthesize(curvature_torsion(arc, n_samples=501)))

    @pytest.mark.parametrize("kind", ["sympy", "table", "finite-difference", "reconstructed"])
    def test_components_equal_accessors(self, kind):
        arc = self.helix_arc(kind)
        grid = np.linspace(0.0, arc.total_length, 37)
        jet = arc.jet(grid)
        accessors = (arc.position, arc.tangent, arc.second_derivative, arc.third_derivative)
        assert len(jet) == 4
        for value, accessor in zip(jet, accessors):
            assert value.shape == (grid.size, 3)
            assert np.array_equal(value, accessor(grid))

    def test_one_inversion_per_geometry_call(self):
        # the third d-derivative of the source is evaluated once per jet
        base = helix_curve()
        calls = []

        def third(dv):
            calls.append(np.size(dv))
            return base.derivatives[2](dv)

        arc = reparametrize_by_arclength(
            ParametricCurve(base.position, base.derivatives[:2] + (third,), name="counted"))
        calls.clear()
        curvature_torsion(arc, n_samples=101)
        assert calls == [101]
        calls.clear()
        check_boundary_conditions(arc)
        assert calls == [2]


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

    def test_position_only_fallback(self):
        def pos(d):
            d = np.atleast_1d(d)
            return np.stack([np.cos(2 * np.pi * d), np.sin(2 * np.pi * d),
                             np.zeros_like(d)], axis=1)

        curve = curve_from_position(pos, name="circle-fd")
        arc = reparametrize_by_arclength(curve)
        geo = curvature_torsion(arc, n_samples=101)
        assert np.allclose(geo.curvature, 1.0, atol=1e-5)
        assert np.allclose(geo.torsion, 0.0, atol=1e-4)

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

    def test_sympy_curve_derivatives(self, monkeypatch):
        d = sp.Symbol("d")
        s = sp.sqrt(2) * sp.sin(sp.pi * d)
        exprs = [(1 - d) * s * sp.cos(sp.pi * d / 2) ** 2, s / 3, 3 * d]  # z'' is constant 0
        diffs = []
        diff = sp.diff
        monkeypatch.setattr(sp, "diff", lambda *args: diffs.append(args) or diff(*args))
        curve = curve_from_sympy(exprs, max_order=3)
        assert len(diffs) == 3
        monkeypatch.undo()
        x = np.linspace(0.0, 1.0, 2001)
        vec = sp.Matrix(exprs)
        for evaluate in (curve.position, *curve.derivatives):
            expected = np.stack([np.broadcast_to(sp.lambdify(d, comp, modules="numpy")(x), x.shape)
                                 for comp in vec], axis=1)
            assert np.array_equal(evaluate(x), expected)
            vec = vec.diff(d)


def test_geometry_csv_output(tmp_path, reference_geometry):
    path = tmp_path / "geometry.csv"
    write_geometry_csv(reference_geometry, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kappa,tau,flag"
    assert len(lines) == reference_geometry.time_grid.size + 1
