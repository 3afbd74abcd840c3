"""Piecewise-polynomial interpolation and Simpson quadrature in numpy, along axis 0.

The formulas are scipy's (``CubicHermiteSpline``, ``make_interp_spline(k=5)``,
``cumulative_simpson``, ``simpson``), and the tests keep scipy as their oracle;
the schedules' cubic Hermite interpolant takes the fourth-order finite-difference
slopes of :func:`centred_slopes`.
"""

from __future__ import annotations

import math

import numpy as np


class PiecewisePolynomial:
    """Polynomial pieces between the breakpoints x: ``coeffs`` (degree + 1, m,
    len(x) - 1) holds piece i in powers of t - x[i], highest first and pieces
    last, so that evaluation runs along the points; the end pieces extend past x."""

    def __init__(self, x, coeffs):
        self.x = np.asarray(x, dtype=float)
        self.coeffs = coeffs

    def __call__(self, t, order=0):
        """Values and derivatives up to ``order`` at a point or an (n,) array t:
        a list of (m,) or (n, m) arrays."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.x[1:-1], t, side="right")  # the piece, 0 .. len(x) - 2
        u = t - self.x[i]
        c = np.take(self.coeffs, i, axis=-1)
        degree = len(c) - 1
        jet = []
        for nu in range(order + 1):
            # Horner's rule on the nu-th derivative (u^p gives p!/(p - nu)! u^(p - nu)),
            # in place: fresh temporaries per step cost page faults on large t
            value = math.perm(degree, nu) * c[0]
            for j in range(1, degree + 1 - nu):
                value *= u
                value += math.perm(degree - j, nu) * c[j] if nu else c[j]
            jet.append(value.T)
        return jet


class CubicHermite(PiecewisePolynomial):
    """The piecewise cubic through (x, y), y (n, m), with the given knot slopes."""

    def __init__(self, x, y, slopes):
        h = np.diff(x)[:, None]
        secant = np.diff(y, axis=0) / h
        bend = (slopes[:-1] + slopes[1:] - 2 * secant) / h
        super().__init__(x, np.stack([bend / h, (secant - slopes[:-1]) / h - bend,
                                      slopes[:-1], y[:-1]]).transpose(0, 2, 1).copy())


def _bspline_bases(t, x, cell, degree):
    """The B-splines nonzero at x, t[cell] <= x < t[cell + 1], for every degree
    q <= ``degree``: (len(x), q + 1) arrays of B_{cell - q .. cell, q}(x), by the
    Cox-de Boor recurrence."""
    bases = [np.ones((x.size, 1))]
    for q in range(1, degree + 1):
        left = t[cell[:, None] + np.arange(1 - q, 1)]
        right = t[cell[:, None] + np.arange(1, q + 1)]
        weight = bases[-1] / (right - left)
        basis = np.zeros((x.size, q + 1))
        basis[:, :-1] = weight * (right - x[:, None])
        basis[:, 1:] += weight * (x[:, None] - left)
        bases.append(basis)
    return bases


def _solve_profile(rows, first, rhs):
    """Solve A c = rhs, rhs (n, m), where row r of A is rows[r] from column first[r]
    on and 0 elsewhere, first nondecreasing, by elimination without pivoting within
    these windows: stable for the totally positive B-spline collocation matrices
    (de Boor, *A Practical Guide to Splines*, ch. XIII).  In Python floats, which
    beat per-row numpy calls several times over at these sizes."""
    n, w = rows.shape
    a, cols, first = rows.tolist(), np.asarray(rhs, dtype=float).T.tolist(), first.tolist()
    for r in range(n):
        pivot, f = a[r], first[r]
        for i in range(r + 1, n):
            if first[i] > r:  # the rows below with an entry in column r are done
                break
            row, g = a[i], first[i]
            factor = row[r - g] / pivot[r - f]
            for c in range(r + 1, f + w):
                row[c - g] -= factor * pivot[c - f]
            for col in cols:
                col[i] -= factor * col[r]
    for r in range(n - 1, -1, -1):
        row, f = a[r], first[r]
        for col in cols:
            value = col[r]
            for c in range(r + 1, f + w):
                value -= row[c - f] * col[c]
            col[r] = value / row[r - f]
    return np.array(cols).T


def _quintic_knots(x):
    """scipy's not-a-knot knots for degree 5: each end six-fold, and inside
    the samples but the first and last three."""
    return np.concatenate([np.repeat(x[0], 6), x[3:-3], np.repeat(x[-1], 6)])


def quintic_spline(x, y) -> PiecewisePolynomial:
    """The interpolating quintic spline through (x, y), y (n, m), n >= 6, of scipy's
    ``make_interp_spline(x, y, k=5)``: each piece holds the Taylor coefficients at
    its left breakpoint, from the B-spline coefficients of the spline's derivatives."""
    x = np.asarray(x, dtype=float)
    n, k, t = x.size, 5, _quintic_knots(x)
    cell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    c = _solve_profile(_bspline_bases(t, x, cell, k)[k], cell - k, y)
    breaks = np.concatenate([x[:1], x[3:-3], x[-1:]])
    cell = np.arange(breaks.size - 1) + k
    bases = _bspline_bases(t, breaks[:-1], cell, k)
    taylor = []
    for nu in range(k + 1):  # c: coefficients nu .. n - 1 of the nu-th derivative, degree q
        q = k - nu
        taylor.append(np.einsum("pj,pjm->mp", bases[q], c[cell[:, None] - k + np.arange(q + 1)])
                      / math.factorial(nu))
        if q:
            c = q * np.diff(c, axis=0) / (t[nu + 1 + q:n + q] - t[nu + 1:n])[:, None]
    return PiecewisePolynomial(breaks, np.stack(taylor[::-1]))


def centred_slopes(x, y):
    """Knot slopes of fourth order for y (n, m), n >= 5, on the uniform grid x:
    centred 5-point differences inside, one-sided 5-point ones at the two points
    on each end.  Each is a sum of paired differences, so constant data gives
    exactly 0; with these slopes the cubic Hermite interpolant is O(h^4)."""
    h12 = 12 * (x[-1] - x[0]) / (len(x) - 1)
    s = np.empty_like(y)
    s[2:-2] = ((y[:-4] - y[4:]) + 8 * (y[3:-1] - y[1:-3])) / h12
    for end, inward in ((0, 1), (-1, -1)):  # d_k: y k points in from the end, minus y at the end
        d1, d2, d3, d4 = (y[end + k * inward] - y[end] for k in (1, 2, 3, 4))
        s[end] = inward * (48 * d1 - 36 * d2 + 16 * d3 - 3 * d4) / h12
        s[end + inward] = inward * (-10 * d1 + 18 * d2 - 6 * d3 + d4) / h12
    return s


def cumulative_simpson(y, x):
    """Running Simpson integral of the samples y over x, 0 at x[0].

    Paired panels: over points j, j + 1, j + 2 the first interval takes
    h/12 (5, 8, -1) and the second h/12 (-1, 8, 5), h the interval's own
    width; with an odd number of intervals the last one takes the second rule.
    """
    y = np.asarray(y)
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    forward = h[:-1] * (5 * y[:-2] + 8 * y[1:-1] - y[2:]) / 12
    backward = h[1:] * (-y[:-2] + 8 * y[1:-1] + 5 * y[2:]) / 12
    pieces = np.empty(y[1:].shape, np.result_type(h, y))
    pieces[:-1:2], pieces[1::2], pieces[-1] = forward[::2], backward[::2], backward[-1]
    return np.concatenate([np.zeros_like(pieces[:1]), np.cumsum(pieces, axis=0)])


def simpson(y, x):
    """Composite Simpson integral of y over x: h/3 (1, 4, 1) per pair of
    intervals, the end value of :func:`cumulative_simpson`."""
    return cumulative_simpson(y, x)[-1]
