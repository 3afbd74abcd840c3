"""Piecewise-cubic interpolation and Simpson quadrature in numpy, along axis 0.

The formulas are scipy's (``CubicHermiteSpline``, ``PchipInterpolator``,
``cumulative_simpson``, ``simpson``); the tests keep scipy as their oracle.
"""

from __future__ import annotations

import numpy as np


class CubicHermite:
    """The piecewise cubic through (x, y), y (n, m), with the given knot slopes.

    Piece i is stored as its power-basis cubic in t - x[i], knots last, so
    that evaluation runs along the points; the end pieces extend past x.
    """

    def __init__(self, x, y, slopes):
        self.x = np.asarray(x, dtype=float)
        h = np.diff(self.x)[:, None]
        secant = np.diff(y, axis=0) / h
        bend = (slopes[:-1] + slopes[1:] - 2 * secant) / h
        self.coeffs = np.stack([bend / h, (secant - slopes[:-1]) / h - bend,
                                slopes[:-1], y[:-1]]).transpose(0, 2, 1).copy()

    def __call__(self, t, order=0):
        """Values and derivatives up to ``order`` <= 3 at a point or an (n,)
        array t: a list of (m,) or (n, m) arrays."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.x[1:-1], t, side="right")  # the piece, 0 .. n - 2
        u = t - self.x[i]
        a, b, c, d = np.take(self.coeffs, i, axis=-1)
        # nested Horner forms, so that numpy reuses the temporaries in place
        jet = [((a * u + b) * u + c) * u + d]
        if order:
            jet += [(3 * a * u + 2 * b) * u + c, 6 * a * u + 2 * b, 6 * a][:order]
        return [value.T for value in jet]


def pchip_slopes(x, y):
    """Knot slopes of the PCHIP interpolant through (x, y), y (n, m), n >= 3.

    Inside, the weighted harmonic mean of the two secants, or 0 where they
    differ in sign or one vanishes; at each end, a three-point estimate,
    zeroed or clipped to 3 secants so that it keeps the data's shape.
    """
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    ends = []
    for h0, h1, m0, m1 in ((h[0], h[1], m[0], m[1]), (h[-1], h[-2], m[-1], m[-2])):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        clip = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        ends.append(np.where(np.sign(d) != np.sign(m0), 0.0, np.where(clip, 3.0 * m0, d)))
    return np.vstack([ends[0], inner, ends[1]])


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
