"""Linear algebra for the driven three-level system.

Everything lives in the basis {|-1>, |0>, |+1>} (in that order).  States are
plain complex ndarrays of shape (3,), operators of shape (3, 3).  Angular
frequencies are rad/us, times are us.  The stepper works in real coordinates.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)

K_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
K_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
K_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
IDENTITY3 = np.eye(3, dtype=complex)
#: the basis ket |-1>, where every transfer starts
KET_MINUS1 = np.array([1, 0, 0], dtype=complex)
for _k in (K_X, K_Y, K_Z, IDENTITY3, KET_MINUS1):
    _k.flags.writeable = False

#: orthonormal Hermitian basis, Tr(l_a l_b) = delta_ab: the diagonal units, then
#: (E_jk + E_kj) / sqrt2 and i (E_kj - E_jk) / sqrt2 for j < k
_UNITS, _OFF = np.eye(9).reshape(9, 3, 3), [(0, 1), (0, 2), (1, 2)]  # E_jk = _UNITS[3 j + k]
_HERMITIAN_BASIS = np.concatenate(
    [_UNITS[[0, 4, 8]], [(_UNITS[3 * j + k] + _UNITS[3 * k + j]) / SQRT2 for j, k in _OFF],
     [1j * (_UNITS[3 * k + j] - _UNITS[3 * j + k]) / SQRT2 for j, k in _OFF]])


def _real_lift(embed, generator, h):
    """Re(embed^H generator(h) embed), h a stack: dy/dt = generator(h) y on x = Re(embed^H y)."""
    return (embed.conj().T @ generator(h) @ embed).real


#: (embed, generator) of kets and propagators as (Re; Im): -iH is [[Im H, Re H], [-Re H, Im H]]
_KET_LIFT = np.hstack([IDENTITY3, 1j * IDENTITY3]), lambda h: -1j * h
#: of density matrices by x_a = Tr(l_a rho): -i[H, .] is -i(H (x) I - I (x) H^T) on vec(rho)
_DENSITY_LIFT = (_HERMITIAN_BASIS.reshape(9, 9).T, lambda h: -1j * (
    np.einsum("...ik,jl->...ijkl", h, IDENTITY3) - np.einsum("ik,...lj->...ijkl", IDENTITY3, h)
).reshape(h.shape[:-2] + (9, 9)))


#: Gauss-Legendre nodes of a step [t, t + h] sit at mid -+ _GAUSS_OFFSET h
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_MAGNUS_C = np.sqrt(3.0) / 12.0
_BLOCK = 64  # steps per up-sweep tree: fixes the association, so batch members round as singles
_ENTRIES, _ROWS = 2**14, 2**17  # steps x deltas x n^2 per build, steps x m per group of builds
#: _taylor8's x1..x7 and y2 (Bader, Blanes and Casas, Mathematics 7, 1174 (2019)), with
#: x3 = 2/3 substituted and x1 = 4 x2; its truncation is below 2^-53 up to 1-norm _THETA8
_THETA8, _R = 0.0686, np.sqrt(177.0)
_X2, _X3, _X4, _X5 = (1 + _R) / 528, 2.0 / 3.0, (29 * _R - 271) / 210, 11 * (_R - 1) / 840
_X6, _X7, _Y2 = 11 * (_R - 9) / 3360, (89 - _R) / 2240, (857 - 58 * _R) / 630


class IntegrationFailure(RuntimeError):
    """Propagation could not continue: H(t) is not finite at a step node (the
    test-only DOP853 driver raises it on a failed solve too)."""

    time = property(lambda self: self.args[1])  # args holds both parts, so it unpickles

    def __str__(self):
        return "%s (at t = %.6g us)" % self.args


def norm_defect(psi: np.ndarray) -> float:
    """Deviation of the 2-norm from 1 (reported, never silently repaired)."""
    return abs(float(np.linalg.norm(psi)) - 1.0)


def density_matrix_defects(rho: np.ndarray):
    """(hermiticity, trace, min-eigenvalue) diagnostics of a density matrix,
    or arrays of them over the leading axes of a stack (..., 3, 3)."""
    adjoint = rho.conj().swapaxes(-1, -2)
    herm = np.linalg.norm(rho - adjoint, axis=(-2, -1))
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min(axis=-1)
    return herm, tr, min_eig


def _step_grid(schedule, times):
    """Step boundaries for samples at ``times``: the samples plus the schedule
    knots between them, less knots within 1e-12 of the span of a sample."""
    times = np.asarray(times, dtype=float)
    t0, t1 = times[0], times[-1]
    if t1 <= t0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"need strictly increasing times, got [{t0}, ..., {t1}]")
    span = schedule.time_span
    if t0 < span[0] - 1e-12 or t1 > span[1] + 1e-12:
        raise ValueError(f"[{t0}, {t1}] outside schedule support {span}")
    knots = np.asarray(schedule.time, dtype=float)
    knots = knots[(knots > t0) & (knots < t1)]
    after = np.searchsorted(times, knots)
    gap = np.minimum(knots - times[after - 1], times[after] - knots)
    return np.union1d(times, knots[gap > 1e-12 * (t1 - t0)])


def _integrate(rhs, y0, t0, t1, rtol, atol, t_eval=None):
    """Adaptive DOP853 solve: the Magnus stepper's oracle in the tests."""
    from scipy.integrate import solve_ivp  # imported here: no program path solves with it
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise IntegrationFailure(sol.message, float(sol.t[-1]) if sol.t.size else t0)
    return sol


def _taylor8(a):
    """exp(a) - I to degree 8 for a stack: a + y2 a2 + (x3 a2 + a4)(x4 I + x5 a + x6 a2
    + x7 a4), a2 = a^2 and a4 = x2 b, b = a2 (a2 + 4 a): three matmuls."""
    n, a2 = a.shape[-1], a @ a
    b = a2 @ (4.0 * a + a2)
    left = b + _X3 / _X2 * a2
    right = np.multiply(b, _X2 * _X2 * _X7)  # x2 moved into the right factor
    right += np.multiply(a2, _X2 * _X6, out=b)
    right += np.multiply(a, _X2 * _X5, out=b)
    right.reshape(right.shape[:-2] + (n * n,))[..., ::n + 1] += _X2 * _X4
    out = np.matmul(left, right, out=b)
    out += np.multiply(a2, _Y2, out=left)
    out += a
    return out


def _expm(a):
    """exp(a) for a stack (..., n, n), each matrix by its own 1-norm: scaled by 2^-s to
    1-norm <= _THETA8 (s = 0 at or below it), X = :func:`_taylor8`, s squarings of I + X
    as X <- 2 X + X X, and the identity added once, last; so no result depends on its
    batch.  n max|a_ij| bounds every 1-norm: below _THETA8, the norms are skipped."""
    n = a.shape[-1]
    if n * np.abs(a).max(initial=0.0) < _THETA8 * (1 - 2**-40):  # margin for the sums' rounding
        out = _taylor8(a)
    else:
        norms = np.einsum("...ij->...j", np.abs(a)).max(axis=-1)  # sum(axis=-2) is 4x slower here
        mantissa, squarings = np.frexp(norms / _THETA8)
        squarings = np.maximum(squarings - (mantissa == 0.5), 0)  # ceil(log2(norm / theta_8))
        out = _taylor8(a * np.ldexp(1.0, -squarings)[..., None, None])  # exact: powers of 2
        for i in range(np.max(squarings, initial=0)):
            x = out[squarings > i]
            out[squarings > i] = 2.0 * x + x @ x
    out.reshape(out.shape[:-2] + (n * n,))[..., ::n + 1] += 1.0
    return out


def _magnus_terms(schedule, grid, dissipator=None):
    """(embed, w, t0, t1): at detuning delta, step k's Magnus exponent, flattened, is
    w[k] @ (t0 + delta t1).  H = sum_i f_i B_i (``fields``, ``_BASIS``) lifts to
    R = sum_i f_i G_i + E, E = delta lift(K_z) + D, so A = h/2 (R1 + R2) + c h^2 [R2, R1]
    (c = sqrt(3)/12) is the row w = [h/2 (F1 + F2), h, c h^2 (F2_i F1_j - F2_j F1_i)_{i<j},
    c h^2 (F2 - F1)] of the Gauss-node fields times the rows [G_i; E; [G_i, G_j]; [G_i, E]]."""
    dt = np.diff(grid)
    nodes = 0.5 * (grid[1:] + grid[:-1]) + np.multiply.outer([-_GAUSS_OFFSET, _GAUSS_OFFSET], dt)
    fields = schedule.fields(nodes.ravel()).reshape(2, dt.size, -1)
    finite = np.isfinite(fields).all(axis=2)
    if not finite.all():
        raise IntegrationFailure("non-finite Hamiltonian", float(nodes[~finite].min()))
    embed, generator = _KET_LIFT if dissipator is None else _DENSITY_LIFT
    g = _real_lift(embed, generator, schedule._BASIS)
    fixed = 0 * g[0] if dissipator is None else (embed.conj().T @ dissipator @ embed).real
    i, j = np.triu_indices(len(g), 1)
    shift, pairs = _real_lift(embed, generator, K_Z), g[i] @ g[j] - g[j] @ g[i]
    t0 = np.concatenate([g, [fixed], pairs, g @ fixed - fixed @ g])
    t1 = np.concatenate([0 * g, [shift], 0 * pairs, g @ shift - shift @ g])
    (f1, f2), h, ch2 = fields, dt[:, None], _MAGNUS_C * dt[:, None] ** 2
    w = np.concatenate([0.5 * h * (f1 + f2), h, ch2 * (f2[:, i] * f1[:, j] - f2[:, j] * f1[:, i]),
                        ch2 * (f2 - f1)], axis=1)
    return embed, w, t0.reshape(len(w[0]), -1), t1.reshape(len(w[0]), -1)


def _propagate(schedule, y0, times, deltas, dissipator=None, grid=None):
    """Samples of Y solving dY/dt = -i K(t) Y from Y(times[0]) = y0.

    K = H(t) + delta K_z on a ket (3,) or a matrix (3, 3), or with a constant
    Hermiticity-preserving ``dissipator`` D (9, 9), -i[K, rho] + D vec(rho) on a
    density matrix, stepped in real coordinates by one Magnus step exp(A)
    (:func:`_magnus_terms`, :func:`_expm`) per interval of :func:`_step_grid`, so
    each step lies in one cubic piece of the schedule.  The rows w are formed per group
    of whole builds, about _ROWS entries.  Each (block of _BLOCK steps, delta) gets its A
    from one (steps x m) @ (m x n^2) product (identity steps fill the last block
    up, and the last sample follows them) and its product from a pairwise up-sweep;
    a short loop carries the state from block to block.  A build that holds samples
    sweeps down on states while every sample ends a node: an odd child takes its
    parent's end state, an even child its node times the state entering the parent.
    The same arithmetic in any batch, build or group of consecutive blocks, so the
    same bits.  Only the sample rows are stored, (len(deltas), len(times)) + y0.shape,
    never renormalized.  A caller that needs the step count passes ``grid``.
    """
    times = np.asarray(times, dtype=float)
    grid = _step_grid(schedule, times) if grid is None else grid
    embed, f = (_KET_LIFT if dissipator is None else _DENSITY_LIFT)[0], len(schedule._BASIS)
    n, steps = embed.shape[1], len(grid) - 1
    chunk = max(1, _ENTRIES // (_BLOCK * n * n))  # deltas per build
    build = _BLOCK * max(1, chunk // max(1, len(deltas)))  # steps per build
    group = build * max(1, _ROWS // (build * (f + 1) * (f + 2) // 2))  # m = (f + 1)(f + 2) / 2
    _, w, t0, t1 = _magnus_terms(schedule, grid[:group + 1], dissipator)
    start = np.reshape(y0, (embed.shape[0], -1))
    state = np.repeat((embed.conj().T @ start).real[None], len(deltas), axis=0)
    # steps to each later sample; the last one counts the identity steps that fill up its block
    rows = np.append(np.searchsorted(grid, times[1:-1]), steps - steps % -_BLOCK)
    samples = np.empty((len(deltas), times.size) + start.shape, dtype=complex)
    samples[:, 0] = start
    for lo in range(0, steps, build):
        if lo % group == 0:  # the rows of the next group of builds; identity steps fill up
            if lo:  # the first group's came before the samples, so their peaks do not add
                del w, rows_w  # and the last group's go before the next group's are formed
                _, w, t0, t1 = _magnus_terms(schedule, grid[lo:lo + group + 1], dissipator)
            w = np.concatenate([w, np.zeros((-len(w) % _BLOCK, w.shape[1]))])
        rows_w = w[lo % group:lo % group + build].reshape(-1, 1, _BLOCK, w.shape[1])
        taken = np.flatnonzero((rows > lo) & (rows <= lo + build))
        block, ends = np.divmod(rows[taken] - lo - 1, _BLOCK)
        ends += 1  # steps into its block up to each sample
        every = _BLOCK | int(np.bitwise_or.reduce(ends, initial=0))
        fold = (every & -every).bit_length() - 1  # 2^fold divides every end
        for d in range(0, len(deltas), chunk):
            table = t0 + np.multiply.outer(deltas[d:d + chunk], t1)
            levels = [_expm((rows_w @ table).swapaxes(1, 2).reshape(len(rows_w), _BLOCK, -1, n, n))]
            while levels[-1].shape[1] > 1:  # node i of level k: steps i 2^k .. (i + 1) 2^k - 1
                levels.append(levels[-1][:, 1::2] @ levels[-1][:, ::2])
            starts = np.empty((len(rows_w) + 1,) + state[d:d + chunk].shape)  # each block's start
            starts[0] = state[d:d + chunk]
            for j, product in enumerate(levels.pop()[:, 0]):
                np.matmul(product, starts[j], out=starts[j + 1])
            state[d:d + chunk] = starts[-1]
            if not taken.size:
                continue
            out = starts[1:, None]  # each node's end state, from the root down
            for p in reversed(levels[fold:]):
                enter = np.concatenate([starts[:-1, None], out[:, :-1]], axis=1)
                out = np.repeat(out, 2, axis=1)
                out[:, ::2] = p[:, ::2] @ enter
            reached = out[block, (ends >> fold) - 1].swapaxes(0, 1)
            samples.real[d:d + chunk, taken + 1] = embed.real @ reached
            samples.imag[d:d + chunk, taken + 1] = embed.imag @ reached
    return samples.reshape(samples.shape[:2] + np.shape(y0))


def propagate_state(schedule, state, times, delta=0.0):
    """State samples at the given times (times[0] is the start) under H(t) + delta K_z.

    ``delta`` may be a 1-D array: the result then has a leading axis over it,
    shape (len(delta), len(times), 3), from one stepper call.
    """
    samples = _propagate(schedule, state, times, np.atleast_1d(delta))
    return samples if np.ndim(delta) else samples[0]


def propagate_operator(schedule, times):
    """Propagator samples U(t, times[0]) as an (n, 3, 3) array."""
    return _propagate(schedule, IDENTITY3, times, [0.0])[0]


def toggling_frame(schedule, n_samples):
    """Uniform grid over the schedule and the samples of U^dag K_z U on it: the
    toggling-frame noise operator, the integrand of m(t) = int U^dag K_z U dt'."""
    times = np.linspace(*schedule.time_span, n_samples)
    rows = propagate_operator(schedule, times)[:, [0, 2]]  # K_z = diag(1, 0, -1): U's rows 0, 2
    outer = rows.conj()[..., :, None] * rows[..., None, :]
    return times, outer[:, 0] - outer[:, 1]
