"""Least-squares solvers shared by the fits and the response calibrator.

* :func:`lstsq` - linear least squares by Householder QR, the one solve
  every fit makes; :func:`inverse_gram` and :func:`rank` read the same QR.
* :func:`levenberg_marquardt` - damped Gauss-Newton for small nonlinear
  problems with analytic Jacobians, run until the parameters stop moving.
* :func:`nnls` - Lawson-Hanson nonnegative least squares.

No solve calls BLAS or LAPACK: every sum over a vector is ``math.fsum`` of
exactly rounded products (:func:`dot`), or runs in column order
(:func:`matvec`), so a fit gives the same bits whatever BLAS kernel or
thread count numpy was built with or started with.  Both iterative solvers
raise :class:`FitError` when they cannot converge, so a fit that stops
short of its minimum never reports numbers.
"""

from __future__ import annotations

import math

import numpy as np

GRADIENT_TOLERANCE = 1e-10
STEP_TOLERANCE = 1.5e-8  # relative, about sqrt(machine epsilon)
MAX_ITERATIONS = 500


class FitError(RuntimeError):
    """Data-dependent fit failure (degenerate span, no decay, no vertex,
    no convergence)."""


def dot(u, v) -> float:
    """The sum of ``u * v``, exactly rounded (``math.fsum``), so it does not
    depend on the order of the terms; NaN or inf where a term or the sum is
    not finite."""
    products = np.multiply(u, v).tolist()
    try:
        return math.fsum(products)
    except (ValueError, OverflowError):  # inf - inf, or a finite sum beyond float max
        return float(sum(products))


def norm(u) -> float:
    """Euclidean norm of a vector, from :func:`dot`."""
    return math.sqrt(dot(u, u))


def matvec(a, x) -> np.ndarray:
    """The product of the matrix ``a`` and the vector ``x``, summed over the
    columns of ``a`` in column order."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape[0])
    for column, value in zip(a.T, x):
        out += column * value
    return out


def _householder(a, b) -> list:
    """Householder QR of the (m, n) matrix ``a``, column by column in order,
    each reflection also applied to the later columns and to ``b``.

    Returns one entry per column: ``(pivot, row)``, the column's diagonal
    entry of R and the rest of its row of R followed by the entry of Q^T b
    on that row; or None for a column that is exactly zero below the
    earlier pivots' rows (a zero column, or one that the earlier columns
    span exactly), which takes no row of R.  Entries must be small enough
    that their squares neither overflow nor underflow.
    """
    columns = np.column_stack([a, b]).T.astype(float, order="C")
    rows = []
    top = 0  # the row of R that the next pivot takes
    for k, x in enumerate(columns[:-1]):
        x = x[top:]
        length = norm(x)
        if length == 0.0:
            rows.append(None)
            continue
        pivot = -math.copysign(length, x[0])
        v = x.copy()
        v[0] -= pivot
        vv = dot(v, v)
        for y in columns[k + 1:, top:]:
            y -= v * (2.0 * dot(v, y) / vv)
        rows.append((pivot, columns[k + 1:, top].copy()))
        top += 1
    return rows


def _back_substitute(rows, c) -> np.ndarray:
    """The x with R x = c for the ``_householder`` rows of R, with a zero
    component for each column that has no row."""
    x = np.zeros(len(rows))
    for k in reversed(range(len(rows))):
        if rows[k] is not None:
            pivot, row = rows[k]
            x[k] = (c[k] - dot(row[:-1], x[k + 1:])) / pivot
    return x


def lstsq(a, b) -> np.ndarray:
    """argmin ||a x - b|| by Householder QR and back substitution.

    A column that is exactly zero gets a zero component, as the
    minimum-norm solution gives it; so does one that the earlier columns
    span exactly (see ``_householder``).
    """
    rows = _householder(a, b)
    return _back_substitute(rows, [0.0 if row is None else row[1][-1] for row in rows])


def inverse_gram(a) -> np.ndarray:
    """(a^T a)^-1 as R^-1 R^-T from the QR of ``a``; all NaN where a pivot
    of R is zero."""
    rows = _householder(a, np.zeros(len(a)))
    n = len(rows)
    if any(row is None for row in rows):
        return np.full((n, n), np.nan)
    r_inv = np.column_stack([_back_substitute(rows, unit) for unit in np.eye(n)])
    return np.array([[dot(r_inv[i], r_inv[j]) for j in range(n)] for i in range(n)])


def rank(a) -> int:
    """The pivots of the QR of ``a`` above ``max(m, n)`` machine epsilons of
    the largest, the tolerance ``numpy.linalg.matrix_rank`` puts on singular
    values."""
    pivots = [abs(row[0]) for row in _householder(a, np.zeros(len(a))) if row is not None]
    tolerance = max(pivots, default=0.0) * max(np.shape(a)) * np.finfo(float).eps
    return sum(p > tolerance for p in pivots)


def _scaled_gradient(jac, residuals, column_norms) -> float:
    """Largest |cosine| between the residual vector and a Jacobian column,
    given the columns' norms.

    Zero at a stationary point of ||r||^2 and independent of the
    parameters' units; 0 for a zero residual.
    """
    r_norm = norm(residuals)
    if r_norm == 0.0:
        return 0.0
    cosines = [abs(dot(column, residuals)) / (length * r_norm)
               for column, length in zip(jac.T, column_norms) if length > 0]
    return max(cosines, default=0.0)


def levenberg_marquardt(fun, p0):
    """Minimize ||r(p)||^2 starting at ``p0``; ``fun(p)`` returns (r, J).

    Each step solves the damped Gauss-Newton system on unit-norm Jacobian
    columns (Marquardt's scaling), so the parameters' units do not matter;
    a step is taken only if it lowers the residual sum of squares, and the
    damping falls tenfold after a taken step and rises tenfold after a
    refused one.  Converged means the scaled gradient is below
    ``GRADIENT_TOLERANCE``, or no step changes the parameters any more
    while the undamped step is below ``STEP_TOLERANCE`` of each of them
    (the minimum is reached to working precision).  Returns ``(p, r, J)``
    there.

    Raises
    ------
    FitError
        If the model is not finite at ``p0``, if the steps stop while the
        undamped one is still large (the minimum runs off to where the
        model overflows), or after ``MAX_ITERATIONS`` steps.
    """
    p = np.array(p0, dtype=float)
    with np.errstate(all="ignore"):
        r, jac = fun(p)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise FitError("model is not finite at the starting point")
    cost = dot(r, r)
    damping = 1e-3
    for _ in range(MAX_ITERATIONS):
        scale = np.array([norm(column) for column in jac.T])
        if _scaled_gradient(jac, r, scale) < GRADIENT_TOLERANCE:
            return p, r, jac
        scale[scale == 0] = 1.0
        system = np.vstack([jac / scale, math.sqrt(damping) * np.eye(p.size)])
        rhs = np.concatenate([-r, np.zeros(p.size)])
        trial = p + lstsq(system, rhs) / scale
        if np.array_equal(trial, p):
            # No step lowers the cost any more: converged if the undamped
            # step would move no parameter by more than STEP_TOLERANCE.
            newton = lstsq(jac / scale, -r) / scale
            if np.all(np.abs(newton) <= STEP_TOLERANCE * np.abs(p)):
                return p, r, jac
            raise FitError(
                f"least squares did not converge: no step lowers the cost at "
                f"{p.tolist()}, but the minimum lies further by {newton.tolist()}"
            )
        with np.errstate(all="ignore"):
            r_trial, jac_trial = fun(trial)
        cost_trial = dot(r_trial, r_trial)
        if cost_trial < cost and np.all(np.isfinite(jac_trial)):
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping = max(damping / 10.0, 1e-15)
        else:
            damping *= 10.0
    raise FitError(f"least squares did not converge in {MAX_ITERATIONS} iterations")


def nnls(a, b) -> np.ndarray:
    """Lawson-Hanson nonnegative least squares: argmin ||a x - b||, x >= 0.

    A column joins the passive set only if the solve with it gives it a
    positive component, Lawson and Hanson's test; so a column that the
    passive ones span exactly, which :func:`lstsq` gives a zero component,
    stays out.

    Raises
    ------
    FitError
        After 3 solves per column, the bound Lawson and Hanson use.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    max_steps = 3 * n
    largest_column_sum = max((math.fsum(np.abs(column).tolist()) for column in a.T),
                             default=0.0)
    tolerance = 10 * np.finfo(float).eps * largest_column_sum * max(m, n)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    steps = 0

    def solve():
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise FitError(f"nonnegative least squares did not converge in {max_steps} steps")
        trial = np.zeros(n)
        trial[passive] = lstsq(a[:, passive], b)
        return trial

    while not passive.all():
        residual = b - matvec(a, x)
        gradient = np.array([dot(column, residual) for column in a.T])
        gradient[passive] = -np.inf
        while True:
            j = int(np.argmax(gradient))
            if gradient[j] <= tolerance:
                return x
            passive[j] = True
            trial = solve()
            if trial[j] > 0:
                break
            passive[j] = False
            gradient[j] = -np.inf
        while not np.all(trial[passive] > 0):
            # walk back to the first passive component that reaches zero
            blocking = passive & (trial <= 0)
            alpha = np.min(x[blocking] / (x[blocking] - trial[blocking]))
            x = x + alpha * (trial - x)
            passive &= x > tolerance
            x[~passive] = 0.0
            trial = solve()
        x = trial
    return x
