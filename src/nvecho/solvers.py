"""Least-squares solvers shared by the fits and the response calibrator.

* :func:`lstsq` - linear least squares by Householder QR, the one solve
  every fit makes; :func:`inverse_gram` and :func:`rank` read the same QR.
* :func:`levenberg_marquardt` - damped Gauss-Newton for small nonlinear
  problems with analytic Jacobians, run until the parameters stop moving.
* :func:`nnls` - Lawson-Hanson nonnegative least squares.

Every solver works on Python floats: a vector is a sequence of numbers, a
matrix a sequence of its rows, and each result a float, a list or a list
of rows, so a fit imports no numpy.  No solve calls BLAS or LAPACK: every
sum over a vector is ``math.fsum`` of exactly rounded products
(:func:`dot`), or runs in column order (:func:`matvec`), so a fit gives the
same bits whatever BLAS kernel, thread count or SIMD level numpy would have
run.  Both iterative solvers raise :class:`FitError` when they cannot
converge, so a fit that stops short of its minimum never reports numbers.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import chain

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
    try:
        return math.fsum(map(operator.mul, u, v))
    except (ValueError, OverflowError):  # inf - inf, or a finite sum beyond float max
        return float(sum(map(operator.mul, u, v)))


def norm(u) -> float:
    """Euclidean norm of a vector, from :func:`dot`; where the squares of
    finite entries sum past float max, from ``u`` scaled by its largest
    entry, so a finite sum keeps its bits."""
    total = dot(u, u)
    if total == math.inf:
        scale = max(abs(v) for v in u)
        if math.isfinite(scale):
            scaled = [v / scale for v in u]
            return scale * math.sqrt(dot(scaled, scaled))
    return math.sqrt(total)


def matvec(a, x) -> list:
    """The product of the matrix ``a`` and the vector ``x``, each entry
    summed over the columns of ``a`` in column order."""
    out = []
    for row in a:
        total = 0.0
        for entry, value in zip(row, x):
            total += entry * value
        out.append(total)
    return out


def _columns(a) -> list:
    """The columns of the matrix ``a``, each a list of floats."""
    return [[float(v) for v in column] for column in zip(*a)]


def _householder(columns, b) -> list:
    """Householder QR of the matrix of ``columns``, column by column in
    order, each reflection also applied to the later columns and to ``b``.

    Returns one entry per column: ``(pivot, row)``, the column's diagonal
    entry of R and the rest of its row of R followed by the entry of Q^T b
    on that row; or None for a column that is exactly zero below the
    earlier pivots' rows (a zero column, or one that the earlier columns
    span exactly), which takes no row of R.  Entries must be small enough
    that their squares neither overflow nor underflow.
    """
    columns = [list(column) for column in columns] + [[float(v) for v in b]]
    rows = []
    top = 0  # the row of R that the next pivot takes
    for k in range(len(columns) - 1):
        v = columns[k][top:]
        length = norm(v)
        if length == 0.0:
            rows.append(None)
            continue
        pivot = -math.copysign(length, v[0])
        v[0] -= pivot
        vv = dot(v, v)
        for y in columns[k + 1:]:
            s = 2.0 * dot(v, y[top:]) / vv
            y[top:] = [yi - vi * s for yi, vi in zip(y[top:], v)]
        rows.append((pivot, [y[top] for y in columns[k + 1:]]))
        top += 1
    return rows


def _back_substitute(rows, c) -> list:
    """The x with R x = c for the ``_householder`` rows of R, with a zero
    component for each column that has no row."""
    x = [0.0] * len(rows)
    for k in reversed(range(len(rows))):
        if rows[k] is not None:
            pivot, row = rows[k]
            x[k] = (c[k] - dot(row[:-1], x[k + 1:])) / pivot
    return x


def _solve(columns, b) -> list:
    """argmin ||a x - b|| for the matrix ``a`` of ``columns``."""
    rows = _householder(columns, b)
    return _back_substitute(rows, [0.0 if row is None else row[1][-1] for row in rows])


def lstsq(a, b) -> list:
    """argmin ||a x - b|| by Householder QR and back substitution.

    A column that is exactly zero gets a zero component, as the
    minimum-norm solution gives it; so does one that the earlier columns
    span exactly (see ``_householder``).
    """
    return _solve(_columns(a), b)


def inverse_gram(a) -> list:
    """(a^T a)^-1 as R^-1 R^-T from the QR of ``a``, a list of rows; all NaN
    where a pivot of R is zero."""
    rows = _householder(_columns(a), [0.0] * len(a))
    n = len(rows)
    if any(row is None for row in rows):
        return [[math.nan] * n for _ in range(n)]
    r_inv = list(zip(*(_back_substitute(rows, [float(i == j) for i in range(n)])
                       for j in range(n))))
    return [[dot(r_inv[i], r_inv[j]) for j in range(n)] for i in range(n)]


def rank(a) -> int:
    """The pivots of the QR of ``a`` above ``max(m, n)`` machine epsilons of
    the largest, the tolerance ``numpy.linalg.matrix_rank`` puts on singular
    values."""
    columns = _columns(a)
    pivots = [abs(row[0]) for row in _householder(columns, [0.0] * len(a)) if row is not None]
    tolerance = max(pivots, default=0.0) * max(len(a), len(columns)) * sys.float_info.epsilon
    return sum(p > tolerance for p in pivots)


def _scaled_gradient(columns, residuals, column_norms) -> float:
    """Largest |cosine| between the residual vector and a Jacobian column,
    given the columns' norms.

    Zero at a stationary point of ||r||^2 and independent of the
    parameters' units; 0 for a zero residual.
    """
    r_norm = norm(residuals)
    if r_norm == 0.0:
        return 0.0
    cosines = [abs(dot(column, residuals)) / (length * r_norm)
               for column, length in zip(columns, column_norms) if length > 0]
    return max(cosines, default=0.0)


def _evaluate(fun, p):
    """``fun(p)`` as ``(cost, r, J, the columns of J)``, r a list of floats
    and cost its sum of squares; None where r or J is not finite, or where
    ``fun`` divides by zero or overflows (Python floats raise there)."""
    try:
        r, jac = fun(p)
    except (ZeroDivisionError, OverflowError):
        return None
    r, columns = [float(v) for v in r], _columns(jac)
    if not all(map(math.isfinite, chain(r, *columns))):
        return None
    return dot(r, r), r, jac, columns


def levenberg_marquardt(fun, p0):
    """Minimize ||r(p)||^2 starting at ``p0``; ``fun(p)`` returns (r, J), the
    m residuals and the m rows of their Jacobian.

    Each step solves the damped Gauss-Newton system on unit-norm Jacobian
    columns (Marquardt's scaling), so the parameters' units do not matter;
    a step is taken only if it lowers the residual sum of squares and the
    model is finite there, and the damping falls tenfold after a taken step
    and rises tenfold after a refused one.  A point where ``fun`` raises
    ZeroDivisionError or OverflowError (Python floats raise where the model
    divides by zero or overflows) counts as one where it is not finite.
    Converged means the scaled gradient is below ``GRADIENT_TOLERANCE``, or
    no step changes the parameters any more while the undamped step is
    below ``STEP_TOLERANCE`` of each of them (the minimum is reached to
    working precision).  Returns ``(p, r, J)`` there, p and r lists of
    floats and J as ``fun`` returned it.

    Raises
    ------
    FitError
        If the model is not finite at ``p0``, if the steps stop while the
        undamped one is still large (the minimum runs off to where the
        model overflows), or after ``MAX_ITERATIONS`` steps.
    """
    p = [float(v) for v in p0]
    current = _evaluate(fun, p)
    if current is None:
        raise FitError("model is not finite at the starting point")
    cost, r, jac, columns = current
    damping = 1e-3
    n = len(p)
    for _ in range(MAX_ITERATIONS):
        scale = [norm(column) for column in columns]
        if _scaled_gradient(columns, r, scale) < GRADIENT_TOLERANCE:
            return p, r, jac
        scale = [s if s != 0 else 1.0 for s in scale]
        scaled = [[v / s for v in column] for column, s in zip(columns, scale)]
        root = math.sqrt(damping)
        system = [column + [root if i == j else 0.0 for i in range(n)]
                  for j, column in enumerate(scaled)]
        step = _solve(system, [-v for v in r] + [0.0] * n)
        trial = [pk + dk / sk for pk, dk, sk in zip(p, step, scale)]
        if trial == p:
            # No step lowers the cost any more: converged if the undamped
            # step would move no parameter by more than STEP_TOLERANCE.
            newton = [dk / sk for dk, sk in zip(_solve(scaled, [-v for v in r]), scale)]
            if all(abs(dk) <= STEP_TOLERANCE * abs(pk) for dk, pk in zip(newton, p)):
                return p, r, jac
            raise FitError(
                f"least squares did not converge: no step lowers the cost at "
                f"{p}, but the minimum lies further by {newton}"
            )
        evaluated = _evaluate(fun, trial)
        if evaluated is not None and evaluated[0] < cost:
            p, (cost, r, jac, columns) = trial, evaluated
            damping = max(damping / 10.0, 1e-15)
        else:
            damping *= 10.0
    raise FitError(f"least squares did not converge in {MAX_ITERATIONS} iterations")


def nnls(a, b) -> list:
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
    rows = [[float(v) for v in row] for row in a]
    columns = _columns(rows)
    b = [float(v) for v in b]
    m, n = len(rows), len(columns)
    max_steps = 3 * n
    largest_column_sum = max((math.fsum(map(abs, column)) for column in columns), default=0.0)
    tolerance = 10 * sys.float_info.epsilon * largest_column_sum * max(m, n)
    x = [0.0] * n
    passive = [False] * n
    steps = 0

    def solve():
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise FitError(f"nonnegative least squares did not converge in {max_steps} steps")
        chosen = [j for j in range(n) if passive[j]]
        trial = [0.0] * n
        for j, value in zip(chosen, _solve([columns[j] for j in chosen], b)):
            trial[j] = value
        return trial

    while not all(passive):
        residual = [bi - fitted for bi, fitted in zip(b, matvec(rows, x))]
        gradient = [-math.inf if passive[j] else dot(column, residual)
                    for j, column in enumerate(columns)]
        while True:
            j = max(range(n), key=gradient.__getitem__)
            if gradient[j] <= tolerance:
                return x
            passive[j] = True
            trial = solve()
            if trial[j] > 0:
                break
            passive[j] = False
            gradient[j] = -math.inf
        while not all(t > 0 for t, held in zip(trial, passive) if held):
            # walk back to the first passive component that reaches zero
            alpha = min(xk / (xk - tk) for xk, tk, held in zip(x, trial, passive)
                        if held and tk <= 0)
            x = [xk + alpha * (tk - xk) for xk, tk in zip(x, trial)]
            passive = [held and xk > tolerance for held, xk in zip(passive, x)]
            x = [xk if held else 0.0 for xk, held in zip(x, passive)]
            trial = solve()
        x = trial
    return x
