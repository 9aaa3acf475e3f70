"""Least-squares solvers shared by the fits and the response calibrator.

* :func:`lstsq` - linear least squares by Householder QR, the one solve
  every fit makes; :func:`inverse_gram` and :func:`rank` read the same QR.
* :func:`bisect_minimum` - the minimum of a cost of one parameter, from the
  sign of its derivative, bisected down to two adjacent doubles.  Each
  nonlinear fit has one nonlinear parameter once its linear ones are
  projected out (variable projection: Golub and Pereyra, SIAM J. Numer.
  Anal. 10, 1973); it bisects that parameter, then takes one undamped
  Gauss-Newton step through :func:`lstsq`.
* :func:`nnls` - Lawson-Hanson nonnegative least squares.

Every solver works on Python floats: a vector is a sequence of numbers, a
matrix a sequence of its rows, and each result a float, a list or a list
of rows, so a fit imports no numpy.  No solve calls BLAS or LAPACK: every
sum over a vector is ``math.fsum`` of exactly rounded products
(:func:`dot`), or runs in column order (:func:`matvec`), so a fit gives the
same bits whatever BLAS kernel, thread count or SIMD level numpy would have
run.  Both iterative solvers raise :class:`FitError` when they cannot
converge, so a fit whose minimum runs off never reports numbers.  The
bisection has no tolerance and no iteration cap, so a nonlinear fit stops
where its data put it, and a change of the data in its last bits moves it
by rounding only.
"""

from __future__ import annotations

import math
import operator
import sys


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


def bisect_minimum(slope, x0) -> tuple:
    """The adjacent doubles ``lo <= hi`` around a minimum of a cost of one
    parameter, where ``slope(x)``, of the sign of the cost's derivative,
    turns from negative to positive.

    The bracket grows downhill from ``x0`` in steps of ln 2 until the sign
    turns (a zero does not count), then is bisected until its ends are
    adjacent doubles; a zero at a midpoint or at ``x0`` is the minimum
    itself, ``(x, x)``.  Neither loop has a cap: each fit bisects a
    logarithm, whose exp overflows, or underflows to a division by zero,
    within about 1,100 steps.

    Raises
    ------
    FitError
        Where ``slope`` is not finite or raises ZeroDivisionError or
        OverflowError (Python floats raise where a model divides by zero
        or overflows): the minimum runs off.
    """

    def sign(x):
        try:
            value = float(slope(x))
        except (ZeroDivisionError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise FitError(f"least squares did not converge: the model is not finite at {x!r}")
        return (value > 0) - (value < 0)

    downhill = -sign(x0)
    if not downhill:
        return x0, x0
    step = downhill * math.log(2.0)
    near, far = x0, x0 + step
    while sign(far) != downhill:
        near, far = far, far + step
    lo, hi = sorted((near, far))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        side = sign(mid)
        if not side:
            return mid, mid
        lo, hi = (lo, mid) if side > 0 else (mid, hi)


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
