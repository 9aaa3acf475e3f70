"""Numpy least-squares solvers shared by the fits and the response calibrator.

* :func:`levenberg_marquardt` - damped Gauss-Newton for small nonlinear
  problems with analytic Jacobians, run until the parameters stop moving.
* :func:`nnls` - Lawson-Hanson nonnegative linear least squares.

Both raise :class:`FitError` when they cannot converge, so a fit that
stops short of its minimum never reports numbers.
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


def _scaled_gradient(jac, residuals) -> float:
    """Largest |cosine| between the residual vector and a Jacobian column.

    Zero at a stationary point of ||r||^2 and independent of the
    parameters' units; 0 for a zero residual.
    """
    r_norm = float(np.linalg.norm(residuals))
    col_norms = np.linalg.norm(jac, axis=0)
    if r_norm == 0.0:
        return 0.0
    live = col_norms > 0
    cosines = np.abs(jac.T[live] @ residuals) / (col_norms[live] * r_norm)
    return float(cosines.max(initial=0.0))


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
    cost = float(r @ r)
    damping = 1e-3
    for _ in range(MAX_ITERATIONS):
        if _scaled_gradient(jac, r) < GRADIENT_TOLERANCE:
            return p, r, jac
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0] = 1.0
        system = np.vstack([jac / scale, math.sqrt(damping) * np.eye(p.size)])
        rhs = np.concatenate([-r, np.zeros(p.size)])
        trial = p + np.linalg.lstsq(system, rhs, rcond=None)[0] / scale
        if np.array_equal(trial, p):
            # No step lowers the cost any more: converged if the undamped
            # step would move no parameter by more than STEP_TOLERANCE.
            newton = np.linalg.lstsq(jac / scale, -r, rcond=None)[0] / scale
            if np.all(np.abs(newton) <= STEP_TOLERANCE * np.abs(p)):
                return p, r, jac
            raise FitError(
                f"least squares did not converge: no step lowers the cost at "
                f"{p.tolist()}, but the minimum lies further by {newton.tolist()}"
            )
        with np.errstate(all="ignore"):
            r_trial, jac_trial = fun(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost and np.all(np.isfinite(jac_trial)):
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping = max(damping / 10.0, 1e-15)
        else:
            damping *= 10.0
    raise FitError(f"least squares did not converge in {MAX_ITERATIONS} iterations")


def nnls(a, b) -> np.ndarray:
    """Lawson-Hanson nonnegative least squares: argmin ||a x - b||, x >= 0.

    Raises
    ------
    FitError
        After 3 inner steps per column, the bound Lawson and Hanson use.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    max_steps = 3 * n
    tolerance = 10 * np.finfo(float).eps * np.linalg.norm(a, 1) * max(m, n)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    gradient = a.T @ b
    steps = 0
    while not passive.all():
        j = int(np.argmax(np.where(passive, -np.inf, gradient)))
        if gradient[j] <= tolerance:
            break
        passive[j] = True
        while True:
            steps += 1
            if steps > max_steps:
                raise FitError(f"nonnegative least squares did not converge "
                               f"in {max_steps} steps")
            trial = np.zeros(n)
            trial[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(trial[passive] > 0):
                x = trial
                break
            # walk back to the first passive component that reaches zero
            blocking = passive & (trial <= 0)
            alpha = np.min(x[blocking] / (x[blocking] - trial[blocking]))
            x = x + alpha * (trial - x)
            passive &= x > tolerance
            x[~passive] = 0.0
        gradient = a.T @ (b - a @ x)
    return x
