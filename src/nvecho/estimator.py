"""Fitting and characterization algebra for ensemble coherence data.

Implements the extraction chain used throughout the package: cosine fringe
fits for signal amplitude, exponential fits for coherence times, the
vee fit of decay rate versus flip fraction that yields the slope ratio of
the two couplings, inhomogeneity decomposition from measured rates, and
the dephasing rates the linear model predicts for Lorentzian ensembles.
Every linear solve, start value and covariance goes through the one
Householder QR of ``solvers`` (``lstsq``, ``inverse_gram``, ``rank``) and
every sum through its ``dot`` and ``matvec``, so no fit calls BLAS or
LAPACK, and a fit's bytes do not follow OpenBLAS's kernel or threads.
A rate table, its rows and its CSV file belong to ``sequences``, which
reads and writes every ``#``-metadata CSV; ``RateTable`` is imported here
for the vee fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .catalog import DEFAULT_SKIP, MIN_FIT_POINTS
from .pulses import build_sequence
from .response import default_linear_response
from .sequences import RateTable
from .solvers import (FitError, dot, inverse_gram, levenberg_marquardt, lstsq, matvec, nnls,
                      norm, rank)
from .spin_model import PhaseCoefficients, SpinSystemParams, default_params, phase_coefficients

@dataclass(frozen=True)
class FitResult:
    """Named parameters plus covariance in the same order."""

    parameters: dict
    covariance: np.ndarray
    residual_norm: float
    points_used: int
    warnings: tuple = ()
    settings: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError("residual norm must be >= 0")

    def __getitem__(self, name):
        return self.parameters[name]

    def as_dict(self) -> dict:
        """JSON-ready form: plain floats and nested lists."""
        return {
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "covariance": np.asarray(self.covariance, dtype=float).tolist(),
            "residual_norm": float(self.residual_norm),
            "points_used": int(self.points_used),
            "warnings": list(self.warnings),
            "settings": dict(self.settings),
        }


def _covariance_from_jacobian(jac, residuals, n_params):
    """s^2 (J^T J)^-1 with the usual residual-variance scale, as s^2 R^-1
    R^-T from the QR of J; all NaN where a pivot of R is zero."""
    dof = max(residuals.size - n_params, 1)
    return dot(residuals, residuals) / dof * inverse_gram(jac)


def _propagate(jac, cov) -> np.ndarray:
    """J C J^T: the covariance of parameters that ``jac`` maps from ones of
    covariance ``cov``."""
    jc = np.array([[dot(row, column) for column in cov.T] for row in jac])
    return np.array([[dot(a, b) for b in jac] for a in jc])


def _finite(name, values) -> np.ndarray:
    """``values`` as a float array, refused if one is not finite."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} must be finite; {name}[{bad[0]}] is {values.flat[bad[0]]}")
    return values


# ------------------------------------------------------------------- cosine

def fit_cosine(phases, signal) -> FitResult:
    """Least-squares fringe fit S = c0 - c/2 + (c/2) cos(phi + phi0).

    Returns parameters ``contrast`` (c, peak-to-peak, >= 0), ``phase``
    (phi0), and ``maximum`` (c0, the signal at the fringe top).  Needs at
    least four points spanning a full period.
    """
    phases, signal = _finite("phases", phases), _finite("signal", signal)
    if phases.shape != signal.shape or phases.ndim != 1:
        raise ValueError("phases and signal must be 1D arrays of equal length")
    if phases.size < 4:
        raise ValueError("cosine fit needs at least 4 points")
    span = float(np.max(phases) - np.min(phases))
    if span < 2 * math.pi * (1 - 1e-9):
        raise FitError(
            f"phase span {span:.3f} rad is less than one period; "
            "extend the readout-phase scan"
        )
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef = lstsq(design, signal)
    offset, a, b = coef
    amplitude = math.hypot(a, b)
    residuals = signal - matvec(design, coef)
    cov_lin = _covariance_from_jacobian(design, residuals, 3)

    warnings = ()
    if amplitude < 1e-12 * max(1.0, abs(offset)):
        warnings = ("zero contrast: fringe phase is unconstrained",)
        phi0 = 0.0
        jac = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    else:
        phi0 = math.atan2(-b, a)
        jac = np.array([
            [0.0, 2 * a / amplitude, 2 * b / amplitude],
            [0.0, b / amplitude**2, -a / amplitude**2],
            [1.0, a / amplitude, b / amplitude],
        ])
    cov = _propagate(jac, cov_lin)
    parameters = {
        "contrast": 2 * amplitude,
        "phase": phi0,
        "maximum": offset + amplitude,
    }
    return FitResult(
        parameters=parameters,
        covariance=cov,
        residual_norm=norm(residuals),
        points_used=phases.size,
        warnings=warnings,
    )


# -------------------------------------------------------------- exponential

def fit_exponential(times, amplitudes) -> FitResult:
    """Fit S(t) = c0 exp(-t / T2), skipping the first ``DEFAULT_SKIP`` points.

    The skip discards early-time points where the ensemble
    signal is not yet a single exponential.  Needs increasing times,
    ``MIN_FIT_POINTS`` points after the skip and strictly decaying
    data.  Least squares from the log-linear estimate, run to convergence;
    raises FitError when the minimum runs off (T2 -> 0 or infinity) instead.
    """
    times, amplitudes = _finite("times", times), _finite("amplitudes", amplitudes)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-d array, got shape {times.shape}")
    if amplitudes.shape != times.shape:
        raise ValueError(f"amplitudes must have the shape of times {times.shape}, "
                         f"got {amplitudes.shape}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must strictly increase")
    t = times[DEFAULT_SKIP:]
    y = amplitudes[DEFAULT_SKIP:]
    if t.size < MIN_FIT_POINTS:
        raise ValueError(f"exponential fit needs >= {MIN_FIT_POINTS} points after skipping "
                         f"{DEFAULT_SKIP}, got {t.size}")
    positive = y > 0
    if positive.sum() < 3:
        raise FitError("too few positive amplitudes to fit a decay")
    slope, intercept = lstsq(np.column_stack([t[positive], np.ones(positive.sum())]),
                             np.log(y[positive]))
    if slope >= 0:
        raise FitError("amplitudes do not decay with time; cannot fit an exponential")

    def residuals(p):
        c0, t2 = p
        decay = np.exp(-t / t2)
        return c0 * decay - y, np.column_stack([decay, c0 * t / t2**2 * decay])

    p0 = (math.exp(intercept), -1.0 / slope)
    (c0, t2), res, jac = levenberg_marquardt(residuals, p0)
    if t2 <= 0:
        raise FitError("fitted coherence time is not positive")
    return FitResult(
        parameters={"initial_amplitude": float(c0), "coherence_time": float(t2)},
        covariance=_covariance_from_jacobian(jac, res, 2),
        residual_norm=norm(res),
        points_used=int(t.size),
        settings={"skip_initial": DEFAULT_SKIP},
    )


# ------------------------------------------------------------------ vee fit

def _unit_echo(pair, flip_fraction: float, ms_free: int, ms_flipped: int, *,
               params: SpinSystemParams | None = None) -> PhaseCoefficients:
    """The phase coefficients of a unit-time unbalanced echo that flips from
    ``ms_free`` to ``ms_flipped`` for the final ``flip_fraction``; ValueError
    where ``build_sequence`` refuses the echo."""
    echo = build_sequence("unbalanced_echo", 1.0, pair=pair, ms_free=ms_free,
                          ms_flipped=ms_flipped, flip_fraction=flip_fraction)
    return phase_coefficients(params or default_params(), echo.pair, echo.segments)


def _vee_dispatch(table: RateTable) -> str:
    """The table's branch: a vee when the temperature term vanishes inside
    (0, 1), that is when its coefficient under the default linear response
    changes sign between the two manifolds, and a line otherwise.  The
    coefficient is read from the response's slopes, not from a noise
    source, so that a fit does not import ``noise``."""
    pairs = {r.pair for r in table.rows}
    pairings = {r.ms_pairing for r in table.rows}
    if len(pairs) != 1 or len(pairings) != 1:
        raise ValueError("fit_vee needs a table filtered to one pair and one ms pairing")
    (pair,), (pairing,) = pairs, pairings
    slopes = default_linear_response()
    free, flipped = (c.quadrupole * slopes.quadrupole_per_K + c.hyperfine * slopes.hyperfine_per_K
                     for c in (_unit_echo(pair, f, *pairing) for f in (0.0, 1.0)))
    return "vee" if free * flipped < 0 else "line"


def _solve_vee(x, y, grid):
    """Global least-squares vee, rate = slope |x - ratio| + baseline with
    slope > 0, baseline >= 0 and the ratio on the span of ``grid``, the
    distinct values of ``x``, sorted.

    Once the side of each point is fixed, the model is linear in (slope,
    slope * ratio, baseline), so every face of the bounded problem has a
    closed-form solution: the free fit on each grid interval and the fit
    with the vertex on each grid point, each also with baseline = 0.  The
    feasible candidate with the lowest residual sum of squares is the
    optimum, unless a flat line (slope 0) fits as well.  Returns
    (slope, ratio, baseline).
    """
    ones = np.ones_like(x)
    candidates = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        side = np.where(x <= lo, -1.0, 1.0)
        design = np.column_stack([side * x, -side, ones])
        for columns in (3, 2):
            coef = lstsq(design[:, :columns], y)
            if coef[0] > 0 and lo <= coef[1] / coef[0] <= hi:
                candidates.append((coef[0], coef[1] / coef[0], coef[2] if columns == 3 else 0.0))
    for vertex in grid:
        design = np.column_stack([np.abs(x - vertex), ones])
        for columns in (2, 1):
            coef = lstsq(design[:, :columns], y)
            if coef[0] > 0:
                candidates.append((coef[0], vertex, coef[1] if columns == 2 else 0.0))
    feasible = [c for c in candidates if c[2] >= 0]
    rss = [dot(r, r) for r in (a * np.abs(x - v) + b - y for a, v, b in feasible)]
    if not rss or min(rss) >= float(np.sum((y - np.mean(y)) ** 2)):
        raise FitError("rate does not rise on both sides of any flip fraction; no vee to fit")
    best = feasible[int(np.argmin(rss))]
    if best[1] in grid:
        return best
    # Refine in the model's own parameters, which recovers the rounding of
    # ratio = (slope * ratio) / slope; a baseline at its bound stays at 0.
    free = 3 if best[2] > 0 else 2

    def residuals(p):
        slope, ratio, baseline = (*p, 0.0)[:3]
        jac = np.column_stack([np.abs(x - ratio), -slope * np.sign(x - ratio), ones])
        return slope * np.abs(x - ratio) + baseline - y, jac[:, :free]

    try:
        refined = (*levenberg_marquardt(residuals, best[:free])[0], 0.0)[:3]
    except FitError:
        return best
    return refined if refined[0] > 0 and refined[2] >= 0 else best


def fit_vee(table: RateTable) -> FitResult:
    """Fit decay rate versus flip fraction for one transition branch.

    The cancelling branch forms a vee, rate = slope |x - ratio| + baseline,
    and the crossing point estimates the coupling slope ratio independent
    of any constant baseline; the fit is the global least-squares optimum
    (:func:`_solve_vee`).  The non-cancelling branch is a straight
    line; its x-intercept magnitude estimates the same ratio but absorbs
    baseline / slope as bias, which is faithfully reported.  The branch
    geometry of the table, one pair and one ms pairing, decides which.
    """
    if not table.rows:
        raise ValueError("fit_vee needs a rate table with rows; the table is empty")
    x = table.tau_over_t
    y = table.rates
    order = np.argsort(x)
    x, y = x[order], y[order]
    # the distinct flip fractions, as np.unique gives them (which would
    # import numpy.ma)
    grid = x[np.concatenate(([True], x[1:] != x[:-1]))]

    if _vee_dispatch(table) == "line":
        if grid.size < 2:
            raise ValueError("line fit needs at least 2 distinct flip fractions")
        design = np.column_stack([x, np.ones_like(x)])
        slope, intercept = lstsq(design, y)
        if slope == 0:
            raise FitError("rate is flat in flip fraction; no intercept estimate")
        residuals = y - matvec(design, (slope, intercept))
        cov_lin = _covariance_from_jacobian(design, residuals, 2)
        ratio = intercept / slope
        jac = np.array([
            [-intercept / slope**2, 1.0 / slope],
            [1.0, 0.0],
            [intercept / slope**2, -1.0 / slope],
        ])
        return FitResult(
            parameters={"ratio": float(ratio), "slope": float(slope),
                        "x_intercept": float(-ratio)},
            covariance=_propagate(jac, cov_lin),
            residual_norm=norm(residuals),
            points_used=int(x.size),
            warnings=("line-intercept ratio absorbs any constant baseline "
                      "as bias baseline/slope",),
            settings={"method": "line"},
        )

    if grid.size < 6:
        raise ValueError(f"vee fit needs at least 6 distinct flip fractions, got {grid.size}")
    slope, ratio, baseline = _solve_vee(x, y, grid)
    eps = (x[-1] - x[0]) / (2 * (grid.size - 1))
    if not x[0] + eps < ratio < x[-1] - eps:
        raise FitError(
            f"vertex at {ratio:.3f} is not straddled by the flip-fraction grid "
            f"[{x[0]:.3f}, {x[-1]:.3f}]; extend the grid past the vertex"
        )
    residuals = slope * np.abs(x - ratio) + baseline - y
    # Jacobian of the residuals in (ratio, slope, baseline) order
    jac = np.column_stack([-slope * np.sign(x - ratio), np.abs(x - ratio), np.ones_like(x)])
    return FitResult(
        parameters={"ratio": float(ratio), "slope": float(slope),
                    "baseline": float(baseline)},
        covariance=_covariance_from_jacobian(jac, residuals, 3),
        residual_norm=norm(residuals),
        points_used=int(x.size),
        settings={"method": "vee"},
    )


# -------------------------------------------------------- sigma decomposition

def estimate_sigma(rates, coefficients, baseline=0.0, rate_errors=None,
                   source_names=None) -> FitResult:
    """Decompose excess decay rates into per-source inhomogeneity widths.

    Solves rate_i - baseline_i = sum_j |coefficient_ij| sigma_j with
    sigma_j >= 0 (nonnegative least squares).  ``coefficients`` is
    (n_rates,) for a single source or (n_rates, n_sources), and ``baseline``
    a scalar or one value per rate.  ``rate_errors``, when given, holds one
    positive, finite error per rate; they weight the fit and give the
    covariance.
    """
    rates = np.atleast_1d(_finite("rates", rates))
    if rates.size == 0:
        raise ValueError("rates are empty; need at least one")
    coeff = np.atleast_1d(_finite("coefficients", coefficients))
    baseline = _finite("baseline", baseline)
    if baseline.ndim > 1 or baseline.size not in (1, rates.size):
        raise ValueError(f"baseline needs one value or one per rate ({rates.size}), "
                         f"got shape {baseline.shape}")
    if coeff.ndim == 1:
        coeff = coeff[:, None]
    coeff = np.abs(coeff)
    if coeff.shape[0] != rates.size:
        raise ValueError("coefficients must have one row per rate")
    if np.any(np.all(coeff == 0, axis=0)):
        raise ValueError("every noise source needs a nonzero coefficient")
    names = tuple(source_names) if source_names else tuple(
        f"sigma_{j}" for j in range(coeff.shape[1])
    )
    if len(names) != coeff.shape[1]:
        raise ValueError("one name per source required")
    if rate_errors is not None:
        rate_errors = np.atleast_1d(np.asarray(rate_errors, dtype=float))
        if rate_errors.shape != rates.shape or not np.all(
                np.isfinite(rate_errors) & (rate_errors > 0)):
            raise ValueError("rate_errors needs one positive, finite error per rate")
    excess = rates - baseline

    warnings = ()
    if np.all(excess <= 0):
        sigma = np.zeros(coeff.shape[1])
        resid = -excess
        warnings = ("rates do not exceed the baseline; widths set to zero",)
    else:
        if rate_errors is not None:
            w = 1.0 / rate_errors
            sigma = nnls(coeff * w[:, None], excess * w)
        else:
            sigma = nnls(coeff, excess)
        resid = matvec(coeff, sigma) - excess

    coeff_rank = rank(coeff)
    if coeff_rank < coeff.shape[1]:
        warnings += (f"coefficients have rank {coeff_rank} for {coeff.shape[1]} sources: the "
                     "widths are not determined by these rates and their covariance is NaN",)
        cov = np.full((coeff.shape[1],) * 2, np.nan)
    elif rate_errors is not None:
        cov = inverse_gram(coeff / rate_errors[:, None])
    else:
        cov = _covariance_from_jacobian(coeff, resid, coeff.shape[1])
    return FitResult(
        parameters=dict(zip(names, (float(s) for s in sigma))),
        covariance=cov,
        residual_norm=norm(resid),
        points_used=int(rates.size),
        warnings=warnings,
    )


# ------------------------------------------------------------- rate algebra

def predict_echo_rate(pair, flip_fraction: float, ms_free: int = 0,
                      ms_flipped: int = 1, sigma_T: float = 0.0,
                      sigma_B: float = 0.0, response=None,
                      params: SpinSystemParams | None = None) -> float:
    """Dephasing rate of the unbalanced echo versus flip fraction: the sum of
    sigma * |phase coefficient| of a Lorentzian temperature and field source
    over the unit-time echo.

    The temperature coefficient interpolates between the two manifolds'
    sensitivities; on the cancelling branch it crosses zero at the slope
    ratio, producing the vee.  The field term is untouched by the flip.  At
    flip fraction 0 it is the free-evolution rate in ``ms_free``, whichever
    other manifold the flip would enter.
    """
    from .noise import field_source, lorentzian, temperature_source

    coefficients = _unit_echo(pair, flip_fraction, ms_free, ms_flipped, params=params)
    sources = (temperature_source(lorentzian(0.0, sigma_T), response),
               field_source(lorentzian(0.0, sigma_B)))
    return float(sum(src.distribution.scale * abs(src.phase_coefficient(coefficients))
                     for src in sources))
