"""Fitting and characterization algebra for ensemble coherence data.

Implements the extraction chain used throughout the package: cosine fringe
fits for signal amplitude, exponential fits for coherence times, the
vee fit of decay rate versus flip fraction that yields the slope ratio of
the two couplings, inhomogeneity decomposition from measured rates, and
the dephasing rates the linear model predicts for Lorentzian ensembles.
The fits take sequences of numbers and compute on Python floats, with
``math``'s ``exp``, ``log``, ``cos`` and ``sin``; every linear solve, start
value and covariance goes through the one Householder QR of ``solvers``
(``lstsq``, ``inverse_gram``, ``rank``) and every sum through its ``dot``
and ``matvec``.  So a fit imports no numpy, and its bytes follow neither
OpenBLAS's kernel or threads nor numpy's SIMD loops.  A fit's covariance
is a list of rows.  A rate table, its rows and its CSV file belong to
``sequences``, which reads and writes every ``#``-metadata CSV;
``RateTable`` is imported here for the vee fit.  The vee fit reads a
table's branch from ``catalog``'s default slopes, so it loads neither the
response models nor the noise sources.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .catalog import DEFAULT_SKIP, HYPERFINE_HZ_PER_K, MIN_FIT_POINTS, QUADRUPOLE_HZ_PER_K
from .pulses import build_sequence
from .records import Frozen
from .sequences import RateTable
from .solvers import (FitError, bisect_minimum, dot, inverse_gram, lstsq, matvec, nnls, norm,
                      rank)
from .spin_model import PhaseCoefficients, SpinSystemParams, default_params, phase_coefficients
from .units import angular

class FitResult(Frozen):
    """Named parameters plus covariance (a list of rows) in the same order."""

    parameters: dict
    covariance: list
    residual_norm: float
    points_used: int
    warnings: tuple = ()
    settings: dict = {}

    def _check(self):
        if self.residual_norm < 0:
            raise ValueError("residual norm must be >= 0")

    def __getitem__(self, name):
        return self.parameters[name]

    def as_dict(self) -> dict:
        """JSON-ready form: plain floats and nested lists."""
        return {
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "residual_norm": float(self.residual_norm),
            "points_used": int(self.points_used),
            "warnings": list(self.warnings),
            "settings": dict(self.settings),
        }


def _covariance_from_jacobian(jac, residuals, n_params) -> list:
    """s^2 (J^T J)^-1 with the usual residual-variance scale, as s^2 R^-1
    R^-T from the QR of J; all NaN where a pivot of R is zero."""
    s2 = dot(residuals, residuals) / max(len(residuals) - n_params, 1)
    return [[s2 * v for v in row] for row in inverse_gram(jac)]


def _propagate(jac, cov) -> list:
    """J C J^T: the covariance of parameters that ``jac`` maps from ones of
    covariance ``cov``."""
    jc = [[dot(row, column) for column in zip(*cov)] for row in jac]
    return [[dot(a, b) for b in jac] for a in jc]


def _shape(values) -> tuple:
    """numpy's shape of ``values``: an array's own, a nested sequence's
    from its first items, and () for one number."""
    shape = getattr(values, "shape", None)
    if shape is not None:
        return tuple(shape)
    if isinstance(values, Sequence) and not isinstance(values, str):
        return (len(values),) + (_shape(values[0]) if values else ())
    return ()


def _finite(name, values) -> list:
    """``values`` as a list of floats, refused if one is not finite."""
    values = [float(v) for v in values]
    for i, value in enumerate(values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite; {name}[{i}] is {value}")
    return values


# ------------------------------------------------------------------- cosine

def fit_cosine(phases, signal) -> FitResult:
    """Least-squares fringe fit S = c0 - c/2 + (c/2) cos(phi + phi0).

    Returns parameters ``contrast`` (c, peak-to-peak, >= 0), ``phase``
    (phi0), and ``maximum`` (c0, the signal at the fringe top).  Needs at
    least four points spanning a full period.
    """
    shape = _shape(phases)
    if len(shape) != 1 or _shape(signal) != shape:
        raise ValueError("phases and signal must be 1D arrays of equal length")
    phases, signal = _finite("phases", phases), _finite("signal", signal)
    if len(phases) < 4:
        raise ValueError("cosine fit needs at least 4 points")
    span = max(phases) - min(phases)
    if span < 2 * math.pi * (1 - 1e-9):
        raise FitError(
            f"phase span {span:.3f} rad is less than one period; "
            "extend the readout-phase scan"
        )
    design = [(1.0, math.cos(phase), math.sin(phase)) for phase in phases]
    coef = lstsq(design, signal)
    offset, a, b = coef
    amplitude = math.hypot(a, b)
    residuals = [s - fitted for s, fitted in zip(signal, matvec(design, coef))]
    cov_lin = _covariance_from_jacobian(design, residuals, 3)

    warnings = ()
    if amplitude < 1e-12 * max(1.0, abs(offset)):
        warnings = ("zero contrast: fringe phase is unconstrained",)
        phi0 = 0.0
        jac = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    else:
        phi0 = math.atan2(-b, a)
        jac = [
            [0.0, 2 * a / amplitude, 2 * b / amplitude],
            # divided twice, not by amplitude**2, which overflows above 1.3e154
            [0.0, b / amplitude / amplitude, -a / amplitude / amplitude],
            [1.0, a / amplitude, b / amplitude],
        ]
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
        points_used=len(phases),
        warnings=warnings,
    )


# -------------------------------------------------------------- exponential

def fit_exponential(times, amplitudes) -> FitResult:
    """Fit S(t) = c0 exp(-t / T2), skipping the first ``DEFAULT_SKIP`` points.

    The skip discards early-time points where the ensemble
    signal is not yet a single exponential.  Needs increasing times,
    ``MIN_FIT_POINTS`` points after the skip and strictly decaying
    data.  Least squares by variable projection: with c0 projected out, the
    cost in log T2 is bisected (``solvers.bisect_minimum``) from the
    log-linear estimate down to two adjacent doubles, and one undamped
    Gauss-Newton step in (c0, T2) from the lower one gives the fit, with no
    tolerance.  Raises FitError when the minimum runs off (T2 -> 0 or inf).
    """
    shape = _shape(times)
    if len(shape) != 1:
        raise ValueError(f"times must be a 1-d array, got shape {shape}")
    if _shape(amplitudes) != shape:
        raise ValueError(f"amplitudes must have the shape of times {shape}, "
                         f"got {_shape(amplitudes)}")
    times, amplitudes = _finite("times", times), _finite("amplitudes", amplitudes)
    if any(later <= earlier for earlier, later in zip(times, times[1:])):
        raise ValueError("times must strictly increase")
    t = times[DEFAULT_SKIP:]
    y = amplitudes[DEFAULT_SKIP:]
    if len(t) < MIN_FIT_POINTS:
        raise ValueError(f"exponential fit needs >= {MIN_FIT_POINTS} points after skipping "
                         f"{DEFAULT_SKIP}, got {len(t)}")
    positive = [(ti, yi) for ti, yi in zip(t, y) if yi > 0]
    if len(positive) < 3:
        raise FitError("too few positive amplitudes to fit a decay")
    slope = lstsq([(ti, 1.0) for ti, _ in positive], [math.log(yi) for _, yi in positive])[0]
    if slope >= 0:
        raise FitError("amplitudes do not decay with time; cannot fit an exponential")

    def residuals(p):
        c0, t2 = p
        decay = [math.exp(-ti / t2) for ti in t]
        t2_squared = t2**2
        return ([c0 * d - yi for d, yi in zip(decay, y)],
                [(d, c0 * ti / t2_squared * d) for ti, d in zip(t, decay)])

    # With c0 = sum(y d) / sum(d^2), d = exp(-t / T2), the cost's slope in T2
    # has the sign of -c0 h, h = sum(y d t) sum(d^2) - sum(y d) sum(d^2 t).
    # Summed over the lags from the first time, h keeps its sign but drops
    # the first point's terms, which as T2 -> 0 cancel to rounding.
    lag = [ti - t[0] for ti in t]

    def cost_slope(log_t2):
        t2 = math.exp(log_t2)
        decay = [math.exp(-ti / t2) for ti in lag]
        y_decay = [yi * d for yi, d in zip(y, decay)]
        squares = [d * d for d in decay]
        y_sum = math.fsum(y_decay)
        h = dot(y_decay, lag) * math.fsum(squares) - y_sum * dot(squares, lag)
        return h if y_sum < 0 else -h

    t2 = math.exp(bisect_minimum(cost_slope, math.log(-1.0 / slope))[0])
    try:
        # one Gauss-Newton step in (c0, T2) from the lower double's T2
        decay = [math.exp(-ti / t2) for ti in t]
        p = (dot(y, decay) / dot(decay, decay), t2)
        res, jac = residuals(p)
        c0, t2 = (pk + dk for pk, dk in zip(p, lstsq(jac, [-v for v in res])))
        if t2 <= 0:
            raise FitError("fitted coherence time is not positive")
        res, jac = residuals((c0, t2))
    except (ZeroDivisionError, OverflowError):
        raise FitError(f"least squares did not converge: the model is not finite at its "
                       f"minimum, T2 = {t2!r}") from None
    return FitResult(
        parameters={"initial_amplitude": c0, "coherence_time": t2},
        covariance=_covariance_from_jacobian(jac, res, 2),
        residual_norm=norm(res),
        points_used=len(t),
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
    coefficient is read from ``catalog``'s default slopes, not from the
    response models or a noise source, so that a fit imports neither."""
    pairs = {r.pair for r in table.rows}
    pairings = {r.ms_pairing for r in table.rows}
    if len(pairs) != 1 or len(pairings) != 1:
        raise ValueError("fit_vee needs a table filtered to one pair and one ms pairing")
    (pair,), (pairing,) = pairs, pairings
    quadrupole_per_K, hyperfine_per_K = angular(QUADRUPOLE_HZ_PER_K), angular(HYPERFINE_HZ_PER_K)
    free, flipped = (c.quadrupole * quadrupole_per_K + c.hyperfine * hyperfine_per_K
                     for c in (_unit_echo(pair, f, *pairing) for f in (0.0, 1.0)))
    return "vee" if free * flipped < 0 else "line"


def _sign(value: float) -> float:
    """-1.0, 0.0 or 1.0, as ``numpy.sign`` gives it."""
    return 1.0 if value > 0 else -1.0 if value < 0 else 0.0


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
    candidates = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        design = [(xi, -1.0, 1.0) if xi > lo else (-xi, 1.0, 1.0) for xi in x]
        for columns in (3, 2):
            coef = lstsq([row[:columns] for row in design], y)
            if coef[0] > 0 and lo <= coef[1] / coef[0] <= hi:
                candidates.append((coef[0], coef[1] / coef[0], coef[2] if columns == 3 else 0.0))
    for vertex in grid:
        design = [(abs(xi - vertex), 1.0) for xi in x]
        for columns in (2, 1):
            coef = lstsq([row[:columns] for row in design], y)
            if coef[0] > 0:
                candidates.append((coef[0], vertex, coef[1] if columns == 2 else 0.0))
    feasible = [c for c in candidates if c[2] >= 0]
    rss = [dot(r, r) for r in ([a * abs(xi - v) + b - yi for xi, yi in zip(x, y)]
                               for a, v, b in feasible)]
    mean = math.fsum(y) / len(y)
    if not rss or min(rss) >= math.fsum((yi - mean) * (yi - mean) for yi in y):
        raise FitError("rate does not rise on both sides of any flip fraction; no vee to fit")
    best = feasible[rss.index(min(rss))]
    if best[1] in grid:
        return best
    # One undamped Gauss-Newton step in the model's own parameters recovers
    # the rounding of ratio = (slope * ratio) / slope; a baseline at its
    # bound stays at 0.
    slope, ratio, baseline = best
    free = 3 if baseline > 0 else 2
    res = [slope * abs(xi - ratio) + baseline - yi for xi, yi in zip(x, y)]
    jac = [(abs(xi - ratio), -slope * _sign(xi - ratio), 1.0)[:free] for xi in x]
    refined = (*(pk + dk for pk, dk in zip(best, lstsq(jac, [-v for v in res]))), 0.0)[:3]
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
    The rows are fitted in the order of their flip fractions, rows of
    equal flip fraction in table order.
    """
    if not table.rows:
        raise ValueError("fit_vee needs a rate table with rows; the table is empty")
    points = sorted(zip(table.tau_over_t, table.rates), key=lambda point: point[0])
    x = [xi for xi, _ in points]
    y = [yi for _, yi in points]
    grid = [xi for i, xi in enumerate(x) if i == 0 or xi != x[i - 1]]  # distinct flip fractions

    if _vee_dispatch(table) == "line":
        if len(grid) < 2:
            raise ValueError("line fit needs at least 2 distinct flip fractions")
        design = [(xi, 1.0) for xi in x]
        slope, intercept = lstsq(design, y)
        if slope == 0:
            raise FitError("rate is flat in flip fraction; no intercept estimate")
        residuals = [yi - fitted for yi, fitted in zip(y, matvec(design, (slope, intercept)))]
        cov_lin = _covariance_from_jacobian(design, residuals, 2)
        ratio = intercept / slope
        try:
            slope_squared = slope**2
        except OverflowError:  # rates beyond 1e154 /s: inf, as numpy's power gave
            slope_squared = math.inf
        jac = [
            [-intercept / slope_squared, 1.0 / slope],
            [1.0, 0.0],
            [intercept / slope_squared, -1.0 / slope],
        ]
        return FitResult(
            parameters={"ratio": ratio, "slope": slope, "x_intercept": -ratio},
            covariance=_propagate(jac, cov_lin),
            residual_norm=norm(residuals),
            points_used=len(x),
            warnings=("line-intercept ratio absorbs any constant baseline "
                      "as bias baseline/slope",),
            settings={"method": "line"},
        )

    if len(grid) < 6:
        raise ValueError(f"vee fit needs at least 6 distinct flip fractions, got {len(grid)}")
    slope, ratio, baseline = _solve_vee(x, y, grid)
    eps = (x[-1] - x[0]) / (2 * (len(grid) - 1))
    if not x[0] + eps < ratio < x[-1] - eps:
        raise FitError(
            f"vertex at {ratio:.3f} is not straddled by the flip-fraction grid "
            f"[{x[0]:.3f}, {x[-1]:.3f}]; extend the grid past the vertex"
        )
    residuals = [slope * abs(xi - ratio) + baseline - yi for xi, yi in zip(x, y)]
    # Jacobian of the residuals in (ratio, slope, baseline) order
    jac = [(-slope * _sign(xi - ratio), abs(xi - ratio), 1.0) for xi in x]
    return FitResult(
        parameters={"ratio": ratio, "slope": slope, "baseline": baseline},
        covariance=_covariance_from_jacobian(jac, residuals, 3),
        residual_norm=norm(residuals),
        points_used=len(x),
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
    rates = _finite("rates", rates if _shape(rates) else [rates])
    if not rates:
        raise ValueError("rates are empty; need at least one")
    shape = _shape(coefficients)
    if len(shape) < 2:  # one source: its coefficients are a column
        coefficients = [[c] for c in (coefficients if shape else [coefficients])]
    _finite("coefficients", [c for row in coefficients for c in row])
    coeff = [[abs(float(c)) for c in row] for row in coefficients]
    n_sources = len(coeff[0]) if coeff else 1
    baseline_shape = _shape(baseline)
    if len(baseline_shape) > 1 or baseline_shape and baseline_shape[0] not in (1, len(rates)):
        raise ValueError(f"baseline needs one value or one per rate ({len(rates)}), "
                         f"got shape {baseline_shape}")
    baseline = _finite("baseline", baseline if baseline_shape else [baseline])
    if len(coeff) != len(rates):
        raise ValueError("coefficients must have one row per rate")
    if any(all(row[j] == 0 for row in coeff) for j in range(n_sources)):
        raise ValueError("every noise source needs a nonzero coefficient")
    names = tuple(source_names) if source_names else tuple(
        f"sigma_{j}" for j in range(n_sources)
    )
    if len(names) != n_sources:
        raise ValueError("one name per source required")
    if rate_errors is not None:
        errors_shape = _shape(rate_errors)
        rate_errors = [float(e) for e in (rate_errors if errors_shape else [rate_errors])]
        if len(errors_shape) > 1 or len(rate_errors) != len(rates) or not all(
                math.isfinite(e) and e > 0 for e in rate_errors):
            raise ValueError("rate_errors needs one positive, finite error per rate")
    excess = [r - b for r, b in zip(rates, baseline * len(rates) if len(baseline) == 1
                                    else baseline)]

    warnings = ()
    if all(e <= 0 for e in excess):
        sigma = [0.0] * n_sources
        resid = [-e for e in excess]
        warnings = ("rates do not exceed the baseline; widths set to zero",)
    else:
        if rate_errors is not None:
            w = [1.0 / e for e in rate_errors]
            sigma = nnls([[c * wi for c in row] for row, wi in zip(coeff, w)],
                         [e * wi for e, wi in zip(excess, w)])
        else:
            sigma = nnls(coeff, excess)
        resid = [fitted - e for fitted, e in zip(matvec(coeff, sigma), excess)]

    coeff_rank = rank(coeff)
    if coeff_rank < n_sources:
        warnings += (f"coefficients have rank {coeff_rank} for {n_sources} sources: the "
                     "widths are not determined by these rates and their covariance is NaN",)
        cov = [[math.nan] * n_sources for _ in range(n_sources)]
    elif rate_errors is not None:
        cov = inverse_gram([[c / e for c in row] for row, e in zip(coeff, rate_errors)])
    else:
        cov = _covariance_from_jacobian(coeff, resid, n_sources)
    return FitResult(
        parameters=dict(zip(names, sigma)),
        covariance=cov,
        residual_norm=norm(resid),
        points_used=len(rates),
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
