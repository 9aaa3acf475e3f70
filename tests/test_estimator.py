"""Fit routines and characterization algebra.

Synthetic data is generated from closed-form expressions so each fit has
an independent oracle; stochastic checks use fixed seeds with tolerances
several times the validated spread.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit, least_squares
from scipy.optimize import nnls as scipy_nnls

from nvecho.estimator import (
    FitError,
    RateTable,
    estimate_sigma,
    fit_cosine,
    fit_exponential,
    fit_vee,
    predict_echo_rate,
)
from nvecho.config import load_packaged_scenario
from nvecho.noise import field_source, lorentzian, temperature_source
from nvecho.response import LinearResponse, default_linear_response
from nvecho.scenarios import run_scenario
from nvecho.sequences import read_csv, scans
from nvecho.solvers import bisect_minimum, nnls
from nvecho.spin_model import pair_sensitivity
from nvecho.units import TWO_PI


def _assert_psd(cov):
    cov = np.asarray(cov)
    assert np.allclose(cov, cov.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-9


# ----------------------------------------------------------------- cosine

def test_fit_cosine_exact():
    phases = np.linspace(0.0, 2 * math.pi, 8)
    signal = 0.5 + 0.5 * np.cos(phases)
    res = fit_cosine(phases, signal)
    assert res["contrast"] == pytest.approx(1.0, abs=1e-10)
    assert res["phase"] == pytest.approx(0.0, abs=1e-10)
    assert res["maximum"] == pytest.approx(1.0, abs=1e-10)
    assert res.points_used == 8
    _assert_psd(res.covariance)


def test_fit_cosine_general_parameters():
    phases = np.linspace(0.0, 2 * math.pi, 16)
    signal = 0.5 - 0.2 + 0.2 * np.cos(phases + 0.7)
    res = fit_cosine(phases, signal)
    assert res["contrast"] == pytest.approx(0.4, rel=1e-10)
    assert res["phase"] == pytest.approx(0.7, abs=1e-10)
    assert res["maximum"] == pytest.approx(0.5, rel=1e-10)


def test_fit_cosine_zero_contrast_flagged():
    phases = np.linspace(0.0, 2 * math.pi, 10)
    res = fit_cosine(phases, np.full_like(phases, 0.3))
    assert res["contrast"] == pytest.approx(0.0, abs=1e-12)
    assert any("unconstrained" in w for w in res.warnings)


def test_fit_cosine_noisy_recovery():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        phases = np.linspace(0.0, 2 * math.pi, 32)
        signal = 0.9 - 0.4 + 0.4 * np.cos(phases + 0.4)
        res = fit_cosine(phases, signal + rng.normal(0.0, 0.01, phases.size))
        worst = max(worst, abs(res["contrast"] - 0.8) / 0.8)
    assert worst < 0.03


def test_fit_cosine_validation():
    with pytest.raises(ValueError):
        fit_cosine([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    short_span = np.linspace(0.0, math.pi, 8)
    with pytest.raises(FitError):
        fit_cosine(short_span, np.cos(short_span))


# ------------------------------------------------------------ exponential

def test_fit_exponential_exact():
    tau = 2.2e-3
    times = np.linspace(0.0, 5 * tau, 12)
    res = fit_exponential(times, 0.8 * np.exp(-times / tau))
    assert res["coherence_time"] == pytest.approx(tau, rel=1e-8)
    assert res["initial_amplitude"] == pytest.approx(0.8, rel=1e-8)
    assert res.points_used == 9
    assert res.settings["skip_initial"] == 3
    _assert_psd(res.covariance)


def test_fit_exponential_unprotected_scan():
    # Lorentzian 5 K ensemble on the m_S = 0 branch: 1/e time 1/(2pi 39 * 5)
    src = temperature_source(lorentzian(0.0, 5.0))
    times = np.linspace(5e-5, 2.5e-3, 14)
    [sig] = scans([("ramsey", {}, "total_time", times)], (src,))
    res = fit_exponential(sig.x, sig.y)
    assert res["coherence_time"] == pytest.approx(1.0 / (TWO_PI * 39.0 * 5.0), rel=1e-3)


def test_fit_exponential_protected_scan_hits_residual_ceiling():
    # At the exact slope ratio only the residual field rate is left.
    resp = default_linear_response()
    ratio = resp.quadrupole_per_K / resp.hyperfine_per_K
    sq_rate = 1.0 / 3.9e-3
    src = field_source(lorentzian(0.0, sq_rate / (TWO_PI * 307.7)))
    times = np.linspace(2e-4, 1.5e-2, 12)
    [sig] = scans([("unbalanced_echo", {"flip_fraction": ratio}, "total_time", times)],
                  (temperature_source(lorentzian(0.0, 5.0)), src))
    res = fit_exponential(sig.x, sig.y)
    assert res["coherence_time"] == pytest.approx(3.9e-3, rel=1e-3)


def test_fit_exponential_errors():
    times = np.linspace(0.0, 1.0, 10)
    with pytest.raises(FitError):
        fit_exponential(times, np.exp(+times))
    with pytest.raises(ValueError):
        fit_exponential(times[:7], np.exp(-times[:7]))  # only 4 left after skip
    res = fit_exponential(times[:8], np.exp(-times[:8]))
    assert res["coherence_time"] == pytest.approx(1.0, rel=1e-8)
    assert res.points_used == 5
    # equal times used to fit a coherence time
    with pytest.raises(ValueError, match="times must strictly increase"):
        fit_exponential(np.full(8, 1e-3), np.exp(-np.arange(8.0)))


@pytest.mark.parametrize("times, amplitudes, message", [
    (np.linspace(0.0, 1.0, 10), np.ones(8), r"amplitudes must have the shape of times \(10,\), got \(8,\)"),
    (np.linspace(0.0, 1.0, 10), np.ones(12), r"amplitudes must have the shape of times \(10,\), got \(12,\)"),
    (np.linspace(0.0, 1.0, 10), 0.5, r"amplitudes must have the shape of times \(10,\), got \(\)"),
    (np.ones((2, 2)), np.ones((2, 2)), r"times must be a 1-d array, got shape \(2, 2\)"),
    (1e-3, 0.5, r"times must be a 1-d array, got shape \(\)"),
], ids=["short", "long", "scalar-amplitudes", "2-d", "scalars"])
def test_fit_exponential_refuses_mismatched_shapes(times, amplitudes, message):
    # these raised IndexError from a boolean mask, or reported "too few
    # positive amplitudes" for a 2-d array
    with pytest.raises(ValueError, match=message):
        fit_exponential(times, amplitudes)


def _decay(t, c0, t2):
    return c0 * np.exp(-t / t2)


def _oracle_decays(protection_runs, tmp_path):
    """(label, times, amplitudes) of the packaged and seeded noisy decays,
    as arrays."""
    fig1c = run_scenario(load_packaged_scenario("fig1c"), out_dir=tmp_path, deterministic=True)
    runs = [("fig1c", fig1c)] + [(name, protection_runs[name][1]) for name in ("fig4", "s5")]
    cases = [(f"{name} {k}", np.array(result.signals[k].x), np.array(result.signals[k].y))
             for name, result in runs for k in ("protected", "unprotected")]
    rng = np.random.default_rng(2024)
    for i in range(8):
        times = np.geomspace(1e-4, 2e-2, int(rng.integers(9, 30)))
        t2, c0 = 10 ** rng.uniform(-3.5, -2.0), rng.uniform(0.3, 1.2)
        noise = rng.normal(0.0, rng.choice([1e-4, 1e-2, 5e-2]), times.size)
        cases.append((f"noisy {i}", times, _decay(times, c0, t2) + noise))
    return cases


def test_fit_exponential_reaches_the_least_squares_minimum(protection_runs, tmp_path):
    # curve_fit as the oracle: with its default tolerances it stops short of
    # the minimum; run to convergence it agrees with the fit
    for label, times, amplitudes in _oracle_decays(protection_runs, tmp_path):
        t, y = times[3:], amplitudes[3:]
        res = fit_exponential(times, amplitudes)
        ours = (res["initial_amplitude"], res["coherence_time"])
        slope, intercept = np.polyfit(t[y > 0], np.log(y[y > 0]), 1)
        p0 = (math.exp(intercept), -1.0 / slope)
        default = curve_fit(_decay, t, y, p0=p0, maxfev=10000)[0]
        tight = curve_fit(_decay, t, y, p0=p0, maxfev=10000, xtol=1e-15, ftol=1e-15,
                          gtol=1e-15)[0]
        rss = float(np.sum((_decay(t, *ours) - y) ** 2))
        assert rss <= float(np.sum((_decay(t, *default) - y) ** 2)) * (1 + 1e-12), label
        assert res.residual_norm == pytest.approx(math.sqrt(rss), rel=1e-12), label
        assert ours == pytest.approx(tuple(tight), rel=1e-6), label


REFERENCE = Path(__file__).parent / "data" / "reference"
DECAY_SCANS = [f"{name}-{label}" for name in ("fig1c", "fig4", "s5")
               for label in ("protected", "unprotected")]


@pytest.mark.parametrize("scan", DECAY_SCANS)
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(data=st.data())
def test_fit_exponential_is_stable_to_the_last_bit_of_the_data(scan, data):
    # the fit stops where the data put it, not where a stopping rule first
    # holds: amplitudes moved by at most one ulp each move T2 and c0 by
    # rounding only
    signal = read_csv(REFERENCE / f"{scan}.csv")
    moves = data.draw(st.lists(st.sampled_from([-math.inf, 0.0, math.inf]),
                               min_size=len(signal.y), max_size=len(signal.y)))
    moved = [math.nextafter(v, m) if m else v for v, m in zip(signal.y, moves)]
    fit, refit = fit_exponential(signal.x, signal.y), fit_exponential(signal.x, moved)
    for name in ("coherence_time", "initial_amplitude"):
        assert refit[name] == pytest.approx(fit[name], rel=1e-12, abs=0.0), name


def test_fit_exponential_finds_the_minimum_below_the_runaway_limit():
    # after the skip, one point at 1 and the rest near 0: the T2 -> 0 limit,
    # where c0 exp(-t / T2) meets the first point and leaves the others as
    # residuals, has a residual norm of 2.0e-3, but the least squares have an
    # interior minimum below it (T2 about 14.5 us, c0 about 9.9e11)
    times = np.arange(1.0, 9.0) * 1e-4
    amplitudes = np.array([1.0, 1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3, -1e-3])
    res = fit_exponential(times, amplitudes)
    assert res.residual_norm == pytest.approx(1.73e-3, rel=1e-3)
    limit = np.linalg.norm(amplitudes[4:])
    assert limit == pytest.approx(2.0e-3) and res.residual_norm < limit
    assert res["coherence_time"] == pytest.approx(14.5e-6, rel=1e-2)
    assert res["initial_amplitude"] == pytest.approx(9.9e11, rel=1e-2)
    t, y = times[3:], amplitudes[3:]
    ours = (res["initial_amplitude"], res["coherence_time"])
    tight = least_squares(lambda p: _decay(t, *p) - y, ours, method="lm", xtol=1e-15,
                          ftol=1e-15, gtol=1e-15)
    assert 2 * tight.cost >= res.residual_norm**2 * (1 - 1e-12)


# after the skip, a point at 1 and then one below 0: any decay that reaches
# the second point moves away from it, so the cost falls all the way to T2 -> 0
RUNAWAY = np.array([1.0, 1.0, 1.0, 1.0, -1e-3, 1e-3, 1e-3, 1e-3])


def test_fit_exponential_runaway_minimum_raises():
    times = np.arange(1.0, 9.0) * 1e-4
    t, y = times[3:], RUNAWAY[3:]
    lag = t - t[0]
    slope = np.polyfit(t[y > 0], np.log(y[y > 0]), 1)[0]
    # h = sum(y d t) sum(d^2) - sum(y d) sum(d^2 t), summed exactly over the
    # decays at each point of the bracket, which steps by ln 2 from the
    # log-linear start: h < 0, the cost rises with T2, at every point down to
    # where the decays past the first underflow
    signs, log_t2 = set(), math.log(-1.0 / slope)
    while True:
        decay = [Fraction(math.exp(-float(lk) / math.exp(log_t2))) for lk in lag]
        if not any(decay[1:]):
            break
        ys, ts = [Fraction(float(v)) for v in y], [Fraction(float(v)) for v in lag]
        h = (sum(a * d * b for a, d, b in zip(ys, decay, ts)) * sum(d * d for d in decay)
             - sum(a * d for a, d in zip(ys, decay)) * sum(d * d * b for d, b in zip(decay, ts)))
        signs.add((h > 0) - (h < 0))
        log_t2 -= math.log(2.0)
    assert signs == {-1}
    with pytest.raises(FitError, match="did not converge"):
        fit_exponential(times, RUNAWAY)


def test_fit_exponential_takes_no_maximum_of_the_cost():
    # noise about zero after the skip: near the log-linear start the cost
    # with c0 projected out has a maximum in T2 (at 3.8 ms, c0 < 0), where h
    # turns as it does at a minimum with c0 > 0.  The cost's slope has the
    # sign of -c0 h, so the fit passes the maximum by, and from there the
    # cost falls all the way to T2 -> infinity
    times = [0.17e-3, 0.2e-3, 0.87e-3, 1.13e-3, 1.35e-3, 1.82e-3, 2.57e-3, 4.76e-3, 6.53e-3,
             7.47e-3, 9.3e-3]
    amplitudes = [0.84, 0.32, -0.47, -0.03, -0.36, 0.14, 0.37, 0.14, -0.07, -0.28, -0.17]
    with pytest.raises(FitError, match="did not converge"):
        fit_exponential(times, amplitudes)


# -------------------------------------------------------------- rate table

def test_rate_table_validation_and_csv(tmp_path):
    table = RateTable(metadata={"sigma_T_K": 5.0})
    table.add((0, -1), (0, 1), 0.1, 500.0, rate_error=12.0)
    table.add((0, -1), (0, 1), 0.2, 250.0)
    with pytest.raises(ValueError):
        table.add((0, -1), (0, 1), 0.3, -5.0)
    with pytest.raises(ValueError):
        table.add((0, -1), (0, 1), 1.5, 5.0)
    path = tmp_path / "rates.csv"
    table.write_csv(path, deterministic=True)
    again = read_csv(path)
    assert type(again) is RateTable
    assert len(again.rows) == 2
    assert again.rows[0].pair == (0, -1)
    assert again.rows[0].ms_pairing == (0, 1)
    assert again.rows[0].rate == 500.0
    assert again.rows[0].rate_error == 12.0
    assert again.rows[1].rate_error is None
    assert again.metadata["sigma_T_K"] == 5.0
    # the schema line alone does not make a rate table: its header must too
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header] = lines[header].replace("rate_per_s", "rate")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{header + 1}: header ") +
                       ".* is neither a signal's .* nor a rate table's"):
        read_csv(path)


@pytest.mark.parametrize("pair, pairing, problem", [
    ((0, 7), (0, 1), r"pair\[1\] must be one of -1, 0, \+1, got 7"),
    ((0, 0), (0, 1), "distinct m_I levels"),
    ((0,), (0, 1), "transition pair must be two m_I levels"),
    ((0, -1), (2, 1), r"ms_free must be one of -1, 0, \+1, got 2"),
    ((0, -1), (0, True), r"ms_flipped must be one of -1, 0, \+1, got True"),
    ((0, -1), (1, 1), "ms_flipped: must differ from ms_free"),
], ids=["pair-level", "pair-equal", "pair-short", "ms-free", "ms-flipped-bool", "one-manifold"])
def test_rate_rows_refuse_echoes_the_fit_cannot_build(pair, pairing, problem):
    # each used to be stored, and fit_vee then refused a pair level or fitted
    # a line through rates that a flip within one manifold cannot move
    with pytest.raises(ValueError, match=problem):
        RateTable().add(pair, pairing, 0.1, 500.0)


def test_predict_echo_rate_refuses_a_flip_within_one_manifold():
    with pytest.raises(ValueError, match="ms_flipped: must differ from ms_free"):
        predict_echo_rate((0, -1), 0.1, ms_free=1, ms_flipped=1)


def _vee_table(x, rates, pair=(0, -1), pairing=(0, 1)):
    table = RateTable()
    for xi, yi in zip(x, rates):
        table.add(pair, pairing, xi, yi)
    return table


# each fit, its (x, y) names, a clean x grid and the y it fits
FITS = {
    "exponential": (fit_exponential, ("times", "amplitudes"), np.linspace(1e-4, 2e-3, 12),
                    lambda x: np.exp(-x / 1e-3)),
    "cosine": (fit_cosine, ("phases", "signal"), np.linspace(0.0, 2 * math.pi, 12),
               lambda x: 0.6 + 0.4 * np.cos(x + 0.3)),
    "vee": (lambda x, y: fit_vee(_vee_table(x, y)), ("tau_over_t", "rate"),
            np.linspace(0.05, 0.35, 12), lambda x: 6408.85 * np.abs(x - 0.181) + 128.2),
}


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(FITS))
def test_fits_refuse_non_finite_data_before_any_solver(capfd, kind, bad, axis):
    # a NaN used to give a fit of NaNs, a wrong diagnosis, or an SVD that did
    # not converge after LAPACK printed to stderr
    fit, names, x, model = FITS[kind]
    data = [x, model(x)]
    assert fit(*data)
    data[axis] = data[axis].copy()
    data[axis][4] = bad
    with pytest.raises(ValueError, match=names[axis]) as excinfo:
        fit(*data)
    assert excinfo.type is ValueError
    if kind != "vee":  # a rate table refuses the row, not the fit
        assert f"{names[axis]}[4] is {bad}" in str(excinfo.value)
    assert capfd.readouterr().err == ""


def test_rate_rows_refuse_non_finite_errors():
    table = RateTable()
    for rate_error in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rate_error must be finite"):
            table.add((0, -1), (0, 1), 0.1, 500.0, rate_error=rate_error)
    assert not table.rows


@pytest.mark.parametrize("field, args", [
    ("tau_over_t", (True, 5.0)),
    ("tau_over_t", (np.array([0.1]), 5.0)),
    ("rate", (0.1, True)),
    ("rate_error", (0.1, 500.0, False)),
], ids=["bool-tau-over-t", "array-tau-over-t", "bool-rate", "bool-rate-error"])
def test_rate_rows_refuse_a_bool_or_an_array(field, args):
    # True was taken as 1.0 and added a row at flip fraction 1
    table = RateTable()
    with pytest.raises(ValueError, match=f"{field} must be a plain number, got "):
        table.add((0, -1), (0, 1), *args)
    assert not table.rows


def test_fit_vee_noiseless_recovery():
    x = np.linspace(0.0, 0.4, 21)
    table = _vee_table(x, 6400.0 * np.abs(x - 0.18) + 1e-9)
    res = fit_vee(table)
    assert res.settings["method"] == "vee"
    assert res["ratio"] == pytest.approx(0.18, abs=1e-6)
    assert res["slope"] == pytest.approx(6400.0, rel=1e-6)
    assert res["baseline"] == pytest.approx(0.0, abs=1e-6)
    _assert_psd(res.covariance)


def test_fit_vee_crossing_is_baseline_invariant():
    x = np.linspace(0.0, 0.4, 21)
    base = fit_vee(_vee_table(x, 6400.0 * np.abs(x - 0.18) + 1e-9))
    lifted = fit_vee(_vee_table(x, 6400.0 * np.abs(x - 0.18) + 300.0))
    assert lifted["ratio"] == pytest.approx(base["ratio"], abs=1e-6)
    assert lifted["baseline"] == pytest.approx(300.0, rel=1e-6)
    # plain least squares: the settings name the branch and nothing else
    assert lifted.settings == {"method": "vee"}


def test_fit_vee_line_branch_reports_baseline_bias():
    # Non-cancelling branch: straight line; intercept method inflates the
    # ratio by baseline/slope.
    x = np.linspace(0.0, 0.4, 21)
    table = _vee_table(x, 1000.0 * (x + 0.2) + 50.0, pair=(0, +1))
    res = fit_vee(table)
    assert res.settings["method"] == "line"
    assert res["ratio"] == pytest.approx(0.25, rel=1e-9)
    assert res["x_intercept"] == pytest.approx(-0.25, rel=1e-9)
    assert any("baseline" in w for w in res.warnings)
    # one flip fraction leaves the line's two unknowns one equation: it used
    # to return lstsq's minimum-norm answer, a ratio of 1 / (tau/t)
    for x in ([0.2], [0.2, 0.2, 0.2]):
        with pytest.raises(ValueError, match="line fit needs at least 2 distinct flip fractions"):
            fit_vee(_vee_table(x, [1000.0 * (0.2 + 0.2) + 50.0] * len(x), pair=(0, +1)))


def test_fit_vee_line_of_rates_whose_slope_squared_overflows():
    # Python's ** raises OverflowError where numpy's power gave inf: the line
    # fit of rates near 1e300 /s raised it, where it used to report its
    # parameters with a covariance of NaNs
    x = np.linspace(0.0, 0.5, 11)
    res = fit_vee(_vee_table(x, 1e300 * (x + 0.2), pair=(0, +1)))
    assert res["ratio"] == pytest.approx(0.2, rel=1e-9)
    assert np.isnan(res.covariance).all()


def test_fit_vee_dispatch_follows_flip_sign():
    # Flip to m_S = -1 inverts the hyperfine sign, so the same (0, +1)
    # pair becomes the cancelling branch.
    x = np.linspace(0.0, 0.4, 21)
    table = _vee_table(x, 6400.0 * np.abs(x - 0.18) + 1.0, pair=(0, +1), pairing=(0, -1))
    res = fit_vee(table)
    assert res.settings["method"] == "vee"
    assert res["ratio"] == pytest.approx(0.18, abs=1e-6)


PAIRS = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, 1), (1, -1))
PAIRINGS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a != b)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("pair", PAIRS)
def test_fit_vee_branch_is_where_the_temperature_term_vanishes(pair, pairing):
    # fig2's response, which is not the default one the branch is read from
    response = LinearResponse(quadrupole_per_K=TWO_PI * 36.924, hyperfine_per_K=TWO_PI * 204.0)
    sq, sa0, _ = pair_sensitivity(pair, pairing[0], 1.0)
    _, sa1, _ = pair_sensitivity(pair, pairing[1], 1.0)
    c_free = sq * response.quadrupole_per_K + sa0 * response.hyperfine_per_K
    c_flip = sq * response.quadrupole_per_K + sa1 * response.hyperfine_per_K
    crossing = c_free / (c_free - c_flip)  # where the temperature term vanishes
    x = np.linspace(0.0, 1.0, 41)
    table = _vee_table(x, [predict_echo_rate(pair, f, *pairing, sigma_T=5.0, sigma_B=0.05,
                                             response=response) for f in x],
                       pair=pair, pairing=pairing)
    res = fit_vee(table)
    if 0.0 < crossing < 1.0:
        assert res.settings["method"] == "vee"
        assert res["ratio"] == pytest.approx(crossing, abs=1e-9)
    else:
        assert res.settings["method"] == "line"
        assert res["x_intercept"] < 0.0 or res["x_intercept"] > 1.0


def test_fit_vee_requires_straddled_vertex():
    x = np.linspace(0.25, 0.45, 8)
    table = _vee_table(x, 6400.0 * np.abs(x - 0.18) + 1.0)
    with pytest.raises(FitError, match="extend"):
        fit_vee(table)
    with pytest.raises(ValueError):
        fit_vee(_vee_table(np.linspace(0, 0.4, 5), np.ones(5)))
    # six rows at two flip fractions are two grid points: the vee used to fit
    # with ratio 0.151, baseline 0 and variances near 5e18
    two = _vee_table([0.1] * 3 + [0.3] * 3, [300.0, 310.0, 305.0, 900.0, 890.0, 905.0])
    with pytest.raises(ValueError, match="at least 6 distinct flip fractions, got 2"):
        fit_vee(two)


def test_fit_vee_refuses_an_empty_table():
    # an empty table used to raise numpy's IndexError from the grid mask
    with pytest.raises(ValueError, match="the table is empty"):
        fit_vee(RateTable())


def _rss(x, y, slope, ratio, baseline):
    r = slope * np.abs(x - ratio) + baseline - y
    return float(r @ r)


def _profile_rss(x, y, ratio):
    """Least RSS with the vertex at ``ratio`` and slope, baseline >= 0."""
    return scipy_nnls(np.column_stack([np.abs(x - ratio), np.ones_like(x)]), y)[1] ** 2


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    n=st.integers(6, 25),
    lo=st.floats(0.0, 0.1),
    hi=st.floats(0.3, 0.5),
    where=st.floats(0.25, 0.75),
    slope=st.floats(100.0, 1e4),
    baseline=st.floats(1.0, 500.0),
    noise=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    seed=st.integers(0, 2**16),
)
def test_fit_vee_is_the_global_least_squares_optimum(n, lo, hi, where, slope, baseline,
                                                     noise, seed):
    # no vertex on a grid point, nor anywhere sampled within a grid interval,
    # leaves a lower residual sum of squares than the fitted vee
    x = np.linspace(lo, hi, n)
    clean = slope * np.abs(x - (lo + where * (hi - lo))) + baseline
    y = np.abs(clean * (1 + noise * np.random.default_rng(seed).standard_normal(n))) + 1e-6
    try:
        res = fit_vee(_vee_table(x, y))
    except FitError:
        return  # a vertex the grid does not straddle; checked elsewhere
    best = _rss(x, y, res["slope"], res["ratio"], res["baseline"])
    assert best == pytest.approx(res.residual_norm ** 2, rel=1e-9, abs=1e-20)
    probes = np.concatenate([x, *(np.linspace(a, b, 41)[1:-1] for a, b in zip(x[:-1], x[1:]))])
    floor = min(_profile_rss(x, y, r) for r in probes)
    assert best <= floor * (1 + 1e-9) + 1e-18 * float(y @ y)


def _vee_least_squares(x, y):
    """The bounded local least squares from the best of 201 vertex
    candidates, converged tightly."""
    candidates = np.linspace(x[0], x[-1], 201)[1:-1]
    start = min(candidates, key=lambda r: _profile_rss(x, y, r))
    (a0, b0), _ = scipy_nnls(np.column_stack([np.abs(x - start), np.ones_like(x)]), y)
    fit = least_squares(lambda p: p[0] * np.abs(x - p[1]) + p[2] - y,
                        [max(a0, 1e-12), start, b0],
                        bounds=([0.0, x[0], 0.0], [np.inf, x[-1], np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return fit.x


@pytest.mark.parametrize("noise", [0.0, 0.01, 0.05])
def test_fit_vee_agrees_with_least_squares(noise):
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = np.linspace(0.0, 0.4, int(rng.integers(11, 26)))
        ratio, slope, baseline = rng.uniform(0.12, 0.28), rng.uniform(1e3, 8e3), rng.uniform(5, 300)
        y = (slope * np.abs(x - ratio) + baseline) * (1 + noise * rng.standard_normal(x.size))
        res = fit_vee(_vee_table(x, y))
        a, r, b = _vee_least_squares(x, y)
        assert res["ratio"] == pytest.approx(r, rel=1e-6)
        assert res["slope"] == pytest.approx(a, rel=1e-6)
        assert res["baseline"] == pytest.approx(b, rel=1e-6, abs=1e-6 * slope)


# ------------------------------------------------------------ sigma widths

def test_estimate_sigma_single_source():
    rate = TWO_PI * 39.0 * 5.0  # the 816 us unprotected rate
    res = estimate_sigma([rate], [TWO_PI * 39.0], source_names=("temperature",))
    assert res["temperature"] == pytest.approx(5.0, rel=1e-9)
    assert not res.warnings


def test_estimate_sigma_below_baseline_warns():
    res = estimate_sigma([100.0], [TWO_PI * 39.0], baseline=150.0)
    assert res["sigma_0"] == 0.0
    assert any("baseline" in w for w in res.warnings)


@pytest.mark.parametrize("rate_errors", [None, [1.0, 2.0, 3.0]])
def test_estimate_sigma_warns_on_a_rank_deficient_system(rate_errors):
    # two identical columns: only the sum of the widths is determined, and the
    # NaN covariance came with no warning
    res = estimate_sigma([100.0, 200.0, 300.0], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                         rate_errors=rate_errors)
    assert res["sigma_0"] + res["sigma_1"] == pytest.approx(100.0, rel=1e-12)
    assert np.isnan(res.covariance).all()
    assert res.warnings == ("coefficients have rank 1 for 2 sources: the widths are not "
                            "determined by these rates and their covariance is NaN",)
    full = estimate_sigma([100.0, 210.0, 300.0], [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]],
                          rate_errors=rate_errors)
    assert not full.warnings and np.isfinite(full.covariance).all()


def test_estimate_sigma_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        estimate_sigma([100.0, 200.0], np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("kwargs, name", [
    ({"rates": [1.0, math.nan, 3.0]}, "rates must be finite"),
    ({"baseline": math.nan}, "baseline must be finite"),
    ({"coefficients": [1.0, math.nan, 3.0]}, "coefficients must be finite"),
    ({"coefficients": [1.0, 2.0, math.inf]}, "coefficients must be finite"),
    ({"baseline": [0.1, 0.2]}, "baseline needs one value or one per rate"),
    ({"baseline": [[0.1], [0.2], [0.3]]}, "baseline needs one value or one per rate"),
    # used to say that every noise source needs a nonzero coefficient
    ({"rates": [], "coefficients": []}, "rates are empty"),
    ({"coefficients": [[1.0], [2.0]]}, "one row per rate"),
    ({"source_names": ("temperature", "strain")}, "one name per source"),
])
def test_estimate_sigma_names_bad_inputs(kwargs, name):
    good = {"rates": [1.0, 2.0, 3.0], "coefficients": [1.0, 2.0, 3.0], "baseline": 0.0}
    with pytest.raises(ValueError, match=name):
        estimate_sigma(**(good | kwargs))
    assert estimate_sigma(**(good | {"baseline": [0.1, 0.2, 0.3]}))["sigma_0"] > 0


def test_estimate_sigma_two_sources_from_four_rates():
    resp = default_linear_response()
    combos = ((-1, -1), (1, -1), (1, 1), (1, 0))
    coeff = np.array([
        [
            abs(resp.quadrupole_per_K + mi * ms * resp.hyperfine_per_K),
            abs(resp.quadrupole_per_strain + mi * ms * resp.hyperfine_per_strain),
        ]
        for mi, ms in combos
    ])
    rates = coeff @ np.array([5.0, 1e-5])
    res = estimate_sigma(rates, coeff, source_names=("temperature", "strain"))
    assert res["temperature"] == pytest.approx(5.0, rel=1e-6)
    assert res["strain"] == pytest.approx(1e-5, rel=1e-6)


def test_estimate_sigma_propagates_rate_errors():
    res = estimate_sigma([1000.0], [200.0], rate_errors=[20.0])
    assert res["sigma_0"] == pytest.approx(5.0, rel=1e-9)
    assert math.sqrt(res.covariance[0][0]) == pytest.approx(0.1, rel=1e-9)


def test_estimate_sigma_rejects_bad_rate_errors():
    # an error of 0 used to give sigma = 0 with covariance [[0]], a NaN a
    # LinAlgError, and a negative error was taken as it was
    for errors in ([0.0, 1.0, 1.0], [math.nan, 1.0, 1.0], [-1.0, 1.0, 1.0],
                   [1.0, math.inf, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="one positive, finite error per rate"):
            estimate_sigma([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], rate_errors=errors)
    res = estimate_sigma([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], rate_errors=[1.0, 1.0, 1.0])
    assert res["sigma_0"] == pytest.approx(1.0, rel=1e-12)


def _adjacent(lo, hi):
    return lo == hi or math.nextafter(lo, math.inf) == hi


def test_bisect_minimum_finds_a_sign_change_or_raises():
    # the derivative of (x - 1)^2 / 2 from either side; a zero at the start
    # is the minimum itself
    for x0 in (5.0, -3.0, 1.0 + 1e-9):
        lo, hi = bisect_minimum(lambda x: x - 1.0, x0)
        assert type(lo) is float and lo <= 1.0 <= hi and _adjacent(lo, hi), x0
    assert bisect_minimum(lambda x: x - 2.0, 2.0) == (2.0, 2.0)
    # a zero on the way out does not end the bracket, and one within it is a
    # minimum: the flat stretch between -1 and 3
    lo, hi = bisect_minimum(lambda x: (x > 3.0) - (x < -1.0), 5.0)
    assert lo == hi and -1.0 <= lo <= 0.0
    # a cost that falls until its model overflows runs off: no minimum
    with pytest.raises(FitError, match="did not converge"):
        bisect_minimum(lambda x: -math.exp(x), 0.0)
    with pytest.raises(FitError, match="not finite"):
        bisect_minimum(lambda x: math.inf, 0.0)
    with pytest.raises(FitError, match="not finite"):
        bisect_minimum(lambda x: math.nan if x > 2.0 else -1.0, 0.0)


def test_bisect_minimum_refuses_a_point_where_python_floats_raise():
    # math.exp and ** raise OverflowError and a division by zero raises where
    # numpy gave inf: a point where the cost's derivative raises ends the
    # search, at the start, on the way out or within the bracket
    for error in (OverflowError, ZeroDivisionError):
        for raising_call in (1, 3, 9):
            calls = []

            def slope(x):
                calls.append(x)
                if len(calls) == raising_call:
                    raise error
                return x - 1.0

            with pytest.raises(FitError, match="did not converge.*not finite"):
                bisect_minimum(slope, 5.0)
            assert len(calls) == raising_call


def test_nnls_agrees_with_scipy():
    rng = np.random.default_rng(8)
    for m, n in ((8, 3), (20, 6), (6, 6), (4, 7), (30, 12)):
        for _ in range(10):
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            expected, rnorm = scipy_nnls(a, b)
            x = np.asarray(nnls(a, b))
            assert np.all(x >= 0)
            assert np.linalg.norm(a @ x - b) == pytest.approx(rnorm, rel=1e-10, abs=1e-12)
            if m >= n:  # full column rank: the minimizer is unique
                assert np.allclose(x, expected, rtol=1e-10, atol=1e-12)


def test_nnls_agrees_with_scipy_on_rank_deficient_problems():
    # duplicated and dependent columns: the minimizer need not be unique,
    # the residual and the fitted values are
    rng = np.random.default_rng(9)
    for m, n, rank in ((10, 4, 2), (12, 6, 3), (5, 8, 2)):
        for _ in range(10):
            a = rng.standard_normal((m, rank)) @ rng.uniform(0.0, 1.0, (rank, n))
            a[:, -1] = a[:, 0]
            b = rng.standard_normal(m)
            expected, rnorm = scipy_nnls(a, b)
            x = np.asarray(nnls(a, b))
            assert np.all(x >= 0)
            assert np.linalg.norm(a @ x - b) == pytest.approx(rnorm, rel=1e-10, abs=1e-12)
            assert np.allclose(a @ x, a @ expected, rtol=1e-10, atol=1e-10)


# ------------------------------------------------------------- rate algebra

def _free_rate(pair, m_S, sigma_T=0.0, sigma_B=0.0, response=None):
    """The predicted free-evolution rate: the echo rate with no flip, whose
    flipped manifold is held for no time."""
    return predict_echo_rate(pair, 0.0, ms_free=m_S, ms_flipped=0 if m_S else 1,
                             sigma_T=sigma_T, sigma_B=sigma_B, response=response)


def test_predict_rate_zero_widths():
    assert _free_rate((0, -1), 0) == 0.0


def test_predict_rate_excess_ratio_identities():
    resp = LinearResponse(
        quadrupole_per_K=TWO_PI * 39.0, hyperfine_per_K=TWO_PI * 39.0 * 5.56
    )
    gn = TWO_PI * 307.7
    sigma_T, sigma_B = 5.0, 0.05
    base = gn * sigma_B
    excess = {
        (mi, ms): _free_rate((0, mi), ms, sigma_T, sigma_B, resp) - base
        for mi, ms in ((-1, -1), (1, -1), (1, 0), (1, 1))
    }
    ratio_states = excess[(-1, -1)] / excess[(1, -1)]
    assert ratio_states == pytest.approx(abs(1 + 5.56) / abs(1 - 5.56), rel=1e-12)
    assert round(ratio_states, 2) == 1.44
    ratio_manifolds = excess[(1, 0)] / excess[(1, 1)]
    assert ratio_manifolds == pytest.approx(1 / abs(1 + 5.56), rel=1e-12)
    assert round(ratio_manifolds, 2) == 0.15


def test_predict_rate_double_quantum():
    gn = TWO_PI * 307.7
    resp = default_linear_response()
    assert _free_rate((-1, 1), 0, sigma_B=0.1) == pytest.approx(2 * gn * 0.1, rel=1e-12)
    expected = 2 * gn * 0.1 + 2 * resp.hyperfine_per_K * 5.0
    assert _free_rate((-1, 1), 1, sigma_T=5.0, sigma_B=0.1) == pytest.approx(
        expected, rel=1e-12
    )


def test_predict_echo_rate_matches_fitted_scan():
    src_t = temperature_source(lorentzian(0.0, 5.0))
    src_b = field_source(lorentzian(0.0, 0.0663))
    times = np.linspace(5e-5, 2.5e-3, 14)
    [sig] = scans([("unbalanced_echo", {"flip_fraction": 0.1}, "total_time", times)],
                  (src_t, src_b))
    fitted = 1.0 / fit_exponential(sig.x, sig.y)["coherence_time"]
    predicted = predict_echo_rate((0, -1), 0.1, sigma_T=5.0, sigma_B=0.0663)
    assert fitted == pytest.approx(predicted, rel=1e-4)


def test_predict_echo_rate_vee_shape():
    resp = default_linear_response()
    ratio = resp.quadrupole_per_K / resp.hyperfine_per_K
    at_vertex = predict_echo_rate((0, -1), ratio, sigma_T=5.0)
    assert at_vertex == pytest.approx(0.0, abs=1e-9)
    left = predict_echo_rate((0, -1), ratio - 0.05, sigma_T=5.0)
    right = predict_echo_rate((0, -1), ratio + 0.05, sigma_T=5.0)
    assert left == pytest.approx(right, rel=1e-9)
    with pytest.raises(ValueError):
        predict_echo_rate((0, -1), 1.5)


@pytest.mark.parametrize("fraction", [True, np.array([0.1])], ids=["bool", "array"])
def test_predict_echo_rate_names_a_fraction_that_is_not_a_number(fraction):
    # the refusal came from the echo's free segment, as a duration of 1 - f
    with pytest.raises(ValueError, match="flip_fraction must be a plain number, got "):
        predict_echo_rate((0, -1), fraction)
