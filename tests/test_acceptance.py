"""Acceptance gate: the package's numbered release criteria, one test each.

Every test prints one pass/fail line (run pytest with ``-s`` to see the lines
for passing criteria; failures always show them).  Each criterion checks its
stated numeric windows at the stated tolerance and enforces its runtime
budget, so this module doubles as a performance canary.
"""

import math
import time

import numpy as np

from nvecho.estimator import (
    RateTable,
    fit_cosine,
    fit_exponential,
    fit_vee,
    predict_echo_rate,
)
from nvecho.noise import (
    dephasing_factor,
    field_source,
    gaussian,
    lorentzian,
    monte_carlo_attenuation,
    strain_source,
    temperature_source,
)
from nvecho.response import (
    LinearResponse,
    default_linear_response,
    default_quasiharmonic_set,
    PRESSURE_PER_STRAIN_GPA,
)
from nvecho.config import load_packaged_scenario
from nvecho.pulses import Segment, build_dq_ramsey, build_ramsey, build_unbalanced_echo
from nvecho.scenarios import run_scenario
from nvecho.sequences import scans, simulate_family
from nvecho.spin_model import accumulated_phase, default_params, phase_coefficients
from nvecho.units import TWO_PI, angular, cycles


def _report(number: int, detail: str, failures: list, started: float,
            budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f} s exceeds the {budget_s:.0f} s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {detail} [{elapsed:.1f} s]")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


# The six single-quantum lines (index, pair, m_S), ordered by electron
# manifold (0, -1, +1) and nuclear branch.
SIX_LINES = (
    (1, (0, +1), 0),
    (2, (0, -1), 0),
    (3, (0, +1), -1),
    (4, (0, -1), -1),
    (5, (0, +1), +1),
    (6, (0, -1), +1),
)


def _window(failures, label, value, low, high):
    if not low <= value <= high:
        failures.append(f"{label} = {value:.6g} outside [{low:.6g}, {high:.6g}]")


# 1. Exact cancellation of correlated temperature noise at the slope-ratio
#    flip fraction, across total times up to 10 ms.

def test_criterion_1_unbalanced_echo_cancellation():
    started = time.perf_counter()
    failures = []
    response = default_linear_response()
    ratio = response.quadrupole_per_K / response.hyperfine_per_K
    source = temperature_source(lorentzian(0.0, 5.0), response=response)
    worst = 0.0
    for t in np.linspace(1e-4, 10e-3, 34):
        seq = build_unbalanced_echo(float(t), ratio * float(t))
        amp = simulate_family([seq], (source,)).amplitude[0]
        worst = max(worst, abs(amp - 1.0))
    if worst > 1e-12:
        failures.append(f"worst |amplitude - 1| = {worst:.3e} exceeds 1e-12")
    _report(1, f"max |A - 1| = {worst:.1e} at tau/t = {ratio:.6f}, t <= 10 ms",
            failures, started, 1.0)


# 2. The packaged two-branch rate-table scenario recovers the slope ratio
#    0.180 +/- 0.005 from its vee fit.

def test_criterion_2_vee_ratio_recovery(tmp_path):
    started = time.perf_counter()
    failures = []
    result = run_scenario(load_packaged_scenario("fig2c"),
                          out_dir=tmp_path, deterministic=True)
    ratio = result.numbers.get("vee_ratio", float("nan"))
    _window(failures, "vee ratio", ratio, 0.175, 0.185)
    _report(2, f"fitted slope ratio {ratio:.4f} (target 0.180 +/- 0.005)",
            failures, started, 10.0)


# 3. Experimental-scale protection: unprotected vs protected coherence times
#    and their improvement factor with a 3.9 ms residual baseline.

def test_criterion_3_protection_factor_experimental_scale(tmp_path):
    started = time.perf_counter()
    failures = []
    result = run_scenario(load_packaged_scenario("fig1c"),
                          out_dir=tmp_path, deterministic=True)
    t2_u = result.numbers["unprotected_T2_s"]
    t2_p = result.numbers["protected_T2_s"]
    improvement = result.numbers["improvement"]
    _window(failures, "unprotected T2*", t2_u, 100e-6, 160e-6)
    _window(failures, "protected T2*", t2_p, 3.3e-3, 3.9e-3)
    _window(failures, "improvement", improvement, 20.0, 35.0)
    _report(3, f"T2* {t2_u * 1e6:.1f} us -> {t2_p * 1e3:.2f} ms, "
               f"improvement {improvement:.1f}x", failures, started, 30.0)


# 4. Rate-ratio algebra: the two quoted excess-rate ratios follow exactly
#    from a slope ratio of 5.56, and closed-form scans fit to the same rates.

def test_criterion_4_rate_ratio_checks():
    started = time.perf_counter()
    failures = []
    response = LinearResponse(
        quadrupole_per_K=TWO_PI * 39.0, hyperfine_per_K=TWO_PI * 39.0 * 5.56
    )
    params = default_params()
    sigma_T, sigma_B = 5.0, 0.05
    baseline = abs(params.gamma_n) * sigma_B
    cases = ((-1, -1), (1, -1), (1, 0), (1, 1))

    def free_rate(mi, ms):  # the echo rate with no flip
        return predict_echo_rate((0, mi), 0.0, ms_free=ms, ms_flipped=ms, sigma_T=sigma_T,
                                 sigma_B=sigma_B, response=response)

    excess = {(mi, ms): free_rate(mi, ms) - baseline for mi, ms in cases}
    ratio_states = excess[(-1, -1)] / excess[(1, -1)]
    ratio_manifolds = excess[(1, 0)] / excess[(1, 1)]
    if round(ratio_states, 2) != 1.44:
        failures.append(f"m_S=-1 state ratio {ratio_states:.4f} does not round to 1.44")
    if abs(ratio_states - (1 + 5.56) / (5.56 - 1)) > 1e-12:
        failures.append("state ratio is not exactly (1 + r)/(r - 1) at r = 5.56")
    if round(ratio_manifolds, 2) != 0.15:
        failures.append(f"manifold ratio {ratio_manifolds:.4f} does not round to 0.15")
    if abs(ratio_manifolds - 1 / (1 + 5.56)) > 1e-12:
        failures.append("manifold ratio is not exactly 1/(1 + r) at r = 5.56")

    sources = (temperature_source(lorentzian(0.0, sigma_T), response=response),
               field_source(lorentzian(0.0, sigma_B)))
    worst = 0.0
    for mi, ms in cases:
        rate = free_rate(mi, ms)
        t2 = 1.0 / rate
        times = np.geomspace(t2 / 20.0, 4.0 * t2, 14)
        [scan] = scans([("ramsey", {"pair": (0, mi), "ms": ms}, "total_time", times)], sources)
        fitted = 1.0 / fit_exponential(scan.x, scan.y)["coherence_time"]
        worst = max(worst, abs(fitted - rate) / rate)
    if worst > 1e-4:
        failures.append(f"fitted vs predicted rate deviates {worst:.2e} (> 1e-4)")
    _report(4, f"excess-rate ratios {ratio_states:.4f} / {ratio_manifolds:.4f}, "
               f"fit agreement {worst:.1e}", failures, started, 60.0)


# 5. Large-inhomogeneity Monte Carlo with the calibrated quasiharmonic set:
#    sweep optimum, improvement factor, truncation accounting, and the
#    100 K-width protected floor.

def test_criterion_5_large_inhomogeneity_monte_carlo(protection_runs):
    _, wide, wide_s = protection_runs["fig4"]
    _, hot, hot_s = protection_runs["s5"]
    # the budget covers both runs, which the shared fixture timed
    started = time.perf_counter() - wide_s - hot_s
    failures = []
    argmax = wide.numbers["argmax_flip_fraction"]
    improvement = wide.numbers["improvement"]
    truncated = wide.numbers["truncated_mass"]
    if wide.numbers["n_samples"] < 10**6:
        failures.append(f"only {wide.numbers['n_samples']} samples (< 1e6)")
    # the bookkeeping is the sweep's own, at its peak point
    sweep = wide.signals["sweep"]
    peak = int(np.argmax(sweep.y))
    if wide.numbers["std_error"] != float(sweep.monte_carlo.std_error[peak]):
        failures.append("reported std_error is not the sweep's at its peak")
    if wide.numbers["n_retained"] != sweep.monte_carlo.n_retained:
        failures.append("reported n_retained is not the sweep's")
    _window(failures, "argmax tau/t", argmax, 0.16, 0.19)
    if improvement < 100.0:
        failures.append(f"improvement {improvement:.1f}x below 100x")
    expected_mass = 1.0 - (math.atan(50.0) + math.atan(12.0)) / math.pi
    if abs(truncated - expected_mass) > 1e-9:
        failures.append(
            f"reported truncated mass {truncated:.6e} is not the analytic "
            f"Cauchy tail {expected_mass:.6e}"
        )
    t2_hot = hot.numbers["protected_T2_s"]
    if hot.numbers["n_samples"] < 10**6:
        failures.append(f"only {hot.numbers['n_samples']} samples (< 1e6) at 100 K")
    if t2_hot < 1e-3:
        failures.append(f"protected T2* {t2_hot * 1e3:.2f} ms below 1 ms at 100 K width")
    _report(5, f"optimum tau/t = {argmax:.3f}, improvement {improvement:.0f}x, "
               f"truncated mass {truncated:.4f}, 100 K protected T2* "
               f"{t2_hot * 1e3:.1f} ms", failures, started, 300.0)


# 6. The closed-form characteristic-function product and the Monte Carlo
#    average agree pointwise over a (t, tau/t) grid for both heavy-tailed
#    and Gaussian linear ensembles.

def test_criterion_6_backend_equivalence():
    started = time.perf_counter()
    failures = []
    details = []
    params = default_params()
    grid_t = np.linspace(2e-4, 2e-3, 10)
    fractions = np.linspace(0.0, 0.45, 10)
    for label, dist in (("lorentzian", lorentzian(0.0, 5.0)),
                        ("gaussian", gaussian(0.0, 5.0))):
        source = temperature_source(dist)
        coefficients = [
            phase_coefficients(params, seq.pair, seq.segments)
            for seq in (build_unbalanced_echo(float(t), float(f) * float(t))
                        for t in grid_t for f in fractions)
        ]
        closed = np.abs(dephasing_factor((source,), coefficients))
        mean = monte_carlo_attenuation((source,), coefficients,
                                       n_samples=1 << 20, seed=321).attenuation
        sampled = np.hypot(mean.real, mean.imag)
        worst = float(np.max(np.abs(closed - sampled)))
        details.append(f"{label} {worst:.2e}")
        if worst > 5e-3:
            failures.append(f"{label}: worst |closed - MC| = {worst:.3e} (> 5e-3)")
    _report(6, "max |closed - MC| " + ", ".join(details) + " over 10x10 grid",
            failures, started, 120.0)


# 7. Property suite: spectroscopy identities, immunity, exponentiality,
#    sweep collapse, gradients, fit round trips, batch determinism.

def test_criterion_7_property_suite():
    started = time.perf_counter()
    failures = []
    params = default_params()

    # six-line multiset against brute-force level differencing
    def energy(mi, ms, dq=0.0, da=0.0):
        return ((params.quadrupole + dq) * mi * mi
                + ms * (params.hyperfine + da) * mi
                + params.gamma_n * params.field_gauss * mi)

    # a line's frequency is the phase of one second on its pair and manifold,
    # its shift entering through the same coefficients
    def line_frequency(pair, ms, dq=0.0, da=0.0):
        c = phase_coefficients(params, pair, [Segment(1.0, ms)])
        return abs(accumulated_phase(params, c) + c.quadrupole * dq + c.hyperfine * da)

    d_q, d_a = angular(3.1e3), angular(-2.4e3)
    brute = sorted(
        abs(energy(b, ms, d_q, d_a) - energy(a, ms, d_q, d_a))
        for ms in (-1, 0, 1) for a, b in ((0, 1), (0, -1))
    )
    freq = {index: line_frequency(pair, ms, d_q, d_a) for index, pair, ms in SIX_LINES}
    if not np.allclose(brute, sorted(freq.values()), rtol=1e-12, atol=0.0):
        failures.append("six-line multiset disagrees with brute-force differencing")
    anchors_hz = sorted((5018540.3, 4871459.7, 2858540.3,
                         7031459.7, 7178540.3, 2711459.7))
    plain = sorted(cycles(line_frequency(pair, ms)) for _, pair, ms in SIX_LINES)
    if not np.allclose(plain, anchors_hz, rtol=0.0, atol=1e-3):
        failures.append("unshifted six-line frequencies moved off their anchors")

    # pairwise identities under the same shift
    q_mag = abs(params.quadrupole + d_q)
    a_mag = abs(params.hyperfine + d_a)
    if abs((freq[1] + freq[2]) / 2.0 - q_mag) > 1e-6 * q_mag:
        failures.append("(w1 + w2)/2 does not equal |Q|")
    if abs((freq[4] + freq[5] - freq[3] - freq[6]) / 4.0 - a_mag) > 1e-6 * a_mag:
        failures.append("(w4 + w5 - w3 - w6)/4 does not equal |A|")

    # double-quantum immunity to temperature noise in the m_S = 0 manifold
    dq_amp = simulate_family(
        [build_dq_ramsey(2e-3)], (temperature_source(lorentzian(0.0, 25.0)),)
    ).amplitude[0]
    if abs(dq_amp - 1.0) > 1e-12:
        failures.append(f"DQ amplitude {dq_amp!r} is not immune to temperature noise")

    # Lorentzian exponentiality: A(2t) = A(t)^2
    source = temperature_source(lorentzian(0.0, 5.0))
    for t in (2e-4, 8e-4):
        a1 = simulate_family([build_ramsey(t)], (source,)).amplitude[0]
        a2 = simulate_family([build_ramsey(2 * t)], (source,)).amplitude[0]
        if abs(a2 - a1 * a1) > 1e-9:
            failures.append(f"A(2t) != A(t)^2 at t = {t}")

    # pulse-location sweeps collapse onto one curve in (x - ratio) * t
    response = default_linear_response()
    ratio = response.quadrupole_per_K / response.hyperfine_per_K
    u = np.linspace(-1.5e-4, 1.5e-4, 9)
    curves = [sweep.y for sweep in scans(
        [("unbalanced_echo", {"total_time": t}, "flip_fraction", ratio + u / t)
         for t in (1e-3, 2e-3)], (source,))]
    if not np.allclose(curves[0], curves[1], rtol=1e-6):
        failures.append("location sweeps do not collapse in (x - ratio) * t")

    # analytic slopes of the quasiharmonic curves match central differences
    qset = default_quasiharmonic_set()
    h = 1e-2
    for name, model in (("quadrupole", qset.quadrupole),
                        ("hyperfine", qset.hyperfine), ("zfs", qset.zfs)):
        for T in (250.0, 300.0, 380.0):
            numeric = (model.shift_at(T + h) - model.shift_at(T - h)) / (2 * h)
            analytic = model.slope_at(T)
            if abs(numeric - analytic) > 1e-6 * abs(analytic):
                failures.append(f"{name} slope_at({T:g}) fails the gradient check")

    # fit round trips at 1e-6 relative
    times = np.geomspace(5e-5, 3e-3, 15)
    fit = fit_exponential(times, 0.9 * np.exp(-times / 816e-6))
    if abs(fit["coherence_time"] - 816e-6) > 1e-6 * 816e-6:
        failures.append("exponential fit does not round-trip")
    phases = np.linspace(0.0, 2.0 * math.pi, 30)
    fringe = 0.96 - 0.28 + 0.28 * np.cos(phases + 0.6)
    fit = fit_cosine(phases, fringe)
    for label, got, want in (("contrast", fit["contrast"], 0.56),
                             ("maximum", fit["maximum"], 0.96),
                             ("phase", fit["phase"], 0.6)):
        if abs(got - want) > 1e-6 * abs(want):
            failures.append(f"cosine fit {label} does not round-trip")
    xs = np.linspace(0.05, 0.35, 13)
    slope, vertex, base = 6408.85, 0.181, 128.2
    vee = RateTable()
    vee_no_base = RateTable()
    line = RateTable()
    line_no_base = RateTable()
    for x in xs:
        vee.add((0, -1), (0, 1), x, slope * abs(x - vertex) + base)
        vee_no_base.add((0, -1), (0, 1), x, slope * abs(x - vertex) + 1e-9)
        line.add((0, 1), (0, 1), x, slope * (x + vertex) + base)
        line_no_base.add((0, 1), (0, 1), x, slope * (x + vertex))
    fit = fit_vee(vee)
    for label, got, want in (("ratio", fit["ratio"], vertex),
                             ("slope", fit["slope"], slope),
                             ("baseline", fit["baseline"], base)):
        if abs(got - want) > 1e-6 * abs(want):
            failures.append(f"vee fit {label} does not round-trip")
    if abs(fit_vee(vee_no_base)["ratio"] - fit["ratio"]) > 1e-6 * vertex:
        failures.append("vee vertex is not baseline-invariant")
    bias = fit_vee(line)["ratio"] - fit_vee(line_no_base)["ratio"]
    if abs(bias - base / slope) > 1e-9:
        failures.append("line-intercept bias is not baseline/slope")

    # a Monte Carlo point does not depend on the family it is evaluated in
    hot = temperature_source(lorentzian(300.0, 25.0), response=qset)
    seq = build_unbalanced_echo(2e-3, 0.172 * 2e-3)
    kwargs = {"n_samples": 1 << 18, "seed": 99}
    alone = simulate_family([seq], (hot,), **kwargs)
    family = [build_unbalanced_echo(2e-3, f * 2e-3) for f in (0.1, 0.172, 0.3)]
    batch = simulate_family(family, (hot,), **kwargs)
    if (batch.attenuation[1].tobytes() != alone.attenuation[0].tobytes()
            or batch.base_phase[1].tobytes() != alone.base_phase[0].tobytes()):
        failures.append("the sequence family changed a Monte Carlo point")

    _report(7, "identities, immunity, exponentiality, collapse, gradients, "
               "fit round trips, batch determinism", failures, started, 120.0)


# 8. Strain channel: pressure conversion, per-interaction shifts, and the
#    strain-only echo optimum at the strain slope ratio.

def test_criterion_8_strain_channel():
    started = time.perf_counter()
    failures = []
    # a strain source shifts the interactions by its slopes times the strain
    source = strain_source(lorentzian(0.0, 1e-3))
    epsilon = 0.02
    pressure = PRESSURE_PER_STRAIN_GPA * epsilon
    if abs(pressure - (-26.58)) > 1e-12 * 26.58:
        failures.append(f"pressure {pressure:.6f} GPa is not -26.58 GPa")
    d_quadrupole, d_hyperfine, _ = (slope * epsilon for slope in source.slopes)
    expected_q = angular(1.60e3) * (-26.58)
    expected_a = angular(4.33e3) * (-26.58)
    if abs(d_quadrupole - expected_q) > 1e-10 * abs(expected_q):
        failures.append("quadrupole strain shift off its slope")
    if abs(d_hyperfine - expected_a) > 1e-10 * abs(expected_a):
        failures.append("hyperfine strain shift off its slope")

    strain_ratio = 1.60 / 4.33
    fractions = np.linspace(0.2, 0.5, 301)
    [sweep] = scans([("unbalanced_echo", {"total_time": 1e-3}, "flip_fraction", fractions)],
                    (source,))
    argmax = float(sweep.x[int(np.argmax(sweep.y))])
    if abs(argmax - strain_ratio) > 1e-3:
        failures.append(
            f"strain-only optimum {argmax:.4f} is not at the slope ratio "
            f"{strain_ratio:.4f}"
        )
    _report(8, f"P = {pressure:.2f} GPa, optimum tau/t = {argmax:.3f} "
               f"(ratio {strain_ratio:.4f})", failures, started, 5.0)
