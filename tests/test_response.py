"""Temperature/strain response models: Bose-Einstein occupation, quasiharmonic
shifts, Einstein-mode calibration, and the pressure-mediated strain channel."""

import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from scipy.optimize import least_squares

from nvecho.response import (
    CALIBRATION_QUADRUPOLE_SLOPE,
    CALIBRATION_T0_K,
    CALIBRATION_ZFS_SLOPE,
    DEFAULT_RATIO_CURVE,
    CalibrationError,
    LinearResponse,
    PRESSURE_PER_STRAIN_GPA,
    QuasiharmonicResponse,
    bose_einstein,
    bose_einstein_slope,
    REFERENCE_MODE_K,
    calibrate_response_set,
    default_linear_response,
    default_quasiharmonic_set,
    einstein_curve,
    einstein_mode_frequency,
    fit_mode_temperature,
    load_response_set,
    save_response_set,
)
from nvecho.noise import delta, lorentzian, strain_source, temperature_source
from nvecho.pulses import build_sequence
from nvecho.sequences import simulate_family
from nvecho.spin_model import accumulated_phase, default_params, phase_coefficients
from nvecho.units import K_B_OVER_HBAR, TWO_PI


# ---------------------------------------------------------------- occupation

def test_bose_einstein_matched_mode():
    # mode with hbar*omega = k_B * 300 K evaluated at 300 K: n = 1/(e - 1)
    omega = einstein_mode_frequency(300.0)
    assert math.isclose(bose_einstein(omega, 300.0), 1.0 / (math.e - 1.0), rel_tol=1e-12)


def test_bose_einstein_600k_mode():
    omega = einstein_mode_frequency(600.0)
    assert math.isclose(bose_einstein(omega, 300.0), 1.0 / (math.e**2 - 1.0), rel_tol=1e-12)


def test_bose_einstein_classical_limit():
    # k_B T >> hbar*omega: n -> k_B T / (hbar*omega) = 100 here, minus 1/2 correction
    omega = einstein_mode_frequency(300.0)
    n = bose_einstein(omega, 30000.0)
    assert 99.0 <= n <= 100.0


def test_bose_einstein_zero_temperature():
    omega = einstein_mode_frequency(1000.0)
    assert bose_einstein(omega, 0.0) == 0.0


def _guarded_bose_einstein(omega, T):
    # the zero-temperature guards, applied to every input
    T = np.asarray(T, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        u = np.where(T > 0, omega / (K_B_OVER_HBAR * np.where(T > 0, T, 1.0)), np.inf)
        return np.where(T > 0, 1.0 / np.expm1(np.minimum(u, 700.0)), 0.0)


@pytest.mark.parametrize("T", [
    np.array([300.0, 1e-3, 1e-300, 5e-324, 1e4, 2.5e3]),
    np.array([300.0, 0.0, 1e-3, 0.0, 1e4]),
    np.linspace(0.0, 1550.0, 4099),
    np.array([0.0]),
    300.0,
    0.0,
], ids=["positive", "zeros", "grid-from-zero", "zero", "scalar", "scalar-zero"])
def test_bose_einstein_equals_the_guarded_formula(T):
    for theta in (1000.0, 2500.0):
        omega = einstein_mode_frequency(theta)
        got = bose_einstein(omega, T)
        assert isinstance(got, float) == isinstance(T, float)
        assert np.asarray(got).tobytes() == _guarded_bose_einstein(omega, T).tobytes()


def test_bose_einstein_rejects_negative_temperature():
    # a NaN passed the `T < 0` check, and `T > 0` then read it as 0 K
    omega = einstein_mode_frequency(1000.0)
    for T in (-1.0, math.nan, -math.inf, np.array([300.0, math.nan]), np.array([-0.5, 300.0])):
        with pytest.raises(ValueError, match="temperature must be >= 0 K"):
            bose_einstein(omega, T)
    with pytest.raises(ValueError, match="temperature must be >= 0 K"):
        default_quasiharmonic_set().quadrupole.shift_at(math.nan)
    # inf, and a T where k_B T / hbar overflows, returned inf without a warning
    for T in (math.inf, 1e300, np.array([300.0, math.inf])):
        with pytest.raises(ValueError, match="with a finite occupation"):
            default_quasiharmonic_set().quadrupole.shift_at(T)
    assert math.isfinite(default_quasiharmonic_set().quadrupole.shift_at(1e296))
    # -0.0 is 0 K
    assert bose_einstein(omega, -0.0) == 0.0
    assert bose_einstein(omega, np.array([])).shape == (0,)
    # the slope needs a finite T > 0: at inf it was nan, with a RuntimeWarning
    for T in (0.0, -1.0, math.nan, math.inf, np.array([300.0, math.inf])):
        with pytest.raises(ValueError, match="slope defined for finite T > 0"):
            bose_einstein_slope(omega, T)
    with pytest.raises(ValueError, match="slope defined for finite T > 0"):
        default_quasiharmonic_set().quadrupole.slope_at(math.nan)


def test_bose_einstein_slope_matches_finite_difference():
    omega = einstein_mode_frequency(1000.0)
    fd = (bose_einstein(omega, 300.05) - bose_einstein(omega, 299.95)) / 0.1
    assert math.isclose(bose_einstein_slope(omega, 300.0), fd, rel_tol=1e-6)


# ---------------------------------------------------------- quasiharmonic

def single_mode_model(theta_K, weight, reference_T=0.0):
    return QuasiharmonicResponse(einstein_mode_frequency(theta_K), weight, reference_T)


def test_single_mode_shift_from_zero():
    # b = 2*pi*100 Hz per zero-point variance, theta = 600 K:
    # shift(300) - shift(0) = b * n(300) = b/(e^2 - 1) ~ 2*pi*15.65 Hz
    model = single_mode_model(600.0, TWO_PI * 100.0, reference_T=0.0)
    expected = TWO_PI * 100.0 / (math.e**2 - 1.0)
    assert math.isclose(model.shift_at(300.0), expected, rel_tol=1e-12)
    assert math.isclose(expected, TWO_PI * 15.651764274966565, rel_tol=1e-10)


def test_shift_vanishes_at_reference():
    model = single_mode_model(600.0, TWO_PI * 100.0, reference_T=300.0)
    assert model.shift_at(300.0) == 0.0


def test_mode_frequencies_must_be_positive():
    with pytest.raises(ValueError, match="mode frequency must be positive"):
        QuasiharmonicResponse(-1.0, TWO_PI * 10.0, 300.0)


def test_non_finite_inputs_rejected():
    # NaN slipped past the `< 0` / `<= 0` checks and gave NaN shifts
    with pytest.raises(ValueError, match="finite"):
        single_mode_model(600.0, TWO_PI * 100.0, reference_T=math.nan)
    with pytest.raises(ValueError, match="omega must be finite"):
        QuasiharmonicResponse(math.nan, TWO_PI * 10.0, 300.0)
    with pytest.raises(ValueError, match="quadrupole_per_K must be finite"):
        LinearResponse(quadrupole_per_K=math.nan)
    with pytest.raises(ValueError, match="hyperfine_per_strain must be finite"):
        LinearResponse(hyperfine_per_strain=math.inf)


def test_vectorized_shift():
    model = single_mode_model(1000.0, TWO_PI * 1e5, reference_T=300.0)
    T = np.array([250.0, 300.0, 350.0])
    out = model.shift_at(T)
    assert out.shape == (3,)
    assert out[1] == 0.0


# ------------------------------------------------------------- calibration

def test_calibrate_zero_slope_flat_curve():
    model = einstein_curve(REFERENCE_MODE_K, 0.0)
    assert model.weight == 0.0
    assert model.shift_at(350.0) == 0.0


def test_calibrate_slope_round_trip():
    # an Einstein curve hits an arbitrary slope target, and the calibrated
    # set its slope constants, to 1%
    set_ = calibrate_response_set()
    h = 0.05
    for model, target in ((einstein_curve(REFERENCE_MODE_K, TWO_PI * 204.0), TWO_PI * 204.0),
                          (set_.quadrupole, CALIBRATION_QUADRUPOLE_SLOPE),
                          (set_.zfs, CALIBRATION_ZFS_SLOPE)):
        fd = (model.shift_at(300.0 + h) - model.shift_at(300.0 - h)) / (2 * h)
        assert abs(fd - target) <= 0.01 * abs(target)


def test_default_set_hyperfine_slope_from_ratio():
    # hyperfine slope target is the quadrupole slope * ratio_curve(300 K)
    set_ = calibrate_response_set()
    assert math.isclose(set_.hyperfine.slope_at(300.0), CALIBRATION_QUADRUPOLE_SLOPE * 5.8,
                        rel_tol=1e-6)


def test_calibration_file_records_the_targets_it_used(tmp_path):
    # the anchor temperature, the quadrupole and zfs slopes and the ratio
    # curve are the module's constants, which the file names; no caller sets one
    set_ = calibrate_response_set()
    save_response_set(set_, tmp_path / "set.yaml", deterministic=True)
    doc = yaml.safe_load((tmp_path / "set.yaml").read_text())
    targets = doc["calibration"]["targets"]
    assert CALIBRATION_T0_K == 300.0
    assert CALIBRATION_QUADRUPOLE_SLOPE == TWO_PI * 39.0
    assert math.isclose(targets["slope_quadrupole_at_300K_Hz_per_K"], 39.0, rel_tol=1e-9)
    assert math.isclose(targets["slope_zfs_at_300K_Hz_per_K"], -77.7e3, rel_tol=1e-9)
    assert targets["ratio_hyperfine_to_quadrupole"] == [list(p) for p in DEFAULT_RATIO_CURVE]
    assert all(model["reference_T_K"] == CALIBRATION_T0_K for model in doc["models"].values())
    for keyword in ("T0", "slope_quadrupole", "slope_zfs"):
        with pytest.raises(TypeError):
            calibrate_response_set(**{keyword: 275.0})


def test_default_set_slopes():
    set_ = default_quasiharmonic_set()
    assert math.isclose(set_.quadrupole.slope_at(300.0), TWO_PI * 39.0, rel_tol=1e-2)
    assert math.isclose(set_.zfs.slope_at(300.0), -TWO_PI * 77.7e3, rel_tol=1e-2)
    # finite-difference cross-check of the analytic slope
    h = 0.05
    fd = (set_.quadrupole.shift_at(300.0 + h) - set_.quadrupole.shift_at(300.0 - h)) / (2 * h)
    assert math.isclose(fd, TWO_PI * 39.0, rel_tol=1e-2)


def test_default_set_ratio_band():
    set_ = default_quasiharmonic_set()
    T = np.linspace(250.0, 350.0, 101)
    ratio = set_.hyperfine.slope_at(T) / set_.quadrupole.slope_at(T)
    assert ratio.min() >= 5.2 and ratio.max() <= 6.2
    assert math.isclose(float(ratio[50]), 5.8, rel_tol=1e-9)


def test_default_set_ratio_admissible_wide():
    set_ = default_quasiharmonic_set()
    T = np.linspace(100.0, 500.0, 401)
    ratio = set_.hyperfine.slope_at(T) / set_.quadrupole.slope_at(T)
    assert np.all(ratio > 1.0)


def test_local_linearization_within_two_percent():
    # within +/-5 K of 300 K each calibrated curve stays within 2% of its tangent
    set_ = default_quasiharmonic_set()
    d = np.linspace(-5.0, 5.0, 201)
    d = d[np.abs(d) > 1e-9]
    for model in (set_.quadrupole, set_.hyperfine, set_.zfs):
        slope = model.slope_at(300.0)
        dev = np.abs(model.shift_at(300.0 + d) - slope * d) / np.abs(slope * d)
        assert dev.max() < 0.02


def test_linear_vs_quasiharmonic_small_excursion():
    # over +/-5 K the calibrated quadrupole curve matches the linear default slope
    lin = default_linear_response()
    set_ = default_quasiharmonic_set()
    d = np.linspace(-5.0, 5.0, 101)
    d = d[np.abs(d) > 1e-9]
    linear = lin.quadrupole_per_K * d
    dev = np.abs(set_.quadrupole.shift_at(300.0 + d) - linear) / np.abs(linear)
    assert dev.max() < 0.02


def _ratio_residuals(curve, slope, reference, T0=300.0):
    """The calibrator's relative ratio misses as a function of log(theta),
    and their derivative."""
    om_ref, b_ref = reference.omega, reference.weight
    Ts = np.array([T for T, _ in curve])
    targets = np.array([r for _, r in curve])

    def model(log_theta):
        omega = einstein_mode_frequency(float(np.exp(log_theta[0])))
        weight = slope / bose_einstein_slope(omega, T0)
        return weight * bose_einstein_slope(omega, Ts) / (b_ref * bose_einstein_slope(om_ref, Ts))

    def log_derivative(u):
        # u f'(u) / f(u) for f(u) = u e^u / (e^u - 1)^2
        e = np.exp(u)
        return u * ((1 + u) * (e - 1) - 2 * u * e) / (u * (e - 1))

    def jacobian(log_theta):
        theta = float(np.exp(log_theta[0]))
        d_log = log_derivative(theta / Ts) - log_derivative(theta / T0)
        return (model(log_theta) * d_log / targets)[:, None]

    return (lambda p: (model(p) - targets) / targets), jacobian


@pytest.mark.parametrize("bend, rel", [(1.0, 1e-12), (0.99, 1e-9), (1.02, 1e-9)])
def test_calibrator_agrees_with_least_squares(bend, rel):
    # the packaged curve, met exactly, and two bent ones, met in least
    # squares: there the residual sum of squares is flat to rounding over
    # ~1e-10 of theta, and no solver pins the mode closer than that
    curve = tuple((T, r * bend ** ((T - 300.0) / 50.0)) for T, r in DEFAULT_RATIO_CURVE)
    slope = TWO_PI * 39.0
    reference = einstein_curve(REFERENCE_MODE_K, slope)
    varied = einstein_curve(fit_mode_temperature(reference, slope * 5.8, curve), slope * 5.8)
    residuals, jacobian = _ratio_residuals(curve, slope * 5.8, reference)
    fit = least_squares(residuals, [math.log(1000.0)], jac=jacobian, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    omega = einstein_mode_frequency(float(np.exp(fit.x[0])))
    assert varied.omega == pytest.approx(omega, rel=rel)
    ours = residuals([math.log(varied.omega / K_B_OVER_HBAR)])
    assert ours @ ours <= (fit.fun @ fit.fun) * (1 + 1e-12) + 1e-30


def _infeasible(ratio_curve, slope=TWO_PI * 204.0):
    # the reference mode carries the slope the curve's 300 K ratio implies
    reference = einstein_curve(REFERENCE_MODE_K, slope / dict(ratio_curve)[300.0])
    return fit_mode_temperature(reference, slope, ratio_curve)


def test_calibrate_infeasible_targets_raise():
    # a ratio curve that collapses below 1 and swings back cannot be produced
    # by a positive-frequency mode pair riding on one reference mode
    bad = ((250.0, 9.0), (300.0, 0.2), (350.0, 9.0))
    with pytest.raises(CalibrationError) as err:
        _infeasible(bad)
    assert "residual" in str(err.value).lower()
    # steep curves in either direction push the mode temperature far out
    for steep in (((250.0, 0.01), (300.0, 1.0), (350.0, 100.0)),
                  ((250.0, 100.0), (300.0, 1.0), (350.0, 0.01))):
        with pytest.raises(CalibrationError):
            _infeasible(steep)


def test_data_file_round_trip(tmp_path):
    set_ = default_quasiharmonic_set()
    path = tmp_path / "response.yaml"
    save_response_set(set_, path)
    loaded = load_response_set(path)
    for name in ("quadrupole", "hyperfine", "zfs"):
        assert getattr(loaded, name) == getattr(set_, name)
    assert loaded.quadrupole_per_strain == set_.quadrupole_per_strain
    text = path.read_text()
    assert "calibration" in text and "date" in text


def test_quasiharmonic_set_rejects_non_finite_strain_slopes():
    set_ = default_quasiharmonic_set()
    for name in ("quadrupole_per_strain", "hyperfine_per_strain"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(set_, **{name: math.nan})


def test_packaged_data_file_matches_calibrator():
    packaged = load_response_set()
    rebuilt = calibrate_response_set()
    for name in ("quadrupole", "hyperfine", "zfs"):
        ours, theirs = getattr(packaged, name), getattr(rebuilt, name)
        assert np.allclose((ours.omega, ours.weight), (theirs.omega, theirs.weight), rtol=1e-9)
        assert ours.reference_T == theirs.reference_T


# ------------------------------------------------------------------- strain
# A strain source shifts (dQ, dA) by its slopes times the strain.

def _strain_shift(epsilon):
    d_quadrupole, d_hyperfine, _ = strain_source(lorentzian(0.0, 1e-3)).slopes
    return d_quadrupole * epsilon, d_hyperfine * epsilon


def test_strain_compressive_example():
    # epsilon = -1% compressive -> P = +13.29 GPa through P = -3*K*epsilon
    assert math.isclose(PRESSURE_PER_STRAIN_GPA * -0.01, 13.29, rel_tol=1e-12)
    d_quadrupole, d_hyperfine = _strain_shift(-0.01)
    assert math.isclose(d_quadrupole, TWO_PI * 21264.0, rel_tol=1e-12)
    assert math.isclose(d_hyperfine, TWO_PI * 57545.7, rel_tol=1e-12)


def test_strain_two_percent_tensile():
    assert math.isclose(PRESSURE_PER_STRAIN_GPA * 0.02, -26.58, rel_tol=1e-12)


def test_strain_linearity():
    a = _strain_shift(0.004)
    b = _strain_shift(0.008)
    assert math.isclose(2 * a[0], b[0], rel_tol=1e-12)
    assert math.isclose(2 * a[1], b[1], rel_tol=1e-12)


def test_strain_refuses_a_bool():
    # True would be read as a strain of 1, which the config refuses
    with pytest.raises(ValueError, match="location must be a plain number, got True"):
        strain_source(lorentzian(True, 1e-3))


@pytest.mark.parametrize("strain", [math.nan, math.inf, -math.inf])
def test_strain_must_be_finite(strain):
    with pytest.raises(ValueError, match="location must be finite"):
        strain_source(lorentzian(strain, 1e-3))


# ------------------------------------------------------------------- linear

def test_linear_response_defaults():
    lin = default_linear_response()
    assert math.isclose(lin.quadrupole_per_K, TWO_PI * 39.0, rel_tol=1e-12)
    assert math.isclose(lin.hyperfine_per_K, TWO_PI * 204.0, rel_tol=1e-12)
    # strain slopes derive from the GPa slopes via P = -3*K*epsilon, K = 443 GPa
    assert math.isclose(lin.quadrupole_per_strain, -TWO_PI * 1.60e3 * 3 * 443.0, rel_tol=1e-12)
    assert math.isclose(lin.hyperfine_per_strain, -TWO_PI * 4.33e3 * 3 * 443.0, rel_tol=1e-12)


def test_linear_interaction_shift_composes_channels():
    # a run's phase at the sources' locations is the phase of the couplings
    # shifted by each source's slopes times its location, summed over sources
    lin = default_linear_response()
    sources = (temperature_source(delta(2.0), lin), strain_source(delta(-0.001), lin))
    seq = build_sequence("unbalanced_echo", 1e-3, flip_fraction=0.4)
    got = simulate_family([seq], sources).base_phase[0]
    p = default_params()
    shifted = replace(p, quadrupole=p.quadrupole + 2.0 * lin.quadrupole_per_K
                      - 0.001 * lin.quadrupole_per_strain,
                      hyperfine=p.hyperfine + 2.0 * lin.hyperfine_per_K
                      - 0.001 * lin.hyperfine_per_strain)
    expected = accumulated_phase(shifted, phase_coefficients(p, seq.pair, seq.segments))
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_quasiharmonic_set_interaction_shift_vectorized():
    set_ = default_quasiharmonic_set()
    T = set_.quadrupole.reference_T + np.array([-10.0, 0.0, 10.0])
    d_quadrupole, d_hyperfine = set_.quadrupole.shift_at(T), set_.hyperfine.shift_at(T)
    assert d_quadrupole.shape == (3,)
    assert d_quadrupole[1] == 0.0
    assert d_hyperfine[2] > 0.0
