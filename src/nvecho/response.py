"""Temperature and strain response of the nuclear-spin interactions.

Two interchangeable descriptions are provided for how the quadrupole and
hyperfine interactions move with the environment:

* :class:`LinearResponse` - constant slopes (rad/s per K, per unit strain),
  valid for small excursions around the operating point.
* :class:`QuasiharmonicResponse` - one Einstein mode, whose shift is its
  weight times the change of the mode's Bose-Einstein occupation from the
  reference temperature.  Used for wide temperature ensembles where the local
  slopes themselves drift.  The calibrated set also carries the electronic
  zero-field splitting's curve.

The quasiharmonic curves shipped with the package are calibrated
surrogates: they are pinned to the measured local slopes and to a target
curve for the hyperfine/quadrupole slope ratio, not derived from first
principles.  ``calibrate_response_set`` builds them from the module's
constants: ``einstein_curve`` puts one Einstein mode at a given temperature
with the slope target at ``CALIBRATION_T0_K``, and ``fit_mode_temperature``
finds the hyperfine mode's temperature from ``DEFAULT_RATIO_CURVE``.  See
``data/quasiharmonic_default.yaml`` for the calibration provenance.  The data
file format keeps a base value, a first-order thermal-expansion term and a
list of modes per curve; the loader ignores the base values and refuses,
naming the key, a curve with other than one mode, a nonzero expansion term,
or a mode whose temperature or weight is not a finite number or whose
temperature is not > 0 K.

The data file is read and written through the package's one YAML reader
and printer (``yamlio``).  The default linear slopes are ``catalog``'s, where
the vee fit reads them without loading this module.

Loading the module, a data file or a curve imports no numpy and no
solver: ``fit_mode_temperature`` imports ``solvers`` where it fits.  Nor
does the calibration import numpy: ``bose_einstein_slope``, and through it
``slope_at``, ``einstein_curve`` and ``fit_mode_temperature``, compute on
Python floats with ``math``'s ``exp`` and ``tanh``, one temperature at a
time, so the calibrated file does not follow numpy's SIMD level.  Only the
occupation (``bose_einstein``, which ``shift_at`` evaluates on a chunk of
draws) imports numpy, when it is called.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from datetime import date
from pathlib import Path

import yaml

from .catalog import HYPERFINE_HZ_PER_K, QUADRUPOLE_HZ_PER_K
from .records import Frozen
from .units import K_B_OVER_HBAR, angular, check_number, cycles
from .yamlio import dump_yaml, load_yaml

# Diamond bulk modulus; converts hydrostatic strain to pressure via P = -3*K*eps.
BULK_MODULUS_GPA = 443.0
PRESSURE_PER_STRAIN_GPA = -3.0 * BULK_MODULUS_GPA

# Measured pressure slopes of the two nuclear interactions, rad/s per GPa.
QUADRUPOLE_PER_GPA = angular(1.60e3)
HYPERFINE_PER_GPA = angular(4.33e3)

# Effective Einstein temperature of the reference mode used by the calibrator.
# ~86 meV, in the range of the quasi-local phonon modes that dominate the
# lattice coupling of the defect.
REFERENCE_MODE_K = 1000.0

# Hyperfine/quadrupole slope-ratio targets for the shipped calibration.
# Chosen so the ratio is 5.8 at 300 K and drifts gently across 250-350 K.
DEFAULT_RATIO_CURVE = (
    (250.0, 5.472803047314105),
    (275.0, 5.651873441948586),
    (300.0, 5.8),
    (325.0, 5.923483344494553),
    (350.0, 6.027195860599224),
)

# The shipped set's anchor temperature (K), where the slope targets hold, the
# base values (Hz) that the data file records for its curves and no model
# reads, the quadrupole and zfs slopes at the anchor (rad/s per K), and the
# relative miss of any ratio target that fails a calibration.
CALIBRATION_T0_K = 300.0
CALIBRATION_BASE_VALUES = {"quadrupole": -4.945e6, "hyperfine": -2.16e6, "zfs": 2.87e9}
CALIBRATION_QUADRUPOLE_SLOPE = angular(39.0)
CALIBRATION_ZFS_SLOPE = angular(-77.7e3)
RATIO_TOLERANCE = 0.02

DEFAULT_DATA_FILE = Path(__file__).parent / "data" / "quasiharmonic_default.yaml"

def _require_finite(obj, what, names=None) -> None:
    """Refuse ``obj`` unless its ``names`` fields (all by default) are finite
    numbers."""
    for name in names or obj._fields:
        check_number(f"{what} {name}", getattr(obj, name))


class CalibrationError(RuntimeError):
    """Calibration targets could not be met; message lists the residuals."""


def einstein_mode_frequency(theta_K: float) -> float:
    """Angular frequency (rad/s) of a mode with hbar*omega = k_B * theta_K."""
    return K_B_OVER_HBAR * theta_K


# above this u = hbar omega / k_B T, the occupation 1 / expm1(u) <= 1 / u is finite
_SMALLEST_U = 1.0 / sys.float_info.max


def bose_einstein(omega: float, T):
    """Bose-Einstein occupation of a mode at angular frequency omega (rad/s).

    Parameters
    ----------
    omega : float
        Mode angular frequency, rad/s.  Must be positive.
    T : float or ndarray
        Temperature in K.  T = 0 gives 0; a T whose occupation is not finite
        is rejected: negative, NaN, inf, or above about 1.4e297 K.

    An array ``T``, such as a chunk of draws, takes one more array of its
    size: each step of 1 / expm1(u) is written into the one it returns.
    numpy is imported here, where the occupations are evaluated, and not
    with the module.
    """
    import numpy as np

    if omega <= 0:
        raise ValueError("mode frequency must be positive")
    T = np.asarray(T, dtype=float)
    n = np.empty_like(T)
    with np.errstate(over="ignore", divide="ignore"):
        # u = omega / (k_B T / hbar); at T = 0, u = inf is clamped to 700 and
        # its occupation replaced by 0
        np.multiply(K_B_OVER_HBAR, T, out=n)
        np.divide(omega, n, out=n)
        np.minimum(n, 700.0, out=n)
        # one comparison refuses every T whose occupation is not finite (u NaN,
        # negative or tiny); only then a second lets T = -0.0 (u = -inf) pass
        if not (np.all(n > _SMALLEST_U) or np.all((n > _SMALLEST_U) | (T == 0))):
            raise ValueError("temperature must be >= 0 K with a finite occupation")
        np.expm1(n, out=n)
        np.divide(1.0, n, out=n)
    np.copyto(n, 0.0, where=T == 0)  # once checked, every T is > 0 or a zero
    return float(n) if n.ndim == 0 else n


def bose_einstein_slope(omega: float, T: float) -> float:
    """d n / dT for a Bose-Einstein occupation at one temperature T (K);
    rad/s-free, units 1/K.  Computed on Python floats with ``math.exp``, so
    it loads no numpy and does not follow numpy's SIMD level."""
    if isinstance(T, bool) or not (isinstance(T, numbers.Real) and 0 < T < math.inf):
        raise ValueError(f"slope defined for finite T > 0, one temperature at a time; got {T!r}")
    T = float(T)
    u = omega / (K_B_OVER_HBAR * T)
    eu = math.exp(min(u, 700.0))
    # squared as a product: beyond e^355 it is inf, and the slope 0, where ** raises
    return (u / T) * eu / ((eu - 1.0) * (eu - 1.0))


class LinearResponse(Frozen):
    """Constant-slope environmental response of the interactions.

    Temperature slopes are rad/s per K; strain slopes are rad/s per unit
    hydrostatic strain, derived from the measured GPa slopes through the
    bulk-modulus conversion P = -3*K*eps.
    """

    quadrupole_per_K: float = angular(QUADRUPOLE_HZ_PER_K)
    hyperfine_per_K: float = angular(HYPERFINE_HZ_PER_K)
    quadrupole_per_strain: float = QUADRUPOLE_PER_GPA * PRESSURE_PER_STRAIN_GPA
    hyperfine_per_strain: float = HYPERFINE_PER_GPA * PRESSURE_PER_STRAIN_GPA

    def _check(self):
        _require_finite(self, "response slope")


def default_linear_response() -> LinearResponse:
    return LinearResponse()


class QuasiharmonicResponse(Frozen):
    """Quasiharmonic temperature dependence of one interaction strength:
    one Einstein mode of angular frequency ``omega`` (rad/s),

        shift(T) = weight * (n(omega, T) - n(omega, reference_T))

    with n the Bose-Einstein occupation.  The mode's zero-point contribution
    is absorbed into ``weight`` (rad/s), so only occupation differences
    appear.
    """

    omega: float        # rad/s
    weight: float       # rad/s
    reference_T: float  # K

    def _check(self):
        _require_finite(self, "quasiharmonic")
        if self.omega <= 0:
            raise ValueError("mode frequency must be positive")
        if self.reference_T < 0:
            raise ValueError("reference temperature must be >= 0 K")

    def shift_at(self, T):
        """Shift relative to reference_T, rad/s.  Accepts scalars or arrays;
        an array's shift is computed in the occupations' own array."""
        shift = bose_einstein(self.omega, T)
        shift -= bose_einstein(self.omega, self.reference_T)
        shift *= self.weight
        return shift

    def slope_at(self, T: float) -> float:
        """Analytic d shift / dT at one temperature, rad/s per K."""
        return self.weight * bose_einstein_slope(self.omega, T)


class QuasiharmonicSet(Frozen):
    """Calibrated quadrupole/hyperfine/zfs curves plus the strain channel."""

    quadrupole: QuasiharmonicResponse
    hyperfine: QuasiharmonicResponse
    zfs: QuasiharmonicResponse
    quadrupole_per_strain: float = QUADRUPOLE_PER_GPA * PRESSURE_PER_STRAIN_GPA
    hyperfine_per_strain: float = HYPERFINE_PER_GPA * PRESSURE_PER_STRAIN_GPA

    def _check(self):
        _require_finite(self, "response slope", ("quadrupole_per_strain", "hyperfine_per_strain"))


# --------------------------------------------------------------- calibration

def einstein_curve(theta_K: float, slope_at_T0: float) -> QuasiharmonicResponse:
    """One Einstein mode at ``theta_K``, weighted so the curve's slope at
    ``CALIBRATION_T0_K`` is ``slope_at_T0``."""
    omega = einstein_mode_frequency(theta_K)
    return QuasiharmonicResponse(omega, slope_at_T0 / bose_einstein_slope(omega, CALIBRATION_T0_K),
                                 CALIBRATION_T0_K)


def fit_mode_temperature(reference: QuasiharmonicResponse, slope_at_T0: float,
                         ratio_curve=DEFAULT_RATIO_CURVE) -> float:
    """Einstein temperature (K) of the mode whose ``einstein_curve`` with
    ``slope_at_T0`` has the slope ratio over ``reference`` that
    ``ratio_curve``, a sequence of ``(temperature_K, ratio)`` points, asks for:
    the least-squares minimum of the relative ratio residuals in log theta,
    bisected from ``REFERENCE_MODE_K`` and refined by one Gauss-Newton step.

    Raises
    ------
    CalibrationError
        If the least squares run off (theta -> 0 or infinity), or if the
        fitted ratio misses any target point by more than
        ``RATIO_TOLERANCE`` relative; the message lists per-point residuals.
    """
    from .solvers import FitError, bisect_minimum, dot, lstsq  # not compiled for a config load

    T0 = CALIBRATION_T0_K
    Ts = [float(T) for T, _ in ratio_curve]
    targets = [float(r) for _, r in ratio_curve]
    reference_slopes = [reference.slope_at(T) for T in Ts]

    def residuals(log_theta):
        # a point may overflow or divide by zero: Python floats raise there,
        # which the bisection takes as a point where the model is not finite
        theta = math.exp(log_theta)
        omega = einstein_mode_frequency(theta)
        weight = slope_at_T0 / bose_einstein_slope(omega, T0)
        # d ln(ratio) / d ln(theta), from d ln(dn/dT) / d ln(theta) = 1 - u coth(u / 2)
        d_log_T0 = theta / T0 / math.tanh(theta / (2 * T0))
        res, jac = [], []
        for T, reference_slope, target in zip(Ts, reference_slopes, targets):
            model_ratio = weight * bose_einstein_slope(omega, T) / reference_slope
            d_log = d_log_T0 - theta / T / math.tanh(theta / (2 * T))
            res.append((model_ratio - target) / target)
            jac.append([model_ratio * d_log / target])
        return res, jac

    def cost_slope(log_theta):
        res, jac = residuals(log_theta)
        return dot(res, [row[0] for row in jac])

    try:
        log_theta = bisect_minimum(cost_slope, math.log(REFERENCE_MODE_K))[0]
        # one Gauss-Newton step; lstsq takes none where the ratio is flat in
        # theta, as it is to rounding towards theta -> 0
        res, jac = residuals(log_theta)
        log_theta += lstsq(jac, [-v for v in res])[0]
        res, _ = residuals(log_theta)
    except (FitError, ZeroDivisionError, OverflowError) as exc:
        raise CalibrationError(
            f"ratio targets infeasible for a single varied mode: {exc}"
        ) from None
    if max(abs(r) for r in res) > RATIO_TOLERANCE:
        lines = ", ".join(
            f"{T:.0f} K: {r * 100:+.1f}%" for T, r in zip(Ts, res)
        )
        raise CalibrationError(
            f"ratio targets infeasible for a single varied mode; residuals: {lines}"
        )
    return math.exp(log_theta)


def calibrate_response_set() -> QuasiharmonicSet:
    """Calibrate the shipped quadrupole/hyperfine/zfs set from the module's
    constants.

    The quadrupole and zfs curves sit on the reference mode with their
    slopes at ``CALIBRATION_T0_K``; the hyperfine slope there is the
    quadrupole slope times the ratio-curve value at T0, and the hyperfine
    curve's mode temperature is fitted so the pair's slope ratio follows
    ``DEFAULT_RATIO_CURVE``.
    """
    quadrupole = einstein_curve(REFERENCE_MODE_K, CALIBRATION_QUADRUPOLE_SLOPE)
    slope_a = CALIBRATION_QUADRUPOLE_SLOPE * dict(DEFAULT_RATIO_CURVE)[CALIBRATION_T0_K]
    hyperfine = einstein_curve(fit_mode_temperature(quadrupole, slope_a), slope_a)
    zfs = einstein_curve(REFERENCE_MODE_K, CALIBRATION_ZFS_SLOPE)
    return QuasiharmonicSet(quadrupole=quadrupole, hyperfine=hyperfine, zfs=zfs)


# ----------------------------------------------------------------- data file

def _model_to_dict(model: QuasiharmonicResponse, base_value_Hz: float) -> dict:
    # the format's expansion term, written as the zero the model implies
    return {
        "base_value_Hz": base_value_Hz,
        "first_order_Hz_per_qex": 0.0,
        "thermal_expansion": [0.0, 0.0, 0.0],
        "modes": [{"einstein_temperature_K": model.omega / K_B_OVER_HBAR,
                   "weight_Hz": cycles(model.weight)}],
        "reference_T_K": model.reference_T,
    }


def _model_from_dict(models: dict, name: str) -> QuasiharmonicResponse:
    """The curve of data-file model ``name``.  Its base value is ignored;
    other than one mode, a nonzero expansion term, or a mode value or
    reference temperature the curve cannot take is refused, naming its key."""
    d = models[name]
    modes = d["modes"]
    if not isinstance(modes, list) or len(modes) != 1:
        raise ValueError(f"models.{name}.modes must hold exactly one mode, got {modes!r}")
    for key, zero in (("first_order_Hz_per_qex", 0.0), ("thermal_expansion", [0.0, 0.0, 0.0])):
        if d.get(key, zero) != zero:
            raise ValueError(f"models.{name}.{key} must be {zero}, got {d[key]!r}: "
                             "the model has no thermal-expansion term")
    (mode,) = modes
    for key in ("einstein_temperature_K", "weight_Hz"):
        check_number(f"models.{name}.modes[0].{key}", mode[key])
    if mode["einstein_temperature_K"] <= 0:
        raise ValueError(f"models.{name}.modes[0].einstein_temperature_K must be > 0 K, "
                         f"got {mode['einstein_temperature_K']!r}")
    check_number(f"models.{name}.reference_T_K", d["reference_T_K"])
    if d["reference_T_K"] < 0:
        raise ValueError(f"models.{name}.reference_T_K must be >= 0 K, got {d['reference_T_K']!r}")
    return QuasiharmonicResponse(einstein_mode_frequency(mode["einstein_temperature_K"]),
                                 angular(mode["weight_Hz"]), d["reference_T_K"])


def save_response_set(set_: QuasiharmonicSet, path, deterministic: bool = False) -> None:
    """Write the calibrated set with a calibration-provenance block.

    ``deterministic`` omits the calibration date so repeated runs produce
    byte-identical files.
    """
    ratio = [
        [T, set_.hyperfine.slope_at(T) / set_.quadrupole.slope_at(T)]
        for T, _ in DEFAULT_RATIO_CURVE
    ]
    calibration = {
        "targets": {
            "slope_quadrupole_at_300K_Hz_per_K":
                cycles(set_.quadrupole.slope_at(CALIBRATION_T0_K)),
            "slope_zfs_at_300K_Hz_per_K": cycles(set_.zfs.slope_at(CALIBRATION_T0_K)),
            "ratio_hyperfine_to_quadrupole": [list(p) for p in DEFAULT_RATIO_CURVE],
            "reference_mode_temperature_K": REFERENCE_MODE_K,
        },
        "achieved_ratio": ratio,
        "residuals_note": "ratio residuals at target points are at float precision",
    }
    if not deterministic:
        calibration["date"] = date.today().isoformat()
    payload = {
        "schema": "nvecho-response/1",
        "calibration": calibration,
        "models": {name: _model_to_dict(getattr(set_, name), base_value)
                   for name, base_value in CALIBRATION_BASE_VALUES.items()},
        "strain": {
            "quadrupole_per_GPa_Hz": cycles(QUADRUPOLE_PER_GPA),
            "hyperfine_per_GPa_Hz": cycles(HYPERFINE_PER_GPA),
            "bulk_modulus_GPa": BULK_MODULUS_GPA,
        },
    }
    Path(path).write_text(dump_yaml(payload))


def load_response_set(path=None) -> QuasiharmonicSet:
    """Load a calibrated set; defaults to the packaged data file.  A file
    that holds none raises ValueError naming the file and the problem: not
    YAML, another schema, a missing model or key, a bad value."""
    path = Path(path or DEFAULT_DATA_FILE)
    try:
        raw = load_yaml(path.read_text())
        if not isinstance(raw, dict) or raw.get("schema") != "nvecho-response/1":
            raise ValueError("not a mapping of schema nvecho-response/1")
        models = raw["models"]
        strain = raw.get("strain", {})
        per_strain_q = angular(strain.get("quadrupole_per_GPa_Hz", cycles(QUADRUPOLE_PER_GPA)))
        per_strain_a = angular(strain.get("hyperfine_per_GPa_Hz", cycles(HYPERFINE_PER_GPA)))
        k = strain.get("bulk_modulus_GPa", BULK_MODULUS_GPA)
        return QuasiharmonicSet(
            quadrupole=_model_from_dict(models, "quadrupole"),
            hyperfine=_model_from_dict(models, "hyperfine"),
            zfs=_model_from_dict(models, "zfs"),
            quadrupole_per_strain=per_strain_q * (-3.0 * k),
            hyperfine_per_strain=per_strain_a * (-3.0 * k),
        )
    except yaml.YAMLError as exc:
        raise ValueError(f"response data file {path} is not valid YAML: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"response data file {path} lacks {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"response data file {path}: {exc}") from None


@functools.cache
def default_quasiharmonic_set() -> QuasiharmonicSet:
    """The packaged calibrated set (loaded once per process)."""
    return load_response_set()
