"""Temperature and strain response of the nuclear-spin interactions.

Two interchangeable descriptions are provided for how the quadrupole and
hyperfine interactions move with the environment:

* :class:`LinearResponse` - constant slopes (rad/s per K, per unit strain),
  valid for small excursions around the operating point.
* :class:`QuasiharmonicResponse` - an explicit lattice model whose shift is
  a first-order thermal-expansion term plus a sum of Einstein modes weighted
  by their Bose-Einstein occupation.  Used for wide temperature ensembles
  where the local slopes themselves drift.  The calibrated set also carries
  the electronic zero-field splitting's curve.

The quasiharmonic coefficients shipped with the package are calibrated
surrogates: they are pinned to the measured local slopes and to a target
curve for the hyperfine/quadrupole slope ratio, not derived from first
principles.  See ``data/quasiharmonic_default.yaml`` for the calibration
provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .solvers import FitError, levenberg_marquardt
from .units import K_B_OVER_HBAR, TWO_PI, angular, cycles

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
# base values of its quadrupole, hyperfine and zfs curves (rad/s), and the
# relative miss of any ratio target that fails a calibration.
CALIBRATION_T0_K = 300.0
CALIBRATION_BASE_VALUES = (angular(-4.945e6), angular(-2.16e6), angular(2.87e9))
RATIO_TOLERANCE = 0.02

DEFAULT_DATA_FILE = Path(__file__).parent / "data" / "quasiharmonic_default.yaml"


class CalibrationError(RuntimeError):
    """Calibration targets could not be met; message lists the residuals."""


def einstein_mode_frequency(theta_K: float) -> float:
    """Angular frequency (rad/s) of a mode with hbar*omega = k_B * theta_K."""
    return K_B_OVER_HBAR * theta_K


def bose_einstein(omega: float, T):
    """Bose-Einstein occupation of a mode at angular frequency omega (rad/s).

    Parameters
    ----------
    omega : float
        Mode angular frequency, rad/s.  Must be positive.
    T : float or ndarray
        Temperature in K.  T = 0 gives 0; negative T is rejected.
    """
    if omega <= 0:
        raise ValueError("mode frequency must be positive")
    T = np.asarray(T, dtype=float)
    if np.any(T < 0):
        raise ValueError("temperature must be >= 0 K")
    # at T = 0, omega / 0 = inf is clamped to 700 and its occupation replaced by 0
    with np.errstate(over="ignore", divide="ignore"):
        n = np.where(T > 0, 1.0 / np.expm1(np.minimum(omega / (K_B_OVER_HBAR * T), 700.0)), 0.0)
    return float(n) if n.ndim == 0 else n


def bose_einstein_slope(omega: float, T):
    """d n / dT for a Bose-Einstein occupation; rad/s-free, units 1/K."""
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise ValueError("slope defined for T > 0")
    u = omega / (K_B_OVER_HBAR * T)
    eu = np.exp(np.minimum(u, 700.0))
    out = (u / T) * eu / (eu - 1.0) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class InteractionShift:
    """Additive shifts of the two interactions, rad/s (fields may be arrays)."""

    d_quadrupole: float = 0.0
    d_hyperfine: float = 0.0


@dataclass(frozen=True)
class LinearResponse:
    """Constant-slope environmental response of the interactions.

    Temperature slopes are rad/s per K; strain slopes are rad/s per unit
    hydrostatic strain, derived from the measured GPa slopes through the
    bulk-modulus conversion P = -3*K*eps.
    """

    quadrupole_per_K: float = angular(39.0)
    hyperfine_per_K: float = angular(204.0)
    quadrupole_per_strain: float = QUADRUPOLE_PER_GPA * PRESSURE_PER_STRAIN_GPA
    hyperfine_per_strain: float = HYPERFINE_PER_GPA * PRESSURE_PER_STRAIN_GPA

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"response slope {f.name} must be finite, "
                                 f"got {getattr(self, f.name)!r}")

    def interaction_shift(self, d_temperature=0.0, strain=0.0) -> InteractionShift:
        return InteractionShift(
            d_quadrupole=self.quadrupole_per_K * d_temperature
            + self.quadrupole_per_strain * strain,
            d_hyperfine=self.hyperfine_per_K * d_temperature
            + self.hyperfine_per_strain * strain,
        )


def default_linear_response() -> LinearResponse:
    return LinearResponse()


@dataclass(frozen=True)
class QuasiharmonicResponse:
    """Quasiharmonic temperature dependence of one interaction strength.

    shift(T) = first_order * (q_ex(T) - q_ex(reference_T))
             + sum_i b_i * (n(omega_i, T) - n(omega_i, reference_T))

    where q_ex is a cubic polynomial in T describing the thermal-expansion
    coordinate (zero at T = 0) and n is the Bose-Einstein occupation.  The
    zero-point contribution of each mode is absorbed into b_i, so only
    occupation differences appear.
    """

    base_value: float          # interaction strength at reference_T, rad/s
    first_order: float         # rad/s per unit q_ex
    thermal_expansion: tuple   # (c1, c2, c3): q_ex(T) = c1*T + c2*T^2 + c3*T^3
    modes: tuple               # ((omega_i rad/s, b_i rad/s), ...)
    reference_T: float         # K

    def __post_init__(self):
        values = (self.base_value, self.first_order, *self.thermal_expansion,
                  *(x for mode in self.modes for x in mode), self.reference_T)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("quasiharmonic coefficients, modes and reference "
                             f"temperature must be finite, got modes={self.modes!r}, "
                             f"reference_T={self.reference_T!r}")
        for omega, _ in self.modes:
            if omega <= 0:
                raise ValueError("all mode frequencies must be positive")
        if self.reference_T < 0:
            raise ValueError("reference temperature must be >= 0 K")

    def _q_ex(self, T):
        c1, c2, c3 = self.thermal_expansion
        return c1 * T + c2 * T**2 + c3 * T**3

    def shift_at(self, T):
        """Shift relative to reference_T, rad/s.  Accepts scalars or arrays.
        The thermal-expansion term is skipped when ``first_order`` is 0."""
        T = np.asarray(T, dtype=float)
        if self.first_order:
            out = self.first_order * (self._q_ex(T) - self._q_ex(self.reference_T))
        else:
            out = np.zeros_like(T)
        for omega, b in self.modes:
            out = out + b * (bose_einstein(omega, T) - bose_einstein(omega, self.reference_T))
        return float(out) if out.ndim == 0 else out

    def slope_at(self, T):
        """Analytic d shift / dT, rad/s per K."""
        T = np.asarray(T, dtype=float)
        c1, c2, c3 = self.thermal_expansion
        out = self.first_order * (c1 + 2 * c2 * T + 3 * c3 * T**2)
        for omega, b in self.modes:
            out = out + b * bose_einstein_slope(omega, T)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuasiharmonicSet:
    """Calibrated quadrupole/hyperfine/zfs curves plus the strain channel."""

    quadrupole: QuasiharmonicResponse
    hyperfine: QuasiharmonicResponse
    zfs: QuasiharmonicResponse
    quadrupole_per_strain: float = QUADRUPOLE_PER_GPA * PRESSURE_PER_STRAIN_GPA
    hyperfine_per_strain: float = HYPERFINE_PER_GPA * PRESSURE_PER_STRAIN_GPA


@dataclass(frozen=True)
class StrainShift:
    """Result of the hydrostatic-strain channel."""

    d_quadrupole: float
    d_hyperfine: float
    pressure_GPa: float
    extrapolated: bool  # |eps| beyond the 2% range the slopes were measured in


def strain_response(epsilon: float, response: LinearResponse | None = None) -> StrainShift:
    """Interaction shifts for a hydrostatic strain epsilon (dimensionless).

    Positive epsilon is tensile; the pressure conversion P = -3*K*eps with
    K = 443 GPa is exposed on the result.  Outside |eps| <= 0.02 the result
    carries an extrapolation flag because the underlying slopes were only
    verified in that range.
    """
    if response is None:
        response = default_linear_response()
    pressure = PRESSURE_PER_STRAIN_GPA * epsilon
    shift = response.interaction_shift(strain=epsilon)
    return StrainShift(
        d_quadrupole=shift.d_quadrupole,
        d_hyperfine=shift.d_hyperfine,
        pressure_GPa=pressure,
        extrapolated=abs(epsilon) > 0.02,
    )


# --------------------------------------------------------------- calibration

def calibrate_einstein_model(
    target_slope_at_T0: float,
    target_ratio_curve: Sequence[tuple],
    T0: float,
    *,
    role: str = "varied",
    reference: QuasiharmonicResponse | None = None,
    reference_mode_K: float = REFERENCE_MODE_K,
    base_value: float = 0.0,
) -> QuasiharmonicResponse:
    """Build a single-mode quasiharmonic model hitting a slope target.

    ``role="reference"`` places the mode at ``reference_mode_K`` and fixes
    its weight from the slope target; the ratio curve is not fitted (a single
    curve cannot carry a ratio on its own).

    ``role="varied"`` additionally fits the mode temperature so that the
    slope ratio of this model against ``reference`` (built implicitly when
    omitted) follows ``target_ratio_curve``, a sequence of
    ``(temperature_K, ratio)`` points with the ratio normalized to this
    model over the reference.

    Raises
    ------
    CalibrationError
        If the fitted ratio misses any target point by more than
        ``RATIO_TOLERANCE`` relative; the message lists per-point residuals.
    """
    curve = tuple((float(T), float(r)) for T, r in target_ratio_curve)
    if not curve:
        raise CalibrationError("ratio curve must contain at least one point")
    if any(r <= 0 for _, r in curve):
        raise CalibrationError("ratio targets must be positive")
    if target_slope_at_T0 == 0.0:
        return QuasiharmonicResponse(
            base_value=base_value,
            first_order=0.0,
            thermal_expansion=(0.0, 0.0, 0.0),
            modes=((einstein_mode_frequency(reference_mode_K), 0.0),),
            reference_T=T0,
        )

    def model_for(theta_K: float) -> QuasiharmonicResponse:
        omega = einstein_mode_frequency(theta_K)
        weight = target_slope_at_T0 / bose_einstein_slope(omega, T0)
        return QuasiharmonicResponse(
            base_value=base_value,
            first_order=0.0,
            thermal_expansion=(0.0, 0.0, 0.0),
            modes=((omega, weight),),
            reference_T=T0,
        )

    if role == "reference":
        return model_for(reference_mode_K)
    if role != "varied":
        raise ValueError("role must be 'reference' or 'varied'")

    curve_at_T0 = dict(curve).get(T0)
    if reference is None:
        if curve_at_T0 is None:
            raise CalibrationError("ratio curve must include the anchor temperature T0")
        reference = calibrate_einstein_model(
            target_slope_at_T0 / curve_at_T0, curve, T0,
            role="reference", reference_mode_K=reference_mode_K,
        )

    om_ref, b_ref = reference.modes[0]
    Ts = np.array([T for T, _ in curve])
    targets = np.array([r for _, r in curve])

    def residuals(log_theta):
        theta = float(np.exp(log_theta[0]))
        omega = einstein_mode_frequency(theta)
        weight = target_slope_at_T0 / bose_einstein_slope(omega, T0)
        model_ratio = (weight * bose_einstein_slope(omega, Ts)) / (
            b_ref * bose_einstein_slope(om_ref, Ts)
        )
        # d ln(ratio) / d ln(theta), from d ln(dn/dT) / d ln(theta) = 1 - u coth(u / 2)
        d_log = theta / T0 / np.tanh(theta / (2 * T0)) - theta / Ts / np.tanh(theta / (2 * Ts))
        return (model_ratio - targets) / targets, (model_ratio * d_log / targets)[:, None]

    try:
        (log_theta,), res, _ = levenberg_marquardt(residuals, [math.log(reference_mode_K)])
    except FitError as exc:
        raise CalibrationError(
            f"ratio targets infeasible for a single varied mode: {exc}"
        ) from None
    if np.max(np.abs(res)) > RATIO_TOLERANCE:
        lines = ", ".join(
            f"{T:.0f} K: {r * 100:+.1f}%" for T, r in zip(Ts, res)
        )
        raise CalibrationError(
            f"ratio targets infeasible for a single varied mode; residuals: {lines}"
        )
    return model_for(float(np.exp(log_theta)))


def calibrate_response_set(
    slope_quadrupole: float = angular(39.0),
    slope_zfs: float = angular(-77.7e3),
) -> QuasiharmonicSet:
    """Calibrate the full quadrupole/hyperfine/zfs set from the slopes at
    ``CALIBRATION_T0_K``.

    The quadrupole and zfs curves sit on the reference mode; the hyperfine
    curve's mode temperature is fitted so the pair's slope ratio follows
    ``DEFAULT_RATIO_CURVE``.  The hyperfine slope at T0 is the quadrupole
    slope times the ratio-curve value at T0.
    """
    curve, T0 = DEFAULT_RATIO_CURVE, CALIBRATION_T0_K
    base_q, base_a, base_zfs = CALIBRATION_BASE_VALUES
    quadrupole = calibrate_einstein_model(
        slope_quadrupole, curve, T0, role="reference", base_value=base_q
    )
    hyperfine = calibrate_einstein_model(
        slope_quadrupole * dict(curve)[T0], curve, T0,
        role="varied", reference=quadrupole, base_value=base_a,
    )
    zfs = calibrate_einstein_model(
        slope_zfs, curve, T0, role="reference", base_value=base_zfs
    )
    return QuasiharmonicSet(quadrupole=quadrupole, hyperfine=hyperfine, zfs=zfs)


# ----------------------------------------------------------------- data file

def _model_to_dict(model: QuasiharmonicResponse) -> dict:
    return {
        "base_value_Hz": cycles(model.base_value),
        "first_order_Hz_per_qex": cycles(model.first_order),
        "thermal_expansion": list(model.thermal_expansion),
        "modes": [
            {"einstein_temperature_K": omega / K_B_OVER_HBAR, "weight_Hz": cycles(b)}
            for omega, b in model.modes
        ],
        "reference_T_K": model.reference_T,
    }


def _model_from_dict(d: dict) -> QuasiharmonicResponse:
    return QuasiharmonicResponse(
        base_value=angular(d["base_value_Hz"]),
        first_order=angular(d["first_order_Hz_per_qex"]),
        thermal_expansion=tuple(d["thermal_expansion"]),
        modes=tuple(
            (einstein_mode_frequency(m["einstein_temperature_K"]), angular(m["weight_Hz"]))
            for m in d["modes"]
        ),
        reference_T=d["reference_T_K"],
    )


def save_response_set(set_: QuasiharmonicSet, path, deterministic: bool = False) -> None:
    """Write the calibrated set with a calibration-provenance block.

    ``deterministic`` omits the calibration date so repeated runs produce
    byte-identical files.
    """
    ratio = [
        [T, float(set_.hyperfine.slope_at(T) / set_.quadrupole.slope_at(T))]
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
        "models": {
            "quadrupole": _model_to_dict(set_.quadrupole),
            "hyperfine": _model_to_dict(set_.hyperfine),
            "zfs": _model_to_dict(set_.zfs),
        },
        "strain": {
            "quadrupole_per_GPa_Hz": cycles(QUADRUPOLE_PER_GPA),
            "hyperfine_per_GPa_Hz": cycles(HYPERFINE_PER_GPA),
            "bulk_modulus_GPa": BULK_MODULUS_GPA,
        },
    }
    Path(path).write_text(yaml.safe_dump(payload, sort_keys=True))


def load_response_set(path=None) -> QuasiharmonicSet:
    """Load a calibrated set; defaults to the packaged data file."""
    raw = yaml.safe_load(Path(path or DEFAULT_DATA_FILE).read_text())
    if raw.get("schema") != "nvecho-response/1":
        raise ValueError(f"unrecognized response data file schema: {raw.get('schema')!r}")
    models = raw["models"]
    strain = raw.get("strain", {})
    per_strain_q = angular(strain.get("quadrupole_per_GPa_Hz", cycles(QUADRUPOLE_PER_GPA)))
    per_strain_a = angular(strain.get("hyperfine_per_GPa_Hz", cycles(HYPERFINE_PER_GPA)))
    k = strain.get("bulk_modulus_GPa", BULK_MODULUS_GPA)
    return QuasiharmonicSet(
        quadrupole=_model_from_dict(models["quadrupole"]),
        hyperfine=_model_from_dict(models["hyperfine"]),
        zfs=_model_from_dict(models["zfs"]),
        quadrupole_per_strain=per_strain_q * (-3.0 * k),
        hyperfine_per_strain=per_strain_a * (-3.0 * k),
    )


_default_set_cache: QuasiharmonicSet | None = None


def default_quasiharmonic_set() -> QuasiharmonicSet:
    """The packaged calibrated set (loaded once per process)."""
    global _default_set_cache
    if _default_set_cache is None:
        _default_set_cache = load_response_set()
    return _default_set_cache
