"""Unit conventions and quantity parsing for configs and the CLI.

Internal convention: every frequency-like number inside the library is an
angular frequency in rad/s (or rad/s per K, per G, per GPa, per unit strain).
The 2*pi factor is applied exactly once, when a value crosses from a config,
CLI flag, or data file into the library. Config-level floats stay in display
units (Hz family, s, K, G, GPa) so that parse -> print -> parse is a fixed
point of plain repr round-tripping.
"""

from __future__ import annotations

import math
import numbers
import re

TWO_PI = 2.0 * math.pi

# Boltzmann constant over hbar, rad/s per K (CODATA via scipy.constants values).
K_B = 1.380649e-23        # J/K
HBAR = 1.0545718176461565e-34  # J s
K_B_OVER_HBAR = K_B / HBAR     # rad/s per K


class QuantityError(ValueError):
    """A config value failed unit parsing."""


# dimension -> {suffix: power of ten to the base unit}; the first suffix is
# the base unit, which a config is printed in
_SCALES = {
    "frequency": {"Hz": 0, "kHz": 3, "MHz": 6, "GHz": 9},
    "time": {"s": 0, "ms": -3, "us": -6, "µs": -6, "ns": -9},
    "temperature": {"K": 0},
    "field": {"G": 0},
    "frequency_per_K": {"Hz/K": 0, "kHz/K": 3, "MHz/K": 6},
    "frequency_per_G": {"Hz/G": 0, "kHz/G": 3, "MHz/G": 6},
    "frequency_per_GPa": {"Hz/GPa": 0, "kHz/GPa": 3, "MHz/GPa": 6},
}

_NUMBER = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?$")


def parse_quantity(text: str | float, dimension: str) -> float:
    """Parse ``"39 Hz/K"`` style text into the dimension's base unit: the
    double nearest the written decimal (``"5 us"`` is 5e-06).

    Units are mandatory: a bare number is rejected so a config cannot
    silently mix Hz with rad/s or seconds with milliseconds.
    """
    if dimension not in _SCALES:
        raise QuantityError(f"unknown dimension {dimension!r}")
    if isinstance(text, (int, float)):
        raise QuantityError(
            f"bare number {text!r} for a {dimension} value; a unit suffix is "
            f"required (one of {sorted(_SCALES[dimension])})"
        )
    parts = str(text).strip().split()
    if len(parts) == 1:
        # allow "39Hz" by splitting digits from the suffix
        m = re.match(r"^([+-]?[\d.eE+-]+?)([A-Za-zµ/]+)$", parts[0])
        if not m:
            raise QuantityError(
                f"could not parse quantity {text!r} ({dimension}); expected "
                f"'<number> <unit>' with unit in {sorted(_SCALES[dimension])}"
            )
        parts = [m.group(1), m.group(2)]
    if len(parts) != 2:
        raise QuantityError(f"could not parse quantity {text!r} ({dimension})")
    num, unit = parts
    number = _NUMBER.match(num)
    if not number:
        raise QuantityError(f"bad number {num!r} in quantity {text!r}")
    scales = _SCALES[dimension]
    if unit not in scales:
        raise QuantityError(
            f"unknown unit {unit!r} for {dimension} in {text!r}; expected one "
            f"of {sorted(scales)}"
        )
    mantissa, exponent = number.groups()
    try:  # the unit's power of ten joins the number's exponent: one rounding
        value = float(f"{mantissa}e{int(exponent or 0) + scales[unit]}")
    except ValueError:  # an exponent longer than int() reads (4300 digits)
        raise QuantityError(f"bad number {num!r} in quantity {text!r}") from None
    if not math.isfinite(value):
        raise QuantityError(f"quantity {text!r} is not finite")
    return value


def check_number(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is one finite real number:
    a bool would count as 0 or 1, and an array is not one number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a plain number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def format_quantity(value: float, dimension: str) -> str:
    """Canonical text for a base-unit value; inverse of parse_quantity."""
    return f"{float(value)!r} {next(iter(_SCALES[dimension]))}"


def angular(frequency_hz: float) -> float:
    """Convert plain Hz (cycles) to angular rad/s."""
    return TWO_PI * frequency_hz


def cycles(angular_rad_s: float) -> float:
    """Convert angular rad/s back to plain Hz (cycles)."""
    return angular_rad_s / TWO_PI
