"""Secular spin model of the NV center's intrinsic nitrogen nucleus.

The nuclear sublevels inside one electronic manifold follow

    E(m_I; m_S) = (Q + dQ) m_I^2 + m_S (A + dA) m_I + gamma_n B m_I

with the quadrupole coupling Q, the secular hyperfine coupling A, and the
nuclear Zeeman term.  All couplings are angular frequencies (rad/s) and
carry their physical signs; observable transition frequencies are energy
differences, taken by magnitude.  Phase accumulated on a superposition of
two m_I levels is minus the time integral of their energy difference.  A
pulse sequence is a list of segments, each a duration in one electron
manifold with the sign that nuclear pi pulses leave, and its phase is linear
in Q, A and B: each coupling is weighted by the time spent in each manifold
(``phase_coefficients``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .response import InteractionShift
from .units import angular

_PROJECTIONS = (-1, 0, 1)

DOUBLE_QUANTUM_PAIR = (-1, +1)

# The six single-quantum lines, ordered by electron manifold (0, -1, +1)
# and nuclear branch.
SINGLE_QUANTUM_LINES = (
    (1, (0, +1), 0),
    (2, (0, -1), 0),
    (3, (0, +1), -1),
    (4, (0, -1), -1),
    (5, (0, +1), +1),
    (6, (0, -1), +1),
)

@dataclass(frozen=True)
class SpinSystemParams:
    """Static couplings of the electron-nuclear system, rad/s and gauss."""

    quadrupole: float = angular(-4.945e6)
    hyperfine: float = angular(-2.16e6)
    gamma_n: float = angular(-307.7)    # rad/s per G
    field_gauss: float = 239.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.quadrupole == 0:
            raise ValueError("quadrupole coupling must be nonzero")
        if abs(self.hyperfine) >= abs(self.quadrupole):
            raise ValueError(
                "secular model assumes |hyperfine| < |quadrupole|; "
                "level ordering would change otherwise"
            )
        if self.field_gauss < 0:
            raise ValueError("field must be >= 0 G")
        if abs(self.gamma_n * self.field_gauss) >= abs(self.quadrupole):
            raise ValueError(
                "nuclear Zeeman exceeds |quadrupole|; secular labeling breaks down"
            )

    @property
    def nuclear_zeeman(self) -> float:
        """gamma_n * B, rad/s (signed)."""
        return self.gamma_n * self.field_gauss


def default_params() -> SpinSystemParams:
    return SpinSystemParams()


def _check_projection(m, name):
    if m not in _PROJECTIONS:
        raise ValueError(f"{name} must be one of -1, 0, +1, got {m}")


def _validate_pair(pair):
    ref, target = pair
    _check_projection(ref, "pair[0]")
    _check_projection(target, "pair[1]")
    if ref == target:
        raise ValueError("transition pair must connect two distinct m_I levels")
    return ref, target


def pair_sensitivity(pair, m_S: int, gamma_n: float) -> tuple:
    """Per-channel frequency sensitivities of a transition.

    Returns (d/d(dQ), d/d(dA), d/d(dB)) of the signed energy difference
    E(target) - E(reference): the quadrupole channel responds to the change
    in m_I^2, the hyperfine channel to m_S times the change in m_I, and the
    field channel to gamma_n times the change in m_I.
    """
    ref, target = _validate_pair(pair)
    _check_projection(m_S, "m_S")
    d_mi = target - ref
    d_mi2 = target * target - ref * ref
    return (d_mi2, m_S * d_mi, gamma_n * d_mi)


def transition_frequency(params: SpinSystemParams, pair, m_S: int,
                         shift: InteractionShift | None = None) -> float:
    """|E(target) - E(reference)| for a (reference, target) m_I pair, rad/s:
    the pair's sensitivities times (Q + dQ, A + dA, B).  The electron-only
    terms (zfs, electron Zeeman) are common to a manifold's nuclear levels
    and cancel."""
    s_q, s_a, s_b = pair_sensitivity(pair, m_S, params.gamma_n)
    d_q, d_a = (0.0, 0.0) if shift is None else (shift.d_quadrupole, shift.d_hyperfine)
    return abs(s_q * (params.quadrupole + d_q) + s_a * (params.hyperfine + d_a)
               + s_b * params.field_gauss)


@dataclass(frozen=True)
class TransitionRecord:
    index: int
    pair: tuple
    m_S: int
    frequency: float  # rad/s


def single_quantum_table(params: SpinSystemParams,
                         shift: InteractionShift | None = None) -> tuple:
    """All six single-quantum lines as (index, pair, m_S, frequency) records."""
    return tuple(
        TransitionRecord(idx, pair, m_S, transition_frequency(params, pair, m_S, shift))
        for idx, pair, m_S in SINGLE_QUANTUM_LINES
    )


@dataclass(frozen=True)
class Segment:
    """One stretch of free evolution: duration (s) and electron manifold.

    ``sign`` is -1 after an odd number of nuclear pi pulses, which swap the
    two superposed levels and invert further phase accumulation.
    """

    duration: float
    m_S: int
    sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration!r}")
        _check_projection(self.m_S, "m_S")
        if self.sign not in (-1, 1):
            raise ValueError("segment sign must be +1 or -1")


@dataclass(frozen=True)
class PhaseCoefficients:
    """Linear response of the accumulated phase to static offsets.

    phase(dQ, dA, dB) = phase(0) + quadrupole * dQ + hyperfine * dA + field * dB
    with dQ, dA in rad/s and dB in gauss.  Exact, not just first order: the
    level energies are linear in all three offsets.  A family of sequences
    is one PhaseCoefficients whose fields are (G,) arrays (``stack_coefficients``).
    """

    quadrupole: float  # seconds
    hyperfine: float   # seconds
    field: float       # rad per gauss


def stack_coefficients(coefficients: Iterable[PhaseCoefficients]) -> PhaseCoefficients:
    """A family of G coefficient sets as one PhaseCoefficients of (G,) arrays."""
    rows = [(c.quadrupole, c.hyperfine, c.field) for c in coefficients]
    return PhaseCoefficients(*np.array(rows, dtype=float).reshape(-1, 3).T)


def phase_coefficients(params: SpinSystemParams, pair,
                       segments: Sequence[Segment]) -> PhaseCoefficients:
    """Time-weighted sensitivities of the phase to Q, A and B, which are
    also its response to shared (dQ, dA, dB) offsets."""
    c_q = c_a = c_b = 0.0
    for seg in segments:
        s_q, s_a, s_b = pair_sensitivity(pair, seg.m_S, params.gamma_n)
        c_q -= seg.sign * seg.duration * s_q
        c_a -= seg.sign * seg.duration * s_a
        c_b -= seg.sign * seg.duration * s_b
    return PhaseCoefficients(quadrupole=c_q, hyperfine=c_a, field=c_b)


def accumulated_phase(params: SpinSystemParams,
                      coefficients: PhaseCoefficients) -> float:
    """Phase of the target level relative to the reference, radians, signed:
    c_q Q + c_a A + c_B B for one PhaseCoefficients, or (G,) phases for a
    stacked family."""
    return (coefficients.quadrupole * params.quadrupole
            + coefficients.hyperfine * params.hyperfine
            + coefficients.field * params.field_gauss)
