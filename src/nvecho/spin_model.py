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
(``phase_coefficients``).  A line's frequency is the magnitude of the phase
that one second in its manifold accumulates on its pair.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .pulses import Segment, check_pair, check_projection
from .units import angular, check_number


@dataclass(frozen=True)
class SpinSystemParams:
    """Static couplings of the electron-nuclear system, rad/s and gauss."""

    quadrupole: float = angular(-4.945e6)
    hyperfine: float = angular(-2.16e6)
    gamma_n: float = angular(-307.7)    # rad/s per G
    field_gauss: float = 239.0

    def __post_init__(self):
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))
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


def default_params() -> SpinSystemParams:
    return SpinSystemParams()


def pair_sensitivity(pair, m_S: int, gamma_n: float) -> tuple:
    """Per-channel frequency sensitivities of a transition.

    Returns (d/d(dQ), d/d(dA), d/d(dB)) of the signed energy difference
    E(target) - E(reference): the quadrupole channel responds to the change
    in m_I^2, the hyperfine channel to m_S times the change in m_I, and the
    field channel to gamma_n times the change in m_I.
    """
    ref, target = check_pair(pair)
    check_projection(m_S, "m_S")
    d_mi = target - ref
    d_mi2 = target * target - ref * ref
    return (d_mi2, m_S * d_mi, gamma_n * d_mi)


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
