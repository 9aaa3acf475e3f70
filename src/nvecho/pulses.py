"""Pulse sequences as plain data: segments of free evolution on one pair.

A ``PulseSequence`` is a transition pair and its ``Segment``s; its kind and
total time follow from them.  The module is pure Python, so a sequence
script parses without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PROJECTIONS = (-1, 0, 1)


def check_projection(m, name):
    if m not in PROJECTIONS:
        raise ValueError(f"{name} must be one of -1, 0, +1, got {m}")


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
        check_projection(self.m_S, "m_S")
        if self.sign not in (-1, 1):
            raise ValueError("segment sign must be +1 or -1")


@dataclass(frozen=True)
class PulseSequence:
    """A transition pair and the segments of free evolution; its kind and
    total time follow from them."""

    pair: tuple
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("sequence needs at least one segment")
        if self.total_time <= 0:
            raise ValueError("sequence must have positive total duration")

    @property
    def total_time(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @property
    def kind(self) -> str:
        """The most specific standard label, read from the segments alone:
        one segment is a ramsey, or a dq_ramsey on the (-1, +1) pair; two
        segments in distinct electron manifolds an unbalanced_echo; a single
        interior sign change a nuclear_echo; anything else custom."""
        segs = self.segments
        flips = [i for i in range(1, len(segs)) if segs[i].sign != segs[i - 1].sign]
        if segs[0].sign < 0 or len(flips) > 1:
            return "custom"
        if flips:
            flip_at = sum(seg.duration for seg in segs[:flips[0]])
            return "nuclear_echo" if 0.0 < flip_at < self.total_time else "custom"
        if len(segs) == 1:
            return "dq_ramsey" if set(self.pair) == {-1, 1} else "ramsey"
        if len(segs) == 2 and segs[0].m_S != segs[1].m_S:
            return "unbalanced_echo"
        return "custom"
