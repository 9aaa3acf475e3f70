"""Pulse sequences as plain data: segments of free evolution on one pair.

A ``PulseSequence`` is a transition pair and its ``Segment``s; its kind and
total time follow from them.  Builders produce the four standard
experiments:

* ``ramsey`` - free evolution on one single-quantum branch.
* ``dq_ramsey`` - free evolution on the m_I = -1 <-> +1 double-quantum pair.
* ``unbalanced_echo`` - free evolution interrupted by one electron flip a
  time ``flip_time`` before readout.  The hyperfine interaction acts only
  while the electron is flipped, with a pair-dependent sign, so the flip
  fraction tunes the net sensitivity to correlated quadrupole/hyperfine
  noise; on the (0, -1) branch the fraction equal to the slope ratio
  cancels temperature noise completely.
* ``nuclear_echo`` - a nuclear pi pulse at the midpoint, refocusing every
  static energy shift.

``KINDS`` maps each kind to its builder, the sequence-block keys it reads
and its refusal rule; ``build_sequence``, ``sequences.scans`` and the config
check read it.  The module is pure Python, so a sequence script parses and
a config is checked against the kinds without loading the simulation layer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .units import check_number

PROJECTIONS = (-1, 0, 1)
DOUBLE_QUANTUM_PAIR = (-1, +1)


def check_projection(m, name):
    """ValueError unless ``m`` is an integer, not a bool, in -1, 0, +1."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m not in PROJECTIONS:
        raise ValueError(f"{name} must be one of -1, 0, +1, got {m}")


def check_pair(pair):
    """The (reference, target) m_I levels of a transition pair; ValueError
    unless they are two distinct projections."""
    try:
        ref, target = pair
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValueError(f"transition pair must be two m_I levels (reference, target), "
                         f"got {pair!r}") from None
    check_projection(ref, "pair[0]")
    check_projection(target, "pair[1]")
    if ref == target:
        raise ValueError("transition pair must connect two distinct m_I levels")
    return ref, target


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
        check_number("segment duration", self.duration)
        if self.duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration!r}")
        check_projection(self.m_S, "m_S")
        if (isinstance(self.sign, bool) or not isinstance(self.sign, numbers.Integral)
                or self.sign not in (-1, 1)):
            raise ValueError(f"segment sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class PulseSequence:
    """A transition pair and the segments of free evolution; its kind and
    total time follow from them."""

    pair: tuple
    segments: tuple

    def __post_init__(self):
        check_pair(self.pair)
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


# --------------------------------------------------------------- builders

def _needs_m_i_zero(keys):
    if 0 not in keys["pair"]:
        return "pair", ("a single-quantum ramsey needs a pair involving m_I = 0; "
                        "the (-1, +1) pair is kind dq_ramsey")


def _flip_changes_manifold(keys):
    if keys["ms_free"] == keys["ms_flipped"]:
        return "ms_flipped", (f"must differ from ms_free ({keys['ms_free']}): "
                              "the electron flip must change the manifold")


def _refuse(rule, keys) -> None:
    refusal = rule(keys)
    if refusal is not None:
        raise ValueError(f"{refusal[0]}: {refusal[1]}")


def build_ramsey(duration: float, pair=(0, -1), m_S: int = 0) -> PulseSequence:
    check_number("duration", duration)
    _refuse(_needs_m_i_zero, {"pair": pair})
    return PulseSequence(tuple(pair), (Segment(duration, m_S),))


def build_dq_ramsey(duration: float, m_S: int = 0) -> PulseSequence:
    check_number("duration", duration)
    return PulseSequence(DOUBLE_QUANTUM_PAIR, (Segment(duration, m_S),))


def build_unbalanced_echo(total_time: float, flip_time: float, pair=(0, -1),
                          ms_free: int = 0, ms_flipped: int = 1) -> PulseSequence:
    check_number("total_time", total_time)
    check_number("flip_time", flip_time)
    if not 0 <= flip_time <= total_time:
        raise ValueError("flip time must lie within the sequence: 0 <= tau <= t")
    _refuse(_flip_changes_manifold, {"ms_free": ms_free, "ms_flipped": ms_flipped})
    return PulseSequence(
        tuple(pair),
        (Segment(total_time - flip_time, ms_free), Segment(flip_time, ms_flipped)),
    )


def build_nuclear_echo(total_time: float, pair=(0, -1), m_S: int = 0) -> PulseSequence:
    check_number("total_time", total_time)
    half = total_time / 2.0
    return PulseSequence(
        tuple(pair), (Segment(half, m_S, sign=+1), Segment(half, m_S, sign=-1)))


def _build_flip_fraction_echo(t, pair, ms_free, ms_flipped, flip_fraction):
    check_number("flip_fraction", flip_fraction)  # a bool would flip for all or none of t
    return build_unbalanced_echo(t, flip_fraction * t, pair, ms_free, ms_flipped)


class SequenceKind(NamedTuple):
    """One kind of ``KINDS``: ``build(total_time, **keys)``, the block keys
    it reads with their defaults (None when a block must give the key), and
    the rule that names the key and the reason a block cannot be built."""

    build: Callable
    keys: dict
    rule: Callable = lambda keys: None

    def read(self, block: dict) -> dict:
        """The keys of ``block`` that this kind reads."""
        return {key: block[key] for key in self.keys if key in block}


# Single-manifold kinds evolve in ``ms``; the unbalanced echo evolves in
# ``ms_free`` and flips into ``ms_flipped`` for the final ``flip_fraction``.
KINDS = {
    "ramsey": SequenceKind(lambda t, pair, ms: build_ramsey(t, pair, ms),
                           {"pair": (0, -1), "ms": 0}, _needs_m_i_zero),
    "dq_ramsey": SequenceKind(lambda t, ms: build_dq_ramsey(t, ms), {"ms": 0}),
    "unbalanced_echo": SequenceKind(
        _build_flip_fraction_echo,
        {"pair": (0, -1), "ms_free": 0, "ms_flipped": 1, "flip_fraction": None},
        _flip_changes_manifold),
    "nuclear_echo": SequenceKind(lambda t, pair, ms: build_nuclear_echo(t, pair, ms),
                                 {"pair": (0, -1), "ms": 0}),
}


def build_sequence(kind: str, total_time: float | None = None, **keys) -> PulseSequence:
    """The named experiment over ``total_time`` from the block keys its kind
    reads (``KINDS``); a key it lacks takes the kind's default, and a key
    with no default, like ``total_time``, must be given."""
    spec = KINDS.get(kind)
    if spec is None:
        raise ValueError(f"cannot build sequence kind {kind!r}; expected one of {tuple(KINDS)}")
    unread = sorted(set(keys) - set(spec.keys))
    if unread:
        raise ValueError(f"kind {kind} does not read {', '.join(unread)}")
    keys = spec.keys | keys
    missing = [key for key, value in ({"total_time": total_time} | keys).items()
               if value is None]
    if missing:
        raise ValueError(f"kind {kind} needs a {missing[0]}")
    return spec.build(total_time, **keys)
