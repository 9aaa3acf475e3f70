"""Pulse sequences as plain data: segments of free evolution on one pair.

A ``PulseSequence`` is a transition pair and its ``Segment``s; its kind and
total time follow from them.  ``build_sequence`` builds the four standard
experiments from the keys of a config's sequence block:

* ``ramsey`` - free evolution in manifold ``ms`` on one single-quantum
  ``pair``.
* ``dq_ramsey`` - free evolution in ``ms`` on the m_I = -1 <-> +1
  double-quantum pair.
* ``unbalanced_echo`` - free evolution in ``ms_free``, then one electron
  flip into ``ms_flipped`` for the final ``flip_fraction`` of the total
  time.  The hyperfine interaction acts only while the electron is flipped,
  with a pair-dependent sign, so the flip fraction tunes the net
  sensitivity to correlated quadrupole/hyperfine noise; on the (0, -1)
  branch the fraction equal to the slope ratio cancels temperature noise
  completely.
* ``nuclear_echo`` - a nuclear pi pulse at the midpoint, refocusing every
  static energy shift.

``KINDS`` maps each kind to its one builder, the block keys it reads and
its refusal rule; ``build_sequence``, ``sequences.scans`` and the config
check read it.  The module is pure Python, so a config is checked against
the kinds, and a script parsed, without loading the simulation layer.
"""

from __future__ import annotations

import numbers
from typing import Callable, NamedTuple

from .records import Frozen
from .units import check_number

PROJECTIONS = (-1, 0, 1)
DOUBLE_QUANTUM_PAIR = (-1, +1)


def format_projection(m: int) -> str:
    """A spin projection as scripts and artifact labels print it: +1, 0, -1."""
    return f"{m:+d}" if m else "0"


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


class Segment(Frozen):
    """One stretch of free evolution: duration (s) and electron manifold.

    ``sign`` is -1 after an odd number of nuclear pi pulses, which swap the
    two superposed levels and invert further phase accumulation.
    """

    duration: float
    m_S: int
    sign: int = 1

    def __init__(self, duration, m_S, sign=1):  # spelled out: a hot constructor
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "m_S", m_S)
        object.__setattr__(self, "sign", sign)
        self._check()

    def _check(self):
        check_number("segment duration", self.duration)
        if self.duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration!r}")
        check_projection(self.m_S, "m_S")
        if (isinstance(self.sign, bool) or not isinstance(self.sign, numbers.Integral)
                or self.sign not in (-1, 1)):
            raise ValueError(f"segment sign must be +1 or -1, got {self.sign!r}")


class PulseSequence(Frozen):
    """A transition pair and the segments of free evolution; its kind and
    total time follow from them."""

    pair: tuple
    segments: tuple

    def __init__(self, pair, segments):  # spelled out: a hot constructor
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "segments", segments)
        self._check()

    def _check(self):
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


def _ramsey(t, pair, ms):
    return PulseSequence(tuple(pair), (Segment(t, ms),))


def _unbalanced_echo(t, pair, ms_free, ms_flipped, flip_fraction):
    check_number("flip_fraction", flip_fraction)  # a bool would flip for all or none of t
    if not 0 <= flip_fraction <= 1:
        raise ValueError(f"flip_fraction must lie in [0, 1], got {flip_fraction!r}")
    flip_time = flip_fraction * t
    return PulseSequence(tuple(pair), (Segment(t - flip_time, ms_free),
                                       Segment(flip_time, ms_flipped)))


def _nuclear_echo(t, pair, ms):
    half = t / 2.0
    return PulseSequence(tuple(pair), (Segment(half, ms, sign=+1), Segment(half, ms, sign=-1)))


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
    "ramsey": SequenceKind(_ramsey, {"pair": (0, -1), "ms": 0}, _needs_m_i_zero),
    "dq_ramsey": SequenceKind(lambda t, ms: _ramsey(t, DOUBLE_QUANTUM_PAIR, ms), {"ms": 0}),
    "unbalanced_echo": SequenceKind(
        _unbalanced_echo,
        {"pair": (0, -1), "ms_free": 0, "ms_flipped": 1, "flip_fraction": None},
        _flip_changes_manifold),
    "nuclear_echo": SequenceKind(_nuclear_echo, {"pair": (0, -1), "ms": 0}),
}


def build_sequence(kind: str, total_time: float | None = None, **keys) -> PulseSequence:
    """The named experiment over ``total_time`` from the block keys its kind
    reads (``KINDS``); a key it lacks takes the kind's default, a key with
    no default, like ``total_time``, must be given, and a None given is
    checked as the key's value.  A block the kind's rule refuses raises the
    ValueError that the config check reports."""
    spec = KINDS.get(kind)
    if spec is None:
        raise ValueError(f"cannot build sequence kind {kind!r}; expected one of {tuple(KINDS)}")
    unread = sorted(set(keys) - set(spec.keys))
    if unread:
        raise ValueError(f"kind {kind} does not read {', '.join(unread)}")
    missing = [key for key, default in ({"total_time": total_time} | spec.keys).items()
               if default is None and key not in keys]
    if missing:
        raise ValueError(f"kind {kind} needs a {missing[0]}")
    keys = spec.keys | keys
    check_number("total_time", total_time)
    if total_time <= 0:
        raise ValueError(f"total_time must be > 0, got {total_time!r}")
    if "pair" in keys:  # each checked before the rule reads it
        check_pair(keys["pair"])
    for key in ("ms", "ms_free", "ms_flipped"):
        if key in keys:
            check_projection(keys[key], key)
    refusal = spec.rule(keys)
    if refusal is not None:
        raise ValueError(f"{refusal[0]}: {refusal[1]}")
    return spec.build(total_time, **keys)
