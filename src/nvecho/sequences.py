"""Pulse sequences on the nuclear transitions and their ensemble signals.

Builders produce the four standard experiments:

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
and its refusal rule; ``build_sequence``, ``scans`` and the config check
read it.  ``simulate_family`` averages the phase factor over the noise
ensemble for a whole family of sequences at once.  The sources choose how:
when every source enters the phase linearly the average is exact, and
otherwise (a quasiharmonic temperature source) it is a Monte Carlo
estimate.  ``simulate_amplitude`` is its one-sequence case, and ``scans``
evaluates decay scans and flip-location sweeps, any number of them, as one
family call.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .noise import (DEFAULT_SAMPLES, DEFAULT_SEED, MonteCarloResult, dephasing_factor,
                    monte_carlo_attenuation)
from .pulses import PulseSequence, Segment
from .spin_model import (
    DOUBLE_QUANTUM_PAIR,
    SpinSystemParams,
    accumulated_phase,
    default_params,
    phase_coefficients,
    stack_coefficients,
)


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
    _refuse(_needs_m_i_zero, {"pair": pair})
    return PulseSequence(tuple(pair), (Segment(duration, m_S),))


def build_dq_ramsey(duration: float, m_S: int = 0) -> PulseSequence:
    return PulseSequence(DOUBLE_QUANTUM_PAIR, (Segment(duration, m_S),))


def build_unbalanced_echo(total_time: float, flip_time: float, pair=(0, -1),
                          ms_free: int = 0, ms_flipped: int = 1) -> PulseSequence:
    if not (math.isfinite(total_time) and math.isfinite(flip_time)):
        raise ValueError(f"total time and flip time must be finite, got t={total_time!r}, "
                         f"tau={flip_time!r}")
    if not 0 <= flip_time <= total_time:
        raise ValueError("flip time must lie within the sequence: 0 <= tau <= t")
    _refuse(_flip_changes_manifold, {"ms_free": ms_free, "ms_flipped": ms_flipped})
    return PulseSequence(
        tuple(pair),
        (Segment(total_time - flip_time, ms_free), Segment(flip_time, ms_flipped)),
    )


def build_nuclear_echo(total_time: float, pair=(0, -1), m_S: int = 0) -> PulseSequence:
    half = total_time / 2.0
    return PulseSequence(
        tuple(pair), (Segment(half, m_S, sign=+1), Segment(half, m_S, sign=-1)))


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
        lambda t, pair, ms_free, ms_flipped, flip_fraction: build_unbalanced_echo(
            t, flip_fraction * t, pair, ms_free, ms_flipped),
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


@dataclass(frozen=True)
class SimulationResult:
    """Ensemble-averaged signal: mean = e^{i base_phase} * attenuation.

    Fields are (G,) arrays for a family and scalars for one sequence."""

    attenuation: complex  # real from the closed form, complex from Monte Carlo
    base_phase: float
    monte_carlo: MonteCarloResult | None = None

    @property
    def amplitude(self) -> float:
        # hypot rounds like abs(complex); numpy's complex abs can differ by an ulp
        return np.hypot(self.attenuation.real, self.attenuation.imag)

    @property
    def mean_signal(self) -> complex:
        # numpy's complex product rounds arrays and scalars apart; this does not
        cos, sin = np.cos(self.base_phase), np.sin(self.base_phase)
        re, im = self.attenuation.real, self.attenuation.imag
        return (cos * re - sin * im) + 1j * (sin * re + cos * im)


def simulate_family(sequences, sources, params: SpinSystemParams | None = None,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> SimulationResult:
    """Average e^{i phase} over the noise ensemble for every sequence: e^{i
    base_phase}, the deterministic phase at the distribution locations, times
    the attenuation about them.  When every source enters the phase linearly
    the attenuation is the exact, real ``dephasing_factor``; otherwise it is a
    Monte Carlo estimate from ``n_samples`` draws keyed by ``seed``, which all
    sequences share, and ``monte_carlo`` holds its bookkeeping.
    """
    if params is None:
        params = default_params()
    sources = tuple(sources)
    coeffs = [phase_coefficients(params, seq.pair, seq.segments) for seq in sequences]
    grid = stack_coefficients(coeffs)
    base = accumulated_phase(params, grid) + sum(src.location_phase(grid) for src in sources)
    if all(src.is_linear for src in sources):
        return SimulationResult(attenuation=dephasing_factor(sources, coeffs), base_phase=base)
    mc = monte_carlo_attenuation(sources, coeffs, n_samples=n_samples, seed=seed)
    return SimulationResult(attenuation=mc.attenuation, base_phase=base, monte_carlo=mc)


def simulate_amplitude(sequence: PulseSequence, sources, **kwargs) -> SimulationResult:
    """One sequence's ensemble average: ``simulate_family`` with G = 1, its
    keywords (params, n_samples, seed) included."""
    family = simulate_family([sequence], sources, **kwargs)
    return SimulationResult(attenuation=family.attenuation[0].item(),
                            base_phase=float(family.base_phase[0]),
                            monte_carlo=family.monte_carlo)


def _average_metadata(result: SimulationResult) -> dict:
    """How the ensemble average was taken: the backend label and, for Monte
    Carlo, its seed and sample count."""
    mc = result.monte_carlo
    if mc is None:
        return {"backend": "closed_form"}
    return {"backend": "monte_carlo", "seed": mc.seed, "n_samples": mc.n_samples}


@dataclass
class EnsembleSignal:
    """A 1D scan: y(x) plus labels and free-form metadata."""

    x: np.ndarray
    y: np.ndarray
    x_label: str
    y_label: str
    metadata: dict = dataclass_field(default_factory=dict)
    monte_carlo: MonteCarloResult | None = None  # per-point bookkeeping of MC scans


def phase_sweep(sequence: PulseSequence, sources, readout_phases,
                contrast: float = 1.0, maximum: float = 1.0, **kwargs) -> EnsembleSignal:
    """Fringe signal versus readout phase phi,

        S(phi) = maximum - contrast/2 + (contrast/2) Re[e^{i phi} <e^{i phase}>],

    so a noiseless ensemble swings between ``maximum`` and
    ``maximum - contrast`` and full dephasing leaves the constant midpoint.
    """
    phases = np.asarray(readout_phases, dtype=float)
    if phases.size == 0:
        raise ValueError("need at least one readout phase")
    if not np.all(np.isfinite(phases)):
        raise ValueError("readout phases must be finite")
    res = simulate_amplitude(sequence, sources, **kwargs)
    y = maximum - 0.5 * contrast + 0.5 * contrast * np.real(
        np.exp(1j * phases) * res.mean_signal
    )
    return EnsembleSignal(
        x=phases, y=y, x_label="readout_phase_rad", y_label="population",
        metadata={"kind": sequence.kind, "total_time_s": sequence.total_time,
                  "amplitude": res.amplitude} | _average_metadata(res),
    )


# each axis a scan runs along: the x label of its signals, which also names a
# value that the keys fix in their metadata, and the noun its errors use
_AXES = {"total_time": ("total_time_s", "time"),
         "flip_fraction": ("flip_fraction", "flip fraction")}


def scans(specs, sources, **kwargs) -> list:
    """Ensemble amplitude along one axis per spec ``(kind, keys, axis,
    values)``: the sequences ``build_sequence(kind, **keys)`` with ``axis``,
    "total_time" (a decay scan) or "flip_fraction" (a flip-location sweep),
    set to each value.  All specs are evaluated as one ``simulate_family``
    call, which takes ``kwargs``; every point is evaluated as in its own scan
    (batch invariance), so each signal equals the one its spec alone gives."""
    parts = []
    for kind, keys, axis, values in specs:
        if axis not in _AXES:
            raise ValueError(f"cannot scan along {axis!r}; expected one of {tuple(_AXES)}")
        label, noun = _AXES[axis]
        x = np.asarray(values, dtype=float)
        if x.size == 0:
            raise ValueError(f"need at least one {noun}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{noun}s must be finite")
        if axis == "total_time" and np.any(np.diff(x) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if axis in keys:
            raise ValueError(f"keys fix {axis}, the axis the scan runs along")
        family = [build_sequence(kind, **keys, **{axis: float(v)}) for v in x]
        metadata = {"sequence": kind} | {_AXES[key][0]: keys[key] for key in _AXES if key in keys}
        if "pair" in KINDS[kind].keys:  # a dq_ramsey names no pair
            metadata["pair"] = list(family[0].pair)
        parts.append((x, family, label, metadata))
    result = simulate_family([seq for _, family, _, _ in parts for seq in family],
                             sources, **kwargs)
    amplitude, mc = result.amplitude, result.monte_carlo
    average = _average_metadata(result)
    signals, start = [], 0
    for x, family, label, metadata in parts:
        members = slice(start, start + len(family))
        start = members.stop
        signals.append(EnsembleSignal(
            x=x, y=amplitude[members], x_label=label, y_label="amplitude",
            metadata=metadata | average,
            monte_carlo=None if mc is None else replace(
                mc, attenuation=mc.attenuation[members], std_error=mc.std_error[members])))
    return signals


# -------------------------------------------------------------- signal files

_CSV_SCHEMA = "nvecho-signal/1"


def write_metadata_csv(path, schema: str, metadata: dict, header, rows,
                       deterministic: bool = False) -> None:
    """CSV preceded by ``# schema`` and sorted ``# key: value`` lines; a
    ``# written:`` timestamp line unless ``deterministic``."""
    lines = [f"# {schema}"] + [f"# {key}: {metadata[key]}" for key in sorted(metadata)]
    if not deterministic:
        lines.append(f"# written: {_dt.datetime.now().isoformat()}")
    lines += [",".join(header)] + [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_metadata_csv(path, columns=None, row=None):
    """(schema, metadata, header, rows) of a ``write_metadata_csv`` file; the
    schema is None when the first line names none, and the timestamp line is
    dropped.  Each row holds its fields as strings, or converted where
    ``columns`` maps the file's schema to one converter per column, and
    ``row(header, fields)`` then makes each converted row into a record.  A
    metadata value that is not YAML, a missing header, a row whose width
    differs from the header's, a field its converter refuses and a row that
    ``row`` refuses raise ValueError, named with the file and line where
    there is one."""
    schema, metadata, header, rows = None, {}, None, []
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = (part.strip() for part in line[1:].partition(":"))
            if not sep and number == 1:
                schema = key
            elif sep and key != "written":
                try:
                    metadata[key] = yaml.safe_load(value)
                except yaml.YAMLError:
                    raise ValueError(f"{path}:{number}: metadata value of {key!r} "
                                     f"is not valid YAML: {value!r}") from None
        elif header is None:
            header = [h.strip() for h in line.split(",")]
        else:
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{number}: row has {len(fields)} fields, "
                                 f"the header {len(header)}")
            convert = (columns or {}).get(schema, ())
            for i, (name, read, field) in enumerate(zip(header, convert, fields)):
                try:
                    fields[i] = read(field)
                except ValueError:
                    raise ValueError(f"{path}:{number}: {name} {field!r} is not a number") from None
            if convert and row is not None:
                try:
                    fields = row(header, fields)
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
            rows.append(fields)
    if header is None:
        raise ValueError(f"{path}: no header line")
    return schema, metadata, header, rows


def write_signal_csv(signal: EnsembleSignal, path, deterministic: bool = False) -> None:
    write_metadata_csv(path, _CSV_SCHEMA, signal.metadata, (signal.x_label, signal.y_label),
                       ((repr(float(x)), repr(float(y))) for x, y in zip(signal.x, signal.y)),
                       deterministic)


def read_signal_csv(path) -> EnsembleSignal:
    schema, metadata, header, rows = read_metadata_csv(path, {_CSV_SCHEMA: (float, float)})
    if schema != _CSV_SCHEMA or len(header) < 2 or not rows:
        raise ValueError(f"{path}: not a signal file ({_CSV_SCHEMA} with x, y columns "
                         f"and data), schema {schema!r}")
    return EnsembleSignal(
        x=np.array([r[0] for r in rows]), y=np.array([r[1] for r in rows]),
        x_label=header[0], y_label=header[1], metadata=metadata,
    )
