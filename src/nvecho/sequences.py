"""Ensemble signals of pulse sequences, and the files that hold them.

The sequences and their builders are plain data (``pulses``).
``simulate_family`` averages the phase factor over the noise ensemble for a
whole family of sequences at once.  The sources choose how: when every
source enters the phase linearly the average is exact, and otherwise (a
quasiharmonic temperature source) it is a Monte Carlo estimate.
It is the one evaluator: a single sequence is a family of one, and
``scans`` evaluates decay scans and flip-location sweeps, any number of
them, as one family call.  ``write_metadata_csv`` prints signals and rate
tables as ``#``-metadata CSV, and ``json_text`` prints every JSON artifact.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np
import yaml

from .noise import (DEFAULT_SAMPLES, DEFAULT_SEED, MonteCarloResult, dephasing_factor,
                    monte_carlo_attenuation)
from .pulses import KINDS, build_sequence
from .response import dump_yaml, load_yaml
from .spin_model import (
    SpinSystemParams,
    accumulated_phase,
    default_params,
    phase_coefficients,
    stack_coefficients,
)


@dataclass(frozen=True)
class SimulationResult:
    """Ensemble-averaged signal of a family of G sequences: mean = e^{i
    base_phase} * attenuation, each field a (G,) array with one value per
    family member (a one-sequence family reads member 0)."""

    attenuation: np.ndarray  # real from the closed form, complex from Monte Carlo
    base_phase: np.ndarray
    monte_carlo: MonteCarloResult | None = None

    @property
    def amplitude(self) -> np.ndarray:
        # hypot of the parts gives a member the same bits whatever the family
        # size; numpy's complex abs can differ from it by an ulp
        return np.hypot(self.attenuation.real, self.attenuation.imag)


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


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, (int, np.integer)) else repr(float(value))


def write_metadata_csv(path, schema: str, metadata: dict, header, rows,
                       deterministic: bool = False) -> None:
    """CSV of rows of ints, floats and Nones (empty fields), preceded by ``#
    schema``, sorted ``# key: value`` lines, each value one line of flow YAML,
    and a ``# written:`` timestamp line unless ``deterministic``."""
    lines = [f"# {schema}"] + [f"# {key}: {dump_yaml(metadata[key], flow=True)}"
                               for key in sorted(metadata)]
    if not deterministic:
        lines.append(f"# written: {_dt.datetime.now().isoformat()}")
    lines += [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def json_text(payload: dict, deterministic: bool = False) -> str:
    """A JSON artifact's UTF-8 text of ``payload``, keys sorted and indented
    by 2, plus a ``written`` timestamp unless ``deterministic``."""
    if not deterministic:
        payload = payload | {"written": _dt.datetime.now().isoformat()}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def read_metadata_csv(path, columns=None):
    """(schema, metadata, header, rows) of a ``write_metadata_csv`` file; the
    schema is None when the first line names none, and the timestamp line is
    dropped.  Each row holds its fields as strings, or, where ``columns``
    maps the file's schema to ``(converters, row)``, each field converted by
    its column's converter and, where ``row`` is not None, the converted
    fields made into a record by ``row(header, fields)``.  A metadata value
    that is not YAML, a missing header, a row whose width differs from the
    header's, a field its converter refuses and a row that ``row`` refuses
    raise ValueError, named with the file and line where there is one."""
    schema, metadata, header, rows = None, {}, None, []
    convert, row = (), None
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = (part.strip() for part in line[1:].partition(":"))
            if not sep and number == 1:
                schema = key
                convert, row = (columns or {}).get(schema, ((), None))
            elif sep and key != "written":
                try:
                    metadata[key] = load_yaml(value)
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
            for i, (name, read, field) in enumerate(zip(header, convert, fields)):
                try:
                    fields[i] = read(field)
                except ValueError:
                    raise ValueError(f"{path}:{number}: {name} {field!r} is not a number") from None
            if row is not None:
                try:
                    fields = row(header, fields)
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
            rows.append(fields)
    if header is None:
        raise ValueError(f"{path}: no header line")
    return schema, metadata, header, rows


# what ``read_metadata_csv`` converts in a signal file's rows
SIGNAL_COLUMNS = {_CSV_SCHEMA: ((float, float), None)}


def write_signal_csv(signal: EnsembleSignal, path, deterministic: bool = False) -> None:
    write_metadata_csv(path, _CSV_SCHEMA, signal.metadata, (signal.x_label, signal.y_label),
                       zip(signal.x, signal.y), deterministic)


def signal_from_csv(path, schema, metadata, header, rows) -> EnsembleSignal:
    """The signal of a file that ``read_metadata_csv`` read with
    ``SIGNAL_COLUMNS``; ValueError unless it holds one."""
    if schema != _CSV_SCHEMA or len(header) < 2 or not rows:
        raise ValueError(f"{path}: not a signal file ({_CSV_SCHEMA} with x, y columns "
                         f"and data), schema {schema!r}")
    return EnsembleSignal(
        x=np.array([r[0] for r in rows]), y=np.array([r[1] for r in rows]),
        x_label=header[0], y_label=header[1], metadata=metadata,
    )


def read_signal_csv(path) -> EnsembleSignal:
    return signal_from_csv(path, *read_metadata_csv(path, SIGNAL_COLUMNS))
