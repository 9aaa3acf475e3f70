"""Ensemble signals of pulse sequences, and the files that hold them.

The sequences and their builders are plain data (``pulses``).
``simulate_family`` averages the phase factor over the noise ensemble for a
whole family of sequences at once.  The sources choose how: when every
source enters the phase linearly the average is exact, and otherwise (a
quasiharmonic temperature source) it is a Monte Carlo estimate.
It is the one evaluator: a single sequence is a family of one, and
``scans`` evaluates decay scans and flip-location sweeps, any number of
them, as one family call.  The ``#``-metadata CSV format lives here alone:
``write_metadata_csv`` prints signals and rate tables (``RateTable``) in it,
one schema each, and ``read_csv`` returns the one a file holds, its numbers
as Python floats.  ``json_text`` prints every JSON artifact.  numpy is
imported only where a Monte Carlo family is averaged: the closed form runs
on Python floats, and reading a CSV file or a rate table loads none.  A
scan's x and y are lists of floats on either path, as a file's are.
"""

from __future__ import annotations

import datetime as _dt
import json
import numbers
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from .catalog import DEFAULT_SAMPLES, DEFAULT_SEED
from .pulses import KINDS, build_sequence
from .records import Frozen, Record
from .spin_model import (
    SpinSystemParams,
    accumulated_phase,
    default_params,
    phase_coefficients,
    stack_coefficients,
)
from .units import check_number
from .yamlio import dump_yaml, load_yaml

if TYPE_CHECKING:  # the ensemble averages are imported where a family is evaluated
    import numpy as np

    from .noise import MonteCarloResult


class SimulationResult(Frozen):
    """Ensemble-averaged signal of a family of G sequences: mean = e^{i
    base_phase} * attenuation, each field one value per family member (a
    one-sequence family reads member 0).  The closed form gives lists of
    floats, a real attenuation; Monte Carlo gives (G,) arrays, a complex
    one."""

    attenuation: list | np.ndarray
    base_phase: list | np.ndarray
    monte_carlo: MonteCarloResult | None = None

    @property
    def amplitude(self) -> list:
        """|attenuation| of each member, as a list of floats."""
        if self.monte_carlo is None:
            return [abs(a) for a in self.attenuation]
        # hypot of the parts gives a member the same bits whatever the family
        # size; numpy's complex abs can differ from it by an ulp
        import numpy as np

        return np.hypot(self.attenuation.real, self.attenuation.imag).tolist()


def simulate_family(sequences, sources, params: SpinSystemParams | None = None,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> SimulationResult:
    """Average e^{i phase} over the noise ensemble for every sequence: e^{i
    base_phase}, the deterministic phase at the distribution locations, times
    the attenuation about them.  When every source enters the phase linearly
    the attenuation is the exact, real ``dephasing_factor``, computed with the
    base phase on Python floats; otherwise it is a Monte Carlo estimate from
    ``n_samples`` draws keyed by ``seed``, which all sequences share, and
    ``monte_carlo`` holds its bookkeeping.
    """
    from .noise import dephasing_factor, monte_carlo_attenuation

    if params is None:
        params = default_params()
    sources = tuple(sources)
    coeffs = [phase_coefficients(params, seq.pair, seq.segments) for seq in sequences]
    if all(src.is_linear for src in sources):
        base = [accumulated_phase(params, c) + sum(src.location_phase(c) for src in sources)
                for c in coeffs]
        return SimulationResult(attenuation=dephasing_factor(sources, coeffs), base_phase=base)
    grid = stack_coefficients(coeffs)
    base = accumulated_phase(params, grid) + sum(src.location_phase(grid) for src in sources)
    mc = monte_carlo_attenuation(sources, coeffs, n_samples=n_samples, seed=seed)
    return SimulationResult(attenuation=mc.attenuation, base_phase=base, monte_carlo=mc)


def _average_metadata(result: SimulationResult) -> dict:
    """How the ensemble average was taken: the backend label and, for Monte
    Carlo, its seed and sample count."""
    mc = result.monte_carlo
    if mc is None:
        return {"backend": "closed_form"}
    return {"backend": "monte_carlo", "seed": mc.seed, "n_samples": mc.n_samples}


class EnsembleSignal(Record):
    """A 1D scan: y(x) plus labels and free-form metadata; x and y are lists
    of floats, whether the signal comes from a scan or from its file."""

    x: list
    y: list
    x_label: str
    y_label: str
    metadata: dict = {}
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
    (batch invariance), so each signal equals the one its spec alone gives.
    Each value must be one finite real number (``check_number``), a bool
    or a string is refused, and x and y are lists of floats."""
    parts = []
    for kind, keys, axis, values in specs:
        if axis not in _AXES:
            raise ValueError(f"cannot scan along {axis!r}; expected one of {tuple(_AXES)}")
        label, noun = _AXES[axis]
        x = []
        for value in values:
            check_number(f"{noun}s", value)
            x.append(float(value))
        if not x:
            raise ValueError(f"need at least one {noun}")
        if axis == "total_time" and any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError("time grid must be strictly increasing")
        if axis in keys:
            raise ValueError(f"keys fix {axis}, the axis the scan runs along")
        family = [build_sequence(kind, **keys, **{axis: v}) for v in x]
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
            monte_carlo=None if mc is None else mc.replace(
                attenuation=mc.attenuation[members], std_error=mc.std_error[members])))
    return signals


# ---------------------------------------------------------------- CSV files

_SIGNAL_SCHEMA = "nvecho-signal/1"
_RATES_SCHEMA = "nvecho-rates/1"
_RATES_HEADER = ("pair_reference", "pair_target", "ms_free", "ms_flipped",
                 "tau_over_t", "rate_per_s", "rate_error")
# what ``read_csv`` converts each column of a schema's rows with
_COLUMNS = {_SIGNAL_SCHEMA: (float, float),
            _RATES_SCHEMA: (int,) * 4 + (float,) * 2 + (lambda f: float(f) if f else None,)}


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, numbers.Integral) else repr(float(value))


def write_metadata_csv(path, schema: str, metadata: dict, header, rows,
                       deterministic: bool = False) -> None:
    """CSV of rows of ints, floats and Nones (empty fields), preceded by ``#
    schema``, sorted ``# key: value`` lines, each value one line of flow YAML,
    and a ``# written:`` timestamp line unless ``deterministic``.  A key that
    ``read_csv`` would not read back as written is refused: one that is not
    a nonempty string, is ``written``, or holds a ``:``, a line break or
    surrounding space."""
    for key in metadata:
        if (not isinstance(key, str) or key in ("", "written") or ":" in key
                or key.strip() != key or len(key.splitlines()) != 1):
            raise ValueError(f"metadata key {key!r} would not read back: a key is a nonempty "
                             "string other than 'written', without ':', a line break or "
                             "surrounding space")
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


def write_signal_csv(signal: EnsembleSignal, path, deterministic: bool = False) -> None:
    write_metadata_csv(path, _SIGNAL_SCHEMA, signal.metadata, (signal.x_label, signal.y_label),
                       zip(signal.x, signal.y), deterministic)


class RateRow(Frozen):
    """One decay rate in 1/s, of the unit-time unbalanced echo that its pair,
    ms pairing and flip fraction build; refused where the echo is."""

    pair: tuple
    ms_pairing: tuple
    tau_over_t: float
    rate: float
    rate_error: float | None = None

    def _check(self):
        # a bool would count as 0 or 1; each number is stored as a float
        for name in ("tau_over_t", "rate") + (() if self.rate_error is None else ("rate_error",)):
            check_number(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.rate <= 0:
            raise ValueError(f"rates must be positive and finite, got {self.rate}")
        if self.rate_error is not None and self.rate_error < 0:  # an exact fit gives 0
            raise ValueError(f"rate_error must be >= 0, got {self.rate_error}")
        if not 0.0 <= self.tau_over_t <= 1.0:
            raise ValueError("tau_over_t must lie in [0, 1]")
        ms_free, ms_flipped = self.ms_pairing
        build_sequence("unbalanced_echo", 1.0, pair=self.pair, ms_free=ms_free,
                       ms_flipped=ms_flipped, flip_fraction=self.tau_over_t)


class RateTable(Record):
    """Decay rates of unit-time unbalanced echoes, a ``RateRow`` each, and
    the metadata their file carries."""

    rows: list = []
    metadata: dict = {}

    def add(self, pair, ms_pairing, tau_over_t, rate, rate_error=None):
        self.rows.append(RateRow(tuple(pair), tuple(ms_pairing), tau_over_t, rate, rate_error))

    def filter(self, pair) -> "RateTable":
        """The rows of one transition pair."""
        return RateTable(rows=[r for r in self.rows if r.pair == tuple(pair)],
                         metadata=dict(self.metadata))

    @property
    def tau_over_t(self) -> list:
        return [r.tau_over_t for r in self.rows]

    @property
    def rates(self) -> list:
        return [r.rate for r in self.rows]

    def write_csv(self, path, deterministic: bool = False) -> None:
        rows = ((*r.pair, *r.ms_pairing, r.tau_over_t, r.rate, r.rate_error) for r in self.rows)
        write_metadata_csv(path, _RATES_SCHEMA, self.metadata, _RATES_HEADER, rows,
                           deterministic)


def read_csv(path) -> EnsembleSignal | RateTable:
    """The signal or rate table of a ``write_metadata_csv`` file, as its
    ``# schema`` line names; its ``# written:`` line is dropped.  A file of
    neither schema, or a rate table whose header is not ``_RATES_HEADER``, is
    refused at its header line.  A metadata value that is not YAML, a row
    whose width differs from the header's, a field that is not a number, a
    signal's x or y that is NaN or infinite and a rate row that builds no
    echo raise ValueError named ``path:line``, and a file with no header or
    no row one named ``path``.  A signal's x and y are lists of floats."""
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
                    metadata[key] = load_yaml(value)
                except yaml.YAMLError:
                    raise ValueError(f"{path}:{number}: metadata value of {key!r} "
                                     f"is not valid YAML: {value!r}") from None
        elif header is None:
            header = tuple(h.strip() for h in line.split(","))
            columns = _COLUMNS.get(schema, ())
            if len(header) != len(columns) or schema == _RATES_SCHEMA and header != _RATES_HEADER:
                raise ValueError(f"{path}:{number}: header {','.join(header)!r} under schema "
                                 f"{schema!r} is neither a signal's ({_SIGNAL_SCHEMA}, two "
                                 f"columns x,y) nor a rate table's ({_RATES_SCHEMA}, "
                                 f"{','.join(_RATES_HEADER)})")
        else:
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{number}: row has {len(fields)} fields, "
                                 f"the header {len(header)}")
            for i, (name, read, field) in enumerate(zip(header, columns, fields)):
                try:
                    fields[i] = read(field)
                except ValueError:
                    raise ValueError(f"{path}:{number}: {name} {field!r} is not a number") from None
            try:
                if schema == _RATES_SCHEMA:
                    fields = RateRow(tuple(fields[:2]), tuple(fields[2:4]), *fields[4:])
                else:
                    for name, value in zip(header, fields):
                        check_number(name, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            rows.append(fields)
    if not rows:
        raise ValueError(f"{path}: no {'data row' if header else 'header line'}")
    if schema == _RATES_SCHEMA:
        return RateTable(rows=rows, metadata=metadata)
    return EnsembleSignal(x=[r[0] for r in rows], y=[r[1] for r in rows],
                          x_label=header[0], y_label=header[1], metadata=metadata)
