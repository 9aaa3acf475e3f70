"""Scenario configuration files (YAML, schema ``nvecho-scenario/1``).

Every dimensioned value is a string with an explicit unit suffix ("2.87 GHz",
"5 K", "1.95 ms"); bare numbers are rejected so a config cannot silently mix
Hz with rad/s or seconds with milliseconds.  Dimensionless values (flip
fractions, counts, seeds) are plain numbers.

Parsing validates the whole document and raises one ConfigError listing every
problem with its dotted path, so a config is fixed in one edit cycle rather
than one error at a time.  That includes the sequence keys the pipeline
needs (``PIPELINE_NEEDS``) and well-formed grids: times positive and strictly
increasing, flip fractions in [0, 1].  ``dump_config`` prints the canonical
form; parse -> print -> parse is a fixed point, so a hand-built
``ScenarioConfig`` is checked by parsing its canonical mapping
(``config_document``).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .noise import (
    Distribution,
    field_source,
    residual_field_source,
    strain_source,
    temperature_source,
)
from .response import (
    DEFAULT_DATA_FILE,
    LinearResponse,
    PRESSURE_PER_STRAIN_GPA,
    load_response_set,
)
from .script import ScriptError, parse_sequence_script
from .sequences import KINDS
from .spin_model import SpinSystemParams
from .units import QuantityError, angular, format_quantity, parse_quantity

SCHEMA = "nvecho-scenario/1"
DATA_DIR_ENV = "NVECHO_DATA_DIR"

_TOP_KEYS = ("schema", "name", "pipeline", "description", "spin", "response",
             "sources", "sequence", "backend", "output")

_SPIN_FIELDS = {
    "quadrupole": "frequency",
    "hyperfine": "frequency",
    "gamma_n": "frequency_per_G",
    "field": "field",
}

_RESPONSE_LINEAR_FIELDS = {
    "quadrupole_per_K": "frequency_per_K",
    "hyperfine_per_K": "frequency_per_K",
    "quadrupole_per_GPa": "frequency_per_GPa",
    "hyperfine_per_GPa": "frequency_per_GPa",
}

# noise-variable dimension per source kind; strain is dimensionless
_SOURCE_DIMENSION = {"temperature": "temperature", "field": "field", "strain": None}
_DISTRIBUTIONS = ("lorentzian", "gaussian", "delta")

_BACKEND_DEFAULTS = {"samples": 1 << 20, "seed": 12345}
_OUTPUT_DEFAULTS = {"directory": "."}


class Needs(NamedTuple):
    keys: tuple  # dotted paths below ``sequence``; "a|b" for exactly one of the two
    templates: dict = {}  # block built from a kind -> its kind when it names none


# What each pipeline reads from its sequence block; ``compare.times`` asks for
# the block too.  A block also holds the keys of the kind it is built as
# (``sequences.KINDS``), and nothing else; a script block holds only its
# script.  A block no template names holds unbalanced echoes, and where the
# pipeline sweeps ``flip_fractions`` it sets their flip fraction.
PIPELINE_NEEDS = {
    "simulate": Needs(("kind|script", "total_time|script"), {"sequence": None}),
    "decay_compare": Needs(("times", "compare.times"),
                           {"sequence": "unbalanced_echo", "sequence.compare": "ramsey"}),
    "pulse_sweep": Needs(("total_time", "flip_fractions")),
    "rate_table_vee": Needs(("pair|pairs", "flip_fractions", "times")),
    "protection_study": Needs(("total_time", "flip_fractions", "times", "compare.times"),
                              {"sequence.compare": "ramsey"}),
}


def block_kind(pipeline: str, path: str, block: dict):
    """The kind the sequence block at ``path`` ("sequence" or
    "sequence.compare") is built as: its own ``kind``, else the pipeline's
    template for it, else an unbalanced echo (None: the block must name one)."""
    return block.get("kind", PIPELINE_NEEDS[pipeline].templates.get(path, "unbalanced_echo"))


class ConfigError(ValueError):
    """One or more config problems, each tagged with its dotted path."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"{len(self.problems)} config problem(s):\n{lines}")


class _Collector:
    def __init__(self):
        self.problems = []

    def add(self, path, message):
        self.problems.append(f"{path}: {message}")


def resolve_data_file(name, base_dir=None) -> Path:
    """Locate a data file: absolute path, config dir, $NVECHO_DATA_DIR,
    then the package data directory."""
    p = Path(name)
    candidates = []
    if p.is_absolute():
        candidates.append(p)
    else:
        if base_dir is not None:
            candidates.append(Path(base_dir) / p)
        env = os.environ.get(DATA_DIR_ENV)
        if env:
            candidates.append(Path(env) / p)
        candidates.append(DEFAULT_DATA_FILE.parent / p)
    for cand in candidates:
        if cand.exists():
            return cand
    searched = ", ".join(str(c.parent) for c in candidates)
    raise FileNotFoundError(f"data file {str(name)!r} not found (searched: {searched})")


# ----------------------------------------------------------- normalization

def _quantity(value, path, col, dimension):
    try:
        return parse_quantity(value, dimension)
    except QuantityError as exc:
        col.add(path, str(exc))
        return None


def _plain_number(value, path, col):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        col.add(path, f"expected a plain dimensionless number, got {value!r}")
        return None
    if not math.isfinite(value):
        col.add(path, f"must be finite, got {value!r}")
        return None
    return float(value)


def _value(value, path, col, dimension):
    return _quantity(value, path, col, dimension) if dimension else _plain_number(value, path, col)


def _normalize_mapping(block, path, col, readers, defaults=None):
    """``defaults`` updated with each key of ``block`` as its reader in
    ``readers`` reads it; a key without a reader is unknown."""
    out = dict(defaults or {})
    if block is None:
        return out
    if not isinstance(block, dict):
        col.add(path, "must be a mapping")
        return out
    for key, value in block.items():
        if key not in readers:
            col.add(f"{path}.{key}", "unknown key")
            continue
        parsed = readers[key](value, f"{path}.{key}", col)
        if parsed is not None:
            out[key] = parsed
    return out


def _quantities(fields):
    """Readers of quantity keys, each in its dimension."""
    return {key: partial(_quantity, dimension=dimension) for key, dimension in fields.items()}


def _integer(minimum, what):
    def read(value, path, col):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            col.add(path, "must be an integer")
            return None
        if value < minimum:
            col.add(path, f"must be a {what} integer")
            return None
        return int(value)
    return read


_BACKEND_READERS = {"samples": _integer(1, "positive"), "seed": _integer(0, "non-negative")}


def _nonempty_string(value, path, col):
    if not isinstance(value, str) or not value:
        col.add(path, "must be a nonempty string")
        return None
    return value


def _normalize_response(block, col):
    if block is None:
        return {"model": "linear"}
    if not isinstance(block, dict):
        col.add("response", "must be a mapping")
        return {"model": "linear"}
    model = block.get("model", "linear")
    if model == "linear":
        slopes = {key: value for key, value in block.items() if key != "model"}
        return {"model": "linear"} | _normalize_mapping(
            slopes, "response", col, _quantities(_RESPONSE_LINEAR_FIELDS))
    if model == "quasiharmonic":
        for key in block:
            if key not in ("model", "data_file"):
                col.add(f"response.{key}", "unknown key")
        data_file = block.get("data_file")
        if not isinstance(data_file, str) or not data_file:
            col.add("response.data_file", "required for the quasiharmonic model")
            data_file = None
        return {"model": "quasiharmonic", "data_file": data_file}
    col.add("response.model", f"must be 'linear' or 'quasiharmonic', got {model!r}")
    return {"model": "linear"}


def _normalize_source(src, path, col):
    if not isinstance(src, dict):
        col.add(path, "source must be a mapping")
        return None
    kind = src.get("kind")
    out = {"kind": kind}
    if "name" in src:
        if not isinstance(src["name"], str) or not src["name"]:
            col.add(f"{path}.name", "must be a nonempty string")
        else:
            out["name"] = src["name"]
    if kind == "residual_field":
        for key in src:
            if key not in ("kind", "name", "dq_coherence_time"):
                col.add(f"{path}.{key}", "unknown key")
        if "dq_coherence_time" in src:
            parsed = _quantity(src["dq_coherence_time"],
                               f"{path}.dq_coherence_time", col, "time")
            if parsed is not None:
                if parsed <= 0:
                    col.add(f"{path}.dq_coherence_time", "must be > 0")
                else:
                    out["dq_coherence_time"] = parsed
        return out
    if kind not in _SOURCE_DIMENSION:
        col.add(f"{path}.kind",
                f"unknown source kind {kind!r}; expected temperature, field, "
                f"strain, or residual_field")
        return None
    for key in src:
        if key not in ("kind", "name", "distribution", "location", "scale"):
            col.add(f"{path}.{key}", "unknown key")
    dist = src.get("distribution")
    if dist not in _DISTRIBUTIONS:
        col.add(f"{path}.distribution",
                f"must be one of {_DISTRIBUTIONS}, got {dist!r}")
        return None
    out["distribution"] = dist
    dimension = _SOURCE_DIMENSION[kind]
    if "location" in src:
        loc = _value(src["location"], f"{path}.location", col, dimension)
        if loc is not None:
            out["location"] = loc
    if "scale" in src:
        scale = _value(src["scale"], f"{path}.scale", col, dimension)
        if scale is not None:
            if scale < 0:
                col.add(f"{path}.scale", "scale must be >= 0")
            elif dist == "delta" and scale != 0:
                col.add(f"{path}.scale", "delta distributions take no scale")
            else:
                out["scale"] = scale
    return out


def _normalize_sources(block, col):
    if block is None:
        return ()
    if not isinstance(block, list):
        col.add("sources", "must be a list of source mappings")
        return ()
    out = []
    for i, src in enumerate(block):
        norm = _normalize_source(src, f"sources[{i}]", col)
        if norm is not None:
            out.append(norm)
    return tuple(out)


def _normalize_grid(spec, path, col, dimension):
    if isinstance(spec, (list, tuple)):
        if len(spec) == 0:
            col.add(path, "grid must not be empty")
            return None
        values = []
        for i, item in enumerate(spec):
            v = _value(item, f"{path}[{i}]", col, dimension)
            if v is not None:
                values.append(v)
        return tuple(values) if len(values) == len(spec) else None
    if isinstance(spec, dict):
        for key in spec:
            if key not in ("start", "stop", "count", "spacing"):
                col.add(f"{path}.{key}", "unknown key")
        out = {}
        for end in ("start", "stop"):
            if end not in spec:
                col.add(f"{path}.{end}", "required for a range grid")
                return None
            v = _value(spec[end], f"{path}.{end}", col, dimension)
            if v is None:
                return None
            out[end] = v
        count = spec.get("count")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            col.add(f"{path}.count", "count must be a positive integer")
            return None
        out["count"] = count
        spacing = spec.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            col.add(f"{path}.spacing", f"spacing must be 'linear' or 'log', got {spacing!r}")
            return None
        if spacing == "log" and (out["start"] <= 0 or out["stop"] <= 0):
            col.add(path, "log spacing needs positive endpoints")
            return None
        out["spacing"] = spacing
        return out
    col.add(path, "grid must be a list or a {start, stop, count} mapping")
    return None


def realize_grid(spec):
    """Materialize a normalized grid spec as a float array (None passes through)."""
    if spec is None:
        return None
    if isinstance(spec, dict):
        if spec["spacing"] == "log":
            return np.geomspace(spec["start"], spec["stop"], spec["count"])
        return np.linspace(spec["start"], spec["stop"], spec["count"])
    return np.asarray(spec, dtype=float)


def _projection(value, path, col, what="m_S"):
    if isinstance(value, bool) or not isinstance(value, int) or value not in (-1, 0, 1):
        col.add(path, f"{what} must be one of -1, 0, +1, got {value!r}")
        return None
    return value


def _normalize_pair(value, path, col):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        col.add(path, "pair must be a two-element list of m_I values")
        return None
    a = _projection(value[0], f"{path}[0]", col, "m_I")
    b = _projection(value[1], f"{path}[1]", col, "m_I")
    if a is None or b is None:
        return None
    if a == b:
        col.add(path, "pair values must be distinct")
        return None
    return (a, b)


def _kind(value, path, col):
    if not isinstance(value, str) or value not in KINDS:
        col.add(path, f"must be one of {tuple(KINDS)}, got {value!r}")
        return None
    return value


def _script(text, path, col):
    if not isinstance(text, str):
        col.add(path, "must be a string")
        return None
    try:
        parse_sequence_script(text)
    except ScriptError as exc:
        col.add(path, str(exc))
        return None
    return text


def _pairs(value, path, col):
    if not isinstance(value, list) or not value:
        col.add(path, "must be a nonempty list of pairs")
        return None
    pairs = [_normalize_pair(p, f"{path}[{i}]", col) for i, p in enumerate(value)]
    return tuple(pairs) if None not in pairs else None


def _checked(read, holds, message):
    """``read``, then report a value that ``holds`` refuses."""
    def check(value, path, col):
        v = read(value, path, col)
        if v is not None and not holds(v):
            col.add(path, message)
            return None
        return v
    return check


def _grid(dimension, holds, message):
    """A grid key in ``dimension`` whose realized values must satisfy ``holds``."""
    return _checked(partial(_normalize_grid, dimension=dimension),
                    lambda grid: holds(realize_grid(grid)), message)


def _dump_grid(spec, dimension):
    if isinstance(spec, dict):
        out = {"start": spec["start"], "stop": spec["stop"]}
        if dimension:
            out = {k: format_quantity(v, dimension) for k, v in out.items()}
        out["count"] = spec["count"]
        out["spacing"] = spec["spacing"]
        return out
    if dimension:
        return [format_quantity(v, dimension) for v in spec]
    return list(spec)


def _dump_sequence(block):
    return {key: block[key] if dump is None else dump(block[key])
            for key, (_, dump) in _SEQUENCE_KEYS.items() if key in block}


# each sequence key in canonical order: how it is read and how it is printed
# (None: as it is).  What a block may hold is checked against its pipeline
# and its kind (``_check_needs``).
_SEQUENCE_KEYS = {
    "kind": (_kind, None),
    "script": (_script, None),
    "pair": (_normalize_pair, list),
    "pairs": (_pairs, lambda pairs: [list(p) for p in pairs]),
    "ms": (_projection, None),
    "ms_free": (_projection, None),
    "ms_flipped": (_projection, None),
    "flip_fraction": (_checked(_plain_number, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
                      None),
    "total_time": (_checked(partial(_quantity, dimension="time"), lambda v: v > 0, "must be > 0"),
                   lambda v: format_quantity(v, "time")),
    "times": (_grid("time", lambda v: v[0] > 0 and np.all(np.diff(v) > 0),
                    "must be positive and strictly increasing"),
              lambda grid: _dump_grid(grid, "time")),
    "flip_fractions": (_grid(None, lambda v: np.all((v >= 0) & (v <= 1)), "must lie in [0, 1]"),
                       lambda grid: _dump_grid(grid, None)),
    "compare": (lambda v, path, col: _normalize_mapping(v, path, col, _COMPARE_READERS),
                _dump_sequence),
}
_SEQUENCE_READERS = {key: read for key, (read, _) in _SEQUENCE_KEYS.items()}
_COMPARE_READERS = {key: read for key, read in _SEQUENCE_READERS.items() if key != "compare"}


def _lookup(root, dotted):
    for key in dotted.split("."):
        if not isinstance(root, dict) or root.get(key) is None:
            return None
        root = root[key]
    return root


def _check_needs(pipeline, raw, sequence, col) -> None:
    """Report an unknown pipeline; each sequence key it needs that the raw
    ``sequence`` block lacks, or gives with its alternative; and per block,
    a block it does not read, another kind in a block of swept echoes, each
    key that neither the pipeline nor the block's kind reads (a script's
    reads none), a key the kind needs, and the key that breaks its rule."""
    needs = PIPELINE_NEEDS.get(pipeline)
    if needs is None:
        col.add("pipeline", f"unknown pipeline {pipeline!r}; "
                            f"expected one of {sorted(PIPELINE_NEEDS)}")
        return
    root = {"sequence": raw}
    needed = set()
    for need in needs.keys:
        options = [f"sequence.{key}" for key in need.split("|")]
        needed.update(options)
        given = [path for path in options if _lookup(root, path) is not None]
        if not given:
            col.add(options[0], f"pipeline {pipeline!r} needs {' or '.join(options)}")
        elif len(given) > 1:
            col.add(given[0], f"pipeline {pipeline!r} reads {' or '.join(options)}, not both")
    for path in ("sequence", "sequence.compare"):
        block, norm = _lookup(root, path), _lookup({"sequence": sequence}, path)
        if not isinstance(block, dict):
            continue
        read = {key[len(path) + 1:] for key in needed if key.startswith(f"{path}.")}
        if path not in needs.templates and not read:
            col.add(path, f"pipeline {pipeline!r} does not read this block")
            continue
        if "kind" in block and "kind" not in norm:
            continue  # a malformed kind is reported already
        if "script" in block and "script" in read:
            kind, keys, what = None, {}, "a script"
        else:
            kind = block_kind(pipeline, path, norm)
            if kind is None:
                continue  # the missing kind is reported already
            swept = "flip_fractions" in read  # the pipeline sets the flip fraction
            if swept and kind != "unbalanced_echo":
                col.add(f"{path}.kind", f"pipeline {pipeline!r} builds unbalanced echoes "
                                        f"from this block, not {kind!r}")
                kind = "unbalanced_echo"
            keys = {k: v for k, v in KINDS[kind].keys.items() if not swept or k != "flip_fraction"}
            what = f"its swept {kind}" if swept else f"kind {kind}"
        for key in norm:
            if key not in read | {"kind", "compare"} | keys.keys():
                col.add(f"{path}.{key}", f"read by neither pipeline {pipeline!r} nor {what}")
        for key, default in keys.items():
            if default is None and key not in block:
                col.add(f"{path}.{key}", f"kind {kind} needs a {key}")
        # a malformed value is reported already, not also as a refused build
        if kind is not None and all(key in norm for key in keys if key in block):
            refusal = KINDS[kind].rule(keys | KINDS[kind].read(norm))
            if refusal is not None:
                col.add(f"{path}.{refusal[0]}", refusal[1])


# ----------------------------------------------------------------- the type

@dataclass
class ScenarioConfig:
    """Validated scenario description, quantities in base display units
    (Hz, s, K, G, GPa); angular 2*pi factors enter in the model builders."""

    name: str
    pipeline: str
    description: str = ""
    spin: dict = field(default_factory=dict)
    response: dict = field(default_factory=lambda: {"model": "linear"})
    sources: tuple = ()
    sequence: dict = field(default_factory=dict)
    backend: dict = field(default_factory=lambda: dict(_BACKEND_DEFAULTS))
    output: dict = field(default_factory=lambda: dict(_OUTPUT_DEFAULTS))
    base_dir: Path | None = field(default=None, compare=False)

    def spin_params(self) -> SpinSystemParams:
        s = self.spin
        kwargs = {}
        for key in ("quadrupole", "hyperfine", "gamma_n"):
            if key in s:
                kwargs[key] = angular(s[key])
        if "field" in s:
            kwargs["field_gauss"] = s["field"]
        return SpinSystemParams(**kwargs)

    def response_model(self):
        r = self.response
        if r["model"] == "quasiharmonic":
            return load_response_set(resolve_data_file(r["data_file"], self.base_dir))
        kwargs = {}
        for key in ("quadrupole_per_K", "hyperfine_per_K"):
            if key in r:
                kwargs[key] = angular(r[key])
        for cfg_key, model_key in (("quadrupole_per_GPa", "quadrupole_per_strain"),
                                   ("hyperfine_per_GPa", "hyperfine_per_strain")):
            if cfg_key in r:
                kwargs[model_key] = angular(r[cfg_key]) * PRESSURE_PER_STRAIN_GPA
        return LinearResponse(**kwargs)

    def noise_sources(self) -> tuple:
        response = self.response_model()
        params = self.spin_params()
        out = []
        for spec in self.sources:
            kind = spec["kind"]
            if kind == "residual_field":
                out.append(residual_field_source(
                    dq_coherence_time=spec.get("dq_coherence_time", 3.9e-3),
                    gamma_n=params.gamma_n,
                    name=spec.get("name", "residual-field"),
                ))
                continue
            dist = Distribution(kind=spec["distribution"],
                                location=spec.get("location", 0.0),
                                scale=spec.get("scale", 0.0))
            name = spec.get("name", kind)
            if kind == "temperature":
                out.append(temperature_source(dist, response=response, name=name))
            elif kind == "strain":
                out.append(strain_source(dist, response=response, name=name))
            else:
                out.append(field_source(dist, name=name))
        return tuple(out)

    def backend_kwargs(self) -> dict:
        """Monte Carlo keywords of ``simulate_family``; the sources decide
        whether they are used."""
        return {"n_samples": self.backend["samples"], "seed": self.backend["seed"]}


def parse_config(data, base_dir=None) -> ScenarioConfig:
    """Parse and validate YAML text or an already-loaded mapping."""
    if isinstance(data, (str, bytes)):
        raw = yaml.safe_load(data)
    else:
        raw = data
    if not isinstance(raw, dict):
        raise ConfigError(("config must be a YAML mapping",))
    col = _Collector()
    for key in raw:
        if key not in _TOP_KEYS:
            col.add(str(key), "unknown key")
    if raw.get("schema") != SCHEMA:
        col.add("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        col.add("name", "required nonempty string")
    pipeline = raw.get("pipeline")
    if not isinstance(pipeline, str) or not pipeline:
        col.add("pipeline", "required nonempty string")
    description = raw.get("description", "")
    if not isinstance(description, str):
        col.add("description", "must be a string")
        description = ""

    spin = _normalize_mapping(raw.get("spin"), "spin", col, _quantities(_SPIN_FIELDS))
    response = _normalize_response(raw.get("response"), col)
    sources = _normalize_sources(raw.get("sources"), col)
    sequence = _normalize_mapping(raw.get("sequence"), "sequence", col, _SEQUENCE_READERS)
    if isinstance(pipeline, str) and pipeline:
        # against the raw block, so a malformed key is not also reported missing
        _check_needs(pipeline, raw.get("sequence"), sequence, col)
    backend = _normalize_mapping(raw.get("backend"), "backend", col, _BACKEND_READERS,
                                 _BACKEND_DEFAULTS)
    output = _normalize_mapping(raw.get("output"), "output", col,
                                {"directory": _nonempty_string}, _OUTPUT_DEFAULTS)

    if response.get("model") == "quasiharmonic" and response.get("data_file"):
        try:
            resolve_data_file(response["data_file"], base_dir)
        except FileNotFoundError as exc:
            col.add("response.data_file", str(exc))

    if col.problems:
        raise ConfigError(col.problems)
    return ScenarioConfig(
        name=name, pipeline=pipeline, description=description, spin=spin,
        response=response, sources=sources, sequence=sequence, backend=backend,
        output=output, base_dir=None if base_dir is None else Path(base_dir),
    )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


# ------------------------------------------------------------------ dumping

def _dump_source(spec):
    out = {"kind": spec["kind"]}
    if "name" in spec:
        out["name"] = spec["name"]
    if spec["kind"] == "residual_field":
        if "dq_coherence_time" in spec:
            out["dq_coherence_time"] = format_quantity(spec["dq_coherence_time"], "time")
        return out
    out["distribution"] = spec["distribution"]
    dimension = _SOURCE_DIMENSION[spec["kind"]]
    for key in ("location", "scale"):
        if key in spec:
            out[key] = format_quantity(spec[key], dimension) if dimension else spec[key]
    return out


def config_document(config: ScenarioConfig) -> dict:
    """The canonical mapping of a config, which ``dump_config`` prints;
    ``parse_config`` of it checks a config built in code."""
    doc = {"schema": SCHEMA, "name": config.name, "pipeline": config.pipeline}
    if config.description:
        doc["description"] = config.description
    # a key no table knows is printed as it is, so parsing reports it
    if config.spin:
        doc["spin"] = {k: format_quantity(v, _SPIN_FIELDS[k]) if k in _SPIN_FIELDS else v
                       for k, v in config.spin.items()}
    response = {"model": config.response["model"]}
    for key, value in config.response.items():
        if key == "model":
            continue
        if key in _RESPONSE_LINEAR_FIELDS:
            response[key] = format_quantity(value, _RESPONSE_LINEAR_FIELDS[key])
        else:
            response[key] = value
    doc["response"] = response
    if config.sources:
        doc["sources"] = [_dump_source(s) for s in config.sources]
    if config.sequence:
        doc["sequence"] = _dump_sequence(config.sequence)
    doc["backend"] = dict(config.backend)
    doc["output"] = dict(config.output)
    return doc


def dump_config(config: ScenarioConfig) -> str:
    """Canonical YAML for a config; parse(dump(parse(x))) == parse(x)."""
    return yaml.safe_dump(config_document(config), sort_keys=False, default_flow_style=False)
