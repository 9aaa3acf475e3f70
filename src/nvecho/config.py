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
from .spin_model import SpinSystemParams
from .units import QuantityError, angular, format_quantity, parse_quantity

SCHEMA = "nvecho-scenario/1"
DATA_DIR_ENV = "NVECHO_DATA_DIR"

_TOP_KEYS = ("schema", "name", "pipeline", "description", "spin", "response",
             "sources", "sequence", "backend", "output")

_SPIN_FIELDS = {
    "zfs": "frequency",
    "quadrupole": "frequency",
    "hyperfine": "frequency",
    "gamma_e": "frequency_per_G",
    "gamma_n": "frequency_per_G",
    "field": "field",
}

_RESPONSE_LINEAR_FIELDS = {
    "quadrupole_per_K": "frequency_per_K",
    "hyperfine_per_K": "frequency_per_K",
    "zfs_per_K": "frequency_per_K",
    "quadrupole_per_GPa": "frequency_per_GPa",
    "hyperfine_per_GPa": "frequency_per_GPa",
}

# noise-variable dimension per source kind; strain is dimensionless
_SOURCE_DIMENSION = {"temperature": "temperature", "field": "field", "strain": None}
_DISTRIBUTIONS = ("lorentzian", "gaussian", "delta")

_SEQUENCE_KEYS = ("kind", "script", "pair", "pairs", "ms", "ms_free", "ms_flipped",
                  "flip_fraction", "total_time", "times", "flip_fractions", "compare")
_SEQUENCE_KINDS = ("ramsey", "dq_ramsey", "unbalanced_echo", "nuclear_echo")

_BACKEND_DEFAULTS = {"samples": 1 << 20, "seed": 12345}
_OUTPUT_DEFAULTS = {"directory": "."}


class Needs(NamedTuple):
    keys: tuple  # dotted paths below ``sequence``; "a|b" when either will do
    templates: dict = {}  # block built from a kind -> its kind when it names none


# What each pipeline reads from its sequence block; ``compare.times`` asks for
# the block too.  A script carries its own durations, and only a pipeline
# that names it runs one; an unbalanced-echo template needs a flip_fraction.
# A ``sequence`` block that is no template holds the pipeline's swept or
# scanned echoes: the protected scan of ``protection_study`` is an echo at
# the sweep's optimum.
PIPELINE_NEEDS = {
    "simulate": Needs(("kind|script", "total_time|script"), {"sequence": None}),
    "decay_compare": Needs(("times", "compare.times"),
                           {"sequence": "unbalanced_echo", "sequence.compare": "ramsey"}),
    "pulse_sweep": Needs(("total_time", "flip_fractions")),
    "rate_table_vee": Needs(("pair|pairs", "flip_fractions", "times")),
    "protection_study": Needs(("total_time", "flip_fractions", "times", "compare.times"),
                              {"sequence.compare": "ramsey"}),
}

# scanned grids: unit dimension, and what their realized values must satisfy
_GRIDS = {
    "times": ("time", lambda v: v[0] > 0 and np.all(np.diff(v) > 0),
              "must be positive and strictly increasing"),
    "flip_fractions": (None, lambda v: np.all((v >= 0) & (v <= 1)), "must lie in [0, 1]"),
}


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


def _normalize_quantity_block(block, path, col, fields):
    if block is None:
        return {}
    if not isinstance(block, dict):
        col.add(path, "must be a mapping")
        return {}
    out = {}
    for key, value in block.items():
        if key not in fields:
            col.add(f"{path}.{key}", "unknown key")
            continue
        parsed = _quantity(value, f"{path}.{key}", col, fields[key])
        if parsed is not None:
            out[key] = parsed
    return out


def _normalize_response(block, col):
    if block is None:
        return {"model": "linear"}
    if not isinstance(block, dict):
        col.add("response", "must be a mapping")
        return {"model": "linear"}
    model = block.get("model", "linear")
    if model == "linear":
        slopes = {key: value for key, value in block.items() if key != "model"}
        return {"model": "linear"} | _normalize_quantity_block(
            slopes, "response", col, _RESPONSE_LINEAR_FIELDS)
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


def _normalize_sequence(block, path, col, allow_compare=True):
    if block is None:
        return {}
    if not isinstance(block, dict):
        col.add(path, "must be a mapping")
        return {}
    out = {}
    for key in block:
        if key not in _SEQUENCE_KEYS or (key == "compare" and not allow_compare):
            col.add(f"{path}.{key}", "unknown key")
    if "kind" in block:
        if block["kind"] not in _SEQUENCE_KINDS:
            col.add(f"{path}.kind",
                    f"must be one of {_SEQUENCE_KINDS}, got {block['kind']!r}")
        else:
            out["kind"] = block["kind"]
    if "script" in block:
        text = block["script"]
        if not isinstance(text, str):
            col.add(f"{path}.script", "must be a string")
        else:
            try:
                parse_sequence_script(text)
                out["script"] = text
            except ScriptError as exc:
                col.add(f"{path}.script", str(exc))
    if "pair" in block:
        pair = _normalize_pair(block["pair"], f"{path}.pair", col)
        if pair is not None:
            out["pair"] = pair
    if "pairs" in block:
        pairs = block["pairs"]
        if not isinstance(pairs, list) or not pairs:
            col.add(f"{path}.pairs", "must be a nonempty list of pairs")
        else:
            norm = [_normalize_pair(p, f"{path}.pairs[{i}]", col)
                    for i, p in enumerate(pairs)]
            if all(p is not None for p in norm):
                out["pairs"] = tuple(norm)
    for key in ("ms", "ms_free", "ms_flipped"):
        if key in block:
            v = _projection(block[key], f"{path}.{key}", col)
            if v is not None:
                out[key] = v
    if "flip_fraction" in block:
        v = _plain_number(block["flip_fraction"], f"{path}.flip_fraction", col)
        if v is not None:
            if not 0.0 <= v <= 1.0:
                col.add(f"{path}.flip_fraction", "must lie in [0, 1]")
            else:
                out["flip_fraction"] = v
    if "total_time" in block:
        v = _quantity(block["total_time"], f"{path}.total_time", col, "time")
        if v is not None:
            if v <= 0:
                col.add(f"{path}.total_time", "must be > 0")
            else:
                out["total_time"] = v
    for key, (dimension, holds, message) in _GRIDS.items():
        if key in block:
            grid = _normalize_grid(block[key], f"{path}.{key}", col, dimension)
            if grid is not None and holds(realize_grid(grid)):
                out[key] = grid
            elif grid is not None:
                col.add(f"{path}.{key}", message)
    if allow_compare and "compare" in block:
        out["compare"] = _normalize_sequence(block["compare"], f"{path}.compare",
                                             col, allow_compare=False)
    return out


def echo_keywords(block: dict) -> dict:
    """Pair and electron manifolds of a block's unbalanced echoes."""
    return {"pair": block.get("pair", (0, -1)), "ms_free": block.get("ms_free", 0),
            "ms_flipped": block.get("ms_flipped", 1)}


def sequence_keywords(block: dict, kind: str) -> dict:
    """``build_sequence`` keywords of a sequence block; kinds that stay in
    one manifold name it ``ms``."""
    if kind == "unbalanced_echo":
        return echo_keywords(block) | {"flip_fraction": block["flip_fraction"]}
    return {"pair": block.get("pair", (0, -1)), "ms_free": block.get("ms", 0)}


def _lookup(root, dotted):
    for key in dotted.split("."):
        if not isinstance(root, dict) or root.get(key) is None:
            return None
        root = root[key]
    return root


def _check_needs(pipeline, raw, sequence, col) -> None:
    """Report an unknown pipeline; each sequence key it needs and the raw
    ``sequence`` block lacks; a block it does not read; a script it does not
    run; another kind in a block it builds echoes from; and a block that
    ``build_sequence`` would refuse as the kind the pipeline builds it as."""
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
        if all(_lookup(root, path) is None for path in options):
            col.add(options[0], f"pipeline {pipeline!r} needs {' or '.join(options)}")
    for path in ("sequence", "sequence.compare"):
        block, norm = _lookup(root, path), _lookup({"sequence": sequence}, path)
        if not isinstance(block, dict):
            continue
        if path not in needs.templates and not any(key.startswith(f"{path}.") for key in needed):
            col.add(path, f"pipeline {pipeline!r} does not read this block")
            continue
        if "script" in block:
            if f"{path}.script" not in needed:
                col.add(f"{path}.script", f"pipeline {pipeline!r} does not run a script")
            continue
        if path in needs.templates:
            kind = block.get("kind", needs.templates[path])
        else:
            kind = "unbalanced_echo"
            if norm.get("kind", kind) != kind:  # a malformed kind is reported already
                col.add(f"{path}.kind", f"pipeline {pipeline!r} builds unbalanced echoes "
                                        f"from this block, not {norm['kind']!r}")
        if kind == "unbalanced_echo":
            if path in needs.templates and "flip_fraction" not in block:
                col.add(f"{path}.flip_fraction", "an unbalanced echo needs a flip_fraction")
            echo = echo_keywords(norm)
            if (echo["ms_free"] == echo["ms_flipped"]
                    and all(key in norm for key in ("ms_free", "ms_flipped") if key in block)):
                col.add(f"{path}.ms_flipped",
                        f"must differ from ms_free ({echo['ms_free']}): "
                        "the electron flip must change the manifold")
        elif kind == "ramsey" and 0 not in sequence_keywords(norm, kind)["pair"]:
            col.add(f"{path}.pair", "a single-quantum ramsey needs a pair involving "
                                    "m_I = 0; the (-1, +1) pair is kind dq_ramsey")


def _normalize_backend(block, col):
    out = dict(_BACKEND_DEFAULTS)
    if block is None:
        return out
    if not isinstance(block, dict):
        col.add("backend", "must be a mapping")
        return out
    for key, value in block.items():
        if key in ("samples", "seed"):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                col.add(f"backend.{key}", "must be an integer")
            elif key == "samples" and value < 1:
                col.add(f"backend.{key}", "must be a positive integer")
            elif key == "seed" and value < 0:
                col.add(f"backend.{key}", "must be a non-negative integer")
            else:
                out[key] = int(value)
        else:
            col.add(f"backend.{key}", "unknown key")
    return out


def _normalize_output(block, col):
    out = dict(_OUTPUT_DEFAULTS)
    if block is None:
        return out
    if not isinstance(block, dict):
        col.add("output", "must be a mapping")
        return out
    for key, value in block.items():
        if key == "directory":
            if not isinstance(value, str) or not value:
                col.add("output.directory", "must be a nonempty string")
            else:
                out["directory"] = value
        else:
            col.add(f"output.{key}", "unknown key")
    return out


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
        for key in ("zfs", "quadrupole", "hyperfine", "gamma_e", "gamma_n"):
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
        for key in ("quadrupole_per_K", "hyperfine_per_K", "zfs_per_K"):
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

    spin = _normalize_quantity_block(raw.get("spin"), "spin", col, _SPIN_FIELDS)
    response = _normalize_response(raw.get("response"), col)
    sources = _normalize_sources(raw.get("sources"), col)
    sequence = _normalize_sequence(raw.get("sequence"), "sequence", col)
    if isinstance(pipeline, str) and pipeline:
        # against the raw block, so a malformed key is not also reported missing
        _check_needs(pipeline, raw.get("sequence"), sequence, col)
    backend = _normalize_backend(raw.get("backend"), col)
    output = _normalize_output(raw.get("output"), col)

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


def _dump_sequence(block):
    out = {}
    for key in _SEQUENCE_KEYS:
        if key not in block:
            continue
        if key == "pair":
            out[key] = list(block[key])
        elif key == "pairs":
            out[key] = [list(p) for p in block[key]]
        elif key == "total_time":
            out[key] = format_quantity(block[key], "time")
        elif key == "times":
            out[key] = _dump_grid(block[key], "time")
        elif key == "flip_fractions":
            out[key] = _dump_grid(block[key], None)
        elif key == "compare":
            out[key] = _dump_sequence(block[key])
        else:
            out[key] = block[key]
    return out


def config_document(config: ScenarioConfig) -> dict:
    """The canonical mapping of a config, which ``dump_config`` prints;
    ``parse_config`` of it checks a config built in code."""
    doc = {"schema": SCHEMA, "name": config.name, "pipeline": config.pipeline}
    if config.description:
        doc["description"] = config.description
    if config.spin:
        doc["spin"] = {k: format_quantity(v, _SPIN_FIELDS[k])
                       for k, v in config.spin.items()}
    response = {"model": config.response["model"]}
    for key, value in config.response.items():
        if key == "model":
            continue
        if key == "data_file":
            response[key] = value
        else:
            response[key] = format_quantity(value, _RESPONSE_LINEAR_FIELDS[key])
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
