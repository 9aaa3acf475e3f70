"""Scenario configuration files (YAML, schema ``nvecho-scenario/1``).

Every dimensioned value is a string with an explicit unit suffix ("2.87 GHz",
"5 K", "1.95 ms"); bare numbers are rejected so a config cannot silently mix
Hz with rad/s or seconds with milliseconds.  Dimensionless values (flip
fractions, counts, seeds) are plain numbers.

The document and each of its sections is a table of ``Key``s, and each key
is declared once: how it is read, how it is printed and, for a model key,
the library keyword it sets and the conversion on the way.
``_DOCUMENT_KEYS`` holds the sections.  ``_SPIN_KEYS`` set
``SpinSystemParams``; ``_RESPONSE_MODELS`` hold the keys of each response
model; ``_SOURCE_KINDS`` hold the keys of each source kind,
its builder and its default name; ``_SEQUENCE_KEYS`` are checked against the
pipeline and the kind that read them (``PIPELINE_NEEDS``,
``pulses.KINDS``, the one vocabulary of a sequence block): every block a
pipeline builds names its kind, except a swept block, which holds
unbalanced echoes.  One reader (``_normalize_mapping``) reads every section
and one printer (``_dump_mapping``) prints it in table order.

Parsing validates the whole document and raises one ConfigError listing
every problem with its dotted path, so a config is fixed in one edit cycle
rather than one error at a time.  That includes the sequence keys the
pipeline needs, well-formed grids (times positive, strictly increasing and,
where the pipeline fits them, long enough to fit; flip fractions in [0, 1];
a range of at most ``MAX_GRID_POINTS`` points) and, at ``spin`` or
``sources[i]``, a model that refuses values which each parsed.
``dump_config`` prints the canonical form; parse -> print -> parse is a
fixed point.  ``build`` parses a config's canonical mapping
(``config_document``) and returns the models it builds, so a config parsed,
built or changed in code is checked the same way, and a key or kind no table
knows is printed as it is and reported at its dotted path.

Reference scenario configs ship as package data (``SCENARIO_DIR``);
``load_packaged_scenario`` finds them by name (fig1c, fig1d, fig2, fig4, s5
plus the fig2c/fig2d aliases, which both resolve to the two-branch fig2
table).  Loading a config imports only the modules that build its models:
the sequence kinds come from the numpy-free ``pulses``, and the scan, fit,
solver, script and run layers are not imported at all.  Nor is numpy:
building the models takes no array, and ``realize_grid`` builds a grid's
values on Python floats, the values the grid checks read and a run scans
(``_positive_increasing``, ``_fractions``).  YAML is parsed by
``yamlio.load_yaml`` (libyaml where PyYAML has it).
"""

from __future__ import annotations

import math
import numbers
import os
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .catalog import (DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_SKIP, MIN_FIT_POINTS,
                      SCENARIO_ALIASES, SCENARIO_NAMES)
from .noise import (DISTRIBUTION_KINDS, Distribution, field_source, residual_field_source,
                    strain_source, temperature_source)
from .pulses import KINDS
from .records import Frozen
from .response import (
    DEFAULT_DATA_FILE,
    LinearResponse,
    PRESSURE_PER_STRAIN_GPA,
    QuasiharmonicSet,
    load_response_set,
)
from .spin_model import SpinSystemParams
from .units import QuantityError, angular, format_quantity, parse_quantity
from .yamlio import dump_yaml, load_yaml

SCHEMA = "nvecho-scenario/1"
DATA_DIR_ENV = "NVECHO_DATA_DIR"
SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"

_BACKEND_DEFAULTS = {"samples": DEFAULT_SAMPLES, "seed": DEFAULT_SEED}
_OUTPUT_DEFAULTS = {"directory": "."}


# What each pipeline reads from its sequence block, as dotted paths below
# ``sequence``; ``compare.times`` asks for the compare block too.  A
# pipeline fits an exponential to the decay over each ``times`` grid it
# reads, so the grid needs ``_FITTED_TIMES`` points.  A block also holds the
# keys of the kind it is built as (``pulses.KINDS``), and nothing else.
# Every block a pipeline builds names its kind, except a swept one: where
# the pipeline sweeps ``flip_fractions``, the block holds unbalanced echoes,
# and the sweep sets each kind key whose plural it reads (``pairs`` too).
PIPELINE_NEEDS = {
    "simulate": ("kind", "total_time"),
    "decay_compare": ("kind", "times", "compare.kind", "compare.times"),
    "pulse_sweep": ("total_time", "flip_fractions"),
    "rate_table_vee": ("pairs", "flip_fractions", "times"),
    "protection_study": ("total_time", "flip_fractions", "times", "compare.kind",
                         "compare.times"),
}
_FITTED_TIMES = DEFAULT_SKIP + MIN_FIT_POINTS


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

    def clean(self, path) -> bool:
        """Whether no problem is reported at ``path`` or below it."""
        return not any(p.startswith((f"{path}:", f"{path}.", f"{path}[")) for p in self.problems)


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


# ------------------------------------------------------------------ readers

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


def _integer(value, path, col):
    """Any integer but a bool, as a plain ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        col.add(path, "must be an integer")
        return None
    return int(value)


def _string(value, path, col):
    if not isinstance(value, str):
        col.add(path, "must be a string")
        return None
    return value


def _one_of(choices):
    """A reader of one of the strings ``choices`` (a tuple)."""
    def read(value, path, col):
        if not isinstance(value, str) or value not in choices:
            col.add(path, f"must be one of {choices}, got {value!r}")
            return None
        return value
    return read


def _checked(read, holds, message):
    """``read``, then report a value that ``holds`` refuses."""
    def check(value, path, col):
        v = read(value, path, col)
        if v is not None and not holds(v):
            col.add(path, message)
            return None
        return v
    return check


_nonempty_string = _checked(_string, bool, "must be a nonempty string")
_positive_integer = _checked(_integer, lambda v: v >= 1, "must be a positive integer")
_projection = _checked(_integer, lambda v: v in (-1, 0, 1), "must be one of -1, 0, +1")


class Key(NamedTuple):
    """One key of a config section: how it is read, how it is printed (None:
    as it is), whether a block must give it, and for a model key the library
    keyword it sets and the conversion of its value (None: as it is)."""

    read: Callable
    dump: Callable | None = None
    sets: str | None = None
    convert: Callable | None = None
    required: bool = False


def _measured(dimension, sets=None, convert=None) -> Key:
    """A key in ``dimension``, read and printed with its unit; a plain
    number where ``dimension`` is None."""
    if dimension is None:
        return Key(_plain_number, None, sets, convert)
    return Key(partial(_quantity, dimension=dimension),
               partial(format_quantity, dimension=dimension), sets, convert)


def _positive(key: Key) -> Key:
    return key._replace(read=_checked(key.read, lambda v: v > 0, "must be > 0"))


def _normalize_mapping(block, path, col, keys, defaults=None):
    """``defaults`` updated with each key of ``block`` as its ``Key`` in
    ``keys`` reads it; a key ``keys`` does not hold is unknown, and a
    required key the block lacks is reported."""
    out = dict(defaults or {})
    if block is None:
        return out
    if not isinstance(block, dict):
        col.add(path, "must be a mapping")
        return out
    for key, value in block.items():
        where = f"{path}.{key}" if path else str(key)  # the document's own keys have no prefix
        if key not in keys:
            col.add(where, "unknown key")
            continue
        parsed = keys[key].read(value, where, col)
        if parsed is not None:
            out[key] = parsed
    for key, spec in keys.items():
        if spec.required and key not in block:
            col.add(f"{path}.{key}" if path else key, "required")
    return out


def _dump_mapping(block, keys):
    """``block`` printed in the order of ``keys``, each key as its ``Key``
    prints it; a key, or a block, that ``keys`` does not know is printed as
    it is, so that parsing reports it."""
    if not isinstance(block, dict):
        return block
    out = {key: block[key] if spec.dump is None else spec.dump(block[key])
           for key, spec in keys.items() if key in block}
    return out | {key: value for key, value in block.items() if key not in keys}


def _library_kwargs(block, keys) -> dict:
    """The library keywords that the keys of ``block`` set, converted."""
    return {spec.sets: block[key] if spec.convert is None else spec.convert(block[key])
            for key, spec in keys.items() if spec.sets is not None and key in block}


def _section(keys, defaults=None) -> Key:
    """A mapping of ``keys``, read and printed key by key."""
    return Key(lambda block, path, col: _normalize_mapping(block, path, col, keys, defaults),
               lambda block: _dump_mapping(block, keys))


# ------------------------------------------------------- the model sections

class Variant(NamedTuple):
    """One response model or source kind: the keys its block may hold
    besides the tag that names it, and a source's builder and default name."""

    keys: dict
    build: Callable | None = None
    name: str = ""


_TAG = Key(lambda value, path, col: value)  # read already, to pick the variant


def _variants(tag, variants, default=None) -> Key:
    """A mapping whose ``tag`` key (``default`` where it has none) names the
    variant whose keys it may hold; read as None, reported, where it names
    none, and printed as it is."""
    def read(block, path, col):
        if not isinstance(block, dict):
            col.add(path, "must be a mapping")
            return None
        name = _one_of(tuple(variants))(block.get(tag, default), f"{path}.{tag}", col)
        if name is None:
            return None
        return _normalize_mapping(block, path, col, {tag: _TAG} | variants[name].keys,
                                  {tag: name})

    def dump(block):
        name = block.get(tag, default) if isinstance(block, dict) else None
        known = isinstance(name, str) and name in variants
        return _dump_mapping(block, {tag: _TAG} | variants[name].keys if known else {})
    return Key(read, dump)


# each spin key: its dimension and the SpinSystemParams keyword it sets
_SPIN_KEYS = {
    "quadrupole": _measured("frequency", "quadrupole", angular),
    "hyperfine": _measured("frequency", "hyperfine", angular),
    "gamma_n": _measured("frequency_per_G", "gamma_n", angular),
    "field": _measured("field", "field_gauss"),
}


def _per_strain(per_GPa):
    return angular(per_GPa) * PRESSURE_PER_STRAIN_GPA


# each response model: its keys besides ``model``, each with the keyword of
# ``LinearResponse`` it sets; a quasiharmonic set is loaded from its data file
_RESPONSE_MODELS = {
    "linear": Variant({
        "quadrupole_per_K": _measured("frequency_per_K", "quadrupole_per_K", angular),
        "hyperfine_per_K": _measured("frequency_per_K", "hyperfine_per_K", angular),
        "quadrupole_per_GPa": _measured("frequency_per_GPa", "quadrupole_per_strain", _per_strain),
        "hyperfine_per_GPa": _measured("frequency_per_GPa", "hyperfine_per_strain", _per_strain),
    }),
    "quasiharmonic": Variant({"data_file": Key(_nonempty_string, required=True)}),
}

_NAME = Key(_nonempty_string)


def _drawn(dimension):
    """The keys of a source drawn from a distribution of values in
    ``dimension``, each setting its keyword of ``Distribution``."""
    location = _measured(dimension, "location")
    return {
        "name": _NAME,
        "distribution": Key(_one_of(DISTRIBUTION_KINDS), sets="kind", required=True),
        "location": location,
        "scale": location._replace(
            read=_checked(location.read, lambda v: v >= 0, "scale must be >= 0"), sets="scale"),
    }


# each source kind: its keys besides ``kind``, its builder, called with the
# keywords they set, the source's name, the response model and gamma_n, and
# its default name; strain is dimensionless
_SOURCE_KINDS = {
    "temperature": Variant(_drawn("temperature"), lambda kwargs, name, response, gamma_n:
                           temperature_source(Distribution(**kwargs), response, name),
                           "temperature"),
    "field": Variant(_drawn("field"), lambda kwargs, name, response, gamma_n:
                     field_source(Distribution(**kwargs), name), "field"),
    "strain": Variant(_drawn(None), lambda kwargs, name, response, gamma_n:
                      strain_source(Distribution(**kwargs), response, name), "strain"),
    "residual_field": Variant(
        {"name": _NAME, "dq_coherence_time": _positive(_measured("time", "dq_coherence_time"))},
        lambda kwargs, name, response, gamma_n:
            residual_field_source(**kwargs, gamma_n=gamma_n, name=name),
        "residual-field"),
}


_SOURCE = _variants("kind", _SOURCE_KINDS)


def _sources(block, path, col):
    if not isinstance(block, list):
        col.add(path, "must be a list of source mappings")
        return None
    out = []
    for i, src in enumerate(block):
        spec = _SOURCE.read(src, f"{path}[{i}]", col)
        if spec is not None and spec.get("distribution") == "delta" and spec.get("scale", 0.0) != 0:
            col.add(f"{path}[{i}].scale", "delta distributions take no scale")
        out.append(spec)  # None where unread, so that each spec keeps its index
    return tuple(out)


# ---------------------------------------------------------------- sequences

# A range's points are realized as a list (``realize_grid``), to check and to
# run; the largest packaged grid has 101.
MAX_GRID_POINTS = 10**6
_grid_count = _checked(_positive_integer, lambda v: v <= MAX_GRID_POINTS,
                       f"must be at most {MAX_GRID_POINTS}")


def _range_keys(dimension):
    """The keys of a ``{start, stop, count, spacing}`` grid in ``dimension``."""
    end = _measured(dimension)._replace(required=True)
    return {"start": end, "stop": end, "count": Key(_grid_count, required=True),
            "spacing": Key(_one_of(("linear", "log")))}


def _normalize_grid(spec, path, col, dimension):
    if isinstance(spec, (list, tuple)):
        if len(spec) == 0:
            col.add(path, "grid must not be empty")
            return None
        read = _measured(dimension).read
        values = [read(item, f"{path}[{i}]", col) for i, item in enumerate(spec)]
        return tuple(values) if None not in values else None
    if isinstance(spec, dict):
        reported = len(col.problems)
        out = _normalize_mapping(spec, path, col, _range_keys(dimension), {"spacing": "linear"})
        if len(col.problems) > reported:
            return None
        if out["spacing"] == "log" and (out["start"] <= 0 or out["stop"] <= 0):
            col.add(path, "log spacing needs positive endpoints")
            return None
        return out
    col.add(path, "grid must be a list or a {start, stop, count} mapping")
    return None


def _spaced(start, stop, count) -> list:
    """``count`` points from ``start`` to ``stop`` as ``np.linspace`` spaces
    them: point i is ``i*step + start``, the last ``stop``; where the step
    underflows to zero, point i is ``i/(count - 1)`` of the gap past start."""
    delta = stop - start
    div = max(count - 1, 1)
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    if count > 1:
        points[-1] = stop
    return points


def _power_of_ten(y) -> float:
    """``10.0 ** y``, inf where it overflows."""
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


def realize_grid(spec):
    """A normalized grid spec's values as a list of Python floats (None
    passes through): a list as it is, a range spaced as ``np.linspace``
    spaces it and a log range as ``np.geomspace`` does with numpy's libm
    loops, point i ``10 ** (i*step + log10(start))``.  A range's first value
    is its start and, with two or more points, its last is its stop."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        return list(spec)
    start, stop, count = spec["start"], spec["stop"], spec["count"]
    if spec["spacing"] == "log":
        inner = _spaced(math.log10(start), math.log10(stop), count)[1:-1]
        return [start, *map(_power_of_ten, inner), stop][:count]
    return _spaced(start, stop, count)


def _normalize_pair(value, path, col):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        col.add(path, "pair must be a two-element list of m_I values")
        return None
    a = _projection(value[0], f"{path}[0]", col)
    b = _projection(value[1], f"{path}[1]", col)
    if a is None or b is None:
        return None
    if a == b:
        col.add(path, "pair values must be distinct")
        return None
    return (a, b)


def _pairs(value, path, col):
    if not isinstance(value, list) or not value:
        col.add(path, "must be a nonempty list of pairs")
        return None
    pairs = [_normalize_pair(p, f"{path}[{i}]", col) for i, p in enumerate(value)]
    return tuple(pairs) if None not in pairs else None


def _grid_size(spec) -> int:
    return spec["count"] if isinstance(spec, dict) else len(spec)


def _positive_increasing(spec) -> bool:
    """Whether the grid's values are positive and strictly increasing."""
    values = realize_grid(spec)
    return values[0] > 0 and all(a < b for a, b in zip(values, values[1:]))


def _fractions(spec) -> bool:
    """Whether the grid's values lie in [0, 1]."""
    return all(0.0 <= v <= 1.0 for v in realize_grid(spec))


def _grid(dimension, holds, message) -> Key:
    """A grid key in ``dimension`` whose values, as ``realize_grid`` gives
    them, must satisfy ``holds``, a check of the normalized grid."""
    def dump(spec):
        if isinstance(spec, dict):
            return _dump_mapping(spec, _range_keys(dimension))
        return list(spec) if dimension is None else [format_quantity(v, dimension) for v in spec]
    return Key(_checked(partial(_normalize_grid, dimension=dimension), holds, message), dump)


# each sequence key in canonical order, ``compare`` last.  What a block may
# hold is checked against its pipeline and its kind (``_check_needs``).
_COMPARE_KEYS = {
    "kind": Key(_one_of(tuple(KINDS))),
    "pair": Key(_normalize_pair, list),
    "pairs": Key(_pairs, lambda pairs: [list(p) for p in pairs]),
    "ms": Key(_projection),
    "ms_free": Key(_projection),
    "ms_flipped": Key(_projection),
    "flip_fraction": Key(_checked(_plain_number, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    "total_time": _positive(_measured("time")),
    "times": _grid("time", _positive_increasing, "must be positive and strictly increasing"),
    "flip_fractions": _grid(None, _fractions, "must lie in [0, 1]"),
}
_SEQUENCE_KEYS = _COMPARE_KEYS | {"compare": _section(_COMPARE_KEYS)}

# each top-level key in canonical order
_DOCUMENT_KEYS = {
    "schema": Key(_one_of((SCHEMA,)), required=True),
    "name": Key(_nonempty_string, required=True),
    "pipeline": Key(_nonempty_string, required=True),
    "description": Key(_string),
    "spin": _section(_SPIN_KEYS),
    "response": _variants("model", _RESPONSE_MODELS, "linear"),
    "sources": Key(_sources, lambda sources: [_SOURCE.dump(s) for s in sources]),
    "sequence": _section(_SEQUENCE_KEYS),
    "backend": _section({"samples": Key(_positive_integer),
                         "seed": Key(_checked(_integer, lambda v: v >= 0,
                                              "must be a non-negative integer"))},
                        _BACKEND_DEFAULTS),
    "output": _section({"directory": Key(_nonempty_string)}, _OUTPUT_DEFAULTS),
}


def _lookup(root, dotted):
    for key in dotted.split("."):
        if not isinstance(root, dict) or root.get(key) is None:
            return None
        root = root[key]
    return root


def _check_needs(pipeline, raw, sequence, col) -> None:
    """Report an unknown pipeline; each sequence key it needs that the raw
    ``sequence`` block lacks; and per block, a block it does not read, a
    ``times`` grid too short to fit, another kind in a block of swept echoes,
    each key that neither the pipeline nor the block's kind reads (a kind key
    the pipeline sweeps included), a key the kind needs, and the key that
    breaks its rule."""
    needs = PIPELINE_NEEDS.get(pipeline)
    if needs is None:
        col.add("pipeline", f"unknown pipeline {pipeline!r}; "
                            f"expected one of {sorted(PIPELINE_NEEDS)}")
        return
    root = {"sequence": raw}
    needed = [f"sequence.{key}" for key in needs]
    for path in needed:
        if _lookup(root, path) is None:
            col.add(path, f"pipeline {pipeline!r} needs {path}")
    for path in ("sequence", "sequence.compare"):
        block, norm = _lookup(root, path), _lookup({"sequence": sequence}, path)
        if not isinstance(block, dict):
            continue
        read = {key[len(path) + 1:] for key in needed if key.startswith(f"{path}.")}
        if not read:
            col.add(path, f"pipeline {pipeline!r} does not read this block")
            continue
        times = norm.get("times") if "times" in read else None
        if times is not None and _grid_size(times) < _FITTED_TIMES:
            col.add(f"{path}.times", f"needs >= {_FITTED_TIMES} points: pipeline {pipeline!r} "
                                     f"fits a decay to them after skipping {DEFAULT_SKIP}")
        if "kind" in block and "kind" not in norm:
            continue  # a malformed kind is reported already
        swept = "flip_fractions" in read  # the pipeline sets the flip fraction
        kind = norm.get("kind", "unbalanced_echo" if swept else None)
        if kind is None:
            continue  # the missing kind is reported already
        if swept and kind != "unbalanced_echo":
            col.add(f"{path}.kind", f"pipeline {pipeline!r} builds unbalanced echoes "
                                    f"from this block, not {kind!r}")
            kind = "unbalanced_echo"
        keys = {k: v for k, v in KINDS[kind].keys.items() if f"{k}s" not in read}
        what = f"its swept {kind}" if swept else f"kind {kind}"
        for key in norm:
            if key not in read | {"kind", "compare"} | keys.keys():
                col.add(f"{path}.{key}", f"read by neither pipeline {pipeline!r} nor {what}")
        for key, default in keys.items():
            if default is None and key not in block:
                col.add(f"{path}.{key}", f"kind {kind} needs a {key}")
        # a malformed value is reported already, not also as a refused build
        if all(key in norm for key in keys if key in block):
            refusal = KINDS[kind].rule(keys | KINDS[kind].read(norm))
            if refusal is not None:
                col.add(f"{path}.{refusal[0]}", refusal[1])


# ----------------------------------------------------------------- the type

class ScenarioConfig(Frozen, uncompared=("base_dir",)):
    """Validated scenario description, quantities in base display units
    (Hz, s, K, G, GPa); angular 2*pi factors enter in the model builders."""

    name: str
    pipeline: str
    description: str = ""
    spin: dict = {}
    response: dict = {"model": "linear"}
    sources: tuple = ()
    sequence: dict = {}
    backend: dict = _BACKEND_DEFAULTS
    output: dict = _OUTPUT_DEFAULTS
    base_dir: Path | None = None


class Models(NamedTuple):
    """What a config builds: its spin parameters, its response model and its
    noise sources."""

    spin: SpinSystemParams
    response: LinearResponse | QuasiharmonicSet
    sources: tuple


def _build(col, build, path, *inputs):
    """``build()``, or None where a problem is reported at ``path`` or at the
    ``inputs`` it reads; a refusal of the model is reported at ``path``."""
    if all(col.clean(where) for where in (path, *inputs)):
        try:
            return build()
        except ValueError as exc:
            col.add(path, str(exc))
    return None


def _parse(data, base_dir) -> tuple[ScenarioConfig, Models]:
    """YAML text or an already-loaded mapping, validated, and the models it
    builds."""
    if isinstance(data, (str, bytes)):
        try:
            raw = load_yaml(data)
        except yaml.YAMLError as exc:
            raise ConfigError((f"config is not valid YAML: {exc}",)) from None
    else:
        raw = data
    if not isinstance(raw, dict):
        raise ConfigError(("config must be a YAML mapping",))
    col = _Collector()
    # an empty top-level key is an absent one
    raw = {key: value for key, value in raw.items() if value is not None}
    doc = _normalize_mapping(raw, "", col, _DOCUMENT_KEYS)
    if "pipeline" in doc:
        # against the raw block, so a malformed key is not also reported missing
        _check_needs(doc["pipeline"], raw.get("sequence"), doc.get("sequence", {}), col)
    block = doc.get("response", {})
    response = LinearResponse(**_library_kwargs(block, _RESPONSE_MODELS["linear"].keys))
    if "data_file" in block:  # a quasiharmonic set
        try:
            response = load_response_set(resolve_data_file(block["data_file"], base_dir))
        except (OSError, ValueError) as exc:
            col.add("response.data_file", str(exc))
    # each model whose keys parsed cleanly is built, and a refusal reported
    spin = _build(col, lambda: SpinSystemParams(**_library_kwargs(doc.get("spin", {}), _SPIN_KEYS)),
                  "spin")
    sources = []
    for i, spec in enumerate(doc.get("sources", ())):
        kind = spec and _SOURCE_KINDS[spec["kind"]]
        sources.append(_build(col, lambda: kind.build(
            _library_kwargs(spec, kind.keys), spec.get("name", kind.name), response,
            spin.gamma_n), f"sources[{i}]", "spin", "response"))
    if col.problems:
        raise ConfigError(col.problems)
    del doc["schema"]
    config = ScenarioConfig(**doc, base_dir=None if base_dir is None else Path(base_dir))
    return config, Models(spin, response, tuple(sources))


def parse_config(data, base_dir=None) -> ScenarioConfig:
    """Parse and validate YAML text or an already-loaded mapping."""
    return _parse(data, base_dir)[0]


def build(config: ScenarioConfig) -> tuple[ScenarioConfig, Models]:
    """``config`` as ``parse_config`` reads its canonical mapping, and the
    models it builds; a config built or changed in code is checked like a
    file, so a key or kind no table knows is reported at its dotted path."""
    return _parse(config_document(config), config.base_dir)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


class ScenarioError(ValueError):
    """No packaged scenario has the given name."""


def packaged_scenario_path(name: str) -> Path:
    """The packaged config of a scenario name or alias (``catalog``)."""
    canonical = SCENARIO_ALIASES.get(name, name)
    path = SCENARIO_DIR / f"{canonical}.yaml"
    if not path.exists():
        known = sorted(SCENARIO_NAMES) + sorted(SCENARIO_ALIASES)
        raise ScenarioError(f"unknown scenario {name!r}; expected one of {known}")
    return path


def load_packaged_scenario(name: str) -> ScenarioConfig:
    return load_config(packaged_scenario_path(name))


# ------------------------------------------------------------------ dumping

def config_document(config: ScenarioConfig) -> dict:
    """The canonical mapping of a config, which ``dump_config`` prints and
    a scenario runs as ``parse_config`` reads it; an empty value is left out."""
    doc = {key: SCHEMA if key == "schema" else getattr(config, key) for key in _DOCUMENT_KEYS}
    return _dump_mapping({key: value for key, value in doc.items() if value}, _DOCUMENT_KEYS)


def dump_config(config: ScenarioConfig) -> str:
    """Canonical YAML for a config; parse(dump(parse(x))) == parse(x)."""
    return dump_yaml(config_document(config), sort_keys=False)
