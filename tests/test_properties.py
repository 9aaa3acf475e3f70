"""Property tests over generated inputs (hypothesis, derandomized).

Each property runs a small, fixed set of examples so the suite stays steady
and fast:

* config parse -> dump -> parse is a fixed point for configs whose blocks
  hold what their pipeline reads and keys of the kind they are built as
  (``KINDS``), and the dump never emits a ``method`` key (the sources choose
  the ensemble average) or a ``formats`` key; the same config built in code
  with numpy scalars prints the same text;
* sequence scripts round-trip through the canonical printer, kind included;
* a closed-form Ramsey decay under Lorentzian noise obeys A(2t) = A(t)^2;
* a Monte Carlo point is bit-identical whatever family it is evaluated in,
  also when the sample count is not a whole number of chunks.
"""

import math
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nvecho.catalog import DEFAULT_SKIP, MIN_FIT_POINTS
from nvecho.config import PIPELINE_NEEDS, ScenarioConfig, dump_config, parse_config
from nvecho.noise import CHUNK, field_source, lorentzian, temperature_source
from nvecho.response import default_quasiharmonic_set
from nvecho.pulses import KINDS, build_sequence
from nvecho.script import format_sequence_script, parse_sequence_script
from nvecho.sequences import simulate_family

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=25)
MC_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=5)

PAIRS = [(0, -1), (0, 1), (-1, 1), (1, 0)]
SQ_PAIRS = [(0, -1), (0, 1)]
PROJECTIONS = [-1, 0, 1]
FIT_POINTS = DEFAULT_SKIP + MIN_FIT_POINTS


def _finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _quantity(low, high, unit):
    return _finite(low, high).map(lambda v: f"{v!r} {unit}")


# ------------------------------------------------------------------ configs

_names = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)
_times = _quantity(1e-7, 1e-1, "s")


def _grid(values, positive_values):
    listed = st.lists(values, min_size=1, max_size=4)
    linear = st.fixed_dictionaries(
        {"start": values, "stop": values, "count": st.integers(1, 50)},
        optional={"spacing": st.just("linear")},
    )
    log = st.fixed_dictionaries(
        {"start": positive_values, "stop": positive_values, "count": st.integers(1, 50),
         "spacing": st.just("log")},
    )
    return st.one_of(listed, linear, log)


def _increasing_times():
    """Time grids as the pipelines need them: positive, strictly increasing and
    long enough to fit."""
    listed = st.lists(_finite(1e-7, 1e-1), min_size=FIT_POINTS, max_size=FIT_POINTS + 2,
                      unique=True).map(
        lambda values: [f"{v!r} s" for v in sorted(values)])
    ends = st.tuples(_finite(1e-7, 1e-1), _finite(1e-7, 1e-1)).map(sorted).filter(
        lambda e: e[1] - e[0] > 1e-7).map(
        lambda e: {"start": f"{e[0]!r} s", "stop": f"{e[1]!r} s"})
    linear = st.tuples(ends, st.fixed_dictionaries(
        {"count": st.integers(FIT_POINTS, 50)}, optional={"spacing": st.just("linear")}))
    log = st.tuples(ends, st.fixed_dictionaries(
        {"count": st.integers(FIT_POINTS, 50), "spacing": st.just("log")}))
    return st.one_of(listed, st.one_of(linear, log).map(lambda parts: parts[0] | parts[1]))


_fractions = _finite(0.0, 1.0)
_time_grid = _increasing_times()
_fraction_grid = _grid(_fractions, _finite(1e-3, 1.0))


@st.composite
def _source(draw):
    kind = draw(st.sampled_from(["temperature", "field", "strain", "residual_field"]))
    out = {"kind": kind}
    if draw(st.booleans()):
        out["name"] = draw(_names)
    if kind == "residual_field":
        if draw(st.booleans()):
            out["dq_coherence_time"] = draw(_quantity(1e-6, 1.0, "s"))
        return out
    dist = draw(st.sampled_from(["lorentzian", "gaussian", "delta"]))
    out["distribution"] = dist
    if kind == "strain":
        location, scale = _finite(-0.05, 0.05), _finite(0.0, 0.05)
    else:
        unit = "K" if kind == "temperature" else "G"
        location, scale = _quantity(-50.0, 50.0, unit), _quantity(0.0, 50.0, unit)
    if draw(st.booleans()):
        out["location"] = draw(location)
    if dist != "delta" and draw(st.booleans()):
        out["scale"] = draw(scale)
    return out


_documents = st.fixed_dictionaries(
    {
        "schema": st.just("nvecho-scenario/1"),
        "name": _names,
        "pipeline": st.sampled_from(sorted(PIPELINE_NEEDS)),
    },
    optional={
        "description": st.text(max_size=20),
        "spin": st.fixed_dictionaries({}, optional={
            "quadrupole": _quantity(-6e6, -4e6, "Hz"),
            "hyperfine": _quantity(-3e6, -1e6, "Hz"),
            "gamma_n": _quantity(-400.0, -200.0, "Hz/G"),
            "field": _quantity(0.0, 1000.0, "G"),
        }),
        "response": st.one_of(
            st.fixed_dictionaries({"model": st.just("linear")}, optional={
                "quadrupole_per_K": _quantity(-100.0, 100.0, "Hz/K"),
                "hyperfine_per_K": _quantity(-500.0, 500.0, "Hz/K"),
                "quadrupole_per_GPa": _quantity(-5e3, 5e3, "Hz/GPa"),
            }),
            st.just({"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"}),
        ),
        "sources": st.lists(_source(), max_size=3),
        "backend": st.fixed_dictionaries({}, optional={
            "samples": st.integers(1, 1 << 22),
            "seed": st.integers(0, 2**63),
        }),
        "output": st.fixed_dictionaries({}, optional={"directory": _names}),
    },
).filter(lambda doc: doc.get("response", {}).get("model") != "quasiharmonic" or not any(
    # the quasiharmonic set reads a temperature location as absolute
    src["kind"] == "temperature" and src.get("location", "0").startswith("-")
    for src in doc.get("sources", ())))

# what each sequence key holds
_VALUES = {
    "kind": st.sampled_from(sorted(KINDS)),
    "pair": st.sampled_from(PAIRS).map(list),
    "pairs": st.lists(st.sampled_from(PAIRS).map(list), min_size=1, max_size=3),
    "ms": st.sampled_from(PROJECTIONS),
    "ms_free": st.sampled_from(PROJECTIONS),
    "ms_flipped": st.sampled_from(PROJECTIONS),
    "flip_fraction": _fractions,
    "total_time": _times,
    "times": _time_grid,
    "flip_fractions": _fraction_grid,
}


def _kind_keys(kind, block=None, exclude=()):
    """Keys of ``kind`` besides ``exclude``, its required ones always, that
    together with ``block`` pass the kind's rule."""
    spec, block = KINDS[kind], block or {}
    own = [key for key in spec.keys if key not in exclude]
    return st.fixed_dictionaries(
        {key: _VALUES[key] for key in own if spec.keys[key] is None},
        optional={key: _VALUES[key] for key in own if spec.keys[key] is not None},
    ).filter(lambda keys: spec.rule(spec.keys | spec.read(block | keys)) is None)


@st.composite
def _block(draw, needs, path):
    """A ``path`` block of a pipeline: each key the pipeline reads there and
    keys of the kind the block is built as: the kind it names or, where the
    pipeline sweeps its flip fractions, an unbalanced echo, less each key
    whose plural the pipeline sweeps."""
    prefix = path.partition(".")[2] + "." if "." in path else ""
    read = [need[len(prefix):] for need in needs
            if need.startswith(prefix) and "." not in need[len(prefix):]]
    block = {key: draw(_VALUES[key]) for key in read}
    if "flip_fractions" in block:
        if draw(st.booleans()):
            block["kind"] = "unbalanced_echo"
        kind = "unbalanced_echo"
    else:
        kind = block["kind"]
    swept = [key for key in KINDS[kind].keys if f"{key}s" in read]
    return block | draw(_kind_keys(kind, block, exclude=(*read, *swept)))


@st.composite
def _configs(draw):
    doc = draw(_documents)
    needs = PIPELINE_NEEDS[doc["pipeline"]]
    sequence = draw(_block(needs, "sequence"))
    if any(need.startswith("compare.") for need in needs):
        sequence["compare"] = draw(_block(needs, "sequence.compare"))
    return doc | {"sequence": sequence}


def _numpy_scalars(value):
    """``value`` with each int and float in it a numpy scalar (a seed past
    int64 an unsigned one), as a config built in code may hold them."""
    if isinstance(value, dict):
        return {key: _numpy_scalars(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_numpy_scalars(v) for v in value)
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return np.int64(value) if value < 2**63 else np.uint64(value)
    return value


@SETTINGS
@given(_configs())
def test_config_parse_dump_parse_is_a_fixed_point(doc):
    first = parse_config(doc)
    text = dump_config(first)
    second = parse_config(text)
    assert second == first
    assert dump_config(second) == text
    assert "method" not in text and "formats" not in text
    built = ScenarioConfig(**{f.name: _numpy_scalars(getattr(first, f.name))
                              for f in fields(first)})
    assert dump_config(built) == text


# ------------------------------------------------------------------ scripts

@SETTINGS
@given(kind=st.sampled_from(sorted(KINDS)), total_time=_finite(1e-7, 1e-1), data=st.data())
def test_built_sequences_round_trip_through_the_printer(kind, total_time, data):
    seq = build_sequence(kind, total_time, **data.draw(_kind_keys(kind)))
    assert seq.kind == kind
    assert parse_sequence_script(format_sequence_script(seq)) == seq


@st.composite
def _scripts(draw):
    """Scripts of 0-2 flip-n, an optional flip-e and one evolve per step,
    with 0-2 flip-n after the last evolve."""
    pair = draw(st.sampled_from(PAIRS))
    lines, ms, total = [f"pair {pair[0]} {pair[1]}"], 0, 0.0
    steps = st.tuples(st.integers(0, 2), st.sampled_from(PROJECTIONS), _finite(0.0, 1e-2))
    for flips, target, duration in draw(st.lists(steps, min_size=1, max_size=5)):
        lines += ["flip-n"] * flips
        if target != ms:
            lines.append(f"flip-e ms={target}")
            ms = target
        lines.append(f"evolve {duration!r}s ms={ms}")
        total += duration
    if total == 0.0:
        lines.append("evolve 1us")  # positive total duration
    return "\n".join(lines + ["flip-n"] * draw(st.integers(0, 2)))


@SETTINGS
@given(_scripts())
@example("pair 0 -1\nevolve 1ms\nflip-n\n")
def test_printed_scripts_are_canonical(script):
    first = parse_sequence_script(script)
    text = format_sequence_script(first)
    second = parse_sequence_script(text)
    assert (second.kind, second.pair, second.segments) == (first.kind, first.pair, first.segments)
    assert parse_sequence_script(format_sequence_script(second)) == second
    assert format_sequence_script(second) == text


# ------------------------------------------------------------------ physics

@SETTINGS
@given(
    t=_finite(1e-6, 2e-3),
    pair=st.sampled_from(SQ_PAIRS),
    m_S=st.sampled_from(PROJECTIONS),
    temperature_width=_finite(0.0, 10.0),
    field_width=_finite(0.0, 0.5),
)
def test_closed_form_ramsey_is_exponential(t, pair, m_S, temperature_width, field_width):
    sources = (temperature_source(lorentzian(0.0, temperature_width)),
               field_source(lorentzian(0.0, field_width)))
    one = simulate_family([build_sequence("ramsey", t, pair=pair, ms=m_S)], sources)
    two = simulate_family([build_sequence("ramsey", 2 * t, pair=pair, ms=m_S)], sources)
    assert one.monte_carlo is None and two.monte_carlo is None
    assert math.isclose(two.amplitude[0], one.amplitude[0] ** 2, rel_tol=1e-9, abs_tol=1e-300)


@MC_SETTINGS
@example(total_time=0.001953125, fractions=[0.0, 0.0], width=1.0, with_field=False, seed=0)
@given(
    total_time=_finite(1e-4, 3e-3),
    fractions=st.lists(_fractions, min_size=2, max_size=3),
    width=_finite(1.0, 50.0),
    with_field=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_monte_carlo_point_is_batch_invariant(total_time, fractions, width, with_field, seed):
    sources = (temperature_source(lorentzian(300.0, width),
                                  response=default_quasiharmonic_set()),)
    if with_field:
        sources += (field_source(lorentzian(0.0, 0.1)),)
    family = [build_sequence("unbalanced_echo", total_time, flip_fraction=f) for f in fractions]
    kwargs = {"n_samples": CHUNK + 17, "seed": seed}
    batch = simulate_family(family, sources, **kwargs)
    for g, seq in enumerate(family):
        alone = simulate_family([seq], sources, **kwargs)
        assert alone.attenuation[0].tobytes() == batch.attenuation[g].tobytes()
        assert alone.base_phase[0].tobytes() == batch.base_phase[g].tobytes()
        assert alone.monte_carlo.std_error[0] == batch.monte_carlo.std_error[g]
        assert alone.monte_carlo.n_retained == batch.monte_carlo.n_retained
