"""Scenario config parsing: units, validation aggregation, round trips."""

import copy
import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from nvecho import response, yamlio
from nvecho.catalog import SCENARIO_ALIASES, SCENARIO_NAMES
from nvecho.config import (
    _COMPARE_KEYS,
    _SEQUENCE_KEYS,
    PIPELINE_NEEDS,
    ConfigError,
    ScenarioConfig,
    build,
    dump_config,
    load_config,
    load_packaged_scenario,
    packaged_scenario_path,
    parse_config,
    realize_grid,
    resolve_data_file,
)
from nvecho.noise import NoiseSource
from nvecho.response import (DEFAULT_DATA_FILE, LinearResponse, QuasiharmonicSet,
                             default_quasiharmonic_set, save_response_set)
from nvecho.scenarios import run_scenario
from nvecho.spin_model import default_params
from nvecho.units import QuantityError, angular, parse_quantity

MINIMAL = """\
schema: nvecho-scenario/1
name: smoke
pipeline: simulate
sequence:
  kind: ramsey
  total_time: 1 ms
"""

FULL = """\
schema: nvecho-scenario/1
name: protection-comparison
pipeline: decay_compare
description: compare unprotected and protected decay
spin:
  quadrupole: -4.945 MHz
  hyperfine: -2.16 MHz
  field: 239 G
response:
  model: linear
  quadrupole_per_K: 36.924 Hz/K
  hyperfine_per_K: 204 Hz/K
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: 5 K
  - kind: residual_field
    dq_coherence_time: 1.95 ms
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  ms_free: 0
  ms_flipped: +1
  flip_fraction: 0.18
  times: {start: 50 us, stop: 15 ms, count: 24, spacing: log}
  compare:
    kind: ramsey
    pair: [0, +1]
    ms: +1
    times: {start: 10 us, stop: 1 ms, count: 24, spacing: linear}
backend:
  seed: 12345
output:
  directory: out
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "smoke"
    assert cfg.pipeline == "simulate"
    built, models = build(cfg)
    assert built == cfg
    assert models == (default_params(), LinearResponse(), ())
    assert cfg.backend == {"samples": 1 << 20, "seed": 12345}
    assert realize_grid(cfg.sequence.get("times")) is None


def test_full_config_builds_models():
    cfg = parse_config(FULL)
    _, (params, resp, sources) = build(cfg)
    assert params.quadrupole == angular(-4.945e6)
    assert params.hyperfine == angular(-2.16e6)
    assert params.field_gauss == 239.0

    assert resp.quadrupole_per_K == angular(36.924)
    assert resp.hyperfine_per_K == angular(204.0)

    assert len(sources) == 2
    assert sources[0].slopes == (resp.quadrupole_per_K, resp.hyperfine_per_K, 0.0)
    assert sources[0].distribution.kind == "lorentzian"
    assert sources[0].distribution.scale == 5.0
    assert sources[1].slopes == (0.0, 0.0, 1.0)
    # sigma_B chosen so the single-quantum residual rate is 1/(2 * 1.95 ms)
    expected_width = 1.0 / (2.0 * abs(params.gamma_n) * 1.95e-3)
    assert sources[1].distribution.scale == pytest.approx(expected_width, rel=1e-12)

    times = realize_grid(cfg.sequence["times"])
    assert len(times) == 24
    assert times[0] == pytest.approx(50e-6, rel=1e-12)
    assert times[-1] == pytest.approx(15e-3, rel=1e-12)
    assert np.allclose(np.diff(np.log(times)), np.diff(np.log(times))[0])

    compare = cfg.sequence["compare"]
    ctimes = realize_grid(compare["times"])
    assert len(ctimes) == 24
    assert np.allclose(np.diff(ctimes), np.diff(ctimes)[0])
    assert cfg.sequence["flip_fraction"] == 0.18
    assert cfg.sequence["pair"] == (0, -1)
    assert compare["ms"] == 1


def test_bare_numbers_rejected():
    cfg = dict_minimal()
    cfg["spin"] = {"quadrupole": -4.945e6}
    with pytest.raises(ConfigError, match="spin.quadrupole"):
        parse_config(cfg)
    # nor does a quantity parse in a dimension it does not know, or a malformed number
    with pytest.raises(QuantityError, match="unknown dimension 'speed'"):
        parse_quantity("1 m/s", "speed")
    with pytest.raises(QuantityError, match="bad number '1.2.3'"):
        parse_quantity("1.2.3 Hz", "frequency")
    # an exponent too long for int() to read is a bad number, not a traceback
    with pytest.raises(QuantityError, match="bad number '1e999"):
        parse_quantity("1e" + "9" * 5000 + " s", "time")


def dict_minimal():
    return {"schema": "nvecho-scenario/1", "name": "n", "pipeline": "simulate",
            "sequence": {"kind": "ramsey", "total_time": "1 ms"}}


def test_problems_are_aggregated():
    cfg = dict_minimal()
    cfg["spin"] = {"quadrupole": "-4.945 parsec"}
    cfg["backend"] = {"method": "quantum", "samples": 0}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(cfg)
    err = excinfo.value
    assert len(err.problems) == 3
    text = str(err)
    assert "spin.quadrupole" in text
    assert "backend.method" in text
    assert "backend.samples" in text


def test_model_build_refusals_join_the_other_problems():
    # a model refusing values that each parse used to escape as a bare
    # ValueError, and only once every other problem was fixed
    cfg = dict_minimal()
    cfg["spin"] = {"quadrupole": "0 Hz"}
    cfg["backend"] = {"samples": 0}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(cfg)
    assert excinfo.value.problems == ("backend.samples: must be a positive integer",
                                      "spin: quadrupole coupling must be nonzero")

    cfg = dict_minimal()
    cfg["spin"] = {"gamma_n": "0 Hz/G"}
    cfg["sources"] = [{"kind": "residual_field", "dq_coherence_time": "2 ms"},
                      {"kind": "temperature", "distribution": "lorentzian",
                       "location": "0 K", "scale": "-5 K"}]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(cfg)
    assert excinfo.value.problems == (
        "sources[1].scale: scale must be >= 0",
        "sources[0]: gamma_n must be finite and nonzero, got 0.0")


def test_unknown_keys_rejected():
    cfg = dict_minimal()
    cfg["spin"] = {"bogus": "1 Hz"}
    cfg["extra"] = 1
    with pytest.raises(ConfigError) as excinfo:
        parse_config(cfg)
    assert "spin.bogus" in str(excinfo.value)
    assert "extra" in str(excinfo.value)


def test_round_trip_is_fixed_point():
    first = parse_config(FULL)
    text = dump_config(first)
    second = parse_config(text)
    assert second == first
    assert dump_config(second) == text


def test_quasiharmonic_data_file(tmp_path):
    save_response_set(default_quasiharmonic_set(), tmp_path / "set.yaml")
    cfg = dict_minimal()
    cfg["response"] = {"model": "quasiharmonic", "data_file": "set.yaml"}
    parsed = parse_config(cfg, base_dir=tmp_path)
    model = build(parsed)[1].response
    assert isinstance(model, QuasiharmonicSet)
    assert model.quadrupole.reference_T == 300.0
    # a config moved to another directory reads its data file from there
    with pytest.raises(ConfigError, match="response.data_file: .*set.yaml"):
        build(parsed.replace(base_dir=tmp_path / "elsewhere"))

    missing = dict_minimal()
    missing["response"] = {"model": "quasiharmonic", "data_file": "nope.yaml"}
    with pytest.raises(ConfigError, match="nope.yaml"):
        parse_config(missing, base_dir=tmp_path)


def test_package_data_file_resolves_without_base_dir():
    cfg = dict_minimal()
    cfg["response"] = {"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"}
    parsed = parse_config(cfg)
    assert isinstance(build(parsed)[1].response, QuasiharmonicSet)


def test_env_var_data_dir(tmp_path, monkeypatch):
    save_response_set(default_quasiharmonic_set(), tmp_path / "alt.yaml")
    monkeypatch.setenv("NVECHO_DATA_DIR", str(tmp_path))
    assert resolve_data_file("alt.yaml") == tmp_path / "alt.yaml"
    cfg = dict_minimal()
    cfg["response"] = {"model": "quasiharmonic", "data_file": "alt.yaml"}
    assert isinstance(build(parse_config(cfg))[1].response, QuasiharmonicSet)


def test_grid_validation():
    cfg = dict_minimal()
    cfg["sequence"] = {"times": {"start": "1 ms", "stop": "2 ms", "count": 0}}
    with pytest.raises(ConfigError, match="count"):
        parse_config(cfg)

    cfg["sequence"] = {"times": {"start": "0 s", "stop": "2 ms", "count": 5, "spacing": "log"}}
    with pytest.raises(ConfigError, match="log"):
        parse_config(cfg)

    cfg["sequence"] = {"times": []}
    with pytest.raises(ConfigError, match="empty"):
        parse_config(cfg)

    cfg["sequence"] = {"times": {"start": "1 ms", "stop": "2 ms", "count": 4, "spacing": "zigzag"}}
    with pytest.raises(ConfigError, match="spacing"):
        parse_config(cfg)

    # a log range's points are powers of ten; one that rounds past float max
    # is inf, refused as the grid's problem rather than raised
    cfg["sequence"] = {"times": {"start": "1.7976931348623e308 s",
                                 "stop": "1.7976931348623157e308 s", "count": 8, "spacing": "log"}}
    with pytest.raises(ConfigError, match="sequence.times: must be positive and strictly increasing"):
        parse_config(cfg)

    cfg["pipeline"] = "rate_table_vee"
    times = [f"{k} ms" for k in range(1, 9)]
    cfg["sequence"] = {"pairs": [[0, -1]], "times": times, "flip_fractions": [0.0, 0.25, 0.5]}
    parsed = parse_config(cfg)
    assert realize_grid(parsed.sequence["times"]) == [k * 1e-3 for k in range(1, 9)]
    assert realize_grid(parsed.sequence["flip_fractions"]) == [0.0, 0.25, 0.5]

    # each times grid a pipeline fits must hold the fit's skip and its five
    # points; a shorter one used to fail in the fit, after the other grids ran
    cfg["sequence"]["times"] = times[:7]
    with pytest.raises(ConfigError, match=r"sequence.times: needs >= 8 points: pipeline "
                                          r"'rate_table_vee' fits a decay to them after "
                                          r"skipping 3"):
        parse_config(cfg)
    short = {"start": "1 ms", "stop": "6 ms", "count": 6}
    for pipeline, sequence in (("decay_compare", COMPLETE["decay_compare"]),
                               ("protection_study", COMPLETE["protection_study"])):
        assert _problem_paths(_pipeline_doc(pipeline, sequence | {"times": short})) \
            == ["sequence.times"]
        compare = sequence["compare"] | {"times": short}
        assert _problem_paths(_pipeline_doc(pipeline, sequence | {"compare": compare})) \
            == ["sequence.compare.times"]
        assert _problem_paths(_pipeline_doc(pipeline, sequence | {
            "times": short, "compare": sequence["compare"] | {"times": times[:7]}})) \
            == ["sequence.times", "sequence.compare.times"]

    cfg["sequence"] = {"phases": [0.0, 1.0]}
    with pytest.raises(ConfigError, match="sequence.phases: unknown key"):
        parse_config(cfg)


def test_source_validation():
    cfg = dict_minimal()
    cfg["sources"] = [{"kind": "humidity", "distribution": "lorentzian",
                       "location": "0 K", "scale": "1 K"}]
    with pytest.raises(ConfigError, match="kind"):
        parse_config(cfg)

    cfg["sources"] = [{"kind": "temperature", "distribution": "triangular",
                       "location": "0 K", "scale": "1 K"}]
    with pytest.raises(ConfigError, match="distribution"):
        parse_config(cfg)

    cfg["sources"] = [{"kind": "temperature", "distribution": "lorentzian",
                       "location": "0 K", "scale": "-1 K"}]
    with pytest.raises(ConfigError, match="scale"):
        parse_config(cfg)

    cfg["sources"] = [{"kind": "strain", "distribution": "gaussian",
                       "location": 0.0, "scale": 1e-5}]
    _, (_, resp, sources) = build(parse_config(cfg))
    assert sources[0].slopes == (resp.quadrupole_per_strain, resp.hyperfine_per_strain, 0.0)
    assert sources[0].distribution.scale == 1e-5


def test_quasiharmonic_temperature_source_is_nonlinear():
    cfg = dict_minimal()
    cfg["response"] = {"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"}
    cfg["sources"] = [{"kind": "temperature", "distribution": "lorentzian",
                       "location": "300 K", "scale": "25 K"}]
    src = build(parse_config(cfg))[1].sources[0]
    assert isinstance(src, NoiseSource)
    assert not src.is_linear
    assert src.distribution.location == 300.0


def test_backend_and_output_validation():
    cfg = dict_minimal()
    cfg["backend"] = {"samples": 4096}
    assert parse_config(cfg).backend == {"samples": 4096, "seed": 12345}

    # the sources choose closed form or Monte Carlo; there is no method key
    cfg["backend"] = {"method": "closed_form"}
    with pytest.raises(ConfigError, match="backend.method: unknown key"):
        parse_config(cfg)

    cfg["backend"] = {"samples": 0}
    with pytest.raises(ConfigError, match="samples"):
        parse_config(cfg)

    cfg["backend"] = {"seed": -1}
    with pytest.raises(ConfigError, match="backend.seed: must be a non-negative integer"):
        parse_config(cfg)
    cfg["backend"] = {"samples": np.int64(4096), "seed": np.int64(7)}
    assert parse_config(cfg).backend == {"samples": 4096, "seed": 7}

    cfg["backend"] = {"workers": 2}
    with pytest.raises(ConfigError, match="backend.workers: unknown key"):
        parse_config(cfg)

    # artifacts are always written as both CSV and JSON
    cfg["backend"] = {}
    cfg["output"] = {"formats": ["xml"]}
    with pytest.raises(ConfigError, match="output.formats: unknown key"):
        parse_config(cfg)


def test_load_config_sets_base_dir(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(FULL, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.base_dir == tmp_path
    assert cfg == parse_config(FULL)  # base_dir excluded from equality


def test_non_finite_quantities_rejected():
    with pytest.raises(QuantityError, match="not finite"):
        parse_quantity("1e400 ms", "time")
    cfg = dict_minimal()
    cfg["sequence"] = {"kind": "ramsey", "total_time": "1e400 ms"}
    with pytest.raises(ConfigError, match="sequence.total_time: .*not finite"):
        parse_config(cfg)
    # plain numbers (strain sources, flip fractions) can be YAML .inf / .nan
    text = MINIMAL + """\
  flip_fractions: [0.1, -.inf]
sources:
  - kind: strain
    distribution: lorentzian
    location: .inf
    scale: .nan
"""
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert len(excinfo.value.problems) == 3
    for path in ("sources[0].location", "sources[0].scale", "sequence.flip_fractions[1]"):
        assert f"{path}: must be finite" in str(excinfo.value)



# ---------------------------------------------------------- pipeline needs

# the shortest grids an exponential fit takes: DEFAULT_SKIP + MIN_FIT_POINTS points
FIT_TIMES = {"start": "1 ms", "stop": "8 ms", "count": 8}
FIT_COMPARE_TIMES = {"start": "10 us", "stop": "80 us", "count": 8}

# a complete sequence block per pipeline; the tests below take keys out
COMPLETE = {
    "simulate": {"kind": "unbalanced_echo", "flip_fraction": 0.18, "total_time": "1 ms"},
    "decay_compare": {"kind": "unbalanced_echo", "flip_fraction": 0.18, "times": FIT_TIMES,
                      "compare": {"kind": "ramsey", "times": FIT_COMPARE_TIMES}},
    "pulse_sweep": {"total_time": "1 ms", "flip_fractions": [0.1, 0.2]},
    "rate_table_vee": {"pairs": [[0, -1]], "flip_fractions": [0.1, 0.2], "times": FIT_TIMES},
    "protection_study": {"total_time": "1 ms", "flip_fractions": [0.1, 0.2],
                         "times": FIT_TIMES,
                         "compare": {"kind": "ramsey", "times": FIT_COMPARE_TIMES}},
}

# every key of the table, plus the flip fraction of the unbalanced echoes
# that the complete blocks name
NEEDED = [(pipeline, need) for pipeline, needs in PIPELINE_NEEDS.items()
          for need in needs] + [("simulate", "flip_fraction"),
                                ("decay_compare", "flip_fraction")]


def _pipeline_doc(pipeline, sequence):
    return {"schema": "nvecho-scenario/1", "name": "n", "pipeline": pipeline,
            "sequence": sequence}


def _problem_paths(doc):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    return [problem.split(": ")[0] for problem in excinfo.value.problems]


def test_each_need_is_one_sequence_key():
    # a need is a key of its block's table, not a choice between keys
    for pipeline, needs in PIPELINE_NEEDS.items():
        for need in needs:
            block, _, key = need.rpartition(".")
            assert key in {"": _SEQUENCE_KEYS, "compare": _COMPARE_KEYS}.get(block, {}), \
                (pipeline, need)


def test_complete_blocks_parse():
    assert COMPLETE.keys() == PIPELINE_NEEDS.keys()
    for pipeline, sequence in COMPLETE.items():
        cfg = parse_config(_pipeline_doc(pipeline, sequence))
        assert parse_config(dump_config(cfg)) == cfg


def _without(sequence, need):
    sequence = copy.deepcopy(sequence)
    *parents, key = need.split(".")
    block = sequence
    for parent in parents:
        block = block[parent]
    block.pop(key, None)
    return sequence


@pytest.mark.parametrize("pipeline,need", NEEDED)
def test_each_needed_key_is_reported_by_its_dotted_path(pipeline, need):
    path = "sequence." + need
    sequence = _without(COMPLETE[pipeline], need)
    assert path in _problem_paths(_pipeline_doc(pipeline, sequence))
    # a hand-built config is checked by parsing its printed form
    complete = parse_config(_pipeline_doc(pipeline, COMPLETE[pipeline]))
    built = ScenarioConfig(name="n", pipeline=pipeline,
                           sequence=_without(complete.sequence, need))
    assert path in _problem_paths(dump_config(built))


# the compare block given below is reported where the pipeline reads none
EMPTY_BLOCK_PROBLEMS = {
    "simulate": ["sequence.kind", "sequence.total_time", "sequence.compare"],
    "decay_compare": ["sequence.kind", "sequence.times", "sequence.compare.times",
                      "sequence.compare.flip_fraction"],
    "pulse_sweep": ["sequence.total_time", "sequence.flip_fractions", "sequence.compare"],
    "rate_table_vee": ["sequence.pairs", "sequence.flip_fractions", "sequence.times",
                       "sequence.compare"],
    "protection_study": ["sequence.total_time", "sequence.flip_fractions", "sequence.times",
                         "sequence.compare.times", "sequence.compare.flip_fraction"],
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINE_NEEDS))
def test_every_missing_key_is_reported_in_one_error(pipeline):
    doc = _pipeline_doc(pipeline, {"compare": {"kind": "unbalanced_echo"}})
    doc["spin"] = {"quadrupole": "-4.945 parsec"}
    assert _problem_paths(doc) == ["spin.quadrupole"] + EMPTY_BLOCK_PROBLEMS[pipeline]


def test_unknown_pipeline_and_malformed_grids():
    assert _problem_paths(_pipeline_doc("renormalize", {})) == ["pipeline"]
    with pytest.raises(ConfigError, match="unknown pipeline 'renormalize'"):
        parse_config(dump_config(ScenarioConfig(name="n", pipeline="renormalize")))
    # a script is not a kind
    assert _problem_paths(_pipeline_doc("simulate", {"kind": "script", "total_time": "1 ms"})) \
        == ["sequence.kind"]

    rates = COMPLETE["rate_table_vee"]
    for times in (["2 ms", "1 ms"], ["1 ms", "1 ms"], ["0 s", "1 ms"],
                  {"start": "2 ms", "stop": "1 ms", "count": 3}):
        with pytest.raises(ConfigError, match="sequence.times: must be positive and "
                                              "strictly increasing"):
            parse_config(_pipeline_doc("rate_table_vee", rates | {"times": times}))
    for fractions in ([0.1, 1.5], {"start": 0.0, "stop": 1.5, "count": 4}):
        with pytest.raises(ConfigError, match=r"sequence.flip_fractions: must lie in \[0, 1\]"):
            parse_config(_pipeline_doc("rate_table_vee", rates | {"flip_fractions": fractions}))
    compare = COMPLETE["decay_compare"] | {"compare": {"kind": "ramsey",
                                                       "times": ["20 us", "10 us"]}}
    assert _problem_paths(_pipeline_doc("decay_compare", compare)) == ["sequence.compare.times"]

    built = parse_config(_pipeline_doc("rate_table_vee", rates))
    for times, problem in (((2e-3, 1e-3), "must be positive"), ((), "grid must not be empty")):
        built.sequence["times"] = times
        with pytest.raises(ConfigError, match=f"sequence.times: {problem}"):
            parse_config(dump_config(built))


def test_blocks_build_sequence_refuses_are_rejected():
    # each used to pass parse_config and fail later in build_sequence
    assert _problem_paths(_pipeline_doc(
        "simulate", {"kind": "ramsey", "pair": [-1, 1], "total_time": "1 ms"})) \
        == ["sequence.pair"]
    echo = COMPLETE["simulate"]
    assert _problem_paths(_pipeline_doc("simulate", echo | {"ms_free": 1, "ms_flipped": 1})) \
        == ["sequence.ms_flipped"]
    # ms_flipped defaults to +1
    assert _problem_paths(_pipeline_doc("simulate", echo | {"ms_free": 1})) \
        == ["sequence.ms_flipped"]
    # the kinds a pipeline builds: compare blocks are Ramseys, swept blocks echoes
    compare = COMPLETE["protection_study"]["compare"]
    for pipeline in ("decay_compare", "protection_study"):
        complete = COMPLETE[pipeline]
        assert _problem_paths(_pipeline_doc(
            pipeline, complete | {"compare": compare | {"pair": [-1, 1]}})) \
            == ["sequence.compare.pair"]
        assert _problem_paths(_pipeline_doc(
            pipeline, complete | {"ms_free": -1, "ms_flipped": -1})) == ["sequence.ms_flipped"]
    assert _problem_paths(_pipeline_doc(
        "decay_compare", COMPLETE["decay_compare"]
        | {"compare": compare | {"kind": "unbalanced_echo", "flip_fraction": 0.1,
                                 "ms_free": 0, "ms_flipped": 0}})) \
        == ["sequence.compare.ms_flipped"]
    for pipeline in ("pulse_sweep", "rate_table_vee"):
        assert _problem_paths(_pipeline_doc(
            pipeline, COMPLETE[pipeline] | {"ms_free": 1})) == ["sequence.ms_flipped"]
    # what each pipeline builds other than that still parses
    assert parse_config(_pipeline_doc("simulate", {"kind": "dq_ramsey", "ms": 1,
                                                   "total_time": "1 ms"}))
    assert parse_config(_pipeline_doc("rate_table_vee", COMPLETE["rate_table_vee"]
                                      | {"kind": "unbalanced_echo", "pairs": [[-1, 1]]}))
    assert parse_config(_pipeline_doc("simulate", {"kind": "ramsey", "ms": 1, "total_time": "1 ms"}))
    # a malformed value is reported once, not also as a refused build
    assert _problem_paths(_pipeline_doc("simulate", echo | {"ms_free": 1, "ms_flipped": 2})) \
        == ["sequence.ms_flipped"]

    # hand-built configs are checked the same way
    built = parse_config(_pipeline_doc("simulate", echo))
    built.sequence["ms_free"] = 1
    with pytest.raises(ConfigError, match="sequence.ms_flipped: must differ from ms_free"):
        parse_config(dump_config(built))


def test_blocks_and_kinds_a_pipeline_does_not_read_are_rejected():
    # each used to parse and then be ignored by the run
    compare = {"kind": "ramsey", "times": ["10 us", "20 us"]}
    for pipeline in ("simulate", "pulse_sweep", "rate_table_vee"):
        doc = _pipeline_doc(pipeline, COMPLETE[pipeline] | {"compare": compare})
        assert _problem_paths(doc) == ["sequence.compare"]
        with pytest.raises(ConfigError, match=f"pipeline '{pipeline}' does not read this block"):
            parse_config(doc)
    for pipeline in ("pulse_sweep", "rate_table_vee", "protection_study"):
        for kind in ("ramsey", "dq_ramsey", "nuclear_echo"):
            doc = _pipeline_doc(pipeline, COMPLETE[pipeline] | {"kind": kind})
            assert _problem_paths(doc) == ["sequence.kind"]
        # the kind the pipeline builds may be named; a malformed one is reported once
        assert parse_config(_pipeline_doc(pipeline, COMPLETE[pipeline]
                                          | {"kind": "unbalanced_echo"}))
        assert _problem_paths(_pipeline_doc(pipeline, COMPLETE[pipeline] | {"kind": "foo"})) \
            == ["sequence.kind"]
    # hand-built configs are checked the same way
    built = parse_config(_pipeline_doc("pulse_sweep", COMPLETE["pulse_sweep"]))
    built.sequence["kind"] = "ramsey"
    with pytest.raises(ConfigError, match="sequence.kind: pipeline 'pulse_sweep' builds "
                                          "unbalanced echoes"):
        parse_config(dump_config(built))


SCRIPT = "pair 0 -1\nevolve 1ms ms=0\n"


def _with_script(sequence, path):
    sequence = copy.deepcopy(sequence)
    block = sequence.setdefault("compare", {}) if path == "sequence.compare.script" else sequence
    block["script"] = SCRIPT
    return sequence


def test_script_only_where_the_pipeline_runs_one():
    # pulses.KINDS is the one vocabulary of a sequence block, so no pipeline
    # runs a script: in either block it is an unknown key to every pipeline
    for pipeline, sequence in COMPLETE.items():
        for path in ("sequence.script", "sequence.compare.script"):
            # a pipeline that reads no compare block reports the block too
            unread = ["sequence.compare"] if path == "sequence.compare.script" \
                and "compare" not in sequence else []
            doc = _pipeline_doc(pipeline, _with_script(sequence, path))
            assert _problem_paths(doc) == [path, *unread]
            with pytest.raises(ConfigError, match=f"{path}: unknown key"):
                parse_config(doc)


def test_script_sequence_block(tmp_path):
    # a config built in code that gives a script, in either block, is refused
    # the same way, before any compute
    for pipeline, sequence in COMPLETE.items():
        complete = parse_config(_pipeline_doc(pipeline, sequence))
        for path in ("sequence.script", "sequence.compare.script"):
            unread = ["sequence.compare"] if path == "sequence.compare.script" \
                and "compare" not in sequence else []
            built = complete.replace(sequence=_with_script(complete.sequence, path))
            with pytest.raises(ConfigError) as excinfo:
                run_scenario(built, out_dir=tmp_path / "out")
            assert [problem.split(": ")[0] for problem in excinfo.value.problems] \
                == [path, *unread]
            assert not (tmp_path / "out").exists()


RAMSEY = {"kind": "ramsey", "total_time": "1 ms"}
TIMES = (["1 ms", "2 ms"], (1e-3, 2e-3))

# a block that parses, plus one key that no part of the run reads: (pipeline,
# block, the key's dotted path, its YAML value, its value in a built config)
UNREAD = [
    ("simulate", RAMSEY, "sequence.ms_free", 1, 1),
    ("simulate", RAMSEY, "sequence.flip_fraction", 0.2, 0.2),
    ("simulate", RAMSEY | {"kind": "dq_ramsey"}, "sequence.pair", [-1, 1], (-1, 1)),
    ("simulate", COMPLETE["simulate"], "sequence.ms", 1, 1),
    ("simulate", RAMSEY, "sequence.times", *TIMES),
    ("pulse_sweep", COMPLETE["pulse_sweep"], "sequence.times", *TIMES),
    ("protection_study", COMPLETE["protection_study"], "sequence.flip_fraction", 0.2, 0.2),
    ("rate_table_vee", COMPLETE["rate_table_vee"], "sequence.total_time", "1 ms", 1e-3),
    # the pipeline sets each swept echo's pair from ``pairs``
    ("rate_table_vee", COMPLETE["rate_table_vee"], "sequence.pair", [0, -1], (0, -1)),
    ("decay_compare", COMPLETE["decay_compare"], "sequence.compare.total_time", "1 ms", 1e-3),
    ("decay_compare", COMPLETE["decay_compare"], "sequence.compare.flip_fractions",
     [0.1, 0.2], (0.1, 0.2)),
]


def _with(sequence, path, value):
    sequence = copy.deepcopy(sequence)
    *parents, key = path.split(".")[1:]
    block = sequence
    for parent in parents:
        block = block[parent]
    block[key] = value
    return sequence


@pytest.mark.parametrize("pipeline,sequence,path,value,built_value", UNREAD,
                         ids=[f"{row[0]}-{row[2]}" for row in UNREAD])
def test_keys_no_part_of_the_run_reads_are_rejected(tmp_path, pipeline, sequence, path, value,
                                                    built_value):
    # each used to parse and then be ignored by the run
    complete = parse_config(_pipeline_doc(pipeline, sequence))
    assert _problem_paths(_pipeline_doc(pipeline, _with(sequence, path, value))) == [path]
    built = ScenarioConfig(name="n", pipeline=pipeline,
                           sequence=_with(complete.sequence, path, built_value))
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(built, out_dir=tmp_path / "out")
    assert [problem.split(": ")[0] for problem in excinfo.value.problems] == [path]
    assert not (tmp_path / "out").exists()


def test_a_rate_table_names_its_branches_only_by_pairs(tmp_path):
    # ``pair`` used to stand for a one-branch ``pairs``; the sweep sets it
    block = {key: value for key, value in COMPLETE["rate_table_vee"].items() if key != "pairs"}
    path = tmp_path / "rates.yaml"
    path.write_text(yaml.safe_dump(_pipeline_doc("rate_table_vee", block | {"pair": [0, -1]})))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    problems = [problem.split(": ")[0] for problem in excinfo.value.problems]
    assert problems == ["sequence.pairs", "sequence.pair"]
    complete = parse_config(_pipeline_doc("rate_table_vee", COMPLETE["rate_table_vee"]))
    sequence = {key: value for key, value in complete.sequence.items() if key != "pairs"}
    built = complete.replace(sequence=sequence | {"pair": (0, -1)})
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(built, out_dir=tmp_path / "out")
    assert [problem.split(": ")[0] for problem in excinfo.value.problems] == problems
    assert not (tmp_path / "out").exists()


# model keys that no pipeline reads: the electron-only terms (zero-field
# splitting, electron Zeeman) drop out of every nuclear-spin phase
UNREAD_MODEL_KEYS = [
    ("spin", {"zfs": "2.87 GHz"}, {"zfs": 2.87e9}),
    ("spin", {"gamma_e": "2.8025 MHz/G"}, {"gamma_e": 2.8025e6}),
    ("response", {"model": "linear", "zfs_per_K": "-77.7 kHz/K"},
     {"model": "linear", "zfs_per_K": -77.7e3}),
]


@pytest.mark.parametrize("block,value,built_value", UNREAD_MODEL_KEYS,
                         ids=[f"{row[0]}.{list(row[2])[-1]}" for row in UNREAD_MODEL_KEYS])
def test_model_keys_no_pipeline_reads_are_rejected(tmp_path, block, value, built_value):
    # each used to parse and then change no number of any run
    path = f"{block}.{list(built_value)[-1]}"
    doc = _pipeline_doc("simulate", RAMSEY) | {block: value}
    assert _problem_paths(doc) == [path]
    sequence = parse_config(_pipeline_doc("simulate", RAMSEY)).sequence
    built = ScenarioConfig(name="n", pipeline="simulate", sequence=sequence,
                           **{block: built_value})
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(built, out_dir=tmp_path / "out")
    assert [problem.split(": ")[0] for problem in excinfo.value.problems] == [path]
    assert not (tmp_path / "out").exists()


TEMPERATURE = {"kind": "temperature", "distribution": "lorentzian", "location": "0 K",
               "scale": "5 K"}

# a key or a kind that no source table knows: (what replaces part of a
# parsed temperature source, in YAML and in a built config, and its path)
UNKNOWN_SOURCE_PARTS = [
    ({"width": "3 K"}, {"width": 3.0}, "sources[0].width"),
    ({"kind": "magnet"}, {"kind": "magnet"}, "sources[0].kind"),
]


@pytest.mark.parametrize("part,built_part,path", UNKNOWN_SOURCE_PARTS,
                         ids=[row[2] for row in UNKNOWN_SOURCE_PARTS])
def test_source_keys_and_kinds_no_table_knows_are_rejected(tmp_path, part, built_part, path):
    # a built config with the key used to run as if it were absent, and one
    # with the kind to fail with a bare KeyError
    doc = _pipeline_doc("simulate", RAMSEY) | {"sources": [TEMPERATURE | part]}
    assert _problem_paths(doc) == [path]
    parsed = parse_config(_pipeline_doc("simulate", RAMSEY) | {"sources": [TEMPERATURE]})
    built = parsed.replace(sources=(parsed.sources[0] | built_part,))
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(built, out_dir=tmp_path / "out")
    assert [problem.split(": ")[0] for problem in excinfo.value.problems] == [path]
    assert not (tmp_path / "out").exists()


def test_integer_keys_take_any_integer(tmp_path):
    # numpy integers used to be refused here while backend.samples took them
    plain = {"pairs": [[0, -1], [0, 1]], "ms_free": 0, "ms_flipped": 1,
             "flip_fractions": {"start": 0.1, "stop": 0.2, "count": 5}, "times": FIT_TIMES}
    numpy = plain | {"pairs": [[np.int64(0), np.int64(-1)], [np.int32(0), 1]],
                     "ms_free": np.int64(0), "ms_flipped": np.int8(1),
                     "flip_fractions": plain["flip_fractions"] | {"count": np.int64(5)}}
    cfg = parse_config(_pipeline_doc("rate_table_vee", numpy))
    assert cfg == parse_config(_pipeline_doc("rate_table_vee", plain))
    assert {type(m) for pair in cfg.sequence["pairs"] for m in pair} == {int}
    assert type(cfg.sequence["flip_fractions"]["count"]) is int
    assert parse_config(yaml.safe_load(dump_config(cfg))) == cfg
    ramsey = parse_config(_pipeline_doc("simulate", RAMSEY | {"ms": np.int64(1),
                                                             "pair": [np.uint8(0), -1]}))
    assert ramsey.sequence == parse_config(_pipeline_doc(
        "simulate", RAMSEY | {"ms": 1, "pair": [0, -1]})).sequence
    assert parse_config(yaml.safe_load(dump_config(ramsey))) == ramsey
    built = ramsey.replace(sequence=ramsey.sequence | {"ms": np.int64(1)})
    assert (run_scenario(built, out_dir=tmp_path / "numpy").numbers
            == run_scenario(ramsey, out_dir=tmp_path / "plain").numbers)
    # a bool or a float is no integer
    for ms in (True, 1.0):
        assert _problem_paths(_pipeline_doc("simulate", RAMSEY | {"ms": ms})) == ["sequence.ms"]
    assert _problem_paths(_pipeline_doc("rate_table_vee", plain | {
        "flip_fractions": plain["flip_fractions"] | {"count": True}})) \
        == ["sequence.flip_fractions.count"]


# sha256 of each packaged scenario's canonical text, pinned when the checks
# on what a block may hold were added, which left every packaged config as it
# is; fig1c, fig2, fig4 and s5 were pinned again when a quantity began to
# parse to the double nearest its decimal, which moved one grid start or stop
# of each by an ulp (4.9999999999999996e-06 s is now 5e-06 s)
PACKAGED_DUMPS = {
    "fig1c": "eca8be62a1eee93867e80d4c15395ad6eb967595c78f0ad4285ea5e7446fcd12",
    "fig1d": "5662ba80caff9eaab7630f9720b7c7993f51d10574cfa7b868ac37504da2c465",
    "fig2": "13ff20ed623c6da58234fa8e361f76e2867af7acd20b057646596adeb2cd0457",
    "fig4": "c812a838d749c618ae4d10e70bf19f9ed4b2573586b13ca7ce677969b6dd9d9f",
    "s5": "c8e83a289e65314293383afc6d5bf924523fdd4c73f0c09c59dfc637de71d940",
}


@pytest.mark.parametrize("name", sorted(PACKAGED_DUMPS))
def test_packaged_configs_parse_and_print_unchanged(name):
    text = dump_config(load_packaged_scenario(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PACKAGED_DUMPS[name]


# Loads and builds configs in a fresh interpreter, realizes each of their
# grids, and prints which of the run layer's modules (and numpy) that imported.
CONFIG_IMPORTS = """\
import sys

from nvecho.config import build, load_packaged_scenario, parse_config, realize_grid

configs = [load_packaged_scenario(name) for name in sys.argv[2:]]
if sys.argv[1]:
    configs.append(parse_config(sys.argv[1]))
for config in configs:
    build(config)
    for block in (config.sequence, config.sequence.get("compare", {})):
        for key in ("times", "flip_fractions"):
            realize_grid(block.get(key))
layers = ("nvecho.scenarios", "nvecho.estimator", "nvecho.sequences", "nvecho.script",
          "numpy")
print("loaded:", [name for name in layers if name in sys.modules])
"""


def _config_imports(text, *names):
    proc = subprocess.run([sys.executable, "-c", CONFIG_IMPORTS, text, *names],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip()


def test_a_config_load_imports_only_the_model():
    # every packaged scenario, and a simulate block, loads and realizes its
    # grids without numpy or the scan, fit, script or run layer
    names = sorted(SCENARIO_NAMES) + sorted(SCENARIO_ALIASES)
    assert _config_imports(MINIMAL, *names) == "loaded: []"


_LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]


@pytest.mark.parametrize("path", [packaged_scenario_path(name) for name in SCENARIO_NAMES]
                         + [DEFAULT_DATA_FILE], ids=lambda path: path.name)
def test_libyaml_reads_what_the_pure_python_loader_reads(monkeypatch, path):
    text = path.read_text(encoding="utf-8")
    reads = []
    for loader in _LOADERS:
        monkeypatch.setattr(yamlio, "YAML_LOADER", loader)
        built = (response.load_response_set(path) if path == DEFAULT_DATA_FILE
                 else parse_config(text, path.parent))
        # repr, not ==: it tells 1 from 1.0 and True, and a str from a date
        reads.append((repr(yamlio.load_yaml(text)), repr(built)))
    pure, libyaml = reads
    assert pure == libyaml
