"""Scenario pipelines: packaged configs, artifacts, and key numbers."""

import copy
import json
import math

import numpy as np
import pytest

from nvecho import config, noise, sequences
from nvecho.catalog import SCENARIO_NAMES
from nvecho.config import (
    ConfigError,
    ScenarioConfig,
    ScenarioError,
    build,
    config_document,
    dump_config,
    load_packaged_scenario,
    packaged_scenario_path,
    parse_config,
    realize_grid,
)
from nvecho.estimator import fit_exponential
from nvecho.pulses import KINDS, build_sequence
from nvecho.scenarios import run_scenario
from nvecho.sequences import read_csv, scans
from nvecho.units import TWO_PI

SAMPLE_RATIO = 36.924 / 204.0  # slope ratio used by the reference scenarios


def _config(pipeline, **blocks):
    doc = {"schema": "nvecho-scenario/1", "name": "t", "pipeline": pipeline}
    doc.update(blocks)
    return parse_config(doc)


def test_all_packaged_scenarios_parse():
    for name in SCENARIO_NAMES:
        cfg = load_packaged_scenario(name)
        assert cfg.name == name
        assert cfg.pipeline


def test_aliases_resolve_to_fig2():
    assert load_packaged_scenario("fig2c").name == "fig2"
    assert load_packaged_scenario("fig2d").name == "fig2"
    with pytest.raises(ScenarioError, match="unknown scenario"):
        packaged_scenario_path("fig9")


def test_simulate_pipeline(tmp_path):
    cfg = _config(
        "simulate",
        sources=[{"kind": "temperature", "distribution": "lorentzian",
                  "location": "0 K", "scale": "5 K"}],
        sequence={"kind": "ramsey", "pair": [0, +1], "ms": +1,
                  "total_time": "0.1 ms"},
    )
    result = run_scenario(cfg, out_dir=tmp_path / "a", deterministic=True)
    expected = math.exp(-TWO_PI * 243.0 * 5.0 * 1e-4)
    assert result.numbers["amplitude"] == pytest.approx(expected, rel=1e-9)
    assert "amplitude" in result.summary

    path = tmp_path / "a" / "t-result.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["amplitude"] == pytest.approx(expected, rel=1e-9)
    assert "written" not in payload

    run_scenario(cfg, out_dir=tmp_path / "b", deterministic=True)
    assert (tmp_path / "b" / "t-result.json").read_text() == path.read_text()


def test_decay_compare_reference_numbers(tmp_path):
    result = run_scenario(load_packaged_scenario("fig1c"), out_dir=tmp_path,
                          deterministic=True)
    residual_rate = 1.0 / (2.0 * 1.95e-3)
    rate_u = TWO_PI * (36.924 + 204.0) * 5.0 + residual_rate
    rate_p = TWO_PI * abs(-36.924 + 0.18 * 204.0) * 5.0 + residual_rate
    assert result.numbers["unprotected_T2_s"] == pytest.approx(1.0 / rate_u, rel=1e-6)
    assert result.numbers["protected_T2_s"] == pytest.approx(1.0 / rate_p, rel=1e-6)
    assert 20 <= result.numbers["improvement"] <= 35
    assert "improvement" in result.summary

    for label in ("protected", "unprotected"):
        signal = read_csv(tmp_path / f"fig1c-{label}.csv")
        assert len(signal.y) == 28
        assert not (tmp_path / f"fig1c-{label}.json").exists()
    fits = json.loads((tmp_path / "fig1c-fits.json").read_text())
    assert fits["numbers"]["improvement"] == pytest.approx(
        result.numbers["improvement"], rel=1e-12)


def test_a_block_the_compare_step_builds_names_its_kind(tmp_path, monkeypatch):
    # a block that named no kind used to be built as a pipeline default, an
    # unbalanced echo or a Ramsey; it is reported at its kind before any compute
    calls = []
    real = sequences.simulate_family
    monkeypatch.setattr(sequences, "simulate_family",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    for name, path in (("fig1c", "sequence.kind"), ("fig1c", "sequence.compare.kind"),
                       ("fig4", "sequence.compare.kind")):
        cfg = load_packaged_scenario(name)
        sequence = copy.deepcopy(cfg.sequence)
        block = sequence["compare"] if "compare" in path else sequence
        del block["kind"]
        with pytest.raises(ConfigError) as excinfo:
            run_scenario(cfg.replace(sequence=sequence), out_dir=tmp_path / "out")
        assert excinfo.value.problems == (
            f"{path}: pipeline {cfg.pipeline!r} needs {path}",)
    assert calls == []
    assert not (tmp_path / "out").exists()
    # a swept block names none: the sweep builds unbalanced echoes
    assert "kind" not in load_packaged_scenario("fig4").sequence


def test_pulse_sweep_reference_peak(tmp_path):
    result = run_scenario(load_packaged_scenario("fig1d"), out_dir=tmp_path,
                          deterministic=True)
    assert result.numbers["argmax_flip_fraction"] == pytest.approx(0.18, abs=1e-12)
    rate_peak = TWO_PI * abs(-36.924 + 0.18 * 204.0) * 5.0 + 1.0 / (2.0 * 1.95e-3)
    assert result.numbers["peak_amplitude"] == pytest.approx(
        math.exp(-rate_peak * 1.4e-3), rel=1e-6)
    assert (tmp_path / "fig1d-sweep.csv").exists()


def test_rate_table_reference_fits(tmp_path):
    result = run_scenario(load_packaged_scenario("fig2"), out_dir=tmp_path,
                          deterministic=True)
    assert result.numbers["vee_ratio"] == pytest.approx(SAMPLE_RATIO, abs=1e-4)
    baseline = 1.0 / (2.0 * 3.9e-3)
    slope = TWO_PI * 204.0 * 5.0
    assert result.numbers["line_x_intercept"] == pytest.approx(
        -(SAMPLE_RATIO + baseline / slope), abs=1e-4)
    assert result.numbers["vee_baseline_per_s"] == pytest.approx(baseline, rel=1e-3)

    table = read_csv(tmp_path / "fig2-rates.csv")
    assert len(table.rows) == 42
    assert len(table.filter(pair=(0, -1)).rows) == 21
    fits = json.loads((tmp_path / "fig2-fits.json").read_text())
    assert "0,-1" in fits and "0,+1" in fits


def test_rate_table_keeps_every_pairs_numbers(tmp_path):
    # flipping from m_S = +1 to -1 makes both branches vees, at the slope
    # ratio's two mirror points; each pair's numbers carry its label
    doc = config_document(load_packaged_scenario("fig2"))
    doc["sequence"] |= {"ms_free": 1, "ms_flipped": -1,
                        "flip_fractions": {"start": 0.0, "stop": 1.0, "count": 21}}
    result = run_scenario(parse_config(doc), out_dir=tmp_path, deterministic=True)
    fits = json.loads((tmp_path / "fig2-fits.json").read_text())
    vertex = (204.0 - 36.924) / 408.0
    for label, ratio in (("0,-1", vertex), ("0,+1", 1.0 - vertex)):
        assert result.numbers[f"vee_ratio[{label}]"] == pytest.approx(ratio, abs=1e-4)
        for key, name in (("vee_ratio", "ratio"), ("vee_slope_per_s", "slope"),
                          ("vee_baseline_per_s", "baseline")):
            assert fits["numbers"][f"{key}[{label}]"] == fits[label]["parameters"][name]
    assert len(result.numbers) == 6


def test_rate_table_fits_a_reversed_pair(tmp_path):
    # (+1, 0) rises from f = 0 under the (0, +1) pairing: a line, not a vee
    doc = config_document(load_packaged_scenario("fig2"))
    doc["sequence"]["pairs"] = [[0, -1], [1, 0]]
    result = run_scenario(parse_config(doc), out_dir=tmp_path, deterministic=True)
    assert result.fits["+1,0"].settings["method"] == "line"
    assert set(result.numbers) == {"vee_ratio", "vee_slope_per_s", "vee_baseline_per_s",
                                   "line_ratio", "line_x_intercept"}


PROTECTION = {
    "response": {"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"},
    "sources": [{"kind": "temperature", "distribution": "lorentzian",
                 "location": "300 K", "scale": "25 K"}],
    "sequence": {
        "pair": [0, -1], "ms_free": 0, "ms_flipped": +1,
        "total_time": "2 ms",
        "flip_fractions": {"start": 0.12, "stop": 0.22, "count": 21},
        "times": {"start": "1 ms", "stop": "20 ms", "count": 9, "spacing": "log"},
        "compare": {"kind": "ramsey", "pair": [0, +1], "ms": +1,
                    "times": {"start": "2 us", "stop": "80 us", "count": 9,
                              "spacing": "log"}},
    },
    "backend": {"samples": 65536},
}


def test_protection_study_small(tmp_path):
    cfg = _config("protection_study", **PROTECTION)
    result = run_scenario(cfg, out_dir=tmp_path, deterministic=True)
    numbers = result.numbers
    assert 0.15 <= numbers["argmax_flip_fraction"] <= 0.20
    assert numbers["improvement"] > 50
    assert numbers["protected_T2_s"] > 5e-3
    assert 1e-5 < numbers["unprotected_T2_s"] < 5e-5
    # Cauchy mass clipped at T = 0 and +50 widths, reported analytically
    expected_mass = 1.0 - (math.atan(50.0) + math.atan(12.0)) / math.pi
    assert numbers["truncated_mass"] == pytest.approx(expected_mass, abs=1e-9)
    assert "truncated mass" in result.summary
    assert (tmp_path / "t-sweep.csv").exists()
    fits = json.loads((tmp_path / "t-fits.json").read_text())
    assert fits["numbers"] == numbers
    assert fits["protected"] == result.fits["protected"].as_dict()


# each packaged scenario's artifacts: a CSV per signal, one JSON document
# of its fits, or of its result where it fits nothing
ARTIFACTS = {
    "fig1c": ("fig1c-fits.json", "fig1c-protected.csv", "fig1c-unprotected.csv"),
    "fig1d": ("fig1d-result.json", "fig1d-sweep.csv"),
    "fig2": ("fig2-fits.json", "fig2-rates.csv"),
    "fig4": ("fig4-fits.json", "fig4-protected.csv", "fig4-sweep.csv", "fig4-unprotected.csv"),
    "s5": ("s5-fits.json", "s5-protected.csv", "s5-sweep.csv", "s5-unprotected.csv"),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_packaged_artifact_layout(name, tmp_path, request):
    if name in ("fig4", "s5"):
        _, result, _ = request.getfixturevalue("protection_runs")[name]
    else:
        result = run_scenario(load_packaged_scenario(name), out_dir=tmp_path, deterministic=True)
    out = result.artifacts[0].parent
    assert sorted(p.name for p in result.artifacts) == list(ARTIFACTS[name])
    assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS[name])
    if name in ("fig1c", "fig4", "s5"):  # the compare step's fits
        fits = json.loads((out / f"{name}-fits.json").read_text())
        assert sorted(fits) == ["numbers", "protected", "unprotected"]


def test_sweep_point_matches_single_simulation(tmp_path):
    blocks = {
        "response": {"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"},
        "sources": [{"kind": "temperature", "distribution": "lorentzian",
                     "location": "300 K", "scale": "25 K"}],
        "backend": {"samples": 131072},
    }
    echo = {"pair": [0, -1], "ms_free": 0, "ms_flipped": +1, "total_time": "1 ms"}
    single = run_scenario(
        _config("simulate", sequence=echo | {"kind": "unbalanced_echo", "flip_fraction": 0.17},
                **blocks),
        out_dir=tmp_path / "one", deterministic=True)
    family = run_scenario(
        _config("pulse_sweep", sequence=echo | {"flip_fractions": [0.1, 0.17, 0.25]}, **blocks),
        out_dir=tmp_path / "family", deterministic=True)
    sweep = family.signals["sweep"]
    assert sweep.y[1] == single.numbers["amplitude"]
    assert sweep.monte_carlo.std_error[1] == single.numbers["std_error"]
    assert sweep.monte_carlo.n_retained == single.numbers["n_retained"]
    # the sweep reports the sampling of its peak, here the simulated point
    assert family.numbers["argmax_flip_fraction"] == 0.17
    for key in SAMPLING:
        assert family.numbers[key] == single.numbers[key], key


SAMPLING = ("n_samples", "n_retained", "truncated_mass", "std_error")


def test_protection_study_is_the_sweep_then_the_compare_step(tmp_path):
    blocks = PROTECTION | {"backend": {"samples": 8192, "seed": 3}}
    block = blocks["sequence"]
    study = run_scenario(_config("protection_study", **blocks), out_dir=tmp_path / "study",
                         deterministic=True)
    sweep_block = {key: block[key] for key in
                   ("pair", "ms_free", "ms_flipped", "total_time", "flip_fractions")}
    sweep = run_scenario(_config("pulse_sweep", **blocks | {"sequence": sweep_block}),
                         out_dir=tmp_path / "sweep", deterministic=True)
    compare_block = {key: block[key] for key in ("pair", "ms_free", "ms_flipped", "times",
                                                 "compare")}
    compare_block |= {"kind": "unbalanced_echo",
                      "flip_fraction": sweep.numbers["argmax_flip_fraction"]}
    compare = run_scenario(_config("decay_compare", **blocks | {"sequence": compare_block}),
                           out_dir=tmp_path / "compare", deterministic=True)

    fragments = [run.summary.removeprefix("t: ") for run in (sweep, compare)]
    assert study.summary == "t: " + ", ".join(fragments)
    assert "truncated mass" in fragments[0]
    assert study.numbers == sweep.numbers | compare.numbers
    # a Monte Carlo sweep writes the sampling of its peak, as the study does
    written = json.loads((tmp_path / "sweep" / "t-result.json").read_text())
    for key in SAMPLING:
        assert sweep.numbers[key] == written[key] == study.numbers[key], key


def test_pipeline_and_block_errors(tmp_path):
    # run_scenario refuses a hand-built config its pipeline cannot run, before
    # any compute, with the problems parse_config reports for its YAML
    times = tuple(k * 1e-3 for k in range(1, 9))
    cases = (
        ("renormalize", {}, "pipeline"),
        ("decay_compare", {"kind": "unbalanced_echo", "flip_fraction": 0.18, "times": times,
                           "compare": {"kind": "ramsey"}}, "sequence.compare.times"),
        ("decay_compare", {"flip_fraction": 0.18, "times": times,
                           "compare": {"kind": "ramsey", "times": times}}, "sequence.kind"),
        ("pulse_sweep", {"flip_fractions": (0.1, 0.2)}, "sequence.total_time"),
        ("rate_table_vee", {"flip_fractions": (0.1, 0.2), "times": times}, "sequence.pairs"),
        ("rate_table_vee", {"pairs": ((0, -1),), "flip_fractions": (0.1, 0.2), "times": ()},
         "sequence.times"),
        ("rate_table_vee", {"pairs": ((0, -1),), "flip_fractions": (0.1, 0.2),
                            "times": times[:3]}, "sequence.times"),
    )
    for pipeline, sequence, path in cases:
        built = ScenarioConfig(name="t", pipeline=pipeline, sequence=sequence)
        with pytest.raises(ConfigError) as excinfo:
            run_scenario(built, out_dir=tmp_path / "out")
        assert [p.split(": ")[0] for p in excinfo.value.problems] == [path]
        with pytest.raises(ConfigError) as parsed:
            parse_config(dump_config(built))
        assert parsed.value.problems == excinfo.value.problems
    # the overrides leave a backend block that is no mapping to the parse
    built = ScenarioConfig(name="t", pipeline="simulate",
                           sequence={"kind": "ramsey", "total_time": 1e-3}, backend=[4096])
    for overrides in ({}, {"samples": 4096}):
        with pytest.raises(ConfigError, match="backend: must be a mapping"):
            run_scenario(built, out_dir=tmp_path / "out", **overrides)
    assert not (tmp_path / "out").exists()


def test_a_run_loads_its_response_file_once(tmp_path, monkeypatch):
    # a run parses its config, overrides merged, once: one model build
    document = config_document(load_packaged_scenario("fig4"))
    document["backend"] = document.get("backend", {}) | {"samples": 4096}
    cfg = parse_config(document)
    loads = []
    real = config.load_response_set
    monkeypatch.setattr(config, "load_response_set",
                        lambda *args: loads.append(args) or real(*args))
    for overrides in ({}, {"samples": 2048, "seed": 7}):
        loads.clear()
        result = run_scenario(cfg, out_dir=tmp_path / str(len(overrides)), deterministic=True,
                              **overrides)
        assert len(loads) == 1
        assert result.numbers["n_samples"] == overrides.get("samples", 4096)


def test_models_follow_a_config_changed_after_parsing(tmp_path):
    cfg = load_packaged_scenario("fig1d")
    source = build(cfg)[1].sources[0]
    cfg.sources[0]["scale"] *= 2
    assert build(cfg)[1].sources[0].distribution.scale == 2 * source.distribution.scale
    assert build(cfg.replace(sources=()))[1].sources == ()
    # a block changed in place is checked again before any compute
    cfg.sequence["total_time"] = -1.0
    with pytest.raises(ConfigError, match="sequence.total_time"):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_hand_built_numpy_values_run(tmp_path):
    cfg = load_packaged_scenario("fig1d")
    built = cfg.replace(sequence=cfg.sequence | {
        "total_time": np.float64(cfg.sequence["total_time"]),
        "flip_fractions": realize_grid(cfg.sequence["flip_fractions"])})
    assert (run_scenario(built, out_dir=tmp_path / "numpy").numbers
            == run_scenario(cfg, out_dir=tmp_path / "parsed").numbers)


def test_missing_times_computes_nothing(tmp_path, monkeypatch):
    calls = []
    real = noise.monte_carlo_attenuation
    monkeypatch.setattr(noise, "monte_carlo_attenuation",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    complete = _config("protection_study", **PROTECTION)
    built = complete.replace(sequence={
        k: v for k, v in complete.sequence.items() if k != "times"})
    with pytest.raises(ValueError, match="sequence.times") as excinfo:
        run_scenario(built, out_dir=tmp_path)
    assert calls == []
    assert excinfo.type is ConfigError
    with pytest.raises(ConfigError, match="sequence.times: pipeline 'protection_study' needs"):
        parse_config(dump_config(built))


LINEAR_SOURCES = [{"kind": "temperature", "distribution": "lorentzian",
                   "location": "0 K", "scale": "5 K"}]

MC_COMPARE = {
    "response": PROTECTION["response"],
    "sources": PROTECTION["sources"],
    "sequence": {key: PROTECTION["sequence"][key]
                 for key in ("pair", "ms_free", "ms_flipped", "times", "compare")}
    | {"kind": "unbalanced_echo", "flip_fraction": 0.172},
    "backend": {"samples": 65536 + 17, "seed": 7},  # a partial last chunk
}


@pytest.mark.parametrize("name", ["monte_carlo", "closed_form"])
def test_compare_step_is_one_family_equal_to_two_scans(tmp_path, monkeypatch, name):
    cfg = (_config("decay_compare", **MC_COMPARE) if name == "monte_carlo"
           else load_packaged_scenario("fig1c"))
    families = []
    real_family = sequences.simulate_family
    monkeypatch.setattr(sequences, "simulate_family", lambda family, *args, **kwargs: (
        families.append(len(family)) or real_family(family, *args, **kwargs)))
    signals = run_scenario(cfg, out_dir=tmp_path, deterministic=True).signals
    blocks = {"protected": cfg.sequence, "unprotected": cfg.sequence["compare"]}
    assert families == [sum(len(realize_grid(block["times"])) for block in blocks.values())]
    models = build(cfg)[1]
    for label, block in blocks.items():
        kind = block["kind"]
        [alone] = scans([(kind, KINDS[kind].read(block), "total_time",
                          realize_grid(block["times"]))], models.sources,
                        params=models.spin, n_samples=cfg.backend["samples"],
                        seed=cfg.backend["seed"])
        fused = signals[label]
        assert type(fused.x) is type(fused.y) is type(alone.x) is type(alone.y) is list
        assert [v.hex() for v in fused.x] == [v.hex() for v in alone.x]
        assert [v.hex() for v in fused.y] == [v.hex() for v in alone.y]
        assert fused.metadata == alone.metadata
        assert (fused.monte_carlo is None) == (alone.monte_carlo is None) == (name != "monte_carlo")
        if fused.monte_carlo is not None:
            mc, mc_alone = fused.monte_carlo, alone.monte_carlo
            assert mc.attenuation.tobytes() == mc_alone.attenuation.tobytes()
            assert mc.std_error.tobytes() == mc_alone.std_error.tobytes()
            assert (mc.n_samples, mc.n_retained, mc.truncated_mass) == (
                mc_alone.n_samples, mc_alone.n_retained, mc_alone.truncated_mass)


def test_rate_table_is_one_family_per_pair(tmp_path, monkeypatch):
    families = []
    real_family = sequences.simulate_family
    monkeypatch.setattr(sequences, "simulate_family", lambda family, *args, **kwargs: (
        families.append(len(family)) or real_family(family, *args, **kwargs)))
    cfg = load_packaged_scenario("fig2")
    result = run_scenario(cfg, out_dir=tmp_path, deterministic=True)
    assert families == [21 * 16, 21 * 16]
    # each row of the table is bit-identical to its own decay scan
    table = read_csv(tmp_path / "fig2-rates.csv")
    times = realize_grid(cfg.sequence["times"])
    models = build(cfg)[1]
    for row in table.rows[::10]:
        [scan] = scans([("unbalanced_echo", {"flip_fraction": row.tau_over_t, "pair": row.pair},
                         "total_time", times)], models.sources, params=models.spin)
        assert row.rate == 1.0 / fit_exponential(scan.x, scan.y)["coherence_time"]
    assert "vee ratio" in result.summary


def test_simulate_builds_a_kind(tmp_path):
    kind = _config("simulate", sources=LINEAR_SOURCES,
                   sequence={"kind": "unbalanced_echo", "pair": [0, -1],
                             "total_time": "1 ms", "flip_fraction": 0.25})
    seq = build_sequence("unbalanced_echo", kind.sequence["total_time"],
                         **KINDS["unbalanced_echo"].read(kind.sequence))
    assert seq.segments[1].duration / seq.total_time == pytest.approx(0.25, rel=1e-12)
    # a run's numbers are member 0 of its sequence's family of one, bit for bit
    hot = _config("simulate", response=PROTECTION["response"], sources=PROTECTION["sources"],
                  sequence={"kind": "ramsey", "total_time": "20 us"},
                  backend={"samples": 4096 + 17, "seed": 7})
    runs = ((kind, seq), (hot, build_sequence("ramsey", hot.sequence["total_time"])))
    for cfg, sequence in runs:
        numbers = run_scenario(cfg, out_dir=tmp_path / "runs", deterministic=True).numbers
        models = build(cfg)[1]
        family = sequences.simulate_family([sequence], models.sources, params=models.spin,
                                           n_samples=cfg.backend["samples"],
                                           seed=cfg.backend["seed"])
        assert numbers["amplitude"] == family.amplitude[0]
        assert numbers["base_phase_rad"] == family.base_phase[0]
        assert ("std_error" in numbers) == (family.monte_carlo is not None) == (cfg is hot)
        if cfg is hot:
            assert numbers["std_error"] == family.monte_carlo.std_error[0]
            assert numbers["n_retained"] == family.monte_carlo.n_retained
    # blocks it cannot build are refused when the config is parsed
    with pytest.raises(ConfigError, match="sequence.flip_fraction: kind unbalanced_echo needs"):
        _config("simulate", sequence={"kind": "unbalanced_echo", "total_time": "1 ms"})
    with pytest.raises(ConfigError, match=r"pipeline 'simulate' needs sequence\.kind$"):
        _config("simulate", sequence={"total_time": "1 ms"})
    with pytest.raises(ConfigError, match=r"pipeline 'simulate' needs sequence\.total_time$"):
        _config("simulate", sequence={"kind": "ramsey"})


def test_deterministic_csv_is_byte_identical(tmp_path):
    cfg = load_packaged_scenario("fig1d")
    run_scenario(cfg, out_dir=tmp_path / "one", deterministic=True)
    run_scenario(cfg, out_dir=tmp_path / "two", deterministic=True)
    first = (tmp_path / "one" / "fig1d-sweep.csv").read_text()
    second = (tmp_path / "two" / "fig1d-sweep.csv").read_text()
    assert first == second
