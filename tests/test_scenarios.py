"""Scenario pipelines: packaged configs, artifacts, and key numbers."""

import json
import math

import pytest

from nvecho.config import parse_config
from nvecho.estimator import RateTable
from nvecho.scenarios import (
    SCENARIO_NAMES,
    ScenarioError,
    build_sequence_from_block,
    load_packaged_scenario,
    packaged_scenario_path,
    run_scenario,
)
from nvecho.sequences import read_signal_csv
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
        signal = read_signal_csv(tmp_path / f"fig1c-{label}.csv")
        assert signal.y.shape == (28,)
        assert (tmp_path / f"fig1c-{label}.json").exists()
    fits = json.loads((tmp_path / "fig1c-fits.json").read_text())
    assert fits["numbers"]["improvement"] == pytest.approx(
        result.numbers["improvement"], rel=1e-12)


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

    table = RateTable.read_csv(tmp_path / "fig2-rates.csv")
    assert len(table.rows) == 42
    assert len(table.filter(pair=(0, -1)).rows) == 21
    fits = json.loads((tmp_path / "fig2-fits.json").read_text())
    assert "0,-1" in fits and "0,+1" in fits


def test_protection_study_small(tmp_path):
    cfg = _config(
        "protection_study",
        response={"model": "quasiharmonic", "data_file": "quasiharmonic_default.yaml"},
        sources=[{"kind": "temperature", "distribution": "lorentzian",
                  "location": "300 K", "scale": "25 K"}],
        sequence={
            "pair": [0, -1], "ms_free": 0, "ms_flipped": +1,
            "total_time": "2 ms",
            "flip_fractions": {"start": 0.12, "stop": 0.22, "count": 21},
            "times": {"start": "1 ms", "stop": "20 ms", "count": 9, "spacing": "log"},
            "compare": {"kind": "ramsey", "pair": [0, +1], "ms": +1,
                        "times": {"start": "2 us", "stop": "80 us", "count": 9,
                                  "spacing": "log"}},
        },
        backend={"samples": 65536},
    )
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
    assert (tmp_path / "t-result.json").exists()


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


def test_pipeline_and_block_errors(tmp_path):
    with pytest.raises(ScenarioError, match="unknown pipeline"):
        run_scenario(_config("renormalize"), out_dir=tmp_path)
    with pytest.raises(ScenarioError, match="compare"):
        run_scenario(_config(
            "decay_compare",
            sequence={"kind": "unbalanced_echo", "flip_fraction": 0.18,
                      "times": ["1 ms", "2 ms", "3 ms"]},
        ), out_dir=tmp_path)
    with pytest.raises(ScenarioError, match="total_time"):
        run_scenario(_config(
            "pulse_sweep", sequence={"flip_fractions": [0.1, 0.2]},
        ), out_dir=tmp_path)
    with pytest.raises(ScenarioError, match="pair"):
        run_scenario(_config(
            "rate_table_vee",
            sequence={"flip_fractions": [0.1, 0.2],
                      "times": ["1 ms", "2 ms"]},
        ), out_dir=tmp_path)


def test_build_sequence_from_block():
    seq = build_sequence_from_block({"script": "pair 0 -1\nevolve 1ms ms=0\n"})
    assert seq.kind == "ramsey"
    seq = build_sequence_from_block({"kind": "unbalanced_echo", "pair": (0, -1),
                                     "total_time": 1e-3, "flip_fraction": 0.25})
    assert seq.flip_fraction == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ScenarioError, match="flip_fraction"):
        build_sequence_from_block({"kind": "unbalanced_echo", "total_time": 1e-3})
    with pytest.raises(ScenarioError, match="kind or a script"):
        build_sequence_from_block({"total_time": 1e-3})


def test_deterministic_csv_is_byte_identical(tmp_path):
    cfg = load_packaged_scenario("fig1d")
    run_scenario(cfg, out_dir=tmp_path / "one", deterministic=True)
    run_scenario(cfg, out_dir=tmp_path / "two", deterministic=True)
    first = (tmp_path / "one" / "fig1d-sweep.csv").read_text()
    second = (tmp_path / "two" / "fig1d-sweep.csv").read_text()
    assert first == second
