"""Command-line interface: subcommands, exit codes, artifact determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nvecho.cli import main
from nvecho.estimator import RateTable
from nvecho.noise import lorentzian, temperature_source
from nvecho.response import DEFAULT_DATA_FILE, load_response_set
from nvecho.scenarios import packaged_scenario_path
from nvecho.script import parse_sequence_script
from nvecho.sequences import (
    EnsembleSignal,
    build_unbalanced_echo,
    phase_sweep,
    read_signal_csv,
    scans,
    simulate_amplitude,
    write_signal_csv,
)
from nvecho.units import TWO_PI

SIMULATE_YAML = """\
schema: nvecho-scenario/1
name: cli-sim
pipeline: simulate
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: 5 K
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  flip_fraction: 0.18
  total_time: 1.4 ms
output:
  directory: out
"""

# a quasiharmonic temperature source, so the run goes through Monte Carlo
MC_YAML = """\
schema: nvecho-scenario/1
name: cli-mc
pipeline: simulate
response:
  model: quasiharmonic
  data_file: quasiharmonic_default.yaml
sources:
  - kind: temperature
    distribution: lorentzian
    location: 300 K
    scale: 5 K
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  flip_fraction: 0.18
  total_time: 1.4 ms
backend:
  samples: 65536
  seed: 7
output:
  directory: out
"""

COMPARE_YAML = """\
schema: nvecho-scenario/1
name: cli-cmp
pipeline: decay_compare
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: 5 K
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  flip_fraction: 0.18
  times: {start: 50 us, stop: 15 ms, count: 12, spacing: log}
  compare:
    kind: ramsey
    pair: [0, +1]
    ms: +1
    times: {start: 10 us, stop: 500 us, count: 12, spacing: log}
output:
  directory: out
"""

SWEEP_YAML = """\
schema: nvecho-scenario/1
name: cli-sweep
pipeline: pulse_sweep
response:
  model: linear
  quadrupole_per_K: 36.924 Hz/K
  hyperfine_per_K: 204 Hz/K
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: 5 K
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  total_time: 1.4 ms
  flip_fractions: {start: 0.0, stop: 0.5, count: 26, spacing: linear}
output:
  directory: out
"""

RATES_YAML = """\
schema: nvecho-scenario/1
name: cli-rates
pipeline: rate_table_vee
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: 5 K
  - kind: residual_field
    dq_coherence_time: 3.9 ms
sequence:
  pair: [0, -1]
  flip_fractions: {start: 0.05, stop: 0.35, count: 7}
  times: {start: 50 us, stop: 2 ms, count: 12, spacing: log}
output:
  directory: out
"""

BROKEN_YAML = """\
schema: nvecho-scenario/1
name: cli-broken
pipeline: simulate
sources:
  - kind: temperature
    distribution: lorentzian
    location: 0 K
    scale: -1 K
sequence:
  kind: ramsey
  pair: [0, -1]
  total_time: 1 ms
backend:
  method: quantum
output:
  directory: out
"""

SCRIPT_TEXT = """\
# fig-style protection sequence
pair 0 -1
evolve 1.148ms ms=0
flip-e ms=+1
evolve 252us ms=+1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------ parse-seq

def test_parse_seq_prints_canonical_form_and_kind(tmp_path, capsys):
    path = _write(tmp_path, "seq.txt", SCRIPT_TEXT)
    assert main(["parse-seq", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pair 0 -1" in out
    assert "evolve 0.001148s ms=0" in out
    assert "flip-e ms=+1" in out
    assert out.rstrip().endswith("# kind: unbalanced_echo")
    # the printed form is itself a parseable script equal to the original
    assert parse_sequence_script(out) == parse_sequence_script(SCRIPT_TEXT)


def test_parse_seq_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("pair 0 -1\nevolve 1ms ms=0\n"))
    assert main(["parse-seq", "-"]) == 0
    assert "# kind: ramsey" in capsys.readouterr().out


def test_parse_seq_reports_line_and_column(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "pair 0 -1\nevolve -1ms ms=0\n")
    assert main(["parse-seq", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 8" in err
    assert "-1ms" in err


def test_parse_seq_missing_file(tmp_path, capsys):
    assert main(["parse-seq", str(tmp_path / "nope.txt")]) == 2
    assert "nope.txt" in capsys.readouterr().err


# ------------------------------------------------------------------ simulate

def test_simulate_runs_and_prints_one_line_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.yaml", SIMULATE_YAML)
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cli-sim:")
    assert (out_dir / "cli-sim-result.json").exists()


def test_simulate_runs_pulse_sweep(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.yaml", SWEEP_YAML)
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("cli-sweep:")
    assert "0.18" in summary
    assert (out_dir / "cli-sweep-sweep.csv").exists()


def test_simulate_runs_rate_table_vee(tmp_path, capsys):
    cfg = _write(tmp_path, "rates.yaml", RATES_YAML)
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir), "--deterministic"]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("cli-rates: vee ratio 0.19")
    table = RateTable.read_csv(out_dir / "cli-rates-rates.csv")
    assert len(table.rows) == 7
    assert table.metadata["scenario"] == "cli-rates"


def test_sweep_subcommand_is_gone(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.yaml", SWEEP_YAML)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(cfg)])
    assert exc.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def test_config_problems_reported_before_compute(tmp_path, capsys):
    cfg = _write(tmp_path, "broken.yaml", BROKEN_YAML)
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "sources[0].scale" in err
    assert "backend.method" in err
    assert not out_dir.exists()


def test_deterministic_runs_are_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "cmp.yaml", COMPARE_YAML)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["simulate", str(cfg), "--out", str(d), "--deterministic"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_matches_sweep_point_bit_for_bit(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.yaml", MC_YAML)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "one"),
                 "--deterministic"]) == 0
    single = json.loads((tmp_path / "one" / "cli-mc-result.json").read_text())
    sweep_yaml = (MC_YAML.replace("pipeline: simulate", "pipeline: pulse_sweep")
                  .replace("flip_fraction: 0.18", "flip_fractions: [0.1, 0.18, 0.3]"))
    cfg = _write(tmp_path, "sweep.yaml", sweep_yaml)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "family"),
                 "--deterministic"]) == 0
    signal = read_signal_csv(tmp_path / "family" / "cli-mc-sweep.csv")
    assert signal.y[1] == single["amplitude"]


def test_workers_flag_is_gone(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.yaml", MC_YAML)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(cfg), "--workers", "2"])
    assert exc.value.code == 2


def test_samples_and_seed_overrides_reach_backend(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.yaml", MC_YAML)
    out_dir = tmp_path / "artifacts"
    rc = main(["simulate", str(cfg), "--out", str(out_dir), "--deterministic",
               "--samples", "32768", "--seed", "99"])
    assert rc == 0
    doc = json.loads((out_dir / "cli-mc-result.json").read_text())
    assert doc["n_samples"] == 32768
    assert doc["n_retained"] <= 32768
    seed_7 = tmp_path / "seed7"
    assert main(["simulate", str(cfg), "--out", str(seed_7), "--deterministic",
                 "--samples", "32768"]) == 0
    assert json.loads((seed_7 / "cli-mc-result.json").read_text())["amplitude"] != doc["amplitude"]


def test_invalid_overrides_fail_before_compute(tmp_path, capsys):
    # checked like the backend block, whether or not the run samples at all
    out_dir = tmp_path / "artifacts"
    for args, problem in ((["reproduce", "fig1d", "--samples", "0"],
                           "backend.samples: must be a positive integer"),
                          (["reproduce", "fig4", "--seed", "-1"],
                           "backend.seed: must be a non-negative integer")):
        assert main(args + ["--out", str(out_dir)]) == 2
        assert problem in capsys.readouterr().err
        assert not out_dir.exists()


# -------------------------------------------------------------------- fit

def _decay_csv(tmp_path):
    times = np.geomspace(50e-6, 2e-3, 12)
    source = temperature_source(lorentzian(0.0, 5.0))
    [signal] = scans([("ramsey", {}, "total_time", times)], [source])
    path = tmp_path / "decay.csv"
    write_signal_csv(signal, path, deterministic=True)
    return path


def test_fit_autodetects_exponential_and_writes_json(tmp_path, capsys):
    csv = _decay_csv(tmp_path)
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv), "--out", str(out), "--deterministic"]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "exponential"
    expected_t2 = 1.0 / (TWO_PI * 39.0 * 5.0)
    assert doc["parameters"]["coherence_time"] == pytest.approx(expected_t2, rel=1e-6)
    assert doc["settings"]["skip_initial"] == 3
    assert "written" not in doc
    summary = capsys.readouterr().out.strip()
    assert summary.count("\n") == 0
    assert "coherence_time" in summary


def test_fit_json_to_stdout_when_no_out(tmp_path, capsys):
    csv = _decay_csv(tmp_path)
    assert main(["fit", str(csv), "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "exponential"


def test_fit_skip_option_is_recorded(tmp_path, capsys):
    csv = _decay_csv(tmp_path)
    assert main(["fit", str(csv), "--skip", "5", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["settings"]["skip_initial"] == 5
    assert doc["points_used"] == 7


def test_fit_autodetects_cosine(tmp_path, capsys):
    seq = build_unbalanced_echo(1.4e-3, 0.18 * 1.4e-3)
    source = temperature_source(lorentzian(0.0, 5.0))
    phases = np.linspace(0.0, 2.0 * math.pi, 25)
    signal = phase_sweep(seq, [source], phases, contrast=0.8, maximum=1.0)
    path = tmp_path / "fringe.csv"
    write_signal_csv(signal, path, deterministic=True)
    assert main(["fit", str(path), "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cosine"
    res = simulate_amplitude(seq, [source])
    assert doc["parameters"]["contrast"] == pytest.approx(0.8 * res.amplitude, rel=1e-9)
    wrapped = math.remainder(doc["parameters"]["phase"] - res.base_phase, 2.0 * math.pi)
    assert abs(wrapped) < 1e-9


def test_fit_refuses_non_finite_data(tmp_path, capsys):
    # a NaN amplitude used to exit 0 with a fit of NaNs (not JSON), and a NaN
    # rate to exit 1 as if the table held no vee
    phases = np.linspace(0.0, 2.0 * math.pi, 25)
    fringe = 0.6 + 0.4 * np.cos(phases)
    fringe[3] = math.nan
    path = tmp_path / "fringe.csv"
    write_signal_csv(EnsembleSignal(phases, fringe, "readout_phase_rad", "population"), path,
                     deterministic=True)
    rates = _rate_csv(tmp_path)
    rates.write_text(rates.read_text().replace(",807.5381,", ",nan,"))
    for args, problem in (([path], "signal[3] is nan"),
                          ([rates, "--pair", "0,-1"], "rates must be positive and finite")):
        assert main(["fit", *map(str, args), "--deterministic"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and problem in err


def _rate_csv(tmp_path, both_branches=False):
    table = RateTable()
    slope, ratio, baseline = 6408.85, 0.181, 128.2
    for x in np.linspace(0.05, 0.35, 13):
        table.add((0, -1), (0, 1), x, slope * abs(x - ratio) + baseline)
        if both_branches:
            table.add((0, 1), (0, 1), x, slope * (x + 0.2) + baseline)
    path = tmp_path / "rates.csv"
    table.write_csv(path, deterministic=True)
    return path


def test_fit_autodetects_vee_table(tmp_path, capsys):
    csv = _rate_csv(tmp_path)
    assert main(["fit", str(csv), "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "vee"
    assert doc["parameters"]["ratio"] == pytest.approx(0.181, rel=1e-6)
    assert doc["parameters"]["baseline"] == pytest.approx(128.2, rel=1e-6)


def test_fit_vee_pair_filter_selects_branch(tmp_path, capsys):
    csv = _rate_csv(tmp_path, both_branches=True)
    assert main(["fit", str(csv), "--pair", "0,-1", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["ratio"] == pytest.approx(0.181, rel=1e-6)


def test_fit_vee_mixed_table_without_filter_fails(tmp_path, capsys):
    csv = _rate_csv(tmp_path, both_branches=True)
    assert main(["fit", str(csv), "--deterministic"]) != 0
    assert "pair" in capsys.readouterr().err


def test_fit_refuses_flags_its_model_does_not_read(tmp_path, capsys):
    decay, rates = _decay_csv(tmp_path), _rate_csv(tmp_path)
    for args, problem in (([rates, "--skip", "7"], "--skip applies to an exponential fit"),
                          ([decay, "--pair", "0,-1"], "--pair and --ms-pairing apply to a vee"),
                          ([decay, "--ms-pairing", "0,1"], "--pair and --ms-pairing"),
                          ([rates, "--kind", "exponential", "--pair", "0,-1"], "--pair")):
        out = tmp_path / "fit.json"
        assert main(["fit", str(args[0]), *args[1:], "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


def test_fit_method_flag_is_gone(tmp_path, capsys):
    # the branch geometry of the filtered table decides vee or line
    csv = _rate_csv(tmp_path, both_branches=True)
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(csv), "--method", "vee"])
    assert exc.value.code == 2
    assert main(["fit", str(csv), "--pair", "0,1", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["settings"]["method"] == "line"


def test_fit_robust_flag_is_gone(tmp_path, capsys):
    # the vee fit is plain least squares; its soft-L1 option is gone
    csv = _rate_csv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(csv), "--robust"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["fit", str(csv), "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["settings"] == {"method": "vee"}


def test_fit_nonconverging_decay_exits_1(tmp_path, capsys):
    # after the skip, one point at 1 and the rest near 0: the least-squares
    # minimum runs off to T2 -> 0, so the fit reports an error, not numbers
    times = np.arange(1.0, 9.0) * 1e-4
    amplitudes = np.array([1.0, 1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3, -1e-3])
    path = tmp_path / "runaway.csv"
    write_signal_csv(EnsembleSignal(times, amplitudes, "total_time_s", "amplitude"), path,
                     deterministic=True)
    assert main(["fit", str(path)]) == 1
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert captured.out == ""


def test_fit_rejects_undetectable_csv(tmp_path, capsys):
    source = temperature_source(lorentzian(0.0, 5.0))
    [signal] = scans([("unbalanced_echo", {"total_time": 1.4e-3}, "flip_fraction",
                       np.linspace(0, 0.5, 6))], [source])
    path = tmp_path / "sweep.csv"
    write_signal_csv(signal, path, deterministic=True)
    assert main(["fit", str(path)]) == 2
    assert "--kind" in capsys.readouterr().err


def test_fit_failure_exits_one(tmp_path, capsys):
    times = np.linspace(1e-4, 1e-3, 10)
    from nvecho.sequences import EnsembleSignal

    rising = EnsembleSignal(x=times, y=np.linspace(0.1, 1.0, 10),
                            x_label="total_time_s", y_label="amplitude")
    path = tmp_path / "rising.csv"
    write_signal_csv(rising, path, deterministic=True)
    assert main(["fit", str(path)]) == 1
    assert "decay" in capsys.readouterr().err


def _assert_usage_error(capsys, argv, problem):
    # bad input is reported on one error line with exit 2, not a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert "Traceback" not in err


def test_config_that_is_not_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [x\n")
    _assert_usage_error(capsys, ["simulate", str(path)], "not valid YAML")


# a strain source on a quasiharmonic response read from set.yaml
STRAIN_ON_FILE_YAML = """\
schema: nvecho-scenario/1
name: cli-strain-file
pipeline: simulate
response:
  model: quasiharmonic
  data_file: set.yaml
sources:
  - kind: strain
    distribution: gaussian
    location: 0.0
    scale: 1.0e-6
sequence:
  kind: unbalanced_echo
  pair: [0, -1]
  flip_fraction: 0.18
  total_time: 1.4 ms
"""


def _without_base_value(doc):
    del doc["models"]["quadrupole"]["base_value_Hz"]
    return yaml.safe_dump(doc)


@pytest.mark.parametrize("text, problem", [
    (lambda doc: yaml.safe_dump({**doc, "models": {}}), "lacks 'quadrupole'"),
    (lambda doc: "schema: [oops\n", "is not valid YAML"),
    (_without_base_value, "lacks 'base_value_Hz'"),
    (lambda doc: "- 1\n- 2\n", "not a mapping of schema nvecho-response/1"),
    (lambda doc: yaml.safe_dump({**doc, "strain": {**doc["strain"],
                                                   "quadrupole_per_GPa_Hz": math.nan}}),
     "quadrupole_per_strain must be finite"),
], ids=["no-models", "not-yaml", "no-base-value", "top-level-list", "nan-strain-slope"])
def test_response_data_file_problems_exit_2_before_compute(tmp_path, capsys, text, problem):
    # each used to exit 1 with a traceback, or 0 with an amplitude of nan
    (tmp_path / "set.yaml").write_text(text(yaml.safe_load(DEFAULT_DATA_FILE.read_text())))
    cfg = _write(tmp_path, "strain.yaml", STRAIN_ON_FILE_YAML)
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "response.data_file" in err and problem in err and str(tmp_path / "set.yaml") in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_fit_short_row_exits_2(tmp_path, capsys):
    for path in (_decay_csv(tmp_path), _rate_csv(tmp_path)):
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        _assert_usage_error(capsys, ["fit", str(path)], "row has 1 fields")
    # a field that is not a number is named with its file and line
    for write, column, problem in ((_decay_csv, 1, "amplitude 'abc'"),
                                   (_rate_csv, 0, "pair_reference 'x'"),
                                   (_rate_csv, 6, "rate_error 'x'")):
        path = write(tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[column] = problem.split("'")[1]
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        _assert_usage_error(capsys, ["fit", str(path)],
                            f"{path}:{len(lines)}: {problem} is not a number")


def test_negative_absolute_temperature_exits_2_before_compute(tmp_path, capsys):
    # used to exit 2 from inside the run, after the output directory was made
    doc = yaml.safe_load(packaged_scenario_path("fig4").read_text())
    doc["sources"][0]["location"] = "-20 K"
    doc["backend"]["samples"] = 4096
    cfg = _write(tmp_path, "cold.yaml", yaml.safe_dump(doc))
    out_dir = tmp_path / "artifacts"
    _assert_usage_error(capsys, ["simulate", str(cfg), "--out", str(out_dir)],
                        "sources[0]: an absolute temperature location must be >= 0 K")
    assert not out_dir.exists()


def test_fit_metadata_that_is_not_yaml_exits_2(tmp_path, capsys):
    path = _decay_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "# backend: [oops", *lines[1:]]) + "\n")
    _assert_usage_error(capsys, ["fit", str(path)], "'backend' is not valid YAML")


@pytest.mark.parametrize("table, kind, problem", [
    ("signal", "vee", "not a rate-table file"),
    ("rates", "exponential", "not a signal file"),
    ("rates", "cosine", "not a signal file"),
])
def test_fit_refuses_a_file_of_the_other_schema(tmp_path, capsys, table, kind, problem):
    path = _decay_csv(tmp_path) if table == "signal" else _rate_csv(tmp_path)
    _assert_usage_error(capsys, ["fit", str(path), "--kind", kind], problem)


# -------------------------------------------------------- calibrate-response

def test_calibrate_response_writes_loadable_set(tmp_path, capsys):
    out = tmp_path / "cal.yaml"
    assert main(["calibrate-response", "--out", str(out), "--deterministic"]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.count("\n") == 0
    loaded = load_response_set(out)
    assert loaded.quadrupole.slope_at(300.0) == pytest.approx(TWO_PI * 39.0, rel=1e-9)
    assert loaded.zfs.slope_at(300.0) == pytest.approx(-TWO_PI * 77.7e3, rel=1e-9)


def test_calibrate_response_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.yaml", tmp_path / "b.yaml"]
    for p in paths:
        assert main(["calibrate-response", "--out", str(p), "--deterministic"]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_packaged_response_set_is_the_default_calibration(tmp_path):
    # the packaged data file is calibrate-response's output plus the date of
    # its calibration
    out = tmp_path / "cal.yaml"
    assert main(["calibrate-response", "--out", str(out), "--deterministic"]) == 0
    lines = DEFAULT_DATA_FILE.read_text().splitlines(keepends=True)
    dated = [line for line in lines if line.startswith("  date: ")]
    assert len(dated) == 1
    assert out.read_text() == "".join(line for line in lines if line not in dated)


def test_calibrate_response_zero_quadrupole_slope_exits_2(tmp_path, capsys):
    out = tmp_path / "cal.yaml"
    _assert_usage_error(capsys, ["calibrate-response", "--out", str(out),
                                 "--quadrupole-slope", "0Hz/K"], "quadrupole slope")
    assert not out.exists()


def test_calibrate_response_custom_slope(tmp_path, capsys):
    out = tmp_path / "cal.yaml"
    rc = main(["calibrate-response", "--out", str(out), "--deterministic",
               "--quadrupole-slope", "36.924 Hz/K"])
    assert rc == 0
    loaded = load_response_set(out)
    assert loaded.quadrupole.slope_at(300.0) == pytest.approx(TWO_PI * 36.924, rel=1e-9)


# ----------------------------------------------------------------- reproduce

def test_reproduce_fig1d_reports_optimum(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    rc = main(["reproduce", "fig1d", "--out", str(out_dir), "--deterministic"])
    assert rc == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("fig1d:")
    assert "0.18" in summary
    assert (out_dir / "fig1d-sweep.csv").exists()


def test_reproduce_accepts_figure_aliases(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    rc = main(["reproduce", "fig2c", "--out", str(out_dir), "--deterministic"])
    assert rc == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("fig2:")
    assert (out_dir / "fig2-rates.csv").exists()


def test_reproduce_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "fig99"])
    assert err.value.code == 2
    assert "fig99" in capsys.readouterr().err


# -------------------------------------------------------------- entry points

def test_module_invocation_smoke(tmp_path):
    script = tmp_path / "seq.txt"
    script.write_text("pair 0 -1\nevolve 1ms ms=0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nvecho.cli", "parse-seq", str(script)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "# kind: ramsey" in proc.stdout


COLD_START = """\
import sys

import nvecho
from nvecho.cli import main
from nvecho.scenarios import SCENARIO_NAMES, load_packaged_scenario

for name in SCENARIO_NAMES:
    load_packaged_scenario(name)
assert main(["parse-seq", sys.argv[1]]) == 0
assert main(["reproduce", "fig1d", "--out", sys.argv[2], "--deterministic"]) == 0
assert main(["fit", sys.argv[3], "--deterministic"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print("scipy modules:", loaded)
assert not loaded
"""


def test_cold_start_leaves_scipy_unloaded(tmp_path):
    # the package, the configs, the runs, the fits and the script parser
    # import no scipy module
    script = tmp_path / "seq.txt"
    script.write_text("pair 0 -1\nevolve 1ms ms=0\n")
    csv = _decay_csv(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(script), str(tmp_path / "out"), str(csv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
    assert '"coherence_time"' in proc.stdout


# Runs nvecho commands in one interpreter; with "blocked", any import of
# scipy raises ImportError.
WITHOUT_SCIPY = """\
import json
import sys

if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from nvecho.cli import main

for argv in json.loads(sys.argv[2]):
    print("$ nvecho", *argv, flush=True)
    assert main(argv) == 0, argv
"""

# a quasiharmonic decay_compare whose blocks name no kind, at few samples
QH_COMPARE_YAML = """\
schema: nvecho-scenario/1
name: cli-qh
pipeline: decay_compare
response:
  model: quasiharmonic
  data_file: quasiharmonic_default.yaml
sources:
  - kind: temperature
    distribution: lorentzian
    location: 300 K
    scale: 5 K
sequence:
  pair: [0, -1]
  flip_fraction: 0.18
  times: {start: 50 us, stop: 15 ms, count: 12, spacing: log}
  compare:
    pair: [0, +1]
    ms: +1
    times: {start: 10 us, stop: 500 us, count: 12, spacing: log}
backend:
  samples: 8192
  seed: 7
output:
  directory: out
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: each command prints the same with
    # scipy importable as with every scipy import failing
    csv = _decay_csv(tmp_path)
    config = tmp_path / "qh.yaml"
    config.write_text(QH_COMPARE_YAML)
    outputs = {}
    for mode in ("blocked", "available"):
        out = tmp_path / mode
        rates = str(out / "fig2" / "fig2-rates.csv")
        commands = [
            ["reproduce", "fig1c", "--out", str(out / "fig1c"), "--deterministic"],
            ["fit", str(csv), "--deterministic"],
            ["reproduce", "fig2", "--out", str(out / "fig2"), "--deterministic"],
            ["fit", rates, "--pair", "0,-1", "--deterministic"],
            ["fit", rates, "--pair", "0,+1", "--deterministic"],
            ["calibrate-response", "--out", str(out / "cal.yaml"), "--deterministic"],
            ["simulate", str(config), "--out", str(out / "qh"), "--deterministic"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, mode, json.dumps(commands)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs[mode] = proc.stdout.replace(str(out), "OUT")
    assert outputs["blocked"].count("$ nvecho") == 7
    assert '"coherence_time"' in outputs["blocked"] and '"ratio"' in outputs["blocked"]
    assert outputs["blocked"] == outputs["available"]


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for name in ("simulate", "fit", "calibrate-response", "reproduce", "parse-seq"):
        assert name in out
    assert "sweep" not in out
