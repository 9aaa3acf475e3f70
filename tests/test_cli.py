"""Command-line interface: subcommands, exit codes, artifact determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nvecho import estimator, response, sequences
from nvecho.cli import main
from nvecho.config import packaged_scenario_path
from nvecho.estimator import RateTable
from nvecho.noise import lorentzian, temperature_source
from nvecho.pulses import build_unbalanced_echo
from nvecho.response import DEFAULT_DATA_FILE, load_response_set
from nvecho.script import parse_sequence_script
from nvecho.sequences import (
    EnsembleSignal,
    read_signal_csv,
    scans,
    simulate_family,
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


def test_fit_autodetects_cosine(tmp_path, capsys):
    seq = build_unbalanced_echo(1.4e-3, 0.18 * 1.4e-3)
    source = temperature_source(lorentzian(0.0, 5.0))
    phases = np.linspace(0.0, 2.0 * math.pi, 25)
    # the fringe of contrast 0.8 and maximum 1.0 that the ensemble mean,
    # amplitude times e^{i base_phase}, gives at each readout phase
    res = simulate_family([seq], [source])
    fringe = 0.6 + 0.4 * res.amplitude[0] * np.cos(phases + res.base_phase[0])
    path = tmp_path / "fringe.csv"
    write_signal_csv(EnsembleSignal(phases, fringe, "readout_phase_rad", "population"), path,
                     deterministic=True)
    assert main(["fit", str(path), "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cosine"
    assert doc["parameters"]["contrast"] == pytest.approx(0.8 * res.amplitude[0], rel=1e-9)
    wrapped = math.remainder(doc["parameters"]["phase"] - res.base_phase[0], 2.0 * math.pi)
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
    # the branch geometry of the filtered table decides vee or line
    assert doc["settings"]["method"] == "vee"
    assert main(["fit", str(csv), "--pair", "0,1", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["settings"]["method"] == "line"
    for pair, problem in (("0", "expected two comma-separated projections"),
                          ("a,b", "projections must be integers")):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(csv), "--pair", pair])
        assert exc.value.code == 2
        assert problem in capsys.readouterr().err


def test_fit_vee_mixed_table_without_filter_fails(tmp_path, capsys):
    csv = _rate_csv(tmp_path, both_branches=True)
    assert main(["fit", str(csv), "--deterministic"]) != 0
    assert "pair" in capsys.readouterr().err


def test_fit_refuses_flags_its_model_does_not_read(tmp_path, capsys):
    decay, rates = _decay_csv(tmp_path), _rate_csv(tmp_path)
    for args, problem in (([decay, "--pair", "0,-1"], "--pair applies to a vee fit"),
                          ([rates, "--pair", "1,0"], "no rows left after filtering")):
        out = tmp_path / "fit.json"
        assert main(["fit", str(args[0]), *args[1:], "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


# flags that nothing set: the file decides the fit model and its skip, the
# table's branch geometry vee or line, and the module's constants the calibration
GONE_FLAGS = {
    "--method": ["fit", "{rates}", "--method", "vee"],
    "--robust": ["fit", "{rates}", "--robust"],
    "--kind": ["fit", "{rates}", "--kind", "vee"],
    "--skip": ["fit", "{decay}", "--skip", "5"],
    "--ms-pairing": ["fit", "{rates}", "--ms-pairing", "0,1"],
    "calibrate-response --quadrupole-slope": ["calibrate-response", "--out", "{cal}",
                                              "--quadrupole-slope", "39 Hz/K"],
}


@pytest.mark.parametrize("argv", GONE_FLAGS.values(), ids=GONE_FLAGS.keys())
def test_fit_method_flag_is_gone(tmp_path, capsys, argv):
    files = {"rates": _rate_csv(tmp_path), "decay": _decay_csv(tmp_path),
             "cal": tmp_path / "cal.yaml"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**files) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not files["cal"].exists()


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
    _assert_usage_error(capsys, ["fit", str(path)], "no fit model for x column 'flip_fraction'")


def test_fit_vee_counts_distinct_flip_fractions(tmp_path, capsys):
    # six rows at two flip fractions used to fit a vee and exit 0
    table = RateTable()
    for x, rate in ((0.1, 300.0), (0.1, 310.0), (0.1, 305.0),
                    (0.3, 900.0), (0.3, 890.0), (0.3, 905.0)):
        table.add((0, -1), (0, 1), x, rate)
    path = tmp_path / "two.csv"
    table.write_csv(path, deterministic=True)
    _assert_usage_error(capsys, ["fit", str(path), "--deterministic"],
                        "vee fit needs at least 6 distinct flip fractions, got 2")


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


def test_fit_refuses_times_that_do_not_increase(tmp_path, capsys):
    times = np.array([1e-4, 2e-4, 3e-4, 3e-4, 5e-4, 6e-4, 7e-4, 8e-4, 9e-4])
    path = tmp_path / "stalled.csv"
    write_signal_csv(EnsembleSignal(times, np.exp(-times / 5e-4), "total_time_s", "amplitude"),
                     path, deterministic=True)
    _assert_usage_error(capsys, ["fit", str(path)], "times must strictly increase")


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


@pytest.mark.parametrize("column, value, problem", [
    (4, "1.5", "tau_over_t must lie in [0, 1]"),
    (5, "-2.0", "rates must be positive and finite, got -2.0"),
])
def test_fit_refused_rate_row_names_file_and_line(tmp_path, capsys, column, value, problem):
    path = _rate_csv(tmp_path)
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, start=1) if not line.startswith("#")) + 2
    fields = lines[number - 1].split(",")
    fields[column] = value
    lines[number - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    _assert_usage_error(capsys, ["fit", str(path)], f"error: {path}:{number}: {problem}")


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


@pytest.mark.parametrize("name", ["fig1c", "fig4"])
def test_short_fitted_grids_exit_2_before_compute(tmp_path, capsys, name):
    # 6 times leave the fit 3 after its skip of 3: fig1c used to write its
    # protected scan and then exit 2 from the fit, fig4 to run both Monte
    # Carlo families first
    doc = yaml.safe_load(packaged_scenario_path(name).read_text())
    doc["sequence"]["times"]["count"] = doc["sequence"]["compare"]["times"]["count"] = 6
    cfg = _write(tmp_path, "short.yaml", yaml.safe_dump(doc))
    out_dir = tmp_path / "artifacts"
    assert main(["simulate", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    for path in ("sequence.times", "sequence.compare.times"):
        assert f"{path}: needs >= 8 points" in err
    assert not out_dir.exists()


def test_fit_metadata_that_is_not_yaml_exits_2(tmp_path, capsys):
    path = _decay_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "# backend: [oops", *lines[1:]]) + "\n")
    _assert_usage_error(capsys, ["fit", str(path)], "'backend' is not valid YAML")


@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)],
                         ids=["pure-python", "libyaml"])
def test_yaml_that_is_not_valid_exits_2_under_either_loader(tmp_path, capsys, monkeypatch,
                                                            loader):
    monkeypatch.setattr(response, "YAML_LOADER", loader)
    config = _write(tmp_path, "broken.yaml", "schema: [oops\n")
    _assert_usage_error(capsys, ["simulate", str(config)], "not valid YAML")
    path = _decay_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "# backend: [oops", *lines[1:]]) + "\n")
    _assert_usage_error(capsys, ["fit", str(path)], "'backend' is not valid YAML")


def test_fit_reads_its_csv_once(tmp_path, capsys, monkeypatch):
    # the schema and x column that pick the fit come from the parse it fits
    real, reads = sequences.read_metadata_csv, []

    def counted(*args, **kwargs):
        reads.append(args[0])
        return real(*args, **kwargs)

    for module in (sequences, estimator):
        monkeypatch.setattr(module, "read_metadata_csv", counted)
    for csv, kind in ((_decay_csv(tmp_path), "exponential"), (_rate_csv(tmp_path), "vee")):
        reads.clear()
        assert main(["fit", str(csv), "--deterministic"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == kind
        assert len(reads) == 1, reads


FIT_IMPORTS = """\
import sys

from nvecho.cli import main

assert main(sys.argv[1:]) == 0
print("numpy.ma loaded:", "numpy.ma" in sys.modules)
"""


def test_rate_table_fit_leaves_numpy_ma_unloaded(tmp_path, capsys):
    # np.unique imports numpy.ma; the vee solver finds the distinct flip
    # fractions without it
    assert main(["reproduce", "fig2", "--out", str(tmp_path), "--deterministic"]) == 0
    rates = str(tmp_path / "fig2-rates.csv")
    proc = subprocess.run([sys.executable, "-c", FIT_IMPORTS, "fit", rates, "--pair", "0,-1",
                           "--deterministic"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"ratio"' in proc.stdout
    assert proc.stdout.splitlines()[-1] == "numpy.ma loaded: False"


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
from nvecho.catalog import SCENARIO_NAMES
from nvecho.cli import main
from nvecho.config import load_packaged_scenario

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


# Each command imports only what it runs; the package resolves every public
# name on demand.
LAZY_START = """\
import sys

def loaded(*names):
    return [name for name in names if name in sys.modules]

import nvecho
assert not loaded("numpy"), loaded("numpy")
from nvecho.cli import main
assert main(["parse-seq", sys.argv[1]]) == 0
assert not loaded("numpy", "yaml"), loaded("numpy", "yaml")
assert main(["fit", sys.argv[2], "--deterministic"]) == 0
assert not loaded("nvecho.config", "nvecho.scenarios"), loaded("nvecho.config", "nvecho.scenarios")
missing = [name for name in nvecho.__all__ if getattr(nvecho, name, None) is None]
assert not missing, missing
print("lazy start ok")
"""


def test_each_command_imports_only_what_it_runs(tmp_path, monkeypatch):
    script = tmp_path / "seq.txt"
    script.write_text("pair 0 -1\nevolve 1ms ms=0\n")
    csv = _decay_csv(tmp_path)
    proc = subprocess.run([sys.executable, "-c", LAZY_START, str(script), str(csv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lazy start ok" in proc.stdout
    # the package hands out the defining module's current attribute
    import nvecho
    import nvecho.scenarios

    def patched(*args, **kwargs):
        return None

    monkeypatch.setattr(nvecho.scenarios, "run_scenario", patched)
    assert nvecho.run_scenario is patched
    assert set(nvecho.__all__) <= set(dir(nvecho))


# what OpenBLAS reads its thread count from, in the order it reads them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

BLAS_DEFAULT = """\
import os
import sys

from nvecho.cli import main

assert main(["parse-seq", sys.argv[1]]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset, expected", [
    (None, "1"), ("3", "3"),
    # OpenBLAS reads OMP_NUM_THREADS when neither of the other two is set
    pytest.param({"OMP_NUM_THREADS": "3"}, "None", id="OMP_NUM_THREADS=3-None"),
    # and takes an empty value or a count below 1 as unset
    pytest.param({"OMP_NUM_THREADS": ""}, "1", id="OMP_NUM_THREADS=-1"),
    pytest.param({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": " "}, "1",
                 id="OPENBLAS_NUM_THREADS=0-1"),
])
def test_cli_starts_openblas_with_one_thread_unless_told(tmp_path, preset, expected):
    script = tmp_path / "seq.txt"
    script.write_text("pair 0 -1\nevolve 1ms ms=0\n")
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    if isinstance(preset, str):
        preset = {"OPENBLAS_NUM_THREADS": preset}
    env |= preset or {}
    proc = subprocess.run([sys.executable, "-c", BLAS_DEFAULT, str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


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
