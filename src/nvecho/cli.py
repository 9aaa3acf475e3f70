"""Command-line interface.

Subcommands:

* ``simulate CONFIG``  - run a scenario config, whatever its pipeline.
* ``fit CSV``          - fit a signal or rate-table CSV and emit FitResult JSON.
* ``calibrate-response`` - calibrate the quasiharmonic response set and write
  its data file.
* ``reproduce NAME``   - run a packaged reference scenario by name.
* ``parse-seq FILE``   - parse a pulse-sequence script and print its canonical
  form (``-`` reads stdin).

Scenario configs are YAML with mandatory unit suffixes; validation problems
are aggregated and reported together before any compute starts.  The
config's noise sources decide how the ensemble average is taken: the exact
closed form when all of them are linear, Monte Carlo (``--samples``,
``--seed``) otherwise.  All artifact writers accept ``--deterministic`` to
suppress timestamp lines so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sys
from pathlib import Path

from .config import load_config
from .estimator import RATES_SCHEMA, FitError, RateTable, fit_cosine, fit_exponential, fit_vee
from .response import calibrate_response_set, save_response_set
from .scenarios import (
    SCENARIO_ALIASES,
    SCENARIO_NAMES,
    load_packaged_scenario,
    run_scenario,
)
from .script import format_sequence_script, parse_sequence_script
from .sequences import read_signal_csv
from .units import angular, cycles, parse_quantity

_FIT_KINDS_BY_LABEL = {"total_time_s": "exponential", "readout_phase_rad": "cosine"}


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config's output block)")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress timestamp lines in artifacts")
    parser.add_argument("--samples", type=int, metavar="N",
                        help="override the Monte Carlo sample count")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the Monte Carlo seed")


def _pair_argument(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated projections like '0,-1', got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"projections must be integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvecho",
        description="Ensemble dephasing simulator and estimator for NV-center "
                    "nuclear spins with unbalanced-echo coherence protection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario config")
    p.add_argument("config", help="scenario config YAML")
    _add_run_options(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a CSV and emit FitResult JSON")
    p.add_argument("input", help="signal or rate-table CSV")
    p.add_argument("--kind", choices=("auto", "exponential", "cosine", "vee"),
                   default="auto", help="fit model (default: infer from the file)")
    p.add_argument("--skip", type=int, metavar="N",
                   help="initial points to skip in the exponential fit (default 3)")
    p.add_argument("--pair", type=_pair_argument, metavar="A,B",
                   help="restrict a rate table to one transition pair, e.g. '0,-1'")
    p.add_argument("--ms-pairing", type=_pair_argument, metavar="A,B",
                   help="restrict a rate table to one electron pairing, e.g. '0,+1'")
    p.add_argument("--out", metavar="FILE",
                   help="write the fit JSON here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp field from the fit JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("calibrate-response",
                       help="calibrate the quasiharmonic response set")
    p.add_argument("--out", metavar="FILE", default="quasiharmonic_calibrated.yaml",
                   help="output data file (default: %(default)s)")
    p.add_argument("--quadrupole-slope", metavar="QTY",
                   help="quadrupole slope at 300 K, e.g. '39 Hz/K'")
    p.add_argument("--zfs-slope", metavar="QTY",
                   help="zero-field-splitting slope at 300 K, e.g. '-77.7 kHz/K'")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the calibration date so output bytes are stable")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reproduce", help="run a packaged reference scenario")
    p.add_argument("figure",
                   choices=sorted(set(SCENARIO_NAMES) | set(SCENARIO_ALIASES)),
                   help="scenario name")
    _add_run_options(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("parse-seq",
                       help="parse a pulse-sequence script and print it canonically")
    p.add_argument("file", help="script file, or '-' for stdin")
    p.set_defaults(func=_cmd_parse_seq)

    return parser


# ------------------------------------------------------------- run commands

def _run_config_scenario(config, args) -> int:
    result = run_scenario(
        config,
        out_dir=args.out,
        deterministic=args.deterministic,
        samples=args.samples,
        seed=args.seed,
    )
    print(result.summary)
    return 0


def _cmd_simulate(args) -> int:
    return _run_config_scenario(load_config(args.config), args)


def _cmd_reproduce(args) -> int:
    return _run_config_scenario(load_packaged_scenario(args.figure), args)


# --------------------------------------------------------------------- fit

def _detect_fit_kind(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first == f"# {RATES_SCHEMA}":
        return "vee"
    signal = read_signal_csv(path)
    kind = _FIT_KINDS_BY_LABEL.get(signal.x_label)
    if kind is None:
        raise ValueError(
            f"{path}: cannot infer a fit model from x column {signal.x_label!r}; "
            "pass --kind explicitly"
        )
    return kind


def _cmd_fit(args) -> int:
    path = Path(args.input)
    kind = args.kind if args.kind != "auto" else _detect_fit_kind(path)
    if args.skip is not None and kind != "exponential":
        raise ValueError(f"--skip applies to an exponential fit, not a {kind} fit")
    if (args.pair is not None or args.ms_pairing is not None) and kind != "vee":
        raise ValueError(f"--pair and --ms-pairing apply to a vee fit, not a {kind} fit")
    if kind == "vee":
        table = RateTable.read_csv(path)
        if args.pair is not None or args.ms_pairing is not None:
            table = table.filter(pair=args.pair, ms_pairing=args.ms_pairing)
        if not table.rows:
            raise ValueError(f"{path}: no rows left after filtering")
        result = fit_vee(table)
    else:
        signal = read_signal_csv(path)
        if kind == "exponential":
            skip = 3 if args.skip is None else args.skip
            result = fit_exponential(signal.x, signal.y, skip_initial=skip)
        else:
            result = fit_cosine(signal.x, signal.y)

    payload = {"schema": "nvecho-fit/1", "kind": kind, "source": path.name}
    payload.update(result.as_dict())
    if not args.deterministic:
        payload["written"] = _dt.datetime.now().isoformat()
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        params = ", ".join(f"{k} = {v:.6g}" for k, v in result.parameters.items())
        print(f"{kind} fit of {path.name}: {params} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------- calibrate-response

def _slope_option(text: str | None) -> float | None:
    if text is None:
        return None
    return angular(parse_quantity(text, "frequency_per_K"))


def _cmd_calibrate(args) -> int:
    kwargs = {}
    slope_q = _slope_option(args.quadrupole_slope)
    if slope_q is not None:
        kwargs["slope_quadrupole"] = slope_q
    slope_d = _slope_option(args.zfs_slope)
    if slope_d is not None:
        kwargs["slope_zfs"] = slope_d
    calibrated = calibrate_response_set(**kwargs)
    save_response_set(calibrated, args.out, deterministic=args.deterministic)
    print(
        f"calibrated response set -> {args.out}: slopes at 300 K are "
        f"{cycles(calibrated.quadrupole.slope_at(300.0)):.4g} Hz/K (quadrupole), "
        f"{cycles(calibrated.hyperfine.slope_at(300.0)):.4g} Hz/K (hyperfine), "
        f"{cycles(calibrated.zfs.slope_at(300.0)):.4g} Hz/K (zfs)"
    )
    return 0


# ----------------------------------------------------------------- parse-seq

def _cmd_parse_seq(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.file).read_text(encoding="utf-8")
    sequence = parse_sequence_script(text)
    sys.stdout.write(format_sequence_script(sequence))
    print(f"# kind: {sequence.kind}")
    return 0


# -------------------------------------------------------------------- entry

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # script, quantity, scenario-name errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
