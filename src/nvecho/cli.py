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
Each subcommand imports only what it runs.  OpenBLAS starts with one thread
unless its thread count is set (``main``): a thread pool costs more to start
than a one-shot command's small fits gain from it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .catalog import DEFAULT_SKIP, SCENARIO_ALIASES, SCENARIO_NAMES
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
                   help=f"initial points to skip in the exponential fit (default {DEFAULT_SKIP})")
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
    from .scenarios import run_scenario

    result = run_scenario(config, out_dir=args.out, deterministic=args.deterministic,
                          samples=args.samples, seed=args.seed)
    print(result.summary)
    return 0


def _cmd_simulate(args) -> int:
    from .config import load_config

    return _run_config_scenario(load_config(args.config), args)


def _cmd_reproduce(args) -> int:
    from .config import load_packaged_scenario

    return _run_config_scenario(load_packaged_scenario(args.figure), args)


# --------------------------------------------------------------------- fit

def _detect_fit_kind(path: Path, schema, header) -> str:
    from .estimator import RATES_SCHEMA

    if schema == RATES_SCHEMA:
        return "vee"
    kind = _FIT_KINDS_BY_LABEL.get(header[0])
    if kind is None:
        raise ValueError(
            f"{path}: cannot infer a fit model from x column {header[0]!r}; "
            "pass --kind explicitly"
        )
    return kind


def _cmd_fit(args) -> int:
    from .estimator import RATE_COLUMNS, RateTable, fit_cosine, fit_exponential, fit_vee
    from .sequences import SIGNAL_COLUMNS, json_text, read_metadata_csv, signal_from_csv

    path = Path(args.input)
    # one parse serves the detection and the fit, whichever table the file holds
    parsed = read_metadata_csv(path, SIGNAL_COLUMNS | RATE_COLUMNS)
    schema, _, header, _ = parsed
    kind = args.kind if args.kind != "auto" else _detect_fit_kind(path, schema, header)
    if args.skip is not None and kind != "exponential":
        raise ValueError(f"--skip applies to an exponential fit, not a {kind} fit")
    if (args.pair is not None or args.ms_pairing is not None) and kind != "vee":
        raise ValueError(f"--pair and --ms-pairing apply to a vee fit, not a {kind} fit")
    if kind == "vee":
        table = RateTable.from_csv(path, *parsed)
        if args.pair is not None or args.ms_pairing is not None:
            table = table.filter(pair=args.pair, ms_pairing=args.ms_pairing)
        if not table.rows:
            raise ValueError(f"{path}: no rows left after filtering")
        result = fit_vee(table)
    else:
        signal = signal_from_csv(path, *parsed)
        if kind == "exponential":
            skip = DEFAULT_SKIP if args.skip is None else args.skip
            result = fit_exponential(signal.x, signal.y, skip_initial=skip)
        else:
            result = fit_cosine(signal.x, signal.y)

    text = json_text({"schema": "nvecho-fit/1", "kind": kind, "source": path.name}
                     | result.as_dict(), args.deterministic)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        params = ", ".join(f"{k} = {v:.6g}" for k, v in result.parameters.items())
        print(f"{kind} fit of {path.name}: {params} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------- calibrate-response

def _cmd_calibrate(args) -> int:
    from .response import calibrate_response_set, save_response_set

    kwargs = {}
    if args.quadrupole_slope is not None:
        kwargs["slope_quadrupole"] = angular(parse_quantity(args.quadrupole_slope,
                                                            "frequency_per_K"))
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
    from .script import format_sequence_script, parse_sequence_script

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
    # a one-shot command's largest BLAS call is a ~100 x 3 least-squares fit:
    # one thread, unless a variable OpenBLAS reads its thread count from holds
    # a count >= 1 as OpenBLAS reads it (the leading integer, as atoi does)
    if not any(int(re.match(r"\s*\+?(\d*)", os.environ.get(name, ""))[1] or 0)
               for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # script, quantity, scenario-name errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .solvers import FitError

        if not isinstance(exc, FitError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
