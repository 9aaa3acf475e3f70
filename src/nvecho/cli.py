"""Command-line interface.

Subcommands:

* ``simulate CONFIG``  - run a scenario config, whatever its pipeline.
* ``fit CSV``          - fit a signal or rate-table CSV and emit FitResult JSON;
  ``sequences.read_csv``, which knows the CSV format, reads the file, its
  data alone decides the model (``_fit_kind``), and ``--pair`` keeps one
  transition pair of a rate table.
* ``calibrate-response`` - rebuild the shipped quasiharmonic response set
  from ``response``'s calibration constants and write its data file.
* ``reproduce NAME``   - run a packaged reference scenario by name.
* ``parse-seq FILE``   - parse a pulse-sequence script and print its canonical
  form (``-`` reads stdin).

Scenario configs are YAML with mandatory unit suffixes; validation problems
are aggregated and reported together before any compute starts.  The
config's noise sources decide how the ensemble average is taken: the exact
closed form when all of them are linear, Monte Carlo (``--samples``,
``--seed``) otherwise.  All artifact writers accept ``--deterministic`` to
suppress timestamp lines so identical inputs give byte-identical outputs.
Every flag has a caller: the benchmark (``perfbench``) and CI set ``--out``,
``--deterministic`` and ``--pair``, and ``--samples`` and ``--seed``
override the package data ``reproduce`` runs.  Each subcommand imports only
what it runs: ``parse-seq`` loads neither numpy nor PyYAML, ``fit``
computes on Python floats and loads no numpy, response models or noise
sources, and ``calibrate-response`` computes on Python floats too.  A
config is loaded and checked without numpy or the solvers, so ``simulate``
refuses a bad config before numpy is imported; only a run with a Monte
Carlo source loads it, a closed-form run computes on Python floats, and a
run that fits nothing (``reproduce fig1d``) loads no estimator.  No command
imports ``dataclasses`` or ``inspect``: the package's value types are
``records`` classes, which generate no code.  OpenBLAS starts with
one thread unless its thread count is set (``main``): no command calls
BLAS, and a thread pool costs about 70 ms to start when numpy is imported.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .catalog import SCENARIO_ALIASES, SCENARIO_NAMES
from .units import cycles

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
    p.add_argument("--pair", type=_pair_argument, metavar="A,B",
                   help="restrict a rate table to one transition pair, e.g. '0,-1'")
    p.add_argument("--out", metavar="FILE",
                   help="write the fit JSON here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp field from the fit JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("calibrate-response",
                       help="rebuild the shipped quasiharmonic response set")
    p.add_argument("--out", metavar="FILE", default="quasiharmonic_calibrated.yaml",
                   help="output data file (default: %(default)s)")
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

def _fit_kind(path: Path, data) -> str:
    """The model a file's data is fitted with: vee for a rate table, else
    the one its signal's x column names."""
    from .sequences import RateTable

    if isinstance(data, RateTable):
        return "vee"
    kind = _FIT_KINDS_BY_LABEL.get(data.x_label)
    if kind is None:
        raise ValueError(f"{path}: no fit model for x column {data.x_label!r}; expected one "
                         f"of {sorted(_FIT_KINDS_BY_LABEL)} or a rate table")
    return kind


def _cmd_fit(args) -> int:
    from .estimator import fit_cosine, fit_exponential, fit_vee
    from .sequences import json_text, read_csv

    path = Path(args.input)
    data = read_csv(path)  # one parse serves the choice of model and the fit
    kind = _fit_kind(path, data)
    if args.pair is not None and kind != "vee":
        raise ValueError(f"--pair applies to a vee fit, not a {kind} fit")
    if kind == "vee":
        if args.pair is not None:
            data = data.filter(pair=args.pair)
        if not data.rows:
            raise ValueError(f"{path}: no rows left after filtering")
        result = fit_vee(data)
    else:
        fit = fit_exponential if kind == "exponential" else fit_cosine
        result = fit(data.x, data.y)

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

    calibrated = calibrate_response_set()
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
    # no command calls BLAS, so OpenBLAS's thread pool would only cost its
    # start at numpy's import: one thread, unless a variable OpenBLAS reads its
    # thread count from holds a count >= 1 as OpenBLAS reads it (the leading
    # integer, as atoi does)
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
