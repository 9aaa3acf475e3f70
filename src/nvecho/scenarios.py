"""Named analysis pipelines driven by scenario configs.

Each pipeline composes simulation and fitting into one reproducible run:

* ``simulate`` - one ensemble amplitude for a configured sequence.
* ``decay_compare`` - the compare step: protected vs unprotected decay scans,
  exponential fits, and the coherence-time improvement factor.
* ``pulse_sweep`` - the sweep step: amplitude versus flip fraction at fixed
  total time, reporting the echo optimum.
* ``rate_table_vee`` - decay-rate tables over flip fraction for one or more
  nuclear branches, one sequence family per branch, with vee / line fits of
  the slope ratio.
* ``protection_study`` - the sweep step, then the compare step with the
  protected scan at the sweep's optimum (large-inhomogeneity studies with
  the quasiharmonic lattice model).

The config checks the sequence keys each pipeline needs before any compute
starts (``config.PIPELINE_NEEDS``); the pipelines read them unchecked.

Reference scenario configs ship as package data; ``load_packaged_scenario``
finds them by name (fig1c, fig1d, fig2, fig4, s5 plus the fig2c/fig2d
aliases, which both resolve to the two-branch fig2 table).
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    ScenarioConfig,
    block_kind,
    load_config,
    realize_grid,
)
from .estimator import RateTable, fit_exponential, fit_vee
from .script import parse_sequence_script
from .sequences import (
    KINDS,
    build_sequence,
    scans,
    simulate_amplitude,
    write_signal_csv,
)

SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"
SCENARIO_NAMES = ("fig1c", "fig1d", "fig2", "fig4", "s5")
SCENARIO_ALIASES = {"fig2c": "fig2", "fig2d": "fig2"}


class ScenarioError(ValueError):
    """No packaged scenario has the given name."""


@dataclass
class ScenarioResult:
    name: str
    pipeline: str
    summary: str
    numbers: dict
    artifacts: tuple
    signals: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)


def packaged_scenario_path(name: str) -> Path:
    canonical = SCENARIO_ALIASES.get(name, name)
    path = SCENARIO_DIR / f"{canonical}.yaml"
    if not path.exists():
        known = sorted(SCENARIO_NAMES) + sorted(SCENARIO_ALIASES)
        raise ScenarioError(f"unknown scenario {name!r}; expected one of {known}")
    return path


def load_packaged_scenario(name: str) -> ScenarioConfig:
    return load_config(packaged_scenario_path(name))


# ------------------------------------------------------------ run machinery

@dataclass
class _Context:
    config: ScenarioConfig
    out_dir: Path
    deterministic: bool
    artifacts: list = field(default_factory=list)

    def write_signal(self, label: str, signal) -> None:
        path = self.out_dir / f"{self.config.name}-{label}.csv"
        write_signal_csv(signal, path, deterministic=self.deterministic)
        self.artifacts.append(path)

    def write_json(self, label: str, payload: dict) -> None:
        path = self.out_dir / f"{self.config.name}-{label}.json"
        doc = dict(payload)
        if not self.deterministic:
            doc["written"] = _dt.datetime.now().isoformat()
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        self.artifacts.append(path)

    def write_fits(self, fits: dict, numbers: dict) -> None:
        """The fits document: each fit under its label, and the run's numbers."""
        self.write_json("fits", {label: fit.as_dict() for label, fit in fits.items()}
                        | {"numbers": numbers})

    def result(self, summary: str, numbers: dict, **kwargs) -> ScenarioResult:
        return ScenarioResult(self.config.name, self.config.pipeline, summary, numbers,
                              tuple(self.artifacts), **kwargs)


def run_scenario(config: ScenarioConfig, out_dir=None, deterministic: bool = False,
                 samples: int | None = None, seed: int | None = None) -> ScenarioResult:
    """Execute a config's pipeline, writing artifacts and returning fits.

    ``samples`` and ``seed`` override the config's backend block.  The run
    uses the models ``parse_config`` built; a config built or changed in
    code is parsed first, so one its pipeline cannot run raises
    ``ConfigError`` before any compute.
    """
    config = config.parsed(samples=samples, seed=seed)
    out = Path(out_dir) if out_dir is not None else Path(config.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(config=config, out_dir=out, deterministic=deterministic)
    return PIPELINES[config.pipeline](ctx)


def _fmt_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.4g} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.4g} ms"
    return f"{seconds:.4g} s"


def _mc_numbers(mc, index: int) -> dict:
    """Sampling bookkeeping of point ``index`` of a Monte Carlo family."""
    if mc is None:
        return {}
    return {
        "n_samples": int(mc.n_samples),
        "n_retained": int(mc.n_retained),
        "truncated_mass": float(sum(mc.truncated_mass.values())),
        "std_error": float(mc.std_error[index]),
    }


# ----------------------------------------------------------- shared steps

def _sweep(ctx: _Context, sources, params):
    """The sweep step: amplitude versus flip fraction at the block's total
    time, and the index of its peak."""
    block = ctx.config.sequence
    keys = KINDS["unbalanced_echo"].read(block) | {"total_time": block["total_time"]}
    [signal] = scans([("unbalanced_echo", keys, "flip_fraction",
                       realize_grid(block["flip_fractions"]))],
                     sources, params=params, **ctx.config.backend_kwargs())
    return signal, int(np.argmax(signal.y))


def _compare(ctx: _Context, protected: dict, sources, params):
    """The compare step: the protected scan of ``protected`` and the
    unprotected one of ``sequence.compare``, each of the kind the config
    builds the block as and both evaluated as one family, their exponential
    fits, and the fitted coherence times and their ratio, the improvement."""
    compare = ctx.config.sequence["compare"]
    specs = []
    for path, block in (("sequence", protected), ("sequence.compare", compare)):
        kind = block_kind(ctx.config.pipeline, path, block)
        specs.append((kind, KINDS[kind].read(block), "total_time", realize_grid(block["times"])))
    signals = dict(zip(("protected", "unprotected"),
                       scans(specs, sources, params=params, **ctx.config.backend_kwargs())))
    fits = {label: fit_exponential(scan.x, scan.y) for label, scan in signals.items()}
    t2_p, t2_u = (fits[label]["coherence_time"] for label in ("protected", "unprotected"))
    return signals, fits, {"protected_T2_s": t2_p, "unprotected_T2_s": t2_u,
                         "improvement": t2_p / t2_u}


# ----------------------------------------------------------------- pipelines

def _run_simulate(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    block = cfg.sequence
    if "script" in block:
        sequence = parse_sequence_script(block["script"])
    else:
        kind = block["kind"]
        sequence = build_sequence(kind, block["total_time"], **KINDS[kind].read(block))
    result = simulate_amplitude(sequence, cfg.noise_sources(),
                                params=cfg.spin_params(), **cfg.backend_kwargs())
    numbers = {
        "kind": sequence.kind,
        "total_time_s": float(sequence.total_time),
        "amplitude": float(result.amplitude),
        "base_phase_rad": float(result.base_phase),
    }
    numbers.update(_mc_numbers(result.monte_carlo, 0))
    ctx.write_json("result", numbers)
    return ctx.result(f"{cfg.name}: {sequence.kind} over {_fmt_time(sequence.total_time)}: "
                      f"amplitude {result.amplitude:.6f}, "
                      f"base phase {result.base_phase:.4f} rad", numbers)


def _run_decay_compare(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    signals, fits, numbers = _compare(ctx, cfg.sequence, cfg.noise_sources(), cfg.spin_params())
    t2_p, t2_u, improvement = numbers.values()
    ctx.write_signal("unprotected", signals["unprotected"])
    ctx.write_signal("protected", signals["protected"])
    ctx.write_fits(fits, numbers)
    return ctx.result(f"{cfg.name}: unprotected T2* = {_fmt_time(t2_u)}, "
                      f"protected T2* = {_fmt_time(t2_p)}, "
                      f"improvement {improvement:.1f}x", numbers, signals=signals, fits=fits)


def _run_pulse_sweep(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    signal, peak = _sweep(ctx, cfg.noise_sources(), cfg.spin_params())
    total_time = cfg.sequence["total_time"]
    numbers = {
        "total_time_s": float(total_time),
        "argmax_flip_fraction": float(signal.x[peak]),
        "peak_amplitude": float(signal.y[peak]),
    }
    ctx.write_signal("sweep", signal)
    ctx.write_json("result", numbers)
    return ctx.result(f"{cfg.name}: sweep at t = {_fmt_time(total_time)} peaks at "
                      f"tau/t = {signal.x[peak]:.4f} (amplitude {signal.y[peak]:.4f})",
                      numbers, signals={"sweep": signal})


def _pair_label(pair) -> str:
    return f"{pair[0]:+d},{pair[1]:+d}".replace("+0", "0").replace("-0", "0")


def _run_rate_table(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    block = cfg.sequence
    pairs = block["pairs"] if "pairs" in block else (block["pair"],)
    fractions = realize_grid(block["flip_fractions"])
    times = realize_grid(block["times"])
    echo = KINDS["unbalanced_echo"]
    keys = echo.keys | echo.read(block)
    sources = cfg.noise_sources()
    params = cfg.spin_params()

    table = RateTable(metadata={"scenario": cfg.name})
    for pair in pairs:
        # one family per branch: the decay scan of every flip fraction
        signals = scans([("unbalanced_echo", keys | {"pair": pair, "flip_fraction": float(f)},
                           "total_time", times) for f in fractions],
                        sources, params=params, **cfg.backend_kwargs())
        for fraction, scan in zip(fractions, signals):
            fit = fit_exponential(scan.x, scan.y)
            t2 = fit["coherence_time"]
            t2_var = float(fit.covariance[1, 1])
            rate_error = np.sqrt(t2_var) / t2**2 if np.isfinite(t2_var) else None
            table.add(pair, (keys["ms_free"], keys["ms_flipped"]), float(fraction), 1.0 / t2,
                      rate_error)

    fits = {_pair_label(pair): fit_vee(table.filter(pair=pair)) for pair in pairs}
    methods = [fit.settings["method"] for fit in fits.values()]
    numbers = {}
    summary_bits = []
    for label, fit in fits.items():
        method = fit.settings["method"]
        # a model that fits one pair keeps plain keys; several name their pair
        suffix = f"[{label}]" if methods.count(method) > 1 else ""
        if method == "vee":
            numbers[f"vee_ratio{suffix}"] = float(fit["ratio"])
            numbers[f"vee_slope_per_s{suffix}"] = float(fit["slope"])
            numbers[f"vee_baseline_per_s{suffix}"] = float(fit["baseline"])
            summary_bits.append(f"vee ratio {fit['ratio']:.4f} (pair {label})")
        else:
            numbers[f"line_ratio{suffix}"] = float(fit["ratio"])
            numbers[f"line_x_intercept{suffix}"] = float(fit["x_intercept"])
            summary_bits.append(
                f"line x-intercept {fit['x_intercept']:.4f} (pair {label})"
            )

    path = ctx.out_dir / f"{cfg.name}-rates.csv"
    table.write_csv(path, deterministic=ctx.deterministic)
    ctx.artifacts.append(path)
    ctx.write_fits(fits, numbers)
    return ctx.result(f"{cfg.name}: " + ", ".join(summary_bits), numbers, fits=fits)


def _run_protection_study(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    sources, params = cfg.noise_sources(), cfg.spin_params()
    sweep, peak = _sweep(ctx, sources, params)
    best_fraction = float(sweep.x[peak])
    protected = cfg.sequence | {"kind": "unbalanced_echo", "flip_fraction": best_fraction}
    signals, fits, compared = _compare(ctx, protected, sources, params)
    t2_p, t2_u, improvement = compared.values()
    numbers = {
        "total_time_s": float(cfg.sequence["total_time"]),
        "argmax_flip_fraction": best_fraction,
        "peak_amplitude": float(sweep.y[peak]),
    } | compared
    numbers.update(_mc_numbers(sweep.monte_carlo, peak))
    ctx.write_signal("sweep", sweep)
    ctx.write_signal("protected", signals["protected"])
    ctx.write_signal("unprotected", signals["unprotected"])
    ctx.write_fits(fits, numbers)
    truncated = numbers.get("truncated_mass")
    trunc_note = "" if truncated is None else f", truncated mass {truncated:.4f}"
    return ctx.result(f"{cfg.name}: optimum tau/t = {best_fraction:.4f}, "
                      f"protected T2* = {_fmt_time(t2_p)}, "
                      f"unprotected T2* = {_fmt_time(t2_u)}, "
                      f"improvement {improvement:.0f}x{trunc_note}",
                      numbers, signals={"sweep": sweep} | signals, fits=fits)


PIPELINES = {
    "simulate": _run_simulate,
    "decay_compare": _run_decay_compare,
    "pulse_sweep": _run_pulse_sweep,
    "rate_table_vee": _run_rate_table,
    "protection_study": _run_protection_study,
}
