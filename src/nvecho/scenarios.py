"""Named analysis pipelines driven by scenario configs.

Each pipeline composes simulation and fitting into one reproducible run:

* ``simulate`` - one ensemble amplitude for a configured sequence.
* ``decay_compare`` - protected vs unprotected decay scans, exponential fits,
  and the coherence-time improvement factor.
* ``pulse_sweep`` - amplitude versus flip fraction at fixed total time,
  reporting the echo optimum.
* ``rate_table_vee`` - decay-rate tables over flip fraction for one or more
  nuclear branches, with vee / line fits of the slope ratio.
* ``protection_study`` - Monte Carlo pulse sweep to locate the optimum, then
  protected and unprotected decay scans at that optimum (large-inhomogeneity
  studies with the quasiharmonic lattice model).

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

from .config import ScenarioConfig, load_config, realize_grid
from .estimator import RateTable, fit_exponential, fit_vee
from .script import parse_sequence_script
from .sequences import (
    build_sequence,
    decay_scan,
    pulse_location_sweep,
    simulate_amplitude,
    write_signal_csv,
    write_signal_json,
)

SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"
SCENARIO_NAMES = ("fig1c", "fig1d", "fig2", "fig4", "s5")
SCENARIO_ALIASES = {"fig2c": "fig2", "fig2d": "fig2"}


class ScenarioError(ValueError):
    """A pipeline cannot run with the given config."""


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


def _template(block: dict, kind: str) -> dict:
    """``build_sequence`` keywords of a sequence block; kinds that stay in
    one manifold name it ``ms``."""
    echo = kind == "unbalanced_echo"
    if echo and block.get("flip_fraction") is None:
        raise ScenarioError("an unbalanced echo needs a flip_fraction")
    return {"pair": block.get("pair", (0, -1)),
            "ms_free": block.get("ms_free" if echo else "ms", 0),
            "ms_flipped": block.get("ms_flipped", 1),
            "flip_fraction": block.get("flip_fraction") if echo else None}


def build_sequence_from_block(block: dict):
    """Turn a validated sequence block into a PulseSequence."""
    if "script" in block:
        return parse_sequence_script(block["script"])
    kind = block.get("kind")
    if kind is None:
        raise ScenarioError("sequence block needs a kind or a script")
    total_time = block.get("total_time")
    if total_time is None:
        raise ScenarioError(f"sequence kind {kind!r} needs a total_time")
    return build_sequence(kind, total_time, **_template(block, kind))


# ------------------------------------------------------------ run machinery

@dataclass
class _Context:
    config: ScenarioConfig
    backend_kwargs: dict
    out_dir: Path
    formats: tuple
    deterministic: bool
    artifacts: list = field(default_factory=list)

    def write_signal(self, label: str, signal) -> None:
        stem = self.out_dir / f"{self.config.name}-{label}"
        if "csv" in self.formats:
            path = stem.with_suffix(".csv")
            write_signal_csv(signal, path, deterministic=self.deterministic)
            self.artifacts.append(path)
        if "json" in self.formats:
            path = stem.with_suffix(".json")
            write_signal_json(signal, path, deterministic=self.deterministic)
            self.artifacts.append(path)

    def write_json(self, label: str, payload: dict) -> None:
        if "json" not in self.formats:
            return
        path = self.out_dir / f"{self.config.name}-{label}.json"
        doc = dict(payload)
        if not self.deterministic:
            doc["written"] = _dt.datetime.now().isoformat()
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        self.artifacts.append(path)


def run_scenario(config: ScenarioConfig, out_dir=None, deterministic: bool = False,
                 samples: int | None = None, seed: int | None = None) -> ScenarioResult:
    """Execute a config's pipeline, writing artifacts and returning fits.

    ``samples`` and ``seed`` override the config's backend block.
    """
    pipeline = PIPELINES.get(config.pipeline)
    if pipeline is None:
        raise ScenarioError(
            f"unknown pipeline {config.pipeline!r}; expected one of {sorted(PIPELINES)}"
        )
    backend_kwargs = config.backend_kwargs()
    if samples is not None:
        backend_kwargs["n_samples"] = int(samples)
    if seed is not None:
        backend_kwargs["seed"] = int(seed)
    out = Path(out_dir) if out_dir is not None else Path(config.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(config=config, backend_kwargs=backend_kwargs, out_dir=out,
                   formats=tuple(config.output["formats"]),
                   deterministic=deterministic)
    return pipeline(ctx)


def _fmt_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.4g} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.4g} ms"
    return f"{seconds:.4g} s"


def _grid(block: dict, key: str, pipeline: str):
    grid = realize_grid(block.get(key))
    if grid is None:
        raise ScenarioError(f"pipeline {pipeline!r} needs sequence.{key}")
    return grid


def _decay_from_block(ctx: _Context, block: dict, sources, params,
                      default_kind: str, pipeline: str):
    kind = block.get("kind", default_kind)
    return decay_scan(_grid(block, "times", pipeline), sources, sequence=kind,
                      params=params, **_template(block, kind), **ctx.backend_kwargs)


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


# ----------------------------------------------------------------- pipelines

def _run_simulate(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    sequence = build_sequence_from_block(cfg.sequence)
    result = simulate_amplitude(sequence, cfg.noise_sources(),
                                params=cfg.spin_params(), **ctx.backend_kwargs)
    numbers = {
        "kind": sequence.kind,
        "total_time_s": float(sequence.total_time),
        "amplitude": float(result.amplitude),
        "base_phase_rad": float(result.base_phase),
    }
    numbers.update(_mc_numbers(result.monte_carlo, 0))
    ctx.write_json("result", numbers)
    summary = (f"{cfg.name}: {sequence.kind} over {_fmt_time(sequence.total_time)}: "
               f"amplitude {result.amplitude:.6f}, "
               f"base phase {result.base_phase:.4f} rad")
    return ScenarioResult(cfg.name, cfg.pipeline, summary, numbers,
                          tuple(ctx.artifacts))


def _run_decay_compare(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    compare = cfg.sequence.get("compare")
    if not compare:
        raise ScenarioError(
            "decay_compare needs a sequence.compare block for the unprotected scan"
        )
    sources = cfg.noise_sources()
    params = cfg.spin_params()
    protected = _decay_from_block(ctx, cfg.sequence, sources, params,
                                  "unbalanced_echo", cfg.pipeline)
    unprotected = _decay_from_block(ctx, compare, sources, params,
                                    "ramsey", cfg.pipeline)
    fit_p = fit_exponential(protected.x, protected.y)
    fit_u = fit_exponential(unprotected.x, unprotected.y)
    improvement = fit_p["coherence_time"] / fit_u["coherence_time"]
    numbers = {
        "unprotected_T2_s": float(fit_u["coherence_time"]),
        "protected_T2_s": float(fit_p["coherence_time"]),
        "improvement": float(improvement),
    }
    ctx.write_signal("unprotected", unprotected)
    ctx.write_signal("protected", protected)
    ctx.write_json("fits", {"unprotected": fit_u.as_dict(),
                            "protected": fit_p.as_dict(), "numbers": numbers})
    summary = (f"{cfg.name}: unprotected T2* = {_fmt_time(fit_u['coherence_time'])}, "
               f"protected T2* = {_fmt_time(fit_p['coherence_time'])}, "
               f"improvement {improvement:.1f}x")
    return ScenarioResult(cfg.name, cfg.pipeline, summary, numbers,
                          tuple(ctx.artifacts),
                          signals={"protected": protected, "unprotected": unprotected},
                          fits={"protected": fit_p, "unprotected": fit_u})


def _run_pulse_sweep(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    block = cfg.sequence
    total_time = block.get("total_time")
    if total_time is None:
        raise ScenarioError("pulse_sweep needs sequence.total_time")
    fractions = _grid(block, "flip_fractions", cfg.pipeline)
    signal = pulse_location_sweep(
        total_time, fractions, cfg.noise_sources(),
        pair=block.get("pair", (0, -1)), ms_free=block.get("ms_free", 0),
        ms_flipped=block.get("ms_flipped", 1), params=cfg.spin_params(),
        **ctx.backend_kwargs,
    )
    peak = int(np.argmax(signal.y))
    numbers = {
        "total_time_s": float(total_time),
        "argmax_flip_fraction": float(signal.x[peak]),
        "peak_amplitude": float(signal.y[peak]),
    }
    ctx.write_signal("sweep", signal)
    ctx.write_json("result", numbers)
    summary = (f"{cfg.name}: sweep at t = {_fmt_time(total_time)} peaks at "
               f"tau/t = {signal.x[peak]:.4f} (amplitude {signal.y[peak]:.4f})")
    return ScenarioResult(cfg.name, cfg.pipeline, summary, numbers,
                          tuple(ctx.artifacts), signals={"sweep": signal})


def _pair_label(pair) -> str:
    return f"{pair[0]:+d},{pair[1]:+d}".replace("+0", "0").replace("-0", "0")


def _run_rate_table(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    block = cfg.sequence
    pairs = block.get("pairs")
    if pairs is None:
        if "pair" not in block:
            raise ScenarioError("rate_table_vee needs sequence.pair or sequence.pairs")
        pairs = (block["pair"],)
    fractions = _grid(block, "flip_fractions", cfg.pipeline)
    times = _grid(block, "times", cfg.pipeline)
    ms_free = block.get("ms_free", 0)
    ms_flipped = block.get("ms_flipped", 1)
    sources = cfg.noise_sources()
    params = cfg.spin_params()

    table = RateTable(metadata={"scenario": cfg.name})
    for pair in pairs:
        for fraction in fractions:
            scan = decay_scan(
                times, sources, flip_fraction=float(fraction), pair=pair,
                ms_free=ms_free, ms_flipped=ms_flipped, params=params,
                **ctx.backend_kwargs,
            )
            fit = fit_exponential(scan.x, scan.y)
            t2 = fit["coherence_time"]
            t2_var = float(fit.covariance[1, 1])
            rate_error = np.sqrt(t2_var) / t2**2 if np.isfinite(t2_var) else None
            table.add(pair, (ms_free, ms_flipped), float(fraction), 1.0 / t2,
                      rate_error)

    fits = {}
    numbers = {}
    summary_bits = []
    for pair in pairs:
        fit = fit_vee(table.filter(pair=pair))
        label = _pair_label(pair)
        fits[label] = fit
        if "baseline" in fit.parameters:
            numbers["vee_ratio"] = float(fit["ratio"])
            numbers["vee_slope_per_s"] = float(fit["slope"])
            numbers["vee_baseline_per_s"] = float(fit["baseline"])
            summary_bits.append(f"vee ratio {fit['ratio']:.4f} (pair {label})")
        else:
            numbers["line_ratio"] = float(fit["ratio"])
            numbers["line_x_intercept"] = float(fit["x_intercept"])
            summary_bits.append(
                f"line x-intercept {fit['x_intercept']:.4f} (pair {label})"
            )

    if "csv" in ctx.formats:
        path = ctx.out_dir / f"{cfg.name}-rates.csv"
        table.write_csv(path, deterministic=ctx.deterministic)
        ctx.artifacts.append(path)
    ctx.write_json("fits", {label: f.as_dict() for label, f in fits.items()}
                   | {"numbers": numbers})
    summary = f"{cfg.name}: " + ", ".join(summary_bits)
    return ScenarioResult(cfg.name, cfg.pipeline, summary, numbers,
                          tuple(ctx.artifacts), fits=fits,
                          signals={}, )


def _run_protection_study(ctx: _Context) -> ScenarioResult:
    cfg = ctx.config
    block = cfg.sequence
    compare = block.get("compare")
    if not compare:
        raise ScenarioError(
            "protection_study needs a sequence.compare block for the unprotected scan"
        )
    total_time = block.get("total_time")
    if total_time is None:
        raise ScenarioError("protection_study needs sequence.total_time")
    fractions = _grid(block, "flip_fractions", cfg.pipeline)
    sources = cfg.noise_sources()
    params = cfg.spin_params()

    sweep = pulse_location_sweep(
        total_time, fractions, sources, pair=block.get("pair", (0, -1)),
        ms_free=block.get("ms_free", 0), ms_flipped=block.get("ms_flipped", 1),
        params=params, **ctx.backend_kwargs,
    )
    peak = int(np.argmax(sweep.y))
    best_fraction = float(sweep.x[peak])

    protected_block = dict(block)
    protected_block["kind"] = "unbalanced_echo"
    protected_block["flip_fraction"] = best_fraction
    protected = _decay_from_block(ctx, protected_block, sources, params,
                                  "unbalanced_echo", cfg.pipeline)
    unprotected = _decay_from_block(ctx, compare, sources, params,
                                    "ramsey", cfg.pipeline)
    fit_p = fit_exponential(protected.x, protected.y)
    fit_u = fit_exponential(unprotected.x, unprotected.y)
    improvement = fit_p["coherence_time"] / fit_u["coherence_time"]

    numbers = {
        "total_time_s": float(total_time),
        "argmax_flip_fraction": best_fraction,
        "peak_amplitude": float(sweep.y[peak]),
        "protected_T2_s": float(fit_p["coherence_time"]),
        "unprotected_T2_s": float(fit_u["coherence_time"]),
        "improvement": float(improvement),
    }
    numbers.update(_mc_numbers(sweep.monte_carlo, peak))
    ctx.write_signal("sweep", sweep)
    ctx.write_signal("protected", protected)
    ctx.write_signal("unprotected", unprotected)
    ctx.write_json("result", {"numbers": numbers,
                              "protected_fit": fit_p.as_dict(),
                              "unprotected_fit": fit_u.as_dict()})
    truncated = numbers.get("truncated_mass")
    trunc_note = "" if truncated is None else f", truncated mass {truncated:.4f}"
    summary = (f"{cfg.name}: optimum tau/t = {best_fraction:.4f}, "
               f"protected T2* = {_fmt_time(fit_p['coherence_time'])}, "
               f"unprotected T2* = {_fmt_time(fit_u['coherence_time'])}, "
               f"improvement {improvement:.0f}x{trunc_note}")
    return ScenarioResult(cfg.name, cfg.pipeline, summary, numbers,
                          tuple(ctx.artifacts),
                          signals={"sweep": sweep, "protected": protected,
                                   "unprotected": unprotected},
                          fits={"protected": fit_p, "unprotected": fit_u})


PIPELINES = {
    "simulate": _run_simulate,
    "decay_compare": _run_decay_compare,
    "pulse_sweep": _run_pulse_sweep,
    "rate_table_vee": _run_rate_table,
    "protection_study": _run_protection_study,
}
