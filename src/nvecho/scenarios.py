"""Named analysis pipelines driven by scenario configs.

Each pipeline composes simulation and fitting steps into one reproducible
run:

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

A run is its steps: each step writes its own artifacts and reports its
numbers, its fits and one summary fragment into the run's context.
``run_scenario`` then writes the run's one JSON document, the fits and the
numbers or, where no step fitted, the numbers alone, and joins the
fragments into the summary.  The config checks the sequence keys each
pipeline needs before any compute starts (``config.PIPELINE_NEEDS``); the
steps read them unchecked.  The packaged reference configs are found and
loaded by ``config`` (``load_packaged_scenario``), which imports none of
this run layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, block_kind, build, realize_grid
from .estimator import RateTable, fit_exponential, fit_vee
from .pulses import KINDS, build_sequence
from .script import format_projection, parse_sequence_script
from .sequences import json_text, scans, simulate_family, write_signal_csv


@dataclass
class ScenarioResult:
    name: str
    pipeline: str
    summary: str
    numbers: dict
    artifacts: tuple
    signals: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)


# ------------------------------------------------------------ run machinery

@dataclass
class _Context:
    """One run: its config, where it writes, the models and keywords every
    simulation takes, and what its steps wrote and reported."""

    config: ScenarioConfig
    out_dir: Path
    deterministic: bool
    sources: tuple
    keywords: dict  # the spin parameters and the Monte Carlo backend
    artifacts: list = field(default_factory=list)
    signals: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)
    fragments: list = field(default_factory=list)

    def _artifact(self, label: str, suffix: str) -> Path:
        path = self.out_dir / f"{self.config.name}-{label}.{suffix}"
        self.artifacts.append(path)
        return path

    def write_signal(self, label: str, signal) -> None:
        write_signal_csv(signal, self._artifact(label, "csv"), deterministic=self.deterministic)
        self.signals[label] = signal

    def write_table(self, label: str, table: RateTable) -> None:
        table.write_csv(self._artifact(label, "csv"), deterministic=self.deterministic)

    def write_json(self, label: str, payload: dict) -> None:
        self._artifact(label, "json").write_text(json_text(payload, self.deterministic),
                                                 encoding="utf-8")

    def report(self, fragment: str, numbers: dict, fits: dict | None = None) -> None:
        """A step's summary fragment, its numbers and its fits."""
        self.fragments.append(fragment)
        self.numbers.update(numbers)
        self.fits.update(fits or {})


def run_scenario(config: ScenarioConfig, out_dir=None, deterministic: bool = False,
                 samples: int | None = None, seed: int | None = None) -> ScenarioResult:
    """Execute a config's pipeline, writing artifacts and returning fits.

    ``samples`` and ``seed`` override the config's backend block.  The config
    and the overrides are parsed once (``config.build``), whether the config
    was parsed, built or changed in code, so a config whose pipeline cannot
    run raises ``ConfigError`` before any compute.
    """
    given = {key: value for key, value in (("samples", samples), ("seed", seed))
             if value is not None}
    backend = config.backend or {}  # an empty block is an absent one
    if isinstance(backend, dict):  # the parse reports any other block
        backend = backend | given
    config, models = build(replace(config, backend=backend))
    out = Path(out_dir) if out_dir is not None else Path(config.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(config=config, out_dir=out, deterministic=deterministic,
                   sources=models.sources,
                   keywords={"params": models.spin, "n_samples": config.backend["samples"],
                             "seed": config.backend["seed"]})
    PIPELINES[config.pipeline](ctx)
    if ctx.fits:
        ctx.write_json("fits", {label: fit.as_dict() for label, fit in ctx.fits.items()}
                       | {"numbers": ctx.numbers})
    else:
        ctx.write_json("result", ctx.numbers)
    return ScenarioResult(config.name, config.pipeline,
                          f"{config.name}: " + ", ".join(ctx.fragments), ctx.numbers,
                          tuple(ctx.artifacts), ctx.signals, ctx.fits)


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


# --------------------------------------------------------------------- steps

def _simulate(ctx: _Context) -> None:
    """One ensemble amplitude of the block's script or kind."""
    block = ctx.config.sequence
    if "script" in block:
        sequence = parse_sequence_script(block["script"])
    else:
        kind = block["kind"]
        sequence = build_sequence(kind, block["total_time"], **KINDS[kind].read(block))
    result = simulate_family([sequence], ctx.sources, **ctx.keywords)
    amplitude, base_phase = float(result.amplitude[0]), float(result.base_phase[0])
    ctx.report(f"{sequence.kind} over {_fmt_time(sequence.total_time)}: "
               f"amplitude {amplitude:.6f}, base phase {base_phase:.4f} rad",
               {"kind": sequence.kind,
                "total_time_s": float(sequence.total_time),
                "amplitude": amplitude,
                "base_phase_rad": base_phase}
               | _mc_numbers(result.monte_carlo, 0))


def _sweep(ctx: _Context) -> float:
    """The sweep step: amplitude versus flip fraction at the block's total
    time; returns the flip fraction of its peak."""
    block = ctx.config.sequence
    total_time = block["total_time"]
    keys = KINDS["unbalanced_echo"].read(block) | {"total_time": total_time}
    [signal] = scans([("unbalanced_echo", keys, "flip_fraction",
                       realize_grid(block["flip_fractions"]))], ctx.sources, **ctx.keywords)
    peak = int(np.argmax(signal.y))
    fraction, amplitude = float(signal.x[peak]), float(signal.y[peak])
    sampling = _mc_numbers(signal.monte_carlo, peak)
    ctx.write_signal("sweep", signal)
    ctx.report(f"sweep at t = {_fmt_time(total_time)} peaks at tau/t = {fraction:.4f} "
               f"(amplitude {amplitude:.4f})"
               + (f", truncated mass {sampling['truncated_mass']:.4f}" if sampling else ""),
               {"total_time_s": float(total_time), "argmax_flip_fraction": fraction,
                "peak_amplitude": amplitude} | sampling)
    return fraction


def _compare(ctx: _Context, protected: dict) -> None:
    """The compare step: the protected scan of ``protected`` and the
    unprotected one of ``sequence.compare``, each of the kind the config
    builds the block as and both evaluated as one family, their exponential
    fits, and the fitted coherence times and their ratio, the improvement."""
    specs = []
    compare = ctx.config.sequence["compare"]
    for path, block in (("sequence", protected), ("sequence.compare", compare)):
        kind = block_kind(ctx.config.pipeline, path, block)
        specs.append((kind, KINDS[kind].read(block), "total_time", realize_grid(block["times"])))
    signals = dict(zip(("protected", "unprotected"), scans(specs, ctx.sources, **ctx.keywords)))
    fits = {}
    for label, signal in signals.items():
        ctx.write_signal(label, signal)
        fits[label] = fit_exponential(signal.x, signal.y)
    t2_p, t2_u = (fits[label]["coherence_time"] for label in ("protected", "unprotected"))
    ctx.report(f"unprotected T2* = {_fmt_time(t2_u)}, protected T2* = {_fmt_time(t2_p)}, "
               f"improvement {t2_p / t2_u:.1f}x",
               {"protected_T2_s": t2_p, "unprotected_T2_s": t2_u, "improvement": t2_p / t2_u},
               fits)


def _rate_table(ctx: _Context) -> None:
    """Decay-rate tables over flip fraction, one family per nuclear branch,
    and the vee or line fit of each branch."""
    block = ctx.config.sequence
    pairs = block["pairs"] if "pairs" in block else (block["pair"],)
    fractions = realize_grid(block["flip_fractions"])
    times = realize_grid(block["times"])
    echo = KINDS["unbalanced_echo"]
    keys = echo.keys | echo.read(block)

    table = RateTable(metadata={"scenario": ctx.config.name})
    for pair in pairs:
        # one family per branch: the decay scan of every flip fraction
        signals = scans([("unbalanced_echo", keys | {"pair": pair, "flip_fraction": float(f)},
                          "total_time", times) for f in fractions], ctx.sources, **ctx.keywords)
        for fraction, scan in zip(fractions, signals):
            fit = fit_exponential(scan.x, scan.y)
            t2 = fit["coherence_time"]
            t2_var = float(fit.covariance[1, 1])
            rate_error = np.sqrt(t2_var) / t2**2 if np.isfinite(t2_var) else None
            table.add(pair, (keys["ms_free"], keys["ms_flipped"]), float(fraction), 1.0 / t2,
                      rate_error)
    ctx.write_table("rates", table)

    fits = {",".join(map(format_projection, p)): fit_vee(table.filter(pair=p)) for p in pairs}
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
    ctx.report(", ".join(summary_bits), numbers, fits)


def _protection_study(ctx: _Context) -> None:
    """The sweep step, then the compare step with the protected echo at the
    sweep's peak."""
    fraction = _sweep(ctx)
    _compare(ctx, ctx.config.sequence | {"kind": "unbalanced_echo", "flip_fraction": fraction})


PIPELINES = {
    "simulate": _simulate,
    "decay_compare": lambda ctx: _compare(ctx, ctx.config.sequence),
    "pulse_sweep": _sweep,
    "rate_table_vee": _rate_table,
    "protection_study": _protection_study,
}
