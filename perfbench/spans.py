"""Span tracing of nvecho's layers, installed from outside the program.

Each hook wraps one public function (or method) of an ``src/nvecho`` module.
A function bound elsewhere by ``from .x import y`` is patched in every
nvecho module that holds it, so calls through those names are traced too;
methods are patched on their class.  Spans are kept in memory as
``(name, start, end, parent, op_id)`` and summarised into per-layer metrics
at the end of the run.

Ops run on one thread (Monte Carlo ``workers`` stays at 1), so one stack of
open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from stats import self_times


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op_id = 0
        self.missing = set()   # hooks whose target this nvecho lacks
        self._stack = []

    def record(self, name, start, end):
        """Add a span that was timed by hand (no parent, current op)."""
        self.spans.append((name, start, end, None, self.op_id))

    def wrap(self, name, func, on_result=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if on_result is not None:
                on_result(tracer.counters, args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "missing": sorted(self.missing)}, fh)

    def merge_file(self, path, op_id):
        """Append the spans and counters a traced child process wrote."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append(
                (name, start, end, None if parent is None else parent + offset, op_id)
            )
        self.counters.update(doc["counters"])
        self.missing.update(doc["missing"])


def _count_mc(counters, args, result):
    counters["mc_samples"] += result.n_samples
    counters["mc_retained"] += result.n_retained


def _count_elements(counters, args, result):
    counters["shift_at_elements"] += getattr(args[1], "size", 1)


def _count_artifacts(counters, args, result):
    counters["artifacts"] += len(result.artifacts)
    counters["artifact_bytes"] += sum(os.path.getsize(p) for p in result.artifacts)


# (span name, module, attribute or Class.method, result hook)
HOOKS = (
    ("config.load_config", "nvecho.config", "load_config", None),
    ("script.parse_sequence_script", "nvecho.script", "parse_sequence_script", None),
    ("spin_model.phase_coefficients", "nvecho.spin_model", "phase_coefficients", None),
    ("spin_model.accumulated_phase", "nvecho.spin_model", "accumulated_phase", None),
    ("response.shift_at", "nvecho.response", "QuasiharmonicResponse.shift_at",
     _count_elements),
    ("response.calibrate_response_set", "nvecho.response", "calibrate_response_set", None),
    ("noise.dephasing_factor", "nvecho.noise", "dephasing_factor", None),
    ("noise.monte_carlo_attenuation", "nvecho.noise", "monte_carlo_attenuation", _count_mc),
    ("sequences.simulate_amplitude", "nvecho.sequences", "simulate_amplitude", None),
    ("sequences.decay_scan", "nvecho.sequences", "decay_scan", None),
    ("sequences.pulse_location_sweep", "nvecho.sequences", "pulse_location_sweep", None),
    ("sequences.phase_sweep", "nvecho.sequences", "phase_sweep", None),
    ("sequences.write_signal_csv", "nvecho.sequences", "write_signal_csv", None),
    ("sequences.write_signal_json", "nvecho.sequences", "write_signal_json", None),
    ("estimator.fit_exponential", "nvecho.estimator", "fit_exponential", None),
    ("estimator.fit_vee", "nvecho.estimator", "fit_vee", None),
    ("estimator.RateTable.write_csv", "nvecho.estimator", "RateTable.write_csv", None),
    ("scenarios.run_scenario", "nvecho.scenarios", "run_scenario", _count_artifacts),
    # scenario result JSON goes through a private writer; traced when present
    ("scenarios.write_json", "nvecho.scenarios", "_Context.write_json", None),
)

SCAN_SPANS = ("sequences.decay_scan", "sequences.pulse_location_sweep",
              "sequences.phase_sweep")
ARTIFACT_SPANS = ("sequences.write_signal_csv", "sequences.write_signal_json",
                  "estimator.RateTable.write_csv", "scenarios.write_json")


@contextmanager
def installed(tracer):
    """Patch every hook for the duration of the block.  Hooks whose target
    does not exist in this version of nvecho are skipped and named in
    ``tracer.missing``."""
    undo = []
    try:
        for name, module_name, attr, on_result in HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, func_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, func_name, None)
            if original is None:
                tracer.missing.add(name)
                continue
            wrapper = tracer.wrap(name, original, on_result)
            if owner_name:
                targets = [(owner, func_name)]
            else:
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None and (mod_name == "nvecho" or mod_name.startswith("nvecho."))
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for target, key in targets:
                undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapper)
        yield
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)


def layer_metrics(tracer, n_ops, grid_points):
    """Per-op layer metrics from a traced run of ``n_ops`` ops whose configs
    hold ``grid_points`` grid points in total."""
    if n_ops <= 0:
        raise ValueError("no traced ops")
    inclusive = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        inclusive[name] += span[2] - span[1]
        own[name] += self_s
        calls[name] += 1
    c = tracer.counters
    drawn = c["mc_samples"]

    def per_op(value):
        return value / n_ops

    return {
        "noise.mc_calls": per_op(calls["noise.monte_carlo_attenuation"]),
        "noise.mc_samples_drawn": per_op(drawn),
        "noise.mc_draws_per_point": drawn / grid_points if grid_points else 0.0,
        "noise.mc_retained_ratio": c["mc_retained"] / drawn if drawn else 0.0,
        "noise.mc_self_s": per_op(own["noise.monte_carlo_attenuation"]),
        "noise.closed_form_calls": per_op(calls["noise.dephasing_factor"]),
        "noise.closed_form_s": per_op(inclusive["noise.dephasing_factor"]),
        "response.shift_at_calls": per_op(calls["response.shift_at"]),
        "response.shift_at_elements": per_op(c["shift_at_elements"]),
        "response.shift_at_s": per_op(inclusive["response.shift_at"]),
        "response.calibrate_s": per_op(inclusive["response.calibrate_response_set"]),
        "sequences.simulate_calls": per_op(calls["sequences.simulate_amplitude"]),
        "sequences.scan_calls": per_op(sum(calls[n] for n in SCAN_SPANS)),
        "sequences.simulate_self_s": per_op(own["sequences.simulate_amplitude"]),
        "spin_model.coeff_calls": per_op(calls["spin_model.phase_coefficients"]),
        "spin_model.self_s": per_op(sum(v for n, v in own.items()
                                        if n.startswith("spin_model."))),
        "estimator.fit_exponential_calls": per_op(calls["estimator.fit_exponential"]),
        "estimator.fit_exponential_s": per_op(inclusive["estimator.fit_exponential"]),
        "estimator.fit_vee_calls": per_op(calls["estimator.fit_vee"]),
        "estimator.fit_vee_s": per_op(inclusive["estimator.fit_vee"]),
        "config.load_calls": per_op(calls["config.load_config"]),
        "config.load_s": per_op(inclusive["config.load_config"]),
        "scenarios.run_s": per_op(inclusive["scenarios.run_scenario"]),
        "scenarios.artifacts_written": per_op(c["artifacts"]),
        "scenarios.artifact_bytes": per_op(c["artifact_bytes"]),
        "scenarios.artifact_write_s": per_op(sum(inclusive[n] for n in ARTIFACT_SPANS)),
        "script.parse_calls": per_op(calls["script.parse_sequence_script"]),
        "script.parse_s": per_op(inclusive["script.parse_sequence_script"]),
        "cli.import_s": per_op(inclusive["cli.import"]),
    }
