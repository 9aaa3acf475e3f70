"""The benchmark's workloads: what one op is, and how its output is checked.

Every workload is a closed loop: one benchmark process runs one op at a time,
with nothing concurrent and Monte Carlo ``workers`` left at the config
default of 1.  Ops are drawn in rounds that hold every op kind once, in an
order the workload seed shuffles, so each run sees the same mix.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import yaml

from spans import installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

REL_TOL = 1e-6      # catches a physics change, allows last-ulp reordering
ABS_TOL = 1e-12

# fig4 truncates its 300 K, 25 K-wide Lorentzian to [0 K, 300 K + 50 widths],
# i.e. -12 to +50 widths, so the clipped Cauchy mass is known exactly.
FIG4_TRUNCATED_MASS = 1.0 - (math.atan(50.0) + math.atan(12.0)) / math.pi

CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    kind: str
    latency_s: float
    error: str | None
    output: object


def mismatches(actual, expected, path=""):
    """Differences between a produced value and its reference, as text."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(actual[key], value, f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {actual!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(mismatches(a, e, f"{path}[{i}]"))
        return out
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        return [] if ok else [f"{path}: {actual!r} != reference {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != reference {expected!r}"]


def check_scenario(kind, numbers, seed):
    """Problems with one scenario op's numbers; empty when it is right.

    Closed-form scenarios do not depend on the seed and always match the
    reference.  fig4 matches it only at the seed it was recorded with; at
    every seed it must meet the seed-independent windows.
    """
    if kind != "fig4":
        return mismatches(numbers, REFERENCE["scenarios"][kind], kind)
    problems = []
    argmax = numbers.get("argmax_flip_fraction", math.nan)
    if not 0.16 <= argmax <= 0.19:
        problems.append(f"fig4 argmax_flip_fraction {argmax!r} outside [0.16, 0.19]")
    if not numbers.get("improvement", 0.0) >= 100.0:
        problems.append(f"fig4 improvement {numbers.get('improvement')!r} below 100")
    if not numbers.get("n_samples", 0) >= 1_000_000:
        problems.append(f"fig4 n_samples {numbers.get('n_samples')!r} below 1e6")
    mass = numbers.get("truncated_mass", math.nan)
    if not abs(mass - FIG4_TRUNCATED_MASS) <= 1e-9:
        problems.append(f"fig4 truncated_mass {mass!r} != analytic {FIG4_TRUNCATED_MASS!r}")
    if seed == REFERENCE["reference_seed"]:
        problems.extend(mismatches(numbers, REFERENCE["scenarios"]["fig4"], "fig4"))
    return problems


def _grid_size(spec):
    return spec["count"] if isinstance(spec, dict) else len(spec)


def grid_points(config):
    """Grid points a scenario config asks for: the sum of its sequence and
    compare blocks' flip-fraction and time grids."""
    blocks = (config.sequence, config.sequence.get("compare") or {})
    return sum(_grid_size(block[key]) for block in blocks
               for key in ("flip_fractions", "times") if block.get(key) is not None)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, cwd):
    """Run one child process to completion with its output in files.

    Returns (exit code, wall seconds, peak RSS in KiB, stdout, stderr).
    The child is reaped with wait4, which reports its own peak RSS.
    """
    cwd = Path(cwd)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    stderr = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss, stdout, stderr


_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import nvecho
for name in sys.argv[1:]:
    nvecho.load_packaged_scenario(name)
print(time.perf_counter() - start)
"""


def setup_seconds(configs, cwd):
    """Seconds a fresh interpreter needs to import nvecho and load
    ``configs`` (packaged scenario names), timed inside the child."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, *configs], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class ScenarioWorkload:
    """In-process ops: each loads a packaged scenario config and runs it
    through ``nvecho.run_scenario`` with the workload seed as the MC seed
    override."""

    kinds: tuple = ()
    min_ops = 1

    def __init__(self, work, seed):
        self.out = Path(work) / "out"
        self.seed = seed
        self.grid = {}

    @property
    def setup_configs(self):
        return self.kinds

    def prepare(self):
        import nvecho

        self.nvecho = nvecho
        self.out.mkdir()
        self.grid = {k: grid_points(nvecho.load_packaged_scenario(k)) for k in self.kinds}

    def tracing(self, tracer):
        return installed(tracer)

    def run_op(self, kind, tracer=None):
        nv = self.nvecho   # attribute lookups, so traced runs see patched names
        start = time.perf_counter()
        try:
            config = nv.load_packaged_scenario(kind)
            result = nv.run_scenario(config, out_dir=self.out, deterministic=True,
                                     seed=self.seed)
        except Exception as exc:  # an op that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return Op(kind, time.perf_counter() - start,
                      f"raised {type(exc).__name__}: {exc}", None)
        return Op(kind, time.perf_counter() - start, None, result.numbers)

    def check(self, op):
        return check_scenario(op.kind, op.output, self.seed)

    def science(self, op):
        return op.output

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ProtectionFig4(ScenarioWorkload):
    kinds = ("fig4",)
    min_ops = 2     # a mean of two ~15 s ops, however fast the machine


class ClosedFormSuite(ScenarioWorkload):
    kinds = ("fig1c", "fig1d", "fig2")


SEQUENCE_SCRIPT = """\
pair 0 -1
evolve 1.148ms ms=0
flip-e ms=+1
evolve 252us ms=+1
"""


class CliOneshot:
    """Fresh ``python -m nvecho.cli`` processes, one at a time."""

    kinds = ("reproduce_fig1d", "fit_signal", "fit_rates", "calibrate", "parse_seq")
    setup_configs = ("fig1d",)
    min_ops = 1

    def __init__(self, work, seed):
        self.work = Path(work)
        self.inputs = self.work / "inputs"
        self.seed = seed
        self.grid = dict.fromkeys(self.kinds, 0)
        self.n_ops = 0
        self.child_rss_kib = 0

    def prepare(self):
        """Write the signal CSV, rate-table CSV and pulse script the ops read."""
        self.inputs.mkdir()
        for name in ("fig1c", "fig2"):
            code, _, _, _, err = run_child(
                [sys.executable, "-m", "nvecho.cli", "reproduce", name,
                 "--out", str(self.inputs), "--deterministic"], self.work)
            if code != 0:
                raise RuntimeError(f"generating the {name} input failed: {err.strip()}")
        (self.inputs / "seq.txt").write_text(SEQUENCE_SCRIPT, encoding="utf-8")

    def tracing(self, tracer):
        # each traced op installs the hooks in its own child process
        return contextlib.nullcontext()

    def _args(self, kind, op_dir):
        if kind == "reproduce_fig1d":
            return ["reproduce", "fig1d", "--out", str(op_dir), "--deterministic"]
        if kind == "fit_signal":
            return ["fit", str(self.inputs / "fig1c-protected.csv"), "--deterministic"]
        if kind == "fit_rates":
            return ["fit", str(self.inputs / "fig2-rates.csv"), "--pair", "0,-1",
                    "--deterministic"]
        if kind == "calibrate":
            return ["calibrate-response", "--out", str(op_dir / "calibrated.yaml"),
                    "--deterministic"]
        return ["parse-seq", str(self.inputs / "seq.txt")]

    def run_op(self, kind, tracer=None):
        op_dir = self.work / "ops" / str(self.n_ops)
        self.n_ops += 1
        op_dir.mkdir(parents=True)
        args = self._args(kind, op_dir)
        if tracer is None:
            cmd = [sys.executable, "-m", "nvecho.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(op_dir / "spans.json"),
                   *args]
        code, wall, rss, stdout, stderr = run_child(cmd, op_dir)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return Op(kind, wall, f"exit {code}: {tail[0]}", None)
        if tracer is not None:
            tracer.merge_file(op_dir / "spans.json", tracer.op_id)
        return Op(kind, wall, None, (op_dir, stdout))

    def _output(self, op):
        """The op's parsed result: a document, or parse-seq's text."""
        op_dir, stdout = op.output
        if op.kind == "reproduce_fig1d":
            return json.loads((op_dir / "fig1d-result.json").read_text(encoding="utf-8"))
        if op.kind == "calibrate":
            return yaml.safe_load((op_dir / "calibrated.yaml").read_text(encoding="utf-8"))
        if op.kind == "parse_seq":
            return stdout
        return json.loads(stdout)

    def _reference(self, kind):
        if kind == "reproduce_fig1d":
            return REFERENCE["scenarios"]["fig1d"]
        if kind == "calibrate":
            return {"models": REFERENCE["cli"]["calibrate_models"]}
        return REFERENCE["cli"][kind]

    def check(self, op):
        try:
            output = self._output(op)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            return [f"{op.kind}: unreadable output: {exc}"]
        return mismatches(output, self._reference(op.kind), op.kind)

    def science(self, op):
        """The checked part of a passing op's output."""
        output = self._output(op)
        reference = self._reference(op.kind)
        return {key: output[key] for key in reference} if isinstance(reference, dict) else output

    def peak_rss_kib(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.child_rss_kib)


WORKLOADS = {
    "protection_fig4": ProtectionFig4,
    "closed_form_suite": ClosedFormSuite,
    "cli_oneshot": CliOneshot,
}
