"""nvecho benchmark: end-to-end timings, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nvecho is imported from its ``src``.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

* ``protection_fig4``   - the fig4 Monte Carlo protection study, in process.
* ``cli_oneshot``       - one fresh ``python -m nvecho.cli`` process per op.
* ``closed_form_suite`` - fig1c, fig1d and fig2 in rotation, in process.  Not
  listed in BENCHMARK.json: its pure-Python timings swing by up to 2x with
  load from other processes on a shared machine, too much for a regression
  bound, but its traced counts (simulate, coefficient and fit calls per op)
  are exact and show sweep-level changes.

With ``--trace 0`` the ops run untraced for up to S seconds (at least the
workload's minimum op count) and the end-to-end metrics are reported.  With
``--trace 1`` the ops run untraced for S/2 seconds, then with every layer
hook installed for S/2 seconds; the per-layer metrics come from the traced
half and ``trace.overhead_frac`` compares the two halves.  Every op's output
is checked against ``reference.json`` (or, for fig4 away from the reference
seed, against seed-independent windows).

Stdout ends with a run record line (``{"record": ...}``: machine, versions,
op counts, scientific numbers) and then the result line.  Scratch files go
to ``.perfbench_work/`` in the checkout and are removed; the traced run's
spans are left there as ``spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_metrics
from stats import failed_fraction
from workloads import WORKLOADS, setup_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh-interpreter set-up probes, half before and half after the timed
# phase, so that their median samples the machine over the whole run and
# not only over the few seconds before it.
SETUP_PROBES = 12


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_phase(workload, rng, seconds, min_ops, tracer=None):
    """Run whole rounds of ops within ``seconds``, and at least ``min_ops``
    ops: once those ran, a round that would end past the deadline at the
    mean round length so far is not started.  Returns the ops and the wall
    time of the phase."""
    ops = []
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed * (rounds + 1) / rounds > seconds:
            break
        rounds += 1
        kinds = list(workload.kinds)
        rng.shuffle(kinds)
        for kind in kinds:
            if tracer is not None:
                tracer.op_id = len(ops)
            ops.append(workload.run_op(kind, tracer))
    return ops, time.perf_counter() - start


def check_ops(workload, ops):
    """One outcome per op: None when it ran and its output matched."""
    outcomes = []
    for op in ops:
        if op.error is not None:
            outcomes.append(op.error)
            continue
        problems = workload.check(op)
        outcomes.append("; ".join(problems) if problems else None)
    for reason in outcomes:
        if reason is not None:
            print(f"failed op: {reason}", file=sys.stderr)
    return outcomes


def end_to_end(workload, rng, seconds, work):
    def probe():
        return [setup_seconds(workload.setup_configs, work) for _ in range(SETUP_PROBES // 2)]

    setup = probe()
    ops, wall = run_phase(workload, rng, seconds, workload.min_ops)
    setup += probe()
    rss_kib = workload.peak_rss_kib()
    latencies = [op.latency_s for op in ops]
    metrics = {
        "setup_s": statistics.median(setup),
        # A mean, not a median: on a shared host the same op runs either at
        # full speed or up to ~1.4x slower, in phases of seconds to minutes.
        # The median of such a two-peaked sample jumps from one peak to the
        # other as the slow share crosses one half; the mean moves with it.
        "op_s_mean": statistics.fmean(latencies),
        "ops_per_s": len(ops) / wall,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    extra = {"setup_s_samples": setup, "timed_wall_s": wall,
             "op_s_p50": statistics.median(latencies)}
    return ops, metrics, extra


def traced(workload, rng, seconds, name):
    plain, plain_wall = run_phase(workload, rng, seconds / 2, 1)
    tracer = Tracer()
    with workload.tracing(tracer):
        ops, wall = run_phase(workload, rng, seconds / 2, 1, tracer)
    points = sum(workload.grid[op.kind] for op in ops)
    values = layer_metrics(tracer, len(ops), points)
    values["trace.overhead_frac"] = (wall / len(ops)) / (plain_wall / len(plain)) - 1.0
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{name}.json"
    tracer.dump(spans_path)
    extra = {"untraced_ops": len(plain), "traced_ops": len(ops),
             "hooks_missing": sorted(tracer.missing),
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return plain + ops, values, extra


def cache_sizes():
    """Cache sizes of CPU 0 as the kernel reports them, e.g. {'L2': '2048K'}."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(args, ops, outcomes, workload, extra):
    from nvecho.noise import CHUNK

    science = {}
    for op, outcome in zip(ops, outcomes):
        if outcome is None and op.kind not in science:
            science[op.kind] = workload.science(op)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": len(ops),
        "ops_by_kind": dict(Counter(op.kind for op in ops)),
        "failed_frac": failed_fraction(outcomes),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_commit": git_commit(),
        "cpu_caches": cache_sizes(),
        "mc_chunk_working_set": {
            "samples": CHUNK, "bytes_per_float64_array": CHUNK * 8,
            "basis": "computed from array sizes, not measured",
        },
        "science": science,
        **extra,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nvecho" / "__init__.py").is_file():
        print(f"error: no nvecho sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("nvecho")
    if not Path(spec.origin).resolve().is_relative_to(SRC):
        print(f"error: nvecho resolves to {spec.origin}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        rng = random.Random(args.seed)
        if args.trace:
            ops, metrics, extra = traced(workload, rng, args.seconds, args.workload)
        else:
            ops, metrics, extra = end_to_end(workload, rng, args.seconds, work)
        outcomes = check_ops(workload, ops)
        record = run_record(args, ops, outcomes, workload, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units()
    failed = sum(outcome is not None for outcome in outcomes)
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
