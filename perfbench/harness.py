"""Measurement loop, metrics and report of the planning benchmark.

One process runs one workload as a closed loop: a single caller makes
one planning call at a time (``workers=1``, no threads of its own).
Set-up is repeated at least ``SETUP_REPEATS`` times and reported as its
median.  Operations then repeat until the next one would overrun the
run's seconds, with at least ``MIN_OPS`` of them.  An untraced run cycles
through ``VARIANTS`` seeded inputs and reports medians over all of its
operations.  A traced run uses one input; its operations alternate
between untraced and traced ones, per-layer metrics are medians over the
traced ones, and their counters must repeat exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SETUP_REPEATS = 5
SETUP_SECONDS = 4.0   # short set-ups repeat until they add up to this
MIN_OPS = 3
VARIANTS = 3   # seeded inputs an untraced run cycles through

END_TO_END_UNITS = {
    "plan_s": "s",
    "oracle_s": "s",
    "saving_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_per_call"):
        return "solves/call"
    return "count"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_op(w: workloads.Workload, inst, first: tuple | None,
           traced: bool) -> dict:
    """One planning call plus its oracle solve, timed and checked."""
    op = {"input": inst.name, "traced": traced, "failures": []}
    tracer = tracing.Tracer() if traced else None
    clock = time.perf_counter
    t0 = clock()
    try:
        with tracer or contextlib.nullcontext():
            t1 = clock()
            result = workloads.plan(w, inst)
            t2 = clock()
            ora = workloads.solve_oracle(w, inst, result)
            t3 = clock()
        op["plan_s"], op["oracle_s"] = t2 - t1, t3 - t2
        op["saving_ratio"], op["failures"] = workloads.check(
            w, inst, result, ora, first)
        op["fingerprint"] = workloads.fingerprint(result, ora)
        op["master_iterations"] = len(result.iterations)
        if tracer is not None:
            op["layers"] = tracing.summarize(tracer.spans, len(result.cuts))
            op["split"] = tracing.layer_split(tracer.spans)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        op["failures"].append(f"raised {type(exc).__name__}: {exc}")
    op["wall_s"] = clock() - t0
    return op


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _is_traced_op(k: int) -> bool:
    # the first operation is untraced, the next two traced, then alternate
    return k in (1, 2) or (k > 2 and k % 2 == 0)


def measure(w: workloads.Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        t0 = time.perf_counter()
        inputs = workloads.build_inputs(w, seed, 1 if trace else VARIANTS)
        setup_s.append(time.perf_counter() - t0)

    ops: list[dict] = []
    first: dict[str, tuple] = {}   # fingerprint of each input's first op
    start = time.perf_counter()
    while (len(ops) < MIN_OPS or time.perf_counter() - start
           + _median([op["wall_s"] for op in ops]) <= seconds):
        inst = inputs[len(ops) % len(inputs)]
        op = run_op(w, inst, first.get(inst.name),
                    trace and _is_traced_op(len(ops)))
        if "fingerprint" in op:
            first.setdefault(inst.name, op["fingerprint"])
        ops.append(op)

    timed = [op for op in ops if "plan_s" in op]
    plain = [op for op in timed if not op["traced"]]
    if trace:
        traced = [op for op in timed if "layers" in op]
        _check_counters(traced)
        # counters repeat exactly, so the first traced operation's stand in
        metrics = {
            name: (_median([op["layers"][name] for op in traced])
                   if unit_of(name) == "s" else value, unit_of(name))
            for name, value in (traced[0]["layers"] if traced else {}).items()
        }
        traced_plan_s = _median([op["plan_s"] for op in traced])
        metrics["trace.plan_s"] = (traced_plan_s, "s")
        metrics["trace.overhead_s"] = (
            traced_plan_s - _median([op["plan_s"] for op in plain]), "s")
    else:
        metrics = {
            "plan_s": _median([op["plan_s"] for op in plain]),
            "oracle_s": _median([op["oracle_s"] for op in plain]),
            "saving_ratio": _median([op["saving_ratio"] for op in plain]),
            "setup_s": _median(setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    failed = sum(1 for op in ops if op["failures"])
    return {
        "workload": asdict(w), "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(),
        "setup_s": setup_s, "ops": ops, "metrics": metrics,
        "attempted": len(ops), "failed": failed,
        "correct": failed == 0,
    }


def _check_counters(traced: list[dict]):
    """Counters of every traced operation must equal the first one's."""
    def counts(op):
        return {k: v for k, v in op["layers"].items()
                if unit_of(k) != "s"}
    for op in traced[1:]:
        if counts(op) != counts(traced[0]):
            op["failures"].append("counters differ from the first traced "
                                  "operation")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in record["metrics"].items()},
    })


def report(record: dict) -> str:
    """Human-readable lines: environment, samples and every metric."""
    env = " ".join(f"{k}={v}" for k, v in record["environment"].items())
    ops = record["ops"]
    lines = [
        f"workload {record['workload']['name']} seed {record['seed']} "
        f"trace {int(record['trace'])} seconds {record['seconds']}",
        f"environment {env}",
        f"operations attempted {record['attempted']} failed "
        f"{record['failed']} (traced {sum(op['traced'] for op in ops)})",
    ]
    for op in ops:
        for failure in op["failures"]:
            lines.append(f"FAILED: {failure}")
    plain = [op for op in ops if "plan_s" in op and not op["traced"]]
    samples = {name: [op[name] for op in plain]
               for name in ("plan_s", "oracle_s")}
    samples["setup_s"] = record["setup_s"]
    for name, (value, unit) in record["metrics"].items():
        xs = samples.get(name)
        extra = (f"  (median of {len(xs)}, min {min(xs):.4f}, "
                 f"max {max(xs):.4f})" if xs else "")
        lines.append(f"{name} = {value:.6g} {unit}{extra}")
    split = [op["split"] for op in ops if "split" in op]
    if split:
        lines.append("self-time split of the first traced planning call: "
                     + ", ".join(f"{k} {v:.3f}" for k, v in split[0].items()))
    return "\n".join(lines)


def write_record(record: dict, out_dir: Path) -> Path:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"{record['workload']['name']}-seed{record['seed']}"
                      f"-trace{int(record['trace'])}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path
