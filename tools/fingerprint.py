"""One SHA-256 over the results of a fixed set of planning runs.

Two versions of ``storageplan`` that print the same digest return the
same results bit for bit: plans, costs, bounds, iteration records, outer
rounds, cuts, and each day's dispatch (cost, duality gap, dispatch,
LMPs and rating duals), and the oracle's plan and cost.  Wall times are
left out.  The runs are:

* the ``days10``, ``siting`` and ``evaluate`` benchmark workloads
  (``perfbench/workloads.py``) at seeds 1-3, two demand draws each, each
  followed by its oracle solve;
* ``outer_loop`` on ``random_instance(0..3, n_buses=8, n_days=2)`` at a
  required return of 5;
* ``inner_loop`` and ``outer_loop`` (return 1) on the bundled ``m2``,
  ``m2_outer`` and ``neglmp`` cases.

``storageplan`` is imported from ``PYTHONPATH``; the benchmark inputs
are read from the ``perfbench/`` next to this directory.  From the root
of a checkout,

    PYTHONPATH=src python3 tools/fingerprint.py

fingerprints that checkout, and ``PYTHONPATH=<other checkout>/src``
another one on the same inputs.  It takes under a minute on 2 cores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from storageplan import instances, planner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_SEEDS = (1, 2, 3)
BENCH_DRAWS = 2
RANDOM_SEEDS = range(4)
RANDOM_CHI = 5.0
BUNDLED = (instances.m2, instances.m2_outer, instances.neglmp)
# wall times differ from run to run
UNTIMED = {"timings", "build_time", "solve_time"}


def _feed(h, value):
    """Write ``value`` into the hash ``h`` exactly, tagged by type: a
    float by its hex digits, an array by its dtype, shape and bytes, a
    dataclass field by field."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif isinstance(value, float):
        h.update(f"f{value.hex()};".encode())
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__}{value!r};".encode())
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        _feed(h, {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value) if f.name not in UNTIMED})
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def digest(runs: Iterable[tuple[str, object]]) -> str:
    """The SHA-256 of ``(name, result)`` pairs, in order."""
    h = hashlib.sha256()
    for name, result in runs:
        _feed(h, name)
        _feed(h, result)
    return h.hexdigest()


def bundled_runs(inst: instances.Instance) -> Iterator[tuple[str, object]]:
    """``inner_loop`` at the case's budget, then ``outer_loop`` at a
    required return of 1 from that budget."""
    net, days, tech = inst.net, inst.days, inst.tech
    yield (f"{inst.name}/inner",
           planner.inner_loop(net, days, tech, inst.budget))
    yield (f"{inst.name}/outer",
           planner.outer_loop(net, days, tech, 1.0, budget_init=inst.budget))


def random_runs() -> Iterator[tuple[str, object]]:
    for seed in RANDOM_SEEDS:
        inst = instances.random_instance(seed, n_buses=8, n_days=2)
        yield (f"{inst.name}/outer",
               planner.outer_loop(inst.net, inst.days, inst.tech, RANDOM_CHI,
                                  budget_init=inst.budget))


def benchmark_runs() -> Iterator[tuple[str, object]]:
    """Each benchmark workload's planning call and oracle solve on each
    of its inputs."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for w in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for inst in workloads.build_inputs(w, seed, BENCH_DRAWS):
                result = workloads.plan(w, inst)
                yield inst.name, result
                yield (f"{inst.name}/oracle",
                       workloads.solve_oracle(w, inst, result))


def all_runs() -> Iterator[tuple[str, object]]:
    yield from benchmark_runs()
    yield from random_runs()
    for make in BUNDLED:
        yield from bundled_runs(make())


if __name__ == "__main__":
    print(digest(all_runs()))
