"""Scaling benchmark: decomposition vs the monolithic LP as the number
of typical days grows on a fixed seeded network."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import instances, oracle, planner


@dataclass
class BenchRow:
    n_days: int
    decomposition_time: float
    monolithic_time: float
    decomposition_cost: float
    monolithic_cost: float


_N_BUSES = 10   # buses of the benchmark network
SIZES = (1, 3, 5, 10)   # day counts benchmarked by default


def scaling_benchmark(seed: int = 0, sizes: tuple[int, ...] = SIZES,
                      epsilon: float = 0.05) -> list[BenchRow]:
    if min(sizes) < 1:
        raise ValueError("bench sizes must be positive")
    if seed < 0:
        raise ValueError("bench seed must be nonnegative")
    base = instances.random_instance(seed, n_buses=_N_BUSES,
                                     n_days=max(sizes))
    rows = []
    for n in sizes:
        days = base.days[:n]
        t0 = time.perf_counter()
        dec = planner.inner_loop(base.net, days, base.tech, base.budget,
                                 epsilon=epsilon)
        t1 = time.perf_counter()
        mono = oracle.solve_monolithic(base.net, days, base.tech, base.budget)
        t2 = time.perf_counter()
        rows.append(BenchRow(n, t1 - t0, t2 - t1, dec.system_cost,
                             mono.system_cost))
    return rows


def format_bench(rows: list[BenchRow]) -> str:
    out = ["# n_days decomposition_s monolithic_s dec_cost mono_cost"]
    for r in rows:
        out.append(f"{r.n_days} {r.decomposition_time:.3f} "
                   f"{r.monolithic_time:.3f} {r.decomposition_cost:.2f} "
                   f"{r.monolithic_cost:.2f}")
    return "\n".join(out) + "\n"
