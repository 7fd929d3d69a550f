"""Monolithic single-level LP baseline (no profit constraint).

The cutting-plane master's ratings block (rating columns, ratio rows
and the budget row) plus every day's dispatch block, coupled through
the rating columns and solved as one LP.  This is the ground truth for
correctness checks on small instances and the reference method for the
scaling benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import lp_core
from .dispatch import add_day_block, solve_ed
from .lp_core import LPBuilder
from .master import add_ratings
from .model import Network, Plan, StorageTech, TypicalDay, snapped


@dataclass
class OracleResult:
    plan: Plan
    system_cost: float
    build_time: float
    solve_time: float
    rows: int
    cols: int
    nonzeros: int


def build_monolithic(net: Network, days: list[TypicalDay], tech: StorageTech,
                     budget: float | None) -> lp_core.ArrayLP:
    """The master's ratings block (see :func:`~.master.add_ratings`),
    its columns costed at the capital costs, then one weighted dispatch
    block per day whose storage rows read the rating columns."""
    lp = LPBuilder(name="monolithic")
    rating = add_ratings(lp, tech, len(net.candidate_buses), budget)
    lp.c[rating] = tech.c_p, tech.c_e
    for day in days:
        add_day_block(lp, net, day, tech, rating, weight=day.weight)
    return lp.build()


def solve_monolithic(net: Network, days: list[TypicalDay], tech: StorageTech,
                     budget: float | None = None) -> OracleResult:
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    t0 = time.perf_counter()
    lp = build_monolithic(net, days, tech, budget)
    t1 = time.perf_counter()
    sol = lp_core.solve(lp)
    t2 = time.perf_counter()
    if sol.status == "infeasible":
        # no plan is feasible, so neither is the zero plan: name its first
        # infeasible day (solve_ed raises DispatchInfeasibleError)
        for day in days:
            solve_ed(net, day, Plan(), tech)
    if sol.status != "optimal":
        raise lp_core.LPError(f"monolithic LP {sol.status}")
    pe = snapped(sol.x[lp.cols["rating"]])
    return OracleResult(
        plan=Plan(dict(zip(net.candidate_buses, pe))),
        system_cost=sol.objective,
        build_time=t1 - t0, solve_time=t2 - t1,
        rows=lp.n_rows, cols=lp.n_vars, nonzeros=lp.nnz(),
    )


@dataclass
class GapReport:
    saving_ratio: float
    decomposition_saving: float
    oracle_saving: float
    passed: bool


def compare_to_oracle(decomp_cost: float, oracle_cost: float,
                      baseline_cost: float, epsilon: float = 0.05) -> GapReport:
    """Saving ratio of the decomposition against the monolithic optimum."""
    dec_saving = baseline_cost - decomp_cost
    ora_saving = baseline_cost - oracle_cost
    tiny = 1e-6 * max(1.0, abs(baseline_cost))
    if ora_saving <= tiny:
        if dec_saving > tiny:
            raise ValueError(
                "decomposition reports saving where the oracle finds none")
        return GapReport(1.0, dec_saving, ora_saving, True)
    ratio = dec_saving / ora_saving
    return GapReport(ratio, dec_saving, ora_saving,
                     ratio >= 1.0 - epsilon - 1e-9)
