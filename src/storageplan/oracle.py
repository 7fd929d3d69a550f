"""Monolithic single-level LP baseline (no profit constraint).

All per-day dispatch blocks are coupled to shared investment variables
and solved as one LP.  This is the ground-truth for correctness checks
on small instances and the reference method for the scaling benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import lp_core
from .dispatch import add_day_block, solve_ed
from .lp_core import GE, LE, LPBuilder
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
    """Rating columns (pR, eR) per candidate bus with their ratio rows,
    the optional budget row, then one weighted dispatch block per day
    whose storage rows read the rating columns."""
    lp = LPBuilder(name="monolithic")
    ratings = lp.add_cols((len(net.candidate_buses), 2))
    pR, eR = ratings[:, 0], ratings[:, 1]
    lp.c[pR] = tech.c_p
    lp.c[eR] = tech.c_e
    ratio = lp.add_rows(ratings.shape)
    lp.set_rows(ratio[:, 0], GE, 0.0, (pR, 1.0), (eR, -tech.rho_min))
    lp.set_rows(ratio[:, 1], LE, 0.0, (pR, 1.0), (eR, -tech.rho_max))
    if budget is not None:
        lp.set_rows(lp.add_rows(1), LE, budget, (pR, tech.c_p),
                    (eR, tech.c_e))
    for day in days:
        add_day_block(lp, net, day, tech, list(net.candidate_buses),
                      weight=day.weight, p_col=pR, e_col=eR)
    lp.cols = {"rating": ratings}
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
