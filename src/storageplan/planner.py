"""Inner/outer loop orchestration for storage siting and sizing.

The inner loop alternates per-day dispatch, subgradient evaluation and
the cutting-plane master until the optimality gap is within the relative
tolerance.  It dispatches at in-out query points (Ben-Ameur & Neto
2007): halfway between the master's plan and the best plan sampled so
far, which damps the oscillation of plain cutting planes.  The outer
loop enforces the minimum rate of return on storage investment by
shrinking the investment budget to (revenue / required return) and
re-running the inner loop with all accumulated cuts retained.  Those
later rounds dispatch level queries (Lemarechal, Nemirovskii & Nesterov
1995; see :func:`~storageplan.master.level_point`) instead, where in-out
steps stalled for dozens of sweeps.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dispatch import (DispatchSolution, is_held, solve_ed,
                       storage_revenue)
from .master import (MasterState, convergence_check, level_point,
                     solve_master)
from .model import (Network, Plan, StorageTech, TypicalDay, capital_cost,
                    snapped)
from .subgradient import Cut, compute_subgradients

log = logging.getLogger(__name__)

# weight of the master's plan in the in-out query point
# ``a * master plan + (1 - a) * centre``
_IN_OUT_STEP = 0.5


@dataclass
class IterationRecord:
    iteration: int
    lower_bound: float
    sampled_cost: float
    best_cost: float
    plan_nonzeros: int
    step: float     # weight of the master's plan in the dispatched
                    # plan; NaN for a level query


@dataclass
class OuterRecord:
    round: int
    budget: float | None
    investment_cost: float
    revenue: float


@dataclass
class PlanResult:
    plan: Plan
    system_cost: float          # money/day, best sampled
    baseline_cost: float        # system cost of the zero plan
    day_costs: dict[str, float]
    revenue: float              # money/day (Eq.-5 style market settlement)
    investment_cost: float
    achieved_return: float | None   # revenue / investment, None when no build
    converged: bool
    return_unachievable: bool = False
    gap: float = math.nan
    lower_bound: float = math.nan
    iterations: list[IterationRecord] = field(default_factory=list)
    outer_trace: list[OuterRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    cuts: list[Cut] = field(default_factory=list)
    solutions: dict[str, DispatchSolution] = field(default_factory=dict)

    @property
    def saving(self) -> float:
        return self.baseline_cost - self.system_cost


def dispatch_all(net: Network, days: list[TypicalDay], plan: Plan,
                 tech: StorageTech, workers: int = 1,
                 starts: dict | None = None) -> dict[str, DispatchSolution]:
    """Solve every typical day; results keyed and reduced in day order.

    ``starts`` (a fresh store when none is given) holds each day's
    dispatch LP loaded in HiGHS (see :func:`~.dispatch.solve_ed`); a day
    loaded for the first time starts from the first day's basis, so the
    first day is solved before the pool starts and threads give the
    serial result bit for bit.  Days have distinct LP names, so worker
    threads never share an entry.  Every planning call dispatches here,
    so this is where ``workers`` is checked."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if starts is None:
        starts = {}

    def one(day):
        return solve_ed(net, day, plan, tech, starts=starts)

    if workers > 1:
        first = []
        if days and not is_held(starts, days[0]):
            first = [one(days[0])]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sols = first + list(pool.map(one, days[len(first):]))
    else:
        sols = [one(day) for day in days]
    return {day.day_id: sol for day, sol in zip(days, sols)}


def _weighted_cost(days: list[TypicalDay], sols: dict[str, DispatchSolution],
                   capital: float) -> float:
    return sum(day.weight * sols[day.day_id].cost for day in days) + capital


def total_revenue(days: list[TypicalDay], sols: dict[str, DispatchSolution],
                  tech: StorageTech) -> float:
    return sum(storage_revenue(sols[day.day_id], tech, day.weight)
               for day in days)


def _result(days: list[TypicalDay], sols: dict[str, DispatchSolution],
            plan: Plan, tech: StorageTech, **fields) -> PlanResult:
    """The result at ``plan`` with the fields derived from its days'
    dispatch ``sols``: day costs, revenue, investment cost and return."""
    ce = plan.investment_cost(tech)
    cr = total_revenue(days, sols, tech)
    return PlanResult(plan=plan, day_costs={d: s.cost for d, s in sols.items()},
                      revenue=cr, investment_cost=ce,
                      achieved_return=(cr / ce) if ce > 0 else None,
                      solutions=sols, **fields)


def evaluate_plan(net: Network, days: list[TypicalDay], tech: StorageTech,
                  plan: Plan, workers: int = 1) -> PlanResult:
    """Dispatch all days at a fixed plan, then at the zero plan for the
    baseline by re-rating the day LPs held from the first pass."""
    t0 = time.perf_counter()
    starts: dict = {}
    sols = dispatch_all(net, days, plan, tech, workers, starts)
    cost = _weighted_cost(days, sols, plan.investment_cost(tech))
    # a plan with nothing installed dispatches as the zero plan does
    zero_sols = sols if plan.is_empty() else dispatch_all(
        net, days, Plan(), tech, workers, starts)
    baseline = _weighted_cost(days, zero_sols, 0.0)
    return _result(days, sols, plan, tech, system_cost=cost,
                   baseline_cost=baseline, converged=True,
                   timings={"dispatch": time.perf_counter() - t0})


def _within_budget(pe: np.ndarray, tech: StorageTech,
                   budget: float | None) -> np.ndarray:
    """``pe`` scaled down onto the budget when it costs more; scaling
    keeps the ratio rows."""
    ce = capital_cost(pe, tech)
    if budget is None or ce <= budget:
        return pe
    return snapped(pe * (budget / ce))


def _model_value(state: MasterState, pe: np.ndarray) -> float:
    """The cut model at ``pe``: its highest cut, or the capital floor."""
    return max([capital_cost(pe, state.tech)]
               + [cut.predicted_cost(pe) for cut in state.cuts])


def inner_loop(net: Network, days: list[TypicalDay], tech: StorageTech,
               budget: float | None, epsilon: float = 0.05,
               max_iter: int = 150, workers: int = 1,
               state: MasterState | None = None) -> PlanResult:
    """Cutting-plane search for the best plan within the budget.

    Each sweep dispatches the in-out query point between the master's
    ratings grid ``y`` and the centre, the best grid sampled so far.
    When the cut found there does not raise the cut model at ``y`` (the
    query mis-priced ``y``), the next sweep dispatches ``y`` itself.

    A pre-seeded ``state`` (with cuts from earlier budgets) is reused;
    its bounds are reset since the feasible region changed.  Its best
    grid, scaled onto the new budget when it costs more, is the first
    centre.  With cuts in it, each sweep dispatches the level query at
    the centre instead, or the in-out point when the level solve fails.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    timings = {"dispatch": 0.0, "subgradient": 0.0, "master": 0.0}

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[key] += time.perf_counter() - t0
        return out

    # level queries want a cut model shaped by earlier rounds: from a
    # bare one they stopped m2 at an oversized plan that earns nothing
    level = state is not None and bool(state.cuts)
    if state is None:
        state = MasterState(candidate_buses=list(net.candidate_buses),
                            tech=tech, budget=budget)
    else:
        state.budget = budget
    buses = state.candidate_buses
    centre = _within_budget(state.best, tech, budget)
    state.reset_bounds()    # the best grid is now the zero grid

    def sample(pe):
        """Dispatch the ratings grid ``pe``; its days' solutions and cut."""
        sols = timed("dispatch", dispatch_all, net, days,
                     Plan(dict(zip(buses, pe))), tech, workers, state.starts)
        cost = _weighted_cost(days, sols, float(capital_cost(pe, tech)))
        grads = timed("subgradient", compute_subgradients,
                      net, days, sols, pe, tech, state.starts)
        return sols, Cut(pe, cost, grads)

    best_sols: dict[str, DispatchSolution] | None = None
    if not state.cuts or math.isnan(state.baseline_cost):
        best_sols, cut = sample(state.best)
        state.baseline_cost = cut.sampled_cost
        state.add_cut(cut)
    state.record_sample(state.best, state.baseline_cost)

    trace: list[IterationRecord] = []
    converged = False
    step = _IN_OUT_STEP
    for nu in range(1, max_iter + 1):
        y, lb = timed("master", solve_master, state)
        state.lower_bound = lb
        if convergence_check(state, epsilon):
            converged = True
            break
        query = timed("master", level_point, state, centre, lb) \
            if level else None
        if query is None:
            # the in-out query meets the ratio and budget rows, as y and
            # the centre do
            query = snapped(step * y + (1 - step) * centre)
        else:
            step = math.nan
        sols, cut = sample(query)
        cs = cut.sampled_cost
        if cs < state.best_cost:
            best_sols, centre = sols, query
        state.record_sample(query, cs)
        # the query mis-priced y when its cut does not raise the model
        # at y (the model at y, not lb: the master shades y towards
        # zero, off its vertex, so the model at y may lie above lb)
        at_y = _model_value(state, y)
        mispriced = cut.predicted_cost(y) <= at_y + 1e-9 * max(1.0, abs(at_y))
        state.add_cut(cut)
        trace.append(IterationRecord(nu, lb, cs, state.best_cost,
                                     int(np.count_nonzero(query[:, 0])), step))
        log.debug("sweep %d: lower bound %.6f, sampled %.6f, best %.6f, "
                  "gap %.6g, step %g", nu, lb, cs, state.best_cost,
                  state.best_cost - lb, step)
        # only an in-out query retries: a level query's step is NaN
        step = 1.0 if step < 1.0 and mispriced else _IN_OUT_STEP
        if convergence_check(state, epsilon):
            converged = True
            break

    plan = Plan(dict(zip(buses, state.best)))
    if best_sols is None:
        best_sols = timed("dispatch", dispatch_all, net, days, plan, tech,
                          workers, state.starts)
    return _result(days, best_sols, plan, tech, system_cost=state.best_cost,
                   baseline_cost=state.baseline_cost, converged=converged,
                   gap=state.best_cost - state.lower_bound,
                   lower_bound=state.lower_bound, iterations=trace,
                   timings=timings, cuts=list(state.cuts))


def default_budget_min(tech: StorageTech) -> float:
    # below a milli-unit of the cheapest installable device "no build"
    # is the honest answer
    return 1e-3 * (tech.c_p + tech.c_e)


def outer_loop(net: Network, days: list[TypicalDay], tech: StorageTech,
               chi: float = 1.0, budget_init: float | None = None,
               budget_min: float | None = None, epsilon: float = 0.05,
               max_outer: int = 20, max_iter: int = 150,
               workers: int = 1) -> PlanResult:
    """Enforce revenue >= chi * investment by iterative budget reduction."""
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if math.isnan(chi):
        raise ValueError(f"chi must be a number, got {chi}")
    if chi < 1.0:
        warnings.warn(f"rate of return {chi} below 1 is vacuous; clamping to 1")
        chi = 1.0
    if budget_min is None:
        budget_min = default_budget_min(tech)
    elif not budget_min >= 0:
        raise ValueError(f"budget_min must be nonnegative, got {budget_min}")

    state = MasterState(candidate_buses=list(net.candidate_buses),
                        tech=tech, budget=budget_init)
    budget = budget_init
    outer_trace: list[OuterRecord] = []
    result: PlanResult | None = None
    for rnd in range(1, max_outer + 1):
        result = inner_loop(net, days, tech, budget, epsilon=epsilon,
                            max_iter=max_iter, workers=workers, state=state)
        ce, cr = result.investment_cost, result.revenue
        outer_trace.append(OuterRecord(rnd, budget, ce, cr))
        log.info("round %d: budget %s, investment %.6f, revenue %.6f",
                 rnd, "none" if budget is None else f"{budget:.6f}", ce, cr)
        if ce <= default_budget_min(tech) or cr >= chi * ce - 1e-6 * ce:
            result.outer_trace = outer_trace
            return result
        budget = cr / chi
        if budget < budget_min:
            empty = evaluate_plan(net, days, tech, Plan(), workers=workers)
            empty.return_unachievable = True
            empty.outer_trace = outer_trace
            return empty
    result.converged = False
    result.outer_trace = outer_trace
    return result


def format_report(result: PlanResult) -> str:
    """PlanResult as structured text with a stable schema."""
    lines = ["schema_version = 1"]
    lines.append(f"converged = {str(result.converged).lower()}")
    lines.append(f"return_unachievable = {str(result.return_unachievable).lower()}")
    lines.append(f"baseline_cost = {result.baseline_cost:.6f}")
    lines.append(f"system_cost = {result.system_cost:.6f}")
    lines.append(f"saving = {result.saving:.6f}")
    lines.append(f"investment_cost = {result.investment_cost:.6f}")
    lines.append(f"revenue = {result.revenue:.6f}")
    if result.achieved_return is None:
        lines.append("achieved_return = null")
    else:
        lines.append(f"achieved_return = {result.achieved_return:.6f}")
    lines.append("[plan]")
    for b, (p, e) in sorted(result.plan.ratings.items()):
        lines.append(f"{b} {p:.6f} {e:.6f}")
    lines.append("[day_costs]")
    for d, c in sorted(result.day_costs.items()):
        lines.append(f"{d} {c:.6f}")
    return "\n".join(lines) + "\n"


def format_trace(result: PlanResult) -> str:
    lines = ["# iteration lower_bound sampled_cost best_cost plan_nonzeros "
             "step"]
    for r in result.iterations:
        lines.append(f"{r.iteration} {r.lower_bound:.6f} {r.sampled_cost:.6f} "
                     f"{r.best_cost:.6f} {r.plan_nonzeros} {r.step:g}")
    if result.outer_trace:
        lines.append("# round budget investment_cost revenue")
        for r in result.outer_trace:
            b = "inf" if r.budget is None else f"{r.budget:.6f}"
            lines.append(f"{r.round} {b} {r.investment_cost:.6f} "
                         f"{r.revenue:.6f}")
    return "\n".join(lines) + "\n"
