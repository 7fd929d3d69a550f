"""Benchmark workloads: seeded inputs, one planning operation, its checks.

Each workload fixes one network from ``instances.random_instance`` (its
``base_seed``) and draws the rest of its input from the run's seed: every
hourly demand value is scaled by a factor drawn uniformly from
``1 +- DEMAND_JITTER``.  The inputs therefore differ from seed to seed
while the amount of planning work stays comparable.  Redrawing whole
networks instead moves the cutting-plane iteration count of a 10-bus,
10-day instance between 1 and 19 across seeds 1-8, which would swamp any
change to a single layer.

A run draws a few such inputs and cycles through them, because the
oracle's single large LP takes 20-40% longer on some draws than on
others.  One operation is one call of the workload's planner entry point
followed by ``oracle.solve_monolithic`` on the same input; :func:`check`
then compares the two.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from storageplan import dispatch, instances, lp_core, oracle, planner
from storageplan.model import Plan

EPSILON = 0.05
DEMAND_JITTER = 0.002
LB_TOL = 1e-6        # relative slack on "lower bound <= oracle optimum"
RETURN_TOL = 1e-6    # the outer loop's own slack on "revenue >= chi * cost"


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                      # planner entry point: inner_loop,
                                    # outer_loop or evaluate_plan
    base_seed: int                  # random_instance seed of the network
    n_buses: int
    n_days: int
    why: str
    # self-time shares of one traced planning call (oracle excluded) at
    # the commit that introduced the benchmark (2 cores, Python 3.11.7,
    # numpy 2.4.6, scipy 1.17.1); "highs" is time inside scipy's linprog,
    # "lp_core" the array conversion around it, "dispatch" LP building,
    # extraction and glue
    seed_split: dict[str, float]
    all_candidates: bool = False    # every bus may hold storage
    chi: float | None = None        # required rate of return (outer_loop)
    unit_rating: tuple[float, float] | None = None  # (MW, MWh) per candidate


WORKLOADS = (
    Workload(
        name="days10", entry="inner_loop", base_seed=1, n_buses=10,
        n_days=10,
        why="north-star size: per-day dispatch LPs dominate, few master "
            "iterations and sgsp LPs; days repeat across sweeps",
        seed_split={"highs": 0.580, "dispatch": 0.251, "lp_core": 0.158,
                    "subgradient": 0.009, "planner": 0.001, "master": 0.000},
    ),
    Workload(
        name="siting", entry="outer_loop", base_seed=4, n_buses=12,
        n_days=3, all_candidates=True, chi=10.0,
        why="where should storage go: every bus a candidate, two "
            "rate-of-return rounds, many master calls and sgsp LPs",
        seed_split={"highs": 0.622, "dispatch": 0.180, "lp_core": 0.153,
                    "subgradient": 0.042, "master": 0.003, "planner": 0.001},
    ),
    Workload(
        name="evaluate", entry="evaluate_plan", base_seed=1, n_buses=10,
        n_days=10, unit_rating=(2.0, 4.0),
        why="one dispatch pass at a fixed plan: no master, no sgsp, no "
            "repeated (day, storage set); reuse is bypassed here",
        seed_split={"highs": 0.561, "dispatch": 0.292, "lp_core": 0.146,
                    "planner": 0.001},
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def build_inputs(w: Workload, seed: int,
                 variants: int) -> list[instances.Instance]:
    """``variants`` seeded demand draws on the workload's network, then a
    first-call warm-up: one zero-storage dispatch of the first day."""
    base = instances.random_instance(w.base_seed, n_buses=w.n_buses,
                                     n_days=w.n_days)
    net = base.net
    if w.all_candidates:
        net = dataclasses.replace(net, candidate_buses=net.buses)
    rng = np.random.default_rng(seed)
    inputs = []
    for k in range(variants):
        days = []
        for day in base.days:
            demand = {
                b: tuple(np.asarray(prof) * rng.uniform(
                    1.0 - DEMAND_JITTER, 1.0 + DEMAND_JITTER, len(prof)))
                for b, prof in day.demand.items()
            }
            days.append(dataclasses.replace(day, demand=demand))
        inputs.append(dataclasses.replace(
            base, name=f"{w.name}-{seed}.{k}", net=net, days=days))
    dispatch.solve_ed(net, inputs[0].days[0], Plan(), base.tech)
    return inputs


def fixed_plan(w: Workload, inst: instances.Instance) -> Plan:
    power, energy = w.unit_rating
    return Plan({b: (power, energy) for b in inst.net.candidate_buses})


def plan(w: Workload, inst: instances.Instance) -> planner.PlanResult:
    """One call of the workload's entry point.  Names are looked up on
    the module at call time so that a tracer's rebinding takes effect."""
    if w.entry == "inner_loop":
        return planner.inner_loop(inst.net, inst.days, inst.tech,
                                  inst.budget, epsilon=EPSILON)
    if w.entry == "outer_loop":
        return planner.outer_loop(inst.net, inst.days, inst.tech, w.chi,
                                  budget_init=inst.budget, epsilon=EPSILON)
    return planner.evaluate_plan(inst.net, inst.days, inst.tech,
                                 fixed_plan(w, inst))


def oracle_budget(w: Workload, inst: instances.Instance,
                  result: planner.PlanResult) -> float | None:
    """Budget the oracle solves at: the final round's budget after the
    rate-of-return loop, the fixed plan's own cost for an evaluation."""
    if w.entry == "outer_loop":
        return result.outer_trace[-1].budget
    if w.entry == "evaluate_plan":
        return result.investment_cost
    return inst.budget


def solve_oracle(w: Workload, inst: instances.Instance,
                 result: planner.PlanResult) -> oracle.OracleResult:
    return oracle.solve_monolithic(inst.net, inst.days, inst.tech,
                                   oracle_budget(w, inst, result))


def fingerprint(result: planner.PlanResult,
                ora: oracle.OracleResult) -> tuple:
    return (tuple(sorted(result.plan.ratings.items())), result.system_cost,
            ora.system_cost)


def check(w: Workload, inst: instances.Instance, result: planner.PlanResult,
          ora: oracle.OracleResult, first: tuple | None
          ) -> tuple[float, list[str]]:
    """Saving ratio against the oracle and the list of failed checks.

    ``first`` is the fingerprint of the run's first operation on the
    same input, which every repeat must reproduce bit for bit.
    """
    failures = []
    if not result.converged:
        failures.append("not converged")
    gap = oracle.compare_to_oracle(result.system_cost, ora.system_cost,
                                   result.baseline_cost, EPSILON)
    slack = LB_TOL * max(1.0, abs(ora.system_cost))
    if w.entry == "evaluate_plan":
        worst = max(s.duality_gap for s in result.solutions.values())
        if not worst <= lp_core.GAP_TOL:
            failures.append(f"dispatch duality gap {worst!r} > GAP_TOL")
        if not result.system_cost >= ora.system_cost - slack:
            failures.append("fixed plan costs less than the oracle optimum")
    elif not result.return_unachievable:
        if not gap.passed:
            failures.append(f"saving ratio {gap.saving_ratio!r} "
                            f"< 1 - {EPSILON}")
        if not result.lower_bound <= ora.system_cost + slack:
            failures.append(f"lower bound {result.lower_bound!r} exceeds "
                            f"oracle optimum {ora.system_cost!r}")
    if w.chi is not None and not result.return_unachievable:
        built = result.investment_cost > planner.default_budget_min(inst.tech)
        if built and not result.achieved_return >= w.chi - RETURN_TOL:
            failures.append(f"achieved return {result.achieved_return!r} "
                            f"< chi {w.chi}")
    if first is not None and fingerprint(result, ora) != first:
        failures.append("plan or cost differs from the first repeat")
    return gap.saving_ratio, failures
