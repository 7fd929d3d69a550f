"""Cutting-plane master problem over the investment variables.

Minimizes the piecewise-linear under-estimate of system cost subject to
power/energy-ratio bounds and the investment budget.  Because every
dispatch cost is nonnegative, ``z >= investment cost`` is a globally
valid epigraph row; it keeps the first master solve bounded when no
budget is set.  Tie-breaking among optimal plans is deterministic: a
secondary solve minimizes total installed rating with a small bias
towards low bus indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import lp_core
from .lp_core import GE, LE, LinearProgram
from .model import INSTALLED_EPS, Plan, StorageTech
from .subgradient import Cut


class MasterError(Exception):
    pass


@dataclass
class MasterState:
    candidate_buses: list[str]
    tech: StorageTech
    budget: float | None          # None means no investment limit
    baseline_cost: float = math.nan   # system cost of the zero plan
    cuts: list[Cut] = field(default_factory=list)
    best_cost: float = math.inf
    best_plan: Plan = field(default_factory=Plan)
    lower_bound: float = -math.inf
    # last optimal bases of the dispatch and marginal-unit LPs (see
    # lp_core.solve), shared by the inner loops of one planning call
    starts: dict = field(default_factory=dict, repr=False)

    def add_cut(self, cut: Cut):
        self.cuts.append(cut)

    def record_sample(self, plan: Plan, cost: float):
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_plan = plan

    def reset_bounds(self):
        """Start a fresh inner loop (cuts are kept; they stay valid)."""
        self.best_cost = math.inf
        self.best_plan = Plan()
        self.lower_bound = -math.inf


def _build_master(state: MasterState, z_level: float | None = None
                  ) -> LinearProgram:
    """The cut model.  With ``z_level`` set it becomes the tie-break LP:
    keep ``z`` within ``z_level`` and minimize total installed rating,
    with a small bias towards low bus indices."""
    tech = state.tech
    lp = LinearProgram(name="master")
    lp.add_var("z", lb=-math.inf, cost=1.0 if z_level is None else 0.0)
    for idx, b in enumerate(state.candidate_buses):
        w = 0.0 if z_level is None else 1.0 + 1e-7 * idx
        lp.add_var(f"p[{b}]", lb=0.0, cost=w)
        lp.add_var(f"e[{b}]", lb=0.0, cost=w)
        lp.add_row(f"ratio_lo[{b}]",
                   [(f"p[{b}]", 1.0), (f"e[{b}]", -tech.rho_min)], GE, 0.0)
        lp.add_row(f"ratio_hi[{b}]",
                   [(f"p[{b}]", 1.0), (f"e[{b}]", -tech.rho_max)], LE, 0.0)
    capital = [(f"p[{b}]", tech.c_p) for b in state.candidate_buses]
    capital += [(f"e[{b}]", tech.c_e) for b in state.candidate_buses]
    if state.budget is not None:
        lp.add_row("budget", capital, LE, state.budget)
    # dispatch costs are nonnegative, so system cost >= investment cost
    lp.add_row("capital_floor", [("z", 1.0)] + [(v, -c) for v, c in capital],
               GE, 0.0)
    for k, cut in enumerate(state.cuts):
        coeffs = [("z", 1.0)]
        rhs = cut.sampled_cost
        for b, pp, pe, gp, ge in zip(cut.buses, cut.point_p, cut.point_e,
                                     cut.g_p, cut.g_e):
            coeffs.append((f"p[{b}]", -gp))
            coeffs.append((f"e[{b}]", -ge))
            rhs -= gp * pp + ge * pe
        lp.add_row(f"cut[{k}]", coeffs, GE, rhs)
    if z_level is not None:
        lp.add_row("z_level", [("z", 1.0)], LE, z_level)
    return lp


def solve_master(state: MasterState) -> tuple[Plan, float]:
    """Minimize the cut model; return the inquiry plan and the lower bound."""
    if not state.cuts:
        raise MasterError("master requires at least one cut")
    sol = lp_core.solve(_build_master(state))
    if sol.status != "optimal":
        raise MasterError(f"master solve returned {sol.status}")
    z = sol.objective

    # deterministic tie-break: smallest total rating, low bus ids first
    try:
        tie_sol = lp_core.solve(
            _build_master(state, z_level=z + 1e-7 * max(1.0, abs(z))))
    except lp_core.LPError:
        tie_sol = None
    if tie_sol is not None and tie_sol.status == "optimal":
        sol = tie_sol

    ratings = {}
    for b in state.candidate_buses:
        p = max(0.0, sol.value(f"p[{b}]"))
        e = max(0.0, sol.value(f"e[{b}]"))
        # negligible ratings are snapped to zero so downstream dispatch
        # treats the bus as empty
        if p > INSTALLED_EPS or e > INSTALLED_EPS:
            ratings[b] = (p, e)
    return Plan(ratings), z


def convergence_check(state: MasterState, epsilon: float) -> bool:
    """True when the optimality gap is within ``epsilon`` of the estimated
    maximum system cost saving."""
    if not math.isfinite(state.lower_bound) or not math.isfinite(state.best_cost):
        return False
    gap = state.best_cost - state.lower_bound
    max_saving = state.baseline_cost - state.lower_bound
    return gap <= epsilon * max_saving + 1e-9 * max(1.0, abs(state.baseline_cost))
