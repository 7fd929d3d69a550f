"""Investment subgradients and cutting-plane cut assembly.

At buses holding storage the weighted rating-constraint duals give the
sensitivity of system cost to the power and energy ratings directly.
At empty buses those duals carry no information (the rating rows never
bind at zero rating), so the value of a marginal unit is found with a
price-taker profit-maximization LP for a 1 MWh device whose power/energy
ratio is itself optimized; its optimum is then projected onto the two
rating coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp_core
from .dispatch import DispatchSolution, add_storage_block
from .lp_core import LPBuilder
from .model import Network, Plan, StorageTech, TypicalDay


@dataclass(frozen=True)
class Cut:
    """One supporting (approximately) hyperplane of the system-cost surface.

    ``point_p``/``point_e`` are the inquiry-point ratings and
    ``g_p``/``g_e`` the subgradient entries, all aligned with ``buses``.
    ``branch`` records which formula produced each entry ("BE" or "BN").
    """

    iteration: int
    buses: tuple[str, ...]
    point_p: tuple[float, ...]
    point_e: tuple[float, ...]
    sampled_cost: float
    g_p: tuple[float, ...]
    g_e: tuple[float, ...]
    branch: tuple[str, ...]

    def predicted_cost(self, plan: Plan) -> float:
        val = self.sampled_cost
        for b, pp, pe, gp, ge in zip(self.buses, self.point_p, self.point_e,
                                     self.g_p, self.g_e):
            val += gp * (plan.power(b) - pp) + ge * (plan.energy(b) - pe)
        return val


def subgrad_installed(sols: dict[str, DispatchSolution], weights: dict[str, float],
                      tech: StorageTech, plan: Plan) -> dict[str, tuple[float, float]]:
    """Subgradients at installed buses from the weighted rating duals."""
    out = {}
    for b in plan.installed_buses():
        gp = tech.c_p
        ge = tech.c_e
        for day_id, sol in sols.items():
            w = weights[day_id]
            c = sol.bus_col(b)
            gp += w * float(np.sum(sol.phi_ch[:, c] + sol.phi_dis[:, c]))
            ge += w * float(np.sum(sol.phi_soc[:, c]))
        out[b] = (gp, ge)
    return out


def _name(bus: str) -> str:
    return f"sgsp[{bus}]"


def _sgsp_costs(days: list[TypicalDay], prices: dict[str, DispatchSolution],
                tech: StorageTech, bus: str) -> np.ndarray:
    """Objective of :func:`build_sgsp`'s LP at ``prices``."""
    blocks = [np.array([tech.c_p, 0.0])]
    for day in days:
        sol = prices[day.day_id]
        w = day.weight
        lam = sol.lmp[:, sol.bus_col(bus)]
        blocks.append(np.column_stack((
            w * (lam / tech.eta_ch + tech.c_ch),
            w * (-lam * tech.eta_dis + tech.c_dis),
            w * (-sol.lam_ru * tech.eta_dis + tech.c_eu),
            w * (-sol.lam_rd / tech.eta_ch + tech.c_ed),
            np.zeros(day.n_hours))).ravel())
    return np.concatenate(blocks)


def build_sgsp(days: list[TypicalDay], prices: dict[str, DispatchSolution],
               tech: StorageTech, bus: str) -> lp_core.ArrayLP:
    """Price-taker LP for a marginal 1 MWh unit at ``bus``.

    Columns are the unit's power/energy ratio rho (the power rating,
    since the energy rating is normalized to 1 MWh), its energy rating,
    a column fixed at 1 at no cost, and then its dispatch over every
    typical day, hour by hour in
    :data:`~storageplan.dispatch.STORAGE_COLS` order.  Prices are frozen
    at the current iteration's duals; they enter the objective only.
    The optimal objective is the net daily cost of the unit excluding
    the energy-capital constant ``c_e``.
    """
    lp = LPBuilder(name=_name(bus))
    rho, energy = lp.add_cols(2)
    lp.lb[rho] = tech.rho_min
    lp.ub[rho] = tech.rho_max
    lp.lb[energy] = lp.ub[energy] = 1.0
    for day in days:
        x = lp.add_cols((day.n_hours, 1, 5))
        add_storage_block(lp, x, lp.add_rows(x.shape), tech, rho, energy)
    lp.c = _sgsp_costs(days, prices, tech, bus)
    lp.cols = {"rho": rho}
    return lp.build()


def solve_sgsp(days: list[TypicalDay], prices: dict[str, DispatchSolution],
               tech: StorageTech, bus: str, starts: dict | None = None
               ) -> tuple[float, float]:
    """Return (g0, rho0): marginal-unit net daily cost and its P/E ratio.

    ``starts`` is the store of :func:`lp_core.solve` (a fresh one when
    none is given); the LP held there for ``bus`` is re-solved with the
    new prices' costs, not rebuilt."""
    if starts is None:
        starts = {}
    lp = lp_core.held(starts, _name(bus))
    if lp is None:
        lp = build_sgsp(days, prices, tech, bus)
    else:
        lp = replace(lp, c=_sgsp_costs(days, prices, tech, bus))
    sol = lp_core.solve(lp, starts)
    if sol.status != "optimal":
        raise RuntimeError(f"marginal-unit LP {sol.status} at bus {bus}")
    return sol.objective + tech.c_e, float(sol.x[lp.cols["rho"]])


def split_subgradient(g0: float, rho0: float) -> tuple[float, float]:
    """Project the marginal-unit value onto the rating coordinates."""
    return g0 * rho0 / (1.0 + rho0), g0 / (1.0 + rho0)


def compute_subgradients(net: Network, days: list[TypicalDay],
                         sols: dict[str, DispatchSolution], plan: Plan,
                         tech: StorageTech, starts: dict | None = None
                         ) -> tuple[dict[str, tuple[float, float]],
                                    dict[str, str]]:
    """Subgradient pair and branch tag for every candidate bus; ``starts``
    holds the marginal-unit LPs loaded (see :func:`solve_sgsp`)."""
    if starts is None:
        starts = {}
    weights = {day.day_id: day.weight for day in days}
    grads = subgrad_installed(sols, weights, tech, plan)
    branch = {b: "BE" for b in grads}
    for b in net.candidate_buses:
        if b not in grads:
            grads[b] = split_subgradient(
                *solve_sgsp(days, sols, tech, b, starts))
            branch[b] = "BN"
    return grads, branch


def revenue_identity(plan: Plan, subgrads: dict[str, tuple[float, float]],
                     tech: StorageTech) -> float:
    """Storage revenue reconstructed from the installed-bus subgradients."""
    total = 0.0
    for b, (p, e) in plan.ratings.items():
        gp, ge = subgrads[b]
        total -= (gp - tech.c_p) * p + (ge - tech.c_e) * e
    return total


def assemble_cut(net: Network, plan: Plan, sampled_cost: float,
                 subgrads: dict[str, tuple[float, float]],
                 branch: dict[str, str], iteration: int) -> Cut:
    buses = tuple(net.candidate_buses)
    missing = [b for b in buses if b not in subgrads]
    if missing:
        raise ValueError(f"missing subgradient for buses {missing}")
    return Cut(
        iteration=iteration,
        buses=buses,
        point_p=tuple(plan.power(b) for b in buses),
        point_e=tuple(plan.energy(b) for b in buses),
        sampled_cost=sampled_cost,
        g_p=tuple(subgrads[b][0] for b in buses),
        g_e=tuple(subgrads[b][1] for b in buses),
        branch=tuple(branch[b] for b in buses),
    )

