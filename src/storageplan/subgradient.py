"""Investment subgradients and cutting-plane cuts.

Subgradients, like the ratings they apply to, are ``[candidate, (p, e)]``
grids in ``net.candidate_buses`` order.  At buses holding storage the
weighted rating-constraint duals of the day dispatch LPs give the
sensitivity of system cost to the power and energy ratings directly
(:func:`rating_subgradients`).  At empty buses those duals carry no
information (the rating rows never bind at zero rating), so the value of
a marginal unit is found with a price-taker profit-maximization LP for a
1 MWh device whose power/energy ratio is itself optimized; its optimum
is then projected onto the two rating coordinates
(:func:`split_subgradient`).  The LP's rows do not depend on the bus,
only its costs do, so a planning call holds one marginal-unit LP loaded
in HiGHS, named by its list of days, and re-costs it bus by bus
(:func:`solve_sgsp`); an LP that does not end optimal is an
:class:`~storageplan.lp_core.LPError`.  A cut
sampled at ratings ``point`` is the row
``z >= sampled_cost + sum(g * (pe - point))`` over that grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp_core
from .dispatch import DispatchSolution, add_storage_block
from .lp_core import LPBuilder
from .model import Network, StorageTech, TypicalDay, snapped


@dataclass(frozen=True, eq=False)
class Cut:
    """One supporting (approximately) hyperplane of the system-cost
    surface, sampled at the ``[candidate, (p, e)]`` ratings ``point``
    with the subgradient grid ``g``."""

    point: np.ndarray
    sampled_cost: float
    g: np.ndarray

    def predicted_cost(self, pe: np.ndarray) -> float:
        """The cut's value at the ratings grid ``pe``."""
        return self.sampled_cost + float(np.sum(self.g * (pe - self.point)))


def rating_subgradients(net: Network, days: list[TypicalDay],
                        sols: dict[str, DispatchSolution],
                        tech: StorageTech) -> np.ndarray:
    """``[c_p, c_e] + sum_d w_d * [sum_t (phi_ch + phi_dis), sum_t phi_soc]``
    at the candidate buses, day by day in ``days`` order, each bus's hours
    summed pairwise as ``np.sum`` does: the subgradient grid where storage
    is installed."""
    bi = net.bus_index()
    at = [bi[b] for b in net.candidate_buses]
    g = np.tile([tech.c_p, tech.c_e], (len(at), 1))
    for day in days:
        sol = sols[day.day_id]
        g = g + day.weight * np.column_stack((
            (sol.phi_ch + sol.phi_dis).T[at].sum(axis=1),
            sol.phi_soc.T[at].sum(axis=1)))
    return g


def _name(days: list[TypicalDay]) -> str:
    """The store key of the one marginal-unit LP of every bus over
    ``days``: their ids and hours, in order."""
    return "sgsp[" + ",".join(f"{d.day_id}:{d.n_hours}" for d in days) + "]"


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
    the energy-capital constant ``c_e``.  Only the costs depend on
    ``bus``.
    """
    lp = LPBuilder(name=_name(days))
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

    ``starts`` is the store of :func:`lp_core.solve`, if any (none holds
    nothing).  It holds one marginal-unit LP for every bus over
    ``days``: the LP held there is re-costed with ``bus``'s prices and
    HiGHS re-solves it from the last bus's basis.  Another day list has
    its own LP."""
    lp = lp_core.held(starts, _name(days))
    lp = (build_sgsp(days, prices, tech, bus) if lp is None
          else replace(lp, c=_sgsp_costs(days, prices, tech, bus)))
    sol = lp_core.solve(lp, starts)
    if sol.status != "optimal":
        raise lp_core.LPError(f"marginal-unit LP {sol.status} at bus {bus}")
    return sol.objective + tech.c_e, float(sol.x[lp.cols["rho"]])


def split_subgradient(g0: float, rho0: float) -> tuple[float, float]:
    """Project the marginal-unit value onto the rating coordinates."""
    return g0 * rho0 / (1.0 + rho0), g0 / (1.0 + rho0)


def compute_subgradients(net: Network, days: list[TypicalDay],
                         sols: dict[str, DispatchSolution], pe: np.ndarray,
                         tech: StorageTech, starts: dict | None = None
                         ) -> np.ndarray:
    """The subgradient grid at the ratings grid ``pe`` dispatched as
    ``sols``: :func:`rating_subgradients`, with each row that ``snapped(pe)``
    leaves empty overwritten by its split marginal-unit value, solved in
    candidate order from the store ``starts`` (see :func:`solve_sgsp`)."""
    if starts is None:
        starts = {}
    g = rating_subgradients(net, days, sols, tech)
    for k in np.flatnonzero(snapped(pe)[:, 0] == 0):
        g[k] = split_subgradient(*solve_sgsp(
            days, sols, tech, net.candidate_buses[k], starts))
    return g


def revenue_identity(pe: np.ndarray, g: np.ndarray,
                     tech: StorageTech) -> float:
    """Storage revenue reconstructed from the subgradient grid ``g`` at
    the ratings grid ``pe``; a bus rated below the installed threshold
    dispatches nothing."""
    return float(np.sum(((tech.c_p, tech.c_e) - g) * snapped(pe)))
