"""Cutting-plane master problem over the investment variables.

Minimizes the piecewise-linear under-estimate of system cost subject to
power/energy-ratio bounds and the investment budget.  The investment
variables are a ``[candidate, (p, e)]`` rating grid ``pe`` with those
rows (:func:`add_ratings`, the monolithic LP's too), and each cut is the
row ``z >= sampled_cost + sum(g * (pe - point))`` over it (see
:class:`~storageplan.subgradient.Cut`).  Because every dispatch cost is
nonnegative, ``z >= investment cost`` is a globally valid epigraph
row; it keeps the first master solve bounded when no budget is set.
The master returns a ratings grid: the cut model's vertex clipped into
the ratio rows, shaded by a relative 1e-7 towards zero, then
:func:`~storageplan.model.snapped`.
Shading keeps the ratio and budget rows and puts the grid on the
low-storage side of any kink of the cost surface at the vertex, where
prices (and so storage revenue) are ambiguous.  :func:`level_point`
finds the level-bundle query over the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from . import lp_core
from .lp_core import GE, LE, ArrayLP, LPBuilder
from .model import StorageTech, snapped
from .subgradient import Cut


@dataclass
class MasterState:
    candidate_buses: list[str]
    tech: StorageTech
    budget: float | None          # None means no investment limit
    baseline_cost: float = math.nan   # system cost of the zero plan
    cuts: list[Cut] = field(default_factory=list)
    best_cost: float = field(init=False)
    best: np.ndarray = field(init=False)    # ratings grid of the best sample
    lower_bound: float = field(init=False)
    # the day dispatch LPs and the marginal-unit LP held loaded in HiGHS
    # (see lp_core.solve), shared by the inner loops of one planning call
    starts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.reset_bounds()

    def add_cut(self, cut: Cut):
        self.cuts.append(cut)

    def record_sample(self, pe: np.ndarray, cost: float):
        if cost < self.best_cost:
            self.best_cost = cost
            self.best = pe

    def reset_bounds(self):
        """Start a fresh inner loop (cuts are kept; they stay valid)."""
        self.best_cost = math.inf
        self.best = np.zeros((len(self.candidate_buses), 2))
        self.lower_bound = -math.inf


def _cut_rhs(cut: Cut) -> float:
    """``sampled_cost - sum(g * point)``, accumulated bus by bus."""
    rhs = cut.sampled_cost
    for term in (cut.g * cut.point).sum(axis=1):
        rhs -= term
    return rhs


def add_ratings(lp: LPBuilder, tech: StorageTech, n: int,
                budget: float | None) -> np.ndarray:
    """Append the investment block of ``n`` candidate buses, shared by
    the master and the monolithic LP: the ``[candidate, (p, e)]``
    rating columns ``cols["rating"]`` (at cost 0), their power/energy
    ratio rows and, when ``budget`` is set, the budget row.  Returns the
    rating grid."""
    pe = lp.cols["rating"] = lp.add_cols((n, 2))
    ratio = lp.rows["ratio"] = lp.add_rows((n, 2))
    lp.set_rows(ratio[:, 0], GE, 0.0, (pe[:, 0], 1.0),
                (pe[:, 1], -tech.rho_min))
    lp.set_rows(ratio[:, 1], LE, 0.0, (pe[:, 0], 1.0),
                (pe[:, 1], -tech.rho_max))
    if budget is not None:
        row = lp.rows["budget"] = lp.add_rows(())
        lp.set_rows(row, LE, budget, (pe, [tech.c_p, tech.c_e]))
    return pe


def _shaded(pe: np.ndarray, tech: StorageTech) -> np.ndarray:
    """The ratings grid ``pe`` with its power ratings clipped into the
    ratio rows, which an LP vertex meets only to its tolerances, then
    shaded by a relative 1e-7 towards zero and snapped.  Inside the rows
    the clip changes nothing."""
    p, e = pe.T
    p = np.clip(p, tech.rho_min * e, tech.rho_max * e)
    return snapped(np.column_stack((p, e)) * (1 - 1e-7))


def _build_master(state: MasterState) -> ArrayLP:
    """The cut model: a free ``z`` column, then the ratings block."""
    tech = state.tech
    lp = LPBuilder("master")
    z = lp.cols["z"] = lp.add_cols(())
    lp.c[z] = 1.0
    lp.lb[z] = -math.inf
    pe = add_ratings(lp, tech, len(state.candidate_buses), state.budget)
    # dispatch costs are nonnegative, so system cost >= investment cost
    floor = lp.rows["capital_floor"] = lp.add_rows(())
    lp.set_rows(floor, GE, 0.0, (z, 1.0), (pe, [-tech.c_p, -tech.c_e]))
    # cut k: z - sum(g_k * pe) >= sampled cost - sum(g_k * point_k)
    cuts = lp.rows["cut"] = lp.add_rows(len(state.cuts))
    lp.set_rows(cuts, GE, [_cut_rhs(cut) for cut in state.cuts], (z, 1.0))
    lp.add_terms(cuts[:, None, None], pe, -np.reshape(
        [cut.g for cut in state.cuts], (len(state.cuts), *pe.shape)))
    return lp.build()


def solve_master(state: MasterState) -> tuple[np.ndarray, float]:
    """Minimize the cut model; return its ratings grid, clipped into the
    ratio rows, shaded towards zero and snapped (:func:`_shaded`), and
    the lower bound.  A cut model that HiGHS's dual simplex cannot
    finish is solved again by interior point, as every LP is (see
    :func:`lp_core.solve`); one that does not end optimal is an
    :class:`~storageplan.lp_core.LPError`."""
    if not state.cuts:
        raise ValueError("master requires at least one cut")
    lp = _build_master(state)
    sol = lp_core.solve(lp)
    if sol.status != "optimal":
        raise lp_core.LPError(f"master solve returned {sol.status}")
    # shading towards zero keeps the ratio rows, lowers the capital cost
    # and moves the grid off a kink at the vertex to its low-storage side
    return _shaded(sol.x[lp.cols["rating"]], state.tech), sol.objective


# a level query's cut-model value is at most lb + _LEVEL * (best - lb)
_LEVEL = 0.3


def level_point(state: MasterState, centre: np.ndarray,
                lb: float) -> np.ndarray | None:
    """The level-bundle query (Lemarechal, Nemirovskii & Nesterov 1995):
    the ratings grid nearest ``centre`` whose cut-model value is at most
    ``lb + _LEVEL * (best cost - lb)``, given the master's lower bound
    ``lb``, within the ratio and budget rows; ``None`` when none is
    found.

    :func:`_build_master`'s rows with ``z`` at that level, and the
    ratings' lower bounds, read ``G pe >= h``.  The nearest grid is a
    least-distance program, solved as Lawson & Hanson (1974) do: by
    nonnegative least squares on ``[G.T; f] u = (0, .., 0, 1)`` with
    ``f = h - G centre``, each row scaled to a largest coefficient of 1.
    (HiGHS's QP solver, given the same rows, stopped short on most such
    QPs of larger networks.)  The grid is clipped into the ratio rows,
    which it meets only to rounding, shaded and snapped as
    :func:`solve_master`'s is (:func:`_shaded`)."""
    lp = _build_master(state)
    z, pe = lp.cols["z"], lp.cols["rating"].ravel()
    level = lb + _LEVEL * (state.best_cost - lb)
    A = lp.A.toarray()
    # the master has no equality rows: -sense turns each row into ">="
    G = np.vstack((A[:, pe] * -lp.sense[:, None], np.eye(pe.size)))
    h = np.concatenate(((lp.rhs - level * A[:, z]) * -lp.sense, lp.lb[pe]))
    c = np.ravel(centre)
    scale = np.abs(G).max(axis=1)
    scale[scale == 0.0] = 1.0
    G, f = G / scale[:, None], (h - G @ c) / scale
    E = np.vstack((G.T, f))
    target = np.zeros(pe.size + 1)
    target[-1] = 1.0
    try:
        u, _ = nnls(E, target)
    except RuntimeError:    # its iteration limit
        return None
    r = E @ u - target
    if not r[-1] < -1e-12:  # r = 0: no grid meets the rows
        return None
    return _shaded((c - r[:-1] / r[-1]).reshape(-1, 2), state.tech)


def convergence_check(state: MasterState, epsilon: float) -> bool:
    """True when the optimality gap is within ``epsilon`` of the estimated
    maximum system cost saving."""
    if not math.isfinite(state.lower_bound) or not math.isfinite(state.best_cost):
        return False
    gap = state.best_cost - state.lower_bound
    max_saving = state.baseline_cost - state.lower_bound
    return gap <= epsilon * max_saving + 1e-9 * max(1.0, abs(state.baseline_cost))
