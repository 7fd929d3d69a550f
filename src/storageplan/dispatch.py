"""Per-typical-day economic dispatch: LP construction, solve, and pricing.

The hourly dispatch co-optimizes energy and regulation.  Storage enters
through its grid-side injections (``eta_dis * p_dis`` delivered,
``p_ch / eta_ch`` drawn), while the state-of-charge recursion tracks the
internal energy ``p_ch - p_dis``; efficiencies therefore appear in the
nodal balance and regulation rows, not in the recursion.  The initial
state of charge is zero and the end-of-day level is left free.

Dual conventions follow :mod:`storageplan.lp_core`: the nodal-balance
duals are the locational marginal prices, the regulation-requirement
duals the system regulation prices, and the storage rating rows carry
the nonpositive duals used for investment subgradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lp_core
from .lp_core import EQ, GE, LE, LPBuilder
from .model import Network, Plan, StorageTech, TypicalDay, snapped


class DispatchInfeasibleError(Exception):
    def __init__(self, day_id: str, hour: int | None):
        where = f"hour {hour}" if hour is not None else "inter-hour coupling"
        super().__init__(f"dispatch infeasible on day {day_id} ({where})")
        self.day_id = day_id
        self.hour = hour


STORAGE_COLS = ("pch", "pdis", "reu", "red", "esoc")
STORAGE_ROWS = ("soc", "chcap", "discap", "socmax", "socmin")


def add_storage_block(lp: LPBuilder, x: np.ndarray, r: np.ndarray,
                      tech: StorageTech, p_col, e_col) -> None:
    """State-of-charge and rating rows of storage units.

    ``x`` and ``r`` are ``[hour, unit, 5]`` grids of the units' columns
    (:data:`STORAGE_COLS`) and rows (:data:`STORAGE_ROWS`).  The power
    and energy rating columns ``p_col``/``e_col`` (per unit, or shared)
    enter the capacity rows with coefficient -1 and a zero rhs.  The
    state of charge starts at zero and its column is free: nonnegativity
    is the socmin row, which keeps the dual recursion clean.
    """
    pch, pdis, reu, red, esoc = (x[..., k] for k in range(5))
    soc, chcap, discap, socmax, socmin = (r[..., k] for k in range(5))
    lp.lb[esoc] = -np.inf
    lp.set_rows(soc, EQ, 0.0, (esoc, 1.0), (pch, -1.0), (pdis, 1.0))
    lp.add_terms(soc[1:], esoc[:-1], -1.0)
    lp.set_rows(chcap, LE, 0.0, (pch, 1.0), (red, 1.0), (p_col, -1.0))
    lp.set_rows(discap, LE, 0.0, (pdis, 1.0), (reu, 1.0), (p_col, -1.0))
    lp.set_rows(socmax, LE, 0.0, (esoc, 1.0), (red, tech.t_es),
                (e_col, -1.0))
    lp.set_rows(socmin, GE, 0.0, (esoc, 1.0), (reu, -tech.t_es))


def add_day_block(lp: LPBuilder, net: Network, day: TypicalDay,
                  tech: StorageTech, rating: np.ndarray, weight: float = 1.0
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Append one day's dispatch columns and rows to ``lp``.

    Columns and rows are hour-major.  Each hour holds the columns
    (pg, rgu, rgd) per generator, (prs, th) per bus, f per line and
    :data:`STORAGE_COLS` per candidate bus, then the rows bal per bus,
    regup, regdn, (gmax, gmin, rampup, rampdn) per generator (no ramp
    rows in the first hour), flow per line and :data:`STORAGE_ROWS` per
    candidate bus.  Every candidate bus holds a storage unit whose
    ratings are the ``[candidate, (p, e)]`` column grid ``rating``.
    Objective coefficients are scaled by ``weight``.  Returns the
    ``[hour, entity]`` index grids of every column and row kind.
    """
    T = day.n_hours
    gens, lines, cands = net.generators, net.lines, net.candidate_buses
    ng, nb, nl, ns = len(gens), len(net.buses), len(lines), len(cands)
    bi = net.bus_index()
    gen_bus = [bi[g.bus] for g in gens]
    from_bus = [bi[ln.from_bus] for ln in lines]
    to_bus = [bi[ln.to_bus] for ln in lines]
    store = [bi[b] for b in cands]

    def gen_attr(name):
        return np.array([getattr(g, name) for g in gens], dtype=float)

    def profile(kind):
        return np.array([day.profile(kind, b) for b in net.buses],
                        dtype=float).reshape(nb, T).T

    x = lp.add_cols((T, 3 * ng + 2 * nb + nl + 5 * ns))
    g = x[:, :3 * ng].reshape(T, ng, 3)
    bus = x[:, 3 * ng:3 * ng + 2 * nb].reshape(T, nb, 2)
    cols = {"pg": g[..., 0], "rgu": g[..., 1], "rgd": g[..., 2],
            "prs": bus[..., 0], "th": bus[..., 1],
            "f": x[:, 3 * ng + 2 * nb:3 * ng + 2 * nb + nl]}
    xs = x[:, 3 * ng + 2 * nb + nl:].reshape(T, ns, 5)
    cols.update(zip(STORAGE_COLS, (xs[..., k] for k in range(5))))

    lp.c[cols["pg"]] = weight * gen_attr("c_g")
    lp.c[cols["rgu"]] = weight * gen_attr("c_gu")
    lp.ub[cols["rgu"]] = tech.t_ru * gen_attr("ramp_up")
    lp.c[cols["rgd"]] = weight * gen_attr("c_gd")
    lp.ub[cols["rgd"]] = tech.t_rd * gen_attr("ramp_down")
    lp.c[cols["prs"]] = weight * day.c_rs
    lp.ub[cols["prs"]] = profile("spill_max")
    lp.lb[cols["th"][:, 1:]] = -np.inf    # the first bus is the reference
    lp.ub[cols["th"][:, 1:]] = np.inf
    lp.ub[cols["th"][:, 0]] = 0.0
    capacity = np.array([ln.capacity for ln in lines], dtype=float)
    lp.lb[cols["f"]] = -capacity
    lp.ub[cols["f"]] = capacity
    for kind, cost in zip(STORAGE_COLS[:4],
                          (tech.c_ch, tech.c_dis, tech.c_eu, tech.c_ed)):
        lp.c[cols[kind]] = weight * cost

    g0 = nb + 2
    width = g0 + 4 * ng + nl + 5 * ns
    present = np.ones((T, width), dtype=bool)
    present[0, g0 + 2:g0 + 4 * ng:4] = False     # no ramp rows in hour 1
    present[0, g0 + 3:g0 + 4 * ng:4] = False
    r = lp.add_rows((T, width), present)
    gr = r[:, g0:g0 + 4 * ng].reshape(T, ng, 4)
    rows = {"bal": r[:, :nb], "regup": r[:, nb], "regdn": r[:, nb + 1],
            "gmax": gr[..., 0], "gmin": gr[..., 1],
            "rampup": gr[1:, :, 2], "rampdn": gr[1:, :, 3],
            "flow": r[:, g0 + 4 * ng:g0 + 4 * ng + nl]}
    rs = r[:, g0 + 4 * ng + nl:].reshape(T, ns, 5)
    rows.update(zip(STORAGE_ROWS, (rs[..., k] for k in range(5))))

    # nodal power balance
    demand, renewable = profile("demand"), profile("renewable")
    bal = rows["bal"]
    lp.set_rows(bal, EQ, demand - renewable, (cols["prs"], -1.0))
    lp.add_terms(bal[:, gen_bus], cols["pg"], 1.0)
    lp.add_terms(bal[:, from_bus], cols["f"], -1.0)
    lp.add_terms(bal[:, to_bus], cols["f"], 1.0)
    lp.add_terms(bal[:, store], cols["pdis"], tech.eta_dis)
    lp.add_terms(bal[:, store], cols["pch"], -1.0 / tech.eta_ch)

    # system regulation requirements, summed bus by bus
    req = np.zeros(T)
    for k in range(nb):
        req = req + (day.phi_r * renewable[:, k] + day.phi_d * demand[:, k])
    up, dn = rows["regup"][:, None], rows["regdn"][:, None]
    lp.set_rows(rows["regup"], GE, req)
    lp.add_terms(up, cols["rgu"], 1.0)
    lp.add_terms(up, cols["reu"], tech.eta_dis)
    lp.set_rows(rows["regdn"], GE, req)
    lp.add_terms(dn, cols["rgd"], 1.0)
    lp.add_terms(dn, cols["red"], 1.0 / tech.eta_ch)

    # generator capacity with regulation headroom, and ramp limits
    pg = cols["pg"]
    lp.set_rows(rows["gmax"], LE, gen_attr("g_max"), (pg, 1.0),
                (cols["rgu"], 1.0))
    lp.set_rows(rows["gmin"], GE, gen_attr("g_min"), (pg, 1.0),
                (cols["rgd"], -1.0))
    lp.set_rows(rows["rampup"], LE, gen_attr("ramp_up"), (pg[1:], 1.0),
                (pg[:-1], -1.0))
    lp.set_rows(rows["rampdn"], GE, -gen_attr("ramp_down"), (pg[1:], 1.0),
                (pg[:-1], -1.0))

    # dc power flow definition
    reactance = np.array([ln.reactance for ln in lines], dtype=float)
    th = cols["th"]
    lp.set_rows(rows["flow"], EQ, 0.0, (cols["f"], 1.0),
                (th[:, from_bus], -1.0 / reactance),
                (th[:, to_bus], 1.0 / reactance))

    add_storage_block(lp, xs, rs, tech, rating[:, 0], rating[:, 1])
    return cols, rows


def _ratings(net: Network, plan: Plan, tech: StorageTech) -> np.ndarray:
    """Checked ``[candidate, (power, energy)]`` ratings, snapped: exactly
    zero where nothing is installed."""
    plan.check_ratio_bounds(tech)
    for b in plan.ratings:
        if b not in net.candidate_buses:
            raise ValueError(f"plan bus {b} is not a storage candidate")
    return snapped(plan.grid(net.candidate_buses))


def build_ed(net: Network, day: TypicalDay, plan: Plan, tech: StorageTech
             ) -> lp_core.ArrayLP:
    """The economic-dispatch LP for one typical day at a fixed plan.

    Every candidate bus gets a storage unit.  Its ratings are columns, a
    ``[candidate, (p, e)]`` grid ``cols["rating"]`` fixed at the plan's
    ratings (exactly zero where nothing is installed), so a day's rows
    are the same whatever the plan and only those bounds depend on it.
    """
    lp = LPBuilder(name=_name(day))
    rating = lp.add_cols((len(net.candidate_buses), 2))
    lp.cols, lp.rows = add_day_block(lp, net, day, tech, rating)
    lp.cols["rating"] = rating
    return _rerated(lp.build(), net, plan, tech)


def _name(day: TypicalDay) -> str:
    return f"ed[{day.day_id}]"


def _rerated(lp: lp_core.ArrayLP, net: Network, plan: Plan,
             tech: StorageTech) -> lp_core.ArrayLP:
    """``lp`` (built by :func:`build_ed`) with its rating columns fixed at
    ``plan``'s ratings; its rows are shared, not copied."""
    rating = lp.cols["rating"]
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[rating] = ub[rating] = _ratings(net, plan, tech)
    return replace(lp, lb=lb, ub=ub)


@dataclass
class DispatchSolution:
    """Primal dispatch, prices, and rating-constraint duals for one day.

    Arrays are indexed ``[t, entity]`` with hour t running 0..n_hours-1 in
    the first axis; bus/generator/line axes follow network ordering.
    Storage columns are zero at buses without installed storage.
    """

    day_id: str
    n_hours: int
    buses: list[str]
    cost: float                 # operating cost of this day (unweighted)
    duality_gap: float
    p_g: np.ndarray
    r_gu: np.ndarray
    r_gd: np.ndarray
    p_rs: np.ndarray
    f: np.ndarray
    theta: np.ndarray
    p_ch: np.ndarray
    p_dis: np.ndarray
    r_eu: np.ndarray
    r_ed: np.ndarray
    e_soc: np.ndarray
    lmp: np.ndarray             # [t, b]
    lam_ru: np.ndarray          # [t]
    lam_rd: np.ndarray
    phi_ch: np.ndarray          # [t, b], <= 0
    phi_dis: np.ndarray
    phi_soc: np.ndarray
    psi_soc: np.ndarray         # >= 0
    gamma_e: np.ndarray
    storage_buses: list[str] = field(default_factory=list)

    def bus_col(self, bus: str) -> int:
        return self.buses.index(bus)


def extract_solution(sol: lp_core.LPSolution, net: Network, day: TypicalDay,
                     lp: lp_core.ArrayLP) -> DispatchSolution:
    """Slice the dispatch, prices and rating duals out of ``sol`` using
    the index grids of ``lp`` (built by :func:`build_ed`).

    Only installed units (a positive power rating bound) are read; the
    others are zero-rated and report zeros.
    """
    x, y = sol.x, sol.duals
    cols, rows = lp.cols, lp.rows
    T, nb = day.n_hours, len(net.buses)
    read = np.flatnonzero(lp.ub[cols["rating"][:, 0]] > 0)
    storage_buses = [net.candidate_buses[k] for k in read]
    bi = net.bus_index()
    store = [bi[b] for b in storage_buses]

    def at_buses(values):
        out = np.zeros((T, nb))
        out[:, store] = values[:, read]
        return out

    return DispatchSolution(
        day_id=day.day_id, n_hours=T, buses=list(net.buses),
        cost=sol.objective, duality_gap=lp_core.duality_gap(sol, lp),
        p_g=x[cols["pg"]], r_gu=x[cols["rgu"]], r_gd=x[cols["rgd"]],
        p_rs=x[cols["prs"]], f=x[cols["f"]], theta=x[cols["th"]],
        p_ch=at_buses(x[cols["pch"]]), p_dis=at_buses(x[cols["pdis"]]),
        r_eu=at_buses(x[cols["reu"]]), r_ed=at_buses(x[cols["red"]]),
        e_soc=at_buses(x[cols["esoc"]]),
        lmp=y[rows["bal"]], lam_ru=y[rows["regup"]], lam_rd=y[rows["regdn"]],
        phi_ch=at_buses(y[rows["chcap"]]), phi_dis=at_buses(y[rows["discap"]]),
        phi_soc=at_buses(y[rows["socmax"]]),
        psi_soc=at_buses(y[rows["socmin"]]), gamma_e=at_buses(y[rows["soc"]]),
        storage_buses=storage_buses,
    )


def _first_infeasible_hour(net: Network, day: TypicalDay, plan: Plan,
                           tech: StorageTech) -> int | None:
    """Diagnose infeasibility by solving each hour without coupling rows."""
    for t in range(1, day.n_hours + 1):
        hour = TypicalDay(
            day_id=f"{day.day_id}:h{t}", weight=1.0, n_hours=1,
            demand={b: (pr[t - 1],) for b, pr in day.demand.items()},
            renewable={b: (pr[t - 1],) for b, pr in day.renewable.items()},
            spill_max={b: (pr[t - 1],) for b, pr in day.spill_max.items()},
            c_rs=day.c_rs, phi_d=day.phi_d, phi_r=day.phi_r,
        )
        lp = build_ed(net, hour, plan, tech)
        if lp_core.solve(lp).status != "optimal":
            return t
    return None


def solve_ed(net: Network, day: TypicalDay, plan: Plan,
             tech: StorageTech, starts: dict | None = None
             ) -> DispatchSolution:
    """Dispatch one day; ``starts`` is the store of :func:`lp_core.solve`,
    a fresh one when none is given.  The day's LP is built once per
    store: a re-solve fixes the rating columns of the LP held there at
    the plan's ratings and HiGHS re-solves its loaded model."""
    if starts is None:
        starts = {}
    lp = lp_core.held(starts, _name(day))
    lp = (build_ed(net, day, plan, tech) if lp is None
          else _rerated(lp, net, plan, tech))
    sol = lp_core.solve(lp, starts)
    if sol.status != "optimal":
        raise DispatchInfeasibleError(day.day_id,
                                      _first_infeasible_hour(net, day, plan, tech))
    return extract_solution(sol, net, day, lp)


def is_held(starts: dict, day: TypicalDay) -> bool:
    """Whether ``starts`` holds ``day``'s dispatch LP."""
    return lp_core.held(starts, _name(day)) is not None


def storage_revenue(sol: DispatchSolution, tech: StorageTech,
                    weight: float) -> float:
    """Market revenue net of operating cost for all storage in one day."""
    energy = (sol.p_dis * sol.lmp * tech.eta_dis
              - sol.p_ch * sol.lmp / tech.eta_ch)
    reg = (sol.r_eu * sol.lam_ru[:, None] * tech.eta_dis
           + sol.r_ed * sol.lam_rd[:, None] / tech.eta_ch)
    opcost = (tech.c_dis * sol.p_dis + tech.c_ch * sol.p_ch
              + tech.c_eu * sol.r_eu + tech.c_ed * sol.r_ed)
    return weight * float(np.sum(energy + reg - opcost))


@dataclass
class SimultaneityReport:
    violations: list[tuple[int, str]]          # (hour 1-based, bus)
    condition_failures: list[tuple[int, str]]  # hours where the sufficient
                                               # condition does not hold


def relaxation_threshold(tech: StorageTech, lmp: float) -> float:
    """Right-hand side of the exact-relaxation sufficient condition."""
    return -(1.0 / tech.eta_dis - tech.eta_ch) * lmp


def check_no_simultaneous(sol: DispatchSolution, tech: StorageTech
                          ) -> SimultaneityReport:
    """Report simultaneous charge/discharge (both above 1e-6 MW) and where
    the sufficient condition ``c_dis + c_ch > -(1/eta_dis - eta_ch) * lmp``
    fails."""
    violations = []
    failures = []
    for k in range(sol.n_hours):
        for c, b in enumerate(sol.buses):
            if sol.p_ch[k, c] > 1e-6 and sol.p_dis[k, c] > 1e-6:
                violations.append((k + 1, b))
            if b in sol.storage_buses:
                if tech.c_dis + tech.c_ch <= relaxation_threshold(
                        tech, sol.lmp[k, c]):
                    failures.append((k + 1, b))
    return SimultaneityReport(violations, failures)


def export_dispatch_table(sol: DispatchSolution, net: Network) -> str:
    """Primal dispatch as tabular text, one row per (hour, entity)."""
    lines = ["# day hour entity kind value"]
    for k in range(sol.n_hours):
        for i, g in enumerate(net.generators):
            lines.append(f"{sol.day_id} {k+1} {g.gen_id} p_g {sol.p_g[k,i]:.6f}")
            lines.append(f"{sol.day_id} {k+1} {g.gen_id} r_gu {sol.r_gu[k,i]:.6f}")
            lines.append(f"{sol.day_id} {k+1} {g.gen_id} r_gd {sol.r_gd[k,i]:.6f}")
        for c, b in enumerate(sol.buses):
            if b in sol.storage_buses:
                for kind, arr in (("p_ch", sol.p_ch), ("p_dis", sol.p_dis),
                                  ("r_eu", sol.r_eu), ("r_ed", sol.r_ed),
                                  ("e_soc", sol.e_soc)):
                    lines.append(f"{sol.day_id} {k+1} {b} {kind} {arr[k,c]:.6f}")
            lines.append(f"{sol.day_id} {k+1} {b} p_rs {sol.p_rs[k,c]:.6f}")
    return "\n".join(lines) + "\n"


def export_price_table(sol: DispatchSolution) -> str:
    lines = ["# day hour bus lmp lam_ru lam_rd"]
    for k in range(sol.n_hours):
        for c, b in enumerate(sol.buses):
            lines.append(f"{sol.day_id} {k+1} {b} {sol.lmp[k,c]:.6f} "
                         f"{sol.lam_ru[k]:.6f} {sol.lam_rd[k]:.6f}")
    return "\n".join(lines) + "\n"
