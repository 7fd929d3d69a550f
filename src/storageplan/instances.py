"""Ready-made planning instances: tiny analytic cases, read from the
bundled examples or derived from them, and a seeded random-instance
generator used by the benchmark and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import datafiles
from .dispatch import DispatchInfeasibleError
from .model import Generator, Line, Network, Plan, StorageTech, TypicalDay
from .planner import dispatch_all


@dataclass(frozen=True)
class Instance:
    name: str
    net: Network
    days: list[TypicalDay]
    tech: StorageTech
    budget: float | None = None


def simple_tech(c_p: float = 1.0, c_e: float = 1.0, rho_min: float = 0.1,
                rho_max: float = 4.0, eta: float = 1.0,
                **kwargs) -> StorageTech:
    """Lossless unit-capital tech for analytic examples."""
    return StorageTech(c_p=c_p, c_e=c_e, rho_min=rho_min, rho_max=rho_max,
                       eta_ch=eta, eta_dis=eta, **kwargs)


def _bundled(name: str) -> Instance:
    """The example case shipped in ``data/examples/<name>``."""
    def read(kind):
        path = f"data/examples/{name}/{kind}.txt"
        return resources.files("storageplan").joinpath(path).read_text(), path

    return Instance(name, datafiles.parse_network(*read("network")),
                    datafiles.parse_days(*read("days")),
                    datafiles.parse_tech(*read("tech")))


def m1() -> Instance:
    """:func:`m2` with one flat-priced generator; storage can never save
    anything."""
    base = m2()
    return replace(base, name="m1", net=replace(base.net, generators=(
        Generator("g1", "b1", 100.0, 0.0, 1e6, 1e6, 20.0, 0.0, 0.0),)))


def m2() -> Instance:
    """Cheap/expensive generator pair with a price spread of 40.

    Without storage the cheap unit is at capacity in the peak hour and
    the marginal prices are (10, 50); operating cost 60*10 + 60*10
    + 20*50 + ... = 2100.
    """
    return _bundled("m2")


def m2_outer() -> Instance:
    """Variant of :func:`m2` with tight cheap capacity and pricier
    storage, tuned so the required-return loop has work to do."""
    base = m2()
    cheap, dear = base.net.generators
    return replace(base, name="m2_outer",
                   net=replace(base.net,
                               generators=(replace(cheap, g_max=70.0), dear)),
                   tech=replace(base.tech, c_p=15.0, c_e=15.0), budget=450.0)


def neglmp() -> Instance:
    """Negative-price pocket where lossy simultaneous charge/discharge
    is optimal (it destroys surplus energy more cheaply than spilling).

    Bus b1 has 100 MW of renewables against 10 MW of demand and a 30 MW
    export line; spilling costs 50/MWh.  The locational price at b1 is
    -50, the exact-relaxation condition fails there, and a 20 MW / 20 MWh
    device with round-trip efficiency 0.72 burns energy by cycling.
    """
    return _bundled("neglmp")


_N_HOURS = 24   # hours in a day of a random instance


def _demand_shape(rng: np.random.Generator) -> np.ndarray:
    """Double-peaked daily shape in [0.4, 1]."""
    h = np.arange(_N_HOURS)
    base = (0.55
            + 0.25 * np.exp(-((h - 8.5) ** 2) / 8.0)
            + 0.45 * np.exp(-((h - 18.5) ** 2) / 10.0))
    noise = rng.uniform(0.95, 1.05, _N_HOURS)
    shape = base * noise
    return shape / shape.max()


def _solar_shape(rng: np.random.Generator) -> np.ndarray:
    h = np.arange(_N_HOURS)
    shape = np.clip(np.sin((h - 5.0) / 14.0 * np.pi), 0.0, None)
    return shape * rng.uniform(0.8, 1.0, _N_HOURS)


def random_instance(seed: int, n_buses: int | None = None,
                    n_days: int | None = None) -> Instance:
    """Seeded random planning instance.

    Networks span 5-20 buses with a connected line set, 3-8 generators
    in distinct cost tiers, daily demand/solar profiles and a cheap
    storage technology whose marginal costs satisfy the exact-relaxation
    condition at every nonnegative price.
    """
    rng = np.random.default_rng(seed)
    nb = int(n_buses) if n_buses is not None else int(rng.integers(5, 21))
    nd = int(n_days) if n_days is not None else int(rng.integers(1, 6))
    buses = tuple(f"b{i + 1}" for i in range(nb))

    # spanning tree plus extra edges; parallel circuits are avoided
    edges: list[tuple[int, int]] = []
    for i in range(1, nb):
        j = int(rng.integers(0, i))
        edges.append((j, i))
    used = set(edges)
    all_pairs = [(i, j) for i in range(nb) for j in range(i + 1, nb)
                 if (i, j) not in used]
    most = min(30, len(all_pairs) + nb - 1)
    n_lines = int(rng.integers(min(max(6, nb - 1), most), most + 1))
    extra = n_lines - (nb - 1)
    if extra > 0 and all_pairs:
        picks = rng.choice(len(all_pairs), size=min(extra, len(all_pairs)),
                           replace=False)
        edges.extend(all_pairs[int(k)] for k in picks)

    peak = float(rng.uniform(30.0, 80.0)) * nb / 10.0
    line_caps = [float(rng.uniform(0.25, 0.9)) * peak for _ in edges]
    line_x = [float(rng.uniform(0.02, 0.2)) for _ in edges]

    ng = int(rng.integers(3, 9))
    tiers = np.sort(rng.uniform(5.0, 80.0, ng))
    cap_total = peak * float(rng.uniform(1.5, 2.2))
    caps = rng.dirichlet(np.ones(ng)) * cap_total
    caps = np.maximum(caps, 0.1 * cap_total / ng)
    gens = tuple(
        Generator(f"g{i + 1}", buses[int(rng.integers(0, nb))],
                  float(caps[i]), 0.0,
                  float(caps[i]) * float(rng.uniform(0.3, 1.0)),
                  float(caps[i]) * float(rng.uniform(0.3, 1.0)),
                  float(tiers[i]),
                  float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
        for i in range(ng)
    )

    load_buses = rng.choice(nb, size=max(2, nb // 2), replace=False)
    shares = rng.dirichlet(np.ones(len(load_buses)))
    ren_buses = rng.choice(nb, size=max(1, nb // 3), replace=False)

    days = []
    for d in range(nd):
        dshape = _demand_shape(rng)
        demand = {
            buses[int(b)]: tuple(peak * float(s) * dshape)
            for b, s in zip(load_buses, shares)
        }
        renewable = {}
        for b in ren_buses:
            prof = _solar_shape(rng) * peak * float(rng.uniform(0.1, 0.3))
            renewable[buses[int(b)]] = tuple(prof)
        days.append(TypicalDay(
            day_id=f"d{d + 1}", weight=float(rng.integers(1, 5)),
            n_hours=_N_HOURS, demand=demand, renewable=renewable,
            spill_max=dict(renewable)))

    eta = float(np.sqrt(0.9))
    tech = StorageTech(
        c_p=float(rng.uniform(2.0, 10.0)), c_e=float(rng.uniform(2.0, 10.0)),
        rho_min=0.1, rho_max=4.0, eta_ch=eta, eta_dis=eta,
        c_dis=3.0, c_ch=0.0, c_eu=0.3, c_ed=0.0,
    )
    candidates = tuple(
        buses[int(b)] for b in
        sorted(rng.choice(nb, size=max(2, nb // 3), replace=False))
    )

    # every bus must be able to import its peak demand over its incident
    # lines; scale the most loaded buses' corridors up when they cannot
    peak_at = {b: 0.0 for b in buses}
    for day in days:
        for b, prof in day.demand.items():
            peak_at[b] = max(peak_at[b], max(prof))
    for bi, b in enumerate(buses):
        incident = [k for k, (i, j) in enumerate(edges) if bi in (i, j)]
        need = 1.3 * peak_at[b]
        have = sum(line_caps[k] for k in incident)
        if have < need:
            factor = need / have
            for k in incident:
                line_caps[k] *= factor

    budget = None
    if rng.random() < 0.5:
        budget = float(rng.uniform(5.0, 30.0)) * (tech.c_p + tech.c_e)

    # backstop: relax all line limits until the zero-storage dispatch of
    # every day is feasible (rare; congested pockets behind two hops)
    for _ in range(8):
        lines = tuple(
            Line(f"l{k + 1}", buses[i], buses[j], line_x[k], line_caps[k])
            for k, (i, j) in enumerate(edges)
        )
        net = Network(buses, lines, gens, candidates)
        try:
            dispatch_all(net, days, Plan(), tech)
        except DispatchInfeasibleError:
            line_caps = [c * 1.5 for c in line_caps]
            continue
        break
    else:
        raise RuntimeError(f"seed {seed}: could not build a feasible instance")
    return Instance(f"rand{seed}", net, days, tech, budget)
