"""Domain types for the storage siting toolkit.

All quantities use a consistent unit system: power in MW, energy in MWh,
money in an abstract currency ("money", USD magnitudes in the bundled
data), time in hours.  Types are frozen dataclasses and safe to share
across worker threads.

The investment decision is a ``[candidate, (p, e)]`` ratings grid, or a
:class:`Plan` keyed by bus; :func:`snapped` decides which bus holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Line:
    line_id: str
    from_bus: str
    to_bus: str
    reactance: float  # per unit, > 0
    capacity: float   # MW, > 0


@dataclass(frozen=True)
class Generator:
    gen_id: str
    bus: str
    g_max: float      # MW
    g_min: float      # MW
    ramp_up: float    # MW/h
    ramp_down: float  # MW/h
    c_g: float        # money/MWh energy
    c_gu: float       # money/MWh regulation up
    c_gd: float       # money/MWh regulation down


@dataclass(frozen=True)
class Network:
    buses: tuple[str, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    candidate_buses: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "candidate_buses", tuple(self.candidate_buses))

    def bus_index(self) -> dict[str, int]:
        return {b: k for k, b in enumerate(self.buses)}


@dataclass(frozen=True)
class TypicalDay:
    """Weighted representative day of hourly bus-level profiles.

    ``demand``, ``renewable`` and ``spill_max`` map bus id to an hourly
    profile of length ``n_hours``; buses missing from a mapping have a
    zero profile.  ``spill_max`` is the maximum allowable renewable
    curtailment, so ``0 <= spill_max <= renewable`` holds entrywise.
    """

    day_id: str
    weight: float
    n_hours: int
    demand: dict[str, tuple[float, ...]]
    renewable: dict[str, tuple[float, ...]] = field(default_factory=dict)
    spill_max: dict[str, tuple[float, ...]] = field(default_factory=dict)
    c_rs: float = 0.0     # value of renewable spillage, money/MWh
    phi_d: float = 0.03   # regulation requirement as a fraction of demand
    phi_r: float = 0.05   # regulation requirement as a fraction of renewables

    def __post_init__(self):
        for name in ("demand", "renewable", "spill_max"):
            raw = getattr(self, name)
            object.__setattr__(
                self, name, {b: tuple(float(v) for v in p) for b, p in raw.items()}
            )

    def profile(self, kind: str, bus: str) -> tuple[float, ...]:
        return getattr(self, kind).get(bus, (0.0,) * self.n_hours)


@dataclass(frozen=True)
class StorageTech:
    """Storage technology parameters (daily prorated capital costs)."""

    c_p: float        # money/(MW day)
    c_e: float        # money/(MWh day)
    rho_min: float    # 1/h, lower bound on power/energy ratio
    rho_max: float    # 1/h
    eta_ch: float     # charging efficiency in (0, 1]
    eta_dis: float    # discharging efficiency in (0, 1]
    c_dis: float = 0.0
    c_ch: float = 0.0
    c_eu: float = 0.0
    c_ed: float = 0.0
    t_es: float = 1.0    # continuous full regulation dispatch requirement, h
    t_ru: float = 1.0    # generator regulation-up ramp window, h
    t_rd: float = 1.0    # generator regulation-down ramp window, h
    name: str = ""

    def __post_init__(self):
        if not (0 < self.rho_min <= self.rho_max < math.inf):
            raise ValueError("need 0 < rho_min <= rho_max < inf")
        if not (0 < self.eta_ch <= 1 and 0 < self.eta_dis <= 1):
            raise ValueError("efficiencies must be in (0, 1]")
        if not 0 < self.t_es < math.inf:
            raise ValueError("t_es must be positive and finite")
        for f in "c_p c_e c_dis c_ch c_eu c_ed t_ru t_rd".split():
            if not 0 <= getattr(self, f) < math.inf:
                raise ValueError(f"{f} must be nonnegative and finite")


# A bus is treated as holding storage once its power rating exceeds this;
# below it the rating-constraint duals are meaningless (rows never bind).
INSTALLED_EPS = 1e-4


def snapped(pe) -> np.ndarray:
    """The ``[candidate, (p, e)]`` ratings ``pe`` as installed: negative
    ratings clipped to zero, and every row whose power rating is at or
    below ``INSTALLED_EPS`` zeroed, energy too.  This is the one rule for
    which bus holds storage."""
    pe = np.maximum(np.asarray(pe, dtype=float).reshape(-1, 2), 0.0)
    return np.where(pe[:, :1] > INSTALLED_EPS, pe, 0.0)


def capital_cost(ratings, tech: StorageTech) -> float:
    """Investment cost of ``(p, e)`` rating pairs, summed in order."""
    return sum(tech.c_p * p + tech.c_e * e for p, e in ratings)


@dataclass(frozen=True)
class Plan:
    """Power/energy ratings per bus; absent buses mean zero.  Only
    ``(0, 0)`` entries are dropped, so :meth:`check_ratio_bounds` can name
    a negative or non-finite rating."""

    ratings: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ratings", {
            b: (float(p), float(e)) for b, (p, e) in self.ratings.items()
            if (p, e) != (0, 0)})

    def power(self, bus: str) -> float:
        return self.ratings.get(bus, (0.0, 0.0))[0]

    def energy(self, bus: str) -> float:
        return self.ratings.get(bus, (0.0, 0.0))[1]

    def grid(self, buses) -> np.ndarray:
        """The ``[bus, (p, e)]`` ratings of ``buses``, zero where absent."""
        return np.array([self.ratings.get(b, (0.0, 0.0)) for b in buses],
                        dtype=float).reshape(-1, 2)

    def installed_buses(self) -> list[str]:
        return [b for b, (p, _) in self.ratings.items() if p > INSTALLED_EPS]

    def is_empty(self) -> bool:
        return not self.installed_buses()

    def investment_cost(self, tech: StorageTech) -> float:
        return capital_cost(self.ratings.values(), tech)

    def check_ratio_bounds(self, tech: StorageTech):
        """Raise ValueError naming the first bus with a non-finite rating
        or violating the P/E ratio bounds by more than 1e-7."""
        tol = 1e-7
        for b, (p, e) in sorted(self.ratings.items()):
            if not (math.isfinite(p) and math.isfinite(e)):
                raise ValueError(f"bus {b}: non-finite rating ({p}, {e})")
            if p < -tol or e < -tol:
                raise ValueError(f"bus {b}: negative rating ({p}, {e})")
            if e > INSTALLED_EPS:
                rho = p / e
                if rho < tech.rho_min - tol or rho > tech.rho_max + tol:
                    raise ValueError(
                        f"bus {b}: power/energy ratio {rho:.6g} outside "
                        f"[{tech.rho_min}, {tech.rho_max}]"
                    )
            elif p > tech.rho_max * e + INSTALLED_EPS:
                raise ValueError(f"bus {b}: positive power with zero energy")


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_network(net: Network, days: list[TypicalDay]) -> ValidationReport:
    """Collect all invariant violations of a network and its day profiles;
    each violation of a day starts ``day <id>:``."""
    v: list[str] = [] if net.buses else ["network has no buses"]
    for kind, ids in (("bus", net.buses),
                      ("candidate bus", net.candidate_buses),
                      ("line", [ln.line_id for ln in net.lines]),
                      ("generator", [g.gen_id for g in net.generators]),
                      ("day", [day.day_id for day in days])):
        seen = set()
        for i in ids:
            if i in seen:
                v.append(f"{kind} {i}: duplicate id")
            seen.add(i)
    bus_set = set(net.buses)
    for b in net.candidate_buses:
        if b not in bus_set:
            v.append(f"candidate bus {b}: not a network bus")
    for ln in net.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in bus_set:
                v.append(f"line {ln.line_id}: unknown bus {end}")
        if ln.reactance <= 0:
            v.append(f"line {ln.line_id}: reactance must be positive")
        if ln.capacity <= 0:
            v.append(f"line {ln.line_id}: capacity must be positive")
    for g in net.generators:
        if g.bus not in bus_set:
            v.append(f"generator {g.gen_id}: unknown bus {g.bus}")
        if g.g_min > g.g_max:
            v.append(f"generator {g.gen_id}: g_min exceeds g_max")
        if g.ramp_up < 0 or g.ramp_down < 0:
            v.append(f"generator {g.gen_id}: negative ramp limit")
    for day in days:
        if day.weight < 0:
            v.append(f"day {day.day_id}: negative weight")
        if day.n_hours < 1:
            v.append(f"day {day.day_id}: n_hours must be positive")
        if not (0 <= day.phi_d <= 1) or not (0 <= day.phi_r <= 1):
            v.append(f"day {day.day_id}: regulation fractions must be in [0, 1]")
        for kind in ("demand", "renewable", "spill_max"):
            for b, prof in getattr(day, kind).items():
                if b not in bus_set:
                    v.append(f"day {day.day_id}: {kind} references unknown bus {b}")
                if len(prof) != day.n_hours:
                    v.append(
                        f"day {day.day_id}: {kind} profile for bus {b} has "
                        f"{len(prof)} entries, expected {day.n_hours}"
                    )
                if kind != "spill_max" and any(x < 0 for x in prof):
                    v.append(f"day {day.day_id}: negative {kind} at bus {b}")
        for b, prof in day.spill_max.items():
            rn = day.profile("renewable", b)
            if len(prof) == len(rn) and any(
                not (0 <= s <= r + 1e-12) for s, r in zip(prof, rn)
            ):
                v.append(
                    f"day {day.day_id}: spill_max outside [0, renewable] at bus {b}"
                )
    return ValidationReport(v)


def capital_recovery_factor(interest_rate: float, lifetime_years: float) -> float:
    """CRF(r, n) = r(1+r)^n / ((1+r)^n - 1); the r -> 0 limit is 1/n."""
    if lifetime_years <= 0:
        raise ValueError("lifetime must be positive")
    if interest_rate < 0:
        raise ValueError("interest rate must be nonnegative")
    if interest_rate == 0:
        return 1.0 / lifetime_years
    growth = (1.0 + interest_rate) ** lifetime_years
    return interest_rate * growth / (growth - 1.0)


def prorate_capital_cost(total_cost: float, interest_rate: float,
                         lifetime_years: float) -> float:
    """Daily prorated capital cost: annualize with the CRF, divide by 365."""
    return total_cost * capital_recovery_factor(interest_rate, lifetime_years) / 365.0


def libes_marginal_cost(cell_replacement_cost_per_kwh: float, dod_range: float,
                        fit_slope_per_kwh: float) -> float:
    """Marginal discharge cost (money/MWh) from cell wear per kWh discharged.

    ``fit_slope_per_kwh`` is the fitted cycle-life loss per kWh of
    discharged energy; the replacement cost is prorated over the usable
    depth-of-discharge window.
    """
    if not (0 < dod_range <= 1):
        raise ValueError("dod_range must be in (0, 1]")
    per_kwh = fit_slope_per_kwh * cell_replacement_cost_per_kwh / dod_range
    return per_kwh * 1000.0


def split_round_trip_efficiency(round_trip: float) -> float:
    """Symmetric per-direction efficiency preserving the round-trip product."""
    if not (0 < round_trip <= 1):
        raise ValueError("round-trip efficiency must be in (0, 1]")
    return math.sqrt(round_trip)
