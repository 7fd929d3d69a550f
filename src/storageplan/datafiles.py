"""Structured-text input/output for networks, typical days, techs and plans.

All files are whitespace-separated text; ``#`` starts a comment; section
headers are bracketed.  Numbers are written with ``repr`` so reals
round-trip bit-exactly.
"""

from __future__ import annotations

import math
from importlib import resources

from .model import Generator, Line, Network, Plan, StorageTech, TypicalDay


class ParseError(Exception):
    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}")
        self.path = path
        self.lineno = lineno


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _num(tok: str, path, lineno) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(path, lineno, f"not a number: {tok!r}") from None
    if math.isnan(val):
        raise ParseError(path, lineno, "NaN value")
    if math.isinf(val):
        raise ParseError(path, lineno, f"infinite value: {tok!r}")
    return val


def parse_network(text: str, path: str = "<network>") -> Network:
    buses: list[str] = []
    candidates: list[str] = []
    lines: list[Line] = []
    gens: list[Generator] = []
    section = None
    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            section = line.strip("[]").strip().lower()
            continue
        toks = line.split()
        if section == "buses":
            buses.extend(toks)
        elif section == "candidates":
            candidates.extend(toks)
        elif section == "lines":
            if len(toks) != 5:
                raise ParseError(path, lineno,
                                 "line row needs: id from to reactance capacity")
            lines.append(Line(toks[0], toks[1], toks[2],
                              _num(toks[3], path, lineno),
                              _num(toks[4], path, lineno)))
        elif section == "generators":
            if len(toks) != 9:
                raise ParseError(path, lineno,
                                 "generator row needs: id bus g_max g_min "
                                 "ramp_up ramp_down c_g c_gu c_gd")
            vals = [_num(t, path, lineno) for t in toks[2:]]
            gens.append(Generator(toks[0], toks[1], *vals))
        else:
            raise ParseError(path, lineno, f"data outside a known section: {line!r}")
    return Network(tuple(buses), tuple(lines), tuple(gens), tuple(candidates))


def write_network(net: Network) -> str:
    out = ["[buses]"]
    out.extend(net.buses)
    out.append("[candidates]")
    out.extend(net.candidate_buses)
    out.append("[lines]")
    out.append("# id from to reactance capacity")
    for ln in net.lines:
        out.append(f"{ln.line_id} {ln.from_bus} {ln.to_bus} "
                   f"{ln.reactance!r} {ln.capacity!r}")
    out.append("[generators]")
    out.append("# id bus g_max g_min ramp_up ramp_down c_g c_gu c_gd")
    for g in net.generators:
        out.append(f"{g.gen_id} {g.bus} {g.g_max!r} {g.g_min!r} {g.ramp_up!r} "
                   f"{g.ramp_down!r} {g.c_g!r} {g.c_gu!r} {g.c_gd!r}")
    return "\n".join(out) + "\n"


_DAY_SCALARS = {"weight", "n_hours", "phi_d", "phi_r", "c_rs"}
_DAY_PROFILES = ("demand", "renewable", "spill_max")


def parse_days(text: str, path: str = "<days>") -> list[TypicalDay]:
    days: list[TypicalDay] = []
    current: dict | None = None
    section = None

    def close():
        nonlocal current
        if current is None:
            return
        n_hours = int(current.get("n_hours", 24))
        days.append(TypicalDay(
            day_id=current["id"], weight=current.get("weight", 1.0),
            n_hours=n_hours, demand=current["demand"],
            renewable=current["renewable"], spill_max=current["spill_max"],
            c_rs=current.get("c_rs", 0.0),
            phi_d=current.get("phi_d", 0.03), phi_r=current.get("phi_r", 0.05),
        ))
        current = None

    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            name = line.strip("[]").strip()
            if name.lower().startswith("day "):
                close()
                current = {"id": name[4:].strip(),
                           "demand": {}, "renewable": {}, "spill_max": {}}
                section = "scalars"
            elif name.lower() in _DAY_PROFILES:
                if current is None:
                    raise ParseError(path, lineno, f"[{name}] outside a day block")
                section = name.lower()
            else:
                raise ParseError(path, lineno, f"unknown section [{name}]")
            continue
        if current is None:
            raise ParseError(path, lineno, "data before the first [day ...] header")
        if section == "scalars":
            toks = line.replace("=", " ").split()
            if len(toks) != 2 or toks[0] not in _DAY_SCALARS:
                raise ParseError(path, lineno, f"bad day attribute: {line!r}")
            key, val = toks[0], _num(toks[1], path, lineno)
            if key in current:
                raise ParseError(path, lineno,
                                 f"repeated day attribute {key!r}")
            if key == "n_hours" and not val.is_integer():
                raise ParseError(path, lineno, f"n_hours must be an integer: "
                                               f"{toks[1]!r}")
            current[key] = val
        else:
            toks = line.split()
            bus, vals = toks[0], [_num(t, path, lineno) for t in toks[1:]]
            if bus in current[section]:
                raise ParseError(path, lineno,
                                 f"repeated [{section}] row for bus {bus!r}")
            current[section][bus] = tuple(vals)
    close()
    if not days:
        raise ParseError(path, 1, "no days found")
    return days


def write_days(days: list[TypicalDay]) -> str:
    out = []
    for day in days:
        out.append(f"[day {day.day_id}]")
        out.append(f"weight = {day.weight!r}")
        out.append(f"n_hours = {day.n_hours}")
        out.append(f"phi_d = {day.phi_d!r}")
        out.append(f"phi_r = {day.phi_r!r}")
        out.append(f"c_rs = {day.c_rs!r}")
        for kind in _DAY_PROFILES:
            profiles = getattr(day, kind)
            if not profiles:
                continue
            out.append(f"[{kind}]")
            for b in sorted(profiles):
                vals = " ".join(repr(v) for v in profiles[b])
                out.append(f"{b} {vals}")
    return "\n".join(out) + "\n"


_TECH_FIELDS = ("c_p", "c_e", "rho_min", "rho_max", "eta_ch", "eta_dis",
                "c_dis", "c_ch", "c_eu", "c_ed", "t_es", "t_ru", "t_rd")


def parse_tech(text: str, path: str = "<tech>") -> StorageTech:
    fields: dict = {}
    for lineno, line in _logical_lines(text):
        toks = line.replace("=", " ").split()
        if len(toks) != 2:
            raise ParseError(path, lineno, f"expected 'field value': {line!r}")
        key = toks[0]
        if key == "name":
            fields[key] = toks[1]
        elif key in _TECH_FIELDS:
            fields[key] = _num(toks[1], path, lineno)
        else:
            raise ParseError(path, lineno, f"unknown tech field {key!r}")
    try:
        return StorageTech(**fields)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_tech(tech: StorageTech) -> str:
    out = []
    if tech.name:
        out.append(f"name = {tech.name}")
    for f in _TECH_FIELDS:
        out.append(f"{f} = {getattr(tech, f)!r}")
    return "\n".join(out) + "\n"


def parse_plan(text: str, path: str = "<plan>") -> Plan:
    ratings = {}
    for lineno, line in _logical_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(path, lineno, "plan row needs: bus p_r e_r")
        if toks[0] in ratings:
            raise ParseError(path, lineno,
                             f"repeated plan row for bus {toks[0]!r}")
        ratings[toks[0]] = (_num(toks[1], path, lineno),
                           _num(toks[2], path, lineno))
    return Plan(ratings)


def write_plan(plan: Plan) -> str:
    out = ["# bus p_r e_r"]
    for b, (p, e) in sorted(plan.ratings.items()):
        out.append(f"{b} {p!r} {e!r}")
    return "\n".join(out) + "\n"


def parse_config(text: str, path: str = "<config>") -> dict:
    """Run configuration: epsilon, chi, budget_max, budget_min, max_iter,
    max_outer, workers, seed."""
    keys = {"epsilon": float, "chi": float, "budget_max": float,
            "budget_min": float, "max_iter": int, "max_outer": int,
            "workers": int, "seed": int}
    out: dict = {}
    for lineno, line in _logical_lines(text):
        toks = line.replace("=", " ").split()
        if len(toks) != 2 or toks[0] not in keys:
            raise ParseError(path, lineno, f"unknown config entry: {line!r}")
        key, val = toks[0], _num(toks[1], path, lineno)
        if keys[key] is int and not val.is_integer():
            raise ParseError(path, lineno, f"{key} must be an integer: "
                                           f"{toks[1]!r}")
        out[key] = keys[key](val)
    return out


def load_bundled_tech(name: str) -> StorageTech:
    """Load a packaged technology config (``aa_caes`` or ``libes``)."""
    ref = resources.files("storageplan").joinpath(f"data/{name}.tech")
    return parse_tech(ref.read_text(), path=f"data/{name}.tech")


def read_file(path) -> str:
    with open(path) as fh:
        return fh.read()
