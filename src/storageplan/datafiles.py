"""Structured-text input/output for networks, typical days, techs and plans.

All files are whitespace-separated text; ``#`` starts a comment; section
headers are bracketed.  Numbers are written with ``repr`` so reals
round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import math
import typing
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


def _read_entry(entries: dict, line: str, path, lineno, what: str,
                types: dict):
    """Add the ``name = value`` ``line`` to ``entries``.  ``types`` maps
    each known name to ``str``, ``float`` or ``int``; an ``int`` value
    must be a whole number."""
    toks = line.replace("=", " ").split()
    if len(toks) != 2:
        raise ParseError(path, lineno, f"expected '{what} = value': {line!r}")
    key, tok = toks
    if key not in types:
        raise ParseError(path, lineno, f"unknown {what}: {line!r}")
    if key in entries:
        raise ParseError(path, lineno, f"repeated {what} {key!r}")
    val = tok if types[key] is str else _num(tok, path, lineno)
    if types[key] is int and not val.is_integer():
        raise ParseError(path, lineno, f"{key} must be an integer: {tok!r}")
    entries[key] = types[key](val)


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


_DAY_TYPES = {"weight": float, "n_hours": int, "phi_d": float,
              "phi_r": float, "c_rs": float}
_DAY_PROFILES = ("demand", "renewable", "spill_max")


def parse_days(text: str, path: str = "<days>") -> list[TypicalDay]:
    """Typical days; a day that names no weight or hour count has weight 1
    and 24 hours, and :class:`TypicalDay` defaults the other attributes."""
    blocks = []  # (day id, attributes, profiles) per [day ...] header
    section = None
    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            name = line.strip("[]").strip()
            if name.lower().startswith("day "):
                blocks.append((name[4:].strip(), {},
                               {kind: {} for kind in _DAY_PROFILES}))
                section = None
            elif name.lower() in _DAY_PROFILES:
                if not blocks:
                    raise ParseError(path, lineno, f"[{name}] outside a day block")
                section = name.lower()
            else:
                raise ParseError(path, lineno, f"unknown section [{name}]")
            continue
        if not blocks:
            raise ParseError(path, lineno, "data before the first [day ...] header")
        _, attrs, profiles = blocks[-1]
        if section is None:
            _read_entry(attrs, line, path, lineno, "day attribute", _DAY_TYPES)
        else:
            toks = line.split()
            bus, vals = toks[0], [_num(t, path, lineno) for t in toks[1:]]
            if bus in profiles[section]:
                raise ParseError(path, lineno,
                                 f"repeated [{section}] row for bus {bus!r}")
            profiles[section][bus] = tuple(vals)
    if not blocks:
        raise ParseError(path, 1, "no days found")
    return [TypicalDay(day_id, **{"weight": 1.0, "n_hours": 24, **attrs},
                       **profiles)
            for day_id, attrs, profiles in blocks]


def write_days(days: list[TypicalDay]) -> str:
    out = []
    for day in days:
        out.append(f"[day {day.day_id}]")
        out.extend(f"{key} = {getattr(day, key)!r}" for key in _DAY_TYPES)
        for kind in _DAY_PROFILES:
            profiles = getattr(day, kind)
            if not profiles:
                continue
            out.append(f"[{kind}]")
            for b in sorted(profiles):
                vals = " ".join(repr(v) for v in profiles[b])
                out.append(f"{b} {vals}")
    return "\n".join(out) + "\n"


_TECH_TYPES = typing.get_type_hints(StorageTech)
_TECH_FIELDS = [key for key, typ in _TECH_TYPES.items() if typ is not str]


def parse_tech(text: str, path: str = "<tech>") -> StorageTech:
    fields: dict = {}
    for lineno, line in _logical_lines(text):
        _read_entry(fields, line, path, lineno, "tech field", _TECH_TYPES)
    missing = [f.name for f in dataclasses.fields(StorageTech)
               if f.default is dataclasses.MISSING and f.name not in fields]
    if missing:
        raise ParseError(path, 1,
                         f"missing tech field(s): {', '.join(missing)}")
    try:
        return StorageTech(**fields)
    except ValueError as exc:
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


CONFIG_TYPES = {"epsilon": float, "chi": float, "budget_max": float,
                "budget_min": float, "max_iter": int, "max_outer": int,
                "workers": int}


def parse_config(text: str, path: str = "<config>",
                 keys=frozenset(CONFIG_TYPES)) -> dict:
    """Run configuration: epsilon, chi, budget_max, budget_min, max_iter,
    max_outer, workers.  ``keys`` are the entries the caller reads; any
    other entry is unknown."""
    types = {key: CONFIG_TYPES[key] for key in keys}
    out: dict = {}
    for lineno, line in _logical_lines(text):
        _read_entry(out, line, path, lineno, "config entry", types)
    return out


def load_bundled_tech(name: str) -> StorageTech:
    """Load a packaged technology config (``aa_caes`` or ``libes``)."""
    ref = resources.files("storageplan").joinpath(f"data/{name}.tech")
    return parse_tech(ref.read_text(), path=f"data/{name}.tech")

