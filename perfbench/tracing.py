"""Per-layer spans recorded from outside the program.

A :class:`Tracer` rebinds each layer's public entry points on the module
where the caller looks the name up, so the program itself is unchanged.
``planner`` imports ``solve_ed``, ``compute_subgradients`` and
``solve_master`` by name, so those are rebound in ``planner``'s
namespace; the other layers call through their own module's globals or
through ``lp_core.solve``.  Each span records its parent; a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from storageplan import dispatch, lp_core, oracle, planner, subgradient
from storageplan.model import INSTALLED_EPS


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "info")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict = {}


def _linprog_info(args, kwargs, res) -> dict:
    mats = [kwargs[k] for k in ("A_ub", "A_eq") if kwargs.get(k) is not None]
    return {"ok": res.status == 0, "nit": int(res.nit),
            "rows": sum(a.shape[0] for a in mats),
            "nnz": sum(a.nnz for a in mats)}


def _solve_info(args, kwargs, sol) -> dict:
    return {"ok": sol.status == "optimal"}


def _solve_ed_info(args, kwargs, sol) -> dict:
    net, day, plan = args[:3]
    installed = tuple(b for b in net.candidate_buses
                      if plan.power(b) > INSTALLED_EPS)
    return {"day": day.day_id, "set": installed}


# (module the caller looks the name up in, attribute, layer, span info)
TARGETS = (
    (planner, "outer_loop", "planner", None),
    (planner, "inner_loop", "planner", None),
    (planner, "evaluate_plan", "planner", None),
    (planner, "dispatch_all", "planner", None),
    (planner, "solve_ed", "dispatch", _solve_ed_info),
    (dispatch, "build_ed", "dispatch", None),
    (dispatch, "extract_solution", "dispatch", None),
    (planner, "compute_subgradients", "subgradient", None),
    (subgradient, "solve_sgsp", "subgradient", None),
    (planner, "solve_master", "master", None),
    (oracle, "solve_monolithic", "oracle", None),
    (oracle, "build_monolithic", "oracle", None),
    (lp_core, "solve", "lp_core", _solve_info),
    (lp_core, "linprog", "highs", _linprog_info),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for module, attr, layer, describe in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer,
                                             describe))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, layer, describe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.info = {"ok": False}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, out)
            return out
        return traced


def _share_repeated(keys: list) -> float:
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def _durations(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus child spans) of each span."""
    dur = [s.end - s.start for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s.parent >= 0:
            own[s.parent] -= d
    return dur, own


def summarize(spans: list[Span], cuts_final: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    dur, own = _durations(spans)
    self_s = defaultdict(float)
    total = defaultdict(float)
    calls = Counter()
    for s, d, o in zip(spans, dur, own):
        self_s[s.layer] += o
        total[s.name] += d
        calls[s.name] += 1

    def caller(s: Span) -> str:
        return spans[s.parent].layer if s.parent >= 0 else "none"

    solves_by = Counter()
    oracle_solve_s = 0.0
    failed = 0
    for s, d in zip(spans, dur):
        if s.name == "lp_core.solve":
            solves_by[caller(s)] += 1
            failed += not s.info.get("ok", False)
            if caller(s) == "oracle":
                oracle_solve_s += d
    highs = [s for s in spans if s.name == "highs.linprog"]
    oracle_lps = [s for s in highs if caller(spans[s.parent]) == "oracle"]
    eds = [s for s in spans if s.name == "dispatch.solve_ed"]
    solved = [s.info for s in eds if "day" in s.info]
    master_calls = calls["master.solve_master"]
    return {
        "planner.rounds": calls["planner.inner_loop"],
        "planner.sweeps": calls["planner.dispatch_all"],
        "planner.self_s": self_s["planner"],
        "dispatch.calls": len(eds),
        "dispatch.s": total["dispatch.solve_ed"],
        "dispatch.build_s": total["dispatch.build_ed"],
        "dispatch.extract_s": total["dispatch.extract_solution"],
        "dispatch.self_s": self_s["dispatch"],
        "dispatch.repeat_day_share":
            _share_repeated([i["day"] for i in solved]),
        "dispatch.repeat_set_share":
            _share_repeated([(i["day"], i["set"]) for i in solved]),
        "lp_core.solves": calls["lp_core.solve"],
        "lp_core.solves.dispatch": solves_by["dispatch"],
        "lp_core.solves.sgsp": solves_by["subgradient"],
        "lp_core.solves.master": solves_by["master"],
        "lp_core.solves.oracle": solves_by["oracle"],
        "lp_core.s": total["lp_core.solve"],
        "lp_core.highs_s": total["highs.linprog"],
        "lp_core.convert_s": self_s["lp_core"],
        "lp_core.simplex_iters": sum(s.info.get("nit", 0) for s in highs),
        "lp_core.rows": sum(s.info.get("rows", 0) for s in highs),
        "lp_core.nnz": sum(s.info.get("nnz", 0) for s in highs),
        "lp_core.failed": failed,
        "subgradient.s": total["subgradient.compute_subgradients"],
        "subgradient.sgsp_calls": calls["subgradient.solve_sgsp"],
        "subgradient.sgsp_s": total["subgradient.solve_sgsp"],
        "subgradient.self_s": self_s["subgradient"],
        "master.calls": master_calls,
        "master.s": total["master.solve_master"],
        "master.cuts_final": cuts_final,
        "master.lp_solves_per_call":
            solves_by["master"] / master_calls if master_calls else 0.0,
        "oracle.build_s": total["oracle.build_monolithic"],
        "oracle.solve_s": oracle_solve_s,
        "oracle.rows": sum(s.info.get("rows", 0) for s in oracle_lps),
        "oracle.nnz": sum(s.info.get("nnz", 0) for s in oracle_lps),
    }


def layer_split(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer as a share of the planning call's time
    (spans under the oracle's solve are left out)."""
    root = []
    for i, s in enumerate(spans):   # a parent precedes its children
        root.append(i if s.parent < 0 else root[s.parent])
    self_s = defaultdict(float)
    for s, r, o in zip(spans, root, _durations(spans)[1]):
        if spans[r].layer == "planner":
            self_s[s.layer] += o
    whole = sum(self_s.values())
    return {k: v / whole for k, v in sorted(self_s.items())} if whole else {}
