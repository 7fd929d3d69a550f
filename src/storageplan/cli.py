"""Command-line interface.

Exit codes: 0 success, 1 invalid input, 2 the solve stopped without
reaching the convergence tolerance, HiGHS could not finish an LP, or a
master or marginal-unit LP did not end optimal, 3 infeasible dispatch.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

from . import bench, datafiles, lp_core, oracle, planner, scenario
from .datafiles import ParseError
from .dispatch import (DispatchInfeasibleError, check_plan,
                       export_dispatch_table, export_price_table)
from .model import Plan, validate_network

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3

BUNDLED_TECHS = ("aa_caes", "libes")


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None


def _load_case(args):
    net = datafiles.parse_network(_load_text(args.network), args.network)
    days = datafiles.parse_days(_load_text(args.days), args.days)
    if args.tech in BUNDLED_TECHS:
        tech = datafiles.load_bundled_tech(args.tech)
    else:
        tech = datafiles.parse_tech(_load_text(args.tech), args.tech)
    violations = validate_network(net, days).violations
    for path, of_days in ((args.network, False), (args.days, True)):
        mine = [v for v in violations if v.startswith("day ") == of_days]
        if mine:
            raise ParseError(path, 0, "; ".join(mine))
    return net, days, tech


def _load_plan(args, net, tech) -> Plan:
    """The ``--plan`` file, checked against the case like a network."""
    plan = datafiles.parse_plan(_load_text(args.plan), args.plan)
    try:
        check_plan(net, plan, tech)
    except ValueError as exc:
        raise ParseError(args.plan, 0, str(exc)) from None
    return plan


def _load_config(args, keys) -> dict:
    """The ``--config`` entries in ``keys``, overridden by options.  It
    holds only what the user gave, so a library call forwarded it keeps
    its own defaults for the rest."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = datafiles.parse_config(_load_text(args.config), args.config,
                                     keys)
    for key in ("epsilon", "chi", "workers"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "budget", None) is not None:
        cfg["budget_max"] = args.budget
    return cfg


def _write(out_dir: str, name: str, body: str, stamp: bool = True):
    path = Path(out_dir)
    ts = datetime.now(timezone.utc).isoformat(timespec="seconds")
    head = f"# generated {ts}\n" if stamp else ""
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(head + body)
    except OSError as exc:
        raise ParseError(out_dir, 0,
                         f"cannot write {name}: {exc.strerror}") from None
    return path / name


def cmd_plan(args) -> int:
    net, days, tech = _load_case(args)
    cfg = _load_config(args, datafiles.CONFIG_TYPES)
    if "budget_max" in cfg:
        cfg["budget_init"] = cfg.pop("budget_max")
    result = planner.outer_loop(net, days, tech, **cfg)
    _write(args.out_dir, "report.txt", planner.format_report(result))
    _write(args.out_dir, "trace.txt", planner.format_trace(result))
    _write(args.out_dir, "plan.txt", datafiles.write_plan(result.plan))
    print(planner.format_report(result), end="")
    if result.return_unachievable:
        print("required rate of return is unachievable; no storage built")
        return EXIT_OK
    if not result.converged:
        print("warning: iteration limit reached before convergence",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_evaluate(args) -> int:
    net, days, tech = _load_case(args)
    plan = _load_plan(args, net, tech)
    cfg = _load_config(args, {"workers"})
    result = planner.evaluate_plan(net, days, tech, plan, **cfg)
    _write(args.out_dir, "report.txt", planner.format_report(result))
    print(planner.format_report(result), end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    net, days, tech = _load_case(args)
    cfg = _load_config(args, {"budget_max"})
    res = oracle.solve_monolithic(net, days, tech, cfg.get("budget_max"))
    body = [f"system_cost = {res.system_cost:.6f}",
            f"rows = {res.rows}", f"cols = {res.cols}",
            f"nonzeros = {res.nonzeros}",
            f"build_time = {res.build_time:.3f}",
            f"solve_time = {res.solve_time:.3f}",
            "[plan]"]
    body += [f"{b} {p:.6f} {e:.6f}"
             for b, (p, e) in sorted(res.plan.ratings.items())]
    text = "\n".join(body) + "\n"
    _write(args.out_dir, "oracle.txt", text)
    print(text, end="")
    return EXIT_OK


def cmd_dispatch(args) -> int:
    net, days, tech = _load_case(args)
    plan = _load_plan(args, net, tech) if args.plan else Plan()
    cfg = _load_config(args, {"workers"})
    sols = planner.dispatch_all(net, days, plan, tech, **cfg)
    dtab = "".join(export_dispatch_table(s, net) for s in sols.values())
    ptab = "".join(export_price_table(s) for s in sols.values())
    _write(args.out_dir, "dispatch.txt", dtab)
    _write(args.out_dir, "prices.txt", ptab)
    cost = planner._weighted_cost(days, sols, 0.0)
    print(f"weighted_operating_cost = {cost:.6f}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    profiles = scenario.load_profiles(_load_text(args.profiles),
                                      args.profiles)
    days = scenario.cluster_days(profiles, args.clusters)
    text = datafiles.write_days(days)
    out = _write(args.out_dir, "days.txt", text, stamp=False)
    print(f"wrote {len(days)} typical days "
          f"(total weight {sum(d.weight for d in days):g}) to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    """Decomposition vs monolithic runtimes over growing day counts."""
    given = {key: getattr(args, key) for key in ("seed", "sizes", "epsilon")
             if getattr(args, key) is not None}
    rows = bench.scaling_benchmark(**given)
    text = bench.format_bench(rows)
    print(text, end="")
    _write(args.out_dir, "bench.txt", text)
    return EXIT_OK


def _add_case_args(sp):
    sp.add_argument("--network", required=True)
    sp.add_argument("--days", required=True)
    sp.add_argument("--tech", required=True,
                    help="tech file or a bundled name "
                         f"({', '.join(BUNDLED_TECHS)})")
    sp.add_argument("--config")
    sp.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="storageplan",
        description="Siting and sizing of grid storage via cutting planes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="optimize a storage plan")
    _add_case_args(p)
    p.add_argument("--workers", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--budget", type=float)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("evaluate", help="dispatch a fixed plan")
    _add_case_args(p)
    p.add_argument("--workers", type=int)
    p.add_argument("--plan", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("oracle", help="solve the monolithic investment LP")
    _add_case_args(p)
    p.add_argument("--budget", type=float)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("dispatch", help="export dispatch and price tables")
    _add_case_args(p)
    p.add_argument("--workers", type=int)
    p.add_argument("--plan")
    p.set_defaults(fn=cmd_dispatch)

    p = sub.add_parser("cluster", help="build typical days from profiles")
    p.add_argument("--profiles", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("bench", help="scaling benchmark on a seeded instance")
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sizes", type=int, nargs="+",
                   help="day counts to benchmark (default "
                        f"{' '.join(map(str, bench.SIZES))})")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_bench)

    return ap


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)
            warnings.showwarning = _show_warning
            return args.fn(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DispatchInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except lp_core.LPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
