"""Layered planning benchmark for storageplan.

Run from the repository root:

    python3 perfbench/run.py --workload days10 --seed 1 --seconds 35 --trace 0

Workloads are ``days10``, ``siting`` and ``evaluate`` (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The report is printed, the full record
(samples, environment, failures) is written to ``perfbench/out/``, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program():
    """Import storageplan from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import storageplan
    where = Path(storageplan.__file__).resolve().parent
    if where != SRC / "storageplan":
        raise ImportError(f"storageplan imported from {where}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import storageplan: {exc}", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.workload not in workloads.BY_NAME:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.BY_NAME)}")
    record = harness.measure(workloads.BY_NAME[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    print(harness.report(record))
    print(f"record written to {harness.write_record(record, HERE / 'out')}")
    print(harness.result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
