"""Siting and sizing of grid-scale energy storage via cutting planes.

The public API is re-exported here: domain types (:mod:`.model`),
per-day dispatch (:mod:`.dispatch`), the cutting-plane planner
(:mod:`.planner`), the monolithic reference LP (:mod:`.oracle`),
typical-day clustering (:mod:`.scenario`) and text-file input/output
(:mod:`.datafiles`).

The package logs to the ``storageplan`` logger, silent unless the
application configures logging: the planner writes one DEBUG line per
cutting-plane sweep and one INFO line per rate-of-return round.
"""

import logging

from .datafiles import (load_bundled_tech, parse_config, parse_days,
                        parse_network, parse_plan, parse_tech, write_days,
                        write_network, write_plan, write_tech)
from .dispatch import (DispatchInfeasibleError, DispatchSolution, build_ed,
                       check_no_simultaneous, relaxation_threshold, solve_ed,
                       storage_revenue)
from .master import MasterState, convergence_check, solve_master
from .model import (Generator, Line, Network, Plan, StorageTech, TypicalDay,
                    capital_recovery_factor, libes_marginal_cost,
                    prorate_capital_cost, split_round_trip_efficiency,
                    validate_network)
from .oracle import compare_to_oracle, solve_monolithic
from .planner import (PlanResult, evaluate_plan, inner_loop, outer_loop)
from .scenario import cluster_days, load_profiles
from .subgradient import (Cut, compute_subgradients, revenue_identity,
                          solve_sgsp, split_subgradient)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Generator", "Line", "Network", "Plan", "StorageTech", "TypicalDay",
    "capital_recovery_factor", "prorate_capital_cost", "libes_marginal_cost",
    "split_round_trip_efficiency", "validate_network",
    "DispatchInfeasibleError", "DispatchSolution", "build_ed", "solve_ed",
    "check_no_simultaneous", "relaxation_threshold", "storage_revenue",
    "MasterState", "convergence_check", "solve_master",
    "Cut", "compute_subgradients", "revenue_identity", "solve_sgsp",
    "split_subgradient",
    "PlanResult", "evaluate_plan", "inner_loop", "outer_loop",
    "compare_to_oracle", "solve_monolithic",
    "cluster_days", "load_profiles",
    "parse_network", "parse_days", "parse_tech", "parse_plan",
    "parse_config", "write_network", "write_days", "write_tech",
    "write_plan", "load_bundled_tech",
    "__version__",
]
