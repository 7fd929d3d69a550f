"""Siting and sizing of grid-scale energy storage via cutting planes.

The user API is re-exported here: domain types (:mod:`.model`), the
cutting-plane planner (:mod:`.planner`), the monolithic reference LP
(:mod:`.oracle`), typical-day clustering (:mod:`.scenario`) and
text-file input/output (:mod:`.datafiles`).  Everything else (per-day
dispatch, subgradients, the master LP, the cost helpers) lives in its
submodule.

The package logs to the ``storageplan`` logger, silent unless the
application configures logging: the planner writes one DEBUG line per
cutting-plane sweep and one INFO line per rate-of-return round.
"""

import logging

from .datafiles import (load_bundled_tech, parse_config, parse_days,
                        parse_network, parse_plan, parse_tech, write_days,
                        write_network, write_plan, write_tech)
from .dispatch import DispatchInfeasibleError, DispatchSolution
from .model import (Generator, Line, Network, Plan, StorageTech, TypicalDay,
                    validate_network)
from .oracle import compare_to_oracle, solve_monolithic
from .planner import PlanResult, evaluate_plan, inner_loop, outer_loop
from .scenario import cluster_days, load_profiles
from .subgradient import Cut

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Generator", "Line", "Network", "Plan", "StorageTech", "TypicalDay",
    "DispatchSolution", "DispatchInfeasibleError", "Cut", "PlanResult",
    "parse_network", "parse_days", "parse_tech", "parse_plan",
    "parse_config", "write_network", "write_days", "write_tech",
    "write_plan", "load_bundled_tech", "validate_network", "load_profiles",
    "inner_loop", "outer_loop", "evaluate_plan",
    "solve_monolithic", "compare_to_oracle",
    "cluster_days",
    "__version__",
]
