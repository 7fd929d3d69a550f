import importlib
from pathlib import Path

import pytest

import storageplan

# the user API: a new export is an edit here
PUBLIC_API = [
    "Cut", "DispatchInfeasibleError", "DispatchSolution", "Generator",
    "Line", "Network", "Plan", "PlanResult", "StorageTech", "TypicalDay",
    "__version__", "cluster_days", "compare_to_oracle", "evaluate_plan",
    "inner_loop", "load_bundled_tech", "load_profiles", "outer_loop",
    "parse_config", "parse_days", "parse_network", "parse_plan",
    "parse_tech", "solve_monolithic", "validate_network", "write_days",
    "write_network", "write_plan", "write_tech",
]

# names that are not exported but live on in their modules
INTERNAL = {
    "model": ["capital_recovery_factor", "prorate_capital_cost",
              "libes_marginal_cost", "split_round_trip_efficiency"],
    "dispatch": ["build_ed", "solve_ed", "check_no_simultaneous",
                 "relaxation_threshold", "storage_revenue"],
    "master": ["MasterState", "convergence_check", "solve_master"],
    "subgradient": ["compute_subgradients", "revenue_identity", "solve_sgsp",
                    "split_subgradient"],
}


def test_every_exported_name_resolves():
    missing = [name for name in storageplan.__all__
               if not hasattr(storageplan, name)]
    assert missing == []


def test_exports_are_the_user_api():
    assert sorted(storageplan.__all__) == PUBLIC_API


@pytest.mark.parametrize("module", sorted(INTERNAL))
def test_internals_live_in_their_modules(module):
    mod = importlib.import_module(f"storageplan.{module}")
    assert [n for n in INTERNAL[module] if not hasattr(mod, n)] == []
    assert not set(INTERNAL[module]) & set(storageplan.__all__)


def test_installed_rule_lives_in_model():
    """Which bus holds storage is decided by ``model.snapped`` (and the
    ``Plan`` helpers beside it); no other module names the threshold."""
    src = Path(storageplan.__file__).parent
    naming = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py")
                    if "INSTALLED_EPS" in p.read_text())
    assert naming == ["model.py"]


def test_only_lp_core_runs_highs():
    """``lp_core`` is the single numerical engine: no other module
    imports scipy's HiGHS bindings."""
    src = Path(storageplan.__file__).parent
    naming = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py")
                    if "_highspy" in p.read_text())
    assert naming == ["lp_core.py"]
