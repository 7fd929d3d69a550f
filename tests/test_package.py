from pathlib import Path

import storageplan


def test_every_exported_name_resolves():
    missing = [name for name in storageplan.__all__
               if not hasattr(storageplan, name)]
    assert missing == []


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
