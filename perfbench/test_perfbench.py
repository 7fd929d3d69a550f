"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.BY_NAME[name], n_buses=5, n_days=2)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == \
        [w.name for w in workloads.WORKLOADS]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_every_metric_is_reported_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    record = harness.measure(tiny(name), seed=3, seconds=0.0, trace=trace)
    assert record["correct"], [op["failures"] for op in record["ops"]]
    assert record["attempted"] >= harness.MIN_OPS
    expected = SPEC["per_layer" if trace else "end_to_end"]
    line = json.loads(harness.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def _solved(name: str, seed: int = 3):
    w = tiny(name)
    inst = workloads.build_inputs(w, seed, 1)[0]
    result = workloads.plan(w, inst)
    return w, inst, result, workloads.solve_oracle(w, inst, result)


def test_inputs_follow_the_seed():
    w = tiny("days10")
    a, b, c = (workloads.build_inputs(w, s, 2) for s in (1, 1, 2))
    assert [i.days for i in a] == [i.days for i in b]
    assert a[0].days != a[1].days
    assert a[0].days != c[0].days
    assert a[0].net == c[0].net


def test_a_clean_result_passes():
    w, inst, result, ora = _solved("days10")
    first = workloads.fingerprint(result, ora)
    assert workloads.check(w, inst, result, ora, first)[1] == []


def test_a_nudged_cost_fails_the_saving_ratio_check():
    w, inst, result, ora = _solved("days10")
    oracle_saving = result.baseline_cost - ora.system_cost
    assert oracle_saving > 0
    bad = dataclasses.replace(
        result, system_cost=result.baseline_cost - 0.5 * oracle_saving)
    ratio, failures = workloads.check(w, inst, bad, ora, None)
    assert ratio < 1 - workloads.EPSILON
    assert any("saving ratio" in f for f in failures)


def test_a_changed_repeat_fails():
    w, inst, result, ora = _solved("days10")
    first = workloads.fingerprint(result, ora)
    bad = dataclasses.replace(
        result, system_cost=result.system_cost + 1e-9 * abs(result.system_cost))
    failures = workloads.check(w, inst, bad, ora, first)[1]
    assert any("first repeat" in f for f in failures)


def test_a_dispatch_duality_gap_fails_evaluate():
    w, inst, result, ora = _solved("evaluate")
    day, sol = next(iter(result.solutions.items()))
    sols = dict(result.solutions)
    sols[day] = dataclasses.replace(sol, duality_gap=1e-3)
    bad = dataclasses.replace(result, solutions=sols)
    failures = workloads.check(w, inst, bad, ora, None)[1]
    assert any("duality gap" in f for f in failures)
