"""Property tests on small generated networks: the decomposition agrees
with the monolithic oracle, threads do not change its result, a fixed
plan's held-model dispatch costs what cold solves cost, and dispatch
installs a ratings grid by the one ``snapped`` rule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from storageplan import dispatch, instances, lp_core, oracle
from storageplan.dispatch import build_ed
from storageplan.model import INSTALLED_EPS, Network, Plan, snapped
from storageplan.planner import evaluate_plan, inner_loop

EPSILON = 0.05
LB_TOL = 1e-6     # relative slack on "lower bound <= oracle optimum"

small_instances = st.builds(
    instances.random_instance,
    seed=st.integers(0, 10_000),
    n_buses=st.integers(3, 6),
    n_days=st.integers(1, 3),
)


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=small_instances)
def test_inner_loop_agrees_with_oracle(inst):
    res = inner_loop(inst.net, inst.days, inst.tech, inst.budget,
                     epsilon=EPSILON)
    assert res.converged
    ora = oracle.solve_monolithic(inst.net, inst.days, inst.tech, inst.budget)
    gap = oracle.compare_to_oracle(res.system_cost, ora.system_cost,
                                   res.baseline_cost, EPSILON)
    assert gap.saving_ratio >= 1.0 - EPSILON - 1e-9
    assert res.lower_bound <= ora.system_cost \
        + LB_TOL * max(1.0, abs(ora.system_cost))

    threaded = inner_loop(inst.net, inst.days, inst.tech, inst.budget,
                          epsilon=EPSILON, workers=2)
    assert threaded.plan.ratings == res.plan.ratings
    assert (threaded.system_cost, threaded.lower_bound) \
        == (res.system_cost, res.lower_bound)
    assert threaded.iterations == res.iterations
    assert len(threaded.cuts) == len(res.cuts)
    for a, b in zip(threaded.cuts, res.cuts):
        assert np.array_equal(a.point, b.point)
        assert np.array_equal(a.g, b.g)
        assert a.sampled_cost == b.sampled_cost


def _cold_day_costs(inst, plan: Plan) -> dict[str, float]:
    """Each day's cost solved cold, with units only at ``plan``'s buses."""
    net = replace(inst.net, candidate_buses=tuple(plan.ratings))
    return {day.day_id: lp_core.solve(build_ed(net, day, plan, inst.tech))
            .objective for day in inst.days}


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=small_instances, data=st.data())
def test_evaluate_matches_cold_dispatch(inst, data):
    tech = inst.tech
    ratings = {}
    for b in inst.net.candidate_buses:
        if data.draw(st.booleans()):
            energy = data.draw(st.floats(0.5, 20.0))
            rho = data.draw(st.floats(tech.rho_min, tech.rho_max))
            ratings[b] = (rho * energy, energy)
    plan = Plan(ratings)
    res = evaluate_plan(inst.net, inst.days, tech, plan)

    def total(costs, at):
        return sum(day.weight * costs[day.day_id] for day in inst.days) \
            + at.investment_cost(tech)

    costs = _cold_day_costs(inst, plan)
    assert res.day_costs == pytest.approx(costs, rel=1e-9)
    assert res.system_cost == pytest.approx(total(costs, plan), rel=1e-9)
    assert res.baseline_cost == pytest.approx(
        total(_cold_day_costs(inst, Plan()), Plan()), rel=1e-9)


_TECH = instances.simple_tech(rho_min=0.25, rho_max=2.0)
_CANDS = ("b1", "b2", "b3", "b4")
# energies around the installed threshold as well as ordinary ones, so
# rows with p <= INSTALLED_EPS < e are drawn
_energy = st.one_of(st.just(0.0), st.floats(0.0, 8 * INSTALLED_EPS),
                    st.floats(0.0, 100.0))
_row = st.builds(lambda e, rho: (rho * e, e), _energy,
                 st.floats(_TECH.rho_min, _TECH.rho_max))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(_row, min_size=len(_CANDS), max_size=len(_CANDS)))
def test_dispatch_installs_the_snapped_grid(rows):
    """For a grid that meets the ratio rows, the ratings dispatch fixes
    are the grid snapped: the same rule the planner uses."""
    net = Network(buses=_CANDS, lines=(), generators=(),
                  candidate_buses=_CANDS)
    pe = np.array(rows)
    got = dispatch._ratings(net, Plan(dict(zip(_CANDS, pe))), _TECH)
    assert np.array_equal(got, snapped(pe))


def test_three_bus_instances_build():
    inst = instances.random_instance(0, n_buses=3, n_days=1)
    assert len(inst.net.buses) == 3 and len(inst.net.lines) >= 2
