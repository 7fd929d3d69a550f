import numpy as np
import pytest

from storageplan.dispatch import DispatchInfeasibleError
from storageplan.instances import simple_tech
from storageplan.model import Generator, Network, Plan, TypicalDay
from storageplan.oracle import (compare_to_oracle, build_monolithic,
                                solve_monolithic)
from storageplan.planner import evaluate_plan


class TestMonolithic:
    def test_two_tier_optimum(self, m2):
        res = solve_monolithic(m2.net, m2.days, m2.tech, None)
        assert res.system_cost == pytest.approx(1720.0)
        assert res.plan.power("b1") == pytest.approx(10.0)
        assert res.plan.energy("b1") == pytest.approx(10.0)

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_negative_budget_rejected(self, m2, budget):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            solve_monolithic(m2.net, m2.days, m2.tech, budget)

    def test_infeasible_case_names_first_bad_day(self):
        """Day d2 needs 160 MWh from at most 150 MWh of generation, so no
        plan is feasible, and the zero plan's dispatch names the day and
        the first hour that fail."""
        net = Network(buses=("b1",), lines=(), candidate_buses=("b1",),
                      generators=(Generator("g1", "b1", 50.0, 0.0, 1e6, 1e6,
                                            20.0, 0.0, 0.0),))
        days = [TypicalDay(day_id=d, weight=1.0, n_hours=3,
                           demand={"b1": demand}, phi_d=0.0, phi_r=0.0)
                for d, demand in (("d1", (40.0, 40.0, 40.0)),
                                  ("d2", (40.0, 60.0, 60.0)))]
        with pytest.raises(DispatchInfeasibleError,
                           match=r"day d2 \(hour 2\)"):
            solve_monolithic(net, days, simple_tech(), None)

    def test_worthless_storage(self, m1):
        res = solve_monolithic(m1.net, m1.days, m1.tech, None)
        assert res.system_cost == pytest.approx(2600.0)
        assert res.plan.is_empty()

    def test_matches_grid_search(self, m2):
        # brute force over square plans (the symmetric ray is optimal here)
        best = min(
            evaluate_plan(m2.net, m2.days, m2.tech,
                          Plan({"b1": (s, s)})).system_cost
            for s in np.linspace(0.0, 15.0, 61)
        )
        res = solve_monolithic(m2.net, m2.days, m2.tech, None)
        assert res.system_cost == pytest.approx(best, rel=1e-9)

    def test_budget_enforced(self, m2):
        res = solve_monolithic(m2.net, m2.days, m2.tech, 10.0)
        assert res.plan.investment_cost(m2.tech) <= 10.0 + 1e-7
        assert res.system_cost == pytest.approx(2100.0 - 40 * 5 + 10)

    def test_binding_ratio_row_matches_grid_search(self, m2):
        """With rho_max = 0.5 the ratio row of the ratings block binds:
        the optimum lies on the p = 0.5 e ray, where a grid search over
        evaluated plans finds the same cost."""
        tech = simple_tech(rho_max=0.5)
        res = solve_monolithic(m2.net, m2.days, tech, None)
        best = min(
            evaluate_plan(m2.net, m2.days, tech,
                          Plan({"b1": (0.5 * e, e)})).system_cost
            for e in np.linspace(0.0, 40.0, 81)
        )
        assert res.system_cost == pytest.approx(1730.0)
        assert res.system_cost == pytest.approx(best, rel=1e-9)
        assert res.plan.power("b1") == pytest.approx(10.0)
        assert res.plan.energy("b1") == pytest.approx(20.0)
        res.plan.check_ratio_bounds(tech)

    def test_binding_ratio_and_budget_rows(self, m2):
        tech = simple_tech(rho_max=0.5)
        res = solve_monolithic(m2.net, m2.days, tech, 20.0)
        assert res.system_cost == pytest.approx(1853.0 + 1.0 / 3.0)
        assert res.plan.power("b1") == pytest.approx(20.0 / 3.0)
        assert res.plan.energy("b1") == pytest.approx(40.0 / 3.0)
        res.plan.check_ratio_bounds(tech)
        assert res.plan.investment_cost(tech) <= 20.0 + 1e-7

    def test_never_beaten_by_a_sampled_plan(self, rand_instance):
        inst = rand_instance(6)
        res = solve_monolithic(inst.net, inst.days, inst.tech, None)
        rng = np.random.default_rng(0)
        for _ in range(5):
            b = inst.net.candidate_buses[
                int(rng.integers(len(inst.net.candidate_buses)))]
            e = float(rng.uniform(0.5, 20.0))
            plan = Plan({b: (e * float(rng.uniform(0.1, 4.0)), e)})
            cost = evaluate_plan(inst.net, inst.days, inst.tech,
                                 plan).system_cost
            assert res.system_cost <= cost + 1e-6 * max(1, abs(cost))

    def test_size_stats(self, m2):
        lp = build_monolithic(m2.net, m2.days, m2.tech, 100.0)
        res = solve_monolithic(m2.net, m2.days, m2.tech, 100.0)
        assert res.rows == lp.n_rows
        assert res.cols == lp.n_vars
        assert res.nonzeros == lp.nnz()
        assert res.build_time >= 0 and res.solve_time > 0


class TestCompare:
    def test_ratio_arithmetic(self):
        rep = compare_to_oracle(1905.0, 1900.0, 2000.0)   # 95/100
        assert rep.saving_ratio == pytest.approx(0.95)
        assert rep.passed
        rep = compare_to_oracle(1906.0, 1900.0, 2000.0)   # 94/100
        assert not rep.passed

    def test_no_saving_cases(self):
        rep = compare_to_oracle(2000.0, 2000.0, 2000.0)
        assert rep.passed and rep.saving_ratio == 1.0
        with pytest.raises(ValueError):
            compare_to_oracle(1900.0, 2000.0, 2000.0)
