import dataclasses
import math

import numpy as np
import pytest

from storageplan import lp_core
from storageplan.instances import simple_tech
from storageplan.master import (MasterState, convergence_check,
                                level_point, solve_master)
from storageplan.model import Plan, snapped
from storageplan.subgradient import Cut


def make_cut(point, cost, grad):
    """A cut at the ``[bus, (p, e)]`` ratings ``point`` with subgradient
    grid ``grad``."""
    return Cut(np.array(point, float), cost, np.array(grad, float))


def as_plan(state, pe):
    """The master's ratings grid ``pe`` keyed by candidate bus."""
    return Plan(dict(zip(state.candidate_buses, pe)))


def fresh_state(budget=None, tech=None):
    return MasterState(candidate_buses=["b1"], tech=tech or simple_tech(),
                       budget=budget, baseline_cost=2100.0)


class TestSingleCut:
    def test_capital_floor_bounds_unbudgeted_master(self):
        # one cut z >= 2100 - 19(p + e) intersects z >= p + e at p+e = 105
        state = fresh_state()
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        assert z == pytest.approx(105.0, rel=1e-6)
        assert plan.power("b1") + plan.energy("b1") == pytest.approx(
            105.0, rel=1e-6)

    def test_budget_binds(self):
        state = fresh_state(budget=20.0)
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        assert plan.investment_cost(state.tech) == pytest.approx(20.0)
        assert z == pytest.approx(2100.0 - 19.0 * 20.0)

    def test_requires_cuts(self):
        with pytest.raises(ValueError, match="at least one cut"):
            solve_master(fresh_state())


class TestTwoCuts:
    def test_kink_intersection(self):
        # z >= 2100 - 19(p+e) and z >= 1700 + (p+e) meet at p+e = 20
        state = fresh_state()
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        state.add_cut(make_cut([(20.0, 20.0)], 1740.0, [(1.0, 1.0)]))
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        assert z == pytest.approx(1720.0, rel=1e-6)
        assert plan.power("b1") + plan.energy("b1") == pytest.approx(
            20.0, rel=1e-4)

    def test_more_cuts_never_lower_the_bound(self):
        state = fresh_state()
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        _, z1 = solve_master(state)
        state.add_cut(make_cut([(20.0, 20.0)], 1740.0, [(1.0, 1.0)]))
        _, z2 = solve_master(state)
        assert z2 >= z1 - 1e-6


class TestLevelPoint:
    """Budget 20 and one cut z >= 2100 - 19(p + e): the master's bound is
    1720, and with the zero grid sampled at 2100 the level is
    1720 + 0.3 * 380 = 1834, reached where p + e >= 14."""

    def level(self, centre):
        state = fresh_state(budget=20.0)
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        state.record_sample(np.zeros((1, 2)), 2100.0)
        _, lb = solve_master(state)
        assert lb == pytest.approx(1720.0)
        return state, level_point(state, np.array([centre], float), lb)

    def test_nearest_point_of_the_level_set(self):
        state, pe = self.level((0.0, 0.0))
        assert pe == pytest.approx(np.array([[7.0, 7.0]]), rel=1e-6)
        assert np.array_equal(snapped(pe), pe)

    def test_ratio_row_binds(self):
        # projecting (10, 0) onto p + e >= 14 gives ratio 6; the nearest
        # point within rho_max = 4 is (11.2, 2.8)
        state, pe = self.level((10.0, 0.0))
        assert pe == pytest.approx(np.array([[11.2, 2.8]]), rel=1e-6)
        as_plan(state, pe).check_ratio_bounds(state.tech)
        assert as_plan(state, pe).investment_cost(state.tech) < 20.0

    def test_empty_level_set(self):
        # a best cost below the lower bound (a cut over-estimated the
        # cost) puts the level below the model everywhere
        state = fresh_state(budget=20.0)
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(0.0, 0.0)]))
        state.record_sample(np.zeros((1, 2)), 2000.0)
        _, lb = solve_master(state)
        assert lb == pytest.approx(2100.0)
        assert level_point(state, np.zeros((1, 2)), lb) is None


class TestRatioRows:
    def test_plan_respects_ratio_bounds(self):
        tech = simple_tech(rho_min=0.5, rho_max=1.5)
        state = fresh_state(budget=30.0, tech=tech)
        # pull only towards power: the ratio cap must hold it back
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-50.0, -1.0)]))
        pe, _ = solve_master(state)
        plan = as_plan(state, pe)
        p, e = plan.power("b1"), plan.energy("b1")
        assert p <= 1.5 * e + 1e-6
        assert p >= 0.5 * e - 1e-6


    def test_vertex_past_the_ratio_row_is_clipped_into_it(self,
                                                          monkeypatch):
        """A vertex meets the ratio rows only to HiGHS's tolerances: at
        ratio 4.0000003 against rho_max = 4 its power rating is clipped
        onto the row, where shading alone would hand dispatch a plan it
        rejects; a vertex inside the rows is only shaded."""
        tech = simple_tech(rho_max=4.0)
        real = lp_core.solve

        def solved_at(p, e):
            def solve(lp, starts=None):
                sol = real(lp, starts)
                x = sol.x.copy()
                x[lp.cols["rating"][0]] = p, e
                return dataclasses.replace(sol, x=x)
            return solve

        state = fresh_state(tech=tech)
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        shaded = snapped(np.array([(40.000003, 10.0)]) * (1 - 1e-7))
        with pytest.raises(ValueError, match="power/energy ratio"):
            as_plan(state, shaded).check_ratio_bounds(tech)
        monkeypatch.setattr(lp_core, "solve", solved_at(40.000003, 10.0))
        pe, _ = solve_master(state)
        as_plan(state, pe).check_ratio_bounds(tech)
        assert np.array_equal(pe, snapped(np.array([(40.0, 10.0)])
                                          * (1 - 1e-7)))
        monkeypatch.setattr(lp_core, "solve", solved_at(39.9, 10.0))
        pe, _ = solve_master(state)
        assert np.array_equal(pe, snapped(np.array([(39.9, 10.0)])
                                          * (1 - 1e-7)))


class TestDeterminism:
    def test_repeat_solves_identical(self):
        def run():
            state = fresh_state()
            state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
            state.add_cut(make_cut([(20.0, 20.0)], 1740.0, [(1.0, 1.0)]))
            pe, z = solve_master(state)
            return as_plan(state, pe), z
        (plan_a, za), (plan_b, zb) = run(), run()
        assert za == zb
        assert plan_a.ratings == plan_b.ratings

    def test_shaded_plan_over_two_identical_buses_totals_105(self):
        # two buses, identical cuts: the shaded plan rates 105 in total,
        # where the cut meets the capital floor
        state = MasterState(candidate_buses=["b1", "b2"],
                            tech=simple_tech(), budget=None,
                            baseline_cost=2100.0)
        state.add_cut(make_cut([(0.0, 0.0), (0.0, 0.0)], 2100.0,
                               [(-19.0, -19.0), (-19.0, -19.0)]))
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        total = sum(p + e for p, e in plan.ratings.values())
        assert total == pytest.approx(105.0, rel=1e-4)


def three_bus_state():
    """Three buses, three cuts and a budget of 30."""
    buses = ("b1", "b2", "b3")
    tech = simple_tech(c_p=2.0, c_e=0.5, rho_min=0.25, rho_max=2.0)
    state = MasterState(candidate_buses=list(buses), tech=tech,
                        budget=30.0, baseline_cost=2100.0)
    state.add_cut(make_cut(
        [(0.0, 0.0)] * 3, 2100.0,
        [(-19.0, -11.0), (-7.5, -23.0), (-3.0, -2.0)]))
    state.add_cut(make_cut(
        [(4.0, 8.0), (1.0, 3.0), (0.0, 0.0)], 1890.0,
        [(-6.0, -9.5), (-2.25, -14.0), (-4.0, -1.0)]))
    state.add_cut(make_cut(
        [(2.0, 6.0), (3.0, 5.0), (1.5, 2.5)], 1905.0,
        [(-9.0, -3.0), (4.0, 6.0), (-12.0, -4.0)]))
    return state


class TestGolden:
    def test_three_buses_three_cuts_with_budget(self):
        """Ratings and bound pinned bit for bit: any change to how the
        master LP is assembled must hand HiGHS the same model.  The plan
        is the cut model's vertex clipped into the ratio rows and shaded
        towards zero: within a relative 1e-7 of ``z`` on the cut model,
        and it meets the ratio and budget rows.  b1's vertex lies on its
        rho_min row, solved 6 ulps below it; the clip puts it on it."""
        state = three_bus_state()
        tech = state.tech
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        assert z == 1758.8779069767443
        assert plan.ratings == {
            "b1": (5.982557541279087, 23.93023016511635),
            "b3": (1.5174417087209282, 6.069766834883708),
        }
        assert np.array_equal(snapped(pe), pe)
        assert pe[0, 0] == tech.rho_min * pe[0, 1]
        model = max(cut.predicted_cost(pe) for cut in state.cuts)
        assert z <= model <= z + 1e-7 * abs(z)
        plan.check_ratio_bounds(tech)
        assert plan.investment_cost(tech) <= 30.0 * (1 + 1e-12)


class TestSolverFailure:
    def test_failed_simplex_is_solved_by_interior_point(self, monkeypatch):
        """HiGHS's dual simplex can end a master LP in an unknown status
        (seen on nearly parallel cuts of the siting benchmark workload);
        lp_core.solve then solves it by interior point, to the same
        bound."""
        state = three_bus_state()
        pe_ref, z_ref = solve_master(state)
        plan_ref = as_plan(state, pe_ref)
        real, calls = lp_core.linprog, []

        def simplex_fails_once(lp, solver=None, **kwargs):
            calls.append(solver)
            if len(calls) == 1:
                return lp_core.LPSolution(lp_core.FAILED, "Unknown", 0)
            return real(lp, solver=solver, **kwargs)

        monkeypatch.setattr(lp_core, "linprog", simplex_fails_once)
        state = three_bus_state()
        pe, z = solve_master(state)
        plan = as_plan(state, pe)
        assert calls == [None, "ipm"]    # master, retry
        assert z == pytest.approx(z_ref, rel=1e-12)
        for b, ratings in plan_ref.ratings.items():
            assert plan.ratings[b] == pytest.approx(ratings, rel=1e-6)
        plan.check_ratio_bounds(state.tech)


class TestOneSolvePerCall:
    def test_each_call_solves_one_lp(self, monkeypatch):
        real, calls = lp_core.solve, []

        def counted(lp, starts=None):
            calls.append(lp.name)
            return real(lp, starts)

        monkeypatch.setattr(lp_core, "solve", counted)
        state = three_bus_state()
        for k in range(1, 4):
            solve_master(state)
            assert calls == ["master"] * k


class TestState:
    def test_record_sample_keeps_best(self):
        state = fresh_state()
        state.record_sample(np.array([(1.0, 1.0)]), 2000.0)
        state.record_sample(np.array([(2.0, 2.0)]), 2050.0)
        assert state.best_cost == 2000.0
        assert as_plan(state, state.best).power("b1") == 1.0

    def test_reset_keeps_cuts(self):
        state = fresh_state()
        state.add_cut(make_cut([(0.0, 0.0)], 2100.0, [(-19.0, -19.0)]))
        state.record_sample(np.zeros((1, 2)), 2100.0)
        state.lower_bound = 50.0
        state.reset_bounds()
        assert state.cuts
        assert state.best_cost == math.inf
        assert state.lower_bound == -math.inf


class TestConvergence:
    def test_gap_arithmetic(self):
        state = fresh_state()
        state.baseline_cost = 110.0
        state.lower_bound = 100.0
        state.best_cost = 106.0   # gap 6 > 0.5 * 10
        assert not convergence_check(state, 0.5)
        state.best_cost = 104.0   # gap 4 <= 0.5 * 10
        assert convergence_check(state, 0.5)

    def test_requires_finite_bounds(self):
        state = fresh_state()
        assert not convergence_check(state, 0.5)
