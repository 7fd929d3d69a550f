import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storageplan import lp_core, planner, subgradient
from storageplan.dispatch import solve_ed, storage_revenue
from storageplan.model import Plan
from storageplan.planner import evaluate_plan
from storageplan.subgradient import (Cut, build_sgsp, compute_subgradients,
                                     rating_subgradients, revenue_identity,
                                     solve_sgsp, split_subgradient)


def dispatch_map(inst, plan):
    return {d.day_id: solve_ed(inst.net, d, plan, inst.tech)
            for d in inst.days}


def installed_by_loop(inst, sols, plan):
    """The installed buses' subgradients, bus by bus and day by day."""
    out = {}
    for b in plan.installed_buses():
        gp, ge = inst.tech.c_p, inst.tech.c_e
        for day in inst.days:
            sol = sols[day.day_id]
            c = sol.bus_col(b)
            gp += day.weight * float(np.sum(sol.phi_ch[:, c]
                                            + sol.phi_dis[:, c]))
            ge += day.weight * float(np.sum(sol.phi_soc[:, c]))
        out[b] = (gp, ge)
    return out


class TestSplit:
    @given(st.floats(-100, 100), st.floats(0.05, 4.0))
    def test_components_sum_to_whole(self, g0, rho0):
        gp, ge = split_subgradient(g0, rho0)
        assert gp + ge == pytest.approx(g0, rel=1e-9, abs=1e-9)

    @given(st.floats(-100, -0.01), st.floats(0.05, 4.0))
    def test_ratio_preserved(self, g0, rho0):
        gp, ge = split_subgradient(g0, rho0)
        assert gp / ge == pytest.approx(rho0, rel=1e-9)


class TestMarginalUnit:
    def test_flat_prices_leave_only_capital(self, m1):
        # a single flat-priced generator: no arbitrage value, so the
        # marginal device costs its capital at the smallest allowed rho
        sols = dispatch_map(m1, Plan())
        g0, rho0 = solve_sgsp(m1.days, sols, m1.tech, "b1")
        tech = m1.tech
        assert g0 == pytest.approx(tech.rho_min * tech.c_p + tech.c_e)
        assert rho0 == pytest.approx(tech.rho_min)

    def test_two_tier_prices(self, m2):
        # prices (10, 50): a 1 MWh unit earns 40 against capital 2 at
        # the 1:1 ratio, so its net value is -38 at rho = 1
        sols = dispatch_map(m2, Plan())
        g0, rho0 = solve_sgsp(m2.days, sols, m2.tech, "b1")
        assert g0 == pytest.approx(-38.0)
        assert rho0 == pytest.approx(1.0)
        assert split_subgradient(g0, rho0) == pytest.approx((-19.0, -19.0))

    def test_matches_rho_grid_search(self, m2):
        # brute force over fixed rho: value(rho) = cp*rho + ce - 40*min(rho, 1)
        sols = dispatch_map(m2, Plan())
        g0, _ = solve_sgsp(m2.days, sols, m2.tech, "b1")
        grid = np.linspace(m2.tech.rho_min, m2.tech.rho_max, 792)
        best = min(m2.tech.c_p * r + m2.tech.c_e - 40.0 * min(r, 1.0)
                   for r in grid)
        assert g0 <= best + 1e-9

    def test_marginal_value_is_exact_along_its_ray(self, m2):
        # installing s MWh at the optimal ratio changes system cost by
        # s * g0 while prices stay put
        sols = dispatch_map(m2, Plan())
        g0, rho0 = solve_sgsp(m2.days, sols, m2.tech, "b1")
        f0 = evaluate_plan(m2.net, m2.days, m2.tech, Plan()).system_cost
        for s in (0.5, 2.0):
            plan = Plan({"b1": (s * rho0, s)})
            fs = evaluate_plan(m2.net, m2.days, m2.tech, plan).system_cost
            assert fs == pytest.approx(f0 + s * g0, rel=1e-9)


    def test_re_costed_lp_matches_cold_builds(self, rand_instance,
                                              monkeypatch):
        """At every empty bus of every sweep of an inner loop, the one
        held marginal-unit LP, re-costed for the bus and re-solved from
        the last bus's basis, reaches the objective of a cold solve of a
        fresh build, and its ratio lies within the ratio bounds."""
        inst = rand_instance(1, n_buses=10, n_days=3)
        tech = inst.tech
        real, buses = subgradient.solve_sgsp, []

        def checking(days, prices, tech, bus, starts=None):
            g0, rho0 = real(days, prices, tech, bus, starts)
            cold = lp_core.solve(build_sgsp(days, prices, tech, bus))
            assert g0 == pytest.approx(cold.objective + tech.c_e, rel=1e-9)
            assert tech.rho_min <= rho0 <= tech.rho_max
            buses.append(bus)
            return g0, rho0

        monkeypatch.setattr(subgradient, "solve_sgsp", checking)
        res = planner.inner_loop(inst.net, inst.days, tech, inst.budget)
        assert len(res.iterations) > 1
        assert len(set(buses)) > 1 and len(buses) > len(set(buses))

    def test_each_day_list_has_its_own_held_lp(self, rand_instance):
        """One store given all days and then fewer (or the reverse)
        holds one marginal-unit LP per day list, and each solve equals
        a solve from a fresh store."""
        inst = rand_instance(1, n_buses=10, n_days=3)
        sols = dispatch_map(inst, Plan())
        bus = inst.net.candidate_buses[-1]
        for lists in ((inst.days, inst.days[:2]),
                      (inst.days[:2], inst.days)):
            starts = {}
            for days in lists:
                got = solve_sgsp(days, sols, inst.tech, bus, starts)
                assert got == solve_sgsp(days, sols, inst.tech, bus)
            assert [starts[subgradient._name(days)].lp.n_vars
                    for days in lists] \
                == [2 + 5 * sum(d.n_hours for d in days) for days in lists]

class TestInstalledBranch:
    def test_directional_slope_at_interior_point(self, m2):
        # at p = e = 8 the saving grows at 40/MWh along the diagonal,
        # capital at 2/MWh: total slope -38 shared by the two coordinates
        plan = Plan({"b1": (8.0, 8.0)})
        sols = dispatch_map(m2, plan)
        (gp, ge), = rating_subgradients(m2.net, m2.days, sols, m2.tech)
        assert gp + ge == pytest.approx(-38.0, abs=1e-7)

    def test_matches_central_difference_along_diagonal(self, m2):
        plan = Plan({"b1": (8.0, 8.0)})
        sols = dispatch_map(m2, plan)
        (gp, ge), = rating_subgradients(m2.net, m2.days, sols, m2.tech)
        h = 1e-3
        f = {}
        for s in (8.0 - h, 8.0 + h):
            f[s] = evaluate_plan(m2.net, m2.days, m2.tech,
                                 Plan({"b1": (s, s)})).system_cost
        fd = (f[8.0 + h] - f[8.0 - h]) / (2 * h)
        assert fd == pytest.approx(gp + ge, abs=1e-6)

    def test_installed_and_empty_rows(self, rand_instance):
        # the installed bus's row is its rating duals; the empty buses'
        # rows are their split marginal-unit values, solved in bus order
        # from one store
        inst = rand_instance(5)
        buses = inst.net.candidate_buses
        b0 = buses[0]
        plan = Plan({b0: (5.0, 5.0)})
        sols = dispatch_map(inst, plan)
        grads = compute_subgradients(inst.net, inst.days, sols,
                                     plan.grid(buses), inst.tech)
        assert grads.shape == (len(buses), 2)
        assert tuple(grads[0]) == installed_by_loop(inst, sols, plan)[b0]
        starts = {}
        empty = [split_subgradient(*solve_sgsp(inst.days, sols, inst.tech, b,
                                               starts)) for b in buses[1:]]
        assert np.array_equal(grads[1:], empty)

    @pytest.mark.parametrize("seed", [1, 4, 5, 8])
    def test_installed_rows_match_the_bus_by_bus_loop(self, rand_instance,
                                                      seed):
        # the grid gathers every bus's duals at once; its installed rows
        # keep the bits of summing them bus by bus and day by day
        inst = rand_instance(seed)
        buses = inst.net.candidate_buses
        assert any(d.weight != 1.0 for d in inst.days)
        plan = Plan({b: (5.0, 6.0) for b in buses[:2]})
        sols = dispatch_map(inst, plan)
        grads = compute_subgradients(inst.net, inst.days, sols,
                                     plan.grid(buses), inst.tech)
        ref = installed_by_loop(inst, sols, plan)
        assert list(ref) == list(buses[:2])
        assert np.array_equal(grads[:2], list(ref.values()))
        assert np.array_equal(
            grads[:2],
            rating_subgradients(inst.net, inst.days, sols, inst.tech)[:2])


class TestRevenueIdentity:
    def test_two_tier_instance(self, m2):
        plan = Plan({"b1": (8.0, 8.0)})
        pe = plan.grid(["b1"])
        sols = dispatch_map(m2, plan)
        grads = compute_subgradients(m2.net, m2.days, sols, pe, m2.tech)
        direct = sum(storage_revenue(s, m2.tech, 1.0) for s in sols.values())
        assert direct == pytest.approx(320.0)
        assert revenue_identity(pe, grads, m2.tech) == pytest.approx(
            direct, rel=1e-9)

    def test_uninstalled_bus_earns_nothing(self, m2):
        # energy rated, power at or below the installed threshold: the
        # bus counts as empty, so its row is the split marginal-unit
        # value, and it earns no revenue
        plan = Plan({"b1": (5e-5, 5e-4)})
        pe = plan.grid(["b1"])
        sols = dispatch_map(m2, plan)
        grads = compute_subgradients(m2.net, m2.days, sols, pe, m2.tech)
        assert np.array_equal(grads, [split_subgradient(
            *solve_sgsp(m2.days, sols, m2.tech, "b1"))])
        assert revenue_identity(pe, grads, m2.tech) == 0.0

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_instances(self, rand_instance, seed):
        inst = rand_instance(seed)
        buses = inst.net.candidate_buses
        plan = Plan({b: (5.0, 6.0) for b in buses[:2]})
        pe = plan.grid(buses)
        sols = dispatch_map(inst, plan)
        grads = compute_subgradients(inst.net, inst.days, sols, pe,
                                     inst.tech)
        direct = sum(storage_revenue(sols[d.day_id], inst.tech, d.weight)
                     for d in inst.days)
        ident = revenue_identity(pe, grads, inst.tech)
        assert ident == pytest.approx(direct,
                                      rel=1e-6, abs=1e-6 * max(1, abs(direct)))


class TestCut:
    def test_zero_plan_cut_supports_true_cost(self, m2):
        zero = np.zeros((1, 2))
        sols = dispatch_map(m2, Plan())
        grads = compute_subgradients(m2.net, m2.days, sols, zero, m2.tech)
        cut = Cut(zero, 2100.0, grads)
        for p, e in [(10.0, 10.0), (4.0, 1.0), (0.4, 4.0), (20.0, 20.0)]:
            true = evaluate_plan(m2.net, m2.days, m2.tech,
                                 Plan({"b1": (p, e)})).system_cost
            assert cut.predicted_cost(np.array([[p, e]])) <= true + 1e-9

    def test_predicted_cost_at_own_point(self, m2):
        plan = Plan({"b1": (8.0, 8.0)})
        pe = plan.grid(["b1"])
        sols = dispatch_map(m2, plan)
        grads = compute_subgradients(m2.net, m2.days, sols, pe, m2.tech)
        cut = Cut(pe, 1796.0, grads)
        assert cut.predicted_cost(pe) == pytest.approx(1796.0)

    def test_zero_plan_cut_entries(self, m2):
        sols = dispatch_map(m2, Plan())
        grads = compute_subgradients(m2.net, m2.days, sols, np.zeros((1, 2)),
                                     m2.tech)
        # b1 is empty: its row is the split marginal-unit value
        assert np.array_equal(grads, [split_subgradient(
            *solve_sgsp(m2.days, sols, m2.tech, "b1"))])
        assert grads.tolist() == [[pytest.approx(-19.0, abs=5e-7)] * 2]
