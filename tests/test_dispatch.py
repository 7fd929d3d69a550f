from dataclasses import replace

import numpy as np
import pytest

from storageplan import lp_core
from storageplan.dispatch import (DispatchInfeasibleError, add_day_block,
                                  build_ed, check_no_simultaneous,
                                  export_dispatch_table, export_price_table,
                                  relaxation_threshold, solve_ed,
                                  storage_revenue)
from storageplan.instances import simple_tech
from storageplan.model import (INSTALLED_EPS, Generator, Network, Plan,
                               StorageTech, TypicalDay)
from storageplan.subgradient import (compute_subgradients,
                                     rating_subgradients, solve_sgsp,
                                     split_subgradient)


def one_bus(gens, demand, **day_kw):
    net = Network(buses=("b1",), lines=(), generators=tuple(gens),
                  candidate_buses=("b1",))
    kw = dict(phi_d=0.0, phi_r=0.0)
    kw.update(day_kw)
    day = TypicalDay(day_id="d1", weight=1.0, n_hours=len(demand),
                     demand={"b1": tuple(demand)}, **kw)
    return net, day


class TestProblemSize:
    def test_one_bus_one_generator_24h(self):
        net, day = one_bus(
            [Generator("g1", "b1", 100.0, 0.0, 1e6, 1e6, 20.0, 0.0, 0.0)],
            [50.0] * 24)
        lp = build_ed(replace(net, candidate_buses=()), day, Plan(),
                      simple_tech())
        # per hour: p_g, r_gu, r_gd, spillage, angle
        assert lp.n_vars == 24 * 5
        assert lp.rows["bal"].size == 24
        assert lp.rows["regup"].size + lp.rows["regdn"].size == 48
        assert lp.rows["rampup"].size + lp.rows["rampdn"].size == 2 * 23

    def test_storage_adds_five_vars_and_five_rows_per_hour(self):
        """A candidate bus gets its unit whatever its rating: five
        columns and five rows per hour, and its two rating columns."""
        net, day = one_bus(
            [Generator("g1", "b1", 100.0, 0.0, 1e6, 1e6, 20.0, 0.0, 0.0)],
            [50.0] * 24)
        tech = simple_tech()
        base = build_ed(replace(net, candidate_buses=()), day, Plan(), tech)
        for plan in (Plan(), Plan({"b1": (5.0, 5.0)})):
            with_es = build_ed(net, day, plan, tech)
            assert with_es.n_vars - base.n_vars == 24 * 5 + 2
            assert with_es.n_rows - base.n_rows == 24 * 5

    def test_day_block_puts_a_unit_at_every_candidate(self, rand_instance):
        """The units are the candidate buses in order, each rated by its
        row of the rating grid."""
        inst = rand_instance(1)
        net, day = inst.net, inst.days[0]
        n = len(net.candidate_buses)
        lp = lp_core.LPBuilder("day")
        rating = lp.add_cols((n, 2))
        cols, rows = add_day_block(lp, net, day, inst.tech, rating)
        assert cols["pch"].shape == (day.n_hours, n)
        assert rows["chcap"].shape == (day.n_hours, n)
        A = lp.build().A.toarray()
        for k in range(n):
            assert (A[rows["chcap"][:, k], rating[k, 0]] == -1.0).all()
            assert (A[rows["socmax"][:, k], rating[k, 1]] == -1.0).all()
        bi = net.bus_index()
        for k, b in enumerate(net.candidate_buses):
            bal = rows["bal"][:, bi[b]]
            assert (A[bal, cols["pdis"][:, k]] == inst.tech.eta_dis).all()


class TestBasicDispatch:
    def test_zero_demand_zero_cost(self):
        net, day = one_bus(
            [Generator("g1", "b1", 10.0, 0.0, 1e6, 1e6, 20.0, 0.0, 0.0)],
            [0.0, 0.0])
        sol = solve_ed(net, day, Plan(), simple_tech())
        assert sol.cost == pytest.approx(0.0, abs=1e-9)

    def test_two_tier_prices(self, m2):
        sol = solve_ed(m2.net, m2.days[0], Plan(), m2.tech)
        assert sol.cost == pytest.approx(2100.0)
        assert sol.lmp[:, 0] == pytest.approx([10.0, 50.0])

    def test_storage_shifts_peak(self, m2):
        # 10 MW / 10 MWh shifts the whole spread: cost drops 2100 -> 1700
        sol = solve_ed(m2.net, m2.days[0], Plan({"b1": (10.0, 10.0)}),
                       m2.tech)
        assert sol.cost == pytest.approx(1700.0)
        assert sol.p_ch[0, 0] == pytest.approx(10.0)
        assert sol.p_dis[1, 0] == pytest.approx(10.0)

    def test_interior_storage_prices_and_revenue(self, m2):
        sol = solve_ed(m2.net, m2.days[0], Plan({"b1": (8.0, 8.0)}), m2.tech)
        assert sol.cost == pytest.approx(2100.0 - 40.0 * 8.0)
        assert sol.lmp[:, 0] == pytest.approx([10.0, 50.0])
        assert storage_revenue(sol, m2.tech, 1.0) == pytest.approx(320.0)

    def test_ramp_limit_forces_expensive_unit(self):
        net, day = one_bus(
            [Generator("g1", "b1", 100.0, 0.0, 20.0, 1e6, 10.0, 0.0, 0.0),
             Generator("g2", "b1", 100.0, 0.0, 1e6, 1e6, 50.0, 0.0, 0.0)],
            [10.0, 100.0])
        sol = solve_ed(net, day, Plan(), simple_tech())
        assert sol.cost == pytest.approx(10 * 10 + 30 * 10 + 70 * 50)
        assert sol.p_g[1, 0] == pytest.approx(30.0)

    def test_regulation_requirement_and_prices(self):
        net, day = one_bus(
            [Generator("g1", "b1", 200.0, 0.0, 1e6, 1e6, 10.0, 2.0, 1.0)],
            [100.0], phi_d=0.1)
        sol = solve_ed(net, day, Plan(), simple_tech())
        assert sol.r_gu[0, 0] == pytest.approx(10.0)
        assert sol.r_gd[0, 0] == pytest.approx(10.0)
        assert sol.cost == pytest.approx(1000.0 + 20.0 + 10.0)
        assert sol.lam_ru[0] == pytest.approx(2.0)
        assert sol.lam_rd[0] == pytest.approx(1.0)

    def test_infeasible_names_first_bad_hour(self):
        net, day = one_bus(
            [Generator("g1", "b1", 50.0, 0.0, 1e6, 1e6, 20.0, 0.0, 0.0)],
            [40.0, 60.0, 40.0])
        with pytest.raises(DispatchInfeasibleError, match="hour 2"):
            solve_ed(net, day, Plan(), simple_tech())

    def test_infeasible_only_across_hours_blames_coupling(self):
        # each hour alone is feasible; 10 MW/h ramps cannot go 10 -> 40
        net, day = one_bus(
            [Generator("g1", "b1", 100.0, 0.0, 10.0, 10.0, 20.0, 0.0, 0.0)],
            [10.0, 40.0])
        with pytest.raises(DispatchInfeasibleError,
                           match="inter-hour coupling") as info:
            solve_ed(net, day, Plan(), simple_tech())
        assert info.value.hour is None

    def test_plan_outside_candidates_rejected(self, m2):
        net = Network(m2.net.buses, m2.net.lines, m2.net.generators, ())
        with pytest.raises(ValueError, match="not a storage candidate"):
            build_ed(net, m2.days[0], Plan({"b1": (1.0, 1.0)}), m2.tech)


class TestFullShape:
    """Every candidate bus gets a storage unit, rated exactly zero where
    nothing is installed, and the solution matches the dispatch of a
    network whose only candidates are the installed buses."""

    def test_matches_one_off_dispatch(self, rand_instance):
        inst = rand_instance(1, n_buses=10, n_days=2)
        net, tech = inst.net, inst.tech
        cands = list(net.candidate_buses)
        # one unit installed, one below INSTALLED_EPS, the rest empty
        plan = Plan({cands[0]: (2.0, 4.0), cands[1]: (5e-5, 1e-4)})
        ref_net = replace(net, candidate_buses=tuple(cands[:1]))
        ref_plan = Plan({cands[0]: (2.0, 4.0)})
        bi = net.bus_index()
        empty = [bi[b] for b in cands[1:]]
        for day in inst.days:
            lp = build_ed(net, day, plan, tech)
            assert lp.n_vars - build_ed(ref_net, day, ref_plan, tech).n_vars \
                == (5 * day.n_hours + 2) * (len(cands) - 1)
            rating = lp.cols["rating"]
            for bound in (lp.lb, lp.ub):
                assert (bound[rating[0]] == (2.0, 4.0)).all()
                assert (bound[rating[1:]] == 0.0).all()

            one_off = solve_ed(ref_net, day, ref_plan, tech)
            full = solve_ed(net, day, plan, tech)
            assert full.cost == pytest.approx(one_off.cost, rel=1e-9)
            assert full.storage_buses == one_off.storage_buses == cands[:1]
            for name in ("p_ch", "p_dis", "r_eu", "r_ed", "e_soc", "phi_ch",
                         "phi_dis", "phi_soc", "psi_soc", "gamma_e"):
                assert not getattr(full, name)[:, empty].any(), name

    def test_rating_columns_hold_the_plan(self, rand_instance):
        """The ratings are fixed columns, never right-hand sides: each
        candidate's rating columns hold its plan ratings, exactly zero
        where nothing or less than INSTALLED_EPS is installed, and the
        rating rows have a zero right-hand side."""
        inst = rand_instance(1, n_buses=10, n_days=1)
        net, day, tech = inst.net, inst.days[0], inst.tech
        cands = list(net.candidate_buses)
        tiny = INSTALLED_EPS / 2
        plan = Plan({cands[0]: (2.0, 4.0), cands[1]: (tiny, 2 * tiny),
                     cands[2]: (3.0, 5.0)})
        expect = np.zeros((len(cands), 2))
        expect[0], expect[2] = (2.0, 4.0), (3.0, 5.0)
        lp = build_ed(net, day, plan, tech)
        rating = lp.cols["rating"]
        assert rating.shape == (len(cands), 2)
        assert np.array_equal(lp.lb[rating], expect)
        assert np.array_equal(lp.ub[rating], expect)
        assert not lp.c[rating].any()
        for kind in ("chcap", "discap", "socmax"):
            assert not lp.rhs[lp.rows[kind]].any(), kind


@pytest.fixture(scope="module")
def solved(rand_instance):
    inst = rand_instance(3)
    b = inst.net.candidate_buses[0]
    plan = Plan({b: (6.0, 8.0)})
    day = inst.days[0]
    return inst, plan, day, solve_ed(inst.net, day, plan, inst.tech)


class TestSolutionInvariants:
    def test_duality_gap(self, solved):
        _, _, _, sol = solved
        assert sol.duality_gap <= lp_core.GAP_TOL

    def test_lp_feasibility_and_complementarity(self, solved):
        inst, plan, day, _ = solved
        lp = build_ed(inst.net, day, plan, inst.tech)
        assert lp.rows["chcap"].size \
            == day.n_hours * len(inst.net.candidate_buses)
        sol = lp_core.solve(lp)
        assert lp_core.max_constraint_violation(sol, lp) <= lp_core.FEAS_TOL
        assert lp_core.max_complementarity_violation(sol, lp) \
            <= lp_core.COMP_TOL

    def test_power_balance_residual(self, solved):
        inst, plan, day, sol = solved
        net = inst.net
        bi = net.bus_index()
        T = day.n_hours
        inj = np.zeros((T, len(net.buses)))
        for i, g in enumerate(net.generators):
            inj[:, bi[g.bus]] += sol.p_g[:, i]
        for l, ln in enumerate(net.lines):
            inj[:, bi[ln.from_bus]] -= sol.f[:, l]
            inj[:, bi[ln.to_bus]] += sol.f[:, l]
        for b in net.buses:
            c = bi[b]
            inj[:, c] += np.array(day.profile("renewable", b))
            inj[:, c] -= np.array(day.profile("demand", b))
            inj[:, c] -= sol.p_rs[:, c]
            inj[:, c] += inst.tech.eta_dis * sol.p_dis[:, c]
            inj[:, c] -= sol.p_ch[:, c] / inst.tech.eta_ch
        assert np.abs(inj).max() <= 1e-6

    def test_flow_definition_and_limits(self, solved):
        inst, _, _, sol = solved
        bi = inst.net.bus_index()
        for l, ln in enumerate(inst.net.lines):
            expect = (sol.theta[:, bi[ln.from_bus]]
                      - sol.theta[:, bi[ln.to_bus]]) / ln.reactance
            assert sol.f[:, l] == pytest.approx(expect, abs=1e-6)
            assert np.abs(sol.f[:, l]).max() <= ln.capacity + 1e-6

    def test_soc_recursion_and_bounds(self, solved):
        inst, plan, _, sol = solved
        b = plan.installed_buses()[0]
        c = sol.bus_col(b)
        prev = 0.0
        for t in range(sol.n_hours):
            assert sol.e_soc[t, c] - prev == pytest.approx(
                sol.p_ch[t, c] - sol.p_dis[t, c], abs=1e-7)
            prev = sol.e_soc[t, c]
            assert -1e-7 <= sol.e_soc[t, c] <= plan.energy(b) + 1e-7

    def test_dual_recursion(self, solved):
        # gamma_t - gamma_{t+1} + phi_soc_t + psi_soc_t = 0 (gamma_{T+1} = 0)
        _, plan, _, sol = solved
        b = plan.installed_buses()[0]
        c = sol.bus_col(b)
        for t in range(sol.n_hours):
            nxt = sol.gamma_e[t + 1, c] if t + 1 < sol.n_hours else 0.0
            resid = (sol.gamma_e[t, c] - nxt + sol.phi_soc[t, c]
                     + sol.psi_soc[t, c])
            assert abs(resid) <= 1e-6

    def test_rating_dual_signs(self, solved):
        _, _, _, sol = solved
        assert sol.phi_ch.max() <= 1e-9
        assert sol.phi_dis.max() <= 1e-9
        assert sol.phi_soc.max() <= 1e-9
        assert sol.psi_soc.min() >= -1e-9

    def test_complementarity_of_rating_rows(self, solved):
        inst, plan, _, sol = solved
        b = plan.installed_buses()[0]
        c = sol.bus_col(b)
        p_r, e_r = plan.ratings[b]
        for t in range(sol.n_hours):
            slack_ch = p_r - sol.p_ch[t, c] - sol.r_ed[t, c]
            slack_dis = p_r - sol.p_dis[t, c] - sol.r_eu[t, c]
            slack_soc = e_r - sol.e_soc[t, c] - inst.tech.t_es * sol.r_ed[t, c]
            assert abs(sol.phi_ch[t, c] * slack_ch) <= 1e-5
            assert abs(sol.phi_dis[t, c] * slack_dis) <= 1e-5
            assert abs(sol.phi_soc[t, c] * slack_soc) <= 1e-5


class TestSimultaneity:
    def test_threshold_arithmetic(self):
        eta = np.sqrt(0.9)
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.1, rho_max=4.0,
                           eta_ch=eta, eta_dis=eta)
        thr = relaxation_threshold(tech, -200.0)
        assert thr == pytest.approx(21.1, abs=0.05)
        # positive prices make the condition hold for any nonnegative cost
        assert relaxation_threshold(tech, 40.0) < 0

    def test_negative_price_pocket_cycles(self, neglmp):
        sol = solve_ed(neglmp.net, neglmp.days[0],
                       Plan({"b1": (20.0, 20.0)}), neglmp.tech)
        assert sol.lmp[0, 0] == pytest.approx(-50.0)
        rep = check_no_simultaneous(sol, neglmp.tech)
        assert rep.violations
        assert rep.condition_failures

    def test_costly_discharge_prevents_cycling(self, neglmp):
        eta = neglmp.tech.eta_ch
        pricey = StorageTech(c_p=1.0, c_e=1.0, rho_min=0.05, rho_max=4.0,
                             eta_ch=eta, eta_dis=eta, c_dis=30.0, c_ch=30.0)
        sol = solve_ed(neglmp.net, neglmp.days[0],
                       Plan({"b1": (20.0, 20.0)}), pricey)
        rep = check_no_simultaneous(sol, pricey)
        assert not rep.violations
        assert not rep.condition_failures


class TestExports:
    def test_tables(self, m2):
        sol = solve_ed(m2.net, m2.days[0], Plan({"b1": (10.0, 10.0)}),
                       m2.tech)
        dtab = export_dispatch_table(sol, m2.net)
        assert "g1 p_g" in dtab
        assert "b1 e_soc" in dtab
        ptab = export_price_table(sol)
        assert ptab.splitlines()[1].startswith("d1 1 b1 10.000000")


# Values recorded on random_instance(3) with 2 MW / 4 MWh at every
# candidate.  They pin the dispatch LP that HiGHS sees: any change to its
# columns, rows, coefficients or their order shows up here.
GOLDEN_DAY = {
    "d1": (7849.504665160872, 5944.248235285134, 22.08052717745759,
           15.82339288809126, 0.0, -84.8015982289996, 195.692262927888),
}
GOLDEN_SUBGRAD_PLAN = (9.286001824359058, -61.8507709804556)
GOLDEN_SUBGRAD_ZERO = (-270.49429463824885, -270.49429463824885)


def _golden(value):
    return pytest.approx(value, rel=1e-12, abs=1e-12)


class TestGolden:
    @pytest.fixture(scope="class")
    def inst(self, rand_instance):
        return rand_instance(3)

    @pytest.fixture(scope="class")
    def plan(self, inst):
        return Plan({b: (2.0, 4.0) for b in inst.net.candidate_buses})

    def test_day_costs_and_dual_sums(self, inst, plan):
        assert [d.day_id for d in inst.days] == list(GOLDEN_DAY)
        for day in inst.days:
            s = solve_ed(inst.net, day, plan, inst.tech)
            got = (s.cost, s.lmp.sum(), s.lam_ru.sum(), s.lam_rd.sum(),
                   (s.phi_ch + s.phi_dis).sum(), s.phi_soc.sum(),
                   s.psi_soc.sum())
            assert got == _golden(GOLDEN_DAY[day.day_id])

    @pytest.mark.parametrize("at_plan", [True, False])
    def test_subgradients(self, inst, plan, at_plan):
        at = plan if at_plan else Plan()
        sols = {d.day_id: solve_ed(inst.net, d, at, inst.tech)
                for d in inst.days}
        buses = inst.net.candidate_buses
        grads = compute_subgradients(inst.net, inst.days, sols,
                                     at.grid(buses), inst.tech)
        expect = GOLDEN_SUBGRAD_PLAN if at_plan else GOLDEN_SUBGRAD_ZERO
        for row in grads:
            assert tuple(row) == _golden(expect)
        # installed rows are the rating duals, empty rows the split
        # marginal-unit values, solved in bus order from one store
        if at_plan:
            rows = rating_subgradients(inst.net, inst.days, sols, inst.tech)
        else:
            starts = {}
            rows = [split_subgradient(*solve_sgsp(inst.days, sols, inst.tech,
                                                  b, starts)) for b in buses]
        assert np.array_equal(grads, rows)
