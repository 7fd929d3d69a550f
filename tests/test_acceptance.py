"""End-to-end acceptance checks, one test per acceptance criterion.

Each test prints a single summary line; the pytest verdict of the test
is the pass/fail status of the criterion.
"""

import sys
import time

import numpy as np
import pytest

from storageplan import instances, lp_core, oracle, planner
from storageplan.bench import scaling_benchmark
from storageplan.datafiles import load_bundled_tech
from storageplan.dispatch import (check_no_simultaneous,
                                  relaxation_threshold, solve_ed,
                                  storage_revenue)
from storageplan.model import (Plan, capital_recovery_factor,
                               libes_marginal_cost, prorate_capital_cost,
                               split_round_trip_efficiency)
from storageplan.subgradient import subgrad_installed

EPSILON = 0.05


def _dispatch_all(inst, plan):
    return {d.day_id: solve_ed(inst.net, d, plan, inst.tech)
            for d in inst.days}


def _system_cost(inst, plan, sols=None):
    sols = sols or _dispatch_all(inst, plan)
    return sum(d.weight * sols[d.day_id].cost for d in inst.days) \
        + plan.investment_cost(inst.tech)


def test_criterion_1_decomposition_recovers_most_of_the_saving(rand_instance):
    """10 seeded instances: saving ratio >= 1 - epsilon, each under 60 s."""
    seeds = range(1, 11)
    worst, slowest = 1.0, 0.0
    for seed in seeds:
        inst = rand_instance(seed)
        t0 = time.perf_counter()
        res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget,
                                 epsilon=EPSILON)
        elapsed = time.perf_counter() - t0
        ora = oracle.solve_monolithic(inst.net, inst.days, inst.tech,
                                      inst.budget)
        rep = oracle.compare_to_oracle(res.system_cost, ora.system_cost,
                                       res.baseline_cost, epsilon=EPSILON)
        assert res.converged, f"seed {seed} did not converge"
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        assert rep.passed, \
            f"seed {seed}: saving ratio {rep.saving_ratio:.4f} < 0.95"
        worst = min(worst, rep.saving_ratio)
        slowest = max(slowest, elapsed)
    print(f"criterion 1 PASS: 10 instances, worst saving ratio "
          f"{worst:.4f} >= 0.95, slowest {slowest:.1f}s < 60s")


def test_criterion_2_dispatch_duality_gap(rand_instance, m2):
    """Every dispatch solve closes its duality gap to 1e-8."""
    worst = 0.0
    cases = [(m2, Plan({"b1": (8.0, 8.0)})), (m2, Plan())]
    for seed in (1, 2, 3):
        inst = rand_instance(seed)
        b = inst.net.candidate_buses[0]
        cases += [(inst, Plan()), (inst, Plan({b: (6.0, 6.0)}))]
    for inst, plan in cases:
        for sol in _dispatch_all(inst, plan).values():
            assert sol.duality_gap <= lp_core.GAP_TOL
            worst = max(worst, sol.duality_gap)
    print(f"criterion 2 PASS: worst dispatch duality gap "
          f"{worst:.2e} <= 1e-08")


def test_criterion_3_revenue_identity(rand_instance, m2):
    """Settled market revenue equals the dual reconstruction from the
    weighted rating duals, to 1e-6 relative."""
    worst = 0.0
    cases = [(m2, Plan({"b1": (8.0, 8.0)}))]
    for seed in (1, 4, 5, 8):
        inst = rand_instance(seed)
        plan = Plan({b: (5.0, 6.0) for b in inst.net.candidate_buses[:2]})
        cases.append((inst, plan))
    for inst, plan in cases:
        assert not plan.is_empty()
        sols = _dispatch_all(inst, plan)
        weights = {d.day_id: d.weight for d in inst.days}
        grads = subgrad_installed(sols, weights, inst.tech, plan)
        direct = sum(storage_revenue(sols[d.day_id], inst.tech, d.weight)
                     for d in inst.days)
        dual = sum(-(gp - inst.tech.c_p) * plan.power(b)
                   - (ge - inst.tech.c_e) * plan.energy(b)
                   for b, (gp, ge) in grads.items())
        rel = abs(direct - dual) / max(1.0, abs(direct))
        assert rel <= 1e-6, f"{inst.name}: identity off by {rel:.2e}"
        worst = max(worst, rel)
    print(f"criterion 3 PASS: worst relative identity error {worst:.2e}"
          f" <= 1e-06")


def test_criterion_4_finite_difference_subgradients(rand_instance, m2):
    """Rating-dual subgradients match one-sided finite differences away
    from kinks; kinks (one-sided slopes disagreeing) are excluded and
    must stay below 20% of the coordinates."""
    h = 1e-3
    checked = excluded = 0
    cases = [m2] + [rand_instance(s) for s in (21, 22, 23, 24, 25)]
    for inst in cases:
        plan = Plan({b: (6.0, 6.0) for b in inst.net.candidate_buses[:2]})
        sols = _dispatch_all(inst, plan)
        weights = {d.day_id: d.weight for d in inst.days}
        grads = subgrad_installed(sols, weights, inst.tech, plan)
        f0 = _system_cost(inst, plan, sols)
        for b in plan.installed_buses():
            p0, e0 = plan.ratings[b]
            for coord, g in zip(("p", "e"), grads[b]):
                def cost(delta):
                    r = dict(plan.ratings)
                    r[b] = ((p0 + delta, e0) if coord == "p"
                            else (p0, e0 + delta))
                    return _system_cost(inst, Plan(r))
                fwd = (cost(h) - f0) / h
                bwd = (f0 - cost(-h)) / h
                if abs(fwd - bwd) > max(1e-4 * max(abs(fwd), abs(bwd)),
                                        1e-3):
                    excluded += 1
                    continue
                checked += 1
                central = 0.5 * (fwd + bwd)
                assert abs(central - g) <= max(1e-4 * abs(g), 1e-3), \
                    f"{inst.name} {b}.{coord}: fd {central:.6f} vs {g:.6f}"
    frac = excluded / (checked + excluded)
    assert frac < 0.20, f"excluded {frac:.0%} of coordinates"
    print(f"criterion 4 PASS: {checked} coordinates match finite "
          f"differences, {frac:.0%} excluded as kinks (< 20%)")


def test_criterion_5_cuts_never_overestimate_saving(rand_instance, m2):
    """All accumulated cuts under-estimate the true system cost at 20
    random feasible plans per instance."""
    n_checked = 0
    worst = -np.inf
    for inst in [m2, rand_instance(2), rand_instance(7), rand_instance(11)]:
        res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget,
                                 epsilon=EPSILON)
        rng = np.random.default_rng(123)
        for _ in range(20):
            ratings = {}
            for b in inst.net.candidate_buses:
                if rng.random() < 0.6:
                    e = float(rng.uniform(0.5, 25.0))
                    rho = float(rng.uniform(inst.tech.rho_min,
                                            inst.tech.rho_max))
                    ratings[b] = (rho * e, e)
            plan = Plan(ratings)
            ce = plan.investment_cost(inst.tech)
            if inst.budget is not None and ce > inst.budget:
                s = inst.budget / ce
                plan = Plan({b: (p * s, e * s)
                             for b, (p, e) in plan.ratings.items()})
            true = _system_cost(inst, plan)
            pe = plan.grid(inst.net.candidate_buses)
            for k, cut in enumerate(res.cuts):
                excess = (cut.predicted_cost(pe) - true) \
                    / max(1.0, abs(true))
                worst = max(worst, excess)
                assert excess <= 1e-6, \
                    f"{inst.name}: cut {k} overestimates " \
                    f"by {excess:.2e}"
                n_checked += 1
    print(f"criterion 5 PASS: {n_checked} cut evaluations, worst "
          f"relative excess {worst:.2e} <= 1e-06")


def test_criterion_6_exact_relaxation_condition(neglmp):
    """Marginal costs above the negative-price threshold prevent
    simultaneous charge/discharge; below it, cycling appears."""
    plan = Plan({"b1": (20.0, 20.0)})

    # battery-grade marginal costs satisfy the condition at -50/MWh
    libes = load_bundled_tech("libes")
    sol = solve_ed(neglmp.net, neglmp.days[0], plan, libes)
    assert sol.lmp[:, 0].min() < 0
    rep = check_no_simultaneous(sol, libes)
    assert not rep.condition_failures
    assert not rep.violations

    # the bundled counterexample tech has zero marginal cost: condition
    # fails and the optimum cycles in at least one hour
    sol2 = solve_ed(neglmp.net, neglmp.days[0], plan, neglmp.tech)
    rep2 = check_no_simultaneous(sol2, neglmp.tech)
    assert rep2.condition_failures
    assert rep2.violations

    # threshold arithmetic at -200/MWh for 0.9 round-trip efficiency
    eta = split_round_trip_efficiency(0.9)
    tech = load_bundled_tech("libes")
    assert tech.eta_ch == eta
    thr = relaxation_threshold(tech, -200.0)
    assert float(f"{thr:.3g}") == 21.1
    print(f"criterion 6 PASS: condition separates the two regimes; "
          f"threshold({-200}/MWh) = {thr:.4f} = 21.1 (3 s.f.)")


def test_criterion_7_required_rate_of_return(m2_outer):
    """Investment shrinks monotonically with the required return; the
    achieved return always meets it, or no build is reported."""
    inst = m2_outer
    prev_ce = np.inf
    unachievable_seen = False
    for chi in (1.0, 1.1, 1.2, 1.5):
        res = planner.outer_loop(inst.net, inst.days, inst.tech, chi=chi,
                                 budget_init=inst.budget, budget_min=1.0,
                                 max_outer=200)
        ce, cr = res.investment_cost, res.revenue
        assert ce <= prev_ce + 1e-6, f"chi={chi}: investment grew"
        prev_ce = ce
        if res.return_unachievable:
            unachievable_seen = True
            assert res.plan.is_empty()
        else:
            assert cr >= chi * ce - 1e-6 * max(1.0, ce), \
                f"chi={chi}: return not met ({cr:.2f} < {chi * ce:.2f})"
    assert unachievable_seen, "expected an unachievable-return case"
    print("criterion 7 PASS: investment non-increasing over "
          "chi in (1.0, 1.1, 1.2, 1.5); achieved return meets chi; "
          "chi=1.5 correctly reported unachievable")


def test_criterion_8_scaling_benchmark():
    """Decomposition time grows at most 2x linearly in the day count
    and scales better than the monolithic LP."""
    rows = scaling_benchmark(seed=1, sizes=(1, 3, 5, 10))
    t1, m1 = rows[0].decomposition_time, rows[0].monolithic_time
    for r in rows[1:]:
        assert r.decomposition_time <= 2.0 * r.n_days * t1, \
            f"n={r.n_days}: {r.decomposition_time:.2f}s vs linear " \
            f"{r.n_days * t1:.2f}s"
    last = rows[-1]
    dec_ratio = last.decomposition_time / t1
    mono_ratio = last.monolithic_time / m1
    assert mono_ratio > dec_ratio, \
        f"monolithic ratio {mono_ratio:.1f} <= decomposition {dec_ratio:.1f}"
    print(f"criterion 8 PASS: decomposition within 2x linear; at 10 days "
          f"monolithic grew {mono_ratio:.1f}x vs decomposition "
          f"{dec_ratio:.1f}x")


def test_criterion_8_solve_counts(monkeypatch):
    """Deterministic companion to criterion 8: LP solves by caller.  Each
    sweep solves one dispatch LP per day plus one marginal-unit LP per
    empty candidate, so dispatch work grows linearly in the day count."""
    base = instances.random_instance(1, n_buses=10, n_days=10)
    n_cand = len(base.net.candidate_buses)
    real_solve = lp_core.solve
    callers = []

    def counting_solve(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(lp_core, "solve", counting_solve)
    counts = []
    for n in (1, 3, 5, 10):
        callers.clear()
        res = planner.inner_loop(base.net, base.days[:n], base.tech,
                                 base.budget, epsilon=EPSILON)
        sweeps = len(res.iterations) + 1
        assert callers.count("storageplan.dispatch") == n * sweeps
        # sgsp solves between each sweep's dispatch run and the master
        per_sweep, seen = [], None
        for c in callers:
            if c == "storageplan.dispatch" and seen != c:
                per_sweep.append(0)
            elif c == "storageplan.subgradient":
                per_sweep[-1] += 1
            seen = c
        empty = [n_cand] + [n_cand - r.plan_nonzeros for r in res.iterations]
        assert per_sweep == empty
        counts.append((n, sweeps, len(callers)))
    print(f"criterion 8 counts PASS: (days, sweeps, LP solves) {counts}")


def test_criterion_9_reference_technology_configs():
    """The packaged technology files reproduce the published cost model
    exactly."""
    aa = load_bundled_tech("aa_caes")
    assert aa.c_p == prorate_capital_cost(1250.0 * 1000, 0.05, 20)
    assert aa.c_e == prorate_capital_cost(150.0 * 1000, 0.05, 20)
    assert (aa.rho_min, aa.rho_max) == (0.05, 0.25)
    assert aa.eta_ch == aa.eta_dis == split_round_trip_efficiency(0.72)
    assert aa.c_dis == aa.c_ch == aa.c_eu == aa.c_ed == 0.0

    li = load_bundled_tech("libes")
    assert li.c_p == prorate_capital_cost(409.0 * 1000, 0.05, 10)
    assert li.c_e == prorate_capital_cost(468.0 * 1000 / 0.7, 0.05, 10)
    assert li.c_dis == libes_marginal_cost(406.0, 0.7, 1.5e-4) == 87.0
    assert li.c_eu == 0.1 * li.c_dis
    assert li.c_ch == li.c_ed == 0.0
    assert (li.rho_min, li.rho_max) == (0.1, 4.0)
    assert li.eta_ch == li.eta_dis == split_round_trip_efficiency(0.9)
    assert capital_recovery_factor(0.05, 20) == pytest.approx(
        0.0802425872, abs=1e-9)
    print("criterion 9 PASS: bundled compressed-air and battery configs "
          "match the cost model exactly")
