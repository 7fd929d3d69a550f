import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy.sparse import csr_matrix, diags_array

from storageplan import (instances, lp_core, master, oracle, planner,
                         subgradient)
from storageplan.dispatch import build_ed, solve_ed
from storageplan.lp_core import EQ, GE, LE, LPBuilder, LPError
from storageplan.model import Plan
from storageplan.subgradient import Cut, build_sgsp, compute_subgradients


X, Y = 0, 1          # columns of small_lp
COVER, CAP = 0, 1    # rows of small_lp


def small_lp():
    """min 2x + 3y  s.t.  x + y >= 4,  x <= 3,  x, y >= 0."""
    lp = LPBuilder("small")
    x, y = lp.add_cols(2)
    lp.c[[x, y]] = 2.0, 3.0
    cover, cap = lp.add_rows(2)
    lp.set_rows(cover, GE, 4.0, (x, 1.0), (y, 1.0))
    lp.set_rows(cap, LE, 3.0, (x, 1.0))
    return lp.build()


def one_var_lp(lb, ub, cost, row=None):
    """min cost * x over lb <= x <= ub and an optional ``(relation, rhs)``
    row on x alone."""
    lp = LPBuilder("one")
    (x,) = lp.add_cols(1)
    lp.lb[x], lp.ub[x], lp.c[x] = lb, ub, cost
    if row is not None:
        relation, rhs = row
        lp.set_rows(lp.add_rows(1), relation, rhs, (x, 1.0))
    return lp.build()


class TestBuilder:
    def test_counts(self):
        lp = small_lp()
        assert lp.n_vars == 2
        assert lp.n_rows == 2
        assert lp.nnz() == 3

    def test_lp_without_coefficients(self):
        lp = one_var_lp(-math.inf, math.inf, 1.0)
        assert lp.A.shape == (0, 1)
        assert lp.nnz() == 0
        assert lp_core.solve(lp).status == "unbounded"


class TestSolve:
    def test_small(self):
        sol = lp_core.solve(small_lp())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(9.0)  # x=3, y=1
        assert sol.x[X] == pytest.approx(3.0)
        assert sol.x[Y] == pytest.approx(1.0)

    def test_dual_signs(self):
        sol = lp_core.solve(small_lp())
        # >= row active: nonnegative dual equal to marginal cost of cover
        assert sol.duals[COVER] == pytest.approx(3.0)
        # <= row active and relieving it saves money: nonpositive dual
        assert sol.duals[CAP] == pytest.approx(-1.0)

    def test_equality_dual(self):
        sol = lp_core.solve(one_var_lp(-math.inf, math.inf, 5.0, (EQ, 2.0)))
        assert sol.objective == pytest.approx(10.0)
        assert sol.duals[0] == pytest.approx(5.0)

    def test_infeasible(self):
        lp = one_var_lp(0.0, 1.0, 0.0, (GE, 2.0))
        assert lp_core.solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = one_var_lp(-math.inf, math.inf, 1.0)
        assert lp_core.solve(lp).status == "unbounded"

    def test_no_vars(self):
        with pytest.raises(LPError):
            lp_core.solve(LPBuilder("empty").build())

    def test_deterministic(self):
        a = lp_core.solve(small_lp())
        b = lp_core.solve(small_lp())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.duals, b.duals)
        assert a.objective == b.objective


class TestDuality:
    def test_gap_zero_at_optimum(self):
        lp = small_lp()
        sol = lp_core.solve(lp)
        assert lp_core.duality_gap(sol, lp) <= 1e-9

    def test_gap_detects_perturbed_duals(self):
        lp = small_lp()
        sol = lp_core.solve(lp)
        sol.duals[COVER] += 1.25  # dual objective shifts by 1.25 * rhs = 5
        gap = lp_core.duality_gap(sol, lp)
        assert gap == pytest.approx(5.0 / max(1.0, abs(sol.objective)))

    def test_gap_requires_optimal(self):
        lp = one_var_lp(0.0, 1.0, 0.0, (GE, 2.0))
        sol = lp_core.solve(lp)
        with pytest.raises(LPError):
            lp_core.duality_gap(sol, lp)

    def test_feasibility_and_complementarity(self):
        lp = small_lp()
        sol = lp_core.solve(lp)
        assert lp_core.max_constraint_violation(sol, lp) <= lp_core.FEAS_TOL
        assert lp_core.max_complementarity_violation(sol, lp) \
            <= lp_core.COMP_TOL


def _vertex_optimum(c, rows, box):
    """Brute-force optimum of min c.x over {A x (rel) b, 0 <= x <= box}
    by enumerating vertices (pairwise constraint intersections in 2-d)."""
    halfplanes = []  # (a, b) meaning a.x <= b
    for a, rel, b in rows:
        if rel == LE:
            halfplanes.append((np.asarray(a, float), b))
        else:
            halfplanes.append((-np.asarray(a, float), -b))
    halfplanes.append((np.array([1.0, 0.0]), box))
    halfplanes.append((np.array([0.0, 1.0]), box))
    halfplanes.append((np.array([-1.0, 0.0]), 0.0))
    halfplanes.append((np.array([0.0, -1.0]), 0.0))
    best = None
    for (a1, b1), (a2, b2) in itertools.combinations(halfplanes, 2):
        A = np.array([a1, a2])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, [b1, b2])
        if all(a @ x <= b + 1e-9 for a, b in halfplanes):
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


class TestAgainstVertexEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_2d(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-5, 5, 2)
        rows = []
        for i in range(4):
            a = rng.uniform(-1, 1, 2)
            rel = LE if rng.random() < 0.5 else GE
            # keep the origin-anchored box feasible region nonempty
            b = float(rng.uniform(0.5, 5)) if rel == LE else float(
                rng.uniform(-5, -0.5))
            rows.append((a, rel, b))
        lp = LPBuilder("rand2d")
        xy = lp.add_cols(2)
        lp.ub[xy] = 10.0
        lp.c[xy] = c
        for a, rel, b in rows:
            lp.set_rows(lp.add_rows(1), rel, b, (xy, a))
        expected = _vertex_optimum(c, rows, 10.0)
        sol = lp_core.solve(lp.build())
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-7)


# -- HiGHS run directly, and warm starts ------------------------------------

@pytest.fixture(scope="module")
def planning_lps():
    """A dispatch LP with storage, a marginal-unit LP, a master LP and a
    2-day oracle LP of random_instance(1, n_buses=10, n_days=2)."""
    inst = instances.random_instance(1, n_buses=10, n_days=2)
    net, days, tech = inst.net, inst.days, inst.tech
    plan = Plan({b: (2.0, 4.0) for b in net.candidate_buses[:2]})
    sols = {d.day_id: solve_ed(net, d, plan, tech) for d in days}
    cost = sum(d.weight * sols[d.day_id].cost for d in days)
    pe = plan.grid(net.candidate_buses)
    grads = compute_subgradients(net, days, sols, pe, tech)
    state = master.MasterState(list(net.candidate_buses), tech, inst.budget)
    state.add_cut(Cut(pe, cost, grads))
    return {
        "dispatch": build_ed(net, days[0], plan, tech),
        "sgsp": build_sgsp(days, sols, tech, net.candidate_buses[-1]),
        "master": master._build_master(state),
        "oracle": oracle.build_monolithic(net, days, tech, inst.budget),
    }


def _scipy_linprog(lp):
    """scipy.optimize.linprog on ``lp`` in scipy's form: the ``<=`` rows
    and the negated ``>=`` rows as ``A_ub``, the ``=`` rows as ``A_eq``.
    Returns the result and its row duals in model order and sign."""
    ub = np.flatnonzero(lp.sense != 0)
    eq = np.flatnonzero(lp.sense == 0)
    sign = lp.sense[ub].astype(float)
    tol = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
    ref = scipy.optimize.linprog(
        lp.c, A_ub=diags_array(sign) @ lp.A[ub], b_ub=sign * lp.rhs[ub],
        A_eq=lp.A[eq], b_eq=lp.rhs[eq], bounds=np.column_stack((lp.lb, lp.ub)),
        method="highs", options={k: lp_core._RUN_OPTIONS[k] for k in tol})
    assert ref.status == 0
    duals = np.zeros(lp.n_rows)
    duals[ub] = sign * ref.ineqlin.marginals
    duals[eq] = ref.eqlin.marginals
    return ref, duals


@pytest.mark.parametrize("kind",
                         ["dispatch", "sgsp", "master", "oracle", "small"])
def test_cold_run_equals_scipy_linprog(planning_lps, kind):
    """Pins the private HiGHS bindings against scipy.optimize.linprog: a
    cold solve reaches scipy's optimum, with duals that prove it, and
    where the optimum is unique (sgsp, master, small) scipy's vertex,
    row duals and reduced costs.  HiGHS gets the rows in another layout than scipy hands it,
    so on a degenerate LP it may stop at another optimal vertex."""
    lp = small_lp() if kind == "small" else planning_lps[kind]
    ref, ref_duals = _scipy_linprog(lp)
    sol = lp_core.solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-12)
    assert lp_core.duality_gap(sol, lp) <= lp_core.GAP_TOL
    assert lp_core.max_constraint_violation(sol, lp) <= lp_core.FEAS_TOL
    assert lp_core.max_complementarity_violation(sol, lp) <= lp_core.COMP_TOL
    if kind in ("sgsp", "master", "small"):
        assert sol.x == pytest.approx(ref.x, abs=1e-9)
        assert sol.duals == pytest.approx(ref_duals, abs=1e-9)
        assert sol.reduced_costs == pytest.approx(
            ref.lower.marginals + ref.upper.marginals, abs=1e-9)


def test_rows_are_loaded_as_written():
    """HiGHS holds small_lp's rows in model order, each sense as row
    bounds: the ``>=`` cover row as [4, inf], the ``<=`` cap row as
    [-inf, 3]."""
    held = lp_core.linprog(small_lp()).model.getLp()
    assert np.array_equal(held.row_lower_, [4.0, -math.inf])
    assert np.array_equal(held.row_upper_, [math.inf, 3.0])


def test_model_rejected_at_load_is_a_solver_failure():
    """An LP HiGHS refuses to load (a NaN right-hand side) is an error
    naming the LP, not an infeasible LP."""
    lp = replace(small_lp(), rhs=np.array([math.nan, 3.0]))
    assert lp_core.linprog(lp).status == lp_core.FAILED
    with pytest.raises(LPError, match="solver failure on small"):
        lp_core.solve(lp)


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_rejected_before_highs_runs(monkeypatch, cost):
    """HiGHS takes a NaN cost and solves to a NaN objective, drops an
    infinite one, and fails on a minus-infinite one; solve refuses all
    three, naming the LP, and never runs HiGHS."""
    runs = []
    monkeypatch.setattr(lp_core, "linprog",
                        lambda *args, **kwargs: runs.append(args))
    lp = replace(small_lp(), c=np.array([cost, 3.0]))
    with pytest.raises(LPError, match="non-finite cost in small"):
        lp_core.solve(lp)
    assert runs == []


def _unknown_first(monkeypatch) -> list:
    """Patch ``lp_core.linprog`` so that its first run ends in HiGHS's
    unknown status; the list returned collects the ``solver`` of each
    run."""
    real, solvers = lp_core.linprog, []

    def unknown_first(lp, solver=None, **kwargs):
        solvers.append(solver)
        if len(solvers) == 1:
            return lp_core.LPSolution(lp_core.FAILED, "Unknown", 0)
        return real(lp, solver=solver, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", unknown_first)
    return solvers


@pytest.mark.parametrize("kind", ["small", "master"])
def test_interior_point_solver(planning_lps, kind, monkeypatch):
    """A cold solve that ends in an unknown status is repeated by
    interior point, which ends optimal at the dual simplex's bound, with
    row duals and reduced costs read from the crossover's vertex."""
    lp = small_lp() if kind == "small" else planning_lps[kind]
    ref = lp_core.solve(lp)
    solvers = _unknown_first(monkeypatch)
    sol = lp_core.solve(lp)
    assert solvers == [None, "ipm"]
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
    assert sol.duals.shape == ref.duals.shape
    assert sol.reduced_costs.shape == ref.reduced_costs.shape
    if kind == "small":    # a unique vertex
        assert sol.x == pytest.approx(ref.x, abs=1e-9)
        assert sol.duals == pytest.approx(ref.duals, abs=1e-9)


@pytest.mark.parametrize("kind", ["dispatch", "sgsp", "master"])
def test_interior_point_run_leaves_the_model_on_simplex(planning_lps, kind):
    """One interior-point run reaches the dual simplex's optimum with a
    closed duality gap, and leaves its model on the simplex solver at a
    basis that a hot re-solve keeps."""
    lp = planning_lps[kind]
    ref = lp_core.linprog(lp)
    sol = lp_core.linprog(lp, solver="ipm")
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
    assert lp_core.duality_gap(sol, lp) <= lp_core.GAP_TOL
    assert sol.model.getOptionValue("solver")[1] == "simplex"
    again = lp_core.linprog(lp, model=sol.model)
    assert (again.status, again.nit) == ("optimal", 0)
    assert again.objective == sol.objective


def test_interior_point_run_reports_its_iterations(planning_lps):
    """An interior-point run reports its own and its crossover's
    iterations beside the simplex count, which stays the simplex's
    alone; a simplex run reports no interior-point iterations."""
    lp = planning_lps["dispatch"]
    ipm = lp_core.linprog(lp, solver="ipm")
    assert ipm.status == "optimal"
    assert ipm.ipm_nit > 0 and ipm.nit == 0
    simplex = lp_core.linprog(lp)
    assert simplex.nit > 0
    assert (simplex.ipm_nit, simplex.crossover_nit) == (0, 0)
    again = lp_core.linprog(lp, model=ipm.model)
    assert (again.nit, again.ipm_nit, again.crossover_nit) == (0, 0, 0)


@pytest.mark.parametrize("kind", ["dispatch", "sgsp", "master"])
def test_reduced_costs_are_zero_at_basic_columns(planning_lps, kind):
    """HiGHS reports a reduced cost of exactly 0 at every basic column,
    so its column duals are read as they are."""
    sol = lp_core.linprog(planning_lps[kind])
    status, basic = sol.model.getBasicVariables()
    assert status == lp_core._highs.HighsStatus.kOk
    cols = basic[basic >= 0]
    assert cols.size > 0
    assert np.all(sol.reduced_costs[cols] == 0.0)


@pytest.mark.parametrize("kind", ["dispatch", "sgsp", "master"])
def test_restart_from_own_basis_takes_no_iterations(planning_lps, kind):
    lp = planning_lps[kind]
    cold = lp_core.linprog(lp)
    warm = lp_core.linprog(lp, basis=cold.model.getBasis())
    assert warm.status == "optimal"
    assert warm.nit == 0
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


@pytest.mark.parametrize("kind, status, message", [
    ("dispatch", "optimal", "Optimal"),
    ("capped", "infeasible", "Infeasible"),
    ("unbounded", "unbounded", "Unbounded"),
])
def test_solve_reports_highs_message_and_iterations(planning_lps, kind,
                                                    status, message):
    """solve hands back the outcome of its HiGHS run as it is: the
    status, HiGHS's name for it and the simplex iteration count.  With
    every generator capped at 1 MW the dispatch LP is infeasible, found
    so only after simplex iterations."""
    dispatch = planning_lps["dispatch"]
    ub = dispatch.ub.copy()
    ub[dispatch.cols["pg"]] = 1.0
    lp = {"dispatch": dispatch, "capped": replace(dispatch, ub=ub),
          "unbounded": one_var_lp(-math.inf, math.inf, 1.0)}[kind]
    run = lp_core.linprog(lp)
    sol = lp_core.solve(lp)
    assert (sol.status, sol.message) == (status, message)
    assert sol.nit == run.nit
    if kind != "unbounded":    # presolve finds the ray without a pivot
        assert sol.nit > 0


def test_hot_re_solves_keep_the_first_basis(monkeypatch):
    """A held entry keeps the basis of its model's first solve: hot
    re-solves neither replace it nor read a basis from HiGHS."""
    real, reads = lp_core._Highs.getBasis, []

    def counting(highs):
        reads.append(highs)
        return real(highs)

    monkeypatch.setattr(lp_core._Highs, "getBasis", counting)
    starts = {}
    base = small_lp()
    lp_core.solve(base, starts)
    first = starts["small"].basis
    for cost in (1.0, 4.0, 2.5):
        lp_core.solve(replace(base, c=np.array([cost, 3.0])), starts)
        assert starts["small"].lp.c[0] == cost
    assert starts["small"].basis is first
    assert reads == [starts["small"].model]


def test_start_from_another_model_of_the_same_shape():
    """A stale basis only changes the path: the warm solve of one LP
    from the basis of a different LP of the same name and shape still
    reaches the LP's own cold optimum."""
    inst = instances.random_instance(1, n_buses=10, n_days=1)
    net, (day,), tech = inst.net, inst.days, inst.tech
    buses = net.candidate_buses[:2]
    small = build_ed(net, day, Plan({b: (1.0, 2.0) for b in buses}), tech)
    large = build_ed(net, day, Plan({b: (6.0, 9.0) for b in buses}), tech)
    key = large.name
    assert (key, large.A.shape) == (small.name, small.A.shape)
    starts = {}
    lp_core.solve(small, starts)
    stale = starts[key]
    warm = lp_core.solve(large, starts)
    assert starts[key] is not stale
    cold = lp_core.solve(large)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.objective != pytest.approx(
        lp_core.solve(small).objective, rel=1e-6)


def test_warm_starts_in_inner_loop_match_cold_solves(monkeypatch):
    """Deterministic companion of the warm-start speedup: every dispatch
    and marginal-unit LP that the inner loop re-solves hot or loads from
    another LP's basis has its cold optimum, and the started solves take
    fewer simplex iterations."""
    inst = instances.random_instance(1, n_buses=10, n_days=5)
    real_solve, real_linprog = lp_core.solve, lp_core.linprog
    nits = []
    warm = {"ed": 0, "sgsp": 0}
    iters = {"warm": 0, "cold": 0}

    def counting_linprog(*args, **kwargs):
        res = real_linprog(*args, **kwargs)
        nits.append(res.nit)
        return res

    def checking_solve(lp, starts=None):
        if starts is None:
            return real_solve(lp)
        hot = lp.name in starts
        sol = real_solve(lp, starts)
        iters["warm"] += nits[-1]
        cold = real_solve(lp)
        iters["cold"] += nits[-1]
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
        warm[lp.name.split("[")[0]] += hot
        return sol

    monkeypatch.setattr(lp_core, "linprog", counting_linprog)
    monkeypatch.setattr(lp_core, "solve", checking_solve)
    res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget,
                             epsilon=0.05)
    assert res.converged
    assert warm["ed"] > 0 and warm["sgsp"] > 0
    assert iters["warm"] < iters["cold"]


def _held_arrays(highs) -> list[np.ndarray]:
    """Costs, bounds, row bounds and matrix of a loaded HiGHS model."""
    lp = highs.getLp()
    m = lp.a_matrix_
    return [np.asarray(v) for v in (lp.col_cost_, lp.col_lower_,
                                    lp.col_upper_, lp.row_lower_,
                                    lp.row_upper_, m.start_, m.index_,
                                    m.value_)]


def _assert_holds(starts, fresh):
    """The model held in ``starts`` under ``fresh``'s name is the model a
    cold load of ``fresh`` gives HiGHS."""
    key = fresh.name
    store = {}
    lp_core.solve(fresh, store)
    for a, b in zip(_held_arrays(starts[key].model),
                    _held_arrays(store[key].model)):
        assert np.array_equal(a, b)


def test_held_models_equal_fresh_builds(monkeypatch):
    """After every re-solve of an inner loop, the dispatch and
    marginal-unit models held in HiGHS equal the models of fresh
    ``build_ed``/``build_sgsp`` calls at that plan or those prices."""
    inst = instances.random_instance(1, n_buses=10, n_days=3)
    net, tech = inst.net, inst.tech
    real_ed, real_sgsp = planner.solve_ed, subgradient.solve_sgsp
    checked = {"ed": 0, "sgsp": 0}

    def checking_ed(net, day, plan, tech, starts=None):
        sol = real_ed(net, day, plan, tech, starts=starts)
        _assert_holds(starts, build_ed(net, day, plan, tech))
        checked["ed"] += 1
        return sol

    def checking_sgsp(days, prices, tech, bus, starts=None):
        out = real_sgsp(days, prices, tech, bus, starts)
        _assert_holds(starts, build_sgsp(days, prices, tech, bus))
        checked["sgsp"] += 1
        return out

    monkeypatch.setattr(planner, "solve_ed", checking_ed)
    monkeypatch.setattr(subgradient, "solve_sgsp", checking_sgsp)
    res = planner.inner_loop(net, inst.days, tech, inst.budget)
    assert res.converged and len(res.iterations) > 1
    assert checked["ed"] > len(inst.days) and checked["sgsp"] > 1


def _recording_loads(monkeypatch) -> tuple[list, list, list]:
    """Patch ``lp_core`` to record the name of each LP solved, the name
    of each LP loaded into a new HiGHS model and each start store."""
    real_solve, real_linprog = lp_core.solve, lp_core.linprog
    names, loads, stores = [], [], []

    def naming_solve(lp, starts=None):
        names.append(lp.name)
        if starts is not None and not any(s is starts for s in stores):
            stores.append(starts)
        return real_solve(lp, starts)

    def counting_linprog(*args, model=None, **kwargs):
        if model is None:
            loads.append(names[-1])
        return real_linprog(*args, model=model, **kwargs)

    monkeypatch.setattr(lp_core, "solve", naming_solve)
    monkeypatch.setattr(lp_core, "linprog", counting_linprog)
    return names, loads, stores


def _assert_loaded_once(days, names, loads, stores):
    """One planning call loaded one model per day and one marginal-unit
    model, which the empty buses shared, and its one store holds those
    ``len(days) + 1`` models; every other solve re-used a model."""
    sgsp = subgradient._name(days)
    models = sorted([f"ed[{d.day_id}]" for d in days] + [sgsp])
    assert names.count(sgsp) > 1
    assert sorted(set(names) - {"master"}) == models
    held = [n for n in loads if n != "master"]
    assert sorted(held) == models
    assert len(names) - names.count("master") > len(held)
    (store,) = stores
    assert sorted(store) == models and len(store) == len(days) + 1


def test_each_lp_is_loaded_once_per_planning_call(monkeypatch):
    """An inner loop loads one HiGHS model per day and exactly one
    marginal-unit model, which every empty bus of every sweep re-costs;
    every other solve re-uses a model."""
    inst = instances.random_instance(1, n_buses=10, n_days=5)
    names, loads, stores = _recording_loads(monkeypatch)
    res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget)
    assert len(res.iterations) > 1
    _assert_loaded_once(inst.days, names, loads, stores)


def test_outer_loop_rounds_share_the_held_models(monkeypatch):
    """The rounds of an outer loop share one store, so a 2-round call
    also loads one model per day and one marginal-unit model."""
    inst = instances.random_instance(2, n_buses=8, n_days=2)
    names, loads, stores = _recording_loads(monkeypatch)
    res = planner.outer_loop(inst.net, inst.days, inst.tech, chi=5.0,
                             budget_init=inst.budget)
    assert len(res.outer_trace) == 2
    _assert_loaded_once(inst.days, names, loads, stores)


def _boxed_small_lp(y_lo: float, y_hi: float, base=None):
    """small_lp, or ``base``'s rows, with ``y_lo <= y <= y_hi``:
    infeasible when ``y_hi < 1``."""
    lp = small_lp() if base is None else base
    return replace(lp, lb=np.array([0.0, y_lo]), ub=np.array([math.inf, y_hi]))


def test_patched_lp_reaches_cold_outcomes(monkeypatch):
    """Hot starts never change an outcome: a held LP patched infeasible
    and back to feasible through its column bounds gets the status and
    objective of fresh cold solves, and the store drops a model whose
    solve did not end optimal."""
    starts = {}
    key = "small"
    base = small_lp()
    outcomes, runs = [], []
    for box in ((0.0, 1.0), (0.0, 0.5), (2.0, 4.0), (0.0, 3.0)):
        lp = _boxed_small_lp(*box, base)
        sol, started = _solve_held(lp, starts, monkeypatch)
        cold = lp_core.solve(lp)
        runs.append(started)
        assert sol.status == cold.status
        assert (key in starts) == (cold.status == "optimal")
        if cold.status == "optimal":
            assert sol.objective == cold.objective
            assert np.array_equal(sol.x, cold.x)
        outcomes.append(cold.objective if cold.status == "optimal"
                        else cold.status)
    assert outcomes == [9.0, "infeasible", 10.0, 9.0]
    # each re-solve of a held model runs hot; the infeasible one is
    # repeated cold and dropped, so the next LP is loaded afresh
    assert runs == [["cold"], ["model", "cold"], ["cold"], ["model"]]


def _solve_held(lp, starts, monkeypatch):
    """Solve ``lp`` with the store ``starts``; also list how each HiGHS
    run started: from a held ``"model"``, a ``"basis"`` or cold."""
    real = lp_core.linprog
    started = []

    def recording(lp, basis=None, model=None, **kwargs):
        started.append("model" if model is not None
                       else "basis" if basis is not None else "cold")
        return real(lp, basis=basis, model=model, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", recording)
    sol = lp_core.solve(lp, starts)
    monkeypatch.undo()
    return sol, started


def test_held_name_with_another_shape_is_loaded_fresh(monkeypatch):
    """An LP under a held name but with another matrix shape is not
    patched into the held model: it is loaded cold and replaces it.  The
    extra column is in no row, so only the shape tells the matrices
    apart."""
    starts = {}
    held = small_lp()
    lp_core.solve(held, starts)
    wider = replace(held, c=np.append(held.c, -1.0),
                    lb=np.append(held.lb, 0.0), ub=np.append(held.ub, 2.0),
                    A=csr_matrix((held.A.data, held.A.indices,
                                  held.A.indptr), shape=(2, 3)))
    sol, started = _solve_held(wider, starts, monkeypatch)
    assert started == ["cold"]
    assert list(starts) == ["small"] and starts["small"].lp is wider
    cold = lp_core.solve(wider)
    assert sol.objective == cold.objective == pytest.approx(7.0)
    assert np.array_equal(sol.x, cold.x)


@pytest.mark.parametrize("rows", [
    {"rhs": np.array([5.0, 3.0])},                     # x + y >= 5
    {"sense": np.array([-1, -1], dtype=np.int8)},      # x >= 3
])
def test_held_name_with_other_rows_is_loaded_fresh(rows, monkeypatch):
    """A held model keeps its rows: an LP under its name with the same
    matrix but another right-hand side or sense is loaded afresh from
    the held basis, not patched, and gets its own cold optimum."""
    starts = {}
    held = small_lp()
    lp_core.solve(held, starts)
    other = replace(held, **rows)
    sol, started = _solve_held(other, starts, monkeypatch)
    assert started == ["basis"]
    assert starts["small"].lp is other
    cold = lp_core.solve(other)
    assert cold.objective != pytest.approx(9.0)
    assert sol.objective == cold.objective
    assert np.array_equal(sol.x, cold.x)


def test_inner_loop_re_solves_keep_the_held_rows(monkeypatch):
    """Every re-solve of a held dispatch or marginal-unit LP in an inner
    loop shares the held LP's matrix, senses and right-hand sides, so
    only costs and column bounds reach HiGHS."""
    inst = instances.random_instance(1, n_buses=10, n_days=3)
    real_solve = lp_core.solve
    shared = {"ed": 0, "sgsp": 0}

    def checking_solve(lp, starts=None):
        if starts is not None and lp.name in starts:
            hold = starts[lp.name].lp
            assert lp.A is hold.A and lp.sense is hold.sense \
                and lp.rhs is hold.rhs, lp.name
            shared[lp.name.split("[")[0]] += 1
        return real_solve(lp, starts)

    monkeypatch.setattr(lp_core, "solve", checking_solve)
    res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget)
    assert res.converged and len(res.iterations) > 1
    assert shared["ed"] > 0 and shared["sgsp"] > 0


def test_failed_hot_solve_is_repeated_cold(monkeypatch):
    """A re-solve of a held model that does not end optimal is loaded
    and solved again cold before its outcome is reported."""
    starts = {}
    base = _boxed_small_lp(0.0, 1.0)
    lp_core.solve(base, starts)
    real = lp_core.linprog
    hot = []

    def failing_hot(lp, model=None, **kwargs):
        hot.append(model is not None)
        if model is not None:
            return lp_core.LPSolution(lp_core.FAILED, "forced failure", 0)
        return real(lp, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", failing_hot)
    sol = lp_core.solve(_boxed_small_lp(2.0, 4.0, base), starts)
    monkeypatch.undo()
    assert hot == [True, False]
    assert sol.status == "optimal"
    assert sol.objective == lp_core.solve(_boxed_small_lp(2.0, 4.0)).objective


def test_held_lp_with_unknown_simplex_status_is_solved_by_interior_point(
        monkeypatch):
    """Every LP runs the same ladder: a re-solve of a held dispatch LP
    whose simplex runs end in an unknown status, hot and then cold, is
    solved by interior point to its cold optimum, and the model it
    leaves held re-solves hot by simplex."""
    inst = instances.random_instance(1, n_buses=10, n_days=1)
    net, (day,), tech = inst.net, inst.days, inst.tech
    buses = net.candidate_buses[:2]
    small = Plan({b: (1.0, 2.0) for b in buses})
    large = Plan({b: (6.0, 9.0) for b in buses})
    starts = {}
    solve_ed(net, day, small, tech, starts)
    real, runs = lp_core.linprog, []

    def simplex_unknown(lp, basis=None, model=None, solver=None, **kwargs):
        runs.append("model" if model is not None
                    else "basis" if basis is not None else solver or "cold")
        if solver is None:
            return lp_core.LPSolution(lp_core.FAILED, "Unknown", 0)
        return real(lp, basis=basis, model=model, solver=solver, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", simplex_unknown)
    sol = solve_ed(net, day, large, tech, starts)
    monkeypatch.undo()
    assert runs == ["model", "cold", "ipm"]
    held_model = starts[f"ed[{day.day_id}]"].model
    assert held_model.getOptionValue("solver")[1] == "simplex"
    cold = lp_core.solve(build_ed(net, day, large, tech))
    assert sol.cost == pytest.approx(cold.objective, rel=1e-9)
    assert sol.duality_gap <= lp_core.GAP_TOL

    again, started = _solve_held(
        lp_core.held(starts, f"ed[{day.day_id}]"), starts, monkeypatch)
    assert (started, again.nit) == (["model"], 0)
    assert again.objective == pytest.approx(cold.objective, rel=1e-9)
