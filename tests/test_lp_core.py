import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy.sparse import csr_matrix

from storageplan import (instances, lp_core, master, oracle, planner,
                         subgradient)
from storageplan.dispatch import build_ed, solve_ed
from storageplan.lp_core import EQ, GE, LE, LPBuilder, LPError
from storageplan.model import Plan
from storageplan.subgradient import (assemble_cut, build_sgsp,
                                     compute_subgradients)


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
    grads, branch = compute_subgradients(net, days, sols, plan, tech)
    state = master.MasterState(list(net.candidate_buses), tech, inst.budget)
    state.add_cut(assemble_cut(net, plan, cost, grads, branch, 0))
    return {
        "dispatch": build_ed(net, days[0], plan, tech),
        "sgsp": build_sgsp(days, sols, tech, net.candidate_buses[-1]),
        "master": master._build_master(state),
        "oracle": oracle.build_monolithic(net, days, tech, inst.budget),
    }


def _linprog_call(lp, monkeypatch):
    """The arguments ``lp_core.solve`` hands ``lp_core.linprog`` for ``lp``."""
    calls = []
    real = lp_core.linprog

    def recording(c, **kwargs):
        calls.append((c, kwargs))
        return real(c, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", recording)
    lp_core.solve(lp)
    monkeypatch.undo()
    (call,) = calls
    return call


@pytest.mark.parametrize("kind", ["dispatch", "sgsp", "master", "oracle"])
def test_cold_run_equals_scipy_linprog(planning_lps, kind, monkeypatch):
    """Pins the private HiGHS bindings: a cold run returns exactly what
    scipy.optimize.linprog returns for the same arrays."""
    c, kwargs = _linprog_call(planning_lps[kind], monkeypatch)
    ours = lp_core.linprog(c, **kwargs)
    ref = scipy.optimize.linprog(c, method="highs",
                                 options=lp_core._HIGHS_OPTIONS, **kwargs)
    assert ours.status == ref.status == 0
    assert ours.nit == ref.nit > 0
    assert ours.fun == ref.fun
    assert np.array_equal(ours.x, ref.x)
    assert np.array_equal(ours.ineq_duals, ref.ineqlin.marginals)
    assert np.array_equal(ours.eq_duals, ref.eqlin.marginals)
    assert np.array_equal(ours.reduced_costs,
                          ref.lower.marginals + ref.upper.marginals)


@pytest.mark.parametrize("kind", ["dispatch", "sgsp", "master"])
def test_restart_from_own_basis_takes_no_iterations(planning_lps, kind,
                                                    monkeypatch):
    c, kwargs = _linprog_call(planning_lps[kind], monkeypatch)
    cold = lp_core.linprog(c, **kwargs)
    warm = lp_core.linprog(c, basis=cold.basis, **kwargs)
    assert warm.status == 0
    assert warm.nit == 0
    assert warm.fun == pytest.approx(cold.fun, rel=1e-12)


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
    for a, b in zip(_held_arrays(starts[key].model.highs),
                    _held_arrays(store[key].model.highs)):
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


def test_each_lp_is_loaded_once_per_planning_call(monkeypatch):
    """An inner loop loads one HiGHS model per day and one per bus whose
    marginal-unit LP it solves; every other solve re-uses a model."""
    inst = instances.random_instance(1, n_buses=10, n_days=5)
    real_solve, real_linprog = lp_core.solve, lp_core.linprog
    names, loads = [], []

    def naming_solve(lp, starts=None):
        names.append(lp.name)
        return real_solve(lp, starts)

    def counting_linprog(*args, model=None, **kwargs):
        if model is None:
            loads.append(names[-1])
        return real_linprog(*args, model=model, **kwargs)

    monkeypatch.setattr(lp_core, "solve", naming_solve)
    monkeypatch.setattr(lp_core, "linprog", counting_linprog)
    res = planner.inner_loop(inst.net, inst.days, inst.tech, inst.budget)
    days = {n for n in names if n.startswith("ed[")}
    buses = {n for n in names if n.startswith("sgsp[")}
    assert len(res.iterations) > 1 and buses
    assert days == {f"ed[{d.day_id}]" for d in inst.days}
    held = [n for n in loads if n != "master"]
    assert len(held) == len(inst.days) + len(buses)
    assert set(held) == days | buses
    assert len(names) - names.count("master") > len(held)


def _boxed_small_lp(y_lo: float, y_hi: float):
    """small_lp with ``y_lo <= y <= y_hi``: infeasible when ``y_hi < 1``."""
    lp = small_lp()
    return replace(lp, lb=np.array([0.0, y_lo]), ub=np.array([math.inf, y_hi]))


def test_patched_lp_reaches_cold_outcomes():
    """Hot starts never change an outcome: a held LP patched infeasible
    and back to feasible through its column bounds gets the status and
    objective of fresh cold solves, and the store drops a model whose
    solve did not end optimal."""
    starts = {}
    key = "small"
    outcomes = []
    for box in ((0.0, 1.0), (0.0, 0.5), (2.0, 4.0), (0.0, 3.0)):
        lp = _boxed_small_lp(*box)
        sol, cold = lp_core.solve(lp, starts), lp_core.solve(lp)
        assert sol.status == cold.status
        assert (key in starts) == (cold.status == "optimal")
        if cold.status == "optimal":
            assert sol.objective == cold.objective
            assert np.array_equal(sol.x, cold.x)
        outcomes.append(cold.objective if cold.status == "optimal"
                        else cold.status)
    assert outcomes == [9.0, "infeasible", 10.0, 9.0]


def _solve_held(lp, starts, monkeypatch):
    """Solve ``lp`` with the store ``starts``; also list how each HiGHS
    run started: from a held ``"model"``, a ``"basis"`` or cold."""
    real = lp_core.linprog
    started = []

    def recording(c, basis=None, model=None, **kwargs):
        started.append("model" if model is not None
                       else "basis" if basis is not None else "cold")
        return real(c, basis=basis, model=model, **kwargs)

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
    lp_core.solve(_boxed_small_lp(0.0, 1.0), starts)
    real = lp_core.linprog
    hot = []

    def failing_hot(c, model=None, **kwargs):
        hot.append(model is not None)
        if model is not None:
            return lp_core.HighsResult(4, "forced failure", 0)
        return real(c, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", failing_hot)
    sol = lp_core.solve(_boxed_small_lp(2.0, 4.0), starts)
    monkeypatch.undo()
    assert hot == [True, False]
    assert sol.status == "optimal"
    assert sol.objective == lp_core.solve(_boxed_small_lp(2.0, 4.0)).objective
