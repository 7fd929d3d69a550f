"""Linear programs in array form, solved by HiGHS with fixed dual signs.

This is the single numerical engine behind dispatch, the marginal-unit
subproblem, the master problem and the monolithic baseline.  Every LP
is assembled block by block with numpy by :class:`LPBuilder` into an
:class:`ArrayLP`, whose named index grids read solutions back by
slicing.  Solving runs HiGHS directly through the bindings bundled with
scipy (:func:`linprog`), with the model and options that
:func:`scipy.optimize.linprog` would hand it.  The wrapper fixes the
dual sign convention used throughout the package:

* the dual of a row is d(objective)/d(rhs) of the row *as written*, so
  under minimization ``<=`` rows have nonpositive duals, ``>=`` rows
  nonnegative duals, and equality rows free duals;
* reduced costs follow the same convention for variable bounds
  (nonnegative at a lower bound, nonpositive at an upper bound).

An LP that is solved again and again (a day's dispatch, a marginal-unit
LP) stays loaded in HiGHS between solves with its rows fixed: a
re-solve patches only the costs and column bounds that changed and runs
again from the model's own basis and factorization, and an LP's first
load starts from the basis of an earlier LP of the same shape (see
:func:`solve`).  Starts change only the simplex path, never the model,
so the optimum is the same up to the choice among degenerate optimal
vertices.  HiGHS is deterministic for identical input and start, so
repeated solves return bit-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array, csr_matrix, vstack

try:
    from scipy.optimize._highspy import _core as _highs
    from scipy.optimize._highspy._core import _Highs
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "storageplan needs scipy >= 1.15: it runs HiGHS through "
        "scipy.optimize._highspy._core._Highs") from exc

LE, GE, EQ = "<=", ">=", "="
# row sense codes of an ArrayLP: the sign that turns the row into "<="
# for inequalities, 0 for equalities
SENSE = {LE: 1, GE: -1, EQ: 0}

FEAS_TOL = 1e-7
GAP_TOL = 1e-8
COMP_TOL = 1e-6

# in the vocabulary of scipy.optimize.linprog(method="highs")
_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
# what scipy sets on HiGHS for those options
_RUN_OPTIONS = {
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy":
        int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance":
        _HIGHS_OPTIONS["primal_feasibility_tolerance"],
    "dual_feasibility_tolerance": _HIGHS_OPTIONS["dual_feasibility_tolerance"],
}


class LPError(Exception):
    """Malformed linear program."""


@dataclass
class ArrayLP:
    """A minimization LP as arrays: min ``c @ x`` subject to
    ``A @ x (sense) rhs`` row by row and ``lb <= x <= ub``.

    ``sense`` holds :data:`SENSE` codes.  ``cols`` and ``rows`` name
    blocks of column and row indices, e.g. a ``[hour, generator]`` grid,
    so that solutions are read back by slicing.
    """

    name: str
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A: csr_matrix
    sense: np.ndarray
    rhs: np.ndarray
    cols: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    def nnz(self) -> int:
        return self.A.nnz


class LPBuilder:
    """Assembles an :class:`ArrayLP` block by block with numpy.

    :meth:`add_cols` and :meth:`add_rows` append columns and rows in the
    C order of the index grid they return, so the shapes a caller asks
    for fix the model's column and row order.  New columns start at cost
    0 with bounds [0, inf); callers overwrite ``c``/``lb``/``ub`` through
    the returned grids.  Zero coefficients are dropped at :meth:`build`.
    """

    def __init__(self, name: str):
        self.name = name
        self.c = np.empty(0)
        self.lb = np.empty(0)
        self.ub = np.empty(0)
        self.sense = np.empty(0, dtype=np.int8)
        self.rhs = np.empty(0)
        self.cols: dict[str, np.ndarray] = {}
        self.rows: dict[str, np.ndarray] = {}
        self._terms: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_cols(self, shape) -> np.ndarray:
        start, n = self.c.size, int(np.prod(shape))
        self.c = np.concatenate((self.c, np.zeros(n)))
        self.lb = np.concatenate((self.lb, np.zeros(n)))
        self.ub = np.concatenate((self.ub, np.full(n, math.inf)))
        return np.arange(start, start + n).reshape(shape)

    def add_rows(self, shape, present: np.ndarray | None = None) -> np.ndarray:
        """Row indices for a grid of ``shape``; slots where ``present`` is
        False get no row and index -1."""
        if present is None:
            present = np.ones(shape, dtype=bool)
        start, n = self.rhs.size, int(present.sum())
        idx = np.full(shape, -1)
        idx[present] = np.arange(start, start + n)
        self.sense = np.concatenate((self.sense, np.zeros(n, dtype=np.int8)))
        self.rhs = np.concatenate((self.rhs, np.zeros(n)))
        return idx

    def set_rows(self, rows: np.ndarray, relation: str, rhs, *terms):
        """Give ``rows`` a relation, right-hand sides and coefficients;
        each term is a (column grid, coefficient) pair broadcast against
        ``rows``."""
        self.sense[rows] = SENSE[relation]
        self.rhs[rows] = rhs
        for cols, coef in terms:
            self.add_terms(rows, cols, coef)

    def add_terms(self, rows: np.ndarray, cols: np.ndarray, coef):
        """Coefficients ``coef`` at (``rows``, ``cols``), broadcast."""
        i, j, v = np.broadcast_arrays(rows, cols, np.asarray(coef, float))
        self._terms.append((i.ravel(), j.ravel(), v.ravel()))

    def build(self) -> ArrayLP:
        terms = self._terms or [(np.empty(0, int), np.empty(0, int),
                                 np.empty(0))]
        i, j, v = (np.concatenate(a) for a in zip(*terms))
        keep = v != 0.0
        A = csr_matrix((v[keep], (i[keep], j[keep])),
                       shape=(self.rhs.size, self.c.size))
        return ArrayLP(self.name, self.c, self.lb, self.ub, A, self.sense,
                       self.rhs, self.cols, self.rows)


@dataclass
class LPSolution:
    """Primal values, row duals and reduced costs in model order."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = math.nan
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    duals: np.ndarray = field(default_factory=lambda: np.empty(0))
    reduced_costs: np.ndarray = field(default_factory=lambda: np.empty(0))


_MS = _highs.HighsModelStatus
# HiGHS model status -> scipy.optimize.linprog status code (no time or
# iteration limit is set, so scipy's code 1 cannot occur)
_SCIPY_STATUS = {_MS.kOptimal: 0, _MS.kInfeasible: 2, _MS.kModelError: 2,
                 _MS.kUnbounded: 3}
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class Loaded:
    """A HiGHS model kept for re-solves, with the costs and column bounds
    it holds (in :func:`linprog`'s terms: infinities clipped).  Its rows
    never change: an LP with other rows is loaded afresh."""

    highs: _Highs
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def patch(self, c, lb, ub):
        """Change the costs and column bounds that differ."""
        highs = self.highs
        cols = np.flatnonzero(c != self.c).astype(np.int32)
        if cols.size:
            highs.changeColsCost(cols.size, cols, c[cols])
        cols = np.flatnonzero((lb != self.lb) | (ub != self.ub)
                              ).astype(np.int32)
        if cols.size:
            highs.changeColsBounds(cols.size, cols, lb[cols], ub[cols])
        self.c, self.lb, self.ub = c, lb, ub


@dataclass
class HighsResult:
    """One HiGHS run, in the terms of :func:`scipy.optimize.linprog`.

    ``status`` is scipy's code (0 optimal, 2 infeasible, 3 unbounded,
    4 other).  The solution fields are set
    only when optimal; ``ineq_duals``/``eq_duals`` are the row duals of
    ``A_ub``/``A_eq`` and ``basis`` is the final ``HighsBasis``.
    ``model`` is the model HiGHS ran, for a later re-solve.
    """

    status: int
    message: str
    nit: int
    fun: float = math.nan
    x: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    basis: object = None
    model: Loaded | None = None


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, bounds,
            basis=None, model: Loaded | None = None) -> HighsResult:
    """min ``c @ x`` s.t. ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and
    ``bounds[:, 0] <= x <= bounds[:, 1]``, solved by HiGHS.

    HiGHS gets the model :func:`scipy.optimize.linprog` would build
    (``A_ub`` rows, then ``A_eq`` rows, column-wise, with the options
    of :data:`_HIGHS_OPTIONS`), so a cold solve returns what scipy
    returns.  The model goes in through the array form of
    ``passModel``, with every column marked continuous: the attribute
    setters of ``HighsLp`` that scipy uses copy arrays element by
    element.  With ``basis`` (the ``basis`` of an optimal result for an
    LP of the same shape) the dual simplex starts from it and skips
    presolve; a basis HiGHS rejects leaves the solve cold.

    With ``model`` (the ``model`` of an earlier result whose rows are
    ``A_ub``/``b_ub`` over ``A_eq``/``b_eq``) nothing is loaded: the
    costs and column bounds that differ are patched into it and HiGHS
    runs again from its own basis and factorization.
    """
    n = c.size
    b_ub = np.empty(0) if b_ub is None else b_ub
    b_eq = np.empty(0) if b_eq is None else b_eq
    inf = _highs.kHighsInf
    lb, ub = np.clip(bounds, -inf, inf).T.copy()

    if model is not None:
        model.patch(c.copy(), lb, ub)
        highs = model.highs
    else:
        row_lower = np.concatenate((np.full(b_ub.size, -inf), b_eq))
        row_upper = np.clip(np.concatenate((b_ub, b_eq)), -inf, inf)
        mats = [m for m in (A_ub, A_eq) if m is not None]
        A = csc_array(vstack(mats)) if mats else csc_array((0, n))
        highs = _Highs()
        for key, val in _RUN_OPTIONS.items():
            highs.setOptionValue(key, val)
        if highs.passModel(
                n, row_upper.size, A.nnz, int(_highs.MatrixFormat.kColwise),
                int(_highs.ObjSense.kMinimize), 0.0, c, lb, ub, row_lower,
                row_upper, A.indptr, A.indices, A.data,
                np.zeros(n, dtype=np.int32)) == _highs.HighsStatus.kError:
            return HighsResult(_SCIPY_STATUS[_MS.kModelError],
                               highs.modelStatusToString(_MS.kModelError), 0)
        if basis is not None:
            highs.setBasis(basis)
        model = Loaded(highs, c.copy(), lb, ub)
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _SCIPY_STATUS.get(model_status, 4)
    message = highs.modelStatusToString(model_status)
    if model_status != _MS.kOptimal:
        return HighsResult(status, message, info.simplex_iteration_count,
                           model=model)

    sol = highs.getSolution()
    row_dual = np.array(sol.row_dual)
    # scipy reports a column dual only at a lower or upper bound: not for
    # basic columns, nor for nonbasic free columns (status kZero)
    basis_status, basic = highs.getBasicVariables()
    if basis_status != _highs.HighsStatus.kOk:
        return HighsResult(4, f"{message}, but no basis",
                           info.simplex_iteration_count, model=model)
    at_bound = np.isfinite(lb) | np.isfinite(ub)
    at_bound[basic[basic >= 0]] = False
    return HighsResult(
        status, message, info.simplex_iteration_count,
        fun=info.objective_function_value,
        x=np.array(sol.col_value),
        ineq_duals=row_dual[:b_ub.size],
        eq_duals=row_dual[b_ub.size:],
        reduced_costs=np.where(at_bound, np.array(sol.col_dual), 0.0),
        basis=highs.getBasis(), model=model)


@dataclass(frozen=True)
class _Held:
    """An LP held loaded in a start store (see :func:`solve`)."""

    lp: ArrayLP             # the LP last solved under this name
    rows: tuple             # its ``<=`` rows, their signs and its ``=`` rows
    arrays: dict            # its ``A_ub``/``b_ub``/``A_eq``/``b_eq``
    model: Loaded
    basis: object           # the basis of its first solve: a seed


def _same_rows(a: ArrayLP, b: ArrayLP) -> bool:
    """Whether ``a`` and ``b`` have the same matrix, row senses and
    right-hand sides: shared arrays first, then equal values."""
    if a.A is b.A and a.sense is b.sense and a.rhs is b.rhs:
        return True
    return (a.A.shape == b.A.shape and a.A.nnz == b.A.nnz
            and np.array_equal(a.sense, b.sense)
            and np.array_equal(a.rhs, b.rhs)
            and all(np.array_equal(getattr(a.A, k), getattr(b.A, k))
                    for k in ("indptr", "indices", "data")))


def _split(lp: ArrayLP) -> tuple[tuple, dict]:
    """The ``<=``/``>=`` rows, negated for ``>=``, as ``A_ub``/``b_ub``
    and the equality rows as ``A_eq``/``b_eq``."""
    ub_rows = np.flatnonzero(lp.sense != 0)
    eq_rows = np.flatnonzero(lp.sense == 0)
    sign = lp.sense[ub_rows].astype(float)
    arrays = {}
    if ub_rows.size:
        A_ub = lp.A[ub_rows]
        A_ub.data = A_ub.data * np.repeat(sign, np.diff(A_ub.indptr))
        arrays["A_ub"], arrays["b_ub"] = A_ub, sign * lp.rhs[ub_rows]
    if eq_rows.size:
        arrays["A_eq"], arrays["b_eq"] = lp.A[eq_rows], lp.rhs[eq_rows]
    return (ub_rows, sign, eq_rows), arrays


def held(starts: dict, name: str) -> ArrayLP | None:
    """The LP last solved under ``name`` in the store ``starts``, if any."""
    hold = starts.get(name)
    return None if hold is None else hold.lp


def solve(lp: ArrayLP, starts: dict | None = None) -> LPSolution:
    """Solve to optimality, returning primal values, row duals and reduced costs.

    HiGHS receives the ``<=``/``>=`` rows, in model order and negated for
    ``>=``, as ``A_ub`` and the equality rows as ``A_eq``.

    ``starts`` is a store of loaded models keyed by ``lp.name``; it keeps
    the model of every optimal solve.  A held model keeps its rows: when
    the store holds ``lp``'s rows (matrix, senses and rhs) under that
    name, the costs and column bounds that differ are patched into that
    model and HiGHS runs again from its basis: the LP is neither split
    nor loaded again.  Otherwise the LP is loaded, from the
    first-solve basis of the first held LP of its shape, if any.  A
    started solve that does not end optimal is repeated cold, so a start
    never changes an outcome.  A caller that re-solves an LP keeps its
    rows fixed and changes only costs and bounds (see
    :func:`storageplan.dispatch.solve_ed`).
    """
    if lp.n_vars == 0:
        raise LPError("no variables")
    hold = seed = None
    if starts is not None:
        hold = starts.get(lp.name)
        if hold is not None and not _same_rows(hold.lp, lp):
            hold = None
        if hold is None:
            seed = next((h.basis for h in list(starts.values())
                         if h.lp.A.shape == lp.A.shape), None)
    rows, arrays = ((hold.rows, hold.arrays) if hold is not None
                    else _split(lp))
    ub_rows, sign, eq_rows = rows
    kwargs = dict(arrays, bounds=np.column_stack((lp.lb, lp.ub)))

    start = ({"model": hold.model} if hold is not None
             else {"basis": seed} if seed is not None else {})
    res = linprog(lp.c, **start, **kwargs)
    if res.status != 0 and start:
        res = linprog(lp.c, **kwargs)
    status = _STATUS.get(res.status)
    if status != "optimal" and starts is not None:
        starts.pop(lp.name, None)
    if status is None:
        raise LPError(f"solver failure on {lp.name}: {res.message}")
    if status != "optimal":
        return LPSolution(status=status)
    if starts is not None:
        starts[lp.name] = _Held(lp, rows, arrays, res.model,
                                res.basis if hold is None else hold.basis)

    duals = np.zeros(lp.n_rows)
    duals[ub_rows] = sign * res.ineq_duals
    duals[eq_rows] = res.eq_duals
    return LPSolution(
        status="optimal",
        objective=float(res.fun),
        x=res.x,
        duals=duals,
        reduced_costs=res.reduced_costs,
    )


def dual_objective(sol: LPSolution, lp: ArrayLP) -> float:
    """Dual objective from row duals, reduced costs, bounds and rhs values."""
    z = sol.reduced_costs
    at_lb = (z > 0) & np.isfinite(lp.lb)
    at_ub = (z < 0) & np.isfinite(lp.ub)
    return float(sol.duals @ lp.rhs + z[at_lb] @ lp.lb[at_lb]
                 + z[at_ub] @ lp.ub[at_ub])


def duality_gap(sol: LPSolution, lp: ArrayLP) -> float:
    """Relative primal-dual objective mismatch of an optimal solution."""
    if sol.status != "optimal":
        raise LPError("duality_gap requires an optimal solution")
    dual = dual_objective(sol, lp)
    return abs(sol.objective - dual) / max(1.0, abs(sol.objective))


def max_constraint_violation(sol: LPSolution, lp: ArrayLP) -> float:
    resid = lp.A @ sol.x - lp.rhs
    rows = np.where(lp.sense == 0, np.abs(resid), lp.sense * resid)
    bounds = np.maximum(lp.lb - sol.x, sol.x - lp.ub)
    return float(max(0.0, rows.max(initial=0.0), bounds.max(initial=0.0)))


def max_complementarity_violation(sol: LPSolution, lp: ArrayLP) -> float:
    ineq = lp.sense != 0
    slack = lp.rhs[ineq] - lp.A[ineq] @ sol.x
    return float(np.abs(sol.duals[ineq] * slack).max(initial=0.0))
