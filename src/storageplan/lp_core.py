"""Linear programs in array form, solved by HiGHS with fixed dual signs.

This is the single numerical engine behind dispatch, the marginal-unit
subproblem, the master problem and the monolithic baseline.  Every LP
is assembled block by block with numpy by :class:`LPBuilder` into an
:class:`ArrayLP`, whose named index grids read solutions back by
slicing.  Solving hands an :class:`ArrayLP` to HiGHS as written,
through the bindings bundled with scipy (:func:`linprog`): its CSR
matrix row by row in model order, and each row's sense as a pair of row
bounds.  HiGHS's row duals then already follow the dual sign convention
used throughout the package:

* the dual of a row is d(objective)/d(rhs) of the row *as written*, so
  under minimization ``<=`` rows have nonpositive duals, ``>=`` rows
  nonnegative duals, and equality rows free duals;
* reduced costs follow the same convention for variable bounds
  (nonnegative at a lower bound, nonpositive at an upper bound).

Each HiGHS run yields one :class:`LPSolution` (status, message,
iteration count and, when optimal, the solution); :func:`solve` hands
its caller the last run's as it is.

An LP that is solved again and again (a day's dispatch, a marginal-unit
LP) stays loaded in HiGHS between solves with its rows fixed: a
re-solve patches only the costs and column bounds that changed and runs
again from the model's own basis and factorization, and an LP's first
load starts from the basis of an earlier LP of the same shape; every LP
runs the retry ladder of :func:`solve`.  Starts change only the simplex
path, never the model, so the optimum is the same up to the choice
among degenerate optimal vertices.  HiGHS is deterministic for
identical input and start, so repeated solves return bit-identical
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

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

# every HiGHS run: silent, presolved, by the dual simplex
_RUN_OPTIONS = {
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy":
        int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
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


_MS = _highs.HighsModelStatus
# an LP's outcomes; any other HiGHS model status (a model rejected at
# load, a simplex stopped short) is a failure
_STATUS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible",
           _MS.kUnbounded: "unbounded"}
FAILED = "failed"


@dataclass
class LPSolution:
    """One HiGHS run: ``status`` is a name of :data:`_STATUS` or
    :data:`FAILED`, ``message`` HiGHS's name for its model status and
    ``nit`` its simplex iteration count.  The primal values, row duals
    and reduced costs, in model order, are set only when optimal.
    ``model`` is the model HiGHS ran, for a later re-solve or a start.
    """

    status: str
    message: str
    nit: int
    objective: float = math.nan
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    duals: np.ndarray = field(default_factory=lambda: np.empty(0))
    reduced_costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    model: _Highs | None = None


def linprog(lp: ArrayLP, *, basis=None, model: _Highs | None = None,
            solver: str | None = None) -> LPSolution:
    """Run HiGHS once on ``lp`` as written: ``A`` row-wise in model
    order, a ``<=`` row as the row bounds ``(-inf, rhs)``, a ``>=`` row
    as ``(rhs, inf)`` and an ``=`` row as ``(rhs, rhs)``, every column
    continuous.  With ``basis`` (a ``HighsBasis`` of an optimal model of
    an LP of the same shape) the dual simplex starts from it and skips
    presolve; a basis HiGHS rejects leaves the solve cold.

    With ``model`` (the ``model`` of an earlier result, since patched to
    hold ``lp``) nothing is loaded: HiGHS runs again from the model's
    own basis and factorization.

    ``solver`` is HiGHS's ``solver`` option for the first run of a model
    loaded here (``"ipm"``: interior point, then crossover to a vertex);
    the dual simplex then runs from where it stopped.  ``None`` leaves
    HiGHS its dual simplex alone.
    """
    highs = model
    if highs is None:
        highs = _Highs()
        for key, val in _RUN_OPTIONS.items():
            highs.setOptionValue(key, val)
        if solver is not None:
            highs.setOptionValue("solver", solver)
        inf, A = _highs.kHighsInf, lp.A
        if highs.passModel(
                lp.n_vars, lp.n_rows, A.nnz, int(_highs.MatrixFormat.kRowwise),
                int(_highs.ObjSense.kMinimize), 0.0, lp.c, lp.lb, lp.ub,
                np.where(lp.sense == SENSE[LE], -inf, lp.rhs),
                np.where(lp.sense == SENSE[GE], inf, lp.rhs),
                A.indptr, A.indices, A.data, np.zeros(lp.n_vars, np.int32)
        ) == _highs.HighsStatus.kError:
            return LPSolution(
                FAILED, highs.modelStatusToString(_MS.kModelError), 0)
        if basis is not None:
            highs.setBasis(basis)
    highs.run()
    if solver is not None:
        # the simplex solver sets up the basis read below (reading it
        # after an interior-point run crashes HiGHS); from the
        # crossover's vertex it takes no iterations
        highs.setOptionValue("solver", "simplex")
        highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUS.get(model_status, FAILED)
    message = highs.modelStatusToString(model_status)
    if status != "optimal":
        return LPSolution(status, message, info.simplex_iteration_count,
                          model=highs)

    sol = highs.getSolution()
    # a column dual is reported only at a lower or upper bound: not for
    # basic columns, nor for nonbasic free columns (status kZero)
    basis_status, basic = highs.getBasicVariables()
    if basis_status != _highs.HighsStatus.kOk:
        return LPSolution(FAILED, f"{message}, but no basis",
                          info.simplex_iteration_count, model=highs)
    at_bound = np.isfinite(lp.lb) | np.isfinite(lp.ub)
    at_bound[basic[basic >= 0]] = False
    return LPSolution(
        status, message, info.simplex_iteration_count,
        objective=float(info.objective_function_value),
        x=np.array(sol.col_value),
        duals=np.array(sol.row_dual),
        reduced_costs=np.where(at_bound, np.array(sol.col_dual), 0.0),
        model=highs)


@dataclass(frozen=True)
class _Held:
    """An LP held loaded in a start store (see :func:`solve`)."""

    lp: ArrayLP             # the LP last solved under this name
    model: _Highs           # HiGHS holding it, with its costs and bounds
    basis: object           # the basis of its first solve: a seed


def _patch(highs: _Highs, old: ArrayLP, lp: ArrayLP):
    """Patch into ``highs``, which holds ``old``, the costs and column
    bounds that differ in ``lp``."""
    cols = np.flatnonzero(lp.c != old.c).astype(np.int32)
    if cols.size:
        highs.changeColsCost(cols.size, cols, lp.c[cols])
    cols = np.flatnonzero((lp.lb != old.lb) | (lp.ub != old.ub)
                          ).astype(np.int32)
    if cols.size:
        highs.changeColsBounds(cols.size, cols, lp.lb[cols], lp.ub[cols])


def held(starts: dict, name: str) -> ArrayLP | None:
    """The LP last solved under ``name`` in the store ``starts``, if any."""
    hold = starts.get(name)
    return None if hold is None else hold.lp


def solve(lp: ArrayLP, starts: dict | None = None) -> LPSolution:
    """Solve to optimality: the :class:`LPSolution` of the HiGHS run
    that ends the ladder below.

    ``starts`` is a store of loaded models keyed by ``lp.name``; it keeps
    the model of every optimal solve.  A held model keeps its rows: when
    ``lp`` shares the matrix, senses and rhs arrays of the LP held under
    its name, the costs and column bounds that differ are patched into
    that model and HiGHS runs again from its basis: the LP is not loaded
    again.  Otherwise the LP is loaded, from the first-solve basis of the
    first held LP of its shape, if any.  A caller that re-solves an LP
    derives it from the held one with :func:`dataclasses.replace`,
    changing only costs and bounds (see
    :func:`storageplan.dispatch.solve_ed`).

    Every LP runs the same ladder.  A started solve that does not end
    optimal is repeated cold, so a start never changes an outcome.  A
    cold solve that ends neither optimal, infeasible nor unbounded is
    repeated once by interior point; if that fails too, :class:`LPError`
    names the LP.
    """
    if lp.n_vars == 0:
        raise LPError("no variables")
    if not np.isfinite(lp.c).all():
        raise LPError(f"non-finite cost in {lp.name}")
    hold = seed = None
    if starts is not None:
        hold = starts.get(lp.name)
        if hold is not None and not (lp.A is hold.lp.A
                                     and lp.sense is hold.lp.sense
                                     and lp.rhs is hold.lp.rhs):
            hold = None
        if hold is None:
            seed = next((h.basis for h in list(starts.values())
                         if h.lp.A.shape == lp.A.shape), None)
    if hold is not None:
        _patch(hold.model, hold.lp, lp)
    start = ({"model": hold.model} if hold is not None
             else {"basis": seed} if seed is not None else {})
    res = linprog(lp, **start)
    if res.status != "optimal" and start:
        res = linprog(lp)
    if res.status == FAILED:
        # HiGHS's dual simplex can stop short of the feasibility
        # tolerances with an unknown status (seen on a master LP with
        # nearly parallel cuts); its interior-point solver reaches them
        res = linprog(lp, solver="ipm")
    if starts is not None:
        if res.status == "optimal":
            starts[lp.name] = _Held(lp, res.model, res.model.getBasis()
                                    if hold is None else hold.basis)
        else:
            starts.pop(lp.name, None)
    if res.status == FAILED:
        raise LPError(f"solver failure on {lp.name}: {res.message}")
    return res


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
