"""Linear programs in array form, solved by HiGHS with fixed dual signs.

This is the single numerical engine behind dispatch, the marginal-unit
subproblem, the master problem and the monolithic baseline.  Large LPs
are assembled block by block with numpy by :class:`LPBuilder`; small
ones may be written row by row with the named :class:`LinearProgram`,
which compiles to the same :class:`ArrayLP`.  Solving is delegated to
HiGHS through :func:`scipy.optimize.linprog`; the wrapper fixes the dual
sign convention used throughout the package:

* the dual of a row is d(objective)/d(rhs) of the row *as written*, so
  under minimization ``<=`` rows have nonpositive duals, ``>=`` rows
  nonnegative duals, and equality rows free duals;
* reduced costs follow the same convention for variable bounds
  (nonnegative at a lower bound, nonpositive at an upper bound).

HiGHS is deterministic for identical input, so repeated solves return
bit-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

LE, GE, EQ = "<=", ">=", "="
# row sense codes of an ArrayLP: the sign that turns the row into "<="
# for inequalities, 0 for equalities
SENSE = {LE: 1, GE: -1, EQ: 0}

FEAS_TOL = 1e-7
GAP_TOL = 1e-8
COMP_TOL = 1e-6

_HIGHS_OPTIONS = {
    "presolve": True,
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
        i, j, v = (np.concatenate(a) for a in zip(*self._terms))
        keep = v != 0.0
        A = csr_matrix((v[keep], (i[keep], j[keep])),
                       shape=(self.rhs.size, self.c.size))
        return ArrayLP(self.name, self.c, self.lb, self.ub, A, self.sense,
                       self.rhs, self.cols, self.rows)


@dataclass
class _Row:
    name: str
    coeffs: list[tuple[int, float]]
    relation: str
    rhs: float


class LinearProgram:
    """A small minimization LP with named variables and named rows."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.cost: list[float] = []
        self.rows: list[_Row] = []
        self._row_index: dict[str, int] = {}

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                cost: float = 0.0) -> int:
        if name in self._var_index:
            raise LPError(f"duplicate variable {name}")
        if lb > ub:
            raise LPError(f"variable {name}: lb {lb} exceeds ub {ub}")
        idx = len(self.var_names)
        self.var_names.append(name)
        self._var_index[name] = idx
        self.lb.append(lb)
        self.ub.append(ub)
        self.cost.append(cost)
        return idx

    def add_row(self, name: str, coeffs: list[tuple[str, float]], relation: str,
                rhs: float):
        if name in self._row_index:
            raise LPError(f"duplicate row {name}")
        if relation not in (LE, GE, EQ):
            raise LPError(f"row {name}: bad relation {relation!r}")
        resolved = []
        for var_name, coef in coeffs:
            if var_name not in self._var_index:
                raise LPError(f"row {name}: unknown variable {var_name}")
            if coef != 0.0:
                resolved.append((self._var_index[var_name], float(coef)))
        self._row_index[name] = len(self.rows)
        self.rows.append(_Row(name, resolved, relation, float(rhs)))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def nnz(self) -> int:
        return sum(len(r.coeffs) for r in self.rows)

    def to_arrays(self) -> ArrayLP:
        i = [k for k, row in enumerate(self.rows) for _ in row.coeffs]
        j = [col for row in self.rows for col, _ in row.coeffs]
        v = [coef for row in self.rows for _, coef in row.coeffs]
        A = csr_matrix((v, (i, j)), shape=(self.n_rows, self.n_vars))
        return ArrayLP(
            self.name, np.asarray(self.cost, dtype=float),
            np.asarray(self.lb, dtype=float), np.asarray(self.ub, dtype=float),
            A, np.array([SENSE[r.relation] for r in self.rows], dtype=np.int8),
            np.array([r.rhs for r in self.rows], dtype=float))

    def write_lp_format(self, path):
        """Dump in CPLEX LP text format for external cross-checking."""
        def term(coef, name):
            sign = "+" if coef >= 0 else "-"
            return f" {sign} {abs(coef):.17g} {name}"

        with open(path, "w") as fh:
            fh.write(f"\\ {self.name}\nMinimize\n obj:")
            fh.write("".join(term(c, n) for n, c in zip(self.var_names, self.cost)
                             if c != 0.0) or " 0 " + self.var_names[0])
            fh.write("\nSubject To\n")
            rel = {LE: "<=", GE: ">=", EQ: "="}
            for row in self.rows:
                body = "".join(term(c, self.var_names[j]) for j, c in row.coeffs)
                fh.write(f" {row.name}:{body} {rel[row.relation]} {row.rhs:.17g}\n")
            fh.write("Bounds\n")
            for name, lo, hi in zip(self.var_names, self.lb, self.ub):
                lo_s = f"{lo:.17g}" if math.isfinite(lo) else "-inf"
                hi_s = f"{hi:.17g}" if math.isfinite(hi) else "+inf"
                fh.write(f" {lo_s} <= {name} <= {hi_s}\n")
            fh.write("End\n")


def _arrays(lp: ArrayLP | LinearProgram) -> ArrayLP:
    return lp.to_arrays() if isinstance(lp, LinearProgram) else lp


@dataclass
class LPSolution:
    """Primal values, row duals and reduced costs in model order.

    Solutions of a :class:`LinearProgram` also answer lookups by name;
    the name maps are the program's own, shared rather than copied.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = math.nan
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    duals: np.ndarray = field(default_factory=lambda: np.empty(0))
    reduced_costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    _var_index: dict[str, int] = field(default_factory=dict, repr=False)
    _row_index: dict[str, int] = field(default_factory=dict, repr=False)

    def value(self, name: str) -> float:
        return float(self.x[self._var_index[name]])

    def dual(self, name: str) -> float:
        return float(self.duals[self._row_index[name]])


_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve(lp: ArrayLP | LinearProgram) -> LPSolution:
    """Solve to optimality, returning primal values, row duals and reduced costs.

    HiGHS receives the ``<=``/``>=`` rows, in model order and negated for
    ``>=``, as ``A_ub`` and the equality rows as ``A_eq``.
    """
    a = _arrays(lp)
    if a.n_vars == 0:
        raise LPError("no variables")
    ub_rows = np.flatnonzero(a.sense != 0)
    eq_rows = np.flatnonzero(a.sense == 0)
    sign = a.sense[ub_rows].astype(float)
    kwargs = {}
    if ub_rows.size:
        A_ub = a.A[ub_rows]
        A_ub.data = A_ub.data * np.repeat(sign, np.diff(A_ub.indptr))
        kwargs["A_ub"] = A_ub
        kwargs["b_ub"] = sign * a.rhs[ub_rows]
    if eq_rows.size:
        kwargs["A_eq"] = a.A[eq_rows]
        kwargs["b_eq"] = a.rhs[eq_rows]

    res = linprog(a.c, bounds=np.column_stack((a.lb, a.ub)), method="highs",
                  options=_HIGHS_OPTIONS, **kwargs)
    status = _STATUS.get(res.status)
    if status is None:
        raise LPError(f"solver failure on {a.name}: {res.message}")
    names = {}
    if isinstance(lp, LinearProgram):
        names = {"_var_index": lp._var_index, "_row_index": lp._row_index}
    if status != "optimal":
        return LPSolution(status=status, **names)

    duals = np.zeros(a.n_rows)
    if ub_rows.size:
        duals[ub_rows] = sign * res.ineqlin.marginals
    if eq_rows.size:
        duals[eq_rows] = res.eqlin.marginals
    return LPSolution(
        status="optimal",
        objective=float(res.fun),
        x=np.asarray(res.x, dtype=float),
        duals=duals,
        reduced_costs=np.asarray(res.lower.marginals)
        + np.asarray(res.upper.marginals),
        **names,
    )


def dual_objective(sol: LPSolution, lp: ArrayLP | LinearProgram) -> float:
    """Dual objective from row duals, reduced costs, bounds and rhs values."""
    a = _arrays(lp)
    z = sol.reduced_costs
    at_lb = (z > 0) & np.isfinite(a.lb)
    at_ub = (z < 0) & np.isfinite(a.ub)
    return float(sol.duals @ a.rhs + z[at_lb] @ a.lb[at_lb]
                 + z[at_ub] @ a.ub[at_ub])


def duality_gap(sol: LPSolution, lp: ArrayLP | LinearProgram) -> float:
    """Relative primal-dual objective mismatch of an optimal solution."""
    if sol.status != "optimal":
        raise LPError("duality_gap requires an optimal solution")
    dual = dual_objective(sol, lp)
    return abs(sol.objective - dual) / max(1.0, abs(sol.objective))


def max_constraint_violation(sol: LPSolution,
                             lp: ArrayLP | LinearProgram) -> float:
    a = _arrays(lp)
    resid = a.A @ sol.x - a.rhs
    rows = np.where(a.sense == 0, np.abs(resid), a.sense * resid)
    bounds = np.maximum(a.lb - sol.x, sol.x - a.ub)
    return float(max(0.0, rows.max(initial=0.0), bounds.max(initial=0.0)))


def max_complementarity_violation(sol: LPSolution,
                                  lp: ArrayLP | LinearProgram) -> float:
    a = _arrays(lp)
    ineq = a.sense != 0
    slack = a.rhs[ineq] - a.A[ineq] @ sol.x
    return float(np.abs(sol.duals[ineq] * slack).max(initial=0.0))
