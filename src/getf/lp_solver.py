"""Self-contained dense LP solver: two-phase primal simplex with Bland's rule.

A program is  min objective . x  subject to  A x (sense) b  and  x >= 0,
held as arrays:

  * ``objective``: (n,) floats;
  * ``A``: a dense (rows, n) float matrix, one constraint per row; the
    number of variables n is ``A.shape[1]``;
  * ``sense``: (rows,) integer codes, LE = -1 for <=, EQ = 0 for =,
    GE = +1 for >=;
  * ``b``: (rows,) float bounds.

The group-assignment pipelines only need small/medium minimization LPs with
nonnegative variables, so a deterministic dense tableau implementation is
preferred over an external solver.  Bland's pivoting rule guarantees
termination; determinism means identical inputs give bit-identical outputs.

Tolerances: pivots below PIVOT_TOL are treated as zero.  A point is returned
as optimal only after a residual guard: every entry must be >= -FEAS_TOL and
every row residual (``residuals``) <= FEAS_TOL.  A point that fails, such as
one left behind by a pivot on a nearly singular entry, raises LpError naming
the worst row and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

LE, EQ, GE = -1, 0, 1

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    """Raised for malformed programs (shape mismatch, bad sense code,
    non-finite entries) and for optimal points that fail the residual guard."""


@dataclass
class LinearProgram:
    """min objective . x  s.t.  A x (sense) b,  x >= 0; see the module docstring.

    The constructor converts the fields to arrays and checks them.
    """

    objective: np.ndarray
    A: np.ndarray
    sense: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.sense = np.asarray(self.sense)
        self.b = np.asarray(self.b, dtype=float)
        self.check()

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def constraints(self) -> tuple[tuple[np.ndarray, int, float], ...]:
        """Read-only (row, sense, bound) view, one entry per row of A.

        Kept only because perfbench's traced run counts rows and row
        non-zeros from it; read ``A``, ``sense`` and ``b`` instead.
        """
        return tuple(zip(self.A, self.sense.tolist(), self.b.tolist()))

    def check(self) -> None:
        if self.A.ndim != 2:
            raise LpError(f"A must be a (rows, n) matrix, got shape {self.A.shape}")
        rows, n = self.A.shape
        for name, arr, size in (("objective", self.objective, n),
                                ("sense", self.sense, rows), ("b", self.b, rows)):
            if arr.shape != (size,):
                raise LpError(f"{name} has shape {arr.shape}, expected ({size},)")
        bad = np.flatnonzero(~np.isin(self.sense, (LE, EQ, GE)))
        if bad.size:
            raise LpError(f"row {bad[0]} has sense code {self.sense[bad[0]].item()!r}, "
                          f"expected -1 (<=), 0 (=) or 1 (>=)")
        for name, arr in (("objective", self.objective), ("A", self.A), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise LpError(f"{name} has non-finite entries")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Constraint violations of x, nonpositive entries meaning satisfied."""
    gap = lp.A @ x - lp.b
    return np.where(lp.sense == EQ, np.abs(gap), -lp.sense * gap)


def _bland_entering(cost_row: np.ndarray, ncols: int) -> int:
    neg = np.nonzero(cost_row[:ncols] < -PIVOT_TOL)[0]
    return int(neg[0]) if neg.size else -1


def _bland_leaving(tableau: np.ndarray, basis: list[int], col: int) -> int:
    nrows = tableau.shape[0] - 1
    column = tableau[:nrows, col]
    rhs = tableau[:nrows, -1]
    best_row, best_ratio = -1, np.inf
    for i in range(nrows):
        a = column[i]
        if a > PIVOT_TOL:
            ratio = rhs[i] / a
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12 and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row, :])
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], ncols: int, max_iter: int) -> str:
    for _ in range(max_iter):
        col = _bland_entering(tableau[-1, :], ncols)
        if col < 0:
            return OPTIMAL
        row = _bland_leaving(tableau, basis, col)
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)
    raise LpError("simplex iteration limit exceeded")


def _subtract_rows(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """first - rows[0] - rows[1] - ..., one row at a time in order (a pairwise
    sum could change the last bit)."""
    return np.subtract.reduce(np.vstack([first, rows]), axis=0)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve min c.x subject to lp's constraints and x >= 0.

    Returns an optimal solution, or a bare infeasible/unbounded status.
    Raises LpError if the optimal point fails the residual guard.
    """
    lp.check()
    rows, n = lp.A.shape
    if rows == 0:
        # Nothing binds beyond x >= 0; bounded iff no negative objective entry.
        if np.any(lp.objective < 0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0)

    # Canonicalize to b >= 0: rows with b < 0 are negated and their sense mirrored.
    flip = lp.b < 0
    sense = np.where(flip, -lp.sense, lp.sense)
    le, ge = sense == LE, sense == GE
    art = ~le                                   # >= and = rows start on an artificial
    surplus0 = n + int(le.sum())
    art0 = surplus0 + int(ge.sum())
    total = art0 + int(art.sum())

    tableau = np.zeros((rows + 1, total + 1))
    body = tableau[:rows]
    body[:, :n] = np.where(flip[:, None], -lp.A, lp.A)
    body[:, -1] = np.where(flip, -lp.b, lp.b)
    # Row i's slack, surplus and artificial columns count the rows before it.
    slack = n + np.cumsum(le) - 1
    surplus = surplus0 + np.cumsum(ge) - 1
    artificial = art0 + np.cumsum(art) - 1
    at = np.arange(rows)
    body[at[le], slack[le]] = 1.0
    body[at[ge], surplus[ge]] = -1.0
    body[at[art], artificial[art]] = 1.0
    basis = np.where(le, slack, artificial).tolist()

    max_iter = 2000 + 200 * (rows + total)

    # Phase 1: minimize the artificial sum.  Artificials that leave the basis
    # are never allowed back in, so entering candidates stop at art0.
    phase1 = np.zeros(total + 1)
    phase1[art0:total] = 1.0
    tableau[-1, :] = _subtract_rows(phase1, body[art])
    status = _run_simplex(tableau, basis, art0, max_iter)
    if status != OPTIMAL or -tableau[-1, -1] > FEAS_TOL:
        return LpSolution(INFEASIBLE)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = np.ones(rows + 1, dtype=bool)
    for i in range(rows):
        if basis[i] >= art0:
            candidates = np.flatnonzero(np.abs(tableau[i, :art0]) > PIVOT_TOL)
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]))
            else:
                keep[i] = False                 # all-zero row: redundant constraint

    # Phase 2 with the real objective expressed in the current basis.  All
    # basis entries now index structural or slack columns (below art0), which
    # keep their positions after the artificial columns are dropped.
    reduced = tableau[keep][:, np.r_[:art0, total]]
    basis = [bv for bv, kept in zip(basis, keep) if kept]
    cost = np.zeros(art0 + 1)
    cost[:n] = lp.objective
    priced = cost[basis] != 0.0
    reduced[-1, :] = _subtract_rows(cost, cost[basis][priced, None] * reduced[:-1][priced])
    status = _run_simplex(reduced, basis, art0, max_iter)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = np.zeros(art0)
    x[basis] = reduced[:-1, -1]
    solution = np.where(np.abs(x[:n]) < PIVOT_TOL, 0.0, x[:n])

    violation = np.concatenate([residuals(lp, solution), -solution])
    worst = int(np.argmax(violation))
    if not violation[worst] <= FEAS_TOL:
        where = f"row {worst}" if worst < rows else f"x[{worst - rows}] >= 0"
        raise LpError(f"simplex returned an infeasible point: {where} has residual "
                      f"{violation[worst]:.6g} > FEAS_TOL {FEAS_TOL:g}")
    return LpSolution(OPTIMAL, solution, float(lp.objective @ solution))
