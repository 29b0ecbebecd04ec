"""Self-contained dense LP solver: a two-phase primal simplex tableau.

A program is  min objective . x  subject to  A x (sense) b  and  x >= 0,
held as arrays:

  * ``objective``: (n,) floats;
  * ``A``: a dense (rows, n) float matrix, one constraint per row; the
    number of variables n is ``A.shape[1]``;
  * ``sense``: (rows,) integer codes, LE = -1 for <=, EQ = 0 for =,
    GE = +1 for >=;
  * ``b``: (rows,) float bounds;
  * ``start`` (optional): a (rows,) integer starting basis; see below.

The group-assignment pipelines only need small/medium minimization LPs with
nonnegative variables, so a deterministic dense tableau implementation is
preferred over an external solver.  The tableau holds the structural, slack
and surplus columns and two right-hand sides; artificials exist only as
basis labels, with no tableau columns.

Pivoting: the entering column has the most negative reduced cost (Dantzig's
rule); the leaving row wins a vectorized minimum-ratio test, ties within
1e-12 going to the largest pivot element, then to the lowest basis index.
Against cycling on degenerate vertices, the ratio test reads a perturbed
right-hand side (Wolfe 1963): canonical ``<=`` row i gets
``PERTURBATION * min(1, max_j |A_ij|) * (1 + 7919 i mod rows) / rows``
added to its bound, so a row of tiny coefficients is moved no further than
its own scale.  The unperturbed bounds ride along as a second
right-hand-side column through every pivot; x and the phase-1 verdict read
that column, so the perturbation leaves no drift in the result.  Where a
small pivot has magnified the perturbation so far that a basic variable lies
below -PIVOT_TOL on the true bounds, dual simplex steps repair the basis at
the end of each phase (the pipelines' programs have not needed one).  No
random numbers are drawn: identical inputs give bit-identical outputs.

Cost: on the pipelines' programs (about 66 x 228 at n=20) an install pivot
reaches one or two rows besides its own and costs about 5 us, nearly all of
it per-call overhead.  A phase-2 pivot is mostly arithmetic: two thirds of
them reach half the rows or more and take the full update, about 20 us on
the 66 x 228 tableau.  So pivots, the ratio test and pricing call ndarray
methods and ufuncs directly (``x.nonzero()``, ``a.argmin()``,
``column[hit][:, None] * r``) in place of numpy's module-level wrappers
(``flatnonzero``, ``argmin``, ``outer``), and skip work whose result is
exact: a division by 1.0, a tie-break among one row.  These compute the same
elementwise operations in the same order, so every bit is kept; no pivot
uses BLAS (``@``, ``dot``), whose sums may be reordered.

Starting basis: ``start[i]`` names the structural column made basic in row
i's position, -1 keeping row i's own slack.  Every row that starts on an
artificial (an ``=`` row, or a ``>=`` row after rows with b < 0 are
negated) must name a column, so phase 1 is skipped.  ``solve_lp`` pivots
each listed column into its row, in row order, with no pricing and no ratio
test; these pivots count.  A pivot element below PIVOT_TOL in magnitude
(a singular start) or a basic value below -FEAS_TOL on the true bounds (an
infeasible start) raises LpError; there is no fallback to phase 1.  The
ratio-test column is then re-perturbed on the installed basis, the true
values (clipped at 0) plus the same row-keyed shift, and phase 2 runs.
Without ``start`` the solve is the plain two-phase one.

Tolerances: pivots below PIVOT_TOL are treated as zero.  A point is returned
as optimal only after a residual guard: every entry must be >= -FEAS_TOL and
every row residual (``residuals``) <= FEAS_TOL.  A point that fails raises
LpError naming the worst row and its residual; a point that passes reports
its worst violation, clipped at 0, as ``LpSolution.max_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
PERTURBATION = 1e-7
# Bytes of the temporary that one block of a full pivot update may take
# (measured in _pivot's docstring).
PIVOT_BLOCK_BYTES = 1 << 19
# A pivot column nonzero in fewer than this share of the tableau's rows
# updates those rows one at a time (measured in _pivot's docstring).
PIVOT_ROWWISE_SHARE = 1 / 8

LE, EQ, GE = -1, 0, 1

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    """Raised for malformed programs (shape mismatch, bad sense code,
    non-finite entries, a malformed, singular or infeasible start) and for
    optimal points that fail the residual guard."""


@dataclass
class LinearProgram:
    """min objective . x  s.t.  A x (sense) b,  x >= 0; see the module docstring.

    The constructor converts the fields to arrays and checks them.
    """

    objective: np.ndarray
    A: np.ndarray
    sense: np.ndarray
    b: np.ndarray
    start: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.sense = np.asarray(self.sense)
        self.b = np.asarray(self.b, dtype=float)
        if self.start is not None:
            self.start = np.asarray(self.start)
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
        sense = self.sense
        # True == 1, but a bool array is no sense code: -sense would raise.
        valid = (sense == LE) | (sense == EQ) | (sense == GE)
        bad = (~valid | (sense.dtype == bool)).nonzero()[0]
        if bad.size:
            raise LpError(f"row {bad[0]} has sense code {sense.tolist()[bad[0]]!r}, "
                          f"expected -1 (<=), 0 (=) or 1 (>=)")
        for name, arr in (("objective", self.objective), ("A", self.A), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise LpError(f"{name} has non-finite entries")
        if self.start is not None:
            self._check_start(rows, n)

    def _check_start(self, rows: int, n: int) -> None:
        start = self.start
        if start.shape != (rows,) or start.dtype.kind not in "iu":
            raise LpError(f"start must be a ({rows},) integer array, "
                          f"got shape {start.shape} of {start.dtype}")
        bad = ((start < -1) | (start >= n)).nonzero()[0]
        if bad.size:
            raise LpError(f"start names column {start[bad[0]]} in row {bad[0]}, "
                          f"expected -1 or 0..{n - 1}")
        on_artificial = (np.where(self.b < 0, -self.sense, self.sense) != LE) & (start < 0)
        for i in on_artificial.nonzero()[0][:1]:
            raise LpError(f"start leaves row {i} on its artificial: "
                          f"every = or >= row needs a column")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = 0
    degenerate_pivots: int = 0
    max_residual: float | None = None   # worst violation of an optimal point

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Constraint violations of x, nonpositive entries meaning satisfied."""
    gap = lp.A @ x - lp.b
    return np.where(lp.sense == EQ, np.abs(gap), -lp.sense * gap)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int,
           counts: list[int]) -> None:
    """Pivot on (row, col).  counts is [pivots, degenerate pivots]; a pivot is
    degenerate when its step moves the unperturbed point by at most PIVOT_TOL.

    The rows holding a nonzero in col choose the update:
      * fewer than PIVOT_ROWWISE_SHARE of the rows: each of them, one row at
        a time, subtracts its multiple of the pivot row in place;
      * fewer than half the rows: those rows are gathered, updated together
        and scattered back;
      * otherwise the whole tableau takes one outer-product update, in
        blocks.
    All three give the same values, a zero's sign aside: a row with a zero
    factor keeps its entries.  A pivot row whose element is exactly 1.0 is
    not divided, as x / 1.0 is x.  The half-rows rule is measured (2-CPU
    shared host, medians of 7 alternating runs): updating only the hit rows
    on every pivot was 1.3-1.4x slower on 12 seed-1 ``weighted-lp``
    programs, 1.6-1.7x slower on layered and random_dag makespan programs at
    n=80 and n=160, and within noise on the 48 ``makespan-lp`` programs;
    switching at 0.75 or 0.9 of the rows was 1.1x and 1.6x slower on those
    large programs.  The row-by-row rule is measured the same way (medians
    of 9): on the 48 ``makespan-lp`` programs (about 66 x 228) an install
    pivot, reaching one or two rows besides its own, takes about 4.5 us row
    by row against 7.3 us gathered, and the mean solve took 0.86 ms with no
    row-by-row update, 0.75 ms below 1/8 of the rows, 0.76-0.77 ms below
    1/16, 1/5, 1/4 and 1/3, and 0.86 ms below 1/2, where a phase-2 pivot
    reaching a third of the rows pays one call per row.

    The full update runs in blocks of rows whose temporary, factors times
    the pivot row, takes at most PIVOT_BLOCK_BYTES (512 KiB, a quarter of
    the host's 2 MiB per-core L2), so the block it writes stays in cache; a
    makespan-lp tableau (about 66 x 250) is one block.  Every block reads
    the pivot row as it was before the update, so each entry takes the same
    IEEE operations and keeps its bits; one block computes its whole
    temporary before it writes, so only several blocks need a copy of the
    row.  Measured with one BLAS thread, one run per line, parent ->
    blocked: the layered n=320, m=16 makespan program 46.4 -> 16.7 s (1719
    pivots, the same x); layered n=160, m=16 1.63-1.65 -> 1.13-1.16 s (3
    runs); weighted layered n=20, seed 100008 1.11-1.13 -> 0.80-0.93 s (3
    runs).  Blocks of 256 KiB and 1 MiB were within noise of 512 KiB, 2 MiB
    and 64 KiB gave back most of the gain at n=160, and blocking the
    hit-rows update too was 1.1x slower there."""
    r = tableau[row]
    pivot = r[col]
    counts[0] += 1
    counts[1] += bool(abs(r[-1]) <= PIVOT_TOL * abs(pivot))
    if pivot != 1.0:
        r /= pivot
    column = tableau[:, col]
    hit = column.nonzero()[0]
    rows = len(tableau)
    if hit.size < PIVOT_ROWWISE_SHARE * rows:
        for h in hit.tolist():
            if h != row:
                tableau[h] -= column[h] * r
    elif 2 * hit.size < rows:
        hit = hit[hit != row]
        tableau[hit] -= column[hit][:, None] * r
    else:
        factors = column.copy()
        factors[row] = 0.0
        step = max(1, PIVOT_BLOCK_BYTES // r.nbytes)
        if step < rows:
            r = r.copy()                        # every block reads the row as it was
        for a in range(0, rows, step):
            tableau[a:a + step] -= factors[a:a + step, None] * r
    basis[row] = col


def _leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int:
    """Minimum ratio on the perturbed RHS; ties within 1e-12 go to the
    largest pivot element, then to the lowest basis index.  -1 if unbounded."""
    column = tableau[:-1, col]
    rows = (column > PIVOT_TOL).nonzero()[0]
    if rows.size <= 1:                          # unbounded, or no tie to break
        return int(rows[0]) if rows.size else -1
    ratios = tableau[rows, -2] / column[rows]
    rows = rows[ratios <= ratios.min() + 1e-12]
    if rows.size == 1:
        return int(rows[0])
    pivots = column[rows]
    rows = rows[pivots == pivots.max()]
    return int(rows[basis[rows].argmin()])


def _simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int,
             counts: list[int]) -> str:
    """Primal simplex with Dantzig pricing over the first ncols columns."""
    if not ncols:
        return OPTIMAL                          # a program without variables
    cost = tableau[-1, :ncols]                  # a view: pivots update it in place
    for _ in range(max_iter):
        col = int(cost.argmin())
        if not cost[col] < -PIVOT_TOL:
            return OPTIMAL
        row = _leaving(tableau, basis, col)
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col, counts)
    raise LpError("simplex iteration limit exceeded")


def _restore_true_bounds(tableau: np.ndarray, basis: np.ndarray, ncols: int,
                         max_iter: int, counts: list[int]) -> bool:
    """Dual simplex on the true RHS over the first ncols columns.

    The basis the perturbed RHS leaves optimal can put a basic variable below
    -PIVOT_TOL on the true bounds, where a small pivot has magnified the
    perturbation.  Each step lets the most negative one leave and keeps the
    reduced costs nonnegative, the entering column being the largest pivot
    among the dual ratios within PIVOT_TOL of the minimum (Harris's test).
    A row that no column can raise proves the program infeasible (False) if
    it lies below -FEAS_TOL; above that, it is left to the residual guard."""
    stuck = np.zeros(tableau.shape[0] - 1, dtype=bool)
    for _ in range(max_iter):
        low = np.where(stuck, 0.0, tableau[:-1, -1])
        if not (low < -PIVOT_TOL).any():
            return True
        row = int(low.argmin())
        cols = (tableau[row, :ncols] < -PIVOT_TOL).nonzero()[0]
        if not cols.size:
            if low[row] < -FEAS_TOL:
                return False
            stuck[row] = True
            continue
        step = -tableau[row, cols]
        cost = np.maximum(tableau[-1, cols], 0.0)
        cols = cols[cost / step <= ((cost + PIVOT_TOL) / step).min()]
        _pivot(tableau, basis, row, int(cols[tableau[row, cols].argmin()]), counts)
    raise LpError("simplex iteration limit exceeded")


def _subtract_rows(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """first - rows[0] - rows[1] - ..., one row at a time in order (a pairwise
    sum could change the last bit)."""
    return np.subtract.reduce(np.vstack([first, rows]), axis=0)


def _install(tableau: np.ndarray, basis: np.ndarray, start: np.ndarray,
             counts: list[int]) -> None:
    """Pivot start[i] into row i, in row order, without pricing or a ratio
    test; raise LpError on a singular or infeasible start.  The tableau is
    still about as sparse as A here, so most of these pivots update the
    few rows their column touches one row at a time."""
    for row, col in enumerate(start.tolist()):
        if col < 0:
            continue
        if not abs(tableau[row, col]) >= PIVOT_TOL:
            raise LpError(f"start is singular: column {col} has pivot "
                          f"{tableau[row, col]:.6g} in row {row}")
        _pivot(tableau, basis, row, col, counts)
    low = int(tableau[:-1, -1].argmin())
    if tableau[low, -1] < -FEAS_TOL:
        raise LpError(f"start is infeasible: row {low} has basic value "
                      f"{tableau[low, -1]:.6g} < -FEAS_TOL {FEAS_TOL:g}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve min c.x subject to lp's constraints and x >= 0.

    Returns an optimal solution, or a bare infeasible/unbounded status.
    Raises LpError if the optimal point fails the residual guard, which
    also catches an overflow or a NaN: numpy does not warn of them here.
    """
    lp.check()
    rows, n = lp.A.shape
    if rows == 0:
        # Nothing binds beyond x >= 0; bounded iff no negative objective entry.
        if np.any(lp.objective < 0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0, max_residual=0.0)

    # Canonicalize to b >= 0: rows with b < 0 are negated and their sense mirrored.
    A, b, sense = lp.A, lp.b, lp.sense
    flip = b < 0
    if flip.any():
        A, b = np.where(flip[:, None], -A, A), np.where(flip, -b, b)
        sense = np.where(flip, -sense, sense)
    le, ge = sense == LE, sense == GE
    art = ~le                                   # >= and = rows start on an artificial
    surplus0 = n + int(le.sum())
    art0 = surplus0 + int(ge.sum())
    at = np.arange(rows)

    # Two RHS columns ride through every pivot: the perturbed one (-2) steers
    # the ratio test, the true one (-1) gives x and the phase-1 verdict.
    tableau = np.zeros((rows + 1, art0 + 2))
    body = tableau[:rows]
    body[:, :n] = A
    body[:, -1] = b
    shift = PERTURBATION * np.minimum(np.abs(lp.A).max(axis=1, initial=0.0), 1.0)
    shift = np.where(le, shift * (1 + 7919 * at % rows) / rows, 0.0)
    body[:, -2] = body[:, -1] + shift
    # Row i's slack and surplus columns, and its artificial label, count the rows before it.
    slack = n + np.cumsum(le) - 1
    surplus = surplus0 + np.cumsum(ge) - 1
    body[at[le], slack[le]] = 1.0
    body[at[ge], surplus[ge]] = -1.0
    basis = np.where(le, slack, art0 + np.cumsum(art) - 1)

    max_iter = 2000 + 200 * (rows + art0 + int(art.sum()))
    counts = [0, 0]                             # pivots, degenerate pivots

    if lp.start is None:
        # Phase 1: minimize the artificial sum.  Its reduced costs are minus the
        # artificial rows' sum; an artificial that leaves never comes back.
        tableau[-1, :] = _subtract_rows(np.zeros(art0 + 2), body[art])
        # Its objective is bounded below by 0, so an "unbounded" column here is
        # rounding noise: the artificial sum on the true bounds decides.
        _simplex(tableau, basis, art0, max_iter, counts)
        if (not _restore_true_bounds(tableau, basis, art0, max_iter, counts)
                or -tableau[-1, -1] > FEAS_TOL):
            return LpSolution(INFEASIBLE, pivots=counts[0], degenerate_pivots=counts[1])

        # Drive remaining artificials out of the basis; drop redundant rows.
        keep = np.ones(rows + 1, dtype=bool)
        # A pivot in row i changes basis[i] alone, so the rows are listed once.
        for i in (basis >= art0).nonzero()[0].tolist():
            candidates = (np.abs(tableau[i, :art0]) > PIVOT_TOL).nonzero()[0]
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]), counts)
            else:
                keep[i] = False                 # all-zero row: redundant constraint
        if not keep.all():
            tableau, basis = tableau[keep], basis[keep[:-1]]
    else:
        # A start replaces phase 1 and leaves no row on its artificial.
        _install(tableau, basis, lp.start, counts)
        # Re-perturb on the installed basis, so that tied basic values part.
        tableau[:-1, -2] = np.maximum(tableau[:-1, -1], 0.0) + shift

    # Phase 2 with the real objective expressed in the current basis.  Every
    # basis entry now lies below art0: no artificial label indexes the tableau.
    cost = np.zeros(art0 + 2)
    cost[:n] = lp.objective
    priced = cost[basis] != 0.0
    tableau[-1, :] = _subtract_rows(cost, cost[basis][priced, None] * tableau[:-1][priced])
    status = _simplex(tableau, basis, art0, max_iter, counts)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=counts[0], degenerate_pivots=counts[1])
    if not _restore_true_bounds(tableau, basis, art0, max_iter, counts):
        return LpSolution(INFEASIBLE, pivots=counts[0], degenerate_pivots=counts[1])

    x = np.zeros(art0)
    x[basis] = tableau[:-1, -1]
    solution = np.where(np.abs(x[:n]) < PIVOT_TOL, 0.0, x[:n])

    violation = np.concatenate([residuals(lp, solution), -solution])
    worst = int(np.argmax(violation))
    if not violation[worst] <= FEAS_TOL:
        where = f"row {worst}" if worst < rows else f"x[{worst - rows}] >= 0"
        raise LpError(f"simplex returned an infeasible point: {where} has residual "
                      f"{violation[worst]:.6g} > FEAS_TOL {FEAS_TOL:g}")
    return LpSolution(OPTIMAL, solution, float(lp.objective @ solution), *counts,
                      max(0.0, float(violation[worst])))
