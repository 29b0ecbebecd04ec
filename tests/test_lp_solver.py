import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import build_makespan_lp, build_weighted_lp, partition_machines
from getf.lp_solver import (EQ, FEAS_TOL, GE, INFEASIBLE, LE, OPTIMAL, PIVOT_TOL, UNBOUNDED,
                            LinearProgram, LpError, LpSolution, _pivot, _run_simplex,
                            residuals, solve_lp)
from getf.model import normalize_demands


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every basic feasible point by solving all
# square subsystems of active constraints (constraint rows plus x_k = 0
# planes) and keep the best feasible one.  Only valid for bounded feasible
# programs, which the random generator guarantees via box constraints.
# ---------------------------------------------------------------------------

def is_feasible(lp: LinearProgram, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    if np.any(x < -tol):
        return False
    return bool(np.all(residuals(lp, x) <= tol))


def vertex_enumeration_optimum(lp: LinearProgram) -> float | None:
    n = lp.n_vars
    planes = np.vstack([lp.A, np.eye(n)])
    bounds = np.concatenate([lp.b, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = planes[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, bounds[list(combo)])
        if np.all(x >= -1e-9) and np.all(residuals(lp, x) <= 1e-9):
            val = float(lp.objective @ x)
            if best is None or val < best:
                best = val
    return best


def random_bounded_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(2, 6)
    objective = [rng.uniform(-1, 1) for _ in range(n)]
    rows, bounds = [], []
    for _ in range(rng.randint(1, 4)):
        rows.append([rng.uniform(-1, 1) for _ in range(n)])
        bounds.append(rng.uniform(0.5, 2.0))       # feasible at the origin
    for k in range(n):
        rows.append(np.eye(n)[k])
        bounds.append(rng.uniform(1.0, 4.0))       # box keeps it bounded
    return LinearProgram(objective, rows, [LE] * len(rows), bounds)


class TestAgainstOracle:
    def test_hundred_random_lps_match_vertex_enumeration(self):
        rng = random.Random(1234)
        for _ in range(100):
            lp = random_bounded_lp(rng)
            expected = vertex_enumeration_optimum(lp)
            got = solve_lp(lp)
            assert got.status == OPTIMAL
            assert expected is not None
            assert got.objective == pytest.approx(expected, abs=1e-7)
            assert is_feasible(lp, got.x)

    def test_weak_duality_spot_check(self):
        rng = random.Random(77)
        for _ in range(20):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            for _ in range(200):
                x = np.array([rng.uniform(0, 4) for _ in range(lp.n_vars)])
                if is_feasible(lp, x, tol=1e-9):
                    assert lp.objective @ x >= sol.objective - 1e-7


# ---------------------------------------------------------------------------
# Independent solver: HiGHS through scipy, on the programs the pipelines
# build, at sizes the vertex enumeration cannot reach.
# ---------------------------------------------------------------------------

def highs_objective(lp: LinearProgram) -> float:
    optimize = pytest.importorskip("scipy.optimize")
    ub = lp.sense != EQ
    sign = np.where(lp.sense == GE, -1.0, 1.0)[ub]
    res = optimize.linprog(lp.objective, A_ub=lp.A[ub] * sign[:, None], b_ub=lp.b[ub] * sign,
                           A_eq=lp.A[~ub], b_eq=lp.b[~ub], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def built_program(kind: str, family: str, n: int, m: int, seed: int) -> LinearProgram:
    spec = GeneratorSpec(family, n, m, seed=seed, density=0.3, weights="uniform",
                         speed_range=(0.5, 1.0) if kind == "weighted" else (1.0, 2.0))
    inst = generate_instance(spec)
    if kind == "makespan":
        return build_makespan_lp(inst, partition_machines(inst.platform))
    inst, _ = normalize_demands(inst)
    return build_weighted_lp(inst, partition_machines(inst.platform))


HIGHS_CASES = [("makespan", family, n, m, 900 + k)
               for k, (family, n, m) in enumerate(zip(FAMILIES * 3, (4, 8, 12, 16, 20, 6, 10, 14, 20),
                                                      (2, 3, 4, 5, 8, 6, 3, 8, 4)))]
HIGHS_CASES += [("weighted", family, n, m, 950 + k)
                for k, (family, n, m) in enumerate(zip(FAMILIES * 2, (3, 4, 5, 6, 6, 5),
                                                       (2, 3, 2, 3, 2, 4)))]


@pytest.mark.parametrize("kind,family,n,m,seed", HIGHS_CASES)
def test_objective_matches_highs(kind, family, n, m, seed):
    lp = built_program(kind, family, n, m, seed)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    expected = highs_objective(lp)
    assert sol.objective == pytest.approx(expected, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# Reference: the row-list canonicalization and tableau set-up that solve_lp
# used before programs were held as arrays.  It shares the pivot rules with
# solve_lp, so both must return the same status and the same bits.
# ---------------------------------------------------------------------------

def reference_solve_lp(lp: LinearProgram) -> LpSolution:
    n = lp.n_vars
    relation = {LE: "<=", EQ: "=", GE: ">="}
    constraints = [(row, relation[s], bound)
                   for row, s, bound in zip(lp.A, lp.sense.tolist(), lp.b.tolist())]
    rows = len(constraints)
    if rows == 0:
        if np.any(lp.objective < 0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0)

    A = np.zeros((rows, n))
    b = np.zeros(rows)
    rels: list[str] = []
    for i, (row, rel, bound) in enumerate(constraints):
        if bound < 0:
            row, bound = -row, -bound
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        A[i] = row
        b[i] = bound
        rels.append(rel)

    n_slack = sum(1 for r in rels if r == "<=")
    n_surplus = sum(1 for r in rels if r == ">=")
    n_art = sum(1 for r in rels if r in (">=", "="))
    slack0, surplus0, art0 = n, n + n_slack, n + n_slack + n_surplus
    total = art0 + n_art

    tableau = np.zeros((rows + 1, total + 1))
    tableau[:rows, :n] = A
    tableau[:rows, -1] = b
    basis: list[int] = []
    si = ti = ai = 0
    for i, rel in enumerate(rels):
        if rel == "<=":
            tableau[i, slack0 + si] = 1.0
            basis.append(slack0 + si)
            si += 1
        elif rel == ">=":
            tableau[i, surplus0 + ti] = -1.0
            tableau[i, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ti += 1
            ai += 1
        else:
            tableau[i, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ai += 1

    max_iter = 2000 + 200 * (rows + total)
    phase1 = np.zeros(total + 1)
    phase1[art0:art0 + n_art] = 1.0
    for i, bv in enumerate(basis):
        if bv >= art0:
            phase1 -= tableau[i, :]
    tableau[-1, :] = phase1
    status = _run_simplex(tableau, basis, art0, max_iter)
    if status != OPTIMAL or -tableau[-1, -1] > FEAS_TOL:
        return LpSolution(INFEASIBLE)

    keep_rows: list[int] = []
    for i in range(rows):
        if basis[i] >= art0:
            pivot_col = -1
            for j in range(art0):
                if abs(tableau[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue
            _pivot(tableau, basis, i, pivot_col)
        keep_rows.append(i)

    body = tableau[keep_rows, :]
    basis = [basis[i] for i in keep_rows]
    cols = np.ones(total + 1, dtype=bool)
    cols[art0:art0 + n_art] = False
    reduced = np.vstack([body[:, cols], np.zeros((1, int(cols.sum())))])
    cost = np.zeros(reduced.shape[1])
    cost[:n] = lp.objective
    reduced[-1, :] = cost
    for i, bv in enumerate(basis):
        if cost[bv] != 0.0:
            reduced[-1, :] -= cost[bv] * reduced[i, :]
    status = _run_simplex(reduced, basis, reduced.shape[1] - 1, max_iter)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = np.zeros(reduced.shape[1] - 1)
    for i, bv in enumerate(basis):
        x[bv] = reduced[i, -1]
    solution = np.where(np.abs(x[:n]) < PIVOT_TOL, 0.0, x[:n])
    return LpSolution(OPTIMAL, solution, float(lp.objective @ solution))


def assert_matches_reference(lp: LinearProgram) -> None:
    ref = reference_solve_lp(lp)
    try:
        got = solve_lp(lp)
    except LpError as exc:
        # The residual guard refuses what the reference called optimal.
        assert "infeasible point" in str(exc)
        assert ref.status == OPTIMAL and not is_feasible(lp, ref.x)
        return
    assert got.status == ref.status
    assert got.objective == ref.objective
    assert (got.x is None) == (ref.x is None)
    if got.x is not None:
        assert got.x.tobytes() == ref.x.tobytes()


entries = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4, 4)


@st.composite
def programs(draw):
    """Mixed-sense programs.  Half of them hold a drawn point x0 >= 0 (b is
    A x0, moved by a drawn slack on the inequality rows), so that optima and
    artificials left in the basis at level zero are common."""
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 10))
    A = np.reshape(draw(st.lists(entries, min_size=rows * n, max_size=rows * n)), (rows, n))
    sense = np.array(draw(st.lists(st.sampled_from([LE, EQ, GE]), min_size=rows, max_size=rows)),
                     dtype=int)
    if draw(st.booleans()):
        x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
                                    min_size=n, max_size=n)))
        slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                       min_size=rows, max_size=rows)))
        b = A @ x0 - sense * slack
    else:
        b = draw(st.lists(entries, min_size=rows, max_size=rows))
    return LinearProgram(draw(st.lists(entries, min_size=n, max_size=n)), A, sense, b)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_drawn_programs_match_row_list_reference(lp):
    assert_matches_reference(lp)


@pytest.mark.parametrize("kind,family,n,m,seed",
                         [("makespan", f, 3 + k, 2 + k % 3, 700 + k)
                          for k, f in enumerate(FAMILIES * 2)]
                         + [("weighted", f, 3 + k % 2, 2 + k % 2, 750 + k)
                            for k, f in enumerate(FAMILIES)])
def test_built_programs_match_row_list_reference(kind, family, n, m, seed):
    assert_matches_reference(built_program(kind, family, n, m, seed))


class TestKnownPrograms:
    def test_single_active_constraint(self):
        lp = LinearProgram([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0)

    def test_equality_and_lower_bound(self):
        lp = LinearProgram([0.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [EQ, LE], [3.0, 2.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(2.0)

    def test_infeasible(self):
        lp = LinearProgram([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 2.0])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [LE], [1.0])
        assert solve_lp(lp).status == UNBOUNDED

    def test_redundant_equalities(self):
        lp = LinearProgram([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [EQ, EQ], [2.0, 4.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.0)

    def test_degenerate_cycling_guard(self):
        # Classic Beale-style degeneracy; Bland's rule must terminate.
        lp = LinearProgram([-0.75, 150.0, -0.02, 6.0],
                           [[0.25, -60.0, -0.04, 9.0],
                            [0.5, -90.0, -0.02, 3.0],
                            [0.0, 0.0, 1.0, 0.0]],
                           [LE, LE, LE], [0.0, 0.0, 1.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)


class TestContracts:
    def test_dimension_mismatch(self):
        with pytest.raises(LpError, match="objective has shape"):
            LinearProgram([1.0, 1.0], [[1.0]], [LE], [1.0])
        with pytest.raises(LpError, match="sense has shape"):
            LinearProgram([1.0], [[1.0], [2.0]], [LE], [1.0, 2.0])
        with pytest.raises(LpError, match="b has shape"):
            LinearProgram([1.0], [[1.0]], [LE], [1.0, 2.0])
        with pytest.raises(LpError, match="matrix"):
            LinearProgram([1.0], [1.0], [LE], [1.0])
        lp = LinearProgram([1.0], [[1.0]], [LE], [1.0])
        lp.b = np.array([1.0, 2.0])
        with pytest.raises(LpError, match="b has shape"):
            lp.check()
        with pytest.raises(LpError, match="b has shape"):
            solve_lp(lp)

    def test_unknown_relation(self):
        for sense in ([2], ["<"], [0.5]):
            with pytest.raises(LpError, match="row 0 has sense code"):
                LinearProgram([1.0], [[1.0]], sense, [1.0])
        lp = LinearProgram([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 0.0])
        lp.sense = np.array([LE, -2])
        with pytest.raises(LpError, match="row 1 has sense code"):
            lp.check()

    def test_non_finite_entries(self):
        with pytest.raises(LpError, match="A has non-finite"):
            LinearProgram([1.0, 1.0], [[1.0, np.nan]], [LE], [1.0])
        with pytest.raises(LpError, match="b has non-finite"):
            LinearProgram([1.0], [[1.0]], [GE], [np.inf])
        with pytest.raises(LpError, match="objective has non-finite"):
            LinearProgram([np.nan], [[1.0]], [LE], [1.0])

    def test_deterministic_bit_identical(self):
        rng = random.Random(5)
        lp = random_bounded_lp(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status == OPTIMAL
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)

    def test_feasibility_of_returned_point(self):
        rng = random.Random(9)
        for _ in range(30):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            assert np.all(sol.x >= -1e-9)
            assert np.all(residuals(lp, sol.x) <= 1e-7)

    def test_infeasible_point_is_not_optimal(self):
        # A pivot on a nearly singular entry leaves the tableau inconsistent
        # with A on this weighted relaxation: the simplex ends on a point
        # that violates row 122 by about 3.
        inst, _ = normalize_demands(generate_instance(GeneratorSpec(
            "random_dag", 10, 3, seed=100057, density=0.3, weights="uniform")))
        lp = build_weighted_lp(inst, partition_machines(inst.platform))
        with pytest.raises(LpError, match=r"infeasible point: row 122 has residual 3\.01"):
            solve_lp(lp)
