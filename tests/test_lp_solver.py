import dataclasses
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf import lp_solver
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import (build_makespan_lp, build_weighted_lp, partition_machines,
                           solve_makespan_relaxation)
from getf.lp_solver import (EQ, FEAS_TOL, GE, INFEASIBLE, LE, OPTIMAL, PIVOT_TOL, UNBOUNDED,
                            LinearProgram, LpError, LpSolution, residuals, solve_lp)
from getf.model import normalize_demands

from conftest import corrupt_first_pivot
from test_grouping import reference_build_makespan_lp


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

def highs_result(lp: LinearProgram) -> tuple[str, float | None]:
    """HiGHS's status and optimum (None unless optimal)."""
    optimize = pytest.importorskip("scipy.optimize")
    ub = lp.sense != EQ
    sign = np.where(lp.sense == GE, -1.0, 1.0)[ub]
    res = optimize.linprog(lp.objective, A_ub=lp.A[ub] * sign[:, None], b_ub=lp.b[ub] * sign,
                           A_eq=lp.A[~ub], b_eq=lp.b[~ub], bounds=(0, None), method="highs")
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.message)
    return status, float(res.fun) if status == OPTIMAL else None


def highs_objective(lp: LinearProgram) -> float:
    status, objective = highs_result(lp)
    assert status == OPTIMAL, status
    return objective


def unstarted(lp: LinearProgram) -> LinearProgram:
    """``lp`` without its starting basis, so ``solve_lp`` runs phase 1 from
    the slack basis."""
    return dataclasses.replace(lp, start=None)


def built_program(kind: str, family: str, n: int, m: int, seed: int) -> LinearProgram:
    """kind "makespan" is the makespan program without its crash basis,
    "makespan-start" the program as built, and "makespan-full" the program
    with every row, implied ones included, without its crash basis."""
    spec = GeneratorSpec(family, n, m, seed=seed, density=0.3, weights="uniform",
                         speed_range=(0.5, 1.0) if kind == "weighted" else (1.0, 2.0))
    inst = generate_instance(spec)
    if kind == "makespan":
        return unstarted(build_makespan_lp(inst, partition_machines(inst.platform)))
    if kind == "makespan-full":
        return unstarted(reference_build_makespan_lp(inst, partition_machines(inst.platform)))
    if kind == "makespan-start":
        return build_makespan_lp(inst, partition_machines(inst.platform))
    inst, _ = normalize_demands(inst)
    return build_weighted_lp(inst, partition_machines(inst.platform))


HIGHS_CASES = [("makespan", family, n, m, 900 + k)
               for k, (family, n, m) in enumerate(zip(FAMILIES * 3, (4, 8, 12, 16, 20, 6, 10, 14, 20),
                                                      (2, 3, 4, 5, 8, 6, 3, 8, 4)))]
HIGHS_CASES += [("weighted", family, n, m, 950 + k)
                for k, (family, n, m) in enumerate(zip(FAMILIES * 2, (3, 4, 5, 6, 6, 5),
                                                       (2, 3, 2, 3, 2, 4)))]
HIGHS_CASES += [("makespan", family, n, 8, seed)
                for family, n, seed in (("layered", 40, 910), ("fork_join", 40, 911),
                                        ("random_dag", 40, 912), ("fork_join", 80, 914))]
# The same programs solved from the crash basis, and a 1210-row random_dag
# program at n=80 that takes several seconds without it.
HIGHS_CASES += [("makespan-start", family, n, 8, seed)
                for family, n, seed in (("layered", 40, 910), ("fork_join", 40, 911),
                                        ("random_dag", 40, 912), ("random_dag", 80, 913),
                                        ("fork_join", 80, 914))]


@pytest.mark.parametrize("kind,family,n,m,seed", HIGHS_CASES)
def test_objective_matches_highs(kind, family, n, m, seed):
    lp = built_program(kind, family, n, m, seed)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    expected = highs_objective(lp)
    assert sol.objective == pytest.approx(expected, rel=1e-7, abs=1e-7)


# Makespan programs whose demands span four or five decades, keyed by the top
# of the demand range, with HiGHS's optimum.  Solved unstarted, the first is
# called infeasible and the second's point fails the residual guard.
WIDE_RANGE_OPTIMA = {1e5: 93859.66371352605, 1e4: 24595.405494975847}
WIDE_RANGE_CASES = [(1e5, (1.0, 2.0)), (1e4, (0.01, 1.0))]


def wide_range_instance(demand_hi: float, speed_range: tuple[float, float]):
    inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=2, density=0.3,
                                           demand_range=(1.0, demand_hi),
                                           speed_range=speed_range))
    return inst, partition_machines(inst.platform)


@pytest.mark.parametrize("demand_hi,speed_range", WIDE_RANGE_CASES)
def test_wide_range_program_solves_from_its_start(demand_hi, speed_range):
    inst, groups = wide_range_instance(demand_hi, speed_range)
    expected = WIDE_RANGE_OPTIMA[demand_hi]
    sol = solve_lp(build_makespan_lp(inst, groups))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(expected, rel=1e-9)
    assert solve_makespan_relaxation(inst, groups).T == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("demand_hi,speed_range", WIDE_RANGE_CASES)
def test_wide_range_optimum_is_highs(demand_hi, speed_range):
    lp = build_makespan_lp(*wide_range_instance(demand_hi, speed_range))
    assert highs_objective(lp) == pytest.approx(WIDE_RANGE_OPTIMA[demand_hi], rel=1e-9)


# Weighted relaxations that Bland's rule failed on: 100057 ended on an
# infeasible point after a pivot on 1.07e-9, the layered ones hit the
# iteration limit.  Each maps to its spec and HiGHS's optimum.
WEIGHTED_DEFECTS = {
    "100057": (GeneratorSpec("random_dag", 10, 3, seed=100057, density=0.3, weights="uniform"),
               24.415002813),
    "100008": (GeneratorSpec("layered", 20, 8, seed=100008, density=0.3, weights="uniform"),
               71.883997622),
    "100011": (GeneratorSpec("layered", 20, 8, seed=100011, density=0.3, weights="uniform"),
               44.342432322),
    "100048": (GeneratorSpec("layered", 20, 8, seed=100048, density=0.3, weights="uniform"),
               54.578930563),
}


def weighted_defect(name: str) -> LinearProgram:
    inst, _ = normalize_demands(generate_instance(WEIGHTED_DEFECTS[name][0]))
    return build_weighted_lp(inst, partition_machines(inst.platform))


@pytest.mark.parametrize("name", sorted(WEIGHTED_DEFECTS))
def test_weighted_defect_solves(name):
    lp = weighted_defect(name)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert residuals(lp, sol.x).max() <= FEAS_TOL and sol.x.min() >= 0
    assert sol.objective == pytest.approx(WEIGHTED_DEFECTS[name][1], abs=1e-7)


@pytest.mark.parametrize("name", sorted(WEIGHTED_DEFECTS))
def test_weighted_defect_optimum_is_highs(name):
    assert highs_objective(weighted_defect(name)) == pytest.approx(
        WEIGHTED_DEFECTS[name][1], abs=1e-8)


# ---------------------------------------------------------------------------
# Reference: the row-list canonicalization and tableau set-up that solve_lp
# used before programs were held as arrays, with its own Bland's-rule pivot
# loop on the unperturbed bounds.  It shares no code with solve_lp, so both
# must agree on the status and the optimum, not on the vertex.
# ---------------------------------------------------------------------------

def reference_pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row, :])
    basis[row] = col


def bland_simplex(tableau: np.ndarray, basis: list[int], ncols: int, max_iter: int) -> str:
    """Lowest-index entering column, then the minimum ratio with ties to the
    lowest basis index."""
    nrows = tableau.shape[0] - 1
    for _ in range(max_iter):
        entering = np.nonzero(tableau[-1, :ncols] < -PIVOT_TOL)[0]
        if not entering.size:
            return OPTIMAL
        col = int(entering[0])
        best_row, best_ratio = -1, np.inf
        for i in range(nrows):
            a = tableau[i, col]
            if a > PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12 and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, i
        if best_row < 0:
            return UNBOUNDED
        reference_pivot(tableau, basis, best_row, col)
    raise LpError("simplex iteration limit exceeded")


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
    status = bland_simplex(tableau, basis, art0, max_iter)
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
            reference_pivot(tableau, basis, i, pivot_col)
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
    status = bland_simplex(reduced, basis, reduced.shape[1] - 1, max_iter)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = np.zeros(reduced.shape[1] - 1)
    for i, bv in enumerate(basis):
        x[bv] = reduced[i, -1]
    solution = np.where(np.abs(x[:n]) < PIVOT_TOL, 0.0, x[:n])
    return LpSolution(OPTIMAL, solution, float(lp.objective @ solution))


def agrees(status: str, objective: float | None, other_status: str,
           other_objective: float | None, tol: float) -> bool:
    return status == other_status and (status != OPTIMAL or abs(objective - other_objective) <= tol)


def assert_matches_reference(lp: LinearProgram) -> None:
    ref = reference_solve_lp(lp)
    try:
        got = solve_lp(lp)
    except LpError as exc:
        # The residual guard refuses what the reference called optimal.
        assert "infeasible point" in str(exc)
        assert ref.status == OPTIMAL and not is_feasible(lp, ref.x)
        return
    assert (got.x is None) == (got.status != OPTIMAL)
    if got.status == OPTIMAL:
        assert is_feasible(lp, got.x)
    if agrees(got.status, got.objective, ref.status, ref.objective,
              1e-9 * (1 + abs(ref.objective or 0.0))):
        return
    # The pivot paths part where an entry near PIVOT_TOL or FEAS_TOL may or
    # may not count.  HiGHS decides: solve_lp is wrong where HiGHS sides with
    # the reference.  Where HiGHS sides with neither, its own tolerances
    # decide, and the contract checks above are all that hold.
    status, objective = highs_result(lp)
    tol = 1e-7 * (1 + abs(objective or 0.0)) + FEAS_TOL * np.abs(lp.objective).sum()
    assert (agrees(got.status, got.objective, status, objective, tol)
            or not agrees(ref.status, ref.objective, status, objective, tol)), (
        f"solve_lp: {got.status} {got.objective}; reference and HiGHS: {status} {objective}")


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


def redundant_equalities() -> LinearProgram:
    """min x0 s.t. x0 + x1 = 2 and twice that row: phase 1 drops one of them."""
    return LinearProgram([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [EQ, EQ], [2.0, 4.0])


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
        sol = solve_lp(redundant_equalities())
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

    def test_no_variables(self):
        assert solve_lp(LinearProgram([], np.zeros((1, 0)), [EQ], [1.0])).status == INFEASIBLE
        sol = solve_lp(LinearProgram([], np.zeros((1, 0)), [EQ], [0.0]))
        assert sol.status == OPTIMAL and sol.x.size == 0 and sol.objective == 0.0

    def test_rounding_noise_is_not_infeasibility(self):
        # A drawn program that a dual clean-up reading -1e-12 of rounding
        # noise as infeasibility refused; Bland's rule and HiGHS solve it.
        lp = LinearProgram([0, -0.5, 3],
                           [[1, 0, 1.100202878339906], [0.5, 3.0481898722625935, 0],
                            [-0.5, 0, 0], [0.3999342036325926, 2.433373075470586, -0.5],
                            [-1, 0, 0.5], [-0.5, 3.963041451328203, 1], [3, 0, -0.5],
                            [-0.5, -2, -2]],
                           [1, 0, -1, 0, 1, 1, -1, -1],
                           [0, 6.346379744525187, 0.25, 5.066713252757468, -0.5,
                            7.176082902656406, 1.5, -3.75])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-7)
        assert_matches_reference(lp)

    def test_phase_one_noise_is_not_unboundedness(self):
        # Phase 1 meets a reduced cost of about -2e-8 on a column without a
        # positive entry.  Its objective is bounded below by 0, so that is
        # rounding noise; the artificial sum says feasible.
        lp = LinearProgram(
            [3.0, 2.7500433109088167, -0.6621179572258677, -2.7872020431338616],
            [[3.4136997785213694, -0.5, -1.1966001843598253e-302, 0.0],
             [3.4170619558741446, 8.736953576928593e-179, -2.0, -1.0],
             [3.259889790856599, 3.0, 0.0, 1.0716338197551005],
             [0.0, -0.5, 2.616631774709475, -3.6080331022234873],
             [-0.5, 1e-07, -0.7903113872050254, 0.0],
             [2.096441494208742, -2.0, 6.093318182356592e-248, -5.960464477539063e-08],
             [-0.5542923974277949, -2.0, -0.5, -1.0],
             [-1.0, 1.0622152940189773, -3.54442215634268, -0.7181290393420392],
             [0.8280239935048934, -2.0, -4.191712534320536e-163, -1.0],
             [-9.318457675936296e-186, -2.8246811948848265, -4.145227564024787e-250, 1.0]],
            [GE, GE, GE, EQ, LE, LE, LE, EQ, LE, LE],
            [3.9365307609212863, -2.0, -3.2286539915242993e-289, 1.0, 0.0, -2.0, 0.0,
             2.878278801866408, 3.0, 0.5])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and is_feasible(lp, sol.x)
        assert sol.objective == pytest.approx(72.38782731200224, abs=1e-7)  # HiGHS

    def test_perturbation_is_scaled_to_the_row(self):
        # x1 >= 1 and 5.96e-8 x1 <= 0.  An unscaled perturbation of 1e-7 on
        # the second row would let x1 = 1 through and report x0's ray.
        lp = LinearProgram([-2.0, -2.0], [[0.0, -2.0], [0.0, 5.960464477539063e-08]],
                           [LE, LE], [-2.0, 0.0])
        assert solve_lp(lp).status == INFEASIBLE

    def test_true_bounds_are_restored(self):
        # The perturbation, magnified by the 1.8e-9 entry, leaves the first
        # row's surplus at -5 on the true bounds; one dual step repairs it.
        lp = LinearProgram([0.0, -1.0],
                           [[-3.0, -1.0], [-2.0, 1.4625754655655152],
                            [1.1390286622031712e-63, -1.8367382943736108e-09]],
                           [LE, GE, GE], [-6.0, -3.037424534434485, -1.8367382943736108e-09])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and is_feasible(lp, sol.x)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)


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

    @pytest.mark.parametrize("sense,message", [
        (np.array([-1.0, 0.5]), "row 1 has sense code 0.5, "),
        (np.array([1.0, np.nan]), "row 1 has sense code nan, "),
        (np.array(["<="]), "row 0 has sense code '<=', "),
        (np.array([None]), "row 0 has sense code None, "),
        (np.array([0, 2**70], dtype=object), "row 1 has sense code 1180591620717411303424, "),
        (np.array([True]), "row 0 has sense code True, "),
    ], ids=["half", "nan", "str", "none", "big-int", "bool"])
    def test_sense_code_is_refused_in_any_dtype(self, sense, message):
        # A bool code equals 1 but cannot be negated, and object codes have
        # no .item(): each must still give the one-line LpError.
        match = "^" + re.escape(message + "expected -1 (<=), 0 (=) or 1 (>=)") + "$"
        A = np.ones((len(sense), 2))
        with pytest.raises(LpError, match=match):
            LinearProgram([1.0, 1.0], A, sense, np.ones(len(sense)))
        lp = LinearProgram([1.0, 1.0], A, np.full(len(sense), LE), np.ones(len(sense)))
        lp.sense = sense
        one_line_lp_error(lp, match)

    def test_float_and_object_codes_still_solve(self):
        for sense in (np.array([1.0]), np.array([1], dtype=object)):
            sol = solve_lp(LinearProgram([1.0, 1.0], [[1.0, 1.0]], sense, [1.0]))
            assert sol.status == OPTIMAL and sol.objective == 1.0

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

    def test_infeasible_point_is_not_optimal(self, monkeypatch):
        # A former defect instance: it must solve to HiGHS's optimum.  After
        # one corrupted tableau update the residual guard refuses the point.
        lp = weighted_defect("100057")
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and is_feasible(lp, sol.x)
        assert sol.objective == pytest.approx(WEIGHTED_DEFECTS["100057"][1], abs=1e-7)
        monkeypatch.setattr(lp_solver, "_pivot", corrupt_first_pivot(lp_solver._pivot))
        with pytest.raises(LpError, match=r"^simplex returned an infeasible point: "
                                          r"row 122 has residual 8\.70959 > FEAS_TOL 1e-07$"):
            solve_lp(lp)

    def test_infeasible_started_point_is_not_optimal(self, monkeypatch):
        # The pipelines' path: a crash basis, whose first pivot is one of the
        # start's own.  The guard refuses the point it corrupts too.
        inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100003, density=0.3))
        lp = build_makespan_lp(inst, partition_machines(inst.platform))
        assert solve_lp(lp).status == OPTIMAL
        monkeypatch.setattr(lp_solver, "_pivot", corrupt_first_pivot(lp_solver._pivot))
        with pytest.raises(LpError, match=r"^simplex returned an infeasible point: "
                                          r"row 20 has residual 3\.00707 > FEAS_TOL 1e-07$"):
            solve_lp(lp)


class TestPivotCounts:
    def test_counts_repeat_exactly(self):
        # A makespan program with every row and a weighted program through
        # phase 1, and a program whose phase 1 drops a redundant row.
        for lp, expected in ((built_program("makespan-full", "layered", 20, 8, 904), (134, 78)),
                             (built_program("weighted", "random_dag", 6, 3, 954), (102, 34)),
                             (redundant_equalities(), (2, 0))):
            counts = {(s.pivots, s.degenerate_pivots) for s in (solve_lp(lp), solve_lp(lp))}
            assert counts == {expected}

    def test_far_fewer_pivots_than_bland(self):
        # Bland's rule needs about 4,000 pivots on this makespan program.
        inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100003, density=0.3))
        sol = solve_lp(unstarted(build_makespan_lp(inst, partition_machines(inst.platform))))
        assert sol.status == OPTIMAL
        assert 0 < sol.pivots < 1000
        assert 0 <= sol.degenerate_pivots <= sol.pivots

    def test_same_bits_across_thread_counts(self):
        # Criterion 8: no thread pool may change a bit of the solution.
        script = ("import hashlib, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from getf.generator import GeneratorSpec, generate_instance\n"
                  "from getf.grouping import build_makespan_lp, partition_machines\n"
                  "from getf.lp_solver import solve_lp\n"
                  "inst = generate_instance(GeneratorSpec('layered', 20, 8, seed=100003))\n"
                  "lp = build_makespan_lp(inst, partition_machines(inst.platform))\n"
                  "lp.start = None\n"
                  "print(hashlib.sha256(solve_lp(lp).x.tobytes()).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script,
                                  str(Path(lp_solver.__file__).parents[1])],
                                 env=env, capture_output=True, text=True, timeout=120, check=True)
            digests.add(out.stdout.strip())
        inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100003))
        x = solve_lp(unstarted(build_makespan_lp(inst, partition_machines(inst.platform)))).x
        assert digests == {hashlib.sha256(x.tobytes()).hexdigest()}


def full_update_pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int,
                      counts: list[int]) -> None:
    """lp_solver._pivot as it was before the pivot column chose its update:
    the whole tableau takes one outer-product update on every pivot."""
    counts[0] += 1
    counts[1] += bool(abs(tableau[row, -1]) <= PIVOT_TOL * abs(tableau[row, col]))
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row, :])
    basis[row] = col


def solution_bits(lp: LinearProgram) -> tuple:
    sol = solve_lp(lp)
    x = None if sol.x is None else sol.x.tobytes()
    return sol.status, x, repr(sol.objective), sol.pivots, sol.degenerate_pivots


def assert_updates_agree(lp: LinearProgram) -> None:
    """The data-chosen update and the full one give the same bits."""
    chosen = solution_bits(lp)
    with mock.patch.object(lp_solver, "_pivot", full_update_pivot):
        assert solution_bits(lp) == chosen


def makespan_lp_programs() -> list[LinearProgram]:
    """The 48 started programs of a makespan-lp benchmark run at seed 1."""
    programs = []
    for k in range(48):
        inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100_003 + k,
                                               density=0.3, weights="zero"))
        programs.append(build_makespan_lp(inst, partition_machines(inst.platform)))
    return programs


def weighted_lp_programs() -> list[LinearProgram]:
    """24 programs of a weighted-lp benchmark run at seed 1."""
    programs = []
    for k in range(24):
        inst = generate_instance(GeneratorSpec("random_dag", 10, 3, seed=100_003 + k,
                                               density=0.3, weights="uniform"))
        inst, _ = normalize_demands(inst)
        programs.append(build_weighted_lp(inst, partition_machines(inst.platform)))
    return programs


class TestPivotUpdates:
    def test_started_makespan_programs(self):
        for lp in makespan_lp_programs():
            assert_updates_agree(lp)

    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_drawn_programs(self, lp):
        assert_updates_agree(lp)

    def test_weighted_program(self):
        assert_updates_agree(built_program("weighted", "random_dag", 6, 3, 954))


def assert_blocks_agree(lp: LinearProgram, block_bytes: int) -> None:
    """The full update in blocks of block_bytes gives the one-block bits."""
    with mock.patch.object(lp_solver, "PIVOT_BLOCK_BYTES", 1 << 62):
        whole = solution_bits(lp)
    with mock.patch.object(lp_solver, "PIVOT_BLOCK_BYTES", block_bytes):
        assert solution_bits(lp) == whole


class TestBlockedPivot:
    # 1 byte makes every row its own block; 2 KiB holds one row of a
    # makespan-lp tableau, and 200 bytes one to a few rows of a drawn one.
    @pytest.mark.parametrize("block_bytes", [1, 2048])
    def test_started_makespan_programs(self, block_bytes):
        for lp in makespan_lp_programs():
            assert_blocks_agree(lp, block_bytes)

    @settings(max_examples=200, deadline=None)
    @given(programs(), st.sampled_from([1, 200]))
    def test_drawn_programs(self, lp, block_bytes):
        assert_blocks_agree(lp, block_bytes)

    def test_weighted_program(self):
        assert_blocks_agree(built_program("weighted", "random_dag", 6, 3, 954), 1)

    def test_every_block_reads_the_pivot_row_as_it_was(self):
        # The pivot row's own update, r - 0 * r, turns -0.0 into 0.0 and inf
        # into nan; the rows after it must still subtract multiples of r.
        def pivoted(block_bytes: int) -> bytes:
            tableau = np.array([[1.0, -0.0, np.inf, 5.0], [2.0, -0.0, 1.0, 1.0],
                                [3.0, 1.0, 1.0, 1.0]])
            with mock.patch.object(lp_solver, "PIVOT_BLOCK_BYTES", block_bytes), \
                    np.errstate(all="ignore"):
                lp_solver._pivot(tableau, np.zeros(3, dtype=int), 0, 0, [0, 0])
            return tableau.tobytes()
        assert pivoted(1) == pivoted(1 << 62)


def assert_rowwise_agrees(lp: LinearProgram) -> None:
    """Every hit-path pivot updated row by row, and none, give the same bits."""
    with mock.patch.object(lp_solver, "PIVOT_ROWWISE_SHARE", 0.5):
        every = solution_bits(lp)
    with mock.patch.object(lp_solver, "PIVOT_ROWWISE_SHARE", 0.0):
        assert solution_bits(lp) == every


class TestRowwisePivot:
    def test_started_makespan_programs(self):
        for lp in makespan_lp_programs():
            assert_rowwise_agrees(lp)

    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_drawn_programs(self, lp):
        assert_rowwise_agrees(lp)

    def test_weighted_program(self):
        assert_rowwise_agrees(built_program("weighted", "random_dag", 6, 3, 954))

    def test_every_update_runs_on_started_makespan_programs(self):
        # The share of rows the pivot column reaches picks the update, as
        # _pivot's docstring lists them; each must run, or it is dead code.
        modes = set()
        real = lp_solver._pivot

        def spy(tableau, basis, row, col, counts):
            hit, rows = np.count_nonzero(tableau[:, col]), len(tableau)
            modes.add("row by row" if hit < lp_solver.PIVOT_ROWWISE_SHARE * rows
                      else "gathered" if 2 * hit < rows else "full")
            real(tableau, basis, row, col, counts)

        with mock.patch.object(lp_solver, "_pivot", spy):
            for lp in makespan_lp_programs():
                solve_lp(lp)
        assert modes == {"row by row", "gathered", "full"}


def solve_digest(programs: list[LinearProgram]) -> str:
    """SHA-256 over each solve's status, x bytes, pivot counts and max_residual."""
    h = hashlib.sha256()
    for lp in programs:
        sol = solve_lp(lp)
        h.update(repr((sol.status, sol.pivots, sol.degenerate_pivots, sol.max_residual)).encode())
        h.update(b"" if sol.x is None else sol.x.tobytes())
    return h.hexdigest()


class TestGoldenSolves:
    # Digests taken when the pivot, ratio test and pricing still called
    # numpy's module-level wrappers: a change to any operation, or to its
    # order, in the solve moves a bit somewhere in here.
    DIGESTS = {
        "makespan-started":
            "9f0b8f3e9424c413223ffe218b40e9b2c3bf726f8c41dcd77e6f1bda44191be8",
        "makespan-unstarted":
            "dcb5ea8beefc2fd4837cf2aac2d02c0a54d01ab9296396202865b9d4dc2775d8",
        "weighted":
            "4c8ff50e55cc8711de08b0b8c61b97bb8f7faefa70d4b4ff6805690312c77cac",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        if name == "weighted":
            programs = weighted_lp_programs()
        else:
            programs = makespan_lp_programs()
            if name == "makespan-unstarted":          # phase 1 and the drive-out
                programs = [unstarted(lp) for lp in programs]
        assert solve_digest(programs) == self.DIGESTS[name]


def one_line_lp_error(lp: LinearProgram, match: str) -> None:
    with pytest.raises(LpError, match=match) as info:
        solve_lp(lp)
    assert "\n" not in str(info.value)


class TestStart:
    # min x0 + 2 x1  s.t.  x0 + x1 = 2,  x0 <= 1.8,  x1 >= 0.25
    A = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    SENSE = [EQ, LE, GE]
    B = [2.0, 1.8, 0.25]

    def program(self, start) -> LinearProgram:
        return LinearProgram([1.0, 2.0], self.A, self.SENSE, self.B, start)

    def test_started_solve_matches_unstarted(self):
        plain = solve_lp(self.program(None))
        started = solve_lp(self.program([0, -1, 1]))
        assert started.status == plain.status == OPTIMAL
        assert started.objective == pytest.approx(plain.objective, rel=1e-12)
        assert started.objective == pytest.approx(2.25)
        assert started.pivots >= 2                 # the two install pivots count

    @pytest.mark.parametrize("start,match", [
        ([0, -1], r"^start must be a \(3,\) integer array, got shape \(2,\)"),
        ([0.0, -1.0, 1.0], r"^start must be a \(3,\) integer array, got shape \(3,\) of float64"),
        ([[0, -1, 1]], r"^start must be a \(3,\) integer array"),
        ([0, 2, 1], r"^start names column 2 in row 1, expected -1 or 0\.\.1$"),
        ([0, -2, 1], r"^start names column -2 in row 1"),
        ([-1, -1, 1], r"^start leaves row 0 on its artificial"),
        ([0, -1, -1], r"^start leaves row 2 on its artificial"),
    ])
    def test_malformed_start_is_refused(self, start, match):
        with pytest.raises(LpError, match=match) as info:
            self.program(start)
        assert "\n" not in str(info.value)
        lp = self.program(None)
        lp.start = np.asarray(start)
        one_line_lp_error(lp, match)

    def test_negated_le_row_needs_a_column(self):
        # x0 <= -1 with b < 0 is canonicalized to a >= row on an artificial.
        with pytest.raises(LpError, match=r"^start leaves row 0 on its artificial"):
            LinearProgram([1.0], [[-1.0]], [LE], [-1.0], [-1])
        assert solve_lp(LinearProgram([1.0], [[-1.0]], [LE], [-1.0], [0])).objective == 1.0

    def test_singular_start_is_refused(self):
        # Column 0 made basic twice: after row 0's pivot it holds 0 in row 2.
        one_line_lp_error(
            LinearProgram([1.0, 2.0], self.A, [EQ, LE, EQ], [2.0, 1.5, 0.25], [0, -1, 0]),
            r"^start is singular: column 0 has pivot 0 in row 2$")

    def test_infeasible_start_is_refused(self):
        # x0 basic in the = row puts x0 = 2 above its bound 1.5.
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [EQ, LE], [2.0, 1.5], [0, -1])
        one_line_lp_error(lp, r"^start is infeasible: row 1 has basic value -0\.5 "
                              r"< -FEAS_TOL 1e-07$")

    def test_no_rows(self):
        sol = solve_lp(LinearProgram([1.0], np.zeros((0, 1)), [], [], np.zeros(0, dtype=int)))
        assert sol.status == OPTIMAL and sol.max_residual == 0.0

    def test_same_bits_across_thread_counts(self):
        # Criterion 8 on the started path: solve_makespan_relaxation installs
        # the crash basis before phase 2.
        script = ("import hashlib, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from getf.generator import GeneratorSpec, generate_instance\n"
                  "from getf.grouping import partition_machines, solve_makespan_relaxation\n"
                  "inst = generate_instance(GeneratorSpec('layered', 20, 8, seed=100003))\n"
                  "frac = solve_makespan_relaxation(inst, partition_machines(inst.platform))\n"
                  "print(hashlib.sha256(frac.x.tobytes() + frac.C.tobytes()).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script,
                                  str(Path(lp_solver.__file__).parents[1])],
                                 env=env, capture_output=True, text=True, timeout=120, check=True)
            digests.add(out.stdout.strip())
        inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100003))
        frac = solve_makespan_relaxation(inst, partition_machines(inst.platform))
        assert digests == {hashlib.sha256(frac.x.tobytes() + frac.C.tobytes()).hexdigest()}


class TestMaxResidual:
    def test_optimal_solve_reports_its_worst_violation(self):
        lp = built_program("makespan", "layered", 20, 8, 904)
        sol = solve_lp(lp)
        worst = max(0.0, float(residuals(lp, sol.x).max()), float((-sol.x).max()))
        assert sol.max_residual == worst
        assert 0.0 <= sol.max_residual <= FEAS_TOL

    def test_non_optimal_solves_have_none(self):
        infeasible = solve_lp(LinearProgram([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 2.0]))
        unbounded = solve_lp(LinearProgram([-1.0], [[-1.0]], [LE], [1.0]))
        assert (infeasible.status, unbounded.status) == (INFEASIBLE, UNBOUNDED)
        assert infeasible.max_residual is None and unbounded.max_residual is None
