"""Speed-banded machine groups and LP-driven task-to-group assignment rules.

Machines are first partitioned: anything slower than a 1/m fraction of the
fastest machine is discarded, the survivors are rescaled so the fastest has
rescaled speed m, and rescaled speeds are split into K geometric bands of
ratio gamma (band k covers [gamma^(k-1), gamma^k), top band closed).

Two fractional relaxations then drive task assignment:

  * the makespan program: fractional machine assignments x[i,j], completion
    times C[j] and a horizon T to minimize, with a greedy LPT start.  It
    holds no row that other rows imply: no chain row for a transitive edge,
    processing rows for sources only, C_j <= T rows for sinks only;
  * the weighted-completion program: time-indexed fractions x[i,j,q] over
    geometric deadline intervals (tau[q-1], tau[q]], minimizing
    sum_j weight[j] * C[j].

Both programs are built over retained machines with their original speeds,
so optimal values are directly comparable with schedule times.  Their
solutions are numpy arrays whose rows follow ``groups.retained`` and whose
columns are task ids: ``MakespanFractional.x`` has shape (nm, n), the
weighted program's x has shape (nm, n, Q) with interval q at index q-1, and
the collapsed ``x_tilde`` has shape (nm, n).  The LP variables are these
arrays flattened row-major, followed by C (and T in the makespan program).
``collapse_time_indexed(x, C)`` alone builds a ``WeightedFractional``, so
every one carries its interval estimates, captured masses and ``x_tilde``.

Each task is mapped to the fastest admissible band: l_j is the largest band
index such that at least ``theta`` of the task's fractional mass sits in
bands l_j..K, and the task goes to the band with maximum total speed among
those, totals within a relative ``BAND_TIE_TOL`` counting as tied and ties
going to the higher band.  Every sum that feeds a decision or a report runs
left to right over machines, then intervals, in the order of the loops it
replaced: np.sum may pair terms differently and change the last bit.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lp_solver import EQ, LE, LinearProgram, LpSolution, solve_lp
from .model import Instance, Platform, topological_order

log = logging.getLogger(__name__)

MASS_TOL = 1e-6
BAND_TIE_TOL = 1e-12  # band total speeds this close, relative to the larger, tie
MAX_BANDS = 10_000  # the band-mass arrays and the bound report grow with K
MAX_TABLEAU_BYTES = 2 ** 30  # solve_lp's dense tableau: (rows + 1) x (cols + rows + 2) floats


class GroupingError(ValueError):
    pass


@dataclass(frozen=True)
class MachineGroups:
    gamma: float
    K: int
    retained: tuple[int, ...]          # machine ids, ascending; rows of every LP array
    group_of: dict[int, int]           # retained machine id -> band 1..K
    group_speed: dict[int, float]      # original-unit totals: rank the bands, bound math
    members: dict[int, tuple[int, ...]]

    def machines_in(self, k: int) -> tuple[int, ...]:
        return self.members.get(k, ())


@dataclass(frozen=True)
class GroupAssignment:
    group_of_task: dict[int, int]
    groups: MachineGroups

    def machines_for(self, task: int) -> tuple[int, ...]:
        return self.groups.machines_in(self.group_of_task[task])

    def to_dict(self) -> dict:
        return {
            "gamma": self.groups.gamma,
            "K": self.groups.K,
            "groups": {str(i): k for i, k in sorted(self.groups.group_of.items())},
            "tasks": {str(j): k for j, k in sorted(self.group_of_task.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _machine_groups(platform: Platform, gamma: float, K: int,
                    band_of: dict[int, int]) -> MachineGroups:
    """The bands 1..K of the machines in ``band_of`` (retained id -> band, ids
    ascending), in one pass; totals add in retained order from 0, as sum does."""
    members: dict[int, list[int]] = {k: [] for k in range(1, K + 1)}
    speed = dict.fromkeys(members, 0)
    for i, k in band_of.items():
        members[k].append(i)
        speed[k] += platform.speed(i)
    return MachineGroups(gamma=gamma, K=K, retained=tuple(band_of), group_of=band_of,
                         group_speed=speed, members={k: tuple(ids) for k, ids in members.items()})


def trivial_assignment(inst: Instance) -> GroupAssignment:
    """Every task in one band holding every machine."""
    groups = _machine_groups(inst.platform, 2.0, 1, {mc.id: 1 for mc in inst.platform.machines})
    return GroupAssignment(dict.fromkeys(range(inst.graph.n), 1), groups)


def default_gamma(m: int) -> float:
    """max(2, log2(m)/log2(log2(m))), and 2 for m <= 2 where that is undefined."""
    if m <= 2:
        return 2.0
    return max(2.0, math.log2(m) / math.log2(math.log2(m)))


def band_layout(m: int, gamma: float | None = None) -> tuple[float, int]:
    """The band ratio, ``gamma`` or the default, and the band count K for m
    machines; the ratio must be finite, exceed 1, and give K <= ``MAX_BANDS``."""
    g = default_gamma(m) if gamma is None else float(gamma)
    if not g > 1.0:  # NaN too
        raise GroupingError(f"gamma must exceed 1, got {g}")
    if g == math.inf:
        raise GroupingError(f"gamma must be finite, got {g}")
    K = max(1, math.ceil(math.log(m, g) - 1e-12))
    if K > MAX_BANDS:
        raise GroupingError(f"gamma {g} needs {K} speed bands for {m} machines; "
                            f"at most {MAX_BANDS} are allowed")
    return g, K


def check_theta(theta: float) -> None:
    """Refuse a band-rule threshold outside (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise GroupingError(f"theta must lie in (0,1), got {theta}")


def partition_machines(platform: Platform, gamma: float | None = None) -> MachineGroups:
    """Discard sub-1/m-speed machines and band the rest geometrically."""
    m = platform.m
    g, K = band_layout(m, gamma)
    s_max = max(mc.speed for mc in platform.machines)
    nu = m / s_max
    band_of: dict[int, int] = {}
    for mc in platform.machines:  # ids ascend: they are the positions
        if mc.speed >= s_max / m - 1e-15:
            k = int(math.floor(math.log(mc.speed * nu, g) + 1e-9)) + 1
            band_of[mc.id] = min(max(k, 1), K)
    return _machine_groups(platform, g, K, band_of)


# ---------------------------------------------------------------------------
# Array helpers shared by both relaxations
# ---------------------------------------------------------------------------

def _speeds(inst: Instance, groups: MachineGroups) -> np.ndarray:
    return np.array([inst.platform.speed(i) for i in groups.retained])


def _proc(inst: Instance, groups: MachineGroups) -> np.ndarray:
    """(nm, n) processing times demand[j] / speed[i] on the retained machines."""
    demand = np.array(inst.graph.demand)
    return demand / _speeds(inst, groups)[:, None]


def _running_total(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Left-to-right sum along ``axis`` (np.sum may pair terms differently)."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _zero_program(name: str, n_cols: int, *shapes) -> tuple:
    """(A, sense, b, *blocks): a zero (rows, n_cols) matrix whose rows split
    into consecutive blocks, each block's row indices shaped like its entry of
    ``shapes``.  The first block's rows are = 1 and every other row is <= 0.
    A program whose tableau would exceed MAX_TABLEAU_BYTES is refused first."""
    blocks, start = [], 0
    for shape in shapes:
        blocks.append(start + np.arange(np.prod(shape)).reshape(shape))
        start += blocks[-1].size
    tableau = (start + 1) * (n_cols + start + 2) * 8
    if tableau > MAX_TABLEAU_BYTES:
        raise GroupingError(
            f"the {name} program has {start} rows and {n_cols} columns; its simplex tableau "
            f"would take {tableau:,} bytes, over the {MAX_TABLEAU_BYTES:,}-byte budget")
    sense, b = np.full(start, LE), np.zeros(start)
    sense[blocks[0]], b[blocks[0]] = EQ, 1.0
    return (np.zeros((start, n_cols)), sense, b, *blocks)


def _check_mass(total: np.ndarray) -> None:
    for j in np.flatnonzero(np.abs(total - 1.0) > MASS_TOL)[:1]:
        raise GroupingError(f"fractional mass of task {j} is {total[j]}, expected 1")


def _band_mass(x: np.ndarray, groups: MachineGroups) -> np.ndarray:
    """(K, n) mass per band of an (nm, n) solution, added in retained order."""
    mass = np.zeros((groups.K, x.shape[1]))
    np.add.at(mass, [groups.group_of[i] - 1 for i in groups.retained], x)
    return mass


def _assign_from_mass(
    mass: np.ndarray, groups: MachineGroups, theta: float
) -> GroupAssignment:
    check_theta(theta)
    K = groups.K
    tail = np.cumsum(mass[::-1], axis=0)[::-1]        # tail[l-1]: bands K down to l
    admissible = tail >= theta - 1e-9
    for j in np.flatnonzero(~admissible.any(axis=0))[:1]:
        raise GroupingError(
            f"no band index satisfies the tail-mass condition for task {j} "
            f"(total mass {tail[0, j]:.9f} < theta {theta})"
        )
    lj = K - np.argmax(admissible[::-1], axis=0)
    # best[l]: the fastest total speed from band l up, ties (within
    # BAND_TIE_TOL, which rounding in the totals needs) going to the higher
    # band, in one backward pass (best[0] is unused).
    speed, best = groups.group_speed, [K] * (K + 1)
    for ell in range(K - 1, 0, -1):
        b = best[ell + 1]
        best[ell] = ell if speed[ell] - speed[b] > BAND_TIE_TOL * speed[ell] else b
    return GroupAssignment({j: best[ell] for j, ell in enumerate(lj.tolist())}, groups)


# ---------------------------------------------------------------------------
# Makespan relaxation
# ---------------------------------------------------------------------------

@dataclass
class MakespanFractional:
    x: np.ndarray    # (nm, n): fraction of task j on the machine groups.retained[row]
    C: np.ndarray    # (n,)
    T: float


def build_makespan_lp(inst: Instance, groups: MachineGroups) -> LinearProgram:
    """Fractional-assignment program whose optimum T* lower-bounds the
    zero-communication optimal makespan over the retained machines, with a
    feasible starting basis.

    Its rows, in blocks: each task fully assigned; processing time <= C_j
    for each source (a task without predecessors); C_a + proc(c) <= C_c for
    each edge (a, c) that is not transitive; each machine's load <= T; and
    C_j <= T for each sink (a task without successors).  The rows left out
    are implied by the ones kept, so the feasible set and T* are those of
    the program with every row: a transitive edge's row by the chain rows
    along its other path (C grows by a nonnegative proc at each step), a
    processing row by any of the task's chain rows (C >= 0), and a C_j <= T
    row by a successor's chain row and, in turn, a sink's C <= T row.

    The start is greedy LPT (Graham 1969): tasks in decreasing demand, ties
    by id, each goes whole to the retained machine that minimizes load +
    proc, and that x[i_j, j] is basic in assignment row j.  Along the
    topological order, C_j = proc + the largest predecessor C is basic in its
    tight row: the first kept incoming-edge row that attains that C, or the
    processing row of a source.  T is basic in the argmax machine-load row
    or, if some C_j is larger, the argmax C_j <= T row over the sinks.
    Every other row keeps its slack.  Demands are positive, so finishes
    never fall along a path: the largest predecessor C is always attained on
    a kept edge and the largest C at a sink, and the start names kept rows
    only.  The basis is triangular with +-1 on its diagonal, so it is
    nonsingular.
    """
    g = inst.graph
    n, nm = g.n, len(groups.retained)
    proc = _proc(inst, groups)
    src, dst, _ = g.edge_columns()
    kept = ~g.transitive_edges()
    src, dst = src[kept], dst[kept]
    sources = np.flatnonzero(np.bincount(dst, minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    x = np.arange(nm * n).reshape(nm, n)               # column of x[i, j]
    C, T = nm * n + np.arange(n), nm * n + n
    A, sense, b, assign, capacity, chain, load, horizon = _zero_program(
        "makespan", T + 1, n, len(sources), len(src), (nm, 1), len(sinks))
    # every task fully assigned
    A[assign, x] = 1.0
    # processing time <= C_j, sources only
    A[capacity, x[:, sources]] = proc[:, sources]
    A[capacity, C[sources]] = -1.0
    # C_src + proc(dst) <= C_dst, kept edges only
    A[chain, x[:, dst]] = proc[:, dst]
    A[chain, C[src]] = 1.0
    A[chain, C[dst]] = -1.0
    # machine load <= T
    A[load, x] = proc
    A[load, T] = -1.0
    # C_j <= T, sinks only
    A[horizon, C[sinks]] = 1.0
    A[horizon, T] = -1.0
    objective = np.zeros(T + 1)
    objective[T] = 1.0
    # The LPT start: the column made basic in each row, -1 keeping its slack.
    # It runs on lists: Python floats add and compare as float64 does, and
    # min and index take the first minimum and maximum, as argmin and argmax do.
    start = [-1] * len(b)
    proc_of, x_of, assign_row = proc.T.tolist(), x.T.tolist(), assign.tolist()
    busy, machine = [0.0] * nm, [0] * n
    for j in sorted(range(n), key=lambda j: (-g.demand[j], j)):
        p = proc_of[j]
        i = min(range(nm), key=lambda i: busy[i] + p[i])
        machine[j] = i
        busy[i] += p[i]
        start[assign_row[j]] = x_of[j][i]
    src_of, chain_row, C_of = src.tolist(), chain.tolist(), C.tolist()
    incoming: list[list[int]] = [[] for _ in range(n)]
    for e, j in enumerate(dst.tolist()):
        incoming[j].append(e)
    source_row = dict(zip(sources.tolist(), capacity.tolist()))
    finish = [0.0] * n
    for j in topological_order(g):
        ready = max((finish[src_of[e]] for e in incoming[j]), default=0.0)
        finish[j] = ready + proc_of[j][machine[j]]
        tight = next((chain_row[e] for e in incoming[j] if finish[src_of[e]] == ready), None)
        start[source_row[j] if tight is None else tight] = C_of[j]
    last = [finish[j] for j in sinks.tolist()]
    if max(busy) >= max(last):
        start[load[busy.index(max(busy)), 0]] = T
    else:
        start[horizon[last.index(max(last))]] = T
    return LinearProgram(objective, A, sense, b, start)


def extract_makespan_fractional(
    inst: Instance, groups: MachineGroups, sol: LpSolution
) -> MakespanFractional:
    if not sol.is_optimal:
        raise GroupingError(f"makespan relaxation not optimal: {sol.status}")
    n, nm = inst.graph.n, len(groups.retained)
    x = sol.x[: nm * n].reshape(nm, n)
    _check_mass(_running_total(x))
    return MakespanFractional(x, sol.x[nm * n: nm * n + n], float(sol.x[nm * n + n]))


def solve_makespan_relaxation(
    inst: Instance, groups: MachineGroups
) -> MakespanFractional:
    return extract_makespan_fractional(inst, groups, solve_lp(build_makespan_lp(inst, groups)))


def assign_groups_makespan(
    sol: MakespanFractional, groups: MachineGroups, theta: float = 0.5
) -> GroupAssignment:
    return _assign_from_mass(_band_mass(sol.x, groups), groups, theta)


# ---------------------------------------------------------------------------
# Weighted-completion relaxation (time-indexed)
# ---------------------------------------------------------------------------

@dataclass
class WeightedFractional:
    Q: int
    tau: tuple[float, ...]                # tau[q] = 2**q, q = 0..Q
    x: np.ndarray                         # (nm, n, Q); interval q at index q-1
    C: np.ndarray                         # (n,)
    q_of: np.ndarray                      # (n,) interval estimate 1..Q
    alpha: np.ndarray                     # (n,) mass captured by intervals 1..q_of
    x_tilde: np.ndarray                   # (nm, n) collapsed fractions

    def objective(self, weights: Sequence[float]) -> float:
        return sum(weights[j] * cj for j, cj in enumerate(self.C.tolist()))


def horizon_intervals(inst: Instance, groups: MachineGroups) -> int:
    """Number of geometric deadline intervals covering the serial horizon."""
    total = sum(inst.graph.demand)
    slowest = min(inst.platform.speed(i) for i in groups.retained)
    return max(1, math.ceil(math.log2(total / slowest) - 1e-12))


def build_weighted_lp(inst: Instance, groups: MachineGroups) -> LinearProgram:
    """Time-indexed relaxation for total weighted completion time.

    Requires a normalized instance (every processing time >= 1) so the first
    interval [1,2] can hold the earliest completions.
    """
    n, nm = inst.graph.n, len(groups.retained)
    proc = _proc(inst, groups)
    min_proc = proc.min()
    if min_proc < 1.0 - 1e-9:
        raise GroupingError(
            f"instance not normalized: smallest processing time {min_proc} < 1"
        )

    Q = horizon_intervals(inst, groups)
    tau = np.array([2.0 ** q for q in range(Q + 1)])
    src, dst, _ = inst.graph.edge_columns()
    x = np.arange(nm * n * Q).reshape(nm, n, Q)        # column of x[i, j, q]
    C = nm * n * Q + np.arange(n)
    q, t = np.tril_indices(Q)                          # every pair t <= q, as q-1, t-1
    A, sense, b, assign, capacity, chain, lag, left, prefix = _zero_program(
        "weighted", nm * n * Q + n, (n, 1), (n, 1), (len(src), 1), (len(src), Q), (n, 1),
        (nm, 1, Q))
    # all mass placed
    A[assign, x] = 1.0
    # processing <= C_j
    A[capacity, x] = proc[:, :, None]
    A[capacity[:, 0], C] = -1.0
    # chain growth
    A[chain, x[:, dst]] = proc[:, dst, None]
    A[chain[:, 0], C[src]] = 1.0
    A[chain[:, 0], C[dst]] = -1.0
    # successor mass lags predecessor, one row per (edge, q)
    A[lag[:, q], x[:, dst[:, None], t]] = 1.0
    A[lag[:, q], x[:, src[:, None], t]] = -1.0
    # left interval edge <= C_j
    A[left, x] = tau[:-1]
    A[left[:, 0], C] = -1.0
    # prefix load fits the interval, one row per (machine, q)
    A[prefix[..., q], x[:, :, t]] = proc[:, :, None]
    b[prefix] = tau[1:]
    objective = np.concatenate([np.zeros(nm * n * Q), inst.graph.weight])
    return LinearProgram(objective, A, sense, b)


def extract_weighted_fractional(
    inst: Instance, groups: MachineGroups, sol: LpSolution
) -> tuple[np.ndarray, np.ndarray]:
    """The optimum's fractions x, shaped (nm, n, Q), and completion times C."""
    if not sol.is_optimal:
        raise GroupingError(f"weighted relaxation not optimal: {sol.status}")
    n, nm = inst.graph.n, len(groups.retained)
    Q = horizon_intervals(inst, groups)
    x = sol.x[: nm * n * Q].reshape(nm, n, Q)
    _check_mass(_running_total(x.transpose(1, 0, 2).reshape(n, -1), axis=1))
    return x, sol.x[nm * n * Q: nm * n * Q + n]


def collapse_time_indexed(x: np.ndarray, C: np.ndarray) -> WeightedFractional:
    """The weighted solution of fractions x (nm, n, Q) and completion times C.

    q_of[j] is the smallest interval q with both at-least-half cumulative mass
    and C[j] <= 2^q; it is clamped to Q (with a warning) if C[j] overruns the
    horizon.  x_tilde renormalizes the first q_of[j] intervals' mass.
    """
    nm, n, Q = x.shape
    tau = tuple(2.0 ** q for q in range(Q + 1))
    cum = np.cumsum(_running_total(x), axis=1)         # (n, Q): mass in intervals 1..q
    fits = (cum >= 0.5 - MASS_TOL) & (C[:, None] <= np.array(tau[1:]) + MASS_TOL)
    q_of = np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, Q)
    for j in np.flatnonzero(~fits.any(axis=1)):
        log.warning(
            "interval estimate for task %d clamped to Q=%d (C*=%g > %g)",
            j, Q, C[j], tau[Q],
        )
    kept = np.where(np.arange(Q) < q_of[:, None], x, 0.0)        # intervals 1..q_of[j]
    alpha = _running_total(kept.transpose(1, 0, 2).reshape(n, -1), axis=1)
    for j in np.flatnonzero(alpha < 1e-9)[:1]:
        raise GroupingError(f"cannot collapse task {j}: captured mass {alpha[j]} too small")
    x_tilde = _running_total(kept, axis=2) / alpha
    return WeightedFractional(Q, tau, x, C, q_of, alpha, x_tilde)


def solve_weighted_relaxation(
    inst: Instance, groups: MachineGroups
) -> WeightedFractional:
    # Two calls in sequence, never one inside the other: perfbench times
    # both as grouping.extract, so a nested collapse would count twice.
    x, C = extract_weighted_fractional(inst, groups, solve_lp(build_weighted_lp(inst, groups)))
    return collapse_time_indexed(x, C)


def assign_groups_weighted(
    sol: WeightedFractional, groups: MachineGroups, theta: float = 0.5
) -> GroupAssignment:
    return _assign_from_mass(_band_mass(sol.x_tilde, groups), groups, theta)


def weighted_slice_feasibility(
    inst: Instance, groups: MachineGroups, sol: WeightedFractional
) -> dict[int, float]:
    """Max violation, per interval q, of the substituted makespan-LP point.

    For each interval slice {j: q_of[j] == q}, the point (x_tilde restricted
    to the slice, C~ = 2C*, T~ = 2^(q+1)) must satisfy every constraint of
    the makespan relaxation built over the slice's tasks.  Returns the worst
    residual per nonempty slice (<= 0 means satisfied exactly).
    """
    speed = _speeds(inst, groups)[:, None]
    demand = np.array(inst.graph.demand)
    src, dst, _ = inst.graph.edge_columns()
    total = _running_total(sol.x_tilde)
    proc = demand * _running_total(sol.x_tilde / speed)
    c2 = 2.0 * sol.C
    out: dict[int, float] = {}
    for q in range(1, sol.Q + 1):
        in_slice = sol.q_of == q
        if not in_slice.any():
            continue
        t_tilde = 2.0 ** (q + 1)
        load = _running_total(demand[in_slice] * sol.x_tilde[:, in_slice] / speed, axis=1)
        out[q] = float(np.concatenate([
            np.abs(total - 1.0)[in_slice],                            # (assignment)
            (proc - c2)[in_slice],                                    # (capacity)
            (c2 - t_tilde)[in_slice],                                 # (horizon)
            (c2[src] + proc[dst] - c2[dst])[in_slice[src] & in_slice[dst]],   # (precedence)
            load - t_tilde,                                           # (machine load)
        ]).max())
    return out
