"""Speed-banded machine groups and LP-driven task-to-group assignment rules.

Machines are first partitioned: anything slower than a 1/m fraction of the
fastest machine is discarded, the survivors are rescaled so the fastest has
rescaled speed m, and rescaled speeds are split into K geometric bands of
ratio gamma (band k covers [gamma^(k-1), gamma^k), top band closed).

Two fractional relaxations then drive task assignment:

  * the makespan program: fractional machine assignments x[i,j], completion
    times C[j] and a horizon T to minimize;
  * the weighted-completion program: time-indexed fractions x[i,j,q] over
    geometric deadline intervals (tau[q-1], tau[q]], minimizing
    sum_j weight[j] * C[j].

Each task is mapped to the fastest admissible band: l_j is the largest band
index such that at least ``theta`` of the task's fractional mass sits in
bands l_j..K, and the task goes to the band with maximum total speed among
those.  Both programs are built over retained machines with their original
speeds, so optimal values are directly comparable with schedule times.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .lp_solver import EQUAL, LESS_EQUAL, LinearProgram, LpSolution, solve_lp
from .model import Instance, Platform

log = logging.getLogger(__name__)

MASS_TOL = 1e-6


class GroupingError(ValueError):
    pass


@dataclass(frozen=True)
class MachineGroups:
    gamma: float
    K: int
    retained: tuple[int, ...]          # machine ids, ascending
    normalization: float               # rescaled speed = original speed * normalization
    group_of: dict[int, int]           # retained machine id -> band 1..K
    rescaled_speed: dict[int, float]
    group_speed_rescaled: dict[int, float]
    group_speed: dict[int, float]      # original-unit totals, used by bound math
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


def trivial_assignment(inst: Instance) -> GroupAssignment:
    """Every task in one band holding every machine."""
    platform = inst.platform
    ids = tuple(mc.id for mc in platform.machines)
    total = sum(mc.speed for mc in platform.machines)
    fastest = max(mc.speed for mc in platform.machines)
    nu = platform.m / fastest
    groups = MachineGroups(
        gamma=2.0,
        K=1,
        retained=ids,
        normalization=nu,
        group_of={i: 1 for i in ids},
        rescaled_speed={i: platform.speed(i) * nu for i in ids},
        group_speed_rescaled={1: total * nu},
        group_speed={1: total},
        members={1: ids},
    )
    return GroupAssignment({t.id: 1 for t in inst.graph.tasks}, groups)


def default_gamma(m: int) -> float:
    """max(2, log2(m)/log2(log2(m))), safe for m <= 2 where that is undefined."""
    if m <= 2:
        return 2.0
    denom = math.log2(math.log2(m))
    if denom <= 0:
        return 2.0
    return max(2.0, math.log2(m) / denom)


def partition_machines(platform: Platform, gamma: float | None = None) -> MachineGroups:
    """Discard sub-1/m-speed machines and band the rest geometrically.

    ``gamma`` overrides the default band ratio; it must exceed 1.
    """
    m = platform.m
    speeds = {mc.id: mc.speed for mc in platform.machines}
    s_max = max(speeds.values())
    threshold = s_max / m
    retained = tuple(i for i in sorted(speeds) if speeds[i] >= threshold - 1e-15)

    g = default_gamma(m) if gamma is None else float(gamma)
    if g <= 1.0:
        raise GroupingError(f"gamma must exceed 1, got {g}")
    K = max(1, math.ceil(math.log(m, g) - 1e-12)) if m > 1 else 1

    nu = m / s_max
    rescaled = {i: speeds[i] * nu for i in retained}
    group_of: dict[int, int] = {}
    for i in retained:
        k = int(math.floor(math.log(rescaled[i], g) + 1e-9)) + 1
        group_of[i] = min(max(k, 1), K)

    members: dict[int, tuple[int, ...]] = {}
    speed_orig: dict[int, float] = {}
    speed_resc: dict[int, float] = {}
    for k in range(1, K + 1):
        ids = tuple(i for i in retained if group_of[i] == k)
        members[k] = ids
        speed_orig[k] = sum(speeds[i] for i in ids)
        speed_resc[k] = sum(rescaled[i] for i in ids)

    return MachineGroups(
        gamma=g, K=K, retained=retained, normalization=nu, group_of=group_of,
        rescaled_speed=rescaled, group_speed_rescaled=speed_resc,
        group_speed=speed_orig, members=members,
    )


# ---------------------------------------------------------------------------
# Makespan relaxation
# ---------------------------------------------------------------------------

@dataclass
class MakespanFractional:
    x: dict[tuple[int, int], float]    # (machine id, task id) -> fraction
    C: dict[int, float]
    T: float

    def group_mass(self, groups: MachineGroups, task: int) -> dict[int, float]:
        out = {k: 0.0 for k in range(1, groups.K + 1)}
        for i in groups.retained:
            out[groups.group_of[i]] += self.x.get((i, task), 0.0)
        return out


def build_makespan_lp(inst: Instance, groups: MachineGroups) -> LinearProgram:
    """Fractional-assignment program whose optimum T* lower-bounds the
    zero-communication optimal makespan over the retained machines."""
    n = inst.graph.n
    machines = groups.retained
    nm = len(machines)
    speed = {i: inst.platform.speed(i) for i in machines}

    def xi(mi: int, j: int) -> int:
        return mi * n + j

    c_off = nm * n
    t_idx = c_off + n
    nv = t_idx + 1

    names = [f"x_{machines[mi]}_{j}" for mi in range(nm) for j in range(n)]
    names += [f"C_{j}" for j in range(n)] + ["T"]
    lp = LinearProgram(nv, np.zeros(nv), names=names)
    lp.objective[t_idx] = 1.0

    demand = [t.demand for t in inst.graph.tasks]
    for j in range(n):
        row = np.zeros(nv)
        for mi in range(nm):
            row[xi(mi, j)] = 1.0
        lp.add(row, EQUAL, 1.0)                       # every task fully assigned

    for j in range(n):
        row = np.zeros(nv)
        for mi, i in enumerate(machines):
            row[xi(mi, j)] = demand[j] / speed[i]
        row[c_off + j] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # processing time <= C_j

    for e in inst.graph.edges:
        row = np.zeros(nv)
        row[c_off + e.src] = 1.0
        for mi, i in enumerate(machines):
            row[xi(mi, e.dst)] = demand[e.dst] / speed[i]
        row[c_off + e.dst] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # C_src + proc(dst) <= C_dst

    for mi, i in enumerate(machines):
        row = np.zeros(nv)
        for j in range(n):
            row[xi(mi, j)] = demand[j] / speed[i]
        row[t_idx] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # machine load <= T

    for j in range(n):
        row = np.zeros(nv)
        row[c_off + j] = 1.0
        row[t_idx] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # C_j <= T
    return lp


def extract_makespan_fractional(
    inst: Instance, groups: MachineGroups, sol: LpSolution
) -> MakespanFractional:
    if not sol.is_optimal:
        raise GroupingError(f"makespan relaxation not optimal: {sol.status}")
    n = inst.graph.n
    machines = groups.retained
    nm = len(machines)
    x = {
        (machines[mi], j): float(sol.x[mi * n + j])
        for mi in range(nm)
        for j in range(n)
    }
    C = {j: float(sol.x[nm * n + j]) for j in range(n)}
    T = float(sol.x[nm * n + n])
    for j in range(n):
        total = sum(x[(i, j)] for i in machines)
        if abs(total - 1.0) > MASS_TOL:
            raise GroupingError(f"fractional mass of task {j} is {total}, expected 1")
    return MakespanFractional(x, C, T)


def solve_makespan_relaxation(
    inst: Instance, groups: MachineGroups
) -> MakespanFractional:
    return extract_makespan_fractional(inst, groups, solve_lp(build_makespan_lp(inst, groups)))


def _assign_from_mass(
    mass_of: dict[int, dict[int, float]], groups: MachineGroups, theta: float
) -> GroupAssignment:
    if not 0.0 < theta < 1.0:
        raise GroupingError(f"theta must lie in (0,1), got {theta}")
    chosen: dict[int, int] = {}
    for j in sorted(mass_of):
        mass = mass_of[j]
        tail = 0.0
        lj = 0
        for ell in range(groups.K, 0, -1):
            tail += mass.get(ell, 0.0)
            if tail >= theta - 1e-9:
                lj = ell
                break
        if lj == 0:
            raise GroupingError(
                f"no band index satisfies the tail-mass condition for task {j} "
                f"(total mass {tail:.9f} < theta {theta})"
            )
        # Fastest total speed wins; ties go to the higher band.
        chosen[j] = max(
            range(lj, groups.K + 1),
            key=lambda k: (groups.group_speed_rescaled.get(k, 0.0), k),
        )
    return GroupAssignment(chosen, groups)


def assign_groups_makespan(
    sol: MakespanFractional, groups: MachineGroups, theta: float = 0.5
) -> GroupAssignment:
    tasks = sorted({j for (_, j) in sol.x})
    mass_of = {j: sol.group_mass(groups, j) for j in tasks}
    return _assign_from_mass(mass_of, groups, theta)


# ---------------------------------------------------------------------------
# Weighted-completion relaxation (time-indexed)
# ---------------------------------------------------------------------------

@dataclass
class WeightedFractional:
    Q: int
    tau: tuple[float, ...]                       # tau[q] = 2**q, q = 0..Q
    x: dict[tuple[int, int, int], float]         # (machine, task, interval 1..Q)
    C: dict[int, float]
    q_of: dict[int, int] = field(default_factory=dict)
    alpha: dict[int, float] = field(default_factory=dict)
    x_tilde: dict[tuple[int, int], float] = field(default_factory=dict)

    def objective(self, weights: dict[int, float]) -> float:
        return sum(weights[j] * cj for j, cj in self.C.items())

    def tilde_group_mass(self, groups: MachineGroups, task: int) -> dict[int, float]:
        out = {k: 0.0 for k in range(1, groups.K + 1)}
        for i in groups.retained:
            out[groups.group_of[i]] += self.x_tilde.get((i, task), 0.0)
        return out


def horizon_intervals(inst: Instance, groups: MachineGroups) -> int:
    """Number of geometric deadline intervals covering the serial horizon."""
    total = sum(t.demand for t in inst.graph.tasks)
    slowest = min(inst.platform.speed(i) for i in groups.retained)
    return max(1, math.ceil(math.log2(total / slowest) - 1e-12))


def build_weighted_lp(inst: Instance, groups: MachineGroups) -> LinearProgram:
    """Time-indexed relaxation for total weighted completion time.

    Requires a normalized instance (every processing time >= 1) so the first
    interval [1,2] can hold the earliest completions.
    """
    n = inst.graph.n
    machines = groups.retained
    nm = len(machines)
    speed = {i: inst.platform.speed(i) for i in machines}
    demand = [t.demand for t in inst.graph.tasks]
    min_proc = min(d / max(speed.values()) for d in demand)
    if min_proc < 1.0 - 1e-9:
        raise GroupingError(
            f"instance not normalized: smallest processing time {min_proc} < 1"
        )

    Q = horizon_intervals(inst, groups)
    tau = [2.0 ** q for q in range(Q + 1)]

    def xi(mi: int, j: int, q: int) -> int:   # q in 1..Q
        return (mi * n + j) * Q + (q - 1)

    c_off = nm * n * Q
    nv = c_off + n
    lp = LinearProgram(nv, np.zeros(nv))
    for j, t in enumerate(inst.graph.tasks):
        lp.objective[c_off + j] = t.weight

    for j in range(n):
        row = np.zeros(nv)
        for mi in range(nm):
            for q in range(1, Q + 1):
                row[xi(mi, j, q)] = 1.0
        lp.add(row, EQUAL, 1.0)                       # all mass placed

    for j in range(n):
        row = np.zeros(nv)
        for mi, i in enumerate(machines):
            for q in range(1, Q + 1):
                row[xi(mi, j, q)] = demand[j] / speed[i]
        row[c_off + j] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # processing <= C_j

    for e in inst.graph.edges:
        row = np.zeros(nv)
        row[c_off + e.src] += 1.0
        for mi, i in enumerate(machines):
            for q in range(1, Q + 1):
                row[xi(mi, e.dst, q)] = demand[e.dst] / speed[i]
        row[c_off + e.dst] += -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # chain growth

    for e in inst.graph.edges:
        for q in range(1, Q + 1):
            row = np.zeros(nv)
            for mi in range(nm):
                for t in range(1, q + 1):
                    row[xi(mi, e.dst, t)] += 1.0
                    row[xi(mi, e.src, t)] += -1.0
            lp.add(row, LESS_EQUAL, 0.0)              # successor mass lags predecessor

    for j in range(n):
        row = np.zeros(nv)
        for mi in range(nm):
            for q in range(1, Q + 1):
                row[xi(mi, j, q)] = tau[q - 1]
        row[c_off + j] = -1.0
        lp.add(row, LESS_EQUAL, 0.0)                  # left interval edge <= C_j

    for mi, i in enumerate(machines):
        for q in range(1, Q + 1):
            row = np.zeros(nv)
            for j in range(n):
                for t in range(1, q + 1):
                    row[xi(mi, j, t)] = demand[j] / speed[i]
            lp.add(row, LESS_EQUAL, tau[q])           # prefix load fits the interval
    return lp


def extract_weighted_fractional(
    inst: Instance, groups: MachineGroups, sol: LpSolution
) -> WeightedFractional:
    if not sol.is_optimal:
        raise GroupingError(f"weighted relaxation not optimal: {sol.status}")
    n = inst.graph.n
    machines = groups.retained
    nm = len(machines)
    Q = horizon_intervals(inst, groups)
    x: dict[tuple[int, int, int], float] = {}
    for mi, i in enumerate(machines):
        for j in range(n):
            for q in range(1, Q + 1):
                x[(i, j, q)] = float(sol.x[(mi * n + j) * Q + (q - 1)])
    C = {j: float(sol.x[nm * n * Q + j]) for j in range(n)}
    for j in range(n):
        total = sum(x[(i, j, q)] for i in machines for q in range(1, Q + 1))
        if abs(total - 1.0) > MASS_TOL:
            raise GroupingError(f"fractional mass of task {j} is {total}, expected 1")
    return WeightedFractional(Q, tuple(2.0 ** q for q in range(Q + 1)), x, C)


def collapse_time_indexed(
    sol: WeightedFractional, machines: tuple[int, ...]
) -> WeightedFractional:
    """Fill q_of, alpha and the collapsed fractions x_tilde.

    q_of[j] is the smallest interval q with both at-least-half cumulative mass
    and C[j] <= 2^q; it is clamped to Q (with a warning) if C[j] overruns the
    horizon.  x_tilde renormalizes the first q_of[j] intervals' mass.
    """
    tasks = sorted(sol.C)
    q_of: dict[int, int] = {}
    alpha: dict[int, float] = {}
    x_tilde: dict[tuple[int, int], float] = {}
    for j in tasks:
        cum = 0.0
        chosen = 0
        for q in range(1, sol.Q + 1):
            cum += sum(sol.x.get((i, j, q), 0.0) for i in machines)
            if cum >= 0.5 - MASS_TOL and sol.C[j] <= sol.tau[q] + MASS_TOL:
                chosen = q
                break
        if chosen == 0:
            chosen = sol.Q
            log.warning(
                "interval estimate for task %d clamped to Q=%d (C*=%g > %g)",
                j, sol.Q, sol.C[j], sol.tau[sol.Q],
            )
        a = sum(
            sol.x.get((i, j, t), 0.0) for i in machines for t in range(1, chosen + 1)
        )
        if a < 1e-9:
            raise GroupingError(f"cannot collapse task {j}: captured mass {a} too small")
        q_of[j] = chosen
        alpha[j] = a
        for i in machines:
            x_tilde[(i, j)] = (
                sum(sol.x.get((i, j, t), 0.0) for t in range(1, chosen + 1)) / a
            )
    return WeightedFractional(sol.Q, sol.tau, sol.x, sol.C, q_of, alpha, x_tilde)


def solve_weighted_relaxation(
    inst: Instance, groups: MachineGroups
) -> WeightedFractional:
    raw = extract_weighted_fractional(inst, groups, solve_lp(build_weighted_lp(inst, groups)))
    return collapse_time_indexed(raw, groups.retained)


def assign_groups_weighted(
    sol: WeightedFractional, groups: MachineGroups, theta: float = 0.5
) -> GroupAssignment:
    if not sol.x_tilde:
        raise GroupingError("collapse_time_indexed must run before group assignment")
    tasks = sorted(sol.C)
    mass_of = {j: sol.tilde_group_mass(groups, j) for j in tasks}
    return _assign_from_mass(mass_of, groups, theta)


def weighted_slice_feasibility(
    inst: Instance, groups: MachineGroups, sol: WeightedFractional
) -> dict[int, float]:
    """Max violation, per interval q, of the substituted makespan-LP point.

    For each interval slice {j: q_of[j] == q}, the point (x_tilde restricted
    to the slice, C~ = 2C*, T~ = 2^(q+1)) must satisfy every constraint of
    the makespan relaxation built over the slice's tasks.  Returns the worst
    residual per nonempty slice (<= 0 means satisfied exactly).
    """
    if not sol.x_tilde:
        raise GroupingError("collapse_time_indexed must run first")
    machines = groups.retained
    speed = {i: inst.platform.speed(i) for i in machines}
    demand = {t.id: t.demand for t in inst.graph.tasks}
    out: dict[int, float] = {}
    for q in range(1, sol.Q + 1):
        slice_tasks = [j for j in sorted(sol.C) if sol.q_of.get(j) == q]
        if not slice_tasks:
            continue
        t_tilde = 2.0 ** (q + 1)
        worst = -math.inf
        for j in slice_tasks:
            total = sum(sol.x_tilde[(i, j)] for i in machines)
            worst = max(worst, abs(total - 1.0))                       # (assignment)
            proc = demand[j] * sum(sol.x_tilde[(i, j)] / speed[i] for i in machines)
            worst = max(worst, proc - 2.0 * sol.C[j])                  # (capacity)
            worst = max(worst, 2.0 * sol.C[j] - t_tilde)               # (horizon)
        in_slice = set(slice_tasks)
        for e in inst.graph.edges:
            if e.src in in_slice and e.dst in in_slice:
                proc = demand[e.dst] * sum(
                    sol.x_tilde[(i, e.dst)] / speed[i] for i in machines
                )
                worst = max(worst, 2.0 * sol.C[e.src] + proc - 2.0 * sol.C[e.dst])
        for i in machines:
            load = sum(demand[j] * sol.x_tilde[(i, j)] / speed[i] for j in slice_tasks)
            worst = max(worst, load - t_tilde)                         # (machine load)
        out[q] = worst
    return out
