"""Exact optima and analytic lower bounds for tiny instances.

The brute-force search enumerates every machine assignment and every
topological order, placing tasks greedily at their earliest feasible start
for the fixed (assignment, order) pair.  With a fixed assignment and fixed
per-machine sequencing, delaying any start can never help, so componentwise
minimal starts are optimal and the enumeration is exact; the optimum is
rebuilt through ``earliest_start``.  Intended strictly for acceptance-test
ground truth: instances beyond MAX_TASKS tasks or MAX_MACHINES machines are
refused, which caps the search at 3^7 assignments x 7! orders, about 1.1e7
states.
"""

from __future__ import annotations

import math

from .model import Instance, Machine, Platform, topological_order
from .scheduler import Schedule, earliest_start

MAKESPAN = "makespan"
WEIGHTED = "weighted"


class OracleLimitError(RuntimeError):
    pass


MAX_TASKS = 7
MAX_MACHINES = 3


def restrict_platform(inst: Instance, machine_ids: tuple[int, ...]) -> tuple[Instance, dict[int, int]]:
    """Sub-instance over a machine subset; returns it plus new->old id map."""
    ordered = sorted(machine_ids)
    machines = tuple(
        Machine(new_id, inst.platform.speed(old)) for new_id, old in enumerate(ordered)
    )
    comm = tuple(
        tuple(inst.platform.sigma(a, b) for b in ordered) for a in ordered
    )
    return Instance(inst.graph, Platform(machines, comm)), dict(enumerate(ordered))


def brute_force_schedule(
    inst: Instance,
    ignore_comm: bool = False,
    objective: str = MAKESPAN,
) -> tuple[float, Schedule]:
    """Exact optimum over (machine assignment) x (topological order) pairs.

    ``ignore_comm`` searches over a platform whose communication speeds are
    all ``math.inf`` (zero delay), yielding the zero-communication optimum
    the approximation bounds compare against.  Deterministic: returns the
    first optimal schedule in enumeration order.
    """
    n = inst.graph.n
    m = inst.platform.m
    if n > MAX_TASKS or m > MAX_MACHINES:
        raise OracleLimitError(
            f"instance ({n} tasks, {m} machines) exceeds oracle limits "
            f"({MAX_TASKS}, {MAX_MACHINES})"
        )
    if objective not in (MAKESPAN, WEIGHTED):
        raise ValueError(f"unknown objective {objective!r}")

    if ignore_comm:
        free = ((math.inf,) * m,) * m
        inst = Instance(inst.graph, Platform(inst.platform.machines, free))
    g = inst.graph
    preds, pred_data, succs = g.predecessors(), g.predecessor_data(), g.successors()
    demand, weight, comm = g.demand, g.weight, inst.platform.comm_speed
    speed = [inst.platform.speed(i) for i in range(m)]

    best_value = math.inf
    best_assign: list[int] | None = None
    best_order: list[int] | None = None

    assign = [0] * n
    indeg0 = [len(p) for p in preds]

    def place_rest(order: list[int], indeg: list[int], avail: list[float],
                   finish: dict[int, float], partial: float) -> None:
        """DFS over topological completions with branch-and-bound pruning."""
        nonlocal best_value, best_assign, best_order
        if partial >= best_value - 1e-15:
            return
        if len(order) == n:
            if partial < best_value - 1e-15:
                best_value = partial
                best_assign = assign.copy()
                best_order = order.copy()
            return
        for v in range(n):
            if indeg[v] != 0:
                continue
            i = assign[v]
            start = avail[i]
            for p, data in zip(preds[v], pred_data[v]):
                arrival = finish[p] + data / comm[assign[p]][i]  # data/inf == 0.0
                if arrival > start:
                    start = arrival
            end = start + demand[v] / speed[i]
            if objective == MAKESPAN:
                new_partial = max(partial, end)
            else:
                new_partial = partial + weight[v] * end
            saved_avail = avail[i]
            avail[i] = end
            finish[v] = end
            indeg[v] = -1
            for w in succs[v]:
                indeg[w] -= 1
            order.append(v)
            place_rest(order, indeg, avail, finish, new_partial)
            order.pop()
            for w in succs[v]:
                indeg[w] += 1
            indeg[v] = 0
            del finish[v]
            avail[i] = saved_avail

    def enumerate_assignments(j: int) -> None:
        if j == n:
            place_rest([], indeg0.copy(), [0.0] * m, {}, 0.0)
            return
        for i in range(m):
            assign[j] = i
            enumerate_assignments(j + 1)

    enumerate_assignments(0)

    if best_assign is None:
        raise OracleLimitError("search finished without a schedule")
    sched = Schedule()
    for v in best_order:
        i = best_assign[v]
        sched.place(v, i, earliest_start(v, i, sched, inst), demand[v] / speed[i])
    return best_value, sched


def lower_bounds(inst: Instance) -> tuple[float, float]:
    """(work bound, chain bound), both valid lower bounds on the
    zero-communication optimal makespan.

    work bound: total demand over total speed; chain bound: the largest
    total demand along any path, run at the fastest speed.
    """
    total_speed = sum(mc.speed for mc in inst.platform.machines)
    s_max = max(mc.speed for mc in inst.platform.machines)
    work = sum(inst.graph.demand) / total_speed

    demand = inst.graph.demand
    heaviest = dict(enumerate(demand))
    preds = inst.graph.predecessors()
    for j in topological_order(inst.graph):
        if preds[j]:
            heaviest[j] = demand[j] + max(heaviest[p] for p in preds[j])
    chain = max(heaviest.values(), default=0.0) / s_max
    return work, chain
