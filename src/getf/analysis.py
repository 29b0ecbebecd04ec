"""Terminal chains and machine-checked schedule bounds.

A terminal chain walks backwards from a latest-finishing task through
latest-finishing immediate predecessors until it reaches a task with no
predecessor; it is a tuple of task ids, root first.  Every report here
decomposes schedule quantities along such chains:

  * ``separation_report``: makespan <= P + sum_k D_k + C, where P is the
    chain's processing time, D_k the total demand mapped to band k divided
    by the band's speed, and C the chain's worst-case communication time;
    plus a replay of the per-link idle bound.
  * ``makespan_theorem_report``: P <= 2*gamma*T*, sum D_k <= 2*K*T*, and the
    combined makespan <= 2*(gamma+K)*T* + C, against the fractional optimum.
  * ``identical_report``: the identical-machines decomposition
    makespan <= avg load + ((m-1)/m) * chain processing + C', optionally
    compared against a zero-communication exact optimum.
  * ``weighted_theorem_report``: per-task chain/load bounds against the
    time-indexed fractional optima, the aggregate weighted-completion
    inequality, interval-estimate consistency, and the per-interval
    feasibility substitution.

Each report call reads its chains from one table of the cheapest chain
ending at each task j: cost(j) = node_cost(j) + min over latest-finishing
predecessors j' of (link_cost(j', j) + cost(j')).  No entry depends on the
anchor, so each is computed at most once, and only when an anchor's chain
needs it.  The table walks each task's predecessor list and the edge data
aligned with it, both built once per graph; every link cost takes the data
its caller holds, and only ``_links`` finds an edge's data by its
endpoints, for the links of a finished chain.  A link's worst-case
transfer, summed along a chain into the term C of the separation bound,
divides its data by the entry for its source machine in the platform's
``slowest_into`` table of the successor's band.  Every D_k, over all tasks
or a prefix, is ``_band_loads``: band demand over band speed, 0 if empty.
The idle replay reads the machines' timelines from ``Schedule.timelines``
once per report, in placement order, so each busy-time sum adds its terms
in that order.

Reports never raise on a violated inequality; they carry pass flags so a
violation is a loud, inspectable result.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

from .grouping import GroupAssignment, MachineGroups, WeightedFractional, weighted_slice_feasibility
from .model import Instance, TaskGraph, serial_sum
from .scheduler import Schedule

log = logging.getLogger(__name__)

FINISH_TIE_TOL = 1e-9
REL_SLACK_TOL = 1e-6


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class Inequality:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -REL_SLACK_TOL * max(1.0, abs(self.rhs))


@dataclass
class BoundReport:
    kind: str
    objective: float
    context: dict[str, object] = field(default_factory=dict)
    inequalities: list[Inequality] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(iq.passed for iq in self.inequalities)

    def add(self, name: str, lhs: float, rhs: float) -> Inequality:
        iq = Inequality(name, lhs, rhs)
        self.inequalities.append(iq)
        return iq

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "objective": self.objective,
            "passed": self.passed,
            "context": dict(self.context),
            "inequalities": [
                {"name": iq.name, "lhs": iq.lhs, "rhs": iq.rhs,
                 "slack": iq.slack, "pass": iq.passed}
                for iq in self.inequalities
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------

def latest_finishing(candidates: list[int], finish: dict[int, float]) -> list[int]:
    top = max(map(finish.__getitem__, candidates))
    return sorted([j for j in candidates if finish[j] >= top - FINISH_TIE_TOL])


def _links(chain: tuple[int, ...], g: TaskGraph) -> list[tuple[int, int, float]]:
    """The links (a, b, data) of a finished chain; a appears once in b's
    predecessor list, as parallel edges are refused."""
    preds, data = g.predecessors(), g.predecessor_data()
    return [(a, b, data[b][preds[b].index(a)]) for a, b in zip(chain, chain[1:])]


def _link_comm(inst: Instance, f: GroupAssignment, s: Schedule):
    """A function (src, dst, data) -> worst-case transfer time of the edge
    (src, dst) carrying ``data``: the data over the slowest communication
    speed from src's machine into dst's machine group, read from the
    platform's ``slowest_into`` table, which is looked up once per band."""
    slowest_into, members = inst.platform.slowest_into, f.groups.members
    assignment, band = s.assignment, f.group_of_task
    tables: dict[int, list[float]] = {}

    def link(src: int, dst: int, data: float) -> float:
        k = band[dst]
        into = tables.get(k)
        if into is None:
            into = tables[k] = slowest_into(members[k])
        return data / into[assignment[src]]
    return link


def chain_comm_time(chain: tuple[int, ...], s: Schedule, f: GroupAssignment,
                    inst: Instance) -> float:
    link = _link_comm(inst, f, s)
    return serial_sum(link(a, b, data) for a, b, data in _links(chain, inst.graph))


class _ChainTable:
    """The chain table of the module docstring, filled on the first query
    that needs each entry.  It prices the link from p to v as
    ``link_cost(p, v, data)``, with the data read aligned with v's
    predecessor list.  Value ties (within 1e-15) go to the lowest id."""

    def __init__(self, s: Schedule, g: TaskGraph, link_cost, node_cost=lambda j: 0.0):
        self._finish, self._preds, self._data = s.finish, g.predecessors(), g.predecessor_data()
        self._link_cost, self._node_cost = link_cost, node_cost
        self._cost: dict[int, float] = {}
        self._back: dict[int, int | None] = {}

    def fill(self, order: list[int]) -> dict[int, float]:
        """The entries of ``order``, filled in one forward pass over it.  An
        entry whose candidates are not all filled yet is put back behind
        them, so any order gives the same values."""
        cost, back, preds_of, finish = self._cost, self._back, self._preds, self._finish
        data_of, link_cost, node_cost = self._data, self._link_cost, self._node_cost
        stack = order[::-1]
        while stack:
            v = stack.pop()
            if v in cost:
                continue
            preds, cands = preds_of[v], ()
            if preds:  # the latest-finishing predecessors with their data, ascending ids
                top = max(map(finish.__getitem__, preds)) - FINISH_TIE_TOL
                cands = [(p, d) for p, d in zip(preds, data_of[v]) if finish[p] >= top]
                cands.sort()
            best_p, best_val = None, 0.0
            for p, data in cands:  # ascending ids, so a value tie keeps the lowest
                c = cost.get(p)
                if c is None:  # v again, after its missing candidates
                    stack += [v, *(q for q, _ in cands if q not in cost)]
                    break
                val = c + link_cost(p, v, data)
                if best_p is None or val < best_val - 1e-15:
                    best_p, best_val = p, val
            else:
                cost[v] = node_cost(v) + best_val
                back[v] = best_p
        return {j: cost[j] for j in order}

    def cost(self, j: int) -> float:
        return self.fill([j])[j]

    def chain(self, j: int) -> tuple[int, ...]:
        self.cost(j)
        tasks = [j]
        while self._back[tasks[-1]] is not None:
            tasks.append(self._back[tasks[-1]])
        return tuple(reversed(tasks))

    def cheapest(self, anchors: list[int]) -> tuple[tuple[int, ...], float]:
        """The cheapest chain over ``anchors``; value ties go to the lowest id."""
        best, best_val = None, 0.0
        for a in sorted(anchors):
            val = self.cost(a)
            if best is None or val < best_val - 1e-15:
                best, best_val = a, val
        return self.chain(best), best_val


def min_comm_terminal_chain(s: Schedule, inst: Instance,
                            f: GroupAssignment) -> tuple[tuple[int, ...], float]:
    """The terminal chain minimizing total communication time, and that time."""
    anchors = latest_finishing(sorted(s.assignment), s.finish)
    return _ChainTable(s, inst.graph, _link_comm(inst, f, s)).cheapest(anchors)


# ---------------------------------------------------------------------------
# Separation decomposition
# ---------------------------------------------------------------------------

def chain_processing_time(chain: tuple[int, ...], s: Schedule, inst: Instance) -> float:
    demand, speed = inst.graph.demand, inst.platform.speed
    return serial_sum(demand[j] / speed[s.assignment[j]] for j in chain)


def _band_loads(totals: dict[int, float], groups: MachineGroups) -> dict[int, float]:
    """D_k for each band k of ``totals``: its demand over its original speed, 0 if empty."""
    return {k: t / groups.group_speed[k] if t > 0 else 0.0 for k, t in totals.items()}


def group_loads(inst: Instance, f: GroupAssignment, groups: MachineGroups) -> dict[int, float]:
    """D_k over every task."""
    totals: dict[int, float] = {k: 0.0 for k in range(1, groups.K + 1)}
    for j, d in enumerate(inst.graph.demand):
        totals[f.group_of_task[j]] += d
    return _band_loads(totals, groups)


def machine_idle_in_window(timeline: list[tuple[float, float, int]], lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    busy = 0.0
    for a, b, _ in timeline:
        if b > lo and a < hi:  # a skipped interval would add exactly +0.0
            busy += max(0.0, min(b, hi) - max(a, lo))
    return (hi - lo) - busy


def idle_bound_replay(chain: tuple[int, ...], s: Schedule, inst: Instance,
                      f: GroupAssignment, report: BoundReport) -> None:
    """Assert, per chain link and per machine of the successor's group, that
    idle time inside the link window is covered by the link's transfer time."""
    comm, timelines = inst.platform.comm_speed, s.timelines()
    for a, b, data in _links(chain, inst.graph):
        window_lo, window_hi = s.finish[a], s.start[b]
        sigma = comm[s.assignment[a]]
        for i in f.machines_for(b):
            idle = machine_idle_in_window(timelines.get(i, ()), window_lo, window_hi)
            report.add(f"idle[{a}->{b}]@m{i}", idle, data / sigma[i])


def _chain_terms(s: Schedule, inst: Instance, f: GroupAssignment,
                 groups: MachineGroups) -> tuple[tuple[int, ...], dict, dict[int, float]]:
    """The min-comm chain, the context terms P, C, sum_D, gamma and K that
    both makespan reports start with, and the band loads D_k."""
    chain, comm = min_comm_terminal_chain(s, inst, f)
    loads = group_loads(inst, f, groups)
    terms = {"P": chain_processing_time(chain, s, inst), "C": comm,
             "sum_D": serial_sum(loads.values()), "gamma": groups.gamma, "K": float(groups.K)}
    return chain, terms, loads


def separation_report(s: Schedule, inst: Instance, f: GroupAssignment,
                      groups: MachineGroups) -> BoundReport:
    """makespan <= P + sum_k D_k + C over the cheapest terminal chain,
    plus the per-link idle replay."""
    chain, terms, loads = _chain_terms(s, inst, f, groups)
    report = BoundReport(
        kind="separation",
        objective=s.makespan(),
        context={**terms, **{f"D_{k}": v for k, v in sorted(loads.items())},
                 "chain": list(chain)},
    )
    report.add("makespan<=P+sumD+C", s.makespan(),
               terms["P"] + terms["sum_D"] + terms["C"])
    idle_bound_replay(chain, s, inst, f, report)
    return report


def makespan_theorem_report(s: Schedule, inst: Instance, f: GroupAssignment,
                            groups: MachineGroups, tstar: float) -> BoundReport:
    """Chain and load bounds against the fractional makespan optimum T*."""
    chain, terms, _ = _chain_terms(s, inst, f, groups)
    g, K = groups.gamma, groups.K
    report = BoundReport(
        kind="makespan_theorem",
        objective=s.makespan(),
        context={**terms, "T*": tstar, "chain": list(chain)},
    )
    report.add("P<=2*gamma*T*", terms["P"], 2.0 * g * tstar)
    report.add("sumD<=2*K*T*", terms["sum_D"], 2.0 * K * tstar)
    report.add("makespan<=2*(gamma+K)*T*+C", s.makespan(),
               2.0 * (g + K) * tstar + terms["C"])
    return report


# ---------------------------------------------------------------------------
# Identical machines
# ---------------------------------------------------------------------------

def identical_report(s: Schedule, inst: Instance,
                     opt_ignore_comm: float | None = None) -> BoundReport:
    """Decomposition bound for identical-speed machines under ETF.

    Uses the terminal chain minimizing ((m-1)/m) * chain processing + C',
    where a link's C' contribution averages its transfer time over all
    machines.  If ``opt_ignore_comm`` (an exact zero-communication optimum)
    is supplied, also checks makespan <= (2 - 1/m) * opt + C'.
    """
    speeds = set(inst.platform.speed)
    if len(speeds) != 1:
        raise AnalysisError("identical_report requires identical machine speeds")
    speed = speeds.pop()
    m, comm = inst.platform.m, inst.platform.comm_speed

    def link_cost(a: int, b: int, data: float) -> float:
        return serial_sum(data / sigma for sigma in comm[s.assignment[a]]) / m

    def node_cost(j: int) -> float:
        return (m - 1) / m * inst.graph.demand[j] / speed

    table = _ChainTable(s, inst.graph, link_cost, node_cost)
    chain, _ = table.cheapest(latest_finishing(sorted(s.assignment), s.finish))
    c_prime = serial_sum(link_cost(a, b, data) for a, b, data in _links(chain, inst.graph))
    chain_proc = chain_processing_time(chain, s, inst)
    avg_load = serial_sum(inst.graph.demand) / (m * speed)

    report = BoundReport(
        kind="identical",
        objective=s.makespan(),
        context={"C'": c_prime, "chain_P": chain_proc, "avg_load": avg_load,
                 "m": float(m), "chain": list(chain)},
    )
    report.add(
        "makespan<=avg_load+((m-1)/m)*chainP+C'",
        s.makespan(),
        avg_load + (m - 1) / m * chain_proc + c_prime,
    )
    if opt_ignore_comm is not None:
        report.context["OPT_ignore_comm"] = opt_ignore_comm
        report.add(
            "makespan<=(2-1/m)*OPT+C'",
            s.makespan(),
            (2.0 - 1.0 / m) * opt_ignore_comm + c_prime,
        )
    return report


# ---------------------------------------------------------------------------
# Weighted completion time
# ---------------------------------------------------------------------------

def per_task_chain_comm(s: Schedule, inst: Instance,
                        f: GroupAssignment) -> dict[int, float]:
    """C(S, j): cheapest terminal-chain communication time anchored at j in
    the prefix of the schedule up to j's iteration.

    Chains anchored at j only visit ancestors of j, which are always inside
    the prefix, so the values coincide with anchored chains over the full
    schedule.  Logs (debug) whenever j is not the latest finisher of its
    prefix.
    """
    out = _ChainTable(s, inst.graph, _link_comm(inst, f, s)).fill(s.iteration_order)
    if log.isEnabledFor(logging.DEBUG):
        running_max = -math.inf
        for j in s.iteration_order:
            if s.finish[j] < running_max - FINISH_TIE_TOL:
                log.debug("task %d is not the latest finisher of its prefix "
                          "(finish %.9g < %.9g)", j, s.finish[j], running_max)
            running_max = max(running_max, s.finish[j])
    return out


def weighted_theorem_report(s: Schedule, inst: Instance, f: GroupAssignment,
                            groups: MachineGroups,
                            wsol: WeightedFractional) -> BoundReport:
    """Per-task and aggregate weighted-completion bounds against the
    time-indexed fractional optimum.

    Checks, per task j over its schedule prefix: chain processing plus band
    loads <= 32*(gamma+K)*C*_j, and 2^(q(j)-1) <= 2*C*_j; in aggregate:
    sum_j w_j C_j <= 32*(gamma+K) * sum_j w_j C*_j + sum_j w_j C(S,j); and
    the per-interval feasibility substitution of the collapsed fractions.
    """
    c_star, q_of = wsol.C.tolist(), wsol.q_of.tolist()
    g, K = groups.gamma, groups.K
    factor = 32.0 * (g + K)
    weights = inst.graph.weight

    report = BoundReport(
        kind="weighted_theorem",
        objective=s.weighted_completion(inst),
        context={"gamma": g, "K": float(K), "factor": factor,
                 "lp_objective": wsol.objective(weights)},
    )

    table = _ChainTable(s, inst.graph, _link_comm(inst, f, s))
    prefix_load: dict[int, float] = {k: 0.0 for k in range(1, K + 1)}
    for j in s.iteration_order:
        prefix_load[f.group_of_task[j]] += inst.graph.demand[j]
        proc_j = chain_processing_time(table.chain(j), s, inst)
        loads_j = serial_sum(_band_loads(prefix_load, groups).values())
        report.add(f"P+sumD(task {j})<=32*(gamma+K)*C*", proc_j + loads_j,
                   factor * c_star[j])
        report.add(f"2^(q-1)(task {j})<=2*C*", 2.0 ** (q_of[j] - 1), 2.0 * c_star[j])

    lhs = s.weighted_completion(inst)
    rhs = factor * wsol.objective(weights) + serial_sum(
        weights[j] * table.cost(j) for j in s.iteration_order
    )
    report.add("sum wC<=32*(gamma+K)*sum wC*+sum wC(S,j)", lhs, rhs)

    for q, violation in sorted(weighted_slice_feasibility(inst, groups, wsol).items()):
        report.add(f"interval {q} substitution feasible", violation, 0.0)
    return report
