"""Greedy schedulers for task DAGs on related machines with comm delays.

Three schedulers:

  * ``getf_schedule``: at every iteration, among tasks whose predecessors
    are all scheduled, pick one achieving the smallest earliest start over
    the machines of its assigned group (task ties broken by rule, machine
    ties by fastest speed then lowest id), and append it there.
  * ``etf_schedule``: the same with the single all-machines group.
  * ``sls_schedule``: a fixed-priority list scheduler that walks a given
    topological order instead of globally minimizing start times (machine
    ties go to the lowest id).

Machines are append-only: a task starts no earlier than the end of the last
interval already placed on its machine, and gaps are never back-filled.
A task's machine is the result of one sequential scan over its group's
starts, which compares starts within ``START_TIE_TOL``.

GETF's placement engine computes a task's starts by one ``earliest_start``
call over its group when the task becomes ready.  Its predecessors'
arrivals are then fixed and machine availability only grows, so a later
placement on machine ``i`` can only raise the start on ``i`` to the new
availability.  A ready task is *machine-bound* once every start in its
group equals that machine's availability: all its data has arrived, and it
stays so.  Machine-bound tasks of one band share the band's availability
vector, hence one scan result, and wait in a per-band list sorted by tie
rank.  The other, *data-bound*, tasks keep their starts, a count of starts
still above availability (at 0 the task joins its band's list) and their
cached scan.  Each iteration takes the smallest scanned start over the
bands and the data-bound rows and lets the tie rule choose among
everything tied with it, so every decision matches re-evaluating every
ready task on every machine in every iteration.  On the benchmark's
layered n=1000, m=8 ETF instances about 96% of ready tasks are
machine-bound; on its n=20 makespan instances, about half.

Two exact shortcuts skip scans whose result is known.  Let ``lo`` be the
smallest start and ``second`` the next smallest.  If ``lo < second -
START_TIE_TOL`` and ``second - lo > START_TIE_TOL``, both in floating
point, ``lo`` is a *lone minimum*: the scan returns it and its machine in
any group order and under any preference, so ``_scan`` returns it without
the loop.  Subtraction rounds monotonically, so by the first test ``lo``
replaces any best before it, which is at least ``second``, and by the
second no later start ties with it.  Both are needed: 1000 + 9 ulp passes
the second against 1000, but 1000 + 9 ulp - START_TIE_TOL rounds to 1000,
and below START_TIE_TOL pairs pass the first but not the second.  A
placement that raises a data-bound task's start on a machine other than
that of its cached lone minimum only stores the new start: ``lo`` stays,
``second`` can only grow and both tests are monotone in ``second``, so
the cached scan is still the scan.  Every other raise redoes the scan.

``earliest_start`` reads timelines, finishes, communication rows and the
edge data aligned with each predecessor list straight from their
containers.  ``sls_schedule`` keeps one availability list, runs the same
predecessor walk inline and calls the shared ``_scan`` with the machine
ids as preference.
``verify_schedule`` checks edges and durations as arrays over
the graph's edge columns, with the scalar formulas' IEEE operations, and
builds messages for failing items only.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grouping import GroupAssignment, trivial_assignment
from .model import Instance, fill_json, integer_ids, json_list, require_numbers

START_TIE_TOL = 1e-12
VERIFY_TOL = 1e-9  # slack on every time comparison ``verify_schedule`` makes


class SchedulingError(ValueError):
    pass


@dataclass(frozen=True)
class TieBreak:
    """Rule for choosing among tasks whose earliest starts tie.

    ``random`` draws are fully determined by the seed; the other variants
    are order statistics over task attributes with lowest-id fallback.
    """

    variant: str
    seed: int = 0

    BY_INDEX = "by-index"
    RANDOM = "random"
    LARGEST_DEMAND = "largest-demand"
    MOST_SUCCESSORS = "most-successors"

    @classmethod
    def by_index(cls) -> "TieBreak":
        return cls(cls.BY_INDEX)

    @classmethod
    def random_rule(cls, seed: int) -> "TieBreak":
        return cls(cls.RANDOM, seed)

    @classmethod
    def largest_demand(cls) -> "TieBreak":
        return cls(cls.LARGEST_DEMAND)

    @classmethod
    def most_successors(cls) -> "TieBreak":
        return cls(cls.MOST_SUCCESSORS)


class TieChooser:
    """Stateful chooser; random variants consume a private seeded stream.

    Every variant ranks the tasks once, lowest rank first: by id (``by-index``
    and ``random``), by (-demand, id), or by (-out-degree, id).  The random
    variant draws among the sorted candidates instead of taking the lowest rank.
    """

    def __init__(self, rule: TieBreak, graph):
        v = rule.variant
        self.rng = random.Random(rule.seed) if v == TieBreak.RANDOM else None
        if v == TieBreak.LARGEST_DEMAND:
            key = [-d for d in graph.demand]
        elif v == TieBreak.MOST_SUCCESSORS:
            key = [-len(s) for s in graph.successors()]
        elif v in (TieBreak.BY_INDEX, TieBreak.RANDOM):
            key = [0] * graph.n
        else:
            raise SchedulingError(f"unknown tie-break variant {v!r}")
        self.task_of_rank = sorted(range(graph.n), key=lambda j: (key[j], j))
        self.rank = [0] * graph.n
        for r, j in enumerate(self.task_of_rank):
            self.rank[j] = r

    def choose(self, candidates) -> int:
        """The chosen one of ``candidates``, a sequence of task ids."""
        if len(candidates) == 1:
            return candidates[0]
        if self.rng is not None:
            return self.rng.choice(sorted(candidates))
        return min(candidates, key=self.rank.__getitem__)


_ASSIGNMENT_JSON = ('    {\n      "task": %s,\n      "machine": %s,\n'
                    '      "start": %s,\n      "end": %s\n    }')


@dataclass
class Schedule:
    assignment: dict[int, int] = field(default_factory=dict)
    start: dict[int, float] = field(default_factory=dict)
    finish: dict[int, float] = field(default_factory=dict)
    iteration_order: list[int] = field(default_factory=list)
    machine_intervals: dict[int, list[tuple[float, float, int]]] = field(default_factory=dict)

    def makespan(self) -> float:
        return max(self.finish.values(), default=0.0)

    def weighted_completion(self, inst: Instance) -> float:
        return sum(w * self.finish[j] for j, w in enumerate(inst.graph.weight))

    def place(self, task: int, machine: int, start: float, duration: float) -> None:
        end = start + duration
        self.assignment[task] = machine
        self.start[task] = start
        self.finish[task] = end
        self.machine_intervals.setdefault(machine, []).append((start, end, task))
        self.iteration_order.append(task)

    def to_dict(self, inst: Instance) -> dict:
        return {
            "assignments": [
                {
                    "task": j,
                    "machine": self.assignment[j],
                    "start": self.start[j],
                    "end": self.finish[j],
                }
                for j in sorted(self.assignment)
            ],
            "iteration_order": list(self.iteration_order),
            "makespan": self.makespan(),
            "weighted_completion": self.weighted_completion(inst),
        }

    def to_json(self, inst: Instance) -> str:
        """``json.dumps(self.to_dict(inst), indent=2) + "\\n"``, byte for byte."""
        tasks = sorted(self.assignment)
        template = (
            '{\n  "assignments": ' + json_list([_ASSIGNMENT_JSON] * len(tasks), "  ")
            + ',\n  "iteration_order": '
            + json_list(["    %s"] * len(self.iteration_order), "  ")
            + ',\n  "makespan": %s,\n  "weighted_completion": %s\n}\n'
        )
        a, start, finish = self.assignment, self.start, self.finish
        leaves = [v for j in tasks for v in (j, a[j], start[j], finish[j])]
        leaves += self.iteration_order
        leaves += (self.makespan(), self.weighted_completion(inst))
        return fill_json(template, leaves)


def schedule_from_dict(doc: dict) -> Schedule:
    """Rebuild a schedule document.  It is malformed (ValueError) if it is not
    an object with an ``assignments`` list, an entry lacks a field, a present
    ``iteration_order`` is not a list or names an unassigned task, a task is
    listed twice, a value is not a number, or an id is not an integer.
    Without ``iteration_order``, tasks are placed in start-time order."""
    if not (isinstance(doc, dict) and isinstance(doc.get("assignments"), list)):
        raise ValueError("schedule document must be a JSON object with an 'assignments' list")
    entries, listed = doc["assignments"], doc.get("iteration_order", [])
    if not isinstance(listed, list):
        raise ValueError("'iteration_order' must be a list of task ids")
    if not all(isinstance(e, dict) and {"task", "machine", "start", "end"} <= e.keys()
               for e in entries):
        raise ValueError("assignment entries need 'task', 'machine', 'start' and 'end'")
    require_numbers(([v for e in entries for v in (e["task"], e["machine"], e["start"], e["end"])],
                     listed), "schedule")
    tasks = integer_ids([e["task"] for e in entries], "task")
    machines = integer_ids([e["machine"] for e in entries], "machine")
    order = integer_ids(listed, "iteration_order") or [
        j for j, e in sorted(zip(tasks, entries), key=lambda je: float(je[1]["start"]))]
    for what, ids in (("assignments", tasks), ("iteration_order", order)):
        twice = [j for j, count in Counter(ids).items() if count > 1]
        if twice:
            raise ValueError(f"task {twice[0]} appears more than once in {what}")
    by_task = dict(zip(tasks, zip(machines, entries)))
    unassigned = [j for j in order if j not in by_task]
    if unassigned:
        raise ValueError(f"iteration_order names task {unassigned[0]}, which has no assignment")
    # Entries the order leaves out are placed last, so the verifier sees them.
    s, ordered = Schedule(), set(order)
    for j in [*order, *(j for j in by_task if j not in ordered)]:
        i, e = by_task[j]
        s.place(j, i, float(e["start"]), float(e["end"]) - float(e["start"]))
    return s


def earliest_start(task: int, machine: int | tuple[int, ...] | list[int],
                   partial: Schedule, inst: Instance) -> float | list[float]:
    """Earliest feasible start of ``task`` on ``machine`` given the partial
    schedule: machine availability vs. every predecessor's data arrival,
    read from the graph's predecessor lists and the edge data aligned with them.

    ``machine`` may also be a tuple or list of machines; the starts on each
    come back as a list in that order, from one walk over the predecessors.
    """
    one = not isinstance(machine, (tuple, list))
    machines = (machine,) if one else machine
    timelines, finish, assignment = partial.machine_intervals, partial.finish, partial.assignment
    starts = [iv[-1][1] if (iv := timelines.get(i)) else 0.0 for i in machines]
    g, comm = inst.graph, inst.platform.comm_speed
    for p, data in zip(g.predecessors()[task], g.predecessor_data()[task]):
        if p not in assignment:
            raise SchedulingError(f"predecessor {p} of task {task} is not scheduled")
        ready, sigma = finish[p], comm[assignment[p]]
        k = 0
        for i in machines:
            arrival = ready + data / sigma[i]  # data/inf == 0.0, the zero-delay sentinel
            if arrival > starts[k]:
                starts[k] = arrival
            k += 1
    return starts[0] if one else starts


def _scan(machines, starts, pref) -> tuple[float, int, bool]:
    """The sequential scan that gives a task its machine.  In group order, a
    start replaces the best so far when it is more than ``START_TIE_TOL``
    smaller, or within the tolerance on a preferred machine (lower ``pref``).

    Returns the best start, its machine, and whether that start was a lone
    minimum, taken without the scan (see the module docstring)."""
    lo = second = math.inf
    for i, t in zip(machines, starts):
        if t < second:
            if t < lo:
                lo, second, lo_m = t, lo, i
            else:
                second = t
    if lo < second - START_TIE_TOL and second - lo > START_TIE_TOL:
        return lo, lo_m, True
    best_t = best_m = None
    for i, t in zip(machines, starts):
        if best_t is None or t < best_t - START_TIE_TOL or (
            abs(t - best_t) <= START_TIE_TOL and pref[i] < pref[best_m]
        ):
            best_t, best_m = t, i
    return best_t, best_m, False


def _group_machines(task: int, f: GroupAssignment) -> tuple[int, ...]:
    """The machines of ``task``'s group, which must not be empty."""
    machines = f.machines_for(task)
    if not machines:
        raise SchedulingError(
            f"task {task} is assigned to group {f.group_of_task[task]}, "
            "which has no machines"
        )
    return machines


class _Row:
    """A data-bound ready task: its starts in group order, how many still
    exceed their machine's availability, and its cached scan (start,
    machine, and whether the start was a lone minimum)."""

    __slots__ = ("starts", "above", "best")

    def __init__(self, starts: list[float], above: int, machines, pref):
        self.starts, self.above = starts, above
        self.best = _scan(machines, starts, pref)


class _Band:
    """The ready tasks of one band.  Machine-bound tasks wait in ``queue`` as
    sorted tie ranks and share ``best``, the scan of the band's
    availabilities (None once a placement on a band machine made it stale);
    each data-bound task keeps a ``_Row`` in ``rows``."""

    __slots__ = ("machines", "col", "best", "queue", "rows")

    def __init__(self, machines: tuple[int, ...]):
        self.machines = machines
        self.col = {i: c for c, i in enumerate(machines)}
        self.best = None
        self.queue: list[int] = []
        self.rows: dict[int, _Row] = {}


class _Placement:
    """GETF's placement engine; see the module docstring."""

    def __init__(self, inst: Instance, f: GroupAssignment, chooser: TieChooser):
        m = inst.platform.m
        self.inst, self.f, self.chooser = inst, f, chooser
        self.sched = Schedule()
        self.speed = [mc.speed for mc in inst.platform.machines]
        fastest_first = sorted(range(m), key=lambda i: (-self.speed[i], i))
        self.pref = [0] * m
        for r, i in enumerate(fastest_first):
            self.pref[i] = r
        self.avail = [0.0] * m
        self.bands: dict[int, _Band] = {}
        self.bands_on: list[list[_Band]] = [[] for _ in range(m)]
        self.ready = 0

    def add(self, task: int) -> None:
        """Take in a newly ready task."""
        k = self.f.group_of_task[task]
        band = self.bands.get(k)
        if band is None:
            band = self.bands[k] = _Band(_group_machines(task, self.f))
            for i in band.machines:
                self.bands_on[i].append(band)
        machines, avail = band.machines, self.avail
        starts = earliest_start(task, machines, self.sched, self.inst)
        above = 0
        for i, t in zip(machines, starts):
            if t > avail[i]:
                above += 1
        if above:
            band.rows[task] = _Row(starts, above, machines, self.pref)
        else:
            insort(band.queue, self.chooser.rank[task])
        self.ready += 1

    def pick(self) -> tuple[int, float, int]:
        """Remove the task the tie rule takes among the ready tasks tied at
        the smallest scanned start; returns it with its start and machine."""
        avail, chooser, bands = self.avail, self.chooser, self.bands.values()
        lo = math.inf
        for b in bands:
            if b.queue:
                if b.best is None:
                    b.best = _scan(b.machines, [avail[i] for i in b.machines], self.pref)
                if b.best[0] < lo:
                    lo = b.best[0]
            for row in b.rows.values():
                if row.best[0] < lo:
                    lo = row.best[0]
        # Every best is at least lo, so best - lo is never negative.
        tied = []
        for b in bands:
            if b.queue and b.best[0] - lo <= START_TIE_TOL:
                # Ranks are ids under the random rule, which draws among every
                # tied id; the other rules take the lowest rank, the band's head.
                tied += b.queue if chooser.rng else (chooser.task_of_rank[b.queue[0]],)
            tied += [j for j, row in b.rows.items() if row.best[0] - lo <= START_TIE_TOL]
        task = chooser.choose(tied)
        self.ready -= 1
        band = self.bands[self.f.group_of_task[task]]
        row = band.rows.pop(task, None)
        if row is not None:
            best = row.best
        else:
            del band.queue[bisect_left(band.queue, chooser.rank[task])]
            best = band.best
        return task, best[0], best[1]

    def place(self, task: int, start: float, machine: int) -> None:
        """Append ``task`` to ``machine`` and raise the starts on it."""
        self.sched.place(task, machine, start, self.inst.graph.demand[task] / self.speed[machine])
        old, now = self.avail[machine], self.sched.finish[task]
        self.avail[machine] = now
        for band in self.bands_on[machine]:
            band.best = None
            c, bound = band.col[machine], []
            for j, row in band.rows.items():
                t = row.starts[c]
                if t > now:
                    continue
                if t > old:
                    row.above -= 1
                    if not row.above:
                        bound.append(j)
                        continue
                if t < now:
                    row.starts[c] = now
                    # A lone minimum on another machine stays lone and smallest.
                    _, best_m, lone = row.best
                    if not lone or best_m == machine:
                        row.best = _scan(band.machines, row.starts, self.pref)
            for j in bound:
                del band.rows[j]
                insort(band.queue, self.chooser.rank[j])


def getf_schedule(inst: Instance, f: GroupAssignment, tie: TieBreak) -> Schedule:
    """Greedy earliest-start scheduling restricted to per-task machine groups."""
    engine = _Placement(inst, f, TieChooser(tie, inst.graph))
    succs = inst.graph.successors()
    n_unscheduled_preds = [len(p) for p in inst.graph.predecessors()]
    for j, k in enumerate(n_unscheduled_preds):
        if k == 0:
            engine.add(j)
    while engine.ready:
        j, start, machine = engine.pick()
        engine.place(j, start, machine)
        for w in succs[j]:
            n_unscheduled_preds[w] -= 1
            if n_unscheduled_preds[w] == 0:
                engine.add(w)
    return engine.sched


def etf_schedule(inst: Instance, tie: TieBreak) -> Schedule:
    """GETF with the single all-machines group."""
    return getf_schedule(inst, trivial_assignment(inst), tie)


def sls_schedule(inst: Instance, f: GroupAssignment, priority: list[int]) -> Schedule:
    """Fixed-priority list scheduling within the assigned machine groups."""
    n = inst.graph.n
    if sorted(priority) != list(range(n)):
        raise SchedulingError("priority must enumerate every task exactly once")
    position = {j: k for k, j in enumerate(priority)}
    for a, b in zip(inst.graph.src, inst.graph.dst):
        if position[a] > position[b]:
            raise SchedulingError(
                f"priority is not topological: task {b} precedes its predecessor {a}"
            )
    # earliest_start, inlined over one availability list (the finish of the
    # last task placed on each machine), with the same comparisons in the same
    # order, so the schedule is the same to the bit.  Machine ties go to the
    # lowest id.
    g, comm = inst.graph, inst.platform.comm_speed
    demand, preds, pred_data = g.demand, g.predecessors(), g.predecessor_data()
    speed = [mc.speed for mc in inst.platform.machines]
    sched, avail, lowest_id_first = Schedule(), [0.0] * inst.platform.m, range(inst.platform.m)
    finish, assignment = sched.finish, sched.assignment
    for j in priority:
        machines = _group_machines(j, f)
        starts = [avail[i] for i in machines]
        for p, data in zip(preds[j], pred_data[j]):
            ready, sigma = finish[p], comm[assignment[p]]
            k = 0
            for i in machines:
                arrival = ready + data / sigma[i]  # data/inf == 0.0, the zero-delay sentinel
                if arrival > starts[k]:
                    starts[k] = arrival
                k += 1
        best_t, best_m, _ = _scan(machines, starts, lowest_id_first)
        sched.place(j, best_m, best_t, demand[j] / speed[best_m])
        avail[best_m] = finish[j]
    return sched


@dataclass
class FeasibilityReport:
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations


def verify_schedule(inst: Instance, s: Schedule,
                    f: GroupAssignment | None = None) -> FeasibilityReport:
    """Independent feasibility check of a finished schedule.

    A schedule that misses a task, or names a task or machine the instance
    does not have, is reported as such and checked no further.  Otherwise
    checks, in time order: per-machine interval overlap, precedence with
    communication delays, exact durations, and group consistency when a
    group assignment is supplied.  Every check is written so that a NaN
    time fails it.
    """
    n, m = inst.graph.n, inst.platform.m
    findings = [(0.0, f"task {j} is not scheduled") for j in range(n) if j not in s.assignment]
    for j, i in sorted((j, i) for j, i in s.assignment.items()
                       if not (0 <= j < n and 0 <= i < m)):
        findings.append((0.0, f"task {j} is placed on unknown machine {i}" if 0 <= j < n
                         else f"unknown task {j} is scheduled"))
    if findings:
        return FeasibilityReport([msg for _, msg in sorted(findings, key=lambda kv: kv[0])])

    tasks = range(n)
    start, finish, machine = (list(map(times.__getitem__, tasks))
                              for times in (s.start, s.finish, s.assignment))
    by_machine: dict[int, list[tuple[float, float, int]]] = {}
    for a, b, j, i in zip(start, finish, tasks, machine):
        by_machine.setdefault(i, []).append((a, b, j))
    for mach, intervals in by_machine.items():
        intervals.sort()
        for (a0, b0, t0), (a1, b1, t1) in zip(intervals, intervals[1:]):
            if not a1 >= b0 - VERIFY_TOL:
                findings.append((a1, f"tasks {t0} and {t1} overlap on machine {mach}"))

    # Edges and durations are checked as arrays, with the IEEE operations of
    # the scalar formulas; messages are built for the failing items only.
    src, dst, data = inst.graph.edge_columns()
    t_start, t_finish, on = (np.array(start, dtype=float), np.array(finish, dtype=float),
                             np.array(machine, dtype=int))
    with np.errstate(all="ignore"):
        bound = t_finish[src] + data / np.array(inst.platform.comm_speed)[on[src], on[dst]]
        early = ~(t_start[dst] >= bound - VERIFY_TOL)
        expected = np.array(inst.graph.demand) / np.array(
            [mc.speed for mc in inst.platform.machines])[on]
        off = ~(np.abs((t_finish - t_start) - expected) <= VERIFY_TOL)
    for k in np.flatnonzero(early).tolist():
        a, b = int(src[k]), int(dst[k])
        findings.append((start[b], f"task {b} starts at {start[b]:.9g} before its data from "
                                   f"task {a} arrives at {float(bound[k]):.9g}"))
    for j in np.flatnonzero(off).tolist():
        findings.append((start[j], f"task {j} duration differs from demand/speed"))

    if f is not None:
        for j, i in zip(tasks, machine):
            if i not in f.machines_for(j):
                findings.append((start[j], f"task {j} placed outside its machine group"))

    findings.sort(key=lambda kv: kv[0])
    return FeasibilityReport([msg for _, msg in findings])
