"""Greedy schedulers for task DAGs on related machines with comm delays.

Three schedulers share one placement engine:

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

The engine caches a ready-task x machine table of earliest starts.  A
task's row is computed by one ``earliest_start`` call, over every machine
of its group, when the task becomes ready; since its predecessors'
arrivals are then fixed and machine availability only grows, each later
placement just raises one column to the new availability.  Each iteration
takes every row's minimum at once, picks a task among the rows tied at the
smallest start, and only then works out the chosen row's machine: the
lexicographic minimum of (start, machine preference).  That equals the
sequential scan with the ``START_TIE_TOL`` comparison except when another
start lies within the tolerance of the row's minimum; such rows are
re-scanned, so every decision matches re-evaluating every ready task on
every machine in every iteration.  Tie rules other than ``random`` are a
per-task rank array, so a choice is one lookup over the tied ids.
"""

from __future__ import annotations

import random
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

    The other variants rank every task once, lowest rank first: by id, by
    (-demand, id), or by (-out-degree, id).
    """

    def __init__(self, rule: TieBreak, graph):
        v = rule.variant
        self._rng = random.Random(rule.seed) if v == TieBreak.RANDOM else None
        if v == TieBreak.LARGEST_DEMAND:
            key = [-t.demand for t in graph.tasks]
        elif v == TieBreak.MOST_SUCCESSORS:
            key = [-len(s) for s in graph.successors()]
        elif v in (TieBreak.BY_INDEX, TieBreak.RANDOM):
            key = [0] * graph.n
        else:
            raise SchedulingError(f"unknown tie-break variant {v!r}")
        self._rank = np.argsort(np.lexsort((np.arange(graph.n), key)))

    def choose(self, candidates) -> int:
        """The chosen one of ``candidates``, a sequence of task ids."""
        if len(candidates) == 1:
            return int(candidates[0])
        if self._rng is not None:
            return int(self._rng.choice(np.sort(candidates).tolist()))
        return int(candidates[self._rank[candidates].argmin()])


_ASSIGNMENT_JSON = ('    {\n      "task": %s,\n      "machine": %s,\n'
                    '      "start": %s,\n      "end": %s\n    }')


@dataclass
class Schedule:
    assignment: dict[int, int] = field(default_factory=dict)
    start: dict[int, float] = field(default_factory=dict)
    finish: dict[int, float] = field(default_factory=dict)
    iteration_order: list[int] = field(default_factory=list)
    machine_intervals: dict[int, list[tuple[float, float, int]]] = field(default_factory=dict)

    def is_scheduled(self, task: int) -> bool:
        return task in self.assignment

    def machine_available(self, machine: int) -> float:
        intervals = self.machine_intervals.get(machine)
        return intervals[-1][1] if intervals else 0.0

    def makespan(self) -> float:
        return max(self.finish.values(), default=0.0)

    def weighted_completion(self, inst: Instance) -> float:
        return sum(t.weight * self.finish[t.id] for t in inst.graph.tasks)

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


def comm_delay(inst: Instance, data: float, src_machine: int, dst_machine: int) -> float:
    sigma = inst.platform.sigma(src_machine, dst_machine)
    return data / sigma  # data/inf == 0.0, the zero-delay sentinel


def earliest_start(task: int, machine: int | tuple[int, ...] | list[int],
                   partial: Schedule, inst: Instance) -> float | list[float]:
    """Earliest feasible start of ``task`` on ``machine`` given the partial
    schedule: machine availability vs. every predecessor's data arrival,
    read from the graph's predecessor lists and edge-data dict.

    ``machine`` may also be a tuple or list of machines; the starts on each
    come back as a list in that order, from one walk over the predecessors.
    """
    edge_data = inst.graph.edge_data()
    one = not isinstance(machine, (tuple, list))
    machines = (machine,) if one else machine
    starts = [partial.machine_available(i) for i in machines]
    for p in inst.graph.predecessors()[task]:
        if not partial.is_scheduled(p):
            raise SchedulingError(f"predecessor {p} of task {task} is not scheduled")
        finish, data = partial.finish[p], edge_data[(p, task)]
        sigma = inst.platform.comm_speed[partial.assignment[p]]
        for k, i in enumerate(machines):
            arrival = finish + data / sigma[i]  # data/inf == 0.0, the zero-delay sentinel
            if arrival > starts[k]:
                starts[k] = arrival
    return starts[0] if one else starts


def _machine_key(inst: Instance, machine: int, prefer_fast: bool) -> tuple:
    if prefer_fast:
        return (-inst.platform.speed(machine), machine)
    return (machine,)


class _StartTable:
    """The placement engine shared by every scheduler.

    One row per ready task holds its earliest start on each machine, with
    ``inf`` outside the task's group; columns are sorted by machine
    preference, so a row's first minimum is its lexicographic
    (start, preference) best.  A row is seeded by one ``earliest_start``
    call over its task's group when the task becomes ready.  Afterwards
    only machine availability can change, and it only grows, so placing a
    task on machine ``i`` refreshes column ``i`` to ``max(cached,
    available)``: the same float ``earliest_start`` would return, without
    recomputing any arrival.

    The sequential scan that defines the machine choice compares starts
    within ``START_TIE_TOL``, which is not transitive.  The lexicographic
    minimum equals the scan's answer when the row's smallest start lies
    more than the tolerance below every other distinct start in the row;
    the rare rows where it does not are re-scanned in group order.

    The table is stored transposed, one array line per machine, so the
    per-row reductions combine a few long contiguous lines.
    """

    def __init__(self, inst: Instance, f: GroupAssignment, prefer_fast: bool):
        n, m = inst.graph.n, inst.platform.m
        self.inst, self.f = inst, f
        self.sched = Schedule()
        self.key = [_machine_key(inst, i, prefer_fast) for i in range(m)]
        self.machine_of_col = np.array(sorted(range(m), key=self.key.__getitem__))
        self.col_of = {int(i): c for c, i in enumerate(self.machine_of_col)}
        self.starts = np.full((m, n), np.inf)
        self.tasks = np.empty(n, dtype=np.intp)  # the task of each row
        self.row_of = np.empty(n, dtype=np.intp)  # the row of each ready task
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def seed(self, task: int) -> list[float]:
        """Earliest starts of ``task`` on the machines of its group, in group order."""
        machines = self.f.machines_for(task)
        if not machines:
            raise SchedulingError(
                f"task {task} is assigned to group {self.f.group_of_task[task]}, "
                "which has no machines"
            )
        return earliest_start(task, machines, self.sched, self.inst)

    def add(self, task: int) -> None:
        """Give a newly ready task its row."""
        row = [np.inf] * len(self.key)
        for i, t in zip(self.f.machines_for(task), self.seed(task)):
            row[self.col_of[i]] = t
        self.starts[:, self.size] = row
        self.tasks[self.size], self.row_of[task] = task, self.size
        self.size += 1

    def scan(self, task: int, starts: list[float]) -> tuple[float, int]:
        """The sequential scan over ``task``'s group; ``starts`` in group order."""
        best_t, best_m = None, None
        for i, t in zip(self.f.machines_for(task), starts):
            if best_t is None or t < best_t - START_TIE_TOL or (
                abs(t - best_t) <= START_TIE_TOL and self.key[i] < self.key[best_m]
            ):
                best_t, best_m = t, i
        return best_t, best_m

    def pick(self, chooser: TieChooser) -> tuple[int, float, int]:
        """Drop the row ``chooser`` takes among those tied at the smallest
        best start; returns its task, start and scanned machine."""
        table = self.starts[:, :self.size]
        best = table.min(axis=0)
        runner_up = np.where(table == best, np.inf, table).min(axis=0)
        clear = (runner_up - best > START_TIE_TOL) & (best < runner_up - START_TIE_TOL)
        scanned = {}
        for r in (~clear).nonzero()[0].tolist():
            task = int(self.tasks[r])
            cols = [self.col_of[i] for i in self.f.machines_for(task)]
            scanned[r] = self.scan(task, table[cols, r].tolist())
            best[r] = scanned[r][0]
        tied = self.tasks[(np.abs(best - best.min()) <= START_TIE_TOL).nonzero()[0]]
        r = int(self.row_of[chooser.choose(tied)])
        start, machine = scanned[r] if r in scanned else (
            float(best[r]), int(self.machine_of_col[table[:, r].argmin()]))
        return self.pop(r), start, machine

    def pop(self, row: int) -> int:
        """Drop ``row``, moving the last row into its place; returns its task."""
        task = int(self.tasks[row])
        self.size -= 1
        if row < self.size:
            self.starts[:, row] = self.starts[:, self.size]
            self.tasks[row] = moved = self.tasks[self.size]
            self.row_of[moved] = row
        return task

    def place(self, task: int, start: float, machine: int) -> None:
        """Append ``task`` to ``machine`` and raise that machine's column."""
        self.sched.place(task, machine, start,
                         self.inst.graph.tasks[task].demand / self.inst.platform.speed(machine))
        if self.size:
            column = self.starts[self.col_of[machine], :self.size]
            np.maximum(column, self.sched.finish[task], out=column)


def getf_schedule(inst: Instance, f: GroupAssignment, tie: TieBreak) -> Schedule:
    """Greedy earliest-start scheduling restricted to per-task machine groups."""
    table = _StartTable(inst, f, prefer_fast=True)
    chooser = TieChooser(tie, inst.graph)
    succs = inst.graph.successors()
    n_unscheduled_preds = [len(p) for p in inst.graph.predecessors()]
    for j, k in enumerate(n_unscheduled_preds):
        if k == 0:
            table.add(j)
    while table:
        j, start, machine = table.pick(chooser)
        table.place(j, start, machine)
        for w in succs[j]:
            n_unscheduled_preds[w] -= 1
            if n_unscheduled_preds[w] == 0:
                table.add(w)
    return table.sched


def etf_schedule(inst: Instance, tie: TieBreak) -> Schedule:
    """GETF with the single all-machines group."""
    return getf_schedule(inst, trivial_assignment(inst), tie)


def sls_schedule(inst: Instance, f: GroupAssignment, priority: list[int]) -> Schedule:
    """Fixed-priority list scheduling within the assigned machine groups."""
    n = inst.graph.n
    if sorted(priority) != list(range(n)):
        raise SchedulingError("priority must enumerate every task exactly once")
    position = {j: k for k, j in enumerate(priority)}
    for e in inst.graph.edges:
        if position[e.src] > position[e.dst]:
            raise SchedulingError(
                f"priority is not topological: task {e.dst} precedes its predecessor {e.src}"
            )
    table = _StartTable(inst, f, prefer_fast=False)
    for j in priority:  # one task at a time, so it never needs a row
        table.place(j, *table.scan(j, table.seed(j)))
    return table.sched


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
    findings: list[tuple[float, str]] = []
    n = inst.graph.n

    for j in range(n):
        if j not in s.assignment:
            findings.append((0.0, f"task {j} is not scheduled"))
    for j, i in sorted(s.assignment.items()):
        if not 0 <= j < n:
            findings.append((0.0, f"unknown task {j} is scheduled"))
        elif not 0 <= i < inst.platform.m:
            findings.append((0.0, f"task {j} is placed on unknown machine {i}"))
    if findings:
        return FeasibilityReport([m for _, m in sorted(findings, key=lambda kv: kv[0])])

    by_machine: dict[int, list[tuple[float, float, int]]] = {}
    for j in range(n):
        by_machine.setdefault(s.assignment[j], []).append((s.start[j], s.finish[j], j))
    for mach, intervals in by_machine.items():
        intervals.sort()
        for (a0, b0, t0), (a1, b1, t1) in zip(intervals, intervals[1:]):
            if not a1 >= b0 - VERIFY_TOL:
                findings.append((a1, f"tasks {t0} and {t1} overlap on machine {mach}"))

    for e in inst.graph.edges:
        bound = s.finish[e.src] + comm_delay(inst, e.data, s.assignment[e.src], s.assignment[e.dst])
        if not s.start[e.dst] >= bound - VERIFY_TOL:
            findings.append((
                s.start[e.dst],
                f"task {e.dst} starts at {s.start[e.dst]:.9g} before its data from "
                f"task {e.src} arrives at {bound:.9g}",
            ))

    for j in range(n):
        expected = inst.graph.tasks[j].demand / inst.platform.speed(s.assignment[j])
        if not abs((s.finish[j] - s.start[j]) - expected) <= VERIFY_TOL:
            findings.append((s.start[j], f"task {j} duration differs from demand/speed"))

    if f is not None:
        for j in range(n):
            allowed = set(f.machines_for(j))
            if s.assignment[j] not in allowed:
                findings.append((s.start[j], f"task {j} placed outside its machine group"))

    findings.sort(key=lambda kv: kv[0])
    return FeasibilityReport([m for _, m in findings])
