"""Scheduling instances: task DAGs, machine platforms, validation and JSON I/O.

An instance couples a directed acyclic task graph (per-task processing
demands and weights, per-edge data volumes) with a platform of related
machines (per-machine speeds, pairwise communication speeds).  Everything
downstream -- schedulers, LP builders, bound reports -- consumes the types
defined here and relies on ``validate_instance`` having passed.

Conventions:
  * task ids are 0..n-1 and machine ids are 0..m-1, both dense;
  * task j runs for demand/speed time units on its machine;
  * an edge (j', j) carrying ``data`` units forces
    start(j) >= finish(j') + data / comm_speed[m(j')][m(j)];
  * a communication speed of ``math.inf`` means zero delay and is encoded
    as ``null`` in JSON; every other number in an instance is finite.

A ``TaskGraph`` is stored once, as columns: ``demand`` and ``weight`` per
task, ``src``, ``dst`` and ``data`` per edge.  The loader and the generator
fill them straight from their lists, and ``validate_instance`` walks
them item by item.  Readers of one link's data take it from
``predecessor_data()``, aligned with ``predecessors()``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np


class InstanceError(ValueError):
    """Raised when an instance document or value is malformed."""


class CycleError(InstanceError):
    """Raised when the task graph contains a directed cycle."""


@dataclass(frozen=True)
class Task:
    """Built only by ``TaskGraph.tasks``, which perfbench's ``lower_bound`` reads."""

    id: int
    demand: float
    weight: float = 0.0


@dataclass(frozen=True)
class TaskGraph:
    """A task DAG held as columns: task j has ``demand[j]`` and ``weight[j]``,
    and edge k runs from ``src[k]`` to ``dst[k]`` carrying ``data[k]``.  The
    columns are immutable sequences (the loader and the generator give
    tuples), indexed one item at a time by the placement and chain loops.

    Everything else is built once, on first use, and shared by every call,
    so callers must not mutate it: the predecessor and successor lists (in
    edge order) with the edge data aligned to each predecessor list, the
    edge columns as arrays, the topological order, and the ``tasks`` view
    of ``Task`` records, which the package does not read.
    """

    demand: tuple[float, ...]
    weight: tuple[float, ...]
    src: tuple[int, ...]
    dst: tuple[int, ...]
    data: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.demand)

    @cached_property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks as records, ids 0..n-1."""
        return tuple(map(Task, range(self.n), self.demand, self.weight))

    @cached_property
    def _adjacency(self) -> tuple[list, list, list]:
        preds: list[list[int]] = [[] for _ in range(self.n)]
        pred_data: list[list[float]] = [[] for _ in range(self.n)]
        succs: list[list[int]] = [[] for _ in range(self.n)]
        for s, d, w in zip(self.src, self.dst, self.data):
            preds[d].append(s)
            pred_data[d].append(w)
            succs[s].append(d)
        return preds, pred_data, succs

    def predecessors(self) -> list[list[int]]:
        """Immediate predecessor ids, indexed by task id."""
        return self._adjacency[0]

    def predecessor_data(self) -> list[list[float]]:
        """The data on each edge into a task, aligned with ``predecessors()``."""
        return self._adjacency[1]

    def successors(self) -> list[list[int]]:
        return self._adjacency[2]

    @cached_property
    def _edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        columns = (np.array(self.src, dtype=int), np.array(self.dst, dtype=int),
                   np.array(self.data, dtype=float))
        for a in columns:
            a.flags.writeable = False
        return columns

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges' ``src``, ``dst`` and ``data`` as read-only arrays, in edge order."""
        return self._edge_columns

    @cached_property
    def _topological_order(self) -> list[int]:
        indeg = [len(p) for p in self.predecessors()]
        succs = self.successors()
        ready = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != self.n:
            stuck = sorted(set(range(self.n)) - set(order))
            raise CycleError(f"cycle detected among tasks {stuck}")
        return order


@dataclass(frozen=True)
class Machine:
    """A record, not a column: perfbench reads ``Platform.machines`` and its
    self-check rebuilds them with ``dataclasses.replace``."""

    id: int
    speed: float


@dataclass(frozen=True)
class Platform:
    machines: tuple[Machine, ...]
    comm_speed: tuple[tuple[float, ...], ...]  # math.inf = zero delay

    @property
    def m(self) -> int:
        return len(self.machines)

    def speed(self, machine_id: int) -> float:
        return self.machines[machine_id].speed

    def sigma(self, src_machine: int, dst_machine: int) -> float:
        return self.comm_speed[src_machine][dst_machine]


@dataclass(frozen=True)
class Instance:
    graph: TaskGraph
    platform: Platform


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant; violations make the instance unusable.

    Disconnected DAGs and zero-data edges are legal.
    """
    return _validate(inst, range(inst.graph.n))


def _validate(inst: Instance, task_ids) -> ValidationReport:
    """``validate_instance``, with the task ids the document gave (a graph
    numbers its tasks by position)."""
    report = ValidationReport()
    g, p = inst.graph, inst.platform
    n, m = g.n, p.m
    demand, weight, src, dst, data = g.demand, g.weight, g.src, g.dst, g.data
    finite = math.isfinite

    # Every check below zips the columns, which would stop at the shortest.
    if len(weight) != n:
        report.violations.append(f"task columns differ in length: demand {n}, weight {len(weight)}")
    if not len(src) == len(dst) == len(data):
        report.violations.append(
            f"edge columns differ in length: src {len(src)}, dst {len(dst)}, data {len(data)}")
    if report.violations:
        return report

    for idx, (tid, d, w) in enumerate(zip(task_ids, demand, weight)):
        if tid != idx:
            report.violations.append(f"task ids must be dense 0..n-1, found {tid} at position {idx}")
        if not finite(d):
            report.violations.append(f"non-finite demand, task {tid}")
        elif not d > 0:
            report.violations.append(f"nonpositive demand, task {tid}")
        if not finite(w):
            report.violations.append(f"non-finite weight, task {tid}")
        elif w < 0:
            report.violations.append(f"negative weight, task {tid}")

    seen_pairs: set[tuple[int, int]] = set()
    for s, d, w in zip(src, dst, data):
        if not (0 <= s < n) or not (0 <= d < n):
            report.violations.append(f"edge ({s},{d}) references missing task")
            continue
        if s == d:
            report.violations.append(f"self edge on task {s}")
        if (s, d) in seen_pairs:
            report.violations.append(f"parallel edge ({s},{d})")
        seen_pairs.add((s, d))
        if not finite(w):
            report.violations.append(f"non-finite data on edge ({s},{d})")
        elif w < 0:
            report.violations.append(f"negative data on edge ({s},{d})")

    for idx, mac in enumerate(p.machines):
        if mac.id != idx:
            report.violations.append(f"machine ids must be dense 0..m-1, found {mac.id} at position {idx}")
        if not finite(mac.speed):
            report.violations.append(f"non-finite speed, machine {mac.id}")
        elif not mac.speed > 0:
            report.violations.append(f"nonpositive speed, machine {mac.id}")

    if len(p.comm_speed) != m or any(len(row) != m for row in p.comm_speed):
        report.violations.append(f"comm_speed must be {m}x{m}")
    else:
        for i, row in enumerate(p.comm_speed):
            for j, s in enumerate(row):
                if s == math.inf:  # zero delay
                    continue
                if not finite(s):
                    report.violations.append(f"non-finite comm speed, pair ({i},{j})")
                elif not s > 0:
                    report.violations.append(f"nonpositive comm speed, pair ({i},{j})")

    if not report.violations and n > 0:
        try:
            topological_order(g)
        except CycleError as exc:
            report.violations.append(str(exc))

    return report


def topological_order(g: TaskGraph) -> list[int]:
    """Kahn's algorithm, always taking the lowest available id first.  The
    order is computed once per graph and shared: callers must not mutate it.
    A cyclic graph raises CycleError on every call."""
    return g._topological_order


def normalize_demands(inst: Instance) -> tuple[Instance, float]:
    """Scale demands so the smallest processing time over any machine is >= 1.

    Returns the scaled instance and the multiplier applied to every demand
    (1.0 when the instance is already normalized).  Data volumes and
    machine speeds are untouched, so communication times are preserved.
    """
    g = inst.graph
    # Rounded division is monotone, so this is the smallest demand/speed of any pair.
    min_ratio = min(g.demand) / max(mc.speed for mc in inst.platform.machines)
    if min_ratio >= 1.0 - 1e-12:  # tolerate one ulp of drift: keeps this idempotent
        return inst, 1.0
    scale = 1.0 / min_ratio
    graph = replace(g, demand=tuple(d * scale for d in g.demand))
    return Instance(graph, inst.platform), scale


# ---------------------------------------------------------------------------
# JSON (de)serialization.  Field names are part of the on-disk contract:
#   {"tasks": [{"id", "demand", "weight"}], "edges": [{"src", "dst", "data"}],
#    "machines": [{"id", "speed"}], "comm_speed": [[...]]}
# with null entries in comm_speed meaning infinite speed (zero delay).  The
# writers lay documents out as json.dumps(doc, indent=2) + "\n" does.
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    """The instance as its JSON document; the inverse of ``instance_from_dict``."""
    g = inst.graph
    return {
        "tasks": [{"id": j, "demand": d, "weight": w}
                  for j, d, w in zip(range(g.n), g.demand, g.weight)],
        "edges": [{"src": s, "dst": d, "data": w} for s, d, w in zip(g.src, g.dst, g.data)],
        "machines": [{"id": mc.id, "speed": mc.speed} for mc in inst.platform.machines],
        "comm_speed": [
            [None if s == math.inf else s for s in row] for row in inst.platform.comm_speed
        ],
    }


def json_list(items: list[str], indent: str) -> str:
    """A JSON list of already laid-out ``items``, closed at ``indent``, as
    ``json.dumps(..., indent=2)`` lays it out; ``[]`` when empty."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def fill_json(template: str, leaves: list) -> str:
    """``template`` with its ``%s`` slots filled, in order, by ``leaves``
    (numbers or ``None``) spelled exactly as ``json.dumps`` spells them.

    ``json.dumps(..., indent=2)`` always runs CPython's pure-Python encoder;
    one flat list goes through the C encoder instead, and no number or
    ``null`` contains the ``", "`` that separates its items.
    """
    return template % tuple(json.dumps(leaves)[1:-1].split(", ") if leaves else ())


_TASK_JSON = '    {\n      "id": %s,\n      "demand": %s,\n      "weight": %s\n    }'
_EDGE_JSON = '    {\n      "src": %s,\n      "dst": %s,\n      "data": %s\n    }'
_MACHINE_JSON = '    {\n      "id": %s,\n      "speed": %s\n    }'


def serialize_instance(inst: Instance) -> str:
    """``json.dumps(instance_to_dict(inst), indent=2) + "\\n"``, byte for byte."""
    g, p = inst.graph, inst.platform
    template = (
        '{\n  "tasks": ' + json_list([_TASK_JSON] * g.n, "  ")
        + ',\n  "edges": ' + json_list([_EDGE_JSON] * len(g.src), "  ")
        + ',\n  "machines": ' + json_list([_MACHINE_JSON] * p.m, "  ")
        + ',\n  "comm_speed": ' + json_list(
            ["    " + json_list(["      %s"] * len(row), "    ") for row in p.comm_speed], "  ")
        + "\n}\n"
    )
    leaves = list(chain.from_iterable(zip(range(g.n), g.demand, g.weight)))
    leaves += chain.from_iterable(zip(g.src, g.dst, g.data))
    leaves += [v for mc in p.machines for v in (mc.id, mc.speed)]
    leaves += [None if s == math.inf else s for row in p.comm_speed for s in row]
    return fill_json(template, leaves)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceError(message)


# The types json.loads gives numbers; bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset((int, float))


def require_numbers(columns: tuple[list, ...], what: str) -> None:
    """Refuse any value in ``columns`` whose type is not int or float.

    One type test per value: ``float()`` and ``int()`` would also take
    strings and booleans.
    """
    if not set(map(type, chain.from_iterable(columns))) <= _NUMBER_TYPES:
        bad = next(v for v in chain.from_iterable(columns) if type(v) not in _NUMBER_TYPES)
        raise InstanceError(f"{what} values must be numbers: got {bad!r}")


def integer_ids(ids: list, what: str) -> list[int]:
    """``ids``, numbers already, as ints.  A fractional, infinite or NaN id
    raises InstanceError: ``int()`` would truncate it or overflow."""
    bad = [v for v in ids if type(v) is float and not v.is_integer()]
    if bad:
        raise InstanceError(f"{what} ids must be integers: got {bad[0]!r}")
    return list(map(int, ids))


def instance_from_dict(doc: dict) -> Instance:
    _require(isinstance(doc, dict), "instance document must be a JSON object")
    for key in ("tasks", "edges", "machines", "comm_speed"):
        _require(key in doc, f"missing field '{key}'")
    for key in ("tasks", "edges", "machines"):
        _require(isinstance(doc[key], list), f"'{key}' must be a list")
    for key in ("tasks", "machines"):
        _require(len(doc[key]) > 0, f"'{key}' must not be empty")
    _require(all(isinstance(e, dict) and "id" in e and "demand" in e for e in doc["tasks"]),
             "task entries need 'id' and 'demand'")
    _require(all(isinstance(e, dict) and "src" in e and "dst" in e for e in doc["edges"]),
             "edge entries need 'src' and 'dst'")
    _require(all(isinstance(e, dict) and "id" in e and "speed" in e for e in doc["machines"]),
             "machine entries need 'id' and 'speed'")
    _require(isinstance(doc["comm_speed"], list)
             and all(isinstance(row, list) for row in doc["comm_speed"]),
             "'comm_speed' must be a matrix")

    task_docs, edge_docs, machine_docs = doc["tasks"], doc["edges"], doc["machines"]
    task_ids, machine_ids = [e["id"] for e in task_docs], [e["id"] for e in machine_docs]
    srcs, dsts = [e["src"] for e in edge_docs], [e["dst"] for e in edge_docs]
    demands, weights = [e["demand"] for e in task_docs], [e.get("weight", 0.0) for e in task_docs]
    data, speeds = [e.get("data", 0.0) for e in edge_docs], [e["speed"] for e in machine_docs]
    comm = [s for row in doc["comm_speed"] for s in row if s is not None]
    require_numbers((task_ids, demands, weights, srcs, dsts, data, machine_ids, speeds, comm),
                    "instance")
    task_ids, machine_ids, srcs, dsts = (integer_ids(ids, "task, machine and edge")
                                         for ids in (task_ids, machine_ids, srcs, dsts))
    try:
        graph = TaskGraph(tuple(map(float, demands)), tuple(map(float, weights)),
                          tuple(srcs), tuple(dsts), tuple(map(float, data)))
        machines = list(map(Machine, machine_ids, map(float, speeds)))
        comm_rows = [tuple(math.inf if s is None else float(s) for s in row)
                     for row in doc["comm_speed"]]
    except OverflowError as exc:               # float() of an int beyond the float range
        raise InstanceError(f"instance values must be numbers: {exc}") from None

    inst = Instance(graph, Platform(tuple(machines), tuple(comm_rows)))
    report = _validate(inst, task_ids)
    if not report.ok:
        raise InstanceError("; ".join(report.violations))
    return inst


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, too-deep nesting
        raise InstanceError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"not UTF-8 text: {exc}") from exc
    return parse_instance(text)
