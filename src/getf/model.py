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
fill them straight from their lists, and ``validate_instance`` decides a
valid instance with whole-column checks; its item loops run only for a
section that failed, to word the violations.  Readers of one link's data
take it from ``predecessor_data()``, aligned with ``predecessors()``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import chain, repeat
from numbers import Integral, Real
from operator import add, itemgetter, lt

import numpy as np


def serial_sum(values):
    """The sum of ``values``, added left to right from the int 0 as the
    builtin ``sum`` did before Python 3.12, which made float sums
    compensated.  Every float sum that reaches an output or a decision
    goes through it, so no last bit depends on the interpreter."""
    return reduce(add, values, 0)


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
    edge columns as arrays, the transitive-edge mask, the topological
    order, and the ``tasks`` view of ``Task`` records, which the package
    does not read.

    Edge ids built in code may be numpy or bool ints.  A graph holds the
    Python ints they stand for, so every task id a scheduler or report
    hands on is one.
    """

    demand: tuple[float, ...]
    weight: tuple[float, ...]
    src: tuple[int, ...]
    dst: tuple[int, ...]
    data: tuple[float, ...]

    def __post_init__(self) -> None:
        types = set(map(type, chain(self.src, self.dst)))
        # Any other id is left for ``validate_instance`` to refuse.
        if not types <= {int} and all(issubclass(t, Integral) for t in types):
            object.__setattr__(self, "src", tuple(map(int, self.src)))
            object.__setattr__(self, "dst", tuple(map(int, self.dst)))

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
    def _transitive(self) -> np.ndarray:
        # anc[j]: the strict ancestors of j as a bitset.  An edge (a, c) is
        # transitive iff a is an ancestor of some predecessor of c; no
        # predecessor p = a can match, as a DAG's anc[a] never holds a.
        preds, anc = self.predecessors(), [0] * self.n
        reach = [0] * self.n           # OR of anc[p] over c's predecessors p
        for c in self._topological_order:
            below = bits = 0
            for p in preds[c]:
                below |= anc[p]
                bits |= 1 << p
            reach[c], anc[c] = below, below | bits
        mask = np.array([reach[c] >> a & 1 for a, c in zip(self.src, self.dst)], dtype=bool)
        mask.flags.writeable = False
        return mask

    def transitive_edges(self) -> np.ndarray:
        """A read-only bool array aligned with ``edge_columns()``: True for an
        edge (a, c) that another path a -> b -> ... -> c makes implied."""
        return self._transitive

    @cached_property
    def _topological_order(self) -> list[int]:
        if all(map(lt, self.src, self.dst)):
            # Every edge runs forward, so at step k all of k's predecessors
            # are placed and k is the smallest ready id: Kahn's order is 0..n-1.
            return list(range(self.n))
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
    """A machine is its speed: machine i is ``Platform.machines[i]``, as task j
    is position j.  Only this module reads it; other layers read ``Platform.speed``."""

    speed: float


@dataclass(frozen=True)
class Platform:
    """Machine records, machine i at position i, and ``comm_speed[a][b]``, the
    transfer speed from machine a to b.  ``speed``, the column every layer
    reads, holds their speeds; like ``TaskGraph``'s views it is built on first use."""

    machines: tuple[Machine, ...]
    comm_speed: tuple[tuple[float, ...], ...]  # math.inf = zero delay

    @property
    def m(self) -> int:
        return len(self.machines)

    @cached_property
    def speed(self) -> tuple[float, ...]:
        return tuple(mc.speed for mc in self.machines)

    @cached_property
    def _slowest_into(self) -> dict[tuple, list[float]]:
        return {}

    def slowest_into(self, machines) -> list[float]:
        """The slowest communication speed from each source machine into
        ``machines``: entry a is min(comm_speed[a][i] for i in machines).
        Data sent from a reaches every machine of the set at the latest
        after data / entry a.  Built once per machine set and shared, so
        callers must not mutate it."""
        key = tuple(machines)
        into = self._slowest_into.get(key)
        if into is None:
            into = self._slowest_into[key] = [min((row[i] for i in key), default=math.inf)
                                              for row in self.comm_speed]
        return into


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

    Every value must be a real number, Python's or numpy's, and all but the
    ids must convert to floats; the first that fails is the one violation.
    Disconnected DAGs and zero-data edges are legal; edge ids must be
    integers, as every list indexed by them requires.  Once every item
    passes, the graph must be acyclic and its times must stay in the float
    range: the smallest processing time, min(demand) / max(speed), is
    positive, and 4 x the serial horizon, sum(demand) / min(speed) +
    sum(data) / (the smallest finite comm speed), is finite: it bounds every
    time of an append-only schedule, and a report adds at most three.
    """
    g, p = inst.graph, inst.platform
    for v in chain(g.demand, g.weight, g.src, g.dst, g.data, p.speed,
                   chain.from_iterable(p.comm_speed)):
        if not isinstance(v, Real):  # the loader's require_numbers wording
            return ValidationReport([f"instance values must be numbers: got {v!r}"])
    try:  # an int beyond the float range: the loader's wording
        list(map(float, chain(g.demand, g.weight, g.data, p.speed, *p.comm_speed)))
    except OverflowError as exc:
        return ValidationReport([f"instance values must be numbers: {exc}"])
    int_ids = all(issubclass(t, Integral) for t in set(map(type, chain(g.src, g.dst))))
    return _validate(inst, range(g.n), range(p.m), int_ids)


def _validate(inst: Instance, task_ids, machine_ids, int_ids: bool = True) -> ValidationReport:
    """``validate_instance``, with the task and machine ids the document gave
    (a graph and a platform number theirs by position).  ``int_ids`` says
    whether every edge id is an integer, as the loader's always are; the
    int64 edge arrays would truncate any other."""
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

    # Each section is decided by whole-column checks; its item loop runs only
    # when a check fails, to word the violations in item order.
    if not (list(task_ids) == list(range(n)) and all(map(finite, demand))
            and all(map(finite, weight)) and min(demand, default=1.0) > 0
            and min(weight, default=0.0) >= 0):
        for idx, (tid, d, w) in enumerate(zip(task_ids, demand, weight)):
            if tid != idx:
                report.violations.append(
                    f"task ids must be dense 0..n-1, found {tid} at position {idx}")
            if not finite(d):
                report.violations.append(f"non-finite demand, task {tid}")
            elif not d > 0:
                report.violations.append(f"nonpositive demand, task {tid}")
            if not finite(w):
                report.violations.append(f"non-finite weight, task {tid}")
            elif w < 0:
                report.violations.append(f"negative weight, task {tid}")

    if src and not (int_ids and _edge_columns_valid(g)):
        seen_pairs: set[tuple[int, int]] = set()
        for s, d, w in zip(src, dst, data):
            if not (0 <= s < n) or not (0 <= d < n):
                report.violations.append(f"edge ({s},{d}) references missing task")
                continue
            if not (isinstance(s, Integral) and isinstance(d, Integral)):
                report.violations.append(f"edge ({s},{d}) has an id that is not an integer")
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

    for idx, (mid, speed) in enumerate(zip(machine_ids, p.speed)):
        if mid != idx:
            report.violations.append(f"machine ids must be dense 0..m-1, found {mid} at position {idx}")
        if not finite(speed):
            report.violations.append(f"non-finite speed, machine {mid}")
        elif not speed > 0:
            report.violations.append(f"nonpositive speed, machine {mid}")

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
        comm_min = min((s for row in p.comm_speed for s in row if s != math.inf), default=math.inf)
        if not min(demand) / max(p.speed) > 0:
            report.violations.append("times leave the float range: the smallest processing "
                                     "time, min(demand)/max(speed), rounds to 0")
        elif not finite(4 * (serial_sum(demand) / min(p.speed) + serial_sum(data) / comm_min)):
            report.violations.append("times leave the float range: 4 x the serial horizon, "
                                     "sum(demand)/min(speed) + sum(data)/min(comm_speed), "
                                     "overflows")

    return report


def _edge_columns_valid(g: TaskGraph) -> bool:
    """Whether every edge joins two tasks, none is a self or parallel edge,
    and all data is finite and nonnegative.  The ids are range-checked on
    the columns first, so only integer ids in 0..n-1 reach the int64 arrays,
    and every data value converts to a float."""
    n = g.n
    if not (min(g.src) >= 0 and max(g.src) < n and min(g.dst) >= 0 and max(g.dst) < n):
        return False
    src, dst, data = g.edge_columns()
    keys = src * n + dst                        # one key per (src, dst) pair
    keys.sort()
    return bool((src != dst).all() and (keys[1:] != keys[:-1]).all()
                and np.isfinite(data).all() and data.min() >= 0)


def topological_order(g: TaskGraph) -> list[int]:
    """Kahn's algorithm, always taking the lowest available id first; when
    every edge runs from a lower to a higher id that order is 0..n-1, and no
    heap is built.  The order is computed once per graph and shared: callers
    must not mutate it.  A cyclic graph raises CycleError on every call."""
    return g._topological_order


def normalize_demands(inst: Instance) -> tuple[Instance, float]:
    """Scale demands so the smallest processing time over any machine is >= 1.

    Returns the scaled instance and the multiplier applied to every demand
    (1.0 when the instance is already normalized); a multiplier that
    overflows raises InstanceError.  Data volumes and machine speeds are
    untouched, so communication times are preserved.
    """
    g = inst.graph
    # Rounded division is monotone, so this is the smallest demand/speed of any pair.
    min_ratio = min(g.demand) / max(inst.platform.speed)
    if min_ratio >= 1.0 - 1e-12:  # tolerate one ulp of drift: keeps this idempotent
        return inst, 1.0
    scale = 1.0 / min_ratio
    if scale == math.inf:
        raise InstanceError(f"demands cannot be normalized: the scale 1/{min_ratio!r} overflows")
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
        "machines": [{"id": i, "speed": v} for i, v in enumerate(inst.platform.speed)],
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
    leaves += chain.from_iterable(enumerate(p.speed))
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


def entry_columns(entries: list, required: tuple, optional: dict, message: str) -> list[list]:
    """One list per key over ``entries``: each ``required`` key read with
    ``itemgetter``, then each ``optional`` one with ``dict.get`` and its default.
    An entry that is not an object, or lacks a required key, raises InstanceError."""
    try:
        return ([list(map(itemgetter(key), entries)) for key in required]
                + [list(map(dict.get, entries, repeat(key), repeat(default)))
                   for key, default in optional.items()])
    except (KeyError, TypeError):  # a missing key; an entry that is not an object
        raise InstanceError(message) from None


def instance_from_dict(doc: dict) -> Instance:
    """The instance a JSON document describes.  Each check runs over whole
    columns; the per-entry checks run only to word the InstanceError of a
    check that failed, every violation in document order."""
    _require(isinstance(doc, dict), "instance document must be a JSON object")
    for key in ("tasks", "edges", "machines", "comm_speed"):
        _require(key in doc, f"missing field '{key}'")
    for key in ("tasks", "edges", "machines"):
        _require(isinstance(doc[key], list), f"'{key}' must be a list")
    for key in ("tasks", "machines"):
        _require(len(doc[key]) > 0, f"'{key}' must not be empty")

    task_ids, demands, weights = entry_columns(doc["tasks"], ("id", "demand"), {"weight": 0.0},
                                               "task entries need 'id' and 'demand'")
    srcs, dsts, data = entry_columns(doc["edges"], ("src", "dst"), {"data": 0.0},
                                     "edge entries need 'src' and 'dst'")
    machine_ids, speeds = entry_columns(doc["machines"], ("id", "speed"), {},
                                        "machine entries need 'id' and 'speed'")
    _require(isinstance(doc["comm_speed"], list)
             and all(isinstance(row, list) for row in doc["comm_speed"]),
             "'comm_speed' must be a matrix")

    comm = [s for row in doc["comm_speed"] for s in row if s is not None]
    id_types = set(map(type, chain(task_ids, srcs, dsts, machine_ids)))
    value_types = set(map(type, chain(demands, weights, data, speeds, comm)))
    if not id_types | value_types <= _NUMBER_TYPES:
        require_numbers((task_ids, demands, weights, srcs, dsts, data, machine_ids, speeds, comm),
                        "instance")
    if float in id_types:
        task_ids, machine_ids, srcs, dsts = (integer_ids(ids, "task, machine and edge")
                                             for ids in (task_ids, machine_ids, srcs, dsts))
    # float() returns a float unchanged, so only a group holding an int is
    # mapped through it (and may overflow).
    floats = tuple if value_types <= {float} else lambda col: tuple(map(float, col))
    try:
        graph = TaskGraph(floats(demands), floats(weights), tuple(srcs), tuple(dsts), floats(data))
        machines = list(map(Machine, map(float, speeds)))
        comm_rows = [tuple(math.inf if s is None else float(s) for s in row)
                     for row in doc["comm_speed"]]
    except OverflowError as exc:               # float() of an int beyond the float range
        raise InstanceError(f"instance values must be numbers: {exc}") from None

    inst = Instance(graph, Platform(tuple(machines), tuple(comm_rows)))
    report = _validate(inst, task_ids, machine_ids)
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
