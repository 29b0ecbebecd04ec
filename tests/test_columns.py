"""The task graph is held as columns.

Validation over the columns gives the violations, text and order, of the
per-record validation it replaced (kept below as the reference), and the
whole loader gives the messages or the instance of a reference that checks
one value at a time; the topological order is Kahn's; the load,
schedule, verify, report, oracle and write path builds no ``Task`` record;
every layer reads the platform's ``speed`` column, never a machine record;
the bound reports look an edge up by its endpoints in one place; and the
``tasks`` view and the predecessor data agree with the columns.
"""

import ast
import heapq
import inspect
import json
import math
import re
from collections import deque, namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from getf import analysis, cli, pipeline
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import (assign_groups_makespan, assign_groups_weighted, partition_machines,
                           solve_makespan_relaxation, solve_weighted_relaxation,
                           trivial_assignment)
from getf.model import (CycleError, Instance, InstanceError, Machine, Platform, Task, TaskGraph,
                        load_instance, normalize_demands, parse_instance, serialize_instance,
                        topological_order, validate_instance)
from getf.oracle import MAKESPAN, WEIGHTED, brute_force_schedule, lower_bounds, restrict_platform
from getf.scheduler import TieBreak, getf_schedule, sls_schedule, verify_schedule

RefTask = namedtuple("RefTask", "id demand weight")
RefEdge = namedtuple("RefEdge", "src dst data")
RefMachine = namedtuple("RefMachine", "id speed")


def reference_violations(doc: dict) -> list[str]:
    """The violations of a well-shaped document, found one record at a time."""
    tasks = [RefTask(t["id"], float(t["demand"]), float(t.get("weight", 0.0)))
             for t in doc["tasks"]]
    edges = [RefEdge(e["src"], e["dst"], float(e.get("data", 0.0))) for e in doc["edges"]]
    machines = [RefMachine(mc["id"], float(mc["speed"])) for mc in doc["machines"]]
    comm = [[math.inf if s is None else float(s) for s in row] for row in doc["comm_speed"]]
    n, m, violations = len(tasks), len(machines), []

    for idx, task in enumerate(tasks):
        if task.id != idx:
            violations.append(f"task ids must be dense 0..n-1, found {task.id} at position {idx}")
        if not math.isfinite(task.demand):
            violations.append(f"non-finite demand, task {task.id}")
        elif not task.demand > 0:
            violations.append(f"nonpositive demand, task {task.id}")
        if not math.isfinite(task.weight):
            violations.append(f"non-finite weight, task {task.id}")
        elif task.weight < 0:
            violations.append(f"negative weight, task {task.id}")

    seen_pairs = set()
    for e in edges:
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            violations.append(f"edge ({e.src},{e.dst}) references missing task")
            continue
        if e.src == e.dst:
            violations.append(f"self edge on task {e.src}")
        if (e.src, e.dst) in seen_pairs:
            violations.append(f"parallel edge ({e.src},{e.dst})")
        seen_pairs.add((e.src, e.dst))
        if not math.isfinite(e.data):
            violations.append(f"non-finite data on edge ({e.src},{e.dst})")
        elif e.data < 0:
            violations.append(f"negative data on edge ({e.src},{e.dst})")

    for idx, mac in enumerate(machines):
        if mac.id != idx:
            violations.append(f"machine ids must be dense 0..m-1, found {mac.id} at position {idx}")
        if not math.isfinite(mac.speed):
            violations.append(f"non-finite speed, machine {mac.id}")
        elif not mac.speed > 0:
            violations.append(f"nonpositive speed, machine {mac.id}")

    if len(comm) != m or any(len(row) != m for row in comm):
        violations.append(f"comm_speed must be {m}x{m}")
    else:
        for i, row in enumerate(comm):
            for j, s in enumerate(row):
                if s == math.inf:
                    continue
                if not math.isfinite(s):
                    violations.append(f"non-finite comm speed, pair ({i},{j})")
                elif not s > 0:
                    violations.append(f"nonpositive comm speed, pair ({i},{j})")

    if not violations:
        indeg = [0] * n
        for e in edges:
            indeg[e.dst] += 1
        ready, done = deque(j for j in range(n) if indeg[j] == 0), set()
        while ready:
            v = ready.popleft()
            done.add(v)
            for e in edges:
                if e.src == v:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        ready.append(e.dst)
        if len(done) != n:
            violations.append(f"cycle detected among tasks {sorted(set(range(n)) - done)}")
    return violations


# Values that break a demand, weight, data or speed check, or sit on its edge.
POISON = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5]


def value(draw):
    if draw(st.integers(0, 11)) == 0:
        return draw(st.sampled_from(POISON))
    return draw(st.floats(0.25, 4.0))


@st.composite
def documents(draw) -> dict:
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    ids = list(range(n))
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, n - 1))
        ids[k] = draw(st.sampled_from([-1, n, n + 3, (k + 1) % n]))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9)) if a != b})
    kind = draw(st.integers(0, 3))
    if kind == 1 and pairs:  # a two-cycle
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs))[::-1])
    elif kind == 2:  # dangling, self, parallel or backward edges
        pairs += draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3))
    return {
        "tasks": [{"id": j, "demand": value(draw), "weight": value(draw)} for j in ids],
        "edges": [{"src": a, "dst": b, "data": value(draw)} for a, b in pairs],
        "machines": [{"id": i, "speed": value(draw)} for i in range(m)],
        "comm_speed": [[None if draw(st.booleans()) else value(draw) for _ in range(m)]
                       for _ in range(m)],
    }


EVERY_VIOLATION = {
    "tasks": [{"id": 0, "demand": math.nan, "weight": -1.0}, {"id": 5, "demand": 0.0},
              {"id": 2, "demand": 1.0, "weight": math.inf}, {"id": 3, "demand": -math.inf}],
    "edges": [{"src": 0, "dst": 4}, {"src": 1, "dst": 1, "data": -2.0},
              {"src": 0, "dst": 1}, {"src": 0, "dst": 1, "data": math.nan},
              {"src": -1, "dst": 0}, {"src": 2, "dst": 0, "data": math.inf}],
    "machines": [{"id": 1, "speed": 0.0}, {"id": 1, "speed": math.nan}],
    "comm_speed": [[None, 0.0], [-math.inf, 1.0]],
}
CYCLE = {
    "tasks": [{"id": j, "demand": 1.0, "weight": 0.0} for j in range(4)],
    "edges": [{"src": a, "dst": b, "data": 1.0} for a, b in ((0, 1), (1, 2), (2, 1), (3, 0))],
    "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[None]],
}


class TestValidationParity:
    @given(documents())
    @example(EVERY_VIOLATION)
    @example(CYCLE)
    @settings(max_examples=300, deadline=None)
    def test_loader_matches_the_per_record_reference(self, doc):
        expected = reference_violations(doc)
        if expected:
            with pytest.raises(InstanceError) as exc:
                parse_instance(json.dumps(doc))
            assert str(exc.value) == "; ".join(expected)
        else:
            g = parse_instance(json.dumps(doc)).graph
            assert g.demand == tuple(float(t["demand"]) for t in doc["tasks"])
            assert g.weight == tuple(float(t["weight"]) for t in doc["tasks"])
            assert g.src == tuple(e["src"] for e in doc["edges"])
            assert g.dst == tuple(e["dst"] for e in doc["edges"])
            assert g.data == tuple(float(e["data"]) for e in doc["edges"])

    @given(documents())
    @example(CYCLE)
    @settings(max_examples=200, deadline=None)
    def test_validate_instance_matches_the_reference(self, doc):
        # A graph numbers its tasks and a platform its machines by position,
        # so only dense ids carry over.
        doc = {**doc, "tasks": [{**t, "id": j} for j, t in enumerate(doc["tasks"])],
               "machines": [{**mc, "id": i} for i, mc in enumerate(doc["machines"])]}
        inst = Instance(
            TaskGraph(tuple(t["demand"] for t in doc["tasks"]),
                      tuple(t["weight"] for t in doc["tasks"]),
                      tuple(e["src"] for e in doc["edges"]), tuple(e["dst"] for e in doc["edges"]),
                      tuple(e["data"] for e in doc["edges"])),
            Platform(tuple(Machine(mc["speed"]) for mc in doc["machines"]),
                     tuple(tuple(math.inf if s is None else s for s in row)
                           for row in doc["comm_speed"])))
        assert validate_instance(inst).violations == reference_violations(doc)

    @pytest.mark.parametrize("columns, message", [
        (((1.0, 1.0), (0.0,), (0,), (1,), (0.0,)),
         "task columns differ in length: demand 2, weight 1"),
        (((1.0, 1.0), (0.0, 0.0), (0, 0), (1,), (0.0, 0.0)),
         "edge columns differ in length: src 2, dst 1, data 2"),
        (((1.0, 1.0), (0.0, 0.0), (0,), (1,), ()),
         "edge columns differ in length: src 1, dst 1, data 0"),
    ])
    def test_columns_of_different_lengths(self, columns, message):
        inst = Instance(TaskGraph(*columns), Platform((Machine(1.0),), ((math.inf,),)))
        assert validate_instance(inst).violations == [message]

    @pytest.mark.parametrize("src", [(math.nan, 0), (0, math.nan), (-0.5, 0), (0, 5.5)])
    def test_ids_no_int_array_holds(self, src):
        # A graph built in code can hold ids the loader refuses.  A NaN passes
        # min and max, and an int64 array would truncate -0.5 to 0.
        inst = Instance(TaskGraph((1.0, 1.0), (0.0, 0.0), src, (1, 1), (1.0, 1.0)),
                        Platform((Machine(1.0),), ((math.inf,),)))
        doc = document(list(zip(src, (1, 1))), n=2)
        assert validate_instance(inst).violations == reference_violations(doc)

    def test_every_violation_in_order(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(json.dumps(EVERY_VIOLATION))
        assert str(exc.value).split("; ") == [
            "non-finite demand, task 0", "negative weight, task 0",
            "task ids must be dense 0..n-1, found 5 at position 1", "nonpositive demand, task 5",
            "non-finite weight, task 2", "non-finite demand, task 3",
            "edge (0,4) references missing task", "self edge on task 1",
            "negative data on edge (1,1)", "parallel edge (0,1)", "non-finite data on edge (0,1)",
            "edge (-1,0) references missing task", "non-finite data on edge (2,0)",
            "machine ids must be dense 0..m-1, found 1 at position 0",
            "nonpositive speed, machine 1", "non-finite speed, machine 1",
            "nonpositive comm speed, pair (0,1)", "non-finite comm speed, pair (1,0)",
        ]


def kahn_order(g: TaskGraph) -> list[int]:
    """Kahn's algorithm, lowest ready id first, on a heap: the loop that
    ordered every graph before forward-numbered ones skipped it."""
    preds: list[list[int]] = [[] for _ in range(g.n)]
    succs: list[list[int]] = [[] for _ in range(g.n)]
    for s, d in zip(g.src, g.dst):
        preds[d].append(s)
        succs[s].append(d)
    indeg = [len(p) for p in preds]
    ready = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != g.n:
        raise CycleError(f"cycle detected among tasks {sorted(set(range(g.n)) - set(order))}")
    return order


def reference_load(doc: dict):
    """What the loader gives for a well-shaped document, found one value at a
    time: the InstanceError message, or the graph as its columns, topological
    order, predecessors, predecessor data and successors."""
    tasks, edges, machines = doc["tasks"], doc["edges"], doc["machines"]
    task_ids, src, dst, machine_ids = ([e[key] for e in entries] for entries, key in (
        (tasks, "id"), (edges, "src"), (edges, "dst"), (machines, "id")))
    demand, weight = [t["demand"] for t in tasks], [t.get("weight", 0.0) for t in tasks]
    data, speed = [e.get("data", 0.0) for e in edges], [mc["speed"] for mc in machines]
    comm = [s for row in doc["comm_speed"] for s in row if s is not None]
    for column in (task_ids, demand, weight, src, dst, data, machine_ids, speed, comm):
        for v in column:
            if type(v) not in (int, float):
                return f"instance values must be numbers: got {v!r}"
    for column in (task_ids, machine_ids, src, dst):
        for v in column:
            if type(v) is float and not v.is_integer():
                return f"task, machine and edge ids must be integers: got {v!r}"
    for column in (demand, weight, data, speed, comm):
        for v in column:
            try:
                float(v)
            except OverflowError as exc:
                return f"instance values must be numbers: {exc}"
    task_ids, src, dst, machine_ids = ([int(v) for v in c] for c in (task_ids, src, dst, machine_ids))
    plain = {
        "tasks": [{"id": j, "demand": d, "weight": w} for j, d, w in zip(task_ids, demand, weight)],
        "edges": [{"src": s, "dst": d, "data": w} for s, d, w in zip(src, dst, data)],
        "machines": [{"id": i, "speed": v} for i, v in zip(machine_ids, speed)],
        "comm_speed": doc["comm_speed"],
    }
    violations = reference_violations(plain)
    if violations:
        return "; ".join(violations)
    n = len(tasks)
    preds, pred_data, succs = [[] for _ in range(n)], [[] for _ in range(n)], [[] for _ in range(n)]
    for s, d, w in zip(src, dst, data):
        preds[d].append(s)
        pred_data[d].append(float(w))
        succs[s].append(d)
    columns = (tuple(map(float, demand)), tuple(map(float, weight)), tuple(src), tuple(dst),
               tuple(map(float, data)))
    return columns, kahn_order(TaskGraph(*columns)), preds, pred_data, succs


def assert_loads_like_the_reference(doc: dict) -> None:
    expected = reference_load(doc)
    if isinstance(expected, str):
        with pytest.raises(InstanceError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == expected
    else:
        g = parse_instance(json.dumps(doc)).graph
        columns = (g.demand, g.weight, g.src, g.dst, g.data)
        assert repr(columns) == repr(expected[0])          # values and their types
        assert (topological_order(g), g.predecessors(), g.predecessor_data(),
                g.successors()) == expected[1:]


ID_KEYS = {"tasks": ("id",), "edges": ("src", "dst"), "machines": ("id",)}
VALUE_KEYS = {"tasks": ("demand", "weight"), "edges": ("data",), "machines": ("speed",)}


@st.composite
def loader_documents(draw) -> dict:
    """``documents()`` with the tasks relabelled, so an edge need not run
    forward, and up to three values replaced: an id by an integer-valued
    or fractional float or an int beyond int64, any value by a boolean, a
    string, an int beyond the float range or a plain int."""
    doc = draw(documents())
    n = len(doc["tasks"])
    label = draw(st.permutations(range(n)))
    doc["edges"] = [{**e, "src": label[e["src"]] if 0 <= e["src"] < n else e["src"],
                     "dst": label[e["dst"]] if 0 <= e["dst"] < n else e["dst"]}
                    for e in doc["edges"]]
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(["tasks", "edges", "machines", "comm_speed"]))
        if section == "comm_speed":
            row = draw(st.sampled_from(doc["comm_speed"]))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([True, "1", 2 ** 1024]))
            continue
        if not doc[section]:
            continue
        entry = draw(st.sampled_from(doc[section]))
        key = draw(st.sampled_from(ID_KEYS[section] + VALUE_KEYS[section]))
        v = entry[key] if type(entry[key]) is int else 0
        if key in ID_KEYS[section]:
            entry[key] = draw(st.sampled_from([float(v), v + 0.5, 2 ** 64 + v, -2 ** 63 - 1 - v,
                                               float(2 ** 70), False, "0"]))
        else:
            entry[key] = draw(st.sampled_from([True, "1.0", 2 ** 1024, 3]))
    return doc


def document(edges, n=4, **tasks) -> dict:
    """A valid document with these (src, dst) edges, one machine, and task
    fields overridden by ``tasks`` (a key maps to a list over the tasks)."""
    fields = {"id": list(range(n)), "demand": [1.0] * n, "weight": [0.0] * n, **tasks}
    return {
        "tasks": [dict(zip(fields, values)) for values in zip(*fields.values())],
        "edges": [{"src": a, "dst": b, "data": 1.0} for a, b in edges],
        "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[None]],
    }


NOT_FORWARD = document([(3, 1), (1, 0), (3, 2), (2, 0)])
FLOAT_IDS = {**document([(0, 1), (1, 3)], id=[0.0, 1.0, 2.0, 3.0]),
             "machines": [{"id": 0.0, "speed": 1.0}]}
FLOAT_ENDPOINTS = document([(0.0, 2.0), (2, 1.0), (3.0, 1)])
BEYOND_INT64 = document([(0, 2 ** 64), (2 ** 63, 1), (-2 ** 63 - 1, 2), (1, 2)])
BEYOND_INT64_IDS = {**document([(0, 1)], id=[0, 2 ** 64, 2, -2 ** 70]),
                    "machines": [{"id": 2 ** 65, "speed": 1.0}]}
MIXED_EDGES = document([(0, 1), (1, 1), (0, 1), (4, 1), (2, 2), (-1, 3), (0, 1), (2, 3),
                        (3, 9), (2, 3)])


class TestLoaderParity:
    @given(loader_documents())
    @example(NOT_FORWARD)
    @example(FLOAT_IDS)
    @example(FLOAT_ENDPOINTS)
    @example(BEYOND_INT64)
    @example(BEYOND_INT64_IDS)
    @example(MIXED_EDGES)
    @example(CYCLE)
    @example(EVERY_VIOLATION)
    @settings(max_examples=300, deadline=None)
    def test_loader_matches_the_reference_loader(self, doc):
        assert_loads_like_the_reference(doc)

    @pytest.mark.parametrize("bad", [True, False, "1", "x"])
    @pytest.mark.parametrize("section, key", [
        (section, key) for section in ID_KEYS for key in ID_KEYS[section] + VALUE_KEYS[section]
    ] + [("comm_speed", None)])
    def test_booleans_and_strings_in_every_column(self, section, key, bad):
        doc = document([(0, 1), (2, 3)])
        if section == "comm_speed":
            doc["comm_speed"] = [[bad]]
        else:
            doc[section][-1][key] = bad
        assert reference_load(doc) == f"instance values must be numbers: got {bad!r}"
        assert_loads_like_the_reference(doc)

    def test_the_examples_reach_their_cases(self):
        assert isinstance(reference_load(NOT_FORWARD)[0], tuple)
        assert reference_load(NOT_FORWARD)[1] == [3, 1, 2, 0]
        assert isinstance(reference_load(FLOAT_IDS)[0], tuple)
        assert isinstance(reference_load(FLOAT_ENDPOINTS)[0], tuple)
        assert reference_load(BEYOND_INT64).split("; ") == [
            f"edge (0,{2 ** 64}) references missing task",
            f"edge ({2 ** 63},1) references missing task",
            f"edge ({-2 ** 63 - 1},2) references missing task"]
        assert reference_load(BEYOND_INT64_IDS).split("; ") == [
            f"task ids must be dense 0..n-1, found {2 ** 64} at position 1",
            f"task ids must be dense 0..n-1, found {-2 ** 70} at position 3",
            f"machine ids must be dense 0..m-1, found {2 ** 65} at position 0"]
        assert reference_load(MIXED_EDGES).split("; ") == [
            "self edge on task 1", "parallel edge (0,1)", "edge (4,1) references missing task",
            "self edge on task 2", "edge (-1,3) references missing task", "parallel edge (0,1)",
            "edge (3,9) references missing task", "parallel edge (2,3)"]


@st.composite
def task_graphs(draw) -> TaskGraph:
    """A random DAG, forward-numbered or relabelled, sometimes with one
    edge reversed into a cycle."""
    n = draw(st.integers(0, 12))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=30))
        if a != b})
    if draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        pairs = [(label[a], label[b]) for a, b in pairs]
    pairs = draw(st.permutations(pairs))
    if pairs and draw(st.integers(0, 3)) == 0:           # a back edge along a path of two
        a, b = draw(st.sampled_from(pairs))
        pairs.append((b, a))
    return TaskGraph((1.0,) * n, (0.0,) * n, tuple(a for a, _ in pairs),
                     tuple(b for _, b in pairs), (1.0,) * len(pairs))


class TestTopologicalOrder:
    @given(task_graphs())
    @settings(max_examples=300, deadline=None)
    def test_equals_kahns_order(self, g):
        try:
            expected = kahn_order(g)
        except CycleError as exc:
            for _ in range(2):                          # on every call
                with pytest.raises(CycleError, match=re.escape(str(exc))):
                    topological_order(g)
            return
        assert topological_order(g) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_graphs_run_forward(self, family):
        g = generate_instance(GeneratorSpec(family=family, n=40, m=2, seed=5, density=0.3)).graph
        assert all(a < b for a, b in zip(g.src, g.dst))
        assert topological_order(g) == list(range(g.n)) == kahn_order(g)


@pytest.fixture
def no_records(monkeypatch):
    """Make building a Task record fail."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was built")
    monkeypatch.setattr(Task, "__init__", refuse)


def test_hot_path_builds_no_records(tmp_path, no_records, capsys):
    path = tmp_path / "inst.json"
    inst = generate_instance(GeneratorSpec(family="layered", n=40, m=4, seed=3, density=0.2,
                                           weights="uniform"))
    path.write_text(serialize_instance(inst), encoding="utf-8")
    inst = load_instance(str(path))
    f = trivial_assignment(inst)
    sched = sls_schedule(inst, f, topological_order(inst.graph))
    assert verify_schedule(inst, sched).feasible
    assert analysis.separation_report(sched, inst, f, f.groups).inequalities
    assert sorted(analysis.per_task_chain_comm(sched, inst, f)) == list(range(inst.graph.n))
    assert sched.to_json(inst).startswith("{")
    assert normalize_demands(inst)[0].graph.n == inst.graph.n
    for algo in ("etf", "getf-makespan"):
        assert cli.main(["solve", str(path), "--algo", algo, "-o", str(tmp_path / "s.json")]) \
            == cli.EXIT_OK
    with pytest.raises(AssertionError, match="Task record was built"):
        inst.graph.tasks

    # Identical speeds for identical_report; n and m within the oracle's limits.
    small = generate_instance(GeneratorSpec(family="random_dag", n=6, m=2, seed=3, density=0.5,
                                            speed_range=(1.0, 1.0), weights="uniform"))
    for objective in (MAKESPAN, WEIGHTED):
        for ignore_comm in (False, True):
            assert brute_force_schedule(small, ignore_comm, objective)[1].assignment
    opt, best = brute_force_schedule(small, ignore_comm=True)
    assert analysis.identical_report(best, small, opt_ignore_comm=opt).inequalities
    groups = partition_machines(small.platform)
    frac = solve_makespan_relaxation(small, groups)
    f = assign_groups_makespan(frac, groups)
    sched = getf_schedule(small, f, TieBreak.by_index())
    assert analysis.makespan_theorem_report(sched, small, f, frac.T).inequalities
    wsol = solve_weighted_relaxation(small, groups)
    f = assign_groups_weighted(wsol, groups)
    sched = getf_schedule(small, f, TieBreak.by_index())
    assert analysis.weighted_theorem_report(sched, small, f, wsol).inequalities


class CountingMachine:
    """A machine record that counts reads of its speed."""

    reads = 0

    def __init__(self, speed):
        self._speed = speed

    @property
    def speed(self):
        CountingMachine.reads += 1
        return self._speed


def test_every_layer_reads_the_speed_column(monkeypatch):
    # n and m within the oracle's limits; uniform weights for the weighted route.
    base = generate_instance(GeneratorSpec(family="random_dag", n=6, m=3, seed=3, density=0.5,
                                           weights="uniform"))
    records = tuple(CountingMachine(mc.speed) for mc in base.platform.machines)
    inst = Instance(base.graph, Platform(records, base.platform.comm_speed))
    assert validate_instance(inst).ok
    assert inst.platform.speed == base.platform.speed
    monkeypatch.setattr(CountingMachine, "reads", 0)

    for algo in pipeline.ALGORITHMS:
        sched, f = pipeline.run(inst, algo, TieBreak.by_index())
        assert verify_schedule(inst, sched, f).feasible
        assert analysis.separation_report(sched, inst, f, f.groups).inequalities
        assert sorted(analysis.per_task_chain_comm(sched, inst, f)) == list(range(inst.graph.n))
    with pytest.raises(analysis.AnalysisError):
        analysis.identical_report(sched, inst)
    groups = partition_machines(inst.platform)
    frac = solve_makespan_relaxation(inst, groups)
    f = assign_groups_makespan(frac, groups)
    sched = getf_schedule(inst, f, TieBreak.by_index())
    assert analysis.makespan_theorem_report(sched, inst, f, frac.T).inequalities
    normalized, _ = normalize_demands(inst)
    wsol = solve_weighted_relaxation(normalized, groups)
    f = assign_groups_weighted(wsol, groups)
    sched = getf_schedule(normalized, f, TieBreak.by_index())
    assert analysis.weighted_theorem_report(sched, normalized, f, wsol).inequalities
    for objective in (MAKESPAN, WEIGHTED):
        for ignore_comm in (False, True):
            assert brute_force_schedule(inst, ignore_comm, objective)[1].assignment
    assert all(b > 0 for b in lower_bounds(inst))
    assert restrict_platform(inst, (0, 2)).platform.speed == inst.platform.speed[::2]
    assert CountingMachine.reads == 0


def test_reports_look_up_edges_in_one_place():
    # Every link cost takes the data its caller holds; only ``_links``, which
    # reads a finished chain's links, finds an edge's data by its endpoints.
    source = inspect.getsource(analysis)
    assert source.count(".index(") == inspect.getsource(analysis._links).count(".index(") > 0
    defaulted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted += positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    assert "data" not in {arg.arg for arg in defaulted}


class TestViews:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_views_equal_the_columns_and_are_built_once(self, family):
        g = generate_instance(GeneratorSpec(family=family, n=30, m=3, seed=7, density=0.3,
                                            weights="uniform")).graph
        assert g.tasks is g.tasks
        assert g.tasks == tuple(Task(j, d, w) for j, d, w in zip(range(g.n), g.demand, g.weight))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_predecessor_data_lines_up_with_predecessors(self, family):
        g = generate_instance(GeneratorSpec(family=family, n=30, m=3, seed=7, density=0.3)).graph
        assert g.predecessor_data() is g.predecessor_data()
        for j, (preds, data) in enumerate(zip(g.predecessors(), g.predecessor_data())):
            assert list(zip(preds, data)) == [(s, w) for s, d, w in zip(g.src, g.dst, g.data)
                                              if d == j]

    def test_columns_are_tuples(self):
        g = generate_instance(GeneratorSpec(family="random_dag", n=12, m=2, seed=1)).graph
        assert all(type(c) is tuple for c in (g.demand, g.weight, g.src, g.dst, g.data))
        g = parse_instance(serialize_instance(Instance(g, Platform((Machine(1.0),),
                                                                   ((1.0,),))))).graph
        assert all(type(c) is tuple for c in (g.demand, g.weight, g.src, g.dst, g.data))

    def test_normalize_shares_the_edge_columns(self):
        inst = generate_instance(GeneratorSpec(family="layered", n=12, m=2, seed=1,
                                               demand_range=(0.1, 0.5)))
        scaled, scale = normalize_demands(inst)
        assert scale > 1.0
        for name in ("weight", "src", "dst", "data"):
            assert getattr(scaled.graph, name) is getattr(inst.graph, name)
        assert scaled.graph.demand == tuple(d * scale for d in inst.graph.demand)

