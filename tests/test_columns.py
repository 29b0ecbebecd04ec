"""The task graph is held as columns.

Validation over the columns gives the violations, text and order, of the
per-record validation it replaced (kept below as the reference); the load,
schedule, verify, report, oracle and write path builds no ``Task`` record;
and the ``tasks`` view and the predecessor data agree with the columns.
"""

import json
import math
from collections import deque, namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from getf import analysis, cli
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import (assign_groups_makespan, assign_groups_weighted, partition_machines,
                           solve_makespan_relaxation, solve_weighted_relaxation,
                           trivial_assignment)
from getf.model import (Instance, InstanceError, Machine, Platform, Task, TaskGraph,
                        load_instance, normalize_demands, parse_instance, serialize_instance,
                        topological_order, validate_instance)
from getf.oracle import MAKESPAN, WEIGHTED, brute_force_schedule
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
        # A graph numbers its tasks by position, so only dense ids carry over.
        doc = {**doc, "tasks": [{**t, "id": j} for j, t in enumerate(doc["tasks"])]}
        inst = Instance(
            TaskGraph(tuple(t["demand"] for t in doc["tasks"]),
                      tuple(t["weight"] for t in doc["tasks"]),
                      tuple(e["src"] for e in doc["edges"]), tuple(e["dst"] for e in doc["edges"]),
                      tuple(e["data"] for e in doc["edges"])),
            Platform(tuple(Machine(mc["id"], mc["speed"]) for mc in doc["machines"]),
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
        inst = Instance(TaskGraph(*columns), Platform((Machine(0, 1.0),), ((math.inf,),)))
        assert validate_instance(inst).violations == [message]

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
    assert analysis.makespan_theorem_report(sched, small, f, groups, frac.T).inequalities
    wsol = solve_weighted_relaxation(small, groups)
    f = assign_groups_weighted(wsol, groups)
    sched = getf_schedule(small, f, TieBreak.by_index())
    assert analysis.weighted_theorem_report(sched, small, f, groups, wsol).inequalities


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
        g = parse_instance(serialize_instance(Instance(g, Platform((Machine(0, 1.0),),
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

