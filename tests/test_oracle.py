import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.model import instance_from_dict
from getf.oracle import (MAKESPAN, MAX_MACHINES, MAX_TASKS, WEIGHTED, OracleLimitError,
                         brute_force_schedule, lower_bounds, restrict_platform)
from getf.scheduler import Schedule, verify_schedule

from conftest import make_instance


def reference_brute_force_schedule(inst, ignore_comm=False, objective=MAKESPAN):
    """The search as it read a (src, dst) -> data dict, zeroed every delay
    under ``ignore_comm``, and rebuilt its optimum with its own placement loop."""
    n = inst.graph.n
    m = inst.platform.m
    if n > MAX_TASKS or m > MAX_MACHINES:
        raise OracleLimitError("beyond the oracle's limits")
    g = inst.graph
    preds = g.predecessors()
    succs = g.successors()
    data_of = dict(zip(zip(g.src, g.dst), g.data))
    demand, weight, comm = g.demand, g.weight, inst.platform.comm_speed
    speed = [inst.platform.speed[i] for i in range(m)]

    best_value = math.inf
    best_assign = best_order = None
    assign = [0] * n
    indeg0 = [len(p) for p in preds]

    def place_rest(order, indeg, avail, finish, partial):
        nonlocal best_value, best_assign, best_order
        if partial >= best_value - 1e-15:
            return
        if len(order) == n:
            if partial < best_value - 1e-15:
                best_value, best_assign, best_order = partial, assign.copy(), order.copy()
            return
        for v in range(n):
            if indeg[v] != 0:
                continue
            i = assign[v]
            start = avail[i]
            for p in preds[v]:
                arrival = finish[p] + (
                    0.0 if ignore_comm else data_of[(p, v)] / comm[assign[p]][i])
                if arrival > start:
                    start = arrival
            end = start + demand[v] / speed[i]
            new_partial = max(partial, end) if objective == MAKESPAN \
                else partial + weight[v] * end
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

    def enumerate_assignments(j):
        if j == n:
            place_rest([], indeg0.copy(), [0.0] * m, {}, 0.0)
            return
        for i in range(m):
            assign[j] = i
            enumerate_assignments(j + 1)

    enumerate_assignments(0)
    sched = Schedule()
    avail = [0.0] * m
    for v in best_order:
        i = best_assign[v]
        start = avail[i]
        for p in preds[v]:
            arrival = sched.finish[p] + (
                0.0 if ignore_comm else data_of[(p, v)] / comm[best_assign[p]][i])
            if arrival > start:
                start = arrival
        sched.place(v, i, start, start + demand[v] / speed[i])
        avail[i] = sched.finish[v]
    return best_value, sched


@st.composite
def oracle_documents(draw) -> dict:
    """Small instance documents: edges listed in any order, some carrying no
    data, and ``null`` (infinite) communication speeds."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)) if a != b})
    edges = [{"src": a, "dst": b, "data": draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0]))}
             for a, b in pairs]
    values, weights = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.sampled_from([0.0, 1.0, 2.0])
    return {
        "tasks": [{"id": j, "demand": draw(values), "weight": draw(weights)} for j in range(n)],
        "edges": draw(st.permutations(edges)),
        "machines": [{"id": i, "speed": draw(values)} for i in range(m)],
        "comm_speed": [[draw(st.sampled_from([None, 0.5, 1.0, 2.0, 4.0])) for _ in range(m)]
                       for _ in range(m)],
    }


class TestBruteForce:
    def test_worked_example_zero_comm_optimum(self, example_instance):
        opt, sched = brute_force_schedule(example_instance, ignore_comm=True)
        # chain 0 -> 3 already needs 4 time units, and 4 is achievable
        assert opt == pytest.approx(4.0)
        assert sched.makespan() == pytest.approx(4.0)

    def test_single_task_takes_fastest(self):
        inst = make_instance([5.0], [], [1.0, 5.0], comm=1.0)
        opt, sched = brute_force_schedule(inst)
        assert opt == pytest.approx(1.0)
        assert sched.assignment[0] == 1

    def test_two_unit_tasks_two_machines(self):
        inst = make_instance([1.0, 1.0], [], [1.0, 1.0], comm=1.0)
        opt, _ = brute_force_schedule(inst, ignore_comm=True)
        assert opt == pytest.approx(1.0)

    def test_comm_never_helps(self):
        rng = random.Random(13)
        for k in range(12):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 5),
                                 m=rng.randint(1, 3), seed=1000 + k, density=0.5)
            inst = generate_instance(spec)
            with_comm, s1 = brute_force_schedule(inst)
            without, s2 = brute_force_schedule(inst, ignore_comm=True)
            assert without <= with_comm + 1e-9
            assert verify_schedule(inst, s1).feasible

    def test_weighted_objective(self):
        # one machine: shortest-first is optimal for total completion time
        inst = make_instance([1.0, 4.0], [], [1.0], comm=None,
                             weights=[1.0, 1.0])
        val, sched = brute_force_schedule(inst, objective=WEIGHTED)
        assert val == pytest.approx(1.0 + 5.0)
        assert sched.start[0] == 0.0

    def test_limits_enforced(self):
        inst = make_instance([1.0] * 8, [], [1.0], comm=1.0)
        with pytest.raises(OracleLimitError):
            brute_force_schedule(inst)

    def test_unknown_objective_refused(self):
        inst = make_instance([1.0], [], [1.0], comm=None)
        with pytest.raises(ValueError, match="unknown objective 'bogus'"):
            brute_force_schedule(inst, objective="bogus")

    @given(oracle_documents())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, doc):
        inst = instance_from_dict(doc)
        for objective in (MAKESPAN, WEIGHTED):
            for ignore_comm in (False, True):
                value, sched = brute_force_schedule(inst, ignore_comm, objective)
                ref_value, ref_sched = reference_brute_force_schedule(inst, ignore_comm, objective)
                assert value == ref_value
                assert sched.to_json(inst) == ref_sched.to_json(inst)

    def test_deterministic(self, example_instance):
        a = brute_force_schedule(example_instance, ignore_comm=True)
        b = brute_force_schedule(example_instance, ignore_comm=True)
        assert a[0] == b[0]
        assert a[1].to_dict(example_instance) == b[1].to_dict(example_instance)


class TestLowerBounds:
    def test_worked_example(self, example_instance):
        work, chain = lower_bounds(example_instance)
        assert work == pytest.approx(3.0)   # total demand 6 over total speed 2
        assert chain == pytest.approx(4.0)  # heaviest path 0 -> 3 at speed 1

    def test_single_task(self):
        inst = make_instance([6.0], [], [2.0, 1.0], comm=1.0)
        work, chain = lower_bounds(inst)
        assert work == pytest.approx(2.0)
        assert chain == pytest.approx(3.0)

    def test_independent_tasks(self):
        inst = make_instance([1.0, 5.0, 2.0], [], [1.0, 2.0], comm=1.0)
        _, chain = lower_bounds(inst)
        assert chain == pytest.approx(5.0 / 2.0)

    def test_bounds_below_exact_optimum(self):
        rng = random.Random(17)
        for k in range(15):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 6),
                                 m=rng.randint(1, 3), seed=1100 + k, density=0.4,
                                 data_range=(0.0, 0.0))
            inst = generate_instance(spec)
            opt, _ = brute_force_schedule(inst, ignore_comm=True)
            work, chain = lower_bounds(inst)
            assert max(work, chain) <= opt * (1 + 1e-9) + 1e-12


def test_restrict_platform_renumbers(example_instance):
    sub = restrict_platform(example_instance, (1,))
    assert sub.platform.m == 1
    assert sub.platform.comm_speed[0][0] == 2.0
