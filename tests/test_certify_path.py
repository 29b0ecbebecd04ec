"""The certify path's shortcuts against the code they replaced, kept here as
references:

  * ``earliest_start`` skips a predecessor whose data reaches every
    machine of the set by the smallest start the walk began from, read
    from the platform's ``slowest_into`` table; its starts equal those of
    ``reference_earliest_start``, which walks every predecessor;
  * ``verify_schedule`` decides with whole-array checks and runs its item
    loops only to word a failed check; its violations, text and order,
    equal those of ``loop_verify_schedule``, which always runs the loops;
  * the chain table reads each link's data aligned with the predecessor
    list; its values equal those of a table that finds the data with
    ``list.index``, also on graphs whose edges do not run forward.
"""

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf import analysis
from getf.analysis import latest_finishing, per_task_chain_comm, separation_report
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import GroupAssignment, trivial_assignment
from getf.model import Instance, Platform, TaskGraph, topological_order
from getf.scheduler import (VERIFY_TOL, FeasibilityReport, Schedule, SchedulingError, TieBreak,
                            _scan, earliest_start, getf_schedule, sls_schedule, verify_schedule)

from conftest import make_instance
from test_scheduler import (random_band_assignment, random_topological_order,
                            split_band_assignment, tie_heavy_instance)


# ---------------------------------------------------------------------------
# earliest_start's skipped predecessors
# ---------------------------------------------------------------------------

def reference_earliest_start(task, machines, avail, partial, inst):
    """Every predecessor's arrival on every machine, one at a time."""
    starts = [avail[i] for i in machines]
    comm = inst.platform.comm_speed
    for p, data in zip(inst.graph.predecessors()[task], inst.graph.predecessor_data()[task]):
        if p not in partial.assignment:
            raise SchedulingError(f"predecessor {p} of task {task} is not scheduled")
        for k, i in enumerate(machines):
            starts[k] = max(starts[k], partial.finish[p] + data / comm[partial.assignment[p]][i])
    return starts


def varied_instance(rng, seed):
    """A generated instance, tie-heavy or not, with some comm speeds made
    infinite and some edges made to carry no data."""
    flat = rng.random() < 0.4
    inst = generate_instance(GeneratorSpec(
        family=FAMILIES[seed % 3], n=rng.randint(2, 25), m=rng.randint(1, 6), seed=seed,
        density=rng.choice([0.2, 0.5]), self_comm=rng.choice(["matrix", "infinite"]),
        data_range=(1.0, 1.0) if flat else rng.choice([(0.0, 4.0), (0.5, 2.0)]),
        demand_range=(1.0, 1.0) if flat else (1.0, 4.0),
        comm_range=(2.0, 2.0) if flat else (0.5, 4.0),
        speed_range=(1.0, 1.0) if flat else (0.5, 2.0)))
    comm = tuple(tuple(math.inf if rng.random() < 0.2 else c for c in row)
                 for row in inst.platform.comm_speed)
    data = tuple(0.0 if rng.random() < 0.2 else d for d in inst.graph.data)
    return Instance(dataclasses.replace(inst.graph, data=data),
                    Platform(inst.platform.machines, comm))


def machine_sets(rng, inst, band):
    """The task's band, the whole platform and a random nonempty subset, each
    as a tuple, a list, an ndarray and, where it is one, a range."""
    m = inst.platform.m
    subset = sorted(rng.sample(range(m), rng.randint(1, m)))
    for ms in (band, range(m), subset):
        yield from (tuple(ms), list(ms), np.array(ms, dtype=int))
    yield range(m)


class TestSkippedPredecessors:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_starts_as_the_full_walk(self, seed, tied):
        rng = random.Random(seed)
        if tied:
            inst = tie_heavy_instance(rng)
            f = split_band_assignment(inst, rng)
        else:
            inst = varied_instance(rng, seed)
            f = random_band_assignment(inst, rng)
        sched, avail = Schedule(), [0.0] * inst.platform.m
        for j in random_topological_order(inst, rng):
            band = f.machines_for(j)
            for ms in machine_sets(rng, inst, band):
                got = earliest_start(j, ms, avail, sched, inst)
                assert type(got) is list
                assert got == reference_earliest_start(j, ms, avail, sched, inst)
            # Placed as SLS places it, with machine ties to the lowest id.
            t, i, _ = _scan(band, earliest_start(j, band, avail, sched, inst),
                            range(inst.platform.m))
            sched.place(j, i, t, t + inst.graph.demand[j] / inst.platform.speed[i])
            avail[i] = sched.finish[j]

    def test_unscheduled_predecessor_checked_before_the_skip(self, example_instance):
        # Both machines are free late, but task 3's predecessors are not placed.
        with pytest.raises(SchedulingError, match="predecessor 0 of task 3"):
            earliest_start(3, (0, 1), [9.0, 9.0], Schedule(), example_instance)


class TestSlowestInto:
    def test_min_over_the_set_per_source(self):
        inst = make_instance([1.0], [], [1.0, 1.0, 1.0],
                             comm=[[1.0, 2.0, None], [3.0, None, 0.5], [2.0, 2.0, 2.0]])
        into = inst.platform.slowest_into
        assert into((0,)) == [1.0, 3.0, 2.0]
        assert into((1, 2)) == [2.0, 0.5, 2.0]
        assert into((2,)) == [math.inf, 0.5, 2.0]
        assert into(()) == [math.inf] * 3

    def test_one_table_per_machine_set(self):
        inst = generate_instance(GeneratorSpec("layered", 6, 3, seed=1))
        into = inst.platform.slowest_into
        first = into((0, 2))
        assert all(into(ms) is first for ms in ([0, 2], np.array([0, 2]), range(0, 3, 2)))
        assert into((2, 0)) is not first and into((2, 0)) == first


# ---------------------------------------------------------------------------
# verify_schedule against the verifier that always runs its loops
# ---------------------------------------------------------------------------

def loop_verify_schedule(inst, s, f=None):
    """``verify_schedule`` as it was before whole-array checks decided the
    overlap and band sections: every section's item loop always runs."""
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
    by_machine = {}
    for a, b, j, i in zip(start, finish, tasks, machine):
        by_machine.setdefault(i, []).append((a, b, j))
    for mach, intervals in by_machine.items():
        intervals.sort()
        for (a0, b0, t0), (a1, b1, t1) in zip(intervals, intervals[1:]):
            if not a1 >= b0 - VERIFY_TOL:
                findings.append((a1, f"tasks {t0} and {t1} overlap on machine {mach}"))

    src, dst, data = inst.graph.edge_columns()
    t_start, t_finish, on = (np.array(start, dtype=float), np.array(finish, dtype=float),
                             np.array(machine, dtype=int))
    with np.errstate(all="ignore"):
        bound = t_finish[src] + data / np.array(inst.platform.comm_speed)[on[src], on[dst]]
        early = ~(t_start[dst] >= bound - VERIFY_TOL)
        expected = t_start + np.array(inst.graph.demand) / np.array(inst.platform.speed)[on]
        off = ~(np.abs(t_finish - expected) <= VERIFY_TOL * np.maximum(1.0, np.abs(t_finish)))
        off |= np.isinf(t_finish)
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


ODD_TIMES = (math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0)
ODD_MACHINES = (float, np.int64, bool)  # ids the int array does not hold as given

corruptions = st.lists(st.tuples(
    st.sampled_from(["shift"] * 4 + ["twin"] * 3
                    + ["stretch", "move", "odd-start", "odd-finish", "odd-machine"] * 2
                    + ["drop", "unknown-machine", "unknown-task"]),
    st.integers(0, 10_000), st.integers(0, 10_000)), max_size=6)


def corrupt(s, inst, changes):
    """A copy of ``s`` with ``changes`` applied."""
    n, m = inst.graph.n, inst.platform.m
    s = Schedule(dict(s.assignment), dict(s.start), dict(s.finish))
    for kind, a, b in changes:
        j, k = a % n, b % n
        if j not in s.assignment:
            continue
        if kind == "shift":  # early starts and overlaps, duration kept
            d = (b % 7 - 3) * 0.5
            s.start[j] -= d
            s.finish[j] -= d
        elif kind == "twin" and k in s.assignment:  # k's interval, on any machine
            s.start[j], s.finish[j], s.assignment[j] = s.start[k], s.finish[k], a % m
        elif kind == "stretch":
            s.finish[j] += (b % 5 - 2) * 0.25
        elif kind == "move":  # possibly outside the band
            s.assignment[j] = b % m
        elif kind == "odd-start":
            s.start[j] = ODD_TIMES[b % len(ODD_TIMES)]
        elif kind == "odd-finish":
            s.finish[j] = ODD_TIMES[b % len(ODD_TIMES)]
        elif kind == "odd-machine" and s.assignment[j] in (0, 1):
            s.assignment[j] = ODD_MACHINES[b % len(ODD_MACHINES)](s.assignment[j])
        elif kind == "drop":
            del s.assignment[j], s.start[j], s.finish[j]
        elif kind == "unknown-machine":
            s.assignment[j] = (m, -1)[b % 2]
        elif kind == "unknown-task":
            s.assignment[n + b % 3] = 0
    return s


class TestVerifierParity:
    @given(st.integers(0, 10_000), corruptions, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_violations(self, seed, changes, banded):
        rng = random.Random(seed)
        inst = generate_instance(GeneratorSpec(
            family=FAMILIES[seed % 3], n=rng.randint(2, 15), m=rng.randint(1, 5), seed=seed,
            density=rng.choice([0.2, 0.5]), self_comm=rng.choice(["matrix", "infinite"]),
            speed_range=(0.2, 1.0)))
        f = random_band_assignment(inst, rng) if banded else trivial_assignment(inst)
        for base in (getf_schedule(inst, f, TieBreak.by_index()),
                     sls_schedule(inst, f, random_topological_order(inst, rng))):
            for s in (base, corrupt(base, inst, changes)):
                for group in (None, f):
                    assert verify_schedule(inst, s, group).violations == \
                        loop_verify_schedule(inst, s, group).violations

    def test_tied_intervals_on_two_machines(self):
        # Tasks 0 and 2 share an interval on two machines; task 1 overlaps 0.
        inst = make_instance([2.0, 2.0, 2.0], [], [1.0, 1.0])
        s = Schedule()
        s.place(0, 0, 0.0, 2.0)
        s.place(2, 1, 0.0, 2.0)
        s.place(1, 0, 1.0, 3.0)
        found = verify_schedule(inst, s).violations
        assert found == loop_verify_schedule(inst, s).violations
        assert found == ["tasks 0 and 1 overlap on machine 0"]

    def test_band_table_covers_every_used_band(self):
        rng = random.Random(5)
        inst = generate_instance(GeneratorSpec("layered", 12, 4, seed=5, speed_range=(0.2, 1.0)))
        f = split_band_assignment(inst, rng)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert verify_schedule(inst, s, f).feasible
        other = {k: (2 if k == 1 else 1) for k in (1, 2)}
        moved = GroupAssignment({j: other[k] for j, k in f.group_of_task.items()}, f.groups)
        assert verify_schedule(inst, s, moved).violations == \
            loop_verify_schedule(inst, s, moved).violations != []


# ---------------------------------------------------------------------------
# Chain values against links found with list.index
# ---------------------------------------------------------------------------

def relabelled(inst, rng):
    """``inst`` with its tasks renumbered at random and its edges listed in a
    random order, so edges need not run from lower to higher ids."""
    g, n = inst.graph, inst.graph.n
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[a], label[b], d) for a, b, d in zip(g.src, g.dst, g.data)]
    rng.shuffle(edges)
    old = sorted(range(n), key=label.__getitem__)
    graph = TaskGraph(tuple(g.demand[j] for j in old), tuple(g.weight[j] for j in old),
                      tuple(a for a, _, _ in edges), tuple(b for _, b, _ in edges),
                      tuple(d for _, _, d in edges))
    return Instance(graph, inst.platform)


def index_chain_values(s, inst, f):
    """C(S, j) for every task, each link's data found by ``list.index`` in
    the successor's predecessor list, filled in topological order."""
    g, comm = inst.graph, inst.platform.comm_speed
    preds, data = g.predecessors(), g.predecessor_data()
    cost = {}
    for v in topological_order(g):
        best_p, best_val = None, 0.0
        for p in (latest_finishing(preds[v], s.finish) if preds[v] else ()):
            sigma = min(comm[s.assignment[p]][i] for i in f.machines_for(v))
            val = cost[p] + data[v][preds[v].index(p)] / sigma
            if best_p is None or val < best_val - 1e-15:
                best_p, best_val = p, val
        cost[v] = 0.0 + best_val
    return {j: cost[j] for j in s.iteration_order}


class TestAlignedLinks:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_same_values_on_relabelled_graphs(self, seed):
        rng = random.Random(seed)
        inst = relabelled(varied_instance(rng, seed), rng)
        for f in (trivial_assignment(inst), random_band_assignment(inst, rng)):
            for s in (getf_schedule(inst, f, TieBreak.by_index()),
                      sls_schedule(inst, f, random_topological_order(inst, rng))):
                got = per_task_chain_comm(s, inst, f)
                expected = index_chain_values(s, inst, f)
                assert json.dumps(got) == json.dumps(expected)
                chain = separation_report(s, inst, f, f.groups).context["chain"]
                assert analysis.chain_comm_time(tuple(chain), s, f, inst) == got[chain[-1]]
