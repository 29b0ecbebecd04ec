import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import GroupAssignment, partition_machines, trivial_assignment
from getf.model import topological_order
from getf.oracle import brute_force_schedule
from getf.scheduler import (START_TIE_TOL, VERIFY_TOL, Schedule, SchedulingError, TieBreak,
                            TieChooser, _Placement, _scan, earliest_start,
                            etf_schedule,
                            getf_schedule, schedule_from_dict, sls_schedule, verify_schedule)

from conftest import make_instance


def random_instance(k: int, **overrides):
    rng = random.Random(7000 + k)
    params = dict(
        family=FAMILIES[k % 3], n=rng.randint(3, 20), m=rng.randint(2, 6),
        seed=7100 + k, density=0.4,
        self_comm=("matrix", "infinite")[k % 2],
    )
    params.update(overrides)
    return generate_instance(GeneratorSpec(**params))


def timeline_avail(partial, inst):
    """Each machine's availability, rebuilt from its timeline: the end of the
    last interval placed on it, or 0.0."""
    timelines = partial.timelines()
    return [iv[-1][1] if (iv := timelines.get(i)) else 0.0 for i in range(inst.platform.m)]


def naive_best_placement(task, machines, partial, inst, prefer_fast):
    """Sequential scan over the group, re-evaluating every start."""
    def key(i):
        return (-inst.platform.speed[i], i) if prefer_fast else (i,)
    best_t, best_m = None, None
    avail = timeline_avail(partial, inst)
    for i in machines:
        (t,) = earliest_start(task, (i,), avail, partial, inst)
        if best_t is None or t < best_t - START_TIE_TOL or (
            abs(t - best_t) <= START_TIE_TOL and key(i) < key(best_m)
        ):
            best_t, best_m = t, i
    return best_t, best_m


def naive_getf(inst, f, tie):
    """Reference GETF: every iteration re-evaluates every ready task on every
    machine of its group through ``earliest_start``."""
    preds = inst.graph.predecessors()
    chooser = TieChooser(tie, inst.graph)
    sched = Schedule()
    while len(sched.assignment) < inst.graph.n:
        ready = [j for j in range(inst.graph.n) if j not in sched.assignment
                 and all(p in sched.assignment for p in preds[j])]
        best = {j: naive_best_placement(j, f.machines_for(j), sched, inst, True)
                for j in ready}
        min_t = min(t for t, _ in best.values())
        j = chooser.choose([j for j in ready if abs(best[j][0] - min_t) <= START_TIE_TOL])
        t, mach = best[j]
        sched.place(j, mach, t, t + inst.graph.tasks[j].demand / inst.platform.speed[mach])
    return sched


def naive_sls(inst, f, priority):
    sched = Schedule()
    for j in priority:
        t, mach = naive_best_placement(j, f.machines_for(j), sched, inst, False)
        sched.place(j, mach, t, t + inst.graph.tasks[j].demand / inst.platform.speed[mach])
    return sched


def reference_scan(machines, starts, pref):
    """The sequential scan without the lone-minimum shortcut: in group order,
    a start replaces the best so far when it is more than ``START_TIE_TOL``
    smaller, or within the tolerance on a preferred machine (lower ``pref``)."""
    best_t = best_m = None
    for i, t in zip(machines, starts):
        if best_t is None or t < best_t - START_TIE_TOL or (
            abs(t - best_t) <= START_TIE_TOL and pref[i] < pref[best_m]
        ):
            best_t, best_m = t, i
    return best_t, best_m


def reference_sls_schedule(inst, f, priority):
    """``sls_schedule`` with availability rebuilt from the machines' timelines
    for each task, and the reference scan."""
    sched, lowest_id_first = Schedule(), range(inst.platform.m)
    for j in priority:
        machines = f.machines_for(j)
        avail = timeline_avail(sched, inst)
        start, i = reference_scan(machines, earliest_start(j, machines, avail, sched, inst),
                                  lowest_id_first)
        sched.place(j, i, start, start + inst.graph.demand[j] / inst.platform.speed[i])
    return sched


def random_topological_order(inst, rng):
    """A topological order that takes a random ready task at each step."""
    preds, succs = inst.graph.predecessors(), inst.graph.successors()
    waiting = [len(p) for p in preds]
    ready, order = [j for j, k in enumerate(waiting) if k == 0], []
    while ready:
        j = ready.pop(rng.randrange(len(ready)))
        order.append(j)
        for w in succs[j]:
            waiting[w] -= 1
            if waiting[w] == 0:
                ready.append(w)
    return order


def random_band_assignment(inst, rng):
    groups = partition_machines(inst.platform, rng.choice([1.3, 2.0, 3.0]))
    bands = [k for k in range(1, groups.K + 1) if groups.members[k]]
    return GroupAssignment({j: rng.choice(bands) for j in range(inst.graph.n)}, groups)


TIE_RULES = (TieBreak.by_index(), TieBreak.random_rule(5), TieBreak.largest_demand(),
             TieBreak.most_successors())


def tie_heavy_instance(rng):
    """Unit speeds, integer demands and data, comm speeds 1 or inf: many
    starts tie exactly.  About one value in five is one ulp above its
    integer, so other starts fall within START_TIE_TOL of each other."""
    def value(lo, hi):
        x = float(rng.randint(lo, hi))
        return math.nextafter(x, math.inf) if rng.random() < 0.2 else x
    n, m = rng.randint(2, 30), rng.randint(1, 6)
    density = rng.choice([0.05, 0.15, 0.4])
    edges = [(u, v, value(0, 2)) for v in range(n) for u in range(v) if rng.random() < density]
    comm = [[rng.choice([1.0, None]) for _ in range(m)] for _ in range(m)]
    return make_instance([value(1, 3) for _ in range(n)], edges, [1.0] * m, comm=comm)


def hand_bands(inst, members, band_of_task):
    """A group assignment with the given bands (machine tuples by band id),
    which may share machines; only the members matter to placement."""
    groups = dataclasses.replace(
        trivial_assignment(inst).groups, K=len(members), members=members,
        group_of={i: k for k, ms in members.items() for i in ms})
    return GroupAssignment(dict(enumerate(band_of_task)), groups)


def split_band_assignment(inst, rng):
    """Two bands over a random split of the machines (unit speeds leave
    ``partition_machines`` a single band), tasks spread at random."""
    machines = list(range(inst.platform.m))
    rng.shuffle(machines)
    cut = rng.randint(1, max(1, len(machines) - 1))
    members = {1: tuple(sorted(machines[:cut])), 2: tuple(sorted(machines[cut:]))}
    bands = [k for k in (1, 2) if members[k]]
    return hand_bands(inst, members, [rng.choice(bands) for _ in range(inst.graph.n)])


class TestStartTableMatchesNaive:
    @given(st.integers(0, 10_000), st.sampled_from(FAMILIES), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_schedules(self, seed, family, rule):
        rng = random.Random(seed)
        inst = generate_instance(GeneratorSpec(
            family=family, n=rng.randint(2, 40), m=rng.randint(1, 8), seed=seed,
            density=rng.choice([0.05, 0.2, 0.5]),
            self_comm=rng.choice(["matrix", "infinite"])))
        tie = TIE_RULES[rule]
        order = topological_order(inst.graph)
        for f in (trivial_assignment(inst), random_band_assignment(inst, rng)):
            assert getf_schedule(inst, f, tie).to_json(inst) == \
                naive_getf(inst, f, tie).to_json(inst)
            assert sls_schedule(inst, f, order).to_json(inst) == \
                naive_sls(inst, f, order).to_json(inst)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_where_ties_are_dense(self, seed):
        rng = random.Random(seed)
        inst = tie_heavy_instance(rng)
        order = topological_order(inst.graph)
        for f in (trivial_assignment(inst), split_band_assignment(inst, rng)):
            for tie in TIE_RULES:
                assert getf_schedule(inst, f, tie).to_json(inst) == \
                    naive_getf(inst, f, tie).to_json(inst)
            assert sls_schedule(inst, f, order).to_json(inst) == \
                naive_sls(inst, f, order).to_json(inst)

    @pytest.mark.parametrize("tie", TIE_RULES, ids=lambda t: t.variant)
    def test_byte_identical_on_layered_150(self, tie):
        inst = generate_instance(GeneratorSpec("layered", 150, 8, seed=150, density=0.05))
        f = trivial_assignment(inst)
        assert getf_schedule(inst, f, tie).to_json(inst) == naive_getf(inst, f, tie).to_json(inst)

    def test_near_tie_row_is_rescanned(self):
        # Task 2 may start at 0.1 + 0.2 on machine 0 or at 0.3 on machine 1.
        # The two differ by one ulp, within START_TIE_TOL, so the scan keeps
        # machine 0 (first in group order) although 0.3 is the smaller start.
        inst = make_instance([0.1, 0.3, 1.0], [(0, 2, 0.2)], [1.0, 1.0],
                             comm=[[1.0, None], [1.0, 1.0]])
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.assignment == {0: 0, 1: 1, 2: 0}
        assert s.start[2] == 0.1 + 0.2 != 0.3
        assert s.to_json(inst) == naive_getf(inst, f, TieBreak.by_index()).to_json(inst)

    def test_rescanned_best_sets_the_smallest_start(self):
        # Tasks 0-2 fill machines 0, 1 and 2 until 1 + 5e-13, 1 and
        # 1 + 1.2e-12.  Task 4 may then start at 1 + 5e-13 on machine 0 or
        # at 1 on machine 1; the scan keeps machine 0.  Measured from that
        # best, not from the row's minimum 1, task 3's start 1 + 1.2e-12 is
        # within START_TIE_TOL, so task 3 ties with task 4 and goes first.
        inst = make_instance([1.0 + 5e-13, 1.0, 1.0 + 1.2e-12, 1.0, 1.0],
                             [(2, 3, 0.0), (1, 4, 0.0)], [1.0, 1.0, 1.0])
        f = hand_bands(inst, {1: (0,), 2: (1,), 3: (2,), 4: (0, 1)}, [1, 2, 3, 3, 4])
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.iteration_order == [0, 1, 2, 3, 4]
        assert (s.assignment[4], s.start[4]) == (0, 1.0 + 5e-13)
        assert s.to_json(inst) == naive_getf(inst, f, TieBreak.by_index()).to_json(inst)

    def test_rounded_tolerance_row_is_rescanned(self):
        # Task 2 may start at 1000 + 9 ulp on machine 0 or at 1000 on machine
        # 1.  The gap exceeds START_TIE_TOL, but 1000 + 9 ulp - START_TIE_TOL
        # rounds to 1000, so the scan keeps machine 0 all the same.
        later = 1000.0 + 9 * math.ulp(1000.0)
        inst = make_instance([later, 1000.0, 1.0], [], [1.0, 1.0], comm=1.0)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.assignment == {0: 0, 1: 1, 2: 0}
        assert s.start[2] == later
        assert s.to_json(inst) == naive_getf(inst, f, TieBreak.by_index()).to_json(inst)


def ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


def near_starts(base, size):
    """``size`` starts spread around an anchor near ``base`` (``base`` plus 0
    to 0.5 START_TIE_TOL plus 0 to 12 ulps), each the anchor plus 0, 1 or 2
    START_TIE_TOL plus 0 to 12 ulps."""
    ulps = st.integers(0, 12)
    anchor = st.builds(lambda c, k: ulps_above(base + c * START_TIE_TOL, k),
                       st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5]), ulps)
    return anchor.flatmap(lambda a: st.lists(
        st.builds(lambda c, k: ulps_above(a + c * START_TIE_TOL, k),
                  st.sampled_from([0.0, 1.0, 2.0]), ulps),
        min_size=size, max_size=size))


class TestScan:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_scan(self, data):
        m = data.draw(st.integers(1, 8))
        pref = data.draw(st.permutations(range(m)))
        machines = data.draw(st.permutations(range(m)))[:data.draw(st.integers(1, m))]
        base = data.draw(st.sampled_from([0.0, 1.0, 1000.0, 1e6]))
        starts = data.draw(near_starts(base, len(machines)))
        assert _scan(machines, starts, pref)[:2] == reference_scan(machines, starts, pref)

    @pytest.mark.parametrize("lo, second", [
        # 9 ulps apart, more than START_TIE_TOL, but second - START_TIE_TOL
        # rounds to lo: the first half of the lone test fails.
        (1000.0, ulps_above(1000.0, 9)),
        # second - START_TIE_TOL stays above lo, but second - lo rounds to
        # START_TIE_TOL: the second half fails.
        (ulps_above(0.1 * START_TIE_TOL, 7), 1.1 * START_TIE_TOL),
    ])
    def test_both_halves_of_the_lone_test_are_needed(self, lo, second):
        # Machine 0 has the smaller start and machine 1 is preferred.  In one
        # of the two group orders the scan keeps machine 1's start, so lo may
        # not be taken without the scan.
        found = set()
        for machines, starts in (((0, 1), [lo, second]), ((1, 0), [second, lo])):
            got = _scan(machines, starts, [1, 0])
            assert got == (*reference_scan(machines, starts, [1, 0]), False)
            found.add(got)
        assert (second, 1, False) in found

    def test_lone_minimum_is_taken_in_any_order(self):
        starts = [3.0, 1.0, 1.0 + 2 * START_TIE_TOL]
        for pref in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            assert _scan((0, 1, 2), starts, pref) == (1.0, 1, True)
            assert _scan((2, 1, 0), starts[::-1], pref) == (1.0, 1, True)


def shared_band_assignment(inst, rng):
    """Three bands that share machines: all of them and two random subsets."""
    machines = range(inst.platform.m)
    members = {1: tuple(machines)}
    for k in (2, 3):
        members[k] = tuple(sorted(rng.sample(machines, rng.randint(1, len(machines)))))
    return hand_bands(inst, members, [rng.choice((1, 2, 3)) for _ in range(inst.graph.n)])


def step_placement(inst, f, tie, check):
    """``getf_schedule``'s loop, calling ``check(engine)`` after every placement."""
    engine = _Placement(inst, f, TieChooser(tie, inst.graph))
    succs = inst.graph.successors()
    waiting = [len(p) for p in inst.graph.predecessors()]
    for j, k in enumerate(waiting):
        if k == 0:
            engine.add(j)
    while engine.ready:
        j, start, machine = engine.pick()
        engine.place(j, start, machine)
        check(engine)
        for w in succs[j]:
            waiting[w] -= 1
            if waiting[w] == 0:
                engine.add(w)
    return engine.sched


def check_cached_scans(engine):
    """Every cached start and scan equals one made afresh: a data-bound row's
    starts are ``earliest_start``'s and its best is the reference scan of
    them, with the lone flag a fresh ``_scan`` gives; a machine-bound task's
    starts are the availabilities, whose scan a band's ``best`` holds.  The
    engine's availabilities are the timelines'."""
    sched, inst, pref = engine.sched, engine.inst, engine.pref
    avail = timeline_avail(sched, inst)
    assert engine.avail == avail
    for band in engine.bands.values():
        free = [avail[i] for i in band.machines]
        if band.best is not None:
            assert band.best[:2] == reference_scan(band.machines, free, pref)
        for r in band.queue:
            task = engine.chooser.task_of_rank[r]
            assert earliest_start(task, band.machines, avail, sched, inst) == free
        for task, row in band.rows.items():
            assert row.starts == earliest_start(task, band.machines, avail, sched, inst)
            assert row.best[:2] == reference_scan(band.machines, row.starts, pref)
            assert row.best == _scan(band.machines, row.starts, pref)


class TestPlacementEngine:
    @given(st.integers(0, 10_000), st.sampled_from(FAMILIES))
    @settings(max_examples=6, deadline=None)
    def test_byte_identical_with_many_data_bound_rows(self, seed, family):
        # Wide ready sets and data up to 50x the demands: many ready tasks
        # wait for data when they become ready, and most of those turn
        # machine-bound before they are placed.
        rng = random.Random(seed)
        inst = generate_instance(GeneratorSpec(
            family=family, n=rng.randint(40, 120), m=rng.randint(2, 6), seed=seed,
            density=rng.choice([0.02, 0.05]), data_range=(0.0, rng.choice([20.0, 200.0])),
            self_comm=rng.choice(["matrix", "infinite"])))
        for f in (trivial_assignment(inst), random_band_assignment(inst, rng),
                  shared_band_assignment(inst, rng)):
            for tie in TIE_RULES:
                assert getf_schedule(inst, f, tie).to_json(inst) == \
                    naive_getf(inst, f, tie).to_json(inst)

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_cached_scans_match_a_fresh_scan_after_every_placement(self, seed):
        rng = random.Random(seed)
        wide = generate_instance(GeneratorSpec(
            family=FAMILIES[seed % 3], n=rng.randint(20, 60), m=rng.randint(2, 6), seed=seed,
            density=rng.choice([0.02, 0.05, 0.2]), data_range=(0.0, rng.choice([4.0, 50.0]))))
        dense = tie_heavy_instance(rng)
        for inst, f in ((wide, trivial_assignment(wide)), (wide, shared_band_assignment(wide, rng)),
                        (dense, trivial_assignment(dense)), (dense, shared_band_assignment(dense, rng))):
            tie = rng.choice(TIE_RULES)
            s = step_placement(inst, f, tie, check_cached_scans)
            assert s.to_json(inst) == getf_schedule(inst, f, tie).to_json(inst)

    def test_data_bound_task_turns_machine_bound(self):
        # Task 1 waits for data from task 0 until 1 + 3; task 2 fills the
        # machine until 6 first, so task 1 then waits for the machine alone.
        inst = make_instance([1.0, 1.0, 5.0], [(0, 1, 3.0)], [1.0], comm=1.0)
        f = trivial_assignment(inst)
        engine = _Placement(inst, f, TieChooser(TieBreak.by_index(), inst.graph))
        engine.add(0)
        engine.add(2)
        band = engine.bands[1]
        assert band.queue == [0, 2] and not band.rows
        engine.place(*engine.pick())
        engine.add(1)
        assert band.rows[1].above == 1 and band.rows[1].best == (4.0, 0, True)
        engine.place(*engine.pick())
        assert not band.rows and band.queue == [1]
        assert engine.pick() == (1, 6.0, 0)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.iteration_order == [0, 2, 1] and s.start[1] == 6.0
        assert s.to_json(inst) == naive_getf(inst, f, TieBreak.by_index()).to_json(inst)

    def test_raising_a_start_that_is_not_the_best_moves_the_scan(self):
        # Machine preference is 1, 2, 0 (fastest first).  Task 2 waits for
        # data from task 0 until 1 + 1e-12, 1 + 2.2e-12 and 1 + 1.9e-12 on
        # machines 0, 1 and 2; the scan passes machine 1 by and takes machine
        # 2, within the tolerance of machine 0's start.  Task 1 then raises
        # machine 0 to 1 + 1.5e-12, still above the tolerance from task 2's
        # best but now within it of machine 1, so the scan takes machine 1.
        sigma = [[1e12, 1 / 2.2e-12, 1 / 1.9e-12], [1.0] * 3, [1.0] * 3]
        inst = make_instance([1.0, 1.5e-12, 1.0], [(0, 2, 1.0)], [1.0, 3.0, 2.0], comm=sigma)
        f = hand_bands(inst, {1: (0,), 2: (0, 1, 2)}, [1, 1, 2])
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.iteration_order == [0, 1, 2]
        assert (s.assignment[2], s.start[2]) == (1, 1.0 + 2.2e-12)
        assert s.to_json(inst) == naive_getf(inst, f, TieBreak.by_index()).to_json(inst)


class TestGoldenLargeSchedules:
    """SHA-256 of ``to_json`` for n=1000, m=8 ETF schedules, taken before the
    lone-minimum shortcut and the skip rule.  The naive reference is too slow
    at this size, so these pins carry byte identity here."""

    DIGESTS = {
        ("layered", "by-index"): "caec2da5da48ca4b77fd20e53c27257c285a43a4e9d0e389be5c0ed443de7d87",
        ("layered", "random"): "568387e1bfbea90388939eafc5aa84238cdff90e3bab08d5b2d4d89ead359c32",
        ("layered", "largest-demand"):
            "0d7b0fc7f7fa011f50a0123e57cbd655a0fd6d5b2acb66141efca2276b57a079",
        ("layered", "most-successors"):
            "a094761a2e0563d8f78879dfb5276671b141dd3d6fa1de7f531d9abdbfa6cc91",
        ("fork_join", "by-index"): "757e5181eea4908a5d0c37313cf5cc6e4d31e7d95af442c1f21bd424a2bf35a6",
        ("fork_join", "random"): "72242a4a0ab164c60fb93297b2ce49194777bda44cbaa5b8e0c2a8a912f702a1",
        ("fork_join", "largest-demand"):
            "3e03e6d6ee0ffb67231f8f51c02419188902a1ad21dd4cd52a524f8ef380ebff",
        ("fork_join", "most-successors"):
            "757e5181eea4908a5d0c37313cf5cc6e4d31e7d95af442c1f21bd424a2bf35a6",
    }

    @pytest.mark.parametrize("family", ["layered", "fork_join"])
    def test_digests(self, family):
        inst = generate_instance(GeneratorSpec(family, 1000, 8, seed=100_003, density=0.05))
        f = trivial_assignment(inst)
        found = {(family, tie.variant): hashlib.sha256(
                     getf_schedule(inst, f, tie).to_json(inst).encode()).hexdigest()
                 for tie in TIE_RULES}
        assert found == {k: v for k, v in self.DIGESTS.items() if k[0] == family}


class TestEarliestStart:
    def test_worked_example_task3_on_m0(self, example_instance):
        partial = Schedule()
        partial.place(0, 0, 0.0, 1.0)
        partial.place(1, 1, 0.0, 1.0)
        avail = timeline_avail(partial, example_instance)
        # max(machine free at 1, data from task 0 at 1+2/2, data from task 1 at 1+1/1)
        assert earliest_start(3, (0,), avail, partial, example_instance) == [pytest.approx(2.0)]

    def test_worked_example_task2_on_m1(self, example_instance):
        partial = Schedule()
        partial.place(0, 0, 0.0, 1.0)
        partial.place(1, 1, 0.0, 1.0)
        avail = timeline_avail(partial, example_instance)
        assert earliest_start(2, (1,), avail, partial, example_instance) == [pytest.approx(3.0)]

    def test_source_task_idle_machine(self, example_instance):
        assert earliest_start(0, (0,), [0.0, 0.0], Schedule(), example_instance) == [0.0]

    def test_unscheduled_predecessor_raises(self, example_instance):
        with pytest.raises(SchedulingError, match="predecessor"):
            earliest_start(3, (0,), [0.0, 0.0], Schedule(), example_instance)

    def test_any_machine_sequence_gives_one_list(self):
        inst = generate_instance(GeneratorSpec("layered", 6, 3, seed=1))
        assert inst.graph.predecessors()[5]
        sched = Schedule()
        for j in range(5):
            sched.place(j, j % 3, float(j), float(j) + (1.0 + j))
        avail = timeline_avail(sched, inst)
        starts = [earliest_start(task, machines, avail, sched, inst)
                  for task in (0, 5)
                  for machines in ((0, 1, 2), [0, 1, 2], range(3), np.arange(3))]
        assert all(type(s) is list for s in starts)
        assert starts[:4] == [avail] * 4
        assert starts[4:] == [starts[4]] * 4


class TestGetf:
    def test_worked_example_golden_placement(self, example_instance):
        f = trivial_assignment(example_instance)
        s = getf_schedule(example_instance, f, TieBreak.by_index())
        assert s.assignment == {0: 0, 1: 1, 2: 1, 3: 0}
        assert s.start == pytest.approx({0: 0.0, 1: 0.0, 2: 3.0, 3: 2.0})
        assert s.finish == pytest.approx({0: 1.0, 1: 1.0, 2: 4.0, 3: 5.0})
        assert s.makespan() == pytest.approx(5.0)
        assert s.iteration_order == [0, 1, 3, 2]

    def test_lone_task_takes_fastest_machine(self):
        inst = make_instance([2.0], [], [1.0, 2.0], comm=1.0)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.assignment[0] == 1
        assert s.start[0] == 0.0
        assert s.finish[0] == pytest.approx(1.0)

    def test_free_self_comm_beats_cross_delay(self):
        # chain 0 -> 1 with heavy data: staying on one machine wins
        inst = make_instance([1.0, 1.0], [(0, 1, 4.0)], [1.0, 1.0],
                             comm=[[None, 1.0], [1.0, None]])
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.assignment[0] == s.assignment[1]
        assert s.start[1] == pytest.approx(s.finish[0])

    def test_group_restriction_respected(self):
        inst = make_instance([1.0, 1.0, 1.0], [], [4.0, 1.0, 1.0, 1.0], comm=1.0)
        groups = partition_machines(inst.platform)
        f = GroupAssignment({0: 1, 1: 2, 2: 1}, groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.assignment[0] in {1, 2, 3}
        assert s.assignment[1] == 0
        assert s.assignment[2] in {1, 2, 3}
        assert verify_schedule(inst, s, f).feasible

    def test_deterministic_bit_identical(self):
        for k in range(10):
            inst = random_instance(k)
            f = trivial_assignment(inst)
            tie = TieBreak.random_rule(99)
            a = getf_schedule(inst, f, tie)
            b = getf_schedule(inst, f, tie)
            assert a.to_json(inst) == b.to_json(inst)

    def test_chosen_task_minimizes_earliest_start_replay(self):
        # replay the iteration order and re-check the greedy invariant
        for k in range(12):
            inst = random_instance(k)
            f = trivial_assignment(inst)
            s = getf_schedule(inst, f, TieBreak.largest_demand())
            preds = inst.graph.predecessors()
            replay = Schedule()
            done: set[int] = set()
            for j in s.iteration_order:
                ready = [v for v in range(inst.graph.n)
                         if v not in done and all(p in done for p in preds[v])]
                avail = timeline_avail(replay, inst)
                starts = {
                    v: min(earliest_start(v, f.machines_for(v), avail, replay, inst))
                    for v in ready
                }
                assert starts[j] == pytest.approx(min(starts.values()), abs=1e-9)
                replay.place(j, s.assignment[j], s.start[j], s.finish[j])
                done.add(j)

    def test_empty_group_names_the_task(self):
        inst = generate_instance(GeneratorSpec("layered", 30, 8, seed=0, density=0.1))
        groups = partition_machines(inst.platform, 2.0)
        empty = next(k for k in range(1, groups.K + 1) if not groups.members[k])
        f = GroupAssignment({j: empty for j in range(inst.graph.n)}, groups)
        with pytest.raises(SchedulingError, match=f"task 0 is assigned to group {empty}"):
            getf_schedule(inst, f, TieBreak.by_index())
        with pytest.raises(SchedulingError, match=f"task 0 is assigned to group {empty}"):
            sls_schedule(inst, f, topological_order(inst.graph))

    def test_per_machine_starts_nondecreasing(self):
        for k in range(12):
            inst = random_instance(k)
            s = etf_schedule(inst, TieBreak.most_successors())
            for timeline in s.timelines().values():
                starts = [a for a, _, _ in timeline]
                assert starts == sorted(starts)

    def test_unknown_tie_rule_refused_up_front(self):
        # A chain never has two ready tasks, so the rule is never consulted.
        inst = make_instance([1.0, 2.0, 3.0], [(0, 1, 0.0), (1, 2, 0.0)], [1.0])
        with pytest.raises(SchedulingError, match="unknown tie-break variant 'bogus'"):
            TieChooser(TieBreak("bogus"), inst.graph)
        with pytest.raises(SchedulingError, match="unknown tie-break variant 'bogus'"):
            etf_schedule(inst, TieBreak("bogus"))

    def test_tie_ranks_match_sorted_definitions(self):
        # Demands and out-degrees repeat, so the id fallback decides often.
        rng = random.Random(11)
        inst = make_instance([rng.choice([1.0, 2.0]) for _ in range(30)],
                             [(u, v, 0.0) for v in range(30) for u in range(v)
                              if rng.random() < 0.1], [1.0])
        demand = [t.demand for t in inst.graph.tasks]
        degree = [len(s) for s in inst.graph.successors()]
        want = {
            TieBreak.BY_INDEX: min,
            TieBreak.LARGEST_DEMAND: lambda c: max(c, key=lambda j: (demand[j], -j)),
            TieBreak.MOST_SUCCESSORS: lambda c: max(c, key=lambda j: (degree[j], -j)),
        }
        draws = random.Random(4)
        for variant, rule in want.items():
            chooser = TieChooser(TieBreak(variant), inst.graph)
            for _ in range(50):
                cands = rng.sample(range(30), rng.randint(1, 30))
                assert chooser.choose(cands) == rule(cands)
        chooser = TieChooser(TieBreak.random_rule(4), inst.graph)
        for _ in range(50):
            cands = rng.sample(range(30), rng.randint(1, 30))
            want_random = cands[0] if len(cands) == 1 else draws.choice(sorted(cands))
            assert chooser.choose(cands) == want_random

    def test_ranks_are_the_key_then_id_sort(self):
        # Demands and out-degrees repeat, so a stable sort on the key alone
        # must break every tie by id, as the (key, id) sort does.
        rng = random.Random(23)
        n = 40
        inst = make_instance([rng.choice([1.0, 2.0, 3.0]) for _ in range(n)],
                             [(u, v, 0.0) for v in range(n) for u in range(v)
                              if rng.random() < 0.08], [1.0])
        keys = {
            TieBreak.by_index(): [0] * n,
            TieBreak.random_rule(9): [0] * n,
            TieBreak.largest_demand(): [-t.demand for t in inst.graph.tasks],
            TieBreak.most_successors(): [-len(s) for s in inst.graph.successors()],
        }
        for rule, key in keys.items():
            assert len(set(key)) < n                      # the key ties somewhere
            want = sorted(range(n), key=lambda j: (key[j], j))
            chooser = TieChooser(rule, inst.graph)
            assert chooser.task_of_rank == want
            assert [chooser.rank[j] for j in want] == list(range(n))

    def test_random_rule_determined_by_seed(self):
        inst = random_instance(3, n=12, density=0.1)
        f = trivial_assignment(inst)
        a = getf_schedule(inst, f, TieBreak.random_rule(1))
        b = getf_schedule(inst, f, TieBreak.random_rule(1))
        c = getf_schedule(inst, f, TieBreak.random_rule(2))
        assert a.to_json(inst) == b.to_json(inst)
        assert c.to_json(inst) != a.to_json(inst) or c.assignment == a.assignment


class TestEtf:
    def test_equals_single_group_getf(self, example_instance):
        f = trivial_assignment(example_instance)
        assert etf_schedule(example_instance, TieBreak.by_index()).to_dict(example_instance) \
            == getf_schedule(example_instance, f, TieBreak.by_index()).to_dict(example_instance)

    def test_graham_bound_on_tiny_zero_comm(self):
        for k in range(10):
            inst = random_instance(k, n=2 + k % 4, m=2 + k % 2,
                                   speed_range=(1.0, 1.0), data_range=(0.0, 0.0))
            s = etf_schedule(inst, TieBreak.by_index())
            opt, _ = brute_force_schedule(inst, ignore_comm=True)
            m = inst.platform.m
            assert s.makespan() <= (2 - 1 / m) * opt + 1e-9

    def test_single_machine_serial_no_self_comm(self):
        inst = make_instance([1.0, 2.0, 3.0], [(0, 1, 5.0), (1, 2, 5.0)], [2.0],
                             comm=None)
        s = etf_schedule(inst, TieBreak.by_index())
        assert s.makespan() == pytest.approx(3.0)  # sum p / s, back to back


class TestSls:
    def test_worked_example_priority_order(self, example_instance):
        f = trivial_assignment(example_instance)
        s = sls_schedule(example_instance, f, [0, 1, 2, 3])
        assert s.assignment == {0: 0, 1: 1, 2: 0, 3: 1}
        assert s.start[2] == pytest.approx(3.0)
        assert s.start[3] == pytest.approx(3.0)
        assert s.makespan() == pytest.approx(6.0)
        # machine 1 sits idle for exactly 2 time units between tasks 1 and 3
        gap = s.start[3] - s.finish[1]
        assert gap == pytest.approx(2.0)

    def test_single_task_matches_getf(self):
        inst = make_instance([2.0], [], [1.0, 1.0], comm=1.0)
        f = trivial_assignment(inst)
        a = sls_schedule(inst, f, [0])
        b = getf_schedule(inst, f, TieBreak.by_index())
        assert a.to_dict(inst) == b.to_dict(inst)

    def test_non_topological_priority_rejected(self, example_instance):
        f = trivial_assignment(example_instance)
        with pytest.raises(SchedulingError, match="topological"):
            sls_schedule(example_instance, f, [3, 0, 1, 2])

    def test_incomplete_priority_rejected(self, example_instance):
        f = trivial_assignment(example_instance)
        with pytest.raises(SchedulingError, match="every task"):
            sls_schedule(example_instance, f, [0, 1, 2])

    @given(st.integers(0, 10_000), st.sampled_from(["generated", "tied"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_task_helper_reference(self, seed, kind):
        rng = random.Random(seed)
        if kind == "tied":     # zero-data edges, inf comm speeds, starts tied or 1 ulp apart
            inst = tie_heavy_instance(rng)
            banded = split_band_assignment(inst, rng)
        else:
            inst = generate_instance(GeneratorSpec(
                family=rng.choice(FAMILIES), n=rng.randint(1, 40), m=rng.randint(1, 8),
                seed=seed, density=rng.choice([0.05, 0.2, 0.5]),
                data_range=rng.choice([(0.0, 0.0), (0.0, 4.0)]),
                self_comm=rng.choice(["matrix", "infinite"])))
            banded = random_band_assignment(inst, rng)
        for order in (topological_order(inst.graph), random_topological_order(inst, rng)):
            for f in (trivial_assignment(inst), banded):
                assert sls_schedule(inst, f, order).to_json(inst) == \
                    reference_sls_schedule(inst, f, order).to_json(inst)

    def test_list_bound_on_independent_tasks(self):
        for k in range(8):
            inst = random_instance(k, n=2 + k % 4, m=2, density=0.0,
                                   speed_range=(1.0, 1.0), data_range=(0.0, 0.0))
            f = trivial_assignment(inst)
            s = sls_schedule(inst, f, topological_order(inst.graph))
            opt, _ = brute_force_schedule(inst, ignore_comm=True)
            assert s.makespan() <= (2 - 1 / 2) * opt + 1e-9


class TestVerify:
    def test_getf_output_feasible(self, example_instance):
        f = trivial_assignment(example_instance)
        s = getf_schedule(example_instance, f, TieBreak.by_index())
        report = verify_schedule(example_instance, s, f)
        assert report.feasible

    def test_overlap_detected(self):
        inst = make_instance([1.0, 1.0], [], [1.0], comm=1.0)
        s = Schedule()
        s.place(0, 0, 0.0, 1.0)
        s.place(1, 0, 0.5, 1.5)
        report = verify_schedule(inst, s)
        assert not report.feasible
        assert any("overlap" in v for v in report.violations)

    def test_comm_violation_detected(self, example_instance):
        s = Schedule()
        s.place(0, 0, 0.0, 1.0)
        s.place(1, 1, 0.0, 1.0)
        s.place(3, 0, 1.5, 4.5)  # needs >= 2.0 for task 0's data over sigma 2
        s.place(2, 1, 3.0, 4.0)
        report = verify_schedule(example_instance, s)
        assert not report.feasible
        assert any("task 3" in v and "data" in v for v in report.violations)

    def test_duration_mismatch_detected(self):
        inst = make_instance([2.0], [], [1.0])
        s = Schedule()
        s.place(0, 0, 0.0, 1.0)  # should take 2.0
        assert not verify_schedule(inst, s).feasible

    @pytest.mark.parametrize("start", [0.0, 1e8])
    def test_finish_off_by_1e6_relative_detected(self, start):
        inst = make_instance([2.0], [], [1.0])
        s = Schedule()
        s.place(0, 0, start, start + 2.0)
        assert verify_schedule(inst, s).feasible
        s.finish[0] = math.nextafter(s.finish[0], math.inf)  # one ulp: within the slack
        assert verify_schedule(inst, s).feasible
        s.finish[0] = (start + 2.0) * (1 + 1e-6)
        assert verify_schedule(inst, s).violations == ["task 0 duration differs from demand/speed"]

    def test_group_violation_detected(self):
        inst = make_instance([1.0], [], [4.0, 1.0, 1.0, 1.0], comm=1.0)
        groups = partition_machines(inst.platform)
        f = GroupAssignment({0: 2}, groups)  # band 2 = machine 0 only
        s = Schedule()
        s.place(0, 1, 0.0, 1.0)
        report = verify_schedule(inst, s, f)
        assert any("group" in v for v in report.violations)

    def test_nan_times_detected(self):
        inst = make_instance([1.0, 1.0], [(0, 1, 1.0)], [1.0, 1.0], comm=1.0)
        s = Schedule()
        s.place(0, 0, 0.0, 1.0)
        s.place(1, 0, math.nan, math.nan)
        report = verify_schedule(inst, s)
        assert not report.feasible
        assert any("overlap" in v for v in report.violations)
        assert any("task 1 starts at nan" in v for v in report.violations)
        assert any("task 1 duration" in v for v in report.violations)

    def test_missing_task_detected(self, example_instance):
        s = Schedule()
        s.place(0, 0, 0.0, 1.0)
        assert not verify_schedule(example_instance, s).feasible


def reference_verify(inst, s, f=None):
    """``verify_schedule`` as a scalar loop over edges and tasks, kept as the
    reference for the array checks."""
    findings = []
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
        return [m for _, m in sorted(findings, key=lambda kv: kv[0])]

    by_machine = {}
    for j in range(n):
        by_machine.setdefault(s.assignment[j], []).append((s.start[j], s.finish[j], j))
    for mach, intervals in by_machine.items():
        intervals.sort()
        for (a0, b0, t0), (a1, b1, t1) in zip(intervals, intervals[1:]):
            if not a1 >= b0 - VERIFY_TOL:
                findings.append((a1, f"tasks {t0} and {t1} overlap on machine {mach}"))

    comm = inst.platform.comm_speed
    for src, dst, data in zip(inst.graph.src, inst.graph.dst, inst.graph.data):
        bound = s.finish[src] + data / comm[s.assignment[src]][s.assignment[dst]]
        if not s.start[dst] >= bound - VERIFY_TOL:
            findings.append((
                s.start[dst],
                f"task {dst} starts at {s.start[dst]:.9g} before its data from "
                f"task {src} arrives at {bound:.9g}",
            ))

    for j in range(n):
        expected = s.start[j] + inst.graph.tasks[j].demand / inst.platform.speed[s.assignment[j]]
        if (not abs(s.finish[j] - expected) <= VERIFY_TOL * max(1.0, abs(s.finish[j]))
                or math.isinf(s.finish[j])):
            findings.append((s.start[j], f"task {j} duration differs from demand/speed"))

    if f is not None:
        for j in range(n):
            allowed = set(f.machines_for(j))
            if s.assignment[j] not in allowed:
                findings.append((s.start[j], f"task {j} placed outside its machine group"))

    findings.sort(key=lambda kv: kv[0])
    return [m for _, m in findings]


ODD_TIMES = (math.nan, math.inf, -math.inf, 0.0, -1.0)

# Corruptions of a feasible schedule: (kind, task pick, amount pick).  The
# last three kinds stop the check early, so they are drawn less often.
corruptions = st.lists(st.tuples(
    st.sampled_from(["shift"] * 4 + ["stretch", "move", "move", "odd-start", "odd-finish"] * 2
                    + ["drop", "unknown-machine", "unknown-task"]),
    st.integers(0, 10_000), st.integers(0, 10_000)), max_size=6)


class TestVerifyMatchesScalarReference:
    """Corrupted schedules get the same ``violations``, text and order, from
    ``verify_schedule`` as from the scalar reference."""

    @given(st.integers(0, 10_000), corruptions, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_violations(self, seed, changes, banded):
        rng = random.Random(seed)
        inst = generate_instance(GeneratorSpec(
            family=FAMILIES[seed % 3], n=rng.randint(2, 15), m=rng.randint(1, 5), seed=seed,
            density=rng.choice([0.2, 0.5]), self_comm=rng.choice(["matrix", "infinite"]),
            speed_range=(0.2, 1.0)))
        n, m = inst.graph.n, inst.platform.m
        f = random_band_assignment(inst, rng) if banded else trivial_assignment(inst)
        base = getf_schedule(inst, f, TieBreak.by_index())
        s = Schedule(dict(base.assignment), dict(base.start), dict(base.finish))
        for kind, a, b in changes:
            j = a % n
            if j not in s.assignment:
                continue
            if kind == "shift":  # early starts and overlaps, duration kept
                d = (b % 7 - 3) * 0.5
                s.start[j] -= d
                s.finish[j] -= d
            elif kind == "stretch":
                s.finish[j] += (b % 5 - 2) * 0.25
            elif kind == "move":  # possibly outside the band
                s.assignment[j] = b % m
            elif kind == "odd-start":
                s.start[j] = ODD_TIMES[b % len(ODD_TIMES)]
            elif kind == "odd-finish":
                s.finish[j] = ODD_TIMES[b % len(ODD_TIMES)]
            elif kind == "drop":
                del s.assignment[j], s.start[j], s.finish[j]
            elif kind == "unknown-machine":
                s.assignment[j] = (m, -1)[b % 2]
            else:
                s.assignment[n + b % 3] = 0
        for group in (None, f):
            assert verify_schedule(inst, s, group).violations == reference_verify(inst, s, group)


def test_schedule_json_round_trip(example_instance):
    f = trivial_assignment(example_instance)
    s = getf_schedule(example_instance, f, TieBreak.by_index())
    doc = s.to_dict(example_instance)
    again = schedule_from_dict(doc)
    assert again.assignment == s.assignment
    assert again.start == s.start
    assert again.iteration_order == s.iteration_order
    assert doc["makespan"] == pytest.approx(5.0)
    assert doc["weighted_completion"] == pytest.approx(5.0)


def test_infinite_comm_is_zero_delay():
    inst = make_instance([1.0, 1.0], [(0, 1, 100.0)], [1.0, 1.0], comm=None)
    s = etf_schedule(inst, TieBreak.by_index())
    assert s.start[1] == pytest.approx(s.finish[0])
    assert s.makespan() == pytest.approx(2.0)
