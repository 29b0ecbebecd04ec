import hashlib
import json
import logging
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from getf import analysis
from getf.analysis import (chain_comm_time, chain_processing_time, identical_report,
                           latest_finishing, machine_idle_in_window,
                           makespan_theorem_report, min_comm_terminal_chain,
                           per_task_chain_comm, separation_report,
                           weighted_theorem_report)
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import (GroupAssignment, partition_machines,
                           assign_groups_makespan, assign_groups_weighted,
                           solve_makespan_relaxation, solve_weighted_relaxation,
                           trivial_assignment)
from getf.model import normalize_demands, topological_order
from getf.oracle import brute_force_schedule
from getf.scheduler import (Schedule, TieBreak, etf_schedule, getf_schedule, schedule_from_dict,
                            sls_schedule, verify_schedule)

from conftest import make_instance, shuffle_edges
from test_scheduler import random_band_assignment


def getf_on_example(example_instance):
    f = trivial_assignment(example_instance)
    return getf_schedule(example_instance, f, TieBreak.by_index()), f


# ---------------------------------------------------------------------------
# Oracle: enumerate every terminal chain by walking all latest-finishing
# predecessor choices; small DAGs only.
# ---------------------------------------------------------------------------

def all_terminal_chains(s: Schedule, inst) -> list[tuple[int, ...]]:
    preds = inst.graph.predecessors()
    anchors = latest_finishing(sorted(s.assignment), s.finish)
    chains = []

    def extend(suffix):
        head = suffix[0]
        if not preds[head]:
            chains.append(tuple(suffix))
            return
        for p in latest_finishing(preds[head], s.finish):
            extend([p] + suffix)

    for a in anchors:
        extend([a])
    return chains


class TestTerminalChain:
    """The min-comm chain is a terminal chain: a backward walk from a
    latest-finishing task through latest-finishing predecessors."""

    def test_single_task(self):
        inst = make_instance([1.0], [], [1.0])
        s = etf_schedule(inst, TieBreak.by_index())
        assert min_comm_terminal_chain(s, inst, trivial_assignment(inst))[0] == (0,)

    def test_path_dag_unique_chain(self):
        inst = make_instance([1, 1, 1], [(0, 1, 1.0), (1, 2, 1.0)], [1.0], comm=2.0)
        s = etf_schedule(inst, TieBreak.by_index())
        chain, _ = min_comm_terminal_chain(s, inst, trivial_assignment(inst))
        assert chain == (0, 1, 2)

    def test_backward_walk_invariant(self):
        rng = random.Random(61)
        for k in range(15):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(3, 15),
                                 m=rng.randint(2, 5), seed=500 + k, density=0.4)
            inst = generate_instance(spec)
            s = etf_schedule(inst, TieBreak.by_index())
            chain, _ = min_comm_terminal_chain(s, inst, trivial_assignment(inst))
            preds = inst.graph.predecessors()
            assert not preds[chain[0]]
            assert chain[-1] in latest_finishing(sorted(s.assignment), s.finish)
            for a, b in zip(chain, chain[1:]):
                assert a in preds[b]
                assert a in latest_finishing(preds[b], s.finish)


class TestChainComm:
    def test_worked_example_links(self, example_instance):
        s, f = getf_on_example(example_instance)
        assert chain_comm_time((1, 3), s, f, example_instance) == pytest.approx(1.0)
        assert chain_comm_time((0, 3), s, f, example_instance) == pytest.approx(2.0)

    def test_zero_data_chain(self):
        inst = make_instance([1, 1], [(0, 1, 0.0)], [1.0, 1.0], comm=1.0)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert chain_comm_time((0, 1), s, f, inst) == 0.0

    def test_min_comm_picks_cheapest(self, example_instance):
        s, f = getf_on_example(example_instance)
        chain, comm = min_comm_terminal_chain(s, example_instance, f)
        assert chain == (1, 3)
        assert comm == pytest.approx(1.0)

    def test_min_comm_matches_exhaustive_enumeration(self):
        rng = random.Random(71)
        for k in range(20):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(3, 9),
                                 m=rng.randint(2, 4), seed=600 + k, density=0.5)
            inst = generate_instance(spec)
            f = trivial_assignment(inst)
            s = getf_schedule(inst, f, TieBreak.by_index())
            chain, comm = min_comm_terminal_chain(s, inst, f)
            enumerated = all_terminal_chains(s, inst)
            best = min(chain_comm_time(c, s, f, inst) for c in enumerated)
            assert comm == pytest.approx(best, abs=1e-9)
            assert chain in enumerated

    def test_path_dag_no_choice(self):
        inst = make_instance([1, 1, 1], [(0, 1, 2.0), (1, 2, 3.0)], [1.0, 1.0], comm=1.0)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        chain, comm = min_comm_terminal_chain(s, inst, f)
        assert chain == (0, 1, 2)
        assert comm == pytest.approx(chain_comm_time(chain, s, f, inst))


class TestSeparation:
    def test_worked_example_numbers(self, example_instance):
        s, f = getf_on_example(example_instance)
        groups = f.groups
        rep = separation_report(s, example_instance, f, groups)
        assert rep.context["P"] == pytest.approx(4.0)
        assert rep.context["sum_D"] == pytest.approx(3.0)
        assert rep.context["C"] == pytest.approx(1.0)
        main = rep.inequalities[0]
        assert main.lhs == pytest.approx(5.0)
        assert main.rhs == pytest.approx(8.0)
        assert main.slack == pytest.approx(3.0)
        assert main.passed

    def test_single_task_trivial(self):
        inst = make_instance([1.0], [], [1.0])
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        rep = separation_report(s, inst, f, f.groups)
        assert rep.inequalities[0].passed
        assert rep.context["P"] == pytest.approx(1.0)
        assert rep.context["sum_D"] == pytest.approx(1.0)
        assert rep.context["C"] == 0.0

    def test_random_ensemble_inequality_holds(self):
        rng = random.Random(81)
        ties = [TieBreak.by_index(), TieBreak.random_rule(5),
                TieBreak.largest_demand(), TieBreak.most_successors()]
        for k in range(120):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(3, 30),
                                 m=rng.randint(2, 8), seed=700 + k,
                                 density=rng.choice([0.2, 0.4]),
                                 self_comm=("matrix", "infinite")[k % 2])
            inst = generate_instance(spec)
            groups = partition_machines(inst.platform)
            nonempty = [g for g in range(1, groups.K + 1) if groups.members[g]]
            fr = random.Random(k)
            f = GroupAssignment({t.id: fr.choice(nonempty) for t in inst.graph.tasks},
                                groups)
            s = getf_schedule(inst, f, ties[k % 4])
            rep = separation_report(s, inst, f, groups)
            assert rep.inequalities[0].passed, rep.to_json()

    def test_zero_comm_reduces_to_load_terms(self):
        inst = make_instance([2, 2, 2, 2], [(0, 2, 0.0), (1, 3, 0.0)], [1.0, 1.0],
                             comm=None)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        rep = separation_report(s, inst, f, f.groups)
        assert rep.context["C"] == 0.0
        assert all(iq.passed for iq in rep.inequalities)  # idle replay too

    def test_decomposition_violation_is_flagged_loudly(self):
        # Two predecessors with very different data volumes: the chain keeps
        # the late-finishing light edge while the heavy edge stalls everything,
        # so the decomposition under-counts.  The report must say so.
        inst = make_instance(
            [1.0, 2.0, 1.0],
            [(0, 2, 4.0), (1, 2, 0.5)],
            [1.0, 1.0, 1.0],
            comm=1.0,
        )
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert s.makespan() == pytest.approx(6.0)
        rep = separation_report(s, inst, f, f.groups)
        main = rep.inequalities[0]
        assert not main.passed
        # chain is (1, 2): P = 2 + 1, sum_D = 4/3, C = 0.5
        assert main.rhs == pytest.approx(3.0 + 4.0 / 3.0 + 0.5)
        assert not rep.passed

    def test_idle_replay_not_universal_even_on_worked_example(self, example_instance):
        # On the min-comm chain (1, 3), machine 1 idles a full unit inside the
        # window [1, 2] while the link transfer bound is only 0.5: the link
        # bound ignores task 0's slower data.  This pins the known limitation.
        s, f = getf_on_example(example_instance)
        rep = separation_report(s, example_instance, f, f.groups)
        idle_entries = {iq.name: iq for iq in rep.inequalities[1:]}
        bad = idle_entries["idle[1->3]@m1"]
        assert bad.lhs == pytest.approx(1.0)
        assert bad.rhs == pytest.approx(0.5)
        assert not bad.passed

    def test_bands_other_than_the_assignments_are_refused(self):
        # Bands of another gamma would give another sum_D (7.63 instead of
        # 4.50 here) and a looser bound over bands no task was placed in.
        inst = generate_instance(GeneratorSpec("layered", 12, 4, seed=3,
                                               speed_range=(0.5, 4.0)))
        groups = partition_machines(inst.platform)
        f = assign_groups_makespan(solve_makespan_relaxation(inst, groups), groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        other = partition_machines(inst.platform, gamma=3.0)
        assert other.K == groups.K and other != groups
        with pytest.raises(analysis.AnalysisError, match="groups must be the bands of f"):
            separation_report(s, inst, f, other)
        same = separation_report(s, inst, f, f.groups).to_json()
        assert separation_report(s, inst, f, partition_machines(inst.platform)).to_json() == same
        assert json.loads(same)["context"]["sum_D"] == pytest.approx(4.5028155)


class TestMakespanTheorem:
    def test_worked_example(self, example_instance):
        groups = partition_machines(example_instance.platform)
        frac = solve_makespan_relaxation(example_instance, groups)
        f = assign_groups_makespan(frac, groups)
        s = getf_schedule(example_instance, f, TieBreak.by_index())
        rep = makespan_theorem_report(s, example_instance, f, frac.T)
        by_name = {iq.name: iq for iq in rep.inequalities}
        assert by_name["P<=2*gamma*T*"].lhs == pytest.approx(4.0)
        assert by_name["P<=2*gamma*T*"].rhs == pytest.approx(16.0)
        assert by_name["sumD<=2*K*T*"].lhs == pytest.approx(3.0)
        assert by_name["sumD<=2*K*T*"].rhs == pytest.approx(8.0)
        assert by_name["makespan<=2*(gamma+K)*T*+C"].rhs == pytest.approx(25.0)
        assert rep.passed

    def test_single_machine_chain_bound(self):
        inst = make_instance([1, 2], [(0, 1, 1.0)], [1.0], comm=2.0)
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        f = assign_groups_makespan(frac, groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        rep = makespan_theorem_report(s, inst, f, frac.T)
        assert rep.passed
        assert frac.T >= chain_processing_time(
            min_comm_terminal_chain(s, inst, f)[0], s, inst) / (2 * groups.gamma)

    def test_zero_comm_pipeline_vs_brute_force(self):
        rng = random.Random(91)
        for k in range(10):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 5),
                                 m=rng.randint(1, 3), seed=800 + k, density=0.5,
                                 data_range=(0.0, 0.0), speed_range=(1.0, 2.0))
            inst = generate_instance(spec)
            groups = partition_machines(inst.platform)
            frac = solve_makespan_relaxation(inst, groups)
            f = assign_groups_makespan(frac, groups)
            s = getf_schedule(inst, f, TieBreak.by_index())
            rep = makespan_theorem_report(s, inst, f, frac.T)
            assert rep.passed
            opt, _ = brute_force_schedule(inst, ignore_comm=True)
            g, K = groups.gamma, groups.K
            assert s.makespan() <= 2 * (g + K) * opt + 1e-9


class TestIdentical:
    def test_worked_example_numbers(self, example_instance):
        s, _ = getf_on_example(example_instance)
        rep = identical_report(s, example_instance, opt_ignore_comm=4.0)
        assert rep.context["C'"] == pytest.approx(0.75)
        inter, vs_opt = rep.inequalities
        assert inter.lhs == pytest.approx(5.0)
        assert inter.rhs == pytest.approx(3.0 + 2.0 + 0.75)
        assert vs_opt.rhs == pytest.approx(1.5 * 4.0 + 0.75)
        assert rep.passed

    def test_equality_on_single_machine_zero_data(self):
        inst = make_instance([1, 2], [(0, 1, 0.0)], [1.0], comm=None)
        s = etf_schedule(inst, TieBreak.by_index())
        opt, _ = brute_force_schedule(inst, ignore_comm=True)
        rep = identical_report(s, inst, opt_ignore_comm=opt)
        vs_opt = rep.inequalities[1]
        assert s.makespan() == pytest.approx(3.0)
        assert vs_opt.rhs == pytest.approx((2 - 1 / 1) * 3.0 + 0.0)
        assert rep.passed

    def test_rejects_heterogeneous_speeds(self):
        inst = make_instance([1.0], [], [1.0, 2.0], comm=1.0)
        s = etf_schedule(inst, TieBreak.by_index())
        with pytest.raises(Exception, match="identical"):
            identical_report(s, inst)


class TestPerTaskChains:
    def test_first_task_has_zero(self, example_instance):
        s, f = getf_on_example(example_instance)
        comm = per_task_chain_comm(s, example_instance, f)
        assert comm[s.iteration_order[0]] == 0.0

    def test_worked_example_task3(self, example_instance):
        s, f = getf_on_example(example_instance)
        comm = per_task_chain_comm(s, example_instance, f)
        assert comm[3] == pytest.approx(1.0)

    def test_zero_data_all_zero(self):
        inst = make_instance([1, 1, 1], [(0, 1, 0.0), (0, 2, 0.0)], [1.0, 1.0],
                             comm=1.0)
        f = trivial_assignment(inst)
        s = getf_schedule(inst, f, TieBreak.by_index())
        assert set(per_task_chain_comm(s, inst, f).values()) == {0.0}

    @staticmethod
    def sls_with_late_finishers():
        inst = generate_instance(GeneratorSpec(family="layered", n=60, m=4, seed=21,
                                               density=0.2))
        f = trivial_assignment(inst)
        s = sls_schedule(inst, f, topological_order(inst.graph))
        expected, running_max = [], -math.inf
        for j in s.iteration_order:
            if s.finish[j] < running_max - analysis.FINISH_TIE_TOL:
                expected.append(f"task {j} is not the latest finisher of its prefix "
                                f"(finish {s.finish[j]:.9g} < {running_max:.9g})")
            running_max = max(running_max, s.finish[j])
        assert expected
        return inst, f, s, expected

    def test_debug_lines(self, caplog):
        inst, f, s, expected = self.sls_with_late_finishers()
        with caplog.at_level(logging.DEBUG, logger="getf.analysis"):
            per_task_chain_comm(s, inst, f)
        assert [r.getMessage() for r in caplog.records] == expected
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="getf.analysis"):
            per_task_chain_comm(s, inst, f)
        assert not caplog.records

    def test_getf_log_debug_emits_the_lines(self):
        _, _, _, expected = self.sls_with_late_finishers()
        code = ("from getf import cli\n"
                "from test_analysis import TestPerTaskChains\n"
                "cli._configure_logging()\n"
                "inst, f, s, _ = TestPerTaskChains.sls_with_late_finishers()\n"
                "cli.analysis.per_task_chain_comm(s, inst, f)\n")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "GETF_LOG": "debug",
                 "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [f"DEBUG getf.analysis: {m}" for m in expected]


class TestWeightedTheorem:
    def test_single_task_all_terms_forced(self):
        inst = make_instance([1.0], [], [1.0], weights=[1.0])
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        rep = weighted_theorem_report(s, inst, f, wsol)
        # gamma=2, K=1: per-task bound is 32*3*C* = 96
        by_name = {iq.name: iq for iq in rep.inequalities}
        per_task = by_name["P+sumD(task 0)<=32*(gamma+K)*C*"]
        assert per_task.lhs == pytest.approx(2.0)  # P = 1 plus D = 1
        assert per_task.rhs == pytest.approx(96.0)
        assert rep.passed

    def test_worked_example_full_pipeline(self, example_instance):
        groups = partition_machines(example_instance.platform)
        wsol = solve_weighted_relaxation(example_instance, groups)
        f = assign_groups_weighted(wsol, groups)
        s = getf_schedule(example_instance, f, TieBreak.by_index())
        rep = weighted_theorem_report(s, example_instance, f, wsol)
        assert rep.passed
        assert rep.objective == pytest.approx(s.weighted_completion(example_instance))

    def test_random_ensemble(self):
        rng = random.Random(101)
        for k in range(25):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(3, 7),
                                 m=rng.randint(2, 4), seed=900 + k, density=0.5,
                                 demand_range=(1.0, 4.0), speed_range=(0.5, 1.0),
                                 weights="uniform",
                                 self_comm=("matrix", "infinite")[k % 2])
            inst, scale = normalize_demands(generate_instance(spec))
            assert scale == 1.0
            groups = partition_machines(inst.platform)
            wsol = solve_weighted_relaxation(inst, groups)
            f = assign_groups_weighted(wsol, groups)
            s = getf_schedule(inst, f, TieBreak.by_index())
            rep = weighted_theorem_report(s, inst, f, wsol)
            assert rep.passed, rep.to_json()


def test_idle_window_arithmetic():
    s = Schedule()
    s.place(0, 0, 0.0, 1.0)
    s.place(1, 0, 3.0, 5.0)
    timelines = s.timelines()
    assert machine_idle_in_window(timelines[0], 0.0, 5.0) == pytest.approx(2.0)
    assert machine_idle_in_window(timelines[0], 1.0, 3.0) == pytest.approx(2.0)
    assert machine_idle_in_window(timelines[0], 4.0, 4.0) == 0.0
    assert machine_idle_in_window(timelines.get(1, []), 0.0, 2.0) == pytest.approx(2.0)


def reference_idle_in_window(timeline, lo: float, hi: float) -> float:
    """machine_idle_in_window as it was before it skipped the intervals
    outside the window: every interval adds its clipped overlap."""
    if hi <= lo:
        return 0.0
    busy = 0.0
    for a, b, _ in timeline:
        busy += max(0.0, min(b, hi) - max(a, lo))
    return (hi - lo) - busy


TIMES = st.floats(-4, 4) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(TIMES, TIMES), max_size=10), TIMES, TIMES)
def test_idle_window_matches_unskipped_loop(intervals, lo, hi):
    # Unsorted, overlapping and reversed intervals, NaN and infinite times,
    # and windows with lo >= hi: skipping intervals changes no bit.
    timeline = [(a, b, j) for j, (a, b) in enumerate(intervals)]
    assert repr(machine_idle_in_window(timeline, lo, hi)) == \
        repr(reference_idle_in_window(timeline, lo, hi))


def test_report_json_shape(example_instance):
    s, f = getf_on_example(example_instance)
    doc = separation_report(s, example_instance, f, f.groups).to_dict()
    assert doc["kind"] == "separation"
    assert {"name", "lhs", "rhs", "slack", "pass"} <= set(doc["inequalities"][0])


# ---------------------------------------------------------------------------
# Reference: the per-anchor DP that the chain table replaced, run afresh for
# every anchor, with its own predecessor lists and edge data.
# ---------------------------------------------------------------------------

def reference_min_cost_chain(g, finish, anchors, link_cost, node_cost):
    preds, data_of = [[] for _ in range(g.n)], {}
    for a, b, data in zip(g.src, g.dst, g.data):
        preds[b].append(a)
        data_of[(a, b)] = data
    cost, back = {}, {}

    def resolve(j):
        stack = [j]
        while stack:
            v = stack[-1]
            if v in cost:
                stack.pop()
                continue
            if not preds[v]:
                cost[v], back[v] = node_cost(v), None
                stack.pop()
                continue
            cands = latest_finishing(preds[v], finish)
            missing = [p for p in cands if p not in cost]
            if missing:
                stack.extend(missing)
                continue
            best_p, best_val = None, float("inf")
            for p in cands:
                val = cost[p] + link_cost(p, v, data_of[(p, v)])
                if val < best_val - 1e-15 or (val <= best_val + 1e-15 and
                                              (best_p is None or p < best_p)):
                    best_p, best_val = p, val
            cost[v], back[v] = node_cost(v) + best_val, best_p
            stack.pop()
        return cost[j]

    best_anchor, best_val = None, float("inf")
    for a in sorted(anchors):
        val = resolve(a)
        if val < best_val - 1e-15:
            best_anchor, best_val = a, val
    chain, cur = [], best_anchor
    while cur is not None:
        chain.append(cur)
        cur = back[cur]
    return tuple(reversed(chain)), best_val


def reference_min_comm(s, inst, f, anchor=None):
    def link(src, dst, data):
        sigma = min(inst.platform.comm_speed[s.assignment[src]][i] for i in f.machines_for(dst))
        return data / sigma
    anchors = [anchor] if anchor is not None else latest_finishing(sorted(s.assignment), s.finish)
    return reference_min_cost_chain(inst.graph, s.finish, anchors, link, lambda j: 0.0)


class PerAnchorTable:
    """The chain table's queries, each answered by a fresh reference DP."""

    def __init__(self, s, g, link_cost, node_cost=lambda j: 0.0):
        self.query = lambda anchors: reference_min_cost_chain(g, s.finish, anchors,
                                                              link_cost, node_cost)

    def cheapest(self, anchors):
        return self.query(anchors)

    def cost(self, j):
        return self.query([j])[1]

    def chain(self, j):
        return self.query([j])[0]


def reports_per_anchor_and_table(make_reports):
    """JSON of the reports from the chain table and from the per-anchor DP."""
    table = make_reports()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_ChainTable", PerAnchorTable)
        return table, make_reports()


class TestChainTableMatchesPerAnchorDP:
    @given(st.integers(0, 10_000), st.sampled_from(FAMILIES), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_same_floats_and_bytes(self, seed, family, shuffled):
        rng = random.Random(seed)
        flat = rng.random() < 0.4  # all values equal: many exact finish and cost ties
        identical = flat or rng.random() < 0.3
        inst = generate_instance(GeneratorSpec(
            family=family, n=rng.randint(2, 40), m=rng.randint(1, 6), seed=seed,
            density=rng.choice([0.05, 0.2, 0.5]),
            self_comm=rng.choice(["matrix", "infinite"]),
            data_range=(1.0, 1.0) if flat else rng.choice([(0.0, 4.0), (0.0, 0.0)]),
            demand_range=(1.0, 1.0) if flat else (1.0, 4.0),
            comm_range=(2.0, 2.0) if flat else (1.0, 4.0),
            speed_range=(1.0, 1.0) if identical else (1.0, 2.0)))
        if shuffled:
            inst = shuffle_edges(inst, rng)
        order = topological_order(inst.graph)
        for f in (trivial_assignment(inst), random_band_assignment(inst, rng)):
            for s in (getf_schedule(inst, f, TieBreak.by_index()), sls_schedule(inst, f, order)):
                expected = {j: reference_min_comm(s, inst, f, j)[1] for j in s.iteration_order}
                got = per_task_chain_comm(s, inst, f)
                assert got == expected and json.dumps(got) == json.dumps(expected)
                assert min_comm_terminal_chain(s, inst, f) == reference_min_comm(s, inst, f)
                table = analysis._ChainTable(s, inst.graph, analysis._link_comm(inst, f, s))
                for anchor in range(inst.graph.n):
                    assert table.cheapest([anchor]) == reference_min_comm(s, inst, f, anchor)

                def reports():
                    out = [separation_report(s, inst, f, f.groups).to_json(),
                           makespan_theorem_report(s, inst, f, 1.5).to_json()]
                    if identical:
                        out.append(identical_report(s, inst, opt_ignore_comm=2.0).to_json())
                    return out
                table, per_anchor = reports_per_anchor_and_table(reports)
                assert table == per_anchor

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_order_not_topological(self, seed):
        # A loaded schedule may list its tasks in any order; each value, and
        # the order of the keys, must not depend on it.
        rng = random.Random(seed)
        inst = generate_instance(GeneratorSpec(
            family=FAMILIES[seed % 3], n=rng.randint(2, 30), m=rng.randint(1, 5), seed=seed,
            density=rng.choice([0.2, 0.5]), speed_range=(0.2, 1.0)))
        f = random_band_assignment(inst, rng)
        doc = getf_schedule(inst, f, TieBreak.by_index()).to_dict(inst)
        rng.shuffle(doc["iteration_order"])
        s = schedule_from_dict(doc)
        expected = {j: reference_min_comm(s, inst, f, j)[1] for j in s.iteration_order}
        assert json.dumps(per_task_chain_comm(s, inst, f)) == json.dumps(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_report_same_bytes(self, seed):
        rng = random.Random(seed)
        inst, _ = normalize_demands(generate_instance(GeneratorSpec(
            family=FAMILIES[seed % 3], n=rng.randint(3, 6), m=rng.randint(2, 3),
            seed=1300 + seed, density=0.5, speed_range=(0.5, 1.0), weights="uniform")))
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        for s in (getf_schedule(inst, f, TieBreak.by_index()),
                  sls_schedule(inst, f, topological_order(inst.graph))):
            table, per_anchor = reports_per_anchor_and_table(
                lambda: weighted_theorem_report(s, inst, f, wsol).to_json())
            assert table == per_anchor


class TestGoldenCertifyPath:
    """SHA-256 of what the certify path writes, on two seeded layered
    instances: the SLS schedule, its separation report, its per-task chain
    costs and its ``violations``, once as scheduled and once loaded back
    with every tenth task half a time unit early and the iteration order
    reversed, which is not topological.  The banded instance spreads its
    tasks over the speed bands.  Pinned before ``earliest_start``,
    ``verify_schedule`` and the chain table stopped making per-edge method
    calls."""

    CASES = {  # name -> (instance, whether tasks spread over the bands)
        "layered-300": (GeneratorSpec(family="layered", n=300, m=8, seed=31, density=0.05,
                                      weights="uniform"), False),
        "layered-banded-280": (GeneratorSpec(family="layered", n=280, m=6, seed=32,
                                             density=0.1, speed_range=(0.2, 1.0)), True),
    }
    DIGESTS = {
        ("layered-300", "schedule"): "a93e513f37aa4d4ceeaaedf98fd4cc208129188695c07899594749db7af6c670",
        ("layered-300", "sls.separation"): "ec44f3a1457223fa221afe3f103b6e01185e9895f43f2d883d687535d4aa497a",
        ("layered-300", "sls.chain"): "58d721504624ccf2c4265de5cfab6b7e3c5e35921c062598066186d35e153a09",
        ("layered-300", "sls.violations"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ("layered-300", "loaded.separation"): "ec44f3a1457223fa221afe3f103b6e01185e9895f43f2d883d687535d4aa497a",
        ("layered-300", "loaded.chain"): "50f80f6e70910716ae69bdc42f331ff2f139f6d1dd8c69df5a010801428abb42",
        ("layered-300", "loaded.violations"): "783d55ffbff9c8a74b1cc636fd4aea51f00a2b57972d37a83c153ae8cd872abf",
        ("layered-banded-280", "schedule"): "5d1fdcb9fc655dbc30b373e27aad755de871f805417c74d6703457550786d895",
        ("layered-banded-280", "sls.separation"): "a0b2e00c5affaeb493f49a73c3b5a3d9efe29c52ab0cb2e7092f49ea151b503b",
        ("layered-banded-280", "sls.chain"): "22a1b36b5d657e678f57e3f637596a2df7ebae9112823d49fe76b26a3005641d",
        ("layered-banded-280", "sls.violations"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ("layered-banded-280", "loaded.separation"): "a0b2e00c5affaeb493f49a73c3b5a3d9efe29c52ab0cb2e7092f49ea151b503b",
        ("layered-banded-280", "loaded.chain"): "a882db9b796b30f7f7478fcee0a11f743784ab3657f276a575d9da30d256f48f",
        ("layered-banded-280", "loaded.violations"): "aa288b96aa3ec5c522abfa9c2489b63715a541fc81f99de050ca973137f84ba8",
    }

    @staticmethod
    def outputs(spec: GeneratorSpec, banded: bool) -> dict[str, str]:
        inst = generate_instance(spec)
        if banded:
            groups = partition_machines(inst.platform)
            bands = [k for k in range(1, groups.K + 1) if groups.members[k]]
            f = GroupAssignment({j: bands[j % len(bands)] for j in range(inst.graph.n)}, groups)
        else:
            f = trivial_assignment(inst)
        s = sls_schedule(inst, f, topological_order(inst.graph))
        doc = s.to_dict(inst)
        for e in doc["assignments"][::10]:  # overlaps and early starts
            e["start"] -= 0.5
            e["end"] -= 0.5
        loaded = schedule_from_dict({**doc, "iteration_order": s.iteration_order[::-1]})
        out = {"schedule": s.to_json(inst)}
        for name, sched in (("sls", s), ("loaded", loaded)):
            out[f"{name}.separation"] = separation_report(sched, inst, f, f.groups).to_json()
            out[f"{name}.chain"] = json.dumps(per_task_chain_comm(sched, inst, f))
            out[f"{name}.violations"] = json.dumps(verify_schedule(inst, sched, f).violations)
        return out

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digests(self, case):
        found = {(case, k): hashlib.sha256(v.encode()).hexdigest()
                 for k, v in self.outputs(*self.CASES[case]).items()}
        assert found == {k: v for k, v in self.DIGESTS.items() if k[0] == case}


class TestScheduleIsItsMaps:
    """A schedule is its three maps: rebuilt from them through the public
    constructor, it writes and reports the same bytes as the schedule the
    scheduler placed or the loader read."""

    @staticmethod
    def outputs(s, inst, f, groups, wsol) -> list[str]:
        return [s.to_json(inst), separation_report(s, inst, f, groups).to_json(),
                repr(per_task_chain_comm(s, inst, f)),
                weighted_theorem_report(s, inst, f, wsol).to_json()]

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_rebuilt_schedules_give_the_same_bytes(self, seed):
        inst, _ = normalize_demands(generate_instance(GeneratorSpec(
            "layered", 10, 3, seed=seed, density=0.4, weights="uniform")))
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        getf = getf_schedule(inst, f, TieBreak.random_rule(seed))
        doc = json.loads(getf.to_json(inst))
        random.Random(seed).shuffle(doc["assignments"])
        for s in (getf, sls_schedule(inst, f, topological_order(inst.graph)),
                  schedule_from_dict(doc)):
            rebuilt = Schedule(dict(s.assignment), dict(s.start), dict(s.finish))
            assert self.outputs(rebuilt, inst, f, groups, wsol) == \
                self.outputs(s, inst, f, groups, wsol)

    def test_motivating_etf_schedule(self):
        inst = generate_instance(GeneratorSpec("layered", 40, 4, seed=3, density=0.3,
                                               weights="uniform"))
        f = trivial_assignment(inst)
        s = etf_schedule(inst, TieBreak.by_index())
        rebuilt = Schedule(dict(s.assignment), dict(s.start), dict(s.finish))
        assert verify_schedule(inst, rebuilt).feasible
        report = separation_report(rebuilt, inst, f, f.groups)
        assert report.passed
        assert report.to_json() == separation_report(s, inst, f, f.groups).to_json()
        assert len(per_task_chain_comm(rebuilt, inst, f)) == len(rebuilt.iteration_order) == 40

    def test_a_moved_task_is_read_where_the_verifier_reads_it(self):
        inst = generate_instance(GeneratorSpec("layered", 40, 4, seed=3, density=0.3))
        f = trivial_assignment(inst)
        s = etf_schedule(inst, TieBreak.by_index())
        before = separation_report(s, inst, f, f.groups)
        chain = before.context["chain"]
        m = inst.platform.m
        for j in range(inst.graph.n):  # every task off the chain, one machine up
            if j not in chain:
                s.assignment[j] = (s.assignment[j] + 1) % m
        assert not verify_schedule(inst, s).feasible  # the verifier sees the moves
        after = separation_report(s, inst, f, f.groups)
        assert after.context["chain"] == chain
        idle = {iq.name: iq.lhs for iq in after.inequalities[1:]}
        expected = {}
        timelines = s.timelines()
        for a, b in zip(chain, chain[1:]):
            for i in range(m):
                expected[f"idle[{a}->{b}]@m{i}"] = reference_idle_in_window(
                    timelines.get(i, []), s.finish[a], s.start[b])
        assert idle == expected
        assert idle != {iq.name: iq.lhs for iq in before.inequalities[1:]}

    def test_timelines_follow_the_maps(self):
        s = Schedule()
        s.place(2, 0, 0.0, 1.0)
        s.place(0, 1, 0.0, 2.0)
        s.place(1, 0, 3.0, 5.0)
        assert s.timelines() == {0: [(0.0, 1.0, 2), (3.0, 5.0, 1)], 1: [(0.0, 2.0, 0)]}
        s.assignment[0] = 0  # moved, it keeps its place in the placement order
        assert s.timelines() == {0: [(0.0, 1.0, 2), (0.0, 2.0, 0), (3.0, 5.0, 1)]}
        rebuilt = Schedule(dict(s.assignment), dict(s.start), dict(s.finish))
        assert rebuilt.timelines() == s.timelines()
