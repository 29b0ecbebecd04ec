"""Acceptance suite: one test per stated criterion, printed pass/fail lines.

Every ensemble below is fully seeded and reproducible.  Criteria that
compare against exact optima use the brute-force oracle; LP-based criteria
use the fractional optima produced by the in-tree simplex.

Known red: the per-link idle-replay clause of criterion 2.  The replayed
bound charges each chain link's window only with that link's transfer
time, but a task's start can be held back by a *different* predecessor's
data arrival, so the per-machine idle in the window can exceed the link
bound (it does even on the worked four-task example, and on roughly a
third of the mixed ensemble).  The clause is asserted as stated anyway;
see the failure message for the measured rate.
"""

import itertools
import random
import statistics
import time

import pytest

from getf.analysis import (identical_report, machine_idle_in_window,
                           makespan_theorem_report, separation_report,
                           weighted_theorem_report)
from getf.generator import (FAMILIES, LAYERED, RANDOM_DAG, SELF_COMM_INFINITE,
                            SELF_COMM_MATRIX, GeneratorSpec, generate_instance)
from getf.grouping import (GroupAssignment, assign_groups_makespan,
                           assign_groups_weighted, partition_machines,
                           solve_makespan_relaxation, solve_weighted_relaxation,
                           trivial_assignment)
from getf.model import normalize_demands, parse_instance
from getf.oracle import brute_force_schedule, lower_bounds, restrict_platform
from getf.scheduler import TieBreak, etf_schedule, getf_schedule, sls_schedule, verify_schedule

from conftest import EXAMPLE_JSON

TIE_RULES = [TieBreak.by_index(), TieBreak.random_rule(17),
             TieBreak.largest_demand(), TieBreak.most_successors()]


def announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Golden worked example
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example_golden():
    t0 = time.time()
    inst = parse_instance(EXAMPLE_JSON)
    f = trivial_assignment(inst)

    s = getf_schedule(inst, f, TieBreak.by_index())
    getf_ok = (
        abs(s.makespan() - 5.0) <= 1e-9
        and s.assignment[3] == 0
        and abs(s.start[3] - 2.0) <= 1e-9
    )

    sls = sls_schedule(inst, f, [0, 1, 2, 3])
    idle = machine_idle_in_window(sls, 1, 1.0, 3.0)
    sls_ok = (
        abs(sls.makespan() - 6.0) <= 1e-9
        and abs(idle - 2.0) <= 1e-9
        and abs(sls.start[3] - 3.0) <= 1e-9
    )
    elapsed = time.time() - t0
    ok = getf_ok and sls_ok and elapsed < 1.0
    announce(1, ok, f"golden schedules: getf makespan {s.makespan():g}, "
                    f"sls makespan {sls.makespan():g}, idle {idle:g}", elapsed)
    assert getf_ok, "greedy schedule deviates from the golden placement"
    assert sls_ok, "list schedule deviates from the golden placement"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Separation suite: shared 1000-instance x 4-tie-rule ensemble
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def separation_suite():
    t0 = time.time()
    stats = {"runs": 0, "sep_failures": 0, "replay_failures": 0,
             "first_replay": None, "infeasible": 0}
    for k in range(1000):
        r = random.Random(22_000 + k)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=r.randint(3, 50), m=r.randint(2, 16),
            seed=22_500 + k, density=r.choice([0.15, 0.3, 0.5]),
            demand_range=(1.0, 4.0), speed_range=(1.0, 3.0),
            comm_range=(1.0, 4.0), data_range=(0.0, 4.0),
            self_comm=(SELF_COMM_MATRIX, SELF_COMM_INFINITE)[k % 2],
        )
        inst = generate_instance(spec)
        groups = partition_machines(inst.platform)
        nonempty = [g for g in range(1, groups.K + 1) if groups.members[g]]
        fr = random.Random(22_900 + k)
        f = GroupAssignment({t.id: fr.choice(nonempty) for t in inst.graph.tasks},
                            groups)
        for tie in TIE_RULES:
            s = getf_schedule(inst, f, tie)
            stats["runs"] += 1
            if not verify_schedule(inst, s, f).feasible:
                stats["infeasible"] += 1
                continue
            rep = separation_report(s, inst, f, groups)
            if not rep.inequalities[0].passed:
                stats["sep_failures"] += 1
            bad = [iq for iq in rep.inequalities[1:] if not iq.passed]
            if bad:
                stats["replay_failures"] += 1
                if stats["first_replay"] is None:
                    stats["first_replay"] = (k, tie.variant, bad[0].name,
                                             bad[0].lhs, bad[0].rhs)
    stats["elapsed"] = time.time() - t0
    return stats


def test_criterion_2_separation_inequality(separation_suite):
    st = separation_suite
    ok = st["sep_failures"] == 0 and st["infeasible"] == 0 and st["elapsed"] < 120
    announce(2, ok, f"separation inequality: {st['runs'] - st['sep_failures']}"
                    f"/{st['runs']} runs hold makespan <= P+sumD+C",
             st["elapsed"])
    assert st["infeasible"] == 0
    assert st["sep_failures"] == 0
    assert st["elapsed"] < 120


def test_criterion_2_idle_replay(separation_suite):
    st = separation_suite
    ok = st["replay_failures"] == 0
    announce(2, ok, f"per-link idle replay: {st['replay_failures']}/{st['runs']} "
                    f"runs exceed a link bound", st["elapsed"])
    assert st["replay_failures"] == 0, (
        f"idle exceeded the chain-link transfer bound in {st['replay_failures']} of "
        f"{st['runs']} runs (first: instance {st['first_replay'][0]}, tie "
        f"{st['first_replay'][1]}, entry {st['first_replay'][2]} with idle "
        f"{st['first_replay'][3]:.6g} > bound {st['first_replay'][4]:.6g}); "
        "the per-link bound only charges the chain link's own transfer time and "
        "ignores the other predecessors' data arrivals, which can hold a task "
        "back while every machine in its group sits idle"
    )


# ---------------------------------------------------------------------------
# 3. Fractional-optimum chain/load bounds (makespan pipeline)
# ---------------------------------------------------------------------------

def test_criterion_3_makespan_pipeline_bounds():
    t0 = time.time()
    chain_fail = load_fail = combined_fail = 0
    for k in range(200):
        r = random.Random(33_000 + k)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=r.randint(3, 10), m=r.randint(2, 6),
            seed=33_500 + k, density=r.choice([0.2, 0.4, 0.6]),
            demand_range=(1.0, 4.0), speed_range=(1.0, 3.0),
            comm_range=(1.0, 4.0), data_range=(0.0, 4.0),
            self_comm=(SELF_COMM_MATRIX, SELF_COMM_INFINITE)[k % 2],
        )
        inst = generate_instance(spec)
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        f = assign_groups_makespan(frac, groups)
        s = getf_schedule(inst, f, TIE_RULES[k % 4])
        assert verify_schedule(inst, s, f).feasible
        rep = makespan_theorem_report(s, inst, f, groups, frac.T)
        named = {iq.name: iq for iq in rep.inequalities}
        if not named["P<=2*gamma*T*"].passed:
            chain_fail += 1
        if not named["sumD<=2*K*T*"].passed:
            load_fail += 1
        if not named["makespan<=2*(gamma+K)*T*+C"].passed:
            combined_fail += 1
    elapsed = time.time() - t0
    ok = chain_fail == load_fail == combined_fail == 0 and elapsed < 120
    announce(3, ok, f"200 instances: chain_fail={chain_fail} load_fail={load_fail} "
                    f"combined_fail={combined_fail}", elapsed)
    assert chain_fail == 0 and load_fail == 0 and combined_fail == 0
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 4. Fractional optimum lower-bounds the exact zero-communication optimum
# ---------------------------------------------------------------------------

def test_criterion_4_lp_lower_bound():
    t0 = time.time()
    failures = 0
    for k in range(50):
        r = random.Random(44_000 + k)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=r.randint(2, 6), m=r.randint(1, 3),
            seed=44_500 + k, density=r.choice([0.3, 0.5]),
            demand_range=(1.0, 4.0), speed_range=(1.0, 2.0),
            comm_range=(1.0, 4.0), data_range=(0.0, 0.0),
        )
        inst = generate_instance(spec)
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        sub = restrict_platform(inst, groups.retained)
        opt, _ = brute_force_schedule(sub, ignore_comm=True)
        work, chain = lower_bounds(inst)
        if frac.T > opt * (1 + 1e-6):
            failures += 1
        if max(work, chain) > opt * (1 + 1e-6):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60
    announce(4, ok, f"50 tiny instances: T* and analytic bounds below the exact "
                    f"optimum, failures={failures}", elapsed)
    assert failures == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 5. Identical machines: decomposition and optimum-relative bounds
# ---------------------------------------------------------------------------

def test_criterion_5_identical_machines():
    t0 = time.time()
    inter_fail = opt_fail = tiny_count = 0
    for k in range(500):
        r = random.Random(55_000 + k)
        speed = r.uniform(0.5, 2.0)
        n, m = r.randint(3, 16), r.randint(2, 6)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=n, m=m, seed=55_500 + k,
            density=r.choice([0.2, 0.4, 0.6]),
            demand_range=(1.0, 4.0), speed_range=(speed, speed),
            comm_range=(1.0, 4.0), data_range=(0.0, 4.0),
            self_comm=(SELF_COMM_MATRIX, SELF_COMM_INFINITE)[k % 2],
        )
        inst = generate_instance(spec)
        s = etf_schedule(inst, TIE_RULES[k % 4])
        assert verify_schedule(inst, s).feasible
        opt = None
        if n <= 6 and m <= 3:
            tiny_count += 1
            opt, _ = brute_force_schedule(inst, ignore_comm=True)
        rep = identical_report(s, inst, opt_ignore_comm=opt)
        if not rep.inequalities[0].passed:
            inter_fail += 1
        if opt is not None and not rep.inequalities[1].passed:
            opt_fail += 1

    # worked-example spot values
    inst = parse_instance(EXAMPLE_JSON)
    s = etf_schedule(inst, TieBreak.by_index())
    rep = identical_report(s, inst, opt_ignore_comm=4.0)
    golden_ok = (
        abs(rep.context["C'"] - 0.75) <= 1e-9
        and abs(rep.inequalities[1].rhs - 6.75) <= 1e-9
        and rep.passed
    )
    elapsed = time.time() - t0
    ok = inter_fail == opt_fail == 0 and golden_ok and elapsed < 120
    announce(5, ok, f"500 identical-machine instances: decomposition failures="
                    f"{inter_fail}, optimum-relative failures={opt_fail} over "
                    f"{tiny_count} tiny instances, golden C'=0.75 bound 6.75",
             elapsed)
    assert inter_fail == 0 and opt_fail == 0 and golden_ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 6. Weighted completion pipeline
# ---------------------------------------------------------------------------

def test_criterion_6_weighted_pipeline():
    t0 = time.time()
    per_task_fail = aggregate_fail = interval_fail = slice_fail = 0
    for k in range(200):
        r = random.Random(66_000 + k)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=r.randint(3, 7), m=r.randint(2, 4),
            seed=66_500 + k, density=r.choice([0.3, 0.5, 0.7]),
            demand_range=(1.0, 4.0), speed_range=(0.5, 1.0),
            comm_range=(1.0, 4.0), data_range=(0.0, 4.0),
            self_comm=(SELF_COMM_MATRIX, SELF_COMM_INFINITE)[k % 2],
            weights="uniform",
        )
        inst, scale = normalize_demands(generate_instance(spec))
        assert scale == 1.0
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        s = getf_schedule(inst, f, TIE_RULES[k % 4])
        assert verify_schedule(inst, s, f).feasible
        rep = weighted_theorem_report(s, inst, f, groups, wsol)
        for iq in rep.inequalities:
            if iq.passed:
                continue
            if iq.name.startswith("P+sumD"):
                per_task_fail += 1
            elif iq.name.startswith("2^(q-1)"):
                interval_fail += 1
            elif iq.name.startswith("sum wC"):
                aggregate_fail += 1
            elif iq.name.startswith("interval"):
                slice_fail += 1
    elapsed = time.time() - t0
    ok = (per_task_fail == aggregate_fail == interval_fail == slice_fail == 0
          and elapsed < 300)
    announce(6, ok, f"200 weighted instances: per_task={per_task_fail} "
                    f"aggregate={aggregate_fail} interval={interval_fail} "
                    f"slice={slice_fail} failures", elapsed)
    assert per_task_fail == 0
    assert aggregate_fail == 0
    assert interval_fail == 0
    assert slice_fail == 0
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 7. LP solver against the vertex-enumeration oracle plus the two golden LPs
# ---------------------------------------------------------------------------

def test_criterion_7_lp_solver_oracle():
    from test_lp_solver import random_bounded_lp, vertex_enumeration_optimum
    from getf.lp_solver import solve_lp

    t0 = time.time()
    rng = random.Random(770)
    mismatches = 0
    for _ in range(100):
        lp = random_bounded_lp(rng)
        expected = vertex_enumeration_optimum(lp)
        got = solve_lp(lp)
        if (not got.is_optimal or expected is None
                or abs(got.objective - expected) > 1e-7):
            mismatches += 1

    inst = parse_instance(EXAMPLE_JSON)
    groups = partition_machines(inst.platform)
    tstar = solve_makespan_relaxation(inst, groups).T
    wsol = solve_weighted_relaxation(inst, groups)
    weights = {t.id: t.weight for t in inst.graph.tasks}
    wobj = wsol.objective(weights)
    golden_ok = abs(tstar - 4.0) <= 1e-6 and abs(wobj - 4.0) <= 1e-6
    elapsed = time.time() - t0
    ok = mismatches == 0 and golden_ok and elapsed < 60
    announce(7, ok, f"100 LPs vs vertex enumeration: mismatches={mismatches}; "
                    f"golden optima T*={tstar:g}, weighted={wobj:.6g}", elapsed)
    assert mismatches == 0
    assert golden_ok
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 8. Feasibility of everything emitted, and byte-identical determinism
# ---------------------------------------------------------------------------

def test_criterion_8_feasibility_and_determinism():
    t0 = time.time()
    infeasible = nondeterministic = 0
    for k in range(60):
        r = random.Random(88_000 + k)
        spec = GeneratorSpec(
            family=FAMILIES[k % 3], n=r.randint(3, 20), m=r.randint(2, 8),
            seed=88_500 + k, density=0.35,
            self_comm=(SELF_COMM_MATRIX, SELF_COMM_INFINITE)[k % 2],
        )
        inst = generate_instance(spec)
        f = trivial_assignment(inst)
        for tie in (TieBreak.by_index(), TieBreak.random_rule(k)):
            a = getf_schedule(inst, f, tie)
            b = getf_schedule(inst, f, tie)
            if not verify_schedule(inst, a, f).feasible:
                infeasible += 1
            if a.to_json(inst) != b.to_json(inst):
                nondeterministic += 1
        from getf.model import topological_order
        sls = sls_schedule(inst, f, topological_order(inst.graph))
        if not verify_schedule(inst, sls, f).feasible:
            infeasible += 1
    elapsed = time.time() - t0
    ok = infeasible == 0 and nondeterministic == 0
    announce(8, ok, f"60 instances x 2 tie rules: infeasible={infeasible}, "
                    f"nondeterministic={nondeterministic}", elapsed)
    assert infeasible == 0
    assert nondeterministic == 0


# ---------------------------------------------------------------------------
# 9. Many bands: speeds across (1/(2m), 1), where ETF's guarantee does not apply
# ---------------------------------------------------------------------------

def test_criterion_9_many_band_stress():
    """The makespan pipeline on 24 instances whose machines span a speed
    ratio of 2m, so there are several bands and slow machines are discarded.
    A failing inequality is a defect, reported with its instance."""
    t0 = time.time()
    infeasible, failures, getf_over_etf = [], [], []
    max_bands = discarded = 0
    worst_ratio = 0.0
    cases = itertools.product((LAYERED, RANDOM_DAG), (20, 40, 80), (16, 32), range(2))
    for k, (family, n, m, _) in enumerate(cases, start=1):
        spec = GeneratorSpec(family=family, n=n, m=m, seed=900_000 + k, density=0.2,
                             speed_range=(1 / (2 * m), 1.0))
        inst = generate_instance(spec)
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        f = assign_groups_makespan(frac, groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        if not verify_schedule(inst, s, f).feasible:
            infeasible.append(spec)
        checked = [*makespan_theorem_report(s, inst, f, groups, frac.T).inequalities,
                   separation_report(s, inst, f, groups).inequalities[0]]
        failures += [(spec, iq.name, iq.lhs, iq.rhs) for iq in checked if not iq.passed]
        max_bands = max(max_bands, groups.K)
        discarded += m - len(groups.retained)
        worst_ratio = max(worst_ratio, s.makespan() / frac.T)
        getf_over_etf.append(s.makespan() / etf_schedule(inst, TieBreak.by_index()).makespan())
    elapsed = time.time() - t0
    ok = not infeasible and not failures and elapsed < 60
    announce(9, ok, f"24 many-band instances: K <= {max_bands}, {discarded} machines "
                    f"discarded, makespan/T* <= {worst_ratio:.3f}, GETF/ETF median "
                    f"{statistics.median(getf_over_etf):.3f} min {min(getf_over_etf):.3f} "
                    f"max {max(getf_over_etf):.3f}, infeasible={len(infeasible)} "
                    f"failures={len(failures)}", elapsed)
    assert not infeasible, f"infeasible schedule on {infeasible[0]}"
    assert not failures, f"inequality failed: {failures[0]}"
    assert elapsed < 60


def test_criterion_9_many_band_stress_weighted():
    """The weighted pipeline on 12 instances whose machines span a speed
    ratio of 2m, kept to n <= 10 for the time-indexed program's size.  A
    failing inequality is a defect, reported with its instance."""
    t0 = time.time()
    infeasible, failures, getf_over_etf = [], [], []
    max_bands = discarded = 0
    worst_ratio = 0.0
    cases = itertools.product((LAYERED, RANDOM_DAG), (6, 8, 10), (16, 32))
    for k, (family, n, m) in enumerate(cases, start=1):
        spec = GeneratorSpec(family=family, n=n, m=m, seed=920_000 + k, density=0.2,
                             speed_range=(1 / (2 * m), 1.0), weights="uniform")
        inst, _ = normalize_demands(generate_instance(spec))
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        s = getf_schedule(inst, f, TieBreak.by_index())
        if not verify_schedule(inst, s, f).feasible:
            infeasible.append(spec)
        rep = weighted_theorem_report(s, inst, f, groups, wsol)
        failures += [(spec, iq.name, iq.lhs, iq.rhs) for iq in rep.inequalities if not iq.passed]
        max_bands = max(max_bands, groups.K)
        discarded += m - len(groups.retained)
        wc = s.weighted_completion(inst)
        worst_ratio = max(worst_ratio, wc / wsol.objective(inst.graph.weight))
        getf_over_etf.append(
            wc / etf_schedule(inst, TieBreak.by_index()).weighted_completion(inst))
    elapsed = time.time() - t0
    ok = not infeasible and not failures and elapsed < 60
    announce(9, ok, f"12 many-band weighted instances: K <= {max_bands}, {discarded} "
                    f"machines discarded, sum wC/LP <= {worst_ratio:.3f}, GETF/ETF "
                    f"median {statistics.median(getf_over_etf):.3f} min "
                    f"{min(getf_over_etf):.3f} max {max(getf_over_etf):.3f}, "
                    f"infeasible={len(infeasible)} failures={len(failures)}", elapsed)
    assert not infeasible, f"infeasible schedule on {infeasible[0]}"
    assert not failures, f"inequality failed: {failures[0]}"
    assert elapsed < 60
