import dataclasses
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import (BAND_TIE_TOL, GroupAssignment, GroupingError, MachineGroups,
                           _band_mass, _assign_from_mass, _proc,
                           MakespanFractional, WeightedFractional,
                           assign_groups_makespan, assign_groups_weighted,
                           build_makespan_lp, build_weighted_lp, collapse_time_indexed,
                           extract_makespan_fractional, extract_weighted_fractional,
                           horizon_intervals,
                           partition_machines, solve_makespan_relaxation,
                           solve_weighted_relaxation, trivial_assignment,
                           weighted_slice_feasibility)
from getf.lp_solver import EQ, FEAS_TOL, LE, OPTIMAL, LinearProgram, residuals, solve_lp
from getf.model import normalize_demands, topological_order
from getf.oracle import brute_force_schedule, restrict_platform
from getf.pipeline import run as run_pipeline
from getf.scheduler import TieBreak

from conftest import make_instance


class TestPartition:
    def test_discard_and_band(self):
        # Speeds 8,4,2,1 with m=4: the speed-1 machine is below s_max/m = 2 and
        # goes; survivors rescale to 4,2,1; gamma=2 gives bands [1,2) and [2,4].
        inst = make_instance([1.0], [], [8.0, 4.0, 2.0, 1.0])
        g = partition_machines(inst.platform)
        assert g.retained == (0, 1, 2)
        assert g.gamma == 2.0 and g.K == 2
        assert {i: inst.platform.speed(i) * 4 / 8.0 for i in g.retained} == \
            {0: 4.0, 1: 2.0, 2: 1.0}
        assert g.group_of == {0: 2, 1: 2, 2: 1}
        assert g.group_speed == {1: 2.0, 2: 12.0}

    def test_identical_speeds_single_band(self):
        inst = make_instance([1.0], [], [1.0, 1.0])
        g = partition_machines(inst.platform)
        assert g.retained == (0, 1)
        assert g.gamma == 2.0 and g.K == 1
        assert g.group_speed == {1: 2.0}

    def test_single_machine(self):
        inst = make_instance([1.0], [], [5.0])
        g = partition_machines(inst.platform)
        assert g.K == 1
        assert g.group_of == {0: 1}

    def test_gamma_override(self):
        inst = make_instance([1.0], [], [4.0, 2.0, 1.0, 1.0])
        g = partition_machines(inst.platform, gamma=4.0)
        assert g.gamma == 4.0
        assert g.K == 1

    def test_gamma_must_exceed_one(self):
        inst = make_instance([1.0], [], [1.0])
        for gamma in (1.0, math.nan):
            with pytest.raises(GroupingError):
                partition_machines(inst.platform, gamma=gamma)

    def test_gamma_must_be_finite(self):
        inst = make_instance([1.0], [], [1.0, 2.0])
        with pytest.raises(GroupingError, match="gamma must be finite, got inf"):
            partition_machines(inst.platform, gamma=math.inf)

    def test_band_count_bounded(self):
        # K = ceil(log_gamma(m)) on 8 machines: 10,000 bands are built, and
        # 10,001 are refused before anything of that size is.
        inst = make_instance([1.0], [], [1.0] * 8)
        assert partition_machines(inst.platform, 8 ** (1 / 9999.5)).K == 10_000
        with pytest.raises(GroupingError, match="needs 10001 speed bands for 8 machines"):
            partition_machines(inst.platform, 8 ** (1 / 10000.5))

    def test_trivial_band_is_the_one_band_partition(self):
        # Speeds in [1, 2] keep every machine and gamma > m gives one band, so
        # the partition must equal the trivial band, rescaled totals included.
        rng = random.Random(14)
        for _ in range(300):
            m = rng.randint(1, 12)
            inst = make_instance([1.0], [], [rng.uniform(1.0, 2.0) for _ in range(m)])
            gamma = m + 1.0
            assert partition_machines(inst.platform, gamma) == \
                dataclasses.replace(trivial_assignment(inst).groups, gamma=gamma)

    def test_discarded_total_at_most_fastest(self):
        rng = random.Random(3)
        for trial in range(200):
            m = rng.randint(1, 16)
            speeds = [rng.uniform(0.01, 10.0) for _ in range(m)]
            inst = make_instance([1.0], [], speeds)
            g = partition_machines(inst.platform)
            discarded = [s for i, s in enumerate(speeds) if i not in g.retained]
            assert sum(discarded) <= max(speeds) + 1e-9
            # every retained machine sits in its band, top band closed
            for i in g.retained:
                k = g.group_of[i]
                sigma = speeds[i] * (m / max(speeds))   # rescaled: fastest is m
                assert g.gamma ** (k - 1) <= sigma * (1 + 1e-9)
                if k < g.K:
                    assert sigma < g.gamma ** k * (1 + 1e-9)
                else:
                    assert sigma <= g.gamma ** g.K * (1 + 1e-9)


class TestMakespanRelaxation:
    def test_single_task_forced(self):
        inst = make_instance([3.0], [], [1.0])
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        assert frac.T == pytest.approx(3.0, abs=1e-7)
        assert frac.C[0] == pytest.approx(3.0, abs=1e-7)
        assert frac.x[(0, 0)] == pytest.approx(1.0, abs=1e-7)

    def test_worked_example_chain_bound_binds(self, example_instance):
        groups = partition_machines(example_instance.platform)
        frac = solve_makespan_relaxation(example_instance, groups)
        assert frac.T == pytest.approx(4.0, abs=1e-7)

    def test_two_independent_tasks_split(self):
        inst = make_instance([1.0, 1.0], [], [1.0, 1.0])
        groups = partition_machines(inst.platform)
        frac = solve_makespan_relaxation(inst, groups)
        assert frac.T == pytest.approx(1.0, abs=1e-7)

    def test_t_star_dominates_completions(self):
        rng = random.Random(11)
        for k in range(20):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 8),
                                 m=rng.randint(1, 4), seed=k, density=0.4)
            inst = generate_instance(spec)
            groups = partition_machines(inst.platform)
            frac = solve_makespan_relaxation(inst, groups)
            assert frac.T >= frac.C.max() - 1e-6

    def test_relaxation_lower_bounds_exact_optimum(self):
        rng = random.Random(21)
        for k in range(15):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 5),
                                 m=rng.randint(1, 3), seed=100 + k, density=0.5,
                                 data_range=(0.0, 0.0))
            inst = generate_instance(spec)
            groups = partition_machines(inst.platform)
            frac = solve_makespan_relaxation(inst, groups)
            sub = restrict_platform(inst, groups.retained)
            opt, _ = brute_force_schedule(sub, ignore_comm=True)
            assert frac.T <= opt * (1 + 1e-6) + 1e-9


def two_band_groups() -> MachineGroups:
    # Machine 0 fills the top band alone (total speed 4); machines 1..3 form
    # the low band (total speed 3).  Nothing is below the 1/m threshold.
    inst = make_instance([1.0], [], [4.0, 1.0, 1.0, 1.0])
    g = partition_machines(inst.platform)
    assert g.K == 2 and g.members[1] == (1, 2, 3) and g.members[2] == (0,)
    return g


class TestGroupAssignmentRule:
    def test_tail_mass_forces_top_band(self):
        g = two_band_groups()
        frac = MakespanFractional(np.array([[0.6], [0.4], [0.0], [0.0]]), np.array([1.0]), 1.0)
        f = assign_groups_makespan(frac, g, theta=0.5)
        assert f.group_of_task[0] == 2

    def test_low_tail_falls_back_to_fastest_band(self):
        g = two_band_groups()
        # tail at band 2 is only 0.4 < 1/2, so candidates start at band 1;
        # the top band still wins on total speed (4 vs 3).
        frac = MakespanFractional(np.array([[0.4], [0.6], [0.0], [0.0]]), np.array([1.0]), 1.0)
        f = assign_groups_makespan(frac, g, theta=0.5)
        assert f.group_of_task[0] == 2

    def test_single_band_everything_goes_there(self):
        inst = make_instance([1.0, 1.0], [], [1.0, 1.0])
        g = partition_machines(inst.platform)
        frac = MakespanFractional(np.array([[1.0, 0.5], [0.0, 0.5]]), np.array([1.0, 1.0]), 1.0)
        f = assign_groups_makespan(frac, g)
        assert f.group_of_task == {0: 1, 1: 1}

    def test_rescaled_speed_tie_goes_to_higher_band(self):
        # Band totals tie at 3.8 (rescaled, at 3.0), but 2.2 + 1.6 =
        # 3.8000000000000003 > 3.8 would rank the low band first without
        # BAND_TIE_TOL.
        g = partition_machines(make_instance([1.0], [], [3.8, 2.2, 1.6]).platform)
        assert g.members == {1: (1, 2), 2: (0,)}
        frac = MakespanFractional(np.array([[0.0], [1.0], [0.0]]), np.array([1.0]), 1.0)
        assert assign_groups_makespan(frac, g).group_of_task[0] == 2

    def test_total_speed_tie_goes_to_higher_band(self):
        # Bands 2 and 3 both total 13.0; their rescaled totals s_i * m / s_max
        # round to 9.285714285714286 and 9.285714285714285, the lower band first.
        g = partition_machines(make_instance([1.0], [], [3.0, 5.0, 5.0, 6.0, 7.0]).platform,
                               gamma=2.0)
        assert g.members == {1: (), 2: (0, 1, 2), 3: (3, 4)}
        assert g.group_speed[2] == g.group_speed[3] == 13.0
        frac = MakespanFractional(np.array([[0.0], [1.0], [0.0], [0.0], [0.0]]),
                                  np.array([1.0]), 1.0)
        assert assign_groups_makespan(frac, g).group_of_task[0] == 3

    @staticmethod
    def ranked_bands(g: MachineGroups) -> list[int]:
        """The band chosen from each band l = 1..K: all of task l-1's mass is in band l."""
        f = _assign_from_mass(np.eye(g.K), g, theta=0.5)
        return [f.group_of_task[ell - 1] for ell in range(1, g.K + 1)]

    @staticmethod
    def max_definition(g: MachineGroups) -> list[int]:
        return [max(range(ell, g.K + 1), key=lambda k: (g.group_speed[k], k))
                for ell in range(1, g.K + 1)]

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0]), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_band_ranking_matches_max_definition(self, speeds):
        # Few distinct speeds, so exact ties and empty bands (speed 0) are common.
        g = dataclasses.replace(two_band_groups(), K=len(speeds),
                                group_speed=dict(enumerate(speeds, start=1)))
        assert self.ranked_bands(g) == self.max_definition(g)

    def test_band_ranking_on_near_one_gamma(self):
        # gamma near 1 gives many bands, most of them empty.
        inst = make_instance([1.0], [], [1.0, 1.0, 1.5, 2.0, 3.0, 3.0, 7.0, 8.0])
        g = partition_machines(inst.platform, gamma=1.01)
        assert g.K > 100 and 0.0 in g.group_speed.values()
        assert self.ranked_bands(g) == self.max_definition(g)

    def test_exact_half_tail_is_inclusive(self):
        g = two_band_groups()
        frac = MakespanFractional(np.array([[0.5], [0.5], [0.0], [0.0]]), np.array([1.0]), 1.0)
        f = assign_groups_makespan(frac, g, theta=0.5)
        assert f.group_of_task[0] == 2

    def test_lost_mass_error_names_the_task(self):
        g = two_band_groups()
        frac = MakespanFractional(np.array([[0.1], [0.1], [0.0], [0.0]]), np.array([1.0]), 1.0)
        with pytest.raises(GroupingError, match="task 0"):
            assign_groups_makespan(frac, g, theta=0.5)

    def test_theta_out_of_range_rejected(self):
        g = two_band_groups()
        frac = MakespanFractional(np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([1.0]), 1.0)
        with pytest.raises(GroupingError, match="theta"):
            assign_groups_makespan(frac, g, theta=1.0)

    def test_both_tails_hold_on_pipeline_output(self):
        rng = random.Random(31)
        for k in range(25):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 8),
                                 m=rng.randint(2, 10), seed=200 + k, density=0.3,
                                 speed_range=(0.5, 5.0))
            inst = generate_instance(spec)
            groups = partition_machines(inst.platform)
            frac = solve_makespan_relaxation(inst, groups)
            f = assign_groups_makespan(frac, groups, theta=0.5)
            band_mass = _band_mass(frac.x, groups)
            for j in range(inst.graph.n):
                mass = dict(enumerate(band_mass[:, j].tolist(), start=1))
                lj_candidates = [
                    ell for ell in range(1, groups.K + 1)
                    if sum(mass[k2] for k2 in range(ell, groups.K + 1)) >= 0.5 - 1e-9
                ]
                lj = max(lj_candidates)
                chosen = f.group_of_task[j]
                assert lj <= chosen <= groups.K
                assert sum(mass[k2] for k2 in range(1, lj + 1)) > 0.5 - 1e-6
                for k2 in range(lj, groups.K + 1):
                    assert (groups.group_speed[chosen]
                            >= groups.group_speed[k2] * (1 - BAND_TIE_TOL))


class TestWeightedRelaxation:
    def test_single_unit_task(self):
        inst = make_instance([1.0], [], [1.0], weights=[1.0])
        groups = partition_machines(inst.platform)
        assert horizon_intervals(inst, groups) == 1
        wsol = solve_weighted_relaxation(inst, groups)
        assert wsol.C[0] == pytest.approx(1.0, abs=1e-7)
        assert wsol.objective({0: 1.0}) == pytest.approx(1.0, abs=1e-7)

    def test_worked_example_sink_weight(self, example_instance):
        groups = partition_machines(example_instance.platform)
        wsol = solve_weighted_relaxation(example_instance, groups)
        weights = {t.id: t.weight for t in example_instance.graph.tasks}
        assert wsol.objective(weights) == pytest.approx(4.0, abs=1e-6)

    def test_two_tasks_serial_horizon(self):
        inst = make_instance([1.0, 4.0], [], [1.0], weights=[1.0, 1.0])
        groups = partition_machines(inst.platform)
        assert horizon_intervals(inst, groups) == 3
        wsol = solve_weighted_relaxation(inst, groups)
        # short-first serial order costs 1 + 5 = 6; the relaxation can only improve
        assert wsol.objective({0: 1.0, 1: 1.0}) <= 6.0 + 1e-6

    def test_requires_normalized_instance(self):
        inst = make_instance([0.5], [], [1.0], weights=[1.0])
        groups = partition_machines(inst.platform)
        with pytest.raises(GroupingError, match="normalized"):
            build_weighted_lp(inst, groups)


class TestCollapse:
    def _sol(self, per_interval, cstar, Q=None):
        Q = Q or len(per_interval)
        x = np.zeros((1, 1, Q))                 # one machine, one task
        x[0, 0, :len(per_interval)] = per_interval
        return x, np.array([cstar])

    def test_all_mass_early(self):
        out = collapse_time_indexed(*self._sol([1.0], 1.5))
        assert out.q_of[0] == 1
        assert out.alpha[0] == pytest.approx(1.0)
        assert out.x_tilde[(0, 0)] == pytest.approx(1.0)

    def test_cumulative_mass_rule(self):
        out = collapse_time_indexed(*self._sol([0.2, 0.4, 0.4], 3.5))
        assert out.q_of[0] == 2
        assert out.alpha[0] == pytest.approx(0.6)

    def test_completion_bound_overrides_mass(self):
        out = collapse_time_indexed(*self._sol([0.6, 0.4], 3.0))
        assert out.q_of[0] == 2
        assert out.alpha[0] == pytest.approx(1.0)

    def test_clamp_warns_and_binds(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="getf.grouping"):
            out = collapse_time_indexed(*self._sol([1.0], 99.0, Q=1))
        assert out.q_of[0] == 1
        assert any("clamped" in r.message for r in caplog.records)

    def test_vanishing_captured_mass_rejected(self):
        with pytest.raises(GroupingError, match="captured mass"):
            collapse_time_indexed(*self._sol([1e-12], 99.0, Q=1))

    def test_tilde_mass_sums_to_one(self):
        rng = random.Random(41)
        for k in range(15):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(2, 6),
                                 m=rng.randint(1, 3), seed=300 + k, density=0.4,
                                 demand_range=(1.0, 4.0), speed_range=(0.5, 1.0),
                                 weights="uniform")
            inst, scale = normalize_demands(generate_instance(spec))
            assert scale == 1.0
            groups = partition_machines(inst.platform)
            wsol = solve_weighted_relaxation(inst, groups)
            for j in range(inst.graph.n):
                total = sum(wsol.x_tilde[(row, j)] for row in range(len(groups.retained)))
                assert total == pytest.approx(1.0, abs=1e-6)
                assert wsol.alpha[j] >= 0.5 - 1e-6


class TestWeightedAssignment:
    def test_single_band(self):
        inst = make_instance([1.0, 2.0], [], [1.0], weights=[1.0, 1.0])
        groups = partition_machines(inst.platform)
        wsol = solve_weighted_relaxation(inst, groups)
        f = assign_groups_weighted(wsol, groups)
        assert set(f.group_of_task.values()) == {1}

    def test_tail_rule_on_tilde(self):
        g = two_band_groups()
        wsol = WeightedFractional(
            1, (1.0, 2.0), np.array([0.7, 0.3, 0.0, 0.0]).reshape(4, 1, 1), np.array([1.0]),
            q_of=np.array([1]), alpha=np.array([1.0]),
            x_tilde=np.array([[0.7], [0.3], [0.0], [0.0]]))
        f = assign_groups_weighted(wsol, g)
        assert f.group_of_task[0] == 2

    def test_exact_boundary_inclusive(self):
        g = two_band_groups()
        wsol = WeightedFractional(
            1, (1.0, 2.0), np.array([0.5, 0.5, 0.0, 0.0]).reshape(4, 1, 1), np.array([1.0]),
            q_of=np.array([1]), alpha=np.array([1.0]),
            x_tilde=np.array([[0.5], [0.5], [0.0], [0.0]]))
        assert assign_groups_weighted(wsol, g).group_of_task[0] == 2


class TestSliceFeasibility:
    def test_substituted_point_feasible_across_instances(self):
        rng = random.Random(51)
        for k in range(15):
            spec = GeneratorSpec(family=FAMILIES[k % 3], n=rng.randint(3, 7),
                                 m=rng.randint(2, 4), seed=400 + k, density=0.5,
                                 demand_range=(1.0, 4.0), speed_range=(0.5, 1.0),
                                 weights="uniform")
            inst, _ = normalize_demands(generate_instance(spec))
            groups = partition_machines(inst.platform)
            wsol = solve_weighted_relaxation(inst, groups)
            for q, worst in weighted_slice_feasibility(inst, groups, wsol).items():
                assert worst <= 1e-6, f"interval {q} violated by {worst}"


def test_group_assignment_round_trips_to_json(example_instance):
    f = trivial_assignment(example_instance)
    doc = f.to_dict()
    assert doc["K"] == 1
    assert doc["tasks"] == {"0": 1, "1": 1, "2": 1, "3": 1}


def test_extract_checks_mass(example_instance):
    groups = partition_machines(example_instance.platform)
    lp = build_makespan_lp(example_instance, groups)
    sol = solve_lp(lp)
    sol.x[0] += 0.5  # corrupt the assignment mass
    with pytest.raises(GroupingError, match="mass"):
        extract_makespan_fractional(example_instance, groups, sol)


# ---------------------------------------------------------------------------
# Reference: the tuple-keyed dict code the array layer replaced.  Its loops
# fix the summation order, so the arrays must give the same floats.
# ---------------------------------------------------------------------------

def reference_group_mass(x, groups, task):
    """x: {(machine id, task): fraction}."""
    out = {k: 0.0 for k in range(1, groups.K + 1)}
    for i in groups.retained:
        out[groups.group_of[i]] += x.get((i, task), 0.0)
    return out


def reference_assign(mass_of, groups, theta):
    chosen = {}
    for j in sorted(mass_of):
        tail, lj = 0.0, 0
        for ell in range(groups.K, 0, -1):
            tail += mass_of[j].get(ell, 0.0)
            if tail >= theta - 1e-9:
                lj = ell
                break
        assert lj != 0
        chosen[j] = max(range(lj, groups.K + 1),
                        key=lambda k: (groups.group_speed.get(k, 0.0), k))
    return GroupAssignment(chosen, groups)


def reference_collapse(x, C, Q, tau, machines):
    """x: {(machine id, task, interval 1..Q): fraction}; C: {task: C*}."""
    q_of, alpha, x_tilde = {}, {}, {}
    for j in sorted(C):
        cum, chosen = 0.0, 0
        for q in range(1, Q + 1):
            cum += sum(x.get((i, j, q), 0.0) for i in machines)
            if cum >= 0.5 - 1e-6 and C[j] <= tau[q] + 1e-6:
                chosen = q
                break
        chosen = chosen or Q
        a = sum(x.get((i, j, t), 0.0) for i in machines for t in range(1, chosen + 1))
        q_of[j], alpha[j] = chosen, a
        for i in machines:
            x_tilde[(i, j)] = sum(x.get((i, j, t), 0.0) for t in range(1, chosen + 1)) / a
    return q_of, alpha, x_tilde


def reference_slice_feasibility(inst, machines, C, Q, q_of, x_tilde):
    speed = {i: inst.platform.speed(i) for i in machines}
    demand = {t.id: t.demand for t in inst.graph.tasks}
    out = {}
    for q in range(1, Q + 1):
        slice_tasks = [j for j in sorted(C) if q_of.get(j) == q]
        if not slice_tasks:
            continue
        t_tilde = 2.0 ** (q + 1)
        worst = -math.inf
        for j in slice_tasks:
            worst = max(worst, abs(sum(x_tilde[(i, j)] for i in machines) - 1.0))
            proc = demand[j] * sum(x_tilde[(i, j)] / speed[i] for i in machines)
            worst = max(worst, proc - 2.0 * C[j], 2.0 * C[j] - t_tilde)
        in_slice = set(slice_tasks)
        for src, dst in zip(inst.graph.src, inst.graph.dst):
            if src in in_slice and dst in in_slice:
                proc = demand[dst] * sum(x_tilde[(i, dst)] / speed[i] for i in machines)
                worst = max(worst, 2.0 * C[src] + proc - 2.0 * C[dst])
        for i in machines:
            load = sum(demand[j] * x_tilde[(i, j)] / speed[i] for j in slice_tasks)
            worst = max(worst, load - t_tilde)
        out[q] = worst
    return out


@given(seed=st.integers(0, 10_000), family=st.sampled_from(FAMILIES),
       n=st.integers(2, 5), m=st.integers(2, 10),
       speed_hi=st.sampled_from([2.0, 8.0, 40.0]), theta=st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=40, deadline=None)
def test_arrays_match_dict_reference(seed, family, n, m, speed_hi, theta):
    spec = GeneratorSpec(family=family, n=n, m=m, seed=seed, density=0.4,
                         demand_range=(1.0, 4.0), speed_range=(0.25, speed_hi),
                         weights="uniform")
    inst, _ = normalize_demands(generate_instance(spec))
    groups = partition_machines(inst.platform)
    rows = list(enumerate(groups.retained))

    frac = solve_makespan_relaxation(inst, groups)
    x = {(i, j): frac.x[r, j].item() for r, i in rows for j in range(n)}
    mass_of = {j: reference_group_mass(x, groups, j) for j in range(n)}
    band = _band_mass(frac.x, groups)
    assert all(dict(enumerate(band[:, j].tolist(), start=1)) == mass_of[j] for j in range(n))
    assert (assign_groups_makespan(frac, groups, theta).to_json()
            == reference_assign(mass_of, groups, theta).to_json())

    xw, Cw = extract_weighted_fractional(inst, groups, solve_lp(build_weighted_lp(inst, groups)))
    wsol = collapse_time_indexed(xw, Cw)
    x3 = {(i, j, q): xw[r, j, q - 1].item()
          for r, i in rows for j in range(n) for q in range(1, wsol.Q + 1)}
    C = dict(enumerate(Cw.tolist()))
    q_of, alpha, x_tilde = reference_collapse(x3, C, wsol.Q, wsol.tau, groups.retained)
    assert wsol.q_of.tolist() == [q_of[j] for j in range(n)]
    assert wsol.alpha.tolist() == [alpha[j] for j in range(n)]
    assert {(i, j): wsol.x_tilde[r, j].item() for r, i in rows for j in range(n)} == x_tilde
    tilde_mass = {j: reference_group_mass(x_tilde, groups, j) for j in range(n)}
    assert (assign_groups_weighted(wsol, groups, theta).to_json()
            == reference_assign(tilde_mass, groups, theta).to_json())
    assert weighted_slice_feasibility(inst, groups, wsol) == reference_slice_feasibility(
        inst, groups.retained, C, wsol.Q, q_of, x_tilde)
    weights = {t.id: t.weight for t in inst.graph.tasks}
    assert wsol.objective(weights) == sum(weights[j] * cj for j, cj in C.items())

    # Random fractions reach the bands and intervals that LP optima rarely use.
    rng = np.random.default_rng(seed)
    xr = rng.random((len(rows), n, wsol.Q)) ** 4
    xr /= xr.sum(axis=(0, 2))[None, :, None]
    cr = rng.uniform(0.5, 2.0 ** wsol.Q + 1.0, n)
    collapsed = collapse_time_indexed(xr, cr)
    x3 = {(i, j, q): xr[r, j, q - 1].item()
          for r, i in rows for j in range(n) for q in range(1, wsol.Q + 1)}
    q_of, alpha, x_tilde = reference_collapse(x3, dict(enumerate(cr.tolist())), wsol.Q,
                                              wsol.tau, groups.retained)
    assert collapsed.alpha.tolist() == [alpha[j] for j in range(n)]
    assert {(i, j): collapsed.x_tilde[r, j].item() for r, i in rows for j in range(n)} == x_tilde
    x2 = xr[:, :, 0] / xr[:, :, 0].sum(axis=0)
    mass_of = {j: reference_group_mass({(i, j): x2[r, j].item() for r, i in rows}, groups, j)
               for j in range(n)}
    assert (assign_groups_makespan(MakespanFractional(x2, cr, 1.0), groups, theta).to_json()
            == reference_assign(mass_of, groups, theta).to_json())


# ---------------------------------------------------------------------------
# The makespan program's crash basis
# ---------------------------------------------------------------------------

def basic_point(lp) -> tuple[np.ndarray, float]:
    """The basic values of lp.start (slack columns on rows left at -1),
    computed from the basis matrix alone, and its condition number."""
    rows = len(lp.b)
    basis = np.eye(rows)
    listed = lp.start >= 0
    basis[:, listed] = lp.A[:, lp.start[listed]]
    return np.linalg.solve(basis, lp.b), np.linalg.cond(basis)


START_CASES = {
    "single task": (make_instance([2.0], [], [1.0, 2.0]), None),
    "no edges": (make_instance([1.0, 2.0, 3.0], [], [1.0, 1.5]), None),
    "one machine": (make_instance([1.0, 2.0], [(0, 1, 1.0)], [1.0]), None),
    "discarded machine": (make_instance([1.0, 2.0, 3.0], [(0, 2, 1.0)], [8.0, 4.0, 2.0, 1.0]),
                          None),
    "tied demands": (make_instance([1.0] * 4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                                   [1.0, 1.0]), None),
    "gamma override": (make_instance([1.0, 3.0, 2.0], [(0, 1, 1.0)], [1.0, 2.0, 3.5]), 1.5),
}


class TestMakespanStart:
    @pytest.mark.parametrize("case", sorted(START_CASES))
    def test_start_is_feasible_and_nonsingular(self, case):
        inst, gamma = START_CASES[case]
        groups = partition_machines(inst.platform, gamma)
        lp = build_makespan_lp(inst, groups)
        values, cond = basic_point(lp)
        assert cond < 1e6
        assert values.min() >= -1e-12
        # Slack rows hold the row's own slack, so the point they give is feasible.
        assert np.all(lp.sense[lp.start < 0] == LE)
        started, plain = solve_lp(lp), solve_lp(dataclasses.replace(lp, start=None))
        assert started.objective == pytest.approx(plain.objective, rel=1e-9)

    def test_edge_cases_are_what_they_say(self):
        inst, _ = START_CASES["discarded machine"]
        assert partition_machines(inst.platform).retained == (0, 1, 2)
        inst, gamma = START_CASES["gamma override"]
        assert partition_machines(inst.platform, gamma).K > partition_machines(inst.platform).K

    def test_lpt_assignment(self):
        # Demands 3, 2, 1 in that order on speeds 1 and 1.5: task 2 goes to
        # machine 1 (finishing at 2), task 1 to machine 0 (2 < 2 + 4/3), and
        # task 0 to machine 1 (2 + 2/3 < 2 + 1).  x[i, j] is column i * n + j.
        inst, _ = START_CASES["no edges"]
        start = build_makespan_lp(inst, partition_machines(inst.platform)).start
        assert start[:3].tolist() == [1 * 3 + 0, 0 * 3 + 1, 1 * 3 + 2]
        # T = 8/3 on machine 1's load row (row 2n + 1), above every C_j.
        assert start[2 * 3 + 1] == 2 * 3 + 3 and start[2 * 3] == -1

    def test_tied_completions_take_the_first_incoming_edge(self):
        # Tasks 0 and 1 both finish at 1 on their own machines, so C_2's tight
        # row is the first edge into task 2, edge 0.  The rows are 4
        # assignment, 2 processing (sources 0 and 1), 3 edge, 2 machine-load
        # and 1 C_j <= T (sink 3), so edge e is row n + 2 + e.
        inst, _ = START_CASES["tied demands"]
        start = build_makespan_lp(inst, partition_machines(inst.platform)).start
        n, nm = 4, 2
        C = nm * n
        assert len(start) == n + 2 + 3 + nm + 1
        assert start[n + 2 + 0] == C + 2 and start[n + 2 + 1] == -1
        assert start[n + 2 + 2] == C + 3                   # the single edge into task 3
        assert start[n + 0] == C + 0 and start[n + 1] == C + 1   # no predecessors

    def test_seed_one_programs_match_the_unstarted_solve(self):
        # The 48 programs of the makespan-lp benchmark's first seed.
        for k in range(48):
            inst = generate_instance(GeneratorSpec("layered", 20, 8, seed=100_003 + k,
                                                   density=0.3))
            groups = partition_machines(inst.platform)
            lp = build_makespan_lp(inst, groups)
            plain = solve_lp(dataclasses.replace(lp, start=None))
            started = solve_lp(lp)
            assert started.objective == pytest.approx(plain.objective, rel=1e-9), k
            assert started.pivots < plain.pivots, k
            frac = extract_makespan_fractional(inst, groups, plain)
            assert (assign_groups_makespan(solve_makespan_relaxation(inst, groups), groups)
                    .to_json() == assign_groups_makespan(frac, groups).to_json()), k


# ---------------------------------------------------------------------------
# Reference: the builders that stacked dense eye/kron/tile blocks, and the
# makespan start that kept its own copy of the program's row offsets.  The
# makespan reference is the full program, with every row; the builder's
# program is the full one without the rows that other rows imply, and the
# weighted builder must give the reference's bytes.
# ---------------------------------------------------------------------------

def reference_stack_lp(objective, *blocks):
    rows, senses, bounds = [], [], []
    for sense, bound, *parts in blocks:
        rows.append(np.hstack(parts))
        senses.append(np.full(len(rows[-1]), sense))
        bounds.append(np.broadcast_to(bound, len(rows[-1])))
    return LinearProgram(objective, np.vstack(rows), np.concatenate(senses),
                         np.concatenate(bounds))


def reference_makespan_start(inst, groups):
    n, nm = inst.graph.n, len(groups.retained)
    proc = _proc(inst, groups)
    src, dst, _ = inst.graph.edge_columns()
    n_edges = len(src)
    edge_row, load_row, horizon_row = 2 * n, 2 * n + n_edges, 2 * n + n_edges + nm
    start = np.full(horizon_row + n, -1)

    load = np.zeros(nm)
    machine = np.zeros(n, dtype=int)
    for j in sorted(range(n), key=lambda j: (-inst.graph.tasks[j].demand, j)):
        i = int(np.argmin(load + proc[:, j]))
        machine[j] = i
        load[i] += proc[i, j]
        start[j] = i * n + j

    incoming: list[list[int]] = [[] for _ in range(n)]
    for e, j in enumerate(dst.tolist()):
        incoming[j].append(e)
    C = np.zeros(n)
    for j in topological_order(inst.graph):
        ready = max((C[src[e]] for e in incoming[j]), default=0.0)
        C[j] = ready + proc[machine[j], j]
        tight = next((edge_row + e for e in incoming[j] if C[src[e]] == ready), n + j)
        start[tight] = nm * n + j

    if load.max() >= C.max():
        start[load_row + int(np.argmax(load))] = nm * n + n
    else:
        start[horizon_row + int(np.argmax(C))] = nm * n + n
    return start


def reference_build_makespan_lp(inst, groups):
    n, nm = inst.graph.n, len(groups.retained)
    proc = _proc(inst, groups)
    src, dst, _ = inst.graph.edge_columns()
    eye, minus_eye = np.eye(n), np.diag(-np.ones(n))   # -eye would hold -0.0
    pick = np.tile(eye, nm)                            # row j selects x[., j]
    load = pick * proc.ravel()                         # row j: processing time of j
    objective = np.zeros(nm * n + n + 1)
    objective[-1] = 1.0

    def t_col(rows, value):
        return np.full((rows, 1), value)

    lp = reference_stack_lp(
        objective,
        (EQ, 1.0, pick, np.zeros((n, n)), t_col(n, 0.0)),
        (LE, 0.0, load, minus_eye, t_col(n, 0.0)),
        (LE, 0.0, load[dst], eye[src] - eye[dst], t_col(len(src), 0.0)),
        (LE, 0.0, np.kron(np.eye(nm), np.ones(n)) * proc.ravel(), np.zeros((nm, n)),
         t_col(nm, -1.0)),
        (LE, 0.0, np.zeros((n, nm * n)), eye, t_col(n, -1.0)),
    )
    return dataclasses.replace(lp, start=reference_makespan_start(inst, groups))


def reference_transitive(graph):
    """Edge (a, c) is transitive iff a depth-first search from some other
    successor of a reaches c."""
    succs = graph.successors()

    def reaches(u, target):
        seen, stack = {u}, [u]
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for w in succs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return np.array([any(reaches(b, c) for b in succs[a] if b != c)
                     for a, c in zip(graph.src, graph.dst)], dtype=bool)


def reference_kept_rows(graph, nm):
    """The rows of the full makespan program that the reduced one keeps:
    every assignment row, the processing rows of sources, the chain rows of
    edges that are not transitive, every load row, the C_j <= T rows of sinks."""
    sources = [not p for p in graph.predecessors()]
    sinks = [not s for s in graph.successors()]
    return np.concatenate([np.ones(graph.n, bool), sources, ~reference_transitive(graph),
                           np.ones(nm, bool), sinks]).astype(bool)


def reference_reduced_makespan_lp(inst, groups):
    """The full program and its start, restricted to the kept rows."""
    full = reference_build_makespan_lp(inst, groups)
    kept = reference_kept_rows(inst.graph, len(groups.retained))
    return LinearProgram(full.objective, full.A[kept], full.sense[kept], full.b[kept],
                         full.start[kept])


def reference_build_weighted_lp(inst, groups):
    n, nm = inst.graph.n, len(groups.retained)
    proc = _proc(inst, groups)
    Q = horizon_intervals(inst, groups)
    tau = np.array([2.0 ** q for q in range(Q + 1)])
    src, dst, _ = inst.graph.edge_columns()
    eye, minus_eye = np.eye(n), np.diag(-np.ones(n))
    upto = np.tril(np.ones((Q, Q)))                    # upto[q-1, t-1] = 1 iff t <= q
    prefix = np.tile(np.kron(eye, upto), nm).reshape(n, Q, -1)   # [j, q-1]: x[., j, :q]
    pick = prefix[:, -1]                               # row j: every x[., j, .]
    proc_x = np.repeat(proc.ravel(), Q)                # proc of x[i, j, q]
    load = pick * proc_x                               # row j: processing time of j
    objective = np.zeros(nm * n * Q + n)
    objective[nm * n * Q:] = [t.weight for t in inst.graph.tasks]

    return reference_stack_lp(
        objective,
        (EQ, 1.0, pick, np.zeros((n, n))),
        (LE, 0.0, load, minus_eye),
        (LE, 0.0, load[dst], eye[src] - eye[dst]),
        (LE, 0.0, (prefix[dst] - prefix[src]).reshape(-1, nm * n * Q),
         np.zeros((len(src) * Q, n))),
        (LE, 0.0, pick * np.tile(tau[:-1], nm * n), minus_eye),
        (LE, np.tile(tau[1:], nm), np.kron(np.eye(nm), np.tile(upto, n)) * proc_x,
         np.zeros((nm * Q, n))),
    )


def assert_same_program(got, expected):
    for name in ("objective", "A", "sense", "b", "start"):
        a, b = getattr(got, name), getattr(expected, name)
        if a is None or b is None:                     # the weighted program has no start
            assert a is b, name
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@given(seed=st.integers(0, 10_000), family=st.sampled_from(FAMILIES),
       n=st.integers(1, 12), m=st.integers(1, 6),
       density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       speeds=st.sampled_from([(1.0, 2.0), (0.5, 1.0), (0.05, 1.0), (0.05, 0.05), (0.1, 8.0)]),
       demands=st.sampled_from([(1.0, 4.0), (1.0, 1.0), (0.5, 100.0)]),
       weights=st.sampled_from(["zero", "uniform", "sink_only"]),
       gamma=st.sampled_from([None, 1.01, 1.5, 3.0]))
@settings(max_examples=200, deadline=None)
def test_builders_match_stacked_reference(seed, family, n, m, density, speeds, demands,
                                          weights, gamma):
    inst = generate_instance(GeneratorSpec(family, n, m, seed=seed, density=density,
                                           speed_range=speeds, demand_range=demands,
                                           weights=weights))
    groups = partition_machines(inst.platform, gamma)
    assert_same_program(build_makespan_lp(inst, groups),
                        reference_reduced_makespan_lp(inst, groups))
    normalized, _ = normalize_demands(inst)
    groups = partition_machines(normalized.platform, gamma)
    assert_same_program(build_weighted_lp(normalized, groups),
                        reference_build_weighted_lp(normalized, groups))


def implied_row_instance(seed, family, n, m, density, kind):
    """kind "generated" is the generator's instance; "tied" is its graph
    with integer demands 1..3 on unit speeds, where many finishes tie;
    "dense" is a DAG without parallel edges in which each pair u < v is an
    edge with probability 0.9, its edges listed in a random order."""
    rng = random.Random(seed)
    if kind == "dense":
        edges = [(u, v, float(rng.randint(0, 2)))
                 for v in range(n) for u in range(v) if rng.random() < 0.9]
        rng.shuffle(edges)
        return make_instance([rng.randint(1, 3) for _ in range(n)], edges,
                             [rng.choice([1.0, 2.0]) for _ in range(m)], comm=1.0)
    inst = generate_instance(GeneratorSpec(family, n, m, seed=seed, density=density))
    if kind == "tied":
        g = inst.graph
        return make_instance([rng.randint(1, 3) for _ in range(n)],
                             list(zip(g.src, g.dst, g.data)), [1.0] * m, comm=1.0)
    return inst


@given(seed=st.integers(0, 10_000), family=st.sampled_from(FAMILIES),
       n=st.integers(1, 14), m=st.integers(1, 5),
       density=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
       kind=st.sampled_from(["generated", "tied", "dense"]))
@settings(max_examples=100, deadline=None)
def test_dropped_rows_are_implied(seed, family, n, m, density, kind):
    inst = implied_row_instance(seed, family, n, m, density, kind)
    groups = partition_machines(inst.platform)
    assert (inst.graph.transitive_edges().tolist()
            == reference_transitive(inst.graph).tolist())
    full, reduced = reference_build_makespan_lp(inst, groups), build_makespan_lp(inst, groups)
    kept = reference_kept_rows(inst.graph, len(groups.retained))
    # The start names kept rows only, with the full program's columns.
    assert np.all(full.start[~kept] == -1)
    assert reduced.start.tolist() == full.start[kept].tolist()
    got, want = solve_lp(reduced), solve_lp(full)
    assert got.status == want.status == OPTIMAL
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert np.all(residuals(full, got.x)[~kept] <= FEAS_TOL)


def test_random_dag_160_program_shape_and_schedule():
    # 3837 edges, of which 334 are not transitive; 3 sources, 4 sinks and 16
    # retained machines.  The program with every row had 4333 rows.
    inst = generate_instance(GeneratorSpec("random_dag", 160, 16, seed=1, density=0.3))
    g, groups = inst.graph, partition_machines(inst.platform)
    lp = build_makespan_lp(inst, groups)
    sources = sum(not p for p in g.predecessors())
    sinks = sum(not s for s in g.successors())
    kept = int((~g.transitive_edges()).sum())
    assert (sources, kept, sinks, len(groups.retained)) == (3, 334, 4, 16)
    assert lp.A.shape == (g.n + sources + kept + len(groups.retained) + sinks, 16 * 160 + 161)
    assert lp.A.shape[0] == 517
    # The schedule digest of the build that kept every row.
    sched, _ = run_pipeline(inst, "getf-makespan", TieBreak.by_index())
    assert hashlib.sha256(sched.to_json(inst).encode()).hexdigest() == (
        "11fece15b57b15f7365f87eecf9879e65170cd12afd6b4876ed28a28596feeaf")


@pytest.mark.parametrize("build", [build_makespan_lp, build_weighted_lp])
def test_build_peak_memory_near_the_matrix(build):
    # Stacking dense blocks held each coefficient two to four times (a peak
    # of 3.2x A for the makespan program and 3.5x for the weighted one here).
    inst, _ = normalize_demands(generate_instance(GeneratorSpec(
        "layered", 30, 8, seed=100_008, density=0.3, weights="uniform")))
    groups = partition_machines(inst.platform)
    tracemalloc.start()
    try:
        lp = build(inst, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * lp.A.nbytes, (peak, lp.A.nbytes)
