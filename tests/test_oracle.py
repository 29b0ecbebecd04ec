import random

import pytest

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.oracle import (WEIGHTED, OracleLimitError, brute_force_schedule,
                         lower_bounds, restrict_platform)
from getf.scheduler import verify_schedule

from conftest import make_instance


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
    sub, mapping = restrict_platform(example_instance, (1,))
    assert sub.platform.m == 1
    assert mapping == {0: 1}
    assert sub.platform.sigma(0, 0) == 2.0
