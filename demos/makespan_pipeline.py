"""End-to-end makespan pipeline on a random instance.

Generate a layered DAG on heterogeneous machines, band the machines by
speed, solve the fractional assignment relaxation, map every task to its
fastest admissible band, schedule greedily inside the bands, and check the
chain/load bounds against the fractional optimum T*.
"""

from getf import (GeneratorSpec, TieBreak, assign_groups_makespan, generate_instance,
                  getf_schedule, makespan_theorem_report, partition_machines,
                  separation_report, solve_makespan_relaxation, verify_schedule)


def main():
    spec = GeneratorSpec(family="layered", n=18, m=8, seed=2024, density=0.35,
                         demand_range=(1.0, 4.0), speed_range=(0.5, 6.0),
                         comm_range=(1.0, 4.0), data_range=(0.0, 3.0))
    inst = generate_instance(spec)
    print(f"instance: {inst.graph.n} tasks, {len(inst.graph.src)} edges, "
          f"{inst.platform.m} machines")

    groups = partition_machines(inst.platform)
    print(f"\nspeed bands (gamma = {groups.gamma:.3g}, K = {groups.K}):")
    for k in range(1, groups.K + 1):
        ids = groups.members[k]
        print(f"  band {k}: machines {list(ids)}, total speed {groups.group_speed[k]:g}")
    dropped = set(range(inst.platform.m)) - set(groups.retained)
    if dropped:
        print(f"  discarded as too slow: {sorted(dropped)}")

    frac = solve_makespan_relaxation(inst, groups)
    print(f"\nfractional optimum T* = {frac.T:.4g}")

    f = assign_groups_makespan(frac, groups)
    counts = {k: sum(1 for v in f.group_of_task.values() if v == k)
              for k in range(1, groups.K + 1)}
    print(f"tasks per band: {counts}")

    sched = getf_schedule(inst, f, TieBreak.by_index())
    print(f"\ngreedy schedule: makespan {sched.makespan():.4g}, "
          f"feasible: {verify_schedule(inst, sched, f).feasible}")

    sep = separation_report(sched, inst, f, groups)
    print(f"separation: P = {sep.context['P']:.4g}, sum_D = {sep.context['sum_D']:.4g}, "
          f"C = {sep.context['C']:.4g} -> bound {sep.inequalities[0].rhs:.4g}")

    rep = makespan_theorem_report(sched, inst, f, groups, frac.T)
    for iq in rep.inequalities:
        mark = "ok " if iq.passed else "VIOLATED"
        print(f"  [{mark}] {iq.name}: {iq.lhs:.4g} <= {iq.rhs:.4g}")


if __name__ == "__main__":
    main()
