"""End-to-end weighted-completion pipeline on a random instance.

The time-indexed relaxation spreads each task's fractional assignment over
geometric deadline intervals.  Collapsing the early intervals gives the
fractions that drive band assignment; the bound report then checks every
per-task and aggregate inequality against the fractional optima C*_j.
"""

from getf import (GeneratorSpec, TieBreak, assign_groups_weighted, generate_instance,
                  getf_schedule, normalize_demands, partition_machines,
                  solve_weighted_relaxation, verify_schedule, weighted_theorem_report)


def main():
    spec = GeneratorSpec(family="random_dag", n=7, m=3, seed=99, density=0.45,
                         demand_range=(1.0, 4.0), speed_range=(0.5, 1.0),
                         comm_range=(1.0, 4.0), data_range=(0.0, 3.0),
                         weights="uniform")
    inst, scale = normalize_demands(generate_instance(spec))
    print(f"instance: {inst.graph.n} tasks on {inst.platform.m} machines "
          f"(demand scale applied: {scale:g})")

    groups = partition_machines(inst.platform)
    wsol = solve_weighted_relaxation(inst, groups)
    print(f"\ndeadline intervals: Q = {wsol.Q}, edges at {list(wsol.tau)}")
    print(f"fractional objective sum w*C* = {wsol.objective(inst.graph.weight):.4g}")
    print("per-task interval estimates q(j) and captured mass alpha:")
    for j in range(inst.graph.n):
        print(f"  task {j}: C* = {wsol.C[j]:8.4g}  q = {wsol.q_of[j]}  "
              f"alpha = {wsol.alpha[j]:.3f}")

    f = assign_groups_weighted(wsol, groups)
    sched = getf_schedule(inst, f, TieBreak.by_index())
    print(f"\nschedule: weighted completion {sched.weighted_completion(inst):.4g}, "
          f"makespan {sched.makespan():.4g}, "
          f"feasible: {verify_schedule(inst, sched, f).feasible}")

    rep = weighted_theorem_report(sched, inst, f, groups, wsol)
    worst = min(rep.inequalities, key=lambda iq: iq.slack)
    print(f"bound report: {len(rep.inequalities)} inequalities, "
          f"all pass: {rep.passed}")
    print(f"tightest: {worst.name}: {worst.lhs:.4g} <= {worst.rhs:.4g}")


if __name__ == "__main__":
    main()
