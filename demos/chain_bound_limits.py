"""Where the chain decomposition under-counts, and how the report flags it.

The decomposition charges each chain link only with that link's own
transfer time.  When a task has several predecessors, the chain keeps the
latest FINISHER, but a different predecessor's slower data can be what
actually delays the task.  This script builds the minimal such case: the
heavy edge 0 -> 2 stalls task 2 until t = 5 while the chain follows the
light edge 1 -> 2, so the certified bound falls short of the real makespan
and the report says so loudly.
"""

from getf import (Instance, Machine, Platform, TaskGraph, TieBreak, getf_schedule,
                  separation_report, trivial_assignment)


def main():
    inst = Instance(
        TaskGraph(
            demand=(1.0, 2.0, 1.0), weight=(0.0, 0.0, 0.0),
            src=(0, 1), dst=(2, 2), data=(4.0, 0.5),  # edges 0 -> 2 and 1 -> 2
        ),
        Platform(
            (Machine(0, 1.0), Machine(1, 1.0), Machine(2, 1.0)),
            tuple(tuple(1.0 for _ in range(3)) for _ in range(3)),
        ),
    )
    f = trivial_assignment(inst)
    sched = getf_schedule(inst, f, TieBreak.by_index())

    print("schedule:")
    for j in sched.iteration_order:
        print(f"  task {j}: machine {sched.assignment[j]}, "
              f"[{sched.start[j]:g}, {sched.finish[j]:g}]")
    print(f"makespan: {sched.makespan():g} "
          "(task 2 waits until t=5 for the 4 data units from task 0)")

    rep = separation_report(sched, inst, f, f.groups)
    print(f"\nterminal chain by latest finish: {rep.context['chain']} "
          "(task 1 finishes at 2, after task 0 at 1)")
    main_iq = rep.inequalities[0]
    print(f"decomposition bound: P {rep.context['P']:g} + sum_D "
          f"{rep.context['sum_D']:.4g} + C {rep.context['C']:g} = {main_iq.rhs:.4g}")
    print(f"bound check: {main_iq.lhs:g} <= {main_iq.rhs:.4g} -> "
          f"{'holds' if main_iq.passed else 'VIOLATED'}")
    print("\nper-link idle entries (idle inside the link window vs the link's "
          "transfer bound):")
    for iq in rep.inequalities[1:]:
        print(f"  {iq.name}: idle {iq.lhs:g} vs bound {iq.rhs:g} "
              f"{'ok' if iq.passed else 'EXCEEDED'}")
    print("\nthe chain's own link (1 -> 2) moves only 0.5 data units, so the "
          "certified budget never sees the 4-unit transfer that dominates the "
          "schedule; the report correctly refuses to certify this run")


if __name__ == "__main__":
    main()
