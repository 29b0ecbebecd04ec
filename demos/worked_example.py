"""Walk through the four-task example that motivates greedy earliest-start.

Two unit-speed machines, four tasks, cross-machine transfers at speed 1 and
same-machine transfers at speed 2.  A fixed-priority list scheduler parks
the big task behind a communication stall; the greedy rule starts it a full
time unit earlier and wins 5 vs 6 on makespan.
"""

from getf import (TieBreak, getf_schedule, parse_instance, separation_report,
                  sls_schedule, trivial_assignment, verify_schedule)

INSTANCE = """{
  "tasks": [
    {"id": 0, "demand": 1.0, "weight": 0.0},
    {"id": 1, "demand": 1.0, "weight": 0.0},
    {"id": 2, "demand": 1.0, "weight": 0.0},
    {"id": 3, "demand": 3.0, "weight": 1.0}
  ],
  "edges": [
    {"src": 0, "dst": 2, "data": 2.0},
    {"src": 0, "dst": 3, "data": 2.0},
    {"src": 1, "dst": 2, "data": 2.0},
    {"src": 1, "dst": 3, "data": 1.0}
  ],
  "machines": [{"id": 0, "speed": 1.0}, {"id": 1, "speed": 1.0}],
  "comm_speed": [[2.0, 1.0], [1.0, 2.0]]
}"""


def show(name, sched, inst):
    print(f"\n{name}: makespan {sched.makespan():g}")
    for machine, timeline in sorted(sched.timelines().items()):
        lane = "  ".join(f"task {t} [{a:g}, {b:g}]" for a, b, t in timeline)
        print(f"  machine {machine}: {lane}")
    print(f"  feasible: {verify_schedule(inst, sched).feasible}")


def main():
    inst = parse_instance(INSTANCE)
    f = trivial_assignment(inst)

    greedy = getf_schedule(inst, f, TieBreak.by_index())
    show("greedy earliest-start", greedy, inst)

    listed = sls_schedule(inst, f, [0, 1, 2, 3])
    show("fixed priority (0,1,2,3)", listed, inst)
    gap = listed.start[3] - listed.finish[1]
    print(f"  machine 1 idles {gap:g} time units waiting for task 3's data")

    print("\ndecomposition of the greedy makespan:")
    rep = separation_report(greedy, inst, f, f.groups)
    print(f"  chain {rep.context['chain']}: processing P = {rep.context['P']:g}, "
          f"band loads sum_D = {rep.context['sum_D']:g}, "
          f"chain communication C = {rep.context['C']:g}")
    main_iq = rep.inequalities[0]
    print(f"  makespan {main_iq.lhs:g} <= P + sum_D + C = {main_iq.rhs:g} "
          f"(slack {main_iq.slack:g})")


if __name__ == "__main__":
    main()
