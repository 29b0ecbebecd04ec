import math

import pytest

from getf.model import (Instance, Machine, Platform, TaskGraph, instance_from_dict,
                        instance_to_dict, parse_instance)

# Four tasks on two unit-speed machines, finite self-communication.  GETF
# reaches makespan 5 here while priority-order list scheduling reaches 6,
# which pins down most golden values in the suite.
EXAMPLE_JSON = """{
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
  "machines": [
    {"id": 0, "speed": 1.0},
    {"id": 1, "speed": 1.0}
  ],
  "comm_speed": [[2.0, 1.0], [1.0, 2.0]]
}
"""


@pytest.fixture
def example_instance() -> Instance:
    return parse_instance(EXAMPLE_JSON)


def make_instance(demands, edges, speeds, comm=None, weights=None) -> Instance:
    """Terse instance builder for hand-made cases.

    ``comm`` may be a full matrix, a scalar (uniform, incl. diagonal), or
    None for all-infinite (zero delays).  ``edges`` entries are (src, dst,
    data).
    """
    n, m = len(demands), len(speeds)
    weights = weights or [0.0] * n
    graph = TaskGraph(tuple(float(demands[j]) for j in range(n)),
                      tuple(float(weights[j]) for j in range(n)),
                      tuple(s for s, _, _ in edges), tuple(d for _, d, _ in edges),
                      tuple(float(w) for _, _, w in edges))
    machines = tuple(Machine(float(s)) for s in speeds)
    if comm is None:
        rows = tuple(tuple(math.inf for _ in range(m)) for _ in range(m))
    elif isinstance(comm, (int, float)):
        rows = tuple(tuple(float(comm) for _ in range(m)) for _ in range(m))
    else:
        rows = tuple(tuple(math.inf if v is None else float(v) for v in row) for row in comm)
    return Instance(graph, Platform(machines, rows))


def shuffle_edges(inst: Instance, rng) -> Instance:
    """``inst`` reloaded from its document with the edges listed in a random
    order, so predecessor lists are no longer in ascending id order."""
    doc = instance_to_dict(inst)
    rng.shuffle(doc["edges"])
    return instance_from_dict(doc)


def corrupt_first_pivot(pivot):
    """lp_solver._pivot, except that the first call adds 3 to the unperturbed
    RHS of its row: one wrong tableau update for the residual guard to catch."""
    done = []

    def corrupted(tableau, basis, row, col, counts):
        pivot(tableau, basis, row, col, counts)
        if not done:
            tableau[row, -1] += 3.0
            done.append(row)
    return corrupted
