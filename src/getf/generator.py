"""Seeded random instance families for benchmarks and property suites.

All families emit edges from lower to higher task ids, so instances are
acyclic by construction, and every draw comes from one ``random.Random``
stream: the same spec always yields the same instance, byte for byte.

Families:
  * ``layered``: tasks split into consecutive layers, edges only between
    adjacent layers with the given density;
  * ``fork_join``: one source, one sink, everything else in parallel
    between them;
  * ``random_dag``: every forward pair (i, j) is an edge with the given
    density.

Weight modes: ``zero`` (all weights 0), ``uniform`` (positive uniform
weights), and ``sink_only`` (a unit-demand collector task is appended,
fed by every sink over zero-data edges, and carries the only weight --
the makespan-as-weighted-completion reduction).

The graph's columns are filled straight from the draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import Instance, Machine, Platform, TaskGraph

LAYERED = "layered"
FORK_JOIN = "fork_join"
RANDOM_DAG = "random_dag"
FAMILIES = (LAYERED, FORK_JOIN, RANDOM_DAG)

SELF_COMM_MATRIX = "matrix"
SELF_COMM_INFINITE = "infinite"

WEIGHTS_ZERO = "zero"
WEIGHTS_UNIFORM = "uniform"
WEIGHTS_SINK_ONLY = "sink_only"


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    m: int
    seed: int
    density: float = 0.3
    demand_range: tuple[float, float] = (1.0, 4.0)
    speed_range: tuple[float, float] = (1.0, 2.0)
    comm_range: tuple[float, float] = (1.0, 4.0)
    data_range: tuple[float, float] = (0.0, 4.0)
    self_comm: str = SELF_COMM_MATRIX
    weights: str = WEIGHTS_ZERO

    def check(self) -> None:
        if self.family not in FAMILIES:
            raise GeneratorError(f"unknown family {self.family!r}")
        if self.n < 1 or self.m < 1:
            raise GeneratorError("n and m must be at least 1")
        if not 0.0 <= self.density <= 1.0:
            raise GeneratorError("density must lie in [0, 1]")
        for name, rng in (("demand", self.demand_range), ("speed", self.speed_range),
                          ("comm", self.comm_range)):
            lo, hi = rng
            if not (0 < lo <= hi < math.inf):
                raise GeneratorError(f"{name} range must be positive, finite and ordered")
        lo, hi = self.data_range
        if not (0 <= lo <= hi < math.inf):
            raise GeneratorError("data range must be nonnegative, finite and ordered")
        if self.self_comm not in (SELF_COMM_MATRIX, SELF_COMM_INFINITE):
            raise GeneratorError(f"unknown self-comm mode {self.self_comm!r}")
        if self.weights not in (WEIGHTS_ZERO, WEIGHTS_UNIFORM, WEIGHTS_SINK_ONLY):
            raise GeneratorError(f"unknown weight mode {self.weights!r}")


def _edges_layered(spec: GeneratorSpec, rng: random.Random) -> list[tuple[int, int]]:
    n = spec.n
    n_layers = min(n, max(2, round(math.sqrt(n)) + rng.randint(0, 2))) if n > 1 else 1
    cuts = sorted(rng.sample(range(1, n), n_layers - 1)) if n_layers > 1 else []
    layers: list[list[int]] = []
    prev = 0
    for cut in cuts + [n]:
        layers.append(list(range(prev, cut)))
        prev = cut
    edges = []
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in b:
                if rng.random() < spec.density:
                    edges.append((u, v))
    return edges


def _edges_fork_join(spec: GeneratorSpec) -> list[tuple[int, int]]:
    n = spec.n
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    sink = n - 1
    return [(0, mid) for mid in range(1, sink)] + [(mid, sink) for mid in range(1, sink)]


def _edges_random(spec: GeneratorSpec, rng: random.Random) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(spec.n)
        for v in range(u + 1, spec.n)
        if rng.random() < spec.density
    ]


def generate_instance(spec: GeneratorSpec) -> Instance:
    spec.check()
    rng = random.Random(spec.seed)

    if spec.family == LAYERED:
        pairs = _edges_layered(spec, rng)
    elif spec.family == FORK_JOIN:
        pairs = _edges_fork_join(spec)
    else:
        pairs = _edges_random(spec, rng)

    demand = [rng.uniform(*spec.demand_range) for _ in range(spec.n)]
    weight = [0.0] * spec.n
    pairs.sort()
    src, dst = [u for u, _ in pairs], [v for _, v in pairs]
    data = [rng.uniform(*spec.data_range) for _ in pairs]

    if spec.weights == WEIGHTS_UNIFORM:
        weight = [rng.uniform(0.1, 1.0) for _ in range(spec.n)]
    elif spec.weights == WEIGHTS_SINK_ONLY:
        has_succ = set(src)
        sinks = [j for j in range(spec.n) if j not in has_succ]
        src += sinks
        dst += [spec.n] * len(sinks)
        data += [0.0] * len(sinks)
        demand.append(1.0)
        weight.append(1.0)

    machines = [Machine(i, rng.uniform(*spec.speed_range)) for i in range(spec.m)]
    comm_rows = []
    for i in range(spec.m):
        row = []
        for k in range(spec.m):
            if i == k and spec.self_comm == SELF_COMM_INFINITE:
                row.append(math.inf)
            else:
                row.append(rng.uniform(*spec.comm_range))
        comm_rows.append(tuple(row))

    return Instance(
        TaskGraph(tuple(demand), tuple(weight), tuple(src), tuple(dst), tuple(data)),
        Platform(tuple(machines), tuple(comm_rows)),
    )
