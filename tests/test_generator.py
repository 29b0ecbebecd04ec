import math

import pytest

from getf.generator import (FORK_JOIN, LAYERED, RANDOM_DAG, SELF_COMM_INFINITE,
                            WEIGHTS_SINK_ONLY, WEIGHTS_UNIFORM, GeneratorError,
                            GeneratorSpec, generate_instance)
from getf.model import serialize_instance, validate_instance


def test_seed_determinism_byte_identical():
    spec = GeneratorSpec(family=LAYERED, n=12, m=4, seed=42, density=0.4)
    a = serialize_instance(generate_instance(spec))
    b = serialize_instance(generate_instance(spec))
    assert a == b


def test_different_seeds_differ():
    a = generate_instance(GeneratorSpec(family=RANDOM_DAG, n=10, m=3, seed=1, density=0.5))
    b = generate_instance(GeneratorSpec(family=RANDOM_DAG, n=10, m=3, seed=2, density=0.5))
    assert serialize_instance(a) != serialize_instance(b)


def test_layered_density_zero_independent():
    inst = generate_instance(GeneratorSpec(family=LAYERED, n=10, m=2, seed=7, density=0.0))
    assert inst.graph.n == 10
    assert inst.graph.src == inst.graph.dst == inst.graph.data == ()


def test_fork_join_shape():
    inst = generate_instance(GeneratorSpec(family=FORK_JOIN, n=6, m=2, seed=0))
    succs = inst.graph.successors()
    preds = inst.graph.predecessors()
    assert len(succs[0]) == 4          # source fans out to the 4 middles
    assert len(preds[5]) == 4          # sink collects them
    for mid in range(1, 5):
        assert preds[mid] == [0]
        assert succs[mid] == [5]


@pytest.mark.parametrize("family", [LAYERED, FORK_JOIN, RANDOM_DAG])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_all_families_valid_and_acyclic(family, seed):
    spec = GeneratorSpec(family=family, n=9, m=3, seed=seed, density=0.5)
    inst = generate_instance(spec)
    report = validate_instance(inst)
    assert report.ok, report.violations
    for src, dst in zip(inst.graph.src, inst.graph.dst):
        assert src < dst


def test_infinite_self_comm_mode():
    spec = GeneratorSpec(family=RANDOM_DAG, n=4, m=3, seed=5,
                         self_comm=SELF_COMM_INFINITE)
    inst = generate_instance(spec)
    for i in range(3):
        assert inst.platform.sigma(i, i) == math.inf
        for k in range(3):
            if k != i:
                assert inst.platform.sigma(i, k) < math.inf


def test_uniform_weights_positive():
    inst = generate_instance(GeneratorSpec(family=LAYERED, n=8, m=2, seed=9,
                                           weights=WEIGHTS_UNIFORM))
    assert all(t.weight > 0 for t in inst.graph.tasks)


def test_sink_only_appends_collector():
    spec = GeneratorSpec(family=RANDOM_DAG, n=6, m=2, seed=13, density=0.4,
                         weights=WEIGHTS_SINK_ONLY)
    inst = generate_instance(spec)
    assert inst.graph.n == 7
    collector = inst.graph.tasks[6]
    assert collector.demand == 1.0
    assert collector.weight == 1.0
    assert all(t.weight == 0.0 for t in inst.graph.tasks[:6])
    preds = inst.graph.predecessors()
    feeding = preds[6]
    assert feeding  # every original sink feeds it over zero-data edges
    assert inst.graph.predecessor_data()[6] == [0.0] * len(feeding)
    succs = inst.graph.successors()
    assert all(succs[j] for j in range(6))  # no other sinks remain


def test_bad_specs_rejected():
    with pytest.raises(GeneratorError):
        GeneratorSpec(family="ring", n=3, m=1, seed=0).check()
    with pytest.raises(GeneratorError):
        GeneratorSpec(family=LAYERED, n=0, m=1, seed=0).check()
    with pytest.raises(GeneratorError):
        GeneratorSpec(family=LAYERED, n=3, m=1, seed=0, density=1.5).check()
    with pytest.raises(GeneratorError):
        GeneratorSpec(family=LAYERED, n=3, m=1, seed=0,
                      speed_range=(0.0, 1.0)).check()
    inf = float("inf")
    for field, bad in (("speed_range", (inf, inf)), ("comm_range", (1.0, inf)),
                       ("demand_range", (1.0, inf)), ("data_range", (0.0, inf))):
        with pytest.raises(GeneratorError, match="finite"):
            GeneratorSpec(family=LAYERED, n=3, m=1, seed=0, **{field: bad}).check()
