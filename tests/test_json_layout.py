"""The schedule and instance writers lay out exactly the bytes of
``json.dumps(doc, indent=2) + "\\n"`` on their reference documents,
``Schedule.to_dict`` and ``instance_to_dict``."""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from getf.model import (Instance, Machine, Platform, TaskGraph, instance_to_dict,
                        serialize_instance)
from getf.scheduler import Schedule


def reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# Floats json spells in every way it can, a float subclass, and ints stored
# in float fields.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 5e-324, 1e300, 1e16, 0.1, -2.5e-7,
                     np.float64(0.25)]),
    st.integers(-10**20, 10**20),
)


def columns(rows: list[tuple], width: int) -> list[tuple]:
    """The ``width`` columns of ``rows``, empty ones too."""
    return [tuple(row[k] for row in rows) for k in range(width)]


@st.composite
def instances(draw) -> Instance:
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    tasks = [(draw(numbers), draw(numbers)) for _ in range(n)]
    edges = [(draw(st.integers(0, 9)), draw(st.integers(0, 9)), draw(numbers))
             for _ in range(draw(st.integers(0, 6)))]
    machines = tuple(Machine(i, draw(numbers)) for i in range(m))
    comm = tuple(tuple(draw(st.one_of(numbers, st.just(math.inf)))
                       for _ in range(draw(st.integers(0, m)))) for _ in range(m))
    return Instance(TaskGraph(*columns(tasks, 2), *columns(edges, 3)), Platform(machines, comm))


@st.composite
def schedules(draw) -> tuple[Schedule, Instance]:
    n = draw(st.integers(0, 6))
    inst = Instance(TaskGraph((1.0,) * n, tuple(draw(numbers) for _ in range(n)), (), (), ()),
                    Platform((Machine(0, 1.0),), ((math.inf,),)))
    order = draw(st.permutations(range(n)))
    s = Schedule()
    for j in order:
        s.place(j, draw(st.integers(0, 3)), draw(numbers), draw(numbers))
    return s, inst


ONE_MACHINE = Instance(
    TaskGraph((2, 1.5), (0.0, 0.0), (), (), ()),  # no edges, an int demand
    Platform((Machine(0, 1.0),), ((math.inf,),)),  # m=1, a null comm speed
)


class TestByteIdentity:
    @given(instances())
    @example(Instance(TaskGraph((), (), (), (), ()), Platform((), ())))
    @example(ONE_MACHINE)
    @settings(max_examples=150, deadline=None)
    def test_serialize_instance(self, inst):
        assert serialize_instance(inst) == reference(instance_to_dict(inst))

    @given(schedules())
    @example((Schedule(), Instance(TaskGraph((), (), (), (), ()), Platform((), ()))))
    @settings(max_examples=150, deadline=None)
    def test_schedule_to_json(self, case):
        s, inst = case
        assert s.to_json(inst) == reference(s.to_dict(inst))

    def test_special_times(self):
        s = Schedule()
        for j, start in enumerate([0.0, -0.0, 5e-324, 1e300, math.inf, math.nan, 7]):
            s.place(j, 0, start, start + 1.0)
        inst = Instance(TaskGraph((1.0,) * 7, (1.0,) * 7, (), (), ()),
                        ONE_MACHINE.platform)
        text = s.to_json(inst)
        assert text == reference(s.to_dict(inst))
        assert '"start": Infinity' in text and '"start": NaN' in text
        assert '"start": 7,' in text and '"start": 5e-324' in text
