import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.grouping import trivial_assignment
from getf.model import (CycleError, InstanceError, Machine, Platform, normalize_demands,
                        parse_instance, serial_sum, serialize_instance, topological_order,
                        validate_instance)
from getf.scheduler import TieBreak, getf_schedule, schedule_from_dict

from conftest import EXAMPLE_JSON, make_instance


def instances(seed: int, zero_data: bool = False):
    spec = GeneratorSpec(
        family=FAMILIES[seed % 3],
        n=3 + seed % 9,
        m=1 + seed % 4,
        seed=seed,
        density=0.4,
        data_range=(0.0, 0.0) if zero_data else (0.0, 3.0),
    )
    return generate_instance(spec)


class TestParse:
    def test_worked_example_dimensions(self, example_instance):
        assert example_instance.graph.n == 4
        assert example_instance.platform.m == 2
        assert example_instance.graph.tasks[3].demand == 3.0
        assert example_instance.platform.comm_speed[0][0] == 2.0

    def test_minimal_instance(self):
        doc = {"tasks": [{"id": 0, "demand": 1.0}], "edges": [],
               "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[None]]}
        inst = parse_instance(json.dumps(doc))
        assert inst.graph.n == 1
        assert inst.platform.comm_speed[0][0] == math.inf

    def test_two_cycle_rejected(self):
        doc = {"tasks": [{"id": 0, "demand": 1.0}, {"id": 1, "demand": 1.0}],
               "edges": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
               "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[1.0]]}
        with pytest.raises(InstanceError, match="cycle"):
            parse_instance(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="malformed JSON"):
            parse_instance("{not json")

    def test_missing_field_named(self):
        with pytest.raises(InstanceError, match="comm_speed"):
            parse_instance('{"tasks": [], "edges": [], "machines": []}')

    def test_nonpositive_speed_named(self):
        doc = {"tasks": [{"id": 0, "demand": 1.0}], "edges": [],
               "machines": [{"id": 0, "speed": 0.0}], "comm_speed": [[1.0]]}
        with pytest.raises(InstanceError, match="nonpositive speed, machine 0"):
            parse_instance(json.dumps(doc))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, seed):
        inst = instances(seed)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert serialize_instance(again) == serialize_instance(inst)

    def test_round_trip_preserves_infinite_comm(self):
        inst = make_instance([1.0], [], [1.0], comm=None)
        text = serialize_instance(inst)
        assert '"comm_speed": [\n    [\n      null' in text.replace("  ", " ") or "null" in text
        assert parse_instance(text) == inst


class TestValidate:
    def test_worked_example_clean(self, example_instance):
        report = validate_instance(example_instance)
        assert report.ok
        assert report.violations == []

    def test_zero_demand_violation(self):
        inst = make_instance([0.0], [], [1.0])
        report = validate_instance(inst)
        assert not report.ok
        assert "nonpositive demand, task 0" in report.violations

    def test_disconnected_is_warning_only(self):
        inst = make_instance([1.0, 1.0, 1.0, 1.0], [(0, 1, 1.0), (2, 3, 1.0)], [1.0])
        report = validate_instance(inst)
        assert report.ok

    def test_zero_data_edge_warns(self):
        inst = make_instance([1.0, 1.0], [(0, 1, 0.0)], [1.0])
        report = validate_instance(inst)
        assert report.ok

    def test_self_edge_rejected(self):
        inst = make_instance([1.0], [(0, 0, 1.0)], [1.0])
        assert any("self edge" in v for v in validate_instance(inst).violations)

    def test_parallel_edge_rejected(self):
        inst = make_instance([1.0, 1.0], [(0, 1, 1.0), (0, 1, 2.0)], [1.0])
        assert any("parallel edge" in v for v in validate_instance(inst).violations)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        demand = make_instance([value], [], [1.0])
        weight = make_instance([1.0], [], [1.0], weights=[value])
        data = make_instance([1.0, 1.0], [(0, 1, value)], [1.0])
        speed = make_instance([1.0], [], [value])
        assert "non-finite demand, task 0" in validate_instance(demand).violations
        assert "non-finite weight, task 0" in validate_instance(weight).violations
        assert "non-finite data on edge (0,1)" in validate_instance(data).violations
        assert "non-finite speed, machine 0" in validate_instance(speed).violations

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_comm_speed_rejected(self, value):
        inst = make_instance([1.0], [], [1.0, 1.0], comm=[[None, value], [1.0, 1.0]])
        assert validate_instance(inst).violations == ["non-finite comm speed, pair (0,1)"]

    def test_infinite_comm_speed_means_zero_delay(self):
        inst = make_instance([1.0], [], [1.0, 1.0], comm=[[math.inf, 2.0], [None, 1.0]])
        assert validate_instance(inst).ok

    def test_nan_data_document_rejected(self):
        doc = json.loads(EXAMPLE_JSON)
        doc["edges"][2]["data"] = math.nan
        with pytest.raises(InstanceError, match=r"non-finite data on edge \(1,2\)"):
            parse_instance(json.dumps(doc))


def with_column(inst, column, value):
    """``inst`` with the first value of one column (``machine_ids`` and
    ``comm_speed`` name the platform's) replaced by ``value``."""
    g, p = inst.graph, inst.platform
    if column in ("demand", "weight", "src", "dst", "data"):
        return replace(inst, graph=replace(g, **{column: (value, *getattr(g, column)[1:])}))
    if column in ("machine_ids", "speed"):
        first = p.machines[0]
        first = Machine(value, first.speed) if column == "machine_ids" else Machine(first.id, value)
        return replace(inst, platform=Platform((first, *p.machines[1:]), p.comm_speed))
    rows = ((value, *p.comm_speed[0][1:]), *p.comm_speed[1:])
    return replace(inst, platform=Platform(p.machines, rows))


class TestValuesAreNumbers:
    COLUMNS = ("demand", "weight", "src", "dst", "data", "machine_ids", "speed", "comm_speed")

    @staticmethod
    def base():
        return make_instance([1.0, 2.0], [(0, 1, 1.0)], [1.0, 2.0], comm=1.0)

    @pytest.mark.parametrize("column", COLUMNS)
    @pytest.mark.parametrize("value", ["a", "0", None])
    def test_one_violation_per_column(self, column, value):
        inst = with_column(self.base(), column, value)
        assert validate_instance(inst).violations == [
            f"instance values must be numbers: got {value!r}"]

    def test_first_value_in_column_order_is_named(self):
        inst = with_column(with_column(self.base(), "comm_speed", "c"), "weight", "w")
        assert validate_instance(inst).violations == ["instance values must be numbers: got 'w'"]

    def test_numpy_and_bool_values_accepted(self):
        inst = self.base()
        for column, value in (("demand", np.float32(1.0)), ("weight", True), ("src", False),
                              ("data", np.int64(2)), ("machine_ids", np.int64(0)),
                              ("speed", np.float64(1.5)), ("comm_speed", np.float32(2.0))):
            inst = with_column(inst, column, value)
        assert validate_instance(inst).ok


class TestTopologicalOrder:
    def test_chain(self):
        inst = make_instance([1, 1, 1], [(0, 1, 0), (1, 2, 0)], [1.0])
        assert topological_order(inst.graph) == [0, 1, 2]

    def test_worked_example_lowest_id_rule(self, example_instance):
        assert topological_order(example_instance.graph) == [0, 1, 2, 3]

    def test_empty_graph(self):
        inst = make_instance([], [], [1.0])
        assert topological_order(inst.graph) == []

    def test_prefers_low_ids_among_available(self):
        # 2 is a source too; it must not jump ahead of 0 and 1.
        inst = make_instance([1, 1, 1, 1], [(0, 3, 0), (2, 1, 0)], [1.0])
        order = topological_order(inst.graph)
        assert order == [0, 1, 2, 3] or order.index(0) < order.index(2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_respects_every_edge(self, seed):
        inst = instances(seed)
        order = topological_order(inst.graph)
        assert sorted(order) == list(range(inst.graph.n))
        pos = {j: k for k, j in enumerate(order)}
        for src, dst in zip(inst.graph.src, inst.graph.dst):
            assert pos[src] < pos[dst]

    def test_computed_once_and_shared(self, example_instance):
        g = example_instance.graph
        assert topological_order(g) is topological_order(g)

    def test_cycle_raises_on_every_call(self):
        inst = make_instance([1, 1, 1], [(0, 1, 0), (1, 2, 0), (2, 1, 0)], [1.0])
        for _ in range(3):
            with pytest.raises(CycleError, match=r"cycle detected among tasks \[1, 2\]"):
                topological_order(inst.graph)


class TestAdjacency:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_built_once_and_equal_to_edges(self, family):
        g = generate_instance(GeneratorSpec(family=family, n=30, m=3, seed=7,
                                            density=0.3)).graph
        assert g.src
        for read in (g.predecessors, g.successors, g.predecessor_data):
            assert read() is read()
        preds, succs = [[] for _ in range(g.n)], [[] for _ in range(g.n)]
        for src, dst in zip(g.src, g.dst):
            preds[dst].append(src)
            succs[src].append(dst)
        assert g.predecessors() == preds
        assert g.successors() == succs

    @pytest.mark.parametrize("family", FAMILIES)
    def test_edge_columns_built_once_and_read_only(self, family):
        g = generate_instance(GeneratorSpec(family=family, n=30, m=3, seed=7,
                                            density=0.3)).graph
        assert g.edge_columns() is g.edge_columns()
        src, dst, data = g.edge_columns()
        assert (src.tolist(), dst.tolist(), data.tolist()) == (list(g.src), list(g.dst),
                                                               list(g.data))
        for column in (src, dst, data):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_edge_columns_of_edgeless_graph(self):
        src, dst, data = make_instance([1.0], [], [1.0]).graph.edge_columns()
        assert src.dtype.kind == dst.dtype.kind == "i" and data.dtype.kind == "f"
        assert len(src) == len(dst) == len(data) == 0


class TestNormalize:
    def test_forced_by_formula(self):
        inst = make_instance([0.5, 2.0], [], [2.0])
        scaled, scale = normalize_demands(inst)
        assert scale == pytest.approx(4.0)
        assert [t.demand for t in scaled.graph.tasks] == pytest.approx([2.0, 8.0])

    def test_worked_example_already_normalized(self, example_instance):
        scaled, scale = normalize_demands(example_instance)
        assert scale == 1.0
        assert scaled == example_instance

    def test_single_already_above_one(self):
        inst = make_instance([3.0], [], [1.0])
        assert normalize_demands(inst)[1] == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed):
        inst = instances(seed)
        once, _ = normalize_demands(inst)
        twice, second_scale = normalize_demands(once)
        assert second_scale == 1.0
        assert twice == once

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_schedule_times_scale_when_comm_free(self, seed):
        # With zero data volumes the whole timeline scales with the demands.
        inst = instances(seed, zero_data=True)
        scaled, scale = normalize_demands(inst)
        f = trivial_assignment(inst)
        f_scaled = trivial_assignment(scaled)
        s0 = getf_schedule(inst, f, TieBreak.by_index())
        s1 = getf_schedule(scaled, f_scaled, TieBreak.by_index())
        assert s1.assignment == s0.assignment
        for j in s0.start:
            assert s1.start[j] == pytest.approx(scale * s0.start[j], abs=1e-9)
            assert s1.finish[j] == pytest.approx(scale * s0.finish[j], abs=1e-9)


def test_example_json_is_canonical_round_trip():
    inst = parse_instance(EXAMPLE_JSON)
    assert parse_instance(serialize_instance(inst)) == inst


class TestEdgeIds:
    def test_fractional_id_refused_in_one_line(self):
        inst = make_instance([1.0, 1.0], [(0.5, 1, 1.0)], [1.0])
        assert validate_instance(inst).violations == [
            "edge (0.5,1) has an id that is not an integer"]
        inst = make_instance([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2.0, 1.0)], [1.0])
        assert validate_instance(inst).violations == [
            "edge (1,2.0) has an id that is not an integer"]

    def test_numpy_ints_accepted(self):
        ints = make_instance([1.0, 2.0, 1.0], [(0, 1, 1.0), (0, 2, 2.0)], [1.0, 2.0], comm=1.0)
        wide = make_instance([1.0, 2.0, 1.0], [(np.int64(0), np.int64(1), 1.0),
                                               (np.int32(0), np.int64(2), 2.0)],
                             [1.0, 2.0], comm=1.0)
        assert validate_instance(wide).ok
        tie = TieBreak.by_index()
        assert getf_schedule(wide, trivial_assignment(wide), tie).to_json(wide) == \
            getf_schedule(ints, trivial_assignment(ints), tie).to_json(ints)

    def test_bool_ints_accepted(self):
        ints = make_instance([1.0, 2.0], [(0, 1, 1.0)], [1.0, 2.0], comm=1.0)
        bools = make_instance([1.0, 2.0], [(False, True, 1.0)], [1.0, 2.0], comm=1.0)
        assert validate_instance(bools).ok
        tie = TieBreak.by_index()
        text = getf_schedule(bools, trivial_assignment(bools), tie).to_json(bools)
        assert text == getf_schedule(ints, trivial_assignment(ints), tie).to_json(ints)
        assert schedule_from_dict(json.loads(text)).to_json(bools) == text


class TestSerialSum:
    def test_adds_left_to_right(self):
        # The builtin sum of Python 3.12 and later gives 1.0 here.
        assert serial_sum([0.1] * 10) == 0.9999999999999999
        assert serial_sum([]) == 0 and type(serial_sum([])) is int
        assert serial_sum(iter([1e16, 1.0, -1e16])) == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_equals_a_plain_loop(self, values):
        total = 0
        for v in values:
            total = total + v
        assert repr(serial_sum(values)) == repr(total)
