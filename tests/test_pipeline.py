import importlib.util
import sys
from pathlib import Path

import pytest

import getf
import getf.cli  # imports every module the tracer patches
from getf import grouping, model, pipeline, scheduler
from getf.generator import FAMILIES, GeneratorSpec, generate_instance
from getf.scheduler import TieBreak

from conftest import EXAMPLE_JSON

TIE_RULES = (TieBreak.by_index(), TieBreak.random_rule(3), TieBreak.largest_demand(),
             TieBreak.most_successors())


def composed_by_hand(inst, algo, tie):
    """Each algorithm written out step by step, as the library documents it."""
    if algo == "etf":
        return scheduler.etf_schedule(inst, tie), grouping.trivial_assignment(inst)
    if algo == "sls":
        f = grouping.trivial_assignment(inst)
        return scheduler.sls_schedule(inst, f, model.topological_order(inst.graph)), f
    if algo == "getf-makespan":
        groups = grouping.partition_machines(inst.platform)
        frac = grouping.solve_makespan_relaxation(inst, groups)
        f = grouping.assign_groups_makespan(frac, groups, 0.5)
    else:
        normalized, _ = model.normalize_demands(inst)
        groups = grouping.partition_machines(normalized.platform)
        wsol = grouping.solve_weighted_relaxation(normalized, groups)
        f = grouping.assign_groups_weighted(wsol, groups, 0.5)
    return scheduler.getf_schedule(inst, f, tie), f


@pytest.mark.parametrize("algo", pipeline.ALGORITHMS)
def test_run_matches_composition_by_hand(algo):
    n = 6 if algo == "getf-weighted" else 12
    for k in range(6):
        spec = GeneratorSpec(family=FAMILIES[k % 3], n=n, m=2 + k % 3, seed=700 + k,
                             density=0.4, speed_range=(1.0, 4.0), weights="uniform")
        inst = generate_instance(spec)
        tie = TIE_RULES[k % len(TIE_RULES)]
        sched, f = pipeline.run(inst, algo, tie)
        want_sched, want_f = composed_by_hand(inst, algo, tie)
        assert sched.to_json(inst) == want_sched.to_json(inst)
        assert f.to_json() == want_f.to_json()
        assert pipeline.assign(inst, algo).to_json() == f.to_json()


def test_unknown_algorithm_raises(example_instance):
    with pytest.raises(ValueError, match="unknown algorithm 'lpt'"):
        pipeline.run(example_instance, "lpt", TieBreak.by_index())


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses resolve annotations through it
    spec.loader.exec_module(spans)
    return spans


def test_tracer_finds_every_traced_name(tmp_path):
    """The benchmark tracer patches public functions by module attribute;
    each must exist, and every pipeline step must run under ``cli.main``."""
    spans = load_spans()
    tracer = spans.Tracer(getf)
    assert tracer.missing == []
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_JSON, encoding="utf-8")
    argv = ["solve", str(path), "--algo", "getf-makespan", "-o", str(tmp_path / "sched.json")]
    assert tracer.run_op(0, lambda: getf.cli.main(argv)) == 0  # looked up once patched
    names = {s.name for s in tracer.spans}
    assert {"grouping.partition", "grouping.lp_build", "lp_solver.solve",
            "grouping.assign", "scheduler.place", "scheduler.verify",
            "analysis.separation", "scheduler.to_json"} <= names
    root = next(s.id for s in tracer.spans if s.name == "cli.solve")
    parent = {s.id: s.parent for s in tracer.spans}

    def under_root(sid):
        while sid is not None and sid != root:
            sid = parent[sid]
        return sid == root
    assert all(under_root(s.parent) for s in tracer.spans
               if s.name not in ("op", "cli.solve"))


def test_tracer_sees_the_weighted_route(tmp_path):
    """The benchmark times the weighted extraction and the collapse under one
    span name, ``grouping.extract``; they must run one after the other, never
    one inside the other, after the LP build and solve and before the band
    assignment, all directly under ``cli.solve``."""
    spans = load_spans()
    tracer = spans.Tracer(getf)
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_JSON, encoding="utf-8")
    argv = ["solve", str(path), "--algo", "getf-weighted", "-o", str(tmp_path / "sched.json")]
    assert tracer.run_op(0, lambda: getf.cli.main(argv)) == 0
    root = next(s.id for s in tracer.spans if s.name == "cli.solve")
    route = [s for s in tracer.spans  # listed by start time
             if s.name.startswith("grouping.") or s.name == "lp_solver.solve"]
    assert [s.name for s in route] == ["grouping.partition", "grouping.lp_build",
                                       "lp_solver.solve", "grouping.extract",
                                       "grouping.extract", "grouping.assign"]
    assert all(s.parent == root for s in route)
    assert all(a.end <= b.start for a, b in zip(route, route[1:]))


@pytest.mark.parametrize("algo", ["etf", "sls"])
def test_tracer_counts_one_earliest_start_per_task(tmp_path, algo):
    """The benchmark counts ``scheduler.earliest_start`` through its module
    attribute; ETF and SLS must call it once per task, inside the placement
    span."""
    spans = load_spans()
    tracer = spans.Tracer(getf)
    inst = generate_instance(GeneratorSpec("layered", 40, 8, seed=40, density=0.1))
    path = tmp_path / "layered.json"
    path.write_text(model.serialize_instance(inst), encoding="utf-8")
    argv = ["solve", str(path), "--algo", algo, "-o", str(tmp_path / "sched.json")]
    assert tracer.run_op(0, lambda: getf.cli.main(argv)) == 0
    assert tracer.count("scheduler.earliest_start", "scheduler.place") == inst.graph.n
    assert tracer.count("scheduler.earliest_start") == inst.graph.n
