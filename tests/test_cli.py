import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from getf import grouping
from getf.cli import (ALGORITHMS, EXIT_BOUND, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE,
                      compare_batch, main)
from getf.lp_solver import LpError
from getf.model import parse_instance
from getf.scheduler import schedule_from_dict, verify_schedule

from conftest import EXAMPLE_JSON


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_JSON, encoding="utf-8")
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


# Instance documents that must be refused with exit 2 and one error line.
MALFORMED_DOCS = {
    "empty-tasks": lambda d: d.update(tasks=[], edges=[]),
    "empty-machines": lambda d: d.update(machines=[], comm_speed=[]),
    "tasks-not-a-list": lambda d: d.update(tasks=5),
    "non-numeric-id": lambda d: d["tasks"][0].update(id="x"),
    "fractional-id": lambda d: d["tasks"][0].update(id=0.7),
    "fractional-edge-src": lambda d: d["edges"][0].update(src=0.5),
    "non-numeric-demand": lambda d: d["tasks"][0].update(demand="abc"),
    "null-weight": lambda d: d["tasks"][0].update(weight=None),
    "overflowing-speed": lambda d: d["machines"][0].update(speed=10 ** 400),
    "non-numeric-comm-speed": lambda d: d["comm_speed"][0].__setitem__(0, "a"),
}


class TestGenerate:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        rc = run("generate", "--family", "fork-join", "--n", 6, "--m", 2,
                 "--seed", 42, "-o", out)
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 6

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("generate", "--family", "layered", "--n", 9, "--m", 3,
                       "--seed", 7, "-o", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, capsys, tmp_path):
        assert run("generate", "--family", "layered", "--m", "2") == EXIT_USAGE
        for argv in (("generate", "--n", 3, "--m", 2, "--demand", "abc"),
                     ("generate", "--n", 0, "--m", 2),
                     ("compare", tmp_path, "--seeds", "x"),
                     ("generate", "--n", 3, "--m", 2, "--speed", "inf"),
                     ("generate", "--n", 3, "--m", 2, "--comm", "1:inf"),
                     ("generate", "--n", 3, "--m", 2, "--demand", "1:inf"),
                     ("generate", "--n", 3, "--m", 2, "--data", "0:inf")):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestSolve:
    @pytest.mark.parametrize("algo", ["getf-makespan", "getf-weighted", "etf", "sls"])
    def test_all_algorithms_emit_feasible_schedules(self, example_file, tmp_path, algo):
        out = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", algo, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["assignments"]) == 4
        expected = {"getf-makespan": 5.0, "getf-weighted": 5.0, "etf": 5.0, "sls": 6.0}
        assert doc["makespan"] == pytest.approx(expected[algo])

    def test_schedule_json_deterministic(self, example_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("solve", example_file, "--algo", "getf-makespan",
                       "--tie", "random:5", "-o", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_instance_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "tasks": [{"id": 0, "demand": 1.0}, {"id": 1, "demand": 1.0}],
            "edges": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
            "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[1.0]],
        }))
        assert run("solve", bad) == EXIT_INFEASIBLE

    def test_strict_flags_idle_violations(self, example_file, tmp_path, capsys):
        # The worked example violates a per-link idle bound on the min-comm
        # chain, so strict mode must refuse while the default accepts.
        out = tmp_path / "s.json"
        assert run("solve", example_file, "--algo", "etf", "-o", out) == EXIT_OK
        rc = run("solve", example_file, "--algo", "etf", "--strict", "-o", out)
        assert rc == EXIT_BOUND

    def test_unknown_tie_rule_usage_error(self, example_file):
        assert run("solve", example_file, "--tie", "coin-flip") == EXIT_USAGE
        assert run("solve", example_file, "--tie", "random:x") == EXIT_USAGE

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_malformed_document_exit_2_one_line(self, tmp_path, capsys, case):
        doc = json.loads(EXAMPLE_JSON)
        MALFORMED_DOCS[case](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--algo", "etf") == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_nan_edge_data_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        doc = json.loads(EXAMPLE_JSON)
        doc["edges"][0]["data"] = float("nan")
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--algo", "etf") == EXIT_INFEASIBLE
        assert "non-finite data on edge (0,2)" in capsys.readouterr().err

    def test_lp_error_exit_2_one_line(self, example_file, monkeypatch, capsys):
        def failing_solve(lp):
            raise LpError("simplex iteration limit exceeded")
        monkeypatch.setattr(grouping, "solve_lp", failing_solve)
        assert run("solve", example_file, "--algo", "getf-makespan") == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "error: simplex iteration limit exceeded\n"

    def test_infeasible_lp_point_exit_2_one_line(self, tmp_path, capsys):
        # The simplex ends on an infeasible point for this weighted relaxation;
        # the residual guard refuses it instead of assigning bands from it.
        inst = tmp_path / "inst.json"
        assert run("generate", "--family", "random-dag", "--n", 10, "--m", 3, "--seed", 100057,
                   "--weights", "uniform", "-o", inst) == EXIT_OK
        capsys.readouterr()
        assert run("solve", inst, "--algo", "getf-weighted") == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: simplex returned an infeasible point: row 122 ")
        assert err.count("\n") == 1


class TestVerify:
    @staticmethod
    def tampered(example_file, tmp_path, edit):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        doc = json.loads(sched.read_text())
        edit(doc)
        sched.write_text(json.dumps(doc))
        return sched

    def test_round_trip_verifies(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "-o", sched) == EXIT_OK
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True

    def test_tampered_schedule_exit_2(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "-o", sched) == EXIT_OK
        doc = json.loads(sched.read_text())
        doc["assignments"][0]["start"] = -3.0  # break duration and ordering
        sched.write_text(json.dumps(doc))
        assert run("verify", example_file, sched) == EXIT_INFEASIBLE

    def test_with_pipeline_report(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "getf-makespan", "-o", sched) == EXIT_OK
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "--algo", "getf-makespan",
                   "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["group_consistent"] is True
        assert doc["separation"]["inequalities"][0]["pass"] is True

    def test_unknown_machine_is_a_violation(self, example_file, tmp_path):
        sched = self.tampered(example_file, tmp_path,
                              lambda d: d["assignments"][0].update(machine=5))
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "-o", out) == EXIT_INFEASIBLE
        assert json.loads(out.read_text())["violations"] == \
            ["task 0 is placed on unknown machine 5"]

    def test_unknown_task_is_a_violation(self, example_file, tmp_path):
        extra = {"task": 7, "machine": 0, "start": 10.0, "end": 11.0}
        sched = self.tampered(example_file, tmp_path,
                              lambda d: d["assignments"].append(extra))
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "-o", out) == EXIT_INFEASIBLE
        assert json.loads(out.read_text())["violations"] == ["unknown task 7 is scheduled"]

    def test_incomplete_schedule_gets_no_bound_report(self, example_file, tmp_path):
        def drop_task_0(doc):
            doc["assignments"] = [e for e in doc["assignments"] if e["task"] != 0]
            doc["iteration_order"].remove(0)
        sched = self.tampered(example_file, tmp_path, drop_task_0)
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "--algo", "etf",
                   "-o", out) == EXIT_INFEASIBLE
        doc = json.loads(out.read_text())
        assert doc["violations"] == ["task 0 is not scheduled"]
        assert "separation" not in doc


    @pytest.mark.parametrize("where", ["iteration_order", "assignments"])
    def test_repeated_task_is_malformed(self, example_file, tmp_path, capsys, where):
        def repeat_task_0(doc):
            if where == "iteration_order":
                doc["iteration_order"].append(0)
            else:
                doc["assignments"].append(dict(doc["assignments"][0]))
        sched = self.tampered(example_file, tmp_path, repeat_task_0)
        for argv in (("verify", example_file, sched), ("gantt", sched)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert err == f"error: cannot read schedule: task 0 appears more than once in {where}\n"


class TestCompare:
    def test_worked_example_rows(self, example_file, tmp_path):
        csv_text = compare_batch(str(example_file.parent), ["getf-makespan", "sls"])
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("instance,algorithm,tie,makespan")
        getf_row = next(l for l in lines if ",getf-makespan,by-index," in l)
        sls_row = next(l for l in lines if ",sls,by-index," in l)
        assert getf_row.split(",")[3] == "5"
        assert sls_row.split(",")[3] == "6"
        assert any(l.startswith("(mean),getf-makespan") for l in lines)

    def test_empty_directory_header_only(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        csv_text = compare_batch(str(empty), ["etf"])
        assert csv_text.strip().splitlines() == [
            "instance,algorithm,tie,makespan,weighted_completion,P,sum_D,C,"
            "bound_slack,runtime_s,error"
        ]

    def test_bad_file_gets_error_row_without_aborting(self, example_file, tmp_path):
        bad = example_file.parent / "cyclic.json"
        bad.write_text(json.dumps({
            "tasks": [{"id": 0, "demand": 1.0}, {"id": 1, "demand": 1.0}],
            "edges": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
            "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[1.0]],
        }))
        csv_text = compare_batch(str(example_file.parent), ["etf"])
        lines = csv_text.strip().splitlines()
        error_row = next(l for l in lines if l.startswith("cyclic.json"))
        assert "cycle" in error_row
        assert any(l.startswith("example.json,etf") and l.endswith(",")
                   for l in lines)

    def test_deterministic_modulo_runtime(self, example_file):
        def strip_runtime(text):
            rows = [r.split(",") for r in text.strip().splitlines()]
            return [r[:9] + r[10:] for r in rows]
        a = compare_batch(str(example_file.parent), ["getf-makespan", "etf"], [3, 4])
        b = compare_batch(str(example_file.parent), ["getf-makespan", "etf"], [3, 4])
        assert strip_runtime(a) == strip_runtime(b)


def test_log_env_var_smoke(example_file, tmp_path, monkeypatch):
    monkeypatch.setenv("GETF_LOG", "debug")
    out = tmp_path / "s.json"
    assert run("solve", example_file, "--algo", "etf", "-o", out) == EXIT_OK


class TestGantt:
    def test_csv_shape(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "-o", sched) == EXIT_OK
        out = tmp_path / "gantt.csv"
        assert run("gantt", sched, "-o", out) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "task,machine,start,end"
        assert len(lines) == 5
        assert lines[1] == "0,0,0,1"

    def test_missing_file_usage_error(self, tmp_path):
        assert run("gantt", tmp_path / "nope.json") == EXIT_USAGE


# Values that are not a positive finite number, or not a valid id.
POISON = [math.nan, math.inf, -math.inf, -1.0, -0.5, 0.0, 0.5, 2.5, 10 ** 400,
          "1", "x", None, True, [], {}]
DELETE = object()


@st.composite
def raw_documents(draw):
    """Instance documents, well formed or poisoned: NaN, +-inf, negatives,
    empty lists, fractional and string ids, ragged comm_speed, missing keys."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    positive = st.floats(0.25, 8.0)
    doc = {
        "tasks": [{"id": j, "demand": draw(positive), "weight": draw(st.floats(0.0, 3.0))}
                  for j in range(n)],
        "edges": [{"src": a, "dst": b, "data": draw(st.floats(0.0, 4.0))}
                  for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                      st.integers(0, n - 1)), max_size=5))],
        "machines": [{"id": i, "speed": draw(positive)} for i in range(m)],
        "comm_speed": [[draw(st.one_of(st.none(), positive)) for _ in range(m)]
                       for _ in range(m)],
    }
    for _ in range(draw(st.integers(0, 2))):           # poison single values
        slots = [(item, key) for part in ("tasks", "edges", "machines")
                 for item in doc[part] for key in item]
        slots += [(row, i) for row in doc["comm_speed"] for i in range(len(row))]
        if slots:
            container, key = draw(st.sampled_from(slots))
            value = draw(st.sampled_from(POISON + [DELETE]))
            if value is not DELETE:
                container[key] = value
            elif isinstance(container, dict):
                del container[key]
    part = draw(st.sampled_from(["tasks", "edges", "machines", "comm_speed"]))
    shape = draw(st.sampled_from([None, None, None, "empty", "scalar", "missing",
                                  "short-row", "long-row", "missing-row"]))
    if shape == "empty":
        doc[part] = []
    elif shape == "scalar":
        doc[part] = draw(st.sampled_from([5, "x", None, {}]))
    elif shape == "missing":
        del doc[part]
    elif shape == "short-row":
        doc["comm_speed"][-1].pop()
    elif shape == "long-row":
        doc["comm_speed"][0].append(1.0)
    elif shape == "missing-row":
        doc["comm_speed"].pop()
    return doc


@given(doc=raw_documents(), algo=st.sampled_from(ALGORITHMS))
@settings(max_examples=150, deadline=None)
def test_raw_documents_exit_0_or_2(doc, algo):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "sched.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", str(path), "--algo", algo, "-o", str(out)])
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        if rc == EXIT_OK:
            inst = parse_instance(path.read_text())
            sched = schedule_from_dict(json.loads(out.read_text()))
            assert verify_schedule(inst, sched).feasible
