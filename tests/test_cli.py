import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from getf import analysis, cli, grouping, lp_solver, model, oracle, pipeline, scheduler
from getf.cli import (ALGORITHMS, EXIT_BOUND, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE,
                      compare_batch, main)
from getf.lp_solver import LpError
from getf.model import parse_instance
from getf.scheduler import schedule_from_dict, verify_schedule

from conftest import EXAMPLE_JSON, corrupt_first_pivot
from test_grouping import reference_build_makespan_lp


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
    "edge-to-missing-task": lambda d: d["edges"][0].update(src=7, dst=1),
    "negative-edge-data": lambda d: d["edges"][0].update(data=-1.0),
    "zero-comm-speed": lambda d: d["comm_speed"][0].__setitem__(1, 0.0),
}

# Texts that json.loads refuses with an error other than JSONDecodeError.
UNREADABLE_JSON = {
    "long-integer": EXAMPLE_JSON.replace('"demand": 3.0', '"demand": ' + "9" * 5000),  # ValueError
    "deep-nesting": "[" * 200_000,  # RecursionError
}

# Documents whose strings and booleans float() and int() would take as numbers.
NON_NUMBER_DOCS = {
    "string-demand": lambda d: d["tasks"][0].update(demand="3.5"),
    "string-speed": lambda d: d["machines"][0].update(speed="2"),
    "string-weight": lambda d: d["tasks"][0].update(weight="0.5"),
    "string-comm-speed": lambda d: d["comm_speed"][0].__setitem__(1, "4"),
    "boolean-demand": lambda d: d["tasks"][0].update(demand=True),
    "boolean-id": lambda d: d["tasks"][1].update(id=True),
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

    def test_usage_error_exit_code(self, capsys, tmp_path, example_file):
        assert run("generate", "--family", "layered", "--m", "2") == EXIT_USAGE
        unwritable = tmp_path / "missing" / "x.json"
        for argv in (("generate", "--n", 3, "--m", 2, "--demand", "abc"),
                     ("generate", "--n", 3, "--m", 2, "--demand", "2:"),
                     ("generate", "--n", 0, "--m", 2),
                     ("compare", tmp_path, "--seeds", "x"),
                     ("compare", tmp_path, "--algos", ","),
                     ("generate", "--n", 3, "--m", 2, "--speed", "inf"),
                     ("generate", "--n", 3, "--m", 2, "--comm", "1:inf"),
                     ("generate", "--n", 3, "--m", 2, "--demand", "1:inf"),
                     ("generate", "--n", 3, "--m", 2, "--data", "0:inf"),
                     ("generate", "--n", 3, "--m", 2, "-o", unwritable),
                     ("solve", example_file, "--algo", "etf", "-o", unwritable),
                     ("solve", tmp_path),
                     ("compare", tmp_path / "missing"),
                     ("compare", example_file)):
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

    def test_nan_gamma_exit_2_one_line(self, example_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        for argv in (("solve", example_file, "--gamma", "nan"),
                     ("solve", example_file, "--algo", "etf", "--gamma", "nan"),
                     ("solve", example_file, "--algo", "sls", "--gamma", "nan"),
                     ("verify", example_file, sched, "--algo", "getf-makespan",
                      "--gamma", "nan"),
                     ("verify", example_file, sched, "--algo", "etf", "--gamma", "nan")):
            capsys.readouterr()
            assert run(*argv) == EXIT_INFEASIBLE, argv
            assert capsys.readouterr().err == "error: gamma must exceed 1, got nan\n"

    def test_infinite_gamma_exit_2_one_line(self, example_file, tmp_path, capsys):
        # An infinite ratio would give one band, and the verify report would
        # hold ``Infinity``, which is not JSON.
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        for argv in (("solve", example_file, "--gamma", "inf"),
                     ("solve", example_file, "--algo", "etf", "--gamma", "inf"),
                     ("solve", example_file, "--algo", "sls", "--gamma", "inf"),
                     ("verify", example_file, sched, "--algo", "getf-makespan",
                      "--gamma", "inf"),
                     ("verify", example_file, sched, "--algo", "sls", "--gamma", "inf")):
            capsys.readouterr()
            assert run(*argv) == EXIT_INFEASIBLE, argv
            assert capsys.readouterr().err == "error: gamma must be finite, got inf\n"

    def test_theta_outside_unit_interval_exit_2_one_line(self, example_file, tmp_path, capsys):
        # ETF and SLS build no bands, but refuse the theta the band rule refuses.
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        for argv in (("solve", example_file, "--theta", "5"),
                     ("solve", example_file, "--algo", "etf", "--theta", "5"),
                     ("solve", example_file, "--algo", "sls", "--theta", "5"),
                     ("verify", example_file, sched, "--algo", "etf", "--theta", "5")):
            capsys.readouterr()
            assert run(*argv) == EXIT_INFEASIBLE, argv
            assert capsys.readouterr().err == "error: theta must lie in (0,1), got 5.0\n"

    def test_gamma_near_one_refused_exit_2_one_line(self, example_file, tmp_path, capsys):
        # log_gamma(2) is about 6.9e8 bands: refused before any band is built.
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        for argv in (("solve", example_file, "--gamma", "1.000000001"),
                     ("verify", example_file, sched, "--algo", "getf-weighted",
                      "--gamma", "1.000000001")):
            capsys.readouterr()
            assert run(*argv) == EXIT_INFEASIBLE, argv
            assert capsys.readouterr().err == (
                "error: gamma 1.000000001 needs 693147124 speed bands for 2 machines; "
                f"at most {grouping.MAX_BANDS} are allowed\n")

    @pytest.mark.parametrize("algo, message", [
        ("getf-makespan", "the makespan program has 14 rows and 13 columns; its simplex "
                          "tableau would take 3,480 bytes, over the 3,000-byte budget"),
        ("getf-weighted", "the weighted program has 34 rows and 28 columns; its simplex "
                          "tableau would take 17,920 bytes, over the 3,000-byte budget"),
    ])
    def test_oversized_program_refused_before_allocation(self, example_file, tmp_path,
                                                        monkeypatch, capsys, algo, message):
        # A small budget stands in for an instance too large to allocate.
        monkeypatch.setattr(grouping, "MAX_TABLEAU_BYTES", 3000)
        zeros = grouping.np.zeros

        def no_matrix(shape, *args, **kwargs):
            assert not (isinstance(shape, tuple) and len(shape) == 2), "A was allocated"
            return zeros(shape, *args, **kwargs)
        monkeypatch.setattr(grouping.np, "zeros", no_matrix)
        sched = tmp_path / "sched.out"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        for argv in (("solve", example_file, "--algo", algo),
                     ("verify", example_file, sched, "--algo", algo)):
            capsys.readouterr()
            assert run(*argv) == EXIT_INFEASIBLE, argv
            assert capsys.readouterr().err == f"error: {message}\n"
        rows = list(csv.reader(io.StringIO(compare_batch(str(example_file.parent), [algo]))))
        assert rows[1][:2] == ["example.json", algo] and rows[1][-1] == message

    def test_unknown_tie_rule_usage_error(self, example_file):
        assert run("solve", example_file, "--tie", "coin-flip") == EXIT_USAGE
        assert run("solve", example_file, "--tie", "random:x") == EXIT_USAGE

    @pytest.mark.parametrize("tie, rule", [("largest-demand", scheduler.TieBreak.largest_demand),
                                            ("most-succ", scheduler.TieBreak.most_successors)])
    def test_named_tie_rules_reach_the_scheduler(self, example_file, tmp_path, tie, rule):
        out = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "getf-makespan", "--tie", tie,
                   "-o", out) == EXIT_OK
        inst = parse_instance(EXAMPLE_JSON)
        assert out.read_text() == pipeline.run(inst, "getf-makespan", rule())[0].to_json(inst)

    def test_infeasible_pipeline_schedule_exit_2(self, example_file, monkeypatch, capsys):
        # Task 3 waits for data from tasks 0 and 1; starting it one unit
        # early must be caught before anything is written.
        pipeline_run = pipeline.run

        def early_run(inst, *args):
            sched, f = pipeline_run(inst, *args)
            doc = sched.to_dict(inst)
            doc["assignments"][3]["start"] -= 1.0
            doc["assignments"][3]["end"] -= 1.0
            return schedule_from_dict(doc), f
        monkeypatch.setattr(pipeline, "run", early_run)
        assert run("solve", example_file, "--algo", "etf") == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: schedule failed verification: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_malformed_document_exit_2_one_line(self, tmp_path, capsys, case):
        doc = json.loads(EXAMPLE_JSON)
        MALFORMED_DOCS[case](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--algo", "etf") == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("case", sorted(NON_NUMBER_DOCS))
    def test_non_number_value_exit_2(self, tmp_path, capsys, case):
        doc = json.loads(EXAMPLE_JSON)
        NON_NUMBER_DOCS[case](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--algo", "etf") == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: instance values must be numbers: got ")
        assert err.count("\n") == 1, err

    def test_integral_float_id_accepted(self, tmp_path):
        doc = json.loads(EXAMPLE_JSON)
        doc["tasks"][1]["id"] = 1.0
        path = tmp_path / "float-id.json"
        path.write_text(json.dumps(doc))
        assert run("solve", path, "--algo", "etf") == EXIT_OK

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

    @staticmethod
    def solve_with_bad_start(example_file, monkeypatch, build, fault, column, moved_to):
        """Solve the worked example with `build`'s program and a start spoilt
        by `fault`; for "infeasible", basic `column` leaves its row for row
        `moved_to`.  Task 0 starts on machine 1, x[1, 0] being column 4."""
        def bad_start(inst, groups):
            lp = build(inst, groups)
            start = lp.start
            if fault == "malformed":
                lp.start = start[:-1]
            elif fault == "singular":
                start[1] = start[0]            # x[1, 0] has no entry in task 1's row
            else:
                start[start == column] = -1
                start[moved_to] = column
            return lp

        monkeypatch.setattr(grouping, "build_makespan_lp", bad_start)
        return run("solve", example_file, "--algo", "getf-makespan")

    @pytest.mark.parametrize("fault,message", [
        ("malformed", "start must be a (18,) integer array, got shape (17,) of int64"),
        ("singular", "start is singular: column 4 has pivot 0 in row 1"),
        ("infeasible", "start is infeasible: row 8 has basic value -1 < -FEAS_TOL 1e-07"),
    ])
    def test_bad_lp_start_exit_2_one_line(self, example_file, monkeypatch, capsys, fault,
                                          message):
        # The full program (every row, as `reference_build_makespan_lp` writes
        # it) has 18 rows: 4 assignment, 4 processing, 4 edge, 2 machine-load
        # and 4 C_j <= T rows.  C_2, column 2 * 4 + 2, leaves its tight edge
        # row for its processing row, row 4 + 2.
        assert self.solve_with_bad_start(example_file, monkeypatch,
                                         reference_build_makespan_lp, fault,
                                         column=2 * 4 + 2, moved_to=4 + 2) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fault,message", [
        ("malformed", "start must be a (14,) integer array, got shape (13,) of int64"),
        ("infeasible", "start is infeasible: row 13 has basic value -2 < -FEAS_TOL 1e-07"),
    ])
    def test_bad_reduced_lp_start_exit_2_one_line(self, example_file, monkeypatch, capsys,
                                                  fault, message):
        # The program the pipeline builds has 14 rows: 4 assignment, 2
        # processing (sources 0 and 1), 4 edge, 2 machine-load and 2 C_j <= T
        # rows (sinks 2 and 3, rows 12 and 13).  T, column 2 * 4 + 4, is basic
        # in sink 3's row, as C_3 = 4 is the largest C_j; it moves to sink 2's
        # row, and C_2 = 2 < C_3.
        assert self.solve_with_bad_start(example_file, monkeypatch,
                                         grouping.build_makespan_lp, fault,
                                         column=2 * 4 + 4, moved_to=12) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_lp_point_exit_2_one_line(self, tmp_path, capsys, monkeypatch):
        # A former defect instance: it must solve and verify.  After one
        # corrupted tableau update the residual guard refuses the point, with
        # one line and exit 2.
        inst = tmp_path / "inst.json"
        assert run("generate", "--family", "random-dag", "--n", 10, "--m", 3, "--seed", 100057,
                   "--weights", "uniform", "-o", inst) == EXIT_OK
        sched = tmp_path / "sched.json"
        assert run("solve", inst, "--algo", "getf-weighted", "-o", sched) == EXIT_OK
        doc = json.loads(sched.read_text())
        assert verify_schedule(parse_instance(inst.read_text()), schedule_from_dict(doc)).feasible
        capsys.readouterr()
        monkeypatch.setattr(lp_solver, "_pivot", corrupt_first_pivot(lp_solver._pivot))
        assert run("solve", inst, "--algo", "getf-weighted") == EXIT_INFEASIBLE
        assert capsys.readouterr().err == ("error: simplex returned an infeasible point: "
                                           "row 122 has residual 8.70959 > FEAS_TOL 1e-07\n")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_instance_exit_2_one_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        argv = [command, bad] + ([bad] if command == "verify" else [])
        assert run(*argv) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
    def test_unreadable_instance_exit_2_one_line(self, example_file, tmp_path, capsys,
                                                 case, command):
        bad = tmp_path / "bad.json"
        bad.write_text(UNREADABLE_JSON[case])
        argv = [command, bad] + ([example_file] if command == "verify" else [])
        assert run(*argv) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed JSON: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("spec,algos", [
        (("--n", 1000, "--m", 8, "--density", 0.05, "--demand", "100000:400000", "--seed", 1),
         ["etf"]),
        (("--n", 300, "--m", 4, "--density", 0.05, "--demand", "1000000:4000000", "--seed", 3),
         ["etf", "sls", "getf-makespan"]),
    ])
    def test_times_past_1e7_verify(self, tmp_path, spec, algos):
        # Makespans of 2.5e7 and 1.2e8: start + demand/speed rounds in the
        # last bit of the finish, which an absolute duration check refused.
        inst = tmp_path / "inst.json"
        assert run("generate", *spec, "-o", inst) == EXIT_OK
        for algo in algos:
            sched = tmp_path / f"{algo}.json"
            assert run("solve", inst, "--algo", algo, "-o", sched) == EXIT_OK
            doc = json.loads(sched.read_text())
            assert doc["makespan"] > 1e7
            assert verify_schedule(parse_instance(inst.read_text()),
                                   schedule_from_dict(doc)).feasible

    @pytest.mark.parametrize("spec,algos,message", [
        (("--n", 6, "--data", "1e308:1e308", "--comm", "0.5:0.5"), ALGORITHMS,
         "times leave the float range: 4 x the serial horizon"),
        (("--n", 4, "--demand", "1e-320:1e-320", "--speed", "1e10:1e10"), ALGORITHMS,
         "times leave the float range: the smallest processing time"),
        (("--n", 4, "--demand", "1e-300:1e-300", "--speed", "1e10:1e10"), ["getf-weighted"],
         "demands cannot be normalized: the scale 1/"),
        (("--n", 6, "--demand", "1e307:1e307"), ALGORITHMS,
         "times leave the float range: 4 x the serial horizon"),
        (("--n", 6, "--demand", "1:1", "--speed", "1e308:1e308"), ["getf-weighted"],
         "the serial horizon of the weighted relaxation overflows"),
    ])
    def test_times_outside_the_float_range_exit_2_one_line(self, tmp_path, capsys, spec,
                                                           algos, message):
        inst = tmp_path / "inst.json"
        assert run("generate", "--m", 2, *spec, "-o", inst) == EXIT_OK
        for algo in algos:
            capsys.readouterr()
            assert run("solve", inst, "--algo", algo) == EXIT_INFEASIBLE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, err

    def test_lp_overflow_gives_no_numpy_warning(self, example_file, monkeypatch, capsys):
        # A program whose pivots overflow, as those of the weighted relaxation
        # of `getf generate --n 3 --m 2 --demand 1e300:1e300` do (its 1000
        # deadline intervals make that solve too slow for this suite): the
        # residual guard refuses it, and numpy prints nothing.
        lp = lp_solver.LinearProgram(
            [1e200], [[1e-300], [1e-300], [1.0]], [lp_solver.LE, lp_solver.EQ, lp_solver.EQ],
            [1e200, 1e200, 1e300])
        monkeypatch.setattr(grouping, "build_weighted_lp", lambda inst, groups: lp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("solve", example_file, "--algo", "getf-weighted") == EXIT_INFEASIBLE
        assert capsys.readouterr().err == ("error: simplex returned an infeasible point: "
                                           "row 1 has residual 1e+200 > FEAS_TOL 1e-07\n")


# Every instance `getf generate` writes over this grid solves, or is refused
# in one line: n=6, (demand, speed, data, comm) ranges from 1e-320 to 1e308.
GENERATOR_GRID = [
    ("1:4", "1:2", "0:4", "1:4"),
    ("1e6:4e6", "1:2", "0:4", "1:4"),                   # times past 1e7
    ("1e-5:1e-5", "1:2", "0:4", "1:4"),                 # demands scaled by 1e5
    ("1e-320:1e-320", "1e10:1e10", "0:4", "1:4"),       # processing times round to 0
    ("1e-300:1e-300", "1e10:1e10", "0:4", "1:4"),       # the scale overflows
    ("1:4", "1e307:1e307", "0:4", "1:4"),
    ("1:1", "1e308:1e308", "0:4", "1:4"),               # the normalized horizon overflows
    ("1e307:1e307", "1:2", "0:4", "1:4"),               # the serial horizon overflows
    ("1e307:1e307", "1e307:1e307", "0:4", "1:4"),
    ("1e-320:1e-320", "1e-320:1e-320", "1e-320:1e-320", "1e-320:1e-320"),
    ("1:4", "1:2", "1e308:1e308", "0.5:0.5"),           # transfer times overflow
    ("1:4", "1:2", "0:4", "1e-320:1e-320"),
    ("1:4", "1:2", "1e-320:1e-320", "1e307:1e307"),
]


@pytest.mark.parametrize("family", ["layered", "random-dag"])
@pytest.mark.parametrize("m", [2, 3])
def test_generated_instances_solve_or_are_refused_in_one_line(tmp_path, capsys, family, m):
    for k, (demand, speed, data, comm) in enumerate(GENERATOR_GRID):
        inst = tmp_path / f"inst{k}.json"
        assert run("generate", "--family", family, "--n", 6, "--m", m, "--demand", demand,
                   "--speed", speed, "--data", data, "--comm", comm, "-o", inst) == EXIT_OK
        for algo in ALGORITHMS:
            sched = tmp_path / "sched.json"
            sched.unlink(missing_ok=True)
            capsys.readouterr()
            code = run("solve", inst, "--algo", algo, "-o", sched)
            err = capsys.readouterr().err
            case = (family, m, demand, speed, data, comm, algo, code, err)
            assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_BOUND), case
            if code == EXIT_OK:
                assert verify_schedule(parse_instance(inst.read_text()),
                                       schedule_from_dict(json.loads(sched.read_text()))).feasible
            if code == EXIT_INFEASIBLE:
                assert err.startswith("error: ") and err.count("\n") == 1, case
                assert "schedule failed verification" not in err, case


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

    def test_end_is_read_as_written(self, tmp_path, capsys):
        # start + (end - start) is 4.8e-7 past this end, beyond the 1e-9
        # precedence slack, so a finish rebuilt from the duration would
        # make task 1 start before its data arrives.
        start, end = 731452533.0626447, 4093347528.6456494
        assert start + (end - start) != end
        inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
        inst.write_text(json.dumps({
            "tasks": [{"id": 0, "demand": end - start}, {"id": 1, "demand": 1.0}],
            "edges": [{"src": 0, "dst": 1, "data": 0.0}],
            "machines": [{"id": 0, "speed": 1.0}, {"id": 1, "speed": 1.0}],
            "comm_speed": [[1.0, 1.0], [1.0, 1.0]]}))
        sched.write_text(json.dumps({"assignments": [
            {"task": 0, "machine": 0, "start": start, "end": end},
            {"task": 1, "machine": 1, "start": end, "end": end + 1.0}]}))
        assert run("verify", inst, sched) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"feasible": True, "violations": []}

    def test_tampered_schedule_exit_2(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "-o", sched) == EXIT_OK
        doc = json.loads(sched.read_text())
        doc["assignments"][0]["start"] = -3.0  # break duration and ordering
        sched.write_text(json.dumps(doc))
        assert run("verify", example_file, sched) == EXIT_INFEASIBLE

    def test_late_schedule_breaks_the_separation_exit_3(self, example_file, tmp_path):
        # Every time shifted by +100 keeps the ETF schedule feasible, but the
        # makespan now exceeds P + sum_D + C along any terminal chain.
        def shift(doc):
            for entry in doc["assignments"]:
                entry["start"] += 100.0
                entry["end"] += 100.0
        sched = self.tampered(example_file, tmp_path, shift)
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "--algo", "etf", "-o", out) == EXIT_BOUND
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True and doc["group_consistent"] is True
        assert doc["separation"]["inequalities"][0]["pass"] is False

    def test_feasible_sls_schedule_over_the_separation_exit_0(self, tmp_path):
        # The decomposition is a theorem for the greedy schedulers only: this
        # feasible SLS schedule exceeds it (96.46 > 95.87), which verify
        # reports for sls without failing, and fails as an ETF schedule.
        inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
        assert run("generate", "--n", 400, "--m", 8, "--density", 0.05, "--seed", 1,
                   "-o", inst) == EXIT_OK
        assert run("solve", inst, "--algo", "sls", "-o", sched) == EXIT_OK
        out = tmp_path / "verify.json"
        for algo, code in (("sls", EXIT_OK), ("etf", EXIT_BOUND)):
            assert run("verify", inst, sched, "--algo", algo, "-o", out) == code
            doc = json.loads(out.read_text())
            assert doc["feasible"] is True and doc["group_consistent"] is True
            assert doc["separation"]["inequalities"][0]["pass"] is False

    def test_with_pipeline_report(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "getf-makespan", "-o", sched) == EXIT_OK
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "--algo", "getf-makespan",
                   "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["group_consistent"] is True
        assert doc["separation"]["inequalities"][0]["pass"] is True

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_algo_derives_bands_without_scheduling(self, example_file, tmp_path,
                                                   monkeypatch, algo):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", algo, "-o", sched) == EXIT_OK

        def no_scheduler(*args):
            raise AssertionError("verify --algo ran the scheduler")
        monkeypatch.setattr(scheduler, "getf_schedule", no_scheduler)
        monkeypatch.setattr(scheduler, "sls_schedule", no_scheduler)
        out = tmp_path / "verify.json"
        assert run("verify", example_file, sched, "--algo", algo, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True and doc["group_consistent"] is True

    def test_tie_is_a_usage_error(self, example_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        assert run("verify", example_file, sched, "--algo", "etf",
                   "--tie", "by-index") == EXIT_USAGE

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

    @pytest.mark.parametrize("key,value", [("start", "1.0"), ("machine", True)])
    def test_non_number_value_is_malformed(self, example_file, tmp_path, capsys, key, value):
        sched = self.tampered(example_file, tmp_path,
                              lambda doc: doc["assignments"][0].update({key: value}))
        for argv in (("verify", example_file, sched), ("gantt", sched)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err == (
                f"error: cannot read schedule: schedule values must be numbers: got {value!r}\n")

    # Task 1 is assignments[1], on machine 1, and iteration_order[1].  int()
    # would read 1.7 as task 1, 1.4 as machine 1 and 1.5 as task 1, and
    # overflow on an infinite machine.
    @pytest.mark.parametrize("entry,listed,value", [
        ({"task": 1.7}, 1.7, "task ids must be integers: got 1.7"),
        ({"machine": 1.4}, 1, "machine ids must be integers: got 1.4"),
        ({"machine": math.inf}, 1, "machine ids must be integers: got inf"),
        ({}, 1.5, "iteration_order ids must be integers: got 1.5"),
    ], ids=["fractional-task", "fractional-machine", "infinite-machine",
            "fractional-iteration-order"])
    def test_non_integer_id_is_malformed(self, example_file, tmp_path, capsys, entry, listed,
                                         value):
        def edit(doc):
            doc["assignments"][1].update(entry)
            doc["iteration_order"][1] = listed
        sched = self.tampered(example_file, tmp_path, edit)
        for argv in (("verify", example_file, sched), ("gantt", sched)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err == f"error: cannot read schedule: {value}\n"

    # Each edit returns the document to write; the example has tasks 0..3.
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["iteration_order"].append(9) or doc,
         "iteration_order names task 9, which has no assignment"),
        (lambda doc: [doc],
         "schedule document must be a JSON object with an 'assignments' list"),
        (lambda doc: {**doc, "assignments": [{"task": 0, "machine": 0, "end": 1.0}]},
         "assignment entries need 'task', 'machine', 'start' and 'end'"),
    ], ids=["unassigned-iteration-order-task", "list-document", "entry-without-start"])
    def test_malformed_document_named(self, example_file, tmp_path, capsys, edit, message):
        sched = tmp_path / "sched.json"
        assert run("solve", example_file, "--algo", "etf", "-o", sched) == EXIT_OK
        sched.write_text(json.dumps(edit(json.loads(sched.read_text()))))
        for argv in (("verify", example_file, sched), ("gantt", sched)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err == f"error: cannot read schedule: {message}\n"

    @pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
    def test_unreadable_schedule_exit_1_one_line(self, example_file, tmp_path, capsys, case):
        bad = tmp_path / "sched.json"
        bad.write_text(UNREADABLE_JSON[case])
        for argv in (("verify", example_file, bad), ("gantt", bad)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read schedule: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [5, 0, False, None], ids=["int", "zero", "false", "null"])
    def test_iteration_order_must_be_a_list(self, example_file, tmp_path, capsys, value):
        sched = self.tampered(example_file, tmp_path,
                              lambda doc: doc.update(iteration_order=value))
        for argv in (("verify", example_file, sched), ("gantt", sched)):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err == (
                "error: cannot read schedule: 'iteration_order' must be a list of task ids\n")

    def test_absent_iteration_order_reads_start_order(self, example_file, tmp_path):
        sched = self.tampered(example_file, tmp_path, lambda doc: doc.pop("iteration_order"))
        doc = json.loads(sched.read_text())
        assert schedule_from_dict(doc).iteration_order == [
            e["task"] for e in sorted(doc["assignments"], key=lambda e: e["start"])]

    @pytest.mark.parametrize("algo,move,consistent", [
        ("etf", "early-start", True),
        ("getf-makespan", "outside-band", False),
    ])
    def test_group_consistent_reads_bands_only(self, tmp_path, algo, move, consistent):
        """An infeasible schedule is still band-consistent when every task
        sits on a machine of its band; etf's one band holds every machine."""
        inst, sched, out = tmp_path / "inst.json", tmp_path / "sched.json", tmp_path / "v.json"
        if move == "early-start":
            assert run("generate", "--family", "layered", "--n", 6, "--m", 2, "--seed", 3,
                       "-o", inst) == EXIT_OK
        else:
            assert run("generate", *TestGoldenOutputs.CASES["layered"], "-o", inst) == EXIT_OK
        assert run("solve", inst, "--algo", algo, "-o", sched) == EXIT_OK
        doc = json.loads(sched.read_text())
        if move == "early-start":
            last = doc["assignments"][-1]
            last.update(start=0.0, end=last["end"] - last["start"])
        else:
            f = pipeline.assign(parse_instance(inst.read_text()), algo)
            entry = doc["assignments"][0]
            entry["machine"] = min(set(range(8)) - set(f.machines_for(entry["task"])))
        sched.write_text(json.dumps(doc))
        assert run("verify", inst, sched, "--algo", algo, "-o", out) == EXIT_INFEASIBLE
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        assert report["group_consistent"] is consistent


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

    @staticmethod
    def strip_runtime(text):
        rows = [r.split(",") for r in text.strip().splitlines()]
        return [r[:9] + r[10:] for r in rows]

    def test_deterministic_modulo_runtime(self, example_file):
        a = compare_batch(str(example_file.parent), ["getf-makespan", "etf"], [3, 4])
        b = compare_batch(str(example_file.parent), ["getf-makespan", "etf"], [3, 4])
        assert self.strip_runtime(a) == self.strip_runtime(b)

    def test_repeated_algorithm_runs_once(self, example_file, tmp_path):
        for algos in ("etf", "etf,etf"):
            assert run("compare", example_file.parent, "--algos", algos,
                       "-o", tmp_path / f"{algos}.csv") == EXIT_OK
        once, twice = ((tmp_path / f"{a}.csv").read_text() for a in ("etf", "etf,etf"))
        assert self.strip_runtime(twice) == self.strip_runtime(once)

    def test_repeated_seed_runs_once(self, example_file, tmp_path):
        for seeds in ("1,2", "1,1,2"):
            assert run("compare", example_file.parent, "--algos", "etf,sls", "--seeds", seeds,
                       "-o", tmp_path / f"{seeds}.csv") == EXIT_OK
        once, repeated = ((tmp_path / f"{s}.csv").read_text() for s in ("1,2", "1,1,2"))
        assert self.strip_runtime(repeated) == self.strip_runtime(once)

    def test_unknown_algorithm_usage_error(self, example_file, capsys):
        assert run("compare", example_file.parent, "--algos", "lpt") == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown algorithm 'lpt'\n"


def test_compare_loads_each_file_once(example_file, monkeypatch):
    (example_file.parent / "cyclic.json").write_text(json.dumps({
        "tasks": [{"id": 0, "demand": 1.0}, {"id": 1, "demand": 1.0}],
        "edges": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
        "machines": [{"id": 0, "speed": 1.0}], "comm_speed": [[1.0]],
    }))
    loaded = []
    load = cli.model.load_instance
    monkeypatch.setattr(cli.model, "load_instance", lambda path: load(loaded.append(path) or path))
    rows = [line.split(",", 10) for line in
            compare_batch(str(example_file.parent), ["getf-makespan", "etf"], [3, 4]).splitlines()]
    assert sorted(Path(p).name for p in loaded) == ["cyclic.json", "example.json"]
    failed = [r for r in rows if r[0] == "cyclic.json"]
    # One error row per (algorithm, tie), each with the load's message and
    # no runtime; the rows that ran time pipeline.run.
    assert len(failed) == 4 and len({r[10] for r in failed}) == 1 and "cycle" in failed[0][10]
    assert all(r[9] == "" for r in failed)
    assert all(float(r[9]) >= 0 for r in rows if r[0] == "example.json")


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


def test_parser_is_built_once_and_reused(example_file, capsys):
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == cli.build_parser().format_help()
    errors = []
    for _ in range(2):
        assert run("solve", example_file, "--algo", "no-such-algo") == EXIT_USAGE
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("usage: getf solve")
    assert run("solve", example_file, "--algo", "etf") == EXIT_OK


class TestGoldenOutputs:
    """SHA-256 of the bytes ``getf generate`` and ``getf solve`` write on three
    seeded instances.  The digests were taken before the instance and
    schedule writers moved off ``json.dumps(..., indent=2)``, so they pin the
    on-disk layout as well as the schedules."""

    CASES = {
        "layered": ("--family", "layered", "--n", 30, "--m", 8, "--seed", 11,
                    "--speed", "0.05:1"),
        "fork-join": ("--family", "fork-join", "--n", 25, "--m", 3, "--seed", 12,
                      "--weights", "uniform"),
        "random-dag": ("--family", "random-dag", "--n", 24, "--m", 5, "--seed", 13,
                       "--self-comm", "infinite"),
    }
    DIGESTS = {
        ("layered", "generate"): "4f818ccf877b3e6b84e3a046314dfc52c04d026ce5b078345d274819dde76101",
        ("layered", "etf"): "758bd6bcac2002485a82d04737edc096bbb398c8c8490dacdd765df23d2e85a3",
        ("layered", "sls"): "7fdf5bcb2f8e060e18926237edc8522871bc382e2d93a7283fe7ebc6b1b79d06",
        ("layered", "getf-makespan"): "8704af177bf4f75ddb3bff87c672aa402407a0a4661402bedbed465fd0d83a11",
        ("fork-join", "generate"): "8b728a0a5832e02b9fb5d3f39fc98742324a742b001b30992d1ae128b529868c",
        ("fork-join", "etf"): "83103f4375874da4ddca574743253e0b6edec09f054d5668348383f5484c01bf",
        ("fork-join", "sls"): "a1d0c94cf2f00b7c54d9410110b5779cf9ce113060c8672519976daf9cd82329",
        ("fork-join", "getf-makespan"): "046674fa445d24ce1c489456c630226b799298cf6edab5716814acb33408455a",
        ("random-dag", "generate"): "41d8f5ea3c689396d4a2d50d2dbbfce04c677681958cbee5718f298e5e8770be",
        ("random-dag", "etf"): "e0ede5f707fe55609367e204d6edea4a79bb3d530a2a4dbe58093cd870ab65b4",
        ("random-dag", "sls"): "dc47b37eb679af1f688aab18439ddfabaa379200a29734482d4c5c94cda617b8",
        ("random-dag", "getf-makespan"): "595c2a71dd393cc455d18991a5733d7ad898d0957cc27e2279dd7f9737f21047",
    }

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_output_digests(self, tmp_path, family):
        inst = tmp_path / "inst.json"
        assert run("generate", *self.CASES[family], "-o", inst) == EXIT_OK
        digests = {(family, "generate"): hashlib.sha256(inst.read_bytes()).hexdigest()}
        for algo in ("etf", "sls", "getf-makespan"):
            out = tmp_path / f"{algo}.json"
            assert run("solve", inst, "--algo", algo, "-o", out) == EXIT_OK
            digests[family, algo] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {k: v for k, v in self.DIGESTS.items() if k[0] == family}


class TestGoldenReports:
    """SHA-256 of ``getf verify --algo`` reports, and of the runs behind them,
    pinned before the band constructor was shared between
    ``partition_machines`` and ``trivial_assignment``.  The ``--gamma 1.01``
    case has K = 209 bands, most of them empty, and one ``D_k`` per band."""

    WEIGHTED = ("--family", "random-dag", "--n", 10, "--m", 3, "--seed", 14,
                "--weights", "uniform", "--speed", "0.2:1")
    DIGESTS = {
        ("layered", "verify"): "3da8d1c823c5fb49ea42c156e107974f0670f38bc6e619186f378fcf0f2a31c6",
        ("fork-join", "verify"): "cf5ffa32bb91eae535b390ed258d87a6b9bc0f09ec43614d764f4b8b957fca4b",
        ("random-dag", "verify"): "ae5fd8d600f5b0d2cdc866d6a69fad2d22d75fcce338a75abb27cfd1564e86f4",
        ("layered-gamma-1.01", "solve"): "0d32db33229e17ffef9ca12e0f79b9fc285d3718cc1cf88b0e5cdf16200510a6",
        ("layered-gamma-1.01", "verify"): "3b005ed774f3e8361641d3a25b40d13e41eb85ca1205e206540f599f1ed9f0a1",
        ("weighted", "generate"): "cc1b8d7c76ae8e2611b26a5ea6bdb26461d08a49680dc02a995db6e0e4ebd791",
        ("weighted", "solve"): "f32bc518ebb71b2e511c820d48824f31045accc88063ac4e90133a94346f1f13",
        ("weighted", "verify"): "6d8cfcd2e2c8a61fea3bfde2d0733dc095d13e8eb079a57294bff892a0774bbf",
    }

    @staticmethod
    def digests(tmp_path, case, generate, algo, *options) -> dict:
        inst, sched, report = (tmp_path / f"{case}.{kind}.json"
                               for kind in ("inst", "sched", "report"))
        assert run("generate", *generate, "-o", inst) == EXIT_OK
        assert run("solve", inst, "--algo", algo, *options, "-o", sched) == EXIT_OK
        assert run("verify", inst, sched, "--algo", algo, *options, "-o", report) == EXIT_OK
        return {(case, kind): hashlib.sha256(path.read_bytes()).hexdigest()
                for kind, path in (("generate", inst), ("solve", sched), ("verify", report))}

    def test_report_digests(self, tmp_path):
        found = {}
        for family, generate in TestGoldenOutputs.CASES.items():
            found.update(self.digests(tmp_path, family, generate, "getf-makespan"))
        found.update(self.digests(tmp_path, "layered-gamma-1.01",
                                  TestGoldenOutputs.CASES["layered"], "getf-makespan",
                                  "--gamma", 1.01))
        found.update(self.digests(tmp_path, "weighted", self.WEIGHTED, "getf-weighted"))
        assert {k: found[k] for k in self.DIGESTS} == self.DIGESTS


class TestGoldenTheoremReports:
    """SHA-256 of the ``to_json()`` of the reports ``getf verify`` does not
    write: ``makespan_theorem_report`` on each ``TestGoldenOutputs`` case under
    getf-makespan, ``weighted_theorem_report`` on ``TestGoldenReports.WEIGHTED``,
    and ``identical_report`` on a unit-speed ETF schedule against the
    oracle's zero-communication optimum.  The chain-table tests compare these
    reports with references that share their link-cost code, so only a pin
    sees a change of summation order there."""

    IDENTICAL = ("--family", "fork-join", "--n", 6, "--m", 3, "--seed", 17,
                 "--speed", "1:1")
    DIGESTS = {
        "layered": "ac9a31681c36047b440a0861675af9c416248ecad10cb39cf6ade0ebe1d42b31",
        "fork-join": "18ef205f247d93bbc8d0ed162742b0c0c0471bb069e1b43e2e748f5084cdf1fa",
        "random-dag": "2dc79cd6b889bc84355bbe0c6db57f28011ab1c1b1682da343875b46b19c0e09",
        "weighted": "bc4b9e52070074fc458e05c3390ea6b233a7754e0341ad81928afbf34aa06d26",
        "identical": "69a1f86ae149fd8a3a997e5ce0fc0591d290e6971f83a167fcfa24dded90fd19",
    }

    @staticmethod
    def generate(tmp_path, case, options) -> model.Instance:
        path = tmp_path / f"{case}.json"
        assert run("generate", *options, "-o", path) == EXIT_OK
        return model.load_instance(str(path))

    def test_report_digests(self, tmp_path):
        reports = {}
        for case, options in TestGoldenOutputs.CASES.items():
            inst = self.generate(tmp_path, case, options)
            groups = grouping.partition_machines(inst.platform)
            frac = grouping.solve_makespan_relaxation(inst, groups)
            f = grouping.assign_groups_makespan(frac, groups)
            s = scheduler.getf_schedule(inst, f, scheduler.TieBreak.by_index())
            reports[case] = analysis.makespan_theorem_report(s, inst, f, groups, frac.T)

        inst, _ = model.normalize_demands(
            self.generate(tmp_path, "weighted", TestGoldenReports.WEIGHTED))
        groups = grouping.partition_machines(inst.platform)
        wsol = grouping.solve_weighted_relaxation(inst, groups)
        f = grouping.assign_groups_weighted(wsol, groups)
        s = scheduler.getf_schedule(inst, f, scheduler.TieBreak.by_index())
        reports["weighted"] = analysis.weighted_theorem_report(s, inst, f, groups, wsol)

        inst = self.generate(tmp_path, "identical", self.IDENTICAL)
        opt, _ = oracle.brute_force_schedule(inst, ignore_comm=True)
        s = scheduler.etf_schedule(inst, scheduler.TieBreak.by_index())
        reports["identical"] = analysis.identical_report(s, inst, opt)

        assert all(rep.passed for rep in reports.values())
        assert {case: hashlib.sha256(rep.to_json().encode()).hexdigest()
                for case, rep in reports.items()} == self.DIGESTS


@pytest.mark.parametrize("command", ["generate", "solve", "verify", "compare", "gantt"])
def test_closed_stdout_exit_1_one_line(tmp_path, command):
    """A reader that closes the pipe early gets exit 1 and one error line,
    with no traceback at the write or at interpreter exit."""
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    generate = ["generate", "--n", "12", "--m", "3", "--seed", "5"]
    assert run(*generate, "-o", inst) == EXIT_OK
    assert run("solve", inst, "--algo", "etf", "-o", sched) == EXIT_OK
    argv = {"generate": generate, "solve": ["solve", inst, "--algo", "etf"],
            "verify": ["verify", inst, sched], "compare": ["compare", tmp_path, "--algos", "etf"],
            "gantt": ["gantt", sched]}[command]
    src = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                        os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "getf", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == EXIT_USAGE, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
