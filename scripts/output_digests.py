"""SHA-256 digests of getf's outputs over the benchmark's seeded instance sets.

Run from anywhere:

    python3 scripts/output_digests.py [--src DIR]

Prints one line per output family:

  certify-large  the 32 seed-1 certify operations: violations, separation
                 report, per-task chain values and schedule JSON;
  engine         ``getf solve --algo etf`` under the four tie rules on the
                 sets of ``ENGINE_SETS``, two seed-1 instances each at the
                 generator's default ranges, where many ready tasks wait
                 for data: fork_join n=1000 at density 0.3, random_dag n=400
                 at density 0.05, layered n=1000 with m=32, and layered
                 n=2000 with m=8: output file, stdout, stderr and exit code;
  etf-large      the 16 seed-1 ``getf solve --algo etf`` runs under each of
                 the tie rules by-index, random:7, largest-demand and
                 most-succ: output file, stdout, stderr and exit code;
  lp-solves      the LP solves of the sets below: the programs of the 480
                 seed 1-10 ``makespan-lp`` instances as built, the same
                 programs with ``start=None``, and the weighted programs of
                 the 96 seed-1 ``weighted-lp`` instances: each solution's
                 status, ``x`` bytes, objective ``repr``, pivots, degenerate
                 pivots and ``max_residual``;
  makespan-lp    the 480 seed 1-10 ``getf solve --algo getf-makespan`` runs:
                 output file, stdout, stderr and exit code;
  read-back      the schedules of the 16 seed-1 ``etf-large`` solves
                 (by-index) and the 48 seed-1 ``makespan-lp`` solves, each
                 read back by ``getf verify <instance> <schedule> --algo
                 <algo>`` and ``getf gantt <schedule>``: stdout, stderr and
                 exit code of both;
  refusals       ``getf solve --algo etf`` on each malformed instance
                 document of ``INSTANCE_EDITS`` and ``UNREADABLE_TEXTS``, and
                 ``getf verify <instance> <schedule>`` and ``getf gantt
                 <schedule>`` on each malformed schedule document of
                 ``SCHEDULE_EDITS`` and ``UNREADABLE_TEXTS``: stdout, stderr
                 (the work directory spelled ``<dir>``) and exit code;
  weighted-lp    the 96 seed-1 ``getf solve --algo getf-weighted`` runs
                 (by-index): output file, stdout, stderr and exit code.

The workloads and their instances come from ``perfbench/harness.py``; the
engine sets are workloads of the same shape, run on no benchmark.
``--src`` names the source tree getf is imported from (default: ``src/``
of this checkout), so two trees give byte-identical outputs exactly when
one run per tree prints the same lines.
"""

import os

# One BLAS thread, as the benchmark runs: pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import operator  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402

def certify_output(g, w, case, tie) -> list[str]:
    feas, report, chain, text = harness.call_op(g, w, case)
    return [json.dumps(feas.violations), report.to_json(), json.dumps(chain), text]


def cli_output(g, argv: list[str]) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = g.cli.main(argv)
    return [out.getvalue(), err.getvalue(), str(code)]


def solve_output(g, w, case, tie: str) -> list[str]:
    ran = cli_output(g, ["solve", case.path, "--algo", w.algo, "--tie", tie, "-o", case.out])
    path = Path(case.out)
    written = path.read_text(encoding="utf-8") if path.exists() else "<no output file>"
    path.unlink(missing_ok=True)
    return [written, *ran]


def lp_output(g, w, case, start: str) -> list[str]:
    """The solution of the program the workload's algorithm builds for the
    case, with its start as built or, for start "none", without one."""
    inst = case.inst
    if w.algo == "getf-weighted":
        inst, _ = g.model.normalize_demands(inst)
        build = g.grouping.build_weighted_lp
    else:
        build = g.grouping.build_makespan_lp
    lp = build(inst, g.grouping.partition_machines(inst.platform))
    if start == "none":
        lp = dataclasses.replace(lp, start=None)
    sol = g.lp_solver.solve_lp(lp)
    x = "" if sol.x is None else sol.x.tobytes().hex()
    return [sol.status, x, repr(sol.objective), str(sol.pivots), str(sol.degenerate_pivots),
            repr(sol.max_residual)]


def read_back_output(g, w, case, tie: str) -> list[str]:
    cli_output(g, ["solve", case.path, "--algo", w.algo, "--tie", tie, "-o", case.out])
    parts = (cli_output(g, ["verify", case.path, case.out, "--algo", w.algo])
             + cli_output(g, ["gantt", case.out]))
    Path(case.out).unlink(missing_ok=True)
    return parts


# The instance the refusals family edits: four tasks on two machines.
REFUSAL_INSTANCE = {
    "tasks": [{"id": 0, "demand": 1.0, "weight": 0.0}, {"id": 1, "demand": 1.0, "weight": 0.0},
              {"id": 2, "demand": 1.0, "weight": 0.0}, {"id": 3, "demand": 3.0, "weight": 1.0}],
    "edges": [{"src": 0, "dst": 2, "data": 2.0}, {"src": 0, "dst": 3, "data": 2.0},
              {"src": 1, "dst": 2, "data": 2.0}, {"src": 1, "dst": 3, "data": 1.0}],
    "machines": [{"id": 0, "speed": 1.0}, {"id": 1, "speed": 1.0}],
    "comm_speed": [[2.0, 1.0], [1.0, 2.0]],
}
DELETE = object()
FIELD_VALUES = ("1", True, None, [1], {"a": 1})  # JSON values that are no number

# (path, value) edits: the item at the path set to the value, or deleted.
INSTANCE_EDITS = [
    ((), []), (("tasks",), 5), (("tasks",), []), (("machines",), []), (("comm_speed",), 5),
    (("comm_speed", 0), 5), (("comm_speed", 0), [2.0]), (("comm_speed", 1), DELETE),
    *(((key,), DELETE) for key in REFUSAL_INSTANCE),
    *((("tasks", 1, key), DELETE) for key in ("id", "demand")),
    *((("edges", 2, key), DELETE) for key in ("src", "dst")),
    *((("machines", 1, key), DELETE) for key in ("id", "speed")),
    *(((section, 1), value) for section in ("tasks", "edges", "machines")
      for value in ([1, 1.0], "entry", None, 2.0)),
    *(((section, 1, key), value) for section, key in (
        ("tasks", "id"), ("tasks", "demand"), ("tasks", "weight"), ("edges", "src"),
        ("edges", "dst"), ("edges", "data"), ("machines", "id"), ("machines", "speed"))
      for value in (*FIELD_VALUES, math.nan, math.inf, -1.0, 0.0, 1.5, 7, 10 ** 400)),
    *((("comm_speed", 0, 1), value) for value in (*FIELD_VALUES, math.nan, -1.0, 0.0, 10 ** 400)),
    (("edges",), [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}]),
]
# The schedule's fields, each set to a value that is no finite time or
# integer id; an integer beyond the float range is left out of the times.
SCHEDULE_EDITS = [
    ((), []), (("assignments",), DELETE), (("assignments",), {}), (("iteration_order",), 5),
    (("iteration_order",), DELETE), (("iteration_order", 0), 0.5), (("iteration_order", 1), 0),
    (("iteration_order", 0), 9), (("assignments", 1, "task"), 0),
    *((("assignments", 1), value) for value in ([1, 1, 1.0, 2.0], "entry", None)),
    *((("assignments", 1, key), value) for key in ("task", "machine", "start", "end")
      for value in (DELETE, *FIELD_VALUES, math.nan, math.inf, -math.inf, 1.5)),
    *((("assignments", 1, key), value) for key in ("task", "machine")
      for value in (10 ** 400, -10 ** 400)),
]
UNREADABLE_TEXTS = ["", "{", "[" * 100_000, '{"tasks": ' + "9" * 5000 + "}"]


def edited(doc, path, value):
    """A copy of ``doc`` with the item at ``path`` set to ``value``, or
    deleted for DELETE; the empty path replaces the whole document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *outer, last = path
    container = functools.reduce(operator.getitem, outer, doc)
    if value is DELETE:
        del container[last]
    else:
        container[last] = value
    return doc


def refusal_parts(g, workdir: Path):
    """Each malformed instance document through ``getf solve``, then each
    malformed schedule document through ``getf verify`` and ``getf gantt``."""
    def run(*argv):
        return [part.replace(str(workdir), "<dir>") for part in cli_output(g, list(argv))]
    inst, doc, sched = (str(workdir / name) for name in ("inst.json", "doc.json", "sched.json"))
    texts = [json.dumps(edited(REFUSAL_INSTANCE, *e)) for e in INSTANCE_EDITS]
    for text in texts + UNREADABLE_TEXTS:
        Path(doc).write_text(text, encoding="utf-8")
        yield from run("solve", doc, "--algo", "etf")
    Path(inst).write_text(json.dumps(REFUSAL_INSTANCE), encoding="utf-8")
    run("solve", inst, "--algo", "etf", "-o", sched)
    schedule = json.loads(Path(sched).read_text(encoding="utf-8"))
    texts = [json.dumps(edited(schedule, *e)) for e in SCHEDULE_EDITS]
    for text in texts + UNREADABLE_TEXTS:
        Path(doc).write_text(text, encoding="utf-8")
        yield from run("verify", inst, doc) + run("gantt", doc)


TIE_RULES = ("by-index", "random:7", "largest-demand", "most-succ")
ENGINE_SETS = {w.name: w for w in (
    harness.Workload("fork-join", "etf", "fork_join", 1000, 8, 0.3, "zero", 2, "makespan"),
    harness.Workload("random-dag", "etf", "random_dag", 400, 8, 0.05, "zero", 2, "makespan"),
    harness.Workload("layered-m32", "etf", "layered", 1000, 32, 0.05, "zero", 2, "makespan"),
    harness.Workload("layered-n2000", "etf", "layered", 2000, 8, 0.05, "zero", 2, "makespan"),
)}


def cases(output, *runs):
    """The family that runs ``output`` on the cases of ``runs``, (workload
    or engine set, seeds, variants) triples, each case once per variant: a
    tie rule (certify-large has none), or for lp-solves the start."""
    def parts(g, workdir: Path):
        for name, seeds, variants in runs:
            w = harness.WORKLOADS.get(name) or ENGINE_SETS[name]
            for seed in seeds:
                insts = [g.generator.generate_instance(spec) for spec in harness.specs(g, w, seed)]
                for case in harness.write_cases(g, insts, workdir, f"{name}-{seed}-"):
                    for variant in variants:
                        yield from output(g, w, case, variant)
    return parts


# family -> the parts it hashes, given the package and a work directory.
FAMILIES = {
    "certify-large": cases(certify_output, ("certify-large", (1,), (None,))),
    "engine": cases(solve_output, *((name, (1,), TIE_RULES) for name in ENGINE_SETS)),
    "etf-large": cases(solve_output, ("etf-large", (1,), TIE_RULES)),
    "lp-solves": cases(lp_output, ("makespan-lp", range(1, 11), ("as built", "none")),
                       ("weighted-lp", (1,), ("as built",))),
    "makespan-lp": cases(solve_output, ("makespan-lp", range(1, 11), ("by-index",))),
    "read-back": cases(read_back_output, ("etf-large", (1,), ("by-index",)),
                       ("makespan-lp", (1,), ("by-index",))),
    "refusals": refusal_parts,
    "weighted-lp": cases(solve_output, ("weighted-lp", (1,), ("by-index",))),
}


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding the getf package (default: src/)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "getf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no getf package under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    g = harness.import_getf(src)
    with tempfile.TemporaryDirectory() as tmp:
        for name, parts in FAMILIES.items():
            print(f"{name} {digest(parts(g, Path(tmp)))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
