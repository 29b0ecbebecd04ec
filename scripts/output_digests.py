"""SHA-256 digests of getf's outputs over the benchmark's seeded instance sets.

Run from anywhere:

    python3 scripts/output_digests.py [--src DIR]

Prints one line per output family:

  certify-large  the 32 seed-1 certify operations: violations, separation
                 report, per-task chain values and schedule JSON;
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
  weighted-lp    the 96 seed-1 ``getf solve --algo getf-weighted`` runs
                 (by-index): output file, stdout, stderr and exit code.

The workloads and their instances come from ``perfbench/harness.py``.
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
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
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


# family -> (output, its (workload, seeds, variants) runs), each case run once
# per variant: a tie rule (certify-large has none), or for lp-solves the start.
FAMILIES = {
    "certify-large": (certify_output, (("certify-large", (1,), (None,)),)),
    "etf-large": (solve_output, (
        ("etf-large", (1,), ("by-index", "random:7", "largest-demand", "most-succ")),)),
    "lp-solves": (lp_output, (("makespan-lp", range(1, 11), ("as built", "none")),
                              ("weighted-lp", (1,), ("as built",)))),
    "makespan-lp": (solve_output, (("makespan-lp", range(1, 11), ("by-index",)),)),
    "read-back": (read_back_output, (("etf-large", (1,), ("by-index",)),
                                     ("makespan-lp", (1,), ("by-index",)))),
    "weighted-lp": (solve_output, (("weighted-lp", (1,), ("by-index",)),)),
}


def digest(g, output, runs, workdir: Path) -> str:
    h = hashlib.sha256()
    for name, seeds, variants in runs:
        w = harness.WORKLOADS[name]
        for seed in seeds:
            insts = [g.generator.generate_instance(spec) for spec in harness.specs(g, w, seed)]
            for case in harness.write_cases(g, insts, workdir, f"{name}-{seed}-"):
                for variant in variants:
                    for part in output(g, w, case, variant):
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
        for name, (output, runs) in FAMILIES.items():
            print(f"{name} {digest(g, output, runs, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
