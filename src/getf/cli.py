"""Command-line surface: generate, solve, verify, compare, gantt.

Exit codes: 0 success, 1 usage error (including an unreadable input, an
unwritable output path or a closed standard output), 2 infeasible input,
validation failure or a library error (LP, grouping, analysis), 3
bound-report violation.  GETF_LOG (quiet|info|debug) controls logging verbosity.

The commands are a thin shell over ``getf.pipeline``: ``solve`` and
``compare`` call ``pipeline.run``; ``verify --algo`` calls only
``pipeline.assign``, to derive the bands of its bound report and of
``group_consistent``.

``solve`` never emits a schedule that fails the independent feasibility
check, and for the greedy schedulers (``SEPARATION_ALGOS``) it computes the
separation report first: a violated makespan decomposition aborts with exit
code 3 (pass ``--strict`` to also fail on any per-link idle entry).
``verify --algo`` writes that report for every algorithm but exits 3 only
for those schedulers: a feasible SLS schedule may exceed the bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import analysis, grouping, model, pipeline, scheduler
from .generator import (FORK_JOIN, LAYERED, RANDOM_DAG, WEIGHTS_SINK_ONLY, WEIGHTS_UNIFORM,
                        WEIGHTS_ZERO, GeneratorError, GeneratorSpec, generate_instance)
from .lp_solver import LpError
from .pipeline import ALGORITHMS

log = logging.getLogger("getf")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BOUND = 3

# The schedulers whose schedules satisfy makespan <= P + sum_D + C as a theorem.
SEPARATION_ALGOS = ("getf-makespan", "getf-weighted", "etf")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class CliError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_range(text: str) -> tuple[float, float]:
    lo, colon, hi = text.partition(":")
    try:
        return (float(lo), float(hi)) if colon else (float(lo), float(lo))
    except ValueError:
        raise CliError(f"range must be lo:hi numbers, got {text!r}", EXIT_USAGE) from None


def _parse_tie(text: str) -> scheduler.TieBreak:
    if text == "by-index":
        return scheduler.TieBreak.by_index()
    if text == "largest-demand":
        return scheduler.TieBreak.largest_demand()
    if text == "most-succ":
        return scheduler.TieBreak.most_successors()
    if text.startswith("random:"):
        try:
            return scheduler.TieBreak.random_rule(int(text.split(":", 1)[1]))
        except ValueError:
            raise CliError(f"random tie rule needs an integer seed, got {text!r}",
                           EXIT_USAGE) from None
    raise CliError(f"unknown tie rule {text!r}", EXIT_USAGE)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # Send what is still buffered to devnull, or the exit flush fails too.
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise CliError(f"cannot write to standard output: {exc.strerror}",
                           EXIT_USAGE) from exc
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(str(exc), EXIT_USAGE) from exc


def _load_instance(path: str) -> model.Instance:
    try:
        return model.load_instance(path)
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    except model.InstanceError as exc:
        raise CliError(f"{path}: {exc}", EXIT_INFEASIBLE) from exc


def _load_schedule(path: str) -> scheduler.Schedule:
    try:
        return scheduler.schedule_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot read schedule: {exc}", EXIT_USAGE) from exc


def cmd_generate(args) -> int:
    family = {"layered": LAYERED, "fork-join": FORK_JOIN, "random-dag": RANDOM_DAG}[args.family]
    weights = {"zero": WEIGHTS_ZERO, "uniform": WEIGHTS_UNIFORM,
               "sink-only": WEIGHTS_SINK_ONLY}[args.weights]
    spec = GeneratorSpec(
        family=family, n=args.n, m=args.m, seed=args.seed, density=args.density,
        demand_range=_parse_range(args.demand), speed_range=_parse_range(args.speed),
        comm_range=_parse_range(args.comm), data_range=_parse_range(args.data),
        self_comm=args.self_comm, weights=weights,
    )
    try:
        inst = generate_instance(spec)
    except GeneratorError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    _write(model.serialize_instance(inst), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    tie = _parse_tie(args.tie)
    sched, f = pipeline.run(inst, args.algo, tie, args.theta, args.gamma)

    feas = scheduler.verify_schedule(inst, sched, f)
    if not feas.feasible:
        raise CliError("schedule failed verification: " + "; ".join(feas.violations),
                       EXIT_INFEASIBLE)

    if args.algo in SEPARATION_ALGOS:
        report = analysis.separation_report(sched, inst, f, f.groups)
        main = report.inequalities[0]
        idle_entries = report.inequalities[1:]
        bad_idle = [iq for iq in idle_entries if not iq.passed]
        if bad_idle:
            log.info("%d of %d idle-bound entries exceeded their link transfer time",
                     len(bad_idle), len(idle_entries))
        if not main.passed or (args.strict and bad_idle):
            sys.stderr.write(report.to_json())
            raise CliError("separation report violated", EXIT_BOUND)
        log.info("separation: makespan %.6g <= %.6g (slack %.3g)",
                 main.lhs, main.rhs, main.slack)

    _write(sched.to_json(inst), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    sched = _load_schedule(args.schedule)

    feas = scheduler.verify_schedule(inst, sched)
    out: dict = {"feasible": feas.feasible, "violations": feas.violations}

    # The bound report needs every task placed, on a machine that exists.
    placed = sorted(sched.assignment) == list(range(inst.graph.n)) and all(
        0 <= i < inst.platform.m for i in sched.assignment.values())
    if args.algo is not None and placed:
        f = pipeline.assign(inst, args.algo, args.theta, args.gamma)
        out["group_consistent"] = all(i in f.machines_for(j) for j, i in sched.assignment.items())
        report = analysis.separation_report(sched, inst, f, f.groups)
        out["separation"] = report.to_dict()
    _write(json.dumps(out, indent=2) + "\n", args.output)
    if not feas.feasible:
        return EXIT_INFEASIBLE
    if args.algo in SEPARATION_ALGOS and not out["separation"]["inequalities"][0]["pass"]:
        return EXIT_BOUND
    return EXIT_OK


def compare_batch(instance_dir: str, algorithms: list[str],
                  seeds: list[int] | None = None) -> str:
    """CSV comparison over every instance JSON in a directory.

    One row per (instance, algorithm, tie); error rows carry the message in
    the final column instead of aborting the batch.  Each file is loaded once;
    one that fails to load gives an error row per (algorithm, tie).  A mean
    summary row per algorithm follows the per-instance rows.  The runtime
    column is the wall time of ``pipeline.run`` (band assignment and
    placement), empty where it did not return; it is the only
    nondeterministic column.
    """
    ties = [scheduler.TieBreak.random_rule(s) for s in seeds] if seeds else \
        [scheduler.TieBreak.by_index()]
    paths = sorted(Path(instance_dir).glob("*.json"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance", "algorithm", "tie", "makespan", "weighted_completion",
                     "P", "sum_D", "C", "bound_slack", "runtime_s", "error"])

    written: dict[str, list[tuple[float, float, float]]] = {a: [] for a in algorithms}
    for path in paths:
        try:
            inst, load_error = model.load_instance(str(path)), ""
        except Exception as exc:  # error rows, not aborts
            inst, load_error = None, str(exc)
        for algo in algorithms:
            for tie in ties:
                tie_label = tie.variant if tie.variant != scheduler.TieBreak.RANDOM \
                    else f"random:{tie.seed}"
                runtime = ""
                try:
                    if inst is None:
                        raise CliError(load_error, EXIT_INFEASIBLE)
                    t0 = time.perf_counter()
                    sched, f = pipeline.run(inst, algo, tie)
                    runtime = f"{time.perf_counter() - t0:.6f}"
                    feas = scheduler.verify_schedule(inst, sched, f)
                    if not feas.feasible:
                        raise CliError(feas.violations[0], EXIT_INFEASIBLE)
                    rep = analysis.separation_report(sched, inst, f, f.groups)
                    row = (sched.makespan(), sched.weighted_completion(inst),
                           rep.inequalities[0].slack)
                    writer.writerow([
                        path.name, algo, tie_label, f"{row[0]:.9g}", f"{row[1]:.9g}",
                        f"{rep.context['P']:.9g}", f"{rep.context['sum_D']:.9g}",
                        f"{rep.context['C']:.9g}", f"{row[2]:.9g}",
                        runtime, "",
                    ])
                    written[algo].append(row)
                except Exception as exc:  # error rows, not aborts
                    writer.writerow([path.name, algo, tie_label, "", "", "", "", "", "",
                                     runtime, str(exc)])
    for algo in algorithms:
        if rows := written[algo]:
            makespan, wc, slack = (f"{sum(col) / len(rows):.9g}" for col in zip(*rows))
            writer.writerow(["(mean)", algo, "", makespan, wc, "", "", "", slack, "", ""])
    return buf.getvalue()


def cmd_compare(args) -> int:
    if not Path(args.directory).is_dir():
        raise CliError(f"not a directory: {args.directory!r}", EXIT_USAGE)
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algorithms:
        raise CliError(f"--algos needs at least one algorithm, got {args.algos!r}", EXIT_USAGE)
    for a in algorithms:
        if a not in ALGORITHMS:
            raise CliError(f"unknown algorithm {a!r}", EXIT_USAGE)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()] if args.seeds else None
    except ValueError:
        raise CliError(f"--seeds needs comma-separated integers, got {args.seeds!r}",
                       EXIT_USAGE) from None
    _write(compare_batch(args.directory, algorithms, seeds), args.output)
    return EXIT_OK


def cmd_gantt(args) -> int:
    sched = _load_schedule(args.schedule)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "machine", "start", "end"])
    rows = sorted(
        ((sched.assignment[j], sched.start[j], sched.finish[j], j) for j in sched.assignment),
    )
    for machine, start, end, task in rows:
        writer.writerow([task, machine, f"{start:.9g}", f"{end:.9g}"])
    _write(buf.getvalue(), args.output)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="getf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a random instance JSON")
    p.add_argument("--family", choices=["layered", "fork-join", "random-dag"],
                   default="layered")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--demand", default="1:4", help="demand range lo:hi")
    p.add_argument("--speed", default="1:2", help="machine speed range lo:hi")
    p.add_argument("--comm", default="1:4", help="communication speed range lo:hi")
    p.add_argument("--data", default="0:4", help="edge data volume range lo:hi")
    p.add_argument("--self-comm", choices=["matrix", "infinite"], default="matrix")
    p.add_argument("--weights", choices=["zero", "uniform", "sink-only"], default="zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="schedule an instance")
    p.add_argument("instance")
    p.add_argument("--algo", choices=list(ALGORITHMS), default="getf-makespan")
    p.add_argument("--tie", default="by-index",
                   help="by-index | random:<seed> | largest-demand | most-succ")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--strict", action="store_true",
                   help="also fail on per-link idle-bound violations")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--algo", choices=list(ALGORITHMS), default=None,
                   help="derive this algorithm's bands and the bound report")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="batch comparison over a directory")
    p.add_argument("directory")
    p.add_argument("--algos", default="getf-makespan,etf,sls")
    p.add_argument("--seeds", default="", help="comma-separated random tie seeds")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gantt", help="schedule JSON -> task,machine,start,end CSV")
    p.add_argument("schedule")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gantt)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """build_parser()'s parser, built once per process: parse_args does not
    change it, and rebuilding it cost about a millisecond per call."""
    return build_parser()


def _configure_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("GETF_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (model.InstanceError, grouping.GroupingError, scheduler.SchedulingError,
            LpError, analysis.AnalysisError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
