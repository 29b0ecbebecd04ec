"""Workloads, closed-loop timing, output checks and metrics for getf.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns, and each operation is timed from its call to
its return.  Instances come from the workload seed alone.  A run cycles
over its instance set until the time is up, and always finishes at least
one full pass, so ``objective_ratio`` covers the same instances on every run
of a seed.  Every output is checked outside the timed call: the first
output per instance is re-verified with the public ``verify_schedule``, and
later outputs for the same instance must be byte-identical to it.

Timings are in calibrated seconds.  On a shared 2-vCPU Xeon host, CPU
speed changed by up to 2x over phases of seconds to tens of seconds, which
moved raw medians of ``etf-large`` by 0.26-0.30 (IQR over median) across
ten seeds.  So a fixed pure-Python loop is timed before and after every timed
interval, and the interval is scaled by ``CALIBRATION_S`` over the mean of
the two.  On a host where the loop takes ``CALIBRATION_S``, calibrated
seconds are wall seconds.  Raw wall figures are printed next to them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans

SETUP_ROUNDS = 5
TRACE_SETUP_ROUNDS = 1
WARMUP_N = 6
CALIBRATION_S = 0.004  # fixed: changing it rescales every timing metric


def calibration_loop() -> float:
    """Wall seconds for a fixed pure-Python loop: the host's current speed."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(30_000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return perf_counter() - t0


class Clock:
    """Converts wall intervals to calibrated seconds, using the calibration
    loop run just before and just after each interval."""

    def __init__(self):
        self.before = calibration_loop()

    def calibrated(self, wall: float) -> float:
        after = calibration_loop()
        scaled = wall * 2.0 * CALIBRATION_S / (self.before + after)
        self.before = after
        return scaled


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str          # a `getf solve --algo` value, or "certify" for library calls
    family: str
    n: int
    m: int
    density: float
    weights: str
    instances: int     # distinct instances per run, all run at least once
    objective: str     # "makespan" or "weighted_completion"


WORKLOADS = {w.name: w for w in (
    Workload("makespan-lp", "getf-makespan", "layered", 20, 8, 0.3, "zero", 48, "makespan"),
    Workload("weighted-lp", "getf-weighted", "random_dag", 10, 3, 0.3, "uniform", 96,
             "weighted_completion"),
    Workload("etf-large", "etf", "layered", 1000, 8, 0.05, "zero", 16, "makespan"),
    Workload("certify-large", "certify", "layered", 1100, 8, 0.05, "uniform", 32, "makespan"),
)}


class CheckError(RuntimeError):
    """An operation returned, but its output is wrong."""


@dataclass
class Case:
    index: int
    inst: object
    path: str
    out: str


def import_getf(src: Path) -> SimpleNamespace:
    """Import getf from ``src`` afresh, so each set-up round pays the import."""
    for name in [m for m in sys.modules if m == "getf" or m.startswith("getf.")]:
        del sys.modules[name]
    g = SimpleNamespace(**{m: importlib.import_module(f"getf.{m}") for m in spans.LAYERS})
    if Path(g.cli.__file__).resolve().parent != (src / "getf").resolve():
        raise ImportError(f"getf was imported from {g.cli.__file__}, not from {src}")
    return g


def specs(g, w: Workload, seed: int, n: int | None = None, count: int | None = None):
    return [
        g.generator.GeneratorSpec(family=w.family, n=n or w.n, m=w.m,
                                  seed=seed * 100_003 + k, density=w.density,
                                  weights=w.weights)
        for k in range(count or w.instances)
    ]


# -- operations --------------------------------------------------------------

def call_op(g, w: Workload, case: Case):
    """The timed operation; returns whatever ``collect`` needs."""
    if w.algo != "certify":
        return g.cli.main(["solve", case.path, "--algo", w.algo, "-o", case.out])
    inst = g.model.load_instance(case.path)
    f = g.grouping.trivial_assignment(inst)
    sched = g.scheduler.sls_schedule(inst, f, g.model.topological_order(inst.graph))
    feas = g.scheduler.verify_schedule(inst, sched)
    report = g.analysis.separation_report(sched, inst, f, f.groups)
    chain = g.analysis.per_task_chain_comm(sched, inst, f)
    return feas, report, chain, sched.to_json(inst)


def collect(w: Workload, case: Case, result) -> tuple[str, str]:
    """Turn an operation's result into (schedule JSON, other output), failing
    on a non-zero exit or an infeasible self-check.

    ``getf solve`` exits 3 when the main separation inequality fails, so the
    CLI workloads count it through the exit code.  The inequality is a
    theorem for the greedy schedulers only; SLS schedules exceed it on most
    large instances, so certify-large checks that it is finite, not that it
    holds.
    """
    if w.algo != "certify":
        if result != 0:
            raise CheckError(f"getf solve exited with code {result}")
        return Path(case.out).read_text(encoding="utf-8"), ""
    feas, report, chain, text = result
    if not feas.feasible:
        raise CheckError(f"verify_schedule rejected the schedule: {feas.violations[0]}")
    main = report.inequalities[0]
    if not (math.isfinite(main.lhs) and math.isfinite(main.rhs)):
        raise CheckError(f"separation report is not finite: {main.lhs} <= {main.rhs}")
    n = case.inst.graph.n
    if sorted(chain) != list(range(n)) or not all(
            math.isfinite(c) and c >= 0.0 for c in chain.values()):
        raise CheckError("per_task_chain_comm does not give one finite value per task")
    return text, report.to_json() + json.dumps(chain)


def lower_bound(inst, objective: str) -> float:
    """A zero-communication lower bound on the objective.

    Makespan: the larger of total work over total speed and the heaviest
    path run at the fastest speed.  Weighted completion: every task takes
    at least its own processing time at the fastest speed.
    """
    speeds = [mc.speed for mc in inst.platform.machines]
    tasks = inst.graph.tasks
    if objective == "weighted_completion":
        return sum(t.weight * t.demand for t in tasks) / max(speeds)
    preds = inst.graph.predecessors()
    heaviest: list[float] = []
    for t in tasks:  # generated edges point from lower to higher task ids
        heaviest.append(t.demand + max((heaviest[p] for p in preds[t.id]), default=0.0))
    return max(sum(t.demand for t in tasks) / sum(speeds), max(heaviest) / max(speeds))


class Checker:
    """Re-verifies the first output per instance, then demands identical bytes.
    Records each instance's objective over its lower bound."""

    def __init__(self, g, w: Workload):
        self.g, self.w = g, w
        self.reference: dict[int, tuple[str, str]] = {}
        self.ratio: dict[int, float] = {}

    def __call__(self, case: Case, output: tuple[str, str]) -> None:
        if case.index in self.reference:
            if output != self.reference[case.index]:
                raise CheckError(f"instance {case.index}: output differs between runs")
            return
        sched = self.g.scheduler.schedule_from_dict(json.loads(output[0]))
        feas = self.g.scheduler.verify_schedule(case.inst, sched)
        if not feas.feasible:
            raise CheckError(f"instance {case.index}: {feas.violations[0]}")
        self.reference[case.index] = output
        value = (sched.makespan() if self.w.objective == "makespan"
                 else sched.weighted_completion(case.inst))
        self.ratio[case.index] = value / lower_bound(case.inst, self.w.objective)


def run_case(g, w: Workload, case: Case, tracer=None, op_id: int = 0):
    t0 = perf_counter()
    if tracer is None:
        result = call_op(g, w, case)
    else:
        result = tracer.run_op(op_id, call_op, g, w, case)
    seconds = perf_counter() - t0
    return seconds, collect(w, case, result)


def write_cases(g, insts, workdir: Path, prefix: str) -> list[Case]:
    cases = []
    for k, inst in enumerate(insts):
        path = workdir / f"{prefix}{k}.json"
        path.write_text(g.model.serialize_instance(inst), encoding="utf-8")
        cases.append(Case(k, inst, str(path), str(workdir / f"{prefix}{k}.out.json")))
    return cases


def setup(w: Workload, seed: int, src: Path, workdir: Path, rounds: int, trace: bool):
    """Import, generate and write the instances, and warm up on a toy
    instance; repeated ``rounds`` times.  Returns the last round's state and
    the median round time."""
    times = []
    clock = Clock()
    for _ in range(rounds):
        t0 = perf_counter()
        g = import_getf(src)
        tracer = spans.Tracer(g) if trace else None
        if tracer:
            tracer.install()
        try:
            insts = [g.generator.generate_instance(s) for s in specs(g, w, seed)]
        finally:
            if tracer:
                tracer.uninstall()
        cases = write_cases(g, insts, workdir, "inst")
        warm = write_cases(g, [g.generator.generate_instance(
            specs(g, w, seed, n=WARMUP_N, count=1)[0])], workdir, "warmup")[0]
        _, output = run_case(g, w, warm)
        Checker(g, w)(warm, output)
        times.append(clock.calibrated(perf_counter() - t0))
    return g, cases, tracer, statistics.median(times)


# -- measurement -------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, case: Case, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= 3:
            sys.stderr.write(f"operation on instance {case.index} failed:\n")
            traceback.print_exception(exc, file=sys.stderr)


def measure(g, w: Workload, cases: list[Case], seconds: float, tally: Tally):
    """Untraced closed loop; returns calibrated and raw op times of the
    verified operations, and the checker."""
    check = Checker(g, w)
    clock = Clock()
    times: list[float] = []
    raw: list[float] = []
    t_start = perf_counter()
    k = 0
    while k < len(cases) or perf_counter() - t_start < seconds:
        case = cases[k % len(cases)]
        k += 1
        tally.attempted += 1
        try:
            dt, output = run_case(g, w, case)
            calibrated = clock.calibrated(dt)
            check(case, output)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.fail(case, exc)
        else:
            times.append(calibrated)
            raw.append(dt)
    return times, raw, check


def measure_traced(g, w: Workload, cases: list[Case], seconds: float, tally: Tally, tracer):
    """Each instance runs untraced, then traced; outputs must be identical.
    Returns per-op counters and the summed untraced and traced op times."""
    check = Checker(g, w)
    counters: list[dict[str, float]] = []
    plain = traced = 0.0
    t_start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - t_start < seconds:
        case = cases[k % len(cases)]
        k += 1
        tally.attempted += 1
        try:
            dt0, out0 = run_case(g, w, case)
            check(case, out0)
            dt1, out1 = run_case(g, w, case, tracer, op_id=k)
            if out1 != out0:
                raise CheckError(f"instance {case.index}: traced output differs from untraced")
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.fail(case, exc)
            continue
        plain += dt0
        traced += dt1
        counters.append(op_counters(g, tracer.kept))
    return counters, plain, traced


OP_COUNTERS = ("grouping.lp_rows", "grouping.lp_cols", "grouping.lp_nnz",
               "lp_solver.max_residual", "lp_solver.objective",
               "grouping.bands_used", "analysis.chain_len")


def op_counters(g, kept) -> dict[str, float]:
    """LP size and quality, bands and chain length from the values the traced
    operation returned; computed after the operation, outside its timing."""
    out = dict.fromkeys(OP_COUNTERS, 0.0)
    for name, args, result in kept:
        if name == "lp_solver.solve":
            lp = args[0]
            out["grouping.lp_rows"] = len(lp.constraints)
            out["grouping.lp_cols"] = lp.n_vars
            out["grouping.lp_nnz"] = sum(int((row != 0).sum()) for row, _, _ in lp.constraints)
            out["lp_solver.max_residual"] = max(0.0, float(g.lp_solver.residuals(lp, result.x).max()))
            out["lp_solver.objective"] = result.objective
        elif name == "grouping.assign":
            out["grouping.bands_used"] = len(set(result.group_of_task.values()))
        elif name == "analysis.separation":
            out["analysis.chain_len"] = len(result.context["chain"])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(times, check, setup_s) -> dict[str, tuple[float, str]]:
    """Timings in calibrated seconds.  With no verified operation the values
    read 0; the result is then marked incorrect, since every operation failed."""
    return {
        "instances_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "op_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "objective_ratio": (statistics.fmean(check.ratio.values())
                            if check.ratio else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, counters, plain, traced) -> dict[str, tuple[float, str]]:
    ops = max(len(counters), 1)
    tot = tracer.totals()
    self_t = tracer.self_times()

    def per_op(name):
        return tot[name] / ops

    def share(name):
        return tot[name] / tot["op"] if tot["op"] else 0.0

    out = {
        "cli.solve_s": (per_op("cli.solve"), "s"),
        "model.load_s": (per_op("model.load"), "s"),
        "generator.generate_s": (tracer.totals(op_only=False)["generator.generate"]
                                 / TRACE_SETUP_ROUNDS, "s"),
        "grouping.partition_s": (per_op("grouping.partition"), "s"),
        "grouping.lp_build_s": (per_op("grouping.lp_build"), "s"),
        "grouping.extract_s": (per_op("grouping.extract"), "s"),
        "grouping.assign_s": (per_op("grouping.assign"), "s"),
        "lp_solver.solve_s": (per_op("lp_solver.solve"), "s"),
        "lp_solver.share": (share("lp_solver.solve"), "fraction"),
        "scheduler.place_s": (per_op("scheduler.place"), "s"),
        "scheduler.place_share": (share("scheduler.place"), "fraction"),
        "scheduler.earliest_start_calls": (tracer.count("scheduler.earliest_start") / ops,
                                           "count"),
        "scheduler.verify_s": (per_op("scheduler.verify"), "s"),
        "scheduler.to_json_s": (per_op("scheduler.to_json"), "s"),
        "analysis.separation_s": (per_op("analysis.separation"), "s"),
        "analysis.chain_comm_s": (per_op("analysis.chain_comm"), "s"),
        "analysis.chain_comm_share": (share("analysis.chain_comm"), "fraction"),
        "trace.op_s": (per_op("op"), "s"),
        "trace.overhead_frac": (traced / plain - 1.0 if plain else 0.0, "fraction"),
        "trace.missing_spans": (len(tracer.missing), "count"),
    }
    for layer in ("cli", "model", "grouping", "lp_solver", "scheduler", "analysis"):
        out[f"{layer}.self_s"] = (self_t[layer] / ops, "s")
    for name in OP_COUNTERS:
        unit = "lp_units" if name.startswith("lp_solver.") else "count"
        out[name] = (statistics.fmean(c[name] for c in counters) if counters else 0.0, unit)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    w = WORKLOADS[name]
    src = root / "src"
    workdir = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if not trace:
            g, cases, _, setup_s = setup(w, seed, src, workdir, SETUP_ROUNDS, trace=False)
            times, raw, check = measure(g, w, cases, seconds, tally)
            metrics = end_to_end(times, check, setup_s)
            print(f"{name} seed {seed}: {len(times)} ops verified, {tally.failed} failed")
            print(f"  calibrated: {tail_summary(times)}")
            print(f"  raw wall:   {tail_summary(raw)}")
        else:
            g, cases, tracer, _ = setup(w, seed, src, workdir, TRACE_SETUP_ROUNDS, trace=True)
            counters, plain, traced = measure_traced(g, w, cases, seconds, tally, tracer)
            metrics = per_layer(tracer, counters, plain, traced)
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")
            for missing in tracer.missing:
                print(f"missing span: {missing} no longer exists")
            print(f"{name} seed {seed}: {len(counters)} traced ops, {tally.failed} failed")
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def tail_summary(times: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    if not times:
        return "no samples"
    ordered = sorted(times)
    text = f"op_s p50 {statistics.median(ordered):.4g} (n={len(ordered)})"
    if len(ordered) >= 20:
        pct = int(100 * (len(ordered) - 10) / len(ordered))
        text += f", p{pct} {ordered[math.ceil(pct / 100 * len(ordered)) - 1]:.4g}"
    return text
