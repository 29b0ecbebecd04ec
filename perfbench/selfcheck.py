"""Self-check of the benchmark harness on toy instances (n <= 10).

Run from the repository root:

    python3 perfbench/selfcheck.py

It confirms that traced spans nest under ``cli.solve``, that
``earliest_start`` is counted on ETF and never inside the LP solve, that a
wrapped name that no longer exists is reported as missing instead of
crashing, and that injected failing operations are counted in ``failed``.
Exits 1 if any check fails.
"""

import dataclasses
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import spans  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def toy(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], n=8, instances=2)


def traced(w: harness.Workload, workdir: Path):
    g, cases, tracer, _ = harness.setup(w, 1, SRC, workdir, 1, trace=True)
    tally = harness.Tally()
    harness.measure_traced(g, w, cases, 0.0, tally, tracer)
    return g, tracer, tally


def check_lp_nesting(workdir: Path) -> None:
    g, tracer, tally = traced(toy("makespan-lp"), workdir)
    check(tally.failed == 0 and tally.attempted > 0, "makespan-lp toy: traced op succeeds")
    by_id = {s.id: s for s in tracer.spans}

    def under_cli(s) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "cli.solve":
                return True
        return False

    inner = [s for s in tracer.spans
             if s.op != spans.SETUP_OP and s.name not in ("op", "cli.solve")]
    check(bool(inner) and all(under_cli(s) for s in inner),
          f"all {len(inner)} layer spans nest under cli.solve")
    lp = [s for s in tracer.spans if s.name == "lp_solver.solve"]
    check(bool(lp) and all(s.calls["scheduler.earliest_start"] == 0 for s in lp),
          "earliest_start is never called inside lp_solver.solve")
    check(tracer.count("scheduler.earliest_start", "scheduler.place") > 0,
          "earliest_start is counted inside scheduler.place")
    check(not tracer.missing, "no wrapped name is missing")

    gone = spans.TARGETS + (("grouping", "no_such_function", "grouping.gone"),
                            ("nomodule", "f", "nomodule.f"))
    partial = spans.Tracer(g, targets=gone)
    partial.install()
    partial.uninstall()
    check(partial.missing == ["grouping.no_such_function", "nomodule.f"],
          f"vanished names are reported as missing: {partial.missing}")


def check_etf_counter(workdir: Path) -> None:
    _, tracer, tally = traced(toy("etf-large"), workdir)
    calls = tracer.count("scheduler.earliest_start")
    check(tally.failed == 0 and calls > 0, f"etf-large toy counts {calls} earliest_start calls")


def check_injected_failures(workdir: Path) -> None:
    w = dataclasses.replace(toy("etf-large"), instances=3)
    g, cases, _, _ = harness.setup(w, 1, SRC, workdir, 1, trace=False)
    cases[0].path = str(workdir / "missing.json")            # the CLI exits non-zero
    slow = dataclasses.replace(cases[1].inst.platform, machines=tuple(
        dataclasses.replace(mc, speed=mc.speed / 2) for mc in cases[1].inst.platform.machines))
    cases[1].inst = dataclasses.replace(cases[1].inst, platform=slow)  # verification fails
    tally = harness.Tally()
    harness.measure(g, w, cases, 0.0, tally)
    check(tally.attempted == 3 and tally.failed == 2,
          f"injected failures are counted: {tally.failed} of {tally.attempted} failed")


def main() -> int:
    workdir = ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_lp_nesting(workdir)
        check_etf_counter(workdir)
        check_injected_failures(workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
