"""In-memory span tracer that wraps getf's public functions from outside.

Each target is patched at the attribute where its caller looks it up (a
function imported into another module is patched in that module too), so
no file of the package is touched.  Spans carry a name, start, end, parent
and operation id; they stay in memory until ``dump`` writes them out.
``earliest_start`` gets a counter-only wrapper: it runs millions of times
per operation, and a span per call would dominate what it measures.  Each
span records how many counted calls ran inside it, children included.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

# (owner, attribute, span name).  The owner is a getf module, or
# "module.Class" for a method.  The layer is the span name's prefix.
TARGETS = (
    ("cli", "main", "cli.solve"),
    ("model", "load_instance", "model.load"),
    ("model", "normalize_demands", "model.normalize"),
    ("model", "topological_order", "model.topological_order"),
    ("generator", "generate_instance", "generator.generate"),
    ("grouping", "partition_machines", "grouping.partition"),
    ("grouping", "build_makespan_lp", "grouping.lp_build"),
    ("grouping", "build_weighted_lp", "grouping.lp_build"),
    ("grouping", "extract_makespan_fractional", "grouping.extract"),
    ("grouping", "extract_weighted_fractional", "grouping.extract"),
    ("grouping", "collapse_time_indexed", "grouping.extract"),
    ("grouping", "assign_groups_makespan", "grouping.assign"),
    ("grouping", "assign_groups_weighted", "grouping.assign"),
    ("grouping", "trivial_assignment", "grouping.assign"),
    ("scheduler", "trivial_assignment", "grouping.assign"),
    ("grouping", "solve_lp", "lp_solver.solve"),
    ("scheduler", "getf_schedule", "scheduler.place"),
    ("scheduler", "sls_schedule", "scheduler.place"),
    ("scheduler", "verify_schedule", "scheduler.verify"),
    ("scheduler.Schedule", "to_json", "scheduler.to_json"),
    ("analysis", "separation_report", "analysis.separation"),
    ("analysis", "per_task_chain_comm", "analysis.chain_comm"),
)
COUNTERS = (("scheduler", "earliest_start", "scheduler.earliest_start"),)
# Spans whose arguments and results are kept for counters computed after
# the operation, outside its timed path.
KEEP = ("lp_solver.solve", "grouping.assign", "analysis.separation")

LAYERS = ("cli", "model", "generator", "grouping", "lp_solver", "scheduler", "analysis")
SETUP_OP = -1


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    calls: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self, getf, targets=TARGETS, counters=COUNTERS):
        self.spans: list[Span] = []
        self.calls: dict[str, list[int]] = {}   # counter name -> [calls so far]
        self.kept: list[tuple[str, tuple, object]] = []
        self.missing: list[str] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for owner_path, attr, name in targets:
            self._prepare(getf, owner_path, attr, name, self._span_wrapper)
        for owner_path, attr, name in counters:
            self._prepare(getf, owner_path, attr, name, self._count_wrapper)

    def _prepare(self, getf, owner_path, attr, name, make_wrapper) -> None:
        module, _, cls = owner_path.partition(".")
        owner = getattr(getf, module, None)
        if cls:
            owner = getattr(owner, cls, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{owner_path}.{attr}")
            return
        self._patches.append((owner, attr, original, make_wrapper(original, name)))

    def _span_wrapper(self, fn, name):
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            before = {c: cell[0] for c, cell in self.calls.items()}
            span = Span(sid, name, perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                span.calls = {c: cell[0] - before[c] for c, cell in self.calls.items()}
            if keep:
                self.kept.append((name, args, result))
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn`` under a root span "op", with the wrappers installed."""
        self.op = op_id
        self.kept = []
        self.install()
        try:
            return self._span_wrapper(fn, "op")(*args)
        finally:
            self.uninstall()
            self.op = SETUP_OP

    # -- aggregation --------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer, over operation spans: span time minus the time its
        direct child spans cover."""
        kids = self.children()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op == SETUP_OP:
                continue
            covered = sum(c.end - c.start for c in kids.get(s.id, ()))
            out[s.name.partition(".")[0]] += (s.end - s.start) - covered
        return out

    def totals(self, op_only: bool = True) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if not op_only or s.op != SETUP_OP:
                out[s.name] += s.end - s.start
        return out

    def count(self, name: str, span: str = "op") -> int:
        """Counted calls of ``name`` inside spans called ``span``."""
        return sum(s.calls.get(name, 0) for s in self.spans if s.name == span)

    def dump(self, path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans], "missing": self.missing}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
