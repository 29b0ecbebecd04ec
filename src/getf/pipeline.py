"""The one composition of GETF's two steps: an LP-derived band assignment,
then greedy earliest-start placement inside the bands.

``assign`` derives the bands an algorithm places tasks in; ``run`` also
places them.  The library is called through module attributes, so a
function patched on its module (by a tracer or a test) is the one that runs.
"""

from __future__ import annotations

import logging

from . import grouping, model, scheduler

log = logging.getLogger("getf")

ALGORITHMS = ("getf-makespan", "getf-weighted", "etf", "sls")


def assign(inst: model.Instance, algo: str, theta: float = 0.5,
           gamma: float | None = None) -> grouping.GroupAssignment:
    """The band assignment of ``algo``; etf and sls use the single
    all-machines band."""
    if algo in ("etf", "sls"):
        return grouping.trivial_assignment(inst)
    if algo == "getf-makespan":
        groups = grouping.partition_machines(inst.platform, gamma)
        frac = grouping.solve_makespan_relaxation(inst, groups)
        return grouping.assign_groups_makespan(frac, groups, theta)
    if algo == "getf-weighted":
        normalized, scale = model.normalize_demands(inst)
        if scale != 1.0:
            log.info("demands scaled by %g to derive the group assignment", scale)
        groups = grouping.partition_machines(normalized.platform, gamma)
        wsol = grouping.solve_weighted_relaxation(normalized, groups)
        return grouping.assign_groups_weighted(wsol, groups, theta)
    raise ValueError(f"unknown algorithm {algo!r}")


def run(inst: model.Instance, algo: str, tie: scheduler.TieBreak, theta: float = 0.5,
        gamma: float | None = None) -> tuple[scheduler.Schedule, grouping.GroupAssignment]:
    """Schedule ``inst`` with ``algo``: sls places tasks in topological
    priority order, the others by GETF's earliest start within the bands."""
    f = assign(inst, algo, theta, gamma)
    if algo == "sls":
        return scheduler.sls_schedule(inst, f, model.topological_order(inst.graph)), f
    return scheduler.getf_schedule(inst, f, tie), f
