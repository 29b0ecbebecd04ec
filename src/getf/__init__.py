"""DAG scheduling on related machines with communication delays.

Greedy earliest-start scheduling restricted to speed-banded machine groups
derived from LP relaxations, plus machine-checked decomposition bounds on
every produced schedule.
"""

from .analysis import (BoundReport, Inequality, chain_comm_time, identical_report,
                       makespan_theorem_report, min_comm_terminal_chain,
                       per_task_chain_comm, separation_report,
                       weighted_theorem_report)
from .generator import GeneratorSpec, generate_instance
from .grouping import (GroupAssignment, MachineGroups, MakespanFractional,
                       WeightedFractional, assign_groups_makespan,
                       assign_groups_weighted, build_makespan_lp,
                       build_weighted_lp, collapse_time_indexed,
                       partition_machines,
                       solve_makespan_relaxation, solve_weighted_relaxation,
                       trivial_assignment, weighted_slice_feasibility)
from .lp_solver import LinearProgram, LpSolution, solve_lp
from .model import (Instance, InstanceError, Machine, Platform, Task,
                    TaskGraph, ValidationReport, instance_from_dict,
                    instance_to_dict, load_instance, normalize_demands,
                    parse_instance, serialize_instance, topological_order,
                    validate_instance)
from .oracle import brute_force_schedule, lower_bounds, restrict_platform
from .scheduler import (FeasibilityReport, Schedule, TieBreak, earliest_start,
                        etf_schedule, getf_schedule, schedule_from_dict,
                        sls_schedule, verify_schedule)

__version__ = "0.1.0"
