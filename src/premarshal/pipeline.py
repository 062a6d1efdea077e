"""End-to-end orchestration: preprocessing, then one of the two solvers.

The solvers stop at an absolute ``time.perf_counter()`` deadline, ``math.inf``
for none.  ``solve_instance`` is the one place that derives it from a budget
in seconds, and ``ASTAR_BUDGET_S`` and ``EXACT_BUDGET_S`` are the defaults it
takes when the caller gives none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import astar, exact, fixing
from .fixing import AccessAssignment
from .layout import DistanceMatrix, all_pairs_distances, build_layout
from .model import LaneConfiguration, Solution, WarehouseInstance

ASSIGNMENT_CANDIDATES = 10
ASTAR_BUDGET_S = 600.0
EXACT_BUDGET_S = 3600.0


@dataclass
class Prepared:
    """Everything the solvers need, plus how long it took to build."""

    dmat: DistanceMatrix
    assignments: list[AccessAssignment]
    config: LaneConfiguration
    preprocessing_time: float


def prepare(instance: WarehouseInstance) -> Prepared:
    """Access fixing, layout and the distance matrix for one instance."""
    started = time.perf_counter()
    layout = build_layout(instance)
    dmat = all_pairs_distances(layout)
    assignments = [
        fixing.select_assignment(fixing.optimal_assignments(bay, ASSIGNMENT_CANDIDATES), bay)
        for bay in instance.bays
    ]
    config = fixing.number_lanes([a.lanes for a in assignments], layout, instance.groups)
    return Prepared(
        dmat=dmat,
        assignments=assignments,
        config=config,
        preprocessing_time=time.perf_counter() - started,
    )


def solve_instance(
    instance: WarehouseInstance,
    algo: str,
    timeout_s: float | None = None,
    prepared: Prepared | None = None,
    ub_solution=None,
):
    """Solve with 'astar' or 'exact'; returns (result, prepared).

    The exact solver needs a move-optimal solution for its bounds; when
    ``ub_solution`` is absent, a standard A* run supplies it first.  The
    result is a Solution, TimedOut or Infeasible; ``prepared`` holds the
    selected assignments and the preprocessing time, which a solution file
    records with the plan.

    ``timeout_s`` counts from the end of preprocessing and covers both
    phases of an exact solve: the A* bootstrap and the search share one
    deadline.  With none, A* gets ``ASTAR_BUDGET_S`` and the exact search
    ``EXACT_BUDGET_S`` from when A* returns.
    """
    if prepared is None:
        prepared = prepare(instance)
    deadline = time.perf_counter() + (ASTAR_BUDGET_S if timeout_s is None else timeout_s)
    if algo == "astar":
        result = astar.solve_astar(prepared.config, prepared.dmat, deadline)
    elif algo == "exact":
        ub = ub_solution
        if ub is None:
            ub = astar.solve_astar(prepared.config, prepared.dmat, deadline)
            if not isinstance(ub, Solution):
                return ub, prepared
        if timeout_s is None:
            deadline = time.perf_counter() + EXACT_BUDGET_S
        result = exact.solve_exact(prepared.config, prepared.dmat, ub, deadline)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return result, prepared
