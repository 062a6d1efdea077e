"""End-to-end orchestration: preprocessing, then one of the two solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import astar, exact, fixing
from .fixing import AccessAssignment
from .layout import DistanceMatrix, all_pairs_distances, build_layout
from .model import LaneConfiguration, Solution, WarehouseInstance

ASSIGNMENT_CANDIDATES = 10


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
    result is a Solution, TimedOut or Infeasible; solutions carry the
    selected assignments and the preprocessing time.
    """
    if prepared is None:
        prepared = prepare(instance)
    if algo == "astar":
        result = astar.solve_astar(
            prepared.config,
            prepared.dmat,
            timeout_s if timeout_s is not None else astar.DEFAULT_TIMEOUT_S,
        )
    elif algo == "exact":
        # One deadline for both phases: the A* bootstrap may use all of
        # ``timeout_s``, and the exact search gets what is left of it.
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        ub = ub_solution
        if ub is None:
            ub = astar.solve_astar(
                prepared.config,
                prepared.dmat,
                astar.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s,
            )
            if not isinstance(ub, Solution):
                _attach(ub, prepared)
                return ub, prepared
        result = exact.solve_exact(
            prepared.config,
            prepared.dmat,
            ub,
            exact.DEFAULT_TIMEOUT_S
            if deadline is None
            else max(0.0, deadline - time.perf_counter()),
        )
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    _attach(result, prepared)
    return result, prepared


def _attach(result, prepared: Prepared) -> None:
    result.stats.preprocessing_time = prepared.preprocessing_time
    if isinstance(result, Solution):
        result.assignments = prepared.assignments
