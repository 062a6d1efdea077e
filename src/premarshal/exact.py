"""Exact distance optimizer: iterative deepening over an exact-stage model.

The model fixes a number of stages k-bar; every stage performs exactly one
removal and one placement (the front-most load of the source lane goes to
the first empty slot of the target lane), the final state must have zero
blocking loads, the total loaded distance may not exceed the upper bound
c_ub, and a load may not move in two consecutive stages (the relay would
collapse into a single cheaper move, so the rule never cuts all optima).

Deepening starts at the lower bound of the initial state and stops at the
A* move count, which is already minimal; the first feasible k-bar therefore
equals the optimal move count, and the complete search at that depth
returns the minimum total loaded distance among all optimal-length plans.

Children are cut as early as possible, cheapest test first.  At generation,
``legal_moves`` skips the lane the last move filled (the relay rule) and
every move past the distance budget, min(c_ub, incumbent - 1) minus the
distance so far, before its ``Move`` is built.  Before a child is built, its
BX comes from the parent's profiles of the two touched lanes in O(1); since
h = BX + GX with GX >= 0, a BX above the stages left cuts only what the full
bound would cut.  After the child is built, the full h from
``lb_incremental`` decides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bounds
from .model import (
    Infeasible,
    LaneConfiguration,
    Move,
    Solution,
    SolveStats,
    TimedOut,
    apply_move,
    legal_moves,
    state_key,
)

DEFAULT_TIMEOUT_S = 3600.0


class DeadlineReached(Exception):
    """Internal signal: the search hit its wall-clock deadline."""


@dataclass(frozen=True)
class StageModel:
    """An exactly-k-bar-stage move model over a lane configuration."""

    initial: LaneConfiguration
    k_bar: int
    dmat: object
    c_ub: int
    depth_correction: bool = False

    def __post_init__(self) -> None:
        if self.k_bar < 0:
            raise ValueError("k_bar must be nonnegative")
        if self.c_ub < 0:
            raise ValueError("c_ub must be nonnegative")

    @property
    def slot_count(self) -> int:
        return sum(lane.capacity for lane in self.initial.lanes)

    @property
    def num_state_vars(self) -> int:
        """Slot-group and slot-occupied variables: one per slot per stage 0..k_bar."""
        return self.slot_count * (self.k_bar + 1)

    @property
    def num_move_vars(self) -> int:
        """Removal, placement and blocking variables: one per slot per stage 1..k_bar."""
        return self.slot_count * self.k_bar


def build_model(
    initial: LaneConfiguration,
    k_bar: int,
    dmat,
    c_ub: int,
    depth_correction: bool = False,
) -> StageModel:
    """Stage-0 state is the initial configuration; construction is total."""
    return StageModel(
        initial=initial,
        k_bar=k_bar,
        dmat=dmat,
        c_ub=c_ub,
        depth_correction=depth_correction,
    )


@dataclass
class SearchResult:
    moves: list[Move]
    distance: int
    nodes: int = 0


def complete_search(
    model: StageModel,
    deadline: float | None = None,
    use_memo: bool = True,
    prune_distance: bool = True,
    prune_bound: bool = True,
    counters: SolveStats | None = None,
) -> SearchResult | None:
    """Exhaustive DFS over the model's stages; None when infeasible.

    The prune toggles only change the number of visited nodes, never the
    returned optimum; they exist for differential testing.  Child order is
    (source lane id, target lane id), so results are deterministic.
    """
    k_bar = model.k_bar
    dmat = model.dmat
    depth_correction = model.depth_correction
    incumbent: list[int | None] = [None]
    best_moves: list[Move] = []
    nodes = [0]
    memo: dict[tuple, int] = {}
    root_aux, root_profiles, root_h = bounds.lb_state(model.initial)
    trail: list[Move] = []

    def dfs(config, stage, dist, last_target, aux, profiles) -> None:
        nodes[0] += 1
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineReached
        if stage == k_bar:
            # The distance cap is model semantics, not a prune: it must hold
            # even with prune_distance switched off.
            if config.blocking_total == 0 and dist <= model.c_ub:
                if incumbent[0] is None or dist < incumbent[0]:
                    incumbent[0] = dist
                    best_moves[:] = trail
            return
        if use_memo:
            key = (state_key(config), stage, last_target)
            known = memo.get(key)
            if known is not None and known <= dist:
                return
            memo[key] = dist
        remaining = k_bar - (stage + 1)
        budget = None
        if prune_distance:
            budget = model.c_ub if incumbent[0] is None else min(model.c_ub, incumbent[0] - 1)
            budget -= dist
        for move in legal_moves(config, dmat, depth_correction, last_target, budget):
            c_dist = dist + move.distance
            # The incumbent can fall while this node's children are searched,
            # so the budget may be stale by now.
            if prune_distance and incumbent[0] is not None and c_dist >= incumbent[0]:
                continue
            if prune_bound and bounds.child_bx(config, profiles, move) > remaining:
                continue  # h = BX + GX with GX >= 0: the full bound cuts it too
            child = apply_move(config, move)
            if prune_bound:
                c_aux, c_profiles, c_h = bounds.lb_incremental(aux, profiles, move, child)
                if c_h > remaining:
                    continue
            else:
                c_aux = c_profiles = None
            trail.append(move)
            dfs(child, stage + 1, c_dist, move.to_lane, c_aux, c_profiles)
            trail.pop()

    try:
        if not (prune_bound and root_h > k_bar):
            dfs(model.initial, 0, 0, None, root_aux, root_profiles)
    finally:
        if counters is not None:
            counters.nodes_evaluated += nodes[0]
    if incumbent[0] is None:
        return None
    return SearchResult(moves=list(best_moves), distance=incumbent[0], nodes=nodes[0])


def solve_exact(
    config: LaneConfiguration,
    dmat,
    astar_solution: Solution,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    depth_correction: bool = False,
):
    """Minimal moves, then minimal total loaded distance; exact on both.

    Deepens k-bar from the root lower bound; the A* solution supplies both
    the distance upper bound and the move-count ceiling (its k is already
    minimal, so the loop always terminates at or before it).
    """
    started = time.perf_counter()
    deadline = started + timeout_s
    stats = SolveStats(optimal_moves=True, optimal_distance=True)
    h0 = bounds.lb(config)
    if h0 == bounds.INFEASIBLE:
        stats.wall_time = time.perf_counter() - started
        return Infeasible(stats)
    c_ub = astar_solution.total_distance
    for k_bar in range(int(h0), astar_solution.k + 1):
        model = build_model(config, k_bar, dmat, c_ub, depth_correction)
        try:
            result = complete_search(model, deadline=deadline, counters=stats)
        except DeadlineReached:
            stats.wall_time = time.perf_counter() - started
            return TimedOut(stats, k_bar_reached=k_bar)
        if result is not None:
            stats.wall_time = time.perf_counter() - started
            return Solution(
                algo="exact",
                moves=tuple(result.moves),
                k=k_bar,
                total_distance=result.distance,
                stats=stats,
            )
    # Unreachable when the A* answer is sound: its own plan is relay-free
    # and within c_ub, so k_bar = astar.k is always feasible.
    stats.wall_time = time.perf_counter() - started
    return Infeasible(stats)
