"""Move-count-optimal A* over lane configurations.

Nodes are popped from the open queue by lexicographic (f, h, dist) with
insertion order as the final tie-breaker, where f = g + h, g is the move
count so far, h the admissible lower bound and dist the total loaded move
distance from the root.  The goal test happens at pop time; a popped node
joins the closed set and is never re-expanded.  A successor is admitted when
its key is not closed and it is new, improves the stored f, or matches the
stored f with a strictly smaller dist.

The returned move count is provably minimal; the distance is only the
tie-broken heuristic value.  h may be non-monotone even though admissible:
popped f values are monitored, and if one ever decreases the whole search is
restarted with re-expansion semantics (closed nodes are reopened on
improvement), which restores optimality unconditionally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

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

DEFAULT_TIMEOUT_S = 600.0

_RESTART = object()


@dataclass
class _Record:
    config: LaneConfiguration
    g: int
    dist: int
    f: float
    aux: object
    profiles: tuple
    # Parent is the record object, not its key: a key's record may be
    # replaced by a later, cheaper admission, but an already-linked chain
    # must keep the g/dist values it was built with.
    parent: "_Record | None"
    move: Move | None


def solve_astar(
    config: LaneConfiguration,
    dmat,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    depth_correction: bool = False,
):
    """Solve for the minimal move count; Solution, TimedOut or Infeasible."""
    started = time.perf_counter()
    result = _search(config, dmat, started, timeout_s, depth_correction, reopen=False)
    if result is _RESTART:
        result = _search(config, dmat, started, timeout_s, depth_correction, reopen=True)
    return result


def _search(root, dmat, started, timeout_s, depth_correction, reopen):
    aux, profiles, h0 = bounds.lb_state(root)
    stats = SolveStats(optimal_moves=True)
    if h0 is bounds.INFEASIBLE:
        stats.wall_time = time.perf_counter() - started
        return Infeasible(stats)

    root_key = state_key(root)
    records: dict[tuple, _Record] = {
        root_key: _Record(root, 0, 0, h0, aux, profiles, None, None)
    }
    open_heap = [(h0, h0, 0, 0, root_key)]
    pushes = 1
    closed: set[tuple] = set()
    last_f = 0.0

    while open_heap:
        if time.perf_counter() - started >= timeout_s:
            stats.wall_time = time.perf_counter() - started
            return TimedOut(stats)
        f, h, dist, _, key = heappop(open_heap)
        if key in closed:
            continue
        if not reopen and f < last_f:
            # The heuristic proved non-monotone along this run; redo the
            # search with re-expansion so no closed node can hide a
            # shorter plan.
            return _RESTART
        last_f = f
        closed.add(key)
        rec = records[key]
        stats.nodes_evaluated += 1

        if rec.config.blocking_total == 0:
            stats.wall_time = time.perf_counter() - started
            return Solution(
                algo="astar",
                moves=tuple(_path(rec)),
                k=rec.g,
                total_distance=rec.dist,
                stats=stats,
            )

        for n, move in enumerate(legal_moves(rec.config, dmat, depth_correction), 1):
            # One expansion of a large instance can take seconds: look at the
            # clock inside it too, cheaply.
            if not n & 1023 and time.perf_counter() - started >= timeout_s:
                stats.wall_time = time.perf_counter() - started
                return TimedOut(stats)
            child = apply_move(rec.config, move)
            child_key = state_key(child)
            if child_key in closed and not reopen:
                continue
            c_aux, c_profiles, c_h = bounds.lb_incremental(rec.aux, rec.profiles, move, child)
            if c_h is bounds.INFEASIBLE:
                continue
            c_g = rec.g + 1
            c_dist = rec.dist + move.distance
            c_f = c_g + c_h
            known = records.get(child_key)
            if known is not None and not (
                known.f > c_f or (known.f == c_f and known.dist > c_dist)
            ):
                continue
            if reopen:
                closed.discard(child_key)
            records[child_key] = _Record(child, c_g, c_dist, c_f, c_aux, c_profiles, rec, move)
            pushes += 1
            heappush(open_heap, (c_f, c_h, c_dist, pushes, child_key))

    stats.wall_time = time.perf_counter() - started
    return Infeasible(stats)


def _path(rec) -> list[Move]:
    moves = []
    while rec.move is not None:
        moves.append(rec.move)
        rec = rec.parent
    moves.reverse()
    return moves
