"""Move-count-optimal A* over lane configurations.

Nodes are popped from the open queue by lexicographic (f, h, dist) with
insertion order as the final tie-breaker, where f = g + h, g is the move
count so far, h the admissible lower bound and dist the total loaded move
distance from the root.  The goal test happens at pop time; a popped node
is closed and never re-expanded.  A successor is admitted when its key is
not closed and it is new, improves the stored f, or matches the stored f
with a strictly smaller dist.

Children are not built when they are generated.  A record keeps the parent,
the move, g, dist and f; its configuration, bound aux and lane profiles are
built only when it is popped, from the parent's through ``apply_move`` and
``bounds.lb_incremental``.  A child's key is patched from its parent's key
(``child_key``), and its h comes from ``bounds.Siblings``, which works from
the parent's profiles, the two touched lanes and results shared between
the children of one expansion.

The returned move count is provably minimal; the distance is only the
tie-broken heuristic value.  h may be non-monotone even though admissible:
popped f values are monitored, and if one ever decreases the whole search is
restarted with re-expansion semantics (closed nodes are reopened on
improvement), which restores optimality unconditionally.
"""

from __future__ import annotations

import gc
import time
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
    child_key,
    legal_moves,
    state_key,
)

DEFAULT_TIMEOUT_S = 600.0

_RESTART = object()


class _Record:
    """One admitted state: how it was reached and its f.

    The parent is the record object, not its key: a key's record may be
    replaced by a later, cheaper admission, but an already-linked chain must
    keep the g/dist values it was built with.  ``config``, ``aux`` and
    ``profiles`` stay None until the record is popped.
    """

    __slots__ = ("parent", "move", "g", "dist", "f", "closed", "config", "aux", "profiles")

    def __init__(self, parent: "_Record | None", move: Move | None, g: int, dist: int, f):
        self.parent = parent
        self.move = move
        self.g = g
        self.dist = dist
        self.f = f
        self.closed = False
        self.config: LaneConfiguration | None = None
        self.aux = None
        self.profiles = None


def solve_astar(
    config: LaneConfiguration,
    dmat,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    depth_correction: bool = False,
):
    """Solve for the minimal move count; Solution, TimedOut or Infeasible.

    The cyclic garbage collector is paused for the search and put back as
    the caller had it: records link only to their parents, so the search
    makes no cycles, and every full collection would walk all it keeps.
    """
    started = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = _search(config, dmat, started, timeout_s, depth_correction, reopen=False)
        if result is _RESTART:
            result = _search(config, dmat, started, timeout_s, depth_correction, reopen=True)
    finally:
        if enabled:
            gc.enable()
    return result


def _search(root, dmat, started, timeout_s, depth_correction, reopen):
    aux, profiles, h0 = bounds.lb_state(root)
    stats = SolveStats(optimal_moves=True)
    if h0 is bounds.INFEASIBLE:
        stats.wall_time = time.perf_counter() - started
        return Infeasible(stats)

    root_key = state_key(root)
    root_rec = _Record(None, None, 0, 0, h0)
    root_rec.config, root_rec.aux, root_rec.profiles = root, aux, profiles
    records: dict[tuple, _Record] = {root_key: root_rec}
    open_heap = [(h0, h0, 0, 0, root_key)]
    pushes = 1
    last_f = 0.0

    while open_heap:
        if time.perf_counter() - started >= timeout_s:
            stats.wall_time = time.perf_counter() - started
            return TimedOut(stats)
        f, h, dist, _, key = heappop(open_heap)
        rec = records[key]
        if rec.closed:
            continue
        if not reopen and f < last_f:
            # The heuristic proved non-monotone along this run; redo the
            # search with re-expansion so no closed node can hide a
            # shorter plan.
            return _RESTART
        last_f = f
        rec.closed = True
        stats.nodes_evaluated += 1
        if rec.config is None:
            parent = rec.parent
            rec.config = apply_move(parent.config, rec.move)
            rec.aux, rec.profiles, _h = bounds.lb_incremental(
                parent.aux, parent.profiles, rec.move, rec.config
            )

        if rec.config.blocking_total == 0:
            stats.wall_time = time.perf_counter() - started
            return Solution(
                algo="astar",
                moves=tuple(_path(rec)),
                k=rec.g,
                total_distance=rec.dist,
                stats=stats,
            )

        child_h = bounds.Siblings(rec.config, rec.aux, rec.profiles).h
        c_g = rec.g + 1
        for n, move in enumerate(legal_moves(rec.config, dmat, depth_correction), 1):
            # One expansion of a large instance can take seconds: look at the
            # clock inside it too, cheaply.
            if not n & 1023 and time.perf_counter() - started >= timeout_s:
                stats.wall_time = time.perf_counter() - started
                return TimedOut(stats)
            c_h = child_h(move)
            if c_h is bounds.INFEASIBLE:
                continue
            c_key = child_key(key, move)
            c_dist = rec.dist + move.distance
            c_f = c_g + c_h
            child = _Record(rec, move, c_g, c_dist, c_f)
            # One hash of the key for a new state, the common case.
            known = records.setdefault(c_key, child)
            if known is not child:
                if known.closed and not reopen:
                    continue
                if not (known.f > c_f or (known.f == c_f and known.dist > c_dist)):
                    continue
                records[c_key] = child
            pushes += 1
            heappush(open_heap, (c_f, c_h, c_dist, pushes, c_key))

    stats.wall_time = time.perf_counter() - started
    return Infeasible(stats)


def _path(rec) -> list[Move]:
    moves = []
    while rec.move is not None:
        moves.append(rec.move)
        rec = rec.parent
    moves.reverse()
    return moves
