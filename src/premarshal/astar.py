"""Move-count-optimal A* over lane configurations, with partial expansion.

Nodes are popped from the open queue by lexicographic (f, h, dist, tie),
where f = g + h, g is the move count so far, h the admissible lower bound,
dist the total loaded move distance from the root and tie the pair
(expansion number, n) of the expansion that offered the node, n the rank
of the node's move among its parent's moves.
The goal test happens at pop time; a popped node is closed and never
re-expanded.

Expansion is partial (Yoshizumi, Miura & Ishida, AAAI 2000), and its
children are listed, not generated and filtered (enhanced partial
expansion: Felner et al., AAAI 2012; Goldenberg et al., JAIR 2014).
Expanding a node at value F asks ``bounds.Siblings.select`` for the
children with h <= F - g - 1, that is f <= F, and for the least h above
that.  The listing works on classes of target lanes that give every child
of one source the same h, so it computes an h per child only where GX may
be positive; the other children are neither keyed nor stored, and most
never get an h.  The kept children's moves are built by ``legal_moves``
for the listed (source, target mask) pairs, and each child's tie is the
rank n of its move among all of the parent's moves in ``legal_moves``
order.  If some child has f > F, the parent goes back on the queue as a
re-entry with key (F', -1, 0, (expansion number, 0)), F' the least such f.
h >= 0 for every node, so the re-entry pops before any node of f = F';
popping it lists the children again from the parent's configuration,
surplus and profiles and offers those with f <= F'.  A re-entry is not
counted in ``nodes_evaluated``, closes nothing and is not goal-tested.  A
child offered again has the same (f, dist, tie) as before, so its second
offer is never admitted.

A child is admitted when its key is not closed and it is new or its
(f, dist, tie) is lexicographically below the stored record's.  Children
offered in ``legal_moves`` order, as a store-every-child A* offers them, give
that search's rule (new, better f, or the same f with a smaller dist); the
tie term makes the winning record independent of the order in which
deferred children are offered.  So the plan, k, distance and node count are
those of the store-every-child search.

Children are not built when they are offered either.  A record keeps the
parent, the move, its key, g, dist, f and tie; its configuration, bound
surplus and lane profiles are built only when it is popped, from the
parent's through ``apply_move`` and ``bounds.lb_incremental``.  A child's key is
patched from its parent's key (``child_key``).

The returned move count is provably minimal; the distance is only the
tie-broken heuristic value.  h is consistent (proved in the ``bounds``
docstring), so popped f never falls and a closed node stays closed.
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


class _Record:
    """One admitted state: how it was reached, its key, f and tie.

    The parent is the record object, not its key: a key's record may be
    replaced by a later, cheaper admission, but an already-linked chain must
    keep the g/dist values it was built with.  A replaced record is marked
    closed so that its queue entry is skipped.  ``config``, ``surplus`` and
    ``profiles`` stay None until the record is popped.
    """

    __slots__ = ("parent", "move", "key", "g", "dist", "f", "tie", "closed",
                 "config", "surplus", "profiles")

    def __init__(self, parent: "_Record | None", move: Move | None, key: tuple,
                 g: int, dist: int, f, tie: tuple[int, int]):
        self.parent = parent
        self.move = move
        self.key = key
        self.g = g
        self.dist = dist
        self.f = f
        self.tie = tie
        self.closed = False
        self.config: LaneConfiguration | None = None
        self.surplus = None
        self.profiles = None


def solve_astar(
    config: LaneConfiguration,
    dmat,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    depth_correction: bool = False,
):
    """Solve for the minimal move count; Solution, TimedOut or Infeasible.

    The cyclic garbage collector is paused for the search and put back as
    the caller had it.  Records link only to their parents, so the search
    makes no cycles for it to find; left running, it would still be started
    by the records, keys and lane profiles the search allocates: about 14
    collections and 8% of A*'s CPU time over the four ``astar-wide``
    instances, some 15 ms of the benchmark's ``plan_s`` there, measured on a
    2-vCPU host.  The pause costs about 0.25 MB of peak RSS.
    """
    started = time.perf_counter()
    stats = SolveStats(optimal_moves=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        surplus, profiles, h0 = bounds.lb_state(config)
        root_rec = _Record(None, None, state_key(config), 0, 0, h0, (0, 0))
        root_rec.config, root_rec.surplus, root_rec.profiles = config, surplus, profiles
        records: dict[tuple, _Record] = {root_rec.key: root_rec}
        # (f, h, dist, tie, record); h = -1 marks a re-entry of an expanded record.
        open_heap = [(h0, h0, 0, root_rec.tie, root_rec)]
        # Lane changes seen by this search's listings, shared between parents.
        touched: dict[tuple, tuple] = {}

        def expired():
            return time.perf_counter() - started >= timeout_s

        while open_heap:
            if expired():
                return TimedOut(stats)
            f, h, _dist, tie, rec = heappop(open_heap)
            if h < 0:
                expansion = tie[0]
            else:
                if rec.closed:
                    continue
                rec.closed = True
                stats.nodes_evaluated += 1
                expansion = stats.nodes_evaluated
                if rec.config is None:
                    parent = rec.parent
                    rec.config = apply_move(parent.config, rec.move)
                    rec.surplus, rec.profiles, _h = bounds.lb_incremental(
                        parent.surplus, parent.profiles, rec.move, rec.config
                    )

                if rec.config.blocking_total == 0:
                    return Solution(
                        algo="astar",
                        moves=tuple(_path(rec)),
                        k=rec.g,
                        total_distance=rec.dist,
                        stats=stats,
                    )

            siblings = bounds.Siblings(rec.config, rec.surplus, rec.profiles, touched)
            c_g = rec.g + 1
            # One expansion of a large instance can take a while: the listing
            # looks at the clock inside it too.
            listed = siblings.select(f - c_g, expired)
            if listed is None:
                return TimedOut(stats)
            groups, above = listed
            if groups:
                moves = legal_moves(rec.config, dmat, depth_correction, [g[:2] for g in groups])
                hs = [c_h for _src, mask, c_h in groups for _ in range(mask.bit_count())]
                for move, c_h in zip(moves, hs):
                    c_key = child_key(rec.key, move)
                    c_f = c_g + c_h
                    c_dist = rec.dist + move.distance
                    c_tie = (expansion, siblings.rank(move.from_lane - 1, move.to_lane - 1))
                    old = records.get(c_key)
                    if old is not None:
                        if old.closed or (c_f, c_dist, c_tie) >= (old.f, old.dist, old.tie):
                            continue
                        old.closed = True
                    child = records[c_key] = _Record(rec, move, c_key, c_g, c_dist, c_f, c_tie)
                    heappush(open_heap, (c_f, c_h, c_dist, c_tie, child))
            if above is not None:
                heappush(open_heap, (c_g + above, -1, 0, (expansion, 0), rec))

        return Infeasible(stats)
    finally:
        stats.wall_time = time.perf_counter() - started
        if enabled:
            gc.enable()


def _path(rec) -> list[Move]:
    moves = []
    while rec.move is not None:
        moves.append(rec.move)
        rec = rec.parent
    moves.reverse()
    return moves
