"""Move-count-optimal A* over lane configurations, with partial expansion.

Nodes are popped from the open queue by lexicographic (f, h, dist, tie),
where f = g + h, g is the move count so far, h the admissible lower bound,
dist the total loaded move distance from the root and tie the pair
(expansion number, n) of the expansion that offered the node, n the place
of the offer in the search's sequence of offers.
The goal test happens at pop time; a popped node is closed and never
re-expanded.

Expansion is partial (Yoshizumi, Miura & Ishida, AAAI 2000), and its
children are listed, not generated and filtered (enhanced partial
expansion: Felner et al., AAAI 2012; Goldenberg et al., JAIR 2014).
Expanding a node at value F asks ``bounds.Siblings.select`` for the
children with h <= F - g - 1, that is f <= F, and for the least h above
that.  The listing reads classes of source lanes and of target lanes off
the parent's lane profiles, and gives one h to all children of a (source
class, target class) pair; it computes an h per child only where GX may be
positive.  The other children are not offered, and most never get an h
of their own.
The offered children's moves are built by ``legal_moves`` for the listed
(source, target mask) pairs and pushed in that order, each with the next
number of one counter that the search keeps for its offers.  If some child has
f > F, the parent goes back on the queue as a re-entry with key
(F', -1, 0, (expansion number, 0)), F' the least such f.  h >= 0 for every
node, so the re-entry pops before any node of f = F'; popping it lists the
children again from the parent's configuration, surplus and profiles and
offers those with f <= F'.  A re-entry is not counted in
``nodes_evaluated``, closes nothing and is not goal-tested.

Duplicates are detected when a child pops, not when it is offered (delayed
duplicate detection: Korf, IJCAI 2003).  An offer is the queue entry
(f, h, dist, tie, parent, move); popping it builds the child with
``apply_move``, and the child is skipped if its ``state_key`` is in the
closed set, or else closed, counted and given its surplus and profiles by
``bounds.lb_incremental``, which computes its two lane changes through
the search's lane-change memo and no GX: the child's h came with its
offer.  h depends only on
the state and every tie is unique, so the first offer of a state to pop is
the least (f, dist, tie) offered for it so far: the record that a
store-every-child A* offering children in ``legal_moves`` order keeps (new,
better f, or the same f with a smaller dist).  The counter ties siblings as
their moves' order in ``legal_moves`` would: two children of one parent
with equal (f, h, dist) have the same h, so the first listing whose limit
reaches it offers both, in that order.  A child that a re-entry offers
again is an equal state with a larger counter, so it pops after its first
offer and is skipped as closed.  Offers of different parents compare
expansion numbers first.  So the plan, k, distance and node count are
those of the store-every-child search.

The search stops at one absolute ``time.perf_counter()`` deadline,
``math.inf`` for none, which ``pipeline`` derives from a budget.

The returned move count is provably minimal; the distance is only the
tie-broken heuristic value.  h is consistent (proved in the ``bounds``
docstring), so popped f never falls and a closed node stays closed.
"""

from __future__ import annotations

import gc
import itertools
import math
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
    legal_moves,
    state_key,
)

def solve_astar(config: LaneConfiguration, dmat, deadline: float = math.inf):
    """Solve for the minimal move count; Solution, TimedOut or Infeasible.

    The search stops with TimedOut once ``time.perf_counter()`` reaches
    ``deadline``, ``math.inf`` for none.  The clock is read before each pop
    and, inside an expansion, by ``Siblings.select``.

    The cyclic garbage collector is paused for the search and put back as
    the caller had it.  Nodes link only to their parents, so the search
    makes no cycles for it to find; left running, it would still be started
    by the offers, each a queue entry, a tie and a ``Move``, and its full
    collections walk the whole queue: on 6x6/6x6/0.8/G10/s1 (635 lanes,
    280,090 offers for 98 nodes) 1,758 collections, 9 of them full.
    Measured on a 2-vCPU host, medians of 10 alternating pairs, the pause
    cuts A*'s CPU time there from 3.9 to 3.1 s (lower in 10 of 10) and
    ``astar-wide``'s ``plan_s`` from 0.374 to 0.357 s (lower in 9 of 10);
    peak RSS is the same to 0.01 MB.
    """
    started = time.perf_counter()
    stats = SolveStats(optimal_moves=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        surplus, profiles, h0 = bounds.lb_state(config)
        closed = {state_key(config)}
        # A popped node is (parent, move, g, dist, config, surplus, profiles).
        # An entry (f, h, dist, tie, node, move) offers the child that move
        # makes of node; move is None for the root and for a re-entry
        # (h = -1) of an expanded node.
        root = (None, None, 0, 0, config, surplus, profiles)
        open_heap = [(h0, h0, 0, (0, 0), root, None)]
        # Lane changes seen by this search's pops and listings, shared between
        # parents.  Its keys hold for this instance's G only, so the memo dies
        # with the search.
        touched: dict[tuple, tuple] = {}
        offered = itertools.count(1)
        while open_heap:
            if time.perf_counter() >= deadline:
                return TimedOut(stats)
            f, h, dist, tie, node, move = heappop(open_heap)
            if move is not None:
                config = apply_move(node[4], move)
                key = state_key(config)
                if key in closed:
                    continue
                closed.add(key)
                surplus, profiles = bounds.lb_incremental(node[5], node[6], move, config, touched)
                node = (node, move, node[2] + 1, dist, config, surplus, profiles)
            _parent, _move, g, dist, config, surplus, profiles = node
            if h < 0:
                expansion = tie[0]
            else:
                stats.nodes_evaluated += 1
                expansion = stats.nodes_evaluated
                if config.blocking_total == 0:
                    return Solution(algo="astar", moves=tuple(_path(node)), k=g,
                                    total_distance=dist, stats=stats)

            siblings = bounds.Siblings(config, surplus, profiles, touched)
            c_g = g + 1
            # One expansion of a large instance can take a while: the listing
            # looks at the clock inside it too.
            listed = siblings.select(f - c_g, deadline)
            if listed is None:
                return TimedOut(stats)
            groups, above = listed
            if groups:
                moves = legal_moves(config, dmat, [group[:2] for group in groups])
                hs = [c_h for _src, mask, c_h in groups for _ in range(mask.bit_count())]
                for move, c_h in zip(moves, hs):
                    heappush(open_heap, (c_g + c_h, c_h, dist + move.distance,
                                         (expansion, next(offered)), node, move))
            if above < math.inf:
                heappush(open_heap, (c_g + above, -1, 0, (expansion, 0), node, None))

        return Infeasible(stats)
    finally:
        stats.wall_time = time.perf_counter() - started
        if enabled:
            gc.enable()


def _path(node) -> list[Move]:
    moves = []
    while node[1] is not None:
        moves.append(node[1])
        node = node[0]
    moves.reverse()
    return moves
