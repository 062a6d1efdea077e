"""Exact distance optimizer: iterative deepening over the move count.

``complete_search`` looks for plans of exactly k-bar moves.  Each move
takes the front-most load of its source lane to the first empty slot of its
target lane, the final state must have zero blocking loads, the total
loaded distance may not exceed the upper bound c_ub, and a load may not
move twice in a row (the relay would collapse into a single cheaper move,
so the rule never cuts all optima).

Deepening starts at the lower bound of the initial state, evaluated once
per solve and handed to every stage, and stops at the move count of the
upper-bound plan: A*'s, which is minimal, or a
replay-valid plan read from a file, which need not be.  That plan's
distance caps only its own stage, since a plan of fewer moves beats it at
any distance.  The first feasible k-bar therefore equals the optimal move
count, and the complete search at that depth returns the minimum total
loaded distance among all optimal-length plans.

Children are taken from bitmasks over the lanes (bit i is lane i + 1), so
no (source, target) pair that a cut would drop is looked at.  Access points
and capacities never change during a search, so ``Targets``, built once per
search from the initial lanes, holds for each source lane the distinct
distances of its dmat row, each with the mask of the lanes at that
distance or less; one bisection gives the targets within a distance
budget.  Each node carries the mask of lanes with room and, per threshold,
the mask of lanes without blockers, patched from its parent's at the two
lanes a move touches.  The incumbent is the distance of the best plan
found so far, c_ub + 1 until one is found, so a plan counts only if it is
shorter.  A source's targets are then one mask expression: the lanes with
room other than itself, within the budget, incumbent - 1 minus the
distance so far (at a tight-stage node with GX = 0, less all of its
distance bound but the source's own term: below), and, when the child's
blocking count (BX) would otherwise exceed the stages left, only the
lanes that take its front load unblocked.  Since h = BX + GX with GX >= 0, that cuts only
what the full bound would cut.  The lane the last move filled is no source
(the relay rule).  ``legal_moves`` then builds the moves of those (source,
targets) pairs only.  After a child is built, its h decides: its surplus
and profiles from ``lb_incremental``, whose lane changes come from one memo
per search, and its GX from ``gx_bound`` capped at the stages left less its
BX.  That gives min(h, stages left + 1), so a child it does not cut has its
exact h.

A source's distances and masks are built the first time it still has
targets before the bisection, so the search reads distances from its
sources only, each computed by the dmat when it is read.  In the tight
stage below, where every move lowers h by exactly 1, GX = 0 at the root
limits these to the distances from lanes blocked at the root.  At a node with
GX = 0, BX = h exceeds the moves left after the next one, so only its
blocked lanes are sources; and a child has h - 1 only if its move takes a
blocker to a lane that it leaves unblocked, which keeps GX = 0 and blocks
no new lane.

The tight stage, k-bar = h0, allows three more cuts.  The bound is
consistent (proved in the ``bounds`` docstring), so h falls by at most 1
per move, and the search cuts every child with h > k-bar - s at stage s.
Every node at stage s therefore has h = k-bar - s exactly, and every move
lowers h by exactly 1:

* The stage is a function of the state, and no plan of the stage has a
  relay: a relay child at stage s equals a one-move child of its
  grandparent (or the grandparent itself), so its h is at least
  k-bar - s + 1 and the bound cuts it.  So the children of a node do not
  depend on how it was reached, and the memo is keyed by ``state_key``
  alone, not by (state, stage, last).
* Two moves on four distinct lanes commute: either order is legal, has no
  relay and reaches the same state at the same distance.  After the last
  move (a, b), a child (c, d) with {a, b} and {c, d} disjoint and
  (c, d) < (a, b) is skipped (partial-order reduction: Godefroid, LNCS
  1032, 1996).  For a source c < a other than b, that leaves only the
  targets a and b.
* A child with GX = 0, whose BX = h is the number of moves left, is cut
  when its distance plus ``Targets.distance_bound`` reaches the
  incumbent.  A move changes BX by at most 1, so each move left lowers it
  by exactly 1.  Only one kind of move does: it takes a
  blocker p from its lane s to a lane t != s that p joins unblocked, one
  with no blocker, a threshold >= p and a free slot.  So no prefix load
  moves, and each blocker moves exactly once.  A move lowers or keeps its target's threshold and free
  slots once cleared (free_after_clear), and a blocker leaving its lane
  changes neither.  So t already has a threshold >= p and
  free_after_clear >= 1 at the child.  A move's distance depends on its
  two lanes only.  The remaining distance is therefore at least the sum
  over the blockers of the least d(s, t) over such lanes t.  Such a lane
  exists: GX = 0 means that at the level of the highest blocker of s,
  the free slots of lanes with a threshold at least that high cover the
  blockers, and s is none of them, since its threshold is below its
  first blocker.  The bound reads those lanes off the child's masks.  A
  clean lane's prefix is all its loads, so it has a free slot once
  cleared exactly when it has room: at threshold g, the clean mask of g
  and the open mask.  A blocked lane, one in no clean mask, always has
  one, since its prefix is shorter than its contents and those fit its
  capacity.  So the lanes per threshold cost O(G + blocked lanes), not
  O(L), and the scan per blocker walks the blocked lanes only.

The distance bound also drops moves before their children are built:
reduced-cost fixing in its plainest form (Nemhauser & Wolsey, *Integer and
Combinatorial Optimization*, 1988).  Take a tight-stage node with GX = 0,
distance so far dist and bound B, and let m_s be B's term for the front
load p of blocked lane s.  Every move the node lists takes p from s to a
lane t that takes it unblocked (the narrowed masks of ``Targets.moves``).
In the child, t's threshold can only fall and its free slots once cleared
only shrink, s keeps both, and no other lane changes.  So every other
blocker's set of accepting lanes can only shrink and its term only grow,
and the child's bound is at least B - m_s.  The distance cut therefore
drops the child whenever d(s, t) > incumbent - 1 - dist - (B - m_s), and
``Targets.moves`` bisects the distances of source s by that budget in
place of the node's.  A node's B and terms are those its parent's
distance cut computed (the root's are computed once, when it has GX = 0);
they ride down the DFS path and never enter the memo.  This drops only
children the search would build and then cut.  A listed child whose h
exceeds the moves left is cut by h.  Any other has GX = 0, since its BX
is the moves left, so the distance cut tests it, unless it has no blocker
left, and then B = m_s and the budget is the node's.  The incumbent only falls after the moves
are listed.  The DFS counts nodes, not children, so no count changes.

No cut changes the plan.  The search returns P*, the least-distance
plan of k-bar moves that comes first in the order of its (source, target)
sequence, the order in which the DFS meets plans.  P* has no adjacent commuting pair out
of order: swapping it would give a smaller plan that is legal, has no
relay and has the same distance.  Nor does the memo cut P* at the state S
it reaches after s moves: an earlier visit of S came by a prefix Q that
precedes P*'s in DFS order, has the same length s (the stage is a function
of the state) and no higher distance, so Q followed by the rest of P*
would be a smaller optimal plan.  The distance cut drops only subtrees
that hold no plan below the incumbent, and it only falls, so a memo entry
at distance d still stands for every later visit at d or more.  Outside
the tight stage a swap can make a relay and a state is met at several
stages, so the first two cuts do not apply there.

The distance cut is not applied at GX = m > 0.  There m of the moves
left take sorted-prefix loads out, which raises their lanes' thresholds
and free slots: a blocker may then land in a lane that cannot take it
now, and those m moves carry no blocker.  A bound that relaxes each lane
for m removals is plausible but unproven, so such nodes stay uncut.  Nor
is it applied outside the tight stage, where the optimal move count
exceeds the root bound.  The argument above holds there at a node whose
BX equals the moves left, but no grid instance measured has such a
stage, and its search stays as it was.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right

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

#: The (B, fronts) of a node that has no distance bound: one budget for
#: every source.
NO_BOUND: tuple[int, dict[int, int]] = (0, {})


class DeadlineReached(Exception):
    """Internal signal: the search hit its wall-clock deadline."""


class Targets:
    """The moves of a search's states, taken from bitmasks over its lanes.

    Built from the initial configuration: every state of the search shares
    its access points and capacities, so for each source lane the ascending
    distinct distances of its dmat row over the lanes, each with the mask of
    the lanes at that distance or less, hold in every state of the search.
    A source's distances and masks are built the first time ``moves`` or
    ``distance_bound`` needs them, so no distance from a lane that is never
    a source or blocked is read.
    """

    def __init__(self, initial: LaneConfiguration, dmat):
        self.points = initial.points
        self.dmat = dmat
        self.groups = initial.groups
        self.capacity = initial.capacities
        #: per source lane: (distances, masks), None until first read
        self.reach: list[tuple[list[int], list[int]] | None] = [None] * len(self.points)

    def _reach(self, src: int) -> tuple[list[int], list[int]]:
        """The ascending distinct distances from lane index ``src`` to the
        lanes, each with the mask of the lanes at that distance or less."""
        points = self.points
        p = points[src]
        row = [self.dmat.between(p, q) for q in points]
        dists: list[int] = []
        masks: list[int] = []
        mask = 0
        for idx in sorted(range(len(row)), key=row.__getitem__):
            mask |= 1 << idx
            if dists and dists[-1] == row[idx]:
                masks[-1] = mask
            else:
                dists.append(row[idx])
                masks.append(mask)
        self.reach[src] = dists, masks
        return dists, masks

    def distance_bound(self, config: LaneConfiguration, profiles, open_mask: int,
                       clean) -> tuple[int, dict[int, int]]:
        """(B, fronts) of a tight-stage state ``config`` with GX = 0, lane
        ``profiles`` and the ``open_mask`` and ``clean`` that ``masks``
        gives it.  B, a lower bound on the distance still to come, is the
        sum over its blockers of the least distance from the blocker's lane
        to another lane with a threshold >= the blocker and a free slot
        once cleared; GX = 0 gives every blocker such a lane (module
        docstring).  ``fronts`` maps each blocked lane's index to the term
        of its front load, m_s: a move that takes that load to a lane where
        it blocks nothing leaves a child whose B is at least B - m_s.  The
        masks give the lanes that take a blocker: a clean one has a free
        slot once cleared when it has room, a blocked one always.
        """
        accept = [mask & open_mask for mask in clean]  # [g - 1]: lanes that take group g
        # A lane without blockers sits in one clean mask, so their sum is
        # their union.
        rest = (1 << len(profiles)) - 1 - sum(clean)
        blocked = []
        while rest:
            low = rest & -rest
            rest ^= low
            src = low.bit_length() - 1
            prof = profiles[src]
            blocked.append((src, prof))
            accept[prof.threshold - 1] |= low
        for g in range(self.groups - 1, 0, -1):
            accept[g - 1] |= accept[g]
        total = 0
        fronts = {}
        contents = config.contents
        for src, prof in blocked:
            dists, masks = self.reach[src] or self._reach(src)
            others = ~(1 << src)
            front = contents[src][-1]
            at = 0
            # Ascending blockers accept shrinking lane sets, so each one's
            # least distance is at or after the one before's.
            for load in prof.blocking_suffix:
                lanes = accept[load - 1] & others
                while not masks[at] & lanes:
                    at += 1
                total += dists[at]
                if load == front:
                    fronts[src] = dists[at]
        return total, fronts

    def masks(self, config: LaneConfiguration, profiles) -> tuple[int, list[int]]:
        """The mask of lanes with room and, from ``profiles``, the
        per-threshold masks of lanes without blockers (empty lanes sit at
        threshold G)."""
        open_mask = 0
        for idx, (loads, capacity) in enumerate(zip(config.contents, self.capacity)):
            if len(loads) < capacity:
                open_mask |= 1 << idx
        clean = [0] * self.groups
        for idx, prof in enumerate(profiles):
            if not prof.blocking_suffix:
                clean[prof.threshold - 1] |= 1 << idx
        return open_mask, clean

    def child_masks(self, open_mask: int, clean, move: Move, profiles, c_profiles):
        """``masks`` of the child ``move`` makes, patched at its two lanes."""
        src, dst = move.from_lane - 1, move.to_lane - 1
        open_mask |= 1 << src
        if move.to_pos == self.capacity[dst]:
            open_mask &= ~(1 << dst)
        clean = list(clean)
        for idx in (src, dst):
            old, new = profiles[idx], c_profiles[idx]
            if not old.blocking_suffix:
                clean[old.threshold - 1] &= ~(1 << idx)
            if not new.blocking_suffix:
                clean[new.threshold - 1] |= 1 << idx
        return open_mask, clean

    def moves(self, config: LaneConfiguration, open_mask: int, clean, last: int | None,
              budget: int, fronts: dict[int, int], remaining: int,
              commute: tuple[int, int] | None) -> list[Move]:
        """The legal moves of ``config`` in (source, target) order, less those
        from lane index ``last``, those longer than ``budget`` plus their
        source's entry in ``fronts`` (0 for a source it lacks), those whose
        child has more than ``remaining`` blocking loads and, unless
        ``commute`` is None, those on two lanes other than its (source,
        target) lane indices that precede it; ``open_mask`` and ``clean`` are
        ``masks(config, ...)``.  At a tight-stage node with GX = 0 the search
        passes the node's budget less its distance bound B, and the bound's
        ``fronts``, so source s bisects by budget - (B - m_s).
        """
        lanes = config.contents
        sources = (1 << len(lanes)) - 1
        if last is not None:
            sources &= ~(1 << last)
        # A source below the commuting move's, other than its target, may
        # only move to one of its two lanes.
        below = paired = 0
        if commute is not None:
            a, b = commute
            paired = (1 << a) | (1 << b)
            below = ((1 << a) - 1) & ~(1 << b)
        # A move takes a blocker away only from a lane that has one, and adds
        # one unless its target has no blockers and a threshold >= the load.
        narrowed = 0
        if config.blocking_total >= remaining:
            if config.blocking_total > remaining + 1:
                return []
            accept = [0] * (self.groups + 1)
            for g in range(self.groups, 0, -1):
                accept[g - 1] = accept[g] | clean[g - 1]
            without = accept[0]
            if config.blocking_total > remaining:
                sources &= ~without
                narrowed = sources
            else:
                narrowed = without
        pairs = []
        while sources:
            low = sources & -sources
            sources ^= low
            src = low.bit_length() - 1
            contents = lanes[src]
            if not contents:
                continue
            targets = open_mask & ~low
            if narrowed & low:
                targets &= accept[contents[-1] - 1]
            if below & low:
                targets &= paired
            if not targets:
                continue
            dists, masks = self.reach[src] or self._reach(src)
            within = bisect_right(dists, budget + fronts.get(src, 0))
            targets &= masks[within - 1] if within else 0
            if targets:
                pairs.append((src, targets))
        return legal_moves(config, self.dmat, pairs)


def complete_search(
    initial: LaneConfiguration,
    k_bar: int,
    dmat,
    c_ub: int,
    *,
    deadline: float,
    counters: SolveStats,
    root: tuple,
) -> tuple[list[Move], int] | None:
    """(moves, distance) of the least-distance plan of exactly ``k_bar``
    moves within ``c_ub``, by exhaustive DFS; None when there is none.
    Each node visited adds 1 to ``counters.nodes_evaluated``, and the search
    raises ``DeadlineReached`` once ``time.perf_counter()`` reaches
    ``deadline`` (``math.inf`` for none).  ``root`` is
    ``bounds.lb_state(initial)``, (surplus, profiles, h): the root is the
    same in every stage of a solve, so ``solve_exact`` evaluates it once.

    The incumbent, the distance of the best plan found so far, starts at
    ``c_ub + 1``; none was found while it stays above ``c_ub``.

    The memo, the distance budget and the bound cut every node; the
    tight-stage cuts, the distance bound at GX = 0 and its per-source
    budgets among them, apply when the root's h equals ``k_bar``.  None of
    them changes the plan: child order is (source lane id, target lane id),
    and the plan returned is P* of the module docstring, the first
    least-distance plan in that order.
    """
    if k_bar < 0:
        raise ValueError("k_bar must be nonnegative")
    if c_ub < 0:
        raise ValueError("c_ub must be nonnegative")
    incumbent = c_ub + 1
    best_moves: list[Move] = []
    memo: dict[tuple, int] = {}
    # The lane-change memo of ``bounds.cached_lane_change``.  Its keys hold for
    # this instance's G only, so it lives no longer than this search.
    touched: dict[tuple, tuple] = {}
    root_surplus, root_profiles, root_h = root
    tight = root_h == k_bar
    targets = Targets(initial, dmat)
    trail: list[Move] = []

    def dfs(config, stage, dist, last, commute, surplus, profiles, open_mask, clean,
            bound) -> None:
        nonlocal incumbent
        counters.nodes_evaluated += 1
        if time.perf_counter() >= deadline:
            raise DeadlineReached
        if stage == k_bar:
            if config.blocking_total == 0 and dist < incumbent:
                incumbent = dist
                best_moves[:] = trail
            return
        key = state_key(config) if tight else (state_key(config), stage, last)
        known = memo.get(key)
        if known is not None and known <= dist:
            return
        memo[key] = dist
        remaining = k_bar - (stage + 1)
        # ``bound`` is the node's (B, fronts) at a tight-stage node with
        # GX = 0 and NO_BOUND elsewhere.  A move from lane s has a child whose
        # bound is at least B - fronts[s] (module docstring), so s may spend
        # budget - (B - fronts[s]).
        total, fronts = bound
        budget = incumbent - 1 - dist - total
        for move in targets.moves(config, open_mask, clean, last, budget, fronts, remaining,
                                  commute):
            c_dist = dist + move.distance
            # The incumbent can fall while this node's children are searched,
            # so the budget may be stale by now.
            if c_dist >= incumbent:
                continue
            child = apply_move(config, move)
            c_surplus, c_profiles = bounds.lb_incremental(surplus, profiles, move, child, touched)
            c_h = child.blocking_total + bounds.gx_bound(
                c_surplus, c_profiles, remaining - child.blocking_total)
            if c_h > remaining:
                continue
            c_open, c_clean = targets.child_masks(open_mask, clean, move, profiles, c_profiles)
            c_bound = NO_BOUND
            if tight and c_h == child.blocking_total > 0:
                c_bound = targets.distance_bound(child, c_profiles, c_open, c_clean)
                if c_dist + c_bound[0] >= incumbent:
                    continue
            trail.append(move)
            c_last = move.to_lane - 1
            c_commute = (move.from_lane - 1, c_last) if tight else None
            dfs(child, stage + 1, c_dist, c_last, c_commute, c_surplus, c_profiles,
                c_open, c_clean, c_bound)
            trail.pop()

    try:
        if root_h <= k_bar:
            root_masks = targets.masks(initial, root_profiles)
            root_bound = NO_BOUND
            if tight and root_h == initial.blocking_total > 0:
                root_bound = targets.distance_bound(initial, root_profiles, *root_masks)
            dfs(initial, 0, 0, None, None, root_surplus, root_profiles, *root_masks, root_bound)
    finally:
        # dfs reaches itself through its closure: without this the memo
        # would wait for the cyclic collector instead of dying here.
        del dfs
    if incumbent > c_ub:
        return None
    return list(best_moves), incumbent


def solve_exact(config: LaneConfiguration, dmat, astar_solution: Solution,
                deadline: float = math.inf):
    """Minimal moves, then minimal total loaded distance; exact on both.

    Deepens k-bar from the root lower bound up to the move count of
    ``astar_solution``, any replay-valid plan, whose distance caps that last
    stage only (module docstring).  The root is evaluated once, by
    ``bounds.lb_state``, and every stage is handed that (surplus, profiles,
    h).  Every stage stops at one ``deadline``, a ``time.perf_counter()``
    reading (``math.inf`` for none), and the solve then returns TimedOut.
    """
    started = time.perf_counter()
    stats = SolveStats(optimal_moves=True, optimal_distance=True)
    try:
        root = bounds.lb_state(config)  # (surplus, profiles, h)
        for k_bar in range(root[2], astar_solution.k + 1):
            # An int, not math.inf: ``complete_search`` finds no plan when its
            # incumbent, c_ub + 1, stays above c_ub.
            c_ub = astar_solution.total_distance if k_bar == astar_solution.k else sys.maxsize
            try:
                result = complete_search(config, k_bar, dmat, c_ub, deadline=deadline,
                                         counters=stats, root=root)
            except DeadlineReached:
                return TimedOut(stats, k_bar_reached=k_bar)
            if result is not None:
                moves, distance = result
                return Solution(algo="exact", moves=tuple(moves), k=k_bar,
                                total_distance=distance, stats=stats)
        # Unreachable when the bound plan replays: with no relay it is a
        # plan of its own stage, and a relay collapses into a plan of fewer
        # moves, which an uncapped stage below finds.
        return Infeasible(stats)
    finally:
        stats.wall_time = time.perf_counter() - started
