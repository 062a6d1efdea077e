"""Admissible lower bound h = n_BX + n_GX on remaining moves.

BX counts blocking loads: each must move at least once.  GX counts forced
moves of currently well-placed loads, derived from a supply-and-demand
covering model: every blocking load of group g needs a slot in a lane whose
threshold (group of the front-most load of the sorted prefix, or G for an
empty prefix) is at least g; if the free slots at sufficient thresholds do
not cover the demand, prefix loads must be removed to raise thresholds and
free slots, and every such removal is one extra move.  The covering problem
is solved exactly per call, so the bound is as tight as this relaxation
permits while remaining admissible.

The bound passes one vector from node to node, the surplus: ``surplus[g-1]``
is the demand at groups >= g less the supply at thresholds >= g, and the
levels where it is positive are the ones a cover must raise.

A cover always exists, so GX is finite.  Clearing every sorted prefix puts
every load in the demand and frees every slot at threshold G.  At every
level g the demand is then at most the number of loads, which is at most
the total capacity, and that capacity is the supply at every level.  So GX
is at most the total prefix length, the cost of full clearing.

The covering problem is a dynamic program over the lanes, memoised on (lane
index, residual demand clipped at 0).  Clipping is exact because no gain is
negative: removing front prefix loads never lowers a lane's threshold, and a
removed load of group >= g leaves a threshold >= g behind it, so the slot it
freed pays for the demand it adds.  A level once covered stays covered.

h is consistent: h(parent) <= h(child) + 1 for every legal move, so a
node A* closes already has its least g (Pearl, *Heuristics*, 1984,
section 3.2; Felner et al., "Inconsistent heuristics in theory and
practice", AIJ 2011).  A cover is a choice of r_l removals per lane after
which supply meets demand at every level: the removed prefix loads join
the demand and each lane keeps the rest of its prefix.  GX is the fewest removals of any
cover.  Let p be the moved load, s its source lane and t its target, and
mark the child's values with '.  p is a blocker when s has blocking loads
and a prefix load otherwise.  t is clean when p joins its sorted prefix (t
has no blocker and a threshold >= p) and blocked otherwise.  Each case
maps a cover of the child to a cover of the parent that costs at most
1 + BX' - BX more:

* Blocker to blocked target.  Demand, supply and every prefix are
  unchanged, so h' = h.
* Blocker to clean target.  BX' = BX - 1.  The surplus is unchanged at
  the levels up to p and rises by t's free slots above p up to t's old
  threshold, so the child's surplus is >= the parent's at every level.  A
  child cover with r_t >= 1 is a parent cover with r_t - 1: t ends in the
  same state, and p counts once as demand either way.  One with r_t = 0
  covers the parent as it stands.  So GX <= GX'.
* Prefix load to clean target.  BX' = BX.  Raise r_s by 1, which removes
  p at s, and lower r_t by 1 when it is >= 1.  With r_t >= 1 both sides
  remove the same loads and end every lane alike.  With r_t = 0 the
  parent's t has one more free slot at a threshold >= p, which meets p's
  demand up to level p and adds supply above it.  The residuals are equal
  or smaller, so GX <= GX' + 1.
* Prefix load to blocked target.  BX' = BX + 1.  The same raise of r_s
  removes p at s where the child holds it as a blocker at t; all else is
  equal, so GX <= GX' + 1.

In every case h = BX + GX <= BX' + GX' + 1 = h' + 1.

``lane_profile`` and ``cached_lane_change`` take a lane as its contents,
its capacity and the group count G, as a state holds them.
``cached_lane_change`` re-profiles one lane that comes to hold new contents
and gives its surplus change with the new profile, memoised by (capacity,
old contents, new contents), which fix its result for one G.
``lb_incremental`` applies it to the two lanes a move touches and adds both
surplus changes to the parent's surplus; the surplus and profiles it gives
are identical to the from-scratch ones.  It computes no GX: A* reads a
popped child's h off its offer, and the exact search asks ``gx_bound`` for
its children's.  A search keeps one memo and passes it to every
``lb_incremental`` and ``Siblings`` call, so each lane transition is
profiled once per search.  An A* pop computes its two transitions through
it; ``Siblings`` adds only those of the children whose h needs GX.

``gx_bound``, ``lb_state`` and ``_cover`` take a cap, ``math.inf`` for
none.  Their bound is exact up to it and cap + 1 above it: a caller that
asks only whether the bound is at most the cap gets its answer without the
rest of the covering search.  ``lb_state``'s surplus and profiles are exact
whatever the cap.  Access-fixing selection asks every candidate after its
first whether its h is below the best so far, and the exact search asks
every child whether its h is at most the moves it has left.

``Siblings.select`` lists the children of one parent whose h is at most a
limit, and the least h above it, the way A* asks for them, reading their
BX and surplus off the parent's profiles.  A child's BX and surplus are
the parent's plus a part for its source and a part for its target.  Let p
be the moved load and f a lane's free slots once its blockers are gone; a
lane is blocked when it holds a blocker and clean otherwise.  A target
lane with room adds:

* BX + 1 and + 1 at the levels up to p when it is blocked, or clean with
  a threshold below p: p blocks there;
* + 1 at the levels up to p when it is clean with threshold p;
* + 1 at the levels up to p and + f above p up to t when it is clean with
  a threshold t above p.

A blocked source adds BX - 1 and - 1 at the levels up to p.  A clean one
adds - 1 at the levels up to p and - (f + 1) above p up to t', the group
of the load under p (G when p is alone).  So one pass over the lanes
gives the source classes, keyed by (p, t', f), or by p when blocked, and
the target classes: a mask of the blocked lanes with room and one per
clean (threshold, f), merged per p where their parts are equal.  Each
(source class, target class) pair gets one BX and one surplus; where no
level of it is positive, GX is 0 and that BX is the h of every child of
the pair.  Only the other pairs get an h per child, from the new profiles
of the two touched lanes: the parent's removal options with theirs
swapped, and a minimum shared between siblings, which the levels, their
needs and the options swapped out and in fix once equal ones cancel.  A
pair is skipped unsummed when its BX is above the limit and at or above
the least h above it found so far, and a pair that needs GX when BX + 1
is.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate
from operator import add, gt, itemgetter
from typing import NamedTuple, Sequence

from .model import LaneConfiguration, Move, non_increasing_prefix_len


class LaneProfile(NamedTuple):
    """Per-lane summary feeding the supply-and-demand model.

    ``prefix_groups`` keeps the sorted prefix in deepest-first order; the
    removal model needs it to know which thresholds a lane can reach.
    """

    threshold: int
    blocking_suffix: tuple[int, ...]
    free_after_clear: int
    prefix_groups: tuple[int, ...]


def lane_profile(contents: tuple[int, ...], capacity: int, groups: int) -> LaneProfile:
    """Profile a lane of ``capacity`` slots holding ``contents``: the front
    group of its sorted prefix, the blocking groups behind it, the slots
    left once the blockers are gone, and the prefix."""
    prefix = non_increasing_prefix_len(contents)
    threshold = contents[prefix - 1] if prefix else groups
    return LaneProfile(threshold, tuple(sorted(contents[prefix:])), capacity - prefix,
                       tuple(contents[:prefix]))


def _cumulate(per_group: Sequence[int]) -> tuple[int, ...]:
    """Entry g-1 is the sum of ``per_group`` over the groups >= g."""
    return tuple(accumulate(reversed(per_group)))[::-1]


def _removal_options(
    prefix_groups: tuple[int, ...], free: int, levels: tuple[int, ...], groups: int
):
    """Gain vectors for removing r front loads of a lane's sorted prefix.

    ``prefix_groups`` is the prefix deepest first and ``free`` the lane's
    free_after_clear.  Removing r loads raises the threshold to the group of
    the new front prefix load (or G when emptied), frees r more slots, and
    adds each removed load of group p back to the demand at p.  The gain at
    level g is the resulting slack change; it is componentwise non-decreasing
    in r, so only the r values where the vector actually grows are kept.
    """
    n = len(prefix_groups)
    base_thr = prefix_groups[-1] if n else groups
    options = [(0, (0,) * len(levels))]
    removed_ge = [0] * len(levels)
    # prefix groups front-most first: prefix_groups[n-1], prefix_groups[n-2], ...
    for r in range(1, n + 1):
        thr = prefix_groups[n - r - 1] if r < n else groups
        removed = prefix_groups[n - r]
        for idx, g in enumerate(levels):
            if removed >= g:
                removed_ge[idx] += 1
        gain = tuple(
            (free + r if thr >= g else 0)
            - (free if base_thr >= g else 0)
            - removed_ge[idx]
            for idx, g in enumerate(levels)
        )
        if gain != options[-1][1]:
            options.append((r, gain))
    return tuple(options)


def _cover(lane_options: Sequence[tuple], needs: tuple[int, ...], cap: float = math.inf):
    """Fewest removals whose gains reach ``needs`` at every level, exact up
    to ``cap`` and ``cap + 1`` above it: min(GX, cap + 1).

    ``lane_options`` holds one ``_removal_options`` result per lane, each in
    ascending r; one option is taken per lane.  The program runs lane by lane:
    ``frontier`` maps each residual need, clipped at 0, to the fewest
    removals that leave it after the lanes so far.  A residual that the
    remaining lanes cannot cover at full clearing is dropped, and so is a
    cost that cannot beat the best cover found.  ``best`` starts at full
    clearing, which always covers (see the module docstring), or at
    ``cap + 1`` when that is less: then a cover is found only if it costs at
    most ``cap``, and ``cap + 1`` is returned when none does.  With no cap,
    ``math.inf``, the answer is exact.
    """
    zero = (0,) * len(needs)
    # reach[idx]: the gain of clearing every lane from idx on.
    reach = [zero]
    for options in reversed(lane_options):
        reach.append(tuple(map(add, reach[-1], options[-1][1])))
    reach.reverse()

    best = min(sum(options[-1][0] for options in lane_options), cap + 1)
    frontier = {needs: 0}
    for idx, options in enumerate(lane_options):
        later = reach[idx + 1]
        nxt: dict[tuple[int, ...], int] = {}
        for residual, spent in frontier.items():
            for r, gain in options:
                cost = spent + r
                if cost >= best:
                    break  # options come in ascending r
                left = tuple(x - y if x > y else 0 for x, y in zip(residual, gain))
                if left == zero:
                    best = cost  # the lanes after this one remove nothing
                    break
                if any(map(gt, left, later)):
                    continue
                if nxt.get(left, best) > cost:
                    nxt[left] = cost
        frontier = nxt
        if not frontier:
            break
    return best


def gx_bound(surplus: Sequence[int], profiles: Sequence[LaneProfile],
             cap: float = math.inf) -> int:
    """Minimum of the covering problem; 0 when supply already covers.

    The answer is exact up to ``cap`` and ``cap + 1`` above it, that is
    min(GX, cap + 1): enough to decide whether GX <= cap, and exact with no
    cap, ``math.inf``.  When some level is positive GX is at least 1, so a
    cap below 1 is answered with ``cap + 1`` at once.
    """
    levels = tuple(g for g, x in enumerate(surplus, 1) if x > 0)
    if not levels:
        return min(0, cap + 1)
    if cap < 1:
        return cap + 1

    needs = tuple(x for x in surplus if x > 0)
    lane_options = []
    for prof in profiles:
        if not prof.prefix_groups:
            continue
        options = _removal_options(prof.prefix_groups, prof.free_after_clear, levels,
                                   len(surplus))
        if len(options) > 1:
            lane_options.append(options)
    return _cover(lane_options, needs, cap)


def lb_state(config: LaneConfiguration, cap: float = math.inf):
    """Full evaluation from scratch: (surplus, profiles, h), the surplus and
    profiles exact, for incremental updates later.

    h = BX + GX is exact up to ``cap`` and ``cap + 1`` above it,
    min(h, cap + 1), as ``gx_bound`` answers for GX with the cap less BX,
    and exact with no cap, ``math.inf``.
    """
    profiles = tuple(lane_profile(loads, capacity, config.groups)
                     for loads, capacity in zip(config.contents, config.capacities))
    per_group = [0] * config.groups
    for prof in profiles:
        for g in prof.blocking_suffix:
            per_group[g - 1] += 1
        per_group[prof.threshold - 1] -= prof.free_after_clear
    surplus, bx = _cumulate(per_group), config.blocking_total
    return surplus, profiles, bx + gx_bound(surplus, profiles, cap - bx)


def cached_lane_change(touched: dict, old: LaneProfile, old_contents: tuple[int, ...],
                       contents: tuple[int, ...], capacity: int, groups: int) -> tuple:
    """Surplus change and new profile when the lane of ``capacity`` slots
    profiled by ``old`` comes to hold ``contents``, memoised in ``touched``
    under (capacity, old contents, contents).  ``old`` profiles the old
    contents, so the key fixes the result for one ``groups``: a memo must
    serve the states of one search only."""
    key = (capacity, old_contents, contents)
    change = touched.get(key)
    if change is None:
        new = lane_profile(contents, capacity, groups)
        per_group = [0] * groups
        for g in new.blocking_suffix:
            per_group[g - 1] += 1
        for g in old.blocking_suffix:
            per_group[g - 1] -= 1
        per_group[old.threshold - 1] += old.free_after_clear
        per_group[new.threshold - 1] -= new.free_after_clear
        change = touched[key] = _cumulate(per_group), new
    return change


def lb_incremental(
    parent_surplus: tuple[int, ...],
    parent_profiles: Sequence[LaneProfile],
    move: Move,
    child: LaneConfiguration,
    touched: dict,
):
    """The child's (surplus, profiles): re-profile only the two lanes touched
    by ``move`` and add their surplus changes; equal to those of
    ``lb_state(child)``.  Its h is ``child.blocking_total + gx_bound(surplus,
    profiles)``, left to the caller that reads it.  ``touched`` is the
    search's ``cached_lane_change`` memo, the one its ``Siblings`` share."""
    profiles = list(parent_profiles)
    src, dst = move.from_lane - 1, move.to_lane - 1
    contents, caps, groups = child.contents, child.capacities, child.groups
    new_src, new_dst = contents[src], contents[dst]
    src_change, profiles[src] = cached_lane_change(
        touched, profiles[src], new_src + new_dst[-1:], new_src, caps[src], groups)
    dst_change, profiles[dst] = cached_lane_change(
        touched, profiles[dst], new_dst[:-1], new_dst, caps[dst], groups)
    surplus = tuple(map(add, parent_surplus, src_change))
    surplus = tuple(map(add, surplus, dst_change))
    return surplus, tuple(profiles)


class Siblings:
    """The children of one parent whose h is at most a limit, listed from
    the parent's surplus and profiles without building them; each h equals
    lb_state(apply_move(...))[2].

    Build one per expanded parent: the caches below are shared by all of
    its children and die with it, but for ``touched``, which the parents
    of one search can share.
    """

    def __init__(self, config: LaneConfiguration, surplus: tuple[int, ...], profiles,
                 touched: dict):
        self.config = config
        self.surplus = surplus
        self.profiles = profiles
        #: the ``cached_lane_change`` memo; one search shares it between its
        #: parents and with ``lb_incremental``
        self._touched = touched
        #: levels -> removal options of each parent lane, None where trivial
        self._options: dict[tuple[int, ...], list] = {}
        #: (prefix groups, free slots, levels) -> removal options, None if trivial
        self._shapes: dict[tuple, tuple] = {}
        #: (levels, needs, options out, options in) -> GX
        self._minima: dict[tuple, int] = {}

    def select(self, limit, deadline: float):
        """The children whose h is at most ``limit``, and the least h above it.

        Returns ``(classes, above)``.  ``classes`` holds the kept children
        as ((source lane index, h), target mask) pairs, bit i of a mask
        standing for lane index i, in ascending (source, h); ``above`` is
        the least h above ``limit``, ``math.inf`` when no child has one.
        A* offers the classes in this order, each class's moves as
        ``legal_moves`` gives them, by ascending target.  So two children
        of equal h, the only siblings its queue ties, come in (source,
        target) order.  Returns None once ``time.perf_counter()`` reaches
        ``deadline``; the clock is read before each source lane and before
        each (source class, target class) pair that needs GX.
        The module docstring says how the children are listed; the pairs
        that need GX come last, by ascending BX, so that the skip cuts the
        most.
        """
        config = self.config
        groups = config.groups
        blocked = 0  # lanes with room that hold a blocker
        clean: dict[tuple[int, int], int] = {}  # (threshold, free) -> lanes with room, no blocker
        # (p, t', f) of a clean source, (p, 0, 0) of a blocked one -> source lanes
        sources: dict[tuple[int, int, int], int] = {}
        for idx, (loads, capacity, prof) in enumerate(
                zip(config.contents, config.capacities, self.profiles)):
            bit = 1 << idx
            if len(loads) < capacity:
                if prof.blocking_suffix:
                    blocked |= bit
                else:
                    key = (prof.threshold, prof.free_after_clear)
                    clean[key] = clean.get(key, 0) | bit
            if loads:
                if time.perf_counter() >= deadline:
                    return None
                if prof.blocking_suffix:
                    key = (loads[-1], 0, 0)
                else:
                    key = (loads[-1], loads[-2] if len(loads) > 1 else groups,
                           prof.free_after_clear)
                sources[key] = sources.get(key, 0) | bit

        kept: dict[tuple[int, int], int] = {}  # (source index, h) -> target mask
        slow = []  # (child BX, source mask, target mask, child surplus, load)
        above = math.inf
        targets: dict[int, list] = {}  # load -> [(BX change, surplus change, target mask)]
        for (p, after, free), from_mask in sources.items():
            if after:
                bx = config.blocking_total
                taken = (-1,) * p + (-free - 1,) * (after - p) + (0,) * (groups - after)
            else:
                bx = config.blocking_total - 1
                taken = (-1,) * p + (0,) * (groups - p)
            taken = tuple(map(add, self.surplus, taken))
            classes = targets.get(p)
            if classes is None:
                classes = targets[p] = _target_classes(p, blocked, clean, groups)
            for bx_change, change, to_mask in classes:
                c_bx = bx + bx_change
                if c_bx > limit and c_bx >= above:
                    continue  # h >= BX >= above > limit
                lanes = from_mask | to_mask
                if not lanes & (lanes - 1):
                    continue  # one lane, the source alone: no move
                level = tuple(map(add, taken, change))
                if max(level) > 0:
                    slow.append((c_bx, from_mask, to_mask, level, p))
                elif c_bx > limit:
                    above = c_bx
                else:
                    for low in _bits(from_mask):
                        if to_mask & ~low:
                            key = (low.bit_length() - 1, c_bx)
                            kept[key] = kept.get(key, 0) | to_mask & ~low

        slow.sort(key=itemgetter(0))
        for bx, from_mask, to_mask, level, p in slow:
            if bx + 1 >= above:
                break  # every pair left has h >= bx + 1 >= above > limit
            if time.perf_counter() >= deadline:
                return None
            for low in _bits(from_mask):
                s = low.bit_length() - 1
                src = self._touch(s, config.contents[s][:-1])
                for t_low in _bits(to_mask & ~low):
                    t = t_low.bit_length() - 1
                    h = bx + self._gx(level, s, src, t, self._touch(t, config.contents[t] + (p,)))
                    if h <= limit:
                        kept[s, h] = kept.get((s, h), 0) | t_low
                    elif h < above:
                        above = h
        return sorted(kept.items()), above

    def _touch(self, idx: int, contents: tuple[int, ...]) -> LaneProfile:
        """The profile of lane ``idx`` coming to hold ``contents``, through
        ``cached_lane_change``."""
        config = self.config
        return cached_lane_change(self._touched, self.profiles[idx], config.contents[idx],
                                  contents, config.capacities[idx], config.groups)[1]

    def _lane_options(self, prof: LaneProfile, levels: tuple[int, ...]):
        """Removal options of one lane at ``levels``, None when trivial."""
        if not prof.prefix_groups:
            return None
        key = (prof.prefix_groups, prof.free_after_clear, levels)
        if key not in self._shapes:
            options = _removal_options(*key, self.config.groups)
            self._shapes[key] = options if len(options) > 1 else None
        return self._shapes[key]

    def _gx(self, surplus: Sequence[int], s: int, src: LaneProfile,
            t: int, dst: LaneProfile):
        """GX of a child whose lane indices ``s`` and ``t`` come to have the
        profiles ``src`` and ``dst``."""
        levels = tuple(g for g, x in enumerate(surplus, 1) if x > 0)
        needs = tuple(x for x in surplus if x > 0)
        options = self._options.get(levels)
        if options is None:
            options = self._options[levels] = [
                self._lane_options(prof, levels) for prof in self.profiles
            ]
        added = [o for o in (self._lane_options(src, levels), self._lane_options(dst, levels))
                 if o is not None]
        out = [o for o in (options[s], options[t]) if o is not None]
        into = []
        for o in added:
            if o in out:
                out.remove(o)
            else:
                into.append(o)
        key = (levels, needs, tuple(sorted(out)), tuple(sorted(into)))
        gx = self._minima.get(key)
        if gx is None:
            kept = [o for idx, o in enumerate(options)
                    if o is not None and idx != s and idx != t]
            gx = self._minima[key] = _cover(kept + added, needs)
        return gx


def _target_classes(load: int, blocked: int, clean: dict, groups: int) -> list:
    """(BX change, surplus change, target mask) of each class of the lanes
    with room, for a load of group ``load``.  ``blocked`` masks those that
    hold a blocker and ``clean`` maps (threshold, free slots) to the mask of
    the others."""
    ones = (1,) * load + (0,) * (groups - load)
    blocks, joins = blocked, 0
    classes = []
    for (threshold, free), mask in clean.items():
        if threshold < load:
            blocks |= mask
        elif threshold == load:
            joins |= mask
        else:
            classes.append((0, ones[:load] + (free,) * (threshold - load)
                            + (0,) * (groups - threshold), mask))
    if blocks:
        classes.append((1, ones, blocks))
    if joins:
        classes.append((0, ones, joins))
    return classes


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low
