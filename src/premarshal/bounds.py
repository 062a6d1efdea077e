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

An incremental updater recomputes the profiles of the two lanes touched by
a move and patches the aggregate supply/demand data by differences; its
result is identical to the from-scratch computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import (
    LaneConfiguration,
    Move,
    VirtualLane,
    non_increasing_prefix_len,
)

#: Sentinel returned by gx_bound when even clearing every prefix cannot
#: cover the demand.  Structurally unreachable (full clearing always
#: supplies the whole capacity at threshold G), kept as a guard.
INFEASIBLE = math.inf


@dataclass(frozen=True)
class LaneProfile:
    """Per-lane summary feeding the supply-and-demand model.

    ``prefix_groups`` keeps the sorted prefix in deepest-first order; the
    removal model needs it to know which thresholds a lane can reach.
    """

    lane_id: int
    prefix_len: int
    threshold: int
    blocking_suffix: tuple[int, ...]
    free_after_clear: int
    prefix_groups: tuple[int, ...] = ()

    @property
    def occupied(self) -> int:
        return self.prefix_len + len(self.blocking_suffix)


@dataclass(frozen=True)
class SupplyDemandAux:
    """Aggregate demand/supply counts, cumulative from group G downward.

    ``demand[g-1]`` counts blocking loads of group g over all lanes;
    ``supply_at[g-1]`` sums free_after_clear over lanes with threshold g.
    ``cum_demand[g-1]`` is the demand at groups >= g, ``cum_supply[g-1]``
    the supply at thresholds >= g; both are non-increasing in g.
    """

    groups: int
    demand: tuple[int, ...]
    supply_at: tuple[int, ...]
    cum_demand: tuple[int, ...]
    cum_supply: tuple[int, ...]

    def surplus(self, g: int) -> int:
        return self.cum_demand[g - 1] - self.cum_supply[g - 1]


def lane_profile(lane: VirtualLane, groups: int) -> LaneProfile:
    """Profile a lane: sorted-prefix length, its front group, the blocking
    groups behind it, and the slots left once the blockers are gone."""
    prefix = non_increasing_prefix_len(lane.contents)
    threshold = lane.contents[prefix - 1] if prefix else groups
    return LaneProfile(
        lane_id=lane.lane_id,
        prefix_len=prefix,
        threshold=threshold,
        blocking_suffix=tuple(sorted(lane.contents[prefix:])),
        free_after_clear=lane.capacity - prefix,
        prefix_groups=tuple(lane.contents[:prefix]),
    )


def build_aux(profiles: Sequence[LaneProfile], groups: int) -> SupplyDemandAux:
    demand = [0] * groups
    supply_at = [0] * groups
    for prof in profiles:
        for g in prof.blocking_suffix:
            demand[g - 1] += 1
        supply_at[prof.threshold - 1] += prof.free_after_clear
    return SupplyDemandAux(
        groups=groups,
        demand=tuple(demand),
        supply_at=tuple(supply_at),
        cum_demand=_cumulate(demand),
        cum_supply=_cumulate(supply_at),
    )


def _cumulate(per_group: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(per_group)
    running = 0
    for idx in range(len(per_group) - 1, -1, -1):
        running += per_group[idx]
        out[idx] = running
    return tuple(out)


def bx_bound(config: LaneConfiguration) -> int:
    """Every blocking load must move at least once."""
    return config.blocking_total


def child_bx(config: LaneConfiguration, profiles: Sequence[LaneProfile], move: Move) -> int:
    """BX of ``apply_move(config, move)`` from the parent's profiles of the
    two touched lanes, without building the child.

    Taking the front load of a lane with blockers removes a blocker; taking
    it from a sorted lane shortens the sorted prefix and removes none.  The
    load blocks in its target when the target already has blockers, or when
    the target's front group is below the load; an empty target takes it
    unblocked.
    """
    bx = config.blocking_total
    if profiles[move.from_lane - 1].blocking_suffix:
        bx -= 1
    dst = profiles[move.to_lane - 1]
    if dst.blocking_suffix or (
        dst.prefix_len and dst.threshold < config.lanes[move.from_lane - 1].contents[-1]
    ):
        bx += 1
    return bx


def _removal_options(prof: LaneProfile, levels: tuple[int, ...], groups: int):
    """Gain vectors for removing r front prefix loads of one lane.

    Removing r loads raises the threshold to the group of the new front
    prefix load (or G when emptied), frees r more slots, and adds each
    removed load of group p back to the demand at p.  The gain at level g is
    the resulting slack change; it is componentwise non-decreasing in r, so
    only the r values where the vector actually grows are kept.
    """
    base_free = prof.free_after_clear
    base_thr = prof.threshold
    options = [(0, tuple(0 for _ in levels))]
    removed_ge = [0] * len(levels)
    # prefix groups front-most first: contents[prefix-1], contents[prefix-2], ...
    for r in range(1, prof.prefix_len + 1):
        thr = prof.prefix_groups[prof.prefix_len - r - 1] if r < prof.prefix_len else groups
        removed = prof.prefix_groups[prof.prefix_len - r]
        for idx, g in enumerate(levels):
            if removed >= g:
                removed_ge[idx] += 1
        gain = tuple(
            (base_free + r if thr >= g else 0)
            - (base_free if base_thr >= g else 0)
            - removed_ge[idx]
            for idx, g in enumerate(levels)
        )
        if gain != options[-1][1]:
            options.append((r, gain))
    return options


def gx_bound(aux: SupplyDemandAux, profiles: Sequence[LaneProfile]):
    """Exact minimum of the covering problem; 0 when supply already covers.

    Returns INFEASIBLE (math.inf) when even full clearing cannot cover the
    demand, signalling an unsolvable configuration.
    """
    groups = aux.groups
    levels = tuple(
        g for g in range(1, groups + 1) if aux.cum_demand[g - 1] > aux.cum_supply[g - 1]
    )
    if not levels:
        return 0

    needs = tuple(aux.cum_demand[g - 1] - aux.cum_supply[g - 1] for g in levels)
    lane_options = []
    for prof in profiles:
        if prof.prefix_len == 0:
            continue
        options = _removal_options(prof, levels, groups)
        if len(options) > 1:
            lane_options.append(options)

    # Suffix maxima of attainable gain, for infeasibility pruning.
    m = len(levels)
    suffix_gain = [[0] * m for _ in range(len(lane_options) + 1)]
    for idx in range(len(lane_options) - 1, -1, -1):
        best = lane_options[idx][-1][1]
        for lv in range(m):
            suffix_gain[idx][lv] = suffix_gain[idx + 1][lv] + best[lv]

    if any(needs[lv] > suffix_gain[0][lv] for lv in range(m)):
        return INFEASIBLE

    best_total = sum(opts[-1][0] for opts in lane_options)  # full clearing covers

    def dfs(idx: int, spent: int, residual: tuple[int, ...]) -> None:
        nonlocal best_total
        if spent >= best_total:
            return
        if all(r <= 0 for r in residual):
            best_total = spent
            return
        if idx == len(lane_options):
            return
        gains = suffix_gain[idx]
        if any(residual[lv] > gains[lv] for lv in range(m)):
            return
        for r, gain in lane_options[idx]:
            dfs(idx + 1, spent + r, tuple(residual[lv] - gain[lv] for lv in range(m)))

    dfs(0, 0, needs)
    return best_total


def lb_state(config: LaneConfiguration):
    """Full evaluation: (aux, profiles, h) for incremental updates later."""
    profiles = tuple(lane_profile(lane, config.groups) for lane in config.lanes)
    aux = build_aux(profiles, config.groups)
    gx = gx_bound(aux, profiles)
    h = INFEASIBLE if gx is INFEASIBLE else bx_bound(config) + gx
    return aux, profiles, h


def lb(config: LaneConfiguration):
    """h = bx_bound + gx_bound; admissible for the remaining move count."""
    return lb_state(config)[2]


def lb_incremental(
    parent_aux: SupplyDemandAux,
    parent_profiles: Sequence[LaneProfile],
    move: Move,
    child: LaneConfiguration,
):
    """Re-profile only the two lanes touched by ``move`` and patch the
    aggregates by differences; h is identical to lb(child) from scratch."""
    groups = child.groups
    demand = list(parent_aux.demand)
    supply_at = list(parent_aux.supply_at)
    profiles = list(parent_profiles)
    for lane_id in (move.from_lane, move.to_lane):
        old = profiles[lane_id - 1]
        new = lane_profile(child.lane(lane_id), groups)
        for g in old.blocking_suffix:
            demand[g - 1] -= 1
        for g in new.blocking_suffix:
            demand[g - 1] += 1
        supply_at[old.threshold - 1] -= old.free_after_clear
        supply_at[new.threshold - 1] += new.free_after_clear
        profiles[lane_id - 1] = new
    aux = SupplyDemandAux(
        groups=groups,
        demand=tuple(demand),
        supply_at=tuple(supply_at),
        cum_demand=_cumulate(demand),
        cum_supply=_cumulate(supply_at),
    )
    profiles = tuple(profiles)
    gx = gx_bound(aux, profiles)
    h = INFEASIBLE if gx is INFEASIBLE else child.blocking_total + gx
    return aux, profiles, h
