"""Core domain types and move semantics shared by every solver.

A warehouse instance is a list of bays (grids of stacks holding unit loads
with retrieval priority groups).  Solvers never work on the grid directly:
they operate on *virtual lanes* -- capacity-bounded LIFO stacks anchored at
an access point.  Position 1 of a lane is the deepest slot; the last
occupied position is the one nearest the access point and is the only slot
a move can take a load from.  Occupancy is always a contiguous prefix of
the position sequence (no holes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

SIDES = ("N", "E", "S", "W")


class IllegalMove(Exception):
    """Raised when a move's preconditions do not hold in the given state."""


def non_increasing_prefix_len(contents: Sequence[int]) -> int:
    """Length of the longest non-increasing run starting at position 1."""
    n = len(contents)
    if n == 0:
        return 0
    i = 1
    while i < n and contents[i] <= contents[i - 1]:
        i += 1
    return i


def blocking_of(contents: Sequence[int]) -> int:
    """Blocking-load count of a lane given its deepest-first contents.

    Position 1 is never blocking; a load is blocking when its group exceeds
    the group directly beneath/behind it, and blockage propagates outward
    through occupied positions.  That is exactly: every occupied position
    after the longest non-increasing prefix.
    """
    return len(contents) - non_increasing_prefix_len(contents)


@dataclass(frozen=True)
class VirtualLane:
    """A boundary-anchored run of slots behaving as a LIFO stack.

    ``contents`` is ordered deepest-first: ``contents[0]`` sits at position 1
    (the far end), ``contents[-1]`` is adjacent to the access point.
    """

    lane_id: int
    access_point: int
    capacity: int
    contents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"lane {self.lane_id}: capacity must be positive")
        if len(self.contents) > self.capacity:
            raise ValueError(f"lane {self.lane_id}: contents exceed capacity")

    @property
    def fill(self) -> int:
        return len(self.contents)

    @property
    def is_empty(self) -> bool:
        return not self.contents

    @property
    def is_full(self) -> bool:
        return len(self.contents) == self.capacity

    @property
    def front(self) -> int:
        """Group of the load nearest the access point."""
        if not self.contents:
            raise IndexError(f"lane {self.lane_id} is empty")
        return self.contents[-1]


def blocking_count(lane: VirtualLane) -> int:
    """Number of blocking loads in one lane."""
    return blocking_of(lane.contents)


@dataclass(frozen=True)
class Move:
    """Relocation of one load between two lanes.

    ``from_pos`` is the 1-based position vacated (the front-most occupied
    slot of the source before the move); ``to_pos`` the position filled (the
    first empty slot of the target).  ``distance`` is the aisle distance
    between the two lanes' access points in tile units.
    """

    from_lane: int
    to_lane: int
    from_pos: int
    to_pos: int
    distance: int


@dataclass(frozen=True)
class LaneConfiguration:
    """Immutable snapshot of all lanes plus cached aggregate counts."""

    lanes: tuple[VirtualLane, ...]
    groups: int
    blocking_total: int

    @classmethod
    def build(cls, lanes: Iterable[VirtualLane], groups: int) -> "LaneConfiguration":
        lanes = tuple(lanes)
        for idx, lane in enumerate(lanes):
            if lane.lane_id != idx + 1:
                raise ValueError("lane ids must be sequential starting at 1")
            for g in lane.contents:
                if not 1 <= g <= groups:
                    raise ValueError(f"lane {lane.lane_id}: group {g} outside 1..{groups}")
        total = sum(blocking_count(lane) for lane in lanes)
        return cls(lanes=lanes, groups=groups, blocking_total=total)

    def lane(self, lane_id: int) -> VirtualLane:
        return self.lanes[lane_id - 1]

    @property
    def is_sorted(self) -> bool:
        return self.blocking_total == 0


def state_key(config: LaneConfiguration) -> tuple[tuple[int, ...], ...]:
    """Canonical key: two states compare equal iff every lane's contents match.

    Lanes are distinguishable (their access-point distances differ), so no
    lane-permutation canonicalization is applied.
    """
    return tuple(lane.contents for lane in config.lanes)


def move_distance(src: VirtualLane, dst: VirtualLane, dmat, depth_correction: bool = False) -> int:
    """Loaded distance of moving the front load of ``src`` onto ``dst``.

    With ``depth_correction`` the empty tiles travelled inside both lanes are
    added (off by default: travel within a lane is neglected).
    """
    d = dmat.between(src.access_point, dst.access_point)
    if depth_correction:
        d += (src.capacity - src.fill) + (dst.capacity - dst.fill - 1)
    return d


def legal_moves(
    config: LaneConfiguration,
    dmat,
    depth_correction: bool = False,
    targets: Iterable[tuple[int, int]] | None = None,
) -> list[Move]:
    """All moves available in ``config``: every (non-empty source, non-full
    target) ordered pair, taking the source's front load to the target's
    first empty position.  Ordered by (source lane id, target lane id).

    ``targets``, if given, narrows the moves to those it names: pairs of a
    source lane index and the mask of its target lane indices (bit i is
    lane index i, i.e. lane id i + 1), which must be legal; the moves come
    in the pairs' order, each pair's by target.
    """
    lanes = config.lanes
    if targets is None:
        room = 0
        for idx, lane in enumerate(lanes):
            if len(lane.contents) < lane.capacity:
                room |= 1 << idx
        targets = [(idx, room & ~(1 << idx)) for idx, lane in enumerate(lanes) if lane.contents]
    moves = []
    for src_idx, mask in targets:
        src = lanes[src_idx]
        while mask:
            low = mask & -mask
            mask ^= low
            dst = lanes[low.bit_length() - 1]
            moves.append(Move(src.lane_id, dst.lane_id, src.fill, dst.fill + 1,
                              move_distance(src, dst, dmat, depth_correction)))
    return moves


def apply_move(config: LaneConfiguration, move: Move) -> LaneConfiguration:
    """Successor state after one move; the cached blocking total is updated
    from the two touched lanes only."""
    if move.from_lane == move.to_lane:
        raise IllegalMove("source and target lane are identical")
    try:
        src = config.lane(move.from_lane)
        dst = config.lane(move.to_lane)
    except IndexError as exc:
        raise IllegalMove(f"unknown lane in {move}") from exc
    if src.is_empty:
        raise IllegalMove(f"source lane {src.lane_id} is empty")
    if dst.is_full:
        raise IllegalMove(f"target lane {dst.lane_id} is full")
    if move.from_pos != src.fill or move.to_pos != dst.fill + 1:
        raise IllegalMove(f"positions of {move} do not match the state")

    load = src.contents[-1]
    new_src = VirtualLane(src.lane_id, src.access_point, src.capacity, src.contents[:-1])
    new_dst = VirtualLane(dst.lane_id, dst.access_point, dst.capacity, dst.contents + (load,))
    lanes = list(config.lanes)
    lanes[src.lane_id - 1] = new_src
    lanes[dst.lane_id - 1] = new_dst
    delta = (
        blocking_count(new_src)
        - blocking_count(src)
        + blocking_count(new_dst)
        - blocking_count(dst)
    )
    return LaneConfiguration(
        lanes=tuple(lanes),
        groups=config.groups,
        blocking_total=config.blocking_total + delta,
    )


@dataclass
class BaySpec:
    """One bay: an I x J grid of stacks, T tiers high, with G priority groups.

    ``occupancy`` maps (i, j, t) cells (1-based) to groups; absent = empty.
    """

    I: int
    J: int
    T: int
    G: int
    occupancy: dict[tuple[int, int, int], int] = field(default_factory=dict)
    access_sides: frozenset[str] = frozenset(SIDES)

    def __post_init__(self) -> None:
        if min(self.I, self.J, self.T, self.G) < 1:
            raise ValueError("bay dimensions and group count must be positive")
        self.access_sides = frozenset(self.access_sides)
        if not self.access_sides:
            raise ValueError("access_sides must be non-empty")
        if not self.access_sides <= set(SIDES):
            raise ValueError(f"unknown access side in {sorted(self.access_sides)}")
        for (i, j, t), g in self.occupancy.items():
            if not (1 <= i <= self.I and 1 <= j <= self.J and 1 <= t <= self.T):
                raise ValueError(f"occupied cell ({i},{j},{t}) outside the bay")
            if not 1 <= g <= self.G:
                raise ValueError(f"group {g} at ({i},{j},{t}) outside 1..{self.G}")
            if t > 1 and (i, j, t - 1) not in self.occupancy:
                raise ValueError(f"load at ({i},{j},{t}) has no load underneath")

    @property
    def load_count(self) -> int:
        return len(self.occupancy)


@dataclass
class WarehouseInstance:
    """A warehouse: a grid of bays plus generation metadata."""

    bays: list[BaySpec]
    warehouse_rows: int
    warehouse_cols: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.bays) != self.warehouse_rows * self.warehouse_cols:
            raise ValueError("bay count does not match the warehouse grid")
        groups = {bay.G for bay in self.bays}
        if len(groups) > 1:
            raise ValueError("all bays must share the same number of groups")

    @property
    def groups(self) -> int:
        return self.bays[0].G

    @property
    def load_count(self) -> int:
        return sum(bay.load_count for bay in self.bays)


@dataclass
class SolveStats:
    nodes_evaluated: int = 0
    wall_time: float = 0.0
    preprocessing_time: float = 0.0
    optimal_moves: bool = False
    optimal_distance: bool = False


@dataclass
class Solution:
    """An ordered move plan with its move count and total loaded distance."""

    algo: str
    moves: list[Move]
    k: int
    total_distance: int
    stats: SolveStats
    assignments: list | None = None

    def __post_init__(self) -> None:
        if self.k != len(self.moves):
            raise ValueError("k does not match the number of moves")
        if self.total_distance != sum(m.distance for m in self.moves):
            raise ValueError("total_distance does not match the move distances")


@dataclass
class TimedOut:
    """Search gave up at the time limit; carries best-known statistics."""

    stats: SolveStats
    k_bar_reached: int | None = None


@dataclass
class Infeasible:
    """The search space was exhausted without reaching a sorted state."""

    stats: SolveStats | None = None
