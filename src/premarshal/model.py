"""Core domain types and move semantics shared by every solver.

A warehouse instance is a list of bays (grids of stacks holding unit loads
with retrieval priority groups).  Solvers never work on the grid directly:
they operate on *virtual lanes* -- capacity-bounded LIFO stacks anchored at
an access point.  Position 1 of a lane is the deepest slot; the last
occupied position is the one nearest the access point and is the only slot
a move can take a load from.  Occupancy is always a contiguous prefix of
the position sequence (no holes).

A search state is flat: ``LaneConfiguration`` holds one tuple of lane
contents, the tuples of access points and capacities, which no move
changes and every state of an instance shares, and the cached blocking
count.  The contents tuple is its own memo key (``state_key``).  A
``Move`` names lanes by 1-based id; the state's tuples index them from 0.
Both are named tuples: immutable, hashable and equal by value like a frozen
dataclass, but built in well under half the time, and the searches build
one of each per child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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


class Move(NamedTuple):
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


class LaneConfiguration(NamedTuple):
    """One search state: the contents of every lane plus cached counts.

    Lane id i (1-based, as in ``Move``) is index i - 1 of every tuple.
    ``contents[i]`` holds the lane's loads deepest first; ``points[i]`` is
    its access point and ``capacities[i]`` its slot count.  A move changes
    only ``contents``: ``apply_move`` hands ``points`` and ``capacities`` on
    unchanged, so every state of one instance shares them.
    """

    contents: tuple[tuple[int, ...], ...]
    points: tuple[int, ...]
    capacities: tuple[int, ...]
    groups: int
    blocking_total: int

    @classmethod
    def build(cls, lanes: Iterable[tuple[int, int, Sequence[int]]],
              groups: int) -> "LaneConfiguration":
        """Configuration of the (access point, capacity, contents) triples,
        in lane id order."""
        points, capacities, contents = [], [], []
        for lane_id, (point, capacity, loads) in enumerate(lanes, 1):
            loads = tuple(loads)
            if capacity < 1:
                raise ValueError(f"lane {lane_id}: capacity must be positive")
            if len(loads) > capacity:
                raise ValueError(f"lane {lane_id}: contents exceed capacity")
            for g in loads:
                if not 1 <= g <= groups:
                    raise ValueError(f"lane {lane_id}: group {g} outside 1..{groups}")
            points.append(point)
            capacities.append(capacity)
            contents.append(loads)
        total = sum(map(blocking_of, contents))
        return cls(tuple(contents), tuple(points), tuple(capacities), groups, total)


def state_key(config: LaneConfiguration) -> tuple[tuple[int, ...], ...]:
    """Canonical key: two states compare equal iff every lane's contents match.

    Lanes are distinguishable (their access-point distances differ), so no
    lane-permutation canonicalization is applied.
    """
    return config.contents


def legal_moves(
    config: LaneConfiguration,
    dmat,
    targets: Iterable[tuple[int, int]] | None = None,
) -> list[Move]:
    """All moves available in ``config``: every (non-empty source, non-full
    target) ordered pair, taking the source's front load to the target's
    first empty position.  Ordered by (source lane id, target lane id).
    A move's distance is the aisle distance between the two lanes' access
    points; travel within a lane is not counted.

    ``targets``, if given, narrows the moves to those it names: pairs of a
    source lane index and the mask of its target lane indices (bit i is
    lane index i, i.e. lane id i + 1), which must be legal; the moves come
    in the pairs' order, each pair's by target.
    """
    contents, points = config.contents, config.points
    if targets is None:
        room = 0
        for idx, (loads, capacity) in enumerate(zip(contents, config.capacities)):
            if len(loads) < capacity:
                room |= 1 << idx
        targets = [(idx, room & ~(1 << idx)) for idx, loads in enumerate(contents) if loads]
    moves = []
    for src, mask in targets:
        fill = len(contents[src])
        while mask:
            low = mask & -mask
            mask ^= low
            dst = low.bit_length() - 1
            moves.append(Move(src + 1, dst + 1, fill, len(contents[dst]) + 1,
                              dmat.between(points[src], points[dst])))
    return moves


def apply_move(config: LaneConfiguration, move: Move) -> LaneConfiguration:
    """Successor state after one move; the cached blocking total is updated
    from the two touched lanes only."""
    n = len(config.contents)
    if not (1 <= move.from_lane <= n and 1 <= move.to_lane <= n):
        raise IllegalMove(f"unknown lane in {move}")
    if move.from_lane == move.to_lane:
        raise IllegalMove("source and target lane are identical")
    src, dst = move.from_lane - 1, move.to_lane - 1
    contents = list(config.contents)
    old_src, old_dst = contents[src], contents[dst]
    if not old_src:
        raise IllegalMove(f"source lane {move.from_lane} is empty")
    if len(old_dst) == config.capacities[dst]:
        raise IllegalMove(f"target lane {move.to_lane} is full")
    if move.from_pos != len(old_src) or move.to_pos != len(old_dst) + 1:
        raise IllegalMove(f"positions of {move} do not match the state")

    contents[src] = new_src = old_src[:-1]
    contents[dst] = new_dst = old_dst + old_src[-1:]
    delta = (
        blocking_of(new_src)
        - blocking_of(old_src)
        + blocking_of(new_dst)
        - blocking_of(old_dst)
    )
    return LaneConfiguration(tuple(contents), config.points, config.capacities,
                             config.groups, config.blocking_total + delta)


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

    stats: SolveStats
