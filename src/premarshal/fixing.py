"""Access-direction fixing: assign one cardinal direction to every stack.

Directions partition each bay into virtual lanes: a W/E cell belongs to a
horizontal lane anchored at its row's west/east boundary, an N/S cell to a
vertical lane anchored at its column's north/south boundary.  Within a row
the W cells must therefore form a prefix and the E cells a suffix; within a
column the N cells form a prefix and the S cells a suffix, which leaves the
horizontal cells of a column as one contiguous middle band.

The assignment minimizing the number of misplaced (blocking) loads over all
hole-free partitions is found exactly by a depth-first search over rows with
memoization: the per-column state is a three-valued phase (still in the
north band / inside the horizontal band / in the south band), so the cost to
finish rows j..J depends only on j and the phase vector.  Lane costs are
precomputed per row split and per column split and are None when the lane
would contain a hole or sit on a side without access points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds
from .model import BaySpec, LaneConfiguration, VirtualLane, WarehouseInstance, blocking_of


class InfeasibleAssignment(Exception):
    """No hole-free direction assignment exists for the bay."""


@dataclass(frozen=True)
class AccessAssignment:
    """Direction of every stack of one bay, as row strings.

    ``rows[j-1][i-1]`` is the side ("N", "E", "S" or "W") serving stack
    (i, j); ``misplaced`` is the number of blocking loads the induced lanes
    carry.
    """

    rows: tuple[str, ...]
    misplaced: int

    def direction(self, i: int, j: int) -> str:
        return self.rows[j - 1][i - 1]


@dataclass(frozen=True)
class InducedLane:
    """One lane of an assignment: cells and their groups, deepest first."""

    side: str
    front: tuple[int, int]
    cells: tuple[tuple[int, int], ...]
    contents: tuple[int, ...]

    @property
    def capacity(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class LaneBinding:
    """Where a virtual lane lives: bay, side and grid cells (deepest first)."""

    lane_id: int
    bay: int
    side: str
    cells: tuple[tuple[int, int], ...]
    access_point: int


def _single_tier(bay: BaySpec) -> dict[tuple[int, int], int]:
    if bay.T != 1:
        raise ValueError("access fixing supports exactly one tier")
    return {(i, j): g for (i, j, t), g in bay.occupancy.items()}


def _lane_of_cells(occ, side, cells_deep_to_front) -> InducedLane | None:
    """Build a lane from its cells, or None if an empty cell sits behind a load."""
    contents = []
    seen_empty = False
    for cell in cells_deep_to_front:
        g = occ.get(cell)
        if g is None:
            seen_empty = True
        elif seen_empty:
            return None  # hole: empty slot deeper than this load
        else:
            contents.append(g)
    return InducedLane(
        side=side,
        front=cells_deep_to_front[-1],
        cells=tuple(cells_deep_to_front),
        contents=tuple(contents),
    )


def _row_lane(occ, side, j, count, I) -> InducedLane | None:
    if side == "W":  # cells 1..count, front at i = 1
        cells = [(i, j) for i in range(count, 0, -1)]
    else:  # "E": cells I-count+1..I, front at i = I
        cells = [(i, j) for i in range(I - count + 1, I + 1)]
    return _lane_of_cells(occ, side, cells)


def _col_lane(occ, side, i, count, J) -> InducedLane | None:
    if side == "N":  # cells (i, 1..count), front at j = 1
        cells = [(i, j) for j in range(count, 0, -1)]
    else:  # "S": cells (i, J-count+1..J), front at j = J
        cells = [(i, j) for j in range(J - count + 1, J + 1)]
    return _lane_of_cells(occ, side, cells)


def induced_lanes(bay: BaySpec, assignment: AccessAssignment) -> list[InducedLane]:
    """Validate the assignment's structure and return its lanes.

    Raises ValueError when a direction run is not boundary-anchored, a lane
    contains a hole, or a lane sits on a side the bay does not expose.
    """
    occ = _single_tier(bay)
    I, J = bay.I, bay.J
    if len(assignment.rows) != J or any(len(r) != I for r in assignment.rows):
        raise ValueError("assignment shape does not match the bay")
    lanes: list[InducedLane] = []

    def emit(lane: InducedLane | None, side: str) -> None:
        if lane is None:
            raise ValueError(f"lane on side {side} contains a hole")
        if side not in bay.access_sides:
            raise ValueError(f"lane assigned to inaccessible side {side}")
        lanes.append(lane)

    for j in range(1, J + 1):
        row = assignment.rows[j - 1]
        w = [i for i in range(1, I + 1) if row[i - 1] == "W"]
        e = [i for i in range(1, I + 1) if row[i - 1] == "E"]
        if w and w != list(range(1, len(w) + 1)):
            raise ValueError(f"W cells of row {j} are not a west-anchored prefix")
        if e and e != list(range(I - len(e) + 1, I + 1)):
            raise ValueError(f"E cells of row {j} are not an east-anchored suffix")
        if w:
            emit(_row_lane(occ, "W", j, len(w), I), "W")
        if e:
            emit(_row_lane(occ, "E", j, len(e), I), "E")
    for i in range(1, I + 1):
        col = [assignment.rows[j - 1][i - 1] for j in range(1, J + 1)]
        n = [j for j in range(1, J + 1) if col[j - 1] == "N"]
        s = [j for j in range(1, J + 1) if col[j - 1] == "S"]
        if n and n != list(range(1, len(n) + 1)):
            raise ValueError(f"N cells of column {i} are not a north-anchored prefix")
        if s and s != list(range(J - len(s) + 1, J + 1)):
            raise ValueError(f"S cells of column {i} are not a south-anchored suffix")
        if n:
            emit(_col_lane(occ, "N", i, len(n), J), "N")
        if s:
            emit(_col_lane(occ, "S", i, len(s), J), "S")
    return lanes


def misplaced_count(bay: BaySpec, assignment: AccessAssignment) -> int:
    """Number of blocking loads under the assignment (independent recount)."""
    return sum(blocking_of(lane.contents) for lane in induced_lanes(bay, assignment))


_P, _M, _S = 0, 1, 2  # column phases: north band, horizontal band, south band


class _BayTables:
    """Per-bay lane-cost tables plus the memoized row DP."""

    def __init__(self, bay: BaySpec):
        self.bay = bay
        self.I, self.J = bay.I, bay.J
        occ = _single_tier(bay)
        sides = bay.access_sides

        def row_cost(side: str, j: int, count: int):
            if count == 0:
                return 0
            if side not in sides:
                return None
            lane = _row_lane(occ, side, j, count, self.I)
            return None if lane is None else blocking_of(lane.contents)

        def col_cost(side: str, i: int, count: int):
            if count == 0:
                return 0
            if side not in sides:
                return None
            lane = _col_lane(occ, side, i, count, self.J)
            return None if lane is None else blocking_of(lane.contents)

        I, J = self.I, self.J
        # wcost[j-1][a]: W lane over cells 1..a of row j; a = 0 means no lane.
        self.wcost = [
            [row_cost("W", j, a) for a in range(I + 1)] for j in range(1, J + 1)
        ]
        self.ecost = [
            [row_cost("E", j, e) for e in range(I + 1)] for j in range(1, J + 1)
        ]
        # ncost[i-1][r-1], r in 1..J+1: N lane over rows 1..r-1 of column i,
        # i.e. the cost charged when the horizontal band starts at row r.
        self.ncost = [
            [col_cost("N", i, r - 1) for r in range(1, J + 2)] for i in range(1, I + 1)
        ]
        # scost[i-1][r-1]: S lane over rows r..J of column i.
        self.scost = [
            [col_cost("S", i, J - r + 1) for r in range(1, J + 2)]
            for i in range(1, I + 1)
        ]
        # Full-column splits for columns with no horizontal cell: N over
        # rows 1..c plus S over rows c+1..J, for c = 0..J.
        self.split_cost: list[list[float]] = []
        self.split_best: list[float] = []
        for i in range(I):
            per_c = []
            for c in range(J + 1):
                nc, sc = self.ncost[i][c], self.scost[i][c]
                per_c.append(math.inf if nc is None or sc is None else nc + sc)
            self.split_cost.append(per_c)
            self.split_best.append(min(per_c))
        self._memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def row_choices(self, j: int, phases: tuple[int, ...]):
        """Yield (alpha, eps, added_cost, new_phases) for row j, valid only."""
        I = self.I
        for alpha in range(I + 1):
            wc = self.wcost[j][alpha]
            if wc is None:
                continue
            for eps in range(I - alpha + 1):
                ec = self.ecost[j][eps]
                if ec is None:
                    continue
                added = wc + ec
                new_phases = list(phases)
                ok = True
                for i in range(I):
                    horizontal = i < alpha or i >= I - eps
                    ph = phases[i]
                    if horizontal:
                        if ph == _P:
                            nc = self.ncost[i][j]  # north band = rows 1..j
                            if nc is None:
                                ok = False
                                break
                            added += nc
                            new_phases[i] = _M
                        elif ph == _S:
                            ok = False  # horizontal cell below the south band
                            break
                    else:
                        if ph == _M:
                            sc = self.scost[i][j]  # south band = rows j+1..J
                            if sc is None:
                                ok = False
                                break
                            added += sc
                            new_phases[i] = _S
                if ok:
                    yield alpha, eps, added, tuple(new_phases)

    def cost_to_go(self, j: int, phases: tuple[int, ...]) -> float:
        """Minimum cost of rows j.. plus terminal column costs (0-based j)."""
        if j == self.J:
            return sum(
                self.split_best[i] if ph == _P else 0.0 for i, ph in enumerate(phases)
            )
        key = (j, phases)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        best = math.inf
        for _, _, added, new_phases in self.row_choices(j, phases):
            best = min(best, added + self.cost_to_go(j + 1, new_phases))
        self._memo[key] = best
        return best


def _directions(tables: _BayTables, row_splits, col_splits) -> tuple[str, ...]:
    """Materialize the direction grid from per-row (alpha, eps) and splits."""
    I, J = tables.I, tables.J
    grid = [[""] * I for _ in range(J)]
    for j in range(J):
        alpha, eps = row_splits[j]
        for i in range(I):
            if i < alpha:
                grid[j][i] = "W"
            elif i >= I - eps:
                grid[j][i] = "E"
    for i in range(I):
        horizontal = [j for j in range(J) if grid[j][i]]
        if horizontal:
            first, last = horizontal[0], horizontal[-1]
            for j in range(first):
                grid[j][i] = "N"
            for j in range(last + 1, J):
                grid[j][i] = "S"
        else:
            c = col_splits[i]
            for j in range(J):
                grid[j][i] = "N" if j < c else "S"
    return tuple("".join(row) for row in grid)


def optimal_assignments(bay: BaySpec, limit: int = 10) -> list[AccessAssignment]:
    """All minimum-misplaced hole-free assignments, up to ``limit``.

    Enumeration order is deterministic: rows top to bottom with the west
    count ascending then the east count ascending, then full-column splits
    by column and split point ascending.  An empty bay returns a single
    canonical assignment (every choice scores zero).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    tables = _BayTables(bay)
    start = (_P,) * bay.I
    best = tables.cost_to_go(0, start)
    if math.isinf(best):
        raise InfeasibleAssignment(
            f"no hole-free assignment for a {bay.I}x{bay.J} bay with "
            f"sides {''.join(sorted(bay.access_sides))}"
        )
    if bay.load_count == 0:
        limit = 1
    opt = int(best)

    out: list[AccessAssignment] = []
    row_splits: list[tuple[int, int]] = []

    def emit_splits(free_cols: list[int], chosen: dict[int, int]) -> None:
        if len(out) >= limit:
            return
        if not free_cols:
            col_splits = {i: chosen.get(i, 0) for i in range(tables.I)}
            rows = _directions(tables, row_splits, col_splits)
            out.append(AccessAssignment(rows=rows, misplaced=opt))
            return
        i, rest = free_cols[0], free_cols[1:]
        for c in range(tables.J + 1):
            if tables.split_cost[i][c] == tables.split_best[i]:
                chosen[i] = c
                emit_splits(rest, chosen)
                if len(out) >= limit:
                    return
        del chosen[i]

    def walk(j: int, phases: tuple[int, ...], spent: int) -> None:
        if len(out) >= limit:
            return
        if j == tables.J:
            free_cols = [i for i, ph in enumerate(phases) if ph == _P]
            emit_splits(free_cols, {})
            return
        for alpha, eps, added, new_phases in tables.row_choices(j, phases):
            tail = tables.cost_to_go(j + 1, new_phases)
            if spent + added + tail == opt:
                row_splits.append((alpha, eps))
                walk(j + 1, new_phases, spent + added)
                row_splits.pop()
                if len(out) >= limit:
                    return

    walk(0, start, 0)
    # Both closures reach themselves: without this the tables would wait for
    # the cyclic collector instead of dying here, and so live through the A*
    # search, which pauses it.
    del walk, emit_splits
    return out


def _bay_config(bay: BaySpec, assignment: AccessAssignment) -> LaneConfiguration:
    """A stand-alone lane configuration for one bay (placeholder point ids)."""
    lanes = [
        VirtualLane(lane_id=k + 1, access_point=0, capacity=lane.capacity, contents=lane.contents)
        for k, lane in enumerate(induced_lanes(bay, assignment))
    ]
    return LaneConfiguration.build(lanes, bay.G)


def select_assignment(candidates: list[AccessAssignment], bay: BaySpec) -> AccessAssignment:
    """Pick the candidate with the smallest lower bound h; first found wins ties.

    The scan stops at the first candidate whose h equals the least
    ``misplaced`` of the list.  A candidate's ``misplaced`` is the blocking
    count BX of its lanes, and h = BX + GX with GX >= 0, so no candidate's h
    is below its own ``misplaced``, let alone below the least one.  A
    candidate that reaches that floor cannot be beaten, and as the first
    one found it also wins every tie.  The candidates of
    ``optimal_assignments`` all share one ``misplaced``, so on a bay whose
    first candidate has no covering term (GX = 0) one bound is evaluated
    instead of one per candidate.
    """
    if not candidates:
        raise ValueError("no candidate assignments")
    floor = min(cand.misplaced for cand in candidates)
    best = None
    for cand in candidates:
        h = bounds.lb(_bay_config(bay, cand))
        if best is None or h < best_h:
            best, best_h = cand, h
            if h == floor:
                break
    return best


def has_hole_free_assignment(bay: BaySpec) -> bool:
    """Cheap feasibility probe used by the instance generator."""
    tables = _BayTables(bay)
    return not math.isinf(tables.cost_to_go(0, (_P,) * bay.I))


def to_virtual_lanes(
    instance: WarehouseInstance,
    assignments: list[AccessAssignment],
    layout,
) -> tuple[LaneConfiguration, list[LaneBinding]]:
    """Turn per-bay assignments into the global lane configuration.

    Lanes are ordered by their access-point id and renumbered 1..n; the
    bindings record which grid cells each lane covers (deepest first) so the
    occupancy can be reconstructed and moves can be replayed.
    """
    if len(assignments) != len(instance.bays):
        raise ValueError("one assignment per bay required")
    by_stack = {
        (ap.bay, ap.stack, ap.side): ap.point_id for ap in layout.access_points
    }
    keyed = []
    for b, (bay, assignment) in enumerate(zip(instance.bays, assignments)):
        for lane in induced_lanes(bay, assignment):
            point = by_stack.get((b, lane.front, lane.side))
            if point is None:
                raise ValueError(
                    f"bay {b} has no access point at {lane.front} side {lane.side}"
                )
            keyed.append((point, b, lane))
    keyed.sort(key=lambda item: item[0])
    lanes = []
    bindings = []
    for lane_id, (point, b, lane) in enumerate(keyed, start=1):
        lanes.append(
            VirtualLane(
                lane_id=lane_id,
                access_point=point,
                capacity=lane.capacity,
                contents=lane.contents,
            )
        )
        bindings.append(
            LaneBinding(
                lane_id=lane_id,
                bay=b,
                side=lane.side,
                cells=lane.cells,
                access_point=point,
            )
        )
    return LaneConfiguration.build(lanes, instance.groups), bindings

