"""Access-direction fixing: assign one cardinal direction to every stack.

Directions partition each bay into virtual lanes: a W/E cell belongs to a
horizontal lane anchored at its row's west/east boundary, an N/S cell to a
vertical lane anchored at its column's north/south boundary.  Within a row
the W cells must therefore form a prefix and the E cells a suffix; within a
column the N cells form a prefix and the S cells a suffix, which leaves the
horizontal cells of a column as one contiguous middle band.

The assignment minimizing the number of misplaced (blocking) loads over all
hole-free partitions is found exactly by a depth-first search over rows with
memoization, unless a cost-free path search finds one of 0 first (see the
end of this docstring).  Going down the rows, a column is in its north band
(no horizontal cell yet), its horizontal band, or its south band (the band
has ended).  The state is two column masks (M, S): M holds the columns in the
horizontal band, S those in the south band, and the rest are still in the
north band.  A row's choice (alpha, eps) of W and E counts gives the mask H
of its horizontal cells and is valid when

* ``H & S == 0``.  A column enters its south band at the first vertical
  cell below a horizontal one; that cell cannot be N, since N cells are a
  prefix from the top, so it is S, and S cells are a suffix to the bottom.
  Every cell below it is S, none horizontal.
* No column of ``H & P`` (P the north-band columns) has a north lane over
  the rows above with a hole or without access, and no column of
  ``M & ~H``, whose band ends here, has such a south lane from this row
  down.  Per row these are two masks, ``nbad`` and ``sbad``.

The next state is ``(H, S | (M & ~H))``: the columns of H are in the band,
and the band columns without a horizontal cell here pass to the south band.
So the cost to finish rows j..J depends only on j and (M, S).  A column
still in its north band after the last row has no horizontal cell and takes
its cheapest full-column N/S split.

Every table reads the bay as one grid, ``_grid``: its rows of groups, 0
for an empty cell.  A line is a grid row or column, read from its side, so
the lanes of a line are slices of it and no cell is looked up by its
(i, j) key.  Lane costs are precomputed per row split and per column split,
in one pass over each line: every further cell of a lane adds its new
deepest load, so the non-increasing prefix of the contents grows by one or
restarts at that load, and the cost is the loads outside the prefix.  A
cost is None when the lane would contain a hole or sit on a side without
access points.  The band costs of a row and the split costs are summed per
mask the first time that mask is met.

The search is branch and bound on a DP (Morin & Marsten, Operations
Research 24(4), 1976), and each minimum is asked for only up to a cap:
``cost_to_go(j, state, cap)`` is the exact cost to go when that is below
the cap, and otherwise some value >= the cap.  A state starts its best at
the cap and tries its row's choices by ascending W and E lane cost.  Every
band cost and cost to go is >= 0, so it stops at the first choice whose
lane cost is >= best, skips one whose added cost is, and asks each other
child with the cap best - added.  By induction on the rows below, a
child's answer below its cap is exact, and its total is the new best; an
answer at or above its cap gives a total >= best, as the exact value,
also >= that cap, would, and changes nothing.  So best ends at the lesser
of the cap and the state's minimum: exact when below the cap, and the cap,
a lower bound, otherwise.  The order in which the choices are tried changes
which states are expanded, never a value below a cap.  The memo keeps
(value, exact): an exact value answers every cap, and a lower bound
answers any cap at or below it, since the minimum is then at or above that
cap as well; a state whose bound is below a later cap is expanded again.
Uncapped (cap = inf), the call is exact; an empty bay memoises J states.

The walk that enumerates the optimal assignments tries the choices in
``row_choices`` order and keeps those that stay on the optimum: with
``left`` the optimum less the cost spent and added so far, a child's
minimum is ``left`` exactly when ``cost_to_go(j + 1, child, left + 1)``
answers ``left``, since a minimum below ``left`` would beat the optimum.
The unpruned walk keeps the same choices, so the assignments and their
order are unchanged.

Each assignment the walk yields carries its lanes.  At a leaf it holds
every row's (alpha, eps) and every north-band column's split, so one pass
draws the direction rows and cuts the lanes from the grid's lines; a lane
the walk reaches is hole-free and on an open side, so its loads are the
non-empty cells of its slice.  ``select_assignment`` reads its bounds off
those lanes and preprocessing numbers them as they are, while
``induced_lanes`` derives the lanes again from the direction strings,
checking them, for replay (``to_virtual_lanes``).

Two questions need no cost table, and one path search answers both
(``_first_path``).  The instance generator asks only whether the cost is
finite (``has_hole_free_assignment``), and preprocessing first asks whether
it is 0 (``optimal_assignments``):

1. Reaches.  A line's lane over its first ``a`` cells, counted from its
   side, is hole-free exactly when ``a <= amax``, where ``amax`` is the
   length of the longest front run of empty cells then loads (0 on a side
   without access): such a run holds no hole, and a hole in one lane is a
   hole in every longer lane of the line.  A lane's blocking count never
   falls as it grows deeper along its line, since each new deepest load
   extends the non-increasing prefix or restarts it (``_lane_costs``), so
   the lanes of cost 0 are likewise those with ``a <= zmax``, ``zmax`` being
   the length of the longest hole-free front run whose loads do not fall
   from front to deep.  So a lane cost is None (or not 0) exactly when its
   length exceeds its line's ``amax`` (``zmax``), and the row choices,
   ``nbad``, ``sbad`` and the columns with a full-column split
   (``nmax + smax >= J``) all follow from the four lists of reaches, one
   per side.
2. Cover.  Every cell lies in exactly one lane, and that lane reaches from
   its side at least to the cell, so each cell (i, j) has ``i <= wmax[j]``,
   ``I-i+1 <= emax[j]``, ``j <= nmax[i]`` or ``J-j+1 <= smax[i]``.  A bay
   with a cell that meets none of them has no path.  The converse fails:
   the lanes that reach two cells may cross.
3. Path.  Every cost added along a valid row choice is finite (is 0 within
   the zero reaches), so the cost is finite (is 0) exactly when some
   sequence of valid choices ends with every north-band column splittable.
   If every column splits within its reaches (``nmax + smax >= J``), the
   first such path is all (0, 0): mask 0 comes first in every row, is valid
   from state (0, 0) and keeps it.  Otherwise a depth-first search makes each
   row's choices as it reaches the row, in ``row_choices`` order, each
   distinct mask H once, as the first (alpha, eps) to give it, since
   validity and the next state depend on H alone, and it remembers only
   the states that have no completion.  It gives up a state at once when
   a north-band column without a full-column split is in the row's
   ``nbad``: ``nbad`` only grows down the rows, so that column never gets
   a horizontal cell and ends in its north band unsplittable.

At an optimum of 0 the walk takes exactly the choices that add 0 and whose
state has a cost to go of 0, in ``row_choices`` order, so its first
assignment is the zero search's first path, with every north-band column at
its first zero split (the shortest S lane).  ``optimal_assignments`` runs
that search first and yields its assignment.  It builds the cost tables,
the memo DP and the walk only when the search finds no path, or when a
second candidate is asked for; selection stops at a first candidate of
floor 0, so preprocessing builds no table for such a bay.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from . import bounds
from .model import BaySpec, LaneConfiguration, WarehouseInstance, blocking_of


class InfeasibleAssignment(Exception):
    """No hole-free direction assignment exists for the bay."""


class InducedLane(NamedTuple):
    """One lane of an assignment: its side, front stack, slot count and
    groups, deepest first."""

    side: str
    front: tuple[int, int]
    capacity: int
    contents: tuple[int, ...]


@dataclass(frozen=True)
class AccessAssignment:
    """Direction of every stack of one bay, as row strings.

    ``rows[j-1][i-1]`` is the side ("N", "E", "S" or "W") serving stack
    (i, j); ``misplaced`` is the number of blocking loads the induced lanes
    carry.  ``lanes`` holds those lanes on an assignment that
    ``optimal_assignments`` built, and None on one built from its rows
    alone; it takes no part in equality or the repr.
    """

    rows: tuple[str, ...]
    misplaced: int
    lanes: tuple[InducedLane, ...] | None = field(default=None, compare=False, repr=False)

    def direction(self, i: int, j: int) -> str:
        return self.rows[j - 1][i - 1]


def _grid(bay: BaySpec) -> list[list[int]]:
    """The bay's groups as J rows of I cells, 0 for an empty cell.

    ``grid[j][i]`` is stack (i+1, j+1).  Raises ValueError on a bay of more
    than one tier.
    """
    if bay.T != 1:
        raise ValueError("access fixing supports exactly one tier")
    grid = [[0] * bay.I for _ in range(bay.J)]
    for (i, j, _), g in bay.occupancy.items():
        grid[j - 1][i - 1] = g
    return grid


def _lane(side: str, front: tuple[int, int], line) -> InducedLane | None:
    """The lane over ``line``, its groups deepest first (0 for empty), or
    None if an empty cell sits behind a load."""
    loads = len(line) - line.count(0)
    if 0 in line[:loads]:
        return None  # hole: empty slot deeper than a load
    return InducedLane(side, front, len(line), tuple(line[:loads]))


def _lane_costs(line, open_side: bool) -> list[int | None]:
    """Blocking count of the lane over the first a cells of ``line``, its
    groups front to deep (0 for empty), for a = 0..len(line).

    An entry is None when that lane would hold a hole or its side has no
    access; a hole in one lane is a hole in every longer lane of its line.
    Each further load is the lane's new deepest one, so the non-increasing
    prefix of the contents (``blocking_of``) grows by one when that load is
    at least the previous deepest and is the load alone otherwise.
    """
    costs: list[int | None] = [0]
    loads = prefix = deepest = 0  # groups are >= 1, so the first load extends
    if open_side:
        for g in line:
            if g:
                prefix = prefix + 1 if g >= deepest else 1
                loads += 1
                deepest = g
            elif loads:
                break  # this empty cell would sit deeper than a load
            costs.append(loads - prefix)
    return costs + [None] * (len(line) + 1 - len(costs))


def induced_lanes(bay: BaySpec, assignment: AccessAssignment) -> list[InducedLane]:
    """Validate the assignment's structure and return its lanes.

    Raises ValueError when a direction is not one of N, E, S and W, a
    direction run is not boundary-anchored, a lane contains a hole, or a
    lane sits on a side the bay does not expose.
    """
    grid = _grid(bay)
    I, J = bay.I, bay.J
    if len(assignment.rows) != J or any(len(r) != I for r in assignment.rows):
        raise ValueError("assignment shape does not match the bay")
    lanes: list[InducedLane] = []
    covered = 0  # cells in some run; a cell of another letter is in none

    def emit(side: str, front: tuple[int, int], line) -> None:
        lane = _lane(side, front, line)
        if lane is None:
            raise ValueError(f"lane on side {side} contains a hole")
        if side not in bay.access_sides:
            raise ValueError(f"lane assigned to inaccessible side {side}")
        lanes.append(lane)

    # A run is anchored when no cell of its side lies past its boundary run.
    for j, (row, cells) in enumerate(zip(assignment.rows, grid), 1):
        w, e = I - len(row.lstrip("W")), I - len(row.rstrip("E"))
        if "W" in row[w:]:
            raise ValueError(f"W cells of row {j} are not a west-anchored prefix")
        if "E" in row[:I - e]:
            raise ValueError(f"E cells of row {j} are not an east-anchored suffix")
        if w:
            emit("W", (1, j), cells[w - 1::-1])
        if e:
            emit("E", (I, j), cells[I - e:])
        covered += w + e
    for i, (col, cells) in enumerate(zip(map("".join, zip(*assignment.rows)), zip(*grid)), 1):
        n, s = J - len(col.lstrip("N")), J - len(col.rstrip("S"))
        if "N" in col[n:]:
            raise ValueError(f"N cells of column {i} are not a north-anchored prefix")
        if "S" in col[:J - s]:
            raise ValueError(f"S cells of column {i} are not a south-anchored suffix")
        if n:
            emit("N", (i, 1), cells[n - 1::-1])
        if s:
            emit("S", (i, J), cells[J - s:])
        covered += n + s
    if covered != I * J:  # its load would be in no lane
        raise ValueError("assignment holds a direction other than N, E, S or W")
    return lanes


def misplaced_count(bay: BaySpec, assignment: AccessAssignment) -> int:
    """Number of blocking loads under the assignment (independent recount)."""
    return sum(blocking_of(lane.contents) for lane in induced_lanes(bay, assignment))


class _MaskSums(dict):
    """Sum of ``costs[i]`` over the set bits i of a column mask, per mask.

    A sum is computed the first time its mask is looked up, from the sum of
    the mask without its lowest bit.
    """

    def __init__(self, costs):
        super().__init__({0: 0})
        self.costs = costs

    def __missing__(self, mask: int) -> float:
        low = mask & -mask
        total = self[mask] = self[mask ^ low] + self.costs[low.bit_length() - 1]
        return total


@functools.cache
def _row_splits(I: int) -> tuple[tuple[int, int, int], ...]:
    """(alpha, eps, mask of the horizontal cells) of every split of a row of
    ``I`` cells into alpha W cells, vertical cells and eps E cells, alpha
    ascending, then eps ascending."""
    full = (1 << I) - 1
    return tuple((alpha, eps, ((1 << alpha) - 1) | (full ^ ((1 << (I - eps)) - 1)))
                 for alpha in range(I + 1) for eps in range(I - alpha + 1))


class _BayTables:
    """Per-bay lane-cost tables plus the memoized row DP over column masks.

    Rows j and columns i are 0-based here, as in ``_grid``, and column i
    is bit i of a mask.
    """

    def __init__(self, bay: BaySpec):
        grid = self.grid = _grid(bay)
        columns = self.columns = list(zip(*grid))
        sides = bay.access_sides
        I, J = self.I, self.J = bay.I, bay.J
        # wcost[j][a]: W lane over the first a cells of row j; a = 0 means no lane.
        wcost = [_lane_costs(row, "W" in sides) for row in grid]
        ecost = [_lane_costs(row[::-1], "E" in sides) for row in grid]
        # ncost[i][j]: N lane over rows 0..j-1 of column i, the cost charged
        # when the column's horizontal band starts at row j; scost[i][j]: S
        # lane over rows j..J-1, charged when the band ends above row j.
        ncost = [_lane_costs(col, "N" in sides) for col in columns]
        scost = [_lane_costs(col[::-1], "S" in sides)[::-1] for col in columns]
        # Full-column splits for columns with no horizontal cell: N over
        # rows 0..c-1 plus S over rows c..J-1, for c = 0..J.
        self.split_cost = [
            [math.inf if nc is None or sc is None else nc + sc for nc, sc in zip(ns, ss)]
            for ns, ss in zip(ncost, scost)
        ]
        self.split_best = [min(per_c) for per_c in self.split_cost]

        # choices[j]: (alpha, eps, W and E lane cost, mask of the horizontal
        # cells) for every pair of row-j lanes without a hole, in the order
        # of ``_row_splits``.
        self.full = (1 << I) - 1
        self.choices = [
            [(alpha, eps, wc[alpha] + ec[eps], mask) for alpha, eps, mask in _row_splits(I)
             if wc[alpha] is not None and ec[eps] is not None]
            for wc, ec in zip(wcost, ecost)
        ]
        # by_cost[j]: (W and E lane cost, mask) of row j's choices, cheapest first.
        self.by_cost = [sorted((cost, mask) for _, _, cost, mask in row) for row in self.choices]
        # nbad[j]: columns whose north band cannot end above row j;
        # sbad[j]: columns whose south band cannot start at row j.
        nbad, sbad = [0] * J, [0] * J
        for i, (nc, sc) in enumerate(zip(ncost, scost)):
            for j in range(J):
                if nc[j] is None:
                    nbad[j] |= 1 << i
                if sc[j] is None:
                    sbad[j] |= 1 << i
        self.nbad, self.sbad = nbad, sbad
        # Band costs per (row, column mask) and the terminal cost per mask of
        # columns left in the north band, summed on first use: a table of
        # 2^I entries would not pay on the wide bays ``--unrestricted`` admits.
        # Only rows 0..J-1 choose, so row J of ncost and scost gets no sums.
        self.north_sums = [_MaskSums(row) for row in itertools.islice(zip(*ncost), J)]
        self.south_sums = [_MaskSums(row) for row in itertools.islice(zip(*scost), J)]
        self.split_sums = _MaskSums(self.split_best)
        # _memo[j][state]: (value, exact); a value that is not exact is a
        # lower bound, at least the cap it was asked with.
        self._memo: list[dict[tuple[int, int], tuple[float, bool]]] = [{} for _ in range(J)]

    def row_choices(self, j: int, state: tuple[int, int]):
        """Yield (alpha, eps, added_cost, new_state) for row j, valid only."""
        band, south = state
        north = self.full & ~(band | south)
        forbid = south | north & self.nbad[j]  # columns with no horizontal cell here
        need = band & self.sbad[j]  # columns whose band cannot end here
        north_sums, south_sums = self.north_sums[j], self.south_sums[j]
        for alpha, eps, cost, horizontal in self.choices[j]:
            if horizontal & forbid or need & ~horizontal:
                continue
            ended = band & ~horizontal
            cost += north_sums[horizontal & north] + south_sums[ended]
            yield alpha, eps, cost, (horizontal, south | ended)

    def cost_to_go(self, j: int, state: tuple[int, int], cap: float = math.inf) -> float:
        """Minimum cost of rows j.. plus terminal column costs (0-based j),
        exact when below ``cap`` and otherwise some value >= ``cap``."""
        band, south = state
        if j == self.J:
            return self.split_sums[self.full & ~(band | south)]
        memo = self._memo[j]
        hit = memo.get(state)
        if hit is not None and (hit[1] or hit[0] >= cap):
            return hit[0]
        north = self.full & ~(band | south)
        forbid = south | north & self.nbad[j]  # columns with no horizontal cell here
        need = band & self.sbad[j]  # columns whose band cannot end here
        north_sums, south_sums = self.north_sums[j], self.south_sums[j]
        best = cap
        for cost, horizontal in self.by_cost[j]:
            if cost >= best:
                break  # the rows below add >= 0, so no choice from here on beats best
            if horizontal & forbid or need & ~horizontal:
                continue
            ended = band & ~horizontal
            added = cost + north_sums[horizontal & north] + south_sums[ended]
            if added < best:
                total = added + self.cost_to_go(j + 1, (horizontal, south | ended), best - added)
                if total < best:
                    best = total
        memo[state] = (best, best < cap)
        return best


def _assignment(grid, columns, row_splits, col_splits, misplaced: int) -> AccessAssignment:
    """The assignment of per-row (alpha, eps) and per-column splits, with its lanes.

    ``grid`` and ``columns`` are the bay's rows and columns (``_grid``).  A
    column's vertical cells are N above its horizontal band and S below it,
    or split at ``col_splits[i]`` when it has none.  Each lane is a slice of
    a grid line read deepest first; the walk and the zero search reach only
    lanes without a hole, so its loads are the slice's non-empty cells.
    """
    I, J = len(grid[0]), len(grid)
    lanes = []
    north, south = list(col_splits), list(col_splits)
    banded = 0  # columns whose horizontal band has started
    for j, (alpha, eps) in enumerate(row_splits):
        row = grid[j]
        if alpha:
            west = row[alpha - 1::-1]
            lanes.append(InducedLane("W", (1, j + 1), alpha, tuple(filter(None, west))))
        if eps:
            lanes.append(InducedLane("E", (I, j + 1), eps, tuple(filter(None, row[I - eps:]))))
        for i in itertools.chain(range(alpha), range(I - eps, I)):
            if not banded >> i & 1:
                banded |= 1 << i
                north[i] = j
            south[i] = j + 1
    for i, (n, s, col) in enumerate(zip(north, south, columns)):
        if n:
            lanes.append(InducedLane("N", (i + 1, 1), n, tuple(filter(None, col[n - 1::-1]))))
        if s < J:
            lanes.append(InducedLane("S", (i + 1, J), J - s, tuple(filter(None, col[s:]))))
    # Row j's vertical cells read the j-th letters of their columns' N/S strings.
    vertical = list(map("".join, zip(*("N" * n + "S" * (J - n) for n in north))))
    rows = tuple("W" * alpha + vertical[j][alpha:I - eps] + "E" * eps
                 for j, (alpha, eps) in enumerate(row_splits))
    return AccessAssignment(rows, misplaced, tuple(lanes))


def optimal_assignments(bay: BaySpec, limit: int) -> Iterator[AccessAssignment]:
    """The minimum-misplaced hole-free assignments, up to ``limit``, on demand.

    The bay first gets the cost-free path search within its zero reaches
    (``_zero_path_assignment``).  Its first path is the walk's first
    assignment, of 0 misplaced loads, and is yielded with no cost table; the
    tables, the DP and the walk are built only when a second candidate is
    asked for.  Without such a path the DP runs in the call, so an
    infeasible bay raises ``InfeasibleAssignment`` (and ``limit < 1`` a
    ``ValueError``) from the call itself, and the returned iterator walks
    the filled memo.  Either way each assignment is built when the iterator
    is asked for it.  Order is deterministic: rows top to bottom with the west
    count ascending then the east count ascending, then full-column splits
    by column and split point ascending.  An empty bay yields a single
    canonical assignment (every choice scores zero).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    grid = _grid(bay)
    first = _zero_path_assignment(grid, bay.access_sides)
    if first is not None:
        return _from_zero_path(first, bay, limit if bay.load_count else 1)
    tables = _BayTables(bay)
    best = tables.cost_to_go(0, (0, 0))
    if math.isinf(best):
        raise InfeasibleAssignment(
            f"no hole-free assignment for a {bay.I}x{bay.J} bay with "
            f"sides {''.join(sorted(bay.access_sides))}"
        )
    return itertools.islice(_walk(tables, int(best), 0, (0, 0), 0, []), limit)


def _zero_path_assignment(grid, sides) -> AccessAssignment | None:
    """The first assignment of 0 misplaced loads, with its lanes, or None.

    It is the cost-free path search within the zero reaches, each row taking
    its path's (alpha, eps) and each column still in its north band its
    first zero split, the one with the shortest S lane.
    """
    columns = list(zip(*grid))
    zero = _reaches(grid, columns, sides, _zero_reach)
    J = len(grid)
    path = _first_path(len(columns), J, *zero)
    if path is None:
        return None
    return _assignment(grid, columns, path, [J - s for s in zero[3]], 0)


def _from_zero_path(
    first: AccessAssignment, bay: BaySpec, limit: int,
) -> Iterator[AccessAssignment]:
    """``first``, then the walk's assignments after it, up to ``limit`` in all.

    The cost tables are built only when a second candidate is asked for.
    The optimum is 0, and the walk's first assignment is ``first`` again.
    """
    yield first
    if limit > 1:
        yield from itertools.islice(_walk(_BayTables(bay), 0, 0, (0, 0), 0, []), 1, limit)


# Not a closure: an abandoned walk must free its tables at once, not at a cyclic collection.
def _walk(
    tables: _BayTables, opt: int, j: int, state: tuple[int, int], spent: int,
    row_splits: list[tuple[int, int]],
) -> Iterator[AccessAssignment]:
    """Yield the optimal assignments below row ``j`` in enumeration order.

    ``row_splits`` holds the (alpha, eps) of the rows above; every branch
    taken completes to at least one assignment, since it stays on the
    optimum.
    """
    if j == tables.J:
        occupied = state[0] | state[1]
        # A column still in its north band takes each of its optimal splits.
        splits = [
            [c for c, cost in enumerate(tables.split_cost[i]) if cost == tables.split_best[i]]
            if not occupied >> i & 1 else [0]
            for i in range(tables.I)
        ]
        for col_splits in itertools.product(*splits):
            yield _assignment(tables.grid, tables.columns, row_splits, col_splits, opt)
        return
    for alpha, eps, added, new_state in tables.row_choices(j, state):
        left = opt - spent - added
        if left >= 0 and tables.cost_to_go(j + 1, new_state, left + 1) == left:
            row_splits.append((alpha, eps))
            yield from _walk(tables, opt, j + 1, new_state, spent + added, row_splits)
            row_splits.pop()


def _bay_config(bay: BaySpec, lanes: Iterable[InducedLane]) -> LaneConfiguration:
    """A stand-alone lane configuration of one bay's lanes (placeholder point ids)."""
    return LaneConfiguration.build([(0, lane.capacity, lane.contents) for lane in lanes], bay.G)


def select_assignment(candidates: Iterable[AccessAssignment], bay: BaySpec) -> AccessAssignment:
    """Pick the candidate with the smallest lower bound h; first found wins ties.

    The candidates carry their lanes, as those of ``optimal_assignments``
    do; the bound is read off them, and ``number_lanes`` takes the chosen
    one's as they are.

    The candidates must share one ``misplaced``, as those of one
    ``optimal_assignments`` call do; the floor is the first one's, and a
    candidate read with another raises ``ValueError``.  The scan stops at
    the first candidate whose h equals that floor.  A candidate's
    ``misplaced`` is the blocking count BX of its lanes, and h = BX + GX
    with GX >= 0, so no candidate's h is below the floor.  A candidate that
    reaches it cannot be beaten, and as the first one found it also wins
    every tie.  At a floor of 0 the first candidate has no blocker, so no
    demand and GX = 0: it wins with no bound evaluated.  Every candidate
    after the first is asked only whether its h is below the best so far:
    ``bounds.lb`` with the cap best - 1 is exact below the best and at
    least the best otherwise, so the choice is the uncapped scan's.  The
    best starts at ``math.inf``, so the first candidate's h is exact.
    Candidates are read one at a time, so when they come from
    ``optimal_assignments`` the ones after the stop are never built: on a
    bay whose first candidate has no covering term (GX = 0), one assignment
    is built.
    """
    best, best_h = None, math.inf
    for cand in candidates:
        if best is None:
            floor = cand.misplaced
            if not floor:
                return cand
        elif cand.misplaced != floor:
            raise ValueError("candidate assignments differ in their misplaced count")
        # A later candidate matters only if its h is below best_h.
        h = bounds.lb(_bay_config(bay, cand.lanes), best_h - 1)
        if h < best_h:
            best, best_h = cand, h
            if h == floor:
                break
    if best is None:
        raise ValueError("no candidate assignments")
    return best


def _reach(loaded_front_to_deep, open_side: bool) -> int:
    """Length of the longest hole-free lane over the first cells of a line."""
    if not open_side:
        return 0
    seen_load = False
    for a, loaded in enumerate(loaded_front_to_deep):
        if loaded:
            seen_load = True
        elif seen_load:
            return a  # this empty cell would sit deeper than a load
    return len(loaded_front_to_deep)


def _zero_reach(line, open_side: bool) -> int:
    """Length of the longest lane over the first cells of ``line``, its
    groups front to deep (0 for empty), that holds no hole and no blocking
    load: its loads do not fall from front to deep."""
    if not open_side:
        return 0
    deepest = 0  # groups are >= 1, so 0 means no load yet
    for a, g in enumerate(line):
        if g:
            if g < deepest:
                return a  # this load would block the shallower ones
            deepest = g
        elif deepest:
            return a  # this empty cell would sit deeper than a load
    return len(line)


def _reaches(grid, columns, sides, reach) -> tuple[list[int], ...]:
    """``reach`` of every W, E, N and S line of the bay, in that order."""
    return (
        [reach(row, "W" in sides) for row in grid],
        [reach(row[::-1], "E" in sides) for row in grid],
        [reach(col, "N" in sides) for col in columns],
        [reach(col[::-1], "S" in sides) for col in columns],
    )


def has_hole_free_assignment(bay: BaySpec) -> bool:
    """Whether any hole-free assignment exists, i.e. the DP's cost is finite.

    The instance generator probes every bay it grows with this.  It sums no
    cost: it reads the hole-free lane lengths of every line and looks for
    one complete path of the DP's column-mask states within them
    (``_first_path``; see the module docstring).
    """
    grid = _grid(bay)
    reaches = _reaches(grid, list(zip(*grid)), bay.access_sides, _reach)
    return _first_path(bay.I, bay.J, *reaches) is not None


def _first_path(I: int, J: int, wmax, emax, nmax, smax) -> list[tuple[int, int]] | None:
    """The first path of valid row choices whose lanes all lie within the
    given reaches, as the (alpha, eps) of every row, or None if there is none
    (module docstring, points 2 and 3).

    ``wmax[j]`` and ``emax[j]`` bound the W and E lanes of row j, ``nmax[i]``
    and ``smax[i]`` the N and S lanes of column i (0-based).  A path must end
    with every column still in its north band splittable within its reaches.
    """
    nosplit = sum(1 << i for i in range(I) if nmax[i] + smax[i] < J)
    if not nosplit:
        return [(0, 0)] * J
    rows = []
    for j, (w, e) in enumerate(zip(wmax, emax)):
        nbad = sbad = 0
        for i, (n, s) in enumerate(zip(nmax, smax)):
            if not (i < w or I - i <= e or j < n or J - j <= s):
                return None
            nbad |= (j > n) << i
            sbad |= (J - j > s) << i
        rows.append((w, e, nbad, sbad))
    path = _completion(rows, I, nosplit, 0, 0, 0, set())
    return None if path is None else path[::-1]


# Not a closure: each of the generator's many probes must free its state at once.
def _completion(rows, I: int, nosplit: int, j: int, band: int, south: int,
                dead: set) -> list[tuple[int, int]] | None:
    """The first valid choices of rows ``j``.. from state (band, south),
    bottom row first, or None if they have none.

    ``rows[j]`` holds row j's W and E reaches, ``nbad`` and ``sbad``.  Each
    distinct horizontal mask is made once, as its first (alpha, eps): only
    the full mask has several splits (alpha + eps = I), and its first has
    the least alpha, I - e; past it, eps stops short of I - alpha.  A mask
    is valid by the tests of ``_BayTables.row_choices``.  ``dead`` collects
    the (j, band, south) states found to have no completion.
    """
    if j == len(rows):
        return None if nosplit & ~(band | south) else []
    if (j, band, south) in dead:
        return None
    w, e, nbad, sbad = rows[j]
    stuck = nbad & ~(band | south)  # in the north band for good (docstring point 3)
    if stuck & nosplit:
        return None
    blocked = south | stuck  # columns with no horizontal cell here
    for alpha in range(w + 1):
        west = (1 << alpha) - 1
        for eps in range(min(e, I - alpha - (alpha > I - e)) + 1):
            horizontal = west | ((1 << eps) - 1) << (I - eps)
            ended = band & ~horizontal
            if horizontal & blocked or ended & sbad:
                continue
            path = _completion(rows, I, nosplit, j + 1, horizontal, south | ended, dead)
            if path is not None:
                path.append((alpha, eps))
                return path
    dead.add((j, band, south))
    return None


def to_virtual_lanes(
    instance: WarehouseInstance,
    assignments: list[AccessAssignment],
    layout,
) -> LaneConfiguration:
    """Turn per-bay assignments into the global lane configuration.

    Builds each bay's lanes from its assignment and numbers them with
    ``number_lanes``.
    """
    if len(assignments) != len(instance.bays):
        raise ValueError("one assignment per bay required")
    bay_lanes = [induced_lanes(bay, a) for bay, a in zip(instance.bays, assignments)]
    return number_lanes(bay_lanes, layout, instance.groups)


def number_lanes(bay_lanes: list[list[InducedLane]], layout, groups: int) -> LaneConfiguration:
    """The global lane configuration of every bay's lanes, ``bay_lanes[b]`` for bay b.

    Each lane takes the access point at its front stack and side, by
    ``GridLayout.point_id``.  Lanes are ordered by that point's id and
    renumbered 1..n, and ``LaneConfiguration.points`` records the point of
    each, which is all that replay and the solution file need to place a
    move.
    """
    lanes = []
    for b, lanes_of_bay in enumerate(bay_lanes):
        for lane in lanes_of_bay:
            point = layout.point_id(b, lane.front, lane.side)
            if point is None:
                raise ValueError(
                    f"bay {b} has no access point at {lane.front} side {lane.side}"
                )
            lanes.append((point, lane.capacity, lane.contents))
    lanes.sort(key=lambda lane: lane[0])
    return LaneConfiguration.build(lanes, groups)
