"""Global tile layout and the all-pairs access-point distance matrix.

Geometry convention (this artifact's, documented so distances are
reproducible): bays are placed on a ``warehouse_rows x warehouse_cols``
grid with a one-tile aisle ring around every bay; aisles between adjacent
bays are shared (width 1).  With uniform I x J bays the footprint is
``warehouse_cols*(I+1)+1`` by ``warehouse_rows*(J+1)+1`` tiles.  Every
boundary stack of a bay gets one access point per allowed side, placed on
the orthogonally adjacent aisle tile.  Access points of facing bays may
share a tile (distance 0).

Access-point ids are 0-based and enumerated bay by bay, sides in N, E, S, W
order, stacks by ascending index within a side.  Both an id and a tile
follow from a formula: ``GridLayout`` keeps the id of the first point on
each side of each bay (a closed side has none), so the point of stack
(i, j) on side N or S is that id plus i - 1, and on E or W plus j - 1
(``point_id``); its tile is the stack's neighbour across the side.  No
per-point object is built to lay out, number lanes or measure distances.
``access_points`` lists every point as an ``AccessPoint``, a
``NamedTuple`` of its id, tile, bay, stack and side, each built only when
it is read.

The aisles are the full lines x = 0 (mod I+1) and y = 0 (mod J+1).  Bay b
sits at grid cell divmod(b, cols), a different cell for every bay, and no
bay covers a tile on those lines, so every such tile is an aisle and every
other tile is storage (the instance has one bay per grid cell).
``GridLayout.aisles`` is therefore just the pitch (I+1, J+1) of the lines.

Distances are shortest 4-connected paths over the aisle tiles, and on this
grid they have a closed form.  Every access tile lies on exactly one aisle
line, strictly between two crossings.  Between tiles p = (x1, y1) and
q = (x2, y2) the distance is |x1 - x2| + |y1 - y2|, because a monotone
path exists: if one tile is on a horizontal line and the other on a
vertical one, follow the first line to the crossing with the second; if
both are on the same line, follow it; if both are on horizontal lines of
different bay columns, a vertical line lies between them.  The one
exception is two tiles on different horizontal lines of one bay column,
between its vertical aisles xl and xr: the path must leave by one of them,
so the distance is |y1 - y2| + min(x1 + x2 - 2 xl, 2 xr - x1 - x2).  The
same holds with x and y swapped for vertical lines of one bay row.

Each distance is computed from the two points' tiles when it is read;
nothing is cached but the tiles.  Those are computed, for every point at
once, on the first read, so a plan that reads no distance computes none.
Writing the whole matrix (``write_distances_csv``, as the ``distances``
command does) costs one closed form per pair, O(access points^2) time, and
holds one row at a time.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import SIDES, WarehouseInstance


class LayoutError(Exception):
    """The instance cannot be laid out (bays of mixed footprint)."""


class AccessPoint(NamedTuple):
    point_id: int
    tile: tuple[int, int]
    bay: int
    stack: tuple[int, int]
    side: str


@dataclass
class GridLayout:
    aisles: tuple[int, int]  # the pitch (I+1, J+1) of the aisle lines
    cols: int  # bays per row of the bay grid
    # starts[4 b + s] is the id of the first point on side SIDES[s] of bay b,
    # and the points of that side run up to the next entry: none if closed.
    starts: list[int]

    @property
    def n(self) -> int:
        return self.starts[-1]

    def point_id(self, bay: int, stack: tuple[int, int], side: str) -> int | None:
        """Id of the point of boundary ``stack`` on ``side``; None if the bay
        has no such side."""
        slot = 4 * bay + SIDES.index(side)
        first = self.starts[slot]
        if first == self.starts[slot + 1]:
            return None
        i, j = stack
        return first + (i - 1 if side in "NS" else j - 1)

    def edge(self, bay: int, side: str) -> tuple[Sequence[int], Sequence[int]]:
        """x and y of the tiles of a bay side's points, stacks ascending."""
        pitch_x, pitch_y = self.aisles
        r, c = divmod(bay, self.cols)
        x0, y0 = c * pitch_x, r * pitch_y
        if side in "NS":
            y = y0 if side == "N" else y0 + pitch_y
            return range(x0 + 1, x0 + pitch_x), [y] * (pitch_x - 1)
        x = x0 if side == "W" else x0 + pitch_x
        return [x] * (pitch_y - 1), range(y0 + 1, y0 + pitch_y)

    @property
    def access_points(self) -> _AccessPoints:
        return _AccessPoints(self)


class _AccessPoints(Sequence):
    """Every ``AccessPoint`` in id order, each built when it is indexed."""

    def __init__(self, layout: GridLayout):
        self.layout = layout

    def __len__(self) -> int:
        return self.layout.n

    def __getitem__(self, p: int) -> AccessPoint:
        p = range(len(self))[p]  # IndexError past either end
        starts = self.layout.starts
        # The last side starting at or before p: a closed side ends where it
        # starts, so it is never the one.
        slot = bisect_right(starts, p) - 1
        b, s = divmod(slot, 4)
        side = SIDES[s]
        k = p - starts[slot]
        xs, ys = self.layout.edge(b, side)
        I, J = (pitch - 1 for pitch in self.layout.aisles)
        stack = {"N": (k + 1, 1), "E": (I, k + 1), "S": (k + 1, J), "W": (1, k + 1)}[side]
        return AccessPoint(p, (xs[k], ys[k]), b, stack, side)


class DistanceMatrix:
    """Symmetric matrix of shortest aisle distances between access points.

    ``between`` computes a distance by the closed form (module docstring)
    from the two points' entries in ``tiles``, which is built on the first
    read.
    """

    def __init__(self, layout: GridLayout):
        self.layout = layout
        self.n = layout.n

    @cached_property
    def tiles(self) -> list[tuple[int, int, int]]:
        """(x, y, line) of every point's tile, in point order: ``line`` is
        2c on a horizontal aisle line in bay column c, and 2r + 1 on a
        vertical one in bay row r."""
        layout = self.layout
        starts = layout.starts
        tiles: list[tuple[int, int, int]] = []
        for slot in range(len(starts) - 1):
            if starts[slot] < starts[slot + 1]:  # the side is open
                b, s = divmod(slot, 4)
                r, c = divmod(b, layout.cols)
                line = 2 * c if SIDES[s] in "NS" else 2 * r + 1
                tiles += ((x, y, line) for x, y in zip(*layout.edge(b, SIDES[s])))
        return tiles

    def between(self, p: int, q: int) -> int:
        tiles = self.tiles
        x1, y1, line = tiles[p]
        x2, y2, other = tiles[q]
        if line != other:
            # abs() spelled out: ``write_distances_csv`` makes this call
            # for every pair.
            return (x1 - x2 if x1 > x2 else x2 - x1) + (y1 - y2 if y1 > y2 else y2 - y1)
        # One bay column (row), swapped to run along u for a vertical band:
        # tiles on different lines leave by the nearer side aisle.
        pitch_x, pitch_y = self.layout.aisles
        u1, v1, u2, v2, pitch = (
            (y1, x1, y2, x2, pitch_y) if line & 1 else (x1, y1, x2, y2, pitch_x)
        )
        if v1 == v2:
            return abs(u1 - u2)
        low = line // 2 * pitch
        return abs(v1 - v2) + min(u1 + u2 - 2 * low, 2 * (low + pitch) - u1 - u2)


def build_layout(instance: WarehouseInstance) -> GridLayout:
    """Place the bays and number the access points of each one's open sides."""
    sizes = {(bay.I, bay.J) for bay in instance.bays}
    if len(sizes) > 1:
        raise LayoutError("bays of mixed footprint cannot share the bay grid")
    I, J = sizes.pop()
    starts = [0]
    for bay in instance.bays:
        for side in SIDES:
            count = (I if side in "NS" else J) if side in bay.access_sides else 0
            starts.append(starts[-1] + count)
    return GridLayout((I + 1, J + 1), instance.warehouse_cols, starts)


def all_pairs_distances(layout: GridLayout) -> DistanceMatrix:
    """Shortest 4-connected paths over aisle tiles between all access points.

    Storage tiles are never traversed; shortcuts through storage space are
    deliberately not considered.  Each distance is computed when it is
    read, so a plan pays only for the pairs its moves and bounds read.
    """
    return DistanceMatrix(layout)


def write_distances_csv(matrix: DistanceMatrix, fileobj) -> None:
    """Dump the matrix with access-point ids as row/column headers.  Each
    row is computed by ``between`` as it is written, so one row is held at
    a time."""
    writer = csv.writer(fileobj)
    points = range(matrix.n)
    writer.writerow(["ap", *points])
    between = matrix.between
    for p in points:
        writer.writerow([p] + [between(p, q) for q in points])
