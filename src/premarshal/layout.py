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
order, stacks by ascending index within a side.  An ``AccessPoint`` is a
``NamedTuple`` of its id, tile, bay, stack and side.

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

Rows are computed per access tile on first use, as Manhattan distances
with the detours of the source's own bay column (or row) patched in, and
every point on that tile shares the row.  A plan that reads the distances
of a few lanes builds a few rows; forcing every row (the ``d`` attribute,
as the ``distances`` command does) costs O(access points x distinct access
tiles) time.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import WarehouseInstance


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
    access_points: list[AccessPoint]


class DistanceMatrix:
    """Symmetric matrix of shortest aisle distances between access points.

    ``between`` indexes ``rows``, a mapping from point id to the point's
    row; ``all_pairs_distances`` passes one that computes a row the first
    time it is asked for.  ``d`` is every row in point order.
    """

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = rows

    @cached_property
    def d(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.rows[p] for p in range(self.n))

    def between(self, p: int, q: int) -> int:
        return self.rows[p][q]


class _RowsOnFirstUse(dict):
    """Point id -> distance row; a missing row is built for its whole tile.

    The bands are built on the first missing row, so a plan that reads no
    distance pays nothing for them.  The coordinates are not: building them
    later would keep every access point alive with the matrix.
    """

    def __init__(self, layout: GridLayout):
        super().__init__()
        self.pitch = layout.aisles
        self.coords = tuple(zip(*(p.tile for p in layout.access_points)))
        self.gaps: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})

    @cached_property
    def bands(self) -> dict[tuple[bool, int], list[int]]:
        """(on a horizontal line, bay column or row) -> the points there."""
        pitch_x, pitch_y = self.pitch
        bands: dict[tuple[bool, int], list[int]] = {}
        for p, (x, y) in enumerate(zip(*self.coords)):
            key = (True, x // pitch_x) if y % pitch_y == 0 else (False, y // pitch_y)
            bands.setdefault(key, []).append(p)
        return bands

    def _gaps(self, axis: int, at: int) -> list[int]:
        """|c - at| for every point's coordinate c on ``axis`` (0 is x, 1 is y)."""
        gaps = self.gaps[axis].get(at)
        if gaps is None:
            gaps = self.gaps[axis][at] = [abs(c - at) for c in self.coords[axis]]
        return gaps

    def __missing__(self, p: int) -> tuple[int, ...]:
        xs, ys = self.coords
        x1, y1 = xs[p], ys[p]
        row = list(map(operator.add, self._gaps(0, x1), self._gaps(1, y1)))
        pitch_x, pitch_y = self.pitch
        horizontal = y1 % pitch_y == 0
        along, across, pitch = (xs, ys, pitch_x) if horizontal else (ys, xs, pitch_y)
        u1, v1 = along[p], across[p]
        low = u1 - u1 % pitch
        high = low + pitch
        for q in self.bands[horizontal, u1 // pitch]:
            u2, v2 = along[q], across[q]
            if v2 != v1:
                row[q] = abs(v2 - v1) + min(u1 + u2 - 2 * low, 2 * high - u1 - u2)
        row = tuple(row)
        q = -1
        for _ in range(row.count(0)):  # distance 0 only on the source's own tile
            q = row.index(0, q + 1)
            self[q] = row
        return row


def build_layout(instance: WarehouseInstance) -> GridLayout:
    """Place the bays and derive the aisle pitch and access points."""
    sizes = {(bay.I, bay.J) for bay in instance.bays}
    if len(sizes) > 1:
        raise LayoutError("bays of mixed footprint cannot share the bay grid")
    I, J = sizes.pop()
    cols = instance.warehouse_cols

    access_points: list[AccessPoint] = []
    for b, bay in enumerate(instance.bays):
        r, c = divmod(b, cols)
        x0, y0 = c * (I + 1), r * (J + 1)
        for side in ("N", "E", "S", "W"):
            if side not in bay.access_sides:
                continue
            if side == "N":
                spots = [((i, 1), (x0 + i, y0)) for i in range(1, I + 1)]
            elif side == "E":
                spots = [((I, j), (x0 + I + 1, y0 + j)) for j in range(1, J + 1)]
            elif side == "S":
                spots = [((i, J), (x0 + i, y0 + J + 1)) for i in range(1, I + 1)]
            else:
                spots = [((1, j), (x0, y0 + j)) for j in range(1, J + 1)]
            for stack, tile in spots:
                access_points.append(AccessPoint(len(access_points), tile, b, stack, side))

    return GridLayout((I + 1, J + 1), access_points)


def all_pairs_distances(layout: GridLayout) -> DistanceMatrix:
    """Shortest 4-connected paths over aisle tiles between all access points.

    Storage tiles are never traversed; shortcuts through storage space are
    deliberately not considered.  Rows are computed on first use, one per
    distinct access tile, and every point on that tile shares the row.
    """
    return DistanceMatrix(len(layout.access_points), _RowsOnFirstUse(layout))


def write_distances_csv(matrix: DistanceMatrix, fileobj) -> None:
    """Dump the matrix with access-point ids as row/column headers."""
    writer = csv.writer(fileobj)
    writer.writerow(["ap"] + list(range(matrix.n)))
    for p, row in enumerate(matrix.d):
        writer.writerow([p] + list(row))
