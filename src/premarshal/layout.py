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

Distances are computed on the aisle graph with tiles numbered in sorted
order: one breadth-first search from an access tile fills a flat list of hop
counts, the tile's row is read out of it for all access points at once, and
every point on that tile shares the row.  Rows are computed per access tile
on first use, so a plan that reads the distances of a few lanes runs a few
searches; forcing every row (the ``d`` attribute, as the ``distances``
command does) costs O(aisle tiles x distinct access tiles) time.
Reachability is settled up front from one labelling of the aisle graph's
components, so an unreachable pair fails at construction, not on first use.

``build_layout`` checks neither overlap nor connectivity, because its
layouts have neither fault.  Bay b sits at grid cell divmod(b, cols), a
different cell for every bay, so no two bays share a tile.  No bay covers
a tile with x = 0 (mod I+1) or y = 0 (mod J+1), so every such tile is an
aisle and every other tile is storage (the instance has one bay per grid
cell): the aisles are the full lines x = 0 (mod I+1) and y = 0 (mod J+1).
So ``build_layout`` takes the tiles of those lines as the aisles.  Every
vertical line crosses every horizontal one, so the aisle graph is
connected, and it holds at least the line x = 0.  Only a hand-built
``GridLayout`` can be disconnected; ``all_pairs_distances`` reports it
with ``DisconnectedError``.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import WarehouseInstance


class LayoutError(Exception):
    """The instance cannot be laid out (mixed bay sizes, or broken aisle graph)."""


class DisconnectedError(LayoutError):
    """Some access-point pairs are mutually unreachable over the aisles."""

    def __init__(self, pairs):
        self.pairs = pairs
        preview = ", ".join(f"{p}-{q}" for p, q in pairs[:5])
        super().__init__(f"{len(pairs)} unreachable access-point pairs ({preview} ...)")


class AccessPoint(NamedTuple):
    point_id: int
    tile: tuple[int, int]
    bay: int
    stack: tuple[int, int]
    side: str


@dataclass
class GridLayout:
    width: int
    length: int
    aisles: frozenset[tuple[int, int]]
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
    """Point id -> distance row; a missing row costs one BFS from its tile."""

    def __init__(self, adjacency: list[list[int]], columns: list[int]):
        super().__init__()
        self.adjacency = adjacency
        self.columns = columns
        self.points_on: dict[int, list[int]] = {}
        for p, c in enumerate(columns):
            self.points_on.setdefault(c, []).append(p)
        if len(columns) > 1:
            self.pick = operator.itemgetter(*columns)
        else:  # itemgetter of one key returns a bare value, not a tuple
            self.pick = lambda dist: tuple(dist[c] for c in columns)  # noqa: E731

    def __missing__(self, p: int) -> tuple[int, ...]:
        tile = self.columns[p]
        row = self.pick(_bfs(self.adjacency, tile))
        for q in self.points_on[tile]:
            self[q] = row
        return row


def build_layout(instance: WarehouseInstance) -> GridLayout:
    """Place the bays and derive aisle tiles and access points."""
    sizes = {(bay.I, bay.J) for bay in instance.bays}
    if len(sizes) > 1:
        raise LayoutError("bays of mixed footprint cannot share the bay grid")
    I, J = sizes.pop()
    rows, cols = instance.warehouse_rows, instance.warehouse_cols
    width = cols * (I + 1) + 1
    length = rows * (J + 1) + 1

    aisles = frozenset(
        [(x, y) for x in range(0, width, I + 1) for y in range(length)]
        + [(x, y) for y in range(0, length, J + 1) for x in range(width)]
    )

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

    return GridLayout(width, length, aisles, access_points)


def _aisle_graph(aisles) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    """Number the aisle tiles in sorted order; list each tile's neighbours."""
    index = {tile: a for a, tile in enumerate(sorted(aisles))}
    adjacency = [
        [index[nxt] for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if nxt in index]
        for (x, y) in index
    ]
    return index, adjacency


def _bfs(adjacency: list[list[int]], source: int) -> list[int]:
    """Hop counts from ``source`` by tile index; -1 marks an unreachable tile."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        reached = []
        for a in frontier:
            for b in adjacency[a]:
                if dist[b] < 0:
                    dist[b] = level
                    reached.append(b)
        frontier = reached
    return dist


def all_pairs_distances(layout: GridLayout) -> DistanceMatrix:
    """Shortest 4-connected paths over aisle tiles between all access points.

    Storage tiles are never traversed; shortcuts through storage space are
    deliberately not considered.  Rows are computed on first use, one BFS
    per distinct access tile, and every point on that tile shares the row.
    """
    points = layout.access_points
    index, adjacency = _aisle_graph(layout.aisles)
    off_aisle = [p.point_id for p in points if p.tile not in index]
    if off_aisle:
        raise LayoutError(f"access points {off_aisle} are not on aisle tiles")
    columns = [index[p.tile] for p in points]

    component: dict[int, int] = {}  # access tile -> first access tile reaching it
    for source in columns:
        if source not in component:
            hops = _bfs(adjacency, source)
            for c in columns:
                if hops[c] >= 0:
                    component.setdefault(c, source)
    if len(set(component.values())) > 1:
        unreachable = [
            (p.point_id, q.point_id)
            for p, cp in zip(points, columns)
            for q, cq in zip(points, columns)
            if component[cp] != component[cq] and p.point_id < q.point_id
        ]
        raise DisconnectedError(unreachable)
    return DistanceMatrix(len(points), _RowsOnFirstUse(adjacency, columns))


def write_distances_csv(matrix: DistanceMatrix, fileobj) -> None:
    """Dump the matrix with access-point ids as row/column headers."""
    writer = csv.writer(fileobj)
    writer.writerow(["ap"] + list(range(matrix.n)))
    for p, row in enumerate(matrix.d):
        writer.writerow([p] + list(row))
