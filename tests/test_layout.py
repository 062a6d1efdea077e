import csv
import hashlib
import io
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from premarshal import layout as layout_module
from premarshal import pipeline, verify
from premarshal.generate import GenConfig, generate
from premarshal.layout import (
    DistanceMatrix,
    LayoutError,
    all_pairs_distances,
    build_layout,
    write_distances_csv,
)
from premarshal.model import BaySpec, WarehouseInstance


def _instance(bay_shape, wh_rows, wh_cols, sides="NESW"):
    """``sides`` is one set for every bay, or a list with one set per bay."""
    I, J = bay_shape
    per_bay = [sides] * (wh_rows * wh_cols) if isinstance(sides, str) else sides
    bays = tuple(
        BaySpec(I=I, J=J, T=1, G=1, occupancy={}, access_sides=frozenset(s))
        for s in per_bay
    )
    return WarehouseInstance(bays=bays, warehouse_rows=wh_rows, warehouse_cols=wh_cols, meta={})


def test_single_bay_footprint_and_point_count():
    layout = build_layout(_instance((3, 3), 1, 1))
    assert len(layout.access_points) == 12


def test_two_by_two_warehouse_point_count():
    layout = build_layout(_instance((3, 3), 2, 2))
    assert len(layout.access_points) == 48


def test_restricted_sides_point_count():
    layout = build_layout(_instance((3, 3), 1, 1, sides="NW"))
    assert len(layout.access_points) == 6


def test_point_ordering_and_adjacency():
    """Ids run bay by bay, N/E/S/W, stacks ascending; each point hugs its stack."""
    layout = build_layout(_instance((3, 3), 1, 1))
    first = layout.access_points[0]
    assert (first.side, first.stack, first.tile) == ("N", (1, 1), (1, 0))
    sides = [p.side for p in layout.access_points]
    assert sides == ["N"] * 3 + ["E"] * 3 + ["S"] * 3 + ["W"] * 3
    # In a warehouse of 3x3 bays and ``cols`` columns, bay b starts at
    # x0 = 4c, y0 = 4r for (r, c) = divmod(b, cols), and its stack (i, j)
    # is the tile (x0 + i, y0 + j).
    for rows, cols in ((1, 1), (2, 3)):
        instance = _instance((3, 3), rows, cols)
        layout = build_layout(instance)
        aisles = oracles.aisle_tiles(instance)
        for p in layout.access_points:
            assert p.tile in aisles
            r, c = divmod(p.bay, cols)
            sx, sy = 4 * c + p.stack[0], 4 * r + p.stack[1]
            assert abs(p.tile[0] - sx) + abs(p.tile[1] - sy) == 1


def test_facing_bays_share_access_tiles():
    instance = _instance((3, 3), 1, 2)
    matrix = all_pairs_distances(build_layout(instance))
    points = oracles.access_points(instance)
    east_of_0 = [p for p in points if p.bay == 0 and p.side == "E"]
    west_of_1 = [p for p in points if p.bay == 1 and p.side == "W"]
    for e, w in zip(east_of_0, west_of_1):
        assert e.tile == w.tile
        assert matrix.between(e.point_id, w.point_id) == 0


def test_mixed_bay_sizes_rejected():
    b1 = BaySpec(I=3, J=3, T=1, G=1, occupancy={}, access_sides=frozenset("N"))
    b2 = BaySpec(I=4, J=4, T=1, G=1, occupancy={}, access_sides=frozenset("N"))
    inst = WarehouseInstance(bays=(b1, b2), warehouse_rows=1, warehouse_cols=2, meta={})
    with pytest.raises(LayoutError):
        build_layout(inst)


def test_matrix_basics():
    layout = build_layout(_instance((3, 3), 1, 1))
    m = all_pairs_distances(layout)
    assert m.n == 12
    for p in range(m.n):
        assert m.between(p, p) == 0
        for q in range(m.n):
            assert m.between(p, q) == m.between(q, p)
    # neighbouring points along the north edge sit one tile apart
    assert m.between(0, 1) == 1
    assert m.between(0, 2) == 2


def _aisle_graph(instance):
    tiles = sorted(oracles.aisle_tiles(instance))
    index = {t: a for a, t in enumerate(tiles)}
    edges = []
    for (x, y) in tiles:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in index:
                edges.append((index[(x, y)], index[nxt]))
    return tiles, index, edges


@pytest.mark.parametrize("shape,wh", [((3, 3), (1, 1)), ((3, 3), (2, 2)), ((4, 4), (2, 1))])
def test_closed_form_matches_floyd_warshall(shape, wh):
    instance = _instance(shape, *wh)
    layout = build_layout(instance)
    matrix = all_pairs_distances(layout)
    tiles, index, edges = _aisle_graph(instance)
    oracle = oracles.floyd_warshall(len(tiles), edges)
    points = oracles.access_points(instance)
    for p in points:
        for q in points:
            assert matrix.between(p.point_id, q.point_id) == oracle[index[p.tile]][index[q.tile]]


@st.composite
def _instances(draw, max_side=4, max_cols=3):
    """Bays up to ``max_side`` square in up to 3 x ``max_cols``, each with its
    own non-empty set of access sides."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, max_cols))
    sides = draw(st.lists(
        st.sets(st.sampled_from("NESW"), min_size=1).map("".join),
        min_size=rows * cols, max_size=rows * cols,
    ))
    return _instance(shape, rows, cols, sides)


@settings(max_examples=40, deadline=None)
@given(_instances())
# Two tiles on different lines of one bay column (row) leave by the nearer
# side aisle: 1-wide and 1-deep bays tie, single-side and N+S-only bays
# have a near end on either side.
@example(_instance((1, 4), 2, 2))
@example(_instance((4, 1), 2, 2))
@example(_instance((3, 2), 3, 2, "N"))
@example(_instance((2, 3), 2, 3, "W"))
@example(_instance((4, 3), 3, 2, "NS"))
def test_distances_equal_floyd_warshall_on_random_layouts(instance):
    layout = build_layout(instance)
    matrix = all_pairs_distances(layout)
    tiles, index, edges = _aisle_graph(instance)
    oracle = oracles.floyd_warshall(len(tiles), edges)
    points = oracles.access_points(instance)
    assert matrix.n == len(points)
    rows = oracles.distance_rows(matrix)
    for p in points:
        row = [oracle[index[p.tile]][index[q.tile]] for q in points]
        assert list(rows[p.point_id]) == row
        for q in points:
            if q.tile == p.tile:
                assert rows[q.point_id] == rows[p.point_id]


def _side_stacks(bay, side):
    """The boundary stacks of ``bay`` on ``side``, ascending."""
    if side in "NS":
        return [(i, 1 if side == "N" else bay.J) for i in range(1, bay.I + 1)]
    return [(1 if side == "W" else bay.I, j) for j in range(1, bay.J + 1)]


@settings(max_examples=60, deadline=None)
@given(_instances(max_side=6, max_cols=4))
@example(_instance((1, 1), 1, 1, "N"))
@example(_instance((2, 5), 2, 2, ["NW", "ES", "S", "NESW"]))
def test_point_ids_and_points_follow_the_enumeration(instance):
    """Ids and tiles by formula equal the one-by-one enumeration, per-bay
    side sets included; a side the bay lacks has no id."""
    layout = build_layout(instance)
    points = oracles.access_points(instance)
    assert len(layout.access_points) == layout.n == len(points)
    assert list(layout.access_points) == points
    assert layout.access_points[-1] == points[-1]
    for p in points:
        assert layout.point_id(p.bay, p.stack, p.side) == p.point_id
    for b, bay in enumerate(instance.bays):
        for side in set("NESW") - bay.access_sides:
            for stack in _side_stacks(bay, side):
                assert layout.point_id(b, stack, side) is None


def _counting_tile_builds(built):
    """Patch ``DistanceMatrix.tiles`` so that each build appends its matrix
    to ``built``."""
    build = DistanceMatrix.tiles.func

    def counted(matrix):
        built.append(matrix)
        return build(matrix)

    tiles = cached_property(counted)
    tiles.__set_name__(DistanceMatrix, "tiles")
    return mock.patch.object(DistanceMatrix, "tiles", tiles)


@settings(max_examples=40, deadline=None)
@given(_instances(), st.randoms(use_true_random=False))
def test_distances_asked_in_any_order_equal_the_oracle(instance, rng):
    """Asked in any order, every distance is the oracle's; the tiles are
    computed at the first one and only then, and the rows asked in point
    order are the oracle's matrix."""
    layout = build_layout(instance)
    tiles, index, edges = _aisle_graph(instance)
    oracle = oracles.floyd_warshall(len(tiles), edges)
    points = oracles.access_points(instance)
    pairs = [(p, q) for p in points for q in points]
    rng.shuffle(pairs)
    built = []
    with _counting_tile_builds(built):
        matrix = all_pairs_distances(layout)
        assert built == []
        for p, q in pairs:
            assert matrix.between(p.point_id, q.point_id) == oracle[index[p.tile]][index[q.tile]]
        assert built == [matrix]

    eager = tuple(tuple(oracle[index[p.tile]][index[q.tile]] for q in points) for p in points)
    assert oracles.distance_rows(matrix) == eager


def test_a_sorted_replay_computes_no_tile():
    instance = generate(GenConfig(bay=(3, 3), warehouse=(12, 12), fill=0.6, groups=10, seed=1))
    result, prepared = pipeline.solve_instance(instance, "astar")
    assert result.k == 0
    built = []
    with _counting_tile_builds(built):
        assert verify.replay(instance, prepared.assignments, result).ok
    assert built == []


def test_a_sorted_plan_builds_no_access_point_and_no_tile():
    """Preparing, solving and replaying a k = 0 instance numbers its lanes by
    formula and reads no distance, so no point object or tile is built."""
    instance = generate(GenConfig(bay=(3, 3), warehouse=(12, 12), fill=0.6, groups=10, seed=1))
    with mock.patch.object(layout_module, "AccessPoint", side_effect=AssertionError), \
            mock.patch.object(DistanceMatrix, "tiles",
                              new_callable=mock.PropertyMock, side_effect=AssertionError):
        prepared = pipeline.prepare(instance)
        result, _ = pipeline.solve_instance(instance, "astar", prepared=prepared)
        assert result.k == 0
        assert verify.replay(instance, prepared.assignments, result).ok


def test_csv_of_a_large_instance_is_pinned():
    """4x4 bays, 8x8 warehouse, 1,024 points: a changed value or row order fails."""
    instance = generate(GenConfig(bay=(4, 4), warehouse=(8, 8), fill=0.4, groups=5, seed=2))
    matrix = all_pairs_distances(build_layout(instance))
    buf = io.StringIO()
    write_distances_csv(matrix, buf)
    assert matrix.n == 1024
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "74f023f918e43f45a96daddd25efa731c9fea2bdc699568d059168999f41a230"
    )


def test_csv_is_written_a_row_at_a_time():
    """The export computes each row as it writes it: when row p is written,
    ``between`` has been asked the n distances of rows 0..p and no more,
    and every row equals ``between``'s."""
    matrix = all_pairs_distances(build_layout(_instance((3, 3), 2, 2)))
    n, between = matrix.n, matrix.between
    asked, asked_at_write = [], []

    def counted(p, q):
        asked.append((p, q))
        return between(p, q)

    class Sink(io.StringIO):
        def write(self, text):
            asked_at_write.append(len(asked))
            return super().write(text)

    matrix.between = counted
    buf = Sink()
    write_distances_csv(matrix, buf)
    assert asked_at_write == [n * p for p in range(n + 1)]
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["ap", *map(str, range(n))]
    assert rows[1:] == [[str(p), *(str(between(p, q)) for q in range(n))] for p in range(n)]


def test_triangle_inequality():
    layout = build_layout(_instance((3, 3), 2, 2))
    m = all_pairs_distances(layout)
    n = m.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert m.between(a, c) <= m.between(a, b) + m.between(b, c)


def test_csv_export():
    """One 1 x 1 bay open to N and S: its two points sit on different lines
    of one bay column, two tiles apart, and the path round the bay is 4."""
    m = all_pairs_distances(build_layout(_instance((1, 1), 1, 1, "NS")))
    buf = io.StringIO()
    write_distances_csv(m, buf)
    lines = buf.getvalue().strip().splitlines()
    assert [line.split(",") for line in lines] == [
        ["ap", "0", "1"], ["0", "0", "4"], ["1", "4", "0"],
    ]
