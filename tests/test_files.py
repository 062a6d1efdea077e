import json

import pytest
from hypothesis import given, settings, strategies as st

from premarshal import files
from premarshal.fixing import AccessAssignment
from premarshal.generate import GenConfig, generate
from premarshal.model import BaySpec, Solution, WarehouseInstance
from premarshal.pipeline import solve_instance


def _witness_instance():
    bay0 = BaySpec(
        I=3, J=3, T=1, G=9,
        occupancy={(3, 1, 1): 1, (2, 1, 1): 5, (3, 3, 1): 2, (2, 3, 1): 9},
        access_sides=frozenset("W"),
    )
    bay1 = BaySpec(I=3, J=3, T=1, G=9, occupancy={}, access_sides=frozenset("W"))
    return WarehouseInstance(
        bays=(bay0, bay1), warehouse_rows=1, warehouse_cols=2,
        meta={"warehouse_layout": "1x2"},
    )


def test_instance_json_shape_is_frozen():
    data = files.instance_to_json(_witness_instance())
    assert set(data) == {"meta", "bays"}
    bay = data["bays"][0]
    assert set(bay) == {"I", "J", "T", "G", "access_sides", "loads"}
    assert bay["access_sides"] == ["W"]
    assert bay["loads"] == [
        {"i": 2, "j": 1, "t": 1, "g": 5},
        {"i": 2, "j": 3, "t": 1, "g": 9},
        {"i": 3, "j": 1, "t": 1, "g": 1},
        {"i": 3, "j": 3, "t": 1, "g": 2},
    ]
    assert data["bays"][1]["loads"] == []


def test_instance_round_trip(tmp_path):
    instance = generate(
        GenConfig(bay=(3, 3), warehouse=(2, 2), fill=0.6, groups=5, seed=11)
    )
    path = tmp_path / "instance.json"
    files.write_instance(instance, path)
    again = files.read_instance(path)
    assert again.warehouse_rows == 2 and again.warehouse_cols == 2
    assert again.meta == instance.meta
    for a, b in zip(instance.bays, again.bays):
        assert (a.I, a.J, a.T, a.G) == (b.I, b.J, b.T, b.G)
        assert a.access_sides == b.access_sides
        assert a.occupancy == b.occupancy
    second = tmp_path / "second.json"
    files.write_instance(again, second)
    assert path.read_bytes() == second.read_bytes()


def test_instance_from_json_needs_a_layout_label():
    data = files.instance_to_json(_witness_instance())
    del data["meta"]["warehouse_layout"]
    with pytest.raises(ValueError):
        files.instance_from_json(data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _corrupt(draw, value):
    """``value`` with one part, or all of it, replaced by a small JSON value."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        part = draw(st.sampled_from(list(value) if isinstance(value, dict)
                                    else range(len(value))))
        value = value.copy()
        value[part] = _corrupt(draw, value[part])
        return value
    return draw(_JSON)


@st.composite
def _instances(draw):
    """A valid instance of at most 3 bays, sides <= 4 and <= 6 loads a bay,
    corrupted in up to two places."""
    side = st.integers(1, 4)
    groups = draw(st.integers(1, 5))
    bays = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(side), draw(side)
        cells = draw(st.lists(st.tuples(st.integers(1, rows), st.integers(1, cols)),
                              max_size=6, unique=True))
        bays.append({
            "I": rows, "J": cols, "T": draw(side), "G": groups,
            "access_sides": draw(st.lists(st.sampled_from("NESW"), min_size=1,
                                          max_size=4, unique=True)),
            "loads": [{"i": i, "j": j, "t": 1, "g": draw(st.integers(1, groups))}
                      for i, j in cells],
        })
    data = {"meta": {"warehouse_layout": f"1x{len(bays)}"}, "bays": bays}
    for _ in range(draw(st.integers(0, 2))):
        data = _corrupt(draw, data)
    return data


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_instance_from_json_returns_or_raises_a_read_error(data):
    """Any small JSON value gives an instance or an error the CLI turns into
    exit code 3, never an unexpected exception."""
    try:
        instance = files.instance_from_json(data)
    except (ValueError, KeyError, TypeError):
        return
    assert isinstance(instance, WarehouseInstance)
    for bay, entry in zip(instance.bays, data["bays"], strict=True):
        assert all(type(v) is int for v in (bay.I, bay.J, bay.T, bay.G))
        assert all(type(v) is int for cell, g in bay.occupancy.items() for v in (*cell, g))
        assert bay.load_count == len(entry["loads"])


def _one_bay(loads, **dims):
    bay = {"I": 3, "J": 3, "T": 1, "G": 5, "access_sides": ["W"], "loads": loads}
    bay.update(dims)
    return {"meta": {"warehouse_layout": "1x1"}, "bays": [bay]}


def test_instance_from_json_rejects_two_loads_at_one_cell():
    loads = [{"i": 3, "j": 1, "t": 1, "g": 1}, {"i": 3, "j": 1, "t": 1, "g": 4}]
    with pytest.raises(ValueError, match="two loads at cell"):
        files.instance_from_json(_one_bay(loads))


@pytest.mark.parametrize("key, value", [
    ("g", 2.5), ("g", 2.0), ("i", True), ("t", False), ("j", "1"),
    ("I", 3.0), ("G", True), ("T", None),
])
def test_instance_from_json_rejects_numbers_that_are_no_integers(key, value):
    load = {"i": 3, "j": 1, "t": 1, "g": 2}
    dims = {}
    (load if key in load else dims)[key] = value
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        files.instance_from_json(_one_bay([load], **dims))


def test_parse_layout_label():
    assert files.parse_layout_label("3x4") == (3, 4)
    assert files.parse_layout_label("12X12") == (12, 12)
    for bad in ("3", "3x4x5", "0x2", "ax2", "-1x2", "x", ""):
        with pytest.raises(ValueError):
            files.parse_layout_label(bad)
    # int() reads each of these, as 30, 3 or 3, or fails with its own message.
    for bad in ("3_0x3", "\u0663x3", "+3x3", " 3x3", "3x3\n", "3x", "x3", "3 x 3"):
        with pytest.raises(ValueError, match="is not of the form RxC"):
            files.parse_layout_label(bad)


def test_solution_round_trip(tmp_path):
    instance = _witness_instance()
    result, prepared = solve_instance(instance, "astar")
    assert isinstance(result, Solution)
    path = tmp_path / "solution.json"
    files.write_solution(result, prepared.config, path)
    data = files.read_solution(path)
    assert data["algo"] == "astar"
    assert data["k"] == result.k == len(data["moves"])
    assert data["total_distance"] == result.total_distance
    for entry, move in zip(data["moves"], result.moves):
        assert entry["from_lane"] == move.from_lane
        assert entry["to_lane"] == move.to_lane
        assert entry["distance"] == move.distance
        assert entry["from_access_point"] == prepared.config.points[move.from_lane - 1]
    assert data["assignments"] == [
        {"bay": 0, "rows": ["WWW", "WWW", "WWW"]},
        {"bay": 1, "rows": ["WWW", "WWW", "WWW"]},
    ]
    assert set(data["stats"]) == {
        "nodes_evaluated", "wall_time", "preprocessing_time",
        "optimal_moves", "optimal_distance",
    }
    again = tmp_path / "again.json"
    files.write_solution(result, prepared.config, again)
    assert path.read_bytes() == again.read_bytes()
    assert path.read_bytes().endswith(b"\n")


def test_read_solution_rejects_non_solutions(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValueError):
        files.read_solution(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        files.read_solution(path)
    # a tampered file that still has moves must load: replay does the judging
    path.write_text(json.dumps({"moves": [], "k": 99, "total_distance": -1}))
    assert files.read_solution(path)["k"] == 99


def test_assignments_round_trip_recomputes_misplaced():
    instance = _witness_instance()
    rows = ("WWW", "WWW", "WWW")
    data = files.assignments_to_json(
        [AccessAssignment(rows=rows, misplaced=0) for _ in instance.bays]
    )
    assert data == [{"bay": 0, "rows": list(rows)}, {"bay": 1, "rows": list(rows)}]
    rebuilt = files.assignments_from_json(data, instance)
    assert rebuilt[0].rows == rows
    assert rebuilt[0].misplaced == 2  # both lanes hold one blocking load
    assert rebuilt[1].misplaced == 0


def test_assignments_from_json_tolerates_invalid_rows():
    instance = _witness_instance()
    data = [
        {"bay": 0, "rows": ["EEE", "EEE", "EEE"]},  # side the bay does not have
        {"bay": 1, "rows": ["WWW", "WWW", "WWW"]},
    ]
    rebuilt = files.assignments_from_json(data, instance)
    assert rebuilt[0].rows == ("EEE", "EEE", "EEE")
    assert rebuilt[0].misplaced == 0  # unscored; replay reports the failure


def test_assignments_from_json_requires_every_bay():
    instance = _witness_instance()
    with pytest.raises(ValueError):
        files.assignments_from_json([{"bay": 0, "rows": ["WWW"] * 3}], instance)


@pytest.mark.parametrize("entries, message", [
    ([{"bay": 0, "rows": ["EEE"] * 3}, {"bay": 0, "rows": ["WWW"] * 3}], "two assignments"),
    ([{"bay": 2, "rows": ["WWW"] * 3}], "has 2 bays"),
    ([{"bay": -1, "rows": ["WWW"] * 3}], "has 2 bays"),
    ([{"bay": 1.0, "rows": ["WWW"] * 3}], "must be an integer"),
    ([{"bay": True, "rows": ["WWW"] * 3}], "must be an integer"),
    ([{"bay": "0", "rows": ["WWW"] * 3}], "must be an integer"),
])
def test_assignments_from_json_rejects_repeated_and_foreign_bays(entries, message):
    """Each entry must name a bay of the instance, as a plain int, once."""
    data = [{"bay": 0, "rows": ["WWW"] * 3}, {"bay": 1, "rows": ["WWW"] * 3}]
    with pytest.raises(ValueError, match=message):
        files.assignments_from_json(entries + data, _witness_instance())
