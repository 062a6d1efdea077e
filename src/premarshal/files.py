"""Instance and solution JSON: schema, readers, writers.

Instance files: {"meta": {seed, fill, classes, bay_layout, warehouse_layout,
generator}, "bays": [{I, J, T, G, access_sides, loads: [{i, j, t, g}]}]}
with 1-based cell indices.  Solution files: {"algo", "k", "total_distance",
"moves": [{from_lane, to_lane, from_access_point, to_access_point,
distance}], "stats", "assignments"} where assignments hold each bay's
direction grid as row strings.  Writers emit sorted keys so identical data
produces identical bytes.
"""

from __future__ import annotations

import json
import re
from typing import IO

from .fixing import AccessAssignment, misplaced_count
from .model import SIDES, BaySpec, Solution, WarehouseInstance
from .pipeline import Prepared


def _ordered_sides(sides) -> list[str]:
    return [s for s in SIDES if s in sides]


def instance_to_json(instance: WarehouseInstance) -> dict:
    bays = []
    for bay in instance.bays:
        loads = [
            {"i": i, "j": j, "t": t, "g": g}
            for (i, j, t), g in sorted(bay.occupancy.items())
        ]
        bays.append(
            {
                "I": bay.I,
                "J": bay.J,
                "T": bay.T,
                "G": bay.G,
                "access_sides": _ordered_sides(bay.access_sides),
                "loads": loads,
            }
        )
    return {"meta": dict(instance.meta), "bays": bays}


def _checked(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (dict: a JSON object, list: an array)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {name}, not {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """``value`` if it is a plain int: not a float, not a bool."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def instance_from_json(data: dict) -> WarehouseInstance:
    data = _checked(data, dict, "an instance")
    meta = _checked(data.get("meta", {}), dict, "meta")
    layout_label = meta.get("warehouse_layout")
    if not layout_label:
        raise ValueError("instance meta must carry warehouse_layout (e.g. '2x2')")
    rows, cols = parse_layout_label(layout_label)
    bays = []
    for entry in _checked(data["bays"], list, "bays"):
        entry = _checked(entry, dict, "a bay")
        occupancy = {}
        for load in _checked(entry["loads"], list, "loads"):
            load = _checked(load, dict, "a load")
            cell = tuple(_integer(load[key], f"load {key}") for key in "ijt")
            if cell in occupancy:
                raise ValueError(f"two loads at cell (i, j, t) = {cell}")
            occupancy[cell] = _integer(load["g"], "load g")
        bays.append(
            BaySpec(
                **{key: _integer(entry[key], f"bay {key}") for key in "IJTG"},
                occupancy=occupancy,
                access_sides=frozenset(entry["access_sides"]),
            )
        )
    return WarehouseInstance(
        bays=bays, warehouse_rows=rows, warehouse_cols=cols, meta=meta
    )


def parse_layout_label(label: str) -> tuple[int, int]:
    """'3x4' (or '3X4', ASCII digits only) -> (3, 4); raises ValueError on anything else."""
    match = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", str(label))
    if match is None:
        raise ValueError(f"layout label {label!r} is not of the form RxC")
    rows, cols = map(int, match.groups())
    if rows < 1 or cols < 1:
        raise ValueError(f"layout label {label!r} must be positive")
    return rows, cols


def assignments_to_json(assignments: list[AccessAssignment]) -> list[dict]:
    return [
        {"bay": b, "rows": list(a.rows)} for b, a in enumerate(assignments)
    ]


def assignments_from_json(data: list[dict], instance: WarehouseInstance) -> list[AccessAssignment]:
    """Rebuild assignments; the misplaced count is recomputed when possible.

    Raises ValueError on an entry whose bay is no integer, not a bay of the
    instance, or one that an earlier entry already named.
    """
    by_bay = {}
    for entry in data:
        b = _integer(entry["bay"], "assignment bay")
        if not 0 <= b < len(instance.bays):
            raise ValueError(f"assignment for bay {b}, but the instance has "
                             f"{len(instance.bays)} bays")
        if b in by_bay:
            raise ValueError(f"two assignments for bay {b}")
        by_bay[b] = tuple(entry["rows"])
    out = []
    for b, bay in enumerate(instance.bays):
        if b not in by_bay:
            raise ValueError(f"solution carries no assignment for bay {b}")
        rows = by_bay[b]
        try:
            misplaced = misplaced_count(bay, AccessAssignment(rows=rows, misplaced=0))
        except ValueError:
            misplaced = 0  # structurally invalid; replay will report it
        out.append(AccessAssignment(rows=rows, misplaced=misplaced))
    return out


def solution_to_json(solution: Solution, prepared: Prepared) -> dict:
    """Serialize ``solution``, solved on ``prepared``, which supplies lane ->
    access point ids, the assignments and the preprocessing time."""
    points = prepared.config.points
    moves = [
        {
            "from_lane": m.from_lane,
            "to_lane": m.to_lane,
            "from_access_point": points[m.from_lane - 1],
            "to_access_point": points[m.to_lane - 1],
            "distance": m.distance,
        }
        for m in solution.moves
    ]
    stats = {
        "nodes_evaluated": solution.stats.nodes_evaluated,
        "wall_time": solution.stats.wall_time,
        "preprocessing_time": prepared.preprocessing_time,
        "optimal_moves": solution.stats.optimal_moves,
        "optimal_distance": solution.stats.optimal_distance,
    }
    return {
        "algo": solution.algo,
        "k": solution.k,
        "total_distance": solution.total_distance,
        "moves": moves,
        "stats": stats,
        "assignments": assignments_to_json(prepared.assignments),
    }


def dump(data: dict, fileobj: IO[str]) -> None:
    json.dump(data, fileobj, indent=2, sort_keys=True)
    fileobj.write("\n")


def write_instance(instance: WarehouseInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        dump(instance_to_json(instance), f)


def read_instance(path) -> WarehouseInstance:
    with open(path, encoding="utf-8") as f:
        return instance_from_json(json.load(f))


def write_solution(solution: Solution, prepared: Prepared, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        dump(solution_to_json(solution, prepared), f)


def read_solution(path) -> dict:
    """Solutions are read as raw dicts so tampered files still reach replay."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict) or "moves" not in data:
        raise ValueError(f"{path} does not look like a solution file")
    return data
