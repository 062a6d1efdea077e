"""Independent validation: a move-plan replayer.

It rebuilds the layout, the distance matrix and the virtual lanes from the
instance and the assignments with the same code as preprocessing
(``build_layout``, ``all_pairs_distances``, ``number_lanes``) and applies
moves with the core move semantics of ``model``; it shares no search or
bound code with the solvers, so it can serve as a differential-test
reference for them, not for those shared layers.  Preprocessing numbers
the lanes that the fixing walk built with each candidate assignment, while
replay derives them separately, from the assignments' direction strings
through ``to_virtual_lanes``, so it does not depend on what the walk or
selection kept.  A claimed move's access points are
checked against the rebuilt configuration's ``points``, and a claimed
distance or point matches only as a plain int.  The rebuild makes no
per-point object: ``build_layout`` keeps the first point id of each bay
side and ``number_lanes`` reads a lane's id off it by formula.  Each
claimed move computes the one distance between its two access points, and
the tiles of all points are computed with the first, so an empty plan
computes no tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fixing import AccessAssignment, to_virtual_lanes
from .layout import all_pairs_distances, build_layout
from .model import Solution, WarehouseInstance, apply_move, legal_moves


@dataclass
class ValidationReport:
    """Outcome of replaying a claimed solution; empty violations = valid."""

    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, code: str, detail: str, move_index: int | None = None) -> None:
        entry: dict = {"code": code, "detail": detail}
        if move_index is not None:
            entry["move_index"] = move_index
        self.violations.append(entry)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


def _solution_fields(solution) -> tuple[int, int, list[dict]]:
    """Accept a Solution or its JSON dict; return claimed k, distance, moves.

    Raises KeyError, TypeError or ValueError when the dict is malformed.
    """
    if isinstance(solution, Solution):
        moves = [
            {
                "from_lane": m.from_lane,
                "to_lane": m.to_lane,
                "distance": m.distance,
            }
            for m in solution.moves
        ]
        return solution.k, solution.total_distance, moves
    claims = solution["k"], solution["total_distance"]
    if any(type(value) is not int for value in claims):
        raise ValueError(f"k and total_distance must be integers, got {claims!r}")
    moves = list(solution["moves"])
    for idx, entry in enumerate(moves):
        if not isinstance(entry, dict) or not {"from_lane", "to_lane"} <= entry.keys():
            raise ValueError(f"move {idx} is not an object with from_lane and to_lane")
    return *claims, moves


def _same_int(claim, value: int) -> bool:
    """Whether ``claim`` is the plain int ``value``: 1.0 and True compare
    equal to 1, but they are not a distance or a point id."""
    return type(claim) is int and claim == value


def replay(
    instance: WarehouseInstance,
    assignments: list[AccessAssignment],
    solution,
) -> ValidationReport:
    """Re-derive lanes, apply each claimed move, and audit every number.

    ``solution`` may be a Solution object or the parsed solution JSON;
    violations become report entries, never exceptions.
    """
    report = ValidationReport()
    try:
        claimed_k, claimed_total, claimed_moves = _solution_fields(solution)
    except (KeyError, TypeError, ValueError) as exc:
        report.flag("malformed", f"cannot read the solution: {exc!r}")
        return report
    try:
        layout = build_layout(instance)
        dmat = all_pairs_distances(layout)
        config = to_virtual_lanes(instance, assignments, layout)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.flag("setup", f"could not rebuild lanes: {exc}")
        return report

    total = 0
    lane_ids = range(1, len(config.contents) + 1)
    for idx, entry in enumerate(claimed_moves):
        pair = (entry["from_lane"], entry["to_lane"])
        # Only a plain int names a lane: 12.0 and True compare equal to 12
        # and 1, but they are not lane ids.
        src, dst = (
            lane_id - 1 if type(lane_id) is int and lane_id in lane_ids else None
            for lane_id in pair
        )
        contents = config.contents
        if (src is None or dst is None or src == dst or not contents[src]
                or len(contents[dst]) == config.capacities[dst]):
            report.flag(
                "illegal-move",
                f"no legal move from lane {pair[0]} to lane {pair[1]}",
                idx,
            )
            return report  # the rest of the plan is not replayable
        [move] = legal_moves(config, dmat, [(src, 1 << dst)])
        if not _same_int(entry.get("distance"), move.distance):
            report.flag(
                "distance-mismatch",
                f"claimed {entry.get('distance')}, recomputed {move.distance}",
                idx,
            )
        for side, lane in (("from", src), ("to", dst)):
            claimed_point = entry.get(f"{side}_access_point")
            point = config.points[lane]
            if claimed_point is not None and not _same_int(claimed_point, point):
                report.flag(
                    "access-point-mismatch",
                    f"{side} lane {lane + 1} uses point {point}, claimed {claimed_point}",
                    idx,
                )
        total += move.distance
        config = apply_move(config, move)

    if config.blocking_total != 0:
        report.flag("not-sorted", f"{config.blocking_total} blocking loads remain")
    if claimed_k != len(claimed_moves):
        report.flag("k-mismatch", f"claimed k={claimed_k} for {len(claimed_moves)} moves")
    if claimed_total != total:
        report.flag("total-mismatch", f"claimed {claimed_total}, recomputed {total}")
    return report
