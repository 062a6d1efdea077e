import copy
import random

import pytest

import oracles
from conftest import FakeDmat, make_config
from premarshal import files, verify
from premarshal.generate import GenConfig, generate
from premarshal.model import BaySpec, Solution, WarehouseInstance
from premarshal.pipeline import prepare, solve_instance

DMAT = FakeDmat()


def _witness_instance():
    """Two-move instance whose plan is cheap only in the right order."""
    bay0 = BaySpec(
        I=3, J=3, T=1, G=9,
        occupancy={(3, 1, 1): 1, (2, 1, 1): 5, (3, 3, 1): 2, (2, 3, 1): 9},
        access_sides=frozenset("W"),
    )
    bay1 = BaySpec(I=3, J=3, T=1, G=9, occupancy={}, access_sides=frozenset("W"))
    return WarehouseInstance(
        bays=(bay0, bay1), warehouse_rows=1, warehouse_cols=2, meta={}
    )


def _solved_witness():
    instance = _witness_instance()
    result, prepared = solve_instance(instance, "astar")
    assert isinstance(result, Solution) and result.k == 2
    data = files.solution_to_json(result, prepared)
    return instance, prepared, result, data


def test_replay_accepts_solver_output_both_algos():
    for seed in (2, 3, 4):
        instance = generate(
            GenConfig(bay=(4, 4), warehouse=(2, 2), fill=0.8, groups=10, seed=seed)
        )
        prepared = prepare(instance)
        for algo in ("astar", "exact"):
            result, _ = solve_instance(instance, algo, prepared=prepared)
            assert isinstance(result, Solution)
            report = verify.replay(instance, prepared.assignments, result)
            assert report.ok and report.violations == []
            # the JSON form replays identically
            data = files.solution_to_json(result, prepared)
            assert verify.replay(instance, prepared.assignments, data).ok


def test_replay_flags_tampered_move_distance():
    instance, prepared, _result, data = _solved_witness()
    bad = copy.deepcopy(data)
    bad["moves"][0]["distance"] += 1
    report = verify.replay(instance, prepared.assignments, bad)
    assert not report.ok
    assert [v["code"] for v in report.violations] == ["distance-mismatch"]
    assert report.violations[0]["move_index"] == 0


def test_replay_flags_tampered_totals():
    instance, prepared, _result, data = _solved_witness()
    for field, code in (("total_distance", "total-mismatch"), ("k", "k-mismatch")):
        bad = copy.deepcopy(data)
        bad[field] += 1
        report = verify.replay(instance, prepared.assignments, bad)
        assert [v["code"] for v in report.violations] == [code]


def test_replay_stops_at_an_illegal_move():
    instance, prepared, _result, data = _solved_witness()
    bad = copy.deepcopy(data)
    first = bad["moves"][0]
    first["from_lane"], first["to_lane"] = first["to_lane"], first["from_lane"]
    report = verify.replay(instance, prepared.assignments, bad)
    assert [v["code"] for v in report.violations] == ["illegal-move"]
    assert report.violations[0]["move_index"] == 0


def test_replay_flags_unfinished_plans():
    instance, prepared, _result, data = _solved_witness()
    bad = copy.deepcopy(data)
    bad["moves"] = bad["moves"][:1]
    bad["k"] = 1
    bad["total_distance"] = bad["moves"][0]["distance"]
    report = verify.replay(instance, prepared.assignments, bad)
    assert [v["code"] for v in report.violations] == ["not-sorted"]


@pytest.mark.parametrize("side", ["from_access_point", "to_access_point"])
def test_replay_checks_claimed_access_points(side):
    instance, prepared, _result, data = _solved_witness()
    bad = copy.deepcopy(data)
    bad["moves"][0][side] = 99
    report = verify.replay(instance, prepared.assignments, bad)
    assert [v["code"] for v in report.violations] == ["access-point-mismatch"]
    assert report.violations[0]["detail"].startswith(side.split("_")[0] + " lane")


def test_replay_reports_setup_failures():
    instance, prepared, _result, data = _solved_witness()
    report = verify.replay(instance, prepared.assignments[:1], data)
    assert not report.ok
    assert report.violations[0]["code"] == "setup"


def test_brute_force_matches_the_unpruned_oracle():
    rng = random.Random(23)
    for _ in range(30):
        lanes = [
            (3, tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))), idx * 3)
            for idx in range(3)
        ]
        config = make_config(lanes, groups=4)
        expected = oracles.plain_optimum(
            [l[:2] for l in lanes],
            lambda s, t: DMAT.between(lanes[s][2], lanes[t][2]),
            max_k=4,
        )
        try:
            got = oracles.brute_force_optimum(config, DMAT, max_k=4)
        except oracles.NoSolutionWithin:
            got = None
        assert got == expected


def test_brute_force_resolves_the_dependency_instance():
    dmat = FakeDmat({(0, 1): 1, (2, 1): 1, (0, 5): 6, (2, 5): 6, (0, 2): 2,
                     (1, 5): 6, (2, 3): 8, (0, 3): 8, (1, 3): 8, (3, 5): 1})
    lanes = [(3, (1, 5), 0), (3, (), 1), (3, (2, 9), 2), (3, (), 3), (3, (), 5)]
    config = make_config(lanes, groups=9)
    assert oracles.brute_force_optimum(config, dmat, max_k=3) == (2, 2)


def test_brute_force_raises_past_its_budget():
    config = make_config([(2, (1, 3), 0), (2, (2, 4), 1), (2, (), 2)], groups=4)
    with pytest.raises(oracles.NoSolutionWithin) as err:
        oracles.brute_force_optimum(config, DMAT, max_k=1)
    assert err.value.max_k == 1


def test_replay_rejects_each_kind_of_illegal_pair():
    instance, prepared, _result, data = _solved_witness()
    lanes = prepared.config.contents
    src = data["moves"][0]["from_lane"]
    empty = next(idx for idx, loads in enumerate(lanes, 1) if not loads)
    # lanes 1 and 3 hold two loads in three slots: one move fills lane 3
    fill_3 = {"from_lane": 1, "to_lane": 3, "distance": prepared.dmat.between(0, 2)}
    plans = [[{"from_lane": a, "to_lane": b}] for a, b in
             [(src, src), (0, src), (src, len(lanes) + 1), ("1", 2), (empty, src),
              (float(src), 2), (src, 2.0), (True, 2)]]
    plans.append([fill_3, {"from_lane": 1, "to_lane": 3}])
    for moves in plans:
        bad = copy.deepcopy(data)
        bad["moves"] = moves
        report = verify.replay(instance, prepared.assignments, bad)
        last = moves[-1]
        assert report.violations == [{
            "code": "illegal-move",
            "detail": f"no legal move from lane {last['from_lane']} to lane {last['to_lane']}",
            "move_index": len(moves) - 1,
        }], moves


def test_replay_rejects_a_float_lane_id():
    """12.0 == 12, but a plan naming lane 12.0 is not a plan over lane ids."""
    instance = generate(GenConfig(bay=(4, 4), warehouse=(2, 2), fill=0.9, groups=10, seed=8))
    result, prepared = solve_instance(instance, "astar")
    data = files.solution_to_json(result, prepared)
    assert verify.replay(instance, prepared.assignments, data).ok
    first = data["moves"][0]
    first["from_lane"] = float(first["from_lane"])
    report = verify.replay(instance, prepared.assignments, data)
    assert report.violations == [{
        "code": "illegal-move",
        "detail": f"no legal move from lane {first['from_lane']} to lane {first['to_lane']}",
        "move_index": 0,
    }]
