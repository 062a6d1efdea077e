import random
from types import SimpleNamespace

import oracles
from conftest import FakeDmat, make_config
from premarshal import astar, bounds
from premarshal.model import Infeasible, Solution, TimedOut, apply_move

DMAT = FakeDmat()


def test_sorted_root_returns_empty_plan():
    config = make_config([(3, (4, 2), 0), (2, (), 1)], groups=4)
    result = astar.solve_astar(config, DMAT)
    assert isinstance(result, Solution)
    assert result.k == 0 and result.total_distance == 0
    assert result.moves == ()
    assert result.stats.nodes_evaluated == 1
    assert result.stats.optimal_moves and not result.stats.optimal_distance


def test_single_blocker_takes_cheapest_target():
    dmat = FakeDmat({(0, 1): 7, (0, 2): 3})
    config = make_config([(2, (2, 5), 0), (2, (), 1), (2, (), 2)], groups=5)
    result = astar.solve_astar(config, dmat)
    assert result.k == 1
    assert result.total_distance == 3
    assert result.moves[0].to_lane == 3


def test_unsorted_without_moves_is_infeasible():
    config = make_config([(2, (1, 2), 0), (1, (3,), 1)], groups=3)
    result = astar.solve_astar(config, DMAT)
    assert isinstance(result, Infeasible)


def test_timeout_zero_budget():
    config = make_config([(2, (1, 2), 0), (2, (), 1)], groups=2)
    result = astar.solve_astar(config, DMAT, timeout_s=0.0)
    assert isinstance(result, TimedOut)


def test_greedy_distance_is_documented_behaviour():
    """Move count is optimal; distance follows the cheapest-first expansion.

    Lane 1 holds a blocking 5, lane 3 a blocking 9; lane 2 is the shared
    cheap slot.  Taking 1->2 first (distance 1) blocks the 9 out of lane 2
    and forces it onto a far empty lane, while the other order nests both
    loads in lane 2.  A* commits to the short first move.
    """
    dmat = FakeDmat({(0, 1): 1, (2, 1): 1, (0, 5): 6, (2, 5): 6, (0, 2): 2,
                     (1, 5): 6, (2, 3): 8, (0, 3): 8, (1, 3): 8, (3, 5): 1})
    lanes = [
        (3, (1, 5), 0),
        (3, (), 1),
        (3, (2, 9), 2),
        (3, (), 3),
        (3, (), 5),
    ]
    config = make_config(lanes, groups=9)
    result = astar.solve_astar(config, dmat)
    assert result.k == 2
    first = result.moves[0]
    assert (first.from_lane, first.to_lane, first.distance) == (1, 2, 1)
    assert result.total_distance == 7
    # ... strictly worse than the best 2-move plan:
    best = oracles.plain_optimum(
        [(cap, contents) for cap, contents, _ in lanes],
        lambda s, t: dmat.between(lanes[s][2], lanes[t][2]),
        max_k=2,
    )
    assert best == (2, 2)


def test_k_matches_plain_search_on_random_states():
    rng = random.Random(99)
    solved = 0
    for _ in range(40):
        lanes = []
        for idx in range(3):
            fill = rng.randint(0, 2)
            lanes.append((3, tuple(rng.randint(1, 4) for _ in range(fill)), idx * 2))
        config = make_config(lanes, groups=4)
        result = astar.solve_astar(config, DMAT)
        assert isinstance(result, Solution)
        oracle = oracles.plain_optimum(
            [(cap, contents) for cap, contents, _ in lanes],
            lambda s, t: DMAT.between(lanes[s][2], lanes[t][2]),
            max_k=result.k,
        )
        assert oracle is not None and oracle[0] == result.k
        solved += 1
    assert solved == 40


def test_restart_with_reopen_still_optimal(monkeypatch):
    """Force a non-monotone heuristic; the monitor must restart and reopen."""
    real_incremental = bounds.lb_incremental

    def flat_incremental(aux, profiles, move, child):
        new_aux, new_profiles, _h = real_incremental(aux, profiles, move, child)
        return new_aux, new_profiles, 0

    monkeypatch.setattr(astar.bounds, "lb_incremental", flat_incremental)
    config = make_config([(2, (1, 3), 0), (2, (2, 4), 1), (2, (), 2)], groups=4)
    assert bounds.lb(config) == 2  # root keeps its real (higher) h
    result = astar.solve_astar(config, DMAT)
    assert isinstance(result, Solution)
    assert result.k == 2


def test_moves_replay_to_sorted():
    rng = random.Random(5)
    for _ in range(20):
        lanes = []
        for idx in range(4):
            fill = rng.randint(0, 2)
            lanes.append((2, tuple(rng.randint(1, 5) for _ in range(fill)), idx))
        config = make_config(lanes, groups=5)
        result = astar.solve_astar(config, DMAT)
        if not isinstance(result, Solution):
            continue
        state = config
        for move in result.moves:
            state = apply_move(state, move)
        assert state.is_sorted
        assert sum(m.distance for m in result.moves) == result.total_distance


def test_deadline_holds_inside_one_expansion(monkeypatch):
    """The clock is read every 1,024 children, not only between pops."""
    ticks = iter(range(1_000_000))
    monkeypatch.setattr(astar, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    built = []

    def counting_apply(config, move):
        built.append(move)
        return apply_move(config, move)

    monkeypatch.setattr(astar, "apply_move", counting_apply)
    # One blocker and 40 sorted lanes with room: 1,640 children at the root.
    lanes = [(3, (1, 2), 0)] + [(3, (2,), idx) for idx in range(1, 41)]
    config = make_config(lanes, groups=2)
    # start reads 0 and the first pop 1, both inside the budget; the read at
    # child 1,024 gives 2, past it.
    result = astar.solve_astar(config, DMAT, timeout_s=1.5)
    assert isinstance(result, TimedOut)
    assert result.stats.nodes_evaluated == 1
    assert len(built) == 1023
