import gc
import random
import time

import pytest

import oracles
from conftest import FakeClock, FakeDmat, make_config
from premarshal import astar, bounds
from premarshal.generate import GenConfig, generate
from premarshal.model import Infeasible, Solution, TimedOut, apply_move
from premarshal.pipeline import prepare

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
    result = astar.solve_astar(config, DMAT, deadline=time.perf_counter())
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


def _outcome(result):
    """(kind, k, distance, moves, nodes_evaluated), as the oracle gives it."""
    if isinstance(result, Solution):
        return ("Solution", result.k, result.total_distance, tuple(result.moves),
                result.stats.nodes_evaluated)
    return (type(result).__name__, None, None, None, result.stats.nodes_evaluated)


def _random_lanes(rng):
    """3-5 lanes of one capacity in 2..4, filled at random, groups 1..4."""
    capacity = rng.randint(2, 4)
    return [
        (capacity, tuple(rng.randint(1, 4) for _ in range(rng.randint(0, capacity))),
         rng.randint(0, 9))
        for _ in range(rng.randint(3, 5))
    ]


def test_partial_expansion_equals_the_store_every_child_search():
    """Kind, k, distance, moves and node count are those of the A* that
    stores every child, on random small states; some have h0 < k, so
    re-entries run."""
    rng = random.Random(61)
    below = 0
    for _ in range(150):
        config = make_config(_random_lanes(rng), groups=4)
        result = astar.solve_astar(config, DMAT)
        assert _outcome(result) == oracles.store_every_child_astar(config, DMAT)
        below += isinstance(result, Solution) and bounds.lb(config) < result.k
    assert below >= 5


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
        assert state.blocking_total == 0
        assert sum(m.distance for m in result.moves) == result.total_distance


def test_deadline_holds_inside_one_expansion(monkeypatch):
    """The clock is read before each source lane of the listing, not only
    between pops, and in a re-entry as in a first expansion."""
    clock = FakeClock()
    monkeypatch.setattr(astar, "time", clock)
    monkeypatch.setattr(bounds, "time", clock)
    # One blocker and 40 sorted lanes with room: 41 sources and 1,640
    # children at the root, none of whose h needs GX.  The start reads 0
    # and the first pop 1; sources 1-9 read 2-10, before the deadline, and
    # source 10 reads 11, past it; the stats read 12.
    lanes = [(3, (1, 2), 0)] + [(3, (2,), idx) for idx in range(1, 41)]
    result = astar.solve_astar(make_config(lanes, groups=2), DMAT, deadline=10.5)
    assert isinstance(result, TimedOut)
    assert result.stats.nodes_evaluated == 1
    assert clock.reads == 13

    # The root bound of REENTERING_LANES is below k, so some parent comes
    # back as a re-entry.  A state is expanded once, so a listing of a
    # configuration listed before is a re-entry's.  Find the first, and the
    # clock reading it starts at, in a run with no deadline; then put the
    # deadline between its second and third sources.
    config = make_config(REENTERING_LANES, 3)
    listed, starts = set(), []
    real_select = bounds.Siblings.select

    def select(self, limit, deadline):
        if self.config.contents in listed:
            starts.append((clock.reads, self.config))
        listed.add(self.config.contents)
        return real_select(self, limit, deadline)

    monkeypatch.setattr(bounds.Siblings, "select", select)
    clock.reads = 0
    assert isinstance(astar.solve_astar(config, DMAT), Solution)
    start, again = starts[0]
    assert sum(map(bool, again.contents)) >= 3
    clock.reads = 0
    listed.clear()
    starts.clear()
    result = astar.solve_astar(config, DMAT, deadline=start + 1.5)
    assert isinstance(result, TimedOut)
    assert starts[0][0] == start
    # Sources 1 and 2 read start and start + 1, source 3 start + 2, past
    # the deadline; the stats read start + 3.
    assert clock.reads == start + 4


def test_only_popped_offers_are_keyed(monkeypatch):
    """A child is keyed when its offer pops, not when it is offered: on
    3x3/7x7/0.9/G10/s1 (291 lanes) the expansions offer 397 children and
    only the k + 1 = 6 nodes of the plan pop, the root included."""
    prep = prepare(generate(GenConfig(bay=(3, 3), warehouse=(7, 7), fill=0.9,
                                      groups=10, seed=1)))
    keyed, offered = [], []
    real_key, real_push = astar.state_key, astar.heappush
    monkeypatch.setattr(astar, "state_key", lambda c: keyed.append(c) or real_key(c))
    monkeypatch.setattr(astar, "heappush", lambda q, e: offered.append(e) or real_push(q, e))
    result = astar.solve_astar(prep.config, prep.dmat)
    assert isinstance(result, Solution) and result.k == 5
    assert len(offered) == 397
    assert len(keyed) == result.stats.nodes_evaluated == 6


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_paused_and_given_back(monkeypatch, enabled):
    """The cyclic collector is off during the search and as the caller had
    it afterwards, whether the search solves, times out or raises."""
    seen = []
    real_select = bounds.Siblings.select

    def watching_select(self, limit, deadline):
        seen.append(gc.isenabled())
        return real_select(self, limit, deadline)

    def failing_select(self, limit, deadline):
        raise RuntimeError("h failed")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(bounds.Siblings, "select", watching_select)
            config = make_config([(3, (1, 2), 0), (3, (2,), 1), (3, (), 2)], groups=2)
            assert isinstance(astar.solve_astar(config, DMAT), Solution)
        assert seen and not any(seen)
        assert gc.isenabled() == enabled

        with monkeypatch.context() as patch:
            # The clock of test_deadline_holds_inside_one_expansion.
            clock = FakeClock()
            patch.setattr(astar, "time", clock)
            patch.setattr(bounds, "time", clock)
            lanes = [(3, (1, 2), 0)] + [(3, (2,), idx) for idx in range(1, 41)]
            result = astar.solve_astar(make_config(lanes, groups=2), DMAT, deadline=1.5)
            assert isinstance(result, TimedOut)
        assert gc.isenabled() == enabled

        with monkeypatch.context() as patch:
            patch.setattr(bounds.Siblings, "select", failing_select)
            with pytest.raises(RuntimeError, match="h failed"):
                astar.solve_astar(config, DMAT)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


#: Four lanes of capacity 4 whose root bound, 5, is two below the fewest
#: moves.
REENTERING_LANES = ((4, (3, 3, 1), 0), (4, (3, 2, 3, 1), 1), (4, (2, 1, 2, 3), 2),
                    (4, (3, 3, 1), 3))

#: (bay, warehouse, fill, G, seed) or (make_config lanes, G) -> k, distance,
#: nodes_evaluated and the (from, to) pairs.  The generated cases were
#: recorded before A* stopped building children at generation, the
#: make_config case (h0 = 5 < k = 7) before A* expanded partially.  Ties in
#: (f, h, dist) fall to the expansion order, so these pin the heap's
#: tie-breaking too.
PINNED_PLANS = {
    ((4, 4), (3, 3), 0.9, 10, 1):
        (5, 15, 6, [(27, 54), (89, 90), (56, 60), (10, 40), (74, 66)]),
    ((5, 5), (2, 2), 0.8, 5, 3): (4, 13, 5, [(54, 32), (4, 3), (22, 8), (41, 11)]),
    (REENTERING_LANES, 3):
        (7, 10, 28, [(4, 1), (3, 4), (3, 4), (2, 3), (2, 3), (4, 2), (3, 4)]),
}


@pytest.mark.parametrize("spec", list(PINNED_PLANS))
def test_pinned_plans(spec):
    if len(spec) == 2:
        config, dmat = make_config(*spec), DMAT
    else:
        bay, warehouse, fill, groups, seed = spec
        prep = prepare(generate(GenConfig(bay=bay, warehouse=warehouse, fill=fill,
                                          groups=groups, seed=seed)))
        config, dmat = prep.config, prep.dmat
    result = astar.solve_astar(config, dmat)
    assert isinstance(result, Solution)
    got = (result.k, result.total_distance, result.stats.nodes_evaluated,
           [(m.from_lane, m.to_lane) for m in result.moves])
    assert got == PINNED_PLANS[spec]
