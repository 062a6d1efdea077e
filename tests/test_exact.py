import functools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import FakeDmat, make_config
from premarshal import astar, bounds, exact
from premarshal.generate import GenConfig, generate
from premarshal.pipeline import prepare
from premarshal.model import Solution, SolveStats, TimedOut, apply_move

DMAT = FakeDmat()


def _dist_fn(lanes):
    return lambda s, t: DMAT.between(lanes[s][2], lanes[t][2])


def _oracle(lanes, k_bar, c_ub):
    return oracles.staged_optimum([l[:2] for l in lanes], _dist_fn(lanes), k_bar, c_ub)


def _search(config, k_bar, dmat, c_ub):
    """``complete_search`` with no deadline."""
    return exact.complete_search(config, k_bar, dmat, c_ub, deadline=math.inf,
                                 counters=SolveStats(), root=bounds.lb_state(config))


def _as_oracle(result):
    """``complete_search``'s result as the staged oracle gives it."""
    if result is None:
        return None
    moves, distance = result
    return distance, [(m.from_lane - 1, m.to_lane - 1) for m in moves]


def test_model_rejects_negative_parameters():
    config = make_config([(2, (1,), 0)], groups=1)
    with pytest.raises(ValueError):
        _search(config, -1, DMAT, c_ub=5)
    with pytest.raises(ValueError):
        _search(config, 1, DMAT, c_ub=-1)


def test_relay_rule_forbids_immediate_bounce():
    """A single load cannot fill two stages: moving it twice in a row is banned."""
    lanes = [(1, (1,), 0), (1, (), 1)]
    config = make_config(lanes, groups=1)
    zero = _search(config, 0, DMAT, c_ub=0)
    assert zero == ([], 0)
    one = _search(config, 1, DMAT, c_ub=10)
    assert one is not None and one[1] == 1
    assert _search(config, 2, DMAT, c_ub=10) is None
    assert _oracle(lanes, 2, 10) is None


def test_two_loads_relay_through_each_other():
    # Exactly two stages force the cheaper order: lane 2 clears first so that
    # lane 1's load can land in the freed slot.
    lanes = [(1, (1,), 0), (1, (2,), 1), (2, (), 2)]
    config = make_config(lanes, groups=2)
    result = _search(config, 2, DMAT, c_ub=100)
    assert result is not None
    moves, distance = result
    assert distance == 2
    assert [(m.from_lane, m.to_lane) for m in moves] == [(2, 3), (1, 2)]
    assert _oracle(lanes, 2, 100) == (2, [(1, 2), (0, 1)])


def test_distance_cap_is_part_of_the_goal():
    lanes = [(2, (1, 3), 0), (1, (), 5)]
    config = make_config(lanes, groups=3)
    assert _search(config, 0, DMAT, c_ub=100) is None
    assert _search(config, 1, DMAT, c_ub=4) is None
    assert _oracle(lanes, 1, 4) is None
    exactly = _search(config, 1, DMAT, c_ub=5)
    assert _as_oracle(exactly) == _oracle(lanes, 1, 5) == (5, [(0, 1)])


def test_search_returns_the_oracles_plan():
    """The plan and distance, or None, are the staged oracle's, below, at and
    above the root bound."""
    rng = random.Random(41)
    for _ in range(18):
        aps = rng.sample(range(8), 3)
        lanes = [
            (rng.randint(2, 3),
             tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))),
             aps[idx])
            for idx in range(3)
        ]
        config = make_config(lanes, groups=4)
        h0 = bounds.lb_state(config)[2]
        for k_bar in (rng.randint(0, 2), h0, h0 + 1, 3):
            expected = _oracle(lanes, k_bar, 10_000)
            assert _as_oracle(_search(config, k_bar, DMAT, 10_000)) == expected
            if expected is None:
                continue
            # boundary: the cap is attainable at equality and not below it
            tight = _search(config, k_bar, DMAT, expected[0])
            assert _as_oracle(tight) == expected
            moves = tight[0]
            assert len(moves) == k_bar
            assert sum(m.distance for m in moves) == expected[0]
            for prev, nxt in zip(moves, moves[1:]):
                assert nxt.from_lane != prev.to_lane
            state = config
            for move in moves:
                state = apply_move(state, move)
            assert state.blocking_total == 0
            if expected[0] > 0:
                assert _search(config, k_bar, DMAT, expected[0] - 1) is None


def _relay_free_nodes(config, depth, last=None):
    """Nodes of the search tree of ``depth`` moves with no cut but the relay
    rule."""
    if depth == 0:
        return 1
    return 1 + sum(_relay_free_nodes(apply_move(config, m), depth - 1, m.to_lane)
                   for m in oracles.all_moves(config, DMAT) if m.from_lane != last)


def test_counters_and_prunes_only_save_work():
    lanes = [(3, (1, 3), 0), (3, (2, 4), 1), (3, (), 2)]
    config = make_config(lanes, groups=4)
    counters = SolveStats()
    fast = exact.complete_search(config, 2, DMAT, 1_000, deadline=math.inf, counters=counters,
                                 root=bounds.lb_state(config))
    assert _as_oracle(fast) == _oracle(lanes, 2, 1_000)
    assert 0 < counters.nodes_evaluated < _relay_free_nodes(config, 2)


def test_solve_exact_matches_lexicographic_oracle():
    """Fewest moves first, then least distance, against the unpruned search."""
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        lanes = [
            (3, tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))), idx * 2)
            for idx in range(3)
        ]
        config = make_config(lanes, groups=4)
        warm = astar.solve_astar(config, DMAT)
        assert isinstance(warm, Solution)
        result = exact.solve_exact(config, DMAT, warm)
        assert isinstance(result, Solution)
        best = oracles.plain_optimum(
            [l[:2] for l in lanes], _dist_fn(lanes), max_k=warm.k
        )
        assert best is not None
        assert (result.k, result.total_distance) == best
        assert result.k <= warm.k
        assert result.total_distance <= warm.total_distance
        assert result.algo == "exact"
        assert result.stats.optimal_moves and result.stats.optimal_distance
        state = config
        for move in result.moves:
            state = apply_move(state, move)
        assert state.blocking_total == 0
        checked += 1
    assert checked == 30


def _bound_plan(config, pairs):
    """The replay-valid plan of the (source, target) lane indices ``pairs``."""
    moves = []
    for src, dst in pairs:
        moves.append(next(m for m in oracles.all_moves(config, DMAT)
                          if (m.from_lane - 1, m.to_lane - 1) == (src, dst)))
        config = apply_move(config, moves[-1])
    assert config.blocking_total == 0
    return Solution(algo="astar", moves=tuple(moves), k=len(moves),
                    total_distance=sum(m.distance for m in moves), stats=SolveStats())


def _detour(config, plan):
    """``plan`` with its first legal move in ``config`` and that move's
    reverse put in front: a replay-valid plan two moves longer."""
    first = oracles.all_moves(config, DMAT)[0]
    src, dst = first.from_lane - 1, first.to_lane - 1
    return _bound_plan(config, [(src, dst), (dst, src),
                                *((m.from_lane - 1, m.to_lane - 1) for m in plan.moves)])


def test_solve_exact_finds_the_minimal_k_under_a_longer_bound():
    """A replay-valid bound of k* + 2 moves, as ``--ub-from`` may give, still
    yields the lexicographic optimum, also where stages above the root bound
    must be searched."""
    rng = random.Random(23)
    below_k = 0
    for _ in range(300):
        lanes = [
            (3, tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))), idx * 2)
            for idx in range(3)
        ]
        if not any(contents for _cap, contents, _ap in lanes):
            continue  # no move to detour by
        config = make_config(lanes, groups=4)
        warm = astar.solve_astar(config, DMAT)
        assert isinstance(warm, Solution)
        long = _detour(config, warm)
        result = exact.solve_exact(config, DMAT, long)
        assert isinstance(result, Solution)
        best = oracles.plain_optimum([l[:2] for l in lanes], _dist_fn(lanes), max_k=warm.k)
        assert (result.k, result.total_distance) == best
        below_k += bounds.lb_state(config)[2] < result.k
    assert below_k >= 10


def test_a_longer_bound_of_less_distance_caps_only_its_own_stage():
    """A 4-move bound plan of distance 12 must not hide the 2-move optimum of
    distance 14."""
    lanes = [(3, (1, 3), 1), (3, (), 9), (3, (1, 4), 3)]
    config = make_config(lanes, groups=4)
    bound = _bound_plan(config, _oracle(lanes, 4, 13)[1])
    assert (bound.k, bound.total_distance) == (4, 12)
    result = exact.solve_exact(config, DMAT, bound)
    assert isinstance(result, Solution)
    best = oracles.plain_optimum([l[:2] for l in lanes], _dist_fn(lanes), max_k=4)
    assert best == (2, 14)
    assert (result.k, result.total_distance) == best


def test_exact_beats_astar_distance_on_dependency_instance():
    """Same plan length, strictly shorter travel than the greedy expansion."""
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
    warm = astar.solve_astar(config, dmat)
    assert (warm.k, warm.total_distance) == (2, 7)
    result = exact.solve_exact(config, dmat, warm)
    assert isinstance(result, Solution)
    assert (result.k, result.total_distance) == (2, 2)
    assert result.total_distance < warm.total_distance


def test_timeout_reports_the_stage_reached():
    config = make_config([(2, (1, 3), 0), (2, (), 1)], groups=3)
    warm = astar.solve_astar(config, DMAT)
    assert isinstance(warm, Solution)
    result = exact.solve_exact(config, DMAT, warm, deadline=time.perf_counter())
    assert isinstance(result, TimedOut)
    assert result.k_bar_reached == 1
    assert result.stats is not None and result.stats.nodes_evaluated >= 1


# (bay, warehouse, fill, G, seed) -> (k, distance, nodes, move pairs) of
# ``solve_exact`` after A*; the root bound equals k, so the one stage searched
# is tight.
PINNED_SEARCHES = {
    ((4, 4), (2, 2), 0.9, 10, 8): (3, 11, 6, [(12, 11), (39, 3), (24, 39)]),
    ((5, 5), (2, 2), 0.8, 5, 3): (4, 13, 5, [(4, 3), (22, 8), (41, 11), (54, 32)]),
}

# The same instances -> (distance, nodes, move pairs) of ``complete_search``
# at k-bar = root h + 1 within A*'s distance, where the tight-stage cuts do
# not apply.  Recorded before the search lost its prune switches.
PINNED_NEXT_STAGE = {
    ((4, 4), (2, 2), 0.9, 10, 8): (2, 150, [(12, 11), (23, 38), (39, 23), (24, 39)]),
    ((5, 5), (2, 2), 0.8, 5, 3): (10, 12042, [(4, 3), (23, 24), (22, 23), (41, 11), (54, 32)]),
}


@functools.cache
def _pinned_instance(spec):
    bay, warehouse, fill, groups, seed = spec
    return prepare(generate(GenConfig(bay=bay, warehouse=warehouse, fill=fill,
                                      groups=groups, seed=seed)))


def _pairs(moves):
    return [(m.from_lane, m.to_lane) for m in moves]


@pytest.mark.parametrize("spec", sorted(PINNED_SEARCHES))
def test_pinned_node_counts_with_tight_cuts(spec):
    """The tight-stage cuts keep the plan and visit the pinned nodes."""
    prep = _pinned_instance(spec)
    warm = astar.solve_astar(prep.config, prep.dmat)
    result = exact.solve_exact(prep.config, prep.dmat, warm)
    assert isinstance(result, Solution)
    assert bounds.lb_state(prep.config)[2] == result.k
    assert (result.k, result.total_distance, result.stats.nodes_evaluated,
            _pairs(result.moves)) == PINNED_SEARCHES[spec]


@pytest.mark.parametrize("spec", sorted(PINNED_NEXT_STAGE))
def test_pinned_node_counts_one_stage_above_the_root_bound(spec):
    prep = _pinned_instance(spec)
    k_bar = bounds.lb_state(prep.config)[2] + 1
    warm = astar.solve_astar(prep.config, prep.dmat)
    counters = SolveStats()
    result = exact.complete_search(prep.config, k_bar, prep.dmat, warm.total_distance,
                                   deadline=math.inf, counters=counters,
                                   root=bounds.lb_state(prep.config))
    assert result is not None
    moves, distance = result
    assert (distance, counters.nodes_evaluated, _pairs(moves)) == PINNED_NEXT_STAGE[spec]


def test_every_node_the_search_enters_has_bx_at_most_remaining_plus_1(monkeypatch):
    """``Targets.moves`` is asked only at nodes with BX <= remaining + 1:
    the root has h <= k-bar, and a child is kept only when its h is at most
    its parent's remaining, its own plus 1.  Checked at every call of the
    pinned tight-stage solves and of their next stages, where tight-stage
    nodes with GX = 0 reach it."""
    real = exact.Targets.moves
    asked = []

    def spy(self, config, open_mask, clean, last, budget, fronts, remaining, commute):
        asked.append(config.blocking_total - remaining)
        return real(self, config, open_mask, clean, last, budget, fronts, remaining, commute)

    monkeypatch.setattr(exact.Targets, "moves", spy)
    for spec in sorted(PINNED_SEARCHES):
        prep = _pinned_instance(spec)
        warm = astar.solve_astar(prep.config, prep.dmat)
        assert isinstance(exact.solve_exact(prep.config, prep.dmat, warm), Solution)
    for spec in sorted(PINNED_NEXT_STAGE):
        prep = _pinned_instance(spec)
        warm = astar.solve_astar(prep.config, prep.dmat)
        root = bounds.lb_state(prep.config)
        assert exact.complete_search(prep.config, root[2] + 1, prep.dmat, warm.total_distance,
                                     deadline=math.inf, counters=SolveStats(),
                                     root=root) is not None
    assert max(asked) == 1


# (bay, warehouse, fill, G, seed) -> (k, distance, nodes) of ``solve_exact``
# after A*.  The root has GX = 0 and its distance bound equals the distance,
# which certifies the optimum.  Without the distance cut the first took
# 131,729 nodes and the second did not finish within 40 s.
PINNED_HARD = {
    ((3, 3), (10, 10), 0.9, 10, 1): (7, 32, 8),
    ((4, 4), (4, 4), 0.9, 10, 1): (10, 35, 11),
}


def _check_distance_bounds(monkeypatch):
    """Make every ``Targets.distance_bound`` call assert that its B and each
    blocked lane's front term equal the lane-by-lane oracle's; returns the
    list of bounds B asked."""
    real = exact.Targets.distance_bound
    asked = []

    def spy(self, config, profiles, open_mask, clean):
        bound, fronts = real(self, config, profiles, open_mask, clean)
        assert bound == oracles.distance_bound(self.points, self.dmat, profiles)
        assert fronts == oracles.front_terms(self.points, self.dmat, config, profiles)
        asked.append(bound)
        return bound, fronts

    monkeypatch.setattr(exact.Targets, "distance_bound", spy)
    return asked


@pytest.mark.parametrize("spec", sorted(PINNED_HARD))
def test_hard_tight_instances_solve_within_budget(spec, monkeypatch):
    prep = _pinned_instance(spec)
    config = prep.config
    _surplus, profiles, h0 = bounds.lb_state(config)
    assert h0 == config.blocking_total
    warm = astar.solve_astar(config, prep.dmat)
    asked = _check_distance_bounds(monkeypatch)
    result = exact.solve_exact(config, prep.dmat, warm, deadline=time.perf_counter() + 20)
    assert isinstance(result, Solution)
    assert (result.k, result.total_distance, result.stats.nodes_evaluated) == PINNED_HARD[spec]
    assert asked
    targets = exact.Targets(config, prep.dmat)
    root_bound, _fronts = targets.distance_bound(config, profiles,
                                                 *targets.masks(config, profiles))
    assert root_bound == result.total_distance


def test_distance_cut_below_a_root_bound_short_of_the_optimum(monkeypatch):
    """4x4/4x4/0.9/G10/s2: the root has GX = 0, but its distance bound, 26,
    is below the optimum, 28, so the distance cut decides deep in the tree.
    Every bound the search asks equals the oracle's."""
    prep = _pinned_instance(((4, 4), (4, 4), 0.9, 10, 2))
    config = prep.config
    _surplus, profiles, h0 = bounds.lb_state(config)
    assert h0 == config.blocking_total
    targets = exact.Targets(config, prep.dmat)
    assert targets.distance_bound(config, profiles, *targets.masks(config, profiles))[0] == 26
    warm = astar.solve_astar(config, prep.dmat)
    asked = _check_distance_bounds(monkeypatch)
    result = exact.solve_exact(config, prep.dmat, warm, deadline=time.perf_counter() + 20)
    assert isinstance(result, Solution)
    assert (result.k, result.total_distance, result.stats.nodes_evaluated) == (9, 28, 710)
    assert asked


def test_moves_the_distance_cut_would_drop_are_never_built(monkeypatch):
    """4x4/8x8/0.9/G10/s2: a tight stage whose root has GX = 0.  Each source
    of a GX = 0 node bisects its distances by budget - (B - m_s), so the
    search builds 902 children for its 65 nodes; with one budget for every
    source it built 31,502, nearly all of them then cut by the distance
    bound.  Every bound the search asks equals the oracle's."""
    prep = _pinned_instance(((4, 4), (8, 8), 0.9, 10, 2))
    config = prep.config
    _surplus, _profiles, h0 = bounds.lb_state(config)
    assert h0 == config.blocking_total
    warm = astar.solve_astar(config, prep.dmat)
    asked = _check_distance_bounds(monkeypatch)
    with mock.patch.object(exact, "apply_move", wraps=exact.apply_move) as built:
        result = exact.solve_exact(config, prep.dmat, warm, deadline=time.perf_counter() + 60)
    assert isinstance(result, Solution)
    assert (result.k, result.total_distance, result.stats.nodes_evaluated) == (26, 69, 65)
    assert built.call_count == 902
    assert asked


def _root_evaluations(config, dmat):
    """(stages, ``bounds.lb_state`` calls) of ``solve_exact`` after A*."""
    warm = astar.solve_astar(config, dmat)
    with mock.patch.object(exact, "complete_search", wraps=exact.complete_search) as stages, \
            mock.patch.object(bounds, "lb_state", wraps=bounds.lb_state) as lb_state:
        result = exact.solve_exact(config, dmat, warm)
    assert isinstance(result, Solution)
    return stages.call_count, lb_state.call_count


def test_solve_exact_evaluates_the_root_once():
    """Every stage searches from the same root, so ``solve_exact`` calls
    ``bounds.lb_state`` once: on 4x4/2x2/0.9/G10/s8, solved in its one
    tight stage, and on lanes whose root bound, 2, is two below the optimal
    move count, 4, so three stages run."""
    prep = _pinned_instance(((4, 4), (2, 2), 0.9, 10, 8))
    assert _root_evaluations(prep.config, prep.dmat) == (1, 1)
    config = make_config([(3, (2, 4), 0), (3, (3, 1), 2), (3, (2, 1), 4)], groups=4)
    assert _root_evaluations(config, DMAT) == (3, 1)


def test_tight_stage_with_gx_at_the_root_solves_within_budget():
    """5x5/2x2/0.9/G10/s1: the root has GX = 1 (h = 7, BX = 6), so the
    distance bound is not asked there.  292 nodes find the plan, 10 shorter
    than A*'s (7, 36)."""
    prep = _pinned_instance(((5, 5), (2, 2), 0.9, 10, 1))
    config = prep.config
    _surplus, _profiles, h0 = bounds.lb_state(config)
    assert (h0, config.blocking_total) == (7, 6)
    warm = astar.solve_astar(config, prep.dmat)
    assert (warm.k, warm.total_distance) == (7, 36)
    result = exact.solve_exact(config, prep.dmat, warm, deadline=time.perf_counter() + 20)
    assert isinstance(result, Solution)
    assert (result.k, result.total_distance, result.stats.nodes_evaluated) == (7, 26, 292)


def _tight_plans():
    """(config, staged oracle's result) of random states whose root is tight
    with GX = 0; the result is None where the state has no plan."""
    rng = random.Random(11)
    for _ in range(400):
        lanes = []
        for _lane in range(rng.randint(4, 6)):
            cap = rng.randint(2, 3)
            contents = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, cap)))
            lanes.append((cap, contents, rng.randrange(8)))
        config = make_config(lanes, groups=4)
        h0 = bounds.lb_state(config)[2]
        if not 0 < h0 == config.blocking_total <= 9 - len(lanes):
            continue
        yield config, _oracle(lanes, h0, 10_000)


def _along(config, pairs):
    """The states a plan of (source, target) lane indices ``pairs`` passes
    through from ``config``, its last included, each with its move from
    there (None for the last)."""
    for pair in pairs:
        move = next(m for m in oracles.all_moves(config, DMAT)
                    if (m.from_lane - 1, m.to_lane - 1) == pair)
        yield config, move
        config = apply_move(config, move)
    yield config, None


def test_distance_bound_never_exceeds_the_oracles_remaining_distance():
    """On random states whose root is tight with GX = 0, the distance bound
    at the root and at every state along the staged oracle's plan is at most
    the distance that plan has left, and the search returns the oracle's
    plan, or none where the oracle finds none."""
    plans = planless = positive = tight = 0
    for config, expected in _tight_plans():
        assert _as_oracle(_search(config, config.blocking_total, DMAT, 10_000)) == expected
        if expected is None:
            planless += 1
            continue
        plans += 1
        targets = exact.Targets(config, DMAT)
        left = expected[0]
        for state, move in _along(config, expected[1]):
            _surplus, profiles, h = bounds.lb_state(state)
            assert h == state.blocking_total  # GX = 0 all along the plan
            bound, _fronts = targets.distance_bound(state, profiles,
                                                    *targets.masks(state, profiles))
            assert bound == oracles.distance_bound(config.points, DMAT, profiles)
            assert bound <= left
            positive += bound > 0
            tight += bound == left > 0
            if move is not None:
                left -= move.distance
        assert left == 0 and state.blocking_total == 0
    assert plans >= 150 and planless >= 3 and positive >= 200 and tight >= 150


def test_a_listed_move_leaves_its_child_all_but_the_moved_loads_term():
    """At every state along the staged oracle's plans of those random
    states, a tight-stage node with GX = 0, every move the node lists
    leaves a child whose distance bound is at least B - m_s: B is the
    node's bound and m_s its term for the load moved, the front load of
    source s.  Children whose GX exceeds 0 are cut by h and have no bound."""
    checked = equal = 0
    for config, expected in _tight_plans():
        if expected is None:
            continue
        targets = exact.Targets(config, DMAT)
        for state, _move in _along(config, expected[1]):
            _surplus, profiles, h = bounds.lb_state(state)
            open_mask, clean = targets.masks(state, profiles)
            bound, fronts = targets.distance_bound(state, profiles, open_mask, clean)
            for move in targets.moves(state, open_mask, clean, None, 10_000, {}, h - 1, None):
                child = apply_move(state, move)
                _c_surplus, c_profiles, c_h = bounds.lb_state(child)
                if c_h > child.blocking_total:
                    continue
                c_bound = oracles.distance_bound(config.points, DMAT, c_profiles)
                least = bound - fronts[move.from_lane - 1]
                assert c_bound >= least
                checked += 1
                equal += c_bound == least
    assert checked >= 900 and equal >= 800


def test_a_blocker_no_other_lane_takes_makes_gx_positive():
    """Lane 1's blocker 3 fits no other lane (thresholds 2, one of them
    full), so no plan of BX = 1 move exists and GX > 0: the distance bound
    is never asked, and the search and the oracle agree at both stages."""
    lanes = [(2, (1, 3), 0), (1, (2,), 1), (2, (2,), 2)]
    config = make_config(lanes, groups=3)
    assert config.blocking_total == 1 < bounds.lb_state(config)[2]
    assert _search(config, 1, DMAT, 10_000) is None
    assert _oracle(lanes, 1, 10_000) is None
    h0 = bounds.lb_state(config)[2]
    assert _as_oracle(_search(config, h0, DMAT, 10_000)) == _oracle(lanes, h0, 10_000)


class _SourcesRead:
    """A dmat that records the first point of every distance asked for."""

    def __init__(self, dmat):
        self.dmat = dmat
        self.read = set()

    def between(self, p, q):
        self.read.add(p)
        return self.dmat.between(p, q)


@pytest.mark.parametrize("spec", sorted(PINNED_SEARCHES) + [((4, 4), (3, 3), 0.9, 10, 1)])
def test_tight_stage_reads_only_the_rows_of_lanes_blocked_at_the_root(spec):
    """With GX = 0 at the root, the tight stage moves blockers only from
    lanes blocked at the root, so the search reads the distances from
    those lanes' access points and no others."""
    prep = _pinned_instance(spec)
    config = prep.config
    _surplus, profiles, h0 = bounds.lb_state(config)
    assert h0 == config.blocking_total
    blocked = {p for p, prof in zip(config.points, profiles) if prof.blocking_suffix}
    warm = astar.solve_astar(config, prep.dmat)
    dmat = _SourcesRead(prep.dmat)
    result = _search(config, h0, dmat, warm.total_distance)
    assert result is not None
    assert dmat.read and dmat.read <= blocked


def test_tight_stage_and_the_next_return_the_oracles_plan():
    """On random states whose root bound is A*'s k, the search gives the
    staged oracle's plan, or None where it does, in the tight stage and in
    the one above it.  The caps are A*'s distance, one below it (mostly no
    plan) and 4 above it.  k-bar stays small enough for the oracle's
    unpruned walk."""
    rng = random.Random(5)
    tight = found = empty = 0
    for _ in range(300):
        lanes = []
        for _lane in range(rng.randint(4, 6)):
            cap = rng.randint(2, 3)
            contents = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, cap)))
            lanes.append((cap, contents, rng.randrange(8)))
        config = make_config(lanes, groups=4)
        h0 = bounds.lb_state(config)[2]
        warm = astar.solve_astar(config, DMAT)
        if not isinstance(warm, Solution) or warm.k != h0 or not 0 < h0 <= 9 - len(lanes):
            continue
        tight += 1
        for k_bar in (h0, h0 + 1)[:10 - len(lanes) - h0]:
            for c_ub in (warm.total_distance - 1, warm.total_distance, warm.total_distance + 4):
                if c_ub < 0:
                    continue
                expected = _oracle(lanes, k_bar, c_ub)
                assert _as_oracle(_search(config, k_bar, DMAT, c_ub)) == expected
                found += expected is not None
                empty += expected is None
    assert tight >= 100
    assert found >= 150 and empty >= 100


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=4), max_size=4),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=2,
        max_size=5,
    ),
    st.integers(min_value=-1, max_value=14),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_targets_equal_filtering_by_hand(lane_specs, budget, remaining, commuting, rng):
    """The mask generator yields the legal moves that the relay rule, the
    distance budget, the child's blocking count and, with ``commuting``, the
    commuting-move cut after the walk's last move leave, in legal-move
    order, at every state of a walk whose masks are patched move by move.
    At a state with GX = 0 whose blocking count must fall, each source's
    budget is the node's less its distance bound but its front term.
    ``remaining`` is raised at each state to at least its blocking count
    less 1, as at every node the search enters (``Targets.moves``)."""
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    targets = exact.Targets(config, DMAT)
    surplus, profiles, _h = bounds.lb_state(config)
    open_mask, clean = targets.masks(config, profiles)
    last = commute = None
    for _ in range(6):
        moves = oracles.all_moves(config, DMAT)
        kept = [  # by the relay rule and the commuting-move cut
            m for m in moves
            if m.from_lane - 1 != last
            and (commute is None or not {m.from_lane - 1, m.to_lane - 1}.isdisjoint(commute)
                 or (m.from_lane - 1, m.to_lane - 1) > commute)
        ]
        least = max(remaining, config.blocking_total - 1)
        by_hand = [m for m in kept
                   if m.distance <= budget and apply_move(config, m).blocking_total <= least]
        got = targets.moves(config, open_mask, clean, last, budget, {}, least, commute)
        assert list(got) == by_hand
        blocking = config.blocking_total
        if bounds.lb_state(config)[2] == blocking > 0:
            # As at a tight-stage node with GX = 0, whose budget is at least
            # its bound B: each source s bisects by budget - (B - m_s).
            bound, fronts = targets.distance_bound(config, profiles, open_mask, clean)
            terms = oracles.front_terms(config.points, DMAT, config, profiles)
            node_budget = bound + budget
            by_source = [
                m for m in kept
                if apply_move(config, m).blocking_total < blocking
                and m.distance <= node_budget - (bound - terms[m.from_lane - 1])
            ]
            got = targets.moves(config, open_mask, clean, last, node_budget - bound, fronts,
                                blocking - 1, commute)
            assert list(got) == by_source
        if not moves:
            return
        move = rng.choice(moves)
        child = apply_move(config, move)
        surplus, c_profiles = bounds.lb_incremental(surplus, profiles, move, child, {})
        open_mask, clean = targets.child_masks(open_mask, clean, move, profiles, c_profiles)
        assert (open_mask, clean) == targets.masks(child, c_profiles)
        config, profiles, last = child, c_profiles, move.to_lane - 1
        if commuting:
            commute = (move.from_lane - 1, last)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.lists(st.integers(min_value=1, max_value=4), max_size=3),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=2,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=30),
)
def test_bound_prunes_never_change_the_plan(lane_specs, k_bar, c_ub):
    """The BX pre-check and the full bound cut only dead subtrees, so the
    plan found is the staged oracle's, which nothing cuts."""
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    assert _as_oracle(_search(config, k_bar, DMAT, c_ub)) == _oracle(lanes, k_bar, c_ub)
