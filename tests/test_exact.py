import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import FakeDmat, make_config
from premarshal import astar, bounds, exact
from premarshal.generate import GenConfig, generate
from premarshal.pipeline import prepare
from premarshal.model import Solution, SolveStats, TimedOut, apply_move, legal_moves

DMAT = FakeDmat()


def _dist_fn(lanes):
    return lambda s, t: DMAT.between(lanes[s][2], lanes[t][2])


def test_model_rejects_negative_parameters():
    config = make_config([(2, (1,), 0)], groups=1)
    with pytest.raises(ValueError):
        exact.complete_search(config, -1, DMAT, c_ub=5)
    with pytest.raises(ValueError):
        exact.complete_search(config, 1, DMAT, c_ub=-1)


def test_relay_rule_forbids_immediate_bounce():
    """A single load cannot fill two stages: moving it twice in a row is banned."""
    lanes = [(1, (1,), 0), (1, (), 1)]
    config = make_config(lanes, groups=1)
    zero = exact.complete_search(config, 0, DMAT, c_ub=0)
    assert zero is not None and zero[:2] == ([], 0)
    one = exact.complete_search(config, 1, DMAT, c_ub=10)
    assert one is not None and one[1] == 1
    assert exact.complete_search(config, 2, DMAT, c_ub=10) is None
    assert oracles.staged_optimum([l[:2] for l in lanes], _dist_fn(lanes), 2, 10) is None


def test_two_loads_relay_through_each_other():
    # Exactly two stages force the cheaper order: lane 2 clears first so that
    # lane 1's load can land in the freed slot.
    lanes = [(1, (1,), 0), (1, (2,), 1), (2, (), 2)]
    config = make_config(lanes, groups=2)
    result = exact.complete_search(config, 2, DMAT, c_ub=100)
    assert result is not None
    moves, distance, _nodes = result
    assert distance == 2
    assert [(m.from_lane, m.to_lane) for m in moves] == [(2, 3), (1, 2)]
    assert oracles.staged_optimum([l[:2] for l in lanes], _dist_fn(lanes), 2, 100) == 2


def test_distance_cap_is_part_of_the_goal():
    """c_ub must hold even with distance pruning switched off."""
    lanes = [(2, (1, 3), 0), (1, (), 5)]
    config = make_config(lanes, groups=3)
    assert exact.complete_search(config, 0, DMAT, c_ub=100) is None
    for prune in (False, True):
        capped = exact.complete_search(config, 1, DMAT, c_ub=4, prune_distance=prune)
        assert capped is None
        exactly = exact.complete_search(config, 1, DMAT, c_ub=5, prune_distance=prune)
        assert exactly is not None and exactly[1] == 5


def test_toggles_never_change_the_answer():
    """Memoisation and both prunes are speedups, not semantics."""
    rng = random.Random(41)
    toggles = list(itertools.product((False, True), repeat=3))
    for _ in range(18):
        aps = rng.sample(range(8), 3)
        lanes = [
            (rng.randint(2, 3),
             tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))),
             aps[idx])
            for idx in range(3)
        ]
        config = make_config(lanes, groups=4)
        for k_bar in (rng.randint(0, 2), 3):
            expected = oracles.staged_optimum(
                [l[:2] for l in lanes], _dist_fn(lanes), k_bar, 10_000
            )
            for use_memo, prune_distance, prune_bound in toggles:
                result = exact.complete_search(
                    config, k_bar, DMAT, c_ub=10_000,
                    use_memo=use_memo,
                    prune_distance=prune_distance,
                    prune_bound=prune_bound,
                )
                if expected is None:
                    assert result is None
                    continue
                assert result is not None and result[1] == expected
            if expected is None:
                continue
            # boundary: the cap is attainable at equality and not below it
            tight = exact.complete_search(config, k_bar, DMAT, expected)
            assert tight is not None
            moves, distance, _nodes = tight
            assert distance == expected
            assert len(moves) == k_bar
            assert sum(m.distance for m in moves) == expected
            for prev, nxt in zip(moves, moves[1:]):
                assert nxt.from_lane != prev.to_lane
            state = config
            for move in moves:
                state = apply_move(state, move)
            assert state.is_sorted
            if expected > 0:
                assert exact.complete_search(config, k_bar, DMAT, expected - 1) is None


def test_counters_and_prunes_only_save_work():
    config = make_config([(3, (1, 3), 0), (3, (2, 4), 1), (3, (), 2)], groups=4)
    counters = SolveStats()
    fast = exact.complete_search(config, 2, DMAT, c_ub=1_000, counters=counters)
    bare = exact.complete_search(
        config, 2, DMAT, c_ub=1_000, use_memo=False, prune_distance=False, prune_bound=False
    )
    assert fast is not None and bare is not None
    _moves, fast_distance, fast_nodes = fast
    _moves, bare_distance, bare_nodes = bare
    assert fast_distance == bare_distance
    assert fast_nodes <= bare_nodes
    assert counters.nodes_evaluated == fast_nodes


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
        assert state.is_sorted
        checked += 1
    assert checked == 30


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
    result = exact.solve_exact(config, DMAT, warm, timeout_s=0.0)
    assert isinstance(result, TimedOut)
    assert result.k_bar_reached == 1
    assert result.stats is not None and result.stats.nodes_evaluated >= 1


# (bay, warehouse, fill, G, seed) -> depth correction -> (k, distance, nodes
# without the tight-stage cuts, nodes with them, move pairs), with A* and
# exact both run at that depth setting.  The counts without the cuts were
# recorded before the exact search cut children ahead of building them
# (depth correction off) and before it took them from lane bitmasks (on).
PINNED_SEARCHES = {
    ((4, 4), (2, 2), 0.9, 10, 8): {
        False: (3, 11, 18, 18, [(12, 11), (39, 3), (24, 39)]),
        True: (3, 11, 15, 15, [(12, 11), (39, 3), (24, 39)]),
    },
    ((5, 5), (2, 2), 0.8, 5, 3): {
        False: (4, 13, 230, 94, [(4, 3), (22, 8), (41, 11), (54, 32)]),
        True: (4, 16, 222, 97, [(4, 3), (41, 11), (54, 32), (22, 32)]),
    },
}


def _pinned_solves(spec, prune_tight):
    """(pinned, got) per depth setting of ``spec``, with ``solve_exact`` run
    with the tight-stage cuts on or off."""
    bay, warehouse, fill, groups, seed = spec
    prep = prepare(generate(GenConfig(bay=bay, warehouse=warehouse, fill=fill,
                                      groups=groups, seed=seed)))
    search = functools.partial(exact.complete_search, prune_tight=prune_tight)
    for depth_correction, pinned in PINNED_SEARCHES[spec].items():
        warm = astar.solve_astar(prep.config, prep.dmat, depth_correction=depth_correction)
        with mock.patch.object(exact, "complete_search", search):
            result = exact.solve_exact(prep.config, prep.dmat, warm,
                                       depth_correction=depth_correction)
        assert isinstance(result, Solution)
        got = (result.k, result.total_distance, result.stats.nodes_evaluated,
               [(m.from_lane, m.to_lane) for m in result.moves])
        yield pinned, got


@pytest.mark.parametrize("spec", sorted(PINNED_SEARCHES))
def test_pinned_node_counts_and_plans(spec):
    """Without the tight-stage cuts, cutting children before they are built
    visits the very same nodes."""
    for (k, distance, nodes, _tight_nodes, pairs), got in _pinned_solves(spec, False):
        assert got == (k, distance, nodes, pairs)


@pytest.mark.parametrize("spec", sorted(PINNED_SEARCHES))
def test_pinned_node_counts_with_tight_cuts(spec):
    """The tight-stage cuts keep the plan and visit the pinned nodes."""
    for (k, distance, _nodes, tight_nodes, pairs), got in _pinned_solves(spec, True):
        assert got == (k, distance, tight_nodes, pairs)


def test_tight_cuts_keep_the_plan_and_only_save_nodes():
    """On random states whose root bound is A*'s k, the tight-stage cuts give
    the plan the search gives without them, with either depth setting, the
    staged oracle's distance, and no more nodes; one stage more, where they
    do not apply, nothing changes.  k-bar stays small enough for the
    oracle's unpruned walk."""
    rng = random.Random(5)
    tight = saved = 0
    for _ in range(300):
        lanes = []
        for _lane in range(rng.randint(4, 6)):
            cap = rng.randint(2, 3)
            contents = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, cap)))
            lanes.append((cap, contents, rng.randrange(8)))
        config = make_config(lanes, groups=4)
        h0 = bounds.lb(config)
        warm = astar.solve_astar(config, DMAT)
        if not isinstance(warm, Solution) or warm.k != h0 or not 0 < h0 <= 9 - len(lanes):
            continue
        tight += 1
        for k_bar in (h0, h0 + 1)[:10 - len(lanes) - h0]:
            c_ub = warm.total_distance + 4
            expected = oracles.staged_optimum([l[:2] for l in lanes], _dist_fn(lanes),
                                              k_bar, c_ub)
            for depth, cap in ((False, c_ub), (True, 10_000)):
                on = exact.complete_search(config, k_bar, DMAT, cap, depth)
                off = exact.complete_search(config, k_bar, DMAT, cap, depth,
                                            prune_tight=False)
                if off is None:
                    assert on is None and (depth or expected is None)
                    continue
                assert on is not None and on[:2] == off[:2]
                assert depth or on[1] == expected
                if k_bar > h0:
                    assert on[2] == off[2]
                    continue
                assert on[2] <= off[2]
                saved += on[2] < off[2]
    assert tight >= 100
    assert saved >= 10


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
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=14)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_targets_equal_filtering_by_hand(lane_specs, depth, budget, remaining, commuting, rng):
    """The mask generator yields the legal moves that the relay rule, the
    distance budget, the child's blocking count and, with ``commuting``, the
    commuting-move cut after the walk's last move leave, in legal-move
    order, at every state of a walk whose masks are patched move by move.
    ``budget`` None is prune_distance off, ``remaining`` None prune_bound off."""
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    targets = exact.Targets(config, DMAT, depth)
    surplus, profiles, _h = bounds.lb_state(config)
    if remaining is None:
        profiles = None  # the search keeps no profiles without the bound
    open_mask, clean = targets.masks(config, profiles)
    last = commute = None
    for _ in range(6):
        moves = legal_moves(config, DMAT, depth)
        by_hand = [
            m for m in moves
            if m.from_lane - 1 != last
            and (budget is None or m.distance <= budget)
            and (remaining is None or apply_move(config, m).blocking_total <= remaining)
            and (commute is None or not {m.from_lane - 1, m.to_lane - 1}.isdisjoint(commute)
                 or (m.from_lane - 1, m.to_lane - 1) > commute)
        ]
        got = targets.moves(config, open_mask, clean, last, budget, remaining, commute)
        assert list(got) == by_hand
        if not moves:
            return
        move = rng.choice(moves)
        child = apply_move(config, move)
        c_profiles = None
        if profiles is not None:
            surplus, c_profiles, _h = bounds.lb_incremental(surplus, profiles, move, child)
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
    plan found is the one the unbounded search finds first."""
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    bounded = exact.complete_search(config, k_bar, DMAT, c_ub)
    unbounded = exact.complete_search(config, k_bar, DMAT, c_ub, prune_bound=False)
    if unbounded is None:
        assert bounded is None
        return
    assert bounded is not None
    assert bounded[:2] == unbounded[:2]
    assert bounded[2] <= unbounded[2]
