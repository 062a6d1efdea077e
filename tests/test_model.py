from collections import Counter

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import FakeDmat, make_config
from premarshal import bounds, fixing
from premarshal.model import (
    IllegalMove,
    LaneConfiguration,
    Move,
    Solution,
    SolveStats,
    apply_move,
    blocking_of,
    legal_moves,
    non_increasing_prefix_len,
    state_key,
)

DMAT = FakeDmat()

contents_strategy = st.lists(st.integers(min_value=1, max_value=9), max_size=6)


def _census(config):
    """How many loads of each group the lanes hold."""
    return Counter(g for loads in config.contents for g in loads)


def test_blocking_frozen_values():
    assert blocking_of([5, 3, 1]) == 0
    assert blocking_of([]) == 0
    assert blocking_of([2, 5, 1]) == 2
    # two lanes [1,3] and [4,2]: only the 3 in front of the 1 blocks
    assert blocking_of([1, 3]) + blocking_of([4, 2]) == 1


def test_prefix_len():
    assert non_increasing_prefix_len([]) == 0
    assert non_increasing_prefix_len([4]) == 1
    assert non_increasing_prefix_len([4, 4, 2, 3]) == 3
    assert non_increasing_prefix_len([1, 2, 3]) == 1


@given(contents_strategy)
def test_blocking_matches_rules_oracle(contents):
    assert blocking_of(contents) == oracles.blocking_by_rules(contents)


def test_lane_validation():
    with pytest.raises(ValueError, match="lane 2: capacity must be positive"):
        LaneConfiguration.build([(0, 1, ()), (1, 0, ())], groups=3)
    with pytest.raises(ValueError, match="lane 1: contents exceed capacity"):
        LaneConfiguration.build([(0, 1, (1, 2))], groups=3)
    config = LaneConfiguration.build([(3, 2, [4]), (5, 1, ())], groups=4)
    assert config.contents == ((4,), ())
    assert config.points == (3, 5) and config.capacities == (2, 1)
    assert config.groups == 4 and config.blocking_total == 0


def test_config_build_rejects_bad_ids_and_groups():
    for group in (0, 7):
        with pytest.raises(ValueError, match=f"lane 2: group {group} outside 1..3"):
            make_config([(2, (1,), 0), (2, (group,), 1)], groups=3)


def test_children_share_the_static_lane_data():
    config = make_config([(2, (2, 1), 4), (3, (), 7), (1, (3,), 2)], groups=3)
    assert state_key(config) is config.contents
    for move in legal_moves(config, DMAT):
        child = apply_move(config, move)
        assert child.points is config.points
        assert child.capacities is config.capacities
        assert state_key(child) is child.contents


def test_apply_move_rejects_unknown_lanes():
    """Lane ids run 1..n; 0 is no alias of the last lane, nor n + 1 of any."""
    config = make_config([(2, (2,), 0), (2, (), 1), (2, (1, 3), 2)], 3)
    for move in (Move(0, 2, 2, 1, 1), Move(1, 0, 1, 1, 1), Move(1, 4, 1, 1, 1),
                 Move(4, 2, 1, 1, 1)):
        with pytest.raises(IllegalMove, match="unknown lane"):
            apply_move(config, move)


def test_state_blocking_sums_lanes():
    config = make_config([(3, (2, 5, 1), 0), (3, (), 1), (2, (), 2)], groups=5)
    assert sum(oracles.blocking_by_rules(loads) for loads in config.contents) == 2
    assert config.blocking_total == 2


def test_legal_moves_frozen():
    single = make_config([(2, (1,), 0), (2, (), 1)], groups=1)
    assert len(legal_moves(single, DMAT)) == 1

    three_open = make_config([(2, (1,), 0), (2, (3,), 1), (2, (5,), 2)], groups=5)
    assert len(legal_moves(three_open, DMAT)) == 6

    # lane 1 is full, lane 3 is empty: only 1->2, 1->3, 2->3 remain
    config = make_config([(2, (1, 2), 0), (2, (3,), 1), (2, (), 2)], groups=3)
    moves = legal_moves(config, DMAT)
    assert [(m.from_lane, m.to_lane) for m in moves] == [(1, 2), (1, 3), (2, 3)]


def test_legal_moves_positions_and_order():
    config = make_config([(3, (4, 2), 0), (3, (1,), 5), (2, (), 9)], groups=4)
    moves = legal_moves(config, DMAT)
    pairs = [(m.from_lane, m.to_lane) for m in moves]
    assert pairs == sorted(pairs)
    first = moves[0]
    assert first.from_pos == 2 and first.to_pos == 2
    assert first.distance == DMAT.between(0, 5)


def test_apply_move_frozen():
    config = make_config([(2, (2, 5), 0), (2, (), 1)], groups=5)
    assert config.blocking_total == 1
    move = legal_moves(config, DMAT)[0]
    after = apply_move(config, move)
    assert after.contents == ((2,), (5,))
    assert after.blocking_total == 0
    assert _census(after) == _census(config)


def test_apply_move_rejects_stale_positions():
    config = make_config([(2, (1,), 0), (2, (), 1)], groups=1)
    bad = Move(from_lane=1, to_lane=2, from_pos=2, to_pos=1, distance=0)
    with pytest.raises(IllegalMove):
        apply_move(config, bad)
    with pytest.raises(IllegalMove):
        apply_move(config, Move(from_lane=2, to_lane=1, from_pos=1, to_pos=2, distance=0))


# The value types built per lane or per child: a maker of one value and a field.
VALUE_TYPES = {
    "Move": (lambda: Move(1, 2, 3, 1, 7), "distance"),
    "LaneConfiguration": (lambda: make_config([(2, (1,), 0), (2, (), 1)], groups=1), "contents"),
    "LaneProfile": (lambda: bounds.lane_profile((3, 1, 2), 4, 3), "threshold"),
    "InducedLane": (lambda: fixing.InducedLane("W", (1, 2), 3, (2, 1)), "contents"),
}


@pytest.mark.parametrize("kind", list(VALUE_TYPES))
def test_value_types_are_immutable_hashable_and_equal_by_value(kind):
    make, field = VALUE_TYPES[kind]
    value, twin = make(), make()
    assert type(value).__name__ == kind
    assert value == twin and value is not twin
    assert hash(value) == hash(twin) and len({value, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == twin


def test_move_repr_names_every_field():
    """``IllegalMove`` messages embed it."""
    move = Move(from_lane=1, to_lane=9, from_pos=3, to_pos=1, distance=7)
    assert repr(move) == "Move(from_lane=1, to_lane=9, from_pos=3, to_pos=1, distance=7)"
    config = make_config([(2, (1,), 0), (2, (), 1)], groups=1)
    with pytest.raises(IllegalMove, match=r"unknown lane in Move\(from_lane=1, to_lane=9, "):
        apply_move(config, move)


def test_state_key_distinguishes_lanes():
    a = make_config([(2, (1,), 0), (2, (2,), 1)], groups=2)
    b = make_config([(2, (2,), 0), (2, (1,), 1)], groups=2)
    assert state_key(a) != state_key(b)
    assert state_key(a) == state_key(make_config([(2, (1,), 0), (2, (2,), 1)], groups=2))


def test_apply_then_inverse_restores_key():
    config = make_config([(3, (3, 1), 0), (3, (2,), 1)], groups=3)
    key = state_key(config)
    fwd = next(m for m in legal_moves(config, DMAT) if (m.from_lane, m.to_lane) == (1, 2))
    mid = apply_move(config, fwd)
    back = next(m for m in legal_moves(mid, DMAT) if (m.from_lane, m.to_lane) == (2, 1))
    assert state_key(apply_move(mid, back)) == key


@given(
    st.lists(st.lists(st.integers(min_value=1, max_value=4), max_size=3), min_size=2, max_size=4),
    st.lists(st.integers(min_value=0, max_value=100), max_size=12),
)
def test_random_walk_conserves_census_and_no_holes(lanes_contents, picks):
    lanes = [(4, tuple(c), idx) for idx, c in enumerate(lanes_contents)]
    config = make_config(lanes, groups=4)
    census = _census(config)
    for pick in picks:
        moves = legal_moves(config, DMAT)
        if not moves:
            break
        config = apply_move(config, moves[pick % len(moves)])
        assert _census(config) == census
        assert config.blocking_total == sum(
            oracles.blocking_by_rules(loads) for loads in config.contents
        )
        for loads, capacity in zip(config.contents, config.capacities):
            assert len(loads) <= capacity


def test_solution_consistency_checks():
    stats = SolveStats()
    move = Move(from_lane=1, to_lane=2, from_pos=1, to_pos=1, distance=4)
    sol = Solution(algo="astar", moves=(move,), k=1, total_distance=4, stats=stats)
    assert sol.k == 1
    with pytest.raises(ValueError):
        Solution(algo="astar", moves=(move,), k=2, total_distance=4, stats=stats)
    with pytest.raises(ValueError):
        Solution(algo="astar", moves=(move,), k=1, total_distance=5, stats=stats)


_CONFIGS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=1, max_value=4), max_size=4),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=2,
    max_size=5,
)


@given(_CONFIGS)
def test_legal_moves_equal_every_pair_by_hand(lane_specs):
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    n = len(config.contents)
    fill = [len(loads) for loads in config.contents]
    everything = [
        Move(src + 1, dst + 1, fill[src], fill[dst] + 1,
             DMAT.between(config.points[src], config.points[dst]))
        for src in range(n)
        for dst in range(n)
        if src != dst and fill[src] and fill[dst] < config.capacities[dst]
    ]
    assert legal_moves(config, DMAT) == everything


@given(_CONFIGS, st.randoms(use_true_random=False))
def test_legal_moves_narrowed_to_targets(lane_specs, rng):
    """With ``targets`` the moves are those of the named (source, target)
    pairs, equal to the all-pairs moves and in the pairs' order."""
    lanes = [(max(cap, len(c)), tuple(c), ap) for cap, c, ap in lane_specs]
    config = make_config(lanes, groups=4)
    everything = legal_moves(config, DMAT)
    sources = sorted({m.from_lane - 1 for m in everything}, key=lambda _: rng.random())
    targets = []
    for src in sources:
        mask = 0
        for m in everything:
            if m.from_lane - 1 == src and rng.random() < 0.7:
                mask |= 1 << (m.to_lane - 1)
        targets.append((src, mask))
    want = [m for src, mask in targets for m in everything
            if m.from_lane - 1 == src and mask >> (m.to_lane - 1) & 1]
    assert legal_moves(config, DMAT, targets) == want
