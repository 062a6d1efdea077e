import math
import random

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import oracles
from conftest import FakeClock, FakeDmat, make_config
from premarshal import bounds
from premarshal.model import apply_move, legal_moves, state_key

DMAT = FakeDmat()


def test_lane_profile_frozen():
    empty = bounds.lane_profile((), 3, groups=5)
    assert (len(empty.prefix_groups), empty.threshold, empty.blocking_suffix) == (0, 5, ())
    assert empty.free_after_clear == 3

    sorted_lane = bounds.lane_profile((5, 3, 1), 3, groups=5)
    assert (len(sorted_lane.prefix_groups), sorted_lane.threshold) == (3, 1)
    assert sorted_lane.blocking_suffix == ()

    mixed = bounds.lane_profile((2, 5, 1), 4, groups=5)
    assert len(mixed.prefix_groups) == 1
    assert mixed.threshold == 2
    assert mixed.blocking_suffix == (1, 5)
    assert mixed.free_after_clear == 3
    assert len(mixed.prefix_groups) + len(mixed.blocking_suffix) == 3


def test_profile_counts_blocking():
    contents = (3, 3, 2, 4, 1)
    prof = bounds.lane_profile(contents, 5, groups=5)
    assert len(prof.blocking_suffix) == 2
    assert len(prof.prefix_groups) + len(prof.blocking_suffix) == len(contents)


def test_bx_bound_frozen():
    sorted_config = make_config([(3, (5, 2, 1), 0), (2, (), 1)], groups=5)
    assert sorted_config.blocking_total == 0
    config = make_config([(3, (2, 5, 1), 0), (2, (3,), 1)], groups=5)
    assert config.blocking_total == 2


def test_surplus_by_hand():
    """Lane 1 holds the prefix (2) with blockers 5 and 1 and two free slots
    at threshold 2; lane 2 the prefix (3) with one free slot at threshold 3;
    lane 3 is empty, two free slots at threshold G = 5."""
    config = make_config([(3, (2, 5, 1), 0), (2, (3,), 1), (2, (), 2)], groups=5)
    surplus, _profiles, _h = bounds.lb_state(config)
    demand = (2, 1, 1, 1, 1)  # blockers of group >= g: {1, 5}, then {5}
    supply = (5, 5, 3, 2, 2)  # free slots at thresholds >= g: 2 + 1 + 2, then 1 + 2, then 2
    assert surplus == tuple(d - s for d, s in zip(demand, supply)) == (-3, -4, -2, -1, -1)


def test_gx_zero_when_supply_covers():
    config = make_config([(3, (2, 5, 1), 0), (3, (), 1)], groups=5)
    surplus, profiles, h = bounds.lb_state(config)
    assert bounds.gx_bound(surplus, profiles) == 0
    assert h == 2  # bx only


def test_gx_forced_removal_frozen():
    """[1] cap 1 and [3,5] cap 2: the blocking 5 fits nowhere until the 1
    moves (its lane's threshold then rises to G), so gx = 1."""
    config = make_config([(1, (1,), 0), (2, (3, 5), 1)], groups=5)
    surplus, profiles, h = bounds.lb_state(config)
    assert bounds.gx_bound(surplus, profiles) == 1
    assert h == 2


def test_gx_removal_when_no_threshold_high_enough():
    # the only free slot sits behind threshold 1; the prefix load must go
    config = make_config([(1, (5,), 0), (2, (1, 3), 1)], groups=5)
    surplus, profiles, h = bounds.lb_state(config)
    assert bounds.gx_bound(surplus, profiles) == 1
    assert h == 2


def test_lb_sorted_is_zero():
    config = make_config([(3, (4, 2, 2), 0), (2, (), 1)], groups=4)
    assert bounds.lb(config) == 0


def test_lb_empty_lane_never_raises_h():
    base = [(3, (2, 5, 1), 0), (2, (3,), 1)]
    with_free = base + [(2, (), 2)]
    assert bounds.lb(make_config(with_free, groups=5)) <= bounds.lb(make_config(base, groups=5))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=5), max_size=4),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example([(2, [5, 3], True), (1, [], False), (3, [4, 4, 1], True)])
@example([(1, [2], True), (3, [1, 2], False)])
def test_lb_equals_the_full_evaluation(lane_specs):
    """``lb``'s shortcut for a config without blockers gives ``lb_state``'s h.

    A lane drawn with its flag set holds its loads deepest first in
    non-increasing order, so it has no blocker; a config of such lanes only
    takes the shortcut.
    """
    lanes = [(max(cap, len(contents)), sorted(contents, reverse=True) if ordered else contents,
              idx)
             for idx, (cap, contents, ordered) in enumerate(lane_specs)]
    config = make_config(lanes, groups=5)
    assert bounds.lb(config) == bounds.lb_state(config)[2]


def _random_config(rng, n_lanes=4, cap=3, groups=5):
    lanes = []
    for idx in range(n_lanes):
        fill = rng.randint(0, cap)
        lanes.append((cap, tuple(rng.randint(1, groups) for _ in range(fill)), idx))
    return make_config(lanes, groups)


def test_incremental_equals_scratch_on_random_walks():
    rng = random.Random(42)
    for _ in range(25):
        config = _random_config(rng)
        surplus, profiles, h = bounds.lb_state(config)
        assert h == bounds.lb(config)
        for _step in range(40):
            moves = legal_moves(config, DMAT)
            if not moves:
                break
            move = rng.choice(moves)
            config = apply_move(config, move)
            surplus, profiles = bounds.lb_incremental(surplus, profiles, move, config, {})
            h = config.blocking_total + bounds.gx_bound(surplus, profiles)
            s_surplus, s_profiles, s_h = bounds.lb_state(config)
            assert h == s_h
            assert surplus == s_surplus
            assert profiles == s_profiles


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=5), max_size=4),
        ),
        min_size=2,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_incremental_property(lane_specs, rng):
    lanes = []
    for idx, (cap, contents) in enumerate(lane_specs):
        lanes.append((max(cap, len(contents)), tuple(contents), idx))
    config = make_config(lanes, groups=5)
    surplus, profiles, h = bounds.lb_state(config)
    for _ in range(6):
        moves = legal_moves(config, DMAT)
        if not moves:
            return
        move = rng.choice(moves)
        config = apply_move(config, move)
        surplus, profiles = bounds.lb_incremental(surplus, profiles, move, config, {})
        h = config.blocking_total + bounds.gx_bound(surplus, profiles)
        assert (surplus, profiles, h) == bounds.lb_state(config)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=5), max_size=4),
        ),
        min_size=2,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_incremental_with_the_search_memo(lane_specs, rng):
    """One lane-change memo for a whole walk, shared by each parent's
    ``Siblings`` listing and by ``lb_incremental``, as in A*:
    ``lb_incremental`` still equals the from-scratch bound."""
    lanes = []
    for idx, (cap, contents) in enumerate(lane_specs):
        lanes.append((max(cap, len(contents)), tuple(contents), idx))
    config = make_config(lanes, groups=5)
    surplus, profiles, h = bounds.lb_state(config)
    touched = {}
    for _ in range(6):
        moves = legal_moves(config, DMAT)
        if not moves:
            return
        bounds.Siblings(config, surplus, profiles, touched).select(math.inf, math.inf)
        move = rng.choice(moves)
        child = apply_move(config, move)
        surplus, profiles = bounds.lb_incremental(surplus, profiles, move, child, touched)
        h = child.blocking_total + bounds.gx_bound(surplus, profiles)
        assert (surplus, profiles, h) == bounds.lb_state(child)
        config = child


@st.composite
def _mostly_full_states(draw):
    """(G, lanes): 2-6 lanes of capacity 1-5, at least half of them full on
    average, so that GX > 0 is common; G is 1-6."""
    groups = draw(st.integers(min_value=1, max_value=6))
    lanes = []
    for idx in range(draw(st.integers(min_value=2, max_value=6))):
        capacity = draw(st.integers(min_value=1, max_value=5))
        fill = draw(st.one_of(st.just(capacity), st.integers(min_value=0, max_value=capacity)))
        contents = draw(st.lists(st.integers(min_value=1, max_value=groups),
                                 min_size=fill, max_size=fill))
        lanes.append((capacity, tuple(contents), idx))
    return groups, lanes


def test_h_is_consistent():
    """h(parent) <= h(child) + 1 for every legal move, and each of the four
    cases of the proof in the ``bounds`` docstring occurs: the moved load is
    a blocker or a prefix load of its source, and becomes a blocker at its
    target or joins the target's sorted prefix.  The proof's sharper claims
    are checked too: h' = h when a blocker stays a blocker, and h <= h' when
    a prefix load becomes one.  The child's h is that of the built child,
    which ``Siblings.select`` gives A* (tested below)."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_mostly_full_states())
    # One state with every case: lane 1 offers a blocker, lane 4 a prefix
    # load, lane 2 is clean and lane 3 blocked for them.
    @example((2, [(2, (1, 2), 0), (2, (), 1), (2, (1,), 2), (2, (2,), 3)]))
    def check(state):
        groups, lanes = state
        config = make_config(lanes, groups)
        surplus, profiles, h = bounds.lb_state(config)
        for move in legal_moves(config, DMAT):
            c_h = bounds.lb_state(apply_move(config, move))[2]
            assert h <= c_h + 1
            t = move.to_lane - 1
            target = bounds.lane_profile(apply_move(config, move).contents[t],
                                         config.capacities[t], groups)
            case = (
                "blocker" if profiles[move.from_lane - 1].blocking_suffix else "prefix",
                "blocked" if len(target.blocking_suffix)
                > len(profiles[t].blocking_suffix) else "clean",
            )
            if case == ("blocker", "blocked"):
                assert c_h == h
            if case == ("prefix", "blocked"):
                assert h <= c_h
            seen.add(case)

    check()
    assert seen == {("blocker", "blocked"), ("blocker", "clean"),
                    ("prefix", "blocked"), ("prefix", "clean")}


def test_h_zero_iff_sorted_and_covered():
    config = make_config([(2, (1, 1), 0), (3, (5, 4, 2), 1)], groups=5)
    assert config.blocking_total == 0
    assert bounds.lb(config) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=4), max_size=4),
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(min_value=1, max_value=4), max_size=3),
)
def test_gx_equals_the_brute_force_cover(groups, lane_specs, extra):
    """The covering program against every removal vector.  ``extra`` adds
    loads that sit in no lane, at most one per free slot, so that a cover
    still exists."""
    lanes = [(max(cap, len(c)), tuple(min(g, groups) for g in c))
             for cap, c in lane_specs]
    config = make_config([(cap, c, idx) for idx, (cap, c) in enumerate(lanes)], groups)
    extra = [min(g, groups) for g in _coverable(config, extra)]
    surplus, profiles, _h = bounds.lb_state(config)
    expected = oracles.covering_optimum(lanes, groups, extra)
    assert math.isfinite(expected)
    assert bounds.gx_bound(_with_extra_demand(surplus, extra), profiles) == expected


@settings(max_examples=150, deadline=None)
@given(_mostly_full_states())
def test_gx_never_exceeds_full_clearing(state):
    """Clearing every sorted prefix always covers (the ``bounds``
    docstring), so GX is at most the total prefix length."""
    groups, lanes = state
    surplus, profiles, _h = bounds.lb_state(make_config(lanes, groups))
    assert bounds.gx_bound(surplus, profiles) <= sum(len(p.prefix_groups) for p in profiles)


@pytest.mark.parametrize("n, gx", [(16, 6), (20, 7), (40, 14)])
def test_gx_of_many_equal_lanes(n, gx):
    """n lanes holding (1, 2) in 3 slots, G = 2: removing a 1 raises its
    lane's threshold to 2 and frees three slots there, so ceil(n / 3)
    removals.  A search that branches on every lane never finishes n = 40."""
    config = make_config([(3, (1, 2), idx) for idx in range(n)], groups=2)
    surplus, profiles, h = bounds.lb_state(config)
    assert bounds.gx_bound(surplus, profiles) == gx
    assert h == bounds.lb(config) == n + gx


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=5), max_size=4),
        ),
        min_size=2,
        max_size=6,
    ),
    st.lists(st.integers(min_value=1, max_value=5), max_size=3),
)
def test_sibling_h_equals_the_built_child(lane_specs, extra):
    """A*'s children are never built at generation: with no limit,
    ``Siblings.select`` lists every legal move with the h of the built
    child.  ``extra`` adds demand that no move touches, at most one load per
    free slot, so that GX > 0 is reached more often; without it the h is
    lb(child)."""
    lanes = [(max(cap, len(c)), tuple(c), idx) for idx, (cap, c) in enumerate(lane_specs)]
    config = make_config(lanes, groups=5)
    extra = _coverable(config, extra)
    surplus, profiles, _h = bounds.lb_state(config)
    siblings = bounds.Siblings(config, _with_extra_demand(surplus, extra), profiles, {})
    groups, above = siblings.select(math.inf, math.inf)
    moves = legal_moves(config, DMAT, [group[:2] for group in groups])
    hs = [h for _src, mask, h in groups for _ in range(mask.bit_count())]
    assert moves == legal_moves(config, DMAT)
    assert hs == [_child_h(config, move, extra) for move in moves]
    assert above == math.inf


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.integers(min_value=1, max_value=5), max_size=4),
        ),
        min_size=2,
        max_size=7,
    ),
    st.lists(st.integers(min_value=1, max_value=5), max_size=4),
)
# Lane 1 is alone in its source class and in the class of lanes with room
# that its own load would join, a pair with no move: the least h above
# 0 is 2, not that pair's 1.
@example([(2, [2]), (3, [1, 2])], [])
def test_select_lists_what_a_loop_over_every_move_keeps(lane_specs, extra):
    """At every limit, ``Siblings.select`` gives the (move, h) of the
    children with h <= limit, in ``legal_moves`` order, and the least h
    above the limit, as a loop over every move and the built child's
    ``lb_state`` does.  ``extra`` adds demand, at most one load per free
    slot, so that GX > 0 occurs."""
    lanes = [(max(cap, len(c)), tuple(c), idx) for idx, (cap, c) in enumerate(lane_specs)]
    _check_select_at_every_limit(make_config(lanes, groups=5), extra)


@st.composite
def _wide_states(draw):
    """(G, lanes, extra): 20-60 lanes of capacity 1-5 and G of 2-4, so that
    many lanes share a (threshold, free slots) class and a source class.
    A lane is empty, clean (loads non-increasing from the deepest) or drawn
    freely, which mostly gives a blocker; the others are full about half
    the time, so that room is scarce.  ``extra`` is up to 12 loads of
    demand that sits in no lane."""
    groups = draw(st.integers(min_value=2, max_value=4))
    load = st.integers(min_value=1, max_value=groups)
    lanes = []
    for idx in range(draw(st.integers(min_value=20, max_value=60))):
        capacity = draw(st.integers(min_value=1, max_value=5))
        kind = draw(st.sampled_from(("free", "clean", "free", "empty")))
        fill = draw(st.one_of(st.just(capacity), st.integers(min_value=1, max_value=capacity)))
        contents = [] if kind == "empty" else draw(
            st.lists(load, min_size=fill, max_size=fill))
        if kind == "clean":
            contents.sort(reverse=True)
        lanes.append((capacity, tuple(contents), idx))
    return groups, lanes, draw(st.lists(load, max_size=12))


def test_select_on_wide_states():
    """``test_select_lists_what_a_loop_over_every_move_keeps`` on 20-60
    lanes, where the classes of the listing hold many lanes each.  Some
    states must share a target class among three or more lanes and keep a
    child whose h needs GX."""
    seen = {"shared": False, "gx": False}

    # No shrinking: a failing state of 60 lanes takes minutes to shrink,
    # and the test above checks the same property on states it can shrink.
    @settings(max_examples=25, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(_wide_states())
    # G = 3.  Lanes 1-3 hold (3, 1, 1), (2, 1, 1) and (1, 1) in 4, 4 and 3
    # slots: one source class and one target class.  Six lanes hold
    # (1, 1, 3) in 3 slots and eleven a 3 in one; no threshold is 3, so
    # every child needs GX.  Once their front load is gone, lane 1 opens at
    # 3 with one removal and lane 2 with two, so their children differ in h.
    @example((3, [(4, (3, 1, 1), 0), (4, (2, 1, 1), 1), (3, (1, 1), 2)]
              + [(3, (1, 1, 3), idx) for idx in range(3, 9)]
              + [(1, (3,), idx) for idx in range(9, 20)], []))
    def check(state):
        groups, lanes, extra = state
        config = make_config(lanes, groups)
        every = _check_select_at_every_limit(config, extra)
        profiles = bounds.lb_state(config)[1]
        shared = {}
        for loads, capacity, prof in zip(config.contents, config.capacities, profiles):
            if len(loads) < capacity and not prof.blocking_suffix:
                key = (prof.threshold, prof.free_after_clear)
                shared[key] = shared.get(key, 0) + 1
        seen["shared"] |= max(shared.values(), default=0) >= 3
        seen["gx"] |= any(h > apply_move(config, move).blocking_total for move, h in every)

    check()
    assert seen == {"shared": True, "gx": True}


def test_select_reads_the_clock_before_pairs_that_need_gx(monkeypatch):
    """The clock is read before each source lane and again before each
    (source class, target class) pair that needs GX, so that an expansion
    whose time goes to GX stops too.  Every child of these 16 equal lanes
    needs GX (6 at the root): they make one pair, and with no limit it is
    not skipped."""
    config = make_config([(3, (1, 2), idx) for idx in range(16)], groups=2)
    surplus, profiles, _h = bounds.lb_state(config)
    clock = FakeClock()
    monkeypatch.setattr(bounds, "time", clock)
    # Before the deadline for the 16 source lanes, at it for the first pair
    # that needs GX.
    listed = bounds.Siblings(config, surplus, profiles, {}).select(100, 16)
    assert listed is None
    assert clock.reads == 17


def _child_h(config, move, extra):
    """h of the child ``move`` makes of ``config``, built and evaluated from
    scratch, with one more blocking load of each group in ``extra``."""
    child = apply_move(config, move)
    surplus, profiles, _h = bounds.lb_state(child)
    return child.blocking_total + bounds.gx_bound(_with_extra_demand(surplus, extra), profiles)


def _check_select_at_every_limit(config, extra):
    """Check ``select`` of ``config`` with ``extra`` demand against a loop
    over every move, at every limit from below the least child h to above
    the greatest; returns the loop's (move, h) list."""
    extra = _coverable(config, extra)
    surplus, profiles, _h = bounds.lb_state(config)
    siblings = bounds.Siblings(config, _with_extra_demand(surplus, extra), profiles, {})
    every = [(move, _child_h(config, move, extra)) for move in legal_moves(config, DMAT)]
    hs = [h for _m, h in every] or [0]
    for limit in range(min(hs) - 1, max(hs) + 2):
        want = [(m, h) for m, h in every if h <= limit]
        above = min((h for _m, h in every if h > limit), default=math.inf)
        groups, got_above = siblings.select(limit, math.inf)
        moves = legal_moves(config, DMAT, [group[:2] for group in groups])
        got = [h for _src, mask, h in groups for _ in range(mask.bit_count())]
        assert list(zip(moves, got)) == want
        assert got_above == above
    return every


def _coverable(config, extra):
    """The first loads of ``extra``, one per free slot of ``config``: the
    loads then fit in the capacity, so clearing every prefix covers them."""
    return extra[:sum(config.capacities) - sum(map(len, config.contents))]


def _with_extra_demand(surplus, extra):
    """``surplus`` with one more blocking load of each group in ``extra``."""
    return tuple(x + sum(1 for q in extra if q >= g) for g, x in enumerate(surplus, 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_mostly_full_states().map(lambda state: (*state, [])), _wide_states()))
def test_capped_bounds_are_exact_up_to_the_cap(state):
    """With a cap, ``gx_bound`` and ``lb`` answer min(exact, cap + 1) at
    every cap from -1 to 4: exact up to the cap, cap + 1 above it."""
    groups, lanes, extra = state
    config = make_config(lanes, groups)
    surplus, profiles, _h = bounds.lb_state(config)
    surplus = _with_extra_demand(surplus, _coverable(config, extra))
    gx, h = bounds.gx_bound(surplus, profiles), bounds.lb(config)
    for cap in range(-1, 5):
        assert bounds.gx_bound(surplus, profiles, cap) == min(gx, cap + 1)
        assert bounds.lb(config, cap) == min(h, cap + 1)
