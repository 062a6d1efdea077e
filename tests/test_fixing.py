import gc
import hashlib
import itertools
import json
import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from premarshal import bounds, fixing, generate
from premarshal.layout import all_pairs_distances, build_layout
from premarshal.model import BaySpec, WarehouseInstance, blocking_of

ALL_SIDES = frozenset("NESW")


def _bay(I, J, occ, sides=ALL_SIDES, G=9):
    occupancy = {(i, j, 1): g for (i, j), g in occ.items()}
    return BaySpec(I=I, J=J, T=1, G=G, occupancy=occupancy, access_sides=sides)


def test_empty_bay_single_canonical_optimum():
    bay = _bay(3, 3, {})
    cands = list(fixing.optimal_assignments(bay, limit=10))
    assert len(cands) == 1
    assert cands[0].misplaced == 0


def test_single_row_split_points():
    """1xK bay with east+west access: exactly K+1 splits, scored per split."""
    bay = _bay(3, 1, {(1, 1): 3, (2, 1): 1, (3, 1): 2}, sides=frozenset("EW"))
    cands = list(fixing.optimal_assignments(bay, limit=10))
    # every split of [3,1,2] scores 1, so all four splits are optimal
    assert len(cands) == 4
    assert {c.rows[0] for c in cands} == {"EEE", "WEE", "WWE", "WWW"}
    assert all(c.misplaced == 1 for c in cands)


def test_misplaced_count_frozen_examples():
    bay = _bay(3, 1, {(1, 1): 3, (2, 1): 1, (3, 1): 2}, sides=frozenset("EW"))
    all_west = fixing.AccessAssignment(rows=("WWW",), misplaced=0)
    # contents deep->front = [2,1,3]: only the 3 blocks
    assert fixing.misplaced_count(bay, all_west) == 1
    split = fixing.AccessAssignment(rows=("WEE",), misplaced=0)
    assert fixing.misplaced_count(bay, split) == 1
    assert fixing.misplaced_count(_bay(2, 2, {}), fixing.AccessAssignment(("SS", "SS"), 0)) == 0


def test_sorted_per_row_bay_scores_zero():
    occ = {}
    for j in (1, 2, 3):
        occ[(1, j)] = 1
        occ[(2, j)] = 5
        occ[(3, j)] = 2
    cands = list(fixing.optimal_assignments(_bay(3, 3, occ), limit=10))
    assert cands[0].misplaced == 0


def test_enumeration_is_deterministic_and_capped():
    occ = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)}
    first = list(fixing.optimal_assignments(_bay(3, 3, occ), limit=4))
    second = list(fixing.optimal_assignments(_bay(3, 3, occ), limit=4))
    assert [c.rows for c in first] == [c.rows for c in second]
    assert len(first) == 4
    assert all(c.misplaced == 0 for c in first)


def test_infeasible_ring_occupancy():
    ring = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) != (2, 2)}
    bay = _bay(3, 3, ring)
    assert not fixing.has_hole_free_assignment(bay)
    with pytest.raises(fixing.InfeasibleAssignment):
        fixing.optimal_assignments(bay, limit=1)


def test_optimal_assignments_raises_when_called():
    """The DP runs in the call, not on the first ``next()`` of its iterator."""
    ring = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) != (2, 2)}
    with pytest.raises(fixing.InfeasibleAssignment):
        fixing.optimal_assignments(_bay(3, 3, ring), limit=10)
    with pytest.raises(ValueError, match="limit"):
        fixing.optimal_assignments(_bay(3, 3, {}), limit=0)


def test_multi_tier_rejected():
    bay = BaySpec(I=2, J=2, T=2, G=3, occupancy={(1, 1, 1): 2}, access_sides=ALL_SIDES)
    with pytest.raises(ValueError):
        fixing.optimal_assignments(bay, limit=1)


def test_induced_lanes_validate_anchoring():
    bay = _bay(2, 1, {(1, 1): 1, (2, 1): 2}, sides=frozenset("EW"))
    with pytest.raises(ValueError):
        # west cell east of an east cell: neither run is boundary-anchored
        fixing.induced_lanes(bay, fixing.AccessAssignment(rows=("EW",), misplaced=0))
    with pytest.raises(ValueError, match="direction other than"):
        # no lane takes an X cell, so its load would be dropped
        fixing.induced_lanes(bay, fixing.AccessAssignment(rows=("WX",), misplaced=0))


def _random_occ(rng, I, J, n):
    cells = rng.sample([(i, j) for i in range(1, I + 1) for j in range(1, J + 1)], n)
    return {c: rng.randint(1, 9) for c in cells}


# (I, J, draws): non-square shapes and six columns catch swapped row and
# column indices or an off-by-one in a column-mask shift, which a square bay
# can hide.
ORACLE_SHAPES = [
    (3, 3, 12), (6, 1, 6), (6, 2, 6), (5, 2, 6), (4, 3, 6), (2, 4, 6), (1, 6, 6),
]


@pytest.mark.parametrize("sides", [ALL_SIDES, frozenset("NW"), frozenset("E")])
def test_score_matches_exhaustive_oracle(sides):
    rng = random.Random("".join(sorted(sides)))
    for I, J, draws in ORACLE_SHAPES:
        for _ in range(draws):
            occ = _random_occ(rng, I, J, rng.randint(0, I * J))
            oracle_best = oracles.best_fixing_score(I, J, occ, sides)
            bay = _bay(I, J, occ, sides)
            assert fixing.has_hole_free_assignment(bay) == (oracle_best is not None)
            if oracle_best is None:
                continue
            cands = list(fixing.optimal_assignments(bay, limit=10))
            assert cands[0].misplaced == oracle_best
            assert len({cand.rows for cand in cands}) == len(cands)
            for cand in cands:
                assert fixing.misplaced_count(bay, cand) == oracle_best


def _dp_is_finite(bay):
    return not math.isinf(fixing._BayTables(bay).cost_to_go(0, (0, 0)))


def _every_cell_reached(bay):
    """Each cell has a side whose lane from the front to that cell holds no hole."""
    grid = fixing._grid(bay)
    columns = list(zip(*grid))
    I, J = bay.I, bay.J
    for i in range(I):
        for j in range(J):
            row, col = grid[j], columns[i]
            lanes = {  # deepest first
                "W": ((1, j + 1), row[i::-1]),
                "E": ((I, j + 1), row[i:]),
                "N": ((i + 1, 1), col[j::-1]),
                "S": ((i + 1, J), col[j:]),
            }
            if not any(side in bay.access_sides and fixing._lane(side, front, line)
                       for side, (front, line) in lanes.items()):
                return False
    return True


# 4x4, all four sides.  Each cell is reached from some side, but (2, 2) only
# from the east and (3, 3) only from the north, and those two lanes cross at
# (3, 2): no assignment exists.
CROSSED_LANES = _bay(4, 4, {(2, 1): 1, (1, 2): 1, (2, 3): 1, (4, 3): 1, (3, 4): 1})
# 4x6, sides E, N and W, assignable.  The search meets one column state at
# two rows, dead at one and alive at the other, so a memo of dead states
# that forgets the row answers no.
STATE_AT_TWO_ROWS = _bay(4, 6, dict.fromkeys(
    [(1, 1), (1, 5), (2, 1), (2, 3), (2, 5), (3, 4), (3, 6), (4, 1), (4, 3)], 1), frozenset("ENW"))


def test_probe_agrees_with_the_cost_dp():
    assert _every_cell_reached(CROSSED_LANES)
    assert not _dp_is_finite(CROSSED_LANES)
    assert not fixing.has_hole_free_assignment(CROSSED_LANES)
    assert _dp_is_finite(STATE_AT_TWO_ROWS)
    assert fixing.has_hole_free_assignment(STATE_AT_TWO_ROWS)
    rng = random.Random("probe against cost DP")
    feasible = 0
    for _ in range(2000):
        I, J = rng.randint(1, 7), rng.randint(1, 7)
        sides = frozenset(rng.sample("NESW", rng.randint(1, 4)))
        bay = _bay(I, J, _random_occ(rng, I, J, rng.randint(0, I * J)), sides)
        answer = fixing.has_hole_free_assignment(bay)
        assert answer == _dp_is_finite(bay), bay
        feasible += answer
    assert 500 < feasible < 1500  # both answers are well exercised


REACHES = {"hole-free": fixing._reach, "zero": fixing._zero_reach}


def _random_reaches(rng, reach):
    """(I, J, reaches) of a random bay up to 7x7 with random sides."""
    I, J = rng.randint(1, 7), rng.randint(1, 7)
    sides = frozenset(rng.sample("NESW", rng.randint(1, 4)))
    grid = fixing._grid(_bay(I, J, _random_occ(rng, I, J, rng.randint(0, I * J)), sides))
    return I, J, fixing._reaches(grid, list(zip(*grid)), sides, reach)


@pytest.mark.parametrize("reach", sorted(REACHES))
def test_the_first_path_is_all_vertical_exactly_when_every_column_splits(reach):
    rng = random.Random(f"all-vertical {reach}")
    vertical = 0
    for _ in range(2000):
        I, J, reaches = _random_reaches(rng, REACHES[reach])
        _, _, nmax, smax = reaches
        splits = all(n + s >= J for n, s in zip(nmax, smax))
        assert (fixing._first_path(I, J, *reaches) == [(0, 0)] * J) == splits, (I, J, reaches)
        vertical += splits
    assert 400 < vertical < 1600  # both answers are well exercised


@pytest.mark.parametrize("reach", sorted(REACHES))
def test_the_first_path_equals_the_table_search(reach):
    """Choices made in place find the path that per-row tables of every
    distinct mask found, or none where they found none."""
    rng = random.Random(f"table search {reach}")
    outcomes = {"none": 0, "all vertical": 0, "searched": 0}
    for _ in range(2000):
        I, J, reaches = _random_reaches(rng, REACHES[reach])
        path = fixing._first_path(I, J, *reaches)
        assert path == oracles.table_first_path(I, J, *reaches), (I, J, reaches)
        outcomes["none" if path is None else
                 "all vertical" if path == [(0, 0)] * J else "searched"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_the_path_search_drops_a_state_whose_unsplittable_column_is_stuck():
    """Column 2 has no full-column split, and from row 3 on its north lane
    would hold a hole, so it can get no horizontal cell there or below.  A
    state that leaves it in its north band at row 3 is dropped at once, not
    carried down to the last row; the bay still has a path, which gives
    column 2 its horizontal cell in row 2."""
    grid = ["0131", "0032", "3211", "2222"]  # rows top to bottom, 0 empty
    bay = _bay(4, 4, {(i, j): int(g) for j, row in enumerate(grid, 1)
                      for i, g in enumerate(row, 1) if g != "0"}, G=3)
    with mock.patch.object(fixing, "_completion", wraps=fixing._completion) as completion:
        assert fixing.has_hole_free_assignment(bay)
    assert completion.call_count == 11


def test_pruned_dp_lists_what_the_unpruned_one_lists():
    """Skipping row choices that cannot beat the best changes no list and no error."""
    rng = random.Random("pruned against unpruned DP")
    feasible = 0
    for n in range(2000):
        I, J = rng.randint(1, 7), rng.randint(1, 7)
        sides = frozenset(rng.sample("NESW", rng.randint(1, 4)))
        limit = rng.choice((1, 10, 50))
        bay = _bay(I, J, _random_occ(rng, I, J, rng.randint(0, I * J)), sides)
        if n % 2:  # a generated bay instead, which is assignable
            try:
                bay = generate._generate_bay(
                    rng.getrandbits(32), I, J, sides, rng.randint(2, 10),
                    rng.randint(0, I * J))
            except generate.GenerationFailed:
                pass
        try:
            expected = oracles.unpruned_assignments(bay, limit)
        except fixing.InfeasibleAssignment as exc:
            with pytest.raises(fixing.InfeasibleAssignment) as got:
                fixing.optimal_assignments(bay, limit)
            assert str(got.value) == str(exc)
            continue
        assert list(fixing.optimal_assignments(bay, limit)) == expected, bay
        feasible += 1
    assert 500 < feasible < 1500  # both outcomes are well exercised


def test_capped_dp_agrees_with_the_unpruned_one():
    """Below its cap the DP's answer is the exact minimum, and at or above
    it the answer is >= the cap; a memo entry marked exact is the exact
    minimum of its state and one that is not is a lower bound.  Each bay's
    tables answer several caps in turn, so memo entries from one cap serve
    the next."""
    rng = random.Random("capped against unpruned DP")
    outcomes = {"below": 0, "at or above": 0}
    for n in range(1500):
        I, J = rng.randint(1, 7), rng.randint(1, 7)
        sides = frozenset(rng.sample("NESW", rng.randint(1, 4)))
        bay = _bay(I, J, _random_occ(rng, I, J, rng.randint(0, I * J)), sides)
        if n % 4:  # mostly generated bays, which are assignable
            try:
                bay = generate._generate_bay(
                    rng.getrandbits(32), I, J, sides, rng.randint(2, 10),
                    rng.randint(0, I * J))
            except generate.GenerationFailed:
                pass
        tables = fixing._BayTables(bay)
        exact = oracles.unpruned_cost_to_go(tables)
        opt = exact(0, (0, 0))
        for _ in range(3):
            cap = rng.choice((math.inf, rng.randint(0, 6)))
            got = tables.cost_to_go(0, (0, 0), cap)
            if opt < cap:
                assert got == opt, (bay, cap)
                outcomes["below"] += 1
            else:
                assert got >= cap, (bay, cap)
                outcomes["at or above"] += 1
            for j, memo in enumerate(tables._memo):
                for state, (value, is_exact) in memo.items():
                    if is_exact:
                        assert value == exact(j, state), (bay, j, state)
                    else:
                        assert value <= exact(j, state), (bay, j, state)
    assert min(outcomes.values()) > 500, outcomes


def _floor(tables, j, state):
    return tables.floor_sums[j][tables.full & ~(state[0] | state[1])]


def test_the_floor_never_exceeds_the_unpruned_minimum():
    """A state's floor is at most its exact minimum at every state an
    uncapped solve memoises and every state the walk asks; a call whose
    floor is at least its cap, with no memo entry that answers it, returns
    the floor, memoises (floor, False) and asks no child."""
    rng = random.Random("floor against unpruned DP")
    cost_to_go = fixing._BayTables.cost_to_go
    calls = answered = checked = 0

    def spy(tables, j, state, cap=math.inf):
        nonlocal calls, answered
        calls += 1
        asked.add((j, state))
        if j == tables.J:
            return cost_to_go(tables, j, state, cap)
        hit = tables._memo[j].get(state)
        floor = _floor(tables, j, state)
        by_floor = floor >= cap and not (hit is not None and (hit[1] or hit[0] >= cap))
        before = calls
        got = cost_to_go(tables, j, state, cap)
        if by_floor:
            assert got == floor and calls == before, (j, state, cap)
            assert tables._memo[j][state] == (floor, False), (j, state, cap)
            answered += 1
        return got

    for n in range(1500):
        I, J = rng.randint(1, 7), rng.randint(1, 7)
        sides = frozenset(rng.sample("NESW", rng.randint(1, 4)))
        bay = _bay(I, J, _random_occ(rng, I, J, rng.randint(0, I * J)), sides)
        if n % 4:  # mostly generated bays, which are assignable
            try:
                bay = generate._generate_bay(
                    rng.getrandbits(32), I, J, sides, rng.randint(2, 10),
                    rng.randint(0, I * J))
            except generate.GenerationFailed:
                pass
        tables = fixing._BayTables(bay)
        exact = oracles.unpruned_cost_to_go(tables)
        asked = set()
        with mock.patch.object(fixing._BayTables, "cost_to_go", spy):
            opt = tables.cost_to_go(0, (0, 0))
            memoised = {(j, state) for j, memo in enumerate(tables._memo) for state in memo}
            if not math.isinf(opt):
                for _ in itertools.islice(fixing._walk(tables, int(opt), 0, (0, 0), 0, []), 10):
                    pass
        for j, state in memoised | asked:
            assert _floor(tables, j, state) <= exact(j, state), (bay, j, state)
            checked += 1
    assert answered > 2000 and checked > 10000, (answered, checked)


def test_the_floor_halves_the_dp_calls_of_the_astar_wide_bays():
    """One selection per bay of the four ``astar-wide`` instances of
    ``perfbench`` makes 4,037 ``cost_to_go`` calls.  Without the floor it
    made 8,499.  A floor of 0 above the last row would keep every list and
    every choice, so only this count shows the floor at work there."""
    specs = [(3, 7, 0.9, 10, 1), (5, 3, 0.8, 10, 1), (5, 3, 0.9, 10, 1), (6, 2, 0.8, 10, 1)]
    with mock.patch.object(fixing._BayTables, "cost_to_go", autospec=True,
                           side_effect=fixing._BayTables.cost_to_go) as cost_to_go:
        for bay_side, wh_side, fill, groups, seed in specs:
            instance = generate.generate(generate.GenConfig(
                (bay_side, bay_side), (wh_side, wh_side), fill, groups, seed))
            for bay in instance.bays:
                fixing.select_assignment(fixing.optimal_assignments(bay, 10), bay)
    assert cost_to_go.call_count == 4037


def test_lane_costs_recount_blocking_loads():
    rng = random.Random("lane costs")
    for _ in range(2000):
        length = rng.randint(0, 8)
        # front to deep, 0 for an empty cell
        line = [rng.randint(1, 4) if rng.random() < 0.8 else 0 for _ in range(length)]
        open_side = rng.random() < 0.9
        expected = []
        for a in range(length + 1):
            loaded = [g > 0 for g in line[:a]]
            hole = any(loaded[p] and not loaded[q] for p in range(a) for q in range(p + 1, a))
            contents = [g for g in reversed(line[:a]) if g]
            usable = (open_side or a == 0) and not hole
            expected.append(blocking_of(contents) if usable else None)
        assert fixing._lane_costs(line, open_side) == expected, (line, open_side)


@pytest.mark.parametrize("I, J", [(1, 1), (3, 3), (6, 6), (7, 2), (2, 7)])
def test_an_empty_bay_memoises_one_state_per_row(I, J):
    """Every choice after the first scores no less than its 0, so none is costed.

    ``optimal_assignments`` finds the empty bay's one assignment by the zero
    search and builds no cost table at all.
    """
    tables = fixing._BayTables(_bay(I, J, {}))
    assert tables.cost_to_go(0, (0, 0)) == 0
    assert sum(len(memo) for memo in tables._memo) == J
    with mock.patch.object(fixing, "_BayTables", side_effect=AssertionError("cost tables built")):
        assert len(list(fixing.optimal_assignments(_bay(I, J, {}), limit=10))) == 1


def test_probe_builds_no_cost_tables():
    ring = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) != (2, 2)}
    with mock.patch.object(fixing, "_BayTables", side_effect=AssertionError("cost tables built")):
        assert fixing.has_hole_free_assignment(_bay(3, 3, {(1, 1): 2, (3, 2): 1}))
        assert not fixing.has_hole_free_assignment(_bay(3, 3, ring))
        assert not fixing.has_hole_free_assignment(CROSSED_LANES)


def test_oracle_formulation_against_direction_grid():
    """The structural enumeration oracle itself agrees with raw 4^9 search."""
    rng = random.Random(31)
    for _ in range(3):
        occ = _random_occ(rng, 3, 3, rng.randint(3, 8))
        assert oracles.best_fixing_score(3, 3, occ) == \
            oracles.brute_fixings_by_direction_grid(3, 3, occ)


def _h(bay, assignment):
    """The bound selection reads for one candidate."""
    return bounds.lb_state(fixing._bay_config(bay, fixing.induced_lanes(bay, assignment)))[2]


def test_select_assignment_minimizes_h():
    rng = random.Random(7)
    for _ in range(10):
        occ = _random_occ(rng, 3, 3, rng.randint(2, 8))
        bay = _bay(3, 3, occ)
        try:
            cands = list(fixing.optimal_assignments(bay, limit=10))
        except fixing.InfeasibleAssignment:
            continue
        chosen = fixing.select_assignment(cands, bay)
        scores = [_h(bay, c) for c in cands]
        assert _h(bay, chosen) == min(scores)
        assert chosen is cands[scores.index(min(scores))]
        assert list(chosen.lanes) == fixing.induced_lanes(bay, chosen)


@st.composite
def _bays_and_candidates(draw):
    """A random bay from the generator and its optimal candidates, in a drawn order."""
    I, J = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sides = frozenset(draw(st.sets(st.sampled_from("NESW"), min_size=1)))
    try:
        bay = generate._generate_bay(
            draw(st.integers(0, 2**32)), I, J, sides,
            draw(st.integers(2, 6)), I * J - draw(st.integers(0, I * J)),
        )
    except generate.GenerationFailed:
        assume(False)
    cands = draw(st.permutations(list(fixing.optimal_assignments(bay, limit=10))))
    return bay, cands


@settings(max_examples=200, deadline=None)
@given(_bays_and_candidates())
def test_select_stops_at_the_first_candidate_on_the_floor(drawn):
    bay, cands = drawn
    hs = [_h(bay, c) for c in cands]
    floor = cands[0].misplaced
    assert all(c.misplaced == floor for c in cands)
    assert all(h >= floor for h in hs)
    first = next((n for n, h in enumerate(hs) if h == floor), None)

    with mock.patch.object(bounds, "lb_state", wraps=bounds.lb_state) as lb_state, \
            mock.patch.object(fixing, "_bay_config", wraps=fixing._bay_config) as configs:
        chosen = fixing.select_assignment(cands, bay)
    assert chosen is oracles.full_scan_select(cands, bay)
    # At a floor of 0 the first candidate is on it, with no bound evaluated.
    read = 0 if floor == 0 else len(cands) if first is None else first + 1
    assert lb_state.call_count == configs.call_count == read


def test_select_reads_bounds_up_to_the_first_candidate_on_the_floor():
    """The first candidate has GX > 0; the second reaches h = misplaced = 1."""
    bay = _bay(3, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 1, (3, 1): 4}, frozenset("EW"), G=4)
    cands = list(fixing.optimal_assignments(bay, limit=10))
    assert [_h(bay, c) for c in cands] == [2, 1] * 4
    with mock.patch.object(bounds, "lb_state", wraps=bounds.lb_state) as lb_state:
        chosen = fixing.select_assignment(cands, bay)
    assert chosen is cands[1] is oracles.full_scan_select(cands, bay)
    assert lb_state.call_count == 2


def test_select_builds_only_the_candidates_it_reads():
    """Selection stops the lazy enumeration at the first candidate on the floor."""
    uniform = _bay(3, 3, {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)})
    steps = _bay(3, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 1, (3, 1): 4}, frozenset("EW"), G=4)
    for bay, built in ((uniform, 1), (steps, 2)):
        assert len(list(fixing.optimal_assignments(bay, limit=10))) > built
        with mock.patch.object(fixing, "_assignment", wraps=fixing._assignment) as assignment:
            fixing.select_assignment(fixing.optimal_assignments(bay, limit=10), bay)
        assert assignment.call_count == built


@st.composite
def _assignable_bays(draw):
    """A generated bay of 1..6 by 1..6 cells; empty and full ones are drawn often."""
    I, J = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sides = frozenset(draw(st.sets(st.sampled_from("NESW"), min_size=1)))
    loads = draw(st.one_of(st.just(0), st.just(I * J), st.integers(0, I * J)))
    try:
        return generate._generate_bay(draw(st.integers(0, 2**32)), I, J, sides,
                                      draw(st.integers(2, 6)), loads)
    except generate.GenerationFailed:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_assignable_bays())
def test_every_candidate_carries_its_induced_lanes(bay):
    """The walk's lanes are the ones replay derives from the direction rows."""
    for cand in fixing.optimal_assignments(bay, 10):
        carried = {(lane.side, lane.front): lane for lane in cand.lanes}
        assert len(carried) == len(cand.lanes)
        derived = fixing.induced_lanes(bay, cand)
        assert carried == {(lane.side, lane.front): lane for lane in derived}


def test_an_abandoned_enumeration_frees_its_tables():
    """The walk forms no reference cycle: its tables die without the collector A* pauses.

    The bay's optimum is 1, so the DP builds its tables, and selection
    abandons the walk at its second candidate.  A bay of optimum 0 builds
    them only for a second candidate, abandoned here after it.
    """
    made = []

    class Tables(fixing._BayTables):
        def __init__(self, bay):
            super().__init__(bay)
            made.append(weakref.ref(self))

    steps = _bay(3, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 1, (3, 1): 4}, frozenset("EW"), G=4)
    uniform = _bay(3, 3, {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)})
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with mock.patch.object(fixing, "_BayTables", Tables):
            fixing.select_assignment(fixing.optimal_assignments(steps, limit=10), steps)
            assert len(made) == 1 and made[0]() is None
            candidates = fixing.optimal_assignments(uniform, limit=10)
            next(candidates), next(candidates)
            assert len(made) == 2 and made[1]() is not None
            del candidates
            assert made[1]() is None
    finally:
        if was_enabled:
            gc.enable()


@settings(max_examples=300, deadline=None)
@given(_assignable_bays())
def test_the_zero_search_finds_the_first_assignment_of_optimum_0(bay):
    """A path within the zero reaches exists exactly when the least misplaced
    count is 0, and its assignment is the unpruned walk's first one."""
    first = oracles.unpruned_assignments(bay, 1)[0]
    found = fixing._zero_path_assignment(fixing._grid(bay), bay.access_sides)
    assert (found is not None) == (first.misplaced == 0)
    if found is not None:
        assert found == first
        assert list(found.lanes) == fixing.induced_lanes(bay, first)


@settings(max_examples=200, deadline=None)
@given(_assignable_bays(), st.sampled_from([1, 2, 10]))
def test_candidate_lists_equal_the_unpruned_walks(bay, limit):
    """The zero search's first candidate and the walk's later ones are the
    unpruned walk's list, lanes included."""
    expected = oracles.unpruned_assignments(bay, limit)
    got = list(fixing.optimal_assignments(bay, limit))
    assert got == expected
    assert [list(c.lanes) for c in got] == [fixing.induced_lanes(bay, c) for c in expected]


def _candidate(bay, rows, misplaced):
    """An assignment of ``rows`` claiming ``misplaced``, carrying its lanes."""
    lanes = fixing.induced_lanes(bay, fixing.AccessAssignment(rows, misplaced))
    return fixing.AccessAssignment(rows, misplaced, tuple(lanes))


def test_select_rejects_candidates_off_one_floor():
    """The early stop is sound only when every candidate has one ``misplaced``."""
    bay = _bay(3, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 3, (2, 2): 1, (3, 1): 4, (3, 2): 4},
               frozenset("EW"), G=4)
    # Both read: the first one's h of 4 or 5 is above either misplaced count.
    pair = [_candidate(bay, ("WEE", "EEE"), 1), _candidate(bay, ("EEE", "EEE"), 2)]
    assert [_h(bay, c) for c in pair] == [4, 5]
    for cands in (pair, pair[::-1]):
        with pytest.raises(ValueError, match="misplaced"):
            fixing.select_assignment(cands, bay)
    with pytest.raises(ValueError, match="no candidate"):
        fixing.select_assignment(iter(()), bay)


def test_select_reads_nothing_past_a_first_candidate_of_floor_0():
    bay = _bay(3, 1, {(1, 1): 1, (2, 1): 2}, frozenset("EW"), G=4)
    first = next(fixing.optimal_assignments(bay, 10))
    assert first.misplaced == 0

    def candidates():
        yield first
        raise AssertionError("a candidate after one of floor 0 was read")

    with mock.patch.object(bounds, "lb_state", side_effect=AssertionError("bound evaluated")):
        assert fixing.select_assignment(candidates(), bay) is first


# sha256 of the JSON of [c.rows for c in optimal_assignments(bay, 10)] per
# bay, over every bay of a generated instance: order, count and content of
# the candidate lists, recorded before enumeration became lazy.
CANDIDATE_DIGESTS = {
    ((3, 3), (12, 12), 0.6, 10, 1):
        "98b2da0875393c98c923a809e488a1965a91e3a2163028a2677aec3d5e0b8fbb",
    ((4, 4), (8, 8), 0.4, 5, 2):
        "88e3b5b94a57dad50037a09e9552f4c887738b5524732fca14e64521c70dad25",
    ((5, 5), (3, 3), 0.9, 10, 1):
        "f44ade2f4f4af5e2f1c21e0ad34f09b320777b104f6f286fd20d248f98f167bb",
}


@pytest.mark.parametrize("spec", list(CANDIDATE_DIGESTS))
def test_candidate_lists_pinned(spec):
    bay_shape, warehouse, fill, groups, seed = spec
    instance = generate.generate(generate.GenConfig(
        bay=bay_shape, warehouse=warehouse, fill=fill, groups=groups, seed=seed,
    ))
    lists = [[c.rows for c in fixing.optimal_assignments(bay, 10)] for bay in instance.bays]
    digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
    assert digest == CANDIDATE_DIGESTS[spec]


def test_to_virtual_lanes_and_round_trip():
    occ = {(1, 1): 4, (2, 1): 2, (3, 3): 7}
    bay = _bay(3, 3, occ)
    inst = WarehouseInstance(bays=(bay,), warehouse_rows=1, warehouse_cols=1, meta={})
    layout = build_layout(inst)
    assignments = [fixing.select_assignment(fixing.optimal_assignments(bay, 10), bay)]
    config = fixing.to_virtual_lanes(inst, assignments, layout)
    assert sum(config.capacities) == 9
    aps = list(config.points)
    assert aps == sorted(aps)
    rebuilt = oracles.reconstruct_occupancy(config, layout, assignments)
    assert rebuilt == {(0, i, j): g for (i, j), g in occ.items()}


def test_numbered_lanes_hold_each_generated_bays_loads():
    inst = generate.generate(generate.GenConfig(
        bay=(4, 4), warehouse=(2, 2), fill=0.9, groups=10, seed=8,
    ))
    layout = build_layout(inst)
    assignments = [fixing.select_assignment(fixing.optimal_assignments(bay, 10), bay)
                   for bay in inst.bays]
    config = fixing.to_virtual_lanes(inst, assignments, layout)
    want = {(b, i, j): g for b, bay in enumerate(inst.bays)
            for (i, j, _t), g in bay.occupancy.items()}
    assert oracles.reconstruct_occupancy(config, layout, assignments) == want


def test_all_west_lanes():
    occ = {(3, j): j for j in (1, 2, 3)}
    bay = _bay(3, 3, occ, sides=frozenset("W"))
    inst = WarehouseInstance(bays=(bay,), warehouse_rows=1, warehouse_cols=1, meta={})
    layout = build_layout(inst)
    cands = list(fixing.optimal_assignments(bay, 10))
    assert len(cands) == 1 and cands[0].rows == ("WWW", "WWW", "WWW")
    config = fixing.to_virtual_lanes(inst, cands, layout)
    assert config.capacities == (3, 3, 3)
    assert config.contents == ((1,), (2,), (3,))
