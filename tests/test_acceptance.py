"""Acceptance suite: eleven numbered criteria, one test (and one line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Every tolerance and runtime budget is pinned in the assertions.
"""

import math
import random
import time
from types import SimpleNamespace

import pytest

import oracles
from premarshal import astar, bench, bounds, exact, fixing, verify
from premarshal.generate import GenConfig, generate
from premarshal.layout import all_pairs_distances, build_layout
from premarshal.model import (
    BaySpec,
    Solution,
    WarehouseInstance,
    apply_move,
    state_key,
)
from premarshal.pipeline import prepare


def _single_bay_instance(bay) -> WarehouseInstance:
    return WarehouseInstance(
        bays=(bay,), warehouse_rows=1, warehouse_cols=1, meta={}
    )


def _witness_instance() -> WarehouseInstance:
    """Hand-built dependency instance: the cheap slot must be filled last.

    Lane 1 (groups 1,5) and lane 3 (groups 2,9) both want to relocate their
    front load into lane 2, the only nearby empty lane.  Clearing lane 1
    first (the locally cheapest move) forces lane 3's load across the aisle
    to the far bay; the optimal order nests both loads in lane 2.
    """
    bay0 = BaySpec(
        I=3, J=3, T=1, G=9,
        occupancy={(3, 1, 1): 1, (2, 1, 1): 5, (3, 3, 1): 2, (2, 3, 1): 9},
        access_sides=frozenset("W"),
    )
    bay1 = BaySpec(I=3, J=3, T=1, G=9, occupancy={}, access_sides=frozenset("W"))
    return WarehouseInstance(
        bays=(bay0, bay1), warehouse_rows=1, warehouse_cols=2, meta={}
    )


def _solve_row(instance) -> SimpleNamespace:
    prep = prepare(instance)
    t0 = time.perf_counter()
    a = astar.solve_astar(prep.config, prep.dmat)
    t_astar = time.perf_counter() - t0
    if not isinstance(a, Solution):
        return SimpleNamespace(instance=instance, prep=prep, astar=a, exact=None)
    t0 = time.perf_counter()
    x = exact.solve_exact(prep.config, prep.dmat, a)
    t_exact = time.perf_counter() - t0
    assert isinstance(x, Solution)
    return SimpleNamespace(
        instance=instance, prep=prep, astar=a, exact=x,
        t_astar=t_astar, t_exact=t_exact,
    )


@pytest.fixture(scope="session")
def small_suite():
    """100 seeded single-bay 3x3 instances (G=5, fill 40%/60%), fully solved."""
    rows = []
    for fill in (0.4, 0.6):
        for seed in range(1, 51):
            config = GenConfig(
                bay=(3, 3), warehouse=(1, 1), fill=fill, groups=5, seed=seed,
                unrestricted=True,
            )
            row = _solve_row(generate(config))
            assert isinstance(row.astar, Solution)
            row.brute = oracles.brute_force_optimum(
                row.prep.config, row.prep.dmat, max_k=row.astar.k
            )
            rows.append(row)
    assert len(rows) == 100
    return rows


def _uniform_bay(rng, groups) -> BaySpec:
    occupancy = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if rng.random() < 0.55:
                occupancy[(i, j, 1)] = rng.randint(1, groups)
    return BaySpec(
        I=3, J=3, T=1, G=groups, occupancy=occupancy,
        access_sides=frozenset("NESW"),
    )


def _lane_drawn_bay(rng, groups) -> BaySpec:
    """West-access-only bay with loads anchored at the deep (east) end."""
    occupancy = {}
    for j in (1, 2, 3):
        for d in range(rng.choice((0, 1, 1, 2, 2, 3))):
            occupancy[(3 - d, j, 1)] = rng.randint(1, groups)
    return BaySpec(
        I=3, J=3, T=1, G=groups, occupancy=occupancy, access_sides=frozenset("W")
    )


@pytest.fixture(scope="session")
def mixed_suite():
    """100 mixed tiny instances (1-2 bays of 3x3), the witness included."""
    rows = []
    for fill in (0.4, 0.6, 0.8, 0.9):
        for groups in (5, 10):
            for seed in (1, 2, 3, 4, 5):
                rows.append(_solve_row(generate(GenConfig(
                    bay=(3, 3), warehouse=(1, 1), fill=fill, groups=groups,
                    seed=seed, unrestricted=True,
                ))))
    for fill in (0.6, 0.8):
        for groups in (5, 10):
            for seed in (1, 2, 3, 4, 5):
                rows.append(_solve_row(generate(GenConfig(
                    bay=(3, 3), warehouse=(1, 2), fill=fill, groups=groups,
                    seed=seed, unrestricted=True,
                ))))
    rng = random.Random(321)
    added = 0
    while added < 19:  # disordered full-access bays
        bay = _uniform_bay(rng, (5, 9)[added % 2])
        if not fixing.has_hole_free_assignment(bay):
            continue
        row = _solve_row(_single_bay_instance(bay))
        if isinstance(row.astar, Solution):
            rows.append(row)
            added += 1
    rng = random.Random(99)
    added = 0
    while added < 20:  # restricted-access bays, frequently non-trivial
        groups = (5, 9)[added % 2]
        bays = [_lane_drawn_bay(rng, groups)]
        if added % 2:
            bays.append(_lane_drawn_bay(rng, groups))
        instance = WarehouseInstance(
            bays=tuple(bays), warehouse_rows=1, warehouse_cols=len(bays), meta={}
        )
        row = _solve_row(instance)
        if isinstance(row.astar, Solution):
            rows.append(row)
            added += 1
    rows.append(_solve_row(_witness_instance()))
    assert len(rows) == 100
    return rows


def test_c02_slot_count_table():
    started = time.perf_counter()
    table = {
        3: (36, 81, 144, 225, 324, 441, 576, 729, 900, 1089, 1296),
        4: (64, 144, 256, 400, 576, 784, 1024),
        5: (100, 225, 400, 625, 900),
        6: (144, 324, 576, 900, 1296),
    }
    cells = 0
    for bay, expected in table.items():
        for offset, value in enumerate(expected):
            wh = 2 + offset
            config = GenConfig(
                bay=(bay, bay), warehouse=(wh, wh), fill=0.4, groups=5, seed=1
            )
            assert math.prod(config.bay + config.warehouse) == value
            cells += 1
        with pytest.raises(ValueError):  # just past the populated cells
            GenConfig(
                bay=(bay, bay), warehouse=(2 + len(expected),) * 2,
                fill=0.4, groups=5, seed=1,
            )
    elapsed = time.perf_counter() - started
    assert cells == 28 and elapsed < 1.0
    print(f"C2: PASS (28/28 cells, {elapsed:.2f}s)")


def test_c03_astar_move_count_optimality(small_suite):
    mismatches = sum(row.astar.k != row.brute[0] for row in small_suite)
    slowest = max(row.t_astar for row in small_suite)
    assert mismatches == 0
    assert slowest < 5.0
    print(f"C3: PASS (100/100 k = k*, slowest {slowest:.3f}s)")


def test_c04_exact_solver_optimality(small_suite):
    mismatches = sum(
        (row.exact.k, row.exact.total_distance) != row.brute for row in small_suite
    )
    slowest = max(row.t_exact for row in small_suite)
    assert mismatches == 0
    assert slowest < 60.0
    print(f"C4: PASS (100/100 (k*, d*), slowest {slowest:.3f}s)")


def test_c05_distance_dominance_with_witness(mixed_suite):
    strict = 0
    for row in mixed_suite:
        assert row.exact.k == row.astar.k
        assert row.exact.total_distance <= row.astar.total_distance
        if row.exact.total_distance < row.astar.total_distance:
            strict += 1
    witness = mixed_suite[-1]
    assert (witness.astar.k, witness.astar.total_distance) == (2, 7)
    assert (witness.exact.k, witness.exact.total_distance) == (2, 2)
    assert strict >= 1
    print(f"C5: PASS (100/100 d_exact <= d_astar, {strict} strict, witness 2 < 7)")


def test_c06_lower_bound_admissibility(small_suite):
    rng = random.Random(606)
    states = 0
    for row in small_suite:
        assert bounds.lb_state(row.prep.config)[2] <= row.brute[0]
        seen = set()
        for _ in range(100):
            state = row.prep.config
            for _ in range(rng.randint(0, 5)):
                moves = list(oracles.all_moves(state, row.prep.dmat))
                if not moves:
                    break
                state = apply_move(state, rng.choice(moves))
            key = state_key(state)
            if key in seen:
                continue
            seen.add(key)
            plan = astar.solve_astar(state, row.prep.dmat)
            assert isinstance(plan, Solution)
            optimal, _d = oracles.brute_force_optimum(
                state, row.prep.dmat, max_k=plan.k
            )
            assert bounds.lb_state(state)[2] <= optimal
            states += 1
    assert states >= 100 * len(small_suite) // 4  # dedup keeps plenty of coverage
    print(f"C6: PASS (root + {states} reachable states, 0 violations)")


def test_c07_incremental_lower_bound_equivalence():
    rng = random.Random(5150)
    steps_done = 0
    for fill in (0.4, 0.6):
        for seed in (1, 2, 3, 4, 5):
            instance = generate(GenConfig(
                bay=(3, 3), warehouse=(1, 1), fill=fill, groups=5, seed=seed,
                unrestricted=True,
            ))
            prep = prepare(instance)
            state = prep.config
            surplus, profiles, h = bounds.lb_state(state)
            for _ in range(1000):
                moves = list(oracles.all_moves(state, prep.dmat))
                if not moves:
                    break
                move = rng.choice(moves)
                child = apply_move(state, move)
                surplus, profiles = bounds.lb_incremental(surplus, profiles, move, child, {})
                h = child.blocking_total + bounds.gx_bound(surplus, profiles)
                assert (surplus, profiles, h) == bounds.lb_state(child)
                assert h == bounds.lb_state(child)[2]
                state = child
                steps_done += 1
    assert steps_done == 10 * 1000
    print(f"C7: PASS ({steps_done} steps, incremental == scratch exactly)")


def _empty_layout_instance(bay_side, wh_side) -> WarehouseInstance:
    bays = [
        BaySpec(I=bay_side, J=bay_side, T=1, G=5, occupancy={},
                access_sides=frozenset("NESW"))
        for _ in range(wh_side * wh_side)
    ]
    return WarehouseInstance(
        bays=bays, warehouse_rows=wh_side, warehouse_cols=wh_side, meta={}
    )


def test_c08_distance_matrix_against_floyd_warshall():
    started = time.perf_counter()
    checked = 0
    for bay_side in (1, 2, 3):
        for wh_side in (1, 2, 3):
            instance = _empty_layout_instance(bay_side, wh_side)
            layout = build_layout(instance)
            matrix = all_pairs_distances(layout)
            tiles = sorted(oracles.aisle_tiles(instance))
            index = {tile: a for a, tile in enumerate(tiles)}
            edges = [
                (index[(x, y)], index[nxt])
                for (x, y) in tiles
                for nxt in ((x + 1, y), (x, y + 1))
                if nxt in index
            ]
            oracle = oracles.floyd_warshall(len(tiles), edges)
            points = oracles.access_points(instance)
            for p in points:
                for q in points:
                    assert (
                        matrix.between(p.point_id, q.point_id)
                        == oracle[index[p.tile]][index[q.tile]]
                    )
            d = oracles.distance_rows(matrix)
            n = matrix.n
            for a in range(n):
                for b in range(n):
                    assert d[a][b] == d[b][a]
                    for c in range(n):
                        assert d[a][c] <= d[a][b] + d[b][c]
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 9 and elapsed < 30.0
    print(f"C8: PASS (9 layouts vs oracle + metric axioms, {elapsed:.1f}s)")


def _assignment_is_hole_free(bay, assignment) -> bool:
    """From-scratch structural audit of one direction grid."""
    occupied = {(i, j): g for (i, j, _t), g in bay.occupancy.items()}
    I, J = bay.I, bay.J
    grid = {}
    for j, row in enumerate(assignment.rows, start=1):
        if len(row) != I:
            return False
        for i, side in enumerate(row, start=1):
            if side not in bay.access_sides:
                return False
            grid[(i, j)] = side
    segments = []
    for j in range(1, J + 1):
        west = [i for i in range(1, I + 1) if grid[(i, j)] == "W"]
        east = [i for i in range(1, I + 1) if grid[(i, j)] == "E"]
        if west != list(range(1, len(west) + 1)):
            return False
        if east != list(range(I - len(east) + 1, I + 1)):
            return False
        segments += [("W", j, len(west)), ("E", j, len(east))]
    for i in range(1, I + 1):
        north = [j for j in range(1, J + 1) if grid[(i, j)] == "N"]
        south = [j for j in range(1, J + 1) if grid[(i, j)] == "S"]
        if north != list(range(1, len(north) + 1)):
            return False
        if south != list(range(J - len(south) + 1, J + 1)):
            return False
        segments += [("N", i, len(north)), ("S", i, len(south))]
    return all(
        oracles._lane_ok(occupied, oracles._segment_cells(side, line, count, I, J))
        for side, line, count in segments
        if count
    )


def test_c09_access_fixing_optimality():
    rng = random.Random(909)
    checked = 0
    infeasible_agreements = 0
    for side_len in (3, 4):
        done = 0
        while done < 25:
            occupancy = {}
            for i in range(1, side_len + 1):
                for j in range(1, side_len + 1):
                    if rng.random() < 0.55:
                        occupancy[(i, j, 1)] = rng.randint(1, 9)
            bay = BaySpec(
                I=side_len, J=side_len, T=1, G=9, occupancy=occupancy,
                access_sides=frozenset("NESW"),
            )
            flat = {(i, j): g for (i, j, _t), g in bay.occupancy.items()}
            best = oracles.best_fixing_score(side_len, side_len, flat)
            if best is None:
                assert not fixing.has_hole_free_assignment(bay)
                infeasible_agreements += 1
                continue
            candidates = list(fixing.optimal_assignments(bay, limit=5))
            assert candidates
            for assignment in candidates:
                assert assignment.misplaced == best
                assert _assignment_is_hole_free(bay, assignment)
            done += 1
            checked += 1
    assert checked == 50
    print(f"C9: PASS (50/50 bays optimal, {infeasible_agreements} infeasible agreed)")


def test_c10_end_to_end_replay(small_suite, mixed_suite):
    replays = 0
    sorted_inputs = 0
    for row in [*small_suite, *mixed_suite]:
        for solution in (row.astar, row.exact):
            report = verify.replay(row.instance, row.prep.assignments, solution)
            assert report.ok, report.violations
            replays += 1
        if row.prep.config.blocking_total == 0:
            sorted_inputs += 1
            assert row.astar.k == 0 and row.exact.k == 0
    assert replays == 400
    print(f"C10: PASS ({replays} replays clean, {sorted_inputs} sorted inputs k=0)")


def test_c11_group_count_trend():
    k_low, k_high = [], []
    for seed in range(1, 31):
        for groups, acc in ((5, k_low), (10, k_high)):
            instance = generate(GenConfig(
                bay=(4, 4), warehouse=(2, 2), fill=0.8, groups=groups, seed=seed
            ))
            prep = prepare(instance)
            plan = astar.solve_astar(prep.config, prep.dmat)
            assert isinstance(plan, Solution)
            acc.append(plan.k)
    mean_low = sum(k_low) / len(k_low)
    mean_high = sum(k_high) / len(k_high)
    assert mean_high >= mean_low
    wins = sum(h > l for h, l in zip(k_high, k_low))
    losses = sum(h < l for h, l in zip(k_high, k_low))
    n = wins + losses
    # one-sided sign test: the trend fails only if reversals dominate beyond
    # what a fair coin explains at the 95% level
    p_reversal = (
        sum(math.comb(n, i) for i in range(losses, n + 1)) / 2 ** n if n else 1.0
    )
    assert p_reversal > 0.05
    print(
        f"C11: PASS (mean k {mean_high:.2f} >= {mean_low:.2f}, "
        f"{wins}W/{losses}L over 30 matched seeds, p={p_reversal:.3f})"
    )


def test_c12_suite_determinism():
    suite = {
        "configs": [
            {"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5},
            {"bay": "3x3", "warehouse": "2x2", "fill": 0.6, "classes": 5},
            {"bay": "4x4", "warehouse": "2x2", "fill": 0.8, "classes": 10},
        ],
        "seeds": [2, 3],
        "algos": ["astar", "exact"],
    }

    def non_timing_csv(rows):
        import io

        for row in rows:
            row["preprocessing_s"] = ""
            row["solve_s"] = ""
        out = io.StringIO()
        bench.write_results_csv(rows, out)
        return out.getvalue().encode()

    first = non_timing_csv(bench.run_suite(bench.suite_runs(suite)))
    second = non_timing_csv(bench.run_suite(bench.suite_runs(suite)))
    assert first == second
    assert first.count(b"\r\n") == 13  # header + 12 runs
    print("C12: PASS (non-timing CSV columns identical byte-for-byte)")
