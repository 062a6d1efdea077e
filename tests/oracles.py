"""Independent reference implementations used to freeze expected test values.

Everything above the "reference searches" section is deliberately naive:
straight simulations and exhaustive enumerations with no shared code or data
structures from the package under test (only plain tuples/dicts in, numbers
out).  The reference searches below list their moves with ``all_moves``,
written here from the move rule, and run on the package's ``apply_move``
and bounds; they check a search's order and bookkeeping, not those
primitives.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush

from premarshal import bounds, fixing
from premarshal.layout import AccessPoint
from premarshal.model import Move, apply_move, state_key


def blocking_by_rules(contents):
    """Count blocking loads in a lane by the forward propagation rules.

    ``contents`` is deep-to-front, position 1 first.  A load is blocking when
    it sits in front of a lower-group load, or in front of a load that is
    itself blocking; position 1 is never blocking; empties are never blocking.
    """
    flags = []
    for t, g in enumerate(contents):
        if g is None:
            flags.append(False)
        elif t == 0:
            flags.append(False)
        else:
            behind = contents[t - 1]
            flags.append(flags[t - 1] or (behind is not None and g > behind))
    return sum(flags)


def floyd_warshall(n, edges):
    """All-pairs shortest paths over unit-weight undirected edges."""
    inf = math.inf
    d = [[0 if a == b else inf for b in range(n)] for a in range(n)]
    for a, b in edges:
        d[a][b] = d[b][a] = 1
    for m in range(n):
        dm = d[m]
        for a in range(n):
            dam = d[a][m]
            if dam == inf:
                continue
            da = d[a]
            for b in range(n):
                alt = dam + dm[b]
                if alt < da[b]:
                    da[b] = alt
    return d


def distance_rows(matrix):
    """Every row of a ``layout.DistanceMatrix`` in point order, asked pair
    by pair of ``between``."""
    return tuple(tuple(matrix.between(p, q) for q in range(matrix.n))
                 for p in range(matrix.n))


def aisle_tiles(instance):
    """Footprint tiles no bay stack covers; bay b sits at grid cell divmod(b, cols).

    Each bay is ringed by one-tile aisles shared with its neighbours, so the
    stack (i, j) of the bay at cell (r, c) is the tile (c*(I+1) + i, r*(J+1) + j).
    """
    I, J = instance.bays[0].I, instance.bays[0].J
    cols = instance.warehouse_cols
    width, length = cols * (I + 1) + 1, instance.warehouse_rows * (J + 1) + 1
    covered = set()
    for b in range(len(instance.bays)):
        r, c = divmod(b, cols)
        covered.update(
            (c * (I + 1) + i, r * (J + 1) + j) for i in range(1, I + 1) for j in range(1, J + 1)
        )
    return {(x, y) for x in range(width) for y in range(length)} - covered


def access_points(instance):
    """Every access point, enumerated one at a time: bay by bay, sides in
    N, E, S, W order, stacks ascending, each on the aisle tile next to its
    boundary stack."""
    I, J = instance.bays[0].I, instance.bays[0].J
    cols = instance.warehouse_cols

    access_points: list[AccessPoint] = []
    for b, bay in enumerate(instance.bays):
        r, c = divmod(b, cols)
        x0, y0 = c * (I + 1), r * (J + 1)
        for side in ("N", "E", "S", "W"):
            if side not in bay.access_sides:
                continue
            if side == "N":
                spots = [((i, 1), (x0 + i, y0)) for i in range(1, I + 1)]
            elif side == "E":
                spots = [((I, j), (x0 + I + 1, y0 + j)) for j in range(1, J + 1)]
            elif side == "S":
                spots = [((i, J), (x0 + i, y0 + J + 1)) for i in range(1, I + 1)]
            else:
                spots = [((1, j), (x0, y0 + j)) for j in range(1, J + 1)]
            for stack, tile in spots:
                access_points.append(AccessPoint(len(access_points), tile, b, stack, side))
    return access_points


# --- exhaustive access-fixing oracles -------------------------------------

def _segment_cells(side, line, count, I, J):
    # deep-to-front cell lists, mirroring nothing: rederived from the lane
    # definition (front cell touches the boundary on `side`).
    if side == "W":
        return [(count - d, line) for d in range(count)]
    if side == "E":
        return [(I - count + 1 + d, line) for d in range(count)]
    if side == "N":
        return [(line, count - d) for d in range(count)]
    return [(line, J - count + 1 + d) for d in range(count)]


def _lane_ok(occ, cells):
    """Loads must form a contiguous run at the deep end (no holes)."""
    seen_empty = False
    for cell in cells:  # deep to front
        filled = cell in occ
        if filled and seen_empty:
            return False  # occupied in front of an empty slot: hole behind it
        if not filled:
            seen_empty = True
    return True


def enumerate_fixings(I, J, occ, sides):
    """Yield (misplaced, lanes) for every valid hole-free lane partition.

    Partitions are enumerated structurally: each row j contributes a west
    prefix of length a and an east suffix of length e (a + e <= I); whatever
    column cells remain must decompose into a north prefix plus a south
    suffix.  Every candidate lane is checked for hole-freeness and side
    permission; scoring uses blocking_by_rules.
    """
    row_opts = []
    for _j in range(1, J + 1):
        opts = [(a, e) for a in range(I + 1) for e in range(I + 1 - a)]
        row_opts.append(opts)

    for combo in itertools.product(*row_opts):
        vertical = {}  # column -> sorted list of rows left to vertical lanes
        ok = True
        lanes = []
        for j, (a, e) in enumerate(combo, start=1):
            if a and ("W" not in sides):
                ok = False
                break
            if e and ("E" not in sides):
                ok = False
                break
            if a:
                cells = _segment_cells("W", j, a, I, J)
                if not _lane_ok(occ, cells):
                    ok = False
                    break
                lanes.append(cells)
            if e:
                cells = _segment_cells("E", j, e, I, J)
                if not _lane_ok(occ, cells):
                    ok = False
                    break
                lanes.append(cells)
            for i in range(a + 1, I - e + 1):
                vertical.setdefault(i, []).append(j)
        if not ok:
            continue

        col_splits = []
        for i in range(1, I + 1):
            rows = vertical.get(i, [])
            if not rows:
                col_splits.append([(0, 0)])
                continue
            splits = []
            for north in range(len(rows) + 1):
                n_rows, s_rows = rows[:north], rows[north:]
                # north part must be a prefix 1..n, south a suffix ..J
                if n_rows and n_rows != list(range(1, north + 1)):
                    continue
                if s_rows and s_rows != list(range(J - len(s_rows) + 1, J + 1)):
                    continue
                n_cells = _segment_cells("N", i, len(n_rows), I, J) if n_rows else None
                s_cells = _segment_cells("S", i, len(s_rows), I, J) if s_rows else None
                if n_cells and (("N" not in sides) or not _lane_ok(occ, n_cells)):
                    continue
                if s_cells and (("S" not in sides) or not _lane_ok(occ, s_cells)):
                    continue
                splits.append((len(n_rows), len(s_rows)))
            if not splits:
                break
            col_splits.append(splits)
        if len(col_splits) != I:
            continue

        for split_combo in itertools.product(*col_splits):
            all_lanes = list(lanes)
            for i, (n_len, s_len) in enumerate(split_combo, start=1):
                if n_len:
                    all_lanes.append(_segment_cells("N", i, n_len, I, J))
                if s_len:
                    all_lanes.append(_segment_cells("S", i, s_len, I, J))
            score = 0
            for cells in all_lanes:
                contents = [occ.get(c) for c in cells]
                score += blocking_by_rules(contents)
            yield score, all_lanes


def best_fixing_score(I, J, occ, sides=frozenset("NESW")):
    """Minimum misplaced count over all valid partitions, or None."""
    best = None
    for score, _lanes in enumerate_fixings(I, J, occ, sides):
        if best is None or score < best:
            best = score
            if best == 0:
                break
    return best


def brute_fixings_by_direction_grid(I, J, occ, sides=frozenset("NESW")):
    """Fully independent cross-check: try all 4^(I*J) direction grids.

    Validity is judged from scratch: same-direction runs per row/column must
    be anchored at their boundary, cover every cell, and be hole-free.  Only
    usable for tiny grids.
    """
    cells = [(i, j) for j in range(1, J + 1) for i in range(1, I + 1)]
    best = None
    for dirs in itertools.product("NESW", repeat=len(cells)):
        grid = dict(zip(cells, dirs))
        if any(grid[c] not in sides for c in cells):
            continue
        lanes = []
        valid = True
        for j in range(1, J + 1):
            w = [i for i in range(1, I + 1) if grid[(i, j)] == "W"]
            e = [i for i in range(1, I + 1) if grid[(i, j)] == "E"]
            if w != list(range(1, len(w) + 1)):
                valid = False
                break
            if e != list(range(I - len(e) + 1, I + 1)):
                valid = False
                break
            if w:
                lanes.append(_segment_cells("W", j, len(w), I, J))
            if e:
                lanes.append(_segment_cells("E", j, len(e), I, J))
        if not valid:
            continue
        for i in range(1, I + 1):
            n = [j for j in range(1, J + 1) if grid[(i, j)] == "N"]
            s = [j for j in range(1, J + 1) if grid[(i, j)] == "S"]
            if n != list(range(1, len(n) + 1)):
                valid = False
                break
            if s != list(range(J - len(s) + 1, J + 1)):
                valid = False
                break
            if n:
                lanes.append(_segment_cells("N", i, len(n), I, J))
            if s:
                lanes.append(_segment_cells("S", i, len(s), I, J))
        if not valid:
            continue
        if any(not _lane_ok(occ, cells_) for cells_ in lanes):
            continue
        score = sum(blocking_by_rules([occ.get(c) for c in cells_]) for cells_ in lanes)
        if best is None or score < best:
            best = score
    return best


# --- plain search oracles ---------------------------------------------------

def plain_optimum(lanes, distance, max_k):
    """Lexicographic (moves, distance) optimum by unpruned depth-first search.

    ``lanes``: list of (capacity, contents tuple deep-to-front);
    ``distance``: function (source index, target index) -> int.
    Exponential; only for the tiniest states.
    """
    def sorted_all(state):
        return all(blocking_by_rules(c) == 0 for _cap, c in state)

    def walk(state, depth, dist, best):
        if sorted_all(state):
            if best is None or (depth, dist) < best:
                best = (depth, dist)
            return best
        if depth == max_k:
            return best
        for s, (scap, sc) in enumerate(state):
            if not sc:
                continue
            for t, (tcap, tc) in enumerate(state):
                if s == t or len(tc) >= tcap:
                    continue
                nxt = list(state)
                nxt[s] = (scap, sc[:-1])
                nxt[t] = (tcap, tc + (sc[-1],))
                best = walk(tuple(nxt), depth + 1, dist + distance(s, t), best)
        return best

    state = tuple((cap, tuple(contents)) for cap, contents in lanes)
    return walk(state, 0, 0, None)


def staged_optimum(lanes, distance, k_bar, c_ub):
    """(distance, plan) of the least-distance plan of exactly k_bar moves
    with no relayed load, or None when no plan qualifies.

    Mirrors the staged model semantics: a load placed at stage k may not be
    the load removed at stage k + 1; the final state must be fully sorted and
    the total distance must not exceed c_ub.  ``plan`` is the list of
    (source index, target index) pairs of the least-distance plan that
    comes first in the order of those lists.
    """
    def walk(state, stage, dist, last_target):
        if stage == k_bar:
            ok = all(blocking_by_rules(c) == 0 for _cap, c in state)
            return (dist, []) if ok and dist <= c_ub else None
        best = None
        for s, (scap, sc) in enumerate(state):
            if not sc or s == last_target:
                continue
            for t, (tcap, tc) in enumerate(state):
                if s == t or len(tc) >= tcap:
                    continue
                step = distance(s, t)
                nxt = list(state)
                nxt[s] = (scap, sc[:-1])
                nxt[t] = (tcap, tc + (sc[-1],))
                got = walk(tuple(nxt), stage + 1, dist + step, t)
                if got is not None and (best is None or got[0] < best[0]):
                    best = (got[0], [(s, t)] + got[1])
        return best

    state = tuple((cap, tuple(contents)) for cap, contents in lanes)
    return walk(state, 0, 0, None)


# --- covering oracle ----------------------------------------------------------

def covering_optimum(lanes, groups, extra=()):
    """Fewest sorted-prefix removals after which every load to place fits.

    ``lanes``: list of (capacity, contents tuple deep-to-front).  A lane's
    sorted prefix is the run of loads that are not blocking.  Every removal
    vector (r_1, ..., r_n), 0 <= r_i <= prefix length, is tried: lane i keeps
    its first prefix_i - r_i loads, its threshold is the group of the last
    kept one (``groups`` when none is kept) and its free slots are capacity
    minus the kept count.  The loads to place are the blocking loads, the
    removed ones and the groups in ``extra``.  The vector covers when, for
    every g, the loads to place of group >= g are no more than the free slots
    of lanes with threshold >= g.  Returns math.inf when no vector covers.
    Exponential in the lane count; meant for at most six lanes.
    """
    prefixes = [len(c) - blocking_by_rules(list(c)) for _cap, c in lanes]
    best = math.inf
    for removal in itertools.product(*(range(p + 1) for p in prefixes)):
        if sum(removal) >= best:
            continue
        to_place = list(extra)
        thresholds = []
        free = []
        for (cap, contents), p, r in zip(lanes, prefixes, removal):
            kept = contents[:p - r]
            to_place.extend(contents[p - r:])
            thresholds.append(kept[-1] if kept else groups)
            free.append(cap - len(kept))
        if all(
            sum(1 for q in to_place if q >= g)
            <= sum(f for t, f in zip(thresholds, free) if t >= g)
            for g in range(1, groups + 1)
        ):
            best = sum(removal)
    return best


# --- reference searches -------------------------------------------------------

def all_moves(config, dmat):
    """Every move of ``config`` by the move rule alone: the front load of
    each non-empty source goes to the first free slot of each other lane
    with room, in (source, target) lane id order, over the aisle distance
    between the two lanes' access points."""
    fill = [len(loads) for loads in config.contents]
    n = len(fill)
    return [Move(src + 1, dst + 1, fill[src], fill[dst] + 1,
                 dmat.between(config.points[src], config.points[dst]))
            for src in range(n) if fill[src]
            for dst in range(n) if dst != src and fill[dst] < config.capacities[dst]]


class NoSolutionWithin(Exception):
    """``brute_force_optimum`` exhausted its depth budget."""

    def __init__(self, max_k: int):
        super().__init__(f"no solution within {max_k} moves")
        self.max_k = max_k


def brute_force_optimum(config, dmat, max_k):
    """Least move count k* and cheapest distance among k*-move plans.

    Iterative-deepening DFS over all legal move sequences.  The only pruning
    is the depth budget and skipping states already seen in this iteration
    at equal-or-worse (moves, distance) -- revisiting such a state cannot
    produce anything new.  Raises NoSolutionWithin past the budget.
    """
    for depth in range(max_k + 1):
        best = [None]
        memo = {}

        def dfs(cfg, g, dist):
            if cfg.blocking_total == 0:
                if best[0] is None or dist < best[0]:
                    best[0] = dist
                return
            if g == depth:
                return
            seen = memo.setdefault(state_key(cfg), [])
            for sg, sd in seen:
                if sg <= g and sd <= dist:
                    return
            seen[:] = [(sg, sd) for sg, sd in seen if not (g <= sg and dist <= sd)]
            seen.append((g, dist))
            for move in all_moves(cfg, dmat):
                dfs(apply_move(cfg, move), g + 1, dist + move.distance)

        dfs(config, 0, 0)
        if best[0] is not None:
            return depth, best[0]
    raise NoSolutionWithin(max_k)


def store_every_child_astar(root, dmat):
    """A* that stores every child it generates; no deadline.

    Returns ("Solution", k, distance, moves, nodes_evaluated), or
    ("Infeasible", None, None, None, nodes_evaluated).  It pops by
    (f, h, dist, push order) and admits a child when its key is new, or is
    not closed and the child's f is smaller, or equal with a smaller dist.
    It asserts that no popped f falls below the one before, which holds
    when h is consistent, so a closed key never needs reopening.  Children
    are built, keyed and given their h by ``bounds.lb_state`` when
    generated; no listing code of ``astar`` runs here.
    """
    # A record is [parent, move, g, dist, f, closed, config].
    h0 = bounds.lb_state(root)[2]
    records = {state_key(root): [None, None, 0, 0, h0, False, root]}
    heap = [(h0, h0, 0, 0, state_key(root))]
    pushes, last_f, nodes = 0, 0, 0
    while heap:
        f, _h, _dist, _push, key = heappop(heap)
        rec = records[key]
        if rec[5]:
            continue
        assert f >= last_f, f"popped f fell from {last_f} to {f}: h is inconsistent"
        last_f = f
        rec[5] = True
        nodes += 1
        g, dist = rec[2:4]
        if rec[6].blocking_total == 0:
            moves = []
            while rec[1] is not None:
                moves.append(rec[1])
                rec = rec[0]
            return ("Solution", g, dist, tuple(reversed(moves)), nodes)
        for move in all_moves(rec[6], dmat):
            child = apply_move(rec[6], move)
            c_h = bounds.lb_state(child)[2]
            c_key = state_key(child)
            c_f, c_dist = g + 1 + c_h, dist + move.distance
            known = records.get(c_key)
            if known is not None and (known[5] or (known[4], known[3]) <= (c_f, c_dist)):
                continue
            records[c_key] = [rec, move, g + 1, c_dist, c_f, False, child]
            pushes += 1
            heappush(heap, (c_f, c_h, c_dist, pushes, c_key))
    return ("Infeasible", None, None, None, nodes)


def least_distance(points, dmat, profiles, src, load):
    """The term of ``exact.Targets.distance_bound`` for a blocker ``load``
    of lane ``src``, lane by lane, from the lane ``profiles``
    (``bounds.lb_state``) of lanes at access ``points``: the least distance
    from ``src`` to another lane whose threshold is at least ``load`` and
    which has a free slot once cleared.  ``min`` raises when there is no
    such lane, which GX = 0 rules out."""
    return min(dmat.between(points[src], points[dst])
               for dst, other in enumerate(profiles)
               if dst != src and other.free_after_clear and other.threshold >= load)


def distance_bound(points, dmat, profiles):
    """B of ``exact.Targets.distance_bound``: the sum of ``least_distance``
    over the blockers."""
    return sum(least_distance(points, dmat, profiles, src, load)
               for src, prof in enumerate(profiles) for load in prof.blocking_suffix)


def front_terms(points, dmat, config, profiles):
    """The fronts of ``exact.Targets.distance_bound``: each blocked lane's
    index of ``config`` -> the ``least_distance`` of its front load."""
    return {src: least_distance(points, dmat, profiles, src, loads[-1])
            for src, (loads, prof) in enumerate(zip(config.contents, profiles))
            if prof.blocking_suffix}


def unpruned_cost_to_go(tables):
    """``tables.cost_to_go`` with no cap and no pruning, as a function of
    (j, state): the memoised minimum over every valid choice of row j
    (``row_choices``), each costed in full."""
    memo = {}

    def cost(j, state):
        if j == tables.J:
            occupied = state[0] | state[1]
            return sum(best for i, best in enumerate(tables.split_best) if not occupied >> i & 1)
        if (j, state) not in memo:
            memo[j, state] = min(
                (added + cost(j + 1, new) for _, _, added, new in tables.row_choices(j, state)),
                default=math.inf,
            )
        return memo[j, state]

    return cost


def unpruned_assignments(bay, limit):
    """``fixing.optimal_assignments`` with a DP and walk that cost every row choice.

    Runs on the package's cost tables (``_BayTables`` and its
    ``row_choices``) and memoises the minimum over all valid choices of a
    row, with no choice skipped by the best found so far.  The direction
    rows are drawn here, cell by cell, from the row and column splits.
    Returns the list, or raises ``InfeasibleAssignment`` with the package's
    message.
    """
    tables = fixing._BayTables(bay)
    cost = unpruned_cost_to_go(tables)

    def walk(j, state, spent, row_splits):
        if j == tables.J:
            occupied = state[0] | state[1]
            splits = [
                [c for c, cost_c in enumerate(tables.split_cost[i])
                 if cost_c == tables.split_best[i]]
                if not occupied >> i & 1 else [0]
                for i in range(tables.I)
            ]
            for col_splits in itertools.product(*splits):
                yield fixing.AccessAssignment(_directions(row_splits, col_splits), best)
            return
        for alpha, eps, added, new in tables.row_choices(j, state):
            if spent + added + cost(j + 1, new) == best:
                yield from walk(j + 1, new, spent + added, row_splits + [(alpha, eps)])

    best = cost(0, (0, 0))
    if math.isinf(best):
        raise fixing.InfeasibleAssignment(
            f"no hole-free assignment for a {bay.I}x{bay.J} bay with "
            f"sides {''.join(sorted(bay.access_sides))}"
        )
    best = int(best)
    return list(itertools.islice(walk(0, (0, 0), 0, []), 1 if bay.load_count == 0 else limit))


def _directions(row_splits, col_splits):
    """Direction rows of per-row (alpha, eps) and per-column splits: N above a
    column's horizontal band and S below it, or split at ``col_splits[i]``
    when the column has no horizontal cell."""
    I = len(col_splits)
    grid = [["W"] * alpha + [""] * (I - alpha - eps) + ["E"] * eps for alpha, eps in row_splits]
    for i in range(I):
        horizontal = [j for j, row in enumerate(grid) if row[i]]
        north, south = (horizontal[0], horizontal[-1] + 1) if horizontal else (col_splits[i],) * 2
        for j, row in enumerate(grid):
            if not row[i]:
                row[i] = "N" if j < north else "S"
    return tuple(map("".join, grid))


def full_scan_select(candidates, bay):
    """The candidate with the least h of ``bounds.lb_state``, scanning every
    candidate.

    Ties fall to the first one found; with no finite bound, the first.
    """
    best, best_h = None, math.inf
    for cand in candidates:
        h = bounds.lb_state(fixing._bay_config(bay, fixing.induced_lanes(bay, cand)))[2]
        if h < best_h:
            best, best_h = cand, h
    return best if best is not None else candidates[0]


def table_first_path(I, J, wmax, emax, nmax, smax):
    """``fixing._first_path`` as it was before its all-vertical shortcut and
    in-place row choices: it builds every row's table of (alpha, eps) per
    distinct horizontal mask, then searches the rows depth first.

    Returns the (alpha, eps) of every row of the first path whose lanes lie
    within the reaches, or None.
    """
    for j in range(J):
        for i in range(I):
            if not (i < wmax[j] or I - i <= emax[j] or j < nmax[i] or J - j <= smax[i]):
                return None
    full = (1 << I) - 1
    rows = []
    for j in range(J):
        # mask -> its first (alpha, eps), the masks in that order.  Only the
        # full mask has several splits (alpha + eps = I), and the first has
        # the least alpha, I - emax[j]; past it, eps stops short of I - alpha.
        e = emax[j]
        splits = {
            ((1 << alpha) - 1) | (full ^ ((1 << (I - eps)) - 1)): (alpha, eps)
            for alpha in range(wmax[j] + 1)
            for eps in range(min(e, I - alpha - (alpha > I - e)) + 1)
        }
        nbad = sum(1 << i for i in range(I) if j > nmax[i])
        sbad = sum(1 << i for i in range(I) if J - j > smax[i])
        rows.append((splits, nbad, sbad))
    nosplit = sum(1 << i for i in range(I) if nmax[i] + smax[i] < J)
    path = _table_completion(rows, full, nosplit, 0, 0, 0, set())
    return None if path is None else path[::-1]


def _table_completion(rows, full, nosplit, j, band, south, dead):
    """The first valid choices of rows ``j``.. from state (band, south),
    bottom row first, or None; ``dead`` collects the states without one."""
    if j == len(rows):
        return None if full & ~(band | south) & nosplit else []
    if (j, band, south) in dead:
        return None
    splits, nbad, sbad = rows[j]
    north = full & ~(band | south)
    for horizontal, split in splits.items():
        ended = band & ~horizontal
        if horizontal & south or horizontal & north & nbad or ended & sbad:
            continue
        path = _table_completion(rows, full, nosplit, j + 1, horizontal, south | ended, dead)
        if path is not None:
            path.append(split)
            return path
    dead.add((j, band, south))
    return None


_INWARD ={"W": (1, 0), "E": (-1, 0), "N": (0, 1), "S": (0, -1)}


def reconstruct_occupancy(config, layout, assignments):
    """Map (bay, i, j) -> group implied by the lanes; the inverse of
    ``fixing.to_virtual_lanes``.

    An access point's lane starts at its stack and runs inward while the
    assignment's direction is the point's side; it holds, deepest first, the
    contents of the lane that ``config.points`` gives that point.
    """
    lane_of = {point: idx for idx, point in enumerate(config.points)}
    occ = {}
    for ap in layout.access_points:
        rows = assignments[ap.bay].rows
        di, dj = _INWARD[ap.side]
        (i, j), cells = ap.stack, []
        while 1 <= j <= len(rows) and 1 <= i <= len(rows[0]) and rows[j - 1][i - 1] == ap.side:
            cells.append((i, j))
            i, j = i + di, j + dj
        if cells:
            contents = config.contents[lane_of[ap.point_id]]
            for (i, j), g in zip(reversed(cells), contents):
                occ[(ap.bay, i, j)] = g
    return occ
