"""Seeded instance generator over the benchmark configuration grid.

Generated bays open all four sides; instance files may restrict them per
bay.  Occupancy is built per bay by boundary-anchored lane growth: every
open side contributes one frontier per row or column, and each step claims
the next inward cell of a uniformly random still-extendable frontier.
Growth can finish in a shape no hole-free assignment covers (frontiers of
different sides can interleave), so each bay is checked with the
access-fixing feasibility probe ``has_hole_free_assignment``, which sums no
cost, and regrown from a derived sub-seed when the check fails or growth
deadlocks.

Priority groups are drawn only after a bay's shape is final, in canonical
cell order, so two configs differing only in the group count produce
identical occupied positions for the same seed.  The RNG is the named
mt19937 generator (Python's random.Random), recorded in the metadata.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .fixing import has_hole_free_assignment
from .model import SIDES, BaySpec, WarehouseInstance

FILLS = (0.40, 0.60, 0.80, 0.90)
GROUP_COUNTS = (5, 10)
# Populated cells of the benchmark grid: square bay size -> allowed square
# warehouse side lengths.
WAREHOUSE_RANGE = {3: range(2, 13), 4: range(2, 9), 5: range(2, 7), 6: range(2, 7)}
MAX_BAY_RETRIES = 100
GENERATOR_NAME = "mt19937"


class GenerationFailed(Exception):
    """A bay could not be grown into an assignable shape within the retry budget."""


@dataclass(frozen=True)
class GenConfig:
    """One generator configuration; restricted to the benchmark grid by default."""

    bay: tuple[int, int]
    warehouse: tuple[int, int]
    fill: float
    groups: int
    seed: int
    unrestricted: bool = False

    def __post_init__(self) -> None:
        bi, bj = self.bay
        wr, wc = self.warehouse
        if min(bi, bj, wr, wc) < 1:
            raise ValueError("bay and warehouse dimensions must be positive")
        if not 0.0 <= self.fill <= 1.0:
            raise ValueError("fill must lie in [0, 1]")
        if self.groups < 1:
            raise ValueError("need at least one priority group")
        if self.unrestricted:
            return
        if bi != bj or bi not in WAREHOUSE_RANGE:
            raise ValueError(f"bay layout {bi}x{bj} outside the benchmark grid")
        if wr != wc or wr not in WAREHOUSE_RANGE[bi]:
            raise ValueError(
                f"warehouse layout {wr}x{wc} not paired with {bi}x{bj} bays"
            )
        if not any(math.isclose(self.fill, f) for f in FILLS):
            raise ValueError(f"fill {self.fill} not one of {FILLS}")
        if self.groups not in GROUP_COUNTS:
            raise ValueError(f"group count {self.groups} not one of {GROUP_COUNTS}")

    @property
    def bay_label(self) -> str:
        return f"{self.bay[0]}x{self.bay[1]}"

    @property
    def warehouse_label(self) -> str:
        return f"{self.warehouse[0]}x{self.warehouse[1]}"


def target_loads(fill: float, slots: int) -> int:
    """Half-up rounding, spelled out because round() rounds half to even."""
    return math.floor(fill * slots + 0.5)


def _grow(rng: random.Random, I, J, sides, target) -> set[tuple[int, int]] | None:
    """One growth run; None when it deadlocks before reaching the target."""
    # A frontier lists its free cells from the far side inward, so that
    # ``pop`` takes its next cell.
    lines = {
        "N": [[(i, j) for j in range(J, 0, -1)] for i in range(1, I + 1)],
        "E": [[(i, j) for i in range(1, I + 1)] for j in range(1, J + 1)],
        "S": [[(i, j) for j in range(1, J + 1)] for i in range(1, I + 1)],
        "W": [[(i, j) for i in range(I, 0, -1)] for j in range(1, J + 1)],
    }
    north, east, south, west = (lines[side] for side in SIDES)
    # Fixed N, E, S, W order keeps runs reproducible.
    extendable = [f for side in SIDES if side in sides for f in lines[side]]
    occupied: set[tuple[int, int]] = set()
    while len(occupied) < target:
        if not extendable:
            return None
        k = rng.randrange(len(extendable))
        chosen = extendable[k]
        cell = chosen.pop()
        occupied.add(cell)
        # A frontier that is used up or whose next cell is taken stays so.
        # Only the chosen one and those whose next cell this was can become
        # so now, and those lie on the lines through the cell.  Dropping them
        # keeps the order of the rest, and so the draws.
        if not chosen or chosen[-1] in occupied:
            del extendable[k]
        i, j = cell
        for f in (north[i - 1], south[i - 1], east[j - 1], west[j - 1]):
            if f and f[-1] == cell:
                extendable = [e for e in extendable if e is not f]
    return occupied


def _generate_bay(bay_seed: int, I, J, sides, groups, target) -> BaySpec:
    for attempt in range(MAX_BAY_RETRIES):
        rng = random.Random(bay_seed + attempt)
        cells = _grow(rng, I, J, sides, target)
        if cells is None:
            continue
        # Groups are drawn after the shape is settled, in canonical order,
        # so occupied positions do not depend on the group count.
        occupancy = {
            (i, j, 1): rng.randint(1, groups) for (i, j) in sorted(cells)
        }
        bay = BaySpec(I=I, J=J, T=1, G=groups, occupancy=occupancy, access_sides=sides)
        if has_hole_free_assignment(bay):
            return bay
    raise GenerationFailed(
        f"no assignable {I}x{J} bay with {target} loads after "
        f"{MAX_BAY_RETRIES} attempts (seed {bay_seed})"
    )


def generate(config: GenConfig) -> WarehouseInstance:
    """Deterministic instance for the config, every bay open to all four
    sides; identical seeds, identical bytes."""
    I, J = config.bay
    rows, cols = config.warehouse
    target = target_loads(config.fill, I * J)
    main = random.Random(config.seed)
    bays = [
        _generate_bay(main.getrandbits(64), I, J, SIDES, config.groups, target)
        for _ in range(rows * cols)
    ]
    meta = {
        "seed": config.seed,
        "fill": config.fill,
        "classes": config.groups,
        "bay_layout": config.bay_label,
        "warehouse_layout": config.warehouse_label,
        "generator": GENERATOR_NAME,
    }
    return WarehouseInstance(
        bays=bays, warehouse_rows=rows, warehouse_cols=cols, meta=meta
    )
