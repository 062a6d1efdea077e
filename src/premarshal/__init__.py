"""Solver toolkit for the multibay unit-load pre-marshalling problem.

Given a block-stacking warehouse of multiple bays, compute a sorting plan
with the minimum number of moves and minimum total loaded move distance:
access-direction fixing, an A* move-count-optimal solver, an exact
distance-optimal solver, plus instance generation, distance pre-processing,
plan verification and benchmark reporting.
"""

from .model import (
    BaySpec,
    Infeasible,
    LaneConfiguration,
    Move,
    Solution,
    SolveStats,
    TimedOut,
    WarehouseInstance,
    apply_move,
    legal_moves,
    state_key,
)

__version__ = "0.1.0"

__all__ = [
    "BaySpec",
    "Infeasible",
    "LaneConfiguration",
    "Move",
    "Solution",
    "SolveStats",
    "TimedOut",
    "WarehouseInstance",
    "apply_move",
    "legal_moves",
    "state_key",
    "__version__",
]
