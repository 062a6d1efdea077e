"""Benchmark harness: the suite runner and its CSV."""

from __future__ import annotations

import csv
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import IO

from .generate import GenConfig, generate
from .model import Solution, TimedOut
from .pipeline import prepare, solve_instance

CSV_COLUMNS = [
    "bay_layout",
    "warehouse_layout",
    "fill",
    "classes",
    "seed",
    "algo",
    "solved",
    "timed_out",
    "k",
    "total_distance",
    "nodes_evaluated",
    "preprocessing_s",
    "solve_s",
]


def budget_seconds(value) -> float:
    """``value`` as a time budget: a finite number of seconds >= 0."""
    seconds = float(value)
    if not 0 <= seconds < math.inf:  # NaN fails both comparisons
        raise ValueError(f"a time budget must be a finite number of seconds >= 0, "
                         f"not {value!r}")
    return seconds


@dataclass(frozen=True)
class SuiteRun:
    """One (config, seed, algo) cell of a suite."""

    config: GenConfig
    algo: str
    timeout_s: float | None = None


ALGOS = ("astar", "exact")
SUITE_KEYS = ("configs", "seeds", "algos", "timeout_s", "unrestricted")
CONFIG_KEYS = ("bay", "warehouse", "fill", "classes")


def _is_int(value) -> bool:
    """True for a plain integer: not a float, a string or a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _listed(suite: dict, key: str, accept, what: str) -> list:
    """``suite[key]``, which must be a list of items that ``accept``."""
    value = suite.get(key)
    if not isinstance(value, list) or not all(map(accept, value)):
        raise ValueError(f"{key!r} must be a list of {what}, not {value!r}")
    return value


def _known_keys(entry: dict, known: tuple, what: str) -> None:
    """Reject keys of ``entry`` outside ``known``, which would be ignored."""
    unknown = [key for key in entry if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown!r}; known: {', '.join(known)}")


def suite_runs(suite) -> list[SuiteRun]:
    """Expand a suite dict into its deterministic run list.

    Suite schema: {"configs": [{"bay": "3x3", "warehouse": "2x2",
    "fill": 0.6, "classes": 5}], "seeds": [1, 2], "algos": ["astar",
    "exact"], "timeout_s": {"astar": 600, "exact": 3600},
    "unrestricted": false}.  Runs are ordered (config, seed, algo).  A suite
    that is no object, a key of it or of a config outside that schema,
    lists of the wrong kind (seeds and classes must be plain integers,
    algos among ``ALGOS``), a seed or algo given twice, two configs that
    parse to the same (bay, warehouse, fill, classes), a fill that is no
    int or float, a ``timeout_s`` that is no object keyed by algos, or a
    value of it that is no int or float or that ``budget_seconds`` rejects
    raise ValueError; a config without one of its keys raises KeyError.
    """
    from .files import parse_layout_label

    if not isinstance(suite, dict):
        raise ValueError(f"a suite must be a JSON object, not {suite!r}")
    _known_keys(suite, SUITE_KEYS, "suite")
    configs = _listed(suite, "configs", lambda entry: isinstance(entry, dict), "objects")
    seeds = _listed(suite, "seeds", _is_int, "integers")
    algos = _listed(suite, "algos", ALGOS.__contains__, f"algorithms of {ALGOS}")
    for key, values in (("seeds", seeds), ("algos", algos)):
        if len(set(values)) < len(values):  # a repeat would run the same rows twice
            raise ValueError(f"{key!r} must not repeat an item, not {values!r}")
    timeout_s = suite.get("timeout_s", {})
    # float() in budget_seconds would take a bool or a numeric string.
    if (not isinstance(timeout_s, dict) or not set(timeout_s) <= set(ALGOS)
            or not all(type(value) in (int, float) for value in timeout_s.values())):
        raise ValueError(f"'timeout_s' must map algorithms of {ALGOS} to numbers of "
                         f"seconds, not {timeout_s!r}")
    unrestricted = suite.get("unrestricted", False)
    if not isinstance(unrestricted, bool):
        raise ValueError(f"'unrestricted' must be true or false, not {unrestricted!r}")
    timeouts = {algo: budget_seconds(value) for algo, value in timeout_s.items()}
    runs, seen = [], set()
    for entry in configs:
        _known_keys(entry, CONFIG_KEYS, "config")
        if not _is_int(entry["classes"]):
            raise ValueError(f"'classes' must be an integer, not {entry['classes']!r}")
        if type(entry["fill"]) not in (int, float):
            raise ValueError(f"'fill' must be a number, not {entry['fill']!r}")
        shape = (parse_layout_label(entry["bay"]), parse_layout_label(entry["warehouse"]),
                 float(entry["fill"]), entry["classes"])
        if shape in seen:  # it would run the same rows twice
            raise ValueError(f"config {entry!r} repeats an earlier one")
        seen.add(shape)
        for seed in seeds:
            for algo in algos:
                config = GenConfig(*shape, seed=seed, unrestricted=unrestricted)
                runs.append(
                    SuiteRun(config=config, algo=algo, timeout_s=timeouts.get(algo))
                )
    return runs


def _row(run: SuiteRun) -> dict:
    """The row of one suite cell before anything has run."""
    config = run.config
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(bay_layout=config.bay_label, warehouse_layout=config.warehouse_label,
               fill=config.fill, classes=config.groups, seed=config.seed, algo=run.algo,
               solved=False, timed_out=False)
    return row


def _report(row: dict, exc: Exception) -> None:
    print(f"[bench] {row['bay_layout']} seed {row['seed']} {row['algo']}: {exc}",
          file=sys.stderr)


def run_group(runs: list[SuiteRun]) -> list[dict]:
    """Execute suite cells of one (config, seed): generate and prepare once.

    Every algorithm solves from the same prepared instance, so each row's
    ``preprocessing_s`` is that one preparation.  An exact cell after a
    solved A* cell takes that A* solution for its bounds instead of running
    A* again, so its ``timeout_s`` covers the exact search only.  Failures
    become unsolved rows, not an abort: a failed preparation fails every
    cell of the group.
    """
    rows = [_row(run) for run in runs]
    try:
        instance = generate(runs[0].config)
        prepared = prepare(instance)
    except Exception as exc:  # noqa: BLE001 - recorded per the suite contract
        for row in rows:
            _report(row, exc)
        return rows
    astar_solution = None
    for run, row in zip(runs, rows):
        try:
            result, _ = solve_instance(
                instance, run.algo, timeout_s=run.timeout_s, prepared=prepared,
                ub_solution=astar_solution,
            )
        except Exception as exc:  # noqa: BLE001 - recorded per the suite contract
            _report(row, exc)
            continue
        row["preprocessing_s"] = f"{prepared.preprocessing_time:.6f}"
        if isinstance(result, Solution):
            if run.algo == "astar":
                astar_solution = result
            row.update(
                solved=True,
                k=result.k,
                total_distance=result.total_distance,
                nodes_evaluated=result.stats.nodes_evaluated,
                solve_s=f"{result.stats.wall_time:.6f}",
            )
        elif isinstance(result, TimedOut):
            row.update(timed_out=True, nodes_evaluated=result.stats.nodes_evaluated,
                       solve_s=f"{result.stats.wall_time:.6f}")
    return rows


def run_suite(runs: list[SuiteRun], jobs: int = 1) -> list[dict]:
    """All rows of ``suite_runs``' list, in its order come what may."""
    groups = [list(cells) for _, cells in itertools.groupby(runs, lambda r: r.config)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(run_group, groups))
    else:
        done = [run_group(runs) for runs in groups]
    return [row for rows in done for row in rows]


def write_results_csv(rows: list[dict], fileobj: IO[str]) -> None:
    writer = csv.DictWriter(fileobj, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def aggregate(rows: list[dict]) -> dict:
    """Summary quantities over a result table.

    - solved: per (config, algo) solved counts;
    - agreement: instances where both algorithms solved, split by equal k and
      by equal distance;
    - mean_distance_per_move: per algo, total distance over total moves;
    - relative_gaps: (d_astar - d_exact) / d_exact per disagreeing instance.
    """
    solved: dict = {}
    per_algo: dict = {}
    by_cell: dict = {}
    for row in rows:
        cell = (row["bay_layout"], row["warehouse_layout"], row["fill"],
                row["classes"])
        key = cell + (row["algo"],)
        solved.setdefault(key, [0, 0])
        solved[key][1] += 1
        if row["solved"] in (True, "True"):
            solved[key][0] += 1
            stats = per_algo.setdefault(row["algo"], [0, 0])
            stats[0] += int(row["total_distance"])
            stats[1] += int(row["k"])
            by_cell.setdefault(cell + (row["seed"],), {})[row["algo"]] = (
                int(row["k"]),
                int(row["total_distance"]),
            )
    agreement = {"both_solved": 0, "same_k": 0, "same_distance": 0}
    gaps = []
    for algos in by_cell.values():
        if "astar" in algos and "exact" in algos:
            agreement["both_solved"] += 1
            (ka, da), (ke, de) = algos["astar"], algos["exact"]
            if ka == ke:
                agreement["same_k"] += 1
            if da == de:
                agreement["same_distance"] += 1
            elif de > 0:
                gaps.append((da - de) / de)
    return {
        "solved": {"/".join(map(str, k)): f"{v[0]}/{v[1]}" for k, v in solved.items()},
        "agreement": agreement,
        "mean_distance_per_move": {
            algo: (dist / moves if moves else 0.0)
            for algo, (dist, moves) in per_algo.items()
        },
        "relative_gaps": gaps,
    }
