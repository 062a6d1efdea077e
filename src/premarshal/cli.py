"""Command line front end: generate, solve, verify, bench, distances.

Exit codes: 0 success, 1 usage error, 2 solver timeout or out of memory,
3 invalid input, failed validation or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

from . import bench, files, pipeline
from .generate import GenConfig, GenerationFailed, generate
from .layout import LayoutError, all_pairs_distances, build_layout, write_distances_csv
from .model import Infeasible, Solution, TimedOut
from .verify import replay

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIMEOUT = 2
EXIT_INVALID = 3


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _writing(path):
    """Turn an ``OSError`` of a command's output write into exit 3."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_INVALID, f"cannot write {path}: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for timeouts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="premarshal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a seeded instance")
    gen.add_argument("--bay", required=True, help="bay layout, e.g. 4x4")
    gen.add_argument("--warehouse", required=True, help="warehouse layout, e.g. 5x5")
    gen.add_argument("--fill", required=True, type=float)
    gen.add_argument("--classes", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--unrestricted", action="store_true",
                     help="allow configurations outside the benchmark grid")
    gen.add_argument("-o", "--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--algo", required=True, choices=("astar", "exact"))
    solve.add_argument("--timeout-s", type=bench.budget_seconds, default=None,
                       help="time budget in seconds, a finite number >= 0")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--ub-from", dest="ub_from", default=None,
                       help="A* solution JSON supplying the exact solver's bounds")
    solve.add_argument("-o", "--out", required=True)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="replay a solution against its instance")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--sol", required=True)
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run a suite and write a CSV")
    ben.add_argument("--suite", required=True)
    ben.add_argument("--jobs", type=int, default=None,
                     help="parallel runs (default: MARSHAL_JOBS or 1)")
    ben.add_argument("-o", "--out", required=True)
    ben.set_defaults(func=_cmd_bench)

    dist = sub.add_parser("distances", help="write the access-point distance matrix")
    dist.add_argument("--in", dest="infile", required=True)
    dist.add_argument("-o", "--out", required=True)
    dist.set_defaults(func=_cmd_distances)
    return parser


def _cmd_generate(args) -> int:
    try:
        config = GenConfig(
            bay=files.parse_layout_label(args.bay),
            warehouse=files.parse_layout_label(args.warehouse),
            fill=args.fill,
            groups=args.classes,
            seed=args.seed,
            unrestricted=args.unrestricted,
        )
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc
    try:
        instance = generate(config)
    except GenerationFailed as exc:
        raise _Failure(EXIT_INVALID, str(exc)) from exc
    with _writing(args.out):
        files.write_instance(instance, args.out)
    print(f"wrote {args.out} ({instance.load_count} loads)")
    return EXIT_OK


def _load_instance(path):
    try:
        return files.read_instance(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_INVALID, f"cannot read instance {path}: {exc}") from exc


def _cmd_solve(args) -> int:
    if args.ub_from and args.algo != "exact":
        raise _Failure(EXIT_USAGE, "--ub-from only applies to --algo exact")
    instance = _load_instance(args.infile)
    # The budget covers the whole command: preprocessing and the ``--ub-from``
    # replay spend it too, and the solver gets what is left.
    started = time.perf_counter()
    try:
        prepared = pipeline.prepare(instance)
    except MemoryError:
        print("preprocessing ran out of memory", file=sys.stderr)
        return EXIT_TIMEOUT
    except Exception as exc:  # noqa: BLE001 - any preprocessing failure is fatal
        raise _Failure(EXIT_INVALID, f"preprocessing failed: {exc}") from exc

    ub = _load_upper_bound(args.ub_from, instance, prepared) if args.ub_from else None

    timeout_s = args.timeout_s
    if timeout_s is not None:
        timeout_s = max(0.0, timeout_s - (time.perf_counter() - started))
    try:
        result, prepared = pipeline.solve_instance(
            instance, args.algo, timeout_s=timeout_s, prepared=prepared, ub_solution=ub
        )
    except MemoryError:
        # Out of memory is a spent budget, like running out of time.
        print("solver ran out of memory", file=sys.stderr)
        return EXIT_TIMEOUT
    if isinstance(result, TimedOut):
        print("solver timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    if isinstance(result, Infeasible):
        raise _Failure(EXIT_INVALID, "instance admits no sorting plan")
    assert isinstance(result, Solution)
    with _writing(args.out):
        files.write_solution(result, prepared, args.out)
    print(f"{result.algo}: k={result.k} distance={result.total_distance} "
          f"nodes={result.stats.nodes_evaluated}")
    return EXIT_OK


def _load_upper_bound(path, instance, prepared):
    """The bound file must be this instance's replay-valid A* solution."""
    try:
        data = files.read_solution(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_INVALID, f"cannot read solution {path}: {exc}") from exc
    if data.get("algo") != "astar":
        raise _Failure(EXIT_INVALID, "--ub-from must point at an astar solution")
    try:
        assignments = files.assignments_from_json(data.get("assignments", []), instance)
    except (ValueError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_INVALID, f"bad assignments in {path}: {exc}") from exc
    if [a.rows for a in assignments] != [a.rows for a in prepared.assignments]:
        raise _Failure(EXIT_INVALID,
                       "--ub-from solution uses different access assignments")
    report = replay(instance, assignments, data)
    if not report.ok:
        raise _Failure(EXIT_INVALID, f"--ub-from solution fails replay: "
                                     f"{report.violations[0]['detail']}")
    return SimpleNamespace(k=int(data["k"]), total_distance=int(data["total_distance"]))


def _cmd_verify(args) -> int:
    instance = _load_instance(args.infile)
    try:
        data = files.read_solution(args.sol)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_INVALID, f"cannot read solution {args.sol}: {exc}") from exc
    try:
        assignments = files.assignments_from_json(data.get("assignments", []), instance)
    except (ValueError, KeyError, TypeError) as exc:
        report_json = {"ok": False, "violations": [
            {"code": "assignments", "detail": str(exc)}]}
        print(json.dumps(report_json, indent=2))
        return EXIT_INVALID
    report = replay(instance, assignments, data)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_bench(args) -> int:
    jobs, source = args.jobs, "--jobs"
    if jobs is None:
        value, source = os.environ.get("MARSHAL_JOBS", "1"), "MARSHAL_JOBS"
        try:
            jobs = int(value)
        except ValueError:
            raise _Failure(EXIT_USAGE, f"MARSHAL_JOBS must be an integer, not {value!r}") from None
    if jobs < 1:
        raise _Failure(EXIT_USAGE, f"{source} must be at least 1, not {jobs}")
    try:
        with open(args.suite, encoding="utf-8") as f:
            suite = json.load(f)
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_INVALID, f"cannot read suite {args.suite}: {exc}") from exc
    # Expanded before ``-o`` is opened, so that a bad suite leaves the file as it was.
    try:
        runs = bench.suite_runs(suite)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Failure(EXIT_INVALID, f"bad suite: {exc}") from exc
    # Opened before any row is solved, so that an unwritable path costs no solve.
    with _writing(args.out):
        out = open(args.out, "w", encoding="utf-8", newline="")
    with out:
        rows = bench.run_suite(runs, jobs=jobs)
        with _writing(args.out):
            bench.write_results_csv(rows, out)
    print(json.dumps(bench.aggregate(rows), indent=2))
    return EXIT_OK


def _cmd_distances(args) -> int:
    instance = _load_instance(args.infile)
    try:
        layout = build_layout(instance)
        matrix = all_pairs_distances(layout)
    except LayoutError as exc:
        raise _Failure(EXIT_INVALID, str(exc)) from exc
    with _writing(args.out), open(args.out, "w", encoding="utf-8", newline="") as f:
        write_distances_csv(matrix, f)
    print(f"wrote {args.out} ({matrix.n} access points)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"premarshal: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
