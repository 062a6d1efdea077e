"""One benchmark workload, measured inside one fresh, single-threaded process.

``run.py`` starts this script once per set-up sample and once for the
measured run, and reads the JSON object it prints as its only stdout line;
human-readable progress goes to stderr.  It imports premarshal from
``<root>/src`` and nowhere else.

An untraced run runs every instance once, in an order set by ``--seed``, then
goes round again instance by instance while the next one is expected to end
within ``--seconds``; each instance counts with the median of its samples.
Its times are CPU seconds scaled to a reference speed of the host: a fixed
loop of plain Python is timed all through the run (see ``Speedometer``).
A traced run makes a traced pass, an untraced pass and a second traced pass,
with a timing wrapper around each layer function (see ``spans.py``).  Every
plan is replayed with ``verify.replay`` and compared with ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402

#: Instances are (bay side, warehouse side, fill, groups G, generator seed).
#: The lists are fixed: an instance is never dropped or swapped for its
#: result or its speed.  README.md says why each workload exists.
WORKLOADS = {
    # A* only: every expansion builds ~L^2 children and A* keeps them all, so
    # cost per child and memory dominate.  5x5/3x3/0.9 is the instance where
    # the covering DFS of bounds.gx_bound dominates.
    "astar-wide": (("astar",), (
        (3, 7, 0.9, 10, 1),
        (5, 3, 0.8, 10, 1),
        (5, 3, 0.9, 10, 1),
        (6, 2, 0.8, 10, 1),
    )),
    # The exact solver with its A* bootstrap: depth-first, children are
    # transient and eager move generation dominates.
    "exact-deep": (("astar", "exact"), (
        (4, 3, 0.8, 10, 3),
        (4, 3, 0.9, 10, 1),
        (4, 3, 0.9, 10, 7),
        (5, 2, 0.8, 5, 5),
        (4, 3, 0.8, 5, 5),
        (4, 3, 0.8, 10, 6),
        (5, 2, 0.8, 5, 3),
        (4, 3, 0.9, 5, 7),
    )),
    # Access fixing leaves these roots sorted (k = 0), so aisle BFS, fixing
    # and replay do nearly all the work.
    "prepare-large": (("astar",), (
        (3, 12, 0.6, 10, 1),
        (3, 12, 0.6, 10, 2),
        (3, 10, 0.6, 10, 1),
        (3, 10, 0.4, 5, 2),
        (4, 8, 0.4, 5, 2),
    )),
}

#: Small instance solved by both solvers at the end of every traced pass, so
#: that every layer span fires on every workload.  It also is the whole
#: instance list in smoke mode.
PROBE = (4, 2, 0.9, 10, 8)
PROBE_ID = "probe"

#: Detail files (plans, samples, spans) go here, under the checkout's root.
OUT_DIR = ".perfbench_out"

#: Budget of each solver call; running out counts as a TimedOut failure.
SOLVE_TIMEOUT_S = 60.0

#: The reference loop: plain Python outside premarshal, so that no change to
#: the program changes it.  On a shared host the CPU runs it up to 1.7 times
#: faster in some spells of seconds than in others, and the program's own CPU
#: time swings with it.
REF_LOOPS = 10_000
#: CPU seconds the reference loop takes at the speed every time is scaled to:
#: a round figure for its 1.3-2.1 ms on a 2.1 GHz Xeon vCPU.
REF_NOMINAL_S = 0.002
#: The reference loop runs once per this many CPU seconds of the process.
PROBE_EVERY_S = 0.05

#: Spans that must fire on a workload's own instances (the probe aside).
PREPARE_SPANS = {
    "layout.build_layout", "layout.all_pairs_distances", "fixing.optimal_assignments",
    "fixing.select_assignment", "fixing.to_virtual_lanes", "pipeline.prepare",
    "model.state_key", "bounds.lb_state", "bounds.gx_bound", "astar.solve_astar",
    "verify.replay",
}
SEARCH_SPANS = {"model.legal_moves", "model.apply_move", "bounds.lb_incremental"}
EXPECTED_SPANS = {
    "astar-wide": PREPARE_SPANS | SEARCH_SPANS,
    "exact-deep": PREPARE_SPANS | SEARCH_SPANS | {"exact.solve_exact", "exact.complete_search"},
    "prepare-large": PREPARE_SPANS,
}


def instance_id(spec) -> str:
    bay, wh, fill, groups, seed = spec
    return f"{bay}x{bay}/{wh}x{wh}/{fill}/G{groups}/s{seed}"


def rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speedometer:
    """Times the reference loop every ``PROBE_EVERY_S`` of this process's CPU
    time, from a profiling-timer signal, so that even a sample of many
    seconds is scaled by the speed of the host all through it."""

    def __init__(self):
        self.refs: list[float] = []  # CPU seconds of each probe, in order
        self.spent = 0.0  # CPU seconds spent in probes so far
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _probe(self, *_) -> None:
        if self.busy:  # the timer fired again while this probe ran
            return
        self.busy = True
        started = time.thread_time()
        acc, table = 0, {}
        for i in range(REF_LOOPS):
            acc += i * i % 7
            table[i % 1000] = acc
        took = time.thread_time() - started
        self.refs.append(took)
        self.spent += took
        self.busy = False

    def clock(self) -> float:
        """CPU seconds of this process's only thread outside the probes.  The
        thread clock, because while the profiling timer is armed the process
        clock only moves at scheduler ticks."""
        return time.thread_time() - self.spent

    def ref(self, start: int, end: int | None = None) -> float:
        """Reference time for what ran between probes ``start`` and ``end``:
        the harmonic mean of the probes that fired then, or else of the one
        before; the nominal time if the meter never ran."""
        refs = self.refs[start:end] or self.refs[:start][-1:]
        if not refs:
            return REF_NOMINAL_S
        return len(refs) / sum(1 / r for r in refs)


def moves_digest(solution) -> str:
    text = ";".join(
        f"{m.from_lane},{m.to_lane},{m.from_pos},{m.to_pos},{m.distance}"
        for m in solution.moves
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_premarshal(root: Path):
    """Import premarshal from the checkout's own source tree."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import premarshal
    from premarshal import generate, pipeline, verify
    from premarshal.model import Infeasible, Solution, TimedOut

    if src not in Path(premarshal.__file__).resolve().parents:
        raise ImportError(f"premarshal was imported from {premarshal.__file__}, not {src}")
    return generate, pipeline, verify, (Solution, TimedOut, Infeasible)


@dataclass
class Case:
    """One instance with the solvers run on it."""

    cid: str
    algos: tuple[str, ...]
    instance: object = None
    error: str | None = None
    pinned: bool = False
    pins: dict = field(default_factory=dict)


@dataclass
class Tally:
    """Outcomes and times of the plans run so far."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)  # (instance, algo) -> plan summary
    times: dict = field(default_factory=dict)  # instance -> [(plan_s, verify_s), ...]
    refs: dict = field(default_factory=dict)  # instance -> [(plan, verify) reference times]

    def fail(self, reason: str, n: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + n

    def total(self, index: int) -> float:
        """Plan (0) or verify (1) seconds over the workload's own instances."""
        return sum(t[index] for cid, ts in self.times.items() if cid != PROBE_ID for t in ts)

    def median_total(self, index: int) -> float:
        """Sum over instances of the median of each instance's samples, each
        scaled to the reference speed."""
        return sum(statistics.median(t[index] * REF_NOMINAL_S / r[index]
                                     for t, r in zip(ts, self.refs[cid], strict=True))
                   for cid, ts in self.times.items())


class Bench:
    def __init__(self, root: Path, workload: str, smoke: bool, instance_seed: int | None,
                 meter: Speedometer):
        self.generate, self.pipeline, self.verify, kinds = load_premarshal(root)
        self.Solution, self.TimedOut, self.Infeasible = kinds
        self.workload = workload
        self.algos, specs = WORKLOADS[workload]
        if smoke:
            specs = (PROBE,)
        self.specs = specs
        self.instance_seed = instance_seed
        self.pins = json.loads((HERE / "pins.json").read_text())
        #: Plan and replay times are CPU times, with the probes of ``meter``
        #: left out.  The process does no I/O, so this is its wall time less
        #: the spells in which the host runs other processes.
        self.meter = meter

    def make_cases(self, with_probe: bool) -> list[Case]:
        """Generate every instance of the workload (this is the set-up)."""
        todo = []
        for spec in self.specs:
            cid = instance_id(spec)
            seed = spec[4]
            if self.instance_seed is not None:
                # A held-out instance of the same config: nothing is pinned.
                seed = random.Random(f"{self.instance_seed}/{cid}").randrange(1, 2**31)
                cid = instance_id(spec[:4] + (seed,))
            todo.append((cid, spec[:4] + (seed,), self.algos, self.instance_seed is None))
        if with_probe:
            todo.append((PROBE_ID, PROBE, ("astar", "exact"), True))
        cases = []
        for cid, (bay, wh, fill, groups, seed), algos, pinned in todo:
            case = Case(cid, algos, pinned=pinned)
            if pinned:
                case.pins = self.pins.get(instance_id((bay, wh, fill, groups, seed)), {})
            config = self.generate.GenConfig((bay, bay), (wh, wh), fill, groups, seed)
            try:
                case.instance = self.generate.generate(config)
            except self.generate.GenerationFailed:
                case.error = "GenerationFailed"
            except Exception:  # noqa: BLE001 - counted as a failure of the case
                traceback.print_exc()
                case.error = "exception"
            cases.append(case)
        return cases

    def run_pass(self, cases: list[Case], tracer: Tracer | None = None) -> Tally:
        out = Tally()
        for case in cases:
            with tracer.span("instance", case.cid) if tracer else nullcontext():
                self.run_case(case, out, tracer)
        return out

    def run_case(self, case: Case, out: Tally, tracer: Tracer | None) -> None:
        out.attempted += len(case.algos)
        if case.error is not None:
            out.fail(case.error, len(case.algos))
            return
        meter = self.meter
        clock = meter.clock
        results = {}
        plan_s = verify_s = 0.0
        try:
            with tracer.span("bench.plan") if tracer else nullcontext():
                plan_probe = len(meter.refs)
                started = clock()
                prepared = self.pipeline.prepare(case.instance)
                for algo in case.algos:
                    # The exact path is given the A* plan just computed, which is
                    # the bootstrap solve_instance would otherwise run itself.
                    result, _ = self.pipeline.solve_instance(
                        case.instance, algo, timeout_s=SOLVE_TIMEOUT_S, prepared=prepared,
                        ub_solution=results.get("astar"),
                    )
                    results[algo] = result
                    if not isinstance(result, self.Solution):
                        break
                plan_s = clock() - started
            reports = {}
            verify_probe = len(meter.refs)
            with tracer.span("bench.verify") if tracer else nullcontext():
                for algo, result in results.items():
                    if isinstance(result, self.Solution):
                        started = clock()
                        reports[algo] = self.verify.replay(
                            case.instance, prepared.assignments, result)
                        verify_s += clock() - started
        except Exception:  # noqa: BLE001 - counted as a failure of the case
            traceback.print_exc()
            out.fail("exception", len(case.algos))
            return
        out.times.setdefault(case.cid, []).append((plan_s, verify_s))
        out.refs.setdefault(case.cid, []).append(
            (meter.ref(plan_probe, verify_probe), meter.ref(verify_probe)))
        for algo in case.algos:
            reason = self.check(case, algo, results, reports)
            if reason is not None:
                out.fail(reason)
                print(f"[perfbench] {case.cid} {algo}: {reason}", file=sys.stderr)
        for algo, result in results.items():
            if isinstance(result, self.Solution):
                out.records[case.cid, algo] = {
                    "instance": case.cid, "algo": algo, "k": result.k,
                    "total_distance": result.total_distance,
                    "moves_sha": moves_digest(result),
                    "nodes": result.stats.nodes_evaluated,
                }

    def check(self, case: Case, algo: str, results: dict, reports: dict) -> str | None:
        """Failure reason of one plan, or None when it is correct."""
        result = results.get(algo)
        if result is None:
            return "not-run"  # an earlier solver of the case failed
        if isinstance(result, self.TimedOut):
            return "TimedOut"
        if isinstance(result, self.Infeasible):
            return "Infeasible"
        report = reports[algo]
        if not report.ok:
            return "replay:" + ",".join(v["code"] for v in report.violations)
        if case.pinned:
            got = {"k": result.k, "total_distance": result.total_distance,
                   "moves_sha": moves_digest(result)}
            if algo not in case.pins:
                return "unpinned"
            if got != case.pins[algo]:
                return "pin-mismatch"
        if algo == "exact":
            ub = results["astar"]
            if result.k != ub.k or result.total_distance > ub.total_distance:
                return "solver-disagreement"
        return None


def layer_metrics(spans, traced: Tally, untraced: Tally, import_rss: float,
                  root: Path) -> dict:
    """Per-layer figures of one traced pass, as name -> (value, unit)."""
    m = {}
    for module, fn in TRACED:
        name = f"{module}.{fn}"
        m[f"{name}.s"] = (sp.total(spans, name), "s")
        if name != "exact.complete_search":
            m[f"{name}.calls"] = (sp.calls(spans, name), "count")
    records = traced.records.values()
    expanded = sum(r["nodes"] for r in records if r["algo"] == "astar")
    children = sp.calls(spans, "model.apply_move", under="astar.solve_astar")
    exact_children = sp.calls(spans, "model.apply_move", under="exact.solve_exact")
    rebuilt = ("layout.build_layout", "layout.all_pairs_distances", "fixing.to_virtual_lanes")
    m.update({
        "layout.access_points": (
            sp.count(spans, "layout.build_layout", under="pipeline.prepare"), "count"),
        "model.legal_moves.moves": (sp.count(spans, "model.legal_moves"), "count"),
        "astar.expanded": (expanded, "count"),
        "astar.children": (children, "count"),
        "astar.expanded_per_child": (expanded / children, "ratio"),
        "astar.self_s": (sp.self_time(spans, "astar."), "s"),
        "exact.stages": (sp.calls(spans, "exact.complete_search"), "count"),
        # One complete_search span per solve_exact call; its latest call is
        # the final k-bar stage.
        "exact.final_stage_s": (
            sum(s.last for s in sp.matching(spans, "exact.complete_search")), "s"),
        "exact.nodes": (sum(r["nodes"] for r in records if r["algo"] == "exact"), "count"),
        "exact.moves_per_child": (
            sp.count(spans, "model.legal_moves", under="exact.solve_exact") / exact_children,
            "ratio"),
        "exact.self_s": (sp.self_time(spans, "exact."), "s"),
        "verify.replay.moves": (sum(r["k"] for r in records), "count"),
        "verify.rebuild_s": (
            sum(sp.total(spans, n, under="verify.replay") for n in rebuilt), "s"),
        "trace.overhead": (traced.total(0) / untraced.total(0), "ratio"),
        "import_rss_mb": (import_rss, "MB"),
        "src_lines": (sum(len(p.read_text().splitlines())
                          for p in sorted((root / "src").rglob("*.py"))), "count"),
    })
    return m


def shares(spans) -> dict:
    """What a traced pass says each workload is for; printed, not gated."""
    own = [s for s in spans if s.instance not in (None, PROBE_ID)]
    # Denominators from the spans too, so that both sides use the same clock.
    plan = sum(s.total for s in own if s.name == "bench.plan")
    verify = sum(s.total for s in own if s.name == "bench.verify")

    def under(phase, modules=None, name=None):
        return sum(s.total for s in own if s.parent.name == phase
                   and (modules is None or s.name.split(".")[0] in modules)
                   and (name is None or s.name == name))

    exact_children = {}
    for s in own:
        if s.parent.name.startswith("exact.") and not s.name.startswith("exact."):
            exact_children[s.name] = exact_children.get(s.name, 0.0) + s.total
    gx_share = {}
    for s in own:
        if s.name == "astar.solve_astar" and s.total > 0:
            gx = sum(g.total for g in sp.matching(spans, "bounds.gx_bound") if s in g.ancestors())
            gx_share[s.instance] = gx / s.total
    apd = "layout.all_pairs_distances"
    return {
        "plan_s": plan,
        "search_share_of_plan": under("bench.plan", {"model", "bounds", "astar"}) / plan,
        "exact_share_of_plan": under("bench.plan", {"exact"}) / plan,
        "prepare_share_of_plan": under("bench.plan", {"pipeline"}) / plan,
        "apd_share_of_plan": under("pipeline.prepare", name=apd) / plan,
        "apd_share_of_verify": under("verify.replay", name=apd) / verify,
        "exact_children_s": dict(sorted(exact_children.items(), key=lambda kv: -kv[1])),
        "gx_share_of_astar": gx_share,
    }


def traced_run(bench: Bench, order_seed: int, import_rss: float, root: Path) -> dict:
    """Traced pass, untraced pass, traced pass: the untraced one sits in the
    middle so that its place in the process does not bias the overhead."""
    cases = bench.make_cases(with_probe=False)
    random.Random(order_seed).shuffle(cases)
    tracer = Tracer()
    traced = []
    untraced = None
    for _ in range(2):
        tracer.install()
        try:
            tracer.reset()
            with tracer.span("bench.setup"):
                traced_cases = bench.make_cases(with_probe=True)
            random.Random(order_seed).shuffle(traced_cases)
            traced_cases.sort(key=lambda c: c.cid == PROBE_ID)  # the probe goes last
            traced.append((bench.run_pass(traced_cases, tracer), tracer.spans))
        finally:
            tracer.uninstall()
        if untraced is None:
            untraced = bench.run_pass(cases)
    (first, spans), (second, spans2) = traced
    m1 = layer_metrics(spans, first, untraced, import_rss, root)
    m2 = layer_metrics(spans2, second, untraced, import_rss, root)
    problems = {}
    fired = {s.name for s in spans if s.instance not in (None, PROBE_ID)}
    for name in sorted(EXPECTED_SPANS[bench.workload] - fired):
        problems[f"span-missing:{name}"] = 1
    for name, (value, unit) in m1.items():
        if unit == "count" and value != m2[name][0]:
            problems[f"count-differs:{name}"] = 1
    metrics = {
        name: (value if unit == "count" else statistics.mean([value, m2[name][0]]), unit)
        for name, (value, unit) in m1.items()
    }
    return {
        "tallies": [first, untraced, second],
        "problems": problems,
        "metrics": metrics,
        "shares": shares(spans),
        "spans": [s.to_json() for s in spans],
    }


def timed_run(bench: Bench, cases: list[Case], order_seed: int, seconds: float) -> dict:
    """Every case once, in a seeded order, then round again case by case for
    as long as the next case is expected to end within ``seconds``."""
    random.Random(order_seed).shuffle(cases)
    tally = Tally()
    took = {}
    started = time.perf_counter()
    for n in itertools.count():
        case = cases[n % len(cases)]
        if n >= len(cases) and time.perf_counter() - started + took[case.cid] > seconds:
            break
        case_start = time.perf_counter()
        bench.run_case(case, tally, None)
        took[case.cid] = time.perf_counter() - case_start
    return {"tallies": [tally], "problems": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    meter = Speedometer()
    if not args.trace:
        meter.start()
    try:
        report = run_workload(args, args.root.resolve(), meter)
    finally:
        # Off before the interpreter drops the handler, or a SIGPROF would
        # end the process.
        meter.stop()
    print(json.dumps(report))
    return 0


def run_workload(args, root: Path, meter: Speedometer) -> dict:
    """The report of one process: set-up only, a timed run or a traced run."""
    bench = Bench(root, args.workload, args.smoke, args.instance_seed, meter)
    import_rss = rss_mb()
    cases = None if args.trace else bench.make_cases(with_probe=False)
    # CPU time since the process started: interpreter start, imports, generation.
    report = {"setup_cpu_s": meter.clock(), "import_rss_mb": import_rss}
    if not args.trace:
        report["setup_ref_s"] = meter.ref(0)
        report["setup_s"] = report["setup_cpu_s"] * REF_NOMINAL_S / report["setup_ref_s"]
    if args.setup_only:
        return report

    if args.trace:
        run = traced_run(bench, args.seed, import_rss, root)
    else:
        run = timed_run(bench, cases, args.seed, 0.0 if args.smoke else args.seconds)
    tallies = run["tallies"]
    failures = dict(run["problems"])
    for tally in tallies:
        for reason, n in tally.failures.items():
            failures[reason] = failures.get(reason, 0) + n
    report.update({
        "peak_rss_mb": rss_mb(),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(failures.values()),
        "failures": failures,
        "samples": [t.times for t in tallies],
        "refs": tallies[0].refs,
    })
    if args.trace:
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
        report["shares"] = run["shares"]
    else:
        report["plan_s"] = tallies[0].median_total(0)
        report["verify_s"] = tallies[0].median_total(1)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    detail = dict(report, plans=list(tallies[-1].records.values()), spans=run.get("spans"))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(detail, indent=1))
    return report


if __name__ == "__main__":
    sys.exit(main())
