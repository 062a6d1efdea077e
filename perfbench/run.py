"""Benchmark of the premarshal pipeline: one workload per call, or a smoke check.

Run from the root of a checkout (the directory holding ``src/premarshal``):

    python3 perfbench/run.py --workload astar-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload exact-deep --seed 1 --trace 1
    python3 perfbench/run.py --smoke

The workload runs in a fresh single-threaded process (``workload.py``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seed`` sets the order in which the pinned instances run;
``--instance-seed`` swaps each pinned instance for a held-out one of the
same config.  ``--smoke`` runs every workload in both modes on one small
instance and checks that the metric names and units match BENCHMARK.json.
Detail files (plans, samples, spans) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_PY = HERE / "workload.py"
WORKLOADS = ("astar-wide", "exact-deep", "prepare-large")

#: Fresh processes that only import and generate, besides the measured one;
#: set-up time is the median over all of them.
SETUP_SAMPLES = 4
#: A run ends within this many seconds or gives up without a result.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_child(root: Path, args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, "-I", str(WORKLOAD_PY), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process ran past {RUN_LIMIT_S:.0f} s: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            instance_seed: int | None, smoke: bool, deadline: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if instance_seed is not None:
        args += ["--instance-seed", str(instance_seed)]
    if smoke:
        args.append("--smoke")
    setup, setup_raw = [], []

    def sample_setup(n):
        for _ in range(n):
            sample = run_child(root, [*args, "--setup-only"], deadline)
            setup.append(sample["setup_s"])
            setup_raw.append((sample["setup_cpu_s"], sample["setup_ref_s"]))

    # Set-up samples are taken before and after the measured process, so that
    # they do not all fall into one slow or fast spell of the machine.
    samples = 0 if trace or smoke else SETUP_SAMPLES
    sample_setup(samples // 2)
    report = run_child(root, args, deadline)
    if not trace:
        setup.append(report["setup_s"])
        setup_raw.append((report["setup_cpu_s"], report["setup_ref_s"]))
    sample_setup(samples - samples // 2)

    attempted, failed = report["attempted"], report["failed"]
    if trace:
        metrics = report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "plan_s": {"value": report["plan_s"], "unit": "s"},
            "verify_s": {"value": report["verify_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    want = declared(root, trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, units {got} vs {want}")

    print(f"workload {workload}, order seed {seed}, trace {trace}")
    if not trace:
        print("  CPU seconds / reference loop ms of each sample")
        print("  set-up: " + ", ".join(f"{c:.3f}/{r * 1e3:.2f}" for c, r in setup_raw))
        for cid, times in report["samples"][0].items():
            refs = report["refs"][cid]
            print(f"  {cid}: plan, verify " + ", ".join(
                f"{p:.3f}/{rp * 1e3:.2f}, {v:.3f}/{rv * 1e3:.2f}"
                for (p, v), (rp, rv) in zip(times, refs)))
        print(f"  peak RSS {report['peak_rss_mb']:.1f} MB beside an import-only "
              f"baseline of {report['import_rss_mb']:.1f} MB")
    else:
        print("  shares: " + json.dumps(report["shares"], sort_keys=True))
    print(f"  plans attempted {attempted}, failed {failed}"
          + (f" by reason {report['failures']}" if failed else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (root / "src" / "premarshal" / "__init__.py").is_file():
            raise BenchError(f"no src/premarshal under {root}; run from a checkout's root")
        if not args.smoke:
            result = measure(root, args.workload, args.seed, args.seconds, args.trace,
                             args.instance_seed, False, deadline)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = measure(root, workload, args.seed, 0, trace, None, True, deadline)
                ok = ok and result["correct"]
                print(json.dumps({"workload": workload, "trace": trace, "result": result}))
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
