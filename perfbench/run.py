"""domcert benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1

Each workload runs in its own fresh child interpreter (perfbench/workloads.py),
one at a time, single-threaded, against the package in src/ (no install).
The output is one line per metric with its unit and sample count, the
determinism digest, the line count of src/, and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from tracer import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify", "cli-mix", "dominate-large")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 160  # leaves room for set-up within the 180 s a run may take

# What a user waits for: import plus the first corpus load, in a fresh interpreter.
SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import domcert\n"
    "domcert.corpus_graphs()\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str]) -> str:
    """Run one child interpreter to completion and return its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}")
    return proc.stdout


def measure_setup() -> list[float]:
    return [float(run_child(["-c", SETUP_SNIPPET]).strip()) for _ in range(SETUP_RUNS)]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(child: dict, setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count).

    Latency percentiles are taken within each pass and then their median over
    the passes, so one slow stretch of a shared machine moves one pass only.
    """
    passes = child["pass_s"]
    per_pass = [sorted(one_pass) for one_pass in child["latencies_s"]]
    requests = sum(len(one_pass) for one_pass in per_pass)
    busy = sum(passes)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(passes), "s", len(passes)),
        "req_p50_ms": (1000 * statistics.median(map(statistics.median, per_pass)), "ms", requests),
        "req_p99_ms": (
            1000 * statistics.median(nearest_rank(one, 0.99) for one in per_pass), "ms", requests
        ),
        "req_per_s": (requests / busy, "1/s", requests),
        "vertices_per_s": (child["vertices_per_pass"] * len(passes) / busy, "1/s", len(passes)),
        "peak_rss_mb": (child["peak_rss_kib"] / 1024, "MB", 1),
    }


def per_layer(child: dict) -> dict[str, tuple[float, str, int]]:
    values = child["trace"]["metrics"]
    return {name: (values[name], unit, 1) for name, unit, _ in PER_LAYER}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def run_workload(name: str, seed: int, seconds: int, trace: int):
    """Returns (metrics, child result) and prints the human-readable lines."""
    if not os.path.isdir(os.path.join(SRC, "domcert")):
        raise BenchError(f"no domcert package under {SRC}")
    setup = [] if trace else measure_setup()
    out = run_child(
        [os.path.join(HERE, "workloads.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)]
    )
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"workload {name} printed no result") from exc
    metrics = per_layer(child) if trace else end_to_end(child, setup)

    print(f"# workload {name}  seed {seed}  passes {len(child['pass_s'])}  trace {trace}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:<52} {value:>14.6g} {unit:<6} (n={samples})")
    print(f"  {'fail_ratio':<52} {child['failed'] / child['attempted']:>14.6g} ratio  "
          f"({child['failed']}/{child['attempted']} operations failed)")
    if trace:
        info = child["trace"]
        untraced = statistics.median(child["pass_s"])
        print(f"  tracing: {info['spans']} spans over {info['bindings']} bindings, "
              f"written to {info['spans_file']}")
        print(f"  tracing overhead: wall_s {untraced:.4f} -> {info['traced_pass_s']:.4f}; "
              f"req_per_s {info['traced_requests'] / untraced:.4g} -> "
              f"{info['traced_requests'] / info['traced_pass_s']:.4g}; "
              f"vertices_per_s {info['traced_vertices'] / untraced:.4g} -> "
              f"{info['traced_vertices'] / info['traced_pass_s']:.4g}")
        print(f"  traced call counts digest: {info['counts_digest']}")
    print(f"  output digest: {child['digest']}")
    print(f"  src lines (information only): {src_lines()}")
    for problem in child["problems"]:
        print(f"  PROBLEM: {problem}")
    return metrics, child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="domcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            values, child = run_workload(name, args.seed, args.seconds, args.trace)
            prefix = "" if args.workload else f"{name}."
            metrics.update(
                {prefix + metric: {"value": value, "unit": unit}
                 for metric, (value, unit, _) in values.items()}
            )
            correct = correct and child["correct"]
            attempted += child["attempted"]
            failed += child["failed"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
