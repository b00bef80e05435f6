"""Run one benchmark workload of ``plurigenera`` and print its metrics.

    python3 perfbench/run.py --workload sweep-certified --seed 1 --seconds 60 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``.  Every timed call runs in a fresh process, so each
sample pays the cold ``lru_cache`` fill that every CLI invocation pays.

``--trace 0`` prints the end-to-end metrics.  It first starts
``SETUP_SAMPLES`` processes that only import the package and build the
inputs; then it runs timed processes one after another, starting another
only while one as long as the slowest so far still ends within
``--seconds`` of the start, and runs at least one.  ``solve_s`` and the
latency percentiles are means over the run's timed processes of each
process's figure; ``setup_s`` and ``peak_rss_mb`` are medians.

``--trace 1`` prints the per-layer metrics.  It runs the workload once
untraced and once with the layer tracer, each in its own process, and
reports the ratio of the two solve times as ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say how many samples each figure rests on, the ``report_sha256`` of
each workload's report and, when traced, the slowest spans.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-certified", "query-mix")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run stays under this, whatever --seconds says
SPAN_ROWS_SHOWN = 20

END_TO_END_UNITS = {
    "solve_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to the program failing a
    check, which is reported in the result)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def start_worker(workload: str, seed: int, size: str, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--mode", mode,
        "--started", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} process for {workload} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int, size: str, deadline: float):
    run_end = min(deadline, time.monotonic() + seconds)
    setups = [
        start_worker(workload, seed, size, "setup", deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    samples, longest = [], 0.0
    while True:
        started = time.monotonic()
        samples.append(start_worker(workload, seed, size, "solve", deadline))
        now = time.monotonic()
        longest = max(longest, now - started)
        if now + longest > run_end:
            break
    setups += [s["setup_s"] for s in samples]
    # The machine switches between a fast and a slow state every few
    # seconds to minutes.  A median over the run's few processes jumps to
    # whichever state held most of the run; their mean weighs each state
    # by the time it held, and varies less from run to run.
    metrics = {
        "solve_s": statistics.fmean(s["solve_s"] for s in samples),
        "query_p50_ms": 1e3 * statistics.fmean(
            statistics.median(s["latencies"]) for s in samples
        ),
        "query_p99_ms": 1e3 * statistics.fmean(
            percentile(s["latencies"], 0.99) for s in samples
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    calls = len(samples[0]["latencies"])
    print(
        f"samples: solve_s {len(samples)} processes, query latency "
        f"{len(samples)} processes of {calls} calls, setup_s {len(setups)} "
        f"processes, peak_rss_mb {len(samples)} processes"
    )
    print("solve_s per process: " + " ".join(f"{s['solve_s']:.4f}" for s in samples))
    return samples, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload: str, seed: int, size: str, deadline: float):
    from tracer import PER_LAYER

    plain = start_worker(workload, seed, size, "solve", deadline)
    traced = start_worker(workload, seed, size, "trace", deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["solve_s"] / plain["solve_s"]
    print(
        f"samples: 1 untraced process ({plain['solve_s']:.3f} s), "
        f"1 traced process ({traced['solve_s']:.3f} s)"
    )
    print("slowest spans (layer <- parent: calls, self s, total s):")
    for row in traced["spans"][:SPAN_ROWS_SHOWN]:
        print(
            f"  {row['layer']} <- {row['parent']}: {row['calls']}, "
            f"{row['self_s']:.4f}, {row['total_s']:.4f}"
        )
    return [plain, traced], {name: (layers[name], unit) for name, unit in PER_LAYER}


def baseline_digest(workload: str, seed: int) -> str | None:
    """The report digest recorded in baseline.json: one per sweep, one per
    recorded seed for query-mix."""
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    entry = json.loads(path.read_text())["report_sha256"].get(workload)
    return entry.get(str(seed)) if isinstance(entry, dict) else entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs every workload on small inputs, for the self-tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plurigenera" / "__init__.py").is_file():
        print(f"no plurigenera sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            samples, metrics = per_layer(args.workload, args.seed, args.size, deadline)
        else:
            samples, metrics = end_to_end(
                args.workload, args.seed, args.seconds, args.size, deadline
            )
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    digests = sorted({s["report_sha256"] for s in samples}, key=str)
    expected = baseline_digest(args.workload, args.seed) if args.size == "full" else None
    for digest in digests:
        note = "" if expected is None else (
            " (same as baseline)" if digest == expected else " (differs from baseline)"
        )
        print(f"report_sha256 {digest}{note}")
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted})")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
