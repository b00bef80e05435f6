"""One workload run in a fresh process.

The process imports ``plurigenera`` from the checkout, builds the
workload's inputs and records the set-up time, measured from the moment
the parent started it.  Unless ``--mode setup`` stops it there, it then
runs the timed call (with the layer tracer installed for ``--mode
trace``), checks the outputs outside the timed region, and prints one
JSON line.  ``run.py`` starts these processes; it is not meant to be
run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_checkout_package():
    """Import ``plurigenera`` from this checkout's ``src``, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import plurigenera

    found = Path(plurigenera.__file__).resolve().parent
    if found != SRC / "plurigenera":
        raise ImportError(f"plurigenera imported from {found}, not from {SRC}")
    return plurigenera


def run(workload_name: str, seed: int, size: str, mode: str, started: float) -> dict:
    import_checkout_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.build(seed, size)
    result = {"setup_s": time.monotonic() - started}
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(inputs)
        else:
            with tracer:
                outcome = workload.run(inputs)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        outcome, error = None, traceback.format_exc()
    solve_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest, latencies = None, [solve_s]
    if outcome is None:
        attempted, failed, failures = 1, 1, [error]
    else:
        latencies = outcome.latencies
        try:
            attempted, failures = workload.check(inputs, outcome)
            failed = len(failures)
            report = json.dumps(workload.report(inputs, outcome), sort_keys=True)
            digest = hashlib.sha256(report.encode()).hexdigest()
        except Exception:  # noqa: BLE001 - output the checks cannot read fails them all
            attempted = failed = max(1, len(outcome.outputs))
            failures = [traceback.format_exc()]
    result.update(
        solve_s=solve_s,
        latencies=latencies,
        peak_rss_mb=rss_mb,
        attempted=attempted,
        failed=failed,
        failures=failures,
        report_sha256=digest,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_rows()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--mode", choices=("setup", "solve", "trace"), required=True)
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() of the parent when it started this process",
    )
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.size, args.mode, args.started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
