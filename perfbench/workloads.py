"""The benchmark's workloads: how each builds its inputs, the timed call
into the package's public API, the report that call produces, and the
output checks that run after the timed region.

The caller puts the checkout's ``src`` directory on ``sys.path`` before
importing this module.  The timed calls look every package function up
through its module at call time, so a tracer that patches module
attributes sees them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable

import plurigenera.verifier as verifier
from plurigenera import (
    EnumerationBounds,
    FibrationNumericalType,
    FibreDatum,
    InadmissibleTypeError,
)


@dataclass(frozen=True)
class Outcome:
    """What the timed region produced: one output per operation and the
    wall time of each operation in seconds."""

    outputs: list
    latencies: list[float]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], Any]
    run: Callable[[Any], Outcome]
    report: Callable[[Any, Outcome], Any]
    check: Callable[[Any, Outcome], tuple[int, list[str]]]


def _timed_single(call: Callable[[], Any]) -> Outcome:
    start = time.perf_counter()
    out = call()
    return Outcome([out], [time.perf_counter() - start])


# ---------------------------------------------------------------------------
# direct plurigenus arithmetic, independent of the package's QuasiLinearForm


def direct_plurigenus(ty: dict, n: int) -> int:
    """P_n = max(0, 1 + n*d + sum floor(n*a/m)) on a genus-zero base."""
    d = 2 * ty["g"] - 2 + ty["chi"] + sum(f["t"] for f in ty["fibres"])
    return max(0, 1 + n * d + sum(n * f["a"] // f["m"] for f in ty["fibres"]))


def direct_tail_at_least_two(ty: dict) -> bool:
    """Scan P_n >= 2 over n in [14, 14 + 2*lcm], stopping early once the
    linear envelope 1 + n*slope - sum (m-1)/m alone guarantees P_n >= 2.
    Only called on admissible types, whose slope is positive."""
    fibres = ty["fibres"]
    d = 2 * ty["g"] - 2 + ty["chi"] + sum(f["t"] for f in fibres)
    growth = d + sum(Fraction(f["a"], f["m"]) for f in fibres)
    loss = sum(Fraction(f["m"] - 1, f["m"]) for f in fibres)
    period = lcm(1, *(f["m"] for f in fibres))
    envelope = -((-(1 + loss)) // growth)  # ceil((1 + loss) / growth)
    upto = min(14 + 2 * period, max(14, envelope))
    return all(direct_plurigenus(ty, n) >= 2 for n in range(14, upto + 1))


def _tame_multiplicities(ty: dict) -> tuple[int, ...] | None:
    if ty["g"] != 0 or ty["chi"] != 0 or ty["quasi_elliptic"]:
        return None
    if any(f["t"] != 0 for f in ty["fibres"]):
        return None
    return tuple(sorted(f["m"] for f in ty["fibres"]))


# ---------------------------------------------------------------------------
# certified sweep


CERTIFIED_BOUNDS = {
    "full": EnumerationBounds(),
    "tiny": EnumerationBounds(10, 4, 3, (0, 2)),
}


def _certified_check(_bounds, outcome: Outcome) -> tuple[int, list[str]]:
    """A sweep is one operation: it fails if any of its checks fail."""
    report = outcome.outputs[0]
    failures = []
    if report["counterexamples"]:
        failures.append(f"{len(report['counterexamples'])} counterexamples")
    if report["replay_failures"]:
        failures.append(f"{len(report['replay_failures'])} replay failures")
    bad = [c["name"] for c in report["certified_classes"] if not c["statements_ok"]]
    if bad:
        failures.append(f"certificates failing their statements: {bad}")
    ext = report["extremes"]
    if ext["max_first_nonzero"] != 4:
        failures.append(f"max_first_nonzero {ext['max_first_nonzero']} != 4")
    if ext["max_first_ge2"] != 8:
        failures.append(f"max_first_ge2 {ext['max_first_ge2']} != 8")
    if (2, 5, 10) not in {
        _tame_multiplicities(t) for t in ext["max_first_ge2_attainers"]
    }:
        failures.append("(2,5,10) is not among the max_first_ge2 attainers")
    return 1, ["; ".join(failures)] if failures else []


SWEEP_CERTIFIED = Workload(
    name="sweep-certified",
    build=lambda seed, size: CERTIFIED_BOUNDS[size],
    run=lambda bounds: _timed_single(lambda: verifier.verify_all(bounds)),
    report=lambda _bounds, outcome: outcome.outputs[0],
    check=_certified_check,
)


# ---------------------------------------------------------------------------
# query mix

QUERY_COUNTS = {"full": 30_000, "tiny": 300}


def _wild_fibre(rng: random.Random, p: int) -> FibreDatum:
    e = rng.choice((1, 1, 2))
    nu = rng.randint(1, 6)
    t = rng.choice((1, 1, 2))
    m = nu * p**e
    choices = [m - 1, m - 1 - nu, m - 1 - 2 * nu, m - 1 - (p + 1) * nu]
    a = rng.choice([c for c in choices if c >= 0] + [rng.randrange(m)])
    return FibreDatum(m=m, a=a, nu=nu, e=e, t=t)


def random_request(rng: random.Random) -> FibrationNumericalType:
    """One single-type request: a tame type (possibly on a genus-one base
    or quasi-elliptic) or a wild fibre with up to three tame companions."""
    # The chi weights leave about 40 % of the requests inadmissible.  Those
    # are rejected several times faster than an admissible request is
    # answered, so the median latency must fall inside the admissible
    # requests, not in the gap between the two groups, to stay steady.
    if rng.random() < 0.7:
        p = rng.choice((0, 2, 3, 5))
        quasi = p in (2, 3) and rng.random() < 0.1
        return FibrationNumericalType(
            p=p,
            g=1 if rng.random() < 0.15 else 0,
            chi=rng.choices((0, 1, 2), weights=(2, 3, 3))[0],
            quasi_elliptic=quasi,
            fibres=tuple(
                FibreDatum.tame(rng.randint(2, 30)) for _ in range(rng.randint(1, 6))
            ),
        )
    p = rng.choice((2, 3, 5))
    tame = tuple(FibreDatum.tame(rng.randint(2, 30)) for _ in range(rng.randint(0, 3)))
    return FibrationNumericalType(
        p=p,
        g=0,
        chi=rng.choice((0, 1)),
        quasi_elliptic=False,
        fibres=(_wild_fibre(rng, p),) + tame,
    )


def build_queries(seed: int, size: str) -> list[FibrationNumericalType]:
    rng = random.Random(seed)
    return [random_request(rng) for _ in range(QUERY_COUNTS[size])]


def _run_queries(requests) -> Outcome:
    """A closed loop with one client: each request starts when the
    previous one has returned."""
    outputs, latencies = [], []
    clock = time.perf_counter
    for ty in requests:
        start = clock()
        try:
            main = verifier.verify_main_theorem(ty)
            tail = verifier.verify_tail(ty, 14, 2) if ty.g == 0 else None
            out = ("ok", main, tail)
        except InadmissibleTypeError as exc:
            out = ("inadmissible", exc.violations)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            out = ("error", repr(exc))
        latencies.append(clock() - start)
        outputs.append(out)
    return Outcome(outputs, latencies)


def _query_report(_requests, outcome: Outcome) -> list:
    rows = []
    for out in outcome.outputs:
        if out[0] == "ok":
            rows.append({"main": out[1].to_dict(), "tail": out[2]})
        elif out[0] == "inadmissible":
            rows.append({"violations": list(out[1])})
        else:
            rows.append({"error": out[1]})
    return rows


def _query_failure(ty: FibrationNumericalType, out) -> str | None:
    if out[0] == "inadmissible":
        return None
    if out[0] == "error":
        return out[1]
    _, main, tail = out
    d = ty.to_dict()
    if ty.g != 0:
        return None if not main.exact else "positive-genus report marked exact"
    expected = direct_tail_at_least_two(d)
    if main.stmt4 != expected or tail != expected:
        return f"stmt4 {main.stmt4} / tail {tail}, direct scan {expected}"
    if main.p12 != direct_plurigenus(d, 12):
        return f"p12 {main.p12} != {direct_plurigenus(d, 12)}"
    return None


def _query_check(requests, outcome: Outcome) -> tuple[int, list[str]]:
    failures = []
    for i, (ty, out) in enumerate(zip(requests, outcome.outputs)):
        reason = _query_failure(ty, out)
        if reason is not None:
            failures.append(f"request {i}: {reason}")
    if len(outcome.outputs) != len(requests):
        failures.append(f"{len(outcome.outputs)} answers for {len(requests)} requests")
    return len(requests), failures


QUERY_MIX = Workload(
    name="query-mix",
    build=build_queries,
    run=_run_queries,
    report=_query_report,
    check=_query_check,
)


WORKLOADS = {w.name: w for w in (SWEEP_CERTIFIED, QUERY_MIX)}
