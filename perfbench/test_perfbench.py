"""Self-tests of the benchmark, kept apart from the package's own suite.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from worker import import_checkout_package  # noqa: E402

import_checkout_package()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from plurigenera.congruence import QuasiLinearForm  # noqa: E402
from plurigenera.model import FibrationNumericalType, FibreDatum  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_file_names_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert run.WORKLOADS == tuple(wl.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in tracer.PER_LAYER]


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = _run_benchmark(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("report_sha256 ") for line in lines)


def test_run_without_the_package_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(
        "--workload", "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _failed_ratio(workload: wl.Workload, inputs, outcome: wl.Outcome) -> float:
    attempted, failures = workload.check(inputs, outcome)
    return len(failures) / attempted


def test_corrupted_sweep_report_raises_failed_ratio():
    bounds = wl.CERTIFIED_BOUNDS["tiny"]
    outcome = wl.SWEEP_CERTIFIED.run(bounds)
    assert _failed_ratio(wl.SWEEP_CERTIFIED, bounds, outcome) == 0
    report = copy.deepcopy(outcome.outputs[0])
    report["extremes"]["max_first_ge2_attainers"] = []
    corrupted = wl.Outcome([report], outcome.latencies)
    assert _failed_ratio(wl.SWEEP_CERTIFIED, bounds, corrupted) == 1

    report = copy.deepcopy(outcome.outputs[0])
    report["replay_failures"].append({"type": None, "claims": ["injected"]})
    corrupted = wl.Outcome([report], outcome.latencies)
    assert _failed_ratio(wl.SWEEP_CERTIFIED, bounds, corrupted) == 1


def test_corrupted_query_answer_raises_failed_ratio():
    requests = wl.build_queries(3, "tiny")
    outcome = wl.QUERY_MIX.run(requests)
    assert _failed_ratio(wl.QUERY_MIX, requests, outcome) == 0
    assert any(out[0] == "inadmissible" for out in outcome.outputs)
    i = next(
        i for i, (ty, out) in enumerate(zip(requests, outcome.outputs))
        if out[0] == "ok" and ty.g == 0
    )
    _, main, tail = outcome.outputs[i]
    outputs = list(outcome.outputs)
    outputs[i] = ("ok", dataclasses.replace(main, stmt4=not main.stmt4), tail)
    corrupted = wl.Outcome(outputs, outcome.latencies)
    assert _failed_ratio(wl.QUERY_MIX, requests, corrupted) == 1 / len(requests)


def test_output_the_checks_cannot_read_counts_as_failed(monkeypatch):
    broken = dataclasses.replace(wl.SWEEP_CERTIFIED, run=lambda _bounds: wl.Outcome([{}], [0.0]))
    monkeypatch.setitem(wl.WORKLOADS, "sweep-certified", broken)
    result = worker.run("sweep-certified", 1, "tiny", "solve", time.monotonic())
    assert result["attempted"] == result["failed"] == 1
    assert "KeyError" in result["failures"][0]


def test_same_seed_gives_same_queries():
    assert wl.build_queries(5, "tiny") == wl.build_queries(5, "tiny")
    assert wl.build_queries(5, "tiny") != wl.build_queries(6, "tiny")


def _package_attributes() -> dict:
    owners = [
        m for name, m in sys.modules.items()
        if name == "plurigenera" or name.startswith("plurigenera.")
    ]
    owners += [QuasiLinearForm, FibreDatum, FibrationNumericalType]
    return {owner: dict(vars(owner)) for owner in owners}


def _same_attributes(before: dict, after: dict) -> bool:
    return all(
        before[owner].keys() == after[owner].keys()
        and all(after[owner][k] is v for k, v in before[owner].items())
        for owner in before
    ) and before.keys() == after.keys()


def test_traced_run_restores_package_attributes():
    before = _package_attributes()
    trace = tracer.Tracer()
    with trace:
        assert not _same_attributes(before, _package_attributes())
        wl.SWEEP_CERTIFIED.run(wl.CERTIFIED_BOUNDS["tiny"])
        wl.QUERY_MIX.run(wl.build_queries(1, "tiny"))
    assert _same_attributes(before, _package_attributes())
    metrics = trace.metrics()
    assert metrics["verifier.is_admissible.calls"] > 0
    assert metrics["model.plurigenus.calls"] > 0
    assert metrics["verifier.cell.count"] > 0
    assert set(metrics) == {n for n, _ in tracer.PER_LAYER} - {"trace.overhead_ratio"}


def test_tracer_restores_attributes_when_the_call_raises():
    before = _package_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert _same_attributes(before, _package_attributes())
