"""Self-tests of the benchmark at a tiny scale of each workload.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

TINY_SECONDS = 0.4
# More instances than full set-ups, so some get no warm-up job.
TINY_INSTANCES = bench.SETUP_REPEATS + 1


@pytest.fixture(scope="module")
def traced_results() -> dict:
    return {
        name: bench.run_workload(
            name, 7, TINY_SECONDS, trace=True, tiny=True, count=TINY_INSTANCES
        )
        for name in WORKLOAD_NAMES
    }


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert tuple(bench.WORKLOADS) == WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(traced_results, name):
    result = traced_results[name]
    assert result["failed"] == 0, result["failures"]
    for trace, reported in ((False, END_TO_END), (True, PER_LAYER)):
        lines, final = run.report(result, peak_rss_mb=12.5, trace=trace)
        text = "\n".join(lines)
        for metric, unit in {**END_TO_END, **(PER_LAYER if trace else {})}.items():
            match = re.search(rf"^{re.escape(metric)} = (\S+) {re.escape(unit)}\b", text, re.M)
            assert match, f"{metric} not printed with unit {unit}"
            assert math.isfinite(float(match.group(1)))
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True
        assert final["metrics"] == {
            metric: {"value": result["metrics"].get(metric, 12.5), "unit": unit}
            for metric, unit in reported.items()
        }
        assert "jobs_failed = 0 count" in text
        fingerprints = [i["fingerprint"] for i in result["instances"] if i["fingerprint"]]
        assert len(fingerprints) >= bench.SETUP_REPEATS
        assert all(len(digest) == 64 for digest in fingerprints)


def _perturb(name: str, values: dict) -> dict:
    values = dict(values)
    if name == "lv-powerlaw":
        del values[0]  # a node left without a community
    elif name == "sssp-road":
        values[1] = values[1] + 1.0
    else:
        values[0] = values[0] + 1e-9  # far beyond PageRank's tolerance
    return values


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_perturbed_value_counts_as_failed(name):
    workload = bench.WORKLOADS[name]
    log = bench.JobLog()
    (instance,) = bench.set_up(workload, 3, log, tiny=True, count=1)
    assert (log.attempted, log.failed) == (1, 0)
    run_result = bench.run_job(workload, instance)
    assert log.record(workload, instance, run_result, run_result.values, timed=True)
    assert not log.record(
        workload, instance, run_result, _perturb(name, run_result.values), timed=True
    )
    assert (log.attempted, log.failed, log.passed) == (3, 1, 1)
    # A result whose serialized form differs fails its fingerprint.
    run_result.rounds += 1
    assert not log.record(workload, instance, run_result, run_result.values, timed=True)
    assert "fingerprint" in log.failures[-1]
    assert log.failed == 2


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layer_self_times_add_up_to_the_traced_job_wall(traced_results, name):
    metrics = traced_results[name]["metrics"]
    layers = sum(metrics[time_metric] for time_metric, _ in bench.JOB_LAYERS.values())
    assert layers + metrics["other.self_s"] == pytest.approx(
        metrics["trace.job_wall_s"], rel=1e-9
    )
    assert 0 < metrics["other.self_s"] < metrics["trace.job_wall_s"]
    assert metrics["cluster.modeled_s"] > 0


def test_tracer_restores_every_wrapped_name():
    from repro.core.propmap import NodePropMap
    from repro.exec import codegen, executor
    from repro.runtime import engine

    before = (NodePropMap.reduce_sync, codegen.par_for, executor.compile_plan)
    tracer = bench.Tracer()
    tracer.install()
    assert codegen.par_for is engine.par_for is not before[1]
    tracer.uninstall()
    assert (NodePropMap.reduce_sync, codegen.par_for, executor.compile_plan) == before


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr-powerlaw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
