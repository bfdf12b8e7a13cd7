"""One benchmark workload, run as a closed-loop job stream in this process.

``run.py`` starts this file as a fresh child process per workload::

    python3 perfbench/bench.py <workload> <seed> <seconds> <trace 0|1> <spans-out>

and reads the JSON result it prints as its last line. The child

1. builds the workload's instances (graphs, SSSP sources) from the seed
   and computes each instance's oracle outside every timed region. The
   first ``SETUP_REPEATS`` are full set-ups with one untimed warm-up job
   each; ``setup_s`` is their median;
2. runs jobs back to back - one client, ``jobs=1``, the next job sent when
   the previous returns - cycling over the instances for ``seconds``
   (half of it with ``trace`` 1), and checks every job against its oracle
   and against the instance's ``RunResult.to_dict()`` fingerprint;
3. with ``trace`` 1, rebuilds the instances and runs the other half of the
   time under :class:`tracing.Tracer`, whose per-layer self times give the
   per-layer metrics. Traced fingerprints must equal the untraced ones.

Only public entry points are called: ``repro.graph.generators``,
``repro.partition.partition`` and ``repro.eval.harness.run_kimbap`` with
``bulk=True, jobs=1, engine="bsp"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.baselines.cost import cost_pagerank, cost_sssp  # noqa: E402
from repro.eval.harness import run_kimbap  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.partition import partition  # noqa: E402
from repro.verify import (  # noqa: E402
    VerificationError,
    check_community_partition,
    check_equivalent_values,
)

from tracing import JOB, Tracer  # noqa: E402

HOSTS = 4
# Full set-ups per run (generation, partition, warm-up job); setup_s is
# their median.
SETUP_REPEATS = 3
# PageRank folds contributions in another order than the straight loop, so
# ranks (~1e-4 each at 8K nodes) agree to reassociation error, not exactly.
PR_TOLERANCE = 1e-12

# In-job span name -> (self-time metric, call-count metric or None). These
# layers' self times plus other.self_s add up to trace.job_wall_s.
JOB_LAYERS = {
    "partition": ("partition.job_s", None),
    "codegen.compile": ("codegen.compile_s", "codegen.compiles"),
    "codegen.build": ("codegen.build_s", "codegen.builds"),
    "engine.round": ("engine.round_self_s", "engine.rounds"),
    "kernels": ("kernels.busy_s", "kernels.calls"),
    "propmap.reduce_sync": ("propmap.reduce_sync_s", "propmap.reduce_sync_calls"),
    "propmap.broadcast_sync": ("propmap.broadcast_sync_s", "propmap.broadcast_sync_calls"),
    "propmap.request_sync": ("propmap.request_sync_s", "propmap.request_sync_calls"),
    "reduction.fold": ("reduction.fold_s", "reduction.folds"),
    "reduction.collect": ("reduction.collect_s", None),
    "backends.apply": ("backends.apply_s", None),
    "backends.read": ("backends.read_s", None),
    "backends.mirror_write": ("backends.mirror_write_s", None),
    "backends.serve": ("backends.serve_s", None),
    "runtime.par_for": ("runtime.par_for_s", "runtime.par_for_calls"),
    "cluster.finish": ("cluster.finish_s", None),
}

# Per-job counts the tracer accumulates (counting wrappers, wrapper results
# and each traced RunResult).
JOB_COUNTS = (
    "propmap.point_reads",
    "propmap.point_requests",
    "reduction.keys",
    "backends.keys_applied",
    "backends.keys_changed",
    "kernels.edge_iters",
    "kernels.frontier_dense",
    "kernels.frontier_sparse",
    "kernels.frontier_empty",
    "cluster.phases",
    "cluster.messages",
    "cluster.bytes",
    "cluster.modeled_s",
)


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    policy: str
    # seed -> graph, at benchmark scale and at the self-tests' tiny scale
    graph: Callable[[int], Any]
    tiny_graph: Callable[[int], Any]
    oracle: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Any], None]
    # Inputs per run; jobs cycle over them, so one graph's (or one
    # source's) round count does not decide the run's median.
    instances: int
    draws_source: bool = False


def _pr_oracle(graph, kwargs):
    ranks, _ = cost_pagerank(graph)
    return dict(enumerate(ranks))


def _pr_check(graph, values, oracle):
    check_equivalent_values(oracle, values, tolerance=PR_TOLERANCE)


def _sssp_oracle(graph, kwargs):
    return dict(enumerate(cost_sssp(graph, kwargs["source"])))


def _sssp_check(graph, values, oracle):
    check_equivalent_values(oracle, values)


def _lv_check(graph, values, oracle):
    check_community_partition(graph, values)


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Edge-bound, full frontier every round: the bulk sync path
        # (reduce_sync, collect/fold, owner apply, broadcast) dominates.
        Workload(
            "pr-powerlaw",
            "PR",
            "cvc",
            lambda seed: generators.powerlaw_like(scale=13, seed=seed),
            lambda seed: generators.powerlaw_like(scale=7, seed=seed),
            _pr_oracle,
            _pr_check,
            instances=4,
        ),
        # High diameter, tiny wavefront: hundreds of rounds, so per-round
        # fixed cost and the compiled frontier kernels dominate.
        Workload(
            "sssp-road",
            "SSSP",
            "cvc",
            lambda seed: generators.road_like(768, 16, seed=seed, weighted=True),
            lambda seed: generators.road_like(24, 4, seed=seed, weighted=True),
            _sssp_oracle,
            _sssp_check,
            instances=16,
            draws_source=True,
        ),
        # Point read/request calls inside par_for, request_sync beside
        # reduces, in-job coarsen and re-partition; bulk kernels bypassed.
        Workload(
            "lv-powerlaw",
            "LV",
            "oec",
            lambda seed: generators.powerlaw_like(scale=9, seed=seed, weighted=True),
            lambda seed: generators.powerlaw_like(scale=6, seed=seed, weighted=True),
            lambda graph, kwargs: None,
            _lv_check,
            instances=20,
        ),
    )
}


@dataclass
class Instance:
    index: int
    graph_seed: int
    graph: Any
    pgraph: Any
    kwargs: dict
    oracle: Any = None
    fingerprint: str | None = None
    rounds: int | None = None
    # set only for full set-ups (generation + partition + warm-up job)
    setup_ns: int | None = None


def fingerprint(run) -> str:
    return hashlib.sha256(
        json.dumps(run.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def run_job(workload: Workload, instance: Instance):
    return run_kimbap(
        workload.app,
        workload.name,
        HOSTS,
        graph=instance.graph,
        pgraph=instance.pgraph,
        bulk=True,
        jobs=1,
        engine="bsp",
        **instance.kwargs,
    )


@dataclass
class JobLog:
    """Every job's outcome."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # timed jobs that passed every check
    passed: int = 0
    rounds: list[int] = field(default_factory=list)

    def record(
        self,
        workload: Workload,
        instance: Instance,
        run,
        values: dict | None,
        timed: bool = False,
    ) -> bool:
        """Check one job; a failure counts toward ``failed``. ``values``
        is what the checker sees (the run's values, unless a test
        substitutes them)."""
        self.attempted += 1
        self.rounds.append(run.rounds)
        problem = verify(workload, instance, run, values)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(
                    f"{workload.name} instance {instance.index}: {problem}"
                )
            return False
        if timed:
            self.passed += 1
        return True


def verify(workload: Workload, instance: Instance, run, values) -> str | None:
    """Why the job failed, or None. The instance's first passing job fixes
    the fingerprint every later job of it must match byte for byte."""
    if run.outcome != "ok":
        return f"outcome {run.outcome}"
    if values is None:
        return "run produced no values"
    try:
        workload.check(instance.graph, values, instance.oracle)
    except VerificationError as err:
        return f"oracle check failed: {str(err)[:300]}"
    digest = fingerprint(run)
    if instance.fingerprint is None:
        instance.fingerprint = digest
        instance.rounds = run.rounds
    elif digest != instance.fingerprint:
        return f"fingerprint {digest[:16]} != {instance.fingerprint[:16]}"
    return None


def spread_order(count: int) -> list[int]:
    """``range(count)`` ordered so every prefix is spread over the range:
    by the bit-reversed binary fraction (the van der Corput sequence)."""

    def reversed_fraction(value: int) -> float:
        fraction, scale = 0.0, 0.5
        while value:
            fraction += scale * (value & 1)
            value >>= 1
            scale /= 2
        return fraction

    return sorted(range(count), key=reversed_fraction)


def set_up(
    workload: Workload,
    seed: int,
    log: JobLog,
    tiny: bool = False,
    tracer: Tracer | None = None,
    count: int | None = None,
    untraced: list[Instance] | None = None,
) -> list[Instance]:
    """Build ``count`` instances from ``seed``.

    The first ``SETUP_REPEATS`` instances are full set-ups: graph
    generation, partition and one untimed warm-up job, together timed as
    ``setup_ns``. The rest are only generated and partitioned; their first
    timed job fixes their fingerprint. The traced pass passes the
    ``untraced`` instances instead: each rebuilt instance takes its twin's
    oracle and fingerprint, so traced jobs must reproduce the untraced
    bytes exactly, and gets no warm-up.

    SSSP sources are stratified: each instance draws its source from its
    own one of ``count`` equal node-id bands (road ids run row by row, so a
    band is a stretch of the road), and a run covers near and far sources
    whatever the seed. Bands are dealt in :func:`spread_order`, so the
    jobs a run fits into its time cover the road evenly too.
    """
    graph_of = workload.tiny_graph if tiny else workload.graph
    count = count or workload.instances
    rng = np.random.default_rng(seed)
    graph_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]
    bands = spread_order(count)
    instances = []
    for index, graph_seed in enumerate(graph_seeds):
        start = perf_counter_ns()
        if tracer is None:
            graph = graph_of(graph_seed)
            pgraph = partition(graph, HOSTS, workload.policy)
        else:
            graph = tracer.call("graph.build", graph_of, graph_seed)
            pgraph = tracer.call("partition", partition, graph, HOSTS, workload.policy)
        build_ns = perf_counter_ns() - start
        kwargs = {}
        if workload.draws_source:
            band = bands[index]
            low = band * graph.num_nodes // count
            high = (band + 1) * graph.num_nodes // count
            kwargs["source"] = int(rng.integers(low, high))
        instance = Instance(index, graph_seed, graph, pgraph, kwargs)
        if untraced is not None:
            twin = untraced[index]
            instance.oracle, instance.fingerprint = twin.oracle, twin.fingerprint
        else:
            # The oracle is outside every timed region, set-up included.
            instance.oracle = workload.oracle(graph, kwargs)
        if untraced is None and index < SETUP_REPEATS:
            start = perf_counter_ns()
            run = run_job(workload, instance)
            instance.setup_ns = build_ns + perf_counter_ns() - start
            log.record(workload, instance, run, run.values)
        instances.append(instance)
    return instances


def closed_loop(
    workload: Workload,
    instances: list[Instance],
    seconds: float,
    log: JobLog,
    tracer: Tracer | None = None,
) -> list[tuple[int, int]]:
    """Send jobs one after another, cycling over the instances, until
    ``seconds`` have passed (at least one job). Returns ``(instance index,
    wall ns)`` per job; a job's id is its position."""
    deadline = perf_counter() + seconds
    jobs: list[tuple[int, int]] = []
    while True:
        instance = instances[len(jobs) % len(instances)]
        if tracer is None:
            start = perf_counter_ns()
            run = run_job(workload, instance)
            wall_ns = perf_counter_ns() - start
        else:
            with tracer.job_scope(len(jobs)):
                start = perf_counter_ns()
                run = tracer.call(JOB, run_job, workload, instance)
                wall_ns = perf_counter_ns() - start
                count_result(tracer, run)
        log.record(workload, instance, run, run.values, timed=True)
        jobs.append((instance.index, wall_ns))
        if perf_counter() >= deadline:
            return jobs


def count_result(tracer: Tracer, run) -> None:
    """Per-job counts read off the traced RunResult and its phase log."""
    tracer.add("kernels.edge_iters", run.counters.get("edge_iters", 0))
    phases = run.cluster.log.phases
    tracer.add("cluster.phases", len(phases))
    tracer.add("cluster.messages", run.messages)
    tracer.add("cluster.bytes", run.bytes)
    tracer.add("cluster.modeled_s", run.total)
    for record in phases:
        if record.frontier:
            for path in record.frontier.values():
                tracer.add(f"kernels.frontier_{path}", 1)


def layer_metrics(tracer: Tracer, jobs: int, instances: list[Instance]) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of traced jobs
    ``0 .. jobs-1`` and the set-up before them."""
    totals = tracer.self_times()
    job_ids = range(jobs)
    metrics: dict[str, float] = {}

    def per_job(name: str, slot: int) -> float:
        return sum(totals.get((job, name), (0, 0))[slot] for job in job_ids) / jobs

    for span, (time_metric, calls_metric) in JOB_LAYERS.items():
        metrics[time_metric] = per_job(span, 0) / 1e9
        if calls_metric is not None:
            metrics[calls_metric] = per_job(span, 1)
    for name in JOB_COUNTS:
        metrics[name] = sum(tracer.counts[job][name] for job in job_ids) / jobs
    applied = metrics["backends.keys_applied"]
    metrics["backends.apply_useful"] = (
        metrics["backends.keys_changed"] / applied if applied else 0.0
    )
    metrics["other.self_s"] = per_job(JOB, 0) / 1e9
    walls = [span[2] - span[1] for span in tracer.spans if span[0] == JOB]
    metrics["trace.job_wall_s"] = sum(walls) / jobs / 1e9
    for span, metric in (("graph.build", "graph.build_s"), ("partition", "partition.build_s")):
        self_ns, calls = totals[(-1, span)]
        metrics[metric] = self_ns / calls / 1e9
    metrics["partition.replication"] = statistics.fmean(
        instance.pgraph.replication_factor() for instance in instances
    )
    return metrics


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_out: Path | None = None,
    tiny: bool = False,
    count: int | None = None,
) -> dict:
    """Run one workload; returns every metric plus provenance and checks."""
    workload = WORKLOADS[name]
    log = JobLog()
    instances = set_up(workload, seed, log, tiny=tiny, count=count)
    loop_seconds = seconds / 2 if trace else seconds
    untraced_jobs = closed_loop(workload, instances, loop_seconds, log)
    walls = [wall_ns for _, wall_ns in untraced_jobs]
    instances_out = []
    for instance in instances:
        entry = {
            "graph_seed": instance.graph_seed,
            "nodes": instance.graph.num_nodes,
            "edges": instance.graph.num_edges,
            **instance.kwargs,
            "rounds": instance.rounds,
            "fingerprint": instance.fingerprint,
        }
        if instance.setup_ns is not None:
            entry["setup_s"] = instance.setup_ns / 1e9
        instances_out.append(entry)
    setups = [i.setup_ns for i in instances if i.setup_ns is not None]
    result = {
        "workload": name,
        "provenance": provenance(seed),
        "instances": instances_out,
        "jobs": len(walls),
        "metrics": {
            "job_p50_s": statistics.median(walls) / 1e9,
            "jobs_per_s": log.passed / (sum(walls) / 1e9),
            "setup_s": statistics.median(setups) / 1e9,
        },
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = set_up(
                workload, seed, log, tiny=tiny, tracer=tracer, count=count, untraced=instances
            )
            # Cycle over the instances the untraced pass timed (it starts at
            # instance 0), so every traced job has untraced bytes and walls
            # to compare with.
            traced = traced[: len(untraced_jobs)]
            traced_jobs = closed_loop(workload, traced, seconds / 2, log, tracer)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, len(traced_jobs), traced)
        untraced_walls = defaultdict(list)
        for index, wall_ns in untraced_jobs:
            untraced_walls[index].append(wall_ns)
        layers["trace.overhead"] = statistics.median(
            wall_ns / statistics.median(untraced_walls[index])
            for index, wall_ns in traced_jobs
        )
        result["metrics"].update(layers)
        result["traced_jobs"] = len(traced_jobs)
        if spans_out is not None:
            tracer.dump(spans_out)
            result["spans_file"] = str(spans_out)
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        failures=log.failures,
        rounds_min=min(log.rounds),
        rounds_max=max(log.rounds),
    )
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spans_out = argv
    result = run_workload(
        name,
        int(seed),
        float(seconds),
        trace == "1",
        Path(spans_out) if trace == "1" else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
