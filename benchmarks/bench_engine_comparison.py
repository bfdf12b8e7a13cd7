#!/usr/bin/env python
"""Engine comparison: BSP rounds vs async priority/delta scheduling.

Section 4.1 of the paper rejects asynchronous execution ("may hide
communication overheads, but may generate a large number of messages...")
in favor of batched BSP rounds. The engine layer (``repro.exec.engine``)
makes that a measurable choice instead of a hand-rolled argument: per app
(PR, SSSP, CC-LP) and per partitioning policy this bench runs the same
operator plan under

* ``bsp`` - the round-synchronous oracle (``BSPEngine``), and
* ``async`` - the priority/delta engine (``AsyncEngine``): highest
  residual first, no global barrier, eager per-update cross-host
  messages, one final materialization;

and, for CC-LP, the historical ``baselines/async_mode.py`` eager-LP
implementation as a third yardstick row (the paper-faithful strawman the
engine layer supersedes). Each row reports updates-to-convergence,
rounds/chunks, messages, and modeled seconds; every async run's final
values are checked against the BSP oracle with
:func:`repro.verify.check_equivalent_values` (exact for the monotone
apps, the plan's residual tolerance for PR) and any divergence exits
non-zero.

The quantitative headline this produces: on road-like graphs the
priority/delta schedule converges in far fewer updates than BSP runs
rounds x nodes, and the ASYNC_COMPUTE cost rule (communication priced
only where it exceeds compute) models the "hide communication" half of
the paper's sentence - while the eager Async-LP baseline still loses on
messages, which is the half the paper kept.

Outputs ``benchmarks/reports/bench_engine_comparison.{json,txt}`` in the
standard ``repro-bench-report/v1`` schema. ``REPRO_BENCH_FAST=1`` shrinks
the policy sweep.
"""

from __future__ import annotations

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.baselines.async_mode import async_cc_lp  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.eval.harness import APP_WEIGHTED, KIMBAP_APPS  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.workloads import load_graph  # noqa: E402
from repro.exec import Executor  # noqa: E402
from repro.partition import partition  # noqa: E402
from repro.verify import VerificationError, check_equivalent_values  # noqa: E402

REPORT_SCHEMA = "repro-bench-report/v1"
TITLE = "Execution engines: BSP rounds vs async priority/delta scheduling"
GRAPH = "road"
HOSTS = 4
THREADS = 48
APPS = ("PR", "SSSP", "CC-LP")
POLICIES = ("oec", "iec", "cvc", "hvc")
# Value-equivalence tolerance vs the BSP oracle: monotone label-correcting
# apps land on the exact fixed point under any schedule; delta-PR
# accumulates in a different order and agrees to the residual tolerance.
TOLERANCE = {"PR": 1e-6, "SSSP": 1e-9, "CC-LP": 0.0}
HEADERS = (
    "app",
    "policy",
    "engine",
    "rounds",
    "updates",
    "msgs",
    "comp(s)",
    "comm(s)",
    "total(s)",
    "values",
)


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def policies() -> tuple[str, ...]:
    return ("cvc", "hvc") if fast_mode() else POLICIES


def total_node_iters(cluster: Cluster) -> int:
    """BSP's updates-to-convergence analog: node visits across all phases."""
    return sum(
        counters.node_iters
        for phase in cluster.log.phases
        for counters in phase.counters
    )


def run_engine(app: str, policy: str, graph, engine: str) -> dict:
    pgraph = partition(graph, HOSTS, policy)
    cluster = Cluster(HOSTS, threads_per_host=THREADS)
    executor = Executor(cluster, engine=engine)
    result = KIMBAP_APPS[app](cluster, pgraph, executor=executor)
    elapsed = cluster.elapsed()
    cell = {
        "app": app,
        "policy": policy,
        "engine": engine,
        "rounds": result.rounds,
        "updates": total_node_iters(cluster),
        "messages": cluster.log.total_messages(),
        "computation_s": elapsed.computation,
        "communication_s": elapsed.communication,
        "total_s": elapsed.total,
        "values": result.values,
    }
    if engine == "async":
        cell["rounds"] = executor.engine.last_chunks
        cell["updates"] = executor.engine.last_updates
    return cell


def run_async_lp_baseline(policy: str, graph) -> dict:
    """The pre-engine eager strawman (one message per update, duplicate
    mirror forwards, per-update materialization) as a yardstick row."""
    pgraph = partition(graph, HOSTS, policy)
    cluster = Cluster(HOSTS, threads_per_host=THREADS)
    result = async_cc_lp(cluster, pgraph)
    elapsed = cluster.elapsed()
    return {
        "app": "CC-LP",
        "policy": policy,
        "engine": "async-lp",
        "rounds": result.rounds,
        "updates": total_node_iters(cluster),
        "messages": cluster.log.total_messages(),
        "computation_s": elapsed.computation,
        "communication_s": elapsed.communication,
        "total_s": elapsed.total,
        "values": result.values,
    }


def main() -> int:
    cells: list[dict] = []
    divergences: list[str] = []
    for app in APPS:
        graph = load_graph(GRAPH, weighted=APP_WEIGHTED.get(app, False))
        for policy in policies():
            bsp = run_engine(app, policy, graph, "bsp")
            asynchronous = run_engine(app, policy, graph, "async")
            rows = [bsp, asynchronous]
            if app == "CC-LP":
                rows.append(run_async_lp_baseline(policy, graph))
            for cell in rows[1:]:
                where = f"{app}/{policy}/{cell['engine']}"
                try:
                    check_equivalent_values(
                        bsp["values"], cell["values"], TOLERANCE[app]
                    )
                    cell["equivalent"] = True
                except VerificationError as error:
                    cell["equivalent"] = False
                    divergences.append(f"{where}: {error}")
            bsp["equivalent"] = True  # the oracle row
            cells.extend(rows)

    printable = [
        (
            cell["app"],
            cell["policy"],
            cell["engine"],
            cell["rounds"],
            cell["updates"],
            cell["messages"],
            f"{cell['computation_s']:.3f}",
            f"{cell['communication_s']:.3f}",
            f"{cell['total_s']:.3f}",
            (
                "oracle"
                if cell["engine"] == "bsp"
                else ("ok" if cell["equivalent"] else "DIVERGED")
            ),
        )
        for cell in cells
    ]
    text = f"\n\n===== {TITLE} =====\n" + format_table(HEADERS, printable) + "\n"
    print(text)

    reports_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    with open(
        os.path.join(reports_dir, "bench_engine_comparison.txt"), "w"
    ) as handle:
        handle.write(text)
    report = {
        "schema": REPORT_SCHEMA,
        "module": "bench_engine_comparison",
        "title": TITLE,
        "headers": list(HEADERS),
        "results": [],
        "rows": [list(row) for row in printable],
        "cells": [
            {key: value for key, value in cell.items() if key != "values"}
            for cell in cells
        ],
        "graph": GRAPH,
        "hosts": HOSTS,
        "policies": list(policies()),
        "tolerance": TOLERANCE,
        "fast_mode": fast_mode(),
    }
    with open(
        os.path.join(reports_dir, "bench_engine_comparison.json"), "w"
    ) as handle:
        json.dump(report, handle, indent=1)

    for line in divergences:
        print(f"VALUE DIVERGENCE: {line}", file=sys.stderr)
    if divergences:
        return 1
    for app in APPS:
        app_cells = [c for c in cells if c["app"] == app]
        bsp_total = sum(c["total_s"] for c in app_cells if c["engine"] == "bsp")
        async_total = sum(
            c["total_s"] for c in app_cells if c["engine"] == "async"
        )
        if async_total:
            print(
                f"{app}: async modeled speedup over BSP across policies = "
                f"{bsp_total / async_total:.2f}x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
