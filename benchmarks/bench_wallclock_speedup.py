#!/usr/bin/env python
"""Wall-clock speedup of the bulk and codegen paths.

Standalone script (no pytest dependency - CI's smoke job runs it directly):
for each app cell it runs the backend matrix on the same workload -
scalar (the oracle), interpreted bulk (``codegen=False``), and
generated-kernel bulk (``repro.exec.codegen``, the bulk default) - times
every variant with ``time.perf_counter`` over a cell-shared prebuilt
partition (graph loading/partitioning is excluded from the measured
region, matching how the paper reports execution time), and **asserts
the byte-identical equivalence contract** against the scalar oracle:
``RunResult.to_dict()`` (counters, conflict counts, modeled seconds,
traces) and the final property values must match exactly. Any
divergence exits non-zero, so the CI smoke job doubles as the
equivalence gate.

On runners with at least 4 cores the script additionally gates the
headline cell's generated kernels against the interpreted bulk path at
``REPRO_BENCH_MIN_CODEGEN_SPEEDUP`` (default 1.2x). The ratio is
core-count independent, but the gate arms only there so loaded
single-core machines never fail on timer noise.
The full (non-fast) sweep additionally runs the **SSSP frontier-codegen
floor** (``FRONTIER_FLOOR_CELL``): road SSSP at scale 4 - the
hundreds-of-rounds wavefront workload the compiled frontier kernels of
``repro.exec.codegen.PreparedFrontierPush`` exist for - timed min-of-N
interpreted vs generated, gated on the same
``REPRO_BENCH_MIN_CODEGEN_SPEEDUP`` floor and on byte-identical
results. Machines with fewer cores still verify the full equivalence
matrix and record the measured ratios without gating; set
``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to force the gates regardless of core
count.

Outputs ``benchmarks/reports/bench_wallclock_speedup.{json,txt}`` in the
standard ``repro-bench-report/v1`` schema. Environment knobs match the
pytest benchmarks: ``REPRO_BENCH_FAST=1`` shrinks the sweep to the
equivalence-critical cells, ``REPRO_BENCH_SCALE`` rescales the graphs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.eval.harness import APP_POLICY, run_kimbap  # noqa: E402
from repro.eval.workloads import load_graph  # noqa: E402
from repro.partition import partition  # noqa: E402

REPORT_SCHEMA = "repro-bench-report/v1"
TITLE = "Bulk + codegen execution paths: wall-clock speedup (byte-identical metrics)"
# Backend matrix per cell: (column key, bulk flag, codegen). The scalar run
# is the oracle every other variant must match byte for byte; bulk_nocg
# pins the interpreted bulk kernels (codegen=False) as the honest baseline
# for the codegen speedup column.
MATRIX = (
    ("scalar", False, None),
    ("bulk_nocg", True, False),
    ("bulk", True, None),
)
HEADERS = (
    "app",
    "graph",
    "hosts",
    "scalar(s)",
    "bulk nocg(s)",
    "bulk(s)",
    "bulk/scalar",
    "codegen",
    "identical",
)


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def min_codegen_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_CODEGEN_SPEEDUP", "1.2"))


def gate_speedup() -> bool:
    """Speedup gates arm on runners with at least 4 cores (or when
    forced); equivalence is always checked."""
    forced = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP", "")
    if forced not in ("", "0"):
        return True
    return (os.cpu_count() or 1) >= 4


def cells() -> list[tuple[str, str, int]]:
    # The headline cell is PR on the Fig-9 power-law medium graph at 4
    # hosts; SSSP and CC-LP ride along as the other two ported apps.
    sweep = [
        ("PR", "powerlaw", 4),
        ("SSSP", "powerlaw", 4),
        ("CC-LP", "powerlaw", 4),
    ]
    if not fast_mode():
        sweep += [
            ("PR", "road", 4),
            ("SSSP", "road", 4),
            ("CC-LP", "road", 4),
            ("PR", "powerlaw", 16),
        ]
    return sweep


# The SSSP frontier-codegen floor cell: app, graph, hosts, graph scale,
# timing repeats (min-of-N on each side). Road SSSP is the workload the
# frontier-aware kernels exist for - a high-diameter wavefront that runs
# hundreds of rounds over the same frozen decomposition - and the scale-4
# grid gives the compiled path enough rounds to amortize its one-time
# builds the way any real input would (the default bench analogs are
# ~10^4x smaller than the paper's graphs, so per-run constants loom
# disproportionately large at scale 0).
FRONTIER_FLOOR_CELL = ("SSSP", "road", 4, 4, 5)


def run_frontier_floor() -> dict:
    """Time interpreted-bulk vs generated frontier kernels head to head.

    Scalar oracles are impractical at this scale, so the equivalence
    check here is interpreted vs generated (both are matrix-verified
    against the scalar oracle at default scale above): byte-identical
    ``RunResult.to_dict()`` and final values, min-of-N wall-clock on
    each side. The repeats interleave (interpreted, generated) pairs so
    a monotonic system-load drift penalizes both sides equally instead
    of whichever ran second.
    """
    app, graph_name, hosts, scale, repeats = FRONTIER_FLOOR_CELL
    graph = load_graph(graph_name, weighted=(app == "SSSP"), scale=scale)
    pgraph = partition(graph, hosts, APP_POLICY[app])

    def timed(codegen):
        start = time.perf_counter()
        result = run_kimbap(
            app, graph_name, hosts, graph=graph, pgraph=pgraph,
            bulk=True, codegen=codegen,
        )
        return time.perf_counter() - start, result

    interp_s = codegen_s = math.inf
    interp = compiled = None
    for _ in range(repeats):
        elapsed, interp = timed(False)
        interp_s = min(interp_s, elapsed)
        elapsed, compiled = timed(None)
        codegen_s = min(codegen_s, elapsed)
    return {
        "app": app,
        "graph": graph_name,
        "hosts": hosts,
        "scale": scale,
        "repeats": repeats,
        "rounds": interp.rounds,
        "interpreted_s": interp_s,
        "codegen_s": codegen_s,
        "codegen_speedup": (
            interp_s / codegen_s if codegen_s > 0 else float("inf")
        ),
        "identical": (
            canonical(interp) == canonical(compiled)
            and interp.values == compiled.values
        ),
    }


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_cell(app: str, graph_name: str, hosts: int) -> dict:
    graph = load_graph(graph_name, weighted=(app == "SSSP"))
    # One partition per cell, shared by every variant: the timed region
    # measures execution only, the same exclusion of graph loading and
    # partitioning time the paper's reported numbers use.
    pgraph = partition(graph, hosts, APP_POLICY[app])
    wallclock: dict[str, float] = {}
    results: dict[str, object] = {}
    for key, bulk, codegen in MATRIX:
        start = time.perf_counter()
        results[key] = run_kimbap(
            app, graph_name, hosts, graph=graph, pgraph=pgraph, bulk=bulk,
            codegen=codegen,
        )
        wallclock[key] = time.perf_counter() - start
    oracle = results["scalar"]
    oracle_bytes = canonical(oracle)
    diverged = sorted(
        key
        for key, result in results.items()
        if key != "scalar"
        and (canonical(result) != oracle_bytes or result.values != oracle.values)
    )
    return {
        "app": app,
        "graph": graph_name,
        "hosts": hosts,
        "wallclock_s": wallclock,
        "bulk_speedup": (
            wallclock["scalar"] / wallclock["bulk"]
            if wallclock["bulk"] > 0
            else float("inf")
        ),
        "codegen_speedup": (
            wallclock["bulk_nocg"] / wallclock["bulk"]
            if wallclock["bulk"] > 0
            else float("inf")
        ),
        "modeled_total_s": oracle.total,
        "identical": not diverged,
        "diverged": diverged,
    }


def main() -> int:
    # The floor runs before the matrix: a fresh process gives it the
    # same memory layout every time, instead of whatever the full
    # matrix's allocator churn left behind.
    frontier_floor = None if fast_mode() else run_frontier_floor()
    rows = [run_cell(*cell) for cell in cells()]

    from repro.eval.reporting import format_table

    printable = [
        (
            r["app"],
            r["graph"],
            r["hosts"],
            f"{r['wallclock_s']['scalar']:.3f}",
            f"{r['wallclock_s']['bulk_nocg']:.3f}",
            f"{r['wallclock_s']['bulk']:.3f}",
            f"{r['bulk_speedup']:.1f}x",
            f"{r['codegen_speedup']:.2f}x",
            "yes" if r["identical"] else "DIVERGED",
        )
        for r in rows
    ]
    text = f"\n\n===== {TITLE} =====\n" + format_table(HEADERS, printable) + "\n"
    if frontier_floor is not None:
        f = frontier_floor
        text += (
            f"\nfrontier codegen floor: {f['app']} {f['graph']}@{f['hosts']} "
            f"(scale {f['scale']}, {f['rounds']} rounds, min of "
            f"{f['repeats']}): interpreted {f['interpreted_s']:.3f}s, "
            f"generated {f['codegen_s']:.3f}s = {f['codegen_speedup']:.2f}x "
            f"({'identical' if f['identical'] else 'DIVERGED'})\n"
        )
    print(text)

    reports_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    with open(os.path.join(reports_dir, "bench_wallclock_speedup.txt"), "w") as handle:
        handle.write(text)
    report = {
        "schema": REPORT_SCHEMA,
        "module": "bench_wallclock_speedup",
        "title": TITLE,
        "headers": list(HEADERS),
        "results": [],
        "rows": [list(row) for row in printable],
        "cells": rows,
        "frontier_floor": frontier_floor,
        "matrix": [list(entry) for entry in MATRIX],
        "cpu_count": os.cpu_count(),
        "speedup_gated": gate_speedup(),
        "min_codegen_speedup": min_codegen_speedup(),
        "fast_mode": fast_mode(),
    }
    with open(os.path.join(reports_dir, "bench_wallclock_speedup.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    failed = False
    for r in rows:
        for key in r["diverged"]:
            failed = True
            print(
                f"EQUIVALENCE FAILURE: {r['app']} on {r['graph']} @ "
                f"{r['hosts']} hosts - {key} RunResult.to_dict() diverged "
                "from the scalar oracle",
                file=sys.stderr,
            )
    headline = rows[0]
    if gate_speedup() and headline["codegen_speedup"] < min_codegen_speedup():
        failed = True
        print(
            f"SPEEDUP FAILURE: headline {headline['app']} "
            f"{headline['graph']}@{headline['hosts']} generated kernels "
            f"over interpreted bulk is {headline['codegen_speedup']:.2f}x "
            f"(< {min_codegen_speedup():.1f}x, cpu_count={os.cpu_count()})",
            file=sys.stderr,
        )
    if frontier_floor is not None:
        if not frontier_floor["identical"]:
            failed = True
            print(
                f"EQUIVALENCE FAILURE: frontier floor "
                f"{frontier_floor['app']} on {frontier_floor['graph']} @ "
                f"{frontier_floor['hosts']} hosts (scale "
                f"{frontier_floor['scale']}) - generated kernels diverged "
                "from interpreted bulk",
                file=sys.stderr,
            )
        if (
            gate_speedup()
            and frontier_floor["codegen_speedup"] < min_codegen_speedup()
        ):
            failed = True
            print(
                f"SPEEDUP FAILURE: frontier floor {frontier_floor['app']} "
                f"{frontier_floor['graph']}@{frontier_floor['hosts']} "
                f"(scale {frontier_floor['scale']}) generated kernels over "
                f"interpreted bulk is "
                f"{frontier_floor['codegen_speedup']:.2f}x "
                f"(< {min_codegen_speedup():.1f}x, cpu_count={os.cpu_count()})",
                file=sys.stderr,
            )
    if failed:
        return 1
    print(
        f"headline: {headline['app']} {headline['graph']}@{headline['hosts']} "
        f"bulk/scalar {headline['bulk_speedup']:.1f}x, "
        f"codegen {headline['codegen_speedup']:.2f}x "
        f"(cpu_count={os.cpu_count()}, gated={gate_speedup()})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
