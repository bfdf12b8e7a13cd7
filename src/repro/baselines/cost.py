"""COST guardrail: single-threaded straight-loop baselines.

"Scalability! But at what COST?" (McSherry et al.) measures a parallel
system by the *Configuration that Outperforms a Single Thread*: a system
that only beats a competent single-threaded loop at high parallelism has
a high COST; one that never beats it has unbounded COST. The reproduction
applies the same discipline to its own execution backends: these
baselines are deliberately plain single-threaded Python loops over the
CSR arrays - no simulator, no metering, no per-phase bookkeeping - and
``benchmarks/bench_cost_baseline.py`` reports, per app, the cheapest
backend configuration whose wall clock beats them.

Mirroring the COST paper's two baseline strengths, each app gets two:

* ``COST_STRAIGHT`` - the *same algorithm* the simulated app runs
  (round-based push loops), single-threaded. Beating it is the CI
  floor: a metered simulator that cannot outrun its own algorithm in a
  plain loop has no business claiming speedups.
* ``COST_BASELINES`` - the *tuned* baseline (Dijkstra, union-find;
  PageRank has no smarter sequential algorithm, so the straight loop
  is also the tuned one). The paper's headline finding is that parallel
  systems routinely lose to these; the bench reports that COST honestly
  and it may be unbounded.

The baselines double as value oracles: each returns the exact per-node
results the simulated apps must agree with (PageRank to a tight absolute
tolerance - the vectorized fold order differs - SSSP and CC exactly).
Workload graphs are symmetric (every edge stored in both directions), so
union-find component minima match label propagation, and Dijkstra's
fold-left path sums match the Bellman-Ford fixpoint for the non-negative
weights the generators produce.
"""

from __future__ import annotations

import heapq
import math

from repro.graph.csr import Graph

UNREACHED = math.inf


def cost_pagerank(
    graph: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_rounds: int = 100,
) -> tuple[list[float], int]:
    """Single-threaded PageRank push loop; returns (ranks, rounds).

    Same update rule as :func:`repro.algorithms.pagerank.pagerank`:
    per-round push of ``damping * rank[u] / deg(u)`` along out-edges,
    dangling mass redistributed uniformly, L1-delta convergence. The
    per-node sums fold in adjacency order, so ranks agree with the
    simulator's to floating-point reassociation (compare with a tight
    absolute tolerance, not equality).
    """
    n = graph.num_nodes
    if n == 0:
        return [], 0
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    degrees = [indptr[v + 1] - indptr[v] for v in range(n)]
    base = (1.0 - damping) / n
    rank = [1.0 / n] * n
    rounds = 0
    for _ in range(max_rounds):
        contribution = [0.0] * n
        dangling = 0.0
        for u in range(n):
            deg = degrees[u]
            if deg == 0:
                dangling += rank[u]
                continue
            share = damping * rank[u] / deg
            for e in range(indptr[u], indptr[u + 1]):
                contribution[indices[e]] += share
        uniform = base + damping * dangling / n
        new_rank = [uniform + contribution[v] for v in range(n)]
        delta = 0.0
        for v in range(n):
            delta += abs(new_rank[v] - rank[v])
        rank = new_rank
        rounds += 1
        if delta < tolerance:
            break
    return rank, rounds


def cost_sssp(graph: Graph, source: int = 0) -> list[float]:
    """Single-threaded Dijkstra; returns per-node distances (inf =
    unreached). Exactly equal to the simulated SSSP fixpoint: both fold
    a path's weights left to right, and with non-negative weights the
    FP-min over paths is order-independent."""
    n = graph.num_nodes
    dist = [UNREACHED] * n
    if n == 0:
        return dist
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = (
        [1.0] * len(indices) if graph.weights is None else graph.weights.tolist()
    )
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def cost_sssp_rounds(graph: Graph, source: int = 0) -> list[float]:
    """Single-threaded Bellman-Ford label correction over an active
    frontier - the same round-based algorithm the simulated SSSP app
    runs, as one straight loop. Distances equal :func:`cost_sssp`'s
    exactly (both fold a path's weights left to right)."""
    n = graph.num_nodes
    dist = [UNREACHED] * n
    if n == 0:
        return dist
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = (
        [1.0] * len(indices) if graph.weights is None else graph.weights.tolist()
    )
    dist[source] = 0.0
    frontier = [source]
    queued = [False] * n
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            du = dist[u]
            for e in range(indptr[u], indptr[u + 1]):
                v = indices[e]
                nd = du + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    if not queued[v]:
                        queued[v] = True
                        next_frontier.append(v)
        for v in next_frontier:
            queued[v] = False
        frontier = next_frontier
    return dist


def cost_cc_rounds(graph: Graph) -> list[int]:
    """Single-threaded min-label propagation over an active frontier -
    the same round-based algorithm the simulated CC-LP app runs, as one
    straight loop. Labels equal :func:`cost_cc`'s exactly (minimum node
    id per component on the symmetric workload graphs)."""
    n = graph.num_nodes
    labels = list(range(n))
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    frontier = list(range(n))
    queued = [False] * n
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            lu = labels[u]
            for e in range(indptr[u], indptr[u + 1]):
                v = indices[e]
                if lu < labels[v]:
                    labels[v] = lu
                    if not queued[v]:
                        queued[v] = True
                        next_frontier.append(v)
        for v in next_frontier:
            queued[v] = False
        frontier = next_frontier
    return labels


def cost_cc(graph: Graph) -> list[int]:
    """Single-threaded union-find connected components; returns per-node
    labels (the minimum node id of the component - exactly the CC-LP
    fixpoint on the symmetric workload graphs)."""
    n = graph.num_nodes
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    for u in range(n):
        for e in range(indptr[u], indptr[u + 1]):
            ru, rv = find(u), find(indices[e])
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    labels = [0] * n
    minimum = list(range(n))
    for v in range(n):
        root = find(v)
        if v < minimum[root]:
            minimum[root] = v
    for v in range(n):
        labels[v] = minimum[find(v)]
    return labels


COST_BASELINES = {
    "PR": cost_pagerank,
    "SSSP": cost_sssp,
    "CC-LP": cost_cc,
}

COST_STRAIGHT = {
    "PR": cost_pagerank,
    "SSSP": cost_sssp_rounds,
    "CC-LP": cost_cc_rounds,
}

__all__ = [
    "COST_BASELINES",
    "COST_STRAIGHT",
    "cost_cc",
    "cost_cc_rounds",
    "cost_pagerank",
    "cost_sssp",
    "cost_sssp_rounds",
]
