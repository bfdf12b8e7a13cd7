"""The benchmark's workload and metric names, with units.

Kept free of ``repro`` imports so ``run.py`` can validate arguments and
format results without loading the program.
"""

WORKLOAD_NAMES = ("pr-powerlaw", "sssp-road", "lv-powerlaw")

# End-to-end metrics (name -> unit); printed with tracing off.
END_TO_END = {
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (name -> unit) from the traced pass, per traced job
# unless the name says set-up (graph.build_s, partition.build_s,
# partition.replication are per instance). A ``*_s`` layer time is self
# time: the layer's spans minus the layer spans nested inside them.
PER_LAYER = {
    "graph.build_s": "s",
    "partition.build_s": "s",
    "partition.replication": "ratio",
    "partition.job_s": "s",
    "codegen.compile_s": "s",
    "codegen.compiles": "count",
    "codegen.build_s": "s",
    "codegen.builds": "count",
    "engine.rounds": "count",
    "engine.round_self_s": "s",
    "kernels.busy_s": "s",
    "kernels.calls": "count",
    "kernels.edge_iters": "count",
    "kernels.frontier_dense": "count",
    "kernels.frontier_sparse": "count",
    "kernels.frontier_empty": "count",
    "propmap.reduce_sync_s": "s",
    "propmap.reduce_sync_calls": "count",
    "propmap.broadcast_sync_s": "s",
    "propmap.broadcast_sync_calls": "count",
    "propmap.request_sync_s": "s",
    "propmap.request_sync_calls": "count",
    "propmap.point_reads": "count",
    "propmap.point_requests": "count",
    "reduction.fold_s": "s",
    "reduction.folds": "count",
    "reduction.collect_s": "s",
    "reduction.keys": "count",
    "backends.apply_s": "s",
    "backends.keys_applied": "count",
    "backends.keys_changed": "count",
    "backends.apply_useful": "ratio",
    "backends.read_s": "s",
    "backends.mirror_write_s": "s",
    "backends.serve_s": "s",
    "runtime.par_for_s": "s",
    "runtime.par_for_calls": "count",
    "cluster.finish_s": "s",
    "cluster.phases": "count",
    "cluster.modeled_s": "s",
    "cluster.messages": "count",
    "cluster.bytes": "B",
    "other.self_s": "s",
    "trace.job_wall_s": "s",
    "trace.overhead": "ratio",
}
