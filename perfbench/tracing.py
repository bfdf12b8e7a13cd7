"""Span tracer for the benchmark's traced pass.

The tracer wraps the public entry points of each ``repro`` layer from the
outside: nothing under ``src/`` knows it exists. Wrappers are installed at
the names callers actually look up - a class attribute for methods, and
every ``repro.*`` module global bound to the original object for
functions (``from x import f`` copies the binding into the importer) - and
are removed again by :meth:`Tracer.uninstall`.

Each wrapped call records one span ``(name, start_ns, end_ns, parent,
job)`` with ``time.perf_counter_ns``. Spans stay in memory until
:meth:`Tracer.dump`. A span's *self time* is its duration minus the
durations of its direct children; since children nest inside their
parent, the self times of a job span and all of its descendants add up
to the job span's duration exactly.

Calls too frequent for a span each (point ``read``/``request`` on a
property map: ~10^5 per Louvain job) get a counting wrapper instead.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

JOB = "job"


class Tracer:
    """In-memory span recorder plus the wrappers it installs."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, job id or -1)
        self.spans: list[tuple | None] = []
        # counts[job][name] for counting wrappers and result-derived counts
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = -1
        # running totals of the counting wrappers, moved into ``counts``
        # at job boundaries so the wrappers stay cheap
        self._tallies: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        return self._wrapper(name, fn)(*args, **kwargs)

    def _wrapper(
        self, name: str, fn: Callable, post: Callable[[tuple, Any], None] | None = None
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job)
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, amount: float) -> None:
        self.counts[self.job][name] += amount

    @contextmanager
    def job_scope(self, job: int) -> Iterator[None]:
        """Attribute spans and counts to ``job`` (-1 outside jobs)."""
        self._flush_tallies()
        self.job = job
        try:
            yield
        finally:
            self._flush_tallies()
            self.job = -1

    def _flush_tallies(self) -> None:
        for name, tally in self._tallies.items():
            if tally[0]:
                self.counts[self.job][name] += tally[0]
                tally[0] = 0

    # ------------------------------------------------------ installation

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str, post=None) -> None:
        self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr], post))

    def count_point_calls(self, cls: type, attr: str, name: str) -> None:
        """Count calls of a ``(self, host, key)`` method, with no span each.
        The fixed signature keeps the wrapper to ~0.1 us per call."""
        original = cls.__dict__[attr]
        tally = self._tallies.setdefault(name, [0])

        def counted(prop: Any, host: int, key: int) -> Any:
            tally[0] += 1
            return original(prop, host, key)

        counted.__wrapped__ = original
        self._patch(cls, attr, counted)

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every measured layer's public entry points."""
        from repro.cluster import cluster
        from repro.core import backends, propmap, reduction
        from repro.exec import codegen, executor
        from repro.partition import policies
        from repro.runtime import engine

        self.wrap_function(policies, "partition", "partition")
        self.wrap_function(codegen, "compile_plan", "codegen.compile")
        for kernel in (
            codegen.SpecializedEdgePush,
            codegen.PreparedFrontierPush,
            codegen.SpecializedNodeUpdate,
            codegen.SpecializedDegreeReduce,
        ):
            self.wrap_method(kernel, "_build", "codegen.build")
        self.wrap_method(codegen._SpecializedKernel, "run_host", "kernels")
        self.wrap_method(executor.Executor, "run_round", "engine.round")
        self.wrap_function(engine, "par_for", "runtime.par_for")

        nodeprop = propmap.NodePropMap
        for action in ("reduce_sync", "broadcast_sync", "request_sync"):
            self.wrap_method(nodeprop, action, f"propmap.{action}")
        self.count_point_calls(nodeprop, "read", "propmap.point_reads")
        self.count_point_calls(nodeprop, "request", "propmap.point_requests")

        def collected(args: tuple, result: Any) -> None:
            self.add("reduction.keys", result[0].size)

        for fold in (reduction.PreparedFold, reduction.PreparedSubsetFold):
            self.wrap_method(fold, "fold", "reduction.fold")
        for strategy in (reduction.ThreadLocalReduction, reduction.SharedMapReduction):
            self.wrap_method(strategy, "collect_arrays", "reduction.collect", collected)

        def applied(args: tuple, result: Any) -> None:
            self.add("backends.keys_applied", args[1].size)
            self.add("backends.keys_changed", result.size)

        for store in (backends.GarHostStore, backends.HashHostStore):
            self.wrap_method(store, "apply_master_bulk", "backends.apply", applied)
            self.wrap_method(store, "read_local_bulk", "backends.read")
            self.wrap_method(store, "serve_master_bulk", "backends.serve")
        self.wrap_method(backends.GarHostStore, "write_mirror_bulk", "backends.mirror_write")
        self.wrap_method(cluster.Cluster, "elapsed_all", "cluster.finish")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[tuple[int, str], list[int]]:
        """``{(job, name): [self_ns_total, calls]}``. Call it, like
        :meth:`dump`, once no traced call is in flight."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        for index, span in enumerate(self.spans):
            name, start, end, _, job = span
            entry = totals[(job, name)]
            entry[0] += end - start - child_ns[index]
            entry[1] += 1
        return totals

    def dump(self, path: Path) -> None:
        """Write every span, column-wise, as one JSON document."""
        spans = self.spans
        names = sorted({span[0] for span in spans})
        code = {name: index for index, name in enumerate(names)}
        document = {
            "schema": "perfbench-spans/v1",
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "job"],
            "spans": [
                [code[span[0]], span[1], span[2], span[3], span[4]] for span in spans
            ],
            "counts": {str(job): dict(counts) for job, counts in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))
