"""The plan executor: one algorithm spec, three execution backends.

``Executor`` runs :class:`repro.exec.plan.Plan` objects. Construction
picks the backend: ``bulk=False`` executes operator kernels with the
scalar reference ``par_for`` loops, ``bulk=True`` with the vectorized
``par_for_bulk`` array kernels. Both interpretations of each declarative
kernel form live here, side by side, and follow the same canonical
metering pipeline, so an algorithm expressed once as a plan is
byte-identical across backends (counters, conflicts, modeled seconds,
values) - the contract ``tests/test_bulk_equivalence.py`` enforces for
all twelve algorithms.

:class:`~repro.exec.plan.ScalarKernel` bodies run as the same scalar
loop on both backends (the way the MC runtime variant degrades to the
scalar path by design): byte-identity is structural, and such kernels
opt into vectorization by being rewritten as one of the array forms.

The drive loop itself lives in the engine layer (:mod:`repro.exec.engine`):
``engine="bsp"`` (the default and the byte-identity oracle) runs the
bulk-synchronous round loop through ``repro.faults.run_recoverable_loop``,
so every plan - not just PageRank's tolerance loop - gets
checkpoint/recovery when a fault injector is installed, and
round/operator trace attribution for free. Without an injector the
driver is exactly the legacy loop (zero overhead). ``engine="async"``
schedules residual-declared plans with the barrier-free priority/delta
scheduler instead; its results are value-equivalent (not byte-identical)
to the BSP oracle.

Each ``run`` executes through a compiled form of the plan
(:mod:`repro.exec.codegen`): the per-step backend dispatch - scalar vs
bulk driver, kernel-closure construction, reset binding - is decided
once per ``(plan, executor)`` binding and cached, and the per-round loop
replays a flat list of prebound entries instead of re-walking the step
list with ``isinstance`` checks. On the bulk backend, ``codegen=True``
(the default for ``bulk=True``) additionally specializes statically
analyzable kernels into preassembled numpy runners and fuses adjacent
compatible compute phases; ``codegen=False`` pins the interpreted bulk
bodies, which is the honest baseline the codegen benchmarks compare
against.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import SUM
from repro.exec.codegen import (
    ENTRY_FUSED,
    ENTRY_OPERATOR,
    ENTRY_SYNC,
    CompiledOperator,
    CompiledPlan,
    compile_plan,
    fusion_enabled,
)
from repro.exec.engine import Engine, make_engine
from repro.exec.plan import (
    DegreeReduce,
    EdgePush,
    NodeUpdate,
    Plan,
    apply_value_filter,
)
from repro.runtime.engine import (
    BulkOperatorContext,
    OperatorContext,
)


def _scalar(value: Any) -> Any:
    """Strip numpy wrappers so the scalar backend stores the same plain
    Python scalars the hand-written reference kernels did."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    return value


def _elementwise(values: Callable[[np.ndarray], Any]) -> Callable[[int], Any]:
    """Derive the per-node form of an array-style value function."""

    def one(node: int) -> Any:
        return _scalar(np.asarray(values(np.asarray([node], dtype=np.int64)))[0])

    return one


class Executor:
    """Dispatches operator plans to the scalar or bulk backend."""

    def __init__(
        self,
        cluster: Cluster,
        bulk: bool = False,
        observer: Callable[[Plan], None] | None = None,
        codegen: bool | None = None,
        engine: str | Engine = "bsp",
        engine_options: dict[str, Any] | None = None,
    ) -> None:
        self.cluster = cluster
        self.bulk = bool(bulk)
        # Plan-to-kernel code generation (repro.exec.codegen): None means
        # "on wherever it can apply", i.e. with the bulk backend (the
        # scalar backend is the reference oracle and never specializes).
        # codegen=False pins the interpreted bulk kernel bodies - the
        # baseline the codegen speedup benchmarks measure against.
        self.codegen = self.bulk if codegen is None else bool(codegen)
        # Compiled plans, keyed by plan id and revalidated against the
        # plan object and the fusion gate (a fault injector installed
        # between runs must recompile fusion away).
        self._compiled_plans: dict[int, tuple[Plan, bool, CompiledPlan]] = {}
        self.observer = observer
        # The drive loop lives in the engine layer (repro.exec.engine):
        # "bsp" is the byte-identity oracle, "async" the barrier-free
        # priority/delta scheduler.
        if isinstance(engine, Engine):
            self.engine = engine
        else:
            self.engine = make_engine(self, engine, **(engine_options or {}))

    # ------------------------------------------------------ map lifecycle

    def init_map(
        self,
        prop: NodePropMap,
        values: Callable[[np.ndarray], np.ndarray] | None = None,
        *,
        elementwise: Callable[[int], Any] | None = None,
    ) -> None:
        """Backend-dispatched ``set_initial``: array-style ``values`` uses
        the bulk path under ``bulk=True``; ``elementwise`` initializers
        (needed for non-numeric values) run identically on both backends."""
        if elementwise is not None:
            prop.set_initial(elementwise)
        elif self.bulk:
            prop.set_initial_bulk(lambda nodes: np.asarray(values(nodes)))
        else:
            prop.set_initial(_elementwise(values))

    # -------------------------------------------------------- loop driver

    def run(self, plan: Plan) -> int:
        """Execute a plan; returns completed rounds (0 for ``once`` plans).

        The engine owns the drive loop (round/chunk scheduling,
        convergence, quiesce, checkpoint hooks); the executor stays the
        kernel-dispatch surface the engine calls back into."""
        if self.observer is not None:
            self.observer(plan)
        return self.engine.run(plan)

    def compiled(self, plan: Plan) -> CompiledPlan:
        """The cached compiled form of ``plan`` for this binding.

        Recompiles when the cache slot holds a different plan object
        (id reuse after GC) or when the fusion gate flipped since the
        plan was compiled (e.g. ``install_faults`` between runs).
        """
        fuse = fusion_enabled(self)
        key = id(plan)
        cached = self._compiled_plans.get(key)
        if cached is not None and cached[0] is plan and cached[1] == fuse:
            return cached[2]
        compiled = compile_plan(self, plan)
        self._compiled_plans[key] = (plan, fuse, compiled)
        return compiled

    def run_round(self, plan: Plan) -> None:
        """One pass over the plan's compiled entries (one BSP round)."""
        for tag, payload in self.compiled(plan).entries:
            if tag == ENTRY_OPERATOR:
                self._run_compiled_operator(plan.pgraph, payload)
                continue
            if tag == ENTRY_FUSED:
                payload.run(self, plan.pgraph)
                continue
            if tag == ENTRY_SYNC:
                if payload.action == "request":
                    payload.map.request_sync()
                elif payload.action == "reduce":
                    payload.map.reduce_sync()
                else:
                    payload.map.broadcast_sync()
            else:  # ENTRY_EXEC: a prebound reset or host callable
                payload()

    # --------------------------------------------------- kernel dispatch

    def _run_compiled_operator(self, pgraph, compiled: CompiledOperator) -> None:
        operator = compiled.operator
        compiled.driver(
            self.cluster,
            pgraph,
            operator.space,
            compiled.body,
            kind=operator.kind,
            label=operator.label,
        )

    # ----------------------------------------------- EdgePush, both forms

    def _edge_push_scalar(self, k: EdgePush) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            if k.skip_zero_degree and ctx.part.degree(ctx.local) == 0:
                return
            if k.charge_per_source:
                ctx.charge(k.charge_per_source)
            if k.require_active is not None and not k.require_active.is_active(
                ctx.host, ctx.node
            ):
                return
            value = None
            if k.source is not None:
                value = k.source.read_local(ctx.host, ctx.local)
                if k.value_filter is not None and not bool(
                    apply_value_filter(k.value_filter, value, ctx.node)
                ):
                    return
            if k.const_value is not None:
                push = k.const_value
            elif k.transform is not None:
                push = _scalar(k.transform(value, ctx.node))
            else:
                push = value
            for edge in ctx.edges():
                if k.charge_per_edge:
                    ctx.charge(k.charge_per_edge)
                dst = ctx.edge_dst(edge)
                if k.edge_filter is not None and not bool(
                    k.edge_filter(ctx.node, dst)
                ):
                    continue
                message = push
                if k.with_weight == "add":
                    weight = 1.0 if k.unit_weights else ctx.edge_weight(edge)
                    message = push + weight
                k.target.reduce(ctx.host, ctx.thread, dst, message, k.op)

        return body

    def _edge_push_bulk(self, k: EdgePush) -> Callable[[BulkOperatorContext], None]:
        def body(ctx: BulkOperatorContext) -> None:
            sel = np.arange(ctx.local_ids.size, dtype=np.int64)
            # The node-id view is hoisted once and shrunk alongside sel,
            # so the activity/value/edge filters share one gather instead
            # of re-indexing ctx.node_ids per filter stage.
            nodes = ctx.node_ids
            if k.skip_zero_degree:
                sel = np.flatnonzero(ctx.degrees() > 0)
                if sel.size == 0:
                    return
                nodes = ctx.node_ids[sel]
            if k.charge_per_source:
                ctx.charge(int(k.charge_per_source * sel.size))
            if sel.size == 0:
                return
            if k.require_active is not None:
                keep = k.require_active.is_active_bulk(ctx.host, nodes)
                sel = sel[keep]
                nodes = nodes[keep]
                if sel.size == 0:
                    return
            values = None
            if k.source is not None:
                values = k.source.read_local_bulk(ctx.host, ctx.local_ids[sel])
                if k.value_filter is not None:
                    keep = np.asarray(
                        apply_value_filter(k.value_filter, values, nodes)
                    )
                    sel = sel[keep]
                    nodes = nodes[keep]
                    values = values[keep]
                    if sel.size == 0:
                        return
                if k.transform is not None:
                    values = np.asarray(k.transform(values, nodes))
            source_pos, edge_ids = ctx.expand_edges(ctx.local_ids[sel])
            if k.charge_per_edge:
                ctx.charge(int(k.charge_per_edge * edge_ids.size))
            if edge_ids.size == 0:
                return
            threads = ctx.threads[sel][source_pos]
            dst = ctx.edge_dst(edge_ids)
            if k.const_value is not None:
                pushes = np.full(edge_ids.size, k.const_value)
            else:
                pushes = values[source_pos]
            if k.edge_filter is not None:
                keep = np.asarray(k.edge_filter(nodes[source_pos], dst))
                if not np.all(keep):
                    threads = threads[keep]
                    dst = dst[keep]
                    pushes = pushes[keep]
                    edge_ids = edge_ids[keep]
                    if edge_ids.size == 0:
                        return
            if k.with_weight == "add":
                weights = (
                    np.ones(edge_ids.size, dtype=np.float64)
                    if k.unit_weights
                    else ctx.edge_weights(edge_ids)
                )
                pushes = pushes + weights
            k.target.reduce_bulk(ctx.host, threads, dst, pushes, k.op)

        return body

    # --------------------------------------------- NodeUpdate, both forms

    def _node_update_scalar(self, k: NodeUpdate) -> Callable[[OperatorContext], None]:
        value_of = _elementwise(k.value)

        def body(ctx: OperatorContext) -> None:
            if k.charge_per_node:
                ctx.charge(k.charge_per_node)
            k.target.reduce(ctx.host, ctx.thread, ctx.node, value_of(ctx.node), k.op)

        return body

    def _node_update_bulk(self, k: NodeUpdate) -> Callable[[BulkOperatorContext], None]:
        def body(ctx: BulkOperatorContext) -> None:
            if k.charge_per_node:
                ctx.charge(int(k.charge_per_node * ctx.node_ids.size))
            if ctx.node_ids.size == 0:
                return
            values = np.asarray(k.value(ctx.node_ids))
            k.target.reduce_bulk(ctx.host, ctx.threads, ctx.node_ids, values, k.op)

        return body

    # ------------------------------------------- DegreeReduce, both forms

    def _degree_reduce_scalar(
        self, k: DegreeReduce
    ) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            local_degree = ctx.part.degree(ctx.local)
            if local_degree:
                k.target.reduce(ctx.host, ctx.thread, ctx.node, local_degree, SUM)

        return body

    def _degree_reduce_bulk(
        self, k: DegreeReduce
    ) -> Callable[[BulkOperatorContext], None]:
        def body(ctx: BulkOperatorContext) -> None:
            degs = ctx.degrees()
            sel = np.flatnonzero(degs > 0)
            if sel.size:
                k.target.reduce_bulk(
                    ctx.host, ctx.threads[sel], ctx.node_ids[sel], degs[sel], SUM
                )

        return body


__all__ = ["Executor"]
