"""Trace capture: immutable fragment snapshots of a step program.

Executing a trace *consumes* it — :meth:`LazyRuntime._execute` rewrites
every materialized :class:`TraceNode` into a source and drops its inputs —
so anything that wants to reason about traces after the fact must snapshot
them first.  This module hooks the runtime's ``fragment_observers``
callback to snapshot every fragment (observation, explicit barrier, or
``_auto_cut``) at the moment it is cut, *before* lowering, and records the
per-step growth measurements the unrolling analyzer needs.

The snapshots are the static analyzer's input; the dynamic counters
(``STATS.compiles`` / ``STATS.cache_hits`` deltas over the same window)
ride along so every static prediction can be cross-checked against what
the runtime actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.tensor.lazy_backend import TraceNode, fragment_order


class SnapNode:
    """An immutable copy of one :class:`TraceNode` (data abstracted away).

    Mirrors the TraceNode interface the canonicalizer and shape checker
    need (``op``/``inputs``/``attrs``/``shape``/``dtype``/``is_source``),
    so both accept live trace roots and snapshots interchangeably.
    """

    __slots__ = ("id", "op", "inputs", "attrs", "shape", "dtype", "_source", "data")

    def __init__(
        self, node: TraceNode, inputs: list["SnapNode"], keep_data: bool = False
    ) -> None:
        self.id = node.id
        self.op = node.op
        self.inputs = inputs
        self.attrs = dict(node.attrs)
        self.shape = tuple(node.shape)
        self.dtype = node.dtype
        self._source = node.is_source
        #: Source array, retained only under ``keep_data`` (the precision
        #: oracle needs real inputs; every other analysis is shape-only).
        self.data = (
            np.array(node.data, copy=True)
            if keep_data and node.is_source and node.data is not None
            else None
        )

    @property
    def is_source(self) -> bool:
        return self._source

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = " (source)" if self.is_source else ""
        return f"<SnapNode {self.op}.{self.id} {self.shape}{src}>"


@dataclass
class Fragment:
    """One cut trace fragment: the materialization targets and their DAG."""

    roots: list[SnapNode]

    def nodes(self) -> list[SnapNode]:
        """Every node of the fragment, deduplicated, operands first."""
        return fragment_order(self.roots)

    @property
    def n_ops(self) -> int:
        return sum(1 for n in self.nodes() if not n.is_source)

    def to_trace_nodes(self) -> list[TraceNode]:
        """Rebuild real TraceNodes, e.g. for HLO lowering.

        Source data is abstracted to zeros of the right shape unless the
        snapshot retained it (``keep_source_data`` capture): the lowered
        module's fingerprint depends only on shapes, so either
        reconstruction is fingerprint-faithful.
        """
        rebuilt: dict[int, TraceNode] = {}
        for snap in self.nodes():
            if snap.is_source:
                node = TraceNode(
                    "source",
                    [],
                    snap.shape,
                    snap.dtype,
                    data=(
                        snap.data
                        if snap.data is not None
                        else np.zeros(snap.shape, np.float32)
                    ),
                )
            else:
                node = TraceNode(
                    snap.op,
                    [rebuilt[i.id] for i in snap.inputs],
                    snap.shape,
                    snap.dtype,
                    attrs=dict(snap.attrs),
                )
            rebuilt[snap.id] = node
        return [rebuilt[r.id] for r in self.roots]


def snapshot_fragment(targets, keep_data: bool = False) -> Fragment:
    """Deep-copy the DAG rooted at ``targets`` into :class:`SnapNode` form."""
    snapped: dict[int, SnapNode] = {}
    for node in fragment_order(targets):
        snapped[node.id] = SnapNode(
            node, [snapped[i.id] for i in node.inputs], keep_data
        )
    return Fragment([snapped[t.id] for t in targets])


@dataclass
class FragmentRecord:
    """One fragment cut during capture, tagged with when and why."""

    step: int
    index: int  # cut order within the step
    reason: str  # "observe" | "barrier" | "auto_cut"
    fragment: Fragment


@dataclass
class StepTraceCapture:
    """Everything recorded while driving a step program for N steps."""

    steps: int
    fragments: list[FragmentRecord] = field(default_factory=list)
    #: Ops recorded into the trace during each step (tracing work).
    per_step_recorded: list[int] = field(default_factory=list)
    #: Un-cut ops still pending at the end of each step (trace growth).
    per_step_pending: list[int] = field(default_factory=list)
    auto_barrier_threshold: Optional[int] = None
    #: Dynamic counters over the capture window (the cross-check oracle).
    dynamic_compiles: int = 0
    dynamic_cache_hits: int = 0
    dynamic_new_cache_entries: int = 0
    dynamic_auto_cuts: int = 0

    def fragments_of_step(self, step: int) -> list[FragmentRecord]:
        return [f for f in self.fragments if f.step == step]

    @property
    def cut_reasons(self) -> set[str]:
        return {f.reason for f in self.fragments}


def _pending_ops(runtime) -> int:
    """Count the not-yet-materialized ops reachable from live tensors."""
    seen: set[int] = set()
    count = 0
    stack: list = []
    for tensor in list(runtime.live_tensors):
        node = tensor._impl
        if isinstance(node, TraceNode) and node.id not in seen:
            seen.add(node.id)
            stack.append(node)
    while stack:
        node = stack.pop()
        if not node.is_source and node.op != "constant":
            count += 1
        for operand in node.inputs:
            if operand.id not in seen:
                seen.add(operand.id)
                stack.append(operand)
    return count


def capture_step_traces(
    step_fn: Callable[[int], object],
    steps: int,
    device,
    isolate_cache: bool = True,
    keep_source_data: bool = False,
) -> StepTraceCapture:
    """Drive ``step_fn(step)`` for ``steps`` iterations on a lazy ``device``,
    snapshotting every trace fragment the runtime cuts.

    With ``isolate_cache`` (the default) the global compiler cache and
    stats are cleared first, so the dynamic compile/cache-hit counters —
    and hence the static predictions, which assume a cold cache — describe
    this program alone.
    """
    from repro.hlo.compiler import STATS, cache_size, clear_cache

    if device.kind != "lazy":
        raise ValueError(f"trace capture requires a lazy device, got {device.kind!r}")
    runtime = device.runtime
    capture = StepTraceCapture(
        steps=steps, auto_barrier_threshold=runtime.auto_barrier_threshold
    )
    if isolate_cache:
        clear_cache()
    compiles_before = STATS.compiles
    hits_before = STATS.cache_hits
    entries_before = cache_size()
    auto_cuts_before = runtime.auto_cuts
    current_step = 0
    cuts_this_step = 0

    def observer(targets, reason: str) -> None:
        nonlocal cuts_this_step
        capture.fragments.append(
            FragmentRecord(
                current_step,
                cuts_this_step,
                reason,
                snapshot_fragment(targets, keep_data=keep_source_data),
            )
        )
        cuts_this_step += 1

    runtime.fragment_observers.append(observer)
    try:
        for step in range(steps):
            current_step = step
            cuts_this_step = 0
            before = runtime.ops_traced
            step_fn(step)
            capture.per_step_recorded.append(runtime.ops_traced - before)
            capture.per_step_pending.append(_pending_ops(runtime))
    finally:
        runtime.fragment_observers.remove(observer)
    capture.dynamic_compiles = STATS.compiles - compiles_before
    capture.dynamic_cache_hits = STATS.cache_hits - hits_before
    capture.dynamic_new_cache_entries = cache_size() - entries_before
    capture.dynamic_auto_cuts = runtime.auto_cuts - auto_cuts_before
    return capture


def unique_traces(program, keep_source_data: bool = False) -> list[tuple]:
    """Run a corpus :class:`~repro.analysis.corpus.StepProgram` and lower
    each distinct trace it cut, once.

    Returns ``(key, module, param_nodes)`` per unique canonical trace, in
    cut order: ``key`` is the canonical digest the runtime's per-trace
    oracles are keyed by, ``module`` the unoptimized HLO lowering, and
    ``param_nodes`` its parameters' source nodes (carrying the captured
    arrays under ``keep_source_data``).
    """
    from repro.analysis.tracing.canonical import canonicalize
    from repro.tensor.lazy_backend import _lower_to_hlo

    device, step_fn = program.build()
    capture = capture_step_traces(
        step_fn, program.steps, device, keep_source_data=keep_source_data
    )
    traces: dict[str, tuple] = {}
    for record in capture.fragments:
        key = canonicalize(record.fragment.roots).digest
        if key not in traces:
            traces[key] = (key, *_lower_to_hlo(record.fragment.to_trace_nodes()))
    return list(traces.values())
