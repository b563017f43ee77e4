"""The LazyTensor implementation (Section 3.3).

Instead of dispatching to pre-compiled kernels, operations *record a
dynamic trace* — an in-memory DAG of :class:`TraceNode` objects (Figure 4).
Nothing executes until the program observes a tensor's contents (or an
explicit :func:`repro.tensor.api.LazyTensorBarrier`), at which point the
trace fragment is lowered to HLO, JIT-compiled (with the trace-hash →
executable cache of Section 3.4), and run.  What an op records, how it
lowers and what evaluates it on an async-compile miss are all its row of
:mod:`repro.tensor.traceops`; :func:`fragment_order` is the one traversal
of a fragment, and :func:`fragment_key` its canonical text: a warm step
looks that text up and runs, lowering nothing.

Because tensors that already hold data enter new traces as *parameters*,
the per-step trace of a training loop hashes identically across steps and
compiles exactly once; only the (cheap, but real) tracing overhead recurs
each iteration — precisely the cost structure the paper describes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from typing import Optional, Sequence

import numpy as np

from repro.hlo.builder import HloBuilder
from repro.hlo.compiler import STATS as COMPILER_STATS
from repro.hlo.compiler import AsyncCompiler, compile_keyed
from repro.hlo.ir import Shape
from repro.runtime.costmodel import EngineProfile
from repro.runtime.device import SimDevice
from repro.runtime.kernels import ITEMSIZE
from repro.tensor.traceops import TRACE_OPS, trace_op


class TraceNode:
    """One recorded operation (or materialized source) in a trace DAG."""

    _ids = itertools.count()

    __slots__ = ("id", "op", "inputs", "attrs", "shape", "dtype", "data", "__weakref__")

    def __init__(
        self,
        op: str,
        inputs: Sequence["TraceNode"],
        shape: tuple[int, ...],
        dtype: str = "f32",
        attrs: Optional[dict] = None,
        data: Optional[np.ndarray] = None,
    ) -> None:
        self.id = next(TraceNode._ids)
        self.op = op
        self.inputs = list(inputs)
        self.attrs = attrs or {}
        self.shape = tuple(shape)
        self.dtype = dtype
        self.data = data

    @property
    def is_source(self) -> bool:
        return self.data is not None

    def __repr__(self) -> str:
        src = " (source)" if self.is_source else ""
        return f"<TraceNode {self.op}.{self.id} {self.shape}{src}>"


class LazyRuntime:
    """Per-device tracing state: the live-tensor set, clocks, and counters."""

    def __init__(
        self,
        sim: SimDevice,
        engine: EngineProfile,
        auto_barrier_threshold: Optional[int] = None,
        async_compiler: Optional[AsyncCompiler] = None,
        codegen: bool = False,
    ) -> None:
        self.sim = sim
        self.engine = engine
        #: When set, compiled fragments run as translation-validated flat
        #: NumPy step functions (``repro.hlo.codegen``); a fragment whose
        #: translation the validator rejects runs interpreted instead.
        self.codegen = codegen
        self.host_time = 0.0
        self.ops_traced = 0
        self.materializations = 0
        self.compiles_triggered = 0
        #: When set, cache misses compile in the background on this worker
        #: (shared across replicas for cross-replica single-flight) while
        #: the missing step executes its fragment op-by-op eagerly.
        self.async_compiler = async_compiler
        self.async_compile_hits = 0
        self.async_fallback_steps = 0
        #: Section 3.4's future work, implemented: when set, a trace
        #: fragment is compiled and dispatched automatically once it grows
        #: past this many ops — no user annotations required.  Reassignable
        #: at any point (validated by the property setter below).
        self.auto_barrier_threshold = auto_barrier_threshold
        self.ops_since_cut = 0
        self.auto_cuts = 0
        #: Callbacks ``observer(targets, reason)`` invoked with every trace
        #: fragment *before* it is lowered and executed (reason is one of
        #: ``"observe"``, ``"barrier"``, ``"auto_cut"``).  The static
        #: trace-stability analyzer and step-program capture
        #: (``repro.frameworks.capture``) hook here to read fragments while
        #: their DAG structure is still intact (execution consumes it).
        self.fragment_observers: list = []
        #: Tensors currently alive on this device; the nodes they hold are
        #: what a barrier must materialize.  (Weak: dead intermediates of a
        #: trace are never barrier roots, which both preserves fusion and
        #: keeps per-step trace fingerprints identical.)
        self.live_tensors: "weakref.WeakSet" = weakref.WeakSet()

    def reset(self) -> None:
        self.host_time = 0.0
        self.ops_traced = 0
        self.materializations = 0
        self.compiles_triggered = 0
        self.ops_since_cut = 0
        self.auto_cuts = 0
        self.async_compile_hits = 0
        self.async_fallback_steps = 0
        self.sim.reset()

    @property
    def auto_barrier_threshold(self) -> Optional[int]:
        return self._auto_barrier_threshold

    @auto_barrier_threshold.setter
    def auto_barrier_threshold(self, value: Optional[int]) -> None:
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"auto_barrier_threshold must be an int or None, "
                    f"got {value!r}"
                )
            if value < 1:
                raise ValueError(
                    f"auto_barrier_threshold must be >= 1, got {value}"
                )
        self._auto_barrier_threshold = value

    def trace_stats(self) -> dict:
        """Tracing counters for reporting: recorded ops, cuts, compiles."""
        stats = {
            "ops_traced": self.ops_traced,
            "ops_since_cut": self.ops_since_cut,
            "materializations": self.materializations,
            "compiles_triggered": self.compiles_triggered,
            "auto_cuts": self.auto_cuts,
            "auto_barrier_threshold": self.auto_barrier_threshold,
        }
        if self.async_compiler is not None:
            stats["async_compile_hits"] = self.async_compile_hits
            stats["async_fallback_steps"] = self.async_fallback_steps
            stats["async_compile"] = self.async_compiler.stats_dict()
        return stats

    @property
    def elapsed(self) -> float:
        return max(self.host_time, self.sim.busy_until)

    def sync(self) -> float:
        self.host_time = max(self.host_time, self.sim.busy_until)
        return self.host_time

    # -- recording -------------------------------------------------------------

    def record(
        self,
        op: str,
        inputs: Sequence[TraceNode],
        shape: tuple[int, ...],
        dtype: str = "f32",
        attrs: Optional[dict] = None,
    ) -> TraceNode:
        node = TraceNode(op, inputs, shape, dtype, attrs)
        self.host_time += self.engine.trace_op_overhead
        self.ops_traced += 1
        self.ops_since_cut += 1
        if (
            self.auto_barrier_threshold is not None
            and self.ops_since_cut >= self.auto_barrier_threshold
        ):
            self._auto_cut(node)
        return node

    def apply(self, op: str, operands: list[TraceNode], attrs: dict) -> TraceNode:
        """Record ``op`` with the shape and dtype its table row infers."""
        row = TRACE_OPS[op]
        shape = row.infer([node.shape for node in operands], attrs)
        return self.record(op, operands, shape, row.dtype, attrs)

    def _auto_cut(self, pending: TraceNode) -> None:
        """Automatically compile-and-dispatch the grown trace fragment.

        Cuts at the current frontier: every live tensor plus the op just
        recorded (which no Tensor holds yet) materializes as one fragment.
        """
        seen: dict[int, TraceNode] = {pending.id: pending}
        for tensor in list(self.live_tensors):
            node = tensor._impl
            if isinstance(node, TraceNode) and not node.is_source:
                seen[node.id] = node
        self.auto_cuts += 1
        self._execute([seen[i] for i in sorted(seen)], reason="auto_cut")

    def source(self, array: np.ndarray) -> TraceNode:
        array = np.asarray(array, dtype=np.float32)
        return TraceNode("source", [], array.shape, "f32", data=array)

    def constant(self, value: float) -> TraceNode:
        # Scalar literals are embedded in the trace (they recur identically
        # every step, so they do not hurt cache hits).
        return TraceNode(
            "constant", [], (), "f32", attrs={"value": float(value)}
        )

    def full(self, shape: tuple[int, ...], value: float) -> TraceNode:
        return self.source(np.full(shape, value, dtype=np.float32))

    # -- materialization ----------------------------------------------------------

    def observe(self, node: TraceNode) -> np.ndarray:
        """A tensor's contents: cut the trace at ``node`` and wait for it."""
        (value,) = self.materialize([node])
        self.sync()
        return value

    def materialize(self, nodes: Sequence[TraceNode]) -> list[np.ndarray]:
        """Cut the trace at ``nodes``: compile + run their fused fragment."""
        pending = [n for n in nodes if not n.is_source]
        if pending:
            self._execute(pending)
        return [n.data for n in nodes]

    def register_tensor(self, tensor) -> None:
        self.live_tensors.add(tensor)

    def barrier(self) -> None:
        """Materialize every live tensor (``LazyTensorBarrier()``)."""
        seen: dict[int, TraceNode] = {}
        for tensor in list(self.live_tensors):
            node = tensor._impl
            if isinstance(node, TraceNode) and not node.is_source:
                seen[node.id] = node
        pending = [seen[i] for i in sorted(seen)]
        if pending:
            self._execute(pending, reason="barrier")

    def _execute(self, targets: list[TraceNode], reason: str = "observe") -> None:
        for observer in self.fragment_observers:
            observer(targets, reason)
        from repro.runtime import memory

        # The canonical key is computed once, on the intact DAG (execution
        # consumes it), and addresses the compile cache.  Inside a
        # trace_attribution scope the run's transient peak is also recorded
        # against its digest — the dynamic oracle the static memory planner
        # cross-checks its certificates against.
        # A compiled fragment's parameters are its sources in walk order.
        # Lowering and the op-by-op fallback read the same walk, so the
        # key's numbering and the module's parameter order are one list.
        key, order = fragment_key(targets)
        args = [node.data for node in order if node.is_source]
        with memory.attribute_trace(lambda: key_digest(key)):
            self._execute_fragment(targets, order, key, args)

    def _execute_fragment(
        self, targets: list[TraceNode], order: list, key: str, args: list
    ) -> None:
        if self.async_compiler is not None:
            self._execute_async(targets, order, key, args)
            return
        compiles_before = COMPILER_STATS.compiles
        executable = compile_keyed(
            key, lambda: _lower_to_hlo(targets, order)[0], codegen=self.codegen
        )
        if COMPILER_STATS.compiles > compiles_before:
            # A genuinely new trace: pay JIT compilation.
            self.compiles_triggered += 1
            self.host_time += (
                self.engine.compile_cost_base
                + self.engine.compile_cost_per_op * len(executable.order)
            )
        self.sim.busy_until = max(self.sim.busy_until, self.host_time)
        results = executable.run(args, device=self.sim, host_time=self.host_time)
        self._consume(targets, results)

    def _execute_async(
        self, targets: list[TraceNode], order: list, key: str, args: list
    ) -> None:
        """Materialize without ever stalling the host on the JIT.

        The canonical trace key addresses the async cache.  A hit runs the
        compiled executable on the fragment's sources; a miss kicks
        compilation to the background worker and executes this fragment
        op-by-op eagerly, bit-identically to the compiled path.
        """
        # Separate keyspace: a shared AsyncCompiler must never hand an
        # interpreted replica a generated step function or vice versa.
        async_key = "codegen:" + key if self.codegen else key
        executable = self.async_compiler.lookup(async_key)
        if executable is not None:
            self.async_compile_hits += 1
            self.sim.busy_until = max(self.sim.busy_until, self.host_time)
            results = executable.run(
                args, device=self.sim, host_time=self.host_time
            )
            self._consume(targets, results)
            return
        # Miss: lower now (the execution below consumes the DAG), compile
        # in the background, run this step op-by-op.
        module, _ = _lower_to_hlo(targets, order)
        self.async_compiler.submit(
            async_key,
            lambda: compile_keyed(key, lambda: module, codegen=self.codegen),
        )
        self.async_compiler.note_fallback()
        self.async_fallback_steps += 1
        results = self._eval_fragment_eager(targets, order)
        self._consume(targets, results)

    def _consume(self, targets: list[TraceNode], results) -> None:
        """Store materialized values and release the executed fragment."""
        self.materializations += 1
        if len(targets) == 1:
            results = (results,)
        from repro.runtime import memory

        for node, value in zip(targets, results):
            node.data = np.asarray(value, dtype=np.float32)
            # Views (e.g. a broadcast or transposed root) allocate nothing:
            # tracking them would double-count their base buffer's bytes.
            # track_buffer additionally dedups by id, so an output that the
            # executor already accounted as an intermediate counts once.
            if node.data.base is None:
                memory.track_buffer(node.data)
            node.inputs = []  # release the consumed trace fragment
            node.attrs = {}
            node.op = "source"
        self.ops_since_cut = 0

    def _eval_fragment_eager(self, targets: list[TraceNode], order: list):
        """Op-by-op fallback: evaluate the DAG (``order`` is its
        :func:`fragment_order` walk) with the same NumPy kernels the
        compiled path lowers to (results are bit-identical), charging
        eager per-op dispatch on the host clock and one unfused kernel per
        op on the device clock."""
        values: dict[int, np.ndarray] = {}
        for node in order:
            if node.is_source:
                values[node.id] = node.data
                continue
            if node.op == "constant":
                values[node.id] = np.asarray(node.attrs["value"], dtype=np.float32)
                continue
            row = TRACE_OPS[node.op]
            kernel, attr_values = row.kernel_call(node.attrs)
            values[node.id] = kernel(
                *[values[i.id] for i in node.inputs], *attr_values
            )
            self.host_time += self.engine.fallback_op_overhead
            in_shapes = [i.shape for i in node.inputs]
            out_elems = math.prod(node.shape)
            in_elems = sum(math.prod(s) for s in in_shapes)
            flops = row.flops_per_element
            if callable(flops):
                flops = flops(in_shapes)
            self.sim.busy_until = max(self.sim.busy_until, self.host_time)
            self.sim.launch_fused(
                1, flops * out_elems, (out_elems + in_elems) * ITEMSIZE, self.host_time
            )
        if len(targets) == 1:
            return values[targets[0].id]
        return tuple(values[t.id] for t in targets)


def fragment_order(roots: Sequence) -> list:
    """Every node of the fragment cut at ``roots``, operands first, each once.

    Per-root post-order sharing one visited set (leaves — sources and
    constants — are numbered at first sight).  Lowering numbers parameters
    and instructions in this order, so the canonical trace key, the
    op-by-op fallback and the trace checker must walk exactly it: this is
    the only traversal of ``inputs`` they have.  Iterative, because
    unrolled training traces can be far deeper than the recursion limit;
    accepts any node with ``id`` and ``inputs`` (snapshots included).
    """
    seen: set[int] = set()
    order: list = []
    stack: list[tuple] = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if node.id in seen:
            continue
        if expanded or not node.inputs:
            seen.add(node.id)
            order.append(node)
            continue
        stack.append((node, True))
        for operand in reversed(node.inputs):
            if operand.id not in seen:
                stack.append((operand, False))
    return order


def fragment_key(roots: Sequence) -> tuple[str, list]:
    """The canonical key text of the fragment cut at ``roots``, and the
    :func:`fragment_order` walk it was read from.

    Nodes are alpha-renamed to their walk position, sources abstracted to
    ``param[k] dtype[shape]`` (the values a tensor holds never choose an
    executable), and constants keep the ``repr`` of their value, because
    HLO embeds literals (``0.0`` and ``-0.0`` are two executables).  Equal
    texts lower to alpha-equivalent modules, so the full text — never a
    digest of it — keys the compile caches, and
    ``repro.analysis.tracing.canonicalize`` builds its ``key`` from it.
    Accepts any node with the TraceNode interface (snapshots included).
    """
    order = fragment_order(roots)
    index: dict[int, int] = {}
    lines: list[str] = []
    n_params = 0
    for position, node in enumerate(order):
        index[node.id] = position
        shape = shape_text(node)
        if node.is_source:
            lines.append(f"%{position} = param[{n_params}] {shape}")
            n_params += 1
        elif node.op == "constant":
            value = float(node.attrs["value"])
            lines.append(constant_line(position, repr(value), shape))
        else:
            operands = ", ".join([f"%{index[i.id]}" for i in node.inputs])
            line = f"%{position} = {node.op}({operands}) {shape}"
            attrs = node.attrs
            if attrs:
                line += " {" + ", ".join([f"{k}={attrs[k]!r}" for k in sorted(attrs)]) + "}"
            lines.append(line)
    lines.append("roots(" + ", ".join([f"%{index[r.id]}" for r in roots]) + ")")
    return "\n".join(lines), order


def shape_text(node) -> str:
    """How a key line spells a node's type: ``dtype[d0xd1...]``."""
    return f"{node.dtype}[{'x'.join(map(str, node.shape))}]"


def constant_line(position: int, value_text: str, shape: str) -> str:
    """The key line of a trace-embedded literal; the static skeleton writes
    it with the value abstracted away."""
    return f"%{position} = constant({value_text}) {shape}"


def key_digest(key: str) -> str:
    """Short stable hash of a canonical key, for display and per-trace
    reports (48 bits: never a cache key)."""
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def _lower_to_hlo(targets: list[TraceNode], order: Optional[list] = None):
    """Lower the fragment to one HLO module; sources become its parameters.
    ``order`` is the fragment's :func:`fragment_order` walk when the caller
    already holds it."""
    builder = HloBuilder("trace")
    mapping: dict[int, object] = {}
    param_nodes: list[TraceNode] = []
    for node in fragment_order(targets) if order is None else order:
        if node.is_source:
            param_nodes.append(node)
            mapping[node.id] = builder.parameter(Shape(tuple(node.shape)))
        elif node.op == "constant":
            mapping[node.id] = builder.constant(node.attrs["value"])
        else:
            mapping[node.id] = trace_op(node.op).lower(
                builder, [mapping[i.id] for i in node.inputs], node.attrs
            )
    roots = [mapping[t.id] for t in targets]
    root = roots[0] if len(roots) == 1 else builder.tuple(roots)
    module = builder.build(root, module_name="trace_fragment")
    return module, param_nodes
