"""HLO backend: NumPy codegen, executables, and the compilation cache.

``compile_keyed`` memoizes an optimized :class:`Executable` under a
caller-supplied canonical key and lowers the module only on a miss — the
reproduction of the XLA-program cache of Section 3.4 ("each unique trace
is only compiled by XLA once").  The lazy runtime keys it on the canonical
trace text, so a warm step never builds or prints HLO;
``compile_module`` keys it on a module's fingerprint.

:class:`AsyncCompiler` is the concurrent face of that cache: a cache miss
hands compilation to a background worker and returns immediately, so the
host can fall back to op-by-op execution instead of stalling on the JIT —
the dispatch/compile pipelining XLA-style runtimes use.  Submissions are
deduplicated per canonical cache key (*single-flight*): however many
replicas race on the same fresh trace, exactly one compile runs.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import HloError
from repro.hlo.dtypes import cast_array
from repro.hlo.ir import BF16, F16, F64, HloInstruction, HloModule, NARROW_DTYPES
from repro.hlo.ops import HLO_OPS
from repro.hlo.passes import optimize
from repro.hlo.printer import print_module
from repro.runtime import memory
from repro.runtime.device import SimDevice
from repro.runtime.kernels import ITEMSIZE, KERNELS
from repro.locks import named_rlock

_K = KERNELS

_UNARY_KERNELS = {
    "negate": "neg",
    "exponential": "exp",
    "log": "log",
    "tanh": "tanh",
    "sqrt": "sqrt",
    "rsqrt": "rsqrt",
    "logistic": "sigmoid",
    "relu": "relu",
    "abs": "abs",
    "sign": "sign",
}

_BINARY_KERNELS = {
    "add": "add",
    "subtract": "sub",
    "multiply": "mul",
    "divide": "div",
    "power": "pow",
    "maximum": "maximum",
    "minimum": "minimum",
}

_COMPARE = {
    "gt": np.greater,
    "ge": np.greater_equal,
    "lt": np.less,
    "le": np.less_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


def evaluate_instruction(inst: HloInstruction, args: Sequence[np.ndarray]):
    """Evaluate one (non-parameter, non-fusion) instruction numerically.

    Results are coerced to the instruction's recorded element type, so a
    narrowed module computes genuinely narrowed values: f16 ops run in
    half precision, bf16 ops quantize every result to the bf16 grid (f32
    storage — NumPy has no bfloat16), f64 is the oracle's reference
    precision.  f32/pred results pass through untouched (the pre-dtype
    fast path is byte-identical).
    """
    result = _evaluate_raw(inst, args)
    dt = inst.shape.dtype
    if dt == F16 or dt == BF16 or dt == F64:
        return cast_array(result, dt)
    return result


def _evaluate_raw(inst: HloInstruction, args: Sequence[np.ndarray]):
    op = inst.opcode
    if op == "constant":
        return inst.literal
    row = HLO_OPS.get(op)
    if row is not None:
        if row.f32_accum:
            # Tensor-core semantics for narrow dtypes: multiply narrow,
            # accumulate in f32, round the result (the outer coercion).
            args = [_f32_accum(a) for a in args]
        return _K[row.kernel](*args, *row.attr_values(inst.attrs))
    if op == "convert":
        return cast_array(args[0], inst.attrs["new_dtype"])
    if op in _UNARY_KERNELS:
        return _K[_UNARY_KERNELS[op]](args[0])
    if op in _BINARY_KERNELS:
        return _K[_BINARY_KERNELS[op]](args[0], args[1])
    if op == "compare":
        return _COMPARE[inst.attrs["direction"]](args[0], args[1])
    if op == "not":
        return np.logical_not(args[0])
    if op == "reduce":
        kind = inst.attrs["kind"]
        x = args[0]
        if inst.attrs.get("accum") == "f32" and x.dtype != np.float32:
            # The AMP discipline: narrow inputs, f32 accumulation.
            x = x.astype(np.float32)
        elif inst.shape.dtype in NARROW_DTYPES and kind in ("sum", "mean"):
            # No accumulator override: accumulate *in the narrow dtype*,
            # serially, like a hardware accumulator register would.
            return _narrow_accum_reduce(
                x, inst.attrs["axes"], inst.attrs["keepdims"], kind,
                inst.shape.dtype,
            )
        kernel = {"sum": "reduce_sum", "mean": "reduce_mean", "max": "reduce_max"}[
            kind
        ]
        return _K[kernel](x, inst.attrs["axes"], inst.attrs["keepdims"])
    raise HloError(f"no backend lowering for opcode {op!r}")


def _f32_accum(x: np.ndarray) -> np.ndarray:
    """Upcast a half-precision contraction operand to f32 (bf16 operands
    already live in f32 storage, so only native float16 needs widening)."""
    return x.astype(np.float32) if x.dtype == np.float16 else x


def _narrow_accum_reduce(x, axes, keepdims: bool, kind: str, dtype: str):
    """Sum/mean with a *narrow* accumulator, element-serial.

    NumPy's pairwise summation would hide most of the drift a narrow
    accumulator suffers on real hardware, so this models the worst
    (and common) case faithfully: one running register in the reduce
    dtype, rounded after every addition.  Once the partial sum exceeds
    ``1/eps`` times the element magnitude, additions round to zero and
    the sum flatlines — exactly the hazard the static analysis flags
    (and the reason the autocast planner always assigns ``accum="f32"``).
    """
    x = np.asarray(x)
    rank = x.ndim
    reduce_axes = (
        tuple(range(rank)) if axes is None else tuple(a % rank for a in axes)
    )
    kept = [i for i in range(rank) if i not in reduce_axes]
    moved = np.transpose(x, kept + list(reduce_axes))
    kept_dims = tuple(x.shape[i] for i in kept)
    n = 1
    for i in reduce_axes:
        n *= x.shape[i]
    flat = cast_array(moved.reshape(kept_dims + (n,)), dtype)
    total = cast_array(np.zeros(kept_dims, np.float32), dtype)
    for i in range(n):
        # float16 + float16 rounds natively; bf16 re-quantizes explicitly.
        total = cast_array(total + flat[..., i], dtype)
    if kind == "mean":
        total = cast_array(total / np.float32(n), dtype)
    if keepdims:
        out_dims = tuple(
            1 if i in reduce_axes else x.shape[i] for i in range(rank)
        )
        total = total.reshape(out_dims)
    return total


def _instruction_cost(inst: HloInstruction, in_shapes) -> tuple[float, float]:
    """(flops, traffic bytes) of one instruction for the device model."""
    op = inst.opcode
    out_elems = inst.shape.num_elements
    if op == "dot":
        k = in_shapes[0][-1] if in_shapes[0] else 1
        flops = 2.0 * out_elems * k
    elif op in ("convolution", "conv_grad_input", "conv_grad_filter"):
        kh, kw, cin, _ = (
            inst.attrs["filter_dims"] if op == "conv_grad_filter" else in_shapes[1]
        )
        flops = 2.0 * out_elems * kh * kw * cin
    elif op == "reduce":
        flops = float(math.prod(in_shapes[0]))
    elif op in ("exponential", "log", "tanh", "logistic", "power"):
        flops = 10.0 * out_elems
    elif op in ("sqrt", "rsqrt"):
        flops = 4.0 * out_elems
    else:
        flops = 1.0 * out_elems
    # math.prod(()) == 1: a scalar operand moves one element.
    traffic = (out_elems + sum(math.prod(s) for s in in_shapes)) * ITEMSIZE
    return flops, traffic


@dataclass
class CompilerStats:
    compiles: int = 0
    cache_hits: int = 0
    instructions_compiled: int = 0
    compile_time: float = 0.0

    def reset(self) -> None:
        # Guarded like every other STATS mutation: tests and benchmarks
        # reset counters while replica threads may still be compiling.
        with _LOCK:
            self.compiles = 0
            self.cache_hits = 0
            self.instructions_compiled = 0
            self.compile_time = 0.0


STATS = CompilerStats()

#: Guards the fingerprint cache and STATS counters: concurrent replicas
#: (and the async compile worker) all funnel through ``compile_module``.
_LOCK = named_rlock("hlo.compiler.cache")


class Executable:
    """A compiled HLO module, runnable on a simulated device."""

    def __init__(self, module: HloModule) -> None:
        self.module = module
        self.order = module.entry.post_order()
        count = len(self.order)
        #: Instructions in the schedule: what the simulated JIT charges for.
        self.instruction_count = count
        self.n_parameters = len(module.entry.parameters)
        #: Number of device kernels one run launches (fusion collapses many
        #: instructions into one kernel).
        self.kernel_count = sum(
            1
            for inst in self.order
            if inst.opcode not in ("parameter", "constant", "tuple")
        )
        #: Operand-slot use counts: run() frees each value at its last use,
        #: which is what makes the static liveness intervals of the memory
        #: planner (repro.analysis.memory) exact on straight-line traces.
        self._use_counts = module.entry.use_counts(self.order)
        self._root_id = module.entry.root.id

    def run(
        self,
        args: Sequence[np.ndarray],
        device: Optional[SimDevice] = None,
        host_time: float = 0.0,
    ) -> np.ndarray:
        """Execute; if ``device`` is given, account simulated kernel time."""
        if len(args) != self.n_parameters:
            raise HloError(
                f"executable expects {self.n_parameters} args, got {len(args)}"
            )
        # Inside a trace_attribution scope, account every *owning* result
        # buffer so the dynamic per-trace peak is observable; views
        # (broadcast, and reshape/transpose when layout permits) allocate
        # nothing.  Off by default: finalizers per instruction cost time.
        tracked = memory.intermediates_tracked()
        remaining = dict(self._use_counts)
        values: dict[int, np.ndarray] = {}
        for inst in self.order:
            if inst.opcode == "parameter":
                values[inst.id] = np.asarray(args[inst.parameter_number])
                continue
            in_vals = [values[o.id] for o in inst.operands]
            if inst.opcode == "tuple":
                values[inst.id] = tuple(in_vals)
            elif inst.opcode == "fusion":
                result = self._run_fused(inst, in_vals, device, host_time)
                values[inst.id] = result
                if (
                    tracked
                    and isinstance(result, np.ndarray)
                    and result.base is None
                ):
                    memory.track_buffer(result)
            else:
                result = evaluate_instruction(inst, in_vals)
                values[inst.id] = result
                if (
                    tracked
                    and inst.opcode != "constant"
                    and isinstance(result, np.ndarray)
                    and result.base is None
                ):
                    memory.track_buffer(result)
                if device is not None and inst.opcode != "constant":
                    flops, traffic = _instruction_cost(
                        inst, [o.shape.dims for o in inst.operands]
                    )
                    device.busy_until = max(device.busy_until, host_time)
                    device.launch_fused(1, flops, traffic, host_time)
            # Free dead values: drop each operand at its last use (the root
            # is the caller's result and always survives).  Clearing the
            # locals matters — a lingering reference would delay the free
            # past the next allocation and break the planner's certificate.
            for o in inst.operands:
                left = remaining[o.id] - 1
                remaining[o.id] = left
                if left == 0 and o.id != self._root_id:
                    values.pop(o.id, None)
            in_vals = result = None  # noqa: F841
        return values[self._root_id]

    def _run_fused(self, fusion, external_args, device, host_time):
        inner = fusion.fused_computation
        values: dict[int, np.ndarray] = {}
        n_ops = 0
        flops_total = 0.0
        for inst in inner.post_order():
            if inst.opcode == "parameter":
                values[inst.id] = external_args[inst.parameter_number]
                continue
            in_vals = [values[o.id] for o in inst.operands]
            values[inst.id] = evaluate_instruction(inst, in_vals)
            if inst.opcode != "constant":
                n_ops += 1
                flops, _ = _instruction_cost(
                    inst, [o.shape.dims for o in inst.operands]
                )
                flops_total += flops
        if device is not None:
            # One launch; traffic counts only the region's inputs + output.
            traffic = (
                fusion.shape.num_elements
                + sum(o.shape.num_elements for o in fusion.operands)
            ) * ITEMSIZE
            device.launch_fused(max(n_ops, 1), flops_total, traffic, host_time)
        return values[inner.root.id]


#: The XLA-program cache: canonical key (trace text or module
#: fingerprint) -> Executable.
_CACHE: dict[str, Executable] = {}

#: Modules currently being compiled, keyed like ``_CACHE``: the second
#: thread to ask for an in-flight key blocks on the first one's Future
#: instead of compiling again (single-flight, synchronous face).
_INFLIGHT: dict[str, Future] = {}


def fingerprint(module: HloModule) -> str:
    """Canonical key of a module (its printed text, modulo value names)."""
    text = print_module(module)
    # Names embed global instruction ids; canonicalize them.
    import re

    mapping: dict[str, str] = {}

    def rename(match):
        name = match.group(0)
        if name not in mapping:
            mapping[name] = f"%v{len(mapping)}"
        return mapping[name]

    return re.sub(r"%[\w.\-]+", rename, text)


def _codegen(
    module: HloModule,
    fuse: bool,
    codegen: bool = False,
    key: Optional[str] = None,
) -> Executable:
    """Optimize + emit, updating the compile counters.

    Under ``codegen`` the interpreted executable is additionally lowered
    to a flat-NumPy step function — installed only if the translation
    validator certifies it (``repro.analysis.equivalence``); a rejected
    translation silently falls back to the interpreted executable.
    """
    optimize(module, fuse=fuse)
    executable = Executable(module)
    with _LOCK:
        STATS.compiles += 1
        STATS.instructions_compiled += executable.instruction_count
    if codegen:
        from repro.hlo.codegen import generate_certified

        executable = generate_certified(module, executable, key=key)
    return executable


def compile_module(
    module: HloModule,
    use_cache: bool = True,
    fuse: bool = True,
    codegen: bool = False,
) -> Executable:
    """Optimize + codegen, memoized by fingerprint."""
    if not use_cache:
        return _codegen(module, fuse, codegen=codegen)
    return compile_keyed(fingerprint(module), lambda: module, fuse, codegen)


def compile_keyed(
    key: str,
    lower: Callable[[], HloModule],
    fuse: bool = True,
    codegen: bool = False,
) -> Executable:
    """The executable cached under ``key``; ``lower()`` builds its module
    only on a miss.

    ``key`` must determine the module up to value names: the lazy runtime
    passes the full canonical trace text (``lazy_backend.fragment_key``),
    ``compile_module`` the module's fingerprint.

    Thread-safe and single-flight: concurrent replicas materializing the
    same fresh trace produce exactly one compile — the first caller runs
    it, the rest block on its result and count as cache hits.
    """
    if codegen:
        # Certified-codegen executables live under their own keyspace so a
        # mixed workload never hands an interpreted caller a generated step
        # function (or vice versa).
        key = "codegen:" + key
    with _LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            STATS.cache_hits += 1
            return cached
        pending = _INFLIGHT.get(key)
        if pending is None:
            pending = Future()
            _INFLIGHT[key] = pending
            owner = True
        else:
            owner = False
    if not owner:
        executable = pending.result()
        with _LOCK:
            STATS.cache_hits += 1
        return executable
    try:
        executable = _codegen(lower(), fuse, codegen=codegen, key=key)
    except BaseException as exc:
        with _LOCK:
            _INFLIGHT.pop(key, None)
        pending.set_exception(exc)
        raise
    with _LOCK:
        _CACHE[key] = executable
        _INFLIGHT.pop(key, None)
    pending.set_result(executable)
    return executable


def clear_cache() -> None:
    with _LOCK:
        _CACHE.clear()


def cache_size() -> int:
    with _LOCK:
        return len(_CACHE)


def cache_keys() -> tuple[str, ...]:
    """Canonical keys currently cached (insertion order): trace texts from
    the lazy runtime, fingerprints from ``compile_module``.

    The static trace-stability analyzer cross-checks its predicted
    distinct-executable count against the growth of this set.
    """
    with _LOCK:
        return tuple(_CACHE)


# ---------------------------------------------------------------------------
# Asynchronous compilation (the concurrent execution engine's JIT face).
# ---------------------------------------------------------------------------


@dataclass
class AsyncCompileStats:
    """Counters of one :class:`AsyncCompiler` (all monotonic except the
    ``compile_inflight`` gauge reported by :meth:`AsyncCompiler.stats`)."""

    #: Steps that found a ready executable for their canonical key.
    compile_hits: int = 0
    #: Steps that ran op-by-op because their compile was still in flight.
    fallback_steps: int = 0
    #: Distinct keys handed to the background worker.
    submitted: int = 0
    #: Submissions coalesced onto an already-in-flight compile
    #: (single-flight dedup: these never reached the worker).
    deduplicated: int = 0
    completed: int = 0
    failed: int = 0


class AsyncCompiler:
    """Background JIT with a single-flight, key-addressed executable cache.

    Keys are full canonical trace texts (``lazy_backend.fragment_key``)
    computed before lowering, so a lookup builds no HLO.  A miss
    never blocks: :meth:`submit` schedules the build on a worker thread
    and returns; the caller executes its fragment op-by-op in the meantime
    and finds the executable ready on a later step.
    """

    def __init__(self, workers: int = 1) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="hlo-compile"
        )
        self._lock = named_rlock("hlo.async_compiler")
        self._ready: dict[str, Executable] = {}
        self._inflight: dict[str, Future] = {}
        self.stats = AsyncCompileStats()

    # -- cache interface -----------------------------------------------------

    def lookup(self, key: str) -> Optional[Executable]:
        """The non-blocking cache probe; counts a hit iff ready."""
        with self._lock:
            executable = self._ready.get(key)
            if executable is not None:
                self.stats.compile_hits += 1
            return executable

    def submit(self, key: str, build: Callable[[], Executable]) -> Future:
        """Schedule ``build`` for ``key`` unless ready or already in flight.

        Returns the Future tracking the key's compilation (already
        resolved if the executable is ready).  Exactly one ``build`` runs
        per key, however many threads race here — the single-flight
        guarantee the stress tests pin down.
        """
        with self._lock:
            executable = self._ready.get(key)
            if executable is not None:
                done: Future = Future()
                done.set_result(executable)
                return done
            pending = self._inflight.get(key)
            if pending is not None:
                self.stats.deduplicated += 1
                return pending
            self.stats.submitted += 1
            pending = self._executor.submit(self._build, key, build)
            self._inflight[key] = pending
            return pending

    def note_fallback(self) -> None:
        """Record one step that executed eagerly under an in-flight compile."""
        with self._lock:
            self.stats.fallback_steps += 1

    def _build(self, key: str, build: Callable[[], Executable]) -> Executable:
        try:
            executable = build()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
                self.stats.failed += 1
            raise
        with self._lock:
            self._ready[key] = executable
            self._inflight.pop(key, None)
            self.stats.completed += 1
        return executable

    # -- introspection -------------------------------------------------------

    @property
    def compile_inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def cached_keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._ready)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until every in-flight compile has finished (for tests and
        deterministic benchmark boundaries)."""
        while True:
            with self._lock:
                pending = list(self._inflight.values())
            if not pending:
                return
            for future in pending:
                future.exception(timeout=timeout)

    def stats_dict(self) -> dict:
        """The stats surface: counters plus the in-flight gauge."""
        with self._lock:
            return {
                "compile_inflight": len(self._inflight),
                "compile_hits": self.stats.compile_hits,
                "fallback_steps": self.stats.fallback_steps,
                "submitted": self.stats.submitted,
                "deduplicated": self.stats.deduplicated,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "cached_executables": len(self._ready),
            }

    def reset(self) -> None:
        """Drop cached executables and zero the counters (idle only)."""
        self.wait()
        with self._lock:
            self._ready.clear()
            self.stats = AsyncCompileStats()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


#: The process-wide async compiler shared by replicas that don't bring
#: their own (mirrors the global synchronous cache above).
ASYNC_COMPILER = AsyncCompiler()
