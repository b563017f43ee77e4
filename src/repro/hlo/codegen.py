"""Flat-NumPy codegen: one Python step function per scheduled module.

``emit_module`` turns an optimized (scheduled) HLO module into the source
text of a single flat Python function: every instruction becomes one
assignment (fusion regions are inlined), constants are hoisted into a
per-module pool, and values the PR-7 buffer plan assigns to the same
buffer share one Python variable — rebinding the name is what retires the
old array, so the generated code realizes the planner's reuse certificate
directly.  Dtype-narrowing semantics follow the interpreted backend
exactly: narrow results round through ``cast_array``, f16 contraction
operands widen for f32 accumulation, and reduces without an
``accum="f32"`` override run the element-serial narrow accumulator.

Nothing emitted here runs unverified: :func:`generate_certified` hands
the source to the translation validator (``repro.analysis.equivalence``)
and installs a :class:`CodegenExecutable` only when the equivalence proof
goes through; a rejected translation falls back to the interpreted
executable unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import HloError
from repro.hlo.compiler import (
    _BINARY_KERNELS,
    _COMPARE,
    _UNARY_KERNELS,
    _f32_accum,
    _instruction_cost,
    _narrow_accum_reduce,
    Executable,
    fingerprint,
)
from repro.hlo.dtypes import cast_array, np_dtype_of
from repro.hlo.ir import (
    BF16,
    F16,
    F64,
    NARROW_DTYPES,
    HloInstruction,
    HloModule,
)
from repro.hlo.ops import HLO_OPS
from repro.locks import named_rlock
from repro.runtime import memory
from repro.runtime.kernels import ITEMSIZE, KERNELS
#: Element dtypes whose results the interpreted backend coerces after
#: every instruction (``evaluate_instruction``); codegen must match.
_COERCED_DTYPES = (F16, BF16, F64)

_REDUCE_KERNELS = {"sum": "reduce_sum", "mean": "reduce_mean", "max": "reduce_max"}


def freeze(value):
    """Canonicalize an attribute literal for source emission / term keys.

    Lists become tuples (NumPy accepts either; the emitted source and the
    validator's term payloads must agree on one), NumPy scalars become
    Python scalars.  Shared with ``repro.analysis.equivalence`` so both
    sides of the translation proof freeze literals identically.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise HloError(f"unsupported attribute literal for codegen: {value!r}")


def _lit(value) -> str:
    return repr(freeze(value))


@dataclass(frozen=True)
class GeneratedStep:
    """The emitted flat function for one module (pure data, no code object).

    ``source`` is deterministic for a canonical module: variable names
    derive from parameter numbers, buffer-plan slots, and schedule
    positions — never from global instruction ids.
    """

    module_name: str
    source: str
    #: Hoisted constant pool, exactly the values ``evaluate_instruction``
    #: would produce for each constant (narrow literals pre-coerced).
    consts: tuple
    n_parameters: int
    #: Device-cost replay: (bump_busy_until, n_ops, flops, traffic) per
    #: launch, in schedule order — identical accounting to the interpreter.
    launches: tuple
    #: (value label, source line number) per emitted assignment, in order.
    emitted: tuple
    filename: str

    @property
    def line_count(self) -> int:
        return len(self.source.splitlines())


def _hoisted_constant(inst: HloInstruction):
    """The exact run-time value of a constant under the interpreter."""
    dt = inst.shape.dtype
    if dt in _COERCED_DTYPES:
        return cast_array(inst.literal, dt)
    return inst.literal


def _acc_operand(operand: HloInstruction, expr: str) -> str:
    """Wrap an f16 contraction operand for f32 accumulation (PR-8)."""
    return f"f32acc({expr})" if operand.shape.dtype == F16 else expr


def _raw_expr(inst: HloInstruction, a: list[str]) -> str:
    """The expression computing ``inst`` before result coercion — a
    source-level mirror of ``_evaluate_raw``."""
    op = inst.opcode
    at = inst.attrs
    row = HLO_OPS.get(op)
    if row is not None:
        if row.f32_accum:
            a = [_acc_operand(o, x) for o, x in zip(inst.operands, a)]
        literals = [_lit(v) for v in row.attr_values(at)]
        return f"K[{row.kernel!r}](" + ", ".join(a + literals) + ")"
    if op == "convert":
        return f"cast({a[0]}, {at['new_dtype']!r})"
    if op in _UNARY_KERNELS:
        return f"K[{_UNARY_KERNELS[op]!r}]({a[0]})"
    if op in _BINARY_KERNELS:
        return f"K[{_BINARY_KERNELS[op]!r}]({a[0]}, {a[1]})"
    if op == "compare":
        return f"CMP[{at['direction']!r}]({a[0]}, {a[1]})"
    if op == "not":
        return f"np.logical_not({a[0]})"
    if op == "reduce":
        kind = at["kind"]
        x = a[0]
        if at.get("accum") == "f32":
            # The AMP discipline: widen any non-f32 storage before summing.
            if np_dtype_of(inst.operands[0].shape.dtype) != np.float32:
                x = f"{x}.astype(np.float32)"
        elif inst.shape.dtype in NARROW_DTYPES and kind in ("sum", "mean"):
            return (
                f"narrow_reduce({x}, {_lit(at['axes'])}, "
                f"{_lit(at['keepdims'])}, {kind!r}, {inst.shape.dtype!r})"
            )
        return (
            f"K[{_REDUCE_KERNELS[kind]!r}]({x}, {_lit(at['axes'])}, "
            f"{_lit(at['keepdims'])})"
        )
    raise HloError(f"no codegen lowering for opcode {op!r}")


def _coerced_expr(inst: HloInstruction, a: list[str]) -> str:
    raw = _raw_expr(inst, a)
    dt = inst.shape.dtype
    if inst.opcode != "convert" and dt in _COERCED_DTYPES:
        # convert is already a single cast; re-casting would be redundant
        # (cast_array is idempotent per dtype).
        return f"cast({raw}, {dt!r})"
    return raw


def emit_module(module: HloModule, key: Optional[str] = None) -> GeneratedStep:
    """Emit the flat step function for ``module`` (already optimized).

    ``key`` is a short display key used only for the synthetic filename
    and the buffer plan's metadata; it never affects the emitted source.
    """
    # The planner lives in the analysis layer but depends only on the HLO
    # IR; import lazily to keep the layering acyclic.
    from repro.analysis.memory.bufferplan import plan_buffers
    from repro.analysis.memory.liveness import analyze_liveness

    schedule = module.schedule()
    plan = plan_buffers(analyze_liveness(module), key)
    root = module.entry.root
    n_params = len(module.entry.parameters)

    consts: list = []
    names: dict[int, str] = {}
    lines: list[str] = []
    emitted: list[tuple[str, int]] = []
    launches: list[tuple[bool, int, float, float]] = []

    def hoist(inst: HloInstruction) -> str:
        consts.append(_hoisted_constant(inst))
        return f"C[{len(consts) - 1}]"

    def emit_line(target: str, expr: str, label: str) -> None:
        lines.append(f"{target} = {expr}")
        # Line 1 is the def header, so body line i is source line i + 1.
        emitted.append((label, len(lines) + 1))

    def target_name(inst: HloInstruction, pos: int) -> str:
        assignment = plan.assignments.get(inst.id)
        if assignment is not None:
            return f"b{assignment.buffer}"
        return f"v{pos}"

    def emit_fusion(fusion: HloInstruction, ext: list[str], pos: int) -> str:
        inner = fusion.fused_computation
        inner_names: dict[int, str] = {}
        inner_root = inner.root
        target = target_name(fusion, pos)
        n_ops = 0
        flops_total = 0.0
        for j, inst in enumerate(inner.post_order()):
            if inst.opcode == "parameter":
                inner_names[inst.id] = ext[inst.parameter_number]
                continue
            if inst.opcode == "constant":
                inner_names[inst.id] = hoist(inst)
                continue
            expr = _coerced_expr(inst, [inner_names[o.id] for o in inst.operands])
            if inst is inner_root:
                tname, label = target, f"%{fusion.name}"
            else:
                tname, label = f"t{pos}_{j}", f"%{fusion.name}.{inst.name}"
            emit_line(tname, expr, label)
            inner_names[inst.id] = tname
            n_ops += 1
            flops, _ = _instruction_cost(
                inst, [o.shape.dims for o in inst.operands]
            )
            flops_total += flops
        if inner_root.opcode in ("parameter", "constant"):
            emit_line(target, inner_names[inner_root.id], f"%{fusion.name}")
        # One launch; traffic counts only the region's inputs + output.
        traffic = (
            fusion.shape.num_elements
            + sum(o.shape.num_elements for o in fusion.operands)
        ) * ITEMSIZE
        launches.append((False, max(n_ops, 1), flops_total, traffic))
        return target

    for pos, inst in enumerate(schedule):
        op = inst.opcode
        if op == "parameter":
            names[inst.id] = f"p{inst.parameter_number}"
            continue
        if op == "constant":
            names[inst.id] = hoist(inst)
            continue
        if op == "tuple":
            if inst is root:
                continue  # emitted directly in the return statement
            operands = [names[o.id] for o in inst.operands]
            tail = "," if len(operands) == 1 else ""
            target = target_name(inst, pos)
            emit_line(target, "(" + ", ".join(operands) + tail + ")", f"%{inst.name}")
            names[inst.id] = target
            continue
        a = [names[o.id] for o in inst.operands]
        if op == "fusion":
            names[inst.id] = emit_fusion(inst, a, pos)
            continue
        target = target_name(inst, pos)
        emit_line(target, _coerced_expr(inst, a), f"%{inst.name}")
        names[inst.id] = target
        flops, traffic = _instruction_cost(
            inst, [o.shape.dims for o in inst.operands]
        )
        launches.append((True, 1, flops, traffic))

    if root.opcode == "tuple":
        operands = [names[o.id] for o in root.operands]
        tail = "," if len(operands) == 1 else ""
        ret = "(" + ", ".join(operands) + tail + ")"
    else:
        ret = names[root.id]

    header = "def step(" + ", ".join(f"p{i}" for i in range(n_params)) + "):\n"
    body = "".join(f"    {line}\n" for line in lines)
    source = header + body + f"    return {ret}\n"
    return GeneratedStep(
        module_name=module.name,
        source=source,
        consts=tuple(consts),
        n_parameters=n_params,
        launches=tuple(launches),
        emitted=tuple(emitted),
        filename=f"<codegen:{key}>" if key else "<codegen>",
    )


def compile_step(generated: GeneratedStep) -> Callable:
    """``compile()``/``exec`` the emitted source once, returning the function.

    The namespace binds exactly the helpers the emitter references — the
    kernel table, the compare table, the constant pool, and the three
    dtype-semantics helpers shared with the interpreter.
    """
    namespace = {
        "np": np,
        "K": KERNELS,
        "CMP": _COMPARE,
        "C": generated.consts,
        "cast": cast_array,
        "f32acc": _f32_accum,
        "narrow_reduce": _narrow_accum_reduce,
    }
    code = compile(generated.source, generated.filename, "exec")
    exec(code, namespace)
    return namespace["step"]


class CodegenExecutable:
    """A certified generated step function with the ``Executable`` interface.

    Immutable after construction: the compiled function is pure (locals
    only), the cost replay is a static tuple, and the wrapped interpreted
    executable handles the memory-tracked path — so instances are shared
    read-only across replica threads exactly like ``Executable``.
    """

    def __init__(
        self,
        module: HloModule,
        interpreted: Executable,
        generated: GeneratedStep,
        fn: Callable,
    ) -> None:
        self.module = module
        self.interpreted = interpreted
        self.generated = generated
        self.order = interpreted.order
        self.n_parameters = interpreted.n_parameters
        self.kernel_count = interpreted.kernel_count
        self._fn = fn
        self._launches = generated.launches

    def run(
        self,
        args: Sequence[np.ndarray],
        device=None,
        host_time: float = 0.0,
    ):
        if len(args) != self.n_parameters:
            raise HloError(
                f"executable expects {self.n_parameters} args, got {len(args)}"
            )
        if memory.intermediates_tracked():
            # The memory oracle observes per-instruction buffers; only the
            # interpreted executor surfaces them.  Same values either way —
            # that is exactly what the certificate proves.
            return self.interpreted.run(args, device, host_time)
        result = self._fn(*[np.asarray(a) for a in args])
        if device is not None:
            for bump, n_ops, flops, traffic in self._launches:
                if bump:
                    device.busy_until = max(device.busy_until, host_time)
                device.launch_fused(n_ops, flops, traffic, host_time)
        return result


@dataclass
class CodegenStats:
    """Counters of the codegen pipeline (guarded by the codegen lock)."""

    emitted: int = 0
    certified: int = 0
    rejected: int = 0
    installs: int = 0
    source_cache_hits: int = 0

    def reset(self) -> None:
        with _LOCK:
            self.emitted = 0
            self.certified = 0
            self.rejected = 0
            self.installs = 0
            self.source_cache_hits = 0


STATS = CodegenStats()

#: Guards the emitted-source cache and STATS: compile workers, replicas,
#: and analysis sweeps all reach ``generate_certified`` concurrently.
#: A leaf lock — never held while taking any other repro lock.
_LOCK = named_rlock("hlo.codegen.cache")

#: Emitted source + validation verdict per compiler cache key: emission
#: and validation are deterministic, so one proof serves every recompile.
_SOURCE_CACHE: dict[str, tuple] = {}


def clear_source_cache() -> None:
    with _LOCK:
        _SOURCE_CACHE.clear()


def source_cache_size() -> int:
    with _LOCK:
        return len(_SOURCE_CACHE)


def _short_key(cache_key: str) -> str:
    return hashlib.sha256(cache_key.encode()).hexdigest()[:12]


def generate_certified(
    module: HloModule,
    interpreted: Executable,
    key: Optional[str] = None,
):
    """Emit + validate ``module``; return certified codegen or the fallback.

    Only a *certified* translation is wrapped in :class:`CodegenExecutable`;
    a rejected one returns ``interpreted`` unchanged (the caller's cache
    then serves the interpreted executable for this key, the same fallback
    path a cold async compile charges).
    """
    # The validator lives in the analysis layer; import lazily so the HLO
    # package never depends on analysis at import time.
    from repro.analysis.equivalence.validator import validate_translation

    cache_key = key if key is not None else fingerprint(module)
    with _LOCK:
        cached = _SOURCE_CACHE.get(cache_key)
        if cached is not None:
            STATS.source_cache_hits += 1
    if cached is None:
        generated = emit_module(module, _short_key(cache_key))
        result = validate_translation(
            module, generated.source, generated.consts, filename=generated.filename
        )
        with _LOCK:
            cached = _SOURCE_CACHE.get(cache_key)
            if cached is None:
                _SOURCE_CACHE[cache_key] = cached = (generated, result)
                STATS.emitted += 1
                if result.certified:
                    STATS.certified += 1
                else:
                    STATS.rejected += 1
    generated, result = cached
    if not result.certified:
        return interpreted
    fn = compile_step(generated)
    with _LOCK:
        STATS.installs += 1
    return CodegenExecutable(module, interpreted, generated, fn)
