"""Graph program extraction — the Section 3.5 alternative to lazy tracing.

Before LazyTensor, the Swift for TensorFlow project explored slicing the
user's program into an accelerator program compiled fully ahead of time.
This module implements that approach as a partial evaluator over SIL:

* the model and all configuration are **compile-time constants**;
* tensor arguments are **abstract**: Tensors whose storage is the HLO
  instruction computing them, so nothing about their values is known;
* concrete control flow (config `if`s, `for` loops over static layer
  lists) is evaluated away at extraction time;
* every tensor operation encountered emits its row of
  :mod:`repro.tensor.traceops` — the lowering LazyTensor compiles — into
  one HLO graph, which compiles to a single fused executable with *zero*
  per-step tracing cost.

And it reproduces the approach's documented limitation: any branch or
loop bound that depends on a *runtime tensor value* cannot be extracted —
:class:`GraphExtractionError` — which is exactly why the project moved to
lazy tracing ("models often rely on dynamically configured values that
are only available at runtime", Section 3.5).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.hlo.builder import HloBuilder
from repro.hlo.compiler import Executable, compile_module
from repro.hlo.ir import Shape
from repro.sil import ir
from repro.sil.frontend import lower_function
from repro.sil.interp import Evaluator
from repro.sil.primitives import Primitive
from repro.tensor.tensor import Tensor
from repro.tensor.traceops import TRACE_OPS


class GraphExtractionError(ReproError):
    """The program cannot be compiled fully ahead of time."""


class ExtractedProgram:
    """An AOT-compiled tensor program: run it with concrete arrays."""

    def __init__(self, executable: Executable, input_shapes) -> None:
        self.executable = executable
        self.input_shapes = list(input_shapes)

    @property
    def op_count(self) -> int:
        return self.executable.kernel_count

    def run(self, *arrays: np.ndarray, device=None, host_time: float = 0.0):
        args = [np.asarray(a, dtype=np.float32) for a in arrays]
        for a, expected in zip(args, self.input_shapes):
            if tuple(a.shape) != tuple(expected):
                raise GraphExtractionError(
                    f"extracted program expects input shape {expected}, "
                    f"got {a.shape} (static shapes are fixed at extraction)"
                )
        return self.executable.run(args, device=device, host_time=host_time)


#: Why a runtime tensor value defeats extraction, and what to use instead.
_NOT_STATIC = (
    "ahead-of-time extraction cannot slice it (Section 3.5) "
    "— use the LazyTensor device instead"
)


class _ExtractionDevice:
    """Where an extraction's runtime tensors live: real :class:`Tensor`
    values whose storage is the HLO instruction producing them.

    It offers Tensor the surface a :class:`~repro.tensor.device.Device`
    binds (``apply``, ``source``, ``constant``, ``full``, ``observe``), so
    every tensor op and primitive body runs unchanged and each op emits its
    row of :mod:`repro.tensor.traceops` into one builder: the same lowering
    the lazy runtime compiles.  It is private to one extraction, never a
    ``Device`` kind.
    """

    kind = "extract"
    name = "extract"

    def __init__(self, builder: HloBuilder) -> None:
        self.builder = builder

    def apply(self, op: str, operands: list, attrs: dict):
        return TRACE_OPS[op].lower(self.builder, operands, attrs)

    def source(self, data):
        return self.builder.constant(np.asarray(data, dtype=np.float32))

    def constant(self, value: float):
        return self.builder.constant(float(value))

    def full(self, shape: tuple[int, ...], value: float):
        return self.source(np.full(shape, value, dtype=np.float32))

    def observe(self, inst):
        raise GraphExtractionError(
            f"the program reads the value of a runtime tensor {inst.shape}; "
            + _NOT_STATIC
        )

    def tensor(self, inst) -> Tensor:
        return Tensor._wrap(inst, self)


class _Extractor(Evaluator):
    """Partially evaluates a SIL function: the reference evaluator, with
    primitives run on extraction tensors and a static-only branch
    condition."""

    error = GraphExtractionError

    def __init__(self, device: _ExtractionDevice) -> None:
        self.device = device
        #: Executed-block budget of the whole extraction, callees included.
        self.blocks_left = 100_000

    def is_abstract(self, value) -> bool:
        return isinstance(value, Tensor) and value.device is self.device

    def enter_block(self, block, edge_args) -> None:
        self.blocks_left -= 1
        if self.blocks_left < 0:
            raise GraphExtractionError(
                "extraction did not terminate (unbounded static loop?)"
            )

    def cond(self, term, env):
        cond = super().cond(term, env)
        if self.is_abstract(cond):
            raise GraphExtractionError(
                "control flow depends on a runtime tensor value; " + _NOT_STATIC
            )
        return cond

    def struct_extract(self, inst, env):
        owner = env[inst.operands[0].id]
        if self.is_abstract(owner) and inst.field != "shape":
            raise GraphExtractionError(
                f"attribute {inst.field!r} of a runtime tensor is not static"
            )
        return super().struct_extract(inst, env)

    def _reject(self, inst, env):
        raise GraphExtractionError(f"cannot extract {inst}")

    begin_access = access_load = access_store = end_access = _reject

    def apply(self, inst: ir.ApplyInst, env):
        args = [env[v.id] for v in inst.args]
        callee = env[inst.callee.id] if inst.is_indirect else inst.callee.target
        has_abstract = any(map(self.is_abstract, args))

        if isinstance(callee, Primitive):
            if has_abstract:
                # A concrete tensor (a model weight) meeting a runtime one
                # is a constant of the program, embedded at each use.
                args = [
                    self.device.tensor(self.device.source(a.numpy()))
                    if isinstance(a, Tensor) and not self.is_abstract(a)
                    else a
                    for a in args
                ]
            return callee.fn(*args)

        if isinstance(callee, ir.Function):
            return self.run(callee, args)

        # Layers and other differentiable callables: inline their SIL.
        call_fn = getattr(type(callee), "__call_fn__", None)
        if call_fn is not None:
            return self.run(call_fn.func, [callee, *args])
        sil_func = getattr(callee, "__sil_function__", None)
        if sil_func is not None:
            return self.run(sil_func, args)
        if callable(callee) and not has_abstract:
            return callee(*args)
        try:
            lowered = lower_function(callee)
        except Exception as exc:
            raise GraphExtractionError(
                f"cannot statically inline call to {callee!r}: {exc}"
            ) from exc
        return self.run(lowered, args)


def _evaluate(fn, static_args, input_shapes, name: str):
    """Run ``fn(*static_args, *inputs)`` with each input a parameter of a
    fresh builder; returns the extractor and the program's result."""
    sil_func = getattr(fn, "__sil_function__", None) or lower_function(fn)
    device = _ExtractionDevice(HloBuilder(name))
    inputs = [
        device.tensor(device.builder.parameter(Shape(tuple(s))))
        for s in input_shapes
    ]
    extractor = _Extractor(device)
    return extractor, extractor.run(sil_func, [*static_args, *inputs])


def extract_program(
    fn,
    *static_args,
    input_shapes: Sequence[Sequence[int]],
    fuse: bool = True,
) -> ExtractedProgram:
    """Compile ``fn(*static_args, *tensors)`` fully ahead of time.

    ``static_args`` (the model, configuration) are compile-time constants;
    ``input_shapes`` describe the runtime tensor parameters that follow
    them.  Returns an :class:`ExtractedProgram` whose per-call cost is one
    fused executable launch — no tracing, no dispatch, ever.
    """
    extractor, result = _evaluate(fn, static_args, input_shapes, "extracted")
    if not extractor.is_abstract(result):
        raise GraphExtractionError(
            f"program result is static ({type(result).__name__}); nothing to compile"
        )
    module = extractor.device.builder.build(result._impl, module_name="extracted")
    executable = compile_module(module, use_cache=False, fuse=fuse)
    return ExtractedProgram(executable, [tuple(s) for s in input_shapes])


def check_shapes(fn, *static_args, input_shapes: Sequence[Sequence[int]]):
    """Static shape tracking (the Section 4 "Tensors Fitting Perfectly"
    analysis): verify a tensor program's shapes *before execution*.

    Abstractly interprets the program with shape-only tensor values.
    Returns the output shape on success; raises
    :class:`~repro.errors.ShapeError` at the offending operation (with
    HLO-level shape detail) or :class:`GraphExtractionError` if the
    program's control flow depends on runtime tensor values.
    """
    extractor, result = _evaluate(fn, static_args, input_shapes, "shape_check")
    if extractor.is_abstract(result):
        return result.shape
    if isinstance(result, tuple):
        return tuple(
            r.shape if extractor.is_abstract(r) else type(r).__name__
            for r in result
        )
    return type(result).__name__
