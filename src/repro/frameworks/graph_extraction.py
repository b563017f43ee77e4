"""Graph program extraction — the Section 3.5 alternative to lazy tracing.

Before LazyTensor, the Swift for TensorFlow project explored slicing the
user's program into an accelerator program compiled fully ahead of time.
This module implements that approach as a partial evaluator over SIL:

* the model and all configuration are **compile-time constants**;
* tensor arguments are **abstract** (shape-only) values;
* concrete control flow (config `if`s, `for` loops over static layer
  lists) is evaluated away at extraction time;
* every tensor operation encountered is emitted into an HLO graph, which
  compiles to a single fused executable with *zero* per-step tracing cost.

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


class GraphExtractionError(ReproError):
    """The program cannot be compiled fully ahead of time."""


class AbstractTensor:
    """A shape-only stand-in for a runtime tensor during extraction."""

    __slots__ = ("inst",)

    def __init__(self, inst) -> None:
        self.inst = inst  # the HLO instruction producing this value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.inst.shape.dims


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


#: SIL primitive name -> HLO emission for abstract tensor operands.
def _emit_binary(builder, op):
    def emit(args):
        a, b = (_as_hlo(builder, x) for x in args)
        dims = np.broadcast_shapes(a.shape.dims, b.shape.dims)
        return AbstractTensor(
            builder.binary(op, builder.broadcast(a, dims), builder.broadcast(b, dims))
        )

    return emit


def _emit_unary(builder, op):
    def emit(args):
        return AbstractTensor(builder.unary(op, _as_hlo(builder, args[0])))

    return emit


def _as_hlo(builder, value):
    if isinstance(value, AbstractTensor):
        return value.inst
    if isinstance(value, (int, float)):
        return builder.constant(float(value))
    from repro.tensor import Tensor

    if isinstance(value, Tensor):
        # A concrete tensor (model weight): embed as a constant.
        return builder.constant(value.numpy())
    raise GraphExtractionError(f"cannot lower {type(value).__name__} to HLO")


class _Extractor(Evaluator):
    """Partially evaluates a SIL function, emitting HLO for tensor ops: the
    reference evaluator with an abstract-aware ``apply``, ``struct_extract``
    and branch-condition read."""

    error = GraphExtractionError

    def __init__(self, builder: HloBuilder) -> None:
        self.builder = builder
        #: Executed-block budget of the whole extraction, callees included.
        self.blocks_left = 100_000
        b = builder
        self.tensor_rules = {
            "add": _emit_binary(b, "add"),
            "sub": _emit_binary(b, "subtract"),
            "mul": _emit_binary(b, "multiply"),
            "div": _emit_binary(b, "divide"),
            "pow": _emit_binary(b, "power"),
            "neg": _emit_unary(b, "negate"),
            "exp": _emit_unary(b, "exponential"),
            "log": _emit_unary(b, "log"),
            "tanh": _emit_unary(b, "tanh"),
            "sigmoid": _emit_unary(b, "logistic"),
            "relu": _emit_unary(b, "relu"),
            "sqrt": _emit_unary(b, "sqrt"),
            "rsqrt": _emit_unary(b, "rsqrt"),
            "abs": _emit_unary(b, "abs"),
            "identity": lambda args: args[0],
            "lt": self._emit_compare("lt"),
            "le": self._emit_compare("le"),
            "gt": self._emit_compare("gt"),
            "ge": self._emit_compare("ge"),
            "matmul_op": self._emit_matmul,
            "matmul": self._emit_matmul,
            "conv2d": self._emit_conv2d,
            "avg_pool2d": self._emit_avg_pool,
            "max_pool2d": self._emit_max_pool,
            "tensor_sum": self._emit_reduce("sum"),
            "tensor_mean": self._emit_reduce("mean"),
            "tensor_max": self._emit_reduce("max"),
            "tensor_reshape": self._emit_reshape,
            "flatten_batch": self._emit_flatten,
            "softmax_cross_entropy": self._emit_softmax_ce,
        }

    # -- emission helpers -----------------------------------------------------

    def _emit_compare(self, direction):
        def emit(args):
            a, b = (_as_hlo(self.builder, x) for x in args)
            dims = np.broadcast_shapes(a.shape.dims, b.shape.dims)
            return AbstractTensor(
                self.builder.binary(
                    "compare",
                    self.builder.broadcast(a, dims),
                    self.builder.broadcast(b, dims),
                    comparison=direction,
                )
            )

        return emit

    def _emit_matmul(self, args):
        a, b = (_as_hlo(self.builder, x) for x in args)
        return AbstractTensor(self.builder.dot(a, b))

    def _emit_conv2d(self, args):
        x = _as_hlo(self.builder, args[0])
        filters = _as_hlo(self.builder, args[1])
        stride = args[2] if len(args) > 2 else 1
        padding = args[3] if len(args) > 3 else "valid"
        if isinstance(stride, AbstractTensor) or isinstance(padding, AbstractTensor):
            raise GraphExtractionError("conv2d configuration must be static")
        return AbstractTensor(self.builder.convolution(x, filters, stride, padding))

    def _emit_avg_pool(self, args):
        x = _as_hlo(self.builder, args[0])
        pool = args[1] if len(args) > 1 else 2
        stride = args[2] if len(args) > 2 else 2
        return AbstractTensor(self.builder.avg_pool(x, pool, stride))

    def _emit_max_pool(self, args):
        x = _as_hlo(self.builder, args[0])
        pool = args[1] if len(args) > 1 else 2
        stride = args[2] if len(args) > 2 else 2
        return AbstractTensor(self.builder.max_pool(x, pool, stride))

    def _emit_reduce(self, kind):
        def emit(args):
            x = _as_hlo(self.builder, args[0])
            axes = args[1] if len(args) > 1 else None
            keepdims = args[2] if len(args) > 2 else False
            if isinstance(axes, AbstractTensor):
                raise GraphExtractionError("reduction axes must be static")
            return AbstractTensor(self.builder.reduce(x, kind, axes, bool(keepdims)))

        return emit

    def _emit_reshape(self, args):
        x = _as_hlo(self.builder, args[0])
        dims = args[1]
        if isinstance(dims, AbstractTensor):
            raise GraphExtractionError("reshape dims must be static")
        dims = tuple(dims)
        if -1 in dims:
            known = int(np.prod([d for d in dims if d != -1]))
            dims = tuple(
                x.shape.num_elements // known if d == -1 else d for d in dims
            )
        return AbstractTensor(self.builder.reshape(x, dims))

    def _emit_flatten(self, args):
        x = _as_hlo(self.builder, args[0])
        n = x.shape.dims[0]
        return AbstractTensor(
            self.builder.reshape(x, (n, x.shape.num_elements // n))
        )

    def _emit_softmax_ce(self, args):
        logits = _as_hlo(self.builder, args[0])
        labels = _as_hlo(self.builder, args[1])
        return AbstractTensor(self.builder.softmax_ce(logits, labels))

    # -- partial evaluation ------------------------------------------------------

    def evaluate(self, func: ir.Function, args: Sequence[object]):
        """Interpret ``func``; concrete values fold, abstract tensors emit."""
        return self.run(func, args)

    def enter_block(self, block, edge_args) -> None:
        self.blocks_left -= 1
        if self.blocks_left < 0:
            raise GraphExtractionError(
                "extraction did not terminate (unbounded static loop?)"
            )

    def cond(self, term, env):
        cond = super().cond(term, env)
        if isinstance(cond, AbstractTensor):
            raise GraphExtractionError(
                "control flow depends on a runtime tensor value; "
                "ahead-of-time extraction cannot slice it (Section 3.5) "
                "— use the LazyTensor device instead"
            )
        return cond

    def struct_extract(self, inst, env):
        owner = env[inst.operands[0].id]
        if isinstance(owner, AbstractTensor):
            if inst.field == "shape":
                return owner.shape
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
        has_abstract = any(isinstance(a, AbstractTensor) for a in args)

        if isinstance(callee, Primitive):
            if has_abstract or isinstance(callee.fn, type(None)):
                rule = self.tensor_rules.get(callee.name)
                if rule is None:
                    if not has_abstract:
                        return callee.fn(*args)
                    raise GraphExtractionError(
                        f"no static lowering for primitive {callee.name!r}"
                    )
                return rule(args)
            return callee.fn(*args)

        if isinstance(callee, ir.Function):
            return self.evaluate(callee, args)

        # Layers and other differentiable callables: inline their SIL.
        call_fn = getattr(type(callee), "__call_fn__", None)
        if call_fn is not None:
            return self.evaluate(call_fn.func, [callee, *args])
        sil_func = getattr(callee, "__sil_function__", None)
        if sil_func is not None:
            return self.evaluate(sil_func, args)
        if callable(callee) and not has_abstract:
            return callee(*args)
        try:
            lowered = lower_function(callee)
        except Exception as exc:
            raise GraphExtractionError(
                f"cannot statically inline call to {callee!r}: {exc}"
            ) from exc
        return self.evaluate(lowered, args)


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
    sil_func = getattr(fn, "__sil_function__", None) or lower_function(fn)
    builder = HloBuilder("extracted")
    extractor = _Extractor(builder)
    abstract_inputs = [
        AbstractTensor(builder.parameter(Shape(tuple(s)))) for s in input_shapes
    ]
    result = extractor.evaluate(sil_func, [*static_args, *abstract_inputs])
    if not isinstance(result, AbstractTensor):
        raise GraphExtractionError(
            f"program result is static ({type(result).__name__}); nothing to compile"
        )
    module = builder.build(result.inst, module_name="extracted")
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
    sil_func = getattr(fn, "__sil_function__", None) or lower_function(fn)
    builder = HloBuilder("shape_check")
    extractor = _Extractor(builder)
    abstract_inputs = [
        AbstractTensor(builder.parameter(Shape(tuple(s)))) for s in input_shapes
    ]
    result = extractor.evaluate(sil_func, [*static_args, *abstract_inputs])
    if isinstance(result, AbstractTensor):
        return result.shape
    if isinstance(result, tuple):
        return tuple(
            r.shape if isinstance(r, AbstractTensor) else type(r).__name__
            for r in result
        )
    return type(result).__name__
