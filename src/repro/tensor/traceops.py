"""The traced-op table: one row per tensor operation.

A row is everything the tensor layer knows about an op: the kernel that
computes it, the attribute names that follow the operands, its shape rule,
its HLO lowering, the dtype it records and what the op-by-op fallback
charges for it.  Kernel signatures (``runtime/kernels.py``), ``HloBuilder``
method signatures and recorded ``TraceNode.attrs`` agree on one convention
— operands first, then the attributes in ``TraceOp.attrs`` order — so the
eager backend, trace recording, HLO lowering, the async-compile fallback
and the pre-lowering trace checker are each a few lines over
``TRACE_OPS[op]``.

Irregular rows, each a field of the row rather than a branch elsewhere:
``compare`` and ``reduce`` choose their kernel by their first attribute
(``kernels``), which the kernel then does not take; the elementwise rows
lower through ``_broadcasting`` and ``concat`` through a function because
their builder calls are not operands-then-attrs; eager ``broadcast_to``
copies its result (``contiguous``), since a Tensor owns its storage;
``matmul``'s fallback cost scales with the contraction size.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.errors import HloError, ShapeError
from repro.hlo import shapes as si
from repro.hlo.builder import HloBuilder
from repro.hlo.ir import Shape
from repro.runtime.kernels import KERNELS, Kernel

Dims = tuple[int, ...]


class TraceOp:
    """One row of the table; see the module docstring for the convention."""

    def __init__(
        self,
        name: str,
        kernel: Union[str, dict[str, str]],
        shape_rule: Callable[..., Dims],
        lowering: Union[str, Callable],
        *attrs: str,
        dtype: str = "f32",
        flops_per_element: Union[float, Callable[[Sequence[Dims]], float]] = 1.0,
        contiguous: bool = False,
    ) -> None:
        self.name = name
        #: The kernel object (resolved here, so an op costs no second
        #: lookup), or None when ``kernels`` picks it by the first attribute.
        self.kernel: Optional[Kernel] = None
        self.kernels: dict[str, Kernel] = {}
        if isinstance(kernel, str):
            self.kernel = KERNELS[kernel]
        else:
            self.kernels = {value: KERNELS[k] for value, k in kernel.items()}
        self.attrs = attrs
        #: ``shape_rule(operand dims, *attr values) -> result dims``.
        self.shape_rule = shape_rule
        #: ``lowering(builder, *operand instructions, *attr values)``; a
        #: string names the HloBuilder method with exactly that signature.
        self.lowering = (
            getattr(HloBuilder, lowering) if isinstance(lowering, str) else lowering
        )
        self.dtype = dtype
        #: Device-clock flops per output element in the op-by-op fallback
        #: (a function of the operand dims for a contraction).
        self.flops_per_element = flops_per_element
        self.contiguous = contiguous

    def infer(self, shapes: Sequence[Dims], attrs: dict) -> Dims:
        """Result dims for operands of ``shapes``; raises ``ShapeError``."""
        return self.shape_rule(shapes, *map(attrs.__getitem__, self.attrs))

    def lower(self, builder: HloBuilder, inputs: list, attrs: dict):
        return self.lowering(builder, *inputs, *map(attrs.__getitem__, self.attrs))

    def kernel_call(self, attrs: dict) -> tuple[Kernel, list]:
        """The kernel and the arguments that follow its operands."""
        values = list(map(attrs.__getitem__, self.attrs))
        if self.kernel is None:
            return self.kernels[values[0]], values[1:]
        return self.kernel, values


# -- shape rules --------------------------------------------------------------


def _same(shapes, *_):
    return shapes[0]


def _broadcast(shapes, *_):
    dims = shapes[0]
    for other in shapes[1:]:
        if other and other != dims:  # a scalar broadcasts to anything
            dims = si.broadcast_shapes(Shape(dims), Shape(other))
    return dims


def _first_attr(shapes, dims, *_):
    return tuple(dims)


def _hlo(rule: Callable[..., Shape]) -> Callable[..., Dims]:
    """An ``hlo.shapes`` rule: operand Shapes, then the attrs in order."""
    return lambda shapes, *values: rule(*map(Shape, shapes), *values).dims


def normalize_axes(axes, shape: Dims):
    """Reduction axes as non-negative ints (``None``, all axes, stays).

    The one place reduce axes are validated, before normalising, so an
    out-of-range or repeated axis fails at the call on every backend."""
    if axes is None:
        return None
    rank = len(shape)
    normalized = tuple(a + rank if a < 0 else a for a in axes)
    if not all(0 <= a < rank for a in normalized):
        raise ShapeError(f"reduce axes {tuple(axes)} out of range for shape {shape}")
    if len(set(normalized)) != len(normalized):
        raise ShapeError(f"duplicate reduce axes {tuple(axes)} for shape {shape}")
    return normalized


def _reduce_shape(shapes, kind, axes, keepdims):
    (shape,) = shapes
    return si.infer_reduce(Shape(shape), normalize_axes(axes, shape), keepdims).dims


def _softmax_ce_shape(shapes):
    logits, labels = shapes
    if logits != labels:
        raise ShapeError(f"softmax_ce logits {logits} and labels {labels} disagree")
    return ()


def _concat_shape(shapes, axis):
    return si.infer_concat([Shape(s) for s in shapes], axis).dims


# -- lowerings that are not one HloBuilder method ----------------------------


def _broadcasting(emit: Callable, arity: int = 2) -> Callable:
    """Lower an elementwise op of ``arity`` operands through ``emit``:
    explicit broadcasts keep HLO shapes static."""

    def lowering(builder, *args):
        operands, values = args[:arity], args[arity:]
        dims = _broadcast([x.shape.dims for x in operands])
        return emit(builder, *[builder.broadcast(x, dims) for x in operands], *values)

    return lowering


def _compare(builder, a, b, direction):
    return builder.binary("compare", a, b, comparison=direction)


# -- the table ----------------------------------------------------------------


def _unary(op: str, opcode: str, flops: float = 1.0) -> TraceOp:
    def lowering(builder, x):
        return builder.unary(opcode, x)

    return TraceOp(op, op, _same, lowering, flops_per_element=flops)


def _binary(op: str, opcode: str, flops: float = 1.0) -> TraceOp:
    def emit(builder, a, b):
        return builder.binary(opcode, a, b)

    return TraceOp(op, op, _broadcast, _broadcasting(emit), flops_per_element=flops)


_COMPARE_KERNELS = {
    "gt": "greater",
    "ge": "greater_equal",
    "lt": "less",
    "le": "less_equal",
    "eq": "equal",
}

# Transcendentals cost ~10 flops/element on the roofline (roots 4), matching
# the compiled path's per-instruction cost table.
_ROWS = [
    _unary("neg", "negate"),
    _unary("exp", "exponential", 10.0),
    _unary("log", "log", 10.0),
    _unary("tanh", "tanh", 10.0),
    _unary("sqrt", "sqrt", 4.0),
    _unary("rsqrt", "rsqrt", 4.0),
    _unary("sigmoid", "logistic", 10.0),
    _unary("relu", "relu"),
    _unary("abs", "abs"),
    _unary("sign", "sign"),
    _binary("add", "add"),
    _binary("sub", "subtract"),
    _binary("mul", "multiply"),
    _binary("div", "divide"),
    _binary("pow", "power", 10.0),
    _binary("maximum", "maximum"),
    _binary("minimum", "minimum"),
    TraceOp(
        "compare",
        _COMPARE_KERNELS,
        _broadcast,
        _broadcasting(_compare),
        "direction",
        dtype="pred",
    ),
    TraceOp("select", "select", _broadcast, _broadcasting(HloBuilder.select, 3)),
    TraceOp(
        "matmul",
        "matmul",
        _hlo(si.infer_dot),
        "dot",
        flops_per_element=lambda shapes: 2.0 * shapes[0][-1],
    ),
    TraceOp("conv2d", "conv2d", _hlo(si.infer_conv), "convolution", "stride", "padding"),
    TraceOp(
        "conv2d_grad_input",
        "conv2d_grad_input",
        _first_attr,
        "conv_grad_input",
        "input_dims",
        "stride",
        "padding",
    ),
    TraceOp(
        "conv2d_grad_filter",
        "conv2d_grad_filter",
        _first_attr,
        "conv_grad_filter",
        "filter_dims",
        "stride",
        "padding",
    ),
    TraceOp(
        "reduce",
        {"sum": "reduce_sum", "mean": "reduce_mean", "max": "reduce_max"},
        _reduce_shape,
        "reduce",
        "kind",
        "axes",
        "keepdims",
    ),
    TraceOp("reshape", "reshape", _hlo(si.infer_reshape), "reshape", "dims"),
    TraceOp("transpose", "transpose", _hlo(si.infer_transpose), "transpose", "perm"),
    TraceOp(
        "broadcast_to",
        "broadcast_to",
        _hlo(si.infer_broadcast),
        "broadcast",
        "dims",
        contiguous=True,
    ),
    TraceOp("avg_pool", "avg_pool2d", _hlo(si.infer_pool), "avg_pool", "pool", "stride"),
    TraceOp(
        "avg_pool_grad",
        "avg_pool2d_grad",
        _first_attr,
        "avg_pool_grad",
        "input_dims",
        "pool",
        "stride",
    ),
    TraceOp("max_pool", "max_pool2d", _hlo(si.infer_pool), "max_pool", "pool", "stride"),
    TraceOp("max_pool_grad", "max_pool2d_grad", _same, "max_pool_grad", "pool", "stride"),
    TraceOp(
        "one_hot",
        "one_hot",
        lambda shapes, depth: tuple(shapes[0]) + (depth,),
        "one_hot",
        "depth",
    ),
    TraceOp("softmax_ce", "softmax_cross_entropy", _softmax_ce_shape, "softmax_ce"),
    TraceOp("softmax_ce_grad", "softmax_cross_entropy_grad", _same, "softmax_ce_grad"),
    TraceOp("pad", "pad", _hlo(si.infer_pad), "pad", "paddings"),
    TraceOp("slice", "slice", _hlo(si.infer_slice), "slice", "starts", "sizes"),
    TraceOp(
        "concat",
        "concat",
        _concat_shape,
        lambda builder, *args: builder.concatenate(args[:-1], args[-1]),
        "axis",
    ),
]

TRACE_OPS: dict[str, TraceOp] = {row.name: row for row in _ROWS}


def trace_op(op: str) -> TraceOp:
    """The row of a recorded op name (a hand-built trace may hold any)."""
    try:
        return TRACE_OPS[op]
    except KeyError:
        raise HloError(f"no HLO lowering for traced op {op!r}") from None
