"""The HLO op table: one row per structured opcode.

A row is everything the HLO layer knows about an opcode whose kernel takes
its operands and then its attributes: the ``runtime.kernels.KERNELS``
entry it calls, the attribute names in the order that kernel takes them,
its shape rule, and whether f16 operands widen for f32 accumulation.  The
builder, the verifier, the interpreter (``compiler._evaluate_raw``), the
emitter (``codegen._raw_expr``) and the translation validator
(``analysis.equivalence.validator._raw_term``) each read a row instead of
restating the opcode.

``constant``, ``convert``, ``compare``, ``not``, ``reduce``, ``tuple``,
``fusion``, ``parameter`` and the elementwise unary/binary families keep
their own branches in those readers.

A shape rule is ``shape(operand shapes, *attribute values, dtype)``.
``dtype`` matters only for the rows whose result element type does not
follow from an operand (the convolution and average-pool gradients,
``one_hot``, ``iota``, ``softmax_ce``): the builder passes the dtype it
records, the verifier the recorded one, since a mixed-precision plan
re-dtypes those instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ShapeError
from repro.hlo import shapes as si
from repro.hlo.ir import Shape


@dataclass(frozen=True)
class HloOp:
    """One row of :data:`HLO_OPS`; see the module docstring."""

    kernel: str
    attrs: tuple[str, ...]
    shape: Callable[..., Shape]
    #: Multiply narrow, accumulate in f32: f16 operands are widened
    #: before the kernel (tensor-core semantics for contractions).
    f32_accum: bool = False

    def attr_values(self, attrs: Mapping) -> tuple:
        return tuple(map(attrs.__getitem__, self.attrs))

    def infer(self, operands: Sequence[Shape], attrs: Mapping, dtype: str) -> Shape:
        """The result shape; raises ``ShapeError`` for what the kernel
        cannot run."""
        return self.shape(operands, *self.attr_values(attrs), dtype)


def _cotangent(grad: Shape, forward: Shape, opcode: str) -> None:
    """A gradient op's cotangent must have the forward op's result dims."""
    if grad.dims != forward.dims:
        raise ShapeError(
            f"{opcode} cotangent {grad} does not match the forward result "
            f"dims {forward.dims}"
        )


def _conv_grad_input(s, input_dims, stride, padding, dt):
    grad, filters = s
    x = Shape(tuple(input_dims), filters.dtype)
    forward = si.infer_conv(x, filters, stride, padding)
    _cotangent(grad, forward, "conv_grad_input")
    return Shape(tuple(input_dims), dt)


def _conv_grad_filter(s, filter_dims, stride, padding, dt):
    x, grad = s
    forward = si.infer_conv(x, Shape(tuple(filter_dims), x.dtype), stride, padding)
    _cotangent(grad, forward, "conv_grad_filter")
    return Shape(tuple(filter_dims), dt)


def _pool(s, pool, stride, dt):
    return si.infer_pool(s[0], pool, stride)


def _avg_pool_grad(s, input_dims, pool, stride, dt):
    forward = si.infer_pool(Shape(tuple(input_dims)), pool, stride)
    _cotangent(s[0], forward, "avg_pool_grad")
    return Shape(tuple(input_dims), dt)


def _max_pool_grad(s, pool, stride, dt):
    x, grad = s
    _cotangent(grad, si.infer_pool(x, pool, stride), "max_pool_grad")
    return x


HLO_OPS: dict[str, HloOp] = {
    "select": HloOp("select", (), lambda s, dt: si.infer_select(*s)),
    "broadcast": HloOp(
        "broadcast_to", ("dims",), lambda s, dims, dt: si.infer_broadcast(s[0], tuple(dims))
    ),
    "reshape": HloOp(
        "reshape", ("dims",), lambda s, dims, dt: si.infer_reshape(s[0], tuple(dims))
    ),
    "transpose": HloOp(
        "transpose", ("perm",), lambda s, perm, dt: si.infer_transpose(s[0], tuple(perm))
    ),
    "pad": HloOp("pad", ("paddings",), lambda s, paddings, dt: si.infer_pad(s[0], paddings)),
    "slice": HloOp(
        "slice",
        ("starts", "sizes"),
        lambda s, starts, sizes, dt: si.infer_slice(s[0], starts, sizes),
    ),
    "concatenate": HloOp("concat", ("axis",), lambda s, axis, dt: si.infer_concat(s, axis)),
    "dot": HloOp("matmul", (), lambda s, dt: si.infer_dot(*s), f32_accum=True),
    "convolution": HloOp(
        "conv2d",
        ("stride", "padding"),
        lambda s, stride, padding, dt: si.infer_conv(*s, stride, padding),
        f32_accum=True,
    ),
    "conv_grad_input": HloOp(
        "conv2d_grad_input", ("input_dims", "stride", "padding"), _conv_grad_input
    ),
    "conv_grad_filter": HloOp(
        "conv2d_grad_filter", ("filter_dims", "stride", "padding"), _conv_grad_filter
    ),
    "avg_pool": HloOp("avg_pool2d", ("pool", "stride"), _pool),
    "avg_pool_grad": HloOp(
        "avg_pool2d_grad", ("input_dims", "pool", "stride"), _avg_pool_grad
    ),
    "max_pool": HloOp("max_pool2d", ("pool", "stride"), _pool),
    "max_pool_grad": HloOp("max_pool2d_grad", ("pool", "stride"), _max_pool_grad),
    "one_hot": HloOp(
        "one_hot", ("depth",), lambda s, depth, dt: Shape(s[0].dims + (depth,), dt)
    ),
    "iota": HloOp("iota", ("n",), lambda s, n, dt: Shape((n,), dt)),
    "softmax_ce": HloOp("softmax_cross_entropy", (), lambda s, dt: Shape((), dt)),
    "softmax_ce_grad": HloOp("softmax_cross_entropy_grad", (), lambda s, dt: s[0]),
}
