"""Shape inference for HLO instructions.

Each builder call runs inference before constructing the instruction, so an
ill-shaped graph is rejected at trace-lowering time with a precise
diagnostic (XLA behaves the same way).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.hlo.ir import DTYPE_BYTES, PRED, Shape


def broadcast_shapes(a: Shape, b: Shape) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in np.broadcast_shapes(a.dims, b.dims))
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a} with {b}") from exc


def promote_dtypes(a: Shape, b: Shape, what: str) -> str:
    """The element type of a binary op over ``a`` and ``b``.

    Matching dtypes pass through; a predicate promotes to the other
    operand's dtype (masks act as 0/1 values); anything else is a dtype
    mismatch — mixed-precision programs must insert explicit ``convert``
    instructions rather than rely on implicit promotion.
    """
    if a.dtype == b.dtype:
        return a.dtype
    if a.dtype == PRED:
        return b.dtype
    if b.dtype == PRED:
        return a.dtype
    raise ShapeError(f"{what} dtype mismatch: {a} vs {b} (insert a convert)")


def infer_elementwise_binary(opcode: str, a: Shape, b: Shape) -> Shape:
    dims = broadcast_shapes(a, b)
    dtype = promote_dtypes(a, b, opcode)
    if opcode == "compare":
        dtype = PRED
    return Shape(dims, dtype)


def infer_select(pred: Shape, on_true: Shape, on_false: Shape) -> Shape:
    if on_true.dims != on_false.dims:
        raise ShapeError(f"select branches disagree: {on_true} vs {on_false}")
    dims = broadcast_shapes(pred, on_true)
    return Shape(dims, promote_dtypes(on_true, on_false, "select"))


def infer_convert(operand: Shape, new_dtype: str) -> Shape:
    if new_dtype not in DTYPE_BYTES:
        raise ShapeError(f"convert to unknown element type {new_dtype!r}")
    return Shape(operand.dims, new_dtype)


def infer_broadcast(operand: Shape, out_dims: tuple[int, ...]) -> Shape:
    try:
        dims = np.broadcast_shapes(operand.dims, out_dims)
    except ValueError:
        dims = None
    if dims != tuple(out_dims):
        raise ShapeError(f"cannot broadcast {operand} to {out_dims}")
    return Shape(tuple(out_dims), operand.dtype)


def infer_reshape(operand: Shape, new_dims: tuple[int, ...]) -> Shape:
    if math.prod(new_dims) != operand.num_elements:
        raise ShapeError(
            f"reshape of {operand} to {new_dims}: element count mismatch"
        )
    return Shape(tuple(new_dims), operand.dtype)


def infer_transpose(operand: Shape, perm: tuple[int, ...]) -> Shape:
    if sorted(perm) != list(range(operand.rank)):
        raise ShapeError(f"bad transpose permutation {perm} for {operand}")
    return Shape(tuple(operand.dims[p] for p in perm), operand.dtype)


def infer_dot(a: Shape, b: Shape) -> Shape:
    if a.rank < 1 or b.rank < 2:
        raise ShapeError(f"dot needs matrices, got {a} and {b}")
    if a.dims[-1] != b.dims[-2]:
        raise ShapeError(f"dot contraction mismatch: {a} @ {b}")
    dtype = promote_dtypes(a, b, "dot")
    batch = a.dims[:-2] if a.rank > 2 else ()
    lead = a.dims[-2:-1] if a.rank >= 2 else ()
    return Shape(batch + lead + (b.dims[-1],), dtype)


def _axis(operand: Shape, axis: int, what: str) -> int:
    """``axis`` as a non-negative index into ``operand``'s dims."""
    if not -operand.rank <= axis < operand.rank:
        raise ShapeError(f"{what} axis {axis} out of range for {operand}")
    return axis % operand.rank


def infer_reduce(operand: Shape, axes, keepdims: bool) -> Shape:
    if axes is None:
        axes = tuple(range(operand.rank))
    axes = tuple(_axis(operand, a, "reduce") for a in axes)
    dims = []
    for i, d in enumerate(operand.dims):
        if i in axes:
            if keepdims:
                dims.append(1)
        else:
            dims.append(d)
    return Shape(tuple(dims), operand.dtype)


def conv_output_dims(
    input_dims: tuple[int, ...],
    filter_dims: tuple[int, ...],
    stride: int,
    padding: str,
) -> tuple[int, ...]:
    n, h, w, cin = input_dims
    kh, kw, fcin, cout = filter_dims
    if stride < 1:
        raise ShapeError(f"conv stride {stride} must be positive")
    if cin != fcin:
        raise ShapeError(
            f"conv input channels {cin} != filter channels {fcin}"
        )
    if padding == "same":
        oh = math.ceil(h / stride)
        ow = math.ceil(w / stride)
    elif padding == "valid":
        if h < kh or w < kw:
            raise ShapeError("conv window larger than input")
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
    else:
        raise ShapeError(f"unknown padding {padding!r}")
    return (n, oh, ow, cout)


def infer_conv(input: Shape, filters: Shape, stride: int, padding: str) -> Shape:
    if input.rank != 4 or filters.rank != 4:
        raise ShapeError(f"conv expects NHWC and KKIO, got {input}, {filters}")
    dtype = promote_dtypes(input, filters, "convolution")
    return Shape(conv_output_dims(input.dims, filters.dims, stride, padding), dtype)


def infer_pool(input: Shape, pool: int, stride: int) -> Shape:
    if input.rank != 4:
        raise ShapeError(f"pool expects NHWC, got {input}")
    n, h, w, c = input.dims
    if pool < 1 or stride < 1:
        raise ShapeError(f"pool window {pool} and stride {stride} must be positive")
    if h < pool or w < pool:
        raise ShapeError("pool window larger than input")
    oh = (h - pool) // stride + 1
    ow = (w - pool) // stride + 1
    return Shape((n, oh, ow, c), input.dtype)


def infer_pad(operand: Shape, paddings) -> Shape:
    if len(paddings) != operand.rank:
        raise ShapeError("pad config rank mismatch")
    dims = tuple(
        d + lo + hi for d, (lo, hi) in zip(operand.dims, paddings)
    )
    return Shape(dims, operand.dtype)


def infer_slice(operand: Shape, starts, sizes) -> Shape:
    if len(starts) != operand.rank or len(sizes) != operand.rank:
        raise ShapeError("slice config rank mismatch")
    for d, b, s in zip(operand.dims, starts, sizes):
        if b < 0 or s < 0 or b + s > d:
            raise ShapeError(f"slice [{b}:{b+s}] out of bounds for dim {d}")
    return Shape(tuple(sizes), operand.dtype)


def infer_concat(shapes: list[Shape], axis: int) -> Shape:
    first = shapes[0]
    axis = _axis(first, axis, "concat")
    total = 0
    for s in shapes:
        if s.rank != first.rank:
            raise ShapeError("concat rank mismatch")
        for i in range(first.rank):
            if i != axis and s.dims[i] != first.dims[i]:
                raise ShapeError(f"concat dim {i} mismatch: {s} vs {first}")
        total += s.dims[axis]
    dims = list(first.dims)
    dims[axis] = total
    return Shape(tuple(dims), first.dtype)
