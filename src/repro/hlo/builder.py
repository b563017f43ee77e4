"""Convenience builder for HLO computations with inline shape inference."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import HloError, ShapeError
from repro.hlo import shapes as si
from repro.hlo.compiler import _COMPARE
from repro.hlo.ir import (
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    F32,
    HloComputation,
    HloInstruction,
    HloModule,
    Shape,
)
from repro.hlo.ops import HLO_OPS


class HloBuilder:
    """Builds one :class:`HloComputation`, inferring shapes as it goes."""

    def __init__(self, name: str) -> None:
        self.computation = HloComputation(name)

    def _add(self, inst: HloInstruction) -> HloInstruction:
        return self.computation.add(inst)

    def _op(self, opcode: str, operands, dtype: str = F32, **attrs) -> HloInstruction:
        """An :data:`HLO_OPS` row's instruction, shaped by the row's rule;
        ``dtype`` is the element type of rows whose result type does not
        follow from an operand."""
        shape = HLO_OPS[opcode].infer([o.shape for o in operands], attrs, dtype)
        return self._add(HloInstruction(opcode, operands, shape, attrs=attrs))

    # -- leaves ---------------------------------------------------------------

    def parameter(self, shape: Shape, number: Optional[int] = None) -> HloInstruction:
        if number is None:
            number = len(self.computation.parameters)
        return self._add(
            HloInstruction("parameter", [], shape, parameter_number=number)
        )

    def constant(self, value, dtype: Optional[str] = None) -> HloInstruction:
        if dtype is None:
            array = np.asarray(value, dtype=np.float32)
            shape = Shape.of(array)
        else:
            from repro.hlo.dtypes import cast_array

            array = cast_array(np.asarray(value), dtype)
            shape = Shape(tuple(int(d) for d in array.shape), dtype)
        return self._add(
            HloInstruction("constant", [], shape, literal=array)
        )

    def iota(self, n: int) -> HloInstruction:
        return self._op("iota", [], n=n)

    # -- elementwise -----------------------------------------------------------

    def unary(self, opcode: str, x: HloInstruction) -> HloInstruction:
        if opcode not in ELEMENTWISE_UNARY:
            raise HloError(f"{opcode} is not a unary elementwise op")
        return self._add(HloInstruction(opcode, [x], x.shape))

    def binary(self, opcode: str, a, b, comparison: str = "") -> HloInstruction:
        if opcode not in ELEMENTWISE_BINARY:
            raise HloError(f"{opcode} is not a binary elementwise op")
        if opcode == "compare" and comparison not in _COMPARE:
            raise ShapeError(
                f"compare direction {comparison!r} is not one of {sorted(_COMPARE)}"
            )
        shape = si.infer_elementwise_binary(opcode, a.shape, b.shape)
        attrs = {"direction": comparison} if opcode == "compare" else {}
        return self._add(HloInstruction(opcode, [a, b], shape, attrs=attrs))

    def select(self, pred, on_true, on_false) -> HloInstruction:
        return self._op("select", [pred, on_true, on_false])

    def convert(self, x, new_dtype: str) -> HloInstruction:
        """Element-type conversion (the only legal dtype boundary)."""
        if x.shape.dtype == new_dtype:
            return x
        shape = si.infer_convert(x.shape, new_dtype)
        return self._add(
            HloInstruction("convert", [x], shape, attrs={"new_dtype": new_dtype})
        )

    # -- shape ops --------------------------------------------------------------

    def broadcast(self, x, dims: Sequence[int]) -> HloInstruction:
        if tuple(dims) == x.shape.dims:
            return x
        return self._op("broadcast", [x], dims=tuple(dims))

    def reshape(self, x, dims: Sequence[int]) -> HloInstruction:
        return self._op("reshape", [x], dims=tuple(dims))

    def transpose(self, x, perm: Sequence[int]) -> HloInstruction:
        return self._op("transpose", [x], perm=tuple(perm))

    def pad(self, x, paddings) -> HloInstruction:
        return self._op("pad", [x], paddings=tuple(map(tuple, paddings)))

    def slice(self, x, starts, sizes) -> HloInstruction:
        return self._op("slice", [x], starts=tuple(starts), sizes=tuple(sizes))

    def concatenate(self, xs, axis: int) -> HloInstruction:
        return self._op("concatenate", xs, axis=axis)

    # -- linear algebra ----------------------------------------------------------

    def dot(self, a, b) -> HloInstruction:
        return self._op("dot", [a, b])

    def convolution(self, x, filters, stride: int, padding: str) -> HloInstruction:
        return self._op("convolution", [x, filters], stride=stride, padding=padding)

    def conv_grad_input(self, grad, filters, input_dims, stride, padding):
        return self._op(
            "conv_grad_input", [grad, filters], grad.shape.dtype,
            input_dims=tuple(input_dims), stride=stride, padding=padding,
        )

    def conv_grad_filter(self, x, grad, filter_dims, stride, padding):
        return self._op(
            "conv_grad_filter", [x, grad], grad.shape.dtype,
            filter_dims=tuple(filter_dims), stride=stride, padding=padding,
        )

    def reduce(
        self,
        x,
        kind: str,
        axes,
        keepdims: bool = False,
        accum: Optional[str] = None,
    ) -> HloInstruction:
        shape = si.infer_reduce(x.shape, axes, keepdims)
        axes_t = (
            tuple(a % x.shape.rank for a in axes) if axes is not None else None
        )
        attrs = {"kind": kind, "axes": axes_t, "keepdims": keepdims}
        if accum is not None:
            # Accumulator dtype (the AMP discipline: narrow inputs may
            # still demand f32 accumulation).  Absent means "accumulate
            # in the operand dtype".
            attrs["accum"] = accum
        return self._add(HloInstruction("reduce", [x], shape, attrs=attrs))

    # -- pooling / fused training ops ---------------------------------------------

    def avg_pool(self, x, pool: int, stride: int) -> HloInstruction:
        return self._op("avg_pool", [x], pool=pool, stride=stride)

    def avg_pool_grad(self, grad, input_dims, pool: int, stride: int):
        return self._op(
            "avg_pool_grad", [grad], grad.shape.dtype,
            input_dims=tuple(input_dims), pool=pool, stride=stride,
        )

    def max_pool(self, x, pool: int, stride: int) -> HloInstruction:
        return self._op("max_pool", [x], pool=pool, stride=stride)

    def max_pool_grad(self, x, grad, pool: int, stride: int):
        return self._op("max_pool_grad", [x, grad], pool=pool, stride=stride)

    def one_hot(self, indices, depth: int) -> HloInstruction:
        return self._op("one_hot", [indices], depth=depth)

    def softmax_ce(self, logits, labels) -> HloInstruction:
        return self._op("softmax_ce", [logits, labels])

    def softmax_ce_grad(self, logits, labels) -> HloInstruction:
        return self._op("softmax_ce_grad", [logits, labels])

    def tuple(self, elements: Sequence[HloInstruction]) -> HloInstruction:
        """Multi-output root: execution returns a Python tuple of arrays."""
        return self._add(
            HloInstruction(
                "tuple", list(elements), Shape((len(elements),), "tuple")
            )
        )

    # -- finalize -------------------------------------------------------------------

    def build(self, root: HloInstruction, module_name: str = "") -> HloModule:
        self.computation.set_root(root)
        return HloModule(module_name or self.computation.name, self.computation)
