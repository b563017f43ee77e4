"""The naive Tensor implementation (Section 3.1).

A single-threaded array type backed by plain Python lists: no NumPy, no
simulated accelerator, no external dependencies.  Exactly as the paper
argues, this loses hardware acceleration but wins on portability, small-
tensor overhead, and binary size — it is the backend the mobile spline
experiment (Table 4) runs on.

Operations are implemented over a flat list + shape.  Only the subset
needed by small models is provided; convolutions deliberately raise (the
paper's naive tensor was used for spline-style workloads, not CNNs).
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Callable, Sequence


class NaiveArray:
    """Flat-list storage with an explicit shape."""

    __slots__ = ("data", "shape", "__weakref__")

    def __init__(self, data: list[float], shape: tuple[int, ...]) -> None:
        self.data = data
        self.shape = shape
        from repro.runtime import memory

        memory.track_buffer(self, 8 * len(data))

    @property
    def size(self) -> int:
        return _numel(self.shape)


def _numel(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _flatten(nested, out: list[float]) -> tuple[int, ...]:
    if isinstance(nested, (list, tuple)):
        if not nested:
            return (0,)
        inner = None
        for item in nested:
            shape = _flatten(item, out)
            if inner is None:
                inner = shape
            elif inner != shape:
                raise ValueError("ragged nested lists")
        return (len(nested),) + inner
    out.append(float(nested))
    return ()


def from_nested(nested) -> NaiveArray:
    if isinstance(nested, NaiveArray):
        return NaiveArray(list(nested.data), nested.shape)
    if isinstance(nested, (int, float)):
        return NaiveArray([float(nested)], ())
    out: list[float] = []
    shape = _flatten(nested, out)
    return NaiveArray(out, shape)


def to_nested(a: NaiveArray):
    def build(shape: tuple[int, ...], offset: int):
        if not shape:
            return a.data[offset]
        stride = _numel(shape[1:])
        return [
            build(shape[1:], offset + i * stride) for i in range(shape[0])
        ]

    return build(a.shape, 0)


def full(shape: tuple[int, ...], value: float) -> NaiveArray:
    return NaiveArray([value] * _numel(shape), tuple(shape))


def _broadcast_data(a: NaiveArray, shape: tuple[int, ...]) -> list[float]:
    """Materialize ``a`` broadcast to ``shape`` (NumPy rules)."""
    if a.shape == shape:
        return a.data
    rank = len(shape)
    a_dims = (1,) * (rank - len(a.shape)) + a.shape
    for da, d in zip(a_dims, shape):
        if da != d and da != 1:
            raise ValueError(f"cannot broadcast {a.shape} to {shape}")
    a_strides = []
    acc = 1
    for d in reversed(a_dims):
        a_strides.append(acc if d != 1 else 0)
        acc *= d
    a_strides = list(reversed(a_strides))
    # Zero out strides of broadcast dims.
    a_strides = [0 if da == 1 else s for da, s in zip(a_dims, a_strides)]

    out = [0.0] * _numel(shape)
    idx = [0] * rank
    for i in range(len(out)):
        src = sum(ix * st for ix, st in zip(idx, a_strides))
        out[i] = a.data[src]
        for axis in range(rank - 1, -1, -1):
            idx[axis] += 1
            if idx[axis] < shape[axis]:
                break
            idx[axis] = 0
    return out


def broadcast_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    rank = max(len(a), len(b))
    a = (1,) * (rank - len(a)) + a
    b = (1,) * (rank - len(b)) + b
    out = []
    for da, db in zip(a, b):
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ValueError(f"cannot broadcast {a} with {b}")
    return tuple(out)


_BINOPS: dict[str, Callable[[float, float], float]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": operator.pow,
    "maximum": max,
    "minimum": min,
}

_UNOPS: dict[str, Callable[[float], float]] = {
    "neg": operator.neg,
    "exp": math.exp,
    "log": math.log,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
    "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "relu": lambda x: x if x > 0.0 else 0.0,
    "abs": abs,
    "sign": lambda x: (x > 0) - (x < 0),
}

_COMPARES = {
    "gt": operator.gt,
    "ge": operator.ge,
    "lt": operator.lt,
    "le": operator.le,
    "eq": operator.eq,
    "ne": operator.ne,
}


def binary(op: str, a: NaiveArray, b: NaiveArray) -> NaiveArray:
    fn = _BINOPS[op]
    shape = broadcast_shape(a.shape, b.shape)
    da = _broadcast_data(a, shape)
    db = _broadcast_data(b, shape)
    return NaiveArray([fn(x, y) for x, y in zip(da, db)], shape)


def compare(direction: str, a: NaiveArray, b: NaiveArray) -> NaiveArray:
    fn = _COMPARES[direction]
    shape = broadcast_shape(a.shape, b.shape)
    da = _broadcast_data(a, shape)
    db = _broadcast_data(b, shape)
    return NaiveArray([1.0 if fn(x, y) else 0.0 for x, y in zip(da, db)], shape)


def unary(op: str, a: NaiveArray) -> NaiveArray:
    fn = _UNOPS[op]
    return NaiveArray([fn(x) for x in a.data], a.shape)


def select(pred: NaiveArray, x: NaiveArray, y: NaiveArray) -> NaiveArray:
    shape = broadcast_shape(broadcast_shape(pred.shape, x.shape), y.shape)
    dp = _broadcast_data(pred, shape)
    dx = _broadcast_data(x, shape)
    dy = _broadcast_data(y, shape)
    return NaiveArray(
        [xv if p else yv for p, xv, yv in zip(dp, dx, dy)], shape
    )


def matmul(a: NaiveArray, b: NaiveArray) -> NaiveArray:
    if len(a.shape) == 1:
        a = NaiveArray(a.data, (1,) + a.shape)
        squeeze = True
    else:
        squeeze = False
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ValueError("naive matmul supports rank <= 2")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"matmul mismatch {a.shape} @ {b.shape}")
    out = [0.0] * (m * n)
    for i in range(m):
        row_off = i * k
        for j in range(n):
            total = 0.0
            for p in range(k):
                total += a.data[row_off + p] * b.data[p * n + j]
            out[i * n + j] = total
    result = NaiveArray(out, (m, n))
    if squeeze:
        result = NaiveArray(result.data, (n,))
    return result


def reduce(op: str, a: NaiveArray, axes, keepdims: bool) -> NaiveArray:
    rank = len(a.shape)
    if axes is None:
        axes_set = set(range(rank))
    else:
        axes_set = {ax % rank for ax in axes}
    out_shape = tuple(
        1 if i in axes_set else d
        for i, d in enumerate(a.shape)
        if keepdims or i not in axes_set
    )
    groups: dict[int, list[float]] = {}
    idx = [0] * rank
    out_strides = _strides(out_shape)
    for flat, value in enumerate(a.data):
        out_index = []
        for i in range(rank):
            if i in axes_set:
                if keepdims:
                    out_index.append(0)
            else:
                out_index.append(idx[i])
        off = sum(ix * st for ix, st in zip(out_index, out_strides))
        groups.setdefault(off, []).append(value)
        for axis in range(rank - 1, -1, -1):
            idx[axis] += 1
            if idx[axis] < a.shape[axis]:
                break
            idx[axis] = 0

    out = [0.0] * max(_numel(out_shape), 1)
    for off, values in groups.items():
        if op == "sum":
            out[off] = sum(values)
        elif op == "mean":
            out[off] = sum(values) / len(values)
        elif op == "max":
            out[off] = max(values)
        else:
            raise ValueError(f"unknown reduce {op!r}")
    if not a.data:  # empty input
        out = []
    return NaiveArray(out, out_shape)


def _strides(shape: tuple[int, ...]) -> list[int]:
    strides = []
    acc = 1
    for d in reversed(shape):
        strides.append(acc)
        acc *= d
    return list(reversed(strides))


def reshape(a: NaiveArray, shape: Sequence[int]) -> NaiveArray:
    shape = tuple(shape)
    if _numel(shape) != a.size:
        raise ValueError(f"cannot reshape {a.shape} to {shape}")
    return NaiveArray(list(a.data), shape)


def transpose(a: NaiveArray, perm: Sequence[int]) -> NaiveArray:
    perm = tuple(perm)
    rank = len(a.shape)
    out_shape = tuple(a.shape[p] for p in perm)
    in_strides = _strides(a.shape)
    out = [0.0] * a.size
    idx = [0] * rank
    pos = 0
    for _ in range(a.size):
        # Output index `idx` maps to the input offset through `perm`.
        src = 0
        for out_axis, p in enumerate(perm):
            src += idx[out_axis] * in_strides[p]
        out[pos] = a.data[src]
        pos += 1
        for axis in range(rank - 1, -1, -1):
            idx[axis] += 1
            if idx[axis] < out_shape[axis]:
                break
            idx[axis] = 0
    return NaiveArray(out, out_shape)


def broadcast_to(a: NaiveArray, shape: Sequence[int]) -> NaiveArray:
    shape = tuple(shape)
    return NaiveArray(_broadcast_data(a, shape), shape)


def slice_rows(a: NaiveArray, starts, sizes) -> NaiveArray:
    """``slice`` where every axis but the first is taken whole."""
    if tuple(sizes[1:]) != a.shape[1:] or any(starts[1:]):
        raise NotImplementedError("naive slice supports axis 0 only")
    stride = _numel(a.shape[1:])
    stop = starts[0] + sizes[0]
    return NaiveArray(a.data[starts[0] * stride : stop * stride], tuple(sizes))


def pad_rows(a: NaiveArray, paddings) -> NaiveArray:
    """Zero ``pad`` along axis 0."""
    (before, after), *rest = paddings
    if any(lo or hi for lo, hi in rest):
        raise NotImplementedError("naive pad supports axis 0 only")
    stride = _numel(a.shape[1:])
    data = [0.0] * (before * stride) + list(a.data) + [0.0] * (after * stride)
    return NaiveArray(data, (a.shape[0] + before + after,) + a.shape[1:])


def concat_rows(*arrays: NaiveArray, axis: int) -> NaiveArray:
    """``concat`` along axis 0."""
    if axis != 0:
        raise NotImplementedError("naive concat supports axis 0 only")
    inner = arrays[0].shape[1:]
    for arr in arrays:
        if arr.shape[1:] != inner:
            raise ValueError("concat inner shapes disagree")
    data: list[float] = []
    for arr in arrays:
        data.extend(arr.data)
    return NaiveArray(data, (sum(a.shape[0] for a in arrays),) + inner)


#: Traced-op name -> implementation taking the operands, then the op's
#: attributes by name (the names of ``repro.tensor.traceops``).  An op
#: without an entry is one the naive backend does not provide.
_OPS: dict[str, Callable[..., NaiveArray]] = {
    **{op: partial(unary, op) for op in _UNOPS},
    **{op: partial(binary, op) for op in _BINOPS},
    "compare": lambda a, b, direction: compare(direction, a, b),
    "select": select,
    "matmul": matmul,
    "reduce": lambda a, kind, axes, keepdims: reduce(kind, a, axes, keepdims),
    "reshape": lambda a, dims: reshape(a, dims),
    "transpose": transpose,
    "broadcast_to": lambda a, dims: broadcast_to(a, dims),
    "slice": slice_rows,
    "pad": pad_rows,
    "concat": concat_rows,
}


class NaiveBackend:
    """The naive device's side of ``Device``: no clock, nothing to trace."""

    elapsed = 0.0

    def apply(self, op: str, operands: list[NaiveArray], attrs: dict) -> NaiveArray:
        fn = _OPS.get(op)
        if fn is None:
            raise NotImplementedError(
                f"{op} is not provided by the naive backend (Section 3.1's "
                "naive tensor targets small dense workloads); use an eager or "
                "lazy device"
            )
        return fn(*operands, **attrs)

    def source(self, data) -> NaiveArray:
        return from_nested(data.tolist() if hasattr(data, "tolist") else data)

    def constant(self, value: float) -> NaiveArray:
        return full((), value)

    def full(self, shape: tuple[int, ...], value: float) -> NaiveArray:
        return full(shape, float(value))

    def observe(self, a: NaiveArray):
        import numpy as np  # only observation needs it; the arithmetic is list-only

        return np.asarray(to_nested(a), dtype=np.float32).reshape(a.shape)

    def reset(self) -> None:
        pass

    def sync(self) -> float:
        return 0.0

    def trace_stats(self) -> dict:
        return {}
