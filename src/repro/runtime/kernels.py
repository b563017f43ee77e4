"""The pre-compiled kernel library.

Every accelerated execution path — the eager Tensor backend, the HLO
compiler's generated code, and the baseline framework engines — bottoms out
in these NumPy kernels, so all engines compute identical numerics and
differ only in *how* they schedule and fuse kernels.  Each kernel carries a
FLOP and memory-traffic estimator consumed by the simulated-device cost
model.

Convolutions use im2col (vectorized NumPy, per the project's performance
guidance) rather than Python loops.  Average pooling sums its ``pool**2``
strided windows of the input in place instead of copying a patch matrix,
and ``select`` picks float32 bits through an all-ones/all-zeros mask
instead of branching per element.  Every rewrite returns the bits the
plain NumPy formulation returned (same accumulation order, NumPy's dtype
rules) and an owning array wherever that formulation did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DTYPE = np.float32
ITEMSIZE = 4


def _numel(shape) -> int:
    return int(math.prod(shape))


@dataclass(frozen=True)
class Kernel:
    """A named device kernel with cost estimators.

    ``flops(out_shape, in_shapes)`` and ``traffic(out_shape, in_shapes)``
    feed the roofline model; ``elementwise`` marks fusion candidates.
    """

    name: str
    fn: Callable
    elementwise: bool = False
    flops_per_element: float = 1.0
    flops_fn: Optional[Callable] = None
    traffic_fn: Optional[Callable] = None

    def flops(self, out_shape, in_shapes) -> float:
        if self.flops_fn is not None:
            return self.flops_fn(out_shape, in_shapes)
        return self.flops_per_element * _numel(out_shape)

    def traffic(self, out_shape, in_shapes) -> float:
        if self.traffic_fn is not None:
            return self.traffic_fn(out_shape, in_shapes)
        total = _numel(out_shape)
        for s in in_shapes:
            total += _numel(s)
        return total * ITEMSIZE

    def __call__(self, *args):
        return self.fn(*args)


KERNELS: dict[str, Kernel] = {}


def kernel(name: str, **kwargs) -> Callable[[Callable], Kernel]:
    def register(fn: Callable) -> Kernel:
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} already registered")
        k = Kernel(name, fn, **kwargs)
        KERNELS[name] = k
        return k

    return register


def get_kernel(name: str) -> Kernel:
    return KERNELS[name]


# ---------------------------------------------------------------------------
# Elementwise kernels (fusion candidates).
# ---------------------------------------------------------------------------


@kernel("add", elementwise=True)
def add(x, y):
    return np.add(x, y, dtype=DTYPE)


@kernel("sub", elementwise=True)
def sub(x, y):
    return np.subtract(x, y, dtype=DTYPE)


@kernel("mul", elementwise=True)
def mul(x, y):
    return np.multiply(x, y, dtype=DTYPE)


@kernel("div", elementwise=True)
def div(x, y):
    return np.divide(x, y, dtype=DTYPE)


@kernel("pow", elementwise=True, flops_per_element=10.0)
def pow_(x, y):
    return np.power(x, y, dtype=DTYPE)


@kernel("neg", elementwise=True)
def neg(x):
    return np.negative(x)


@kernel("exp", elementwise=True, flops_per_element=10.0)
def exp(x):
    return np.exp(x, dtype=DTYPE)


@kernel("log", elementwise=True, flops_per_element=10.0)
def log(x):
    return np.log(x, dtype=DTYPE)


@kernel("sqrt", elementwise=True, flops_per_element=4.0)
def sqrt(x):
    return np.sqrt(x, dtype=DTYPE)


@kernel("rsqrt", elementwise=True, flops_per_element=4.0)
def rsqrt(x):
    return (1.0 / np.sqrt(x)).astype(DTYPE, copy=False)


@kernel("tanh", elementwise=True, flops_per_element=10.0)
def tanh(x):
    return np.tanh(x, dtype=DTYPE)


@kernel("sigmoid", elementwise=True, flops_per_element=10.0)
def sigmoid(x):
    return (1.0 / (1.0 + np.exp(-x))).astype(DTYPE, copy=False)


@kernel("relu", elementwise=True)
def relu(x):
    return np.maximum(x, 0.0).astype(DTYPE, copy=False)


@kernel("abs", elementwise=True)
def abs_(x):
    return np.abs(x)


@kernel("sign", elementwise=True)
def sign(x):
    return np.sign(x).astype(DTYPE, copy=False)


@kernel("maximum", elementwise=True)
def maximum(x, y):
    return np.maximum(x, y)


@kernel("minimum", elementwise=True)
def minimum(x, y):
    return np.minimum(x, y)


@kernel("select", elementwise=True)
def select(cond, x, y):
    """``np.where(cond, x, y).astype(DTYPE)`` without a branch per element.

    ``x`` and ``y`` pass through their common dtype to float32, as the
    ``np.where`` result did; then ``(x_bits & m) | (y_bits & ~m)`` picks
    bits under a uint32 mask ``m`` that is all ones where ``cond`` is
    truthy (NaN included) and all zeros elsewhere."""
    dtype = np.result_type(x, y)
    x = np.asarray(x, dtype).astype(DTYPE, copy=False)
    y = np.asarray(y, dtype).astype(DTYPE, copy=False)
    cond = np.asarray(cond).astype(bool, copy=False)
    shape = np.broadcast_shapes(cond.shape, x.shape, y.shape)
    out = np.empty(shape, DTYPE)
    bits = out.view(np.uint32)
    mask = np.empty(shape, np.uint32)
    np.negative(cond, out=mask, dtype=np.uint32)
    np.bitwise_and(np.broadcast_to(x, shape).view(np.uint32), mask, out=bits)
    np.invert(mask, out=mask)
    np.bitwise_and(np.broadcast_to(y, shape).view(np.uint32), mask, out=mask)
    np.bitwise_or(bits, mask, out=bits)
    return out


@kernel("greater", elementwise=True)
def greater(x, y):
    return np.greater(x, y)


@kernel("greater_equal", elementwise=True)
def greater_equal(x, y):
    return np.greater_equal(x, y)


@kernel("less", elementwise=True)
def less(x, y):
    return np.less(x, y)


@kernel("less_equal", elementwise=True)
def less_equal(x, y):
    return np.less_equal(x, y)


@kernel("equal", elementwise=True)
def equal(x, y):
    return np.equal(x, y)


@kernel("cast", elementwise=True)
def cast(x):
    return np.asarray(x, dtype=DTYPE)


# ---------------------------------------------------------------------------
# Shape / data-movement kernels.
# ---------------------------------------------------------------------------


@kernel("reshape", flops_per_element=0.0)
def reshape(x, shape):
    return np.reshape(x, shape)


@kernel("transpose", flops_per_element=0.0)
def transpose(x, axes):
    return np.transpose(x, axes)


@kernel("broadcast_to", flops_per_element=0.0)
def broadcast_to(x, shape):
    return np.broadcast_to(x, shape)


@kernel("pad")
def pad(x, paddings):
    return np.pad(x, paddings)


@kernel("slice", flops_per_element=0.0)
def slice_(x, starts, sizes):
    index = tuple(slice(b, b + s) for b, s in zip(starts, sizes))
    return np.ascontiguousarray(x[index])


@kernel("concat")
def concat(*args):
    *arrays, axis = args
    return np.concatenate(arrays, axis=axis)


@kernel("gather")
def gather(x, indices, axis):
    return np.take(x, indices.astype(np.int64), axis=axis)


@kernel("one_hot")
def one_hot(indices, depth):
    return np.eye(depth, dtype=DTYPE)[indices.astype(np.int64)]


@kernel("iota", flops_per_element=0.0)
def iota(n):
    return np.arange(n, dtype=DTYPE)


# ---------------------------------------------------------------------------
# Reductions.
# ---------------------------------------------------------------------------


def _reduce_flops(out_shape, in_shapes):
    return _numel(in_shapes[0])


@kernel("reduce_sum", flops_fn=_reduce_flops)
def reduce_sum(x, axes, keepdims):
    return np.sum(x, axis=axes, keepdims=keepdims, dtype=DTYPE)


@kernel("reduce_mean", flops_fn=_reduce_flops)
def reduce_mean(x, axes, keepdims):
    return np.mean(x, axis=axes, keepdims=keepdims, dtype=DTYPE)


@kernel("reduce_max", flops_fn=_reduce_flops)
def reduce_max(x, axes, keepdims):
    return np.max(x, axis=axes, keepdims=keepdims)


@kernel("argmax", flops_fn=_reduce_flops)
def argmax(x, axis):
    return np.argmax(x, axis=axis).astype(DTYPE)


# ---------------------------------------------------------------------------
# Linear algebra.
# ---------------------------------------------------------------------------


def _matmul_flops(out_shape, in_shapes):
    (a_shape, b_shape) = in_shapes
    k = a_shape[-1]
    return 2.0 * _numel(out_shape) * k


@kernel("matmul", flops_fn=_matmul_flops)
def matmul(a, b):
    return np.matmul(a, b).astype(DTYPE, copy=False)


# ---------------------------------------------------------------------------
# Convolutions & pooling (NHWC, im2col formulation).
# ---------------------------------------------------------------------------


def _conv_out_hw(h, w, kh, kw, stride, padding):
    if padding == "same":
        oh = math.ceil(h / stride)
        ow = math.ceil(w / stride)
    else:
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
    return oh, ow


def _same_pads(size, k, stride):
    out = math.ceil(size / stride)
    total = max((out - 1) * stride + k - size, 0)
    return total // 2, total - total // 2


def _im2col(x, kh, kw, stride, padding):
    """(N,H,W,C) -> (N,OH,OW,KH*KW*C) patch matrix."""
    n, h, w, c = x.shape
    if padding == "same":
        ph = _same_pads(h, kh, stride)
        pw = _same_pads(w, kw, stride)
        x = np.pad(x, ((0, 0), ph, pw, (0, 0)))
        h, w = x.shape[1], x.shape[2]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return patches.reshape(n, oh, ow, kh * kw * c), (oh, ow)


def _conv_flops(out_shape, in_shapes):
    x_shape, f_shape = in_shapes[0], in_shapes[1]
    kh, kw, cin, _ = f_shape
    return 2.0 * _numel(out_shape) * kh * kw * cin


@kernel("conv2d", flops_fn=_conv_flops)
def conv2d(x, filters, stride, padding):
    """NHWC x (KH,KW,CIN,COUT) -> NHWC."""
    kh, kw, cin, cout = filters.shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    out = cols.reshape(-1, kh * kw * cin) @ filters.reshape(kh * kw * cin, cout)
    return out.reshape(x.shape[0], oh, ow, cout).astype(DTYPE)


@kernel("conv2d_grad_filter", flops_fn=_conv_flops)
def conv2d_grad_filter(x, grad_out, filter_shape, stride, padding):
    kh, kw, cin, cout = filter_shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    cols2d = cols.reshape(-1, kh * kw * cin)
    g2d = grad_out.reshape(-1, cout)
    return (cols2d.T @ g2d).reshape(kh, kw, cin, cout).astype(DTYPE)


@kernel("conv2d_grad_input", flops_fn=_conv_flops)
def conv2d_grad_input(grad_out, filters, input_shape, stride, padding):
    n, h, w, cin = input_shape
    kh, kw, _, cout = filters.shape
    if padding == "same":
        ph = _same_pads(h, kh, stride)
        pw = _same_pads(w, kw, stride)
    else:
        ph = (0, 0)
        pw = (0, 0)
    padded_h, padded_w = h + sum(ph), w + sum(pw)
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    # Scatter col gradients back into the padded input.
    gcols = grad_out.reshape(-1, cout) @ filters.reshape(kh * kw * cin, cout).T
    gcols = gcols.reshape(n, oh, ow, kh, kw, cin)
    gx = np.zeros((n, padded_h, padded_w, cin), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += (
                gcols[:, :, :, i, j, :]
            )
    return gx[:, ph[0] : ph[0] + h, pw[0] : pw[0] + w, :]


def _pool_flops(out_shape, in_shapes):
    return _numel(in_shapes[0])


@kernel("avg_pool2d", flops_fn=_pool_flops)
def avg_pool2d(x, pool, stride):
    """The mean of each window with ``np.mean``'s dtype rules: the sum
    accumulates in the input dtype (float32 for float16, rounded back
    after the divide; float64 for integers) and the windows are added in
    (i, j) order, which is the order ``mean(axis=3)`` adds a patch matrix
    whose channel axis is innermost.  With one channel the patch axis
    itself is innermost and NumPy sums it pairwise, so ``c == 1`` keeps
    the patch matrix."""
    n, h, w, c = x.shape
    if c == 1:
        cols, _ = _im2col_pool(x, pool, stride)
        return cols.mean(axis=3).astype(DTYPE)
    oh = (h - pool) // stride + 1
    ow = (w - pool) // stride + 1
    accum = x.dtype
    if x.dtype == np.float16:
        accum = np.float32
    elif not np.issubdtype(x.dtype, np.inexact):
        accum = np.float64
    windows = [
        x[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :]
        for i in range(pool)
        for j in range(pool)
    ]
    # NumPy's sum starts from +0.0, which turns a leading -0.0 into +0.0.
    total = np.add(windows[0], 0.0, dtype=accum)
    for window in windows[1:]:
        total += window
    np.true_divide(total, np.intp(pool * pool), out=total, casting="unsafe")
    if x.dtype == np.float16:
        total = total.astype(np.float16)
    return total.astype(DTYPE, copy=False)


@kernel("avg_pool2d_grad", flops_fn=_pool_flops)
def avg_pool2d_grad(grad_out, input_shape, pool, stride):
    n, h, w, c = input_shape
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    gx = np.zeros(input_shape, dtype=DTYPE)
    scale = 1.0 / (pool * pool)
    g = grad_out * scale
    for i in range(pool):
        for j in range(pool):
            gx[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += g
    return gx


@kernel("max_pool2d", flops_fn=_pool_flops)
def max_pool2d(x, pool, stride):
    cols, (oh, ow) = _im2col_pool(x, pool, stride)
    return cols.max(axis=3)


@kernel("max_pool2d_grad", flops_fn=_pool_flops)
def max_pool2d_grad(x, grad_out, pool, stride):
    cols, (oh, ow) = _im2col_pool(x, pool, stride)
    maxed = cols.max(axis=3, keepdims=True)
    mask = (cols == maxed).astype(DTYPE)
    mask /= np.maximum(mask.sum(axis=3, keepdims=True), 1.0)
    g = mask * grad_out[:, :, :, None, :]
    gx = np.zeros_like(x, dtype=DTYPE)
    g = g.reshape(x.shape[0], oh, ow, pool, pool, x.shape[3])
    for i in range(pool):
        for j in range(pool):
            gx[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += g[
                :, :, :, i, j, :
            ]
    return gx


def _im2col_pool(x, pool, stride):
    n, h, w, c = x.shape
    oh = (h - pool) // stride + 1
    ow = (w - pool) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, pool, pool, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return patches.reshape(n, oh, ow, pool * pool, c), (oh, ow)


# ---------------------------------------------------------------------------
# Fused training kernels (used by graph engines and softmax losses).
# ---------------------------------------------------------------------------


@kernel("softmax", flops_per_element=12.0)
def softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=-1, keepdims=True)).astype(DTYPE, copy=False)


@kernel("softmax_cross_entropy", flops_per_element=14.0)
def softmax_cross_entropy(logits, labels):
    """Mean cross entropy of one-hot ``labels`` (N,C)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    return np.asarray(-(labels * log_probs).sum(axis=-1).mean(), dtype=DTYPE)


@kernel("softmax_cross_entropy_grad", flops_per_element=14.0)
def softmax_cross_entropy_grad(logits, labels):
    p = softmax.fn(logits)
    return ((p - labels) / logits.shape[0]).astype(DTYPE, copy=False)
