"""Differentiable tensor operations.

These primitives are the Tensor-level base cases of the AD recursion,
registered with ``@derivative``-style VJPs/JVPs exactly like the scalar
math primitives — demonstrating that the AD system is decoupled from the
Tensor type (it consumes only the ``Differentiable`` conformance).

All implementations go through :class:`~repro.tensor.tensor.Tensor`
methods, so every primitive works on all three backends unchanged.
"""

from __future__ import annotations

from repro.sil.frontend import register_method
from repro.sil.primitives import primitive


# ---------------------------------------------------------------------------
# Primitives.
# ---------------------------------------------------------------------------


@primitive("matmul")
def matmul(a, b):
    """Matrix product (rank-2); differentiable w.r.t. both operands."""
    return a @ b


@matmul.def_vjp
def _matmul_vjp(a, b):
    y = a @ b
    return y, lambda ct: (ct @ b.T, a.T @ ct)


@matmul.def_jvp
def _matmul_jvp(primals, tangents):
    (a, b), (da, db) = primals, tangents
    y = a @ b
    from repro.core.differentiable import ZERO, tangent_add

    parts = []
    if da is not ZERO:
        parts.append(da @ b)
    if db is not ZERO:
        parts.append(a @ db)
    if not parts:
        return y, ZERO
    dy = parts[0]
    for p in parts[1:]:
        dy = tangent_add(dy, p)
    return y, dy


@primitive("conv2d", nondiff_args=(2, 3))
def conv2d(x, filters, stride=1, padding="valid"):
    """2-D convolution, NHWC input and (KH,KW,CIN,COUT) filters."""
    return x._apply("conv2d", (x, filters), stride=stride, padding=padding)


@conv2d.def_vjp
def _conv2d_vjp(x, filters, stride=1, padding="valid"):
    y = conv2d.fn(x, filters, stride, padding)
    attrs = {"stride": stride, "padding": padding}

    def pullback(ct):
        gx = x._apply("conv2d_grad_input", (ct, filters), input_dims=x.shape, **attrs)
        gf = x._apply(
            "conv2d_grad_filter", (x, ct), filter_dims=filters.shape, **attrs
        )
        return (gx, gf, None, None)

    return y, pullback


@primitive("avg_pool2d", nondiff_args=(1, 2))
def avg_pool2d(x, pool=2, stride=2):
    """Average pooling over NHWC windows."""
    return x._apply("avg_pool", (x,), pool=pool, stride=stride)


@avg_pool2d.def_vjp
def _avg_pool2d_vjp(x, pool=2, stride=2):
    y = avg_pool2d.fn(x, pool, stride)

    def pullback(ct):
        gx = x._apply(
            "avg_pool_grad", (ct,), input_dims=x.shape, pool=pool, stride=stride
        )
        return (gx, None, None)

    return y, pullback


@primitive("max_pool2d", nondiff_args=(1, 2))
def max_pool2d(x, pool=2, stride=2):
    """Max pooling over NHWC windows."""
    return x._apply("max_pool", (x,), pool=pool, stride=stride)


@max_pool2d.def_vjp
def _max_pool2d_vjp(x, pool=2, stride=2):
    y = max_pool2d.fn(x, pool, stride)

    def pullback(ct):
        gx = x._apply("max_pool_grad", (x, ct), pool=pool, stride=stride)
        return (gx, None, None)

    return y, pullback


@primitive("tensor_sum", nondiff_args=(1, 2))
def tensor_sum(x, axes=None, keepdims=False):
    """Sum-reduce over ``axes`` (all axes when None)."""
    return x.sum(axes, keepdims)


@tensor_sum.def_vjp
def _tensor_sum_vjp(x, axes=None, keepdims=False):
    y = x.sum(axes, keepdims)
    shape = x.shape

    def pullback(ct):
        g = _restore_reduced_dims(ct, shape, axes, keepdims).broadcast_to(shape)
        return (g, None, None)

    return y, pullback


@tensor_sum.def_jvp
def _tensor_sum_jvp(primals, tangents):
    x, axes, keepdims = _pad3(primals)
    dx = tangents[0]
    from repro.core.differentiable import ZERO

    y = x.sum(axes, keepdims)
    return y, (ZERO if dx is ZERO else dx.sum(axes, keepdims))


@primitive("tensor_mean", nondiff_args=(1, 2))
def tensor_mean(x, axes=None, keepdims=False):
    """Mean-reduce over ``axes``."""
    return x.mean(axes, keepdims)


@tensor_mean.def_vjp
def _tensor_mean_vjp(x, axes=None, keepdims=False):
    y = x.mean(axes, keepdims)
    shape = x.shape
    count = _reduced_count(shape, axes)

    def pullback(ct):
        g = _restore_reduced_dims(ct, shape, axes, keepdims).broadcast_to(shape)
        return (g / float(count), None, None)

    return y, pullback


@tensor_mean.def_jvp
def _tensor_mean_jvp(primals, tangents):
    x, axes, keepdims = _pad3(primals)
    dx = tangents[0]
    from repro.core.differentiable import ZERO

    return x.mean(axes, keepdims), (ZERO if dx is ZERO else dx.mean(axes, keepdims))


@primitive("tensor_max", nondiff_args=(1, 2))
def tensor_max(x, axes=None, keepdims=False):
    return x.max(axes, keepdims)


@tensor_max.def_vjp
def _tensor_max_vjp(x, axes=None, keepdims=False):
    y = x.max(axes, keepdims)
    shape = x.shape

    def pullback(ct):
        y_full = _restore_reduced_dims(y, shape, axes, keepdims).broadcast_to(shape)
        ct_full = _restore_reduced_dims(ct, shape, axes, keepdims).broadcast_to(shape)
        mask = x >= y_full
        return (mask.select(ct_full, 0.0), None, None)

    return y, pullback


@primitive("tensor_reshape", nondiff_args=(1,))
def tensor_reshape(x, dims):
    """Reshape (element order preserved)."""
    return x.reshaped(dims)


@tensor_reshape.def_vjp
def _tensor_reshape_vjp(x, dims):
    shape = x.shape
    return x.reshaped(dims), lambda ct: (ct.reshaped(shape), None)


@tensor_reshape.def_jvp
def _tensor_reshape_jvp(primals, tangents):
    x, dims = primals
    dx = tangents[0]
    from repro.core.differentiable import ZERO

    return x.reshaped(dims), (ZERO if dx is ZERO else dx.reshaped(dims))


@primitive("flatten_batch")
def flatten_batch(x):
    """Collapse all non-batch dimensions: (N, ...) -> (N, prod(...))."""
    n = x.shape[0]
    return x.reshaped((n, x.size // n))


@flatten_batch.def_vjp
def _flatten_batch_vjp(x):
    shape = x.shape
    n = shape[0]
    return x.reshaped((n, x.size // n)), lambda ct: (ct.reshaped(shape),)


@primitive("tensor_transpose", nondiff_args=(1,))
def tensor_transpose(x, perm):
    return x.transposed(perm)


@tensor_transpose.def_vjp
def _tensor_transpose_vjp(x, perm):
    inverse = tuple(sorted(range(len(perm)), key=lambda i: perm[i]))
    return x.transposed(perm), lambda ct: (ct.transposed(inverse), None)


@primitive("tensor_broadcast_to", nondiff_args=(1,))
def tensor_broadcast_to(x, dims):
    return x.broadcast_to(dims)


@tensor_broadcast_to.def_vjp
def _tensor_broadcast_to_vjp(x, dims):
    shape = x.shape
    return x.broadcast_to(dims), lambda ct: (ct.sum_to_match(shape), None)


@primitive("softmax_cross_entropy")
def softmax_cross_entropy(logits, labels):
    """Mean softmax cross entropy against one-hot ``labels``; scalar."""
    return logits._apply("softmax_ce", (logits, labels))


@softmax_cross_entropy.def_vjp
def _softmax_ce_vjp(logits, labels):
    loss = softmax_cross_entropy.fn(logits, labels)

    def pullback(ct):
        return (logits._apply("softmax_ce_grad", (logits, labels)) * ct, None)

    return loss, pullback


@primitive("one_hot", nondiff_args=(0, 1))
def one_hot(indices, depth):
    """One-hot encode a float tensor of class indices."""
    return indices._apply("one_hot", (indices,), depth=depth)


@primitive("mse_loss")
def mse_loss(predictions, targets):
    """Mean squared error; differentiable through the tensor operators."""
    diff = predictions - targets
    return (diff * diff).mean()


@mse_loss.def_vjp
def _mse_loss_vjp(predictions, targets):
    diff = predictions - targets
    loss = (diff * diff).mean()
    n = float(diff.size)

    def pullback(ct):
        g = diff * (2.0 / n) * ct
        return (g, -g)

    return loss, pullback


@primitive("tensor_concat", nondiff_args=(1,))
def tensor_concat(tensors, axis=0):
    """Concatenate a list of tensors along ``axis`` (axis 0 on naive)."""
    return tensors[0]._apply("concat", tensors, axis=axis)


@tensor_concat.def_vjp
def _tensor_concat_vjp(tensors, axis=0):
    y = tensor_concat.fn(tensors, axis)
    rank = len(tensors[0].shape)
    axis_n = axis % rank
    sizes = [t.shape[axis_n] for t in tensors]

    def pullback(ct):
        pieces = []
        offset = 0
        for size, t in zip(sizes, tensors):
            if axis_n == 0:
                pieces.append(ct[offset : offset + size])
            else:
                starts = tuple(
                    offset if d == axis_n else 0 for d in range(rank)
                )
                dims = tuple(
                    size if d == axis_n else t.shape[d] for d in range(rank)
                )
                pieces.append(ct._apply("slice", (ct,), starts=starts, sizes=dims))
            offset += size
        return (pieces, None)

    return y, pullback


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _pad3(primals):
    x = primals[0]
    axes = primals[1] if len(primals) > 1 else None
    keepdims = primals[2] if len(primals) > 2 else False
    return x, axes, keepdims


def _reduced_count(shape, axes) -> int:
    if axes is None:
        total = 1
        for d in shape:
            total *= d
        return total
    total = 1
    for a in axes:
        total *= shape[a % len(shape)]
    return total


def _restore_reduced_dims(ct, shape, axes, keepdims):
    """Insert size-1 dims so ``ct`` broadcasts against the original shape."""
    if keepdims or not hasattr(ct, "reshaped"):
        return ct
    if axes is None:
        return ct.reshaped((1,) * len(shape))
    axes = tuple(a % len(shape) for a in axes)
    dims = tuple(1 if i in axes else d for i, d in enumerate(shape))
    return ct.reshaped(dims)


# Route `x.method()` call sites inside @differentiable code to primitives.
register_method("sum", "tensor_sum")
register_method("mean", "tensor_mean")
register_method("max", "tensor_max")
register_method("reshaped", "tensor_reshape")
register_method("transposed", "tensor_transpose")
register_method("broadcast_to", "tensor_broadcast_to")
# Unary math methods route to the generic math primitives, which dispatch
# back to the receiver's method — so `x.tanh()` differentiates on any type.
for _name in ("exp", "log", "tanh", "sqrt", "rsqrt", "sigmoid", "relu", "abs"):
    register_method(_name, _name)
