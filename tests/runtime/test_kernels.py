"""Kernel numerics checked against direct NumPy computations."""

import numpy as np
import pytest

from repro.runtime.kernels import (
    DTYPE,
    KERNELS,
    _numel,
    avg_pool2d,
    avg_pool2d_grad,
    conv2d,
    conv2d_grad_filter,
    conv2d_grad_input,
    matmul,
    max_pool2d,
    max_pool2d_grad,
    one_hot,
    reduce_mean,
    reduce_sum,
    relu,
    rsqrt,
    select,
    sigmoid,
    sign,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
)

rng = np.random.default_rng(7)


def test_elementwise_kernels_match_numpy():
    x = rng.standard_normal((3, 4)).astype(np.float32)
    y = rng.standard_normal((3, 4)).astype(np.float32) + 2.5
    cases = {
        "add": x + y,
        "sub": x - y,
        "mul": x * y,
        "div": x / y,
        "neg": -x,
        "exp": np.exp(x),
        "tanh": np.tanh(x),
        "relu": np.maximum(x, 0),
        "abs": np.abs(x),
        "maximum": np.maximum(x, y),
        "minimum": np.minimum(x, y),
    }
    for name, expected in cases.items():
        kernel = KERNELS[name]
        args = (x,) if kernel.fn.__code__.co_argcount == 1 else (x, y)
        np.testing.assert_allclose(kernel(*args), expected, rtol=1e-5)


def test_matmul():
    a = rng.standard_normal((5, 3)).astype(np.float32)
    b = rng.standard_normal((3, 7)).astype(np.float32)
    np.testing.assert_allclose(matmul(a, b), a @ b, rtol=1e-5)


def test_matmul_flops():
    k = KERNELS["matmul"]
    assert k.flops((5, 7), [(5, 3), (3, 7)]) == 2 * 5 * 7 * 3


def test_reduces():
    x = rng.standard_normal((4, 5)).astype(np.float32)
    np.testing.assert_allclose(reduce_sum(x, (0,), False), x.sum(axis=0), rtol=1e-5)
    np.testing.assert_allclose(
        reduce_mean(x, None, False), x.mean(), rtol=1e-5
    )


def test_conv2d_matches_naive():
    x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
    f = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    out = conv2d(x, f, 1, "valid")
    assert out.shape == (2, 4, 4, 4)
    # Naive reference
    ref = np.zeros_like(out)
    for n in range(2):
        for i in range(4):
            for j in range(4):
                patch = x[n, i : i + 3, j : j + 3, :]
                for co in range(4):
                    ref[n, i, j, co] = (patch * f[:, :, :, co]).sum()
    np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)


def test_conv2d_same_padding_shape():
    x = rng.standard_normal((1, 7, 7, 2)).astype(np.float32)
    f = rng.standard_normal((3, 3, 2, 5)).astype(np.float32)
    out = conv2d(x, f, 1, "same")
    assert out.shape == (1, 7, 7, 5)
    out2 = conv2d(x, f, 2, "same")
    assert out2.shape == (1, 4, 4, 5)


def test_conv2d_gradients_match_fd():
    x = rng.standard_normal((1, 5, 5, 2)).astype(np.float64).astype(np.float32)
    f = rng.standard_normal((3, 3, 2, 3)).astype(np.float32)
    g = rng.standard_normal((1, 3, 3, 3)).astype(np.float32)

    def loss_x(xv):
        return float((conv2d(xv, f, 1, "valid") * g).sum())

    def loss_f(fv):
        return float((conv2d(x, fv, 1, "valid") * g).sum())

    gx = conv2d_grad_input(g, f, x.shape, 1, "valid")
    gf = conv2d_grad_filter(x, g, f.shape, 1, "valid")

    eps = 1e-2
    for _ in range(8):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fd = (loss_x(xp) - loss_x(xm)) / (2 * eps)
        assert gx[idx] == pytest.approx(fd, rel=2e-2, abs=2e-2)
    for _ in range(8):
        idx = tuple(rng.integers(0, s) for s in f.shape)
        fp, fm = f.copy(), f.copy()
        fp[idx] += eps
        fm[idx] -= eps
        fd = (loss_f(fp) - loss_f(fm)) / (2 * eps)
        assert gf[idx] == pytest.approx(fd, rel=2e-2, abs=2e-2)


def test_conv2d_grad_same_padding_consistency():
    x = rng.standard_normal((1, 6, 6, 1)).astype(np.float32)
    f = rng.standard_normal((3, 3, 1, 2)).astype(np.float32)
    g = np.ones((1, 6, 6, 2), dtype=np.float32)
    gx = conv2d_grad_input(g, f, x.shape, 1, "same")
    assert gx.shape == x.shape
    gf = conv2d_grad_filter(x, g, f.shape, 1, "same")
    assert gf.shape == f.shape


def test_avg_pool_and_grad():
    x = rng.standard_normal((2, 4, 4, 3)).astype(np.float32)
    out = avg_pool2d(x, 2, 2)
    assert out.shape == (2, 2, 2, 3)
    np.testing.assert_allclose(
        out[0, 0, 0, 0], x[0, :2, :2, 0].mean(), rtol=1e-5
    )
    g = np.ones_like(out)
    gx = avg_pool2d_grad(g, x.shape, 2, 2)
    np.testing.assert_allclose(gx, np.full_like(x, 0.25), rtol=1e-6)


def test_max_pool_and_grad():
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
    out = max_pool2d(x, 2, 2)
    np.testing.assert_allclose(out.ravel(), [5, 7, 13, 15])
    g = np.ones_like(out)
    gx = max_pool2d_grad(x, g, 2, 2)
    assert gx.sum() == 4.0
    assert gx[0, 1, 1, 0] == 1.0  # gradient lands on the max positions


def test_softmax_and_cross_entropy():
    logits = rng.standard_normal((4, 10)).astype(np.float32)
    labels = one_hot(np.array([1, 3, 5, 7], dtype=np.float32), 10)
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)
    loss = softmax_cross_entropy(logits, labels)
    expected = -np.log(p[np.arange(4), [1, 3, 5, 7]]).mean()
    assert float(loss) == pytest.approx(float(expected), rel=1e-5)

    grad = softmax_cross_entropy_grad(logits, labels)
    eps = 1e-3
    for _ in range(5):
        i, j = rng.integers(0, 4), rng.integers(0, 10)
        lp, lm = logits.copy(), logits.copy()
        lp[i, j] += eps
        lm[i, j] -= eps
        fd = (
            float(softmax_cross_entropy(lp, labels))
            - float(softmax_cross_entropy(lm, labels))
        ) / (2 * eps)
        assert grad[i, j] == pytest.approx(fd, rel=1e-2, abs=1e-4)


def test_one_hot():
    out = one_hot(np.array([0.0, 2.0]), 3)
    np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])


def test_traffic_estimate_counts_inputs_and_outputs():
    k = KERNELS["add"]
    assert k.traffic((10,), [(10,), (10,)]) == 30 * 4


# ---------------------------------------------------------------------------
# Bit-identity oracles: the plain NumPy formulations the branch-free select,
# the strided-window average pooling and _numel replaced.  A rewrite must
# return the same bits and an owning array wherever these did.
# ---------------------------------------------------------------------------


def _reference_numel(shape) -> int:
    return int(np.prod(shape)) if shape else 1


def _reference_select(cond, x, y):
    return np.where(cond, x, y).astype(DTYPE)


def _reference_avg_pool2d(x, pool, stride):
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
    return patches.reshape(n, oh, ow, pool * pool, c).mean(axis=3).astype(DTYPE)


def _assert_same_bits(got, expected):
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype == DTYPE
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
    assert (got.base is None) == (expected.base is None)


FLOAT_DTYPES = [np.float16, np.float32, np.float64]


def _with_specials(shape, dtype, seed):
    """Random values over several magnitudes with NaN, +-inf, +-0.0 and
    subnormals sprinkled in, plus one all -0.0 corner."""
    r = np.random.default_rng(seed)
    values = r.standard_normal(shape) * r.choice([1e-3, 1.0, 1e3], size=shape)
    values = values.astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 3 * tiny])
    flat = values.reshape(-1)
    picks = r.choice(flat.size, size=max(1, flat.size // 10), replace=False)
    flat[picks] = specials[r.integers(0, len(specials), picks.size)].astype(dtype)
    values[:, :3, :3, :] = -0.0
    return values


#: (input shape, pool, stride): LeNet's two activations, c == 1,
#: overlapping windows, odd sizes the windows do not divide, pool == 1.
POOL_CASES = [
    ((32, 28, 28, 6), 2, 2),
    ((32, 10, 10, 16), 2, 2),
    ((3, 8, 8, 1), 2, 2),
    ((2, 9, 7, 1), 3, 1),
    ((2, 9, 7, 1), 3, 2),
    ((2, 8, 8, 3), 3, 1),
    ((2, 7, 9, 4), 2, 1),
    ((2, 11, 9, 5), 3, 2),
    ((2, 7, 9, 2), 2, 2),
    ((1, 6, 6, 3), 4, 4),
    ((2, 5, 5, 3), 1, 1),
]


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("shape,pool,stride", POOL_CASES, ids=str)
def test_avg_pool2d_bits_match_reference(shape, pool, stride, dtype):
    x = _with_specials(shape, dtype, seed=sum(shape) + pool + stride)
    _assert_same_bits(avg_pool2d(x, pool, stride), _reference_avg_pool2d(x, pool, stride))


@pytest.mark.parametrize("dtype", [np.int32, np.bool_], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape,pool,stride", POOL_CASES, ids=str)
def test_avg_pool2d_integer_input_bits_match_reference(shape, pool, stride, dtype):
    # np.mean accumulates integer and bool input in float64.
    r = np.random.default_rng(sum(shape) + pool)
    x = r.integers(-(2**30), 2**30, size=shape).astype(dtype)
    _assert_same_bits(avg_pool2d(x, pool, stride), _reference_avg_pool2d(x, pool, stride))


def _select_cases():
    r = np.random.default_rng(11)
    full = (32, 28, 28, 6)
    mask = r.standard_normal(full) > 0
    for dtype in FLOAT_DTYPES:
        x = _with_specials(full, dtype, seed=1)
        y = _with_specials(full, dtype, seed=2)
        name = np.dtype(dtype).name
        yield f"relu-mask-{name}", (mask, x, y)
        yield f"scalar-y-{name}", (mask, x, 0.0)
        yield f"scalar-x-{name}", (mask, dtype(-0.0), y)
        yield f"lower-rank-y-{name}", (mask, x, y[0, 0, 0])
        yield f"lower-rank-cond-{name}", (mask[0, :, :, :1], x, y)
    fcond = _with_specials((4, 5, 6, 3), np.float32, seed=3)
    a = r.standard_normal((4, 5, 6, 3)).astype(np.float32)
    yield "float-cond-with-nan", (fcond, a, -a)
    yield "f64-cond-f32-x-f64-y", (fcond.astype(np.float64), a, a.astype(np.float64) / 3)
    yield "mixed-f16-f32", (mask[:2], x[:2].astype(np.float16), y[:2].astype(np.float32))
    yield "0-d", (np.array(True), np.array(2.5, np.float32), np.array(-1.0, np.float32))
    yield "0-d-false-scalars", (np.array(0.0), 1.5, -0.0)
    yield "python-scalars", (True, 0.1, 0.2)
    yield "int-branches", (mask[0, 0], np.arange(6 * 28).reshape(28, 6), 7)


SELECT_CASES = dict(_select_cases())


@pytest.mark.parametrize("case", list(SELECT_CASES))
def test_select_bits_match_reference(case):
    cond, x, y = SELECT_CASES[case]
    _assert_same_bits(select(cond, x, y), _reference_select(cond, x, y))


@pytest.mark.parametrize(
    "shape", [(), (0,), (7,), (3, 4), (32, 28, 28, 6), (np.int64(5), 2)], ids=str
)
def test_numel_matches_reference(shape):
    got = _numel(shape)
    assert type(got) is int and got == _reference_numel(shape)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: np.dtype(d).name)
def test_cast_free_kernels_return_owning_float32(dtype):
    x = rng.standard_normal((4, 10)).astype(dtype)
    labels = one_hot(np.array([1, 3, 5, 7]), 10)
    results = [
        relu(x),
        sign(x),
        rsqrt(np.abs(x) + 1),
        sigmoid(x),
        matmul(x, x.T),
        softmax(x),
        softmax_cross_entropy_grad(x, labels),
    ]
    for result in results:
        assert result.dtype == DTYPE and result.base is None
        assert not np.shares_memory(result, x)
