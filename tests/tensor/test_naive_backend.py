"""Naive backend: pure-Python arrays checked against NumPy (property-based).

Per the project's performance guidance, the easy-to-audit Python
implementation is the gold standard the accelerated kernels are compared
to — these tests also go the other way, pinning the naive backend to
NumPy semantics on randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.tensor import naive_backend as nb

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)


def small_arrays(max_dims=3, max_side=4):
    return array_shapes(min_dims=1, max_dims=max_dims, max_side=max_side).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite)
    )


def to_naive(a: np.ndarray) -> nb.NaiveArray:
    return nb.from_nested(a.tolist())


def to_numpy(a: nb.NaiveArray) -> np.ndarray:
    return np.asarray(nb.to_nested(a), dtype=np.float64).reshape(a.shape)


@given(small_arrays())
@settings(max_examples=40, deadline=None)
def test_roundtrip(a):
    np.testing.assert_allclose(to_numpy(to_naive(a)), a)


@given(small_arrays(), st.sampled_from(["add", "sub", "mul", "maximum", "minimum"]))
@settings(max_examples=60, deadline=None)
def test_binary_elementwise_matches_numpy(a, op):
    b = a * 0.5 + 1.0
    got = to_numpy(nb.binary(op, to_naive(a), to_naive(b)))
    expected = {
        "add": a + b,
        "sub": a - b,
        "mul": a * b,
        "maximum": np.maximum(a, b),
        "minimum": np.minimum(a, b),
    }[op]
    np.testing.assert_allclose(got, expected, rtol=1e-9)


@given(small_arrays())
@settings(max_examples=40, deadline=None)
def test_unary_matches_numpy(a):
    np.testing.assert_allclose(
        to_numpy(nb.unary("tanh", to_naive(a))), np.tanh(a), rtol=1e-9
    )
    np.testing.assert_allclose(
        to_numpy(nb.unary("relu", to_naive(a))), np.maximum(a, 0), rtol=1e-9
    )
    np.testing.assert_allclose(to_numpy(nb.unary("neg", to_naive(a))), -a)


@given(small_arrays(max_dims=2))
@settings(max_examples=40, deadline=None)
def test_broadcast_scalar_matches_numpy(a):
    s = nb.from_nested(2.5)
    got = to_numpy(nb.binary("mul", to_naive(a), s))
    np.testing.assert_allclose(got, a * 2.5, rtol=1e-9)


def test_broadcast_row_and_column():
    m = to_naive(np.arange(6, dtype=float).reshape(2, 3))
    row = to_naive(np.array([10.0, 20.0, 30.0]))
    col = to_naive(np.array([[100.0], [200.0]]))
    np.testing.assert_allclose(
        to_numpy(nb.binary("add", m, row)),
        np.arange(6).reshape(2, 3) + np.array([10, 20, 30]),
    )
    np.testing.assert_allclose(
        to_numpy(nb.binary("add", m, col)),
        np.arange(6).reshape(2, 3) + np.array([[100], [200]]),
    )


def test_broadcast_incompatible_raises():
    with pytest.raises(ValueError, match="broadcast"):
        nb.binary("add", to_naive(np.zeros(3)), to_naive(np.zeros(4)))


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000)
)
@settings(max_examples=30, deadline=None)
def test_matmul_matches_numpy(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    got = to_numpy(nb.matmul(to_naive(a), to_naive(b)))
    np.testing.assert_allclose(got, a @ b, rtol=1e-9)


def test_matmul_vector():
    v = to_naive(np.array([1.0, 2.0]))
    m = to_naive(np.array([[3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_allclose(to_numpy(nb.matmul(v, m)), [13.0, 16.0])


def test_matmul_shape_errors():
    with pytest.raises(ValueError, match="mismatch"):
        nb.matmul(to_naive(np.zeros((2, 3))), to_naive(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="rank"):
        nb.matmul(to_naive(np.zeros((2, 2, 2))), to_naive(np.zeros((2, 2))))


@given(small_arrays(max_dims=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_reduce_all_matches_numpy(a, keepdims):
    got = to_numpy(nb.reduce("sum", to_naive(a), None, keepdims))
    expected = a.sum(keepdims=keepdims)
    np.testing.assert_allclose(got.reshape(np.shape(expected)), expected, rtol=1e-7)


@given(st.integers(0, 2), st.booleans(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_reduce_axis_matches_numpy(axis, keepdims, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4))
    for kind, np_fn in [("sum", np.sum), ("mean", np.mean), ("max", np.max)]:
        got = to_numpy(nb.reduce(kind, to_naive(a), (axis,), keepdims))
        expected = np_fn(a, axis=axis, keepdims=keepdims)
        np.testing.assert_allclose(got, expected, rtol=1e-7)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_transpose_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4))
    for perm in [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)]:
        got = to_numpy(nb.transpose(to_naive(a), perm))
        np.testing.assert_allclose(got, np.transpose(a, perm))


def test_reshape_and_errors():
    a = to_naive(np.arange(6, dtype=float))
    np.testing.assert_allclose(
        to_numpy(nb.reshape(a, (2, 3))), np.arange(6).reshape(2, 3)
    )
    with pytest.raises(ValueError, match="reshape"):
        nb.reshape(a, (4, 2))


def test_sum_to_match():
    # The naive backend has no sum_to_match of its own: Tensor's reduce +
    # reshape runs on its `reduce` and `reshape` entries like on any backend.
    from repro.tensor import Tensor, naive_device

    a = Tensor(np.ones((3, 4)), naive_device())
    reduced = a.sum_to_match((4,))
    np.testing.assert_allclose(to_numpy(reduced._impl), [3, 3, 3, 3])
    kept = a.sum_to_match((3, 4))
    assert kept is a
    col = a.sum_to_match((3, 1))
    np.testing.assert_allclose(to_numpy(col._impl), [[4], [4], [4]])


def test_select_and_compare():
    a = to_naive(np.array([-1.0, 0.0, 2.0]))
    zero = nb.from_nested(0.0)
    mask = nb.compare("gt", a, zero)
    np.testing.assert_allclose(to_numpy(mask), [0, 0, 1])
    out = nb.select(mask, a, nb.unary("neg", a))
    np.testing.assert_allclose(to_numpy(out), [1, 0, 2])


def test_ragged_nested_rejected():
    with pytest.raises(ValueError, match="ragged"):
        nb.from_nested([[1.0, 2.0], [3.0]])
