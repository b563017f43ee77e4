"""Tensor API basics on all three backends, checked against NumPy."""

import numpy as np
import pytest

from repro.errors import DeviceError, ShapeError
from repro.tensor import (
    Tensor,
    eager_device,
    lazy_device,
    naive_device,
    using_device,
)

DEVICES = {
    "naive": naive_device,
    "eager": eager_device,
    "lazy": lazy_device,
}


@pytest.fixture(params=sorted(DEVICES))
def device(request):
    return DEVICES[request.param]()


def t(data, device):
    return Tensor(data, device)


def test_creation_and_numpy(device):
    x = t([[1.0, 2.0], [3.0, 4.0]], device)
    assert x.shape == (2, 2)
    np.testing.assert_allclose(x.numpy(), [[1, 2], [3, 4]])


def test_constructors(device):
    np.testing.assert_allclose(Tensor.zeros((2, 3), device).numpy(), np.zeros((2, 3)))
    np.testing.assert_allclose(Tensor.ones((4,), device).numpy(), np.ones(4))
    np.testing.assert_allclose(Tensor.full((2,), 7.0, device).numpy(), [7, 7])
    r = Tensor.randn((3, 3), device, seed=0)
    assert r.shape == (3, 3)
    a = Tensor.arange(5, device)
    np.testing.assert_allclose(a.numpy(), [0, 1, 2, 3, 4])


def test_arithmetic(device):
    x = t([1.0, 2.0, 3.0], device)
    y = t([10.0, 20.0, 30.0], device)
    np.testing.assert_allclose((x + y).numpy(), [11, 22, 33])
    np.testing.assert_allclose((y - x).numpy(), [9, 18, 27])
    np.testing.assert_allclose((x * y).numpy(), [10, 40, 90])
    np.testing.assert_allclose((y / x).numpy(), [10, 10, 10])
    np.testing.assert_allclose((-x).numpy(), [-1, -2, -3])
    np.testing.assert_allclose((x**2.0).numpy(), [1, 4, 9])


def test_scalar_mixing(device):
    x = t([1.0, 2.0], device)
    np.testing.assert_allclose((x + 1.0).numpy(), [2, 3])
    np.testing.assert_allclose((1.0 + x).numpy(), [2, 3])
    np.testing.assert_allclose((2.0 * x).numpy(), [2, 4])
    np.testing.assert_allclose((1.0 - x).numpy(), [0, -1])
    np.testing.assert_allclose((2.0 / x).numpy(), [2, 1])


def test_broadcasting(device):
    m = t([[1.0, 2.0], [3.0, 4.0]], device)
    v = t([10.0, 20.0], device)
    np.testing.assert_allclose((m + v).numpy(), [[11, 22], [13, 24]])


def test_unary_math(device):
    x = t([0.5, 1.0, 2.0], device)
    np.testing.assert_allclose(x.exp().numpy(), np.exp([0.5, 1, 2]), rtol=1e-5)
    np.testing.assert_allclose(x.log().numpy(), np.log([0.5, 1, 2]), rtol=1e-5)
    np.testing.assert_allclose(x.tanh().numpy(), np.tanh([0.5, 1, 2]), rtol=1e-5)
    np.testing.assert_allclose(x.sqrt().numpy(), np.sqrt([0.5, 1, 2]), rtol=1e-5)
    y = t([-1.0, 0.0, 2.0], device)
    np.testing.assert_allclose(y.relu().numpy(), [0, 0, 2])
    np.testing.assert_allclose(y.abs().numpy(), [1, 0, 2])
    np.testing.assert_allclose(
        y.sigmoid().numpy(), 1 / (1 + np.exp([1.0, 0.0, -2.0])), rtol=1e-5
    )


def test_matmul(device):
    a = t([[1.0, 2.0], [3.0, 4.0]], device)
    b = t([[5.0, 6.0], [7.0, 8.0]], device)
    np.testing.assert_allclose((a @ b).numpy(), [[19, 22], [43, 50]])


def test_transpose_property(device):
    a = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], device)
    np.testing.assert_allclose(a.T.numpy(), [[1, 4], [2, 5], [3, 6]])


def test_reductions(device):
    x = t([[1.0, 2.0], [3.0, 4.0]], device)
    assert float(x.sum()) == 10.0
    assert float(x.mean()) == 2.5
    assert float(x.max()) == 4.0
    np.testing.assert_allclose(x.sum(axes=0).numpy(), [4, 6])
    np.testing.assert_allclose(x.sum(axes=1).numpy(), [3, 7])
    np.testing.assert_allclose(x.mean(axes=1, keepdims=True).numpy(), [[1.5], [3.5]])


def test_reshape_transpose(device):
    x = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], device)
    np.testing.assert_allclose(
        x.reshaped((3, 2)).numpy(), [[1, 2], [3, 4], [5, 6]]
    )
    np.testing.assert_allclose(
        x.reshaped((-1,)).numpy(), [1, 2, 3, 4, 5, 6]
    )
    np.testing.assert_allclose(
        x.transposed((1, 0)).numpy(), [[1, 4], [2, 5], [3, 6]]
    )


def test_comparisons_and_select(device):
    x = t([-1.0, 0.0, 1.0], device)
    mask = x > 0.0
    np.testing.assert_allclose(mask.select(x, -x).numpy(), [1, 0, 1])
    np.testing.assert_allclose((x >= 0.0).select(1.0, 0.0).numpy(), [0, 1, 1])


def test_sum_to_match(device):
    x = t(np.ones((3, 4), np.float32), device)
    reduced = x.sum_to_match((4,))
    np.testing.assert_allclose(reduced.numpy(), [3, 3, 3, 3])
    same = x.sum_to_match((3, 4))
    np.testing.assert_allclose(same.numpy(), np.ones((3, 4)))
    kept = (x + 0.0).sum_to_match((3, 1))
    assert kept.shape == (3, 1)
    np.testing.assert_allclose(kept.numpy(), [[4], [4], [4]])


def test_item_and_bool(device):
    s = t(3.5, device)
    assert s.item() == 3.5
    assert float(s) == 3.5
    assert bool(t(1.0, device)) is True
    assert bool(t(0.0, device)) is False
    with pytest.raises(ShapeError):
        t([1.0, 2.0], device).item()


def test_move_conformance(device):
    from repro.core import ZERO, move

    x = t([1.0, 2.0], device)
    moved = move(x, t([0.5, 0.5], device))
    np.testing.assert_allclose(moved.numpy(), [1.5, 2.5])
    np.testing.assert_allclose(x.numpy(), [1, 2])
    x.move_(t([1.0, 1.0], device))
    np.testing.assert_allclose(x.numpy(), [2, 3])
    x.move_(ZERO)
    np.testing.assert_allclose(x.numpy(), [2, 3])


def test_value_semantics_of_move(device):
    x = t([1.0, 2.0], device)
    y = x + 0.0
    x.move_(t([10.0, 10.0], device))
    np.testing.assert_allclose(y.numpy(), [1, 2])  # y unaffected


def test_mixed_device_rejected():
    a = Tensor([1.0], eager_device())
    b = Tensor([1.0], eager_device())
    with pytest.raises(DeviceError):
        a + b


def test_default_device_scoping():
    dev = naive_device()
    with using_device(dev):
        x = Tensor([1.0, 2.0])
        assert x.device is dev
    y = Tensor([1.0])
    assert y.device is not dev


def test_backends_agree_on_composite_program():
    """The same program yields identical numerics on all three backends."""

    def program(device):
        x = Tensor([[0.1, -0.2, 0.3], [0.5, 0.4, -0.6]], device)
        w = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], device)
        b = Tensor([0.1, -0.1], device)
        h = (x @ w + b).relu()
        z = (h * 2.0 - h.mean()).tanh()
        return z.sum().item()

    results = {name: program(factory()) for name, factory in DEVICES.items()}
    assert results["naive"] == pytest.approx(results["eager"], rel=1e-5)
    assert results["lazy"] == pytest.approx(results["eager"], rel=1e-5)


@pytest.mark.parametrize("reduction", ["sum", "mean", "max"])
def test_bad_reduce_axes_rejected_at_the_call(device, reduction):
    """An out-of-range or repeated axis is a ShapeError where the reduction
    is written, on every backend — not a silent wrap to another axis, and
    not a kernel error at materialization."""
    x = t(np.arange(6, dtype=np.float32).reshape(2, 3), device)
    reduce = getattr(x, reduction)
    for axes in [(5,), (-3,)]:
        with pytest.raises(ShapeError, match=r"out of range for shape \(2, 3\)"):
            reduce(axes=axes)
    for axes in [(0, 0), (1, -1)]:
        with pytest.raises(ShapeError, match="duplicate reduce axes"):
            reduce(axes=axes)
    expected = getattr(np, reduction)(x.numpy(), axis=1)
    np.testing.assert_allclose(reduce(axes=(-1,)).numpy(), expected)


def test_observed_mask_is_float32_on_every_backend(device):
    x = t([[0.5, 1.5, 2.5], [1.5, 3.0, -1.0]], device)
    for mask, reference in [
        (x > 1.5, x.numpy() > 1.5),
        (x >= 1.5, x.numpy() >= 1.5),
        (x < 1.5, x.numpy() < 1.5),
        (x <= 1.5, x.numpy() <= 1.5),
    ]:
        observed = mask.numpy()
        assert observed.dtype == np.float32
        np.testing.assert_array_equal(observed, reference.astype(np.float32))
    mask = x > 1.5
    np.testing.assert_allclose(mask.select(x, 0.0).numpy(), [[0, 0, 2.5], [0, 3, 0]])
    assert mask.sum().item() == 2.0
    np.testing.assert_allclose((mask * x).numpy(), [[0, 0, 2.5], [0, 3, 0]])
