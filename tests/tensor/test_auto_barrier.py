"""Automatic trace cutting — the paper's Section 3.4 future work,
implemented: sufficiently large trace fragments compile and dispatch
automatically, with no user annotations."""

import numpy as np

from repro.hlo import clear_cache
from repro.hlo.compiler import STATS
from repro.tensor import Tensor, lazy_device
from repro.tensor.lazy_backend import fragment_order


def setup_function(_):
    clear_cache()
    STATS.reset()


def test_auto_cut_fires_at_threshold():
    device = lazy_device(auto_barrier_threshold=10)
    x = Tensor(np.ones(8, np.float32), device)
    y = x
    for _ in range(25):
        y = y * 1.01
    # Fragments were dispatched automatically mid-loop.
    assert device.runtime.auto_cuts >= 2
    np.testing.assert_allclose(y.numpy(), 1.01**25 * np.ones(8), rtol=1e-4)


def test_auto_cut_bounds_fragment_size():
    threshold = 12
    device = lazy_device(auto_barrier_threshold=threshold)
    op_counts = []

    def count_ops(targets, reason):
        order = fragment_order(targets)
        op_counts.append(sum(node.op in ("add", "mul") for node in order))

    device.runtime.fragment_observers.append(count_ops)
    x = Tensor(np.ones(4, np.float32), device)
    y = x
    for _ in range(60):
        y = y + 0.5
    y.numpy()
    assert len(op_counts) > 1
    assert all(count <= threshold for count in op_counts)


def test_auto_cut_matches_uncut_numerics():
    def program(device):
        x = Tensor(np.linspace(0, 1, 16).astype(np.float32), device)
        y = x
        for i in range(40):
            y = (y * 1.1).tanh() + x * 0.01
        return y.numpy()

    uncut = program(lazy_device())
    cut = program(lazy_device(auto_barrier_threshold=7))
    np.testing.assert_allclose(uncut, cut, rtol=1e-5, atol=1e-6)


def test_auto_cut_keeps_cache_effective_across_iterations():
    device = lazy_device(auto_barrier_threshold=8)
    w = Tensor(np.ones(4, np.float32), device)

    def iteration():
        nonlocal w
        x = Tensor(np.full(4, 0.5, np.float32), device)
        y = x
        for _ in range(20):
            y = y * w + 0.1
        w = w - y * 0.001
        from repro.tensor import LazyTensorBarrier

        LazyTensorBarrier(device)

    iteration()
    compiles_after_first = STATS.compiles
    for _ in range(4):
        iteration()
    # Cut points are deterministic by op count, so later iterations reuse
    # the first iteration's compiled fragments.
    assert STATS.compiles <= compiles_after_first + 1
    assert STATS.cache_hits > 0


def test_disabled_by_default():
    device = lazy_device()
    x = Tensor(np.ones(4, np.float32), device)
    y = x
    for _ in range(100):
        y = y + 1.0
    assert device.runtime.auto_cuts == 0
    assert STATS.compiles == 0  # still fully lazy until observed


def test_threshold_is_reconfigurable_after_construction():
    device = lazy_device()
    assert device.runtime.auto_barrier_threshold is None
    device.runtime.auto_barrier_threshold = 10
    x = Tensor(np.ones(8, np.float32), device)
    y = x
    for _ in range(25):
        y = y * 1.01
    assert device.runtime.auto_cuts >= 2  # newly set threshold fires
    device.runtime.auto_barrier_threshold = None  # and can be disabled again
    assert device.runtime.auto_barrier_threshold is None


def test_threshold_rejects_invalid_values():
    import pytest

    device = lazy_device()
    for bad in (0, -3, 1.5, True, "8"):
        with pytest.raises(ValueError):
            device.runtime.auto_barrier_threshold = bad
    with pytest.raises(ValueError):
        lazy_device(auto_barrier_threshold=0)


def test_trace_stats_expose_auto_cuts():
    device = lazy_device(auto_barrier_threshold=8)
    x = Tensor(np.ones(4, np.float32), device)
    y = x
    for _ in range(30):
        y = y + 0.5
    y.numpy()
    stats = device.trace_stats()
    assert stats["auto_cuts"] == device.runtime.auto_cuts >= 1
    assert stats["auto_barrier_threshold"] == 8
    assert stats["ops_traced"] >= 30
    assert stats["compiles_triggered"] >= 1
    assert stats["materializations"] >= 1


def test_trace_stats_reset():
    device = lazy_device(auto_barrier_threshold=6)
    x = Tensor(np.ones(4, np.float32), device)
    y = x
    for _ in range(20):
        y = y * 1.1
    y.numpy()
    assert device.trace_stats()["auto_cuts"] >= 1
    device.runtime.reset()
    stats = device.trace_stats()
    assert stats["auto_cuts"] == 0
    assert stats["ops_traced"] == 0
    assert stats["ops_since_cut"] == 0


def test_eager_device_has_no_trace_stats():
    from repro.tensor import eager_device

    assert eager_device().trace_stats() == {}
