"""Data-parallel pod training (the Table 1 machinery): one real replica
standing for a simulated pod of ``pod_size`` cores."""

import numpy as np
import pytest

from repro.data import synthetic_mnist
from repro.nn import MLP, softmax_cross_entropy
from repro.optim import SGD
from repro.runtime.costmodel import S4TF_LAZY, TPU_V3_CORE
from repro.training import ParallelDataParallelTrainer


def _loss(model, x, y):
    return softmax_cross_entropy(model(x.reshaped((-1, 64))), y)


def _setup(n_cores, learning_rate=0.05):
    trainer = ParallelDataParallelTrainer(
        lambda device: MLP.create(64, [32], 10, device=device, seed=0),
        lambda: SGD(learning_rate),
        n_replicas=1,
        profile=TPU_V3_CORE,
        engine=S4TF_LAZY,
        pod_size=n_cores,
    )
    data = synthetic_mnist(n=32, image_size=8)
    x, y = next(data.batches(16))
    return trainer, trainer.place_shards([(x.numpy(), y.numpy())])


def test_step_reports_timing_components():
    trainer, shards = _setup(8)
    stats = trainer.step(_loss, shards)
    assert stats.compute_time > 0
    assert stats.allreduce_time > 0
    assert stats.gradient_bytes > 1000  # MLP parameters
    assert stats.step_time == stats.compute_time + stats.allreduce_time


def test_single_core_has_no_allreduce():
    trainer, shards = _setup(1)
    stats = trainer.step(_loss, shards)
    assert stats.allreduce_time == 0.0


def test_training_actually_updates_the_model():
    trainer, shards = _setup(4, learning_rate=0.1)
    model = trainer.models[0]
    before = model.head.weight.numpy().copy()
    losses = [trainer.step(_loss, shards).loss for _ in range(5)]
    assert not np.array_equal(model.head.weight.numpy(), before)
    assert losses[-1] < losses[0]


def test_throughput_computation():
    trainer, shards = _setup(16)
    stats = trainer.step(_loss, shards)
    total, per_core = trainer.throughput(stats, per_replica_batch=16)
    assert total == pytest.approx(16 * 16 / stats.step_time)
    assert per_core == pytest.approx(total / 16)


def test_gradient_bytes_match_model_size():
    trainer, shards = _setup(4)
    stats = trainer.step(_loss, shards)
    # MLP(64->32->10): weights+biases = 64*32+32 + 32*10+10 params * 4B.
    expected = (64 * 32 + 32 + 32 * 10 + 10) * 4
    assert stats.gradient_bytes == expected


def test_allreduce_grows_slowly_with_cores():
    results = {}
    for n in (2, 16, 128):
        trainer, shards = _setup(n)
        stats = trainer.step(_loss, shards)
        results[n] = stats.allreduce_time
    # Tiny gradients are latency-bound: growth is monotone in pod size.
    assert results[2] < results[16] < results[128]
    # Realistic (ResNet-50-sized) gradients are bandwidth-bound, where the
    # ring's transfer volume saturates near 2x the gradient size: going
    # from 16 to 128 cores costs only ~30% more all-reduce time.
    big = 100e6
    t16 = TPU_V3_CORE.allreduce_time(big, 16)
    t128 = TPU_V3_CORE.allreduce_time(big, 128)
    assert t128 < 1.4 * t16
