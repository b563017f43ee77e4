"""MultiReplicaExecutor and ParallelDataParallelTrainer unit tests.

The executor's contract: replica-id ordering regardless of completion
order, full drain before exception propagation, serial mode semantically
identical to parallel.  The trainer's contract: lockstep determinism —
identical shards on a power-of-two replica count stay bit-identical to a
single replica, and the serial and threaded executors produce the same
bits.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.nn import softmax_cross_entropy
from repro.runtime.parallel import (
    BACKENDS,
    MultiReplicaExecutor,
    ParallelDataParallelTrainer,
    ReplicaError,
    WorkerCrash,
    fork_supported,
    resolve_backend,
)

needs_fork = pytest.mark.skipif(
    not fork_supported(), reason="process backend needs the fork start method"
)

# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def test_results_in_replica_order_despite_reverse_completion():
    with MultiReplicaExecutor(4) as executor:
        def staggered(i):
            time.sleep(0.02 * (4 - i))  # replica 3 finishes first
            return i * 10

        assert executor.run(staggered) == [0, 10, 20, 30]


def test_serial_and_parallel_agree():
    fn = lambda i: (i, i * i)  # noqa: E731
    with MultiReplicaExecutor(
        5, backend="serial"
    ) as serial, MultiReplicaExecutor(5) as parallel:
        assert serial.run(fn) == parallel.run(fn)


def test_single_replica_degrades_to_serial():
    executor = MultiReplicaExecutor(1)
    assert executor.serial
    assert executor.run(lambda i: i + 1) == [1]


def test_needs_a_replica():
    with pytest.raises(ValueError):
        MultiReplicaExecutor(0)


def test_first_exception_in_id_order_propagates():
    with MultiReplicaExecutor(4) as executor:
        def explode(i):
            if i in (1, 3):
                raise RuntimeError(f"replica {i}")
            return i

        with pytest.raises(RuntimeError, match="replica 1"):
            executor.run(explode)


def test_all_replicas_drain_before_raising():
    """A failing replica must not abandon its siblings mid-flight."""
    finished = []
    lock = threading.Lock()
    with MultiReplicaExecutor(4) as executor:
        def work(i):
            if i == 0:
                raise RuntimeError("fast failure")
            time.sleep(0.03)
            with lock:
                finished.append(i)
            return i

        with pytest.raises(RuntimeError):
            executor.run(work)
    assert sorted(finished) == [1, 2, 3]


def test_runs_are_actually_concurrent():
    """All four replicas must be in flight at once (thread pool, not a loop)."""
    barrier = threading.Barrier(4, timeout=10)
    with MultiReplicaExecutor(4) as executor:
        assert executor.run(lambda i: barrier.wait() is not None) == [True] * 4


def test_executor_reusable_across_runs():
    with MultiReplicaExecutor(3) as executor:
        assert executor.run(lambda i: i) == [0, 1, 2]
        assert executor.run(lambda i: -i) == [0, -1, -2]


# ---------------------------------------------------------------------------
# The backend knob
# ---------------------------------------------------------------------------


def test_backend_resolution():
    assert BACKENDS == ("serial", "thread", "process")
    assert resolve_backend(4, None) == "thread"
    assert resolve_backend(4, "serial") == "serial"
    assert resolve_backend(4, "process") == "process"
    # One replica cannot overlap anything.
    assert resolve_backend(1, "process") == "serial"
    with pytest.raises(ValueError, match="unknown executor backend"):
        resolve_backend(4, "gpu")
    with pytest.raises(ValueError):
        MultiReplicaExecutor(2, backend="gpu")


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_share_the_run_contract(backend):
    if backend == "process" and not fork_supported():
        pytest.skip("needs fork")
    with MultiReplicaExecutor(3, backend=backend) as executor:
        assert executor.backend == backend
        assert executor.run(lambda i: i * 10) == [0, 10, 20]
        assert executor.run(lambda i: -i) == [0, -1, -2]  # reusable


@needs_fork
def test_process_results_in_replica_order_despite_reverse_completion():
    with MultiReplicaExecutor(3, backend="process") as executor:
        def staggered(i):
            time.sleep(0.02 * (3 - i))  # replica 2's child finishes first
            return (i, os.getpid())

        results = executor.run(staggered)
    assert [r[0] for r in results] == [0, 1, 2]
    pids = {r[1] for r in results}
    assert len(pids) == 3 and os.getpid() not in pids


@needs_fork
def test_process_first_error_in_id_order_after_draining(tmp_path):
    with MultiReplicaExecutor(4, backend="process") as executor:
        def work(i):
            if i in (1, 3):
                raise RuntimeError(f"replica {i} exploded")
            (tmp_path / f"done-{i}").write_text("x")
            return i

        with pytest.raises(ReplicaError) as exc_info:
            executor.run(work)
    assert exc_info.value.replica == 1
    assert exc_info.value.exc_type == "RuntimeError"
    assert "replica 1 exploded" in str(exc_info.value)
    # The healthy siblings drained to completion before the raise.
    assert (tmp_path / "done-0").exists()
    assert (tmp_path / "done-2").exists()


@needs_fork
def test_process_killed_child_surfaces_worker_crash():
    with MultiReplicaExecutor(3, backend="process") as executor:
        def die(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(WorkerCrash) as exc_info:
            executor.run(die)
    assert exc_info.value.replica == 1


@needs_fork
def test_process_closures_cross_fork_without_pickling():
    sentinel = {"value": 41}  # closures (even unpicklable ones) fork across

    def unpicklable(i, _lock=threading.Lock()):
        return sentinel["value"] + 1 + i

    with MultiReplicaExecutor(2, backend="process") as executor:
        assert executor.run(lambda i: unpicklable(i)) == [42, 43]


# ---------------------------------------------------------------------------
# Trainer lockstep determinism
# ---------------------------------------------------------------------------


def _make_trainer(n_replicas, **kwargs):
    from repro.nn import MLP
    from repro.optim import SGD

    return ParallelDataParallelTrainer(
        lambda device: MLP.create(6, [8], 4, device=device, seed=0),
        lambda: SGD(learning_rate=0.1),
        n_replicas,
        **kwargs,
    )


def _batch():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 6)).astype(np.float32)
    y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 8)]
    return x, y


def _loss(model, x, y):
    return softmax_cross_entropy(model(x), y)


def _loss_fn():
    return _loss


def _weight_bytes(model) -> bytes:
    from repro.optim.tree import tree_map

    chunks = []

    def grab(leaf):
        if hasattr(leaf, "numpy"):
            chunks.append(np.asarray(leaf.numpy()).tobytes())
        return leaf

    tree_map(grab, model)
    return b"|".join(chunks)


def _train(trainer, steps=3):
    x, y = _batch()
    shards = trainer.replicate_batch(x, y)
    loss_fn = _loss_fn()
    stats = None
    for _ in range(steps):
        stats = trainer.step(loss_fn, shards)
    return stats


def test_replicas_stay_bit_identical():
    trainer = _make_trainer(4)
    stats = _train(trainer)
    assert len(set(stats.losses)) == 1  # identical shards -> identical loss
    reference = _weight_bytes(trainer.models[0])
    for model in trainer.models[1:]:
        assert _weight_bytes(model) == reference
    trainer.shutdown()


def test_pod_matches_single_replica_bitwise():
    """Power-of-two averaging of identical gradients is exact in f32: the
    4-replica pod's weights equal a lone replica's, bit for bit."""
    pod = _make_trainer(4)
    single = _make_trainer(1)
    _train(pod)
    _train(single)
    assert _weight_bytes(pod.models[0]) == _weight_bytes(single.models[0])
    pod.shutdown()
    single.shutdown()


def test_serial_and_threaded_trainers_agree_bitwise():
    threaded = _make_trainer(4)
    serial = _make_trainer(4, backend="serial")
    threaded_stats = _train(threaded)
    serial_stats = _train(serial)
    assert _weight_bytes(threaded.models[0]) == _weight_bytes(serial.models[0])
    assert threaded_stats.losses == serial_stats.losses
    # The simulated clock merge is scheduling-independent too.
    assert threaded_stats.gradient_bytes == serial_stats.gradient_bytes
    threaded.shutdown()
    serial.shutdown()


def test_step_stats_surface():
    trainer = _make_trainer(2, pod_size=16)
    stats = _train(trainer, steps=1)
    assert trainer.pod.n_cores == 16  # pod decoupled from real replicas
    assert len(stats.losses) == 2
    assert len(stats.replica_compute_times) == 2
    assert len(stats.device_stats) == 2
    assert stats.gradient_bytes == sum(stats.grad_leaf_bytes)
    assert stats.gradient_bytes > 0
    assert stats.step_time == pytest.approx(
        stats.compute_time + stats.allreduce_time
    )
    assert stats.loss == pytest.approx(sum(stats.losses) / 2)
    total, per_core = trainer.throughput(stats, per_replica_batch=8)
    assert total == pytest.approx(per_core * 16)
    trainer.shutdown()


def test_async_compile_trainer_matches_sync_bitwise():
    sync = _make_trainer(2)
    async_ = _make_trainer(2, async_compile=True)
    _train(sync)
    _train(async_)
    async_.wait_for_compiles()
    assert _weight_bytes(async_.models[0]) == _weight_bytes(sync.models[0])
    stats = async_.async_stats()
    assert stats["submitted"] >= 1
    assert stats["failed"] == 0
    assert stats["compile_inflight"] == 0
    sync.shutdown()
    async_.shutdown()


def test_trainer_backend_knob():
    trainer = _make_trainer(2, backend="serial")
    assert trainer.backend == "serial"
    trainer.shutdown()
    with pytest.raises(ValueError, match="unknown"):
        _make_trainer(2, backend="mpi")


@needs_fork
def test_process_trainer_rejects_async_compile():
    with pytest.raises(ValueError, match="async_compile"):
        _make_trainer(2, backend="process", async_compile=True)


@needs_fork
def test_process_trainer_matches_thread_trainer_bitwise():
    proc = _make_trainer(4, backend="process")
    thread = _make_trainer(4, backend="thread")
    proc_stats = _train(proc)
    thread_stats = _train(thread)
    assert proc_stats.losses == thread_stats.losses
    assert proc_stats.device_stats == thread_stats.device_stats
    for replica in range(4):
        assert proc.weights_bytes(replica) == thread.weights_bytes(replica)
    proc.shutdown()
    thread.shutdown()


def test_worker_introspection_needs_process_backend():
    trainer = _make_trainer(2, backend="thread")
    with pytest.raises(ValueError, match="worker"):
        trainer.worker_pid(0)
    assert trainer.segment_names() == []
    trainer.shutdown()


def test_shard_count_is_checked():
    trainer = _make_trainer(2)
    x, y = _batch()
    with pytest.raises(ValueError):
        trainer.place_shards([(x, y)])
    with pytest.raises(ValueError):
        trainer.step(_loss_fn(), trainer.replicate_batch(x, y)[:1])
    trainer.shutdown()
