"""Synchronous data-parallel training with *every* replica running for real.

``n_replicas`` lazy devices each run real forward+backward numerics
concurrently, gradients are all-reduced (averaged) in fixed replica
order, and every replica applies the identical averaged gradient —
exactly the lockstep the paper's TPU pods execute.  ``pod_size`` prices
the all-reduce for a larger simulated pod, so ``n_replicas=1`` with
``pod_size=n`` is one representative replica standing for ``n`` identical
ones (exact under synchronous SGD on identical shards).

Three backends share one step contract (``backend=`` knob, resolved by
:func:`~repro.runtime.parallel.executor.resolve_backend`):

* ``serial``/``thread`` — replicas live in this process; the executor
  overlaps them (or not) and the merge runs host-side in
  :func:`_average_leaves`;
* ``process`` — replicas live in forked worker processes
  (:class:`~repro.runtime.parallel.process.ReplicaWorkerPool`), each
  owning its device/model/optimizer, and gradients cross the address
  spaces through :class:`~repro.runtime.parallel.shm.GradientExchange`
  shared-memory views — zero-copy, no gradient byte ever pickled.  The
  driver reduces in place over the mapped views with the *same*
  replica-ordered sum-then-scale, so all three backends produce
  bit-identical losses, averaged gradients, and post-step weights (the
  differential harness pins this).

Determinism: all cross-replica merges happen in replica-id order (loss
list, gradient sum, simulated-clock ``max``), so results and timings are
bit-identical run to run regardless of host scheduling.  With a
power-of-two replica count and identical shards, the averaged gradient
is bit-identical to a single replica's (f32 addition of equal values and
division by 2^k are exact), which the differential tests pin down.

Crash-cleanup invariant (process backend): a step that fails for *any*
reason — a replica raising, a worker dying, even ``SIGKILL`` mid-step —
tears the gradient exchange down before the exception reaches the
caller, so no shared-memory segment outlives a failed step.  The next
``step()`` respawns dead workers, restores them from a live survivor's
snapshot, and builds a fresh exchange: the trainer stays usable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim.tree import tangent_leaf_sizes, tree_map
from repro.runtime.cluster import PodSimulator, StepTiming
from repro.runtime.costmodel import (
    S4TF_LAZY,
    TPU_V3_CORE,
    AllReduceConfig,
    DeviceProfile,
    EngineProfile,
)
from repro.runtime.device import DeviceStats
from repro.runtime.parallel.executor import MultiReplicaExecutor, resolve_backend
from repro.runtime.parallel.shm import GradientExchange, LeafSpec, WorkerAttachment


@dataclass
class ParallelStepStats:
    """One synchronous step as observed across the whole pod."""

    losses: List[float]
    replica_compute_times: List[float]
    timing: StepTiming
    gradient_bytes: int
    #: Per-leaf gradient bytes in parameter traversal order (reverse of
    #: backward production order) — the bucketing input.
    grad_leaf_bytes: List[int] = field(default_factory=list)
    device_stats: List[DeviceStats] = field(default_factory=list)
    async_compile: dict = field(default_factory=dict)
    #: The merged gradient leaves every replica applied (f32 arrays /
    #: floats, in tangent traversal order) — what the differential
    #: harness compares bit-for-bit across backends.
    averaged_leaves: list = field(default_factory=list)

    @property
    def loss(self) -> float:
        """Pod loss (replica mean, accumulated in replica order)."""
        total = 0.0
        for value in self.losses:
            total += value
        return total / len(self.losses)

    @property
    def compute_time(self) -> float:
        return self.timing.compute_time

    @property
    def allreduce_time(self) -> float:
        return self.timing.allreduce_time

    @property
    def step_time(self) -> float:
        return self.timing.total


class ParallelDataParallelTrainer:
    """Train ``n_replicas`` real model replicas in lockstep.

    ``build_model(device)`` must be deterministic in the device (same
    seed per replica) so replicas start identical, as a synchronously
    initialized pod does.  When ``async_compile`` is true the replicas
    share one fresh :class:`AsyncCompiler`, so a cold trace is compiled
    once in the background while every replica falls back to op-by-op
    execution — no replica ever stalls on the JIT.

    ``backend="process"`` forks the replicas into worker processes at
    construction time: ``build_model``/``optimizer_factory`` may be any
    closure (inherited through fork), but ``loss_fn`` passed to
    :meth:`step` must be picklable by reference (module level) because
    it rides the command pipe each step.  ``async_compile`` is
    incompatible with the process backend (the compiler's threads cannot
    span address spaces).
    """

    def __init__(
        self,
        build_model: Callable,
        optimizer_factory: Callable,
        n_replicas: int,
        profile: Optional[DeviceProfile] = None,
        engine: Optional[EngineProfile] = None,
        allreduce: Optional[AllReduceConfig] = None,
        async_compile=False,
        device_kind: str = "lazy",
        pod_size: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.hlo.compiler import AsyncCompiler
        from repro.tensor.device import Device

        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.n_replicas = n_replicas
        self.profile = profile or TPU_V3_CORE
        self.engine = engine or S4TF_LAZY
        self.backend = resolve_backend(n_replicas, backend)
        if self.backend == "process" and async_compile:
            raise ValueError(
                "backend='process' is incompatible with async_compile: the "
                "background compiler's threads cannot span worker processes"
            )
        if async_compile is True:
            self.compiler: Optional[AsyncCompiler] = AsyncCompiler()
        elif isinstance(async_compile, AsyncCompiler):
            self.compiler = async_compile
        else:
            self.compiler = None
        # ``pod_size`` decouples the simulated pod from the number of real
        # replicas: a 128-core pod can be driven by (say) 4 real replicas
        # when running all 128 would be infeasible on the host.
        self.pod = PodSimulator(self.profile, pod_size or n_replicas, allreduce)
        if self.backend == "process":
            from repro.runtime.parallel.process import ReplicaWorkerPool

            # Replica state (device, model, optimizer) lives only in the
            # workers; the factory and its closures cross via fork.
            profile_, engine_ = self.profile, self.engine

            def factory(replica: int) -> "_ProcessReplicaState":
                return _ProcessReplicaState(
                    replica,
                    build_model,
                    optimizer_factory,
                    profile_,
                    engine_,
                    device_kind,
                )

            self.devices: list = []
            self.models: list = []
            self.optimizers: list = []
            self.executor: Optional[MultiReplicaExecutor] = None
            self.pool = ReplicaWorkerPool(n_replicas, factory)
            self._exchange: Optional[GradientExchange] = None
            return
        kwargs = {}
        if device_kind == "lazy":
            kwargs["async_compile"] = self.compiler or False
        self.devices = [
            Device(
                device_kind,
                self.profile,
                self.engine,
                name=f"replica:{i}",
                **kwargs,
            )
            for i in range(n_replicas)
        ]
        self.models = [build_model(device) for device in self.devices]
        self.optimizers = [optimizer_factory() for _ in range(n_replicas)]
        self.executor = MultiReplicaExecutor(n_replicas, backend=self.backend)
        self.pool = None
        self._exchange = None

    # -- batch placement -----------------------------------------------------

    def place_shards(self, shards: Sequence[Tuple]) -> List[Tuple]:
        """Place per-replica ``(x, y)`` arrays on their replica's device.

        Under ``backend="process"`` the driver holds no devices; shards
        stay host arrays and each worker places its own on arrival.
        """
        from repro.tensor.tensor import Tensor

        if len(shards) != self.n_replicas:
            raise ValueError(
                f"got {len(shards)} shards for {self.n_replicas} replicas"
            )
        if self.backend == "process":
            return [(np.asarray(x), np.asarray(y)) for x, y in shards]
        return [
            (Tensor(x, device), Tensor(y, device))
            for (x, y), device in zip(shards, self.devices)
        ]

    def replicate_batch(self, x, y) -> List[Tuple]:
        """The same batch on every replica (for bit-identity tests)."""
        return self.place_shards([(x, y)] * self.n_replicas)

    # -- the synchronous step ------------------------------------------------

    def step(self, loss_fn: Callable, shards: Sequence[Tuple]) -> ParallelStepStats:
        """One lockstep training step over per-replica ``(x, y)`` tensors."""
        from repro.core import value_and_gradient

        if len(shards) != self.n_replicas:
            raise ValueError(
                f"got {len(shards)} shards for {self.n_replicas} replicas"
            )
        if self.backend == "process":
            return self._step_process(loss_fn, shards)

        def forward_backward(i: int):
            device = self.devices[i]
            x, y = shards[i]
            start = device.elapsed
            loss, gradient = value_and_gradient(
                loss_fn, self.models[i], x, y, wrt=0
            )
            leaves = _tangent_leaves(gradient)
            values = _materialize(device, [loss] + _tensor_leaves(leaves))
            device.sync()
            loss_value = float(np.asarray(values[0]).reshape(()))
            grad_values = _leaf_values(leaves, values[1:])
            return loss_value, gradient, grad_values, device.elapsed - start

        passes = self.executor.run(forward_backward)
        losses = [p[0] for p in passes]
        gradient_trees = [p[1] for p in passes]
        forward_times = [p[3] for p in passes]

        # Host-side all-reduce: sum in replica order, then scale — the
        # deterministic merge every replica receives identically.
        averaged = _average_leaves([p[2] for p in passes])

        def apply_update(i: int) -> float:
            device = self.devices[i]
            start = device.elapsed
            averaged_tree = _rebuild(gradient_trees[i], averaged, device)
            self.optimizers[i].update(self.models[i], averaged_tree)
            if device.kind == "lazy":
                from repro.tensor import LazyTensorBarrier

                LazyTensorBarrier(device)
            device.sync()
            return device.elapsed - start

        update_times = self.executor.run(apply_update)
        compute_times = [f + u for f, u in zip(forward_times, update_times)]

        leaf_sizes = tangent_leaf_sizes(gradient_trees[0])
        gradient_bytes = sum(leaf_sizes)
        timing = self.pod.step_time_multi(
            compute_times,
            gradient_bytes,
            # Backward produces gradients output-to-input: reverse of the
            # parameter traversal order, which is what bucketing sees.
            grad_leaf_bytes=list(reversed(leaf_sizes)),
        )
        stats = ParallelStepStats(
            losses=losses,
            replica_compute_times=compute_times,
            timing=timing,
            gradient_bytes=gradient_bytes,
            grad_leaf_bytes=leaf_sizes,
            device_stats=[
                dataclasses.replace(device.sim.stats) for device in self.devices
            ],
            averaged_leaves=list(averaged),
        )
        if self.compiler is not None:
            stats.async_compile = self.compiler.stats_dict()
        return stats

    # -- the process-backed step ---------------------------------------------

    def _step_process(
        self, loss_fn: Callable, shards: Sequence[Tuple]
    ) -> ParallelStepStats:
        """The same lockstep over forked workers and shared-memory slots.

        Phases (each an ordered ``gather`` that drains every live worker
        before raising): ``step`` — workers run forward+backward and
        publish gradient leaves into their slots; driver ``reduce_mean``
        — in-place replica-ordered merge over the mapped views;
        ``apply`` — workers read the averaged leaves back and update.
        Any failure anywhere tears the exchange down (segments never
        survive a failed step) and the exception propagates in replica-id
        order; :meth:`_ensure_workers` heals the pool on the next call.
        """
        self._ensure_workers()
        payloads = [
            {"x": x, "y": y, "loss_fn": loss_fn} for x, y in shards
        ]
        try:
            passes = self.pool.gather("step", payloads)
            losses = [p[0] for p in passes]
            forward_times = [p[1] for p in passes]
            layouts = [p[2] for p in passes]
            specs = layouts[0]["specs"]
            for i in range(1, self.n_replicas):
                if layouts[i]["specs"] != specs:
                    raise RuntimeError(
                        f"replica {i} produced a different gradient layout "
                        "than replica 0 — replicas must be identical"
                    )
            leaf_sizes = layouts[0]["leaf_sizes"]
            if self._exchange is not None and self._exchange.specs != specs:
                self._teardown_exchange()
            if self._exchange is None:
                # Driver creates (and alone may unlink) the segments;
                # workers attach and flush the leaves they were holding.
                self._exchange = GradientExchange(self.n_replicas, specs)
                self.pool.gather(
                    "attach",
                    [
                        self._exchange.worker_payload(i)
                        for i in range(self.n_replicas)
                    ],
                )
            self._exchange.reduce_mean()
            averaged = self._exchange.averaged()
            applies = self.pool.gather("apply", [None] * self.n_replicas)
        except BaseException:
            # The crash-cleanup invariant: no segment survives a failed
            # step, whatever the failure mode.
            self._teardown_exchange()
            raise
        update_times = [a[0] for a in applies]
        device_stats = [a[1] for a in applies]
        compute_times = [f + u for f, u in zip(forward_times, update_times)]
        gradient_bytes = sum(leaf_sizes)
        timing = self.pod.step_time_multi(
            compute_times,
            gradient_bytes,
            grad_leaf_bytes=list(reversed(leaf_sizes)),
        )
        return ParallelStepStats(
            losses=losses,
            replica_compute_times=compute_times,
            timing=timing,
            gradient_bytes=gradient_bytes,
            grad_leaf_bytes=leaf_sizes,
            device_stats=device_stats,
            averaged_leaves=averaged,
        )

    def _ensure_workers(self) -> None:
        """Respawn dead workers, restoring state from a live survivor.

        A respawned worker starts from the deterministic initial state;
        when any sibling survived, the lowest-id survivor's snapshot
        (weights + optimizer state) is restored into each respawn so the
        pod stays in lockstep.  Attachments are stale after any death, so
        the exchange is torn down and rebuilt on the next step.
        """
        dead = self.pool.dead_replicas()
        if not dead:
            return
        self._teardown_exchange()
        survivors = [i for i in range(self.n_replicas) if i not in dead]
        for i in dead:
            self.pool.respawn(i)
        if survivors:
            snapshot = self.pool.request(survivors[0], "snapshot")
            for i in dead:
                self.pool.request(i, "restore", snapshot)

    def _teardown_exchange(self) -> None:
        if self._exchange is not None:
            exchange, self._exchange = self._exchange, None
            exchange.unlink()

    # -- introspection (all backends) ----------------------------------------

    def weights_bytes(self, replica: int) -> bytes:
        """A deterministic byte serialization of one replica's weights —
        the cross-backend bit-identity probe."""
        if self.backend == "process":
            return self.pool.request(replica, "weights")
        return _model_weight_bytes(self.models[replica])

    def worker_pid(self, replica: int) -> int:
        """The worker process id (process backend only; fault tests)."""
        if self.backend != "process":
            raise ValueError(f"backend {self.backend!r} has no worker processes")
        return self.pool.request(replica, "pid")

    def segment_names(self) -> List[str]:
        """Live shared-memory segment names (empty unless a process-backend
        exchange is currently established)."""
        if self._exchange is None:
            return []
        return self._exchange.segment_names()

    # -- reporting -----------------------------------------------------------

    def throughput(
        self, stats: ParallelStepStats, per_replica_batch: int
    ) -> Tuple[float, float]:
        """(global examples/s, per-core examples/s) for a measured step."""
        n_cores = self.pod.n_cores
        total = n_cores * per_replica_batch / stats.step_time
        return total, total / n_cores

    def async_stats(self) -> dict:
        return self.compiler.stats_dict() if self.compiler is not None else {}

    def wait_for_compiles(self) -> None:
        if self.compiler is not None:
            self.compiler.wait()

    def shutdown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
        if self.pool is not None:
            self.pool.shutdown()
        self._teardown_exchange()


# -- worker-side replica state (process backend) ------------------------------


class _TensorLeaf:
    """Picklable stand-in for a tensor leaf inside a state snapshot."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


class _ProcessReplicaState:
    """One replica's device/model/optimizer, living inside a forked worker.

    Serves the trainer's commands (see
    :class:`~repro.runtime.parallel.process.ReplicaWorkerPool`): ``step``
    runs forward+backward with the exact thread-path numerics and
    publishes the f32 gradient leaves into this replica's shared-memory
    slots; ``apply`` reads the averaged leaves back and updates; the
    ``snapshot``/``restore`` pair moves weights + optimizer state into a
    freshly respawned sibling after a crash.
    """

    def __init__(
        self,
        replica: int,
        build_model: Callable,
        optimizer_factory: Callable,
        profile,
        engine,
        device_kind: str,
    ) -> None:
        from repro.tensor.device import Device

        self.replica = replica
        kwargs = {"async_compile": False} if device_kind == "lazy" else {}
        self.device = Device(
            device_kind,
            profile,
            engine,
            name=f"replica:{replica}",
            **kwargs,
        )
        self.model = build_model(self.device)
        self._optimizer_factory = optimizer_factory
        self.optimizer = optimizer_factory()
        self.attachment: Optional[WorkerAttachment] = None
        self._pending_leaves: Optional[list] = None
        self._last_gradient = None
        self._placed: Optional[tuple] = None

    def handle(self, command: str, payload):
        if command == "step":
            return self._step(payload["x"], payload["y"], payload["loss_fn"])
        if command == "attach":
            return self._attach(payload)
        if command == "apply":
            return self._apply()
        if command == "weights":
            return _model_weight_bytes(self.model)
        if command == "snapshot":
            return self._snapshot()
        if command == "restore":
            return self._restore(payload)
        if command == "pid":
            import os

            return os.getpid()
        raise ValueError(f"unknown replica command {command!r}")

    def _place(self, x, y) -> tuple:
        """This replica's batch tensors, reusing the previous placement
        when the arrays are unchanged — mirroring the in-process trainer,
        where ``replicate_batch`` places once and ``step`` reuses, so the
        simulated clock charges batch upload once, not per step."""
        from repro.tensor.tensor import Tensor

        if self._placed is not None:
            px, py, xt, yt = self._placed
            if (
                px.shape == x.shape
                and px.dtype == x.dtype
                and py.shape == y.shape
                and py.dtype == y.dtype
                and np.array_equal(px, x)
                and np.array_equal(py, y)
            ):
                return xt, yt
        xt, yt = Tensor(x, self.device), Tensor(y, self.device)
        self._placed = (x, y, xt, yt)
        return xt, yt

    def _step(self, x, y, loss_fn: Callable):
        from repro.core import value_and_gradient

        device = self.device
        xt, yt = self._place(x, y)
        start = device.elapsed
        loss, gradient = value_and_gradient(loss_fn, self.model, xt, yt, wrt=0)
        leaves = _tangent_leaves(gradient)
        values = _materialize(device, [loss] + _tensor_leaves(leaves))
        device.sync()
        loss_value = float(np.asarray(values[0]).reshape(()))
        grad_values = _leaf_values(leaves, values[1:])
        forward_time = device.elapsed - start
        self._last_gradient = gradient
        # Always hold the leaves: if the driver replaced the exchange
        # (first step, post-crash rebuild), this replica's attachment is
        # stale or absent and the upcoming "attach" must flush them into
        # the *new* segments.
        self._pending_leaves = grad_values
        if self.attachment is not None:
            self.attachment.write_leaves(grad_values)
        layout = {
            "specs": [LeafSpec.for_value(v) for v in grad_values],
            "leaf_sizes": tangent_leaf_sizes(gradient),
        }
        return loss_value, forward_time, layout

    def _attach(self, payload) -> None:
        if self.attachment is not None:
            self.attachment.close()
        self.attachment = WorkerAttachment(payload)
        if self._pending_leaves is not None:
            self.attachment.write_leaves(self._pending_leaves)
            self._pending_leaves = None

    def _apply(self):
        if self.attachment is None:
            raise RuntimeError("apply before attach: no exchange established")
        device = self.device
        start = device.elapsed
        averaged = self.attachment.read_averaged()
        averaged_tree = _rebuild(self._last_gradient, averaged, device)
        self.optimizer.update(self.model, averaged_tree)
        if device.kind == "lazy":
            from repro.tensor import LazyTensorBarrier

            LazyTensorBarrier(device)
        device.sync()
        return (
            device.elapsed - start,
            dataclasses.replace(device.sim.stats),
        )

    def _snapshot(self) -> dict:
        """Weights + optimizer state for restoring a respawned sibling.

        The model crosses as its checkpoint ``state_dict`` (path-keyed
        ndarrays); optimizer state attrs are tangent trees, so their
        tensor leaves ride as :class:`_TensorLeaf` markers.
        """
        from repro.nn.checkpoint import state_dict

        def encode(leaf):
            if _is_tensor(leaf):
                return _TensorLeaf(np.array(leaf.numpy(), copy=True))
            return leaf

        return {
            "model": state_dict(self.model),
            "optimizer": {
                name: tree_map(encode, value)
                for name, value in vars(self.optimizer).items()
            },
        }

    def _restore(self, snapshot: dict) -> None:
        from repro.nn.checkpoint import load_state_dict
        from repro.tensor.tensor import Tensor

        def decode(leaf):
            if isinstance(leaf, _TensorLeaf):
                return Tensor(leaf.array, self.device)
            return leaf

        load_state_dict(self.model, snapshot["model"])
        self.optimizer = self._optimizer_factory()
        for name, value in snapshot["optimizer"].items():
            setattr(self.optimizer, name, tree_map(decode, value))
        self._last_gradient = None
        self._pending_leaves = None
        if self.attachment is not None:
            self.attachment.close()
            self.attachment = None

    def close(self) -> None:
        if self.attachment is not None:
            self.attachment.close()
            self.attachment = None


# -- tangent-tree plumbing ---------------------------------------------------


def _tangent_leaves(tree) -> list:
    """Non-ZERO leaves in :func:`tree_map` traversal order."""
    leaves: list = []

    def visit(leaf):
        leaves.append(leaf)
        return leaf

    tree_map(visit, tree)
    return leaves


def _is_tensor(leaf) -> bool:
    return hasattr(leaf, "_impl") and hasattr(leaf, "device")


def _tensor_leaves(leaves: Sequence) -> list:
    return [leaf for leaf in leaves if _is_tensor(leaf)]


def _materialize(device, tensors: Sequence) -> list:
    """Observe many tensors in one materialization (one fused fragment)."""
    if device.kind == "lazy":
        return device.runtime.materialize([t._impl for t in tensors])
    return [t.numpy() for t in tensors]


def _leaf_values(leaves: Sequence, tensor_values: Sequence) -> list:
    """Align materialized arrays back onto the full leaf list (floats pass
    through unchanged)."""
    values = []
    it = iter(tensor_values)
    for leaf in leaves:
        if _is_tensor(leaf):
            values.append(np.asarray(next(it), dtype=np.float32))
        else:
            values.append(float(leaf))
    return values


def _average_leaves(replica_values: Sequence[Sequence]) -> list:
    """Leafwise mean across replicas, accumulated in replica-id order.

    Sum-then-scale keeps the merge deterministic and, for power-of-two
    replica counts with identical addends, exact in f32.
    :meth:`~repro.runtime.parallel.shm.GradientExchange.reduce_mean` is
    the shared-memory mirror of this merge; the two must stay
    bit-compatible (the determinism analysis probes both).
    """
    n = len(replica_values)
    averaged = []
    for j in range(len(replica_values[0])):
        first = replica_values[0][j]
        if isinstance(first, float):
            acc = first
            for r in range(1, n):
                acc += replica_values[r][j]
            averaged.append(acc / n)
        else:
            acc = np.array(first, dtype=np.float32, copy=True)
            for r in range(1, n):
                np.add(acc, replica_values[r][j], out=acc)
            np.multiply(acc, np.float32(1.0 / n), out=acc)
            averaged.append(acc)
    return averaged


def _rebuild(tree, leaf_values: Sequence, device):
    """A tangent tree congruent to ``tree`` with ``leaf_values`` leaves,
    tensor leaves placed on ``device``."""
    from repro.tensor.tensor import Tensor

    it = iter(leaf_values)

    def place(leaf):
        value = next(it)
        if _is_tensor(leaf):
            return Tensor(value, device)
        return value

    return tree_map(place, tree)


def _model_weight_bytes(model) -> bytes:
    """Deterministic byte serialization of a model's parameters (its
    checkpoint ``state_dict`` in sorted path order) — the cross-backend
    and cross-process bit-identity probe."""
    from repro.nn.checkpoint import state_dict

    state = state_dict(model)
    return b"|".join(
        key.encode() + b"=" + np.ascontiguousarray(state[key]).tobytes()
        for key in sorted(state)
    )
