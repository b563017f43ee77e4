"""The eight workloads: set-up, one timed op, and the output checks.

Every workload is built from ``--seed`` (model weights and input values;
never shapes, iteration counts or op mix, so the work per op does not
depend on the seed), warms up inside ``__init__`` and then exposes

* ``op(i)``: run timed op ``i`` and return whether its output passed;
* ``counters()``: cumulative exact counts read before and after the timed
  ops (simulated clock, launches, materializations);
* ``finish()``: end-of-run checks and clean-up, returning failed checks.

A reference is never taken from the path under test: lazy and codegen
steps are compared with an eager run of the same seed, the eager steps
with a lazy run, the process backend with the serial trainer, gradients
with closed forms or central differences of the plain Python function,
and the self-check with a committed table of counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pickle
import resource
import statistics
import time

import numpy as np

import programs

#: Steps compared bit-for-bit with the reference run.
CHECKED_STEPS = 5
#: Pre-placed batches (or input sets) cycled by the timed ops.
N_BATCHES = 8
HERE = os.path.dirname(os.path.abspath(__file__))


def _batches(rng, batch: int, input_shape: tuple, classes: int) -> list:
    return [
        (
            rng.standard_normal((batch,) + input_shape).astype(np.float32),
            np.eye(classes, dtype=np.float32)[rng.integers(0, classes, batch)],
        )
        for _ in range(N_BATCHES)
    ]


@contextlib.contextmanager
def foreign_cache_entries(workload):
    """Count on ``workload`` the executables a reference run adds to the
    process-wide cache, so ``hlo.cache_entries`` can leave them out."""
    from repro.hlo import compiler

    before = compiler.cache_size()
    try:
        yield
    finally:
        workload.foreign_cache_entries = compiler.cache_size() - before


def _first_cycle_beats_last(losses: list) -> bool:
    """Training made progress: the last cycle over the batches has a lower
    mean loss than the first."""
    return statistics.fmean(losses[-N_BATCHES:]) < statistics.fmean(losses[:N_BATCHES])


class Workload:
    """What a workload need not define: no extra counters, no end-of-run
    check, no separately timed sweeps."""

    def counters(self) -> dict:
        return {}

    def finish(self) -> int:
        return 0

    def sweep_ms(self) -> dict:
        return {}


class TrainStep(Workload):
    """``training.train_step`` + ``float(loss)`` on one device."""

    #: name -> (model, device under test, reference device, warm-up steps)
    VARIANTS = {
        "lenet_eager": ("lenet", "eager", "lazy", 8),
        "lenet_lazy": ("lenet", "lazy", "eager", 8),
        "lenet_codegen": ("lenet", "codegen", "eager", 8),
        "mlp_tiny_lazy": ("mlp_tiny", "lazy", "eager", 40),
        "retrace_codegen": ("mlp_tiny", "codegen", "eager", 40),
    }

    def __init__(self, name: str, seed: int, tracer, traced: bool) -> None:
        from repro.training import loop as training_loop

        model_kind, device_kind, reference_kind, warmup = self.VARIANTS[name]
        self.training_loop = training_loop
        #: ``retrace_codegen`` builds a fresh SGD with a new learning rate
        #: every step; the rate is a trace constant, so every step misses.
        self.retrace = name == "retrace_codegen"
        rng = np.random.default_rng(seed)
        if model_kind == "lenet":
            self.batch = 32
            arrays = _batches(rng, self.batch, (28, 28, 1), 10)
        else:
            self.batch = 4
            arrays = _batches(rng, self.batch, (16,), 8)
        self.items_per_op = self.batch

        self.device, self.model, self.batches = self._place(
            model_kind, device_kind, seed, arrays
        )
        self.rates = self._rates(seed)
        self.optimizer = self._optimizer(self.rates)
        self.losses: list[float] = []
        self.step = 0
        self.warmup_ops = warmup
        self.failed = sum(not self.op(i) for i in range(warmup))
        # The reference runs after the warm-up, so that lowering, synthesis
        # and compilation are paid (and traced) on the path under test.
        with tracer.paused(), foreign_cache_entries(self):
            reference = self._run_reference(model_kind, reference_kind, seed, arrays)
        self.failed += sum(
            got != expected for got, expected in zip(self.losses, reference)
        )

    @staticmethod
    def _rates(seed: int):
        return np.random.default_rng([seed, 1])

    def _optimizer(self, rates):
        from repro.optim import SGD

        if self.retrace:
            return SGD(learning_rate=float(0.02 + 0.03 * rates.random()))
        return SGD(learning_rate=0.05)

    @staticmethod
    def _place(model_kind: str, device_kind: str, seed: int, arrays: list):
        from repro.nn import MLP, LeNet
        from repro.tensor import Tensor, eager_device, lazy_device

        if device_kind == "eager":
            device = eager_device()
        else:
            device = lazy_device(codegen=device_kind == "codegen")
        if model_kind == "lenet":
            model = LeNet.create(device=device, seed=seed)
        else:
            model = MLP.create(16, [32, 32], 8, device=device, seed=seed)
        batches = [(Tensor(x, device), Tensor(y, device)) for x, y in arrays]
        return device, model, batches

    def _run_reference(self, model_kind, device_kind, seed, arrays) -> list:
        from repro.training import train_step

        device, model, batches = self._place(model_kind, device_kind, seed, arrays)
        rates = self._rates(seed)
        optimizer = self._optimizer(rates)
        losses = []
        for i in range(CHECKED_STEPS):
            if self.retrace and i > 0:
                optimizer = self._optimizer(rates)
            x, y = batches[i % N_BATCHES]
            losses.append(
                float(train_step(model, optimizer, programs.classifier_loss, x, y, device))
            )
        return losses

    def op(self, i: int) -> bool:
        if self.retrace and self.step > 0:
            self.optimizer = self._optimizer(self.rates)
        self.step += 1
        x, y = self.batches[i % N_BATCHES]
        loss = float(
            self.training_loop.train_step(
                self.model, self.optimizer, programs.classifier_loss, x, y, self.device
            )
        )
        self.losses.append(loss)
        return math.isfinite(loss)

    def counters(self) -> dict:
        stats = self.device.sim.stats
        return {
            "launches": stats.kernels_launched,
            "fused_kernels": stats.fused_kernels,
            "sim_s": self.device.elapsed,
            "materializations": self.device.trace_stats().get("materializations", 0),
        }

    def finish(self) -> int:
        return 0 if _first_cycle_beats_last(self.losses) else 1


class ScalarAD(Workload):
    """One round of ``value_and_gradient`` over the four tensor-free
    programs; the item is one gradient evaluation."""

    items_per_op = 4
    warmup_ops = 20

    def __init__(self, name: str, seed: int, tracer, traced: bool) -> None:
        from repro import core
        from repro.valsem import ValueArray

        self.core = core
        self.ValueArray = ValueArray
        rng = np.random.default_rng(seed)
        # Ranges keep every loop's trip count fixed: the power loop runs 5
        # times for x in (100**(1/5), 100**(1/4)), the accumulator switches
        # branch after 6 iterations for x*x in (0.5, 0.6).
        self.inputs = [
            {
                "x": float(rng.uniform(2.6, 3.1)),
                "z": float(rng.uniform(0.72, 0.75)),
                "angle": float(rng.uniform(0.50, 0.51)),
                "speed": float(rng.uniform(12.0, 12.1)),
                "values": [float(v) for v in rng.uniform(0.5, 1.5, 64)],
                "weights": [float(v) for v in rng.uniform(1.0, 2.0, 4)],
            }
            for _ in range(N_BATCHES)
        ]
        self.expected = [self._reference(entry) for entry in self.inputs]
        # Decoration (lowering) and the first plan are set-up, as they are
        # for a user who writes ``@differentiable``.
        self.power_loop = core.differentiable(programs.power_loop)
        self.accumulator = core.differentiable(programs.branchy_accumulator)
        self.landing = core.differentiable(programs.landing_distance)
        self.subscripts = core.differentiable(programs.subscript_sum)
        self.failed = 0
        for i in range(self.warmup_ops):
            self.failed += not self.op(i)

    @staticmethod
    def _central(f, x: float) -> float:
        h = 1e-5 * max(abs(x), 1.0)
        return (f(x + h) - f(x - h)) / (2.0 * h)

    def _reference(self, entry: dict) -> list:
        """Expected gradients, from closed forms where one exists and from
        central differences of the plain Python function otherwise."""
        x, z = entry["x"], entry["z"]
        trips = 0
        result = 1.0
        while result < 100.0:
            result *= x
            trips += 1
        angle, speed = entry["angle"], entry["speed"]
        weights = list(entry["weights"])
        weights[0] *= 0.5
        return [
            trips * x ** (trips - 1),
            self._central(programs.branchy_accumulator, z),
            self._central(
                lambda a: programs.landing_distance(programs.Launch(a, speed)), angle
            ),
            self._central(
                lambda s: programs.landing_distance(programs.Launch(angle, s)), speed
            ),
        ] + [
            2.0 * entry["values"][i] * weights[i % 4] if i < 16 else 0.0
            for i in range(64)
        ]

    def op(self, i: int) -> bool:
        entry = self.inputs[i % N_BATCHES]
        gradient = self.core.value_and_gradient
        _, d_power = gradient(self.power_loop, entry["x"])
        _, d_accumulator = gradient(self.accumulator, entry["z"])
        _, d_launch = gradient(
            self.landing, programs.Launch(entry["angle"], entry["speed"])
        )
        _, d_values = gradient(
            self.subscripts,
            self.ValueArray(entry["values"]),
            self.ValueArray(entry["weights"]),
            wrt=0,
        )
        got = [d_power, d_accumulator, d_launch.angle, d_launch.speed] + [
            v if isinstance(v, float) else 0.0 for v in d_values
        ]
        return all(
            abs(g - e) <= 1e-6 * max(abs(e), 1e-3)
            for g, e in zip(got, self.expected[i % N_BATCHES])
        )


class DataParallel(Workload):
    """One lockstep step of two forked replicas exchanging gradients
    through shared memory; the item is one sample."""

    n_replicas = 2
    batch = 64
    warmup_ops = 20
    #: Serial steps timed as the single-worker baseline (traced runs).
    BASELINE_STEPS = 100
    serial_step_ms = 0.0

    def __init__(self, name: str, seed: int, tracer, traced: bool) -> None:
        from repro.nn import MLP
        from repro.optim import SGD
        from repro.runtime.parallel import ParallelDataParallelTrainer

        self.items_per_op = self.n_replicas * self.batch
        rng = np.random.default_rng(seed)
        shards = _batches(rng, self.batch, (784,), 10)[: self.n_replicas]

        def build(device):
            return MLP.create(784, [256, 128], 10, device=device, seed=seed)

        def make(backend):
            return ParallelDataParallelTrainer(
                build, lambda: SGD(learning_rate=0.05), self.n_replicas, backend=backend
            )

        self.trainer = make("process")
        self.shards = self.trainer.place_shards(shards)
        self.pickled_bytes = sum(
            len(pickle.dumps(("step", {"x": x, "y": y, "loss_fn": programs.classifier_loss})))
            + len(pickle.dumps(("apply", None)))
            for x, y in self.shards
        )
        self.losses: list[float] = []
        self.stats = None
        self.traced = traced
        try:
            checked = []
            self.failed = 0
            for i in range(self.warmup_ops):
                self.failed += not self.op(i)
                checked.append(self.stats.losses)
            with tracer.paused(), foreign_cache_entries(self):
                self.serial = make("serial")
                self.serial_shards = self.serial.place_shards(shards)
                reference = [
                    self.serial.step(programs.classifier_loss, self.serial_shards).losses
                    for _ in range(CHECKED_STEPS)
                ]
        except BaseException:
            self.trainer.shutdown()
            raise
        self.failed += sum(
            got != expected for got, expected in zip(checked, reference)
        )

    def op(self, i: int) -> bool:
        self.stats = self.trainer.step(programs.classifier_loss, self.shards)
        loss = self.stats.loss
        self.losses.append(loss)
        return math.isfinite(loss)

    def counters(self) -> dict:
        stats = self.stats
        return {
            "launches": sum(d.kernels_launched for d in stats.device_stats),
            "fused_kernels": sum(d.fused_kernels for d in stats.device_stats),
        }

    def finish(self) -> int:
        from repro.runtime.parallel import registered_segments

        self.gradient_bytes = self.stats.gradient_bytes
        self.sim_step_us = self.stats.step_time * 1e6
        self.shm_segments = len(self.trainer.segment_names())
        self.trainer.shutdown()
        self.leaked_segments = len(registered_segments())
        # The workers have been reaped, so their peak is final.
        self.children_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        if self.traced:
            # The single-worker baseline runs last, with the machine to
            # itself.  Run before the timed ops, its second of driver CPU
            # left both idle workers on one core, and the next 2.5 s of
            # process steps took 11.5 ms, not 6.3 ms.
            walls = []
            for _ in range(self.BASELINE_STEPS):
                start = time.perf_counter()
                self.serial.step(programs.classifier_loss, self.serial_shards)
                walls.append(time.perf_counter() - start)
            self.serial_step_ms = statistics.median(walls) * 1e3
        self.serial.shutdown()
        return (self.leaked_segments > 0) + (self.losses[-1] >= self.losses[0])


class AnalysisSelfCheck(Workload):
    """One in-process ``repro.analysis.self_check()``: time to a verdict
    whose every count has a known answer (``expected.json``, taken with
    ``repro.nn`` imported, as ``programs`` does: its primitives are swept)."""

    items_per_op = 1
    warmup_ops = 1
    SWEEPS = ("trace", "derivatives", "concurrency", "memory", "precision", "codegen")

    def __init__(self, name: str, seed: int, tracer, traced: bool) -> None:
        from repro.analysis import selfcheck

        self.selfcheck = selfcheck
        with open(os.path.join(HERE, "expected.json")) as handle:
            self.expected = json.load(handle)
        self.checks_passed = 0
        self.failed = 0
        for i in range(self.warmup_ops):
            self.failed += not self.op(i)

    def op(self, i: int) -> bool:
        report = self.selfcheck.self_check()
        counts = report.to_json()
        del counts["failures"], counts["ok"]
        self.checks_passed = sum(
            v for k, v in counts.items() if k != "narrow_peak_bytes_saved"
        )
        return report.ok and counts == self.expected

    def sweep_ms(self) -> dict:
        """Median wall time of each analysis sweep run on its own, through
        the CLI's ``main`` with its output captured."""
        from repro.analysis.__main__ import main

        result = {}
        for sweep in self.SWEEPS:
            walls = []
            for _ in range(3):
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([f"--{sweep}", "all", "--json"])
                walls.append(time.perf_counter() - start)
                self.failed += code != 0
            result[sweep] = statistics.median(walls) * 1e3
        return result


WORKLOADS = {
    **{name: TrainStep for name in TrainStep.VARIANTS},
    "scalar_ad": ScalarAD,
    "dp2_process": DataParallel,
    "analysis_selfcheck": AnalysisSelfCheck,
}
