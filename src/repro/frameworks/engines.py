"""Baseline execution engines replaying a captured step program.

Each engine models one runtime discipline from the paper's comparisons:

* :class:`OpByOpEngine` — unfused op-by-op execution: the host pays a
  per-op cost before each kernel launch and runs ahead of the device.
  Define-by-run eager execution (PyTorch-style with a fast core,
  TF-Eager-style with a heavier one, mobile interpreters with very heavy
  ones) and a pre-built graph walked node by node (classic TF graph
  executor / TF-Mobile, TFLite's standard-op path: no per-step tracing,
  but per-node overhead and no fusion) are this engine under different
  profiles.
* :class:`FusedJitEngine` — whole-program compilation: pay JIT once (per
  program/shape), then run the fused executable with only a small fixed
  per-step entry cost (XLA-backed TF graphs, JAX ``jit``, TFLite's fused
  custom op).

Numerics are identical across engines (same kernels, same program).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hlo.compiler import Executable
from repro.hlo.passes import optimize
from repro.runtime.costmodel import DeviceProfile, EngineProfile
from repro.runtime.device import SimDevice
from repro.frameworks.capture import StepProgram


@dataclass
class StepTiming:
    host_time: float
    device_time: float
    elapsed: float


class _EngineBase:
    def __init__(
        self,
        program: StepProgram,
        engine: EngineProfile,
        device_profile: DeviceProfile,
        efficiency: float = 1.0,
    ) -> None:
        self.program = program
        self.engine = engine
        self.device = SimDevice(device_profile)
        #: Runtime maturity factor (the paper's Table 2 caveat: "some
        #: codebases have been better optimized for benchmark purposes").
        self.efficiency = efficiency
        self.host_time = 0.0
        self.steps_run = 0

    def reset(self) -> None:
        self.host_time = 0.0
        self.steps_run = 0
        self.device.reset()

    def _advance_device(self, executable: Executable, start: float) -> float:
        """Execute on the simulated device; returns device completion."""
        before = self.device.busy_until
        executable.run(self.program.example_args, self.device, start)
        span = self.device.busy_until - max(before, start)
        # Efficiency scales device-side time (runtime maturity).
        self.device.busy_until = max(before, start) + span / self.efficiency
        return self.device.busy_until

    def step(self) -> StepTiming:
        raise NotImplementedError

    def steady_state_step_time(self, warmup: int = 1, measure: int = 3) -> float:
        """Simulated seconds per step after warm-up."""
        self.reset()
        for _ in range(warmup):
            self.step()
        start = max(self.host_time, self.device.busy_until)
        for _ in range(measure):
            self.step()
        end = max(self.host_time, self.device.busy_until)
        return (end - start) / measure


class OpByOpEngine(_EngineBase):
    """Unfused, op by op: the host pays a per-op cost for every kernel.

    Define-by-run eager dispatch and a pre-built graph walked node by node
    differ only in the engine profile that prices each op (``TORCH_LIKE``
    vs ``TF_GRAPH``, say); neither fuses.
    """

    def __init__(self, program, engine, device_profile, efficiency=1.0):
        super().__init__(program, engine, device_profile, efficiency)
        module = program.to_module()
        optimize(module, fuse=False)
        self.executable = Executable(module)

    def step(self) -> StepTiming:
        start_host = self.host_time
        # The host dispatches each op, paying the framework's per-op cost;
        # kernels queue asynchronously behind the dispatch front.
        self.host_time += self.engine.per_step_overhead
        self.host_time += self.engine.per_op_overhead * self.executable.kernel_count
        device_done = self._advance_device(self.executable, start_host)
        self.steps_run += 1
        elapsed = max(self.host_time, device_done)
        return StepTiming(self.host_time - start_host, device_done, elapsed)


class LazyTraceEngine(_EngineBase):
    """S4TF LazyTensor discipline in engine form (for symmetric tables).

    Every step re-traces the program (paying per-op tracing cost — the
    Section 3.4 overhead), hits the compile cache after the first step, and
    executes the fused program.
    """

    def __init__(self, program, engine, device_profile, efficiency=1.0):
        super().__init__(program, engine, device_profile, efficiency)
        module = program.to_module()
        self.traced_op_count = program.op_count
        optimize(module, fuse=True)
        self.executable = Executable(module)
        self.compiled = False

    def step(self) -> StepTiming:
        start_host = self.host_time
        # Re-tracing happens every iteration.
        self.host_time += self.engine.trace_op_overhead * self.traced_op_count
        if not self.compiled:
            self.host_time += (
                self.engine.compile_cost_base
                + self.engine.compile_cost_per_op * len(self.executable.order)
            )
            self.compiled = True
        device_done = self._advance_device(self.executable, self.host_time)
        self.steps_run += 1
        elapsed = max(self.host_time, device_done)
        return StepTiming(self.host_time - start_host, device_done, elapsed)


class FusedJitEngine(_EngineBase):
    """Compile once (fused), then run with near-zero per-op host cost."""

    def __init__(self, program, engine, device_profile, efficiency=1.0):
        super().__init__(program, engine, device_profile, efficiency)
        module = program.to_module()
        optimize(module, fuse=True)
        self.executable = Executable(module)
        self.compiled = False

    def step(self) -> StepTiming:
        start_host = self.host_time
        if not self.compiled:
            self.host_time += (
                self.engine.compile_cost_base
                + self.engine.compile_cost_per_op * len(self.executable.order)
            )
            self.compiled = True
        self.host_time += self.engine.per_step_overhead
        device_done = self._advance_device(self.executable, self.host_time)
        self.steps_run += 1
        elapsed = max(self.host_time, device_done)
        return StepTiming(self.host_time - start_host, device_done, elapsed)
