"""Framework engines: capture, numerics equality, runtime disciplines."""

import numpy as np
import pytest

from repro.frameworks import (
    FusedJitEngine,
    OpByOpEngine,
    capture_step_program,
)
from repro.frameworks.engines import LazyTraceEngine
from repro.nn import MLP, softmax_cross_entropy
from repro.optim import SGD
from repro.runtime.costmodel import (
    GTX_1080,
    JAX_JIT,
    S4TF_EAGER,
    S4TF_LAZY,
    TF_GRAPH,
    TORCH_LIKE,
)
from repro.tensor import Device, Tensor, one_hot
from repro.training import train_step


def _loss(model, x, y):
    return softmax_cross_entropy(model(x), y)


def _one_step(device: Device) -> None:
    model = MLP.create(16, [8], 4, device=device, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16)).astype(np.float32), device)
    y = one_hot(Tensor(rng.integers(0, 4, 8).astype(np.float32), device), 4)
    train_step(model, SGD(0.1), _loss, x, y, device)


@pytest.fixture(scope="module")
def program():
    return capture_step_program(_one_step, GTX_1080)


def test_capture_extracts_program(program):
    assert program.op_count > 10
    assert len(program.example_args) > 0
    module = program.to_module()
    assert module.entry.root is not None


def test_capture_requires_materialization():
    with pytest.raises(RuntimeError, match="never materialized"):
        capture_step_program(lambda device: None, GTX_1080)


def test_all_engines_compute_identical_numerics(program):
    engines = [
        OpByOpEngine(program, TORCH_LIKE, GTX_1080),
        OpByOpEngine(program, TF_GRAPH, GTX_1080),
        FusedJitEngine(program, JAX_JIT, GTX_1080),
        LazyTraceEngine(program, S4TF_LAZY, GTX_1080),
    ]
    outputs = []
    for engine in engines:
        result = engine.executable.run(program.example_args)
        flat = np.concatenate(
            [np.asarray(r).ravel() for r in (result if isinstance(result, tuple) else (result,))]
        )
        outputs.append(flat)
    for other in outputs[1:]:
        np.testing.assert_allclose(outputs[0], other, rtol=1e-4, atol=1e-5)


def test_fused_engine_has_fewer_kernels(program):
    unfused = OpByOpEngine(program, TORCH_LIKE, GTX_1080)
    fused = FusedJitEngine(program, JAX_JIT, GTX_1080)
    assert fused.executable.kernel_count < unfused.executable.kernel_count


def test_eager_dispatch_cost_scales_with_overhead(program):
    fast = OpByOpEngine(program, TORCH_LIKE, GTX_1080).steady_state_step_time()
    slow = OpByOpEngine(program, S4TF_EAGER, GTX_1080).steady_state_step_time()
    assert slow > fast * 2


def test_jit_engine_amortizes_compile(program):
    engine = FusedJitEngine(program, JAX_JIT, GTX_1080)
    first = engine.step().elapsed
    engine_time_after_first = max(engine.host_time, engine.device.busy_until)
    engine.step()
    second = max(engine.host_time, engine.device.busy_until) - engine_time_after_first
    assert second < first / 3  # compile paid once


def test_lazy_trace_engine_pays_tracing_every_step(program):
    engine = LazyTraceEngine(program, S4TF_LAZY, GTX_1080)
    engine.step()  # includes compile
    h0 = engine.host_time
    engine.step()
    per_step_host = engine.host_time - h0
    expected = S4TF_LAZY.trace_op_overhead * program.op_count
    assert per_step_host == pytest.approx(expected, rel=1e-6)


def test_efficiency_scales_device_time(program):
    base = FusedJitEngine(program, TF_GRAPH, GTX_1080, efficiency=1.0)
    slow = FusedJitEngine(program, TF_GRAPH, GTX_1080, efficiency=0.5)
    t_base = base.steady_state_step_time()
    t_slow = slow.steady_state_step_time()
    assert t_slow > t_base


def test_steady_state_is_deterministic(program):
    e1 = OpByOpEngine(program, TF_GRAPH, GTX_1080)
    e2 = OpByOpEngine(program, TF_GRAPH, GTX_1080)
    assert e1.steady_state_step_time() == pytest.approx(
        e2.steady_state_step_time(), rel=1e-12
    )
