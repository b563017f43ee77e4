"""The certified codegen backend: deterministic emission, bit-identical
execution, identical simulated cost replay, fallback on rejection, and the
single-flight install under concurrent compiles."""

import threading

import numpy as np
import pytest

from repro.hlo import (
    HloBuilder,
    Shape,
    clear_cache,
    compile_module,
    emit_module,
    generate_certified,
    optimize,
)
from repro.hlo.codegen import (
    STATS,
    CodegenExecutable,
    clear_source_cache,
    compile_step,
    source_cache_size,
)
from repro.hlo.compiler import Executable
from repro.errors import HloError
from repro.runtime.costmodel import DESKTOP_CPU
from repro.runtime.device import SimDevice


def setup_function(_):
    clear_cache()
    clear_source_cache()
    STATS.reset()


def _chain_module(fuse: bool = False):
    """(x @ w).relu() @ w2 — reused pool buffers when planned."""
    b = HloBuilder("chain")
    x = b.parameter(Shape((4, 8)))
    w = b.parameter(Shape((8, 8)))
    w2 = b.parameter(Shape((8, 8)))
    h = b.unary("relu", b.dot(x, w))
    module = b.build(b.dot(h, w2))
    return optimize(module, fuse=True) if fuse else module


def _chain_args(seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((4, 8)).astype(np.float32),
        rng.standard_normal((8, 8)).astype(np.float32),
        rng.standard_normal((8, 8)).astype(np.float32),
    ]


def _tuple_module():
    b = HloBuilder("pair")
    x = b.parameter(Shape((4, 4)))
    u = b.binary("multiply", x, x)
    v = b.unary("tanh", u)
    return b.build(b.tuple([u, v]))


# -- emission ----------------------------------------------------------------


def test_emission_is_deterministic():
    first = emit_module(_chain_module(), key="k")
    second = emit_module(_chain_module(), key="k")
    assert first.source == second.source
    assert first.launches == second.launches
    assert first.filename == "<codegen:k>"


def test_emitted_source_is_a_flat_step_function():
    generated = emit_module(_chain_module())
    assert generated.source.startswith("def step(p0, p1, p2):")
    assert "for " not in generated.source  # straight-line, no loops
    assert generated.n_parameters == 3


# -- execution ---------------------------------------------------------------


@pytest.mark.parametrize("fuse", [False, True], ids=["unfused", "fused"])
def test_codegen_bit_identical_to_interpreter(fuse):
    module = _chain_module(fuse)
    interpreted = Executable(module)
    generated = emit_module(module)
    fn = compile_step(generated)
    args = _chain_args()
    want = interpreted.run([a.copy() for a in args])
    got = fn(*[a.copy() for a in args])
    assert got.tobytes() == want.tobytes()
    assert got.dtype == want.dtype


def test_tuple_root_returns_tuple():
    module = _tuple_module()
    args = [np.linspace(-1, 1, 16, dtype=np.float32).reshape(4, 4)]
    want = Executable(module).run([args[0].copy()])
    got = compile_step(emit_module(module))(args[0].copy())
    assert isinstance(got, tuple) and len(got) == 2
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_narrowed_module_bit_identical():
    from repro.analysis.precision.casts import apply_plan, naive_assignment

    module = _chain_module(fuse=False)
    narrowed = optimize(
        apply_plan(module, naive_assignment(module, "f16")), fuse=True
    )
    args = [a.astype(np.float32) for a in _chain_args(7)]
    want = Executable(narrowed).run([a.copy() for a in args])
    executable = generate_certified(narrowed, Executable(narrowed))
    assert isinstance(executable, CodegenExecutable)
    got = executable.run([a.copy() for a in args])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_cost_replay_matches_interpreter_exactly():
    module = _chain_module(fuse=True)
    args = _chain_args(3)
    dev_interp, dev_gen = SimDevice(DESKTOP_CPU), SimDevice(DESKTOP_CPU)
    Executable(module).run([a.copy() for a in args], dev_interp, host_time=0.5)
    executable = generate_certified(module, Executable(module))
    assert isinstance(executable, CodegenExecutable)
    executable.run([a.copy() for a in args], dev_gen, host_time=0.5)
    assert dev_gen.busy_until == dev_interp.busy_until


def test_arg_count_mismatch_raises():
    executable = generate_certified(_chain_module(), Executable(_chain_module()))
    with pytest.raises(HloError, match="expects 3 args"):
        executable.run([np.zeros((4, 8), np.float32)])


# -- certification gate ------------------------------------------------------


def test_rejected_translation_falls_back_to_interpreter(monkeypatch):
    from repro.analysis.equivalence import validator
    from repro.analysis.equivalence.validator import ValidationResult

    monkeypatch.setattr(
        validator,
        "validate_translation",
        lambda *a, **k: ValidationResult(certified=False),
    )
    module = _chain_module()
    interpreted = Executable(module)
    executable = generate_certified(module, interpreted)
    assert executable is interpreted  # uncertified code is never installed
    assert (STATS.emitted, STATS.certified, STATS.rejected) == (1, 0, 1)
    assert STATS.installs == 0


def test_source_cache_one_proof_serves_recompiles():
    module = _chain_module()
    generate_certified(module, Executable(module), key="same")
    generate_certified(module, Executable(module), key="same")
    assert source_cache_size() == 1
    assert STATS.emitted == 1  # validated once
    assert STATS.installs == 2  # but installed per compile
    assert STATS.source_cache_hits >= 1


# -- cache wiring ------------------------------------------------------------


def test_compile_module_codegen_keyspace_is_separate():
    interp = compile_module(_chain_module(), codegen=False)
    gen = compile_module(_chain_module(), codegen=True)
    assert isinstance(interp, Executable)
    assert isinstance(gen, CodegenExecutable)
    # Warm lookups keep serving the matching executable for each mode.
    assert compile_module(_chain_module(), codegen=False) is interp
    assert compile_module(_chain_module(), codegen=True) is gen


def test_concurrent_codegen_installs_single_flight():
    n_threads = 8
    results = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def worker(i):
        barrier.wait()
        results[i] = compile_module(_chain_module(), codegen=True)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(isinstance(r, CodegenExecutable) for r in results)
    # Single-flight: every racer got the one cached install, and the
    # emitted source was validated exactly once.
    assert len({id(r) for r in results}) == 1
    assert STATS.emitted == 1
    assert STATS.certified == 1
    args = _chain_args(11)
    want = Executable(_chain_module()).run([a.copy() for a in args])
    assert results[0].run([a.copy() for a in args]).tobytes() == want.tobytes()


# -- evaluation models -------------------------------------------------------


def _lenet_loss(device):
    """Table 2's model: LeNet-5 forward + loss on a batch of 2."""
    from repro.nn import LeNet, softmax_cross_entropy
    from repro.tensor import Tensor

    model = LeNet.create(device=device, seed=0)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 28, 28, 1)).astype(np.float32), device)
    y = Tensor(np.eye(10, dtype=np.float32)[rng.integers(0, 10, 2)], device)
    return lambda: softmax_cross_entropy(model(x), y)


def _resnet_logits(device):
    """Table 3's model family: a scaled CIFAR ResNet forward on batch 1."""
    from repro.nn import resnet_cifar_small
    from repro.tensor import Tensor

    model = resnet_cifar_small(device=device, seed=0)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32), device)
    return lambda: model(x)


@pytest.mark.parametrize(
    "build", [_lenet_loss, _resnet_logits], ids=["lenet", "resnet_cifar_small"]
)
def test_model_forward_step_runs_certified_code(build):
    from repro.tensor import LazyTensorBarrier, lazy_device

    outputs = {}
    for codegen in (False, True):
        device = lazy_device(codegen=codegen)
        step = build(device)
        for _ in range(2):  # cold (trace, compile, certify), then warm
            out = step()
            LazyTensorBarrier(device)
        outputs[codegen] = out.numpy()
    # Every emitted step function was certified and installed: nothing
    # fell back to the interpreter, and it computes the same bits.
    assert STATS.certified == STATS.emitted >= 1
    assert STATS.rejected == 0
    assert outputs[True].tobytes() == outputs[False].tobytes()
