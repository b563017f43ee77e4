"""What a certified compile keeps, and what a certified miss walks.

A cached :class:`CodegenExecutable` holds only what ``run`` reads (the
step function, its launch tuple, three integers) and the source cache
only what an install needs; neither keeps an HLO object alive.  One
certified miss walks the optimized entry computation once: the
interpreted executable's order is the schedule the emitter, the buffer
planner and the validator read.  A memory-tracked run of a codegen
device compiles the interpreted keyspace, so per-trace peaks are the
interpreter's.
"""

import gc
import sys
import types

import numpy as np
import pytest

from repro.hlo import HloBuilder, Shape, cache_keys, clear_cache
from repro.hlo import codegen, compiler
from repro.hlo.codegen import CertifiedStep, CodegenExecutable, clear_source_cache
from repro.hlo.dtypes import np_dtype_of
from repro.hlo.ir import HloComputation, HloInstruction, HloModule
from repro.nn import MLP, LeNet, softmax_cross_entropy
from repro.optim import SGD
from repro.runtime import memory
from repro.tensor import LazyTensorBarrier, Tensor, lazy_device
from repro.training import train_step

HLO_TYPES = (HloModule, HloComputation, HloInstruction, Shape)


def setup_function(_):
    clear_cache()
    clear_source_cache()


def _mlp_loss(model, x, y):
    return softmax_cross_entropy(model(x), y)


def _retrace_steps(device, steps: int, seed: int = 5) -> list:
    """``retrace_codegen``'s shape: MLP 16-32-32-8, batch 4, and a fresh
    learning rate every step, so every step's trace is a new key."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 16)).astype(np.float32), device)
    y = Tensor(np.eye(8, dtype=np.float32)[rng.integers(0, 8, 4)], device)
    model = MLP.create(16, [32, 32], 8, device=device, seed=seed)
    rates = np.random.default_rng([seed, 1])
    losses = []
    for _ in range(steps):
        optimizer = SGD(learning_rate=float(0.02 + 0.03 * rates.random()))
        losses.append(float(train_step(model, optimizer, _mlp_loss, x, y, device)))
    return losses


# -- one walk per certified miss -----------------------------------------------


def _fused_module():
    b = HloBuilder("walked")
    x = b.parameter(Shape((4, 8)))
    w = b.parameter(Shape((8, 8)))
    h = b.unary("relu", b.dot(x, w))
    return b.build(b.unary("tanh", b.binary("multiply", h, h)))


def test_a_certified_miss_walks_the_optimized_entry_once(monkeypatch):
    walks = []
    optimized = []
    post_order = HloComputation.post_order
    optimize = compiler.optimize

    def counted(comp):
        if optimized and comp is optimized[0].entry:
            walks.append(comp)
        return post_order(comp)

    def optimize_then_count(module, **kwargs):
        result = optimize(module, **kwargs)
        optimized.append(module)
        return result

    monkeypatch.setattr(HloComputation, "post_order", counted)
    monkeypatch.setattr(compiler, "optimize", optimize_then_count)
    executable = compiler.compile_keyed("walked", _fused_module, codegen=True)
    assert isinstance(executable, CodegenExecutable)
    assert any(i.opcode == "fusion" for i in post_order(optimized[0].entry))
    assert len(walks) == 1


# -- a cached entry is lean -----------------------------------------------------


def _module_globals() -> set:
    """ids of every module, module namespace and module-level value: the
    walk below stops there (they are shared by every entry)."""
    ids = set()
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        ids.update((id(module), id(namespace)))
        ids.update(id(value) for value in namespace.values())
    return ids


def _reach(roots, stop: set) -> dict:
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def _entries(key: str) -> list:
    return [compiler._CACHE[key], codegen._SOURCE_CACHE[key]]


def test_a_certified_entry_keeps_no_hlo_and_few_objects():
    _retrace_steps(lazy_device(codegen=True), 20)
    keys = list(cache_keys())
    certified = [k for k in keys if isinstance(codegen._SOURCE_CACHE.get(k), CertifiedStep)]
    assert len(certified) >= 20
    assert all(isinstance(compiler._CACHE[k], CodegenExecutable) for k in certified)

    stop = _module_globals()
    reached = _reach([e for k in keys for e in _entries(k)], stop)
    hlo = [type(o).__name__ for o in reached.values() if isinstance(o, HLO_TYPES)]
    assert hlo == []
    for key in certified:
        mine = _reach(_entries(key), stop)
        others = _reach([e for k in keys if k != key for e in _entries(k)], stop)
        private = [o for i, o in mine.items() if i not in others and gc.is_tracked(o)]
        assert len(private) <= 10, sorted(type(o).__name__ for o in private)


def test_a_certified_step_computes_the_interpreters_bits():
    generated = _retrace_steps(lazy_device(codegen=True), 6)
    interpreted = _retrace_steps(lazy_device(), 6)
    assert [np.float32(v).tobytes() for v in generated] == [
        np.float32(v).tobytes() for v in interpreted
    ]
    rng = np.random.default_rng(0)
    compared = 0
    for key in cache_keys():
        if not key.startswith("codegen:"):
            continue
        step = compiler._CACHE[key]
        reference = compiler._CACHE[key[len("codegen:"):]]
        params = sorted(
            (i for i in reference.order if i.opcode == "parameter"),
            key=lambda i: i.parameter_number,
        )
        args = [
            rng.standard_normal(p.shape.dims).astype(np_dtype_of(p.shape.dtype))
            for p in params
        ]
        got, want = step.run([a.copy() for a in args]), reference.run(args)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], key
        compared += 1
    assert compared >= 6


# -- the tracked path of a codegen device -----------------------------------------


def _lenet_forward(device):
    model = LeNet.create(device=device, seed=0)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 28, 28, 1)).astype(np.float32), device)
    y = Tensor(np.eye(10, dtype=np.float32)[rng.integers(0, 10, 2)], device)
    loss = softmax_cross_entropy(model(x), y)
    LazyTensorBarrier(device)
    return [loss.numpy()]


def _mlp_train_step(device):
    return [np.float32(v) for v in _retrace_steps(device, 2)]


@pytest.mark.parametrize("run", [_lenet_forward, _mlp_train_step], ids=["lenet", "mlp"])
def test_tracked_codegen_run_matches_the_interpreter(run):
    outputs, peaks = {}, {}
    for codegen_on in (False, True):
        # Earlier tests' tracked buffers must not be freed inside the scope:
        # the oracle would subtract them from this run's peak.
        gc.collect()
        with memory.trace_attribution() as attribution:
            attribution.clear()
            outputs[codegen_on] = run(lazy_device(codegen=codegen_on))
            peaks[codegen_on] = {k: attribution.peak_for(k) for k in attribution.peaks}
    assert [o.tobytes() for o in outputs[True]] == [o.tobytes() for o in outputs[False]]
    assert peaks[True] == peaks[False] and peaks[True]
    # Tracked runs compile the interpreted keyspace only.
    assert not any(k.startswith("codegen:") for k in cache_keys())
