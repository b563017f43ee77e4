"""The lazy compile cache is keyed on the canonical trace text.

A warm step computes ``fragment_key`` on the intact DAG, finds the
executable under that text and runs it on the fragment's sources: no HLO
is built, printed or fingerprinted.  The full text (not a digest, not a
tuple of floats) is the key, so ``0.0`` and ``-0.0`` are two executables,
and the interpreted and codegen keyspaces never meet.
"""

import numpy as np
import pytest

from repro.hlo import cache_keys, cache_size, clear_cache
from repro.hlo import compiler as hlo_compiler
from repro.hlo.codegen import CodegenExecutable
from repro.hlo.compiler import STATS, AsyncCompiler
from repro.nn import MLP, softmax_cross_entropy
from repro.optim import SGD
from repro.tensor import Tensor, eager_device, lazy_device
from repro.tensor import lazy_backend
from repro.training import train_step


def setup_function(_):
    clear_cache()
    STATS.reset()


def _flat_loss(model, x, y):
    return softmax_cross_entropy(model(x.reshaped((-1, 16))), y)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["sync", "codegen", "async"])
def test_warm_steps_neither_lower_nor_fingerprint(mode, monkeypatch):
    compiler = AsyncCompiler() if mode == "async" else None
    device = lazy_device(codegen=mode == "codegen", async_compile=compiler or False)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16)).astype(np.float32), device)
    y = Tensor(np.eye(10, dtype=np.float32)[rng.integers(0, 10, 8)], device)
    model = MLP.create(16, [8], 10, device=device, seed=0)
    optimizer = SGD(0.05)

    def hits():
        if compiler is not None:
            return compiler.stats.compile_hits
        return STATS.cache_hits

    # Warm-up: the steady trace compiles (in the background under async).
    for _ in range(2):
        train_step(model, optimizer, _flat_loss, x, y, device)
    if compiler is not None:
        compiler.wait()
    lowered = _counting(monkeypatch, lazy_backend, "_lower_to_hlo")
    printed = _counting(monkeypatch, hlo_compiler, "fingerprint")
    for step in range(3):
        before, compiles = hits(), STATS.compiles
        train_step(model, optimizer, _flat_loss, x, y, device)
        assert hits() == before + 1, step
        assert STATS.compiles == compiles
    assert lowered == [] and printed == []
    if compiler is not None:
        compiler.shutdown()


def test_negative_zero_constant_compiles_its_own_executable():
    device = lazy_device()
    values = np.array([1.0, 2.0], np.float32)
    plus = (Tensor(values, device) * 0.0).numpy()
    minus = (Tensor(values, device) * -0.0).numpy()
    assert STATS.compiles == 2 and cache_size() == 2
    eager = (Tensor(values, eager_device()) * -0.0).numpy()
    assert np.signbit(minus).all() and np.signbit(eager).all()
    assert not np.signbit(plus).any()


def test_interpreted_and_codegen_executables_never_share_an_entry():
    values = np.linspace(-1.0, 1.0, 6, dtype=np.float32)

    def run(device):
        return (Tensor(values, device) * 2.0).tanh().numpy()

    interpreted = run(lazy_device())
    generated = run(lazy_device(codegen=True))
    np.testing.assert_array_equal(interpreted, generated)
    assert STATS.compiles == 2
    plain, prefixed = cache_keys()
    assert prefixed == "codegen:" + plain
    executables = [hlo_compiler._CACHE[k] for k in (plain, prefixed)]
    assert not isinstance(executables[0], CodegenExecutable)
    assert isinstance(executables[1], CodegenExecutable)

    compiler = AsyncCompiler()
    for codegen in (False, True):
        device = lazy_device(async_compile=compiler, codegen=codegen)
        np.testing.assert_array_equal(run(device), interpreted)
        compiler.wait()
    assert compiler.cached_keys() == (plain, prefixed)
    compiler.shutdown()


def _step_programs():
    from repro.analysis.__main__ import SUBSYSTEMS
    from repro.analysis.corpus import StepProgram

    return [
        program
        for row in SUBSYSTEMS
        for program in row.corpus or ()
        if isinstance(program, StepProgram)
    ]


def test_runtime_key_is_the_canonical_key_for_every_corpus_fragment(monkeypatch):
    from repro.analysis.tracing import canonicalize, capture_step_traces

    used = []
    execute_fragment = lazy_backend.LazyRuntime._execute_fragment

    def recording(runtime, targets, key, args):
        used.append(key)
        return execute_fragment(runtime, targets, key, args)

    monkeypatch.setattr(lazy_backend.LazyRuntime, "_execute_fragment", recording)
    programs = _step_programs()
    assert len({p.name for p in programs}) >= 9
    fragments = 0
    for program in programs:
        device, step_fn = program.build()
        del used[:]
        capture = capture_step_traces(step_fn, program.steps, device)
        canonical = [canonicalize(r.fragment.roots) for r in capture.fragments]
        assert used == [c.key for c in canonical], program.name
        assert [lazy_backend.key_digest(k) for k in used] == [
            c.digest for c in canonical
        ]
        fragments += len(used)
    assert fragments >= 90
