"""The IR walk and the use rewrite against their earlier formulations.

``HloComputation.post_order`` is an iterator-stack depth-first walk and
``passes._replace_uses`` rebuilds only the operand lists that name the
replaced instruction.  The formulations they replaced are kept here as
oracles: the order of every walk, the operand lists after every rewrite,
and the text of every optimized module and emitted step must not move.
"""

import itertools

import numpy as np
import pytest

from repro.hlo import passes
from repro.hlo.codegen import emit_module
from repro.hlo.ir import HloComputation, HloInstruction, Shape
from repro.hlo.parser import parse_module
from repro.hlo.passes import optimize
from repro.hlo.printer import print_module
from repro.nn import softmax_cross_entropy


def _reference_post_order(self):
    """The ``(instruction, expanded)`` stack walk ``post_order`` replaced."""
    if self.root is None:
        raise AssertionError(f"computation {self.name} has no root")
    order = []
    seen = set()
    stack = [(self.root, False)]
    while stack:
        inst, expanded = stack.pop()
        if inst.id in seen:
            continue
        if expanded:
            seen.add(inst.id)
            order.append(inst)
        else:
            stack.append((inst, True))
            for op in reversed(inst.operands):
                if op.id not in seen:
                    stack.append((op, False))
    return order


def _reference_replace_uses(comp, old, new):
    """The rewrite of every operand list that ``_replace_uses`` replaced."""
    for inst in comp.instructions:
        inst.operands = [new if op is old else op for op in inst.operands]
    if comp.root is old:
        comp.root = new


_SHAPE = Shape((2,))


def _fused(rng, operands):
    """A fusion over ``operands`` whose body is a small random DAG."""
    inner = HloComputation("fused")
    values = [
        inner.add(HloInstruction("parameter", [], _SHAPE, parameter_number=i))
        for i in range(len(operands))
    ]
    for _ in range(int(rng.integers(1, 5))):
        a, b = rng.choice(len(values), 2)
        values.append(inner.add(HloInstruction("add", [values[a], values[b]], _SHAPE)))
    inner.set_root(values[-1])
    return HloInstruction("fusion", operands, _SHAPE, fused_computation=inner)


def _random_computation(seed: int, size: int = 60) -> HloComputation:
    """A random DAG: shared operands, repeated operand slots (``mul(x, x)``),
    fusions, and dead instructions both before and after the root."""
    rng = np.random.default_rng(seed)
    comp = HloComputation(f"random{seed}")
    values = [
        comp.add(HloInstruction("parameter", [], _SHAPE, parameter_number=i))
        for i in range(3)
    ]
    for _ in range(size):
        kind = int(rng.integers(4))
        picks = [values[int(i)] for i in rng.integers(0, len(values), 3)]
        if kind == 0:
            inst = HloInstruction("negate", picks[:1], _SHAPE)
        elif kind == 1:
            inst = HloInstruction("add", picks[:2], _SHAPE)
        elif kind == 2:
            inst = HloInstruction("multiply", [picks[0], picks[0]], _SHAPE)
        else:
            inst = _fused(rng, picks)
        values.append(comp.add(inst))
    comp.set_root(values[int(rng.integers(len(values) // 2, len(values)))])
    return comp


def _ids(order):
    return [inst.id for inst in order]


@pytest.mark.parametrize("seed", range(40))
def test_post_order_matches_the_reference_walk(seed):
    comp = _random_computation(seed)
    assert _ids(comp.post_order()) == _ids(_reference_post_order(comp))
    for inst in comp.instructions:
        if inst.opcode == "fusion":
            inner = inst.fused_computation
            assert _ids(inner.post_order()) == _ids(_reference_post_order(inner))


def test_post_order_walks_a_5000_deep_chain_without_recursion():
    comp = HloComputation("chain")
    value = comp.add(HloInstruction("parameter", [], _SHAPE, parameter_number=0))
    for _ in range(5000):
        value = comp.add(HloInstruction("negate", [value], _SHAPE))
    comp.set_root(value)
    order = comp.post_order()
    assert len(order) == 5001
    assert _ids(order) == _ids(comp.instructions)
    assert _ids(order) == _ids(_reference_post_order(comp))


def _layout(comp):
    return (
        [(inst.id, _ids(inst.operands)) for inst in comp.instructions],
        comp.root.id,
    )


def _twin(seed, monkeypatch):
    """The same random computation, built with the same instruction ids."""
    monkeypatch.setattr(HloInstruction, "_ids", itertools.count(10**9))
    return _random_computation(seed)


@pytest.mark.parametrize("seed", range(40))
def test_replace_uses_matches_the_reference_rewrite(seed, monkeypatch):
    rng = np.random.default_rng(1000 + seed)
    ref, new = _twin(seed, monkeypatch), _twin(seed, monkeypatch)
    for step in range(5):
        # Replace the root sometimes, and an instruction by a fresh one.
        old_at = int(rng.integers(len(ref.instructions)))
        if rng.random() < 0.2:
            old_at = ref.instructions.index(ref.root)
        for comp, rewrite in ((ref, _reference_replace_uses), (new, passes._replace_uses)):
            monkeypatch.setattr(HloInstruction, "_ids", itertools.count(2 * 10**9 + step))
            old = comp.instructions[old_at]
            fresh = comp.add(HloInstruction("negate", [comp.instructions[0]], _SHAPE))
            rewrite(comp, old, fresh)
        assert _layout(new) == _layout(ref)


# ---------------------------------------------------------------------------
# Optimized modules and emitted steps: the corpora and two training steps.
# ---------------------------------------------------------------------------


def _corpus_texts() -> list:
    """Printed unoptimized modules of every clean codegen, memory and trace
    corpus program (narrowed where the codegen corpus narrows)."""
    from repro.analysis.equivalence.models import CORPUS as CODEGEN
    from repro.analysis.memory.models import CORPUS as MEMORY
    from repro.analysis.precision.casts import apply_plan, naive_assignment
    from repro.analysis.tracing.capture import unique_traces
    from repro.analysis.tracing.models import CORPUS as TRACE

    texts = []
    for corpus in (CODEGEN, MEMORY, TRACE):
        for program in corpus:
            if program.expect != "clean":
                continue
            for _, module, _ in unique_traces(program):
                narrow = getattr(program, "narrow", None)
                if narrow is not None:
                    module = apply_plan(module, naive_assignment(module, narrow))
                texts.append(print_module(module))
    return texts


def loss_fn(model, x, y):
    return softmax_cross_entropy(model(x), y)


def _training_texts() -> list:
    """Printed modules the codegen device compiles for one LeNet step and
    three MLP steps that each use a new learning rate (every one a miss)."""
    from repro.hlo import compiler
    from repro.nn import MLP, LeNet
    from repro.optim import SGD
    from repro.tensor import Tensor, lazy_device
    from repro.training import train_step

    texts = []
    lower = compiler._codegen

    def capture(module, *args, **kwargs):
        texts.append(print_module(module))
        return lower(module, *args, **kwargs)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "_codegen", capture)
        device = lazy_device(codegen=True)
        model = LeNet.create(device=device, seed=0)
        x = Tensor(rng.standard_normal((32, 28, 28, 1)).astype(np.float32), device)
        y = Tensor(np.eye(10, dtype=np.float32)[rng.integers(0, 10, 32)], device)
        train_step(model, SGD(learning_rate=0.05), loss_fn, x, y, device)
        device = lazy_device(codegen=True)
        model = MLP.create(16, [32, 32], 8, device=device, seed=0)
        x = Tensor(rng.standard_normal((4, 16)).astype(np.float32), device)
        y = Tensor(np.eye(8, dtype=np.float32)[rng.integers(0, 8, 4)], device)
        for rate in (0.021, 0.034, 0.047):
            train_step(model, SGD(learning_rate=rate), loss_fn, x, y, device)
    return texts


@pytest.fixture(scope="module")
def module_texts():
    from repro.hlo import compiler

    compiler.clear_cache()
    texts = _corpus_texts() + _training_texts()
    compiler.clear_cache()
    return texts


def _optimize_and_emit(text, monkeypatch, reference: bool):
    with monkeypatch.context() as mp:
        if reference:
            mp.setattr(HloComputation, "post_order", _reference_post_order)
            mp.setattr(passes, "_replace_uses", _reference_replace_uses)
        mp.setattr(HloInstruction, "_ids", itertools.count(10**9))
        module = optimize(parse_module(text))
        return print_module(module), emit_module(module).source


def test_optimize_and_emission_match_the_reference_walk_and_rewrite(
    module_texts, monkeypatch
):
    assert len(module_texts) >= 20
    for text in module_texts:
        got = _optimize_and_emit(text, monkeypatch, reference=False)
        want = _optimize_and_emit(text, monkeypatch, reference=True)
        assert got == want, text.splitlines()[0]
