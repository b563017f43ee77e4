"""The translation-validation corpus: step programs with known verdicts.

Mirrors the other analysis corpora (:mod:`repro.analysis.memory.models`,
:mod:`repro.analysis.tracing.models`): a *clean* suite whose every
lowered module the validator must certify — with the dynamic cross-check
(interpreted ≡ generated, bit for bit) passing and **zero** diagnostics —
plus one seeded-miscompile entry per transform in
:mod:`repro.analysis.equivalence.miscompiles`, each recording the verdict
the validator must produce when the transform is applied to the emitted
source.

``narrow`` entries re-dtype the lowered module with the PR-8 naive policy
before codegen, so the emitted source exercises the convert /
narrow-accumulator / f32-accumulation paths the dtype-sensitive
miscompiles need.  Each program builds its own device; ``build`` returns
``(device, step_fn)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.corpus import Corpus, StepProgram
from repro.analysis.memory.models import (
    build_diamond_tuple_outputs,
    build_lenet_forward,
    build_mlp_chain,
    build_reshape_pipeline,
)
from repro.tensor import LazyTensorBarrier, Tensor, lazy_device


@dataclass(frozen=True)
class EquivalenceProgram(StepProgram):
    """A step program expecting ``"clean"`` or a miscompile verdict
    (``"wrong-broadcast"``, ``"stale-reuse"``, ``"dropped-convert"``,
    ``"reordered-op"``, ``"accum-elision"``)."""

    #: Narrow the lowered module to this dtype (PR-8 naive policy) before
    #: codegen; None keeps the traced f32 module.
    narrow: Optional[str] = None
    #: Name of the miscompile transform applied to the emitted source
    #: (hazard entries only; the untransformed source must still certify).
    miscompile: Optional[str] = None


# ---------------------------------------------------------------------------
# Clean corpus.  ``mlp_chain``, ``diamond_tuple_outputs``,
# ``reshape_pipeline`` and ``lenet_forward`` reuse the memory corpus's
# builders: the same programs, certified one layer further down.
# ---------------------------------------------------------------------------


def _build_affine_relu_fusion():
    """dot + broadcast bias + relu: the fused region is inlined flat, and
    the broadcast line is the wrong-broadcast miscompile's target."""
    device = lazy_device()
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32), device)
    w = Tensor(rng.standard_normal((6, 3)).astype(np.float32), device)
    b = Tensor(np.linspace(-1.0, 1.0, 3).astype(np.float32), device)

    def step_fn(step: int) -> None:
        y = ((x @ w) + b).relu()  # noqa: F841  (materialized by the barrier)
        LazyTensorBarrier(device)

    return device, step_fn


def _build_sgd_fused_update():
    """A whole SGD update in one fusion: subtract gives the reordered-op
    miscompile a non-commutative target."""
    device = lazy_device()
    state = {"w": Tensor(np.linspace(0.5, 2.0, 32).astype(np.float32), device)}

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - state["w"] * 0.1
        LazyTensorBarrier(device)

    return device, step_fn


def _build_residual_combine():
    """An activation held across two matmuls and recombined: rich liveness
    overlap, the stale-reuse miscompile's natural victim."""
    device = lazy_device()
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((16, 16)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((16, 16)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((16, 16)).astype(np.float32), device)
    w3 = Tensor(rng.standard_normal((16, 16)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        h1 = x @ w1
        h2 = h1 @ w2
        h3 = h2 @ w3
        out = h1 * h3  # noqa: F841  (h1 carried across the chain)
        LazyTensorBarrier(device)

    return device, step_fn


def _build_narrow_mlp():
    """dot / relu / mean under the naive f16 policy: converts at every
    dtype boundary, f32-accumulated matmuls, and a narrow-accumulator
    reduce — the dtype-sensitive emission paths."""
    device = lazy_device()
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        h = (x @ w1).relu()
        y = (h @ w2).mean()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


CORPUS = Corpus(
    "equivalence program",
    EquivalenceProgram(
        name="mlp_chain",
        description="three dot/relu layers; buffer reuse becomes rebinding",
        expect="clean",
        steps=2,
        build=build_mlp_chain,
    ),
    EquivalenceProgram(
        name="affine_relu_fusion",
        description="dot + broadcast bias + relu; fusion inlined flat",
        expect="clean",
        steps=2,
        build=_build_affine_relu_fusion,
    ),
    EquivalenceProgram(
        name="diamond_tuple_outputs",
        description="two materialized outputs; tuple root return",
        expect="clean",
        steps=2,
        build=build_diamond_tuple_outputs,
    ),
    EquivalenceProgram(
        name="sgd_fused_update",
        description="whole SGD update in one fusion over resident params",
        expect="clean",
        steps=2,
        build=_build_sgd_fused_update,
    ),
    EquivalenceProgram(
        name="residual_combine",
        description="activation held across two matmuls and recombined",
        expect="clean",
        steps=2,
        build=_build_residual_combine,
    ),
    EquivalenceProgram(
        name="reshape_pipeline",
        description="reshape feeding a dot; may-alias ops emitted in order",
        expect="clean",
        steps=2,
        build=build_reshape_pipeline,
    ),
    EquivalenceProgram(
        name="narrow_mlp_f16",
        description="naive-f16 module: converts, f32 accum, narrow reduce",
        expect="clean",
        steps=2,
        build=_build_narrow_mlp,
        narrow="f16",
    ),
    EquivalenceProgram(
        name="narrow_mlp_bf16",
        description="naive-bf16 module: quantized results in f32 storage",
        expect="clean",
        steps=2,
        build=_build_narrow_mlp,
        narrow="bf16",
    ),
    EquivalenceProgram(
        name="lenet_forward",
        description="full LeNet forward (the Table 2/3 workload trace)",
        expect="clean",
        steps=1,
        build=build_lenet_forward,
    ),
    # -- seeded miscompiles (each transform applied to certified source) --
    EquivalenceProgram(
        name="miscompile_wrong_broadcast",
        description="bias broadcast emitted with perturbed dims",
        expect="wrong-broadcast",
        steps=1,
        build=_build_affine_relu_fusion,
        miscompile="wrong_broadcast",
    ),
    EquivalenceProgram(
        name="miscompile_stale_reuse",
        description="held activation's buffer clobbered while still live",
        expect="stale-reuse",
        steps=1,
        build=_build_residual_combine,
        miscompile="stale_buffer_reuse",
    ),
    EquivalenceProgram(
        name="miscompile_dropped_convert",
        description="first cast of the narrowed module silently dropped",
        expect="dropped-convert",
        steps=1,
        build=_build_narrow_mlp,
        narrow="f16",
        miscompile="dropped_convert",
    ),
    EquivalenceProgram(
        name="miscompile_reordered_op",
        description="subtract operands swapped in the SGD update",
        expect="reordered-op",
        steps=1,
        build=_build_sgd_fused_update,
        miscompile="reordered_noncommutative",
    ),
    EquivalenceProgram(
        name="miscompile_accum_elision",
        description="f32 widening of an f16 matmul operand elided",
        expect="accum-elision",
        steps=1,
        build=_build_narrow_mlp,
        narrow="f16",
        miscompile="f32_accum_elision",
    ),
)

