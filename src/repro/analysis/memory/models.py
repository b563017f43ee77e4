"""The seeded memory-planning corpus: step programs with known verdicts.

Mirrors the other analysis corpora (:mod:`repro.analysis.tracing.models`,
:mod:`repro.analysis.concurrency.models`): a clean suite the planner must
certify with **zero** diagnostics — and, on straight-line programs, with
a certified peak *exactly equal* to the dynamically observed one — plus
seeded hazards, each recording the verdict the validator must produce:

* ``over-budget`` — a trace whose certified peak exceeds its byte budget
  (the planner must also emit recompute-or-spill fix-its);
* ``unsafe-in-place`` — a corrupted plan donating a buffer into a
  non-elementwise op;
* ``tuple-aliasing`` — a corrupted plan reusing a buffer the output tuple
  still aliases.

Each program builds its own device; ``build`` returns
``(device, step_fn)``.  ``corrupt`` (hazards only) mutates the planner's
output the way the corresponding planner bug would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.corpus import Corpus, StepProgram
from repro.tensor import LazyTensorBarrier, Tensor, lazy_device

from .bufferplan import MemoryPlan, force_donation, force_shared_buffer
from .liveness import LivenessInfo


@dataclass(frozen=True)
class MemoryProgram(StepProgram):
    """A step program expecting ``"clean"``, ``"over-budget"``,
    ``"unsafe-in-place"`` or ``"tuple-aliasing"``."""

    #: True when the static model must match the dynamic tracker exactly
    #: (no may-alias ops, predicates, or scalar reductions in the trace).
    straight_line: bool
    budget_bytes: Optional[int] = None
    corrupt: Optional[Callable[[LivenessInfo, MemoryPlan], MemoryPlan]] = None


# ---------------------------------------------------------------------------
# Clean corpus.  The four public builders are shared with the codegen
# corpus (:mod:`repro.analysis.equivalence.models`), which certifies the
# emitted step functions of the very same programs.
# ---------------------------------------------------------------------------


def build_mlp_chain():
    """Three equal-width dot/relu layers: the canonical buffer-reuse case
    (two pool buffers serve six values; codegen rebinds two variables)."""
    device = lazy_device()
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16)).astype(np.float32), device)
    ws = [
        Tensor(rng.standard_normal((16, 16)).astype(np.float32), device)
        for _ in range(3)
    ]

    def step_fn(step: int) -> None:
        h = x
        for w in ws:
            h = (h @ w).relu()
        LazyTensorBarrier(device)

    return device, step_fn


def _build_affine_relu_fusion():
    """dot + bias + relu: the bias broadcast disappears into the fused
    elementwise kernel; the dot's buffer is donated to the fusion."""
    device = lazy_device()
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32), device)
    w = Tensor(rng.standard_normal((6, 3)).astype(np.float32), device)
    b = Tensor(np.zeros(3, np.float32), device)

    def step_fn(step: int) -> None:
        y = ((x @ w) + b).relu()  # noqa: F841  (materialized by the barrier)
        LazyTensorBarrier(device)

    return device, step_fn


def build_diamond_tuple_outputs():
    """Two materialized outputs -> tuple root; the early output's storage
    must stay live through the whole schedule, and the emitted return
    statement must alias both certified values."""
    device = lazy_device()
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        u = x @ w1
        v = (u * u) @ w2  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_sgd_fused_update():
    """A whole SGD update collapsing into one fusion over resident
    parameters: the planned pool is a single buffer."""
    device = lazy_device()
    state = {"w": Tensor(np.ones(32, np.float32), device)}

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - state["w"] * 0.1
        LazyTensorBarrier(device)

    return device, step_fn


def build_reshape_pipeline():
    """A reshape feeding a dot: may-alias, so the certificate is an upper
    bound (NumPy returns a view; the planner must also budget the copy) —
    a view/copy-ambiguous op the emitter must still name and sequence."""
    device = lazy_device()
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), device)
    w = Tensor(rng.standard_normal((2, 4)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        y = x.reshaped((8, 2)) @ w  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def build_lenet_forward():
    """The Table 2/3 workload trace: a full LeNet forward (conv, pool,
    flatten-reshape, dense) certified end to end."""
    from repro.nn import LeNet

    device = lazy_device()
    model = LeNet.create(device, seed=0)
    rng = np.random.default_rng(4)
    xv = rng.standard_normal((2, 28, 28, 1)).astype(np.float32)

    def step_fn(step: int) -> None:
        logits = model(Tensor(xv, device))  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


# ---------------------------------------------------------------------------
# Seeded hazards.
# ---------------------------------------------------------------------------


def _build_held_activation_over_budget():
    """h1 is held across two more matmuls for a residual-style combine:
    three 16 KiB activations live at once, exceeding the 40 kB budget.
    The planner must flag it and suggest spilling %dot (h1)."""
    device = lazy_device()
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((64, 64)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((64, 64)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((64, 64)).astype(np.float32), device)
    w3 = Tensor(rng.standard_normal((64, 64)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        h1 = x @ w1
        h2 = h1 @ w2
        h3 = h2 @ w3
        out = h1 * h3  # noqa: F841  (h1 carried across the peak)
        LazyTensorBarrier(device)

    return device, step_fn


def _build_inplace_victim():
    device = lazy_device()
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        z = (x @ w1).relu() @ w2  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _corrupt_donate_into_dot(
    liveness: LivenessInfo, plan: MemoryPlan
) -> MemoryPlan:
    """The unsafe-in-place bug: a planner that donates a dying operand's
    buffer into a *dot* — which reads operand elements long after writing
    the first output elements."""
    for inst in liveness.schedule:
        if inst.opcode != "dot":
            continue
        for op in inst.operands:
            if op.id in plan.assignments and inst.id in plan.assignments:
                return force_donation(plan, inst.id, op.id)
    raise AssertionError("corpus program lost its dot(planned operand)")


def _build_tuple_alias_victim():
    device = lazy_device()
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w1 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)
    w2 = Tensor(rng.standard_normal((8, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        u = x @ w1
        z = u.relu() @ w2  # noqa: F841  (u and z both materialize)
        LazyTensorBarrier(device)

    return device, step_fn


def _corrupt_share_tuple_elements(
    liveness: LivenessInfo, plan: MemoryPlan
) -> MemoryPlan:
    """The tuple-aliasing bug: a planner that frees tuple-element storage
    at its last direct use and hands the buffer to a later value — here,
    collapsing two output-tuple elements into one buffer."""
    root = liveness.values[liveness.root_id]
    roots = [r for r in root.storage_roots if r in plan.assignments]
    if len(roots) < 2:
        raise AssertionError("corpus program lost its multi-element tuple")
    return force_shared_buffer(plan, roots[0], roots[1])


CORPUS = Corpus(
    "memory program",
    MemoryProgram(
        name="mlp_chain_reuse",
        description="three equal-width dot/relu layers; pool of two buffers",
        expect="clean",
        steps=2,
        straight_line=True,
        build=build_mlp_chain,
    ),
    MemoryProgram(
        name="affine_relu_fusion",
        description="dot + broadcast bias + relu fused; dot buffer donated",
        expect="clean",
        steps=2,
        straight_line=True,
        build=_build_affine_relu_fusion,
    ),
    MemoryProgram(
        name="diamond_tuple_outputs",
        description="two materialized outputs; tuple root extends liveness",
        expect="clean",
        steps=2,
        straight_line=True,
        build=build_diamond_tuple_outputs,
    ),
    MemoryProgram(
        name="sgd_fused_update",
        description="whole update fuses over resident params; one buffer",
        expect="clean",
        steps=2,
        straight_line=True,
        build=_build_sgd_fused_update,
    ),
    MemoryProgram(
        name="reshape_pipeline",
        description="reshape feeding dot; may-alias makes the bound strict",
        expect="clean",
        steps=2,
        straight_line=False,
        build=build_reshape_pipeline,
    ),
    MemoryProgram(
        name="lenet_forward",
        description="full LeNet forward (the Table 2/3 workload trace)",
        expect="clean",
        steps=1,
        straight_line=False,
        build=build_lenet_forward,
    ),
    MemoryProgram(
        name="held_activation_over_budget",
        description="activation held across two matmuls blows a 40 kB budget",
        expect="over-budget",
        steps=1,
        straight_line=True,
        build=_build_held_activation_over_budget,
        budget_bytes=40_000,
    ),
    MemoryProgram(
        name="unsafe_inplace_plan",
        description="corrupted plan donates a buffer into a dot",
        expect="unsafe-in-place",
        steps=1,
        straight_line=True,
        build=_build_inplace_victim,
        corrupt=_corrupt_donate_into_dot,
    ),
    MemoryProgram(
        name="tuple_alias_plan",
        description="corrupted plan reuses a buffer the output tuple aliases",
        expect="tuple-aliasing",
        steps=1,
        straight_line=True,
        build=_build_tuple_alias_victim,
        corrupt=_corrupt_share_tuple_elements,
    ),
)

