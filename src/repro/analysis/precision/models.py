"""The seeded precision corpus: step programs with known safety verdicts.

Mirrors the other analysis corpora (:mod:`repro.analysis.tracing.models`,
:mod:`repro.analysis.memory.models`): a clean suite that must certify
with **zero** diagnostics even under the naive narrow-everything policy
(the zero-false-positive bar), plus seeded numerical hazards — each a
bug pattern a blind "cast the model to half" conversion really hits:

* ``overflow`` — ``exp`` of moderately large logits, and the classic
  unstabilized softmax: exact values exceed f16's 65504 and saturate
  to ``inf`` at run time;
* ``accum-drift`` — summing thousands of same-sign f16 values in an
  f16 accumulator: once the partial sum passes ``1/eps`` times the
  element magnitude, additions round away and the sum flatlines;
* ``underflow`` — gradient-sized products (the reason loss scaling
  exists): exact values below f16's smallest normal flush to zero;
* ``unsafe-cast`` — a value legitimately f32-sized narrowed through a
  ``convert``: the cast itself is the hazard.

Each program builds its own device; ``build`` returns
``(device, step_fn)``.  ``policy`` is the narrow dtype the program is
audited against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.corpus import Corpus, StepProgram
from repro.tensor import LazyTensorBarrier, Tensor, lazy_device


@dataclass(frozen=True)
class PrecisionProgram(StepProgram):
    """A step program expecting ``"clean"``, ``"overflow"``,
    ``"underflow"``, ``"accum-drift"`` or ``"unsafe-cast"``."""

    #: The narrow dtype the program is audited against ("f16" | "bf16").
    policy: str


# ---------------------------------------------------------------------------
# Clean corpus: safe even when *everything* is narrowed.
# ---------------------------------------------------------------------------


def _build_mlp_forward_f16():
    """Two small dot/relu layers with O(1) activations: every interval
    stays far inside f16's range, so both policies certify clean."""
    device = lazy_device()
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-1.0, 1.0, (8, 16)).astype(np.float32), device)
    w1 = Tensor(rng.uniform(-0.2, 0.2, (16, 16)).astype(np.float32), device)
    w2 = Tensor(rng.uniform(-0.2, 0.2, (16, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        y = ((x @ w1).relu() @ w2).relu()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_scale_shift_f16():
    """Elementwise affine ``x * a + b``: the trivially-safe base case."""
    device = lazy_device()
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-4.0, 4.0, (32, 32)).astype(np.float32), device)
    a = Tensor(rng.uniform(0.5, 1.5, (32, 32)).astype(np.float32), device)
    b = Tensor(rng.uniform(-1.0, 1.0, (32, 32)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        y = x * a + b  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_softmax_stable():
    """Max-subtracted softmax over small logits: the stabilization keeps
    ``exp`` in (0, 1] and the normalizer's interval away from zero, so
    even naive f16 certifies clean — the mirror of the unstabilized
    hazard below."""
    device = lazy_device()
    rng = np.random.default_rng(12)
    z = Tensor(rng.uniform(-2.0, 2.0, (8, 10)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        shifted = z - z.max(axes=(1,), keepdims=True)
        e = shifted.exp()
        p = e / e.sum(axes=(1,), keepdims=True)  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_affine_tanh_bf16():
    """dot + bias + tanh under bf16: the f32-exponent-range dtype — wide
    dynamic range, coarse mantissa — certifies clean on O(1) values."""
    device = lazy_device()
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-1.0, 1.0, (8, 12)).astype(np.float32), device)
    w = Tensor(rng.uniform(-0.3, 0.3, (12, 6)).astype(np.float32), device)
    b = Tensor(rng.uniform(-0.1, 0.1, (6,)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        y = ((x @ w) + b).tanh()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_sgd_update_bf16():
    """The fused parameter update ``w - lr * g`` at bf16: the update
    survives narrowing because bf16 keeps f32's exponent range."""
    device = lazy_device()
    rng = np.random.default_rng(14)
    state = {"w": Tensor(rng.uniform(-1.0, 1.0, (64,)).astype(np.float32), device)}
    g = Tensor(rng.uniform(-0.5, 0.5, (64,)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - g * 0.1
        LazyTensorBarrier(device)

    return device, step_fn


def _build_lenet_forward_bf16():
    """The Table 2/3 workload trace — a full LeNet forward — audited at
    bf16, the dtype such models actually train in: contraction intervals
    reach ~1e6 (far past f16's 65504, which is why the f16 audit of deep
    stacks wants the planner, not the naive policy) yet sit comfortably
    inside bf16's range."""
    from repro.nn import LeNet

    device = lazy_device()
    model = LeNet.create(device, seed=0)
    rng = np.random.default_rng(15)
    xv = rng.standard_normal((2, 28, 28, 1)).astype(np.float32)

    def step_fn(step: int) -> None:
        logits = model(Tensor(xv, device))  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_activation_halving_f16():
    """A 256x256 intermediate dwarfing its 256-element inputs: the
    program whose *memory* certificate moves — narrowing the activation
    halves the planner's certified peak even though the f32 parameters
    (and their one-off narrow copies) stay resident."""
    device = lazy_device()
    rng = np.random.default_rng(16)
    col = Tensor(rng.uniform(0.5, 1.0, (256, 1)).astype(np.float32), device)
    row = Tensor(rng.uniform(0.5, 1.0, (1, 256)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        # One expression: the 256x256 product must stay an *intermediate*
        # (a materialized local would pin it as an f32 output).
        r = (col @ row).max()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


# ---------------------------------------------------------------------------
# Seeded hazards.
# ---------------------------------------------------------------------------


def _build_exp_overflow_f16():
    """``exp`` of logits reaching 12: e^12 ≈ 162754 > 65504, so the naive
    f16 lowering saturates to inf.  The planner keeps ``exp`` in f32."""
    device = lazy_device()
    rng = np.random.default_rng(20)
    xv = rng.uniform(-1.0, 12.0, (8, 8)).astype(np.float32)
    # Pin the interval's top so the hazard is in the data, not just the
    # distribution's tail.
    xv[0, 0] = 12.0
    x = Tensor(xv, device)

    def step_fn(step: int) -> None:
        y = x.exp()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_softmax_unstabilized():
    """Softmax *without* max subtraction over logits up to 12: the
    textbook mixed-precision bug — exp overflows f16 and the normalizer
    turns inf/inf into NaN."""
    device = lazy_device()
    rng = np.random.default_rng(21)
    zv = rng.uniform(0.0, 12.0, (8, 10)).astype(np.float32)
    zv[:, 0] = 12.0
    z = Tensor(zv, device)

    def step_fn(step: int) -> None:
        e = z.exp()
        p = e / e.sum(axes=(1,), keepdims=True)  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_large_sum_drift_f16():
    """8192 same-sign values summed in an f16 accumulator: past ~2048 the
    running sum's ULP exceeds the elements and the sum flatlines near
    half its true value.  The fix-it (and the plan) is ``accum="f32"``."""
    device = lazy_device()
    rng = np.random.default_rng(22)
    x = Tensor(rng.uniform(0.8, 1.2, (8192,)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        total = x.sum()  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_grad_underflow_no_scale():
    """Gradient-sized products: activations ~1e-3 times upstream
    gradients ~1e-5 give ~1e-8 — below f16's smallest subnormal, so the
    naive lowering flushes the whole gradient to zero.  The reason loss
    scaling exists; the fix-it computes the needed power-of-two scale."""
    device = lazy_device()
    rng = np.random.default_rng(23)
    a = Tensor(rng.uniform(1e-3, 2e-3, (16, 16)).astype(np.float32), device)
    g = Tensor(rng.uniform(1e-5, 2e-5, (16, 16)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        dw = a * g  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


def _build_wide_range_unsafe_cast():
    """A value that is legitimately f32-sized (counts scaled to ~1e6)
    halved and narrowed: the ``convert`` the naive policy inserts at the
    f32 parameter boundary is itself the hazard — its incoming range
    cannot fit f16."""
    device = lazy_device()
    rng = np.random.default_rng(24)
    counts = Tensor(rng.uniform(1e5, 1e6, (8, 8)).astype(np.float32), device)

    def step_fn(step: int) -> None:
        scaled = counts * 0.5  # noqa: F841
        LazyTensorBarrier(device)

    return device, step_fn


CORPUS = Corpus(
    "precision program",
    PrecisionProgram(
        name="mlp_forward_f16",
        description="two small dot/relu layers; O(1) activations",
        expect="clean",
        policy="f16",
        steps=2,
        build=_build_mlp_forward_f16,
    ),
    PrecisionProgram(
        name="scale_shift_f16",
        description="elementwise x*a + b; trivially range-safe",
        expect="clean",
        policy="f16",
        steps=2,
        build=_build_scale_shift_f16,
    ),
    PrecisionProgram(
        name="softmax_stable",
        description="max-subtracted softmax; stabilization keeps exp <= 1",
        expect="clean",
        policy="f16",
        steps=2,
        build=_build_softmax_stable,
    ),
    PrecisionProgram(
        name="affine_tanh_bf16",
        description="dot + bias + tanh at bf16",
        expect="clean",
        policy="bf16",
        steps=2,
        build=_build_affine_tanh_bf16,
    ),
    PrecisionProgram(
        name="sgd_update_bf16",
        description="fused w - lr*g update at bf16",
        expect="clean",
        policy="bf16",
        steps=2,
        build=_build_sgd_update_bf16,
    ),
    PrecisionProgram(
        name="lenet_forward_bf16",
        description="full LeNet forward audited at bf16",
        expect="clean",
        policy="bf16",
        steps=1,
        build=_build_lenet_forward_bf16,
    ),
    PrecisionProgram(
        name="activation_halving_f16",
        description="256x256 intermediate; narrowing halves the peak",
        expect="clean",
        policy="f16",
        steps=1,
        build=_build_activation_halving_f16,
    ),
    PrecisionProgram(
        name="exp_overflow_f16",
        description="exp of logits up to 12; e^12 > f16 max",
        expect="overflow",
        policy="f16",
        steps=1,
        build=_build_exp_overflow_f16,
    ),
    PrecisionProgram(
        name="softmax_unstabilized",
        description="softmax without max subtraction; inf/inf -> NaN",
        expect="overflow",
        policy="f16",
        steps=1,
        build=_build_softmax_unstabilized,
    ),
    PrecisionProgram(
        name="large_sum_drift_f16",
        description="8192-element f16-accumulated sum flatlines",
        expect="accum-drift",
        policy="f16",
        steps=1,
        build=_build_large_sum_drift_f16,
    ),
    PrecisionProgram(
        name="grad_underflow_no_scale",
        description="1e-8-sized gradients flush to zero without loss scaling",
        expect="underflow",
        policy="f16",
        steps=1,
        build=_build_grad_underflow_no_scale,
    ),
    PrecisionProgram(
        name="wide_range_unsafe_cast",
        description="~1e6-sized value narrowed through a convert",
        expect="unsafe-cast",
        policy="f16",
        steps=1,
        build=_build_wide_range_unsafe_cast,
    ),
)

