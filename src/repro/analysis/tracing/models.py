"""The seeded trace-stability corpus: step programs with known verdicts.

Mirrors :mod:`repro.analysis.ownership.models`: a clean suite the analyzer
must pass with **zero** diagnostics (and exact cache-behavior
predictions), plus seeded hazards — one per failure mode Section 3.4 and
the LazyTensor paper name — each recording the verdict the analyzer must
produce.  The self-check sweep drives every program both statically and
dynamically and requires the two to agree.

Each program builds its own device so captures are independent; ``build``
returns ``(device, step_fn)`` and ``step_fn(step)`` runs one training
step.  The hand-built malformed traces at the bottom exercise the
pre-lowering shape checker.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.corpus import Corpus, StepProgram
from repro.nn.losses import softmax_cross_entropy
from repro.tensor import LazyTensorBarrier, Tensor, lazy_device
from repro.tensor.lazy_backend import TraceNode


class TraceProgram(StepProgram):
    """A step program expecting ``"clean"``, ``"volatile-constant"``,
    ``"unbounded-growth"``, ``"auto-cut-reliance"`` or
    ``"structural-instability"``."""


# ---------------------------------------------------------------------------
# Clean corpus: per-step traces must hash identically (steps 2..N all
# cache hits), with zero diagnostics.
# ---------------------------------------------------------------------------


def _build_sgd_scalar_clean():
    device = lazy_device()
    state = {"w": Tensor(np.ones(8, np.float32), device)}

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - state["w"] * 0.1
        LazyTensorBarrier(device)

    return device, step_fn


def _build_affine_train_clean():
    device = lazy_device()
    rng = np.random.default_rng(0)
    xv = rng.standard_normal((4, 6)).astype(np.float32)
    state = {
        "w": Tensor(rng.standard_normal((6, 3)).astype(np.float32), device),
        "b": Tensor(np.zeros(3, np.float32), device),
    }

    def step_fn(step: int) -> None:
        x = Tensor(xv, device)
        h = (x @ state["w"] + state["b"]).relu()
        loss = h.sum()  # noqa: F841  (kept live; materialized by the barrier)
        state["w"] = state["w"] - state["w"] * 0.01
        state["b"] = state["b"] - state["b"] * 0.01
        LazyTensorBarrier(device)

    return device, step_fn


def _mlp_loss(model, x, y):
    return softmax_cross_entropy(model(x.reshaped((-1, 16))), y)


def _build_mlp_train_clean():
    """A real training step — gradient, in-place update, automatic
    barrier — on one fixed batch: the docstring claim of
    :mod:`repro.tensor.lazy_backend`, as a checkable corpus entry."""
    from repro.data import synthetic_mnist
    from repro.nn import MLP
    from repro.optim import SGD
    from repro.training import train_step

    device = lazy_device()
    data = synthetic_mnist(n=16, image_size=4)
    x, y = next(iter(data.batches(16, device=device, shuffle=False)))
    model = MLP.create(16, [8], 10, device=device, seed=0)
    optimizer = SGD(0.05)

    def step_fn(step: int) -> None:
        train_step(model, optimizer, _mlp_loss, x, y, device)

    return device, step_fn


def _build_observe_each_step_clean():
    device = lazy_device()
    state = {"w": Tensor(np.full(4, 2.0, np.float32), device)}

    def step_fn(step: int) -> None:
        loss = (state["w"] * state["w"]).sum()
        loss.item()  # observation cuts the trace; no barrier needed

    return device, step_fn


# ---------------------------------------------------------------------------
# Seeded hazards.
# ---------------------------------------------------------------------------


def _build_lr_schedule_storm():
    """A Python-side learning-rate schedule baked into the trace: the
    canonical silent-recompilation hazard."""
    device = lazy_device()
    state = {"w": Tensor(np.ones(8, np.float32), device)}

    def step_fn(step: int) -> None:
        lr = 0.1 / (1.0 + step)  # host float -> trace-embedded constant
        state["w"] = state["w"] - state["w"] * lr
        LazyTensorBarrier(device)

    return device, step_fn


def _build_step_counter_storm():
    """A step counter folded into the computation as a constant."""
    device = lazy_device()
    state = {"w": Tensor(np.ones(4, np.float32), device)}

    def step_fn(step: int) -> None:
        scaled = (state["w"] * float(step + 1)).sum()
        scaled.item()

    return device, step_fn


def _build_unrolled_no_barrier():
    """The accidental-unrolling hazard: nothing ever cuts the trace."""
    device = lazy_device()
    state = {"w": Tensor(np.ones(8, np.float32), device)}

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - state["w"] * 0.1

    return device, step_fn


def _build_auto_cut_reliance():
    """Same loop, but bounded only by the runtime's _auto_cut fallback."""
    device = lazy_device(auto_barrier_threshold=6)
    state = {"w": Tensor(np.ones(8, np.float32), device)}

    def step_fn(step: int) -> None:
        state["w"] = state["w"] - state["w"] * 0.1

    return device, step_fn


def _build_shape_drift():
    """Per-step input shapes change, so every step is a new executable."""
    device = lazy_device()

    def step_fn(step: int) -> None:
        x = Tensor(np.ones(step + 1, np.float32), device)
        (x * 2.0).sum().item()

    return device, step_fn


CLEAN_PROGRAMS = [
    TraceProgram(
        "sgd_scalar_clean",
        "scalar-rate parameter decay with a per-step barrier",
        "clean",
        6,
        _build_sgd_scalar_clean,
    ),
    TraceProgram(
        "affine_train_clean",
        "affine forward + fixed-rate update, barrier per step",
        "clean",
        6,
        _build_affine_train_clean,
    ),
    TraceProgram(
        "mlp_train_clean",
        "real train_step (gradient + SGD + automatic barrier), fixed batch",
        "clean",
        4,
        _build_mlp_train_clean,
    ),
    TraceProgram(
        "observe_each_step_clean",
        "per-step observation (.item()) cuts the trace without a barrier",
        "clean",
        6,
        _build_observe_each_step_clean,
    ),
]

HAZARD_PROGRAMS = [
    TraceProgram(
        "lr_schedule_storm",
        "host-side LR schedule embedded as a step-volatile constant",
        "volatile-constant",
        6,
        _build_lr_schedule_storm,
    ),
    TraceProgram(
        "step_counter_storm",
        "step counter folded into the trace as a constant",
        "volatile-constant",
        6,
        _build_step_counter_storm,
    ),
    TraceProgram(
        "unrolled_no_barrier",
        "no barrier, no observation: the loop unrolls without bound",
        "unbounded-growth",
        6,
        _build_unrolled_no_barrier,
    ),
    TraceProgram(
        "auto_cut_reliance",
        "trace only ever cut by the _auto_cut fallback",
        "auto-cut-reliance",
        9,
        _build_auto_cut_reliance,
    ),
    TraceProgram(
        "shape_drift",
        "per-step shapes change: structural trace instability",
        "structural-instability",
        4,
        _build_shape_drift,
    ),
]

CORPUS = Corpus("trace program", *CLEAN_PROGRAMS, *HAZARD_PROGRAMS)
PROGRAMS = CORPUS.by_name


# ---------------------------------------------------------------------------
# Hand-built trace DAGs for the pre-lowering shape checker.
# ---------------------------------------------------------------------------


def _source(shape) -> TraceNode:
    return TraceNode(
        "source", [], tuple(shape), data=np.zeros(shape, np.float32)
    )


def wellformed_trace() -> list[TraceNode]:
    a = _source((2, 3))
    b = _source((3, 4))
    mm = TraceNode("matmul", [a, b], (2, 4))
    s = TraceNode(
        "reduce", [mm], (), attrs={"kind": "sum", "axes": None, "keepdims": False}
    )
    return [s]


def malformed_matmul_trace() -> list[TraceNode]:
    """Contraction dims disagree: 3 vs 5."""
    a = _source((2, 3))
    b = _source((5, 4))
    return [TraceNode("matmul", [a, b], (2, 4))]


def misdeclared_shape_trace() -> list[TraceNode]:
    """The recorded output shape contradicts broadcast inference."""
    a = _source((2, 3))
    b = _source((2, 3))
    return [TraceNode("add", [a, b], (2, 4))]


def unknown_op_trace() -> list[TraceNode]:
    """An op with no HLO lowering must be rejected before compilation."""
    a = _source((8,))
    return [TraceNode("fft", [a], (8,))]


def bad_reshape_trace() -> list[TraceNode]:
    """Element counts disagree: 6 -> 8."""
    a = _source((2, 3))
    return [TraceNode("reshape", [a], (2, 4), attrs={"dims": (2, 4)})]


#: (name, builder, substring that must appear in the first diagnostic)
MALFORMED_TRACES = [
    ("malformed_matmul", malformed_matmul_trace, "matmul"),
    ("misdeclared_shape", misdeclared_shape_trace, "disagrees"),
    ("unknown_op", unknown_op_trace, "no HLO lowering"),
    ("bad_reshape", bad_reshape_trace, "reshape"),
]
