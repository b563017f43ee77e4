"""Cross-layer static analysis: verifiers, linters, and per-pass checking.

The subsystem spans the three IR layers of the reproduction:

* **SIL** — structural SSA verification (:func:`repro.sil.verify.verify`)
  plus typed checking of operand/result arity and dtypes
  (:func:`repro.sil.typecheck.typecheck` / ``verify_typed``);
* **HLO** — whole-module verification re-running shape inference and
  checking DAG/fusion well-formedness (:func:`repro.hlo.verify.verify_module`);
* **AD core** — the differentiability linter collecting batched
  pre-synthesis diagnostics (:func:`repro.core.lint.lint_function` /
  ``check_differentiability``);
* **per-pass attribution** — ``verify_each`` mode for both pass pipelines
  (:mod:`repro.analysis.attribution`), naming the offending pass on failure;
* **ownership** — static mutable-value-semantics checking
  (:mod:`repro.analysis.ownership`): alias/escape analysis, the borrow
  checker proving the law of exclusivity over formal access scopes,
  copy-materialization inference, and the Appendix-B pullback cost
  analyzer;
* **tracing** — static trace-stability analysis for LazyTensor
  (:mod:`repro.analysis.tracing`): cache-key canonicalization with an
  executable-equivalence checker, the retrace-storm detector with
  promote-to-input fix-its, the unrolling/barrier analyzer, and forward
  shape/dtype inference over TraceNode DAGs before lowering;
* **derivatives** — static derivative-correctness verification
  (:mod:`repro.analysis.derivatives`): pullback linearity by abstract
  interpretation, JVP/VJP transpose consistency (⟨Jv, w⟩ = ⟨v, Jᵀw⟩),
  pullback-record typing against tangent spaces, and the cotangent
  liveness analysis behind ``vjp_plan(..., prune_captures=True)`` — all
  cross-checked against seeded numeric probes;
* **concurrency** — static concurrency-safety analysis for the parallel
  engine (:mod:`repro.analysis.concurrency`): the shared-state inventory
  with its ``guarded_by`` registry, lockset race detection over Python
  ASTs, the lock-order deadlock graph cross-checked against the
  instrumented-lock dynamic witness, and replica-merge determinism
  verification;
* **memory** — static memory planning for HLO
  (:mod:`repro.analysis.memory`): instruction-level liveness over module
  schedules, interval-coloring buffer assignment with safe in-place
  donations, peak-memory certification with per-pass attribution
  (cross-checked against the runtime tracker: sound everywhere, exact on
  straight-line traces), and over-budget diagnostics with
  recompute-or-spill fix-its.

``python -m repro.analysis --list`` prints every subsystem flag and its
bundled programs; ``--self-check`` runs everything (see
:mod:`repro.analysis.__main__` for the CLI and :mod:`repro.analysis.corpus`
for the corpus/report/sweep protocol the subsystems share).

This ``__init__`` resolves its re-exports lazily: the pass pipelines import
:mod:`repro.analysis.attribution` at module load, and an eager init here
would cycle back into ``repro.sil``/``repro.hlo``.
"""

from __future__ import annotations

from repro.analysis.attribution import (  # noqa: F401  (import-light)
    attribute_failure,
    set_verify_each,
    verify_each,
    verify_each_enabled,
)

_LAZY = {
    "typecheck": ("repro.sil.typecheck", "typecheck"),
    "verify_typed": ("repro.sil.typecheck", "verify_typed"),
    "verify_sil": ("repro.sil.verify", "verify"),
    "verify_module": ("repro.hlo.verify", "verify_module"),
    "verify_computation": ("repro.hlo.verify", "verify_computation"),
    "lint_function": ("repro.core.lint", "lint_function"),
    "check_differentiability": ("repro.core.lint", "check_differentiability"),
    "self_check": ("repro.analysis.selfcheck", "self_check"),
    "SelfCheckReport": ("repro.analysis.selfcheck", "SelfCheckReport"),
    "analyze_aliases": ("repro.analysis.ownership", "analyze_aliases"),
    "analyze_ownership": ("repro.analysis.ownership", "analyze_ownership"),
    "analyze_pullback_cost": ("repro.analysis.ownership", "analyze_pullback_cost"),
    "check_exclusivity": ("repro.analysis.ownership", "check_exclusivity"),
    "check_ownership": ("repro.analysis.ownership", "check_ownership"),
    "infer_copies": ("repro.analysis.ownership", "infer_copies"),
    "OwnershipReport": ("repro.analysis.ownership", "OwnershipReport"),
    "analyze_stability": ("repro.analysis.tracing", "analyze_stability"),
    "analyze_growth": ("repro.analysis.tracing", "analyze_growth"),
    "analyze_step_program": ("repro.analysis.tracing", "analyze_step_program"),
    "analyze_trace_program": ("repro.analysis.tracing", "analyze_trace_program"),
    "canonicalize": ("repro.analysis.tracing", "canonicalize"),
    "cache_key": ("repro.analysis.tracing", "cache_key"),
    "capture_step_traces": ("repro.analysis.tracing", "capture_step_traces"),
    "check_trace": ("repro.analysis.tracing", "check_trace"),
    "infer_trace_shapes": ("repro.analysis.tracing", "infer_trace_shapes"),
    "traces_equivalent": ("repro.analysis.tracing", "traces_equivalent"),
    "CanonicalTrace": ("repro.analysis.tracing", "CanonicalTrace"),
    "TraceStabilityReport": ("repro.analysis.tracing", "TraceStabilityReport"),
    "analyze_capture_liveness": (
        "repro.analysis.derivatives",
        "analyze_capture_liveness",
    ),
    "analyze_derivative_model": (
        "repro.analysis.derivatives",
        "analyze_derivative_model",
    ),
    "check_pullback_linearity": (
        "repro.analysis.derivatives",
        "check_pullback_linearity",
    ),
    "check_record_typing": ("repro.analysis.derivatives", "check_record_typing"),
    "check_transpose": ("repro.analysis.derivatives", "check_transpose"),
    "prunable_instruction_ids": (
        "repro.analysis.derivatives",
        "prunable_instruction_ids",
    ),
    "verify_derivatives": ("repro.analysis.derivatives", "verify_derivatives"),
    "DerivativeReport": ("repro.analysis.derivatives", "DerivativeReport"),
    "analyze_runtime": ("repro.analysis.concurrency", "analyze_runtime"),
    "analyze_locksets": ("repro.analysis.concurrency", "analyze_locksets"),
    "build_inventory": ("repro.analysis.concurrency", "build_inventory"),
    "build_lock_order": ("repro.analysis.concurrency", "build_lock_order"),
    "verify_merges": ("repro.analysis.concurrency", "verify_merges"),
    "ConcurrencyReport": ("repro.analysis.concurrency", "ConcurrencyReport"),
    "GuardRegistry": ("repro.analysis.concurrency", "GuardRegistry"),
    "analyze_liveness": ("repro.analysis.memory", "analyze_liveness"),
    "plan_buffers": ("repro.analysis.memory", "plan_buffers"),
    "validate_plan": ("repro.analysis.memory", "validate_plan"),
    "certify": ("repro.analysis.memory", "certify"),
    "certify_module": ("repro.analysis.memory", "certify_module"),
    "attribute_passes": ("repro.analysis.memory", "attribute_passes"),
    "analyze_memory_program": ("repro.analysis.memory", "analyze_memory_program"),
    "buffer_annotations": ("repro.analysis.memory", "buffer_annotations"),
    "MemoryPlan": ("repro.analysis.memory", "MemoryPlan"),
    "MemoryPlanReport": ("repro.analysis.memory", "MemoryPlanReport"),
    "PeakCertificate": ("repro.analysis.memory", "PeakCertificate"),
}

__all__ = [
    "attribute_failure",
    "set_verify_each",
    "verify_each",
    "verify_each_enabled",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
