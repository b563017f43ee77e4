"""Static concurrency-safety analysis for the parallel execution engine.

Four cooperating analyses over the runtime's Python ASTs, cross-checked
against dynamic evidence from the instrumented locks
(:mod:`repro.locks`):

* :mod:`.inventory` — shared-state inventory + the ``guarded_by``
  registry: every mutable reachable from worker threads must be guarded
  by a named lock or exempt for a stated reason;
* :mod:`.lockset` — lockset race detection: every access to a guarded
  field must statically hold its lock (interprocedural entry-lockset
  fixpoint, REQUIRES contracts);
* :mod:`.lockorder` — lock-order graph: cycles are potential deadlocks;
  dynamic witness edges must be statically predicted (leaf locks exempt);
* :mod:`.determinism` — replica-merge verification: float accumulations
  must be replica-ordered, never completion-ordered.

:mod:`.models` is the seeded hazard corpus (ground truth);
:mod:`.report` assembles the combined verdicts and is the
``--concurrency`` row of the shared sweep.
"""

from .determinism import (
    MergeSpec,
    ProbeResult,
    RUNTIME_MERGES,
    verify_merges,
)
from .inventory import (
    AnalysisTarget,
    GuardRegistry,
    RUNTIME_TARGET,
    SharedField,
    build_inventory,
)
from .lockorder import LEAF_LOCKS, build_lock_order, check_static_covers_dynamic
from .lockset import Access, LocksetReport, StaticEdge, analyze_locksets
from .models import CORPUS_MODELS, CORPUS_TARGET, ConcurrencyModel
from .report import (
    ConcurrencyReport,
    analyze_corpus_model,
    analyze_runtime,
    analyze_target,
)
from .witness import (
    WitnessReport,
    run_consistent_pair,
    run_inverted_pair,
    run_runtime_witness,
)

__all__ = [
    "Access",
    "AnalysisTarget",
    "ConcurrencyModel",
    "ConcurrencyReport",
    "CORPUS_MODELS",
    "CORPUS_TARGET",
    "GuardRegistry",
    "LEAF_LOCKS",
    "LocksetReport",
    "MergeSpec",
    "ProbeResult",
    "RUNTIME_MERGES",
    "RUNTIME_TARGET",
    "SharedField",
    "StaticEdge",
    "WitnessReport",
    "analyze_corpus_model",
    "analyze_runtime",
    "analyze_target",
    "build_inventory",
    "build_lock_order",
    "check_static_covers_dynamic",
    "analyze_locksets",
    "run_consistent_pair",
    "run_inverted_pair",
    "run_runtime_witness",
    "verify_merges",
]
