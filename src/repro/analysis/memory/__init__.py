"""Static memory planning for HLO: liveness, buffer reuse, and
peak-memory certification.

The sixth analysis subsystem.  Given an optimized HLO module (and its
schedule — the exact order ``Executable.run`` evaluates), it computes
instruction-level liveness intervals (:mod:`.liveness`), colors
non-overlapping intervals into a reused buffer pool with safe in-place
donations (:mod:`.bufferplan`), folds the result into a static
peak-bytes certificate with per-pass attribution (:mod:`.peak`), and
flags over-budget traces with recompute-or-spill fix-its (:mod:`.remat`).

The dynamic half lives in :mod:`repro.runtime.memory`: inside a
``trace_attribution`` scope the executor tracks every owning
intermediate, and the seeded corpus (:mod:`.models`) requires
``certified >= observed`` everywhere and exact equality on straight-line
traces (:mod:`.report`).
"""

from .bufferplan import (
    BufferAssignment,
    MemoryPlan,
    plan_buffers,
    validate_plan,
)
from .liveness import LivenessInfo, ValueInfo, analyze_liveness
from .models import CORPUS, MemoryProgram
from .peak import (
    PassAttribution,
    PeakCertificate,
    attribute_passes,
    certify,
    certify_module,
)
from .remat import RematCandidate, budget_diagnostics, remat_candidates
from .report import (
    MemoryPlanReport,
    TraceMemoryCheck,
    analyze_memory_program,
    buffer_annotations,
)

__all__ = [
    "BufferAssignment",
    "MemoryPlan",
    "plan_buffers",
    "validate_plan",
    "LivenessInfo",
    "ValueInfo",
    "analyze_liveness",
    "CORPUS",
    "MemoryProgram",
    "PassAttribution",
    "PeakCertificate",
    "attribute_passes",
    "certify",
    "certify_module",
    "RematCandidate",
    "budget_diagnostics",
    "remat_candidates",
    "MemoryPlanReport",
    "TraceMemoryCheck",
    "analyze_memory_program",
    "buffer_annotations",
]
