"""Static precision-safety analysis (sweep 9).

Certifies that a mixed-precision (f16/bf16) lowering of a traced step
program is numerically safe *before* it runs, in three layers:

* :mod:`repro.analysis.precision.intervals` — a sound interval domain
  over f64 with outward rounding and non-finite poisoning;
* :mod:`repro.analysis.precision.ranges` — propagates per-value
  magnitude bounds over an HLO module schedule, modelling the rounding
  of every narrowed op (the certificate: certified ⊇ observed);
* :mod:`repro.analysis.precision.dtypeflow` — flags overflow-to-inf,
  underflow-to-zero, unsafe casts, and reductions that need f32
  accumulation, each with a located diagnostic and a fix-it;
* :mod:`repro.analysis.precision.casts` — the autocast planner: emits a
  per-op precision assignment following the AMP discipline (narrow
  compute, f32 accumulation, wide where ranges demand it) and verifies
  it clean before returning it.

The dynamic oracle (:mod:`repro.analysis.precision.oracle`) runs each
corpus trace at f64 reference precision, at the planned precision, and
under the naive narrow-everything policy, recording observed value
ranges and ULP errors under the canonical trace key; the report
(:mod:`repro.analysis.precision.report`) requires certified ⊇ observed
on every trace, hazard manifestation to agree with the static verdict,
and the memory planner's certified peak to shrink on narrowed modules.
"""

from repro.analysis.precision.casts import (
    PrecisionAssignment,
    apply_plan,
    naive_assignment,
    plan_casts,
)
from repro.analysis.precision.dtypeflow import check_dtype_flow
from repro.analysis.precision.intervals import Interval
from repro.analysis.precision.models import CORPUS, PrecisionProgram
from repro.analysis.precision.oracle import run_observed, run_reference
from repro.analysis.precision.ranges import RangeInfo, analyze_ranges
from repro.analysis.precision.report import (
    PrecisionReport,
    TracePrecisionCheck,
    analyze_precision_program,
)

__all__ = [
    "CORPUS",
    "Interval",
    "PrecisionAssignment",
    "PrecisionProgram",
    "PrecisionReport",
    "RangeInfo",
    "TracePrecisionCheck",
    "analyze_precision_program",
    "analyze_ranges",
    "apply_plan",
    "check_dtype_flow",
    "naive_assignment",
    "plan_casts",
    "run_observed",
    "run_reference",
]
