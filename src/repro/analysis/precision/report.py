"""Drive the precision analysis over a corpus program and cross-check it.

For every unique captured trace of a program:

1. lower to (f32) HLO and run the interval analysis with parameter
   intervals taken from the *real* source data;
2. audit the **naive** narrow-everything lowering — the dtype-flow
   checker's verdicts here are the program's static verdicts (hazards
   must be caught, clean programs must produce zero diagnostics);
3. build the **planned** lowering (:func:`plan_casts` + ``apply_plan``)
   and require it to re-check clean — the plan is a certificate, not a
   suggestion;
4. run the dynamic oracle three ways — f64 reference, naive, planned —
   and require, per instruction, certified ⊇ observed on every run
   (NaN observed only where the certified interval is poisoned);
5. confirm the static verdict *manifests* dynamically: seeded
   overflow/unsafe-cast programs must actually produce non-finite
   outputs under the naive lowering, underflow/drift programs must
   actually lose accuracy, and clean programs must stay accurate under
   both lowerings;
6. certify the memory planner's peak on the original and the planned
   module — narrowing must be visible in bytes, not just in dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.corpus import StepReport
from repro.errors import Diagnostic
from repro.hlo.dtypes import finfo
from repro.hlo.ir import HloModule

from .casts import PrecisionAssignment, apply_plan, naive_assignment, plan_casts
from .dtypeflow import VERDICT_PREFIXES, check_dtype_flow
from .intervals import Interval
from .models import CORPUS, PrecisionProgram  # noqa: F401  (CORPUS: a Sweep hook)
from .oracle import OracleRun, OutputError, output_errors, run_observed, run_reference
from .ranges import RangeInfo, analyze_ranges


def accuracy_tolerance(policy: str) -> float:
    """Max acceptable scaled output error of a *clean* narrowed run:
    16 rounding steps of the policy dtype (f16 ≈ 1.6 %, bf16 ≈ 12.5 %)."""
    return 16.0 * finfo(policy).eps


@dataclass
class TracePrecisionCheck:
    """The precision verdict for one unique trace of a program."""

    trace_key: str
    policy: str
    expect: str
    naive_plan: PrecisionAssignment
    planned_plan: PrecisionAssignment
    #: The static verdicts: dtype-flow diagnostics of the naive lowering.
    diagnostics: list[Diagnostic]
    #: Must be empty — the planner's output re-checked clean.
    planned_diagnostics: list[Diagnostic]
    #: certified ⊉ observed violations across all three oracle runs.
    containment_failures: list[str]
    naive_error: OutputError
    planned_error: OutputError
    #: Memory planner's certified transient peak, original vs planned.
    f32_peak_bytes: int
    planned_peak_bytes: int

    @property
    def contained(self) -> bool:
        return not self.containment_failures

    @property
    def bytes_saved(self) -> int:
        return self.f32_peak_bytes - self.planned_peak_bytes

    @property
    def manifestation_agrees(self) -> bool:
        """The naive run's dynamic behaviour matches the static verdict."""
        tol = accuracy_tolerance(self.policy)
        e = self.naive_error
        if self.expect == "clean":
            return not e.introduced_nonfinite and e.max_scaled <= tol
        if self.expect in ("overflow", "unsafe-cast"):
            return e.introduced_nonfinite
        return e.max_scaled > tol  # underflow, accum-drift

    @property
    def planned_ok(self) -> bool:
        """The plan checked clean statically and ran accurately."""
        tol = accuracy_tolerance(self.policy)
        return (
            not any(d.is_error for d in self.planned_diagnostics)
            and not self.planned_error.introduced_nonfinite
            and self.planned_error.max_scaled <= tol
        )


@dataclass
class PrecisionReport(StepReport):
    """Everything the precision analysis concluded about one program."""

    verdict_prefixes = VERDICT_PREFIXES
    #: e.g. an unsafe cast's out-of-range value also overflows downstream.
    extra_verdicts_ok = True

    program: PrecisionProgram
    checks: list[TracePrecisionCheck] = field(default_factory=list)

    @property
    def cross_check_ok(self) -> bool:
        """Static and dynamic halves agree on every trace: certificates
        contain every observed value, the statically predicted hazard (or
        its absence) manifests under the naive lowering, and the planned
        lowering is both clean and accurate."""
        if not self.checks:
            return False
        return all(
            c.contained and c.manifestation_agrees and c.planned_ok
            for c in self.checks
        )

    @property
    def bytes_saved(self) -> int:
        return max((c.bytes_saved for c in self.checks), default=0)

    def render(self) -> str:
        lines = [
            f"precision report: {self.program.name}"
            f" [{self.program.description}] policy={self.program.policy}",
            f"  verdicts: {', '.join(sorted(self.verdicts()))}"
            f" (expected {self.program.expect});"
            f" cross-check {'OK' if self.cross_check_ok else 'FAILED'}",
        ]
        for c in self.checks:
            lines.append(
                f"  trace {c.trace_key}: plan {c.planned_plan.summary()}"
            )
            lines.append(
                f"    naive run:   scaled err {c.naive_error.max_scaled:.3g}, "
                f"{c.naive_error.max_ulp:.3g} ULP"
                + (", non-finite" if c.naive_error.introduced_nonfinite else "")
                + f"; manifestation {'agrees' if c.manifestation_agrees else 'DISAGREES'}"
            )
            lines.append(
                f"    planned run: scaled err {c.planned_error.max_scaled:.3g}, "
                f"{c.planned_error.max_ulp:.3g} ULP"
                + (", non-finite" if c.planned_error.introduced_nonfinite else "")
                + f"; {'clean' if c.planned_ok else 'NOT CLEAN'}"
            )
            lines.append(
                f"    certified ⊇ observed: "
                f"{'OK' if c.contained else 'VIOLATED'}; "
                f"peak {c.f32_peak_bytes} B -> {c.planned_peak_bytes} B"
                f" ({c.bytes_saved:+d} B saved)"
            )
            for failure in c.containment_failures:
                lines.append(f"    {failure}")
            for d in c.diagnostics:
                lines.append(f"    {d}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "program": self.program.name,
            "description": self.program.description,
            "policy": self.program.policy,
            "expect": self.program.expect,
            "verdicts": sorted(self.verdicts()),
            "verdict_matches": self.verdict_matches,
            "cross_check_ok": self.cross_check_ok,
            "bytes_saved": self.bytes_saved,
            "traces": [
                {
                    "trace_key": c.trace_key,
                    "plan": c.planned_plan.summary(),
                    "contained": c.contained,
                    "containment_failures": list(c.containment_failures),
                    "manifestation_agrees": c.manifestation_agrees,
                    "planned_ok": c.planned_ok,
                    "naive_error": {
                        "max_scaled": c.naive_error.max_scaled,
                        "max_ulp": c.naive_error.max_ulp,
                        "nonfinite": c.naive_error.introduced_nonfinite,
                    },
                    "planned_error": {
                        "max_scaled": c.planned_error.max_scaled,
                        "max_ulp": c.planned_error.max_ulp,
                        "nonfinite": c.planned_error.introduced_nonfinite,
                    },
                    "f32_peak_bytes": c.f32_peak_bytes,
                    "planned_peak_bytes": c.planned_peak_bytes,
                    "diagnostics": [d.message for d in c.diagnostics],
                }
                for c in self.checks
            ],
        }


def _containment(
    module: HloModule, ranges: RangeInfo, run: OracleRun, label: str
) -> list[str]:
    failures: list[str] = []
    for inst in module.schedule():
        stats = run.observed.get(inst.id)
        if stats is None:
            continue
        cert = ranges.intervals.get(inst.id)
        if cert is None:
            continue
        if stats.has_nan:
            if not cert.poisoned:
                failures.append(
                    f"{label}: %{inst.name} observed NaN but certified "
                    f"{cert} is not poisoned"
                )
            continue
        if not (cert.contains(stats.lo) and cert.contains(stats.hi)):
            failures.append(
                f"{label}: %{inst.name} observed [{stats.lo:.6g}, "
                f"{stats.hi:.6g}] escapes certified {cert}"
            )
    return failures


def _certified_peak(module: HloModule, trace_key: str) -> int:
    from repro.analysis.memory.peak import certify_module

    return certify_module(module, trace_key=trace_key).certified_peak_bytes


def analyze_precision_program(program: PrecisionProgram) -> PrecisionReport:
    """Run ``program`` and audit every unique trace it produced."""
    from repro.analysis.tracing.capture import unique_traces

    location = program.location
    report = PrecisionReport(program=program)
    for key, module, param_nodes in unique_traces(program, keep_source_data=True):
        args = [np.asarray(p.data, np.float32) for p in param_nodes]
        param_intervals = {
            i: Interval.of_array(a) for i, a in enumerate(args)
        }

        base_ranges = analyze_ranges(module, param_intervals)
        reference = run_reference(module, args)

        naive = naive_assignment(module, program.policy)
        naive_module = apply_plan(module, naive)
        naive_ranges = analyze_ranges(naive_module, param_intervals)
        diagnostics = check_dtype_flow(naive_module, naive_ranges, location)
        naive_run = run_observed(naive_module, args)

        plan = plan_casts(module, program.policy, base_ranges)
        planned_module = apply_plan(module, plan)
        planned_ranges = analyze_ranges(planned_module, param_intervals)
        planned_diags = check_dtype_flow(planned_module, planned_ranges, location)
        planned_run = run_observed(planned_module, args)

        failures = (
            _containment(module, base_ranges, reference, "reference")
            + _containment(naive_module, naive_ranges, naive_run, "naive")
            + _containment(planned_module, planned_ranges, planned_run, "planned")
        )
        report.checks.append(
            TracePrecisionCheck(
                trace_key=key,
                policy=program.policy,
                expect=program.expect,
                naive_plan=naive,
                planned_plan=plan,
                diagnostics=diagnostics,
                planned_diagnostics=planned_diags,
                containment_failures=failures,
                naive_error=output_errors(naive_run, reference, program.policy),
                planned_error=output_errors(planned_run, reference, program.policy),
                f32_peak_bytes=_certified_peak(module, key),
                planned_peak_bytes=_certified_peak(planned_module, key),
            )
        )
    return report


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----

analyze = analyze_precision_program


def tally(report: PrecisionReport, counters) -> None:
    counters.intervals_contained += len(report.checks)
    counters.autocast_plans_verified += len(report.checks)
    counters.narrow_peak_bytes_saved += max(report.bytes_saved, 0)
