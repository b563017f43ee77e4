"""Drive the memory planner over a corpus program and cross-check it.

For every captured step trace: lower, optimize (recording per-pass peak
attribution), run liveness + buffer assignment + validation + peak
certification + budget checking — then compare the certificate against
the dynamic oracle, the per-trace transient peak
:class:`repro.runtime.memory.TraceAttribution` recorded while the program
actually ran.  The contract:

* ``certified >= observed`` on **every** trace (soundness);
* ``certified == observed`` on straight-line traces (exactness);
* clean programs produce zero error diagnostics; seeded hazards produce
  exactly their expected verdict, located in the corpus source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.corpus import StepReport, diag_json
from repro.errors import Diagnostic

from .bufferplan import MemoryPlan, plan_buffers, validate_plan
from .liveness import LivenessInfo, analyze_liveness
from .models import CORPUS, MemoryProgram  # noqa: F401  (CORPUS: a Sweep hook)
from .peak import PassAttribution, PeakCertificate, attribute_passes, certify
from .remat import RematCandidate, budget_diagnostics


@dataclass
class TraceMemoryCheck:
    """The planner's verdict for one unique trace of a program."""

    trace_key: str
    liveness: LivenessInfo
    plan: MemoryPlan
    certificate: PeakCertificate
    pass_attribution: PassAttribution
    observed_peak_bytes: Optional[int]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    remat: list[RematCandidate] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        """certified >= observed (the bound held)."""
        return (
            self.observed_peak_bytes is not None
            and self.certificate.certified_peak_bytes
            >= self.observed_peak_bytes
        )

    @property
    def exact(self) -> bool:
        return (
            self.observed_peak_bytes is not None
            and self.certificate.certified_peak_bytes
            == self.observed_peak_bytes
        )


@dataclass
class MemoryPlanReport(StepReport):
    """Everything the memory analysis concluded about one corpus program."""

    verdict_prefixes = (
        ("tuple-aliasing", "tuple-aliasing"),
        ("unsafe in-place", "unsafe-in-place"),
        ("unsafe buffer reuse", "unsafe-reuse"),
        ("over budget", "over-budget"),
    )

    program: MemoryProgram
    checks: list[TraceMemoryCheck] = field(default_factory=list)

    @property
    def cross_check_ok(self) -> bool:
        """Static and dynamic halves agree: every trace's bound held, was
        exact when the trace is straight-line, and the corpus declaration
        of straight-line-ness matches what liveness derived."""
        if not self.checks:
            return False
        for c in self.checks:
            if not c.sound:
                return False
            if c.liveness.straight_line != self.program.straight_line:
                return False
            if c.liveness.straight_line and not c.exact:
                return False
        return True

    @property
    def reuse_factor(self) -> float:
        factors = [c.certificate.reuse_factor for c in self.checks]
        return max(factors) if factors else 1.0

    def json_details(self) -> dict:
        return {
            "reuse_factor": self.reuse_factor,
            "checks": [
                {
                    "trace_key": c.trace_key,
                    "certified_peak_bytes": c.certificate.certified_peak_bytes,
                    "observed_peak_bytes": c.observed_peak_bytes,
                    "sound": c.sound,
                    "exact": c.exact,
                    "planned_pool_bytes": c.certificate.planned_pool_bytes,
                    "naive_bytes": c.certificate.naive_bytes,
                    "buffers_reused": c.plan.buffers_reused,
                    "diagnostics": [diag_json(d) for d in c.diagnostics],
                }
                for c in self.checks
            ],
        }

    def render(self) -> str:
        lines = [
            f"memory plan report: {self.program.name}"
            f" [{self.program.description}]",
            f"  verdicts: {', '.join(sorted(self.verdicts()))}"
            f" (expected {self.program.expect});"
            f" cross-check {'OK' if self.cross_check_ok else 'FAILED'}",
        ]
        for c in self.checks:
            observed = (
                f"{c.observed_peak_bytes} B"
                if c.observed_peak_bytes is not None
                else "(not observed)"
            )
            relation = "==" if c.exact else (">=" if c.sound else "<!")
            lines.append(
                f"  trace {c.trace_key}: certified "
                f"{c.certificate.certified_peak_bytes} B {relation} "
                f"observed {observed}; pool {c.certificate.planned_pool_bytes}"
                f" B of {c.certificate.naive_bytes} B no-reuse "
                f"(reuse {c.certificate.reuse_factor:.2f}x, "
                f"{c.plan.buffers_reused} values share buffers)"
            )
            for e in c.pass_attribution.effects:
                sign = "+" if e.delta > 0 else ""
                lines.append(
                    f"    pass {e.pass_name}: {sign}{e.delta} B"
                    f" -> {e.peak_after} B"
                )
            for d in c.diagnostics:
                lines.append(f"    {d}")
        return "\n".join(lines)


def analyze_memory_program(program: MemoryProgram) -> MemoryPlanReport:
    """Run ``program`` under the dynamic oracle, then certify every unique
    trace it produced and cross-check the two."""
    from repro.analysis.tracing.capture import unique_traces
    from repro.runtime import memory as runtime_memory

    with runtime_memory.trace_attribution() as attribution:
        traces = unique_traces(program)

    location = program.location
    report = MemoryPlanReport(program=program)
    for key, module, _params in traces:
        pass_attribution = attribute_passes(module)
        liveness = analyze_liveness(module)
        plan = plan_buffers(liveness, trace_key=key)
        if program.corrupt is not None:
            plan = program.corrupt(liveness, plan)
        diagnostics = validate_plan(liveness, plan, location=location)
        certificate = certify(liveness, plan, trace_key=key)
        budget_diags, remat = budget_diagnostics(
            liveness, certificate, program.budget_bytes, location=location
        )
        diagnostics.extend(budget_diags)
        report.checks.append(
            TraceMemoryCheck(
                trace_key=key,
                liveness=liveness,
                plan=plan,
                certificate=certificate,
                pass_attribution=pass_attribution,
                observed_peak_bytes=attribution.peak_for(key),
                diagnostics=diagnostics,
                remat=remat,
            )
        )
    return report


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----

analyze = analyze_memory_program


def tally(report: MemoryPlanReport, counters) -> None:
    for check in report.checks:
        counters.peak_bounds_certified += 1
        counters.exact_peak_matches += check.liveness.straight_line
        counters.buffers_reused += check.plan.buffers_reused


def buffer_annotations(module) -> dict[int, str]:
    """Per-instruction planner annotations for the IR printer."""
    liveness = analyze_liveness(module)
    plan = plan_buffers(liveness)
    notes: dict[int, str] = {}
    for inst in liveness.schedule:
        v = liveness.values[inst.id]
        if v.category == "resident":
            notes[inst.id] = "{resident}"
        elif v.category == "alias":
            roots = ", ".join(
                f"%{liveness.values[r].name}" for r in v.storage_roots
            )
            notes[inst.id] = f"{{alias of {roots}}}" if roots else "{alias}"
        else:
            a = plan.assignments[inst.id]
            start, end = liveness.intervals[inst.id]
            note = f"{{buf={a.buffer}, live=[{start}..{end}]"
            if a.donated_from is not None:
                donor = liveness.values[a.donated_from].name
                note += f", in-place of %{donor}"
            notes[inst.id] = note + "}"
    return notes
