"""The combined trace-stability analysis and its dynamic cross-check.

:func:`analyze_step_program` drives a step program under the capture
harness, then runs the three static analyses over the recorded fragments:

1. shape/dtype inference (:mod:`~repro.analysis.tracing.shapes`) — every
   fragment must be well-formed before lowering;
2. cross-step canonical diffing (:mod:`~repro.analysis.tracing.stability`)
   — cache behavior proven from trace text alone;
3. growth/barrier auditing (:mod:`~repro.analysis.tracing.growth`).

Because the capture also records what the runtime *actually did* (compile
and cache-hit counters), every report carries its own falsifiability
check: ``cross_check_ok`` is true iff the static cache predictions match
the dynamic ``STATS`` deltas exactly — the same static-vs-dynamic
discipline the ownership checker applies to ``CowStats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import Diagnostic

from repro.analysis.corpus import Report
from repro.analysis.tracing.capture import (
    Fragment,
    StepTraceCapture,
    capture_step_traces,
)
from repro.analysis.tracing.growth import GrowthReport, analyze_growth
from repro.analysis.tracing.models import CORPUS, TraceProgram  # noqa: F401  (CORPUS: a Sweep hook)
from repro.analysis.tracing.shapes import infer_trace_shapes
from repro.analysis.tracing.stability import StabilityReport, analyze_stability


def fingerprint_of_fragment(fragment: Fragment) -> str:
    """The *dynamic* cache key: lower the snapshot to HLO and fingerprint
    it, exactly as ``compile_module`` would.  Used to cross-validate the
    static canonical key's equivalence claims."""
    from repro.hlo.compiler import fingerprint
    from repro.tensor.lazy_backend import _lower_to_hlo

    module, _params = _lower_to_hlo(fragment.to_trace_nodes())
    return fingerprint(module)


@dataclass
class TraceStabilityReport(Report):
    """Everything proven (and observed) about one step program."""

    program: str
    capture: StepTraceCapture
    stability: StabilityReport
    growth: GrowthReport
    shape_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: The corpus verdict this program must get (``None``: not a corpus entry).
    expect: Optional[str] = None

    @property
    def name(self) -> str:
        return self.program

    # -- static predictions vs dynamic observation ---------------------------

    @property
    def predicted_compiles(self) -> int:
        return self.stability.predicted_compiles

    @property
    def predicted_cache_hits(self) -> int:
        return self.stability.predicted_cache_hits

    @property
    def dynamic_compiles(self) -> int:
        return self.capture.dynamic_compiles

    @property
    def dynamic_cache_hits(self) -> int:
        return self.capture.dynamic_cache_hits

    @property
    def cross_check_ok(self) -> bool:
        """Static cache predictions match the instrumented runtime exactly."""
        return (
            self.predicted_compiles == self.dynamic_compiles
            and self.predicted_cache_hits == self.dynamic_cache_hits
            and self.stability.predicted_unique_keys
            == self.capture.dynamic_new_cache_entries
        )

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return (
            list(self.shape_diagnostics)
            + list(self.stability.diagnostics)
            + list(self.growth.diagnostics)
        )

    @property
    def ok(self) -> bool:
        return self.cross_check_ok and not any(
            d.is_error for d in self.diagnostics
        )

    def verdicts(self) -> set[str]:
        """The hazard classes found (``{"clean"}`` when none)."""
        found: set[str] = set()
        if self.stability.volatile_constants:
            found.add("volatile-constant")
        if self.stability.structurally_unstable_slots:
            found.add("structural-instability")
        if not self.growth.bounded:
            found.add("unbounded-growth")
        if self.growth.auto_cut_only:
            found.add("auto-cut-reliance")
        if any(d.is_error for d in self.shape_diagnostics):
            found.add("malformed-trace")
        return found or {"clean"}

    def located_errors(self) -> list[Diagnostic]:
        """Trace diagnostics point at a fragment slot of ``<trace>`` (slot
        0 included) rather than a source line, and ``auto-cut-reliance``
        is warning-severity by design: everything but a note counts."""
        return [d for d in self.diagnostics if d.severity != "note"]

    def json_details(self) -> dict:
        return {
            "predicted_compiles": self.predicted_compiles,
            "dynamic_compiles": self.dynamic_compiles,
            "predicted_cache_hits": self.predicted_cache_hits,
            "dynamic_cache_hits": self.dynamic_cache_hits,
            **super().json_details(),
        }

    def render(self) -> str:
        check = "MATCH" if self.cross_check_ok else "MISMATCH"
        lines = [
            f"== trace-stability analysis: {self.program} ==",
            f"verdicts:                {', '.join(sorted(self.verdicts()))}",
            "",
            self.stability.render(),
            "",
            self.growth.render(),
            "",
            "static prediction vs dynamic runtime: " + check,
            f"  compiles:   predicted {self.predicted_compiles}, "
            f"observed {self.dynamic_compiles}",
            f"  cache hits: predicted {self.predicted_cache_hits}, "
            f"observed {self.dynamic_cache_hits}",
            f"  executables: predicted {self.stability.predicted_unique_keys}, "
            f"cached {self.capture.dynamic_new_cache_entries}",
        ]
        if self.shape_diagnostics:
            lines.append("")
            lines.extend(str(d) for d in self.shape_diagnostics)
        return "\n".join(lines)


def analyze_step_program(
    step_fn,
    steps: int,
    device,
    name: str = "<program>",
    isolate_cache: bool = True,
    expect: Optional[str] = None,
) -> TraceStabilityReport:
    """Capture ``steps`` iterations of ``step_fn`` on ``device`` and run
    the full static analysis over the recorded fragments."""
    capture = capture_step_traces(
        step_fn, steps, device, isolate_cache=isolate_cache
    )
    shape_diagnostics: list[Diagnostic] = []
    for record in capture.fragments:
        shape_diagnostics.extend(infer_trace_shapes(record.fragment.roots))
    return TraceStabilityReport(
        program=name,
        capture=capture,
        stability=analyze_stability(capture),
        growth=analyze_growth(capture),
        shape_diagnostics=shape_diagnostics,
        expect=expect,
    )


def analyze_trace_program(program: TraceProgram) -> TraceStabilityReport:
    """Build and analyze one corpus entry."""
    device, step_fn = program.build()
    return analyze_step_program(
        step_fn, program.steps, device, name=program.name, expect=program.expect
    )


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----

analyze = analyze_trace_program


def tally(report: TraceStabilityReport, counters) -> None:
    """Sweep 5's evidence: the exact cache prediction, plus — on every
    captured fragment pair — agreement between the static canonical key
    and the dynamic HLO fingerprint (the equivalence claim itself)."""
    counters.trace_predictions_matched += 1
    keys = [f.canonical.key for f in report.stability.fragments]
    prints = [fingerprint_of_fragment(r.fragment) for r in report.capture.fragments]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            static_eq = keys[i] == keys[j]
            dynamic_eq = prints[i] == prints[j]
            if static_eq == dynamic_eq:
                counters.trace_fragments_cross_validated += 1
            else:
                counters.failures.append(
                    f"trace program {report.program!r}: canonical keys of "
                    f"fragments {i} and {j} "
                    f"{'agree' if static_eq else 'differ'} but their HLO "
                    f"fingerprints {'agree' if dynamic_eq else 'differ'}"
                )
