"""Drive the translation validator over a corpus program and cross-check it.

For every unique captured step trace: lower, (optionally) narrow with the
PR-8 naive policy, optimize, build the interpreted executable, emit the
flat-NumPy step function, and statically certify the translation — then
cross-check the certificate *dynamically* by running both halves on the
captured source data and comparing results bit for bit.  The contract:

* every clean program certifies on **every** trace with zero error
  diagnostics (no false positives);
* interpreted ≡ generated, bit-identical, on every certified trace;
* every seeded-miscompile entry has its untransformed source certify
  (the baseline) and its transformed source **rejected** with a located
  diagnostic carrying the expected verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.corpus import StepReport, diag_json
from repro.errors import Diagnostic, SourceLocation

from .miscompiles import MISCOMPILES, Miscompile
from .models import CORPUS, EquivalenceProgram  # noqa: F401  (CORPUS: a Sweep hook)
from .validator import ValidationResult, validate_translation

_MISCOMPILE_BY_NAME = {m.name: m for m in MISCOMPILES}


def _bit_identical(a, b) -> bool:
    """Nested bit-for-bit equality (tuples of arrays or single arrays)."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(_bit_identical(x, y) for x, y in zip(a, b))
        )
    x, y = np.asarray(a), np.asarray(b)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@dataclass
class TraceEquivalenceCheck:
    """The validator's verdict for one unique trace of a program."""

    trace_key: str
    generated: object  # GeneratedStep
    #: Verdict for the source under test (the *transformed* source for
    #: miscompile entries).
    result: ValidationResult
    #: Dynamic cross-check outcome (clean entries only; the seeded-bug
    #: variants are never run — the proof alone must stop them).
    bit_identical: Optional[bool] = None
    #: Certificate for the untransformed source (miscompile entries only):
    #: the zero-false-positive baseline.
    baseline: Optional[ValidationResult] = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def located(self) -> bool:
        """At least one error diagnostic names a source line."""
        return any(
            d.is_error and d.location is not None and d.location.line >= 1
            for d in self.diagnostics
        )


@dataclass
class EquivalenceReport(StepReport):
    """Everything translation validation concluded about one corpus program."""

    #: Seeded-bug diagnostics are re-badged with the bug's verdict label.
    verdict_prefixes = tuple((m.verdict, m.verdict) for m in MISCOMPILES)

    program: EquivalenceProgram
    checks: list[TraceEquivalenceCheck] = field(default_factory=list)

    @property
    def cross_check_ok(self) -> bool:
        """Static and dynamic halves agree on every trace."""
        if not self.checks:
            return False
        for c in self.checks:
            if self.program.miscompile is None:
                # Clean: certified, bit-identical, no errors at all.
                if not c.result.certified or c.bit_identical is not True:
                    return False
                if any(d.is_error for d in c.diagnostics):
                    return False
            else:
                # Seeded bug: baseline certifies, variant is rejected with
                # a located diagnostic.
                if c.baseline is None or not c.baseline.certified:
                    return False
                if c.result.certified or not c.located:
                    return False
        return True

    @property
    def certified_fraction(self) -> float:
        """Fraction of traces whose source-under-test certified."""
        if not self.checks:
            return 0.0
        good = sum(1 for c in self.checks if c.result.certified)
        return good / len(self.checks)

    def json_details(self) -> dict:
        return {
            "checks": [
                {
                    "trace_key": c.trace_key,
                    "certified": c.result.certified,
                    "checked_values": c.result.checked_values,
                    "term_count": c.result.term_count,
                    "step_fn_lines": c.generated.line_count,
                    "bit_identical": c.bit_identical,
                    "baseline_certified": (
                        None if c.baseline is None else c.baseline.certified
                    ),
                    "diagnostics": [diag_json(d) for d in c.diagnostics],
                }
                for c in self.checks
            ]
        }

    def render(self) -> str:
        lines = [
            f"equivalence report: {self.program.name}"
            f" [{self.program.description}]",
            f"  verdicts: {', '.join(sorted(self.verdicts()))}"
            f" (expected {self.program.expect});"
            f" cross-check {'OK' if self.cross_check_ok else 'FAILED'}",
        ]
        for c in self.checks:
            bits = (
                "(not run)"
                if c.bit_identical is None
                else ("bit-identical" if c.bit_identical else "BITS DIFFER")
            )
            lines.append(
                f"  trace {c.trace_key}: "
                f"{'certified' if c.result.certified else 'REJECTED'} "
                f"({c.result.checked_values} values, "
                f"{c.result.term_count} terms, "
                f"{c.generated.line_count}-line step fn); dynamic {bits}"
            )
            if c.baseline is not None:
                lines.append(
                    f"    baseline {'certified' if c.baseline.certified else 'REJECTED'}"
                    f" ({c.baseline.checked_values} values)"
                )
            for d in c.diagnostics:
                lines.append(f"    {d}")
        return "\n".join(lines)


def _schedule_module(module, param_nodes, program: EquivalenceProgram):
    """Lowered trace -> the scheduled module codegen sees, plus run args."""
    from repro.hlo.passes import optimize

    if program.narrow is not None:
        from repro.analysis.precision.casts import apply_plan, naive_assignment

        # Precision plans are authored against the unfused module (PR-8).
        module = apply_plan(module, naive_assignment(module, program.narrow))
    module = optimize(module, fuse=True)
    args = [np.array(p.data, copy=True) for p in param_nodes]
    return module, args


def _check_trace(
    key: str, module, args, program: EquivalenceProgram, location: SourceLocation
) -> TraceEquivalenceCheck:
    from repro.hlo.codegen import compile_step, emit_module
    from repro.hlo.compiler import Executable

    generated = emit_module(module, key=key)
    result = validate_translation(
        module, generated.source, generated.consts, generated.filename
    )

    if program.miscompile is None:
        bit_identical: Optional[bool] = None
        diagnostics = list(result.diagnostics)
        if result.certified:
            interpreted = Executable(module)
            expected = interpreted.run(args)
            actual = compile_step(generated)(*args)
            bit_identical = _bit_identical(expected, actual)
            if not bit_identical:
                diagnostics.append(
                    Diagnostic(
                        severity="error",
                        message=(
                            "dynamic cross-check failed: certified codegen"
                            " produced different bits than the interpreter"
                        ),
                        location=location,
                    )
                )
        return TraceEquivalenceCheck(
            trace_key=key,
            generated=generated,
            result=result,
            bit_identical=bit_identical,
            diagnostics=diagnostics,
        )

    # Seeded miscompile: the pristine source is the baseline; the transform
    # must be caught by the static proof alone.
    bug: Miscompile = _MISCOMPILE_BY_NAME[program.miscompile]
    baseline = result
    diagnostics: list[Diagnostic] = []
    transformed = bug.transform(generated.source)
    if transformed is None:
        diagnostics.append(
            Diagnostic(
                severity="error",
                message=(
                    f"miscompile {bug.name} does not apply: its pattern is"
                    f" absent from the emitted source of trace {key}"
                ),
                location=location,
            )
        )
        return TraceEquivalenceCheck(
            trace_key=key,
            generated=generated,
            result=baseline,
            baseline=baseline,
            diagnostics=diagnostics,
        )
    variant = validate_translation(
        module,
        transformed,
        generated.consts,
        f"<miscompile:{bug.name}:{key}>",
    )
    for d in variant.errors:
        # Re-badge the divergence with the seeded bug's verdict label so the
        # report (and sweep 10) can pair catches with expectations.
        diagnostics.append(
            Diagnostic(
                severity=d.severity,
                message=f"{bug.verdict}: {d.message}",
                location=d.location,
            )
        )
    if variant.certified:
        diagnostics.append(
            Diagnostic(
                severity="error",
                message=(
                    f"seeded miscompile {bug.name} was NOT caught: the"
                    " validator certified a known-bad translation"
                ),
                location=location,
            )
        )
    return TraceEquivalenceCheck(
        trace_key=key,
        generated=generated,
        result=variant,
        baseline=baseline,
        diagnostics=diagnostics,
    )


def analyze_equivalence_program(program: EquivalenceProgram) -> EquivalenceReport:
    """Capture ``program``'s traces, certify each unique one, and pit the
    certificate against the dynamic oracle (or the seeded bug)."""
    from repro.analysis.tracing.capture import unique_traces

    report = EquivalenceReport(program=program)
    for key, module, param_nodes in unique_traces(program, keep_source_data=True):
        module, args = _schedule_module(module, param_nodes, program)
        report.checks.append(
            _check_trace(key, module, args, program, program.location)
        )
    return report


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----

analyze = analyze_equivalence_program


def tally(report: EquivalenceReport, counters) -> None:
    if report.program.miscompile is not None:
        return  # a caught miscompile is counted by the sweep itself
    for check in report.checks:
        counters.codegen_modules_certified += 1
        counters.codegen_values_checked += check.result.checked_values
        counters.differential_matches += 1
