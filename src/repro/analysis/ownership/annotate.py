"""Batched ownership diagnostics and per-instruction SIL annotation.

Ties the three ownership analyses together the way :mod:`repro.core.lint`
ties activity analysis to diagnostics: run everything, collect one batch of
:class:`~repro.errors.Diagnostic`, and render the verdicts inline in the
printed SIL via the printer's annotation hook::

    %5 = begin_access [modify] %0#xs, item %1#i   // exclusive
    access_store %5, %4                           // in-place
    %8 = apply @index_get(%0#xs, %1#i)            // pullback O(1): ...

``python -m repro.analysis --ownership <fn>`` prints exactly this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.ownership.aliasing import AliasInfo, analyze_aliases
from repro.analysis.ownership.borrow import BorrowReport, check_exclusivity
from repro.analysis.ownership.copies import CopyInfo, infer_copies
from repro.analysis.ownership.pullback_cost import (
    PullbackCostReport,
    analyze_pullback_cost,
)
from repro.errors import Diagnostic, VerificationError, render_diagnostics
from repro.sil import ir
from repro.sil.printer import Annotations, print_function


@dataclass
class OwnershipReport:
    """Everything the ownership analyses know about one function."""

    func: ir.Function
    aliases: AliasInfo
    borrow: BorrowReport
    copies: CopyInfo
    cost: PullbackCostReport

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return list(self.borrow.diagnostics)

    @property
    def ok(self) -> bool:
        return self.borrow.ok

    def annotations(self) -> Annotations:
        notes: Annotations = {}
        notes.update(self.cost.notes)
        notes.update(self.copies.notes)
        notes.update(self.borrow.notes)
        return notes

    def render(self) -> str:
        """Annotated SIL listing followed by the diagnostic batch."""
        parts = [print_function(self.func, self.annotations())]
        if self.diagnostics:
            parts.append(render_diagnostics(self.diagnostics))
        summary = (
            f"// {self.borrow.accesses_checked} access(es), "
            f"{self.copies.mutation_sites} mutation site(s): "
            f"{self.copies.in_place} in-place, "
            f"{self.copies.must_copy} must-copy, "
            f"{self.copies.may_copy} may-copy; "
            f"pullback {self.cost.overall} ({self.cost.style} style)"
        )
        parts.append(summary)
        return "\n".join(parts)


def analyze_ownership(
    func: ir.Function,
    wrt: Optional[Sequence[int]] = None,
    style: str = "mvs",
) -> OwnershipReport:
    """Run alias, borrow, copy, and pullback-cost analysis over ``func``."""
    aliases = analyze_aliases(func)
    return OwnershipReport(
        func=func,
        aliases=aliases,
        borrow=check_exclusivity(func, aliases),
        copies=infer_copies(func, aliases),
        cost=analyze_pullback_cost(func, wrt, style),
    )


def analyze_ownership_model(model, style: str = "mvs") -> OwnershipReport:
    """Lower and analyze one entry of :data:`.models.CORPUS`."""
    from repro.sil.frontend import lower_function

    return analyze_ownership(lower_function(model.fn), style=style)


def tally(model, report: OwnershipReport, counters) -> list[str]:
    """Hold one corpus function's report to its expected verdict, adding
    its evidence to the self-check ``counters``; returns what failed.

    Clean functions must draw no diagnostic at all, and the optimizer
    update loops must additionally be *all in-place* — the statically
    proven half of the zero-copy parameter-update claim (Section 4.3).
    Seeded violations must draw their expected severity (error = certain
    trap, warning = dynamic check required).
    """
    # Imported here: repro.core.synthesis loads this package at plan time
    # and has no use for the corpus.
    from repro.analysis.ownership.models import OPTIMIZER_MODELS

    counters.ownership_functions_checked += 1
    if model.expect == "clean":
        counters.mutation_sites_labeled += report.copies.mutation_sites
        problems = []
        if report.diagnostics:
            problems.append("false positive: " + report.diagnostics[0].message)
        copies = report.copies
        if model.name in OPTIMIZER_MODELS and (
            copies.must_copy or copies.may_copy or not copies.in_place
        ):
            problems.append("update loop not proven copy-free")
        return problems
    severities = {d.severity for d in report.diagnostics}
    if model.expect in severities:
        counters.exclusivity_violations_caught += 1
        return []
    return [
        f"expected a(n) {model.expect} verdict, "
        f"got {sorted(severities) or ['none']}"
    ]


def check_ownership(func: ir.Function) -> list[Diagnostic]:
    """Raise :class:`VerificationError` carrying every certain exclusivity
    violation; return the full diagnostic batch (warnings included)
    otherwise — the same contract as ``check_differentiability``."""
    report = analyze_ownership(func)
    errors = [d for d in report.diagnostics if d.is_error]
    if errors:
        raise VerificationError(
            f"@{func.name}: {len(errors)} exclusivity violation(s):\n"
            + render_diagnostics(errors)
        )
    return report.diagnostics
