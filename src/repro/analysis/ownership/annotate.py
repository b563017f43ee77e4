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

from repro.analysis.corpus import Report
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
class OwnershipReport(Report):
    """Everything the ownership analyses know about one function.

    Its verdicts are the severities the borrow checker draws: ``error``
    for a certain violation, ``warning`` for one that needs the dynamic
    check, ``clean`` for none.  There is no dynamic cross-check here
    (``tests/analysis/test_ownership.py`` runs the programs instead).
    """

    json_label = "function"
    #: A certain violation may come with may-conflicts beside it.
    extra_verdicts_ok = True
    cross_check_ok = True

    func: ir.Function
    aliases: AliasInfo
    borrow: BorrowReport
    copies: CopyInfo
    cost: PullbackCostReport
    #: The corpus verdict this function must get (``None``: not a corpus entry).
    expect: Optional[str] = None
    #: Whether every mutation site must be proven in-place (the optimizer
    #: update loops: the static half of Section 4.3's zero-copy claim).
    copy_free: bool = False

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return list(self.borrow.diagnostics)

    @property
    def ok(self) -> bool:
        return self.borrow.ok

    def verdicts(self) -> set[str]:
        return {d.severity for d in self.diagnostics} or {"clean"}

    def located_errors(self) -> list[Diagnostic]:
        """A may-conflict is a warning yet it is the caught hazard all the
        same: a located diagnostic of the expected severity counts."""
        return [
            d
            for d in self.diagnostics
            if d.severity == self.expect and d.location.line > 0
        ]

    def problems(self) -> list[str]:
        """:meth:`Report.problems`, plus what only this analysis claims: an
        update loop is copy-free, and a function from outside the corpus
        keeps the law of exclusivity."""
        found = super().problems()
        copies = self.copies
        if self.copy_free and (
            copies.must_copy or copies.may_copy or not copies.in_place
        ):
            found.append("update loop not proven copy-free")
        if self.expect is None:
            found.extend(
                "exclusivity violation: " + d.message
                for d in self.diagnostics
                if d.is_error
            )
        return found

    def json_details(self) -> dict:
        return {
            "mutation_sites": self.copies.mutation_sites,
            "must_copy": self.copies.must_copy,
            "may_copy": self.copies.may_copy,
            "in_place": self.copies.in_place,
            **super().json_details(),
        }

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
