"""Combined concurrency-safety report: inventory, locksets, order, merges.

``analyze_runtime`` runs the full pipeline over the real parallel
engine: shared-state inventory, lockset race analysis, lock-order graph
(optionally cross-checked against a live dynamic witness run), and
merge-determinism verification.  The runtime must come back **clean**:
zero unregistered fields, zero unguarded accesses, an acyclic lock-order
graph, no order-sensitive merges, and every static-vs-dynamic
cross-check agreeing.

``analyze_corpus`` runs the same analyzers over the seeded hazard corpus
(:mod:`.models`) and checks each model produces *exactly* its expected
verdict — hazards caught with located diagnostics, clean models silent.
That closes the loop on both false negatives and false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.corpus import Corpus
from repro.errors import Diagnostic

from .determinism import DeterminismReport, verify_merges, RUNTIME_MERGES
from .inventory import (
    AnalysisTarget,
    InventoryReport,
    RUNTIME_TARGET,
    build_inventory,
)
from .lockorder import LockOrderReport, build_lock_order
from .lockset import Access, LocksetReport, StaticEdge, analyze_locksets
from .models import CORPUS_MODELS, CORPUS_TARGET, ConcurrencyModel


#: What ``--concurrency`` accepts: the two whole-target runs, then every
#: seeded model by name.  (Built here rather than next to
#: ``CORPUS_MODELS`` because :mod:`.models` is itself an analysis target
#: and every module-level mutable there must be in its guard registry.)
CORPUS = Corpus(
    "concurrency target",
    *CORPUS_MODELS,
    groups={"runtime": (), "corpus": CORPUS_MODELS},
)


@dataclass
class ConcurrencyReport:
    """Everything the concurrency analysis concluded about one target."""

    target: str
    inventory: InventoryReport
    lockset: LocksetReport
    lockorder: LockOrderReport
    determinism: DeterminismReport
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset()

    @property
    def cross_check_ok(self) -> bool:
        return self.lockorder.cross_check_ok and self.determinism.cross_check_ok

    def verdicts(self) -> Tuple[str, ...]:
        found = set()
        if self.inventory.unregistered or any(
            d.is_error for d in self.inventory.diagnostics
        ):
            found.add("unregistered-state")
        if self.lockset.violations or any(
            d.is_error for d in self.lockset.diagnostics
        ):
            found.add("race")
        if self.lockorder.cycles:
            found.add("deadlock")
        if self.determinism.order_sensitive:
            found.add("order-sensitive-merge")
        if not found:
            found.add("clean")
        return tuple(sorted(found))

    @property
    def ok(self) -> bool:
        return self.verdicts() == ("clean",) and self.cross_check_ok

    def diagnostics(self) -> List[Diagnostic]:
        return (
            list(self.inventory.diagnostics)
            + list(self.lockset.diagnostics)
            + list(self.lockorder.diagnostics)
            + list(self.determinism.diagnostics)
        )

    def render(self) -> str:
        sections = [
            f"== concurrency analysis: {self.target} ==",
            self.inventory.render(),
            self.lockset.render(),
            self.lockorder.render(),
            self.determinism.render(),
            f"verdicts: {', '.join(self.verdicts())} "
            f"(cross_check_ok={self.cross_check_ok})",
        ]
        errors = [d for d in self.diagnostics() if d.is_error]
        for diag in errors:
            sections.append(f"  error: {diag.message} "
                            f"[{diag.location.filename}:{diag.location.line}]")
        return "\n".join(sections)


def analyze_runtime(run_witness: bool = True) -> ConcurrencyReport:
    """Full pipeline over the real parallel engine."""
    dynamic: FrozenSet[Tuple[str, str]] = frozenset()
    if run_witness:
        from .witness import run_runtime_witness

        dynamic = run_runtime_witness().edges
    return analyze_target(RUNTIME_TARGET, RUNTIME_MERGES, dynamic)


def analyze_target(
    target: AnalysisTarget,
    merges: Sequence = (),
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset(),
) -> ConcurrencyReport:
    inventory = build_inventory(target)
    lockset = analyze_locksets(target, inventory)
    lockorder = build_lock_order(lockset, dynamic_edges)
    determinism = verify_merges(merges)
    return ConcurrencyReport(
        target=target.name,
        inventory=inventory,
        lockset=lockset,
        lockorder=lockorder,
        determinism=determinism,
        dynamic_edges=dynamic_edges,
    )


# ---------------------------------------------------------------------------
# Corpus: per-model slices of the module-wide analysis
# ---------------------------------------------------------------------------


@dataclass
class ModelResult:
    """One corpus model's verdicts versus its ground truth."""

    model: ConcurrencyModel
    verdicts: Tuple[str, ...]
    diagnostics: List[Diagnostic] = field(default_factory=list)
    cross_check_ok: bool = True
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset()

    @property
    def matches(self) -> bool:
        return (
            self.model.expect in self.verdicts
            and (self.model.expect != "clean" or self.verdicts == ("clean",))
            and self.cross_check_ok
        )

    def render(self) -> str:
        mark = "ok" if self.matches else "MISMATCH"
        return (
            f"  [{mark:>8}] {self.model.name}: expected {self.model.expect}, "
            f"got {', '.join(self.verdicts)} "
            f"(cross_check_ok={self.cross_check_ok})"
        )


def _belongs(via: str, functions: Tuple[str, ...]) -> bool:
    head = via.split(" -> ")[0]
    return head in functions


def _model_slice(
    full: LocksetReport, model: ConcurrencyModel
) -> Tuple[List[Access], List[StaticEdge], List[Diagnostic]]:
    accesses = [a for a in full.accesses if a.function in model.functions]
    edges = [e for e in full.static_edges if _belongs(e.via, model.functions)]
    diagnostics = []
    for access in accesses:
        if access.ok:
            continue
        held = (
            "{" + ", ".join(sorted(access.lockset)) + "}"
            if access.lockset else "{}"
        )
        diagnostics.append(
            Diagnostic(
                "error",
                f"unguarded {access.kind} of {access.field} "
                f"(access path `{access.path}`) in {access.function}: "
                f"holds {held}, requires `{access.required}`",
                access.location,
            )
        )
    return accesses, edges, diagnostics


def analyze_corpus_model(
    model: ConcurrencyModel,
    full: Optional[LocksetReport] = None,
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset(),
) -> ModelResult:
    """Slice the corpus-wide lockset analysis down to one model's verdict."""
    if full is None:
        full = analyze_locksets(CORPUS_TARGET)
    accesses, edges, diagnostics = _model_slice(full, model)

    sliced = LocksetReport(target=model.name)
    sliced.accesses = accesses
    sliced.static_edges = edges
    sliced.diagnostics = diagnostics
    lockorder = build_lock_order(sliced, dynamic_edges)
    determinism = verify_merges(model.merges)

    verdicts = set()
    if any(not a.ok for a in accesses):
        verdicts.add("race")
    if lockorder.cycles:
        verdicts.add("deadlock")
    if determinism.order_sensitive:
        verdicts.add("order-sensitive-merge")
    if not verdicts:
        verdicts.add("clean")

    cross_ok = lockorder.cross_check_ok and determinism.cross_check_ok
    # A merge misclassified against its registry expectation is a
    # cross-check failure too: the static model and ground truth disagree.
    for finding in determinism.findings:
        if finding.verdict != finding.expect:
            cross_ok = False

    return ModelResult(
        model=model,
        verdicts=tuple(sorted(verdicts)),
        diagnostics=diagnostics + lockorder.diagnostics + determinism.diagnostics,
        cross_check_ok=cross_ok,
        dynamic_edges=frozenset(dynamic_edges),
    )


@dataclass
class CorpusReport:
    results: List[ModelResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.matches for r in self.results)

    def render(self) -> str:
        lines = [
            f"== concurrency corpus: {len(self.results)} model(s), "
            f"{sum(r.matches for r in self.results)} matching =="
        ]
        lines.extend(r.render() for r in self.results)
        for result in self.results:
            for diag in result.diagnostics:
                if diag.is_error:
                    lines.append(
                        f"    {result.model.name}: {diag.message} "
                        f"[{diag.location.filename}:{diag.location.line}]"
                    )
        return "\n".join(lines)


def analyze_corpus(run_witness: bool = True) -> CorpusReport:
    """Analyze every corpus model; dynamic witness for the runnable pairs."""
    full = analyze_locksets(CORPUS_TARGET)
    report = CorpusReport()
    for model in CORPUS_MODELS:
        dynamic: FrozenSet[Tuple[str, str]] = frozenset()
        if run_witness and model.name == "clean_consistent_pair":
            from .witness import run_consistent_pair

            dynamic = run_consistent_pair().edges
        elif run_witness and model.name == "deadlock_inverted_pair":
            from .witness import run_inverted_pair

            dynamic = run_inverted_pair().edges
        report.results.append(analyze_corpus_model(model, full, dynamic))
    return report
