"""Combined concurrency-safety report: inventory, locksets, order, merges.

The ``--concurrency`` corpus holds the real parallel engine (``runtime``)
and the seeded hazard models (:mod:`.models`); :func:`analyze` turns one
entry into a :class:`ConcurrencyReport`, which the shared sweep judges
like every other row (:meth:`~repro.analysis.corpus.Report.problems`):

* ``runtime`` runs the full pipeline over the engine — shared-state
  inventory, lockset race analysis, the lock-order graph cross-checked
  against a live witness run, and merge-determinism verification — and
  must come back **clean**: zero unregistered fields, zero unguarded
  accesses, an acyclic lock-order graph, no order-sensitive merges;
* a model is its slice of one lockset analysis of the corpus module,
  plus its own merges and, for the two lock-pair models, a live witness
  run; each must produce its expected verdict, hazards with located
  diagnostics and clean models silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.corpus import Corpus, CorpusProgram, Report
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
from .witness import run_consistent_pair, run_inverted_pair, run_runtime_witness

#: The live engine, held to the clean verdict.
RUNTIME = CorpusProgram(
    "runtime", "the real parallel engine, with a live witness run", "clean"
)

#: What ``--concurrency`` accepts: ``runtime``, every seeded model by
#: name, and ``corpus`` for all the models.  (Built here rather than next
#: to ``CORPUS_MODELS`` because :mod:`.models` is itself an analysis
#: target and every module-level mutable there must be in its guard
#: registry.)
CORPUS = Corpus(
    "concurrency target",
    RUNTIME,
    *CORPUS_MODELS,
    groups={"corpus": CORPUS_MODELS},
)

#: The seeded models whose lock pairs run on real threads.
_WITNESSES = {
    "clean_consistent_pair": run_consistent_pair,
    "deadlock_inverted_pair": run_inverted_pair,
}


@dataclass
class ConcurrencyReport(Report):
    """Everything the concurrency analysis concluded about one target:
    a whole :class:`AnalysisTarget` (``inventory`` set) or one seeded
    model's slice of the corpus target."""

    json_label = "target"
    #: A model may trip more than its seeded hazard class.
    extra_verdicts_ok = True

    name: str
    lockset: LocksetReport
    lockorder: LockOrderReport
    determinism: DeterminismReport
    inventory: Optional[InventoryReport] = None
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset()
    expect: Optional[str] = None

    @property
    def cross_check_ok(self) -> bool:
        """The lock-order graph covers the witness, every merge probe
        agrees with its static verdict, and every merge got the verdict
        its registry expects."""
        return (
            self.lockorder.cross_check_ok
            and self.determinism.cross_check_ok
            and all(f.verdict == f.expect for f in self.determinism.findings)
        )

    def verdicts(self) -> set[str]:
        found = set()
        if self.inventory is not None and (
            self.inventory.unregistered
            or any(d.is_error for d in self.inventory.diagnostics)
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
        return found or {"clean"}

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return (
            (list(self.inventory.diagnostics) if self.inventory else [])
            + list(self.lockset.diagnostics)
            + list(self.lockorder.diagnostics)
            + list(self.determinism.diagnostics)
        )

    def render(self) -> str:
        sections = [f"== concurrency analysis: {self.name} =="]
        if self.inventory is not None:
            sections.append(self.inventory.render())
        sections += [
            self.lockset.render(),
            self.lockorder.render(),
            self.determinism.render(),
            f"verdicts: {', '.join(sorted(self.verdicts()))} "
            f"(cross_check_ok={self.cross_check_ok})",
        ]
        for diag in self.diagnostics:
            if diag.is_error:
                sections.append(f"  error: {diag.message} [{diag.location}]")
        return "\n".join(sections)


def analyze_target(
    target: AnalysisTarget,
    merges: Sequence = (),
    dynamic_edges: FrozenSet[Tuple[str, str]] = frozenset(),
    expect: Optional[str] = None,
) -> ConcurrencyReport:
    """Inventory, locksets, lock order and merges of one target."""
    inventory = build_inventory(target)
    lockset = analyze_locksets(target, inventory)
    return ConcurrencyReport(
        name=target.name,
        inventory=inventory,
        lockset=lockset,
        lockorder=build_lock_order(lockset, dynamic_edges),
        determinism=verify_merges(merges),
        dynamic_edges=dynamic_edges,
        expect=expect,
    )


def analyze_runtime() -> ConcurrencyReport:
    """Full pipeline over the real parallel engine, its lock-order graph
    cross-checked against the edges a live witness run records."""
    dynamic = run_runtime_witness().edges
    return analyze_target(RUNTIME_TARGET, RUNTIME_MERGES, dynamic, RUNTIME.expect)


# ---------------------------------------------------------------------------
# Corpus: per-model slices of the module-wide analysis
# ---------------------------------------------------------------------------

#: The seeded models share one module, analyzed once when this module
#: loads; each model's verdict is a slice of it.
CORPUS_LOCKSETS = analyze_locksets(CORPUS_TARGET)


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


def analyze_corpus_model(model: ConcurrencyModel) -> ConcurrencyReport:
    """One seeded model: its slice of :data:`CORPUS_LOCKSETS`, its merges,
    and the edges a live run records where it has a witness."""
    witness = _WITNESSES.get(model.name)
    dynamic = witness().edges if witness is not None else frozenset()
    accesses, edges, diagnostics = _model_slice(CORPUS_LOCKSETS, model)
    sliced = LocksetReport(
        target=model.name,
        accesses=accesses,
        diagnostics=diagnostics,
        static_edges=edges,
        functions_analyzed=len(model.functions),
    )
    return ConcurrencyReport(
        name=model.name,
        lockset=sliced,
        lockorder=build_lock_order(sliced, dynamic),
        determinism=verify_merges(model.merges),
        dynamic_edges=dynamic,
        expect=model.expect,
    )


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----


def analyze(program) -> ConcurrencyReport:
    if program is RUNTIME:
        return analyze_runtime()
    return analyze_corpus_model(program)


def tally(report: ConcurrencyReport, counters) -> None:
    counters.lock_edges_cross_checked += len(report.dynamic_edges)
    if report.expect == "clean":
        counters.merges_verified += sum(
            1 for f in report.determinism.findings if f.ok
        )
    if report.inventory is None:
        counters.concurrency_models_checked += 1
        return
    counters.shared_fields_inventoried += len(report.inventory.fields)
    counters.guarded_accesses_proven += sum(
        1 for a in report.lockset.accesses if a.required is not None and a.ok
    )
