"""Static borrow checking of formal access scopes (ownership step 2).

Proves the law of exclusivity over SIL ``begin_access``/``end_access``
scopes: while a ``[modify]`` access to a location is open, no other access
to the same location may begin.  The runtime enforces the same law
dynamically (:class:`repro.valsem.inout.InoutRef` raises ``BorrowError``);
this checker flags the violation *before execution* — and its verdicts are
cross-checked against the dynamic enforcement in the test suite.

The analysis is a forward **may-be-open** dataflow: the state at each
program point is the set of access tokens that may be open on *some* path
reaching it (union at joins).  When a new access begins, it is compared
against every may-open access:

* both accesses ``[read]``                        → no conflict;
* different ``key_kind`` (attr vs item)           → distinct locations;
* keys definitely unequal (distinct literals)     → distinct locations;
* bases cannot alias (disjoint root sets)         → distinct storage;
* bases definitely alias and keys definitely equal → **error** — the
  program traps with ``BorrowError`` on every execution of this point;
* otherwise                                       → **warning** — a dynamic
  exclusivity check is required (may-alias base or unprovable key).

Diagnostics carry both access sites' source locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.ownership.aliasing import AliasInfo, analyze_aliases
from repro.errors import Diagnostic
from repro.sil import ir


@dataclass
class BorrowReport:
    """Result of static exclusivity checking for one function."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: per-begin_access note keyed by ``id(inst)`` ("exclusive", "conflict
    #: with %N", "may conflict with %N").
    notes: dict[int, str] = field(default_factory=dict)
    accesses_checked: int = 0

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


def _keys_definitely_equal(a: ir.BeginAccessInst, b: ir.BeginAccessInst) -> bool:
    if a.key.id == b.key.id:
        return True
    pa, pb = a.key.producer, b.key.producer
    if isinstance(pa, ir.ConstInst) and isinstance(pb, ir.ConstInst):
        try:
            return bool(pa.literal == pb.literal)
        except Exception:
            return False
    return False


def _keys_definitely_unequal(a: ir.BeginAccessInst, b: ir.BeginAccessInst) -> bool:
    pa, pb = a.key.producer, b.key.producer
    if isinstance(pa, ir.ConstInst) and isinstance(pb, ir.ConstInst):
        try:
            return bool(pa.literal != pb.literal)
        except Exception:
            return False
    return False


def _bases_definitely_alias(a: ir.BeginAccessInst, b: ir.BeginAccessInst) -> bool:
    return a.base.id == b.base.id


def check_exclusivity(
    func: ir.Function, aliases: Optional[AliasInfo] = None
) -> BorrowReport:
    """Statically check every formal access scope in ``func``."""
    report = BorrowReport()
    aliases = aliases if aliases is not None else analyze_aliases(func)
    blocks = func.reachable_blocks()

    begins: dict[int, ir.BeginAccessInst] = {}
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, ir.BeginAccessInst):
                begins[inst.results[0].id] = inst
    report.accesses_checked = len(begins)
    if not begins:
        return report

    # Forward may-be-open fixpoint (union join).  Conflicts are collected as
    # unordered pairs so fixpoint revisits don't duplicate diagnostics.
    state: dict[int, set[int]] = {id(func.entry): set()}
    conflicts: dict[frozenset, str] = {}
    worklist = [func.entry]
    while worklist:
        block = worklist.pop()
        open_now = set(state.get(id(block), set()))
        for inst in block.instructions:
            if isinstance(inst, ir.BeginAccessInst):
                for open_id in sorted(open_now):
                    verdict = _classify(begins[open_id], inst, aliases)
                    if verdict is not None:
                        pair = frozenset((open_id, inst.results[0].id))
                        conflicts[pair] = verdict
                open_now.add(inst.results[0].id)
            elif isinstance(inst, ir.EndAccessInst):
                open_now.discard(inst.token.id)
        for succ in block.successors():
            prev = state.get(id(succ))
            new = set(open_now) if prev is None else prev | open_now
            if prev is None or new != prev:
                state[id(succ)] = new
                worklist.append(succ)

    for pair, verdict in sorted(
        conflicts.items(), key=lambda kv: sorted(kv[0])
    ):
        first_id, second_id = sorted(pair)
        first, second = begins[first_id], begins[second_id]
        if verdict == "error":
            message = (
                f"@{func.name}: overlapping exclusive accesses to the same "
                f"location: {second} conflicts with the enclosing {first}; "
                "this program traps with BorrowError at runtime"
            )
            severity = "error"
            note = f"conflict with {first.results[0]!r}"
        else:
            message = (
                f"@{func.name}: potentially overlapping accesses: {second} "
                f"may conflict with the enclosing {first}; a dynamic "
                "exclusivity check is required"
            )
            severity = "warning"
            note = f"may conflict with {first.results[0]!r}"
        report.diagnostics.append(Diagnostic(severity, message, second.loc))
        report.notes[id(second)] = note

    for begin in begins.values():
        report.notes.setdefault(
            id(begin),
            "exclusive" if begin.kind == "modify" else "shared read",
        )
    return report


def _classify(
    held: ir.BeginAccessInst, new: ir.BeginAccessInst, aliases: AliasInfo
) -> Optional[str]:
    """Classify a (held, new) access pair: None | "warning" | "error"."""
    if held.kind == "read" and new.kind == "read":
        return None
    if held.key_kind != new.key_kind:
        return None
    if _keys_definitely_unequal(held, new):
        return None
    if not aliases.may_alias(held.base, new.base):
        return None
    if _bases_definitely_alias(held, new) and _keys_definitely_equal(held, new):
        return "error"
    return "warning"
