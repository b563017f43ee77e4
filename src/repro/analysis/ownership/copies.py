"""Copy-materialization inference (ownership step 3).

Predicts, per mutation site, whether the copy-on-write runtime
(:mod:`repro.valsem.cow`) will materialize a deep copy when the store
executes:

* ``in-place``  — the storage is provably unique: no copy, ever;
* ``must-copy`` — the storage is certainly shared (e.g. the first write
  after a ``.copy()``): the COW runtime *will* deep-copy here;
* ``may-copy``  — sharing depends on the path taken (or on storage the
  function cannot see): a runtime uniqueness check decides.

The abstract state maps each storage root (from
:mod:`repro.analysis.ownership.aliasing`) to a sharing level — unique /
maybe-shared / certainly-shared — plus the set of partner roots it may
share with.  ``value_copy`` (the lowering of ``.copy()``) makes its result
*certainly* shared with its source; a mutation through a single known root
performs a strong update back to unique and removes the root from every
partner set (COW un-shares on first write).  Sharing with storage outside
the function (mutable constants, opaque-call results) is modeled with a
distinguished ``EXTERNAL`` partner that no mutation can remove.

Entry assumption, stated once and relied on by the tests: **parameters are
uniquely referenced at entry** — the caller passes value-semantic values it
owns.  The dynamic cross-check (``CowStats`` under ``copy_counting``)
validates the prediction under exactly that calling convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.ownership.aliasing import (
    AGGREGATION_PRIMS,
    AliasInfo,
    PROJECTION_PRIMS,
    analyze_aliases,
)
from repro.sil import ir
from repro.sil.primitives import Primitive

#: Pseudo-partner for sharing with storage the function cannot observe.
EXTERNAL = ("external",)

#: Sharing levels.
UNIQUE, MAYBE_SHARED, CERTAINLY_SHARED = 0, 1, 2

_LABELS = {UNIQUE: "in-place", MAYBE_SHARED: "may-copy", CERTAINLY_SHARED: "must-copy"}

#: root -> (level, partners)
_State = dict


@dataclass
class CopyInfo:
    """Per-mutation-site copy predictions for one function."""

    #: ``id(AccessStoreInst)`` -> "in-place" | "must-copy" | "may-copy".
    labels: dict[int, str] = field(default_factory=dict)
    #: printable per-instruction notes (stores and value_copy sites).
    notes: dict[int, str] = field(default_factory=dict)
    mutation_sites: int = 0
    in_place: int = 0
    must_copy: int = 0
    may_copy: int = 0
    logical_copy_sites: int = 0

    def predicted_deep_copies(self) -> tuple[int, int]:
        """(min, max) deep copies for one straight-line execution in which
        every labeled site runs exactly once."""
        return self.must_copy, self.must_copy + self.may_copy


def _default_state(root) -> tuple[int, frozenset]:
    kind = root[0]
    if kind == "param":
        return (UNIQUE, frozenset())  # entry assumption: caller-owned, unique
    if kind == "const":
        return (MAYBE_SHARED, frozenset({EXTERNAL}))
    return (UNIQUE, frozenset())


def _lookup(state: _State, root) -> tuple[int, frozenset]:
    got = state.get(root)
    return got if got is not None else _default_state(root)


def _join_states(a: _State, b: _State) -> _State:
    out: _State = {}
    for root in a.keys() | b.keys():
        la, pa = _lookup(a, root)
        lb, pb = _lookup(b, root)
        level = la if la == lb else MAYBE_SHARED
        out[root] = (level, pa | pb)
    return out


def infer_copies(func: ir.Function, aliases: Optional[AliasInfo] = None) -> CopyInfo:
    """Infer a copy-materialization label for every mutation site."""
    info = CopyInfo()
    aliases = aliases if aliases is not None else analyze_aliases(func)
    blocks = func.reachable_blocks()

    in_states: dict[int, _State] = {id(func.entry): {}}
    worklist = [func.entry]
    while worklist:
        block = worklist.pop()
        out = _transfer_block(block, dict(in_states[id(block)]), aliases, None)
        for succ in block.successors():
            prev = in_states.get(id(succ))
            new = dict(out) if prev is None else _join_states(prev, out)
            if prev is None or new != prev:
                in_states[id(succ)] = new
                worklist.append(succ)

    # Converged: one labeling sweep per block from its fixpoint in-state.
    for block in blocks:
        _transfer_block(block, dict(in_states.get(id(block), {})), aliases, info)
    return info


def _transfer_block(
    block: ir.Block, state: _State, aliases: AliasInfo, info: Optional[CopyInfo]
) -> _State:
    for inst in block.instructions:
        if _is_value_copy(inst):
            _transfer_value_copy(inst, state, aliases, info)
        elif isinstance(inst, ir.ApplyInst):
            _transfer_opaque_apply(inst, state, aliases)
        elif isinstance(inst, ir.AccessStoreInst):
            _transfer_store(inst, state, aliases, info)
    return state


def _is_value_copy(inst: ir.Instruction) -> bool:
    return (
        isinstance(inst, ir.ApplyInst)
        and not inst.is_indirect
        and isinstance(inst.callee.target, Primitive)
        and inst.callee.target.name == "value_copy"
    )


def _transfer_value_copy(
    inst: ir.ApplyInst, state: _State, aliases: AliasInfo, info: Optional[CopyInfo]
) -> None:
    result = inst.results[0]
    fresh = ("fresh", result.id)
    sources = aliases.roots_of(inst.args[0]) if inst.args else frozenset()
    if not sources:
        state[fresh] = (UNIQUE, frozenset())
    else:
        # The copy certainly shares with whichever storage the source was.
        state[fresh] = (CERTAINLY_SHARED, frozenset(sources))
        certain = len(sources) == 1
        for src in sources:
            level, partners = _lookup(state, src)
            new_level = CERTAINLY_SHARED if certain else max(level, MAYBE_SHARED)
            state[src] = (max(level, new_level), partners | {fresh})
    if info is not None:
        info.logical_copy_sites += 1
        info.notes[id(inst)] = "logical copy: O(1), shares storage until mutated"


def _transfer_opaque_apply(
    inst: ir.ApplyInst, state: _State, aliases: AliasInfo
) -> None:
    """An opaque callee may retain references to its arguments."""
    if not inst.is_indirect:
        target = inst.callee.target
        if isinstance(target, Primitive) and (
            target.pure
            or target.name in PROJECTION_PRIMS
            or target.name in AGGREGATION_PRIMS
        ):
            return
        if isinstance(target, ir.Function):
            # Lowered callees are value-semantic: they may mutate through
            # their own formal accesses but do not capture references.
            return
    for arg in inst.args:
        for root in aliases.roots_of(arg):
            level, partners = _lookup(state, root)
            state[root] = (max(level, MAYBE_SHARED), partners | {EXTERNAL})


def _transfer_store(
    inst: ir.AccessStoreInst, state: _State, aliases: AliasInfo, info: Optional[CopyInfo]
) -> None:
    begin = inst.token.producer
    if not isinstance(begin, ir.BeginAccessInst):
        return
    roots = aliases.roots_of(begin.base)

    if not roots:
        label = "may-copy"  # mutation of storage the analysis cannot see
    else:
        levels = [_lookup(state, r)[0] for r in roots]
        if all(level == UNIQUE for level in levels):
            label = "in-place"
        elif len(roots) == 1 and levels[0] == CERTAINLY_SHARED:
            label = "must-copy"
        else:
            label = "may-copy"

    if info is not None:
        info.mutation_sites += 1
        info.labels[id(inst)] = label
        setattr(info, label.replace("-", "_"), getattr(info, label.replace("-", "_")) + 1)
        info.notes[id(inst)] = label

    # COW un-shares on the first write: a strong update restores uniqueness.
    if len(roots) == 1:
        (mutated,) = roots
        state[mutated] = (UNIQUE, frozenset())
        for other, (level, partners) in list(state.items()):
            if other != mutated and mutated in partners:
                partners = partners - {mutated}
                if not partners:
                    level = UNIQUE
                elif level == CERTAINLY_SHARED:
                    level = MAYBE_SHARED  # the certain partner may be gone
                state[other] = (level, partners)
    else:
        for root in roots:
            level, partners = _lookup(state, root)
            if level == CERTAINLY_SHARED:
                state[root] = (MAYBE_SHARED, partners)
