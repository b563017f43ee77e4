"""Intraprocedural alias and escape analysis over SIL (ownership step 1).

Every SSA value is mapped to a set of abstract **storage roots** — the
places whose memory the value may share.  Roots are introduced by function
parameters, mutable constants, and instructions that create fresh storage;
projections (``index_get``/``slice_get``/``tuple_extract``/
``struct_extract``) propagate their operand's roots because in Python
runtime semantics an interior read of an aggregate may return a shared
sub-object.

Two values *may alias* iff their root sets intersect.  The analysis is a
forward fixpoint across branch edges (block arguments join by union), so a
value flowing around a loop keeps every root it may have picked up on any
path.

Escape analysis rides along: a root **escapes** when a value carrying it is
passed to an opaque callee (indirect apply or a non-whitelisted impure
primitive) or returned.  The borrow checker treats non-escaping roots as
fully visible: every mutation of them goes through a formal access in the
function body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sil import ir
from repro.sil.primitives import Primitive

#: Primitives whose result may share storage with their first operand.
PROJECTION_PRIMS = {"index_get", "slice_get"}

#: Primitives whose result aggregates its operands: fresh outer storage
#: whose interior may share with every argument.
AGGREGATION_PRIMS = {"list_make", "tuple_make"}

#: Primitives producing storage that is *logically* fresh.  ``value_copy``
#: belongs here even though a COW logical copy physically shares storage
#: with its source: the pair is logically independent (exclusivity keys on
#: the owner, and a mutation of either side deep-copies first), so the
#: borrow checker must not see them as aliases.  The physical-sharing fact
#: is tracked separately by the copy-materialization inference.
FRESH_PRIMS = {"value_copy"}

#: Literal types that are immutable and therefore never storage roots.
_IMMUTABLE_LITERALS = (
    type(None),
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    range,
    frozenset,
)


def _literal_is_storage(literal: object) -> bool:
    if isinstance(literal, _IMMUTABLE_LITERALS):
        return False
    if isinstance(literal, tuple):
        return any(_literal_is_storage(e) for e in literal)
    if callable(literal):
        return False
    return True


@dataclass
class AliasInfo:
    """Result of alias/escape analysis for one function."""

    #: value id -> abstract storage roots (frozenset of root tokens).
    roots: dict[int, frozenset] = field(default_factory=dict)
    #: root tokens that may be reachable from outside the function.
    escaped_roots: set = field(default_factory=set)
    #: value ids whose storage is freshly allocated inside the function.
    fresh: set[int] = field(default_factory=set)

    def roots_of(self, value: ir.Value) -> frozenset:
        return self.roots.get(value.id, frozenset())

    def may_alias(self, a: ir.Value, b: ir.Value) -> bool:
        """May ``a`` and ``b`` share storage?"""
        if a.id == b.id:
            return True
        return bool(self.roots_of(a) & self.roots_of(b))

    def escapes(self, value: ir.Value) -> bool:
        return bool(self.roots_of(value) & self.escaped_roots)


def _apply_roots(
    inst: ir.ApplyInst, roots: dict[int, frozenset], info: AliasInfo
) -> frozenset:
    fresh_root = ("fresh", inst.results[0].id)
    if inst.is_indirect:
        # Opaque callee: the result may alias any argument (or the callee
        # object itself), and every argument escapes.
        arg_roots: set = {fresh_root}
        for arg in inst.args:
            arg_roots |= roots.get(arg.id, frozenset())
            info.escaped_roots |= roots.get(arg.id, frozenset())
        return frozenset(arg_roots)

    target = inst.callee.target
    if isinstance(target, Primitive):
        if target.name in PROJECTION_PRIMS:
            base = inst.args[0] if inst.args else None
            return roots.get(base.id, frozenset()) if base else frozenset()
        if target.name in FRESH_PRIMS:
            info.fresh.add(inst.results[0].id)
            return frozenset({fresh_root})
        if target.name in AGGREGATION_PRIMS:
            info.fresh.add(inst.results[0].id)
            agg: set = {fresh_root}
            for arg in inst.args:
                agg |= roots.get(arg.id, frozenset())
            return frozenset(agg)
        if target.pure:
            # Pure computation builds a new value from its operands.
            info.fresh.add(inst.results[0].id)
            return frozenset({fresh_root})
        # Impure unknown primitive: conservative, like an opaque call.
        arg_roots = {fresh_root}
        for arg in inst.args:
            arg_roots |= roots.get(arg.id, frozenset())
            info.escaped_roots |= roots.get(arg.id, frozenset())
        return frozenset(arg_roots)

    if isinstance(target, ir.Function):
        # A lowered callee is value-semantic but uninspected here: its result
        # may alias any argument (it may return one of them).
        arg_roots = {fresh_root}
        for arg in inst.args:
            arg_roots |= roots.get(arg.id, frozenset())
        return frozenset(arg_roots)

    # Opaque direct callee object.
    arg_roots = {fresh_root}
    for arg in inst.args:
        arg_roots |= roots.get(arg.id, frozenset())
        info.escaped_roots |= roots.get(arg.id, frozenset())
    return frozenset(arg_roots)


def analyze_aliases(func: ir.Function) -> AliasInfo:
    """Compute may-alias root sets and escape facts for ``func``."""
    info = AliasInfo()
    roots = info.roots
    blocks = func.reachable_blocks()

    for i, param in enumerate(func.params):
        roots[param.id] = frozenset({("param", i)})

    changed = True
    while changed:
        changed = False
        for block in blocks:
            for inst in block.instructions:
                if inst.is_terminator:
                    for dest, args in inst.edges():
                        for param, arg in zip(dest.args, args):
                            merged = roots.get(param.id, frozenset()) | roots.get(
                                arg.id, frozenset()
                            )
                            if merged != roots.get(param.id, frozenset()):
                                roots[param.id] = merged
                                changed = True
                    continue
                if isinstance(inst, ir.AccessStoreInst):
                    # Storing an aggregate into a container makes the
                    # container's interior share with the stored value.
                    begin = inst.token.producer
                    if isinstance(begin, ir.BeginAccessInst):
                        base_roots = roots.get(begin.base.id, frozenset())
                        merged = base_roots | roots.get(inst.value.id, frozenset())
                        if merged != base_roots:
                            roots[begin.base.id] = merged
                            changed = True
                    continue
                new = _instruction_roots(inst, roots, info)
                for res in inst.results:
                    if new != roots.get(res.id, frozenset()):
                        roots[res.id] = roots.get(res.id, frozenset()) | new
                        changed = True

    for block in blocks:
        term = block.terminator
        if isinstance(term, ir.ReturnInst):
            info.escaped_roots |= roots.get(term.value.id, frozenset())
    return info


def _instruction_roots(
    inst: ir.Instruction, roots: dict[int, frozenset], info: AliasInfo
) -> frozenset:
    if isinstance(inst, ir.ConstInst):
        if _literal_is_storage(inst.literal):
            # Mutable storage baked into the function body may be shared
            # across calls; give it a stable per-instruction root.
            return frozenset({("const", inst.results[0].id)})
        return frozenset()
    if isinstance(inst, ir.ApplyInst):
        return _apply_roots(inst, roots, info)
    if isinstance(inst, ir.TupleInst):
        merged: set = set()
        for op in inst.operands:
            merged |= roots.get(op.id, frozenset())
        return frozenset(merged)
    if isinstance(inst, (ir.TupleExtractInst, ir.StructExtractInst)):
        return roots.get(inst.operands[0].id, frozenset())
    if isinstance(inst, ir.BeginAccessInst):
        # The token is not itself storage; borrow checking resolves it back
        # to its base via ``Value.producer``.
        return frozenset()
    if isinstance(inst, ir.AccessLoadInst):
        begin = inst.token.producer
        if isinstance(begin, ir.BeginAccessInst):
            return roots.get(begin.base.id, frozenset())
        return frozenset()
    if isinstance(inst, (ir.AccessStoreInst, ir.EndAccessInst)):
        return frozenset()
    return frozenset()
