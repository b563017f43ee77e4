"""Activity analysis (Section 2.2, step 1).

Determines which instructions are *active*: both **varied** (transitively
data-dependent on the differentiation parameters) and **useful**
(transitively contributing to the function's return value).  Only active
instructions receive derivative code during synthesis; inactive ones are
executed unchanged.

Both properties are forward/backward dataflow fixpoints over the CFG,
flowing through block arguments along branch edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sil import ir
from repro.sil.primitives import Primitive


@dataclass
class ActivityInfo:
    """Result of activity analysis for one (function, wrt) pair."""

    wrt: tuple[int, ...]
    varied: set[int] = field(default_factory=set)  # value ids
    useful: set[int] = field(default_factory=set)  # value ids

    def is_varied(self, value: ir.Value) -> bool:
        return value.id in self.varied

    def is_useful(self, value: ir.Value) -> bool:
        return value.id in self.useful

    def is_active_value(self, value: ir.Value) -> bool:
        return value.id in self.varied and value.id in self.useful

    def is_active(self, inst: ir.Instruction) -> bool:
        return any(self.is_active_value(r) for r in inst.results)

    def result_varied(self) -> bool:
        """True if any returned value is varied (the function actually
        depends on its differentiation parameters)."""
        return self._result_varied


#: Attribute names whose reads never carry derivative information — the
#: analogue of Swift's ``@noDerivative`` stored properties.  Metadata-like
#: fields (device placement, shapes) and observation methods live here so
#: e.g. ``x.device`` inside differentiated code does not make downstream
#: values spuriously active.
NO_DERIVATIVE_FIELDS: set[str] = {
    "device",
    "shape",
    "dtype",
    "rank",
    "size",
    "kind",
    "name",
    "numpy",
    "item",
    "to_list",
    "tolist",
}


def register_no_derivative_field(name: str) -> None:
    NO_DERIVATIVE_FIELDS.add(name)


def _differentiable_operand_ids(inst: ir.Instruction) -> list[ir.Value]:
    """Operands through which variedness can flow into this instruction.

    Structurally non-differentiable operand positions of primitives (e.g.
    the index of ``index_get``) and metadata attribute reads are excluded.
    """
    if isinstance(inst, ir.ApplyInst) and not inst.is_indirect:
        target = inst.callee.target
        if isinstance(target, Primitive):
            return [
                arg
                for i, arg in enumerate(inst.args)
                if i not in target.nondiff_args
            ]
    if isinstance(inst, ir.StructExtractInst) and inst.field in NO_DERIVATIVE_FIELDS:
        return []
    return list(inst.operands)


def analyze_activity(func: ir.Function, wrt: tuple[int, ...]) -> ActivityInfo:
    """Run varied/useful analysis of ``func`` w.r.t. parameter indices ``wrt``."""
    info = ActivityInfo(wrt=tuple(wrt))
    blocks = func.reachable_blocks()

    # ---- varied: forward fixpoint ----------------------------------------
    for i in wrt:
        info.varied.add(func.params[i].id)

    changed = True
    while changed:
        changed = False
        for block in blocks:
            for inst in block.instructions:
                if isinstance(inst, ir.ConstInst):
                    continue
                if inst.is_terminator:
                    changed |= _propagate_branch_varied(inst, info)
                    continue
                if any(
                    op.id in info.varied
                    for op in _differentiable_operand_ids(inst)
                ):
                    for res in inst.results:
                        if res.id not in info.varied:
                            info.varied.add(res.id)
                            changed = True

    # ---- useful: backward fixpoint ----------------------------------------
    returns = [
        b.terminator
        for b in blocks
        if isinstance(b.terminator, ir.ReturnInst)
    ]
    for ret in returns:
        info.useful.add(ret.value.id)

    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            term = block.terminator
            changed |= _propagate_branch_useful(term, info)
            for inst in reversed(block.body):
                if any(r.id in info.useful for r in inst.results):
                    for op in _differentiable_operand_ids(inst):
                        if op.id not in info.useful:
                            info.useful.add(op.id)
                            changed = True

    info._result_varied = any(r.value.id in info.varied for r in returns)
    return info


def _propagate_branch_varied(term: ir.Terminator, info: ActivityInfo) -> bool:
    changed = False
    for dest, args in term.edges():
        for param, arg in zip(dest.args, args):
            if arg.id in info.varied and param.id not in info.varied:
                info.varied.add(param.id)
                changed = True
    return changed


def _propagate_branch_useful(term: ir.Terminator, info: ActivityInfo) -> bool:
    changed = False
    for dest, args in term.edges():
        for param, arg in zip(dest.args, args):
            if param.id in info.useful and arg.id not in info.useful:
                info.useful.add(arg.id)
                changed = True
    return changed
