"""Capture liveness (analysis 4): pullback captures that are never consumed.

Activity analysis over-approximates where cotangents flow.  *Usefulness*
is plain graph reachability: a value is useful if some chain of operands
connects it to the return.  But the reverse sweep moves cotangents
through **pullbacks**, and the pullbacks of discrete primitives
(``int``, ``float``-of-``int``, ``len``, comparisons, ``//``, ``%``) are
structurally zero — they return ``None`` for every operand.  A value
whose every path to the return passes through such a pullback is
*varied and useful yet can never receive a cotangent*: its record entry
(and the forward values the pullback closure captures) is dead weight.

This module runs a **backward dataflow pass over the reverse sweep**:
``ct-live`` values are those reachable from the return by walking
operands — except that at a primitive apply site the walk only continues
into operands whose pullback component is structurally non-zero (probed
once per primitive by running the real pullback at seeded samples; a
component is killed only when it is literally ``None``/``ZERO``, never
on a numeric-coincidence ``0.0``, and any rule that cannot be probed
conservatively keeps all operands live).  A record entry whose result is
not ct-live is a **dead capture**: it is reported with a fix-it and may
be dropped by ``VJPPlan`` when built with ``prune_captures=True``
(gradients are bit-identical — the reverse sweep would have skipped the
entry anyway when its adjoint slot came back ZERO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import Diagnostic, SourceLocation
from repro.sil import ir
from repro.sil.primitives import Primitive

#: (id(primitive), id(its vjp), n_args) -> per-operand cotangent flow mask,
#: or None when the rule could not be probed (conservatively: everything
#: flows).  The vjp id keeps the cache correct across ``@derivative``
#: re-registration on a primitive.
_FLOW_CACHE: dict[tuple[int, int, int], Optional[tuple[bool, ...]]] = {}


def _cotangent_flow(prim: Primitive, n_args: int) -> Optional[tuple[bool, ...]]:
    """Which operands of ``prim`` can receive a cotangent, by probing its
    pullback once at seeded scalar samples; None = unknown (all flow)."""
    key = (id(prim), id(prim.vjp), n_args)
    if key in _FLOW_CACHE:
        return _FLOW_CACHE[key]
    mask: Optional[tuple[bool, ...]] = None
    if prim.vjp is not None:
        from repro.analysis.derivatives.linearity import default_samples
        from repro.core.differentiable import is_zero

        try:
            _value, pullback = prim.vjp(*default_samples(n_args))
            out = pullback(1.0)
        except Exception:
            out = None
        if out is not None:
            parts = list(out) if isinstance(out, (tuple, list)) else [out]
            if len(parts) == n_args:
                mask = tuple(not (p is None or is_zero(p)) for p in parts)
    _FLOW_CACHE[key] = mask
    return mask


def _flow_operands(inst: ir.Instruction) -> list[ir.Value]:
    """Operands a live result propagates ct-liveness into."""
    from repro.core.activity import _differentiable_operand_ids

    if isinstance(inst, ir.ApplyInst) and not inst.is_indirect:
        target = inst.callee.target
        if isinstance(target, Primitive):
            mask = _cotangent_flow(target, len(inst.args))
            if mask is None:
                return [
                    arg
                    for i, arg in enumerate(inst.args)
                    if i not in target.nondiff_args
                ]
            return [arg for arg, flows in zip(inst.args, mask) if flows]
    return _differentiable_operand_ids(inst)


def cotangent_live_values(func: ir.Function) -> set[int]:
    """Value ids that can receive a non-zero cotangent in the reverse
    sweep (backward fixpoint seeded at the returns)."""
    blocks = func.reachable_blocks()
    live: set[int] = set()
    for block in blocks:
        term = block.terminator
        if isinstance(term, ir.ReturnInst):
            live.add(term.value.id)

    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            for dest, args in block.terminator.edges():
                for param, arg in zip(dest.args, args):
                    if param.id in live and arg.id not in live:
                        live.add(arg.id)
                        changed = True
            for inst in reversed(block.body):
                if not inst.results:
                    continue
                if not any(r.id in live for r in inst.results):
                    continue
                for op in _flow_operands(inst):
                    if op.id not in live:
                        live.add(op.id)
                        changed = True
    return live


_RECORDED = (
    ir.ApplyInst,
    ir.TupleInst,
    ir.TupleExtractInst,
    ir.StructExtractInst,
)


@dataclass
class DeadCapture:
    """One record entry whose cotangent is provably never consumed."""

    description: str
    kind: str  # opname of the recorded instruction
    value_id: int
    hint: str
    loc: SourceLocation = field(default_factory=SourceLocation)

    def fix_it(self) -> str:
        what = f"%{self.value_id}" + (f" ({self.hint!r})" if self.hint else "")
        return (
            f"value {what} is varied but every cotangent path to it crosses"
            " a zero-derivative (discrete) pullback; build the plan with"
            " prune_captures=True to drop the capture, or mark the consumer"
            " chain @noDerivative"
        )


@dataclass
class CaptureLiveness:
    """Liveness verdict over one function's would-be record entries."""

    func_name: str
    wrt: tuple[int, ...]
    live: set[int] = field(default_factory=set)
    recorded_entries: int = 0
    dead: list[DeadCapture] = field(default_factory=list)

    @property
    def live_entries(self) -> int:
        return self.recorded_entries - len(self.dead)

    @property
    def ok(self) -> bool:
        return not self.dead

    def diagnostics(self) -> list[Diagnostic]:
        return [
            Diagnostic(
                "warning",
                f"dead pullback capture in @{self.func_name}:"
                f" {d.description} — {d.fix_it()}",
                d.loc,
            )
            for d in self.dead
        ]


def analyze_capture_liveness(
    func: ir.Function, wrt: tuple[int, ...], activity=None
) -> CaptureLiveness:
    """Find record entries synthesis would emit whose cotangent can never
    be non-zero (the ``is_varied``/ct-live gap)."""
    from repro.core.activity import analyze_activity

    if activity is None:
        activity = analyze_activity(func, wrt)
    live = cotangent_live_values(func)
    report = CaptureLiveness(
        func_name=func.name, wrt=tuple(wrt), live=live
    )
    for inst in func.instructions():
        if not isinstance(inst, _RECORDED) or not inst.results:
            continue
        if not activity.is_active(inst):
            continue
        report.recorded_entries += 1
        if inst.result.id not in live:
            hint = inst.result.hint
            label = f" ({hint!r})" if hint else ""
            report.dead.append(
                DeadCapture(
                    description=(
                        f"%{inst.result.id} = {inst.opname()}{label}"
                    ),
                    kind=inst.opname(),
                    value_id=inst.result.id,
                    hint=hint,
                    loc=inst.loc,
                )
            )
    return report


def prunable_instruction_ids(
    func: ir.Function, wrt: tuple[int, ...], activity=None
) -> set[int]:
    """``id(inst)`` of every record entry safe to drop under
    ``prune_captures`` (used by ``VJPPlan.build``)."""
    from repro.core.activity import analyze_activity

    if activity is None:
        activity = analyze_activity(func, wrt)
    live = cotangent_live_values(func)
    return {
        id(inst)
        for inst in func.instructions()
        if isinstance(inst, _RECORDED)
        and inst.results
        and activity.is_active(inst)
        and inst.result.id not in live
    }
