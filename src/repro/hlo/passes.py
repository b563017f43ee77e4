"""HLO optimization passes: simplify, fold, CSE, DCE, and fusion.

The pipeline mirrors XLA's scalar/fusion pipeline at small scale.  Fusion
is the pass that delivers the LazyTensor performance result of Table 3:
maximal connected regions of elementwise instructions collapse into single
``fusion`` instructions that the backend executes as one kernel.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.analysis import attribution
from repro.errors import HloError
from repro.hlo.dtypes import cast_array
from repro.hlo.ir import (
    HloComputation,
    HloInstruction,
    HloModule,
)


def _replace_uses(comp: HloComputation, old: HloInstruction, new: HloInstruction):
    for inst in comp.instructions:
        # ``in`` compares by identity: instructions define no ``__eq__``.
        if old in inst.operands:
            inst.operands = [new if op is old else op for op in inst.operands]
    if comp.root is old:
        comp.root = new


def _prune(comp: HloComputation) -> None:
    """Dead-code elimination: keep parameters plus everything reachable."""
    if comp.root is None:
        raise HloError(f"computation {comp.name} has no root")
    # Reachability only, so no post-order list: a plain stack walk.
    reachable = {comp.root}
    stack = [comp.root]
    while stack:
        for op in stack.pop().operands:
            if op not in reachable:
                reachable.add(op)
                stack.append(op)
    comp.instructions = [
        i
        for i in comp.instructions
        if i in reachable or i.opcode == "parameter"
    ]


def dce(module: HloModule) -> bool:
    before = len(module.entry.instructions)
    _prune(module.entry)
    return len(module.entry.instructions) != before


def algebraic_simplify(module: HloModule) -> bool:
    """Local rewrites: identities, double negation, reshape/transpose chains."""
    comp = module.entry
    changed = False
    for inst in list(comp.post_order()):
        new = _simplify_one(comp, inst)
        if new is not None and new is not inst:
            _replace_uses(comp, inst, new)
            changed = True
    if changed:
        _prune(comp)
    return changed


def _is_const_scalar(inst: HloInstruction, value: float) -> bool:
    if inst.opcode == "constant" and inst.literal is not None:
        lit = inst.literal
        return lit.size == 1 and float(lit.reshape(())) == value
    if inst.opcode == "broadcast":
        return _is_const_scalar(inst.operands[0], value)
    return False


def _simplify_one(comp, inst):
    op = inst.opcode
    if op == "add":
        a, b = inst.operands
        if _is_const_scalar(b, 0.0) and a.shape.dims == inst.shape.dims:
            return a
        if _is_const_scalar(a, 0.0) and b.shape.dims == inst.shape.dims:
            return b
    elif op == "subtract":
        a, b = inst.operands
        if _is_const_scalar(b, 0.0) and a.shape.dims == inst.shape.dims:
            return a
    elif op == "multiply":
        a, b = inst.operands
        if _is_const_scalar(b, 1.0) and a.shape.dims == inst.shape.dims:
            return a
        if _is_const_scalar(a, 1.0) and b.shape.dims == inst.shape.dims:
            return b
    elif op == "divide":
        a, b = inst.operands
        if _is_const_scalar(b, 1.0) and a.shape.dims == inst.shape.dims:
            return a
    elif op == "negate":
        (a,) = inst.operands
        if a.opcode == "negate":
            return a.operands[0]
    elif op == "power":
        a, b = inst.operands
        if _is_const_scalar(b, 1.0):
            return a
    elif op == "reshape":
        (a,) = inst.operands
        if a.shape.dims == inst.shape.dims:
            return a
        if a.opcode == "reshape":
            merged = HloInstruction(
                "reshape", [a.operands[0]], inst.shape, attrs=dict(inst.attrs)
            )
            comp.add(merged)
            return merged
    elif op == "transpose":
        (a,) = inst.operands
        perm = inst.attrs["perm"]
        if tuple(perm) == tuple(range(len(perm))):
            return a
        if a.opcode == "transpose":
            inner = a.attrs["perm"]
            composed = tuple(inner[p] for p in perm)
            merged = HloInstruction(
                "transpose",
                [a.operands[0]],
                inst.shape,
                attrs={"perm": composed},
            )
            comp.add(merged)
            return merged
    elif op == "broadcast":
        (a,) = inst.operands
        if a.shape.dims == inst.shape.dims:
            return a
    return None


def constant_fold(module: HloModule) -> bool:
    """Evaluate instructions whose operands are all constants."""
    from repro.hlo.compiler import evaluate_instruction

    comp = module.entry
    changed = False
    values: dict[int, np.ndarray] = {}
    for inst in list(comp.post_order()):
        if inst.opcode == "constant":
            values[inst.id] = inst.literal
            continue
        if inst.opcode in ("parameter", "fusion"):
            continue
        if inst.operands and all(o.id in values for o in inst.operands):
            try:
                result = evaluate_instruction(
                    inst, [values[o.id] for o in inst.operands]
                )
            except Exception:
                continue
            # The folded constant must keep the instruction's recorded
            # element type: folding a bf16 multiply must not resurface
            # as an f32 literal (the values are already quantized).
            folded = HloInstruction(
                "constant",
                [],
                inst.shape,
                literal=cast_array(np.asarray(result), inst.shape.dtype),
            )
            comp.add(folded)
            values[folded.id] = folded.literal
            _replace_uses(comp, inst, folded)
            changed = True
    if changed:
        _prune(comp)
    return changed


def cse(module: HloModule) -> bool:
    comp = module.entry
    seen: dict[tuple, HloInstruction] = {}
    changed = False
    for inst in list(comp.post_order()):
        key = _cse_key(inst)
        if key is None:
            continue
        existing = seen.get(key)
        if existing is not None and existing is not inst:
            _replace_uses(comp, inst, existing)
            changed = True
        else:
            seen[key] = inst
    if changed:
        _prune(comp)
    return changed


def _cse_key(inst: HloInstruction):
    if inst.opcode == "parameter":
        return None
    if inst.opcode == "fusion":
        return None
    if inst.opcode == "constant":
        return (
            "constant",
            inst.shape.dtype,
            inst.literal.shape,
            inst.literal.tobytes(),
        )
    attrs = tuple(sorted((k, repr(v)) for k, v in inst.attrs.items())) if inst.attrs else ()
    return (inst.opcode, tuple([o.id for o in inst.operands]), attrs)


# ---------------------------------------------------------------------------
# Fusion.
# ---------------------------------------------------------------------------

#: Opcodes allowed *inside* a fusion region in addition to elementwise ops.
_FUSABLE_LEAVES = {"constant", "broadcast"}


def fuse_elementwise(module: HloModule) -> bool:
    """Greedy producer-consumer fusion of elementwise regions.

    A fusion root is an elementwise instruction that is not itself consumed
    exclusively by another elementwise instruction.  The region grows
    towards operands: a producer joins if it is elementwise (or a
    constant/broadcast feeding only this region) and *all* of its users are
    already in the region — so fused work is never duplicated.
    """
    comp = module.entry
    order = comp.post_order()
    users: dict[int, list[HloInstruction]] = {}
    for inst in order:
        for op in inst.operands:
            users.setdefault(op.id, []).append(inst)
    in_region: set[int] = set()
    changed = False

    def is_root(inst: HloInstruction) -> bool:
        if not inst.is_elementwise or inst.id in in_region:
            return False
        inst_users = users.get(inst.id, [])
        if inst is comp.root and not inst_users:
            return True
        if not inst_users:
            return False
        return not (
            len(inst_users) >= 1
            and all(u.is_elementwise for u in inst_users)
            and inst is not comp.root
        )

    for inst in reversed(order):
        if not is_root(inst):
            continue
        region = _grow_region(inst, users, in_region)
        if len([i for i in region if i.is_elementwise]) < 2:
            continue
        fusion = _build_fusion(comp, inst, region)
        _replace_uses(comp, inst, fusion)
        in_region.update(i.id for i in region)
        changed = True

    if changed:
        _prune(comp)
    return changed


def _grow_region(root, users, claimed) -> list[HloInstruction]:
    region = {root.id: root}
    frontier = [root]
    while frontier:
        inst = frontier.pop()
        for op in inst.operands:
            if op.id in region or op.id in claimed:
                continue
            if not (op.is_elementwise or op.opcode in _FUSABLE_LEAVES):
                continue
            op_users = users.get(op.id, [])
            if not all(u.id in region for u in op_users):
                continue
            region[op.id] = op
            frontier.append(op)
    return list(region.values())


def _build_fusion(comp, root, region) -> HloInstruction:
    region_ids = {i.id for i in region}
    external: list[HloInstruction] = []
    seen_external: set[int] = set()
    for inst in region:
        for op in inst.operands:
            if op.id not in region_ids and op.id not in seen_external:
                seen_external.add(op.id)
                external.append(op)

    inner = HloComputation(f"fused.{root.id}")
    mapping: dict[int, HloInstruction] = {}
    for i, ext in enumerate(external):
        param = HloInstruction("parameter", [], ext.shape, parameter_number=i)
        inner.add(param)
        mapping[ext.id] = param

    inner.set_root(_clone_into(inner, root, mapping))
    fusion = HloInstruction(
        "fusion", external, root.shape, fused_computation=inner
    )
    comp.add(fusion)
    return fusion


def _clone_into(
    inner: HloComputation, inst: HloInstruction, mapping: dict[int, HloInstruction]
) -> HloInstruction:
    """Copy ``inst`` into ``inner``, unmapped operands first.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, left for the garbage collector to find.
    """
    copy = mapping.get(inst.id)
    if copy is None:
        copy = HloInstruction(
            inst.opcode,
            [_clone_into(inner, op, mapping) for op in inst.operands],
            inst.shape,
            attrs=dict(inst.attrs),
            literal=inst.literal,
        )
        inner.add(copy)
        mapping[inst.id] = copy
    return copy


def _checked(pass_name: str, module: HloModule, before: str) -> None:
    from repro.hlo.printer import print_module
    from repro.hlo.verify import verify_module

    try:
        verify_module(module)
    except HloError as exc:
        raise HloError(
            attribution.attribute_failure(
                pass_name, f"module {module.name!r}", exc, before, print_module(module)
            ),
            offending_pass=pass_name,
        ) from exc


def optimize(
    module: HloModule,
    fuse: bool = True,
    max_iters: int = 8,
    verify_each: Optional[bool] = None,
    on_pass: Optional[Callable[[str, HloModule, bool], None]] = None,
) -> HloModule:
    """The default pipeline: simplify/fold/CSE/DCE to fixpoint, then fuse.

    With ``verify_each`` (per call, or globally via
    :func:`repro.analysis.attribution.set_verify_each`), the module is
    re-verified after every pass iteration and a failure names the
    offending pass with before/after IR dumps.

    ``on_pass(name, module, changed)`` is invoked after every pass
    application — the hook the memory planner's pass-attribution uses to
    measure how each pass (DCE, fusion, ...) moves the peak-memory bound.
    """
    verify_each = attribution.verify_each_enabled(verify_each)
    if verify_each:
        from repro.hlo.verify import verify_module

        try:
            verify_module(module)
        except HloError as exc:
            raise HloError(
                f"module {module.name!r} was already malformed before "
                f"optimization (builder/lowering bug, not a pass bug): {exc}"
            ) from exc

    passes = (
        ("algebraic_simplify", algebraic_simplify),
        ("constant_fold", constant_fold),
        ("cse", cse),
        ("dce", dce),
    )

    def run(name, pass_fn):
        if not verify_each:
            changed = pass_fn(module)
        else:
            from repro.hlo.printer import print_module

            before = print_module(module)
            changed = pass_fn(module)
            _checked(name, module, before)
        if on_pass is not None:
            on_pass(name, module, changed)
        return changed

    for _ in range(max_iters):
        changed = False
        for name, pass_fn in passes:
            changed |= run(name, pass_fn)
        if not changed:
            break
    if fuse:
        run("fuse_elementwise", fuse_elementwise)
        run("dce", dce)
    return module
