"""HLO module verification.

The builder (:mod:`repro.hlo.builder`) runs shape inference while the graph
is constructed, but nothing re-checks the invariants after optimization
passes rewrite the module.  This verifier closes that gap:

* **operand consistency / def-before-use** — every operand of every
  reachable instruction is a member of its computation;
* **acyclicity** — the instruction graph is a DAG (a rewrite that
  accidentally creates a cycle would hang ``post_order``'s consumers);
* **shape/dtype agreement** — re-runs :mod:`repro.hlo.shapes` inference
  against each instruction's recorded :class:`~repro.hlo.ir.Shape`;
* **parameter discipline** — parameter numbers are present, unique, and
  dense ``0..n-1``; constants carry literals matching their shape;
* **fusion-region well-formedness** — a ``fusion`` instruction's inner
  computation has one parameter per outer operand with matching shapes, a
  root whose shape equals the fusion's, and contains only elementwise ops,
  constants, broadcasts, and parameters.

All problems found are reported in a single :class:`~repro.errors.HloError`
with instruction-level locations (``computation:%name``), mirroring the
batched-diagnostics style of the SIL verifiers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HloError, ShapeError
from repro.hlo import shapes as si
from repro.hlo.compiler import _COMPARE
from repro.hlo.ir import (
    ELEMENTWISE,
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    HloComputation,
    HloInstruction,
    HloModule,
    Shape,
)
from repro.hlo.ops import HLO_OPS

#: Opcodes legal inside a fusion region.
_FUSION_REGION_OPCODES = ELEMENTWISE | {"constant", "broadcast", "parameter"}


def verify_module(module: HloModule) -> None:
    """Raise :class:`HloError` listing every invariant violated by
    ``module``; returns normally on a well-formed module."""
    problems = verify_computation(module.entry, path=module.name)
    if problems:
        raise HloError(
            f"HLO module {module.name!r}: {len(problems)} verification "
            "problem(s):\n" + "\n".join(problems)
        )


def verify_computation(comp: HloComputation, path: str = "") -> list[str]:
    """Collect (not raise) every problem in ``comp`` and nested regions."""
    where = f"{path}/{comp.name}" if path else comp.name
    problems: list[str] = []

    if comp.root is None:
        return [f"{where}: computation has no root"]

    members = {id(i) for i in comp.instructions}
    if id(comp.root) not in members:
        problems.append(
            f"{where}: root %{comp.root.name} is not a member instruction"
        )

    cycle = _find_cycle(comp)
    if cycle is not None:
        problems.append(
            f"{where}: instruction graph has a cycle through "
            + " -> ".join(f"%{i.name}" for i in cycle)
        )
        return problems  # shape inference below would not terminate sanely

    # Reachable = root plus everything feeding it; parameters always checked.
    reachable = comp.post_order()
    reachable_ids = {i.id for i in reachable}
    checked = list(reachable) + [
        p for p in comp.parameters if p.id not in reachable_ids
    ]

    param_numbers: list[int] = []
    for inst in checked:
        loc = f"{where}:%{inst.name}"
        for op in inst.operands:
            if id(op) not in members:
                problems.append(
                    f"{loc}: operand %{op.name} is not defined in this "
                    "computation (def-before-use violation)"
                )
        if inst.opcode == "parameter":
            if inst.parameter_number is None:
                problems.append(f"{loc}: parameter without a parameter_number")
            else:
                param_numbers.append(inst.parameter_number)
        problems.extend(_check_shape(inst, loc))
        if inst.opcode == "fusion":
            problems.extend(_check_fusion(inst, loc, where))

    if param_numbers and sorted(param_numbers) != list(range(len(param_numbers))):
        problems.append(
            f"{where}: parameter numbers {sorted(param_numbers)} are not "
            f"dense 0..{len(param_numbers) - 1}"
        )
    return problems


def _find_cycle(comp: HloComputation) -> list[HloInstruction] | None:
    """Iterative three-color DFS over the operand graph."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for start in comp.instructions:
        if color.get(start.id, WHITE) != WHITE:
            continue
        stack: list[tuple[HloInstruction, int]] = [(start, 0)]
        color[start.id] = GREY
        trail = [start]
        while stack:
            inst, idx = stack.pop()
            if idx < len(inst.operands):
                stack.append((inst, idx + 1))
                op = inst.operands[idx]
                c = color.get(op.id, WHITE)
                if c == GREY:
                    return trail + [op]
                if c == WHITE:
                    color[op.id] = GREY
                    trail.append(op)
                    stack.append((op, 0))
            else:
                color[inst.id] = BLACK
                if trail and trail[-1] is inst:
                    trail.pop()
    return None


# ---------------------------------------------------------------------------
# Shape re-inference.
# ---------------------------------------------------------------------------


def _check_shape(inst: HloInstruction, loc: str) -> list[str]:
    try:
        expected = _infer_shape(inst)
    except ShapeError as exc:
        return [f"{loc}: shape inference failed: {exc}"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{loc}: malformed instruction: {exc!r}"]
    if expected is None:
        return []
    if expected.dims != inst.shape.dims or expected.dtype != inst.shape.dtype:
        return [
            f"{loc}: recorded shape {inst.shape} does not match inferred "
            f"shape {expected}"
        ]
    return []


def _infer_shape(inst: HloInstruction) -> Shape | None:
    op = inst.opcode
    operands = inst.operands
    attrs = inst.attrs

    if op == "parameter":
        return None  # parameter shapes are the signature; nothing to infer
    if op == "constant":
        if inst.literal is None:
            raise ShapeError("constant without a literal")
        return Shape(tuple(int(d) for d in np.asarray(inst.literal).shape),
                     inst.shape.dtype)
    row = HLO_OPS.get(op)
    if row is not None:
        return row.infer([o.shape for o in operands], attrs, inst.shape.dtype)
    if op == "compare" and attrs.get("direction") not in _COMPARE:
        raise ShapeError(
            f"compare direction {attrs.get('direction')!r} is not one of "
            f"{sorted(_COMPARE)}"
        )
    if op in ELEMENTWISE_BINARY:
        return si.infer_elementwise_binary(op, operands[0].shape, operands[1].shape)
    if op in ELEMENTWISE_UNARY:
        return operands[0].shape
    if op == "convert":
        return si.infer_convert(operands[0].shape, attrs["new_dtype"])
    if op == "reduce":
        return si.infer_reduce(operands[0].shape, attrs["axes"], attrs["keepdims"])
    if op == "tuple":
        return Shape((len(operands),), "tuple")
    if op == "fusion":
        inner = inst.fused_computation
        if inner is None or inner.root is None:
            raise ShapeError("fusion without a fused computation root")
        return inner.root.shape
    return None  # unknown opcodes are rejected by HloInstruction.__init__


def _check_fusion(inst: HloInstruction, loc: str, path: str) -> list[str]:
    problems: list[str] = []
    inner = inst.fused_computation
    if inner is None:
        return [f"{loc}: fusion instruction without a fused computation"]
    if len(inner.parameters) != len(inst.operands):
        problems.append(
            f"{loc}: fusion region has {len(inner.parameters)} parameter(s) "
            f"for {len(inst.operands)} operand(s)"
        )
    by_number = sorted(
        inner.parameters, key=lambda p: (p.parameter_number is None, p.parameter_number)
    )
    for param, operand in zip(by_number, inst.operands):
        if param.shape.dims != operand.shape.dims:
            problems.append(
                f"{loc}: fusion parameter %{param.name} shape {param.shape} "
                f"!= operand %{operand.name} shape {operand.shape}"
            )
    if inner.root is not None and inner.root.shape.dims != inst.shape.dims:
        problems.append(
            f"{loc}: fusion shape {inst.shape} != region root shape "
            f"{inner.root.shape}"
        )
    for region_inst in inner.instructions:
        if region_inst.opcode not in _FUSION_REGION_OPCODES:
            problems.append(
                f"{loc}: non-fusable opcode {region_inst.opcode!r} inside "
                "fusion region"
            )
    problems.extend(verify_computation(inner, path=path))
    return problems
