"""Typed verification of SIL functions (the second verifier tier).

:mod:`repro.sil.verify` checks SSA *structure*; this module checks the
instruction-level typing discipline on top of it:

* apply-site arity against the callee's signature — primitive signatures
  come from :attr:`repro.sil.primitives.Primitive.arity`, lowered-function
  callees must receive exactly one argument per parameter (the frontend
  materializes defaults at call sites);
* operand dtype expectations: math primitives take numeric operands,
  ``cond_br`` conditions must be truth-testable scalars, projections
  (``tuple_extract``/``struct_extract``) must project out of aggregates;
* tuple shape: a ``tuple_extract`` whose operand is a ``tuple`` instruction
  of statically-known arity must use an in-range index, and branch argument
  types must be compatible with the destination block-argument types.

Types are propagated forward through the function first (a small local
inference: constants and comparison results refine the advisory ``ANY``
annotations), so e.g. feeding a comparison result into ``exp`` is caught
even though the frontend typed both values ``ANY``.

All problems are *collected* as :class:`~repro.errors.Diagnostic`s rather
than raised one at a time — the batched-diagnostics discipline of the
paper's Section 2.2 pipeline.
"""

from __future__ import annotations

from repro.errors import Diagnostic, VerificationError, render_diagnostics
from repro.sil import ir
from repro.sil.primitives import Primitive

#: Primitives whose result is always a boolean.
_BOOL_RESULT_PRIMS = {"lt", "le", "gt", "ge", "eq", "ne", "not", "bool"}

#: Primitives requiring numeric (scalar or tensor) operands.
_NUMERIC_ONLY_PRIMS = {
    "exp",
    "log",
    "sin",
    "cos",
    "tanh",
    "sqrt",
    "rsqrt",
    "sigmoid",
    "relu",
    "neg",
    "sub",
    "div",
    "pow",
    "abs",
}

#: SILTypes acceptable as operands of numeric primitives.
_NUMERIC_TYPES = {ir.FLOAT, ir.INT, ir.BOOL, ir.TENSOR, ir.ANY}

#: SILTypes that can never be truth-tested meaningfully as a branch
#: condition in lowered code (callables and strings reaching a ``cond_br``
#: always indicate a frontend or pass bug).
_BAD_COND_TYPES = {ir.FUNCTION, ir.STRING}

#: Result types of primitives with a statically-known result dtype.
_RESULT_TYPE_PRIMS: dict[str, ir.SILType] = {
    **{name: ir.BOOL for name in _BOOL_RESULT_PRIMS},
    "float": ir.FLOAT,
    "int": ir.INT,
    "len": ir.INT,
    "tuple_make": ir.TUPLE,
    "list_make": ir.LIST,
}


def _loc(inst: ir.Instruction):
    return inst.loc


def _infer_types(func: ir.Function) -> dict[int, ir.SILType]:
    """Forward type propagation: refine ``ANY`` annotations where the
    defining instruction makes the type statically evident."""
    types: dict[int, ir.SILType] = {}
    for value in func.values():
        types[value.id] = value.type

    for block in func.reachable_blocks():
        for inst in block.instructions:
            if isinstance(inst, ir.ConstInst):
                types[inst.result.id] = ir._literal_type(inst.literal)
            elif isinstance(inst, ir.TupleInst):
                types[inst.result.id] = ir.TUPLE
            elif isinstance(inst, ir.ApplyInst) and not inst.is_indirect:
                target = inst.callee.target
                if isinstance(target, Primitive):
                    refined = _RESULT_TYPE_PRIMS.get(target.name)
                    if refined is not None:
                        types[inst.result.id] = refined
    return types


def typecheck(func: ir.Function) -> list[Diagnostic]:
    """Collect every typing violation in ``func`` (does not raise)."""
    diagnostics: list[Diagnostic] = []
    types = _infer_types(func)

    def type_of(value: ir.Value) -> ir.SILType:
        return types.get(value.id, ir.ANY)

    for block in func.reachable_blocks():
        for inst in block.instructions:
            if isinstance(inst, ir.ApplyInst):
                diagnostics.extend(_check_apply(func, inst, type_of))
            elif isinstance(inst, ir.TupleExtractInst):
                diagnostics.extend(_check_tuple_extract(func, inst, type_of))
            elif isinstance(inst, ir.StructExtractInst):
                operand_t = type_of(inst.operands[0])
                if operand_t not in (ir.STRUCT, ir.ANY):
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"@{func.name}: struct_extract #{inst.field} of "
                            f"non-struct value of type {operand_t!r}",
                            _loc(inst),
                        )
                    )
            elif isinstance(inst, ir.BeginAccessInst):
                base_t = type_of(inst.base)
                if base_t is ir.ACCESS:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"@{func.name}: begin_access base {inst.base} is "
                            f"itself an access token",
                            _loc(inst),
                        )
                    )
                if inst.key_kind == "attr":
                    key_t = type_of(inst.key)
                    if key_t not in (ir.STRING, ir.ANY):
                        diagnostics.append(
                            Diagnostic(
                                "error",
                                f"@{func.name}: begin_access attr key "
                                f"{inst.key} has non-string type {key_t!r}",
                                _loc(inst),
                            )
                        )
            elif isinstance(
                inst, (ir.AccessLoadInst, ir.AccessStoreInst, ir.EndAccessInst)
            ):
                token_t = type_of(inst.token)
                if token_t not in (ir.ACCESS, ir.ANY):
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"@{func.name}: {inst} token operand {inst.token} "
                            f"has type {token_t!r}, expected Access",
                            _loc(inst),
                        )
                    )
            elif isinstance(inst, ir.CondBrInst):
                cond_t = type_of(inst.cond)
                if cond_t in _BAD_COND_TYPES or cond_t in (ir.TUPLE, ir.STRUCT):
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"@{func.name}/{block.name}: cond_br condition "
                            f"{inst.cond} has non-boolean type {cond_t!r}",
                            _loc(inst),
                        )
                    )
            if inst.is_terminator:
                for dest, args in inst.edges():
                    diagnostics.extend(
                        _check_edge_types(func, block, dest, args, type_of)
                    )
    return diagnostics


def verify_typed(func: ir.Function) -> list[Diagnostic]:
    """Structural verification followed by type checking.

    Raises :class:`VerificationError` carrying *all* type errors at once;
    returns the warning-level diagnostics otherwise.
    """
    from repro.sil.verify import verify

    warnings = verify(func)
    diagnostics = typecheck(func)
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise VerificationError(
            f"@{func.name}: {len(errors)} type error(s):\n"
            + render_diagnostics(errors)
        )
    return warnings + diagnostics


# ---------------------------------------------------------------------------
# Per-instruction checks.
# ---------------------------------------------------------------------------


def _compatible(a: ir.SILType, b: ir.SILType) -> bool:
    if a == ir.ANY or b == ir.ANY:
        return True
    if a == b:
        return True
    # Numeric widening along branch edges (loop-carried counters etc.).
    return a in _NUMERIC_TYPES and b in _NUMERIC_TYPES


def _check_edge_types(func, block, dest, args, type_of) -> list[Diagnostic]:
    out = []
    for arg, param in zip(args, dest.args):
        at, pt = type_of(arg), type_of(param)
        if not _compatible(at, pt):
            out.append(
                Diagnostic(
                    "error",
                    f"@{func.name}/{block.name}: branch passes {arg} of type "
                    f"{at!r} to {dest.name} argument of type {pt!r}",
                    _loc(block.terminator),
                )
            )
    return out


def _check_apply(func, inst: ir.ApplyInst, type_of) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    callee = inst.callee
    target = None
    if not inst.is_indirect:
        target = callee.target
    else:
        producer = callee.producer
        if isinstance(producer, ir.ConstInst):
            target = producer.literal

    n_args = len(inst.args)
    if isinstance(target, Primitive):
        lo, hi = target.arity
        if n_args < lo or (hi is not None and n_args > hi):
            expected = f"{lo}" if hi == lo else f"{lo}..{'*' if hi is None else hi}"
            out.append(
                Diagnostic(
                    "error",
                    f"@{func.name}: apply @{target.name} expects {expected} "
                    f"argument(s), got {n_args}",
                    _loc(inst),
                )
            )
        if target.name in _NUMERIC_ONLY_PRIMS:
            for arg in inst.args:
                at = type_of(arg)
                if at not in _NUMERIC_TYPES:
                    out.append(
                        Diagnostic(
                            "error",
                            f"@{func.name}: apply @{target.name} operand "
                            f"{arg} has non-numeric type {at!r}",
                            _loc(inst),
                        )
                    )
    elif isinstance(target, ir.Function):
        if n_args != len(target.params):
            out.append(
                Diagnostic(
                    "error",
                    f"@{func.name}: apply @{target.name} expects "
                    f"{len(target.params)} argument(s), got {n_args}",
                    _loc(inst),
                )
            )
    elif inst.is_indirect and target is not None and not callable(target):
        out.append(
            Diagnostic(
                "error",
                f"@{func.name}: apply of non-callable constant {target!r}",
                _loc(inst),
            )
        )
    return out


def _check_tuple_extract(func, inst: ir.TupleExtractInst, type_of) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    operand = inst.operands[0]
    operand_t = type_of(operand)
    if operand_t not in (ir.TUPLE, ir.LIST, ir.ANY):
        out.append(
            Diagnostic(
                "error",
                f"@{func.name}: tuple_extract of non-aggregate value "
                f"{operand} of type {operand_t!r}",
                _loc(inst),
            )
        )
    producer = operand.producer
    if isinstance(producer, ir.TupleInst):
        arity = len(producer.operands)
        if not (0 <= inst.index < arity):
            out.append(
                Diagnostic(
                    "error",
                    f"@{func.name}: tuple_extract index {inst.index} out of "
                    f"range for tuple of {arity} element(s)",
                    _loc(inst),
                )
            )
    return out
