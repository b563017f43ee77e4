"""The translation validator: prove emitted source ≡ its HLO module.

Two independent symbolic executions meet in one shared
:class:`~repro.analysis.equivalence.normalform.TermTable`:

* :func:`module_terms` walks the module schedule and builds, for every
  instruction, the term the *interpreted* backend computes — the result
  coercions of ``evaluate_instruction``, the f32-accumulation wrapping of
  f16 contraction operands, and the narrow-accumulator reduce semantics,
  all derived from the instructions' static dtypes.
* :func:`function_terms` parses the emitted source with :mod:`ast` and
  symbolically executes its assignments: variable names map to term ids,
  kernel-table calls map back to the term algebra, and buffer reuse is
  just rebinding — a read of a clobbered name yields the clobbering term,
  so a stale-reuse miscompile surfaces as a divergent consumer.

The translation is certified iff the two root terms are the *same id*
(hash-consing makes structural equality an integer compare).  On failure
the validator pairs the module's expected value sequence with the
function's assignment sequence and reports the first divergent value with
a located diagnostic into the emitted source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import CodeType
from typing import Optional

import numpy as np

from repro.errors import Diagnostic, HloError, SourceLocation
from repro.hlo.codegen import _REDUCE_KERNELS, _hoisted_constant, freeze
from repro.hlo.compiler import _BINARY_KERNELS, _UNARY_KERNELS
from repro.hlo.dtypes import np_dtype_of
from repro.hlo.ir import (
    BF16,
    F16,
    F64,
    NARROW_DTYPES,
    HloInstruction,
    HloModule,
)
from repro.hlo.ops import HLO_OPS
from repro.analysis.equivalence.normalform import LIT, TERM, TermTable

_COERCED_DTYPES = (F16, BF16, F64)


@dataclass(frozen=True)
class ExpectedValue:
    """One value the schedule computes: its label and its semantic term."""

    label: str
    term: int


# ---------------------------------------------------------------------------
# HLO side: the schedule's semantics as terms.
# ---------------------------------------------------------------------------


def _raw_term(inst: HloInstruction, args: list[int], table: TermTable) -> int:
    op = inst.opcode
    at = inst.attrs
    t = [(TERM, a) for a in args]
    row = HLO_OPS.get(op)
    if row is not None:
        if row.f32_accum:
            t = [
                (TERM, table.f32acc(a) if o.shape.dtype == F16 else a)
                for o, a in zip(inst.operands, args)
            ]
        return table.kernel(row.kernel, t + [(LIT, freeze(v)) for v in row.attr_values(at)])
    if op == "convert":
        return table.cast(at["new_dtype"], args[0])
    if op in _UNARY_KERNELS:
        return table.kernel(_UNARY_KERNELS[op], t)
    if op in _BINARY_KERNELS:
        return table.kernel(_BINARY_KERNELS[op], t)
    if op == "compare":
        return table.compare(at["direction"], args[0], args[1])
    if op == "not":
        return table.logical_not(args[0])
    if op == "reduce":
        kind = at["kind"]
        x = args[0]
        if at.get("accum") == "f32":
            if np_dtype_of(inst.operands[0].shape.dtype) != np.float32:
                x = table.astype_f32(x)
        elif inst.shape.dtype in NARROW_DTYPES and kind in ("sum", "mean"):
            return table.narrow_reduce(
                args[0], at["axes"], at["keepdims"], kind, inst.shape.dtype
            )
        return table.kernel(
            _REDUCE_KERNELS[kind],
            [(TERM, x), (LIT, freeze(at["axes"])), (LIT, bool(at["keepdims"]))],
        )
    raise ValueError(f"no semantic lowering for opcode {op!r}")


def _instruction_term(inst: HloInstruction, args: list[int], table: TermTable) -> int:
    raw = _raw_term(inst, args, table)
    dt = inst.shape.dtype
    if inst.opcode != "convert" and dt in _COERCED_DTYPES:
        return table.cast(dt, raw)
    return raw


def module_terms(
    module: HloModule,
    table: TermTable,
    schedule: Optional[list[HloInstruction]] = None,
) -> tuple[int, list[ExpectedValue]]:
    """The module's root term plus the expected value sequence, in the
    exact order the generator emits assignments (fusions inlined).
    ``schedule`` is ``module.schedule()`` when the caller already walked it."""
    env: dict[int, int] = {}
    expected: list[ExpectedValue] = []
    root = module.entry.root

    def fusion_terms(fusion: HloInstruction, ext: list[int]) -> int:
        inner = fusion.fused_computation
        inner_env: dict[int, int] = {}
        inner_root = inner.root
        for inst in inner.post_order():
            if inst.opcode == "parameter":
                inner_env[inst.id] = ext[inst.parameter_number]
                continue
            if inst.opcode == "constant":
                inner_env[inst.id] = table.const(_hoisted_constant(inst))
                continue
            term = _instruction_term(
                inst, [inner_env[o.id] for o in inst.operands], table
            )
            inner_env[inst.id] = term
            label = (
                f"%{fusion.name}"
                if inst is inner_root
                else f"%{fusion.name}.{inst.name}"
            )
            expected.append(ExpectedValue(label, term))
        if inner_root.opcode in ("parameter", "constant"):
            expected.append(ExpectedValue(f"%{fusion.name}", inner_env[inner_root.id]))
        return inner_env[inner_root.id]

    for inst in module.schedule() if schedule is None else schedule:
        op = inst.opcode
        if op == "parameter":
            env[inst.id] = table.param(inst.parameter_number)
            continue
        if op == "constant":
            env[inst.id] = table.const(_hoisted_constant(inst))
            continue
        if op == "tuple":
            env[inst.id] = table.tuple_([env[o.id] for o in inst.operands])
            if inst is not root:
                expected.append(ExpectedValue(f"%{inst.name}", env[inst.id]))
            continue
        if op == "fusion":
            env[inst.id] = fusion_terms(inst, [env[o.id] for o in inst.operands])
            continue
        env[inst.id] = _instruction_term(
            inst, [env[o.id] for o in inst.operands], table
        )
        expected.append(ExpectedValue(f"%{inst.name}", env[inst.id]))
    return env[root.id], expected


# ---------------------------------------------------------------------------
# AST side: symbolic execution of the emitted function.
# ---------------------------------------------------------------------------


class _Reject(Exception):
    """An emitted-source construct outside the certified grammar."""

    def __init__(self, message: str, node: ast.AST) -> None:
        super().__init__(message)
        self.message = message
        self.lineno = getattr(node, "lineno", 0)
        self.col = getattr(node, "col_offset", 0)


@dataclass
class FunctionExec:
    """The result of symbolically executing one emitted step function."""

    assignments: list[tuple[int, str, int]] = field(default_factory=list)
    ret_term: Optional[int] = None
    ret_lineno: int = 0
    errors: list[Diagnostic] = field(default_factory=list)
    #: The parsed source, so a certified translation compiles the very
    #: tree it was proven on without parsing the text again.
    tree: Optional[ast.Module] = None


def _frozen(value, node: ast.AST):
    try:
        return freeze(value)
    except HloError as exc:
        raise _Reject(str(exc), node) from None


#: What :func:`_read_constant` returns for a node it cannot read.
_UNREAD = object()


def _read_constant(node: ast.AST):
    """The value of a constant, or of a tuple of constants, read off the
    tree; ``_UNREAD`` for any other node."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Tuple):
        values = tuple(_read_constant(e) for e in node.elts)
        if not any(v is _UNREAD for v in values):
            return values
    return _UNREAD


def _literal_value(node: ast.AST):
    """What ``ast.literal_eval(node)`` returns, raising as it does.  The
    constants the emitter writes are read directly: each ``literal_eval``
    call also builds a reference cycle of closures for the collector."""
    value = _read_constant(node)
    return ast.literal_eval(node) if value is _UNREAD else value


def _literal(node: ast.AST):
    """The frozen value of a literal-only slot (a helper's dtype, axes,
    kind ...); anything but a literal is rejected."""
    try:
        value = _literal_value(node)
    except (ValueError, TypeError):
        raise _Reject(f"expected a literal, found {ast.dump(node)[:60]}", node) from None
    return _frozen(value, node)


class _SymbolicEvaluator:
    def __init__(self, consts: tuple, env: dict[str, int], table: TermTable) -> None:
        self.consts = consts
        self.env = env
        self.table = table
        #: Pool index -> term, interned on the first read of ``C[i]``.
        self.pool_terms: dict[int, int] = {}

    def eval(self, node: ast.AST) -> int:
        if isinstance(node, ast.Name):
            term = self.env.get(node.id)
            if term is None:
                raise _Reject(f"read of undefined value {node.id!r}", node)
            return term
        if isinstance(node, ast.Tuple):
            return self.table.tuple_([self.eval(e) for e in node.elts])
        if isinstance(node, ast.Subscript):
            return self._const(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        raise _Reject(
            f"unsupported expression {ast.dump(node)[:60]}", node
        )

    def _const(self, node: ast.Subscript) -> int:
        if not (isinstance(node.value, ast.Name) and node.value.id == "C"):
            raise _Reject("only the constant pool C[...] may be subscripted", node)
        try:
            index = _literal_value(node.slice)
        except (ValueError, TypeError):
            raise _Reject("constant pool index must be a literal", node) from None
        if not isinstance(index, int) or not 0 <= index < len(self.consts):
            raise _Reject(f"constant pool index {index!r} out of range", node)
        term = self.pool_terms.get(index)
        if term is None:
            term = self.pool_terms[index] = self.table.const(self.consts[index])
        return term

    def _call_args(self, node: ast.Call) -> list[tuple]:
        """Each argument as a term reference or a frozen literal, classified
        by node type: names, calls and subscripts are values, constants
        (and tuples of them) are literals, and any other node is a literal
        if ``literal_eval`` reads it (``-1``) and a value otherwise
        (``(p0, p1)``)."""
        encoded: list[tuple] = []
        for arg in node.args:
            if isinstance(arg, (ast.Name, ast.Call, ast.Subscript)):
                encoded.append((TERM, self.eval(arg)))
                continue
            try:
                value = _literal_value(arg)
            except ValueError:
                encoded.append((TERM, self.eval(arg)))
            except TypeError:
                raise _Reject(f"unhashable literal {ast.dump(arg)[:60]}", arg) from None
            else:
                encoded.append((LIT, _frozen(value, arg)))
        return encoded

    def _call(self, node: ast.Call) -> int:
        func = node.func
        if node.keywords:
            raise _Reject("keyword arguments are outside the grammar", node)
        # K['name'](...) / CMP['dir'](...)
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            try:
                selector = _literal_value(func.slice)
            except (ValueError, TypeError):
                raise _Reject("kernel selector must be a literal", node) from None
            if func.value.id == "K":
                if not isinstance(selector, str):
                    raise _Reject(f"kernel name {selector!r} is not a string", node)
                return self.table.kernel(selector, self._call_args(node))
            if func.value.id == "CMP":
                if len(node.args) != 2:
                    raise _Reject("compare takes two operands", node)
                try:
                    hash(selector)
                except TypeError:
                    raise _Reject(f"compare direction {selector!r} is unhashable", node) from None
                return self.table.compare(
                    selector, self.eval(node.args[0]), self.eval(node.args[1])
                )
            raise _Reject(f"unknown call table {func.value.id!r}", node)
        if isinstance(func, ast.Name):
            if func.id == "cast":
                if len(node.args) != 2:
                    raise _Reject("cast takes (value, dtype)", node)
                return self.table.cast(
                    _literal(node.args[1]), self.eval(node.args[0])
                )
            if func.id == "f32acc":
                if len(node.args) != 1:
                    raise _Reject("f32acc takes one operand", node)
                return self.table.f32acc(self.eval(node.args[0]))
            if func.id == "narrow_reduce":
                if len(node.args) != 5:
                    raise _Reject(
                        "narrow_reduce takes (x, axes, keepdims, kind, dtype)", node
                    )
                return self.table.narrow_reduce(
                    self.eval(node.args[0]),
                    _literal(node.args[1]),
                    _literal(node.args[2]),
                    _literal(node.args[3]),
                    _literal(node.args[4]),
                )
            raise _Reject(f"unknown helper {func.id!r}", node)
        if isinstance(func, ast.Attribute):
            # np.logical_not(x)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "np"
                and func.attr == "logical_not"
                and len(node.args) == 1
            ):
                return self.table.logical_not(self.eval(node.args[0]))
            # x.astype(np.float32)
            if func.attr == "astype" and len(node.args) == 1:
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "np"
                    and arg.attr == "float32"
                ):
                    return self.table.astype_f32(self.eval(func.value))
                raise _Reject("only .astype(np.float32) is in the grammar", node)
        raise _Reject(f"unsupported call {ast.dump(func)[:60]}", func)


def function_terms(
    source: str,
    consts: tuple,
    n_params: int,
    table: TermTable,
    filename: str = "<codegen>",
) -> FunctionExec:
    """Symbolically execute the emitted function into the shared table."""
    execd = FunctionExec()

    def error(message: str, lineno: int, col: int = 0) -> None:
        execd.errors.append(
            Diagnostic("error", message, SourceLocation(filename, lineno, col))
        )

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        error(f"emitted source does not parse: {exc.msg}", exc.lineno or 0)
        return execd
    execd.tree = tree
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(functions) != 1:
        error("emitted source must define exactly one function", 1)
        return execd
    fn = functions[0]
    params = [a.arg for a in fn.args.args]
    if params != [f"p{i}" for i in range(n_params)]:
        error(
            f"function signature {params} does not match the module's "
            f"{n_params} parameters",
            fn.lineno,
        )
        return execd
    env = {f"p{i}": table.param(i) for i in range(n_params)}
    evaluator = _SymbolicEvaluator(consts, env, table)
    for stmt in fn.body:
        try:
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], ast.Name
                ):
                    raise _Reject("only single-name assignments allowed", stmt)
                term = evaluator.eval(stmt.value)
                target = stmt.targets[0].id
                env[target] = term
                execd.assignments.append((stmt.lineno, target, term))
            elif isinstance(stmt, ast.Return):
                if stmt.value is None:
                    raise _Reject("step function must return a value", stmt)
                execd.ret_term = evaluator.eval(stmt.value)
                execd.ret_lineno = stmt.lineno
            else:
                raise _Reject(
                    f"statement {type(stmt).__name__} is outside the grammar", stmt
                )
        except _Reject as reject:
            error(reject.message, reject.lineno, reject.col)
            return execd
    if execd.ret_term is None:
        error("emitted function never returns", fn.lineno)
    return execd


# ---------------------------------------------------------------------------
# The certificate.
# ---------------------------------------------------------------------------


@dataclass
class ValidationResult:
    """The verdict of one translation-validation run."""

    certified: bool
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Values proven (every emitted assignment plus the root).
    checked_values: int = 0
    #: Distinct terms interned across both sides.
    term_count: int = 0
    #: Label of the first divergent value, when rejected.
    divergent_value: Optional[str] = None
    #: The certified source compiled from the tree the proof walked (what
    #: ``compile_step`` executes); ``None`` when rejected.
    code: Optional[CodeType] = None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]


def validate_translation(
    module: HloModule,
    source: str,
    consts: tuple,
    filename: str = "<codegen>",
    schedule: Optional[list[HloInstruction]] = None,
) -> ValidationResult:
    """Certify ``source`` (with constant pool ``consts``) against ``module``
    (whose ``schedule()`` the caller may pass if it already walked it)."""
    table = TermTable()
    root_term, expected = module_terms(module, table, schedule)
    execd = function_terms(
        source, consts, len(module.entry.parameters), table, filename
    )
    diagnostics = list(execd.errors)
    divergent: Optional[str] = None
    certified = not diagnostics and execd.ret_term == root_term
    if not certified and not diagnostics:
        # Locate the first divergent value: the i-th assignment must
        # compute the i-th scheduled value's term.
        for i in range(min(len(expected), len(execd.assignments))):
            lineno, _, term = execd.assignments[i]
            if term != expected[i].term:
                divergent = expected[i].label
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"codegen diverges at {expected[i].label}: the emitted "
                        f"line computes {table.sketch(term)} where the schedule "
                        f"requires {table.sketch(expected[i].term)}",
                        SourceLocation(filename, lineno, 0),
                    )
                )
                break
        if divergent is None and len(execd.assignments) != len(expected):
            n = min(len(expected), len(execd.assignments))
            divergent = (
                expected[n].label if n < len(expected) else "<extra assignment>"
            )
            lineno = (
                execd.assignments[n][0]
                if n < len(execd.assignments)
                else execd.ret_lineno
            )
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"codegen emits {len(execd.assignments)} values where the "
                    f"schedule computes {len(expected)}; first unmatched: "
                    f"{divergent}",
                    SourceLocation(filename, lineno, 0),
                )
            )
        if divergent is None:
            divergent = "<root>"
            diagnostics.append(
                Diagnostic(
                    "error",
                    "codegen diverges at the root value: the function returns "
                    f"{table.sketch(execd.ret_term) if execd.ret_term is not None else 'nothing'} "
                    f"but the module root is {table.sketch(root_term)}",
                    SourceLocation(filename, execd.ret_lineno, 0),
                )
            )
    return ValidationResult(
        certified=certified,
        diagnostics=diagnostics,
        checked_values=len(expected) + 1,
        term_count=len(table),
        divergent_value=divergent,
        code=compile(execd.tree, filename, "exec") if certified else None,
    )
