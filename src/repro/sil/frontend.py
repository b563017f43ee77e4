"""Ahead-of-time lowering of Python functions to SIL.

This is the compiler frontend of the reproduction: it parses a Python
function's source with :mod:`ast` and lowers a documented subset of the
language to the SSA IR in :mod:`repro.sil.ir`.  Lowering happens **once**,
when a function is first compiled (e.g. when ``@differentiable`` is applied)
— never per call.  This is the property that makes the AD system
ahead-of-time rather than trace-based.

Supported subset
----------------
* positional parameters (with literal defaults at call sites)
* assignments to names and tuple-of-name targets; augmented assignment
* arithmetic, comparison (non-chained), unary, and boolean operators
  (``and``/``or`` lower to short-circuit control flow)
* ``if``/``elif``/``else``, ``while``, ``for x in <iterable>``, ``break``,
  ``continue``, early ``return``
* subscript/attribute stores (``a[i] = v``, ``obj.f = v``) and augmented
  assignment through them, lowered to formal ``begin_access [modify]`` /
  ``access_store`` / ``end_access`` scopes
* ``with inout(obj, key) as ref:`` (and ``borrow_attr``/``borrow_item``)
  lowered to a ``begin_access [modify]`` scope; ``ref.get()``, ``ref.set(v)``
  and ``ref.update(f)`` operate through the access token
* calls to primitives, other lowerable Python functions (recursively
  lowered, recursion allowed), ``math.*`` functions with registered
  primitive equivalents, and arbitrary first-class callables (indirect
  apply)
* tuple/list literals, indexing loads, attribute loads (struct_extract)
* conditional expressions (``a if c else b``)

Everything else raises :class:`~repro.errors.LoweringError` with a source
location, mirroring compiler diagnostics.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
import threading
import types
from typing import Optional

from repro.errors import LoweringError, SourceLocation
from repro.sil import ir
from repro.sil.primitives import PRIMITIVES, Primitive
from repro.sil.verify import verify
from repro.sil import mathprims  # noqa: F401  (registers math primitives)

#: Python binary-operator AST node -> primitive name.
_BINOPS = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
    ast.Pow: "pow",
    ast.FloorDiv: "floordiv",
    ast.Mod: "mod",
    ast.MatMult: "matmul_op",
}

_CMPOPS = {
    ast.Lt: "lt",
    ast.LtE: "le",
    ast.Gt: "gt",
    ast.GtE: "ge",
    ast.Eq: "eq",
    ast.NotEq: "ne",
}

#: Builtin callables lowered to primitives.
_BUILTIN_PRIMS = {
    len: "len",
    float: "float",
    int: "int",
    bool: "bool",
    abs: "abs",
    min: "min",
    max: "max",
    range: "range",
    print: "print",
}

#: Method names lowered to primitives (``x.sum()`` -> ``apply @tensor_sum(x)``).
#: Tensor and other subsystems extend this table at import time.  ``copy`` is
#: routed to the impure ``value_copy`` primitive so explicit value copies
#: survive optimization and are visible to the copy-materialization analysis.
METHOD_TABLE: dict[str, str] = {"copy": "value_copy"}


def register_method(method_name: str, primitive_name: str) -> None:
    """Route ``value.method_name(...)`` call sites to a primitive."""
    METHOD_TABLE[method_name] = primitive_name


#: Functions lowered and verified: shared by every thread.
_LOWERING_CACHE: dict[object, ir.Function] = {}

#: Published groups of mutually recursive Functions, by member set: the
#: first thread to claim a set decides which Functions it publishes.
_CALL_CYCLES: dict[frozenset, dict] = {}


class _OpenLowerings(threading.local):
    """This thread's lowerings that are not yet published (Tarjan's stack).

    ``order`` holds ``(pyfunc, Function)`` in discovery order, indexed by
    ``position``: the lowerings in progress, so recursion resolves to
    them, and finished ones that call back into one of those.
    ``low[i]`` is the lowest position the i-th lowering in progress has
    reached; a lowering that reaches none below its own closes a group.
    """

    def __init__(self):
        self.order: list[tuple[object, ir.Function]] = []
        self.position: dict[object, int] = {}
        self.low: list[int] = []


_OPEN = _OpenLowerings()


def lower_function(pyfunc) -> ir.Function:
    """Lower ``pyfunc`` to a verified SIL :class:`~repro.sil.ir.Function`.

    Results are cached per function object; recursive functions resolve
    self-references to the in-progress Function.  Other threads see a
    Function only once it, and every unpublished Function it calls, has
    verified: a function outside any call cycle is published alone, the
    members of a mutually recursive cycle together.  A racing thread
    either finds the published Functions or lowers its own copies, and
    the first to publish wins, so every caller gets one Function per
    ``pyfunc`` and a published Function only calls published ones.
    """
    cached = _LOWERING_CACHE.get(pyfunc)
    if cached is not None:
        return cached
    position = _OPEN.position.get(pyfunc)
    if position is not None:
        # A call back into a lowering still open on this thread.
        _OPEN.low[-1] = min(_OPEN.low[-1], position)
        return _OPEN.order[position][1]
    return _lower_new(pyfunc)


def _close(position: int) -> dict:
    """Remove and return this thread's open lowerings from ``position`` on."""
    group = dict(_OPEN.order[position:])
    del _OPEN.order[position:]
    for pyfunc in group:
        del _OPEN.position[pyfunc]
    return group


def _publish(group: dict) -> dict:
    """Publish a closed group of verified Functions; return the published
    ones, which are another thread's if it published first."""
    if len(group) == 1:
        ((pyfunc, func),) = group.items()
        return {pyfunc: _LOWERING_CACHE.setdefault(pyfunc, func)}
    # Every thread closes the same member set, so one claim decides the
    # cycle; ``update`` then inserts all of it in one step (no Python code
    # runs inside it), and rewriting a key with its winner is harmless.
    group = _CALL_CYCLES.setdefault(frozenset(group), group)
    _LOWERING_CACHE.update(group)
    return group


def _lower_new(pyfunc) -> ir.Function:
    """Lower and verify ``pyfunc`` as this thread's newest open lowering."""
    filename = getattr(pyfunc.__code__, "co_filename", "<unknown>")
    try:
        source = textwrap.dedent(inspect.getsource(pyfunc))
    except (OSError, TypeError) as exc:
        raise LoweringError(f"cannot fetch source of {pyfunc!r}: {exc}") from exc
    tree = ast.parse(source)
    fdef = tree.body[0]
    name = pyfunc.__qualname__
    if not isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise _fail(filename, name, fdef, "expected a function definition")
    if isinstance(fdef, ast.AsyncFunctionDef):
        raise _fail(filename, name, fdef, "async functions are unsupported")
    a = fdef.args
    if a.vararg or a.kwarg or a.kwonlyargs or a.posonlyargs:
        raise _fail(
            filename, name, fdef, "only simple positional parameters are supported"
        )

    params = [arg.arg for arg in a.args]
    func = ir.Function(name, params)
    func.pyfunc = pyfunc
    position = len(_OPEN.order)
    _OPEN.order.append((pyfunc, func))
    _OPEN.position[pyfunc] = position
    _OPEN.low.append(position)
    try:
        Lowerer(func, pyfunc, filename).run(fdef)
        verify(func)
    except BaseException:
        # Everything lowered since may call the unfinished ``func``.
        _close(position)
        raise
    finally:
        low = _OPEN.low.pop()
    if low < position:
        # In a cycle through a caller still open: published with it.
        _OPEN.low[-1] = min(_OPEN.low[-1], low)
        return func
    return _publish(_close(position))[pyfunc]


def clear_lowering_cache() -> None:
    _LOWERING_CACHE.clear()
    _CALL_CYCLES.clear()


def lowering_cache_size() -> int:
    return len(_LOWERING_CACHE)


def _loc(filename: str, node: ast.AST) -> SourceLocation:
    return SourceLocation(
        filename, getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
    )


def _fail(filename: str, name: str, node: ast.AST, message: str) -> LoweringError:
    """Every rejection of the frontend: ``file:line:col: function: message``."""
    return LoweringError(f"{_loc(filename, node)}: {name}: {message}")


class _LoopContext:
    """Branch targets for break/continue plus the loop-carried variables."""

    def __init__(self, header: ir.Block, exit: ir.Block, carried: list[str]) -> None:
        self.header = header
        self.exit = exit
        self.carried = carried


class Lowerer:
    """Per-function lowering state: current block and variable bindings."""

    def __init__(self, func: ir.Function, pyfunc, filename: str) -> None:
        self.func = func
        self.pyfunc = pyfunc
        self.filename = filename
        self.block: Optional[ir.Block] = None
        self.vars: dict[str, ir.Value] = {}
        self.loops: list[_LoopContext] = []
        self._globals = pyfunc.__globals__
        self._closure = _closure_bindings(pyfunc)

    # -- plumbing ----------------------------------------------------------

    def loc(self, node: ast.AST) -> SourceLocation:
        return _loc(self.filename, node)

    def fail(self, node: ast.AST, message: str) -> LoweringError:
        return _fail(self.filename, self.func.name, node, message)

    def emit(self, inst: ir.Instruction) -> ir.Value:
        assert self.block is not None
        self.block.append(inst)
        return inst.result if inst.results else None  # type: ignore[return-value]

    def const(self, literal, node=None) -> ir.Value:
        return self.emit(ir.ConstInst(literal, self.loc(node) if node else None))

    def apply_prim(self, name: str, args, node=None) -> ir.Value:
        prim = PRIMITIVES[name]
        return self.emit(
            ir.ApplyInst(ir.FunctionRef(prim), args, self.loc(node) if node else None)
        )

    def terminate(self, term: ir.Terminator) -> None:
        assert self.block is not None
        self.block.append(term)
        self.block = None  # current path is closed

    # -- entry point -------------------------------------------------------

    def run(self, fdef: ast.FunctionDef) -> None:
        entry = self.func.new_block("entry")
        for name in self.func.param_names:
            entry.add_arg(hint=name)
        self.block = entry
        self.vars = dict(zip(self.func.param_names, entry.args))
        terminated = self.lower_stmts(fdef.body)
        if not terminated:
            # Implicit `return None` at the end of the function body.
            none = self.const(None)
            self.terminate(ir.ReturnInst(none))

    # -- statements ---------------------------------------------------------

    def lower_stmts(self, stmts: list[ast.stmt]) -> bool:
        """Lower a statement list; returns True if the path terminated."""
        for stmt in stmts:
            if self.block is None:
                # Unreachable trailing code after return/break/continue.
                return True
            self.lower_stmt(stmt)
        return self.block is None

    def lower_stmt(self, stmt: ast.stmt) -> None:
        method = getattr(self, f"stmt_{type(stmt).__name__}", None)
        if method is None:
            raise self.fail(stmt, f"unsupported statement {type(stmt).__name__}")
        method(stmt)

    def stmt_Return(self, stmt: ast.Return) -> None:
        value = (
            self.lower_expr(stmt.value) if stmt.value is not None else self.const(None)
        )
        self.terminate(ir.ReturnInst(value, self.loc(stmt)))

    def stmt_Pass(self, stmt: ast.Pass) -> None:
        pass

    def stmt_Assert(self, stmt: ast.Assert) -> None:
        # Assertions are compile-time erased in the lowered subset.
        pass

    def stmt_Expr(self, stmt: ast.Expr) -> None:
        if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
            return  # docstring
        self.lower_expr(stmt.value)

    def stmt_Assign(self, stmt: ast.Assign) -> None:
        value = self.lower_expr(stmt.value)
        for target in stmt.targets:
            self.bind_target(target, value)

    def stmt_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is None:
            raise self.fail(stmt, "bare annotations are unsupported")
        self.bind_target(stmt.target, self.lower_expr(stmt.value))

    def stmt_AugAssign(self, stmt: ast.AugAssign) -> None:
        prim = _BINOPS.get(type(stmt.op))
        if prim is None:
            raise self.fail(stmt, f"unsupported operator {type(stmt.op).__name__}")
        if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
            # Read-modify-write under one formal access, mirroring Swift: the
            # exclusive access spans the whole statement, so `a[i] += f(a)`
            # with a mutating `f` is an exclusivity violation.
            loc = self.loc(stmt)
            token = self._begin_target_access(stmt.target)
            current = self.emit(ir.AccessLoadInst(token, loc))
            rhs = self.lower_expr(stmt.value)
            new = self.apply_prim(prim, [current, rhs], stmt)
            self.emit(ir.AccessStoreInst(token, new, loc))
            self.emit(ir.EndAccessInst(token, loc))
            return
        if not isinstance(stmt.target, ast.Name):
            raise self.fail(stmt, "augmented assignment target must be a name")
        current = self.lookup(stmt.target.id, stmt)
        rhs = self.lower_expr(stmt.value)
        self.vars[stmt.target.id] = self.apply_prim(prim, [current, rhs], stmt)

    def _begin_target_access(self, target: ast.expr) -> ir.Value:
        """Lower an lvalue's base and key; open a ``[modify]`` access on it."""
        loc = self.loc(target)
        if isinstance(target, ast.Subscript):
            if isinstance(target.slice, ast.Slice):
                raise self.fail(target, "slice assignment is unsupported")
            base = self.lower_expr(target.value)
            key = self.lower_expr(target.slice)
            key_kind = "item"
        else:
            assert isinstance(target, ast.Attribute)
            base = self.lower_expr(target.value)
            key = self.const(target.attr, target)
            key_kind = "attr"
        return self.emit(ir.BeginAccessInst(base, key, "modify", key_kind, loc))

    def bind_target(self, target: ast.expr, value: ir.Value) -> None:
        if isinstance(target, ast.Name):
            value.hint = value.hint or target.id
            self.vars[target.id] = value
        elif isinstance(target, ast.Tuple):
            for i, elt in enumerate(target.elts):
                if isinstance(elt, ast.Starred):
                    raise self.fail(elt, "starred unpacking is unsupported")
                part = self.emit(ir.TupleExtractInst(value, i, self.loc(target)))
                self.bind_target(elt, part)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            loc = self.loc(target)
            token = self._begin_target_access(target)
            self.emit(ir.AccessStoreInst(token, value, loc))
            self.emit(ir.EndAccessInst(token, loc))
        else:
            raise self.fail(
                target,
                f"unsupported assignment target {type(target).__name__}",
            )

    def stmt_If(self, stmt: ast.If) -> None:
        cond = self.lower_expr(stmt.test)
        then_block = self.func.new_block()
        else_block = self.func.new_block()
        self.terminate(
            ir.CondBrInst(cond, then_block, (), else_block, (), self.loc(stmt))
        )

        base_vars = dict(self.vars)

        self.block, self.vars = then_block, dict(base_vars)
        then_done = self.lower_stmts(stmt.body)
        then_end, then_vars = self.block, self.vars

        self.block, self.vars = else_block, dict(base_vars)
        else_done = self.lower_stmts(stmt.orelse)
        else_end, else_vars = self.block, self.vars

        if then_done and else_done:
            self.block = None
            return

        join = self.func.new_block()
        if then_done:
            self._branch_to_join(else_end, else_vars, join)
        elif else_done:
            self._branch_to_join(then_end, then_vars, join)
        else:
            live = [
                name
                for name in then_vars
                if name in else_vars and then_vars[name] is not else_vars[name]
            ]
            args = {}
            for name in live:
                args[name] = join.add_arg(hint=name)
            then_end.append(
                ir.BrInst(join, [then_vars[n] for n in live], self.loc(stmt))
            )
            else_end.append(
                ir.BrInst(join, [else_vars[n] for n in live], self.loc(stmt))
            )
            merged = {
                n: v for n, v in then_vars.items() if else_vars.get(n) is not None
            }
            merged.update(args)
            self.vars = merged
        self.block = join

    def _branch_to_join(self, end_block, end_vars, join) -> None:
        """Single live path into ``join``: pass everything through directly."""
        end_block.append(ir.BrInst(join, []))
        self.vars = dict(end_vars)

    def stmt_While(self, stmt: ast.While) -> None:
        if stmt.orelse:
            raise self.fail(stmt, "while/else is unsupported")
        carried = self._carried_names(stmt.body)
        self._lower_loop(
            carried,
            test=lambda: self.lower_expr(stmt.test),
            body=stmt.body,
            node=stmt,
        )

    def stmt_For(self, stmt: ast.For) -> None:
        if stmt.orelse:
            raise self.fail(stmt, "for/else is unsupported")
        # Desugar `for t in seq: body` into an index-driven while loop.  The
        # synthetic induction variable gets a unique name so nested loops
        # don't clobber each other's counters.
        idx = f"$idx{stmt.lineno}_{stmt.col_offset}"
        seq = self.lower_expr(stmt.iter)
        length = self.apply_prim("len", [seq], stmt)
        zero = self.const(0, stmt)
        self.vars[idx] = zero
        carried = self._carried_names(stmt.body) + [idx]

        def test() -> ir.Value:
            return self.apply_prim("lt", [self.vars[idx], length], stmt)

        def prologue() -> None:
            element = self.apply_prim("index_get", [seq, self.vars[idx]], stmt)
            one = self.const(1, stmt)
            self.vars[idx] = self.apply_prim("add", [self.vars[idx], one], stmt)
            self.bind_target(stmt.target, element)

        self._lower_loop(carried, test, stmt.body, stmt, prologue)
        del self.vars[idx]

    def _carried_names(self, body: list[ast.stmt]) -> list[str]:
        assigned = _assigned_names(body)
        return [name for name in self.vars if name in assigned]

    def _lower_loop(self, carried, test, body, node, prologue=None) -> None:
        header = self.func.new_block()
        body_block = self.func.new_block()
        exit_block = self.func.new_block()

        for name in carried:
            header.add_arg(hint=name)
        for name in carried:
            exit_block.add_arg(hint=name)

        self.terminate(
            ir.BrInst(header, [self.vars[n] for n in carried], self.loc(node))
        )

        # Header: rebind carried vars to header args, evaluate condition.
        self.block = header
        header_vars = dict(self.vars)
        header_vars.update(zip(carried, header.args))
        self.vars = header_vars
        cond = test()
        self.terminate(
            ir.CondBrInst(
                cond,
                body_block,
                (),
                exit_block,
                [self.vars[n] for n in carried],
                self.loc(node),
            )
        )

        # Body.
        self.block = body_block
        self.vars = dict(header_vars)
        self.loops.append(_LoopContext(header, exit_block, carried))
        try:
            if prologue is not None:
                prologue()
            done = self.lower_stmts(body)
        finally:
            self.loops.pop()
        if not done:
            self.terminate(
                ir.BrInst(header, [self.vars[n] for n in carried], self.loc(node))
            )

        # After the loop, carried vars hold the exit block's arguments.
        self.block = exit_block
        after = dict(header_vars)
        after.update(zip(carried, exit_block.args))
        self.vars = after

    def stmt_Break(self, stmt: ast.Break) -> None:
        if not self.loops:
            raise self.fail(stmt, "break outside loop")
        loop = self.loops[-1]
        self.terminate(
            ir.BrInst(loop.exit, [self.vars[n] for n in loop.carried], self.loc(stmt))
        )

    def stmt_Continue(self, stmt: ast.Continue) -> None:
        if not self.loops:
            raise self.fail(stmt, "continue outside loop")
        loop = self.loops[-1]
        self.terminate(
            ir.BrInst(
                loop.header, [self.vars[n] for n in loop.carried], self.loc(stmt)
            )
        )

    def stmt_With(self, stmt: ast.With) -> None:
        """Lower ``with inout(...)/borrow_attr(...)/borrow_item(...) as ref``.

        Only the scoped-borrow context managers from :mod:`repro.valsem.inout`
        are in the lowered subset; they become a formal ``begin_access
        [modify]`` scope whose token is bound to the ``as`` name.  The body
        must fall through (no return/break/continue out of the scope) so the
        matching ``end_access`` is emitted on every path.
        """
        from repro.valsem.inout import borrow_attr, borrow_item, inout

        if len(stmt.items) != 1:
            raise self.fail(stmt, "only a single context manager is supported")
        item = stmt.items[0]
        ctx = item.context_expr
        if not isinstance(ctx, ast.Call):
            raise self.fail(
                stmt,
                "unsupported statement With: the context expression must be "
                "an inout()/borrow_attr()/borrow_item() call",
            )
        found, target = self.try_static_eval(ctx.func)
        if not found or target not in (inout, borrow_attr, borrow_item):
            raise self.fail(
                stmt,
                "unsupported statement With: only inout()/borrow_attr()/"
                "borrow_item() context managers are in the lowered subset",
            )
        if len(ctx.args) != 2 or ctx.keywords:
            raise self.fail(stmt, "borrow context managers take (owner, key)")

        loc = self.loc(stmt)
        base = self.lower_expr(ctx.args[0])
        if target is borrow_attr:
            key_kind = "attr"
            key = self.lower_expr(ctx.args[1])
        elif target is borrow_item:
            key_kind = "item"
            key = self.lower_expr(ctx.args[1])
        else:
            # inout() picks attr-vs-item at runtime from the key; the lowered
            # subset resolves it statically: string literals name attributes.
            key_node = ctx.args[1]
            is_str = isinstance(key_node, ast.Constant) and isinstance(
                key_node.value, str
            )
            key_kind = "attr" if is_str else "item"
            key = self.lower_expr(key_node)
        token = self.emit(ir.BeginAccessInst(base, key, "modify", key_kind, loc))

        if item.optional_vars is not None:
            if not isinstance(item.optional_vars, ast.Name):
                raise self.fail(stmt, "with-target must be a simple name")
            token.hint = item.optional_vars.id
            self.vars[item.optional_vars.id] = token

        terminated = self.lower_stmts(stmt.body)
        if terminated:
            raise self.fail(
                stmt,
                "return/break/continue out of a borrow scope is outside the "
                "lowered subset (the access must end on every path)",
            )
        self.emit(ir.EndAccessInst(token, loc))
        if item.optional_vars is not None:
            del self.vars[item.optional_vars.id]

    # -- expressions ---------------------------------------------------------

    def lower_expr(self, node: ast.expr) -> ir.Value:
        method = getattr(self, f"expr_{type(node).__name__}", None)
        if method is None:
            raise self.fail(node, f"unsupported expression {type(node).__name__}")
        return method(node)

    def expr_Constant(self, node: ast.Constant) -> ir.Value:
        return self.const(node.value, node)

    def expr_Name(self, node: ast.Name) -> ir.Value:
        return self.lookup(node.id, node)

    def lookup(self, name: str, node: ast.AST) -> ir.Value:
        if name in self.vars:
            return self.vars[name]
        found, obj = self.resolve_static_name(name)
        if found:
            return self.const(obj, node)
        raise self.fail(node, f"name {name!r} is not defined on this path")

    def resolve_static_name(self, name: str) -> tuple[bool, object]:
        if name in self._closure:
            return True, self._closure[name]
        if name in self._globals:
            return True, self._globals[name]
        if hasattr(builtins, name):
            return True, getattr(builtins, name)
        return False, None

    def expr_BinOp(self, node: ast.BinOp) -> ir.Value:
        prim = _BINOPS.get(type(node.op))
        if prim is None:
            raise self.fail(node, f"unsupported operator {type(node.op).__name__}")
        left = self.lower_expr(node.left)
        right = self.lower_expr(node.right)
        return self.apply_prim(prim, [left, right], node)

    def expr_UnaryOp(self, node: ast.UnaryOp) -> ir.Value:
        operand = self.lower_expr(node.operand)
        if isinstance(node.op, ast.USub):
            return self.apply_prim("neg", [operand], node)
        if isinstance(node.op, ast.UAdd):
            return operand
        if isinstance(node.op, ast.Not):
            return self.apply_prim("not", [operand], node)
        raise self.fail(node, f"unsupported unary {type(node.op).__name__}")

    def expr_Compare(self, node: ast.Compare) -> ir.Value:
        if len(node.ops) != 1:
            raise self.fail(node, "chained comparisons are unsupported")
        prim = _CMPOPS.get(type(node.ops[0]))
        if prim is None:
            raise self.fail(
                node, f"unsupported comparison {type(node.ops[0]).__name__}"
            )
        left = self.lower_expr(node.left)
        right = self.lower_expr(node.comparators[0])
        return self.apply_prim(prim, [left, right], node)

    def expr_BoolOp(self, node: ast.BoolOp) -> ir.Value:
        # Short-circuit lowering: `a and b` == `b if a else a`.
        result = self.lower_expr(node.values[0])
        for value_node in node.values[1:]:
            if isinstance(node.op, ast.And):
                result = self._select(result, lambda: self.lower_expr(value_node), result, node)
            else:
                result = self._select(result, result, lambda: self.lower_expr(value_node), node)
        return result

    def expr_IfExp(self, node: ast.IfExp) -> ir.Value:
        cond = self.lower_expr(node.test)
        return self._select(
            cond,
            lambda: self.lower_expr(node.body),
            lambda: self.lower_expr(node.orelse),
            node,
        )

    def _select(self, cond, true_val, false_val, node) -> ir.Value:
        """Control-flow select; arms may be values or thunks lowering lazily."""
        then_block = self.func.new_block()
        else_block = self.func.new_block()
        join = self.func.new_block()
        out = join.add_arg()
        base_vars = dict(self.vars)
        self.terminate(
            ir.CondBrInst(cond, then_block, (), else_block, (), self.loc(node))
        )

        self.block, self.vars = then_block, dict(base_vars)
        tv = true_val() if callable(true_val) else true_val
        self.terminate(ir.BrInst(join, [tv], self.loc(node)))

        self.block, self.vars = else_block, dict(base_vars)
        fv = false_val() if callable(false_val) else false_val
        self.terminate(ir.BrInst(join, [fv], self.loc(node)))

        self.block, self.vars = join, base_vars
        return out

    def expr_Tuple(self, node: ast.Tuple) -> ir.Value:
        elements = [self.lower_expr(e) for e in node.elts]
        return self.emit(ir.TupleInst(elements, self.loc(node)))

    def expr_List(self, node: ast.List) -> ir.Value:
        elements = [self.lower_expr(e) for e in node.elts]
        return self.apply_prim("list_make", elements, node)

    def expr_Subscript(self, node: ast.Subscript) -> ir.Value:
        base = self.lower_expr(node.value)
        if isinstance(node.slice, ast.Slice):
            if node.slice.step is not None:
                raise self.fail(node, "strided slices are unsupported")
            lower = (
                self.lower_expr(node.slice.lower)
                if node.slice.lower is not None
                else self.const(None, node)
            )
            upper = (
                self.lower_expr(node.slice.upper)
                if node.slice.upper is not None
                else self.const(None, node)
            )
            return self.apply_prim("slice_get", [base, lower, upper], node)
        index = self.lower_expr(node.slice)
        return self.apply_prim("index_get", [base, index], node)

    def expr_Attribute(self, node: ast.Attribute) -> ir.Value:
        found, obj = self.try_static_eval(node)
        if found:
            return self.const(obj, node)
        base = self.lower_expr(node.value)
        return self.emit(ir.StructExtractInst(base, node.attr, self.loc(node)))

    def try_static_eval(self, node: ast.expr) -> tuple[bool, object]:
        """Evaluate Name/Attribute chains rooted at module-level constants.

        Only module attributes are folded (e.g. ``math.pi``); attributes of
        runtime values must remain ``struct_extract`` so AD sees them.
        """
        if isinstance(node, ast.Name) and node.id not in self.vars:
            return self.resolve_static_name(node.id)
        if isinstance(node, ast.Attribute):
            found, base = self.try_static_eval(node.value)
            if found and isinstance(base, types.ModuleType):
                try:
                    return True, getattr(base, node.attr)
                except AttributeError:
                    return False, None
        return False, None

    def expr_Call(self, node: ast.Call) -> ir.Value:
        found, target = self.try_static_eval(node.func)
        if found:
            return self.lower_static_call(node, target)

        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "get",
            "set",
            "update",
        ):
            access = self._try_lower_access_method(node)
            if access is not None:
                return access

        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in METHOD_TABLE
        ):
            receiver = self.lower_expr(node.func.value)
            args = [receiver] + [self.lower_expr(a) for a in node.args]
            args += [self.lower_expr(kw.value) for kw in node.keywords]
            return self.apply_prim(METHOD_TABLE[node.func.attr], args, node)

        callee = self.lower_expr(node.func)
        args = self._positional_args(node)
        return self.emit(ir.ApplyInst(callee, args, self.loc(node)))

    def _try_lower_access_method(self, node: ast.Call) -> Optional[ir.Value]:
        """Lower ``ref.get()/.set(v)/.update(f)`` when ``ref`` is an access
        token bound by a ``with inout(...)`` scope.  Returns None when the
        receiver is not a known access token (plain method-call lowering
        proceeds)."""
        recv = node.func.value
        if not (isinstance(recv, ast.Name) and recv.id in self.vars):
            return None
        token = self.vars[recv.id]
        if token.type is not ir.ACCESS:
            return None
        loc = self.loc(node)
        method = node.func.attr
        if node.keywords:
            raise self.fail(node, f"{method}() takes no keyword arguments")
        if method == "get":
            if node.args:
                raise self.fail(node, "get() takes no arguments")
            return self.emit(ir.AccessLoadInst(token, loc))
        if method == "set":
            if len(node.args) != 1:
                raise self.fail(node, "set() takes exactly one argument")
            value = self.lower_expr(node.args[0])
            self.emit(ir.AccessStoreInst(token, value, loc))
            return self.const(None, node)
        if len(node.args) != 1:
            raise self.fail(node, "update() takes exactly one argument")
        current = self.emit(ir.AccessLoadInst(token, loc))
        fn = self.lower_expr(node.args[0])
        new = self.emit(ir.ApplyInst(fn, [current], loc))
        self.emit(ir.AccessStoreInst(token, new, loc))
        return self.const(None, node)

    def _positional_args(self, node: ast.Call) -> list[ir.Value]:
        if node.keywords:
            raise self.fail(
                node, "keyword arguments require a statically-known callee"
            )
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                raise self.fail(a, "*args expansion is unsupported")
            args.append(self.lower_expr(a))
        return args

    def lower_static_call(self, node: ast.Call, target) -> ir.Value:
        loc = self.loc(node)

        if isinstance(target, Primitive):
            return self.emit(
                ir.ApplyInst(ir.FunctionRef(target), self._positional_args(node), loc)
            )

        try:
            mapped = _BUILTIN_PRIMS.get(target)
        except TypeError:  # unhashable callee (e.g. a layer instance)
            mapped = None
        if mapped is not None:
            return self.apply_prim(mapped, self._positional_args(node), node)

        # math.* functions map to registered primitives of the same name.
        if getattr(target, "__module__", None) == "math":
            name = target.__name__
            if name in PRIMITIVES:
                return self.apply_prim(name, self._positional_args(node), node)

        sil_func = getattr(target, "__sil_function__", None)
        if sil_func is not None:
            args = self._bind_call(node, sil_func.pyfunc or target)
            return self.emit(ir.ApplyInst(ir.FunctionRef(sil_func), args, loc))

        if isinstance(target, types.FunctionType):
            try:
                lowered = lower_function(target)
            except LoweringError:
                lowered = None
            if lowered is not None:
                args = self._bind_call(node, target)
                return self.emit(ir.ApplyInst(ir.FunctionRef(lowered), args, loc))

        # Opaque callable: keep the object as a constant, apply indirectly.
        callee = self.const(target, node)
        return self.emit(ir.ApplyInst(callee, self._positional_args(node), loc))

    def _bind_call(self, node: ast.Call, pyfunc) -> list[ir.Value]:
        """Bind call-site args (incl. keywords and defaults) to positions."""
        if not node.keywords:
            args = [self.lower_expr(a) for a in node.args]
            sig = inspect.signature(pyfunc)
            n_params = len(sig.parameters)
            if len(args) < n_params:
                for param in list(sig.parameters.values())[len(args) :]:
                    if param.default is inspect.Parameter.empty:
                        raise self.fail(node, f"missing argument {param.name!r}")
                    args.append(self.const(param.default, node))
            return args

        sig = inspect.signature(pyfunc)
        pos_nodes = list(node.args)
        kw_nodes = {kw.arg: kw.value for kw in node.keywords}
        if None in kw_nodes:
            raise self.fail(node, "**kwargs expansion is unsupported")
        args: list[ir.Value] = []
        for i, param in enumerate(sig.parameters.values()):
            if i < len(pos_nodes):
                args.append(self.lower_expr(pos_nodes[i]))
            elif param.name in kw_nodes:
                args.append(self.lower_expr(kw_nodes.pop(param.name)))
            elif param.default is not inspect.Parameter.empty:
                args.append(self.const(param.default, node))
            else:
                raise self.fail(node, f"missing argument {param.name!r}")
        if kw_nodes:
            raise self.fail(node, f"unexpected keyword arguments {sorted(kw_nodes)}")
        return args


def _closure_bindings(pyfunc) -> dict[str, object]:
    names = pyfunc.__code__.co_freevars
    cells = pyfunc.__closure__ or ()
    bindings = {}
    for name, cell in zip(names, cells):
        try:
            bindings[name] = cell.cell_contents
        except ValueError:  # unfilled cell (e.g. recursion)
            continue
    return bindings


def _assigned_names(stmts: list[ast.stmt]) -> set[str]:
    """Names (re)bound anywhere inside ``stmts``, including nested blocks."""
    names: set[str] = set()

    class Visitor(ast.NodeVisitor):
        def visit_Name(self, node: ast.Name) -> None:
            if isinstance(node.ctx, ast.Store):
                names.add(node.id)

        def visit_FunctionDef(self, node):  # don't descend into nested defs
            names.add(node.name)

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
            self.generic_visit(node)

    for stmt in stmts:
        Visitor().visit(stmt)
    return names
