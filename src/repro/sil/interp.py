"""The SIL evaluator: SIL's meaning, written once.

:class:`Evaluator` owns the only block walker in ``src/`` and the only
per-instruction semantics.  :meth:`Evaluator.run` checks arity, binds block
arguments, charges the step budget, dispatches every body instruction
through a ``type(inst)`` table to an overridable hook and follows
:meth:`~repro.sil.ir.Terminator.edges`.  ``apply`` of a
:class:`~repro.sil.primitives.Primitive` calls its Python implementation;
apply of another lowered :class:`~repro.sil.ir.Function` recurses; indirect
applies call the runtime callee object directly.

The hooks defined here *are* the reference interpreter, the "gold standard"
semantics that optimization passes and the AD transformation are tested
against.  The other execution modes subclass the evaluator and override
only what they add: the VJP forward sweep and the JVP
(:mod:`repro.core.synthesis`) and graph extraction
(:mod:`repro.frameworks.graph_extraction`).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import InterpreterError
from repro.sil import ir
from repro.sil.primitives import Primitive

#: Safety net against accidental infinite loops in lowered user code.
MAX_STEPS = 10_000_000


class _ReadAccess:
    """Runtime token of a ``begin_access [read]``: observe, never mutate.

    Read accesses may overlap each other, so they do not register in the
    exclusivity table; only ``modify`` accesses materialize as
    :class:`~repro.valsem.inout.InoutRef` unique borrows.
    """

    __slots__ = ("_owner", "_key", "_kind")

    def __init__(self, owner, key, kind: str) -> None:
        self._owner = owner
        self._key = key
        self._kind = kind

    def get(self):
        if self._kind == "attr":
            return getattr(self._owner, self._key)
        return self._owner[self._key]

    def set(self, value) -> None:
        raise InterpreterError("access_store through a [read] access")

    def end(self) -> None:
        pass


#: Instruction class -> name of the :class:`Evaluator` hook giving it meaning.
_HOOKS = {
    ir.ConstInst: "const",
    ir.ApplyInst: "apply",
    ir.TupleInst: "tuple",
    ir.TupleExtractInst: "tuple_extract",
    ir.StructExtractInst: "struct_extract",
    ir.BeginAccessInst: "begin_access",
    ir.AccessLoadInst: "access_load",
    ir.AccessStoreInst: "access_store",
    ir.EndAccessInst: "end_access",
}


class Evaluator:
    """One block walker plus one hook per instruction kind.

    A hook takes ``(inst, env)`` and returns the instruction's value, which
    the walker binds to the instruction's result.  ``env`` (SSA value id ->
    runtime object) is local to one :meth:`run`, so the plain evaluator is
    reentrant; whatever else a mode tracks lives on its own instance, whose
    lifetime (usually one call) that mode chooses.
    """

    #: Raised on a wrong argument count or an exhausted step budget.
    error = InterpreterError
    #: Instructions executed by the last finished :meth:`run`: body
    #: instructions plus one per terminator.
    steps = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {kind: getattr(cls, name) for kind, name in _HOOKS.items()}

    def run(self, func: ir.Function, args: Sequence[object]) -> object:
        """Execute ``func`` on ``args`` and return what :meth:`ret` yields."""
        if len(args) != len(func.params):
            raise self.error(
                f"@{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env: dict[int, object] = {}
        table = self._table
        block, edge_args, values = func.entry, None, args
        steps = 0
        while True:
            body = block.body
            steps += len(body) + 1
            if steps > MAX_STEPS:
                raise self.error(f"@{func.name}: exceeded {MAX_STEPS} steps")
            for param, value in zip(block.args, values):
                env[param.id] = value
            self.enter_block(block, edge_args)
            for inst in body:
                try:
                    hook = table[type(inst)]
                except KeyError:
                    raise InterpreterError(f"cannot evaluate {inst}") from None
                value = hook(self, inst, env)
                results = inst.results
                if results:
                    env[results[0].id] = value
            term = block.terminator
            edges = term.edges()
            if not edges:
                self.steps = steps
                return self.ret(term, env)
            first = len(edges) == 1 or self.cond(term, env)
            block, edge_args = edges[0] if first else edges[1]
            values = [env[v.id] for v in edge_args]

    # -- control-flow hooks ---------------------------------------------------

    def enter_block(self, block: ir.Block, edge_args) -> None:
        """Called once per executed block, after its arguments are bound.
        ``edge_args`` are the predecessor's SSA values passed along the
        taken edge (``None`` for the entry block)."""

    def cond(self, term: ir.CondBrInst, env) -> object:
        """The value a conditional branch tests."""
        return env[term.cond.id]

    def ret(self, term: ir.ReturnInst, env) -> object:
        return env[term.value.id]

    # -- instruction hooks ----------------------------------------------------

    def const(self, inst: ir.ConstInst, env):
        return inst.literal

    def apply(self, inst: ir.ApplyInst, env):
        # An indirect apply's callee value is also its first operand.
        args = [env[v.id] for v in inst.operands]
        callee = args.pop(0) if inst.is_indirect else inst.callee.target
        return apply_callee(callee, args)

    def tuple(self, inst: ir.TupleInst, env):
        return tuple(env[v.id] for v in inst.operands)

    def tuple_extract(self, inst: ir.TupleExtractInst, env):
        return env[inst.operands[0].id][inst.index]

    def struct_extract(self, inst: ir.StructExtractInst, env):
        return getattr(env[inst.operands[0].id], inst.field)

    def begin_access(self, inst: ir.BeginAccessInst, env):
        base, key = env[inst.base.id], env[inst.key.id]
        if inst.kind == "modify":
            from repro.valsem.inout import InoutRef

            # The dynamic exclusivity check: overlapping modify accesses raise
            # BorrowError here, verifying the static borrow checker's verdict.
            return InoutRef(base, key, inst.key_kind)
        return _ReadAccess(base, key, inst.key_kind)

    def access_load(self, inst: ir.AccessLoadInst, env):
        return env[inst.token.id].get()

    def access_store(self, inst: ir.AccessStoreInst, env):
        env[inst.token.id].set(env[inst.value.id])

    def end_access(self, inst: ir.EndAccessInst, env):
        env[inst.token.id].end()


Evaluator.__init_subclass__()  # the base class is not its own subclass


def call_function(func: ir.Function, args: Sequence[object]) -> object:
    """Execute ``func`` on ``args`` and return its result."""
    return Evaluator().run(func, args)


def apply_callee(target, args: Sequence[object]) -> object:
    if isinstance(target, Primitive):
        return target.fn(*args)
    if isinstance(target, ir.Function):
        return call_function(target, args)
    if callable(target):
        return target(*args)
    raise InterpreterError(f"cannot apply non-callable {target!r}")


def count_instructions(func: ir.Function, args: Sequence[object]) -> int:
    """Execute ``func`` and count dynamically executed instructions.

    Used by the mobile-deployment cost model to size the operation graph a
    framework runtime would walk per evaluation.
    """
    evaluator = Evaluator()
    evaluator.run(func, args)
    return evaluator.steps
