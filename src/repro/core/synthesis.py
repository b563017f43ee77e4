"""Derivative synthesis (Section 2.2, step 3).

Transforms a lowered SIL function into derivative artifacts **once**, ahead
of time: a :class:`VJPPlan` (reverse mode) and/or a :class:`JVPPlan`
(forward mode).  The transformation

* runs activity analysis and differentiability checking first, raising
  :class:`~repro.errors.DifferentiabilityError` *before* any execution;
* recursively transforms callees, terminating at primitives or functions
  with registered custom derivatives (``@derivative(of:)``);
* handles arbitrary control flow with per-basic-block records: the VJP's
  forward sweep pushes one record per executed block holding the pullback
  closures of that block's active instructions plus the taken branch edge —
  the "statically-typed records corresponding to the basic blocks" of the
  paper.  The reverse sweep walks records backwards, accumulating adjoints
  into per-value slots (the mutable-value-semantics formulation: no dense
  zero tangents are ever materialized, cf. Section 4.3).

Neither derivative executes SIL itself.  The forward sweep and the JVP are
hook sets over the one evaluator, :class:`repro.sil.interp.Evaluator`
(:class:`_ForwardSweep`, :class:`_TangentSweep`): the walker, the arity
check, the step budget and the value semantics of every instruction are the
reference interpreter's, and the hooks add only records and tangents.  Each
sweep object lives for one call, so plans stay read-only after ``build()``.

Plans are cached per (function, wrt); calling ``gradient`` in a loop never
re-transforms or re-traces user code.  Tests assert this AOT property.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core import registry
from repro.core.activity import ActivityInfo, analyze_activity
from repro.core.cotangents import PartialTuple, normalize_cotangent
from repro.core.differentiable import ZERO, embed_field_cotangent, tangent_add
from repro.errors import Diagnostic, DifferentiabilityError, InterpreterError
from repro.locks import named_rlock
from repro.sil import interp, ir
from repro.sil.primitives import Primitive


class _Adjoints:
    """Per-call adjoint accumulator keyed by SSA value id.

    Entries are consumed (popped) when the defining instruction is reached
    in the reverse sweep, which makes value-id reuse across loop iterations
    safe: each iteration's record re-accumulates fresh entries.
    """

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: dict[int, object] = {}

    def accumulate(self, value: ir.Value, cotangent) -> None:
        if cotangent is ZERO or cotangent is None:
            return
        current = self.slots.get(value.id)
        if current is None:
            self.slots[value.id] = cotangent
        else:
            self.slots[value.id] = tangent_add(current, cotangent)

    def consume(self, value: ir.Value):
        return self.slots.pop(value.id, ZERO)


# ---------------------------------------------------------------------------
# Derivative rules: how an apply site obtains (result, pullback) at runtime.
# ---------------------------------------------------------------------------


class PrimitiveVJPRule:
    __slots__ = ("prim",)

    def __init__(self, prim: Primitive) -> None:
        self.prim = prim

    def forward(self, args):
        return self.prim.vjp(*args)


class FunctionVJPRule:
    """Callee is another lowered function: use its synthesized plan."""

    __slots__ = ("plan",)

    def __init__(self, plan: "VJPPlan") -> None:
        self.plan = plan

    def forward(self, args):
        result, records = self.plan.execute_forward(args)
        plan = self.plan

        def pullback(ct):
            return plan.run_pullback(records, ct)

        return result, pullback


class CustomVJPRule:
    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def forward(self, args):
        return self.fn(*args)


class IndirectVJPRule:
    """Callee is a first-class runtime value; resolve its VJP dynamically.

    The returned pullback yields ``(callee_cotangent, *arg_cotangents)``:
    differentiable callables (layers) carry state, so the call is also
    differentiated with respect to the callee itself.
    """

    def forward_indirect(self, callee, args):
        vjp_call = getattr(callee, "__vjp_call__", None)
        if vjp_call is not None:
            return vjp_call(*args)

        sil_func = getattr(callee, "__sil_function__", None)
        if sil_func is not None:
            plan = vjp_plan(sil_func, tuple(range(len(sil_func.params))))
            result, records = plan.execute_forward(args)
            return result, lambda ct: (ZERO, *plan.run_pullback(records, ct))

        if isinstance(callee, Primitive):
            if callee.vjp is None:
                raise DifferentiabilityError(
                    [
                        Diagnostic(
                            "error",
                            f"primitive {callee.name!r} has no registered VJP",
                        )
                    ]
                )
            result, pb = callee.vjp(*args)
            return result, lambda ct: (ZERO, *pb(ct))

        import types

        if isinstance(callee, types.FunctionType):
            from repro.sil.frontend import lower_function

            plan = vjp_plan(lower_function(callee), None)
            result, records = plan.execute_forward(args)
            return result, lambda ct: (ZERO, *plan.run_pullback(records, ct))

        raise DifferentiabilityError(
            [
                Diagnostic(
                    "error",
                    f"cannot differentiate call of {type(callee).__name__} value"
                    " (no __vjp_call__)",
                )
            ]
        )


_INDIRECT_RULE = IndirectVJPRule()


# ---------------------------------------------------------------------------
# VJP plan.
# ---------------------------------------------------------------------------


class _BlockRecord:
    """Runtime record of one executed basic block (the paper's per-block
    pullback struct).  ``entries`` pairs active-instruction indices with the
    data the reverse sweep needs (a pullback closure, or structural info)."""

    __slots__ = ("block", "entries", "edge_args")

    def __init__(self, block: ir.Block, edge_args) -> None:
        self.block = block
        self.entries: list[tuple[ir.Instruction, object]] = []
        # SSA values (in the predecessor's scope) passed to this block's args.
        self.edge_args = edge_args


class VJPPlan:
    """Ahead-of-time synthesized reverse-mode derivative of one function.

    With ``prune_captures=True`` the build additionally runs the capture
    liveness analysis (:mod:`repro.analysis.derivatives.liveness`) and
    drops record entries whose cotangent is provably never consumed —
    varied-but-cotangent-dead values whose consumers all have
    zero-derivative pullbacks.  Gradients are bit-identical; the reverse
    sweep would have skipped those entries anyway when their adjoint slot
    came back ZERO.
    """

    def __init__(
        self,
        func: ir.Function,
        wrt: tuple[int, ...],
        prune_captures: bool = False,
    ) -> None:
        self.func = func
        self.wrt = wrt
        self.prune_captures = prune_captures
        self.diagnostics: list[Diagnostic] = []
        self.activity: Optional[ActivityInfo] = None
        #: apply-site rules keyed by instruction identity, built once.
        self.rules: dict[int, object] = {}
        #: id(inst) of record entries dropped by capture pruning.
        self.pruned: set[int] = set()
        #: Number of times this plan was (re)built; tests assert == 1.
        self.build_count = 0

    # -- transformation (runs once) ----------------------------------------

    def build(self) -> None:
        from repro.core.lint import lint_function

        self.build_count += 1
        func = self.func
        self.activity = analyze_activity(func, self.wrt)
        errors: list[Diagnostic] = []

        if self.prune_captures:
            # Imported lazily: the derivative analyses live above the AD
            # core (same layering as pullback_cost below).
            from repro.analysis.derivatives.liveness import (
                prunable_instruction_ids,
            )

            self.pruned = prunable_instruction_ids(
                func, self.wrt, self.activity
            )

        # Pre-synthesis lint: batched warnings (constant result, unused wrt
        # parameters, dropped active values) recorded alongside synthesis's
        # own diagnostics so users see every problem in one shot.
        self.diagnostics.extend(
            d for d in lint_function(func, self.wrt) if not d.is_error
        )

        for inst in func.instructions():
            if not isinstance(inst, ir.ApplyInst) or not self.activity.is_active(inst):
                continue
            # Diagnostics are computed even for pruned sites: pruning is an
            # optimization, not a differentiability waiver.
            rule, diag = self._rule_for(inst)
            if diag is not None:
                errors.append(diag)
            if rule is not None and id(inst) not in self.pruned:
                self.rules[id(inst)] = rule

        if errors:
            self.diagnostics.extend(errors)
            raise DifferentiabilityError(errors)

    def _rule_for(self, inst: ir.ApplyInst):
        if inst.is_indirect:
            # If the callee is a compile-time constant we can check it now;
            # otherwise resolution is deferred to runtime.
            producer = inst.callee.producer
            if isinstance(producer, ir.ConstInst):
                callee = producer.literal
                if (
                    not hasattr(callee, "__vjp_call__")
                    and not hasattr(callee, "__sil_function__")
                    and not isinstance(callee, Primitive)
                    and not callable(callee)
                ):
                    return None, Diagnostic(
                        "error",
                        f"call of non-differentiable value {callee!r}",
                        inst.loc,
                    )
            return _INDIRECT_RULE, None

        target = inst.callee.target
        if isinstance(target, Primitive):
            if target.vjp is None:
                return None, Diagnostic(
                    "error",
                    f"expression is not differentiable: primitive "
                    f"{target.name!r} has no registered derivative",
                    inst.loc,
                )
            return PrimitiveVJPRule(target), None
        if isinstance(target, ir.Function):
            custom = registry.custom_vjp_for(target)
            if custom is not None:
                # Record the edge even for custom rules: re-registering a
                # derivative for ``target`` must invalidate this caller's
                # plan too, or it would keep calling the stale closure.
                _note_dependency(self.func, target)
                return CustomVJPRule(custom), None
            try:
                plan = vjp_plan(target, tuple(range(len(target.params))))
                _note_dependency(self.func, target)
            except DifferentiabilityError as exc:
                note = Diagnostic(
                    "error",
                    f"when differentiating call to {target.name!r}: "
                    + "; ".join(str(d) for d in exc.diagnostics),
                    inst.loc,
                )
                return None, note
            return FunctionVJPRule(plan), None
        return None, Diagnostic(
            "error", f"cannot differentiate call to {target!r}", inst.loc
        )

    # -- forward sweep -------------------------------------------------------

    def execute_forward(self, args: Sequence[object]):
        """Run the augmented forward computation.

        Returns ``(result, records)`` where ``records`` is the executed
        chain of per-block pullback records, consumed by
        :meth:`run_pullback`.
        """
        records: list[_BlockRecord] = []
        return _ForwardSweep(self, records).run(self.func, args), records

    # -- reverse sweep -------------------------------------------------------

    def run_pullback(self, records: list[_BlockRecord], seed) -> tuple:
        """Walk the record chain backwards; returns cotangents for all
        parameters (ZERO where nothing flowed)."""
        adj = _Adjoints()

        last = records[-1]
        ret_inst, _ = last.entries[-1]
        assert isinstance(ret_inst, ir.ReturnInst)
        adj.accumulate(ret_inst.value, seed)

        for idx in range(len(records) - 1, -1, -1):
            record = records[idx]
            for inst, payload in reversed(record.entries):
                if isinstance(inst, ir.ReturnInst):
                    continue
                ct = adj.consume(inst.result)
                if ct is ZERO:
                    continue
                ct = normalize_cotangent(ct)
                if isinstance(inst, ir.ApplyInst):
                    pullback = payload
                    arg_cts = pullback(ct)
                    if inst.is_indirect:
                        operands = [inst.callee, *inst.args]
                    else:
                        operands = inst.args
                    for operand, operand_ct in zip(operands, arg_cts):
                        if operand_ct is not None:
                            adj.accumulate(operand, operand_ct)
                elif isinstance(inst, ir.TupleInst):
                    if isinstance(ct, (tuple, list)):
                        parts = ct
                    else:
                        raise InterpreterError(
                            f"tuple cotangent expected, got {type(ct).__name__}"
                        )
                    for operand, part in zip(inst.operands, parts):
                        adj.accumulate(operand, part)
                elif isinstance(inst, ir.TupleExtractInst):
                    arity = payload
                    partial = PartialTuple(arity).accumulate(inst.index, ct)
                    adj.accumulate(inst.operands[0], partial)
                elif isinstance(inst, ir.StructExtractInst):
                    struct_value = payload
                    embedded = embed_field_cotangent(struct_value, inst.field, ct)
                    adj.accumulate(inst.operands[0], embedded)

            if record.edge_args is None:
                # Entry block: block args are the function parameters.
                return tuple(
                    normalize_cotangent(adj.consume(param))
                    for param in self.func.params
                )
            for arg, incoming in zip(record.block.args, record.edge_args):
                ct = adj.consume(arg)
                if ct is not ZERO:
                    adj.accumulate(incoming, ct)

        raise InterpreterError("record chain had no entry block")  # pragma: no cover

    # -- convenience ---------------------------------------------------------

    def vjp(self, args: Sequence[object]):
        """``(value, pullback)`` where pullback maps a result cotangent to a
        tuple of parameter cotangents (all parameters)."""
        result, records = self.execute_forward(args)
        return result, lambda ct: self.run_pullback(records, ct)

    def pullback_cost(self, style: str = "mvs"):
        """Classify this plan's pullback O(1) vs O(n) per Appendix B.

        Imported lazily: the ownership analyses live above the AD core.
        """
        from repro.analysis.ownership.pullback_cost import analyze_pullback_cost

        return analyze_pullback_cost(self.func, self.wrt, style)


class _ForwardSweep(interp.Evaluator):
    """The hooks of one :meth:`VJPPlan.execute_forward` call: the reference
    semantics, plus a :class:`_BlockRecord` per executed block that collects
    what the reverse sweep needs from that block's active instructions.

    Formal access scopes keep the reference hooks: they only ever carry
    inactive data here, because the differentiability linter rejects stores
    of active values before any plan is built.
    """

    def __init__(self, plan: VJPPlan, records: list[_BlockRecord]) -> None:
        self.rules = plan.rules
        self.activity = plan.activity
        self.pruned = plan.pruned
        self.records = records

    def enter_block(self, block, edge_args) -> None:
        record = _BlockRecord(block, edge_args)
        self.records.append(record)
        self.entries = record.entries

    def ret(self, term, env):
        self.entries.append((term, None))
        return super().ret(term, env)

    def apply(self, inst, env):
        rule = self.rules.get(id(inst))
        if rule is None:
            return super().apply(inst, env)
        args = [env[v.id] for v in inst.operands]
        if rule is _INDIRECT_RULE:
            result, pullback = rule.forward_indirect(args.pop(0), args)
        else:
            result, pullback = rule.forward(args)
        self.entries.append((inst, pullback))
        return result

    def _recorded(self, inst) -> bool:
        return (
            self.activity.is_active_value(inst.results[0])
            and id(inst) not in self.pruned
        )

    def tuple(self, inst, env):
        if self._recorded(inst):
            self.entries.append((inst, len(inst.operands)))
        return super().tuple(inst, env)

    def tuple_extract(self, inst, env):
        if self._recorded(inst):
            self.entries.append((inst, len(env[inst.operands[0].id])))
        return super().tuple_extract(inst, env)

    def struct_extract(self, inst, env):
        if self._recorded(inst):
            self.entries.append((inst, env[inst.operands[0].id]))
        return super().struct_extract(inst, env)


# ---------------------------------------------------------------------------
# JVP plan (forward mode).
# ---------------------------------------------------------------------------


class JVPPlan:
    """Ahead-of-time synthesized forward-mode derivative of one function."""

    def __init__(self, func: ir.Function, wrt: tuple[int, ...]) -> None:
        self.func = func
        self.wrt = wrt
        self.activity: Optional[ActivityInfo] = None
        self.diagnostics: list[Diagnostic] = []
        self.rules: dict[int, object] = {}
        self.build_count = 0

    def build(self) -> None:
        from repro.core.lint import lint_function

        self.build_count += 1
        self.activity = analyze_activity(self.func, self.wrt)
        errors: list[Diagnostic] = []
        self.diagnostics.extend(
            d for d in lint_function(self.func, self.wrt) if not d.is_error
        )
        for inst in self.func.instructions():
            if not isinstance(inst, ir.ApplyInst) or not self.activity.is_active(inst):
                continue
            if inst.is_indirect:
                self.rules[id(inst)] = _indirect_jvp
                continue
            target = inst.callee.target
            if isinstance(target, Primitive):
                if target.jvp is None:
                    errors.append(
                        Diagnostic(
                            "error",
                            f"primitive {target.name!r} has no registered JVP "
                            "(forward-mode derivative)",
                            inst.loc,
                        )
                    )
                else:
                    self.rules[id(inst)] = target.jvp
            elif isinstance(target, ir.Function):
                custom = registry.custom_jvp_for(target)
                if custom is not None:
                    _note_dependency(self.func, target)
                    self.rules[id(inst)] = custom
                else:
                    try:
                        self.rules[id(inst)] = jvp_plan(
                            target, tuple(range(len(target.params)))
                        ).execute
                        _note_dependency(self.func, target)
                    except DifferentiabilityError as exc:
                        errors.append(
                            Diagnostic(
                                "error",
                                f"when differentiating call to {target.name!r}: "
                                + "; ".join(str(d) for d in exc.diagnostics),
                                inst.loc,
                            )
                        )
            else:
                errors.append(
                    Diagnostic("error", f"cannot differentiate {inst}", inst.loc)
                )
        if errors:
            self.diagnostics.extend(errors)
            raise DifferentiabilityError(errors)

    def execute(self, args: Sequence[object], tangents: Sequence[object]):
        """Run the derivative: returns ``(value, result_tangent)``."""
        if len(tangents) != len(args):
            raise InterpreterError(
                f"@{self.func.name}: {len(args)} args but {len(tangents)} tangents"
            )
        tan = {param.id: t for param, t in zip(self.func.params, tangents)}
        return _TangentSweep(self.rules, tan).run(self.func, args)


class _TangentSweep(interp.Evaluator):
    """The hooks of one :meth:`JVPPlan.execute` call: the reference
    semantics, plus a tangent for every value (absent means ZERO)."""

    def __init__(self, rules: dict[int, Callable], tan: dict[int, object]) -> None:
        self.rules = rules
        self.tan = tan

    def enter_block(self, block, edge_args) -> None:
        if edge_args is not None:
            tan = self.tan
            incoming = [tan.get(v.id, ZERO) for v in edge_args]
            for param, tangent in zip(block.args, incoming):
                tan[param.id] = tangent

    def ret(self, term, env):
        return super().ret(term, env), self.tan.get(term.value.id, ZERO)

    def apply(self, inst, env):
        rule = self.rules.get(id(inst))
        if rule is None:
            return super().apply(inst, env)
        tan = self.tan
        vals = [env[v.id] for v in inst.operands]
        tans = [tan.get(v.id, ZERO) for v in inst.operands]
        if rule is _indirect_jvp:
            callee, callee_tan = vals.pop(0), tans.pop(0)
            result, dresult = rule(callee, tuple(vals), tuple(tans), callee_tan)
        else:
            result, dresult = rule(tuple(vals), tuple(tans))
        tan[inst.results[0].id] = dresult
        return result

    def tuple(self, inst, env):
        tan = self.tan
        tan[inst.results[0].id] = tuple(tan.get(v.id, ZERO) for v in inst.operands)
        return super().tuple(inst, env)

    def tuple_extract(self, inst, env):
        t = self.tan.get(inst.operands[0].id, ZERO)
        self.tan[inst.results[0].id] = ZERO if t is ZERO else t[inst.index]
        return super().tuple_extract(inst, env)

    def struct_extract(self, inst, env):
        t = self.tan.get(inst.operands[0].id, ZERO)
        self.tan[inst.results[0].id] = (
            ZERO if t is ZERO else getattr(t, inst.field, ZERO)
        )
        return super().struct_extract(inst, env)


def _indirect_jvp(callee, arg_vals, arg_tans, callee_tan):
    jvp_call = getattr(callee, "__jvp_call__", None)
    if jvp_call is not None:
        return jvp_call(arg_vals, arg_tans, callee_tan)
    sil_func = getattr(callee, "__sil_function__", None)
    if sil_func is not None:
        plan = jvp_plan(sil_func, tuple(range(len(sil_func.params))))
        return plan.execute(arg_vals, arg_tans)
    if isinstance(callee, Primitive):
        if callee.jvp is None:
            raise DifferentiabilityError(
                [Diagnostic("error", f"primitive {callee.name!r} has no JVP")]
            )
        return callee.jvp(arg_vals, arg_tans)
    raise DifferentiabilityError(
        [
            Diagnostic(
                "error",
                f"cannot forward-differentiate call of {type(callee).__name__}",
            )
        ]
    )


# ---------------------------------------------------------------------------
# Plan caches.
# ---------------------------------------------------------------------------

#: VJP keys are (id(func), wrt, prune_captures); JVP keys (id(func), wrt).
#: ``invalidate_plans_for`` only inspects key[0], so the shapes may differ.
_VJP_PLANS: dict[tuple, VJPPlan] = {}
_JVP_PLANS: dict[tuple, JVPPlan] = {}

#: Reverse call-graph edges between plan'd functions: callee id -> caller
#: function objects.  Used to propagate plan invalidation when a custom
#: derivative is registered after synthesis.
_DEPENDENTS: dict[int, set] = {}

#: Plan synthesis inserts an *in-progress* plan before building it (the
#: recursion sentinel below); a second thread must never observe that
#: half-built plan.  Reentrant because building a plan recursively plans
#: its callees on the same thread.  Concurrent replicas therefore
#: serialize on first-step synthesis and share the finished plan — the
#: host-side analogue of the compiler cache's single-flight discipline.
_PLAN_LOCK = named_rlock("core.plan_cache")


def _note_dependency(caller: ir.Function, callee: ir.Function) -> None:
    _DEPENDENTS.setdefault(id(callee), set()).add(caller)


def vjp_plan(
    func: ir.Function,
    wrt: Optional[tuple[int, ...]] = None,
    prune_captures: bool = False,
) -> VJPPlan:
    """Get (or synthesize, once) the reverse-mode plan for ``func``.

    Pruned and unpruned plans are cached independently; both stay AOT
    (each is built exactly once).
    """
    if wrt is None:
        wrt = tuple(range(len(func.params)))
    key = (id(func), wrt, prune_captures)
    with _PLAN_LOCK:
        plan = _VJP_PLANS.get(key)
        if plan is None:
            plan = VJPPlan(func, wrt, prune_captures=prune_captures)
            # Insert before building so recursive functions resolve to the
            # in-progress plan rather than recursing forever.
            _VJP_PLANS[key] = plan
            try:
                plan.build()
            except Exception:
                del _VJP_PLANS[key]
                raise
    return plan


def jvp_plan(func: ir.Function, wrt: Optional[tuple[int, ...]] = None) -> JVPPlan:
    if wrt is None:
        wrt = tuple(range(len(func.params)))
    key = (id(func), wrt)
    with _PLAN_LOCK:
        plan = _JVP_PLANS.get(key)
        if plan is None:
            plan = JVPPlan(func, wrt)
            _JVP_PLANS[key] = plan
            try:
                plan.build()
            except Exception:
                del _JVP_PLANS[key]
                raise
    return plan


def invalidate_plans_for(func: ir.Function) -> None:
    """Drop cached plans for ``func`` and, transitively, every plan whose
    synthesized rules reference it (used when a custom derivative is
    registered after plans were synthesized)."""
    # Guarded: re-registration can race first-step synthesis on replica
    # threads; an unlocked sweep here could observe (or strand) the
    # in-progress plan that vjp_plan inserts before building.
    with _PLAN_LOCK:
        worklist = [func]
        seen: set[int] = set()
        while worklist:
            current = worklist.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            for cache in (_VJP_PLANS, _JVP_PLANS):
                for key in [k for k in cache if k[0] == id(current)]:
                    del cache[key]
            worklist.extend(_DEPENDENTS.pop(id(current), ()))


def clear_plan_caches() -> None:
    with _PLAN_LOCK:
        _VJP_PLANS.clear()
        _JVP_PLANS.clear()
        _DEPENDENTS.clear()
