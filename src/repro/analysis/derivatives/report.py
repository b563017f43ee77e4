"""The combined derivative-correctness report and its numeric cross-check.

:func:`verify_derivatives` synthesizes the plan for a function (AOT, the
same path ``gradient`` takes), then runs all four static analyses over it:

1. **linearity** of every primitive/custom pullback the plan holds
   (:mod:`~repro.analysis.derivatives.linearity`);
2. **transpose consistency** of every JVP/VJP pair
   (:mod:`~repro.analysis.derivatives.transpose`);
3. **record typing** of the plan's per-block record layout
   (:mod:`~repro.analysis.derivatives.records`);
4. **capture liveness** over the reverse sweep
   (:mod:`~repro.analysis.derivatives.liveness`).

Every static verdict carries its own falsifiability check, the discipline
established by the tracing/ownership analyses: per-rule numeric probes,
the inner-product identity for transposes, and — for the whole plan — a
central-finite-difference gradient probe.  ``cross_check_ok`` is True iff
the static verdicts and all the numeric evidence agree; a *clean* verdict
must match finite differences, a *bad-derivative* verdict must not.

Capture pruning is measured here too: the pruned plan variant is built,
its gradients compared bit-for-bit against the unpruned plan, and the
record-entry savings recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.errors import Diagnostic, DifferentiabilityError
from repro.sil import ir

from repro.analysis.derivatives.linearity import (
    RuleLinearity,
    check_pullback_linearity,
    check_primitive_linearity,
)
from repro.analysis.derivatives.liveness import (
    CaptureLiveness,
    analyze_capture_liveness,
)
from repro.analysis.corpus import Report
from repro.analysis.derivatives.models import CORPUS, DerivativeModel  # noqa: F401  (CORPUS: a Sweep hook)
from repro.analysis.derivatives.records import (
    RecordTyping,
    verify_plan_records,
)
from repro.analysis.derivatives.transpose import (
    TransposeCheck,
    check_transpose,
)

_FD_STEP = 1e-6
_FD_RTOL = 1e-4

#: Verdicts that mean "the computed gradient itself is wrong" (the
#: finite-difference probe must disagree with the plan).
_BAD_DERIVATIVE = frozenset(
    {"nonlinear-pullback", "wrong-transpose", "ill-typed-record"}
)


@dataclass
class PruningStats:
    """Measured effect of ``prune_captures`` on one function."""

    entries_unpruned: int
    entries_pruned: int
    gradients_identical: bool

    @property
    def entries_saved(self) -> int:
        return self.entries_unpruned - self.entries_pruned


@dataclass
class DerivativeReport(Report):
    """Everything proven (and probed) about one function's derivatives."""

    json_label = "function"
    #: e.g. a nonlinear pullback usually also fails its transpose pairing.
    extra_verdicts_ok = True

    func_name: str
    wrt: tuple[int, ...]
    rules: list[RuleLinearity] = field(default_factory=list)
    transposes: list[TransposeCheck] = field(default_factory=list)
    record_typing: Optional[RecordTyping] = None
    liveness: Optional[CaptureLiveness] = None
    #: Diagnostics raised by plan synthesis itself (non-differentiable).
    plan_errors: list[Diagnostic] = field(default_factory=list)
    #: Plan gradient vs central finite differences; None = not runnable.
    fd_match: Optional[bool] = None
    pruning: Optional[PruningStats] = None
    #: The verified function + its activity fixpoints (for annotation).
    func: Optional[ir.Function] = None
    activity: Optional[object] = None
    #: The corpus verdict this function must get (``None``: not a corpus entry).
    expect: Optional[str] = None

    @property
    def name(self) -> str:
        return self.func_name

    # -- verdicts ------------------------------------------------------------

    def verdicts(self) -> set[str]:
        """The hazard classes found (``{"clean"}`` when none)."""
        found: set[str] = set()
        if any(r.verdict in ("nonlinear", "affine") for r in self.rules):
            found.add("nonlinear-pullback")
        nonlinear_names = {
            r.name for r in self.rules if not r.is_linear and r.verdict != "opaque"
        }
        for t in self.transposes:
            # Attribute to the pairing check only when the pullback itself
            # was a fine linear map (else it's the linearity hazard).
            if t.verdict == "inconsistent" and t.name not in nonlinear_names:
                found.add("wrong-transpose")
        if self.record_typing is not None and not self.record_typing.ok:
            found.add("ill-typed-record")
        if self.liveness is not None and self.liveness.dead:
            found.add("dead-capture")
        if self.plan_errors:
            found.add("non-differentiable")
        return found or {"clean"}

    @property
    def cross_check_ok(self) -> bool:
        """Every static verdict agrees with its numeric evidence."""
        if not all(r.cross_check_ok for r in self.rules):
            return False
        if not all(t.cross_check_ok for t in self.transposes):
            return False
        if self.pruning is not None and not self.pruning.gradients_identical:
            return False
        if self.fd_match is None:
            return True
        if self.verdicts() & (_BAD_DERIVATIVE | {"non-differentiable"}):
            return not self.fd_match
        return self.fd_match

    @property
    def diagnostics(self) -> list[Diagnostic]:
        out: list[Diagnostic] = list(self.plan_errors)
        for rule in self.rules:
            out.extend(rule.diagnostics())
        nonlinear_names = {
            r.name for r in self.rules if not r.is_linear and r.verdict != "opaque"
        }
        for t in self.transposes:
            if t.name not in nonlinear_names:
                out.extend(t.diagnostics())
        if self.record_typing is not None:
            out.extend(self.record_typing.diagnostics())
        if self.liveness is not None:
            out.extend(self.liveness.diagnostics())
        return out

    def located_errors(self) -> list[Diagnostic]:
        """Dead captures are warnings (the gradient is right, only record
        memory is wasted) yet they are this verifier's hazard diagnostics
        all the same: any located diagnostic counts."""
        return [d for d in self.diagnostics if d.location.line > 0]

    @property
    def ok(self) -> bool:
        return self.cross_check_ok and not any(
            d.is_error for d in self.diagnostics
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"== derivative verification: @{self.func_name} wrt {self.wrt} ==",
            f"verdicts:        {', '.join(sorted(self.verdicts()))}",
            f"cross-check:     {'MATCH' if self.cross_check_ok else 'MISMATCH'}",
            "",
            f"rules checked:   {len(self.rules)}",
        ]
        for r in self.rules:
            probe = "probe=linear" if r.probe.linear else (
                "probe=not-linear" if r.probe.ran else "probe=n/a"
            )
            lines.append(
                f"  {r.name:<24} {r.kind:<9} verdict={r.verdict:<10} {probe}"
            )
        if self.transposes:
            lines.append("")
            lines.append(f"transpose pairs: {len(self.transposes)}")
            for t in self.transposes:
                probe = (
                    "⟨Jv,w⟩=⟨v,Jᵀw⟩"
                    if t.probe_consistent
                    else ("inner-product MISMATCH" if t.probe_consistent is not None else "probe=n/a")
                )
                lines.append(
                    f"  {t.name:<24} verdict={t.verdict:<12} {probe}"
                )
        if self.record_typing is not None:
            lines.append("")
            lines.append(
                f"record entries:  {self.record_typing.checked_entries} "
                f"checked, {'well-typed' if self.record_typing.ok else 'ILL-TYPED'}"
            )
        if self.liveness is not None:
            lines.append(
                f"capture liveness: {self.liveness.recorded_entries} recorded,"
                f" {len(self.liveness.dead)} dead"
            )
        if self.fd_match is not None:
            lines.append(
                "finite differences: "
                + ("gradient matches" if self.fd_match else "gradient DIFFERS")
            )
        if self.pruning is not None:
            p = self.pruning
            lines.append(
                f"prune_captures:  {p.entries_unpruned} -> {p.entries_pruned}"
                f" entries ({p.entries_saved} saved), gradients "
                + ("bit-identical" if p.gradients_identical else "DIFFER")
            )
        diags = self.diagnostics
        if diags:
            lines.append("")
            lines.extend(str(d) for d in diags)
        return "\n".join(lines)

    def annotated_sil(self) -> Optional[str]:
        """The function printed with per-instruction activity verdicts
        (``[varied]``/``[useful]``/``[active]``) and dead-capture marks."""
        if self.func is None or self.activity is None:
            return None
        from repro.sil.printer import print_function

        notes = {}
        if self.liveness is not None:
            dead_ids = {d.value_id for d in self.liveness.dead}
            for inst in self.func.instructions():
                if inst.results and inst.result.id in dead_ids:
                    notes[id(inst)] = "[dead capture]"
        return print_function(self.func, notes, activity=self.activity)


# ---------------------------------------------------------------------------
# Rule collection over a plan (recursing through callee plans).
# ---------------------------------------------------------------------------


def _collect_rule_sites(plan, seen: set[int]):
    """Yield ``(kind, name, vjp_fn, jvp_fn, n_args, nondiff, loc)`` for
    every leaf rule reachable from ``plan``."""
    from repro.core import registry
    from repro.core.synthesis import (
        CustomVJPRule,
        FunctionVJPRule,
        PrimitiveVJPRule,
    )

    if id(plan) in seen:
        return
    seen.add(id(plan))
    for inst in plan.func.instructions():
        if not isinstance(inst, ir.ApplyInst):
            continue
        rule = plan.rules.get(id(inst))
        if rule is None:
            continue
        if isinstance(rule, PrimitiveVJPRule):
            prim = rule.prim
            yield (
                "primitive",
                prim.name,
                prim.vjp,
                prim.jvp,
                len(inst.args),
                prim.nondiff_args,
                inst.loc,
            )
        elif isinstance(rule, CustomVJPRule):
            target = inst.callee.target
            jvp_fn = (
                registry.custom_jvp_for(target)
                if isinstance(target, ir.Function)
                else None
            )
            name = getattr(rule.fn, "__name__", repr(rule.fn))
            yield (
                "custom",
                name,
                rule.fn,
                jvp_fn,
                len(inst.args),
                (),
                inst.loc,
            )
        elif isinstance(rule, FunctionVJPRule):
            # Linear by construction (the reverse sweep composes leaf
            # pullbacks); verify the leaves of the callee plan instead.
            yield from _collect_rule_sites(rule.plan, seen)


# ---------------------------------------------------------------------------
# Whole-plan numeric probes.
# ---------------------------------------------------------------------------


def _plan_gradient(plan, args: Sequence[float]):
    value, pullback = plan.vjp(list(args))
    cts = pullback(1.0)
    return value, tuple(cts[i] for i in plan.wrt)


def _fd_gradient(func: ir.Function, args: Sequence[float], wrt) -> Optional[tuple]:
    from repro.sil.interp import call_function

    grads = []
    for i in wrt:
        hi = list(args)
        lo = list(args)
        hi[i] += _FD_STEP
        lo[i] -= _FD_STEP
        try:
            f_hi = call_function(func, hi)
            f_lo = call_function(func, lo)
        except Exception:
            return None
        if not isinstance(f_hi, (int, float)) or isinstance(f_hi, bool):
            return None
        grads.append((f_hi - f_lo) / (2.0 * _FD_STEP))
    return tuple(grads)


def _fd_match(plan, args: Sequence[float]) -> Optional[bool]:
    fd = _fd_gradient(plan.func, args, plan.wrt)
    if fd is None:
        return None
    try:
        _value, grad = _plan_gradient(plan, args)
    except Exception:
        return False  # the synthesized derivative cannot even run
    from repro.core.differentiable import ZERO

    for g, f in zip(grad, fd):
        if g is ZERO or g is None:
            g = 0.0
        if isinstance(g, bool) or not isinstance(g, (int, float)):
            return False
        if abs(g - f) > _FD_RTOL * max(1.0, abs(g), abs(f)):
            return False
    return True


def _measure_pruning(func: ir.Function, wrt, args) -> Optional[PruningStats]:
    from repro.core.synthesis import vjp_plan

    try:
        plain = vjp_plan(func, wrt)
        pruned = vjp_plan(func, wrt, prune_captures=True)
        _v1, rec1 = plain.execute_forward(list(args))
        _v2, rec2 = pruned.execute_forward(list(args))
        g1 = plain.run_pullback(rec1, 1.0)
        g2 = pruned.run_pullback(rec2, 1.0)
    except Exception:
        return None
    return PruningStats(
        entries_unpruned=sum(len(r.entries) for r in rec1),
        entries_pruned=sum(len(r.entries) for r in rec2),
        gradients_identical=g1 == g2,
    )


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def verify_derivatives(
    fn: Union[Callable, ir.Function],
    wrt: Optional[tuple[int, ...]] = None,
    args: Optional[Sequence[float]] = None,
    name: Optional[str] = None,
    expect: Optional[str] = None,
) -> DerivativeReport:
    """Run the full static derivative verifier over one function."""
    from repro.core.synthesis import vjp_plan

    if isinstance(fn, ir.Function):
        func = fn
    else:
        from repro.sil.frontend import lower_function

        func = lower_function(fn)
    if wrt is None:
        wrt = tuple(range(len(func.params)))
    report = DerivativeReport(
        func_name=name or func.name, wrt=tuple(wrt), expect=expect
    )

    try:
        plan = vjp_plan(func, tuple(wrt))
    except DifferentiabilityError as exc:
        report.plan_errors = list(exc.diagnostics)
        return report

    for kind, rname, vjp_fn, jvp_fn, n_args, nondiff, loc in _collect_rule_sites(
        plan, set()
    ):
        if kind == "primitive":
            lin = check_primitive_linearity(
                _PrimView(rname, vjp_fn, n_args, nondiff), loc
            )
        else:
            lin = check_pullback_linearity(
                rname,
                vjp_fn,
                n_args,
                kind="custom",
                loc=loc,
                watch_recompute=True,
            )
        report.rules.append(lin)
        if jvp_fn is not None and vjp_fn is not None:
            report.transposes.append(
                check_transpose(
                    rname, jvp_fn, vjp_fn, n_args, nondiff=nondiff, loc=loc
                )
            )

    report.record_typing = verify_plan_records(plan)
    report.liveness = analyze_capture_liveness(func, tuple(wrt), plan.activity)
    report.func = func
    report.activity = plan.activity

    if args is not None:
        report.fd_match = _fd_match(plan, args)
        report.pruning = _measure_pruning(func, tuple(wrt), args)
    return report


class _PrimView:
    """Adapter giving :func:`check_primitive_linearity` a fixed arity."""

    __slots__ = ("name", "vjp", "_n_args", "nondiff_args")

    def __init__(self, name, vjp, n_args, nondiff_args):
        self.name = name
        self.vjp = vjp
        self._n_args = n_args
        self.nondiff_args = nondiff_args

    @property
    def arity(self):
        return (self._n_args, self._n_args)


def analyze_derivative_model(model: DerivativeModel) -> DerivativeReport:
    """Build and verify one corpus entry."""
    fn = model.build()
    return verify_derivatives(
        fn, wrt=model.wrt, args=model.args, name=model.name, expect=model.expect
    )


# -- hooks the shared sweep loops read (see repro.analysis.corpus.Sweep) ----

analyze = analyze_derivative_model
analyze_function = verify_derivatives
detail = DerivativeReport.annotated_sil


def tally(report: DerivativeReport, counters) -> None:
    if report.pruning is not None:
        counters.pullback_captures_pruned += report.pruning.entries_saved
