"""The analysis self-check: every verifier, over everything we can build.

Three sweeps, mirroring the three layers the subsystem spans:

1. **Primitive sweep** — for every primitive in the global registry
   (scalar, math, structural, and tensor primitives alike), build a small
   SIL wrapper function applying it, run structural + typed verification,
   then synthesize its VJP and/or JVP plan and verify the planned function
   again.  Non-differentiable primitives must instead be *rejected* by the
   differentiability linter with an error diagnostic — the linter's
   ahead-of-time property, checked both ways.

2. **HLO sweep** — record the LeNet-5 forward trace on a lazy device (the
   Figure 4 benchmark workload), lower it to an HLO module, verify it,
   optimize it with per-pass verification enabled, and verify the
   optimized (fused) module once more.

3. **Pipeline sweep** — lower a handful of representative differentiable
   Python functions (control flow included), run the default SIL pass
   pipeline with ``verify_each``, and lint them.

4. **Ownership sweep** — run the static borrow checker, the
   copy-materialization inference, and the pullback cost analyzer over
   every primitive wrapper from sweep 1, the lowerable optimizer update
   loops, and the clean borrow corpus (all must come back violation-free,
   and the optimizer loops must be all-in-place); then over the seeded
   exclusivity-violation suite, asserting the checker produces exactly the
   expected verdict for each program.

5. **Tracing sweep** — run the static trace-stability analysis over the
   seeded step-program corpus: every program must produce exactly its
   expected verdict (clean programs with zero diagnostics), every static
   cache prediction must match the instrumented runtime's ``STATS``
   deltas exactly, canonical-key equality must agree with the dynamic
   ``fingerprint`` on every captured fragment pair, the hand-built
   malformed traces must be rejected by pre-lowering shape inference,
   and the LeNet-5 forward trace must shape-check cleanly.

6. **Derivative sweep** — run the static derivative-correctness verifier
   (:mod:`repro.analysis.derivatives`): every registered pullback in the
   global primitive table must be proven a linear map (or be numerically
   opaque — never *dis*proven), every registered JVP/VJP pair must be
   mutual transposes with the seeded inner-product probe agreeing, and
   the derivative model corpus must produce exactly its expected
   verdicts — clean models with zero error diagnostics and gradients
   matching finite differences, every seeded hazard caught with a
   *located* diagnostic, and every ``prune_captures`` measurement
   showing bit-identical gradients.

7. **Concurrency sweep** — run the static concurrency-safety analysis
   (:mod:`repro.analysis.concurrency`) over the real parallel engine:
   the shared-state inventory must account for every mutable reachable
   from worker threads (zero unregistered fields), the lockset analysis
   must find zero unguarded accesses, the lock-order graph must be
   acyclic with every dynamically witnessed acquisition edge statically
   predicted, and every replica merge must verify replica-ordered or
   order-insensitive with its numeric probe agreeing.  Then over the
   seeded hazard corpus: every race, lock-order cycle, and
   order-sensitive merge must be caught with a located diagnostic, and
   every clean model must come back silent.

8. **Memory sweep** — run the static memory planner
   (:mod:`repro.analysis.memory`) over the seeded step-program corpus:
   every program must produce exactly its expected verdict, every
   certified peak must bound the dynamically observed per-trace peak
   (and equal it exactly on straight-line traces), every buffer plan
   must validate against its liveness intervals, and every seeded hazard
   (over-budget trace, unsafe in-place donation, tuple-aliasing reuse)
   must be caught with a *located* diagnostic — clean programs silent.

9. **Precision sweep** — run the static precision-safety analysis
   (:mod:`repro.analysis.precision`) over the seeded step-program
   corpus: every program's dtype-flow verdict under the naive
   narrow-everything lowering must match its expectation (clean
   programs with zero error diagnostics), every certified interval must
   contain every dynamically observed value across the reference, naive,
   and planned oracle runs, every statically predicted hazard must
   *manifest* in the naive run's outputs, every autocast plan must
   re-check clean and run accurately, and narrowing must shrink the
   memory planner's certified peak on at least one trace.

10. **Equivalence sweep** — run the translation validator
    (:mod:`repro.analysis.equivalence`) over the codegen corpus: every
    clean program's lowered modules must certify (the emitted flat-NumPy
    step function proven value-for-value equivalent to its HLO schedule)
    with zero error diagnostics and the dynamic differential check
    passing — interpreted ≡ generated, bit for bit — and every seeded
    miscompile (wrong broadcast, stale buffer reuse, dropped convert,
    reordered non-commutative op, f32-accumulation elision) must be
    rejected with a *located* diagnostic naming the divergent value,
    while its untransformed baseline still certifies.

``python -m repro.analysis --self-check`` runs all ten and exits 0 iff
everything holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.lint import check_differentiability, lint_function
from repro.core.synthesis import jvp_plan, vjp_plan
from repro.errors import DifferentiabilityError, ReproError
from repro.sil import ir
from repro.sil.primitives import PRIMITIVES, Primitive
from repro.sil.typecheck import verify_typed


def _counter(label: str):
    """A zero-initialized counter field; ``label`` is its summary wording."""
    return field(default=0, metadata={"label": label})


@dataclass
class SelfCheckReport:
    """What the self-check covered and what it found."""

    primitives_checked: int = _counter("primitives checked")
    vjp_plans_verified: int = _counter("VJP plans verified")
    jvp_plans_verified: int = _counter("JVP plans verified")
    nondifferentiable_rejected: int = _counter("non-differentiable rejected")
    hlo_modules_verified: int = _counter("HLO modules verified")
    hlo_instructions_verified: int = _counter("HLO instructions verified")
    functions_pipelined: int = _counter("functions through verify_each")
    ownership_functions_checked: int = _counter("ownership-checked functions")
    exclusivity_violations_caught: int = _counter("exclusivity violations caught")
    mutation_sites_labeled: int = _counter("mutation sites labeled")
    trace_programs_checked: int = _counter("trace programs checked")
    trace_hazards_caught: int = _counter("trace hazards caught")
    trace_predictions_matched: int = _counter("cache predictions matched")
    trace_fragments_cross_validated: int = _counter("fragments cross-validated")
    malformed_traces_rejected: int = _counter("malformed traces rejected")
    derivative_rules_checked: int = _counter("derivative rules checked")
    pullbacks_proven_linear: int = _counter("pullbacks proven linear")
    transpose_pairs_consistent: int = _counter("transpose pairs consistent")
    derivative_models_checked: int = _counter("derivative models checked")
    derivative_hazards_caught: int = _counter("derivative hazards caught")
    pullback_captures_pruned: int = _counter("pullback captures pruned")
    shared_fields_inventoried: int = _counter("shared fields inventoried")
    guarded_accesses_proven: int = _counter("guarded accesses proven")
    lock_edges_cross_checked: int = _counter("lock edges cross-checked")
    concurrency_models_checked: int = _counter("concurrency models checked")
    concurrency_hazards_caught: int = _counter("concurrency hazards caught")
    merges_verified: int = _counter("merges verified")
    memory_programs_checked: int = _counter("memory programs checked")
    memory_hazards_caught: int = _counter("memory hazards caught")
    peak_bounds_certified: int = _counter("peak bounds certified")
    exact_peak_matches: int = _counter("exact peak matches")
    buffers_reused: int = _counter("buffers reused")
    precision_programs_checked: int = _counter("precision programs checked")
    precision_hazards_caught: int = _counter("precision hazards caught")
    intervals_contained: int = _counter("intervals containing observed")
    autocast_plans_verified: int = _counter("autocast plans verified")
    narrow_peak_bytes_saved: int = _counter("narrowed peak bytes saved")
    codegen_modules_certified: int = _counter("codegen modules certified")
    codegen_values_checked: int = _counter("codegen values proven")
    miscompiles_caught: int = _counter("miscompiles caught")
    differential_matches: int = _counter("differential runs identical")
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["ok"] = self.ok
        return payload

    def summary(self) -> str:
        lines = [
            f"{f.metadata['label'] + ':':<31}{getattr(self, f.name)}"
            for f in fields(self)
            if "label" in f.metadata
        ]
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)}):")
            lines.extend(f"  - {f}" for f in self.failures)
        else:
            lines.append("all checks passed")
        return "\n".join(lines)


def _wrapper_function(prim: Primitive) -> ir.Function:
    """A minimal SIL function applying ``prim`` to fresh parameters."""
    lo, hi = prim.arity
    n_args = lo if lo > 0 else (2 if hi is None else max(hi, 1))
    func = ir.Function(f"selfcheck_{prim.name}", [f"a{i}" for i in range(n_args)])
    entry = func.new_block("entry")
    args = [entry.add_arg(ir.ANY, f"a{i}") for i in range(n_args)]
    apply = entry.append(ir.ApplyInst(ir.FunctionRef(prim), args))
    entry.append(ir.ReturnInst(apply.result))
    return func


def _check_primitives(report: SelfCheckReport) -> None:
    # Import for their registration side effects: tensor, structural and
    # layer prims (repro.nn registers dropout_apply and identity).
    import repro.core  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.tensor  # noqa: F401

    for name, prim in sorted(PRIMITIVES.items()):
        report.primitives_checked += 1
        try:
            func = _wrapper_function(prim)
            verify_typed(func)
        except ReproError as exc:
            report.failures.append(f"primitive {name!r}: wrapper rejected: {exc}")
            continue

        wrt = tuple(
            i for i in range(len(func.params)) if i not in prim.nondiff_args
        )
        if not wrt:
            continue
        if prim.differentiable:
            try:
                check_differentiability(func, wrt)
                if prim.vjp is not None:
                    plan = vjp_plan(func, wrt)
                    verify_typed(plan.func)
                    report.vjp_plans_verified += 1
                if prim.jvp is not None:
                    plan = jvp_plan(func, wrt)
                    verify_typed(plan.func)
                    report.jvp_plans_verified += 1
            except ReproError as exc:
                report.failures.append(
                    f"primitive {name!r}: synthesis/verification failed: {exc}"
                )
        else:
            try:
                check_differentiability(func, wrt)
            except DifferentiabilityError as exc:
                if any(d.is_error for d in exc.diagnostics):
                    report.nondifferentiable_rejected += 1
                else:  # pragma: no cover
                    report.failures.append(
                        f"primitive {name!r}: rejected without an error diag"
                    )
            else:
                report.failures.append(
                    f"primitive {name!r} has no derivative but the linter "
                    "accepted an active application of it"
                )


def _check_hlo(report: SelfCheckReport) -> None:
    from repro.hlo.passes import optimize
    from repro.hlo.verify import verify_module
    from repro.nn import LeNet
    from repro.runtime.costmodel import S4TF_LAZY, TPU_V3_CORE
    from repro.tensor import Device, Tensor
    from repro.tensor.lazy_backend import _lower_to_hlo
    from repro.viz import capture_forward_trace

    device = Device("lazy", TPU_V3_CORE, S4TF_LAZY)
    model = LeNet.create(device, seed=0)
    x = Tensor(np.zeros((1, 28, 28, 1), np.float32), device)
    root = capture_forward_trace(model, x)

    module, _params = _lower_to_hlo([root])
    try:
        verify_module(module)
        report.hlo_modules_verified += 1
        report.hlo_instructions_verified += module.entry.instruction_count()
        optimize(module, fuse=True, verify_each=True)
        verify_module(module)
        report.hlo_modules_verified += 1
        report.hlo_instructions_verified += module.entry.instruction_count()
    except ReproError as exc:
        report.failures.append(f"HLO trace module: {exc}")


def _representative_functions():
    def polynomial(x):
        return 3.0 * x * x + 2.0 * x + 1.0

    def smooth_abs(x):
        if x < 0.0:
            return -x
        return x

    def geometric(x, n):
        total = 0.0
        term = 1.0
        for _ in range(n):
            term = term * x
            total = total + term
        return total

    return [(polynomial, (0,)), (smooth_abs, (0,)), (geometric, (0,))]


def _check_pipeline(report: SelfCheckReport) -> None:
    from repro.sil.frontend import lower_function
    from repro.sil.passes.pipeline import run_default_pipeline

    for pyfunc, wrt in _representative_functions():
        try:
            func = lower_function(pyfunc)
            run_default_pipeline(func, verify_each=True)
            lint_function(func, wrt)
            plan = vjp_plan(func, wrt)
            verify_typed(plan.func)
            report.functions_pipelined += 1
        except ReproError as exc:
            report.failures.append(f"pipeline over {pyfunc.__name__!r}: {exc}")


def _check_ownership(report: SelfCheckReport) -> None:
    from repro.analysis.ownership.annotate import (
        analyze_ownership,
        analyze_ownership_model,
        tally,
    )
    from repro.analysis.ownership.models import CORPUS

    # Every primitive wrapper must be ownership-clean (no formal accesses,
    # hence no possible violations — the zero-false-positive baseline).
    for name, prim in sorted(PRIMITIVES.items()):
        try:
            ownership = analyze_ownership(_wrapper_function(prim))
        except ReproError as exc:
            report.failures.append(f"ownership over primitive {name!r}: {exc}")
            continue
        report.ownership_functions_checked += 1
        if not ownership.ok:
            report.failures.append(
                f"ownership over primitive {name!r}: spurious violation"
            )

    # The corpus, held to the verdicts ``--ownership all`` holds it to.
    for model in CORPUS.lookup("all"):
        try:
            problems = tally(model, analyze_ownership_model(model), report)
        except ReproError as exc:
            problems = [str(exc)]
        report.failures.extend(
            f"ownership over {model.name!r}: {problem}" for problem in problems
        )


def _check_trace_shapes(report: SelfCheckReport) -> None:
    from repro.analysis.tracing import models as trace_models
    from repro.analysis.tracing.shapes import infer_trace_shapes

    # Malformed hand-built traces must be rejected before lowering.
    for name, builder, needle in trace_models.MALFORMED_TRACES:
        diagnostics = infer_trace_shapes(builder())
        errors = [d for d in diagnostics if d.is_error]
        if errors and needle in errors[0].message:
            report.malformed_traces_rejected += 1
        else:
            report.failures.append(
                f"malformed trace {name!r}: expected an error mentioning "
                f"{needle!r}, got {[d.message for d in diagnostics] or 'none'}"
            )
    well = infer_trace_shapes(trace_models.wellformed_trace())
    if well:
        report.failures.append(
            f"wellformed trace: spurious diagnostic: {well[0].message}"
        )

    # The LeNet-5 forward trace (the Figure 4 workload) must shape-check
    # cleanly pre-lowering — the same DAG sweep 2 verifies post-lowering.
    from repro.nn import LeNet
    from repro.runtime.costmodel import S4TF_LAZY, TPU_V3_CORE
    from repro.tensor import Device, Tensor
    from repro.viz import capture_forward_trace

    device = Device("lazy", TPU_V3_CORE, S4TF_LAZY)
    model = LeNet.create(device, seed=0)
    x = Tensor(np.zeros((1, 28, 28, 1), np.float32), device)
    root = capture_forward_trace(model, x)
    lenet_diags = infer_trace_shapes([root])
    if lenet_diags:
        report.failures.append(
            f"LeNet forward trace: shape inference diagnostic: "
            f"{lenet_diags[0].message}"
        )


def _check_derivative_rules(report: SelfCheckReport) -> None:
    from repro.analysis.derivatives.linearity import check_primitive_linearity
    from repro.analysis.derivatives.transpose import check_primitive_transpose

    # Registry sweep: every registered pullback must be a provably linear
    # map of the cotangent (or numerically opaque — never *dis*proven),
    # with the abstract verdict agreeing with the linear-map probes; every
    # registered JVP/VJP pair must satisfy ⟨Jv, w⟩ = ⟨v, Jᵀw⟩.
    for name, prim in sorted(PRIMITIVES.items()):
        if prim.vjp is None:
            continue
        lin = check_primitive_linearity(prim)
        report.derivative_rules_checked += 1
        if lin.is_linear:
            report.pullbacks_proven_linear += 1
        elif any(d.is_error for d in lin.diagnostics()):
            report.failures.append(
                f"primitive {name!r}: registered pullback judged "
                f"{lin.verdict}: {lin.reason}"
            )
        if not lin.cross_check_ok:
            report.failures.append(
                f"primitive {name!r}: linearity verdict {lin.verdict!r} "
                "disagrees with the numeric linear-map probes"
            )

        pair = check_primitive_transpose(prim)
        if pair is None:
            continue
        if pair.verdict == "consistent":
            report.transpose_pairs_consistent += 1
        elif pair.verdict == "inconsistent":
            report.failures.append(
                f"primitive {name!r}: VJP is not the transpose of the "
                f"registered JVP: {pair.reason}"
            )
        if not pair.cross_check_ok:
            report.failures.append(
                f"primitive {name!r}: transpose verdict {pair.verdict!r} "
                "disagrees with the inner-product probe"
            )


def _check_concurrency(report: SelfCheckReport) -> None:
    from repro.analysis.concurrency.report import analyze_corpus, analyze_runtime

    # Runtime sweep: the real parallel engine must be provably clean —
    # every shared mutable accounted for, every guarded access holding
    # its lock, the lock-order graph acyclic, every dynamically
    # witnessed edge statically predicted, every merge deterministic.
    try:
        runtime = analyze_runtime(run_witness=True)
    except ReproError as exc:  # pragma: no cover
        report.failures.append(f"concurrency runtime analysis: {exc}")
        runtime = None
    if runtime is not None:
        report.shared_fields_inventoried += len(runtime.inventory.fields)
        report.guarded_accesses_proven += sum(
            1 for a in runtime.lockset.accesses if a.required is not None and a.ok
        )
        report.lock_edges_cross_checked += len(runtime.dynamic_edges)
        report.merges_verified += sum(
            1 for f in runtime.determinism.findings if f.ok
        )
        if runtime.inventory.unregistered:
            report.failures.append(
                "concurrency runtime: unregistered shared state: "
                + ", ".join(f.qualname for f in runtime.inventory.unregistered)
            )
        if runtime.verdicts() != ("clean",):
            report.failures.append(
                "concurrency runtime: expected a clean engine, got "
                f"{', '.join(runtime.verdicts())}: "
                + "; ".join(
                    d.message for d in runtime.diagnostics() if d.is_error
                )
            )
        if not runtime.cross_check_ok:
            report.failures.append(
                "concurrency runtime: static model diverges from the "
                "dynamic witness or numeric probes"
            )

    # Corpus sweep: exact verdicts — seeded races, the lock-order cycle,
    # and the completion-order merge all caught with located
    # diagnostics; clean models silent (zero false positives).
    corpus = analyze_corpus(run_witness=True)
    for result in corpus.results:
        report.concurrency_models_checked += 1
        report.lock_edges_cross_checked += len(result.dynamic_edges)
        if not result.matches:
            report.failures.append(
                f"concurrency model {result.model.name!r}: expected "
                f"{result.model.expect!r}, got {', '.join(result.verdicts)}"
                + ("" if result.cross_check_ok else " (cross-check diverged)")
            )
            continue
        if result.model.expect != "clean":
            located = [
                d for d in result.diagnostics
                if d.is_error and d.location.line > 0
            ]
            if located:
                report.concurrency_hazards_caught += 1
            else:
                report.failures.append(
                    f"concurrency model {result.model.name!r}: hazard "
                    "caught but no diagnostic carries a source location"
                )
        else:
            if result.model.merges:
                report.merges_verified += len(result.model.merges)


def _bump(report: SelfCheckReport, counter: str) -> None:
    setattr(report, counter, getattr(report, counter) + 1)


def _check_sweep(row, report: SelfCheckReport) -> None:
    """Walk one ``SUBSYSTEMS`` row's corpus: every program must analyze,
    and its report must have no :meth:`~repro.analysis.corpus.Report.problems`
    — the judgment ``--X all`` applies.  Only a passing report's evidence
    is tallied."""
    kind = row.corpus.kind
    for program in row.corpus:
        try:
            result = row.analyze(program)
        except ReproError as exc:
            report.failures.append(f"{kind} {program.name!r}: {exc}")
            continue
        if row.checked is not None:
            _bump(report, row.checked)
        problems = result.problems()
        if problems:
            report.failures.extend(
                f"{kind} {program.name!r}: {problem} "
                f"(see `{row.flag} {program.name}`)"
                for problem in problems
            )
            continue
        if program.expect != "clean":
            _bump(report, row.caught)
        row.tally(result, report)


def self_check(verbose: bool = False) -> SelfCheckReport:
    """Run all sweeps; the report's ``ok`` says whether everything held."""
    from repro.analysis.__main__ import SUBSYSTEMS

    report = SelfCheckReport()
    _check_primitives(report)
    _check_hlo(report)
    _check_pipeline(report)
    _check_ownership(report)
    _check_trace_shapes(report)
    _check_derivative_rules(report)
    _check_concurrency(report)
    for row in SUBSYSTEMS:
        if row.analyze is not None:
            _check_sweep(row, report)
    if report.precision_programs_checked and not report.narrow_peak_bytes_saved:
        report.failures.append(
            "precision sweep: no corpus trace's certified peak shrank "
            "under the autocast plan — narrowing must be visible in bytes"
        )
    if verbose:  # pragma: no cover
        print(report.summary())
    return report
