"""Run the static-analysis toolchain from the command line.

Usage::

    python -m repro.analysis --self-check [-q] [--json]   # verify everything
    python -m repro.analysis --list [--json]              # the table below
    python -m repro.analysis --trace lr_schedule_storm    # one corpus program
    python -m repro.analysis --memory all [-q] [--json]   # a whole corpus
    python -m repro.analysis --ownership mypkg.mymod:myfn --style functional
    python -m repro.analysis --lint mypkg.mymod:myfn

Every subsystem is one :class:`~repro.analysis.corpus.Sweep` row of
``SUBSYSTEMS``: a flag, the self-check sweep it backs, and a corpus whose
names (``--list`` prints them) the flag's argument resolves against.
``NAME`` analyzes one bundled program and prints its report; ``all``
walks the corpus and exits 0 only when every program gets its expected
verdict *and* every static-vs-dynamic cross-check agrees — a seeded
hazard that is caught is a success.  ``-q`` prints a report only when it
fails; ``--json`` emits machine-readable output (``--lint`` excepted).
``--self-check`` holds the same rows to the same judgment
(:meth:`~repro.analysis.corpus.Report.problems`).

Rows with ``analyze`` share :func:`run_sweep`.  Three keep their own
runner: ``--ownership`` (prints annotated SIL for one function, exit 0
iff it draws no exclusivity error; also takes ``module:function``),
``--concurrency`` (``runtime`` analyzes the real parallel engine,
``corpus`` every seeded model, ``all`` both; ``--no-witness`` skips the
live lock-witness runs) and ``--lint`` (``module:function`` only).
DESIGN.md §8 has the recipe for adding a row.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.analysis.corpus import Corpus, Sweep, UnknownProgram, diag_json


def run_sweep(row: Sweep, spec: str, quiet: bool, as_json: bool) -> int:
    """Analyze the program(s) ``spec`` selects from ``row.corpus`` and
    hold each report to its expectation; exit status 0 iff all hold."""
    try:
        programs, analyze = row.corpus.lookup(spec), row.analyze
    except UnknownProgram:
        if row.analyze_function is None:
            raise
        programs = [_import_function(spec, row.corpus)]
        analyze = row.analyze_function

    detail = row.detail if len(programs) == 1 else None
    failures = 0
    payload = []
    for program in programs:
        report = analyze(program)
        ok = not report.problems()
        failures += not ok
        if as_json:
            payload.append(report.to_json())
        elif not quiet or not ok:
            print(report.render())
            extra = detail(report) if detail is not None else None
            if extra is not None:
                print()
                print(extra)
            if report.expect is not None:
                outcome = "as predicted" if report.verdict_matches else "MISPREDICTED"
                print(f"{row.expect_label}{report.expect} ({outcome})")
            print()
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{len(programs)} {row.counted}, {failures} failure(s); "
            + (row.holds if failures == 0 else row.fails)
        )
    return 0 if failures == 0 else 1


def _import_function(spec: str, corpus: Corpus):
    """Resolve ``module:function`` (or ``module.function``); a bare name
    is an unknown name of ``corpus``."""
    if ":" in spec:
        module_name, _, attr = spec.partition(":")
    else:
        module_name, _, attr = spec.rpartition(".")
    if not module_name:
        raise UnknownProgram(corpus.unknown(spec) + ", or module:function")
    return getattr(importlib.import_module(module_name), attr)


def _lowered(spec: str):
    """SIL of a bundled ownership model or an imported function."""
    from repro.analysis.ownership.models import CORPUS
    from repro.sil.frontend import lower_function

    model = CORPUS.by_name.get(spec)
    pyfunc = model.fn if model else _import_function(spec, CORPUS)
    return getattr(pyfunc, "__sil_function__", None) or lower_function(pyfunc)


def _ownership_json(report) -> dict:
    return {
        "function": report.func.name,
        "ok": report.ok,
        "mutation_sites": report.copies.mutation_sites,
        "must_copy": report.copies.must_copy,
        "may_copy": report.copies.may_copy,
        "in_place": report.copies.in_place,
        "diagnostics": [diag_json(d) for d in report.diagnostics],
    }


def _run_ownership(args: argparse.Namespace) -> int:
    from repro.analysis.ownership.annotate import (
        analyze_ownership,
        analyze_ownership_model,
        tally,
    )
    from repro.analysis.ownership.models import CORPUS

    if args.ownership != "all":
        report = analyze_ownership(_lowered(args.ownership), style=args.style)
        if args.json:
            print(json.dumps(_ownership_json(report), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    # The corpus sweep: every function judged against its expected verdict
    # by the tally self-check sweep 4 uses (a caught violation passes).
    from repro.analysis.selfcheck import SelfCheckReport

    counters = SelfCheckReport()
    models = CORPUS.lookup("all")
    failures = 0
    payload = []
    for model in models:
        report = analyze_ownership_model(model, args.style)
        problems = tally(model, report, counters)
        failures += bool(problems)
        if args.json:
            payload.append(
                {
                    **_ownership_json(report),
                    "expect": model.expect,
                    "ok": not problems,
                    "problems": problems,
                }
            )
        elif not args.quiet or problems:
            print(report.render())
            outcome = "; ".join(problems) or "as predicted"
            print(f"expected verdict: {model.expect} ({outcome})")
            print()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{len(models)} function(s) checked, {failures} failure(s); "
            "exclusivity verdicts "
            + ("all as expected" if failures == 0 else "NOT as expected")
        )
    return 0 if failures == 0 else 1


def _run_lint(args: argparse.Namespace) -> int:
    from repro.core.lint import lint_function

    sil_func = _lowered(args.lint)
    diagnostics = lint_function(
        sil_func, tuple(range(len(sil_func.params))), probe_custom_rules=True
    )
    for diag in diagnostics:
        print(diag)
    errors = sum(1 for d in diagnostics if d.is_error)
    print(
        f"@{sil_func.name}: {len(diagnostics)} diagnostic(s), {errors} error(s)"
    )
    return 0 if errors == 0 else 1


def _run_concurrency(args: argparse.Namespace) -> int:
    from repro.analysis.concurrency.report import (
        CORPUS,
        analyze_corpus,
        analyze_corpus_model,
        analyze_runtime,
    )

    spec, quiet, as_json = args.concurrency, args.quiet, args.json
    witness = not args.no_witness
    selected = CORPUS.lookup(spec)
    failures = 0
    payload: dict = {}

    def show(text: str, ok: bool) -> None:
        if as_json:
            return
        if not quiet or not ok:
            print(text)
            print()

    def model_json(result) -> dict:
        return {
            "model": result.model.name,
            "expect": result.model.expect,
            "verdicts": sorted(result.verdicts),
            "matches": result.matches,
            "cross_check_ok": result.cross_check_ok,
            "diagnostics": [diag_json(d) for d in result.diagnostics],
        }

    if spec in ("runtime", "all"):
        report = analyze_runtime(run_witness=witness)
        if not report.ok:
            failures += 1
        show(report.render(), report.ok)
        if as_json:
            payload["runtime"] = {
                "ok": report.ok,
                "verdicts": sorted(report.verdicts()),
                "cross_check_ok": report.cross_check_ok,
                "unregistered_fields": [
                    f.qualname for f in report.inventory.unregistered
                ],
                "diagnostics": [diag_json(d) for d in report.diagnostics()],
            }

    if spec in ("corpus", "all"):
        corpus = analyze_corpus(run_witness=witness)
        failures += sum(not r.matches for r in corpus.results)
        show(corpus.render(), corpus.ok)
        if as_json:
            payload["corpus"] = [model_json(r) for r in corpus.results]
    elif spec != "runtime":
        result = analyze_corpus_model(selected[0])
        if not result.matches:
            failures += 1
        if as_json:
            payload["corpus"] = [model_json(result)]
        elif not quiet or not result.matches:
            print(result.render())
            for diag in result.diagnostics:
                print(f"    {diag.severity}: {diag.message} "
                      f"[{diag.location.filename}:{diag.location.line}]")

    if as_json:
        payload["failures"] = failures
        payload["ok"] = failures == 0
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"concurrency analysis: {failures} failure(s); "
            + (
                "locksets, lock order, and merges all verified"
                if failures == 0
                else "hazards or cross-check divergences found"
            )
        )
    return 0 if failures == 0 else 1


#: The dispatch table: ``main`` adds one flag per row, ``--list`` prints
#: it, and ``--self-check`` walks the rows whose module has ``analyze``.
SUBSYSTEMS: tuple[Sweep, ...] = (
    Sweep(
        flag="--ownership",
        metavar="FN",
        help="annotated SIL of FN (also module:function): borrow verdicts, "
        "copy-materialization labels, pullback costs",
        sweep=4,
        module="repro.analysis.ownership.models",
        run=_run_ownership,
    ),
    Sweep(
        flag="--trace",
        metavar="PROGRAM",
        help="trace stability: canonical cache keys, retrace-storm and growth "
        "diagnostics, static-vs-dynamic cache cross-check",
        sweep=5,
        module="repro.analysis.tracing.report",
        checked="trace_programs_checked",
        caught="trace_hazards_caught",
        counted="program(s) analyzed",
        holds="static cache predictions all match the runtime",
        fails="static cache predictions DIVERGE from the runtime",
        expect_label="expected verdict:        ",
    ),
    Sweep(
        flag="--derivatives",
        metavar="FN",
        help="derivative verifier (also module:function): pullback linearity, "
        "JVP/VJP transposes, record typing, capture liveness, numeric probes",
        sweep=6,
        module="repro.analysis.derivatives.report",
        checked="derivative_models_checked",
        caught="derivative_hazards_caught",
        counted="function(s) verified",
        holds="static verdicts all agree with the numeric probes",
        fails="static verdicts DISAGREE with the numeric probes",
        expect_label="expected verdict: ",
    ),
    Sweep(
        flag="--lint",
        metavar="FN",
        help="batched differentiability lint of FN (module:function), "
        "custom-derivative contract checks included",
        sweep=3,
        run=_run_lint,
    ),
    Sweep(
        flag="--concurrency",
        metavar="TARGET",
        help="concurrency safety: shared-state inventory, lockset races, "
        "lock-order graph with dynamic witness, merge determinism",
        sweep=7,
        module="repro.analysis.concurrency.report",
        run=_run_concurrency,
    ),
    Sweep(
        flag="--memory",
        metavar="PROGRAM",
        help="memory planner: liveness-based buffer plans, peak certificates "
        "with per-pass attribution, budget fix-its, observed-peak cross-check",
        sweep=8,
        module="repro.analysis.memory.report",
        checked="memory_programs_checked",
        caught="memory_hazards_caught",
        counted="program(s) certified",
        holds="static peak bounds hold against the dynamic tracker",
        fails="static peak bounds DIVERGE from the dynamic tracker",
    ),
    Sweep(
        flag="--precision",
        metavar="PROGRAM",
        help="precision safety: interval ranges, dtype-flow hazards of naive "
        "narrowing, the verified autocast plan, observed-value cross-check",
        sweep=9,
        module="repro.analysis.precision.report",
        checked="precision_programs_checked",
        caught="precision_hazards_caught",
        counted="program(s) audited",
        holds="certified intervals contain every observed value",
        fails="certified intervals VIOLATED by the dynamic oracle",
    ),
    Sweep(
        flag="--codegen",
        metavar="PROGRAM",
        help="translation validator: certify each emitted step function "
        "against its HLO schedule, cross-check bit for bit, reject miscompiles",
        sweep=10,
        module="repro.analysis.equivalence.report",
        caught="miscompiles_caught",
        counted="program(s) validated",
        holds="certified translations run bit-identically to the interpreter",
        fails="certified translations DIVERGE from the interpreter",
    ),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Cross-layer static verification.  Each subsystem flag takes a "
            "bundled name from --list, or 'all' to sweep its whole corpus."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--self-check",
        action="store_true",
        help="run every verifier and every corpus sweep; exit 0 iff all hold",
    )
    for row in SUBSYSTEMS:
        mode.add_argument(row.flag, metavar=row.metavar, help=row.help)
    mode.add_argument(
        "--list",
        action="store_true",
        help="print every subsystem flag, its self-check sweep and its "
        "bundled names",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (every subcommand except --lint)",
    )
    parser.add_argument(
        "--no-witness",
        action="store_true",
        help="skip the dynamic lock-witness runs (static analysis only)",
    )
    parser.add_argument(
        "--style",
        choices=("mvs", "functional"),
        default="mvs",
        help="cotangent style for the pullback cost analyzer (default: mvs)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print the report only on failure"
    )
    args = parser.parse_args(argv)

    if args.json and args.lint:
        parser.error("--json is not supported with --lint")

    if args.list:
        return _run_list(args.json)

    for row in SUBSYSTEMS:
        spec = getattr(args, row.dest)
        if spec:
            try:
                if row.run is not None:
                    return row.run(args)
                return run_sweep(row, spec, args.quiet, args.json)
            except UnknownProgram as exc:
                raise SystemExit(f"error: {exc}") from None

    if not args.self_check:
        parser.print_help()
        return 2

    from repro.analysis.selfcheck import self_check

    report = self_check()
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif not args.quiet or not report.ok:
        print(report.summary())
    return 0 if report.ok else 1


def _run_list(as_json: bool) -> int:
    rows = [
        {
            "flag": s.flag,
            "metavar": s.metavar,
            "sweep": s.sweep,
            "programs": s.corpus.names if s.corpus is not None else [],
        }
        for s in SUBSYSTEMS
    ]
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(f"{r['flag']} {r['metavar']}") for r in rows)
    for row in rows:
        head = f"{row['flag']} {row['metavar']}"
        print(f"{head:<{width}}  sweep {row['sweep']}")
        if row["programs"]:
            print(f"{'':<{width}}  programs: " + ", ".join(row["programs"]) + ", all")
        else:
            print(f"{'':<{width}}  programs: (module:function specs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
