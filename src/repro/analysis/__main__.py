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

Every row but ``--lint`` (``module:function`` only) runs through
:func:`run_sweep`.  ``--ownership`` and ``--derivatives`` also take
``module:function``; an imported function has no expected verdict, and
``--ownership`` then exits 0 iff it draws no exclusivity error.
``--concurrency runtime`` analyzes the real parallel engine, ``corpus``
every seeded model, ``all`` both.  DESIGN.md §8 has the recipe for
adding a row.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.analysis.corpus import Corpus, Sweep, UnknownProgram


def run_sweep(
    row: Sweep, spec: str, quiet: bool, as_json: bool, **options
) -> int:
    """Analyze the program(s) ``spec`` selects from ``row.corpus`` and
    hold each report to its expectation; exit status 0 iff all hold.
    ``options`` go to the row's analyze hook (``--ownership``'s style)."""
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
        report = analyze(program, **options)
        problems = report.problems()
        failures += bool(problems)
        if as_json:
            payload.append(report.to_json())
        elif not quiet or problems:
            print(report.render())
            extra = detail(report) if detail is not None else None
            if extra is not None:
                print()
                print(extra)
            if report.expect is not None:
                outcome = "; ".join(problems) or "as predicted"
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
        checked="ownership_functions_checked",
        caught="exclusivity_violations_caught",
        counted="function(s) checked",
        holds="exclusivity verdicts all as expected",
        fails="exclusivity verdicts NOT as expected",
        expect_label="expected verdict: ",
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
        caught="concurrency_hazards_caught",
        counted="target(s) analyzed",
        holds="locksets, lock order, and merges all verified",
        fails="hazards or cross-check divergences found",
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
                options = {"style": args.style} if row.flag == "--ownership" else {}
                return run_sweep(row, spec, args.quiet, args.json, **options)
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
