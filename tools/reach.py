"""Report which functions under ``src/`` the system's own drivers reach.

Runs the drivers in this process under a ``sys.settrace`` hook that
watches call events only, then counts, per package and per module, how
many of the functions and methods defined in ``src/repro`` were entered
at least once, and lists the ones that never were.  The drivers:

* ``benchmarks``: every workload of ``benchmarks/e2e`` through its own
  ``run.py --child`` entry point (untraced, one second each, nothing
  written);
* ``analysis``: ``python -m repro.analysis --self-check`` and every
  ``--X all`` sweep;
* ``experiments``: ``python -m repro.experiments`` (every table and
  figure; with the examples, most of the two minutes a full run takes);
* ``examples``: every script in ``examples/``, each run from a copy in a
  temporary directory so that nothing next to it is rewritten.

Report only: it changes nothing and fails nothing.  Threads started by
the drivers are traced too, but the workers that the process replica
backend forks (``dp2_process``) are separate processes whose calls the
parent's tracer never sees, so code that only runs inside a worker reads
as unreached.  Lambdas, comprehensions and class bodies are not counted.

Usage::

    python tools/reach.py               # all four drivers
    python tools/reach.py analysis      # one of them
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"

#: The e2e harness checks these before NumPy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path[:0] = [str(SRC), str(E2E)]


def run_benchmarks() -> None:
    import run

    for workload in run.WORKLOAD_NAMES:
        run.main(
            ["--child", "--workload", workload, "--seconds", "1",
             "--launched-at", repr(time.time())]
        )


def run_analysis() -> None:
    from repro.analysis.__main__ import SUBSYSTEMS, main

    main(["--self-check"])
    for row in SUBSYSTEMS:
        if row.corpus is not None:
            main([row.flag, "all"])


def run_experiments() -> None:
    from repro.experiments.__main__ import main

    main([])


def run_examples() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for script in sorted((ROOT / "examples").glob("*.py")):
            copy = Path(scratch) / script.name
            shutil.copy(script, copy)
            runpy.run_path(str(copy), run_name="__main__")


DRIVERS = {
    "benchmarks": run_benchmarks,
    "analysis": run_analysis,
    "experiments": run_experiments,
    "examples": run_examples,
}


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> module:qualname`` of every ``def`` under
    ``src/repro``; the first line is a decorator's when there is one, as
    in a code object's ``co_firstlineno``."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    name = prefix + child.name
                    found[(str(path), first)] = f"{module}:{name}"
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def trace(names: list[str]) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object the drivers called."""
    called: set[tuple[str, int]] = set()
    prefix = str(SRC)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        return None  # no line, return or exception events

    for name in names:
        start = time.perf_counter()
        sys.settrace(on_call)
        threading.settrace(on_call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                DRIVERS[name]()
        finally:
            sys.settrace(None)
            threading.settrace(None)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return called


def report(functions: dict[tuple[str, int], str], called: set) -> None:
    per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    unreached: dict[str, list[str]] = defaultdict(list)
    for key, name in functions.items():
        module, _, qualname = name.partition(":")
        per_module[module][1] += 1
        if key in called:
            per_module[module][0] += 1
        else:
            unreached[module].append(qualname)
    per_package: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for module, (hit, total) in per_module.items():
        path = SRC / Path(*module.split("."))
        package = module if path.is_dir() else module.rpartition(".")[0]
        per_package[package][0] += hit
        per_package[package][1] += total

    def table(title: str, rows: dict) -> None:
        print(f"{title:<40} {'reached':>8} {'defined':>8} {'share':>6}")
        for name in sorted(rows):
            hit, total = rows[name]
            print(f"{name:<40} {hit:>8} {total:>8} {hit / total:>6.0%}")

    hit = sum(h for h, _ in per_module.values())
    print(f"{hit} of {len(functions)} functions under src/repro reached "
          f"({hit / len(functions):.0%}); forked replica workers are not traced\n")
    table("package", per_package)
    print()
    table("module", per_module)
    print("\nnever reached:")
    for module in sorted(unreached):
        for qualname in unreached[module]:
            print(f"  {module}:{qualname}")


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0] not in (*DRIVERS, "all")):
        print(f"usage: reach.py [{'|'.join(DRIVERS)}|all]", file=sys.stderr)
        return 2
    names = list(DRIVERS) if not argv or argv[0] == "all" else argv
    functions = defined_functions()
    report(functions, trace(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
