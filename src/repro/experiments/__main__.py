"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.experiments            # everything
    python -m repro.experiments table3     # one experiment
    python -m repro.experiments figure9 table4
    python -m repro.experiments --verify table3   # per-pass IR verification
"""

from __future__ import annotations

import sys

from repro.experiments import (
    render_figure9,
    run_figure4,
    run_figure9,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


def _figure4_text() -> str:
    result = run_figure4()
    summary = ", ".join(f"{k}={v}" for k, v in result.summary.items())
    return (
        "Figure 4: LazyTensor trace of the LeNet-5 forward pass\n"
        "======================================================\n"
        f"{result.text}\n\nsummary: {summary}"
    )


EXPERIMENTS = {
    "table1": lambda: run_table1().render(),
    "table2": lambda: run_table2().render(),
    "table3": lambda: run_table3().render(),
    "table4": lambda: run_table4().render(),
    "figure4": _figure4_text,
    "figure9": lambda: render_figure9(run_figure9()),
}


def main(argv: list[str]) -> int:
    argv = list(argv)
    if "--verify" in argv:
        # Per-pass invariant attribution: every SIL/HLO pass iteration is
        # followed by full re-verification (see repro.analysis.attribution).
        from repro.analysis import set_verify_each

        argv.remove("--verify")
        set_verify_each(True)
    names = argv or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENTS)}")
        return 2
    for i, name in enumerate(names):
        if i:
            print("\n")
        print(EXPERIMENTS[name]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
