"""Per-kernel wall time and minor page faults of warm benchmark steps.

Builds one workload of the repo benchmark (``benchmarks/e2e``, imported as
it is: its set-up warms the path up and checks it against its reference
run), then times ``STEPS`` more ops with ``Kernel.__call__`` wrapped.
Every kernel call is charged to its ``(kernel, operand shapes)`` row:
the wall time between entry and return and the minor page faults the
process took meanwhile (``getrusage``; a fresh result above the malloc
mmap threshold faults its pages in on first write).  The report is per
step: calls, ms and faults of each row (the ``TOP`` slowest, the rest
summed), then the kernel total against the whole step.  It only reports;
it asserts nothing.

It complements ``run.py --trace 1``, whose ``runtime.kernel.*`` spans
already time each kernel by name: what this adds is the split by operand
shape and the page faults.

Usage::

    python tools/kernel_profile.py lenet_lazy

Any name of ``benchmarks/e2e/workloads.WORKLOADS`` is accepted; the
numbers are meaningful for the ones whose ops run kernels (``lenet_*``,
``mlp_tiny_lazy``, ``retrace_codegen``).  The script re-executes itself
with BLAS threads and the hash seed pinned as the benchmark pins them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
STEPS = 40  # warm ops timed after the workload's own set-up
SEED = 1  # the workload seed
TOP = 25  # rows printed; the rest are summed into one line


class _Untraced:
    """The tracer a workload's set-up expects, recording nothing."""

    @contextlib.contextmanager
    def paused(self):
        yield


def _operand_shapes(args) -> tuple:
    import numpy as np

    return tuple(np.shape(a) for a in args if isinstance(a, (np.ndarray, np.generic)))


def profile(name: str) -> tuple[dict, float, int]:
    """Run ``STEPS`` warm ops of workload ``name``; returns the per-row
    ``[calls, seconds, faults]`` totals, the ops' wall seconds and the ops'
    minor faults."""
    import workloads
    from repro.runtime.kernels import Kernel

    workload = workloads.WORKLOADS[name](name, SEED, _Untraced(), False)
    rows: dict = defaultdict(lambda: [0, 0.0, 0])
    original = Kernel.__call__

    def call(kernel, *args):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = original(kernel, *args)
        elapsed = time.perf_counter() - start
        row = rows[(kernel.name, _operand_shapes(args))]
        row[0] += 1
        row[1] += elapsed
        row[2] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return result

    Kernel.__call__ = call
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        failed = sum(not workload.op(workload.warmup_ops + i) for i in range(STEPS))
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        Kernel.__call__ = original
    failed += workload.finish()
    if failed:
        raise SystemExit(f"{name}: {failed} op(s) or end-of-run checks failed")
    return rows, wall, faults


def report(name: str, rows: dict, wall: float, faults: int) -> str:
    ordered = sorted(rows.items(), key=lambda item: -item[1][1])
    lines = [
        f"{name}: {STEPS} warm steps, per step",
        f"{'ms':>8} {'faults':>8} {'calls':>6}  kernel  operand shapes",
    ]
    for (kernel, shapes), (calls, seconds, row_faults) in ordered[:TOP]:
        shape_text = " ".join("x".join(map(str, s)) or "()" for s in shapes)
        lines.append(
            f"{seconds / STEPS * 1e3:8.3f} {row_faults / STEPS:8.1f} "
            f"{calls / STEPS:6.1f}  {kernel}  {shape_text}"
        )
    if len(ordered) > TOP:
        rest = ordered[TOP:]
        lines.append(
            f"{sum(r[1] for _, r in rest) / STEPS * 1e3:8.3f} "
            f"{sum(r[2] for _, r in rest) / STEPS:8.1f} "
            f"{sum(r[0] for _, r in rest) / STEPS:6.1f}  ({len(rest)} more rows)"
        )
    kernel_s = sum(r[1] for r in rows.values())
    kernel_faults = sum(r[2] for r in rows.values())
    lines.append(
        f"{kernel_s / STEPS * 1e3:8.3f} {kernel_faults / STEPS:8.1f} "
        f"{sum(r[0] for r in rows.values()) / STEPS:6.1f}  all kernels"
    )
    lines.append(f"{wall / STEPS * 1e3:8.3f} {faults / STEPS:8.1f} {'':>6}  whole step")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    args = parser.parse_args()

    sys.path[:0] = [E2E, os.path.join(ROOT, "src")]
    import run

    if any(os.environ.get(k) != v for k, v in run.PINNED_ENV.items()):
        # The pins only act at start-up: start again under them.
        env = {**os.environ, **run.PINNED_ENV}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    rows, wall, faults = profile(args.workload)
    print(report(args.workload, rows, wall, faults))
    return 0


if __name__ == "__main__":
    sys.exit(main())
