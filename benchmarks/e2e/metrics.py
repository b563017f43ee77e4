"""Metric declarations and how each value is derived.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names and
units; ``BENCHMARK.json`` repeats them (the smoke test keeps the two in
step).  End-to-end values come from the op wall times of an untraced run,
per-layer values from the tracer's aggregates and the program's own public
counters in a traced run.  README.md has the glossary.
"""

from __future__ import annotations

import gc
import math
import statistics

#: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("sil.lower_ms", "ms", "lower"),
    ("sil.lower_calls", "count", "lower"),
    ("sil.lower_step_ms", "ms", "lower"),
    ("core.synthesis_ms", "ms", "lower"),
    ("core.plan_builds", "count", "lower"),
    ("core.synthesis_step_ms", "ms", "lower"),
    ("core.forward_self_ms", "ms", "lower"),
    ("core.pullback_self_ms", "ms", "lower"),
    ("core.share", "ratio", "lower"),
    ("valsem.deep_copies", "count", "lower"),
    ("tensor.record_calls", "count", "lower"),
    ("tensor.record_ms", "ms", "lower"),
    ("tensor.materializations", "count", "lower"),
    ("tensor.barrier_self_ms", "ms", "lower"),
    ("runtime.dispatch_calls", "count", "lower"),
    ("runtime.dispatch_self_ms", "ms", "lower"),
    ("hlo.fingerprint_ms", "ms", "lower"),
    ("hlo.cache_hits", "count", "higher"),
    ("hlo.cache_misses", "count", "lower"),
    ("hlo.hit_ratio", "ratio", "higher"),
    ("hlo.cache_entries", "count", "lower"),
    ("hlo.optimize_ms", "ms", "lower"),
    ("hlo.pass.algebraic_simplify_ms", "ms", "lower"),
    ("hlo.pass.constant_fold_ms", "ms", "lower"),
    ("hlo.pass.cse_ms", "ms", "lower"),
    ("hlo.pass.dce_ms", "ms", "lower"),
    ("hlo.pass.fuse_elementwise_ms", "ms", "lower"),
    ("hlo.pass_iterations", "count", "lower"),
    ("hlo.instructions_in", "count", "lower"),
    ("hlo.instructions_out", "count", "lower"),
    ("hlo.fusions", "count", "higher"),
    ("hlo.emit_ms", "ms", "lower"),
    ("hlo.emitted_lines", "count", "lower"),
    ("hlo.compile_step_ms", "ms", "lower"),
    ("hlo.codegen_certified", "count", "higher"),
    ("hlo.codegen_rejected", "count", "lower"),
    ("analysis.validate_ms", "ms", "lower"),
    ("hlo.run_self_ms", "ms", "lower"),
    ("runtime.kernel_calls", "count", "lower"),
    ("runtime.kernel_ms", "ms", "lower"),
    ("runtime.kernel_share", "ratio", "higher"),
    ("runtime.kernel.matmul_ms", "ms", "lower"),
    ("runtime.kernel.conv2d_ms", "ms", "lower"),
    ("runtime.kernel.conv2d_grad_filter_ms", "ms", "lower"),
    ("runtime.kernel.conv2d_grad_input_ms", "ms", "lower"),
    ("runtime.launches", "count", "lower"),
    ("runtime.fused_kernels", "count", "higher"),
    ("runtime.sim_step_us", "us", "lower"),
    ("runtime.tracked_peak_bytes", "bytes", "lower"),
    ("optim.update_self_ms", "ms", "lower"),
    ("training.step_self_ms", "ms", "lower"),
    ("runtime.parallel.round_trips", "count", "lower"),
    ("runtime.parallel.gather_step_ms", "ms", "lower"),
    ("runtime.parallel.gather_apply_ms", "ms", "lower"),
    ("runtime.parallel.reduce_ms", "ms", "lower"),
    ("runtime.parallel.averaged_ms", "ms", "lower"),
    ("runtime.parallel.pickled_bytes", "bytes", "lower"),
    ("runtime.parallel.gradient_bytes", "bytes", "lower"),
    ("runtime.parallel.shm_segments", "count", "lower"),
    ("runtime.parallel.leaked_segments", "count", "lower"),
    ("runtime.parallel.children_rss_mb", "MB", "lower"),
    ("runtime.parallel.serial_step_ms", "ms", "lower"),
    ("runtime.parallel.speedup_vs_serial", "ratio", "higher"),
    ("analysis.sweep.trace_ms", "ms", "lower"),
    ("analysis.sweep.derivatives_ms", "ms", "lower"),
    ("analysis.sweep.concurrency_ms", "ms", "lower"),
    ("analysis.sweep.memory_ms", "ms", "lower"),
    ("analysis.sweep.precision_ms", "ms", "lower"),
    ("analysis.sweep.codegen_ms", "ms", "lower"),
    ("analysis.checks_passed", "count", "higher"),
    ("harness.span_coverage", "ratio", "higher"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.gc_collections", "count", "lower"),
]

#: A trace whose spans do not add up to the op wall times is rejected.
COVERAGE_RANGE = (0.95, 1.05)


def tail_percentile(n: int) -> float:
    """p90 from 100 samples up; below that, the highest percentile that
    still has ten samples beyond it (p75 at 40 samples)."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def end_to_end(samples: list, wall: float, items_per_op: int) -> dict:
    """Timing metrics of one untraced phase (seconds in, ms out)."""
    ordered = sorted(samples)
    n = len(ordered)
    q = tail_percentile(n)
    return {
        "step_ms_p50": statistics.median(ordered) * 1e3,
        "step_ms_tail": ordered[max(0, math.ceil(q * n) - 1)] * 1e3,
        "items_per_s": n * items_per_op / wall,
        "tail_percentile": q,
    }


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def per_layer(tracer, workload, run: dict) -> dict:
    """Every ``PER_LAYER`` value of one traced child.

    ``run`` carries what the harness measured around the traced ops: their
    count and wall times, the untraced median, counter deltas, and the
    compile-side sizes.  Values are per timed op unless README.md says
    otherwise; a metric that does not apply to the workload is 0.
    """
    timed, setup = tracer.timed, tracer.setup
    ops = run["ops"]
    op_wall = sum(run["samples"])

    def self_ms(name: str) -> float:
        return timed.self_s.get(name, 0.0) / ops * 1e3

    def total_ms(name: str) -> float:
        return timed.total_s.get(name, 0.0) / ops * 1e3

    def calls(name: str) -> float:
        return timed.calls.get(name, 0) / ops

    def whole_run(table: str, name: str) -> float:
        return getattr(setup, table).get(name, 0) + getattr(timed, table).get(name, 0)

    compiles = whole_run("calls", "hlo.optimize")

    def per_compile_ms(name: str) -> float:
        return whole_run("total_s", name) / compiles * 1e3 if compiles else 0.0

    kernel_s = timed.sum(timed.self_s, "runtime.kernel.")
    core_s = timed.self_s.get("core.forward", 0.0) + timed.self_s.get("core.pullback", 0.0)
    hits = run["delta"].get("cache_hits", 0)
    misses = run["delta"].get("cache_misses", 0)
    sizes = run["module_sizes"]
    traced_p50 = statistics.median(run["samples"])

    values = {
        # Ahead-of-time work: totals of the set-up, and what still reaches
        # a timed op (on a steady workload, a cache lookup and no build).
        "sil.lower_ms": setup.self_s.get("sil.lower", 0.0) * 1e3,
        "sil.lower_calls": setup.calls.get("sil.lower", 0),
        "sil.lower_step_ms": self_ms("sil.lower"),
        "core.synthesis_ms": setup.self_s.get("core.synthesis", 0.0) * 1e3,
        "core.plan_builds": setup.calls.get("core.synthesis", 0),
        "core.synthesis_step_ms": self_ms("core.synthesis"),
        "core.forward_self_ms": self_ms("core.forward"),
        "core.pullback_self_ms": self_ms("core.pullback"),
        "core.share": core_s / op_wall,
        "valsem.deep_copies": run["deep_copies"] / ops,
        "tensor.record_calls": calls("tensor.record"),
        "tensor.record_ms": total_ms("tensor.record"),
        "tensor.materializations": run["delta"].get("materializations", 0) / ops,
        "tensor.barrier_self_ms": self_ms("tensor.barrier"),
        "runtime.dispatch_calls": calls("runtime.dispatch"),
        "runtime.dispatch_self_ms": self_ms("runtime.dispatch"),
        "hlo.fingerprint_ms": total_ms("hlo.fingerprint"),
        "hlo.cache_hits": hits / ops,
        "hlo.cache_misses": misses / ops,
        "hlo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hlo.cache_entries": run["cache_entries"]
        - getattr(workload, "foreign_cache_entries", 0),
        # Compile-side work: mean per compiled module over the whole run.
        "hlo.optimize_ms": per_compile_ms("hlo.optimize"),
        "hlo.pass_iterations": (
            whole_run("calls", "hlo.pass.algebraic_simplify") / compiles
            if compiles
            else 0.0
        ),
        "hlo.instructions_in": statistics.fmean(s[0] for s in sizes) if sizes else 0.0,
        "hlo.instructions_out": statistics.fmean(s[1] for s in sizes) if sizes else 0.0,
        "hlo.fusions": statistics.fmean(s[2] for s in sizes) if sizes else 0.0,
        "hlo.emit_ms": per_compile_ms("hlo.emit"),
        "hlo.emitted_lines": (
            statistics.fmean(run["emitted_lines"]) if run["emitted_lines"] else 0.0
        ),
        "hlo.compile_step_ms": per_compile_ms("hlo.compile_step"),
        "hlo.codegen_certified": run["codegen_certified"],
        "hlo.codegen_rejected": run["codegen_rejected"],
        "analysis.validate_ms": per_compile_ms("analysis.validate"),
        "hlo.run_self_ms": self_ms("hlo.run"),
        "runtime.kernel_calls": timed.sum(timed.calls, "runtime.kernel.") / ops,
        "runtime.kernel_ms": kernel_s / ops * 1e3,
        "runtime.kernel_share": kernel_s / op_wall,
        "runtime.launches": run["delta"].get("launches", 0) / ops,
        "runtime.fused_kernels": run["delta"].get("fused_kernels", 0) / ops,
        # The simulated clock is a float sum; to the nanosecond, the step
        # repeats exactly whatever the run's length.
        "runtime.sim_step_us": round(
            getattr(workload, "sim_step_us", run["delta"].get("sim_s", 0.0) / ops * 1e6),
            3,
        ),
        "runtime.tracked_peak_bytes": run["tracked_peak_bytes"],
        "optim.update_self_ms": self_ms("optim.update"),
        "training.step_self_ms": self_ms("training.train_step"),
        "runtime.parallel.round_trips": timed.sum(timed.calls, "runtime.parallel.gather.")
        / ops,
        "runtime.parallel.gather_step_ms": total_ms("runtime.parallel.gather.step"),
        "runtime.parallel.gather_apply_ms": total_ms("runtime.parallel.gather.apply"),
        "runtime.parallel.reduce_ms": total_ms("runtime.parallel.reduce"),
        "runtime.parallel.averaged_ms": total_ms("runtime.parallel.averaged"),
        "analysis.checks_passed": getattr(workload, "checks_passed", 0),
        # Spans against the harness's own clock around each op.
        "harness.span_coverage": sum(timed.self_s.values()) / op_wall,
        "harness.trace_overhead_share": (traced_p50 - run["untraced_p50"])
        / run["untraced_p50"],
        "harness.gc_collections": run["gc_collections"] / ops,
    }
    for name in ("algebraic_simplify", "constant_fold", "cse", "dce", "fuse_elementwise"):
        values[f"hlo.pass.{name}_ms"] = per_compile_ms(f"hlo.pass.{name}")
    for name in ("matmul", "conv2d", "conv2d_grad_filter", "conv2d_grad_input"):
        values[f"runtime.kernel.{name}_ms"] = self_ms(f"runtime.kernel.{name}")
    for name in (
        "pickled_bytes",
        "gradient_bytes",
        "shm_segments",
        "leaked_segments",
        "children_rss_mb",
        "serial_step_ms",
    ):
        values[f"runtime.parallel.{name}"] = getattr(workload, name, 0)
    serial = values["runtime.parallel.serial_step_ms"]
    values["runtime.parallel.speedup_vs_serial"] = (
        serial / (run["untraced_p50"] * 1e3) if serial else 0.0
    )
    for sweep in ("trace", "derivatives", "concurrency", "memory", "precision", "codegen"):
        values[f"analysis.sweep.{sweep}_ms"] = run["sweep_ms"].get(sweep, 0.0)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}
