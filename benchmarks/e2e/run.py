"""The repo benchmark: one command, eight workloads, closed loop, one client.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

runs workload ``W`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed: the workload is launched three times in fresh
subprocesses (two stop after set-up) and ``setup_s`` is the median of the
three.  With ``--trace 1`` one subprocess installs the spans of
``tracing.PATCHES`` before set-up, runs a quarter of ``T`` untraced and
the rest traced, and the metrics are the per-layer ones.

Without ``--workload`` every workload runs in turn (``a,b`` picks some, in
that order); ``--out`` names the result file ``compare.py`` reads.
``--smoke`` is ``--trace 1 --seconds 1``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: BLAS threads are pinned to one in every workload subprocess: three
#: processes share the cores on ``dp2_process``, and an unpinned BLAS
#: oversubscribes them (a 6 ms step then takes 40-98 ms).  The hash seed is
#: pinned so that set and dict orders, and with them the exact counts,
#: repeat from launch to launch.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOAD_NAMES = (
    "lenet_eager",
    "lenet_lazy",
    "lenet_codegen",
    "mlp_tiny_lazy",
    "retrace_codegen",
    "scalar_ad",
    "dp2_process",
    "analysis_selfcheck",
)
#: Run, reported and compared like the rest, but left out of the workloads
#: ``BENCHMARK.json`` gates: see README.md, "Why dp2_process is not gated".
UNGATED = ("dp2_process",)
#: Launches whose set-up time is measured for ``setup_s`` (untraced runs).
SETUP_LAUNCHES = 3
#: Every phase times at least this many ops, however short ``--seconds``.
MIN_OPS = 3
#: The driver allows a run 180 s; a launch that hangs is killed before.
LAUNCH_TIMEOUT_S = 150
#: ``peak_rss_mb`` is read when this many timed ops are done (at exit if
#: the run fits fewer), so that on a workload whose memory grows with every
#: op a faster program is not charged for the extra ops it completes.
RSS_AFTER_OPS = 800


# -- the workload subprocess ---------------------------------------------------


def timed_ops(workload, seconds: float, first: int, tracer=None):
    """Closed loop, one client: op ``i + 1`` starts when op ``i`` returned.
    Returns the op wall times, the loop's wall time, the failed ops and the
    peak RSS (MB) after ``RSS_AFTER_OPS`` ops, or None if there were fewer."""
    samples = []
    failed = 0
    rss = None
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    while True:
        index = first + len(samples)
        start = clock()
        try:
            if tracer is None:
                ok = workload.op(index)
            else:
                tracer.op_id = len(samples)
                with tracer.span("harness.op"):
                    ok = workload.op(index)
        except Exception:
            if not failed:
                traceback.print_exc()
            ok = False
        end = clock()
        samples.append(end - start)
        failed += not ok
        if len(samples) == RSS_AFTER_OPS:
            rss = peak_rss_mb()
        if end >= deadline and len(samples) >= MIN_OPS:
            return samples, end - begin, failed, rss


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in PINNED_ENV},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
    }


def child(args) -> int:
    """Run one workload in this process and print its record as JSON."""
    for name, value in PINNED_ENV.items():
        if name != "PYTHONHASHSEED" and os.environ.get(name) != value:
            raise SystemExit(f"{name} must be {value} before NumPy is imported")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from tracing import Tracer

    traced = args.trace == 1
    module_sizes: list = []
    emitted_lines: list = []
    pending: list = []

    def count(module) -> int:
        return len(module.entry.post_order())

    tracer = Tracer(
        {
            "hlo.optimize": (
                lambda call: pending.append(count(call[0])),
                lambda call, module: module_sizes.append(
                    (
                        pending.pop(),
                        count(module),
                        sum(i.opcode == "fusion" for i in module.entry.post_order()),
                    )
                ),
            ),
            "hlo.emit": (None, lambda call, step: emitted_lines.append(step.line_count)),
        }
    )
    if traced:
        tracer.install()
        tracer.enabled = True

    import workloads

    with tracer.span("harness.setup"):
        workload = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, tracer, traced
        )
    setup_s = time.time() - args.launched_at
    tracer.enabled = False
    record = {"setup_s": setup_s}
    failed = 0
    attempted = workload.warmup_ops

    if not args.setup_only:
        record["host"] = host_block(args)
        tracer.uninstall()
        seconds = args.seconds / 4 if traced else args.seconds
        samples, wall, bad, rss = timed_ops(workload, seconds, attempted)
        attempted += len(samples)
        failed += bad
        timing = metrics.end_to_end(samples, wall, workload.items_per_op)
        record["ops"] = len(samples)
        record["tail_percentile"] = timing.pop("tail_percentile")
        record["metrics"] = {"setup_s": setup_s, **timing}

        if traced:
            from repro.hlo import codegen, compiler
            from repro.runtime import memory
            from repro.valsem import copy_counting

            def counters() -> dict:
                return {
                    **workload.counters(),
                    "cache_hits": compiler.STATS.cache_hits,
                    "cache_misses": compiler.STATS.compiles,
                }

            tracer.install()
            tracer.totals = tracer.timed
            tracer.enabled = True
            before = counters()
            collections = metrics.gc_collections()
            with copy_counting() as copies:
                t_samples, _, bad, _ = timed_ops(
                    workload, args.seconds - seconds, attempted, tracer
                )
            tracer.enabled = False
            after = counters()
            attempted += len(t_samples)
            failed += bad
            run = {
                "ops": len(t_samples),
                "samples": t_samples,
                "untraced_p50": statistics.median(samples),
                "delta": {k: after[k] - before[k] for k in after},
                "deep_copies": copies.deep_copies,
                "gc_collections": metrics.gc_collections() - collections,
                "cache_entries": compiler.cache_size(),
                "codegen_certified": codegen.STATS.certified,
                "codegen_rejected": codegen.STATS.rejected,
                "tracked_peak_bytes": memory.TRACKER.snapshot()[1],
                "module_sizes": module_sizes,
                "emitted_lines": emitted_lines,
                "sweep_ms": workload.sweep_ms(),
            }
            record["traced_ops"] = len(t_samples)

    failed += workload.finish()
    if not args.setup_only:
        if traced:
            record["layers"] = metrics.per_layer(tracer, workload, run)
            low, high = metrics.COVERAGE_RANGE
            coverage = record["layers"]["harness.span_coverage"]["value"]
            record["trace_ok"] = low <= coverage <= high
            trace_file = os.path.join(OUT, f"trace-{args.workload}.json")
            tracer.write_chrome_trace(trace_file, args.workload)
            record["trace_file"] = os.path.relpath(trace_file, ROOT)
        record["metrics"]["peak_rss_mb"] = rss or peak_rss_mb()
    record["attempted"] = attempted
    # Read last: warm-up checks, and the sweeps' exit codes, count too.
    record["failed"] = failed + workload.failed
    print(json.dumps(record))
    return 0


# -- the launcher --------------------------------------------------------------


def launch(args, workload: str, setup_only: bool = False) -> dict:
    """One fresh subprocess (cold caches, its own RSS); returns its record.
    The subprocess leads its own session, so a hang takes its forked
    workers down with it."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--launched-at",
        repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(
        command,
        env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{workload}: no result within {LAUNCH_TIMEOUT_S} s")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: subprocess exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(args, workload: str) -> dict:
    """All launches of one workload, folded into one record."""
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_LAUNCHES - 1):
            setups.append(launch(args, workload, setup_only=True)["setup_s"])
    record = launch(args, workload)
    setups.append(record.pop("setup_s"))
    record["setup_launches_s"] = setups
    record["metrics"]["setup_s"] = statistics.median(setups)
    record["metrics"] = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit, _ in metrics.END_TO_END
    }
    record["correct"] = record["failed"] == 0 and record.get("trace_ok", True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--launched-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if args.smoke:
        args.trace, args.seconds = 1, 1.0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"no src/repro under {ROOT}: nothing to measure")
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        raise SystemExit(f"unknown workload {unknown}; choose from {WORKLOAD_NAMES}")

    result = {"workloads": {}}
    for name in names:
        if name == "dp2_process" and (os.cpu_count() or 1) < 2:
            if len(names) == 1:
                raise SystemExit("dp2_process needs two cores: skipped, no number")
            result["workloads"][name] = {"skipped": "nproc < 2"}
            print(f"{name}: skipped (nproc < 2)")
            continue
        record = measure(args, name)
        result["host"] = record.pop("host")
        result["workloads"][name] = record
        shown = {**record["metrics"], **record.get("layers", {})}
        print(
            f"{name}: attempted {record['attempted']}, failed {record['failed']}, "
            f"{record['ops']} timed ops, tail = p{100 * record['tail_percentile']:.0f}"
        )
        for metric, entry in shown.items():
            print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")

    out = args.out or os.path.join(OUT, f"result-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"[result written to {out}]")

    records = [r for r in result["workloads"].values() if "skipped" not in r]
    key = "layers" if args.trace else "metrics"
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    (metric if len(records) == 1 else f"{name}.{metric}"): entry
                    for name, r in result["workloads"].items()
                    if "skipped" not in r
                    for metric, entry in r[key].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
