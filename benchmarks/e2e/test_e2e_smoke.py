"""Smoke test of the benchmark harness (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e -q
"""

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

#: Counts that must repeat exactly: from run to run, and from seed to seed,
#: because the seed changes values and never the work.
EXACT_COUNTS = (
    "tensor.record_calls",
    "hlo.instructions_out",
    "runtime.kernel_calls",
    "runtime.sim_step_us",
    "core.plan_builds",
)


def smoke(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("e2e") / f"smoke-{tag}.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", str(seed),
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        result = json.load(handle)
    result["elapsed_s"] = elapsed
    result["last_line"] = json.loads(done.stdout.strip().splitlines()[-1])
    result["path"] = str(out)
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {
        "a": smoke(tmp_path_factory, 0, "a"),
        "b": smoke(tmp_path_factory, 0, "b"),
        "other_seed": smoke(tmp_path_factory, 1, "c"),
    }


def measured(result: dict) -> dict:
    return {w: r for w, r in result["workloads"].items() if "skipped" not in r}


def test_smoke_is_quick_and_correct(runs):
    for result in runs.values():
        assert result["elapsed_s"] <= 30
        assert result["last_line"]["correct"] is True
        assert result["last_line"]["failed"] == 0
        assert set(result["last_line"]) == {"correct", "attempted", "failed", "metrics"}
        for name in run.PINNED_ENV:
            assert result["host"]["threads"][name] == run.PINNED_ENV[name]


def test_every_metric_is_reported_for_every_workload(runs):
    records = measured(runs["a"])
    skipped = set(runs["a"]["workloads"]) - set(records)
    assert set(runs["a"]["workloads"]) == set(run.WORKLOAD_NAMES)
    assert skipped <= {"dp2_process"}
    for record in records.values():
        assert list(record["metrics"]) == [name for name, _, _ in metrics.END_TO_END]
        assert list(record["layers"]) == [name for name, _, _ in metrics.PER_LAYER]
        for table in ("metrics", "layers"):
            for name, entry in record[table].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                assert isinstance(entry["value"], float)
        for entry in record["metrics"].values():
            assert entry["value"] > 0


def test_spans_account_for_the_op_wall_time(runs):
    low, high = metrics.COVERAGE_RANGE
    for result in runs.values():
        for record in measured(result).values():
            assert low <= record["layers"]["harness.span_coverage"]["value"] <= high
            assert os.path.getsize(os.path.join(ROOT, record["trace_file"])) > 0


def test_exact_counts_repeat_across_runs_and_seeds(runs):
    base = measured(runs["a"])
    for other in ("b", "other_seed"):
        for workload, record in measured(runs[other]).items():
            for name in EXACT_COUNTS:
                assert (
                    record["layers"][name]["value"] == base[workload]["layers"][name]["value"]
                ), (other, workload, name)


def test_layers_separate_the_workloads(runs):
    layers = {w: r["layers"] for w, r in measured(runs["a"]).items()}
    value = lambda workload, name: layers[workload][name]["value"]  # noqa: E731
    assert value("lenet_lazy", "runtime.kernel_share") >= 0.6
    assert value("mlp_tiny_lazy", "runtime.kernel_share") <= 0.2
    for steady in ("lenet_lazy", "lenet_codegen", "mlp_tiny_lazy"):
        assert value(steady, "hlo.hit_ratio") == 1.0
    assert value("retrace_codegen", "hlo.hit_ratio") == 0.0
    assert value("retrace_codegen", "hlo.codegen_rejected") == 0
    for bypassed in ("lenet_eager", "scalar_ad"):
        assert value(bypassed, "tensor.record_calls") == 0
        assert value(bypassed, "hlo.cache_entries") == 0
    # The self-check's merge probes call ``reduce_mean`` themselves; no
    # other workload reaches the parallel runtime.
    for workload in set(layers) - {"analysis_selfcheck"}:
        parallel = [
            entry["value"]
            for name, entry in layers[workload].items()
            if name.startswith("runtime.parallel.")
        ]
        assert any(parallel) == (workload == "dp2_process")


def test_benchmark_json_declares_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in run.WORKLOAD_NAMES if name not in run.UNGATED
    ]
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in declared[key]] == table
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]


def test_compare_flags_a_regression(runs, tmp_path, capsys):
    base = runs["a"]["path"]
    assert compare.main([base, runs["b"]["path"] + "," + base]) in (0, 1)
    with open(base) as handle:
        slower = json.load(handle)
    doctored = copy.deepcopy(slower)
    doctored["workloads"]["scalar_ad"]["metrics"]["step_ms_p50"]["value"] *= 1.5
    doctored["workloads"]["lenet_lazy"]["failed"] += 1
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(doctored))
    capsys.readouterr()
    assert compare.main([base, base]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([base, str(path)]) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if "regressed" in r]
    assert len(rows) == 2
    assert any("scalar_ad" in r and "step_ms_p50" in r for r in rows)
    assert any("lenet_lazy" in r and "failed_share" in r for r in rows)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert metrics.tail_percentile(40) == 0.75
    assert metrics.tail_percentile(100) == 0.9
    assert metrics.tail_percentile(5000) == 0.9
    assert metrics.tail_percentile(12) == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to
    measure: no result line, non-zero exit."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "scalar_ad", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
