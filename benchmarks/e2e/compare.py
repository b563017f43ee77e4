"""Compare result files of ``run.py``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py B1.json,B2.json,... N1.json,N2.json,...

Each side is one result file or several, comma-separated; with several the
row shows medians, and the spread is the distance between the first and
third quartile as a share of the median.  Bounds come from
``BENCHMARK.json``.  Verdicts:

* ``regressed``: the new median is worse than the base by more than the bound;
* ``improved``: better by more than the bound, and every new run better
  than every base run;
* ``unresolved``: the spread on either side is wider than the bound, so
  neither of the above can be said (unless every new run beats every base
  run, which still reads ``improved``);
* ``unchanged``: anything else.

Per-layer metrics present on both sides are listed without a verdict: they
have no bound.  Exits 1 on any regression or any rise in the failed share.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(side: str) -> list:
    results = []
    for path in side.split(","):
        with open(path) as handle:
            results.append(json.load(handle)["workloads"])
    return results


def values(results: list, workload: str, table: str, metric: str) -> list:
    return [
        r[workload][table][metric]["value"]
        for r in results
        if table in r.get(workload, {}) and metric in r[workload][table]
    ]


def spread(runs: list) -> float:
    if len(runs) < 2 or not statistics.median(runs):
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / abs(statistics.median(runs))


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b)
    every_new_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound:
        return "improved" if every_new_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > bound and every_new_better:
        return "improved"
    return "unchanged"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    gated = {m["name"]: m for m in declared["end_to_end"]}
    layered = {m["name"]: m for m in declared["per_layer"]}

    bad = 0
    print(
        f"{'workload':20s} {'metric':40s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in measured_on_both(base, new):
        for table, metrics in (("metrics", gated), ("layers", layered)):
            for name, meta in metrics.items():
                b = values(base, workload, table, name)
                n = values(new, workload, table, name)
                if not b or not n:
                    continue
                b50, n50 = statistics.median(b), statistics.median(n)
                ratio = f"{n50 / b50:9.4f}" if b50 else f"{'-':>9s}"
                wide = max(spread(b), spread(n))
                if "bound" in meta:
                    word = verdict(b, n, meta["better"], meta["bound"])
                    bound = f"{meta['bound']:6.2f}"
                    bad += word == "regressed"
                else:
                    word, bound = "", f"{'-':>6s}"
                print(
                    f"{workload:20s} {name:40s} {b50:12.6g} {n50:12.6g} "
                    f"{ratio} {wide:7.4f} {bound}  {word}"
                )
        shares = [
            statistics.median(
                r[workload]["failed"] / r[workload]["attempted"]
                for r in side
                if "attempted" in r.get(workload, {})
            )
            for side in (base, new)
        ]
        word = "regressed" if shares[1] > shares[0] else "unchanged"
        bad += word == "regressed"
        print(
            f"{workload:20s} {'failed_share':40s} {shares[0]:12.6g} {shares[1]:12.6g} "
            f"{'-':>9s} {'-':>7s} {0:6.2f}  {word}"
        )
    return 1 if bad else 0


def measured_on_both(base: list, new: list) -> list:
    """Workloads measured (not skipped) on both sides, in the order run."""
    present = [
        {w for r in side for w, record in r.items() if "attempted" in record}
        for side in (base, new)
    ]
    return [w for w in base[0] if w in present[0] & present[1]]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
