"""Ablations of the AD and value-semantics design choices.

* **gradient overhead** — the "efficient gradient" goal (Section 4.3):
  computing value+gradient should cost a small constant factor over the
  forward computation alone;
* **AOT vs per-call transformation** — what the ahead-of-time design
  saves: re-running lowering + synthesis on every gradient call;
* **COW value copies** — Section 4's "large values are copied lazily":
  copying a ValueArray is O(1); the deep copy happens only on shared
  mutation, and unshared mutation never copies.
"""

import math
import time

from conftest import save_result

from repro.core import value_and_gradient
from repro.core.api import DifferentiableFunction
from repro.valsem import ValueArray, copy_counting


def mean_seconds(benchmark, fn, calls: int) -> float:
    """Mean seconds per ``fn()``: pytest-benchmark's mean, or ``calls``
    calls timed here under ``--benchmark-disable`` (``benchmark.stats`` is
    then None)."""
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def heavy(x):
    total = 0.0
    for i in range(30):
        total += math.tanh(x * float(i) * 0.1) + math.sin(total * 0.05)
    return total


def test_gradient_overhead_constant_factor(benchmark):
    """value_and_gradient vs plain forward execution (real wall clock)."""
    value_and_gradient(heavy, 0.7)  # warm the AOT caches

    start = time.perf_counter()
    for _ in range(50):
        heavy(0.7)
    forward = (time.perf_counter() - start) / 50

    def grad_call():
        return value_and_gradient(heavy, 0.7)

    result = benchmark(grad_call)
    grad_time = mean_seconds(benchmark, grad_call, 50)
    factor = grad_time / forward
    save_result(
        "ablation_ad_overhead",
        "Ablation: cost of the gradient vs the plain function\n"
        f"  forward only:        {forward*1e6:9.2f} us\n"
        f"  value_and_gradient:  {grad_time*1e6:9.2f} us\n"
        f"  overhead factor:     {factor:.1f}x\n"
        "  (the augmented forward runs on the SIL interpreter, so the\n"
        "   factor includes interpretation, not just derivative work)",
    )
    assert result is not None


def test_aot_saves_retransformation(benchmark):
    """Per-call re-transformation (what tracing AD effectively does) vs the
    AOT design's cached plans."""
    import types

    def fresh_function():
        # A new function object each call defeats every cache — the
        # "transform every call" strawman.
        clone = types.FunctionType(
            heavy.__code__, heavy.__globals__, "heavy_clone", None, None
        )
        return clone

    def transform_every_call():
        fn = fresh_function()
        df = DifferentiableFunction(fn)
        return df.vjp(0.7)[0]

    # AOT path: everything cached after the first call.
    df = DifferentiableFunction(heavy)

    def aot_call():
        return df.vjp(0.7)[0]

    aot_call()
    start = time.perf_counter()
    for _ in range(20):
        aot_call()
    aot = (time.perf_counter() - start) / 20

    benchmark.pedantic(transform_every_call, rounds=3, iterations=2)
    per_call = mean_seconds(benchmark, transform_every_call, 6)

    save_result(
        "ablation_aot",
        "Ablation: ahead-of-time transformation vs per-call transformation\n"
        f"  AOT (cached plans):      {aot*1e6:9.1f} us/gradient\n"
        f"  re-transform each call:  {per_call*1e6:9.1f} us/gradient\n"
        f"  AOT saves {per_call / aot:.1f}x",
    )
    assert per_call > 2 * aot


def test_cow_copy_is_o1(benchmark):
    """Value copies of a large array are O(1); deep copies happen only on
    shared mutation."""
    big = ValueArray(range(1_000_000))

    def value_copy():
        return big.copy()

    benchmark(value_copy)
    copy_time = mean_seconds(benchmark, value_copy, 1000)

    with copy_counting() as stats:
        copies = [big.copy() for _ in range(100)]
        assert stats.deep_copies == 0  # 100 copies, zero storage duplications

        start = time.perf_counter()
        copies[0][0] = 42  # first shared mutation pays the deep copy
        deep_time = time.perf_counter() - start
        assert stats.deep_copies == 1

        start = time.perf_counter()
        copies[0][1] = 43  # now unshared: in-place
        inplace_time = time.perf_counter() - start
        assert stats.deep_copies == 1

    save_result(
        "ablation_cow",
        "Ablation: copy-on-write value semantics (1M-element array)\n"
        f"  value copy (O(1)):         {copy_time*1e6:9.2f} us\n"
        f"  first shared mutation:     {deep_time*1e6:9.2f} us (deep copy)\n"
        f"  subsequent mutation:       {inplace_time*1e6:9.2f} us (in place)\n"
        f"  copy is {deep_time / max(copy_time, 1e-9):.0f}x cheaper than the "
        "deferred deep copy",
    )
    assert copy_time < deep_time / 50
