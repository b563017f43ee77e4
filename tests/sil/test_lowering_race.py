"""Threads racing a cold ``lower_function`` only ever see verified SIL.

Replica threads of a parallel trainer can reach the frontend for the same
fresh function at once.  The cache publishes a Function only after it and
every unpublished Function it calls verified, and recursion resolves
through the lowering thread's own state, so no thread runs a Function
whose blocks are still being built.  Every racer also gets the same
Function per Python function, and a published Function calls only
published ones: custom derivatives are registered per Function, so a
stray copy would silently bypass them.
"""

import threading
import time
import types

from repro.sil import call_function, frontend, lower_function, verify
from repro.sil.ir import ApplyInst, FunctionRef

N_THREADS = 8
ROUNDS = 12
JOIN_TIMEOUT = 30.0


def _race_helper(v, k):
    total = 0.0
    for i in range(k):
        if i % 2 == 0:
            total = total + v * i
        else:
            total = total - v / (i + 1.0)
    return total


def _race_target(x, n):
    acc = 0.0
    while n > 0:
        if x > 0.0:
            acc = acc + _race_helper(x, n) * 0.5
        elif x < -1.0:
            acc = acc - _race_helper(-x, 2)
        else:
            acc = acc + x * x - 1.0
        n = n - 1
    return acc


def _race_even(x, n):
    if n == 0:
        return x
    return _race_odd(x * 0.5 + 1.0, n - 1)


def _race_odd(x, n):
    if n == 0:
        return -x
    return _race_even(x * x - 0.25, n - 1)


def _fresh_pair(caller, callee):
    """New function objects (cold cache keys) with the code of ``caller``
    and ``callee``, each calling the other's copy."""
    namespace = dict(caller.__globals__)
    for template in (caller, callee):
        namespace[template.__name__] = types.FunctionType(
            template.__code__, namespace, template.__name__
        )
    return namespace[caller.__name__], namespace[callee.__name__]


def _callees(func):
    """``(pyfunc, Function)`` for every lowered Function ``func`` calls."""
    return {
        (inst.callee.target.pyfunc, inst.callee.target)
        for inst in func.instructions()
        if isinstance(inst, ApplyInst)
        and isinstance(inst.callee, FunctionRef)
        and getattr(inst.callee.target, "pyfunc", None) is not None
    }


def _race(entries, args):
    """Racer ``i`` lowers ``entries[i % len(entries)]``, checks it, and runs
    it on ``args``; returns each racer's ``(Function, value)``."""
    barrier = threading.Barrier(N_THREADS)
    results = [None] * N_THREADS
    errors = []

    def race(i):
        barrier.wait()
        # Staggered arrivals land inside an earlier racer's lowering.
        time.sleep(i * 1e-4)
        try:
            func = lower_function(entries[i % len(entries)])
            verify(func)
            results[i] = (func, call_function(func, args))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=race, args=(i,)) for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive(), "lowering deadlocked"
    assert errors == []
    return results


def _lower_while_paused(monkeypatch, entry, paused_at, meanwhile):
    """Lower ``entry`` on a worker thread that stops just before verifying
    ``paused_at``, lower ``meanwhile`` on this thread, then let the worker
    finish.  Returns the worker's Function and this thread's."""
    real_verify = frontend.verify
    stopped, resume = threading.Event(), threading.Event()
    lowered = []

    def verify_pausing(func):
        if func.pyfunc is paused_at and threading.current_thread() is worker:
            stopped.set()
            resume.wait(JOIN_TIMEOUT)
        return real_verify(func)

    monkeypatch.setattr(frontend, "verify", verify_pausing)
    worker = threading.Thread(target=lambda: lowered.append(lower_function(entry)))
    worker.start()
    assert stopped.wait(JOIN_TIMEOUT)
    other = lower_function(meanwhile)
    resume.set()
    worker.join(JOIN_TIMEOUT)
    assert lowered, "the worker's lowering failed"
    return lowered[0], other


def test_racing_threads_each_get_the_one_complete_function():
    expected = _race_target(2.0, 4)
    for _ in range(ROUNDS):
        target, helper = _fresh_pair(_race_target, _race_helper)
        results = _race([target], (2.0, 4))
        published = lower_function(target)
        assert all(func is published for func, _ in results)
        assert all(value == expected for _, value in results)
        assert _callees(published) == {(helper, lower_function(helper))}


def test_racing_threads_publish_a_call_cycle_as_one_group():
    expected = _race_even(0.5, 5)
    for _ in range(ROUNDS):
        even, odd = _fresh_pair(_race_even, _race_odd)
        # Half the racers enter the cycle at each member.
        results = _race([even, odd], (0.5, 5))
        published = {even: lower_function(even), odd: lower_function(odd)}
        for i, (func, _) in enumerate(results):
            assert func is published[(even, odd)[i % 2]]
        assert results[0][1] == expected
        assert _callees(published[even]) == {(odd, published[odd])}
        assert _callees(published[odd]) == {(even, published[even])}


def test_a_callee_published_meanwhile_is_the_one_its_caller_calls(monkeypatch):
    target, helper = _fresh_pair(_race_target, _race_helper)
    lowered, published_helper = _lower_while_paused(
        monkeypatch, target, helper, helper
    )
    assert lowered is lower_function(target)
    assert published_helper is lower_function(helper)
    assert _callees(lowered) == {(helper, published_helper)}


def test_a_call_cycle_published_meanwhile_wins_as_a_whole(monkeypatch):
    even, odd = _fresh_pair(_race_even, _race_odd)
    # The worker has lowered `odd` inside `even` and stops before
    # verifying `even`; this thread lowers and publishes the whole cycle.
    lowered, published_odd = _lower_while_paused(monkeypatch, even, even, odd)
    assert lowered is lower_function(even)
    assert published_odd is lower_function(odd)
    assert _callees(lowered) == {(odd, published_odd)}
    assert _callees(published_odd) == {(even, lowered)}
