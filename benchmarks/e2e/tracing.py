"""Spans recorded from outside the program.

The harness wraps the public functions and methods at each layer boundary
(one table, ``PATCHES``) and keeps, per span name, the call count, the
inclusive time and the self time (duration minus the part covered by child
spans).  Raw spans of the set-up and of the first traced ops are kept in
memory and written as a Chrome trace when the run ends.

Only the thread that created the tracer records; a forked worker inherits
the wrappers but switches recording off, so the process backend is seen
from the driver side only.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: (module, attribute, span name).  ``Class.method`` patches the method on
#: the class.  A name containing ``{`` is formatted with the call's
#: positional arguments, so one row yields one span name per kernel, pass
#: or worker command.
PATCHES = [
    ("repro.sil.frontend", "lower_function", "sil.lower"),
    ("repro.core.synthesis", "VJPPlan.build", "core.synthesis"),
    ("repro.core.synthesis", "VJPPlan.execute_forward", "core.forward"),
    ("repro.core.synthesis", "VJPPlan.run_pullback", "core.pullback"),
    ("repro.tensor.lazy_backend", "LazyRuntime.record", "tensor.record"),
    ("repro.tensor.lazy_backend", "LazyRuntime.barrier", "tensor.barrier"),
    ("repro.tensor.lazy_backend", "LazyRuntime.materialize", "tensor.materialize"),
    ("repro.runtime.device", "Dispatcher.dispatch", "runtime.dispatch"),
    ("repro.runtime.kernels", "Kernel.__call__", "runtime.kernel.{0.name}"),
    ("repro.hlo.compiler", "fingerprint", "hlo.fingerprint"),
    ("repro.hlo.compiler", "compile_module", "hlo.compile_module"),
    ("repro.hlo.compiler", "Executable.run", "hlo.run"),
    ("repro.hlo.codegen", "CodegenExecutable.run", "hlo.run"),
    ("repro.hlo.passes", "optimize", "hlo.optimize"),
    ("repro.hlo.passes", "algebraic_simplify", "hlo.pass.algebraic_simplify"),
    ("repro.hlo.passes", "constant_fold", "hlo.pass.constant_fold"),
    ("repro.hlo.passes", "cse", "hlo.pass.cse"),
    ("repro.hlo.passes", "dce", "hlo.pass.dce"),
    ("repro.hlo.passes", "fuse_elementwise", "hlo.pass.fuse_elementwise"),
    ("repro.hlo.codegen", "emit_module", "hlo.emit"),
    ("repro.hlo.codegen", "compile_step", "hlo.compile_step"),
    (
        "repro.analysis.equivalence.validator",
        "validate_translation",
        "analysis.validate",
    ),
    ("repro.optim.optimizers", "SGD.update", "optim.update"),
    ("repro.training.loop", "train_step", "training.train_step"),
    (
        "repro.runtime.parallel.trainer",
        "ParallelDataParallelTrainer.step",
        "runtime.parallel.step",
    ),
    (
        "repro.runtime.parallel.process",
        "ReplicaWorkerPool.gather",
        "runtime.parallel.gather.{1}",
    ),
    ("repro.runtime.parallel.shm", "GradientExchange.reduce_mean", "runtime.parallel.reduce"),
    ("repro.runtime.parallel.shm", "GradientExchange.averaged", "runtime.parallel.averaged"),
    ("repro.analysis.selfcheck", "self_check", "analysis.self_check"),
]

#: Raw spans kept for the Chrome trace: all of set-up, then this many ops.
KEEP_OPS = 16
KEEP_SPANS = 200_000


class Totals:
    """Per-name aggregates of one phase (set-up or timed)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}

    def add(self, name: str, duration: float, child: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.total_s[name] = self.total_s.get(name, 0.0) + duration

    @staticmethod
    def sum(table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))


class Tracer:
    def __init__(self, observers: dict | None = None) -> None:
        #: span name -> ``(before(args), after(args, result))``, called
        #: outside the span's own clock: how the harness reads module sizes
        #: around ``optimize`` without charging the counting to the pass.
        self.observers = observers or {}
        self.enabled = False
        self.thread = threading.get_ident()
        self.setup = Totals()
        self.timed = Totals()
        self.totals = self.setup
        #: Open spans, innermost last: [name, start, child seconds, span id].
        self.stack: list[list] = []
        #: (name, start, end, span id, parent id, op id)
        self.spans: list[tuple] = []
        self.op_id = -1
        self.next_id = 0
        self.originals: list[tuple] = []
        os.register_at_fork(after_in_child=self.disable)

    def disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.totals.add(name, duration, child)
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if self.op_id < KEEP_OPS and len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, span_id, parent, self.op_id))

    def wrap(self, fn, span_name: str):
        tracer = self
        formatted = "{" in span_name
        before, after = self.observers.get(span_name, (None, None))
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not tracer.enabled or get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = tracer.open(span_name.format(*args) if formatted else span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (the root of each op)."""
        if not self.enabled:
            yield
            return
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    @contextmanager
    def paused(self):
        """Switch recording off around work that is not the path under test
        (reference runs, baselines)."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every row of ``PATCHES``: the public name in its defining
        module, and the same name in every loaded ``repro`` module that
        imported it (``from repro.hlo.compiler import compile_module``)."""
        if self.originals:
            return
        for module_name, attribute, span_name in PATCHES:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self.originals.append((owner, method, original))
                setattr(owner, method, self.wrap(original, span_name))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(original, span_name)
            for name, other in list(sys.modules.items()):
                if name.startswith("repro") and getattr(other, attribute, None) is original:
                    self.originals.append((other, attribute, original))
                    setattr(other, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in self.originals:
            setattr(owner, attribute, original)
        self.originals = []

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path: str, workload: str) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        if not self.spans:
            return
        origin = min(s[1] for s in self.spans)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op_id},
            }
            for name, start, end, span_id, parent, op_id in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "otherData": {"workload": workload}}, handle
            )
