"""Device placement: the user-facing switch between Tensor implementations.

"End-users can switch between the two implementations by specifying a
device for the computation to run on: either an eager or a lazy-tracing
one" (Section 3.3).  A third, naive device runs on pure Python lists with
no runtime dependencies (Section 3.1) — the mobile/embedded story.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.hlo.compiler import ASYNC_COMPILER, AsyncCompiler
from repro.runtime.costmodel import (
    DESKTOP_CPU,
    S4TF_EAGER,
    S4TF_LAZY,
    DeviceProfile,
    EngineProfile,
)
from repro.runtime.device import Dispatcher, SimDevice
from repro.tensor.lazy_backend import LazyRuntime
from repro.tensor.naive_backend import NaiveBackend
from repro.tensor.traceops import TRACE_OPS


class EagerBackend(Dispatcher):
    """The eager device's side of ``Device``: each op dispatches the
    kernel of its table row, operands first, then the row's attributes."""

    def apply(self, op: str, operands: list[np.ndarray], attrs: dict) -> np.ndarray:
        row = TRACE_OPS[op]
        kernel, attr_values = row.kernel_call(attrs)
        result = self.dispatch(kernel, (*operands, *attr_values))
        return np.ascontiguousarray(result) if row.contiguous else result

    def source(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.float32)

    def constant(self, value: float) -> np.ndarray:
        return self.full((), value)

    def full(self, shape: tuple[int, ...], value: float) -> np.ndarray:
        return np.full(shape, value, dtype=np.float32)

    def observe(self, array: np.ndarray) -> np.ndarray:
        """Wait for the queue, then the contents; a ``pred`` result (held
        as the compare kernel's bool mask) reads as float32 0/1, as it
        does on the other two backends."""
        self.sync()
        return np.asarray(array, dtype=np.float32)

    def trace_stats(self) -> dict:
        return {}


class Device:
    """A place where Tensor computation happens.

    ``kind`` selects the implementation strategy:

    * ``"naive"`` — single-threaded pure-Python arrays;
    * ``"eager"`` — op-by-op asynchronous dispatch to simulated hardware;
    * ``"lazy"`` — implicit tracing + JIT compilation through HLO.
    """

    _ids = itertools.count()

    def __init__(
        self,
        kind: str,
        profile: Optional[DeviceProfile] = None,
        engine: Optional[EngineProfile] = None,
        name: str = "",
        auto_barrier_threshold: Optional[int] = None,
        async_compile=False,
        codegen: bool = False,
    ) -> None:
        if kind not in ("naive", "eager", "lazy"):
            raise ValueError(f"unknown device kind {kind!r}")
        self.kind = kind
        self.name = name or f"{kind}:{next(Device._ids)}"
        self.profile = profile
        self.engine = engine
        if kind == "eager":
            self.sim = SimDevice(profile or DESKTOP_CPU)
            self.dispatcher = backend = EagerBackend(self.sim, engine or S4TF_EAGER)
        elif kind == "lazy":
            if async_compile is False or async_compile is None:
                compiler = None
            elif async_compile is True:
                compiler = ASYNC_COMPILER
            elif isinstance(async_compile, AsyncCompiler):
                compiler = async_compile
            else:
                raise ValueError(
                    "async_compile must be a bool or an AsyncCompiler, "
                    f"got {async_compile!r}"
                )
            self.sim = SimDevice(profile or DESKTOP_CPU)
            self.runtime = backend = LazyRuntime(
                self.sim,
                engine or S4TF_LAZY,
                auto_barrier_threshold,
                async_compiler=compiler,
                codegen=codegen,
            )
        else:
            self.sim = None
            backend = NaiveBackend()
        self._backend = backend
        #: What Tensor calls, bound once: ``apply(op, operands, attrs)``
        #: computes or records one traced op; ``source`` / ``constant`` /
        #: ``full`` make a tensor's storage and ``observe`` reads it back.
        self.apply = backend.apply
        self.source = backend.source
        self.constant = backend.constant
        self.full = backend.full
        self.observe = backend.observe

    def reset(self) -> None:
        """Zero the simulated clocks and counters (between experiments)."""
        self._backend.reset()

    @property
    def elapsed(self) -> float:
        """Total simulated wall time consumed on this device."""
        return self._backend.elapsed

    def sync(self) -> float:
        return self._backend.sync()

    def trace_stats(self) -> dict:
        """Tracing counters (lazy devices only; empty otherwise)."""
        return self._backend.trace_stats()

    def __repr__(self) -> str:
        return f"Device({self.name})"


# -- defaults ----------------------------------------------------------------

_default_device: Optional[Device] = None


def default_device() -> Device:
    global _default_device
    if _default_device is None:
        _default_device = Device("eager")
    return _default_device


def set_default_device(device: Device) -> None:
    global _default_device
    _default_device = device


@contextmanager
def using_device(device: Device):
    """Scope the default device: ``with using_device(lazy_dev): ...``"""
    global _default_device
    previous = _default_device
    _default_device = device
    try:
        yield device
    finally:
        _default_device = previous


def naive_device() -> Device:
    return Device("naive")


def eager_device(profile=None, engine=None) -> Device:
    return Device("eager", profile, engine)


def lazy_device(
    profile=None,
    engine=None,
    auto_barrier_threshold=None,
    async_compile=False,
    codegen=False,
) -> Device:
    return Device(
        "lazy",
        profile,
        engine,
        auto_barrier_threshold=auto_barrier_threshold,
        async_compile=async_compile,
        codegen=codegen,
    )
