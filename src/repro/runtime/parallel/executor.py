"""Multi-backend execution of per-replica work.

The paper's pods run every replica for real; the previous simulation
shortcut ran one representative replica and assumed the rest identical.
:class:`MultiReplicaExecutor` removes the shortcut and now selects *how*
the replicas overlap through a ``backend`` knob:

* ``"serial"`` — a plain loop (the semantic oracle the differential
  tests compare everything against);
* ``"thread"`` — a thread pool: NumPy kernels release the GIL, so the
  numeric phases overlap on multi-core hosts;
* ``"process"`` — forked worker processes
  (:class:`~repro.runtime.parallel.process.ProcessReplicaExecutor`): the
  *whole* replica overlaps, pure-Python phases included.

Whatever the backend, results come back in replica-id order — never
completion order — and the first replica exception (in id order)
propagates only after every submitted replica has finished, so no worker
is abandoned mid-step and downstream merges stay deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, TypeVar

T = TypeVar("T")

BACKENDS = ("serial", "thread", "process")


def resolve_backend(n_replicas: int, backend: Optional[str]) -> str:
    """The effective backend for ``n_replicas`` replicas.

    ``backend`` defaults to ``"thread"``.  A single replica always
    degrades to serial (there is nothing to overlap).
    """
    if backend is None:
        backend = "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; expected one of {BACKENDS}"
        )
    if n_replicas == 1:
        return "serial"
    return backend


class MultiReplicaExecutor:
    """Run a callable once per replica, concurrently and deterministically.

    ``run(fn)`` maps ``fn`` over replica ids ``0..n_replicas-1``.  Results
    are ordered by replica id — never by completion order — and the first
    replica exception (in id order) propagates to the caller after every
    submitted replica has finished, so no worker is abandoned mid-step.
    ``backend="serial"`` degrades to a plain loop with identical
    semantics, which the differential tests use to pin schedule-order
    independence; ``backend="process"`` forks a child per replica per
    run (closures are inherited, results must be picklable).
    """

    def __init__(
        self,
        n_replicas: int,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.n_replicas = n_replicas
        self.backend = resolve_backend(n_replicas, backend)
        self.serial = self.backend == "serial"
        self._pool: Optional[ThreadPoolExecutor] = None
        self._process_executor = None
        if self.backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=max_workers or n_replicas,
                thread_name_prefix="replica",
            )
        elif self.backend == "process":
            from repro.runtime.parallel.process import ProcessReplicaExecutor

            self._process_executor = ProcessReplicaExecutor(n_replicas)

    def run(self, fn: Callable[[int], T]) -> List[T]:
        """``[fn(0), fn(1), ...]`` — computed concurrently, returned in order."""
        if self._process_executor is not None:
            return self._process_executor.run(fn)
        if self.serial or self._pool is None:
            return [fn(i) for i in range(self.n_replicas)]
        futures = [self._pool.submit(fn, i) for i in range(self.n_replicas)]
        # Drain every future before raising so a failing replica does not
        # leave siblings running against half-updated shared state.
        outcomes = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcomes.append((None, exc))
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [value for value, _ in outcomes]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._process_executor is not None:
            self._process_executor.shutdown()

    def __enter__(self) -> "MultiReplicaExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
