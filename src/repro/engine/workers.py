"""Pluggable worker pools for parallel child evaluation.

Within one policy-gradient batch the child evaluations are independent: the
controller is only updated after the whole batch has been observed, so the
engine can evaluate a batch concurrently and feed the rewards back in
deterministic episode order.  All three backends implement the same
interface -- ``map_ordered`` runs one function over a list of payloads and
returns ``(value, worker_label)`` pairs *in submission order* -- so results
are reproducible regardless of which backend (or worker count) ran them.

Backends:

* ``serial``  -- runs in the calling thread; the reference implementation.
* ``thread``  -- a ``ThreadPoolExecutor``; numpy releases the GIL inside its
  kernels, so CPU-bound training overlaps across threads with zero pickling
  cost.
* ``process`` -- a ``ProcessPoolExecutor``; true multi-core parallelism.
  The mapped function and its payloads must be picklable (module-level
  functions only).  A ``shared`` object passed to :func:`create_pool` is
  shipped to each worker process exactly once (via the executor's
  initializer) instead of being re-pickled with every task; tasks read it
  back with :func:`process_shared`.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics

WorkerResult = Tuple[Any, str]

BACKENDS = ("serial", "thread", "process")

# Backends contributed by other packages (name -> factory).  Factories accept
# the full create_pool keyword set (num_workers/shared/blas_threads/metrics)
# plus ``events``, an EngineEvent callback the built-in pools have no use for.
_EXTRA_BACKENDS: Dict[str, Callable[..., "WorkerPool"]] = {}

# Backends that self-register on import: ``ensure_backend`` imports the named
# module when the backend is not yet registered, so a RunSpec can say
# ``backend: fleet`` without any caller importing repro.fleet first.
LAZY_BACKENDS = {"fleet": "repro.fleet"}

# Environment variables read by the common BLAS/OpenMP runtimes.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Set once per worker process by the pool initializer (never in the parent).
_PROCESS_SHARED: Any = None


def limit_blas_threads(num_threads: Optional[int]) -> Optional[int]:
    """Pin the BLAS/OpenMP thread count of *this* process.

    Sets the conventional environment variables (effective for runtimes whose
    libraries have not been loaded yet -- e.g. ``spawn``-started workers) and
    additionally calls the OpenBLAS thread setter (under whichever symbol
    name the build exports) on any OpenBLAS shared library numpy already
    loaded, which is what makes the limit stick under
    the default ``fork`` start method where the parent's numpy (and its BLAS
    thread pool configuration) is inherited.  ``None`` is a no-op.

    Returns the OpenBLAS thread count in effect before the call (None when
    no OpenBLAS runtime was found), so a caller can put it back.
    """
    if num_threads is None:
        return None
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    for name in _BLAS_ENV_VARS:
        os.environ[name] = str(num_threads)
    previous = None
    try:  # pragma: no cover - depends on the numpy build
        import ctypes
        import glob

        import numpy

        lib_dirs = [
            os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs"),
            os.path.join(os.path.dirname(numpy.__file__), ".libs"),
        ]
        candidates = [
            path
            for lib_dir in lib_dirs
            for path in glob.glob(os.path.join(lib_dir, "*openblas*"))
        ]
        for path in candidates:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in (
                # numpy >= 2 bundles scipy-openblas, whose exports are prefixed.
                "scipy_openblas_{}_num_threads64_",
                "openblas_{}_num_threads64_",
                "openblas_{}_num_threads",
            ):
                setter = getattr(lib, symbol.format("set"), None)
                if setter is not None:
                    getter = getattr(lib, symbol.format("get"), None)
                    if getter is not None:
                        previous = int(getter())
                    setter(int(num_threads))
                    break
    except Exception:
        # Best effort: an exotic BLAS build falls back to the env vars alone.
        pass
    return previous


def _init_process_worker(shared: Any, blas_threads: Optional[int] = None) -> None:
    """Executor initializer: unpickle the shared payload once per worker and
    pin the worker's BLAS thread count before the first task runs."""
    global _PROCESS_SHARED
    _PROCESS_SHARED = shared  # repro-lint: disable=THR001 -- per-process executor initializer; runs once before any task in that worker
    limit_blas_threads(blas_threads)


def process_shared() -> Any:
    """The per-process shared object installed by the pool initializer."""
    return _PROCESS_SHARED


class _PoolMetrics:
    """The per-backend worker-pool instruments (see :mod:`repro.obs`).

    ``queue_wait`` (time between submission and a worker picking the task
    up) is only measurable for in-process backends -- a process worker's
    start time lives in another process -- and ``task_seconds`` on the
    process backend therefore spans submit-to-completion (queue wait
    included).  ``busy_seconds`` accumulates worker-occupied time, so
    utilization is ``busy_seconds / (wall_time * num_workers)``.
    """

    def __init__(
        self, backend: str, registry: Optional["obs_metrics.MetricsRegistry"] = None
    ):
        registry = registry or obs_metrics.get_registry()
        label = {"backend": backend}
        self.tasks = registry.counter(
            "repro_pool_tasks_total", "Worker-pool tasks completed",
            labelnames=("backend",),
        ).labels(**label)
        self.task_seconds = registry.histogram(
            "repro_pool_task_seconds", "Worker-pool task duration",
            labelnames=("backend",),
        ).labels(**label)
        self.queue_wait = registry.histogram(
            "repro_pool_queue_wait_seconds",
            "Time a task waited for a worker (in-process backends)",
            labelnames=("backend",),
        ).labels(**label)
        self.in_flight = registry.gauge(
            "repro_pool_in_flight", "Tasks currently submitted or running",
            labelnames=("backend",),
        ).labels(**label)
        self.busy_seconds = registry.counter(
            "repro_pool_busy_seconds_total",
            "Cumulative worker-occupied seconds (utilization numerator)",
            labelnames=("backend",),
        ).labels(**label)


class WorkerPool:
    """Interface shared by all execution backends."""

    name: str = "abstract"
    # True when this pool delivered a shared object to its workers at startup
    # (so callers can strip it from per-task payloads).
    uses_shared: bool = False

    def map_ordered(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[WorkerResult]:
        """Run ``fn`` over ``payloads``; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialPool(WorkerPool):
    """Evaluates every payload in the calling thread (the seed loop's order)."""

    name = "serial"

    def __init__(self, metrics: Optional["obs_metrics.MetricsRegistry"] = None):
        self._metrics = _PoolMetrics(self.name, metrics)

    def map_ordered(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[WorkerResult]:
        meters = self._metrics
        results: List[WorkerResult] = []
        for payload in payloads:
            start = time.perf_counter()
            meters.in_flight.inc()
            try:
                value = fn(payload)
            finally:
                duration = time.perf_counter() - start
                meters.in_flight.dec()
                meters.queue_wait.observe(0.0)
                meters.task_seconds.observe(duration)
                meters.busy_seconds.inc(duration)
                meters.tasks.inc()
            results.append((value, "serial-0"))
        return results


class ThreadPool(WorkerPool):
    """Evaluates payloads on a shared ``ThreadPoolExecutor``."""

    name = "thread"

    def __init__(
        self,
        num_workers: int = 2,
        metrics: Optional["obs_metrics.MetricsRegistry"] = None,
    ):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self._metrics = _PoolMetrics(self.name, metrics)
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="engine-worker"
        )

    def map_ordered(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[WorkerResult]:
        submitted = time.perf_counter()
        futures = [
            self._executor.submit(self._run_tagged, fn, payload, submitted)
            for payload in payloads
        ]
        return [future.result() for future in futures]

    def _run_tagged(
        self, fn: Callable[[Any], Any], payload: Any, submitted: float
    ) -> WorkerResult:
        meters = self._metrics
        start = time.perf_counter()
        meters.queue_wait.observe(start - submitted)
        meters.in_flight.inc()
        try:
            value = fn(payload)
        finally:
            duration = time.perf_counter() - start
            meters.in_flight.dec()
            meters.task_seconds.observe(duration)
            meters.busy_seconds.inc(duration)
            meters.tasks.inc()
        return value, threading.current_thread().name

    def close(self) -> None:
        self._executor.shutdown(wait=True)


class ProcessPool(WorkerPool):
    """Evaluates payloads on a ``ProcessPoolExecutor`` (picklable tasks only).

    With ``shared`` given, the object is pickled into each worker process
    exactly once at startup; tasks retrieve it via :func:`process_shared`
    instead of carrying it in every payload.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 2,
        shared: Any = None,
        blas_threads: Optional[int] = 1,
        metrics: Optional["obs_metrics.MetricsRegistry"] = None,
    ):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if blas_threads is not None and blas_threads <= 0:
            raise ValueError("blas_threads must be positive when given")
        self.num_workers = num_workers
        self.blas_threads = blas_threads
        self.uses_shared = shared is not None
        self._metrics = _PoolMetrics(self.name, metrics)
        # The initializer always runs: even without a shared payload it pins
        # the worker's BLAS threads so N processes x M BLAS threads do not
        # oversubscribe the cores (bench_engine.py reports the effect).
        self._executor = ProcessPoolExecutor(
            max_workers=num_workers,
            initializer=_init_process_worker,
            initargs=(shared if self.uses_shared else None, blas_threads),
        )

    def map_ordered(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[WorkerResult]:
        meters = self._metrics
        submitted = time.perf_counter()
        futures = []
        for payload in payloads:
            future = self._executor.submit(_process_tagged, fn, payload)
            meters.in_flight.inc()
            future.add_done_callback(
                lambda _future, start=submitted: self._note_done(start)
            )
            futures.append(future)
        return [future.result() for future in futures]

    def _note_done(self, submitted: float) -> None:
        meters = self._metrics
        duration = time.perf_counter() - submitted
        meters.in_flight.dec()
        meters.task_seconds.observe(duration)
        meters.tasks.inc()

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def _process_tagged(fn: Callable[[Any], Any], payload: Any) -> WorkerResult:
    return fn(payload), f"process-{os.getpid()}"


def register_backend(name: str, factory: Callable[..., WorkerPool]) -> None:
    """Register an externally provided pool backend (idempotent per name).

    ``factory`` is called with the :func:`create_pool` keyword set plus
    ``events`` (an :class:`~repro.engine.events.EngineEvent` callback, or
    None); it must return a :class:`WorkerPool`.  Re-registering a name
    replaces the factory, so test doubles can shadow the real one.
    """
    if name in BACKENDS:
        raise ValueError(f"backend {name!r} is built in and cannot be replaced")
    _EXTRA_BACKENDS[name] = factory  # repro-lint: disable=THR001 -- single dict store, atomic under the GIL; registration happens at import time (module body of the backend package), before any pool dispatches work


def ensure_backend(name: str) -> str:
    """Validate a backend name, importing lazy providers on first use.

    Returns the name unchanged so config validators can use it inline;
    raises ``ValueError`` (the config-error type) for unknown names.
    """
    if name in BACKENDS or name in _EXTRA_BACKENDS:
        return name
    module = LAZY_BACKENDS.get(name)
    if module is not None:
        importlib.import_module(module)  # registers itself on import
        if name in _EXTRA_BACKENDS:
            return name
    raise ValueError(
        f"unknown backend {name!r}; expected one of {available_backends()}"
    )


def available_backends() -> Tuple[str, ...]:
    """Every currently valid backend name (built-in, registered, lazy)."""
    names = dict.fromkeys(BACKENDS)
    names.update(dict.fromkeys(_EXTRA_BACKENDS))
    names.update(dict.fromkeys(LAZY_BACKENDS))
    return tuple(names)


def create_pool(
    backend: str,
    num_workers: int = 2,
    shared: Optional[Any] = None,
    blas_threads: Optional[int] = 1,
    metrics: Optional["obs_metrics.MetricsRegistry"] = None,
    events: Optional[Callable[..., None]] = None,
) -> WorkerPool:
    """Instantiate a worker pool by backend name.

    ``shared`` is delivered once per worker on the ``process`` backend (see
    :class:`ProcessPool`); the in-process backends ignore it -- their tasks
    already share the caller's objects by reference.  ``blas_threads`` pins
    each process worker's BLAS/OpenMP thread count (None leaves it alone);
    the in-process backends ignore it too, since limiting the parent's BLAS
    would also change the caller's own kernels.  ``metrics`` routes the
    pool's instruments into a specific registry (the engine passes its
    per-run registry); None uses the process-global one.  ``events`` is an
    EngineEvent callback forwarded only to registered backends (the fleet
    pool emits supervision events through it; built-ins have none to emit).
    """
    if backend == "serial":
        return SerialPool(metrics=metrics)
    if backend == "thread":
        return ThreadPool(num_workers, metrics=metrics)
    if backend == "process":
        return ProcessPool(
            num_workers, shared=shared, blas_threads=blas_threads, metrics=metrics
        )
    ensure_backend(backend)
    factory = _EXTRA_BACKENDS[backend]
    return factory(
        num_workers=num_workers,
        shared=shared,
        blas_threads=blas_threads,
        metrics=metrics,
        events=events,
    )
