"""Per-layer span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``repro`` module from here,
so nothing under ``src/`` changes: :func:`installed` patches the class and
module attributes the engine looks up at call time and restores them on
exit.  A span's *self time* is its duration minus the durations of the spans
opened inside it, so the self times of one run never count a second twice.

Process workers are forked while the wrappers are installed, so they inherit
them.  Each task shipped to a process pool is wrapped in :class:`_WorkerTask`,
which records the worker's spans and returns them beside the task's result;
the pool wrapper unpacks them before the engine sees the result.  Worker
self times are added to the main process's timeline as wall-equivalents:
summed over workers and divided by the worker count, the share of the
``pool.map`` interval they occupy.  The remainder of that interval is
``pool.map`` self time, the main process waiting on idle workers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Layer classes whose forward/backward are timed (``nn.<Class>.*``).
NN_LAYERS = (
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm2d",
    "Linear",
    "ReLU",
    "ReLU6",
    "HardSwish",
    "HardSigmoid",
)

# Modules that import ``save_json`` by name; each binding is wrapped.
SAVE_JSON_MODULES = (
    "repro.utils.serialization",
    "repro.engine.cache",
    "repro.engine.checkpoint",
    "repro.api.spec",
)


class Recorder:
    """Self times, call counts, counters and samples of one traced interval."""

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        """Start empty with a fresh lock (a forked worker's first step)."""
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counters: Dict[str, float] = defaultdict(float)
            self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        name, start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] += duration - child
            self.calls[name] += 1
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def add_child_time(self, seconds: float) -> None:
        """Charge ``seconds`` to the innermost open span's children."""
        stack = self._stack()
        if stack:
            stack[-1][2] += seconds

    def export(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def merge(self, exported: Dict[str, Any], time_scale: float) -> None:
        """Fold another process's export in, scaling its times."""
        with self._lock:
            for name, seconds in exported["self_s"].items():
                self.self_s[name] += seconds * time_scale
            for name, calls in exported["calls"].items():
                self.calls[name] += calls
            for name, amount in exported["counters"].items():
                self.counters[name] += amount
            for name, values in exported["samples"].items():
                self.samples[name].extend(values)


RECORDER = Recorder()


class _WorkerTask:
    """A pool task that reports the spans its worker process recorded.

    Picklable by reference (module-level class holding a module-level
    function), so it travels to forked workers like the engine's own task.
    """

    def __init__(self, fn: Callable[[Any], Any], parent_pid: int):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, payload: Any) -> Tuple[Any, float, Optional[Dict[str, Any]]]:
        remote = os.getpid() != self.parent_pid
        if remote:
            RECORDER.restart()
        start = time.perf_counter()
        value = self.fn(payload)
        busy = time.perf_counter() - start
        return value, busy, RECORDER.export() if remote else None


def _span(name: str, original: Callable, after: Optional[Callable] = None) -> Callable:
    """Wrap ``original`` in a span; ``after(result, args, duration)`` counts."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        RECORDER.enter(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            RECORDER.exit()
            RECORDER.count(name + ".failed")
            raise
        duration = RECORDER.exit()
        if after is not None:
            after(result, args, duration)
        return result

    return wrapper


def _map_ordered(original: Callable) -> Callable:
    """Pool ``map_ordered``: tasks, payload bytes, wait and worker spans."""

    @functools.wraps(original)
    def wrapper(pool: Any, fn: Callable, payloads: List[Any]) -> List[Any]:
        payloads = list(payloads)
        remote = pool.name == "process"
        if remote:
            # Bytes the executor pickles per task; measured outside any span,
            # so the pickling shows up as unattributed time.
            RECORDER.count(
                "pool.payload_bytes",
                sum(len(pickle.dumps((fn, p), pickle.HIGHEST_PROTOCOL)) for p in payloads),
            )
        workers = getattr(pool, "num_workers", 1)
        RECORDER.enter("pool.map")
        start = time.perf_counter()
        try:
            results = original(pool, _WorkerTask(fn, os.getpid()), payloads)
            wall = time.perf_counter() - start
            busy = 0.0
            unpacked = []
            for (value, task_busy, spans), label in results:
                busy += task_busy
                if spans is not None:
                    RECORDER.merge(spans, 1.0 / workers)
                unpacked.append((value, label))
            if remote:
                # Worker time as a share of the map interval (see module doc).
                RECORDER.add_child_time(busy / workers)
                RECORDER.count("pool.wait_s", workers * wall - busy)
            RECORDER.count("pool.tasks", len(payloads))
            return unpacked
        finally:
            RECORDER.exit()

    return wrapper


def _file_bytes(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _targets() -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """Every (owner, attribute, wrapper factory) the traced run patches."""
    import importlib

    from repro.api.spec import DatasetSpec
    from repro.core.controller import LSTMController
    from repro.core.pipeline import EvaluationPipeline
    from repro.core.policy import PolicyGradientTrainer
    from repro.core.producer import BackboneProducer
    from repro.engine import checkpoint
    from repro.engine.cache import EvaluationCache, SharedCacheTier
    from repro.engine.engine import SearchEngine
    from repro.engine.workers import ProcessPool, SerialPool
    from repro.nn import layers, optim
    from repro.nn.trainer import Trainer
    from repro.store.remote import RemoteStore

    def span(name: str, after: Optional[Callable] = None):
        return lambda original: _span(name, original, after)

    def cache_get(result, args, duration):
        RECORDER.count("cache.hits", result is not None)

    def priced(result, args, duration):
        RECORDER.count("pipeline.gate_passed", bool(result.passed))

    def remote_get(result, args, duration):
        RECORDER.sample("store.remote.get_ms", duration * 1000.0)

    def checkpoint_saved(result, args, duration):
        RECORDER.count("checkpoint.bytes_written", _file_bytes(*checkpoint.checkpoint_paths(args[0])))

    def json_saved(result, args, duration):
        RECORDER.count("save_json.bytes", _file_bytes(args[0]))

    targets: List[Tuple[Any, str, Callable[[Callable], Callable]]] = []
    for class_name in NN_LAYERS:
        cls = getattr(layers, class_name)
        targets.append((cls, "forward", span(f"nn.{class_name}.forward")))
        targets.append((cls, "backward", span(f"nn.{class_name}.backward")))
    targets += [
        (optim.SGD, "step", span("optim.step")),
        (optim.Adam, "step", span("optim.step")),
        (Trainer, "fit", span("trainer.fit")),
        (Trainer, "predict", span("trainer.eval")),
        (LSTMController, "sample", span("controller.sample")),
        (PolicyGradientTrainer, "apply_update", span("policy.update")),
        (BackboneProducer, "produce", span("producer.produce")),
        (BackboneProducer, "prepare", span("producer.prepare")),
        (EvaluationPipeline, "price", span("pipeline.price", priced)),
        (SearchEngine, "child_cache_key", span("cache.key")),
        (EvaluationCache, "get", span("cache.get", cache_get)),
        (EvaluationCache, "put", span("cache.put")),
        (SharedCacheTier, "fetch", span("tier.fetch")),
        (RemoteStore, "get", span("store.remote.get", remote_get)),
        (RemoteStore, "get_ref", span("store.remote.get", remote_get)),
        (checkpoint, "save_checkpoint", span("checkpoint.save", checkpoint_saved)),
        (DatasetSpec, "build", span("data.build")),
        (SerialPool, "map_ordered", _map_ordered),
        (ProcessPool, "map_ordered", _map_ordered),
    ]
    for module_name in SAVE_JSON_MODULES:
        module = importlib.import_module(module_name)
        targets.append((module, "save_json", span("save_json", json_saved)))
    return targets


@contextlib.contextmanager
def installed() -> Iterator[Recorder]:
    """Patch every traced boundary for the duration of the block."""
    patched = []
    try:
        for owner, attribute, factory in _targets():
            original = getattr(owner, attribute)
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            setattr(owner, attribute, factory(original))
            patched.append((owner, attribute, original))
        yield RECORDER
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
