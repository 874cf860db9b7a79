"""The repository's benchmark: one workload, spec in, report out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-train --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next ``repro.run`` call
starts when the previous report returns.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced calls and prints the per-layer metrics (see ``perfbench/README.md``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the command exits non-zero when any
call failed its output checks.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, run_spec  # noqa: E402

LIBC = ctypes.CDLL(None)
SETUP_REPEATS = 3
# Fewest calls a run makes: a median of three, or two untraced-traced pairs
# so that a traced run can compare counts between its traced calls.
MIN_CALLS = 3
MIN_TRACED_CALLS = 4
# A tail is read at the highest percentile (at most p99) that leaves
# TAIL_BEYOND samples above it; with fewer than 2 * TAIL_BEYOND samples
# there is no tail and the median is reported.
TAIL_BEYOND = 10
# Counts later claims may rest on: a traced run flags any that differ
# between its traced calls of the same spec.
REPEATING_COUNTS = (
    "pool.payload_bytes_per_task",
    "checkpoint.bytes_written",
    "producer.produce.calls",
    "store.remote.get.calls",
    "cache.hit_ratio",
)


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the tail of ``values``."""
    q = min(99.0, 100.0 * (1.0 - TAIL_BEYOND / len(values)))
    q = max(q, 50.0)
    return float(numpy.percentile(values, q)), q


class StealClock:
    """Seconds the hypervisor took from the CPUs the benchmark runs on.

    ``/proc/stat`` counts, per CPU, the time a virtual CPU was ready to run
    but the host ran another guest instead ("steal").  The benchmark's calls
    keep the CPUs it is pinned to busy, so steal there is time the program
    lost to other guests of a shared host; the clock reads it averaged over
    those CPUs, in seconds of wall time.
    """

    def __init__(self, cpus: List[int]):
        self.names = {f"cpu{cpu}" for cpu in cpus}
        self.scale = 1.0 / (os.sysconf("SC_CLK_TCK") * len(cpus))

    def __call__(self) -> float:
        ticks = 0
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in self.names:
                    ticks += int(fields[8])
                elif not fields[0].startswith("cpu"):
                    break
        return ticks * self.scale


class Sampler:
    """Resident memory of this process tree and the steal clock over time.

    A background thread samples every ``interval`` seconds.  :meth:`peak`
    returns the highest summed resident memory of this process and its
    descendants since the last call and starts a new interval;
    :meth:`stolen` interpolates the steal clock between two ``time.time()``
    stamps, such as those of engine events.
    """

    def __init__(self, steal: StealClock, interval: float = 0.025):
        self.steal = steal
        self.interval = interval
        self._peak = 0
        self._stamps: List[float] = []
        self._steals: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _tree(self) -> List[int]:
        pids, frontier = [], [os.getpid()]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as handle:
                        frontier.extend(int(c) for c in handle.read().split())
            except OSError:
                continue
        return pids

    def sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/statm") as handle:
                    total += int(handle.read().split()[1]) * self._page
            except OSError:
                continue
        stamp, stolen = time.time(), self.steal()
        with self._lock:
            self._peak = max(self._peak, total)
            self._stamps.append(stamp)
            self._steals.append(stolen)

    def peak(self) -> int:
        """Peak bytes since the previous call (or since start)."""
        self.sample()
        with self._lock:
            peak, self._peak = self._peak, 0
        return peak

    def stolen(self, start: float, end: float) -> float:
        """Steal-clock seconds between two ``time.time()`` stamps."""
        with self._lock:
            at = numpy.interp([start, end], self._stamps, self._steals)
        return float(at[1] - at[0])

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()


def pin(count: int) -> List[int]:
    """Pin every thread of this process to its first ``count`` CPUs.

    Threads started later and child processes inherit the set.  BLAS gets
    no more threads than CPUs: OpenBLAS threads that outnumber their CPUs
    spin against each other, which made a small matrix product 15 times
    slower on one CPU.  Returns the CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))[:count]
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            continue  # the thread has ended
    getter, setter = openblas()
    if getter is not None and getter() > len(cpus):
        setter(len(cpus))
        os.environ["OPENBLAS_NUM_THREADS"] = str(len(cpus))
    return cpus


def host_fingerprint() -> Dict[str, Any]:
    """Where a result was measured: commit, cores, interpreter and BLAS."""
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    sha = handle.read().strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def openblas() -> Tuple[Optional[Callable[[], int]], Optional[Callable[[int], None]]]:
    """Get and set the thread count of numpy's bundled OpenBLAS, if found."""
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                return getter, setter
    return None, None


def blas_threads() -> Optional[int]:
    """The thread count numpy's bundled OpenBLAS runs with, when it says."""
    getter, _ = openblas()
    return int(getter()) if getter is not None else None


def calibration_ms() -> float:
    """Best-of-five time of a fixed Python-plus-BLAS task.

    Recorded beside the metrics so that a run on a slower or busier host
    can be told apart from a slower program.
    """
    a = numpy.random.default_rng(0).standard_normal((192, 192))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        sum(i * i for i in range(200_000))
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


class Call:
    """One timed ``repro.run`` call and what it produced.

    Its times are steal-free: the hypervisor's steal on the benchmark's CPUs
    during the call (or the wave) is taken off its wall time.  The raw wall
    times are kept beside them.
    """

    def __init__(
        self,
        wall: float,
        stolen: float,
        sampler: Sampler,
        report: Any,
        events: List[Any],
        problems: List[str],
    ):
        self.wall = wall
        self.stolen = stolen
        self.peak_bytes = sampler.peak()
        self.episodes = len(report.history.records)
        self.episodes_per_s = self.episodes / (wall - stolen)
        # Wave boundaries: the run's start, then every finished wave.
        stamps = [e.timestamp for e in events if e.kind in ("run-started", "batch-finished")]
        self.raw_waves_ms = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
        self.waves_ms = [
            ms - sampler.stolen(a, b) * 1000.0
            for ms, a, b in zip(self.raw_waves_ms, stamps, stamps[1:])
        ]
        self.problems = problems
        self.trained_built = sum(r.trained and not r.cache_hit for r in report.history.records)
        self.layers: Optional[Dict[str, Any]] = None


class Bench:
    """Set-up, the closed loop and the bookkeeping of one benchmark run."""

    def __init__(self, workload: Workload, work_dir: str, sampler: Sampler):
        self.workload = workload
        self.work_dir = work_dir
        self.sampler = sampler
        self.calls: List[Call] = []
        self.started = 0
        self.attempted = 0
        self.failed = 0
        self.setup_times: List[Dict[str, float]] = []

    def setup(self) -> None:
        for index in range(SETUP_REPEATS):
            start = time.perf_counter()
            parts = self.workload.setup(os.path.join(self.work_dir, f"setup-{index}"))
            parts["setup_s"] = time.perf_counter() - start
            self.setup_times.append(parts)

    def call(self, traced: bool, variant: int) -> Optional[Call]:
        call_dir = os.path.join(self.work_dir, f"call-{self.started}")
        spec = self.workload.spec(call_dir, variant)
        self.started += 1
        self.attempted += 1
        # Each call starts from a collected and trimmed heap, so one call's
        # cyclic garbage (engines, event buses) neither inflates the next
        # call's memory nor makes it pay for the collection, and the free
        # memory malloc keeps in its per-thread arenas goes back to the
        # system: which arenas earlier calls' threads used is chance, and
        # it set peak_rss_mb on search-gate anywhere from 250 to 370 MB.
        gc.collect()
        LIBC.malloc_trim(0)
        self.sampler.peak()
        stolen = self.sampler.steal()
        try:
            if traced:
                with tracer.installed() as recorder:
                    recorder.reset()
                    start = time.perf_counter()
                    report, events = run_spec(spec)
                    wall = time.perf_counter() - start
                    layers = recorder.export()
            else:
                start = time.perf_counter()
                report, events = run_spec(spec)
                wall = time.perf_counter() - start
            stolen = self.sampler.steal() - stolen
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = self.workload.check(report, events, variant)
        attempted_ops, failed_ops = self.workload.store_ops(report, events)
        self.attempted += attempted_ops
        self.failed += failed_ops + bool(problems)
        for problem in problems:
            print(f"check failed: {problem}", flush=True)
        call = Call(wall, stolen, self.sampler, report, events, problems)
        if traced:
            call.layers = layers
        self.calls.append(call)
        return call

    def loop(self, seconds: float, trace: bool) -> None:
        """Closed loop until the next call would end well past ``seconds``."""
        deadline = time.perf_counter() + seconds
        least = MIN_TRACED_CALLS if trace else MIN_CALLS
        index = 0
        while True:
            # A traced run alternates untraced and traced calls of one spec.
            traced = trace and index % 2 == 1
            variant = index if self.workload.varies and not trace else 0
            call = self.call(traced, variant)
            index += 1
            if call is None and self.failed >= 3:
                return
            last = call.wall if call is not None else 0.0
            if index >= least and time.perf_counter() + last / 2 > deadline:
                return


def end_to_end(bench: Bench) -> Tuple[Dict[str, float], Dict[str, Any]]:
    calls = bench.calls
    waves = [w for call in calls for w in call.waves_ms]
    tail_ms, tail_q = tail(waves)
    metrics = {
        "episodes_per_s": statistics.median(c.episodes_per_s for c in calls),
        "wave_ms_p50": statistics.median(waves),
        "wave_ms_tail": tail_ms,
        "setup_s": statistics.median(s["setup_s"] for s in bench.setup_times),
        "peak_rss_mb": statistics.median(c.peak_bytes for c in calls) / 2**20,
    }
    notes = {
        "calls": len(calls),
        "waves": len(waves),
        "wave_ms_tail_percentile": tail_q,
        "raw_episodes_per_s": statistics.median(c.episodes / c.wall for c in calls),
        "raw_wave_ms_p50": statistics.median(w for c in calls for w in c.raw_waves_ms),
    }
    return metrics, notes


def per_layer(bench: Bench, names: List[str]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    traced = [c for c in bench.calls if c.layers is not None]
    plain = [c for c in bench.calls if c.layers is None]
    per_call = [layer_values(c) for c in traced]
    metrics = {name: statistics.fmean(v[name] for v in per_call) for name in per_call[0]}
    remote_ms = [ms for c in traced for ms in c.layers["samples"].get("store.remote.get_ms", [])]
    if remote_ms:
        metrics["store.remote.get_ms_p50"] = statistics.median(remote_ms)
        metrics["store.remote.get_ms_tail"], remote_q = tail(remote_ms)
    else:
        metrics["store.remote.get_ms_p50"] = metrics["store.remote.get_ms_tail"] = 0.0
        remote_q = None
    starts = [s["service.start_s"] for s in bench.setup_times if "service.start_s" in s]
    metrics["service.start_s"] = statistics.median(starts) if starts else 0.0
    metrics["trace_overhead"] = (
        statistics.median(c.episodes_per_s for c in plain)
        / statistics.median(c.episodes_per_s for c in traced)
        - 1.0
    )
    differing = [
        name for name in REPEATING_COUNTS if len({v[name] for v in per_call}) > 1
    ]
    metrics["counts.nonrepeating"] = float(len(differing))
    notes = {
        "traced_calls": len(traced),
        "untraced_calls": len(plain),
        "store.remote.get_ms_tail_percentile": remote_q,
        "nonrepeating_counts": differing,
    }
    missing = set(names) - set(metrics)
    extra = set(metrics) - set(names)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {missing} {extra}")
    return {name: metrics[name] for name in names}, notes


def layer_values(call: Call) -> Dict[str, float]:
    """One traced call's per-layer metrics (times are self times)."""
    layers = call.layers
    self_s, calls, counters = layers["self_s"], layers["calls"], layers["counters"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> float:
        return float(calls.get(name, 0))

    def c(name: str) -> float:
        return float(counters.get(name, 0))

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    values: Dict[str, float] = {}
    for layer in tracer.NN_LAYERS:
        values[f"nn.{layer}.forward_s"] = s(f"nn.{layer}.forward")
        values[f"nn.{layer}.backward_s"] = s(f"nn.{layer}.backward")
        values[f"nn.{layer}.calls"] = n(f"nn.{layer}.forward")
    tasks = c("pool.tasks")
    values.update({
        "optim.step_s": s("optim.step"),
        "trainer.fit_s": s("trainer.fit"),
        "trainer.fit.calls": n("trainer.fit"),
        "trainer.eval_s": s("trainer.eval"),
        "controller.sample_s": s("controller.sample"),
        "policy.update_s": s("policy.update"),
        "producer.produce.calls": n("producer.produce"),
        "producer.produce_s": s("producer.produce"),
        "producer.build_useful_ratio": ratio(call.trained_built, n("producer.produce")),
        "producer.prepare_s": s("producer.prepare"),
        "pipeline.price.calls": n("pipeline.price"),
        "pipeline.price_s": s("pipeline.price"),
        "pipeline.gate_pass_ratio": ratio(c("pipeline.gate_passed"), n("pipeline.price")),
        "pool.tasks": tasks,
        "pool.map_s": s("pool.map"),
        "pool.payload_bytes_per_task": ratio(c("pool.payload_bytes"), tasks),
        "pool.wait_s": c("pool.wait_s"),
        "cache.key_s": s("cache.key"),
        "cache.get.calls": n("cache.get"),
        "cache.get_s": s("cache.get"),
        "cache.hit_ratio": ratio(c("cache.hits"), n("cache.get")),
        "cache.put_s": s("cache.put"),
        "tier.fetch_s": s("tier.fetch"),
        "store.remote.get.calls": n("store.remote.get"),
        "store.remote.get_s": s("store.remote.get"),
        "store.remote.failed": c("store.remote.get.failed"),
        "checkpoint.save.calls": n("checkpoint.save"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.bytes_written": c("checkpoint.bytes_written"),
        "save_json.calls": n("save_json"),
        "save_json_s": s("save_json"),
        "save_json.bytes": c("save_json.bytes"),
        "data.build_s": s("data.build"),
        "trace.wall_s": call.wall,
        "unattributed_s": call.wall - sum(self_s.values()),
    })
    return values


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = {w["name"]: w["why"] for w in benchmark["workloads"]}
    if set(declared) != set(WORKLOADS):
        raise RuntimeError(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir)
    # Runs share a disk: flush what earlier runs left behind, and delete
    # this run's files only after its last call, then flush again.  File
    # deletion can cost the kernel disk work (discards) well after the
    # unlink, which would otherwise land in a later timed call.
    os.sync()
    workload = WORKLOADS[args.workload](args.seed)
    host = host_fingerprint()
    cpus = pin(workload.cpus)
    calibration = calibration_ms()
    try:
        with Sampler(StealClock(cpus)) as sampler:
            bench = Bench(workload, work_dir, sampler)
            bench.setup()
            stolen, start = sampler.steal(), time.perf_counter()
            bench.loop(args.seconds, trace=bool(args.trace))
            steal_share = (sampler.steal() - stolen) / (time.perf_counter() - start)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        os.sync()
    if not bench.calls:
        raise RuntimeError("no call completed")

    if args.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        metrics, notes = per_layer(bench, names)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        metrics, notes = end_to_end(bench)
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    failed_ratio = bench.failed / bench.attempted
    record = {
        "workload": args.workload,
        "why": declared[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": workload.spec("<call-dir>"),
        "host": host,
        "calibration_ms": calibration,
        "cpus": cpus,
        "blas_threads": blas_threads(),
        "cpu_steal_share": steal_share,
        "setup": bench.setup_times,
        "calls": [
            {
                "wall_s": c.wall,
                "stolen_s": c.stolen,
                "peak_mb": c.peak_bytes / 2**20,
                "episodes": c.episodes,
                "waves_ms": c.waves_ms,
                "raw_waves_ms": c.raw_waves_ms,
                "problems": c.problems,
            }
            for c in bench.calls
        ],
        "notes": notes,
        "failed_ratio": failed_ratio,
        "metrics": metrics,
    }
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    print(f"workload {args.workload} seed {args.seed}: {declared[args.workload]}")
    print(
        f"host {json.dumps(record['host'], sort_keys=True)} "
        f"calibration {calibration:.1f} ms, cpu steal {steal_share:.1%}"
    )
    print(f"notes {json.dumps(notes, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':34s} {failed_ratio:14.6g} ratio ({bench.failed}/{bench.attempted})")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
