"""The benchmark's workloads: generated specs, set-up and output checks.

Every workload derives its ``RunSpec`` from the smoke spec's search space
(MobileNetV2 backbone, two searchable positions, one child epoch, batch 16)
and the ``--seed`` argument, which sets the dataset, split and search seeds.
The program only ever sees the generated spec.  Each workload's rationale is
its ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.events import STORE_DEGRADED
from repro.service.client import RunClient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DEFAULT_SEED = 0
# The reward the pipeline assigns a child that fails a gate.
PENALTY = -1.0


def search_spec(
    seed: int,
    *,
    image_size: int,
    samples_per_class: int,
    width: float,
    timing_constraint_ms: float,
    episodes: int,
    policy_batch: int,
    engine: Dict[str, Any],
    search_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The smoke spec's search space with the given scale and engine."""
    return {
        "version": 1,
        "strategy": "fahana",
        "dataset": {
            "image_size": image_size,
            "num_classes": 5,
            "samples_per_class": samples_per_class,
            "minority_fraction": 0.5,
            "dark_contrast": 0.55,
            "seed": seed,
            "split_seed": seed,
        },
        "design": {
            "device": "raspberry-pi-4",
            "timing_constraint_ms": timing_constraint_ms,
            "accuracy_constraint": 0.0,
            "max_storage_mb": None,
        },
        "search": {
            "episodes": episodes,
            "backbone": "MobileNetV2",
            "gamma": 0.5,
            "width_multiplier": width,
            "child_epochs": 1,
            "child_batch_size": 16,
            "pretrain_epochs": 0,
            "max_searchable": 2,
            "alpha": 1.0,
            "beta": 1.0,
            "seed": seed if search_seed is None else search_seed,
            "policy_batch": policy_batch,
        },
        "engine": engine,
    }


def history_digest(records: List[Any]) -> str:
    """SHA-256 of every episode's decisions and exact float64 reward."""
    rows = [[r.decisions, float(r.reward).hex()] for r in records]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def run_spec(spec: Dict[str, Any]) -> Tuple[Any, List[Any]]:
    """One closed-loop call: ``repro.run``'s own path, keeping the handle.

    ``repro.run`` is ``RunClient.local().submit(spec).result()``; holding the
    handle lets the caller read the run's event stream afterwards.
    """
    handle = RunClient.local().submit(spec)
    report = handle.result()
    return report, list(handle.events())


class Workload:
    """One workload: its spec, set-up, and output checks.

    A workload whose calls cost depends on the sampled architectures sets
    ``varies``: its untraced calls then search with distinct seeds derived
    from ``--seed`` (``variant`` 0, 1, ...), so one run averages many
    architectures instead of repeating one seed's few.
    """

    name = ""
    episodes = 0
    varies = False
    # CPUs the run is pinned to (see ``run.pin``).
    cpus = 1

    def __init__(self, seed: int):
        self.seed = seed

    def spec(self, call_dir: str, variant: int = 0, episodes: Optional[int] = None) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, setup_dir: str) -> Dict[str, float]:
        """Prepare for timed calls; returns named set-up sub-times (seconds).

        The default is a one-episode warm-up call of the first variant.
        """
        os.makedirs(setup_dir)
        report, _ = run_spec(self.spec(setup_dir, episodes=1))
        self.warmed(report)
        return {}

    def warmed(self, report: Any) -> None:
        """Hook: the report of a one-episode warm-up call."""

    def check(self, report: Any, events: List[Any], variant: int) -> List[str]:
        """Output problems of one call (empty when the call is correct)."""
        done = len(report.history.records)
        if done != self.episodes or report.cancelled:
            return [f"ran {done} of {self.episodes} episodes"]
        return []

    def store_ops(self, report: Any, events: List[Any]) -> Tuple[int, int]:
        """(attempted, failed) store operations of one call."""
        return 0, 0

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""


class SearchTrain(Workload):
    name = "search-train"
    episodes = 4
    varies = True
    cpus = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        # First history digest seen per variant; the first episode of
        # variant 0 is also run by every warm-up.
        self.digests: Dict[int, str] = {}
        self.warm_digests: List[str] = []
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            self.golden = json.load(handle)[self.name]

    def spec(self, call_dir, variant=0, episodes=None):
        return search_spec(
            self.seed,
            search_seed=self.seed + 1000 * variant,
            image_size=32,
            samples_per_class=40,
            width=0.35,
            timing_constraint_ms=1e6,
            episodes=episodes or self.episodes,
            policy_batch=4,
            engine={
                "backend": "process",
                "num_workers": 2,
                "batch_episodes": 4,
                "use_cache": False,
                "run_dir": os.path.join(call_dir, "run"),
                "checkpoint_every": 0,
            },
        )

    def warmed(self, report):
        self.warm_digests.append(history_digest(report.history.records))

    def check(self, report, events, variant):
        problems = super().check(report, events, variant)
        records = report.history.records
        digest = history_digest(records)
        first = self.digests.setdefault(variant, digest)
        if digest != first:
            problems.append(f"history digest {digest} differs from this spec's first {first}")
        if variant == 0:
            prefix = history_digest(records[:1])
            if any(warm != prefix for warm in self.warm_digests):
                problems.append("the first episode differs from the warm-up runs'")
            if self.seed == DEFAULT_SEED and digest != self.golden:
                problems.append(f"history digest {digest} differs from the recorded {self.golden}")
        return problems


class SearchGate(Workload):
    name = "search-gate"
    episodes = 80
    varies = True

    def spec(self, call_dir, variant=0, episodes=None):
        return search_spec(
            self.seed,
            search_seed=self.seed + 1000 * variant,
            image_size=32,
            samples_per_class=40,
            width=0.35,
            timing_constraint_ms=1500.0,
            episodes=episodes or self.episodes,
            policy_batch=8,
            engine={
                "backend": "serial",
                "use_cache": True,
                "cache_dir": os.path.join(call_dir, "cache"),
                "run_dir": os.path.join(call_dir, "run"),
                "checkpoint_every": 8,
            },
        )

    def check(self, report, events, variant):
        problems = super().check(report, events, variant)
        bad = [r.episode for r in report.history.records if r.reward != PENALTY or r.trained]
        if bad:
            problems.append(f"episodes {bad[:5]} were not rejected with the {PENALTY} penalty")
        return problems


class SearchReplay(Workload):
    """Warm replay: every episode is served by a store daemon's shared tier."""

    name = "search-replay"
    episodes = 48

    def __init__(self, seed: int):
        super().__init__(seed)
        self.daemon: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self.rewards: List[float] = []

    def spec(self, call_dir, variant=0, episodes=None):
        return search_spec(
            self.seed,
            image_size=10,
            samples_per_class=8,
            width=0.25,
            timing_constraint_ms=1e6,
            episodes=episodes or self.episodes,
            policy_batch=8,
            engine={"backend": "serial", "store_url": self.url},
        )

    def setup(self, setup_dir):
        """Start a store daemon on a fresh store, then publish one cold run.

        The daemon inherits the benchmark's one CPU, so a round trip is a
        context switch rather than a cross-CPU wake-up: on a virtual machine
        the latter waits on the hypervisor (measured as steal), which made
        replay throughput vary by a third between runs.
        """
        self.close()
        os.makedirs(setup_dir)
        start = time.perf_counter()
        self.daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.engine.cli", "serve",
                "--port", "0",
                "--runs-root", os.path.join(setup_dir, "runs"),
                "--zoo-root", os.path.join(setup_dir, "zoo"),
                "--store-root", os.path.join(setup_dir, "store"),
            ],
            cwd=setup_dir,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.daemon.stdout.readline()
        if " on http://" not in line:
            raise RuntimeError(f"store daemon did not start: {line!r}")
        self.url = line.split(" on ", 1)[1].split()[0]
        started = time.perf_counter()
        report, _ = run_spec(self.spec(setup_dir))
        self.rewards = [r.reward for r in report.history.records]
        return {
            "service.start_s": started - start,
            "populate_s": time.perf_counter() - started,
        }

    def check(self, report, events, variant):
        problems = super().check(report, events, variant)
        records = report.history.records
        misses = [r.episode for r in records if not r.cache_hit]
        if misses:
            problems.append(f"episodes {misses[:5]} were not cache hits")
        if [r.reward for r in records] != self.rewards:
            problems.append("replayed rewards differ from the populate run's")
        if any(event.kind == STORE_DEGRADED for event in events):
            problems.append("the store tier degraded")
        return problems

    def store_ops(self, report, events):
        lookups = report.metrics.get("repro_store_tier_lookups_total", {}).get("samples", [])
        by_result = {s["labels"].get("result"): int(s["value"]) for s in lookups}
        return sum(by_result.values()), sum(by_result.values()) - by_result.get("hit", 0)

    def close(self):
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()


WORKLOADS = {cls.name: cls for cls in (SearchTrain, SearchGate, SearchReplay)}
