"""The search engine: the execution layer between controller and evaluator.

:class:`SearchEngine` drives a :class:`~repro.core.fahana.FaHaNaSearch`
(or its MONAS subclass) through the same protocol as the original
sequential loop -- sample, price, build, train, observe -- but adds the
three scaling features the seed loop lacked:

1. **Batched parallel evaluation.**  Episodes are sampled up front in waves
   of ``batch_episodes`` children and evaluated concurrently on a pluggable
   worker pool.  Controller sampling draws from the sample-RNG stream and
   child weight initialisation from the child-RNG stream in strict episode
   order, and rewards are fed back to the policy trainer in episode order,
   so a run is bit-for-bit reproducible regardless of backend -- provided
   the wave size does not exceed ``PolicyGradientConfig.batch_episodes``
   (within one policy batch the controller's parameters are constant, which
   is exactly what makes the evaluations independent).

2. **Content-addressed memoization.**  With a cache configured, each sampled
   child is fingerprinted (descriptor ``cache_key()`` + evaluation context)
   and looked up before it is priced or built; repeats return the memoized
   result without training.  Every sampled child draws its weight-init seed
   at sample time, so the child-RNG stream stays aligned with an uncached
   run.  Gate rejections are never cached or published to a store tier;
   repeating one costs only a pricing.

3. **Checkpoint/resume.**  With a ``run_dir`` configured, the engine
   snapshots controller weights, optimiser/baseline state, both RNG streams,
   the cache and the search history at batch boundaries, and can restore a
   search mid-flight via :meth:`SearchEngine.resume`.

Every observable step is announced on an event bus (JSONL telemetry when a
run directory is configured).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import math

from repro.core.controller import ControllerSample
from repro.core.evaluator import ChildEvaluator, EvaluationResult
from repro.core.fahana import FaHaNaResult, FaHaNaSearch
from repro.core.pipeline import FidelityConfig, PricingReport
from repro.core.producer import ChildArchitecture
from repro.core.results import EpisodeRecord, SearchHistory
from repro.engine import checkpoint as checkpoint_io
from repro.engine.cache import EvaluationCache, SharedCacheTier
from repro.engine.events import (
    BATCH_FINISHED,
    CACHE_HIT,
    CHECKPOINT_WRITTEN,
    EARLY_STOPPED,
    EPISODE_FINISHED,
    GATE_REJECTED,
    METRICS_UPDATED,
    RUN_CANCELLED,
    RUN_FINISHED,
    RUN_STARTED,
    SPAN,
    STAGE_FINISHED,
    STORE_DEGRADED,
    WAVE_PROMOTED,
    WAVE_RESIZED,
    EngineEvent,
    EventBus,
    JsonlTelemetry,
)
from repro.engine import workers as workers_module
from repro.engine.workers import WorkerPool, create_pool, ensure_backend
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer
from repro.store import LocalStore, RemoteStore, TieredStore
from repro.store.freeze import fingerprint_payload
from repro.utils.fingerprint import array_fingerprint, combine_fingerprints
from repro.zoo.descriptors import ArchitectureDescriptor


class StopToken:
    """Cooperative cancellation signal checked by the engine loop.

    ``request()`` flags the token in-process; a token constructed with a
    ``path`` is additionally set by the mere existence of that file, which is
    how another process (``repro-search cancel`` on a shared runs root)
    reaches a run it does not hold a thread handle to.  The engine honours a
    set token at the next wave boundary where no policy-gradient episodes are
    pending, writes its usual checkpoint and stops -- so a cancelled run is
    always resumable.
    """

    def __init__(self, path: Optional[str] = None):
        self._event = threading.Event()
        self.path = path

    def request(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    def is_set(self) -> bool:
        """True once cancellation was requested (in-process or via the file)."""
        if self._event.is_set():
            return True
        if self.path is not None and os.path.exists(self.path):
            self._event.set()
            return True
        return False


@dataclass
class EngineConfig:
    """Execution knobs of the engine (orthogonal to the search's own config)."""

    backend: str = "serial"
    num_workers: int = 2
    # Episodes sampled and evaluated per wave; None uses the policy trainer's
    # batch size, which preserves exact sequential-loop semantics.
    batch_episodes: Optional[int] = None
    use_cache: bool = False
    cache: Optional[EvaluationCache] = None
    cache_capacity: int = 1024
    # The cache's store tier (repro.store); either implies caching.
    # ``cache_dir`` is a local store root, shared by every run pointed at it
    # on this host; ``store_url`` adds a daemon's cross-host tier.  Both set
    # builds the full local-first/remote-fallback tiering.
    cache_dir: Optional[str] = None
    store_url: Optional[str] = None
    run_dir: Optional[str] = None
    # Write a checkpoint whenever at least this many episodes completed since
    # the last one (0 = only the final checkpoint, when run_dir is set).
    checkpoint_every: int = 0
    telemetry: bool = True
    # Process backend only: ship the evaluator to each worker process once at
    # pool startup (executor initializer) instead of re-pickling it per task.
    share_evaluator: bool = True
    # Process backend only: BLAS/OpenMP threads *per worker process* (the
    # pool initializer pins OMP_NUM_THREADS/OPENBLAS_NUM_THREADS and the
    # OpenBLAS runtime).  N workers x M BLAS threads quickly oversubscribes
    # the cores; 1 is the right setting whenever num_workers is sized to the
    # machine.  None leaves the workers' BLAS threading untouched.
    blas_threads_per_worker: Optional[int] = 1

    def __post_init__(self) -> None:
        ensure_backend(self.backend)  # ValueError on unknown names
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.batch_episodes is not None and self.batch_episodes <= 0:
            raise ValueError("batch_episodes must be positive when given")
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.blas_threads_per_worker is not None and self.blas_threads_per_worker <= 0:
            raise ValueError("blas_threads_per_worker must be positive when given")

    @property
    def caching(self) -> bool:
        """True when a search under this config memoizes evaluations."""
        return (
            self.use_cache
            or self.cache is not None
            or self.cache_dir is not None
            or self.store_url is not None
        )


# -- module-level default (installed by harnesses, e.g. the benchmark suite) -------
_default_engine_config: Optional[EngineConfig] = None


def set_default_engine_config(
    config: Optional[EngineConfig],
) -> Optional[EngineConfig]:
    """Install a process-wide default engine config; returns the previous one."""
    global _default_engine_config
    previous = _default_engine_config
    _default_engine_config = config  # repro-lint: disable=THR001 -- configured from the driving thread before workers start; single-name rebind is atomic under the GIL
    return previous


def get_default_engine_config() -> Optional[EngineConfig]:
    """The currently installed process-wide default (None when unset)."""
    return _default_engine_config


def resolve_engine_config(explicit: Optional[EngineConfig] = None) -> EngineConfig:
    """Pick the engine config: explicit > process default > plain serial."""
    if explicit is not None:
        return explicit
    if _default_engine_config is not None:
        return _default_engine_config
    return EngineConfig()


@dataclass
class _EpisodeJob:
    """One episode of a wave, from sample to evaluation."""

    episode: int
    sample: ControllerSample
    descriptor: ArchitectureDescriptor
    # Weight-init seed, drawn at sample time; every stage the child trains at
    # builds a fresh model from it.
    seed: int
    # The child's full-fidelity cache key (None with caching off).
    cache_key: Optional[str] = None
    pricing: Optional[PricingReport] = None
    # The latest stage's result; the episode's outcome once the child stops.
    evaluation: Optional[EvaluationResult] = None
    cache_hit: bool = False
    worker: str = ""
    elapsed_seconds: float = 0.0
    stages: List[str] = field(default_factory=list)


def _stage_key(key: str, fidelity: Optional[FidelityConfig]) -> str:
    """A child's cache key at ``fidelity``, from its full-fidelity ``key``."""
    if fidelity is None or fidelity.is_full:
        return key
    return combine_fingerprints(key, fidelity.fingerprint())


def _train_payload(
    payload: Tuple[Optional[ChildEvaluator], ChildArchitecture, str, PricingReport],
) -> Tuple[EvaluationResult, float, float]:
    """Worker task: train and score one built child at one fidelity stage.

    Module-level so it pickles.  ``evaluator`` is None when the pool shipped
    it to the worker process once at startup (``EngineConfig.share_evaluator``);
    it is then read back from the worker's shared slot instead of travelling
    with every task.  The child arrives priced, so the worker never re-prices
    it.  Returns ``(result, elapsed_seconds, wall_start)`` -- the wall-clock
    start lets the engine record the training as a tracer span on the
    worker's own timeline, which is what makes a trace show the wave's real
    parallelism.
    """
    evaluator, child, fidelity_name, pricing = payload
    if evaluator is None:
        evaluator = workers_module.process_shared()
    pipeline = evaluator.pipeline
    wall_start = time.time()  # repro-lint: disable=DET001 -- telemetry wall-clock timestamp surfaced in events; never enters results or cache keys
    start = time.perf_counter()
    result = pipeline.train_and_score(
        child, pipeline.fidelity(fidelity_name), pricing=pricing
    )
    return result, time.perf_counter() - start, wall_start


class SearchEngine:
    """Executes a FaHaNa/MONAS search with batching, caching and checkpoints."""

    def __init__(
        self,
        search: FaHaNaSearch,
        config: Optional[EngineConfig] = None,
        stop_token: Optional[StopToken] = None,
    ):
        self.search = search
        self.config = config or EngineConfig()
        self.events = EventBus()
        self.stop_token = stop_token or StopToken()
        self.cancelled = False
        self.cache = self._build_cache()
        # Computed on first use: hashing the datasets and backbone weights is
        # O(bytes) work the default no-cache/no-checkpoint path never needs.
        self._context_key: Optional[str] = None
        self.evaluations_run = 0
        self.evaluations_by_fidelity: Dict[str, int] = {}
        self.checkpoints_written = 0
        self.early_stopped = False
        # Reward-plateau tracking (seeded from a restored history on resume).
        self._best_reward = float("-inf")
        self._best_episode = -1
        self._restored_history: Optional[SearchHistory] = None
        self._restored_seconds = 0.0
        self._next_episode = 0
        self._telemetry: Optional[JsonlTelemetry] = None
        if self.config.run_dir is not None:
            os.makedirs(self.config.run_dir, exist_ok=True)
            if self.config.telemetry:
                self._telemetry = JsonlTelemetry(
                    os.path.join(self.config.run_dir, "telemetry.jsonl")
                )
                self.events.subscribe(self._telemetry)
        # Per-run metric registry mirroring into the process-global one: each
        # instrumentation write lands in both, so the run's RunReport.metrics
        # snapshot and the daemon's fleet-wide /metrics share one write path.
        # Observability observes, it never steers: nothing below touches
        # cache_key(), the context fingerprint or either RNG stream.
        self.metrics = obs_metrics.MetricsRegistry(parent=obs_metrics.get_registry())
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics)
            self.cache.bind_events(self._emit_cache_event)
        self.tracer = Tracer(self._emit_span)
        if self.cache is not None:
            self.cache.bind_tracer(self.tracer)
        self._m_waves = self.metrics.counter(
            "repro_engine_waves_total", "Waves completed"
        )
        self._m_wave_seconds = self.metrics.histogram(
            "repro_engine_wave_seconds", "Wall time per wave (sample to observe)"
        )
        self._m_episodes = self.metrics.counter(
            "repro_engine_episodes_total",
            "Episodes finished, by outcome",
            labelnames=("result",),
        )
        self._m_eps = self.metrics.gauge(
            "repro_engine_episodes_per_second",
            "Episodes completed per wall second (current run)",
        )
        self._m_best = self.metrics.gauge(
            "repro_engine_best_reward", "Best Eq.1 reward observed so far"
        )
        self._m_promotions = self.metrics.counter(
            "repro_engine_promotions_total",
            "Children promoted to a higher fidelity stage",
        )
        self._m_evaluations = self.metrics.counter(
            "repro_engine_evaluations_total",
            "Child trainings run, by fidelity",
            labelnames=("fidelity",),
        )

    # -- construction helpers -----------------------------------------------------
    def _build_cache(self) -> Optional[EvaluationCache]:
        config = self.config
        if not config.caching:
            return None
        tier = self._build_store_tier()
        if config.cache is not None:
            if tier is not None and config.cache.tier is None:
                config.cache.tier = tier
            return config.cache
        return EvaluationCache(capacity=config.cache_capacity, tier=tier)

    def _build_store_tier(self) -> Optional[SharedCacheTier]:
        """The cache's store tier, when ``cache_dir`` or ``store_url`` is set.

        ``cache_dir`` alone shares results across runs/processes on one host
        through the filesystem; ``store_url`` adds (or is) the daemon's
        cross-host tier.  Remote faults degrade inside the tiered store --
        the engine only hears about it once, as a ``store-degraded`` event.
        """
        config = self.config
        if config.cache_dir is None and config.store_url is None:
            return None
        local = LocalStore(config.cache_dir) if config.cache_dir is not None else None
        remote = (
            RemoteStore(config.store_url) if config.store_url is not None else None
        )
        store = TieredStore(
            local=local, remote=remote, on_degraded=self._on_store_degraded
        )
        return SharedCacheTier(store)

    def _on_store_degraded(self, info: Dict[str, Any]) -> None:
        self._emit(STORE_DEGRADED, payload=info)

    def _emit_cache_event(self, kind: str, payload: Dict[str, Any]) -> None:
        self._emit(kind, payload=payload)

    @property
    def context_key(self) -> str:
        """The evaluation-context fingerprint (computed lazily, then cached)."""
        if self._context_key is None:
            self._context_key = self._compute_context_key()
        return self._context_key

    def _compute_context_key(self) -> str:
        """Fingerprint of everything besides the descriptor that shapes a result.

        Fairness metrics depend on the demographic group arrays, and a
        trained child's accuracy depends on the frozen-prefix weights copied
        from the pre-trained backbone, so both are part of the context: runs
        that differ only in group assignment or backbone pre-training must
        not share cache entries.
        """
        search = self.search
        evaluator = search.evaluator
        # Read from the live pipeline (what actually runs), not the config
        # object -- the two could otherwise drift if a search subclass swaps
        # configurations after construction.
        pipeline = evaluator.pipeline
        backbone_model = search.producer.backbone_model
        backbone_weights = (
            None
            if backbone_model is None
            else {
                name: array_fingerprint(value)
                for name, value in sorted(backbone_model.state_dict().items())
            }
        )
        # Default-valued precision knobs are dropped from the payload so the
        # fingerprints of every pre-existing run (and on-disk cache entry)
        # survive the knobs' introduction; a non-default precision genuinely
        # changes trained results and re-keys the context.  (The float64
        # kernel rewrite itself keeps fingerprints: rewards derive from
        # discrete prediction counts, which the rewrite preserves -- the
        # conv contractions' last-ulp loss drift at large shapes is bounded
        # and tracked by benchmarks/bench_nn.py.)
        training_context = asdict(pipeline.training)
        for knob in ("precision", "inference_batch_size"):
            if training_context.get(knob) is None:
                training_context.pop(knob, None)
        # fingerprint_payload keeps the historical content_fingerprint keys
        # for this JSON-shaped payload, and deterministically freezes any
        # richer objects (custom datasets, injected callables) a subclassed
        # search may have put into its context.
        return fingerprint_payload(
            {
                "training": training_context,
                "reward": asdict(pipeline.reward),
                "bypass_invalid": pipeline.bypass_invalid,
                "device": evaluator.latency_estimator.device.name,
                "resolution": evaluator.latency_estimator.resolution,
                "width_multiplier": search.config.producer.width_multiplier,
                "split_block": search.producer.split_block,
                "backbone_weights": backbone_weights,
                # Gate limits invalidate cached results when they change (a
                # rejected child under a tight budget may train under a loose
                # one); the fidelity ladder deliberately does not -- each
                # stage's budget is part of the per-fidelity cache key, so
                # full-fidelity results are shared across schedules.
                "max_parameters": pipeline.settings.max_parameters,
                "max_storage_mb": pipeline.settings.max_storage_mb,
                "num_classes": search.train_dataset.num_classes,
                "train_data": array_fingerprint(search.train_dataset.images),
                "train_labels": array_fingerprint(search.train_dataset.labels),
                "train_groups": array_fingerprint(search.train_dataset.groups),
                "validation_data": array_fingerprint(search.validation_dataset.images),
                "validation_labels": array_fingerprint(
                    search.validation_dataset.labels
                ),
                "validation_groups": array_fingerprint(
                    search.validation_dataset.groups
                ),
                "group_names": list(search.validation_dataset.group_names),
            }
        )

    def child_cache_key(
        self,
        descriptor: ArchitectureDescriptor,
        fidelity: Optional[FidelityConfig] = None,
    ) -> str:
        """Cache key of one child under this engine's evaluation context.

        Keys are fidelity-aware: a proxy result (reduced epochs or data) and
        a full-fidelity result of the same child never collide.  Full-budget
        stages keep the historical two-part key, so full results are shared
        between staged and single-stage runs of the same configuration.
        """
        return _stage_key(
            combine_fingerprints(descriptor.cache_key(), self.context_key), fidelity
        )

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    # -- checkpoint / resume ------------------------------------------------------
    def restore(self, run_dir: Optional[str] = None) -> int:
        """Load a checkpoint and position the engine to continue from it.

        Returns the next episode index.  Must be called before :meth:`run` on
        a freshly constructed search configured identically to the one that
        wrote the checkpoint.
        """
        directory = run_dir or self.config.run_dir
        if directory is None:
            raise ValueError("restore needs a run directory (config.run_dir or arg)")
        checkpoint = checkpoint_io.load_checkpoint(directory)
        next_episode, history = checkpoint_io.restore_checkpoint(
            checkpoint,
            context_key=self.context_key,
            controller=self.search.controller,
            policy_trainer=self.search.policy_trainer,
            sample_rng=self.search._sample_rng,
            child_rng=self.search._child_rng,
            cache=self.cache,
        )
        self._restored_history = history
        self._restored_seconds = history.total_seconds
        self._next_episode = next_episode
        return next_episode

    @classmethod
    def resume(
        cls, search: FaHaNaSearch, config: Optional[EngineConfig] = None
    ) -> "SearchEngine":
        """Construct an engine and restore the checkpoint in its run directory."""
        engine = cls(search, config)
        engine.restore()
        return engine

    def _write_checkpoint(self, history: SearchHistory, elapsed: float) -> None:
        assert self.config.run_dir is not None
        history.total_seconds = self._restored_seconds + elapsed
        path = checkpoint_io.save_checkpoint(
            self.config.run_dir,
            next_episode=self._next_episode,
            context_key=self.context_key,
            controller=self.search.controller,
            policy_trainer=self.search.policy_trainer,
            sample_rng=self.search._sample_rng,
            child_rng=self.search._child_rng,
            history=history,
            cache=self.cache,
        )
        self.checkpoints_written += 1
        self._emit(
            CHECKPOINT_WRITTEN,
            payload={"path": path, "next_episode": self._next_episode},
        )

    # -- engine-level scheduling ---------------------------------------------------
    @property
    def pipeline(self):
        """The evaluator's staged evaluation pipeline."""
        return self.search.evaluator.pipeline

    @property
    def staged(self) -> bool:
        """True when the pipeline has proxy fidelities (promotion applies)."""
        return self.pipeline.settings.staged

    def _note_reward(self, episode: int, reward: float) -> None:
        """Track the best reward for plateau detection."""
        delta = getattr(self.search.config, "plateau_delta", 0.0)
        if reward > self._best_reward + delta or self._best_episode < 0:
            self._best_reward = max(self._best_reward, reward)
            self._best_episode = episode

    def _plateaued(self) -> bool:
        """True once the best reward stalled for ``plateau_patience`` episodes."""
        patience = getattr(self.search.config, "plateau_patience", None)
        if patience is None or self._next_episode == 0:
            return False
        return self._next_episode - 1 - self._best_episode >= patience

    def _update_wave_size(self, jobs: List[_EpisodeJob], base: int, cap: int) -> None:
        """Adapt the wave size to the cost of the wave that just finished.

        Waves double while at least half their episodes were free -- cheap
        episodes may as well batch up -- and halve back toward the configured
        size once every episode paid for a training run.  "Free" always
        includes gate rejections; cache hits count as free only on
        single-fidelity runs, where wave size cannot change results.  On
        staged runs the wave size shapes promotion cohorts, so the rule must
        read evaluation *outcomes* (identical between a cold run and a warm
        cache replay), never cache state.
        """
        staged = self.staged
        trained = sum(
            1
            for job in jobs
            if job.evaluation.trained and (staged or not job.cache_hit)
        )
        wave = len(jobs)
        previous = self._wave_size
        if trained * 2 <= wave:
            self._wave_size = min(self._wave_size * 2, cap)
        elif trained == wave:
            self._wave_size = max(base, self._wave_size // 2)
        if self._wave_size != previous:
            self._emit(
                WAVE_RESIZED,
                payload={
                    "wave_size": self._wave_size,
                    "previous": previous,
                    "trained": trained,
                },
            )

    # -- the search loop ----------------------------------------------------------
    def run(self, episodes: Optional[int] = None) -> FaHaNaResult:
        """Run (or continue) the search up to ``episodes`` total episodes."""
        search = self.search
        num_episodes = episodes or search.config.episodes
        policy_batch = search.config.policy.batch_episodes
        wave_size = self.config.batch_episodes or policy_batch
        if wave_size > policy_batch:
            # A wave samples all its children before any reward is observed;
            # beyond the policy batch the sequential loop would already have
            # updated the controller, so the runs would silently diverge.
            raise ValueError(
                f"engine batch_episodes ({wave_size}) must not exceed the "
                f"policy-gradient batch_episodes ({policy_batch}); raise "
                "PolicyGradientConfig.batch_episodes to evaluate larger waves"
            )
        adaptive = getattr(search.config, "adaptive_wave", False)
        self._wave_size = wave_size
        staged = self.staged
        if (
            staged
            and wave_size == 1
            and any(f.promote_fraction < 1.0 for f in self.pipeline.fidelities[:-1])
        ):
            # A one-child wave promotes its only valid child every time, so
            # each episode would pay for proxy AND full training -- strictly
            # worse than the single-stage pipeline it is meant to beat.
            raise ValueError(
                "a multi-fidelity ladder needs waves of at least 2 episodes "
                "to promote a strict subset; raise search.policy_batch (and "
                "optionally engine.batch_episodes), or set every "
                "promote_fraction to 1.0 if training all children at every "
                "fidelity is intended"
            )

        if self._restored_history is not None:
            history = self._restored_history
            for record in history.records:
                self._note_reward(record.episode, record.reward)
        else:
            history = SearchHistory(
                space_size=search.producer.space_size(),
                full_space_size=search.producer.full_space_size(),
                frozen_blocks=search.producer.split_block,
                searchable_blocks=len(search.producer.positions),
            )
        self._emit(
            RUN_STARTED,
            payload={
                "backend": self.config.backend,
                "episodes": num_episodes,
                "start_episode": self._next_episode,
                "wave_size": wave_size,
                "cache": self.cache is not None,
                "staged": staged,
                "fidelities": [f.name for f in self.pipeline.fidelities],
            },
        )

        start = time.perf_counter()
        start_episode = self._next_episode
        episodes_since_checkpoint = 0
        shared = (
            search.evaluator
            if self.config.backend == "process" and self.config.share_evaluator
            else None
        )
        pool = create_pool(
            self.config.backend,
            self.config.num_workers,
            shared=shared,
            blas_threads=self.config.blas_threads_per_worker,
            metrics=self.metrics,
            events=self.events.emit,
        )
        try:
            while self._next_episode < num_episodes:
                if (
                    self.stop_token.is_set()
                    and search.policy_trainer.pending_episodes == 0
                ):
                    # A boundary with no pending episodes is exactly a
                    # checkpointable state; with pending episodes the loop
                    # runs further waves (at most one policy batch) first.
                    self.cancelled = True
                    self._emit(
                        RUN_CANCELLED,
                        payload={
                            "episodes_done": self._next_episode,
                            "episodes": num_episodes,
                        },
                    )
                    break
                if self._plateaued():
                    self.early_stopped = True
                    self._emit(
                        EARLY_STOPPED,
                        payload={
                            "episodes_done": self._next_episode,
                            "best_episode": self._best_episode,
                            "best_reward": self._best_reward,
                            "patience": search.config.plateau_patience,
                        },
                    )
                    break
                wave = min(self._wave_size, num_episodes - self._next_episode)
                if adaptive:
                    # Adaptive waves stay aligned to policy-batch boundaries so
                    # resizing never changes when the controller updates.
                    boundary = policy_batch - (self._next_episode % policy_batch)
                    wave = min(wave, boundary)
                wave_start = time.perf_counter()
                with self.tracer.span(
                    "wave", episode=self._next_episode, wave=wave
                ):
                    with self.tracer.span("sample", episode=self._next_episode):
                        jobs = self._sample_wave(wave)
                    with self.tracer.span("evaluate", episode=self._next_episode):
                        self._evaluate_stages(jobs, pool)
                    with self.tracer.span("observe", episode=self._next_episode):
                        for job in jobs:
                            self._observe(job, history)
                self._next_episode += wave
                episodes_since_checkpoint += wave
                self._note_wave_metrics(
                    wave_seconds=time.perf_counter() - wave_start,
                    elapsed=time.perf_counter() - start,
                    start_episode=start_episode,
                )
                self._emit(
                    BATCH_FINISHED,
                    payload={
                        "episodes_done": self._next_episode,
                        "wave": wave,
                        "backend": pool.name,
                    },
                )
                if adaptive:
                    self._update_wave_size(jobs, base=wave_size, cap=policy_batch)
                if (
                    self.config.run_dir is not None
                    and self.config.checkpoint_every > 0
                    and episodes_since_checkpoint >= self.config.checkpoint_every
                    and search.policy_trainer.pending_episodes == 0
                ):
                    with self.tracer.span("checkpoint"):
                        self._write_checkpoint(history, time.perf_counter() - start)
                    episodes_since_checkpoint = 0
        finally:
            pool.close()

        search.policy_trainer.apply_update()
        history.total_seconds = self._restored_seconds + time.perf_counter() - start
        if self.config.run_dir is not None:
            self._write_checkpoint(history, time.perf_counter() - start)
        self._emit(
            RUN_FINISHED,
            payload={
                "episodes": len(history),
                "evaluations_run": self.evaluations_run,
                "evaluations_by_fidelity": dict(self.evaluations_by_fidelity),
                "cache_hits": self.cache_hits,
                "early_stopped": self.early_stopped,
                "cancelled": self.cancelled,
                "total_seconds": history.total_seconds,
            },
        )
        if self._telemetry is not None:
            # Release the line-buffered handle; it reopens on any later event.
            self._telemetry.close()
        return FaHaNaResult(
            history=history,
            best=history.best_record(),
            fairest=history.fairest_record(),
            smallest=history.smallest_record(),
            freezing_analysis=search.producer.analysis,
        )

    # -- wave phases --------------------------------------------------------------
    def _sample_wave(self, wave: int) -> List[_EpisodeJob]:
        """Sample ``wave`` children in strict episode order, building none.

        Each child is described from its decisions, draws its weight-init
        seed from the child-RNG stream -- one draw per sampled child, whether
        it is later built, served from the cache or gate-rejected, so the
        stream stays aligned across cache states and backends -- and, with
        caching on, is fingerprinted once.  Cache lookups, pricing and builds
        happen per fidelity stage in :meth:`_evaluate_stages`.
        """
        search = self.search
        jobs: List[_EpisodeJob] = []
        for offset in range(wave):
            sample = search.controller.sample(rng=search._sample_rng)
            descriptor = search.producer.describe_child(sample.decisions)
            job = _EpisodeJob(
                episode=self._next_episode + offset,
                sample=sample,
                descriptor=descriptor,
                seed=search.producer.child_seed(search._child_rng),
            )
            if self.cache is not None:
                job.cache_key = self.child_cache_key(descriptor)
            jobs.append(job)
        return jobs

    def _evaluate_stages(self, jobs: List[_EpisodeJob], pool: WorkerPool) -> None:
        """Drive one wave through gates and the fidelity ladder.

        The default ladder is a single full-fidelity stage, so a plain run is
        "latency gate + one full training".  Each stage trains the current
        survivors (see :meth:`_run_stage`: cache lookup, then gates, then
        build), then promotes the top ``promote_fraction`` of the wave's
        valid children to the next stage.  Children that stop early keep
        their proxy-stage result as the episode's reward -- the staged
        generalisation of the paper's "price before train" refusal.  Cache
        lookups are per (child, fidelity), so replays skip the training
        without changing any promotion decision.
        """
        stages = self.pipeline.fidelities
        survivors = list(jobs)
        for index, fidelity in enumerate(stages):
            with self.tracer.span(
                f"stage:{fidelity.name}", children=len(survivors)
            ):
                survivors, evaluated = self._run_stage(survivors, fidelity, pool)
            if not survivors:
                break
            self._emit(
                STAGE_FINISHED,
                payload={
                    "stage": fidelity.name,
                    "children": len(survivors),
                    "evaluated": evaluated,
                    "cached": len(survivors) - evaluated,
                },
            )
            for job in survivors:
                job.stages.append(fidelity.name)
            if index == len(stages) - 1:
                break
            with self.tracer.span("promotion"):
                ranked = sorted(
                    survivors, key=lambda job: (-job.evaluation.reward, job.episode)
                )
                eligible = [job for job in ranked if job.evaluation.is_valid]
                # The quota is a fraction of the wave's *valid* children:
                # invalid proxy results can never win, so they neither advance
                # nor pad the promotion budget of the children that can.
                quota = (
                    max(1, math.ceil(len(eligible) * fidelity.promote_fraction))
                    if eligible
                    else 0
                )
                promoted = eligible[:quota]
            self._m_promotions.inc(len(promoted))
            self._emit(
                WAVE_PROMOTED,
                payload={
                    "stage": fidelity.name,
                    "next_stage": stages[index + 1].name,
                    "promoted": [job.episode for job in promoted],
                    "stopped": len(survivors) - len(promoted),
                },
            )
            survivors = promoted

    def _run_stage(
        self,
        jobs: List[_EpisodeJob],
        fidelity: FidelityConfig,
        pool: WorkerPool,
    ) -> Tuple[List[_EpisodeJob], int]:
        """Evaluate one fidelity stage; returns (children past the gates, trainings).

        Every job is looked up in the cache first.  A miss is priced (once
        per job: pricing needs only the descriptor and the offline latency
        table) and a child failing a gate gets the untrained rejection result
        on the spot -- never built, never cached, not counted in
        ``evaluations_run``.  Only the surviving unique misses are built,
        from the seed drawn at sample time, and trained on the pool.  With
        caching on, duplicate children within the wave train once and share
        the result, exactly as they would across waves through the cache;
        with caching off every survivor trains.
        """
        pipeline = self.pipeline
        survivors: List[_EpisodeJob] = []
        unique: List[Tuple[_EpisodeJob, Optional[str]]] = []
        repeats: List[Tuple[_EpisodeJob, str, _EpisodeJob]] = []
        first_by_key: Dict[str, _EpisodeJob] = {}
        for job in jobs:
            key = None if job.cache_key is None else _stage_key(job.cache_key, fidelity)
            cached = self.cache.get(key) if key is not None else None
            if cached is not None:
                self._take_cached(job, cached, key, fidelity)
                survivors.append(job)
                continue
            primary = first_by_key.get(key)
            if primary is not None:
                job.pricing = primary.pricing
            elif job.pricing is None:
                job.pricing = pipeline.price(job.descriptor)
            if not job.pricing.passed and pipeline.bypass_invalid:
                self._reject(job)
                continue
            survivors.append(job)
            if primary is not None:
                repeats.append((job, key, primary))
                continue
            if key is not None:
                first_by_key[key] = job
            unique.append((job, key))
        if unique:
            # Pools that shipped the evaluator at startup get child-only
            # payloads; the worker reads the evaluator from its shared slot.
            evaluator = None if pool.uses_shared else self.search.evaluator
            producer = self.search.producer
            payloads = [
                (
                    evaluator,
                    producer.produce(job.descriptor, seed=job.seed),
                    fidelity.name,
                    job.pricing,
                )
                for job, _key in unique
            ]
            results = pool.map_ordered(_train_payload, payloads)
            for (job, key), ((evaluation, elapsed, started), worker) in zip(
                unique, results
            ):
                job.evaluation = evaluation
                job.cache_hit = False
                job.worker = worker
                job.elapsed_seconds += elapsed
                self.evaluations_run += 1
                self._m_evaluations.labels(fidelity=fidelity.name).inc()
                self.tracer.record(
                    "train",
                    start=started,
                    duration=elapsed,
                    tid=worker,
                    episode=job.episode,
                    fidelity=fidelity.name,
                )
                self.evaluations_by_fidelity[fidelity.name] = (
                    self.evaluations_by_fidelity.get(fidelity.name, 0) + 1
                )
                if key is not None:
                    self.cache.put(key, evaluation)
        for job, key, primary in repeats:
            self._take_cached(job, primary.evaluation, key, fidelity)
        return survivors, len(unique)

    def _take_cached(
        self,
        job: _EpisodeJob,
        evaluation: EvaluationResult,
        key: str,
        fidelity: FidelityConfig,
    ) -> None:
        """Give ``job`` a stage result it did not train for."""
        job.evaluation = evaluation
        job.cache_hit = True
        job.worker = "cache"
        self._emit(
            CACHE_HIT,
            episode=job.episode,
            payload={"key": key, "stage": fidelity.name, "reward": evaluation.reward},
        )

    def _reject(self, job: _EpisodeJob) -> None:
        """Give a gate-failing child the untrained ``INVALID_REWARD`` result."""
        failed = [outcome.gate for outcome in job.pricing.failures()]
        job.evaluation = self.pipeline.rejection_result(job.pricing)
        job.cache_hit = False
        job.worker = "gate"
        job.stages.extend(f"gate:{gate}" for gate in failed)
        self._emit(
            GATE_REJECTED,
            episode=job.episode,
            payload={"gates": failed, "latency_ms": job.pricing.latency_ms},
        )

    def _observe(self, job: _EpisodeJob, history: SearchHistory) -> None:
        """Feed one episode's reward back and record it (episode order)."""
        assert job.evaluation is not None
        evaluation = job.evaluation
        self.search.policy_trainer.observe(job.sample, evaluation.reward)
        self._note_reward(job.episode, evaluation.reward)
        if obs_metrics.enabled():
            result = (
                "cached"
                if job.cache_hit
                else ("trained" if evaluation.trained else "rejected")
            )
            self._m_episodes.labels(result=result).inc()
            self._m_best.set(self._best_reward)
        history.append(
            EpisodeRecord(
                episode=job.episode,
                descriptor=job.descriptor,
                decisions=[spec.describe() for spec in job.descriptor.blocks],
                reward=evaluation.reward,
                accuracy=evaluation.accuracy,
                unfairness=evaluation.unfairness,
                latency_ms=evaluation.latency_ms,
                storage_mb=evaluation.storage_mb,
                num_parameters=evaluation.num_parameters,
                trained=evaluation.trained,
                group_accuracy=evaluation.group_accuracy,
                elapsed_seconds=job.elapsed_seconds,
                cache_hit=job.cache_hit,
                worker=job.worker,
                fidelity=evaluation.fidelity,
                stages=list(job.stages),
            )
        )
        self._emit(
            EPISODE_FINISHED,
            episode=job.episode,
            payload={
                "reward": evaluation.reward,
                "accuracy": evaluation.accuracy,
                "unfairness": evaluation.unfairness,
                "trained": evaluation.trained,
                "cache_hit": job.cache_hit,
                "worker": job.worker,
                "fidelity": evaluation.fidelity,
                "stages": list(job.stages),
            },
        )

    # -- events / observability ---------------------------------------------------
    def _emit(
        self,
        kind: str,
        episode: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.events.emit(EngineEvent(kind=kind, episode=episode, payload=payload or {}))

    def _emit_span(self, payload: Dict[str, Any], episode: Optional[int]) -> None:
        """Tracer sink: one completed span becomes one ``span`` event."""
        self._emit(SPAN, episode=episode, payload=payload)

    def _note_wave_metrics(
        self, wave_seconds: float, elapsed: float, start_episode: int
    ) -> None:
        """Record per-wave instruments and announce a metrics snapshot event.

        The ``metrics-updated`` event carries the handful of aggregates a
        tail wants on its progress line (throughput, cache hit rate), so a
        follower does not need to scrape ``/metrics`` -- or even share the
        process -- to show them.
        """
        if not obs_metrics.enabled():
            return
        self._m_waves.inc()
        self._m_wave_seconds.observe(wave_seconds)
        done = self._next_episode - start_episode
        eps = done / elapsed if elapsed > 0 else 0.0
        self._m_eps.set(eps)
        self._emit(
            METRICS_UPDATED,
            payload={
                "episodes_done": self._next_episode,
                "elapsed_seconds": elapsed,
                "episodes_per_second": eps,
                "cache_hit_rate": (
                    self.cache.hit_rate if self.cache is not None else None
                ),
                "evaluations_run": self.evaluations_run,
            },
        )
