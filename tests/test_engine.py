"""Tests for the engine subsystem: cache keys, memoization, worker pools,
deterministic parallel execution and checkpoint/resume."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

import numpy as np
import pytest

import repro
from repro.api import DatasetSpec, RunSpec, SearchParams
from repro.blocks.spec import BlockSpec, ClassifierSpec, StemSpec
from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.evaluator import EvaluationResult
from repro.core.policy import PolicyGradientConfig
from repro.engine import (
    EngineConfig,
    EvaluationCache,
    SearchEngine,
    create_pool,
    has_checkpoint,
    resolve_engine_config,
    set_default_engine_config,
)
from repro.engine import checkpoint as checkpoint_module
from repro.engine.cache import SharedCacheTier
from repro.engine.cli import main as cli_main
from repro.engine.serde import descriptor_from_dict, descriptor_to_dict
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig
from repro.store import LocalStore, TieredStore
from repro.zoo.descriptors import ArchitectureDescriptor, HeadSpec


def _make_descriptor(kernel: int = 3, name: str = "net") -> ArchitectureDescriptor:
    return ArchitectureDescriptor(
        name=name,
        stem=StemSpec(ch_in=3, ch_out=8),
        blocks=(BlockSpec("DB", 8, 16, 8, kernel=kernel),),
        head=HeadSpec(8, 16),
        classifier=ClassifierSpec(16, 5),
    )


def _make_result(reward: float = 0.5) -> EvaluationResult:
    return EvaluationResult(
        latency_ms=10.0,
        storage_mb=0.1,
        num_parameters=1000,
        trained=True,
        accuracy=0.8,
        unfairness=0.3,
        group_accuracy={"light": 0.9, "dark": 0.6},
        reward=reward,
        meets_timing=True,
        meets_accuracy=True,
        train_seconds=1.0,
    )


class TestCacheKey:
    def test_deterministic_across_instances(self):
        assert _make_descriptor().cache_key() == _make_descriptor().cache_key()

    def test_name_and_family_do_not_matter(self):
        a = _make_descriptor(name="a")
        b = _make_descriptor(name="b")
        assert a.cache_key() == b.cache_key()

    def test_structural_change_changes_key(self):
        assert _make_descriptor(kernel=3).cache_key() != _make_descriptor(kernel=5).cache_key()

    def test_block_spec_key_sensitivity(self):
        base = BlockSpec("DB", 8, 16, 8)
        assert base.cache_key() == BlockSpec("DB", 8, 16, 8).cache_key()
        assert base.cache_key() != BlockSpec("DB", 8, 32, 8).cache_key()
        assert base.cache_key() != BlockSpec("CB", 8, 16, 8).cache_key()

    def test_no_collisions_across_search_space_corner(self):
        # A small combinatorial sweep: all keys must be distinct.
        keys = set()
        count = 0
        for block_type in ("DB", "RB", "CB"):
            for kernel in (3, 5):
                for ch_mid in (16, 32):
                    for ch_out in (8, 24):
                        spec = BlockSpec(block_type, 8, ch_mid, ch_out, kernel=kernel)
                        keys.add(spec.cache_key())
                        count += 1
        assert len(keys) == count

    def test_descriptor_serde_roundtrip(self):
        descriptor = _make_descriptor(kernel=5)
        rebuilt = descriptor_from_dict(descriptor_to_dict(descriptor))
        assert rebuilt == descriptor
        assert rebuilt.cache_key() == descriptor.cache_key()


class TestEvaluationCache:
    def test_miss_then_hit(self):
        cache = EvaluationCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", _make_result())
        assert cache.get("k").reward == 0.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EvaluationCache(capacity=2)
        cache.put("a", _make_result(0.1))
        cache.put("b", _make_result(0.2))
        cache.get("a")  # refresh a; b becomes the eviction candidate
        cache.put("c", _make_result(0.3))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_disk_persistence_roundtrip(self, tmp_path):
        directory = str(tmp_path / "cache")

        def disk_cache() -> EvaluationCache:
            tier = SharedCacheTier(TieredStore(local=LocalStore(directory)))
            return EvaluationCache(capacity=4, tier=tier)

        key = "de" * 32
        disk_cache().put(key, _make_result(0.7))
        # A second cache over the same directory serves the entry from disk.
        entry = disk_cache().get(key)
        assert entry is not None
        assert entry.reward == pytest.approx(0.7)
        assert entry.group_accuracy == {"light": 0.9, "dark": 0.6}

    def test_snapshot_restore(self):
        cache = EvaluationCache(capacity=4)
        cache.put("a", _make_result(0.1))
        cache.put("b", _make_result(0.2))
        snapshot = cache.snapshot()
        other = EvaluationCache(capacity=4)
        other.restore(snapshot)
        assert other.get("a").reward == pytest.approx(0.1)
        assert other.get("b").reward == pytest.approx(0.2)


def _square(x: int) -> int:
    return x * x


class TestWorkerPools:
    def test_serial_pool_order_and_label(self):
        pool = create_pool("serial")
        results = pool.map_ordered(_square, [1, 2, 3])
        assert [value for value, _ in results] == [1, 4, 9]
        assert all(worker == "serial-0" for _, worker in results)

    def test_thread_pool_preserves_submission_order(self):
        def slow_square(x: int) -> int:
            time.sleep(0.02 if x % 2 == 0 else 0.0)  # jitter the completion order
            return x * x

        with create_pool("thread", num_workers=3) as pool:
            results = pool.map_ordered(slow_square, list(range(6)))
        assert [value for value, _ in results] == [x * x for x in range(6)]
        assert all("engine-worker" in worker for _, worker in results)

    def test_process_pool_roundtrip(self):
        with create_pool("process", num_workers=2) as pool:
            results = pool.map_ordered(_square, [2, 3])
        assert [value for value, _ in results] == [4, 9]
        assert all(worker.startswith("process-") for _, worker in results)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_pool("quantum")


def _search(tiny_splits, tiny_backbone, episodes=4, policy_batch=1, seed=0):
    config = FaHaNaConfig(
        episodes=episodes,
        seed=seed,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
        ),
        policy=PolicyGradientConfig(batch_episodes=policy_batch),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
    )
    spec = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=1e6),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, spec, config)


def _history_digest(history) -> str:
    """SHA-256 of every episode's decisions and exact float64 reward."""
    rows = [[r.decisions, float(r.reward).hex()] for r in history.records]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def _reference_sequential_rewards(search, episodes):
    """The seed repository's original loop, inlined as the parity reference."""
    rewards = []
    for _ in range(episodes):
        sample = search.controller.sample(rng=search._sample_rng)
        child = search.producer.produce(sample.decisions, rng=search._child_rng)
        evaluation = search.evaluator.evaluate(child)
        search.policy_trainer.observe(sample, evaluation.reward)
        rewards.append(evaluation.reward)
    search.policy_trainer.apply_update()
    return rewards


class TestEngineDeterminism:
    def test_thread_backend_reproduces_sequential_rewards(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 4
        reference = _reference_sequential_rewards(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch), episodes
        )
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="thread", num_workers=2, batch_episodes=batch),
        )
        result = engine.run()
        assert result.history.reward_trajectory() == reference
        workers = {r.worker for r in result.history.records}
        assert all("engine-worker" in w for w in workers)

    def test_serial_and_thread_backends_equivalent(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 2
        serial = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="serial", batch_episodes=batch),
        ).run()
        threaded = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="thread", num_workers=2, batch_episodes=batch),
        ).run()
        assert serial.history.reward_trajectory() == threaded.history.reward_trajectory()
        assert [r.decisions for r in serial.history.records] == [
            r.decisions for r in threaded.history.records
        ]
        assert [r.descriptor for r in serial.history.records] == [
            r.descriptor for r in threaded.history.records
        ]

    def test_fahana_run_still_matches_reference_loop(self, tiny_splits, tiny_backbone):
        episodes = 3
        reference = _reference_sequential_rewards(
            _search(tiny_splits, tiny_backbone, episodes), episodes
        )
        result = _search(tiny_splits, tiny_backbone, episodes).run()
        assert result.history.reward_trajectory() == reference


class TestEngineCache:
    def test_warm_cache_skips_training(self, tiny_splits, tiny_backbone):
        episodes = 3
        cache = EvaluationCache(capacity=64)
        cold = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, cache=cache),
        )
        cold_result = cold.run()
        assert cold.evaluations_run > 0

        # An identically seeded search replays the same descriptors: every
        # episode must come from the cache, with no training at all.
        warm = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, cache=cache),
        )
        warm_result = warm.run()
        assert warm.evaluations_run == 0
        assert all(record.cache_hit for record in warm_result.history.records)
        assert all(record.worker == "cache" for record in warm_result.history.records)
        assert (
            warm_result.history.reward_trajectory()
            == cold_result.history.reward_trajectory()
        )
        # Provenance: the cold run trained, the warm run did not re-train.
        assert any(r.trained and not r.cache_hit for r in cold_result.history.records)

    def test_cache_events_emitted(self, tiny_splits, tiny_backbone):
        cache = EvaluationCache(capacity=64)
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2),
            EngineConfig(use_cache=True, cache=cache),
        ).run()
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, 2),
            EngineConfig(use_cache=True, cache=cache),
        )
        seen = []
        engine.events.subscribe(lambda e: seen.append(e.kind), kinds=["cache-hit"])
        engine.run()
        assert seen == ["cache-hit", "cache-hit"]

    def test_context_changes_cache_key(self, tiny_splits, tiny_backbone):
        descriptor = _make_descriptor()
        engine_a = SearchEngine(
            _search(tiny_splits, tiny_backbone, 1), EngineConfig(use_cache=True)
        )
        # A different timing constraint is a different evaluation context.
        other = _search(tiny_splits, tiny_backbone, 1)
        other.evaluator.config.reward = dataclasses.replace(
            other.evaluator.config.reward, timing_constraint_ms=123.0
        )
        engine_b = SearchEngine(other, EngineConfig(use_cache=True))
        assert engine_a.child_cache_key(descriptor) != engine_b.child_cache_key(descriptor)

    def test_group_labels_are_part_of_the_context(self, tiny_splits, tiny_backbone):
        from repro.data.dataset import GroupedDataset

        descriptor = _make_descriptor()
        engine_a = SearchEngine(
            _search(tiny_splits, tiny_backbone, 1), EngineConfig(use_cache=True)
        )
        # Same images and labels, different demographic group assignment:
        # unfairness (and hence reward) would differ, so the key must too.
        regrouped = _search(tiny_splits, tiny_backbone, 1)
        validation = regrouped.validation_dataset
        regrouped.validation_dataset = GroupedDataset(
            images=validation.images,
            labels=validation.labels,
            groups=1 - validation.groups,
            group_names=validation.group_names,
        )
        engine_b = SearchEngine(regrouped, EngineConfig(use_cache=True))
        assert engine_a.child_cache_key(descriptor) != engine_b.child_cache_key(descriptor)

    def test_intra_wave_duplicates_train_once(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone, 2, policy_batch=2)
        # Force the controller to propose the same child twice in one wave.
        original = search.controller.sample
        memo = {}

        def duplicated_sample(rng=None, **kwargs):
            if "sample" not in memo:
                memo["sample"] = original(rng=rng, **kwargs)
            return memo["sample"]

        search.controller.sample = duplicated_sample
        engine = SearchEngine(search, EngineConfig(use_cache=True, batch_episodes=2))
        result = engine.run()
        assert engine.evaluations_run == 1
        records = result.history.records
        assert not records[0].cache_hit and records[1].cache_hit
        assert records[0].reward == records[1].reward

    def test_context_key_is_lazy(self, tiny_splits, tiny_backbone):
        engine = SearchEngine(_search(tiny_splits, tiny_backbone, 1), EngineConfig())
        assert engine._context_key is None  # nothing hashed on the no-cache path
        assert engine.context_key == engine.context_key  # computed once on demand
        assert engine._context_key is not None

    def test_backbone_pretraining_is_part_of_the_context(self, tiny_splits, tiny_backbone):
        descriptor = _make_descriptor()
        keys = []
        for pretrain_epochs in (1, 2):
            config = FaHaNaConfig(
                episodes=1,
                seed=0,
                producer=ProducerConfig(
                    backbone=tiny_backbone,
                    freeze=True,
                    pretrain_epochs=pretrain_epochs,
                    width_multiplier=0.5,
                ),
                child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
            )
            search = FaHaNaSearch(tiny_splits.train, tiny_splits.validation, None, config)
            engine = SearchEngine(search, EngineConfig(use_cache=True))
            keys.append(engine.child_cache_key(descriptor))
        # Different frozen-prefix weights -> different evaluation context.
        assert keys[0] != keys[1]


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        total, cut = 5, 3

        uninterrupted = SearchEngine(
            _search(tiny_splits, tiny_backbone, total), EngineConfig()
        ).run()

        first = SearchEngine(
            _search(tiny_splits, tiny_backbone, total),
            EngineConfig(run_dir=run_dir),
        )
        first.run(cut)
        assert has_checkpoint(run_dir)

        resumed_engine = SearchEngine.resume(
            _search(tiny_splits, tiny_backbone, total),
            EngineConfig(run_dir=run_dir),
        )
        assert resumed_engine._next_episode == cut
        resumed = resumed_engine.run(total)

        assert len(resumed.history) == total
        assert (
            resumed.history.reward_trajectory()
            == uninterrupted.history.reward_trajectory()
        )
        assert [r.decisions for r in resumed.history.records] == [
            r.decisions for r in uninterrupted.history.records
        ]
        assert [r.descriptor for r in resumed.history.records] == [
            r.descriptor for r in uninterrupted.history.records
        ]

    @pytest.mark.parametrize("fault", ["before-encoding", "mid-write"])
    def test_checkpoint_killed_mid_write_resumes_bit_for_bit(
        self, tiny_splits, tiny_backbone, tmp_path, monkeypatch, fault
    ):
        """A run dying inside a checkpoint write resumes from the previous one.

        The episode-8 checkpoint write fails either before its JSON encoder
        starts or part-way through the file, as if the process died there.
        The episode-4 checkpoint must survive whole -- no controller or
        optimizer state from the failed write may leak into it -- so the
        resumed search replays episodes 4..8 exactly.
        """
        run_dir = str(tmp_path / "run")
        total = 8
        straight_search = _search(tiny_splits, tiny_backbone, total)
        straight = SearchEngine(straight_search, EngineConfig()).run()

        real_save_json = checkpoint_module.save_json

        def dies_in_write(path, payload):
            if payload.get("next_episode") == total:
                if fault == "before-encoding":
                    raise TypeError("killed before the checkpoint JSON")
                # Sorted last, so the encoder has streamed everything else.
                payload = dict(payload, zz_unserialisable=object())
            real_save_json(path, payload)

        monkeypatch.setattr(checkpoint_module, "save_json", dies_in_write)
        killed = SearchEngine(
            _search(tiny_splits, tiny_backbone, total),
            EngineConfig(run_dir=run_dir, checkpoint_every=4),
        )
        with pytest.raises(TypeError):
            killed.run()
        monkeypatch.setattr(checkpoint_module, "save_json", real_save_json)

        resumed_search = _search(tiny_splits, tiny_backbone, total)
        resumed_engine = SearchEngine.resume(
            resumed_search, EngineConfig(run_dir=run_dir, checkpoint_every=4)
        )
        assert resumed_engine._next_episode == 4
        resumed = resumed_engine.run()
        assert _history_digest(resumed.history) == _history_digest(straight.history)
        for got, want in zip(
            resumed_search.controller.parameters(),
            straight_search.controller.parameters(),
        ):
            np.testing.assert_array_equal(got.data, want.data)
        # One checkpoint file, and the failed write left no temp file behind.
        assert sorted(os.listdir(run_dir)) == ["checkpoint.json", "telemetry.jsonl"]

    def test_version_1_checkpoint_is_refused(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "checkpoint.json"), "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "next_episode": 2}, handle)
        with pytest.raises(ValueError, match="version-1 checkpoint .* cannot be resumed"):
            SearchEngine.resume(
                _search(tiny_splits, tiny_backbone, 2), EngineConfig(run_dir=run_dir)
            )

    def test_restore_rejects_different_context(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2), EngineConfig(run_dir=run_dir)
        ).run()
        other = _search(tiny_splits, tiny_backbone, 2)
        other.evaluator.config.reward = dataclasses.replace(
            other.evaluator.config.reward, timing_constraint_ms=123.0
        )
        engine = SearchEngine(other, EngineConfig(run_dir=run_dir))
        with pytest.raises(ValueError):
            engine.restore()

    def test_telemetry_written(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2), EngineConfig(run_dir=run_dir)
        ).run()
        lines = [
            json.loads(line)
            for line in open(os.path.join(run_dir, "telemetry.jsonl"), encoding="utf-8")
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-finished"
        assert kinds.count("episode-finished") == 2
        assert "checkpoint-written" in kinds


class TestEngineConfigResolution:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")
        with pytest.raises(ValueError):
            EngineConfig(num_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(batch_episodes=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_every=-1)

    def test_wave_larger_than_policy_batch_rejected(self, tiny_splits, tiny_backbone):
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, 4, policy_batch=1),
            EngineConfig(batch_episodes=4),
        )
        with pytest.raises(ValueError, match="batch_episodes"):
            engine.run()

    def test_default_config_installation(self):
        installed = EngineConfig(backend="thread", num_workers=3)
        previous = set_default_engine_config(installed)
        try:
            assert resolve_engine_config() is installed
            explicit = EngineConfig()
            assert resolve_engine_config(explicit) is explicit
        finally:
            set_default_engine_config(previous)
        assert resolve_engine_config().backend == "serial"


class TestRunEngineSearch:
    def test_explicit_engine_config_is_honored(self, tiny_splits, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = RunSpec(
            search=SearchParams(
                episodes=1,
                backbone="MobileNetV2",
                pretrain_epochs=0,
                child_epochs=1,
                max_searchable=2,
                width_multiplier=0.25,
                seed=0,
            )
        )
        report = repro.run(
            spec,
            engine=EngineConfig(run_dir=run_dir, use_cache=True),
            train_dataset=tiny_splits.train,
            validation_dataset=tiny_splits.validation,
        )
        assert len(report.history) == 1
        assert report.engine.config.run_dir == run_dir
        assert has_checkpoint(run_dir)


class TestCli:
    def test_cli_smoke_run_and_resume(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        spec_path = RunSpec(
            dataset=DatasetSpec(image_size=10, samples_per_class=8),
            search=SearchParams(
                episodes=2,
                child_epochs=1,
                pretrain_epochs=0,
                max_searchable=2,
                width_multiplier=0.25,
                policy_batch=1,
            ),
        ).to_file(str(tmp_path / "spec.json"))
        args = ["run", spec_path, "--engine-run-dir", run_dir]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "search summary" in out
        assert has_checkpoint(run_dir)
        # Resume continues (and immediately finishes) the completed run.
        assert cli_main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from episode 2" in out

    def test_cli_resume_without_checkpoint_fails(self, tmp_path, capsys):
        args = ["run", "--engine-run-dir", str(tmp_path / "nope"), "--resume"]
        assert cli_main(args) == 2
