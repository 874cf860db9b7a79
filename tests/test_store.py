"""Tests for repro.store: the content-addressed artifact store, the
deterministic freezer, the daemon's /store endpoints, degradation behaviour
and the cross-host shared evaluation-cache tier."""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.evaluator import EvaluationResult
from repro.engine import EngineConfig, EvaluationCache, SearchEngine
from repro.engine.cache import SharedCacheTier
from repro.engine.events import CACHE_ENTRY_CORRUPT, STORE_DEGRADED
from repro.engine.serde import history_to_dict
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig
from repro.store import (
    KEY_PATTERN,
    LocalStore,
    RemoteStore,
    StoreError,
    TieredStore,
    UnfreezableError,
    freeze,
    freeze_fingerprint,
    object_key,
)
from repro.store.core import StoreCorruptWrite
from repro.transport import RetryPolicy


def _closed_port_url() -> str:
    """A URL nothing listens on (bind, read the port, close)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


_FAST_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0)


def _result(reward: float = 0.5) -> EvaluationResult:
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


# -- LocalStore ----------------------------------------------------------------------
class TestLocalStore:
    def test_put_get_roundtrip_and_sharded_layout(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"))
        data = b"payload bytes"
        key = store.put(data)
        assert key == hashlib.sha256(data).hexdigest()
        assert KEY_PATTERN.match(key)
        assert store.get(key) == data
        # objects/ab/<62 hex> sharding, atomic final file.
        assert os.path.isfile(
            os.path.join(store.root, "objects", key[:2], key[2:])
        )
        assert store.object_relpath(key) == os.path.join(
            "objects", key[:2], key[2:]
        )

    def test_put_dedupes_by_content(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"))
        assert store.put(b"same") == store.put(b"same")
        assert store.counters["put_new"] == 1
        assert store.counters["put_dup"] == 1
        assert store.stats()["objects"] == 1

    def test_invalid_key_rejected(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"))
        with pytest.raises(StoreError):
            store.get("not-a-key")
        with pytest.raises(StoreError):
            store.put_object("abc", b"data")

    def test_put_object_verifies_hash(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"))
        with pytest.raises(StoreCorruptWrite):
            store.put_object("0" * 64, b"mismatching bytes")
        assert store.stats()["objects"] == 0

    def test_corrupt_object_self_heals(self, tmp_path):
        corrupt_seen = []
        store = LocalStore(
            str(tmp_path / "store"),
            on_corrupt=lambda key, path: corrupt_seen.append(key),
        )
        key = store.put(b"good bytes")
        path = store.object_path(key)
        with open(path, "wb") as handle:
            handle.write(b"bit rot")
        # The read verifies sha256, deletes the liar and reports a miss...
        assert store.get(key) is None
        assert not os.path.exists(path)
        assert corrupt_seen == [key]
        assert store.counters["get_corrupt"] == 1
        # ...so a refetched copy can land cleanly.
        assert store.put(b"good bytes") == key
        assert store.get(key) == b"good bytes"

    def test_lru_eviction_respects_budget_and_pins(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"), max_bytes=64)
        pinned = store.put(b"p" * 24)
        store.pin(pinned)
        first = store.put(b"a" * 24)
        second = store.put(b"b" * 24)  # 72 bytes total -> evict oldest unpinned
        assert store.get(pinned) is not None
        assert store.get(first) is None
        assert store.get(second) is not None
        assert store.counters["evictions"] == 1
        store.unpin(pinned)

    def test_refs_roundtrip_and_torn_ref_recovery(self, tmp_path):
        store = LocalStore(str(tmp_path / "store"))
        key = store.put(b"target")
        name = "f" * 64
        store.set_ref(name, key)
        assert store.get_ref(name) == key
        # A torn ref file is deleted and reported as a miss.
        ref_path = os.path.join(store.root, "refs", name[:2], name[2:])
        with open(ref_path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert store.get_ref(name) is None
        assert not os.path.exists(ref_path)

    def test_reopened_store_sees_prior_objects(self, tmp_path):
        root = str(tmp_path / "store")
        key = LocalStore(root).put(b"persisted")
        reopened = LocalStore(root)
        assert reopened.get(key) == b"persisted"
        assert reopened.stats()["objects"] == 1


# -- daemon /store endpoints ---------------------------------------------------------
@pytest.fixture(scope="module")
def store_service():
    from repro.service.daemon import RunService

    tmp = tempfile.mkdtemp(prefix="repro-store-daemon-")
    service = RunService(runs_root=os.path.join(tmp, "runs")).start()
    yield service
    service.shutdown()


class TestRemoteStore:
    def test_roundtrip_against_daemon(self, store_service):
        remote = RemoteStore(store_service.url)
        data = b"over the wire"
        key = remote.put(data)
        assert key == object_key(data)
        assert remote.get(key) == data
        assert remote.has(key)
        assert not remote.has("1" * 64)
        present = remote.has_many([key, "2" * 64])
        assert present == {key: True, "2" * 64: False}

    def test_refs_and_stats(self, store_service):
        remote = RemoteStore(store_service.url)
        key = remote.put(b"ref target")
        name = "e" * 64
        remote.set_ref(name, key)
        assert remote.get_ref(name) == key
        assert remote.get_ref("d" * 64) is None
        stats = remote.stats()
        assert stats["objects"] >= 1
        assert set(stats["puts"]) == {"new", "dup"}

    def test_bad_keys_are_structured_400s(self, store_service):
        remote = RemoteStore(store_service.url)
        with pytest.raises(StoreError):
            remote.put_object("nothex", b"x")
        with pytest.raises(StoreError):
            remote.put_object("3" * 64, b"hash mismatch")

    def test_miss_is_none_not_an_error(self, store_service):
        remote = RemoteStore(store_service.url)
        assert remote.get("4" * 64) is None


# -- degradation ---------------------------------------------------------------------
class TestTieredStoreDegradation:
    def test_unreachable_remote_degrades_once_and_stays_local(self, tmp_path):
        events = []
        tiered = TieredStore(
            local=LocalStore(str(tmp_path / "local")),
            remote=RemoteStore(_closed_port_url(), timeout=0.5, retry=_FAST_RETRY),
            on_degraded=events.append,
        )
        key = tiered.put(b"survives locally")  # remote put fails -> degrade
        assert tiered.degraded
        assert tiered.get(key) == b"survives locally"
        # Later operations never touch the network again; the callback
        # fired exactly once.
        tiered.put(b"more data")
        tiered.get_ref("a" * 64)
        assert len(events) == 1
        assert events[0]["op"] == "put"
        assert "error" in events[0]

    def test_engine_run_survives_unreachable_store_url(
        self, tiny_splits, tiny_backbone
    ):
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes=2),
            EngineConfig(use_cache=True, store_url=_closed_port_url()),
        )
        kinds = []
        engine.events.subscribe(lambda e: kinds.append(e.kind))
        result = engine.run()
        # The run finished normally and announced the degradation once.
        assert len(result.history.records) == 2
        assert kinds.count(STORE_DEGRADED) == 1


# -- evaluation-cache corruption tolerance -------------------------------------------
def _disk_cache(directory: str) -> EvaluationCache:
    """An evaluation cache over a ``cache_dir`` store root (the engine's wiring)."""
    return EvaluationCache(
        capacity=8, tier=SharedCacheTier(TieredStore(local=LocalStore(directory)))
    )


class TestCacheCorruptionTolerance:
    def test_corrupt_disk_entry_is_dropped_and_recomputed(self, tmp_path):
        directory = str(tmp_path / "cache")
        key = "fe" * 32
        cache = _disk_cache(directory)
        cache.put(key, _result(0.9))

        events = []
        fresh = _disk_cache(directory)
        fresh.bind_events(lambda kind, payload: events.append((kind, payload)))
        store = LocalStore(directory)
        entry_path = store.object_path(store.get_ref(key))
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert fresh.get(key) is None  # miss, not a crash
        assert not os.path.exists(entry_path)  # broken object deleted
        assert len(events) == 1 and events[0][0] == CACHE_ENTRY_CORRUPT
        assert events[0][1]["key"] == key
        # The recomputed result persists cleanly.
        fresh.put(key, _result(0.9))
        assert fresh.get(key).reward == 0.9
        assert _disk_cache(directory).get(key).reward == 0.9


# -- the shared evaluation-cache tier ------------------------------------------------
def _search(tiny_splits, tiny_backbone, episodes=3, seed=0):
    config = FaHaNaConfig(
        episodes=episodes,
        seed=seed,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
        ),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
    )
    spec = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=1e6),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, spec, config)


def _strip_provenance(history) -> dict:
    """A history payload minus wall-clock and who-computed-it provenance."""
    payload = history_to_dict(history)
    payload.pop("total_seconds", None)
    for record in payload["records"]:
        for field in ("cache_hit", "worker", "elapsed_seconds"):
            record.pop(field, None)
    return payload


class TestSharedCacheTier:
    def test_negative_lookup_suppression(self, tmp_path):
        tier = SharedCacheTier(
            TieredStore(local=LocalStore(str(tmp_path / "store")))
        )
        assert tier.fetch("ab" * 32) is None
        assert tier.fetch("ab" * 32) is None  # suppressed, no second lookup
        assert tier.misses == 1 and tier.suppressed == 1
        # Publishing lifts the suppression.
        tier.publish("ab" * 32, _result(0.4))
        fetched = tier.fetch("ab" * 32)
        assert fetched is not None and fetched.reward == 0.4

    def test_two_engines_share_one_daemon_train_exactly_once(
        self, tiny_splits, tiny_backbone, store_service
    ):
        episodes = 3
        first = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, store_url=store_service.url),
        )
        result_a = first.run()
        assert first.evaluations_run > 0
        puts_after_first = store_service.store.stats()["puts"]["new"]
        assert puts_after_first >= 1  # the tier holds every unique result

        # A second engine (fresh caches, same daemon) replays the same
        # seeded search: every unique (fingerprint, fidelity) was already
        # trained fleet-wide, so it must train nothing...
        second = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, store_url=store_service.url),
        )
        result_b = second.run()
        assert second.evaluations_run == 0
        assert second.cache.remote_hits > 0
        # ...and publish nothing: the daemon's new-object counter is frozen.
        assert store_service.store.stats()["puts"]["new"] == puts_after_first

        # Remote-hit reports are bit-for-bit the locally computed ones
        # (only the per-record provenance fields may differ).
        assert json.dumps(
            _strip_provenance(result_b.history), sort_keys=True
        ) == json.dumps(_strip_provenance(result_a.history), sort_keys=True)

    def test_remote_hits_round_trip_through_disk_cache(
        self, tiny_splits, tiny_backbone, store_service, tmp_path
    ):
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes=2, seed=7),
            EngineConfig(
                use_cache=True,
                store_url=store_service.url,
                cache_dir=str(tmp_path / "disk-cache"),
            ),
        )
        engine.run()
        # Everything the engine computed is on the shared tier AND in the
        # local disk cache (write-through on both layers).
        assert engine.cache.tier is not None
        assert engine.cache.tier.publishes == engine.evaluations_run
        assert len(os.listdir(str(tmp_path / "disk-cache"))) > 0


# -- freeze --------------------------------------------------------------------------
class TestFreeze:
    def test_dict_and_set_order_invariance(self):
        a = {"x": 1, "y": {2, 3, 1}, "z": [1.5, 2.5]}
        b = {"z": [1.5, 2.5], "y": {1, 3, 2}, "x": 1}
        assert freeze(a) == freeze(b)
        assert freeze_fingerprint(a) == freeze_fingerprint(b)

    def test_value_changes_change_the_fingerprint(self):
        base = {"x": 1, "arr": np.arange(4)}
        assert freeze_fingerprint(base) != freeze_fingerprint(
            {"x": 2, "arr": np.arange(4)}
        )
        assert freeze_fingerprint(base) != freeze_fingerprint(
            {"x": 1, "arr": np.arange(5)}
        )

    def test_golden_stability_across_processes(self):
        """The fingerprint is process-invariant (no id()/hash-seed leakage)."""
        program = (
            "from repro.store import freeze_fingerprint\n"
            "import numpy as np\n"
            "payload = {'b': [1, 2.5, 'three'], 'a': {'nested': {4, 5}},\n"
            "           'arr': np.arange(6, dtype=np.float64)}\n"
            "print(freeze_fingerprint(payload))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        digests = set()
        for hash_seed in ("1", "271828"):
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert KEY_PATTERN.match(digests.pop())

    def test_function_identity_is_code_not_address(self):
        def make(scale):
            def score(x):
                return x * scale

            return score

        assert freeze(make(2)) == freeze(make(2))
        assert freeze(make(2)) != freeze(make(3))  # closure state differs

    def test_custom_freeze_hook(self):
        class WithHook:
            def __init__(self, big, label):
                self.big = big
                self.label = label

            def __freeze__(self):
                return {"label": self.label}

        a = WithHook(big=object(), label="same")
        b = WithHook(big=object(), label="same")
        assert freeze(a) == freeze(b)
        assert freeze(a) != freeze(WithHook(big=object(), label="other"))

    def test_freeze_exempt_attribute(self):
        class Stateful:
            FREEZE_EXEMPT = ("_scratch",)

            def __init__(self, value, scratch):
                self.value = value
                self._scratch = scratch

        assert freeze(Stateful(1, "x")) == freeze(Stateful(1, "y"))
        assert freeze(Stateful(1, "x")) != freeze(Stateful(2, "x"))

    def test_cycles_freeze_deterministically(self):
        a: dict = {"name": "a"}
        a["self"] = a
        b: dict = {"name": "a"}
        b["self"] = b
        assert freeze(a) == freeze(b)

    def test_unfreezable_reports_the_path(self, tmp_path):
        handle = open(tmp_path / "f.txt", "w")
        try:
            with pytest.raises(UnfreezableError) as info:
                freeze({"outer": [{"stream": handle}]})
            assert "outer" in str(info.value)
            assert "stream" in str(info.value)
        finally:
            handle.close()

    def test_generators_and_locks_are_unfreezable(self):
        import threading

        with pytest.raises(UnfreezableError):
            freeze((x for x in range(3)))
        with pytest.raises(UnfreezableError):
            freeze({"lock": threading.Lock()})
