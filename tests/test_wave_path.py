"""The engine's one wave path: price before build, parity across backends.

A "mixed" search -- a timing constraint that some sampled children meet and
some violate, plus forced repeats within and across waves -- exercises every
branch of the wave: cache hits, intra-wave duplicates, gate rejections and
trainings, single-stage and staged.  Two properties are pinned here:

* **Build after the gate.**  ``BackboneProducer.produce`` runs exactly once
  per unique, gate-passing cache miss per trained fidelity stage; a
  gate-rejected child is never built, and ``evaluations_run`` counts
  trainings only.
* **Parity.**  The history (decisions, descriptors, float64 rewards) of the
  mixed search is pinned by a digest recorded before the wave path was
  unified, and must not move on any backend, with the cache on or off, or
  across a cancel and resume at a wave boundary.  This guards the alignment
  of the child-RNG stream: one draw per sampled child, whatever becomes of
  the child.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.pipeline import FidelityConfig, PipelineSettings
from repro.core.policy import PolicyGradientConfig
from repro.core.producer import BackboneProducer
from repro.engine import EngineConfig, SearchEngine
from repro.engine.engine import StopToken
from repro.engine.events import BATCH_FINISHED
from repro.engine.serde import descriptor_to_dict
from repro.fleet import FleetConfig, FleetSupervisor, install_supervisor, installed_supervisor
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig

# Sits inside the latencies the tiny space's children sample (~275-800 ms):
# roughly two in three children pass.
_TIMING_MS = 295.0
_EPISODES = 16
_POLICY_BATCH = 8
_WAVE = 4

_STAGED = PipelineSettings(
    fidelities=(
        FidelityConfig(name="proxy", epochs=1, data_fraction=0.5, promote_fraction=0.5),
        FidelityConfig(name="full"),
    )
)

# Position within a policy batch -> the earlier position it re-proposes:
# 1 and 5 repeat their wave's previous child (intra-wave duplicates), 4 and
# 6 repeat a child of the batch's first wave (cross-wave cache hits).
_REPEATS = {1: 0, 4: 0, 5: 4, 6: 2}

# History digests of the mixed search, keyed by (staged, cache), recorded
# before gates moved ahead of every build.
_GOLDEN = {
    (False, False): "c76786975bfdab5b8469d183ab1eb2823dced7175d30c003f06d6878dbd29471",
    (False, True): "953a3d11de83ad898f8d215d6f9886ef9180e9e8c98ab7c4ee8a36890c270d5e",
    (True, False): "578226fd1b5e0c741c75e05a0a8e5b7f0b5cc91c30f1fd2620e928362c507ab7",
    (True, True): "a5817fd97f5e13612a633cbba67e4c4e2218c3a3d586965db3cd2c84f32a4bd3",
}


def _mixed_search(tiny_splits, tiny_backbone, staged):
    extra = {"pipeline": _STAGED} if staged else {}
    config = FaHaNaConfig(
        episodes=_EPISODES,
        seed=0,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
            max_searchable=1,
        ),
        policy=PolicyGradientConfig(batch_episodes=_POLICY_BATCH),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
        **extra,
    )
    design = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=_TIMING_MS),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    search = FaHaNaSearch(tiny_splits.train, tiny_splits.validation, design, config)
    # Every call still draws a fresh sample, so the sample-RNG stream is the
    # controller's own; the repeat pattern restarts with each policy batch,
    # which is also where a cancelled run stops and a resumed one restarts.
    original = search.controller.sample
    batch = []

    def sample(rng=None, **kwargs):
        fresh = original(rng=rng, **kwargs)
        if len(batch) == _POLICY_BATCH:
            batch.clear()
        position = len(batch)
        batch.append(batch[_REPEATS[position]] if position in _REPEATS else fresh)
        return batch[-1]

    search.controller.sample = sample
    return search


def _digest(history) -> str:
    rows = [
        {
            "decisions": record.decisions,
            "descriptor": descriptor_to_dict(record.descriptor),
            "reward": float(record.reward).hex(),
        }
        for record in history.records
    ]
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture()
def fleet_supervisor():
    """A fleet with no agents: waves run degraded, through the task wire format."""
    previous = installed_supervisor()
    install_supervisor(FleetSupervisor(FleetConfig(poll_interval=0.01)))
    try:
        yield
    finally:
        install_supervisor(previous)


def _engine_config(backend, cache, **kwargs):
    return EngineConfig(
        backend=backend,
        num_workers=2,
        batch_episodes=_WAVE,
        use_cache=cache,
        **kwargs,
    )


@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("staged", [False, True], ids=["single", "staged"])
class TestMixedSpecParity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "fleet"])
    def test_history_matches_golden(
        self, tiny_splits, tiny_backbone, fleet_supervisor, backend, staged, cache
    ):
        search = _mixed_search(tiny_splits, tiny_backbone, staged)
        result = SearchEngine(search, _engine_config(backend, cache)).run()
        assert len(result.history) == _EPISODES
        assert _digest(result.history) == _GOLDEN[(staged, cache)]

    def test_cancel_and_resume_matches_golden(
        self, tiny_splits, tiny_backbone, tmp_path, staged, cache
    ):
        run_dir = str(tmp_path / "run")
        token = StopToken()
        first = SearchEngine(
            _mixed_search(tiny_splits, tiny_backbone, staged),
            _engine_config("serial", cache, run_dir=run_dir),
            stop_token=token,
        )
        # Requested mid policy batch: the engine finishes the batch, stops
        # at the next wave boundary and leaves a checkpoint.
        first.events.subscribe(lambda event: token.request(), kinds=[BATCH_FINISHED])
        first.run()
        assert first.cancelled
        resumed = SearchEngine.resume(
            _mixed_search(tiny_splits, tiny_backbone, staged),
            _engine_config("serial", cache, run_dir=run_dir),
        )
        assert resumed._next_episode == _POLICY_BATCH
        result = resumed.run()
        assert len(result.history) == _EPISODES
        assert _digest(result.history) == _GOLDEN[(staged, cache)]


def _trained_stages(record):
    return [stage for stage in record.stages if not stage.startswith("gate:")]


@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("staged", [False, True], ids=["single", "staged"])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_rejected_children_are_never_built(
    tiny_splits, tiny_backbone, monkeypatch, backend, staged, cache
):
    builds = []
    original = BackboneProducer.produce

    def counting_produce(self, *args, **kwargs):
        child = original(self, *args, **kwargs)
        builds.append(child.descriptor.cache_key())
        return child

    monkeypatch.setattr(BackboneProducer, "produce", counting_produce)
    search = _mixed_search(tiny_splits, tiny_backbone, staged)
    engine = SearchEngine(search, _engine_config(backend, cache))
    records = engine.run().history.records

    rejected = [record for record in records if not record.trained]
    assert rejected and len(rejected) < len(records)
    trainings = [
        (record.descriptor.cache_key(), stage)
        for record in records
        for stage in _trained_stages(record)
    ]
    if cache:
        # Repeats hit the cache (or share an intra-wave duplicate's run).
        assert len(set(trainings)) < len(trainings)
        expected = len(set(trainings))
    else:
        expected = len(trainings)
    assert len(builds) == expected
    assert engine.evaluations_run == expected
    assert sum(engine.evaluations_by_fidelity.values()) == expected
    assert not {r.descriptor.cache_key() for r in rejected} & set(builds)
    for record in rejected:
        assert record.stages == ["gate:latency"]
        assert record.worker == "gate" and not record.cache_hit


_BLAS_PROBE = r"""
import ctypes, glob, os, sys
import numpy
from repro.engine.workers import limit_blas_threads

root = os.path.dirname(numpy.__file__)
paths = [p for d in (os.path.join(root, "..", "numpy.libs"), os.path.join(root, ".libs"))
         for p in glob.glob(os.path.join(d, "*openblas*"))]
for path in paths:
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if getter is not None and setter is not None:
            setter(2)
            before = getter()
            returned = limit_blas_threads(1)
            print(before, returned, getter())
            sys.exit(0)
print("none")
"""


def test_blas_pin_lands_in_the_loaded_openblas():
    """``limit_blas_threads`` reaches numpy's OpenBLAS, whatever its symbol prefix.

    Runs in a child interpreter: pinning is process-wide, and the suite's
    own kernels must keep their threads.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.split()
    if out == ["none"]:
        pytest.skip("numpy ships no OpenBLAS with a thread-count API")
    before, returned, after = (int(value) for value in out)
    assert before == returned == 2
    assert after == 1
