"""Tests for the declarative run API: RunSpec serialization, the strategy
registry, the ``repro.run`` facade, its pinned search digest and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket

import pytest

import repro
from repro.api import (
    DatasetSpec,
    DesignSpecConfig,
    RunSpec,
    SearchParams,
    available_strategies,
    get_strategy,
    register_strategy,
    spec_schema,
    unregister_strategy,
)
from repro.core.fahana import FaHaNaSearch
from repro.engine import EngineConfig, EvaluationCache, create_pool
from repro.engine.cli import main as cli_main
from repro.engine.serde import descriptor_to_dict
from repro.engine.workers import process_shared


def _tiny_spec(strategy: str = "fahana", episodes: int = 2, **engine_kwargs) -> RunSpec:
    """A spec sized so one run takes a second or two on a laptop CPU."""
    return RunSpec(
        strategy=strategy,
        dataset=DatasetSpec(
            image_size=10,
            samples_per_class=8,
            minority_fraction=0.5,
            seed=123,
            split_seed=0,
        ),
        design=DesignSpecConfig(timing_constraint_ms=1e6),
        search=SearchParams(
            episodes=episodes,
            child_epochs=1,
            child_batch_size=8,
            pretrain_epochs=0,
            max_searchable=2,
            width_multiplier=0.25,
            seed=0,
        ),
        engine=EngineConfig(**engine_kwargs) if engine_kwargs else EngineConfig(),
    )


class TestSpecSerialization:
    @pytest.mark.parametrize("strategy", ["fahana", "monas", "random"])
    def test_dict_roundtrip_per_strategy(self, strategy):
        spec = _tiny_spec(strategy)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_json_and_file_roundtrip(self, tmp_path):
        spec = _tiny_spec("random", use_cache=True, cache_capacity=64)
        assert RunSpec.from_json(spec.to_json()) == spec
        path = spec.to_file(str(tmp_path / "spec.json"))
        assert RunSpec.from_file(path) == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="'bogus'.*allowed keys"):
            RunSpec.from_dict({"strategy": "fahana", "bogus": 1})

    def test_unknown_section_key_rejected_with_allowed_list(self):
        with pytest.raises(ValueError, match="'episodez'.*episodes"):
            RunSpec.from_dict({"search": {"episodez": 5}})

    def test_unknown_strategy_rejected_with_registered_list(self):
        with pytest.raises(ValueError, match="fahana, monas, random"):
            RunSpec.from_dict({"strategy": "quantum-annealing"})

    def test_type_errors_are_located(self):
        with pytest.raises(ValueError, match="search.episodes"):
            RunSpec.from_dict({"search": {"episodes": "twenty"}})

    def test_invalid_values_are_located(self):
        with pytest.raises(ValueError, match="'search' section"):
            RunSpec.from_dict({"search": {"episodes": -3}})
        with pytest.raises(ValueError, match="unknown device"):
            RunSpec.from_dict({"design": {"device": "gameboy"}})

    def test_live_cache_object_is_not_serializable(self):
        spec = _tiny_spec(use_cache=True, cache=EvaluationCache(capacity=4))
        with pytest.raises(ValueError, match="cache_dir"):
            spec.to_dict()

    def test_cache_key_ignores_engine_but_not_search(self):
        base = _tiny_spec()
        other_engine = dataclasses.replace(
            base, engine=EngineConfig(backend="thread", num_workers=4, use_cache=True)
        )
        other_search = dataclasses.replace(
            base, search=dataclasses.replace(base.search, episodes=5)
        )
        assert base.cache_key() == other_engine.cache_key()
        assert base.cache_key() != other_search.cache_key()
        assert base.cache_key() == _tiny_spec().cache_key()

    def test_with_overrides_dotted_paths(self):
        spec = _tiny_spec().with_overrides(
            values={"strategy": "random", "search.episodes": 7, "engine.backend": "thread"}
        )
        assert spec.strategy == "random"
        assert spec.search.episodes == 7
        assert spec.engine.backend == "thread"
        with pytest.raises(ValueError, match="unknown override path"):
            _tiny_spec().with_overrides(values={"nonsense": 1})
        with pytest.raises(ValueError, match="unknown field"):
            _tiny_spec().with_overrides(values={"search.episodez": 1})

    def test_schema_covers_every_section(self):
        sections = {leaf.section for leaf in spec_schema()}
        assert sections == {
            "dataset",
            "design",
            "search",
            "evaluation",
            "compute",
            "engine",
        }
        paths = [leaf.path for leaf in spec_schema()]
        assert "search.episodes" in paths and "engine.backend" in paths
        assert "compute.precision" in paths
        assert "engine.cache" not in paths  # live objects never reach the schema
        assert "evaluation.max_parameters" in paths
        # Lists of objects have no single-flag CLI form.
        assert "evaluation.fidelities" not in paths


class TestRegistry:
    def test_builtins_registered(self):
        assert available_strategies() == [
            "fahana",
            "monas",
            "random",
            "regularized_evolution",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("fahana", lambda *a: None)

    def test_custom_strategy_runs_through_facade(self):
        def build(spec, train, validation, design):
            from repro.api.strategies import _fahana_config

            return FaHaNaSearch(train, validation, design, _fahana_config(spec))

        register_strategy("custom-fahana", build, description="test strategy")
        try:
            spec = dataclasses.replace(_tiny_spec(), strategy="custom-fahana")
            report = repro.run(spec)
            assert len(report.history) == 2
            assert get_strategy("custom-fahana").description == "test strategy"
        finally:
            unregister_strategy("custom-fahana")


# sha256 of the history the removed run_fahana_search() produced for the
# spec in test_spec_file_run_matches_legacy_run_fahana_search, recorded
# before the shim was deleted.
_LEGACY_FAHANA_DIGEST = "abc5714d8705968309528df8e879a5fb21cf58620dc39b6e3a02875d5a7f007a"


def _history_digest(history) -> str:
    payload = {
        "records": [
            {
                "decisions": record.decisions,
                "descriptor": descriptor_to_dict(record.descriptor),
                "reward": float(record.reward).hex(),
            }
            for record in history.records
        ],
        "space": [
            history.space_size,
            history.full_space_size,
            history.frozen_blocks,
            history.searchable_blocks,
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestRunFacade:
    def test_spec_file_run_matches_legacy_run_fahana_search(self, tmp_path):
        """repro.run(from_file(...)) still reproduces the search the removed
        ``run_fahana_search(...)`` entry point ran for this spec: same
        decisions, descriptors, float64 rewards and space sizes."""
        spec = _tiny_spec(episodes=3)
        spec = dataclasses.replace(
            spec, search=dataclasses.replace(spec.search, child_batch_size=32)
        )
        path = spec.to_file(str(tmp_path / "spec.json"))
        report = repro.run(RunSpec.from_file(path))
        assert _history_digest(report.history) == _LEGACY_FAHANA_DIGEST

    def test_random_strategy_runs_and_is_deterministic(self):
        first = repro.run(_tiny_spec("random"))
        second = repro.run(_tiny_spec("random"))
        assert len(first.history) == 2
        assert first.history.reward_trajectory() == second.history.reward_trajectory()
        assert first.strategy == "random"

    def test_random_differs_from_fahana_sampling(self):
        random_run = repro.run(_tiny_spec("random"))
        fahana_run = repro.run(_tiny_spec("fahana"))
        assert [r.decisions for r in random_run.history.records] != [
            r.decisions for r in fahana_run.history.records
        ]

    def test_report_artifacts_and_to_dict(self, tmp_path):
        run_dir = str(tmp_path / "run")
        report = repro.run(_tiny_spec(run_dir=run_dir, use_cache=True))
        assert report.run_dir == run_dir
        assert report.checkpoint_path and report.telemetry_path and report.spec_path
        archived = RunSpec.from_file(report.spec_path)
        assert archived == report.spec
        json.dumps(report.to_dict())  # fully JSON-encodable

    def test_injected_datasets_suppress_spec_archival(self, tiny_splits, tmp_path):
        """A run with injected (e.g. normalised) splits is not what the spec
        describes, so no run_spec.json must be archived as re-launchable."""
        run_dir = str(tmp_path / "run")
        report = repro.run(
            _tiny_spec(run_dir=run_dir),
            train_dataset=tiny_splits.train,
            validation_dataset=tiny_splits.validation,
        )
        assert report.spec_path is None
        assert not (tmp_path / "run" / "run_spec.json").exists()
        assert report.checkpoint_path is not None  # checkpointing still works

    def test_archived_spec_records_effective_engine(self, tmp_path):
        """An explicit engine= override (even with a live cache) is what the
        run_dir archive describes, so the run re-launches from its artifacts."""
        run_dir = str(tmp_path / "run")
        spec = dataclasses.replace(_tiny_spec(), engine=None)
        report = repro.run(
            spec,
            engine=EngineConfig(
                backend="thread",
                run_dir=run_dir,
                use_cache=True,
                cache=EvaluationCache(capacity=16),
            ),
        )
        archived = RunSpec.from_file(report.spec_path)
        assert archived.engine is not None
        assert archived.engine.backend == "thread"
        assert archived.engine.run_dir == run_dir
        assert archived.engine.cache is None  # live object stripped, not crashed on

    def test_unset_engine_section_roundtrips_and_uses_process_default(self):
        from repro.engine import set_default_engine_config

        spec = dataclasses.replace(_tiny_spec(), engine=None)
        assert "engine" not in spec.to_dict()
        assert RunSpec.from_dict(spec.to_dict()).engine is None

        # An unset section follows the process-wide default; an explicit
        # all-default section is honoured verbatim (serial) regardless.
        installed = EngineConfig(use_cache=True, cache=EvaluationCache(capacity=16))
        previous = set_default_engine_config(installed)
        try:
            unset = repro.run(spec)
            assert unset.engine.cache is installed.cache
            explicit = repro.run(dataclasses.replace(spec, engine=EngineConfig()))
            assert explicit.engine.cache is None
        finally:
            set_default_engine_config(previous)

    def test_resume_through_facade(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = _tiny_spec(episodes=3, run_dir=run_dir)
        uninterrupted = repro.run(_tiny_spec(episodes=3))
        partial = dataclasses.replace(
            spec, search=dataclasses.replace(spec.search, episodes=2)
        )
        repro.run(partial)
        resumed = repro.run(spec, resume=True)
        assert resumed.resumed_from == 2
        assert (
            resumed.history.reward_trajectory()
            == uninterrupted.history.reward_trajectory()
        )

    def test_engine_conflict_rejected(self):
        spec = _tiny_spec(backend="thread")
        with pytest.raises(ValueError, match="engine configured twice"):
            repro.run(spec, engine=EngineConfig(backend="serial"))

    def test_dataset_injection_requires_both_splits(self):
        with pytest.raises(ValueError, match="together"):
            repro.run(_tiny_spec(), train_dataset=object())

    def test_bad_spec_argument_type(self):
        with pytest.raises(TypeError, match="RunSpec"):
            repro.run(42)


def _add_to_shared(increment: int) -> int:
    return process_shared() + increment


class TestSharedWorkerState:
    def test_process_pool_ships_shared_object_once(self):
        with create_pool("process", num_workers=2, shared=40) as pool:
            assert pool.uses_shared
            results = pool.map_ordered(_add_to_shared, [1, 2])
        assert [value for value, _ in results] == [41, 42]

    def test_pools_without_shared_are_unchanged(self):
        assert not create_pool("serial").uses_shared
        with create_pool("process", num_workers=1) as pool:
            assert not pool.uses_shared


class TestSpecCli:
    def test_run_subcommand_with_overrides(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec(episodes=2).to_file(spec_path)
        run_dir = str(tmp_path / "run")
        code = cli_main(
            ["run", spec_path, "--engine-run-dir", run_dir, "--search-episodes", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search summary" in out
        assert "episodes=1" in out
        archived = RunSpec.from_file(f"{run_dir}/run_spec.json")
        assert archived.search.episodes == 1
        assert archived.engine.run_dir == run_dir

    def test_run_subcommand_resume(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        run_dir = str(tmp_path / "run")
        _tiny_spec(episodes=2, run_dir=run_dir).to_file(spec_path)
        assert cli_main(["run", spec_path]) == 0
        capsys.readouterr()
        assert cli_main(["run", spec_path, "--resume"]) == 0
        assert "resumed from episode 2" in capsys.readouterr().out

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec().to_file(spec_path)
        assert cli_main(["run", spec_path, "--resume"]) == 2

    def test_validate_subcommand(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec("random").to_file(spec_path)
        assert cli_main(["validate", spec_path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["strategy"] == "random"
        assert "cache key:" in captured.err

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"strategy": "nope"}', encoding="utf-8")
        assert cli_main(["validate", str(bad)]) == 2
        assert "registered strategies" in capsys.readouterr().err

    def test_run_subcommand_without_engine_section(self, tmp_path, capsys):
        """A spec that omits the (optional) engine section must run, not crash."""
        spec_path = str(tmp_path / "spec.json")
        dataclasses.replace(_tiny_spec(episodes=1), engine=None).to_file(spec_path)
        assert cli_main(["run", spec_path]) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out and "episodes=1" in out
        # --resume on an unset engine section errors cleanly, no traceback.
        assert cli_main(["run", spec_path, "--resume"]) == 2

    def test_run_prints_cache_on_for_a_store_url_alone(self, tmp_path, capsys):
        """A store URL caches (the engine builds a cache), so the CLI says so."""
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec(episodes=1).to_file(spec_path)
        assert cli_main(["run", spec_path]) == 0
        assert "cache=off" in capsys.readouterr().out
        # Nothing listens there: the tier degrades and the run still caches.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        assert cli_main(["run", spec_path, "--engine-store-url", url]) == 0
        assert "cache=on" in capsys.readouterr().out
        # cache_dir is the cache's local store root; the old alias is gone.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", spec_path, "--store-root", str(tmp_path / "store")])
        assert exit_info.value.code == 2

    def test_strategies_subcommand(self, capsys):
        assert cli_main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("fahana", "monas", "random"):
            assert name in out

    def test_flat_flags_are_a_usage_error(self, capsys):
        """The flat-flag interface is gone: a subcommand is required."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--episodes", "2"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRootExports:
    def test_lazy_api_aliases(self):
        assert repro.RunSpec is RunSpec
        assert callable(repro.run)
        assert "run" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist
