"""Tests for repro.utils: RNG helpers, Pareto extraction, tables, serialization."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.utils.pareto import dominates, pareto_frontier, pareto_points_2d
from repro.utils.rng import derive_seed, new_rng, spawn_rngs
from repro.utils.serialization import (
    arrays_to_bytes,
    load_arrays_bytes,
    load_json,
    save_json,
)
from repro.utils.tabulate import format_table


class TestRng:
    def test_new_rng_from_int_is_deterministic(self):
        assert new_rng(7).integers(0, 100) == new_rng(7).integers(0, 100)

    def test_new_rng_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert new_rng(gen) is gen

    def test_new_rng_none_gives_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)

    def test_spawn_rngs_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_spawn_rngs_deterministic(self):
        first = [g.integers(0, 1000) for g in spawn_rngs(42, 3)]
        second = [g.integers(0, 1000) for g in spawn_rngs(42, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)

    def test_derive_seed_salt_changes_value(self):
        assert derive_seed(5, 1) != derive_seed(5, 2)


class TestPareto:
    def test_dominates_strictly_better(self):
        assert dominates((2, 2), (1, 1), (True, True))

    def test_dominates_equal_is_false(self):
        assert not dominates((1, 1), (1, 1), (True, True))

    def test_dominates_mixed_directions(self):
        # maximise first, minimise second
        assert dominates((2, 1), (1, 2), (True, False))

    def test_dominates_partial_is_false(self):
        assert not dominates((2, 0), (1, 1), (True, True))

    def test_dominates_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2), (True, True))

    def test_frontier_simple(self):
        points = [(1, 1), (2, 2), (3, 0)]
        frontier = pareto_points_2d(points)
        assert (2, 2) in frontier and (3, 0) in frontier and (1, 1) not in frontier

    def test_frontier_preserves_order(self):
        points = [(3, 0), (2, 2), (1, 1)]
        frontier = pareto_points_2d(points)
        assert frontier == [(3, 0), (2, 2)]

    def test_frontier_single_point(self):
        assert pareto_points_2d([(1.0, 1.0)]) == [(1.0, 1.0)]

    def test_frontier_all_identical(self):
        points = [(1, 1)] * 3
        assert len(pareto_points_2d(points)) == 3

    def test_frontier_with_objectives_callable(self):
        items = [{"a": 1, "b": 5}, {"a": 2, "b": 1}]
        frontier = pareto_frontier(
            items, objectives=lambda d: (d["a"], d["b"]), maximise=(True, True)
        )
        assert len(frontier) == 2

    def test_frontier_minimise_both(self):
        points = [(1, 1), (2, 2), (0, 3)]
        frontier = pareto_points_2d(points, maximise_x=False, maximise_y=False)
        assert (2, 2) not in frontier
        assert (1, 1) in frontier and (0, 3) in frontier


class TestTabulate:
    def test_basic_alignment(self):
        table = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_float_formatting(self):
        table = format_table(["v"], [[0.123456]])
        assert "0.1235" in table

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestSerialization:
    def test_arrays_bytes_roundtrip(self):
        state = {"w": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.zeros(3)}
        data = arrays_to_bytes(state)
        loaded = load_arrays_bytes(data)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_allclose(loaded["w"], state["w"])
        # Equal arrays encode to equal bytes, whatever the insertion order.
        assert arrays_to_bytes({"b": np.zeros(3), "w": state["w"].copy()}) == data

    def test_json_roundtrip_with_numpy(self, tmp_path):
        payload = {"array": np.array([1.0, 2.0]), "value": np.float64(3.5), "n": np.int64(2)}
        path = os.path.join(tmp_path, "result.json")
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["array"] == [1.0, 2.0]
        assert loaded["value"] == 3.5
        assert loaded["n"] == 2

    def test_json_roundtrip_dataclass(self, tmp_path):
        from repro.core.reward import RewardConfig

        path = os.path.join(tmp_path, "config.json")
        save_json(path, RewardConfig(alpha=2.0))
        loaded = load_json(path)
        assert loaded["alpha"] == 2.0

    def test_json_nested_structures(self, tmp_path):
        path = os.path.join(tmp_path, "nested.json")
        save_json(path, {"list": [{"x": np.bool_(True)}], "tuple": (1, 2)})
        loaded = load_json(path)
        assert loaded["list"][0]["x"] is True
        assert loaded["tuple"] == [1, 2]
