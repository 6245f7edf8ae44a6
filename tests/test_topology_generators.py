"""Tests for repro.topology.generators (Table 2 random grids)."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.generators import (
    PAPER_PARAMETER_RANGES,
    ParameterRanges,
    RandomGridGenerator,
    make_uniform_grid,
)
from repro.utils.rng import RandomStream


class TestParameterRanges:
    def test_paper_defaults_match_table2(self):
        ranges = PAPER_PARAMETER_RANGES
        assert ranges.latency_min == pytest.approx(0.001)
        assert ranges.latency_max == pytest.approx(0.015)
        assert ranges.gap_min == pytest.approx(0.100)
        assert ranges.gap_max == pytest.approx(0.600)
        assert ranges.broadcast_min == pytest.approx(0.020)
        assert ranges.broadcast_max == pytest.approx(3.000)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ParameterRanges(latency_min=0.01, latency_max=0.001)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ParameterRanges(gap_min=-0.1)

    def test_scaled_broadcast(self):
        scaled = PAPER_PARAMETER_RANGES.scaled_broadcast(0.1)
        assert scaled.broadcast_max == pytest.approx(0.3)
        assert scaled.latency_max == PAPER_PARAMETER_RANGES.latency_max

    def test_scaled_broadcast_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            PAPER_PARAMETER_RANGES.scaled_broadcast(-1.0)


class TestRandomGridGenerator:
    def test_generates_requested_cluster_count(self):
        grid = RandomGridGenerator().generate(7, RandomStream(seed=1))
        assert grid.num_clusters == 7

    def test_parameters_within_table2_ranges(self):
        grid = RandomGridGenerator().generate(8, RandomStream(seed=2))
        ranges = PAPER_PARAMETER_RANGES
        for i in range(8):
            t = grid.broadcast_time(i, 1_048_576)
            if grid.cluster(i).size > 1:
                assert ranges.broadcast_min <= t <= ranges.broadcast_max
            for j in range(i + 1, 8):
                assert ranges.latency_min <= grid.latency(i, j) <= ranges.latency_max
                assert ranges.gap_min <= grid.gap(i, j, 0) <= ranges.gap_max

    def test_links_are_symmetric(self):
        grid = RandomGridGenerator().generate(5, RandomStream(seed=3))
        for i in range(5):
            for j in range(i + 1, 5):
                assert grid.latency(i, j) == grid.latency(j, i)
                assert grid.gap(i, j, 0) == grid.gap(j, i, 0)

    def test_same_seed_same_grid(self):
        a = RandomGridGenerator().generate(5, RandomStream(seed=9))
        b = RandomGridGenerator().generate(5, RandomStream(seed=9))
        for i in range(5):
            assert a.broadcast_time(i, 0) == b.broadcast_time(i, 0)
            for j in range(i + 1, 5):
                assert a.latency(i, j) == b.latency(i, j)

    def test_different_seeds_differ(self):
        a = RandomGridGenerator().generate(5, RandomStream(seed=9))
        b = RandomGridGenerator().generate(5, RandomStream(seed=10))
        assert any(
            a.latency(i, j) != b.latency(i, j) for i in range(5) for j in range(i + 1, 5)
        )

    def test_single_cluster_grid(self):
        grid = RandomGridGenerator().generate(1, RandomStream(seed=1))
        assert grid.num_clusters == 1

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            RandomGridGenerator().generate(0, RandomStream(seed=1))

    def test_rejects_wrong_stream_type(self):
        with pytest.raises(TypeError):
            RandomGridGenerator().generate(3, stream=42)  # type: ignore[arg-type]

    def test_custom_cluster_size(self):
        grid = RandomGridGenerator(cluster_size=3).generate(4, RandomStream(seed=1))
        assert grid.num_nodes == 12

    def test_rejects_bad_cluster_size(self):
        with pytest.raises(ValueError):
            RandomGridGenerator(cluster_size=0)


class TestUniformGrid:
    def test_everything_identical(self):
        grid = make_uniform_grid(4, latency=0.002, gap=0.1, broadcast_time=0.5)
        for i in range(4):
            assert grid.broadcast_time(i, 0) == pytest.approx(0.5)
            for j in range(i + 1, 4):
                assert grid.latency(i, j) == pytest.approx(0.002)
                assert grid.gap(i, j, 0) == pytest.approx(0.1)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            make_uniform_grid(3, latency=-1.0)


#: Seeds the bulk seeding pass opens through ``RandomStream``.
ODD_SEEDS = (2**64, 2**64 + 3, 2**80, np.uint64(7), np.int64(2**40))


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(array, dtype="<f8").tobytes() for array in arrays]


class TestGenerateStack:
    """The stacked draw equals one ``generate`` per seed, bit for bit."""

    @given(
        num_clusters=st.integers(1, 60),
        seeds=st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(ODD_SEEDS)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_grid_generate(self, num_clusters, seeds):
        generator = RandomGridGenerator()
        latency, gap, times = generator.generate_stack(num_clusters, seeds)
        assert latency.shape == gap.shape == (len(seeds), num_clusters, num_clusters)
        assert times.shape == (len(seeds), num_clusters)
        for k, seed in enumerate(seeds):
            grid = generator.generate(num_clusters, RandomStream(seed=seed))
            grid_latency, grid_gap = grid.cost_matrices(0.0)
            assert _bits(latency[k], gap[k], times[k]) == _bits(
                grid_latency, grid_gap, grid.broadcast_times(0.0)
            )

    def test_scaled_ranges_and_slices_as_grids(self):
        generator = RandomGridGenerator(PAPER_PARAMETER_RANGES.scaled_broadcast(0.1))
        seeds = [11, 12, 13]
        stack = generator.generate_stack(9, seeds)
        for k, seed in enumerate(seeds):
            grid = generator.as_grid(*(array[k] for array in stack))
            reference = generator.generate(9, RandomStream(seed=seed))
            assert grid.name == reference.name
            assert grid.num_nodes == reference.num_nodes
            assert _bits(*grid.cost_matrices(0.0), grid.broadcast_times(0.0)) == _bits(
                *reference.cost_matrices(0.0), reference.broadcast_times(0.0)
            )

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_bad_seeds_raise_like_random_stream(self, seed):
        with pytest.raises(Exception) as expected:
            RandomStream(seed=seed)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            RandomGridGenerator().generate_stack(4, [3, seed])

    def test_rejects_bad_cluster_counts(self):
        generator = RandomGridGenerator()
        with pytest.raises(ValueError):
            generator.generate_stack(0, [1])
        with pytest.raises(TypeError):
            generator.generate_stack(3.0, [1])
