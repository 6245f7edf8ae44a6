"""Tests for repro.experiments.simulation_study."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.ecef import ECEFLookahead
from repro.core import registry
from repro.core.lookahead import min_edge_lookahead
from repro.core.registry import PAPER_HEURISTICS, instantiate, register_heuristic
from repro.experiments.config import (
    FIGURE1_CLUSTER_COUNTS,
    FIGURE2_CLUSTER_COUNTS,
    PAPER_MESSAGE_SIZE,
    SimulationStudyConfig,
)
from repro.experiments.simulation_study import _evaluate_chunk, run_simulation_study
from repro.topology.generators import PAPER_PARAMETER_RANGES, RandomGridGenerator
from repro.topology.grid import Grid
from repro.utils.rng import RandomStream


def _half_min_edge(state, candidate):
    """A lookahead no engine knows: half of ECEF-LA's."""
    return 0.5 * min_edge_lookahead(state, candidate)


@pytest.fixture(scope="module")
def custom_lookahead_key():
    key = "test_half_min_edge"
    register_heuristic(
        key,
        lambda: ECEFLookahead(_half_min_edge, key=key, display_name="LA/2"),
        overwrite=True,
    )
    yield key
    registry._REGISTRY.pop(key)


@pytest.fixture(scope="module")
def small_study():
    """A small but statistically meaningful study reused by several tests."""
    config = SimulationStudyConfig(
        cluster_counts=(2, 4, 8), iterations=40, seed=123
    )
    return run_simulation_study(config)


class TestStructure:
    def test_result_shapes(self, small_study):
        assert small_study.makespans.shape == (3, 7, 40)
        assert len(small_study.heuristic_names) == 7
        assert small_study.cluster_counts == [2, 4, 8]

    def test_all_makespans_positive_and_finite(self, small_study):
        assert np.all(small_study.makespans > 0)
        assert np.all(np.isfinite(small_study.makespans))

    def test_mean_and_std_shapes(self, small_study):
        assert small_study.mean_completion_times().shape == (3, 7)
        assert small_study.std_completion_times().shape == (3, 7)

    def test_series_lookup(self, small_study):
        series = small_study.series("Flat Tree")
        assert len(series) == 3
        with pytest.raises(ValueError):
            small_study.series("Unknown")

    def test_as_table_rows(self, small_study):
        rows = small_study.as_table()
        assert len(rows) == 3
        assert rows[0]["clusters"] == 2.0
        assert set(rows[0]) == {"clusters", *small_study.heuristic_names}


class TestBatchedDriver:
    """The batched/chunked/parallel drivers must all agree bit-for-bit."""

    def test_matches_naive_per_grid_loop(self):
        from repro.core.registry import instantiate
        from repro.topology.generators import RandomGridGenerator
        from repro.utils.rng import RandomStream

        config = SimulationStudyConfig(cluster_counts=(2, 6), iterations=12, seed=31)
        study = run_simulation_study(config)

        heuristics = instantiate(config.heuristics)
        generator = RandomGridGenerator(config.ranges)
        parent = RandomStream(seed=config.seed)
        expected = np.empty_like(study.makespans)
        for count_index, num_clusters in enumerate(config.cluster_counts):
            for iteration in range(config.iterations):
                grid = generator.generate(num_clusters, parent.spawn())
                for heuristic_index, heuristic in enumerate(heuristics):
                    expected[count_index, heuristic_index, iteration] = (
                        heuristic.schedule(
                            grid, config.message_size, root=config.root_cluster
                        ).makespan
                    )
        assert np.array_equal(study.makespans, expected)

    def test_chunking_does_not_change_results(self, monkeypatch):
        import repro.core.batch as module

        config = SimulationStudyConfig(cluster_counts=(5,), iterations=11, seed=3)
        whole = run_simulation_study(config)
        # Force ~3-iteration chunks so several batches cover one count.
        monkeypatch.setattr(module, "MAX_BATCH_ELEMENTS", 5 * 5 * 3)
        chunked = run_simulation_study(config)
        assert np.array_equal(whole.makespans, chunked.makespans)

    def test_workers_do_not_change_results(self):
        config = SimulationStudyConfig(cluster_counts=(3, 5), iterations=8, seed=17)
        serial = run_simulation_study(config, workers=0)
        parallel = run_simulation_study(config, workers=2)
        assert np.array_equal(serial.makespans, parallel.makespans)

    def test_inline_lane_schedules_one_chunk_per_cluster_count(self, monkeypatch):
        """A study too small for the auto lane's pool stays inline, and an
        inline run chunks for one worker: one line-up call per cluster
        count, whatever ``workers`` asked for."""
        import repro.experiments.simulation_study as module
        from repro.runtime.chunking import AUTO_INLINE_MAX_UNITS

        config = SimulationStudyConfig(cluster_counts=(6, 10), iterations=10, seed=29)
        assert 10 * (6 * 6 + 10 * 10) <= AUTO_INLINE_MAX_UNITS
        serial = run_simulation_study(config, workers=0)
        calls = []
        lineup = module.schedule_lineup

        def spy(heuristics, costs, **kwargs):
            calls.append(costs.num_clusters)
            return lineup(heuristics, costs, **kwargs)

        monkeypatch.setattr(module, "schedule_lineup", spy)
        inline = run_simulation_study(config, workers=2, executor="auto")
        assert calls == [6, 10]
        assert np.array_equal(inline.makespans, serial.makespans)

    def test_heuristic_without_batched_kernel_falls_back(self):
        config = SimulationStudyConfig(
            cluster_counts=(3, 4),
            iterations=4,
            heuristics=("ecef", "optimal"),
            seed=5,
        )
        study = run_simulation_study(config)
        ecef, optimal = study.makespans[:, 0, :], study.makespans[:, 1, :]
        assert np.all(np.isfinite(study.makespans))
        # The exhaustive search is a true lower bound for ECEF.
        assert np.all(optimal <= ecef + 1e-12)


class TestStackedChunk:
    """A chunk is drawn once into cost stacks; grids exist only for the
    heuristics that fall back to the per-grid engine."""

    SEEDS = [RandomStream(seed=41).spawn_seed() for _ in range(5)]

    @staticmethod
    def _per_grid(heuristic_keys, num_clusters, seeds):
        generator = RandomGridGenerator(PAPER_PARAMETER_RANGES)
        grids = [generator.generate(num_clusters, RandomStream(seed=s)) for s in seeds]
        return np.array(
            [
                [heuristic.makespan(grid, PAPER_MESSAGE_SIZE, root=1) for grid in grids]
                for heuristic in instantiate(heuristic_keys)
            ]
        )

    def test_mixed_chunk_equals_per_grid_path(self, custom_lookahead_key):
        keys = ("ecef_la", "optimal", custom_lookahead_key, "bottom_up", "flat_tree")
        chunk = _evaluate_chunk(
            keys, 5, self.SEEDS, PAPER_MESSAGE_SIZE, 1, PAPER_PARAMETER_RANGES
        )
        assert np.array_equal(chunk, self._per_grid(keys, 5, self.SEEDS))

    @pytest.mark.parametrize("fallback", [False, True])
    def test_grids_are_built_only_for_fallbacks(self, monkeypatch, fallback):
        calls = []
        from_arrays = Grid._from_arrays.__func__

        def counting(cls, *args, **kwargs):
            calls.append(args[0].shape)
            return from_arrays(cls, *args, **kwargs)

        monkeypatch.setattr(Grid, "_from_arrays", classmethod(counting))
        keys = PAPER_HEURISTICS + (("optimal",) if fallback else ())
        chunk = _evaluate_chunk(
            keys, 6, self.SEEDS, PAPER_MESSAGE_SIZE, 1, PAPER_PARAMETER_RANGES
        )
        assert calls == ([(6, 6)] * len(self.SEEDS) if fallback else [])
        monkeypatch.undo()
        assert np.array_equal(chunk, self._per_grid(keys, 6, self.SEEDS))


class TestGoldenMakespans:
    """Makespans of fixed studies, pinned as the sha256 of their
    little-endian float64 bytes: a drift of the grid draw or of the kernel
    that every lane shares fails here, where lane-against-lane diffs agree."""

    @pytest.mark.parametrize(
        "cluster_counts, digest",
        [
            (
                FIGURE1_CLUSTER_COUNTS,
                "4b32b51f0900c3745ed2979ad9841f62a7ce507b81d35e74c5ecdea009c0f238",
            ),
            (
                FIGURE2_CLUSTER_COUNTS,
                "b1110e149bcd1ea605cc599f3719068a7f075afd454a10b5085ceefcb2e42fce",
            ),
        ],
    )
    def test_figure_sweeps(self, cluster_counts, digest):
        config = SimulationStudyConfig(cluster_counts=cluster_counts, iterations=4, seed=31)
        makespans = run_simulation_study(config, workers=0).makespans
        data = np.ascontiguousarray(makespans, dtype="<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestReproducibility:
    def test_same_seed_same_results(self):
        config = SimulationStudyConfig(cluster_counts=(3,), iterations=10, seed=7)
        a = run_simulation_study(config)
        b = run_simulation_study(config)
        assert np.array_equal(a.makespans, b.makespans)

    def test_different_seed_different_results(self):
        base = SimulationStudyConfig(cluster_counts=(3,), iterations=10, seed=7)
        other = SimulationStudyConfig(cluster_counts=(3,), iterations=10, seed=8)
        assert not np.array_equal(
            run_simulation_study(base).makespans, run_simulation_study(other).makespans
        )


class TestPaperShapes:
    """Statistical checks of the Figure 1 / Figure 2 qualitative claims."""

    def test_flat_tree_is_worst_for_larger_grids(self, small_study):
        """The Flat Tree falls behind once the cluster count grows (Figure 1);
        for very small grids it can still be competitive, so only the largest
        swept count is checked."""
        means = small_study.mean_completion_times()
        flat_index = small_study.heuristic_names.index("Flat Tree")
        assert means[-1, flat_index] == pytest.approx(means[-1].max())

    def test_flat_tree_grows_fastest_with_cluster_count(self, small_study):
        flat = np.array(small_study.series("Flat Tree"))
        ecef = np.array(small_study.series("ECEF"))
        assert (flat[-1] - flat[0]) > (ecef[-1] - ecef[0])

    def test_ecef_beats_fef_on_average(self, small_study):
        means = small_study.mean_completion_times()
        fef = small_study.heuristic_names.index("FEF")
        ecef = small_study.heuristic_names.index("ECEF")
        assert means[-1, ecef] < means[-1, fef]

    def test_global_minimum_is_lower_bound(self, small_study):
        minima = small_study.global_minima()
        assert np.all(minima[:, None, :] <= small_study.makespans + 1e-12)

    def test_hit_counts_sum_at_least_iterations(self, small_study):
        """Every iteration has at least one hit (the minimum itself)."""
        hits = small_study.hit_counts()
        assert np.all(hits.sum(axis=1) >= small_study.config.iterations)

    def test_hit_rates_between_zero_and_one(self, small_study):
        rates = small_study.hit_rates()
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)

    def test_two_cluster_grids_all_heuristics_tie(self, small_study):
        """With 2 clusters there is only one possible schedule."""
        row = small_study.cluster_counts.index(2)
        spread = small_study.makespans[row].max(axis=0) - small_study.makespans[row].min(axis=0)
        assert np.all(spread < 1e-12)
