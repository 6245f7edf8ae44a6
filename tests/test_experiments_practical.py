"""Tests for repro.experiments.practical_study (Figures 5 and 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import PracticalStudyConfig
from repro.experiments.practical_study import (
    BINOMIAL_BASELINE_NAME,
    run_alltoall_study,
    run_practical_study,
    run_scatter_study,
)
from repro.topology.cluster import Cluster
from repro.topology.grid import Grid
from repro.topology.grid5000 import build_grid5000_topology


@pytest.fixture(scope="module")
def study():
    config = PracticalStudyConfig(
        message_sizes=(65_536, 1_048_576, 4_194_304),
        noise_sigma=0.0,
        heuristics=("flat_tree", "fef", "ecef", "ecef_la", "ecef_lat_max"),
    )
    return run_practical_study(config)


class TestStructure:
    def test_shapes(self, study):
        assert study.predicted.shape == (3, 5)
        assert study.measured.shape == (3, 5)
        assert study.baseline_measured.shape == (3,)

    def test_all_times_positive(self, study):
        assert np.all(study.predicted > 0)
        assert np.all(study.measured > 0)
        assert np.all(study.baseline_measured > 0)

    def test_series_lookup(self, study):
        assert len(study.predicted_series("ECEF")) == 3
        assert len(study.measured_series("Flat Tree")) == 3
        with pytest.raises(ValueError):
            study.predicted_series("nope")

    def test_as_table_contains_baseline_only_for_measured(self, study):
        measured_rows = study.as_table(which="measured")
        predicted_rows = study.as_table(which="predicted")
        assert BINOMIAL_BASELINE_NAME in measured_rows[0]
        assert BINOMIAL_BASELINE_NAME not in predicted_rows[0]
        with pytest.raises(ValueError):
            study.as_table(which="other")


class TestPaperClaims:
    def test_predictions_match_measurements(self, study):
        """Paper §7: 'performance predictions fit with a good precision the
        practical results'."""
        error = study.prediction_error()
        assert np.nanmean(error) < 0.10

    def test_times_grow_with_message_size(self, study):
        for column in range(study.measured.shape[1]):
            series = study.measured[:, column]
            assert series[0] < series[-1]

    def test_flat_tree_is_worst_heuristic_at_4mb(self, study):
        last_row = study.measured[-1]
        flat = last_row[study.heuristic_names.index("Flat Tree")]
        assert flat == pytest.approx(last_row.max())
        # "almost six times more time" than the ECEF family in the paper; our
        # simulator substitution preserves a factor of at least 3.
        ecef = last_row[study.heuristic_names.index("ECEF")]
        assert flat > 3.0 * ecef

    def test_flat_tree_worse_than_grid_unaware_binomial(self, study):
        """Figure 6: the Flat Tree is 'even worse than the grid-unaware
        binomial tree algorithm traditionally used by MPI'."""
        flat = study.measured[-1, study.heuristic_names.index("Flat Tree")]
        assert flat > study.baseline_measured[-1]

    def test_grid_unaware_binomial_worse_than_ecef(self, study):
        ecef = study.measured[-1, study.heuristic_names.index("ECEF")]
        assert study.baseline_measured[-1] > ecef

    def test_ecef_family_fastest_overall(self, study):
        last_row = study.measured[-1]
        ecef_like = [
            last_row[study.heuristic_names.index(name)]
            for name in ("ECEF", "ECEF-LA", "ECEF-LAT")
        ]
        assert min(ecef_like) == pytest.approx(last_row.min())


class TestOptions:
    def test_baseline_can_be_disabled(self):
        config = PracticalStudyConfig(
            message_sizes=(65_536,),
            include_binomial_baseline=False,
            heuristics=("ecef",),
        )
        result = run_practical_study(config)
        assert result.baseline_measured is None
        assert BINOMIAL_BASELINE_NAME not in result.as_table()[0]

    def test_noise_perturbs_measured_only(self):
        clean = run_practical_study(
            PracticalStudyConfig(message_sizes=(1_048_576,), heuristics=("ecef",), noise_sigma=0.0)
        )
        noisy = run_practical_study(
            PracticalStudyConfig(message_sizes=(1_048_576,), heuristics=("ecef",), noise_sigma=0.1)
        )
        assert clean.predicted[0, 0] == pytest.approx(noisy.predicted[0, 0])
        assert clean.measured[0, 0] != noisy.measured[0, 0]

    def test_custom_grid(self, heterogeneous_grid):
        config = PracticalStudyConfig(message_sizes=(1_000,), heuristics=("ecef",))
        result = run_practical_study(config, grid=heterogeneous_grid)
        assert result.measured.shape == (1, 1)


class TestDeterminism:
    """Noisy measured runs are pure functions of (seed, curve label, size)."""

    CONFIG = dict(message_sizes=(65_536, 1_048_576), noise_sigma=0.08)

    def test_batched_matches_scalar_reference(self, heterogeneous_grid):
        config = PracticalStudyConfig(heuristics=("ecef", "fef"), **self.CONFIG)
        batched = run_practical_study(config, grid=heterogeneous_grid)
        scalar = run_practical_study(config, grid=heterogeneous_grid, engine="scalar")
        assert np.array_equal(batched.measured, scalar.measured)
        assert np.array_equal(batched.baseline_measured, scalar.baseline_measured)
        assert np.array_equal(batched.predicted, scalar.predicted)

    def test_shuffle_invariance_of_heuristic_order(self, heterogeneous_grid):
        """Reordering the heuristics tuple must not change any curve."""
        forward = run_practical_study(
            PracticalStudyConfig(heuristics=("ecef", "fef", "flat_tree"), **self.CONFIG),
            grid=heterogeneous_grid,
        )
        shuffled = run_practical_study(
            PracticalStudyConfig(heuristics=("flat_tree", "ecef", "fef"), **self.CONFIG),
            grid=heterogeneous_grid,
        )
        for name in ("ECEF", "FEF", "Flat Tree"):
            assert forward.measured_series(name) == shuffled.measured_series(name)
        assert np.array_equal(
            forward.baseline_measured, shuffled.baseline_measured
        )

    def test_worker_count_invariance(self, heterogeneous_grid):
        config = PracticalStudyConfig(heuristics=("ecef", "fef"), **self.CONFIG)
        inline = run_practical_study(config, grid=heterogeneous_grid, workers=0)
        fanned = run_practical_study(config, grid=heterogeneous_grid, workers=2)
        assert np.array_equal(inline.measured, fanned.measured)
        assert np.array_equal(inline.baseline_measured, fanned.baseline_measured)

    def test_workers_env_var_rejects_garbage(self, heterogeneous_grid, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        config = PracticalStudyConfig(message_sizes=(1_000,), heuristics=("ecef",))
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            run_practical_study(config, grid=heterogeneous_grid)


class TestDefaultGrid:
    """``grid=None`` sweeps share one Table 3 grid per process."""

    def test_default_grid_is_built_once_and_explicit_grids_win(
        self, heterogeneous_grid, monkeypatch
    ):
        import repro.experiments.practical_study as module

        seen = []
        measure = module.execute_makespans

        def recording(grid, *args, **kwargs):
            seen.append(grid)
            return measure(grid, *args, **kwargs)

        monkeypatch.setattr(module, "execute_makespans", recording)
        config = PracticalStudyConfig(message_sizes=(0, 65_536, 1_048_576))
        first = run_practical_study(config)
        second = run_practical_study(config)
        fresh = run_practical_study(config, grid=build_grid5000_topology())
        assert seen[0] is seen[1] and seen[2] is not seen[0]
        for other in (second, fresh):
            for name in ("predicted", "measured_replicas", "baseline_replicas"):
                assert np.array_equal(getattr(first, name), getattr(other, name))
        run_practical_study(config, grid=heterogeneous_grid)
        assert seen[3] is heterogeneous_grid


class TestBatchedScheduling:
    """The batched scheduling path against its per-size reference twin."""

    def test_scalar_engine_never_calls_the_lineup_kernel(self, monkeypatch):
        import repro.experiments.practical_study as module

        def spy(*args, **kwargs):
            raise AssertionError("the scalar engine must schedule size by size")

        monkeypatch.setattr(module, "record_lineup", spy)
        config = PracticalStudyConfig(message_sizes=(1_024, 65_536))
        result = run_practical_study(config, engine="scalar")
        assert np.all(result.predicted > 0)

    def test_batched_equals_scalar_with_declined_heuristics(self, monkeypatch):
        """A line-up mixing kernel rows, an average-based lookahead among
        them, with the exhaustive search the batched path declines."""
        import repro.experiments.practical_study as module
        from repro.core import registry
        from repro.core.batch import record_lineup
        from repro.core.ecef import ECEFLookahead
        from repro.core.lookahead import average_latency_lookahead

        monkeypatch.setitem(
            registry._REGISTRY,
            "ecef_la_average",
            lambda: ECEFLookahead(
                average_latency_lookahead,
                key="ecef_la_average",
                display_name="ECEF-LA (average)",
            ),
        )
        config = PracticalStudyConfig(
            message_sizes=(0, 65_536, 1_048_576, 4_194_304),
            heuristics=("optimal", "mixed", "ecef_la_average", "fef"),
            root_cluster=2,
        )
        declined = []

        def spy(heuristics, costs, **kwargs):
            columns = record_lineup(heuristics, costs, **kwargs)
            declined.append([column is None for column in columns])
            return columns

        monkeypatch.setattr(module, "record_lineup", spy)
        batched = run_practical_study(config, replicas=2)
        assert declined == [[True, False, False, False]]
        scalar = run_practical_study(config, replicas=2, engine="scalar")
        assert np.array_equal(batched.predicted, scalar.predicted)
        assert np.array_equal(batched.measured_replicas, scalar.measured_replicas)
        assert np.array_equal(batched.baseline_replicas, scalar.baseline_replicas)

    def test_size_chunks_do_not_change_results(self, monkeypatch):
        import repro.core.batch
        import repro.experiments.practical_study as module

        config = PracticalStudyConfig()
        whole = run_practical_study(config)
        calls = []

        def counting(heuristics, costs, **kwargs):
            calls.append(costs.num_grids)
            return repro.core.batch.record_lineup(heuristics, costs, **kwargs)

        monkeypatch.setattr(module, "record_lineup", counting)
        # Three message sizes of the 6-cluster grid per stack, one line-up
        # call per stack.
        heuristics = len(config.heuristics)
        monkeypatch.setattr(
            repro.core.batch, "MAX_BATCH_ELEMENTS", 3 * heuristics * 6 * 6
        )
        chunked = run_practical_study(config)
        assert calls == [3, 3, 3, 1]
        assert np.array_equal(whole.predicted, chunked.predicted)
        assert np.array_equal(whole.measured_replicas, chunked.measured_replicas)
        assert np.array_equal(whole.baseline_replicas, chunked.baseline_replicas)


    def test_batched_sweep_builds_no_schedule_objects(self, monkeypatch):
        """The paper line-up goes from the line-up kernel's recorded arrays
        to the program stack without one timed transfer object; the spy
        does see the scalar reference build them."""
        from repro.core.schedule import ScheduledTransfer

        created = []
        init = ScheduledTransfer.__init__

        def counting(self, *args, **kwargs):
            created.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScheduledTransfer, "__init__", counting)
        run_practical_study(PracticalStudyConfig(), workers=0)
        assert created == []
        config = PracticalStudyConfig(message_sizes=(1_024,))
        run_practical_study(config, workers=0, engine="scalar")
        assert created

    @pytest.mark.parametrize("case", ["grid5000", "random12"])
    def test_one_stack_equals_per_heuristic_builds(self, case, monkeypatch):
        """The whole line-up's programs, built as one stack from pair
        arrays, equal one schedule-based build per heuristic field for
        field — also where kernel rows include an average lookahead."""
        import repro.experiments.practical_study as module
        from repro.core import registry
        from repro.core.batch import BatchedGridCosts, record_lineup
        from repro.core.costs import GridCostCache
        from repro.core.ecef import ECEFLookahead
        from repro.core.lookahead import average_informed_lookahead
        from repro.mpi.bcast import grid_aware_bcast_programs
        from repro.topology.generators import RandomGridGenerator
        from repro.utils.rng import RandomStream

        if case == "grid5000":
            grid = build_grid5000_topology()
            config = PracticalStudyConfig(message_sizes=(0, 65_536, 4_194_304))
        else:
            monkeypatch.setitem(
                registry._REGISTRY,
                "ecef_la_average",
                lambda: ECEFLookahead(
                    average_informed_lookahead,
                    key="ecef_la_average",
                    display_name="ECEF-LA (average)",
                ),
            )
            grid = RandomGridGenerator().generate(12, RandomStream(seed=41))
            config = PracticalStudyConfig(
                message_sizes=(0, 4_096, 1_048_576),
                heuristics=("ecef_lat_min", "ecef_la_average", "bottom_up", "fef"),
                root_cluster=7,
                local_tree="flat",
            )
        heuristics = registry.instantiate(config.heuristics)
        sizes = list(config.message_sizes)
        root = config.root_cluster
        if case == "random12":
            caches = [GridCostCache.for_grid(grid, size) for size in sizes]
            columns = record_lineup(heuristics, BatchedGridCosts(caches), root=root)
            assert [column is None for column in columns] == [False] * 4

        built = []
        stack = module.grid_aware_pair_programs

        def spy(*args, **kwargs):
            built.append(stack(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(module, "grid_aware_pair_programs", spy)
        run_practical_study(config, grid=grid, workers=0)
        expected = [
            program
            for heuristic in heuristics
            for program in grid_aware_bcast_programs(
                grid,
                [heuristic.schedule(grid, size, root=root) for size in sizes],
                sizes,
                local_tree=config.local_tree,
            )
        ]
        (programs,) = built
        assert [_fields(p) for p in programs] == [_fields(p) for p in expected]


def _fields(program) -> tuple:
    """Every field of a program, its arrays with their dtype."""
    return (
        program.name,
        program.root,
        program.num_ranks,
        program.tags,
        program.initially_active,
        [
            (array.dtype.str, array.tolist())
            for array in (program.indptr, program.dest, program.size, program.tag_code)
        ],
    )


class TestPredictionErrorNaN:
    def test_zero_size_on_single_node_grid_yields_nan(self):
        """A degenerate run with zero measured time must produce NaN, not a
        division error, and nanmean-style aggregation must skip it."""
        grid = Grid(
            [Cluster(cluster_id=0, name="solo", size=1, fixed_broadcast_time=0.0)],
            {},
            name="single",
        )
        config = PracticalStudyConfig(
            message_sizes=(0,),
            heuristics=("ecef",),
            include_binomial_baseline=False,
            noise_sigma=0.0,
        )
        result = run_practical_study(config, grid=grid)
        assert result.measured[0, 0] == 0.0
        error = result.prediction_error()
        assert np.isnan(error).all()

    def test_mixed_rows_aggregate_without_nan_poisoning(self, heterogeneous_grid):
        config = PracticalStudyConfig(
            message_sizes=(65_536,), heuristics=("ecef",), noise_sigma=0.0
        )
        result = run_practical_study(config, grid=heterogeneous_grid)
        error = result.prediction_error()
        assert np.isfinite(error).all()
        assert np.nanmean(error) >= 0.0


class TestCollectiveStudies:
    def test_scatter_study_shape_and_names(self, heterogeneous_grid):
        config = PracticalStudyConfig(
            message_sizes=(1_024, 65_536), heuristics=("ecef", "ecef_la")
        )
        result = run_scatter_study(config, grid=heterogeneous_grid)
        assert result.collective == "scatter"
        assert result.strategy_names[0] == "Flat scatter"
        assert result.strategy_names[1:] == [
            "Grid-aware [ECEF]",
            "Grid-aware [ECEF-LA]",
        ]
        assert result.measured.shape == (2, 3)
        assert np.all(result.measured > 0)

    def test_scatter_aggregation_wins_on_grid5000_small_chunks(self, grid5000):
        config = PracticalStudyConfig(
            message_sizes=(4_096,), heuristics=("ecef_la",), noise_sigma=0.0
        )
        result = run_scatter_study(config, grid=grid5000)
        speedup = result.speedup_over_baseline()
        assert speedup[0, 1] > 1.0  # grid-aware beats the flat baseline

    def test_alltoall_study_runs_with_initially_active_metadata(
        self, heterogeneous_grid
    ):
        config = PracticalStudyConfig(message_sizes=(256, 1_024))
        result = run_alltoall_study(config, grid=heterogeneous_grid)
        assert result.strategy_names == ["Direct", "Grid-aware"]
        assert result.measured.shape == (2, 2)
        assert np.all(result.measured > 0)

    def test_collective_study_matches_scalar_reference(self, heterogeneous_grid):
        config = PracticalStudyConfig(message_sizes=(512,), noise_sigma=0.05)
        batched = run_alltoall_study(config, grid=heterogeneous_grid)
        scalar = run_alltoall_study(config, grid=heterogeneous_grid, engine="scalar")
        assert np.array_equal(batched.measured, scalar.measured)

    def test_unknown_strategy_rejected(self, heterogeneous_grid):
        config = PracticalStudyConfig(message_sizes=(512,))
        result = run_alltoall_study(config, grid=heterogeneous_grid)
        with pytest.raises(ValueError, match="unknown strategy"):
            result.measured_series("nope")
