"""Tests for repro.core.base (SchedulingState and the heuristic base class)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SchedulingHeuristic, SchedulingState, run_heuristics
from repro.core.ecef import ECEF
from repro.core.flat_tree import FlatTreeHeuristic


class TestSchedulingState:
    def test_initial_sets(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        assert state.informed == [0]
        assert state.pending == [1, 2]
        assert not state.done
        assert state.ready_time[0] == 0.0

    def test_cached_parameters_match_grid(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        assert state.gap(0, 2) == pytest.approx(heterogeneous_grid.gap(0, 2, 1_000))
        assert state.latency(0, 1) == pytest.approx(heterogeneous_grid.latency(0, 1))
        assert state.transfer_time(1, 2) == pytest.approx(
            heterogeneous_grid.transfer_time(1, 2, 1_000)
        )
        assert state.broadcast_time(1) == pytest.approx(2.0)

    def test_commit_updates_ready_times(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        state.commit(0, 1)
        assert state.ready_time[0] == pytest.approx(0.10)       # gap
        assert state.ready_time[1] == pytest.approx(0.101)      # gap + latency
        assert state.pending == [2]

    def test_commit_rejects_uninformed_sender(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        with pytest.raises(ValueError, match="not informed"):
            state.commit(1, 2)

    def test_commit_rejects_informed_receiver(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        state.commit(0, 1)
        with pytest.raises(ValueError, match="not waiting"):
            state.commit(0, 1)

    def test_completion_estimate(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        assert state.completion_estimate(0, 2) == pytest.approx(0.51)
        state.commit(0, 1)
        assert state.completion_estimate(0, 2) == pytest.approx(0.10 + 0.51)

    def test_to_schedule_consistency(self, heterogeneous_grid):
        state = SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)
        state.commit(0, 1)
        state.commit(1, 2)
        schedule = state.to_schedule("manual")
        schedule.validate()
        assert schedule.heuristic_name == "manual"
        assert schedule.order == [(0, 1), (1, 2)]

    def test_rejects_invalid_root(self, heterogeneous_grid):
        with pytest.raises(ValueError):
            SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=7)


class TestHeuristicBase:
    def test_schedule_validates_completion(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        schedule.validate()
        assert len(schedule.transfers) == heterogeneous_grid.num_clusters - 1

    def test_makespan_shortcut(self, heterogeneous_grid):
        heuristic = ECEF()
        assert heuristic.makespan(heterogeneous_grid, 1_000) == pytest.approx(
            heuristic.schedule(heterogeneous_grid, 1_000).makespan
        )

    def test_name_defaults_to_display_name(self):
        assert ECEF().name == "ECEF"

    def test_single_cluster_grid_trivial_schedule(self):
        from repro.topology.generators import make_uniform_grid

        grid = make_uniform_grid(1)
        schedule = FlatTreeHeuristic().schedule(grid, 1_000)
        assert schedule.transfers == []

    def test_incomplete_heuristic_detected(self, heterogeneous_grid):
        class Lazy(SchedulingHeuristic):
            display_name = "Lazy"

            def build_order(self, state):
                return  # forgets to inform anyone

        with pytest.raises(RuntimeError, match="without informing"):
            Lazy().schedule(heterogeneous_grid, 1_000)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_uninformed_sender_is_rejected(self, heterogeneous_grid, vectorized):
        class Eager(SchedulingHeuristic):
            display_name = "Eager"

            def build_order(self, state):
                state.commit(0, 1)
                state.commit(2, 1)

        with pytest.raises(ValueError, match="cluster 2 is not informed"):
            Eager().schedule(heterogeneous_grid, 1_000, vectorized=vectorized)

    @pytest.mark.parametrize(
        ("sender", "receiver", "message"),
        [
            (np.int64(0), 1, "sender at position 0 must be an int"),
            # Rejected by commit before NumPy could read it as a mask.
            (0, True, "receiver at position 0 must be an int"),
        ],
    )
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_non_int_cluster_index_is_rejected(
        self, heterogeneous_grid, vectorized, sender, receiver, message
    ):
        """The schedule is built from the commits' own record, and still
        rejects an index ``evaluate_order`` would reject."""

        class Sloppy(SchedulingHeuristic):
            display_name = "Sloppy"

            def build_order(self, state):
                state.commit(sender, receiver)
                state.commit(0, 2)

        with pytest.raises(TypeError, match=message):
            Sloppy().schedule(heterogeneous_grid, 1_000, vectorized=vectorized)

    def test_run_heuristics_collects_all(self, heterogeneous_grid):
        results = run_heuristics([ECEF(), FlatTreeHeuristic()], heterogeneous_grid, 1_000)
        assert set(results) == {"ECEF", "Flat Tree"}
        for schedule in results.values():
            schedule.validate()
