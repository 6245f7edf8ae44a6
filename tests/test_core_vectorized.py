"""Equivalence and unit tests for the vectorized scheduling engine.

The repository ships three scheduling engines that must agree bit-for-bit:

* the **scalar reference** (``vectorized=False``): the seed implementation's
  nested Python loops;
* the **vectorized** per-grid engine: NumPy argmin kernels over score
  matrices that each commit updates in place, on a
  :class:`~repro.core.costs.GridCostCache`;
* the **batched** engine (:mod:`repro.core.batch`): whole stacks of grids
  advanced one selection round at a time.

The property tests below assert identical decision orders and identical
(``==``, not approximately equal) makespans across engines on randomized
grids, for every registered heuristic and lookahead — tie-breaking included.
Fixed-seed cases at the schedule service's 16–48 clusters compare whole
schedules, field for field, with the scalar engine and with the decision
order re-timed by :func:`~repro.core.schedule.evaluate_order`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import SchedulingState, run_heuristics
from repro.core.batch import BatchedGridCosts, batched_makespans
from repro.core.costs import GridCostCache
from repro.core.ecef import ECEFLookahead
from repro.core.lookahead import (
    AVERAGE_FORM_LOOKAHEADS,
    LOOKAHEAD_FUNCTIONS,
    MIN_FORM_LOOKAHEADS,
    no_lookahead,
)
from repro.core.registry import PAPER_HEURISTICS, get_heuristic, instantiate
from repro.core.schedule import evaluate_order
from repro.topology.generators import RandomGridGenerator, make_uniform_grid
from repro.utils.rng import RandomStream

MESSAGE_SIZE = 1_048_576

#: Every registry key with a polynomial-time batched/vectorized path.
GREEDY_KEYS = tuple(k for k in PAPER_HEURISTICS) + ("mixed",)

#: Every registered lookahead: each one's vectorized and batched twins are
#: exact (min/max are order-independent, the averages sum in one order).
EXACT_LOOKAHEADS = tuple(LOOKAHEAD_FUNCTIONS)


def random_grid(num_clusters: int, seed: int):
    return RandomGridGenerator(cluster_size=2).generate(
        num_clusters, RandomStream(seed=seed)
    )


# ---------------------------------------------------------------------------
# engine equivalence (the tentpole property)
# ---------------------------------------------------------------------------


class TestEngineEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_clusters=st.integers(min_value=2, max_value=12),
        key=st.sampled_from(GREEDY_KEYS),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_scalar(self, seed, num_clusters, key):
        grid = random_grid(num_clusters, seed)
        heuristic = get_heuristic(key)
        fast = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=True)
        reference = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        assert fast.order == reference.order
        assert fast.makespan == reference.makespan

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_clusters=st.integers(min_value=2, max_value=10),
        lookahead=st.sampled_from(EXACT_LOOKAHEADS),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_lookaheads_match_scalar(self, seed, num_clusters, lookahead):
        grid = random_grid(num_clusters, seed)
        heuristic = ECEFLookahead(lookahead, key="t", display_name="t")
        fast = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=True)
        reference = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        assert fast.order == reference.order
        assert fast.makespan == reference.makespan
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        assert batched_makespans(heuristic, stacked).tolist() == [reference.makespan]

    @pytest.mark.parametrize("lookahead", ["average_latency", "average_informed"])
    @pytest.mark.parametrize("seed", [0, 7, 42, 123, 999, 2024])
    @pytest.mark.parametrize("num_clusters", [2, 5, 9])
    def test_average_lookaheads_match_scalar_on_fixed_seeds(
        self, seed, num_clusters, lookahead
    ):
        """A deterministic seed set that every run checks, next to the
        Hypothesis draws: the averages' ordered sums give the same bits in
        the scalar, per-grid and batched engines."""
        grid = random_grid(num_clusters, seed)
        heuristic = ECEFLookahead(lookahead, key="t", display_name="t")
        fast = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=True)
        reference = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        assert fast.order == reference.order
        assert fast.makespan == reference.makespan
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        assert batched_makespans(heuristic, stacked).tolist() == [reference.makespan]

    def test_lookahead_split_covers_the_registry(self):
        """Every registered lookahead has one vectorized form: ``none``, a
        min form or an average form, and no lookahead has two."""
        forms = [no_lookahead, *MIN_FORM_LOOKAHEADS, *AVERAGE_FORM_LOOKAHEADS]
        assert len(set(forms)) == len(forms)
        assert set(forms) == set(LOOKAHEAD_FUNCTIONS.values())

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_clusters=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_optimal_matches_scalar(self, seed, num_clusters):
        grid = random_grid(num_clusters, seed)
        heuristic = get_heuristic("optimal")
        fast = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=True)
        reference = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        assert fast.order == reference.order
        assert fast.makespan == reference.makespan

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_clusters=st.integers(min_value=2, max_value=12),
        root=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_per_grid(self, seed, num_clusters, root):
        root = root % num_clusters
        grids = [random_grid(num_clusters, seed + offset) for offset in range(4)]
        caches = [GridCostCache.for_grid(g, MESSAGE_SIZE) for g in grids]
        stacked = BatchedGridCosts(caches)
        for heuristic in instantiate(GREEDY_KEYS):
            batch = batched_makespans(heuristic, stacked, root=root)
            assert batch is not None, heuristic.name
            per_grid = [
                heuristic.schedule(
                    grid, MESSAGE_SIZE, root=root, costs=cache
                ).makespan
                for grid, cache in zip(grids, caches)
            ]
            assert batch.tolist() == per_grid, heuristic.name

    def test_custom_lookahead_falls_back_but_stays_vectorized(self):
        """An unregistered lookahead callable still schedules correctly."""
        grid = random_grid(6, seed=7)

        def custom(state, candidate):
            return state.broadcast_time(candidate) * 0.5

        heuristic = ECEFLookahead(custom, key="c", display_name="custom")
        fast = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=True)
        reference = heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        assert fast.order == reference.order
        # And the batched engine reports no kernel for it.
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        assert batched_makespans(heuristic, stacked) is None

    def test_makespan_fast_path_matches_schedule(self):
        grid = random_grid(9, seed=11)
        for heuristic in instantiate(GREEDY_KEYS):
            assert heuristic.makespan(grid, MESSAGE_SIZE) == (
                heuristic.schedule(grid, MESSAGE_SIZE).makespan
            )


class TestServiceScaleEquivalence:
    """Fixed seeds at the cluster counts the schedule service answers
    (16–48), on random grids and on tie-prone uniform ones."""

    @pytest.mark.parametrize("num_clusters", [16, 32, 48])
    @pytest.mark.parametrize("kind", ["random", "uniform"])
    def test_schedules_equal_scalar_and_retimed_order(self, kind, num_clusters):
        if kind == "random":
            grid = random_grid(num_clusters, seed=1_000 + num_clusters)
        else:
            grid = make_uniform_grid(num_clusters)
        # The min-form lookaheads already run as ECEF-LA, ECEF-LAt, ECEF-LAT.
        heuristics = instantiate(GREEDY_KEYS) + [
            ECEFLookahead(lookahead, key=lookahead, display_name=lookahead)
            for lookahead in EXACT_LOOKAHEADS
            if LOOKAHEAD_FUNCTIONS[lookahead] not in MIN_FORM_LOOKAHEADS
        ]
        for size in (0, 4 * MESSAGE_SIZE):
            for root in (0, num_clusters - 1):
                for heuristic in heuristics:
                    case = (heuristic.name, size, root)
                    fast = heuristic.schedule(grid, size, root=root)
                    reference = heuristic.schedule(
                        grid, size, root=root, vectorized=False
                    )
                    assert fast == reference, case
                    assert fast == evaluate_order(
                        grid, size, root, fast.order, heuristic_name=heuristic.name
                    ), case


# ---------------------------------------------------------------------------
# GridCostCache
# ---------------------------------------------------------------------------


class TestGridCostCache:
    def test_matrices_match_grid_queries(self, heterogeneous_grid):
        cache = GridCostCache.build(heterogeneous_grid, 1_000)
        n = heterogeneous_grid.num_clusters
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert cache.gap[i, j] == 0.0
                    assert cache.latency[i, j] == 0.0
                    continue
                assert cache.gap[i, j] == heterogeneous_grid.gap(i, j, 1_000)
                assert cache.latency[i, j] == heterogeneous_grid.latency(i, j)
                assert cache.transfer[i, j] == (
                    cache.gap[i, j] + cache.latency[i, j]
                )
        assert cache.broadcast_list() == heterogeneous_grid.broadcast_times(1_000)

    def test_for_grid_is_shared_and_per_message_size(self, heterogeneous_grid):
        first = GridCostCache.for_grid(heterogeneous_grid, 1_000)
        assert GridCostCache.for_grid(heterogeneous_grid, 1_000) is first
        assert GridCostCache.for_grid(heterogeneous_grid, 2_000) is not first
        assert GridCostCache.build(heterogeneous_grid, 1_000) is not first

    def test_for_grid_evicts_oldest_message_size(self, heterogeneous_grid):
        first = GridCostCache.for_grid(heterogeneous_grid, 1.0)
        for size in range(2, GridCostCache.MAX_SIZES_PER_GRID + 2):
            GridCostCache.for_grid(heterogeneous_grid, float(size))
        # The oldest entry was evicted, so asking again builds a new cache.
        assert GridCostCache.for_grid(heterogeneous_grid, 1.0) is not first

    def test_matrices_are_read_only(self, heterogeneous_grid):
        cache = GridCostCache.for_grid(heterogeneous_grid, 1_000)
        with pytest.raises(ValueError):
            cache.transfer[0, 1] = 0.0

    def test_state_rejects_mismatched_cache(self, heterogeneous_grid, uniform_grid):
        cache = GridCostCache.for_grid(uniform_grid, 1_000)
        with pytest.raises(ValueError, match="different grid"):
            SchedulingState(
                grid=heterogeneous_grid, message_size=1_000, root=0, costs=cache
            )
        with pytest.raises(ValueError, match="different grid"):
            SchedulingState(
                grid=uniform_grid, message_size=2_000, root=0, costs=cache
            )

    def test_min_incoming(self, heterogeneous_grid):
        cache = GridCostCache.for_grid(heterogeneous_grid, 1_000)
        expected = [
            min(
                heterogeneous_grid.transfer_time(i, j, 1_000)
                for i in range(heterogeneous_grid.num_clusters)
                if i != j
            )
            for j in range(heterogeneous_grid.num_clusters)
        ]
        assert cache.min_incoming() == pytest.approx(expected)

    def test_cost_matrices_bulk_matches_per_pair(self):
        grid = random_grid(7, seed=3)
        latency, gap = grid.cost_matrices(MESSAGE_SIZE)
        for i in range(7):
            for j in range(7):
                if i == j:
                    continue
                assert latency[i, j] == grid.latency(i, j)
                assert gap[i, j] == grid.gap(i, j, MESSAGE_SIZE)


# ---------------------------------------------------------------------------
# incremental A/B bookkeeping
# ---------------------------------------------------------------------------


class TestIncrementalSets:
    def test_informed_pending_stay_sorted_through_commits(self):
        grid = random_grid(8, seed=5)
        state = SchedulingState(grid=grid, message_size=MESSAGE_SIZE, root=3)
        while not state.done:
            assert state.informed == sorted(state.ready_time)
            assert state.pending == sorted(state.waiting)
            sender, receiver = state.select_min_completion()
            state.commit(sender, receiver)
        assert state.informed == sorted(state.ready_time)
        assert state.pending == []

    def test_run_heuristics_shares_one_cache(self, heterogeneous_grid):
        cache = GridCostCache.for_grid(heterogeneous_grid, 1_000)
        results = run_heuristics(
            instantiate(("ecef", "flat_tree")), heterogeneous_grid, 1_000, costs=cache
        )
        for schedule in results.values():
            schedule.validate()
        assert set(results) == {"ECEF", "Flat Tree"}


# ---------------------------------------------------------------------------
# batched engine edge cases
# ---------------------------------------------------------------------------


class TestBatchedEngine:
    def test_rejects_mixed_sizes(self):
        caches = [
            GridCostCache.for_grid(random_grid(3, seed=1), MESSAGE_SIZE),
            GridCostCache.for_grid(random_grid(4, seed=2), MESSAGE_SIZE),
        ]
        with pytest.raises(ValueError, match="same size"):
            BatchedGridCosts(caches)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchedGridCosts([])

    def test_single_cluster_batch(self):
        grid = make_uniform_grid(1)
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        makespans = batched_makespans(get_heuristic("ecef"), stacked)
        assert makespans.shape == (1,)
        assert makespans[0] == pytest.approx(grid.broadcast_time(0, MESSAGE_SIZE))

    def test_optimal_has_no_batched_kernel(self):
        grid = random_grid(3, seed=9)
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        assert batched_makespans(get_heuristic("optimal"), stacked) is None

    def test_subclass_with_overridden_build_order_falls_back(self):
        """A subclass may change the selection rule, so it must never
        silently inherit the parent's batched kernel."""
        from repro.core.ecef import ECEF

        class ReversedECEF(ECEF):
            def build_order(self, state):
                while not state.done:
                    state.commit(state.informed[-1], state.pending[-1])

        grid = random_grid(4, seed=17)
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        assert batched_makespans(ReversedECEF(), stacked) is None

    def test_flat_tree_rejects_duplicate_cluster_order_in_every_engine(self):
        from repro.core.flat_tree import FlatTreeHeuristic

        grid = random_grid(4, seed=13)
        heuristic = FlatTreeHeuristic(cluster_order=[1, 1, 2, 3])
        with pytest.raises(ValueError, match="exactly once"):
            heuristic.schedule(grid, MESSAGE_SIZE)
        with pytest.raises(ValueError, match="exactly once"):
            heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False)
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        with pytest.raises(ValueError, match="exactly once"):
            batched_makespans(heuristic, stacked)

    def test_flat_tree_custom_order_agrees_across_engines(self):
        from repro.core.flat_tree import FlatTreeHeuristic

        grid = random_grid(5, seed=21)
        heuristic = FlatTreeHeuristic(cluster_order=[4, 2, 3, 1, 0])
        stacked = BatchedGridCosts([GridCostCache.for_grid(grid, MESSAGE_SIZE)])
        batch = batched_makespans(heuristic, stacked)
        assert batch[0] == heuristic.schedule(grid, MESSAGE_SIZE).makespan
