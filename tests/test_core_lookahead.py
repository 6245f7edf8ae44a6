"""Tests for repro.core.lookahead."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.base import SchedulingState
from repro.core.lookahead import (
    LOOKAHEAD_FUNCTIONS,
    average_informed_columns,
    average_informed_lookahead,
    average_latency_columns,
    average_latency_lookahead,
    get_lookahead,
    grid_aware_max_lookahead,
    grid_aware_min_lookahead,
    min_edge_lookahead,
    no_lookahead,
)


@pytest.fixture
def state(heterogeneous_grid):
    return SchedulingState(grid=heterogeneous_grid, message_size=1_000, root=0)


class TestLookaheadValues:
    def test_no_lookahead_is_zero(self, state):
        assert no_lookahead(state, 1) == 0.0

    def test_min_edge_uses_cheapest_outgoing(self, state):
        # From cluster 1, the only other waiting cluster is 2: g=0.3, L=0.005.
        assert min_edge_lookahead(state, 1) == pytest.approx(0.305)

    def test_average_latency_over_waiting_set(self, state):
        assert average_latency_lookahead(state, 1) == pytest.approx(0.305)

    def test_grid_aware_min_adds_t(self, state):
        # Reaches cluster 2 whose T = 0.05.
        assert grid_aware_min_lookahead(state, 1) == pytest.approx(0.305 + 0.05)

    def test_grid_aware_max_adds_t(self, state):
        # From cluster 2 the only other waiting cluster is 1 (T = 2.0).
        assert grid_aware_max_lookahead(state, 2) == pytest.approx(0.305 + 2.0)

    def test_last_waiting_cluster_has_zero_lookahead(self, state):
        state.commit(0, 1)
        for function in LOOKAHEAD_FUNCTIONS.values():
            assert function(state, 2) == 0.0

    def test_average_informed_includes_candidate_promotion(self, state):
        value = average_informed_lookahead(state, 1)
        # Sources {0, 1} towards target {2}: mean of (0.51, 0.305).
        assert value == pytest.approx((0.51 + 0.305) / 2)


class _StubState:
    """Cluster 0's transfer times to the waiting clusters 1, 2 and 3."""

    waiting = {1, 2, 3}
    pending = [1, 2, 3]
    times = {1: 1e16, 2: 1.0, 3: 1.0}

    def transfer_time(self, source, target):
        return self.times[target]


def test_average_latency_sums_left_to_right():
    """The average is summed left to right on every Python: ``1e16 + 1.0``
    rounds back to ``1e16`` twice, where the compensated built-in ``sum``
    of Python 3.12 would keep the 2.0."""
    value = average_latency_lookahead(_StubState(), 0)
    assert value == ((1e16 + 1.0) + 1.0) / 3
    assert value != 1.0000000000000002e16 / 3
    transfer = np.zeros((1, 5, 5))
    transfer[0, 4, 1:4] = [1e16, 1.0, 1.0]
    penalty = np.array([[np.inf, 0.0, 0.0, 0.0, 0.0]])
    # Candidate 4's times to B∖{4} = {1, 2, 3} are the stub's.
    assert average_latency_columns(transfer, penalty)[0, 4] == value


class _InformedStubState:
    """Clusters 0, 1 and 2 informed, 3, 4 and 5 waiting.  Cluster 0 sends
    to cluster 3 in 1e16 s and to any other cluster in 3 s; every other
    transfer takes 1 s."""

    informed = [0, 1, 2]
    pending = [3, 4, 5]

    def transfer_time(self, source, target):
        if source == 0:
            return 1e16 if target == 3 else 3.0
        return 1.0


def test_average_informed_sums_left_to_right():
    """``Σ_{k ∈ B∖{j}} (col_k + T_jk)`` in one fixed order, on every Python
    (0x1.1c37937e08003p+50 under 3.10, 3.11 and 3.12): column 3 over A is
    ``1e16 + 1.0 + 1.0``, which rounds back to ``1e16`` twice.  Neither the
    direct double loop over ``(A ∪ {j}) × (B ∖ {j})`` nor compensated sums
    (``math.fsum``, Python 3.12's built-in ``sum``) give these bits."""
    state = _InformedStubState()
    value = average_informed_lookahead(state, 4)
    column_3 = ((0.0 + 1e16) + 1.0) + 1.0
    column_5 = ((0.0 + 3.0) + 1.0) + 1.0
    assert value == ((0.0 + (column_3 + 1.0)) + (column_5 + 1.0)) / ((3 + 1) * (3 - 1))
    assert value == float.fromhex("0x1.1c37937e08003p+50")
    direct = 0.0
    for source in (0, 1, 2, 4):
        for target in (3, 5):
            direct += state.transfer_time(source, target)
    assert value != direct / 8
    pairs = [(i, k) for i in (0, 1, 2, 4) for k in (3, 5)]
    assert value != math.fsum(state.transfer_time(i, k) for i, k in pairs) / 8
    transfer = np.zeros((1, 6, 6))
    for i, k in np.ndindex(6, 6):
        if i != k:
            transfer[0, i, k] = state.transfer_time(i, k)
    penalty = np.array([[np.inf] * 3 + [0.0] * 3])
    assert average_informed_columns(transfer, penalty)[0, 4] == value


def _found_transfer() -> np.ndarray:
    """A = {0, 1, 2}, B = {3, 4, 5}: ``T(0, 4) = 1e16``, every other transfer
    into 3 takes 2 s and the rest 1 s."""
    transfer = np.ones((6, 6))
    transfer[:, 3] = 2.0
    transfer[0, 4] = 1e16
    np.fill_diagonal(transfer, 0.0)
    return transfer


def test_average_informed_is_exact_in_every_engine():
    """The candidate's own 1e16 column must not cancel the small terms:
    over (A ∪ {4}) × (B ∖ {4}) the mean is exactly (6 + 2 + 3 + 1) / 8 = 1.5
    in the scalar loop, the per-grid column and the kernel rows (the old
    ``(total − col_j + row_j) / count`` form returned 1.375)."""
    from repro.core.batch import BatchedGridCosts, _LineUp, _row_spec
    from repro.core.ecef import ECEFLookahead
    from repro.core.lookahead import VECTORIZED_LOOKAHEADS
    from repro.topology.generators import RandomGridGenerator

    transfer = _found_transfer()
    grid = RandomGridGenerator().as_grid(np.zeros((6, 6)), transfer, np.zeros(6))
    state = SchedulingState(grid=grid, message_size=0, root=0)
    state.commit(0, 1)
    state.commit(0, 2)
    assert average_informed_lookahead(state, 4) == 1.5
    assert VECTORIZED_LOOKAHEADS[average_informed_lookahead](state)[4] == 1.5

    costs = BatchedGridCosts.from_arrays(
        np.zeros((1, 6, 6)), transfer[None], np.zeros((1, 6)), 0.0
    )
    heuristic = ECEFLookahead("average_informed")
    lineup = _LineUp([_row_spec(heuristic, 6)], costs, 0, False)
    for round_index, receiver in enumerate((1, 2)):
        lineup.commit(np.array([0]), np.array([receiver]), round_index)
    assert lineup._edge_penalty(False)[0, 4] == 1.5


class TestRegistry:
    def test_all_registered_names_resolve(self):
        for name in LOOKAHEAD_FUNCTIONS:
            assert callable(get_lookahead(name))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown lookahead"):
            get_lookahead("nope")

    def test_expected_names_present(self):
        assert {"min_edge", "grid_aware_min", "grid_aware_max"} <= set(LOOKAHEAD_FUNCTIONS)


def test_column_functions_need_lockstep_problems():
    """Three pending clusters in one problem and one in the other add up to
    two per problem, which must not pass for lockstep."""
    penalty = np.array([[np.inf, 0.0, 0.0, 0.0], [np.inf, np.inf, np.inf, 0.0]])
    for columns in (average_latency_columns, average_informed_columns):
        with pytest.raises(ValueError, match="same number of pending"):
            columns(np.zeros((2, 4, 4)), penalty)
