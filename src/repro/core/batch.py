"""Batched scheduling: run one heuristic on many problems simultaneously.

The Monte-Carlo studies of the paper (Figures 1–4) schedule the *same*
heuristic on thousands of independent random grids of identical size.  Doing
that one grid at a time leaves NumPy's per-call overhead as the dominant cost
for small grids — at 10 clusters a masked ``argmin`` over a 10×10 matrix is
pure dispatch overhead.  This module stacks the per-grid cost matrices of a
whole batch into ``(K, n, n)`` arrays and advances **all K grids one selection
round at a time**, so every NumPy call does K grids' worth of work.

The batched kernels mirror the per-grid selection rules exactly — the same
score formulas, the same row-major first-occurrence tie-breaking — so a
batched run produces bit-identical makespans to the per-grid engines (scalar
and vectorized) for every paper heuristic and min/max lookahead; the
equivalence test-suite asserts exactly that.  The two *average*-based
ablation lookaheads reduce via BLAS matmuls whose summation order differs
from the other engines', so their scores can differ by ULPs and agreement is
only exact when no two candidate scores are within ULPs of each other (they
are covered by fixed-seed tests instead of the hypothesis sweep).

The batch axis is either K grids of one size (the Monte-Carlo study,
:func:`batched_makespans`) or K message sizes of one grid (the Table 3
sweep, :func:`batched_schedules`).  The latter records every round's
decision and timing, so each :class:`~repro.core.schedule.BroadcastSchedule`
comes straight out of the kernel without timing the order a second time.

Only the heuristics of the paper's Monte-Carlo line-up have batched kernels
(ECEF, the ECEF-LA family with registered lookaheads, FEF, BottomUp, Flat
Tree, and Mixed by delegation).  :func:`batched_makespans` returns ``None``
for anything else — e.g. :class:`~repro.core.optimal.OptimalSearch` or a
custom heuristic — and callers fall back to the per-grid path.
:func:`batched_schedules` additionally declines the two average-based
lookaheads, whose schedules must equal the per-grid ones field for field.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.base import SchedulingHeuristic
from repro.core.bottomup import BottomUp
from repro.core.costs import GridCostCache
from repro.core.ecef import ECEF, ECEFLookahead
from repro.core.fef import FastestEdgeFirst
from repro.core.flat_tree import FlatTreeHeuristic
from repro.core.lookahead import (
    average_informed_lookahead,
    average_latency_lookahead,
    grid_aware_max_lookahead,
    grid_aware_min_lookahead,
    min_edge_lookahead,
    no_lookahead,
)
from repro.core.mixed import MixedStrategy
from repro.core.schedule import BroadcastSchedule, ScheduledTransfer

#: Upper bound on the stacked matrix *elements* (``K * n * n``) of one batch;
#: keeps a stack within a few dozen megabytes whatever the cluster count or
#: the number of grids or message sizes to schedule.
MAX_BATCH_ELEMENTS = 2_000_000


def max_batch_size(num_clusters: int) -> int:
    """The most ``num_clusters``-cluster problems one stack may hold (>= 1)."""
    return max(1, MAX_BATCH_ELEMENTS // max(1, num_clusters * num_clusters))


class BatchedGridCosts:
    """Stacked cost matrices of ``K`` same-sized grids (or of one grid at
    ``K`` message sizes).

    Every batched kernel round touches each stacked cell a constant number
    of times, so the study runtime prices a Monte-Carlo chunk at
    ``iterations * clusters**2`` cells when it sizes chunks and picks an
    executor lane (:mod:`repro.runtime.chunking`).

    Attributes
    ----------
    caches:
        The stacked :class:`~repro.core.costs.GridCostCache` objects, in
        batch order.
    num_grids, num_clusters:
        The stack dimensions ``K`` and ``n``.
    gap, latency, transfer:
        ``(K, n, n)`` arrays (zero diagonals).
    broadcast:
        ``(K, n)`` array of local broadcast times.
    """

    def __init__(self, caches: Sequence[GridCostCache]) -> None:
        if not caches:
            raise ValueError("BatchedGridCosts needs at least one grid")
        sizes = {cache.num_clusters for cache in caches}
        if len(sizes) != 1:
            raise ValueError(
                f"all grids of a batch must have the same size, got {sorted(sizes)}"
            )
        self.caches = tuple(caches)
        self.num_grids = len(caches)
        self.num_clusters = sizes.pop()
        self.gap = np.stack([cache.gap for cache in caches])
        self.latency = np.stack([cache.latency for cache in caches])
        self.transfer = np.stack([cache.transfer for cache in caches])
        self.broadcast = np.stack([cache.broadcast for cache in caches])
        self._transfer_plus_broadcast: np.ndarray | None = None

    @property
    def transfer_plus_broadcast(self) -> np.ndarray:
        """``g_{i,j}(m) + L_{i,j} + T_j`` per grid (grid-aware lookaheads)."""
        if self._transfer_plus_broadcast is None:
            self._transfer_plus_broadcast = self.transfer + self.broadcast[:, None, :]
        return self._transfer_plus_broadcast


class _BatchedState:
    """Ready times and A/B membership of ``K`` grids advancing in lockstep.

    With ``record=True`` every round's decisions and timings are kept in
    ``(K, n - 1)`` arrays, from which :meth:`schedules` builds the timed
    schedules; the makespan-only path leaves recording off.
    """

    def __init__(
        self, costs: BatchedGridCosts, root: int, *, record: bool = False
    ) -> None:
        if not 0 <= root < costs.num_clusters:
            raise ValueError(f"root must be a valid cluster index, got {root}")
        K, n = costs.num_grids, costs.num_clusters
        self.costs = costs
        self.root = root
        self.rt = np.zeros((K, n))
        self.informed = np.zeros((K, n), dtype=bool)
        self.informed[:, root] = True
        self.pending = ~self.informed
        self.informed_f = self.informed.astype(float)
        self.pending_f = self.pending.astype(float)
        self._grid_index = np.arange(K)
        self._scores = np.empty((K, n, n))
        self._diag = np.arange(n)
        self._round = 0
        # (sender, receiver) and (start, release, arrival, gap, latency) of
        # every round.
        self._pairs = np.empty((2, K, n - 1), dtype=np.intp) if record else None
        self._times = np.empty((5, K, n - 1)) if record else None

    # Every round, each of the K grids commits its own (sender, receiver).
    def commit(self, senders: np.ndarray, receivers: np.ndarray) -> None:
        k = self._grid_index
        gap = self.costs.gap[k, senders, receivers]
        latency = self.costs.latency[k, senders, receivers]
        start = self.rt[k, senders]
        release = start + gap
        arrival = release + latency
        self.rt[k, senders] = release
        self.rt[k, receivers] = arrival
        if self._pairs is not None:
            self._pairs[:, :, self._round] = senders, receivers
            self._times[:, :, self._round] = start, release, arrival, gap, latency
            self._round += 1
        self.informed[k, receivers] = True
        self.pending[k, receivers] = False
        self.informed_f[k, receivers] = 1.0
        self.pending_f[k, receivers] = 0.0

    def masked_argmin(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-grid argmin over A×B; first occurrence in row-major order.

        Row-major first-occurrence matches the scalar loops' tie-breaking
        (senders ascending, receivers ascending, strict comparisons).
        """
        scores[~self.informed, :] = np.inf
        scores.transpose(0, 2, 1)[~self.pending, :] = np.inf
        n = self.costs.num_clusters
        flat = scores.reshape(self.costs.num_grids, n * n).argmin(axis=1)
        return flat // n, flat % n

    def makespans(self) -> np.ndarray:
        """``max_c (RT_c + T_c)`` per grid — identical to the timed schedule."""
        return (self.rt + self.costs.broadcast).max(axis=1)

    def schedules(self, heuristic_name: str) -> list[BroadcastSchedule]:
        """The recorded rounds as one timed schedule per grid.

        Every value was computed by :meth:`commit` with the same float
        operations, in the same order, as
        :func:`~repro.core.schedule.evaluate_order` would time the decisions,
        so the schedules equal the per-grid engines' field for field.
        """
        K, n = self.rt.shape
        arrival_times = np.zeros((K, n))
        arrival_times[self._grid_index[:, None], self._pairs[1]] = self._times[2]
        rounds = zip(*(column.tolist() for column in (*self._pairs, *self._times)))
        return [
            BroadcastSchedule(
                root=self.root,
                num_clusters=n,
                message_size=cache.message_size,
                transfers=[
                    ScheduledTransfer(*fields) for fields in zip(*decisions)
                ],
                arrival_times=arrivals,
                local_start_times=starts,
                completion_times=completions,
                heuristic_name=heuristic_name,
            )
            for cache, decisions, arrivals, starts, completions in zip(
                self.costs.caches,
                rounds,
                arrival_times.tolist(),
                self.rt.tolist(),
                (self.rt + self.costs.broadcast).tolist(),
            )
        ]


# -- batched lookahead columns -------------------------------------------------------
#
# Each returns the (K, n) matrix of F_j values for the current pending sets;
# entries at non-pending j are garbage and are masked away by the selection.
# They are only called while every grid still has >= 2 pending clusters (the
# final round skips the lookahead: with one candidate left F_j is a constant
# offset, exactly the scalar convention of returning 0).

_BatchedLookahead = Callable[[_BatchedState], np.ndarray]


def _batch_zero(state: _BatchedState) -> np.ndarray:
    return np.zeros((state.costs.num_grids, state.costs.num_clusters))


def _batch_min_edge(state: _BatchedState) -> np.ndarray:
    masked = np.where(state.pending[:, None, :], state.costs.transfer, np.inf)
    masked[:, state._diag, state._diag] = np.inf
    return masked.min(axis=2)


def _batch_average_latency(state: _BatchedState) -> np.ndarray:
    # Zero diagonal => the row sums over pending columns already exclude j.
    sums = np.matmul(state.costs.transfer, state.pending_f[:, :, None])[:, :, 0]
    others = state.pending_f.sum(axis=1) - 1.0
    return sums / others[:, None]


def _batch_average_informed(state: _BatchedState) -> np.ndarray:
    transfer = state.costs.transfer
    column_sums = np.matmul(state.informed_f[:, None, :], transfer)[:, 0, :]
    row_sums = np.matmul(transfer, state.pending_f[:, :, None])[:, :, 0]
    total = (column_sums * state.pending_f).sum(axis=1)
    informed_count = state.informed_f.sum(axis=1)
    others = state.pending_f.sum(axis=1) - 1.0
    count = (informed_count + 1.0) * others
    return (total[:, None] - column_sums + row_sums) / count[:, None]


def _batch_grid_aware_min(state: _BatchedState) -> np.ndarray:
    masked = np.where(
        state.pending[:, None, :], state.costs.transfer_plus_broadcast, np.inf
    )
    masked[:, state._diag, state._diag] = np.inf
    return masked.min(axis=2)


def _batch_grid_aware_max(state: _BatchedState) -> np.ndarray:
    masked = np.where(
        state.pending[:, None, :], state.costs.transfer_plus_broadcast, -np.inf
    )
    masked[:, state._diag, state._diag] = -np.inf
    return masked.max(axis=2)


_BATCHED_LOOKAHEADS: dict[object, _BatchedLookahead] = {
    no_lookahead: _batch_zero,
    min_edge_lookahead: _batch_min_edge,
    average_latency_lookahead: _batch_average_latency,
    average_informed_lookahead: _batch_average_informed,
    grid_aware_min_lookahead: _batch_grid_aware_min,
    grid_aware_max_lookahead: _batch_grid_aware_max,
}


# -- batched heuristic drivers -------------------------------------------------------
#
# Each drives a fresh state through its ``n - 1`` selection rounds.


def _run_ecef_family(
    state: _BatchedState, lookahead: _BatchedLookahead | None
) -> None:
    costs = state.costs
    n = costs.num_clusters
    for round_index in range(n - 1):
        scores = np.add(state.rt[:, :, None], costs.transfer, out=state._scores)
        pending_count = n - 1 - round_index
        if lookahead is not None and pending_count > 1:
            scores += lookahead(state)[:, None, :]
        state.commit(*state.masked_argmin(scores))


def _run_fef(state: _BatchedState, weight: str) -> None:
    costs = state.costs
    weights = costs.latency if weight == "latency" else costs.transfer
    for _ in range(costs.num_clusters - 1):
        np.copyto(state._scores, weights)
        state.commit(*state.masked_argmin(state._scores))


def _run_bottom_up(state: _BatchedState, use_ready_time: bool) -> None:
    costs = state.costs
    k = state._grid_index
    for _ in range(costs.num_clusters - 1):
        scores = np.add(
            costs.transfer, costs.broadcast[:, None, :], out=state._scores
        )
        if use_ready_time:
            scores += state.rt[:, :, None]
        scores[~state.informed, :] = np.inf
        cheapest = scores.min(axis=1)
        cheapest_sender = scores.argmin(axis=1)
        cheapest[~state.pending] = -np.inf
        receivers = cheapest.argmax(axis=1)
        state.commit(cheapest_sender[k, receivers], receivers)


def _run_flat_tree(state: _BatchedState, heuristic: FlatTreeHeuristic) -> None:
    targets = heuristic.resolve_targets(state.root, state.costs.num_clusters)
    K = state.costs.num_grids
    senders = np.full(K, state.root)
    for target in targets:
        state.commit(senders, np.full(K, target))


#: Lookaheads whose batched scores are only ULP-close to the per-grid ones
#: (BLAS matmul reductions); fine for makespans, not for exact schedules.
_INEXACT_LOOKAHEADS = frozenset(
    {average_latency_lookahead, average_informed_lookahead}
)


def _resolve_kernel(
    heuristic: SchedulingHeuristic, num_clusters: int, *, exact: bool = False
) -> Callable[[_BatchedState], None] | None:
    """The batched kernel for ``heuristic`` as ``state -> None``.

    Returns ``None`` when the heuristic has no batched kernel, or when
    ``exact`` asks for one that reproduces the per-grid engines bit for bit
    and the heuristic's lookahead does not.  Dispatch is on the *exact* type
    — a subclass may override ``build_order``, so it must take the per-grid
    path rather than silently inheriting the parent's kernel.
    """
    kind = type(heuristic)
    if kind is MixedStrategy:
        return _resolve_kernel(
            heuristic.choose(num_clusters), num_clusters, exact=exact
        )
    if kind is ECEFLookahead:
        lookahead = _BATCHED_LOOKAHEADS.get(heuristic.lookahead)
        inexact = exact and heuristic.lookahead in _INEXACT_LOOKAHEADS
        if lookahead is None or inexact:
            return None
        return lambda state: _run_ecef_family(state, lookahead)
    if kind is ECEF:
        return lambda state: _run_ecef_family(state, None)
    if kind is FastestEdgeFirst:
        return lambda state: _run_fef(state, heuristic.weight)
    if kind is BottomUp:
        return lambda state: _run_bottom_up(state, heuristic.use_ready_time)
    if kind is FlatTreeHeuristic:
        return lambda state: _run_flat_tree(state, heuristic)
    return None


def has_batched_kernel(heuristic: SchedulingHeuristic, num_clusters: int) -> bool:
    """Whether :func:`batched_makespans` would handle this heuristic.

    Lets callers avoid stacking a :class:`BatchedGridCosts` at all when every
    configured heuristic needs the per-grid fallback anyway.
    """
    return _resolve_kernel(heuristic, num_clusters) is not None


def batched_makespans(
    heuristic: SchedulingHeuristic,
    costs: BatchedGridCosts,
    *,
    root: int = 0,
) -> np.ndarray | None:
    """Makespans of ``heuristic`` on every grid of the batch, or ``None``.

    ``None`` means the heuristic has no batched kernel (exhaustive search,
    custom heuristics, custom lookahead callables); the caller should fall
    back to scheduling grid by grid.
    """
    kernel = _resolve_kernel(heuristic, costs.num_clusters)
    if kernel is None:
        return None
    state = _BatchedState(costs, root)
    kernel(state)
    return state.makespans()


def batched_schedules(
    heuristic: SchedulingHeuristic,
    costs: BatchedGridCosts,
    *,
    root: int = 0,
) -> list[BroadcastSchedule] | None:
    """Timed schedules of ``heuristic`` at every message size of one grid.

    ``costs`` stacks one grid's :class:`~repro.core.costs.GridCostCache` at
    K message sizes; one kernel call schedules all K of them.  Each schedule
    equals ``heuristic.schedule(grid, size, root=root)`` field for field
    (its ``message_size`` is the cache's float size).  ``None`` means the
    heuristic has no exact batched kernel (exhaustive search, custom
    heuristics or lookaheads, the average-based lookaheads); the caller
    should fall back to :meth:`~repro.core.base.SchedulingHeuristic.schedule`
    size by size.

    Raises
    ------
    ValueError
        If the stacked caches were built for different grids, or ``root`` is
        not a cluster of the grid.
    """
    grid = costs.caches[0].grid
    if any(cache.grid is not grid for cache in costs.caches):
        raise ValueError("costs was computed for a different grid or message size")
    kernel = _resolve_kernel(heuristic, costs.num_clusters, exact=True)
    if kernel is None:
        return None
    state = _BatchedState(costs, root, record=True)
    kernel(state)
    return state.schedules(heuristic.name)
