"""Dense pLogP cost matrices, computed once per (grid, message size).

Every scheduling decision — and the timing model that turns decisions into a
schedule — only ever reads three quantities: the inter-cluster gap
``g_{i,j}(m)``, the inter-cluster latency ``L_{i,j}`` and the intra-cluster
broadcast time ``T_i``.  The seed implementation recomputed all of them from
the :class:`~repro.topology.grid.Grid` for every ``SchedulingState``, i.e.
once *per heuristic per schedule*; at 10 000 Monte-Carlo iterations × 7
heuristics that is 70 000 full n×n matrix rebuilds per cluster count.

:class:`GridCostCache` computes the dense NumPy matrices exactly once per
``(grid, message_size)`` pair and shares them between

* every :class:`~repro.core.base.SchedulingState` (scalar and vectorized),
* :func:`~repro.core.base.run_heuristics`,
* the Monte-Carlo study (:mod:`repro.experiments.simulation_study`) and the
  hit-rate analysis built on top of it,
* :func:`~repro.core.schedule.evaluate_order`, and
* the batched simulator (:mod:`repro.simulator.batch`), which prices every
  message from the node-level tables of :meth:`GridCostCache.node_tables`.

The shared matrices are marked read-only so one heuristic cannot corrupt the
costs seen by the next; vectorized consumers that need scratch space copy the
relevant sub-matrices.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative


class GridCostCache:
    """Read-only dense cost matrices for one ``(grid, message_size)`` pair.

    Attributes
    ----------
    message_size:
        Message size in bytes the gap matrix was evaluated at.
    num_clusters:
        Number of clusters (the matrices are ``num_clusters`` square).
    gap, latency, transfer:
        ``(n, n)`` float arrays holding ``g_{i,j}(m)``, ``L_{i,j}`` and their
        sum ``g_{i,j}(m) + L_{i,j}``.  Diagonals are zero.
    broadcast:
        ``(n,)`` float array of the local broadcast times ``T_i`` (computed
        on first read).
    transfer_plus_broadcast:
        ``(n, n)`` float array ``g_{i,j}(m) + L_{i,j} + T_j`` (computed on
        first read).
    """

    #: Per-grid cache of instances, keyed weakly so entries die with the grid.
    _instances: "weakref.WeakKeyDictionary[Grid, dict[float, GridCostCache]]" = (
        weakref.WeakKeyDictionary()
    )

    #: Distinct message sizes cached per grid before the oldest entry is
    #: evicted — bounds memory for long-lived grids swept over many payload
    #: sizes (the Figures 5/6 sweep uses 10 sizes on one grid).
    MAX_SIZES_PER_GRID = 16

    def __init__(self, grid: Grid, message_size: float) -> None:
        check_non_negative(message_size, "message_size")
        n = grid.num_clusters
        latency, gap = grid.cost_matrices(message_size)
        self.message_size = float(message_size)
        self.num_clusters = n
        self.gap = gap
        self.latency = latency
        self.transfer = gap + latency
        for array in (self.gap, self.latency, self.transfer):
            array.setflags(write=False)
        # Weak back-reference only: a strong one would keep the grid (and this
        # cache, through _instances) alive forever.
        self._grid_ref = weakref.ref(grid)
        self._broadcast: np.ndarray | None = None
        self._transfer_plus_broadcast: np.ndarray | None = None
        self._min_incoming: list[float] | None = None
        self._node_tables: tuple[np.ndarray, np.ndarray] | None = None

    # -- shared construction -------------------------------------------------------

    @classmethod
    def for_grid(cls, grid: Grid, message_size: float) -> "GridCostCache":
        """The shared cache for ``(grid, message_size)``, built on first use.

        Grids are keyed by identity through a weak reference, so caches are
        reclaimed together with their grid — Monte-Carlo loops over millions
        of generated grids do not accumulate matrices.
        """
        per_grid = cls._instances.get(grid)
        if per_grid is None:
            per_grid = {}
            cls._instances[grid] = per_grid
        key = float(message_size)
        cache = per_grid.get(key)
        if cache is None:
            cache = cls(grid, message_size)
            while len(per_grid) >= cls.MAX_SIZES_PER_GRID:
                per_grid.pop(next(iter(per_grid)))  # FIFO eviction
            per_grid[key] = cache
        return cache

    @classmethod
    def build(cls, grid: Grid, message_size: float) -> "GridCostCache":
        """An *uncached* fresh instance (reference/benchmark baseline path)."""
        return cls(grid, message_size)

    # -- accessors -----------------------------------------------------------------

    def _live_grid(self) -> Grid:
        grid = self._grid_ref()
        if grid is None:
            raise ReferenceError("the grid of this cost cache was collected")
        return grid

    @property
    def broadcast(self) -> np.ndarray:
        """``(n,)`` read-only local broadcast times ``T_i``.

        Computed on first read: predicting ``T_i`` from a cluster's
        ``intra_params`` is the costliest part of a cache, and the batched
        simulator's :meth:`node_tables` never needs it — a collective
        priced at a hundred distinct message sizes would otherwise predict
        every cluster's broadcast at each of them.
        """
        if self._broadcast is None:
            broadcast = np.asarray(
                self._live_grid().broadcast_times(self.message_size), dtype=float
            )
            broadcast.setflags(write=False)
            self._broadcast = broadcast
        return self._broadcast

    @property
    def transfer_plus_broadcast(self) -> np.ndarray:
        """``(n, n)`` read-only ``g_{i,j}(m) + L_{i,j} + T_j``: BottomUp's
        scores and the grid-aware lookaheads' matrix, shared by every
        heuristic on this cache."""
        if self._transfer_plus_broadcast is None:
            matrix = self.transfer + self.broadcast[None, :]
            matrix.setflags(write=False)
            self._transfer_plus_broadcast = matrix
        return self._transfer_plus_broadcast

    @property
    def grid(self) -> Grid | None:
        """The grid the matrices were computed for (``None`` once collected)."""
        return self._grid_ref()

    def matches(self, grid: Grid, message_size: float) -> bool:
        """Whether this cache was computed for exactly this grid and size."""
        return self._grid_ref() is grid and self.message_size == float(message_size)

    def transfer_time(self, i: int, j: int) -> float:
        """``g_{i,j}(m) + L_{i,j}`` as a plain float (scalar reference path)."""
        return float(self.transfer[i, j])

    def gap_of(self, i: int, j: int) -> float:
        """``g_{i,j}(m)`` as a plain float."""
        return float(self.gap[i, j])

    def latency_of(self, i: int, j: int) -> float:
        """``L_{i,j}`` as a plain float."""
        return float(self.latency[i, j])

    def broadcast_time(self, i: int) -> float:
        """``T_i`` as a plain float."""
        return float(self.broadcast[i])

    def broadcast_list(self) -> list[float]:
        """All ``T_i`` values as a plain list (index order)."""
        return self.broadcast.tolist()

    def min_incoming(self) -> list[float]:
        """Cheapest incoming transfer per cluster: ``min_{i != j} g+L``.

        Used by the branch-and-bound lower bound of
        :class:`~repro.core.optimal.OptimalSearch`; computed lazily and cached
        because only the optimal search needs it.
        """
        if self._min_incoming is None:
            if self.num_clusters == 1:
                self._min_incoming = [0.0]
            else:
                masked = self.transfer.copy()
                np.fill_diagonal(masked, np.inf)
                self._min_incoming = masked.min(axis=0).tolist()
        return self._min_incoming

    def node_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(n, n)`` node-level ``(gap, latency)`` tables.

        Entry ``[i, j]`` is the gap at this message size and the latency of
        a message from a node of cluster ``i`` to a distinct node of cluster
        ``j``, bitwise what
        :meth:`~repro.topology.grid.Grid.node_link_parameters` gives: the
        inter-cluster :attr:`gap` / :attr:`latency` off the diagonal, the
        cluster's :meth:`~repro.topology.grid.Grid.intra_parameters` on it.
        The batched simulator prices every message from these tables; they
        are built on first use only, so studies that never simulate (the
        Monte-Carlo sweeps) never pay for them.
        """
        if self._node_tables is None:
            grid = self._live_grid()
            gap = self.gap.copy()
            latency = self.latency.copy()
            for cluster in range(self.num_clusters):
                params = grid.intra_parameters(cluster)
                gap[cluster, cluster] = params.gap(self.message_size)
                latency[cluster, cluster] = params.latency
            gap.setflags(write=False)
            latency.setflags(write=False)
            self._node_tables = (gap, latency)
        return self._node_tables

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridCostCache(clusters={self.num_clusters}, "
            f"message_size={self.message_size:.0f})"
        )
