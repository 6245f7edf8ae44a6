"""The heuristic interface and the shared A/B scheduling state."""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.costs import GridCostCache
from repro.core.schedule import BroadcastSchedule, ScheduledTransfer, check_order_types
from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative


class _ScoreRows:
    """One selection rule's ``(sender, receiver)`` scores, kept in place.

    An informed sender ``i``'s row holds ``RT_i + base_{i,j}`` (``base_{i,j}``
    alone for a rule without ready times), a pending sender's row +inf.  A
    *masked* rule also holds +inf on every informed column, so the pair it
    selects is one plain argmin; BottomUp's unmasked rows leave the columns
    to the state's pending penalty.  A commit rewrites only the sender's and
    the receiver's rows and, for a masked rule, the receiver's column.
    """

    __slots__ = ("base", "ready", "masked", "matrix")

    def __init__(
        self, state: "SchedulingState", base: np.ndarray, ready: bool, masked: bool
    ) -> None:
        self.base, self.ready, self.masked = base, ready, masked
        self.matrix = np.full(base.shape, np.inf)
        for sender in state._informed_sorted:
            self._rewrite(state, sender)

    def _rewrite(self, state: "SchedulingState", sender: int) -> None:
        row = self.matrix[sender]
        if self.ready:
            np.add(state._rt[sender], self.base[sender], out=row)
        else:
            np.copyto(row, self.base[sender])
        if self.masked:
            row += state._penalty

    def commit(self, state: "SchedulingState", sender: int, receiver: int) -> None:
        if self.masked:
            self.matrix[:, receiver] = np.inf
        if self.ready:
            self._rewrite(state, sender)
        self._rewrite(state, receiver)


@dataclass
class SchedulingState:
    """The A/B set formalism of paper §3, shared by all greedy heuristics.

    ``A`` holds the clusters whose coordinator already has (or is about to
    have) the message, together with the *ready time* ``RT_i`` at which that
    coordinator may start a new transmission.  ``B`` holds the clusters still
    waiting for the message.  Picking a pair moves the receiver from ``B`` to
    ``A`` and updates the sender's ready time by the gap of the transmission.

    The pLogP quantities (``g_{i,j}(m)``, ``L_{i,j}``, ``T_i``) are read from
    a :class:`~repro.core.costs.GridCostCache` that is shared across every
    heuristic evaluated on the same grid and message size, so the inner loops
    only do array reads and the matrices are built once per grid rather than
    once per heuristic.

    Every :meth:`commit` records the times of its transfer, so
    :meth:`to_schedule` builds the timed schedule without re-timing the
    decision order.

    Parameters
    ----------
    grid, message_size, root:
        The scheduling problem.
    costs:
        Optional pre-built cost cache; defaults to the shared per-grid cache.
    vectorized:
        When true (the default) the heuristics drive the state through the
        NumPy selection kernels below; when false they fall back to the
        scalar reference loops, which exist so the equivalence of the two
        engines stays testable.
    """

    # Equality compares the problem and the decision state (as in the seed
    # implementation); the cache and the NumPy mirrors are implementation
    # details (and ndarray __eq__ would break the generated __eq__ anyway).
    grid: Grid
    message_size: float
    root: int
    costs: GridCostCache | None = field(default=None, compare=False)
    vectorized: bool = field(default=True, compare=False)
    ready_time: dict[int, float] = field(init=False)
    waiting: set[int] = field(init=False)
    order: list[tuple[int, int]] = field(init=False)
    _informed_sorted: list[int] = field(init=False, repr=False, compare=False)
    _pending_sorted: list[int] = field(init=False, repr=False, compare=False)
    _rt: np.ndarray = field(init=False, repr=False, compare=False)
    _penalty: np.ndarray = field(init=False, repr=False, compare=False)
    _timings: list[tuple[float, ...]] = field(init=False, repr=False, compare=False)
    _rules: dict[tuple, _ScoreRows] = field(init=False, repr=False, compare=False)
    _lookaheads: dict[tuple, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_non_negative(self.message_size, "message_size")
        n = self.grid.num_clusters
        if not 0 <= self.root < n:
            raise ValueError(f"root must be a valid cluster index, got {self.root}")
        if self.costs is None:
            self.costs = GridCostCache.for_grid(self.grid, self.message_size)
        elif not self.costs.matches(self.grid, self.message_size):
            raise ValueError(
                "costs was computed for a different grid or message size"
            )
        self.ready_time = {self.root: 0.0}
        self.waiting = set(range(n)) - {self.root}
        self.order = []
        self._informed_sorted = [self.root]
        self._pending_sorted = [c for c in range(n) if c != self.root]
        self._rt = np.zeros(n, dtype=float)
        # 0 on the pending columns, +inf on the informed ones.
        self._penalty = np.zeros(n, dtype=float)
        self._penalty[self.root] = np.inf
        self._timings = []
        self._rules = {}
        self._lookaheads = {}

    # -- cached pLogP reads -------------------------------------------------------

    def gap(self, i: int, j: int) -> float:
        """Cached ``g_{i,j}(m)``."""
        return self.costs.gap_of(i, j)

    def latency(self, i: int, j: int) -> float:
        """Cached ``L_{i,j}``."""
        return self.costs.latency_of(i, j)

    def transfer_time(self, i: int, j: int) -> float:
        """Cached ``g_{i,j}(m) + L_{i,j}``."""
        return self.costs.transfer_time(i, j)

    def broadcast_time(self, i: int) -> float:
        """Cached intra-cluster broadcast time ``T_i``."""
        return self.costs.broadcast_time(i)

    @property
    def broadcast_times(self) -> list[float]:
        """All cached ``T_i`` values (index order)."""
        return self.costs.broadcast_list()

    # -- set manipulation -----------------------------------------------------------

    @property
    def informed(self) -> list[int]:
        """The clusters of set ``A``, in increasing index order.

        The sorted list is maintained incrementally on every
        :meth:`commit` instead of being re-sorted per property access, which
        the O(n³) selection loops of the heuristics do O(n²) times.
        """
        return list(self._informed_sorted)

    @property
    def pending(self) -> list[int]:
        """The clusters of set ``B``, in increasing index order (incremental)."""
        return list(self._pending_sorted)

    @property
    def done(self) -> bool:
        """Whether every cluster has been scheduled to receive the message."""
        return not self.waiting

    def completion_estimate(self, i: int, j: int) -> float:
        """``RT_i + g_{i,j}(m) + L_{i,j}``: the ECEF selection quantity."""
        return self.ready_time[i] + self.costs.transfer_time(i, j)

    def commit(self, sender: int, receiver: int) -> None:
        """Record the decision (sender -> receiver) and update both ready times."""
        if type(sender) is not int or type(receiver) is not int:
            check_order_types([*self.order, (sender, receiver)])
        if sender not in self.ready_time:
            raise ValueError(f"cluster {sender} is not informed yet")
        if receiver not in self.waiting:
            raise ValueError(f"cluster {receiver} is not waiting for the message")
        gap = self.costs.gap_of(sender, receiver)
        latency = self.costs.latency_of(sender, receiver)
        start = self.ready_time[sender]
        release = start + gap
        arrival = release + latency
        self.ready_time[sender] = release
        self.ready_time[receiver] = arrival
        self.waiting.remove(receiver)
        self.order.append((sender, receiver))
        self._timings.append((start, release, arrival, gap, latency))
        insort(self._informed_sorted, receiver)
        del self._pending_sorted[bisect_left(self._pending_sorted, receiver)]
        self._rt[sender] = release
        self._rt[receiver] = arrival
        self._penalty[receiver] = np.inf
        for rows in self._rules.values():
            rows.commit(self, sender, receiver)
        for matrix in self._lookaheads.values():
            matrix[:, receiver] = np.inf

    # -- vectorized selection kernels ------------------------------------------------
    #
    # Each selection rule keeps its score matrix in place (_ScoreRows), built
    # on the rule's first call and updated by every commit.  np.argmin /
    # np.argmax return the *first* occurrence of the extremum in row-major
    # order, which is exactly the tie-breaking of the scalar reference loops
    # (senders ascending, receivers ascending, strict comparisons), and every
    # score is the scalar loops' float expression — so both engines pick
    # identical pairs, ties included.

    def _score_rows(
        self, base: np.ndarray, *, ready: bool, masked: bool = True
    ) -> np.ndarray:
        key = (id(base), ready, masked)
        rows = self._rules.get(key)
        if rows is None:
            rows = self._rules[key] = _ScoreRows(self, base, ready, masked)
        return rows.matrix

    @staticmethod
    def _first_min(scores: np.ndarray) -> tuple[int, int]:
        return divmod(int(scores.argmin()), scores.shape[1])

    def select_min_completion(self) -> tuple[int, int]:
        """ECEF: argmin over A×B of ``RT_i + g_{i,j}(m) + L_{i,j}``."""
        return self._first_min(self._score_rows(self.costs.transfer, ready=True))

    def select_min_completion_plus(self, receiver_bonus: np.ndarray) -> tuple[int, int]:
        """ECEF-LA family: argmin of ``RT_i + g_{i,j}(m) + L_{i,j} + F_j``.

        ``receiver_bonus`` is a length-``n`` vector of lookahead values
        ``F_j``; entries outside ``B`` are ignored unless they are -inf or
        NaN (they are added to +inf).
        """
        scores = self._score_rows(self.costs.transfer, ready=True)
        return self._first_min(scores + receiver_bonus)

    def select_min_edge(self, weights: np.ndarray) -> tuple[int, int]:
        """FEF: argmin over A×B of a static edge-weight matrix.

        The state keeps one score matrix per ``weights`` array, so pass the
        same array every round (a :class:`~repro.core.costs.GridCostCache`
        matrix).
        """
        return self._first_min(self._score_rows(weights, ready=False))

    def select_bottom_up(self, *, use_ready_time: bool = False) -> tuple[int, int]:
        """BottomUp: max over B of the per-receiver cheapest completion.

        ``argmax_{j in B} min_{i in A} (g_{i,j}(m) + L_{i,j} + T_j [+ RT_i])``,
        returned as the (cheapest sender, selected receiver) pair.
        """
        scores = self._score_rows(
            self.costs.transfer_plus_broadcast, ready=use_ready_time, masked=False
        )
        cheapest_sender = scores.argmin(axis=0)
        cheapest = scores[cheapest_sender, np.arange(scores.shape[1])]
        receiver = int(np.argmax(cheapest - self._penalty))
        return int(cheapest_sender[receiver]), receiver

    def lookahead_minima(self, base: str, sign: float) -> np.ndarray:
        """A min-form lookahead column: ``F_j = s·min_{k in B∖{j}} s·base_{j,k}``.

        ``base`` names a :class:`~repro.core.costs.GridCostCache` matrix and
        ``s`` is ``sign`` (-1 turns the minimum into ECEF-LAT's maximum).
        The state keeps ``s·base`` with +inf on the diagonal and on the
        informed columns (a commit sets the leaving receiver's), so ``F`` is
        one row minimum; entries outside ``B`` are finite and meaningless.
        ``F`` is 0 once ``B`` holds a single cluster.
        """
        if len(self._pending_sorted) < 2:
            return np.zeros(self.grid.num_clusters)
        matrix = self._lookaheads.get((base, sign))
        if matrix is None:
            matrix = getattr(self.costs, base) * sign
            np.fill_diagonal(matrix, np.inf)
            matrix[:, self._informed_sorted] = np.inf
            self._lookaheads[base, sign] = matrix
        minima = matrix.min(axis=1)
        return minima if sign > 0 else np.negative(minima, out=minima)

    def to_schedule(self, heuristic_name: str = "") -> BroadcastSchedule:
        """The timed schedule of the decisions, from the times :meth:`commit`
        recorded: the floats :func:`~repro.core.schedule.evaluate_order`
        computes for the same order."""
        check_order_types(self.order)
        if self.waiting:
            raise ValueError(f"clusters {sorted(self.waiting)} never receive the message")
        n = self.grid.num_clusters
        arrival_times = [0.0] * n
        transfers = []
        for (sender, receiver), timing in zip(self.order, self._timings):
            transfers.append(ScheduledTransfer(sender, receiver, *timing))
            arrival_times[receiver] = timing[2]
        local_start_times = [self.ready_time[c] for c in range(n)]
        return BroadcastSchedule(
            root=self.root,
            num_clusters=n,
            message_size=self.message_size,
            transfers=transfers,
            arrival_times=arrival_times,
            local_start_times=local_start_times,
            completion_times=[
                start + broadcast
                for start, broadcast in zip(local_start_times, self.broadcast_times)
            ],
            heuristic_name=heuristic_name,
        )


class SchedulingHeuristic(ABC):
    """Base class of every inter-cluster broadcast scheduling heuristic.

    Subclasses implement :meth:`build_order`, which receives a fresh
    :class:`SchedulingState` and must drive it to completion (every cluster
    informed).  The public entry point :meth:`schedule` wraps that order into
    a timed :class:`~repro.core.schedule.BroadcastSchedule` using the shared
    cost model, so all heuristics are compared on an equal footing.
    """

    #: Registry key (lowercase, no spaces).  Set by subclasses.
    key: str = ""
    #: Display name matching the paper's figures.  Set by subclasses.
    display_name: str = ""

    @abstractmethod
    def build_order(self, state: SchedulingState) -> None:
        """Drive ``state`` until :attr:`SchedulingState.done` is true."""

    def _completed_state(
        self,
        grid: Grid,
        message_size: float,
        root: int,
        costs: GridCostCache | None,
        vectorized: bool,
    ) -> SchedulingState:
        """Build a fresh state and drive it to completion via ``build_order``."""
        state = SchedulingState(
            grid=grid,
            message_size=message_size,
            root=root,
            costs=costs,
            vectorized=vectorized,
        )
        if not state.done:
            self.build_order(state)
        if not state.done:
            raise RuntimeError(
                f"heuristic {self.name!r} finished without informing every cluster"
            )
        return state

    def schedule(
        self,
        grid: Grid,
        message_size: float,
        *,
        root: int = 0,
        costs: GridCostCache | None = None,
        vectorized: bool = True,
    ) -> BroadcastSchedule:
        """Compute a timed broadcast schedule for ``grid``.

        Parameters
        ----------
        grid:
            The grid topology.
        message_size:
            Message size in bytes.
        root:
            Index of the cluster initially holding the message.
        costs:
            Optional shared :class:`~repro.core.costs.GridCostCache`;
            defaults to the per-grid shared cache.
        vectorized:
            Use the NumPy selection kernels (default) or the scalar reference
            loops.
        """
        state = self._completed_state(grid, message_size, root, costs, vectorized)
        return state.to_schedule(heuristic_name=self.name)

    def makespan(
        self,
        grid: Grid,
        message_size: float,
        *,
        root: int = 0,
        costs: GridCostCache | None = None,
        vectorized: bool = True,
    ) -> float:
        """The makespan of :meth:`schedule`, without materialising the schedule.

        The state already tracks every cluster's final ready time, so the
        makespan is ``max_c (RT_c + T_c)`` — identical to timing the decision
        order but skipping the per-transfer bookkeeping.  Monte-Carlo loops
        that only need makespans should call this instead of
        ``schedule(...).makespan``.
        """
        state = self._completed_state(grid, message_size, root, costs, vectorized)
        return float(np.max(state._rt + state.costs.broadcast))

    @property
    def name(self) -> str:
        """The display name of the heuristic."""
        return self.display_name or type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def run_heuristics(
    heuristics: Sequence[SchedulingHeuristic],
    grid: Grid,
    message_size: float,
    *,
    root: int = 0,
    costs: GridCostCache | None = None,
) -> dict[str, BroadcastSchedule]:
    """Run several heuristics on the same grid and collect their schedules.

    The per-grid cost matrices and broadcast times are computed once (in the
    shared :class:`~repro.core.costs.GridCostCache`) and reused by every
    heuristic and by the schedule timing, which is what makes the
    10 000-iteration Monte-Carlo loops of the paper tractable.
    """
    if costs is None:
        costs = GridCostCache.for_grid(grid, message_size)
    results: dict[str, BroadcastSchedule] = {}
    for heuristic in heuristics:
        results[heuristic.name] = heuristic.schedule(
            grid, message_size, root=root, costs=costs
        )
    return results
