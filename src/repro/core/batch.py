"""Batched scheduling: a whole heuristic line-up on many problems at once.

The Monte-Carlo studies of the paper (Figures 1–4) schedule the *same*
heuristics on thousands of random grids of identical size, where one grid at
a time leaves NumPy's per-call overhead dominant.  This module stacks a
batch's cost matrices into ``(K, n, n)`` arrays and advances **every
heuristic of the line-up on all K problems one selection round at a time**;
each heuristic owns K rows of the kernel state.  The batch axis is K grids
of one size (the Monte-Carlo study) or K message sizes of one grid (the
Table 3 sweep, which records every round's ``(sender, receiver)`` pair and
hands the pair arrays straight to the program builder; timed
:class:`~repro.core.schedule.BroadcastSchedule` objects are built from the
same record only for callers that ask for them).

Score matrices are kept up to date in place: an informed sender ``i``'s row
holds ``RT_i·c + base_{i,j}`` (``g + L`` for the ECEF family, ``L`` or
``g + L`` with ``c = 0`` for FEF, ``g + L + T_j`` for BottomUp), a pending
sender's row holds +∞, and a commit rewrites only the sender's and the
receiver's rows.  A min-form lookahead's matrix gets the leaving receiver's
column set to +∞, so ``F_j`` is a plain minimum (ECEF-LAT's maximum is the
minimum of the negated matrix).  Every score is the float expression
the per-grid engines evaluate, with their row-major first-occurrence
tie-breaking, so makespans and schedules are bit-identical to theirs for
every paper heuristic and registered lookahead; an average lookahead's
``F`` comes from the column function the per-grid engine calls too.
Heuristics without kernel rows — e.g.
:class:`~repro.core.optimal.OptimalSearch` or custom ones — get ``None``,
and callers fall back to the per-grid path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import SchedulingHeuristic
from repro.core.bottomup import BottomUp
from repro.core.costs import GridCostCache
from repro.core.ecef import ECEF, ECEFLookahead
from repro.core.fef import FastestEdgeFirst
from repro.core.flat_tree import FlatTreeHeuristic
from repro.core.lookahead import (
    AVERAGE_FORM_LOOKAHEADS,
    MIN_FORM_LOOKAHEADS,
    no_lookahead,
)
from repro.core.mixed import MixedStrategy
from repro.core.schedule import BroadcastSchedule, ScheduledTransfer

#: Upper bound on the stacked score *elements* (``K * rows * n * n``) of one
#: batch; keeps a stack within a few dozen megabytes whatever the cluster
#: count, the line-up or the number of grids or message sizes to schedule.
MAX_BATCH_ELEMENTS = 2_000_000


def max_batch_size(num_clusters: int, rows: int) -> int:
    """The most ``num_clusters``-cluster problems one stack may hold (>= 1)
    when a line-up of ``rows`` heuristics schedules each of them."""
    return max(1, MAX_BATCH_ELEMENTS // max(1, rows * num_clusters**2))


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
        batch order (empty for a stack built :meth:`from_arrays`).
    message_sizes:
        Each problem's message size in bytes, as a float.
    num_grids, num_clusters:
        The stack dimensions ``K`` and ``n``.
    gap, latency, transfer, transfer_plus_broadcast:
        ``(K, n, n)`` arrays; the last adds ``T_j`` to ``transfer``.
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
        self._adopt(
            np.stack([cache.latency for cache in caches]),
            np.stack([cache.gap for cache in caches]),
            np.stack([cache.broadcast for cache in caches]),
            tuple(cache.message_size for cache in caches),
        )
        self.caches = tuple(caches)

    @classmethod
    def from_arrays(
        cls,
        latency: np.ndarray,
        gap: np.ndarray,
        broadcast: np.ndarray,
        message_size: float,
    ) -> "BatchedGridCosts":
        """A stack straight from ``(K, n, n)`` latency and gap stacks
        (already evaluated at ``message_size``) and the ``(K, n)`` broadcast
        times, such as the draw of
        :meth:`~repro.topology.generators.RandomGridGenerator.generate_stack`.
        The arrays are adopted, not copied."""
        if latency.ndim != 3 or latency.shape[0] == 0:
            raise ValueError("BatchedGridCosts needs a (K, n, n) stack, K >= 1")
        if gap.shape != latency.shape or broadcast.shape != latency.shape[:2]:
            raise ValueError("latency, gap and broadcast stacks must match")
        costs = cls.__new__(cls)
        costs._adopt(latency, gap, broadcast, (float(message_size),) * len(latency))
        costs.caches = ()
        return costs

    def _adopt(
        self,
        latency: np.ndarray,
        gap: np.ndarray,
        broadcast: np.ndarray,
        message_sizes: tuple[float, ...],
    ) -> None:
        self.num_grids, self.num_clusters = latency.shape[:2]
        self.message_sizes = message_sizes
        self.latency, self.gap, self.broadcast = latency, gap, broadcast
        self.transfer = gap + latency
        self.transfer_plus_broadcast = self.transfer + broadcast[:, None, :]


# -- line-up rows --------------------------------------------------------------------
# A heuristic's kernel is a row spec ``(group, base, ready weight, extra)``;
# specs stack in group order, so each group's rows are one contiguous slice.

_MIN_LOOKAHEAD, _AVERAGE_LOOKAHEAD, _EDGE, _BOTTOM_UP, _FLAT = range(5)

#: Lookahead rows: a min-form lookahead names the stacked matrix whose row
#: minima over the pending columns give F_j, and the sign turning that
#: minimum into F_j; an average one its column function.
_LOOKAHEADS = {
    **{fn: (_MIN_LOOKAHEAD, form) for fn, form in MIN_FORM_LOOKAHEADS.items()},
    **{fn: (_AVERAGE_LOOKAHEAD, cols) for fn, cols in AVERAGE_FORM_LOOKAHEADS.items()},
}


def _row_spec(heuristic: SchedulingHeuristic, num_clusters: int) -> tuple | None:
    """The kernel rows of ``heuristic`` (``None``: none).  Dispatch is on the
    *exact* type: a subclass may override ``build_order``."""
    kind = type(heuristic)
    if kind is MixedStrategy:
        return _row_spec(heuristic.choose(num_clusters), num_clusters)
    lookahead = getattr(heuristic, "lookahead", None)
    if kind is ECEF or (kind is ECEFLookahead and lookahead is no_lookahead):
        return (_EDGE, "transfer", 1.0, None)
    if kind is ECEFLookahead:
        group, extra = _LOOKAHEADS.get(lookahead, (None, None))
        return None if group is None else (group, "transfer", 1.0, extra)
    if kind is FastestEdgeFirst:
        base = "latency" if heuristic.weight == "latency" else "transfer"
        return (_EDGE, base, 0.0, None)
    if kind is BottomUp:
        weight = float(heuristic.use_ready_time)
        return (_BOTTOM_UP, "transfer_plus_broadcast", weight, None)
    if kind is FlatTreeHeuristic:
        return (_FLAT, None, 0.0, heuristic)
    return None


class _LineUp:
    """Ready times, score rows and lookahead columns of a line-up advancing
    over ``K`` problems in lockstep.

    Row ``p * K + k`` is the ``p``-th distinct spec on problem ``k``.  Rows
    ``[0, edge_end)`` select an edge by argmin (the first ``min_end`` with a
    min-form lookahead), ``[edge_end, scored_end)`` are BottomUp rows and the
    rest follow a Flat Tree order.  ``record=True`` keeps every round for
    :meth:`pairs` and :meth:`schedules`.

    Each round gathers and scatters through flat indices: row ``r``'s
    cluster ``c`` is cell ``r·n + c`` of the ready times and the penalty
    rows, and score row ``r·n + i`` holds sender ``i``'s scores.
    """

    def __init__(
        self, specs: Sequence[tuple], costs: BatchedGridCosts, root: int, record: bool
    ) -> None:
        K, n = costs.num_grids, costs.num_clusters
        groups = [spec[0] for spec in specs]
        ends = np.cumsum([K * groups.count(group) for group in range(_FLAT)])
        self.min_end, _, self.edge_end, self.scored_end = ends.tolist()
        self.costs, self.root, self.n = costs, root, n
        rows = len(specs) * K
        self.rt = np.zeros((rows, n))
        self._rt = self.rt.reshape(-1)
        self._row_cells = np.arange(rows) * n
        self._problem_cells = np.tile(np.arange(K) * (n * n), len(specs))
        self._gap, self._latency = costs.gap.reshape(-1), costs.latency.reshape(-1)
        scored, flat = specs[: self.scored_end // K], specs[self.scored_end // K :]
        targets = [spec[3].resolve_targets(root, n) for spec in flat]
        self.flat_targets = np.array(targets, dtype=np.intp).reshape(len(flat), n - 1)
        self.flat_targets = self.flat_targets.repeat(K, axis=0)
        self.averages = [spec[3] for spec in specs if spec[0] == _AVERAGE_LOOKAHEAD]

        # Scores: RT_i·c + base_ij on informed rows, +inf on pending ones.
        bases = [getattr(costs, spec[1]) for spec in scored] or [np.empty((0, n, n))]
        self._base_rows = np.concatenate(bases).reshape(-1, n)
        self.scores = np.full((self.scored_end, n, n), np.inf)
        self._score_rows = self.scores.reshape(-1, n)
        self.penalty = np.zeros((self.scored_end, n))
        self.penalty[:, root] = np.inf
        self._penalty = self.penalty.reshape(-1)
        self._scratch = np.empty((self.edge_end, n, n))
        self._columns = np.empty((self.edge_end, n))
        self._rewrite_weights = np.repeat([spec[2] for spec in scored], K)
        self._ends = np.empty((2, rows), dtype=np.intp)
        self._ends[:] = self._row_cells + root
        self._rewrite(self._ends[:, : self.scored_end])

        # Min-form lookaheads, laid out (k, row, j) so that F_j's minimum
        # over k reduces whole (row, j) planes: k = j and informed k at +inf.
        minimum = [spec[3] for spec in specs if spec[0] == _MIN_LOOKAHEAD]
        self.lookahead = np.empty((n, self.min_end, n))
        for position, (name, sign) in enumerate(minimum):
            rows_of_spec = self.lookahead[:, position * K : (position + 1) * K]
            np.multiply(getattr(costs, name).transpose(2, 0, 1), sign, out=rows_of_spec)
        self.lookahead[np.arange(n), :, np.arange(n)] = np.inf
        self.lookahead[root] = np.inf
        self._min_rows = np.arange(self.min_end)
        self.sign = np.repeat([sign for _, sign in minimum], K)[:, None]

        rounds = (rows, n - 1)
        self._pairs = np.empty((*rounds, 2), dtype=np.intp) if record else None
        self._times = np.empty((5, *rounds)) if record else None

    def _rewrite(self, ends: np.ndarray) -> None:
        """Rewrite the score rows at the ``(2, scored_end)`` flat sender and
        receiver cells ``ends``."""
        ready = self._rt[ends] * self._rewrite_weights
        self._score_rows[ends] = ready[..., None] + self._base_rows[ends]

    def _edge_penalty(self, last_round: bool) -> np.ndarray:
        """``F_j`` plus the 0/+inf pending-column penalty of every edge row."""
        columns = self._columns
        columns[...] = self.penalty[: self.edge_end]
        if last_round:
            return columns
        columns[: self.min_end] += self.lookahead.min(axis=0) * self.sign
        K = self.costs.num_grids
        for offset, average in enumerate(self.averages):
            start = self.min_end + offset * K
            rows = slice(start, start + K)
            columns[rows] += average(self.costs.transfer, self.penalty[rows])
        return columns

    def run(self) -> None:
        n, edge_end, scored_end = self.n, self.edge_end, self.scored_end
        senders = np.full(len(self.rt), self.root)
        receivers = np.empty(len(self.rt), dtype=np.intp)
        bottom_up = np.arange(scored_end - edge_end)
        for round_index in range(n - 1):
            if edge_end:
                scores = np.add(
                    self.scores[:edge_end],
                    self._edge_penalty(round_index == n - 2)[:, None, :],
                    out=self._scratch,
                )
                flat = scores.reshape(edge_end, n * n).argmin(axis=1)
                np.divmod(flat, n, out=(senders[:edge_end], receivers[:edge_end]))
            if scored_end > edge_end:
                # The receiver whose cheapest incoming score is the largest,
                # then its cheapest sender, read from that column only.
                block = self.scores[edge_end:scored_end]
                cheapest = block.min(axis=1)
                cheapest -= self.penalty[edge_end:scored_end]
                chosen = cheapest.argmax(axis=1)
                receivers[edge_end:scored_end] = chosen
                senders[edge_end:scored_end] = block[bottom_up, :, chosen].argmin(axis=1)
            receivers[scored_end:] = self.flat_targets[:, round_index]
            self.commit(senders, receivers, round_index)

    # Every round, each row commits its own (sender, receiver).
    def commit(
        self, senders: np.ndarray, receivers: np.ndarray, round_index: int
    ) -> None:
        n, rt, ends = self.n, self._rt, self._ends
        cells = self._problem_cells + senders * n + receivers
        gap, latency = self._gap[cells], self._latency[cells]
        np.add(self._row_cells, senders, out=ends[0])
        np.add(self._row_cells, receivers, out=ends[1])
        start = rt[ends[0]]
        release = start + gap
        arrival = release + latency
        rt[ends[0]] = release
        rt[ends[1]] = arrival
        if self._pairs is not None:
            self._pairs[:, round_index, 0] = senders
            self._pairs[:, round_index, 1] = receivers
            self._times[:, :, round_index] = start, release, arrival, gap, latency
        scored = ends[:, : self.scored_end]
        self._penalty[scored[1]] = np.inf
        self._rewrite(scored)
        self.lookahead[receivers[: self.min_end], self._min_rows] = np.inf

    def makespans(self) -> np.ndarray:
        """``(specs, K)`` makespans: ``max_c (RT_c + T_c)`` per problem, the
        very floats the timed schedule's ``makespan`` returns."""
        K = self.costs.num_grids
        rt = self.rt.reshape(len(self.rt) // K, K, self.n)
        return (rt + self.costs.broadcast).max(axis=2)

    def pairs(self) -> np.ndarray:
        """``(specs, K, n - 1, 2)`` recorded ``(sender, receiver)`` rounds."""
        K = self.costs.num_grids
        return self._pairs.reshape(len(self.rt) // K, K, self.n - 1, 2)

    def schedules(self, position: int, heuristic_name: str) -> list[BroadcastSchedule]:
        """The recorded rounds of one spec's rows as one timed schedule each.

        Every value was computed by :meth:`commit` with the same float
        operations, in the same order, as
        :func:`~repro.core.schedule.evaluate_order` would time the decisions,
        so the schedules equal the per-grid engines' field for field.
        """
        K, n = self.costs.num_grids, self.n
        rows = slice(position * K, (position + 1) * K)
        rt, times = self.rt[rows], self._times[:, rows]
        pairs = self._pairs[rows].transpose(2, 0, 1)
        arrival_times = np.zeros((K, n))
        arrival_times[np.arange(K)[:, None], pairs[1]] = times[2]
        rounds = zip(*(column.tolist() for column in (*pairs, *times)))
        return [
            BroadcastSchedule(
                root=self.root,
                num_clusters=n,
                message_size=size,
                transfers=[
                    ScheduledTransfer(*fields) for fields in zip(*decisions)
                ],
                arrival_times=arrivals,
                local_start_times=starts,
                completion_times=completions,
                heuristic_name=heuristic_name,
            )
            for size, decisions, arrivals, starts, completions in zip(
                self.costs.message_sizes,
                rounds,
                arrival_times.tolist(),
                rt.tolist(),
                (rt + self.costs.broadcast).tolist(),
            )
        ]


def _run_lineup(
    heuristics: Sequence[SchedulingHeuristic],
    costs: BatchedGridCosts,
    root: int,
    record: bool,
) -> tuple[_LineUp | None, list[int | None]]:
    """Run the line-up's distinct kernel rows; each heuristic's spec index
    (``None``: no kernel rows)."""
    if not 0 <= root < costs.num_clusters:
        raise ValueError(f"root must be a valid cluster index, got {root}")
    specs = [_row_spec(h, costs.num_clusters) for h in heuristics]
    distinct = sorted(dict.fromkeys(filter(None, specs)), key=lambda spec: spec[0])
    if not distinct:
        return None, [None] * len(heuristics)
    lineup = _LineUp(distinct, costs, root, record)
    lineup.run()
    return lineup, [None if spec is None else distinct.index(spec) for spec in specs]


def schedule_lineup(
    heuristics: Sequence[SchedulingHeuristic],
    costs: BatchedGridCosts,
    *,
    root: int = 0,
    record: bool = False,
) -> list:
    """Schedule every problem of the batch with every heuristic, in one pass.

    Returns one entry per heuristic, in line-up order: the ``(K,)`` makespans,
    or with ``record=True`` the K timed schedules (each equal to the
    per-grid engine's field for field).  ``None`` means the heuristic has no
    kernel rows (exhaustive search, custom heuristics or lookaheads); the
    caller should fall back to scheduling problem by problem.  Heuristics
    with the same kernel (duplicates, Mixed and its delegate) share their
    rows.

    Raises
    ------
    ValueError
        If ``root`` is not a cluster of the grids, or a Flat Tree's
        ``cluster_order`` is malformed.
    """
    lineup, rows = _run_lineup(heuristics, costs, root, record)
    if record:
        return [
            None if row is None else lineup.schedules(row, heuristic.name)
            for heuristic, row in zip(heuristics, rows)
        ]
    makespans = None if lineup is None else lineup.makespans()
    return [None if row is None else makespans[row] for row in rows]


def record_lineup(
    heuristics: Sequence[SchedulingHeuristic],
    costs: BatchedGridCosts,
    *,
    root: int = 0,
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """The recording :func:`schedule_lineup` as arrays, with no schedule
    objects.

    Returns one entry per heuristic, in line-up order: the ``(K,)``
    makespans and the ``(K, n - 1, 2)`` decided ``(sender, receiver)``
    pairs, equal to the ``makespan`` and ``order`` of the schedules
    ``schedule_lineup(..., record=True)`` returns.  ``None`` marks the
    heuristics without kernel rows.
    """
    lineup, rows = _run_lineup(heuristics, costs, root, True)
    if lineup is None:
        return rows
    makespans, pairs = lineup.makespans(), lineup.pairs()
    return [None if row is None else (makespans[row], pairs[row]) for row in rows]


def has_batched_kernel(heuristic: SchedulingHeuristic, num_clusters: int) -> bool:
    """Whether :func:`schedule_lineup` has kernel rows for this heuristic
    (callers skip stacking a :class:`BatchedGridCosts` when none has)."""
    return _row_spec(heuristic, num_clusters) is not None


def batched_makespans(
    heuristic: SchedulingHeuristic,
    costs: BatchedGridCosts,
    *,
    root: int = 0,
) -> np.ndarray | None:
    """Makespans of ``heuristic`` on every grid of the batch, or ``None``
    (no kernel rows): the one-heuristic :func:`schedule_lineup`."""
    return schedule_lineup([heuristic], costs, root=root)[0]


def batched_schedules(
    heuristic: SchedulingHeuristic,
    costs: BatchedGridCosts,
    *,
    root: int = 0,
) -> list[BroadcastSchedule] | None:
    """Timed schedules of ``heuristic`` at every message size of one grid:
    the one-heuristic recording :func:`schedule_lineup`.

    ``costs`` stacks one grid's :class:`~repro.core.costs.GridCostCache` at
    K message sizes.  Each schedule equals ``heuristic.schedule(grid, size,
    root=root)`` field for field (its ``message_size`` is the cache's float
    size); ``None`` means the heuristic has no kernel rows.

    Raises
    ------
    ValueError
        If ``costs`` was not stacked from caches, the stacked caches were
        built for different grids, or ``root`` is not a cluster of the grid.
    """
    if not costs.caches:
        raise ValueError("batched_schedules needs a stack of one grid's cost caches")
    grid = costs.caches[0].grid
    if any(cache.grid is not grid for cache in costs.caches):
        raise ValueError("costs was computed for a different grid or message size")
    return schedule_lineup([heuristic], costs, root=root, record=True)[0]
