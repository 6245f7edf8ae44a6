"""Lookahead functions for the ECEF-LA family.

Bhat's Early Completion Edge First with lookahead (ECEF-LA) picks the pair
``(i, j)`` minimising ``RT_i + g_{i,j}(m) + L_{i,j} + F_j`` where ``F_j``
estimates how useful cluster ``j`` will be *after* it joins the informed set.
The paper proposes two grid-aware lookahead functions (ECEF-LAt / ECEF-LAT)
that fold in the intra-cluster broadcast time ``T_k``; Bhat additionally
suggested average-based variants, which we implement too for the ablation
benchmark (DESIGN.md item A1).

A lookahead function receives the scheduling state and the candidate receiver
``j`` (still in ``B``) and returns a float in seconds.  By convention it is
evaluated over the *other* clusters of ``B`` (``k != j``); when ``j`` is the
last waiting cluster the lookahead is 0, which never changes the selected pair
because ``F_j`` is then a constant offset.

Every registered lookahead has a vectorized twin that computes the whole
``F`` column per round.  The min and max ones are described once, in
:data:`MIN_FORM_LOOKAHEADS`: the per-grid engine and the batched kernel both
keep the named matrix with the leaving receiver's column set to +inf, so
``F_j`` is one row minimum.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.core.base import SchedulingState

#: Type alias for lookahead functions.
LookaheadFunction = Callable[[SchedulingState, int], float]

#: Type alias for vectorized lookaheads: ``state -> F`` where ``F`` is a
#: length-``num_clusters`` array whose entries are only meaningful at the
#: indices of the pending set ``B``.
VectorizedLookahead = Callable[[SchedulingState], np.ndarray]


def no_lookahead(state: SchedulingState, candidate: int) -> float:
    """``F_j = 0``: degenerates ECEF-LA into plain ECEF."""
    return 0.0


def min_edge_lookahead(state: SchedulingState, candidate: int) -> float:
    """Bhat's original lookahead: ``F_j = min_{k in B} (g_{j,k}(m) + L_{j,k})``.

    It measures how quickly ``j`` could retransmit the message to some other
    waiting cluster, i.e. the *utility* of promoting ``j`` to the informed
    set.
    """
    others = [k for k in state.waiting if k != candidate]
    if not others:
        return 0.0
    return min(state.transfer_time(candidate, k) for k in others)


def average_latency_lookahead(state: SchedulingState, candidate: int) -> float:
    """Alternative suggested by Bhat: the average cost from ``j`` to ``B``.

    ``F_j = mean_{k in B} (g_{j,k}(m) + L_{j,k})``; a smoother utility
    estimate that is less sensitive to one exceptionally close cluster.
    Summed left to right in increasing cluster order: the built-in ``sum``
    of floats is compensated from Python 3.12 on, which would make this
    value depend on the interpreter.
    """
    total = 0.0
    count = 0
    for k in state.pending:
        if k != candidate:
            total += state.transfer_time(candidate, k)
            count += 1
    return total / count if count else 0.0


def average_informed_lookahead(state: SchedulingState, candidate: int) -> float:
    """Bhat's other suggestion: average cost between sets A∪{j} and B∖{j}.

    Estimates the quality of the *global* dissemination capacity if ``j`` is
    promoted: the mean transfer time from every (would-be) informed cluster to
    every remaining waiting cluster.
    """
    informed = list(state.ready_time) + [candidate]
    others = [k for k in state.waiting if k != candidate]
    if not others:
        return 0.0
    total = 0.0
    count = 0
    for source in informed:
        for target in others:
            if source == target:
                continue
            total += state.transfer_time(source, target)
            count += 1
    return total / count if count else 0.0


def grid_aware_min_lookahead(state: SchedulingState, candidate: int) -> float:
    """The paper's ECEF-LAt lookahead (min, lowercase "t").

    ``F_j = min_{k in B} (g_{j,k}(m) + L_{j,k} + T_k)``: pick receivers that
    can quickly reach some cluster *and* let that cluster finish its local
    broadcast soon.
    """
    others = [k for k in state.waiting if k != candidate]
    if not others:
        return 0.0
    return min(
        state.transfer_time(candidate, k) + state.broadcast_time(k) for k in others
    )


def grid_aware_max_lookahead(state: SchedulingState, candidate: int) -> float:
    """The paper's ECEF-LAT lookahead (max, uppercase "T").

    ``F_j = max_{k in B} (g_{j,k}(m) + L_{j,k} + T_k)``: favour receivers that
    are well placed to serve the *slowest* remaining cluster, counting on
    inter-cluster overlap to hide the extra cost (paper §5.2).
    """
    others = [k for k in state.waiting if k != candidate]
    if not others:
        return 0.0
    return max(
        state.transfer_time(candidate, k) + state.broadcast_time(k) for k in others
    )


# -- vectorized counterparts -------------------------------------------------------
#
# Each function computes the whole ``F`` column for the current pending set at
# once instead of one Python call per (candidate, other) pair.  The min/max
# variants (:meth:`SchedulingState.lookahead_minima`) produce bit-identical
# values to their scalar twins (IEEE min/max are exact regardless of
# reduction order); the average variants may differ by one or two ULPs
# because NumPy uses pairwise summation, which is tighter than the scalar
# left-to-right sum.

#: The min-form lookaheads as ``(cost matrix, sign)``: ``F_j`` is ``sign``
#: times the minimum over ``k in B∖{j}`` of ``sign`` times the named matrix
#: (an attribute of both :class:`~repro.core.costs.GridCostCache` and the
#: batched stack).  ECEF-LAT's maximum is the minimum of the negated matrix.
MIN_FORM_LOOKAHEADS: dict[LookaheadFunction, tuple[str, float]] = {
    min_edge_lookahead: ("transfer", 1.0),
    grid_aware_min_lookahead: ("transfer_plus_broadcast", 1.0),
    grid_aware_max_lookahead: ("transfer_plus_broadcast", -1.0),
}


def _vec_no_lookahead(state: SchedulingState) -> np.ndarray:
    return np.zeros(state.grid.num_clusters)


def _vec_average_latency_lookahead(state: SchedulingState) -> np.ndarray:
    pending = state.pending_indices
    out = np.zeros(state.grid.num_clusters)
    if pending.size > 1:
        # The diagonal of the transfer matrix is zero, so the row sums over
        # the pending sub-matrix already exclude the candidate itself.
        sub = state.costs.transfer[np.ix_(pending, pending)]
        out[pending] = sub.sum(axis=1) / (pending.size - 1)
    return out


def _vec_average_informed_lookahead(state: SchedulingState) -> np.ndarray:
    pending = state.pending_indices
    out = np.zeros(state.grid.num_clusters)
    if pending.size > 1:
        informed = state.informed_indices
        transfer = state.costs.transfer
        # Sum over A × B per pending target, then correct per candidate j:
        # drop column j (j is never a target of its own lookahead) and add
        # row j over B∖{j} (zero diagonal keeps the sum exact).
        column_sums = transfer[np.ix_(informed, pending)].sum(axis=0)
        row_sums = transfer[np.ix_(pending, pending)].sum(axis=1)
        total = column_sums.sum()
        count = (informed.size + 1) * (pending.size - 1)
        out[pending] = (total - column_sums + row_sums) / count
    return out


#: Vectorized twins of the scalar lookaheads, keyed by the scalar function.
VECTORIZED_LOOKAHEADS: dict[LookaheadFunction, VectorizedLookahead] = {
    no_lookahead: _vec_no_lookahead,
    average_latency_lookahead: _vec_average_latency_lookahead,
    average_informed_lookahead: _vec_average_informed_lookahead,
    **{
        function: partial(SchedulingState.lookahead_minima, base=base, sign=sign)
        for function, (base, sign) in MIN_FORM_LOOKAHEADS.items()
    },
}


def vectorized_lookahead(fn: LookaheadFunction) -> VectorizedLookahead | None:
    """The vectorized twin of a scalar lookahead, or ``None`` if unknown.

    Custom lookaheads registered by third parties fall back to per-candidate
    scalar evaluation inside the (still vectorized) pair-selection loop.
    """
    return VECTORIZED_LOOKAHEADS.get(fn)


#: Named registry of lookahead functions, used by the ablation benchmark.
LOOKAHEAD_FUNCTIONS: dict[str, LookaheadFunction] = {
    "none": no_lookahead,
    "min_edge": min_edge_lookahead,
    "average_latency": average_latency_lookahead,
    "average_informed": average_informed_lookahead,
    "grid_aware_min": grid_aware_min_lookahead,
    "grid_aware_max": grid_aware_max_lookahead,
}


def get_lookahead(name: str) -> LookaheadFunction:
    """Look a lookahead function up by name.

    Raises
    ------
    ValueError
        If the name is unknown; the message lists the valid options.
    """
    try:
        return LOOKAHEAD_FUNCTIONS[name]
    except KeyError as exc:
        known = ", ".join(sorted(LOOKAHEAD_FUNCTIONS))
        raise ValueError(f"unknown lookahead {name!r}; known: {known}") from exc
