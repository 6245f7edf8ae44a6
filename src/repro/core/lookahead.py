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
``F`` column per round, bit for bit equal to the scalar values, shared by
the per-grid engine and the batched kernel.  The min and max ones are
described once, in :data:`MIN_FORM_LOOKAHEADS`: both engines keep the named
matrix with the leaving receiver's column set to +inf, so ``F_j`` is one row
minimum.  The averages are one column function each
(:data:`AVERAGE_FORM_LOOKAHEADS`) that sums as the scalar one does: left to
right over increasing cluster indices, on every Python.
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
    every remaining waiting cluster,
    ``F_j = Σ_{k ∈ B∖{j}} (col_k + T_{j,k}) / ((|A| + 1)(|B| − 1))`` with
    ``col_k = Σ_{i ∈ A} T_{i,k}``.  Every sum runs left to right in
    increasing cluster order, and nothing is subtracted, so no large term can
    cancel the small ones.
    """
    informed, pending = state.informed, state.pending
    if len(pending) < 2:
        return 0.0
    total = 0.0
    for k in pending:
        if k != candidate:
            column = 0.0
            for i in informed:
                column += state.transfer_time(i, k)
            total += column + state.transfer_time(candidate, k)
    count = (len(informed) + 1) * (len(pending) - 1)
    return total / count


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
# once instead of one Python call per (candidate, other) pair, with the same
# float operations as its scalar twin (IEEE min/max are exact in any order).

#: The min-form lookaheads as ``(cost matrix, sign)``: ``F_j`` is ``sign``
#: times the minimum over ``k in B∖{j}`` of ``sign`` times the named matrix
#: (an attribute of both :class:`~repro.core.costs.GridCostCache` and the
#: batched stack).  ECEF-LAT's maximum is the minimum of the negated matrix.
MIN_FORM_LOOKAHEADS: dict[LookaheadFunction, tuple[str, float]] = {
    min_edge_lookahead: ("transfer", 1.0),
    grid_aware_min_lookahead: ("transfer_plus_broadcast", 1.0),
    grid_aware_max_lookahead: ("transfer_plus_broadcast", -1.0),
}


def _set_columns(mask: np.ndarray) -> np.ndarray:
    """``(K, c)``: each row's set columns of the ``(K, n)`` ``mask``, in
    increasing order.  Every row must set the same number ``c`` of columns
    (the K problems of a line-up advance in lockstep)."""
    K = len(mask)
    problems, columns = np.divmod(np.flatnonzero(mask), mask.shape[1])
    if problems.size % K or (problems.reshape(K, -1).T != np.arange(K)).any():
        raise ValueError(
            "every problem must have the same number of pending clusters"
        )
    return columns.reshape(K, -1)


def _ordered_sums(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``(K, r)`` sums of ``matrix[k, :, c]`` over the ``(K, c)`` column
    indices, left to right: one gather, then one ``(K, r)`` add per column."""
    block = matrix[np.arange(len(columns))[:, None], :, columns]
    sums = np.zeros(matrix.shape[:2])
    for position in range(columns.shape[1]):
        sums += block[:, position]
    return sums


def average_latency_columns(transfer: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """:func:`average_latency_lookahead` for every candidate of K problems.

    ``transfer`` is the ``(K, n, n)`` stack of ``g + L`` matrices and
    ``penalty`` the ``(K, n)`` rows holding 0 on the pending columns and +inf
    on the informed ones, the same number of pending ones in every row.
    Returns the ``(K, n)`` ``F_j``, meaningful on the pending columns; the
    zero diagonal makes the candidate's own column add an exact +0.0.
    """
    pending = _set_columns(penalty == 0.0)
    return _ordered_sums(transfer, pending) / max(pending.shape[1] - 1, 1)


def average_informed_columns(transfer: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """:func:`average_informed_lookahead` for every candidate of K problems,
    from the same ``(K, n, n)`` transfer stack and ``(K, n)`` pending-penalty
    rows as :func:`average_latency_columns`.

    Term ``p`` of candidate ``j`` is ``col_k + T_{j,k}`` for the ``p``-th
    pending cluster ``k``, and an exact +0.0 when ``k`` is ``j`` itself.
    """
    pending = _set_columns(penalty == 0.0)
    informed = _set_columns(penalty != 0.0)
    problems = np.arange(len(pending))[:, None]
    columns = _ordered_sums(transfer.transpose(0, 2, 1), informed)
    terms = transfer[problems, :, pending]
    terms += columns[problems, pending][:, :, None]
    terms[problems, np.arange(pending.shape[1]), pending] = 0.0
    sums = np.zeros(columns.shape)
    for position in range(pending.shape[1]):
        sums += terms[:, position]
    return sums / ((informed.shape[1] + 1) * max(pending.shape[1] - 1, 1))


#: The average lookaheads' column functions.
AVERAGE_FORM_LOOKAHEADS: dict[LookaheadFunction, Callable[..., np.ndarray]] = {
    average_latency_lookahead: average_latency_columns,
    average_informed_lookahead: average_informed_columns,
}


def _vec_no_lookahead(state: SchedulingState) -> np.ndarray:
    return np.zeros(state.grid.num_clusters)


def _one_problem(
    columns: Callable[..., np.ndarray], state: SchedulingState
) -> np.ndarray:
    return columns(state.costs.transfer[None], state._penalty[None])[0]


#: Vectorized twins of the scalar lookaheads, keyed by the scalar function.
VECTORIZED_LOOKAHEADS: dict[LookaheadFunction, VectorizedLookahead] = {
    no_lookahead: _vec_no_lookahead,
    **{
        function: partial(_one_problem, columns)
        for function, columns in AVERAGE_FORM_LOOKAHEADS.items()
    },
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
