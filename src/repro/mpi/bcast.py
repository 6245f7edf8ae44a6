"""Broadcast programs: grid-aware (scheduled) and grid-unaware (binomial).

Two program builders live here, each building a batch of programs as one
stack (the single-program functions are their one-program case):

* :func:`grid_aware_pair_programs` turns inter-cluster decision orders —
  a stacked ``(programs, n - 1, 2)`` array of ``(sender, receiver)``
  cluster pairs — into node-level
  :class:`~repro.simulator.program.CommunicationProgram` objects: each
  coordinator performs its scheduled wide-area sends in order and then
  broadcasts locally along a tree (binomial by default), which is exactly
  the MagPIe execution structure the paper modified.  It is the one
  grid-aware builder: :func:`grid_aware_bcast_program` feeds it one
  :class:`~repro.core.schedule.BroadcastSchedule`'s order, root and name.
* :func:`binomial_bcast_programs` builds the topology-oblivious binomial tree
  over **all** ranks, i.e. the "Default LAM" / "pure MPI_Bcast" baseline the
  paper compares against in Figure 6.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.collectives.trees import tree_parents
from repro.core.schedule import BroadcastSchedule
from repro.simulator.program import CommunicationProgram
from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative


def rank_layout(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster coordinator ranks plus each rank's cluster and local index.

    A grid numbers each cluster's ranks contiguously from its coordinator
    (:attr:`~repro.topology.grid.Grid.rank_offsets`), so a rank's local
    index is its offset from that coordinator.  This is the one array form
    of the rank -> cluster map.
    """
    offsets = grid.rank_offsets
    coordinators = offsets[:-1]
    cluster_of = np.repeat(np.arange(grid.num_clusters), np.diff(offsets))
    return coordinators, cluster_of, np.arange(grid.num_nodes) - coordinators[cluster_of]


#: Each grid's intra-cluster tree edges per tree shape, keyed weakly so
#: entries die with the grid.
_LOCAL_EDGES: "weakref.WeakKeyDictionary[Grid, dict[str, tuple[np.ndarray, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def _local_edges(grid: Grid, local_tree: str) -> tuple[np.ndarray, ...]:
    """Read-only ``(senders, dest, tag_code)`` of every cluster's local tree.

    Each cluster broadcasts along its own ``local_tree``, coordinator first;
    the tag code of cluster ``c``'s messages is ``1 + c``.  Every grid-aware
    broadcast on ``grid`` shares these messages, so they are computed once
    per (grid, tree shape).
    """
    per_grid = _LOCAL_EDGES.setdefault(grid, {})
    edges = per_grid.get(local_tree)
    if edges is None:
        _, cluster_of, local_index = rank_layout(grid)
        children = np.flatnonzero(local_index > 0)
        offsets = local_index[children]
        edges = (
            children + tree_parents(local_tree, offsets) - offsets,
            children,
            1 + cluster_of[children],
        )
        for column in edges:
            column.setflags(write=False)
        per_grid[local_tree] = edges
    return edges


def _stacked(build, *columns):
    """``build(*columns)``, re-run row by row when a multi-row build fails.

    A stack runs each check once over every program, so the first error it
    meets need not be the one a program-by-program build raises first.
    Re-building row by row on failure raises exactly that error.
    """
    try:
        return build(*columns)
    except (ValueError, IndexError, TypeError):
        if len(columns[0]) > 1:
            for row in zip(*columns):
                build(*([value] for value in row))
        raise


def _pair_programs(
    grid: Grid,
    pairs,
    sizes: Sequence[float],
    roots: Sequence[int],
    names: Sequence[str],
    local_tree: str,
    local_first: bool,
) -> list[CommunicationProgram]:
    """One stacked build of :func:`grid_aware_pair_programs`."""
    for size in sizes:
        check_non_negative(size, "message_size")
    count = len(sizes)
    if not count:
        return []
    num_clusters = grid.num_clusters
    pairs = np.asarray(pairs, dtype=np.intp).reshape(count, num_clusters - 1, 2)
    if pairs.size and not 0 <= pairs.min() <= pairs.max() < num_clusters:
        raise ValueError(f"cluster pairs must index the grid's {num_clusters} clusters")
    coordinators = grid.rank_offsets[:-1]

    # Inter-cluster phase: coordinators follow each program's pair order.
    inter = (
        np.repeat(np.arange(count), num_clusters - 1),
        coordinators[pairs[:, :, 0].ravel()],
        coordinators[pairs[:, :, 1].ravel()],
        np.zeros(pairs.size // 2, dtype=np.int64),
    )

    # Local phase: the same tree edges in every program.
    edges = _local_edges(grid, local_tree)
    local = (
        np.repeat(np.arange(count), edges[0].size),
        *(np.tile(column, count) for column in edges),
    )

    # Each rank performs its first phase's messages, then its second's;
    # the stable (program, sender) sort keeps that order per sender.
    phases = (local, inter) if local_first else (inter, local)
    program, senders, dest, tag_code = (
        np.concatenate(parts) for parts in zip(*phases)
    )
    return CommunicationProgram.from_broadcast_stack(
        grid.num_nodes,
        coordinators[np.asarray(roots, dtype=np.intp)].tolist(),
        program,
        senders,
        dest,
        np.asarray(sizes, dtype=np.float64)[program],
        tag_code,
        ("inter-cluster", *(f"local-c{c}" for c in range(num_clusters))),
        names=[f"grid-aware-bcast[{name or 'schedule'}]" for name in names],
    )


def grid_aware_pair_programs(
    grid: Grid,
    pairs,
    sizes: Sequence[float],
    roots: Sequence[int],
    names: Sequence[str],
    *,
    local_tree: str = "binomial",
    local_first: bool = False,
) -> list[CommunicationProgram]:
    """Build scheduled hierarchical broadcasts from their decision orders.

    Program ``k`` carries ``sizes[k]`` bytes from root cluster ``roots[k]``
    along the inter-cluster order ``pairs[k]`` — ``n - 1`` ``(sender,
    receiver)`` cluster pairs, as a heuristic decided them — and is named
    after heuristic ``names[k]``.  The whole batch is built as one stack:
    the intra-cluster tree edges are computed once per grid, every
    program's coordinator pairs join them, and one stable sort by
    ``(program, sender)`` lays all the programs out; the message and
    broadcast checks run once over the stack (see
    :meth:`~repro.simulator.program.CommunicationProgram.from_broadcast_stack`).
    A malformed order raises the error a one-program build of it would.

    Parameters
    ----------
    grid:
        The topology the orders were computed for.
    pairs:
        ``(programs, n - 1, 2)`` cluster indices.
    sizes:
        Payload size in bytes of each program.
    roots:
        Root cluster of each program.
    names:
        Name of the heuristic behind each program (informational).
    local_tree:
        Tree shape used inside every cluster ("binomial" by default).
    local_first:
        When ``True`` each coordinator performs its *local* sends before its
        remaining inter-cluster sends — the "eager local broadcast" variant
        discussed in DESIGN.md §7.3.  The paper's semantics (local broadcast
        only once the coordinator no longer participates in inter-cluster
        traffic) correspond to the default ``False``.

    Returns
    -------
    list[CommunicationProgram]
        Validated broadcast programs, each rooted at its root cluster's
        coordinator, holding read-only views into the stack.

    Raises
    ------
    ValueError
        If the four per-program sequences differ in length, or a pair,
        size or root is malformed or a program is no broadcast.
    """
    sizes, roots, names = list(sizes), list(roots), list(names)
    if not len(pairs) == len(sizes) == len(roots) == len(names):
        raise ValueError(
            f"got {len(pairs)} pair orders, {len(sizes)} message sizes, "
            f"{len(roots)} roots and {len(names)} names"
        )
    return _stacked(
        lambda *columns: _pair_programs(grid, *columns, local_tree, local_first),
        pairs,
        sizes,
        roots,
        names,
    )


def grid_aware_bcast_program(
    grid: Grid,
    schedule: BroadcastSchedule,
    message_size: float,
    *,
    local_tree: str = "binomial",
    local_first: bool = False,
) -> CommunicationProgram:
    """The node-level program implementing one scheduled broadcast.

    The one-program case of :func:`grid_aware_pair_programs`, fed from the
    schedule's decision order, root and heuristic name (the options are its
    own).  Each coordinator performs its scheduled wide-area sends in order
    and then broadcasts locally along ``local_tree`` (binomial by default);
    the result is a validated broadcast program rooted at the root
    cluster's coordinator.

    Raises
    ------
    ValueError
        If the schedule was computed for a grid of another size, or the
        schedule or size is malformed.
    """
    if schedule.num_clusters != grid.num_clusters:
        raise ValueError(
            f"schedule covers {schedule.num_clusters} clusters but the "
            f"grid has {grid.num_clusters}"
        )
    expected = grid.num_clusters - 1
    if len(schedule.transfers) != expected:
        raise ValueError(
            f"a broadcast over {grid.num_clusters} clusters needs "
            f"{expected} transfers, got {len(schedule.transfers)}"
        )
    (program,) = grid_aware_pair_programs(
        grid,
        [schedule.order],
        [message_size],
        [schedule.root],
        [schedule.heuristic_name],
        local_tree=local_tree,
        local_first=local_first,
    )
    return program


def binomial_bcast_programs(
    grid: Grid,
    sizes: Sequence[float],
    *,
    root_rank: int = 0,
) -> list[CommunicationProgram]:
    """The grid-unaware binomial broadcast over all ranks, once per size.

    One binomial tree serves every size: the programs differ only in their
    message sizes and are built and validated as one stack (see
    :func:`grid_aware_pair_programs`).  Program ``k`` equals
    :func:`binomial_bcast_program` at ``sizes[k]``.
    """
    num_ranks = grid.num_nodes

    def build(sizes):
        for size in sizes:
            check_non_negative(size, "message_size")
        if not 0 <= root_rank < num_ranks:
            raise ValueError(f"root_rank must be a valid rank, got {root_rank}")
        count = len(sizes)
        if not count:
            return []
        virtual = np.arange(1, num_ranks)
        program = np.repeat(np.arange(count), virtual.size)
        return CommunicationProgram.from_broadcast_stack(
            num_ranks,
            [root_rank] * count,
            program,
            np.concatenate(
                [(tree_parents("binomial", virtual) + root_rank) % num_ranks] * count
            ),
            np.concatenate([(virtual + root_rank) % num_ranks] * count),
            np.asarray(sizes, dtype=np.float64)[program],
            0,
            ("binomial",),
            names=["binomial-bcast"] * count,
        )

    return _stacked(build, list(sizes))


def binomial_bcast_program(
    grid: Grid,
    message_size: float,
    *,
    root_rank: int = 0,
) -> CommunicationProgram:
    """The grid-unaware binomial broadcast over all ranks ("Default LAM").

    The binomial tree is laid over the global rank order with the root mapped
    to position 0 (ranks are renumbered relative to the root, exactly like the
    classic MPI implementations).  Because the rank order interleaves clusters
    only by construction of the topology, wide-area links end up used many
    times — which is precisely why the paper's Figure 6 shows this baseline
    losing to every grid-aware heuristic except the Flat Tree.  This is the
    one-size case of :func:`binomial_bcast_programs`.
    """
    (program,) = binomial_bcast_programs(grid, [message_size], root_rank=root_rank)
    return program


def predict_bcast_makespan(
    grid: Grid,
    schedule: BroadcastSchedule,
) -> float:
    """The model-predicted completion time of a scheduled hierarchical bcast.

    This is simply the schedule's makespan (inter-cluster phase timed by the
    shared cost model plus the per-cluster ``T_i``); it is what Figure 5 plots
    and what :mod:`repro.experiments.practical_study` compares against the
    simulator-measured times of Figure 6.
    """
    if schedule.num_clusters != grid.num_clusters:
        raise ValueError("schedule and grid disagree on the number of clusters")
    return schedule.makespan
