"""Broadcast programs: grid-aware (scheduled) and grid-unaware (binomial).

Two program builders live here:

* :func:`grid_aware_bcast_program` converts an inter-cluster
  :class:`~repro.core.schedule.BroadcastSchedule` into a node-level
  :class:`~repro.simulator.program.CommunicationProgram`: each coordinator
  performs its scheduled wide-area sends in order and then broadcasts locally
  along a tree (binomial by default), which is exactly the MagPIe execution
  structure the paper modified.
* :func:`binomial_bcast_program` builds the topology-oblivious binomial tree
  over **all** ranks, i.e. the "Default LAM" / "pure MPI_Bcast" baseline the
  paper compares against in Figure 6.
"""

from __future__ import annotations

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


def grid_aware_bcast_program(
    grid: Grid,
    schedule: BroadcastSchedule,
    message_size: float,
    *,
    local_tree: str = "binomial",
    local_first: bool = False,
) -> CommunicationProgram:
    """Build the node-level program implementing a scheduled hierarchical bcast.

    Parameters
    ----------
    grid:
        The topology the schedule was computed for.
    schedule:
        The inter-cluster schedule (its ``num_clusters`` must match the grid).
    message_size:
        Payload size in bytes.
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
    CommunicationProgram
        A validated broadcast program rooted at the root cluster's coordinator.
    """
    check_non_negative(message_size, "message_size")
    if schedule.num_clusters != grid.num_clusters:
        raise ValueError(
            f"schedule covers {schedule.num_clusters} clusters but the grid has "
            f"{grid.num_clusters}"
        )
    coordinators, cluster_of, local_index = rank_layout(grid)

    # Inter-cluster phase: coordinators follow the schedule order.
    pairs = np.array(
        [(transfer.sender, transfer.receiver) for transfer in schedule.transfers],
        dtype=np.int64,
    ).reshape(-1, 2)
    inter = (
        coordinators[pairs[:, 0]],
        coordinators[pairs[:, 1]],
        np.zeros(len(pairs), dtype=np.int64),
    )

    # Local phase: each cluster broadcasts along its own tree, coordinator
    # first.
    children = np.flatnonzero(local_index > 0)
    offsets = local_index[children]
    local = (
        children + tree_parents(local_tree, offsets) - offsets,
        children,
        1 + cluster_of[children],
    )

    # Each rank performs its first phase's messages, then its second's;
    # from_arrays keeps that emission order per sender.
    phases = (local, inter) if local_first else (inter, local)
    senders, dest, tag_code = (np.concatenate(parts) for parts in zip(*phases))
    program = CommunicationProgram.from_arrays(
        grid.num_nodes,
        int(coordinators[schedule.root]),
        senders,
        dest,
        message_size,
        tag_code,
        ("inter-cluster", *(f"local-c{c}" for c in range(grid.num_clusters))),
        name=f"grid-aware-bcast[{schedule.heuristic_name or 'schedule'}]",
    )
    program.validate_broadcast()
    return program


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
    losing to every grid-aware heuristic except the Flat Tree.
    """
    check_non_negative(message_size, "message_size")
    num_ranks = grid.num_nodes
    if not 0 <= root_rank < num_ranks:
        raise ValueError(f"root_rank must be a valid rank, got {root_rank}")
    virtual = np.arange(1, num_ranks)
    program = CommunicationProgram.from_arrays(
        num_ranks,
        root_rank,
        (tree_parents("binomial", virtual) + root_rank) % num_ranks,
        (virtual + root_rank) % num_ranks,
        message_size,
        0,
        ("binomial",),
        name="binomial-bcast",
    )
    program.validate_broadcast()
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
