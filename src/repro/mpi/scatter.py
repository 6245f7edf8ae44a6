"""Scatter programs (the first "future work" pattern of paper §8).

A personalised scatter distributes a distinct block of ``chunk_size`` bytes
from the root to every rank.  Two strategies are provided:

* :func:`flat_scatter_program` — the naive strategy: the root sends every
  rank its block directly, crossing the wide area once per remote rank.
* :func:`grid_aware_scatter_program` — the hierarchical strategy: the root
  coordinator forwards to each remote cluster's coordinator a single
  aggregated message containing all of that cluster's blocks (ordered by an
  inter-cluster schedule produced by any of the broadcast heuristics, with
  per-destination message sizes proportional to the cluster size), and each
  coordinator then scatters the blocks locally.

The aggregation is what makes the hierarchical strategy win: the wide area is
crossed once per *cluster* instead of once per *rank*.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import SchedulingHeuristic
from repro.core.schedule import BroadcastSchedule, evaluate_order
from repro.mpi.bcast import rank_layout
from repro.simulator.program import CommunicationProgram
from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative


def flat_scatter_program(
    grid: Grid,
    chunk_size: float,
    *,
    root_rank: int = 0,
) -> CommunicationProgram:
    """The root sends each rank its private block directly."""
    check_non_negative(chunk_size, "chunk_size")
    others = np.flatnonzero(np.arange(grid.num_nodes) != root_rank)
    return CommunicationProgram.from_arrays(
        grid.num_nodes,
        root_rank,
        np.full(others.size, root_rank),
        others,
        chunk_size,
        0,
        ("scatter-direct",),
        name="flat-scatter",
        initially_active=(root_rank,),
    )


def grid_aware_scatter_program(
    grid: Grid,
    chunk_size: float,
    *,
    heuristic: SchedulingHeuristic,
    root_cluster: int = 0,
) -> tuple[CommunicationProgram, BroadcastSchedule]:
    """Hierarchical scatter driven by an inter-cluster schedule.

    The inter-cluster *order* is taken from the broadcast heuristic (it
    already balances latency, gap and local completion); message sizes are
    then adjusted per destination: a coordinator receives
    ``cluster_size * chunk_size`` bytes, because it carries every block of its
    cluster.  Each coordinator finally performs a local flat scatter of the
    individual blocks.

    Note that unlike a broadcast, a scatter cannot re-aggregate across
    clusters: intermediate coordinators would need to hold other clusters'
    blocks.  We therefore restrict the schedule to sends emitted by the root
    cluster (a "scheduled flat tree" at the cluster level), which is the
    standard MagPIe-style structure for personalised operations, ordered by
    the heuristic's priorities.

    Returns
    -------
    (program, schedule):
        The node-level program and the cluster-level schedule whose order was
        used (with per-cluster aggregated sizes in the recorded transfers).
    """
    check_non_negative(chunk_size, "chunk_size")
    schedule = heuristic.schedule(
        grid, chunk_size * max(c.size for c in grid.clusters), root=root_cluster
    )
    # Keep only the ordering information: rank remote clusters by the arrival
    # times the heuristic produced, then have the root contact them in that
    # order (personalised data cannot be relayed through other clusters).
    remote_clusters = sorted(
        (c for c in range(grid.num_clusters) if c != root_cluster),
        key=lambda c: schedule.arrival_times[c],
    )
    order = [(root_cluster, cluster) for cluster in remote_clusters]
    cluster_schedule = evaluate_order(
        grid,
        chunk_size,
        root_cluster,
        order,
        heuristic_name=f"scatter[{heuristic.name}]",
        broadcast_times=[0.0] * grid.num_clusters,
    )

    coordinators, cluster_of, local_index = rank_layout(grid)
    remote = np.array([cluster for _, cluster in order], dtype=np.int64)
    cluster_sizes = np.bincount(cluster_of, minlength=grid.num_clusters)
    root_rank = int(coordinators[root_cluster])
    # Inter-cluster phase: one aggregated block per remote cluster.  Local
    # phase: every coordinator (including the root's own cluster) hands each
    # local rank its private block.
    members = np.flatnonzero(local_index > 0)
    program = CommunicationProgram.from_arrays(
        grid.num_nodes,
        root_rank,
        np.concatenate([np.full(remote.size, root_rank), coordinators[cluster_of[members]]]),
        np.concatenate([coordinators[remote], members]),
        np.concatenate(
            [cluster_sizes[remote] * chunk_size, np.full(members.size, chunk_size)]
        ),
        np.repeat([0, 1], [remote.size, members.size]),
        ("scatter-aggregate", "scatter-local"),
        name=f"grid-aware-scatter[{heuristic.name}]",
        initially_active=(root_rank,),
    )
    return program, cluster_schedule
