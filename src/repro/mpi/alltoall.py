"""Personalised all-to-all programs (the second "future work" pattern, paper §8).

In a personalised all-to-all every rank holds one distinct block of
``chunk_size`` bytes for every other rank.  Two strategies:

* :func:`direct_alltoall_program` — every rank sends its block to every other
  rank directly; the wide area carries ``n_i * n_j`` messages for every pair
  of clusters ``(i, j)``.
* :func:`grid_aware_alltoall_program` — blocks headed for a remote cluster are
  first gathered at the local coordinator, shipped as a single aggregated
  message to the remote coordinator, and redistributed locally.  The wide
  area carries exactly one (large) message per ordered cluster pair.

Both builders produce programs in which *every* rank is initially active
(every rank owns data from the start); the programs declare this through
:attr:`~repro.simulator.program.CommunicationProgram.initially_active`, so
any executor — scalar or batched — picks it up without out-of-band knowledge.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.bcast import rank_layout
from repro.simulator.program import CommunicationProgram
from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative


def _exchange_pairs(group_of: np.ndarray, local_index: np.ndarray):
    """Every ordered pair of distinct ranks sharing a group, source-major.

    Groups are contiguous rank ranges (``local_index`` is a rank's offset in
    its group); each source lists its group's other ranks in ascending order.
    """
    group_size = np.bincount(group_of)[group_of]
    fanout = group_size - 1
    sources = np.repeat(np.arange(group_of.size), fanout)
    slot = np.arange(sources.size) - np.repeat(np.cumsum(fanout) - fanout, fanout)
    offset = slot + (slot >= local_index[sources])
    return sources, sources - local_index[sources] + offset


def direct_alltoall_program(grid: Grid, chunk_size: float) -> CommunicationProgram:
    """Every rank sends its private block to every other rank directly."""
    check_non_negative(chunk_size, "chunk_size")
    ranks = np.arange(grid.num_nodes)
    sources, destinations = _exchange_pairs(np.zeros_like(ranks), ranks)
    return CommunicationProgram.from_arrays(
        grid.num_nodes,
        0,
        sources,
        destinations,
        chunk_size,
        0,
        ("a2a-direct",),
        name="direct-alltoall",
        initially_active=tuple(range(grid.num_nodes)),
    )


def grid_aware_alltoall_program(grid: Grid, chunk_size: float) -> CommunicationProgram:
    """Hierarchical all-to-all: aggregate at coordinators, one WAN message per cluster pair.

    Phase 1 (local gather): every non-coordinator rank sends, for each remote
    cluster, the concatenation of its blocks destined to that cluster to its
    own coordinator (one message of ``remote_cluster_size * chunk_size``
    bytes per remote cluster).

    Phase 2 (inter-cluster exchange): each coordinator sends to every remote
    coordinator one aggregated message containing all blocks from its cluster
    to the remote cluster (``local_size * remote_size * chunk_size`` bytes).

    Phase 3 (local redistribute): each coordinator delivers to every local
    rank the blocks it received on that rank's behalf
    (``(total_ranks - local_size) * chunk_size`` bytes per local rank), plus
    the purely local exchange between ranks of the same cluster, done
    directly (one ``chunk_size`` message per local pair).

    The program encodes the phases through the per-rank send order; the
    executor's dependency rule (a rank may send once activated, and every rank
    is initially active here) keeps the phases causally consistent because
    coordinators simply queue their phase-2/3 sends after their phase-1 sends
    on their own NIC.
    """
    check_non_negative(chunk_size, "chunk_size")
    total_ranks = grid.num_nodes
    coordinators, cluster_of, local_index = rank_layout(grid)
    cluster_sizes = np.bincount(cluster_of, minlength=grid.num_clusters)
    members = np.flatnonzero(local_index > 0)
    # A single-cluster grid has nothing to gather or redistribute.
    members = members[total_ranks - cluster_sizes[cluster_of[members]] > 0]
    member_coordinators = coordinators[cluster_of[members]]
    remote_bytes = (total_ranks - cluster_sizes[cluster_of[members]]) * chunk_size
    source_cluster, target_cluster = _exchange_pairs(
        np.zeros(grid.num_clusters, dtype=np.int64), np.arange(grid.num_clusters)
    )
    local_sources, local_destinations = _exchange_pairs(cluster_of, local_index)
    # Phases in emission order: gather, exchange, redistribute, local pairs.
    phases = (
        (members, member_coordinators, remote_bytes),
        (
            coordinators[source_cluster],
            coordinators[target_cluster],
            cluster_sizes[source_cluster] * cluster_sizes[target_cluster] * chunk_size,
        ),
        (member_coordinators, members, remote_bytes),
        (local_sources, local_destinations, np.full(local_sources.size, chunk_size)),
    )
    return CommunicationProgram.from_arrays(
        total_ranks,
        0,
        np.concatenate([phase[0] for phase in phases]),
        np.concatenate([phase[1] for phase in phases]),
        np.concatenate([phase[2] for phase in phases]),
        np.repeat(np.arange(len(phases)), [phase[0].size for phase in phases]),
        ("a2a-gather", "a2a-exchange", "a2a-scatter", "a2a-local"),
        name="grid-aware-alltoall",
        initially_active=tuple(range(total_ranks)),
    )
