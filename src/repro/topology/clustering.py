"""Identification of logical homogeneous clusters (Lowekamp-style).

The practical evaluation of the paper does not use the administrative cluster
boundaries of GRID5000 directly: machines are grouped into *logical
homogeneous clusters* "according to the cluster map provided by Lowekamp's
algorithm with a tolerance rate ρ = 30 %" (the authors describe their variant
in Barchet-Estefanel & Mounié, *Identifying logical homogeneous clusters for
efficient wide-area communication*, Euro PVM/MPI 2004).  The essence of the
method is:

1. machines whose mutual latency is "small and similar" belong to the same
   logical cluster;
2. a tolerance ρ allows latencies within a cluster to differ by up to a
   factor ``1 + ρ`` of the cluster's reference latency;
3. machines that do not fit any existing cluster open a new one (possibly a
   singleton — this is how the paper ends up with two one-machine IDPOT
   clusters in Table 3).

We implement this as a deterministic agglomerative procedure over the full
node-to-node latency matrix, using networkx connected components over the
graph of "compatible" pairs followed by a refinement step that enforces the
tolerance within every group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_probability


@dataclass(frozen=True)
class LogicalCluster:
    """One logical homogeneous cluster produced by the identification step.

    Attributes
    ----------
    members:
        Global ranks of the machines in this cluster, sorted.
    reference_latency:
        The latency that characterises the cluster (the median pairwise
        latency between members, 0 for singletons).
    """

    members: tuple[int, ...]
    reference_latency: float

    @property
    def size(self) -> int:
        """Number of machines in the logical cluster."""
        return len(self.members)


def _validate_matrix(latency_matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(latency_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("latency_matrix must be square")
    if matrix.shape[0] == 0:
        raise ValueError("latency_matrix must not be empty")
    if np.any(matrix < 0):
        raise ValueError("latencies must be non-negative")
    if not np.allclose(matrix, matrix.T, rtol=1e-6, atol=1e-12):
        raise ValueError("latency_matrix must be symmetric")
    return matrix


def identify_logical_clusters(
    latency_matrix: np.ndarray,
    *,
    tolerance: float = 0.30,
    wan_threshold: float = 1e-3,
) -> list[LogicalCluster]:
    """Partition machines into logical homogeneous clusters.

    Parameters
    ----------
    latency_matrix:
        Symmetric matrix of one-way latencies between machines, in seconds
        (the diagonal is ignored).
    tolerance:
        Lowekamp tolerance rate ρ: two machines may share a cluster only if
        their mutual latency is within ``(1 + ρ)`` of the smallest latency
        each of them exhibits towards the cluster, and all intra-cluster
        latencies stay below ``wan_threshold``.
    wan_threshold:
        Latencies at or above this value (default 1 ms) are considered
        wide-area and never grouped, regardless of the tolerance.

    Returns
    -------
    list of :class:`LogicalCluster`
        Clusters sorted by decreasing size then by first member rank, which is
        the presentation order used by the paper's Table 3.
    """
    matrix = _validate_matrix(latency_matrix)
    tolerance = check_probability(tolerance, "tolerance") if tolerance <= 1 else tolerance
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    count = matrix.shape[0]

    # Step 1: build the compatibility graph.  Two machines are compatible if
    # their direct latency is local-area and comparable to the *best* latency
    # either machine sees (within the tolerance factor).
    best_latency = np.empty(count)
    for index in range(count):
        off_diagonal = np.delete(matrix[index], index)
        best_latency[index] = off_diagonal.min() if off_diagonal.size else 0.0

    import networkx as nx  # imported on use: loading it dominates start-up

    graph = nx.Graph()
    graph.add_nodes_from(range(count))
    for i in range(count):
        for j in range(i + 1, count):
            latency = matrix[i, j]
            if latency >= wan_threshold:
                continue
            reference = max(min(best_latency[i], best_latency[j]), 1e-12)
            if latency <= reference * (1.0 + tolerance):
                graph.add_edge(i, j, latency=latency)

    # Step 2: connected components are candidate clusters; refine each one so
    # that *all* pairwise latencies respect the tolerance with respect to the
    # component's minimum latency, splitting off outliers into their own
    # clusters (this is what isolates the single-machine IDPOT nodes, whose
    # 242 µs mutual latency violates ρ = 30 % of the 60 µs reference).
    clusters: list[list[int]] = []
    for component in nx.connected_components(graph):
        members = sorted(component)
        clusters.extend(_refine_component(matrix, members, tolerance))

    # Machines with no compatible peer at all become singletons via empty
    # components handled above (they are isolated nodes in the graph).

    result: list[LogicalCluster] = []
    for members in clusters:
        members_tuple = tuple(sorted(members))
        if len(members_tuple) >= 2:
            submatrix = matrix[np.ix_(members_tuple, members_tuple)]
            upper = submatrix[np.triu_indices(len(members_tuple), k=1)]
            reference = float(np.median(upper))
        else:
            reference = 0.0
        result.append(LogicalCluster(members=members_tuple, reference_latency=reference))
    result.sort(key=lambda c: (-c.size, c.members[0]))
    return result


def _refine_component(
    matrix: np.ndarray, members: list[int], tolerance: float
) -> list[list[int]]:
    """Split a candidate component until every group satisfies the tolerance."""
    if len(members) <= 1:
        return [members]
    submatrix = matrix[np.ix_(members, members)]
    upper_indices = np.triu_indices(len(members), k=1)
    pair_latencies = submatrix[upper_indices]
    minimum = pair_latencies.min()
    if pair_latencies.max() <= minimum * (1.0 + tolerance):
        return [members]
    # Greedy split: seed a group with the pair achieving the minimum latency,
    # grow it with every machine whose latency to all current members stays
    # within tolerance of the minimum, and recurse on the rest.
    i_min, j_min = (upper_indices[0][pair_latencies.argmin()],
                    upper_indices[1][pair_latencies.argmin()])
    group = {members[i_min], members[j_min]}
    threshold = minimum * (1.0 + tolerance)
    changed = True
    while changed:
        changed = False
        for candidate in members:
            if candidate in group:
                continue
            if all(matrix[candidate, other] <= threshold for other in group):
                group.add(candidate)
                changed = True
    rest = [m for m in members if m not in group]
    return [sorted(group)] + _refine_component(matrix, rest, tolerance)


def membership_vector(clusters: list[LogicalCluster], num_nodes: int) -> list[int]:
    """Convert a cluster list into a per-node membership vector.

    ``membership[rank]`` is the index of the cluster containing ``rank`` in
    the given list.  Raises if the clusters do not form a partition of
    ``range(num_nodes)``.
    """
    membership = [-1] * num_nodes
    for index, cluster in enumerate(clusters):
        for member in cluster.members:
            if not 0 <= member < num_nodes:
                raise ValueError(f"cluster member {member} outside [0, {num_nodes})")
            if membership[member] != -1:
                raise ValueError(f"node {member} appears in two clusters")
            membership[member] = index
    missing = [rank for rank, value in enumerate(membership) if value == -1]
    if missing:
        raise ValueError(f"nodes {missing} belong to no cluster")
    return membership
