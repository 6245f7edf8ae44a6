"""The two-level grid topology used by all heuristics and experiments."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

from repro.model.plogp import GapFunction, PLogPParameters
from repro.topology.cluster import Cluster
from repro.topology.node import Node
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first export only
    import networkx as nx


@dataclass(frozen=True)
class InterClusterLink:
    """The pLogP description of the link between two clusters.

    Attributes
    ----------
    latency:
        One-way latency ``L_{i,j}`` in seconds.
    gap:
        Gap function ``g_{i,j}(m)``.
    """

    latency: float
    gap: GapFunction

    def __post_init__(self) -> None:
        check_non_negative(self.latency, "latency")
        if not isinstance(self.gap, GapFunction):
            raise TypeError("gap must be a GapFunction")

    def transfer_time(self, message_size: float) -> float:
        """``g_{i,j}(m) + L_{i,j}``: time for the message to reach the peer."""
        return self.gap(message_size) + self.latency

    @classmethod
    def from_values(cls, latency: float, gap: float) -> "InterClusterLink":
        """Build a link with a size-independent gap (Monte-Carlo style)."""
        return cls(latency=latency, gap=GapFunction.constant(gap))


class Grid:
    """A grid: clusters plus a full mesh of inter-cluster links.

    The grid is the single topology object consumed by every other layer:

    * the **scheduling heuristics** (:mod:`repro.core`) read the inter-cluster
      latencies/gaps and the per-cluster local broadcast times ``T_i``;
    * the **simulator** (:mod:`repro.simulator`) additionally needs node-level
      point-to-point parameters, which the grid derives from the cluster
      intra-parameters (for two nodes of the same cluster) or from the
      inter-cluster link (for nodes of different clusters — the coordinators
      are the only nodes that actually use those paths in a hierarchical
      broadcast, but the information is defined for every pair).

    The grid is **array-backed**: its primary state is a read-only ``(n, n)``
    latency matrix, a read-only ``(n, n)`` matrix of size-independent gaps
    (plus the few size-dependent gap functions, evaluated per message size),
    the per-cluster fixed ``T_i`` vector and the rank offset of every
    cluster.  :class:`InterClusterLink`, :class:`Cluster` and :class:`Node`
    objects are *views*, built on first access and cached — the Monte-Carlo
    study reads only the arrays and never builds one.  Clusters are read
    once, when the grid is built.

    Parameters
    ----------
    clusters:
        The clusters, in index order.  ``clusters[k].cluster_id`` must be
        ``k``.
    links:
        Mapping ``(i, j) -> InterClusterLink`` for every unordered pair of
        distinct clusters.  Links may be asymmetric: the pair is looked up as
        ``(i, j)`` first and falls back to ``(j, i)``.
    name:
        Optional display name of the grid.
    """

    def __init__(
        self,
        clusters: Iterable[Cluster],
        links: dict[tuple[int, int], InterClusterLink],
        *,
        name: str = "grid",
    ) -> None:
        clusters = list(clusters)
        if not clusters:
            raise ValueError("a grid needs at least one cluster")
        for index, cluster in enumerate(clusters):
            if not isinstance(cluster, Cluster):
                raise TypeError("clusters must be Cluster instances")
            if cluster.cluster_id != index:
                raise ValueError(
                    f"cluster at position {index} has cluster_id {cluster.cluster_id}; "
                    "cluster ids must match their position"
                )
        links = dict(links)
        _validate_links(len(clusters), links)
        n = len(clusters)
        # Every ordered pair resolves to its own link, else to its mirror's.
        resolved = {(j, i): link for (i, j), link in links.items()}
        resolved.update(links)
        latency = np.zeros((n, n))
        gap = np.zeros((n, n))
        sized: dict[GapFunction, list[int]] = {}
        for (i, j), link in resolved.items():
            latency[i, j] = link.latency
            function = link.gap
            if len(function.sizes) == 1:
                gap[i, j] = function.gaps[0]
            else:
                gap[i, j] = np.nan
                sized.setdefault(function, []).append(i * n + j)
        fixed = np.array(
            [
                np.nan if c.fixed_broadcast_time is None else c.fixed_broadcast_time
                for c in clusters
            ],
            dtype=float,
        )
        self._setup(
            latency,
            gap,
            fixed,
            [cluster.size for cluster in clusters],
            name=name,
            sized_gaps=[
                (function, np.array(cells)) for function, cells in sized.items()
            ],
            clusters=clusters,
            links=links,
        )
        for cluster, first_rank in zip(clusters, self._first_ranks):
            cluster.build_nodes(first_rank)

    @classmethod
    def _from_arrays(
        cls,
        latency: np.ndarray,
        gap: np.ndarray,
        fixed_broadcast_times: np.ndarray,
        *,
        cluster_size: int,
        name: str,
    ) -> "Grid":
        """A grid of equal-sized fixed-``T`` clusters straight from its arrays.

        The caller guarantees validated, finite, non-negative values and zero
        diagonals (this is the random generator's path); the arrays are
        adopted, not copied.
        """
        grid = cls.__new__(cls)
        grid._setup(
            latency,
            gap,
            fixed_broadcast_times,
            [cluster_size] * len(fixed_broadcast_times),
            name=name,
            sized_gaps=[],
        )
        return grid

    def _setup(
        self,
        latency: np.ndarray,
        gap: np.ndarray,
        fixed_broadcast_times: np.ndarray,
        sizes: list[int],
        *,
        name: str,
        sized_gaps: list[tuple[GapFunction, np.ndarray]],
        clusters: Optional[list[Cluster]] = None,
        links: Optional[dict[tuple[int, int], InterClusterLink]] = None,
    ) -> None:
        """Adopt the primary arrays; ``clusters`` and ``links`` pre-fill the
        view caches (the links-dict constructor passes the caller's objects)."""
        self.name = name
        self._latency = latency
        self._gap = gap
        #: ``(function, flat cell indices)`` of the size-dependent gaps; their
        #: cells hold NaN in ``_gap``.
        self._sized_gaps = sized_gaps
        self._fixed_times = fixed_broadcast_times
        # T_i where it does not depend on the message size (0 for one-node
        # clusters); NaN where it is predicted from intra_params.
        self._local_times = np.where(
            np.asarray(sizes) > 1, fixed_broadcast_times, 0.0
        )
        self._first_ranks = [0, *accumulate(sizes)]
        self._rank_offsets = np.array(self._first_ranks, dtype=np.int64)
        self._freeze_arrays()
        self._clusters: list[Optional[Cluster]] = (
            [None] * len(sizes) if clusters is None else list(clusters)
        )
        self._links = {} if links is None else links
        self._nodes: Optional[list[Node]] = None

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Unpickled arrays come back writable.
        self.__dict__.update(state)
        self._freeze_arrays()

    def _freeze_arrays(self) -> None:
        for array in (
            self._latency,
            self._gap,
            self._fixed_times,
            self._local_times,
            self._rank_offsets,
        ):
            array.setflags(write=False)

    # -- basic accessors ---------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the grid."""
        return len(self._clusters)

    @property
    def num_nodes(self) -> int:
        """Total number of machines across all clusters."""
        return self._first_ranks[-1]

    @property
    def rank_offsets(self) -> np.ndarray:
        """Read-only ``(num_clusters + 1,)`` array of cluster rank offsets.

        Cluster ``c`` owns the contiguous ranks ``rank_offsets[c]`` up to
        ``rank_offsets[c + 1]``; its coordinator is the first of them, and
        the last entry is :attr:`num_nodes`.
        """
        return self._rank_offsets

    @property
    def clusters(self) -> list[Cluster]:
        """The clusters, in index order."""
        return [self.cluster(index) for index in range(len(self._clusters))]

    @property
    def nodes(self) -> list[Node]:
        """All nodes of the grid, in rank order."""
        return list(self._node_list())

    def _check_cluster(self, cluster_id: int) -> None:
        if not 0 <= cluster_id < len(self._clusters):
            raise ValueError(f"unknown cluster id {cluster_id}")

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._first_ranks[-1]:
            raise ValueError(f"unknown rank {rank}")

    def cluster(self, cluster_id: int) -> Cluster:
        """The cluster with the given index."""
        self._check_cluster(cluster_id)
        cluster = self._clusters[cluster_id]
        if cluster is None:
            first_rank = self._first_ranks[cluster_id]
            cluster = Cluster(
                cluster_id=int(cluster_id),
                size=self._first_ranks[cluster_id + 1] - first_rank,
                fixed_broadcast_time=float(self._fixed_times[cluster_id]),
            )
            cluster.build_nodes(first_rank)
            self._clusters[cluster_id] = cluster
        return cluster

    def _node_list(self) -> list[Node]:
        if self._nodes is None:
            self._nodes = [node for cluster in self.clusters for node in cluster.nodes]
        return self._nodes

    def node(self, rank: int) -> Node:
        """The node with the given global rank."""
        self._check_rank(rank)
        return self._node_list()[rank]

    def coordinator_rank(self, cluster_id: int) -> int:
        """Global rank of the coordinator of ``cluster_id``."""
        self._check_cluster(cluster_id)
        return self._first_ranks[cluster_id]

    def cluster_of_rank(self, rank: int) -> int:
        """Cluster index owning the given global rank."""
        self._check_rank(rank)
        return bisect_right(self._first_ranks, rank) - 1

    def link(self, i: int, j: int) -> InterClusterLink:
        """The inter-cluster link between clusters ``i`` and ``j``."""
        if i == j:
            raise ValueError("no inter-cluster link from a cluster to itself")
        self._check_cluster(i)
        self._check_cluster(j)
        link = self._links.get((i, j))
        if link is None:
            link = self._links.get((j, i))
        if link is None:
            link = InterClusterLink.from_values(
                latency=float(self._latency[i, j]), gap=float(self._gap[i, j])
            )
            self._links[(i, j)] = link
        return link

    # -- pLogP quantities used by the heuristics ---------------------------------

    def latency(self, i: int, j: int) -> float:
        """Inter-cluster latency ``L_{i,j}`` in seconds."""
        return self.link(i, j).latency

    def gap(self, i: int, j: int, message_size: float) -> float:
        """Inter-cluster gap ``g_{i,j}(m)`` in seconds."""
        return self.link(i, j).gap(message_size)

    def transfer_time(self, i: int, j: int, message_size: float) -> float:
        """``g_{i,j}(m) + L_{i,j}``: the cost the heuristics reason about."""
        return self.link(i, j).transfer_time(message_size)

    def broadcast_time(self, cluster_id: int, message_size: float) -> float:
        """Intra-cluster broadcast time ``T_i`` of cluster ``cluster_id``."""
        return self.cluster(cluster_id).broadcast_time(message_size)

    def broadcast_times(self, message_size: float) -> list[float]:
        """``T_i`` for every cluster, in index order."""
        check_non_negative(message_size, "message_size")
        times = self._local_times.tolist()
        for index in np.flatnonzero(np.isnan(self._local_times)).tolist():
            times[index] = self.cluster(index).broadcast_time(message_size)
        return times

    def cost_matrices(self, message_size: float) -> "tuple[np.ndarray, np.ndarray]":
        """Dense read-only ``(latency, gap)`` matrices for every ordered pair.

        Equal to querying :meth:`latency` / :meth:`gap` per pair (the same
        ``(i, j)``-then-``(j, i)`` link fallback applies); the diagonals are
        zero.  Size-independent gaps are the stored matrix itself, so on a
        generated grid this returns the grid's own arrays without a copy;
        each size-dependent gap function is evaluated once.  This is the bulk
        path behind :class:`repro.core.costs.GridCostCache`.
        """
        check_non_negative(message_size, "message_size")
        if not self._sized_gaps:
            return self._latency, self._gap
        gap = self._gap.copy()
        for function, cells in self._sized_gaps:
            gap.flat[cells] = function(message_size)
        gap.setflags(write=False)
        return self._latency, gap

    # -- node-level quantities used by the simulator ------------------------------

    def node_link_parameters(self, rank_a: int, rank_b: int) -> PLogPParameters:
        """pLogP parameters of the path between two individual nodes.

        Two nodes of the same cluster use the cluster's intra-cluster
        parameters; nodes of different clusters use the inter-cluster link.
        A node talking to itself has zero cost.
        """
        cluster_a = self.cluster_of_rank(rank_a)
        cluster_b = self.cluster_of_rank(rank_b)
        if rank_a == rank_b:
            return PLogPParameters.from_values(latency=0.0, gap=0.0)
        if cluster_a == cluster_b:
            return self.intra_parameters(cluster_a)
        link = self.link(cluster_a, cluster_b)
        return PLogPParameters(latency=link.latency, gap=link.gap, num_procs=2)

    def intra_parameters(self, cluster_id: int) -> PLogPParameters:
        """pLogP parameters between two distinct nodes of one cluster.

        The cluster's ``intra_params`` where it has them.  Otherwise a
        proportional model derived from the fixed ``T_i``, so that
        Monte-Carlo grids remain simulable at the node level.  This is the
        one place that rule lives: :meth:`node_link_parameters` and the
        batched simulator's node tables
        (:meth:`repro.core.costs.GridCostCache.node_tables`) both read it.
        """
        cluster = self.cluster(cluster_id)
        if cluster.intra_params is not None:
            return cluster.intra_params
        fixed = cluster.fixed_broadcast_time or 0.0
        rounds = max(1, (cluster.size - 1).bit_length())
        per_hop = fixed / rounds if rounds else 0.0
        return PLogPParameters(
            latency=per_hop / 2.0,
            gap=GapFunction.constant(per_hop / 2.0),
            num_procs=cluster.size,
        )

    # -- conversions ---------------------------------------------------------------

    def to_networkx(self, message_size: float = 1_048_576.0) -> nx.Graph:
        """Export the cluster-level topology as a weighted :mod:`networkx` graph.

        Nodes are cluster indices carrying ``size``, ``name`` and
        ``broadcast_time`` attributes; edges carry ``latency``, ``gap`` and
        ``transfer_time`` evaluated at ``message_size``.  Handy for
        visualisation and for sanity checks with networkx's own tree
        algorithms.
        """
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for cluster in self.clusters:
            graph.add_node(
                cluster.cluster_id,
                name=cluster.name,
                size=cluster.size,
                broadcast_time=cluster.broadcast_time(message_size),
            )
        for i in range(self.num_clusters):
            for j in range(i + 1, self.num_clusters):
                link = self.link(i, j)
                graph.add_edge(
                    i,
                    j,
                    latency=link.latency,
                    gap=link.gap(message_size),
                    transfer_time=link.transfer_time(message_size),
                )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grid(name={self.name!r}, clusters={self.num_clusters}, "
            f"nodes={self.num_nodes})"
        )


def _validate_links(n: int, links: dict[tuple[int, int], InterClusterLink]) -> None:
    for (i, j), link in links.items():
        if not isinstance(link, InterClusterLink):
            raise TypeError("links values must be InterClusterLink instances")
        if i == j:
            raise ValueError(f"link ({i}, {j}) connects a cluster to itself")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"link ({i}, {j}) references an unknown cluster")
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in links and (j, i) not in links:
                raise ValueError(f"missing inter-cluster link between {i} and {j}")


def complete_links(
    latencies: "list[list[float]] | object",
    gaps: "list[list[float]] | object",
) -> dict[tuple[int, int], InterClusterLink]:
    """Build a full link map from dense latency and gap matrices.

    ``latencies[i][j]`` and ``gaps[i][j]`` give the parameters of the link
    from cluster ``i`` to cluster ``j``; only the upper triangle is read (the
    paper's matrices are symmetric).  Accepts nested lists or numpy arrays.
    """
    size = len(latencies)
    links: dict[tuple[int, int], InterClusterLink] = {}
    for i in range(size):
        row_l = latencies[i]
        row_g = gaps[i]
        if len(row_l) != size or len(row_g) != size:
            raise ValueError("latency and gap matrices must be square and consistent")
        for j in range(i + 1, size):
            links[(i, j)] = InterClusterLink.from_values(
                latency=float(row_l[j]), gap=float(row_g[j])
            )
    return links
