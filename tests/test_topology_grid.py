"""Tests for repro.topology.grid."""

from __future__ import annotations

import pytest

from repro.model.plogp import GapFunction
from repro.topology.cluster import Cluster
from repro.topology.grid import Grid, InterClusterLink, complete_links


def make_clusters(count: int, size: int = 2) -> list[Cluster]:
    return [
        Cluster(cluster_id=i, size=size, fixed_broadcast_time=0.1 * (i + 1))
        for i in range(count)
    ]


def full_links(count: int, latency: float = 0.01, gap: float = 0.2):
    return {
        (i, j): InterClusterLink.from_values(latency=latency, gap=gap)
        for i in range(count)
        for j in range(i + 1, count)
    }


class TestInterClusterLink:
    def test_transfer_time(self):
        link = InterClusterLink.from_values(latency=0.01, gap=0.3)
        assert link.transfer_time(123) == pytest.approx(0.31)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            InterClusterLink.from_values(latency=-0.01, gap=0.3)

    def test_rejects_non_gapfunction(self):
        with pytest.raises(TypeError):
            InterClusterLink(latency=0.0, gap=0.5)  # type: ignore[arg-type]


class TestGridConstruction:
    def test_basic_properties(self):
        grid = Grid(make_clusters(3), full_links(3))
        assert grid.num_clusters == 3
        assert grid.num_nodes == 6
        assert len(grid.nodes) == 6

    def test_rank_assignment_is_contiguous(self):
        grid = Grid(make_clusters(3, size=4), full_links(3))
        assert [n.rank for n in grid.nodes] == list(range(12))
        assert grid.coordinator_rank(0) == 0
        assert grid.coordinator_rank(1) == 4
        assert grid.coordinator_rank(2) == 8

    def test_cluster_of_rank(self):
        grid = Grid(make_clusters(3, size=4), full_links(3))
        assert grid.cluster_of_rank(0) == 0
        assert grid.cluster_of_rank(5) == 1
        assert grid.cluster_of_rank(11) == 2

    def test_rank_offsets_are_read_only_and_survive_pickling(self):
        import pickle

        clusters = [
            Cluster(cluster_id=i, size=i + 1, fixed_broadcast_time=0.1)
            for i in range(3)
        ]
        grid = Grid(clusters, full_links(3))
        restored = pickle.loads(pickle.dumps(grid))
        for candidate in (grid, restored):
            assert candidate.rank_offsets.tolist() == [0, 1, 3, 6]
            assert not candidate.rank_offsets.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Grid([], {})

    def test_rejects_misordered_cluster_ids(self):
        clusters = [
            Cluster(cluster_id=1, size=1),
            Cluster(cluster_id=0, size=1),
        ]
        with pytest.raises(ValueError, match="must match their position"):
            Grid(clusters, full_links(2))

    def test_rejects_missing_link(self):
        links = full_links(3)
        del links[(0, 2)]
        with pytest.raises(ValueError, match="missing inter-cluster link"):
            Grid(make_clusters(3), links)

    def test_rejects_self_link(self):
        links = full_links(2)
        links[(0, 0)] = InterClusterLink.from_values(latency=0.01, gap=0.1)
        with pytest.raises(ValueError, match="itself"):
            Grid(make_clusters(2), links)

    def test_rejects_out_of_range_link(self):
        links = full_links(2)
        links[(0, 5)] = InterClusterLink.from_values(latency=0.01, gap=0.1)
        with pytest.raises(ValueError, match="unknown cluster"):
            Grid(make_clusters(2), links)


class TestGridAccessors:
    def test_link_lookup_is_symmetric(self):
        links = full_links(3)
        links[(1, 2)] = InterClusterLink.from_values(latency=0.05, gap=0.4)
        grid = Grid(make_clusters(3), links)
        assert grid.latency(1, 2) == grid.latency(2, 1) == 0.05
        assert grid.gap(2, 1, 0) == pytest.approx(0.4)

    def test_link_to_self_raises(self):
        grid = Grid(make_clusters(2), full_links(2))
        with pytest.raises(ValueError):
            grid.link(1, 1)

    def test_unknown_cluster_raises(self):
        grid = Grid(make_clusters(2), full_links(2))
        with pytest.raises(ValueError):
            grid.cluster(5)
        with pytest.raises(ValueError):
            grid.node(99)

    def test_broadcast_times_match_clusters(self):
        grid = Grid(make_clusters(3), full_links(3))
        assert grid.broadcast_times(0) == pytest.approx([0.1, 0.2, 0.3])
        assert grid.broadcast_time(2, 0) == pytest.approx(0.3)

    def test_transfer_time(self):
        grid = Grid(make_clusters(2), full_links(2, latency=0.01, gap=0.2))
        assert grid.transfer_time(0, 1, 12345) == pytest.approx(0.21)


class TestNodeLinkParameters:
    def test_same_node_is_free(self):
        grid = Grid(make_clusters(2), full_links(2))
        params = grid.node_link_parameters(0, 0)
        assert params.point_to_point_time(1_000_000) == 0.0

    def test_intra_cluster_uses_intra_params(self):
        from repro.model.plogp import PLogPParameters

        intra = PLogPParameters.from_values(latency=1e-4, gap=1e-3, num_procs=4)
        clusters = [
            Cluster(cluster_id=0, size=4, intra_params=intra),
            Cluster(cluster_id=1, size=4, fixed_broadcast_time=0.5),
        ]
        grid = Grid(clusters, full_links(2))
        params = grid.node_link_parameters(0, 2)
        assert params.latency == pytest.approx(1e-4)

    def test_inter_cluster_uses_link(self):
        grid = Grid(make_clusters(2, size=2), full_links(2, latency=0.02, gap=0.3))
        params = grid.node_link_parameters(0, 2)
        assert params.latency == pytest.approx(0.02)
        assert params.gap(0) == pytest.approx(0.3)

    def test_fixed_time_cluster_gets_proportional_model(self):
        grid = Grid(make_clusters(2, size=8), full_links(2))
        params = grid.node_link_parameters(0, 1)
        # The synthesised intra-cluster hop cost must be positive and bounded
        # by the cluster's fixed broadcast time.
        assert 0 < params.point_to_point_time(0) <= 0.1


class TestNetworkxExport:
    def test_graph_structure(self):
        grid = Grid(make_clusters(4), full_links(4))
        graph = grid.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 6
        assert graph.nodes[1]["size"] == 2
        assert graph.edges[0, 1]["transfer_time"] == pytest.approx(0.21)


class TestCompleteLinks:
    def test_builds_upper_triangle(self):
        latencies = [[0, 0.01, 0.02], [0.01, 0, 0.03], [0.02, 0.03, 0]]
        gaps = [[0, 0.1, 0.2], [0.1, 0, 0.3], [0.2, 0.3, 0]]
        links = complete_links(latencies, gaps)
        assert set(links) == {(0, 1), (0, 2), (1, 2)}
        assert links[(1, 2)].latency == pytest.approx(0.03)

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError):
            complete_links([[0, 1], [1, 0, 2]], [[0, 1], [1, 0]])
