"""Tests for repro.gossip: specs, engines (bit-identity), programs, study, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.gossip_study import (
    GossipStudyConfig,
    GossipStudyResult,
    run_gossip_study,
)
from repro.gossip import (
    GOSSIP_PROTOCOLS,
    ChurnSpec,
    GossipSpec,
    churn_schedule,
    gossip_program,
    gossip_round_time,
    run_gossip,
)
from repro.gossip.engine import DEFAULT_GOSSIP_PARAMS
from repro.runtime.chunking import gossip_cost
from repro.simulator.batch import execute_programs
from repro.simulator.execution import execute_program
from repro.simulator.network import SimulatedNetwork
from repro.topology.cluster import Cluster
from repro.topology.grid import Grid

CHURN = ChurnSpec(leave_fraction=0.25, join_fraction=0.15)


def small_spec(protocol: str, *, churn: ChurnSpec | None = None, seed: int = 11):
    return GossipSpec(
        protocol=protocol, num_nodes=193, fanout=3, seed=seed, churn=churn, root=7
    )


class TestChurnSpec:
    def test_inactive_by_default(self):
        assert not ChurnSpec().active
        assert ChurnSpec(leave_fraction=0.1).active
        assert ChurnSpec(join_fraction=0.1).active

    @pytest.mark.parametrize("field", ["leave_fraction", "join_fraction"])
    def test_fraction_bounds(self, field):
        with pytest.raises(ValueError):
            ChurnSpec(**{field: 1.0})
        with pytest.raises(ValueError):
            ChurnSpec(**{field: -0.1})
        with pytest.raises(TypeError):
            ChurnSpec(**{field: "0.5"})


class TestGossipSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            GossipSpec(protocol="carrier-pigeon", num_nodes=8)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=0)
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=4, fanout=0)
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=4, fanout=4)
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=4, rounds=0)
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=4, root=4)
        with pytest.raises(ValueError):
            GossipSpec(protocol="push", num_nodes=4, ttl=-1)
        with pytest.raises(TypeError):
            GossipSpec(protocol="push", num_nodes=True)
        with pytest.raises(TypeError):
            GossipSpec(protocol="push", num_nodes=4, churn=0.5)

    def test_effective_ttl_auto_sizing(self):
        assert GossipSpec(protocol="epto", num_nodes=1024).effective_ttl == 12
        assert GossipSpec(protocol="epto", num_nodes=1024, ttl=5).effective_ttl == 5

    def test_sends_per_sender(self):
        assert GossipSpec(protocol="flood", num_nodes=9).sends_per_sender == 8
        assert GossipSpec(protocol="tree", num_nodes=9).sends_per_sender == 1
        assert GossipSpec(protocol="push", num_nodes=9, fanout=4).sends_per_sender == 4


class TestChurnSchedule:
    def test_no_churn_keeps_everyone(self):
        spec = small_spec("push")
        join, leave = churn_schedule(spec)
        assert np.array_equal(join, np.zeros(spec.num_nodes, dtype=np.int64))
        assert np.all(leave == spec.rounds + 1)

    def test_churn_is_deterministic_and_root_pinned(self):
        spec = small_spec("push", churn=CHURN)
        join, leave = churn_schedule(spec)
        join2, leave2 = churn_schedule(spec)
        assert np.array_equal(join, join2) and np.array_equal(leave, leave2)
        assert join[spec.root] == 0
        assert leave[spec.root] == spec.rounds + 1
        assert np.all(join <= leave)
        assert np.any(leave <= spec.rounds)  # some nodes actually leave

    def test_different_seeds_draw_different_schedules(self):
        a = churn_schedule(small_spec("push", churn=CHURN, seed=1))
        b = churn_schedule(small_spec("push", churn=CHURN, seed=2))
        assert not np.array_equal(a[1], b[1])


class TestEngineBitIdentity:
    """The tentpole contract: scalar and vectorized engines never diverge."""

    @pytest.mark.parametrize("protocol", GOSSIP_PROTOCOLS)
    @pytest.mark.parametrize("churn", [None, CHURN], ids=["nochurn", "churn"])
    @pytest.mark.parametrize("seed", [3, 20060331])
    def test_scalar_matches_vectorized(self, protocol, churn, seed):
        spec = small_spec(protocol, churn=churn, seed=seed)
        vectorized = run_gossip(spec)
        scalar = run_gossip(spec, engine="scalar")
        assert np.array_equal(vectorized.informed_round, scalar.informed_round)
        assert np.array_equal(
            vectorized.messages_per_round, scalar.messages_per_round
        )
        assert vectorized.rounds_executed == scalar.rounds_executed
        if protocol == "epto":
            assert np.array_equal(vectorized.final_ttl, scalar.final_ttl)
        else:
            assert vectorized.final_ttl is None and scalar.final_ttl is None

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            run_gossip(small_spec("push"), engine="quantum")


class TestEngineBehaviour:
    def test_single_node_network_is_instantly_done(self):
        result = run_gossip(GossipSpec(protocol="push", num_nodes=1, fanout=1))
        assert result.rounds_executed == 0
        assert result.delivered_count == 1
        assert result.total_messages == 0

    def test_flood_delivers_everyone_in_two_rounds(self):
        result = run_gossip(small_spec("flood"))
        assert result.delivered_count == 193
        assert result.rounds_to_delivery == 1
        assert result.rounds_executed == 2  # round 1 drains the fresh senders

    def test_tree_is_the_binomial_ladder(self):
        result = run_gossip(GossipSpec(protocol="tree", num_nodes=256))
        assert result.rounds_executed == 8  # ceil(log2 256)
        assert result.delivered_count == 256
        assert result.total_messages == 255  # exactly one receive per node

    def test_push_delivers_everyone_without_churn(self):
        result = run_gossip(small_spec("push"))
        assert result.delivered_count == result.spec.num_nodes
        assert result.delivery_fraction == 1.0

    def test_epto_keeps_relaying_after_delivery(self):
        result = run_gossip(small_spec("epto"))
        assert result.delivered_count == result.spec.num_nodes
        assert result.rounds_executed > result.rounds_to_delivery
        assert np.all(result.final_ttl == 0)  # every ball fully drained

    def test_informed_counts_monotone_and_end_at_delivered(self):
        result = run_gossip(small_spec("pushpull", churn=CHURN))
        counts = result.informed_counts()
        assert np.all(np.diff(counts) >= 0)
        assert counts[-1] == result.delivered_count

    def test_churn_costs_delivery(self):
        hard_churn = ChurnSpec(leave_fraction=0.5)
        tree = run_gossip(small_spec("tree", churn=hard_churn))
        push = run_gossip(small_spec("pushpull", churn=hard_churn))
        assert tree.delivery_fraction < 1.0
        assert push.delivery_fraction > tree.delivery_fraction

    def test_timing_derivation(self):
        spec = small_spec("push")
        result = run_gossip(spec)
        base = gossip_round_time(spec, 1024.0)
        assert base == pytest.approx(
            DEFAULT_GOSSIP_PARAMS.latency
            + spec.fanout * DEFAULT_GOSSIP_PARAMS.gap(1024.0)
        )
        assert result.makespan(1024.0) == pytest.approx(
            base * result.rounds_executed
        )
        noisy = result.round_durations(1024.0, noise_sigma=0.1)
        assert noisy.shape == (result.rounds_executed,)
        assert not np.allclose(noisy, base)
        # Noise is seeded: the same run re-derives the same durations.
        assert np.array_equal(noisy, result.round_durations(1024.0, noise_sigma=0.1))
        assert result.delivery_time(1024.0, noise_sigma=0.1) <= result.makespan(
            1024.0, noise_sigma=0.1
        )


def gossip_grid(num_nodes: int) -> Grid:
    return Grid([Cluster(cluster_id=0, size=num_nodes, fixed_broadcast_time=0.0)], {})


class TestGossipProgram:
    @pytest.mark.parametrize("protocol", ["flood", "push", "epto", "tree"])
    def test_message_counts_match_the_engine(self, protocol):
        spec = GossipSpec(protocol=protocol, num_nodes=61, fanout=2, seed=5)
        result = run_gossip(spec)
        program = gossip_program(spec, 512.0, result=result)
        assert program.total_messages() == result.total_messages
        assert program.num_ranks == spec.num_nodes
        assert program.root == spec.root

    def test_pushpull_carries_payload_traffic_only(self):
        spec = GossipSpec(protocol="pushpull", num_nodes=61, fanout=2, seed=5)
        result = run_gossip(spec)
        program = gossip_program(spec, 512.0, result=result)
        # Engine counts empty pull requests too; the program ships payloads.
        assert program.total_messages() < result.total_messages
        replies = sum(
            1
            for sends in program.sends.values()
            for send in sends
            if send.tag.endswith("/pull")
        )
        assert replies > 0

    def test_rejects_churned_specs_and_foreign_results(self):
        churned = GossipSpec(protocol="push", num_nodes=16, churn=CHURN)
        with pytest.raises(ValueError, match="churn"):
            gossip_program(churned, 512.0)
        spec = GossipSpec(protocol="push", num_nodes=16, seed=1)
        other = run_gossip(GossipSpec(protocol="push", num_nodes=16, seed=2))
        with pytest.raises(ValueError, match="different spec"):
            gossip_program(spec, 512.0, result=other)

    @pytest.mark.parametrize("protocol", ["push", "pushpull", "epto"])
    def test_program_runs_through_both_simulator_lanes(self, protocol):
        spec = GossipSpec(protocol=protocol, num_nodes=33, fanout=2, seed=9)
        engine_result = run_gossip(spec)
        program = gossip_program(spec, 256.0, result=engine_result)
        grid = gossip_grid(spec.num_nodes)
        scalar = execute_program(SimulatedNetwork(grid), program)
        (batched,) = execute_programs(grid, [program])
        assert batched.makespan == scalar.makespan
        activated = {
            rank
            for rank, time in enumerate(scalar.activation_times)
            if time is not None
        }
        # Without churn every node the engine delivered receives the payload.
        assert activated == set(np.flatnonzero(engine_result.delivered_mask))


class TestGossipStudy:
    CONFIG = GossipStudyConfig(
        protocols=("tree", "push", "pushpull"),
        node_counts=(200, 500),
        churn=CHURN,
        noise_sigma=0.05,
        seed=99,
    )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GossipStudyConfig(protocols=())
        with pytest.raises(ValueError):
            GossipStudyConfig(protocols=("push", "push"))
        with pytest.raises(ValueError):
            GossipStudyConfig(protocols=("smoke-signal",))
        with pytest.raises(ValueError):
            GossipStudyConfig(node_counts=())
        with pytest.raises(TypeError):
            GossipStudyConfig(node_counts=(1.5,))

    def test_cells_have_distinct_derived_seeds(self):
        config = self.CONFIG
        seeds = {
            config.spec_for(protocol, nodes).seed
            for protocol in config.protocols
            for nodes in config.node_counts
        }
        assert len(seeds) == len(config.protocols) * len(config.node_counts)

    def test_fanout_clamped_for_tiny_networks(self):
        config = GossipStudyConfig(fanout=5)
        assert config.spec_for("push", 3).fanout == 2

    def test_worker_and_lane_invariance(self):
        inline = run_gossip_study(self.CONFIG)
        three = run_gossip_study(self.CONFIG, workers=3, executor="process")
        processed = run_gossip_study(self.CONFIG, workers=2, executor="process")
        assert np.array_equal(inline.metrics, three.metrics)
        assert np.array_equal(inline.metrics, processed.metrics)

    def test_result_surface(self):
        result = run_gossip_study(self.CONFIG)
        assert result.metric("rounds_executed").shape == (3, 2)
        with pytest.raises(ValueError, match="unknown metric"):
            result.metric("vibes")
        fractions = result.delivery_fractions()
        assert np.all((0.0 < fractions) & (fractions <= 1.0))
        rows = result.as_table()
        assert len(rows) == 6
        assert rows[0]["protocol"] == "tree"
        assert set(rows[0]) >= {"nodes", "rounds_to_delivery", "delivery_fraction"}

    def test_gossip_cost_prior_scales_with_network(self):
        assert gossip_cost(100_000, 64) > gossip_cost(1_000, 64) > 0
        # The prior never exceeds the round budget's worth of node-rounds.
        assert gossip_cost(8, 2) <= 1.0 + 8 * 2 / 64.0


class TestGossipCli:
    ARGS = [
        "gossip",
        "--protocols",
        "tree,push",
        "--nodes",
        "128,256",
        "--churn",
        "0.2",
        "--noise",
        "0.05",
        "--seed",
        "7",
    ]

    def test_prints_the_study_tables(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for title in (
            "Rounds to delivery",
            "Delivery fraction",
            "Messages per node",
            "Delivery time (s)",
        ):
            assert title in out
        assert "tree" in out and "push" in out

    def test_output_is_lane_invariant(self, capsys):
        assert main(self.ARGS) == 0
        inline = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "3", "--executor", "process"]) == 0
        processed = capsys.readouterr().out
        assert processed == inline
