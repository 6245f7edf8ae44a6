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
from repro.gossip import engine as gossip_engine
from repro.gossip import programs as gossip_programs
from repro.gossip.engine import DEFAULT_GOSSIP_PARAMS
from repro.runtime.chunking import AUTO_INLINE_MAX_UNITS, gossip_cost
from repro.simulator.batch import execute_programs
from repro.simulator.execution import execute_program
from repro.simulator.network import SimulatedNetwork
from repro.topology.cluster import Cluster
from repro.topology.grid import Grid
from repro.utils.rng import derive_seed

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


def fixed_schedule(join_at: int, leave_at: int):
    """A churn schedule where every node but the root joins at ``join_at``
    and leaves at ``leave_at`` (the root stays for the whole run)."""

    def schedule(spec):
        horizon = spec.rounds + 1
        join = np.full(spec.num_nodes, join_at, dtype=np.int64)
        leave = np.full(spec.num_nodes, leave_at, dtype=np.int64)
        join[spec.root] = 0
        leave[spec.root] = horizon
        return np.minimum(join, leave), leave

    return schedule


class TestMembershipBookkeeping:
    """The vectorized engine keeps the alive set and the reachable count
    incrementally; rounds where the whole membership moves at once must
    still match the scalar reference, which re-derives both per node."""

    @pytest.mark.parametrize("protocol", GOSSIP_PROTOCOLS)
    @pytest.mark.parametrize(
        "join_at, leave_at", [(0, 1), (0, 2), (2, 7), (1, 3)],
        ids=["all-leave-r1", "all-leave-r2", "all-join-r2", "join-r1-leave-r3"],
    )
    def test_whole_network_moves_at_once(
        self, monkeypatch, protocol, join_at, leave_at
    ):
        monkeypatch.setattr(
            gossip_engine, "churn_schedule", fixed_schedule(join_at, leave_at)
        )
        spec = GossipSpec(
            protocol=protocol, num_nodes=61, fanout=3, rounds=6, root=4, seed=17
        )
        vectorized = run_gossip(spec)
        scalar = run_gossip(spec, engine="scalar")
        assert np.array_equal(vectorized.informed_round, scalar.informed_round)
        assert np.array_equal(
            vectorized.messages_per_round, scalar.messages_per_round
        )
        assert vectorized.rounds_executed == scalar.rounds_executed
        if protocol == "epto":
            assert np.array_equal(vectorized.final_ttl, scalar.final_ttl)
        # Nobody is informed outside its alive interval.
        delivered = vectorized.delivered_mask
        delivered[spec.root] = False
        assert np.all(vectorized.informed_round[delivered] >= join_at)
        assert np.all(vectorized.informed_round[delivered] < leave_at)
        if leave_at == 1:
            # Everyone but the root is gone before a first send can land.
            assert vectorized.delivered_count == 1
            if protocol in ("push", "pushpull"):
                assert vectorized.rounds_executed == 0  # nothing reachable


class TestTargetDrawWidth:
    """The narrow target draw is the int64 one, row for row.

    The vectorized round draws targets as ``int32`` whenever every rank fits,
    resting on NumPy drawing any range below ``2**32`` with one 32-bit step
    whatever the output dtype.  These cases pin that behaviour at the edges
    of both widths without allocating anything network-sized, so a NumPy
    that splits the two paths fails here first.
    """

    @staticmethod
    def int64_rows(spec, round_index, drawers):
        rng = np.random.default_rng(
            derive_seed(spec.seed, "gossip/targets", spec.protocol, round_index)
        )
        raw = rng.integers(0, spec.num_nodes - 1, size=(drawers.size, spec.fanout))
        raw += raw >= drawers[:, None]
        return raw

    @pytest.mark.parametrize(
        "num_nodes", [2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**40]
    )
    @pytest.mark.parametrize("fanout", [1, 2, 7])
    @pytest.mark.parametrize("seed", [1, 2**40 + 3])
    def test_rows_equal_the_int64_formula(self, num_nodes, fanout, seed):
        spec = GossipSpec(
            protocol="push",
            num_nodes=num_nodes,
            fanout=min(fanout, num_nodes - 1),
            seed=seed,
        )
        low = np.arange(min(num_nodes, 40))
        high = np.arange(max(num_nodes - 40, 0), num_nodes)
        drawers = np.union1d(low, high)
        for round_index in (0, 1, 11):
            rows = gossip_engine._round_targets(spec, round_index, drawers)
            assert rows.dtype == (np.int32 if num_nodes <= 2**31 else np.int64)
            expected = self.int64_rows(spec, round_index, drawers)
            assert rows.tolist() == expected.tolist()
            assert np.all((rows >= 0) & (rows < num_nodes))
            assert not np.any(rows == drawers[:, None])


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


class TestDrawerContract:
    """Targets are drawn only for the round's drawers, the same everywhere."""

    @staticmethod
    def spy(monkeypatch, module) -> list[tuple[int, np.ndarray]]:
        calls: list[tuple[int, np.ndarray]] = []
        draw = gossip_engine._round_targets

        def recording(spec, round_index, drawers):
            calls.append((round_index, drawers.copy()))
            return draw(spec, round_index, drawers)

        monkeypatch.setattr(module, "_round_targets", recording)
        return calls

    @pytest.mark.parametrize("protocol", ["push", "epto"])
    @pytest.mark.parametrize("seed", [5, 20060331])
    def test_program_replays_first_receive_rounds(self, protocol, seed):
        spec = GossipSpec(protocol=protocol, num_nodes=97, fanout=2, seed=seed)
        result = run_gossip(spec)
        program = gossip_program(spec, 256.0, result=result)
        rebuilt = np.full(spec.num_nodes, -1, dtype=np.int64)
        for sends in program.sends.values():
            for send in sends:
                arrival = int(send.tag.removeprefix("round-")) + 1
                if rebuilt[send.destination] < 0 or arrival < rebuilt[send.destination]:
                    rebuilt[send.destination] = arrival
        rebuilt[spec.root] = 0
        assert np.array_equal(rebuilt, result.informed_round)

    @pytest.mark.parametrize("protocol", ["push", "pushpull", "epto"])
    @pytest.mark.parametrize("churn", [None, CHURN], ids=["nochurn", "churn"])
    def test_every_caller_draws_for_the_same_drawers(
        self, monkeypatch, protocol, churn
    ):
        spec = small_spec(protocol, churn=churn)
        engine_calls = self.spy(monkeypatch, gossip_engine)
        program_calls = self.spy(monkeypatch, gossip_programs)
        result = run_gossip(spec)
        vectorized = list(engine_calls)
        engine_calls.clear()
        run_gossip(spec, engine="scalar")
        scalar = list(engine_calls)

        def same(a, b):
            return len(a) == len(b) and all(
                ra == rb and np.array_equal(da, db) for (ra, da), (rb, db) in zip(a, b)
            )

        assert [r for r, _ in vectorized] == list(range(result.rounds_executed))
        assert same(vectorized, scalar)
        for _, drawers in vectorized:
            assert np.all(np.diff(drawers) > 0)
        if churn is None:
            gossip_program(spec, 256.0, result=result)
            assert same(vectorized, program_calls)
        if protocol == "push":
            drawn = sum(drawers.size for _, drawers in vectorized)
            assert drawn * spec.fanout == result.total_messages


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

    def test_auto_lane_boundary_for_default_studies(self):
        """Priced over the five protocols, a 5,000-node study stays under
        the auto-inline threshold and a (10^3, 10^4) study goes over it —
        the crossover ``bench_runtime.py``'s auto_vs_inline section times."""

        def units(node_counts):
            config = GossipStudyConfig(node_counts=node_counts)
            per_protocol = sum(gossip_cost(n, config.rounds) for n in node_counts)
            return per_protocol * len(config.protocols)

        assert units((5_000,)) <= AUTO_INLINE_MAX_UNITS < units((1_000, 10_000))


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
