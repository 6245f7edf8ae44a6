"""Equivalence suite for the batched measurement engine.

The batched engine must be *bit-identical* to the scalar
:func:`~repro.simulator.execution.execute_program` reference — makespans,
activation/completion vectors and full traces — for every collective shape
the repo produces (scheduled broadcast, binomial baseline, scatter,
all-to-all), with noise off and on (per-task spawned seeds), at any worker
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import GridCostCache
from repro.core.registry import PAPER_HEURISTICS, get_heuristic, instantiate
from repro.experiments.config import PracticalStudyConfig
from repro.mpi.alltoall import direct_alltoall_program, grid_aware_alltoall_program
from repro.mpi.bcast import binomial_bcast_program, grid_aware_bcast_program
from repro.mpi.scatter import flat_scatter_program, grid_aware_scatter_program
from repro.simulator.batch import ExecutionTask, execute_programs
from repro.simulator.network import NetworkConfig
from repro.simulator.program import CommunicationProgram
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid import Grid
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream


def build_tasks(grid, message_sizes, *, seed=123) -> list[ExecutionTask]:
    """The full program zoo: every heuristic bcast + baseline + scatter + a2a."""
    parent = RandomStream(seed=seed)
    tasks = []
    for size in message_sizes:
        for heuristic in instantiate(PAPER_HEURISTICS):
            schedule = heuristic.schedule(grid, size, root=0)
            program = grid_aware_bcast_program(grid, schedule, size)
            tasks.append(ExecutionTask(program, noise_seed=parent.spawn_seed()))
        tasks.append(
            ExecutionTask(
                binomial_bcast_program(grid, size, root_rank=grid.coordinator_rank(0)),
                noise_seed=parent.spawn_seed(),
            )
        )
        tasks.append(
            ExecutionTask(
                flat_scatter_program(grid, size, root_rank=grid.coordinator_rank(0)),
                noise_seed=parent.spawn_seed(),
            )
        )
        scatter_program, _ = grid_aware_scatter_program(
            grid, size, heuristic=get_heuristic("ecef_la")
        )
        tasks.append(ExecutionTask(scatter_program, noise_seed=parent.spawn_seed()))
        tasks.append(
            ExecutionTask(
                direct_alltoall_program(grid, max(size // 16, 1)),
                noise_seed=parent.spawn_seed(),
            )
        )
        tasks.append(
            ExecutionTask(
                grid_aware_alltoall_program(grid, max(size // 16, 1)),
                noise_seed=parent.spawn_seed(),
            )
        )
    return tasks


def assert_identical(batched, scalar):
    assert len(batched) == len(scalar)
    for left, right in zip(batched, scalar):
        assert left.program_name == right.program_name
        assert left.activation_times == right.activation_times
        assert left.completion_times == right.completion_times
        assert left.makespan == right.makespan  # bitwise: == on floats
        assert left.trace == right.trace


class TestEquivalence:
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    def test_heterogeneous_grid_zoo(self, heterogeneous_grid, noise_sigma):
        tasks = build_tasks(heterogeneous_grid, (4_096, 1_048_576))
        config = NetworkConfig(noise_sigma=noise_sigma, seed=7)
        batched = execute_programs(heterogeneous_grid, tasks, config=config)
        scalar = execute_programs(
            heterogeneous_grid, tasks, config=config, engine="scalar"
        )
        assert_identical(batched, scalar)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    def test_grid5000_broadcasts(self, grid5000, noise_sigma):
        """The Table 3 grid — the practical study's actual workload."""
        parent = RandomStream(seed=99)
        tasks = []
        for size in (65_536, 4_194_304):
            for heuristic in instantiate(PAPER_HEURISTICS):
                schedule = heuristic.schedule(grid5000, size, root=0)
                tasks.append(
                    ExecutionTask(
                        grid_aware_bcast_program(grid5000, schedule, size),
                        noise_seed=parent.spawn_seed(),
                    )
                )
        config = NetworkConfig(noise_sigma=noise_sigma, seed=3)
        batched = execute_programs(grid5000, tasks, config=config)
        scalar = execute_programs(grid5000, tasks, config=config, engine="scalar")
        assert_identical(batched, scalar)

    def test_vectorised_burst_path(self, grid5000):
        """Flat scatter from the root: one rank's long release chain."""
        root = grid5000.coordinator_rank(0)
        program = flat_scatter_program(grid5000, 10_000, root_rank=root)
        for sigma in (0.0, 0.2):
            config = NetworkConfig(noise_sigma=sigma, seed=5)
            tasks = [ExecutionTask(program, noise_seed=17)]
            batched = execute_programs(grid5000, tasks, config=config)
            scalar = execute_programs(grid5000, tasks, config=config, engine="scalar")
            assert_identical(batched, scalar)

    def test_receive_overhead_respected(self, heterogeneous_grid):
        program = flat_scatter_program(heterogeneous_grid, 2_000, root_rank=0)
        config = NetworkConfig(receive_overhead=0.25)
        batched = execute_programs(heterogeneous_grid, [program], config=config)
        scalar = execute_programs(
            heterogeneous_grid, [program], config=config, engine="scalar"
        )
        assert_identical(batched, scalar)

    def test_noise_seed_fallback_matches_config_seed(self, heterogeneous_grid):
        program = binomial_bcast_program(heterogeneous_grid, 8_192)
        config = NetworkConfig(noise_sigma=0.1, seed=21)
        unseeded = execute_programs(heterogeneous_grid, [program], config=config)
        seeded = execute_programs(
            heterogeneous_grid,
            [ExecutionTask(program, noise_seed=21)],
            config=config,
        )
        assert_identical(unseeded, seeded)

    def test_per_task_seeds_differ(self, heterogeneous_grid):
        program = binomial_bcast_program(heterogeneous_grid, 8_192)
        config = NetworkConfig(noise_sigma=0.1, seed=21)
        results = execute_programs(
            heterogeneous_grid,
            [ExecutionTask(program, noise_seed=s) for s in (1, 2)],
            config=config,
        )
        assert results[0].makespan != results[1].makespan

    def test_noisy_batch_of_opened_streams(self, heterogeneous_grid):
        """Chained tasks, a config-seed head, a seed past 2**64 and three
        replicas of the same programs, all in one noisy batch."""
        grid = heterogeneous_grid
        root = grid.coordinator_rank(0)
        programs = [
            binomial_bcast_program(grid, 65_536, root_rank=root),
            flat_scatter_program(grid, 2_000, root_rank=root),
            direct_alltoall_program(grid, 512),
        ]
        parent = RandomStream(seed=21)
        tasks = [
            ExecutionTask(program, noise_seed=parent.spawn_seed())
            for _ in range(3)
            for program in programs
        ]
        tasks += [
            ExecutionTask(programs[0]),
            ExecutionTask(programs[1], reset_network=False),
            ExecutionTask(programs[2], noise_seed=2**64 + 3),
            ExecutionTask(programs[0], reset_network=False),
            ExecutionTask(programs[1], reset_network=False),
            ExecutionTask(programs[0], noise_seed=2**64 - 1),
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=8)
        batched = execute_programs(grid, tasks, config=config)
        scalar = execute_programs(grid, tasks, config=config, engine="scalar")
        assert_identical(batched, scalar)
        # Replicas of one program under different seeds measure differently.
        assert batched[0].makespan != batched[3].makespan


class TestWorkers:
    def test_worker_fanout_is_bit_identical(self, heterogeneous_grid):
        tasks = build_tasks(heterogeneous_grid, (65_536,))
        config = NetworkConfig(noise_sigma=0.05, seed=13)
        inline = execute_programs(heterogeneous_grid, tasks, config=config)
        fanned = execute_programs(
            heterogeneous_grid, tasks, config=config, workers=2
        )
        assert_identical(fanned, inline)

    def test_single_worker_runs_inline(self, heterogeneous_grid):
        program = binomial_bcast_program(heterogeneous_grid, 1_024)
        results = execute_programs(heterogeneous_grid, [program], workers=1)
        assert results[0].makespan > 0


class TestBatchOptions:
    def test_collect_traces_false_drops_traces_only(self, heterogeneous_grid):
        tasks = build_tasks(heterogeneous_grid, (65_536,))
        config = NetworkConfig(noise_sigma=0.05, seed=13)
        with_traces = execute_programs(heterogeneous_grid, tasks, config=config)
        without = execute_programs(
            heterogeneous_grid, tasks, config=config, collect_traces=False
        )
        for full, bare in zip(with_traces, without):
            assert bare.trace == []
            assert bare.makespan == full.makespan
            assert bare.activation_times == full.activation_times

    def test_rejects_unknown_engine(self, heterogeneous_grid):
        program = binomial_bcast_program(heterogeneous_grid, 1_024)
        with pytest.raises(ValueError, match="engine"):
            execute_programs(heterogeneous_grid, [program], engine="quantum")

    def test_rejects_oversized_program(self, heterogeneous_grid):
        program = CommunicationProgram(
            num_ranks=heterogeneous_grid.num_nodes + 1, root=0
        )
        with pytest.raises(ValueError, match="only has"):
            execute_programs(heterogeneous_grid, [program])

    def test_rejects_out_of_range_initially_active(self, heterogeneous_grid):
        program = CommunicationProgram(num_ranks=4, root=0)
        with pytest.raises(ValueError, match="out of range"):
            execute_programs(
                heterogeneous_grid,
                [ExecutionTask(program, initially_active=(99,))],
            )

    def test_empty_task_list(self, heterogeneous_grid):
        assert execute_programs(heterogeneous_grid, []) == []

    def test_warm_network_chaining_stays_scalar_only(self, heterogeneous_grid):
        """reset_network=False chaining is a scalar-engine feature; the batch
        engine always starts cold — document the contract by exercising the
        scalar chain against two independent batched runs."""
        from repro.simulator.execution import execute_program
        from repro.simulator.network import SimulatedNetwork

        program = binomial_bcast_program(heterogeneous_grid, 4_096)
        network = SimulatedNetwork(heterogeneous_grid)
        cold = execute_program(network, program)
        warm = execute_program(network, program, reset_network=False)
        assert warm.makespan > cold.makespan
        batched = execute_programs(heterogeneous_grid, [program, program])
        assert batched[0].makespan == batched[1].makespan == cold.makespan


class TestNodeTables:
    """The batched engine prices messages from per-size node tables that
    equal :meth:`~repro.topology.grid.Grid.node_link_parameters` bitwise."""

    SIZES = (0, 1, 4_096, 65_536, 1_000_000, 4_194_304, 16_777_216)

    @staticmethod
    def _generated_grid():
        # Fixed-T clusters without intra parameters: the proportional
        # intra-cluster fallback.
        return RandomGridGenerator(cluster_size=4).generate(5, RandomStream(seed=11))

    @pytest.mark.parametrize("kind", ["grid5000", "heterogeneous_grid", "generated"])
    def test_tables_equal_node_link_parameters(self, kind, request):
        if kind == "generated":
            grid = self._generated_grid()
        else:
            grid = request.getfixturevalue(kind)
        offsets = grid.rank_offsets
        for size in self.SIZES:
            gap, latency = GridCostCache.for_grid(grid, size).node_tables()
            assert gap.shape == latency.shape == (grid.num_clusters,) * 2
            assert not gap.flags.writeable and not latency.flags.writeable
            for a in range(grid.num_clusters):
                for b in range(grid.num_clusters):
                    # A distinct node of cluster b (its second node when
                    # a == b, which needs a cluster of two or more).
                    rank_b = int(offsets[b]) + (a == b)
                    if rank_b >= offsets[b + 1]:
                        continue
                    params = grid.node_link_parameters(int(offsets[a]), rank_b)
                    assert _bits(gap[a, b]) == _bits(params.gap(size))
                    assert _bits(latency[a, b]) == _bits(params.latency)

    def test_mixed_size_batch_gathers_node_link_parameters(self, heterogeneous_grid):
        """A batch mixing one-size broadcasts with multi-size scatters and
        all-to-alls (and an empty program, and a program listed twice)
        prices every message bitwise like ``node_link_parameters``."""
        from repro.simulator.batch import _stack_tasks

        grid = heterogeneous_grid
        schedule = get_heuristic("ecef").schedule(grid, 4_096, root=1)
        programs = [
            grid_aware_scatter_program(grid, 1_000, heuristic=get_heuristic("ecef"))[0],
            grid_aware_bcast_program(grid, schedule, 4_096),
            CommunicationProgram(grid.num_nodes, root=0),
            direct_alltoall_program(grid, 512),
            binomial_bcast_program(grid, 0),
            grid_aware_alltoall_program(grid, 2_048),
            flat_scatter_program(grid, 3_000),
        ]
        programs.append(programs[0])
        assert any(len(set(program.size.tolist())) > 1 for program in programs)
        tasks = [ExecutionTask(program) for program in programs]
        arrays, _ = _stack_tasks(grid, tasks, NetworkConfig(), False)
        gap, latency = arrays["gap"], arrays["latency"]
        expected = []
        for program in programs:
            for sender, dest, size in zip(
                program.senders().tolist(), program.dest.tolist(), program.size.tolist()
            ):
                params = grid.node_link_parameters(sender, dest)
                expected.append((_bits(params.gap(size)), _bits(params.latency)))
        assert [(_bits(g), _bits(l)) for g, l in zip(gap, latency)] == expected

    def test_table3_batch_makes_no_node_link_calls(self, monkeypatch):
        """Pricing the 80-task Table 3 batch evaluates no per-pair
        ``node_link_parameters`` and predicts no cluster broadcast time."""
        grid = build_grid5000_topology()
        config = PracticalStudyConfig()
        tasks = []
        for size in config.message_sizes:
            for heuristic in instantiate(config.heuristics):
                schedule = heuristic.schedule(grid, size, root=config.root_cluster)
                tasks.append(grid_aware_bcast_program(grid, schedule, size))
            tasks.append(binomial_bcast_program(grid, size))
        assert len(tasks) == 80
        # A fresh grid, so the tables are built inside the measured call.
        fresh = build_grid5000_topology()
        calls = {"node_link_parameters": 0, "broadcast_times": 0}
        for name in calls:
            original = getattr(Grid, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Grid, name, spy)
        execute_programs(fresh, tasks, collect_traces=False, workers=0)
        assert calls == {"node_link_parameters": 0, "broadcast_times": 0}
        # The spy is live: the scalar reference engine does call it.
        execute_programs(fresh, tasks[:1], engine="scalar", workers=0)
        assert calls["node_link_parameters"] > 0


def _bits(value) -> bytes:
    return np.float64(value).tobytes()
