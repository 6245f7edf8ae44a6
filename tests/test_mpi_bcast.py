"""Tests for repro.mpi.bcast (grid-aware and binomial broadcast programs)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ecef import ECEF
from repro.core.flat_tree import FlatTreeHeuristic
from repro.mpi.bcast import (
    binomial_bcast_program,
    binomial_bcast_programs,
    grid_aware_bcast_program,
    grid_aware_bcast_programs,
    grid_aware_pair_programs,
    predict_bcast_makespan,
)
from repro.simulator.execution import execute_program
from repro.simulator.network import SimulatedNetwork


class TestGridAwareBcastProgram:
    def test_program_is_valid_broadcast(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        program = grid_aware_bcast_program(heterogeneous_grid, schedule, 1_000)
        program.validate_broadcast()
        assert program.root == heterogeneous_grid.coordinator_rank(0)

    def test_every_rank_receives_once(self, grid5000):
        schedule = ECEF().schedule(grid5000, 1_048_576)
        program = grid_aware_bcast_program(grid5000, schedule, 1_048_576)
        assert program.total_messages() == grid5000.num_nodes - 1

    def test_coordinators_send_inter_cluster_before_local(self, heterogeneous_grid):
        schedule = FlatTreeHeuristic().schedule(heterogeneous_grid, 1_000)
        program = grid_aware_bcast_program(heterogeneous_grid, schedule, 1_000)
        root_rank = heterogeneous_grid.coordinator_rank(0)
        tags = [i.tag for i in program.sends_of(root_rank)]
        inter = [index for index, tag in enumerate(tags) if tag == "inter-cluster"]
        local = [index for index, tag in enumerate(tags) if tag.startswith("local")]
        assert inter and local
        assert max(inter) < min(local)

    def test_local_first_flag_reverses_phases(self, heterogeneous_grid):
        schedule = FlatTreeHeuristic().schedule(heterogeneous_grid, 1_000)
        program = grid_aware_bcast_program(
            heterogeneous_grid, schedule, 1_000, local_first=True
        )
        root_rank = heterogeneous_grid.coordinator_rank(0)
        tags = [i.tag for i in program.sends_of(root_rank)]
        assert tags[0].startswith("local")

    def test_non_binomial_local_tree(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        program = grid_aware_bcast_program(
            heterogeneous_grid, schedule, 1_000, local_tree="flat"
        )
        root_rank = heterogeneous_grid.coordinator_rank(0)
        local_sends = [i for i in program.sends_of(root_rank) if i.tag.startswith("local")]
        # Flat local tree: the coordinator sends to all 3 other local machines.
        assert len(local_sends) == 3

    def test_mismatched_schedule_rejected(self, heterogeneous_grid, uniform_grid):
        schedule = ECEF().schedule(uniform_grid, 1_000)
        with pytest.raises(ValueError):
            grid_aware_bcast_program(heterogeneous_grid, schedule, 1_000)

    def test_executed_makespan_close_to_predicted(self, grid5000):
        """Measured (noise-free simulator) time matches the model prediction
        within a few percent for every heuristic — the paper's §7 observation."""
        network = SimulatedNetwork(grid5000)
        for heuristic in (ECEF(), FlatTreeHeuristic()):
            schedule = heuristic.schedule(grid5000, 4_194_304)
            program = grid_aware_bcast_program(grid5000, schedule, 4_194_304)
            result = execute_program(network, program)
            assert result.makespan == pytest.approx(schedule.makespan, rel=0.15)

    def test_predict_bcast_makespan_is_schedule_makespan(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        assert predict_bcast_makespan(heterogeneous_grid, schedule) == schedule.makespan


class TestBinomialBcastProgram:
    def test_valid_broadcast_over_all_ranks(self, grid5000):
        program = binomial_bcast_program(grid5000, 1_048_576)
        program.validate_broadcast()
        assert program.total_messages() == grid5000.num_nodes - 1

    def test_root_rotation(self, heterogeneous_grid):
        program = binomial_bcast_program(heterogeneous_grid, 1_000, root_rank=5)
        program.validate_broadcast()
        assert program.root == 5

    def test_rejects_bad_root(self, heterogeneous_grid):
        with pytest.raises(ValueError):
            binomial_bcast_program(heterogeneous_grid, 1_000, root_rank=999)

    def test_binomial_slower_than_grid_aware_on_grid5000(self, grid5000):
        """The 'Default LAM' baseline loses to the scheduled hierarchical bcast
        (Figure 6's message), because it crosses the WAN more often."""
        network = SimulatedNetwork(grid5000)
        schedule = ECEF().schedule(grid5000, 4_194_304)
        aware = execute_program(
            network, grid_aware_bcast_program(grid5000, schedule, 4_194_304)
        )
        naive = execute_program(network, binomial_bcast_program(grid5000, 4_194_304))
        assert naive.makespan > aware.makespan

    def test_binomial_beats_flat_tree_on_grid5000(self, grid5000):
        """...but still beats the Flat Tree, as in Figure 6."""
        network = SimulatedNetwork(grid5000)
        schedule = FlatTreeHeuristic().schedule(grid5000, 4_194_304)
        flat = execute_program(
            network, grid_aware_bcast_program(grid5000, schedule, 4_194_304)
        )
        naive = execute_program(network, binomial_bcast_program(grid5000, 4_194_304))
        assert naive.makespan < flat.makespan


class TestStackedBcastPrograms:
    def test_one_stack_per_heuristic_sweep(self, grid5000):
        sizes = [0, 65_536, 4_194_304]
        schedules = [ECEF().schedule(grid5000, size) for size in sizes]
        programs = grid_aware_bcast_programs(grid5000, schedules, sizes)
        assert [program.size[0] for program in programs] == sizes
        for program, schedule, size in zip(programs, schedules, sizes):
            assert program == grid_aware_bcast_program(grid5000, schedule, size)
        assert grid_aware_bcast_programs(grid5000, [], []) == []

    def test_binomial_stack_shares_one_tree(self, heterogeneous_grid):
        programs = binomial_bcast_programs(heterogeneous_grid, [0, 1_000], root_rank=5)
        assert [program.root for program in programs] == [5, 5]
        assert programs[0].dest.tolist() == programs[1].dest.tolist()
        assert programs[1] == binomial_bcast_program(
            heterogeneous_grid, 1_000, root_rank=5
        )
        with pytest.raises(ValueError, match="root_rank"):
            binomial_bcast_programs(heterogeneous_grid, [0, 1_000], root_rank=999)

    def test_schedules_and_sizes_must_pair_up(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        with pytest.raises(ValueError, match="1 schedules but 2 message sizes"):
            grid_aware_bcast_programs(heterogeneous_grid, [schedule], [1_000, 2_000])

    def test_pair_programs_are_the_schedule_builds(self, heterogeneous_grid):
        sizes = [0, 1_000, 65_536]
        schedules = [ECEF().schedule(heterogeneous_grid, size, root=1) for size in sizes]
        pairs = np.array([schedule.order for schedule in schedules])
        programs = grid_aware_pair_programs(
            heterogeneous_grid, pairs, sizes, [1] * 3, ["ECEF"] * 3, local_tree="flat"
        )
        assert programs == grid_aware_bcast_programs(
            heterogeneous_grid, schedules, sizes, local_tree="flat"
        )

    def test_pairs_must_name_clusters_of_the_grid(self, heterogeneous_grid):
        """A negative cluster index would silently pick the last cluster's
        coordinator."""
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        pairs = np.array([schedule.order])
        pairs[0, -1, 0] = -1
        with pytest.raises(ValueError, match="must index the grid's"):
            grid_aware_pair_programs(heterogeneous_grid, pairs, [1_000], [0], ["x"])
        with pytest.raises(ValueError, match="1 pair orders, 2 message sizes"):
            grid_aware_pair_programs(
                heterogeneous_grid, pairs, [1_000, 0], [0, 0], ["x", "x"]
            )

    def test_schedule_needs_one_transfer_per_receiver(self, heterogeneous_grid):
        schedule = ECEF().schedule(heterogeneous_grid, 1_000)
        short = replace(schedule, transfers=schedule.transfers[:-1])
        with pytest.raises(ValueError, match="over 3 clusters needs 2 transfers, got 1"):
            grid_aware_bcast_program(heterogeneous_grid, short, 1_000)

    def test_first_bad_program_decides_the_error(self, heterogeneous_grid):
        """The stack checks every size before any broadcast, but a failed
        stack is re-built program by program: program 0's duplicate receiver
        is reported, as a per-program loop would, not program 1's size."""
        schedule = FlatTreeHeuristic().schedule(heterogeneous_grid, 1_000)
        first, second = schedule.transfers
        broken = replace(
            schedule, transfers=[first, replace(second, receiver=first.receiver)]
        )
        with pytest.raises(ValueError) as single:
            grid_aware_bcast_program(heterogeneous_grid, broken, 1_000)
        assert "receive more than once" in str(single.value)
        with pytest.raises(ValueError) as stacked:
            grid_aware_bcast_programs(
                heterogeneous_grid, [broken, schedule], [1_000, -1]
            )
        assert str(stacked.value) == str(single.value)
