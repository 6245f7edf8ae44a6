"""Tests for the study runtime (repro.runtime): pool, transport, chunking,
and the distributed remote lane.

The runtime's contract is that *none* of its machinery changes results:
pool reuse across studies, executor lanes, shared-memory vs pickle
transport, chunking, worker counts — and, for the remote lane, agent
counts, join order, duplicate result delivery and mid-run agent loss — are
all required to be bit-identical, with warm-network chaining verified
against the scalar reference engine.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.experiments.chained_study import ChainedStudyResult, run_chained_study
from repro.experiments.config import PracticalStudyConfig, SimulationStudyConfig
from repro.experiments.practical_study import (
    run_alltoall_study,
    run_practical_study,
    run_scatter_study,
)
from repro.experiments.simulation_study import run_simulation_study
from repro.mpi.alltoall import grid_aware_alltoall_program
from repro.mpi.bcast import binomial_bcast_program
from repro.mpi.scatter import flat_scatter_program
from repro.runtime import wire
from repro.runtime.chunking import (
    AUTO_THREAD_MAX_UNITS,
    CostModel,
    choose_executor,
    load_cost_model,
    partition_by_cost,
    program_cost,
    resolve_executor,
    save_cost_model,
    save_cost_models,
)
from repro.runtime.faults import (
    FAULT_CRASH,
    FAULT_HANG,
    SEND_CORRUPT,
    SEND_DELAY,
    SEND_DROP,
    SEND_OK,
    FaultPlan,
    corrupt_frame,
    resolve_fault_plan,
)
from repro.runtime.pool import (
    StudyPool,
    ThreadStudyPool,
    engage_remote_lane,
    get_pool,
    shutdown_pool,
)
from repro.runtime.remote import (
    DEFAULT_AGENT_PORT,
    AgentServer,
    RemoteStudyPool,
    _diagnostic_sleep,
    _spawn_loopback_agent,
    parse_hosts,
    resolve_hosts,
)
from repro.runtime.transport import (
    ArrayShipment,
    resolve_transport,
    shared_memory_available,
    sweep_shipments,
)
from repro.runtime.serving import FrameServer
from repro.simulator.batch import ExecutionTask, _chunk_bounds, execute_programs
from repro.simulator.network import NetworkConfig
from repro.utils.rng import derive_seed
from repro.utils.workers import resolve_workers


TRANSPORT_PARAMS = ["pickle"] + (["shm"] if shared_memory_available() else [])


@pytest.fixture(scope="module")
def pool():
    """One persistent pool shared by every test of this module (that is the
    point: reuse must be invisible in the results)."""
    pool = get_pool(2)
    yield pool
    shutdown_pool()


@pytest.fixture(scope="module")
def thread_pool():
    """The persistent thread-lane pool (shutdown_pool tears both lanes down)."""
    return get_pool(2, kind="thread")


def _makespans(results) -> list[float]:
    return [result.makespan for result in results]


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3, "REPRO_PRACTICAL_WORKERS") == 3

    def test_specific_env_var_preferred_over_shared(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRACTICAL_WORKERS", "2")
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None, "REPRO_PRACTICAL_WORKERS") == 2

    def test_shared_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRACTICAL_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None, "REPRO_PRACTICAL_WORKERS") == 5

    def test_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_MC_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None, "REPRO_MC_WORKERS") == 0

    def test_garbage_env_var_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None, "REPRO_MC_WORKERS")

    def test_negative_clamps_to_zero(self):
        assert resolve_workers(-3) == 0

    def test_shared_env_reaches_studies(self, monkeypatch, heterogeneous_grid):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        config = PracticalStudyConfig(message_sizes=(1_000,), heuristics=("ecef",))
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            run_practical_study(config, grid=heterogeneous_grid)


class TestStudyPool:
    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match="at least 2"):
            StudyPool(1)

    def test_get_pool_reuses_alive_pool(self, pool):
        assert get_pool(2) is pool

    def test_closed_pool_rejects_work(self):
        small = StudyPool(2)
        small.close()
        assert not small.alive
        with pytest.raises(RuntimeError, match="closed"):
            small.submit(len, ())


class TestArrayShipment:
    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_round_trip_is_bitwise(self, transport):
        arrays = {
            "floats": np.linspace(0.0, 1.0, 37).reshape(37),
            "matrix": np.arange(24, dtype=np.float64).reshape(2, 3, 4) * np.pi,
            "ints": np.arange(11, dtype=np.int64),
            "empty": np.empty(0, dtype=np.float64),
        }
        shipment = ArrayShipment.pack(arrays, transport=transport)
        try:
            loaded = shipment.load()
            assert set(loaded) == set(arrays)
            for name, array in arrays.items():
                assert loaded[name].dtype == array.dtype
                assert loaded[name].shape == array.shape
                assert np.array_equal(loaded[name], array)
        finally:
            shipment.close()
            shipment.unlink()

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_survives_pickling(self, transport):
        import pickle

        arrays = {"data": np.arange(100, dtype=np.float64) ** 0.5}
        shipment = ArrayShipment.pack(arrays, transport=transport)
        try:
            clone = pickle.loads(pickle.dumps(shipment))
            assert np.array_equal(clone.load()["data"], arrays["data"])
            clone.close()
        finally:
            shipment.close()
            shipment.unlink()

    def test_unlink_is_idempotent(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        shipment = ArrayShipment.pack({"x": np.ones(4)}, transport="shm")
        shipment.unlink()
        shipment.unlink()

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            resolve_transport("carrier-pigeon")


class TestExecuteProgramsTransports:
    """Shared-memory vs pickle shipping is bit-identical."""

    @pytest.fixture(scope="class")
    def tasks(self, grid5000):
        programs = [
            binomial_bcast_program(grid5000, 65_536, root_rank=0),
            flat_scatter_program(grid5000, 4_096, root_rank=0),
        ]
        return [
            ExecutionTask(
                programs[index % 2], noise_seed=derive_seed(5, index)
            )
            for index in range(10)
        ]

    @pytest.fixture(scope="class")
    def reference(self, grid5000, tasks):
        return execute_programs(
            grid5000,
            tasks,
            config=NetworkConfig(noise_sigma=0.05, seed=5),
            collect_traces=True,
        )

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_worker_transport_bit_identical(
        self, grid5000, tasks, reference, transport, pool
    ):
        fanned = execute_programs(
            grid5000,
            tasks,
            config=NetworkConfig(noise_sigma=0.05, seed=5),
            collect_traces=True,
            workers=2,
            transport=transport,
        )
        assert _makespans(fanned) == _makespans(reference)
        assert [r.completion_times for r in fanned] == [
            r.completion_times for r in reference
        ]
        assert [r.trace for r in fanned] == [r.trace for r in reference]

    def test_rejects_unknown_transport(self, grid5000, tasks):
        with pytest.raises(ValueError, match="transport"):
            execute_programs(grid5000, tasks, transport="smoke-signals")


class TestWarmChaining:
    """reset_network=False tasks mirror the scalar engine's warm networks."""

    def _chain(self, grid):
        stages = [
            binomial_bcast_program(grid, 65_536, root_rank=0),
            flat_scatter_program(grid, 2_048, root_rank=0),
            binomial_bcast_program(grid, 16_384, root_rank=0),
        ]
        return [ExecutionTask(stages[0], noise_seed=31)] + [
            ExecutionTask(program, reset_network=False) for program in stages[1:]
        ]

    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    def test_chain_matches_scalar_reference(self, grid5000, sigma):
        tasks = self._chain(grid5000)
        config = NetworkConfig(noise_sigma=sigma, seed=9)
        batched = execute_programs(grid5000, tasks, config=config)
        scalar = execute_programs(grid5000, tasks, config=config, engine="scalar")
        assert _makespans(batched) == _makespans(scalar)
        assert [r.completion_times for r in batched] == [
            r.completion_times for r in scalar
        ]
        assert [r.trace for r in batched] == [r.trace for r in scalar]

    def test_warm_chain_differs_from_fresh_networks(self, grid5000):
        tasks = self._chain(grid5000)
        fresh_tasks = [
            ExecutionTask(task.program, noise_seed=31) for task in tasks
        ]
        config = NetworkConfig(noise_sigma=0.0, seed=9)
        warm = execute_programs(grid5000, tasks, config=config)
        fresh = execute_programs(grid5000, fresh_tasks, config=config)
        # The head of the chain starts cold, so it matches its fresh twin;
        # every later stage queues behind the warm NIC backlog.
        assert warm[0].makespan == fresh[0].makespan
        assert all(
            warm[index].makespan > fresh[index].makespan
            for index in range(1, len(tasks))
        )

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_chains_never_split_across_workers(
        self, grid5000, transport, pool
    ):
        tasks = []
        for chain_index in range(6):
            chain = self._chain(grid5000)
            tasks.append(
                ExecutionTask(
                    chain[0].program, noise_seed=derive_seed(31, chain_index)
                )
            )
            tasks.extend(chain[1:])
        config = NetworkConfig(noise_sigma=0.08, seed=9)
        inline = execute_programs(grid5000, tasks, config=config)
        fanned = execute_programs(
            grid5000, tasks, config=config, workers=2, transport=transport
        )
        assert _makespans(fanned) == _makespans(inline)

    def test_first_task_cannot_chain(self, grid5000):
        program = binomial_bcast_program(grid5000, 1_024, root_rank=0)
        with pytest.raises(ValueError, match="first task"):
            execute_programs(
                grid5000, [ExecutionTask(program, reset_network=False)]
            )

    def test_chained_task_rejects_own_seed(self, grid5000):
        program = binomial_bcast_program(grid5000, 1_024, root_rank=0)
        tasks = [
            ExecutionTask(program),
            ExecutionTask(program, reset_network=False, noise_seed=3),
        ]
        with pytest.raises(ValueError, match="noise_seed"):
            execute_programs(grid5000, tasks)


class TestChainedStudy:
    def test_scalar_reference_and_shapes(self, heterogeneous_grid):
        config = PracticalStudyConfig(
            message_sizes=(2_048, 16_384), noise_sigma=0.05
        )
        result = run_chained_study(
            config, grid=heterogeneous_grid, stages=("scatter", "alltoall")
        )
        reference = run_chained_study(
            config,
            grid=heterogeneous_grid,
            stages=("scatter", "alltoall"),
            engine="scalar",
        )
        assert isinstance(result, ChainedStudyResult)
        assert result.warm.shape == (2, 2)
        assert result.fresh.shape == (2, 2)
        assert np.array_equal(result.warm, reference.warm)
        assert np.array_equal(result.fresh, reference.fresh)
        assert np.all(result.warm[:, 1:] >= result.fresh[:, 1:])
        table = result.as_table()
        assert {"message_size", "pipelined", "barrier", "overlap_gain"} == set(
            table[0]
        )

    def test_repeat_builds_numbered_stages(self, heterogeneous_grid):
        config = PracticalStudyConfig(message_sizes=(4_096,), noise_sigma=0.0)
        result = run_chained_study(
            config, grid=heterogeneous_grid, stages=("bcast",), repeat=3
        )
        assert result.stage_names == ["bcast#1", "bcast#2", "bcast#3"]

    def test_rejects_unknown_stage(self, heterogeneous_grid):
        with pytest.raises(ValueError, match="unknown collective"):
            run_chained_study(grid=heterogeneous_grid, stages=("gather",))

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_transport_invariance(self, heterogeneous_grid, transport, pool):
        config = PracticalStudyConfig(message_sizes=(2_048, 16_384), noise_sigma=0.05)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        inline = run_chained_study(config, workers=0, **kwargs)
        shipped = run_chained_study(
            config, workers=2, executor="process", transport=transport, **kwargs
        )
        assert np.array_equal(inline.warm, shipped.warm)
        assert np.array_equal(inline.fresh, shipped.fresh)


class TestPipelinedDriver:
    """Inline vs fanned-out practical study, pool reuse, transports."""

    CONFIG = dict(
        message_sizes=(65_536, 1_048_576, 4_194_304),
        noise_sigma=0.08,
        heuristics=("ecef", "fef", "flat_tree"),
    )

    def test_pipelined_matches_sequential(self, pool):
        config = PracticalStudyConfig(**self.CONFIG)
        sequential = run_practical_study(config, workers=0)
        pipelined = run_practical_study(config, workers=2)
        assert np.array_equal(sequential.measured, pipelined.measured)
        assert np.array_equal(
            sequential.baseline_measured, pipelined.baseline_measured
        )
        assert np.array_equal(sequential.predicted, pipelined.predicted)

    def test_explicit_pool_implies_fanout(self, pool):
        """Passing pool= without workers= must use the pool, not silently
        run in-process — and stay bit-identical either way."""
        config = PracticalStudyConfig(**self.CONFIG)
        reference = run_practical_study(config)
        pooled = run_practical_study(config, pool=pool)
        assert np.array_equal(reference.measured, pooled.measured)
        simulation_config = SimulationStudyConfig(
            cluster_counts=(3,), iterations=20, seed=29
        )
        assert np.array_equal(
            run_simulation_study(simulation_config).makespans,
            run_simulation_study(simulation_config, pool=pool).makespans,
        )


    def test_scalar_engine_fans_out_bit_identically(self, thread_pool):
        config = PracticalStudyConfig(**self.CONFIG)
        batched = run_practical_study(config, workers=0)
        scalar = run_practical_study(
            config, engine="scalar", workers=2, pool=thread_pool
        )
        assert np.array_equal(batched.measured, scalar.measured)
        assert np.array_equal(batched.baseline_measured, scalar.baseline_measured)

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_transport_invariance(self, transport, pool):
        config = PracticalStudyConfig(**self.CONFIG)
        reference = run_practical_study(config)
        shipped = run_practical_study(config, workers=2, transport=transport)
        assert np.array_equal(reference.measured, shipped.measured)

    def test_pool_reuse_across_two_studies_is_bit_identical(self, pool):
        """Back-to-back studies on one pool == fresh runs of each study."""
        practical_config = PracticalStudyConfig(**self.CONFIG)
        simulation_config = SimulationStudyConfig(
            cluster_counts=(3, 4), iterations=30, seed=17
        )
        first = run_practical_study(practical_config, workers=2, pool=pool)
        second = run_simulation_study(simulation_config, workers=2, pool=pool)
        third = run_practical_study(practical_config, workers=2, pool=pool)
        assert np.array_equal(first.measured, third.measured)
        assert np.array_equal(
            first.baseline_measured, third.baseline_measured
        )
        reference = run_practical_study(practical_config)
        simulation_reference = run_simulation_study(simulation_config)
        assert np.array_equal(first.measured, reference.measured)
        assert np.array_equal(
            second.makespans, simulation_reference.makespans
        )


class TestReplicas:
    CONFIG = dict(
        message_sizes=(65_536, 1_048_576),
        noise_sigma=0.08,
        heuristics=("ecef", "fef"),
    )

    def test_rejects_bad_replicas(self):
        config = PracticalStudyConfig(**self.CONFIG)
        with pytest.raises(ValueError, match="replicas"):
            run_practical_study(config, replicas=0)

    def test_single_replica_is_backward_compatible(self):
        """replicas=1 keeps the historical (seed, label, size) noise seeds."""
        config = PracticalStudyConfig(**self.CONFIG)
        result = run_practical_study(config, replicas=1)
        assert result.num_replicas == 1
        assert np.array_equal(result.measured, result.measured_replicas[0])
        assert np.all(result.measured_std == 0.0)

    def test_replica_columns_and_aggregation(self, pool):
        config = PracticalStudyConfig(**self.CONFIG)
        result = run_practical_study(config, replicas=3)
        assert result.num_replicas == 3
        assert result.measured_replicas.shape == (3, 2, 2)
        assert result.baseline_replicas.shape == (3, 2)
        assert np.array_equal(
            result.measured, result.measured_replicas.mean(axis=0)
        )
        assert np.array_equal(
            result.measured_std, result.measured_replicas.std(axis=0)
        )
        assert np.all(result.measured_std > 0)
        # replicas are genuinely independent measurements
        assert not np.array_equal(
            result.measured_replicas[0], result.measured_replicas[1]
        )
        # and the same at any worker count / driver
        fanned = run_practical_study(config, replicas=3, workers=2)
        assert np.array_equal(
            result.measured_replicas, fanned.measured_replicas
        )
        assert np.array_equal(
            result.baseline_replicas, fanned.baseline_replicas
        )

    def test_replica_series_accessor(self):
        config = PracticalStudyConfig(**self.CONFIG)
        result = run_practical_study(config, replicas=2)
        series = result.measured_series("ECEF", replica=1)
        assert series == result.measured_replicas[1, :, 0].tolist()
        with pytest.raises(ValueError, match="replica"):
            result.measured_series("ECEF", replica=5)


class TestChunkingUnit:
    """Unit tests for the cost-aware chunking and executor-selection layer."""

    def test_partition_balances_skewed_workload(self):
        # Synthetic skew: one task costs 20x the other nineteen (the
        # all-to-all-vs-bcast ratio on the Table 3 grid).
        costs = [20.0] + [1.0] * 19
        units = [(index, index + 1) for index in range(20)]
        chunks = partition_by_cost(units, costs, 4)
        loads = [sum(costs[start:end]) for start, end in chunks]
        # The expensive task gets its own chunk; the cheap tasks spread out.
        assert max(loads) == 20.0
        assert min(loads) >= 5.0
        # A task-count split of the same workload is badly unbalanced.
        fixed_loads = [sum(costs[start : start + 5]) for start in range(0, 20, 5)]
        assert max(fixed_loads) == 24.0

    def test_partition_isolates_heavy_tail_unit(self):
        # Regression: a ~20x unit at the *end* of the batch (where
        # run_chained_study's scatter->alltoall ordering puts it) must get
        # its own chunk instead of absorbing every cheap unit before it.
        costs = [1.0] * 19 + [20.0]
        units = [(index, index + 1) for index in range(20)]
        chunks = partition_by_cost(units, costs, 4)
        loads = [sum(costs[start:end]) for start, end in chunks]
        assert max(loads) == 20.0
        assert chunks[-1] == (19, 20)

    def test_partition_splits_two_units_across_two_chunks(self):
        assert partition_by_cost([(0, 1), (1, 2)], [1.0, 100.0], 2) == [
            (0, 1),
            (1, 2),
        ]

    def test_partition_covers_every_task_in_order(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        units = [(index, index + 1) for index in range(8)]
        chunks = partition_by_cost(units, costs, 3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 8
        for (_, left_end), (right_start, _) in zip(chunks, chunks[1:]):
            assert left_end == right_start

    def test_partition_never_splits_chain_units(self):
        units = [(0, 3), (3, 4), (4, 8)]
        costs = [30.0, 1.0, 8.0]
        chunks = partition_by_cost(units, costs, 2)
        assert chunks == [(0, 3), (3, 8)]

    def test_partition_caps_chunks_at_unit_count(self):
        assert partition_by_cost([(0, 5)], [7.0], 4) == [(0, 5)]

    def test_partition_rejects_mismatched_costs(self):
        with pytest.raises(ValueError, match="costs"):
            partition_by_cost([(0, 1)], [1.0, 2.0], 2)

    def test_cost_model_prior_then_observation(self):
        model = CostModel()
        assert not model.observed
        prior = model.seconds_for(1_000.0)
        assert prior > 0.0
        model.observe(1_000.0, 2.0)
        assert model.observed
        assert model.units_per_second == 500.0
        assert model.seconds_for(250.0) == pytest.approx(0.5)

    def test_program_cost_counts_messages(self, grid5000):
        bcast = binomial_bcast_program(grid5000, 1_024, root_rank=0)
        alltoall = grid_aware_alltoall_program(grid5000, 64)
        assert program_cost(bcast) == 1 + sum(
            len(sends) for sends in bcast.sends.values()
        )
        # The motivating skew: an all-to-all costs many times a bcast.
        assert program_cost(alltoall) > 5 * program_cost(bcast)

    def test_resolve_executor_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(None) == "auto"
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert resolve_executor(None) == "thread"
        assert resolve_executor("process") == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "hamster-wheel")
        with pytest.raises(ValueError, match="executor"):
            resolve_executor(None)

    def test_choose_executor_splits_on_cost(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert choose_executor(None, AUTO_THREAD_MAX_UNITS) == "thread"
        assert choose_executor(None, AUTO_THREAD_MAX_UNITS + 1) == "process"
        # Naming a transport pins auto to the lane that ships.
        assert choose_executor(None, 10, transport="pickle") == "process"
        assert choose_executor("thread", 10**9) == "thread"


class TestThreadPool:
    def test_kind_markers(self, pool, thread_pool):
        assert pool.kind == "process"
        assert thread_pool.kind == "thread"
        assert isinstance(thread_pool, ThreadStudyPool)

    def test_get_pool_keeps_lanes_separate(self, pool, thread_pool):
        assert get_pool(2) is pool
        assert get_pool(2, kind="thread") is thread_pool
        assert get_pool(2, kind="thread") is not pool

    def test_get_pool_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            get_pool(2, kind="fiber")

    def test_thread_pool_passes_arguments_by_reference(self, thread_pool):
        marker = object()
        assert thread_pool.submit(lambda value: value, marker).get() is marker


class TestExecutorEquivalence:
    """Thread vs process vs inline bit-identity on all five study drivers."""

    PRACTICAL = dict(
        message_sizes=(65_536, 1_048_576),
        noise_sigma=0.08,
        heuristics=("ecef", "fef"),
    )
    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_practical_study(self, executor, pool, thread_pool):
        config = PracticalStudyConfig(**self.PRACTICAL)
        inline = run_practical_study(config, workers=0)
        fanned = run_practical_study(config, workers=2, executor=executor)
        assert np.array_equal(inline.measured, fanned.measured)
        assert np.array_equal(inline.baseline_measured, fanned.baseline_measured)
        assert np.array_equal(inline.predicted, fanned.predicted)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_simulation_study(self, executor, pool, thread_pool):
        config = SimulationStudyConfig(cluster_counts=(3, 4), iterations=24, seed=11)
        inline = run_simulation_study(config)
        fanned = run_simulation_study(config, workers=2, executor=executor)
        assert np.array_equal(inline.makespans, fanned.makespans)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scatter_study(self, executor, heterogeneous_grid, pool, thread_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_scatter_study(config, grid=heterogeneous_grid)
        fanned = run_scatter_study(
            config, grid=heterogeneous_grid, workers=2, executor=executor
        )
        assert np.array_equal(inline.measured, fanned.measured)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_alltoall_study(self, executor, heterogeneous_grid, pool, thread_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_alltoall_study(config, grid=heterogeneous_grid)
        fanned = run_alltoall_study(
            config, grid=heterogeneous_grid, workers=2, executor=executor
        )
        assert np.array_equal(inline.measured, fanned.measured)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_chained_study(self, executor, heterogeneous_grid, pool, thread_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        inline = run_chained_study(config, **kwargs)
        fanned = run_chained_study(config, workers=2, executor=executor, **kwargs)
        assert np.array_equal(inline.warm, fanned.warm)
        assert np.array_equal(inline.fresh, fanned.fresh)

    def test_auto_lane_is_bit_identical_too(self, pool, thread_pool):
        config = PracticalStudyConfig(**self.PRACTICAL)
        inline = run_practical_study(config, workers=0)
        auto = run_practical_study(config, workers=2, executor="auto")
        assert np.array_equal(inline.measured, auto.measured)

    def test_explicit_thread_pool_selects_thread_lane(self, grid5000, thread_pool):
        tasks = [
            ExecutionTask(
                binomial_bcast_program(grid5000, 16_384, root_rank=0),
                noise_seed=derive_seed(7, index),
            )
            for index in range(6)
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=7)
        inline = execute_programs(grid5000, tasks, config=config)
        pooled = execute_programs(grid5000, tasks, config=config, pool=thread_pool)
        assert _makespans(inline) == _makespans(pooled)

    def test_rejects_unknown_executor(self, grid5000):
        program = binomial_bcast_program(grid5000, 1_024, root_rank=0)
        with pytest.raises(ValueError, match="executor"):
            execute_programs(grid5000, [program, program], executor="carrier-pigeon")

    def test_scalar_engine_honours_explicit_pools_of_either_kind(
        self, grid5000, pool, thread_pool
    ):
        tasks = [
            ExecutionTask(
                binomial_bcast_program(grid5000, 2_048, root_rank=0),
                noise_seed=derive_seed(17, index),
            )
            for index in range(6)
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=17)
        inline = execute_programs(grid5000, tasks, config=config, engine="scalar")
        for explicit in (pool, thread_pool):
            pooled = execute_programs(
                grid5000, tasks, config=config, engine="scalar", pool=explicit
            )
            assert _makespans(pooled) == _makespans(inline)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scalar_engine_fans_out_on_both_lanes(
        self, grid5000, executor, pool, thread_pool
    ):
        tasks = [
            ExecutionTask(
                flat_scatter_program(grid5000, 1_024, root_rank=0),
                noise_seed=derive_seed(13, index),
            )
            for index in range(6)
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=13)
        inline = execute_programs(grid5000, tasks, config=config, engine="scalar")
        fanned = execute_programs(
            grid5000,
            tasks,
            config=config,
            engine="scalar",
            workers=2,
            executor=executor,
        )
        assert _makespans(inline) == _makespans(fanned)


class TestAdaptiveChunking:
    """Cost-balanced chunking: its bounds, and bit-identity at any chunk
    count, on mixed workloads too."""

    def _mixed_tasks(self, grid):
        # The motivating skew: cheap broadcasts interleaved with ~20x
        # all-to-alls, plus a warm chain that must stay atomic.
        expensive = grid_aware_alltoall_program(grid, 64)
        cheap = binomial_bcast_program(grid, 16_384, root_rank=0)
        tasks = []
        for index in range(6):
            tasks.append(
                ExecutionTask(
                    expensive if index % 3 == 0 else cheap,
                    noise_seed=derive_seed(21, index),
                )
            )
        tasks.append(ExecutionTask(cheap, noise_seed=derive_seed(21, "chain")))
        tasks.append(ExecutionTask(expensive, reset_network=False))
        return tasks

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_adaptive_matches_fixed(self, grid5000, executor, pool, thread_pool):
        tasks = self._mixed_tasks(grid5000)
        config = NetworkConfig(noise_sigma=0.08, seed=21)
        inline = execute_programs(grid5000, tasks, config=config)
        adaptive = execute_programs(
            grid5000,
            tasks,
            config=config,
            workers=2,
            executor=executor,
        )
        assert _makespans(adaptive) == _makespans(inline)

    def test_chunk_bounds_isolate_a_tail_alltoall(self, grid5000):
        # Twelve cheap broadcasts then one ~20x all-to-all: priced by
        # message count, the all-to-all gets a chunk of its own instead of
        # the tail chunk absorbing the cheap tasks before it.
        cheap = binomial_bcast_program(grid5000, 16_384, root_rank=0)
        expensive = grid_aware_alltoall_program(grid5000, 64)
        tasks = [ExecutionTask(cheap) for _ in range(12)]
        tasks.append(ExecutionTask(expensive))
        costs = [program_cost(task.program) for task in tasks]
        bounds = _chunk_bounds(tasks, costs, 1)
        assert bounds[0][0] == 0 and bounds[-1] == (12, 13)
        assert all(left[1] == right[0] for left, right in zip(bounds, bounds[1:]))
        assert len(bounds) > 2  # the cheap head is still split

    def test_practical_study_worker_count_invariance(self, pool):
        # Different worker counts give different chunk bounds over the same
        # pool; the results may not move.
        config = PracticalStudyConfig(
            message_sizes=(65_536, 1_048_576),
            noise_sigma=0.08,
            heuristics=("ecef", "fef"),
        )
        two = run_practical_study(config, workers=2, pool=pool)
        five = run_practical_study(config, workers=5, pool=pool)
        assert np.array_equal(two.measured, five.measured)
        assert np.array_equal(two.baseline_measured, five.baseline_measured)

    def test_chained_study_worker_count_invariance(
        self, heterogeneous_grid, thread_pool
    ):
        config = PracticalStudyConfig(message_sizes=(2_048, 16_384), noise_sigma=0.05)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        two = run_chained_study(config, workers=2, pool=thread_pool, **kwargs)
        five = run_chained_study(config, workers=5, pool=thread_pool, **kwargs)
        assert np.array_equal(two.warm, five.warm)
        assert np.array_equal(two.fresh, five.fresh)

    @pytest.mark.parametrize(
        "study", ["practical", "scatter", "alltoall", "chained", "programs"]
    )
    def test_every_entry_point_rejects_removed_transports(
        self, study, grid5000, heterogeneous_grid
    ):
        # Only auto/shm/pickle ship batches; a baseline-only transport name
        # is an error at every entry point, not a silent fallback.
        config = PracticalStudyConfig(message_sizes=(2_048,), noise_sigma=0.0)
        calls = {
            "practical": lambda: run_practical_study(
                config, workers=0, transport="legacy"
            ),
            "scatter": lambda: run_scatter_study(
                config, grid=heterogeneous_grid, workers=0, transport="legacy"
            ),
            "alltoall": lambda: run_alltoall_study(
                config, grid=heterogeneous_grid, workers=0, transport="legacy"
            ),
            "chained": lambda: run_chained_study(
                config, grid=heterogeneous_grid, workers=0, transport="legacy"
            ),
            "programs": lambda: execute_programs(
                grid5000,
                [binomial_bcast_program(grid5000, 1_024, root_rank=0)] * 2,
                transport="legacy",
            ),
        }
        with pytest.raises(ValueError, match="transport"):
            calls[study]()


class TestWireProtocol:
    """Frame encode/decode of the distributed lane's socket protocol."""

    @staticmethod
    def _round_trip(message):
        frame = wire.encode_message(message)
        header = frame[: 16]
        import struct

        magic, version, flags, length = struct.unpack("!4sBBxxQ", header)
        assert magic == wire.MAGIC
        assert version == wire.WIRE_VERSION
        assert length == len(frame) - 16
        return wire.decode_payload(frame[16:], flags), flags

    def test_round_trip_preserves_structures_and_arrays(self):
        message = {
            "job": 7,
            "fn": "repro.utils.rng:derive_seed",
            "args": (
                3,
                [1.5, "label"],
                {"gap": np.linspace(0.0, 1.0, 37), "dest": np.arange(11)},
            ),
        }
        decoded, _ = self._round_trip(message)
        assert decoded["job"] == 7
        assert decoded["fn"] == message["fn"]
        assert decoded["args"][0] == 3
        assert decoded["args"][1] == [1.5, "label"]
        for name, array in message["args"][2].items():
            restored = decoded["args"][2][name]
            assert restored.dtype == array.dtype
            assert np.array_equal(restored, array)

    def test_large_frames_compress_small_ones_do_not(self):
        small, small_flags = self._round_trip({"x": 1})
        assert small == {"x": 1}
        assert not small_flags & wire.FLAG_ZLIB
        big_message = {"z": np.zeros(1_000_000)}
        frame = wire.encode_message(big_message)
        assert len(frame) < big_message["z"].nbytes  # zlib actually engaged
        decoded, big_flags = self._round_trip(big_message)
        assert big_flags & wire.FLAG_ZLIB
        assert np.array_equal(decoded["z"], big_message["z"])

    @pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
    def test_shipments_cross_the_wire_as_arrays(self, transport):
        arrays = {"stack": np.arange(24.0).reshape(2, 3, 4)}
        shipment = ArrayShipment.pack(arrays, transport=transport)
        try:
            decoded, _ = self._round_trip({"ship": shipment})
            crossed = decoded["ship"]
            assert isinstance(crossed, wire.WireShipment)
            assert np.array_equal(crossed.load()["stack"], arrays["stack"])
            crossed.close()
            crossed.unlink()  # no-op by contract
            with pytest.raises(RuntimeError, match="closed"):
                crossed.load()
        finally:
            shipment.unlink()

    def test_truncated_and_corrupt_frames_are_rejected(self):
        import socket as socket_module

        left, right = socket_module.socketpair()
        try:
            frame = wire.encode_message({"job": 1})
            left.sendall(frame[: len(frame) - 3])
            left.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.recv_message(right)
        finally:
            right.close()
        left, right = socket_module.socketpair()
        try:
            left.sendall(b"NOPE" + bytes(12))
            with pytest.raises(wire.WireError, match="magic"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        import socket as socket_module

        left, right = socket_module.socketpair()
        left.close()
        try:
            assert wire.recv_message(right) is None
        finally:
            right.close()


class TestHostsResolution:
    def test_parse_hosts_ports_and_default(self):
        assert parse_hosts("a:7100, b ,c:9") == (
            ("a", 7100),
            ("b", DEFAULT_AGENT_PORT),
            ("c", 9),
        )

    def test_parse_hosts_ipv6(self):
        assert parse_hosts("[::1]:7100,fe80::2") == (
            ("::1", 7100),
            ("fe80::2", DEFAULT_AGENT_PORT),
        )
        with pytest.raises(ValueError, match="IPv6"):
            parse_hosts("[::1junk")

    def test_parse_hosts_rejects_garbage(self):
        with pytest.raises(ValueError, match="port"):
            parse_hosts("a:notaport")
        with pytest.raises(ValueError, match="empty host"):
            parse_hosts(":7100")
        with pytest.raises(ValueError, match="no agent addresses"):
            parse_hosts(" , ")

    def test_resolve_hosts_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        assert resolve_hosts(None) is None
        monkeypatch.setenv("REPRO_HOSTS", "agent-1:7100,agent-2:7100")
        assert resolve_hosts(None) == (("agent-1", 7100), ("agent-2", 7100))
        # An explicit argument wins over the environment.
        assert resolve_hosts("other:5") == (("other", 5),)

    def test_get_pool_remote_caching_by_hosts(self, monkeypatch):
        """One cached remote pool per hosts spec; loopback grows on demand."""
        import repro.runtime.pool as pool_module
        import repro.runtime.remote as remote_module

        created = []

        class FakeRemotePool:
            kind = "remote"

            def __init__(self, workers=None, *, hosts=None):
                self.hosts_spec = resolve_hosts(hosts)
                self.workers = max(2, int(workers or 0))
                self._alive = True
                created.append(self)

            @property
            def alive(self):
                return self._alive

            def close(self):
                self._alive = False

        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        monkeypatch.setattr(remote_module, "RemoteStudyPool", FakeRemotePool)
        monkeypatch.setitem(pool_module._global_pools, "remote", None)
        first = get_pool(2, kind="remote")
        assert get_pool(2, kind="remote") is first
        named = get_pool(2, kind="remote", hosts="a:7100")
        assert named is not first and not first.alive
        assert get_pool(2, kind="remote", hosts="a:7100") is named
        # Loopback pools regrow when more workers are requested.
        loopback = get_pool(2, kind="remote")
        assert get_pool(4, kind="remote") is not loopback
        assert len(created) == 4

    def test_engage_remote_lane(self, monkeypatch):
        import repro.runtime.pool as pool_module
        import repro.runtime.remote as remote_module

        class FakeRemotePool:
            kind = "remote"

            def __init__(self, workers=None, *, hosts=None):
                self.hosts_spec = resolve_hosts(hosts)
                self.workers = max(2, int(workers or 0))
                self.alive = True

            def close(self):
                self.alive = False

        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(remote_module, "RemoteStudyPool", FakeRemotePool)
        monkeypatch.setitem(pool_module._global_pools, "remote", None)
        # Non-remote executors pass through untouched.
        assert engage_remote_lane(None, None, None, 0, None) == (None, 0)
        assert engage_remote_lane(None, "thread", None, 4, None) == (None, 4)
        # Remote with no local worker request adopts the agents' capacity.
        pool, workers = engage_remote_lane(None, "remote", None, 0, None)
        assert pool.kind == "remote" and workers == pool.workers == 2
        # An explicit in-process request is never overridden.
        assert engage_remote_lane(None, "remote", 0, 0, None) == (None, 0)
        # An explicit pool always wins, whatever its lane — and with no
        # workers= it lifts the count to the pool's (the fan-out request
        # an explicit pool implies).
        class ExplicitPool:
            kind = "process"
            workers = 3

        marker = ExplicitPool()
        assert engage_remote_lane(marker, "remote", None, 0, None) == (marker, 3)
        assert engage_remote_lane(marker, "remote", 2, 2, None) == (marker, 2)
        # The environment engages the lane exactly like the argument.
        monkeypatch.setenv("REPRO_EXECUTOR", "remote")
        pool, workers = engage_remote_lane(None, None, None, 0, None)
        assert pool.kind == "remote" and workers == 2


class TestCostModelPersistence:
    def test_snapshot_restore_round_trip(self):
        model = CostModel()
        model.observe(1_000.0, 2.0)
        clone = CostModel().restore(model.snapshot())
        assert clone.observed
        assert clone.units_per_second == model.units_per_second
        with pytest.raises(ValueError, match="negative"):
            CostModel().restore({"units": -1.0, "seconds": 2.0})

    def test_save_and_load_through_env_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "costs.json"
        monkeypatch.setenv("REPRO_COST_CACHE", str(cache))
        model = CostModel()
        model.observe(5_000.0, 2.5)
        save_cost_model("pipeline", model)
        restored = load_cost_model("pipeline")
        assert restored.observed
        assert restored.units_per_second == model.units_per_second
        # Keys are independent documents in one file.
        other = CostModel()
        other.observe(100.0, 1.0)
        save_cost_model("other", other)
        assert load_cost_model("pipeline").units_per_second == 2_000.0
        assert load_cost_model("other").units_per_second == 100.0

    def test_cache_disabled_or_corrupt_falls_back_to_prior(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_COST_CACHE", raising=False)
        assert not load_cost_model("pipeline").observed
        model = CostModel()
        model.observe(10.0, 1.0)
        save_cost_model("pipeline", model)  # no-op without the env var
        cache = tmp_path / "costs.json"
        cache.write_text("{not json")
        monkeypatch.setenv("REPRO_COST_CACHE", str(cache))
        assert not load_cost_model("pipeline").observed
        # An unobserved model is never persisted (it would store the prior).
        save_cost_model("pipeline", CostModel())
        assert cache.read_text() == "{not json"

    def test_save_merges_instead_of_clobbering_unknown_keys(
        self, tmp_path, monkeypatch
    ):
        """A save only touches its own keys; foreign records survive."""
        cache = tmp_path / "costs.json"
        monkeypatch.setenv("REPRO_COST_CACHE", str(cache))
        cache.write_text(json.dumps({"foreign": {"units": 7.0, "seconds": 1.0}}))
        model = CostModel()
        model.observe(300.0, 2.0)
        other = CostModel()
        other.observe(40.0, 4.0)
        save_cost_models({"mine/a": model, "mine/b": other, "mine/idle": CostModel()})
        document = json.loads(cache.read_text())
        # The batch landed (minus the unobserved model), the foreign key
        # written by some other study/daemon is untouched.
        assert set(document) == {"foreign", "mine/a", "mine/b"}
        assert load_cost_model("foreign").units_per_second == 7.0
        assert load_cost_model("mine/a").units_per_second == 150.0

    def test_concurrent_thread_writers_lose_no_records(
        self, tmp_path, monkeypatch
    ):
        """N threads interleaving read-merge-write cycles drop nothing.

        This is the lost-update race the sidecar ``flock`` closes: before
        it, two writers could both read the same document and the slower
        ``os.replace`` reverted the faster writer's keys.
        """
        cache = tmp_path / "costs.json"
        monkeypatch.setenv("REPRO_COST_CACHE", str(cache))
        rounds = 25

        def writer(name: int) -> None:
            model = CostModel()
            model.observe(1_000.0 * (name + 1), 1.0)
            for index in range(rounds):
                save_cost_model(f"writer/{name}/{index}", model)

        threads = [
            threading.Thread(target=writer, args=(name,)) for name in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        document = json.loads(cache.read_text())
        expected = {
            f"writer/{name}/{index}"
            for name in range(4)
            for index in range(rounds)
        }
        assert set(document) == expected
        for name in range(4):
            assert (
                load_cost_model(f"writer/{name}/0").units_per_second
                == 1_000.0 * (name + 1)
            )

    def test_concurrent_process_writers_lose_no_records(
        self, tmp_path, monkeypatch
    ):
        """Two separate interpreters race the one cache file safely."""
        import subprocess
        import sys

        cache = tmp_path / "costs.json"
        monkeypatch.setenv("REPRO_COST_CACHE", str(cache))
        script = (
            "import sys\n"
            "from repro.runtime.chunking import CostModel, save_cost_model\n"
            "name = sys.argv[1]\n"
            "model = CostModel()\n"
            "model.observe(500.0, 1.0)\n"
            "for index in range(20):\n"
            "    save_cost_model(f'proc/{name}/{index}', model)\n"
        )
        workers = [
            subprocess.Popen([sys.executable, "-c", script, str(name)])
            for name in range(2)
        ]
        for worker in workers:
            assert worker.wait(timeout=60) == 0
        document = json.loads(cache.read_text())
        expected = {f"proc/{name}/{index}" for name in range(2) for index in range(20)}
        assert set(document) == expected


class TestShipmentCleanup:
    def test_close_and_unlink_are_idempotent(self):
        shipment = ArrayShipment.pack({"x": np.ones(8)}, transport="pickle")
        shipment.load()
        shipment.close()
        shipment.close()
        shipment.unlink()
        shipment.unlink()

    def test_sweep_unlinks_abandoned_segments(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        from multiprocessing import shared_memory

        shipment = ArrayShipment.pack({"x": np.ones(64)}, transport="shm")
        name = shipment.shm_name
        shipment.close()  # mapping dropped, segment deliberately left behind
        sweep_shipments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # The shipment's own unlink afterwards is a harmless no-op.
        shipment.unlink()

    def test_sweep_skips_other_owners(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        import repro.runtime.transport as transport_module

        shipment = ArrayShipment.pack({"x": np.ones(16)}, transport="shm")
        try:
            # Pretend a (forked) parent owns the segment: the sweep of this
            # process must leave it alone.
            transport_module._owned_segments[shipment.shm_name] = -1
            sweep_shipments()
            assert np.array_equal(shipment.load()["x"], np.ones(16))
            shipment.close()
        finally:
            transport_module._owned_segments.pop(shipment.shm_name, None)
            shipment.unlink()

    def test_failed_chunk_unlinks_the_batch_shipment(self, grid5000):
        """A chunk failing on the process lane still unlinks the batch's
        shared-memory segment, and the worker's error propagates."""
        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        from multiprocessing import shared_memory

        segment_names = []

        class FailingHandle:
            def get(self, timeout=None):
                raise RuntimeError("worker died")

        class FailingPool:
            kind = "process"
            workers = 2

            def submit(self, fn, args, units=None):
                segment_names.append(args[1].shm_name)
                return FailingHandle()

        program = binomial_bcast_program(grid5000, 4_096, root_rank=0)
        with pytest.raises(RuntimeError, match="worker died"):
            execute_programs(
                grid5000, [program, program], transport="shm", pool=FailingPool()
            )
        assert segment_names and segment_names[0] is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_names[0])

    def test_late_chunk_failure_still_unlinks_the_batch_shipment(self, grid5000):
        """Earlier chunks completing does not stop the segment being
        unlinked when a later chunk fails."""
        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        from multiprocessing import shared_memory

        segment_names = []

        class DoneHandle:
            def __init__(self, value):
                self.value = value

            def get(self, timeout=None):
                return self.value

        class FailingHandle:
            def get(self, timeout=None):
                raise RuntimeError("worker died")

        class LastChunkFailsPool:
            kind = "process"
            workers = 2

            def __init__(self):
                self.submitted = 0

            def submit(self, fn, args, units=None):
                segment_names.append(args[1].shm_name)
                self.submitted += 1
                if self.submitted == 1:
                    return DoneHandle(fn(args))
                return FailingHandle()

        program = binomial_bcast_program(grid5000, 4_096, root_rank=0)
        fake = LastChunkFailsPool()
        with pytest.raises(RuntimeError, match="worker died"):
            execute_programs(grid5000, [program] * 4, transport="shm", pool=fake)
        assert fake.submitted > 1
        assert len(set(segment_names)) == 1  # one segment per batch
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_names[0])

    def test_failed_chunk_propagates_on_the_pickle_transport(self, grid5000):
        shipments = []

        class FailingHandle:
            def get(self, timeout=None):
                raise RuntimeError("worker died")

        class FailingPool:
            kind = "process"
            workers = 2

            def submit(self, fn, args, units=None):
                shipments.append(args[1])
                return FailingHandle()

        program = binomial_bcast_program(grid5000, 4_096, root_rank=0)
        with pytest.raises(RuntimeError, match="worker died"):
            execute_programs(
                grid5000, [program, program], transport="pickle", pool=FailingPool()
            )
        assert shipments and all(item.shm_name is None for item in shipments)


class TestFrameServerDrain:
    def test_begin_drain_off_the_serving_thread_stops_accept(self):
        """begin_drain from another thread wakes serve_forever's blocking
        accept by itself — no close() needed."""

        class Idle(FrameServer):
            def _hello_message(self):
                return wire.control_message(wire.OP_PONG)

            def _handle_frame(self, message, reply):
                return False

        server = Idle(max_clients=1)
        server.bind()
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        try:
            time.sleep(0.1)  # let the serving thread block in accept()
            drainer = threading.Thread(target=server.begin_drain)
            drainer.start()
            drainer.join(timeout=1)
            serving.join(timeout=1)
            assert not serving.is_alive()
            assert server.draining
        finally:
            server.close()
            serving.join(timeout=5)


@pytest.fixture(scope="module")
def remote_pool():
    """A dedicated loopback remote pool: two agents, one worker each.

    Deliberately *not* the get_pool cache: the agent-loss test below kills
    one of a separate pool's agents, and this fixture's pool must stay
    two-agent for the bit-identity tests.
    """
    pool = RemoteStudyPool(2)
    yield pool
    pool.close()


class TestRemoteLane:
    """Remote-lane determinism: all five drivers, chains, duplicates, loss."""

    PRACTICAL = dict(
        message_sizes=(65_536, 1_048_576),
        noise_sigma=0.08,
        heuristics=("ecef", "fef"),
    )
    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    def test_practical_study(self, remote_pool):
        config = PracticalStudyConfig(**self.PRACTICAL)
        inline = run_practical_study(config, workers=0)
        remote = run_practical_study(config, workers=2, pool=remote_pool)
        assert np.array_equal(inline.measured, remote.measured)
        assert np.array_equal(inline.baseline_measured, remote.baseline_measured)
        assert np.array_equal(inline.predicted, remote.predicted)

    def test_simulation_study(self, remote_pool):
        config = SimulationStudyConfig(cluster_counts=(3, 4), iterations=24, seed=11)
        inline = run_simulation_study(config)
        remote = run_simulation_study(config, workers=2, pool=remote_pool)
        assert np.array_equal(inline.makespans, remote.makespans)

    def test_scatter_study(self, heterogeneous_grid, remote_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_scatter_study(config, grid=heterogeneous_grid)
        remote = run_scatter_study(
            config, grid=heterogeneous_grid, workers=2, pool=remote_pool
        )
        assert np.array_equal(inline.measured, remote.measured)

    def test_alltoall_study(self, heterogeneous_grid, remote_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_alltoall_study(config, grid=heterogeneous_grid)
        remote = run_alltoall_study(
            config, grid=heterogeneous_grid, workers=2, pool=remote_pool
        )
        assert np.array_equal(inline.measured, remote.measured)

    def test_chained_study(self, heterogeneous_grid, remote_pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        inline = run_chained_study(config, **kwargs)
        remote = run_chained_study(config, workers=2, pool=remote_pool, **kwargs)
        assert np.array_equal(inline.warm, remote.warm)
        assert np.array_equal(inline.fresh, remote.fresh)

    def test_chains_stay_atomic_across_agents(self, grid5000, remote_pool):
        """Warm chains ship whole to one agent — interleaved with enough
        independent tasks that both agents certainly receive work."""
        expensive = grid_aware_alltoall_program(grid5000, 64)
        cheap = binomial_bcast_program(grid5000, 16_384, root_rank=0)
        tasks = []
        for index in range(6):
            tasks.append(
                ExecutionTask(
                    expensive if index % 3 == 0 else cheap,
                    noise_seed=derive_seed(37, index),
                )
            )
            tasks.append(ExecutionTask(cheap, noise_seed=derive_seed(37, index, "c")))
            tasks.append(ExecutionTask(expensive, reset_network=False))
        config = NetworkConfig(noise_sigma=0.08, seed=37)
        inline = execute_programs(grid5000, tasks, config=config)
        remote = execute_programs(
            grid5000, tasks, config=config, workers=2, pool=remote_pool
        )
        assert _makespans(remote) == _makespans(inline)

    def test_scalar_engine_on_the_remote_lane(self, grid5000, remote_pool):
        tasks = [
            ExecutionTask(
                flat_scatter_program(grid5000, 1_024, root_rank=0),
                noise_seed=derive_seed(41, index),
            )
            for index in range(6)
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=41)
        inline = execute_programs(grid5000, tasks, config=config, engine="scalar")
        remote = execute_programs(
            grid5000,
            tasks,
            config=config,
            engine="scalar",
            workers=2,
            pool=remote_pool,
        )
        assert _makespans(remote) == _makespans(inline)

    def test_duplicate_result_delivery_is_discarded(self, remote_pool):
        handle = remote_pool.submit(derive_seed, 5)
        value = handle.get(timeout=60)
        assert value == derive_seed(5)
        before = remote_pool.duplicates_ignored
        # Replay the delivery, as an agent racing its own loss would: the
        # job is already settled, so the replay must be counted and dropped.
        remote_pool._deliver(
            remote_pool._agents[0], {"job": handle.job_id, "result": -1}
        )
        assert remote_pool.duplicates_ignored == before + 1
        assert handle.get() == value  # first delivery won

    def test_submit_rejects_unimportable_functions(self, remote_pool):
        with pytest.raises(ValueError, match="module-level"):
            remote_pool.submit(lambda args: args, ())

    def test_agent_loss_mid_run_requeues_bit_identically(self):
        """SIGKILL one of two agents with a study in flight: the coordinator
        requeues the lost chunks and the results stay bit-identical."""
        config = PracticalStudyConfig(
            message_sizes=(65_536, 1_048_576, 4_194_304),
            noise_sigma=0.08,
            heuristics=("ecef", "fef", "flat_tree"),
        )
        inline = run_practical_study(config, workers=0)
        # fallback="fail" keeps the historical contract under test here:
        # losing the last agent is a hard failure, not a degradation to the
        # local lane (that path has its own tests in TestChaosRemoteLane).
        pool = RemoteStudyPool(2, fallback="fail")
        try:
            victim = pool._agents[0]
            victim.process.kill()  # dies with the first chunks in flight
            survived = run_practical_study(config, workers=2, pool=pool)
            assert np.array_equal(inline.measured, survived.measured)
            assert np.array_equal(
                inline.baseline_measured, survived.baseline_measured
            )
            assert not victim.alive and pool.alive
            # Losing the *last* agent is a hard failure, not a hang
            # (raised at submit if the loss was already detected, at get
            # once the requeue finds no survivors otherwise).
            pool._agents[1].process.kill()
            with pytest.raises(RuntimeError, match="agent"):
                pool.submit(derive_seed, 9).get(timeout=60)
        finally:
            pool.close()


class TestElasticRemoteLane:
    """Cost balancing, stealing, heartbeats and membership — none of which
    may ever change results."""

    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    @staticmethod
    def _terminate(process) -> None:
        process.terminate()
        process.wait(timeout=15)

    def test_work_stealing_drains_a_skewed_fleet(self):
        """A 30x-slower agent's queued frames migrate to the fast agent;
        results stay correct and the fleet weights reflect the skew."""
        fast_proc, fast_addr = _spawn_loopback_agent(1)
        slow_proc, slow_addr = _spawn_loopback_agent(1, slowdown=30.0)
        pool = RemoteStudyPool(hosts=(fast_addr, slow_addr))
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.01, index), units=1.0)
                for index in range(16)
            ]
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(16)
            )
            by_address = {(link.host, link.port): link for link in pool._agents}
            fast, slow = by_address[fast_addr], by_address[slow_addr]
            assert fast.completed + slow.completed == 16
            assert fast.completed > slow.completed
            assert pool.steals > 0
        finally:
            pool.close()
            self._terminate(fast_proc)
            self._terminate(slow_proc)

    def test_mid_study_join_steals_queued_work(self, heterogeneous_grid):
        """An agent joined via add_host while jobs are queued immediately
        receives stolen work — and two drivers stay bit-identical on the
        grown fleet."""
        slow_proc, slow_addr = _spawn_loopback_agent(1, slowdown=30.0)
        fast_proc = None
        pool = RemoteStudyPool(hosts=(slow_addr,))
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.01, index), units=1.0)
                for index in range(16)
            ]
            fast_proc, fast_addr = _spawn_loopback_agent(1)
            joined = pool.add_host(f"{fast_addr[0]}:{fast_addr[1]}")
            # Re-adding a connected address is a no-op returning the link.
            assert pool.add_host(*fast_addr) is joined
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(16)
            )
            assert joined.completed > 0
            assert pool.steals > 0
            config = PracticalStudyConfig(**self.COLLECTIVE)
            inline = run_scatter_study(config, grid=heterogeneous_grid)
            grown = run_scatter_study(
                config, grid=heterogeneous_grid, workers=2, pool=pool
            )
            assert np.array_equal(inline.measured, grown.measured)
            kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
            inline_chain = run_chained_study(config, **kwargs)
            grown_chain = run_chained_study(config, workers=2, pool=pool, **kwargs)
            assert np.array_equal(inline_chain.warm, grown_chain.warm)
            assert np.array_equal(inline_chain.fresh, grown_chain.fresh)
        finally:
            pool.close()
            self._terminate(slow_proc)
            if fast_proc is not None:
                self._terminate(fast_proc)

    def test_missed_heartbeats_mark_agent_dead_and_requeue(
        self, heterogeneous_grid
    ):
        """SIGSTOP an agent (socket stays open — only the heartbeat can tell
        it is gone): its frames land on the survivor and two drivers stay
        bit-identical."""
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_scatter_study(config, grid=heterogeneous_grid)
        chain_kwargs = dict(
            grid=heterogeneous_grid, stages=("scatter", "alltoall")
        )
        inline_chain = run_chained_study(config, **chain_kwargs)
        pool = RemoteStudyPool(2, heartbeat=0.15)
        victim = pool._agents[0]
        try:
            os.kill(victim.process.pid, signal.SIGSTOP)
            survived = run_scatter_study(
                config, grid=heterogeneous_grid, workers=2, pool=pool
            )
            assert np.array_equal(inline.measured, survived.measured)
            assert not victim.alive and pool.alive
            survived_chain = run_chained_study(
                config, workers=2, pool=pool, **chain_kwargs
            )
            assert np.array_equal(inline_chain.warm, survived_chain.warm)
            assert np.array_equal(inline_chain.fresh, survived_chain.fresh)
        finally:
            try:
                os.kill(victim.process.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            pool.close()

    def test_agent_answers_pings_inline(self):
        """A raw ping frame comes back as a pong echoing the sequence."""
        process, (host, port) = _spawn_loopback_agent(1)
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                hello = wire.recv_message(sock)
                assert hello["hello"] == wire.WIRE_VERSION
                wire.send_message(sock, wire.control_message(wire.OP_PING, seq=7))
                pong = wire.recv_message(sock)
                assert pong == {"op": wire.OP_PONG, "seq": 7}
                wire.send_message(sock, wire.control_message(wire.OP_SHUTDOWN))
        finally:
            self._terminate(process)

    def test_connect_retries_until_agent_appears(self):
        """The coordinator's handshake retries with backoff: an agent that
        binds half a second late is still connected within the deadline."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()[:2]
        finally:
            probe.close()
        server = AgentServer(host=host, port=port, workers=1)

        def _bind_late():
            time.sleep(0.5)
            server.serve_forever()

        thread = threading.Thread(target=_bind_late, daemon=True)
        started = time.monotonic()
        thread.start()
        pool = None
        try:
            pool = RemoteStudyPool(hosts=((host, port),))
            assert time.monotonic() - started >= 0.4  # first attempts refused
            assert pool.submit(derive_seed, 23).get(timeout=60) == derive_seed(23)
        finally:
            if pool is not None:
                pool.close()
            server.close()
            thread.join(timeout=15)

    def test_rescan_hosts_joins_newly_named_agents(self, monkeypatch):
        first_proc, first_addr = _spawn_loopback_agent(1)
        second_proc, second_addr = _spawn_loopback_agent(1)
        pool = RemoteStudyPool(hosts=(first_addr,))
        try:
            assert pool.workers == 1
            monkeypatch.setenv(
                "REPRO_HOSTS",
                ",".join(f"{host}:{port}" for host, port in (first_addr, second_addr)),
            )
            added = pool.rescan_hosts()
            assert [(link.host, link.port) for link in added] == [second_addr]
            assert pool.workers == 2
            assert pool.rescan_hosts() == []  # idempotent
            handles = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in handles] == [
                derive_seed(index) for index in range(8)
            ]
        finally:
            pool.close()
            self._terminate(first_proc)
            self._terminate(second_proc)


class TestFaultPlan:
    """The chaos harness itself: selectors, seeded streams, validation."""

    def test_selector_precedence_name_then_index_then_wildcard(self):
        plan = FaultPlan(
            agents={
                "a:1": {"drop_rate": 1.0},
                "#1": {"delay_rate": 1.0},
                "*": {"corrupt_rate": 1.0},
            }
        )
        plan.register("a:1")  # join index 0: exact name still wins
        plan.register("b:2")  # join index 1
        plan.register("c:3")  # join index 2: only the wildcard matches
        assert plan.on_send("a:1")[0] == SEND_DROP
        assert plan.on_send("b:2")[0] == SEND_DELAY
        assert plan.on_send("c:3")[0] == SEND_CORRUPT

    def test_send_schedule_replays_from_its_seed(self):
        knobs = {"drop_rate": 0.3, "corrupt_rate": 0.2, "delay_rate": 0.2}

        def schedule(seed):
            plan = FaultPlan(seed=seed, agents={"*": dict(knobs)})
            return [plan.on_send("x:1")[0] for _ in range(64)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert set(schedule(7)) == {SEND_OK, SEND_DROP, SEND_DELAY, SEND_CORRUPT}

    def test_unknown_knobs_and_bad_rates_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault knob"):
            FaultPlan(agents={"*": {"drop_rat": 1.0}})
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(agents={"*": {"drop_rate": 1.5}})
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.from_spec({"seed": "lots"})

    def test_crash_refuses_reconnects_forever(self):
        plan = FaultPlan(
            agents={"*": {"refuse_connects": 2, "crash_after_results": 2}}
        )
        assert plan.refuse_connect("x:1")  # the first two attempts bounce
        assert plan.refuse_connect("x:1")
        assert not plan.refuse_connect("x:1")
        assert plan.after_result("x:1") is None
        assert plan.after_result("x:1") == FAULT_CRASH
        assert plan.refuse_connect("x:1")  # crashed: refused forever

    def test_hang_black_holes_every_site_until_expiry(self):
        plan = FaultPlan(
            agents={"*": {"hang_after_results": 1, "hang_seconds": 0.2}}
        )
        assert plan.after_result("x:1") == FAULT_HANG
        assert plan.absorb_receive("x:1")
        assert plan.on_send("x:1")[0] == SEND_DROP
        assert plan.refuse_connect("x:1")
        time.sleep(0.25)
        assert not plan.absorb_receive("x:1")
        assert plan.on_send("x:1")[0] == SEND_OK
        # The trigger is one-shot: more results never re-arm the hole.
        assert plan.after_result("x:1") is None
        assert not plan.absorb_receive("x:1")

    def test_json_file_and_env_var_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"seed": 3, "agents": {"#0": {"drop_rate": 0.5}}})
        )
        assert resolve_fault_plan(str(path)).seed == 3
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        assert resolve_fault_plan(None).seed == 3
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert resolve_fault_plan(None) is None  # production default: off

    def test_corrupt_frame_keeps_length_and_breaks_magic(self):
        frame = wire.encode_message({"job": 1})
        mangled = corrupt_frame(frame)
        assert len(mangled) == len(frame)
        assert mangled[:4] != wire.MAGIC


class TestChaosRemoteLane:
    """Recovery under the seeded fault harness.

    Every injected misbehaviour — crashes, black holes, dropped and
    corrupted frames, admission rejects, full-fleet loss — may only move
    chunks around; results must stay bit-identical to the inline path,
    and every re-dispatched frame must be accounted for."""

    PRACTICAL = dict(
        message_sizes=(65_536, 1_048_576),
        noise_sigma=0.08,
        heuristics=("ecef", "fef"),
    )
    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    @staticmethod
    def _terminate(process) -> None:
        process.terminate()
        process.wait(timeout=15)

    def test_all_five_drivers_bit_identical_under_injected_crash(
        self, heterogeneous_grid
    ):
        """Agent #0 is killed (SIGKILL, reconnects refused) after two
        results, with jittery sends on the survivor; all five study drivers
        still reproduce the inline numbers exactly."""
        plan = FaultPlan(
            seed=101,
            agents={
                "#0": {"crash_after_results": 2},
                "#1": {"delay_rate": 0.25, "delay_seconds": 0.02},
            },
        )
        practical = PracticalStudyConfig(**self.PRACTICAL)
        collective = PracticalStudyConfig(**self.COLLECTIVE)
        simulation = SimulationStudyConfig(
            cluster_counts=(3, 4), iterations=24, seed=11
        )
        chain_kwargs = dict(
            grid=heterogeneous_grid, stages=("scatter", "alltoall")
        )
        pool = RemoteStudyPool(2, faults=plan, fallback="fail")
        try:
            remote = run_practical_study(practical, workers=2, pool=pool)
            inline = run_practical_study(practical, workers=0)
            assert np.array_equal(inline.measured, remote.measured)
            assert np.array_equal(inline.predicted, remote.predicted)
            # Enough direct deliveries to guarantee #0 reaches its crash
            # trigger (a short study may route it fewer than two results).
            warmup = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in warmup] == [
                derive_seed(index) for index in range(8)
            ]
            assert any(not link.alive for link in pool._agents)  # it died
            assert pool.reconnects == 0  # a crashed agent never rejoins
            seeds = run_simulation_study(simulation, workers=2, pool=pool)
            assert np.array_equal(
                run_simulation_study(simulation).makespans, seeds.makespans
            )
            scatter = run_scatter_study(
                collective, grid=heterogeneous_grid, workers=2, pool=pool
            )
            assert np.array_equal(
                run_scatter_study(collective, grid=heterogeneous_grid).measured,
                scatter.measured,
            )
            alltoall = run_alltoall_study(
                collective, grid=heterogeneous_grid, workers=2, pool=pool
            )
            assert np.array_equal(
                run_alltoall_study(
                    collective, grid=heterogeneous_grid
                ).measured,
                alltoall.measured,
            )
            chained = run_chained_study(
                collective, workers=2, pool=pool, **chain_kwargs
            )
            inline_chain = run_chained_study(collective, **chain_kwargs)
            assert np.array_equal(inline_chain.warm, chained.warm)
            assert np.array_equal(inline_chain.fresh, chained.fresh)
        finally:
            pool.close()

    def test_frame_deadline_reroutes_dropped_frames(self):
        """Every frame to agent #0 vanishes (heartbeats off, so deadlines
        are the only detector): expired frames re-route to the survivor and
        every job still settles correctly."""
        plan = FaultPlan(seed=5, agents={"#0": {"drop_rate": 1.0}})
        pool = RemoteStudyPool(
            2, faults=plan, heartbeat=0.0, frame_timeout=0.2, fallback="fail"
        )
        try:
            handles = [
                pool.submit(derive_seed, index, units=0.01) for index in range(12)
            ]
            assert [handle.get(timeout=120) for handle in handles] == [
                derive_seed(index) for index in range(12)
            ]
            assert pool.deadline_expired >= 1
        finally:
            pool.close()

    def test_admission_rejects_back_off_and_recover(self):
        """Agents with a one-frame queue bound bounce the prefetch overflow
        BUSY; the coordinator backs off, retries, and loses nothing."""
        agents = [_spawn_loopback_agent(1, queue_bound=1) for _ in range(2)]
        pool = RemoteStudyPool(
            hosts=[address for _, address in agents], fallback="fail"
        )
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.05, index), units=1.0)
                for index in range(12)
            ]
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(12)
            )
            assert pool.busy_rejects >= 1
            assert pool.degraded_jobs == 0  # retried, never given up on
        finally:
            pool.close()
            for process, _ in agents:
                self._terminate(process)

    def test_hung_agent_is_reprobed_and_readmitted(self):
        """Agent #1 black-holes after its first result (socket open, all
        frames absorbed — a frozen host): heartbeats declare it dead, its
        frames finish on the survivor, and once the hole expires the
        probation prober re-admits it."""
        plan = FaultPlan(
            seed=13,
            agents={"#1": {"hang_after_results": 1, "hang_seconds": 1.0}},
        )
        pool = RemoteStudyPool(2, faults=plan, heartbeat=0.1, fallback="fail")
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.02, index), units=1.0)
                for index in range(24)
            ]
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(24)
            )
            deadline = time.monotonic() + 30
            while pool.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.reconnects >= 1
            assert sum(1 for link in pool._agents if link.alive) == 2
            more = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in more] == [
                derive_seed(index) for index in range(8)
            ]
        finally:
            pool.close()

    def test_corrupted_streams_reconnect_and_finish(self):
        """Agent #0 refuses its first connect, then every frame to it is
        sent with a mangled header — the agent drops the stream each time;
        the coordinator requeues elsewhere, re-probes, and finishes."""
        plan = FaultPlan(
            seed=3,
            agents={"#0": {"refuse_connects": 1, "corrupt_rate": 1.0}},
        )
        pool = RemoteStudyPool(2, faults=plan, fallback="fail")
        try:
            handles = [pool.submit(derive_seed, index) for index in range(12)]
            assert [handle.get(timeout=120) for handle in handles] == [
                derive_seed(index) for index in range(12)
            ]
            deadline = time.monotonic() + 30
            while pool.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.reconnects >= 1
        finally:
            pool.close()

    def test_full_fleet_loss_degrades_to_local_lane_bit_identically(self):
        """Every agent crashes after its first result: outstanding and new
        chunks drain through the local process lane and the study's numbers
        are still bit-identical to the inline run."""
        plan = FaultPlan(seed=23, agents={"*": {"crash_after_results": 1}})
        config = SimulationStudyConfig(
            cluster_counts=(3, 4), iterations=24, seed=11
        )
        inline = run_simulation_study(config)
        pool = RemoteStudyPool(2, faults=plan)  # fallback="local" default
        try:
            degraded = run_simulation_study(config, workers=2, pool=pool)
            assert np.array_equal(inline.makespans, degraded.makespans)
            handles = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in handles] == [
                derive_seed(index) for index in range(8)
            ]
            assert not any(link.alive for link in pool._agents)
            assert pool.degraded_jobs >= 1
            assert pool.alive  # under fallback="local" the pool still serves
        finally:
            pool.close()

    def test_fallback_fail_restores_the_hard_failure(self):
        plan = FaultPlan(
            seed=29, agents={"*": {"crash_after_results": 1, "refuse_connects": 0}}
        )
        pool = RemoteStudyPool(2, faults=plan, fallback="fail")
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.05, index), units=1.0)
                for index in range(8)
            ]
            outcomes = []
            for handle in handles:
                try:
                    outcomes.append(handle.get(timeout=120))
                except RuntimeError:
                    outcomes.append("failed")
            assert "failed" in outcomes  # the fleet died and said so
            assert pool.degraded_jobs == 0
            assert not pool.alive
        finally:
            pool.close()

    def test_late_results_after_deadline_count_as_duplicates(self):
        """A deadline expiry re-dispatches a frame that the original agent
        is still executing; the late original (or the twin) is discarded
        through the duplicate path and the job settles exactly once."""
        pool = RemoteStudyPool(2, frame_timeout=0.2, fallback="fail")
        try:
            handle = pool.submit(_diagnostic_sleep, (0.6, "slow"), units=0.01)
            assert handle.get(timeout=60) == "slow"
            assert pool.deadline_expired >= 1
            deadline = time.monotonic() + 30
            while pool.duplicates_ignored < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            # Every re-dispatched execution beyond the first is accounted
            # as a discarded duplicate; exactly one delivery completed.
            assert pool.duplicates_ignored >= 1
            assert sum(link.completed for link in pool._agents) == 1
        finally:
            pool.close()

    def test_sigterm_drains_in_flight_frames_gracefully(self):
        """SIGTERM mid-frame: the agent finishes the frame, flushes the
        result, refuses new work, and exits 0 — nothing is lost, nothing
        needs re-dispatch."""
        process, address = _spawn_loopback_agent(1)
        pool = RemoteStudyPool(hosts=(address,), fallback="fail")
        try:
            handle = pool.submit(_diagnostic_sleep, (0.8, "drained"), units=1.0)
            time.sleep(0.25)  # let the frame reach the agent and start
            process.send_signal(signal.SIGTERM)
            assert handle.get(timeout=60) == "drained"
            assert process.wait(timeout=60) == 0
        finally:
            pool.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)
