"""Tests for the study runtime (repro.runtime): pool, shipping, chunking,
and the distributed remote lane.

The runtime's contract is that *none* of its machinery changes results:
pool reuse across studies, executor lanes, shared-memory vs by-value
shipping, chunking, worker counts — and, for the remote lane, agent
counts, join order, duplicate result delivery and mid-run agent loss — are
all required to be bit-identical, with warm-network chaining verified
against the scalar reference engine.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.transport as transport_module
from repro.experiments.chained_study import ChainedStudyResult, run_chained_study
from repro.experiments.config import PracticalStudyConfig, SimulationStudyConfig
from repro.experiments.gossip_study import GossipStudyConfig, run_gossip_study
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
    AUTO_INLINE_MAX_UNITS,
    CostModel,
    partition_by_cost,
    program_cost,
    resolve_executor,
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
    choose_lane,
    get_pool,
    process_pool,
    shutdown_pool,
)
from repro.runtime.remote import (
    DEFAULT_AGENT_PORT,
    PREFETCH_PER_WORKER,
    AgentServer,
    RemoteStudyPool,
    _AgentLink,
    _diagnostic_sleep,
    _localise,
    _spawn_loopback_agent,
    parse_hosts,
    resolve_hosts,
)
from repro.runtime.transport import (
    ArrayShipment,
    shared_memory_available,
    sweep_shipments,
)
from repro.runtime.serving import FrameServer, serve_foreground
from repro.simulator.batch import (
    ExecutionTask,
    _chunk_bounds,
    execute_makespans,
    execute_programs,
)
from repro.simulator.execution import ExecutionResult
from repro.simulator.network import NetworkConfig
from repro.utils.rng import derive_seed
from repro.utils.workers import resolve_workers


needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)


@pytest.fixture(params=["shm", "by-value"])
def shipping(request, monkeypatch):
    """Each way a chunk reaches process workers: one shared-memory stack
    read through per-chunk windows, or a by-value slice per chunk (what a
    platform without shared memory gets, forced by substituting the
    probe's answer)."""
    if request.param == "shm" and not shared_memory_available():
        pytest.skip("no shared memory on this platform")
    if request.param == "by-value":
        monkeypatch.setattr(transport_module, "_shm_probe_result", False)
    return request.param

#: The executor name of the deleted thread lane; every entry point rejects it.
DELETED_LANE = "thr" "ead"


@pytest.fixture(scope="module")
def pool():
    """One persistent pool shared by every test of this module (that is the
    point: reuse must be invisible in the results)."""
    pool = get_pool(2)
    yield pool
    shutdown_pool()


def _makespans(results) -> list[float]:
    return [result.makespan for result in results]


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_shared_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0

    def test_garbage_env_var_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_negative_clamps_to_zero(self):
        assert resolve_workers(-3) == 0

    def test_only_the_shared_variable_is_read(self, monkeypatch):
        # The per-study worker variables are gone; setting one, even to
        # garbage, neither picks a worker count nor raises.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_MC_WORKERS", "4")
        monkeypatch.setenv("REPRO_PRACTICAL_WORKERS", "not-a-number")
        monkeypatch.setenv("REPRO_GOSSIP_WORKERS", "3")
        assert resolve_workers(None) == 0
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2

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

    def test_terminate_stops_busy_workers_despite_a_parent_handler(self):
        """Workers forked after the parent installed a SIGTERM handler (as
        a serving agent does) must still die on ``terminate()``: an
        inherited handler would swallow the signal and hang ``join()``."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            workers = process_pool(2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        processes = list(workers._pool)
        assert workers.apply_async(os.getpid).get(timeout=30)
        for _ in range(4):
            workers.apply_async(time.sleep, (5,))
        time.sleep(0.2)  # let both workers pick up a task
        stopper = threading.Thread(
            target=lambda: (workers.terminate(), workers.join()), daemon=True
        )
        started = time.monotonic()
        stopper.start()
        stopper.join(timeout=2)
        hung = stopper.is_alive()
        if hung:  # unblock join() so the failure leaves no orphan behind
            for process in processes:
                if process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
            stopper.join(timeout=10)
        assert not hung, "terminate() + join() hung on busy workers"
        assert time.monotonic() - started <= 2
        assert not any(process.is_alive() for process in processes)


@needs_shm
class TestArrayShipment:
    def test_round_trip_is_bitwise(self):
        arrays = {
            "floats": np.linspace(0.0, 1.0, 37).reshape(37),
            "matrix": np.arange(24, dtype=np.float64).reshape(2, 3, 4) * np.pi,
            "ints": np.arange(11, dtype=np.int64),
            "empty": np.empty(0, dtype=np.float64),
        }
        shipment = ArrayShipment.pack(arrays)
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

    def test_survives_pickling(self):
        import pickle

        arrays = {"data": np.arange(100, dtype=np.float64) ** 0.5}
        shipment = ArrayShipment.pack(arrays)
        try:
            clone = pickle.loads(pickle.dumps(shipment))
            assert np.array_equal(clone.load()["data"], arrays["data"])
            clone.close()
        finally:
            shipment.close()
            shipment.unlink()

    def test_unlink_is_idempotent(self):
        shipment = ArrayShipment.pack({"x": np.ones(4)})
        shipment.unlink()
        shipment.unlink()


class TestExecuteProgramsShipping:
    """Shared-memory vs by-value shipping is bit-identical."""

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

    def test_worker_shipping_bit_identical(
        self, grid5000, tasks, reference, shipping, pool
    ):
        fanned = execute_programs(
            grid5000,
            tasks,
            config=NetworkConfig(noise_sigma=0.05, seed=5),
            collect_traces=True,
            workers=2,
            executor="process",
        )
        assert _makespans(fanned) == _makespans(reference)
        assert [r.completion_times for r in fanned] == [
            r.completion_times for r in reference
        ]
        assert [r.trace for r in fanned] == [r.trace for r in reference]

    def test_by_value_path_ships_each_task_once(
        self, grid5000, tasks, reference, monkeypatch
    ):
        """Without shared memory every job carries only its own chunk's
        slice: the per-job message counts sum to the batch's."""
        monkeypatch.setattr(transport_module, "_shm_probe_result", False)

        class Settled:
            def __init__(self, value):
                self.value = value

            def get(self):
                return self.value

        class RecordingPool:
            kind = "process"
            workers = 2

            def __init__(self):
                self.shipped = []

            def submit(self, fn, args, units=None):
                self.shipped.append(len(args[1].load()["dest"]))
                return Settled(fn(args))

        recorder = RecordingPool()
        fanned = execute_programs(
            grid5000,
            tasks,
            config=NetworkConfig(noise_sigma=0.05, seed=5),
            collect_traces=True,
            pool=recorder,
        )
        assert [r.trace for r in fanned] == [r.trace for r in reference]
        assert len(recorder.shipped) == 2
        assert sum(recorder.shipped) == sum(
            task.program.total_messages() for task in tasks
        )


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

    def test_chains_never_split_across_workers(
        self, grid5000, shipping, pool
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
            grid5000, tasks, config=config, workers=2, executor="process"
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

    def test_shipping_invariance(self, heterogeneous_grid, shipping, pool):
        config = PracticalStudyConfig(message_sizes=(2_048, 16_384), noise_sigma=0.05)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        inline = run_chained_study(config, workers=0, **kwargs)
        shipped = run_chained_study(
            config, workers=2, executor="process", **kwargs
        )
        assert np.array_equal(inline.warm, shipped.warm)
        assert np.array_equal(inline.fresh, shipped.fresh)


class TestPipelinedDriver:
    """Inline vs fanned-out practical study, pool reuse, shipping paths."""

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

    def test_shipping_invariance(self, shipping, pool):
        config = PracticalStudyConfig(**self.CONFIG)
        reference = run_practical_study(config)
        shipped = run_practical_study(config, workers=2, executor="process")
        assert np.array_equal(reference.measured, shipped.measured)

    @pytest.mark.parametrize("study", [run_scatter_study, run_alltoall_study])
    def test_collective_shipping_invariance(self, study, shipping, pool):
        config = PracticalStudyConfig(
            message_sizes=(1_024, 8_192), noise_sigma=0.05
        )
        reference = study(config, workers=0)
        shipped = study(config, workers=2, executor="process")
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
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert resolve_executor(None) == "process"
        assert resolve_executor("remote") == "remote"
        monkeypatch.setenv("REPRO_EXECUTOR", "hamster-wheel")
        with pytest.raises(ValueError, match="executor"):
            resolve_executor(None)


class TestExecutorEquivalence:
    """Process vs inline bit-identity on all five study drivers."""

    PRACTICAL = dict(
        message_sizes=(65_536, 1_048_576),
        noise_sigma=0.08,
        heuristics=("ecef", "fef"),
    )
    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    @pytest.mark.parametrize("executor", ["process"])
    def test_practical_study(self, executor, pool):
        config = PracticalStudyConfig(**self.PRACTICAL)
        inline = run_practical_study(config, workers=0)
        fanned = run_practical_study(config, workers=2, executor=executor)
        assert np.array_equal(inline.measured, fanned.measured)
        assert np.array_equal(inline.baseline_measured, fanned.baseline_measured)
        assert np.array_equal(inline.predicted, fanned.predicted)

    @pytest.mark.parametrize("executor", ["process"])
    def test_simulation_study(self, executor, pool):
        config = SimulationStudyConfig(cluster_counts=(3, 4), iterations=24, seed=11)
        inline = run_simulation_study(config)
        fanned = run_simulation_study(config, workers=2, executor=executor)
        assert np.array_equal(inline.makespans, fanned.makespans)

    @pytest.mark.parametrize("executor", ["process"])
    def test_scatter_study(self, executor, heterogeneous_grid, pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_scatter_study(config, grid=heterogeneous_grid)
        fanned = run_scatter_study(
            config, grid=heterogeneous_grid, workers=2, executor=executor
        )
        assert np.array_equal(inline.measured, fanned.measured)

    @pytest.mark.parametrize("executor", ["process"])
    def test_alltoall_study(self, executor, heterogeneous_grid, pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        inline = run_alltoall_study(config, grid=heterogeneous_grid)
        fanned = run_alltoall_study(
            config, grid=heterogeneous_grid, workers=2, executor=executor
        )
        assert np.array_equal(inline.measured, fanned.measured)

    @pytest.mark.parametrize("executor", ["process"])
    def test_chained_study(self, executor, heterogeneous_grid, pool):
        config = PracticalStudyConfig(**self.COLLECTIVE)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        inline = run_chained_study(config, **kwargs)
        fanned = run_chained_study(config, workers=2, executor=executor, **kwargs)
        assert np.array_equal(inline.warm, fanned.warm)
        assert np.array_equal(inline.fresh, fanned.fresh)

    def test_auto_lane_is_bit_identical_too(self, pool):
        config = PracticalStudyConfig(**self.PRACTICAL)
        inline = run_practical_study(config, workers=0)
        auto = run_practical_study(config, workers=2, executor="auto")
        assert np.array_equal(inline.measured, auto.measured)

    def test_rejects_unknown_executor(self, grid5000):
        program = binomial_bcast_program(grid5000, 1_024, root_rank=0)
        with pytest.raises(ValueError, match="executor"):
            execute_programs(grid5000, [program, program], executor="carrier-pigeon")

    class RefusingPool:
        """A process-lane pool that fails the test if it is given a job."""

        kind = "process"
        workers = 2

        def submit(self, fn, args, units=None):
            raise AssertionError("the scalar engine submitted a job")

    def test_scalar_engine_always_runs_in_process(self, grid5000):
        """The scalar reference never reaches a pool, whatever the lane
        settings, and matches the batched engine's fan-out."""
        tasks = [
            ExecutionTask(
                binomial_bcast_program(grid5000, 2_048, root_rank=0),
                noise_seed=derive_seed(17, index),
            )
            for index in range(6)
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=17)
        inline = execute_programs(grid5000, tasks, config=config)
        scalar = execute_programs(
            grid5000,
            tasks,
            config=config,
            engine="scalar",
            workers=2,
            executor="process",
            pool=self.RefusingPool(),
        )
        assert _makespans(scalar) == _makespans(inline)

    @pytest.mark.parametrize(
        "study", ["practical", "scatter", "alltoall", "chained"]
    )
    def test_scalar_studies_never_reach_a_pool(self, study, heterogeneous_grid):
        """Every study driver keeps ``engine="scalar"`` in-process, past an
        explicit pool and worker count, bit-identical to the batched run."""
        lanes = dict(workers=2, executor="process", pool=self.RefusingPool())
        if study == "practical":
            config = PracticalStudyConfig(**self.PRACTICAL)
            batched = run_practical_study(config, workers=0)
            scalar = run_practical_study(config, engine="scalar", **lanes)
            assert np.array_equal(batched.measured, scalar.measured)
            assert np.array_equal(
                batched.baseline_measured, scalar.baseline_measured
            )
            return
        config = PracticalStudyConfig(**self.COLLECTIVE)
        if study == "chained":
            kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
            batched = run_chained_study(config, workers=0, **kwargs)
            scalar = run_chained_study(config, engine="scalar", **lanes, **kwargs)
            assert np.array_equal(batched.warm, scalar.warm)
            assert np.array_equal(batched.fresh, scalar.fresh)
            return
        run = run_scatter_study if study == "scatter" else run_alltoall_study
        batched = run(config, grid=heterogeneous_grid, workers=0)
        scalar = run(config, grid=heterogeneous_grid, engine="scalar", **lanes)
        assert np.array_equal(batched.measured, scalar.measured)


class TestChooseLane:
    """The one lane decision: its rules, and that every fan-out obeys it."""

    def test_choose_lane(self, monkeypatch):
        import repro.runtime.pool as pool_module
        import repro.runtime.remote as remote_module

        class FakePool:
            kind = "process"

            def __init__(self, workers=None, *, hosts=None):
                self.hosts_spec = resolve_hosts(hosts)
                self.workers = max(2, int(workers or 0))
                self.alive = True

            def close(self):
                self.alive = False

        class FakeRemotePool(FakePool):
            kind = "remote"

        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(pool_module, "StudyPool", FakePool)
        monkeypatch.setattr(remote_module, "RemoteStudyPool", FakeRemotePool)
        monkeypatch.setitem(pool_module._global_pools, "process", None)
        monkeypatch.setitem(pool_module._global_pools, "remote", None)
        small, large = AUTO_INLINE_MAX_UNITS, AUTO_INLINE_MAX_UNITS + 1
        # Fewer than two workers run inline on every local lane, and an
        # inline lane always chunks for one worker.
        assert choose_lane(None, None, 0, large) == (None, 1)
        assert choose_lane("process", 1, 1, large) == (None, 1)
        # auto splits on cost: inline up to the threshold, processes above
        # it — never the remote lane.
        assert choose_lane(None, None, 4, small) == (None, 1)
        pool, workers = choose_lane(None, None, 4, large)
        assert pool.kind == "process" and workers == 4
        # An explicit lane wins over the cost estimate.
        pool, _ = choose_lane("process", 2, 2, 10)
        assert pool.kind == "process"
        # Remote with no local worker request adopts the agents' capacity.
        pool, workers = choose_lane("remote", None, 0, 10)
        assert pool.kind == "remote" and workers == pool.workers == 2
        # An explicit in-process request is never overridden.
        assert choose_lane("remote", 0, 0, large) == (None, 1)
        assert choose_lane("remote", 1, 1, large) == (None, 1)

        # An explicit pool always wins, whatever its lane — and with no
        # workers= it lifts the count to the pool's (the fan-out request
        # an explicit pool implies).
        class ExplicitPool:
            kind = "process"
            workers = 3

        marker = ExplicitPool()
        assert choose_lane("remote", None, 0, 10, pool=marker) == (marker, 3)
        assert choose_lane("remote", 2, 2, 10, pool=marker) == (marker, 2)
        assert choose_lane(None, 2, 2, small, pool=marker) == (marker, 2)
        assert choose_lane(None, 1, 1, large, pool=marker) == (None, 1)
        # The environment engages the lane exactly like the argument.
        monkeypatch.setenv("REPRO_EXECUTOR", "remote")
        pool, workers = choose_lane(None, None, 0, 10)
        assert pool.kind == "remote" and workers == 2
        # A bad executor fails whatever decides the lane.
        monkeypatch.setenv("REPRO_EXECUTOR", "hamster-wheel")
        with pytest.raises(ValueError, match="executor"):
            choose_lane(None, None, 0, 10, pool=marker)

    def test_get_pool_rejects_unknown_kind(self):
        for kind in ("fiber", DELETED_LANE):
            with pytest.raises(ValueError, match="kind"):
                get_pool(2, kind=kind)

    def test_auto_keeps_small_batches_inline(self, grid5000, pool, monkeypatch):
        import repro.runtime.pool as pool_module

        requested: list[int] = []
        submitted: list[object] = []
        real_get_pool, real_submit = pool_module.get_pool, StudyPool.submit

        def spy_get_pool(workers, *args, **kwargs):
            requested.append(workers)
            return real_get_pool(workers, *args, **kwargs)

        def spy_submit(self, fn, args, **kwargs):
            submitted.append(fn)
            return real_submit(self, fn, args, **kwargs)

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(pool_module, "get_pool", spy_get_pool)
        monkeypatch.setattr(StudyPool, "submit", spy_submit)
        config = NetworkConfig(noise_sigma=0.05, seed=31)

        def batch(count):
            return [
                ExecutionTask(
                    binomial_bcast_program(grid5000, 4_096, root_rank=0),
                    noise_seed=derive_seed(31, index),
                )
                for index in range(count)
            ]

        def units(tasks):
            return sum(program_cost(task.program) for task in tasks)

        small, large = batch(8), batch(64)
        assert units(small) <= AUTO_INLINE_MAX_UNITS < units(large)
        for tasks in (small, large):
            inline = execute_programs(grid5000, tasks, config=config)
            assert not requested and not submitted  # workers=0: no pool
            auto = execute_programs(
                grid5000, tasks, config=config, workers=2, executor="auto"
            )
            assert _makespans(auto) == _makespans(inline)
            if tasks is small:
                assert not requested and not submitted
        assert requested == [2] and len(submitted) > 1

    def test_every_fan_out_prices_its_chunks(self, grid5000):
        """Monte-Carlo chunks carry iterations x clusters**2 units and
        measured-sweep chunks their summed message counts, so the remote
        lane routes a 6-cluster chunk as 4x a 3-cluster one."""

        class Settled:
            def __init__(self, value):
                self.value = value

            def get(self):
                return self.value

        class RecordingPool:
            kind = "remote"
            workers = 2

            def __init__(self):
                self.jobs = []

            def submit(self, fn, args, units=None, **kwargs):
                self.jobs.append((args, units))
                return Settled(fn(args))

        config = SimulationStudyConfig(cluster_counts=(3, 6), iterations=8, seed=5)
        recorder = RecordingPool()
        fanned = run_simulation_study(config, pool=recorder)
        assert np.array_equal(fanned.makespans, run_simulation_study(config).makespans)
        assert len(recorder.jobs) > 2
        for (_, _, _, clusters, seeds, *_), units in recorder.jobs:
            assert units == float(len(seeds) * clusters * clusters)

        tasks = [
            ExecutionTask(
                flat_scatter_program(grid5000, 1_024, root_rank=0),
                noise_seed=derive_seed(37, index),
            )
            for index in range(6)
        ]
        recorder = RecordingPool()
        execute_programs(grid5000, tasks, pool=recorder)
        priced = [
            (
                units,
                sum(
                    program_cost(task.program)
                    for task in tasks[start : start + len(metas)]
                ),
            )
            for (start, _, _, metas, *_), units in recorder.jobs
        ]
        assert len(priced) > 1
        assert all(units == float(expected) for units, expected in priced)

    @pytest.mark.parametrize(
        "entry",
        [
            "programs",
            "practical",
            "scatter",
            "alltoall",
            "chained",
            "simulation",
            "gossip",
            "environment",
            "cli",
        ],
    )
    def test_every_entry_point_rejects_the_deleted_lane(
        self, entry, grid5000, heterogeneous_grid, monkeypatch
    ):
        from repro.cli import main

        config = PracticalStudyConfig(message_sizes=(2_048,), noise_sigma=0.0)
        lane = DELETED_LANE
        calls = {
            "programs": lambda: execute_programs(
                grid5000,
                [binomial_bcast_program(grid5000, 1_024, root_rank=0)] * 2,
                executor=lane,
            ),
            "practical": lambda: run_practical_study(
                config, workers=0, executor=lane
            ),
            "scatter": lambda: run_scatter_study(
                config, grid=heterogeneous_grid, workers=0, executor=lane
            ),
            "alltoall": lambda: run_alltoall_study(
                config, grid=heterogeneous_grid, workers=0, executor=lane
            ),
            "chained": lambda: run_chained_study(
                config, grid=heterogeneous_grid, workers=0, executor=lane
            ),
            "simulation": lambda: run_simulation_study(
                SimulationStudyConfig(cluster_counts=(3,), iterations=2),
                workers=0,
                executor=lane,
            ),
            "gossip": lambda: run_gossip_study(
                GossipStudyConfig(node_counts=(64,)), workers=0, executor=lane
            ),
            "environment": lambda: (
                monkeypatch.setenv("REPRO_EXECUTOR", lane),
                run_practical_study(config, workers=0),
            ),
            "cli": lambda: main(["simulate", "--executor", lane]),
        }
        expected = SystemExit if entry == "cli" else ValueError
        with pytest.raises(expected):
            calls[entry]()

    def test_bad_executor_fails_before_the_prediction_sweep(self, monkeypatch):
        import repro.experiments.practical_study as practical_module

        def unreachable(*args, **kwargs):
            raise AssertionError("the prediction sweep ran")

        monkeypatch.setattr(practical_module, "_sweep_predictions", unreachable)
        monkeypatch.setenv("REPRO_EXECUTOR", "hamster-wheel")
        with pytest.raises(ValueError, match="executor"):
            run_practical_study(PracticalStudyConfig(message_sizes=(2_048,)))


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

    @pytest.mark.parametrize("executor", ["process"])
    def test_adaptive_matches_fixed(self, grid5000, executor, pool):
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

    def test_chained_study_worker_count_invariance(self, heterogeneous_grid, pool):
        config = PracticalStudyConfig(message_sizes=(2_048, 16_384), noise_sigma=0.05)
        kwargs = dict(grid=heterogeneous_grid, stages=("scatter", "alltoall"))
        two = run_chained_study(config, workers=2, pool=pool, **kwargs)
        five = run_chained_study(config, workers=5, pool=pool, **kwargs)
        assert np.array_equal(two.warm, five.warm)
        assert np.array_equal(two.fresh, five.fresh)


class TestAgentLocalise:
    """How an agent hands a job's wire shipments to its own process pool."""

    @needs_shm
    def test_wire_shipments_repack_into_shared_memory(self):
        arrays = {"dest": np.arange(6), "gap": np.linspace(0.0, 1.0, 6)}
        repacked = []
        args = _localise((3, wire.WireShipment(arrays), None), repacked)
        try:
            assert isinstance(args[1], ArrayShipment) and repacked == [args[1]]
            assert np.array_equal(args[1].load()["gap"], arrays["gap"])
            args[1].close()
        finally:
            for shipment in repacked:
                shipment.unlink()

    def test_without_shared_memory_wire_shipments_stay_as_they_are(
        self, monkeypatch
    ):
        monkeypatch.setattr(transport_module, "_shm_probe_result", False)
        shipment = wire.WireShipment({"dest": np.arange(6)})
        repacked = []
        args = _localise((3, shipment, None), repacked)
        assert args[1] is shipment and not repacked


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

    @needs_shm
    def test_shipments_cross_the_wire_as_arrays(self):
        arrays = {"stack": np.arange(24.0).reshape(2, 3, 4)}
        shipment = ArrayShipment.pack(arrays)
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

    def test_by_value_shipments_cross_the_wire_as_arrays(self):
        # The by-value path's own shipment: no shared memory involved, so
        # this runs on every platform.
        arrays = {
            "stack": np.arange(24.0).reshape(2, 3, 4) * np.pi,
            "dest": np.arange(7, dtype=np.int64),
            "empty": np.empty(0, dtype=np.float64),
        }
        decoded, _ = self._round_trip({"ship": wire.WireShipment(arrays)})
        crossed = decoded["ship"]
        assert isinstance(crossed, wire.WireShipment)
        loaded = crossed.load()
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert np.array_equal(loaded[name], array)
        crossed.close()
        with pytest.raises(RuntimeError, match="closed"):
            crossed.load()

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


@needs_shm
class TestShipmentCleanup:
    def test_close_and_unlink_are_idempotent(self):
        shipment = ArrayShipment.pack({"x": np.ones(8)})
        shipment.load()
        shipment.close()
        shipment.close()
        shipment.unlink()
        shipment.unlink()

    def test_sweep_unlinks_abandoned_segments(self):
        from multiprocessing import shared_memory

        shipment = ArrayShipment.pack({"x": np.ones(64)})
        name = shipment.shm_name
        shipment.close()  # mapping dropped, segment deliberately left behind
        sweep_shipments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # The shipment's own unlink afterwards is a harmless no-op.
        shipment.unlink()

    def test_sweep_skips_other_owners(self):
        shipment = ArrayShipment.pack({"x": np.ones(16)})
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
                grid5000, [program, program], pool=FailingPool()
            )
        assert segment_names and segment_names[0] is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_names[0])

    def test_late_chunk_failure_still_unlinks_the_batch_shipment(self, grid5000):
        """Earlier chunks completing does not stop the segment being
        unlinked when a later chunk fails."""
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
            execute_programs(grid5000, [program] * 4, pool=fake)
        assert fake.submitted > 1
        assert len(set(segment_names)) == 1  # one segment per batch
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_names[0])

    def test_failed_chunk_propagates_on_the_by_value_path(
        self, grid5000, monkeypatch
    ):
        monkeypatch.setattr(transport_module, "_shm_probe_result", False)
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
            execute_programs(grid5000, [program, program], pool=FailingPool())
        assert shipments and all(
            isinstance(item, wire.WireShipment) for item in shipments
        )

    def test_multi_worker_agent_reports_no_leaked_segments(self, tmp_path):
        """A ``--workers 2`` agent repacks each frame's arrays into shared
        memory for its pool and unlinks them when the job is done; stopped
        with SIGTERM after a remote practical sweep, its resource tracker
        must find nothing left to report."""
        import subprocess
        import sys

        env = dict(os.environ)
        source = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [source, *filter(None, [env.get("PYTHONPATH")])]
        )
        with open(tmp_path / "agent.err", "w+") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker", "serve",
                 "--bind", "127.0.0.1:0", "--workers", "2", "--exit-with-parent"],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
            try:
                announce = re.search(
                    r"listening on ([^\s:]+):(\d+)", process.stdout.readline()
                )
                host, port = announce.group(1), announce.group(2)
                config = PracticalStudyConfig(message_sizes=(0, 65_536, 1_048_576))
                pool = RemoteStudyPool(hosts=((host, int(port)),))
                try:
                    remote = run_practical_study(config, workers=2, pool=pool)
                finally:
                    pool.close()
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=60) == 0
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=15)
            stderr.seek(0)
            log = stderr.read()
        inline = run_practical_study(config, workers=0)
        assert np.array_equal(remote.measured_replicas, inline.measured_replicas)
        assert "leaked shared_memory" not in log, log


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

    def test_close_hangs_up_admitted_connections(self):
        """close() shuts every admitted connection down: the coordinator's
        link sees EOF and no connection thread stays blocked in recv."""
        server = AgentServer(host="127.0.0.1", port=0, workers=1)
        address = server.bind()
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        pool = RemoteStudyPool(hosts=(address,), heartbeat=0.0)

        def connection_threads():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name == AgentServer.thread_name and thread.is_alive()
            ]

        try:
            link = pool._agents[0]
            assert link.alive and connection_threads()
            server.close()
            deadline = time.monotonic() + 1.0
            while (link.alive or connection_threads()) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert not link.alive
            assert not connection_threads()
        finally:
            pool.close()
            server.close()
            serving.join(timeout=5)


class TestServeForeground:
    """The one foreground body behind ``worker serve`` and ``service
    serve``."""

    def test_announces_the_bound_address_and_returns_after_a_drain(
        self, capsys
    ):
        built: list[AgentServer] = []

        def make_server(host, port):
            built.append(AgentServer(host=host, port=port, workers=1))
            return built[-1]

        serving = threading.Thread(
            target=serve_foreground,
            args=("127.0.0.1:0", make_server, "test-server", "workers=1"),
            kwargs={"drain_timeout": 5.0},
            daemon=True,
        )
        serving.start()
        announced = ""
        deadline = time.monotonic() + 10
        while "\n" not in announced and time.monotonic() < deadline:
            announced += capsys.readouterr().out
            time.sleep(0.01)
        try:
            (server,) = built
            host, port = server.address
            assert announced == (
                f"test-server listening on {host}:{port} (workers=1)\n"
            )
            # The announced address serves: a pool connects and runs a job.
            pool = RemoteStudyPool(hosts=((host, port),), heartbeat=0.0)
            try:
                assert pool.submit(derive_seed, 3).get(timeout=60) == (
                    derive_seed(3)
                )
            finally:
                pool.close()
            server.begin_drain()
            serving.join(timeout=10)
            assert not serving.is_alive()
            assert server.draining
        finally:
            for server in built:
                server.close()
            serving.join(timeout=5)

    @pytest.mark.parametrize("bind", ["7301", ":7301", "127.0.0.1:"])
    def test_rejects_a_bind_without_host_and_port(self, bind):
        built = []
        with pytest.raises(ValueError, match="HOST:PORT"):
            serve_foreground(
                bind,
                lambda host, port: built.append((host, port)),
                "test-server",
                "",
                drain_timeout=1.0,
            )
        assert built == []


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
        pool = RemoteStudyPool(2)
        try:
            victim = pool._agents[0]
            victim.process.kill()  # dies with the first chunks in flight
            survived = run_practical_study(config, workers=2, pool=pool)
            assert np.array_equal(inline.measured, survived.measured)
            assert np.array_equal(
                inline.baseline_measured, survived.baseline_measured
            )
            assert not victim.alive and pool.alive
            assert pool.degraded_jobs == 0  # the survivor did the work
        finally:
            pool.close()


class TestMakespanReader:
    """``execute_makespans`` on every lane, and the measured sweeps'
    hand-off, which reads makespans without building results."""

    @pytest.fixture(scope="class")
    def tasks(self, grid5000):
        """Broadcasts, scatters and all-to-alls with two warm chains, enough
        tasks that every worker of every lane gets a chunk."""
        alltoall = grid_aware_alltoall_program(grid5000, 256)
        scatter = flat_scatter_program(grid5000, 4_096, root_rank=0)
        bcast = binomial_bcast_program(grid5000, 65_536, root_rank=0)
        tasks = []
        for index in range(4):
            tasks.append(
                ExecutionTask(
                    (bcast, scatter)[index % 2], noise_seed=derive_seed(43, index)
                )
            )
            tasks.append(ExecutionTask(alltoall, reset_network=index % 2 == 0))
        return tasks

    @pytest.mark.parametrize("lane", ["shm", "by-value", "remote"])
    def test_every_lane_returns_the_results_makespans(
        self, grid5000, tasks, lane, request, monkeypatch
    ):
        if lane == "shm" and not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        if lane == "by-value":
            monkeypatch.setattr(transport_module, "_shm_probe_result", False)
        options = (
            dict(pool=request.getfixturevalue("remote_pool"))
            if lane == "remote"
            else dict(executor="process")
        )
        config = NetworkConfig(noise_sigma=0.08, seed=43)
        reference = execute_programs(grid5000, tasks, config=config, workers=0)
        makespans = execute_makespans(
            grid5000, tasks, config=config, workers=2, **options
        )
        assert isinstance(makespans, np.ndarray)
        assert makespans.tobytes() == np.array(_makespans(reference)).tobytes()

    def test_measured_sweeps_build_no_execution_result(
        self, heterogeneous_grid, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a measured sweep built an ExecutionResult")

        config = PracticalStudyConfig(
            message_sizes=(0, 65_536), noise_sigma=0.05, heuristics=("ecef", "fef")
        )
        options = dict(grid=heterogeneous_grid, workers=0)

        def sweeps():
            return (
                run_practical_study(config, replicas=2, **options),
                run_scatter_study(config, **options),
                run_alltoall_study(config, **options),
                run_chained_study(config, **options),
            )

        expected = sweeps()
        monkeypatch.setattr(ExecutionResult, "__init__", refuse)
        measured = sweeps()
        for name in ("measured_replicas", "baseline_replicas"):
            assert np.array_equal(getattr(measured[0], name), getattr(expected[0], name))
        assert np.array_equal(measured[1].measured, expected[1].measured)
        assert np.array_equal(measured[2].measured, expected[2].measured)
        assert np.array_equal(measured[3].warm, expected[3].warm)
        assert np.array_equal(measured[3].fresh, expected[3].fresh)
        # The spy is live: the results path still trips it.
        program = binomial_bcast_program(heterogeneous_grid, 1_024, root_rank=0)
        with pytest.raises(AssertionError, match="ExecutionResult"):
            execute_programs(heterogeneous_grid, [program], workers=0)


@contextmanager
def _silent_fleet(agents):
    """A pool over ``agents`` in-thread one-worker agents whose every frame
    is dropped on send: each job stays exactly where dispatch put it, so
    the tests below read the queue and the links' ``inflight`` directly and
    deliver results by hand.  No heartbeats and no frame deadlines."""
    servers = [AgentServer(workers=1) for _ in range(agents)]
    addresses = [server.bind() for server in servers]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    plan = FaultPlan(agents={"*": {"drop_rate": 1.0}})
    pool = RemoteStudyPool(hosts=addresses, faults=plan, heartbeat=0.0)
    try:
        yield pool
    finally:
        pool.close()
        for server in servers:
            server.close()


class TestPullDispatch:
    """One coordinator-side FIFO; each agent link pulls from it while it
    has fewer than ``capacity`` frames in flight."""

    CAPACITY = PREFETCH_PER_WORKER  # one-worker agents

    @staticmethod
    def _result(job_id):
        return {"job": job_id, "result": derive_seed(job_id)}

    def test_links_fill_to_capacity_in_submission_order(self):
        cap = self.CAPACITY
        with _silent_fleet(2) as pool:
            handles = [pool.submit(derive_seed, i) for i in range(2 * cap + 3)]
            first, second = pool._agents
            with pool._lock:
                assert first.capacity == second.capacity == cap
                assert list(first.inflight) == list(range(1, cap + 1))
                assert list(second.inflight) == list(
                    range(cap + 1, 2 * cap + 1)
                )
                assert [job.job_id for job in pool._queue] == list(
                    range(2 * cap + 1, 2 * cap + 4)
                )
                assert sorted(pool._jobs) == [h.job_id for h in handles]

    def test_each_delivered_result_pulls_the_next_queued_job(self):
        cap = self.CAPACITY
        with _silent_fleet(2) as pool:
            handles = [pool.submit(derive_seed, i) for i in range(2 * cap + 3)]
            first, _ = pool._agents
            pool._deliver(first, self._result(1))
            assert handles[0].get(timeout=5) == derive_seed(1)
            with pool._lock:
                assert first.completed == 1
                assert list(first.inflight) == [*range(2, cap + 1), 2 * cap + 1]
                assert [job.job_id for job in pool._queue] == [
                    2 * cap + 2,
                    2 * cap + 3,
                ]
            pool._deliver(first, self._result(1))
            with pool._lock:
                assert pool.duplicates_ignored == 1
                assert first.completed == 1

    def test_a_requeued_job_skips_the_agent_it_came_off(self):
        """A job taken off an agent waits at the queue head for another
        alive agent; later jobs pass it on the way to the agent it left."""
        cap = self.CAPACITY
        with _silent_fleet(2) as pool:
            for i in range(2 * cap):
                pool.submit(derive_seed, i)
            first, second = pool._agents
            with pool._lock:
                job = first.inflight.pop(1)
            assert pool._reroute(first, [job]) == 1
            with pool._lock:
                assert list(pool._queue) == [job] and job.avoid is first
                assert 1 not in first.inflight
            later = pool.submit(derive_seed, 2 * cap).job_id
            with pool._lock:
                assert later in first.inflight
                assert list(pool._queue) == [job]
            pool._deliver(second, self._result(cap + 1))
            with pool._lock:
                assert 1 in second.inflight and job.avoid is None
                assert not pool._queue

    def test_a_late_result_takes_its_queued_twin_out_of_the_queue(self):
        cap = self.CAPACITY
        with _silent_fleet(2) as pool:
            handles = [pool.submit(derive_seed, i) for i in range(2 * cap)]
            first, second = pool._agents
            with pool._lock:
                job = first.inflight.pop(1)
            pool._reroute(first, [job])
            pool._deliver(first, self._result(1))
            assert handles[0].get(timeout=5) == derive_seed(1)
            with pool._lock:
                assert not pool._queue
                assert all(1 not in link.inflight for link in pool._agents)
                assert pool.duplicates_ignored == 0
            # A free slot on the other agent finds nothing left to pull.
            pool._deliver(second, self._result(cap + 1))
            with pool._lock:
                assert 1 not in second.inflight
                assert pool.duplicates_ignored == 0

    def test_a_busy_backoff_holds_the_link_until_it_runs_out(self):
        """On the only agent a BUSY job goes back to the queue head; pumping
        skips the link while it backs off, and the monitor re-pumps the
        head first once the backoff has run out."""
        cap = self.CAPACITY
        with _silent_fleet(1) as pool:
            for i in range(cap + 1):
                pool.submit(derive_seed, i)
            (link,) = pool._agents
            pool._job_rejected(link, 1)
            with pool._lock:
                assert pool.busy_rejects == 1
                assert [job.job_id for job in pool._queue] == [1, cap + 1]
                assert link.busy_until > time.monotonic()
                link.busy_until = time.monotonic() + 600
            pool._pump(link)
            with pool._lock:
                assert 1 not in link.inflight
                link.busy_until = 0.0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with pool._lock:
                    if 1 in link.inflight:
                        break
                time.sleep(0.02)
            with pool._lock:
                assert 1 in link.inflight
                assert [job.job_id for job in pool._queue] == [cap + 1]
                assert pool.degraded_jobs == 0

    def test_backoff_doubles_up_to_its_cap_with_bounded_jitter(self):
        def draws(seed):
            link = SimpleNamespace(jitter=random.Random(seed))
            return [_AgentLink.backoff(link, 0.1, 1.0, step) for step in range(7)]

        values = draws(7)
        for step, value in enumerate(values):
            nominal = min(1.0, 0.1 * 2**step)
            assert 0.5 * nominal <= value < 1.5 * nominal
        assert draws(7) == values
        assert draws(8) != values


class TestElasticRemoteLane:
    """Pull dispatch, heartbeats and membership — none of which may ever
    change results."""

    COLLECTIVE = dict(message_sizes=(2_048, 16_384), noise_sigma=0.05)

    @staticmethod
    def _terminate(process) -> None:
        process.terminate()
        process.wait(timeout=15)

    def test_pull_dispatch_favours_the_fast_agent_of_a_skewed_fleet(self):
        """Next to a 30x-slower agent, the fast agent frees its slots more
        often and so pulls more of the queue; results stay correct."""
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
        finally:
            pool.close()
            self._terminate(fast_proc)
            self._terminate(slow_proc)

    def test_mid_study_joiner_pulls_queued_work(self, heterogeneous_grid):
        """An agent joined via add_host while jobs are queued immediately
        pulls some of them — and two drivers stay bit-identical on the
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

    def test_dead_links_receiver_exits_while_the_agent_is_frozen(self):
        """A heartbeat-declared death hangs the link's socket up, so its
        receiver thread exits at once instead of staying blocked in recv
        until the frozen agent wakes."""
        pool = RemoteStudyPool(2, heartbeat=0.1)
        victim = pool._agents[0]
        receiver = victim._receiver
        try:
            os.kill(victim.process.pid, signal.SIGSTOP)
            deadline = time.monotonic() + 30
            while victim.alive and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not victim.alive
            receiver.join(timeout=1.0)
            assert not receiver.is_alive()
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
        pool = RemoteStudyPool(2, faults=plan)
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
            assert pool.degraded_jobs == 0  # the survivor did the work
        finally:
            pool.close()

    def test_frame_deadline_reroutes_dropped_frames(self):
        """Every frame to agent #0 vanishes (heartbeats off, so deadlines
        are the only detector): expired frames re-route to the survivor and
        every job still settles correctly."""
        plan = FaultPlan(seed=5, agents={"#0": {"drop_rate": 1.0}})
        pool = RemoteStudyPool(2, faults=plan, heartbeat=0.0, frame_timeout=0.2)
        try:
            handles = [
                pool.submit(derive_seed, index, units=0.01) for index in range(12)
            ]
            assert [handle.get(timeout=120) for handle in handles] == [
                derive_seed(index) for index in range(12)
            ]
            assert pool.deadline_expired >= 1
            assert pool.degraded_jobs == 0
        finally:
            pool.close()

    def test_admission_rejects_back_off_and_recover(self):
        """Agents with a one-frame queue bound bounce the prefetch overflow
        BUSY; the coordinator backs off, retries, and loses nothing."""
        agents = [_spawn_loopback_agent(1, queue_bound=1) for _ in range(2)]
        pool = RemoteStudyPool(hosts=[address for _, address in agents])
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
        pool = RemoteStudyPool(2, faults=plan, heartbeat=0.1)
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
            assert pool.degraded_jobs == 0
        finally:
            pool.close()

    def test_backoff_jitter_leaves_the_global_random_state_alone(self):
        """Connection, probe and monitor threads draw their backoff jitter
        from per-link generators, so a whole lose-probe-readmit cycle leaves
        the process-wide ``random`` state (which Hypothesis checks around
        its draws) untouched."""
        state = random.getstate()
        plan = FaultPlan(
            seed=13,
            agents={"#1": {"hang_after_results": 1, "hang_seconds": 0.5}},
        )
        pool = RemoteStudyPool(2, faults=plan, heartbeat=0.1)
        try:
            handles = [
                pool.submit(_diagnostic_sleep, (0.02, index), units=1.0)
                for index in range(12)
            ]
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(12)
            )
            deadline = time.monotonic() + 30
            while pool.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.reconnects >= 1
        finally:
            pool.close()
        assert random.getstate() == state

    def test_reconnect_revives_the_same_link(self):
        """A re-admitted agent comes back on its own link: one link per
        address, with the loopback process still owned by it."""
        plan = FaultPlan(
            seed=13,
            agents={"#1": {"hang_after_results": 1, "hang_seconds": 0.5}},
        )
        pool = RemoteStudyPool(2, faults=plan, heartbeat=0.1)
        try:
            victim = pool._agents[1]
            process = victim.process
            handles = [
                pool.submit(_diagnostic_sleep, (0.02, index), units=1.0)
                for index in range(12)
            ]
            assert [handle.get(timeout=120) for handle in handles] == list(
                range(12)
            )
            deadline = time.monotonic() + 30
            while pool.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.reconnects >= 1
            assert len(pool._agents) == 2
            assert len({link.name for link in pool._agents}) == 2
            assert victim.alive and victim.process is process
            more = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in more] == [
                derive_seed(index) for index in range(8)
            ]
        finally:
            pool.close()

    def test_reroute_moves_to_a_peer_else_applies_the_trigger_policy(self):
        """Deadline expiry, BUSY and agent loss share one re-route path.
        With a peer alive the frame moves there (a deadline expiry is
        counted); on the only alive agent an expired deadline re-arms,
        uncounted, and a BUSY frame waits in the queue until that agent's
        backoff runs out."""
        servers = [AgentServer(workers=1), AgentServer(workers=1)]
        addresses = [server.bind() for server in servers]
        for server in servers:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        # Every frame vanishes, so a job stays wherever the coordinator
        # put it; no heartbeats, and deadlines only when the test asks.
        plan = FaultPlan(agents={"*": {"drop_rate": 1.0}})
        pool = RemoteStudyPool(
            hosts=addresses, faults=plan, heartbeat=0.0, frame_timeout=60.0
        )
        try:
            job_id = pool.submit(derive_seed, 1).job_id
            with pool._lock:
                (first,) = [
                    link for link in pool._agents if job_id in link.inflight
                ]
                (second,) = [link for link in pool._agents if link is not first]
            pool._expire_overdue(time.monotonic() + 600)
            with pool._lock:
                assert job_id in second.inflight
                assert job_id not in first.inflight
                assert pool.deadline_expired == 1
            pool._job_rejected(second, job_id)
            with pool._lock:
                assert job_id in first.inflight
                assert job_id not in second.inflight
                assert pool.busy_rejects == 1
            # Lose `first` for good: its frame moves to `second`, which
            # the monitor pumps once the BUSY backoff runs out.
            servers[addresses.index((first.host, first.port))].close()
            pool._agent_lost(first)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with pool._lock:
                    if job_id in second.inflight:
                        break
                time.sleep(0.02)
            with pool._lock:
                assert job_id in second.inflight
            far = time.monotonic() + 600
            pool._expire_overdue(far)
            with pool._lock:
                job = second.inflight[job_id]
                assert job.deadline is not None and job.deadline > far
                assert pool.deadline_expired == 1  # re-armed, not counted
            pool._job_rejected(second, job_id)
            with pool._lock:
                assert job_id in second.inflight or job in pool._queue
                assert pool.busy_rejects == 2
                assert pool.degraded_jobs == 0
        finally:
            pool.close()
            for server in servers:
                server.close()

    def test_corrupted_streams_reconnect_and_finish(self):
        """Agent #0 refuses its first connect, then every frame to it is
        sent with a mangled header — the agent drops the stream each time;
        the coordinator requeues elsewhere, re-probes, and finishes."""
        plan = FaultPlan(
            seed=3,
            agents={"#0": {"refuse_connects": 1, "corrupt_rate": 1.0}},
        )
        pool = RemoteStudyPool(2, faults=plan)
        try:
            handles = [pool.submit(derive_seed, index) for index in range(12)]
            assert [handle.get(timeout=120) for handle in handles] == [
                derive_seed(index) for index in range(12)
            ]
            deadline = time.monotonic() + 30
            while pool.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.reconnects >= 1
            assert pool.degraded_jobs == 0
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
        pool = RemoteStudyPool(2, faults=plan)
        try:
            degraded = run_simulation_study(config, workers=2, pool=pool)
            assert np.array_equal(inline.makespans, degraded.makespans)
            handles = [pool.submit(derive_seed, index) for index in range(8)]
            assert [handle.get(timeout=60) for handle in handles] == [
                derive_seed(index) for index in range(8)
            ]
            assert not any(link.alive for link in pool._agents)
            assert pool.degraded_jobs >= 1
            assert pool.alive  # a dead fleet still serves, locally
        finally:
            pool.close()

    def test_late_results_after_deadline_count_as_duplicates(self):
        """A deadline expiry re-dispatches a frame that the original agent
        is still executing; the late original (or the twin) is discarded
        through the duplicate path and the job settles exactly once."""
        pool = RemoteStudyPool(2, frame_timeout=0.2)
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
            assert pool.degraded_jobs == 0
        finally:
            pool.close()

    def test_sigterm_drains_in_flight_frames_gracefully(self):
        """SIGTERM mid-frame: the agent finishes the frame, flushes the
        result, refuses new work, and exits 0 — nothing is lost, nothing
        needs re-dispatch."""
        process, address = _spawn_loopback_agent(1)
        pool = RemoteStudyPool(hosts=(address,))
        try:
            handle = pool.submit(_diagnostic_sleep, (0.8, "drained"), units=1.0)
            time.sleep(0.25)  # let the frame reach the agent and start
            process.send_signal(signal.SIGTERM)
            assert handle.get(timeout=60) == "drained"
            assert process.wait(timeout=60) == 0
            assert pool.degraded_jobs == 0
        finally:
            pool.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)
