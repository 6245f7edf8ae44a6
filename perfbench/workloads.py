"""The benchmark's four workloads.

Every workload derives a small fixed set of inputs from the workload seed and
cycles through them, so each run with one seed sees the same inputs.  All load
runs on the inline path: one process, ``workers=0``, and at most one client
connection to the one child process the service workload starts.

A workload offers an op in two forms.  :meth:`Workload.op` calls the public
driver itself; the end-to-end metrics time it.  :meth:`Workload.traced_op`
replays the driver's public calls in the driver's order with a span around
each one, for the per-layer metrics; its outputs must be bit-identical to the
driver's.  Every op's output is checked against the repository's reference
path (:meth:`Workload.reference`), computed once per distinct input after the
timed loop, so no golden values are stored.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import OrderedDict

import numpy as np

from repro.core.batch import BatchedGridCosts, batched_makespans, has_batched_kernel
from repro.core.costs import GridCostCache
from repro.core.registry import PAPER_HEURISTICS, get_heuristic, instantiate
from repro.experiments.config import PracticalStudyConfig, SimulationStudyConfig
from repro.experiments.practical_study import (
    BINOMIAL_BASELINE_NAME,
    run_practical_study,
)
from repro.experiments.simulation_study import MAX_BATCH_ELEMENTS, run_simulation_study
from repro.gossip import GossipSpec, run_gossip
from repro.mpi.bcast import binomial_bcast_program, grid_aware_bcast_program
from repro.runtime.service import (
    ScheduleClient,
    ServiceError,
    build_topology,
    topology_key,
)
from repro.simulator.batch import ExecutionTask, execute_programs
from repro.simulator.network import NetworkConfig
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream, derive_seed

from spans import Tracer

#: Every per-layer metric a traced run reports, with its unit.  Times are self
#: time per op in ms; counts are per op, except the service's hit and miss
#: counts, which are per period of its query stream.  A workload reports 0 for
#: a layer it never calls.
LAYER_METRICS: dict[str, str] = {
    "traced_ops_per_s": "1/s",
    "op_fail_ratio": "1",
    "topology.grid5000_ms": "ms",
    "core.costs_ms": "ms",
    "core.schedule_ms": "ms",
    "mpi.program_ms": "ms",
    "mpi.sends": "count",
    "simulator.execute_ms": "ms",
    "simulator.programs": "count",
    "table3_sweep.other_ms": "ms",
    "topology.generate_ms": "ms",
    "topology.grids": "count",
    "core.batch.stack_ms": "ms",
    "core.batch.kernel_ms": "ms",
    "core.batch.schedules": "count",
    "core.fallback_ms": "ms",
    "core.fallback.schedules": "count",
    "core.batch.share": "1",
    "montecarlo_fig2.other_ms": "ms",
    "gossip.run_ms": "ms",
    "gossip.rounds": "count",
    "gossip.messages": "count",
    "gossip.draw_use": "1",
    "service.hit_ms": "ms",
    "service.miss_ms": "ms",
    "topology.build_ms": "ms",
    "service.miss_overhead_ms": "ms",
    "service.hits": "count",
    "service.misses": "count",
    "service.topologies": "count",
    "service.hit_ratio": "1",
}

#: Distinct inputs per study workload.  One Monte-Carlo input can cost 25%
#: more than another, so with three inputs the op median moved 8% between
#: seeds; eight average that out while the scalar gossip reference (about
#: 0.9 s per input) stays cheap.
STUDY_INPUTS = 8


def array_digest(*arrays: np.ndarray) -> str:
    """sha256 over the dtype, shape and bytes of each array."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def schedule_digest(schedule) -> str:
    """sha256 over every field of a :class:`BroadcastSchedule`."""
    fields = (
        str(schedule.heuristic_name),
        int(schedule.root),
        int(schedule.num_clusters),
        float(schedule.message_size),
        [
            (
                int(t.sender),
                int(t.receiver),
                float(t.start_time),
                float(t.sender_release_time),
                float(t.arrival_time),
                float(t.gap),
                float(t.latency),
            )
            for t in schedule.transfers
        ],
        [float(value) for value in schedule.arrival_times],
        [float(value) for value in schedule.local_start_times],
        [float(value) for value in schedule.completion_times],
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _per_op_ms(seconds: dict[str, float], name: str, ops: int) -> float:
    return seconds.get(name, 0.0) * 1e3 / ops


class Workload:
    """One workload: inputs from a seed, an op, its traced replay, references."""

    name = ""
    #: Ops in one whole pass over the inputs.  A traced run stops on a pass
    #: boundary, so its per-op counts repeat exactly from run to run.
    cycle = 1

    def __init__(self) -> None:
        #: Output digest per input key from the driver's own ops.
        self.driver_digests: dict[object, str] = {}

    def setup(self, traced: bool) -> list[tuple[object, str]]:
        """Warm up; returns ``(input key, output digest)`` of each warm-up op."""
        raise NotImplementedError

    def op(self, k: int) -> tuple[object, object]:
        """Op number ``k`` through the public driver: ``(input key, output)``."""
        raise NotImplementedError

    def traced_op(self, k: int, tracer: Tracer) -> tuple[object, object]:
        """Op number ``k`` replayed call by call under spans."""
        raise NotImplementedError

    def digest(self, key: object, output: object) -> str:
        """A digest of one op's output for input ``key``."""
        raise NotImplementedError

    def reference(self, key: object) -> str:
        """Output digest of the reference path for one input key."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        raise NotImplementedError

    def child_pids(self) -> list[int]:
        return []

    def close(self) -> list[str]:
        """Release what :meth:`setup` started; returns the problems found."""
        return []


class _Study(Workload):
    """A study driver called once per op on one of a few seeded inputs."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.inputs = [
            self.make_input(rng.randrange(1, 2**31)) for _ in range(STUDY_INPUTS)
        ]
        self.cycle = len(self.inputs)

    def make_input(self, seed: int):
        raise NotImplementedError

    def run(self, item) -> object:
        raise NotImplementedError

    def setup(self, traced: bool) -> list[tuple[object, str]]:
        # A traced run needs the driver's own output for every input, to
        # assert the replay is bit-identical; an untraced run warms up on one.
        outputs = []
        for k in range(self.cycle if traced else 1):
            key, output = self.op(k)
            self.driver_digests[key] = self.digest(key, output)
            outputs.append((key, self.driver_digests[key]))
        return outputs

    def op(self, k: int) -> tuple[object, object]:
        key = k % self.cycle
        return key, self.run(self.inputs[key])


class Table3Sweep(_Study):
    """The Table 3 practical sweep: 7 heuristics + binomial x 10 sizes."""

    name = "table3_sweep"

    def make_input(self, seed: int) -> PracticalStudyConfig:
        return PracticalStudyConfig(seed=seed)

    def run(self, config: PracticalStudyConfig):
        result = run_practical_study(config, workers=0)
        return result.predicted, result.measured_replicas, result.baseline_replicas

    def digest(self, key, output) -> str:
        return array_digest(*output)

    def reference(self, key) -> str:
        result = run_practical_study(self.inputs[key], workers=0, engine="scalar")
        return array_digest(
            result.predicted, result.measured_replicas, result.baseline_replicas
        )

    def traced_op(self, k: int, tracer: Tracer):
        key = k % self.cycle
        config = self.inputs[key]
        with tracer.span("topology.grid5000"):
            grid = build_grid5000_topology()
        heuristics = instantiate(config.heuristics)
        sizes = list(config.message_sizes)
        predicted = np.empty((len(sizes), len(heuristics)), dtype=float)
        tasks: list[ExecutionTask] = []
        slots: list[tuple[int, int | None]] = []
        for size_index, size in enumerate(sizes):
            with tracer.span("core.costs"):
                costs = GridCostCache.for_grid(grid, size)
            programs = []
            for heuristic_index, heuristic in enumerate(heuristics):
                with tracer.span("core.schedule"):
                    schedule = heuristic.schedule(
                        grid, size, root=config.root_cluster, costs=costs
                    )
                predicted[size_index, heuristic_index] = schedule.makespan
                with tracer.span("mpi.program"):
                    program = grid_aware_bcast_program(
                        grid, schedule, size, local_tree=config.local_tree
                    )
                programs.append((heuristic.name, program, heuristic_index))
            with tracer.span("mpi.program"):
                program = binomial_bcast_program(
                    grid, size, root_rank=grid.coordinator_rank(config.root_cluster)
                )
            programs.append((BINOMIAL_BASELINE_NAME, program, None))
            for label, program, heuristic_index in programs:
                tracer.count("mpi.sends", program.total_messages())
                tasks.append(
                    ExecutionTask(program, noise_seed=derive_seed(config.seed, label, size))
                )
                slots.append((size_index, heuristic_index))
        with tracer.span("simulator.execute"):
            executions = execute_programs(
                grid,
                tasks,
                config=NetworkConfig(noise_sigma=config.noise_sigma, seed=config.seed),
                collect_traces=False,
                workers=0,
            )
        tracer.count("simulator.programs", len(tasks))
        measured = np.empty((1, len(sizes), len(heuristics)), dtype=float)
        baseline = np.empty((1, len(sizes)), dtype=float)
        for (size_index, heuristic_index), execution in zip(slots, executions):
            if heuristic_index is None:
                baseline[0, size_index] = execution.makespan
            else:
                measured[0, size_index, heuristic_index] = execution.makespan
        return key, (predicted, measured, baseline)

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        seconds = tracer.self_seconds()
        return {
            "topology.grid5000_ms": _per_op_ms(seconds, "topology.grid5000", ops),
            "core.costs_ms": _per_op_ms(seconds, "core.costs", ops),
            "core.schedule_ms": _per_op_ms(seconds, "core.schedule", ops),
            "mpi.program_ms": _per_op_ms(seconds, "mpi.program", ops),
            "mpi.sends": tracer.counts["mpi.sends"] / ops,
            "simulator.execute_ms": _per_op_ms(seconds, "simulator.execute", ops),
            "simulator.programs": tracer.counts["simulator.programs"] / ops,
            "table3_sweep.other_ms": _per_op_ms(seconds, "op", ops),
        }


class MonteCarloFig2(_Study):
    """The Monte-Carlo study at three Figure 2 cluster counts, 3 grids each.

    Three grids per stack keep the batched kernel doing stacked work while an
    op stays near 0.1 s on a 2-core box (eight took ~0.24 s, too few ops per
    run for a steady p90 tail).  Every op has the same three counts, so the
    median cannot jump between cluster-count modes.
    """

    name = "montecarlo_fig2"

    def make_input(self, seed: int) -> SimulationStudyConfig:
        return SimulationStudyConfig(cluster_counts=(10, 30, 50), iterations=3, seed=seed)

    def run(self, config: SimulationStudyConfig) -> np.ndarray:
        return run_simulation_study(config, workers=0).makespans

    def digest(self, key, output) -> str:
        return array_digest(output)

    def reference(self, key) -> str:
        """Per-grid ``heuristic.makespan`` on the driver's seed stream."""
        config = self.inputs[key]
        parent = RandomStream(seed=config.seed)
        generator = RandomGridGenerator(config.ranges)
        heuristics = instantiate(config.heuristics)
        makespans = np.empty(
            (len(config.cluster_counts), len(heuristics), config.iterations)
        )
        for count_index, num_clusters in enumerate(config.cluster_counts):
            grids = [
                generator.generate(num_clusters, RandomStream(seed=parent.spawn_seed()))
                for _ in range(config.iterations)
            ]
            for heuristic_index, heuristic in enumerate(heuristics):
                makespans[count_index, heuristic_index] = [
                    heuristic.makespan(grid, config.message_size, root=config.root_cluster)
                    for grid in grids
                ]
        return array_digest(makespans)

    def traced_op(self, k: int, tracer: Tracer):
        key = k % self.cycle
        config = self.inputs[key]
        heuristic_keys = tuple(config.heuristics)
        parent = RandomStream(seed=config.seed)
        makespans = np.empty(
            (len(config.cluster_counts), len(heuristic_keys), config.iterations)
        )
        for count_index, num_clusters in enumerate(config.cluster_counts):
            seeds = [parent.spawn_seed() for _ in range(config.iterations)]
            chunk = max(1, MAX_BATCH_ELEMENTS // (num_clusters * num_clusters))
            for start in range(0, config.iterations, chunk):
                heuristics = instantiate(heuristic_keys)
                generator = RandomGridGenerator(config.ranges)
                with tracer.span("topology.generate"):
                    grids = [
                        generator.generate(num_clusters, RandomStream(seed=seed))
                        for seed in seeds[start : start + chunk]
                    ]
                tracer.count("topology.grids", len(grids))
                with tracer.span("core.costs"):
                    caches = [
                        GridCostCache.for_grid(grid, config.message_size) for grid in grids
                    ]
                batched = None
                for heuristic_index, heuristic in enumerate(heuristics):
                    if has_batched_kernel(heuristic, num_clusters):
                        if batched is None:
                            with tracer.span("core.batch.stack"):
                                batched = BatchedGridCosts(caches)
                        with tracer.span("core.batch.kernel"):
                            values = batched_makespans(
                                heuristic, batched, root=config.root_cluster
                            )
                        tracer.count("core.batch.schedules", len(grids))
                    else:
                        with tracer.span("core.fallback"):
                            values = [
                                heuristic.makespan(
                                    grid,
                                    config.message_size,
                                    root=config.root_cluster,
                                    costs=cache,
                                )
                                for grid, cache in zip(grids, caches)
                            ]
                        tracer.count("core.fallback.schedules", len(grids))
                    makespans[count_index, heuristic_index, start : start + len(grids)] = values
        return key, makespans

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        seconds = tracer.self_seconds()
        batched = tracer.counts["core.batch.schedules"]
        fallback = tracer.counts["core.fallback.schedules"]
        return {
            "topology.generate_ms": _per_op_ms(seconds, "topology.generate", ops),
            "topology.grids": tracer.counts["topology.grids"] / ops,
            "core.costs_ms": _per_op_ms(seconds, "core.costs", ops),
            "core.batch.stack_ms": _per_op_ms(seconds, "core.batch.stack", ops),
            "core.batch.kernel_ms": _per_op_ms(seconds, "core.batch.kernel", ops),
            "core.batch.schedules": batched / ops,
            "core.fallback_ms": _per_op_ms(seconds, "core.fallback", ops),
            "core.fallback.schedules": fallback / ops,
            "core.batch.share": batched / max(1, batched + fallback),
            "montecarlo_fig2.other_ms": _per_op_ms(seconds, "op", ops),
        }


class GossipPush100k(_Study):
    """One fanout-4 push gossip broadcast over 10^5 nodes."""

    name = "gossip_push_100k"

    def make_input(self, seed: int) -> GossipSpec:
        return GossipSpec("push", 100_000, fanout=4, seed=seed)

    def run(self, spec: GossipSpec):
        return run_gossip(spec)

    def digest(self, key, output) -> str:
        return array_digest(
            np.asarray(output.informed_round, dtype=np.int64),
            np.asarray(output.messages_per_round, dtype=np.int64),
            np.asarray([output.rounds_executed], dtype=np.int64),
        )

    def reference(self, key) -> str:
        return self.digest(key, run_gossip(self.inputs[key], engine="scalar"))

    def traced_op(self, k: int, tracer: Tracer):
        key = k % self.cycle
        with tracer.span("gossip.run"):
            result = run_gossip(self.inputs[key])
        tracer.count("gossip.rounds", result.rounds_executed)
        tracer.count("gossip.messages", result.total_messages)
        return key, result

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        spec = self.inputs[0]
        rounds = tracer.counts["gossip.rounds"]
        messages = tracer.counts["gossip.messages"]
        return {
            "gossip.run_ms": _per_op_ms(tracer.self_seconds(), "gossip.run", ops),
            "gossip.rounds": rounds / ops,
            "gossip.messages": messages / ops,
            "gossip.draw_use": messages / (rounds * spec.num_nodes * spec.fanout),
        }


class ServiceMix(Workload):
    """A closed loop of one client against ``repro-bcast service serve``.

    The query stream is one period of about PERIOD Zipf-skewed queries over a
    key universe of Grid'5000 plus random 16-48-cluster topologies x paper
    heuristics x sizes x roots, repeated.  The universe is larger than the
    daemon's cache, so hits, misses (about 24%) and LRU evictions all happen;
    an LRU cache sees the same hits and misses in every period after the
    first, which the warm-up runs.
    """

    name = "service_mix"
    CACHE_SIZE = 128
    PERIOD = 1500
    RANDOM_TOPOLOGIES = 23
    ZIPF_EXPONENT = 1.1
    SIZES = (65_536, 1_048_576, 4_194_304)
    ROOTS = (0, 1)
    STOP_TIMEOUT_S = 10.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        # Cluster counts spread evenly over 16-48 and ranks dealt round-robin
        # over the topologies, so every seed's hot set mixes small and large
        # payloads alike; the seed picks the grids and each topology's order
        # of (size, heuristic, root) combinations.
        last = self.RANDOM_TOPOLOGIES - 1
        topologies = [{"kind": "grid5000"}] + [
            {"kind": "random", "clusters": 16 + (32 * index) // last, "seed": rng.randrange(1, 2**31)}
            for index in range(self.RANDOM_TOPOLOGIES)
        ]
        combos = [
            (size, heuristic, root)
            for heuristic in PAPER_HEURISTICS
            for size in self.SIZES
            for root in self.ROOTS
        ]
        per_topology = [rng.sample(combos, len(combos)) for _ in topologies]
        order = rng.sample(range(len(topologies)), len(topologies))
        self.universe = [
            (topologies[t], *per_topology[t][j]) for j in range(len(combos)) for t in order
        ]
        # Each key is queried its Zipf share of PERIOD times, rounded, in a
        # seeded order: every seed sees the same popularity histogram, so the
        # miss share moves only with the order (a random draw of the stream
        # moved it by +-9% between seeds, and ops_per_s with it).
        weights = [1.0 / rank**self.ZIPF_EXPONENT for rank in range(1, len(self.universe) + 1)]
        per_weight = self.PERIOD / sum(weights)
        self.stream = [
            key for key, weight in enumerate(weights) for _ in range(round(weight * per_weight))
        ]
        rng.shuffle(self.stream)
        self.cycle = len(self.stream)
        self.daemon: subprocess.Popen | None = None
        self.client: ScheduleClient | None = None
        self.sent = {"served": 0, "hits": 0, "misses": 0}
        self.daemon_stats: dict[str, int] = {}
        self._twin_grids: OrderedDict[str, object] = OrderedDict()
        self._reference_grids: dict[str, object] = {}
        self._first_replies: dict[int, tuple[str, object]] = {}
        self._reset_samples()

    def _reset_samples(self) -> None:
        self.hit_latencies: list[float] = []
        self.miss_latencies: list[float] = []
        self.miss_overheads: list[float] = []

    def setup(self, traced: bool) -> list[tuple[object, str]]:
        self.daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "service", "serve",
                "--bind", "127.0.0.1:0", "--cache-size", str(self.CACHE_SIZE),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            env=os.environ.copy(),
        )
        line = self.daemon.stdout.readline()
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"service daemon did not announce its address: {line!r}")
        self.client = ScheduleClient((match.group(1), int(match.group(2))), timeout=60)
        self.client.connect()
        # One whole period fills the cache and reaches the LRU steady state.
        # A traced run warms up through the traced op too, so its inline twin
        # holds the same topologies as the daemon when timing starts.
        warm_tracer = Tracer()
        outputs = []
        for k in range(self.cycle):
            key, reply = self.traced_op(k, warm_tracer) if traced else self.op(k)
            outputs.append((key, self.digest(key, reply)))
        self._reset_samples()
        return outputs

    def _query(self, k: int):
        key = self.stream[k % self.cycle]
        topology, size, heuristic, root = self.universe[key]
        return key, (topology, size, heuristic, root)

    def _account(self, cached: bool) -> None:
        self.sent["served"] += 1
        self.sent["hits" if cached else "misses"] += 1

    def op(self, k: int):
        key, (topology, size, heuristic, root) = self._query(k)
        reply = self.client.query(topology, size, heuristic, root=root)
        self._account(reply.cached)
        return key, reply

    def traced_op(self, k: int, tracer: Tracer):
        key, (topology, size, heuristic, root) = self._query(k)
        with tracer.span("service.query"):
            started = time.perf_counter()
            reply = self.client.query(topology, size, heuristic, root=root)
            latency = time.perf_counter() - started
        self._account(reply.cached)
        if reply.cached:
            tracer.count("service.hits")
            self.hit_latencies.append(latency)
            return key, reply
        # The inline twin of a miss: what the daemon computes for it, on a
        # topology cache that mirrors the daemon's (LRU, touched on misses).
        tracer.count("service.misses")
        twin_started = time.perf_counter()
        topo_key = topology_key(topology)
        grid = self._twin_grids.get(topo_key)
        if grid is None:
            with tracer.span("topology.build"):
                grid = build_topology(topology)
            self._twin_grids[topo_key] = grid
            while len(self._twin_grids) > self.CACHE_SIZE:
                self._twin_grids.popitem(last=False)
        self._twin_grids.move_to_end(topo_key)
        with tracer.span("core.costs"):
            costs = GridCostCache.for_grid(grid, size)
        with tracer.span("core.schedule"):
            get_heuristic(heuristic).schedule(grid, size, root=root, costs=costs)
        self.miss_latencies.append(latency)
        self.miss_overheads.append(latency - (time.perf_counter() - twin_started))
        return key, reply

    def digest(self, key, output) -> str:
        # Rebuilding and hashing the schedule costs ~0.25 ms, more than a
        # cache hit: only the first reply per key is compared field by field
        # with the inline schedule (in reference), and every other reply for
        # that key must carry a byte-identical payload.
        digest = hashlib.sha256(pickle.dumps(output.payload, protocol=5)).hexdigest()
        self._first_replies.setdefault(key, (digest, output))
        return digest

    def reference(self, key) -> str:
        topology, size, heuristic, root = self.universe[key]
        # One build per topology: the reference builds are not the subject.
        topo_key = topology_key(topology)
        grid = self._reference_grids.get(topo_key)
        if grid is None:
            grid = self._reference_grids[topo_key] = build_topology(topology)
        inline = schedule_digest(get_heuristic(heuristic).schedule(grid, size, root=root))
        digest, reply = self._first_replies[key]
        return digest if schedule_digest(reply.schedule()) == inline else f"inline {inline}"

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        seconds = tracer.self_seconds()
        periods = ops / self.cycle
        hits = tracer.counts["service.hits"]
        misses = tracer.counts["service.misses"]
        return {
            "service.hit_ms": statistics.median(self.hit_latencies) * 1e3,
            "service.miss_ms": statistics.median(self.miss_latencies) * 1e3,
            "topology.build_ms": _per_op_ms(seconds, "topology.build", ops),
            "core.costs_ms": _per_op_ms(seconds, "core.costs", ops),
            "core.schedule_ms": _per_op_ms(seconds, "core.schedule", ops),
            "service.miss_overhead_ms": statistics.median(self.miss_overheads) * 1e3,
            "service.hits": hits / periods,
            "service.misses": misses / periods,
            "service.topologies": float(self.daemon_stats.get("topologies", 0)),
            "service.hit_ratio": hits / (hits + misses),
        }

    def child_pids(self) -> list[int]:
        return [self.daemon.pid] if self.daemon is not None else []

    def close(self) -> list[str]:
        """Check the daemon's counters, then stop it with SIGTERM: exit 0 required."""
        problems = []
        if self.client is not None:
            try:
                self.daemon_stats = self.client.stats()
            except (OSError, ServiceError) as exc:
                problems.append(f"no stats frame from the daemon: {exc}")
            self.client.close()
            for name, sent in self.sent.items():
                if self.daemon_stats.get(name) != sent:
                    problems.append(
                        f"daemon stats {name}={self.daemon_stats.get(name)} "
                        f"but the client counted {sent}"
                    )
        if self.daemon is not None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                code = self.daemon.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
                code = None
            self.daemon.stdout.close()
            self.daemon = None
            if code != 0:
                problems.append(f"service daemon exit code {code} after SIGTERM")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Table3Sweep, MonteCarloFig2, GossipPush100k, ServiceMix)
}
