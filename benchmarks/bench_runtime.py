"""End-to-end throughput of the study runtime's executor lanes.

The headline workload is the full Table 3 practical sweep (7 heuristics +
baseline x 10 sizes, predictions included), end to end.  Every study builds
all of its tasks first and then makes one ``execute_programs`` call, so the
sweep runs on one of two paths:

* **inline** — ``workers=0``: one in-process batched pass, the best simple
  baseline;
* **process** — ``workers=2`` on the persistent
  :class:`~repro.runtime.pool.StudyPool`, compiled once in the parent and
  shipped zero-copy through shared memory (a by-value slice per chunk where
  shared memory is unavailable; the ``shipping`` section times both).

Both produce bit-identical results (asserted below), so the ratio is pure
orchestration overhead.  On a two-core box the lanes cannot beat the
inline pass on this sweep; the recorded floor is an *overhead bound*:
**process >= 0.75x inline**, plain and 3-replica sweeps alike.  Results land
in ``benchmarks/results/BENCH_runtime.json`` so the trajectory is tracked
across PRs (and enforced by ``benchmarks/check_regression.py`` in CI).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_RUNTIME_JSON_FILE, emit, emit_json

from repro.experiments.chained_study import run_chained_study
from repro.experiments.config import (
    PRACTICAL_MESSAGE_SIZES,
    PracticalStudyConfig,
    SimulationStudyConfig,
)
from repro.experiments.gossip_study import GossipStudyConfig, run_gossip_study
from repro.experiments.practical_study import run_alltoall_study, run_practical_study
from repro.experiments.simulation_study import run_simulation_study
from repro.mpi.bcast import binomial_bcast_program
from repro.mpi.scatter import flat_scatter_program
from repro.runtime.pool import get_pool
from repro.runtime.transport import shared_memory_available
from repro.simulator.batch import ExecutionTask, execute_programs
from repro.simulator.network import NetworkConfig
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import derive_seed

NOISE_SIGMA = 0.03
SEED = 20060331
WORKERS = 2
REPLICAS = 3


def _best_of(run, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_practical_end_to_end():
    """Full practical sweep: process fan-out against the inline pass."""
    config = PracticalStudyConfig(noise_sigma=NOISE_SIGMA, seed=SEED)
    get_pool(WORKERS)  # the persistent pool, created once and reused below

    variants = {
        "inline": dict(workers=0),
        "process": dict(workers=WORKERS, executor="process"),
    }

    def sweep(replicas: int, options: dict):
        return run_practical_study(config, replicas=replicas, **options)

    # Warm every path once — and require bit-identical results before any
    # timing means anything.
    reference = sweep(1, variants["inline"])
    for name, options in variants.items():
        result = sweep(1, options)
        assert np.array_equal(result.measured, reference.measured), name
        assert np.array_equal(
            result.baseline_measured, reference.baseline_measured
        ), name

    timings: dict[str, dict] = {}
    for section, replicas, repetitions in (
        ("plain", 1, 5),
        ("replicated", REPLICAS, 3),
    ):
        seconds = {
            name: _best_of(lambda options=options: sweep(replicas, options), repetitions)
            for name, options in variants.items()
        }
        timings[section] = {
            "replicas": replicas,
            "seconds": seconds,
            "speedup_process_vs_inline": seconds["inline"] / seconds["process"],
        }

    lines = [
        "Study-runtime end-to-end (full practical sweep, "
        f"workers={WORKERS}, shm={shared_memory_available()}):"
    ]
    for section, data in timings.items():
        lines.append(f"  {section} (replicas={data['replicas']}):")
        for name in variants:
            lines.append(
                f"    {name:<8} {data['seconds'][name] * 1e3:7.1f} ms   "
                f"({data['seconds']['inline'] / data['seconds'][name]:.2f}x "
                "vs inline)"
            )
    emit("\n".join(lines))

    emit_json(
        "practical_end_to_end",
        {
            "grid": "grid5000-table3",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "workers": WORKERS,
            "message_sizes": list(PRACTICAL_MESSAGE_SIZES),
            "shared_memory": shared_memory_available(),
            "timings": timings,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )

    # The acceptance bar: process fan-out may cost at most a quarter of the
    # inline pass's throughput on the sweep it is built for.
    assert timings["plain"]["speedup_process_vs_inline"] >= 0.75
    assert timings["replicated"]["speedup_process_vs_inline"] >= 0.75


def test_shipping_paths():
    """Why the process lane keeps two ways to ship a chunk.

    The all-to-all study (the Table 3 sizes as chunk sizes) runs inline, on the process lane through shared memory, and on
    the process lane by value — each chunk pickling its own slice of the
    stack, the path a platform without shared memory takes, forced here by
    substituting the shared-memory probe's answer.  All three must be
    bit-identical before they are timed.  Median of alternating runs; no
    floor: the section records the margin that keeps shared memory.
    """
    import repro.runtime.transport as transport_module

    config = PracticalStudyConfig(noise_sigma=NOISE_SIGMA, seed=SEED)
    get_pool(WORKERS)  # warm the process pool
    variants = {
        "inline": (dict(workers=0), None),
        "by_value": (dict(workers=WORKERS, executor="process"), False),
    }
    if shared_memory_available():
        variants["shm"] = (dict(workers=WORKERS, executor="process"), None)

    def run(name: str):
        options, probe = variants[name]
        with pytest.MonkeyPatch.context() as patch:
            if probe is not None:
                patch.setattr(transport_module, "_shm_probe_result", probe)
            return run_alltoall_study(config, **options)

    reference = run("inline").measured
    for name in variants:
        assert np.array_equal(run(name).measured, reference), name

    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(15):
        for name in variants:
            started = time.perf_counter()
            run(name)
            samples[name].append(time.perf_counter() - started)
    seconds = {name: float(np.median(values)) for name, values in samples.items()}
    emit(
        f"Shipping paths (all-to-all study, workers={WORKERS}, median of 15): "
        + ", ".join(f"{name} {value * 1e3:.1f} ms" for name, value in seconds.items())
    )
    emit_json(
        "shipping",
        {
            "grid": "grid5000-table3",
            "collective": "alltoall",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "workers": WORKERS,
            "message_sizes": list(config.message_sizes),
            "shared_memory": shared_memory_available(),
            "seconds": seconds,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )


def test_auto_vs_inline():
    """The price of ``executor="auto"`` where it keeps a batch inline.

    ``auto`` runs a batch inline when its estimated cost cannot amortise
    process shipping and on the process lane otherwise.  On the *small*
    batch (8 tasks, one practical-sweep curve point, well under
    ``AUTO_INLINE_MAX_UNITS``), on a *small Monte-Carlo study*
    (:func:`run_simulation_study`, 10 clusters x 10 iterations) and on a
    *small gossip study* (:func:`run_gossip_study`, the five protocols at
    5,000 nodes) ``auto`` with ``workers=2`` must stay within 10% of the
    inline pass — the lane decision may cost next to nothing; the three
    floors are recorded in ``BENCH_runtime.json`` and enforced by
    ``check_regression.py``.  The *large* batch (320 tasks, which ``auto``
    sends to processes) is recorded for inline, auto and process with no
    floor, so the crossover stays visible across PRs.
    """
    grid = build_grid5000_topology()
    config = NetworkConfig(noise_sigma=NOISE_SIGMA, seed=SEED)

    def build_tasks(count: int) -> list[ExecutionTask]:
        programs = [
            binomial_bcast_program(grid, 65_536, root_rank=0),
            flat_scatter_program(grid, 4_096, root_rank=0),
        ]
        return [
            ExecutionTask(
                programs[index % 2], noise_seed=derive_seed(SEED, index)
            )
            for index in range(count)
        ]

    def batch(tasks):
        def run(lane: str):
            return [
                result.makespan
                for result in execute_programs(
                    grid,
                    tasks,
                    config=config,
                    collect_traces=False,
                    workers=0 if lane == "inline" else WORKERS,
                    executor=None if lane == "inline" else lane,
                )
            ]

        return run

    study = SimulationStudyConfig(cluster_counts=(10,), iterations=10, seed=SEED)

    def monte_carlo(lane: str):
        return run_simulation_study(
            study,
            workers=0 if lane == "inline" else WORKERS,
            executor=None if lane == "inline" else lane,
        ).makespans.tolist()

    gossip_study = GossipStudyConfig(node_counts=(5_000,))

    def gossip_small(lane: str):
        return run_gossip_study(
            gossip_study,
            workers=0 if lane == "inline" else WORKERS,
            executor=None if lane == "inline" else lane,
        ).metrics.tolist()

    workloads = {
        "small_batch": (8, batch(build_tasks(8)), ("inline", "auto"), 100),
        "monte_carlo_small": (
            study.iterations, monte_carlo, ("inline", "auto"), 100
        ),
        "gossip_small": (
            len(gossip_study.protocols), gossip_small, ("inline", "auto"), 100
        ),
        "large_batch": (
            320, batch(build_tasks(320)), ("inline", "auto", "process"), 3
        ),
    }
    get_pool(WORKERS)  # warm the process pool

    sections: dict[str, dict] = {}
    lines = [f"executor=\"auto\" vs inline (workers={WORKERS}):"]
    for name, (tasks, run, lanes, repetitions) in workloads.items():
        reference = run("inline")
        for lane in lanes:
            assert run(lane) == reference, lane
        # Lanes take turns, so a slow spell of a shared box hits them alike.
        seconds = dict.fromkeys(lanes, float("inf"))
        for _ in range(repetitions):
            for lane in lanes:
                started = time.perf_counter()
                run(lane)
                seconds[lane] = min(seconds[lane], time.perf_counter() - started)
        speedup = seconds["inline"] / seconds["auto"]
        sections[name] = {
            "tasks": tasks,
            "seconds": seconds,
            "speedup_auto_vs_inline": speedup,
        }
        lines.append(
            f"  {name} ({tasks} tasks): "
            + ", ".join(
                f"{lane} {seconds[lane] * 1e3:7.2f} ms" for lane in lanes
            )
            + f"  (auto {speedup:.2f}x inline)"
        )
    emit("\n".join(lines))
    emit_json(
        "auto_vs_inline",
        {
            "grid": "grid5000-table3",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "workers": WORKERS,
            "shared_memory": shared_memory_available(),
            **sections,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    # The acceptance bar: where auto keeps the work inline it may cost at
    # most 10% of the inline pass's throughput.
    assert sections["small_batch"]["speedup_auto_vs_inline"] >= 0.9
    assert sections["monte_carlo_small"]["speedup_auto_vs_inline"] >= 0.9
    assert sections["gossip_small"]["speedup_auto_vs_inline"] >= 0.9


def test_remote_loopback_lane():
    """The distributed lane in loopback: remote agents vs the process pool.

    Two auto-spawned loopback agents (one worker each) serve the full
    practical sweep with ``executor="remote"``; the local process lane runs
    the same sweep at the same worker count.  Both are bit-identical — the
    timings measure pure orchestration cost: wire framing plus socket hops
    versus shared-memory handles plus result pickling.  The recorded floor
    (enforced by ``check_regression.py``) requires the loopback remote lane
    to retain at least half the process lane's throughput, so the wire
    protocol can never silently become the bottleneck; across real machines
    the lane then *adds* capacity no local pool has.
    """
    config = PracticalStudyConfig(noise_sigma=NOISE_SIGMA, seed=SEED)
    get_pool(WORKERS)  # warm the process pool
    remote_pool = get_pool(WORKERS, kind="remote")  # spawn loopback agents

    def sweep(replicas: int, lane: str):
        return run_practical_study(
            config, replicas=replicas, workers=WORKERS, executor=lane
        )

    reference = sweep(1, "process")
    remote = sweep(1, "remote")
    assert np.array_equal(reference.measured, remote.measured)
    assert np.array_equal(
        reference.baseline_measured, remote.baseline_measured
    )

    sections: dict[str, dict] = {}
    lines = [
        "Remote loopback lane (full practical sweep, "
        f"{len(remote_pool._agents)} agents, workers={WORKERS}):"
    ]
    for section, replicas, repetitions in (
        ("plain", 1, 5),
        ("replicated", REPLICAS, 3),
    ):
        seconds = {
            lane: _best_of(lambda lane=lane: sweep(replicas, lane), repetitions)
            for lane in ("process", "remote")
        }
        speedup = seconds["process"] / seconds["remote"]
        sections[section] = {
            "replicas": replicas,
            "seconds": seconds,
            "speedup_remote_vs_process": speedup,
        }
        lines.append(
            f"  {section}: process {seconds['process'] * 1e3:7.1f} ms, "
            f"remote {seconds['remote'] * 1e3:7.1f} ms  "
            f"(remote {speedup:.2f}x process)"
        )
    emit("\n".join(lines))
    emit_json(
        "remote_loopback",
        {
            "grid": "grid5000-table3",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "workers": WORKERS,
            "agents": len(remote_pool._agents),
            **sections,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    # The acceptance bar: wire framing + socket hops must cost the loopback
    # remote lane at most half the process lane's throughput.
    assert sections["plain"]["speedup_remote_vs_process"] >= 0.5


def test_remote_vs_inline():
    """Where the remote lane wins: the Monte-Carlo study against inline.

    The Figure 2 study at 10/30/50 clusters x 200 iterations runs on the
    single-process inline pass and with ``workers=2`` on two warmed
    loopback agents (one worker each, ``executor="remote"``).  Both are
    bit-identical (asserted before anything is timed), so the ratio is
    what fanning the chunks out over agents buys once the per-chunk
    scheduling work outweighs the wire.  The recorded
    ``speedup_remote_vs_inline`` floor of **>= 1.2x** (enforced by
    ``check_regression.py``) is the bar a dispatch change must not lose.
    Median of alternating runs.
    """
    study = SimulationStudyConfig(
        cluster_counts=(10, 30, 50), iterations=200, seed=SEED
    )
    remote_pool = get_pool(WORKERS, kind="remote")  # spawn loopback agents

    def run(lane: str):
        if lane == "inline":
            return run_simulation_study(study, workers=0).makespans
        return run_simulation_study(
            study, workers=WORKERS, executor="remote"
        ).makespans

    reference = run("inline")
    assert np.array_equal(run("remote"), reference)  # also warms the agents

    samples: dict[str, list[float]] = {"inline": [], "remote": []}
    for _ in range(5):
        for lane in samples:
            started = time.perf_counter()
            run(lane)
            samples[lane].append(time.perf_counter() - started)
    seconds = {lane: float(np.median(values)) for lane, values in samples.items()}
    speedup = seconds["inline"] / seconds["remote"]
    emit(
        f"Remote lane vs inline (Monte-Carlo 10/30/50 x {study.iterations}, "
        f"{len(remote_pool._agents)} loopback agents, workers={WORKERS}, "
        f"median of 5): inline {seconds['inline'] * 1e3:7.1f} ms, "
        f"remote {seconds['remote'] * 1e3:7.1f} ms  "
        f"(remote {speedup:.2f}x inline)"
    )
    emit_json(
        "remote_vs_inline",
        {
            "cluster_counts": list(study.cluster_counts),
            "iterations": study.iterations,
            "seed": SEED,
            "workers": WORKERS,
            "agents": len(remote_pool._agents),
            "seconds": seconds,
            "speedup_remote_vs_inline": speedup,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    # The acceptance bar: two loopback agents must beat the inline pass
    # by at least 20% on the workload where fan-out wins.
    assert speedup >= 1.2


def test_chained_pipeline_throughput():
    """The warm-chaining workload: batched engine vs the scalar reference."""
    config = PracticalStudyConfig(
        message_sizes=(65_536, 262_144, 1_048_576),
        noise_sigma=NOISE_SIGMA,
        seed=SEED,
    )
    kwargs = dict(stages=("scatter", "alltoall"), repeat=2)

    reference = run_chained_study(config, engine="scalar", **kwargs)
    batched = run_chained_study(config, **kwargs)
    assert np.array_equal(batched.warm, reference.warm)
    assert np.array_equal(batched.fresh, reference.fresh)

    elapsed = {
        engine: _best_of(
            lambda engine=engine: run_chained_study(config, engine=engine, **kwargs),
            3,
        )
        for engine in ("scalar", "batched")
    }
    speedup = elapsed["scalar"] / elapsed["batched"]
    gains = batched.overlap_gain()
    emit(
        "Chained pipeline study (scatter->alltoall x2, 3 sizes): "
        f"scalar {elapsed['scalar'] * 1e3:.1f} ms, "
        f"batched {elapsed['batched'] * 1e3:.1f} ms ({speedup:.1f}x); "
        f"overlap gain {gains.min():.3f}..{gains.max():.3f}"
    )
    emit_json(
        "chained_pipeline",
        {
            "seconds": elapsed,
            "speedup": speedup,
            "overlap_gain": gains.tolist(),
            "stages": list(batched.stage_names),
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    assert speedup >= 2.0


def test_remote_skewed_fleet():
    """Pull dispatch on a skewed fleet vs its fast agent.

    Two loopback agents, one worker each — but one agent runs with
    ``--slowdown 8``, emulating a box an eighth as fast.  The same batch of
    fixed-duration diagnostic jobs drains twice:

    * **fast_alone** — a pool of the fast agent only;
    * **fleet** — both agents pulling from the lane's one shared queue,
      each keeping at most its prefetch window on the wire, so the fast
      agent, which frees its slots eight times as often, takes most jobs.

    Results are identical either way (asserted).  The recorded
    ``speedup_fleet_vs_fast_alone`` floor of **>= 0.6x** (enforced by
    ``check_regression.py``) rejects a dispatcher that lets the slow agent
    set the pace: splitting the jobs evenly between the agents would take
    about four times as long as the fast agent alone.
    """
    from repro.runtime.remote import (
        RemoteStudyPool,
        _diagnostic_sleep,
        _spawn_loopback_agent,
    )

    SLOWDOWN = 8.0
    JOBS = 24
    NAP = 0.02  # seconds per job at full speed

    fast_process, fast_address = _spawn_loopback_agent(1)
    slow_process, slow_address = _spawn_loopback_agent(1, slowdown=SLOWDOWN)
    fleets = {
        "fast_alone": (fast_address,),
        "fleet": (fast_address, slow_address),
    }
    try:

        def drain(hosts) -> None:
            pool = RemoteStudyPool(hosts=hosts, heartbeat=0.0)
            try:
                handles = [
                    pool.submit(_diagnostic_sleep, (NAP, index), units=1.0)
                    for index in range(JOBS)
                ]
                assert [handle.get(timeout=120) for handle in handles] == list(
                    range(JOBS)
                )
            finally:
                pool.close()

        for hosts in fleets.values():
            drain(hosts)  # warm both paths (agent pools, import caches)
        seconds = {
            name: _best_of(lambda hosts=hosts: drain(hosts), 3)
            for name, hosts in fleets.items()
        }
        speedup = seconds["fast_alone"] / seconds["fleet"]
    finally:
        for process in (fast_process, slow_process):
            process.terminate()
            process.wait(timeout=15)

    emit(
        f"Remote skewed fleet ({JOBS} x {NAP * 1e3:.0f} ms jobs, "
        f"1 agent at 1/{SLOWDOWN:.0f} speed): "
        f"fast agent alone {seconds['fast_alone'] * 1e3:7.1f} ms, "
        f"fleet {seconds['fleet'] * 1e3:7.1f} ms  "
        f"(fleet {speedup:.2f}x fast agent alone)"
    )
    emit_json(
        "remote_skewed",
        {
            "jobs": JOBS,
            "job_seconds": NAP,
            "slowdown": SLOWDOWN,
            "agents": 2,
            "seconds": seconds,
            "speedup_fleet_vs_fast_alone": speedup,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    # The acceptance bar: adding a slow agent may cost the fleet at most
    # 40% of the fast agent's throughput.
    assert speedup >= 0.6


def test_remote_chaos_overhead():
    """The price of resilience on a healthy fleet: hardened vs bare lane.

    The chaos hardening (heartbeat monitor, per-frame deadlines, probation
    and reconnect bookkeeping, local-lane degradation machinery) must be
    effectively free when nothing goes wrong.  Two loopback agents drain
    the same batch of fixed-duration diagnostic jobs twice:

    * **bare** — no heartbeat loop and no frame deadlines (probation
      reconnects and the local-lane fallback are always on, and cost
      nothing until an agent is lost);
    * **hardened** — the production defaults plus an armed frame deadline:
      heartbeat pings and deadline tracking on every frame (``faults``
      stays off — the injection layer itself must cost zero when unused).

    The recorded ``overhead_speedup`` floor of **>= 0.9x** (enforced by
    ``check_regression.py``) guarantees resilience stays within 10% of the
    unguarded lane on a healthy fleet.
    """
    from repro.runtime.remote import (
        RemoteStudyPool,
        _diagnostic_sleep,
        _spawn_loopback_agent,
    )

    JOBS = 24
    NAP = 0.02  # seconds per job

    first_process, first_address = _spawn_loopback_agent(1)
    second_process, second_address = _spawn_loopback_agent(1)
    hosts = (first_address, second_address)
    variants = {
        "bare": dict(heartbeat=0.0, frame_timeout=0.0),
        "hardened": dict(frame_timeout=30.0),  # + the default heartbeat
    }
    try:

        def drain(options: dict) -> None:
            pool = RemoteStudyPool(hosts=hosts, **options)
            try:
                handles = [
                    pool.submit(_diagnostic_sleep, (NAP, index), units=1.0)
                    for index in range(JOBS)
                ]
                assert [handle.get(timeout=120) for handle in handles] == list(
                    range(JOBS)
                )
            finally:
                pool.close()

        for options in variants.values():
            drain(options)  # warm both paths (agent pools, import caches)
        seconds = {
            name: _best_of(lambda options=options: drain(options), 3)
            for name, options in variants.items()
        }
        overhead_speedup = seconds["bare"] / seconds["hardened"]
    finally:
        for process in (first_process, second_process):
            process.terminate()
            process.wait(timeout=15)

    emit(
        f"Remote chaos hardening overhead ({JOBS} x {NAP * 1e3:.0f} ms jobs, "
        "healthy 2-agent fleet): "
        f"bare {seconds['bare'] * 1e3:7.1f} ms, "
        f"hardened {seconds['hardened'] * 1e3:7.1f} ms  "
        f"(hardened retains {overhead_speedup:.2f}x)"
    )
    emit_json(
        "remote_chaos",
        {
            "jobs": JOBS,
            "job_seconds": NAP,
            "agents": 2,
            "seconds": seconds,
            "overhead_speedup": overhead_speedup,
        },
        path=BENCH_RUNTIME_JSON_FILE,
    )
    # The acceptance bar: on a healthy fleet the hardened lane must retain
    # at least 90% of the bare lane's throughput.
    assert overhead_speedup >= 0.9
