"""End-to-end throughput of the study runtime's executor lanes.

The headline workload is the full Table 3 practical sweep (7 heuristics +
baseline x 10 sizes, predictions included), end to end.  Every study builds
all of its tasks first and then makes one ``execute_programs`` call, so the
sweep runs on one of three paths:

* **inline** — ``workers=0``: one in-process batched pass, the best simple
  baseline;
* **process** — ``workers=2`` on the persistent
  :class:`~repro.runtime.pool.StudyPool`, compiled once in the parent and
  shipped zero-copy (shared memory when available);
* **thread** — ``workers=2`` on the
  :class:`~repro.runtime.pool.ThreadStudyPool` (nothing ships), recorded
  for context.

All three produce bit-identical results (asserted below), so the ratios are
pure orchestration overhead.  On a two-core box the lanes cannot beat the
inline pass on this sweep; the recorded floor is an *overhead bound*:
**process >= 0.75x inline**, plain and 3-replica sweeps alike.  Results land
in ``benchmarks/results/BENCH_runtime.json`` so the trajectory is tracked
across PRs (and enforced by ``benchmarks/check_regression.py`` in CI).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import BENCH_RUNTIME_JSON_FILE, emit, emit_json

from repro.experiments.chained_study import run_chained_study
from repro.experiments.config import (
    PRACTICAL_MESSAGE_SIZES,
    PracticalStudyConfig,
)
from repro.experiments.practical_study import run_practical_study
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
    """Full practical sweep: each fan-out lane against the inline pass."""
    config = PracticalStudyConfig(noise_sigma=NOISE_SIGMA, seed=SEED)
    get_pool(WORKERS)  # the persistent pools, created once and reused below
    get_pool(WORKERS, kind="thread")

    variants = {
        "inline": dict(workers=0),
        "process": dict(workers=WORKERS, executor="process"),
        "thread": dict(workers=WORKERS, executor="thread"),
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
            "speedup_thread_vs_inline": seconds["inline"] / seconds["thread"],
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


def test_thread_vs_process_crossover():
    """The executor crossover: thread lane vs process lane, small and large.

    The thread lane (``executor="thread"``) ships nothing — workers read the
    parent's compiled arrays in place — so on a *small* batch, whose
    execution cannot amortise process shipping and result pickling, it must
    beat the process lane outright; that floor is recorded in
    ``BENCH_runtime.json`` and enforced by ``check_regression.py``.  The
    *large* batch is recorded alongside (no floor) so the crossover that
    ``executor="auto"`` exploits stays visible across PRs.
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

    # 8 tasks ~ one practical-sweep curve point: the canonical small batch.
    workloads = {"small_batch": build_tasks(8), "large_batch": build_tasks(320)}
    get_pool(WORKERS)  # warm the process pool
    get_pool(WORKERS, kind="thread")  # and the thread pool

    def run(tasks, lane: str):
        return execute_programs(
            grid,
            tasks,
            config=config,
            collect_traces=False,
            workers=WORKERS,
            executor=lane,
        )

    sections: dict[str, dict] = {}
    lines = [f"Thread vs process executor lanes (workers={WORKERS}):"]
    for name, tasks in workloads.items():
        reference = [r.makespan for r in run(tasks, "thread")]
        assert [r.makespan for r in run(tasks, "process")] == reference
        repetitions = 20 if name == "small_batch" else 3
        seconds = {
            lane: _best_of(lambda lane=lane: run(tasks, lane), repetitions)
            for lane in ("thread", "process")
        }
        speedup = seconds["process"] / seconds["thread"]
        sections[name] = {
            "tasks": len(tasks),
            "seconds": seconds,
            "speedup_thread_vs_process": speedup,
        }
        lines.append(
            f"  {name} ({len(tasks)} tasks): thread "
            f"{seconds['thread'] * 1e3:7.2f} ms, process "
            f"{seconds['process'] * 1e3:7.2f} ms  "
            f"(thread {speedup:.2f}x process)"
        )
    emit("\n".join(lines))
    emit_json(
        "thread_vs_process",
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
    # The acceptance bar: on the small batch the shipping-free thread lane
    # must beat process fan-out.
    assert sections["small_batch"]["speedup_thread_vs_process"] >= 1.1


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
    """Throughput-proportional routing on a skewed fleet vs its fast agent.

    Two loopback agents, one worker each — but one agent runs with
    ``--slowdown 8``, emulating a box an eighth as fast.  The same batch of
    fixed-duration diagnostic jobs drains twice:

    * **fast_alone** — a pool of the fast agent only;
    * **fleet** — both agents under the lane's ETA routing over each
      agent's estimated throughput, bounded per-agent queues and work
      stealing, so the fast agent absorbs the slow agent's backlog.

    Results are identical either way (asserted).  The recorded
    ``speedup_fleet_vs_fast_alone`` floor of **>= 0.6x** (enforced by
    ``check_regression.py``) rejects a router that lets the slow agent set
    the pace: splitting the jobs evenly between the agents would take about
    four times as long as the fast agent alone.
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

    * **bare** — the PR 5 lane: no heartbeat loop, no frame deadlines, no
      reconnect probation, hard failure on agent loss;
    * **hardened** — the production defaults plus an armed frame deadline:
      heartbeat pings, deadline tracking on every frame, probation-ready
      monitor thread, local-lane fallback wired in (``faults`` stays off —
      the injection layer itself must cost zero when unused).

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
        "bare": dict(
            heartbeat=0.0, frame_timeout=0.0, reconnect=False, fallback="fail"
        ),
        "hardened": dict(frame_timeout=30.0),  # + default heartbeat/reconnect
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
