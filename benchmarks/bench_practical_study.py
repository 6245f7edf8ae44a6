"""Measured-sweep throughput of the practical study (paper §7, Figure 6).

The practical evaluation executes one discrete-event run per (heuristic,
message size) — plus the binomial baseline — on the Table 3 grid.  This
benchmark times that measured sweep through

* the **per-run scalar loop**: one :func:`execute_program` per task, each on
  an identically-seeded fresh network (the pre-batching cost profile), and
* the **batched engine** (:mod:`repro.simulator.batch`): the whole sweep
  compiled and executed in one pass,

both for the plain Figure 6 sweep and for a noise-replicated sweep (three
noise seeds per curve point — the paper's own measurements averaged repeated
runs), where the batched engine additionally amortises program compilation.
The two engines are bit-identical, so the ratio is pure overhead removed.

The sweep's schedule phase (Figure 5's predictions, every heuristic at every
message size) is timed the same way, through the driver's own prediction
sweep: the per-size ``schedule()`` loop against one
:func:`~repro.core.batch.record_lineup` call for the whole line-up over all
sizes, whose recorded makespan and pair arrays build no schedule object,
after asserting both give the same arrays.  The program build is timed
likewise: the 70 per-program
:func:`~repro.mpi.bcast.grid_aware_bcast_program` calls against the
driver's one :func:`~repro.mpi.bcast.grid_aware_pair_programs` stack for
the whole line-up, after asserting both build the same programs field for
field.

The measured sweep's noise streams are timed on their own too: the 80
Table 3 task seeds each opened as a :class:`~repro.utils.rng.RandomStream`
(the scalar engine's per-task stream) against one
:func:`~repro.utils.rng.open_generators` call, every task drawing its
``2 * M`` log-normal factors, after asserting both give the same factor
bits.

Results land in ``benchmarks/results/BENCH_practical.json`` so the speedup
trajectory is tracked across PRs.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from conftest import BENCH_PRACTICAL_JSON_FILE, emit, emit_json

from repro.core.costs import GridCostCache
from repro.core.registry import PAPER_HEURISTICS, instantiate
from repro.experiments.config import PRACTICAL_MESSAGE_SIZES, PracticalStudyConfig
from repro.experiments.practical_study import (
    _sweep_predictions,
    run_alltoall_study,
    run_practical_study,
)
from repro.mpi.bcast import (
    binomial_bcast_program,
    grid_aware_bcast_program,
    grid_aware_pair_programs,
)
from repro.simulator.batch import ExecutionTask, execute_makespans, execute_programs
from repro.simulator.network import NetworkConfig
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream, derive_seed, open_generators

NOISE_SIGMA = 0.03
SEED = 20060331
REPLICAS = 3
REPETITIONS = 7


def _sweep_programs(grid):
    """The Figure 5/6 program set: every heuristic and the binomial baseline
    at every Table 3 message size."""
    programs = []
    for message_size in PRACTICAL_MESSAGE_SIZES:
        costs = GridCostCache.for_grid(grid, message_size)
        for heuristic in instantiate(PAPER_HEURISTICS):
            schedule = heuristic.schedule(grid, message_size, root=0, costs=costs)
            programs.append(
                (
                    heuristic.name,
                    message_size,
                    grid_aware_bcast_program(grid, schedule, message_size),
                )
            )
        programs.append(
            (
                "Default LAM",
                message_size,
                binomial_bcast_program(
                    grid, message_size, root_rank=grid.coordinator_rank(0)
                ),
            )
        )
    return programs


def _tasks(programs, replica: int) -> list[ExecutionTask]:
    return [
        ExecutionTask(
            program, noise_seed=derive_seed(SEED, label, message_size, replica)
        )
        for label, message_size, program in programs
    ]


def _best_of(run, repetitions: int = REPETITIONS) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_measured_sweep_throughput():
    """Batched vs scalar measured-sweep wall clock on the Table 3 grid.

    ``makespans_seconds`` times the batched engine read for makespans only
    (``execute_makespans``, what the study drivers call); the floor stays
    on the results path, ``batched_seconds``.
    """
    grid = build_grid5000_topology()
    config = NetworkConfig(noise_sigma=NOISE_SIGMA, seed=SEED)
    programs = _sweep_programs(grid)
    plain = _tasks(programs, replica=0)
    replicated = [
        task for replica in range(REPLICAS) for task in _tasks(programs, replica)
    ]

    def runner(tasks, engine):
        return lambda: execute_programs(
            grid, tasks, config=config, collect_traces=False, engine=engine
        )

    def makespans(tasks):
        return lambda: execute_makespans(grid, tasks, config=config)

    # The two engines, and the makespan reader the study drivers call, must
    # agree before their timings mean anything.
    scalar_results = execute_programs(
        grid, plain, config=config, collect_traces=False, engine="scalar"
    )
    batched_results = execute_programs(
        grid, plain, config=config, collect_traces=False, engine="batched"
    )
    assert [r.makespan for r in scalar_results] == [
        r.makespan for r in batched_results
    ]
    assert makespans(plain)().tolist() == [r.makespan for r in scalar_results]

    timings = {
        "plain": {
            "tasks": len(plain),
            "scalar_seconds": _best_of(runner(plain, "scalar")),
            "batched_seconds": _best_of(runner(plain, "batched")),
            "makespans_seconds": _best_of(makespans(plain)),
        },
        "replicated": {
            "tasks": len(replicated),
            "scalar_seconds": _best_of(runner(replicated, "scalar"), 3),
            "batched_seconds": _best_of(runner(replicated, "batched"), 5),
            "makespans_seconds": _best_of(makespans(replicated), 5),
        },
    }
    for section in timings.values():
        section["speedup"] = section["scalar_seconds"] / section["batched_seconds"]
        section["sweeps_per_second_batched"] = (
            1.0 / section["batched_seconds"]
        )

    lines = [
        "Practical measured-sweep throughput (Table 3 grid, "
        f"{len(PAPER_HEURISTICS)} heuristics + baseline x "
        f"{len(PRACTICAL_MESSAGE_SIZES)} sizes, noise {NOISE_SIGMA}):"
    ]
    for name, section in timings.items():
        lines.append(
            f"  {name:<10} ({section['tasks']:3d} runs): scalar "
            f"{section['scalar_seconds'] * 1e3:7.1f} ms   batched "
            f"{section['batched_seconds'] * 1e3:7.1f} ms   "
            f"({section['speedup']:.1f}x)   makespans only "
            f"{section['makespans_seconds'] * 1e3:7.1f} ms"
        )
    emit("\n".join(lines))

    emit_json(
        "measured_sweep",
        {
            "grid": "grid5000-table3",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "heuristics": list(PAPER_HEURISTICS),
            "message_sizes": list(PRACTICAL_MESSAGE_SIZES),
            "replicas": REPLICAS,
            "timings": timings,
        },
        path=BENCH_PRACTICAL_JSON_FILE,
    )

    # The acceptance bar: the batched engine must beat the per-run scalar
    # loop by at least 5x on the Table 3 measured sweep.
    assert timings["replicated"]["speedup"] >= 5.0
    assert timings["plain"]["speedup"] >= 3.0


def test_noise_streams_throughput():
    """The Table 3 sweep's 80 noise streams, per-task vs bulk-opened."""
    grid = build_grid5000_topology()
    programs = _sweep_programs(grid)
    seeds = [task.noise_seed for task in _tasks(programs, replica=0)]
    counts = [2 * program.total_messages() for _, _, program in programs]

    def per_task():
        return [
            RandomStream(seed=seed).lognormal_array(0.0, NOISE_SIGMA, count)
            for seed, count in zip(seeds, counts)
        ]

    def bulk():
        return [
            generator.lognormal(0.0, NOISE_SIGMA, count)
            for generator, count in zip(open_generators(seeds), counts)
        ]

    # Both paths must draw the same factors before their timings mean
    # anything.
    assert np.concatenate(per_task()).tobytes() == np.concatenate(bulk()).tobytes()
    seconds = {"per_task": _best_of(per_task, 200), "bulk": _best_of(bulk, 200)}
    speedup = seconds["per_task"] / seconds["bulk"]
    emit(
        f"Practical noise streams ({len(seeds)} tasks, {sum(counts)} factors): "
        f"per-task {seconds['per_task'] * 1e3:.3f} ms, bulk "
        f"{seconds['bulk'] * 1e3:.3f} ms ({speedup:.1f}x)"
    )
    emit_json(
        "noise_streams",
        {
            "grid": "grid5000-table3",
            "noise_sigma": NOISE_SIGMA,
            "seed": SEED,
            "tasks": len(seeds),
            "factors": sum(counts),
            "seconds": seconds,
            "speedup": speedup,
        },
        path=BENCH_PRACTICAL_JSON_FILE,
    )


def test_schedule_phase_throughput():
    """The practical driver's schedule phase, per-size loop vs line-up.

    Both sides run :func:`run_practical_study`'s own prediction sweep: the
    scalar engine's per-size ``schedule()`` loop, and the batched engine's
    one :func:`~repro.core.batch.record_lineup` call per stack of sizes,
    which hands over makespan and pair arrays without building schedules.
    """
    grid = build_grid5000_topology()
    heuristics = instantiate(PAPER_HEURISTICS)
    sizes = list(PRACTICAL_MESSAGE_SIZES)

    def per_size():
        return _sweep_predictions(heuristics, grid, sizes, 0, False)

    def batched():
        return _sweep_predictions(heuristics, grid, sizes, 0, True)

    # Both paths must give the same predictions and decision orders before
    # their timings mean anything.
    for reference, recorded in zip(per_size(), batched()):
        assert reference.dtype == recorded.dtype
        assert np.array_equal(reference, recorded)
    seconds = {"per_size": _best_of(per_size), "batched": _best_of(batched)}
    speedup = seconds["per_size"] / seconds["batched"]
    emit(
        "Practical schedule phase "
        f"({len(heuristics)} heuristics x {len(sizes)} sizes): per-size "
        f"{seconds['per_size'] * 1e3:.2f} ms, batched "
        f"{seconds['batched'] * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    emit_json(
        "schedule_phase",
        {
            "grid": "grid5000-table3",
            "heuristics": list(PAPER_HEURISTICS),
            "message_sizes": list(PRACTICAL_MESSAGE_SIZES),
            "schedules": len(heuristics) * len(sizes),
            "seconds": seconds,
            "speedup": speedup,
        },
        path=BENCH_PRACTICAL_JSON_FILE,
    )


def _programs_digest(programs) -> str:
    """sha256 over every field of every program (arrays with their dtype)."""
    fields = [
        (
            program.name,
            program.root,
            program.num_ranks,
            program.tags,
            [
                (array.dtype.str, array.tolist())
                for array in (
                    program.indptr, program.dest, program.size, program.tag_code
                )
            ],
        )
        for program in programs
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def test_program_build_throughput():
    """70 per-program builds vs the driver's one stack for the line-up."""
    grid = build_grid5000_topology()
    heuristics = instantiate(PAPER_HEURISTICS)
    sizes = list(PRACTICAL_MESSAGE_SIZES)
    columns = [
        [heuristic.schedule(grid, size, root=0) for size in sizes]
        for heuristic in heuristics
    ]
    _, pairs = _sweep_predictions(heuristics, grid, sizes, 0, True)
    count = len(heuristics) * len(sizes)
    pairs = pairs.reshape(count, grid.num_clusters - 1, 2)
    names = [heuristic.name for heuristic in heuristics for _ in sizes]

    def per_program():
        return [
            grid_aware_bcast_program(grid, schedule, size)
            for column in columns
            for schedule, size in zip(column, sizes)
        ]

    def stacked():
        return grid_aware_pair_programs(
            grid, pairs, sizes * len(heuristics), [0] * count, names
        )

    # Both paths must build the same programs before their timings mean
    # anything.
    assert _programs_digest(per_program()) == _programs_digest(stacked())
    seconds = {
        "per_program": _best_of(per_program, 25),
        "stacked": _best_of(stacked, 25),
    }
    speedup = seconds["per_program"] / seconds["stacked"]
    emit(
        f"Practical program build ({len(columns)} heuristics x {len(sizes)} "
        f"sizes): per-program {seconds['per_program'] * 1e3:.2f} ms, stacked "
        f"{seconds['stacked'] * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    emit_json(
        "program_build",
        {
            "grid": "grid5000-table3",
            "heuristics": list(PAPER_HEURISTICS),
            "message_sizes": sizes,
            "programs": count,
            "seconds": seconds,
            "speedup": speedup,
        },
        path=BENCH_PRACTICAL_JSON_FILE,
    )


def test_practical_study_end_to_end():
    """Wall clock of the full run_practical_study (predictions included)."""
    config = PracticalStudyConfig(noise_sigma=NOISE_SIGMA, seed=SEED)

    elapsed = {}
    reference = None
    for engine in ("scalar", "batched"):
        started = time.perf_counter()
        result = run_practical_study(config, engine=engine)
        elapsed[engine] = time.perf_counter() - started
        if reference is None:
            reference = result
        else:
            assert np.array_equal(result.measured, reference.measured)
    emit(
        "Full practical study (predictions + measured sweep): "
        f"scalar {elapsed['scalar'] * 1e3:.1f} ms, "
        f"batched {elapsed['batched'] * 1e3:.1f} ms"
    )
    emit_json(
        "practical_study_end_to_end",
        {"seconds": elapsed, "speedup": elapsed["scalar"] / elapsed["batched"]},
        path=BENCH_PRACTICAL_JSON_FILE,
    )


def test_alltoall_study_throughput():
    """The new all-to-all scenario: heap-free batched execution shines."""
    config = PracticalStudyConfig(
        message_sizes=(1_024, 4_096), noise_sigma=NOISE_SIGMA, seed=SEED
    )
    elapsed = {}
    for engine in ("scalar", "batched"):
        started = time.perf_counter()
        run_alltoall_study(config, engine=engine)
        elapsed[engine] = time.perf_counter() - started
    speedup = elapsed["scalar"] / elapsed["batched"]
    emit(
        "All-to-all study (direct + grid-aware, 2 chunk sizes): "
        f"scalar {elapsed['scalar'] * 1e3:.1f} ms, "
        f"batched {elapsed['batched'] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    emit_json(
        "alltoall_study",
        {"seconds": elapsed, "speedup": speedup},
        path=BENCH_PRACTICAL_JSON_FILE,
    )
    assert speedup >= 3.0
