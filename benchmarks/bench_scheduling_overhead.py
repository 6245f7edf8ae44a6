"""Scheduling overhead and throughput — the cost of the heuristics themselves.

Paper §7 notes that "the algorithm complexity is a factor that must be
considered when implementing more elaborate techniques like ECEF-LAT".  This
benchmark measures

* the wall-clock cost of producing one schedule with each heuristic on random
  10-, 30- and 50-cluster grids (the overhead an MPI library would pay at
  communicator-construction time), and
* the throughput of the Monte-Carlo engines on the paper's 10-cluster
  workload: the seed-style scalar reference (fresh cost matrices per
  schedule, scalar selection loops) versus the vectorized per-grid engine and
  the batched line-up kernel that advances every heuristic on a whole chunk
  of grids per NumPy call, and
* the line-up kernel against the per-grid vectorized engine at paper scale
  (50 clusters), and
* drawing a Monte-Carlo chunk straight into its cost stacks against
  generating, caching and stacking its grids one at a time.

The schedules/sec numbers and per-heuristic timings are also written to
``benchmarks/results/BENCH_scheduling.json`` so the trajectory is tracked
across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_iterations, emit, emit_json

from repro.core.batch import (
    BatchedGridCosts,
    batched_makespans,
    max_batch_size,
    schedule_lineup,
)
from repro.core.costs import GridCostCache
from repro.core.registry import PAPER_HEURISTICS, get_heuristic, instantiate
from repro.topology.generators import RandomGridGenerator
from repro.utils.rng import RandomStream

CLUSTER_COUNTS = (10, 30, 50)
MESSAGE_SIZE = 1_048_576


def _grid(num_clusters: int):
    return RandomGridGenerator(cluster_size=2).generate(
        num_clusters, RandomStream(seed=num_clusters)
    )


def _monte_carlo_grids(num_clusters: int, count: int):
    generator = RandomGridGenerator(cluster_size=2)
    return [
        generator.generate(num_clusters, RandomStream(seed=seed))
        for seed in range(count)
    ]


@pytest.mark.parametrize("key", PAPER_HEURISTICS)
@pytest.mark.parametrize("num_clusters", CLUSTER_COUNTS)
def test_scheduling_overhead(benchmark, key, num_clusters):
    grid = _grid(num_clusters)
    heuristic = get_heuristic(key)
    benchmark.group = f"schedule {num_clusters} clusters"
    schedule = benchmark(lambda: heuristic.schedule(grid, MESSAGE_SIZE))
    assert schedule.makespan > 0


def test_scheduling_overhead_summary():
    """A one-shot, human-readable comparison (milliseconds per schedule)."""
    lines = ["Scheduling overhead (single schedule construction, wall-clock):"]
    per_heuristic: dict[str, dict[str, float]] = {}
    for num_clusters in CLUSTER_COUNTS:
        grid = _grid(num_clusters)
        cells = []
        for key in PAPER_HEURISTICS:
            heuristic = get_heuristic(key)
            start = time.perf_counter()
            repetitions = 5
            for _ in range(repetitions):
                heuristic.schedule(grid, MESSAGE_SIZE)
            elapsed = (time.perf_counter() - start) / repetitions
            cells.append(f"{heuristic.name}={elapsed * 1e3:.2f}ms")
            per_heuristic.setdefault(heuristic.name, {})[str(num_clusters)] = elapsed
        lines.append(f"  {num_clusters:2d} clusters: " + "  ".join(cells))
    emit("\n".join(lines))
    emit_json(
        "single_schedule_seconds",
        {"message_size": MESSAGE_SIZE, "per_heuristic": per_heuristic},
    )


def test_monte_carlo_throughput():
    """Schedules/sec on the 10-cluster Monte-Carlo workload, per engine.

    The *seed-style* baseline times the scalar reference engine: every
    ``heuristic.schedule`` call rebuilds the full cost matrices (uncached)
    and runs the scalar selection loops, and the schedule carries the times
    ``commit`` recorded, with no ``evaluate_order`` re-timing pass (the seed
    implementation re-timed every order, so it was slower).  The vectorized
    engine shares one :class:`GridCostCache` per grid across all heuristics;
    the batched engine additionally stacks the whole workload and advances
    every heuristic on every grid per NumPy call, in the one line-up call
    :func:`~repro.experiments.simulation_study.run_simulation_study` makes.
    """
    num_clusters = 10
    # Floor the workload at 100 grids: the batched engine finishes a small
    # batch in a few milliseconds, which is too noisy to assert a speedup on.
    grid_count = max(bench_iterations(150), 100)
    grids = _monte_carlo_grids(num_clusters, grid_count)
    heuristics = instantiate(PAPER_HEURISTICS)
    schedules = len(grids) * len(heuristics)

    def measure(run) -> float:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    def seed_style():
        for grid in grids:
            for heuristic in heuristics:
                heuristic.schedule(
                    grid,
                    MESSAGE_SIZE,
                    costs=GridCostCache.build(grid, MESSAGE_SIZE),
                    vectorized=False,
                )

    def vectorized():
        for grid in grids:
            costs = GridCostCache.build(grid, MESSAGE_SIZE)
            for heuristic in heuristics:
                heuristic.makespan(grid, MESSAGE_SIZE, costs=costs)

    def batched():
        caches = [GridCostCache.build(grid, MESSAGE_SIZE) for grid in grids]
        stacked = BatchedGridCosts(caches)
        results = schedule_lineup(heuristics, stacked, root=0)
        assert all(r is not None for r in results)

    # Warm up allocators / import costs on a small slice before timing.
    for grid in grids[:3]:
        for heuristic in heuristics:
            heuristic.makespan(grid, MESSAGE_SIZE)

    elapsed = {
        "seed_style_scalar": measure(seed_style),
        "vectorized_shared_cache": measure(vectorized),
        "batched": measure(batched),
    }
    throughput = {name: schedules / seconds for name, seconds in elapsed.items()}
    baseline = throughput["seed_style_scalar"]

    lines = [
        f"Monte-Carlo scheduling throughput ({num_clusters} clusters, "
        f"{grid_count} grids x {len(heuristics)} heuristics):"
    ]
    for name, value in throughput.items():
        lines.append(
            f"  {name:<24} {value:10,.0f} schedules/s   ({value / baseline:5.1f}x)"
        )
    emit("\n".join(lines))

    emit_json(
        "monte_carlo_throughput",
        {
            "num_clusters": num_clusters,
            "grids": grid_count,
            "heuristics": list(PAPER_HEURISTICS),
            "message_size": MESSAGE_SIZE,
            "schedules": schedules,
            "schedules_per_second": throughput,
            "speedup_vs_seed_style": {
                name: value / baseline for name, value in throughput.items()
            },
        },
    )

    # The batched engine is the one the Monte-Carlo studies actually use;
    # it must stay well ahead of the seed-style baseline.
    assert throughput["batched"] >= 5.0 * baseline


def test_paper_scale_kernel():
    """The line-up kernel against the per-grid vectorized engine, 50 clusters.

    Both engines schedule the same grids with the seven paper heuristics on
    prebuilt cost caches, after checking that their makespans are identical.
    The kernel takes the grids in the chunks ``run_simulation_study`` uses.
    Each engine's time is the median of five samples, taken alternately.
    """
    num_clusters = 50
    grid_count = bench_iterations(100)
    grids = _monte_carlo_grids(num_clusters, grid_count)
    heuristics = instantiate(PAPER_HEURISTICS)
    caches = [GridCostCache.for_grid(grid, MESSAGE_SIZE) for grid in grids]
    chunk = max_batch_size(num_clusters, len(heuristics))

    def lineup() -> np.ndarray:
        return np.concatenate(
            [
                np.array(
                    schedule_lineup(
                        heuristics, BatchedGridCosts(caches[start : start + chunk])
                    )
                )
                for start in range(0, grid_count, chunk)
            ],
            axis=1,
        )

    def vectorized() -> np.ndarray:
        return np.array(
            [
                [
                    heuristic.makespan(grid, MESSAGE_SIZE, costs=cache)
                    for grid, cache in zip(grids, caches)
                ]
                for heuristic in heuristics
            ]
        )

    assert np.array_equal(lineup(), vectorized())

    runs = {"lineup_kernel": lineup, "vectorized_per_grid": vectorized}
    samples: dict[str, list[float]] = {name: [] for name in runs}
    for _ in range(5):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            samples[name].append(time.perf_counter() - start)
    seconds = {name: float(np.median(times)) for name, times in samples.items()}
    speedup = seconds["vectorized_per_grid"] / seconds["lineup_kernel"]
    emit(
        f"Paper-scale scheduling ({num_clusters} clusters, {grid_count} grids x "
        f"{len(heuristics)} heuristics): line-up kernel "
        f"{seconds['lineup_kernel']:.3f} s, per-grid vectorized "
        f"{seconds['vectorized_per_grid']:.3f} s ({speedup:.2f}x)"
    )
    emit_json(
        "paper_scale_kernel",
        {
            "num_clusters": num_clusters,
            "grids": grid_count,
            "chunk": chunk,
            "heuristics": list(PAPER_HEURISTICS),
            "message_size": MESSAGE_SIZE,
            "seconds": seconds,
            "samples": samples,
            "speedup_vs_vectorized": speedup,
        },
    )


def test_monte_carlo_draw():
    """One chunk's draw: per-grid ``generate`` + cost caches + stack against
    :meth:`~repro.topology.generators.RandomGridGenerator.generate_stack`
    and :meth:`~repro.core.batch.BatchedGridCosts.from_arrays`.

    The chunks are the ones ``run_simulation_study`` draws for the seven
    paper heuristics at 10 and 50 clusters (2,857 and 114 grids).  Both
    paths' stacks are verified equal bit for bit first; each path's time is
    the median of five samples, taken alternately.
    """
    generator = RandomGridGenerator()
    rows = len(PAPER_HEURISTICS)
    sections = {}
    for num_clusters in (10, 50):
        parent = RandomStream(seed=num_clusters)
        seeds = [parent.spawn_seed() for _ in range(max_batch_size(num_clusters, rows))]

        def per_grid() -> BatchedGridCosts:
            grids = [generator.generate(num_clusters, RandomStream(seed=s)) for s in seeds]
            return BatchedGridCosts(
                [GridCostCache.for_grid(grid, MESSAGE_SIZE) for grid in grids]
            )

        def stacked() -> BatchedGridCosts:
            stack = generator.generate_stack(num_clusters, seeds)
            return BatchedGridCosts.from_arrays(*stack, MESSAGE_SIZE)

        reference, drawn = per_grid(), stacked()
        for name in ("latency", "gap", "broadcast", "transfer", "transfer_plus_broadcast"):
            assert getattr(reference, name).tobytes() == getattr(drawn, name).tobytes()

        runs = {"per_grid": per_grid, "stacked_draw": stacked}
        samples: dict[str, list[float]] = {name: [] for name in runs}
        for _ in range(5):
            for name, run in runs.items():
                start = time.perf_counter()
                run()
                samples[name].append(time.perf_counter() - start)
        seconds = {name: float(np.median(times)) for name, times in samples.items()}
        speedup = seconds["per_grid"] / seconds["stacked_draw"]
        key = f"{num_clusters}x{len(seeds)}"
        sections[key] = {
            "num_clusters": num_clusters,
            "grids": len(seeds),
            "seconds": seconds,
            "samples": samples,
            "speedup": speedup,
        }
        emit(
            f"Monte-Carlo chunk draw ({num_clusters} clusters x {len(seeds)} grids): "
            f"per-grid {seconds['per_grid'] * 1e3:.1f} ms, stacked "
            f"{seconds['stacked_draw'] * 1e3:.1f} ms ({speedup:.1f}x)"
        )
    emit_json("monte_carlo_draw", {"message_size": MESSAGE_SIZE, **sections})


def test_engines_agree_on_throughput_workload():
    """The three engines must produce identical makespans on the workload."""
    grids = _monte_carlo_grids(10, 25)
    heuristics = instantiate(PAPER_HEURISTICS)
    caches = [GridCostCache.for_grid(grid, MESSAGE_SIZE) for grid in grids]
    stacked = BatchedGridCosts(caches)
    for heuristic in heuristics:
        from_batch = batched_makespans(heuristic, stacked, root=0)
        from_vectorized = np.array(
            [
                heuristic.makespan(grid, MESSAGE_SIZE, costs=cache)
                for grid, cache in zip(grids, caches)
            ]
        )
        from_scalar = np.array(
            [
                heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False).makespan
                for grid in grids
            ]
        )
        assert np.array_equal(from_batch, from_vectorized), heuristic.name
        assert np.array_equal(from_vectorized, from_scalar), heuristic.name
