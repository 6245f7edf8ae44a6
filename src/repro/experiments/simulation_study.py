"""The Monte-Carlo simulation study (paper §6, Figures 1–3).

For every cluster count the study generates ``iterations`` independent random
grids (Table 2 parameter ranges), schedules a 1 MB broadcast with every
heuristic, and records the makespans.  The reported quantity is the average
completion time per heuristic and cluster count — the y-axis of Figures 1, 2
and 3 — together with enough raw material (per-iteration minima and hit
counts) for the Figure 4 hit-rate analysis to reuse the same runs.

The driver is batched: iterations are processed in chunks that are drawn
straight into ``(K, n, n)`` cost stacks
(:meth:`~repro.topology.generators.RandomGridGenerator.generate_stack`,
:meth:`~repro.core.batch.BatchedGridCosts.from_arrays`), so the whole
line-up schedules a chunk in one :func:`~repro.core.batch.schedule_lineup`
pass instead of one grid per Python loop.  Heuristics without a batched
kernel transparently fall back to the per-grid engine on grids and caches
built from slices of the same stacks.  Iterations can additionally be fanned
out over the persistent runtime pool (:mod:`repro.runtime.pool`); each worker
draws its chunk from shipped seeds, which costs less than shipping the
stacked cost matrices would.  Every (cluster count, iteration) pair keeps
its own deterministic child seed, so the results are bit-identical
regardless of batching, chunking, executor lane or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import (
    MAX_BATCH_ELEMENTS,  # noqa: F401 - re-exported; the constant moved to core
    BatchedGridCosts,
    has_batched_kernel,
    max_batch_size,
    schedule_lineup,
)
from repro.core.costs import GridCostCache
from repro.core.registry import instantiate
from repro.experiments.config import SimulationStudyConfig
from repro.runtime.pool import choose_lane
from repro.topology.generators import RandomGridGenerator
from repro.utils.rng import RandomStream
from repro.utils.workers import resolve_workers

#: Two schedules within this relative tolerance of each other are considered
#: equally good when computing hits against the per-iteration global minimum.
HIT_RELATIVE_TOLERANCE = 1e-9


@dataclass
class SimulationStudyResult:
    """Results of one Monte-Carlo study.

    Attributes
    ----------
    config:
        The configuration that produced the result.
    heuristic_names:
        Display names, in the order of ``config.heuristics``.
    cluster_counts:
        The swept cluster counts.
    makespans:
        Array of shape ``(len(cluster_counts), len(heuristics), iterations)``
        holding every observed makespan in seconds.
    """

    config: SimulationStudyConfig
    heuristic_names: list[str]
    cluster_counts: list[int]
    makespans: np.ndarray

    # -- derived statistics -----------------------------------------------------------

    def mean_completion_times(self) -> np.ndarray:
        """Mean makespan per (cluster count, heuristic) — the paper's curves."""
        return self.makespans.mean(axis=2)

    def std_completion_times(self) -> np.ndarray:
        """Standard deviation of the makespan per (cluster count, heuristic)."""
        return self.makespans.std(axis=2)

    def global_minima(self) -> np.ndarray:
        """Per-iteration global minimum over the evaluated heuristics.

        Shape ``(len(cluster_counts), iterations)``.  This is the reference
        the paper calls the "global minimum" when the true optimum is too
        expensive to compute.
        """
        return self.makespans.min(axis=1)

    def hit_counts(self) -> np.ndarray:
        """Number of iterations where each heuristic matches the global minimum.

        Shape ``(len(cluster_counts), len(heuristics))`` — the quantity
        plotted in Figure 4 (out of ``iterations``).
        """
        minima = self.global_minima()[:, None, :]
        tolerance = HIT_RELATIVE_TOLERANCE * np.maximum(minima, 1e-300)
        hits = self.makespans <= minima + tolerance
        return hits.sum(axis=2)

    def hit_rates(self) -> np.ndarray:
        """Hit counts normalised by the number of iterations."""
        return self.hit_counts() / self.config.iterations

    def series(self, heuristic_name: str) -> list[float]:
        """The mean-completion-time series of one heuristic (by display name)."""
        try:
            index = self.heuristic_names.index(heuristic_name)
        except ValueError as exc:
            raise ValueError(
                f"unknown heuristic {heuristic_name!r}; available: {self.heuristic_names}"
            ) from exc
        return self.mean_completion_times()[:, index].tolist()

    def as_table(self) -> list[dict[str, float]]:
        """One dict per cluster count mapping heuristic names to mean times."""
        means = self.mean_completion_times()
        rows: list[dict[str, float]] = []
        for row_index, count in enumerate(self.cluster_counts):
            row: dict[str, float] = {"clusters": float(count)}
            for column_index, name in enumerate(self.heuristic_names):
                row[name] = float(means[row_index, column_index])
            rows.append(row)
        return rows


def _chunk_size(clusters: int, iterations: int, workers: int, rows: int) -> int:
    """Iterations per batch chunk, sized from per-iteration *cost*.

    An iteration's cost scales with ``rows * clusters**2`` (its stacked
    score cells for a line-up of ``rows`` heuristics), so the memory bound
    (:data:`~repro.core.batch.MAX_BATCH_ELEMENTS`) doubles as a cost bound:
    chunks of a large grid carry fewer iterations than chunks of a small
    one.  With more than one of ``workers`` the chunk additionally shrinks
    so each worker gets several chunks per cluster count
    (:data:`~repro.runtime.chunking.CHUNKS_PER_WORKER`) — otherwise a
    single-cluster-count study would collapse into one task and run
    serially regardless of ``workers``.  Chunking never affects results
    (each iteration owns its seed).
    """
    from repro.runtime.chunking import CHUNKS_PER_WORKER

    chunk = max_batch_size(clusters, rows)
    if workers > 1:
        per_worker = -(-iterations // (workers * CHUNKS_PER_WORKER))
        chunk = min(chunk, max(1, per_worker))
    return chunk


def _evaluate_chunk(
    heuristic_keys: Sequence[str],
    num_clusters: int,
    seeds: Sequence[int],
    message_size: float,
    root: int,
    ranges,
) -> np.ndarray:
    """Makespans of every heuristic on one chunk of generated grids.

    Returns an array of shape ``(len(heuristic_keys), len(seeds))``.  The
    chunk is drawn once, straight into ``(K, n, n)`` stacks that the one
    line-up kernel call schedules; a :class:`~repro.topology.grid.Grid` and
    its cost cache are built from slices of the stacks only when some
    heuristic has no kernel rows and falls back to the per-grid engine.
    """
    heuristics = instantiate(heuristic_keys)
    generator = RandomGridGenerator(ranges)
    # The generator's clusters have 16 nodes, so every drawn T is the grid's.
    latency, gap, times = generator.generate_stack(num_clusters, seeds)
    columns: list = [None] * len(heuristics)
    if any(has_batched_kernel(h, num_clusters) for h in heuristics):
        stack = BatchedGridCosts.from_arrays(latency, gap, times, message_size)
        columns = schedule_lineup(heuristics, stack, root=root)
    out = np.empty((len(heuristics), len(seeds)), dtype=float)
    grids = None
    for heuristic_index, (heuristic, makespans) in enumerate(zip(heuristics, columns)):
        if makespans is None:
            if grids is None:
                grids = [generator.as_grid(*arrays) for arrays in zip(latency, gap, times)]
                caches = [GridCostCache.for_grid(grid, message_size) for grid in grids]
            makespans = [
                heuristic.makespan(grid, message_size, root=root, costs=cache)
                for grid, cache in zip(grids, caches)
            ]
        out[heuristic_index] = makespans
    return out


def _evaluate_chunk_task(task) -> tuple[int, int, np.ndarray]:
    """Multiprocessing adapter: unpack one task, keep its placement indices."""
    (count_index, start, heuristic_keys, num_clusters, seeds, message_size, root,
     ranges) = task
    values = _evaluate_chunk(
        heuristic_keys, num_clusters, seeds, message_size, root, ranges
    )
    return count_index, start, values


def run_simulation_study(
    config: SimulationStudyConfig,
    *,
    workers: int | None = None,
    executor: str | None = None,
    pool=None,
) -> SimulationStudyResult:
    """Run the Monte-Carlo study described by ``config``.

    Every (cluster count, iteration) pair gets its own deterministic child
    random stream, so results are independent of execution order, chunking,
    executor lane and worker count, and reproducible for a fixed seed.

    Parameters
    ----------
    config:
        The study set-up.
    workers:
        Optional fan-out of the batch chunks over the persistent runtime
        pool.  ``None`` consults the ``REPRO_WORKERS`` environment
        variable; ``0``/``1`` run in-process.
    executor:
        Fan-out lane: ``"process"``, ``"remote"`` (chunks framed over
        sockets to the worker agents named by ``REPRO_HOSTS``, loopback
        agents otherwise), or ``"auto"`` — inline when the study's
        total estimated cost (``iterations * clusters**2`` stacked-matrix
        cells) is too small to amortise process shipping, processes
        otherwise (auto never picks remote).  ``None`` consults
        ``REPRO_EXECUTOR``, then defaults to ``"auto"``.  Every lane ships
        chunk *seeds* and lets the worker regenerate its grids, and every
        lane is bit-identical.
    pool:
        An explicit :class:`~repro.runtime.pool.StudyPool` /
        :class:`~repro.runtime.remote.RemoteStudyPool`; defaults to the
        process-wide persistent pool of the chosen lane (a passed pool
        decides the lane, overriding ``executor``).
    """
    heuristic_keys = tuple(config.heuristics)
    heuristics = instantiate(heuristic_keys)
    heuristic_names = [h.name for h in heuristics]
    parent_stream = RandomStream(seed=config.seed)
    counts = list(config.cluster_counts)
    makespans = np.empty(
        (len(counts), len(heuristic_keys), config.iterations), dtype=float
    )

    worker_count = resolve_workers(workers)
    # Cost prior: one unit per stacked scheduling-matrix cell.
    pool, worker_count = choose_lane(
        executor,
        workers,
        worker_count,
        config.iterations * sum(clusters * clusters for clusters in counts),
        pool=pool,
    )
    tasks = []
    task_units = []
    for count_index, num_clusters in enumerate(counts):
        seeds = [parent_stream.spawn_seed() for _ in range(config.iterations)]
        rows = len(heuristics)
        chunk = _chunk_size(num_clusters, config.iterations, worker_count, rows)
        for start in range(0, config.iterations, chunk):
            chunk_seeds = seeds[start : start + chunk]
            task_units.append(float(len(chunk_seeds) * num_clusters * num_clusters))
            tasks.append(
                (
                    count_index,
                    start,
                    heuristic_keys,
                    num_clusters,
                    chunk_seeds,
                    config.message_size,
                    config.root_cluster,
                    config.ranges,
                )
            )

    if pool is not None and len(tasks) > 1:
        # Seed shipping: each worker regenerates its chunk's grids.
        handles = [
            pool.submit(_evaluate_chunk_task, task, units=units)
            for task, units in zip(tasks, task_units)
        ]
        results = (handle.get() for handle in handles)
    else:
        results = (_evaluate_chunk_task(task) for task in tasks)
    for count_index, start, values in results:
        makespans[count_index, :, start : start + values.shape[1]] = values

    return SimulationStudyResult(
        config=config,
        heuristic_names=heuristic_names,
        cluster_counts=counts,
        makespans=makespans,
    )
