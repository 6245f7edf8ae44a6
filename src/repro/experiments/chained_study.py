"""Warm-network collective pipelines (back-to-back collectives, one workload).

Real applications rarely run one collective on an idle network: a scatter
feeds an all-to-all, a broadcast repeats every iteration.  The runtime's
warm-network chaining (``reset_network=False`` tasks in
:func:`~repro.simulator.batch.execute_programs`) measures exactly that — the
stages of a pipeline issue at time zero and serialise on the NICs they
share, so a later stage queues behind the tail of an earlier one and the
noise stream runs through the whole pipeline, just like the scalar engine's
``execute_program(reset_network=False)``.

:func:`run_chained_study` sweeps a pipeline of collectives over the
configured message sizes and measures every stage twice:

* **warm** — the stages chained on one warm network (the pipeline as one
  workload; its completion is the last stage's makespan), and
* **fresh** — the same stages on fresh networks (the barrier-separated
  baseline; its completion is the *sum* of stage makespans).

The gap between the two (:meth:`ChainedStudyResult.overlap_gain`) quantifies
how the pipeline behaves: above 1 it recovers idle wire time by overlapping
stages, below 1 the stages contend for the same NICs and chaining costs a
little extra queueing.  Chains are never split across workers, so the study
fans out over sizes with bit-identical results at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import GridCostCache
from repro.core.registry import instantiate
from repro.experiments.config import PracticalStudyConfig
from repro.experiments.practical_study import _check_engine, _default_grid
from repro.mpi.alltoall import grid_aware_alltoall_program
from repro.mpi.bcast import grid_aware_bcast_program
from repro.mpi.scatter import grid_aware_scatter_program
from repro.simulator.batch import ExecutionTask, execute_makespans
from repro.simulator.network import NetworkConfig
from repro.topology.grid import Grid
from repro.utils.rng import derive_seed

#: Collectives a pipeline stage can name.
CHAIN_COLLECTIVES = ("bcast", "scatter", "alltoall")


@dataclass
class ChainedStudyResult:
    """Stage makespans of a collective pipeline, warm-chained and fresh.

    Attributes
    ----------
    config:
        The configuration used (message sizes double as per-stage payload /
        chunk sizes).
    stage_names:
        The pipeline stages in execution order (collective names, numbered
        when repeated).
    message_sizes:
        Swept sizes in bytes.
    warm:
        Array ``(len(message_sizes), len(stage_names))`` of stage makespans
        when the stages chain on one warm network.
    fresh:
        Same shape, each stage on its own fresh network (the barrier
        baseline).
    """

    config: PracticalStudyConfig
    stage_names: list[str]
    message_sizes: list[int]
    warm: np.ndarray
    fresh: np.ndarray

    def pipeline_makespans(self) -> np.ndarray:
        """Completion of the warm pipeline per size (last stage to finish).

        Chained stages all issue at time zero and serialise on the NICs, so
        the pipeline is done when its slowest stage is.
        """
        return self.warm.max(axis=1)

    def barrier_makespans(self) -> np.ndarray:
        """Completion of the barrier-separated baseline per size (stage sum)."""
        return self.fresh.sum(axis=1)

    def overlap_gain(self) -> np.ndarray:
        """Barrier completion over pipeline completion, element-wise.

        Above 1 the pipeline recovers idle wire time (stages overlap);
        below 1 the stages contend for the same NICs and chaining costs a
        little extra queueing — both are real effects worth measuring.
        """
        pipeline = self.pipeline_makespans()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                pipeline > 0, self.barrier_makespans() / pipeline, np.nan
            )

    def as_table(self) -> list[dict[str, float]]:
        """Rows of (size, pipelined, barrier, gain) for the CLI/reporting."""
        pipeline = self.pipeline_makespans()
        barrier = self.barrier_makespans()
        gain = self.overlap_gain()
        return [
            {
                "message_size": float(size),
                "pipelined": float(pipeline[index]),
                "barrier": float(barrier[index]),
                "overlap_gain": float(gain[index]),
            }
            for index, size in enumerate(self.message_sizes)
        ]


def _stage_builders(config: PracticalStudyConfig, grid: Grid):
    """One ``(name, build(size) -> program)`` per collective kind.

    The broadcast and scatter stages are driven by the first configured
    heuristic (the pipeline studies network behaviour, not heuristic
    ranking).
    """
    heuristic = instantiate(config.heuristics)[0]

    def build_bcast(message_size):
        costs = GridCostCache.for_grid(grid, message_size)
        schedule = heuristic.schedule(
            grid, message_size, root=config.root_cluster, costs=costs
        )
        return grid_aware_bcast_program(
            grid, schedule, message_size, local_tree=config.local_tree
        )

    def build_scatter(message_size):
        program, _ = grid_aware_scatter_program(
            grid,
            message_size,
            heuristic=heuristic,
            root_cluster=config.root_cluster,
        )
        return program

    return {
        "bcast": build_bcast,
        "scatter": build_scatter,
        "alltoall": lambda message_size: grid_aware_alltoall_program(
            grid, message_size
        ),
    }


def run_chained_study(
    config: PracticalStudyConfig | None = None,
    *,
    grid: Grid | None = None,
    stages: tuple[str, ...] = ("scatter", "alltoall"),
    repeat: int = 1,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    hosts: str | None = None,
    pool=None,
) -> ChainedStudyResult:
    """Measure a pipeline of collectives warm-chained versus barrier-separated.

    Parameters
    ----------
    config:
        Sizes / noise / seed configuration (defaults to the paper set-up;
        sizes are per-stage payload or chunk sizes).
    grid:
        Topology; defaults to the Table 3 GRID5000 grid.
    stages:
        Collective names from :data:`CHAIN_COLLECTIVES`, in pipeline order.
    repeat:
        Repeat the stage sequence this many times (e.g. ``("bcast",)`` with
        ``repeat=4`` measures four back-to-back broadcasts).
    workers:
        Fan sizes out over the persistent runtime pool (chains are never
        split).  ``None`` consults the ``REPRO_WORKERS`` environment
        variable.
    engine:
        ``"batched"`` (default) or the scalar reference.
    executor:
        Fan-out lane — ``"process"`` / ``"remote"`` / ``"auto"`` (default
        via ``REPRO_EXECUTOR``); see
        :func:`~repro.simulator.batch.execute_programs`.  Chains stay
        atomic on every lane — a warm pipeline never spans two workers or
        two agents.  Bit-identical either way.
    hosts:
        Remote-lane agent addresses (``"host:port,host:port"``); only
        consulted when the remote lane is engaged.  ``None`` falls back to
        ``REPRO_HOSTS``, then to auto-spawned loopback agents.
    pool:
        An explicit runtime pool of any lane; defaults to the process-wide
        persistent pool of the chosen lane (a passed pool decides the lane,
        overriding ``executor``).
    """
    config = config if config is not None else PracticalStudyConfig()
    grid = grid if grid is not None else _default_grid()
    _check_engine(engine)
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    for stage in stages:
        if stage not in CHAIN_COLLECTIVES:
            raise ValueError(
                f"unknown collective {stage!r}; choose from {CHAIN_COLLECTIVES}"
            )
    if not stages:
        raise ValueError("stages must not be empty")

    sequence = list(stages) * repeat
    counts: dict[str, int] = {}
    stage_names: list[str] = []
    for name in sequence:
        counts[name] = counts.get(name, 0) + 1
        stage_names.append(
            name if sequence.count(name) == 1 else f"{name}#{counts[name]}"
        )

    builders = _stage_builders(config, grid)
    sizes = list(config.message_sizes)
    tasks: list[ExecutionTask] = []
    for message_size in sizes:
        programs = [builders[name](message_size) for name in sequence]
        # Warm pipeline: one chain per size, seeded at the head.
        tasks.append(
            ExecutionTask(
                programs[0],
                noise_seed=derive_seed(config.seed, "chain", message_size),
            )
        )
        tasks.extend(
            ExecutionTask(program, reset_network=False)
            for program in programs[1:]
        )
        # Barrier baseline: the same stages, each on a fresh network.
        tasks.extend(
            ExecutionTask(
                program,
                noise_seed=derive_seed(
                    config.seed, "fresh", stage_index, message_size
                ),
            )
            for stage_index, program in enumerate(programs)
        )

    num_stages = len(sequence)
    makespans = execute_makespans(
        grid,
        tasks,
        config=NetworkConfig(noise_sigma=config.noise_sigma, seed=config.seed),
        workers=workers,
        engine=engine,
        executor=executor,
        pool=pool,
        hosts=hosts,
    ).reshape(len(sizes), 2 * num_stages)
    return ChainedStudyResult(
        config=config,
        stage_names=stage_names,
        message_sizes=sizes,
        warm=makespans[:, :num_stages],
        fresh=makespans[:, num_stages:],
    )
