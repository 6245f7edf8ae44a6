"""The practical evaluation on the Table 3 grid (paper §7, Figures 5 and 6).

For every heuristic and every message size the study produces two numbers:

* the **predicted** completion time — the makespan of the heuristic's
  schedule under the pLogP model (Figure 5), computed on the shared
  :class:`~repro.core.costs.GridCostCache` matrices, and
* the **measured** completion time — the makespan observed when the
  corresponding node-level program is executed on the discrete-event
  simulator, optionally with noise (Figure 6).

The grid-unaware binomial broadcast ("Default LAM" in Figure 6) is measured
as well; it has no scheduled prediction, matching the paper, which only plots
it in the measured figure.

The predicted column comes from the batched scheduling kernel: the sweep's
cost matrices are stacked once, and the whole line-up schedules every size
in one :func:`~repro.core.batch.record_lineup` call, which hands over the
predicted makespans and every decided ``(sender, receiver)`` pair as arrays
— no schedule objects are built.  Heuristics it declines, and the
``engine="scalar"`` reference, schedule size by size and supply the same
arrays from their schedules.

The measured sweep runs through the study runtime in two steps: the
programs of every heuristic at every message size are built first, as one
stacked :func:`~repro.mpi.bcast.grid_aware_pair_programs` call for the
whole line-up (plus one :func:`~repro.mpi.bcast.binomial_bcast_programs`
call for the baseline), then the whole batch executes in one
:func:`~repro.simulator.batch.execute_makespans` call —
in-process, or fanned out over the persistent runtime pool of the chosen
lane — which hands back every task's makespan as one array, reshaped into
the result's columns.  Noise replicas are first-class: ``replicas=N``
measures every curve point ``N`` times and the result carries both the
per-replica columns and their mean/std aggregation.  Every (curve label, size, replica) owns a
noise seed derived from the config seed, so results are bit-identical
regardless of engine, executor lane, shipping path, execution order,
heuristic-tuple order, pool lifetime or worker count.

Beyond the paper's broadcast figures, the same machinery measures the §8
"future work" collectives: :func:`run_scatter_study` and
:func:`run_alltoall_study` sweep the grid-aware strategies against their flat
/ direct baselines, with the all-to-all programs' ``initially_active`` ranks
taken from the program metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from repro.core.base import SchedulingHeuristic
from repro.core.batch import BatchedGridCosts, max_batch_size, record_lineup
from repro.core.costs import GridCostCache
from repro.core.registry import instantiate
from repro.experiments.config import PracticalStudyConfig
from repro.mpi.alltoall import direct_alltoall_program, grid_aware_alltoall_program
from repro.mpi.bcast import binomial_bcast_programs, grid_aware_pair_programs
from repro.mpi.scatter import flat_scatter_program, grid_aware_scatter_program
from repro.runtime.chunking import resolve_executor
from repro.simulator.batch import ENGINES, ExecutionTask, execute_makespans
from repro.simulator.network import NetworkConfig
from repro.topology.grid import Grid
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import derive_seed
from repro.utils.workers import resolve_workers

#: Display name of the grid-unaware baseline, as labelled in Figure 6.
BINOMIAL_BASELINE_NAME = "Default LAM"


@cache
def _default_grid() -> Grid:
    """The Table 3 grid, built once: ``grid=None`` sweeps share its caches."""
    return build_grid5000_topology()


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _check_replicas(replicas: int) -> None:
    if isinstance(replicas, bool) or not isinstance(replicas, int) or replicas < 1:
        raise ValueError(f"replicas must be an integer >= 1, got {replicas!r}")


def _replica_seed(seed: int, label: str, size: int, replica: int, replicas: int) -> int:
    """The noise seed of one (curve, size, replica) measurement.

    A single-replica study keeps the historical ``(seed, label, size)``
    derivation, so ``replicas=1`` results are bitwise those of the
    pre-replica API; multi-replica studies key the replica index in as well.
    """
    if replicas == 1:
        return derive_seed(seed, label, size)
    return derive_seed(seed, label, size, replica)


def _sweep_predictions(
    heuristics: Sequence[SchedulingHeuristic],
    grid: Grid,
    sizes: Sequence[int],
    root: int,
    batched: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Every heuristic's predicted makespan and decision order at each size.

    Returns the ``(len(sizes), len(heuristics))`` predicted makespans and
    the ``(len(heuristics), len(sizes), n - 1, 2)`` decided ``(sender,
    receiver)`` cluster pairs.  The batched path stacks the cost matrices
    of up to :func:`~repro.core.batch.max_batch_size` sizes at a time and
    makes one :func:`~repro.core.batch.record_lineup` call for the whole
    line-up, which yields both as arrays; a heuristic it declines, like
    every heuristic of the unbatched path, is scheduled per size and
    supplies its schedules' makespans and transfers.  Both paths yield
    bit-identical arrays.
    """
    n = grid.num_clusters
    predicted = np.empty((len(sizes), len(heuristics)))
    pairs = np.empty((len(heuristics), len(sizes), n - 1, 2), dtype=np.intp)
    step = max_batch_size(n, len(heuristics)) if batched else 1
    for start in range(0, len(sizes), step):
        chunk = slice(start, start + step)
        caches = [GridCostCache.for_grid(grid, size) for size in sizes[chunk]]
        columns: list = [None] * len(heuristics)
        if batched:
            columns = record_lineup(heuristics, BatchedGridCosts(caches), root=root)
        for index, (heuristic, column) in enumerate(zip(heuristics, columns)):
            if column is None:
                schedules = [
                    heuristic.schedule(grid, size, root=root, costs=costs)
                    for size, costs in zip(sizes[chunk], caches)
                ]
                column = (
                    [schedule.makespan for schedule in schedules],
                    np.array(
                        [schedule.order for schedule in schedules], dtype=np.intp
                    ).reshape(len(schedules), n - 1, 2),
                )
            predicted[chunk, index], pairs[index, chunk] = column
    return predicted, pairs


@dataclass
class PracticalStudyResult:
    """Predicted and measured completion times on a concrete grid.

    Attributes
    ----------
    config:
        The configuration used.
    heuristic_names:
        Display names of the scheduled heuristics (the binomial baseline is
        reported separately).
    message_sizes:
        Payload sizes in bytes (x-axis).
    predicted:
        Array ``(len(message_sizes), len(heuristics))`` of model-predicted
        makespans (Figure 5).
    measured:
        Array of the same shape with simulator-measured makespans (Figure 6),
        averaged over the noise replicas (with one replica the mean *is* the
        single measurement, bit for bit).
    baseline_measured:
        Measured makespans of the grid-unaware binomial broadcast (replica
        mean), or ``None`` when the baseline was not requested.
    measured_replicas:
        Array ``(replicas, len(message_sizes), len(heuristics))`` holding
        every individual noisy measurement.
    measured_std:
        Per-point standard deviation across replicas (zeros with one
        replica).
    baseline_replicas, baseline_std:
        The same per-replica / spread columns for the binomial baseline
        (``None`` when the baseline was not requested).
    """

    config: PracticalStudyConfig
    heuristic_names: list[str]
    message_sizes: list[int]
    predicted: np.ndarray
    measured: np.ndarray
    baseline_measured: np.ndarray | None
    measured_replicas: np.ndarray | None = None
    measured_std: np.ndarray | None = None
    baseline_replicas: np.ndarray | None = None
    baseline_std: np.ndarray | None = None

    @property
    def num_replicas(self) -> int:
        """Number of noise replicas behind each measured point."""
        if self.measured_replicas is None:
            return 1
        return int(self.measured_replicas.shape[0])

    def prediction_error(self) -> np.ndarray:
        """Relative error |measured - predicted| / measured, element-wise.

        The paper's §7 claim is that "performance predictions fit with a good
        precision the practical results"; this is the quantity that
        substantiates it (zero-size messages are excluded by callers when
        averaging, as both numbers are sub-millisecond there).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            error = np.abs(self.measured - self.predicted) / np.where(
                self.measured > 0, self.measured, np.nan
            )
        return error

    def predicted_series(self, heuristic_name: str) -> list[float]:
        """Predicted completion times of one heuristic across message sizes."""
        return self.predicted[:, self._index(heuristic_name)].tolist()

    def measured_series(
        self, heuristic_name: str, *, replica: int | None = None
    ) -> list[float]:
        """Measured completion times of one heuristic across message sizes.

        ``replica`` selects one noise replica's raw column; the default is
        the replica mean (identical to the raw column with one replica).
        """
        column = self._index(heuristic_name)
        if replica is None:
            return self.measured[:, column].tolist()
        if self.measured_replicas is None or not (
            0 <= replica < self.num_replicas
        ):
            raise ValueError(
                f"replica must be in [0, {self.num_replicas}), got {replica}"
            )
        return self.measured_replicas[replica, :, column].tolist()

    def _index(self, heuristic_name: str) -> int:
        try:
            return self.heuristic_names.index(heuristic_name)
        except ValueError as exc:
            raise ValueError(
                f"unknown heuristic {heuristic_name!r}; available: {self.heuristic_names}"
            ) from exc

    def as_table(self, *, which: str = "measured") -> list[dict[str, float]]:
        """Rows of (message size, per-heuristic time), like the figures' data.

        Parameters
        ----------
        which:
            ``"measured"`` (default) or ``"predicted"``.
        """
        if which == "measured":
            data = self.measured
        elif which == "predicted":
            data = self.predicted
        else:
            raise ValueError("which must be 'measured' or 'predicted'")
        rows: list[dict[str, float]] = []
        for row_index, size in enumerate(self.message_sizes):
            row: dict[str, float] = {"message_size": float(size)}
            for column_index, name in enumerate(self.heuristic_names):
                row[name] = float(data[row_index, column_index])
            if which == "measured" and self.baseline_measured is not None:
                row[BINOMIAL_BASELINE_NAME] = float(self.baseline_measured[row_index])
            rows.append(row)
        return rows


def run_practical_study(
    config: PracticalStudyConfig | None = None,
    *,
    grid: Grid | None = None,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    replicas: int = 1,
    pool=None,
) -> PracticalStudyResult:
    """Run the Figure 5 / Figure 6 experiment.

    Parameters
    ----------
    config:
        Study configuration; defaults to the paper's set-up.
    grid:
        The grid to evaluate on; defaults to the Table 3 GRID5000 topology.
    workers:
        Optional fan-out of the measured sweep over the persistent runtime
        pool.  ``None`` consults the ``REPRO_WORKERS`` environment variable;
        ``0``/``1`` run in-process.  Results are identical at any worker
        count.
    engine:
        ``"batched"`` (default) or ``"scalar"``; both produce bit-identical
        results — the scalar path (per-size scheduling, scalar simulator,
        always in-process) exists as the reference for equivalence tests
        and benchmarks.
    executor:
        Fan-out lane: ``"process"``, ``"remote"`` (stacked batches framed
        over sockets to the worker agents named by ``REPRO_HOSTS``,
        loopback agents otherwise), or ``"auto"`` (inline
        for sweeps too small to amortise shipping, processes otherwise;
        auto never picks remote).  ``None`` consults ``REPRO_EXECUTOR``,
        then defaults to ``"auto"``.  Every lane is bit-identical.
    replicas:
        Number of independent noisy measurements per curve point.  The
        result's ``measured`` columns become replica means and the raw
        per-replica columns ride along (``measured_replicas`` /
        ``measured_std``).  One replica reproduces the historical results
        bit for bit.
    pool:
        An explicit :class:`~repro.runtime.pool.StudyPool` /
        :class:`~repro.runtime.remote.RemoteStudyPool`; defaults to the
        process-wide persistent pool of the chosen lane (a passed pool
        decides the lane, overriding ``executor``).
    """
    config = config if config is not None else PracticalStudyConfig()
    grid = grid if grid is not None else _default_grid()
    # Validate the fan-out settings (and the env vars behind them) up front
    # so a bad setting fails before the prediction sweep, not after it.
    resolve_workers(workers)
    resolve_executor(executor)
    _check_engine(engine)
    _check_replicas(replicas)
    heuristics = instantiate(config.heuristics)
    sizes = list(config.message_sizes)
    network_config = NetworkConfig(noise_sigma=config.noise_sigma, seed=config.seed)

    # Build the measured sweep: one stacked program build for the whole
    # line-up (and one for the baseline) over every message size.  Each
    # task's noise stream is keyed by (seed, curve label, message size[,
    # replica]): stable under reordering, shuffling and worker fan-out.
    predicted, pairs = _sweep_predictions(
        heuristics, grid, sizes, config.root_cluster, engine == "batched"
    )
    count = len(heuristics) * len(sizes)
    programs = grid_aware_pair_programs(
        grid,
        pairs.reshape(count, grid.num_clusters - 1, 2),
        sizes * len(heuristics),
        [config.root_cluster] * count,
        [heuristic.name for heuristic in heuristics for _ in sizes],
        local_tree=config.local_tree,
    )
    curves: list[tuple[str, list]] = [
        (
            heuristic.name,
            programs[heuristic_index * len(sizes) : (heuristic_index + 1) * len(sizes)],
        )
        for heuristic_index, heuristic in enumerate(heuristics)
    ]
    if config.include_binomial_baseline:
        curves.append(
            (
                BINOMIAL_BASELINE_NAME,
                binomial_bcast_programs(
                    grid,
                    sizes,
                    root_rank=grid.coordinator_rank(config.root_cluster),
                ),
            )
        )
    # Task order is (size, replica, curve), the baseline curve last.
    all_tasks = [
        ExecutionTask(
            curve[size_index],
            noise_seed=_replica_seed(
                config.seed, label, message_size, replica, replicas
            ),
        )
        for size_index, message_size in enumerate(sizes)
        for replica in range(replicas)
        for label, curve in curves
    ]
    makespans = execute_makespans(
        grid,
        all_tasks,
        config=network_config,
        workers=workers,
        engine=engine,
        executor=executor,
        pool=pool,
    ).reshape(len(sizes), replicas, len(curves)).transpose(1, 0, 2)
    # C-ordered copies, so the replica mean and std reduce the same memory
    # layout as always.
    measured = np.ascontiguousarray(makespans[:, :, : len(heuristics)])
    baseline = (
        np.ascontiguousarray(makespans[:, :, len(heuristics)])
        if config.include_binomial_baseline
        else None
    )
    return PracticalStudyResult(
        config=config,
        heuristic_names=[h.name for h in heuristics],
        message_sizes=sizes,
        predicted=predicted,
        measured=measured.mean(axis=0),
        baseline_measured=None if baseline is None else baseline.mean(axis=0),
        measured_replicas=measured,
        measured_std=measured.std(axis=0),
        baseline_replicas=baseline,
        baseline_std=None if baseline is None else baseline.std(axis=0),
    )


# -- beyond broadcast: the §8 collectives --------------------------------------------


@dataclass
class CollectiveStudyResult:
    """Measured completion times of several strategies for one collective.

    Attributes
    ----------
    collective:
        ``"scatter"`` or ``"alltoall"``.
    config:
        The configuration used (message sizes double as per-rank chunk sizes).
    strategy_names:
        Display names of the measured strategies (baseline first).
    message_sizes:
        Chunk sizes in bytes.
    measured:
        Array ``(len(message_sizes), len(strategy_names))`` of simulator
        makespans.
    """

    collective: str
    config: PracticalStudyConfig
    strategy_names: list[str]
    message_sizes: list[int]
    measured: np.ndarray

    def measured_series(self, strategy_name: str) -> list[float]:
        """Measured completion times of one strategy across chunk sizes."""
        try:
            column = self.strategy_names.index(strategy_name)
        except ValueError as exc:
            raise ValueError(
                f"unknown strategy {strategy_name!r}; available: {self.strategy_names}"
            ) from exc
        return self.measured[:, column].tolist()

    def as_table(self) -> list[dict[str, float]]:
        """Rows of (chunk size, per-strategy time), Figure 6-style."""
        rows: list[dict[str, float]] = []
        for row_index, size in enumerate(self.message_sizes):
            row: dict[str, float] = {"message_size": float(size)}
            for column_index, name in enumerate(self.strategy_names):
                row[name] = float(self.measured[row_index, column_index])
            rows.append(row)
        return rows

    def speedup_over_baseline(self) -> np.ndarray:
        """Baseline time divided by each strategy's time, element-wise."""
        baseline = self.measured[:, :1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.measured > 0, baseline / self.measured, np.nan)


def _run_collective_study(
    collective: str,
    strategies: "list[tuple[str, object]]",
    config: PracticalStudyConfig,
    grid: Grid,
    workers: int | None,
    engine: str,
    executor: str | None,
    pool,
) -> CollectiveStudyResult:
    """Shared driver: one ExecutionTask per (strategy, chunk size).

    ``strategies`` maps display names to ``builder(grid, chunk_size)``
    callables returning a :class:`CommunicationProgram`; the programs' own
    ``initially_active`` metadata (all ranks for all-to-all) flows through the
    batched executor untouched.  The executor lane and chunk sizes resolve
    from the built programs' exact message counts (an all-to-all task is
    ~20x a scatter task, so cost-balanced chunking matters most here).
    """
    _check_engine(engine)
    sizes = list(config.message_sizes)
    tasks: list[ExecutionTask] = []
    for message_size in sizes:
        for name, builder in strategies:
            tasks.append(
                ExecutionTask(
                    builder(grid, message_size),
                    noise_seed=derive_seed(config.seed, collective, name, message_size),
                )
            )
    measured = execute_makespans(
        grid,
        tasks,
        config=NetworkConfig(noise_sigma=config.noise_sigma, seed=config.seed),
        workers=workers,
        engine=engine,
        executor=executor,
        pool=pool,
    ).reshape(len(sizes), len(strategies))
    return CollectiveStudyResult(
        collective=collective,
        config=config,
        strategy_names=[name for name, _ in strategies],
        message_sizes=sizes,
        measured=measured,
    )


def run_scatter_study(
    config: PracticalStudyConfig | None = None,
    *,
    grid: Grid | None = None,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    pool=None,
) -> CollectiveStudyResult:
    """Measure the flat scatter against the grid-aware hierarchical scatters.

    The baseline sends every rank its block straight from the root; each
    configured heuristic then drives the inter-cluster order of the
    MagPIe-style aggregated scatter (paper §8's first "future work" pattern).
    ``config.message_sizes`` are interpreted as per-rank chunk sizes.

    ``workers`` defaults from ``REPRO_WORKERS``; ``executor``
    (``"process"``/``"remote"``/``"auto"``, default from
    ``REPRO_EXECUTOR``) picks the fan-out lane (the remote lane's agents
    come from ``REPRO_HOSTS``); ``pool`` behaves as in
    :func:`~repro.simulator.batch.execute_programs`.  Results are
    bit-identical for every combination.
    """
    config = config if config is not None else PracticalStudyConfig()
    grid = grid if grid is not None else _default_grid()
    root_rank = grid.coordinator_rank(config.root_cluster)

    def flat_builder(target_grid: Grid, chunk_size: float):
        return flat_scatter_program(target_grid, chunk_size, root_rank=root_rank)

    def aware_builder(heuristic: SchedulingHeuristic):
        def build(target_grid: Grid, chunk_size: float):
            program, _ = grid_aware_scatter_program(
                target_grid,
                chunk_size,
                heuristic=heuristic,
                root_cluster=config.root_cluster,
            )
            return program

        return build

    strategies: list[tuple[str, object]] = [("Flat scatter", flat_builder)]
    for heuristic in instantiate(config.heuristics):
        strategies.append(
            (f"Grid-aware [{heuristic.name}]", aware_builder(heuristic))
        )
    return _run_collective_study(
        "scatter", strategies, config, grid, workers, engine, executor, pool
    )


def run_alltoall_study(
    config: PracticalStudyConfig | None = None,
    *,
    grid: Grid | None = None,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    pool=None,
) -> CollectiveStudyResult:
    """Measure the direct all-to-all against the grid-aware aggregated one.

    Every rank starts active (the programs declare it via
    ``initially_active``); the grid-aware strategy trades ``n_i * n_j``
    wide-area messages per cluster pair for a single aggregated one (paper
    §8's second "future work" pattern).  ``config.message_sizes`` are
    per-rank-pair chunk sizes, so keep them modest — the direct strategy
    injects ``n * (n - 1)`` messages per execution.

    ``workers`` defaults from ``REPRO_WORKERS``; ``executor``
    (``"process"``/``"remote"``/``"auto"``, default from
    ``REPRO_EXECUTOR``) picks the fan-out lane (the remote lane's agents
    come from ``REPRO_HOSTS``); ``pool`` behaves as in
    :func:`~repro.simulator.batch.execute_programs`.  Results are
    bit-identical for every combination.
    """
    config = config if config is not None else PracticalStudyConfig()
    grid = grid if grid is not None else _default_grid()
    strategies: list[tuple[str, object]] = [
        ("Direct", lambda target_grid, chunk: direct_alltoall_program(target_grid, chunk)),
        (
            "Grid-aware",
            lambda target_grid, chunk: grid_aware_alltoall_program(target_grid, chunk),
        ),
    ]
    return _run_collective_study(
        "alltoall", strategies, config, grid, workers, engine, executor, pool
    )
