"""The pipelined study driver: overlap construction with measured execution.

The Table 3 sweep has two halves with different bottlenecks: schedule
construction and program compilation are parent-side CPU work, measured
execution is embarrassingly parallel across (heuristic, size) tasks.  The
sequential driver runs them strictly one after the other; the
:class:`PipelinedExecutor` streams instead — as soon as one batch of programs
is compiled it is shipped to the persistent worker pool
(:mod:`repro.runtime.pool`) and *measured while the next batch constructs*.

The executor keeps one parent-side compiler alive across submissions, so
every pLogP parameter evaluated for an early batch is reused by later ones.
How a batch reaches the workers depends on the pool's lane: a process
:class:`~repro.runtime.pool.StudyPool` receives each batch's compiled arrays
through :mod:`repro.runtime.transport` (zero-copy shared memory when
available), while a :class:`~repro.runtime.pool.ThreadStudyPool` receives the
parent's compiled programs **by reference** — the thread lane ships nothing.

Chunking is adaptive by default: each submission is split into cost-balanced
worker chunks (per-task cost = program message count), and every completed
chunk's wall time feeds the executor's
:class:`~repro.runtime.chunking.CostModel`, so later batches of the same
study are split against *observed* throughput rather than the prior.
Submission order defines result order, every task carries its own derived
noise seed, and chains are submitted whole — so the pipelined results are
bit-identical to the sequential driver's for any lane, transport or chunking
policy, which the determinism suite asserts directly.

Without a pool the executor degrades to the plain in-process batched engine
(same results, no overlap), so callers can use one code path for both.
"""

from __future__ import annotations

from typing import Sequence

import repro.simulator.batch as _batch
from repro.runtime.chunking import (
    CHUNKINGS,
    FLEET_SKEW_MIN,
    CostModel,
    aggregate_unit_costs,
    compiled_cost,
    cost_model_key,
    load_cost_model,
    partition_by_cost,
    save_cost_model,
)
from repro.runtime.pool import StudyPool
from repro.simulator.execution import ExecutionResult
from repro.simulator.network import NetworkConfig
from repro.topology.grid import Grid

#: Submissions whose estimated wall time is below this are sent as a single
#: chunk — splitting them would cost more in per-chunk overhead than the
#: balance could recover.  A pure performance knob; never affects results.
SPLIT_MIN_SECONDS = 0.002

#: Key the pipelined driver's observations live under in the opt-in on-disk
#: cost cache (``REPRO_COST_CACHE``; see
#: :func:`repro.runtime.chunking.load_cost_model`).  With the cache enabled
#: the *first* submission of a study splits against the units-per-second a
#: previous study actually measured instead of the prior.
COST_MODEL_KEY = "pipeline"

#: A submission is split into cost-balanced chunks only when its atomic
#: units are at least this skewed (max unit cost over min unit cost).
#: Uniform batches stay whole: inter-batch pipelining already occupies the
#: pool, so splitting them buys no balance and costs extra round trips and
#: parent-side contention.  Skewed batches — a chained scatter next to a
#: ~20x all-to-all — are exactly where one oversized chunk would stall the
#: collect order.
SPLIT_MIN_SKEW = 2.0


class PipelinedExecutor:
    """Submit-as-you-construct measured execution on one grid.

    Parameters
    ----------
    grid:
        The topology every submitted program runs on.
    config:
        Shared network behaviour (noise sigma, fallback seed, receive
        overhead).
    pool:
        The worker pool to overlap against — a process
        :class:`~repro.runtime.pool.StudyPool` (batches ship through the
        transport), a :class:`~repro.runtime.pool.ThreadStudyPool` (batches
        pass by reference, nothing ships) or a
        :class:`~repro.runtime.remote.RemoteStudyPool` (batches framed over
        the wire to worker agents); ``None`` runs every submission
        synchronously in-process (bit-identical results, no overlap).
    transport:
        Shipping transport for compiled batches on the process lane —
        ``"auto"`` (default), ``"shm"`` or ``"pickle"``; see
        :mod:`repro.runtime.transport`.  Ignored on the thread lane.
    chunking:
        ``"adaptive"`` (default) splits each submission into cost-balanced
        worker chunks and refines the cost model from observed chunk wall
        times; ``"fixed"`` keeps each submission as one chunk (the
        historical behaviour).  Bit-identical either way.
    collect_traces:
        Keep full message traces (measured sweeps pass ``False``).
    workload:
        Optional label of the collective mix this executor runs (e.g.
        ``"bcast"``).  When given, the on-disk cost cache is read and
        written under a key shaped by ``(workload, grid)`` — see
        :func:`repro.runtime.chunking.cost_model_key` — with the legacy
        shared ``"pipeline"`` record as the read fallback, so differently
        shaped studies stop mispricing each other's throughput.
    """

    def __init__(
        self,
        grid: Grid,
        *,
        config: NetworkConfig | None = None,
        pool: StudyPool | None = None,
        transport: str | None = None,
        chunking: str = "adaptive",
        collect_traces: bool = False,
        workload: str | None = None,
    ) -> None:
        if chunking not in CHUNKINGS:
            raise ValueError(
                f"chunking must be one of {CHUNKINGS}, got {chunking!r}"
            )
        self._grid = grid
        self._config = config if config is not None else NetworkConfig()
        self._pool = pool
        self._transport = transport
        self._chunking = chunking
        self._collect_traces = collect_traces
        self._compiler = _batch._BatchCompiler(grid, collect_traces)
        # Preloaded from the opt-in REPRO_COST_CACHE (a fresh model with the
        # default prior otherwise) so even the first submission can split
        # against observed throughput.  A workload label shapes the cache
        # key; the legacy shared record seeds shaped readers until their
        # own record exists.
        if workload is not None:
            self._cost_key = cost_model_key(
                workload, grid.num_clusters, grid.num_nodes
            )
            self._cost_model = load_cost_model(
                self._cost_key, fallback_keys=(COST_MODEL_KEY,)
            )
        else:
            self._cost_key = COST_MODEL_KEY
            self._cost_model = load_cost_model(self._cost_key)
        # Each entry is ("sync", results) or ("async", handles, shipment,
        # units, task count), in submission order; harvested async entries
        # collapse back to ("sync", results).
        self._pending: list[tuple] = []
        self._finished = False

    @property
    def pipelined(self) -> bool:
        """Whether submissions overlap with pool-side execution."""
        return self._pool is not None

    @property
    def cost_model(self) -> CostModel:
        """The executor's estimated-then-observed task cost model."""
        return self._cost_model

    def submit(self, tasks: Sequence[_batch.ExecutionTask]) -> None:
        """Queue one batch of tasks for execution.

        With a pool the batch is compiled and handed to the workers
        immediately (shipped on the process lane, by reference on the thread
        lane) — the call returns while they execute, so the caller can
        construct the next batch in parallel.  Chains must be contained in a
        single submission.
        """
        if self._finished:
            raise RuntimeError("PipelinedExecutor.finish() was already called")
        normalized = [
            task
            if isinstance(task, _batch.ExecutionTask)
            else _batch.ExecutionTask(program=task)
            for task in tasks
        ]
        _batch._validate_tasks(normalized)
        if not normalized:
            return
        compiled = self._compiler.compile(normalized)
        seeds = _batch._task_seeds(normalized, self._config)
        resets = [task.reset_network for task in normalized]
        if self._pool is None:
            results = _batch._run_task_sequence(
                compiled,
                seeds,
                resets,
                self._config.noise_sigma,
                self._config.receive_overhead,
                self._collect_traces,
                self._grid.num_nodes,
            )
            self._pending.append(("sync", results))
            return
        # Feed the cost model with whatever already finished, so this
        # submission's chunk split rests on observed throughput.
        self._harvest()
        costs = [compiled_cost(prog) for prog in compiled]
        units = float(sum(costs))
        bounds = self._bounds(normalized, costs, units)
        kind = getattr(self._pool, "kind", "process")
        chunk_units = [float(sum(costs[start:end])) for start, end in bounds]
        if kind == "thread":
            handles = [
                self._pool.submit(
                    _batch._execute_compiled_chunk,
                    (
                        start,
                        compiled[start:end],
                        seeds[start:end],
                        resets[start:end],
                        self._config.noise_sigma,
                        self._config.receive_overhead,
                        self._collect_traces,
                        self._grid.num_nodes,
                    ),
                    units=chunk_units[index],
                )
                for index, (start, end) in enumerate(bounds)
            ]
            shipment = None
        elif kind == "remote":
            # Per-chunk wire bundles (see _batch._remote_chunk_jobs): every
            # frame carries only the arrays its chunk runs; nothing to
            # unlink afterwards, the frames own their bytes.
            handles = [
                self._pool.submit(
                    _batch._execute_shipped_chunk, job, units=chunk_units[index]
                )
                for index, job in enumerate(
                    _batch._remote_chunk_jobs(
                        compiled,
                        seeds,
                        resets,
                        bounds,
                        self._config,
                        self._collect_traces,
                        self._grid.num_nodes,
                    )
                )
            ]
            shipment = None
        else:
            shipment, metas, index_of = _batch._ship_compiled(
                compiled, self._collect_traces, self._transport
            )
            entries = [
                (index_of[id(prog)], seed, reset)
                for prog, seed, reset in zip(compiled, seeds, resets)
            ]
            handles = []
            for chunk_index, (start, end) in enumerate(bounds):
                chunk_entries = entries[start:end]
                needed = {unique_index for unique_index, _, _ in chunk_entries}
                job = (
                    start,
                    shipment,
                    {index: metas[index] for index in needed},
                    chunk_entries,
                    self._config.noise_sigma,
                    self._config.receive_overhead,
                    self._collect_traces,
                    self._grid.num_nodes,
                )
                handles.append(
                    self._pool.submit(
                        _batch._execute_shipped_chunk,
                        job,
                        units=chunk_units[chunk_index],
                    )
                )
        self._pending.append(
            ("async", handles, shipment, units, len(normalized))
        )

    def _bounds(
        self,
        tasks: Sequence[_batch.ExecutionTask],
        costs: Sequence[float],
        units: float,
    ) -> list[tuple[int, int]]:
        """Worker chunk boundaries for one submission.

        Adaptive chunking splits into up to ``pool.workers`` cost-balanced
        chunks — but only when the batch's estimated wall time (cost model)
        is worth the per-chunk overhead *and* its unit costs are skewed
        enough that balancing matters (:data:`SPLIT_MIN_SKEW`); tiny or
        uniform batches stay whole and ride the inter-batch pipeline.

        On a remote pool whose fleet is heterogeneous (estimated per-slot
        throughputs skewed at least
        :data:`~repro.runtime.chunking.FLEET_SKEW_MIN` apart —
        ``partition_weights``), the split is *weighted*: chunks are sized
        proportionally to the slots' throughput, and even a cost-uniform
        batch is split, because on a skewed fleet equal chunks are exactly
        the imbalance.  Homogeneous fleets and local pools keep the
        historical uniform behaviour.
        """
        workers = self._pool.workers
        if (
            self._chunking != "adaptive"
            or workers < 2
            or self._cost_model.seconds_for(units) < SPLIT_MIN_SECONDS
        ):
            return [(0, len(tasks))]
        chain_units = _batch._chain_units(tasks)
        if len(chain_units) < 2:
            return [(0, len(tasks))]
        fleet = getattr(self._pool, "partition_weights", None)
        weights = fleet() if fleet is not None else None
        if weights is not None and (
            min(weights) <= 0.0
            or max(weights) < FLEET_SKEW_MIN * min(weights)
        ):
            weights = None
        unit_costs = aggregate_unit_costs(chain_units, costs)
        if weights is not None:
            return partition_by_cost(
                chain_units, unit_costs, len(weights), weights=weights
            )
        if max(unit_costs) < SPLIT_MIN_SKEW * max(min(unit_costs), 1.0):
            return [(0, len(tasks))]
        return partition_by_cost(chain_units, unit_costs, workers)

    def _collect(self, entry: tuple) -> list[ExecutionResult]:
        """Gather one async entry's chunks (blocking) and feed the model."""
        _, handles, shipment, units, count = entry
        results: list[ExecutionResult | None] = [None] * count
        elapsed = 0.0
        try:
            for handle in handles:
                start, values, seconds = handle.get()
                results[start : start + len(values)] = values
                elapsed += seconds
        finally:
            if shipment is not None:
                shipment.unlink()
        self._cost_model.observe(units, elapsed)
        return results  # type: ignore[return-value]

    def _harvest(self) -> None:
        """Collapse finished async entries without blocking on running ones."""
        for index, entry in enumerate(self._pending):
            if entry[0] != "async":
                continue
            if not all(handle.ready() for handle in entry[1]):
                continue
            self._pending[index] = ("sync", self._collect(entry))

    def finish(self) -> list[ExecutionResult]:
        """Wait for every submitted batch; results flattened in submit order.

        Every shipped batch is unlinked whether or not its worker succeeded,
        so a failing chunk never strands the other batches' shared-memory
        segments.
        """
        if self._finished:
            raise RuntimeError("PipelinedExecutor.finish() was already called")
        self._finished = True
        pending, self._pending = self._pending, []
        results: list[ExecutionResult] = []
        failure: BaseException | None = None
        for entry in pending:
            if entry[0] == "sync":
                results.extend(entry[1])
                continue
            if failure is None:
                try:
                    results.extend(self._collect(entry))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failure = exc
            elif entry[2] is not None:
                # Draining the remaining shipments is best-effort cleanup;
                # it must never mask the root-cause failure above.
                try:
                    entry[2].unlink()
                except Exception:
                    pass
        # Persist whatever was observed (opt-in via REPRO_COST_CACHE) so the
        # next study's first split starts from measured throughput.
        save_cost_model(self._cost_key, self._cost_model)
        if failure is not None:
            raise failure
        return results

    def abort(self) -> None:
        """Drop every submitted batch and release its shipment.

        For callers whose *construction* fails mid-stream: already-submitted
        work is abandoned (workers may still be executing it — unlinking is
        safe, their mappings survive until they finish) and the executor
        becomes unusable.
        """
        self._finished = True
        pending, self._pending = self._pending, []
        for entry in pending:
            if entry[0] == "async" and entry[2] is not None:
                entry[2].unlink()
