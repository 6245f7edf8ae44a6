"""Batched execution of many independent (or chained) communication programs.

The practical study (paper §7, Figures 5/6) measures one discrete-event
execution per (heuristic, message size) — plus the binomial baseline — on the
same grid.  Run through :func:`~repro.simulator.execution.execute_program`
each message pays for a topology lookup, a fresh
:class:`~repro.model.plogp.PLogPParameters` object, a piecewise gap-function
evaluation, a callback closure and a trace dataclass; the per-message Python
overhead dwarfs the arithmetic.  This module executes a whole batch of
programs in one pass instead:

* every program is **compiled** once — its flat per-rank message arrays
  (:class:`~repro.simulator.program.CommunicationProgram`'s own CSR form)
  plus per-message gap/latency, gathered for the whole batch at once from
  per-size (cluster x cluster) tables that evaluate each pair present once —
  so the hot loop touches only plain numbers;
* NIC occupancy, activation and completion state live in flat per-rank state
  rows keyed per program, advanced by a per-program delivery-event heap
  (programs are independent, so running them back to back is observationally
  identical to interleaving their events — and keeps each program's state row
  cache-hot);
* long send bursts (a flat scatter root, an all-to-all coordinator) are
  issued vectorised — noise included, via masked bulk log-normal draws — while
  short bursts take a scalar fast path; both reproduce the reference
  arithmetic operation-for-operation;
* each program owns its own noise stream (``noise_seed``), which is what
  makes batching, reordering and multiprocessing fan-out bit-preserving;
* a task may instead declare ``reset_network=False`` to **chain** onto the
  previous task's warm network — NIC backlog and the noise stream carry over,
  exactly like the scalar engine's ``execute_program(reset_network=False)`` —
  which is how back-to-back collective pipelines (scatter→all-to-all,
  repeated broadcasts) are measured as one workload.

Worker fan-out goes through the runtime layer.  On the **process lane** the
batch is compiled **once in the parent**, the compiled arrays ship to the
persistent :class:`~repro.runtime.pool.StudyPool` via shared memory
(:mod:`repro.runtime.transport`; pickle fallback), and each worker executes
a chain-respecting slice against zero-copy views; the **remote lane** frames
per-chunk array bundles to worker agents instead.
:func:`repro.runtime.pool.choose_lane` picks the lane per call
(``executor="auto"`` keeps batches too small to amortise shipping inline).
Worker chunks are sized from per-task cost (message counts) rather than
task counts, so a mixed scatter/all-to-all workload balances across
workers.

The scalar :func:`~repro.simulator.execution.execute_program` remains the
reference engine: ``engine="scalar"`` runs it program by program on
identically-seeded fresh (or chained warm) networks, and the equivalence
suite (``tests/test_simulator_batch.py``, ``tests/test_runtime.py``) asserts
that both engines produce bit-identical makespans, activation/completion
vectors and traces for every collective shape, noise on and off, at any
worker count, over either transport.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulator.execution import ExecutionResult, MessageRecord, execute_program
from repro.simulator.network import NetworkConfig, SimulatedNetwork
from repro.simulator.program import CommunicationProgram
from repro.topology.grid import Grid
from repro.utils.rng import RandomStream

#: Send bursts at least this long are issued through the vectorised NumPy
#: path; shorter bursts (the common broadcast case of 1–6 sends per rank) are
#: cheaper through the scalar fast path.  Both paths are bit-identical, so the
#: threshold is purely a performance knob.
VECTOR_MIN_SENDS = 12

#: Valid ``engine=`` values of :func:`execute_programs` (and the study
#: drivers built on it): the batched engine and the scalar reference loop.
ENGINES = ("batched", "scalar")


@dataclass(frozen=True)
class ExecutionTask:
    """One program to execute, with its per-program measurement context.

    Attributes
    ----------
    program:
        The communication program.
    initially_active:
        Extra ranks activated at time zero, merged with the program's own
        ``initially_active`` declaration (kept for callers that overlay a
        pattern on a plain program).
    noise_seed:
        Seed of this program's private noise stream.  ``None`` falls back to
        the network config's seed.  Spawning one child seed per task (see
        :meth:`repro.utils.rng.RandomStream.spawn_seed`) is what makes noisy
        batches independent of execution order and worker count.
    reset_network:
        ``True`` (default) executes on a fresh network.  ``False`` chains
        onto the immediately preceding task: NIC occupancy and the noise
        stream carry over, mirroring the scalar engine's
        ``execute_program(reset_network=False)``.  Chained tasks cannot carry
        their own ``noise_seed`` (the chain head's stream continues), and the
        executor never splits a chain across workers.
    """

    program: CommunicationProgram
    initially_active: tuple[int, ...] = ()
    noise_seed: int | None = None
    reset_network: bool = True


class _CompiledProgram:
    """One program's message arrays plus their noise-free pLogP values.

    Messages are stored rank-major (``indptr[rank] : indptr[rank + 1]``), in
    program send order — the program's own CSR form, as plain lists for the
    hot loop (plus ``size``/``tag`` when traces are collected).
    ``gap``/``latency`` hold the noise-free pLogP values gathered from the
    batch's cluster-pair tables — bitwise the same numbers
    :meth:`~repro.simulator.network.SimulatedNetwork.transmit` would compute
    per message — both as NumPy arrays (vector path) and plain lists (scalar
    path).  A compiled program is read-only during execution, so one compile
    serves replicas, chains and every worker that receives it.
    """

    __slots__ = (
        "program",
        "name",
        "num_ranks",
        "roots",
        "indptr",
        "dest",
        "size",
        "tag",
        "gap",
        "latency",
        "gap_list",
        "latency_list",
        "max_draws",
    )

    def __init__(
        self,
        task: ExecutionTask,
        gap: np.ndarray,
        latency: np.ndarray,
        lean: bool = False,
    ) -> None:
        program = task.program
        self.program = program
        self.name = program.name
        self.num_ranks = program.num_ranks
        self.roots = program.start_ranks(task.initially_active)
        for rank in self.roots:
            if not 0 <= rank < program.num_ranks:
                raise ValueError(f"initially active rank {rank} out of range")
        self.indptr = program.indptr.tolist()
        self.dest = program.dest.tolist()
        if lean:
            self.size = self.tag = None
        else:
            tags = program.tags
            self.size = program.size.tolist()
            self.tag = [tags[code] for code in program.tag_code.tolist()]
        self.gap = gap
        self.latency = latency
        self.gap_list = gap.tolist()
        self.latency_list = latency.tolist()
        # Upper bound on noise draws: one per nonzero gap/latency value.  The
        # bound is only unreached when some sender never activates (its sends
        # never execute); pre-drawing extra values is harmless because every
        # executed message consumes the same stream positions either way.
        self.max_draws = int(np.count_nonzero(gap) + np.count_nonzero(latency))


class _PairTables:
    """Per-size ``(cluster, cluster)`` tables of evaluated pLogP values.

    ``gaps[size]`` holds ``gap(size)`` and ``latency`` the (size-free)
    latency for a message between any node of cluster ``ci`` and any node of
    cluster ``cj`` at flat index ``ci * num_clusters + cj`` (NaN until first
    use) — the values :meth:`~repro.topology.grid.Grid.node_link_parameters`
    would produce, evaluated once per pair present and shared by every
    program of the batch.
    """

    __slots__ = ("grid", "num_clusters", "cluster_of", "gaps", "latency")

    def __init__(self, grid: Grid) -> None:
        # Imported here: repro.mpi imports this package.
        from repro.mpi.bcast import rank_layout

        self.grid = grid
        self.num_clusters = grid.num_clusters
        self.cluster_of = rank_layout(grid)[1]
        self.gaps: dict[float, np.ndarray] = {}
        self.latency = np.full(self.num_clusters**2, np.nan)

    def gather(
        self, programs: Sequence[CommunicationProgram]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-message ``(gap, latency)`` of ``programs``, concatenated."""
        dest = np.concatenate([program.dest for program in programs])
        if not dest.size:
            return np.empty(0), np.empty(0)
        senders = np.concatenate([program.senders() for program in programs])
        cells = self.num_clusters**2
        pair = self.cluster_of[senders] * self.num_clusters + self.cluster_of[dest]
        unique, inverse = np.unique(
            np.concatenate([program.size for program in programs]),
            return_inverse=True,
        )
        sizes = unique.tolist()
        for size in sizes:
            if size not in self.gaps:
                self.gaps[size] = np.full(cells, np.nan)
        flat = inverse * cells + pair

        def gather_gaps() -> np.ndarray:
            return np.stack([self.gaps[size] for size in sizes]).ravel()[flat]

        gap = gather_gaps()
        missing = np.flatnonzero(np.isnan(gap))
        if missing.size:
            # Evaluate each (size, pair) not seen before through its first
            # message, then gather again.
            _, first = np.unique(flat[missing], return_index=True)
            for index in missing[first].tolist():
                params = self.grid.node_link_parameters(
                    int(senders[index]), int(dest[index])
                )
                size = sizes[inverse[index]]
                self.gaps[size][pair[index]] = params.gap(size)
                self.latency[pair[index]] = params.latency
            gap = gather_gaps()
        return gap, self.latency[pair]


class _BatchCompiler:
    """Parent-side compile state of one batch on one grid.

    Holds the cluster-pair tables and the compiled cache (a program
    appearing in several tasks — noise replicas, chained stages — compiles
    once; the compiled form is read-only during execution).
    """

    __slots__ = ("grid", "lean", "tables", "cache")

    def __init__(self, grid: Grid, collect_traces: bool) -> None:
        self.grid = grid
        self.lean = not collect_traces
        self.tables = _PairTables(grid)
        self.cache: dict[tuple[int, tuple[int, ...]], _CompiledProgram] = {}

    def compile(self, tasks: Sequence[ExecutionTask]) -> list[_CompiledProgram]:
        """The compiled form of every task, gathering new programs in one pass."""
        keys = [(id(task.program), tuple(task.initially_active)) for task in tasks]
        fresh: dict[tuple[int, tuple[int, ...]], ExecutionTask] = {}
        for key, task in zip(keys, tasks):
            if key in self.cache or key in fresh:
                continue
            if task.program.num_ranks > self.grid.num_nodes:
                raise ValueError(
                    f"program spans {task.program.num_ranks} ranks but the network "
                    f"only has {self.grid.num_nodes}"
                )
            fresh[key] = task
        if fresh:
            gap, latency = self.tables.gather([task.program for task in fresh.values()])
            start = 0
            for key, task in fresh.items():
                end = start + task.program.total_messages()
                self.cache[key] = _CompiledProgram(
                    task, gap[start:end], latency[start:end], lean=self.lean
                )
                start = end
        return [self.cache[key] for key in keys]


def _run_compiled(
    prog: _CompiledProgram,
    noise: np.ndarray | None,
    overhead: float,
    collect_traces: bool,
    nic_free: list[float],
) -> tuple[ExecutionResult, int]:
    """Execute one compiled program against per-rank array state.

    ``nic_free`` is the (caller-owned) per-rank NIC availability row: all
    zeros for a fresh network, or the carried-over row of the previous task
    of a warm chain.  Activation and completion are per-execution either way,
    exactly like the scalar engine.  Returns the result plus the number of
    noise draws actually consumed, which a chain needs to keep its stream
    aligned with the scalar reference.

    The delivery heap is local to the program, so its (time, sequence)
    ordering is exactly the scalar engine's — interleaving with other
    programs of the batch never reorders a program's own ties.
    """
    n = prog.num_ranks
    indptr = prog.indptr
    dest = prog.dest
    gap_list = prog.gap_list
    latency_list = prog.latency_list
    active = bytearray(n)
    activation = [0.0] * n
    completion = [0.0] * n
    noisy = noise is not None
    draws = noise.tolist() if noisy else []
    position = 0
    trace: list[tuple] | None = [] if collect_traces else None
    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    sequence = 0

    def issue_sends(rank: int, now: float) -> None:
        nonlocal sequence, position
        lo = indptr[rank]
        hi = indptr[rank + 1]
        count = hi - lo
        if count >= VECTOR_MIN_SENDS:
            gaps = prog.gap[lo:hi]
            lats = prog.latency[lo:hi]
            if noisy:
                # Interleave gap0, lat0, gap1, lat1, ... so the draws are
                # consumed in exactly the scalar transmit order (zero-valued
                # entries draw nothing, like _perturb).
                base = np.empty(2 * count)
                base[0::2] = gaps
                base[1::2] = lats
                mask = base != 0.0
                used = int(mask.sum())
                factors = np.ones(2 * count)
                factors[mask] = noise[position : position + used]
                position += used
                perturbed = base * factors
                gaps = perturbed[0::2]
                lats = perturbed[1::2]
                chain = gaps
            else:
                chain = gaps.copy()
            start0 = max(now, nic_free[rank])
            chain[0] += start0
            releases = np.cumsum(chain)
            deliveries = releases + lats + overhead
            release_list = releases.tolist()
            last_release = release_list[-1]
            nic_free[rank] = last_release
            completion[rank] = max(completion[rank], last_release)
            delivery_list = deliveries.tolist()
            for offset, delivery in enumerate(delivery_list):
                destination = dest[lo + offset]
                if active[destination]:
                    # Already-active receivers need no event: the delivery
                    # can only raise their completion, and max() is
                    # order-independent, so fold it in right away.
                    if delivery > completion[destination]:
                        completion[destination] = delivery
                else:
                    push(heap, (delivery, sequence, lo + offset))
                    sequence += 1
            if trace is not None:
                start_list = [start0] + release_list[:-1]
                for offset in range(count):
                    index = lo + offset
                    trace.append(
                        (
                            rank,
                            dest[index],
                            prog.size[index],
                            now,
                            start_list[offset],
                            delivery_list[offset],
                            prog.tag[index],
                        )
                    )
        elif noisy:
            nic = nic_free[rank]
            for index in range(lo, hi):
                gap = gap_list[index]
                lat = latency_list[index]
                if gap != 0.0:
                    gap = gap * draws[position]
                    position += 1
                if lat != 0.0:
                    lat = lat * draws[position]
                    position += 1
                start = now if now >= nic else nic
                release = start + gap
                delivery = release + lat + overhead
                nic = release
                destination = dest[index]
                if active[destination]:
                    if delivery > completion[destination]:
                        completion[destination] = delivery
                else:
                    push(heap, (delivery, sequence, index))
                    sequence += 1
                if trace is not None:
                    trace.append(
                        (
                            rank,
                            dest[index],
                            prog.size[index],
                            now,
                            start,
                            delivery,
                            prog.tag[index],
                        )
                    )
            nic_free[rank] = nic
            completion[rank] = max(completion[rank], nic)
        else:
            nic = nic_free[rank]
            for index in range(lo, hi):
                start = now if now >= nic else nic
                release = start + gap_list[index]
                delivery = release + latency_list[index] + overhead
                nic = release
                destination = dest[index]
                if active[destination]:
                    if delivery > completion[destination]:
                        completion[destination] = delivery
                else:
                    push(heap, (delivery, sequence, index))
                    sequence += 1
                if trace is not None:
                    trace.append(
                        (
                            rank,
                            dest[index],
                            prog.size[index],
                            now,
                            start,
                            delivery,
                            prog.tag[index],
                        )
                    )
            nic_free[rank] = nic
            completion[rank] = max(completion[rank], nic)

    # Flag every initially-active rank before issuing anything: the scalar
    # engine pops all time-zero activation events before the first delivery,
    # so during root bursts the whole root set already counts as active.
    for rank in prog.roots:
        active[rank] = 1
    for rank in prog.roots:
        if indptr[rank + 1] > indptr[rank]:
            issue_sends(rank, 0.0)

    while heap:
        time, _, index = pop(heap)
        destination = dest[index]
        if time > completion[destination]:
            completion[destination] = time
        if not active[destination]:
            active[destination] = 1
            activation[destination] = time
            lo = indptr[destination]
            hi = indptr[destination + 1]
            if hi - lo == 1:
                # Inlined single-send burst — the overwhelmingly common case
                # in tree-shaped programs; same arithmetic as issue_sends.
                gap = gap_list[lo]
                lat = latency_list[lo]
                if noisy:
                    if gap != 0.0:
                        gap = gap * draws[position]
                        position += 1
                    if lat != 0.0:
                        lat = lat * draws[position]
                        position += 1
                nic = nic_free[destination]
                start = time if time >= nic else nic
                release = start + gap
                nic_free[destination] = release
                if release > completion[destination]:
                    completion[destination] = release
                delivery = release + lat + overhead
                receiver = dest[lo]
                if active[receiver]:
                    if delivery > completion[receiver]:
                        completion[receiver] = delivery
                else:
                    push(heap, (delivery, sequence, lo))
                    sequence += 1
                if trace is not None:
                    trace.append(
                        (
                            destination,
                            dest[lo],
                            prog.size[lo],
                            time,
                            start,
                            delivery,
                            prog.tag[lo],
                        )
                    )
            elif hi > lo:
                issue_sends(destination, time)

    # Every time in the state rows is a plain Python float by construction
    # (heap entries and vector results pass through .tolist()), so result
    # materialisation is copy-only.
    activation_times: list[float | None] = [
        value if flag else None for value, flag in zip(activation, active)
    ]
    trace_records: list[MessageRecord] = []
    if trace is not None:
        trace_records = [
            MessageRecord(
                source=source,
                destination=destination,
                message_size=size,
                issue_time=issue,
                start_time=start,
                delivery_time=delivery,
                tag=tag,
            )
            for source, destination, size, issue, start, delivery, tag in trace
        ]
        trace_records.sort(key=lambda record: record.delivery_time)
    result = ExecutionResult(
        program_name=prog.name,
        activation_times=activation_times,
        completion_times=list(completion),
        trace=trace_records,
    )
    return result, position


def _run_task_sequence(
    compiled: Sequence[_CompiledProgram],
    seeds: Sequence[int],
    resets: Sequence[bool],
    sigma: float,
    overhead: float,
    collect_traces: bool,
    num_nodes: int,
) -> list[ExecutionResult]:
    """Execute compiled tasks in order, threading warm-chain state through.

    A task with ``resets[i]`` false continues the previous task's NIC row and
    noise stream.  The noise sequence of each program is still pre-drawn in
    one bulk call; when fewer draws are consumed than pre-drawn (a sender
    that never activates) and the chain continues, the stream is rewound and
    advanced by exactly the consumed count, so a chained successor sees
    bitwise the stream position the scalar engine's lazy draws would leave.
    """
    results: list[ExecutionResult] = []
    stream: RandomStream | None = None
    nic_free: list[float] | None = None
    count = len(compiled)
    for index in range(count):
        prog = compiled[index]
        if resets[index] or nic_free is None:
            nic_free = [0.0] * num_nodes
            stream = RandomStream(seed=seeds[index]) if sigma > 0.0 else None
        noise: np.ndarray | None = None
        state_before = None
        chain_continues = index + 1 < count and not resets[index + 1]
        if stream is not None and prog.max_draws:
            if chain_continues:
                state_before = stream.state
            noise = stream.lognormal_array(0.0, sigma, prog.max_draws)
        result, consumed = _run_compiled(
            prog, noise, overhead, collect_traces, nic_free
        )
        if chain_continues and noise is not None and consumed < prog.max_draws:
            stream.state = state_before
            if consumed:
                stream.lognormal_array(0.0, sigma, consumed)
        results.append(result)
    return results


def _task_seeds(tasks: Sequence[ExecutionTask], config: NetworkConfig) -> list[int]:
    return [
        task.noise_seed if task.noise_seed is not None else config.seed
        for task in tasks
    ]


def _execute_batch(
    grid: Grid,
    tasks: Sequence[ExecutionTask],
    config: NetworkConfig,
    collect_traces: bool,
) -> list[ExecutionResult]:
    """Run every task in one pass; the batched engine proper."""
    compiler = _BatchCompiler(grid, collect_traces)
    compiled = compiler.compile(tasks)
    return _run_task_sequence(
        compiled,
        _task_seeds(tasks, config),
        [task.reset_network for task in tasks],
        config.noise_sigma,
        config.receive_overhead,
        collect_traces,
        grid.num_nodes,
    )


def _execute_scalar(
    grid: Grid,
    tasks: Sequence[ExecutionTask],
    config: NetworkConfig,
    collect_traces: bool,
) -> list[ExecutionResult]:
    """The reference loop: one scalar execution per task, per-task seeds.

    Chained tasks (``reset_network=False``) reuse the previous task's
    network object without resetting it, so NIC backlog and the noise stream
    carry over — the ground truth the batched chain executor is verified
    against.
    """
    results = []
    network: SimulatedNetwork | None = None
    for task in tasks:
        if task.reset_network or network is None:
            network = SimulatedNetwork(
                grid,
                NetworkConfig(
                    noise_sigma=config.noise_sigma,
                    seed=task.noise_seed
                    if task.noise_seed is not None
                    else config.seed,
                    receive_overhead=config.receive_overhead,
                ),
            )
        result = execute_program(
            network,
            task.program,
            initially_active=task.initially_active,
            reset_network=task.reset_network,
        )
        if not collect_traces:
            result.trace = []
        results.append(result)
    return results


# -- worker fan-out -------------------------------------------------------------------


def _validate_tasks(tasks: Sequence[ExecutionTask]) -> None:
    for index, task in enumerate(tasks):
        if not task.reset_network:
            if index == 0:
                raise ValueError(
                    "the first task of a batch cannot have reset_network=False "
                    "(there is no previous network to chain onto)"
                )
            if task.noise_seed is not None:
                raise ValueError(
                    "a chained task (reset_network=False) continues the chain "
                    "head's noise stream and cannot carry its own noise_seed"
                )


def _chain_units(tasks: Sequence[ExecutionTask]) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` ranges of tasks that must stay together."""
    units: list[tuple[int, int]] = []
    start = 0
    for index in range(1, len(tasks)):
        if tasks[index].reset_network:
            units.append((start, index))
            start = index
    units.append((start, len(tasks)))
    return units


def _chunk_bounds(
    tasks: Sequence[ExecutionTask],
    costs: Sequence[float],
    worker_count: int,
) -> list[tuple[int, int]]:
    """Chain-respecting worker chunk boundaries for one fan-out.

    Chunks are balanced by per-task *cost* (the program message counts of
    ``costs``) so an all-to-all task — ~20x a bcast task — does not strand
    a count-balanced chunk.  Chunks never split a warm chain, and chunking
    never affects results (each task owns its seed).
    """
    from repro.runtime.chunking import (
        CHUNKS_PER_WORKER,
        aggregate_unit_costs,
        partition_by_cost,
    )

    units = _chain_units(tasks)
    return partition_by_cost(
        units,
        aggregate_unit_costs(units, costs),
        worker_count * CHUNKS_PER_WORKER,
    )


def _execute_scalar_chunk(args) -> tuple[int, list[ExecutionResult]]:
    """Scalar-engine worker body: one pickled slice of the task list.

    The grid, the config and the tasks themselves travel with the job and
    run through the scalar reference loop.
    """
    start, grid, tasks, config, collect_traces = args
    return start, _execute_scalar(grid, tasks, config, collect_traces)


def _bundle_compiled(
    compiled: Sequence[_CompiledProgram], collect_traces: bool
):
    """Concatenate the distinct compiled programs of a batch for shipping.

    Returns ``(arrays, metas, index_of)``: the named message-array bundle of
    every distinct compiled program, the per-program reconstruction
    metadata, and the ``id() -> unique index`` map used to translate
    per-task compiled references into shipped indices.  :func:`_ship_compiled`
    packs the bundle into an :class:`~repro.runtime.transport.ArrayShipment`
    for the local process lane; the remote lane bundles per *chunk* instead
    and wraps each bundle in a :class:`~repro.runtime.wire.WireShipment`, so
    a chunk's frame carries only the arrays that chunk actually runs.
    """
    index_of: dict[int, int] = {}
    unique: list[_CompiledProgram] = []
    for prog in compiled:
        if id(prog) not in index_of:
            index_of[id(prog)] = len(unique)
            unique.append(prog)

    metas: list[tuple] = []
    msg_start = 0
    ind_start = 0
    for prog in unique:
        message_count = len(prog.dest)
        metas.append(
            (
                prog.name,
                prog.num_ranks,
                tuple(prog.roots),
                prog.max_draws,
                msg_start,
                message_count,
                ind_start,
                None if prog.tag is None else list(prog.tag),
            )
        )
        msg_start += message_count
        ind_start += prog.num_ranks + 1

    def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate([np.asarray(part, dtype=dtype) for part in parts])

    arrays = {
        "gap": _concat([prog.gap for prog in unique], np.float64),
        "latency": _concat([prog.latency for prog in unique], np.float64),
        "dest": _concat([prog.dest for prog in unique], np.int64),
        "indptr": _concat([prog.indptr for prog in unique], np.int64),
    }
    if collect_traces:
        arrays["sizes"] = _concat([prog.size for prog in unique], np.float64)
    return arrays, metas, index_of


def _ship_compiled(
    compiled: Sequence[_CompiledProgram],
    collect_traces: bool,
    transport: str | None,
):
    """Pack one batch-wide :func:`_bundle_compiled` bundle for the local
    process lane (shared memory when available, pickle fallback)."""
    from repro.runtime.transport import ArrayShipment

    arrays, metas, index_of = _bundle_compiled(compiled, collect_traces)
    return ArrayShipment.pack(arrays, transport=transport), metas, index_of


def _remote_chunk_jobs(
    compiled: Sequence[_CompiledProgram],
    seeds: Sequence[int],
    resets: Sequence[bool],
    bounds: Sequence[tuple[int, int]],
    config: NetworkConfig,
    collect_traces: bool,
    num_nodes: int,
) -> list[tuple]:
    """One :func:`_execute_shipped_chunk` job per chunk, arrays per chunk.

    On the remote lane every job is framed and sent separately (and may be
    re-sent verbatim to another agent after a loss), so sharing one
    batch-wide shipment would copy the *whole batch's* arrays into every
    chunk's frame.  Each chunk instead gets its own
    :class:`~repro.runtime.wire.WireShipment` bundling exactly the distinct
    programs it runs — the wire protocol ships it as raw buffers and the
    agent re-packs it into local shared memory for its own workers.
    """
    from repro.runtime.wire import WireShipment

    jobs: list[tuple] = []
    for start, end in bounds:
        arrays, metas, index_of = _bundle_compiled(
            compiled[start:end], collect_traces
        )
        entries = [
            (index_of[id(prog)], seed, reset)
            for prog, seed, reset in zip(
                compiled[start:end], seeds[start:end], resets[start:end]
            )
        ]
        jobs.append(
            (
                start,
                WireShipment(arrays),
                dict(enumerate(metas)),
                entries,
                config.noise_sigma,
                config.receive_overhead,
                collect_traces,
                num_nodes,
            )
        )
    return jobs


def _rebuild_shipped(
    meta: tuple, arrays: dict[str, np.ndarray], collect_traces: bool
) -> _CompiledProgram:
    """Reconstruct a compiled program from shipped arrays (worker side).

    The NumPy ``gap``/``latency`` segments stay zero-copy views into the
    shipment; the hot-loop list mirrors are materialised locally (a C-level
    ``tolist``), exactly as the parent-side compiler does.
    """
    name, num_ranks, roots, max_draws, msg_start, count, ind_start, tags = meta
    prog = _CompiledProgram.__new__(_CompiledProgram)
    prog.program = None
    prog.name = name
    prog.num_ranks = num_ranks
    prog.roots = list(roots)
    gap = arrays["gap"][msg_start : msg_start + count]
    latency = arrays["latency"][msg_start : msg_start + count]
    prog.gap = gap
    prog.latency = latency
    prog.gap_list = gap.tolist()
    prog.latency_list = latency.tolist()
    prog.dest = arrays["dest"][msg_start : msg_start + count].tolist()
    prog.indptr = arrays["indptr"][ind_start : ind_start + num_ranks + 1].tolist()
    prog.size = (
        arrays["sizes"][msg_start : msg_start + count].tolist()
        if collect_traces
        else None
    )
    prog.tag = tags
    prog.max_draws = max_draws
    return prog


def _execute_shipped_chunk(args) -> tuple[int, list[ExecutionResult]]:
    """Runtime multiprocessing adapter: execute a chunk against a shipment.

    The job carries only the shipment handle, the reconstruction metadata of
    the programs this chunk actually runs, and per-task ``(unique index,
    seed, reset)`` entries — never the grid or the programs themselves.
    """
    (
        start,
        shipment,
        metas,
        entries,
        sigma,
        overhead,
        collect_traces,
        num_nodes,
    ) = args
    arrays = shipment.load()
    rebuilt = {
        unique_index: _rebuild_shipped(meta, arrays, collect_traces)
        for unique_index, meta in metas.items()
    }
    compiled = [rebuilt[unique_index] for unique_index, _, _ in entries]
    results = _run_task_sequence(
        compiled,
        [seed for _, seed, _ in entries],
        [reset for _, _, reset in entries],
        sigma,
        overhead,
        collect_traces,
        num_nodes,
    )
    # Drop every view into the shipment before unmapping it.
    compiled = rebuilt = arrays = None
    shipment.close()
    return start, results


def _execute_with_runtime_pool(
    grid: Grid,
    tasks: list[ExecutionTask],
    config: NetworkConfig,
    collect_traces: bool,
    worker_count: int,
    transport: str | None,
    pool,
) -> list[ExecutionResult]:
    """Process/remote lane: compile once in the parent, ship to ``pool``."""
    from repro.runtime.chunking import compiled_cost

    compiler = _BatchCompiler(grid, collect_traces)
    compiled = compiler.compile(tasks)
    seeds = _task_seeds(tasks, config)
    resets = [task.reset_network for task in tasks]
    costs = [compiled_cost(prog) for prog in compiled]
    bounds = _chunk_bounds(tasks, costs, worker_count)
    results: list[ExecutionResult | None] = [None] * len(tasks)
    if getattr(pool, "kind", "process") == "remote":
        # Per-chunk wire bundles: each frame carries only its own arrays.
        jobs = _remote_chunk_jobs(
            compiled, seeds, resets, bounds, config, collect_traces,
            grid.num_nodes,
        )
        pending = [
            pool.submit(
                _execute_shipped_chunk,
                job,
                units=float(sum(costs[start:end])),
            )
            for job, (start, end) in zip(jobs, bounds)
        ]
        for handle in pending:
            start, values = handle.get()
            results[start : start + len(values)] = values
        return results  # type: ignore[return-value]
    shipment, metas, index_of = _ship_compiled(compiled, collect_traces, transport)
    entries = [
        (index_of[id(prog)], seed, reset)
        for prog, seed, reset in zip(compiled, seeds, resets)
    ]
    try:
        pending = []
        for start, end in bounds:
            chunk_entries = entries[start:end]
            needed = {unique_index for unique_index, _, _ in chunk_entries}
            job = (
                start,
                shipment,
                {unique_index: metas[unique_index] for unique_index in sorted(needed)},
                chunk_entries,
                config.noise_sigma,
                config.receive_overhead,
                collect_traces,
                grid.num_nodes,
            )
            pending.append(pool.submit(_execute_shipped_chunk, job))
        for handle in pending:
            start, values = handle.get()
            results[start : start + len(values)] = values
    finally:
        shipment.unlink()
    return results  # type: ignore[return-value]


def _execute_scalar_with_pool(
    grid: Grid,
    tasks: list[ExecutionTask],
    config: NetworkConfig,
    collect_traces: bool,
    worker_count: int,
    pool,
) -> list[ExecutionResult]:
    """Scalar-engine fan-out: task slices submitted to ``pool`` as they are.

    The scalar reference engine executes task slices directly (no compiled
    arrays to ship), priced like every other fan-out by the summed
    :func:`~repro.runtime.chunking.program_cost` of each slice.  Per-task
    seeds keep the results bit-identical to the inline loop.
    """
    from repro.runtime.chunking import program_cost

    costs = [program_cost(task.program) for task in tasks]
    bounds = _chunk_bounds(tasks, costs, worker_count)
    pending = [
        pool.submit(
            _execute_scalar_chunk,
            (start, grid, tasks[start:end], config, collect_traces),
            units=float(sum(costs[start:end])),
        )
        for start, end in bounds
    ]
    results: list[ExecutionResult | None] = [None] * len(tasks)
    for handle in pending:
        start, values = handle.get()
        results[start : start + len(values)] = values
    return results  # type: ignore[return-value]


def execute_programs(
    grid: Grid,
    tasks: Sequence[ExecutionTask | CommunicationProgram],
    *,
    config: NetworkConfig | None = None,
    collect_traces: bool = True,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    transport: str | None = None,
    pool=None,
    hosts: str | None = None,
) -> list[ExecutionResult]:
    """Execute many independent (or chained) programs, results in order.

    Parameters
    ----------
    grid:
        The topology every program runs on.
    tasks:
        :class:`ExecutionTask` entries (bare programs are accepted and wrapped
        with default context).  Tasks with ``reset_network=False`` chain onto
        their predecessor's warm network; chains are never split across
        workers.
    config:
        Shared network behaviour (noise sigma, fallback seed, receive
        overhead); per-task ``noise_seed`` overrides the seed.
    collect_traces:
        Keep the full message trace of every execution; pass ``False`` for
        makespan-only sweeps (the practical study does).
    workers:
        Optional fan-out over chain-respecting chunks of the task list;
        ``None`` consults the shared ``REPRO_WORKERS`` environment variable,
        and ``0``/``1`` run in-process.  Results are identical at any worker
        count because every task carries its own noise seed.
    engine:
        ``"batched"`` (default) or ``"scalar"`` — the scalar reference loop
        used by the equivalence suite and as the benchmark baseline.
    executor:
        Which fan-out lane to use: ``"process"``
        (:class:`~repro.runtime.pool.StudyPool` + transport), ``"remote"``
        (:class:`~repro.runtime.remote.RemoteStudyPool` — chunks shipped
        over sockets to worker agents, see ``hosts``), or ``"auto"`` —
        inline when the batch's total estimated cost is too small to
        amortise shipping, processes otherwise (never remote).  ``None``
        consults the ``REPRO_EXECUTOR`` environment variable, then defaults
        to ``"auto"``.  Naming a transport pins ``"auto"`` to the process
        lane (the lane that ships).  All lanes are bit-identical; the rules
        live in :func:`~repro.runtime.pool.choose_lane`.
    transport:
        How batches reach *process* workers (ignored in-process):
        ``"auto"`` (default, shared memory when available), ``"shm"`` or
        ``"pickle"``.  The batched engine compiles once in the parent and
        reuses the persistent runtime pool; the scalar engine fans task
        slices out over the same pool.  Worker chunks are sized from
        per-task cost (program message counts) so mixed workloads balance.
    pool:
        An explicit :class:`~repro.runtime.pool.StudyPool` /
        :class:`~repro.runtime.remote.RemoteStudyPool` to submit to
        (defaults to the process-wide persistent pool of the chosen lane).
        A passed pool decides the lane, overriding ``executor``.
    hosts:
        Remote-lane agent addresses (``"host:port,host:port"``); only
        consulted when the remote lane is engaged.  ``None`` falls back to
        the ``REPRO_HOSTS`` environment variable, then to loopback mode
        (agents auto-spawned as local subprocesses).
    """
    from repro.runtime.chunking import EXECUTORS, program_cost
    from repro.runtime.pool import choose_lane
    from repro.runtime.transport import TRANSPORTS
    from repro.utils.workers import resolve_workers

    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if transport is not None and transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    config = config if config is not None else NetworkConfig()
    normalized = [
        task if isinstance(task, ExecutionTask) else ExecutionTask(program=task)
        for task in tasks
    ]
    _validate_tasks(normalized)
    worker_count = resolve_workers(workers)
    if len(normalized) > 1:  # a single task always runs inline
        pool, worker_count = choose_lane(
            executor,
            workers,
            worker_count,
            sum(program_cost(task.program) for task in normalized),
            pool=pool,
            transport=transport,
            hosts=hosts,
        )
        if pool is not None and engine == "scalar":
            return _execute_scalar_with_pool(
                grid, normalized, config, collect_traces, worker_count, pool
            )
        if pool is not None:
            return _execute_with_runtime_pool(
                grid, normalized, config, collect_traces, worker_count,
                transport, pool,
            )

    runner = _execute_batch if engine == "batched" else _execute_scalar
    return runner(grid, normalized, config, collect_traces)
