"""Batched execution of many independent (or chained) communication programs.

The practical study (paper §7, Figures 5/6) measures one discrete-event
execution per (heuristic, message size) — plus the binomial baseline — on the
same grid.  Run through :func:`~repro.simulator.execution.execute_program`
each message pays for a topology lookup, a piecewise gap-function evaluation,
an event-queue callback and a trace dataclass; the per-message Python
overhead dwarfs the arithmetic.  This module measures a whole batch in one
stacked relaxation pass instead:

* every task's program contributes its own CSR arrays (the
  :class:`~repro.simulator.program.CommunicationProgram` flat form); the
  tasks are concatenated once into one stack, whose per-message gap/latency
  is gathered in one pass from the per-size (cluster x cluster) node tables
  of :meth:`~repro.core.costs.GridCostCache.node_tables` — the same cached
  cost object the schedule phase reads;
* noise is keyed by message, not by event: every chain head's stream is
  opened by :func:`~repro.utils.rng.open_generators` in one vectorised
  seeding pass, each stream equal to the scalar engine's per-task
  :class:`~repro.utils.rng.RandomStream`, and each task draws ``2 * M``
  log-normal factors up front, message ``i`` (CSR order) scales
  its gap by factor ``2i`` and its latency by factor ``2i + 1`` — exactly
  what the scalar engine does through
  :meth:`~repro.simulator.network.SimulatedNetwork.draw_noise`;
* a rank's activation is the minimum delivery over its incoming messages
  (0 for the roots).  Each wave recomputes the sends of the ranks whose
  activation fell — their release chains summed left to right
  (``start = max(activation, nic)``, ``release_k = release_{k-1} + gap_k``,
  the scalar ``start + gap`` arithmetic) — and lowers the receivers with
  ``np.minimum.at``, over every task of the batch at once, until nothing
  falls; one path serves broadcasts, scatter, all-to-all and multi-receive
  gossip programs;
* a task may instead declare ``reset_network=False`` to **chain** onto the
  previous task's warm network — NIC backlog and the noise stream carry over,
  exactly like the scalar engine's ``execute_program(reset_network=False)``;
  chained tasks run one stacked pass per chain position, carrying the NIC
  row forward.

One stacked run leaves its per-rank and per-message arrays behind, and one
of two readers turns them into the answer: :func:`execute_programs` builds
an :class:`~repro.simulator.execution.ExecutionResult` per task (per-rank
activation and completion times, optional traces), while
:func:`execute_makespans` takes each task's makespan with one
``np.maximum.reduceat`` over the completion row and builds no result
object — the measured sweeps keep nothing else.

Worker fan-out goes through the runtime layer.  The batch is stacked
**once in the parent** and each worker runs a chain-respecting task range
of the stack.  A chunk ships one of two ways, picked from what the platform
offers: on the **process lane**, where shared memory works, the whole stack
goes to the persistent :class:`~repro.runtime.pool.StudyPool` in one
:class:`~repro.runtime.transport.ArrayShipment` and each worker reads its
range through zero-copy views; otherwise — and always on the **remote
lane** — each chunk carries a by-value slice of just its own range.
:func:`repro.runtime.pool.choose_lane` picks the lane per call
(``executor="auto"`` keeps batches too small to amortise shipping inline).
Worker chunks are sized from per-task cost (message counts) rather than
task counts, so a mixed scatter/all-to-all workload balances across
workers.

The scalar :func:`~repro.simulator.execution.execute_program` remains the
reference engine: ``engine="scalar"`` runs it program by program,
in-process, on identically-seeded fresh (or chained warm) networks, and the
equivalence suite (``tests/test_simulator_batch.py``, ``tests/test_runtime.py``,
``tests/test_properties.py``) asserts that both engines produce
bit-identical makespans, activation/completion vectors and traces for every
collective shape, noise on and off, at any worker count, over either
shipping path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.simulator.execution import ExecutionResult, MessageRecord, execute_program
from repro.simulator.network import NetworkConfig, SimulatedNetwork
from repro.simulator.program import CommunicationProgram
from repro.topology.grid import Grid
from repro.utils.rng import open_generators

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


def _node_costs(
    grid: Grid,
    indptr: np.ndarray,
    dest: np.ndarray,
    size: np.ndarray,
    num_ranks: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-message ``(gap, latency)`` of a stack of CSR programs.

    ``indptr`` holds each program's own ``num_ranks + 1`` offsets back to
    back, and ``dest``/``size`` its messages.  Each message reads its
    (sender cluster, receiver cluster) cell of its size's node tables
    (:meth:`~repro.core.costs.GridCostCache.node_tables`), taken through the
    shared :meth:`~repro.core.costs.GridCostCache.for_grid` cache: a grid's
    schedule phase and its batched simulation share one set of tables per
    message size.
    """
    # Imported here: repro.mpi imports this package.
    from repro.core.costs import GridCostCache
    from repro.mpi.bcast import rank_layout

    if not dest.size:
        return np.empty(0), np.empty(0)
    # Row r of the CSR stack is rank r - (its program's first row); the row
    # between two programs has a non-positive count.
    rows = np.add(num_ranks, 1)
    ends = np.cumsum(rows)
    local = np.arange(indptr.size - 1) - np.repeat(ends - rows, rows)[:-1]
    senders = np.repeat(local, np.maximum(np.diff(indptr), 0))
    cluster_of = rank_layout(grid)[1]
    cells = grid.num_clusters**2
    pair = cluster_of[senders] * grid.num_clusters + cluster_of[dest]
    # Sort only each run of equal sizes' head: a broadcast is one run.
    head = np.flatnonzero(np.r_[True, size[1:] != size[:-1]])
    unique, inverse = np.unique(size[head], return_inverse=True)
    inverse = np.repeat(inverse, np.diff(np.r_[head, size.size]))
    tables = [
        GridCostCache.for_grid(grid, value).node_tables() for value in unique.tolist()
    ]
    flat = inverse * cells + pair
    gap = np.concatenate([table[0].ravel() for table in tables])[flat]
    latency = np.concatenate([table[1].ravel() for table in tables])[flat]
    return gap, latency


def _stack_tasks(
    grid: Grid,
    tasks: Sequence[ExecutionTask],
    config: NetworkConfig,
    collect_traces: bool,
) -> tuple[dict[str, np.ndarray], list[tuple]]:
    """Concatenate every task's CSR arrays and noise-free pLogP values.

    Returns ``(arrays, metas)``.  ``arrays`` holds ``indptr`` (each task's
    own ``num_ranks + 1`` offsets, back to back), per-message ``dest``
    (task-local ranks), ``gap`` and ``latency``, plus ``size`` and
    ``tag_code`` when traces are kept.  ``metas`` holds one ``(name,
    num_ranks, roots, seed, reset, tags)`` tuple per task.  Task blocks are
    contiguous, so any task range is a slice of every array.
    """
    metas = []
    for task in tasks:
        program = task.program
        if program.num_ranks > grid.num_nodes:
            raise ValueError(
                f"program spans {program.num_ranks} ranks but the network "
                f"only has {grid.num_nodes}"
            )
        roots = program.start_ranks(task.initially_active)
        for rank in roots:
            if not 0 <= rank < program.num_ranks:
                raise ValueError(f"initially active rank {rank} out of range")
        metas.append(
            (
                program.name,
                program.num_ranks,
                tuple(roots),
                task.noise_seed if task.noise_seed is not None else config.seed,
                task.reset_network,
                program.tags if collect_traces else (),
            )
        )
    programs = [task.program for task in tasks]
    arrays = {
        "indptr": np.concatenate([program.indptr for program in programs]),
        "dest": np.concatenate([program.dest for program in programs]),
    }
    size = np.concatenate([program.size for program in programs])
    arrays["gap"], arrays["latency"] = _node_costs(
        grid, arrays["indptr"], arrays["dest"], size, [meta[1] for meta in metas]
    )
    if collect_traces:
        arrays["size"] = size
        arrays["tag_code"] = np.concatenate(
            [program.tag_code for program in programs]
        )
    return arrays, metas


def _relax(
    ptr: np.ndarray,
    dest: np.ndarray,
    gap: np.ndarray,
    latency: np.ndarray,
    overhead: float,
    nic: np.ndarray,
    activation: np.ndarray,
    release: np.ndarray,
    delivery: np.ndarray,
    roots: np.ndarray,
) -> None:
    """Relax the stacked program from ``roots`` until no activation falls.

    ``activation`` (``inf`` = not yet reached), ``release`` and ``delivery``
    are updated in place.  Each wave recomputes the whole send list of every
    rank whose activation fell: row ``r`` of a ``(senders, width + 1)``
    matrix holds ``start = max(activation, nic)`` followed by the rank's gaps,
    and a row-wise cumulative sum gives ``release_k = release_{k-1} + gap_k``
    summed left to right, exactly the scalar ``start + gap``.  Delivery times
    only fall with their sender's activation, so the ``np.minimum.at`` over
    every wave leaves each rank at the minimum of its final deliveries.
    """
    activation[roots] = 0.0
    degree = ptr[1:] - ptr[:-1]
    fell = np.zeros(activation.size, dtype=bool)
    frontier = roots
    while frontier.size:
        senders = frontier[degree[frontier] > 0]
        if not senders.size:
            return
        counts = degree[senders]
        stride = int(counts.max()) + 1
        offsets = np.cumsum(counts) - counts
        flat = np.arange(int(counts.sum()))
        messages = np.repeat(ptr[senders] - offsets, counts) + flat
        rows = np.arange(senders.size) * stride
        cells = np.repeat(rows + 1 - offsets, counts) + flat
        chain = np.zeros(senders.size * stride)
        chain[::stride] = np.maximum(activation[senders], nic[senders])
        chain[cells] = gap[messages]
        released = np.cumsum(chain.reshape(-1, stride), axis=1).ravel()[cells]
        arrived = (released + latency[messages]) + overhead
        release[messages] = released
        delivery[messages] = arrived
        targets = dest[messages]
        before = activation[targets]
        np.minimum.at(activation, targets, arrived)
        fell[targets[activation[targets] < before]] = True
        frontier = np.flatnonzero(fell)
        fell[frontier] = False


class _StackedRun(NamedTuple):
    """The arrays one :func:`_run_stacked` pass leaves behind.

    Rank ``r`` of task ``k`` is stacked rank ``rank_off[k] + r`` and its
    message ``i`` stacked message ``msg_off[k] + i``; every per-rank and
    per-message array is indexed in those stacked terms.
    """

    rank_off: np.ndarray
    msg_off: np.ndarray
    ptr: np.ndarray
    dest: np.ndarray
    sender: np.ndarray
    nic: np.ndarray
    activation: np.ndarray
    release: np.ndarray
    delivery: np.ndarray
    completion: np.ndarray
    active: np.ndarray
    sent: np.ndarray
    senders: np.ndarray


def _run_stacked(
    arrays: dict[str, np.ndarray],
    metas: Sequence[tuple],
    sigma: float,
    overhead: float,
    num_nodes: int,
) -> _StackedRun:
    """Execute a :func:`_stack_tasks` stack; the batched engine proper.

    Tasks that chain (``reset`` false) run one relaxation pass per chain
    position; every other task runs in the first pass.  Passes share the
    stacked state arrays, since every task owns its own rank and message
    block.  The run hands its arrays to one of two readers:
    :func:`_read_executions` (one :class:`ExecutionResult` per task) or
    :func:`_read_makespans` (one float per task).
    """
    count = len(metas)
    num_ranks = [meta[1] for meta in metas]
    rank_off = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(num_ranks, out=rank_off[1:])
    local_ptr = arrays["indptr"]
    segment_ends = rank_off[1:] + np.arange(1, count + 1)
    msg_count = local_ptr[segment_ends - 1]
    msg_off = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(msg_count, out=msg_off[1:])
    total_ranks = int(rank_off[-1])
    keep = np.ones(local_ptr.size, dtype=bool)
    keep[segment_ends - 1] = False
    ptr = np.empty(total_ranks + 1, dtype=np.int64)
    ptr[:-1] = local_ptr[keep] + np.repeat(msg_off[:-1], num_ranks)
    ptr[-1] = msg_off[-1]
    dest = arrays["dest"] + np.repeat(rank_off[:-1], msg_count)
    gap = arrays["gap"]
    latency = arrays["latency"]
    rank_bounds = rank_off.tolist()
    msg_bounds = msg_off.tolist()
    if sigma > 0.0:
        factors = np.empty(2 * msg_bounds[-1])
        # Every stack starts with a chain head (reset), which opens a stream;
        # the tasks chained onto it continue that stream.
        heads = iter(open_generators([meta[3] for meta in metas if meta[4]]))
        for index, meta in enumerate(metas):
            if meta[4]:
                generator = next(heads)
            lo, hi = msg_bounds[index], msg_bounds[index + 1]
            factors[2 * lo : 2 * hi] = generator.lognormal(0.0, sigma, 2 * (hi - lo))
        gap = gap * factors[0::2]
        latency = latency * factors[1::2]

    nic = np.zeros(total_ranks)
    activation = np.full(total_ranks, np.inf)
    release = np.zeros(msg_bounds[-1])
    delivery = np.zeros(msg_bounds[-1])
    degree = ptr[1:] - ptr[:-1]
    position = [0] * count
    for index in range(1, count):
        if not metas[index][4]:
            position[index] = position[index - 1] + 1
    # Each chain's NIC row over the whole network, keyed by the task that
    # reads it next.
    nic_rows: dict[int, np.ndarray] = {}
    for chain_position in range(max(position, default=-1) + 1):
        members = [
            index for index in range(count) if position[index] == chain_position
        ]
        roots = np.concatenate(
            [np.add(metas[index][2], rank_bounds[index]) for index in members]
        )
        _relax(
            ptr, dest, gap, latency, overhead, nic, activation, release,
            delivery, roots,
        )
        for index in members:
            if index + 1 == count or not position[index + 1]:
                continue
            # Hand the row on: the last release of every rank that sent, the
            # carried value everywhere else.
            lo, hi = rank_bounds[index], rank_bounds[index + 1]
            row = nic_rows.pop(index, None)
            if row is None:
                row = np.zeros(num_nodes)
            row[: hi - lo] = nic[lo:hi]
            sent = lo + np.flatnonzero(
                np.isfinite(activation[lo:hi]) & (degree[lo:hi] > 0)
            )
            row[sent - lo] = release[ptr[sent + 1] - 1]
            nic[hi : rank_bounds[index + 2]] = row[: num_ranks[index + 1]]
            nic_rows[index + 1] = row

    # Completion: the activation, every delivery received from an active
    # sender, and the rank's own last release.
    active = np.isfinite(activation)
    sender = np.repeat(np.arange(total_ranks), degree)
    sent = active[sender]
    completion = np.where(active, activation, 0.0)
    np.maximum.at(completion, dest[sent], delivery[sent])
    senders = np.flatnonzero(active & (degree > 0))
    last = ptr[senders + 1] - 1
    completion[senders] = np.maximum(completion[senders], release[last])
    return _StackedRun(
        rank_off, msg_off, ptr, dest, sender, nic, activation, release,
        delivery, completion, active, sent, senders,
    )


def _read_makespans(run: _StackedRun) -> np.ndarray:
    """Each task's makespan: the maximum of its ranks' completion times.

    A maximum is exact, so each value is bitwise the ``makespan`` of the
    task's :class:`ExecutionResult`; every program has at least one rank,
    so no segment is empty.
    """
    return np.maximum.reduceat(run.completion, run.rank_off[:-1])


def _read_executions(
    run: _StackedRun,
    arrays: dict[str, np.ndarray],
    metas: Sequence[tuple],
    collect_traces: bool,
) -> list[ExecutionResult]:
    """One :class:`ExecutionResult` per task: per-rank times and traces."""
    activation, sender, dest, delivery = (
        run.activation, run.sender, run.dest, run.delivery
    )
    if collect_traces:
        senders = run.senders
        start = np.empty_like(run.release)
        start[1:] = run.release[:-1]
        start[run.ptr[senders]] = np.maximum(activation[senders], run.nic[senders])

    activation_list: list[float | None] = activation.tolist()
    for rank in np.flatnonzero(~run.active).tolist():
        activation_list[rank] = None
    completion_list = run.completion.tolist()
    rank_bounds = run.rank_off.tolist()
    msg_bounds = run.msg_off.tolist()
    results = []
    for index, (name, _, _, _, _, tags) in enumerate(metas):
        lo, hi = rank_bounds[index], rank_bounds[index + 1]
        trace: list[MessageRecord] = []
        if collect_traces:
            first, end = msg_bounds[index], msg_bounds[index + 1]
            chosen = np.flatnonzero(run.sent[first:end]) + first
            # Delivery order; simultaneous deliveries in CSR message order.
            chosen = chosen[np.lexsort((chosen, delivery[chosen]))]
            trace = [
                MessageRecord(
                    source=source,
                    destination=destination,
                    message_size=size,
                    issue_time=issue,
                    start_time=begin,
                    delivery_time=arrival,
                    tag=tags[code],
                )
                for source, destination, size, issue, begin, arrival, code in zip(
                    (sender[chosen] - lo).tolist(),
                    (dest[chosen] - lo).tolist(),
                    arrays["size"][chosen].tolist(),
                    activation[sender[chosen]].tolist(),
                    start[chosen].tolist(),
                    delivery[chosen].tolist(),
                    arrays["tag_code"][chosen].tolist(),
                )
            ]
        results.append(
            ExecutionResult(
                program_name=name,
                activation_times=activation_list[lo:hi],
                completion_times=completion_list[lo:hi],
                trace=trace,
            )
        )
    return results


def _execute_stacked(
    arrays: dict[str, np.ndarray],
    metas: Sequence[tuple],
    sigma: float,
    overhead: float,
    output: str,
    num_nodes: int,
) -> list[ExecutionResult] | np.ndarray:
    """Run a stack and read it as ``output`` asks.

    ``output`` is ``"traces"`` or ``"results"`` (:class:`ExecutionResult`
    objects with or without traces, for :func:`execute_programs`), or
    ``"makespans"`` (one float per task, for :func:`execute_makespans`).
    """
    run = _run_stacked(arrays, metas, sigma, overhead, num_nodes)
    if output == "makespans":
        return _read_makespans(run)
    return _read_executions(run, arrays, metas, output == "traces")


def _execute_batch(
    grid: Grid,
    tasks: Sequence[ExecutionTask],
    config: NetworkConfig,
    output: str,
) -> list[ExecutionResult] | np.ndarray:
    """Stack every task and run the stack in-process."""
    arrays, metas = _stack_tasks(grid, tasks, config, output == "traces")
    return _execute_stacked(
        arrays,
        metas,
        config.noise_sigma,
        config.receive_overhead,
        output,
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
    chunks_per_worker: int | None = None,
) -> list[tuple[int, int]]:
    """Chain-respecting worker chunk boundaries for one fan-out.

    Chunks are balanced by per-task *cost* (the program message counts of
    ``costs``) so an all-to-all task — ~20x a bcast task — does not strand
    a count-balanced chunk.  Chunks never split a warm chain, and chunking
    never affects results (each task owns its seed).  ``chunks_per_worker``
    defaults to the runtime's shared ``CHUNKS_PER_WORKER``.
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
        worker_count * (chunks_per_worker or CHUNKS_PER_WORKER),
    )


def _task_windows(
    arrays: dict[str, np.ndarray],
    metas: Sequence[tuple],
    bounds: Sequence[tuple[int, int]],
) -> list[tuple[int, int, int, int]]:
    """``(indptr_lo, indptr_hi, message_lo, message_hi)`` of each task range."""
    ind_off = np.cumsum([0] + [meta[1] + 1 for meta in metas])
    msg_off = np.zeros(len(metas) + 1, dtype=np.int64)
    np.cumsum(arrays["indptr"][ind_off[1:] - 1], out=msg_off[1:])
    return [
        (int(ind_off[start]), int(ind_off[end]), int(msg_off[start]), int(msg_off[end]))
        for start, end in bounds
    ]


def _slice_stack(
    arrays: dict[str, np.ndarray], window: tuple[int, int, int, int]
) -> dict[str, np.ndarray]:
    """The sub-stack of one task range (views, no copies)."""
    ind_lo, ind_hi, msg_lo, msg_hi = window
    return {
        name: array[ind_lo:ind_hi] if name == "indptr" else array[msg_lo:msg_hi]
        for name, array in arrays.items()
    }


def _execute_shipped_chunk(args) -> tuple[int, list[ExecutionResult] | np.ndarray]:
    """Runtime worker body: run one task range of a shipped stack.

    The job carries the shipment handle, the range's window into it
    (``None`` when the shipment holds exactly this range, as a remote
    chunk's frame does) and the range's task metadata — never the grid or
    the programs themselves.  It returns the range's results, or one float
    array of its makespans when ``output`` is ``"makespans"``.
    """
    start, shipment, window, metas, sigma, overhead, output, num_nodes = args
    arrays = shipment.load()
    if window is not None:
        arrays = _slice_stack(arrays, window)
    values = _execute_stacked(arrays, metas, sigma, overhead, output, num_nodes)
    # Drop every view into the shipment before unmapping it.
    arrays = None
    shipment.close()
    return start, values


def _execute_with_runtime_pool(
    grid: Grid,
    tasks: list[ExecutionTask],
    config: NetworkConfig,
    output: str,
    worker_count: int,
    pool,
) -> list[ExecutionResult] | np.ndarray:
    """Process/remote lane: stack once in the parent, ship to ``pool``.

    On the process lane, where shared memory works, the whole stack goes
    into one :class:`~repro.runtime.transport.ArrayShipment` that every
    chunk reads through its window.  Otherwise each chunk carries a
    :class:`~repro.runtime.wire.WireShipment` of its own slice of the
    stack, so every task ships exactly once.  The remote lane always takes
    the slice path: every job is framed and sent separately (and may be
    re-sent verbatim to another agent after a loss).
    """
    from repro.runtime.chunking import program_cost
    from repro.runtime.transport import ArrayShipment, shared_memory_available
    from repro.runtime.wire import WireShipment

    remote = getattr(pool, "kind", "process") == "remote"
    arrays, metas = _stack_tasks(grid, tasks, config, output == "traces")
    costs = [program_cost(task.program) for task in tasks]
    # Each stacked relaxation pays a fixed cost per call (its waves of NumPy
    # calls), so the process lane runs one cost-balanced chunk per worker;
    # remote agents keep the finer chunks that stealing and requeueing use.
    bounds = _chunk_bounds(tasks, costs, worker_count, None if remote else 1)
    windows = _task_windows(arrays, metas, bounds)
    settings = (config.noise_sigma, config.receive_overhead, output, grid.num_nodes)
    results: list[ExecutionResult | None] | np.ndarray = (
        np.empty(len(tasks)) if output == "makespans" else [None] * len(tasks)
    )
    shared = not remote and shared_memory_available()
    shipment = ArrayShipment.pack(arrays) if shared else None
    try:
        pending = []
        for (start, end), window in zip(bounds, windows):
            if shipment is not None:
                job = (start, shipment, window, metas[start:end], *settings)
            else:
                sliced = WireShipment(_slice_stack(arrays, window))
                job = (start, sliced, None, metas[start:end], *settings)
            pending.append(
                pool.submit(
                    _execute_shipped_chunk, job, units=float(sum(costs[start:end]))
                )
            )
        for handle in pending:
            start, values = handle.get()
            results[start : start + len(values)] = values
    finally:
        if shipment is not None:
            shipment.unlink()
    return results  # type: ignore[return-value]


def _normalize_tasks(
    tasks: Sequence[ExecutionTask | CommunicationProgram],
    engine: str,
    executor: str | None,
) -> list[ExecutionTask]:
    """Check ``engine``/``executor`` and wrap bare programs as tasks."""
    from repro.runtime.chunking import EXECUTORS

    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    normalized = [
        task if isinstance(task, ExecutionTask) else ExecutionTask(program=task)
        for task in tasks
    ]
    _validate_tasks(normalized)
    return normalized


def _execute_on_lane(
    grid: Grid,
    tasks: list[ExecutionTask],
    config: NetworkConfig,
    output: str,
    workers: int | None,
    executor: str | None,
    pool,
    hosts: str | None,
) -> list[ExecutionResult] | np.ndarray:
    """The batched engine on the lane :func:`~repro.runtime.pool.choose_lane`
    picks: inline, or chunked and shipped to a runtime pool."""
    from repro.runtime.chunking import program_cost
    from repro.runtime.pool import choose_lane
    from repro.utils.workers import resolve_workers

    worker_count = resolve_workers(workers)
    if len(tasks) > 1:  # a single task always runs inline
        pool, worker_count = choose_lane(
            executor,
            workers,
            worker_count,
            sum(program_cost(task.program) for task in tasks),
            pool=pool,
            hosts=hosts,
        )
        if pool is not None:
            return _execute_with_runtime_pool(
                grid, tasks, config, output, worker_count, pool
            )
    return _execute_batch(grid, tasks, config, output)


def execute_programs(
    grid: Grid,
    tasks: Sequence[ExecutionTask | CommunicationProgram],
    *,
    config: NetworkConfig | None = None,
    collect_traces: bool = True,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
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
        Keep the full message trace of every execution; pass ``False`` to
        keep only the per-rank times.  A caller that needs only each
        task's makespan calls :func:`execute_makespans` instead, which
        builds no :class:`ExecutionResult` at all (the measured sweeps
        do).
    workers:
        Optional fan-out over chain-respecting chunks of the task list;
        ``None`` consults the shared ``REPRO_WORKERS`` environment variable,
        and ``0``/``1`` run in-process.  Results are identical at any worker
        count because every task carries its own noise seed.
    engine:
        ``"batched"`` (default) or ``"scalar"`` — the scalar reference loop
        used by the equivalence suite and as the benchmark baseline.  The
        scalar engine always runs in-process: ``workers``, ``executor``,
        ``pool`` and ``hosts`` do not apply to it.
    executor:
        Which fan-out lane to use: ``"process"``
        (:class:`~repro.runtime.pool.StudyPool`), ``"remote"``
        (:class:`~repro.runtime.remote.RemoteStudyPool` — chunks shipped
        over sockets to worker agents, see ``hosts``), or ``"auto"`` —
        inline when the batch's total estimated cost is too small to
        amortise shipping, processes otherwise (never remote).  ``None``
        consults the ``REPRO_EXECUTOR`` environment variable, then defaults
        to ``"auto"``.  All lanes are bit-identical; the rules live in
        :func:`~repro.runtime.pool.choose_lane`.  Worker chunks are sized
        from per-task cost (program message counts) so mixed workloads
        balance, and reach process workers through shared memory where it
        works, as by-value slices otherwise.
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
    normalized = _normalize_tasks(tasks, engine, executor)
    config = config if config is not None else NetworkConfig()
    if not normalized:
        return []
    if engine == "scalar":
        return _execute_scalar(grid, normalized, config, collect_traces)
    output = "traces" if collect_traces else "results"
    return _execute_on_lane(  # type: ignore[return-value]
        grid, normalized, config, output, workers, executor, pool, hosts
    )


def execute_makespans(
    grid: Grid,
    tasks: Sequence[ExecutionTask | CommunicationProgram],
    *,
    config: NetworkConfig | None = None,
    workers: int | None = None,
    engine: str = "batched",
    executor: str | None = None,
    pool=None,
    hosts: str | None = None,
) -> np.ndarray:
    """Each task's makespan, in task order, as one float array.

    The same run as :func:`execute_programs` — same lane choice, chunking,
    shipping and parameters (less ``collect_traces``) — read for the one
    number a measured sweep keeps: the batched engine takes each task's
    maximum completion time straight from the stacked completion array and
    builds no :class:`ExecutionResult`, and worker chunks send back float
    arrays.  Element ``k`` is bitwise ``execute_programs(...)[k].makespan``
    (a maximum is exact); ``engine="scalar"`` is the reference twin that
    takes exactly that ``.makespan`` of each scalar execution.

    As in :func:`execute_programs`, ``workers=None`` consults the
    ``REPRO_WORKERS`` environment variable, ``executor=None`` consults
    ``REPRO_EXECUTOR`` (then ``"auto"``), and ``hosts=None`` consults
    ``REPRO_HOSTS`` (then loopback agents) when the remote lane is engaged.
    """
    normalized = _normalize_tasks(tasks, engine, executor)
    config = config if config is not None else NetworkConfig()
    if not normalized:
        return np.empty(0)
    if engine == "scalar":
        return np.array(
            [
                result.makespan
                for result in _execute_scalar(grid, normalized, config, False)
            ],
            dtype=float,
        )
    return _execute_on_lane(  # type: ignore[return-value]
        grid, normalized, config, "makespans", workers, executor, pool, hosts
    )
