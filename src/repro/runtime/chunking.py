"""Cost-aware chunk sizing and executor selection for the study runtime.

Before this module worker chunks were sized by *task count*: a chunk of ten
tasks was assumed to cost ten cost units.  That assumption is badly wrong for
mixed workloads — an all-to-all program injects ``n * (n - 1)`` messages
where a scheduled broadcast injects ``n - 1``, so one all-to-all task costs
roughly 20x a bcast task on the Table 3 grid and a count-based split leaves
most workers idle while one worker drains the expensive chunk.  This module
sizes chunks from **per-task cost** instead:

* the *prior* cost of a task is its program's message count (Monte-Carlo
  scheduling chunks use ``iterations * clusters**2`` — the stacked-matrix
  cell count — as the equivalent prior);
* on the remote lane, *observed wall-time* feeds back through a
  :class:`CostModel` per agent link: every result frame reports its
  worker-side wall time, and each agent's frame deadlines are priced from
  its measured units-per-second, not the prior.

The same cost estimates drive **executor selection**
(:func:`repro.runtime.pool.choose_lane`): ``executor="auto"`` runs small
batches — the ones whose total estimated cost cannot amortise process-pool
shipping — inline and everything else on the process lane.  Neither
chunking nor executor choice ever changes results: every task carries its
own derived seed, so all partitions of all sizes on every lane are
bit-identical (asserted by ``tests/test_runtime.py``).
"""

from __future__ import annotations

import math
import os
from typing import Any, Sequence

#: Valid ``executor=`` values accepted by the runtime entry points and every
#: study driver: ``"auto"`` (cost-based choice between inline and process),
#: ``"process"`` (:class:`~repro.runtime.pool.StudyPool`) and
#: ``"remote"`` (:class:`~repro.runtime.remote.RemoteStudyPool` — chunks
#: shipped over sockets to worker agents; never chosen by ``"auto"``, only
#: explicitly).
EXECUTORS = ("auto", "process", "remote")

#: Environment variable consulted when ``executor=None``; the shared way to
#: force every study onto one lane (``REPRO_EXECUTOR=process|remote|auto``).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: An ``"auto"`` fan-out whose total estimated cost is at most this many units
#: runs inline.  One unit is roughly one message (or one stacked
#: scheduling-matrix cell); below the threshold process shipping costs more
#: than the fan-out saves (see ``benchmarks/bench_runtime.py``, section
#: ``auto_vs_inline``).
AUTO_INLINE_MAX_UNITS = 4096

#: Prior throughput assumed before any wall-time has been observed: roughly
#: the batched measurement engine's per-message rate.  Only used to time
#: out remote chunks; never affects results.
DEFAULT_UNITS_PER_SECOND = 200_000.0

#: Chunks-per-worker target of the fan-out paths: enough chunks that a
#: skewed workload still balances, few enough that per-chunk overhead stays
#: negligible.  The batched simulator's process lane cuts one chunk per
#: worker instead: its stacked relaxation pays a fixed cost per call.
CHUNKS_PER_WORKER = 4


def resolve_executor(executor: str | None) -> str:
    """Normalise an ``executor=`` argument to one of :data:`EXECUTORS`.

    ``None`` consults the ``REPRO_EXECUTOR`` environment variable and falls
    back to ``"auto"``.  The executor never changes results — only where the
    work runs — so the environment override is always safe to set globally.
    """
    if executor is None:
        executor = os.environ.get(EXECUTOR_ENV_VAR, "").strip() or "auto"
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    return executor


def program_cost(program: Any) -> int:
    """Prior cost of executing one communication program, in units.

    The unit is one message: the batched measurement engine's work is
    dominated by per-message bookkeeping, so a program's message count is a
    faithful relative cost (an all-to-all task really does cost ~20x a bcast
    task on the Table 3 grid).  The ``+ 1`` keeps empty programs from
    costing nothing.
    """
    return 1 + program.total_messages()


def gossip_cost(num_nodes: int, rounds: int) -> float:
    """Prior cost of one vectorized gossip run, in message-equivalent units.

    A round of the vectorized engine touches every node once, so the work is
    ``num_nodes`` times the *expected* executed rounds — an epidemic over
    ``n`` nodes completes in about ``log2(n)`` rounds, capped by the spec's
    round budget.  One unit is the work of ``1 / DEFAULT_UNITS_PER_SECOND``
    seconds, and a study over all five protocols advances about 3.2 × 10⁷
    node-rounds/s (2.9–4 × 10⁷ over 5,000 to 10⁵ nodes on a 2-core x86
    box; the fanout-4 push runs in ``BENCH_gossip.json`` are faster), so
    one unit is about 160 node-rounds.  Like every prior here it only
    balances chunks and picks lanes; it never affects results.
    """
    expected_rounds = min(rounds, int(math.ceil(math.log2(max(2, num_nodes)))) + 2)
    return 1.0 + num_nodes * expected_rounds * DEFAULT_UNITS_PER_SECOND / 3.2e7


class CostModel:
    """Estimated-then-observed cost of one study's tasks.

    Starts from the :data:`DEFAULT_UNITS_PER_SECOND` prior and refines it
    with every ``observe(units, seconds)`` call — each remote agent link
    feeds its model the wall time every result frame reports, so the
    link's later frame deadlines rest on measured throughput.  Purely a
    performance device: the model never influences *what* is computed.
    """

    __slots__ = ("_units", "_seconds")

    def __init__(self) -> None:
        self._units = 0.0
        self._seconds = 0.0

    @property
    def observed(self) -> bool:
        """Whether any wall-time has been fed back yet."""
        return self._seconds > 0.0

    @property
    def units_per_second(self) -> float:
        """Observed throughput, or the prior before any observation."""
        if self._seconds > 0.0 and self._units > 0.0:
            return self._units / self._seconds
        return DEFAULT_UNITS_PER_SECOND

    def observe(self, units: float, seconds: float) -> None:
        """Record that ``units`` of work took ``seconds`` of wall time."""
        if units > 0.0 and seconds > 0.0:
            self._units += units
            self._seconds += seconds

    def seconds_for(self, units: float) -> float:
        """Estimated wall time of ``units`` of work at the current rate."""
        return units / self.units_per_second


def aggregate_unit_costs(
    units: Sequence[tuple[int, int]], task_costs: Sequence[float]
) -> list[float]:
    """Total cost of each chain-atomic unit, from per-task costs.

    ``units`` are the half-open ``[start, end)`` task ranges produced by
    ``repro.simulator.batch._chain_units``.  Every dispatch path (process,
    remote) aggregates through this one helper before calling
    :func:`partition_by_cost`, so unit pricing can never diverge between
    lanes.
    """
    return [
        float(sum(task_costs[index] for index in range(start, end)))
        for start, end in units
    ]


def partition_by_cost(
    units: Sequence[tuple[int, int]],
    unit_costs: Sequence[float],
    num_chunks: int,
) -> list[tuple[int, int]]:
    """Merge contiguous atomic units into at most ``num_chunks`` chunks of
    roughly equal total cost.

    ``units`` are half-open ``[start, end)`` task ranges that must stay
    together (warm chains; single tasks otherwise — see
    ``repro.simulator.batch._chain_units``) and ``unit_costs`` their total
    costs.  The greedy sweep targets the ideal per-chunk share of the
    *remaining* cost and closes the open chunk **before** adding a unit
    whenever stopping short lands closer to that share than overshooting
    would — so an oversized unit gets its own chunk wherever it sits in the
    sequence (a ~20x all-to-all at the *tail* of a batch must not absorb
    every cheap unit before it).  Partitioning never affects results — only
    which worker executes which tasks.
    """
    if len(units) != len(unit_costs):
        raise ValueError(
            f"got {len(units)} units but {len(unit_costs)} costs"
        )
    if not units:
        return []
    num_chunks = max(1, min(int(num_chunks), len(units)))
    chunks: list[tuple[int, int]] = []
    remaining = float(sum(unit_costs))
    start = units[0][0]
    accumulated = 0.0
    for unit_index, (unit_start, unit_end) in enumerate(units):
        cost = float(unit_costs[unit_index])
        chunks_left = num_chunks - len(chunks)
        target = remaining / chunks_left
        # Close before adding when the open chunk is non-empty and
        # overshooting the fair share by `cost` is worse than undershooting
        # by what is already accumulated.  (num_chunks is a ceiling, not a
        # quota — a run that uses fewer chunks is fine, and the unit just
        # added always populates the freshly opened chunk.)
        if (
            chunks_left > 1
            and accumulated > 0.0
            and (accumulated + cost) - target > target - accumulated
        ):
            chunks.append((start, unit_start))
            start = unit_start
            remaining -= accumulated
            accumulated = 0.0
        accumulated += cost
    chunks.append((start, units[-1][1]))
    return chunks
