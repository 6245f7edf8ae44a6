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
* within a study, *observed wall-time* feeds back through a
  :class:`CostModel`: the pipelined driver times every completed chunk and
  refines its units-per-second rate, so later batches of the same study are
  split against measured cost, not the prior.

The same cost estimates drive **executor selection**
(:func:`choose_executor`): ``executor="auto"`` runs small batches — the ones
whose total estimated cost cannot amortise process-pool shipping — on the
thread lane (:class:`~repro.runtime.pool.ThreadStudyPool`, zero shipping) and
everything else on the process lane.  Neither chunking nor executor choice
ever changes results: every task carries its own derived seed, so all
partitions of all sizes on either lane are bit-identical (asserted by
``tests/test_runtime.py``).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping, Sequence

try:  # POSIX writer lock for the shared on-disk cost cache
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Valid ``executor=`` values accepted by the runtime entry points and every
#: study driver: ``"auto"`` (cost-based choice), ``"thread"``
#: (:class:`~repro.runtime.pool.ThreadStudyPool`, no shipping), ``"process"``
#: (:class:`~repro.runtime.pool.StudyPool` + transport) and ``"remote"``
#: (:class:`~repro.runtime.remote.RemoteStudyPool` — chunks shipped over
#: sockets to worker agents; never chosen by ``"auto"``, only explicitly).
EXECUTORS = ("auto", "thread", "process", "remote")

#: Valid ``chunking=`` values: ``"adaptive"`` (cost-balanced chunks, the
#: default) and ``"fixed"`` (the historical task-count chunking, kept as the
#: benchmark baseline and for the equivalence suite).
CHUNKINGS = ("adaptive", "fixed")

#: Environment variable consulted when ``executor=None``; the shared way to
#: force every study onto one lane (``REPRO_EXECUTOR=thread|process|auto``).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: An ``"auto"`` fan-out whose total estimated cost is at most this many units
#: runs on the thread lane.  One unit is roughly one message (or one stacked
#: scheduling-matrix cell); the threshold sits where the measured
#: thread-vs-process crossover lands on the benchmark box (see
#: ``benchmarks/bench_runtime.py``, section ``thread_vs_process``).
AUTO_THREAD_MAX_UNITS = 4096

#: Prior throughput assumed before a study has observed any wall-time:
#: roughly the batched measurement engine's per-message rate.  Only used to
#: decide whether splitting a batch is worth the per-chunk overhead; never
#: affects results.
DEFAULT_UNITS_PER_SECOND = 200_000.0

#: Chunks-per-worker target shared by every fan-out path: enough chunks that
#: a skewed workload still balances, few enough that per-chunk overhead stays
#: negligible.
CHUNKS_PER_WORKER = 4

#: Environment variable naming an opt-in on-disk cost cache (a JSON file).
#: When set, the pipelined driver restores previously observed
#: units-per-second on start-up and records its own on finish — so the
#: *first* submission of a study, local or remote, is split against measured
#: throughput instead of the :data:`DEFAULT_UNITS_PER_SECOND` prior.  Purely
#: a performance device: like everything in this module it can never change
#: results, so a stale, missing or unwritable cache file is always safe.
COST_CACHE_ENV_VAR = "REPRO_COST_CACHE"

#: A fleet of remote agents is *skewed* when the fastest chunk slot's
#: estimated throughput is at least this multiple of the slowest's — the
#: point where weighted (throughput-proportional) chunk splitting starts to
#: pay for its extra frames.  Below it, agents are near-enough identical
#: that the historical uniform split behaves the same.
FLEET_SKEW_MIN = 1.5


def cost_model_key(workload: str, num_clusters: int, num_nodes: int) -> str:
    """The shaped on-disk cost-cache key of one workload.

    Observed units-per-second depends on *what* is being measured — an
    all-to-all message costs the same unit as a bcast message, but grids of
    different sizes compile and execute at different per-unit rates.  Keying
    cache entries by ``(workload label, grid shape)`` keeps a 45-node bcast
    sweep's throughput from mispricing a 6-node scatter study.  Readers pass
    the legacy shared ``"pipeline"`` record as a fallback
    (:func:`load_cost_model`), so cache files written before shaped keys
    existed still seed the model.
    """
    return f"pipeline/{workload}/c{num_clusters}-n{num_nodes}"


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


def choose_executor(
    executor: str | None,
    total_units: float,
    *,
    transport: str | None = None,
    threshold: float = AUTO_THREAD_MAX_UNITS,
) -> str:
    """The concrete lane (``"thread"`` or ``"process"``) for one fan-out.

    ``"auto"`` picks the thread lane when the batch's total estimated cost is
    at most ``threshold`` units — a batch that small finishes before process
    shipping would have amortised — and the process lane otherwise.  Naming a
    ``transport`` pins ``"auto"`` to the process lane (transports describe
    process shipping; the thread lane ships nothing).  Explicit
    ``"thread"``/``"process"``/``"remote"`` always win; ``"auto"`` never
    chooses the remote lane on its own (crossing a machine boundary is an
    explicit decision — via ``executor="remote"`` or ``REPRO_EXECUTOR``).
    """
    resolved = resolve_executor(executor)
    if resolved != "auto":
        return resolved
    if transport is not None:
        return "process"
    return "thread" if total_units <= threshold else "process"


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
    round budget.  One vectorized node-round costs roughly 1/64 of a
    simulated message (the engine advances ~10⁷ node-rounds/s where the
    batched measurement engine moves ~10⁵ messages/s), so node-rounds are
    scaled down to keep one shared unit across workloads.  Like every prior
    here it only balances chunks and picks lanes; it never affects results.
    """
    expected_rounds = min(rounds, int(math.ceil(math.log2(max(2, num_nodes)))) + 2)
    return 1.0 + num_nodes * expected_rounds / 64.0


def compiled_cost(compiled_program: Any) -> int:
    """Prior cost of one *compiled* program — the compiled twin of
    :func:`program_cost`.

    Compiled programs (``repro.simulator.batch._CompiledProgram``) carry
    their flattened message list in ``dest``, so the message count is a
    direct length.  Every dispatch path (pipelined, process, thread) must
    price tasks through this one helper so the cost prior can never diverge
    between drivers.
    """
    return 1 + len(compiled_program.dest)


class CostModel:
    """Estimated-then-observed cost of one study's tasks.

    Starts from the :data:`DEFAULT_UNITS_PER_SECOND` prior and refines it
    with every ``observe(units, seconds)`` call — the pipelined driver feeds
    it each completed chunk's wall time, so chunk-splitting decisions later
    in the same study rest on measured throughput.  Purely a performance
    device: the model never influences *what* is computed.
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

    def snapshot(self) -> dict[str, float]:
        """The model's accumulated observations, as a JSON-friendly dict."""
        return {"units": self._units, "seconds": self._seconds}

    def restore(self, snapshot: dict) -> "CostModel":
        """Adopt a :meth:`snapshot` (replacing any current observations).

        Malformed snapshots are rejected with :class:`ValueError`; callers
        reading from untrusted storage (the on-disk cache) catch and fall
        back to the prior.
        """
        units = float(snapshot["units"])
        seconds = float(snapshot["seconds"])
        if units < 0.0 or seconds < 0.0:
            raise ValueError(f"negative cost-model snapshot {snapshot!r}")
        self._units = units
        self._seconds = seconds
        return self


def _cost_cache_path() -> Path | None:
    raw = os.environ.get(COST_CACHE_ENV_VAR, "").strip()
    return Path(raw) if raw else None


def load_cost_model(key: str, fallback_keys: Sequence[str] = ()) -> CostModel:
    """A :class:`CostModel` preloaded from the on-disk cache, if enabled.

    Looks ``key`` up in the ``REPRO_COST_CACHE`` JSON file, then each of
    ``fallback_keys`` in order — the migration path for cache files written
    before shaped keys existed (a reader passes the legacy ``"pipeline"``
    record as its fallback and re-saves under the shaped key).  Any failure
    — variable unset, file missing, unreadable, every entry malformed —
    falls back to a fresh model with the default prior.  Never raises.
    """
    model = CostModel()
    path = _cost_cache_path()
    if path is None:
        return model
    try:
        document = json.loads(path.read_text())
    except Exception:  # noqa: BLE001 - a cache miss is always fine
        return model
    for candidate in (key, *fallback_keys):
        try:
            return model.restore(document[candidate])
        except Exception:  # noqa: BLE001 - try the next candidate
            continue
    return model


def save_cost_model(key: str, model: CostModel) -> None:
    """Record ``model``'s observations under ``key`` in the on-disk cache.

    Shorthand for :func:`save_cost_models` with a single record; see there
    for the concurrency contract.  Never raises.
    """
    save_cost_models({key: model})


def save_cost_models(records: Mapping[str, CostModel]) -> None:
    """Merge several models' observations into the on-disk cache at once.

    A no-op when ``REPRO_COST_CACHE`` is unset or no record observed
    anything.  Writers sharing one cache — concurrent studies, coordinators,
    the schedule daemon — are safe against each other twice over:

    * the replacement is atomic (temp file in the same directory +
      ``os.replace``), so a concurrent *reader* can only ever see a
      complete document, never a torn write;
    * the read-merge-write cycle runs under an exclusive ``flock`` on a
      ``<cache>.lock`` sidecar, so a concurrent *writer* cannot interleave
      its own cycle inside ours and revert keys it never touched (the
      lost-update race the old single-key rewrite had).  Where ``fcntl``
      is unavailable the merge still happens against a fresh read, which
      shrinks the race window without eliminating it.

    Only the keys in ``records`` are updated; every other key in the
    document is preserved.  All failures are swallowed — the cache is an
    accelerator, never a dependency.
    """
    path = _cost_cache_path()
    if path is None:
        return
    payload = {
        key: model.snapshot() for key, model in records.items() if model.observed
    }
    if not payload:
        return
    try:
        _merge_into_cost_cache(path, payload)
    except Exception:  # noqa: BLE001 - performance device, never fails a study
        pass


def _merge_into_cost_cache(
    path: Path, payload: dict[str, dict[str, float]]
) -> None:
    """Locked read-merge-replace of ``payload`` into the cache document."""
    lock_handle = open(path.with_name(path.name + ".lock"), "a")
    try:
        if fcntl is not None:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
        try:
            document = json.loads(path.read_text())
            if not isinstance(document, dict):
                document = {}
        except Exception:  # noqa: BLE001 - first write or corrupt cache
            document = {}
        document.update(payload)
        handle, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(document, stream)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    finally:
        # Closing the handle releases the flock with it.
        lock_handle.close()


def aggregate_unit_costs(
    units: Sequence[tuple[int, int]], task_costs: Sequence[float]
) -> list[float]:
    """Total cost of each chain-atomic unit, from per-task costs.

    ``units`` are the half-open ``[start, end)`` task ranges produced by
    ``repro.simulator.batch._chain_units``.  Every dispatch path (pipelined,
    process, thread) aggregates through this one helper before calling
    :func:`partition_by_cost`, so unit pricing can never diverge between
    drivers.
    """
    return [
        float(sum(task_costs[index] for index in range(start, end)))
        for start, end in units
    ]


def partition_by_cost(
    units: Sequence[tuple[int, int]],
    unit_costs: Sequence[float],
    num_chunks: int,
    weights: Sequence[float] | None = None,
) -> list[tuple[int, int]]:
    """Merge contiguous atomic units into at most ``num_chunks`` chunks of
    roughly equal (or weighted) total cost.

    ``units`` are half-open ``[start, end)`` task ranges that must stay
    together (warm chains; single tasks otherwise — see
    ``repro.simulator.batch._chain_units``) and ``unit_costs`` their total
    costs.  The greedy sweep targets the ideal per-chunk share of the
    *remaining* cost and closes the open chunk **before** adding a unit
    whenever stopping short lands closer to that share than overshooting
    would — so an oversized unit gets its own chunk wherever it sits in the
    sequence (a ~20x all-to-all at the *tail* of a batch must not absorb
    every cheap unit before it).

    ``weights`` makes the split *throughput-proportional*: chunk ``i``
    targets the share ``weights[i] / sum(weights[i:])`` of the remaining
    cost instead of an equal share, which is how a heterogeneous remote
    fleet receives chunks sized to each agent's observed units-per-second
    (:meth:`repro.runtime.remote.RemoteStudyPool.partition_weights`).  With
    fewer units than weights, the leading weights are used — callers pass
    them fastest-first so the capable slots keep their chunks.  Every chunk
    lands within one unit's cost of its weighted target (chains are atomic,
    so no split can do better).  Partitioning never affects results — only
    which worker executes which tasks.
    """
    if len(units) != len(unit_costs):
        raise ValueError(
            f"got {len(units)} units but {len(unit_costs)} costs"
        )
    if not units:
        return []
    if weights is not None:
        num_chunks = min(int(num_chunks), len(weights))
    num_chunks = max(1, min(int(num_chunks), len(units)))
    if weights is None:
        shares = [1.0] * num_chunks
    else:
        shares = [float(weight) for weight in weights[:num_chunks]]
        if any(share <= 0.0 for share in shares):
            raise ValueError(f"chunk weights must be positive, got {weights!r}")
        # Normalise by the largest share so equal weights become exactly 1.0
        # and the weighted targets round bit-identically to the uniform
        # path's (w/(w*k) and 1/k differ in the last ulp for some w, which
        # is enough to flip a near-tie boundary decision).
        top = max(shares)
        shares = [share / top for share in shares]
    # Suffix sums: share_left[i] is the total weight of chunks i onwards,
    # so the open chunk's target is remaining * shares[i] / share_left[i].
    share_left = list(shares)
    for index in range(num_chunks - 2, -1, -1):
        share_left[index] += share_left[index + 1]
    chunks: list[tuple[int, int]] = []
    remaining = float(sum(unit_costs))
    start = units[0][0]
    accumulated = 0.0
    for unit_index, (unit_start, unit_end) in enumerate(units):
        cost = float(unit_costs[unit_index])
        open_chunk = len(chunks)
        chunks_left = num_chunks - open_chunk
        target = remaining * shares[open_chunk] / share_left[open_chunk]
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
