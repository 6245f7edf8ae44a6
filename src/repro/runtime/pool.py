"""The persistent study worker pools (process lane and thread lane).

Before the runtime layer every study call spawned (and tore down) its own
:class:`multiprocessing.Pool`; on the Table 3 practical sweep the spawn alone
cost more than the whole measured execution.  :class:`StudyPool` wraps one
pool that is created once per process and reused by every study and CLI
invocation (:func:`get_pool`).  Reuse is free correctness-wise: every task
ships its own derived seed, so results are bit-identical for any pool
lifetime, submission order or worker count — the determinism suite asserts
exactly that across back-to-back studies on one pool.

:class:`ThreadStudyPool` is the **thread lane**: the same submit/collect
contract served by threads in the parent process.  Its win is that threads
share the parent's address space, so the lane skips
:class:`~repro.runtime.transport.ArrayShipment` entirely: workers read the
parent's compiled arrays and cost stacks **in place** — no pickling, no
shared-memory segment, no per-chunk decode, no cross-process result
round-trip.  The measured-execution hot loop is largely Python and holds
the GIL on today's CPython, so the lane buys *saved shipping*, not parallel
compute — which is exactly why ``executor="auto"`` (see
:mod:`repro.runtime.chunking`) routes only small batches here: on a batch
too small to amortise shipping, zero shipping wins outright (a
free-threaded build would move that crossover sharply upward).  Both lanes
are bit-identical because the per-task seed-derivation contract is
lane-independent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import threading
from typing import Any, Callable, Iterable, Iterator

#: ``kind`` values a study pool can report (``executor="auto"`` resolves to
#: ``"process"`` or ``"thread"`` per fan-out — see
#: :func:`repro.runtime.chunking.choose_executor`; ``"remote"`` is only ever
#: an explicit choice, see :mod:`repro.runtime.remote`).
POOL_KINDS = ("process", "thread", "remote")


class StudyPool:
    """A reusable multiprocessing pool with an async submission surface.

    Tasks submitted here are pickled to worker *processes*; bulk arrays
    should travel through :class:`~repro.runtime.transport.ArrayShipment`
    rather than the task pickle.  See :class:`ThreadStudyPool` for the
    shipping-free thread lane with the same contract.

    Parameters
    ----------
    workers:
        Number of worker processes (at least 2 — a one-worker pool is always
        slower than running in-process, so the studies never build one).
    """

    #: Which lane this pool serves; dispatch code routes shipping-free
    #: submissions to ``"thread"`` pools and shipped ones to ``"process"``.
    kind = "process"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"a StudyPool needs at least 2 workers, got {workers}")
        self._workers = int(workers)
        self._pool: multiprocessing.pool.Pool | None = self._make_pool()

    def _make_pool(self) -> multiprocessing.pool.Pool:
        # Start the shared-memory resource tracker *before* forking the
        # workers: children then inherit the parent's tracker, so a worker's
        # attach-registration and the parent's unlink-unregistration meet in
        # the same bookkeeping and segments are never reported as leaked.
        try:  # pragma: no cover - depends on platform support
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        return multiprocessing.Pool(processes=self._workers)

    @property
    def workers(self) -> int:
        """Number of worker processes."""
        return self._workers

    @property
    def alive(self) -> bool:
        """Whether the pool can still accept work."""
        return self._pool is not None

    def _require(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            raise RuntimeError("StudyPool is closed")
        return self._pool

    def submit(
        self,
        fn: Callable[[Any], Any],
        args: Any,
        units: float | None = None,
        callback: Callable[[Any], object] | None = None,
        error_callback: Callable[[BaseException], object] | None = None,
    ) -> Any:
        """Submit ``fn(args)`` and return the :class:`AsyncResult` handle.

        Every chunk of a fan-out is submitted before any result is
        collected, so the workers drain them concurrently.  ``units`` is the
        job's estimated cost in the shared cost-unit scale — local lanes
        ignore it (their workers are identical by construction); the remote
        lane uses it for throughput-proportional routing, so drivers pass
        it on every lane and stay lane-agnostic.  ``callback`` /
        ``error_callback`` pass straight through to
        :meth:`~multiprocessing.pool.Pool.apply_async` — the remote lane's
        degradation path drains chunks here and still needs completion
        notifications without blocking a thread per job.
        """
        return self._require().apply_async(
            fn, (args,), callback=callback, error_callback=error_callback
        )

    def imap_unordered(
        self, fn: Callable[[Any], Any], iterable: Iterable[Any]
    ) -> Iterator[Any]:
        """Unordered streaming map over the pool (completion order)."""
        return self._require().imap_unordered(fn, iterable)

    def close(self) -> None:
        """Terminate the workers and release the pool."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "StudyPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ThreadStudyPool(StudyPool):
    """The thread-lane twin of :class:`StudyPool`: same contract, no shipping.

    Workers are threads of the parent process, so submitted jobs receive
    their arguments **by reference** — compiled programs, cost stacks and
    result lists cross no process boundary and are never pickled.  On
    CPython the measured hot loop holds the GIL, so the lane's value is the
    shipping it *doesn't* do, not parallel compute; for small batches that
    saved shipping dwarfs the lost overlap, which is exactly when
    ``executor="auto"`` selects this lane.  The per-task seed-derivation
    contract is untouched, so results are bit-identical to the process lane
    and the inline path.
    """

    kind = "thread"

    def _make_pool(self) -> multiprocessing.pool.Pool:
        return multiprocessing.pool.ThreadPool(processes=self._workers)


#: Serialises pool creation/replacement: two threads racing get_pool() must
#: not each build (and half-leak) a pool for the same lane.
_pools_lock = threading.Lock()
_global_pools: dict[str, StudyPool | None] = {  # guarded-by: _pools_lock
    kind: None for kind in POOL_KINDS
}


def get_pool(
    workers: int,
    kind: str = "process",
    hosts: str | Iterable[tuple[str, int]] | None = None,
) -> StudyPool:
    """The process-wide persistent pool of one lane, created on first use.

    One pool per ``kind`` (``"process"`` — the default — ``"thread"`` or
    ``"remote"``) is kept alive for the life of the process.  An alive pool
    with at least ``workers`` workers is reused as-is (chunking decisions
    use the *requested* count, so results never depend on the pool that
    happens to serve them); asking for more workers than the current pool
    has replaces it.

    ``hosts`` only applies to the remote lane: a ``"host:port,host:port"``
    agent list (default: the ``REPRO_HOSTS`` environment variable, then
    loopback mode — agents auto-spawned as local subprocesses).  A cached
    remote pool is replaced whenever the requested hosts differ from the
    ones it is connected to.  When ``hosts`` names real agents, the pool's
    capacity is whatever those agents advertise — the ``workers`` argument
    is a loopback-mode sizing hint only.
    """
    if kind not in POOL_KINDS:
        raise ValueError(f"pool kind must be one of {POOL_KINDS}, got {kind!r}")
    with _pools_lock:
        pool = _global_pools[kind]
        if kind == "remote":
            from repro.runtime.remote import RemoteStudyPool, resolve_hosts

            spec = resolve_hosts(hosts)
            if (
                pool is None
                or not pool.alive
                or getattr(pool, "hosts_spec", None) != spec
                or (spec is None and pool.workers < workers)
            ):
                if pool is not None:
                    pool.close()
                pool = RemoteStudyPool(workers, hosts=spec)
                _global_pools[kind] = pool
            return pool
        if pool is None or not pool.alive or pool.workers < workers:
            if pool is not None:
                pool.close()
            pool_class = ThreadStudyPool if kind == "thread" else StudyPool
            pool = pool_class(workers)
            _global_pools[kind] = pool
        return pool


def engage_remote_lane(
    pool: Any,
    executor: str | None,
    workers: int | None,
    worker_count: int,
    hosts: str | Iterable[tuple[str, int]] | None,
) -> tuple[Any, int]:
    """Resolve the fan-out preamble of one study call (shared by every driver).

    Returns a possibly-updated ``(pool, worker_count)``, subsuming the two
    steps every driver needs in the same order:

    * an explicit ``pool=`` with no ``workers=`` is an explicit request for
      fan-out, so the worker count lifts to the pool's;
    * when ``executor`` resolves to ``"remote"`` (argument or
      ``REPRO_EXECUTOR``) and no explicit pool was passed, the persistent
      remote pool is engaged — and, because remote capacity lives on the
      agents rather than in a local ``workers=`` knob, a worker count that
      would otherwise mean "in-process" lifts to the agents' advertised
      total.  An *explicit* ``workers=0``/``1`` (the ``workers`` argument,
      as opposed to the resolved ``worker_count``) still means in-process:
      naming a lane never overrides an explicit request not to fan out.

    Every other combination passes through untouched.
    """
    from repro.runtime.chunking import resolve_executor

    if workers is None and worker_count == 0 and pool is not None:
        worker_count = pool.workers
    if pool is not None:
        return pool, worker_count
    if resolve_executor(executor) != "remote":
        return pool, worker_count
    if workers is not None and worker_count < 2:
        return pool, worker_count
    pool = get_pool(max(worker_count, 2), kind="remote", hosts=hosts)
    if worker_count < 2:
        worker_count = pool.workers
    return pool, worker_count


def shutdown_pool() -> None:
    """Tear every persistent pool down (no-op when none exists)."""
    with _pools_lock:
        for kind, pool in _global_pools.items():
            if pool is not None:
                pool.close()
                _global_pools[kind] = None


# Pool workers are daemonic, so they die with the process either way; the
# explicit shutdown just silences "leaked pool" ResourceWarnings on exit.
atexit.register(shutdown_pool)
