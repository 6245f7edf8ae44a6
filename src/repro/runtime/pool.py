"""The persistent study worker pools and the one lane decision.

Before the runtime layer every study call spawned (and tore down) its own
:class:`multiprocessing.Pool`; on the Table 3 practical sweep the spawn alone
cost more than the whole measured execution.  :class:`StudyPool` wraps one
pool that is created once per process and reused by every study and CLI
invocation (:func:`get_pool`).  Reuse is free correctness-wise: every task
ships its own derived seed, so results are bit-identical for any pool
lifetime, submission order or worker count — the determinism suite asserts
exactly that across back-to-back studies on one pool.

:func:`choose_lane` is where every fan-out decides where it runs: inline,
on the process pool, or on the remote pool
(:class:`~repro.runtime.remote.RemoteStudyPool`).  ``executor="auto"``
keeps batches too small to amortise process shipping inline and sends the
rest to processes.  All lanes are bit-identical because the per-task
seed-derivation contract is lane-independent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import signal
import threading
from typing import Any, Callable, Iterable

#: ``kind`` values a study pool can report (``executor="auto"`` resolves to
#: inline or ``"process"`` per fan-out — see :func:`choose_lane`;
#: ``"remote"`` is only ever an explicit choice, see
#: :mod:`repro.runtime.remote`).
POOL_KINDS = ("process", "remote")


def _default_signals() -> None:
    """Pool worker initializer: the default SIGTERM and SIGINT dispositions.

    A forked worker inherits its parent's Python signal handlers.  An agent
    that installed a draining SIGTERM handler would hand it to its pool, and
    :meth:`~multiprocessing.pool.Pool.terminate` — which stops workers with
    SIGTERM — would then leave a busy worker running and its ``join()``
    waiting forever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def process_pool(workers: int) -> multiprocessing.pool.Pool:
    """A :class:`multiprocessing.Pool` whose workers share their parent's
    resource tracker and run with the default SIGTERM/SIGINT dispositions.

    The shared-memory resource tracker is started *before* the fork, so the
    children inherit it: a worker's attach-registration and the parent's
    unlink-unregistration meet in the same bookkeeping, and segments are
    never reported as leaked at exit.  The workers drop any inherited
    signal handler, so ``terminate()`` always stops them.  Both the study
    pool and the remote agent's local pool are built here.
    """
    try:  # pragma: no cover - depends on platform support
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass
    return multiprocessing.Pool(processes=workers, initializer=_default_signals)


class StudyPool:
    """A reusable multiprocessing pool with an async submission surface.

    Tasks submitted here are pickled to worker *processes*; bulk arrays
    travel through :class:`~repro.runtime.transport.ArrayShipment` where
    shared memory works.

    Parameters
    ----------
    workers:
        Number of worker processes (at least 2 — a one-worker pool is always
        slower than running in-process, so the studies never build one).
    """

    #: Which lane this pool serves (the remote pool reports ``"remote"``).
    kind = "process"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"a StudyPool needs at least 2 workers, got {workers}")
        self._workers = int(workers)
        self._pool: multiprocessing.pool.Pool | None = process_pool(self._workers)

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
        lane prices frame deadlines with it, so drivers pass it on every
        lane and stay lane-agnostic.  ``callback`` /
        ``error_callback`` pass straight through to
        :meth:`~multiprocessing.pool.Pool.apply_async` — the remote lane's
        degradation path drains chunks here and still needs completion
        notifications without blocking a thread per job.
        """
        return self._require().apply_async(
            fn, (args,), callback=callback, error_callback=error_callback
        )

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

    One pool per ``kind`` (``"process"`` — the default — or ``"remote"``)
    is kept alive for the life of the process.  An alive pool
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
            pool = StudyPool(workers)
            _global_pools[kind] = pool
        return pool


def choose_lane(
    executor: str | None,
    workers: int | None,
    worker_count: int,
    units: float,
    *,
    pool: Any = None,
) -> tuple[Any, int]:
    """Decide where one fan-out runs: ``(pool, worker_count)``.

    ``pool`` is the pool to submit to — ``None`` means run inline — and
    ``worker_count`` is the count to chunk by.  ``workers`` is the caller's
    explicit argument (``None`` when it was left to the environment),
    ``worker_count`` its resolved value, and ``units`` the batch's total
    estimated cost (see :mod:`repro.runtime.chunking`).  The rules:

    * an explicit ``pool=`` decides the lane; with no ``workers=`` it is a
      request for fan-out, so a worker count of ``0`` lifts to the pool's;
    * ``executor`` (argument, then ``REPRO_EXECUTOR``) resolving to
      ``"remote"`` engages the persistent remote pool (agents named by
      ``REPRO_HOSTS``, else loopback), and — because remote
      capacity lives on the agents — a worker count below 2 lifts to the
      agents' advertised total; an *explicit* ``workers=0``/``1`` still
      runs inline;
    * ``"process"`` fans out over the persistent process pool;
    * ``"auto"`` runs inline when ``units`` is at most
      :data:`~repro.runtime.chunking.AUTO_INLINE_MAX_UNITS` and on the
      process pool otherwise, and it never picks the remote lane on its
      own;
    * fewer than 2 workers always run inline.

    An inline lane always comes back with a worker count of 1, so the
    caller cuts one worker's chunks rather than chunks for workers that
    will never see them.  An invalid ``executor`` raises :class:`ValueError` whatever the pool.
    """
    from repro.runtime.chunking import AUTO_INLINE_MAX_UNITS, resolve_executor

    lane = resolve_executor(executor)
    if pool is not None:
        if workers is None and worker_count == 0:
            worker_count = pool.workers
    elif lane == "remote" and (workers is None or worker_count > 1):
        pool = get_pool(max(worker_count, 2), kind="remote")
        if worker_count < 2:
            worker_count = pool.workers
    elif worker_count > 1 and (lane == "process" or units > AUTO_INLINE_MAX_UNITS):
        pool = get_pool(worker_count)
    if pool is None or worker_count < 2:
        return None, 1
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
