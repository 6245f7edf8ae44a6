"""The distributed executor lane: shard studies across machines.

The runtime's other lanes place work inside one process tree — inline or on
local processes (:class:`~repro.runtime.pool.StudyPool`).  This module adds
the remote ``kind``: a :class:`RemoteStudyPool` (``executor="remote"``) that
serves the exact submit/collect contract of
:class:`~repro.runtime.pool.StudyPool`, but sends each chunk over a socket to a standalone **worker agent** —
``repro-bcast worker serve --bind HOST:PORT --workers N`` — where the agent
fans it out over its own local process pool.  Because every task derives its
own seed, sharding a study over any number of agents, in any join order,
with any mid-run agent loss, is bit-identical to the inline path — the same
invariant the inline and process lanes already carry, extended across
machines.

**Topology.**  One coordinator (the study process), N agents.  Agents are
named by the pool's ``hosts=`` argument, the ``REPRO_HOSTS`` environment
variable, or the CLI's ``--hosts a:port,b:port`` (which sets it); when none
are named the pool runs in **loopback mode**: it spawns
:data:`LOOPBACK_AGENTS` agents as local subprocesses of this machine, so
tests, benchmarks and a first try need no second box.
Membership is **elastic**: agents may join a running pool mid-study through
:meth:`RemoteStudyPool.add_host` or a :meth:`RemoteStudyPool.rescan_hosts`
of ``REPRO_HOSTS``, and start pulling queued work at once.

**Dispatch.**  The source paper's lesson — heterogeneous speeds must drive
the schedule — applies to the runtime itself, and the lane follows it by
**pulling** instead of predicting.  Submitted jobs wait in one
coordinator-side FIFO; each agent link keeps up to :data:`PREFETCH_PER_WORKER`
frames per worker on the wire and takes the next job off the queue whenever
one of its frames settles.  An agent twice as fast frees its slots twice as
often and so absorbs twice the work, split by *observed* completions with no
throughput estimate to get wrong.  Chunks themselves are cut by the callers
through the shared cost-balanced partitioner
(:func:`repro.runtime.chunking.partition_by_cost`), and a warm chain is
never split: it executes whole on one agent, exactly as it executes whole
on one local worker.

**Failure semantics.**  Every in-flight job keeps its encoded frame.  The
coordinator pings each agent every :data:`HEARTBEAT_INTERVAL` seconds
(``REPRO_HEARTBEAT``) and the agent answers from its serve loop, outside
the job path — so when an agent's connection drops *or* its host freezes
while the socket stays open, the coordinator marks it dead (after
:data:`HEARTBEAT_MISS_FACTOR` silent intervals).  A result that arrives
twice for one job — an agent raced its own loss, or executed a frame that
had also been re-dispatched — is counted and discarded (first delivery
wins; both carry bitwise the same numbers).

Every recovery trigger re-routes through one path: a frame taken off a
failing agent goes back to the head of the queue, marked to avoid that
agent while another alive agent can take it, and each trigger applies its
own policy only to frames no other agent can take.  An **agent loss**
marks the link dead but keeps it: its address is re-probed with
exponential backoff and jitter, and a probe that answers revives *the same
link* (cost model, counters and owned loopback process intact), which
starts pulling at once.  An expired **frame deadline**
(``frame_timeout=`` / ``REPRO_FRAME_TIMEOUT``, off by default: the floor
plus :data:`FRAME_DEADLINE_FACTOR` times the agent's own cost estimate)
re-routes the frame, or re-arms on the only alive agent.  A
:data:`~repro.runtime.wire.OP_BUSY` reject backs the agent off
exponentially and re-routes the frame, or requeues it for after the
backoff.  Whatever no alive agent can take — or what was rejected too
often — drains through the persistent local process lane, bit-identically
because every task carries its own derived seed: a dead fleet degrades
instead of failing.  ``docs/distributed.md`` maps every fault to its
detector and recovery.

All of these paths are exercised continuously by the deterministic fault
harness in :mod:`repro.runtime.faults` (``faults=`` / ``REPRO_FAULT_PLAN``):
a seeded :class:`~repro.runtime.faults.FaultPlan` is consulted at the wire
layer's injection points — connect, send, receive, and after each delivered
result — and injects connect refusals, frame drops/delays/corruption, agent
crashes and heartbeat black holes on a replayable schedule.

**Trust model.**  An agent executes functions its coordinator names (by
``module:qualname``), so it must only be exposed to coordinators you trust
— bind agents to loopback or a private interconnect, exactly like any
``multiprocessing`` worker endpoint.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
import re
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import multiprocessing
import multiprocessing.pool

from repro.runtime import wire
from repro.runtime.chunking import CostModel
from repro.runtime.serving import FrameServer, serve_foreground
from repro.runtime.faults import (
    FAULT_CRASH,
    SEND_CORRUPT,
    SEND_DELAY,
    SEND_DROP,
    FaultPlan,
    corrupt_frame,
    resolve_fault_plan,
)
from repro.runtime.pool import process_pool
from repro.runtime.transport import ArrayShipment, shared_memory_available

#: Environment variable naming the agents (``host:port,host:port``) consulted
#: when no ``hosts=`` argument is given; unset means loopback mode.
HOSTS_ENV_VAR = "REPRO_HOSTS"

#: Port an agent listens on when a host is named without one.
DEFAULT_AGENT_PORT = 7029

#: Number of agents a loopback pool spawns (each fronting an equal share of
#: the requested workers).  Two agents is the smallest topology that
#: exercises cross-agent dispatch, requeueing and join order.
LOOPBACK_AGENTS = 2

#: Seconds to wait for an agent connection / hello / loopback announce.
CONNECT_TIMEOUT = 30.0

#: Environment variable overriding :data:`CONNECT_TIMEOUT` when no explicit
#: ``connect_timeout=`` is given (fleets behind slow links raise it without
#: touching call sites).
CONNECT_TIMEOUT_ENV_VAR = "REPRO_CONNECT_TIMEOUT"

#: Smallest connect budget ``REPRO_CONNECT_TIMEOUT`` can set.
MIN_CONNECT_TIMEOUT = 0.05

#: First and largest pause between connect retries (exponential backoff,
#: jittered, capped) while an agent is still starting up.  Retrying inside
#: :meth:`_AgentLink.connect` means a ``--hosts`` fleet can be launched in
#: any order without the coordinator failing on first contact.
CONNECT_RETRY_BASE = 0.1
CONNECT_RETRY_CAP = 2.0

#: Frames kept on the wire per agent worker: enough that an agent never
#: starves between results, few enough that the rest wait in the shared
#: queue, where whichever agent frees a slot first takes them.
PREFETCH_PER_WORKER = 2

#: Default seconds between coordinator pings (override: ``REPRO_HEARTBEAT``;
#: zero or negative disables heartbeats).
HEARTBEAT_INTERVAL = 5.0

#: Environment variable overriding :data:`HEARTBEAT_INTERVAL`.
HEARTBEAT_ENV_VAR = "REPRO_HEARTBEAT"

#: An agent silent for this many heartbeat intervals is declared dead and
#: its outstanding frames re-routed.  Three intervals tolerates one lost
#: ping and ordinary scheduling jitter without false positives.
HEARTBEAT_MISS_FACTOR = 3.0

#: Environment variable enabling per-frame deadlines: the floor, in
#: seconds, of how long a frame may stay on the wire before it is re-routed
#: (the full deadline adds :data:`FRAME_DEADLINE_FACTOR` times the agent's
#: own cost-model estimate, so slow-but-honest agents are not starved).
#: Unset or ``<= 0`` — the default — disables deadlines entirely.
FRAME_TIMEOUT_ENV_VAR = "REPRO_FRAME_TIMEOUT"

#: Multiple of the link's cost-model estimate added to the frame-timeout
#: floor when arming a frame's deadline.  Four estimated durations absorbs
#: model error and queueing inside the agent without false expiries.
FRAME_DEADLINE_FACTOR = 4.0

#: Probation re-probe backoff: first pause after an agent is lost, and the
#: cap the exponential backoff saturates at (both jittered).
RECONNECT_BASE = 0.25
RECONNECT_CAP = 15.0

#: Connect/handshake budget of one probation probe.  Deliberately short:
#: a probe is speculative, and a frozen host can accept a TCP connection
#: through its kernel backlog and then never speak.
PROBE_TIMEOUT = 2.0

#: Admission-reject backoff: pause after an agent answers ``BUSY``, doubled
#: per consecutive reject up to the cap (both jittered).
BUSY_BACKOFF_BASE = 0.05
BUSY_BACKOFF_CAP = 1.0

#: A job bounced ``BUSY`` this many times *per alive agent* stops retrying
#: and degrades to the local lane — a fleet that is busy forever is
#: indistinguishable from a fleet that is gone.
BUSY_FALLBACK_REJECTS = 8

#: Default cap on concurrently served coordinators per agent (the
#: ``worker serve --max-coordinators`` default).  Two leaves headroom for a
#: coordinator reconnecting before the agent notices the old socket died.
DEFAULT_MAX_COORDINATORS = 2

_ANNOUNCE = re.compile(r"listening on ([^\s:]+):(\d+)")


def parse_hosts(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse ``"a:7029,b"`` into ``(("a", 7029), ("b", DEFAULT_AGENT_PORT))``.

    IPv6 literals use the bracket convention (``[::1]:7029``); a bare
    multi-colon address (``::1``) is taken as a host with the default port
    rather than misreading its last hextet as one.
    """
    entries: list[tuple[str, int]] = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        port_text = ""
        if raw.startswith("["):
            host, bracket, rest = raw[1:].partition("]")
            if not bracket or (rest and not rest.startswith(":")):
                raise ValueError(
                    f"bad agent address {raw!r}: IPv6 literals are "
                    "[address] or [address]:port"
                )
            port_text = rest[1:]
        elif raw.count(":") == 1:
            host, _, port_text = raw.partition(":")
        else:  # hostname/IPv4, or a bare (port-less) IPv6 literal
            host = raw
        if not host:
            raise ValueError(f"bad agent address {raw!r}: empty host")
        if port_text:
            try:
                port = int(port_text)
            except ValueError as exc:
                raise ValueError(
                    f"bad agent address {raw!r}: port must be an integer"
                ) from exc
        else:
            port = DEFAULT_AGENT_PORT
        entries.append((host, port))
    if not entries:
        raise ValueError(f"no agent addresses in hosts spec {spec!r}")
    return tuple(entries)


def resolve_hosts(
    hosts: str | Iterable[tuple[str, int]] | None,
) -> tuple[tuple[str, int], ...] | None:
    """Normalise a ``hosts=`` argument to an address tuple (or loopback).

    ``None`` consults the ``REPRO_HOSTS`` environment variable; an unset
    variable resolves to ``None`` — loopback mode.  Strings are parsed with
    :func:`parse_hosts`; pre-parsed address sequences pass through.
    """
    if hosts is None:
        hosts = os.environ.get(HOSTS_ENV_VAR, "").strip() or None
        if hosts is None:
            return None
    if isinstance(hosts, str):
        return parse_hosts(hosts)
    return tuple((str(host), int(port)) for host, port in hosts)


def _resolve_seconds(
    value: float | None, env_var: str, default: float, floor: float
) -> float:
    """Normalise a seconds knob: an explicit ``value`` wins.

    ``None`` consults ``env_var``, clamped to at least ``floor``; an unset
    or unparsable variable falls back to ``default`` (a bad knob should
    degrade to the default, not kill the study).
    """
    if value is not None:
        return float(value)
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return default
    try:
        return max(floor, float(raw))
    except ValueError:
        return default


def _function_name(fn: Callable[..., Any]) -> str:
    """The importable ``module:qualname`` of a worker body."""
    name = f"{fn.__module__}:{fn.__qualname__}"
    if "<" in name:
        raise ValueError(
            f"remote jobs need an importable module-level function, got {name}"
        )
    return name


def _resolve_function(name: str) -> Callable[..., Any]:
    """Import the worker body an incoming job names (agent side)."""
    module_name, _, qualname = name.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed remote function name {name!r}")
    target = import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _localise(obj: Any, repacked: list[ArrayShipment]) -> Any:
    """Replace wire shipments with freshly packed local shipments.

    The agent fans jobs out over its own process pool, so the arrays that
    crossed the wire take their last hop through local shared memory
    instead of being re-pickled per worker.  Where shared memory is
    unavailable a wire shipment stays as it is: it already holds just this
    job's slice.  ``repacked`` collects the shipments so the agent can
    unlink them once the job completes.
    """
    if isinstance(obj, wire.WireShipment):
        if not shared_memory_available():
            return obj
        shipment = ArrayShipment.pack(obj.load())
        repacked.append(shipment)
        return shipment
    if isinstance(obj, tuple):
        return tuple(_localise(item, repacked) for item in obj)
    if isinstance(obj, list):
        return [_localise(item, repacked) for item in obj]
    if isinstance(obj, dict):
        return {key: _localise(value, repacked) for key, value in obj.items()}
    return obj


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, a faithful stand-in otherwise."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _timed_execute(
    fn: Callable[[Any], Any], args: Any, slowdown: float = 1.0
) -> tuple[Any, float]:
    """Run one job on an agent worker and time it: ``(value, elapsed)``.

    The elapsed wall time rides back in the result frame and feeds the
    coordinator's per-agent cost model.  ``slowdown`` emulates a
    proportionally slower box (the job's own work is stretched by the
    factor, so finer chunks stay proportionally cheaper — unlike a fixed
    per-job sleep, which would mis-price small chunks); it exists for the
    skewed-fleet benchmark and tests, the production default is ``1.0``.
    """
    started = time.perf_counter()
    value = fn(args)
    elapsed = time.perf_counter() - started
    if slowdown > 1.0:
        time.sleep((slowdown - 1.0) * elapsed)
        elapsed = time.perf_counter() - started
    return value, elapsed


def _diagnostic_sleep(args: tuple[float, Any]) -> Any:
    """``(seconds, value)`` → sleep, then return ``value``.

    An importable stand-in job with a controllable duration, used by tests
    and the skewed-fleet benchmark to occupy agents for a known time.
    """
    seconds, value = args
    time.sleep(float(seconds))
    return value


# -- the agent (server side) ----------------------------------------------------------


class AgentServer(FrameServer):
    """One study agent: a socket front on a local worker pool.

    Serves up to ``max_coordinators`` concurrent coordinator connections,
    each on its own thread over the one shared local pool (reconnects are
    accepted — the pool persists across connections, like every runtime
    pool); further connections are bounced with a clean
    :data:`~repro.runtime.wire.OP_BUSY` hello instead of queueing silently
    in the TCP backlog.  Each admitted job frame is dispatched to the local
    pool immediately, so an agent keeps all its workers busy while more
    chunks stream in; results are framed back in completion order, each
    carrying the job's worker-side wall time.  With ``queue > 0`` the agent
    also bounds its in-flight frames: a frame beyond the bound is answered
    with a per-job ``BUSY`` reject the coordinator treats as
    backoff-and-retry.  Heartbeat pings are answered inline from the serve
    loop — never queued behind jobs — so a busy agent still proves it is
    alive.

    The accept loop, admission control and SIGTERM drain live in
    :class:`~repro.runtime.serving.FrameServer` (shared with the schedule
    service daemon); this class supplies the job protocol on top.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` lets the OS pick (the bound address is
        available as :attr:`address` after :meth:`bind`).
    workers:
        Local worker processes this agent fronts.  With one worker, jobs
        execute in-process (no pool spawn) — the loopback default.
    slowdown:
        Stretch every job's execution by this factor (``1.0`` — the default
        — is full speed).  A benchmarking/testing device for emulating a
        heterogeneous fleet on one machine; see :func:`_timed_execute`.
    max_coordinators:
        Concurrent coordinator connections served before new connections
        are bounced ``BUSY`` (default :data:`DEFAULT_MAX_COORDINATORS`).
    queue:
        Bound on frames accepted but not yet answered, across all
        coordinators; ``0`` — the default — is unbounded (the historical
        behaviour).
    """

    thread_name = "repro-agent-conn"
    busy_reason = "agent at max coordinators or draining"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        slowdown: float = 1.0,
        max_coordinators: int = DEFAULT_MAX_COORDINATORS,
        queue: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"an agent needs at least 1 worker, got {workers}")
        if slowdown < 1.0:
            raise ValueError(
                f"--slowdown is a throttle factor >= 1.0, got {slowdown}"
            )
        if max_coordinators < 1:
            raise ValueError(
                f"an agent serves at least 1 coordinator, got {max_coordinators}"
            )
        super().__init__(host, port, max_clients=max_coordinators, queue=queue)
        self.workers = int(workers)
        self.slowdown = float(slowdown)
        self._pool: multiprocessing.pool.Pool | None = None

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        with self._idle:  # connection threads race the lazy spawn
            if self._pool is None:
                if self.workers >= 2:
                    self._pool = process_pool(self.workers)
                else:
                    self._pool = multiprocessing.pool.ThreadPool(processes=1)
            return self._pool

    def _hello_message(self) -> dict[str, Any]:
        return {"hello": wire.WIRE_VERSION, "workers": self.workers}

    def _error_reply(
        self, message: dict[str, Any], exc: Exception
    ) -> dict[str, Any]:
        # Unpicklable results/errors degrade to a descriptive error frame
        # that still echoes the job id the coordinator is waiting on.
        return {
            "job": message.get("job"),
            "error": RuntimeError(f"agent could not serialise the reply: {exc}"),
        }

    def _handle_frame(
        self, message: dict[str, Any], reply: Callable[[dict[str, Any]], None]
    ) -> bool:
        if "job" not in message:
            return False
        job_id = message["job"]
        if not self._admit_job():
            # Draining, or the in-flight bound is hit: a clean per-job
            # reject the coordinator retries (here or elsewhere) after
            # a backoff, instead of silently queueing without bound.
            reply({"job": job_id, "op": wire.OP_BUSY})
            return True
        pool = self._ensure_pool()
        try:
            fn = _resolve_function(message["fn"])
            args = message["args"]
            repacked: list[ArrayShipment] = []
            if self.workers >= 2:
                args = _localise(args, repacked)
        except Exception as exc:  # noqa: BLE001 - reported to coordinator
            reply({"job": job_id, "error": _picklable_error(exc)})
            self._job_finished()
            return True

        def _done(
            timed: tuple[Any, float],
            job_id: int = job_id,
            repacked: list[ArrayShipment] = repacked,
        ) -> None:
            value, elapsed = timed
            reply({"job": job_id, "result": value, "elapsed": elapsed})
            for shipment in repacked:
                shipment.unlink()
            self._job_finished()

        def _failed(
            exc: BaseException,
            job_id: int = job_id,
            repacked: list[ArrayShipment] = repacked,
        ) -> None:
            reply({"job": job_id, "error": _picklable_error(exc)})
            for shipment in repacked:
                shipment.unlink()
            self._job_finished()

        pool.apply_async(
            _timed_execute,
            (fn, args, self.slowdown),
            callback=_done,
            error_callback=_failed,
        )
        return True

    def _on_close(self) -> None:
        """Tear the local pool down after the sockets are gone."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def serve_agent(
    bind: str = "127.0.0.1:0",
    workers: int = 1,
    *,
    slowdown: float = 1.0,
    exit_with_parent: bool = False,
    max_coordinators: int = DEFAULT_MAX_COORDINATORS,
    queue: int = 0,
    drain_timeout: float = 30.0,
) -> None:
    """Run one agent in the foreground (the ``worker serve`` CLI body).

    Announces the concrete listen address on stdout (``listening on
    host:port``) so loopback spawners — and humans — can read the
    OS-assigned port back.  ``exit_with_parent`` arms a watchdog that exits
    the agent when the spawning process dies, which is how loopback agents
    avoid outliving a killed coordinator.

    SIGTERM (coordinator close(), ``kill``, an orchestrator descheduling
    the box) triggers a **graceful drain**: in-flight frames finish and
    their results flush, new frames and connections are refused ``BUSY``,
    and the agent exits 0 — so a politely stopped agent never loses work
    the coordinator would have to detect and re-dispatch.  SIGKILL remains
    uncatchable; that path is what heartbeats and requeueing are for.
    """
    if exit_with_parent:
        parent = os.getppid()

        def _watchdog() -> None:
            while True:
                time.sleep(1.0)
                if os.getppid() != parent:
                    os._exit(0)

        threading.Thread(target=_watchdog, daemon=True).start()
    serve_foreground(
        bind,
        lambda host, port: AgentServer(
            host,
            port,
            workers,
            slowdown=slowdown,
            max_coordinators=max_coordinators,
            queue=queue,
        ),
        "repro-agent",
        f"workers={workers}, wire v{wire.WIRE_VERSION}",
        drain_timeout=drain_timeout,
    )


# -- loopback spawning ----------------------------------------------------------------


def _split_workers(total: int, agents: int) -> list[int]:
    """Split ``total`` workers across ``agents`` agents, largest share first."""
    agents = max(1, min(agents, total))
    base, extra = divmod(total, agents)
    return [base + (1 if index < extra else 0) for index in range(agents)]


def _spawn_loopback_agent(
    workers: int,
    slowdown: float = 1.0,
    queue_bound: int = 0,
) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start one agent subprocess on this machine and read its address back."""
    import repro

    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "serve",
        "--bind",
        "127.0.0.1:0",
        "--workers",
        str(workers),
        "--exit-with-parent",
    ]
    if slowdown != 1.0:
        command += ["--slowdown", str(slowdown)]
    if queue_bound:
        command += ["--queue", str(queue_bound)]
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env
    )
    # Read the announce line through a helper thread instead of select():
    # select on a pipe is Unix-only, and a plain readline could block past
    # the deadline if the agent wedges during start-up.
    announced: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(
        target=lambda: announced.put(process.stdout.readline()),
        daemon=True,
    ).start()
    deadline = time.monotonic() + _resolve_seconds(
        None, CONNECT_TIMEOUT_ENV_VAR, CONNECT_TIMEOUT, MIN_CONNECT_TIMEOUT
    )
    line = ""
    while time.monotonic() < deadline:
        try:
            line = announced.get(timeout=0.2)
            break
        except queue.Empty:
            if process.poll() is not None:
                raise RuntimeError(
                    f"loopback agent exited with code {process.returncode} "
                    "before announcing its address"
                )
    match = _ANNOUNCE.search(line)
    if not match:
        process.terminate()
        raise RuntimeError(
            f"loopback agent announced {line!r} instead of its address"
        )
    return process, (match.group(1), int(match.group(2)))


# -- the coordinator (client side) ----------------------------------------------------


def _hang_up(sock: socket.socket | None) -> None:
    """Shut ``sock`` down, then close it: on Linux, closing alone does not
    wake a thread blocked in ``recv`` on it, so a dead link's receiver
    would wait for a frozen agent to wake up."""
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class RemoteAsyncResult:
    """The remote twin of :class:`multiprocessing.pool.AsyncResult`.

    ``callback`` / ``error_callback`` run once, with the value or the
    failure, on whichever thread settles the job — as with
    :meth:`multiprocessing.pool.Pool.apply_async`.
    """

    __slots__ = (
        "_event",
        "_value",
        "_error",
        "_callback",
        "_error_callback",
        "_lock",
        "job_id",
    )

    def __init__(
        self,
        job_id: int,
        callback: Callable[[Any], object] | None = None,
        error_callback: Callable[[BaseException], object] | None = None,
    ) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None
        self._callback = callback
        self._error_callback = error_callback
        self._lock = threading.Lock()
        #: The wire-level job id this handle tracks.
        self.job_id = job_id

    def get(self, timeout: float | None = None) -> Any:
        """Block until the result arrives; re-raise the job's failure."""
        if not self._event.wait(timeout):
            raise multiprocessing.TimeoutError("remote job still running")
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, value: Any, error: BaseException | None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._value = value
            self._error = error
            self._event.set()
        if error is not None:
            if self._error_callback is not None:
                self._error_callback(error)
        elif self._callback is not None:
            self._callback(value)


class _Job:
    """One submitted chunk: its frame is kept until the result lands, so a
    lost agent's outstanding work can be re-sent verbatim elsewhere, and its
    estimated cost in units prices its deadline and the model feedback.  The
    original callable and arguments ride along too, so the job can execute
    through the local process lane when the whole fleet degrades."""

    __slots__ = (
        "job_id",
        "frame",
        "handle",
        "units",
        "fn",
        "args",
        "deadline",
        "rejects",
        "avoid",
    )

    def __init__(
        self,
        job_id: int,
        frame: bytes,
        handle: RemoteAsyncResult,
        units: float,
        fn: Callable[[Any], Any],
        args: Any,
    ) -> None:
        self.job_id = job_id
        self.frame = frame
        self.handle = handle
        self.units = units
        self.fn = fn
        self.args = args
        #: Monotonic time this frame goes overdue while in flight
        #: (``None``: unarmed — deadlines off, or the job is queued).
        self.deadline: float | None = None
        #: ``BUSY`` rejects this job has absorbed, across agents — the
        #: escalation counter for degrading to the local lane.
        self.rejects = 0
        #: The agent this job was last taken off; while queued, that agent
        #: leaves it to any other alive agent.
        self.avoid: _AgentLink | None = None


class _AgentLink:
    """Coordinator-side connection to one agent, for the life of the pool.

    Besides the socket, the link owns ``inflight`` (its frames on the wire,
    keyed by job id) and a per-agent
    :class:`~repro.runtime.chunking.CostModel` observed from the wall times
    the agent reports, which prices its frame deadlines.  A lost agent's
    link is kept on probation and revived by re-dialling it, never
    replaced, so both survive a reconnect.
    """

    def __init__(
        self,
        pool: "RemoteStudyPool",
        host: str,
        port: int,
        process: subprocess.Popen | None = None,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self.process = process
        self.sock: socket.socket | None = None
        self.workers = 0
        self.alive = False
        self.inflight: dict[int, _Job] = {}  # guarded-by: pool._lock
        #: Jobs this link delivered results for (observability and tests).
        self.completed = 0  # guarded-by: pool._lock
        #: Monotonic time of the last frame received from this agent; the
        #: heartbeat loop declares the agent dead when it goes stale.
        self.last_heard = 0.0
        #: Observed per-worker throughput of this agent.
        self.cost_model = CostModel()
        #: Monotonic time before which pumping skips this agent after an
        #: admission reject, and the consecutive reject count driving the
        #: exponential backoff.
        self.busy_until = 0.0  # guarded-by: pool._lock
        self.busy_streak = 0  # guarded-by: pool._lock
        #: Probation while dead: failed re-probes so far (drives the
        #: backoff), the monotonic time of the next one, and whether a
        #: probe thread is dialling right now (keeps the monitor from
        #: stacking probes on a slow handshake).
        self.probe_attempt = 0  # guarded-by: pool._lock
        self.next_probe = 0.0  # guarded-by: pool._lock
        self.probing = False  # guarded-by: pool._lock
        #: Backoff jitter that leaves the process-wide ``random`` state alone.
        self.jitter = random.Random()
        self._send_lock = threading.Lock()
        self._receiver: threading.Thread | None = None
        if pool.faults is not None:
            # Registration order is the plan's "#N" join index.
            pool.faults.register(self.name)

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def capacity(self) -> int:
        """Max frames on the wire."""
        return max(1, self.workers) * PREFETCH_PER_WORKER

    def backoff(self, base: float, cap: float, step: int) -> float:
        """A jittered exponential pause: ``min(cap, base * 2**step)`` times
        a factor in ``[0.5, 1.5)`` drawn from this link's own generator."""
        return min(cap, base * 2**step) * (0.5 + self.jitter.random())

    def connect(self, timeout: float) -> None:
        plan = self.pool.faults
        deadline = time.monotonic() + timeout
        attempt = 0
        last_error: Exception = OSError(
            f"could not connect to agent {self.name}"
        )
        while True:
            hello: dict | None = None
            sock: socket.socket | None = None
            if plan is not None and plan.refuse_connect(self.name):
                last_error = ConnectionRefusedError(
                    f"fault plan refused a connect to agent {self.name}"
                )
            else:
                remaining = deadline - time.monotonic()
                try:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=max(0.05, remaining)
                    )
                except OSError as exc:
                    # The agent may simply not be up yet (fleets launch in
                    # any order): back off exponentially with jitter and
                    # retry until the deadline.
                    last_error = exc
            if sock is not None:
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    raw = wire.recv_message(sock)
                except BaseException:
                    # A handshake that dies half-way (recv error or
                    # timeout) must not leak the connected socket.
                    sock.close()
                    raise
                if isinstance(raw, dict) and raw.get("op") == wire.OP_BUSY:
                    # Admission reject: the agent is alive but at its
                    # coordinator cap (or draining) — backoff-and-retry,
                    # not a failure.
                    sock.close()
                    last_error = ConnectionRefusedError(
                        f"agent {self.name} rejected the connection as busy"
                    )
                elif not isinstance(raw, dict) or "workers" not in raw:
                    sock.close()
                    raise wire.WireError(
                        f"agent {self.name} opened with {raw!r} "
                        "instead of a hello"
                    )
                else:
                    hello = raw
            if hello is not None:
                sock.settimeout(None)
                break
            attempt += 1
            delay = self.backoff(CONNECT_RETRY_BASE, CONNECT_RETRY_CAP, attempt - 1)
            if not self.pool.alive:
                raise RuntimeError("RemoteStudyPool is closed")
            if time.monotonic() + delay >= deadline:
                raise last_error
            time.sleep(delay)
        with self.pool._lock:
            raced = self.alive  # another dial revived this link first
            if not raced:
                self.sock = sock
                self.workers = max(1, int(hello["workers"]))
                self.last_heard = time.monotonic()
                self.alive = True
        if raced:
            _hang_up(sock)
            return
        self._receiver = threading.Thread(
            target=self._receive_loop,
            args=(sock,),
            name=f"repro-agent-rx-{self.name}",
            daemon=True,
        )
        self._receiver.start()

    def _receive_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                message = wire.recv_message(sock)
                if message is None:
                    break
                plan = self.pool.faults
                if plan is not None and plan.absorb_receive(self.name):
                    # The agent is black-holed: the frame vanishes before
                    # it can refresh liveness — a frozen host from the
                    # coordinator's point of view.
                    continue
                self.last_heard = time.monotonic()
                if isinstance(message, dict) and "job" in message:
                    self.pool._deliver(self, message)
                # Pongs need no further handling: receiving *any* frame
                # refreshed last_heard, which is all a heartbeat proves.
        except Exception:  # noqa: BLE001 - any decode failure (WireError,
            # OSError, a pickle/zlib error from a corrupt or version-skewed
            # frame) means the stream can no longer be trusted.
            pass
        finally:
            # Unconditional: however this loop ends, the link's outstanding
            # jobs must be re-routed — never left to hang their waiters
            # forever.  Naming the socket keeps a receiver outliving its
            # connection from killing a link that was revived since.
            self.pool._agent_lost(self, sock)

    def send(self, frame: bytes) -> None:
        plan = self.pool.faults
        if plan is not None:
            verdict, delay = plan.on_send(self.name)
            if verdict == SEND_DROP:
                return
            if verdict == SEND_CORRUPT:
                frame = corrupt_frame(frame)
            elif verdict == SEND_DELAY:
                time.sleep(delay)
        with self._send_lock:
            self.sock.sendall(frame)

    def close(self, graceful: bool = True) -> None:
        self.alive = False
        if self.sock is not None:
            if graceful:
                try:
                    self.send(wire.encode_message({"op": wire.OP_SHUTDOWN}))
                except OSError:
                    pass
            _hang_up(self.sock)
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                self.process.kill()
                self.process.wait()
            if self.process.stdout is not None:
                self.process.stdout.close()


class RemoteStudyPool:
    """The remote lane: :class:`~repro.runtime.pool.StudyPool`'s contract,
    served by worker agents over sockets.

    Parameters
    ----------
    workers:
        Total worker target in loopback mode (split across
        :data:`LOOPBACK_AGENTS` auto-spawned local agents); ignored when
        ``hosts`` names real agents, whose advertised worker counts add up
        to the pool's capacity instead.
    hosts:
        Agent addresses — a ``"host:port,host:port"`` string or a parsed
        address sequence.  ``None`` consults ``REPRO_HOSTS`` and falls back
        to loopback mode.
    heartbeat:
        Seconds between liveness pings (``None`` consults
        ``REPRO_HEARTBEAT`` and falls back to
        :data:`HEARTBEAT_INTERVAL`; zero or negative disables the
        heartbeat loop — agent loss is then detected on socket errors
        only).
    faults:
        Fault-injection schedule for the chaos harness: a
        :class:`~repro.runtime.faults.FaultPlan`, a spec mapping, or a
        path to a JSON spec (``None`` consults ``REPRO_FAULT_PLAN``;
        unset — the production default — injects nothing at all).
    frame_timeout:
        Per-frame deadline floor in seconds (``None`` consults
        ``REPRO_FRAME_TIMEOUT``; zero — the default — disables
        deadlines).  See :data:`FRAME_DEADLINE_FACTOR`.
    connect_timeout:
        Connect/handshake budget in seconds (``None`` consults
        ``REPRO_CONNECT_TIMEOUT`` and falls back to
        :data:`CONNECT_TIMEOUT`).

    The pool is used through the same two members as every other lane:
    :meth:`submit` and :meth:`close` — which is what
    lets every study driver run remotely unchanged.  Dispatch, heartbeats,
    membership changes and every recovery path never affect study
    results — every task carries its own derived seed — only where and
    when chunks run.
    """

    kind = "remote"

    def __init__(
        self,
        workers: int | None = None,
        *,
        hosts: str | Iterable[tuple[str, int]] | None = None,
        heartbeat: float | None = None,
        faults: "FaultPlan | dict | str | Path | None" = None,
        frame_timeout: float | None = None,
        connect_timeout: float | None = None,
    ) -> None:
        self.hosts_spec = resolve_hosts(hosts)
        self._heartbeat = _resolve_seconds(
            heartbeat, HEARTBEAT_ENV_VAR, HEARTBEAT_INTERVAL, 0.0
        )
        #: The active fault-injection plan (``None``: injection off, and
        #: every consult site is a single ``is not None`` check).
        self.faults = resolve_fault_plan(faults)
        self.connect_timeout = _resolve_seconds(
            connect_timeout,
            CONNECT_TIMEOUT_ENV_VAR,
            CONNECT_TIMEOUT,
            MIN_CONNECT_TIMEOUT,
        )
        self._frame_timeout = _resolve_seconds(
            frame_timeout, FRAME_TIMEOUT_ENV_VAR, 0.0, 0.0
        )
        self._lock = threading.RLock()
        self._jobs: dict[int, _Job] = {}  # guarded-by: _lock
        #: Jobs waiting for a free agent slot, in submission order
        #: (re-routed jobs go back to the head).
        self._queue: deque[_Job] = deque()  # guarded-by: _lock
        self._job_ids = itertools.count(1)
        self._closed = False  # guarded-by: _lock
        #: Results that arrived for already-settled jobs (an agent racing
        #: its own loss, or a re-dispatched frame's first execution);
        #: discarded, counted for observability and tests.
        self.duplicates_ignored = 0  # guarded-by: _lock
        #: Lost agents revived by the probation prober.
        self.reconnects = 0  # guarded-by: _lock
        #: Frames bounced by agent admission control (``BUSY`` rejects).
        self.busy_rejects = 0  # guarded-by: _lock
        #: In-flight frames re-routed because their deadline expired.
        self.deadline_expired = 0  # guarded-by: _lock
        #: Chunks drained through the local lane (no agent could take them).
        self.degraded_jobs = 0  # guarded-by: _lock
        #: One link per agent address ever connected, dead or alive.
        self._agents: list[_AgentLink] = []  # guarded-by: _lock
        self._monitor_stop = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        try:
            if self.hosts_spec is not None:
                for host, port in self.hosts_spec:
                    self._dial(_AgentLink(self, host, port), self.connect_timeout)
            else:
                total = max(2, int(workers or 0))
                for share in _split_workers(total, LOOPBACK_AGENTS):
                    process, (host, port) = _spawn_loopback_agent(share)
                    link = _AgentLink(self, host, port, process=process)
                    self._dial(link, self.connect_timeout)
        except BaseException:
            for link in self._agents:
                link.close(graceful=False)
            raise
        # One maintenance thread for everything periodic — heartbeats,
        # frame deadlines, probation probes, post-backoff re-pumps —
        # always running (backoff re-pumps are needed even with heartbeats
        # and deadlines off).
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop,
            name="repro-remote-monitor",
            daemon=True,
        )
        self._monitor_thread.start()

    # -- the StudyPool contract ---------------------------------------------------

    @property
    def workers(self) -> int:
        """Total advertised workers across the currently alive agents."""
        with self._lock:
            return sum(link.workers for link in self._agents if link.alive)

    @property
    def alive(self) -> bool:
        """Whether the pool can still accept work.

        An open pool always can — a fleet with no live agent degrades to
        the local lane instead of refusing work.
        """
        with self._lock:
            return not self._closed

    def submit(
        self,
        fn: Callable[[Any], Any],
        args: Any,
        units: float | None = None,
        callback: Callable[[Any], object] | None = None,
        error_callback: Callable[[BaseException], object] | None = None,
    ) -> RemoteAsyncResult:
        """Frame ``fn(args)`` and queue it for the next free agent slot.

        ``units`` is the job's estimated cost in the shared cost-unit scale
        (messages / stacked-matrix cells — see
        :mod:`repro.runtime.chunking`); it prices the job's frame deadline
        and the delivering agent's model feedback.  ``None`` prices every
        job equally.  Like all dispatch state it can never change results.

        ``callback`` / ``error_callback`` mirror
        :meth:`multiprocessing.pool.Pool.apply_async` (and the local
        lanes' submit): called with the result value or the failure once
        the job settles, whichever lane — remote or degraded-local — ends
        up executing it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("RemoteStudyPool is closed")
            job_id = next(self._job_ids)
        frame = wire.encode_message(
            {"job": job_id, "fn": _function_name(fn), "args": args}
        )
        handle = RemoteAsyncResult(job_id, callback, error_callback)
        job = _Job(
            job_id,
            frame,
            handle,
            units=float(units or 0) or 1.0,
            fn=fn,
            args=args,
        )
        with self._lock:
            self._jobs[job_id] = job
            fleet = any(link.alive for link in self._agents)
            if fleet:
                self._queue.append(job)
        if fleet:
            self._pump_all()
        else:
            self._degrade([job])
        return handle

    def close(self) -> None:
        """Disconnect every agent, stop loopback subprocesses (idempotent).

        Jobs still pending fail with a descriptive error rather than
        hanging their waiters forever.
        """
        self._monitor_stop.set()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphaned = list(self._jobs.values())
            self._jobs.clear()
            self._queue.clear()
            agents = list(self._agents)
        for job in orphaned:
            job.handle._settle(
                None, RuntimeError("RemoteStudyPool closed with jobs pending")
            )
        for link in agents:
            link.close()

    def __enter__(self) -> "RemoteStudyPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- elastic membership -------------------------------------------------------

    def add_host(self, host: str, port: int | None = None) -> _AgentLink:
        """Connect one more agent mid-study; it starts pulling queued work.

        ``host`` may be a bare hostname (``port`` applying, default
        :data:`DEFAULT_AGENT_PORT`) or a ``"host:port"`` string.  Adding an
        address that is already connected and alive is a no-op returning
        the existing link; the address of a dead link revives that link.
        """
        if port is None:
            ((host, port),) = parse_hosts(host)
        address = (str(host), int(port))
        with self._lock:
            if self._closed:
                raise RuntimeError("RemoteStudyPool is closed")
            known = [
                link for link in self._agents if (link.host, link.port) == address
            ]
        if known and known[0].alive:
            return known[0]
        link = known[0] if known else _AgentLink(self, *address)
        self._dial(link, self.connect_timeout)
        return link

    def rescan_hosts(self) -> list[_AgentLink]:
        """Re-read ``REPRO_HOSTS`` and connect any newly named agents.

        Returns the links added.  Unreachable new hosts are skipped (they
        can be rescanned again later); already-connected hosts are left
        untouched.  A pool in loopback mode joins named agents too — the
        variable simply names more capacity.
        """
        spec = resolve_hosts(None)
        if spec is None:
            return []
        with self._lock:
            connected = {link.name for link in self._agents if link.alive}
        added: list[_AgentLink] = []
        for host, port in spec:
            if f"{host}:{port}" in connected:
                continue
            try:
                added.append(self.add_host(host, port))
            except (OSError, wire.WireError):
                continue
        if self.hosts_spec is not None:
            self.hosts_spec = spec
        return added

    # -- internals ----------------------------------------------------------------

    def _dial(self, link: _AgentLink, timeout: float) -> None:
        """Connect a new or dead ``link`` and put it to work: it joins the
        roster (or leaves probation) and pulls queued work at once."""
        link.connect(timeout)
        with self._lock:
            closed = self._closed
            if not closed and link not in self._agents:
                self._agents.append(link)
        if closed:
            link.close(graceful=False)
            raise RuntimeError("RemoteStudyPool is closed")
        self._pump(link)

    def _reroute(
        self,
        source: _AgentLink,
        jobs: list[_Job],
        keep: Callable[[_Job], None] | None = None,
    ) -> int:
        """Put jobs taken off ``source`` back at the head of the queue for
        another agent; return how many went there.

        The one re-route path of every recovery trigger: agent loss, frame
        deadline, ``BUSY``.  While another agent is alive the jobs wait for
        it (``source`` skips them).  Otherwise they go to the trigger's
        ``keep`` policy (run holding the lock) while ``source`` is alive,
        and to the local lane once no agent is.
        """
        moved: list[_Job] = []
        degraded: list[_Job] = []
        with self._lock:
            peers = any(
                link.alive and link is not source for link in self._agents
            )
            for job in jobs:
                if job.job_id not in self._jobs:
                    continue  # settled meanwhile
                job.deadline = None
                job.avoid = source
                if peers:
                    moved.append(job)
                elif keep is not None and source.alive:
                    keep(job)
                else:
                    degraded.append(job)
            self._queue.extendleft(reversed(moved))
        self._degrade(degraded)
        if moved:
            self._pump_all()
        return len(moved)

    def _pump(self, link: _AgentLink) -> None:
        """Move jobs from the queue onto ``link`` until it has
        :attr:`~_AgentLink.capacity` frames in flight."""
        batch: list[_Job] = []
        with self._lock:
            if not link.alive or link.busy_until > time.monotonic():
                return  # backing off a BUSY; the monitor re-pumps later
            peers = any(
                other.alive and other is not link for other in self._agents
            )
            skipped: list[_Job] = []
            while self._queue and len(link.inflight) < link.capacity:
                job = self._queue.popleft()
                if job.avoid is link and peers:
                    skipped.append(job)
                    continue
                job.avoid = None
                if self._frame_timeout > 0:
                    job.deadline = time.monotonic() + self._deadline_seconds(
                        link, job
                    )
                link.inflight[job.job_id] = job
                batch.append(job)
            self._queue.extendleft(reversed(skipped))
        for job in batch:
            try:
                link.send(job.frame)
            except OSError:
                self._agent_lost(link)
                return

    def _pump_all(self) -> None:
        """Let every alive agent pull from the queue."""
        with self._lock:
            links = [link for link in self._agents if link.alive]
        for link in links:
            self._pump(link)

    def _monitor_loop(self) -> None:
        """All periodic maintenance, on one thread: heartbeats, frame
        deadlines, probation probes and post-backoff re-pumps."""
        # The cadence is fine enough for the sharpest deadline.
        tick = 0.25
        if self._heartbeat > 0:
            tick = min(tick, self._heartbeat / 2)
        if self._frame_timeout > 0:
            tick = min(tick, self._frame_timeout / 4)
        sequence = itertools.count(1)
        next_ping = (
            time.monotonic() + self._heartbeat if self._heartbeat > 0 else None
        )
        while not self._monitor_stop.wait(max(0.02, tick)):
            now = time.monotonic()
            if next_ping is not None and now >= next_ping:
                next_ping = now + self._heartbeat
                self._heartbeat_round(sequence, now)
            if self._frame_timeout > 0:
                self._expire_overdue(now)
            self._launch_probes(now)
            # Re-pump while jobs wait: a no-op unless an agent's BUSY
            # backoff has run out with jobs still queued.
            with self._lock:
                waiting = bool(self._queue)
            if waiting:
                self._pump_all()

    def _heartbeat_round(self, sequence: Iterator[int], now: float) -> None:
        """Ping every alive agent; declare the silent ones dead."""
        stale = self._heartbeat * HEARTBEAT_MISS_FACTOR
        with self._lock:
            links = [link for link in self._agents if link.alive]
        for link in links:
            if now - link.last_heard > stale:
                # The socket may still look healthy (a frozen host's
                # kernel keeps ACKing) — silence is the only signal.
                self._agent_lost(link)
                continue
            frame = wire.encode_message(
                wire.control_message(wire.OP_PING, seq=next(sequence))
            )
            try:
                link.send(frame)
            except OSError:
                self._agent_lost(link)

    def _deadline_seconds(self, link: _AgentLink, job: _Job) -> float:
        """A frame's deadline: the configured floor plus a multiple of the
        link's *own* cost estimate, so a slow-but-honest agent is priced by
        its throughput rather than starved by a global constant."""
        return self._frame_timeout + FRAME_DEADLINE_FACTOR * (
            link.cost_model.seconds_for(job.units)
        )

    def _expire_overdue(self, now: float) -> None:
        """Re-route in-flight frames whose deadline has passed.

        The original agent may still answer later; the later of the two
        results is discarded as a duplicate (both executions carry bitwise
        the same numbers).  A frame with nowhere to go stays
        in flight with its deadline re-armed, uncounted.
        """
        overdue: list[tuple[_AgentLink, list[_Job]]] = []
        with self._lock:
            for link in self._agents:  # a dead link has nothing in flight
                jobs = [
                    job
                    for job in link.inflight.values()
                    if job.deadline is not None and now > job.deadline
                ]
                for job in jobs:
                    del link.inflight[job.job_id]
                if jobs:
                    overdue.append((link, jobs))
        for link, jobs in overdue:

            def _rearm(stranded: _Job, link: _AgentLink = link) -> None:  # holds: _lock
                stranded.deadline = now + self._deadline_seconds(link, stranded)
                link.inflight[stranded.job_id] = stranded

            moved = self._reroute(link, jobs, keep=_rearm)
            with self._lock:
                self.deadline_expired += moved

    def _launch_probes(self, now: float) -> None:
        """Dial due probation links, each probe on its own thread (a
        probe against a frozen host blocks for :data:`PROBE_TIMEOUT`, and
        the monitor must keep ticking meanwhile)."""
        with self._lock:
            due = [
                link
                for link in self._agents
                if not link.alive and not link.probing and now >= link.next_probe
            ]
            for link in due:
                link.probing = True
        for link in due:
            threading.Thread(
                target=self._probe_agent,
                args=(link,),
                name=f"repro-remote-probe-{link.name}",
                daemon=True,
            ).start()

    def _probe_agent(self, link: _AgentLink) -> None:
        """One reconnect attempt: re-dial the lost agent's own link."""
        try:
            self._dial(link, PROBE_TIMEOUT)
        except Exception:  # noqa: BLE001 - still dead: back off, retry
            with self._lock:
                link.probing = False
                link.probe_attempt += 1
                link.next_probe = time.monotonic() + link.backoff(
                    RECONNECT_BASE, RECONNECT_CAP, link.probe_attempt
                )
            return
        with self._lock:
            link.probing = False
            self.reconnects += 1

    def _deliver(self, agent: _AgentLink, message: dict) -> None:
        """Settle one job from a result frame (first delivery wins)."""
        if message.get("op") == wire.OP_BUSY:
            self._job_rejected(agent, message["job"])
            return
        job_id = message["job"]
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                self.duplicates_ignored += 1
                return
            if agent.inflight.pop(job_id, None) is None:
                # A late result for a re-dispatched frame: its twin is in
                # flight elsewhere or still waiting in the queue.
                for link in self._agents:
                    link.inflight.pop(job_id, None)
                if job in self._queue:
                    self._queue.remove(job)
            agent.completed += 1
            agent.busy_streak = 0
            elapsed = message.get("elapsed")
            if isinstance(elapsed, (int, float)) and elapsed > 0:
                agent.cost_model.observe(job.units, float(elapsed))
        error = message.get("error")
        if error is not None and not isinstance(error, BaseException):
            error = RuntimeError(str(error))
        job.handle._settle(message.get("result"), error)
        plan = self.faults
        if plan is not None and plan.after_result(agent.name) == FAULT_CRASH:
            # Injected crash: an owned loopback process dies outright
            # (SIGKILL — no drain, no goodbye) and the link goes down the
            # normal lost-agent path; the plan refuses every reconnect, so
            # detection and recovery run exactly as for a real crash.
            if agent.process is not None and agent.process.poll() is None:
                agent.process.kill()
            self._agent_lost(agent)
            return
        self._pump(agent)

    def _job_rejected(self, agent: _AgentLink, job_id: int) -> None:
        """Handle a per-job ``BUSY``: back the agent off, re-route the frame.

        The frame goes back to the queue for another agent when one is
        alive (otherwise for this one, once its backoff expires); after
        :data:`BUSY_FALLBACK_REJECTS` bounces per alive agent the job stops
        retrying and degrades to the local lane instead — a fleet that is
        busy forever is a fleet that is gone.
        """
        with self._lock:
            job = agent.inflight.pop(job_id, None)
            if job is None or job.job_id not in self._jobs:
                return  # already re-routed or settled elsewhere
            self.busy_rejects += 1
            job.rejects += 1
            agent.busy_streak += 1
            agent.busy_until = time.monotonic() + agent.backoff(
                BUSY_BACKOFF_BASE, BUSY_BACKOFF_CAP, agent.busy_streak - 1
            )
            alive = sum(1 for link in self._agents if link.alive)
            give_up = job.rejects >= BUSY_FALLBACK_REJECTS * max(1, alive)
        if give_up:
            self._degrade([job])
            return

        def _requeue(stranded: _Job) -> None:  # holds: _lock
            self._queue.appendleft(stranded)

        self._reroute(agent, [job], keep=_requeue)

    def _degrade(self, jobs: list[_Job]) -> None:
        """Drain chunks no agent can take through the persistent local
        process lane.

        Each chunk executes from its original callable and arguments with
        its own derived seed, so the degraded result is bit-identical to
        the remote one.  A job settled meanwhile is skipped, and any
        failure to degrade settles the handle with the error — a degraded
        job must never hang its waiter.
        """
        if not jobs:
            return
        from repro.runtime.pool import get_pool

        with self._lock:
            jobs = [
                job for job in jobs if self._jobs.pop(job.job_id, None) is not None
            ]
            self.degraded_jobs += len(jobs)
        for job in jobs:
            try:
                get_pool(2, kind="process").submit(
                    job.fn,
                    job.args,
                    units=job.units,
                    callback=partial(job.handle._settle, error=None),
                    error_callback=partial(job.handle._settle, None),
                )
            except Exception as exc:  # noqa: BLE001 - never hang the waiter
                job.handle._settle(None, _picklable_error(exc))

    def _agent_lost(
        self, agent: _AgentLink, sock: socket.socket | None = None
    ) -> None:
        """Mark ``agent`` dead, re-route its jobs, put its link on probation.

        When no agent is left alive the queued jobs drain locally too.

        ``sock`` names the connection the caller saw fail; a loss reported
        for a connection the link has since replaced is stale and ignored.
        """
        with self._lock:
            if not agent.alive or (sock is not None and sock is not agent.sock):
                return
            agent.alive = False
            sock = agent.sock
            orphaned = list(agent.inflight.values())
            agent.inflight.clear()
            if not any(link.alive for link in self._agents):
                orphaned += self._queue
                self._queue.clear()
            closed = self._closed
            agent.probe_attempt = 0
            agent.next_probe = time.monotonic() + agent.backoff(
                RECONNECT_BASE, RECONNECT_CAP, 0
            )
        _hang_up(sock)
        if not closed:
            self._reroute(agent, orphaned)
