"""Shared socket-serving scaffolding for the runtime's daemons.

Two long-running servers speak the length-prefixed wire protocol
(:mod:`repro.runtime.wire`): the study **agent**
(:class:`repro.runtime.remote.AgentServer`, the ``worker serve`` CLI) and
the **schedule service** (:class:`repro.runtime.service.ScheduleService`,
the ``service serve`` CLI).  Both need the same serving skeleton — a bound
listener, a thread-per-connection accept loop, connection admission with a
clean ``BUSY`` bounce instead of silent TCP-backlog queueing, per-frame
in-flight accounting, and the graceful SIGTERM drain contract — so that
skeleton lives here once, as :class:`FrameServer`.

A subclass provides the protocol on top of the skeleton:

* :meth:`FrameServer._hello_message` — the first frame of every admitted
  connection (protocol version plus capability fields);
* :meth:`FrameServer._handle_frame` — one decoded, non-control frame
  (``PING`` and ``SHUTDOWN`` are answered by the skeleton itself, so a
  busy server still proves it is alive);
* :meth:`FrameServer._error_reply` — the degraded reply sent when a
  subclass reply fails to serialise (replies must echo the protocol's
  correlation key, which only the subclass knows);
* :meth:`FrameServer._on_close` — extra teardown (worker pools, caches).

The drain contract is the one PR 8 established for agents and is shared
verbatim: :meth:`FrameServer.begin_drain` is async-signal-safe (an Event
set plus a listener close, no locks, callable from a SIGTERM handler),
after which new connections and new frames bounce ``BUSY`` while admitted
frames finish and flush; :meth:`FrameServer.drain` then waits for the last
pending frame.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable

from repro.runtime import wire

__all__ = ["FrameServer"]

#: Longest time :meth:`FrameServer.serve_forever` stays inside one accept
#: call before returning to Python (where pending signal handlers run).
_ACCEPT_POLL_SECONDS = 0.1


class FrameServer:
    """A length-prefixed-frame server: accept loop, admission, drain.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` lets the OS pick (the bound address is
        available as :attr:`address` after :meth:`bind`).
    max_clients:
        Concurrent client connections served before new connections are
        bounced with a :data:`~repro.runtime.wire.OP_BUSY` hello.
    queue:
        Bound on frames accepted but not yet answered, across all
        clients; ``0`` is unbounded (the historical agent behaviour).
    """

    #: Thread name for per-connection threads (subclasses override).
    thread_name = "repro-serve-conn"
    #: Reason string carried by the ``BUSY`` hello bounce.
    busy_reason = "server at max clients or draining"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_clients: int,
        queue: int = 0,
    ) -> None:
        if max_clients < 1:
            raise ValueError(
                f"a server serves at least 1 client, got {max_clients}"
            )
        if queue < 0:
            raise ValueError(f"--queue is a bound >= 0 (0: unbounded), got {queue}")
        self._host = host
        self._port = port
        self.max_clients = int(max_clients)
        self._queue_bound = int(queue)
        self._listener: socket.socket | None = None
        self._stopped = threading.Event()
        #: Set by :meth:`begin_drain` (SIGTERM): finish what is in flight,
        #: refuse everything new.  An Event, not a lock-guarded flag — the
        #: drain request comes from a signal handler, which must not take
        #: locks the interrupted main thread may hold.
        self._drain = threading.Event()
        #: Admission state; the Condition doubles as its lock and signals
        #: :meth:`drain` when the last pending frame flushes.
        self._idle = threading.Condition()
        self._active = 0  # guarded-by: _idle
        self._pending = 0  # guarded-by: _idle
        self._connections: set[socket.socket] = set()  # guarded-by: _idle
        self.address: tuple[str, int] | None = None

    # -- subclass protocol surface --------------------------------------------

    def _hello_message(self) -> dict[str, Any]:
        """The first frame of every admitted connection."""
        raise NotImplementedError

    def _handle_frame(
        self, message: dict[str, Any], reply: Callable[[dict[str, Any]], None]
    ) -> bool:
        """Serve one non-control frame; return ``False`` to drop the connection.

        ``reply`` is safe to call from any thread (sends are serialised per
        connection) and may be called zero or many times per frame.  The
        subclass is responsible for :meth:`_admit_job` /
        :meth:`_job_finished` accounting around any work it starts.
        """
        raise NotImplementedError

    def _error_reply(
        self, message: dict[str, Any], exc: Exception
    ) -> dict[str, Any]:
        """The degraded frame sent when a reply cannot be serialised."""
        return {"error": RuntimeError(f"server could not serialise the reply: {exc}")}

    def _on_connection(self) -> None:
        """Hook run once per admitted connection, after the hello."""

    def _on_close(self) -> None:
        """Hook run by :meth:`close` after the sockets are torn down."""

    # -- serving skeleton ------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind the listen socket and return the concrete ``(host, port)``."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(8)
            self._listener = listener
            self.address = listener.getsockname()[:2]
        assert self.address is not None
        return self.address

    def serve_forever(self) -> None:
        """Accept client connections until :meth:`close` is called."""
        self.bind()
        listener = self._listener
        assert listener is not None
        # A bounded accept: a signal the kernel hands to another thread only
        # sets a flag, and the main thread runs its Python handler (SIGTERM's
        # begin_drain) when it next returns from the accept call.
        listener.settimeout(_ACCEPT_POLL_SECONDS)
        while not self._stopped.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            with self._idle:
                admitted = (
                    not self._drain.is_set() and self._active < self.max_clients
                )
                if admitted:
                    self._active += 1
                    self._connections.add(conn)
            if not admitted:
                self._reject_connection(conn)
                continue
            threading.Thread(
                target=self._connection_thread,
                args=(conn,),
                name=self.thread_name,
                daemon=True,
            ).start()

    def _reject_connection(self, conn: socket.socket) -> None:
        """Bounce a connection with a ``BUSY`` hello and close it."""
        try:
            wire.send_message(
                conn, wire.control_message(wire.OP_BUSY, reason=self.busy_reason)
            )
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _connection_thread(self, conn: socket.socket) -> None:
        try:
            self._serve_connection(conn)
        finally:
            with self._idle:
                self._active -= 1
                self._connections.discard(conn)
                self._idle.notify_all()
            try:
                conn.close()
            except OSError:
                pass

    def _admit_job(self) -> bool:
        """Account one more in-flight frame, unless draining or over bound."""
        if self._drain.is_set():
            return False
        with self._idle:
            if self._queue_bound > 0 and self._pending >= self._queue_bound:
                return False
            self._pending += 1
        return True

    def _job_finished(self) -> None:
        with self._idle:
            self._pending -= 1
            self._idle.notify_all()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_lock = threading.Lock()

        def reply(message: dict[str, Any]) -> None:
            # Unserialisable replies degrade to a descriptive error frame
            # (echoing the subclass's correlation key); an unreachable
            # client is simply gone, so send failures are swallowed.
            try:
                frame = wire.encode_message(message)
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                frame = wire.encode_message(self._error_reply(message, exc))
            try:
                with send_lock:
                    conn.sendall(frame)
            except OSError:
                pass

        wire.send_message(conn, self._hello_message())
        self._on_connection()
        while not self._stopped.is_set():
            try:
                message = wire.recv_message(conn)
            except Exception:  # noqa: BLE001 - a frame that cannot be
                # decoded (truncation, version skew, a class this server's
                # build cannot import) poisons the stream: drop the
                # connection — the client reconnects or requeues — and go
                # back to accepting instead of crashing the whole server.
                break
            if message is None or not isinstance(message, dict):
                break
            op = message.get("op")
            if op == wire.OP_PING:
                # Answered here, from the serve loop, not through any work
                # path: pings must come back even while the server is busy.
                reply(wire.control_message(wire.OP_PONG, seq=message.get("seq")))
                continue
            if op == wire.OP_SHUTDOWN:
                break
            if not self._handle_frame(message, reply):
                break

    # -- drain / teardown ------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether a graceful shutdown has been requested."""
        return self._drain.is_set()

    def begin_drain(self) -> None:
        """Request a graceful shutdown (async-signal-safe: takes no locks).

        New connections and new frames are refused ``BUSY`` from this point
        on; frames already admitted keep executing and their results still
        flush.  Shutting the listener down and closing it kicks
        :meth:`serve_forever` out of its blocking accept from any thread
        (closing alone does not wake accept() on Linux), so the serving
        thread can proceed to :meth:`drain` and exit cleanly — the
        foreground-daemon SIGTERM path.
        """
        self._drain.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for every admitted frame to finish and its result to flush.

        Returns whether the server fully drained within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        """Stop accepting, drop connections, run subclass teardown (idempotent)."""
        self._stopped.set()
        if self._listener is not None:
            # Closing alone does not wake a thread blocked in accept() on
            # Linux; shutting the listener down first does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._idle:
            connections = list(self._connections)
        for conn in connections:
            # Shut down first: close() alone neither wakes a connection
            # thread blocked in recv() nor sends the client its EOF.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._on_close()
