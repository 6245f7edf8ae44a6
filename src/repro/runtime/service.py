"""Broadcast-scheduling-as-a-service: the schedule daemon and its client.

The paper's contribution is a heuristic that *computes* broadcast
schedules; this module serves that computation as traffic.  A
:class:`ScheduleService` is a long-running daemon (the ``repro-bcast
service serve`` CLI) speaking the length-prefixed wire protocol
(:mod:`repro.runtime.wire`) on the shared serving skeleton
(:class:`repro.runtime.serving.FrameServer` — the same accept loop,
``--max-clients`` admission, ``BUSY`` bounce and SIGTERM drain as the
study agent).  Each query names a **topology spec**, a message size, a
heuristic and a root; the answer is the full timed schedule — decision
order, makespan and the predicted per-cluster completion vector.

**Determinism contract.**  A response is bit-identical to what an inline
``get_heuristic(key).schedule(grid, size, root=root)`` call produces on
the same spec: the service builds the very same :class:`Grid`, runs the
very same engine, and the wire layer ships floats losslessly (binary
pickle, no text round-trip).  ``tests/test_properties.py`` pins the
underlying engine-level contract; ``tests/test_service.py`` pins the
service against the inline path.

**Caching.**  Two layers make repeat queries dictionary hits:

* a **topology cache** mapping the canonical topology hash to the built
  :class:`Grid`.  Keeping the grid object alive also keeps its
  :class:`~repro.core.costs.GridCostCache` entries warm (they are keyed
  by grid identity through a weak reference), so even a *new* (size,
  heuristic) query on a known topology skips the dense-matrix rebuild;
* an **LRU schedule cache with frequency admission** keyed by
  ``(topology hash, message size, heuristic, root)`` holding complete
  response payloads.  Eviction takes the least recently used entry, but a full
  cache admits a computed miss only if its key was queried more often
  (in a decaying count) than that entry's, so one-off queries cannot evict
  hot schedules (:class:`_ScheduleCache`).

The key holds the exact message size, so a cache hit replays a stored
payload verbatim — trivially bit-identical.

**Wire format.**  After the hello frame (``{"hello": <wire version>,
"service": "schedule", "heuristics": [...]}``), each request frame is a
dict; replies echo the ``query`` correlation id:

* ``{"query": id, "topology": spec, "message_size": m, "heuristic": key,
  "root": r}`` → ``{"query": id, "result": payload, "cached": bool}`` or
  ``{"query": id, "error": text}`` (the connection survives query
  errors) or ``{"query": id, "op": "busy"}`` when draining / over the
  ``queue`` bound;
* ``{"op": "stats"}`` → ``{"op": "stats", "served": ..., "hits": ...,
  "misses": ..., "rejected": ..., "entries": ..., "topologies": ...}``,
  where ``rejected`` counts the misses whose payload the cache did not
  admit;
* ``PING`` / ``SHUTDOWN`` control frames as everywhere on this wire.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.core.costs import GridCostCache
from repro.core.registry import (
    available_heuristics,
    get_heuristic,
    normalize_heuristic_key,
)
from repro.core.schedule import BroadcastSchedule, ScheduledTransfer
from repro.runtime import wire
from repro.runtime.serving import FrameServer, serve_foreground
from repro.topology.cluster import Cluster
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid import Grid, InterClusterLink
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream

__all__ = [
    "DEFAULT_SERVICE_PORT",
    "ScheduleClient",
    "ScheduleReply",
    "ScheduleService",
    "ServiceBusyError",
    "ServiceError",
    "build_topology",
    "canonical_topology_spec",
    "serve_service",
    "topology_key",
]

#: Default port of the ``service serve`` / ``service query`` CLI pair.
DEFAULT_SERVICE_PORT = 7030
#: Default connection cap of the daemon (``--max-clients``).
DEFAULT_MAX_CLIENTS = 8
#: Default bound on distinct cached schedules (``--cache-size``).
DEFAULT_CACHE_SIZE = 1024


# -- topology specs -------------------------------------------------------------------


def canonical_topology_spec(spec: Any) -> dict[str, Any]:
    """Validate a wire-side topology spec and return its canonical form.

    Three kinds are understood:

    * ``{"kind": "grid5000"}`` — the paper's Table 3 nine-cluster testbed;
    * ``{"kind": "random", "clusters": n, "seed": s}`` — one Table 2
      Monte-Carlo grid, exactly as ``RandomGridGenerator`` draws it;
    * ``{"kind": "explicit", "broadcast": [T_i], "latency": [[L_ij]],
      "gap": [[g_ij]], "sizes": [n_i]}`` — a literal grid: per-cluster
      local broadcast times plus full matrices of constant link
      parameters (the upper triangle ``i < j`` defines each link, matching
      the Monte-Carlo constant-gap style; ``sizes`` is optional and
      defaults to one machine per cluster).

    The canonical form fixes key order and numeric types so that equal
    topologies hash equally; raises :class:`ValueError` on anything else.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"topology spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "grid5000":
        return {"kind": "grid5000"}
    if kind == "random":
        clusters = int(spec.get("clusters", 0))
        if clusters < 1:
            raise ValueError(f"random topology needs clusters >= 1, got {clusters}")
        return {"kind": "random", "clusters": clusters, "seed": int(spec.get("seed", 0))}
    if kind == "explicit":
        broadcast = [float(value) for value in spec.get("broadcast", ())]
        n = len(broadcast)
        if n < 1:
            raise ValueError("explicit topology needs at least one cluster")
        latency = _canonical_matrix(spec.get("latency"), n, "latency")
        gap = _canonical_matrix(spec.get("gap"), n, "gap")
        sizes = [int(value) for value in spec.get("sizes", [1] * n)]
        if len(sizes) != n or any(size < 1 for size in sizes):
            raise ValueError(f"sizes must be {n} machine counts >= 1, got {sizes}")
        return {
            "kind": "explicit",
            "broadcast": broadcast,
            "latency": latency,
            "gap": gap,
            "sizes": sizes,
        }
    raise ValueError(
        f"unknown topology kind {kind!r}; expected grid5000, random or explicit"
    )


def _canonical_matrix(raw: Any, n: int, label: str) -> list[list[float]]:
    """An ``n x n`` matrix of non-negative floats, or :class:`ValueError`."""
    if raw is None:
        raise ValueError(f"explicit topology needs a {label} matrix")
    matrix = [[float(value) for value in row] for row in raw]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"{label} must be an {n}x{n} matrix")
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if i != j and value < 0.0:
                raise ValueError(f"{label}[{i}][{j}] must be >= 0, got {value}")
    return matrix


def topology_key(spec: Any) -> str:
    """The canonical topology hash: sha256 of the canonical JSON spec."""
    return _canonical_key(canonical_topology_spec(spec))


def _canonical_key(canonical: Mapping[str, Any]) -> str:
    """:func:`topology_key` of a spec that is already canonical."""
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def build_topology(spec: Any) -> Grid:
    """Build the :class:`Grid` a canonical (or raw) topology spec names."""
    canonical = canonical_topology_spec(spec)
    kind = canonical["kind"]
    if kind == "grid5000":
        return build_grid5000_topology()
    if kind == "random":
        stream = RandomStream(seed=canonical["seed"])
        return RandomGridGenerator().generate(canonical["clusters"], stream)
    broadcast = canonical["broadcast"]
    sizes = canonical["sizes"]
    clusters = [
        Cluster(cluster_id=index, size=sizes[index], fixed_broadcast_time=time_i)
        for index, time_i in enumerate(broadcast)
    ]
    links = {
        (i, j): InterClusterLink.from_values(
            canonical["latency"][i][j], canonical["gap"][i][j]
        )
        for i in range(len(broadcast))
        for j in range(i + 1, len(broadcast))
    }
    return Grid(clusters, links, name="explicit")


# -- response payloads ----------------------------------------------------------------


def _schedule_payload(schedule: BroadcastSchedule) -> dict[str, Any]:
    """The wire payload of a schedule: plain lists and floats, loss-free."""
    return {
        "heuristic": schedule.heuristic_name,
        "root": schedule.root,
        "num_clusters": schedule.num_clusters,
        "message_size": schedule.message_size,
        "makespan": schedule.makespan,
        "order": [(t.sender, t.receiver) for t in schedule.transfers],
        "transfers": [
            (
                t.sender,
                t.receiver,
                t.start_time,
                t.sender_release_time,
                t.arrival_time,
                t.gap,
                t.latency,
            )
            for t in schedule.transfers
        ],
        "arrival_times": list(schedule.arrival_times),
        "local_start_times": list(schedule.local_start_times),
        "completion_times": list(schedule.completion_times),
    }


def _payload_schedule(payload: Mapping[str, Any]) -> BroadcastSchedule:
    """Rebuild the :class:`BroadcastSchedule` a payload describes."""
    return BroadcastSchedule(
        root=int(payload["root"]),
        num_clusters=int(payload["num_clusters"]),
        message_size=float(payload["message_size"]),
        transfers=[
            ScheduledTransfer(*transfer) for transfer in payload["transfers"]
        ],
        arrival_times=list(payload["arrival_times"]),
        local_start_times=list(payload["local_start_times"]),
        completion_times=list(payload["completion_times"]),
        heuristic_name=str(payload["heuristic"]),
    )


# -- the schedule cache ---------------------------------------------------------------


class _ScheduleCache:
    """LRU order for eviction, query frequency for admission.

    Every :meth:`lookup` counts one query of its key.  Every ``10 x size``
    lookups all counts are halved and zeros dropped, so stale popularity
    ages out and the table holds at most two windows' worth of keys.  A
    computed miss enters a cache with room; a full cache takes it only if
    its count beats the LRU entry's, which it then evicts (a tie keeps the
    entry).  So a key queried once cannot push out a hot one (TinyLFU's
    rule, Einziger, Friedman and Manes, ACM TOS 2017).  Not thread-safe:
    the service calls it under its ``_cache_lock``.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.entries: OrderedDict[Hashable, dict[str, Any]] = OrderedDict()
        self.counts: dict[Hashable, int] = {}
        self._window = 10 * size
        self._until_aging = self._window

    def lookup(self, key: Hashable) -> dict[str, Any] | None:
        """Count one query of ``key``; its payload, touched MRU, or ``None``."""
        self.counts[key] = self.counts.get(key, 0) + 1
        self._until_aging -= 1
        if not self._until_aging:
            self._until_aging = self._window
            self.counts = {k: c >> 1 for k, c in self.counts.items() if c > 1}
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def admit(self, key: Hashable, payload: dict[str, Any]) -> bool:
        """Insert a computed miss if the policy lets it in; whether it did.

        A key another thread inserted meanwhile is left as it is.
        """
        if key in self.entries:
            return False
        if len(self.entries) >= self.size:
            victim = next(iter(self.entries))
            if self.counts.get(key, 0) <= self.counts.get(victim, 0):
                return False
            del self.entries[victim]
        self.entries[key] = payload
        return True


# -- the daemon -----------------------------------------------------------------------


class ScheduleService(FrameServer):
    """The schedule daemon: query frames in, timed broadcast schedules out.

    See the module docstring for the wire format and the caching design.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` lets the OS pick (the bound address is
        available as :attr:`address` after :meth:`bind`).
    max_clients:
        Concurrent client connections served before new connections are
        bounced ``BUSY`` (default :data:`DEFAULT_MAX_CLIENTS`).
    queue:
        Bound on queries admitted but not yet answered across all clients;
        ``0`` — the default — is unbounded.
    cache_size:
        Bound on cached schedules (and on cached topologies), evicted LRU;
        a full schedule cache admits by query frequency (default
        :data:`DEFAULT_CACHE_SIZE`).
    """

    thread_name = "repro-service-conn"
    busy_reason = "service at max clients or draining"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        queue: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"--cache-size must be >= 1, got {cache_size}")
        super().__init__(host, port, max_clients=max_clients, queue=queue)
        self.cache_size = int(cache_size)
        #: Cache state; scheduling itself runs outside this lock so slow
        #: queries never serialise the whole daemon.
        self._cache_lock = threading.Lock()
        self._grids: OrderedDict[str, Grid] = OrderedDict()  # guarded-by: _cache_lock
        self._schedules = _ScheduleCache(self.cache_size)  # guarded-by: _cache_lock
        self.hits = 0  # guarded-by: _cache_lock
        self.misses = 0  # guarded-by: _cache_lock
        self.rejected = 0  # guarded-by: _cache_lock
        self.served = 0  # guarded-by: _cache_lock
        #: GridCostCache.for_grid is unsynchronised (its callers are
        #: single-threaded loops); serialise matrix builds across the
        #: connection threads so its per-grid FIFO eviction cannot race.
        self._costs_lock = threading.Lock()

    # -- FrameServer protocol surface -----------------------------------------

    def _hello_message(self) -> dict[str, Any]:
        return {
            "hello": wire.WIRE_VERSION,
            "service": "schedule",
            "heuristics": available_heuristics(),
        }

    def _error_reply(
        self, message: dict[str, Any], exc: Exception
    ) -> dict[str, Any]:
        return {
            "query": message.get("query"),
            "error": f"service could not serialise the reply: {exc}",
        }

    def _handle_frame(
        self, message: dict[str, Any], reply: Callable[[dict[str, Any]], None]
    ) -> bool:
        if message.get("op") == "stats":
            reply({"op": "stats", **self.stats()})
            return True
        if "query" not in message:
            return False
        query_id = message["query"]
        if not self._admit_job():
            # Draining, or the in-flight bound is hit: a clean per-query
            # reject the client surfaces as ServiceBusyError.
            reply({"query": query_id, "op": wire.OP_BUSY})
            return True
        try:
            payload, cached = self._answer(message)
            reply({"query": query_id, "result": payload, "cached": cached})
        except Exception as exc:  # noqa: BLE001 - reported to the client;
            # a malformed query must not drop the connection, let alone
            # the daemon.
            reply({"query": query_id, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            self._job_finished()
        return True

    # -- query answering -------------------------------------------------------

    def _answer(self, message: Mapping[str, Any]) -> tuple[dict[str, Any], bool]:
        """Serve one query: ``(payload, cache_hit)``; raises on bad input."""
        spec = canonical_topology_spec(message.get("topology"))
        key = _canonical_key(spec)
        message_size = float(message.get("message_size", -1.0))
        if message_size < 0.0:
            raise ValueError("a query needs a message_size >= 0")
        heuristic_name = str(message.get("heuristic", ""))
        heuristic = get_heuristic(heuristic_name)
        root = int(message.get("root", 0))
        cache_key = (key, message_size, normalize_heuristic_key(heuristic_name), root)
        with self._cache_lock:
            entry = self._schedules.lookup(cache_key)
            if entry is not None:
                self.hits += 1
                self.served += 1
            else:
                self.misses += 1
                self.served += 1
        if entry is not None:
            return entry, True
        grid = self._grid_for(key, spec)
        schedule = heuristic.schedule(
            grid, message_size, root=root, costs=self._costs_for(grid, message_size)
        )
        payload = _schedule_payload(schedule)
        with self._cache_lock:
            if not self._schedules.admit(cache_key, payload):
                self.rejected += 1
        return payload, False

    def _grid_for(self, key: str, spec: Mapping[str, Any]) -> Grid:
        """The cached :class:`Grid` for a canonical spec, built on first use.

        The cache holds strong references, which is what keeps each grid's
        weakly-keyed :class:`GridCostCache` matrices warm between queries.
        """
        with self._cache_lock:
            grid = self._grids.get(key)
            if grid is not None:
                self._grids.move_to_end(key)
                return grid
        built = build_topology(spec)
        with self._cache_lock:
            # Two threads may have raced the build; first insert wins so
            # every later query shares one grid identity (and one cost
            # cache).
            grid = self._grids.get(key)
            if grid is None:
                self._grids[key] = built
                grid = built
            self._grids.move_to_end(key)
            while len(self._grids) > self.cache_size:
                self._grids.popitem(last=False)
        return grid

    def _costs_for(self, grid: Grid, message_size: float) -> GridCostCache:
        with self._costs_lock:
            return GridCostCache.for_grid(grid, message_size)

    def stats(self) -> dict[str, int]:
        """A snapshot of the cache counters (also the ``stats`` op body)."""
        with self._cache_lock:
            return {
                "served": self.served,
                "hits": self.hits,
                "misses": self.misses,
                "rejected": self.rejected,
                "entries": len(self._schedules.entries),
                "topologies": len(self._grids),
            }


# -- the client -----------------------------------------------------------------------


class ServiceError(RuntimeError):
    """The service answered with an error frame, or broke protocol."""


class ServiceBusyError(ServiceError):
    """The service bounced the connection or the query ``BUSY``."""


@dataclass(frozen=True)
class ScheduleReply:
    """One service answer: the schedule payload plus its cache provenance."""

    payload: dict[str, Any]
    cached: bool

    def schedule(self) -> BroadcastSchedule:
        """The reply as a first-class :class:`BroadcastSchedule`."""
        return _payload_schedule(self.payload)

    @property
    def makespan(self) -> float:
        return float(self.payload["makespan"])

    @property
    def order(self) -> list[tuple[int, int]]:
        return [(int(s), int(r)) for s, r in self.payload["order"]]


class ScheduleClient:
    """A blocking client for one :class:`ScheduleService` connection.

    Queries are answered in order on one socket; use one client per
    thread (the service serves each connection on its own thread, so N
    clients get N-way concurrency).  Usable as a context manager.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"``.
    timeout:
        Socket timeout in seconds for connect and for each reply;
        ``None`` — the default — blocks indefinitely.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float | None = None,
    ) -> None:
        if isinstance(address, str):
            host, _, port_text = address.rpartition(":")
            if not host or not port_text:
                raise ValueError(f"address must be HOST:PORT, got {address!r}")
            address = (host, int(port_text))
        self._address: tuple[str, int] = (address[0], int(address[1]))
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._next_query = 0
        self.hello: dict[str, Any] | None = None

    def connect(self) -> "ScheduleClient":
        """Connect and consume the hello frame (idempotent).

        Raises :class:`ServiceBusyError` when the daemon bounces the
        connection, :class:`ServiceError` when the peer is not a schedule
        service.
        """
        if self._sock is not None:
            return self
        sock = socket.create_connection(self._address, timeout=self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = wire.recv_message(sock)
            if not isinstance(hello, dict):
                raise ServiceError("service sent no hello frame")
            if hello.get("op") == wire.OP_BUSY:
                raise ServiceBusyError(
                    str(hello.get("reason", "service refused the connection"))
                )
            if hello.get("service") != "schedule":
                raise ServiceError(
                    f"peer at {self._address[0]}:{self._address[1]} is not a "
                    f"schedule service (hello: {hello!r})"
                )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self.hello = hello
        return self

    def query(
        self,
        topology: Mapping[str, Any],
        message_size: float,
        heuristic: str,
        *,
        root: int = 0,
    ) -> ScheduleReply:
        """Ask for one schedule; see the module docstring for the spec shape."""
        self._next_query += 1
        response = self._roundtrip(
            {
                "query": self._next_query,
                "topology": dict(topology),
                "message_size": float(message_size),
                "heuristic": str(heuristic),
                "root": int(root),
            }
        )
        return ScheduleReply(
            payload=response["result"], cached=bool(response.get("cached", False))
        )

    def stats(self) -> dict[str, int]:
        """The daemon's cache counters (the ``stats`` op)."""
        response = self._roundtrip({"op": "stats"})
        return {
            key: int(value)
            for key, value in response.items()
            if isinstance(value, int)
        }

    def _roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        self.connect()
        sock = self._sock
        assert sock is not None
        wire.send_message(sock, message)
        while True:
            response = wire.recv_message(sock)
            if response is None:
                raise ServiceError("service closed the connection")
            if not isinstance(response, dict):
                raise ServiceError(f"service broke protocol: {response!r}")
            if "query" in message and response.get("query") != message["query"]:
                continue
            if response.get("op") == wire.OP_BUSY:
                raise ServiceBusyError(
                    "service refused the query (draining or at its queue bound)"
                )
            if "error" in response:
                raise ServiceError(str(response["error"]))
            return response

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ScheduleClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the CLI daemon body --------------------------------------------------------------


def serve_service(
    bind: str = f"127.0.0.1:{DEFAULT_SERVICE_PORT}",
    *,
    max_clients: int = DEFAULT_MAX_CLIENTS,
    queue: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    drain_timeout: float = 30.0,
) -> None:
    """Run one schedule daemon in the foreground (``service serve`` body).

    Announces the concrete listen address on stdout (``listening on
    host:port``) so spawners — and humans — can read an OS-assigned port
    back.  SIGTERM triggers the shared graceful drain: admitted queries
    finish and flush, everything new bounces ``BUSY``, and the daemon
    exits 0.
    """
    serve_foreground(
        bind,
        lambda host, port: ScheduleService(
            host,
            port,
            max_clients=max_clients,
            queue=queue,
            cache_size=cache_size,
        ),
        "repro-schedule-service",
        f"heuristics={len(available_heuristics())}, wire v{wire.WIRE_VERSION}",
        drain_timeout=drain_timeout,
    )
