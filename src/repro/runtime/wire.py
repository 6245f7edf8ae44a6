"""The length-prefixed wire protocol of the distributed executor lane.

The remote lane (:mod:`repro.runtime.remote`) moves exactly the payloads the
process lane already ships through shared memory: stacked program arrays,
stacked ``(K, n, n)`` cost matrices, chunk jobs and their results.  This
module is the byte-level encoding of those payloads over a socket — stdlib
only (:mod:`socket`, :mod:`struct`, :mod:`pickle`, :mod:`zlib`), no msgpack,
no serialisation dependency.

**Frame layout.**  Every message travels as one frame::

    +-------+---------+-------+----------+------------------+
    | magic | version | flags | reserved | payload length Q |  header (16 B)
    +-------+---------+-------+----------+------------------+
    | payload (optionally zlib-compressed, see FLAG_ZLIB)    |
    +--------------------------------------------------------+

and the (uncompressed) payload is a body/buffer section::

    body length I | body | buffer count I | (buffer length Q | raw bytes)*

The *body* is a pickle (protocol 5) of the message structure with every
NumPy array hoisted **out of band**: arrays leave the pickle stream as raw
buffers (the bytes :meth:`numpy.ndarray.tobytes` would produce, taken
zero-copy from the array's memory) and are framed after the body, so bulk
data is never re-encoded byte-by-byte by the pickler.  On receive the
buffers are handed back to :func:`pickle.loads` as read-only views into the
received frame — arrays deserialise without a copy, exactly like a
shared-memory :class:`~repro.runtime.transport.ArrayShipment` maps in place.

**Shipments.**  An :class:`~repro.runtime.transport.ArrayShipment` pickles
as a shared-memory segment *name* — meaningless on another machine.  The
encoder therefore rewrites any shipment in the message into a
:class:`WireShipment`: a wire-native bundle carrying the same arrays (read
through :meth:`~repro.runtime.transport.ArrayShipment.load`) and serving
the same ``load()``/``close()``/``unlink()`` consumer surface on the far
side.  The receiving agent re-packs a ``WireShipment`` into a *local*
``ArrayShipment`` before fanning the job out to its own worker processes
where shared memory works — the wire protocol bridges machines, shared
memory still does the last hop inside each one.  A ``WireShipment`` also
pickles normally, which is how the process lane ships a chunk's slice by
value where shared memory is unavailable.

Frames at least :data:`COMPRESS_MIN_BYTES` long are zlib-compressed when
that actually shrinks them (cost stacks compress well; already-dense noise
arrays are sent as-is).  Compression, like everything else in the runtime,
never changes results — the determinism suite round-trips both paths.

**Control and timing frames.**  Besides job frames (``{"job": id, "fn":
name, "args": ...}``) and result frames (``{"job": id, "result": ...}``)
the protocol carries two lightweight message families:

* **heartbeats** — the coordinator sends :data:`OP_PING` control frames on
  an interval and the agent answers each with an :data:`OP_PONG` echoing
  the sequence number, *outside* the job path, so a wedged or frozen agent
  is detected even while its socket stays open;
* **timing reports** — every result frame carries the job's worker-side
  wall time under ``"elapsed"``, which is what feeds the coordinator's
  per-agent :class:`~repro.runtime.chunking.CostModel` and makes routing
  throughput-proportional;
* **admission rejects** — an agent at its connection or queue limit answers
  with an :data:`OP_BUSY` frame instead of silently queueing: a busy
  *hello* (``{"op": "busy", "reason": ...}``) bounces a whole connection,
  a busy *job* frame (``{"job": id, "op": "busy"}``) bounces one frame,
  and the coordinator treats both as backoff-and-retry rather than
  failure.

Heartbeats and timing reports were added in wire version 2, admission
rejects in version 3; peers refuse to talk across versions at the
handshake (failing loudly beats a coordinator pinging an agent that will
drop the connection).
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import zlib

import numpy as np

from repro.runtime.transport import ArrayShipment

#: First bytes of every frame; a connection that opens with anything else is
#: not speaking this protocol and is dropped immediately.
MAGIC = b"RBWP"

#: Protocol version; bumped on any frame-layout or message-contract change.
#: Agents and coordinators refuse to talk across versions (failing loudly
#: beats deserialising garbage).  v2 added heartbeat control frames and the
#: ``"elapsed"`` timing report in result frames; v3 added :data:`OP_BUSY`
#: admission rejects.
WIRE_VERSION = 3

#: Control-frame operations (the ``"op"`` key of a control message).
#: ``OP_PING``/``OP_PONG`` are the heartbeat pair — answered by the agent's
#: serve loop directly, never queued behind jobs; ``OP_SHUTDOWN`` asks the
#: agent to drop the connection gracefully; ``OP_BUSY`` is the admission
#: reject — as a hello it bounces the connection, with a ``"job"`` key it
#: bounces one frame (the coordinator backs off and retries either way).
OP_PING = "ping"
OP_PONG = "pong"
OP_SHUTDOWN = "shutdown"
OP_BUSY = "busy"

#: Flag bit: the payload section is zlib-compressed.
FLAG_ZLIB = 0x01

#: Payloads at least this long are candidates for zlib compression (smaller
#: ones cannot win back the deflate overhead).  Purely a performance knob.
COMPRESS_MIN_BYTES = 64 * 1024

#: Hard ceiling on a single frame's payload, as a corrupted-length guard —
#: far above any real study chunk (the full Table 3 sweep ships kilobytes).
MAX_FRAME_BYTES = 1 << 33

_HEADER = struct.Struct("!4sBBxxQ")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


class WireError(ConnectionError):
    """A malformed, truncated or protocol-incompatible frame."""


def control_message(op: str, **fields: object) -> dict[str, object]:
    """A control frame body (``{"op": op, **fields}``).

    Control frames ride the same frame layout as job frames; the ``"op"``
    key is what distinguishes them.  Heartbeats pass their sequence number
    as ``seq=``.
    """
    message: dict[str, object] = {"op": op}
    message.update(fields)
    return message


class WireShipment:
    """The wire-native twin of :class:`~repro.runtime.transport.ArrayShipment`.

    Carries a named bundle of arrays *by value* through the frame encoder
    (the arrays ride out-of-band as raw buffers) and serves the same
    consumer surface — :meth:`load`, :meth:`close`, :meth:`unlink` — so the
    worker bodies that execute against a shipment run unchanged on the far
    side of a socket.  ``unlink`` is a no-op: a wire shipment owns no shared
    segment, its backing memory is the received frame.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self._arrays: dict[str, np.ndarray] | None = dict(arrays)

    def load(self) -> dict[str, np.ndarray]:
        """The carried arrays, keyed by name."""
        if self._arrays is None:
            raise RuntimeError("WireShipment is closed")
        return self._arrays

    def close(self) -> None:
        """Drop the local references (idempotent)."""
        self._arrays = None

    def unlink(self) -> None:
        """No-op: wire shipments own no shared-memory segment."""

    def __enter__(self) -> "WireShipment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _MessagePickler(pickle.Pickler):
    """Protocol-5 pickler that rewrites shipments into wire shipments.

    Everything else — tuples of seeds, config scalars, result dataclasses —
    pickles normally; NumPy arrays leave the stream out-of-band through the
    ``buffer_callback`` the encoder installs.
    """

    def reducer_override(self, obj: object) -> object:
        if isinstance(obj, ArrayShipment):
            # dict-copy the mapping, not the arrays: the loaded views stay
            # valid until the frame is assembled inside encode_message.
            return (WireShipment, (dict(obj.load()),))
        return NotImplemented


def encode_message(message: object) -> bytes:
    """Encode one message into a complete frame (header included)."""
    buffers: list[pickle.PickleBuffer] = []
    body_io = io.BytesIO()
    pickler = _MessagePickler(
        body_io, protocol=5, buffer_callback=buffers.append
    )
    pickler.dump(message)
    body = body_io.getvalue()
    parts: list[bytes] = [_U32.pack(len(body)), body, _U32.pack(len(buffers))]
    for buffer in buffers:
        raw = buffer.raw()
        parts.append(_U64.pack(raw.nbytes))
        parts.append(raw)
    payload = b"".join(parts)
    flags = 0
    if len(payload) >= COMPRESS_MIN_BYTES:
        compressed = zlib.compress(payload, 1)
        if len(compressed) < len(payload):
            payload = compressed
            flags |= FLAG_ZLIB
    return _HEADER.pack(MAGIC, WIRE_VERSION, flags, len(payload)) + payload


def decode_payload(payload: bytes | memoryview, flags: int) -> object:
    """Decode a frame payload (the part after the header) into the message."""
    if flags & FLAG_ZLIB:
        payload = zlib.decompress(payload)
    view = memoryview(payload)
    try:
        (body_len,) = _U32.unpack_from(view, 0)
        offset = _U32.size
        body = view[offset : offset + body_len]
        if len(body) != body_len:
            raise WireError("frame body truncated")
        offset += body_len
        (buffer_count,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        buffers: list[memoryview] = []
        for _ in range(buffer_count):
            (length,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            chunk = view[offset : offset + length]
            if len(chunk) != length:
                raise WireError("frame buffer truncated")
            buffers.append(chunk)
            offset += length
    except struct.error as exc:
        raise WireError(f"malformed frame section: {exc}") from exc
    return pickle.loads(body, buffers=buffers)


def send_message(sock: socket.socket, message: object) -> None:
    """Encode ``message`` and write the frame to ``sock`` (blocking)."""
    sock.sendall(encode_message(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise WireError(
                f"connection closed mid-frame ({count - remaining} of {count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> object | None:
    """Read one frame from ``sock`` and decode it.

    Returns ``None`` on a clean end-of-stream (the peer closed between
    frames); raises :class:`WireError` on truncation, bad magic or a
    protocol-version mismatch.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, version, flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire protocol version mismatch: peer speaks {version}, "
            f"this side speaks {WIRE_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise WireError("connection closed before frame payload")
    return decode_payload(payload, flags)
