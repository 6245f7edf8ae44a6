"""Zero-copy shipping of NumPy array bundles to worker processes.

The studies move two kinds of bulk data to workers: stacked ``(K, n, n)``
cost matrices (Monte-Carlo scheduling) and compiled program arrays (measured
sweeps).  Pickling those per chunk re-serialises megabytes that every worker
then deserialises again.  An :class:`ArrayShipment` instead packs the arrays
into one :mod:`multiprocessing.shared_memory` block: the parent copies each
array in exactly once, the handle that travels through the task pickle is a
few bytes (segment name + dtype/shape/offset specs), and workers map the
block and read the arrays **in place** — no copy, no decode.

Shared memory is not available everywhere (some sandboxes mount no
``/dev/shm``), so ``transport="auto"`` probes once and silently falls back to
carrying the arrays inside the pickle itself; ``"shm"`` and ``"pickle"``
force either side.  Both transports deliver bit-identical arrays — the
determinism suite runs the same study over each and compares exactly.

Lifecycle: the parent calls :meth:`ArrayShipment.unlink` once every consumer
is done; workers call :meth:`ArrayShipment.close` (or use the shipment as a
context manager) when they finish reading.  Loaded arrays are read-only
views — executing a shipped batch never mutates shipped data.

Shipping is a **process-lane** concern: the thread lane
(:class:`~repro.runtime.pool.ThreadStudyPool`, ``executor="thread"``) shares
the parent's address space and bypasses this module entirely — thread
workers receive the parent's arrays by reference.  That is exactly why
``executor="auto"`` (:func:`repro.runtime.chunking.choose_executor`) routes
batches too small to amortise a shipment onto threads.
"""

from __future__ import annotations

import atexit
import os
import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

try:  # pragma: no cover - import failure only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Valid ``transport=`` values accepted by the runtime entry points.
TRANSPORTS = ("auto", "shm", "pickle")

#: Alignment of each array inside the shared block (cache-line friendly and
#: valid for every NumPy dtype the library ships).
_ALIGN = 64

_shm_probe_result: bool | None = None

#: Shared-memory segments packed by this process and not yet unlinked,
#: mapped to the pid that owns them.  The pid guards forked children (pool
#: workers inherit the dict but own none of the segments) from sweeping
#: their parent's segments.
_owned_segments: dict[str, int] = {}


def sweep_shipments() -> None:
    """Unlink every segment this process packed and never unlinked.

    The normal lifecycle (:meth:`ArrayShipment.unlink` in a ``finally``)
    leaves nothing for this sweep; it exists for *aborted* runs — a study
    process dying mid-study on an exception, a remote agent terminated
    with chunks in flight (agents convert SIGTERM into a clean exit exactly
    so this sweep still runs) — where leaked segments would otherwise
    outlive the process and trigger resource-tracker warnings.  A SIGKILL
    skips every exit path by definition; those segments fall to the
    :mod:`multiprocessing` resource tracker.  Registered with
    :mod:`atexit`; safe to call any time, idempotent.
    """
    pid = os.getpid()
    for name in [n for n, owner in _owned_segments.items() if owner == pid]:
        _owned_segments.pop(name, None)
        try:
            segment = _attach(name)
            segment.unlink()
            segment.close()
        except Exception:  # noqa: BLE001 - already gone is the good case
            pass


atexit.register(sweep_shipments)


def shared_memory_available() -> bool:
    """Whether POSIX/Windows shared memory actually works here (probed once)."""
    global _shm_probe_result
    if _shm_probe_result is None:
        if _shared_memory is None:
            _shm_probe_result = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                try:
                    probe.close()
                finally:
                    probe.unlink()
                _shm_probe_result = True
            except Exception:
                _shm_probe_result = False
    return _shm_probe_result


def resolve_transport(transport: str | None) -> str:
    """Normalise a ``transport=`` argument to ``"shm"`` or ``"pickle"``."""
    if transport is None:
        transport = "auto"
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    if transport == "auto":
        return "shm" if shared_memory_available() else "pickle"
    if transport == "shm" and not shared_memory_available():
        raise RuntimeError("shared memory is not available on this platform")
    return transport


def _attach(name: str) -> Any:
    """Map an existing segment without adopting cleanup responsibility.

    Python 3.13+ supports ``track=False`` directly.  Before that, attaching
    registers the segment with the process's resource tracker; under the
    default ``fork`` start method every process shares the creator's tracker,
    so the duplicate registration is an idempotent no-op and the creator's
    ``unlink`` cleans it up — no manual unregistering (which would race the
    creator's own bookkeeping).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return _shared_memory.SharedMemory(name=name)


@dataclass
class ArrayShipment:
    """A named bundle of arrays travelling to workers by handle, not by value.

    Build with :meth:`pack`; read with :meth:`load`.  The object itself is
    picklable: for the ``"shm"`` transport the pickle carries only the
    segment name and the array specs, for ``"pickle"`` it carries the raw
    bytes (the fallback behaves exactly like shipping the arrays directly).
    """

    transport: str
    specs: list[tuple[str, str, tuple[int, ...], int]] = field(default_factory=list)
    shm_name: str | None = None
    payload: bytes | None = None
    _shm: object | None = field(default=None, repr=False, compare=False)
    _arrays: dict | None = field(default=None, repr=False, compare=False)

    # -- construction (parent side) ---------------------------------------------------

    @classmethod
    def pack(
        cls, arrays: dict[str, np.ndarray], *, transport: str | None = None
    ) -> "ArrayShipment":
        """Pack named arrays for shipping (one copy per array, total)."""
        resolved = resolve_transport(transport)
        contiguous = {
            name: np.ascontiguousarray(array) for name, array in arrays.items()
        }
        if resolved == "pickle":
            return cls(
                transport="pickle",
                specs=[
                    (name, array.dtype.str, array.shape, 0)
                    for name, array in contiguous.items()
                ],
                payload=pickle.dumps(contiguous, protocol=pickle.HIGHEST_PROTOCOL),
            )
        specs: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for name, array in contiguous.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            specs.append((name, array.dtype.str, array.shape, offset))
            offset += array.nbytes
        shm = _shared_memory.SharedMemory(create=True, size=max(1, offset))
        try:
            for (name, dtype, shape, start), array in zip(specs, contiguous.values()):
                view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
                view[...] = array
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        _owned_segments[shm.name] = os.getpid()
        return cls(transport="shm", specs=specs, shm_name=shm.name, _shm=shm)

    # -- pickling ---------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "transport": self.transport,
            "specs": self.specs,
            "shm_name": self.shm_name,
            "payload": self.payload,
        }

    def __setstate__(self, state: dict) -> None:
        self.transport = state["transport"]
        self.specs = state["specs"]
        self.shm_name = state["shm_name"]
        self.payload = state["payload"]
        self._shm = None
        self._arrays = None

    # -- consumption (worker or parent side) ------------------------------------------

    def load(self) -> dict[str, np.ndarray]:
        """The shipped arrays, keyed by name.

        ``"shm"`` returns read-only views straight into the shared block
        (valid until :meth:`close`); ``"pickle"`` decodes the payload once
        and caches it.
        """
        if self._arrays is not None:
            return self._arrays
        if self.transport == "pickle":
            self._arrays = pickle.loads(self.payload)
        else:
            if self._shm is None:
                self._shm = _attach(self.shm_name)
            arrays: dict[str, np.ndarray] = {}
            for name, dtype, shape, start in self.specs:
                view = np.ndarray(
                    shape, dtype=dtype, buffer=self._shm.buf, offset=start
                )
                view.flags.writeable = False
                arrays[name] = view
            self._arrays = arrays
        return self._arrays

    def close(self) -> None:
        """Drop the local mapping (views from :meth:`load` become invalid)."""
        self._arrays = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            try:
                shm.close()
            except BufferError:
                # A consumer still holds a view into the block.  The mapping
                # is released when the last view is garbage-collected; the
                # segment itself is destroyed by the owner's unlink().
                pass

    def unlink(self) -> None:
        """Destroy the shared block (idempotent — extra calls are no-ops).

        The owner calls this once every consumer is done; the atexit sweep
        (:func:`sweep_shipments`) covers shipments whose owner died first.
        """
        if self.transport != "shm" or self.shm_name is None:
            return
        _owned_segments.pop(self.shm_name, None)
        if self._shm is None:
            try:
                self._shm = _attach(self.shm_name)
            except FileNotFoundError:  # already unlinked elsewhere
                self.shm_name = None
                return
        shm = self._shm
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        self.shm_name = None
        self.close()

    def __enter__(self) -> "ArrayShipment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
