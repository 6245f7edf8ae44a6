"""Communication programs: per-rank ordered send lists.

All the simulated collectives (grid-aware broadcast, grid-unaware binomial,
scatter, all-to-all) reduce to the same execution pattern: *once a machine
holds the payload it needs, it sends messages to a fixed list of destinations,
in a fixed order*.  A :class:`CommunicationProgram` captures exactly that —
the "what", leaving the "when" to the executor and the network model.

A program stores its messages in one flat CSR form: ``indptr`` over ranks
plus per-message ``dest``, ``size`` and ``tag_code`` arrays, with the tag
strings held once in a small ``tags`` table.  Builders emit that form
directly through :meth:`CommunicationProgram.from_arrays`; the batched
executor compiles it with array gathers.  Per-message
:class:`SendInstruction` objects exist only as the lazily derived
:attr:`~CommunicationProgram.sends` / :meth:`~CommunicationProgram.sends_of`
view that the scalar reference engine and debugging read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class SendInstruction:
    """One send a machine must perform once it is activated.

    Attributes
    ----------
    destination:
        Global rank of the receiving machine.
    message_size:
        Payload size in bytes.
    tag:
        Free-form label recorded in the trace (e.g. ``"inter-cluster"`` or
        ``"local"``); has no effect on timing.
    """

    destination: int
    message_size: float
    tag: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.destination, bool) or not isinstance(self.destination, int):
            raise TypeError("destination must be an int")
        if self.destination < 0:
            raise ValueError(f"destination must be non-negative, got {self.destination}")
        check_non_negative(self.message_size, "message_size")


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int64 array, rejecting non-integer input."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if array.size and array.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers")
    return array.astype(np.int64, copy=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _checked_messages(
    num_ranks: int, senders, dest, size, tag_code, num_tags: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Messages as arrays, checked: ranks in range, no self-sends, finite
    non-negative sizes, known tag codes.

    ``size`` and ``tag_code`` may be scalars shared by every message.
    """
    n = num_ranks
    senders = _index_array(senders, "senders")
    dest = _index_array(dest, "dest")
    count = senders.size
    size = np.asarray(size, dtype=np.float64)
    tag_code = np.asarray(tag_code)
    if tag_code.size and tag_code.dtype.kind not in "iu":
        raise TypeError("tag_code must hold integers")
    tag_code = tag_code.astype(np.int64, copy=False)
    for values, name in ((dest, "dest"), (size, "size"), (tag_code, "tag_code")):
        if values.ndim and values.shape != (count,):
            raise ValueError(f"{name} must match senders in length")
    # Unsigned views fold "negative" and "too large" into one compare.
    if np.count_nonzero(senders.view(np.uint64) >= n):
        bad = senders[senders.view(np.uint64) >= n][0]
        raise ValueError(f"sender rank {bad} out of range")
    if np.count_nonzero(dest.view(np.uint64) >= n):
        bad = dest[dest.view(np.uint64) >= n][0]
        raise ValueError(f"destination {bad} out of range")
    loops = senders == dest
    if np.count_nonzero(loops):
        raise ValueError(f"rank {senders[loops][0]} sends to itself")
    if np.count_nonzero(~np.isfinite(size) | (size < 0)):
        raise ValueError("message sizes must be finite and non-negative")
    if np.count_nonzero(tag_code.view(np.uint64) >= num_tags):
        raise ValueError("tag codes must index the tag table")
    return senders, dest, size, tag_code


def _csr(keys: np.ndarray, rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, order)`` of messages keyed ``row * width + rank``.

    ``order`` stable-sorts the messages by key, so each rank keeps its
    messages in emission order; ``indptr`` is ``(rows, width + 1)``, each
    row its own offsets from 0.
    """
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros((rows, width + 1), dtype=np.int64)
    np.cumsum(
        np.bincount(keys, minlength=rows * width).reshape(rows, width),
        axis=1,
        out=indptr[:, 1:],
    )
    return indptr, order


def _check_broadcasts(
    num_ranks: int, roots: Sequence[int], senders: np.ndarray, dest: np.ndarray
) -> None:
    """:meth:`CommunicationProgram.validate_broadcast` over a program stack.

    Rank ``r`` of program ``k`` is the stacked rank ``k * num_ranks + r``;
    ``senders`` and ``dest`` hold every message's stacked ranks and
    ``roots[k]`` is program ``k``'s own root.  Every non-root rank must
    receive exactly one message and every sender must be reachable from its
    root through earlier sends (the executor would deadlock otherwise).
    In-degrees come from one ``bincount``; reachability from pointer-jumping
    the stacked parent array.  Errors name the first bad program.
    """
    n = num_ranks
    count = len(roots)
    root = np.arange(count, dtype=np.int64) * n + np.asarray(roots, dtype=np.int64)
    incoming = np.bincount(dest, minlength=count * n)
    received = incoming[root]
    # With no root receiving, each program has at most n - 1 single
    # receivers, so the total is (n - 1) per program only if every one has.
    single = np.count_nonzero(incoming == 1)
    if np.count_nonzero(received) or single != count * (n - 1):
        rows = incoming.reshape(count, n)
        singles = np.count_nonzero(rows == 1, axis=1)
        k = int(np.flatnonzero(received | (singles != n - 1))[0])
        if received[k]:
            raise ValueError("the root must not receive the broadcast payload")
        duplicates = np.flatnonzero(rows[k] > 1)
        if duplicates.size:
            raise ValueError(f"ranks {duplicates.tolist()} receive more than once")
        missing = np.flatnonzero(rows[k] == 0)
        missing = missing[missing != roots[k]]
        raise ValueError(f"ranks {missing.tolist()} never receive the payload")
    # Every other rank now has exactly one parent: jump to ancestors until
    # all reach their root; ranks on a cycle never do.
    ancestor = np.empty(count * n, dtype=np.int64)
    ancestor[dest] = senders
    ancestor[root] = root
    home = np.repeat(root, n)
    for _ in range(max(1, n - 1).bit_length()):
        if not np.count_nonzero(ancestor != home):
            return
        ancestor = ancestor[ancestor]
    unreached = ancestor != home
    if np.count_nonzero(unreached):
        k = int(np.flatnonzero(unreached)[0]) // n
        row = slice(k * n, (k + 1) * n)
        sends = np.bincount(senders, minlength=count * n)[row] > 0
        idle_senders = np.flatnonzero(unreached[row] & sends)
        raise ValueError(
            f"ranks {idle_senders.tolist()} have sends but never receive "
            "the payload"
        )


class CommunicationProgram:
    """A dissemination program over ``num_ranks`` machines.

    Attributes
    ----------
    num_ranks:
        Total number of machines.
    root:
        Rank that is active from time zero (it initially holds the payload).
    name:
        Label of the collective that produced the program.
    initially_active:
        Extra ranks (besides the root) that hold their payload from time zero
        — scatter/all-to-all style programs declare their senders here so
        executors need no out-of-band knowledge of the pattern.
    indptr, dest, size, tag_code, tags:
        The messages in CSR form (read-only arrays): rank ``r`` performs
        messages ``indptr[r]:indptr[r + 1]`` in that order, message ``i``
        carries ``size[i]`` bytes to ``dest[i]`` and is labelled
        ``tags[tag_code[i]]``.  Ranks that never receive anything and are
        not active from the start simply stay idle.

    ``sends`` (a constructor argument and a derived view) maps each sending
    rank to its ordered :class:`SendInstruction` list; :meth:`add_send`
    appends one message.  Both serve hand-written programs and tests; the
    builders in :mod:`repro.mpi` and :mod:`repro.gossip` use
    :meth:`from_arrays`.
    """

    def __init__(
        self,
        num_ranks: int,
        root: int,
        sends: Mapping[int, Iterable[SendInstruction]] | None = None,
        name: str = "program",
        initially_active: Iterable[int] = (),
    ) -> None:
        self._set_header(num_ranks, root, name, initially_active)
        rows = []
        for rank, instructions in (sends or {}).items():
            for instruction in instructions:
                if not isinstance(instruction, SendInstruction):
                    raise TypeError("sends must contain SendInstruction values")
                rows.append(
                    (rank, instruction.destination, instruction.message_size,
                     instruction.tag)
                )
        tags = tuple(dict.fromkeys(row[3] for row in rows))
        self._set_messages(
            [row[0] for row in rows],
            [row[1] for row in rows],
            [row[2] for row in rows],
            [tags.index(row[3]) for row in rows],
            tags,
        )

    @classmethod
    def from_arrays(
        cls,
        num_ranks: int,
        root: int,
        senders: Sequence[int] | np.ndarray,
        dest: Sequence[int] | np.ndarray,
        size: float | Sequence[float] | np.ndarray,
        tag_code: int | Sequence[int] | np.ndarray,
        tags: Sequence[str],
        *,
        name: str = "program",
        initially_active: Iterable[int] = (),
    ) -> "CommunicationProgram":
        """Build a program from per-message arrays in emission order.

        Message ``i`` goes from ``senders[i]`` to ``dest[i]``, carries
        ``size[i]`` bytes and is labelled ``tags[tag_code[i]]``; ``size`` and
        ``tag_code`` may be scalars shared by every message.  Messages are
        stable-sorted by sender, so each rank performs its messages in the
        order they appear here.  Every array is validated once: ranks in
        range, no self-sends, finite non-negative sizes, known tag codes.
        """
        program = cls.__new__(cls)
        program._set_header(num_ranks, root, name, initially_active)
        program._set_messages(senders, dest, size, tag_code, tuple(tags))
        return program

    @classmethod
    def from_broadcast_stack(
        cls,
        num_ranks: int,
        roots: Sequence[int],
        program: np.ndarray,
        senders: np.ndarray,
        dest: np.ndarray,
        size: float | np.ndarray,
        tag_code: int | np.ndarray,
        tags: Sequence[str],
        *,
        names: Sequence[str],
    ) -> "list[CommunicationProgram]":
        """Build ``len(roots)`` broadcast programs over the same ranks from
        one stack.

        Message ``i`` belongs to program ``program[i]`` and is otherwise
        described as in :meth:`from_arrays`; program ``k`` is rooted at
        ``roots[k]`` and named ``names[k]``.  One stable sort by
        ``(program, sender)`` and one ``bincount`` lay the whole stack out
        in CSR form, and the message checks and the
        :meth:`validate_broadcast` checks run once over it.  Each program
        holds read-only views into the stack, equal field for field to
        what :meth:`from_arrays` builds from its own messages.  A failed
        check names the first bad message of the stack, which need not be
        the first bad program's first error; callers that want that
        re-build program by program.
        """
        tags = tuple(tags)
        programs = []
        for root, name in zip(roots, names):
            item = cls.__new__(cls)
            item._set_header(num_ranks, root, name, ())
            item.tags = tags
            item._view = None
            programs.append(item)
        senders, dest, size, tag_code = _checked_messages(
            num_ranks, senders, dest, size, tag_code, len(tags)
        )
        program = _index_array(program, "program")
        if program.shape != senders.shape:
            raise ValueError("program must match senders in length")
        if np.count_nonzero(program.view(np.uint64) >= len(programs)):
            raise ValueError("program indices must index the roots")
        # Stacked ranks: rank r of program k is k * num_ranks + r.
        base = program * num_ranks
        keys = base + senders
        indptr, order = _csr(keys, len(programs), num_ranks)
        _check_broadcasts(
            num_ranks,
            [item.root for item in programs],
            keys[order],
            (base + dest)[order],
        )
        count = senders.size
        _frozen(indptr)
        dest, size, tag_code = (
            _frozen(values[order] if values.ndim else np.full(count, values))
            for values in (dest, size, tag_code)
        )
        lo = 0
        for item, row, messages in zip(programs, indptr, indptr[:, -1].tolist()):
            hi = lo + messages
            item.indptr = row
            item.dest = dest[lo:hi]
            item.size = size[lo:hi]
            item.tag_code = tag_code[lo:hi]
            lo = hi
        return programs

    def _set_header(
        self, num_ranks: int, root: int, name: str, initially_active: Iterable[int]
    ) -> None:
        if isinstance(num_ranks, bool) or not isinstance(num_ranks, int):
            raise TypeError("num_ranks must be an int")
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        if not 0 <= root < num_ranks:
            raise ValueError(f"root must be a valid rank, got {root}")
        self.num_ranks = num_ranks
        self.root = root
        self.name = name
        self.initially_active = tuple(initially_active)
        for rank in self.initially_active:
            if isinstance(rank, bool) or not isinstance(rank, int):
                raise TypeError("initially_active ranks must be ints")
            if not 0 <= rank < num_ranks:
                raise ValueError(f"initially active rank {rank} out of range")

    def _set_messages(
        self, senders, dest, size, tag_code, tags: tuple[str, ...]
    ) -> None:
        senders, dest, size, tag_code = _checked_messages(
            self.num_ranks, senders, dest, size, tag_code, len(tags)
        )
        indptr, order = _csr(senders, 1, self.num_ranks)
        count = senders.size
        self.indptr = _frozen(indptr[0])
        self.dest = _frozen(dest[order])
        self.size = _frozen(size[order] if size.ndim else np.full(count, size))
        self.tag_code = _frozen(
            tag_code[order] if tag_code.ndim else np.full(count, tag_code)
        )
        self.tags = tags
        # The per-rank SendInstruction view, derived on first use.
        self._view: dict[int, tuple[SendInstruction, ...]] | None = None

    def senders(self) -> np.ndarray:
        """The sending rank of every message, in CSR order."""
        counts = self.indptr[1:] - self.indptr[:-1]
        return np.repeat(np.arange(self.num_ranks), counts)

    # -- hand-written programs and the per-message view ---------------------------

    def add_send(
        self, sender: int, destination: int, message_size: float, *, tag: str = ""
    ) -> None:
        """Append one send to ``sender``'s instruction list."""
        SendInstruction(destination=destination, message_size=message_size, tag=tag)
        if not 0 <= sender < self.num_ranks:
            raise ValueError(f"sender rank {sender} out of range")
        if destination == sender:
            raise ValueError(f"rank {sender} cannot send to itself")
        if destination >= self.num_ranks:
            raise ValueError(f"destination {destination} out of range")
        tags = self.tags if tag in self.tags else (*self.tags, tag)
        self._set_messages(
            np.append(self.senders(), sender),
            np.append(self.dest, destination),
            np.append(self.size, message_size),
            np.append(self.tag_code, tags.index(tag)),
            tags,
        )

    def _instructions(self) -> dict[int, tuple[SendInstruction, ...]]:
        if self._view is None:
            indptr = self.indptr.tolist()
            dest = self.dest.tolist()
            size = self.size.tolist()
            tag = [self.tags[code] for code in self.tag_code.tolist()]
            self._view = {
                rank: tuple(
                    SendInstruction(dest[i], size[i], tag[i])
                    for i in range(indptr[rank], indptr[rank + 1])
                )
                for rank in range(self.num_ranks)
                if indptr[rank + 1] > indptr[rank]
            }
        return self._view

    @property
    def sends(self) -> dict[int, list[SendInstruction]]:
        """Each sending rank's ordered instruction list (a derived copy).

        Editing the returned dict does not change the program; use
        :meth:`add_send` or :meth:`from_arrays`.
        """
        return {rank: list(view) for rank, view in self._instructions().items()}

    def sends_of(self, rank: int) -> list[SendInstruction]:
        """The (possibly empty) instruction list of ``rank``."""
        return list(self._instructions().get(rank, ()))

    def start_ranks(self, extra=()) -> list[int]:
        """All ranks active at time zero, in activation (ascending) order.

        The union of the root, the program's own ``initially_active``
        declaration and the caller-provided ``extra`` ranks.  Both the scalar
        and the batched executor activate exactly this list, in this order,
        which is what keeps their tie-breaking identical.
        """
        return sorted({self.root, *self.initially_active, *extra})

    def total_messages(self) -> int:
        """Total number of point-to-point messages in the program."""
        return len(self.dest)

    def total_bytes(self) -> float:
        """Total payload volume injected into the network (bytes)."""
        return sum(self.size.tolist())

    def receivers(self) -> set[int]:
        """All ranks that appear as a destination at least once."""
        return set(np.unique(self.dest).tolist())

    def validate_broadcast(self) -> None:
        """Check that the program is a well-formed broadcast dissemination.

        Every non-root rank must receive exactly one message, and every sender
        must be reachable from the root through earlier sends (the executor
        would deadlock otherwise).  In-degrees come from one ``bincount``;
        reachability from pointer-jumping the parent array.
        """
        _check_broadcasts(self.num_ranks, [self.root], self.senders(), self.dest)

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationProgram):
            return NotImplemented
        return (
            self.num_ranks == other.num_ranks
            and self.root == other.root
            and self.name == other.name
            and self.initially_active == other.initially_active
            and self._instructions() == other._instructions()
        )

    def __repr__(self) -> str:
        return (
            f"CommunicationProgram(name={self.name!r}, num_ranks={self.num_ranks}, "
            f"root={self.root}, messages={self.total_messages()})"
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_view"] = None
        return state
