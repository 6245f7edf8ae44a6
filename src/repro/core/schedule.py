"""Broadcast schedules and the shared pLogP timing model.

Every heuristic in this package ultimately produces an ordered list of
``(sender_cluster, receiver_cluster)`` decisions.  The conversion of that
order into actual times — and therefore into a makespan — follows one cost
model, so that all heuristics are compared on exactly the same footing.
:func:`evaluate_order` times any order; the scheduling state and the batched
kernel record the same floats while they decide, and build their schedules
from that record:

* a coordinator may start a transmission only once it *has* the message and
  is not busy injecting a previous one (its *ready time* ``RT``);
* a transmission from cluster ``i`` to cluster ``j`` started at ``t`` keeps
  the sender busy until ``t + g_{i,j}(m)`` and delivers the message to ``j``'s
  coordinator at ``t + g_{i,j}(m) + L_{i,j}``;
* a cluster starts its local broadcast as soon as it performs no further
  inter-cluster sends (paper §3), so its *completion time* is its final ready
  time plus its intra-cluster broadcast time ``T_i``;
* the **makespan** is the largest completion time over all clusters.

This is also where the "blocking" behaviour discussed for FEF comes from: a
heuristic may *decide* that a cluster should send before it actually holds the
message, but the timing model delays the transmission until the message is
available — exactly the phenomenon the ECEF family was designed to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.topology.grid import Grid
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (costs has no deps on us)
    from repro.core.costs import GridCostCache


@dataclass(frozen=True)
class ScheduledTransfer:
    """One inter-cluster transmission of the broadcast schedule.

    Attributes
    ----------
    sender, receiver:
        Cluster indices of the two coordinators involved.
    start_time:
        Time at which the sender's coordinator starts injecting the message.
    sender_release_time:
        ``start_time + g``: when the sender may start another transmission.
    arrival_time:
        ``start_time + g + L``: when the receiver's coordinator holds the
        message.
    gap, latency:
        The pLogP parameters used for this transfer (seconds).
    """

    sender: int
    receiver: int
    start_time: float
    sender_release_time: float
    arrival_time: float
    gap: float
    latency: float

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError("a transfer cannot have the same sender and receiver")
        check_non_negative(self.start_time, "start_time")
        if self.sender_release_time < self.start_time:
            raise ValueError("sender_release_time must be >= start_time")
        if self.arrival_time < self.sender_release_time:
            raise ValueError("arrival_time must be >= sender_release_time")


@dataclass
class BroadcastSchedule:
    """A fully timed inter-cluster broadcast schedule.

    Instances are produced by :func:`evaluate_order`, or by the scheduling
    engines from the times they recorded while deciding (the same floats);
    they are immutable in spirit (nothing mutates them after construction)
    and expose the quantities the experiments need: per-cluster arrival
    times, local-broadcast start times, completion times and the overall
    makespan.

    Attributes
    ----------
    root:
        Index of the cluster whose coordinator initially holds the message.
    num_clusters:
        Number of clusters in the grid the schedule was computed for.
    message_size:
        Message size in bytes the schedule was evaluated at.
    transfers:
        The timed inter-cluster transfers, in the order they were decided.
    arrival_times:
        ``arrival_times[c]`` is when cluster ``c``'s coordinator first holds
        the message (0 for the root).
    local_start_times:
        When each cluster starts its local broadcast (its final ready time).
    completion_times:
        ``local_start_times[c] + T_c`` for every cluster.
    heuristic_name:
        Name of the heuristic that produced the schedule (informational).
    """

    root: int
    num_clusters: int
    message_size: float
    transfers: list[ScheduledTransfer]
    arrival_times: list[float]
    local_start_times: list[float]
    completion_times: list[float]
    heuristic_name: str = ""
    _sends_index: dict[int, list[ScheduledTransfer]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _receive_index: dict[int, ScheduledTransfer] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def makespan(self) -> float:
        """Total broadcast time: the largest per-cluster completion time."""
        return max(self.completion_times)

    @property
    def inter_cluster_makespan(self) -> float:
        """Time at which the last coordinator receives the message."""
        return max(self.arrival_times)

    @property
    def order(self) -> list[tuple[int, int]]:
        """The (sender, receiver) decision sequence behind this schedule."""
        return [(t.sender, t.receiver) for t in self.transfers]

    def _build_indexes(self) -> None:
        """One O(n) pass building both per-cluster lookup maps.

        ``analysis/gantt.py`` calls :meth:`sends_of` for every cluster, which
        with a linear scan per call is O(n²) overall; the lazy maps make the
        whole sweep linear while keeping construction cost at zero for the
        (many) schedules that are only ever asked for their makespan.
        """
        sends: dict[int, list[ScheduledTransfer]] = {}
        receives: dict[int, ScheduledTransfer] = {}
        for transfer in self.transfers:
            sends.setdefault(transfer.sender, []).append(transfer)
            receives[transfer.receiver] = transfer
        self._sends_index = sends
        self._receive_index = receives

    def sends_of(self, cluster_id: int) -> list[ScheduledTransfer]:
        """All transfers emitted by ``cluster_id``, in schedule order."""
        if self._sends_index is None:
            self._build_indexes()
        return list(self._sends_index.get(cluster_id, ()))

    def receive_of(self, cluster_id: int) -> ScheduledTransfer | None:
        """The transfer that delivered the message to ``cluster_id``.

        Returns ``None`` for the root cluster.
        """
        if self._receive_index is None:
            self._build_indexes()
        return self._receive_index.get(cluster_id)

    def validate(self) -> None:
        """Check the structural invariants of a correct broadcast schedule.

        * every non-root cluster receives the message exactly once;
        * the root never receives it;
        * every sender already held the message when its transfer started;
        * no coordinator performs two overlapping sends;
        * completion times are consistent with arrivals and local starts.

        Raises
        ------
        ValueError
            If any invariant is violated.
        """
        received: dict[int, float] = {self.root: 0.0}
        busy_until: dict[int, float] = {self.root: 0.0}
        for transfer in self.transfers:
            if transfer.receiver == self.root:
                raise ValueError("the root cluster must never receive the message")
            if transfer.receiver in received:
                raise ValueError(
                    f"cluster {transfer.receiver} receives the message more than once"
                )
            if transfer.sender not in received:
                raise ValueError(
                    f"cluster {transfer.sender} sends before receiving the message"
                )
            tolerance = 1e-12
            if transfer.start_time + tolerance < received[transfer.sender]:
                raise ValueError(
                    f"cluster {transfer.sender} starts sending at {transfer.start_time} "
                    f"before holding the message at {received[transfer.sender]}"
                )
            if transfer.start_time + tolerance < busy_until[transfer.sender]:
                raise ValueError(
                    f"cluster {transfer.sender} starts a send at {transfer.start_time} "
                    f"while busy until {busy_until[transfer.sender]}"
                )
            busy_until[transfer.sender] = transfer.sender_release_time
            received[transfer.receiver] = transfer.arrival_time
            busy_until[transfer.receiver] = transfer.arrival_time
        missing = set(range(self.num_clusters)) - set(received)
        if missing:
            raise ValueError(f"clusters {sorted(missing)} never receive the message")
        for cluster in range(self.num_clusters):
            if self.completion_times[cluster] + 1e-12 < self.local_start_times[cluster]:
                raise ValueError(
                    f"cluster {cluster} completes before starting its local broadcast"
                )
            if self.local_start_times[cluster] + 1e-12 < self.arrival_times[cluster]:
                raise ValueError(
                    f"cluster {cluster} starts its local broadcast before the message arrives"
                )

    def summary(self) -> str:
        """A short human-readable description of the schedule."""
        lines = [
            f"schedule produced by {self.heuristic_name or 'unknown heuristic'} "
            f"(root=cluster {self.root}, {self.num_clusters} clusters, "
            f"message={self.message_size:.0f} B)",
            f"  makespan: {self.makespan * 1e3:.3f} ms "
            f"(inter-cluster phase: {self.inter_cluster_makespan * 1e3:.3f} ms)",
        ]
        for transfer in self.transfers:
            lines.append(
                f"  cluster {transfer.sender} -> cluster {transfer.receiver}: "
                f"start {transfer.start_time * 1e3:.3f} ms, "
                f"arrival {transfer.arrival_time * 1e3:.3f} ms"
            )
        return "\n".join(lines)


def evaluate_order(
    grid: Grid,
    message_size: float,
    root: int,
    order: Sequence[tuple[int, int]],
    *,
    heuristic_name: str = "",
    broadcast_times: Sequence[float] | None = None,
    costs: "GridCostCache | None" = None,
) -> BroadcastSchedule:
    """Turn an ordered list of (sender, receiver) decisions into a timed schedule.

    Parameters
    ----------
    grid:
        The grid topology providing ``L_{i,j}``, ``g_{i,j}(m)`` and ``T_i``.
    message_size:
        Message size in bytes.
    root:
        Cluster index of the broadcast root.
    order:
        The decision sequence.  Every non-root cluster must appear exactly
        once as a receiver, and senders must already be informed (their
        receive must appear earlier in the sequence, or they must be the
        root).
    heuristic_name:
        Recorded on the resulting schedule for reporting purposes.
    broadcast_times:
        Optional pre-computed ``T_i`` values (one per cluster).  When omitted
        they are queried from ``costs`` (if given) or from the grid; passing
        them is a useful optimisation for Monte-Carlo loops that evaluate
        many heuristics on one grid.
    costs:
        Optional shared :class:`~repro.core.costs.GridCostCache` for the same
        grid and message size; when given, all gap/latency/broadcast reads
        come from its dense matrices instead of per-pair grid queries.

    Returns
    -------
    BroadcastSchedule
        The fully timed schedule (already consistent with
        :meth:`BroadcastSchedule.validate`).
    """
    check_non_negative(message_size, "message_size")
    num_clusters = grid.num_clusters
    if not 0 <= root < num_clusters:
        raise ValueError(f"root must be a valid cluster index, got {root}")
    order = list(order)
    _check_order(order, root, num_clusters)

    if costs is not None and not costs.matches(grid, message_size):
        raise ValueError("costs was computed for a different grid or message size")
    if broadcast_times is None:
        broadcast_times = (
            costs.broadcast_list() if costs is not None
            else grid.broadcast_times(message_size)
        )
    else:
        broadcast_times = list(broadcast_times)
        if len(broadcast_times) != num_clusters:
            raise ValueError(
                f"broadcast_times must have {num_clusters} entries, "
                f"got {len(broadcast_times)}"
            )

    ready: dict[int, float] = {root: 0.0}
    arrival: dict[int, float] = {root: 0.0}
    transfers: list[ScheduledTransfer] = []
    for sender, receiver in order:
        if costs is not None:
            gap = costs.gap_of(sender, receiver)
            latency = costs.latency_of(sender, receiver)
        else:
            gap = grid.gap(sender, receiver, message_size)
            latency = grid.latency(sender, receiver)
        start = ready[sender]
        release = start + gap
        arrive = release + latency
        ready[sender] = release
        ready[receiver] = arrive
        arrival[receiver] = arrive
        transfers.append(
            ScheduledTransfer(
                sender=sender,
                receiver=receiver,
                start_time=start,
                sender_release_time=release,
                arrival_time=arrive,
                gap=gap,
                latency=latency,
            )
        )

    arrival_times = [arrival[c] for c in range(num_clusters)]
    local_start_times = [ready[c] for c in range(num_clusters)]
    completion_times = [
        local_start_times[c] + broadcast_times[c] for c in range(num_clusters)
    ]
    schedule = BroadcastSchedule(
        root=root,
        num_clusters=num_clusters,
        message_size=message_size,
        transfers=transfers,
        arrival_times=arrival_times,
        local_start_times=local_start_times,
        completion_times=completion_times,
        heuristic_name=heuristic_name,
    )
    return schedule


def _check_order(order: Iterable[tuple[int, int]], root: int, num_clusters: int) -> None:
    """Structural validation of a decision sequence (before timing it)."""
    informed = {root}
    received: set[int] = set()
    for position, pair in enumerate(order):
        if len(pair) != 2:
            raise ValueError(f"order entry {position} is not a (sender, receiver) pair")
        sender, receiver = pair
        for name, value in (("sender", sender), ("receiver", receiver)):
            _check_index_type(name, value, position)
            if not 0 <= value < num_clusters:
                raise ValueError(
                    f"{name} {value} at position {position} is not a valid cluster index"
                )
        if sender == receiver:
            raise ValueError(f"entry {position} sends from cluster {sender} to itself")
        if sender not in informed:
            raise ValueError(
                f"entry {position}: cluster {sender} sends before being informed"
            )
        if receiver in informed:
            raise ValueError(
                f"entry {position}: cluster {receiver} is already informed"
            )
        informed.add(receiver)
        received.add(receiver)
    expected = set(range(num_clusters)) - {root}
    missing = expected - received
    if missing:
        raise ValueError(f"clusters {sorted(missing)} never receive the message")


def check_order_types(order: Iterable[tuple[int, int]]) -> None:
    """Raise :class:`TypeError` unless every cluster index of a decision
    sequence is an ``int`` (a ``bool`` is not), as :func:`evaluate_order`
    does."""
    for position, (sender, receiver) in enumerate(order):
        # Plain ints pass at once; bools, int subclasses and NumPy integers
        # take the full check.
        if type(sender) is not int or type(receiver) is not int:
            _check_index_type("sender", sender, position)
            _check_index_type("receiver", receiver, position)


def _check_index_type(name: str, value: object, position: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} at position {position} must be an int")
