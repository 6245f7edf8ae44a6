"""Event-driven execution of communication programs.

The executor activates the root at time zero, lets every activated machine
issue its sends in program order (each one subject to NIC occupancy inside the
network model), and activates a machine the first time a message reaches it.
The result records per-rank activation times, a complete message trace and the
makespan, which is what the "measured" curves of Figure 6 are built from.

Scatter- and all-to-all-style programs, where machines other than the root may
also be senders from the start, are supported through ``initially_active``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.simulator.engine import SimulationEngine
from repro.simulator.network import SimulatedNetwork
from repro.simulator.program import CommunicationProgram, SendInstruction


@dataclass(frozen=True)
class MessageRecord:
    """One point-to-point message observed during an execution."""

    source: int
    destination: int
    message_size: float
    issue_time: float
    start_time: float
    delivery_time: float
    tag: str = ""

    @property
    def transfer_time(self) -> float:
        """Delivery minus actual injection start."""
        return self.delivery_time - self.start_time

    @property
    def queueing_delay(self) -> float:
        """How long the message waited for the sender's NIC."""
        return self.start_time - self.issue_time


@dataclass
class ExecutionResult:
    """Outcome of executing a program on a simulated network.

    Attributes
    ----------
    program_name:
        Name of the executed program.
    activation_times:
        ``activation_times[rank]`` is the first time the rank held a payload
        (0 for initially active ranks, ``None`` for ranks that never received
        anything).
    completion_times:
        Per-rank time at which the rank finished all its activity (its last
        delivery received or the release of its last send).
    trace:
        All messages, in delivery order (simultaneous deliveries in the
        program's CSR message order).
    """

    program_name: str
    activation_times: list[float | None]
    completion_times: list[float]
    trace: list[MessageRecord] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Time of the last activity across every rank."""
        return max(self.completion_times) if self.completion_times else 0.0

    @property
    def last_activation(self) -> float:
        """The largest activation time among ranks that were activated."""
        activated = [t for t in self.activation_times if t is not None]
        return max(activated) if activated else 0.0

    def messages_between_clusters(self, cluster_of: Sequence[int]) -> int:
        """Count messages whose endpoints live in different clusters."""
        return sum(
            1
            for record in self.trace
            if cluster_of[record.source] != cluster_of[record.destination]
        )


def execute_program(
    network: SimulatedNetwork,
    program: CommunicationProgram,
    *,
    initially_active: Iterable[int] = (),
    reset_network: bool = True,
) -> ExecutionResult:
    """Run ``program`` on ``network`` and collect the resulting timings.

    Parameters
    ----------
    network:
        The simulated network (its grid must have at least ``program.num_ranks``
        machines).
    program:
        The communication program to execute.
    initially_active:
        Extra ranks (besides the program root and the program's own
        ``initially_active`` declaration) that start activated at time zero;
        used by scatter / all-to-all style programs.
    reset_network:
        Reset NIC occupancy and noise before executing (default).  Pass
        ``False`` to chain several collectives back to back on a warm network.

    With noise on, the execution draws ``2 * program.total_messages()``
    factors from the network's stream up front and keys them by message
    (:meth:`~repro.simulator.network.SimulatedNetwork.draw_noise`), so the
    draws — and a chained successor's stream position — never depend on the
    order in which events fire.
    """
    if program.num_ranks > network.grid.num_nodes:
        raise ValueError(
            f"program spans {program.num_ranks} ranks but the network only has "
            f"{network.grid.num_nodes}"
        )
    if reset_network:
        network.reset()

    engine = SimulationEngine()
    activation: list[float | None] = [None] * program.num_ranks
    completion: list[float] = [0.0] * program.num_ranks
    # (delivery time, message index, record): the trace sorts by the first
    # two, so simultaneous deliveries keep CSR order whatever the event order.
    keyed: list[tuple[float, int, MessageRecord]] = []
    # Noise keyed by message: message i scales its gap by noise[2i] and its
    # latency by noise[2i + 1].
    noise = network.draw_noise(2 * program.total_messages())
    indptr = program.indptr.tolist()

    def issue_sends(rank: int) -> None:
        """Issue every send of ``rank`` at its activation time.

        The sends are all *issued* at the activation instant — the NIC
        occupancy inside the network model serialises them — so the recorded
        ``queueing_delay`` of each message reflects how long it waited for the
        sender's NIC.
        """
        issue_time = engine.now
        for index, instruction in enumerate(program.sends_of(rank), indptr[rank]):
            start, release, delivery = network.transmit(
                rank,
                instruction.destination,
                instruction.message_size,
                issue_time,
                None if noise is None else (noise[2 * index], noise[2 * index + 1]),
            )
            record = MessageRecord(
                source=rank,
                destination=instruction.destination,
                message_size=instruction.message_size,
                issue_time=issue_time,
                start_time=start,
                delivery_time=delivery,
                tag=instruction.tag,
            )
            keyed.append((delivery, index, record))
            completion[rank] = max(completion[rank], release)
            engine.schedule_at(delivery, _make_delivery(instruction, delivery))

    def _make_delivery(instruction: SendInstruction, delivery: float):
        def on_delivery() -> None:
            destination = instruction.destination
            completion[destination] = max(completion[destination], delivery)
            if activation[destination] is None:
                activation[destination] = delivery
                issue_sends(destination)

        return on_delivery

    def activate(rank: int) -> None:
        if activation[rank] is None:
            activation[rank] = engine.now
            issue_sends(rank)

    for rank in program.start_ranks(initially_active):
        if not 0 <= rank < program.num_ranks:
            raise ValueError(f"initially active rank {rank} out of range")
        engine.schedule_at(0.0, lambda r=rank: activate(r))

    engine.run()
    keyed.sort(key=lambda entry: entry[:2])
    return ExecutionResult(
        program_name=program.name,
        activation_times=activation,
        completion_times=completion,
        trace=[record for _, _, record in keyed],
    )
