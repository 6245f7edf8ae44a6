"""Discrete-event simulation of message passing on a grid.

This sub-package is the stand-in for the paper's 88-machine GRID5000 testbed
(see DESIGN.md §4).  It executes *per-node* communication programs — every
machine, not just cluster coordinators — under a pLogP-style cost model with
NIC occupancy and optional multiplicative noise, and reports per-node message
arrival times plus a full message trace.

Building blocks
---------------

* :class:`~repro.simulator.engine.SimulationEngine` — a classic event-queue
  simulator (time-ordered callbacks, deterministic tie-breaking).
* :class:`~repro.simulator.network.SimulatedNetwork` — the grid's node-level
  cost model: per-node NIC availability, per-message gap/latency derived from
  the topology, optional log-normal noise.
* :class:`~repro.simulator.program.CommunicationProgram` — a per-rank ordered
  send list ("once you hold the message, send it to these ranks in this
  order"), the common representation produced by the MPI layer for broadcast,
  scatter and all-to-all patterns.
* :func:`~repro.simulator.execution.execute_program` — runs a program on a
  network and returns an :class:`~repro.simulator.execution.ExecutionResult`
  (arrival times, makespan, trace).
* :func:`~repro.simulator.batch.execute_programs` — runs many independent
  (or warm-chained) programs in one stacked relaxation pass (message-keyed
  noise from per-task seeds), bit-identical to the scalar engine, and
  returns one :class:`~repro.simulator.execution.ExecutionResult` per task.
* :func:`~repro.simulator.batch.execute_makespans` — the same run read for
  makespans only: one float array, no result objects.  It is what the
  measured sweeps of the practical, collective and chained studies call.
"""

from repro.simulator.engine import SimulationEngine
from repro.simulator.network import NetworkConfig, SimulatedNetwork
from repro.simulator.program import CommunicationProgram, SendInstruction
from repro.simulator.execution import ExecutionResult, MessageRecord, execute_program
from repro.simulator.batch import ExecutionTask, execute_makespans, execute_programs

__all__ = [
    "SimulationEngine",
    "NetworkConfig",
    "SimulatedNetwork",
    "CommunicationProgram",
    "SendInstruction",
    "ExecutionResult",
    "MessageRecord",
    "execute_program",
    "ExecutionTask",
    "execute_programs",
    "execute_makespans",
]
