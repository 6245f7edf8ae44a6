"""The shared study-execution runtime.

PR 1 and PR 2 made each half of a study fast in isolation — the batched
scheduling kernel (:mod:`repro.core.batch`) and the batched measurement
engine (:mod:`repro.simulator.batch`) — but every study still paid the same
orchestration taxes: a fresh :mod:`multiprocessing` pool per call, and full
cost matrices and compiled programs re-pickled per chunk.  This package is
the subsystem that removes them, shared by every study driver and the CLI:

* :mod:`repro.runtime.pool` — :class:`~repro.runtime.pool.StudyPool` (the
  process lane), persistent — created once per process and reused across
  studies (per-task seed derivation keeps results bit-identical for any
  lane, pool lifetime, submission order or worker count) — and
  :func:`~repro.runtime.pool.choose_lane`, the one place a fan-out decides
  between inline, process and remote (``executor="auto"|"process"|"remote"``;
  auto keeps batches too small to amortise shipping inline);
* :mod:`repro.runtime.transport` —
  :class:`~repro.runtime.transport.ArrayShipment`, zero-copy shipping of
  stacked program arrays through :mod:`multiprocessing.shared_memory`
  (where it is unavailable, each chunk carries its own by-value slice);
* :mod:`repro.runtime.chunking` — cost-aware chunk sizing
  (:func:`~repro.runtime.chunking.partition_by_cost`) and the cost priors
  the lane decision prices batches with
  (:class:`~repro.runtime.chunking.CostModel` refines them per remote agent,
  for frame deadlines);
* :mod:`repro.runtime.wire` / :mod:`repro.runtime.remote` — the
  **distributed lane** (``executor="remote"``):
  :class:`~repro.runtime.remote.RemoteStudyPool` serves the same
  submit/collect contract over a length-prefixed socket protocol to
  standalone worker agents (``repro-bcast worker serve``), each fronting
  its own local process pool; agents are named by ``hosts=`` /
  ``REPRO_HOSTS`` or auto-spawned as loopback subprocesses, and each pulls
  chunks from one coordinator-side queue whenever it has a free slot;
* :mod:`repro.runtime.serving` / :mod:`repro.runtime.service` — the
  **serving surface**: :class:`~repro.runtime.serving.FrameServer` (the
  accept-loop/admission/drain skeleton shared by the agent and the
  daemon) and broadcast-scheduling-as-a-service — a
  :class:`~repro.runtime.service.ScheduleService` daemon (``repro-bcast
  service serve``) answering (topology, size, heuristic) queries with
  bit-identical timed schedules out of an LRU schedule cache, plus its
  :class:`~repro.runtime.service.ScheduleClient`.

Worker counts everywhere resolve through
:func:`repro.utils.workers.resolve_workers` (``REPRO_WORKERS``);
executor lanes resolve through :func:`repro.runtime.pool.choose_lane`
(``REPRO_EXECUTOR``, default ``"auto"``).
"""

from repro.runtime.pool import StudyPool, choose_lane, get_pool, shutdown_pool
from repro.runtime.transport import (
    ArrayShipment,
    shared_memory_available,
    sweep_shipments,
)
from repro.runtime.chunking import (
    EXECUTORS,
    CostModel,
    aggregate_unit_costs,
    partition_by_cost,
    program_cost,
    resolve_executor,
)
from repro.runtime.remote import (
    AgentServer,
    RemoteStudyPool,
    parse_hosts,
    resolve_hosts,
    serve_agent,
)
from repro.runtime.serving import FrameServer
from repro.runtime.service import (
    ScheduleClient,
    ScheduleReply,
    ScheduleService,
    ServiceBusyError,
    ServiceError,
    serve_service,
    topology_key,
)

__all__ = [
    "StudyPool",
    "choose_lane",
    "get_pool",
    "shutdown_pool",
    "ArrayShipment",
    "shared_memory_available",
    "sweep_shipments",
    "EXECUTORS",
    "CostModel",
    "aggregate_unit_costs",
    "partition_by_cost",
    "program_cost",
    "resolve_executor",
    "AgentServer",
    "RemoteStudyPool",
    "parse_hosts",
    "resolve_hosts",
    "serve_agent",
    "FrameServer",
    "ScheduleClient",
    "ScheduleReply",
    "ScheduleService",
    "ServiceBusyError",
    "ServiceError",
    "serve_service",
    "topology_key",
]
