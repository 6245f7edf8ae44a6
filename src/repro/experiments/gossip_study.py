"""The tree-vs-gossip dissemination study (ROADMAP open item 1).

The paper's scheduled trees deliver a broadcast in the fewest possible
messages but stand or fall with every single link; epidemics spend traffic to
buy robustness.  This study makes that trade-off measurable: for every
(protocol, network size) cell it runs one seeded gossip dissemination and
records rounds-to-delivery, delivery fraction, message traffic and the
pLogP-timed makespan/delivery time — under optional churn (seeded join/leave
schedules) and per-round log-normal noise.

Cells fan out over the persistent study runtime
(:mod:`repro.runtime.pool`); each cell derives its own seed from
``(seed, "gossip/study", protocol, num_nodes)``, so the study is
bit-identical for any executor lane, chunking or worker count — the same
contract every other study in this package honours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gossip.engine import DEFAULT_GOSSIP_PARAMS, run_gossip
from repro.gossip.spec import GOSSIP_PROTOCOLS, MAX_ROUNDS, ChurnSpec, GossipSpec
from repro.model.plogp import PLogPParameters
from repro.runtime.chunking import gossip_cost
from repro.runtime.pool import choose_lane
from repro.utils.rng import DEFAULT_SEED, derive_seed
from repro.utils.validation import check_non_negative, check_positive
from repro.utils.workers import resolve_workers

#: The per-cell metrics recorded by the study, in storage order.
METRIC_NAMES = (
    "rounds_executed",
    "rounds_to_delivery",
    "delivered_count",
    "ever_alive_count",
    "total_messages",
    "makespan",
    "delivery_time",
)


@dataclass(frozen=True)
class GossipStudyConfig:
    """One tree-vs-gossip study: a (protocols x network sizes) grid.

    Attributes
    ----------
    protocols:
        Protocols to compare (any subset of
        :data:`~repro.gossip.spec.GOSSIP_PROTOCOLS`).
    node_counts:
        Network sizes to sweep.
    fanout / ttl / rounds:
        Forwarded into every cell's :class:`~repro.gossip.spec.GossipSpec`.
    churn:
        Optional :class:`~repro.gossip.spec.ChurnSpec` applied to every cell
        (each cell draws its own schedule from its derived seed).
    noise_sigma:
        Log-normal sigma of the per-round duration jitter (``0`` = noise-free
        pLogP timing).
    message_size:
        Payload size in bytes, for the timing model.
    params:
        The pLogP link model; defaults to the WAN-flavoured
        :data:`~repro.gossip.engine.DEFAULT_GOSSIP_PARAMS`.
    seed:
        Root seed; every cell derives its own child seed from it.
    """

    protocols: tuple[str, ...] = GOSSIP_PROTOCOLS
    node_counts: tuple[int, ...] = (1_000, 10_000, 100_000)
    fanout: int = 2
    ttl: int = 0
    rounds: int = 64
    churn: ChurnSpec | None = None
    noise_sigma: float = 0.0
    message_size: float = 1024.0
    params: PLogPParameters = field(default=DEFAULT_GOSSIP_PARAMS)
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("protocols must not be empty")
        for protocol in self.protocols:
            if protocol not in GOSSIP_PROTOCOLS:
                raise ValueError(
                    f"protocol must be one of {GOSSIP_PROTOCOLS}, got {protocol!r}"
                )
        if len(set(self.protocols)) != len(self.protocols):
            raise ValueError(f"duplicate protocols in {self.protocols!r}")
        if not self.node_counts:
            raise ValueError("node_counts must not be empty")
        for count in self.node_counts:
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise TypeError("node_counts must be ints")
            check_positive(count, "node count")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}")
        check_non_negative(self.noise_sigma, "noise_sigma")
        check_non_negative(self.message_size, "message_size")

    def spec_for(self, protocol: str, num_nodes: int) -> GossipSpec:
        """The fully specified run of one study cell (with its derived seed)."""
        fanout = min(self.fanout, max(1, num_nodes - 1))
        return GossipSpec(
            protocol=protocol,
            num_nodes=int(num_nodes),
            fanout=fanout,
            ttl=self.ttl,
            rounds=self.rounds,
            seed=derive_seed(self.seed, "gossip/study", protocol, int(num_nodes)),
            churn=self.churn,
        )


@dataclass
class GossipStudyResult:
    """Results of one tree-vs-gossip study.

    Attributes
    ----------
    config:
        The configuration that produced the result.
    metrics:
        Array of shape ``(len(protocols), len(node_counts),
        len(METRIC_NAMES))`` — the raw per-cell numbers, in
        :data:`METRIC_NAMES` order.
    """

    config: GossipStudyConfig
    metrics: np.ndarray

    def metric(self, name: str) -> np.ndarray:
        """One metric's ``(protocols, node_counts)`` plane, by name."""
        try:
            index = METRIC_NAMES.index(name)
        except ValueError as exc:
            raise ValueError(
                f"unknown metric {name!r}; available: {METRIC_NAMES}"
            ) from exc
        return self.metrics[:, :, index]

    def delivery_fractions(self) -> np.ndarray:
        """Delivered over ever-alive nodes per cell — the robustness plane."""
        return self.metric("delivered_count") / np.maximum(
            1.0, self.metric("ever_alive_count")
        )

    def messages_per_node(self) -> np.ndarray:
        """Total traffic normalised by network size — the overhead plane."""
        return self.metric("total_messages") / np.asarray(
            self.config.node_counts, dtype=float
        )

    def as_table(self) -> list[dict[str, float | str]]:
        """One row per (protocol, network size) cell, docs/CLI-friendly."""
        rows: list[dict[str, float | str]] = []
        fractions = self.delivery_fractions()
        per_node = self.messages_per_node()
        for p_index, protocol in enumerate(self.config.protocols):
            for n_index, num_nodes in enumerate(self.config.node_counts):
                cell = self.metrics[p_index, n_index]
                rows.append(
                    {
                        "protocol": protocol,
                        "nodes": float(num_nodes),
                        "rounds": float(cell[METRIC_NAMES.index("rounds_executed")]),
                        "rounds_to_delivery": float(
                            cell[METRIC_NAMES.index("rounds_to_delivery")]
                        ),
                        "delivery_fraction": float(fractions[p_index, n_index]),
                        "messages_per_node": float(per_node[p_index, n_index]),
                        "makespan": float(cell[METRIC_NAMES.index("makespan")]),
                        "delivery_time": float(
                            cell[METRIC_NAMES.index("delivery_time")]
                        ),
                    }
                )
        return rows


def _gossip_cell_task(task) -> tuple[int, int, np.ndarray]:
    """Worker body: run one (protocol, network size) cell, keep its indices."""
    p_index, n_index, config = task
    spec = config.spec_for(config.protocols[p_index], config.node_counts[n_index])
    result = run_gossip(spec)
    values = np.array(
        [
            float(result.rounds_executed),
            float(result.rounds_to_delivery),
            float(result.delivered_count),
            float(result.ever_alive_count),
            float(result.total_messages),
            result.makespan(
                config.message_size,
                params=config.params,
                noise_sigma=config.noise_sigma,
            ),
            result.delivery_time(
                config.message_size,
                params=config.params,
                noise_sigma=config.noise_sigma,
            ),
        ],
        dtype=float,
    )
    return p_index, n_index, values


def run_gossip_study(
    config: GossipStudyConfig,
    *,
    workers: int | None = None,
    executor: str | None = None,
    pool=None,
    hosts: str | None = None,
) -> GossipStudyResult:
    """Run the tree-vs-gossip study described by ``config``.

    Every (protocol, network size) cell derives its own seed from the
    config's root seed, so results are independent of execution order,
    chunking, executor lane and worker count, and reproducible for a fixed
    seed.

    Parameters
    ----------
    config:
        The study set-up.
    workers:
        Optional fan-out of the cells over the persistent runtime pool.
        ``None`` consults the ``REPRO_WORKERS`` environment variable;
        ``0``/``1`` run in-process.
    executor:
        Fan-out lane: ``"process"``, ``"remote"`` (cells framed over
        sockets to the worker agents named by ``hosts`` / ``REPRO_HOSTS``),
        or ``"auto"`` — inline when the study's total estimated cost
        (node-rounds, via :func:`repro.runtime.chunking.gossip_cost`) is
        too small to amortise process shipping, processes otherwise.
        ``None`` consults ``REPRO_EXECUTOR``, then defaults to ``"auto"``.
        Every lane is bit-identical.
    pool:
        An explicit :class:`~repro.runtime.pool.StudyPool` /
        :class:`~repro.runtime.remote.RemoteStudyPool`; defaults to the
        process-wide persistent pool of the chosen lane (a passed pool
        decides the lane, overriding ``executor``).
    hosts:
        Remote-lane agent addresses (``"host:port,host:port"``); only
        consulted when the remote lane is engaged.  ``None`` falls back to
        ``REPRO_HOSTS``, then to auto-spawned loopback agents.
    """
    metrics = np.empty(
        (len(config.protocols), len(config.node_counts), len(METRIC_NAMES)),
        dtype=float,
    )
    tasks = [
        (p_index, n_index, config)
        for p_index in range(len(config.protocols))
        for n_index in range(len(config.node_counts))
    ]
    cell_units = [
        gossip_cost(int(config.node_counts[n_index]), config.rounds)
        for _, n_index, _ in tasks
    ]

    worker_count = resolve_workers(workers)
    pool, _ = choose_lane(
        executor, workers, worker_count, sum(cell_units), pool=pool, hosts=hosts
    )
    if pool is not None and len(tasks) > 1:
        handles = [
            pool.submit(_gossip_cell_task, task, units=units)
            for task, units in zip(tasks, cell_units)
        ]
        for handle in handles:
            p_index, n_index, values = handle.get()
            metrics[p_index, n_index] = values
    else:
        for task in tasks:
            p_index, n_index, values = _gossip_cell_task(task)
            metrics[p_index, n_index] = values

    return GossipStudyResult(config=config, metrics=metrics)
