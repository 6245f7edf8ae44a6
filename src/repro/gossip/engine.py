"""The gossip round engines: vectorized flat-array hot loop + scalar reference.

Round-based epidemic protocols advance in synchronous rounds: every node
active in round ``r`` injects its messages, and every message is processed by
its receiver at the start of round ``r + 1``.  That structure is what makes a
million-node network tractable — all per-node state (informed round, TTL
budget, alive interval) lives in flat NumPy arrays, and one round is a
handful of vectorized passes over them, exactly the state-row layout the
batched simulator (PR 2/3) uses for per-rank message state.

Two engines share one contract:

* :func:`run_gossip` with ``engine="vectorized"`` (default) — the flat-array
  engine; a 10⁶-node fanout-4 push broadcast completes in about 0.35 s on
  a 2-core x86 box.
* ``engine="scalar"`` — the per-node reference: plain Python loops over the
  same per-round draws, kept as ground truth (``tests/test_gossip.py``
  asserts bit-identical results on every protocol, churn on and off).

**Determinism contract.**  Every round's fanout targets are drawn in one bulk
call from ``derive_seed(seed, "gossip/targets", protocol, round)``, one row
per *drawer* in ascending rank order: the round's senders for ``push`` and
``epto``, every node alive that round for ``pushpull`` (senders push,
uninformed nodes pull).  Idle nodes draw nothing.  Who draws is itself a
pure function of the spec — both engines compute the same sender set from
the same integer state — so the draw stream never depends on the engine or
on how a study chunks its runs.  Churn schedules and per-round noise factors
come from their own derived seeds the same way.  Both engines make their
stop decision through one shared helper on plain integer counts, so they
execute exactly the same rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gossip.spec import GossipSpec, churn_schedule
from repro.model.plogp import GapFunction, PLogPParameters
from repro.utils.rng import derive_seed

#: Valid ``engine=`` values of :func:`run_gossip`.
ENGINES = ("vectorized", "scalar")

#: Default wide-area link model for gossip timing: 1.5 ms latency and an
#: affine gap (60 µs software overhead + 1 Gbit/s).  Gossip runs over
#: commodity internet paths rather than the paper's Grid'5000 interconnect,
#: so the default is deliberately WAN-flavoured; studies pass their own
#: :class:`~repro.model.plogp.PLogPParameters` to model anything else.
DEFAULT_GOSSIP_PARAMS = PLogPParameters(
    latency=0.0015,
    gap=GapFunction.from_bandwidth(overhead=60e-6, bandwidth=125_000_000.0),
)


def gossip_round_time(
    spec: GossipSpec,
    message_size: float,
    params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
) -> float:
    """The noise-free pLogP duration of one gossip round.

    A round is one latency plus the sender occupancy of the messages a busy
    node injects (``fanout`` gaps for the random-fanout protocols, ``n - 1``
    for flood, one for the binomial tree) — the same ``L + k * g(m)`` shape
    the scheduling kernel uses for a cluster's local sends.
    """
    return params.latency + spec.sends_per_sender * params.gap(message_size)


def _round_targets(
    spec: GossipSpec, round_index: int, drawers: np.ndarray
) -> np.ndarray:
    """The ``(len(drawers), fanout)`` peer draw of one round, self-excluded.

    One bulk call from a seed keyed on ``(seed, protocol, round)``; row ``i``
    holds the targets of node ``drawers[i]``.  ``drawers`` is the round's
    ascending array of drawing nodes — the senders for ``push``/``epto``,
    every alive node for ``pushpull`` — so nothing is drawn for a node that
    stays idle.  Every caller (both engines and :func:`gossip_program
    <repro.gossip.programs.gossip_program>`) derives the same drawer array
    from the same integer state, which is what keeps them bit-identical.
    Targets are sampled with replacement, as the epidemic literature
    assumes; the raw draw is over ``n - 1`` values and shifted past the
    drawing node, so a node never picks itself.

    Rows are ``int32`` while every rank fits (``num_nodes <= 2**31``) and
    ``int64`` above.  NumPy draws any range below ``2**32`` with the same
    32-bit Lemire step whatever the output dtype, so the narrow draw is the
    wide one value for value, at half the memory traffic.
    """
    rng = np.random.default_rng(
        derive_seed(spec.seed, "gossip/targets", spec.protocol, round_index)
    )
    dtype = np.int32 if spec.num_nodes <= 2**31 else np.int64
    raw = rng.integers(
        0, spec.num_nodes - 1, size=(drawers.size, spec.fanout), dtype=dtype
    )
    raw += raw >= drawers.astype(dtype, copy=False)[:, None]
    return raw


def _should_stop(
    protocol: str,
    round_index: int,
    num_nodes: int,
    num_senders: int,
    num_uninformed_reachable: int,
) -> bool:
    """Whether round ``round_index`` has nothing left to do.

    One shared decision for both engines, on plain integer counts, so they
    can never diverge on *which* rounds execute:

    * a one-node network is delivered before any round;
    * ``tree`` runs its full ``ceil(log2 n)`` binomial ladder (offsets of
      ``2^r >= n`` can never land in range again);
    * ``flood`` and ``epto`` stop when no active sender remains — flood
      senders are only ever freshly informed nodes, and an EpTO ball with no
      TTL budget left anywhere is dead (EpTO keeps relaying after full
      delivery; that residual traffic is part of the protocol's cost);
    * ``push``/``pushpull`` stop when no sender remains or when every node
      that could still be alive in a future round is informed — the epidemic
      has delivered and further rounds would only add idle traffic.
    """
    if num_nodes <= 1:
        return True
    if protocol == "tree":
        return (1 << min(round_index, 62)) >= num_nodes
    if protocol in ("flood", "epto"):
        return num_senders == 0
    return num_senders == 0 or num_uninformed_reachable == 0


@dataclass
class GossipRunResult:
    """Integer outcome of one gossip run, engine-independent by contract.

    The engines produce only integer state — who was informed in which
    round, how many messages flew per round, the churn schedule they ran
    against — and every float (makespan, delivery time) is derived here
    through one shared code path, so engine bit-identity reduces to integer
    equality.

    Attributes
    ----------
    spec:
        The spec that produced the run.
    informed_round:
        Per-node round of first infection (``int64``; ``-1`` = never
        informed; the root holds ``0``).
    messages_per_round:
        Messages injected in each executed round (pull requests and their
        replies both count — traffic is traffic).
    rounds_executed:
        Number of executed rounds (``len(messages_per_round)``).
    join_round / leave_round:
        The churn schedule the run used: node ``i`` was alive in rounds
        ``[join_round[i], leave_round[i])``.
    final_ttl:
        Remaining EpTO relay budget per node (``None`` for other protocols).
    """

    spec: GossipSpec
    informed_round: np.ndarray
    messages_per_round: np.ndarray
    rounds_executed: int
    join_round: np.ndarray
    leave_round: np.ndarray
    final_ttl: np.ndarray | None = None

    # -- dissemination metrics ---------------------------------------------------

    @property
    def delivered_mask(self) -> np.ndarray:
        """Per-node bool: was the payload ever received (root included)?"""
        return self.informed_round >= 0

    @property
    def delivered_count(self) -> int:
        """Number of nodes the payload reached."""
        return int(self.delivered_mask.sum())

    @property
    def ever_alive_count(self) -> int:
        """Nodes whose alive interval was non-empty within the horizon."""
        return int((self.join_round < self.leave_round).sum())

    @property
    def delivery_fraction(self) -> float:
        """Delivered nodes over nodes that ever existed — the robustness axis."""
        return self.delivered_count / max(1, self.ever_alive_count)

    @property
    def rounds_to_delivery(self) -> int:
        """Round by which the last delivered node was informed."""
        return int(self.informed_round.max())

    @property
    def total_messages(self) -> int:
        """Total messages injected over the whole run."""
        return int(self.messages_per_round.sum())

    @property
    def messages_per_node(self) -> float:
        """Total traffic normalised by network size — the overhead axis."""
        return self.total_messages / self.spec.num_nodes

    def new_informed_per_round(self) -> np.ndarray:
        """Nodes first informed in round ``k``, for ``k = 0..rounds_executed``."""
        return np.bincount(
            self.informed_round[self.delivered_mask],
            minlength=self.rounds_executed + 1,
        )

    def informed_counts(self) -> np.ndarray:
        """Cumulative informed count after round ``k`` (monotone by design)."""
        return np.cumsum(self.new_informed_per_round())

    # -- timing (shared derivation: floats never depend on the engine) -----------

    def round_durations(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> np.ndarray:
        """Per-round wall durations under the pLogP model, optionally noisy.

        Noise is one bulk log-normal draw from
        ``derive_seed(seed, "gossip/noise")`` — one factor per executed
        round, the same multiplicative jitter model the measured simulator
        applies per message.
        """
        base = gossip_round_time(self.spec, message_size, params)
        durations = np.full(self.rounds_executed, base, dtype=float)
        if noise_sigma > 0.0 and self.rounds_executed:
            rng = np.random.default_rng(derive_seed(self.spec.seed, "gossip/noise"))
            durations *= rng.lognormal(0.0, noise_sigma, size=self.rounds_executed)
        return durations

    def makespan(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> float:
        """Wall time of the whole run (all executed rounds)."""
        return float(self.round_durations(
            message_size, params=params, noise_sigma=noise_sigma
        ).sum())

    def delivery_time(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> float:
        """Wall time until the last delivered node was informed."""
        durations = self.round_durations(
            message_size, params=params, noise_sigma=noise_sigma
        )
        return float(durations[: self.rounds_to_delivery].sum())


def run_gossip(spec: GossipSpec, *, engine: str = "vectorized") -> GossipRunResult:
    """Execute one gossip dissemination and return its integer outcome.

    ``engine="vectorized"`` (default) advances the whole network one flat
    NumPy pass per round; ``engine="scalar"`` is the per-node Python
    reference.  Both are bit-identical for every spec — same informed
    rounds, same per-round message counts, same executed round count — which
    ``tests/test_gossip.py`` asserts protocol by protocol.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "scalar":
        return _run_scalar(spec)
    return _run_vectorized(spec)


def _run_vectorized(spec: GossipSpec) -> GossipRunResult:
    """One flat NumPy pass per round over the whole network."""
    n = spec.num_nodes
    protocol = spec.protocol
    fanout = spec.fanout
    join, leave = churn_schedule(spec)
    informed_round = np.full(n, -1, dtype=np.int64)
    informed_round[spec.root] = 0
    ttl = spec.effective_ttl if protocol == "epto" else 0
    ttl_left = np.zeros(n, dtype=np.int64)
    if protocol == "epto":
        ttl_left[spec.root] = ttl
    offsets = (np.arange(n) - spec.root) % n if protocol == "tree" else None
    messages: list[int] = []
    # Rolling state, updated in place each round: `informed` mirrors
    # `informed_round >= 0` (the informed set only grows); `alive_now` is
    # recomputed only on rounds where some node joins or leaves; and the
    # push/pushpull reachable count is `uninformed` minus the uninformed
    # nodes gone by the next round, read off `uninformed_leaving`, their
    # histogram by leave round (nodes leaving at `horizon` never leave).
    informed = informed_round >= 0
    alive_now = (join <= 0) & (leave > 0)
    horizon = spec.rounds + 1
    uninformed_leaving = np.bincount(leave[leave < horizon], minlength=horizon)
    joining = np.bincount(join[join > 0], minlength=horizon)
    membership_changes = (joining + uninformed_leaving) > 0
    uninformed = n - 1

    for round_index in range(spec.rounds):
        next_round = round_index + 1
        if protocol == "flood":
            senders = informed & alive_now & (informed_round == round_index)
        elif protocol == "epto":
            # ttl_left > 0 implies informed: the budget is only ever set at
            # infection (and effective_ttl >= 1).
            senders = alive_now & (ttl_left > 0)
        elif protocol == "tree":
            pow2 = 1 << min(round_index, 62)
            senders = (
                informed & alive_now & (offsets < pow2) & (offsets + pow2 < n)
                if pow2 < n
                else np.zeros(n, dtype=bool)
            )
        else:
            senders = informed & alive_now
        if protocol == "pushpull":
            # Every alive node draws: informed ones push, the rest pull.
            drawers = np.flatnonzero(alive_now)
            pushing = informed[drawers]
            num_senders = int(np.count_nonzero(pushing))
        else:
            drawers = np.flatnonzero(senders)
            num_senders = drawers.size
        reachable = uninformed - int(uninformed_leaving[: next_round + 1].sum())
        if _should_stop(protocol, round_index, n, num_senders, reachable):
            break

        if membership_changes[next_round]:
            alive_next = (join <= next_round) & (leave > next_round)
        else:
            alive_next = alive_now
        hit = np.zeros(n, dtype=bool)
        if protocol == "flood":
            count = num_senders * (n - 1)
            hit[:] = True
        elif protocol == "tree":
            count = num_senders
            hit[(offsets[drawers] + pow2 + spec.root) % n] = True
        elif protocol == "pushpull":
            targets = _round_targets(spec, round_index, drawers)
            hit[targets[pushing].ravel()] = True
            pullers = drawers[~pushing]
            # A pull is answered by an informed, alive target (a sender);
            # np.take gathers through int32 rows faster than fancy indexing.
            replied = np.take(senders, targets[~pushing])
            count = drawers.size * fanout + int(np.count_nonzero(replied))
            hit[pullers[replied.any(axis=1)]] = True
        else:
            targets = _round_targets(spec, round_index, drawers)
            count = num_senders * fanout
            hit[targets.ravel()] = True
        fresh = np.flatnonzero(hit & ~informed & alive_next)
        informed_round[fresh] = next_round
        informed[fresh] = True
        uninformed -= fresh.size
        left = leave[fresh]
        uninformed_leaving -= np.bincount(left[left < horizon], minlength=horizon)
        alive_now = alive_next
        if protocol == "epto":
            ttl_left[fresh] = ttl
            ttl_left[drawers] -= 1
        messages.append(count)

    return GossipRunResult(
        spec=spec,
        informed_round=informed_round,
        messages_per_round=np.asarray(messages, dtype=np.int64),
        rounds_executed=len(messages),
        join_round=join,
        leave_round=leave,
        final_ttl=ttl_left if protocol == "epto" else None,
    )


def _run_scalar(spec: GossipSpec) -> GossipRunResult:
    """The per-node reference: plain Python loops, same draws, same rounds.

    State lives in Python lists and every infection is decided node by node
    and slot by slot — the honest scalar baseline the vectorized engine's
    benchmark floor is measured against.  It hands :func:`_round_targets`
    the same ascending drawer list the vectorized engine derives, keys the
    returned rows by drawing node, and shares the stop decision, which is
    what pins the two engines bit-identical.
    """
    n = spec.num_nodes
    protocol = spec.protocol
    fanout = spec.fanout
    join_array, leave_array = churn_schedule(spec)
    join = join_array.tolist()
    leave = leave_array.tolist()
    informed_round = [-1] * n
    informed_round[spec.root] = 0
    ttl = spec.effective_ttl if protocol == "epto" else 0
    ttl_left = [0] * n
    if protocol == "epto":
        ttl_left[spec.root] = ttl
    messages: list[int] = []

    for round_index in range(spec.rounds):
        pow2 = 1 << min(round_index, 62)
        senders: list[int] = []
        reachable = 0
        for node in range(n):
            alive = join[node] <= round_index < leave[node]
            is_informed = informed_round[node] >= 0
            if not is_informed and leave[node] > round_index + 1:
                reachable += 1
            if not (is_informed and alive):
                continue
            if protocol == "flood":
                if informed_round[node] == round_index:
                    senders.append(node)
            elif protocol == "epto":
                if ttl_left[node] > 0:
                    senders.append(node)
            elif protocol == "tree":
                offset = (node - spec.root) % n
                if pow2 < n and offset < pow2 and offset + pow2 < n:
                    senders.append(node)
            else:
                senders.append(node)
        if _should_stop(protocol, round_index, n, len(senders), reachable):
            break

        # Each drawer's row of the round's draw, keyed by the drawing node.
        targets: dict[int, list[int]] = {}
        if protocol in ("push", "pushpull", "epto"):
            drawers = senders
            if protocol == "pushpull":
                drawers = [
                    node for node in range(n) if join[node] <= round_index < leave[node]
                ]
            rows = _round_targets(
                spec, round_index, np.asarray(drawers, dtype=np.int64)
            )
            targets = dict(zip(drawers, rows.tolist()))
        hit = [False] * n
        count = 0
        for node in senders:
            if protocol == "flood":
                count += n - 1
                for other in range(n):
                    if other != node:
                        hit[other] = True
            elif protocol == "tree":
                count += 1
                hit[((node - spec.root) % n + pow2 + spec.root) % n] = True
            else:
                for slot in range(fanout):
                    count += 1
                    hit[targets[node][slot]] = True
        if protocol == "pushpull":
            for node in range(n):
                if informed_round[node] >= 0 or not join[node] <= round_index < leave[node]:
                    continue
                success = False
                for slot in range(fanout):
                    count += 1
                    target = targets[node][slot]
                    if (
                        informed_round[target] >= 0
                        and join[target] <= round_index < leave[target]
                    ):
                        count += 1
                        success = True
                if success:
                    hit[node] = True
        for node in range(n):
            if (
                hit[node]
                and informed_round[node] < 0
                and join[node] <= round_index + 1 < leave[node]
            ):
                informed_round[node] = round_index + 1
                if protocol == "epto":
                    ttl_left[node] = ttl
        if protocol == "epto":
            for node in senders:
                ttl_left[node] -= 1
        messages.append(count)

    return GossipRunResult(
        spec=spec,
        informed_round=np.asarray(informed_round, dtype=np.int64),
        messages_per_round=np.asarray(messages, dtype=np.int64),
        rounds_executed=len(messages),
        join_round=join_array,
        leave_round=leave_array,
        final_ttl=np.asarray(ttl_left, dtype=np.int64) if protocol == "epto" else None,
    )
