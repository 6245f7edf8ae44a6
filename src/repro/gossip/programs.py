"""Gossip runs as :class:`~repro.simulator.program.CommunicationProgram`\\ s.

:func:`gossip_program` replays a churn-free gossip run (executed by the round
engine) into the simulator's send-list representation, so small gossip
instances flow through the existing scalar and batched simulator lanes
unchanged — same pLogP timing, same traces, same noise machinery as the
paper's tree broadcasts.  The program is a faithful transcript of the
engine's payload traffic: each rank's send list is its round-by-round sends,
tagged ``round-<k>``, in round-major slot order.

Two deliberate scope limits:

* **Churn-free only.**  A :class:`CommunicationProgram` has no notion of a
  rank disappearing mid-run; specs with an active churn schedule are
  rejected (the round engines handle churn natively).
* **Payload messages only.**  ``pushpull``'s empty pull *requests* come from
  uninformed ranks, which the activation-based executor cannot represent as
  senders; the program carries the payload-bearing traffic (pushes, flood
  and tree sends, EpTO relays, pull *replies*, tagged ``round-<k>/pull``).
  ``GossipRunResult.total_messages`` counts requests too, so for
  ``pushpull`` the program's message count is the engine total minus the
  request traffic; for every other protocol the counts match exactly.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.engine import GossipRunResult, _round_targets, run_gossip
from repro.gossip.spec import GossipSpec
from repro.simulator.program import CommunicationProgram
from repro.utils.validation import check_non_negative


def gossip_program(
    spec: GossipSpec,
    message_size: float,
    *,
    result: GossipRunResult | None = None,
) -> CommunicationProgram:
    """Transcribe a churn-free gossip run into a communication program.

    Parameters
    ----------
    spec:
        The run to transcribe.  ``spec.churn`` must be ``None`` or inactive.
    message_size:
        Payload size in bytes, applied to every send.
    result:
        Optional pre-computed outcome of ``run_gossip(spec)``; passed by
        callers that already ran the engine (the transcription re-runs it
        otherwise).  It must belong to the same spec.

    Returns
    -------
    CommunicationProgram
        One send list per rank, in round-major slot order.  Intended for the
        small instances the scalar/batched lanes are built for — a
        million-node flood transcript would be the traffic itself.
    """
    check_non_negative(message_size, "message_size")
    if spec.churn is not None and spec.churn.active:
        raise ValueError(
            "gossip_program only transcribes churn-free specs; "
            "use run_gossip for churned networks"
        )
    if result is None:
        result = run_gossip(spec)
    elif result.spec != spec:
        raise ValueError("result was produced by a different spec")

    n = spec.num_nodes
    protocol = spec.protocol
    informed_round = result.informed_round
    ttl = spec.effective_ttl if protocol == "epto" else 0
    # Per-message arrays in emission (round-major) order, one part per
    # round and kind; from_arrays stable-sorts them into per-rank lists.
    none = np.empty(0, dtype=np.int64)
    senders, dests, codes = [none], [none], [none]
    tags: list[str] = []

    def emit(sources: np.ndarray, destinations: np.ndarray, tag: str) -> None:
        senders.append(sources)
        dests.append(destinations)
        codes.append(np.full(sources.size, len(tags), dtype=np.int64))
        tags.append(tag)

    for round_index in range(result.rounds_executed):
        informed = (informed_round >= 0) & (informed_round <= round_index)
        tag = f"round-{round_index}"
        if protocol == "flood":
            # Each sender floods every other rank, in ascending rank order.
            flooders = np.flatnonzero(informed_round == round_index)
            slot = np.arange(n - 1)
            emit(
                np.repeat(flooders, n - 1),
                (slot + (slot >= flooders[:, None])).ravel(),
                tag,
            )
            continue
        if protocol == "tree":
            pow2 = 1 << min(round_index, 62)
            offsets = (np.arange(n) - spec.root) % n
            parents = np.flatnonzero(informed & (offsets < pow2) & (offsets + pow2 < n))
            emit(parents, (offsets[parents] + pow2 + spec.root) % n, tag)
            continue
        targets = _round_targets(spec, round_index)
        if protocol == "epto":
            senders_mask = informed & (informed_round + ttl > round_index)
        else:
            senders_mask = informed
        pushers = np.flatnonzero(senders_mask)
        emit(np.repeat(pushers, spec.fanout), targets[pushers].ravel(), tag)
        if protocol == "pushpull":
            # Each uninformed puller asks its targets in slot order; the
            # informed ones reply with the payload.
            pullers = np.flatnonzero(~informed)
            asked = targets[pullers].ravel()
            replies = informed[asked]
            emit(
                asked[replies],
                np.repeat(pullers, spec.fanout)[replies],
                f"{tag}/pull",
            )

    return CommunicationProgram.from_arrays(
        n,
        spec.root,
        np.concatenate(senders),
        np.concatenate(dests),
        message_size,
        np.concatenate(codes),
        tags,
        name=f"gossip-{protocol}[n={n},fanout={spec.fanout},seed={spec.seed}]",
    )
