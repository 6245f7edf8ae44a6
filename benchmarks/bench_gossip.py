"""Gossip round-engine throughput: vectorized flat arrays vs scalar reference.

The gossip subsystem (PR 10) holds all per-node state in flat NumPy arrays
and advances an entire network one vectorized pass per round.  This benchmark
records what that buys:

* **engine speedup floor** — scalar vs vectorized on the 10^4-node *tree*
  workload.  Tree is the one protocol that draws no random targets, so the
  ratio measures the flat-array engine against the per-node Python loop
  directly.  (The fanout protocols draw their targets in one seeded NumPy
  call per round in *both* engines — one row per sending node, so the draw
  grows with the traffic, not with the network — and that shared call is
  the bit-identity contract; their ratio is recorded informationally as
  ``push_speedup_vectorized_vs_scalar``, not gated.)
* **scale trajectory** — rounds/s for fanout-4 push at 10^4, 10^5 and 10^6
  nodes, the sizes the scalar engine could never touch.

The two engines are verified bit-identical on the timed specs *before* any
timing is recorded — a fast wrong answer is not a result.  Rounds/s and
node-rounds/s per network size and the ``speedup_vectorized_vs_scalar``
headline land in ``benchmarks/results/BENCH_gossip.json``; the acceptance
floor (enforced by ``benchmarks/check_regression.py``) requires the
vectorized engine to advance the 10^4-node tree workload at least **20x**
faster than the scalar reference.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import BENCH_GOSSIP_JSON_FILE, emit, emit_json

from repro.experiments.report import render_table
from repro.gossip import GossipSpec, run_gossip

#: The scale-trajectory workload: classic fanout-4 push at three decades.
SIZES = (10_000, 100_000, 1_000_000)
FANOUT = 4
SEED = 20060331

#: The floor workload: draw-free binomial tree at the scalar-feasible size.
FLOOR_NODES = 10_000


def _push_spec(num_nodes: int) -> GossipSpec:
    return GossipSpec(protocol="push", num_nodes=num_nodes, fanout=FANOUT, seed=SEED)


def _tree_spec(num_nodes: int) -> GossipSpec:
    return GossipSpec(protocol="tree", num_nodes=num_nodes, seed=SEED)


def _assert_bit_identical(spec: GossipSpec) -> None:
    vectorized = run_gossip(spec)
    scalar = run_gossip(spec, engine="scalar")
    assert np.array_equal(vectorized.informed_round, scalar.informed_round)
    assert np.array_equal(vectorized.messages_per_round, scalar.messages_per_round)


def _time_run(spec: GossipSpec, engine: str, *, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_gossip(spec, engine=engine)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_gossip_engine_throughput():
    # Correctness first: the engines must agree bit for bit on both timed
    # specs (the full cross-protocol/churn matrix lives in
    # tests/test_gossip.py).
    _assert_bit_identical(_tree_spec(FLOOR_NODES))
    _assert_bit_identical(_push_spec(SIZES[0]))

    # Floor workload: draw-free tree, scalar vs vectorized.
    tree = _tree_spec(FLOOR_NODES)
    scalar_seconds, scalar_result = _time_run(tree, "scalar")
    vectorized_seconds, _ = _time_run(tree, "vectorized", repeats=5)
    speedup = scalar_seconds / vectorized_seconds

    # Informational: the same ratio on fanout-4 push, where both engines
    # make the same per-round target draw.
    push_small = _push_spec(SIZES[0])
    push_scalar_seconds, _ = _time_run(push_small, "scalar")
    push_vectorized_seconds, _ = _time_run(push_small, "vectorized", repeats=5)

    rows = []
    sections: dict[str, dict] = {}
    for num_nodes in SIZES:
        seconds, result = _time_run(_push_spec(num_nodes), "vectorized")
        rows.append(
            {
                "nodes": float(num_nodes),
                "rounds": float(result.rounds_executed),
                "seconds": seconds,
                "rounds_per_s": result.rounds_executed / seconds,
                "delivered": float(result.delivered_count),
            }
        )
        sections[str(num_nodes)] = {
            "rounds": result.rounds_executed,
            "seconds": seconds,
            "rounds_per_s": result.rounds_executed / seconds,
            "node_rounds_per_s": num_nodes * result.rounds_executed / seconds,
        }
        assert result.delivered_count == num_nodes  # no churn: full delivery

    emit(
        render_table(
            rows,
            title=(
                f"Vectorized gossip engine (push, fanout {FANOUT}); "
                f"tree floor workload at {FLOOR_NODES} nodes: scalar "
                f"{scalar_seconds * 1000:.1f}ms vs vectorized "
                f"{vectorized_seconds * 1000:.2f}ms -> speedup {speedup:.1f}x"
            ),
            precision=4,
        )
    )
    emit_json(
        "gossip_engine",
        {
            "floor_workload": f"tree-n{FLOOR_NODES}",
            "scalar_seconds": scalar_seconds,
            "scalar_rounds_per_s": scalar_result.rounds_executed / scalar_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup_vectorized_vs_scalar": speedup,
            "push_speedup_vectorized_vs_scalar": push_scalar_seconds
            / push_vectorized_seconds,
            "vectorized_push": sections,
        },
        path=BENCH_GOSSIP_JSON_FILE,
    )
    assert speedup >= 20.0
