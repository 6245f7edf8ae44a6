"""Load generator for the schedule service: cold vs warm latency and QPS.

The service (PR 9) answers (topology, size, heuristic) queries with timed
broadcast schedules out of an LRU schedule cache with frequency admission.
This benchmark drives a loopback daemon with a mixed query set and records:

* **cold** — first pass over the set on a fresh daemon: every query builds
  its grid, its cost matrices and its schedule (all cache misses);
* **warm** — the same pass repeated: every query replays a cached payload
  verbatim (all cache hits);
* **hammer** — N concurrent clients replaying the warm set, for the
  daemon's sustained queries-per-second.

Every single response is verified bit-identical to the inline
``get_heuristic(...).schedule(...)`` path *before* any timing is recorded
— a fast wrong answer is not a result.  Latency percentiles (p50/p99),
QPS and the ``warm_vs_cold_speedup`` headline land in
``benchmarks/results/BENCH_service.json``; the acceptance floor (enforced
by ``benchmarks/check_regression.py``) requires the schedule cache to
answer at least **3x** faster than cold computation.  The query set fits
the default cache, so this section never runs the admission rule.

A second section, **zipf_admission**, replays a Zipf-skewed stream over
more keys than a 128-entry cache holds through the daemon's query path
in-process, and records the steady-state hit ratio next to what a plain
LRU cache hits on the same stream; its floor (**0.82**) guards the
admission rule.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict

import numpy as np

from conftest import BENCH_SERVICE_JSON_FILE, emit, emit_json

from repro.core.registry import PAPER_HEURISTICS, get_heuristic
from repro.runtime.service import (
    ScheduleClient,
    ScheduleReply,
    ScheduleService,
    build_topology,
)

MB = 1_048_576

#: The mixed query set: the paper's Grid'5000 testbed plus Monte-Carlo
#: grids large enough that schedule construction dominates the wire hop.
QUERIES: tuple[tuple[dict, int, str, int], ...] = (
    ({"kind": "grid5000"}, MB, "ecef_la", 0),
    ({"kind": "grid5000"}, 65_536, "ecef_lat_max", 0),
    ({"kind": "random", "clusters": 24, "seed": 1}, MB, "ecef_la", 0),
    ({"kind": "random", "clusters": 32, "seed": 2}, MB, "ecef", 0),
    ({"kind": "random", "clusters": 32, "seed": 2}, 4 * MB, "ecef_la", 3),
    ({"kind": "random", "clusters": 40, "seed": 3}, MB, "bottom_up", 0),
    ({"kind": "random", "clusters": 40, "seed": 3}, MB, "ecef_lat_min", 0),
    ({"kind": "random", "clusters": 48, "seed": 4}, 2 * MB, "ecef_la", 0),
)

HAMMER_CLIENTS = 4
HAMMER_ROUNDS = 8


def _references() -> list:
    """The inline schedules the service must reproduce, computed once."""
    return [
        get_heuristic(heuristic).schedule(build_topology(spec), float(size), root=root)
        for spec, size, heuristic, root in QUERIES
    ]


def _verify(reply, reference, label) -> None:
    """Bit-identity against the inline path — the precondition of timing."""
    schedule = reply.schedule()
    assert schedule.order == reference.order, label
    assert schedule.makespan == reference.makespan, label
    assert schedule.completion_times == reference.completion_times, label
    assert schedule.summary() == reference.summary(), label


def _timed_pass(
    client: ScheduleClient, references: list, expect_cached: bool
) -> list[float]:
    """One pass over the query set; per-query wall latencies in seconds."""
    latencies = []
    for index, (spec, size, heuristic, root) in enumerate(QUERIES):
        started = time.perf_counter()
        reply = client.query(spec, size, heuristic, root=root)
        latencies.append(time.perf_counter() - started)
        assert reply.cached == expect_cached, (spec, heuristic)
        _verify(reply, references[index], (spec, heuristic))
    return latencies


def _percentiles(latencies: list[float]) -> dict[str, float]:
    values = np.asarray(latencies)
    return {
        "p50_ms": float(np.percentile(values, 50) * 1e3),
        "p99_ms": float(np.percentile(values, 99) * 1e3),
        "mean_ms": float(values.mean() * 1e3),
        "total_s": float(values.sum()),
    }


def test_service_cold_warm_and_hammer():
    """Cold misses vs warm hits vs a concurrent hammer, one loopback daemon."""
    references = _references()
    server = ScheduleService(port=0, max_clients=HAMMER_CLIENTS + 1)
    address = server.bind()
    serve_thread = threading.Thread(
        target=server.serve_forever, name="bench-service", daemon=True
    )
    serve_thread.start()
    try:
        with ScheduleClient(address) as client:
            cold = _timed_pass(client, references, expect_cached=False)
            warm = _timed_pass(client, references, expect_cached=True)
            # A second warm pass is the steadier of the two: the first warm
            # query still pays allocator/branch warmup noise.
            warm = _timed_pass(client, references, expect_cached=True)

        # The hammer: N clients replay the warm set concurrently.
        failures: list[str] = []
        per_client: list[list[float]] = [[] for _ in range(HAMMER_CLIENTS)]

        def hammer(slot: int) -> None:
            try:
                with ScheduleClient(address, timeout=60) as mine:
                    for _ in range(HAMMER_ROUNDS):
                        per_client[slot].extend(
                            _timed_pass(mine, references, expect_cached=True)
                        )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"client {slot}: {type(exc).__name__}: {exc}")

        hammer_started = time.perf_counter()
        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(HAMMER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        hammer_elapsed = time.perf_counter() - hammer_started
        assert not failures, failures

        stats = server.stats()
    finally:
        server.close()
        serve_thread.join(timeout=5)

    hammer_latencies = [value for slot in per_client for value in slot]
    hammer_queries = HAMMER_CLIENTS * HAMMER_ROUNDS * len(QUERIES)
    assert len(hammer_latencies) == hammer_queries
    assert stats["served"] == hammer_queries + 3 * len(QUERIES)

    sections = {
        "cold": _percentiles(cold),
        "warm": _percentiles(warm),
        "hammer": {
            **_percentiles(hammer_latencies),
            "clients": HAMMER_CLIENTS,
            "queries": hammer_queries,
            "qps": hammer_queries / hammer_elapsed,
        },
    }
    speedup = sections["cold"]["mean_ms"] / sections["warm"]["mean_ms"]

    emit(
        "Schedule service (loopback daemon, "
        f"{len(QUERIES)}-query set, every response verified vs inline):\n"
        f"  cold    p50 {sections['cold']['p50_ms']:8.3f} ms   "
        f"p99 {sections['cold']['p99_ms']:8.3f} ms\n"
        f"  warm    p50 {sections['warm']['p50_ms']:8.3f} ms   "
        f"p99 {sections['warm']['p99_ms']:8.3f} ms   "
        f"(cache {speedup:.1f}x cold)\n"
        f"  hammer  p50 {sections['hammer']['p50_ms']:8.3f} ms   "
        f"p99 {sections['hammer']['p99_ms']:8.3f} ms   "
        f"({HAMMER_CLIENTS} clients, {sections['hammer']['qps']:,.0f} queries/s)"
    )
    emit_json(
        "service_load",
        {
            "queries": len(QUERIES),
            "warm_vs_cold_speedup": speedup,
            "server_stats": stats,
            **sections,
        },
        path=BENCH_SERVICE_JSON_FILE,
    )
    # The acceptance bar: a schedule-cache hit must answer at least 3x
    # faster than cold computation.
    assert speedup >= 3.0


#: The admission guard's stream: Grid'5000 plus 23 random 16-48-cluster
#: topologies x the paper heuristics x 3 sizes x 2 roots, each key queried
#: its Zipf share of one period, in a seeded order, against a 128-entry
#: cache.  The first period is warm-up; the next three are measured.
ZIPF_SEED = 7
ZIPF_RANDOM_TOPOLOGIES = 23
ZIPF_SIZES = (65_536, MB, 4 * MB)
ZIPF_ROOTS = (0, 1)
ZIPF_EXPONENT = 1.1
ZIPF_PERIOD = 1500
ZIPF_CACHE_SIZE = 128
ZIPF_MEASURED_PERIODS = 3


def _zipf_stream() -> tuple[list[tuple[dict, int, str, int]], list[int]]:
    """The key universe and one period of key indices into it."""
    rng = random.Random(ZIPF_SEED)
    last = ZIPF_RANDOM_TOPOLOGIES - 1
    topologies = [{"kind": "grid5000"}] + [
        {
            "kind": "random",
            "clusters": 16 + (32 * index) // last,
            "seed": rng.randrange(1, 2**31),
        }
        for index in range(ZIPF_RANDOM_TOPOLOGIES)
    ]
    universe = [
        (topology, size, heuristic, root)
        for topology in topologies
        for heuristic in PAPER_HEURISTICS
        for size in ZIPF_SIZES
        for root in ZIPF_ROOTS
    ]
    rng.shuffle(universe)
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(universe) + 1)]
    per_weight = ZIPF_PERIOD / sum(weights)
    period = [
        key
        for key, weight in enumerate(weights)
        for _ in range(round(weight * per_weight))
    ]
    rng.shuffle(period)
    return universe, period


def _lru_hits(period: list[int]) -> int:
    """Hits of a plain LRU cache on the measured periods, after one warm-up."""
    cache: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for turn in range(1 + ZIPF_MEASURED_PERIODS):
        for key in period:
            if key in cache:
                cache.move_to_end(key)
                hits += turn > 0
                continue
            cache[key] = None
            if len(cache) > ZIPF_CACHE_SIZE:
                cache.popitem(last=False)
    return hits


def test_service_zipf_admission():
    """Steady-state hit ratio of the schedule cache on a skewed stream."""
    universe, period = _zipf_stream()
    server = ScheduleService(port=0, cache_size=ZIPF_CACHE_SIZE)
    first_payloads: dict[int, dict] = {}

    def replay(periods: int) -> None:
        for _ in range(periods):
            for key in period:
                topology, size, heuristic, root = universe[key]
                payload, _ = server._answer(
                    {
                        "topology": topology,
                        "message_size": size,
                        "heuristic": heuristic,
                        "root": root,
                    }
                )
                # Every reply for a key carries the same payload, the first
                # one verified against the inline path below.
                first = first_payloads.setdefault(key, payload)
                assert payload == first, universe[key]

    try:
        replay(1)
        warm = server.stats()
        started = time.perf_counter()
        replay(ZIPF_MEASURED_PERIODS)
        elapsed = time.perf_counter() - started
        stats = server.stats()
    finally:
        server.close()
    for key, payload in first_payloads.items():
        topology, size, heuristic, root = universe[key]
        _verify(
            ScheduleReply(payload, cached=False),
            get_heuristic(heuristic).schedule(
                build_topology(topology), float(size), root=root
            ),
            universe[key],
        )

    measured = {
        name: stats[name] - warm[name]
        for name in ("served", "hits", "misses", "rejected")
    }
    hit_ratio = measured["hits"] / measured["served"]
    lru_hit_ratio = _lru_hits(period) / measured["served"]
    emit(
        f"Schedule cache admission (Zipf {ZIPF_EXPONENT}, {len(universe)} keys, "
        f"{len(period)}-query period, cache {ZIPF_CACHE_SIZE}, "
        f"{ZIPF_MEASURED_PERIODS} periods after one warm-up):\n"
        f"  frequency admission  hit ratio {hit_ratio:.3f}   "
        f"{measured['misses'] / ZIPF_MEASURED_PERIODS:.0f} misses/period   "
        f"{elapsed / measured['served'] * 1e6:.0f} us/query\n"
        f"  plain LRU            hit ratio {lru_hit_ratio:.3f}"
    )
    emit_json(
        "zipf_admission",
        {
            "keys": len(universe),
            "distinct_queried": len(first_payloads),
            "period": len(period),
            "cache_size": ZIPF_CACHE_SIZE,
            "measured_periods": ZIPF_MEASURED_PERIODS,
            "hit_ratio": hit_ratio,
            "lru_hit_ratio": lru_hit_ratio,
            "misses_per_period": measured["misses"] / ZIPF_MEASURED_PERIODS,
            "rejected_per_period": measured["rejected"] / ZIPF_MEASURED_PERIODS,
            "us_per_query": elapsed / measured["served"] * 1e6,
        },
        path=BENCH_SERVICE_JSON_FILE,
    )
    # The admission floor (check_regression.py): plain LRU reads ~0.76.
    assert hit_ratio >= 0.82
