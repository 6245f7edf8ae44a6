"""Tests for broadcast-scheduling-as-a-service (repro.runtime.service).

The service's headline promise is the determinism contract: every response
is **bit-identical** to what the inline scheduling path produces for the
same (topology, size, heuristic, root) — whether the answer was computed,
replayed from the schedule cache, or served concurrently to a pile of
hammering clients.  The serving scaffolding itself (admission ``BUSY``
bounce, graceful SIGTERM drain, malformed-frame rejection) is the same
:class:`~repro.runtime.serving.FrameServer` skeleton the study agent uses,
re-verified here through the service's wire surface.
"""

from __future__ import annotations

import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.costs import GridCostCache
from repro.core.registry import get_heuristic
from repro.runtime import wire
from repro.runtime.service import (
    ScheduleClient,
    ScheduleService,
    ServiceBusyError,
    ServiceError,
    _ScheduleCache,
    build_topology,
    canonical_topology_spec,
    topology_key,
)
from repro.topology.cluster import Cluster
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid import Grid, InterClusterLink
from repro.utils.rng import RandomStream

MB = 1_048_576

_ANNOUNCE = re.compile(r"listening on ([^\s:]+):(\d+)")


@contextmanager
def running_service(**kwargs):
    """One in-process daemon on an OS-assigned port, torn down afterwards."""
    server = ScheduleService(port=0, **kwargs)
    address = server.bind()
    thread = threading.Thread(
        target=server.serve_forever, name="service-under-test", daemon=True
    )
    thread.start()
    try:
        yield server, address
    finally:
        server.close()
        thread.join(timeout=5)
    assert not thread.is_alive(), "serve_forever outlived close()"


def inline_schedule(spec, message_size, heuristic, root=0):
    """The reference path the service must reproduce bit for bit."""
    grid = build_topology(spec)
    return get_heuristic(heuristic).schedule(grid, float(message_size), root=root)


def assert_bit_identical(
    reply, spec, message_size, heuristic, root=0, reference=None
):
    if reference is None:
        reference = inline_schedule(spec, message_size, heuristic, root=root)
    schedule = reply.schedule()
    assert schedule.order == reference.order
    assert schedule.makespan == reference.makespan
    assert schedule.arrival_times == reference.arrival_times
    assert schedule.local_start_times == reference.local_start_times
    assert schedule.completion_times == reference.completion_times
    assert [
        (t.sender, t.receiver, t.start_time, t.sender_release_time,
         t.arrival_time, t.gap, t.latency)
        for t in schedule.transfers
    ] == [
        (t.sender, t.receiver, t.start_time, t.sender_release_time,
         t.arrival_time, t.gap, t.latency)
        for t in reference.transfers
    ]
    # The human-facing rendering is byte-identical too — the CI smoke job
    # diffs `service query` output against `schedule` output.
    assert schedule.summary() == reference.summary()


class TestTopologySpecs:
    def test_canonicalisation_is_strict(self):
        with pytest.raises(ValueError, match="kind"):
            canonical_topology_spec({"kind": "mesh"})
        with pytest.raises(ValueError, match="mapping"):
            canonical_topology_spec("grid5000")
        with pytest.raises(ValueError, match="clusters"):
            canonical_topology_spec({"kind": "random", "clusters": 0})
        with pytest.raises(ValueError, match="latency"):
            canonical_topology_spec({"kind": "explicit", "broadcast": [0.1, 0.2]})
        with pytest.raises(ValueError, match="3x3"):
            canonical_topology_spec(
                {
                    "kind": "explicit",
                    "broadcast": [0.1, 0.2, 0.3],
                    "latency": [[0.0, 1.0], [1.0, 0.0]],
                    "gap": [[0.0] * 3] * 3,
                }
            )

    def test_topology_key_ignores_irrelevant_representation(self):
        """Key order and int-vs-float spelling do not split the cache."""
        a = topology_key({"kind": "random", "clusters": 5, "seed": 7})
        b = topology_key({"seed": 7.0, "clusters": 5.0, "kind": "random"})
        assert a == b
        assert a != topology_key({"kind": "random", "clusters": 5, "seed": 8})
        assert a != topology_key({"kind": "random", "clusters": 6, "seed": 7})
        assert a != topology_key({"kind": "grid5000"})

    def test_random_spec_builds_the_generator_grid(self):
        spec = {"kind": "random", "clusters": 6, "seed": 42}
        built = build_topology(spec)
        reference = RandomGridGenerator().generate(6, RandomStream(seed=42))
        schedule = get_heuristic("ecef_la").schedule(built, float(MB))
        expected = get_heuristic("ecef_la").schedule(reference, float(MB))
        assert built.num_clusters == 6
        assert schedule.order == expected.order
        assert schedule.makespan == expected.makespan
        assert schedule.completion_times == expected.completion_times

    def test_explicit_spec_builds_the_literal_grid(self):
        """An explicit spec wires its matrices into the very grid a caller
        would build by hand from Cluster and InterClusterLink objects."""
        spec = {
            "kind": "explicit",
            "broadcast": [0.5, 0.25, 0.125],
            "latency": [
                [0.0, 0.010, 0.020],
                [0.010, 0.0, 0.030],
                [0.020, 0.030, 0.0],
            ],
            "gap": [
                [0.0, 2e-7, 1e-7],
                [2e-7, 0.0, 3e-7],
                [1e-7, 3e-7, 0.0],
            ],
        }
        clusters = [
            Cluster(cluster_id=0, size=1, fixed_broadcast_time=0.5),
            Cluster(cluster_id=1, size=1, fixed_broadcast_time=0.25),
            Cluster(cluster_id=2, size=1, fixed_broadcast_time=0.125),
        ]
        links = {
            (0, 1): InterClusterLink.from_values(0.010, 2e-7),
            (0, 2): InterClusterLink.from_values(0.020, 1e-7),
            (1, 2): InterClusterLink.from_values(0.030, 3e-7),
        }
        reference_grid = Grid(clusters, links, name="explicit")
        for key in ("fef", "ecef_la", "bottom_up"):
            built = get_heuristic(key).schedule(build_topology(spec), float(MB))
            expected = get_heuristic(key).schedule(reference_grid, float(MB))
            assert built.order == expected.order
            assert built.makespan == expected.makespan
            assert built.completion_times == expected.completion_times


class TestServiceQueries:
    QUERIES = [
        ({"kind": "grid5000"}, MB, "ecef_la", 0),
        ({"kind": "grid5000"}, 4_096, "fef", 2),
        ({"kind": "random", "clusters": 8, "seed": 3}, MB, "bottom_up", 0),
        ({"kind": "random", "clusters": 5, "seed": 11}, 65_536, "ecef", 1),
        (
            {
                "kind": "explicit",
                "broadcast": [0.3, 0.1, 0.2],
                "latency": [[0.0, 0.01, 0.02], [0.01, 0.0, 0.03], [0.02, 0.03, 0.0]],
                "gap": [[0.0, 2e-7, 1e-7], [2e-7, 0.0, 3e-7], [1e-7, 3e-7, 0.0]],
            },
            2 * MB,
            "flat_tree",
            0,
        ),
    ]

    def test_every_response_is_bit_identical_to_inline(self):
        with running_service() as (_, address):
            with ScheduleClient(address) as client:
                for spec, size, heuristic, root in self.QUERIES:
                    reply = client.query(spec, size, heuristic, root=root)
                    assert not reply.cached
                    assert_bit_identical(reply, spec, size, heuristic, root=root)

    def test_cache_hits_replay_verbatim_and_are_accounted(self):
        with running_service() as (server, address):
            with ScheduleClient(address) as client:
                first = client.query({"kind": "grid5000"}, MB, "ecef_la")
                second = client.query({"kind": "grid5000"}, MB, "ecef_la")
                assert not first.cached and second.cached
                assert second.payload == first.payload
                # Key-insensitive heuristic spelling shares the cache slot.
                third = client.query({"kind": "grid5000"}, MB, "ECEF-LA")
                assert third.cached and third.payload == first.payload
                # A different root is a different schedule, not a hit.
                rooted = client.query({"kind": "grid5000"}, MB, "ecef_la", root=3)
                assert not rooted.cached
                assert_bit_identical(
                    rooted, {"kind": "grid5000"}, MB, "ecef_la", root=3
                )
                stats = client.stats()
                assert stats["served"] == 4
                assert stats["hits"] == 2
                assert stats["misses"] == 2
                assert stats["rejected"] == 0
                assert stats["retimed"] == 0
                assert stats["entries"] == 2
                assert stats["topologies"] == 1
            assert server.stats() == stats

    def test_every_registry_spelling_shares_one_cache_entry(self):
        """The cache keys heuristics exactly as the registry resolves them:
        spaces and surrounding whitespace included, not only case and
        dashes."""
        with running_service() as (_, address):
            with ScheduleClient(address) as client:
                replies = [
                    client.query({"kind": "grid5000"}, MB, spelling)
                    for spelling in ("ecef_la", "ECEF LA", " ecef_la ")
                ]
                assert [reply.cached for reply in replies] == [False, True, True]
                assert all(reply.payload == replies[0].payload for reply in replies)
                stats = client.stats()
                assert (stats["hits"], stats["misses"]) == (2, 1)
                assert stats["entries"] == 1

    def test_query_errors_keep_the_connection_alive(self):
        with running_service() as (_, address):
            with ScheduleClient(address) as client:
                with pytest.raises(ServiceError, match="unknown topology kind"):
                    client.query({"kind": "mesh"}, MB, "fef")
                with pytest.raises(ServiceError, match="(?i)unknown heuristic"):
                    client.query({"kind": "grid5000"}, MB, "dijkstra")
                with pytest.raises(ServiceError, match="message_size"):
                    client.query({"kind": "grid5000"}, -5, "fef")
                # The connection survived all three rejections.
                reply = client.query({"kind": "grid5000"}, MB, "fef")
                assert_bit_identical(reply, {"kind": "grid5000"}, MB, "fef")

    def test_malformed_frames_drop_the_connection_not_the_daemon(self):
        with running_service() as (_, address):
            # Raw garbage bytes: the frame magic check fails, the server
            # drops the connection without dying.
            raw = socket.create_connection(address, timeout=5)
            try:
                hello = wire.recv_message(raw)
                assert hello.get("service") == "schedule"
                raw.sendall(b"\xde\xad\xbe\xef" * 8)
                # The server closes its end — a clean FIN or, if our bytes
                # were still unread, an RST.  Either way: no reply frame.
                try:
                    assert raw.recv(1024) == b""
                except ConnectionError:
                    pass
            finally:
                raw.close()
            # A well-formed frame that is not a query: same fate.
            raw = socket.create_connection(address, timeout=5)
            try:
                wire.recv_message(raw)
                wire.send_message(raw, {"bogus": 1})
                assert wire.recv_message(raw) is None
            finally:
                raw.close()
            # The daemon shrugged both off and serves the next client.
            with ScheduleClient(address) as client:
                reply = client.query({"kind": "grid5000"}, MB, "fef")
                assert_bit_identical(reply, {"kind": "grid5000"}, MB, "fef")

    def test_ping_is_answered_inline(self):
        with running_service() as (_, address):
            raw = socket.create_connection(address, timeout=5)
            try:
                wire.recv_message(raw)
                wire.send_message(raw, wire.control_message(wire.OP_PING, seq=7))
                pong = wire.recv_message(raw)
                assert pong["op"] == wire.OP_PONG and pong["seq"] == 7
            finally:
                raw.close()


def replay(cache, keys):
    """Drive a schedule cache the way ``_answer`` does: count each query,
    offer each miss for admission.  ``[(hit, admitted), ...]`` per key."""
    outcomes = []
    for key in keys:
        hit = cache.lookup(key) is not None
        outcomes.append((hit, False if hit else cache.admit(key, {"key": key})))
    return outcomes


class TestScheduleCacheAdmission:
    """LRU order for eviction, query frequency for admission."""

    G5K = {"kind": "grid5000"}

    def test_a_key_queried_once_does_not_evict(self):
        with running_service(cache_size=2) as (server, address):
            with ScheduleClient(address) as client:
                client.query(self.G5K, MB, "fef")
                client.query(self.G5K, MB, "ecef")
                # One query of a third key ties the LRU entry's count: the
                # entry stays and the computed payload is not admitted.
                once = client.query(self.G5K, MB, "bottom_up")
                assert not once.cached
                assert_bit_identical(once, self.G5K, MB, "bottom_up")
                assert client.query(self.G5K, MB, "fef").cached
                assert client.query(self.G5K, MB, "ecef").cached
                # A second query of it still only ties fef (2 against 2).
                assert not client.query(self.G5K, MB, "bottom_up").cached
                stats = client.stats()
            assert stats == server.stats()
            assert stats["served"] == 6
            assert stats["hits"] == 2
            assert stats["misses"] == 4
            assert stats["rejected"] == 2
            assert stats["entries"] == 2
            assert set(server._schedules.entries) == {
                (topology_key(self.G5K), float(MB), "fef", 0),
                (topology_key(self.G5K), float(MB), "ecef", 0),
            }

    def test_a_hotter_key_displaces_exactly_the_lru_victim(self):
        with running_service(cache_size=2) as (server, address):
            with ScheduleClient(address) as client:
                client.query(self.G5K, MB, "fef")  # the LRU victim, count 1
                client.query(self.G5K, MB, "ecef")
                assert not client.query(self.G5K, MB, "bottom_up").cached
                # Count 2 beats fef's 1: admitted, and only fef is evicted.
                assert not client.query(self.G5K, MB, "bottom_up").cached
                assert set(server._schedules.entries) == {
                    (topology_key(self.G5K), float(MB), "ecef", 0),
                    (topology_key(self.G5K), float(MB), "bottom_up", 0),
                }
                assert client.query(self.G5K, MB, "ecef").cached
                hot = client.query(self.G5K, MB, "bottom_up")
                assert hot.cached
                assert_bit_identical(hot, self.G5K, MB, "bottom_up")
                again = client.query(self.G5K, MB, "fef")
                assert not again.cached  # evicted, recomputed
                assert_bit_identical(again, self.G5K, MB, "fef")
                stats = client.stats()
            assert stats["served"] == 7
            assert stats["hits"] == 2
            assert stats["misses"] == 5
            # bottom_up's first miss and fef's recomputation (count 2 ties
            # ecef's 2) were not admitted.
            assert stats["rejected"] == 2
            assert stats["entries"] == 2

    def test_counts_halve_every_window_so_old_heat_ages_out(self):
        cache = _ScheduleCache(2)  # a window of 20 queries
        replay(cache, ["hot"] * 6 + ["warm"] * 6)
        assert list(cache.entries) == ["hot", "warm"]
        # Three queries of a newcomer do not beat hot's six.
        assert replay(cache, ["new"] * 3) == [(False, False)] * 3
        # The twentieth query halves every count and drops the zeros.
        replay(cache, [f"pad{index}" for index in range(5)])
        assert cache.counts == {"hot": 3, "warm": 3, "new": 1}
        assert list(cache.entries) == ["hot", "warm"]
        # Now four queries beat hot's halved three: hot is displaced.
        assert replay(cache, ["new"] * 3) == [(False, False)] * 2 + [(False, True)]
        assert list(cache.entries) == ["warm", "new"]

    def test_count_table_stays_bounded_on_unique_keys(self):
        size = 4
        cache = _ScheduleCache(size)
        for index in range(50 * 10 * size + 3):
            replay(cache, [index])
            assert len(cache.counts) <= 10 * size
            assert len(cache.entries) <= size
        # A stream of one-off keys ages out completely at each window.
        assert len(cache.counts) == 3

    def test_a_cache_that_never_fills_admits_every_miss(self):
        queries = TestServiceQueries.QUERIES
        with running_service(cache_size=len(queries)) as (server, address):
            with ScheduleClient(address) as client:
                for spec, size, heuristic, root in queries:
                    assert not client.query(spec, size, heuristic, root=root).cached
                for spec, size, heuristic, root in queries:
                    reply = client.query(spec, size, heuristic, root=root)
                    assert reply.cached
                    assert_bit_identical(reply, spec, size, heuristic, root=root)
            stats = server.stats()
        assert stats["misses"] == stats["entries"] == len(queries)
        assert stats["rejected"] == 0
        assert stats["hits"] == len(queries)


class TestServiceCaching:
    def test_topology_cache_keeps_cost_matrices_warm(self):
        """A known topology keeps one grid identity across queries — which
        is what keeps its weakly-keyed GridCostCache matrices warm."""
        spec = {"kind": "random", "clusters": 7, "seed": 5}
        with running_service() as (server, address):
            with ScheduleClient(address) as client:
                client.query(spec, MB, "fef")
                key = topology_key(spec)
                grid = server._grids[key]
                # The service built (and cached) exactly this size's matrices.
                assert server._costs_for(grid, float(MB)) is GridCostCache.for_grid(
                    grid, float(MB)
                )
                client.query(spec, 2 * MB, "fef")
                client.query(spec, MB, "ecef")
                assert server._grids[key] is grid
                assert server.stats()["topologies"] == 1

    def test_band_retiming_is_exact_on_constant_gap_topologies(self):
        """With band_bytes set, a second size in the band replays the cached
        decision order re-timed at the exact query size — which on constant
        gap topologies (the Monte-Carlo grids) is bit-identical to inline."""
        spec = {"kind": "random", "clusters": 9, "seed": 13}
        with running_service(band_bytes=MB) as (server, address):
            with ScheduleClient(address) as client:
                first = client.query(spec, MB, "ecef_la")
                assert not first.cached
                assert_bit_identical(first, spec, MB, "ecef_la")
                # Same band (1 MiB wide), different exact size.
                second = client.query(spec, MB + 4_096, "ecef_la")
                assert second.cached
                assert_bit_identical(second, spec, MB + 4_096, "ecef_la")
                stats = client.stats()
                assert stats["retimed"] == 1 and stats["hits"] == 1
                # The band representative stays cached at its own exact size.
                replay = client.query(spec, MB, "ecef_la")
                assert replay.cached and replay.payload == first.payload


class TestServiceConcurrency:
    def test_concurrent_client_soak_every_response_bit_identical(self):
        """N threads hammer one daemon with a mixed query set; every single
        response must match the inline path bit for bit."""
        queries = TestServiceQueries.QUERIES
        references = [
            inline_schedule(spec, size, heuristic, root=root)
            for spec, size, heuristic, root in queries
        ]
        failures: list[str] = []
        rounds, workers = 3, 6

        with running_service(max_clients=workers + 1) as (server, address):

            def hammer(worker: int) -> None:
                try:
                    with ScheduleClient(address, timeout=60) as client:
                        for _ in range(rounds):
                            for index, (spec, size, heuristic, root) in enumerate(
                                queries
                            ):
                                reply = client.query(
                                    spec, size, heuristic, root=root
                                )
                                schedule = reply.schedule()
                                reference = references[index]
                                if (
                                    schedule.order != reference.order
                                    or schedule.makespan != reference.makespan
                                    or schedule.completion_times
                                    != reference.completion_times
                                    or schedule.summary() != reference.summary()
                                ):
                                    failures.append(
                                        f"worker {worker} query {index} diverged"
                                    )
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(f"worker {worker}: {type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures
            stats = server.stats()
            assert stats["served"] == workers * rounds * len(queries)
            assert stats["hits"] + stats["misses"] == stats["served"]
            # Concurrent first-misses on one key may each compute, so misses
            # is at least one per distinct query rather than exactly one.
            assert len(queries) <= stats["misses"] <= workers * len(queries)
            assert stats["entries"] == len(queries)
            # The cache never fills: every miss was admitted except the ones
            # whose key a racing thread had already inserted.
            assert stats["misses"] == stats["entries"] + stats["rejected"]

    def test_concurrent_soak_on_a_full_cache(self):
        """Four clients replay a skewed stream over a 4-entry cache, so
        admissions, rejections, evictions and racing inserts all happen;
        every reply must still match the inline path bit for bit."""
        specs = [{"kind": "grid5000"}] + [
            {"kind": "random", "clusters": 6 + seed, "seed": seed} for seed in range(3)
        ]
        keys = [
            (spec, size, heuristic, 0)
            for spec in specs
            for size, heuristic in ((MB, "ecef_la"), (4 * MB, "fef"))
        ]
        # Key i is queried about 24 / (i + 1) times per client.
        stream = [
            index for index in range(len(keys)) for _ in range(24 // (index + 1))
        ]
        references = [
            inline_schedule(spec, size, heuristic, root=root)
            for spec, size, heuristic, root in keys
        ]
        clients, cache_size = 4, 4
        failures: list[str] = []
        counted = [{"served": 0, "hits": 0, "misses": 0} for _ in range(clients)]

        with running_service(
            max_clients=clients + 1, cache_size=cache_size
        ) as (server, address):

            def hammer(slot: int) -> None:
                order = stream[:]
                random.Random(slot).shuffle(order)
                try:
                    with ScheduleClient(address, timeout=60) as client:
                        for index in order:
                            spec, size, heuristic, root = keys[index]
                            reply = client.query(spec, size, heuristic, root=root)
                            counted[slot]["served"] += 1
                            counted[slot]["hits" if reply.cached else "misses"] += 1
                            try:
                                assert_bit_identical(
                                    reply, spec, size, heuristic, root=root,
                                    reference=references[index],
                                )
                            except AssertionError:
                                failures.append(f"client {slot} key {index} diverged")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(f"client {slot}: {type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in range(clients)
            ]
            # Frequent thread switches give racing lookups and inserts a
            # chance to interleave inside the daemon.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            stats = server.stats()
        for name in ("served", "hits", "misses"):
            assert stats[name] == sum(count[name] for count in counted), name
        assert stats["served"] == clients * len(stream)
        assert stats["served"] == stats["hits"] + stats["misses"]
        assert stats["entries"] <= cache_size
        assert stats["entries"] <= stats["misses"] - stats["rejected"]
        assert stats["rejected"] > 0

    def test_connection_admission_bounces_busy(self):
        with running_service(max_clients=1) as (_, address):
            first = ScheduleClient(address, timeout=5).connect()
            try:
                with pytest.raises(ServiceBusyError, match="max clients"):
                    ScheduleClient(address, timeout=5).connect()
            finally:
                first.close()
            # The slot frees once the first client leaves.
            deadline = time.monotonic() + 10
            while True:
                try:
                    second = ScheduleClient(address, timeout=5).connect()
                    break
                except ServiceBusyError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            second.close()

    def test_queue_bound_bounces_per_query_busy(self, monkeypatch):
        """With queue=1, a query arriving while another is in flight is
        refused with a per-query BUSY frame the client surfaces as
        ServiceBusyError — and the connection itself survives the bounce."""
        started = threading.Event()
        release = threading.Event()
        original = ScheduleService._answer

        def slow_answer(self, message):
            if message.get("heuristic") == "fef":  # only the blocker stalls
                started.set()
                release.wait(10)
            return original(self, message)

        monkeypatch.setattr(ScheduleService, "_answer", slow_answer)
        with running_service(queue=1) as (_, address):
            blocker = ScheduleClient(address, timeout=30).connect()
            probe = ScheduleClient(address, timeout=30).connect()
            try:
                box: dict = {}
                thread = threading.Thread(
                    target=lambda: box.update(
                        reply=blocker.query({"kind": "grid5000"}, MB, "fef")
                    )
                )
                thread.start()
                # The blocker's query is admitted (it reached _answer) and
                # holds the whole in-flight budget.
                assert started.wait(10)
                with pytest.raises(ServiceBusyError, match="queue"):
                    probe.query({"kind": "grid5000"}, MB, "ecef")
                release.set()
                thread.join(timeout=30)
                assert "reply" in box
                assert_bit_identical(box["reply"], {"kind": "grid5000"}, MB, "fef")
                # Post-flush the bound has room again on the same probe
                # connection.  The blocker's reply flushes before the server
                # decrements its in-flight count, so allow a beat.
                deadline = time.monotonic() + 10
                while True:
                    try:
                        after = probe.query({"kind": "grid5000"}, MB, "ecef")
                        break
                    except ServiceBusyError:
                        assert time.monotonic() < deadline, "queue never freed"
                        time.sleep(0.05)
                assert_bit_identical(after, {"kind": "grid5000"}, MB, "ecef")
            finally:
                release.set()
                blocker.close()
                probe.close()

    def test_drain_flushes_inflight_query_and_refuses_new_work(self, monkeypatch):
        """begin_drain mid-query: the admitted query finishes and its result
        flushes; peers get per-query BUSY; fresh connections are refused."""
        started = threading.Event()
        release = threading.Event()
        original = ScheduleService._answer

        def slow_answer(self, message):
            started.set()
            release.wait(10)
            return original(self, message)

        monkeypatch.setattr(ScheduleService, "_answer", slow_answer)
        with running_service() as (server, address):
            inflight = ScheduleClient(address, timeout=30).connect()
            peer = ScheduleClient(address, timeout=30).connect()
            try:
                box: dict = {}
                thread = threading.Thread(
                    target=lambda: box.update(
                        reply=inflight.query({"kind": "grid5000"}, MB, "ecef_la")
                    )
                )
                thread.start()
                assert started.wait(10)
                server.begin_drain()
                # An established peer is bounced per-query...
                with pytest.raises(ServiceBusyError):
                    peer.query({"kind": "grid5000"}, MB, "fef")
                # ...and a newcomer is refused: either the closed listener
                # rejects the connect outright, or (while the accept loop is
                # still unwinding) the handshake lands and is bounced with a
                # BUSY hello.  Both are ServiceBusyError/OSError, never a
                # served query.
                with pytest.raises((OSError, ServiceError)):
                    ScheduleClient(address, timeout=2).connect()
                release.set()
                thread.join(timeout=30)
                assert server.drain(timeout=10)
                assert_bit_identical(
                    box["reply"], {"kind": "grid5000"}, MB, "ecef_la"
                )
            finally:
                release.set()
                inflight.close()
                peer.close()


def _spawn_service_daemon(*extra: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start one `service serve` daemon subprocess and read its address."""
    import repro

    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "service",
        "serve",
        "--bind",
        "127.0.0.1:0",
        *extra,
    ]
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    assert process.stdout is not None
    line = process.stdout.readline()
    match = _ANNOUNCE.search(line)
    if match is None:
        process.kill()
        process.wait(timeout=15)
        raise RuntimeError(f"no announce line from the daemon, got {line!r}")
    return process, (match.group(1), int(match.group(2)))


class TestServiceDaemon:
    def test_sigterm_drains_and_exits_zero(self):
        """The `service serve` daemon answers queries until SIGTERM, then
        refuses new work, drains and exits 0."""
        process, address = _spawn_service_daemon()
        try:
            with ScheduleClient(address, timeout=30) as client:
                reply = client.query({"kind": "grid5000"}, MB, "ecef_la")
                assert_bit_identical(reply, {"kind": "grid5000"}, MB, "ecef_la")
                process.send_signal(signal.SIGTERM)
                # Signal delivery is asynchronous: poll until the drain
                # takes effect (per-query BUSY, or the torn-down socket).
                deadline = time.monotonic() + 30
                while True:
                    try:
                        client.query({"kind": "grid5000"}, MB, "fef")
                    except (ServiceError, OSError):
                        break
                    assert time.monotonic() < deadline, "still serving"
                    time.sleep(0.05)
            assert process.wait(timeout=60) == 0
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=2)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)
