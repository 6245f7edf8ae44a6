"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings, strategies as st

from repro.collectives.cost import predict_tree_time
from repro.collectives.trees import make_tree
from repro.core.registry import PAPER_HEURISTICS, get_heuristic
from repro.core.schedule import evaluate_order
from repro.model.plogp import GapFunction, PLogPParameters
from repro.model.prediction import predict_binomial_broadcast, predict_flat_broadcast
from repro.topology.cluster import Cluster
from repro.topology.grid import Grid, InterClusterLink

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

latencies = st.floats(min_value=1e-6, max_value=0.05, allow_nan=False)
gaps = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
broadcast_times = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
message_sizes = st.integers(min_value=0, max_value=8_000_000)


@st.composite
def grids(draw, min_clusters: int = 2, max_clusters: int = 6) -> Grid:
    """Random heterogeneous grids with fully specified pairwise parameters."""
    count = draw(st.integers(min_value=min_clusters, max_value=max_clusters))
    clusters = [
        Cluster(
            cluster_id=index,
            size=draw(st.integers(min_value=1, max_value=4)),
            fixed_broadcast_time=draw(broadcast_times),
        )
        for index in range(count)
    ]
    links = {
        (i, j): InterClusterLink.from_values(latency=draw(latencies), gap=draw(gaps))
        for i in range(count)
        for j in range(i + 1, count)
    }
    return Grid(clusters, links)


@st.composite
def gap_control_points(draw):
    sizes = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    sizes = sorted(sizes)
    values = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=len(sizes),
                max_size=len(sizes),
            )
        )
    )
    return list(zip(sizes, values))


# ---------------------------------------------------------------------------
# pLogP model properties
# ---------------------------------------------------------------------------


class TestGapFunctionProperties:
    @given(points=gap_control_points(), size=st.floats(min_value=0, max_value=2e7))
    @settings(max_examples=60)
    def test_gap_is_non_negative_everywhere(self, points, size):
        assert GapFunction.from_points(points)(size) >= 0.0

    @given(points=gap_control_points(), a=message_sizes, b=message_sizes)
    @settings(max_examples=60)
    def test_gap_is_monotone_non_decreasing(self, points, a, b):
        gap = GapFunction.from_points(points)
        small, large = sorted((a, b))
        assert gap(small) <= gap(large) + 1e-12

    @given(
        overhead=st.floats(min_value=0, max_value=0.1, allow_nan=False),
        bandwidth=st.floats(min_value=1e3, max_value=1e10, allow_nan=False),
        size=message_sizes,
    )
    @settings(max_examples=60)
    def test_affine_gap_matches_formula(self, overhead, bandwidth, size):
        gap = GapFunction.from_bandwidth(overhead=overhead, bandwidth=bandwidth)
        assert math.isclose(gap(size), overhead + size / bandwidth, rel_tol=1e-9, abs_tol=1e-12)


class TestPredictionProperties:
    @given(
        procs=st.integers(min_value=1, max_value=64),
        latency=latencies,
        gap=gaps,
        size=message_sizes,
    )
    @settings(max_examples=60)
    def test_binomial_never_slower_than_flat_when_gap_dominates(
        self, procs, latency, gap, size
    ):
        """When the gap dominates the latency, the binomial tree's extra hops
        are free and it cannot lose to the flat tree.  (When latency dominates
        the flat tree can win — that regime is exactly what the per-cluster
        tree selector of repro.collectives.selector is for.)"""
        assume(latency <= gap)
        params = PLogPParameters.from_values(latency=latency, gap=gap, num_procs=procs)
        assert (
            predict_binomial_broadcast(params, size)
            <= predict_flat_broadcast(params, size) + 1e-12
        )

    @given(
        procs=st.integers(min_value=1, max_value=64),
        latency=latencies,
        gap=gaps,
        size=message_sizes,
    )
    @settings(max_examples=60)
    def test_binomial_never_slower_than_chain(self, procs, latency, gap, size):
        from repro.model.prediction import predict_chain_broadcast

        params = PLogPParameters.from_values(latency=latency, gap=gap, num_procs=procs)
        assert (
            predict_binomial_broadcast(params, size)
            <= predict_chain_broadcast(params, size) + 1e-12
        )

    @given(
        procs=st.integers(min_value=1, max_value=32),
        latency=latencies,
        gap=gaps,
        size=message_sizes,
        shape=st.sampled_from(["binomial", "flat", "chain", "binary"]),
    )
    @settings(max_examples=60)
    def test_tree_cost_non_negative_and_zero_only_for_singleton(
        self, procs, latency, gap, size, shape
    ):
        params = PLogPParameters.from_values(latency=latency, gap=gap, num_procs=procs)
        cost = predict_tree_time(make_tree(shape, procs), params, size)
        if procs == 1:
            assert cost == 0.0
        else:
            assert cost > 0.0


# ---------------------------------------------------------------------------
# tree properties
# ---------------------------------------------------------------------------


class TestTreeProperties:
    @given(
        size=st.integers(min_value=1, max_value=200),
        shape=st.sampled_from(["binomial", "flat", "chain", "binary"]),
    )
    @settings(max_examples=80)
    def test_every_tree_is_spanning(self, size, shape):
        tree = make_tree(shape, size)
        assert len(tree.edges()) == size - 1
        reached = {0}
        for parent, child in tree.edges():
            assert parent in reached
            reached.add(child)
        assert reached == set(range(size))

    @given(size=st.integers(min_value=2, max_value=200))
    @settings(max_examples=60)
    def test_binomial_root_fanout_is_ceil_log2(self, size):
        tree = make_tree("binomial", size)
        assert len(tree.children[0]) == math.ceil(math.log2(size))


# ---------------------------------------------------------------------------
# scheduling properties
# ---------------------------------------------------------------------------


class TestScheduleProperties:
    @given(grid=grids(), size=message_sizes, key=st.sampled_from(PAPER_HEURISTICS))
    @settings(max_examples=80, deadline=None)
    def test_every_heuristic_yields_a_valid_schedule(self, grid, size, key):
        heuristic = get_heuristic(key)
        schedule = heuristic.schedule(grid, size)
        schedule.validate()
        assert schedule.makespan >= 0.0
        assert len(schedule.transfers) == grid.num_clusters - 1

    @given(grid=grids(), size=message_sizes, key=st.sampled_from(PAPER_HEURISTICS))
    @settings(max_examples=60, deadline=None)
    def test_makespan_lower_bound(self, grid, size, key):
        """No schedule can beat the cheapest direct transfer to the most
        expensive cluster (its own local broadcast included)."""
        heuristic = get_heuristic(key)
        schedule = heuristic.schedule(grid, size, root=0)
        lower_bound = 0.0
        for cluster in range(1, grid.num_clusters):
            cheapest_incoming = min(
                grid.transfer_time(other, cluster, size)
                for other in range(grid.num_clusters)
                if other != cluster
            )
            lower_bound = max(
                lower_bound, cheapest_incoming + grid.broadcast_time(cluster, size)
            )
        lower_bound = max(lower_bound, grid.broadcast_time(0, size))
        assert schedule.makespan >= lower_bound - 1e-9

    @given(grid=grids(), size=message_sizes)
    @settings(max_examples=40, deadline=None)
    def test_makespan_invariant_to_transfer_reordering(self, grid, size):
        """evaluate_order only depends on the decision sequence, so evaluating
        the same order twice gives identical schedules."""
        heuristic = get_heuristic("ecef_la")
        schedule = heuristic.schedule(grid, size)
        replayed = evaluate_order(grid, size, schedule.root, schedule.order)
        assert replayed.makespan == schedule.makespan
        assert replayed.arrival_times == schedule.arrival_times

    @given(grid=grids(max_clusters=5), size=message_sizes)
    @settings(max_examples=30, deadline=None)
    def test_heuristics_never_beat_optimal(self, grid, size):
        from repro.core.optimal import OptimalSearch

        best = OptimalSearch().schedule(grid, size).makespan
        for key in ("ecef", "ecef_la", "bottom_up", "flat_tree"):
            assert get_heuristic(key).makespan(grid, size) >= best - 1e-9

    @given(grid=grids(), root=st.integers(min_value=0, max_value=5), size=message_sizes)
    @settings(max_examples=50, deadline=None)
    def test_root_rotation_always_valid(self, grid, root, size):
        root = root % grid.num_clusters
        schedule = get_heuristic("ecef_lat_max").schedule(grid, size, root=root)
        schedule.validate()
        assert schedule.arrival_times[root] == 0.0


# ---------------------------------------------------------------------------
# wire protocol properties
# ---------------------------------------------------------------------------


import numpy as np
import pytest

from repro.runtime import wire
from repro.runtime.chunking import aggregate_unit_costs, partition_by_cost
from repro.runtime.transport import ArrayShipment, shared_memory_available

wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
    st.binary(max_size=32),
)


@st.composite
def wire_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(["f8", "f4", "i8", "i4", "u2"])))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    count = int(np.prod(shape))
    if np.issubdtype(dtype, np.floating):
        values = draw(
            st.lists(
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
                ),
                min_size=count,
                max_size=count,
            )
        )
    else:
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=60_000),
                min_size=count,
                max_size=count,
            )
        )
    return np.array(values, dtype=dtype).reshape(shape)


wire_messages = st.recursive(
    wire_scalars | wire_arrays(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


def _deep_equal(a, b) -> bool:
    """Structural equality that is exact on arrays (dtype, shape, bits)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_deep_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_deep_equal(value, b[key]) for key, value in a.items())
        )
    return type(a) is type(b) and a == b


def _wire_round_trip(message):
    frame = wire.encode_message(message)
    import struct

    magic, version, flags, length = struct.unpack("!4sBBxxQ", frame[:16])
    assert magic == wire.MAGIC
    assert version == wire.WIRE_VERSION
    assert length == len(frame) - 16
    return wire.decode_payload(frame[16:], flags)


class TestWireRoundTripProperties:
    """encode_message/decode_payload must be the identity on any payload the
    remote lane can carry — including the out-of-band hoisting of every
    NumPy array and the v2 control/timing frames."""

    @given(message=wire_messages)
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_payloads_round_trip(self, message):
        assert _deep_equal(_wire_round_trip(message), message)

    @given(
        arrays=st.dictionaries(
            st.text(min_size=1, max_size=8), wire_arrays(), min_size=1, max_size=3
        ),
        job=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on this platform"
    )
    def test_shipments_cross_as_wire_shipments(self, arrays, job):
        shipment = ArrayShipment.pack(arrays)
        try:
            decoded = _wire_round_trip({"job": job, "args": (shipment,)})
        finally:
            shipment.unlink()
        crossed = decoded["args"][0]
        assert isinstance(crossed, wire.WireShipment)
        assert _deep_equal(dict(crossed.load()), dict(arrays))

    @given(
        op=st.sampled_from([wire.OP_PING, wire.OP_PONG, wire.OP_SHUTDOWN]),
        seq=st.integers(min_value=0, max_value=2**62),
    )
    @settings(max_examples=40, deadline=None)
    def test_control_frames_round_trip(self, op, seq):
        message = wire.control_message(op, seq=seq)
        assert message["op"] == op
        assert _wire_round_trip(message) == {"op": op, "seq": seq}

    @given(
        job=st.integers(min_value=1, max_value=2**31),
        elapsed=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        value=wire_scalars,
    )
    @settings(max_examples=40, deadline=None)
    def test_timing_reports_round_trip(self, job, elapsed, value):
        decoded = _wire_round_trip(
            {"job": job, "result": value, "elapsed": elapsed}
        )
        assert decoded["job"] == job
        assert decoded["elapsed"] == elapsed
        assert _deep_equal(decoded["result"], value)


# ---------------------------------------------------------------------------
# partition properties
# ---------------------------------------------------------------------------


@st.composite
def chain_partition_inputs(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    units, start = [], 0
    for size in sizes:
        units.append((start, start + size))
        start += size
    costs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=len(units),
            max_size=len(units),
        )
    )
    return units, costs


class TestWeightedPartitionProperties:
    """partition_by_cost is a chain-atomic cover of the task range, lands
    every closed chunk within one unit's cost of its fair share, and depends
    only on the relative unit costs."""

    @given(
        inputs=chain_partition_inputs(),
        num_chunks=st.integers(1, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_partition_is_a_chain_atomic_cover(self, inputs, num_chunks):
        units, costs = inputs
        chunks = partition_by_cost(units, costs, num_chunks)
        # Non-empty chunks, contiguous, covering every task exactly once.
        assert chunks[0][0] == units[0][0]
        assert chunks[-1][1] == units[-1][1]
        for (_, left_end), (right_start, _) in zip(chunks, chunks[1:]):
            assert left_end == right_start
        assert all(start < end for start, end in chunks)
        # Ceiling: never more chunks than asked, than units.
        assert len(chunks) <= min(num_chunks, len(units))
        # Chains atomic: every boundary coincides with a unit boundary.
        unit_starts = {start for start, _ in units}
        assert all(start in unit_starts for start, _ in chunks)

    @given(inputs=chain_partition_inputs(), num_chunks=st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_closed_chunks_within_one_unit_of_fair_share(self, inputs, num_chunks):
        units, costs = inputs
        chunks = partition_by_cost(units, costs, num_chunks)
        num_chunks = min(num_chunks, len(units))
        chunk_costs = [
            sum(
                cost
                for (u_start, _), cost in zip(units, costs)
                if start <= u_start < end
            )
            for start, end in chunks
        ]
        max_unit = max(costs)
        remaining = sum(costs)
        # Each closed (non-final) chunk's cost sits within one unit's cost
        # of an equal share of what remains — chains are atomic, so no
        # partition can do better than one unit of slack.
        for index, chunk_cost in enumerate(chunk_costs[:-1]):
            target = remaining / (num_chunks - index)
            assert abs(chunk_cost - target) <= max_unit + 1e-6 * (1 + target)
            remaining -= chunk_cost

    @given(inputs=chain_partition_inputs())
    @settings(max_examples=60, deadline=None)
    def test_single_chunk_covers_the_whole_range(self, inputs):
        units, costs = inputs
        assert partition_by_cost(units, costs, 1) == [(units[0][0], units[-1][1])]

    @given(
        inputs=chain_partition_inputs(),
        num_chunks=st.integers(1, 8),
        exponent=st.integers(-10, 10),
    )
    @settings(max_examples=120, deadline=None)
    def test_partition_depends_only_on_relative_costs(
        self, inputs, num_chunks, exponent
    ):
        # A power-of-two scale is exact in floating point, so rescaling
        # every cost (a faster or slower cost unit) cannot move a boundary.
        units, costs = inputs
        scaled = [cost * 2.0**exponent for cost in costs]
        assert partition_by_cost(units, scaled, num_chunks) == partition_by_cost(
            units, costs, num_chunks
        )

    @given(inputs=chain_partition_inputs())
    @settings(max_examples=60, deadline=None)
    def test_unit_costs_sum_their_tasks(self, inputs):
        units, task_costs = inputs
        # Reuse the drawn floats as per-task costs over the units' range.
        num_tasks = units[-1][1]
        task_costs = (task_costs * num_tasks)[:num_tasks]
        totals = aggregate_unit_costs(units, task_costs)
        assert len(totals) == len(units)
        for (start, end), total in zip(units, totals):
            assert total == float(sum(task_costs[start:end]))


# ---------------------------------------------------------------------------
# seed derivation (repro.utils.rng.derive_seed)
# ---------------------------------------------------------------------------

seed_ints = st.integers(min_value=0, max_value=2**63 - 1)
seed_labels = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=0, max_value=64), st.text(max_size=6)),
)


class TestDeriveSeedInvariance:
    """derive_seed must depend only on ``(seed, labels)`` — never on the
    order other seeds are derived in.  This is the contract that makes the
    fan-out lanes bit-identical: shuffling execution order, reordering the
    heuristics tuple or splitting work across agents cannot move any
    individual measurement onto a different noise stream."""

    @given(
        seed=seed_ints,
        labels=st.lists(seed_labels, min_size=1, max_size=6, unique_by=str),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shuffle_invariant(self, seed, labels, order):
        from repro.utils.rng import derive_seed

        baseline = {str(label): derive_seed(seed, label) for label in labels}
        shuffled = list(labels)
        order.shuffle(shuffled)
        for label in shuffled:
            assert derive_seed(seed, label) == baseline[str(label)]

    @given(seed=seed_ints, labels=st.lists(seed_labels, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_repeat_derivations_are_stable(self, seed, labels):
        from repro.utils.rng import derive_seed

        first = derive_seed(seed, *labels)
        # Interleave unrelated derivations; the keyed derivation must not
        # observe them (unlike spawn(), which advances a counter).
        for noise in range(3):
            derive_seed(seed, "noise", noise)
        assert derive_seed(seed, *labels) == first

    @given(seed=seed_ints, a=seed_labels, b=seed_labels)
    @settings(max_examples=200, deadline=None)
    def test_distinct_label_tuples_rarely_collide(self, seed, a, b):
        from repro.utils.rng import derive_seed

        assume(str(a) != str(b))
        sa, sb = derive_seed(seed, a), derive_seed(seed, b)
        # CRC32-keyed mixing: collisions exist in principle, but any
        # Hypothesis-sized example pair colliding means the labels were
        # ignored, so treat equality of both derived seeds AND the mixed
        # digests as the failure signal.
        if sa == sb:
            import zlib

            assert zlib.crc32(str(a).encode("utf-8")) == zlib.crc32(
                str(b).encode("utf-8")
            )


# ---------------------------------------------------------------------------
# remote-lane chaos recovery (repro.runtime.remote + repro.runtime.faults)
# ---------------------------------------------------------------------------

import threading

from repro.runtime.faults import FaultPlan
from repro.runtime.remote import AgentServer, RemoteStudyPool
from repro.utils.rng import derive_seed


@st.composite
def fault_knobs(draw):
    """One agent's misbehaviour profile, from the interesting corners."""
    return {
        "drop_rate": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "delay_rate": draw(st.sampled_from([0.0, 0.5])),
        "delay_seconds": 0.01,
        "corrupt_rate": draw(st.sampled_from([0.0, 0.25])),
        "crash_after_results": draw(st.sampled_from([0, 2])),
        "hang_after_results": draw(st.sampled_from([0, 1])),
        "hang_seconds": 0.4,
    }


fault_plans = st.builds(
    lambda seed, first, second: FaultPlan(
        seed=seed, agents={"#0": first, "#1": second}
    ),
    st.integers(min_value=0, max_value=2**20),
    fault_knobs(),
    fault_knobs(),
)


class TestChaosRecoveryProperties:
    """Whatever a seeded fault schedule does to the fleet — kills, hangs,
    drops, corruption, steals, reconnects, full-fleet degradation — every
    job settles exactly once with the right value, and every delivered
    frame is accounted for exactly once (first delivery, or the discarded
    duplicate of a re-dispatched frame)."""

    @staticmethod
    def _fleet(plan):
        servers = [AgentServer(workers=1), AgentServer(workers=1)]
        addresses = []
        for server in servers:
            addresses.append(server.bind())
            threading.Thread(target=server.serve_forever, daemon=True).start()
        pool = RemoteStudyPool(
            hosts=addresses,
            faults=plan,
            heartbeat=0.1,
            frame_timeout=0.25,
        )
        return servers, pool

    @given(plan=fault_plans, salt=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=8, deadline=None)
    def test_jobs_settle_exactly_once_with_exact_values(self, plan, salt):
        servers, pool = self._fleet(plan)
        try:
            handles = [
                pool.submit(derive_seed, salt * 1000 + index, units=1.0)
                for index in range(12)
            ]
            values = [handle.get(timeout=120) for handle in handles]
            assert values == [
                derive_seed(salt * 1000 + index) for index in range(12)
            ]
            # No frame is double-counted: each of the 12 jobs completed
            # through exactly one lane — a first remote delivery or the
            # degraded local lane — and any further executions of
            # re-dispatched frames were discarded as duplicates.
            with pool._lock:
                completed = sum(link.completed for link in pool._agents)
                assert completed + pool.degraded_jobs == 12
        finally:
            pool.close()
            for server in servers:
                server.close()

    @given(plan=fault_plans)
    @settings(max_examples=4, deadline=None)
    def test_micro_study_is_bit_identical_under_chaos(self, plan):
        from repro.experiments.config import SimulationStudyConfig
        from repro.experiments.simulation_study import run_simulation_study

        config = SimulationStudyConfig(
            cluster_counts=(3,), iterations=8, seed=17
        )
        inline = run_simulation_study(config)
        servers, pool = self._fleet(plan)
        try:
            chaotic = run_simulation_study(config, workers=2, pool=pool)
            assert np.array_equal(inline.makespans, chaotic.makespans)
        finally:
            pool.close()
            for server in servers:
                server.close()


# ---------------------------------------------------------------------------
# the scheduling determinism contract (PR 9)
# ---------------------------------------------------------------------------

from repro.core.batch import BatchedGridCosts, batched_makespans
from repro.core.costs import GridCostCache
from repro.experiments.config import SimulationStudyConfig
from repro.experiments.simulation_study import run_simulation_study
from repro.topology.generators import RandomGridGenerator
from repro.utils.rng import RandomStream


class TestSchedulingDeterminism:
    """The contract broadcast-scheduling-as-a-service silently depends on.

    A cache-backed daemon may answer one query from the scalar engine, the
    next from the vectorized per-grid engine, a study from the batched
    kernel, any of them through any executor lane, and any of them against
    a cold or warm :class:`GridCostCache` — and it promises all of those
    paths produce bit-identical decision orders and makespans.  These
    properties pin that promise down for arbitrary seeds, cluster counts
    and (paper) heuristics; the average-based *ablation* lookaheads are
    deliberately excluded (their engines sum in different orders, see
    ``tests/test_core_vectorized.py``).
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_clusters=st.integers(min_value=2, max_value=9),
        key=st.sampled_from(PAPER_HEURISTICS),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_engine_and_cache_state_agrees(self, seed, num_clusters, key):
        grid = RandomGridGenerator(cluster_size=2).generate(
            num_clusters, RandomStream(seed=seed)
        )
        heuristic = get_heuristic(key)
        size = 1_048_576.0
        # Cold: two independent uncached matrix builds, scalar vs vectorized.
        scalar = heuristic.schedule(
            grid, size, costs=GridCostCache.build(grid, size), vectorized=False
        )
        cold = heuristic.schedule(grid, size, costs=GridCostCache.build(grid, size))
        # Warm: the shared per-grid cache, passed explicitly and resolved
        # implicitly (the second call hits the cache the first one filled).
        warm_costs = GridCostCache.for_grid(grid, size)
        warm_explicit = heuristic.schedule(grid, size, costs=warm_costs)
        warm_implicit = heuristic.schedule(grid, size)
        for candidate in (cold, warm_explicit, warm_implicit):
            assert candidate.order == scalar.order
            assert candidate.makespan == scalar.makespan
            assert candidate.completion_times == scalar.completion_times
        # The batched kernel (the study engine) lands on the same makespan.
        batch = batched_makespans(heuristic, BatchedGridCosts([warm_costs]))
        assert batch is not None, f"{key} lost its batched kernel"
        assert float(batch[0]) == scalar.makespan

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_executor_lane_and_chunking_never_change_a_study(self, seed, workers):
        """The fan-out machinery is pure plumbing: any worker count (which
        changes the chunk partition) through the process lane reproduces the
        in-process study bit for bit."""
        config = SimulationStudyConfig(
            cluster_counts=(3, 5),
            iterations=6,
            seed=seed,
            heuristics=("fef", "ecef_la"),
        )
        inline = run_simulation_study(config)
        fanned = run_simulation_study(config, workers=workers, executor="process")
        assert np.array_equal(inline.makespans, fanned.makespans)
        assert inline.heuristic_names == fanned.heuristic_names


# ---------------------------------------------------------------------------
# gossip round engines (repro.gossip)
# ---------------------------------------------------------------------------

from repro.experiments.gossip_study import GossipStudyConfig, run_gossip_study
from repro.gossip import (
    GOSSIP_PROTOCOLS,
    ChurnSpec,
    GossipSpec,
    gossip_program,
    run_gossip,
)
from repro.simulator.execution import execute_program
from repro.simulator.network import SimulatedNetwork


class TestGossipProperties:
    """Invariants of the epidemic round engines, for arbitrary specs.

    The deterministic-seeding design (per-round bulk draws keyed on
    ``(seed, protocol, round)``, one row per drawing node) means every
    property that holds for the vectorized engine holds verbatim for the
    scalar reference; one property checks that equivalence over arbitrary
    specs and the rest exercise the fast engine only.
    """

    @given(
        protocol=st.sampled_from(GOSSIP_PROTOCOLS),
        num_nodes=st.integers(min_value=2, max_value=300),
        fanout=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_informed_set_grows_monotonically_without_churn(
        self, protocol, num_nodes, fanout, seed
    ):
        assume(fanout <= num_nodes - 1)
        spec = GossipSpec(
            protocol=protocol, num_nodes=num_nodes, fanout=fanout, seed=seed
        )
        result = run_gossip(spec)
        counts = result.informed_counts()
        assert np.all(np.diff(counts) >= 0)
        assert counts[0] >= 1  # the root is informed from round 0
        # Without churn an informed node stays informed: the cumulative
        # curve ends exactly at the delivered count.
        assert counts[-1] == result.delivered_count

    @given(
        protocol=st.sampled_from(GOSSIP_PROTOCOLS),
        num_nodes=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        leave=st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
        join=st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_count_conservation(
        self, protocol, num_nodes, seed, leave, join
    ):
        """Every delivery is accounted for exactly once, churn or not."""
        spec = GossipSpec(
            protocol=protocol,
            num_nodes=num_nodes,
            fanout=min(2, num_nodes - 1),
            seed=seed,
            churn=ChurnSpec(leave_fraction=leave, join_fraction=join),
        )
        result = run_gossip(spec)
        per_round = result.new_informed_per_round()
        assert int(per_round.sum()) == result.delivered_count
        assert 1 <= result.delivered_count <= result.ever_alive_count
        # A node is informed only within the executed horizon, and only
        # while it exists: never before joining, never after leaving.
        informed = result.informed_round[result.delivered_mask]
        assert np.all(informed <= result.rounds_executed)
        assert np.all(informed >= result.join_round[result.delivered_mask])
        assert np.all(informed < result.leave_round[result.delivered_mask])

    @given(
        protocol=st.sampled_from(GOSSIP_PROTOCOLS),
        num_nodes=st.integers(min_value=2, max_value=120),
        fanout=st.integers(min_value=1, max_value=4),
        rounds=st.integers(min_value=1, max_value=6) | st.just(64),
        churn=st.none()
        | st.builds(
            ChurnSpec,
            leave_fraction=st.floats(0.0, 0.9, allow_nan=False),
            join_fraction=st.floats(0.0, 0.9, allow_nan=False),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_sender_only_draws_agree_across_engines_and_programs(
        self, protocol, num_nodes, fanout, rounds, churn, seed
    ):
        """The per-drawer target draw is consumed identically everywhere:
        the scalar reference equals the vectorized engine, churn or not, and
        without churn the transcribed program activates exactly the ranks
        the engine delivered.  Heavy churn over few rounds changes the
        membership on most rounds, which the vectorized engine tracks
        incrementally and the scalar one re-derives node by node."""
        assume(fanout <= num_nodes - 1)
        spec = GossipSpec(
            protocol=protocol,
            num_nodes=num_nodes,
            fanout=fanout,
            rounds=rounds,
            seed=seed,
            churn=churn,
        )
        vectorized = run_gossip(spec)
        scalar = run_gossip(spec, engine="scalar")
        assert np.array_equal(vectorized.informed_round, scalar.informed_round)
        assert np.array_equal(vectorized.messages_per_round, scalar.messages_per_round)
        assert vectorized.rounds_executed == scalar.rounds_executed
        if protocol == "epto":
            assert np.array_equal(vectorized.final_ttl, scalar.final_ttl)
        else:
            assert vectorized.final_ttl is None and scalar.final_ttl is None
        if churn is None:
            program = gossip_program(spec, 256.0, result=vectorized)
            grid = Grid(
                [Cluster(cluster_id=0, size=num_nodes, fixed_broadcast_time=0.0)], {}
            )
            executed = execute_program(SimulatedNetwork(grid), program)
            times = executed.activation_times
            activated = {rank for rank, t in enumerate(times) if t is not None}
            assert activated == set(np.flatnonzero(vectorized.delivered_mask).tolist())

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=6, deadline=None)
    def test_seed_worker_and_chunking_invariance_of_studies(self, seed, workers):
        """Fan-out plumbing never changes a gossip study: any worker count
        (hence any chunk partition) through the process lane reproduces the
        in-process study bit for bit, and the same seed reproduces the
        same study."""
        config = GossipStudyConfig(
            protocols=("tree", "push", "epto"),
            node_counts=(150, 400),
            churn=ChurnSpec(leave_fraction=0.2),
            noise_sigma=0.05,
            seed=seed,
        )
        inline = run_gossip_study(config)
        fanned = run_gossip_study(config, workers=workers, executor="process")
        repeated = run_gossip_study(config)
        assert np.array_equal(inline.metrics, fanned.metrics)
        assert np.array_equal(inline.metrics, repeated.metrics)


# ---------------------------------------------------------------------------
# flat program form (repro.simulator.program, repro.mpi.bcast)
# ---------------------------------------------------------------------------

from repro.collectives.trees import TREE_BUILDERS
from repro.mpi.bcast import binomial_bcast_program, grid_aware_bcast_program
from repro.simulator.batch import ExecutionTask, execute_programs
from repro.simulator.network import NetworkConfig
from repro.simulator.program import CommunicationProgram, SendInstruction


def _reference_children(shape: str, size: int) -> list[list[int]]:
    """Each tree shape's send lists, built participant by participant."""
    children: list[list[int]] = [[] for _ in range(size)]
    if shape == "binomial":
        distance = 1
        while distance < size:
            for informed in range(distance):
                if informed + distance < size:
                    children[informed].append(informed + distance)
            distance *= 2
    elif shape == "flat":
        children[0] = list(range(1, size))
    elif shape == "chain":
        for index in range(size - 1):
            children[index].append(index + 1)
    else:
        for index in range(size):
            children[index] = [c for c in (2 * index + 1, 2 * index + 2) if c < size]
    return children


def _transcribed_bcast(grid, schedule, size, local_tree, local_first):
    """The scheduled broadcast transcribed message by message (reference)."""
    inter: dict[int, list[SendInstruction]] = {}
    for transfer in schedule.transfers:
        inter.setdefault(grid.coordinator_rank(transfer.sender), []).append(
            SendInstruction(grid.coordinator_rank(transfer.receiver), size, "inter-cluster")
        )
    local: dict[int, list[SendInstruction]] = {}
    for cluster in grid.clusters:
        base = cluster.coordinator.rank
        tag = f"local-c{cluster.cluster_id}"
        for parent, kids in enumerate(_reference_children(local_tree, cluster.size)):
            for kid in kids:
                local.setdefault(base + parent, []).append(
                    SendInstruction(base + kid, size, tag)
                )
    first, second = (local, inter) if local_first else (inter, local)
    return {
        rank: first.get(rank, []) + second.get(rank, [])
        for rank in range(grid.num_nodes)
        if rank in first or rank in second
    }


def _reference_validate(program: CommunicationProgram) -> None:
    """Broadcast validation walked message by message (reference)."""
    sends = program.sends
    incoming: dict[int, int] = {}
    for instructions in sends.values():
        for instruction in instructions:
            incoming[instruction.destination] = incoming.get(instruction.destination, 0) + 1
    if program.root in incoming:
        raise ValueError("the root must not receive the broadcast payload")
    duplicates = sorted(rank for rank, count in incoming.items() if count > 1)
    if duplicates:
        raise ValueError(f"ranks {duplicates} receive more than once")
    missing = sorted(set(range(program.num_ranks)) - {program.root} - set(incoming))
    if missing:
        raise ValueError(f"ranks {missing} never receive the payload")
    informed = {program.root}
    frontier = [program.root]
    while frontier:
        for instruction in sends.get(frontier.pop(), []):
            if instruction.destination not in informed:
                informed.add(instruction.destination)
                frontier.append(instruction.destination)
    idle = sorted(set(sends) - informed)
    if idle:
        raise ValueError(f"ranks {idle} have sends but never receive the payload")


def _validation_outcome(check, program) -> str | None:
    try:
        check(program)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def bcast_inputs(draw):
    """A random grid, any paper heuristic, tree shape, phase order and root."""
    if draw(st.booleans()):
        grid = RandomGridGenerator(
            cluster_size=draw(st.integers(min_value=1, max_value=9))
        ).generate(
            draw(st.integers(min_value=1, max_value=7)),
            RandomStream(seed=draw(st.integers(min_value=0, max_value=2**32 - 1))),
        )
    else:
        grid = draw(grids(max_clusters=7))
    size = draw(st.sampled_from([0.0, 1.0, 4_096.0, 1_048_576.0, 4_194_304.0]))
    schedule = get_heuristic(draw(st.sampled_from(PAPER_HEURISTICS))).schedule(
        grid, size, root=draw(st.integers(min_value=0, max_value=grid.num_clusters - 1))
    )
    return (
        grid,
        schedule,
        size,
        draw(st.sampled_from(sorted(TREE_BUILDERS))),
        draw(st.booleans()),
    )


class TestFlatProgramEquivalence:
    """The array-built programs against per-message references.

    Builders emit the CSR form directly and validate it with array
    operations; these properties hold them to the message-by-message
    transcription, the scalar execution engine and the message-by-message
    validation they replaced.
    """

    @given(shape=st.sampled_from(sorted(TREE_BUILDERS)), size=st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_tree_shapes_match_their_loop_construction(self, shape, size):
        tree = make_tree(shape, size)
        assert [list(kids) for kids in tree.children] == _reference_children(shape, size)

    @given(inputs=bcast_inputs())
    @settings(max_examples=60, deadline=None)
    def test_grid_aware_program_is_the_schedule_transcribed(self, inputs):
        grid, schedule, size, local_tree, local_first = inputs
        program = grid_aware_bcast_program(
            grid, schedule, size, local_tree=local_tree, local_first=local_first
        )
        assert program.sends == _transcribed_bcast(
            grid, schedule, size, local_tree, local_first
        )
        assert program.total_messages() == grid.num_nodes - 1

    @given(inputs=bcast_inputs(), noise_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batched_engine_equals_scalar_engine(self, inputs, noise_seed):
        grid, schedule, size, local_tree, local_first = inputs
        root_rank = grid.coordinator_rank(schedule.root)
        tasks = [
            ExecutionTask(
                grid_aware_bcast_program(
                    grid, schedule, size, local_tree=local_tree, local_first=local_first
                ),
                noise_seed=noise_seed,
            ),
            ExecutionTask(
                binomial_bcast_program(grid, size, root_rank=root_rank),
                noise_seed=noise_seed + 1,
            ),
        ]
        config = NetworkConfig(noise_sigma=0.05, seed=noise_seed)
        batched = execute_programs(grid, tasks, config=config, engine="batched", workers=0)
        scalar = execute_programs(grid, tasks, config=config, engine="scalar", workers=0)
        for fast, reference in zip(batched, scalar):
            assert fast.activation_times == reference.activation_times
            assert fast.completion_times == reference.completion_times
            assert fast.trace == reference.trace
            assert fast.makespan == reference.makespan

    @given(
        inputs=bcast_inputs(),
        defect=st.sampled_from(["root", "duplicate", "missing", "cycle"]),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_validation_agrees_with_the_message_walk(self, inputs, defect, pick):
        grid, schedule, size, local_tree, local_first = inputs
        valid = grid_aware_bcast_program(
            grid, schedule, size, local_tree=local_tree, local_first=local_first
        )
        assume(valid.total_messages() >= 2)
        senders = valid.senders().copy()
        dest = valid.dest.copy()
        index = pick % dest.size
        if defect == "root":
            dest[index] = valid.root
            assume(senders[index] != valid.root)
        elif defect == "duplicate":
            other = (index + 1 + pick % (dest.size - 1)) % dest.size
            dest[index] = dest[other]
            assume(senders[index] != dest[index])
        elif defect == "missing":
            senders = np.delete(senders, index)
            dest = np.delete(dest, index)
        else:
            # Rewire the message delivering to one of a receiver's children
            # so the child feeds its own parent: a cycle cut off from the root.
            children = np.flatnonzero(np.isin(senders, dest))
            assume(children.size)
            child_message = children[pick % children.size]
            parent = senders[child_message]
            senders[np.flatnonzero(dest == parent)[0]] = dest[child_message]
        broken = CommunicationProgram.from_arrays(
            valid.num_ranks,
            valid.root,
            senders,
            dest,
            valid.size[: dest.size],
            valid.tag_code[: dest.size],
            valid.tags,
        )
        expected = _validation_outcome(_reference_validate, broken)
        assert expected is not None
        assert _validation_outcome(CommunicationProgram.validate_broadcast, broken) == expected


# ---------------------------------------------------------------------------
# stacked program builders (repro.mpi.bcast)
# ---------------------------------------------------------------------------

from dataclasses import replace

import pytest

from repro.mpi.bcast import binomial_bcast_programs, grid_aware_bcast_programs
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream

GRID5000 = build_grid5000_topology()

stack_sizes = st.sampled_from([0, 0.0, 1, 4_096, 65_536.0, 1_048_576, 4_194_304])


@st.composite
def stack_grids(draw) -> Grid:
    """Grid5000 (intra parameters, size-dependent gaps), a heterogeneous
    fixed-T grid, or a generated array-backed grid."""
    kind = draw(st.sampled_from(["grid5000", "heterogeneous", "generated"]))
    if kind == "grid5000":
        return GRID5000
    if kind == "heterogeneous":
        return draw(grids(max_clusters=7))
    return RandomGridGenerator(
        cluster_size=draw(st.integers(min_value=1, max_value=9))
    ).generate(
        draw(st.integers(min_value=1, max_value=7)),
        RandomStream(seed=draw(st.integers(min_value=0, max_value=2**32 - 1))),
    )


@st.composite
def stacked_bcast_inputs(draw):
    """A grid, K = 1..5 schedules of any paper heuristic at sizes that may
    be 0, a tree shape and a phase order."""
    grid = draw(stack_grids())
    sizes = draw(st.lists(stack_sizes, min_size=1, max_size=5))
    roots = st.integers(min_value=0, max_value=grid.num_clusters - 1)
    schedules = [
        get_heuristic(draw(st.sampled_from(PAPER_HEURISTICS))).schedule(
            grid, size, root=draw(roots)
        )
        for size in sizes
    ]
    return (
        grid,
        schedules,
        sizes,
        draw(st.sampled_from(sorted(TREE_BUILDERS))),
        draw(st.booleans()),
    )


def _fields(program: CommunicationProgram) -> tuple:
    """Every field of a program, arrays as (dtype, values)."""
    return (
        program.name,
        program.root,
        type(program.root),
        program.num_ranks,
        program.initially_active,
        program.tags,
        *(
            (array.dtype, array.tolist())
            for array in (program.indptr, program.dest, program.size, program.tag_code)
        ),
    )


def _assert_read_only(program: CommunicationProgram) -> None:
    for array in (program.indptr, program.dest, program.size, program.tag_code):
        assert not array.flags.writeable


def _transcribed_binomial(num_ranks, root_rank, size):
    """The binomial broadcast over all ranks, rotated to the root (reference)."""
    return {
        (parent + root_rank) % num_ranks: [
            SendInstruction((kid + root_rank) % num_ranks, size, "binomial")
            for kid in kids
        ]
        for parent, kids in enumerate(_reference_children("binomial", num_ranks))
        if kids
    }


def _malformed(schedule, defect: str, pick: int):
    """``schedule`` with one duplicate receiver or one unreachable sender."""
    transfers = list(schedule.transfers)
    if defect == "duplicate":
        assume(len(transfers) >= 2)
        index = pick % len(transfers)
        other = transfers[(index + 1) % len(transfers)]
        assume(transfers[index].sender != other.receiver)
        transfers[index] = replace(transfers[index], receiver=other.receiver)
    else:
        # A relay P -> C (P not the root) makes C feed P instead of P's own
        # parent: P and C form a cycle cut off from the root.
        relays = [t for t in transfers if t.sender != schedule.root]
        assume(relays)
        relay = relays[pick % len(relays)]
        feed = next(
            index for index, t in enumerate(transfers) if t.receiver == relay.sender
        )
        transfers[feed] = replace(transfers[feed], sender=relay.receiver)
    return replace(schedule, transfers=transfers)


class TestStackedBuilders:
    """One stacked build of K programs equals K single-program builds."""

    @given(inputs=stacked_bcast_inputs())
    @settings(max_examples=60, deadline=None)
    def test_grid_aware_stack_equals_per_program_builds(self, inputs):
        grid, schedules, sizes, local_tree, local_first = inputs
        stacked = grid_aware_bcast_programs(
            grid, schedules, sizes, local_tree=local_tree, local_first=local_first
        )
        assert len(stacked) == len(schedules)
        for program, schedule, size in zip(stacked, schedules, sizes):
            single = grid_aware_bcast_program(
                grid, schedule, size, local_tree=local_tree, local_first=local_first
            )
            assert _fields(program) == _fields(single)
            assert program.sends == _transcribed_bcast(
                grid, schedule, float(size), local_tree, local_first
            )
            _assert_read_only(program)

    @given(
        grid=stack_grids(),
        sizes=st.lists(stack_sizes, min_size=1, max_size=5),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_binomial_stack_equals_per_program_builds(self, grid, sizes, pick):
        root_rank = pick % grid.num_nodes
        stacked = binomial_bcast_programs(grid, sizes, root_rank=root_rank)
        assert len(stacked) == len(sizes)
        for program, size in zip(stacked, sizes):
            single = binomial_bcast_program(grid, size, root_rank=root_rank)
            assert _fields(program) == _fields(single)
            assert program.sends == _transcribed_binomial(
                grid.num_nodes, root_rank, float(size)
            )
            _assert_read_only(program)

    @given(
        inputs=stacked_bcast_inputs(),
        defect=st.sampled_from(["duplicate", "cycle"]),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_malformed_schedule_raises_the_per_program_error(
        self, inputs, defect, pick
    ):
        grid, schedules, sizes, local_tree, local_first = inputs
        bad = pick % len(schedules)
        schedules[bad] = _malformed(schedules[bad], defect, pick)
        options = dict(local_tree=local_tree, local_first=local_first)
        with pytest.raises(ValueError) as single:
            grid_aware_bcast_program(grid, schedules[bad], sizes[bad], **options)
        with pytest.raises(ValueError) as stacked:
            grid_aware_bcast_programs(grid, schedules, sizes, **options)
        assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------------------
# array-backed random grids (repro.topology.generators)
# ---------------------------------------------------------------------------

import pickle

import pytest

from repro.topology.generators import ParameterRanges, RandomGridGenerator
from repro.topology.grid import complete_links
from repro.utils.rng import RandomStream


def per_pair_reference_grid(
    ranges: ParameterRanges, cluster_size: int, num_clusters: int, seed: int
) -> Grid:
    """The historical generator: one ``stream.uniform`` call per value, every
    link a validated :class:`InterClusterLink`, built through the links-dict
    constructor."""
    stream = RandomStream(seed=seed)
    clusters = [
        Cluster(
            cluster_id=index,
            name=f"cluster{index}",
            size=cluster_size,
            fixed_broadcast_time=stream.uniform(
                ranges.broadcast_min, ranges.broadcast_max
            ),
        )
        for index in range(num_clusters)
    ]
    links = {}
    for i in range(num_clusters):
        for j in range(i + 1, num_clusters):
            links[(i, j)] = InterClusterLink.from_values(
                latency=stream.uniform(ranges.latency_min, ranges.latency_max),
                gap=stream.uniform(ranges.gap_min, ranges.gap_max),
            )
    return Grid(clusters, links, name=f"random-{num_clusters}-clusters")


range_bounds = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def range_pairs(draw) -> tuple[float, float]:
    """An ordered ``(low, high)`` pair; degenerate ``low == high`` included."""
    low = draw(range_bounds)
    high = draw(st.one_of(st.just(low), range_bounds.filter(lambda h: h >= low)))
    return low, high


@st.composite
def parameter_ranges(draw) -> ParameterRanges:
    (lat_lo, lat_hi), (gap_lo, gap_hi), (t_lo, t_hi) = (
        draw(range_pairs()) for _ in range(3)
    )
    ranges = ParameterRanges(
        latency_min=lat_lo,
        latency_max=lat_hi,
        gap_min=gap_lo,
        gap_max=gap_hi,
        broadcast_min=t_lo,
        broadcast_max=t_hi,
    )
    return ranges.scaled_broadcast(0) if draw(st.booleans()) else ranges


class TestArrayGridEquivalence:
    """The array-backed generator draws the same grid, bit for bit, as the
    per-pair generator it replaced, and every view of it agrees."""

    @given(
        ranges=parameter_ranges(),
        cluster_size=st.sampled_from([1, 2, 16]),
        num_clusters=st.integers(min_value=1, max_value=60),
        seed=seed_ints,
        size=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_array_grid_equals_per_pair_grid(
        self, ranges, cluster_size, num_clusters, seed, size, data
    ):
        grid = RandomGridGenerator(ranges, cluster_size=cluster_size).generate(
            num_clusters, RandomStream(seed=seed)
        )
        reference = per_pair_reference_grid(ranges, cluster_size, num_clusters, seed)
        restored = pickle.loads(pickle.dumps(grid))
        for candidate in (grid, restored):
            assert candidate.name == reference.name
            for got, want in zip(
                candidate.cost_matrices(size), reference.cost_matrices(size)
            ):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert candidate.broadcast_times(size) == reference.broadcast_times(size)
            assert [
                candidate.cluster(c).fixed_broadcast_time for c in range(num_clusters)
            ] == [reference.cluster(c).fixed_broadcast_time for c in range(num_clusters)]
            assert candidate.clusters == reference.clusters
            assert candidate.num_nodes == reference.num_nodes
            for i in range(num_clusters):
                assert candidate.coordinator_rank(i) == reference.coordinator_rank(i)
                for j in range(num_clusters):
                    if i != j:
                        got, want = candidate.link(i, j), reference.link(i, j)
                        assert got.latency == want.latency
                        assert got.gap(size) == want.gap(size)
            ranks = st.integers(min_value=0, max_value=reference.num_nodes - 1)
            for _ in range(4):
                a, b = data.draw(ranks), data.draw(ranks)
                assert candidate.cluster_of_rank(a) == reference.cluster_of_rank(a)
                assert candidate.node(a) == reference.node(a)
                assert candidate.node_link_parameters(
                    a, b
                ) == reference.node_link_parameters(a, b)
            if num_clusters > 1:
                # An inter-cluster pair: the coordinators of two clusters.
                a, b = (reference.coordinator_rank(c) for c in (0, num_clusters - 1))
                assert candidate.node_link_parameters(
                    a, b
                ) == reference.node_link_parameters(a, b)
            if cluster_size > 1:
                # An intra-cluster pair.
                last = reference.num_nodes - 1
                assert candidate.node_link_parameters(
                    last, last - 1
                ) == reference.node_link_parameters(last, last - 1)
            assert candidate.nodes == reference.nodes

    @given(size=st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_links_dict_matrices_match_per_pair_lookup(self, size):
        """Size-dependent (Grid'5000) and asymmetric links resolve exactly as
        the per-pair ``latency`` / ``gap`` lookups do."""
        from repro.topology.grid5000 import build_grid5000_topology

        grid5000 = build_grid5000_topology()
        links = {
            (0, 1): InterClusterLink.from_values(latency=0.01, gap=0.2),
            (1, 0): InterClusterLink.from_values(latency=0.03, gap=0.4),
            (2, 0): InterClusterLink(
                latency=0.02, gap=GapFunction.from_bandwidth(overhead=0.1, bandwidth=1e6)
            ),
            (1, 2): InterClusterLink.from_values(latency=0.05, gap=0.6),
        }
        clusters = [
            Cluster(cluster_id=index, size=2, fixed_broadcast_time=0.1)
            for index in range(3)
        ]
        for grid in (grid5000, Grid(clusters, links)):
            latency, gap = grid.cost_matrices(size)
            for i in range(grid.num_clusters):
                assert latency[i, i] == gap[i, i] == 0.0
                for j in range(grid.num_clusters):
                    if i != j:
                        assert latency[i, j] == grid.latency(i, j)
                        assert gap[i, j] == grid.gap(i, j, size)
            assert grid.broadcast_times(size) == [
                grid.cluster(c).broadcast_time(size) for c in range(grid.num_clusters)
            ]

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
    @pytest.mark.parametrize("matrix", ["latency", "gap"])
    def test_links_dict_rejects_bad_matrix_entries(self, bad, matrix):
        latencies = [[0.0, 0.01, 0.02], [0.01, 0.0, 0.03], [0.02, 0.03, 0.0]]
        gaps = [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]]
        target = latencies if matrix == "latency" else gaps
        target[0][2] = target[2][0] = bad
        clusters = [
            Cluster(cluster_id=index, size=2, fixed_broadcast_time=0.1)
            for index in range(3)
        ]
        with pytest.raises(ValueError):
            Grid(clusters, complete_links(latencies, gaps))


# ---------------------------------------------------------------------------
# batched schedules: K message sizes of one grid in one kernel call
# ---------------------------------------------------------------------------

from repro.core.base import SchedulingState
from repro.core.batch import batched_schedules
from repro.core.ecef import ECEFLookahead

#: Every registered heuristic with an exact batched kernel.
EXACT_KERNEL_HEURISTICS = (*PAPER_HEURISTICS, "mixed")


def average_lookahead_heuristics() -> list[ECEFLookahead]:
    """ECEF-LA with each average-based lookahead (ablation A1)."""
    return [
        ECEFLookahead(name, key=f"la_{name}", display_name=f"LA[{name}]")
        for name in ("average_latency", "average_informed")
    ]


#: A few round values, so that equal costs (and tied scores) are common.
tie_prone = st.sampled_from([0.01, 0.02, 0.04])


@st.composite
def sized_grids(draw, max_clusters: int = 12, count: int | None = None) -> Grid:
    """Grids of 1..max_clusters clusters (or exactly ``count``) whose gaps
    are constant or grow with the message size, with tie-prone and
    arbitrary parameters."""
    if count is None:
        count = draw(st.integers(min_value=1, max_value=max_clusters))
    clusters = [
        Cluster(
            cluster_id=index,
            size=draw(st.integers(min_value=1, max_value=3)),
            fixed_broadcast_time=draw(st.one_of(tie_prone, broadcast_times)),
        )
        for index in range(count)
    ]
    links = {}
    for i in range(count):
        for j in range(i + 1, count):
            latency = draw(st.one_of(tie_prone, latencies))
            if draw(st.booleans()):
                gap = GapFunction.from_bandwidth(
                    overhead=draw(st.one_of(tie_prone, gaps)),
                    bandwidth=draw(st.sampled_from([1e6, 1e7, 1.25e8])),
                )
                links[(i, j)] = InterClusterLink(latency=latency, gap=gap)
            else:
                gap = draw(st.one_of(tie_prone, gaps))
                links[(i, j)] = InterClusterLink.from_values(latency=latency, gap=gap)
    return Grid(clusters, links)


def schedule_fields(schedule) -> tuple:
    """Every field of a schedule, asserting each is a plain Python value."""
    transfers = [
        (t.sender, t.receiver, t.start_time, t.sender_release_time,
         t.arrival_time, t.gap, t.latency)
        for t in schedule.transfers
    ]
    for sender, receiver, *times in transfers:
        assert type(sender) is int and type(receiver) is int
        assert all(type(value) is float for value in times)
    vectors = (
        schedule.arrival_times, schedule.local_start_times, schedule.completion_times
    )
    assert all(type(value) is float for vector in vectors for value in vector)
    return (
        schedule.root,
        schedule.num_clusters,
        float(schedule.message_size),
        schedule.heuristic_name,
        transfers,
        *vectors,
    )


class TestBatchedScheduleEquivalence:
    """For ALL grids, message-size lists and roots, one batched kernel call
    yields exactly the schedules the per-grid engine builds one size at a
    time — and exactly what timing their orders gives."""

    @given(
        grid=sized_grids(),
        sizes=st.lists(
            st.one_of(st.sampled_from([0, 65_536, 1_048_576]), message_sizes),
            min_size=1,
            max_size=5,
        ),
        heuristic=st.one_of(
            st.sampled_from(EXACT_KERNEL_HEURISTICS).map(get_heuristic),
            st.sampled_from(average_lookahead_heuristics()),
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_schedules_equal_per_grid_schedules(
        self, grid, sizes, heuristic, data
    ):
        root = data.draw(st.integers(min_value=0, max_value=grid.num_clusters - 1))
        caches = [GridCostCache.for_grid(grid, size) for size in sizes]
        batched = batched_schedules(heuristic, BatchedGridCosts(caches), root=root)
        assert batched is not None, f"{heuristic.name} lost its exact batched kernel"
        assert len(batched) == len(sizes)
        for size, costs, schedule in zip(sizes, caches, batched):
            reference = heuristic.schedule(grid, size, root=root, costs=costs)
            assert schedule_fields(schedule) == schedule_fields(reference)
            assert type(schedule.message_size) is float
            assert schedule == evaluate_order(
                grid, size, root, schedule.order, heuristic_name=heuristic.name
            )

    def test_single_cluster_grid_has_no_transfers(self):
        grid = Grid([Cluster(cluster_id=0, size=3, fixed_broadcast_time=0.2)], {})
        caches = [GridCostCache.for_grid(grid, size) for size in (0, 1_024)]
        for key in EXACT_KERNEL_HEURISTICS:
            heuristic = get_heuristic(key)
            schedules = batched_schedules(heuristic, BatchedGridCosts(caches))
            assert [schedule.transfers for schedule in schedules] == [[], []]
            for schedule, costs in zip(schedules, caches):
                reference = heuristic.schedule(grid, costs.message_size, costs=costs)
                assert schedule_fields(schedule) == schedule_fields(reference)

    def test_heuristics_without_an_exact_kernel_are_declined(self):
        from repro.core.optimal import OptimalSearch

        grid = RandomGridGenerator().generate(5, RandomStream(seed=11))
        stack = BatchedGridCosts([GridCostCache.for_grid(grid, 1_048_576)])
        declined = [OptimalSearch(), ECEFLookahead(lambda state, candidate: 0.0)]
        for heuristic in declined:
            assert batched_schedules(heuristic, stack) is None

    def test_caches_of_another_grid_are_rejected_like_the_per_grid_state(self):
        generator = RandomGridGenerator()
        grid, other = (
            generator.generate(4, RandomStream(seed=seed)) for seed in (1, 2)
        )
        foreign = GridCostCache.for_grid(other, 1_024)
        with pytest.raises(ValueError) as per_grid:
            SchedulingState(grid=grid, message_size=1_024, root=0, costs=foreign)
        stack = BatchedGridCosts([GridCostCache.for_grid(grid, 0), foreign])
        with pytest.raises(ValueError) as batched:
            batched_schedules(get_heuristic("ecef"), stack)
        assert str(batched.value) == str(per_grid.value)


# ---------------------------------------------------------------------------
# the line-up kernel: H heuristics x K problems in one lockstep pass
# ---------------------------------------------------------------------------

from repro.core.batch import schedule_lineup
from repro.core.bottomup import BottomUp
from repro.core.fef import FastestEdgeFirst
from repro.core.flat_tree import FlatTreeHeuristic


def kernel_heuristics(order: list[int]) -> list:
    """One of every heuristic with kernel rows, ablation variants included;
    ``order`` is the Flat Tree's visit order."""
    return [
        *(get_heuristic(key) for key in EXACT_KERNEL_HEURISTICS),
        FastestEdgeFirst(weight="transfer_time"),
        BottomUp(use_ready_time=True),
        FlatTreeHeuristic(cluster_order=order),
        *average_lookahead_heuristics(),
    ]


class TestLineupKernel:
    """For ALL stacks of same-sized grids (each at its own message size),
    roots and line-ups (any order, duplicates included), every row of one
    line-up pass equals the per-grid engine on its own problem bit for bit."""

    @given(
        grid=sized_grids(),
        problems=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_row_equals_the_per_grid_engine(self, grid, problems, data):
        n = grid.num_clusters
        grids = [grid] + [
            data.draw(sized_grids(count=n)) for _ in range(problems - 1)
        ]
        sizes = data.draw(
            st.lists(
                st.one_of(st.sampled_from([0, 65_536, 1_048_576]), message_sizes),
                min_size=problems,
                max_size=problems,
            )
        )
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        order = data.draw(st.permutations(range(n)))
        pool = kernel_heuristics(order)
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=1,
                max_size=8,
            )
        )
        lineup = [pool[pick] for pick in picks]
        caches = [GridCostCache.for_grid(g, size) for g, size in zip(grids, sizes)]
        stack = BatchedGridCosts(caches)
        makespans = schedule_lineup(lineup, stack, root=root)
        schedules = schedule_lineup(lineup, stack, root=root, record=True)
        for heuristic, row, recorded in zip(lineup, makespans, schedules):
            assert row is not None and recorded is not None, heuristic.name
            references = [
                heuristic.schedule(g, size, root=root, costs=costs)
                for g, size, costs in zip(grids, sizes, caches)
            ]
            assert row.tolist() == [ref.makespan for ref in references], heuristic.name
            for schedule, reference in zip(recorded, references):
                assert schedule_fields(schedule) == schedule_fields(reference)

    @pytest.mark.parametrize("seed", [0, 7, 42, 2024])
    @pytest.mark.parametrize("num_clusters", [2, 5, 9])
    def test_average_lookahead_rows_on_fixed_seeds(self, seed, num_clusters):
        """A deterministic seed set that every run checks: the average
        lookaheads' rows, at either end of a line-up, equal the per-grid
        engine bit for bit, and recording keeps them field for field."""
        generator = RandomGridGenerator()
        grids = [
            generator.generate(num_clusters, RandomStream(seed=seed + offset))
            for offset in range(3)
        ]
        caches = [GridCostCache.for_grid(g, 1_048_576) for g in grids]
        latency, informed = average_lookahead_heuristics()
        order = list(range(num_clusters))
        lineup = [latency, *kernel_heuristics(order), informed]
        stack = BatchedGridCosts(caches)
        makespans = schedule_lineup(lineup, stack, root=1)
        recorded = schedule_lineup(lineup, stack, root=1, record=True)
        for heuristic, row, schedules in zip(lineup, makespans, recorded):
            assert schedules is not None, heuristic.name
            references = [
                heuristic.schedule(g, 1_048_576, root=1, costs=costs)
                for g, costs in zip(grids, caches)
            ]
            assert row.tolist() == [ref.makespan for ref in references], heuristic.name
            for schedule, reference in zip(schedules, references):
                assert schedule_fields(schedule) == schedule_fields(reference)

    def test_rounded_row_tie_goes_to_the_first_receiver(self):
        """After the root's first send RT_0 = 1.0, and 1.0 + T_02 rounds to
        the same 2.5 as 1.0 + T_03 although T_03 < T_02: the first pending
        column of the row must win, as in the scalar loops."""
        ulp = 2.0**-52
        clusters = [
            Cluster(cluster_id=index, size=1, fixed_broadcast_time=0.01)
            for index in range(4)
        ]
        links = {
            (0, 1): InterClusterLink.from_values(latency=0.25, gap=1.0),
            (0, 2): InterClusterLink.from_values(latency=0.5, gap=1.0 + ulp),
            (0, 3): InterClusterLink.from_values(latency=0.5, gap=1.0),
            (1, 2): InterClusterLink.from_values(latency=5.0, gap=5.0),
            (1, 3): InterClusterLink.from_values(latency=5.0, gap=5.0),
            (2, 3): InterClusterLink.from_values(latency=5.0, gap=5.0),
        }
        grid = Grid(clusters, links)
        costs = GridCostCache.for_grid(grid, 1_024)
        assert costs.transfer[0, 3] < costs.transfer[0, 2]
        assert 1.0 + costs.transfer[0, 2] == 1.0 + costs.transfer[0, 3]
        lineup = kernel_heuristics([0, 1, 2, 3])
        recorded = schedule_lineup(lineup, BatchedGridCosts([costs]), record=True)
        assert recorded[PAPER_HEURISTICS.index("ecef")][0].order[:2] == [(0, 1), (0, 2)]
        for heuristic, (schedule,) in zip(lineup, recorded):
            reference = heuristic.schedule(grid, 1_024, vectorized=False)
            assert schedule.order == reference.order, heuristic.name


# ---------------------------------------------------------------------------
# stacked relaxation (simulator/batch.py) vs the scalar event-queue engine
# ---------------------------------------------------------------------------

from repro.mpi.alltoall import direct_alltoall_program, grid_aware_alltoall_program
from repro.mpi.scatter import flat_scatter_program, grid_aware_scatter_program
from repro.simulator.batch import execute_makespans

PROGRAM_KINDS = (
    "grid_aware",
    "binomial",
    "flat_scatter",
    "grid_scatter",
    "direct_alltoall",
    "grid_alltoall",
    "gossip",
    "arbitrary",
)


@st.composite
def simulator_grids(draw) -> Grid:
    """Table 2 random grids, heterogeneous grids and tie-prone grids whose
    gaps and latencies may be zero or repeat across links."""
    kind = draw(st.sampled_from(["random", "heterogeneous", "tie_prone"]))
    if kind == "random":
        return RandomGridGenerator(
            cluster_size=draw(st.integers(min_value=1, max_value=5))
        ).generate(
            draw(st.integers(min_value=1, max_value=5)),
            RandomStream(seed=draw(st.integers(min_value=0, max_value=2**32 - 1))),
        )
    if kind == "heterogeneous":
        return draw(grids(max_clusters=5))
    return draw(sized_grids(max_clusters=5))


@st.composite
def simulator_programs(draw, grid: Grid) -> CommunicationProgram:
    """Any program a builder of the repo emits on ``grid``, or an arbitrary
    multi-receive program over a prefix of its ranks."""
    kind = draw(st.sampled_from(PROGRAM_KINDS))
    size = draw(st.sampled_from([0.0, 1.0, 4_096.0, 1_048_576.0]))
    root_cluster = draw(st.integers(min_value=0, max_value=grid.num_clusters - 1))
    root_rank = grid.coordinator_rank(root_cluster)
    n = grid.num_nodes
    if kind == "grid_aware":
        schedule = get_heuristic(draw(st.sampled_from(PAPER_HEURISTICS))).schedule(
            grid, size, root=root_cluster
        )
        return grid_aware_bcast_program(
            grid,
            schedule,
            size,
            local_tree=draw(st.sampled_from(sorted(TREE_BUILDERS))),
            local_first=draw(st.booleans()),
        )
    if kind == "binomial":
        return binomial_bcast_program(grid, size, root_rank=root_rank)
    if kind == "flat_scatter":
        return flat_scatter_program(grid, size, root_rank=root_rank)
    if kind == "grid_scatter":
        heuristic = get_heuristic(draw(st.sampled_from(PAPER_HEURISTICS)))
        return grid_aware_scatter_program(
            grid, size, heuristic=heuristic, root_cluster=root_cluster
        )[0]
    if kind == "direct_alltoall":
        return direct_alltoall_program(grid, size)
    if kind == "grid_alltoall":
        return grid_aware_alltoall_program(grid, size)
    if kind == "gossip" and n >= 2:
        spec = GossipSpec(
            protocol=draw(st.sampled_from(GOSSIP_PROTOCOLS)),
            num_nodes=n,
            fanout=draw(st.integers(min_value=1, max_value=min(3, n - 1))),
            root=root_rank,
            seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        )
        return gossip_program(spec, size)
    # Arbitrary: repeated receivers, unreachable senders, messages to roots.
    ranks = draw(st.integers(min_value=1, max_value=n))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=ranks - 1),
                st.integers(min_value=1, max_value=max(1, ranks - 1)),
            ),
            max_size=0 if ranks == 1 else 3 * ranks,
        )
    )
    senders = np.array([sender for sender, _ in pairs], dtype=np.int64)
    dest = np.array([(sender + step) % ranks for sender, step in pairs], dtype=np.int64)
    return CommunicationProgram.from_arrays(
        ranks,
        draw(st.integers(min_value=0, max_value=ranks - 1)),
        senders,
        dest,
        np.array(
            [draw(st.sampled_from([0.0, 1.0, 65_536.0])) for _ in pairs], dtype=float
        ),
        np.array([draw(st.integers(0, 1)) for _ in pairs], dtype=np.int64),
        ("a", "b"),
        name="arbitrary",
    )


@st.composite
def simulator_batches(draw):
    """Several tasks on one grid: overlays, warm chains, noise and traces."""
    grid = draw(simulator_grids())
    tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        program = draw(simulator_programs(grid))
        chained = index > 0 and draw(st.booleans())
        tasks.append(
            ExecutionTask(
                program,
                initially_active=tuple(
                    draw(
                        st.lists(
                            st.integers(0, program.num_ranks - 1),
                            max_size=2,
                            unique=True,
                        )
                    )
                ),
                noise_seed=None
                if chained
                else draw(st.one_of(st.none(), st.integers(0, 2**31 - 1))),
                reset_network=not chained,
            )
        )
    config = NetworkConfig(
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.5])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        receive_overhead=draw(st.sampled_from([0.0, 0.25])),
    )
    return grid, tasks, config, draw(st.booleans())


def _nic_probe(num_ranks: int) -> CommunicationProgram:
    """Every rank active at time zero sends one empty message, so each
    message's start time is its sender's carried NIC availability."""
    ranks = np.arange(num_ranks)
    return CommunicationProgram.from_arrays(
        num_ranks,
        0,
        ranks,
        (ranks + 1) % num_ranks,
        0.0,
        0,
        ("probe",),
        name="nic-probe",
        initially_active=range(num_ranks),
    )


class TestStackedRelaxationEquivalence:
    """The stacked frontier relaxation against the scalar event-queue
    engine, field by field, with noise keyed by message in both."""

    @given(batch=simulator_batches())
    @settings(max_examples=150, deadline=None)
    def test_stacked_relaxation_equals_the_scalar_engine(self, batch):
        grid, tasks, config, traces = batch
        stacked = execute_programs(
            grid, tasks, config=config, collect_traces=traces, workers=0
        )
        scalar = execute_programs(
            grid, tasks, config=config, collect_traces=traces, engine="scalar",
            workers=0,
        )
        assert len(stacked) == len(scalar) == len(tasks)
        for fast, reference in zip(stacked, scalar):
            assert fast.program_name == reference.program_name
            assert fast.makespan == reference.makespan
            assert fast.activation_times == reference.activation_times
            assert fast.completion_times == reference.completion_times
            assert fast.trace == reference.trace

    @given(batch=simulator_batches())
    @settings(max_examples=60, deadline=None)
    def test_nic_row_carries_over_a_chain(self, batch):
        """A chained probe reads every rank's NIC availability after the
        batch's last chain: the stacked engine carries the row exactly as
        the scalar network leaves it."""
        grid, tasks, config, _ = batch
        assume(grid.num_nodes >= 2)
        probe = ExecutionTask(_nic_probe(grid.num_nodes), reset_network=False)
        stacked = execute_programs(grid, [*tasks, probe], config=config, workers=0)
        head = max(index for index, task in enumerate(tasks) if task.reset_network)
        network = SimulatedNetwork(
            grid,
            NetworkConfig(
                noise_sigma=config.noise_sigma,
                seed=tasks[head].noise_seed
                if tasks[head].noise_seed is not None
                else config.seed,
                receive_overhead=config.receive_overhead,
            ),
        )
        for task in tasks[head:]:
            execute_program(
                network,
                task.program,
                initially_active=task.initially_active,
                reset_network=task.reset_network,
            )
        carried = {record.source: record.start_time for record in stacked[-1].trace}
        assert carried == {
            rank: network.nic_free_at(rank) for rank in range(grid.num_nodes)
        }

    @given(batch=simulator_batches(), engine=st.sampled_from(["batched", "scalar"]))
    @settings(max_examples=120, deadline=None)
    def test_makespan_reader_equals_the_results_bitwise(self, batch, engine):
        """The per-task makespan reader of a stacked run against the
        ``makespan`` of the results the same run builds, bit for bit."""
        grid, tasks, config, _ = batch
        makespans = execute_makespans(
            grid, tasks, config=config, workers=0, engine=engine
        )
        reference = execute_programs(
            grid, tasks, config=config, collect_traces=False, workers=0,
            engine=engine,
        )
        assert makespans.dtype == np.float64 and makespans.shape == (len(tasks),)
        assert makespans.tobytes() == np.array(
            [result.makespan for result in reference], dtype=np.float64
        ).tobytes()
