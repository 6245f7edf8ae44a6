"""Command-line interface.

``repro-bcast`` exposes the main entry points of the library from a shell:

* ``repro-bcast schedule`` — schedule a broadcast on the Table 3 GRID5000
  grid (or a random grid) with a chosen heuristic and print the schedule;
* ``repro-bcast compare`` — compare all paper heuristics on one grid;
* ``repro-bcast simulate`` — run a (small) Monte-Carlo study and print the
  Figure 1/2-style table;
* ``repro-bcast practical`` — run the Figure 5/6 predicted-vs-measured study
  (optionally with noise replicas and a worker fan-out);
* ``repro-bcast chain`` — measure a warm-network pipeline of back-to-back
  collectives against its barrier-separated baseline;
* ``repro-bcast gossip`` — run the tree-vs-gossip dissemination study
  (rounds, delivery fraction, traffic, pLogP-timed delivery) over the
  vectorized epidemic round engine, with optional churn and noise;
* ``repro-bcast worker serve`` — run a distributed-lane worker agent that
  executes study chunks shipped by a coordinator running with
  ``--executor remote`` (see ``--hosts`` / ``REPRO_HOSTS``);
* ``repro-bcast service serve`` / ``service query`` —
  broadcast-scheduling-as-a-service: a long-running schedule daemon
  answering (topology, size, heuristic) queries out of an LRU schedule
  cache with frequency admission, and the matching client (``query``
  prints the same summary the ``schedule`` subcommand prints, byte for
  byte).

Worker counts default to the ``REPRO_WORKERS`` environment variable; the
fan-out lane defaults to ``REPRO_EXECUTOR`` (see ``--executor``: processes
ship through the study runtime — shared memory when available — and auto
keeps small batches inline).

Every option's help string states its effective default; ``tests/test_cli.py``
asserts help text and parser defaults stay in sync.

The CLI is intentionally a thin shell over :mod:`repro.experiments`; anything
serious should use the Python API.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.core.registry import PAPER_HEURISTICS, available_heuristics, get_heuristic
from repro.experiments.chained_study import CHAIN_COLLECTIVES, run_chained_study
from repro.experiments.config import (
    PracticalStudyConfig,
    SimulationStudyConfig,
)
from repro.experiments.practical_study import (
    BINOMIAL_BASELINE_NAME,
    run_alltoall_study,
    run_practical_study,
    run_scatter_study,
)
from repro.experiments.gossip_study import GossipStudyConfig, run_gossip_study
from repro.experiments.report import render_series_table, render_table
from repro.experiments.simulation_study import run_simulation_study
from repro.gossip.spec import GOSSIP_PROTOCOLS, ChurnSpec
from repro.runtime.chunking import EXECUTORS
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream


def _add_executor_option(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="worker fan-out lane: processes get their tasks shipped, remote "
        "ships chunks to the worker agents of --hosts; auto runs small "
        "batches inline and the rest on processes (default: REPRO_EXECUTOR, "
        "then auto)",
    )
    sub_parser.add_argument(
        "--hosts",
        default=None,
        help="comma-separated worker-agent addresses host:port for "
        "--executor remote; exported as REPRO_HOSTS for this run (default: "
        "REPRO_HOSTS, then agents auto-spawned as loopback subprocesses)",
    )
    sub_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="seconds allowed for each worker-agent connect/handshake under "
        "--executor remote (default: REPRO_CONNECT_TIMEOUT, then 30.0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bcast",
        description="Grid-aware broadcast scheduling heuristics (IPPS 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule", help="schedule one broadcast and print it")
    schedule.add_argument(
        "--heuristic",
        default="ecef_la",
        choices=available_heuristics(),
        help="scheduling heuristic to run (default: ecef_la)",
    )
    schedule.add_argument(
        "--message-size",
        type=int,
        default=1_048_576,
        help="broadcast payload in bytes (default: 1048576, the paper's 1 MB)",
    )
    schedule.add_argument(
        "--root", type=int, default=0, help="root cluster id (default: 0)"
    )
    schedule.add_argument(
        "--clusters",
        type=int,
        default=0,
        help="use a random grid with this many clusters instead of the "
        "Table 3 grid (default: 0 = Table 3 GRID5000)",
    )
    schedule.add_argument(
        "--seed",
        type=int,
        default=1,
        help="random-grid generator seed (default: 1)",
    )

    compare = sub.add_parser("compare", help="compare all paper heuristics on one grid")
    compare.add_argument(
        "--message-size",
        type=int,
        default=1_048_576,
        help="broadcast payload in bytes (default: 1048576)",
    )
    compare.add_argument(
        "--root", type=int, default=0, help="root cluster id (default: 0)"
    )
    compare.add_argument(
        "--clusters",
        type=int,
        default=0,
        help="random-grid cluster count (default: 0 = Table 3 GRID5000)",
    )
    compare.add_argument(
        "--seed",
        type=int,
        default=1,
        help="random-grid generator seed (default: 1)",
    )

    simulate = sub.add_parser("simulate", help="run a Monte-Carlo study (Figures 1/2)")
    simulate.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="random grids per cluster count (default: 200; the paper used "
        "10000)",
    )
    simulate.add_argument(
        "--min-clusters",
        type=int,
        default=2,
        help="smallest swept cluster count (default: 2)",
    )
    simulate.add_argument(
        "--max-clusters",
        type=int,
        default=10,
        help="largest swept cluster count (default: 10)",
    )
    simulate.add_argument(
        "--step", type=int, default=1, help="cluster-count stride (default: 1)"
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=20060331,
        help="study seed (default: 20060331)",
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the Monte-Carlo chunks out over this many workers "
        "(default: REPRO_WORKERS, then in-process)",
    )
    _add_executor_option(simulate)

    practical = sub.add_parser(
        "practical", help="run the predicted-vs-measured study (Figures 5/6)"
    )
    practical.add_argument(
        "--max-size",
        type=int,
        default=4_718_592,
        help="largest message size in bytes (default: 4718592, Figure 5/6's "
        "4.5 MB)",
    )
    practical.add_argument(
        "--points",
        type=int,
        default=10,
        help="number of swept sizes from 0 to --max-size (default: 10)",
    )
    practical.add_argument(
        "--noise",
        type=float,
        default=0.03,
        help="log-normal noise sigma of the measured sweep (default: 0.03)",
    )
    practical.add_argument(
        "--collective",
        choices=("bcast", "scatter", "alltoall"),
        default="bcast",
        help="collective pattern to study; scatter/alltoall measure the "
        "grid-aware strategy against its flat/direct baseline "
        "(default: bcast)",
    )
    practical.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the measured sweep out over this many workers "
        "(default: REPRO_WORKERS, then in-process); the sweep is built "
        "first, then measured in one batch",
    )
    _add_executor_option(practical)
    practical.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent noisy measurements per curve point; the measured "
        "table reports the replica mean (bcast study only; default: 1)",
    )

    chain = sub.add_parser(
        "chain",
        help="measure a warm-network pipeline of back-to-back collectives "
        "against its barrier-separated baseline",
    )
    chain.add_argument(
        "--collectives",
        default="scatter,alltoall",
        help="comma-separated pipeline stages "
        f"(choices: {', '.join(CHAIN_COLLECTIVES)}; "
        "default: scatter,alltoall)",
    )
    chain.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="repeat the stage sequence N times (default: 1)",
    )
    chain.add_argument(
        "--max-size",
        type=int,
        default=262_144,
        help="largest per-stage payload/chunk size in bytes (default: 262144)",
    )
    chain.add_argument(
        "--points",
        type=int,
        default=4,
        help="number of swept sizes up to --max-size (default: 4)",
    )
    chain.add_argument(
        "--noise",
        type=float,
        default=0.03,
        help="log-normal noise sigma (default: 0.03)",
    )
    chain.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan sizes out over this many workers; chains are never split "
        "(default: REPRO_WORKERS, then in-process)",
    )
    _add_executor_option(chain)

    gossip = sub.add_parser(
        "gossip",
        help="run the tree-vs-gossip dissemination study over the vectorized "
        "epidemic round engine",
    )
    gossip.add_argument(
        "--protocols",
        default="tree,push,pushpull,epto",
        help="comma-separated protocols to compare "
        f"(choices: {', '.join(GOSSIP_PROTOCOLS)}; "
        "default: tree,push,pushpull,epto)",
    )
    gossip.add_argument(
        "--nodes",
        default="1000,10000",
        help="comma-separated network sizes to sweep (default: 1000,10000)",
    )
    gossip.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="peers each informed node pushes to per round (default: 2)",
    )
    gossip.add_argument(
        "--ttl",
        type=int,
        default=0,
        help="rounds an epto node relays after infection "
        "(default: 0 = auto, ceil(log2 n) + 2)",
    )
    gossip.add_argument(
        "--rounds",
        type=int,
        default=64,
        help="hard cap on executed rounds; every protocol stops earlier once "
        "no further infection is possible (default: 64)",
    )
    gossip.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="fraction of nodes that leave at a seeded random round "
        "(default: 0.0, no churn)",
    )
    gossip.add_argument(
        "--join",
        type=float,
        default=0.0,
        help="fraction of nodes that join late at a seeded random round "
        "(default: 0.0, all present from round 0)",
    )
    gossip.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="log-normal sigma of the per-round duration jitter "
        "(default: 0.0, noise-free pLogP timing)",
    )
    gossip.add_argument(
        "--message-size",
        type=int,
        default=1024,
        help="gossip payload in bytes, for the timing model (default: 1024)",
    )
    gossip.add_argument(
        "--seed",
        type=int,
        default=20060331,
        help="study seed; every (protocol, size) cell derives its own child "
        "seed (default: 20060331)",
    )
    gossip.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the study cells out over this many workers "
        "(default: REPRO_WORKERS, then in-process)",
    )
    _add_executor_option(gossip)

    worker = sub.add_parser(
        "worker",
        help="distributed-lane worker agents (serve studies shipped by a "
        "coordinator running with --executor remote)",
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    serve = worker_sub.add_parser(
        "serve",
        help="run one agent in the foreground: listen for a coordinator and "
        "execute its study chunks on a local worker pool",
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on; port 0 lets the OS pick — the bound "
        "address is announced on stdout (default: 127.0.0.1:0)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local worker processes this agent fronts (default: 1 — "
        "execute chunks in the agent process itself)",
    )
    serve.add_argument(
        "--slowdown",
        type=float,
        default=1.0,
        help="stretch every job's execution by this factor to emulate a "
        "slower box — a benchmarking/testing device for skewed fleets "
        "(default: 1.0, full speed)",
    )
    serve.add_argument(
        "--exit-with-parent",
        action="store_true",
        help="exit when the process that spawned this agent dies — loopback "
        "pools pass this so killed coordinators leave no orphans "
        "(default: False)",
    )
    serve.add_argument(
        "--max-coordinators",
        type=int,
        default=2,
        help="concurrent coordinator connections served before new ones are "
        "bounced with a clean BUSY hello (default: 2)",
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=0,
        help="bound on job frames accepted but not yet answered, across all "
        "coordinators; frames beyond it are bounced BUSY for the "
        "coordinator to back off and retry (default: 0 = unbounded)",
    )

    service = sub.add_parser(
        "service",
        help="broadcast-scheduling-as-a-service: a schedule daemon answering "
        "(topology, size, heuristic) queries out of an LRU schedule cache "
        "with frequency admission",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)
    service_serve = service_sub.add_parser(
        "serve",
        help="run the schedule daemon in the foreground: listen for query "
        "frames and answer them with timed broadcast schedules",
    )
    service_serve.add_argument(
        "--bind",
        default="127.0.0.1:7030",
        help="HOST:PORT to listen on; port 0 lets the OS pick — the bound "
        "address is announced on stdout (default: 127.0.0.1:7030)",
    )
    service_serve.add_argument(
        "--max-clients",
        type=int,
        default=8,
        help="concurrent client connections served before new ones are "
        "bounced with a clean BUSY hello (default: 8)",
    )
    service_serve.add_argument(
        "--queue",
        type=int,
        default=0,
        help="bound on queries admitted but not yet answered, across all "
        "clients; queries beyond it are bounced BUSY for the client to "
        "back off and retry (default: 0 = unbounded)",
    )
    service_serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="bound on cached schedules (and cached topologies), evicted "
        "least-recently-used; a full schedule cache admits a new schedule "
        "only if it was queried more often than the one it would evict "
        "(default: 1024)",
    )
    service_query = service_sub.add_parser(
        "query",
        help="ask a running schedule daemon for one schedule and print it "
        "(byte-identical to the `schedule` subcommand's output)",
    )
    service_query.add_argument(
        "--host",
        default="127.0.0.1:7030",
        help="HOST:PORT of the running daemon (default: 127.0.0.1:7030)",
    )
    service_query.add_argument(
        "--heuristic",
        default="ecef_la",
        choices=available_heuristics(),
        help="scheduling heuristic to ask for (default: ecef_la)",
    )
    service_query.add_argument(
        "--message-size",
        type=int,
        default=1_048_576,
        help="broadcast payload in bytes (default: 1048576, the paper's 1 MB)",
    )
    service_query.add_argument(
        "--root", type=int, default=0, help="root cluster id (default: 0)"
    )
    service_query.add_argument(
        "--clusters",
        type=int,
        default=0,
        help="query a random grid with this many clusters instead of the "
        "Table 3 grid (default: 0 = Table 3 GRID5000)",
    )
    service_query.add_argument(
        "--seed",
        type=int,
        default=1,
        help="random-grid generator seed (default: 1)",
    )
    service_query.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds allowed for connect and for each reply (default: 30.0)",
    )
    service_query.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's cache statistics instead of querying "
        "(default: False)",
    )

    return parser


def _make_grid(clusters: int, seed: int):
    if clusters <= 0:
        return build_grid5000_topology()
    generator = RandomGridGenerator()
    return generator.generate(clusters, RandomStream(seed=seed))


def _cmd_schedule(args: argparse.Namespace) -> int:
    grid = _make_grid(args.clusters, args.seed)
    heuristic = get_heuristic(args.heuristic)
    schedule = heuristic.schedule(grid, args.message_size, root=args.root)
    print(schedule.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    grid = _make_grid(args.clusters, args.seed)
    print(f"grid: {grid.name}  ({grid.num_clusters} clusters, {grid.num_nodes} nodes)")
    print(f"message size: {args.message_size} bytes, root cluster: {args.root}")
    print()
    header = f"{'heuristic':<12}  {'makespan (ms)':>14}  {'inter-cluster (ms)':>19}"
    print(header)
    print("-" * len(header))
    for key in PAPER_HEURISTICS:
        heuristic = get_heuristic(key)
        schedule = heuristic.schedule(grid, args.message_size, root=args.root)
        print(
            f"{heuristic.name:<12}  {schedule.makespan * 1e3:>14.3f}  "
            f"{schedule.inter_cluster_makespan * 1e3:>19.3f}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    counts = tuple(range(args.min_clusters, args.max_clusters + 1, args.step))
    config = SimulationStudyConfig(
        cluster_counts=counts, iterations=args.iterations, seed=args.seed
    )
    result = run_simulation_study(config, workers=args.workers, executor=args.executor)
    series = {
        name: result.series(name) for name in result.heuristic_names
    }
    print(
        render_series_table(
            "clusters",
            result.cluster_counts,
            series,
            title=f"Mean completion time (s) over {args.iterations} iterations, 1 MB broadcast",
        )
    )
    return 0


def _cmd_practical(args: argparse.Namespace) -> int:
    sizes = tuple(
        int(round(index * args.max_size / max(args.points - 1, 1)))
        for index in range(args.points)
    )
    config = PracticalStudyConfig(message_sizes=sizes, noise_sigma=args.noise)
    if args.collective == "scatter":
        result = run_scatter_study(
            config, workers=args.workers, executor=args.executor
        )
        print(
            render_table(
                result.as_table(), title="Measured scatter completion time (s)"
            )
        )
        return 0
    if args.collective == "alltoall":
        result = run_alltoall_study(
            config, workers=args.workers, executor=args.executor
        )
        print(
            render_table(
                result.as_table(), title="Measured all-to-all completion time (s)"
            )
        )
        return 0
    result = run_practical_study(
        config,
        workers=args.workers,
        executor=args.executor,
        replicas=args.replicas,
    )
    print(render_table(result.as_table(which="predicted"), title="Predicted completion time (s)"))
    print()
    measured_title = "Measured completion time (s)"
    if result.num_replicas > 1:
        measured_title += f" (mean of {result.num_replicas} replicas)"
    print(render_table(result.as_table(which="measured"), title=measured_title))
    if result.baseline_measured is not None:
        print()
        print(f"(the '{BINOMIAL_BASELINE_NAME}' column is the grid-unaware binomial tree)")
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    stages = tuple(
        stage.strip() for stage in args.collectives.split(",") if stage.strip()
    )
    sizes = tuple(
        int(round((index + 1) * args.max_size / max(args.points, 1)))
        for index in range(args.points)
    )
    config = PracticalStudyConfig(message_sizes=sizes, noise_sigma=args.noise)
    result = run_chained_study(
        config,
        stages=stages,
        repeat=args.repeat,
        workers=args.workers,
        executor=args.executor,
    )
    title = (
        "Warm-chained pipeline vs barrier baseline (s): "
        + " -> ".join(result.stage_names)
    )
    print(render_table(result.as_table(), title=title))
    print()
    print(
        "(pipelined = all stages issued back-to-back on one warm network; "
        "barrier = sum of fresh-network stage times)"
    )
    return 0


def _cmd_gossip(args: argparse.Namespace) -> int:
    protocols = tuple(
        name.strip() for name in args.protocols.split(",") if name.strip()
    )
    node_counts = tuple(
        int(value) for value in args.nodes.split(",") if value.strip()
    )
    churn = (
        ChurnSpec(leave_fraction=args.churn, join_fraction=args.join)
        if args.churn > 0.0 or args.join > 0.0
        else None
    )
    config = GossipStudyConfig(
        protocols=protocols,
        node_counts=node_counts,
        fanout=args.fanout,
        ttl=args.ttl,
        rounds=args.rounds,
        churn=churn,
        noise_sigma=args.noise,
        message_size=float(args.message_size),
        seed=args.seed,
    )
    result = run_gossip_study(config, workers=args.workers, executor=args.executor)
    tables = (
        ("Rounds to delivery", result.metric("rounds_to_delivery")),
        ("Delivery fraction", result.delivery_fractions()),
        ("Messages per node", result.messages_per_node()),
        ("Delivery time (s)", result.metric("delivery_time")),
    )
    for index, (title, plane) in enumerate(tables):
        if index:
            print()
        series = {
            protocol: plane[p_index].tolist()
            for p_index, protocol in enumerate(protocols)
        }
        print(
            render_series_table(
                "nodes", list(node_counts), series, title=title, precision=4
            )
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runtime.remote import serve_agent

    serve_agent(
        args.bind,
        args.workers,
        slowdown=args.slowdown,
        exit_with_parent=args.exit_with_parent,
        max_coordinators=args.max_coordinators,
        queue=args.queue,
    )
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    if args.service_command == "serve":
        from repro.runtime.service import serve_service

        serve_service(
            args.bind,
            max_clients=args.max_clients,
            queue=args.queue,
            cache_size=args.cache_size,
        )
        return 0
    from repro.runtime.service import ScheduleClient

    with ScheduleClient(args.host, timeout=args.timeout) as client:
        if args.stats:
            for key, value in sorted(client.stats().items()):
                print(f"{key}: {value}")
            return 0
        if args.clusters <= 0:
            topology = {"kind": "grid5000"}
        else:
            topology = {"kind": "random", "clusters": args.clusters, "seed": args.seed}
        reply = client.query(
            topology, args.message_size, args.heuristic, root=args.root
        )
        # The same summary() the `schedule` subcommand prints — byte-for-byte
        # diffable against the inline path (the CI service-smoke contract).
        print(reply.schedule().summary())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also installed as the ``repro-bcast`` script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The remote-lane flags reach the lane as their env fallbacks rather
    # than as parameters threaded through every study signature.
    if getattr(args, "hosts", None) is not None:
        from repro.runtime.remote import HOSTS_ENV_VAR

        os.environ[HOSTS_ENV_VAR] = args.hosts
    if getattr(args, "connect_timeout", None) is not None:
        from repro.runtime.remote import CONNECT_TIMEOUT_ENV_VAR

        os.environ[CONNECT_TIMEOUT_ENV_VAR] = str(args.connect_timeout)
    handlers = {
        "schedule": _cmd_schedule,
        "compare": _cmd_compare,
        "simulate": _cmd_simulate,
        "practical": _cmd_practical,
        "chain": _cmd_chain,
        "gossip": _cmd_gossip,
        "worker": _cmd_worker,
        "service": _cmd_service,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - manual invocation only
    sys.exit(main())
