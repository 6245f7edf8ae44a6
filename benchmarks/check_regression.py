#!/usr/bin/env python
"""Assert the recorded BENCH_*.json speedup floors.

Run after the benchmark smoke collection (``pytest benchmarks/``), which
regenerates the JSON documents on the current machine; this script then
fails CI if any recorded headline speedup fell below its floor, so the
perf wins of past PRs cannot silently rot:

* batched scheduling engine  >= 10x the seed-style scalar path
  (``BENCH_scheduling.json``),
* batched measured sweep     >=  5x the per-run scalar loop
  (``BENCH_practical.json``, replicated section),
* process executor lane      >= 0.75x the inline pass on the full practical
  sweep (``BENCH_runtime.json``, practical_end_to_end section, plain and
  replicated — an overhead bound: fan-out may never cost more than a
  quarter of the inline throughput on the sweep it is built for),
* thread executor lane       >= 1.1x the process lane on the small-batch
  workload (``BENCH_runtime.json``, thread_vs_process section — the
  shipping-free lane must keep beating shipped fan-out where "auto"
  selects it),
* remote executor lane       >= 0.5x the process lane on the loopback
  practical sweep (``BENCH_runtime.json``, remote_loopback section — wire
  framing and socket hops must never halve the lane's throughput; across
  real machines the lane then adds capacity no local pool has),
* skewed remote fleet         >= 0.6x its fast agent alone (one agent at
  1/8 speed; ``BENCH_runtime.json``, remote_skewed section —
  throughput-proportional routing plus work stealing must keep the slow
  agent from setting the pace),
* chaos-hardened remote lane  >= 0.9x the bare lane on a healthy fleet
  (``BENCH_runtime.json``, remote_chaos section — heartbeats, frame
  deadlines, reconnect probation and degradation machinery must stay
  within 10% of the unguarded lane when nothing goes wrong),
* schedule-service warm cache >= 3x cold computation on the mixed query
  set (``BENCH_service.json``, service_load section — an LRU schedule
  cache hit must answer well ahead of rebuilding grids, cost matrices
  and schedules; every response is verified bit-identical to the inline
  path before it is timed),
* vectorized gossip round engine >= 20x the scalar per-node reference on
  the 10^4-node draw-free tree workload (``BENCH_gossip.json``,
  gossip_engine section — the flat-array engine is what makes the
  10^5/10^6-node studies feasible; tree is the one protocol without the
  seeded target draw both engines share by construction, so the ratio
  measures the engines themselves; both are verified bit-identical
  before they are timed).

Exit code 0 when every floor holds; 1 with a per-floor report otherwise.
The summary printed here is also surfaced by the CI ``docs`` job, so doc
readers see the currently-enforced floors next to the rendered docs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: (file, path through the JSON document, floor)
FLOORS: tuple[tuple[str, tuple[str, ...], float], ...] = (
    (
        "BENCH_scheduling.json",
        ("monte_carlo_throughput", "speedup_vs_seed_style", "batched"),
        10.0,
    ),
    (
        "BENCH_practical.json",
        ("measured_sweep", "timings", "replicated", "speedup"),
        5.0,
    ),
    (
        "BENCH_runtime.json",
        ("practical_end_to_end", "timings", "plain", "speedup_process_vs_inline"),
        0.75,
    ),
    (
        "BENCH_runtime.json",
        ("practical_end_to_end", "timings", "replicated",
         "speedup_process_vs_inline"),
        0.75,
    ),
    (
        "BENCH_runtime.json",
        ("thread_vs_process", "small_batch", "speedup_thread_vs_process"),
        1.1,
    ),
    (
        "BENCH_runtime.json",
        ("remote_loopback", "plain", "speedup_remote_vs_process"),
        0.5,
    ),
    (
        "BENCH_runtime.json",
        ("remote_skewed", "speedup_fleet_vs_fast_alone"),
        0.6,
    ),
    (
        "BENCH_runtime.json",
        ("remote_chaos", "overhead_speedup"),
        0.9,
    ),
    (
        "BENCH_service.json",
        ("service_load", "warm_vs_cold_speedup"),
        3.0,
    ),
    (
        "BENCH_gossip.json",
        ("gossip_engine", "speedup_vectorized_vs_scalar"),
        20.0,
    ),
)


def _lookup(document: dict, path: tuple[str, ...]):
    value = document
    for key in path:
        value = value[key]
    return value


def main() -> int:
    failures = []
    for file_name, path, floor in FLOORS:
        target = RESULTS_DIR / file_name
        label = f"{file_name}:{'.'.join(path)}"
        try:
            value = float(_lookup(json.loads(target.read_text()), path))
        except FileNotFoundError:
            failures.append(f"{label}: {target} missing — run `pytest benchmarks/` first")
            continue
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"{label}: unreadable ({exc!r})")
            continue
        status = "ok" if value >= floor else "REGRESSION"
        print(f"{status:>10}  {label} = {value:.2f}  (floor {floor})")
        if value < floor:
            failures.append(f"{label}: {value:.2f} < floor {floor}")
    if failures:
        print("\nBenchmark regression floors violated:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nAll benchmark floors hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
