#!/usr/bin/env python
"""Assert the recorded BENCH_*.json speedup floors.

Run after the benchmark smoke collection (``pytest benchmarks/``), which
regenerates the JSON documents on the current machine; this script then
fails CI if any recorded headline speedup fell below its floor, so the
perf wins of past PRs cannot silently rot:

* batched scheduling engine  >= 10x the seed-style scalar path
  (``BENCH_scheduling.json``),
* line-up kernel at paper scale >= 1.2x the per-grid vectorized engine
  on 50-cluster grids with the seven paper heuristics
  (``BENCH_scheduling.json``, paper_scale_kernel section — both engines'
  makespans verified identical before they are timed; the floor keeps the
  0.72 headroom factor of the former 2.5x floor over its 3.45x record,
  against the 1.76x recorded once the per-grid engine kept its score rows
  in place),
* stacked Monte-Carlo draw   >= 4x per-grid ``generate`` + cost caches +
  stack on the 10-cluster chunk of 2,857 grids (``BENCH_scheduling.json``,
  monte_carlo_draw section — the chunk drawn straight into its cost
  stacks, both stacks verified equal bit for bit first),
* batched measured sweep     >=  5x the per-run scalar loop
  (``BENCH_practical.json``, replicated section),
* batched schedule phase     >= 5x the per-size ``schedule()`` loop on
  the Table 3 line-up x 10 sizes (``BENCH_practical.json``,
  schedule_phase section — the driver's one ``record_lineup`` call over
  all message sizes, whose makespan and pair arrays build no schedule
  object, verified identical to the per-size loop's first),
* stacked program build      >= 2.5x the per-program loop on the Table 3
  sweep's 70 grid-aware broadcasts (``BENCH_practical.json``,
  program_build section — the driver's one stacked build for the whole
  line-up over all message sizes, its programs verified identical field
  for field first),
* bulk-opened noise streams  >= 1.4x one ``RandomStream`` per task on the
  Table 3 sweep's 80 tasks (``BENCH_practical.json``, noise_streams
  section — one vectorised seeding pass for every task's stream, the
  drawn factor bits verified identical first),
* process executor lane      >= 0.75x the inline pass on the full practical
  sweep (``BENCH_runtime.json``, practical_end_to_end section, plain and
  replicated — an overhead bound: fan-out may never cost more than a
  quarter of the inline throughput on the sweep it is built for),
* auto executor lane         >= 0.9x the inline pass on the small-batch
  workload, on a small Monte-Carlo study and on a small gossip study
  (``BENCH_runtime.json``, auto_vs_inline section — an overhead bound:
  where ``executor="auto"`` keeps the work inline, the lane decision may
  cost at most a tenth of the inline throughput),
* remote executor lane       >= 0.5x the process lane on the loopback
  practical sweep (``BENCH_runtime.json``, remote_loopback section — wire
  framing and socket hops must never halve the lane's throughput; across
  real machines the lane then adds capacity no local pool has),
* remote executor lane       >= 1.2x the inline pass on the Monte-Carlo
  study at 10/30/50 clusters x 200 iterations, two warmed loopback agents
  (``BENCH_runtime.json``, remote_vs_inline section — the workload where
  fan-out wins, so what a dispatch change must not lose; results verified
  bit-identical first),
* skewed remote fleet         >= 0.6x its fast agent alone (one agent at
  1/8 speed; ``BENCH_runtime.json``, remote_skewed section — pull
  dispatch from the one shared queue must keep the slow agent from
  setting the pace),
* chaos-hardened remote lane  >= 0.9x the bare lane on a healthy fleet
  (``BENCH_runtime.json``, remote_chaos section — heartbeats, frame
  deadlines, reconnect probation and degradation machinery must stay
  within 10% of the unguarded lane when nothing goes wrong),
* schedule-service warm cache >= 3x cold computation on the mixed query
  set (``BENCH_service.json``, service_load section — a hit in the LRU
  schedule cache with frequency admission must answer well ahead of
  rebuilding grids, cost matrices and schedules; every response is
  verified bit-identical to the inline path before it is timed),
* schedule-cache hit ratio    >= 0.82 on a Zipf-skewed stream over more
  keys than its 128 entries hold (``BENCH_service.json``, zipf_admission
  section — frequency admission keeps one-off queries from evicting hot
  schedules; plain LRU reads about 0.76 on the same stream, recorded
  next to it; every payload is verified against the inline path),
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
        "BENCH_scheduling.json",
        ("paper_scale_kernel", "speedup_vs_vectorized"),
        1.2,
    ),
    (
        "BENCH_scheduling.json",
        ("monte_carlo_draw", "10x2857", "speedup"),
        4.0,
    ),
    (
        "BENCH_practical.json",
        ("measured_sweep", "timings", "replicated", "speedup"),
        5.0,
    ),
    (
        "BENCH_practical.json",
        ("schedule_phase", "speedup"),
        5.0,
    ),
    (
        "BENCH_practical.json",
        ("program_build", "speedup"),
        2.5,
    ),
    (
        "BENCH_practical.json",
        ("noise_streams", "speedup"),
        1.4,
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
        ("auto_vs_inline", "small_batch", "speedup_auto_vs_inline"),
        0.9,
    ),
    (
        "BENCH_runtime.json",
        ("auto_vs_inline", "monte_carlo_small", "speedup_auto_vs_inline"),
        0.9,
    ),
    (
        "BENCH_runtime.json",
        ("auto_vs_inline", "gossip_small", "speedup_auto_vs_inline"),
        0.9,
    ),
    (
        "BENCH_runtime.json",
        ("remote_loopback", "plain", "speedup_remote_vs_process"),
        0.5,
    ),
    (
        "BENCH_runtime.json",
        ("remote_vs_inline", "speedup_remote_vs_inline"),
        1.2,
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
        "BENCH_service.json",
        ("zipf_admission", "hit_ratio"),
        0.82,
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
