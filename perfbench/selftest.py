"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [SEED]

For every workload in BENCHMARK.json it makes two short traced runs and one
untraced run with one seed, and fails unless:

* every run is ``correct`` with no failed op;
* the runs print exactly the metrics BENCHMARK.json names, with its units;
* the two traced runs repeat every per-layer count and ratio exactly;
* all three runs print the same output digest, so a traced run's outputs
  equal the untraced run's.

It takes about two minutes on a 2-core box.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced seconds per workload: enough ops for a p90 tail on a 2-core box.
UNTRACED_SECONDS = {
    "table3_sweep": 8,
    "montecarlo_fig2": 16,
    "gossip_push_100k": 8,
    "service_mix": 2,
}
TRACED_SECONDS = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One benchmark run: its JSON result and its ``outputs:`` digest line."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("outputs:"))
    return json.loads(lines[-1]), digest


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        traced_a, digest_a = run(workload, seed, TRACED_SECONDS, 1)
        traced_b, digest_b = run(workload, seed, TRACED_SECONDS, 1)
        plain, digest_plain = run(workload, seed, UNTRACED_SECONDS[workload], 0)
        for result in (traced_a, traced_b, plain):
            assert result["correct"] and result["failed"] == 0, (workload, result)
        for result, expected in ((traced_a, per_layer), (traced_b, per_layer), (plain, end_to_end)):
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert units == expected, (workload, units)
        repeated = [name for name, unit in per_layer.items() if unit in ("count", "1")]
        for name in repeated:
            a = traced_a["metrics"][name]["value"]
            b = traced_b["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} reads {a} then {b}"
        assert digest_a == digest_b == digest_plain, (workload, digest_a, digest_b, digest_plain)
        print(f"{workload}: ok ({len(repeated)} counts and ratios repeat; {digest_a})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
