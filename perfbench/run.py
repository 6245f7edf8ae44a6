"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload table3_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``table3_sweep``, ``montecarlo_fig2``, ``gossip_push_100k`` and
``service_mix`` (see ``workloads.py``).  The library is imported from the
``src`` directory next to this one; nothing needs installing.

``--trace 0`` times the public drivers and reports the end-to-end metrics:
``setup_s`` (median of three set-ups, each from script start to the first
timed op), ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` (the highest of p99
and p90 with at least ten ops beyond it) and ``peak_rss_mb`` (this
process plus the service daemon).  ``--trace 1`` replays the same ops with a
span around every layer call and reports the per-layer metrics instead.
Every time is reported at reference speed: a fixed calibration unit runs
between ops and scales the times measured next to it (see ``calibrate.py``).
Either way every op's output is checked against the reference path, and the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import calibration_seconds, speed_scale  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"

WORKLOAD_NAMES = ("table3_sweep", "montecarlo_fig2", "gossip_push_100k", "service_mix")

#: Environment variables that could move a workload off the inline path: onto
#: a worker pool, the remote lane, a persisted cost model or fault injection.
PINNED_ENV = (
    "REPRO_WORKERS",
    "REPRO_MC_WORKERS",
    "REPRO_PRACTICAL_WORKERS",
    "REPRO_GOSSIP_WORKERS",
    "REPRO_EXECUTOR",
    "REPRO_HOSTS",
    "REPRO_COST_CACHE",
    "REPRO_FAULT_PLAN",
)

#: Set-ups per untraced run: this process plus two probe processes.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

#: Candidate tail percentiles, highest first; the tail is the first one with
#: at least TAIL_MIN_BEYOND ops beyond it.  Fewer than 100 ops is an error.
#: The rungs sit 10x apart so that run-to-run jitter in the op count cannot
#: flip a workload between percentiles.
TAIL_PERCENTILES = (99, 90)
TAIL_MIN_BEYOND = 10

#: Seconds between calibration units in the timed loop, and the width of the
#: windows whose op latencies one window's calibrations scale.
CALIBRATE_EVERY_S = 0.2
WINDOW_S = 1.0
#: Calibration units run right after set-up, to scale the set-up time.
SETUP_CALIBRATIONS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once, print the set-up time and exit (see _probe_setup).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    # Children (the service daemon, set-up probes) import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH", "")) if part
    )
    sys.path.insert(0, str(SRC))


def _tail(latencies: list[float]) -> tuple[int, float, int]:
    """``(percentile, seconds, ops beyond)``: nearest-rank tail latency."""
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = -(-percentile * count // 100)
        if count - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1], count - rank
    raise RuntimeError(
        f"only {count} ops: the p{TAIL_PERCENTILES[-1]} tail needs "
        f"{TAIL_MIN_BEYOND} ops beyond it; raise --seconds"
    )


def _peak_rss_kib(pid: int | str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _probe_setup(args: argparse.Namespace) -> float:
    """Set the workload up in a fresh process; its script-start-to-ready seconds."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(
        command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def _setup_seconds() -> float:
    """Seconds from script start to now, at reference speed."""
    elapsed = time.perf_counter() - _STARTED
    return elapsed * speed_scale([calibration_seconds() for _ in range(SETUP_CALIBRATIONS)])


def _run_loop(workload, seconds: float, tracer) -> dict:
    """The timed loop: ops until ``seconds`` pass (a traced run ends on a pass).

    Each completed op leaves ``(start offset, latency, input key, digest)``;
    the digest is taken after the op's clock stops.  A calibration unit runs
    before an op whenever CALIBRATE_EVERY_S have passed since the last one
    and leaves ``(start offset, seconds)``.
    """
    done: list[tuple[float, float, object, str]] = []
    calibrations: list[tuple[float, float]] = []
    errors: list[str] = []
    outside_ops = 0.0
    k = 0
    started = time.perf_counter()
    deadline = started + seconds
    next_calibration = started
    while time.perf_counter() < deadline or (tracer is not None and k % workload.cycle):
        now = time.perf_counter()
        if now >= next_calibration:
            calibrations.append((now - started, calibration_seconds()))
            next_calibration = now + CALIBRATE_EVERY_S
        op_started = time.perf_counter()
        outside_ops += op_started - now
        try:
            if tracer is None:
                key, output = workload.op(k)
            else:
                with tracer.span("op"):
                    key, output = workload.traced_op(k, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            k += 1
            continue
        op_ended = time.perf_counter()
        done.append((op_started - started, op_ended - op_started, key, workload.digest(key, output)))
        outside_ops += time.perf_counter() - op_ended
        k += 1
    return {
        "ops": k,
        "done": done,
        "calibrations": calibrations,
        "errors": errors,
        "busy_s": time.perf_counter() - started - outside_ops,
    }


def _check_outputs(workload, warm_outputs, done, traced: bool) -> tuple[list[bool], list[str]]:
    """Compare every output with the reference: ``(per-op correct flags, problems)``."""
    outputs = [(key, digest) for _, _, key, digest in done]
    keys = sorted({key for key, _ in warm_outputs + outputs})
    reference = {key: workload.reference(key) for key in keys}
    problems = [
        f"warm-up output for input {key} differs from the reference"
        for key, digest in warm_outputs
        if digest != reference[key]
    ]
    # A traced op must also equal the driver's own output for its input.
    expected = workload.driver_digests if traced else {}
    correct = [
        digest == reference[key] and digest == expected.get(key, digest)
        for key, digest in outputs
    ]
    first: dict[object, str] = {}
    for key, digest in warm_outputs + outputs:
        first.setdefault(key, digest)
    joined = hashlib.sha256(
        "".join(f"{key}:{first[key]}\n" for key in keys).encode()
    ).hexdigest()
    print(f"outputs: {len(keys)} distinct inputs checked, digest {joined}")
    return correct, problems


def _scaled_latencies(loop: dict, correct: list[bool]) -> list[float]:
    """Latencies of the correct ops at reference speed.

    The loop is cut into WINDOW_S windows by start time, and each op is
    scaled by the calibrations of its own window (by all of them if its
    window has none), so an episode of slow host follows the ops it slowed.
    """
    windows: dict[int, list[float]] = {}
    for start, seconds in loop["calibrations"]:
        windows.setdefault(int(start // WINDOW_S), []).append(seconds)
    overall = speed_scale([seconds for _, seconds in loop["calibrations"]])
    scales = {window: speed_scale(samples) for window, samples in windows.items()}
    return [
        latency * scales.get(int(start // WINDOW_S), overall)
        for (start, latency, _, _), ok in zip(loop["done"], correct)
        if ok
    ]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the library sources are missing: {SRC / 'repro'}", file=sys.stderr)
        return 2
    _pin_environment()
    from spans import Tracer
    from workloads import LAYER_METRICS, WORKLOADS

    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        try:
            workload.setup(traced=False)
            print(f"setup_s {_setup_seconds()!r}", flush=True)
        finally:
            workload.close()
        return 0

    tracer = Tracer() if traced else None
    try:
        warm_outputs = workload.setup(traced=traced)
        setup_s = _setup_seconds()
        loop = _run_loop(workload, args.seconds, tracer)
        peak_rss_kib = _peak_rss_kib("self") + sum(
            _peak_rss_kib(pid) for pid in workload.child_pids()
        )
    finally:
        problems = workload.close()
    setup_samples = [setup_s]
    if not traced:
        setup_samples += [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    correct, output_problems = _check_outputs(workload, warm_outputs, loop["done"], traced)
    problems += output_problems + loop["errors"][:5]

    attempted = loop["ops"]
    failed = len(loop["errors"]) + correct.count(False)
    fail_ratio = failed / attempted
    print(
        f"{args.workload} seed {args.seed}: {attempted} ops in {loop['busy_s']:.2f} s, "
        f"{failed} failed (op_fail_ratio {fail_ratio:g})"
    )
    if traced:
        seconds = tracer.self_seconds()
        scale = speed_scale([seconds for _, seconds in loop["calibrations"]])
        values = dict.fromkeys(LAYER_METRICS, 0.0)
        values.update(workload.layer_metrics(tracer, attempted))
        for name, unit in LAYER_METRICS.items():
            if unit == "ms":
                values[name] *= scale
        values["traced_ops_per_s"] = (attempted - failed) / (loop["busy_s"] * scale)
        values["op_fail_ratio"] = fail_ratio
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()
        }
        trace_path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(
            f"traced ops_per_s {values['traced_ops_per_s']:.3f} 1/s over all ops "
            f"(an untraced run's ops_per_s shows the tracing overhead); "
            f"times scaled by {scale:.4f} to reference speed; "
            f"{len(tracer.spans)} spans written to {trace_path.relative_to(HERE.parent)}"
        )
        print(f"span self time (s): {json.dumps({k: round(v, 4) for k, v in sorted(seconds.items())})}")
    else:
        latencies = _scaled_latencies(loop, correct)
        percentile, tail, beyond = _tail(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_kib / 1024, "unit": "MB"},
        }
        raw = [latency for _, latency, _, _ in loop["done"]]
        print(
            f"latency metrics over {len(latencies)} correct ops at reference speed "
            f"(raw p50 {statistics.median(raw) * 1e3:.3f} ms, "
            f"{len(loop['calibrations'])} calibrations); "
            f"op_tail_ms is their p{percentile}, with {beyond} ops beyond it; "
            f"setup_s samples {[round(sample, 4) for sample in setup_samples]}"
        )
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if not traced:
        print(f"  {'op_fail_ratio':<28} {fail_ratio:>14.6g} 1")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result
        traceback.print_exc()
        sys.exit(1)
