"""The fleet benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each fleet run happens in a fresh process (``fleet_probe.py``); fleets are
run one after another, all with the same seed, until ``--seconds`` have
passed (at least ``MIN_FLEETS``).  Without ``--workload`` every workload runs
in turn.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the process exits
non-zero when an output check fails.

Every time a metric reports is scaled to a reference host: each fleet's
seconds are multiplied by its ``host_scale`` (see ``fleet_probe``), so that
the host's own changes of speed cancel out.  The report prints each fleet's
raw times and its scale.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from fleet_probe import SRC, program_present  # noqa: E402
from fleet_workloads import ALL_SERVERS, DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fleets per run at the least: set-up time is a median of several, and a
#: traced run compares the exact counts of at least two traced fleets.
MIN_FLEETS = {False: 3, True: 4}
#: Seconds one fleet process may take before the run fails.
FLEET_TIMEOUT = 150.0
#: Per-layer times reported as self time, by metric name -> traced layer.
SELF_TIME_METRICS = {
    "servers.restart_s": "servers.restart",
    "servers.state_copy_s": "servers.state_copy",
    "memory.byte_s": "memory.byte",
    "memory.span_s": "memory.span",
    "memory.alloc_s": "memory.alloc",
    "memory.verify_heap_s": "memory.verify_heap",
    "memory.restore_s": "memory.restore",
    "memory.delta_s": "memory.delta",
    "core.decision_s": "core.decision",
    "telemetry.emit_s": "telemetry.emit",
    "recovery.snapshot_s": "recovery.snapshot",
    "recovery.rollback_s": "recovery.rollback",
    "minic.call_s": "minic.call",
}
#: Exact counts reported as per-layer metrics, by metric name.
EXACT_METRICS = (
    "fleet.dropped", "servers.restarts", "memory.byte_calls", "memory.span_calls",
    "memory.alloc_calls", "memory.restore_calls", "memory.delta_bytes", "core.decisions",
    "core.memory_errors", "core.manufactured_bytes", "core.discarded_bytes",
    "telemetry.events", "recovery.snapshots", "recovery.rollbacks", "recovery.live_deltas",
    "minic.calls",
)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric (``--trace 1``) and its unit."""
    units = {
        "fleet.timeline_s": "s", "fleet.boot_s": "s", "fleet.clone_s": "s",
        "fleet.dispatch_self_s": "s", "servers.restart_alive_ratio": "ratio",
        "recovery.retry_ok_ratio": "ratio", "trace.overhead": "ratio",
    }
    for server in ALL_SERVERS:
        units[f"servers.{server}.requests"] = "count"
        units[f"servers.{server}.self_s"] = "s"
        units[f"servers.{server}.latency_p99_ms"] = "ms"
    units.update({name: "s" for name in SELF_TIME_METRICS})
    units.update({name: "bytes" if name.endswith("_bytes") else "count"
                  for name in EXACT_METRICS})
    return dict(sorted(units.items()))


#: The end-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "goodput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "availability": "ratio", "setup_s": "s", "peak_rss_mib": "MiB",
}
UNITS = {**END_TO_END_UNITS, **per_layer_units()}


# ---------------------------------------------------------------------------
# Fleet processes
# ---------------------------------------------------------------------------


def run_fleet_process(workload: str, seed: int, traced: bool) -> Tuple[Optional[dict], str]:
    """One fleet in a fresh process: (report, error text)."""
    command = [sys.executable, str(HERE / "fleet_probe.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=FLEET_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"fleet process exceeded {FLEET_TIMEOUT:.0f} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"fleet process exited {done.returncode}: {done.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"fleet process printed no JSON: {lines[-1][:200]}"


def run_fleets(workload: str, seed: int, seconds: float, trace: bool):
    """Run fleets until ``seconds`` pass; a traced run alternates with untraced ones."""
    reports: List[dict] = []
    errors: List[str] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reports) % 2 == 1
        report, error = run_fleet_process(workload, seed, traced)
        if report is None:
            errors.append(error)
            break
        reports.append(report)
        elapsed = time.perf_counter() - started
        next_done = elapsed + elapsed / len(reports)
        if len(reports) >= MIN_FLEETS[trace] and next_done > seconds:
            break
    return reports, errors


def exact_count_failures(reports: List[dict]) -> List[str]:
    """Exact counts must repeat bit-identically across fleets of one seed."""
    failures = []
    first: Dict[str, object] = {}
    for index, report in enumerate(reports):
        for name, value in report["exact"].items():
            if first.setdefault(name, value) != value:
                failures.append(
                    f"fleet {index}: {name} = {value}, fleet 0 had {first[name]}"
                )
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def scaled(report: dict, key: str) -> float:
    """A fleet's time ``report[key]`` at the reference host's speed."""
    return report[key] * report["host_scale"]


def latencies_ms(report: dict, server: Optional[str] = None) -> List[float]:
    """A fleet's request latencies at the reference host's speed."""
    scale = report["host_scale"]
    groups = [report["latency_ms"].get(server, [])] if server else report["latency_ms"].values()
    return [value * scale for values in groups for value in values]


def goodput(report: dict) -> float:
    return report["exact"]["legitimate.served"] / scaled(report, "serving_s")


def end_to_end(reports: List[dict]) -> Tuple[Dict[str, float], int]:
    """The six end-to-end metrics over untraced fleets, and the latency samples per fleet.

    Timings are medians over fleets, latency percentiles included, so a fleet
    that ran while the host was slow does not set a run's tail on its own.
    """
    untraced = [report for report in reports if not report["traced"]]
    latencies = [latencies_ms(report) for report in untraced]
    metrics = {
        "goodput_rps": statistics.median(goodput(report) for report in untraced),
        "latency_p50_ms": statistics.median(percentile(fleet, 0.50) for fleet in latencies),
        "latency_p99_ms": statistics.median(percentile(fleet, 0.99) for fleet in latencies),
        "availability": untraced[0]["exact"]["availability"],
        "setup_s": statistics.median(scaled(report, "setup_s") for report in untraced),
        "peak_rss_mib": statistics.median(report["rss_mib"] for report in untraced),
    }
    return metrics, len(latencies[0])


def per_layer(reports: List[dict]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not run read 0."""
    traced = [report for report in reports if report["traced"]]
    untraced = [report for report in reports if not report["traced"]]
    exact = traced[0]["exact"]

    def median_self(layer: str) -> float:
        return statistics.median(
            report["layers"].get(layer, [0, 0.0, 0.0])[2] * report["host_scale"]
            for report in traced
        )

    def median_setup(part: str) -> float:
        return statistics.median(r["setup"][part] * r["host_scale"] for r in reports)

    metrics: Dict[str, float] = {
        "fleet.timeline_s": median_setup("timeline"),
        "fleet.boot_s": median_setup("boot"),
        "fleet.clone_s": median_setup("clone"),
        "fleet.dispatch_self_s": statistics.median(
            scaled(r, "dispatch_self_s") for r in traced
        ),
    }
    for server in ALL_SERVERS:
        layer = f"servers.{server}"
        metrics[f"{layer}.requests"] = traced[0]["layers"].get(layer, [0])[0]
        metrics[f"{layer}.self_s"] = median_self(layer)
        metrics[f"{layer}.latency_p99_ms"] = percentile(
            [value for report in untraced for value in latencies_ms(report, server)], 0.99
        )
    for name, layer in SELF_TIME_METRICS.items():
        metrics[name] = median_self(layer)
    for name in EXACT_METRICS:
        metrics[name] = exact[name]
    metrics["servers.restart_alive_ratio"] = traced[0]["restart_alive_ratio"]
    metrics["recovery.retry_ok_ratio"] = traced[0]["retry_ok_ratio"]
    metrics["trace.overhead"] = (
        statistics.median(scaled(r, "serving_s") for r in traced)
        / statistics.median(scaled(r, "serving_s") for r in untraced)
    )
    return dict(sorted(metrics.items()))


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_layer_table(reports: List[dict]) -> None:
    """Median count, inclusive and self time per traced layer, in raw seconds,
    and how exactly self times and dispatch partition each traced fleet's
    serving time."""
    traced = [report for report in reports if report["traced"]]
    names = sorted({name for report in traced for name in report["layers"]})
    serving = statistics.median(report["serving_s"] for report in traced)
    print(f"  {'layer (raw seconds)':<32}{'count':>12}{'total s':>11}{'self s':>11}{'self %':>8}")
    for name in names:
        rows = [report["layers"].get(name, [0, 0.0, 0.0]) for report in traced]
        count = statistics.median(row[0] for row in rows)
        total = statistics.median(row[1] for row in rows)
        own = statistics.median(row[2] for row in rows)
        print(f"  {name:<32}{count:>12.0f}{total:>11.4f}{own:>11.4f}{own / serving:>8.1%}")
    dispatch = statistics.median(report["dispatch_self_s"] for report in traced)
    print(f"  {'fleet.dispatch (outside spans)':<32}{'':>12}{'':>11}{dispatch:>11.4f}"
          f"{dispatch / serving:>8.1%}")
    gap = max(
        abs(sum(row[2] for row in report["layers"].values()) + report["dispatch_self_s"]
            - report["serving_s"])
        for report in traced
    )
    print(f"  in each traced fleet, self times + dispatch = serving time to within {gap:.1e} s")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its human-readable report; return its result."""
    reports, failures = run_fleets(workload, seed, seconds, trace)
    for index, report in enumerate(reports):
        failures += [f"fleet {index}: {failure}" for failure in report["failures"]]
    failures += exact_count_failures(reports)
    spec = WORKLOADS[workload]
    print(f"== {workload}: {spec.total_requests} requests per fleet, seed {seed}, "
          f"{len(reports)} fleets ({sum(r['traced'] for r in reports)} traced)")
    for index, report in enumerate(reports):
        print(f"  fleet {index}{' (traced)' if report['traced'] else ''}: "
              f"setup {report['setup_s']:.4f} s, serving {report['serving_s']:.4f} s, "
              f"goodput {report['exact']['legitimate.served'] / report['serving_s']:.1f}/s, "
              f"peak RSS {report['rss_mib']:.1f} MiB; host scale {report['host_scale']:.3f}")
    metrics: Dict[str, float] = {}
    # One fleet's counts: every fleet of a run repeats them exactly (checked
    # above), so they depend on the seed alone, not on how many fleets fit in
    # the run's time.  A run in which no fleet finished counts as one failed
    # request.
    attempted = reports[0]["exact"]["legitimate.attempted"] if reports else 1
    failed = reports[0]["exact"]["legitimate.failed"] if reports else 1
    if reports and (not trace or any(report["traced"] for report in reports)):
        end, samples = end_to_end(reports)
        counts = reports[0]["exact"]
        print(f"  legitimate requests per fleet: attempted {counts['legitimate.attempted']}, "
              f"served {counts['legitimate.served']}, failed {counts['legitimate.failed']}, "
              f"dropped {counts['legitimate.dropped']}, "
              f"quarantined {counts['legitimate.quarantined']}")
        print(f"  latency samples per fleet: {samples} (requests that reached a live instance)")
        for name, value in end.items():
            print(f"  {name:<16} {value:>14.6g} {UNITS[name]}")
        if trace:
            print_layer_table(reports)
            metrics = per_layer(reports)
            for name, value in metrics.items():
                print(f"  {name:<40} {value:>14.6g} {UNITS[name]}")
        else:
            metrics = end
        expected = per_layer_units() if trace else END_TO_END_UNITS
        if set(metrics) != set(expected):
            failures.append(f"metrics {sorted(set(metrics) ^ set(expected))} mismatch")
        for name, value in metrics.items():
            if isinstance(value, float) and not math.isfinite(value):
                failures.append(f"{name} is not finite")
    if not reports:
        failures.append("no fleet completed")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {f"{name}.{metric}": value for name, result in results.items()
                        for metric, value in result["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
