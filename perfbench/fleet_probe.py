"""Run one workload's fleet once, in this fresh process, and report it as JSON.

Usage: ``python3 perfbench/fleet_probe.py --workload NAME --seed N --trace 0|1``
from the root of a checkout.  The last line of standard output is one JSON
object; ``perfbench/run.py`` starts one of these processes per fleet run.

The fleet runs through the public ``repro.fleet.run_fleet`` entry point.
Every measurement is taken from outside the program, by wrapping public
methods before the run:

* untraced (``--trace 0``): one bracket per request around
  ``Server.process``, or around ``RecoverySupervisor.submit`` for supervised
  instances, plus one around the monitor's ``Server.restart``.  A handful of
  calls made once per instance (``TrafficModel.timeline``, template boot,
  cloning, sink attachment, ``Server.stop``) are timed or observed too;
* traced (``--trace 1``): additionally, every call into each layer's public
  functions is a span (see ``fleet_spans``).

Between requests, about every ``CALIBRATION_INTERVAL_S`` of serving, the
probe also times ``reference_kernel``, a fixed piece of interpreter work that
is no part of the program.  Its median time gives the fleet's ``host_scale``:
the speed of this host, at this moment, relative to a reference host.  The
kernel's time is kept out of every request bracket and out of the serving
time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from fleet_spans import SpanTracer, dispatch_self_time  # noqa: E402
from fleet_workloads import WORKLOADS, Workload  # noqa: E402

#: Accessor calls that move a span of bytes (one policy check per span).
SPAN_METHODS = ("read", "write", "read_span", "write_span", "read_span_until",
                "scan_span", "find_byte")
BYTE_METHODS = ("read_byte", "write_byte")
ALLOC_METHODS = ("malloc", "calloc", "realloc", "free")
DECISION_METHODS = ("on_invalid_read", "on_invalid_write", "on_invalid_read_run",
                    "on_invalid_write_run", "scan_invalid_read_run")

#: Outcome recorded for a request the supervisor gave up on.
QUARANTINED = "quarantined"

#: Traced layers whose span count is an exact per-layer metric.
COUNTED_LAYERS = {
    "memory.byte": "memory.byte_calls",
    "memory.span": "memory.span_calls",
    "memory.alloc": "memory.alloc_calls",
    "memory.restore": "memory.restore_calls",
    "core.decision": "core.decisions",
    "telemetry.emit": "telemetry.events",
    "minic.call": "minic.calls",
}

SRC = ROOT / "src"

#: Seconds of serving between two timings of the reference kernel.
CALIBRATION_INTERVAL_S = 0.01
#: Timings of the reference kernel taken just before ``run_fleet`` is called.
CALIBRATION_WARMUP = 20
#: The reference host: one on which ``reference_kernel`` takes this long.
REFERENCE_KERNEL_S = 150e-6


class _Cell:
    __slots__ = ("value", "next")


def reference_kernel() -> int:
    """Fixed interpreter work, independent of the program, that tracks host speed.

    Like the servers it indexes and slices byte arrays, updates a dict and
    allocates small slotted objects.  On a 2-vCPU Xeon virtual machine that
    shares its processors with other machines, host speed moved by up to
    1.7x for seconds to minutes at a time; fleet goodput scaled by this
    kernel's time varied about half as much from fleet to fleet as raw goodput.
    """
    data = bytearray(range(256))
    table: Dict[int, int] = {}
    chunks = []
    head = None
    for i in range(160):
        j = (i * 7) & 255
        byte = data[j]
        data[(j + 1) & 255] = (byte + i) & 255
        table[byte] = table.get(byte, 0) + 1
        cell = _Cell()
        cell.value = byte
        cell.next = head
        head = cell
        chunks.append(bytes(data[j:j + 4]))
    return len(chunks) + len(table)


def program_present() -> bool:
    """Whether this checkout holds the program's source."""
    return (SRC / "repro" / "fleet" / "__init__.py").is_file()


def import_program() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero."""
    if not program_present():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


class FleetObserver:
    """Per-request brackets and terminal outcomes, observed from outside.

    Attached servers are the fleet's instances: the scheduler attaches a
    ``FleetTallySink`` to each clone after cloning it and before serving,
    which tells template set-up work apart from dispatch.  The first request,
    or monitor restart, on an attached server starts the serving window.
    """

    def __init__(self, tracer: Optional[SpanTracer]) -> None:
        self.tracer = tracer
        self.clock = time.perf_counter
        #: id(server) -> instance index.  The fleet runs as one shard, which
        #: attaches its instances in index order.
        self.attached: Dict[int, int] = {}
        self.serving_start: Optional[float] = None
        self.in_submit = False
        self.pending_restart: Dict[int, float] = {}
        self.latency_ms: Dict[str, List[float]] = defaultdict(list)
        #: request id -> terminal outcome value.
        self.outcomes: Dict[int, str] = {}
        self.duplicate_outcomes = 0
        self.restarts = 0
        self.restarts_alive = 0
        self.alive_at_stop: Dict[int, bool] = {}
        self.supervisors: Dict[int, object] = {}
        self.timeline: list = []
        self.setup_seconds = {"timeline": 0.0, "boot": 0.0, "clone": 0.0}
        #: Reference-kernel timings (see ``sample_host_speed``).
        self.calibration: List[float] = []
        self.calibration_s = 0.0
        self.next_calibration = 0.0
        self.delta_bytes = 0

    def begin_serving(self, now: float) -> None:
        self.serving_start = now
        if self.tracer is not None:
            self.tracer.active = True

    def end_serving(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False

    def request(self, server, request, call, *args):
        """The one bracket around a request that reached a live instance."""
        start = self.clock()
        if self.serving_start is None:
            self.begin_serving(start)
        tracer = self.tracer
        frame = tracer.enter(f"servers.{server.name}") if tracer is not None else None
        try:
            result = call(*args)
        finally:
            if frame is not None:
                tracer.exit(frame)
        end = self.clock()
        if tracer is not None:
            tracer.requests.append((server.name, request.request_id, start, end))
        elapsed = end - start + self.pending_restart.pop(id(server), 0.0)
        self.latency_ms[server.name].append(elapsed * 1000.0)
        if end >= self.next_calibration:
            self.sample_host_speed()
        return result

    def sample_host_speed(self) -> None:
        """Time the reference kernel once, between requests.

        The time is kept out of every request bracket and is subtracted from
        the serving time.
        """
        start = self.clock()
        reference_kernel()
        end = self.clock()
        self.calibration.append(end - start)
        self.calibration_s += end - start
        self.next_calibration = end + CALIBRATION_INTERVAL_S

    def record_outcome(self, request, outcome: str) -> None:
        if request.request_id in self.outcomes:
            self.duplicate_outcomes += 1
        self.outcomes[request.request_id] = outcome


def install(observer: FleetObserver) -> None:
    """Wrap the program's public methods with the observer's brackets and spans."""
    from repro.core import policies
    from repro.core.policy import AccessPolicy
    from repro.fleet.scheduler import FleetTallySink
    from repro.fleet.traffic import TrafficModel
    from repro.memory.accessor import MemoryAccessor
    from repro.memory.allocator import HeapAllocator
    from repro.memory.checkpoint_stream import CheckpointStream
    from repro.memory.context import MemoryContext
    from repro.minic.interpreter import ProgramInstance
    from repro.recovery.supervisor import RecoverySupervisor
    from repro.servers.base import Server
    from repro.telemetry.bus import EventBus

    clock = observer.clock
    tracer = observer.tracer

    def setup_timer(cls, name, bucket):
        original = getattr(cls, name)

        def timed(*args, **kwargs):
            if observer.serving_start is not None:
                return original(*args, **kwargs)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                observer.setup_seconds[bucket] += clock() - start

        setattr(cls, name, timed)

    setup_timer(Server, "start", "boot")
    setup_timer(Server, "recheckpoint", "boot")
    setup_timer(Server, "adopt_image", "clone")

    original_timeline = TrafficModel.timeline

    def timeline(model):
        start = clock()
        merged = original_timeline(model)
        observer.setup_seconds["timeline"] += clock() - start
        observer.timeline = merged
        return merged

    TrafficModel.timeline = timeline

    original_add_sink = Server.add_telemetry_sink

    def add_telemetry_sink(server, sink):
        if isinstance(sink, FleetTallySink):
            observer.attached[id(server)] = len(observer.attached)
        return original_add_sink(server, sink)

    Server.add_telemetry_sink = add_telemetry_sink

    original_stop = Server.stop

    def stop(server):
        index = observer.attached.get(id(server))
        if index is not None:
            observer.alive_at_stop[index] = server.alive
        return original_stop(server)

    Server.stop = stop

    original_process = Server.process

    def process(server, request):
        if observer.in_submit or id(server) not in observer.attached:
            return original_process(server, request)
        result = observer.request(server, request, original_process, server, request)
        observer.record_outcome(request, result.outcome.value)
        return result

    Server.process = process

    original_submit = RecoverySupervisor.submit

    def submit(supervisor, request):
        observer.supervisors[id(supervisor)] = supervisor
        observer.in_submit = True
        try:
            result = observer.request(
                supervisor.server, request, original_submit, supervisor, request
            )
        finally:
            observer.in_submit = False
        # submit returns a fatal result only for a request it quarantined.
        observer.record_outcome(request, QUARANTINED if result.fatal else result.outcome.value)
        return result

    RecoverySupervisor.submit = submit

    original_restart = Server.restart

    def restart(server):
        if id(server) not in observer.attached:
            return original_restart(server)
        start = clock()
        if observer.serving_start is None:
            observer.begin_serving(start)
        frame = tracer.enter("servers.restart") if tracer is not None else None
        try:
            result = original_restart(server)
        finally:
            if frame is not None:
                tracer.exit(frame)
        observer.restarts += 1
        if server.alive:
            observer.restarts_alive += 1
        if not observer.in_submit:
            # A monitor restart belongs to the request that follows it.  One
            # that leaves the server dead precedes a drop, and the next
            # restart on that server replaces it.
            observer.pending_restart[id(server)] = clock() - start
        return result

    Server.restart = restart

    if tracer is None:
        return

    def trace(cls, names, layer):
        for name in names:
            if name in cls.__dict__:
                setattr(cls, name, tracer.wrap(layer, cls.__dict__[name]))

    trace(Server, ("capture_handler_state", "restore_handler_state"), "servers.state_copy")
    trace(MemoryAccessor, BYTE_METHODS, "memory.byte")
    trace(MemoryAccessor, SPAN_METHODS, "memory.span")
    trace(HeapAllocator, ALLOC_METHODS, "memory.alloc")
    trace(HeapAllocator, ("verify_heap",), "memory.verify_heap")
    trace(MemoryContext, ("restore",), "memory.restore")
    trace(EventBus, ("emit",), "telemetry.emit")
    trace(RecoverySupervisor, ("take_snapshot",), "recovery.snapshot")
    trace(CheckpointStream, ("restore",), "recovery.rollback")
    trace(ProgramInstance, ("call",), "minic.call")
    # Decision methods are overridden per policy: wrap each concrete class.
    for value in vars(policies).values():
        if isinstance(value, type) and issubclass(value, AccessPolicy):
            trace(value, DECISION_METHODS, "core.decision")

    delta = tracer.wrap("memory.delta", MemoryContext.delta_checkpoint)

    def delta_checkpoint(ctx):
        image = delta(ctx)
        if tracer.active:
            observer.delta_bytes += image.space.payload_bytes
        return image

    MemoryContext.delta_checkpoint = delta_checkpoint


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Outcomes:
    """Each instance's terminal outcomes, from the brackets and the timeline."""

    def __init__(self, observer: FleetObserver, fatal_values: frozenset) -> None:
        self.fatal_values = fatal_values
        self.alive_at_stop = observer.alive_at_stop
        self.by_instance: Dict[int, list] = defaultdict(list)
        for fleet_request in observer.timeline:
            request = fleet_request.request
            self.by_instance[fleet_request.instance].append(
                (request.is_attack, observer.outcomes.get(request.request_id))
            )

    def fatal_by_kind(self, instance: int):
        """(attack, legitimate) requests of ``instance`` whose outcome was fatal."""
        attack = legitimate = 0
        for is_attack, outcome in self.by_instance[instance]:
            if outcome in self.fatal_values:
                if is_attack:
                    attack += 1
                else:
                    legitimate += 1
        return attack, legitimate

    def tally(self, instance: int) -> Dict[str, int]:
        """Terminal outcomes of one instance's requests (None = dropped)."""
        counts = defaultdict(int)
        for is_attack, outcome in self.by_instance[instance]:
            side = "attack" if is_attack else "legitimate"
            if outcome is None:
                kind = "dropped"
            elif outcome == QUARANTINED:
                kind = "quarantined"
            elif outcome in self.fatal_values:
                kind = "failed"
            elif outcome == "served":
                kind = "served"
            else:
                kind = "rejected"
            counts[f"{side}.{kind}"] += 1
            counts[side] += 1
        return counts


def conservation_failures(result, outcomes: Outcomes, observer: FleetObserver) -> List[str]:
    """Every request has one terminal outcome, and the program's tallies agree."""
    failures = []
    timeline_ids = {fr.request.request_id for fr in observer.timeline}
    if len(timeline_ids) != len(observer.timeline):
        failures.append("timeline request ids are not unique")
    if observer.duplicate_outcomes:
        failures.append(f"{observer.duplicate_outcomes} requests had two terminal outcomes")
    stray = set(observer.outcomes) - timeline_ids
    if stray:
        failures.append(f"{len(stray)} outcomes for requests outside the timeline")
    if result.deadline_dropped:
        failures.append("requests were dropped at a deadline")
    for tally in result.instances:
        seen = outcomes.tally(tally.index)
        label = f"instance {tally.index} ({tally.server})"
        legitimate = tally.legitimate_requests
        if tally.legitimate_served + tally.legitimate_failed + tally.quarantined != legitimate:
            failures.append(f"{label}: served + failed + quarantined != legitimate requests")
        expected = {
            "attempted": (seen["legitimate"] + seen["attack"], tally.requests),
            "attacks": (seen["attack"], tally.attack_requests),
            "served": (seen["legitimate.served"], tally.legitimate_served),
            "failed": (
                seen["legitimate.rejected"] + seen["legitimate.failed"]
                + seen["legitimate.dropped"],
                tally.legitimate_failed,
            ),
            "dropped": (seen["legitimate.dropped"] + seen["attack.dropped"], tally.dropped),
            "quarantined": (seen["legitimate.quarantined"], tally.quarantined),
            "quarantined attacks": (seen["attack.quarantined"], tally.quarantined_attacks),
            "attacks survived": (
                seen["attack.served"] + seen["attack.rejected"], tally.attacks_survived
            ),
        }
        for name, (observed, reported) in expected.items():
            if observed != reported:
                failures.append(f"{label}: {name} observed {observed}, tallied {reported}")
    if not 0.0 <= result.availability <= 1.0:
        failures.append(f"availability {result.availability} outside [0, 1]")
    return failures


# ---------------------------------------------------------------------------
# One fleet run
# ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, traced: bool) -> dict:
    from repro.errors import FATAL_OUTCOMES
    from repro.fleet import InstanceSpec, run_fleet
    from repro.recovery.supervisor import RecoveryPolicy

    tracer = SpanTracer() if traced else None
    observer = FleetObserver(tracer)
    install(observer)
    specs = [
        InstanceSpec(instance.server, instance.policy, weight=instance.weight,
                     attack_every=instance.attack_every)
        for instance in workload.instances
    ]
    recovery = RecoveryPolicy(**workload.recovery) if workload.recovery else None

    for _ in range(CALIBRATION_WARMUP):
        observer.sample_host_speed()
    observer.calibration_s = 0.0
    called = observer.clock()
    result = run_fleet(
        specs,
        total_requests=workload.total_requests,
        seed=seed,
        workers=1,
        shards=1,
        recovery=recovery,
        fault_every=workload.fault_every,
    )
    returned = observer.clock()
    observer.end_serving()

    failures: List[str] = []
    if observer.serving_start is None:
        failures.append("no request was dispatched")
        observer.serving_start = returned
    serving = returned - observer.serving_start - observer.calibration_s
    fatal_values = frozenset(outcome.value for outcome in FATAL_OUTCOMES)
    outcomes = Outcomes(observer, fatal_values)
    failures += conservation_failures(result, outcomes, observer)
    failures += workload.check(result, outcomes)

    counters = list(result.stats.counters.values())
    legitimate_dropped = sum(outcomes.tally(t.index)["legitimate.dropped"]
                             for t in result.instances)
    exact = {
        "availability": result.availability,
        "legitimate.attempted": result.legitimate_requests,
        "legitimate.served": result.legitimate_served,
        "legitimate.failed": result.legitimate_failed,
        "legitimate.dropped": legitimate_dropped,
        "legitimate.quarantined": sum(t.quarantined for t in result.instances),
        "fleet.dropped": result.dropped,
        "servers.restarts": observer.restarts,
        "servers.restarts_alive": observer.restarts_alive,
        "recovery.snapshots": result.snapshots,
        "recovery.rollbacks": result.rollbacks,
        "core.memory_errors": sum(t.memory_errors_logged for t in result.instances),
        "core.manufactured_bytes": sum(c.manufactured_bytes for c in counters),
        "core.discarded_bytes": sum(c.discarded_bytes for c in counters),
        # The fleet's own telemetry totals: they depend on request content,
        # so an untraced fleet can tell when its inputs stopped repeating.
        "stats.events_seen": result.stats.events_seen,
        "stats.allocations": sum(c.allocations for c in counters),
    }
    supervisors = list(observer.supervisors.values())
    recoveries = sum(s.rollbacks + s.boot_restarts for s in supervisors)
    report = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "setup_s": observer.serving_start - called,
        "serving_s": serving,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup": dict(observer.setup_seconds),
        "latency_ms": {} if traced else dict(observer.latency_ms),
        "restart_alive_ratio": (
            observer.restarts_alive / observer.restarts if observer.restarts else 0.0
        ),
        "retry_ok_ratio": (
            sum(s.retried_ok for s in supervisors) / recoveries if recoveries else 0.0
        ),
        "host_scale": REFERENCE_KERNEL_S / statistics.median(observer.calibration),
        "failures": failures,
    }
    if traced:
        exact["recovery.live_deltas"] = sum(s.stream.latest for s in supervisors)
        exact["memory.delta_bytes"] = observer.delta_bytes
        for layer, metric in COUNTED_LAYERS.items():
            stats = tracer.layers.get(layer)
            exact[metric] = stats.count if stats is not None else 0
        report["layers"] = {
            name: [stats.count, stats.total, stats.self_time]
            for name, stats in sorted(tracer.layers.items())
        }
        report["dispatch_self_s"] = dispatch_self_time(serving, tracer)
        if len(tracer.requests) != len(observer.outcomes):
            failures.append(f"{len(tracer.requests)} request spans for "
                            f"{len(observer.outcomes)} requests that reached an instance")
    report["exact"] = exact
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    report = run_workload(WORKLOADS[args.workload], args.seed, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
