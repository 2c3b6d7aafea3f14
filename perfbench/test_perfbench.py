"""The benchmark's own arithmetic: spans and self times on synthetic calls,
and the metric catalogue that ``BENCHMARK.json`` declares."""

import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from fleet_spans import SpanTracer, dispatch_self_time  # noqa: E402


class FakeClock:
    """A clock that reads whatever the test sets."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def nested_request(tracer: SpanTracer, clock: FakeClock) -> None:
    """request 0..10 { byte 1..4 { decision 2..3 }, alloc 5..8 { byte 6..7 } }."""
    request = tracer.enter("servers.sendmail")
    clock.now = 1.0
    byte = tracer.enter("memory.byte")
    clock.now = 2.0
    decision = tracer.enter("core.decision")
    clock.now = 3.0
    tracer.exit(decision)
    clock.now = 4.0
    tracer.exit(byte)
    clock.now = 5.0
    alloc = tracer.enter("memory.alloc")
    clock.now = 6.0
    inner = tracer.enter("memory.byte")
    clock.now = 7.0
    tracer.exit(inner)
    clock.now = 8.0
    tracer.exit(alloc)
    clock.now = 10.0
    tracer.exit(request)


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    tracer.active = True
    nested_request(tracer, clock)
    layers = tracer.layers
    assert layers["servers.sendmail"].total == 10.0
    assert layers["servers.sendmail"].self_time == 10.0 - 3.0 - 3.0
    assert layers["memory.byte"].count == 2
    assert layers["memory.byte"].total == 3.0 + 1.0
    assert layers["memory.byte"].self_time == (3.0 - 1.0) + 1.0
    assert layers["core.decision"].self_time == 1.0
    assert layers["memory.alloc"].self_time == 3.0 - 1.0
    assert tracer.root_time == 10.0


def test_self_times_and_dispatch_add_up_to_serving_time():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    tracer.active = True
    serving_start = clock.now
    nested_request(tracer, clock)
    clock.now = 10.5  # the scheduler's own work between requests
    restart = tracer.enter("servers.restart")
    clock.now = 12.0
    tracer.exit(restart)
    clock.now = 12.25
    serving = clock.now - serving_start
    dispatch = dispatch_self_time(serving, tracer)
    assert dispatch == 0.5 + 0.25
    total_self = sum(stats.self_time for stats in tracer.layers.values())
    assert total_self + dispatch == pytest.approx(serving, abs=1e-12)


def test_same_layer_reentry_and_inactive_tracer_open_no_span():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    calls = []

    def calloc(n):
        calls.append("calloc")
        return malloc(n)

    def raw_malloc(n):
        calls.append("malloc")
        clock.now += n
        return n

    malloc = tracer.wrap("memory.alloc", raw_malloc)
    calloc = tracer.wrap("memory.alloc", calloc)
    calloc(2.0)
    assert tracer.layers["memory.alloc"].count == 0
    tracer.active = True
    calloc(3.0)
    stats = tracer.layers["memory.alloc"]
    assert calls == ["calloc", "malloc", "calloc", "malloc"]
    assert (stats.count, stats.total, stats.self_time) == (1, 3.0, 3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    tracer.active = True

    def violate():
        clock.now += 1.0
        raise RuntimeError("bounds-check violation")

    checked = tracer.wrap("core.decision", violate)
    request = tracer.enter("servers.apache")
    with pytest.raises(RuntimeError):
        checked()
    clock.now += 1.0
    tracer.exit(request)
    assert tracer.depth == 0
    assert tracer.layers["core.decision"].self_time == 1.0
    assert tracer.layers["servers.apache"].self_time == 1.0


def test_benchmark_json_declares_every_metric_the_command_prints():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with open(path) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
