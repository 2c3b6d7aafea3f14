"""Benchmark regenerating the error-propagation-distance measurements (§1.2)."""

import pytest

from benchmarks.conftest import record_table
from repro.analysis.propagation import measure_propagation
from repro.harness.experiments import run_experiment
from repro.workloads.streams import mixed_stream


@pytest.mark.parametrize("server_name", ["apache", "sendmail", "mutt"])
def test_propagation_measurement_cost(benchmark, server_name):
    """Time the propagation measurement for one server under the FO build."""
    stream = list(mixed_stream(server_name, total_requests=24, attack_every=6))
    report = benchmark.pedantic(
        lambda: measure_propagation(server_name, "failure-oblivious", stream, scale=0.2),
        rounds=1,
        iterations=1,
    )
    assert report.short_propagation


def test_propagation_table(benchmark):
    """Regenerate the propagation-distance summary for all five servers."""
    output = benchmark.pedantic(
        lambda: run_experiment("exp-propagation", total_requests=32, attack_every=8, scale=0.2),
        rounds=1,
        iterations=1,
    )
    record_table("Error propagation distances (§1.2)", output.table)
    assert all(report.short_propagation for report in output.data.values())


def test_checking_overhead_counters(benchmark):
    """Measure the raw number of bounds checks per request — the §4.7 overhead knob."""
    from repro.harness.engine import ENGINE
    from repro.workloads.benign import benign_requests_for

    def count_checks():
        server = ENGINE.build_server("sendmail", "failure-oblivious", scale=0.2)
        server.start()
        before = server.policy.stats.checks_performed
        server.process(benign_requests_for("sendmail", "recv_large", 1)[0])
        return server.policy.stats.checks_performed - before

    checks = benchmark.pedantic(count_checks, rounds=3, iterations=1)
    assert checks > 1000  # byte-at-a-time spooling performs thousands of checks
