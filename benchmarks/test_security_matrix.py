"""Benchmark regenerating the security/resilience matrix (§4.2.2-§4.6.2)."""

import pytest

from benchmarks.conftest import bench_workers, record_table
from repro.harness.experiments import run_experiment
from repro.harness.engine import ENGINE, ScenarioSpec
from repro.servers import SERVER_CLASSES


@pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
def test_attack_scenario_cost_failure_oblivious(benchmark, server_name):
    """Time the full attack scenario (boot, attack, follow-ups) under the FO build."""
    result = benchmark.pedantic(
        lambda: ENGINE.run(ScenarioSpec(server=server_name, policy="failure-oblivious",
                                        workload="attack", scale=0.2)),
        rounds=3,
        iterations=1,
    )
    assert result.continued_service


def test_security_matrix_table(benchmark):
    """Regenerate the full 5-server x 3-build security matrix."""
    output = benchmark.pedantic(
        lambda: run_experiment("tab-security", scale=0.25, workers=bench_workers()),
        rounds=1, iterations=1
    )
    record_table("Security and resilience matrix (§4.2.2-§4.6.2)", output.table)
    assessments = output.data["assessments"]
    fo = [a for a in assessments if a.policy == "failure-oblivious"]
    assert all(a.invulnerable and a.continued_service for a in fo)
