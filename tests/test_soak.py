"""The sharded soak: deterministic chunking, worker-invariant tallies.

Shard boundaries depend only on the shard count, every shard starts from a
clone of the same post-boot image, and serial and pooled execution run the
same shard function — so the tallies must be identical however many workers
run them, and identical to the pre-checkpoint (reboot-per-death) cost model.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.engine import ENGINE, ScenarioSpec
from repro.harness.pool import split_contiguous
from repro.harness.soak import SoakResult, run_soak_experiment
from repro.servers.base import Request
from repro.telemetry.session import TelemetrySession
from repro.telemetry.summary import summarize_jsonl


class TestSplitStream:
    """The soak shards its request stream with the shared contiguous splitter."""

    def test_contiguous_and_complete(self):
        requests = [Request(kind="k", payload={"i": i}) for i in range(11)]
        chunks = split_contiguous(requests, 4)
        assert [len(c) for c in chunks] == [3, 3, 3, 2]
        assert [r.payload["i"] for c in chunks for r in c] == list(range(11))

    def test_more_shards_than_requests(self):
        requests = [Request(kind="k") for _ in range(2)]
        assert [len(c) for c in split_contiguous(requests, 8)] == [1, 1]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            split_contiguous([], 0)


SOAK_KW = dict(total_requests=60, attack_every=3, shards=4, seed=7)


class TestShardedSoak:
    def test_parallel_tallies_identical_to_serial(self):
        serial = run_soak_experiment("apache", "bounds-check", workers=0, **SOAK_KW)
        pooled = run_soak_experiment("apache", "bounds-check", workers=2, **SOAK_KW)
        assert serial.tally() == pooled.tally()
        assert pooled.shard_count == serial.shard_count == 4
        assert [s.index for s in pooled.shards] == [0, 1, 2, 3]

    def test_checkpoint_tallies_identical_to_reboot_per_death(self):
        checkpointed = run_soak_experiment("apache", "bounds-check", workers=0, **SOAK_KW)
        scratch = run_soak_experiment("apache", "bounds-check", workers=0,
                                      use_checkpoints=False, **SOAK_KW)
        assert checkpointed.tally() == scratch.tally()

    def test_failure_oblivious_soaks_without_deaths(self):
        result = run_soak_experiment("apache", "failure-oblivious", workers=0, **SOAK_KW)
        assert result.server_deaths == 0
        assert result.restarts == 0
        assert result.legitimate_failed == 0
        assert result.legitimate_served == result.legitimate_requests

    def test_bounds_check_deaths_are_recovered_by_restarts(self):
        result = run_soak_experiment("apache", "bounds-check", workers=0, **SOAK_KW)
        # Every attack kills the child; the monitor restores the boot image
        # before the next request, so no legitimate request is lost.
        assert result.server_deaths == result.attack_requests
        assert result.restarts > 0
        assert result.legitimate_failed == 0

    def test_fatal_boot_image_counts_deaths_like_stability(self):
        # Pine with the poisoned mailbox dies during boot under bounds-check.
        # Per shard, stability's accounting applies: the fatal boot (1 death)
        # plus a failed pre-stream retry (1 death), then one failed restart
        # per arriving request — so the totals are exact, not approximate.
        result = run_soak_experiment("pine", "bounds-check", workers=0, **SOAK_KW)
        assert result.boot_fatal
        assert result.legitimate_served == 0
        assert result.server_deaths == 2 * result.shard_count + result.total_requests
        assert result.restarts == result.shard_count + result.total_requests
        assert result.legitimate_failed == result.legitimate_requests

    def test_engine_workload_dispatch(self):
        spec = ScenarioSpec(server="apache", policy="bounds-check", workload="soak",
                            params={"total_requests": 30, "attack_every": 3,
                                    "shards": 2, "workers": 0, "seed": 7})
        result = ENGINE.run(spec)
        assert isinstance(result, SoakResult)
        assert result.total_requests == 30

    def test_throughput_is_reported(self):
        result = run_soak_experiment("apache", "bounds-check", workers=0, **SOAK_KW)
        assert result.requests_per_sec > 0
        assert result.wall_seconds > 0


class TestSoakTelemetry:
    def test_exported_stream_has_identical_counts_serial_and_pooled(self, tmp_path):
        """The PR 3 spill-file machinery carries shard events: pooled and
        serial runs export streams with identical aggregate counts."""
        summaries = {}
        for label, workers in (("serial", 0), ("pooled", 2)):
            out = os.path.join(tmp_path, f"{label}.jsonl")
            with TelemetrySession(directory=os.path.join(tmp_path, label)) as session:
                run_soak_experiment("apache", "bounds-check", workers=workers, **SOAK_KW)
                session.merge(out)
            scenario_ids = set()
            with open(out, "r", encoding="utf-8") as handle:
                for line in handle:
                    scenario_ids.add(json.loads(line).get("scenario"))
            summary = summarize_jsonl(out)
            summaries[label] = (
                summary.by_type,
                summary.counters.invalid_total,
                summary.counters.requests_by_outcome,
                scenario_ids,
            )
        # Identical counts AND identical stream shape: serial shards stamp
        # their scenario ids exactly like pooled shards do.
        assert summaries["serial"] == summaries["pooled"]

    def test_pooled_export_reads_in_stream_order(self, tmp_path):
        """Shards stamp their index as the scenario id, so the merged JSONL
        is ordered by shard even though workers interleave."""
        out = os.path.join(tmp_path, "soak.jsonl")
        with TelemetrySession(directory=os.path.join(tmp_path, "spill")) as session:
            run_soak_experiment("apache", "bounds-check", workers=2, **SOAK_KW)
            session.merge(out)
        scenario_of_request_start = []
        with open(out, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("event") == "request-start" and "scenario" in record:
                    scenario_of_request_start.append(record["scenario"])
        shard_ids = [sid for sid in scenario_of_request_start if sid >= 0]
        assert shard_ids == sorted(shard_ids)
        assert set(shard_ids) == {0, 1, 2, 3}
