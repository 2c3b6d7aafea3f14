"""Sharded soak runs: one booted image, a long request stream, many workers.

The stability experiments process their request stream serially against one
server, so a full-scale soak is bounded by one core — and, before the
checkpoint subsystem, by the cost of rebuilding the whole process image on
every death.  This module removes both bounds:

* the server is built and booted **once**; its post-boot
  :class:`~repro.servers.base.ProcessImage` seeds every worker (the same
  image the in-scenario restarts restore, so a death costs a memory restore,
  not a reboot);
* the stream is split into ``shards`` deterministic contiguous chunks, fanned
  over the shared fork pool (:func:`~repro.harness.pool.fork_map`, which
  ``ExperimentEngine.run_many`` uses too), and merged back in stream order.
  Shard boundaries depend only on ``shards``, never on ``workers``, so the
  tallies are identical however many workers run them — the parallel soak is
  bit-for-bit the serial soak, faster.

Each shard starts from the boot image (every worker's server is a clone of
the same template), which is what makes the fan-out semantically clean: a
shard observes exactly the process state a freshly rebooted server would
show.  Telemetry flows through the PR 3 per-worker spill files; each shard
stamps its events with its shard index as the scenario id, so a merged JSONL
export reads in stream order.

This is the *single-server* scale harness.  For many servers at once — any
mix of profiles x policies under seeded arrival processes, with streaming
stats/SQLite sinks — use :func:`repro.fleet.scheduler.run_fleet` (the
``repro fleet`` CLI), which drives fleets of instances cloned over this same
checkpoint-image machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.pool import fork_map, split_contiguous
from repro.harness.stability import RestartMonitor, WorkloadTallySink
from repro.servers.base import Request, Server, bounded_history_limit
from repro.telemetry.session import current_session
from repro.workloads.streams import RequestStream, mixed_stream


@dataclass
class SoakShard:
    """Tallies for one contiguous chunk of the stream (one worker's unit)."""

    index: int
    requests: int
    attack_requests: int
    legitimate_served: int = 0
    legitimate_failed: int = 0
    attacks_survived: int = 0
    server_deaths: int = 0
    restarts: int = 0
    memory_errors_logged: int = 0
    error_sites: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0


@dataclass
class SoakResult:
    """Outcome of one sharded soak (shard tallies merged in stream order)."""

    server: str
    policy: str
    shard_count: int
    workers: int
    use_checkpoints: bool
    total_requests: int
    attack_requests: int
    legitimate_requests: int
    boot_fatal: bool
    shards: List[SoakShard]
    wall_seconds: float

    def _sum(self, field_name: str) -> int:
        return sum(getattr(shard, field_name) for shard in self.shards)

    @property
    def legitimate_served(self) -> int:
        """Legitimate requests served across all shards."""
        return self._sum("legitimate_served")

    @property
    def legitimate_failed(self) -> int:
        """Legitimate requests failed (or arriving while down) across shards."""
        return self._sum("legitimate_failed")

    @property
    def attacks_survived(self) -> int:
        """Attack requests survived across all shards."""
        return self._sum("attacks_survived")

    @property
    def server_deaths(self) -> int:
        """Process deaths across all shards."""
        return self._sum("server_deaths")

    @property
    def restarts(self) -> int:
        """Monitor restarts across all shards."""
        return self._sum("restarts")

    @property
    def memory_errors_logged(self) -> int:
        """Memory errors attempted during shard workloads."""
        return self._sum("memory_errors_logged")

    @property
    def requests_per_sec(self) -> float:
        """End-to-end soak throughput (boot + all shards, wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_requests / self.wall_seconds

    def tally(self) -> Dict[str, int]:
        """The order-independent tallies (what serial == parallel compares)."""
        sites: Dict[str, int] = {}
        for shard in self.shards:
            for site, count in shard.error_sites.items():
                sites[site] = sites.get(site, 0) + count
        return {
            "legitimate_served": self.legitimate_served,
            "legitimate_failed": self.legitimate_failed,
            "attacks_survived": self.attacks_survived,
            "server_deaths": self.server_deaths,
            "restarts": self.restarts,
            "memory_errors_logged": self.memory_errors_logged,
            **{f"site:{site}": count for site, count in sorted(sites.items())},
        }


@dataclass
class _SoakRun:
    """Everything a shard worker needs, inherited across the fork."""

    server_name: str
    policy_name: str
    config: Optional[Dict[str, object]]
    scale: float
    image: object
    restart_on_death: bool
    use_checkpoints: bool
    history_limit: Optional[int]

    def build_clone(self) -> Server:
        from repro.harness.engine import ENGINE

        server = ENGINE.build_server(
            self.server_name, self.policy_name, config=self.config,
            plant_attack=True, scale=self.scale,
        )
        server.limit_history(self.history_limit)
        if self.use_checkpoints and self.image is not None:
            server.adopt_image(self.image)
        else:
            # The pre-checkpoint cost model: no image is ever captured, so
            # boots (and in-shard restarts) pay exactly the pre-checkpoint
            # price — this is the baseline the benchmark gates against.
            server.checkpoint_restarts = False
            server.start()
        return server


def _run_shard(run: "_SoakRun", indexed: Tuple[int, List[Request]]) -> SoakShard:
    """Process one chunk against a fresh clone of the boot image.

    When a telemetry session is active the shard's events are stamped with
    its index as the scenario id — serial and pooled runs export the same
    stream shape, and the merged JSONL reads in stream order.  The previous
    stamp is restored afterwards, so an engine-managed outer scenario keeps
    stamping the events that follow the soak.
    """
    index, requests = indexed
    session = current_session()
    if session is not None:
        with session.scenario_scope(index):
            return _run_shard_body(run, index, requests)
    return _run_shard_body(run, index, requests)


def _run_shard_body(run: "_SoakRun", index: int, requests: Sequence[Request]) -> SoakShard:
    started = time.perf_counter()
    server = run.build_clone()
    # A fatal boot image (Pine/Mutt style persistent triggers) gets the same
    # monitor as run_stability_experiment.  Without checkpoints the clone's
    # restarts are real reboots (build_clone clears checkpoint_restarts).
    monitor = RestartMonitor(server, run.restart_on_death)
    monitor.retry_fatal_boot()
    tally = server.add_telemetry_sink(WorkloadTallySink())
    monitor.serve(requests)
    server.stop()
    return SoakShard(
        index=index,
        requests=len(requests),
        attack_requests=sum(1 for request in requests if request.is_attack),
        legitimate_served=tally.legitimate_served,
        legitimate_failed=tally.legitimate_failed + monitor.unserved_while_down,
        attacks_survived=tally.attacks_survived,
        server_deaths=monitor.deaths + tally.server_deaths,
        restarts=monitor.restarts,
        memory_errors_logged=tally.memory_errors,
        error_sites=dict(tally.error_sites),
        wall_seconds=time.perf_counter() - started,
    )


def run_soak_experiment(
    server_name: str,
    policy_name: str,
    total_requests: int = 400,
    attack_every: int = 10,
    shards: int = 8,
    workers: Optional[int] = None,
    restart_on_death: bool = True,
    seed: int = 20040101,
    scale: float = 0.25,
    stream: Optional[RequestStream] = None,
    config: Optional[Dict[str, object]] = None,
    use_checkpoints: bool = True,
    history_limit: Optional[int] = 64,
    allow_unbounded_history: bool = False,
) -> SoakResult:
    """Run a sharded soak: boot once, fan the stream over cloned workers.

    ``use_checkpoints=False`` makes every shard (and every in-shard restart)
    boot from scratch — the pre-checkpoint cost model, kept so the benchmark
    can report the speedup honestly.  ``workers`` of None/0/1 runs the shards
    serially in-process through the *same* shard function, so parallel runs
    are tally-identical to serial ones by construction.

    As a soak-scale harness, an unbounded per-request history is refused
    unless ``allow_unbounded_history=True`` opts in explicitly (see
    :func:`~repro.servers.base.bounded_history_limit`).
    """
    history_limit = bounded_history_limit(
        history_limit, allow_unbounded=allow_unbounded_history,
        harness="run_soak_experiment",
    )
    workload = stream if stream is not None else mixed_stream(
        server_name, total_requests=total_requests,
        attack_every=attack_every, seed=seed,
    )
    requests = list(workload)
    chunks = split_contiguous(requests, shards)

    started = time.perf_counter()
    run = _SoakRun(
        server_name=server_name, policy_name=policy_name, config=config,
        scale=scale, image=None, restart_on_death=restart_on_death,
        use_checkpoints=use_checkpoints, history_limit=history_limit,
    )
    from repro.harness.engine import ENGINE

    template = ENGINE.build_server(
        server_name, policy_name, config=config, plant_attack=True, scale=scale,
    )
    template.limit_history(history_limit)
    if not use_checkpoints:
        template.checkpoint_restarts = False  # skip the unused image capture
    boot_fatal = template.start().fatal
    if use_checkpoints:
        run.image = template.boot_image
    template.stop()

    results = fork_map(_run_shard, run, enumerate(chunks), workers)

    return SoakResult(
        server=server_name,
        policy=policy_name,
        shard_count=len(chunks),
        workers=0 if workers is None else int(workers),
        use_checkpoints=use_checkpoints,
        total_requests=len(requests),
        attack_requests=workload.attack_count,
        legitimate_requests=workload.legitimate_count,
        boot_fatal=boot_fatal,
        shards=results,
        wall_seconds=time.perf_counter() - started,
    )
