"""Stability experiments: long mixed workloads with periodic attack injection.

The paper's stability sections (§4.2.4, §4.3.4, §4.4.4, §4.5.4, §4.6.4) deploy
the failure-oblivious build of each server into daily use, periodically feed
it the attack input, and check that it keeps performing all requests
flawlessly.  They also read the memory-error log to observe benign errors
(Sendmail's wake-up error, Midnight Commander's blank-configuration-line
error).

:func:`run_stability_experiment` reproduces the shape of those experiments: a
long, seeded, mostly-legitimate request stream with attacks injected every N
requests, run under a chosen build, reporting how many legitimate requests
were served, whether the server ever went down, how often it had to be
restarted, and what the error log recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import FATAL_OUTCOMES, RequestOutcome
from repro.harness.engine import ENGINE
from repro.servers.base import Request, Server
from repro.telemetry.events import RequestEnd
from repro.telemetry.sinks import Sink
from repro.workloads.streams import RequestStream, mixed_stream

#: Outcome strings carried by RequestEnd events after which the process is gone.
_FATAL_VALUES = frozenset(outcome.value for outcome in FATAL_OUTCOMES)


class WorkloadTallySink(Sink):
    """Aggregate the stability statistics from the server's event stream.

    Consumes :class:`~repro.telemetry.events.RequestEnd` events only, skipping
    startup traces (``__startup__``) so that restart boots mid-run do not
    perturb the workload statistics — the same scoping the pre-telemetry
    hand-rolled tallies had.  Attach it after session setup, run the workload,
    then read the totals.
    """

    def __init__(self) -> None:
        self.legitimate_served = 0
        self.legitimate_failed = 0
        self.attacks_survived = 0
        self.server_deaths = 0
        self.memory_errors = 0
        self.error_sites: Dict[str, int] = {}

    def emit(self, event: object) -> None:
        if not isinstance(event, RequestEnd) or event.kind == "__startup__":
            return
        self.memory_errors += event.memory_errors
        for site, count in event.error_sites:
            self.error_sites[site] = self.error_sites.get(site, 0) + count
        fatal = event.outcome in _FATAL_VALUES
        if fatal:
            self.server_deaths += 1
        if event.is_attack:
            if not fatal:
                self.attacks_survived += 1
        elif event.outcome == RequestOutcome.SERVED.value:
            self.legitimate_served += 1
        else:
            self.legitimate_failed += 1


@dataclass
class StabilityResult:
    """Summary of one long-running stability experiment."""

    server: str
    policy: str
    total_requests: int
    attack_requests: int
    legitimate_requests: int
    legitimate_served: int
    legitimate_failed: int
    attacks_survived: int
    server_deaths: int
    restarts: int
    memory_errors_logged: int
    error_sites: Dict[str, int] = field(default_factory=dict)

    @property
    def legitimate_service_rate(self) -> float:
        """Fraction of legitimate requests served successfully (availability)."""
        if self.legitimate_requests == 0:
            return 0.0
        return self.legitimate_served / self.legitimate_requests

    @property
    def flawless(self) -> bool:
        """The paper's criterion: every legitimate request served, no downtime."""
        return self.server_deaths == 0 and self.legitimate_failed == 0


def run_session_setup(server: Server, server_name: str) -> None:
    """Bring a booted server's user interface back to a normal working state.

    For example, Mutt re-opens the INBOX after the planted startup folder was
    rejected.  Harnesses run it before attaching any tally sink, so its
    requests are not counted in the workload statistics.
    """
    for setup_request in ENGINE.profile(server_name).make_follow_ups():
        server.process(setup_request)


class RestartMonitor:
    """The restart-on-death monitor every harness models, and its counts.

    It counts what no request event can carry: deaths at boot and on failed
    restarts, the restarts themselves, and legitimate requests that arrived
    while the server was down.  ``restart_on_death`` False models a server
    nobody restarts.
    """

    def __init__(self, server: Server, restart_on_death: bool) -> None:
        self.server = server
        self.restart_on_death = restart_on_death
        self.deaths = 0
        self.restarts = 0
        self.unserved_while_down = 0

    def _restart(self) -> None:
        """Restart the server; a restart that dies during boot is a death."""
        self.server.restart()
        self.restarts += 1
        if not self.server.alive:
            self.deaths += 1

    def retry_fatal_boot(self) -> None:
        """Apply the boot rule to a freshly booted (or cloned) server.

        A fatal boot is one death, then one retry.  For Pine and Mutt the
        retry hits the same startup error (the trigger persists in the
        mailbox/configuration), which is exactly the paper's point about
        restart-based recovery.
        """
        if not self.server.alive:
            self.deaths += 1
            if self.restart_on_death:
                self._restart()

    def serve(self, requests: Iterable[Request]) -> None:
        """Drive ``requests``, restarting a dead server before each one."""
        server = self.server
        for request in requests:
            if not server.alive:
                if self.restart_on_death:
                    self._restart()
                if not server.alive:
                    if not request.is_attack:
                        self.unserved_while_down += 1
                    continue
            server.process(request)


def run_stability_experiment(
    server_name: str,
    policy_name: str,
    total_requests: int = 200,
    attack_every: int = 25,
    restart_on_death: bool = True,
    seed: int = 20040101,
    scale: float = 0.25,
    stream: Optional[RequestStream] = None,
    config: Optional[Dict[str, object]] = None,
) -> StabilityResult:
    """Run a long mixed workload against one build of one server.

    ``restart_on_death`` models the obvious operational response for the
    Standard and Bounds Check builds (a monitor that restarts the server);
    the failure-oblivious build should never need it.  ``config`` entries are
    merged over the benchmark and attack configuration, as everywhere else.
    """
    workload = stream if stream is not None else mixed_stream(
        server_name, total_requests=total_requests, attack_every=attack_every, seed=seed
    )
    server: Server = ENGINE.build_server(
        server_name, policy_name, config=config, plant_attack=True, scale=scale
    )
    server.start()
    monitor = RestartMonitor(server, restart_on_death)
    monitor.retry_fatal_boot()

    if server.alive:
        run_session_setup(server, server_name)

    # Every workload statistic below is aggregated from the server's event
    # stream; the monitor only drives requests and restarts.
    tally = server.add_telemetry_sink(WorkloadTallySink())
    monitor.serve(workload)

    return StabilityResult(
        server=server_name,
        policy=policy_name,
        total_requests=len(workload),
        attack_requests=workload.attack_count,
        legitimate_requests=workload.legitimate_count,
        legitimate_served=tally.legitimate_served,
        legitimate_failed=tally.legitimate_failed + monitor.unserved_while_down,
        attacks_survived=tally.attacks_survived,
        server_deaths=monitor.deaths + tally.server_deaths,
        restarts=monitor.restarts,
        memory_errors_logged=tally.memory_errors,
        error_sites=tally.error_sites,
    )
