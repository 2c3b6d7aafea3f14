"""The benchmark's workloads and the outcome pattern each must show.

Every workload is a closed loop with one client: ``run_fleet`` replays a
seeded timeline whose arrival times are virtual and never slept, so the next
request is dispatched when the previous one returns.  Each runs serially
(``workers=1``) with every instance in one shard (``shards=1``), so all
cloning happens before the first dispatch and requests of different
instances interleave by arrival time, as in a fleet.

This module imports nothing from the program: ``run.py`` reads it without
the program being importable, and the probe turns the plain specs into
``InstanceSpec`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The paper's five servers, in fleet instance order.
PAPER_SERVERS = ("apache", "pine", "mutt", "midnight-commander", "sendmail")

#: Every server name a workload runs (the ``servers.<name>.*`` metrics).
ALL_SERVERS = PAPER_SERVERS + ("minic-sendmail",)

#: ``run_fleet``'s default seed.
DEFAULT_SEED = 20040101


@dataclass(frozen=True)
class Instance:
    """One fleet instance: ``InstanceSpec`` fields other than the defaults."""

    server: str
    policy: str
    weight: float = 1.0
    attack_every: int = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: Tuple[Instance, ...]
    #: Requests per fleet run.  Fixed, so every exact count repeats.
    total_requests: int
    #: ``check(result, observed) -> [failure, ...]`` for the paper's pattern.
    check: Callable
    #: ``RecoveryPolicy`` keyword arguments; None runs unsupervised.
    recovery: Optional[Dict[str, int]] = None
    fault_every: Optional[int] = None


def _dropped(tally) -> List[str]:
    """A live instance never drops a request."""
    if tally.dropped:
        return [f"{tally.server}: {tally.dropped} requests dropped by a live instance"]
    return []


def _check_fo_mix(result, observed) -> List[str]:
    """Failure-oblivious builds survive every attack: no request is fatal."""
    failures = []
    for tally in result.instances:
        failures += _dropped(tally)
        if tally.server_deaths:
            failures.append(
                f"{tally.server}: {tally.server_deaths} deaths in a failure-oblivious build"
            )
        if tally.attacks_survived != tally.attack_requests:
            failures.append(
                f"{tally.server}: survived {tally.attacks_survived} of "
                f"{tally.attack_requests} attacks"
            )
    return failures


#: Checked-mix servers whose planted trigger fires at boot.
BOOT_FATAL = ("pine", "mutt", "sendmail")


def _check_checked_mix(result, observed) -> List[str]:
    """Bounds-check builds: three die at boot, two die once per attack."""
    failures = []
    for tally in result.instances:
        label = f"{tally.server}/{tally.policy}"
        fatal_boot = result.boot_fatal.get(label)
        if tally.server in BOOT_FATAL:
            if fatal_boot is not True:
                failures.append(f"{label}: boot should be fatal")
            if tally.legitimate_served or tally.dropped != tally.requests:
                failures.append(f"{label}: a boot-fatal instance served requests")
        else:
            failures += _dropped(tally)
            if fatal_boot is not False:
                failures.append(f"{label}: boot should succeed")
            fatal = observed.fatal_by_kind(tally.index)
            if fatal != (tally.attack_requests, 0):
                failures.append(
                    f"{label}: fatal (attack, legitimate) requests {fatal}, "
                    f"expected ({tally.attack_requests}, 0)"
                )
    return failures


def _check_self_healing(result, observed) -> List[str]:
    """Every supervised instance is serving when the run ends."""
    failures = [failure for tally in result.instances for failure in _dropped(tally)]
    for index, alive in sorted(observed.alive_at_stop.items()):
        if not alive:
            failures.append(f"instance {index} ended the run dead")
    if len(observed.alive_at_stop) != len(result.instances):
        failures.append("not every instance was stopped by the run")
    return failures


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fo-mix",
            why="the paper's deployment: five failure-oblivious servers under attack; "
                "sendmail's per-byte spool loop loads the memory, policy and telemetry layers",
            instances=tuple(Instance(server, "failure-oblivious") for server in PAPER_SERVERS),
            total_requests=3000,
            check=_check_fo_mix,
        ),
        Workload(
            name="checked-mix",
            why="the paper's bounds-check baseline: three servers die at boot and two on "
                "every attack, so restarts, drops and dispatch dominate",
            instances=tuple(Instance(server, "bounds-check") for server in PAPER_SERVERS),
            total_requests=12000,
            check=_check_checked_mix,
        ),
        Workload(
            name="self-healing",
            why="supervised failure-oblivious servers with injected faults: the only "
                "workload that snapshots, rolls back and runs the mini-C interpreter",
            instances=(
                Instance("apache", "failure-oblivious"),
                Instance("midnight-commander", "failure-oblivious"),
                Instance("minic-sendmail", "failure-oblivious", weight=0.25, attack_every=0),
            ),
            total_requests=3000,
            check=_check_self_healing,
            recovery={"snapshot_every": 8},
            fault_every=101,
        ),
    )
}


__all__ = ["ALL_SERVERS", "DEFAULT_SEED", "Instance", "PAPER_SERVERS", "WORKLOADS", "Workload"]
