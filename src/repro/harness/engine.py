"""The experiment engine: runs any (profile, policy, workload) combination.

This module is the declarative facade the rest of the harness is built on.
A :class:`ScenarioSpec` names *what* to run — a registered
:class:`~repro.servers.profile.ServerProfile`, a build policy, a workload
shape, and sizing knobs — and :class:`ExperimentEngine` knows *how* to run
every workload shape against any profile:

``performance``
    The benign request-time measurement of Figures 2-6: each of the profile's
    figure rows measured under a baseline build and a treatment build, with
    the slowdown ratio.
``attack``
    The security/resilience scenario of §4.2.2-§4.6.2: boot with the
    documented error trigger planted, deliver the attack, then check that
    legitimate follow-up requests are still served.
``stability``
    A long mixed workload with periodic attack injection (§4.x.4).
``throughput``
    The Apache-style throughput-under-attack experiment (§4.3.2).
``soak``
    A restart-heavy sharded soak: the stream is chunked deterministically,
    every chunk runs against a clone of one post-boot process image, and the
    chunks fan out over the fork pool (see :mod:`repro.harness.soak`).

New servers participate in every shape by registering a profile (zero engine
edits); new workload shapes plug in with
:meth:`ExperimentEngine.register_workload`.  The module-level :data:`ENGINE`
is the default engine used by the experiment registry, the CLI, and every
other harness entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.policies import POLICY_NAMES
from repro.errors import RequestOutcome, RequestResult
from repro.harness.pool import fork_map
from repro.harness.timing import TimingResult, measure_paired, slowdown, wall_clock
from repro.servers.base import Server
from repro.servers.profile import PROFILES, ServerProfile, get_profile
from repro.telemetry.events import ScenarioEnd, ScenarioStart
from repro.telemetry.session import current_session

__all__ = [
    "ScenarioSpec",
    "ExperimentEngine",
    "FigureRow",
    "ScenarioResult",
    "SecurityCell",
    "ENGINE",
]


def _run_timed(
    engine: "ExperimentEngine", indexed_spec: "Tuple[int, ScenarioSpec]"
) -> Tuple[object, float]:
    """Run one spec, returning (result, wall-clock seconds).

    The spec index rides along as the scenario id so that telemetry exported
    from different workers merges back in spec order.
    """
    index, spec = indexed_spec
    started = wall_clock()
    result = engine.run(spec, scenario_id=index)
    return result, wall_clock() - started


# ---------------------------------------------------------------------------
# Scenario specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of one experiment run.

    Only ``server`` is mandatory.  The defaults are those of the performance
    figures (full-size workload, twenty repetitions, Standard vs Failure
    Oblivious); the attack-shaped experiments conventionally pass
    ``scale=0.25``.  ``params`` carries workload-specific knobs (e.g.
    ``total_requests`` for the stability shape) so new workload shapes do not
    require new spec fields.
    """

    #: Registered profile name (e.g. ``"pine"``).
    server: str
    #: Treatment build for the run (the paper's contribution by default).
    policy: str = "failure-oblivious"
    #: Workload shape; a key of the engine's workload registry.
    workload: str = "performance"
    #: Workload scale factor (data volumes relative to the defaults).
    scale: float = 1.0
    #: Baseline build the performance shape compares against.
    baseline_policy: str = "standard"
    #: Figure rows to measure (None means all of the profile's rows).
    kinds: Optional[Tuple[str, ...]] = None
    #: Measured repetitions per figure cell (the paper uses at least twenty).
    repetitions: int = 20
    #: Extra configuration merged over the profile's benchmark configuration.
    config: Optional[Mapping[str, object]] = None
    #: Workload-specific keyword arguments.
    params: Mapping[str, object] = field(default_factory=dict)

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Result shapes
# ---------------------------------------------------------------------------


@dataclass
class FigureRow:
    """One row of a request-time figure: a request kind under two builds."""

    server: str
    request_kind: str
    baseline: TimingResult
    failure_oblivious: TimingResult

    @property
    def slowdown(self) -> float:
        """Failure-oblivious time divided by baseline time (the paper's column)."""
        return slowdown(self.baseline, self.failure_oblivious)


@dataclass
class ScenarioResult:
    """Outcome of one attack scenario (one server under one policy)."""

    server: str
    policy: str
    boot: RequestResult
    attack: Optional[RequestResult]
    follow_ups: List[RequestResult] = field(default_factory=list)

    @property
    def survived_attack(self) -> bool:
        """True if the server was still alive after boot and the attack."""
        if self.boot.fatal:
            return False
        return self.attack is None or not self.attack.fatal

    @property
    def continued_service(self) -> bool:
        """True if every legitimate follow-up request was served successfully."""
        return bool(self.follow_ups) and all(
            result.outcome is RequestOutcome.SERVED for result in self.follow_ups
        )

    @property
    def vulnerable(self) -> bool:
        """True if the attack crashed, exploited, or hung the server."""
        outcomes = [self.boot.outcome]
        if self.attack is not None:
            outcomes.append(self.attack.outcome)
        return any(
            outcome in (RequestOutcome.CRASHED, RequestOutcome.EXPLOITED, RequestOutcome.HUNG)
            for outcome in outcomes
        )

    @property
    def memory_errors_logged(self) -> int:
        """Memory errors recorded across boot, attack, and follow-ups."""
        total = len(self.boot.memory_errors)
        if self.attack is not None:
            total += len(self.attack.memory_errors)
        return total + sum(len(result.memory_errors) for result in self.follow_ups)


@dataclass
class SecurityCell:
    """One cell of the security matrix: a compact view of a scenario result."""

    server: str
    policy: str
    boot_outcome: RequestOutcome
    attack_outcome: Optional[RequestOutcome]
    continued_service: bool
    memory_errors_logged: int

    @classmethod
    def from_scenario(cls, scenario: ScenarioResult) -> "SecurityCell":
        """Condense a full scenario result into a matrix cell."""
        return cls(
            server=scenario.server,
            policy=scenario.policy,
            boot_outcome=scenario.boot.outcome,
            attack_outcome=scenario.attack.outcome if scenario.attack else None,
            continued_service=scenario.continued_service,
            memory_errors_logged=scenario.memory_errors_logged,
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: A workload runner: takes the engine and a spec, returns the shape's result.
WorkloadRunner = Callable[["ExperimentEngine", ScenarioSpec], object]


class ExperimentEngine:
    """Runs declarative :class:`ScenarioSpec`\\ s against registered profiles.

    The engine holds no per-server knowledge: everything server-specific comes
    from the :class:`~repro.servers.profile.ServerProfile` registry, so a new
    server participates in every workload shape the moment its profile is
    registered.
    """

    def __init__(self, profiles: Optional[Mapping[str, ServerProfile]] = None) -> None:
        #: None means "the live global registry", so profiles registered after
        #: engine construction are still visible.
        self._profiles = profiles
        self._workloads: Dict[str, WorkloadRunner] = {
            "performance": ExperimentEngine._run_performance,
            "attack": ExperimentEngine._run_attack,
            "stability": ExperimentEngine._run_stability,
            "throughput": ExperimentEngine._run_throughput,
            "soak": ExperimentEngine._run_soak,
        }

    # -- registry access -----------------------------------------------------------

    def profile(self, server_name: str) -> ServerProfile:
        """Look up a profile by name (KeyError with the known names otherwise)."""
        if self._profiles is None:
            return get_profile(server_name)
        try:
            return self._profiles[server_name]
        except KeyError:
            raise KeyError(
                f"unknown server {server_name!r}; expected one of {sorted(self._profiles)}"
            ) from None

    def profile_names(self) -> List[str]:
        """Sorted names of the profiles this engine can run."""
        return sorted(self._profiles if self._profiles is not None else PROFILES)

    def workload_names(self) -> List[str]:
        """Sorted names of the registered workload shapes."""
        return sorted(self._workloads)

    def register_workload(self, name: str, runner: WorkloadRunner) -> None:
        """Register a new workload shape (``runner(engine, spec) -> result``)."""
        self._workloads[name] = runner

    # -- server construction -------------------------------------------------------

    def build_server(
        self,
        server_name: str,
        policy_name: str,
        config: Optional[Mapping[str, object]] = None,
        plant_attack: bool = False,
        scale: float = 1.0,
    ) -> Server:
        """Construct (but do not start) a server under the named policy.

        ``plant_attack`` merges in the profile's attack configuration (the
        poisoned mailbox, the vulnerable rewrite rule, ...); ``config`` is
        merged last so explicit overrides always win.
        """
        profile = self.profile(server_name)
        if policy_name not in POLICY_NAMES:
            raise KeyError(
                f"unknown policy {policy_name!r}; expected one of {sorted(POLICY_NAMES)}"
            )
        merged: Dict[str, object] = profile.build_config(scale)
        if plant_attack:
            merged.update(profile.make_attack_config())
        if config:
            merged.update(config)
        policy_cls = POLICY_NAMES[policy_name]
        return profile.server_cls(policy_cls, config=merged)

    # -- dispatch ------------------------------------------------------------------

    def run(self, spec: ScenarioSpec, scenario_id: Optional[int] = None) -> object:
        """Run one scenario, dispatching on its workload shape.

        When a telemetry session is active the run is bracketed with
        :class:`~repro.telemetry.events.ScenarioStart` /
        :class:`~repro.telemetry.events.ScenarioEnd` events and every event
        emitted in between is stamped with the scenario id (``scenario_id``
        when given — ``run_many`` passes the spec index — otherwise assigned
        by the session).
        """
        try:
            runner = self._workloads[spec.workload]
        except KeyError:
            raise KeyError(
                f"unknown workload {spec.workload!r}; expected one of {sorted(self._workloads)}"
            ) from None
        session = current_session()
        if session is None:
            return runner(self, spec)
        sid = session.begin_scenario(scenario_id)
        session.write(
            ScenarioStart(scenario_id=sid, server=spec.server, policy=spec.policy,
                          workload=spec.workload, scale=spec.scale)
        )
        started = wall_clock()
        try:
            return runner(self, spec)
        finally:
            session.write(ScenarioEnd(scenario_id=sid, seconds=wall_clock() - started))
            session.end_scenario()

    def run_many(
        self,
        specs: Sequence[ScenarioSpec],
        workers: Optional[int] = None,
        timed: bool = False,
    ) -> List[object]:
        """Run several scenarios, optionally fanned out over worker processes.

        ``ExperimentEngine.run`` is a pure function of its spec (every run
        builds fresh servers and a fresh substrate), so specs can execute in
        any order and in separate processes without observable differences:
        results come back in spec order and are identical to the serial path
        apart from wall-clock timings.

        Parameters
        ----------
        specs:
            The scenarios to run.
        workers:
            Process count.  ``None``, 0, or 1 runs serially in-process; higher
            values use a forked process pool (falling back to serial where
            fork is unavailable, e.g. on Windows).
        timed:
            If True, return ``(result, seconds)`` pairs instead of bare
            results, where ``seconds`` is the per-spec wall clock measured
            inside the worker.
        """
        # The engine itself travels to the workers through the fork, so
        # profiles and workload shapes registered on it at runtime are
        # visible there without pickling it.
        pairs = fork_map(_run_timed, self, enumerate(specs), workers)
        if timed:
            return pairs
        return [result for result, _seconds in pairs]

    # -- workload shapes -----------------------------------------------------------

    def _run_performance(self, spec: ScenarioSpec) -> List[FigureRow]:
        """The request-time measurement of Figures 2-6.

        A fresh server is built and started for every (request kind, policy)
        cell so that no state leaks between measurements, mirroring the
        paper's per-request instrumentation; every server is stopped once its
        cell is measured.
        """
        profile = self.profile(spec.server)
        rows: List[FigureRow] = []
        row_kinds = list(spec.kinds) if spec.kinds is not None else list(profile.figure_rows)
        # Whole-process warm-up: run a few requests once so that neither
        # build's first measured cell pays one-time interpreter and allocator
        # start-up costs (the analogue of the paper measuring steady-state
        # servers).
        warm_server = self.build_server(spec.server, spec.baseline_policy,
                                        config=spec.config, scale=spec.scale)
        try:
            if not warm_server.start().fatal and row_kinds:
                warm_factory = profile.request_factory_for(row_kinds[0])
                warm_reset = profile.reset_hook_for(row_kinds[0])
                for warm_index in range(3):
                    if warm_reset is not None:
                        warm_reset(warm_server, warm_index)
                    warm_server.process(warm_factory(warm_index))
        finally:
            warm_server.stop()
        for kind in row_kinds:
            servers: Dict[str, Server] = {}
            try:
                for policy_name in (spec.baseline_policy, spec.policy):
                    server = self.build_server(spec.server, policy_name,
                                               config=spec.config, scale=spec.scale)
                    boot = server.start()
                    if not boot.fatal:
                        servers[policy_name] = server
                timings = measure_paired(
                    servers,
                    profile.request_factory_for(kind),
                    repetitions=spec.repetitions,
                    reset=profile.reset_hook_for(kind),
                    label=kind,
                )
            finally:
                for server in servers.values():
                    server.stop()
            for policy_name in (spec.baseline_policy, spec.policy):
                if policy_name not in timings:
                    timings[policy_name] = TimingResult(
                        label=f"{kind} ({policy_name}: failed to boot)"
                    )
            rows.append(
                FigureRow(
                    server=spec.server,
                    request_kind=kind,
                    baseline=timings[spec.baseline_policy],
                    failure_oblivious=timings[spec.policy],
                )
            )
        return rows

    def _run_attack(self, spec: ScenarioSpec) -> ScenarioResult:
        """Boot with the error trigger planted, attack, then issue follow-ups."""
        profile = self.profile(spec.server)
        server = self.build_server(spec.server, spec.policy, config=spec.config,
                                   plant_attack=True, scale=spec.scale)
        try:
            boot = server.start()
            attack: Optional[RequestResult] = None
            follow_ups: List[RequestResult] = []
            if server.alive:
                attack = server.process(profile.make_attack_request())
            if server.alive:
                for request in profile.make_follow_ups():
                    follow_ups.append(server.process(request))
        finally:
            server.stop()
        return ScenarioResult(
            server=spec.server,
            policy=spec.policy,
            boot=boot,
            attack=attack,
            follow_ups=follow_ups,
        )

    def _run_stability(self, spec: ScenarioSpec) -> object:
        """Long mixed workload with periodic attacks (§4.x.4)."""
        from repro.harness.stability import run_stability_experiment

        return run_stability_experiment(
            spec.server, spec.policy, scale=spec.scale, config=spec.config,
            **dict(spec.params)
        )

    def _run_soak(self, spec: ScenarioSpec) -> object:
        """Sharded in-scenario soak: boot once, fan stream chunks over workers.

        The long mixed stream is split into deterministic chunks; every chunk
        runs against a clone of the same post-boot process image, serially or
        over the fork pool (``params["workers"]``), with identical tallies
        either way.  See :mod:`repro.harness.soak`.
        """
        from repro.harness.soak import run_soak_experiment

        return run_soak_experiment(
            spec.server, spec.policy, scale=spec.scale, config=spec.config,
            **dict(spec.params)
        )

    def _run_throughput(self, spec: ScenarioSpec) -> object:
        """Throughput of legitimate requests while under attack (§4.3.2).

        This shape is tied to Apache's pre-fork child pool, so it refuses any
        other server rather than silently mislabelling Apache numbers.
        """
        from repro.harness.throughput import run_throughput_experiment

        if spec.server != "apache":
            raise ValueError(
                f"the throughput workload models Apache's pre-fork child pool "
                f"and cannot run against {spec.server!r}"
            )
        return run_throughput_experiment(policies=(spec.policy,), **dict(spec.params))

    # -- sweeps --------------------------------------------------------------------

    def run_security_matrix(
        self,
        servers: Optional[Sequence[str]] = None,
        policies: Sequence[str] = ("standard", "bounds-check", "failure-oblivious"),
        scale: float = 0.25,
        workers: Optional[int] = None,
    ) -> List[SecurityCell]:
        """Run the attack scenario for every (server, policy) combination.

        ``servers`` defaults to the paper's five (the stable
        ``SERVER_CLASSES`` scope) so that third-party profiles registered for
        other purposes do not silently widen the paper's matrix.  With
        ``workers > 1`` the (server, policy) cells fan out over a process
        pool, one process per cell.
        """
        if servers is None:
            from repro.servers import SERVER_CLASSES

            servers = sorted(SERVER_CLASSES)
        specs = [
            ScenarioSpec(server=server_name, policy=policy_name,
                         workload="attack", scale=scale)
            for server_name in servers
            for policy_name in policies
        ]
        scenarios = self.run_many(specs, workers=workers)
        return [SecurityCell.from_scenario(scenario) for scenario in scenarios]


#: Default engine over the live global profile registry.
ENGINE = ExperimentEngine()
