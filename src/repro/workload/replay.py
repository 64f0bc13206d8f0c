"""Multi-round trace replay: publish → refresh → fleet pull as one plan.

The paper evaluates TSR refresh latency for a *single* update round; its
freshness story — clients keep running stale measurements until the next
signed index lands — is only sketched.  This module replays a timestamped
:class:`~repro.workload.generator.Trace` (upstream publishes, mirror syncs
with lag or freeze, TSR refreshes, client fleet pulls) over one long-lived
deployment and measures what the paper leaves open: per-client
**staleness** (time running an index older than the newest upstream
publish) and end-to-end **update availability** latency, over dozens of
rounds.

Three composition modes:

* ``mode="serial"`` — today's composition: every event runs to completion
  before the next may start (``multi_tenant_refresh()`` then a fleet
  fan-out, repeated), with a barrier carrying the finish frontier across
  events.  Rounds arriving faster than they drain pile up.
* ``mode="interleaved"`` — the plan-wide timeline: *every* transfer of
  the whole trace — quorum index reads, mirror package downloads, and
  all clients' pull fetches — is a stream of **one**
  :class:`~repro.simnet.schedule.ParallelTransferSchedule` whose shared
  capacity models the TSR machine's NIC, refresh rounds extend one
  resumable :class:`~repro.core.orchestrator.RefreshPlanState` (shared
  mirror channels, enclave frontier, cache-shard frontiers, in-flight
  transfer table), and fleet waves are pinned at their trace instants via
  :class:`~repro.simnet.network.PlanFetchSession`.  Round k+1's quorum
  widens while round k's fleet pulls still drain the uplink.
* ``mode="streaming"`` — the interleaved timeline at O(active) memory:
  the schedule runs as a :class:`~repro.simnet.schedule.ScheduleStream`
  whose frontier advances to each event's instant, completions are
  drained and folded into online metric aggregates the moment they
  settle (no per-client transition lists, no per-round report list, no
  plan timeline), the scheduler retires drained download keys, and —
  when the trace rotates pull waves over a large fleet — each client's
  node is torn down once its final wave drains.  Staleness uses a lazy
  telescoping fold (per client: current serial + last landing instant;
  each landing charges ``max(0, t' - max(t_last, P(s)))`` where ``P(s)``
  is the first publish instant with a serial newer than ``s``), which
  telescopes to exactly :func:`staleness_seconds`; availability uses a
  per-client pointer into the publish list.  Percentiles come from
  mergeable :class:`~repro.util.stats.QuantileSketch` aggregates plus
  per-window scalar curves instead of an end-of-run pass over all
  samples.  Timings are identical to ``interleaved`` — the stream
  replays the very same solver on the very same enqueues — so installs,
  served serials, and published bytes match bit-for-bit; only the
  metric *representation* changes (sums exact up to float re-association,
  percentiles within the sketch's rank-error bound).

Causality across in-flight rounds is kept by *versioned publications*
(:meth:`~repro.core.service.TrustedSoftwareRepository.record_publication`):
a refresh round publishes its signed index and sanitized blobs at the
round's completion offset, and every pull wave is time-stamped
(``TsrRepositoryClient.as_of``) so a client pulling at plan time T sees
the newest publication that had **finished** by T — never the output of a
refresh still in flight, even though the Python call that computed it has
already returned.  One deployment carries all state across rounds: the
content-addressed cache dedupes incremental downloads, eviction pressure
accumulates (LRU vs scan-resistant LRU-2 — ``cache_policy``), and the
enclave's catalog grows monotonically.

Verdict/byte fidelity is pinned by the differential suite
(``tests/test_trace_replay.py``): a one-tenant, one-round trace produces
byte-identical signed indexes and served packages to the literal
``multi_tenant_refresh(); fleet_refresh()`` composition.  The replay
bench (``benchmarks/bench_trace_replay.py``) measures the serial-vs-
interleaved ablation and the staleness/availability curves
(EXPERIMENTS.md §7).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.orchestrator import (
    MultiTenantRefreshReport,
    RefreshOrchestrator,
    RefreshPlanState,
)
from repro.core.pipeline import MirrorDownloadScheduler
from repro.core.replica import check_replica_freshness
from repro.simnet.network import PlanFetchSession
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.errors import PolicyError, RollbackError
from repro.util.stats import QuantileSketch, percentile
from repro.workload.generator import Trace, TraceEvent, evolve_packages
from repro.workload.scenario import ClientFleet, Scenario, run_pull_wave

REPLAY_MODES = ("interleaved", "serial", "streaming")


# -- staleness / availability metrics (pure, unit-testable) -------------------


def staleness_seconds(publishes: list[tuple[float, int]],
                      transitions: list[tuple[float, int]],
                      horizon: float) -> float:
    """Seconds a client ran an index older than the newest publish.

    ``publishes`` are upstream ``(time, serial)`` bumps; ``transitions``
    are the client's ``(time, serial)`` index landings.  Both must be
    time-sorted with nondecreasing serials.  Integration starts at the
    client's *first* transition (before that the client does not exist
    for the experiment) and ends at ``horizon``; the client is stale
    whenever its current serial is older than the newest serial published
    so far.
    """
    if not transitions:
        return 0.0
    start = transitions[0][0]
    events: list[tuple[float, int, str, int]] = []
    # Tie-break at equal instants: apply the publish first (a client
    # landing an index at the very moment a newer serial publishes is
    # already stale), then the client transition.
    for at, serial in publishes:
        events.append((at, 0, "pub", serial))
    for at, serial in transitions:
        events.append((at, 1, "client", serial))
    events.sort(key=lambda e: (e[0], e[1]))

    newest = 0
    current: int | None = None
    stale_since: float | None = None
    total = 0.0
    for at, _, kind, serial in events:
        if at > horizon:
            break
        if kind == "pub":
            newest = max(newest, serial)
            if (current is not None and current < newest
                    and stale_since is None):
                stale_since = at
        else:
            current = serial
            if stale_since is not None and current >= newest:
                total += at - stale_since
                stale_since = None
            elif (stale_since is None and current < newest
                    and at >= start):
                stale_since = at
    if stale_since is not None:
        total += max(0.0, horizon - max(stale_since, start))
    return total


def availability_latencies(publishes: list[tuple[float, int]],
                           transitions: list[tuple[float, int]],
                           ) -> dict[int, float | None]:
    """Per publish serial: how long until this client caught up.

    Returns ``serial -> seconds`` from the publish instant to the
    client's first transition with an index at least that new, or
    ``None`` when the client never caught up within the trace.
    """
    latencies: dict[int, float | None] = {}
    for published_at, serial in publishes:
        caught = next((at for at, got in transitions
                       if got >= serial and at >= published_at), None)
        latencies[serial] = (caught - published_at
                             if caught is not None else None)
    return latencies


# -- replay data model --------------------------------------------------------


@dataclass
class ClientTimeline:
    """One client's view of the trace: index landings + derived metrics."""

    name: str
    repo_id: str
    #: (plan time the signed index was authenticated, its serial).
    transitions: list[tuple[float, int]] = field(default_factory=list)
    staleness: float = 0.0
    #: publish serial -> catch-up latency (None: never caught up).
    availability: dict[int, float | None] = field(default_factory=dict)


@dataclass
class StreamingReplaySummary:
    """Online-folded metrics of a ``mode="streaming"`` replay.

    Everything here is accumulated as completions drain — per-client
    state is three scalars and a publish pointer, fleet-wide percentiles
    live in :class:`~repro.util.stats.QuantileSketch` aggregates, and
    time-resolved shapes are per-window scalar folds (window ``i``
    covers ``[i * window_seconds, (i+1) * window_seconds)``).
    """

    #: Sum / max over the fleet of per-client staleness seconds.
    staleness_sum: float
    staleness_max: float
    #: Distribution of per-client staleness totals (never-pulled clients
    #: included as zeros, so ``count`` equals the fleet size).
    staleness_sketch: QuantileSketch
    #: Catch-up latency fold over every caught-up (publish, client) pair.
    availability_sum: float
    availability_count: int
    availability_max: float
    availability_sketch: QuantileSketch
    window_seconds: float
    #: Fleet stale-seconds charged to each window (interval overlap).
    window_stale_seconds: list[float]
    #: Per window of the publish instant: [samples, sum, max] catch-up.
    window_availability: list[list[float]]
    #: Folded counters over the dropped per-round refresh reports.
    refresh_totals: dict
    #: How many fleet nodes were ever booted (lazy fleet introspection).
    clients_booted: int
    #: Peaks of the stream's live footprint, sampled at every drain.
    peak_live_channels: int
    peak_pending_items: int
    final_stream_stats: dict


@dataclass
class TraceReplayReport:
    """Everything one trace replay measured."""

    mode: str
    rounds: int
    clients: int
    #: Plan time of the last activity (transfers, enclave, disk).
    wall_elapsed: float
    #: Observation horizon staleness integrates over.
    horizon: float
    installs: int
    failed_pulls: int
    failed_installs: int
    #: Upstream (time, serial) bumps, the trace's ground truth.
    publishes: list[tuple[float, int]]
    refresh_rounds: list[MultiTenantRefreshReport]
    timelines: dict[str, ClientTimeline]
    #: Whether the fleet pulled via the delta-update path.
    delta_updates: bool = False
    #: Wire bytes the fleet fetched, per pull wave (the TSR-uplink cost
    #: of serving the fleet; refresh traffic is not included).
    pull_wire_bytes: list[int] = field(default_factory=list)
    #: Fleet-wide delta accounting (:meth:`DeltaStats.as_dict`; all zeros
    #: when ``delta_updates`` is off).
    delta_stats: dict = field(default_factory=dict)
    #: ``mode="streaming"`` only: the online-folded metric aggregates
    #: (``timelines`` and ``refresh_rounds`` are then empty — per-client
    #: and per-round records were retired as they drained).
    streaming: StreamingReplaySummary | None = None
    #: Per-pull completion latency (wave start → the client's last fetch
    #: settling), folded across every scheduled wave in every mode.
    pull_latency: QuantileSketch | None = None
    #: Edge-replica tier accounting (zero without replicas).
    replicas: int = 0
    #: Pull waves in which a replica failed its freshness check and lost
    #: the wave's traffic to the primary (counted per replica per wave).
    replica_refusals: int = 0
    #: Wire bytes the replicas pulled off the primary's uplink to sync.
    replica_sync_bytes: int = 0

    def pull_latency_quantile(self, q: float) -> float:
        """``q``-th percentile of per-client pull completion latency."""
        if self.pull_latency is None:
            return 0.0
        return self.pull_latency.quantile(q)

    @property
    def staleness_per_client(self) -> dict[str, float]:
        return {name: t.staleness for name, t in self.timelines.items()}

    @property
    def staleness_mean(self) -> float:
        if self.streaming is not None:
            return (self.streaming.staleness_sum / self.clients
                    if self.clients else 0.0)
        if not self.timelines:
            return 0.0
        return sum(t.staleness for t in self.timelines.values()) \
            / len(self.timelines)

    @property
    def staleness_max(self) -> float:
        if self.streaming is not None:
            return self.streaming.staleness_max
        return max((t.staleness for t in self.timelines.values()),
                   default=0.0)

    @property
    def availability_mean(self) -> float:
        """Mean catch-up latency over every (publish, client) pair."""
        if self.streaming is not None:
            folded = self.streaming
            return (folded.availability_sum / folded.availability_count
                    if folded.availability_count else 0.0)
        samples = [
            latency
            for timeline in self.timelines.values()
            for latency in timeline.availability.values()
            if latency is not None
        ]
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def availability_max(self) -> float:
        if self.streaming is not None:
            return self.streaming.availability_max
        return max((latency
                    for timeline in self.timelines.values()
                    for latency in timeline.availability.values()
                    if latency is not None), default=0.0)

    def staleness_quantile(self, q: float) -> float:
        """``q``-th percentile of per-client staleness totals.

        Exact over the timelines in the materialized modes; within the
        sketch's rank-error bound in streaming mode.
        """
        if self.streaming is not None:
            return self.streaming.staleness_sketch.quantile(q)
        values = [t.staleness for t in self.timelines.values()]
        return percentile(values, q) if values else 0.0

    def availability_quantile(self, q: float) -> float:
        """``q``-th percentile of catch-up latency samples."""
        if self.streaming is not None:
            return self.streaming.availability_sketch.quantile(q)
        samples = [
            latency
            for timeline in self.timelines.values()
            for latency in timeline.availability.values()
            if latency is not None
        ]
        return percentile(samples, q) if samples else 0.0

    # Fleet wire-byte metrics (the delta-update ablation, EXPERIMENTS §8).

    @property
    def client_wire_bytes(self) -> int:
        """Total bytes the fleet pulled off the TSR uplink."""
        return sum(self.pull_wire_bytes)

    @property
    def bytes_per_client_per_round(self) -> float:
        """Mean uplink bytes one client costs per pull wave."""
        if not self.pull_wire_bytes or not self.clients:
            return 0.0
        return self.client_wire_bytes \
            / (self.clients * len(self.pull_wire_bytes))

    def steady_state_bytes_per_client_per_round(self,
                                                skip_waves: int = 1) -> float:
        """Same metric excluding the first ``skip_waves`` warm-up waves
        (clients hold no bases yet, so early waves pull full either way)."""
        tail = self.pull_wire_bytes[skip_waves:]
        if not tail or not self.clients:
            return 0.0
        return sum(tail) / (self.clients * len(tail))

    # Aggregates over the refresh rounds (cache behaviour across rounds).

    @property
    def deduped_downloads(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["downloads_deduped"]
        return sum(r.downloads_deduped for r in self.refresh_rounds)

    @property
    def evicted_redownloads(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["evicted_redownloads"]
        return sum(r.evicted_redownloads for r in self.refresh_rounds)

    @property
    def prescans(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["prescans"]
        return sum(r.prescans for r in self.refresh_rounds)

    @property
    def downloaded_bytes(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["downloaded_bytes"]
        return sum(r.downloaded_bytes for r in self.refresh_rounds)


@dataclass
class _WaveRecord:
    """One fleet wave awaiting its final transfer timings."""

    started_at: float
    #: client name -> (schedule key of the index fetch, serial served).
    index_marks: dict[str, tuple[object, int]]
    #: client name -> schedule key of the wave's last fetch.
    last_keys: dict[str, object]
    schedule: ParallelTransferSchedule


# -- the engine ---------------------------------------------------------------


def publish_event(scenario: Scenario, event: TraceEvent,
                  trace_seed: int) -> list[str]:
    """Apply one ``publish`` event: evolve + publish an update batch.

    The batch is sampled by an RNG derived *only* from the trace seed and
    the event seed — never from the replay's shared stream — so both
    replay modes (and any external caller reproducing the trace, e.g. the
    differential suite) publish byte-identical releases.
    """
    rng = random.Random(f"trace-publish:{trace_seed}:{event.seed}")
    batch = evolve_packages(scenario.population, event.fraction, rng)
    scenario.origin.publish_many([(package, None) for package in batch])
    for package in batch:
        scenario.population[package.name] = package
    return [package.name for package in batch]


class TraceReplay:
    """Replays one :class:`Trace` against one deployment.

    The engine owns the plan timeline: the scenario clock is advanced
    exactly once, at the end, by the replay's wall-clock.  See the module
    docstring for the two composition modes.
    """

    def __init__(self, scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved",
                 client_downlink=None,
                 max_streams: int | None = None,
                 tenants: list[str] | None = None,
                 link_bandwidth: float | None = None,
                 delta_updates: bool = False,
                 window_seconds: float | None = None,
                 shared_tpm_seed: int | None = None,
                 replicas=None):
        if mode not in REPLAY_MODES:
            raise ValueError(
                f"unknown replay mode {mode!r} (expected {REPLAY_MODES})"
            )
        if not scenario.population:
            raise ValueError("trace replay needs a published population")
        self._scenario = scenario
        self._trace = trace
        self._mode = mode
        self._max_streams = max_streams
        self._tenants = list(tenants or scenario.tenants)
        #: The shared-NIC capacity every transfer of the plan contends
        #: for (half-duplex model: refresh downloads and client serving
        #: share the TSR machine's one NIC in both modes).
        self._capacity = (
            link_bandwidth if link_bandwidth is not None
            else scenario.network.host(scenario.tsr.hostname).bandwidth
        )
        self._interleaved = mode == "interleaved"
        self._streaming = mode == "streaming"
        self._clients = clients
        self._client_downlink = client_downlink
        self._delta_updates = delta_updates
        self._window_seconds = window_seconds
        #: Forwarded to :class:`ClientFleet`: one memoized attestation
        #: keypair for the whole fleet instead of a prime search per
        #: client boot.  Replay metrics never read the attestation key,
        #: so both modes produce identical reports either way — set it
        #: whenever the fleet is large.
        self._shared_tpm_seed = shared_tpm_seed
        #: Edge-replica serving tier (:class:`repro.core.replica.ReplicaTSR`
        #: instances, already registered on the scenario network).  The
        #: replay drives their sync loop — on every publication plus a
        #: cadence heartbeat before pull waves — and runs the freshness
        #: check that routes clients away from stale/frozen replicas.
        self._replicas = list(replicas) if replicas else []
        self._replica_refusals = 0

    # -- replica tier plumbing -------------------------------------------------

    def _link_replicas(self, schedule: ParallelTransferSchedule):
        """Declare one independent uplink pool per replica host on the
        plan schedule (must run before a stream is opened)."""
        network = self._scenario.network
        for replica in self._replicas:
            schedule.add_link(replica.hostname,
                              network.host(replica.hostname).bandwidth)

    def _sync_replicas(self, at: float, repo_ids=None, schedule=None):
        for replica in self._replicas:
            replica.sync_from_primary(at, repo_ids=repo_ids,
                                      schedule=schedule)

    def _heartbeat_replicas(self, at: float, schedule=None):
        """Cadence sync ahead of a pull wave: a healthy replica re-syncs
        whenever its last sync is at least one cadence old, so its lag at
        wave time never exceeds its cadence (< the staleness bound).  A
        frozen replica ignores this and drifts into refusal."""
        for replica in self._replicas:
            if at - replica.synced_through >= replica.sync_cadence:
                replica.sync_from_primary(at, schedule=schedule)

    def _freshness_refusals(self, as_of: float) -> set[str]:
        """Quorum-check every replica's served index for this wave."""
        refused: set[str] = set()
        scenario = self._scenario
        for replica in self._replicas:
            for repo_id in self._tenants:
                if scenario.tsr.publication_at(repo_id, as_of) is None:
                    continue  # nothing published yet: nothing to refuse
                key = scenario.tenant_keys.get(repo_id,
                                               scenario.tsr_public_key)
                try:
                    check_replica_freshness(replica, repo_id, as_of, [key])
                except RollbackError:
                    refused.add(replica.hostname)
                    replica.refusals += 1
                    self._replica_refusals += 1
                    break
        return refused

    def _new_round_state(self) -> tuple[ParallelTransferSchedule,
                                        RefreshPlanState]:
        schedule = ParallelTransferSchedule(
            downlink_bandwidth=self._capacity)
        plan = RefreshPlanState(scheduler=MirrorDownloadScheduler(
            self._scenario.tsr, schedule=schedule,
            channel_key=lambda hostname: ("dl", hostname)))
        return schedule, plan

    def run(self) -> TraceReplayReport:
        if self._streaming:
            return self._run_streaming()
        scenario = self._scenario
        trace = self._trace
        tsr = scenario.tsr

        if self._interleaved:
            schedule, plan = self._new_round_state()
            self._link_replicas(schedule)
            # One enclave memo window spans the whole plan: steady-state
            # rounds replay unchanged blobs' analyses at their recorded
            # costs instead of re-parsing them (host time only — every
            # simulated duration and per-round counter is unchanged).
            plan.persistent_enclave_memo = True
            session = PlanFetchSession(scenario.network, schedule)
        else:
            schedule = plan = session = None
        fleet = ClientFleet(
            scenario, self._clients, name_prefix=f"replay-{trace.seed}",
            session=session, client_downlink=self._client_downlink,
            tenants=self._tenants, delta_updates=self._delta_updates,
            shared_tpm_seed=self._shared_tpm_seed,
            replicas=self._replicas,
        )

        #: Baseline: the pre-trace population is "publish zero".
        publishes: list[tuple[float, int]] = [(0.0, scenario.origin.serial)]
        for repo_id in self._tenants:
            try:
                tsr.get_index_bytes(repo_id)
            except PolicyError:
                continue  # tenant not refreshed before the trace
            tsr.record_publication(repo_id, 0.0)
        self._sync_replicas(0.0, schedule=schedule)

        refresh_rounds: list[MultiTenantRefreshReport] = []
        waves: list[_WaveRecord] = []
        pull_wire_bytes: list[int] = []
        installs = 0
        failed_pulls = 0
        failed_installs = 0
        frontier = 0.0      # serial-mode barrier; last finish in both modes

        try:
            for event in trace.ordered():
                start = (event.at if self._interleaved
                         else max(event.at, frontier))
                if event.kind == "publish":
                    publish_event(scenario, event, trace.seed)
                    publishes.append((event.at, scenario.origin.serial))
                elif event.kind == "mirror_sync":
                    targets = (event.mirrors if event.mirrors is not None
                               else list(scenario.mirrors))
                    for name in targets:
                        scenario.mirrors[name].sync()
                elif event.kind == "refresh":
                    repo_ids = list(event.tenants or self._tenants)
                    if self._interleaved:
                        round_plan = plan
                    else:
                        _, round_plan = self._new_round_state()
                    report = RefreshOrchestrator(
                        tsr, repo_ids, max_streams=self._max_streams,
                        origin=start, plan_state=round_plan,
                        advance_clock=False,
                    ).run()
                    refresh_rounds.append(report)
                    for repo_id in repo_ids:
                        tsr.record_publication(repo_id, report.finished_at)
                    self._sync_replicas(report.finished_at, repo_ids,
                                        schedule=schedule)
                    frontier = max(frontier, report.finished_at)
                elif event.kind == "fleet_pull":
                    clients = (fleet.clients if event.clients is None
                               else fleet.subset(event.clients))
                    if self._interleaved:
                        wave_schedule, wave_session = schedule, session
                    else:
                        wave_schedule = ParallelTransferSchedule(
                            downlink_bandwidth=self._capacity)
                        self._link_replicas(wave_schedule)
                        wave_session = PlanFetchSession(scenario.network,
                                                        wave_schedule)
                        fleet.use_session(wave_session)
                    fleet.set_as_of(start)
                    if self._replicas:
                        self._heartbeat_replicas(
                            start, schedule=wave_schedule)
                        fleet.set_replica_refusals(
                            self._freshness_refusals(start))
                    wave_session.begin_wave(start)
                    # Event-local RNG (like publish batches): a wave's
                    # install choices depend on the trace seed and the
                    # event's own seed, never on ambient state or other
                    # waves' draws.
                    wave_rng = random.Random(
                        f"trace-pull:{trace.seed}:{event.seed}:{event.at}")
                    wire_before = wave_session.total_wire_bytes
                    outcome = run_pull_wave(
                        clients, wave_rng, event.installs_per_client,
                        plan_session=wave_session, tolerate_failures=True,
                    )
                    pull_wire_bytes.append(
                        wave_session.total_wire_bytes - wire_before)
                    installs += outcome.installs
                    failed_pulls += outcome.failed_pulls
                    failed_installs += outcome.failed_installs
                    record = _WaveRecord(
                        started_at=start,
                        index_marks={
                            name: (outcome.index_keys.get(name), serial)
                            for name, serial in outcome.served_serial.items()
                        },
                        last_keys=dict(outcome.last_keys),
                        schedule=wave_schedule,
                    )
                    waves.append(record)
                    if not self._interleaved:
                        timings = wave_schedule.solve()
                        wave_end = max(
                            (timings[key].finish
                             for key in record.last_keys.values()
                             if key is not None),
                            default=start,
                        )
                        frontier = max(frontier, wave_end, start)
        finally:
            if self._interleaved and refresh_rounds:
                # The rounds kept one persistent memo window open; close
                # it so later standalone refreshes start cold.
                tsr._enclave.ecall("end_shared_refresh")

        # Resolve the plan: one final solve fixes every wave's timings
        # (monotonicity means mid-flight pins stayed valid lower bounds).
        timelines = {
            client.name: ClientTimeline(name=client.name,
                                        repo_id=client.repo_id)
            for client in fleet.clients
        }
        wall = frontier
        pull_latency = QuantileSketch()
        solved: dict[int, dict] = {}
        for record in waves:
            key_id = id(record.schedule)
            if key_id not in solved:
                solved[key_id] = record.schedule.solve()
            timings = solved[key_id]
            for name, (index_key, serial) in record.index_marks.items():
                landed = (timings[index_key].finish
                          if index_key is not None else record.started_at)
                timelines[name].transitions.append((landed, serial))
            for key in record.last_keys.values():
                if key is not None:
                    finish = timings[key].finish
                    wall = max(wall, finish)
                    if finish >= record.started_at:
                        # Keys older than the wave (a failed pull echoing
                        # its previous fetch) are not this wave's latency.
                        pull_latency.add(finish - record.started_at)
        if self._interleaved and schedule is not None:
            timings = schedule.solve()
            wall = max([wall, plan.enclave_free,
                        *plan.shard_free.values(),
                        *(t.finish for t in timings.values())])

        horizon = max(trace.horizon, wall)
        for timeline in timelines.values():
            timeline.transitions.sort()
            timeline.staleness = staleness_seconds(
                publishes, timeline.transitions, horizon)
            timeline.availability = availability_latencies(
                publishes, timeline.transitions)

        scenario.clock.advance(wall)
        return TraceReplayReport(
            mode=self._mode,
            rounds=len(refresh_rounds),
            clients=fleet.size,
            wall_elapsed=wall,
            horizon=horizon,
            installs=installs,
            failed_pulls=failed_pulls,
            failed_installs=failed_installs,
            publishes=publishes,
            refresh_rounds=refresh_rounds,
            timelines=timelines,
            delta_updates=self._delta_updates,
            pull_wire_bytes=pull_wire_bytes,
            delta_stats=fleet.delta_stats().as_dict(),
            pull_latency=pull_latency,
            replicas=len(self._replicas),
            replica_refusals=self._replica_refusals,
            replica_sync_bytes=sum(r.sync_bytes for r in self._replicas),
        )


    # -- streaming mode -------------------------------------------------------

    def _stale_window_width(self) -> float:
        """Window width for the time-resolved folds (default: the trace's
        round interval, else the horizon split evenly over its rounds)."""
        if self._window_seconds is not None:
            if self._window_seconds <= 0:
                raise ValueError(
                    f"window_seconds must be positive: {self._window_seconds}")
            return self._window_seconds
        interval = getattr(self._trace, "interval", None)
        if interval:
            return float(interval)
        width = self._trace.horizon / max(1, self._trace.rounds())
        return width if width > 0 else 1.0

    def _run_streaming(self) -> TraceReplayReport:
        scenario = self._scenario
        trace = self._trace
        tsr = scenario.tsr
        window = self._stale_window_width()

        schedule, plan = self._new_round_state()
        self._link_replicas(schedule)  # before the stream freezes links
        plan.persistent_enclave_memo = True
        plan.keep_timeline = False  # nothing streaming reads it; O(trace)
        scheduler = plan.scheduler
        stream = schedule.stream(0.0)
        session = PlanFetchSession(scenario.network, schedule)
        fleet = ClientFleet(
            scenario, self._clients, name_prefix=f"replay-{trace.seed}",
            session=session, client_downlink=self._client_downlink,
            tenants=self._tenants, delta_updates=self._delta_updates,
            lazy=True, shared_tpm_seed=self._shared_tpm_seed,
            replicas=self._replicas,
        )

        # Pre-scan the trace for each client's *final* pull wave (cheap:
        # one extra lazy generation pass, no events retained).  Once that
        # wave's last fetch drains, the client's node can be torn down.
        final_wave: dict[int, int] = {}
        final_all = -1
        wave_total = 0
        for ev in trace.iter_events():
            if ev.kind != "fleet_pull":
                continue
            if ev.clients is None:
                final_all = wave_total
            else:
                for i in ev.clients:
                    final_wave[i] = wave_total
            wave_total += 1

        #: Baseline: the pre-trace population is "publish zero".
        publishes: list[tuple[float, int]] = [(0.0, scenario.origin.serial)]
        pub_serials: list[int] = [scenario.origin.serial]
        for repo_id in self._tenants:
            try:
                tsr.get_index_bytes(repo_id)
            except PolicyError:
                continue  # tenant not refreshed before the trace
            tsr.record_publication(repo_id, 0.0)
        self._sync_replicas(0.0, schedule=schedule)

        # -- online metric folds (the whole point: no transition lists) --
        #: client name -> [serial, last landing, publish pointer, staleness].
        cstate: dict[str, list] = {}
        stale_sketch = QuantileSketch()
        avail_sketch = QuantileSketch()
        pull_latency = QuantileSketch()
        window_stale: list[float] = []
        window_avail: list[list[float]] = []
        avail_sum = 0.0
        avail_count = 0
        avail_max = 0.0

        def first_newer(serial: int) -> float:
            """Instant of the first publish strictly newer than ``serial``
            (inf: the client is caught up with everything published)."""
            i = bisect_right(pub_serials, serial)
            return publishes[i][0] if i < len(publishes) else math.inf

        def charge_windows(a: float, b: float):
            i = int(a // window)
            while a < b:
                edge = (i + 1) * window
                segment = min(b, edge) - a
                if segment > 0:
                    while len(window_stale) <= i:
                        window_stale.append(0.0)
                    window_stale[i] += segment
                a = edge
                i += 1

        def fold_transition(name: str, landed: float, serial: int):
            """One index landing: close the stale interval it ends (the
            telescoping sum of these equals :func:`staleness_seconds`
            exactly) and consume newly caught-up publishes."""
            nonlocal avail_sum, avail_count, avail_max
            state = cstate.get(name)
            if state is None:
                state = cstate[name] = [serial, landed, 0, 0.0]
                ptr = 0
            else:
                old_serial, t_last, ptr, total = state
                stale_from = max(t_last, first_newer(old_serial))
                if landed > stale_from:
                    total += landed - stale_from
                    charge_windows(stale_from, landed)
                state[0] = serial
                state[1] = landed
                state[3] = total
            while ptr < len(publishes) and pub_serials[ptr] <= serial:
                sample = landed - publishes[ptr][0]
                avail_sum += sample
                avail_count += 1
                if sample > avail_max:
                    avail_max = sample
                avail_sketch.add(sample)
                wi = int(publishes[ptr][0] // window)
                while len(window_avail) <= wi:
                    window_avail.append([0, 0.0, 0.0])
                cell = window_avail[wi]
                cell[0] += 1
                cell[1] += sample
                if sample > cell[2]:
                    cell[2] = sample
                ptr += 1
            state[2] = ptr

        # -- drained-key actions + retirement countdown ------------------
        mark_of: dict[object, tuple[str, int]] = {}
        #: last schedule key -> (client name, client index, wave start).
        last_of: dict[object, tuple[str, int, float]] = {}
        pending_last: dict[int, int] = {}
        last_registered: dict[int, object] = {}
        final_issued: set[int] = set()
        peak_live = 0
        peak_pending = 0

        def retire(index: int):
            pending_last.pop(index, None)
            last_registered.pop(index, None)
            fleet.retire(index, plan_session=session)

        def absorb(drained: dict):
            nonlocal peak_live, peak_pending
            if drained:
                scheduler.retire_settled(drained)
                for key, timing in drained.items():
                    mark = mark_of.pop(key, None)
                    if mark is not None:
                        fold_transition(mark[0], timing.finish, mark[1])
                    last = last_of.pop(key, None)
                    if last is not None:
                        pull_latency.add(timing.finish - last[2])
                        index = last[1]
                        pending_last[index] -= 1
                        if not pending_last[index] and index in final_issued:
                            retire(index)
            live = stream.live_channels
            if live > peak_live:
                peak_live = live
            pending = stream.pending_items
            if pending > peak_pending:
                peak_pending = pending

        refresh_totals = {
            "rounds": 0, "prescans": 0, "downloads_deduped": 0,
            "evicted_redownloads": 0, "downloaded_bytes": 0,
        }
        pull_wire_bytes: list[int] = []
        installs = 0
        failed_pulls = 0
        failed_installs = 0
        wave_ordinal = 0

        try:
            for event in trace.iter_events():
                stream.advance_to(event.at)
                absorb(stream.drain())
                start = event.at
                if event.kind == "publish":
                    publish_event(scenario, event, trace.seed)
                    publishes.append((event.at, scenario.origin.serial))
                    pub_serials.append(scenario.origin.serial)
                elif event.kind == "mirror_sync":
                    targets = (event.mirrors if event.mirrors is not None
                               else list(scenario.mirrors))
                    for name in targets:
                        scenario.mirrors[name].sync()
                elif event.kind == "refresh":
                    repo_ids = list(event.tenants or self._tenants)
                    report = RefreshOrchestrator(
                        tsr, repo_ids, max_streams=self._max_streams,
                        origin=start, plan_state=plan,
                        advance_clock=False,
                    ).run()
                    refresh_totals["rounds"] += 1
                    refresh_totals["prescans"] += report.prescans
                    refresh_totals["downloads_deduped"] += \
                        report.downloads_deduped
                    refresh_totals["evicted_redownloads"] += \
                        report.evicted_redownloads
                    refresh_totals["downloaded_bytes"] += \
                        report.downloaded_bytes
                    for repo_id in repo_ids:
                        tsr.record_publication(repo_id, report.finished_at)
                    self._sync_replicas(report.finished_at, repo_ids,
                                        schedule=schedule)
                elif event.kind == "fleet_pull":
                    indices = (range(fleet.size) if event.clients is None
                               else event.clients)
                    clients = fleet.subset(indices)
                    fleet.set_as_of(start)
                    if self._replicas:
                        self._heartbeat_replicas(start, schedule=schedule)
                        fleet.set_replica_refusals(
                            self._freshness_refusals(start))
                    session.begin_wave(start)
                    wave_rng = random.Random(
                        f"trace-pull:{trace.seed}:{event.seed}:{event.at}")
                    wire_before = session.total_wire_bytes
                    outcome = run_pull_wave(
                        clients, wave_rng, event.installs_per_client,
                        plan_session=session, tolerate_failures=True,
                    )
                    pull_wire_bytes.append(
                        session.total_wire_bytes - wire_before)
                    installs += outcome.installs
                    failed_pulls += outcome.failed_pulls
                    failed_installs += outcome.failed_installs
                    for name, serial in outcome.served_serial.items():
                        key = outcome.index_keys.get(name)
                        if key is None:
                            # No fetch was scheduled (e.g. answered from
                            # local state): the index lands at wave start.
                            fold_transition(name, start, serial)
                        else:
                            mark_of[key] = (name, serial)
                    name_to_index = {client.name: i
                                     for i, client in zip(indices, clients)}
                    for name, key in outcome.last_keys.items():
                        index = name_to_index[name]
                        # A failed pull can report a *previous* wave's key
                        # (possibly already drained): never re-register it.
                        if key is None or key == last_registered.get(index):
                            continue
                        last_registered[index] = key
                        last_of[key] = (name, index, start)
                        pending_last[index] = pending_last.get(index, 0) + 1
                    for index in indices:
                        if wave_ordinal == max(final_wave.get(index, -1),
                                               final_all):
                            final_issued.add(index)
                            if not pending_last.get(index):
                                retire(index)
                    wave_ordinal += 1
                    if stream.live_channels > peak_live:
                        peak_live = stream.live_channels
                    if stream.pending_items > peak_pending:
                        peak_pending = stream.pending_items
        finally:
            if refresh_totals["rounds"]:
                # The rounds kept one persistent memo window open; close
                # it so later standalone refreshes start cold.
                tsr._enclave.ecall("end_shared_refresh")

        # Resolve the tail: everything still pending finishes untouched by
        # any future load, so one O(active) clone solve fixes it.
        final_timings = stream.solve_pending()
        tail = []
        for key, (name, serial) in mark_of.items():
            tail.append((final_timings[key].finish, name, serial))
        tail.sort()
        for finish, name, serial in tail:
            fold_transition(name, finish, serial)
        for key, last in last_of.items():
            timing = final_timings.get(key)
            if timing is not None:
                pull_latency.add(timing.finish - last[2])
        wall = stream.max_finish
        for timing in final_timings.values():
            if timing.finish > wall:
                wall = timing.finish
        wall = max([wall, plan.enclave_free, *plan.shard_free.values()])

        # Horizon close-out: charge each client's still-open stale tail.
        horizon = max(trace.horizon, wall)
        stale_sum = 0.0
        stale_max = 0.0
        for name, (serial, t_last, _ptr, total) in cstate.items():
            open_from = max(t_last, first_newer(serial))
            if horizon > open_from:
                total += horizon - open_from
                charge_windows(open_from, horizon)
            stale_sum += total
            if total > stale_max:
                stale_max = total
            stale_sketch.add(total)
        never_pulled = fleet.size - len(cstate)
        if never_pulled:
            stale_sketch.add(0.0, weight=float(never_pulled))

        scenario.clock.advance(wall)
        summary = StreamingReplaySummary(
            staleness_sum=stale_sum,
            staleness_max=stale_max,
            staleness_sketch=stale_sketch,
            availability_sum=avail_sum,
            availability_count=avail_count,
            availability_max=avail_max,
            availability_sketch=avail_sketch,
            window_seconds=window,
            window_stale_seconds=window_stale,
            window_availability=window_avail,
            refresh_totals=refresh_totals,
            clients_booted=fleet.booted_total,
            peak_live_channels=peak_live,
            peak_pending_items=peak_pending,
            final_stream_stats=stream.stats(),
        )
        return TraceReplayReport(
            mode=self._mode,
            rounds=refresh_totals["rounds"],
            clients=fleet.size,
            wall_elapsed=wall,
            horizon=horizon,
            installs=installs,
            failed_pulls=failed_pulls,
            failed_installs=failed_installs,
            publishes=publishes,
            refresh_rounds=[],
            timelines={},
            delta_updates=self._delta_updates,
            pull_wire_bytes=pull_wire_bytes,
            delta_stats=fleet.delta_stats().as_dict(),
            streaming=summary,
            pull_latency=pull_latency,
            replicas=len(self._replicas),
            replica_refusals=self._replica_refusals,
            replica_sync_bytes=sum(r.sync_bytes for r in self._replicas),
        )


def replay_trace(scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved", **kwargs) -> TraceReplayReport:
    """Convenience wrapper: build a :class:`TraceReplay` and run it."""
    return TraceReplay(scenario, trace, clients=clients, mode=mode,
                       **kwargs).run()
