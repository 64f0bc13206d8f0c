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

One event loop, :meth:`TraceReplay.run`, drives every mode.  Transfers
run on a *lane*: a :class:`~repro.simnet.schedule.ParallelTransferSchedule`
driven as a :class:`~repro.simnet.schedule.ScheduleStream`, whose shared
capacity models the TSR machine's NIC, together with the resumable
:class:`~repro.core.orchestrator.RefreshPlanState` that refresh rounds
extend (shared mirror channels, enclave frontier, cache-shard frontiers,
in-flight transfer table) and the
:class:`~repro.simnet.network.PlanFetchSession` that pins fleet waves at
their instants.  Before each event the loop advances the stream to the
event's instant, hands every settled transfer to the mode's recorder (a
client's index landing, a pull's completion) and retires the drained
download keys; ``solve_pending()`` resolves the tail.  The three modes
differ only in how many lanes there are, when events start, and what the
recorder keeps:

* ``mode="interleaved"`` — one lane for the whole trace, every event at
  its trace instant: round k+1's quorum widens while round k's fleet
  pulls still drain the uplink.  The recorder keeps each client's index
  transitions and each round's
  :class:`~repro.core.orchestrator.MultiTenantRefreshReport`, on an eager
  fleet.
* ``mode="streaming"`` — the same lane, hence the same timings, installs,
  served serials and published bytes, at O(active) memory: the recorder
  folds metrics online (no per-client transition lists, no per-round
  report list), and — when the trace rotates pull waves over a large lazy
  fleet — each client's node is torn down once its final wave drains.
  Staleness uses a lazy telescoping fold that equals
  :func:`staleness_seconds`, availability a per-client pointer into the
  publish list, and percentiles mergeable
  :class:`~repro.util.stats.QuantileSketch` aggregates plus per-window
  scalar curves (sums exact up to float re-association, percentiles
  within the sketch's rank-error bound).
* ``mode="serial"`` — the barrier composition
  (``multi_tenant_refresh()`` then a fleet fan-out, repeated): each
  refresh round and each pull wave runs alone on a fresh lane (and a
  fresh refresh plan), starts at the later of its trace instant and the
  previous event's finish, and is resolved before the next event.  Rounds
  arriving faster than they drain pile up.  It keeps the exact record,
  like ``interleaved``.

Pull latency is one sample per scheduled last-fetch key: wave start → the
client's last fetch of that wave settling.

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
    #: Per-pull completion latency: wave start → the client's last fetch
    #: of the wave settling, one sample per scheduled last-fetch key.
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

    def _availability_samples(self) -> list[float]:
        return [latency
                for timeline in self.timelines.values()
                for latency in timeline.availability.values()
                if latency is not None]

    @property
    def availability_mean(self) -> float:
        """Mean catch-up latency over every (publish, client) pair."""
        if self.streaming is not None:
            folded = self.streaming
            return (folded.availability_sum / folded.availability_count
                    if folded.availability_count else 0.0)
        samples = self._availability_samples()
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def availability_max(self) -> float:
        if self.streaming is not None:
            return self.streaming.availability_max
        return max(self._availability_samples(), default=0.0)

    def staleness_quantile(self, q: float) -> float:
        """``q``-th percentile of per-client staleness totals.

        Exact over the timelines in the serial and interleaved modes;
        within the sketch's rank-error bound in streaming mode.
        """
        if self.streaming is not None:
            return self.streaming.staleness_sketch.quantile(q)
        values = [t.staleness for t in self.timelines.values()]
        return percentile(values, q) if values else 0.0

    def availability_quantile(self, q: float) -> float:
        """``q``-th percentile of catch-up latency samples."""
        if self.streaming is not None:
            return self.streaming.availability_sketch.quantile(q)
        samples = self._availability_samples()
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


# -- recorders: what a replay keeps of its settled transfers ------------------


class _Recorder:
    """What every mode keeps: the publishes, the pull-wave counters, and
    per-pull completion latency."""

    def __init__(self):
        self.publishes: list[tuple[float, int]] = []
        self.pull_wire_bytes: list[int] = []
        self.installs = 0
        self.failed_pulls = 0
        self.failed_installs = 0
        self.pull_latency = QuantileSketch()
        #: Latest settled pull completion (the serial mode's wave barrier).
        self.pulls_done = 0.0

    def publish(self, at: float, serial: int):
        self.publishes.append((at, serial))

    def wave(self, outcome, wire_bytes: int):
        self.pull_wire_bytes.append(wire_bytes)
        self.installs += outcome.installs
        self.failed_pulls += outcome.failed_pulls
        self.failed_installs += outcome.failed_installs

    def pulled(self, started: float, finish: float):
        self.pull_latency.add(finish - started)
        if finish > self.pulls_done:
            self.pulls_done = finish


class _ExactRecorder(_Recorder):
    """``serial`` and ``interleaved``: every client's index landings and
    every round's report, reduced to metrics once the horizon is known."""

    def __init__(self, clients):
        super().__init__()
        self.rounds: list[MultiTenantRefreshReport] = []
        self.timelines = {
            client.name: ClientTimeline(name=client.name,
                                        repo_id=client.repo_id)
            for client in clients
        }

    def round(self, report: MultiTenantRefreshReport):
        self.rounds.append(report)

    def landed(self, name: str, at: float, serial: int):
        self.timelines[name].transitions.append((at, serial))

    def close(self, horizon: float, fleet: ClientFleet, lane) -> dict:
        for timeline in self.timelines.values():
            timeline.transitions.sort()
            timeline.staleness = staleness_seconds(
                self.publishes, timeline.transitions, horizon)
            timeline.availability = availability_latencies(
                self.publishes, timeline.transitions)
        return {"rounds": len(self.rounds), "refresh_rounds": self.rounds,
                "timelines": self.timelines}


class _FoldingRecorder(_Recorder):
    """``streaming``: the same metrics folded online as transfers settle.

    Per client it keeps the current serial, the last landing instant, a
    pointer into the publish list and the staleness so far.  Each landing
    at ``t'`` charges ``max(0, t' - max(t_last, P(s)))``, where ``P(s)``
    is the first publish instant with a serial newer than the client's
    current ``s``; the charges telescope to exactly
    :func:`staleness_seconds`.  The landing then consumes every publish
    it catches up with as one availability sample.
    """

    def __init__(self, window: float):
        super().__init__()
        self.window = window
        self._serials: list[int] = []
        #: client name -> [serial, last landing, publish pointer, staleness].
        self._clients: dict[str, list] = {}
        self._window_stale: list[float] = []
        self._window_avail: list[list[float]] = []
        self._avail_sketch = QuantileSketch()
        self._avail_sum = 0.0
        self._avail_count = 0
        self._avail_max = 0.0
        self._totals = {
            "rounds": 0, "prescans": 0, "downloads_deduped": 0,
            "evicted_redownloads": 0, "downloaded_bytes": 0,
        }

    def publish(self, at: float, serial: int):
        super().publish(at, serial)
        self._serials.append(serial)

    def round(self, report: MultiTenantRefreshReport):
        totals = self._totals
        totals["rounds"] += 1
        for counter in ("prescans", "downloads_deduped",
                        "evicted_redownloads", "downloaded_bytes"):
            totals[counter] += getattr(report, counter)

    def _first_newer(self, serial: int) -> float:
        """Instant of the first publish strictly newer than ``serial``
        (inf: the client is caught up with everything published)."""
        i = bisect_right(self._serials, serial)
        return self.publishes[i][0] if i < len(self.publishes) else math.inf

    def _charge_windows(self, a: float, b: float):
        window = self.window
        stale = self._window_stale
        i = int(a // window)
        while a < b:
            edge = (i + 1) * window
            segment = min(b, edge) - a
            if segment > 0:
                while len(stale) <= i:
                    stale.append(0.0)
                stale[i] += segment
            a = edge
            i += 1

    def landed(self, name: str, at: float, serial: int):
        state = self._clients.get(name)
        if state is None:
            state = self._clients[name] = [serial, at, 0, 0.0]
            ptr = 0
        else:
            old_serial, t_last, ptr, total = state
            stale_from = max(t_last, self._first_newer(old_serial))
            if at > stale_from:
                total += at - stale_from
                self._charge_windows(stale_from, at)
            state[0] = serial
            state[1] = at
            state[3] = total
        publishes = self.publishes
        serials = self._serials
        while ptr < len(publishes) and serials[ptr] <= serial:
            sample = at - publishes[ptr][0]
            self._avail_sum += sample
            self._avail_count += 1
            if sample > self._avail_max:
                self._avail_max = sample
            self._avail_sketch.add(sample)
            wi = int(publishes[ptr][0] // self.window)
            while len(self._window_avail) <= wi:
                self._window_avail.append([0, 0.0, 0.0])
            cell = self._window_avail[wi]
            cell[0] += 1
            cell[1] += sample
            if sample > cell[2]:
                cell[2] = sample
            ptr += 1
        state[2] = ptr

    def close(self, horizon: float, fleet: ClientFleet, lane) -> dict:
        # Horizon close-out: charge each client's still-open stale tail.
        stale_sketch = QuantileSketch()
        stale_sum = 0.0
        stale_max = 0.0
        for serial, t_last, _ptr, total in self._clients.values():
            open_from = max(t_last, self._first_newer(serial))
            if horizon > open_from:
                total += horizon - open_from
                self._charge_windows(open_from, horizon)
            stale_sum += total
            if total > stale_max:
                stale_max = total
            stale_sketch.add(total)
        never_pulled = fleet.size - len(self._clients)
        if never_pulled:
            stale_sketch.add(0.0, weight=float(never_pulled))
        summary = StreamingReplaySummary(
            staleness_sum=stale_sum,
            staleness_max=stale_max,
            staleness_sketch=stale_sketch,
            availability_sum=self._avail_sum,
            availability_count=self._avail_count,
            availability_max=self._avail_max,
            availability_sketch=self._avail_sketch,
            window_seconds=self.window,
            window_stale_seconds=self._window_stale,
            window_availability=self._window_avail,
            refresh_totals=self._totals,
            clients_booted=fleet.booted_total,
            peak_live_channels=lane.peak_live,
            peak_pending_items=lane.peak_pending,
            final_stream_stats=lane.stream.stats(),
        )
        return {"rounds": self._totals["rounds"], "refresh_rounds": [],
                "timelines": {}, "streaming": summary}


# -- lanes and fleet rotation -------------------------------------------------


class _Lane:
    """One transfer stream and what enqueues onto it.

    A lane owns a :class:`ParallelTransferSchedule` at the replay's NIC
    capacity (advanced through its ``stream``), the
    :class:`RefreshPlanState` whose rounds extend it, the
    :class:`PlanFetchSession` fleet waves pull through, and the pull
    keys whose completions the replay still awaits.
    """

    def __init__(self, scenario: Scenario, capacity: float, replicas):
        schedule = ParallelTransferSchedule(downlink_bandwidth=capacity)
        network = scenario.network
        for replica in replicas:
            # One uplink pool per replica host.
            schedule.add_link(replica.hostname,
                              network.host(replica.hostname).bandwidth)
        self.schedule = schedule
        self.stream = schedule.stream
        self.plan = RefreshPlanState(scheduler=MirrorDownloadScheduler(
            scenario.tsr, schedule=schedule))
        self.session = PlanFetchSession(network, schedule)
        #: Index-fetch key -> (client name, served serial).
        self.marks: dict[object, tuple[str, int]] = {}
        #: Last-fetch key -> (client index, wave start).
        self.lasts: dict[object, tuple[int, float]] = {}
        #: Client index -> its last key registered here.  A failed pull
        #: can echo an earlier wave's key (possibly drained already),
        #: which must never count twice.
        self.registered: dict[int, object] = {}
        #: Peaks of the stream's live footprint, sampled at every drain
        #: and after every wave.
        self.peak_live = 0
        self.peak_pending = 0

    def sample(self):
        stream = self.stream
        if stream.live_channels > self.peak_live:
            self.peak_live = stream.live_channels
        if stream.pending_items > self.peak_pending:
            self.peak_pending = stream.pending_items


class _Rotation:
    """Tears down a lazy fleet's clients once their final wave drains.

    The trace is pre-scanned for each client's final pull wave (one extra
    lazy generation pass, no events retained).  A client's fetches
    serialize on its own channel, so its latest registered key is the
    last to drain: once that key has drained and the final wave has been
    issued, the client never pulls again.
    """

    def __init__(self, fleet: ClientFleet, trace: Trace):
        self._fleet = fleet
        self._final: dict[int, int] = {}
        self._final_all = -1
        #: Pull waves issued so far.
        self._waves = 0
        waves = 0
        for event in trace.iter_events():
            if event.kind != "fleet_pull":
                continue
            if event.clients is None:
                self._final_all = waves
            else:
                for i in event.clients:
                    self._final[i] = waves
            waves += 1

    def _final_wave(self, index: int) -> int:
        return max(self._final.get(index, -1), self._final_all)

    def drained(self, index: int, key: object, lane: _Lane):
        if (self._final_wave(index) < self._waves
                and key == lane.registered.get(index)):
            self._retire(index, lane)

    def wave_issued(self, indices, lane: _Lane):
        for index in indices:
            if (self._final_wave(index) == self._waves
                    and lane.registered.get(index) not in lane.lasts):
                self._retire(index, lane)
        self._waves += 1

    def _retire(self, index: int, lane: _Lane):
        lane.registered.pop(index, None)
        self._fleet.retire(index, plan_session=lane.session)


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
    docstring for the event loop and its three modes.
    """

    def __init__(self, scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved",
                 link_bandwidth: float | None = None,
                 delta_updates: bool = False,
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
        #: The shared-NIC capacity every transfer of the plan contends
        #: for (half-duplex model: refresh downloads and client serving
        #: share the TSR machine's one NIC in every mode).
        self._capacity = (
            link_bandwidth if link_bandwidth is not None
            else scenario.network.host(scenario.tsr.hostname).bandwidth
        )
        self._clients = clients
        self._delta_updates = delta_updates
        #: Forwarded to :class:`ClientFleet`: one memoized attestation
        #: keypair for the whole fleet instead of a prime search per
        #: client boot.  Replay metrics never read the attestation key,
        #: so every mode produces identical reports either way — set it
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
        published = scenario.tsr.publication_log
        for replica in self._replicas:
            for repo_id in scenario.tenants:
                if published.publication_at(repo_id, as_of) is None:
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

    # -- the event loop -------------------------------------------------------

    def _lane(self) -> _Lane:
        return _Lane(self._scenario, self._capacity, self._replicas)

    def _stale_window_width(self) -> float:
        """Window width for the time-resolved folds: the trace's round
        interval, else the horizon split evenly over its rounds."""
        interval = getattr(self._trace, "interval", None)
        if interval:
            return float(interval)
        width = self._trace.horizon / max(1, self._trace.rounds())
        return width if width > 0 else 1.0

    def run(self) -> TraceReplayReport:
        scenario = self._scenario
        trace = self._trace
        tsr = scenario.tsr
        streaming = self._mode == "streaming"
        # Interleaved and streaming replays run the whole trace on one
        # lane, whose rounds keep one enclave memo window open: steady-
        # state rounds replay unchanged blobs' analyses at their recorded
        # costs instead of re-parsing them (host time only — every
        # simulated duration and per-round counter is unchanged).
        shared = None
        if self._mode != "serial":
            shared = self._lane()
            shared.plan.persistent_enclave_memo = True
        fleet = self._fleet = ClientFleet(
            scenario, self._clients, name_prefix=f"replay-{trace.seed}",
            tenants=scenario.tenants,
            delta_updates=self._delta_updates, lazy=streaming,
            shared_tpm_seed=self._shared_tpm_seed, replicas=self._replicas,
        )
        self._rotation = _Rotation(fleet, trace) if fleet.lazy else None
        recorder = self._recorder = (
            _FoldingRecorder(self._stale_window_width()) if streaming
            else _ExactRecorder(fleet.clients))

        #: Baseline: the pre-trace population is "publish zero".
        recorder.publish(0.0, scenario.origin.serial)
        for repo_id in scenario.tenants:
            try:
                tsr.get_index_bytes(repo_id)
            except PolicyError:
                continue  # tenant not refreshed before the trace
            tsr.record_publication(repo_id, 0.0)
        self._sync_replicas(
            0.0, schedule=None if shared is None else shared.schedule)

        #: The latest refresh finish; in serial mode also the wave
        #: barrier every later round and wave starts behind.
        frontier = 0.0
        try:
            for event in trace.iter_events():
                if shared is not None:
                    shared.stream.advance_to(event.at)
                    self._settle(shared, shared.stream.drain())
                if event.kind == "publish":
                    publish_event(scenario, event, trace.seed)
                    recorder.publish(event.at, scenario.origin.serial)
                elif event.kind == "mirror_sync":
                    targets = (event.mirrors if event.mirrors is not None
                               else list(scenario.mirrors))
                    for name in targets:
                        scenario.mirrors[name].sync()
                else:
                    # Serial runs each round and wave alone on a fresh
                    # lane, from the previous one's finish at the earliest.
                    lane = shared or self._lane()
                    start = event.at if shared else max(event.at, frontier)
                    if event.kind == "refresh":
                        frontier = max(frontier,
                                       self._refresh(lane, event, start))
                    else:
                        self._pull(lane, event, start)
                    if lane is not shared:
                        # The serial barrier is the event's own outcome —
                        # the round's publication, its clients' last
                        # fetches — not the replica syncs on its lane.
                        self._resolve(lane)
                        frontier = max(frontier, start, recorder.pulls_done)
        finally:
            if shared is not None and shared.plan.rounds:
                # The rounds kept one persistent memo window open; close
                # it so later standalone refreshes start cold.
                tsr._enclave.ecall("end_shared_refresh")

        wall = frontier
        if shared is not None:
            wall = max(wall, self._resolve(shared))
        horizon = max(trace.horizon, wall)
        scenario.clock.advance(wall)
        return TraceReplayReport(
            mode=self._mode,
            clients=fleet.size,
            wall_elapsed=wall,
            horizon=horizon,
            installs=recorder.installs,
            failed_pulls=recorder.failed_pulls,
            failed_installs=recorder.failed_installs,
            publishes=recorder.publishes,
            delta_updates=self._delta_updates,
            pull_wire_bytes=recorder.pull_wire_bytes,
            delta_stats=fleet.delta_stats().as_dict(),
            pull_latency=recorder.pull_latency,
            replicas=len(self._replicas),
            replica_refusals=self._replica_refusals,
            replica_sync_bytes=sum(r.sync_bytes for r in self._replicas),
            **recorder.close(horizon, fleet, shared),
        )

    def _refresh(self, lane: _Lane, event: TraceEvent, start: float) -> float:
        """Run one refresh round on the lane's plan; return its finish."""
        tsr = self._scenario.tsr
        repo_ids = list(event.tenants or self._scenario.tenants)
        report = RefreshOrchestrator(tsr, repo_ids, origin=start,
                                     plan_state=lane.plan).run()
        self._recorder.round(report)
        for repo_id in repo_ids:
            tsr.record_publication(repo_id, report.finished_at)
        self._sync_replicas(report.finished_at, repo_ids,
                            schedule=lane.schedule)
        return report.finished_at

    def _pull(self, lane: _Lane, event: TraceEvent, start: float):
        """Run one pull wave through the lane's session; register the
        fetch keys whose completions the recorder awaits."""
        fleet = self._fleet
        session = lane.session
        indices = (range(fleet.size) if event.clients is None
                   else event.clients)
        fleet.use_session(session)
        clients = fleet.subset(indices)
        fleet.set_as_of(start)
        if self._replicas:
            self._heartbeat_replicas(start, schedule=lane.schedule)
            fleet.set_replica_refusals(self._freshness_refusals(start))
        session.begin_wave(start)
        # Event-local RNG (like publish batches): a wave's install choices
        # depend on the trace seed and the event's own seed, never on
        # ambient state or other waves' draws.
        wave_rng = random.Random(
            f"trace-pull:{self._trace.seed}:{event.seed}:{event.at}")
        wire_before = session.total_wire_bytes
        outcome = run_pull_wave(
            clients, wave_rng, event.installs_per_client,
            plan_session=session, tolerate_failures=True,
        )
        recorder = self._recorder
        recorder.wave(outcome, session.total_wire_bytes - wire_before)
        for name, serial in outcome.served_serial.items():
            key = outcome.index_keys.get(name)
            if key is None:
                # No fetch was scheduled: the index lands at wave start.
                recorder.landed(name, start, serial)
            else:
                lane.marks[key] = (name, serial)
        for index, client in zip(indices, clients):
            key = outcome.last_keys.get(client.name)
            if key is None or key == lane.registered.get(index):
                continue
            lane.registered[index] = key
            lane.lasts[key] = (index, start)
        if self._rotation is not None:
            self._rotation.wave_issued(indices, lane)
        lane.sample()

    def _settle(self, lane: _Lane, drained: dict):
        """Hand drained transfers to the recorder and retire their keys."""
        if drained:
            lane.plan.scheduler.retire_settled(drained)
            recorder = self._recorder
            for key, timing in drained.items():
                mark = lane.marks.pop(key, None)
                if mark is not None:
                    recorder.landed(mark[0], timing.finish, mark[1])
                last = lane.lasts.pop(key, None)
                if last is not None:
                    recorder.pulled(last[1], timing.finish)
                    if self._rotation is not None:
                        self._rotation.drained(last[0], key, lane)
        lane.sample()

    def _resolve(self, lane: _Lane) -> float:
        """Settle everything still pending on a lane; return the instant
        of its last activity (transfers, enclave, disk).

        Pending transfers finish untouched by any future load, so one
        O(active) clone solve fixes them; index landings reach the
        recorder in finish order.
        """
        tail = lane.stream.solve_pending()
        recorder = self._recorder
        landings = sorted((tail[key].finish, name, serial)
                          for key, (name, serial) in lane.marks.items())
        for finish, name, serial in landings:
            recorder.landed(name, finish, serial)
        for key, (_, started) in lane.lasts.items():
            recorder.pulled(started, tail[key].finish)
        lane.marks.clear()
        lane.lasts.clear()
        plan = lane.plan
        return max([lane.stream.max_finish,
                    *(timing.finish for timing in tail.values()),
                    plan.enclave_free, *plan.shard_free.values()])


def replay_trace(scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved", **kwargs) -> TraceReplayReport:
    """Convenience wrapper: build a :class:`TraceReplay` and run it."""
    return TraceReplay(scenario, trace, clients=clients, mode=mode,
                       **kwargs).run()
