"""Synchronous request/response transport over the latency model.

Hosts register a handler; callers issue requests that advance the shared
:class:`SimClock` by RTT plus payload transfer plus handler processing time.
:meth:`Network.gather` models one concurrent fan-out wave (the quorum
reader contacts several mirrors at once): each request gets its own
channel, the clock advances to the *slowest completed* request, and each
response records its individual completion offset.  It has no options;
a caller with several waves calls it once per wave.

Parallel-transfer accounting: :meth:`Network.probe` resolves a request
without touching the clock, and the incremental solver in
:mod:`repro.simnet.schedule` (:class:`ParallelTransferSchedule`, re-exported
here) computes per-transfer completion offsets for many concurrent streams —
each channel serves one stream at a time at its own bandwidth, capped by its
channel's capacity layer (a client NIC), and all active streams share a
common link capacity max-min fairly.  The schedule is the *single* transfer
engine, and every schedule runs on one :class:`~repro.simnet.schedule.
ScheduleStream` core that begins at the schedule's start time:
:meth:`Network.gather` is built on it, as are the overlapped refresh's
downloads (:mod:`repro.core.pipeline`), the quorum reader
(:mod:`repro.core.quorum`, one ``gather`` per wave) and every client
fetch session.  There is one fetch session, :class:`PlanFetchSession`:
trace replay drives it wave by wave on a plan-wide schedule, and
:class:`ScheduledFetchSession` is the same session with one wave on a
private schedule (the client fleet of ``fleet_refresh``).

Failure injection: hosts can be taken down (requests fail after a timeout)
and pairs of hosts can be partitioned — the paper's adversary "prevents
network connection to the original repository and arbitrary mirrors".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.simnet.clock import SimClock
from repro.simnet.latency import (
    Continent,
    DEFAULT_BANDWIDTH_BYTES_PER_S,
    LatencyModel,
)
from repro.simnet.schedule import (  # noqa: F401  (re-exported)
    ParallelTransferSchedule,
    TransferTiming,
)
from repro.util.errors import NetworkError

DEFAULT_TIMEOUT_S = 5.0


@dataclass
class Request:
    """A request addressed to a host; ``payload`` is handler-defined."""

    target: str
    operation: str
    payload: object = None
    size_bytes: int = 256  # small control message by default


@dataclass
class Response:
    """Handler result plus transport accounting."""

    payload: object
    size_bytes: int
    elapsed: float  # seconds from issue to completion (simulated)


@dataclass
class TransferProbe:
    """A resolved request with raw transfer parameters, clock untouched.

    ``setup`` covers RTT, request upload, server processing and throttling;
    the payload phase is *not* pre-computed — callers schedule it against
    ``size_bytes`` and ``bandwidth`` so concurrent streams can share links.
    """

    payload: object
    size_bytes: int
    setup: float
    bandwidth: float

    @property
    def solo_duration(self) -> float:
        """Completion time when the stream runs with no contention."""
        return self.setup + self.size_bytes / self.bandwidth


@dataclass
class Host:
    """A network endpoint with a handler and failure state."""

    name: str
    continent: Continent
    handler: Callable[[str, object], tuple[object, int]] | None = None
    processing_time: float = 0.0005
    bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_S
    up: bool = True
    # Extra one-way delay, used to model overloaded or throttled mirrors.
    extra_delay: float = 0.0
    #: When set, concurrent ``gather`` responses share this sustained
    #: download bandwidth at the *receiving* host (the NIC bottleneck that
    #: makes quorum latency grow with mirror count, Fig. 13).
    downlink_bandwidth: float | None = None

    def handle(self, operation: str, payload: object) -> tuple[object, int]:
        if self.handler is None:
            raise NetworkError(f"host {self.name} has no handler registered")
        return self.handler(operation, payload)


class Network:
    """Host registry and transport; owns the latency model."""

    def __init__(self, clock: SimClock | None = None,
                 latency: LatencyModel | None = None,
                 timeout: float = DEFAULT_TIMEOUT_S):
        self.clock = clock or SimClock()
        self.latency = latency or LatencyModel()
        self.timeout = timeout
        self._hosts: dict[str, Host] = {}
        self._partitions: set[frozenset[str]] = set()

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise NetworkError(f"host already registered: {host.name}")
        self._hosts[host.name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host: {name}") from None

    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    def remove_host(self, name: str):
        """Forget a host entirely (a retired client releases its slot)."""
        self._hosts.pop(name, None)
        self._partitions = {pair for pair in self._partitions
                            if name not in pair}

    def set_down(self, name: str, down: bool = True):
        self.host(name).up = not down

    def partition(self, a: str, b: str):
        """Block traffic between two hosts (adversarial network control)."""
        self._partitions.add(frozenset([a, b]))

    def heal(self, a: str, b: str):
        self._partitions.discard(frozenset([a, b]))

    def _reachable(self, src: str, dst: str) -> bool:
        return frozenset([src, dst]) not in self._partitions

    def probe(self, src_name: str, request: Request) -> TransferProbe:
        """Resolve a request without advancing the clock.

        Executes the target's handler and returns the payload plus the raw
        transfer parameters (setup latency, response size, peer bandwidth)
        so schedulers can account the payload phase under contention.
        """
        src = self.host(src_name)
        dst = self.host(request.target)
        if not dst.up or not self._reachable(src.name, dst.name):
            # A dead or partitioned peer manifests as a timeout.
            raise NetworkError(
                f"request from {src.name} to {request.target} timed out "
                f"after {self.timeout}s"
            )
        rtt = self.latency.rtt(src.continent, dst.continent)
        payload_up = self.latency.transfer_time(request.size_bytes, dst.bandwidth)
        result, response_size = dst.handle(request.operation, request.payload)
        setup = rtt + payload_up + dst.processing_time + dst.extra_delay
        payload_down = self.latency.transfer_time(response_size, dst.bandwidth)
        if setup + payload_down > self.timeout:
            raise NetworkError(
                f"request from {src.name} to {request.target} exceeded "
                f"timeout ({setup + payload_down:.3f}s > {self.timeout}s)"
            )
        return TransferProbe(payload=result, size_bytes=response_size,
                             setup=setup, bandwidth=dst.bandwidth)

    def _completion_offset(self, src: Host, request: Request) -> tuple[object, int, float]:
        """Compute (response payload, response size, completion offset)."""
        probe = self.probe(src.name, request)
        return probe.payload, probe.size_bytes, probe.solo_duration

    def call(self, src_name: str, request: Request) -> Response:
        """Issue a single request; advances the clock by its full latency."""
        src = self.host(src_name)
        payload, size, offset = self._completion_offset(src, request)
        self.clock.advance(offset)
        return Response(payload=payload, size_bytes=size, elapsed=offset)

    def gather(self, src_name: str, requests: list[Request],
               ) -> list[Response | NetworkError]:
        """Issue requests concurrently, each on its own channel.

        Returns one entry per request: a :class:`Response` (its
        ``elapsed`` is the completion offset from the call) or the
        :class:`NetworkError` the request failed with.  The requests run
        on a fresh :class:`ParallelTransferSchedule` whose payload phases
        share the source host's ``downlink_bandwidth`` max-min fairly.
        The clock advances by the slowest *successful* completion —
        timeouts do not stall the caller, because the quorum logic
        proceeds as soon as it has enough answers — or by the timeout if
        every request failed.  An empty list returns ``[]`` and costs
        nothing.
        """
        src = self.host(src_name)
        if not requests:
            return []
        schedule = ParallelTransferSchedule(
            downlink_bandwidth=src.downlink_bandwidth)
        probes: list[TransferProbe | None] = [None] * len(requests)
        results: list[Response | NetworkError] = [None] * len(requests)
        for i, request in enumerate(requests):
            try:
                probe = self.probe(src_name, request)
            except NetworkError as exc:
                results[i] = exc
                continue
            probes[i] = probe
            schedule.enqueue(i, i, probe.setup, probe.size_bytes,
                             probe.bandwidth)
        timings = schedule.solve()
        finishes: list[float] = []
        for i, probe in enumerate(probes):
            if probe is None:
                continue
            finish = timings[i].finish
            results[i] = Response(payload=probe.payload,
                                  size_bytes=probe.size_bytes,
                                  elapsed=finish)
            finishes.append(finish)
        self.clock.advance(max(finishes) if finishes else self.timeout)
        return results


class PlanFetchSession:
    """Client fetches as channels of a transfer schedule, wave by wave.

    Each client is a channel: its requests serialize, as over one
    connection, while different clients' payload phases run concurrently
    and share the schedule's link max-min fairly.  :meth:`fetch` resolves
    the handler immediately (payloads are exact) and leaves the timing to
    the schedule, so a thousands-of-node fleet costs one event simulation
    instead of per-client clock serialization.

    The schedule may be plan-wide, shared with other traffic — a
    multi-round refresh plan's mirror downloads and quorum reads — and
    the session supports *successive waves at increasing start offsets*
    on the same persistent per-client channels.  The schedule's owner
    drives its :attr:`~ParallelTransferSchedule.stream`: it advances the
    frontier to each wave instant and reads the final timings of the
    keys :meth:`last_key` reports.

    :meth:`begin_wave` pins the wave instant: the first fetch of each
    channel in the wave carries a setup gap of ``max(0, wave_at -
    channel_free)``, with no solve needed — a live channel is by
    definition busy past the frontier (gap 0), a retired channel's last
    finish is exact, and a never-seen channel has been free since time 0.
    :meth:`retire_client` drops a rotated-out client's residue entirely.

    Per-client NICs are layered onto the schedule: when the fetching host
    declares a ``downlink_bandwidth``, its channel is capped at that rate,
    so a stream runs at ``min(peer bandwidth, client NIC, fair share of
    the link)``.  A failed fetch charges the network timeout to its
    channel (the client waited for it) and re-raises.
    """

    def __init__(self, network: Network, schedule: ParallelTransferSchedule):
        self._network = network
        self._schedule = schedule
        self._stream = schedule.stream
        self._sequence = 0
        self._wave_at = 0.0
        #: The only per-channel key history anyone reads (:meth:`last_key`).
        self._last_keys: dict[object, object] = {}
        self._channel_bytes: dict[object, int] = {}
        self._total_bytes = 0
        #: Channels whose first fetch of the current wave already pinned
        #: the wave gap.
        self._pinned: set[object] = set()

    def begin_wave(self, at: float):
        """Open a pull wave whose channels start no earlier than ``at``."""
        if at < self._wave_at:
            raise NetworkError(
                f"plan waves must be issued in time order: {at} < "
                f"{self._wave_at}"
            )
        self._wave_at = at
        self._pinned = set()

    def _wave_gap(self, channel: object) -> float:
        free = self._stream.channel_free(channel)
        if free is None:        # never fetched: free since time 0
            free = 0.0
        elif free == float("inf"):   # live: busy past the wave instant
            return 0.0
        return max(0.0, self._wave_at - free)

    def retire_client(self, channel: object):
        """Forget a rotated-out client's channel state entirely.

        Only valid when the channel will never fetch again (a streaming
        replay retiring a fleet client); its wire bytes stay counted in
        the totals.
        """
        self._stream.forget_channel(channel)
        self._last_keys.pop(channel, None)
        self._channel_bytes.pop(channel, None)
        self._pinned.discard(channel)

    def fetch(self, src_name: str, request: Request) -> object:
        """Resolve one request now; account its transfer on the plan, on
        the fetching host's channel."""
        key = ("pull", src_name, self._sequence)
        self._sequence += 1
        try:
            nic = self._network.host(src_name).downlink_bandwidth
        except NetworkError:
            nic = None  # unknown src: let probe() report it below
        if nic is not None:
            self._schedule.limit_channel(src_name, nic)
        extra_wait = 0.0
        if src_name not in self._pinned:
            self._pinned.add(src_name)
            extra_wait = self._wave_gap(src_name)
        # Serving-host routing: when the plan schedule declares the
        # target as a link (an edge replica's uplink), the payload
        # phase water-fills that link's pool instead of the default
        # (primary) one; the channel itself stays global, so a client
        # mixing replica and primary fetches still serializes them.
        link = request.target if self._schedule.has_link(request.target) \
            else None
        try:
            probe = self._network.probe(src_name, request)
        except NetworkError:
            # The client burned the timeout waiting before giving up.
            self._schedule.enqueue(src_name, key,
                                   extra_wait + self._network.timeout, 0, 1.0)
            self._last_keys[src_name] = key
            raise
        self._schedule.enqueue(src_name, key, extra_wait + probe.setup,
                               probe.size_bytes, probe.bandwidth, link=link)
        self._last_keys[src_name] = key
        self._channel_bytes[src_name] = \
            self._channel_bytes.get(src_name, 0) + probe.size_bytes
        self._total_bytes += probe.size_bytes
        return probe.payload

    def wire_bytes(self, channel: object) -> int:
        """Payload bytes fetched on one channel so far (failures cost 0)."""
        return self._channel_bytes.get(channel, 0)

    @property
    def total_wire_bytes(self) -> int:
        """Payload bytes fetched across every channel, all waves so far."""
        return self._total_bytes

    def last_key(self, channel: object) -> object | None:
        """Schedule key of the channel's most recent fetch (None if idle)."""
        return self._last_keys.get(channel)


class ScheduledFetchSession(PlanFetchSession):
    """One fan-out wave on a private schedule: solve once, read timings.

    A :class:`PlanFetchSession` with a single wave, opened at
    ``start_time`` on its own :class:`ParallelTransferSchedule`, whose
    link is ``shared_bandwidth`` — typically the serving host's uplink.
    :meth:`solve` runs the event simulation once (the accessors
    :meth:`channel_finish` and :attr:`makespan` solve on first use), and
    a solved session takes no more fetches.  A channel's first fetch
    carries the wave gap ``start_time``, so its setup phase ends at
    ``start_time + setup``, as on a schedule that begins there.
    """

    def __init__(self, network: Network,
                 shared_bandwidth: float | None = None,
                 start_time: float = 0.0):
        super().__init__(network, ParallelTransferSchedule(
            downlink_bandwidth=shared_bandwidth))
        self._start_time = start_time
        self._timings: dict[object, TransferTiming] | None = None
        self.begin_wave(start_time)

    @property
    def start_time(self) -> float:
        """The timeline offset this session's wave begins at."""
        return self._start_time

    def fetch(self, src_name: str, request: Request) -> object:
        """Resolve one request now; account its transfer at solve time."""
        if self._timings is not None:
            raise NetworkError("session already solved")
        return super().fetch(src_name, request)

    def solve(self) -> dict[object, TransferTiming]:
        """Run the event simulation once; repeat calls return the result."""
        if self._timings is None:
            self._timings = self._schedule.solve()
        return self._timings

    def channel_finish(self, channel: object) -> float:
        """Completion offset of a channel's last transfer.

        An idle channel reports the session's start time (it finished the
        moment it began).
        """
        timings = self.solve()
        key = self.last_key(channel)
        return self._start_time if key is None else timings[key].finish

    @property
    def makespan(self) -> float:
        """Completion offset of the slowest channel."""
        return max((t.finish for t in self.solve().values()),
                   default=self._start_time)
