"""Streaming-scale differential suite: the event-stream solver API,
lazy trace generation, the retirable client fleet, and the streaming
replay mode.

The contract under test everywhere: streaming is a *memory*
representation change, not a behaviour change.  Transfer timings are
bit-identical to a solve of the never-advanced core (advancing replays
the same engine on the same enqueues), discrete replay outcomes
(installs, served serials, published bytes) are exact, and metric sums
differ only by float re-association; solver/fleet state must track the
*active* streams, not the whole history.
"""

import math
import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.simnet.schedule import ParallelTransferSchedule
from repro.workload.generator import (
    StreamingTrace,
    Trace,
    TraceEvent,
    generate_trace,
)
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    ClientFleet,
    build_scenario,
    multi_tenant_refresh,
)


# -- solver event stream -------------------------------------------------------


def _random_plan(rng):
    """A multi-wave enqueue plan: (channel, key, setup, size, bandwidth,
    wave offset) tuples grouped into nondecreasing wave instants."""
    waves = []
    at = 0.0
    for w in range(rng.randint(2, 5)):
        at += rng.uniform(0.0, 4.0)
        items = []
        for i in range(rng.randint(1, 6)):
            channel = f"ch-{rng.randint(0, 5)}"
            items.append((
                channel,
                ("k", w, i),
                rng.uniform(0.0, 0.5),
                rng.choice((0, rng.randint(1, 500_000))),
                rng.uniform(0.5, 20.0),
            ))
        waves.append((at, items))
    return waves


class TestScheduleStream:
    def test_stream_matches_one_shot_solve_exactly(self):
        for seed in range(12):
            rng = random.Random(f"stream-diff:{seed}")
            waves = _random_plan(rng)
            capacity = rng.uniform(5.0, 40.0)

            control = ParallelTransferSchedule(downlink_bandwidth=capacity)
            streamed = ParallelTransferSchedule(downlink_bandwidth=capacity)
            stream = streamed.stream
            collected = {}
            for at, items in waves:
                stream.advance_to(at)
                collected.update(stream.drain())
                for channel, key, setup, size, bandwidth in items:
                    gap = stream.channel_free(channel)
                    if gap is None:
                        gap = 0.0
                    elif gap == math.inf:
                        gap = at  # live channel: no wave gap
                    extra = max(0.0, at - gap) if gap != at else 0.0
                    control.enqueue(channel, key, setup + extra, size,
                                    bandwidth)
                    streamed.enqueue(channel, key, setup + extra, size,
                                     bandwidth)
            collected.update(stream.solve_pending())

            reference = control.solve()
            assert set(collected) == set(reference)
            for key, timing in reference.items():
                assert collected[key].start == timing.start, (seed, key)
                assert collected[key].finish == timing.finish, (seed, key)

    def test_retirement_bounds_live_state(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        stream = schedule.stream
        for wave in range(50):
            at = float(wave)
            stream.advance_to(at)
            stream.drain()
            # Each wave uses fresh channels; old ones must retire.
            for i in range(4):
                schedule.enqueue(f"c-{wave}-{i}", ("k", wave, i),
                                 at + 0.01, 10, 50.0)
            stats = stream.stats()
            assert stats["live_channels"] <= 8
            assert stats["queued_cells"] <= 8
        stream.advance_to(51.0)
        stream.drain()
        stats = stream.stats()
        assert stats["live_channels"] == 0
        assert stats["pending_items"] == 0
        assert stats["total_settled"] == stats["total_enqueued"] == 200
        # Slots are recycled, not grown per channel.
        assert stats["free_slots"] <= 8

    def test_frontier_rules(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        stream = schedule.stream
        stream.advance_to(5.0)
        with pytest.raises(ValueError):
            stream.advance_to(4.0)
        # An enqueue whose setup ends before the frontier is rejected:
        # the stream cannot rewrite already-settled history.
        with pytest.raises(ValueError):
            schedule.enqueue("late", ("late", 0), 1.0, 100, 5.0)

    def test_channel_free_and_forget(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        stream = schedule.stream
        schedule.enqueue("a", ("a", 0), 0.5, 10, 5.0)
        assert stream.channel_free("a") == math.inf
        assert stream.channel_free("never") is None
        with pytest.raises(ValueError):
            stream.forget_channel("a")
        stream.advance_to(100.0)
        timings = stream.drain()
        assert stream.channel_free("a") == timings[("a", 0)].finish
        stream.forget_channel("a")
        assert stream.channel_free("a") is None

    def test_streaming_schedule_guards(self):
        fresh = ParallelTransferSchedule(downlink_bandwidth=10.0,
                                         start_time=1.0)
        fresh.limit_channel("a", 4.0)
        fresh.limit_channel("a", 4.0)  # same cap: fine
        with pytest.raises(ValueError):
            fresh.limit_channel("a", 8.0)  # cap changes need re-solving

    def test_solve_on_stream_reports_pending(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        stream = schedule.stream
        schedule.enqueue("a", ("a", 0), 0.0, 100, 5.0)
        schedule.enqueue("a", ("a", 1), 0.0, 100, 5.0)
        mid = schedule.solve()
        assert set(mid) == {("a", 0), ("a", 1)}
        stream.advance_to(1000.0)
        drained = stream.drain()
        for key, timing in drained.items():
            assert mid[key].start == timing.start
            assert mid[key].finish == timing.finish
        # Drained items vanish from subsequent mid-plan solves.
        assert schedule.solve() == {}


# -- streaming trace generation ------------------------------------------------


class TestStreamingTrace:
    KW = dict(
        rounds=7, interval=1.0, publish_fraction=0.2,
        sync_lag=0.1, refresh_lag=0.3, pull_lag=2.4,  # overlapping rounds
        mirror_names=["m1", "m2", "m3"],
        lagging_mirrors={"m2": 0.7}, frozen_mirrors=("m3",),
        fleet_size=9, clients_per_wave=4, seed=21,
    )

    def test_streamed_order_matches_materialized(self):
        materialized = generate_trace(**self.KW)
        streamed = generate_trace(**self.KW, streaming=True)
        assert isinstance(streamed, StreamingTrace)
        assert list(streamed.iter_events()) == materialized.ordered()
        assert streamed.horizon == materialized.horizon
        assert streamed.rounds() == materialized.rounds()

    def test_iter_events_is_restartable(self):
        streamed = generate_trace(**self.KW, streaming=True)
        assert list(streamed.iter_events()) == list(streamed.iter_events())

    def test_rotation_covers_every_client(self):
        streamed = generate_trace(**self.KW, streaming=True)
        pulled = set()
        per_wave = []
        for event in streamed.iter_events():
            if event.kind == "fleet_pull":
                assert event.clients is not None
                per_wave.append(len(event.clients))
                pulled.update(event.clients)
        assert pulled == set(range(9))
        assert all(count == 4 for count in per_wave)

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            generate_trace(rounds=2, interval=1.0, fleet_size=10)
        with pytest.raises(ValueError):
            generate_trace(rounds=2, interval=1.0, clients_per_wave=3)

    def test_ordered_cache_returns_same_object(self):
        trace = generate_trace(rounds=3, interval=1.0)
        first = trace.ordered()
        assert trace.ordered() is first  # no re-sort per access
        trace.events.append(TraceEvent(at=99.0, kind="publish"))
        second = trace.ordered()
        assert second is not first
        assert second[-1].at == 99.0
        assert trace.ordered() is second

    def test_trace_iter_events_matches_ordered(self):
        trace = generate_trace(rounds=3, interval=1.0)
        assert list(trace.iter_events()) == trace.ordered()


# -- lazy / retirable fleet ----------------------------------------------------


def _mini_packages(count=8, reps=1500):
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        packages.append(ApkPackage(
            name=f"pkg-{i:02d}", version="1.0-r0", scripts=scripts,
            files=[PackageFile(f"/usr/bin/pkg{i}",
                               (b"\x7fELF" + bytes([i])) * reps)],
        ))
    return packages


def _replay_scenario():
    scenario = build_scenario(packages=_mini_packages(), refresh=False,
                              with_monitor=False)
    multi_tenant_refresh(scenario)  # bootstrap publication
    return scenario


class TestLazyFleet:
    def test_lazy_boots_on_demand(self):
        scenario = _replay_scenario()
        fleet = ClientFleet(scenario, 10, name_prefix="lazy", lazy=True)
        assert fleet.booted_total == 0
        assert fleet.active_count == 0
        client = fleet.client(3)
        assert client.name == "lazy-003"
        assert fleet.client(3) is client  # cached, not re-booted
        assert fleet.booted_total == 1
        assert "lazy-003" in scenario.nodes
        assert fleet.subset([3, 7]) == [client, fleet.client(7)]
        assert fleet.booted_total == 2
        assert [c.name for c in fleet.clients] == ["lazy-003", "lazy-007"]
        with pytest.raises(IndexError):
            fleet.client(10)

    def test_retire_releases_node_and_keeps_stats(self):
        scenario = _replay_scenario()
        fleet = ClientFleet(scenario, 4, name_prefix="ret", lazy=True,
                            delta_updates=True)
        client = fleet.client(1)
        client.manager.update()
        client.manager.install("pkg-01")
        before = fleet.delta_stats().as_dict()
        fleet.retire(1)
        assert fleet.active_count == 0
        assert "ret-001" not in scenario.nodes
        with pytest.raises(Exception):
            scenario.network.host("ret-001")
        # Accounting of the retired client survives its node.
        assert fleet.delta_stats().as_dict() == before
        fleet.retire(1)  # idempotent

    def test_set_as_of_applies_at_boot(self):
        scenario = _replay_scenario()
        fleet = ClientFleet(scenario, 3, name_prefix="asof", lazy=True)
        fleet.set_as_of(12.5)
        assert fleet.client(0).manager.client.as_of == 12.5
        fleet.set_as_of(14.0)
        assert fleet.client(0).manager.client.as_of == 14.0
        assert fleet.client(1).manager.client.as_of == 14.0

    def test_eager_fleet_unchanged(self):
        scenario = _replay_scenario()
        fleet = ClientFleet(scenario, 3, name_prefix="eager")
        assert fleet.booted_total == 3
        assert len(fleet.clients) == 3
        assert fleet.client(2).name == "eager-002"


# -- streaming replay differential --------------------------------------------


def _assert_replay_equivalent(materialized, streaming):
    """Discrete outcomes exact; folded metric sums equal up to float
    re-association; percentiles within the sketch's error contract."""
    for attr in ("rounds", "clients", "installs", "failed_pulls",
                 "failed_installs", "client_wire_bytes", "downloaded_bytes",
                 "deduped_downloads", "evicted_redownloads", "prescans",
                 "pull_wire_bytes", "publishes", "wall_elapsed", "horizon"):
        assert getattr(materialized, attr) == getattr(streaming, attr), attr
    # Both modes feed their recorders the same drained timings.
    assert materialized.pull_latency.count == streaming.pull_latency.count
    for q in (0, 50, 95, 100):
        assert materialized.pull_latency_quantile(q) == \
            streaming.pull_latency_quantile(q), q
    for attr in ("staleness_mean", "staleness_max", "availability_mean",
                 "availability_max"):
        assert getattr(streaming, attr) == pytest.approx(
            getattr(materialized, attr), rel=1e-9, abs=1e-9), attr
    folded = streaming.streaming
    assert folded is not None
    assert folded.staleness_sketch.count == streaming.clients
    # Windowed fold conserves total stale mass.
    assert sum(folded.window_stale_seconds) == pytest.approx(
        folded.staleness_sum, rel=1e-9, abs=1e-9)
    exact_samples = [
        latency
        for timeline in materialized.timelines.values()
        for latency in timeline.availability.values()
        if latency is not None
    ]
    assert folded.availability_count == len(exact_samples)
    # Quantile surface: sketch rank error, loose value check here (the
    # sketch suite pins the tight bound).
    for q in (5, 50, 95):
        assert streaming.staleness_quantile(q) == pytest.approx(
            materialized.staleness_quantile(q), rel=0.25, abs=1e-6)
        assert streaming.availability_quantile(q) == pytest.approx(
            materialized.availability_quantile(q), rel=0.25, abs=1e-6)


class TestStreamingReplay:
    def test_whole_fleet_trace_equivalence(self):
        kwargs = dict(rounds=4, interval=3.0, publish_fraction=0.2, seed=5)
        materialized = replay_trace(
            _replay_scenario(), generate_trace(**kwargs),
            clients=6, mode="interleaved")
        streaming = replay_trace(
            _replay_scenario(), generate_trace(**kwargs, streaming=True),
            clients=6, mode="streaming")
        _assert_replay_equivalent(materialized, streaming)
        # Whole-fleet waves boot everyone; nothing retires before the end.
        assert streaming.streaming.clients_booted == 6

    def test_rotating_fleet_equivalence_and_retirement(self):
        kwargs = dict(rounds=8, interval=3.0, publish_fraction=0.2, seed=5,
                      fleet_size=12, clients_per_wave=3)
        scenario_m = _replay_scenario()
        materialized = replay_trace(
            scenario_m, generate_trace(**kwargs),
            clients=12, mode="interleaved")
        scenario_s = _replay_scenario()
        streaming = replay_trace(
            scenario_s, generate_trace(**kwargs, streaming=True),
            clients=12, mode="streaming")
        _assert_replay_equivalent(materialized, streaming)

        # Served bytes are byte-identical across modes.
        assert scenario_m.tsr.get_index_bytes(scenario_m.repo_id) == \
            scenario_s.tsr.get_index_bytes(scenario_s.repo_id)

        folded = streaming.streaming
        assert folded.clients_booted == 12
        # Solver state tracked the wave size, not the fleet size.
        assert folded.peak_live_channels <= 3 + len(scenario_s.mirrors) + 2
        # Rotated-out clients' nodes were torn down mid-replay: of the
        # 12 booted, only the tail waves' clients may survive.
        survivors = [name for name in scenario_s.nodes
                     if name.startswith("replay-")]
        assert len(survivors) <= 6

    def test_streaming_report_shape(self):
        kwargs = dict(rounds=3, interval=3.0, seed=9,
                      fleet_size=6, clients_per_wave=2)
        report = replay_trace(
            _replay_scenario(), generate_trace(**kwargs, streaming=True),
            clients=6, mode="streaming")
        assert report.mode == "streaming"
        assert report.timelines == {}
        assert report.refresh_rounds == []
        assert report.rounds == 3
        folded = report.streaming
        assert folded.refresh_totals["rounds"] == 3
        assert folded.window_seconds == 3.0
        assert folded.final_stream_stats["settled_undrained"] == 0
        # Sketches serialize (the bench artifact path).
        payload = folded.staleness_sketch.to_dict()
        assert payload["count"] == report.clients

    def test_streaming_rejects_unknown_mode_kwarg_surface(self):
        with pytest.raises(ValueError):
            replay_trace(_replay_scenario(),
                         generate_trace(rounds=1, interval=1.0),
                         clients=2, mode="nonsense")
