"""Tests for the simulated clock, latency model, and transport."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.clock import SimClock
from repro.simnet.latency import Continent, LatencyModel
from repro.simnet.network import (
    Host,
    Network,
    ParallelTransferSchedule,
    Request,
    Response,
    ScheduledFetchSession,
)
from repro.util.errors import NetworkError

from reference_solver import max_min_rates


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_to_is_monotone(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)  # no-op, already past
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)
        with pytest.raises(ValueError):
            SimClock(-1)

    @given(st.lists(st.floats(0, 100), max_size=20))
    def test_monotonic_under_any_advances(self, steps):
        clock = SimClock()
        last = 0.0
        for step in steps:
            clock.advance(step)
            assert clock.now() >= last
            last = clock.now()


class TestLatencyModel:
    def test_same_continent_anchor(self):
        # Paper: average same-continent (EU) mirror latency is 26.4 ms.
        model = LatencyModel(jitter=0)
        assert model.rtt(Continent.EUROPE, Continent.EUROPE) == pytest.approx(0.0264)

    def test_cross_continent_slower(self):
        model = LatencyModel(jitter=0)
        eu = model.rtt(Continent.EUROPE, Continent.EUROPE)
        asia = model.rtt(Continent.EUROPE, Continent.ASIA)
        assert asia > 3 * eu

    def test_rtt_symmetric(self):
        model = LatencyModel(jitter=0)
        assert model.rtt(Continent.EUROPE, Continent.ASIA) == model.rtt(
            Continent.ASIA, Continent.EUROPE
        )

    def test_jitter_deterministic_per_seed(self):
        a = LatencyModel(seed=1)
        b = LatencyModel(seed=1)
        series_a = [a.rtt(Continent.EUROPE, Continent.EUROPE) for _ in range(5)]
        series_b = [b.rtt(Continent.EUROPE, Continent.EUROPE) for _ in range(5)]
        assert series_a == series_b

    def test_jitter_bounded(self):
        model = LatencyModel(jitter=0.15, seed=3)
        base = model.base_rtt(Continent.EUROPE, Continent.EUROPE)
        for _ in range(100):
            value = model.rtt(Continent.EUROPE, Continent.EUROPE)
            assert base * 0.85 <= value <= base * 1.15

    def test_transfer_time_table3_anchor(self):
        # ~3 GB at the default bandwidth should take on the order of 17 min.
        model = LatencyModel()
        seconds = model.transfer_time(3 * 1024**3)
        assert 14 * 60 < seconds < 21 * 60

    def test_transfer_rejects_bad_args(self):
        model = LatencyModel()
        with pytest.raises(ValueError):
            model.transfer_time(-1)
        with pytest.raises(ValueError):
            model.transfer_time(10, bandwidth=0)

    def test_continent_parse(self):
        assert Continent.parse("Europe") is Continent.EUROPE
        assert Continent.parse("north-america") is Continent.NORTH_AMERICA
        assert Continent.parse("AS") is Continent.ASIA
        with pytest.raises(ValueError):
            Continent.parse("atlantis")


def _echo_handler(operation, payload):
    return (operation, payload), 128


def _build_network() -> Network:
    net = Network()
    net.add_host(Host("tsr.eu", Continent.EUROPE, handler=_echo_handler))
    net.add_host(Host("mirror.eu", Continent.EUROPE, handler=_echo_handler))
    net.add_host(Host("mirror.asia", Continent.ASIA, handler=_echo_handler))
    return net


class TestNetwork:
    def test_call_advances_clock(self):
        net = _build_network()
        response = net.call("tsr.eu", Request("mirror.eu", "ping"))
        assert response.payload == ("ping", None)
        assert net.clock.now() == pytest.approx(response.elapsed)
        assert response.elapsed > 0.02  # at least the EU RTT

    def test_cross_continent_call_slower(self):
        net = _build_network()
        eu = net.call("tsr.eu", Request("mirror.eu", "ping")).elapsed
        asia = net.call("tsr.eu", Request("mirror.asia", "ping")).elapsed
        assert asia > eu

    def test_duplicate_host_rejected(self):
        net = _build_network()
        with pytest.raises(NetworkError):
            net.add_host(Host("tsr.eu", Continent.EUROPE))

    def test_unknown_host_rejected(self):
        net = _build_network()
        with pytest.raises(NetworkError):
            net.call("tsr.eu", Request("nope", "ping"))

    def test_down_host_times_out(self):
        net = _build_network()
        net.set_down("mirror.eu")
        with pytest.raises(NetworkError):
            net.call("tsr.eu", Request("mirror.eu", "ping"))

    def test_partition_blocks_and_heals(self):
        net = _build_network()
        net.partition("tsr.eu", "mirror.eu")
        with pytest.raises(NetworkError):
            net.call("tsr.eu", Request("mirror.eu", "ping"))
        net.heal("tsr.eu", "mirror.eu")
        assert net.call("tsr.eu", Request("mirror.eu", "ping")).payload[0] == "ping"

    def test_large_payload_takes_longer(self):
        net = _build_network()
        small = net.call("tsr.eu", Request("mirror.eu", "get", size_bytes=100)).elapsed
        net2 = _build_network()
        big = net2.call("tsr.eu", Request("mirror.eu", "get", size_bytes=10_000_000)).elapsed
        assert big > small + 1.0  # 10 MB at ~3 MB/s

    def test_gather_advances_to_slowest_success(self):
        net = _build_network()
        requests = [Request("mirror.eu", "ping"), Request("mirror.asia", "ping")]
        responses = net.gather("tsr.eu", requests)
        elapsed = [r.elapsed for r in responses if not isinstance(r, NetworkError)]
        assert len(elapsed) == 2
        assert net.clock.now() == pytest.approx(max(elapsed))

    def test_gather_mixes_failures_and_successes(self):
        net = _build_network()
        net.set_down("mirror.asia")
        responses = net.gather(
            "tsr.eu", [Request("mirror.eu", "ping"), Request("mirror.asia", "ping")]
        )
        assert not isinstance(responses[0], NetworkError)
        assert isinstance(responses[1], NetworkError)

    def test_gather_all_failed_advances_by_timeout(self):
        net = _build_network()
        net.set_down("mirror.eu")
        net.set_down("mirror.asia")
        responses = net.gather(
            "tsr.eu", [Request("mirror.eu", "ping"), Request("mirror.asia", "ping")]
        )
        assert all(isinstance(r, NetworkError) for r in responses)
        assert net.clock.now() == pytest.approx(net.timeout)

    def test_timeout_enforced_on_slow_transfer(self):
        net = _build_network()
        with pytest.raises(NetworkError):
            # 100 MB at 3 MB/s far exceeds the 5 s default timeout.
            net.call("tsr.eu", Request("mirror.eu", "get", size_bytes=100_000_000))

    def test_extra_delay_models_throttled_mirror(self):
        net = _build_network()
        baseline = net.call("tsr.eu", Request("mirror.eu", "ping")).elapsed
        net.host("mirror.eu").extra_delay = 0.2
        slowed = net.call("tsr.eu", Request("mirror.eu", "ping")).elapsed
        assert slowed > baseline + 0.15


class TestMaxMinRatesEdgeCases:
    def test_capacity_exactly_sum_of_caps_gives_full_rates(self):
        caps = {"a": 4.0, "b": 6.0}
        assert max_min_rates(caps, 10.0) == caps

    def test_single_stream_capped_by_capacity(self):
        assert max_min_rates({"a": 10.0}, 4.0) == {"a": 4.0}

    def test_single_stream_capped_by_own_bandwidth(self):
        assert max_min_rates({"a": 3.0}, 100.0) == {"a": 3.0}

    def test_capped_streams_never_exhaust_capacity_for_the_rest(self):
        # Progressive filling: a stream popped at its cap always leaves a
        # positive share for every still-pending stream.
        rates = max_min_rates({"a": 1.0, "b": 2.0, "c": 50.0}, 6.0)
        assert rates["a"] == 1.0
        assert rates["b"] == 2.0
        assert rates["c"] == pytest.approx(3.0)
        assert all(rate > 0 for rate in rates.values())
        assert sum(rates.values()) == pytest.approx(6.0)

    def test_tiny_capacity_splits_evenly_and_stays_positive(self):
        rates = max_min_rates({"a": 5.0, "b": 5.0}, 1e-6)
        assert rates["a"] == pytest.approx(5e-7)
        assert rates["b"] == pytest.approx(5e-7)

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(0.1, 100.0), min_size=1, max_size=8),
           st.floats(0.05, 500.0))
    def test_allocation_feasible_and_work_conserving(self, caps, capacity):
        rates = max_min_rates(caps, capacity)
        assert set(rates) == set(caps)
        for key, rate in rates.items():
            assert 0 < rate <= caps[key] + 1e-9
        total = sum(rates.values())
        assert total <= max(capacity, sum(caps.values())) + 1e-9
        if capacity < sum(caps.values()):
            # The shared link binds: it must be fully used.
            assert total == pytest.approx(capacity)


class TestScheduleFaults:
    def test_rejects_nonpositive_downlink(self):
        with pytest.raises(ValueError):
            ParallelTransferSchedule(downlink_bandwidth=0.0)
        with pytest.raises(ValueError):
            ParallelTransferSchedule(downlink_bandwidth=-5.0)

    def test_downed_channel_mid_queue_stalls_only_its_queue(self):
        # Channel m1 times out on its second item (the peer went down /
        # was partitioned mid-queue, modelled as a zero-byte stall that
        # holds the channel for the timeout); m2 is unaffected.
        schedule = ParallelTransferSchedule()
        schedule.enqueue("m1", "a", setup=0.0, size_bytes=100, bandwidth=100.0)
        schedule.enqueue("m1", ("stall", "b"), setup=5.0, size_bytes=0,
                         bandwidth=100.0)
        schedule.enqueue("m1", "c", setup=0.0, size_bytes=100, bandwidth=100.0)
        schedule.enqueue("m2", "d", setup=0.0, size_bytes=400, bandwidth=100.0)
        timings = schedule.solve()
        assert timings["a"].finish == pytest.approx(1.0)
        assert timings[("stall", "b")].finish == pytest.approx(6.0)
        assert timings["c"].start == pytest.approx(6.0)
        assert timings["c"].finish == pytest.approx(7.0)
        assert timings["d"].finish == pytest.approx(4.0)

    def test_no_float_deadlock_at_large_clock_offsets(self):
        """Regression: when a stream's remaining bytes drain to a
        sub-epsilon residue at a clock value whose float ulp exceeds the
        next step (residue/rate), the old subtraction-based loop could
        stop advancing time and spin forever.  The event-defining stream
        now completes by identity, so solve always terminates."""
        schedule = ParallelTransferSchedule()
        # Late-queued items (retry shapes: big setups after earlier
        # transfers) push completions to clock values ~15 s where
        # residues of a few nanobytes are below one ulp of the horizon.
        schedule.enqueue("m1", "early", setup=0.029, size_bytes=160265,
                         bandwidth=3145728.0)
        schedule.enqueue("m1", "late", setup=9.413, size_bytes=57927,
                         bandwidth=3145728.0)
        schedule.enqueue("m2", "other", setup=4.733, size_bytes=71511,
                         bandwidth=3145728.0)
        schedule.enqueue("m2", "tail", setup=9.978, size_bytes=11129,
                         bandwidth=3145728.0)
        timings = schedule.solve()
        assert len(timings) == 4
        assert all(t.finish >= t.start for t in timings.values())

    def test_stall_consumes_no_shared_downlink(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.enqueue("m1", ("stall", "x"), setup=5.0, size_bytes=0,
                         bandwidth=100.0)
        schedule.enqueue("m2", "d", setup=0.0, size_bytes=400, bandwidth=100.0)
        timings = schedule.solve()
        # The stalled channel never enters a payload phase, so m2 keeps
        # the full link.
        assert timings["d"].finish == pytest.approx(4.0)


def _sized_network(downlink: float | None) -> Network:
    """Jitter-free network with two mirrors serving 1000-byte payloads."""
    net = Network(latency=LatencyModel(jitter=0))
    net.timeout = 1000.0
    net.add_host(Host("dst.eu", Continent.EUROPE,
                      downlink_bandwidth=downlink))
    handler = lambda op, payload: (b"x" * 1000, 1000)
    net.add_host(Host("m1.eu", Continent.EUROPE, handler=handler,
                      processing_time=0.0, bandwidth=100.0))
    net.add_host(Host("m2.eu", Continent.EUROPE, handler=handler,
                      processing_time=0.0, bandwidth=100.0, extra_delay=5.0))
    return net


class TestGatherScheduled:
    """The schedule-backed gather: exact max-min downlink accounting."""

    def test_empty_wave_costs_nothing(self):
        net = _sized_network(100.0)
        assert net.gather("dst.eu", []) == []
        assert net.clock.now() == 0.0

    def test_no_downlink_matches_solo_timings(self):
        net = _sized_network(None)
        requests = [Request("m1.eu", "get", size_bytes=0),
                    Request("m2.eu", "get", size_bytes=0)]
        responses = net.gather("dst.eu", requests)
        rtt = 0.0264
        assert responses[0].elapsed == pytest.approx(rtt + 10.0)
        assert responses[1].elapsed == pytest.approx(rtt + 5.0 + 10.0)
        assert net.clock.now() == pytest.approx(rtt + 15.0)

    def test_shared_downlink_exact_max_min_not_closed_form(self):
        # m1 starts 5 s before m2 (handshake delay): it transfers 500 B
        # alone at the full 100 B/s, then shares 50/50.  The retired
        # closed-form bound would charge max(setup) + 2000/100 = 25 s
        # after the RTT; the exact schedule finishes sooner.
        net = _sized_network(100.0)
        requests = [Request("m1.eu", "get", size_bytes=0),
                    Request("m2.eu", "get", size_bytes=0)]
        responses = net.gather("dst.eu", requests)
        rtt = 0.0264
        assert responses[0].elapsed == pytest.approx(rtt + 15.0)
        assert responses[1].elapsed == pytest.approx(rtt + 5.0 + 15.0)
        assert net.clock.now() == pytest.approx(rtt + 20.0)
        closed_form = rtt + 5.0 + 20.0
        assert net.clock.now() < closed_form

    def test_partitioned_host_fails_without_stalling_others(self):
        net = _sized_network(None)
        net.partition("dst.eu", "m2.eu")
        responses = net.gather("dst.eu", [Request("m1.eu", "get", size_bytes=0),
                                          Request("m2.eu", "get", size_bytes=0)])
        assert isinstance(responses[0], Response)
        assert isinstance(responses[1], NetworkError)
        assert net.clock.now() == pytest.approx(responses[0].elapsed)


class TestScheduledFetchSession:
    def test_channels_share_capacity_and_serialize_per_client(self):
        net = _sized_network(100.0)
        session = ScheduledFetchSession(net, shared_bandwidth=100.0)
        # Two clients, one request each, both served by m1 (bandwidth 100):
        # the shared 100 B/s splits 50/50 while both are active.
        net.add_host(Host("c1.eu", Continent.EUROPE))
        net.add_host(Host("c2.eu", Continent.EUROPE))
        payload = session.fetch("c1.eu", Request("m1.eu", "get", size_bytes=0))
        assert payload == b"x" * 1000
        session.fetch("c2.eu", Request("m1.eu", "get", size_bytes=0))
        session.solve()
        rtt = 0.0264
        assert session.channel_finish("c1.eu") == pytest.approx(rtt + 20.0)
        assert session.channel_finish("c2.eu") == pytest.approx(rtt + 20.0)
        assert session.makespan == pytest.approx(rtt + 20.0)
        assert session.channel_finish("idle") == 0.0

    def test_failed_fetch_charges_timeout_and_raises(self):
        net = _sized_network(None)
        net.add_host(Host("c1.eu", Continent.EUROPE))
        net.set_down("m1.eu")
        session = ScheduledFetchSession(net)
        with pytest.raises(NetworkError):
            session.fetch("c1.eu", Request("m1.eu", "get", size_bytes=0))
        assert session.channel_finish("c1.eu") == pytest.approx(net.timeout)

    def test_solved_session_rejects_new_fetches(self):
        net = _sized_network(None)
        net.add_host(Host("c1.eu", Continent.EUROPE))
        session = ScheduledFetchSession(net)
        session.solve()
        with pytest.raises(NetworkError):
            session.fetch("c1.eu", Request("m1.eu", "get", size_bytes=0))
