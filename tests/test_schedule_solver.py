"""Tests for the incremental transfer-schedule solver.

Four layers:

* *differential*: the incremental solver must agree with the dense
  reference oracle (``tests/reference_solver.py``) to float tolerance on
  ~100 randomized workloads covering mixed setups, zero-size items,
  downed-channel stalls, capacity ties, large start offsets, and layered
  channel caps both on and off — and on ~100 more that spread items over
  several shared links;
* *golden timings*: digests of every start and finish, bit for bit, on
  the random workloads and the solver bench's fleet and fan-out shapes,
  so no refactor of the core can move a timing by even an ulp unnoticed;
* *dirty-set unit tests*: hand-computed schedules where a stream's class
  (capped vs level-bound) changes mid-flight, so the water-level
  rebalance is exercised directly;
* *event-heap ordering*: exact completion ties, zero-size chains, and
  setup-only channels.
"""

import hashlib
import random

import pytest

from repro.simnet.latency import Continent, LatencyModel
from repro.simnet.network import Host, Network, Request, ScheduledFetchSession
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.errors import NetworkError

from reference_solver import ReferenceSchedule, max_min_rates


def _build_pair(calls: list[tuple], start_time: float, **kwargs):
    """The schedule and its oracle, both fed the same recorded calls."""
    built = []
    for cls in (ParallelTransferSchedule, ReferenceSchedule):
        schedule = cls(start_time=start_time, **kwargs)
        for name, *args in calls:
            getattr(schedule, name)(*args)
        built.append(schedule)
    return tuple(built)


def _random_schedule(seed: int):
    """One randomized workload: (schedule, oracle) at its start time."""
    rng = random.Random(seed)
    downlink = rng.choice([None, 40.0, 75.0, 120.0, 300.0])
    calls = []
    layered = rng.random() < 0.5
    for channel in range(rng.randint(1, 9)):
        if layered and rng.random() < 0.6:
            calls.append(("limit_channel", channel,
                          rng.choice([15.0, 40.0, 90.0])))
        for item in range(rng.randint(0, 5)):
            setup = rng.choice([0.0, 0.01, round(rng.uniform(0, 3), 3)])
            size = rng.choice([0, 0, rng.randint(1, 5000)])
            bandwidth = rng.choice([25.0, 50.0, 50.0, 100.0])  # frequent ties
            calls.append(("enqueue", channel, (channel, item), setup, size,
                          bandwidth))
        if rng.random() < 0.2:
            # Downed-peer shape: a zero-byte stall holding the channel.
            calls.append(("enqueue", channel, ("stall", channel), 5.0, 0,
                          1.0))
    start_time = rng.choice([0.0, 7.25, 1000.0, 123456.789])
    return _build_pair(calls, start_time, downlink_bandwidth=downlink)


def _random_multilink_schedule(seed: int):
    """A workload over 1-3 secondary links: (schedule, oracle)."""
    rng = random.Random(f"multilink:{seed}")
    downlink = rng.choice([None, 60.0, 150.0])
    links = [f"link-{i}" for i in range(rng.randint(1, 3))]
    calls = [("add_link", link, rng.choice([None, 30.0, 80.0, 200.0]))
             for link in links]
    for channel in range(rng.randint(1, 10)):
        if rng.random() < 0.4:
            calls.append(("limit_channel", channel,
                          rng.choice([15.0, 40.0, 90.0])))
        for item in range(rng.randint(0, 5)):
            setup = rng.choice([0.0, 0.01, round(rng.uniform(0, 3), 3)])
            size = rng.choice([0, rng.randint(1, 5000)])
            bandwidth = rng.choice([25.0, 50.0, 50.0, 100.0])
            link = rng.choice([None] + links)
            calls.append(("enqueue", channel, (channel, item), setup, size,
                          bandwidth, link))
        if rng.random() < 0.2:
            calls.append(("enqueue", channel, ("stall", channel), 5.0, 0,
                          1.0))
    start_time = rng.choice([0.0, 7.25, 1000.0, 123456.789])
    return _build_pair(calls, start_time, downlink_bandwidth=downlink)


def _assert_matches(incremental, reference, tolerance=1e-6):
    assert set(incremental) == set(reference)
    for key in reference:
        assert incremental[key].start == pytest.approx(
            reference[key].start, abs=tolerance)
        assert incremental[key].finish == pytest.approx(
            reference[key].finish, abs=tolerance)


def _digest(timings) -> str:
    """sha256 of every timing's exact float bits, keys in ``repr`` order."""
    h = hashlib.sha256()
    for key in sorted(timings, key=repr):
        timing = timings[key]
        h.update(f"{key!r}:{timing.start.hex()}:{timing.finish.hex()}\n"
                 .encode())
    return h.hexdigest()


def _bench_fleet(channels: int, seed: int = 7, items: int = 3):
    """``benchmarks/bench_schedule_solver.py``'s fleet workload."""
    rng = random.Random(seed)
    schedule = ParallelTransferSchedule(downlink_bandwidth=100 * 1024 * 1024)
    for c in range(channels):
        channel = f"client-{c:05d}"
        schedule.limit_channel(channel,
                               rng.choice((1, 2, 4, 8)) * 1024 * 1024)
        for i in range(items):
            schedule.enqueue(channel, (channel, i),
                             setup=0.03 + rng.random() * 0.02,
                             size_bytes=rng.randint(20_000, 600_000),
                             bandwidth=3 * 1024 * 1024)
    return schedule


class TestDifferential:
    @pytest.mark.parametrize("seed", range(100))
    def test_matches_reference_on_random_workloads(self, seed):
        schedule, oracle = _random_schedule(seed)
        incremental = schedule.solve()
        reference = oracle.solve()
        assert set(incremental) == set(reference)
        for key in reference:
            assert incremental[key].start == pytest.approx(
                reference[key].start, abs=1e-6)
            assert incremental[key].finish == pytest.approx(
                reference[key].finish, abs=1e-6)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_reference_across_links(self, seed):
        schedule, oracle = _random_multilink_schedule(seed)
        _assert_matches(schedule.solve(), oracle.solve())

    def test_solve_is_pure_and_resolvable(self):
        # The pipeline enqueues retries into a live schedule and re-solves:
        # earlier items must keep their timings, and repeat solves of an
        # unchanged schedule must be identical.
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.enqueue("m1", "a", 0.0, 400, 100.0)
        first = schedule.solve()
        schedule.enqueue("m2", "b", 0.0, 400, 100.0)
        second = schedule.solve()
        assert first["a"].finish == pytest.approx(4.0)
        assert second["a"].finish == pytest.approx(8.0)  # now shares the link
        assert schedule.solve()["a"].finish == second["a"].finish


class TestAddLink:
    def test_redeclaring_at_another_capacity_raises(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.add_link("replica", 50.0)
        schedule.add_link("replica", 50.0)  # same capacity: idempotent
        with pytest.raises(ValueError):
            schedule.add_link("replica", 60.0)
        with pytest.raises(ValueError):
            schedule.add_link("replica", None)

    @pytest.mark.parametrize("capacity", [0.0, -5.0])
    def test_non_positive_capacity_raises(self, capacity):
        schedule = ParallelTransferSchedule()
        with pytest.raises(ValueError):
            schedule.add_link("replica", capacity)
        assert not schedule.has_link("replica")

    def test_enqueue_on_undeclared_link_raises(self):
        schedule = ParallelTransferSchedule()
        schedule.add_link("replica", 50.0)
        with pytest.raises(ValueError):
            schedule.enqueue("a", "A", 0.0, 100, 10.0, link="elsewhere")
        assert schedule.solve() == {}

    def test_late_declaration_solves_as_up_front(self):
        link = [("add_link", "replica", 30.0)]
        default = [("enqueue", "a", "A0", 0.0, 400, 50.0),
                   ("enqueue", "b", "B0", 0.5, 300, 50.0)]
        routed = [("enqueue", "a", "A1", 0.1, 200, 50.0, "replica"),
                  ("enqueue", "c", "C0", 0.2, 500, 50.0, "replica")]
        up_front, oracle = _build_pair(link + default + routed, 0.0,
                                       downlink_bandwidth=40.0)
        late, _ = _build_pair(default + link + routed, 0.0,
                              downlink_bandwidth=40.0)
        assert late.solve() == up_front.solve()
        _assert_matches(up_front.solve(), oracle.solve())


class TestGoldenTimings:
    """Every start and finish, bit for bit: a change to the solver core
    may not move a timing by even an ulp."""

    def test_random_workloads(self):
        per_seed = "".join(_digest(_random_schedule(seed)[0].solve())
                           for seed in range(100))
        assert hashlib.sha256(per_seed.encode()).hexdigest() == \
            "c9f447de19c6724e62542e945adce3b0387a9536761bf8eb9e4a8398264d281d"

    def test_bench_fleet(self):
        assert _digest(_bench_fleet(1024).solve()) == \
            "127efc1c4ba53663ffd195b1c7a78483f08c954a235742a67aac4b63fb8a87e8"

    def test_bench_fanout(self):
        # One item per client: most streams finish in the batched tail
        # drain, which the two workloads above barely reach.
        assert _digest(_bench_fleet(2000, items=1).solve()) == \
            "4e4be5731681fee85ac431cd891268e0341484b8c3262bcce08352eed0f61f9d"


class TestDirtySetRebalance:
    def test_stream_promoted_when_contender_leaves(self):
        # capacity 100, two cap-60 streams: both level-bound at 50.  When A
        # (600 B) finishes at t=12, B is promoted to its own cap (60) for
        # its remaining 600 B: 12 + 10 = 22.
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.enqueue("a", "A", 0.0, 600, 60.0)
        schedule.enqueue("b", "B", 0.0, 1200, 60.0)
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(12.0)
        assert timings["B"].finish == pytest.approx(22.0)

    def test_stream_demoted_when_contender_arrives(self):
        # B runs alone at its cap (60) for 5 s (300 B done), then A's setup
        # ends and the 100 B/s link splits 50/50: A (200 B) finishes at
        # 5 + 4 = 9, then B's last 500 B run at 60: 9 + 300/50... B has
        # 900 - 300 - 200 = 400 B left at t=9, at cap 60 -> 15.667.
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.enqueue("b", "B", 0.0, 900, 60.0)
        schedule.enqueue("a", "A", 5.0, 200, 60.0)
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(9.0)
        assert timings["B"].finish == pytest.approx(9.0 + 400 / 60.0)

    def test_layered_channel_cap_binds_below_fair_share(self):
        # Uplink 100 shared by NIC-30 and NIC-80 clients (peer bandwidth
        # 100): progressive filling gives 30 and 70.  A (30 B) ends at 1 s;
        # B then runs at its NIC (80): 1 + (700-70)/80 = 8.875.
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.limit_channel("a", 30.0)
        schedule.limit_channel("b", 80.0)
        schedule.enqueue("a", "A", 0.0, 30, 100.0)
        schedule.enqueue("b", "B", 0.0, 700, 100.0)
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(1.0)
        assert timings["B"].finish == pytest.approx(8.875)

    def test_channel_cap_above_bandwidth_is_inert(self):
        schedule = ParallelTransferSchedule()
        schedule.limit_channel("a", 1000.0)
        schedule.enqueue("a", "A", 0.0, 100, 50.0)
        assert schedule.solve()["A"].finish == pytest.approx(2.0)

    def test_channel_cap_applies_without_shared_link(self):
        schedule = ParallelTransferSchedule()  # no shared downlink at all
        schedule.limit_channel("a", 10.0)
        schedule.enqueue("a", "A", 0.0, 100, 50.0)
        assert schedule.solve()["A"].finish == pytest.approx(10.0)

    def test_limit_channel_validates(self):
        schedule = ParallelTransferSchedule()
        with pytest.raises(ValueError):
            schedule.limit_channel("a", 0.0)
        with pytest.raises(ValueError):
            schedule.limit_channel("a", -1.0)

    def test_late_channel_cap_raises(self):
        # A cap is frozen into items as they queue, so a first cap on a
        # channel that already has items would silently miss them.
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0)
        schedule.enqueue("a", "A", 0.0, 100, 50.0)
        with pytest.raises(ValueError):
            schedule.limit_channel("a", 10.0)
        assert schedule.solve()["A"].finish == pytest.approx(2.0)
        # Once the channel's items settle and retire, it may be capped
        # for the work it queues next (set up from its last finish, 2.0).
        schedule.stream.advance_to(10.0)
        schedule.limit_channel("a", 10.0)
        schedule.enqueue("a", "B", 8.0, 100, 50.0)
        assert schedule.solve()["B"].finish == pytest.approx(20.0)

    def test_homogeneous_fleet_crosses_cap_boundary(self):
        # 8 cap-10 streams on a 50-capacity link: level-bound at 6.25 each
        # until enough finish that the survivors' caps bind.  Differential
        # equality pins the exact trajectory.
        schedule = ParallelTransferSchedule(downlink_bandwidth=50.0)
        oracle = ReferenceSchedule(downlink_bandwidth=50.0)
        for i in range(8):
            schedule.enqueue(i, i, 0.0, 100 * (i + 1), 10.0)
            oracle.enqueue(i, i, 0.0, 100 * (i + 1), 10.0)
        incremental = schedule.solve()
        reference = oracle.solve()
        for key in reference:
            assert incremental[key].finish == pytest.approx(
                reference[key].finish, abs=1e-9)


class TestEventHeapOrdering:
    def test_exactly_tied_completions(self):
        schedule = ParallelTransferSchedule()
        schedule.enqueue("a", "A", 0.0, 100, 10.0)   # finishes at 10
        schedule.enqueue("b", "B", 0.0, 200, 20.0)   # finishes at 10
        schedule.enqueue("c", "C", 10.0, 0, 5.0)     # setup ends at 10
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(10.0)
        assert timings["B"].finish == pytest.approx(10.0)
        assert timings["C"].finish == pytest.approx(10.0)

    def test_zero_size_chain_collapses_to_setups(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=50.0)
        schedule.enqueue("a", "A", 1.0, 0, 50.0)
        schedule.enqueue("a", "B", 0.0, 0, 50.0)
        schedule.enqueue("a", "C", 2.0, 100, 50.0)
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(1.0)
        assert timings["B"].start == pytest.approx(1.0)
        assert timings["B"].finish == pytest.approx(1.0)
        assert timings["C"].start == pytest.approx(1.0)
        assert timings["C"].finish == pytest.approx(5.0)

    def test_setup_only_channels_and_empty_queue(self):
        schedule = ParallelTransferSchedule(start_time=2.0)
        schedule.enqueue("a", "A", 3.0, 0, 1.0)
        timings = schedule.solve()
        assert timings["A"].start == pytest.approx(2.0)
        assert timings["A"].finish == pytest.approx(5.0)

    def test_unorderable_channel_objects(self):
        # Channels and keys need not be mutually comparable: heap
        # tie-breaks must come from enqueue order, never the objects.
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        chan_a, chan_b = object(), object()
        schedule.enqueue(chan_a, "A", 0.0, 100, 10.0)
        schedule.enqueue(chan_b, "B", 0.0, 100, 10.0)
        timings = schedule.solve()
        assert timings["A"].finish == pytest.approx(20.0)
        assert timings["B"].finish == pytest.approx(20.0)


class TestMaxMinTieBreak:
    def test_equal_caps_keep_enqueue_order(self):
        # Regression: ties used to sort by str(key) — for objects with the
        # default repr that is the memory address, so the allocation order
        # varied run to run.  Ties now preserve insertion (enqueue) order.
        first, second = object(), object()
        caps = {}
        caps[second] = 5.0
        caps[first] = 5.0
        rates = max_min_rates(caps, 4.0)
        assert list(rates) == [second, first]
        assert rates[second] == pytest.approx(2.0)
        assert rates[first] == pytest.approx(2.0)

    def test_unorderable_keys_with_partial_fill(self):
        keys = [object() for _ in range(3)]
        caps = {keys[0]: 1.0, keys[1]: 50.0, keys[2]: 50.0}
        rates = max_min_rates(caps, 11.0)
        assert rates[keys[0]] == pytest.approx(1.0)
        assert rates[keys[1]] == pytest.approx(5.0)
        assert rates[keys[2]] == pytest.approx(5.0)


def _fleet_network() -> Network:
    net = Network(latency=LatencyModel(jitter=0))
    net.timeout = 1000.0
    handler = lambda op, payload: (b"x" * 1000, 1000)
    net.add_host(Host("tsr.eu", Continent.EUROPE, handler=handler,
                      processing_time=0.0, bandwidth=100.0))
    return net


class TestSessionLayeredNics:
    def test_client_nic_caps_its_channel(self):
        net = _fleet_network()
        net.add_host(Host("slow.eu", Continent.EUROPE,
                          downlink_bandwidth=20.0))
        net.add_host(Host("fast.eu", Continent.EUROPE))
        session = ScheduledFetchSession(net, shared_bandwidth=100.0)
        session.fetch("slow.eu", Request("tsr.eu", "get", size_bytes=0))
        session.fetch("fast.eu", Request("tsr.eu", "get", size_bytes=0))
        session.solve()
        rtt = 0.0264
        # slow's NIC pins it at 20 B/s for all 1000 B; fast gets the
        # residual 80 B/s until done (1000/80), far before slow.
        assert session.channel_finish("slow.eu") == pytest.approx(rtt + 50.0)
        assert session.channel_finish("fast.eu") == pytest.approx(rtt + 12.5)

    def test_no_nic_keeps_fair_split(self):
        net = _fleet_network()
        net.add_host(Host("c1.eu", Continent.EUROPE))
        net.add_host(Host("c2.eu", Continent.EUROPE))
        session = ScheduledFetchSession(net, shared_bandwidth=100.0)
        session.fetch("c1.eu", Request("tsr.eu", "get", size_bytes=0))
        session.fetch("c2.eu", Request("tsr.eu", "get", size_bytes=0))
        session.solve()
        rtt = 0.0264
        assert session.channel_finish("c1.eu") == pytest.approx(rtt + 20.0)
        assert session.channel_finish("c2.eu") == pytest.approx(rtt + 20.0)


class TestSessionStartTime:
    def test_start_time_recorded_at_construction(self):
        net = _fleet_network()
        net.add_host(Host("c1.eu", Continent.EUROPE))
        session = ScheduledFetchSession(net, start_time=100.0)
        session.fetch("c1.eu", Request("tsr.eu", "get", size_bytes=0))
        # makespan/channel_finish must not silently solve at 0.0.
        assert session.start_time == 100.0
        assert session.makespan == pytest.approx(100.0 + 0.0264 + 10.0)
        assert session.channel_finish("c1.eu") == pytest.approx(
            100.0 + 0.0264 + 10.0)
        assert session.channel_finish("idle") == pytest.approx(100.0)

    @pytest.mark.parametrize("start_time", [0.0, 7.25, 1e6 / 3])
    def test_one_wave_session_matches_schedule_starting_there(self,
                                                              start_time):
        """A session is one wave of a plan session: each channel's first
        fetch carries the wave gap ``start_time``.  Its timings equal, bit
        for bit, those of a schedule whose stream begins at
        ``start_time`` and serves the same transfers."""
        net = _fleet_network()
        net.add_host(Host("down.eu", Continent.EUROPE,
                          handler=lambda op, payload: (b"", 0)))
        net.set_down("down.eu")
        nics = {"c0.eu": None, "c1.eu": 20.0, "c2.eu": 45.0, "c3.eu": None}
        for name, nic in nics.items():
            net.add_host(Host(name, Continent.EUROPE,
                              downlink_bandwidth=nic))
        session = ScheduledFetchSession(net, shared_bandwidth=100.0,
                                        start_time=start_time)
        schedule = ParallelTransferSchedule(downlink_bandwidth=100.0,
                                            start_time=start_time)
        for name, nic in nics.items():
            if nic is not None:
                schedule.limit_channel(name, nic)
        for step, (name, target) in enumerate([
                ("c0.eu", "tsr.eu"), ("c1.eu", "down.eu"),
                ("c1.eu", "tsr.eu"), ("c2.eu", "tsr.eu"),
                ("c3.eu", "tsr.eu"), ("c0.eu", "tsr.eu")]):
            request = Request(target, "get", size_bytes=0)
            if target == "down.eu":
                with pytest.raises(NetworkError):
                    session.fetch(name, request)
                schedule.enqueue(name, step, net.timeout, 0, 1.0)
                continue
            session.fetch(name, request)
            probe = net.probe(name, request)
            schedule.enqueue(name, step, probe.setup, probe.size_bytes,
                             probe.bandwidth)
        timings = schedule.solve()
        last = {"c0.eu": 5, "c1.eu": 2, "c2.eu": 3, "c3.eu": 4}
        for name, step in last.items():
            assert session.channel_finish(name) == timings[step].finish
        assert session.makespan == max(t.finish for t in timings.values())
        assert session.channel_finish("idle") == start_time
