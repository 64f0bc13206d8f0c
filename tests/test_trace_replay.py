"""Tests for the multi-round trace replay and its supporting layers:
the differential one-round equivalence vs the literal
``multi_tenant_refresh(); fleet_refresh()`` composition, staleness and
availability metrics against hand-computed timelines, cross-replay
determinism inside one process, the resumable orchestrator plan
(nonzero origin), optimistic pre-scan, versioned publications, the
plan fetch session, and LRU-2 scan resistance."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.core.cache import PackageCache
from repro.mirrors.mirror import MirrorBehavior
from repro.simnet.network import PlanFetchSession, Request
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.errors import NetworkError
from repro.workload.generator import Trace, TraceEvent, generate_trace
from repro.workload.replay import (
    TraceReplay,
    availability_latencies,
    publish_event,
    replay_trace,
    staleness_seconds,
)
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    build_scenario,
    fleet_refresh,
    multi_tenant_refresh,
)

MIRRORS = ("mirror-eu-1.example", "mirror-eu-2.example",
           "mirror-na-1.example")


def _mini_packages(count=8, reps=2000, files=1):
    """Small population; every third package creates accounts."""
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * reps)]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 64)
                      for j in range(files - 1)]
        packages.append(ApkPackage(
            name=f"pkg-{i:02d}", version="1.0-r0", scripts=scripts,
            files=pkg_files,
        ))
    return packages


def _one_round_trace(seed=7):
    return Trace(events=[
        TraceEvent(at=0.0, kind="publish", fraction=0.3, seed=seed),
        TraceEvent(at=0.1, kind="mirror_sync"),
        TraceEvent(at=0.2, kind="refresh"),
        TraceEvent(at=1.0, kind="fleet_pull", installs_per_client=1,
                   seed=seed),
    ], horizon=2.0, seed=seed)


# -- trace model ---------------------------------------------------------------


class TestTraceModel:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(at=0.0, kind="nonsense")
        with pytest.raises(ValueError):
            TraceEvent(at=-1.0, kind="publish")

    def test_ordering_is_causal_within_an_instant(self):
        trace = Trace(events=[
            TraceEvent(at=1.0, kind="fleet_pull"),
            TraceEvent(at=1.0, kind="publish"),
            TraceEvent(at=0.5, kind="refresh"),
            TraceEvent(at=1.0, kind="refresh"),
            TraceEvent(at=1.0, kind="mirror_sync"),
        ], horizon=2.0)
        kinds = [(e.at, e.kind) for e in trace.ordered()]
        assert kinds == [(0.5, "refresh"), (1.0, "publish"),
                         (1.0, "mirror_sync"), (1.0, "refresh"),
                         (1.0, "fleet_pull")]

    def test_generate_trace_shape(self):
        trace = generate_trace(rounds=3, interval=2.0, seed=4)
        assert trace.rounds() == 3
        kinds = [e.kind for e in trace.ordered()]
        assert kinds[:4] == ["publish", "mirror_sync", "refresh",
                             "fleet_pull"]
        assert trace.horizon == pytest.approx(3 * 2.0 + 0.8)

    def test_generate_trace_freeze_and_lag(self):
        trace = generate_trace(
            rounds=2, interval=1.0, mirror_names=list(MIRRORS),
            frozen_mirrors=(MIRRORS[0],),
            lagging_mirrors={MIRRORS[2]: 0.5}, seed=1)
        syncs = [e for e in trace.ordered() if e.kind == "mirror_sync"]
        synced = {m for e in syncs for m in e.mirrors}
        assert MIRRORS[0] not in synced  # frozen: never syncs
        lagged = [e for e in syncs if e.mirrors == (MIRRORS[2],)]
        assert lagged[0].at == pytest.approx(0.2 + 0.5)
        with pytest.raises(ValueError):
            generate_trace(rounds=1, interval=1.0,
                           frozen_mirrors=(MIRRORS[0],))
        with pytest.raises(ValueError):
            generate_trace(rounds=0, interval=1.0)

    def test_replay_validates_inputs(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  with_monitor=False)
        with pytest.raises(ValueError):
            TraceReplay(scenario, _one_round_trace(), mode="bogus")


# -- staleness / availability metrics (hand-computed timelines) ---------------


class TestStalenessMetrics:
    def test_never_stale_when_tracking_every_publish(self):
        publishes = [(0.0, 1)]
        transitions = [(1.0, 1)]
        assert staleness_seconds(publishes, transitions, 10.0) == 0.0

    def test_window_between_publish_and_catchup(self):
        publishes = [(0.0, 1), (2.0, 2)]
        transitions = [(1.0, 1), (5.0, 2)]
        # Stale exactly from the serial-2 publish (t=2) to the catch-up
        # pull (t=5).
        assert staleness_seconds(publishes, transitions, 10.0) == \
            pytest.approx(3.0)

    def test_open_staleness_runs_to_horizon(self):
        publishes = [(0.0, 1), (2.0, 2)]
        transitions = [(1.0, 1)]
        assert staleness_seconds(publishes, transitions, 10.0) == \
            pytest.approx(8.0)

    def test_client_joining_late_is_stale_from_its_first_pull(self):
        publishes = [(0.0, 1), (2.0, 2)]
        transitions = [(3.0, 1)]  # first index is already one behind
        assert staleness_seconds(publishes, transitions, 10.0) == \
            pytest.approx(7.0)

    def test_simultaneous_publish_and_pull_counts_stale(self):
        # The pull landing at the very instant a newer serial publishes
        # serves the old serial: the client is stale from that instant.
        publishes = [(0.0, 1), (4.0, 2)]
        transitions = [(0.5, 1), (4.0, 1), (6.0, 2)]
        assert staleness_seconds(publishes, transitions, 10.0) == \
            pytest.approx(2.0)

    def test_no_transitions_means_no_observation(self):
        assert staleness_seconds([(0.0, 1)], [], 10.0) == 0.0

    def test_multi_round_hand_timeline(self):
        # Rounds publish at 0/10/20; the client pulls at 2/12/26.
        publishes = [(0.0, 1), (10.0, 2), (20.0, 3)]
        transitions = [(2.0, 1), (12.0, 2), (26.0, 3)]
        # Stale windows: [10,12] and [20,26].
        assert staleness_seconds(publishes, transitions, 30.0) == \
            pytest.approx(2.0 + 6.0)

    def test_availability_latencies(self):
        publishes = [(0.0, 1), (10.0, 2), (20.0, 3)]
        transitions = [(2.0, 1), (12.0, 2)]
        latencies = availability_latencies(publishes, transitions)
        assert latencies[1] == pytest.approx(2.0)
        assert latencies[2] == pytest.approx(2.0)
        assert latencies[3] is None  # never caught up

    def test_availability_requires_post_publish_pull(self):
        # A serial-2 index pulled *before* serial 2 published cannot
        # satisfy it (and cannot happen in a causal replay); the metric
        # only accepts transitions at or after the publish instant.
        publishes = [(5.0, 1)]
        transitions = [(6.0, 1)]
        assert availability_latencies(publishes, transitions)[1] == \
            pytest.approx(1.0)


# -- differential: one round, one tenant == the literal composition ----------


class TestOneRoundDifferential:
    @pytest.mark.parametrize("mode", ["interleaved", "serial"])
    def test_byte_identical_index_and_packages(self, mode):
        trace = _one_round_trace(seed=7)
        publish = trace.ordered()[0]

        replayed = build_scenario(packages=_mini_packages(), refresh=False,
                                  with_monitor=False)
        multi_tenant_refresh(replayed)  # bootstrap publication
        report = replay_trace(replayed, trace, clients=2, mode=mode)
        assert report.rounds == 1
        assert report.installs > 0

        control = build_scenario(packages=_mini_packages(), refresh=False,
                                 with_monitor=False)
        multi_tenant_refresh(control)
        # The identical upstream release (event-local RNG), then the
        # literal composition the replay replaces.
        publish_event(control, publish, trace.seed)
        control.sync_mirrors()
        multi_tenant_refresh(control)
        fleet_refresh(control, clients=2, installs_per_client=1)

        repo = control.repo_id
        assert control.tsr.get_index_bytes(repo) == \
            replayed.tsr.get_index_bytes(replayed.repo_id)
        from repro.archive.index import RepositoryIndex
        index = RepositoryIndex.from_bytes(control.tsr.get_index_bytes(repo))
        served = 0
        for name in index.entries:
            if not control.tsr.cache.has_sanitized(repo, name):
                continue
            assert control.tsr.serve_package(repo, name) == \
                replayed.tsr.serve_package(replayed.repo_id, name)
            served += 1
        assert served > 0

    def test_modes_agree_on_bytes(self):
        trace = _one_round_trace(seed=9)
        scenarios = {}
        for mode in ("interleaved", "serial"):
            scenario = build_scenario(packages=_mini_packages(),
                                      refresh=False, with_monitor=False)
            multi_tenant_refresh(scenario)
            replay_trace(scenario, trace, clients=2, mode=mode)
            scenarios[mode] = scenario
        a, b = scenarios["interleaved"], scenarios["serial"]
        assert a.tsr.get_index_bytes(a.repo_id) == \
            b.tsr.get_index_bytes(b.repo_id)


# -- multi-round behaviour -----------------------------------------------------


class TestMultiRoundReplay:
    def _replay(self, mode="interleaved", rounds=4, tenants=2, clients=4,
                seed=3, frozen=(), cache_budget=None, policy=None):
        mirror_names = list(MIRRORS) if frozen else None
        trace = generate_trace(rounds=rounds, interval=0.6,
                               publish_fraction=0.3, seed=seed,
                               mirror_names=mirror_names,
                               frozen_mirrors=frozen)
        scenario = build_multi_tenant_scenario(
            tenants=tenants, overlap=0.5, packages=_mini_packages(),
            cache_budget_bytes=cache_budget,
            cache_shards=1 if cache_budget else None,
            cache_policy=policy)
        multi_tenant_refresh(scenario)
        return scenario, replay_trace(scenario, trace, clients=clients,
                                      mode=mode)

    @pytest.mark.parametrize("mode", ["interleaved", "serial"])
    def test_monotonically_consistent_metrics(self, mode):
        _, report = self._replay(mode=mode)
        assert report.rounds == 4
        assert report.timelines
        publishes = report.publishes
        assert all(b[0] >= a[0] and b[1] > a[1]
                   for a, b in zip(publishes, publishes[1:]))
        for timeline in report.timelines.values():
            times = [t for t, _ in timeline.transitions]
            serials = [s for _, s in timeline.transitions]
            assert times == sorted(times)
            assert serials == sorted(serials)
            assert 0.0 <= timeline.staleness <= report.horizon
            for latency in timeline.availability.values():
                assert latency is None or latency >= 0.0
        assert report.wall_elapsed > 0.0
        assert report.horizon >= report.wall_elapsed - 1e-9

    def test_state_carries_across_rounds(self):
        """Incremental rounds ride the content cache: later refreshes
        re-download only what changed, and the publication log grows."""
        scenario, report = self._replay(mode="interleaved", rounds=4)
        # Round 1 of the trace changed only a fraction of the catalog:
        # every refresh after the bootstrap is incremental.
        population = len(scenario.population)
        for round_report in report.refresh_rounds:
            for repo_report in round_report.reports.values():
                assert len(repo_report.changed_packages) < population
        publications = scenario.tsr.publications(scenario.repo_id)
        assert len(publications) == 1 + report.rounds  # bootstrap + rounds
        available = [p.available_at for p in publications]
        assert available == sorted(available)
        serials = [p.serial for p in publications]
        assert serials == sorted(serials)

    def test_prescan_fires_on_incremental_widened_rounds(self):
        _, report = self._replay(mode="interleaved", rounds=3,
                                 frozen=(MIRRORS[0],))
        assert report.prescans > 0

    def test_replays_reproducible_and_independent_in_one_process(self):
        """Two traces replayed in one process must be reproducible
        independently: interleaving a second replay (in either order)
        cannot change the first's results — randomness is threaded, not
        ambient."""
        def signature(report):
            return (
                report.wall_elapsed,
                report.installs,
                report.publishes,
                {name: tuple(t.transitions)
                 for name, t in report.timelines.items()},
                {name: t.staleness
                 for name, t in report.timelines.items()},
            )

        first_a = signature(self._replay(seed=3)[1])
        first_b = signature(self._replay(seed=11, rounds=3)[1])
        # Opposite construction/run order in the same process.
        second_b = signature(self._replay(seed=11, rounds=3)[1])
        second_a = signature(self._replay(seed=3)[1])
        assert first_a == second_a
        assert first_b == second_b

    def test_serial_mode_never_overlaps_rounds(self):
        _, report = self._replay(mode="serial")
        rounds = report.refresh_rounds
        for earlier, later in zip(rounds, rounds[1:]):
            assert later.origin >= earlier.finished_at - 1e-9

    def test_clients_spread_over_tenants(self):
        scenario, report = self._replay(tenants=2, clients=4)
        repos = {t.repo_id for t in report.timelines.values()}
        assert repos == set(scenario.tenants)


# -- versioned publications ----------------------------------------------------


class TestPublications:
    def _refreshed(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  with_monitor=False)
        return scenario

    def test_record_and_select(self):
        scenario = self._refreshed()
        tsr = scenario.tsr
        first = tsr.record_publication(scenario.repo_id, 1.0)
        log = tsr.publication_log
        assert log.publication_at(scenario.repo_id, 0.5) is None
        assert log.publication_at(scenario.repo_id, 1.0) is first
        assert log.publication_at(scenario.repo_id, 9.0) is first
        with pytest.raises(NetworkError):
            tsr.index_bytes_at(scenario.repo_id, 0.5)
        assert tsr.index_bytes_at(scenario.repo_id, 2.0) == \
            tsr.get_index_bytes(scenario.repo_id)

    def test_served_blobs_match_live_serving(self):
        scenario = self._refreshed()
        tsr = scenario.tsr
        tsr.record_publication(scenario.repo_id, 0.0)
        for name in ("pkg-00", "pkg-01"):
            assert tsr.serve_package_at(scenario.repo_id, name, 0.0) == \
                tsr.serve_package(scenario.repo_id, name)

    def test_available_at_clamped_monotonic(self):
        scenario = self._refreshed()
        tsr = scenario.tsr
        tsr.record_publication(scenario.repo_id, 5.0)
        late = tsr.record_publication(scenario.repo_id, 3.0)
        assert late.available_at == 5.0

    def test_old_publication_survives_new_refresh(self):
        """A client pinned to an old instant keeps seeing the old index
        even after the live state moved on."""
        scenario = self._refreshed()
        tsr = scenario.tsr
        old = tsr.record_publication(scenario.repo_id, 0.0)
        publish_event(scenario, TraceEvent(at=0.0, kind="publish",
                                           fraction=0.5, seed=1), 1)
        scenario.sync_mirrors()
        multi_tenant_refresh(scenario)
        tsr.record_publication(scenario.repo_id, 10.0)
        assert tsr.index_bytes_at(scenario.repo_id, 0.5) == old.index_bytes
        assert tsr.index_bytes_at(scenario.repo_id, 10.0) == \
            tsr.get_index_bytes(scenario.repo_id)
        assert tsr.publication_log.publication_at(
            scenario.repo_id, 10.0).serial > old.serial


# -- plan fetch session --------------------------------------------------------


class TestPlanFetchSession:
    def _scenario(self):
        return build_scenario(packages=_mini_packages(count=4),
                              with_monitor=False)

    def test_wave_pins_start_offsets(self):
        scenario = self._scenario()
        schedule = ParallelTransferSchedule(downlink_bandwidth=3 * 2 ** 20)
        session = PlanFetchSession(scenario.network, schedule)
        node, _ = scenario.new_node("puller", session=None)
        session.begin_wave(5.0)
        session.fetch("puller", Request(scenario.tsr.hostname, "get_index",
                                        payload=scenario.repo_id))
        timings = schedule.solve()
        key = session.last_key("puller")
        # The wave gap rides in the setup phase: the transfer cannot
        # complete before the wave instant plus its own network time.
        assert timings[key].finish > 5.0
        assert timings[key].duration >= 5.0

    def test_waves_must_be_time_ordered(self):
        scenario = self._scenario()
        schedule = ParallelTransferSchedule()
        stream = schedule.stream
        session = PlanFetchSession(scenario.network, schedule)
        stream.advance_to(5.0)
        session.begin_wave(5.0)
        with pytest.raises(NetworkError):
            session.begin_wave(4.0)

    def test_second_wave_queues_behind_first(self):
        scenario = self._scenario()
        schedule = ParallelTransferSchedule(downlink_bandwidth=3 * 2 ** 20)
        stream = schedule.stream
        session = PlanFetchSession(scenario.network, schedule)
        scenario.new_node("puller", session=None)
        request = Request(scenario.tsr.hostname, "get_index",
                          payload=scenario.repo_id)
        session.begin_wave(0.0)
        session.fetch("puller", request)
        first_end = schedule.solve()[session.last_key("puller")].finish
        # Wave 2 nominally starts *before* wave 1's transfer drains: the
        # channel serializes, so it starts at the channel's free instant.
        second_at = min(first_end / 2, first_end - 1e-6)
        stream.advance_to(second_at)
        session.begin_wave(second_at)
        session.fetch("puller", request)
        timings = schedule.solve()
        assert timings[session.last_key("puller")].start >= \
            first_end - 1e-9

    def test_failed_fetch_charges_timeout_and_raises(self):
        scenario = self._scenario()
        schedule = ParallelTransferSchedule()
        session = PlanFetchSession(scenario.network, schedule)
        scenario.new_node("puller", session=None)
        scenario.network.set_down(scenario.tsr.hostname)
        session.begin_wave(1.0)
        with pytest.raises(NetworkError):
            session.fetch("puller",
                          Request(scenario.tsr.hostname, "get_index",
                                  payload=scenario.repo_id))
        timings = schedule.solve()
        key = session.last_key("puller")
        assert timings[key].finish == pytest.approx(
            1.0 + scenario.network.timeout)


# -- resumable orchestrator plan ----------------------------------------------


class TestPlanOrigin:
    def test_nonzero_origin_shifts_timeline(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  refresh=False, with_monitor=False)
        from repro.core.orchestrator import RefreshOrchestrator
        before = scenario.clock.now()
        report = RefreshOrchestrator(scenario.tsr, [scenario.repo_id],
                                     origin=3.0).run()
        assert report.origin == 3.0
        assert report.finished_at >= 3.0
        assert report.wall_elapsed == pytest.approx(
            report.finished_at - 3.0)
        # Standalone rounds advance the clock by their own duration only.
        assert scenario.clock.now() - before == pytest.approx(
            report.wall_elapsed)
        assert report.reports[scenario.repo_id].quorum_elapsed >= 0.0

    def test_origin_validation(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  refresh=False, with_monitor=False)
        from repro.core.orchestrator import RefreshOrchestrator
        with pytest.raises(ValueError):
            RefreshOrchestrator(scenario.tsr, [scenario.repo_id],
                                origin=-1.0)

    def test_plan_state_serializes_enclave_across_rounds(self):
        from repro.core.orchestrator import (
            RefreshOrchestrator,
            RefreshPlanState,
        )
        scenario = build_scenario(packages=_mini_packages(count=6),
                                  refresh=False, with_monitor=False)
        plan = RefreshPlanState()
        first = RefreshOrchestrator(scenario.tsr, [scenario.repo_id],
                                    origin=0.0, plan_state=plan).run()
        assert plan.rounds == 1
        assert plan.enclave_free > 0.0
        publish_event(scenario, TraceEvent(at=0.0, kind="publish",
                                           fraction=0.4, seed=2), 2)
        scenario.sync_mirrors()
        second = RefreshOrchestrator(scenario.tsr, [scenario.repo_id],
                                     origin=0.1, plan_state=plan).run()
        assert plan.rounds == 2
        # Round 2's sanitize jobs queued behind round 1's enclave work.
        assert second.finished_at >= first.finished_at - 1e-9
        for _, _, start, _ in second.enclave_timeline:
            assert start >= first.enclave_timeline[-1][3] - 1e-9
        assert second.enclave_timeline  # round 2 queued enclave work


# -- optimistic pre-scan -------------------------------------------------------


class TestPrescan:
    def test_prescan_on_widened_incremental_round(self):
        scenario = build_scenario(packages=_mini_packages(count=6),
                                  refresh=False, with_monitor=False)
        scenario.tsr.refresh(scenario.repo_id)  # warm the named cache
        scenario.mirrors[MIRRORS[0]].behavior = MirrorBehavior.FREEZE
        publish_event(scenario, TraceEvent(at=0.0, kind="publish",
                                           fraction=0.2, seed=5), 5)
        scenario.sync_mirrors()
        orch = multi_tenant_refresh(scenario, repo_ids=[scenario.repo_id])
        report = orch.reports[scenario.repo_id]
        # The unchanged cached packages were pre-scanned while the quorum
        # widened past the frozen mirror.
        assert report.prescanned > 0
        assert report.sanitized == len(report.changed_packages)

    def test_prescan_does_not_change_bytes(self):
        def build():
            scenario = build_scenario(packages=_mini_packages(count=6),
                                      refresh=False, with_monitor=False)
            scenario.tsr.refresh(scenario.repo_id)
            scenario.mirrors[MIRRORS[0]].behavior = MirrorBehavior.FREEZE
            publish_event(scenario, TraceEvent(at=0.0, kind="publish",
                                               fraction=0.2, seed=5), 5)
            scenario.sync_mirrors()
            return scenario

        orchestrated, phased = build(), build()
        orch = multi_tenant_refresh(orchestrated,
                                    repo_ids=[orchestrated.repo_id])
        phased.tsr.refresh(phased.repo_id)
        assert orch.reports[orchestrated.repo_id].prescanned > 0
        assert orchestrated.tsr.get_index_bytes(orchestrated.repo_id) == \
            phased.tsr.get_index_bytes(phased.repo_id)


# -- LRU-2 scan resistance -----------------------------------------------------


class TestLru2:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PackageCache(policy="arc")

    def test_second_touch_promotes(self):
        cache = PackageCache(shards=1, shard_budget_bytes=1000)
        cache.put_original("r", "hot", b"h" * 100)
        assert cache.shard_stats()[0].promotions == 0
        cache.get_original("r", "hot")
        assert cache.shard_stats()[0].promotions == 1

    def test_scan_cannot_flush_protected_core(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        cache.put_original("r", "hot", b"h" * 40)
        cache.get_original("r", "hot")  # second touch -> protected
        for i in range(10):  # a one-touch scan three times the budget
            cache.put_original("r", f"scan-{i}", b"s" * 30)
        assert cache.get_original("r", "hot") == b"h" * 40

    def test_plain_lru_flushes_under_same_scan(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100,
                             policy="lru")
        cache.put_original("r", "hot", b"h" * 40)
        cache.get_original("r", "hot")
        for i in range(10):
            cache.put_original("r", f"scan-{i}", b"s" * 30)
        assert cache.get_original("r", "hot") is None
        assert cache.shard_stats()[0].promotions == 0

    def test_protected_evicts_when_probation_empty(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        cache.put_original("r", "a", b"a" * 60)
        cache.get_original("r", "a")
        cache.put_original("r", "b", b"b" * 30)
        cache.get_original("r", "b")  # both protected, probation empty
        cache.put_original("r", "c", b"c" * 50)  # evicts a (protected LRU)
        assert cache.get_original("r", "a") is None
        assert cache.get_original("r", "b") is not None

    def test_rewrite_counts_as_second_touch(self):
        cache = PackageCache(shards=1, shard_budget_bytes=1000)
        cache.put_original("r", "a", b"a" * 10)
        cache.put_original("r", "a", b"a" * 20)
        assert cache.shard_stats()[0].promotions == 1
        assert cache.shard_used_bytes(0) == 20

    def test_peek_does_not_touch_recency(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        cache.put_sanitized("r", "a", b"a" * 40)
        assert cache.peek_sanitized("r", "a") == b"a" * 40
        assert cache.shard_stats()[0].promotions == 0
        assert cache.peek_sanitized("r", "missing") is None
