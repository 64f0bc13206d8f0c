"""Tests for the multi-tenant refresh orchestrator and its layers:
cross-tenant dedupe, shared-enclave serialization, quorum/download
interleaving, cache eviction accounting, and per-repo config hoisting."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.core.cache import PackageCache
from repro.core.orchestrator import RefreshOrchestrator
from repro.core.quorum import entry_agreement
from repro.mirrors.builder import MirrorSpec
from repro.mirrors.mirror import MirrorBehavior
from repro.simnet.latency import Continent
from repro.util.errors import QuorumError
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    build_scenario,
    multi_tenant_refresh,
)


def _mini_packages(count=8, reps=2000):
    """Small population; every third package creates accounts."""
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


_BACKDOOR = IndexEntry(name="backdoor", version="1-r0", size=10,
                       sha256="ff" * 32)


def _twin_scenarios(tenants=3, overlap=0.5, **kwargs):
    build = lambda: build_multi_tenant_scenario(  # noqa: E731
        tenants=tenants, overlap=overlap, packages=_mini_packages(), **kwargs)
    return build(), build()


# -- differential: orchestrated == N serial phased refreshes -------------------


class TestOrchestratedDifferential:
    def test_byte_identical_outputs_and_verdicts(self):
        serial_s, orch_s = _twin_scenarios()
        serial = multi_tenant_refresh(serial_s, orchestrated=False)
        orch = multi_tenant_refresh(orch_s)
        assert not serial.orchestrated and orch.orchestrated
        assert set(serial.reports) == set(orch.reports)
        for repo_id in serial_s.tenants:
            a, b = serial.reports[repo_id], orch.reports[repo_id]
            assert a.serial == b.serial
            assert a.changed_packages == b.changed_packages
            assert dict(a.rejected) == dict(b.rejected)
            assert a.sanitized == b.sanitized
            assert sorted(a.insecure_findings) == sorted(b.insecure_findings)
            # Signed sanitized indexes agree byte for byte.
            assert (serial_s.tsr.get_index_bytes(repo_id)
                    == orch_s.tsr.get_index_bytes(repo_id))
            # Served packages are byte-identical.
            for name in b.changed_packages:
                if orch_s.tsr.cache.has_sanitized(repo_id, name):
                    assert (serial_s.tsr.serve_package(repo_id, name)
                            == orch_s.tsr.serve_package(repo_id, name))

    def test_orchestrated_beats_serial_wall_clock(self):
        serial_s, orch_s = _twin_scenarios()
        serial = multi_tenant_refresh(serial_s, orchestrated=False)
        orch = multi_tenant_refresh(orch_s)
        assert orch.wall_elapsed < serial.wall_elapsed
        # Resource-seconds exceed the makespan: phases really overlapped.
        assert orch.phase_sum > orch.wall_elapsed

    def test_clock_advances_by_makespan(self):
        _, scenario = _twin_scenarios()
        before = scenario.clock.now()
        orch = multi_tenant_refresh(scenario)
        assert scenario.clock.now() - before == pytest.approx(
            orch.wall_elapsed)

    def test_orchestrated_single_repo_matches_phased(self):
        """One tenant through the orchestrator is still verdict-identical."""
        a = build_scenario(packages=_mini_packages(), refresh=False,
                           with_monitor=False)
        b = build_scenario(packages=_mini_packages(), refresh=False,
                           with_monitor=False)
        phased = a.tsr.refresh(a.repo_id)
        orch = multi_tenant_refresh(b, repo_ids=[b.repo_id])
        report = orch.reports[b.repo_id]
        assert report.serial == phased.serial
        assert report.changed_packages == phased.changed_packages
        assert a.tsr.get_index_bytes(a.repo_id) == \
            b.tsr.get_index_bytes(b.repo_id)


# -- cross-tenant dedupe -------------------------------------------------------


class TestCrossTenantDedupe:
    def test_shared_packages_downloaded_once(self):
        _, scenario = _twin_scenarios(tenants=3, overlap=0.5)
        orch = multi_tenant_refresh(scenario)
        # The shared core is fetched by one tenant and ridden by the rest.
        assert orch.downloads_deduped > 0
        assert orch.dedupe_bytes_saved > 0
        reports = [orch.reports[r] for r in scenario.tenants]
        # First tenant paid for the core; later tenants deduped it.
        assert sum(r.deduped_downloads for r in reports[1:]) > 0
        # Total bytes moved < what N independent refreshes would move.
        independent = sum(r.downloaded_bytes + r.deduped_download_bytes
                          for r in reports)
        assert orch.downloaded_bytes < independent

    def test_scan_and_analysis_memoized_across_tenants(self):
        _, scenario = _twin_scenarios(tenants=3, overlap=0.5)
        orch = multi_tenant_refresh(scenario)
        assert orch.scans_deduped > 0
        assert orch.sanitize_shared > 0
        stats = orch.memo_stats
        assert stats["scan_hits"] == orch.scans_deduped
        assert stats["analysis_hits"] >= orch.sanitize_shared
        # Every tenant still produced its own full report.
        for repo_id in scenario.tenants:
            report = orch.reports[repo_id]
            assert report.sanitized == len(report.changed_packages)

    def test_dedupe_reaches_later_single_repo_refresh(self):
        """A phased refresh after an orchestrated one rides the content
        store: the new tenant's shared core is not re-downloaded."""
        _, scenario = _twin_scenarios(tenants=2, overlap=0.5)
        multi_tenant_refresh(scenario, repo_ids=[scenario.tenants[0]])
        late = scenario.add_tenant(
            package_whitelist=frozenset(
                p.name for p in _mini_packages()[:4]))
        report = scenario.tsr.refresh(late)
        assert report.deduped_downloads > 0

    def test_catalogs_identical_to_direct_scan(self):
        """Delta replay == direct scan, byte for byte in the catalog."""
        serial_s, orch_s = _twin_scenarios(tenants=2, overlap=1.0)
        multi_tenant_refresh(serial_s, orchestrated=False)
        multi_tenant_refresh(orch_s)
        for repo_id in serial_s.tenants:
            a = serial_s.tsr._enclave.ecall("export_state")[repo_id]
            b = orch_s.tsr._enclave.ecall("export_state")[repo_id]
            assert a["catalog"] == b["catalog"]


# -- enclave serialization -----------------------------------------------------


class TestEnclaveSerialization:
    def test_timeline_is_serial_and_complete(self):
        _, scenario = _twin_scenarios(tenants=3, overlap=0.5)
        orch = multi_tenant_refresh(scenario)
        timeline = orch.enclave_timeline
        assert len(timeline) == orch.sanitized
        previous_finish = 0.0
        for repo_id, name, start, finish in timeline:
            assert start >= previous_finish - 1e-9  # no overlap
            assert finish >= start
            previous_finish = finish
        # All tenants' jobs rode the one channel.
        assert {entry[0] for entry in timeline} == set(scenario.tenants)

    def test_tenants_interleave_on_the_enclave(self):
        """The serial channel is FIFO by blob readiness, not grouped by
        tenant: with overlapping downloads, tenants alternate."""
        _, scenario = _twin_scenarios(tenants=3, overlap=0.5)
        orch = multi_tenant_refresh(scenario)
        order = [entry[0] for entry in orch.enclave_timeline]
        switches = sum(1 for i in range(1, len(order))
                       if order[i] != order[i - 1])
        assert switches > len(set(order)) - 1  # more than one block each


# -- quorum/download interleaving ----------------------------------------------


class TestQuorumInterleaving:
    def _lagging_mirror_scenario(self):
        scenario = build_scenario(packages=_mini_packages(count=6),
                                  refresh=False, with_monitor=False)
        # Freeze a first-wave mirror, then publish an update it never
        # syncs: the first quorum wave disagrees and must widen, but the
        # packages common to both index serials are already agreed.
        scenario.mirrors["mirror-eu-1.example"].behavior = \
            MirrorBehavior.FREEZE
        scenario.origin.publish(ApkPackage(
            name="pkg-00", version="1.1-r0",
            files=[PackageFile("/usr/bin/pkg0", b"\x7fELF new" * 2000)],
        ))
        scenario.sync_mirrors()
        return scenario

    def test_agreed_entries_download_during_widening(self):
        scenario = self._lagging_mirror_scenario()
        orch = multi_tenant_refresh(scenario, repo_ids=[scenario.repo_id])
        report = orch.reports[scenario.repo_id]
        # The 5 unchanged packages are common to the stale and fresh
        # indexes -> agreed by the first wave -> fetched while widening.
        assert report.interleaved_downloads == 5

    def test_interleaved_verdicts_match_phased(self):
        a = self._lagging_mirror_scenario()
        b = self._lagging_mirror_scenario()
        phased = a.tsr.refresh(a.repo_id)
        orch = multi_tenant_refresh(b, repo_ids=[b.repo_id])
        report = orch.reports[b.repo_id]
        assert report.serial == phased.serial
        assert sorted(report.changed_packages) == \
            sorted(phased.changed_packages)
        assert a.tsr.get_index_bytes(a.repo_id) == \
            b.tsr.get_index_bytes(b.repo_id)

    def test_stale_cached_original_does_not_suppress_interleave(self):
        """Incremental refresh: an updated package whose *old* blob is
        cached must still be fetched optimistically once f+1 responses
        agree on its new hash — a stale named original is no substitute."""
        scenario = build_scenario(packages=_mini_packages(count=5),
                                  refresh=False, with_monitor=False)
        scenario.tsr.refresh(scenario.repo_id)  # warm the named cache
        # pkg-00 updates at serial 2; only the slow NA mirror lags to
        # serial 3, so the first (EU) wave disagrees on the whole index
        # while agreeing on pkg-00's *new* hash.
        scenario.origin.publish(ApkPackage(
            name="pkg-00", version="2.0-r0",
            files=[PackageFile("/usr/bin/pkg0", b"\x7fELF v2" * 2000)]))
        scenario.mirrors["mirror-eu-1.example"].sync()
        scenario.origin.publish(ApkPackage(
            name="pkg-01", version="2.0-r0",
            files=[PackageFile("/usr/bin/pkg1", b"\x7fELF v2b" * 2000)]))
        scenario.mirrors["mirror-eu-2.example"].sync()
        scenario.mirrors["mirror-na-1.example"].sync()
        orch = multi_tenant_refresh(scenario, repo_ids=[scenario.repo_id])
        report = orch.reports[scenario.repo_id]
        # pkg-00 v2 is carried by both EU mirrors (f+1 agreement) and is
        # not satisfied by the stale v1 original -> interleaved; pkg-01
        # v2 has only one vote during widening; everything else is a
        # valid cache hit.
        assert report.interleaved_downloads == 1
        assert sorted(report.changed_packages) == ["pkg-00", "pkg-01"]
        assert report.sanitized == 2

    def test_interleave_off_still_correct(self):
        scenario = self._lagging_mirror_scenario()
        orch = multi_tenant_refresh(scenario, repo_ids=[scenario.repo_id],
                                    interleave=False)
        report = orch.reports[scenario.repo_id]
        assert report.interleaved_downloads == 0
        assert report.sanitized == len(report.changed_packages)

    def test_entry_agreement_pigeonhole(self):
        index_a = RepositoryIndex(serial=1)
        index_b = RepositoryIndex(serial=2)
        from repro.archive.index import IndexEntry
        shared = IndexEntry(name="common", version="1", size=10, sha256="aa")
        index_a.add(shared)
        index_b.add(shared)
        index_b.add(IndexEntry(name="only-b", version="1", size=5,
                               sha256="bb"))
        agreed = entry_agreement([index_a, index_b], needed=2)
        assert set(agreed) == {"common"}
        assert agreed["common"] == {"sha256": "aa", "size": 10}
        assert entry_agreement([index_a], needed=2) == {}

    def test_quorum_failure_still_raises(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  refresh=False, with_monitor=False)
        for name in list(scenario.mirrors):
            scenario.network.set_down(name)
        with pytest.raises(QuorumError):
            multi_tenant_refresh(scenario, repo_ids=[scenario.repo_id])

    def test_forged_first_wave_starts_no_download(self, rsa_key_alt):
        """f+1 colluding mirrors answer first with the same index signed
        by a non-policy key and carrying an extra ``backdoor`` entry.  The
        forgeries must cast no optimistic votes: nothing of theirs is
        fetched while the quorum widens to the honest mirrors."""
        def forge(origin):
            forged = origin.index()
            forged.add(_BACKDOOR)
            forged.sign(rsa_key_alt)
            return forged.to_bytes()

        self._assert_forgery_starts_no_download(forge)

    def test_tampered_first_wave_starts_no_download(self):
        """As above, but the colluders splice ``backdoor`` into the body
        of the genuine, policy-signed index and keep its signature."""
        def forge(origin):
            forged = origin.index()
            signature = forged.signature
            forged.add(_BACKDOOR)
            forged.signature = signature
            return forged.to_bytes()

        self._assert_forgery_starts_no_download(forge)

    def _assert_forgery_starts_no_download(self, forge):
        specs = (
            MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
            MirrorSpec("mirror-eu-2.example", Continent.EUROPE),
            MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
            MirrorSpec("mirror-na-2.example", Continent.NORTH_AMERICA),
        )
        build = lambda: build_scenario(  # noqa: E731
            packages=_mini_packages(count=6), mirror_specs=specs,
            refresh=False, with_monitor=False)
        honest, attacked = build(), build()
        forged_bytes = forge(attacked.origin)
        assert b"backdoor" in forged_bytes
        colluding = {"mirror-eu-1.example", "mirror-eu-2.example"}
        requests = []

        def serve(name, mirror):
            def handler(operation, payload):
                requests.append((name, operation, payload))
                if name in colluding and operation == "get_index":
                    return forged_bytes, len(forged_bytes)
                return mirror.handle(operation, payload)
            return handler

        for name, mirror in attacked.mirrors.items():
            attacked.network.host(name).handler = serve(name, mirror)

        expected = multi_tenant_refresh(honest, repo_ids=[honest.repo_id])
        got = multi_tenant_refresh(attacked, repo_ids=[attacked.repo_id])

        index_readers = {name for name, operation, _ in requests
                         if operation == "get_index"}
        assert index_readers == set(attacked.mirrors)  # widened to all
        assert not [r for r in requests if r[2] == "backdoor"]
        assert (attacked.tsr.get_index_bytes(attacked.repo_id)
                == honest.tsr.get_index_bytes(honest.repo_id))
        a = expected.reports[honest.repo_id]
        b = got.reports[attacked.repo_id]
        assert a.serial == b.serial
        assert a.changed_packages == b.changed_packages
        assert dict(a.rejected) == dict(b.rejected)
        assert a.sanitized == b.sanitized


# -- orchestrator input validation --------------------------------------------


class TestOrchestratorValidation:
    def test_rejects_empty_and_duplicate_repos(self):
        _, scenario = _twin_scenarios(tenants=2)
        with pytest.raises(ValueError):
            RefreshOrchestrator(scenario.tsr, [])
        repo = scenario.tenants[0]
        with pytest.raises(ValueError):
            RefreshOrchestrator(scenario.tsr, [repo, repo])
        with pytest.raises(ValueError):
            RefreshOrchestrator(scenario.tsr, [repo], max_streams=0)

    def test_max_streams_caps_tenant_fanout(self):
        _, scenario = _twin_scenarios(tenants=2, overlap=0.0)
        orch = multi_tenant_refresh(scenario, max_streams=1)
        for report in orch.reports.values():
            assert len(set(report.mirror_assignments.values())) <= 1


# -- cache eviction ------------------------------------------------------------


class TestCacheEviction:
    def test_lru_eviction_within_budget(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        cache.put_original("r", "a", b"x" * 60)
        cache.put_original("r", "b", b"y" * 30)
        assert cache.shard_used_bytes(0) == 90
        cache.put_original("r", "c", b"z" * 50)  # evicts a (LRU)
        assert cache.get_original("r", "a") is None
        assert cache.get_original("r", "b") == b"y" * 30
        assert cache.get_original("r", "c") == b"z" * 50
        stats = cache.shard_stats()[0]
        assert stats.evictions == 1
        assert stats.evicted_bytes == 60
        assert cache.shard_used_bytes(0) <= 100

    def test_reads_refresh_recency(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        cache.put_original("r", "a", b"x" * 50)
        cache.put_original("r", "b", b"y" * 30)
        assert cache.get_original("r", "a") is not None  # a now MRU
        cache.put_original("r", "c", b"z" * 40)  # evicts b, not a
        assert cache.get_original("r", "a") is not None
        assert cache.get_original("r", "b") is None

    def test_oversized_blob_never_self_evicts(self):
        cache = PackageCache(shards=1, shard_budget_bytes=10)
        cache.put_original("r", "big", b"x" * 50)
        assert cache.get_original("r", "big") == b"x" * 50

    def test_eviction_attribution_pops_once(self):
        cache = PackageCache(shards=1, shard_budget_bytes=50)
        cache.put_original("r", "a", b"x" * 40)
        cache.put_original("r", "b", b"y" * 40)  # evicts a
        assert cache.original_was_evicted("r", "a")
        assert not cache.original_was_evicted("r", "a")  # popped
        assert not cache.original_was_evicted("r", "b")

    def test_content_store_round_trip_and_eviction(self):
        cache = PackageCache(shards=1, shard_budget_bytes=100)
        sha = cache.put_content(b"blob-1" * 10)
        assert cache.get_content(sha) == b"blob-1" * 10
        assert cache.has_content(sha)
        cache.put_content(b"blob-2" * 12)  # 60 + 72 > 100 -> evicts first
        assert cache.get_content(sha) is None
        assert cache.content_was_evicted(sha)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PackageCache(shard_budget_bytes=0)

    def test_sealed_state_survives_eviction_pressure(self):
        """Non-package state written directly to the root disk is never an
        eviction candidate."""
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  with_monitor=False,
                                  cache_budget_bytes=4096, cache_shards=1)
        from repro.core.service import SEALED_STATE_PATH
        assert scenario.tsr.cache.disk.isfile(SEALED_STATE_PATH)
        assert sum(s.evictions for s in scenario.tsr.cache.shard_stats()) > 0

    def test_eviction_caused_redownload_surfaces_in_report(self):
        """Tiny budget: tenant A's landed content is evicted before a
        later plan needs it -> the re-download is attributed."""
        scenario = build_multi_tenant_scenario(
            tenants=2, overlap=1.0, packages=_mini_packages(count=6),
            cache_budget_bytes=6000, cache_shards=1)
        first, second = scenario.tenants
        multi_tenant_refresh(scenario, repo_ids=[first])
        orch = multi_tenant_refresh(scenario, repo_ids=[second])
        report = orch.reports[second]
        # With everything shared, whatever was not evicted dedupes and the
        # evicted remainder is re-downloaded and counted.
        assert report.evicted_redownloads > 0
        assert report.evicted_redownloads + report.deduped_downloads + \
            report.interleaved_downloads >= 1
        assert report.sanitized == len(report.changed_packages)

    def test_generous_budget_dedupes_instead(self):
        scenario = build_multi_tenant_scenario(
            tenants=2, overlap=1.0, packages=_mini_packages(count=6))
        first, second = scenario.tenants
        multi_tenant_refresh(scenario, repo_ids=[first])
        orch = multi_tenant_refresh(scenario, repo_ids=[second])
        report = orch.reports[second]
        assert report.evicted_redownloads == 0
        assert report.deduped_downloads == len(report.changed_packages)
        assert report.downloaded_bytes == 0


# -- per-repo config hoisting --------------------------------------------------


class TestRepoConfigHoisting:
    def test_config_cached_across_refreshes(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  refresh=False, with_monitor=False)
        tsr = scenario.tsr
        config = tsr.repo_config(scenario.repo_id)
        assert tsr.repo_config(scenario.repo_id) is config
        calls = []
        original_ecall = tsr._enclave.ecall

        def counting_ecall(entry_point, *args, **kwargs):
            calls.append(entry_point)
            return original_ecall(entry_point, *args, **kwargs)

        tsr._enclave.ecall = counting_ecall
        try:
            tsr.refresh(scenario.repo_id)
            tsr.refresh(scenario.repo_id)
        finally:
            tsr._enclave.ecall = original_ecall
        # The per-call config resolution is gone: the only state exports
        # left are the one-per-refresh sealing flow.
        assert calls.count("export_state") == 2

    def test_config_contents(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  refresh=False, with_monitor=False)
        config = scenario.tsr.repo_config(scenario.repo_id)
        assert config.repo_id == scenario.repo_id
        assert len(config.mirrors) == 3
        assert config.fault_tolerance == 1
        assert config.quorum_needed == 2
        assert {m["hostname"] for m in config.ordered_mirrors} == \
            {m["hostname"] for m in config.mirrors}
        assert config.policy.fault_tolerance == 1

    def test_restart_drops_config_cache(self):
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  with_monitor=False)
        config = scenario.tsr.repo_config(scenario.repo_id)
        scenario.tsr.restart()
        assert scenario.tsr.repo_config(scenario.repo_id) is not config
        # And the repo still refreshes after the restart.
        report = scenario.tsr.refresh(scenario.repo_id)
        assert report.serial >= 1


# -- multi-tenant scenario construction ---------------------------------------


class TestMultiTenantScenario:
    def test_tenant_isolation(self):
        _, scenario = _twin_scenarios(tenants=3, overlap=0.5)
        assert len(scenario.tenants) == 3
        keys = [scenario.tenant_keys[r].fingerprint()
                for r in scenario.tenants]
        assert len(set(keys)) == 3  # per-tenant enclave-held keys
        multi_tenant_refresh(scenario)
        indexes = [
            RepositoryIndex.from_bytes(scenario.tsr.get_index_bytes(r))
            for r in scenario.tenants
        ]
        names = [set(i.entries) for i in indexes]
        # Overlapping cores, distinct exclusive slices.
        assert names[0] & names[1]
        assert names[0] != names[1]

    def test_overlap_bounds_validated(self):
        with pytest.raises(ValueError):
            build_multi_tenant_scenario(tenants=0,
                                        packages=_mini_packages(count=2))
        with pytest.raises(ValueError):
            build_multi_tenant_scenario(overlap=1.5,
                                        packages=_mini_packages(count=2))
        with pytest.raises(ValueError):
            build_multi_tenant_scenario(tenants=2, packages=[])

    def test_full_overlap_shares_everything(self):
        _, scenario = _twin_scenarios(tenants=2, overlap=1.0)
        orch = multi_tenant_refresh(scenario)
        first, second = scenario.tenants
        assert orch.reports[first].changed_packages == \
            orch.reports[second].changed_packages
        assert orch.reports[second].deduped_downloads == \
            len(orch.reports[second].changed_packages)
