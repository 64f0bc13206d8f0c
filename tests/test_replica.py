"""Edge-replica serving tier: differential identity, the freshness
quorum, adversarial sync/serving, and the serve-induced re-sanitize
queue.

The tier's contract is the CDN bargain with none of the trust: replicas
absorb every routine pull, yet replication must move *time only, never
content* — a replicated replay's discrete outcomes (installs, per-client
serial transitions, pulled wire bytes, published bytes) are
byte-identical to the primary-only replay, in both replay modes.  The
adversarial half pins the escape hatches: a frozen replica is refused by
the pull-side freshness quorum, a tampering replica is rejected by the
client's envelope verification and recovered around via a primary
(origin) full pull, and a tampered or rolled-back sync envelope never
makes it into a replica's adopted log.
"""

import dataclasses
import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.core import delta as delta_module
from repro.core import publications as publications_module
from repro.core.delta import (
    build_index_delta,
    index_body_sha256,
    index_unchanged_envelope,
    package_delta_target,
    parse_index_delta_envelope,
    parse_package_delta_envelope,
)
from repro.core.publications import Publication
from repro.core.replica import ReplicaTSR, check_replica_freshness
from repro.crypto.hashes import sha256_hex
from repro.osim import pkgmgr as pkgmgr_module
from repro.osim.pkgdb import DB_PATH, PackageDatabase
from repro.osim.pkgmgr import PackageManager
from repro.util import memo
from repro.util.errors import NetworkError, ReproError, RollbackError
from repro.workload.generator import (
    Trace,
    TraceEvent,
    evolve_packages,
    generate_trace,
)
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    build_scenario,
    multi_tenant_refresh,
)

ROUNDS = 4
WAVE = 8
FLEET = ROUNDS * WAVE


def _population(count=8, reps=400, files=6):
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
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   scripts=scripts, files=pkg_files))
    return packages


def _fleet_trace():
    """Publish/sync/refresh every 3s; each pull wave rotates in fresh
    clients and lands at the refresh start instant, so its pinned
    publication trails the refresh in flight — the stale-serve coupling
    the re-sanitize queue models (and the replicas absorb)."""
    events = []
    for r in range(ROUNDS):
        at = r * 3.0
        events.append(TraceEvent(at=at, kind="publish", fraction=0.4, seed=r))
        events.append(TraceEvent(at=at + 0.2, kind="mirror_sync"))
        events.append(TraceEvent(at=at + 0.4, kind="refresh"))
        events.append(TraceEvent(at=at + 0.4, kind="fleet_pull",
                                 clients=tuple(range(r * WAVE,
                                                     (r + 1) * WAVE)),
                                 installs_per_client=2, seed=1000 + r))
    return Trace(events=events, horizon=ROUNDS * 3.0, seed=5)


def _run_replay(replica_count, mode="interleaved", frozen=0):
    scenario = build_multi_tenant_scenario(tenants=2, overlap=0.6,
                                           packages=_population())
    multi_tenant_refresh(scenario)
    replicas = [ReplicaTSR(f"edge-{i:02d}.example", scenario.tsr,
                           sync_cadence=1.0)
                for i in range(replica_count)]
    for replica in replicas[:frozen]:
        replica.frozen = True
    report = replay_trace(scenario, _fleet_trace(), clients=FLEET,
                          mode=mode, delta_updates=True, replicas=replicas,
                          shared_tpm_seed=2020)
    return scenario, replicas, report


def _serials(report):
    return {client: tuple(serial for _, serial in timeline.transitions)
            for client, timeline in report.timelines.items()}


def _published(scenario):
    return [
        (repo_id, publication.serial, publication.index_bytes,
         sorted(publication.blobs.items()))
        for repo_id in scenario.tenants
        for publication in scenario.tsr.publications(repo_id)
    ]


# -- differential identity -----------------------------------------------------


class TestDifferentialIdentity:
    def test_replicated_replay_matches_primary_only(self):
        sc0, _, rep0 = _run_replay(0)
        sc3, replicas, rep3 = _run_replay(3)

        assert rep0.failed_installs == 0 and rep3.failed_installs == 0
        assert rep3.installs == rep0.installs
        assert sum(rep3.pull_wire_bytes) == sum(rep0.pull_wire_bytes)
        assert _serials(rep3) == _serials(rep0)
        assert _published(sc3) == _published(sc0)

        # The replicas genuinely carried the traffic: every routine pull
        # left the primary, whose serve path (and re-sanitize debt) went
        # quiet — while without replicas the stale-serve coupling bites.
        assert sum(replica.serve_count for replica in replicas) > 0
        assert sc0.tsr.serve_fallbacks > 0
        assert sc3.tsr.serve_fallbacks == 0
        assert rep3.replica_sync_bytes > 0
        assert rep3.replica_refusals == 0

    def test_streaming_replay_matches_materialized(self):
        _, _, materialized = _run_replay(3, mode="interleaved")
        _, _, streaming = _run_replay(3, mode="streaming")

        assert streaming.installs == materialized.installs
        assert streaming.failed_installs == 0
        assert sum(streaming.pull_wire_bytes) == \
            sum(materialized.pull_wire_bytes)
        # Streaming retires clients (and their timelines) as waves drain
        # — that's its O(active) memory contract — so identity is pinned
        # on the aggregates it does keep: counts, wire, and timing.
        assert streaming.replica_sync_bytes == materialized.replica_sync_bytes
        assert streaming.downloaded_bytes == materialized.downloaded_bytes
        for q in (50, 99):
            assert streaming.pull_latency_quantile(q) == pytest.approx(
                materialized.pull_latency_quantile(q), rel=1e-9)


# -- freshness quorum ----------------------------------------------------------


class TestFreshnessQuorum:
    def test_frozen_replica_is_refused_and_outcomes_unchanged(self):
        _, _, baseline = _run_replay(0)
        _, replicas, report = _run_replay(2, frozen=1)
        frozen, healthy = replicas

        # The frozen replica stalls past its staleness bound and the
        # wave-side quorum refuses it; its clients fail over without a
        # single divergent outcome.
        assert frozen.refusals > 0
        assert healthy.refusals == 0
        assert report.replica_refusals == frozen.refusals
        assert report.failed_installs == 0
        assert report.installs == baseline.installs
        assert _serials(report) == _serials(baseline)

    def _synced_replica(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        replica.sync_from_primary(at=scenario.clock.now() + 0.1)
        return scenario, replica

    def _keys(self, scenario):
        return [scenario.tsr_public_key]

    def test_fresh_replica_passes_and_returns_serial(self):
        scenario, replica = self._synced_replica()
        as_of = replica.synced_through
        serial = check_replica_freshness(replica, scenario.repo_id, as_of,
                                         self._keys(scenario))
        expected = scenario.tsr.publication_log.publication_at(
            scenario.repo_id, as_of)
        assert serial == expected.serial

    def test_staleness_bound_refuses_a_lagging_replica(self):
        scenario, replica = self._synced_replica()
        as_of = replica.synced_through + replica.staleness_bound + 0.5
        with pytest.raises(RollbackError, match="lags"):
            check_replica_freshness(replica, scenario.repo_id, as_of,
                                    self._keys(scenario))

    def test_unverifiable_served_index_is_refused(self):
        scenario, replica = self._synced_replica()
        log = replica.publication_log._publications[scenario.repo_id]
        corrupt = bytearray(log[-1].index_bytes)
        corrupt[len(corrupt) // 2] ^= 0x01
        log[-1] = dataclasses.replace(log[-1], index_bytes=bytes(corrupt))
        with pytest.raises(RollbackError, match="unverifiable"):
            check_replica_freshness(replica, scenario.repo_id,
                                    replica.synced_through,
                                    self._keys(scenario))

    def test_old_serial_replay_is_refused(self):
        scenario, replica = self._synced_replica()
        _publish_round(scenario, seed=1)
        now = scenario.clock.now()
        # The replica claims a fresh heartbeat but still serves the old
        # publication — the serial comparison against the primary's view
        # catches the replay.
        replica.synced_through = now
        with pytest.raises(RollbackError, match="replays serial"):
            check_replica_freshness(replica, scenario.repo_id, now,
                                    self._keys(scenario))


# -- adversarial: sync path ----------------------------------------------------


def _publish_round(scenario, seed, fraction=0.5):
    rng = random.Random(f"replica-round:{seed}")
    batch = evolve_packages(scenario.population, fraction, rng)
    scenario.origin.publish_many([(package, None) for package in batch])
    for package in batch:
        scenario.population[package.name] = package
    scenario.sync_mirrors()
    scenario.refresh()
    scenario.tsr.record_publication(scenario.repo_id, scenario.clock.now())
    return [package.name for package in batch]


def _tamper(scenario, hostname, operation, mutate):
    """Wrap a host handler, mutating one operation's responses."""
    host = scenario.network.host(hostname)
    original = host.handler

    def tampering(op, payload):
        blob, size = original(op, payload)
        if op == operation:
            blob = mutate(blob)
            size = len(blob)
        return blob, size

    host.handler = tampering
    return original


class TestAdversarialSync:
    def _scenario_and_replica(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        # Advance the clock rather than stamping the sync ahead of it: a
        # later sync at ``clock.now()`` must land after this one however
        # little simulated time the next publication round takes.
        scenario.clock.advance(0.1)
        replica.sync_from_primary(at=scenario.clock.now())
        return scenario, replica

    def test_sync_stamped_before_heartbeat_adopts_without_rewinding(self):
        scenario, replica = self._scenario_and_replica()
        heartbeat = scenario.clock.now() + 5.0
        replica.sync_from_primary(at=heartbeat)
        assert replica.synced_through == heartbeat
        assert len(replica.publication_log.publications(scenario.repo_id)) == 1
        _publish_round(scenario, seed=1)
        assert scenario.clock.now() < heartbeat

        # A sync stamped before the heartbeat still adopts everything
        # published by its own instant, and freshness never moves back.
        assert replica.sync_from_primary(at=scenario.clock.now()) == 1
        assert replica.sync_failures == 0
        assert replica.synced_through == heartbeat
        assert replica.publication_log.publications(scenario.repo_id) == \
            scenario.tsr.publications(scenario.repo_id)
        assert len(replica.publication_log.publications(scenario.repo_id)) == 2

    def test_tampered_sync_envelope_never_adopted(self):
        scenario, replica = self._scenario_and_replica()
        synced_through = replica.synced_through
        adopted = list(replica.publication_log.publications(scenario.repo_id))
        _publish_round(scenario, seed=1)

        def corrupt(blob: bytes) -> bytes:
            at = blob.index(b"\nU:") + 10
            return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]

        original = _tamper(scenario, scenario.tsr.hostname,
                           "get_index_delta", corrupt)
        replica.sync_from_primary(at=scenario.clock.now())
        scenario.network.host(scenario.tsr.hostname).handler = original

        # Nothing adopted, freshness stalled: the replica stays on its
        # last verified state rather than serving unauthenticated bytes.
        assert replica.sync_failures == 1
        assert replica.synced_through == synced_through
        assert replica.publication_log.publications(scenario.repo_id) == adopted

        # A clean retry catches up.
        replica.sync_from_primary(at=scenario.clock.now())
        assert replica.synced_through > synced_through
        assert len(replica.publication_log.publications(scenario.repo_id)) \
            > len(adopted)

    def test_rolled_back_sync_envelope_is_refused(self):
        scenario, replica = self._scenario_and_replica()
        _publish_round(scenario, seed=2)
        replica.sync_from_primary(at=scenario.clock.now())
        log = scenario.tsr.publications(scenario.repo_id)
        old = RepositoryIndex.from_bytes(log[0].index_bytes)
        current = RepositoryIndex.from_bytes(log[-1].index_bytes)
        assert old.serial < current.serial
        stale = build_index_delta(current, old)  # validly signed, older

        original = _tamper(scenario, scenario.tsr.hostname,
                           "get_index_delta", lambda blob: stale)
        replica.sync_from_primary(at=scenario.clock.now() + 5.0)
        scenario.network.host(scenario.tsr.hostname).handler = original

        assert replica.sync_failures == 1
        served = RepositoryIndex.from_bytes(
            replica.publication_log.newest(scenario.repo_id).index_bytes)
        assert served.serial == current.serial  # never went backwards

    def _sync_through(self, scenario, replica, envelope):
        """Sync at the current instant with the primary's answer replaced
        by ``envelope``; returns the sync instant."""
        original = _tamper(scenario, scenario.tsr.hostname,
                           "get_index_delta", lambda blob: envelope)
        now = scenario.clock.now()
        replica.sync_from_primary(at=now)
        scenario.network.host(scenario.tsr.hostname).handler = original
        return now

    def test_forged_unchanged_answer_adopts_nothing_newer(self):
        scenario, replica = self._scenario_and_replica()
        held = replica.publication_log.newest(scenario.repo_id)
        _publish_round(scenario, seed=1)
        assert scenario.tsr.publications(scenario.repo_id)[-1].serial == 2

        # "You are current" for the index the replica already holds
        # authenticates serial 1 and nothing newer: the primary's serial 2
        # stays unadopted, and the freshness check sees the replay.
        forged = index_unchanged_envelope(
            held.serial, index_body_sha256(held.index_bytes))
        now = self._sync_through(scenario, replica, forged)
        assert replica.sync_failures == 0
        assert replica.publication_log.newest(scenario.repo_id).serial == 1
        with pytest.raises(RollbackError, match="replays serial"):
            check_replica_freshness(replica, scenario.repo_id, now,
                                    [scenario.tsr_public_key])

    def test_unchanged_answer_naming_another_index_is_a_sync_failure(self):
        scenario, replica = self._scenario_and_replica()
        synced_through = replica.synced_through
        _publish_round(scenario, seed=1)
        newest = scenario.tsr.publications(scenario.repo_id)[-1]
        forged = index_unchanged_envelope(
            newest.serial, index_body_sha256(newest.index_bytes))
        self._sync_through(scenario, replica, forged)
        assert replica.sync_failures == 1
        assert replica.synced_through == synced_through
        assert replica.publication_log.newest(scenario.repo_id).serial == 1

    def test_stale_genuine_delta_adopts_only_its_serial(self):
        scenario, replica = self._scenario_and_replica()
        _publish_round(scenario, seed=1)
        first, second = (RepositoryIndex.from_bytes(p.index_bytes)
                         for p in scenario.tsr.publications(scenario.repo_id))
        stale = build_index_delta(first, second)
        _publish_round(scenario, seed=2)
        assert scenario.tsr.publications(scenario.repo_id)[-1].serial == 3

        # A validly signed 1 -> 2 diff replayed while the primary is at 3
        # authenticates serial 2: the replica adopts up to 2, never 3.
        now = self._sync_through(scenario, replica, stale)
        assert replica.sync_failures == 0
        assert replica.publication_log.newest(scenario.repo_id).serial == 2
        with pytest.raises(RollbackError, match="replays serial"):
            check_replica_freshness(replica, scenario.repo_id, now,
                                    [scenario.tsr_public_key])


# -- adversarial: a tampering replica, recovered via origin pulls --------------


def _rand_packages(count=4, payload=12 * 1024):
    """Incompressible payloads, so package deltas genuinely engage
    instead of degenerating to not-smaller full envelopes."""
    return [
        ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                   files=[PackageFile(
                       f"/usr/bin/pkg{i}",
                       random.Random(4000 + i).randbytes(payload))])
        for i in range(count)
    ]


class TestAdversarialServing:
    def _client_on_replica(self):
        scenario = build_scenario(packages=_rand_packages(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        replica.sync_from_primary(at=scenario.clock.now() + 0.1)
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager._client.replica_host = replica.hostname
        return scenario, replica, manager

    def test_routine_traffic_never_touches_the_primary(self):
        scenario, replica, manager = self._client_on_replica()
        primary_serves = []
        original = _tamper(
            scenario, scenario.tsr.hostname, "get_index",
            lambda blob: primary_serves.append(1) or blob)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert replica.serve_count > 0
        assert primary_serves == []

    def test_tampered_replica_index_delta_recovered_from_origin(self):
        scenario, replica, manager = self._client_on_replica()
        manager.update()
        _publish_round(scenario, seed=3)
        replica.sync_from_primary(at=scenario.clock.now())

        def corrupt(blob: bytes) -> bytes:
            at = blob.index(b"\nU:") + 10
            return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]

        serves_before = replica.serve_count
        original = _tamper(scenario, replica.hostname,
                           "get_index_delta", corrupt)
        index = manager.update()
        scenario.network.host(replica.hostname).handler = original

        # Rejected, then recovered through a full pull that bypassed the
        # tampering replica entirely: only the poisoned delta itself was
        # served from the edge.
        assert manager.delta_stats.index_rejected == 1
        assert manager.delta_stats.index_full.get("rejected") == 1
        assert replica.serve_count == serves_before + 1
        assert index.to_bytes() == scenario.tsr.get_index_bytes(
            scenario.repo_id)

    def test_tampered_replica_package_delta_recovered_from_origin(self):
        scenario, replica, manager = self._client_on_replica()
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        _publish_round(scenario, seed=4, fraction=1.0)
        replica.sync_from_primary(at=scenario.clock.now())
        manager.update()

        def corrupt(blob: bytes) -> bytes:
            kind, _, _ = parse_package_delta_envelope(blob)
            assert kind == "delta"  # the attack targets the delta path
            return blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]

        serves_before = replica.serve_count
        original = _tamper(scenario, replica.hostname, "get_package_delta",
                           corrupt)
        manager.install(name)  # upgrade through the tampered edge
        scenario.network.host(replica.hostname).handler = original

        assert manager.delta_stats.package_rejected == 1
        assert manager.delta_stats.package_full.get("rejected") == 1
        assert replica.serve_count == serves_before + 1
        entry = manager.index.get(name)
        record = manager._node.pkgdb.get(name)
        assert record.content_hash == entry.sha256  # origin bytes won


# -- the captured-copy check: repeat serves, changed objects --------------------


class TestCapturedCopyCheck:
    """A publication re-hashes its captured copy only when the blob or
    its pin changed since the last passing serve."""

    def _served(self):
        scenario = build_scenario(packages=_rand_packages(count=2),
                                  with_monitor=False)
        publication = scenario.tsr.record_publication(scenario.repo_id, 0.0)
        name = sorted(publication.blobs)[0]
        blob = publication.captured_blob(name)
        assert publication.captured_blob(name) is blob
        return publication, name, blob

    def test_swapped_blob_is_rechecked(self):
        publication, name, blob = self._served()
        tampered = blob[:-9] + bytes([blob[-9] ^ 0x01]) + blob[-8:]
        publication.blobs[name] = tampered
        with pytest.raises(NetworkError, match="does not match its signed"):
            publication.captured_blob(name)
        # A mutable copy is checked on every serve.
        publication.blobs[name] = bytearray(blob)
        assert publication.captured_blob(name) == blob
        publication.blobs[name][-9] ^= 0x01
        with pytest.raises(NetworkError, match="does not match its signed"):
            publication.captured_blob(name)

    def test_changed_pin_is_rechecked(self):
        publication, name, blob = self._served()
        size, sha = publication.entries[name]
        publication.entries[name] = (size, "0" * 64)
        with pytest.raises(NetworkError, match="does not match its signed"):
            publication.captured_blob(name)
        publication.entries[name] = (size + 1, sha)
        with pytest.raises(NetworkError, match="does not match its signed"):
            publication.captured_blob(name)
        publication.entries[name] = (size, sha)
        assert publication.captured_blob(name) is blob


# -- work counts: bookkeeping runs once per input -----------------------------


def _rotating_delta_fleet():
    """Two tenants, one edge replica, eight clients rotating through
    waves of four over four publish rounds: returning clients upgrade
    through package deltas, and the replica serves repeat captured
    copies."""
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.6, packages=_rand_packages(count=4,
                                                        payload=8 * 1024))
    multi_tenant_refresh(scenario)
    replica = ReplicaTSR("edge-00.example", scenario.tsr, sync_cadence=1.0)
    trace = generate_trace(rounds=4, interval=4.0, pull_lag=3.5,
                           publish_fraction=0.25, seed=1001, fleet_size=8,
                           clients_per_wave=4, installs_per_client=4,
                           streaming=True)
    return replay_trace(scenario, trace, clients=8, mode="streaming",
                        delta_updates=True, replicas=[replica],
                        shared_tpm_seed=2020)


class TestBookkeepingWorkCounts:
    """Regression guards on work, not time: the package database parses
    once per write it did not make itself, each served (blob, pin) pair
    is hashed once, and a client never re-hashes bytes whose digest it
    already proved, delta bases included."""

    def test_small_delta_fleet_does_each_piece_of_bookkeeping_once(
            self, monkeypatch):
        databases, parses = [], []
        serves, served, served_hashes = [], {}, []
        delta_blobs, delta_bases, client_hashes, delta_hashes = [], [], [], []

        real_init = PackageDatabase.__init__
        real_parse = PackageDatabase._parse

        def init(self, *args, **kwargs):
            databases.append(self)
            real_init(self, *args, **kwargs)

        def parse(raw):
            parses.append(raw)
            return real_parse(raw)

        real_pins = Publication.pins

        def pins(self, name, blob):
            matched = real_pins(self, name, blob)
            size, sha = self.entries[name]
            serves.append(name)
            if matched:
                served[(name, id(blob), size, sha)] = blob
            return matched

        def hashed_by(log, real=sha256_hex):
            def counting(data):
                log.append(data)
                return real(data)
            return counting

        real_apply = pkgmgr_module.apply_package_delta

        def apply(base, payload, base_sha256):
            blob = real_apply(base, payload, base_sha256)
            delta_blobs.append(blob)
            delta_bases.append(base)
            return blob

        monkeypatch.setattr(PackageDatabase, "__init__", init)
        monkeypatch.setattr(PackageDatabase, "_parse", staticmethod(parse))
        monkeypatch.setattr(Publication, "pins", pins)
        monkeypatch.setattr(publications_module, "sha256_hex",
                            hashed_by(served_hashes))
        monkeypatch.setattr(pkgmgr_module, "sha256_hex",
                            hashed_by(client_hashes))
        monkeypatch.setattr(pkgmgr_module, "apply_package_delta", apply)
        monkeypatch.setattr(delta_module, "sha256_hex",
                            hashed_by(delta_hashes))

        report = _rotating_delta_fleet()
        assert report.failed_installs == 0 and report.failed_pulls == 0
        stats = report.delta_stats
        assert stats["package_deltas"] > 0 and stats["package_rejected"] == 0

        # One parse per booted node (its empty file); every later read
        # is of bytes the database wrote itself.
        assert len(databases) == report.streaming.clients_booted
        assert len(parses) == len(databases)
        # Every capture and serve checks its pin through
        # ``Publication.pins``; each distinct matching (blob, pin) pair is
        # hashed once, in whichever publication checks it first, and the
        # fleet does repeat some.
        assert len(served_hashes) == len(served) < len(serves)
        # Clients hash full pulls only: never a blob a delta rebuilt.
        assert len(client_hashes) == sum(stats["package_full"].values())
        rebuilt = {id(blob) for blob in delta_blobs}
        assert not any(id(data) in rebuilt for data in client_hashes)
        # Applying a delta never hashes its base: the base's chunk map
        # is found under the digest the client verified it under.
        bases = {id(base) for base in delta_bases}
        assert not any(id(data) in bases for data in delta_hashes)

    def test_base_reuse_and_raw_writes(self, monkeypatch):
        scenario = build_scenario(packages=_rand_packages(count=2),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        node, manager = scenario.new_node("reuser", delta_updates=True)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        manager.uninstall(name)
        reuses = manager.delta_stats.base_reuses

        parses, client_hashes = [], []
        real_parse = PackageDatabase._parse

        def parse(raw):
            parses.append(raw)
            return real_parse(raw)

        def counting(data):
            client_hashes.append(data)
            return sha256_hex(data)

        monkeypatch.setattr(PackageDatabase, "_parse", staticmethod(parse))
        monkeypatch.setattr(pkgmgr_module, "sha256_hex", counting)
        manager.install(name)  # the cached base is the pinned version
        assert manager.delta_stats.base_reuses == reuses + 1
        assert client_hashes == []
        node.pkgdb.mark_outdated(name)
        assert [e.name for e in manager.available_upgrades()] == [name]
        assert parses == []
        raw = node.fs.read_file(DB_PATH)
        node.fs.write_file(DB_PATH, raw.replace(b"0.0.0-r0", b"0.0.1-r0"))
        assert node.pkgdb.get(name).version == "0.0.1-r0"
        assert node.pkgdb.installed_names() == {name}
        assert len(parses) == 1


class TestPackageApplyMemoOnAFleet:
    """Returning clients share one rebuild per (verified base, envelope):
    each gets back the target its envelope declares, and the fleet ends
    exactly where a run that rebuilds every delta from empty memos
    ends."""

    @staticmethod
    def _run(cold: bool):
        managers, serials, declared = [], [], []
        real_init = PackageManager.__init__
        real_update = PackageManager.update
        real_apply = pkgmgr_module.apply_package_delta

        def init(self, *args, **kwargs):
            managers.append(self)
            real_init(self, *args, **kwargs)

        def update(self):
            index = real_update(self)
            serials.append((self._node.name, index.serial))
            return index

        def apply(base, payload, base_sha256):
            if cold:
                memo.clear_all()
            blob = real_apply(base, payload, base_sha256)
            header = parse_package_delta_envelope(payload)[1]
            declared.append(package_delta_target(header)
                            == (sha256_hex(blob), len(blob)))
            return blob

        memo.clear_all()
        hits = memo.stats()["core.delta.package_apply"]["hits"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PackageManager, "__init__", init)
            patch.setattr(PackageManager, "update", update)
            patch.setattr(pkgmgr_module, "apply_package_delta", apply)
            report = _rotating_delta_fleet()
        hits = memo.stats()["core.delta.package_apply"]["hits"] - hits
        assert report.failed_installs == 0 and report.failed_pulls == 0
        assert declared and all(declared)
        nodes = [{path: (manager._node.fs._walk_to(path).content,
                         manager._node.fs.file_mode(path),
                         manager._node.fs.list_xattrs(path))
                  for path in manager._node.fs.walk_files()}
                 for manager in managers]
        return hits, (nodes, serials, report.delta_stats,
                      report.pull_wire_bytes, report.installs)

    def test_live_memos_leave_the_state_of_cold_rebuilds(self):
        hits, warm = self._run(cold=False)
        assert hits > 0  # returning clients did share rebuilds
        assert self._run(cold=True) == (0, warm)
        nodes, _, stats, _, _ = warm
        assert stats["package_deltas"] > 0
        assert all(DB_PATH in files for files in nodes)


# -- the serve-induced re-sanitize queue and publication retention -------------


class TestResanitizeQueue:
    def _scenario(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        return scenario

    def _changed_name(self, scenario, changed):
        old = scenario.tsr.publications(scenario.repo_id)[0]
        for name in changed:
            if name in old.entries:
                return name
        raise AssertionError("publish round changed nothing servable")

    def test_stale_serve_queues_one_deduped_job(self):
        scenario = self._scenario()
        tsr = scenario.tsr
        name = self._changed_name(scenario, _publish_round(scenario, seed=5))
        old = tsr.publications(scenario.repo_id)[0]

        # The live cache now holds the new round's blob; a time-stamped
        # serve of the old publication falls back to the captured copy —
        # bytes still verify against the *old* signed index — and queues
        # exactly one re-sanitize job, deduped across repeat serves.
        blob = tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        assert blob == old.blobs[name]
        assert tsr.serve_fallbacks == 1  # counts queued jobs: deduped
        jobs = tsr.take_resanitize_jobs()
        assert [job.name for job in jobs] == [name]

        # Completing the job restores the served artifact: the next
        # time-stamped serve finds its blob cached and queues nothing.
        tsr.complete_resanitize(jobs[0])
        tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        assert tsr.take_resanitize_jobs() == []

    def test_retention_prunes_the_log_and_counts_full_pulls(self):
        scenario = self._scenario()
        tsr = scenario.tsr
        tsr.publication_retention = 1
        for seed in (6, 7, 8):
            _publish_round(scenario, seed)
        log = tsr.publications(scenario.repo_id)
        assert len(log) <= 2  # newest + the floor the pruner keeps
        pruned_serial = tsr.publication_log.pruned_through[scenario.repo_id]

        before = tsr.publication_log.retention_full_pulls
        tsr.index_delta_at(scenario.repo_id, base_serial=pruned_serial)
        assert tsr.publication_log.retention_full_pulls == before + 1


# -- per-request differential: both tiers serve through one log ---------------


def _mixed_packages():
    """Incompressible payloads, whose package deltas engage, next to
    compressible ones, whose small blobs make a delta not smaller."""
    return _rand_packages(count=3) + [
        ApkPackage(name=f"txt-{i:02d}", version="1.0-r0",
                   files=[PackageFile(f"/usr/share/txt{i}",
                                      f"line {i}\n".encode() * 300)])
        for i in range(3)
    ]


def _answer(scenario, hostname, operation, payload):
    """One request through a host's network handler: the payload bytes,
    or the type of the library error it raised."""
    try:
        blob, _ = scenario.network.host(hostname).handler(operation, payload)
    except ReproError as exc:
        return type(exc)
    return blob


def _kind(operation, answer):
    """An answer's envelope kind or fallback reason (or error name)."""
    if isinstance(answer, type):
        return answer.__name__
    if operation == "get_index_delta":
        envelope = parse_index_delta_envelope(answer)
        return envelope.reason if envelope.kind == "full" else envelope.kind
    if operation == "get_package_delta":
        kind, reason, _ = parse_package_delta_envelope(answer)
        return reason if kind == "full" else kind
    return "bytes"


class TestPerRequestDifferential:
    """Every publication-backed request, asked of the primary and of a
    replica synced to the same instant, gets the same answer."""

    UNKNOWN_SHA = sha256_hex(b"never published")

    def _requests(self, scenario, history):
        """Requests at instants before, at and between publications (the
        earliest is a pruned laggard once retention bites), against every
        serial and package sha ever published plus unknown ones.  Each
        package-delta base is tagged retained, pruned or random."""
        repo_id = scenario.repo_id
        retained = {sha for p in scenario.tsr.publications(repo_id)
                    for _, sha in p.entries.values()}
        stamps = [history[0].available_at - 0.05, scenario.clock.now()]
        for older, newer in zip(history, history[1:]):
            stamps += [older.available_at,
                       (older.available_at + newer.available_at) / 2]
        stamps.append(history[-1].available_at)
        serials = sorted({p.serial for p in history}) + [10 ** 6]
        names = sorted(scenario.population) + ["no-such-package"]
        for as_of in stamps + [None]:
            base = {"repo": repo_id, "as_of": as_of}
            if as_of is not None:
                yield "get_index", base, None
                for name in names:
                    yield "get_package", {**base, "name": name}, None
            for serial in serials:
                yield "get_index_delta", {**base, "base_serial": serial}, None
            for name in names:
                shas = {p.entries[name][1] for p in history
                        if name in p.entries}
                for sha in sorted(shas) + [self.UNKNOWN_SHA]:
                    tag = ("random" if sha == self.UNKNOWN_SHA
                           else "retained" if sha in retained else "pruned")
                    yield ("get_package_delta",
                           {**base, "name": name, "base_sha256": sha}, tag)

    def _compare(self, scenario, replica, requests):
        seen = set()
        for operation, payload, tag in requests:
            primary = _answer(scenario, scenario.tsr.hostname, operation,
                              payload)
            edge = _answer(scenario, replica.hostname, operation, payload)
            assert edge == primary, (operation, payload)
            seen.add((operation, _kind(operation, primary), tag))
        return seen

    def test_primary_and_replica_answer_every_request_identically(self):
        scenario = build_scenario(packages=_mixed_packages(),
                                  with_monitor=False)
        tsr, repo_id = scenario.tsr, scenario.repo_id
        tsr.delta_log_depth = 2
        tsr.publication_retention = 3
        tsr.record_publication(repo_id, scenario.clock.now())
        replica = ReplicaTSR("edge-00.example", tsr, sync_cadence=1.0)
        history = tsr.publications(repo_id)  # every publication, pruned too
        seen = set()
        for seed in range(6):
            if seed:
                _publish_round(scenario, seed=30 + seed)
                history.append(tsr.publications(repo_id)[-1])
            scenario.clock.advance(0.1)
            replica.sync_from_primary(at=scenario.clock.now())
            assert replica.sync_failures == 0
            seen |= self._compare(scenario, replica,
                                  self._requests(scenario, history))
        assert len(history) > len(tsr.publications(repo_id))  # pruned

        tsr.delta_log_depth = 0
        disabled = self._compare(scenario, replica,
                                 self._requests(scenario, history))

        expected = {
            ("get_index", "bytes", None),
            ("get_index", "NetworkError", None),
            ("get_package", "bytes", None),
            ("get_package", "NetworkError", None),
            ("get_index_delta", "same", None),
            ("get_index_delta", "delta", None),
            ("get_index_delta", "depth", None),
            ("get_index_delta", "retention", None),
            ("get_index_delta", "unknown-base", None),
            ("get_package_delta", "delta", "retained"),
            ("get_package_delta", "same", "retained"),
            ("get_package_delta", "not-smaller", "retained"),
            ("get_package_delta", "unknown-base", "random"),
            ("get_package_delta", "unknown-base", "pruned"),
        }
        assert expected <= seen
        assert {("get_index_delta", "disabled", None),
                ("get_package_delta", "disabled", "retained")} <= disabled
