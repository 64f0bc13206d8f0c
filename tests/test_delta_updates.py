"""Delta-update path: differential properties, adversarial fallbacks,
and replay regression.

The delta path's contract is *byte-identity*: whatever a client accepts
through an index diff or a chunked package patch must be exactly the
bytes a full pull would have delivered — same content, same signature
verdicts.  This suite pins that contract three ways:

* **Differential property suite** — ~100 generated publication pairs
  (random signed index pairs + random apk version pairs), each diffed,
  wire-encoded, and re-applied: the reconstruction must equal the target
  byte for byte and verify identically.
* **Adversarial suite** — tampered envelopes are rejected and recovered
  via a clean full pull; a correctly-addressed delta targeting an *older*
  serial (the paper's rollback attack) is refused before signature
  verification; depth-bound and disabled servers fall back with counted
  reasons.
* **Replay regression** — a delta-enabled multi-round replay reproduces
  the full-pull replay's staleness/availability metrics (only wire bytes
  change) and is independently reproducible in one process.
"""

import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.core.delta import (
    MANIFEST_HEADER,
    apply_index_delta,
    apply_package_delta,
    blob_manifest,
    build_index_delta,
    build_package_delta,
    parse_index_delta_envelope,
    parse_manifest,
    parse_package_delta_envelope,
)
from repro.core.replica import ReplicaTSR
from repro.crypto.hashes import sha256_hex
from repro.util.errors import DeltaError, IntegrityError, RollbackError
from repro.workload.generator import evolve_packages, generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import build_scenario

# -- generators ---------------------------------------------------------------


def _random_entry(rng: random.Random, name: str,
                  pool: list[str]) -> IndexEntry:
    depends = tuple(rng.sample(pool, rng.randrange(0, min(3, len(pool) + 1))))
    return IndexEntry(
        name=name,
        version=f"{rng.randrange(1, 4)}.{rng.randrange(10)}-r{rng.randrange(6)}",
        size=rng.randrange(64, 1 << 20),
        sha256=sha256_hex(rng.randbytes(16)),
        depends=depends,
    )


def _random_index_pair(rng: random.Random, key):
    """A signed (base, target) index pair: updates + additions + removals."""
    names = [f"pkg-{i:02d}" for i in range(rng.randrange(3, 12))]
    base = RepositoryIndex(serial=rng.randrange(1, 50))
    for name in names:
        base.add(_random_entry(rng, name, []))
    target = RepositoryIndex(serial=base.serial + rng.randrange(1, 5))
    kept = [n for n in names if rng.random() > 0.25]
    for name in kept:
        entry = base.entries[name]
        if rng.random() < 0.5:
            entry = _random_entry(rng, name, [])  # changed release
        target.add(entry)
    for i in range(rng.randrange(0, 4)):
        target.add(_random_entry(rng, f"new-{i:02d}", kept))
    base.sign(key)
    target.sign(key)
    return base, target


def _mutate_blob(content: bytes, rng: random.Random) -> bytes:
    """Insert / delete / replace edits, like an upstream release would."""
    out = bytearray(content)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(out) + 1)
        kind = rng.choice(("insert", "delete", "replace"))
        if kind == "insert" or not out:
            out[at:at] = rng.randbytes(rng.randrange(1, 200))
        elif kind == "delete":
            del out[at:at + rng.randrange(1, 200)]
        else:
            span = rng.randrange(1, 200)
            out[at:at + span] = rng.randbytes(span)
    return bytes(out)


def _random_package_pair(rng: random.Random, key):
    """Two built releases of one random package (v2 mutates v1's files)."""
    files_v1 = [
        PackageFile(f"/usr/lib/f{i}.bin",
                    rng.randbytes(rng.randrange(2_000, 20_000)))
        for i in range(rng.randrange(1, 4))
    ]
    v1 = ApkPackage(name="gen-pkg", version="1.0-r0", files=files_v1)
    files_v2 = [PackageFile(f.path, _mutate_blob(f.content, rng), mode=f.mode)
                for f in files_v1]
    v2 = ApkPackage(name="gen-pkg", version="1.0-r1", files=files_v2)
    return v1.build(key), v2.build(key)


# -- differential property suite ----------------------------------------------


class TestIndexDeltaDifferential:
    @pytest.mark.parametrize("seed", range(50))
    def test_applied_delta_is_byte_identical_and_verifies(self, seed,
                                                          rsa_key):
        rng = random.Random(f"idx-pair:{seed}")
        base, target = _random_index_pair(rng, rsa_key)
        envelope = parse_index_delta_envelope(build_index_delta(base, target))
        rebuilt = apply_index_delta(base, envelope)
        assert rebuilt.to_bytes() == target.to_bytes()
        assert rebuilt.verify(rsa_key.public_key)
        # Full differential closure: re-parsing the reconstruction gives
        # the same verification verdict as the directly built target.
        reparsed = RepositoryIndex.from_bytes(rebuilt.to_bytes())
        assert reparsed.verify(rsa_key.public_key) \
            == target.verify(rsa_key.public_key)

    def test_wrong_base_is_rejected(self, rsa_key):
        rng = random.Random("idx-wrong-base")
        base, target = _random_index_pair(rng, rsa_key)
        other, _ = _random_index_pair(random.Random("other"), rsa_key)
        envelope = parse_index_delta_envelope(build_index_delta(base, target))
        with pytest.raises(DeltaError):
            apply_index_delta(other, envelope)

    def test_unsigned_target_cannot_be_diffed(self, rsa_key):
        base, target = _random_index_pair(random.Random("x"), rsa_key)
        target.signature = None
        with pytest.raises(DeltaError):
            build_index_delta(base, target)


class TestPackageDeltaDifferential:
    @pytest.mark.parametrize("seed", range(50))
    def test_patched_package_is_byte_identical(self, seed, rsa_key):
        rng = random.Random(f"pkg-pair:{seed}")
        blob_v1, blob_v2 = _random_package_pair(rng, rsa_key)
        envelope = build_package_delta(blob_manifest(blob_v1), blob_v2)
        if envelope is None:
            # Legitimate not-smaller outcome (tiny or fully rewritten
            # payloads); the server would tag a full pull instead.
            return
        reconstructed = apply_package_delta(blob_v1, envelope,
                                            sha256_hex(blob_v1))
        assert reconstructed == blob_v2
        # Verification verdict identity: the signed-index checks a
        # package manager runs see the same bytes either way.
        assert sha256_hex(reconstructed) == sha256_hex(blob_v2)
        parsed = ApkPackage.parse(reconstructed)
        parsed.verify([rsa_key.public_key])

    def test_most_generated_pairs_actually_produce_deltas(self, rsa_key):
        """Guards the suite's power: if the chunker regressed into
        shipping every pair as not-smaller, byte-identity above would
        pass vacuously."""
        produced = 0
        for seed in range(50):
            rng = random.Random(f"pkg-pair:{seed}")
            blob_v1, blob_v2 = _random_package_pair(rng, rsa_key)
            if build_package_delta(blob_manifest(blob_v1), blob_v2) \
                    is not None:
                produced += 1
        assert produced >= 30

    @pytest.mark.parametrize("cid", [
        b"0123456789ABCDEF",           # uppercase hex
        b"01234567x9abcdef",           # one non-hex character mid-id
        b"0123456789abcd\xc3\xa9",     # non-ASCII: decodes to U+FFFD
    ])
    def test_manifest_rejects_non_lowercase_hex_ids(self, cid):
        good = MANIFEST_HEADER + b"0123456789abcdef\n"
        assert parse_manifest(good) == ["0123456789abcdef"]
        with pytest.raises(DeltaError):
            parse_manifest(good + cid + b"\n")

    def test_delta_is_smaller_than_full(self, rsa_key):
        rng = random.Random("pkg-size")
        blob_v1, blob_v2 = _random_package_pair(rng, rsa_key)
        envelope = build_package_delta(blob_manifest(blob_v1), blob_v2)
        assert envelope is not None
        assert len(envelope) < len(blob_v2)


# -- end-to-end scenario equivalence ------------------------------------------


def _mini_packages(count=6, payload=12 * 1024):
    """Random (incompressible) payloads: realistic blob sizes, so deltas
    genuinely beat full pulls instead of degenerating to not-smaller."""
    return [
        ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                   files=[PackageFile(
                       f"/usr/bin/pkg{i}",
                       random.Random(4000 + i).randbytes(payload))])
        for i in range(count)
    ]


def _delta_scenario(count=6):
    scenario = build_scenario(packages=_mini_packages(count=count),
                              with_monitor=False)
    scenario.tsr.record_publication(scenario.repo_id, 0.0)
    return scenario


def _publish_round(scenario, seed, fraction=0.5):
    rng = random.Random(f"delta-round:{seed}")
    batch = evolve_packages(scenario.population, fraction, rng)
    scenario.origin.publish_many([(package, None) for package in batch])
    for package in batch:
        scenario.population[package.name] = package
    scenario.sync_mirrors()
    scenario.refresh()
    scenario.tsr.record_publication(scenario.repo_id, scenario.clock.now())
    return [package.name for package in batch]


class TestEndToEndEquivalence:
    def test_delta_client_sees_full_client_bytes(self):
        scenario = _delta_scenario()
        _, full_mgr = scenario.new_node("full-client")
        _, delta_mgr = scenario.new_node("delta-client", delta_updates=True)

        # Round 0: cold caches — the delta client full-pulls ("no-base"),
        # then both clients install everything (the delta client's bases).
        assert full_mgr.update().to_bytes() == delta_mgr.update().to_bytes()
        assert delta_mgr.delta_stats.index_full == {"no-base": 1}
        for name in sorted(scenario.population):
            full_mgr.install(name)
            delta_mgr.install(name)

        # Rounds 1-2: warm bases — index and package deltas engage.
        for round_seed in (1, 2):
            changed = _publish_round(scenario, round_seed, fraction=0.4)
            full_index = full_mgr.update()
            delta_index = delta_mgr.update()
            assert delta_index.to_bytes() == full_index.to_bytes()
            name = changed[0]
            full_mgr.install(name)
            delta_mgr.install(name)
            full_rec = full_mgr._node.pkgdb.get(name)
            delta_rec = delta_mgr._node.pkgdb.get(name)
            assert delta_rec.content_hash == full_rec.content_hash
            assert delta_rec.version == full_rec.version
        assert delta_mgr.delta_stats.index_deltas == 2
        assert delta_mgr.delta_stats.package_deltas >= 1
        assert delta_mgr.delta_stats.index_rejected == 0
        assert delta_mgr.delta_stats.package_rejected == 0
        # The server counted the same story, and deltas saved real bytes.
        assert scenario.tsr.publication_log.delta_index_serves == 2
        assert scenario.tsr.publication_log.delta_package_serves >= 1
        assert scenario.tsr.publication_log.delta_bytes_saved > 0

    def test_current_client_gets_unchanged_envelope(self):
        scenario = _delta_scenario()
        _, manager = scenario.new_node("steady", delta_updates=True)
        first = manager.update()
        second = manager.update()  # no new publication in between
        assert second.to_bytes() == first.to_bytes()
        assert manager.delta_stats.index_unchanged == 1
        assert scenario.tsr.publication_log.delta_index_unchanged == 1

    def test_base_reuse_skips_the_wire_entirely(self):
        scenario = _delta_scenario()
        _, manager = scenario.new_node("reuser", delta_updates=True)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        wire_before = manager.delta_stats.package_wire_bytes
        manager.uninstall(name)
        # Reinstalling the same version: the cached base *is* the target.
        manager.install(name)
        assert manager.delta_stats.base_reuses >= 1
        assert manager.delta_stats.package_wire_bytes == wire_before


# -- chunk manifests built on the first delta request -------------------------


def _rebuilt_scenario():
    """A delta scenario whose every package changed since publication 0;
    returns it with one package name and that package's publication-0
    SHA-256 and blob (the delta base)."""
    scenario = _delta_scenario()
    base = scenario.tsr.publications(scenario.repo_id)[0]
    name = sorted(scenario.population)[0]
    _publish_round(scenario, 11, fraction=1.0)
    return scenario, name, base.entries[name][1], base.blobs[name]


class TestManifestsOnFirstRequest:
    def test_publishing_writes_no_manifest(self):
        scenario, _, _, _ = _rebuilt_scenario()
        assert scenario.tsr.delta_log_depth > 0
        assert len(scenario.tsr.publications(scenario.repo_id)) == 2
        assert scenario.tsr.cache.manifest_writes == 0

    def test_first_request_builds_one_manifest_and_repeats_reuse_it(self):
        scenario, name, base_sha, base_blob = _rebuilt_scenario()
        tsr, cache = scenario.tsr, scenario.tsr.cache
        first = tsr.package_delta_at(scenario.repo_id, name, base_sha)
        assert parse_package_delta_envelope(first)[0] == "delta"
        assert cache.manifest_writes == 1
        assert cache.get_chunk_manifest(base_sha) == blob_manifest(base_blob)
        again = tsr.package_delta_at(scenario.repo_id, name, base_sha)
        assert again == first
        assert cache.manifest_writes == 1

    def test_base_pinned_only_by_a_pruned_publication_is_unknown(self):
        scenario = _delta_scenario()
        tsr = scenario.tsr
        tsr.publication_retention = 2
        base = tsr.publications(scenario.repo_id)[0]
        built, untouched = sorted(scenario.population)[:2]
        _publish_round(scenario, 12, fraction=1.0)
        # One base gets its manifest while its publication is retained;
        # two more rebuild-everything rounds then prune that publication.
        tsr.package_delta_at(scenario.repo_id, built, base.entries[built][1])
        assert tsr.cache.manifest_writes == 1
        for seed in (13, 14):
            _publish_round(scenario, seed, fraction=1.0)
        pinned = {sha for p in tsr.publications(scenario.repo_id)
                  for _, sha in p.entries.values()}
        for name in (built, untouched):
            base_sha = base.entries[name][1]
            assert base_sha not in pinned
            before = tsr.publication_log.retention_full_pulls
            kind, reason, _ = parse_package_delta_envelope(
                tsr.package_delta_at(scenario.repo_id, name, base_sha))
            assert (kind, reason) == ("full", "unknown-base")
            assert tsr.publication_log.retention_full_pulls == before + 1
            assert tsr.cache.get_chunk_manifest(base_sha) is None
        assert tsr.publication_log.delta_package_fallbacks.get(
            "unknown-base") == 2
        assert tsr.cache.manifest_writes == 1

    def test_replica_builds_an_untouched_base_like_the_primary(self):
        scenario, name, base_sha, base_blob = _rebuilt_scenario()
        tsr = scenario.tsr
        replica = ReplicaTSR("edge-00.example", tsr, sync_cadence=1.0)
        scenario.clock.advance(0.1)
        replica.sync_from_primary(at=scenario.clock.now())
        assert scenario.tsr.cache.manifest_writes == 0
        served = replica.publication_log.package_delta_at(
            scenario.repo_id, name, base_sha)
        assert parse_package_delta_envelope(served)[0] == "delta"
        assert scenario.tsr.cache.manifest_writes == 1
        assert served == tsr.package_delta_at(scenario.repo_id, name,
                                              base_sha)
        target = tsr.publications(scenario.repo_id)[-1].blobs[name]
        assert served == build_package_delta(blob_manifest(base_blob),
                                             target)
        assert apply_package_delta(base_blob, served,
                                   sha256_hex(base_blob)) == target


# -- adversarial suite --------------------------------------------------------


def _tamper(scenario, operation, mutate):
    """Wrap the TSR host handler, mutating one operation's responses."""
    host = scenario.network.host(scenario.tsr.hostname)
    original = host.handler

    def tampering(op, payload):
        blob, size = original(op, payload)
        if op == operation:
            blob = mutate(blob)
            size = len(blob)
        return blob, size

    host.handler = tampering
    return original


class TestAdversarial:
    def test_tampered_index_delta_rejected_then_recovered(self):
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager.update()
        _publish_round(scenario, seed=1)

        def corrupt(blob: bytes) -> bytes:
            # Flip a byte inside the first U: entry line: the spliced
            # body no longer matches the enclave signature.
            at = blob.index(b"\nU:") + 10
            return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]

        original = _tamper(scenario, "get_index_delta", corrupt)
        index = manager.update()
        scenario.network.host(scenario.tsr.hostname).handler = original
        # Rejected, recovered via a verified full pull — never accepted.
        assert manager.delta_stats.index_rejected == 1
        assert manager.delta_stats.index_full.get("rejected") == 1
        assert index.to_bytes() == scenario.tsr.get_index_bytes(
            scenario.repo_id)

    def test_unparseable_index_delta_rejected(self):
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager.update()
        _publish_round(scenario, seed=2)
        original = _tamper(scenario, "get_index_delta",
                           lambda blob: b"garbage\xff" + blob[:10])
        index = manager.update()
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert manager.delta_stats.index_rejected == 1
        assert index.serial == RepositoryIndex.from_bytes(
            scenario.tsr.get_index_bytes(scenario.repo_id)).serial

    def test_stale_signed_delta_is_a_counted_rollback(self):
        """The rollback-attack oracle: a *correctly signed* delta whose
        target serial is not newer than the client's is refused before
        signature verification, and the client recovers on the full
        path."""
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        _publish_round(scenario, seed=3)
        current = manager.update()
        old = RepositoryIndex.from_bytes(
            scenario.tsr.publications(scenario.repo_id)[0].index_bytes)
        assert old.serial < current.serial
        stale = build_index_delta(current, old)  # validly signed, older

        original = _tamper(scenario, "get_index_delta", lambda blob: stale)
        recovered = manager.update()
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert manager.delta_stats.index_rollbacks == 1
        assert manager.delta_stats.index_full.get("rollback-rejected") == 1
        assert recovered.serial == current.serial  # never went backwards

    def test_rollback_raises_before_signature_is_consulted(self, rsa_key):
        base, target = _random_index_pair(random.Random("rb"), rsa_key)
        stale = parse_index_delta_envelope(build_index_delta(target, base))
        stale.signature = b"\x00" * 4  # nonsense sig: must not matter
        with pytest.raises(RollbackError):
            apply_index_delta(target, stale)

    @pytest.mark.usefixtures("cold_memos")
    def test_a_wrong_base_digest_costs_at_most_a_full_pull(self, rsa_key):
        """A delta base's chunk map is keyed by the digest its caller
        verified the base under.  Under a wrong digest the map is either
        built from the bytes at hand or belongs to another blob; in the
        second case the rebuilt blob cannot hash to the target the
        envelope names, so the delta is refused and the caller pulls in
        full."""
        blob_v1, blob_v2 = _random_package_pair(random.Random("wd"), rsa_key)
        other_v1, other_v2 = _random_package_pair(random.Random("wd2"),
                                                  rsa_key)
        envelope = build_package_delta(blob_manifest(blob_v1), blob_v2)
        other_envelope = build_package_delta(blob_manifest(other_v1),
                                             other_v2)
        # A digest no map is stored under: the map comes from the bytes.
        assert apply_package_delta(blob_v1, envelope, "f" * 64) == blob_v2
        # A digest that keys another base's map.
        other_sha = sha256_hex(other_v1)
        assert apply_package_delta(other_v1, other_envelope,
                                   other_sha) == other_v2
        with pytest.raises(DeltaError):
            apply_package_delta(blob_v1, envelope, other_sha)
        assert apply_package_delta(blob_v1, envelope,
                                   sha256_hex(blob_v1)) == blob_v2

    @pytest.mark.usefixtures("cold_memos")
    def test_a_map_stored_under_a_wrong_digest_costs_a_full_pull(
            self, rsa_key):
        """An earlier call that passed another blob under this base's
        digest left that blob's chunk map there: the manager's next
        delta against the base is refused, and one full pull installs
        the signed bytes."""
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        _publish_round(scenario, seed=4, fraction=1.0)
        manager.update()
        other_v1, other_v2 = _random_package_pair(random.Random("wd3"),
                                                  rsa_key)
        envelope = build_package_delta(blob_manifest(other_v1), other_v2)
        base_sha = manager._delta_bases[name][1]
        assert apply_package_delta(other_v1, envelope, base_sha) == other_v2
        manager.install(name)
        assert manager.delta_stats.package_rejected == 1
        assert manager.delta_stats.package_full.get("rejected") == 1
        entry = manager.index.get(name)
        assert manager._node.pkgdb.get(name).content_hash == entry.sha256

    def test_tampered_package_delta_rejected_then_recovered(self):
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        _publish_round(scenario, seed=4, fraction=1.0)
        manager.update()

        def corrupt(blob: bytes) -> bytes:
            kind, _, _ = parse_package_delta_envelope(blob)
            assert kind == "delta"  # the attack targets the delta path
            return blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]

        original = _tamper(scenario, "get_package_delta", corrupt)
        manager.install(name)  # upgrade through the tampered channel
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert manager.delta_stats.package_rejected == 1
        assert manager.delta_stats.package_full.get("rejected") == 1
        entry = manager.index.get(name)
        record = manager._node.pkgdb.get(name)
        assert record.content_hash == entry.sha256  # full-pull bytes won

    def test_self_consistent_delta_to_an_unpinned_blob_rejected(self):
        """An envelope that rebuilds exactly the blob its header names is
        still checked against the signed index: the digest the client
        reuses is the envelope's, never the index's."""
        scenario = _delta_scenario()
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        base = manager._delta_bases[name][0]
        _publish_round(scenario, seed=4, fraction=1.0)
        manager.update()
        entry = manager.index.get(name)
        forged = []

        def substitute(blob: bytes) -> bytes:
            pinned = apply_package_delta(base, blob, sha256_hex(base))
            # Same length, other bytes: flip the signature member's
            # gzip MTIME, which no checksum covers.
            other = pinned[:4] + bytes([pinned[4] ^ 0x01]) + pinned[5:]
            envelope = build_package_delta(blob_manifest(base), other)
            assert apply_package_delta(base, envelope,
                                       sha256_hex(base)) == other
            forged.append(other)
            return envelope

        original = _tamper(scenario, "get_package_delta", substitute)
        with pytest.raises(IntegrityError,
                           match="content hash does not match signed index"):
            manager.install(name)
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert len(forged[0]) == entry.size
        assert sha256_hex(forged[0]) != entry.sha256
        assert manager._node.pkgdb.get(name).version == "1.0-r0"

    @pytest.mark.parametrize("cut", [4, 8])
    def test_trailer_stripped_package_delta_is_malformed(self, cut,
                                                         rsa_key):
        """An envelope whose inner gzip lost its CRC32/ISIZE trailer
        still inflates to the right bytes, but it is malformed, so the
        client must take the full-pull fallback rather than accept it."""
        rng = random.Random("pkg-size")
        blob_v1, blob_v2 = _random_package_pair(rng, rsa_key)
        envelope = build_package_delta(blob_manifest(blob_v1), blob_v2)
        assert envelope is not None
        assert apply_package_delta(blob_v1, envelope,
                                   sha256_hex(blob_v1)) == blob_v2
        with pytest.raises(DeltaError):
            apply_package_delta(blob_v1, envelope[:-cut], sha256_hex(blob_v1))

    def test_client_beyond_log_depth_falls_back_cleanly(self):
        scenario = _delta_scenario()
        scenario.tsr.delta_log_depth = 1
        _, manager = scenario.new_node("laggard", delta_updates=True)
        manager.update()  # base: publication 0
        for seed in (5, 6, 7):
            _publish_round(scenario, seed)
        index = manager.update()  # 3 publications behind, depth bound 1
        assert manager.delta_stats.index_full.get("depth") == 1
        assert scenario.tsr.publication_log.delta_index_fallbacks.get(
            "depth") == 1
        assert index.serial == RepositoryIndex.from_bytes(
            scenario.tsr.get_index_bytes(scenario.repo_id)).serial

    def test_depth_zero_disables_delta_serving(self):
        scenario = _delta_scenario()
        scenario.tsr.delta_log_depth = 0
        _, manager = scenario.new_node("client", delta_updates=True)
        manager.update()
        _publish_round(scenario, seed=8)
        manager.update()
        assert manager.delta_stats.index_deltas == 0
        assert manager.delta_stats.index_full.get("disabled") == 1
        assert scenario.tsr.publication_log.delta_index_fallbacks.get(
            "disabled") == 1


# -- replay regression --------------------------------------------------------


class TestReplayRegression:
    def _replay(self, delta: bool, rounds: int = 4, scenario=None):
        # installs_per_client covers the whole population: every client
        # holds every base after wave 1, so later waves upgrade via
        # deltas (mirroring a fleet tracking its distro's releases).
        trace = generate_trace(rounds=rounds, interval=0.6,
                               publish_fraction=0.5, seed=19,
                               installs_per_client=4)
        scenario = scenario or build_scenario(
            packages=_mini_packages(count=4), with_monitor=False)
        return replay_trace(scenario, trace, clients=4, mode="interleaved",
                            delta_updates=delta)

    def test_delta_memos_keep_only_retained_publications(self):
        """Retention prunes the delta envelopes with their publications:
        every remaining index diff runs between retained serials and
        every package diff between blobs a retained publication pins."""
        scenario = build_scenario(packages=_mini_packages(count=4),
                                  with_monitor=False)
        tsr = scenario.tsr
        tsr.publication_retention = 2
        report = self._replay(delta=True, rounds=8, scenario=scenario)
        assert report.delta_stats["package_deltas"] > 0
        log = tsr.publications(scenario.repo_id)
        assert len(log) == 2
        assert scenario.repo_id in tsr.publication_log.pruned_through
        serials = {publication.serial for publication in log}
        pinned = {sha for publication in log
                  for _, sha in publication.entries.values()}
        assert tsr._index_delta_memo and tsr._package_delta_memo
        for repo_id, base, target in tsr._index_delta_memo:
            assert repo_id == scenario.repo_id
            assert base in serials and target in serials
        for base, target in tsr._package_delta_memo:
            assert base in pinned and target in pinned

    def test_delta_replay_reproduces_full_replay_metrics(self):
        full = self._replay(delta=False)
        delta = self._replay(delta=True)
        # Structural outcomes are identical: deltas change bytes on the
        # wire, never what got installed or which serials landed.
        assert delta.installs == full.installs
        assert delta.failed_pulls == full.failed_pulls
        assert delta.failed_installs == full.failed_installs
        assert delta.publishes == full.publishes
        for name, timeline in full.timelines.items():
            assert [s for _, s in delta.timelines[name].transitions] \
                == [s for _, s in timeline.transitions]
        # Time metrics agree tightly (smaller transfers finish a hair
        # earlier; the staleness/availability story must not change).
        assert delta.staleness_mean == pytest.approx(full.staleness_mean,
                                                     rel=0.02)
        assert delta.availability_mean == pytest.approx(
            full.availability_mean, rel=0.02)
        # The first wave is cold (identical cost); later waves are where
        # deltas pay.
        assert delta.pull_wire_bytes[0] == full.pull_wire_bytes[0]
        assert delta.client_wire_bytes < full.client_wire_bytes
        assert sum(delta.pull_wire_bytes[1:]) \
            < 0.8 * sum(full.pull_wire_bytes[1:])
        assert delta.delta_stats["index_deltas"] > 0

    def test_two_delta_replays_reproducible_in_one_process(self):
        first = self._replay(delta=True)
        second = self._replay(delta=True)
        assert second.pull_wire_bytes == first.pull_wire_bytes
        assert second.delta_stats == first.delta_stats
        assert second.staleness_per_client == first.staleness_per_client
        assert second.installs == first.installs
        for name, timeline in first.timelines.items():
            assert second.timelines[name].transitions == timeline.transitions
