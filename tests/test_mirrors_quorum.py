"""Tests for mirrors (honest + Byzantine) and the quorum reader."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.core.policy import MirrorPolicyEntry
from repro.core.quorum import QuorumReader, validate_signed_index
from repro.crypto.hashes import sha256_hex
from repro.mirrors.builder import MirrorSpec, build_mirror_network, sync_all
from repro.mirrors.mirror import MirrorBehavior
from repro.mirrors.repository import OriginalRepository
from repro.simnet.latency import Continent
from repro.simnet.network import Host, Network, Request
from repro.util.errors import QuorumError
from repro.workload.scenario import DEFAULT_MIRROR_SPECS, build_scenario


@pytest.fixture()
def origin(rsa_key):
    repo = OriginalRepository(rsa_key)
    repo.publish(ApkPackage(
        name="openssl", version="1.1.1f-r0",
        files=[PackageFile("/usr/lib/libssl.so", b"\x7fELF v-f vulnerable")],
    ))
    repo.publish(ApkPackage(
        name="openssl", version="1.1.1g-r0",
        files=[PackageFile("/usr/lib/libssl.so", b"\x7fELF v-g patched")],
    ))
    return repo


def _network_with(origin, specs):
    net = Network()
    net.add_host(Host("tsr.eu", Continent.EUROPE))
    mirrors = build_mirror_network(origin, specs, net)
    return net, mirrors


class TestOriginalRepository:
    def test_publish_bumps_serial(self, origin):
        assert origin.serial == 2

    def test_index_lists_latest_version(self, origin, rsa_key):
        index = RepositoryIndex.from_bytes(origin.index_bytes())
        assert index.verify(rsa_key.public_key)
        assert index.get("openssl").version == "1.1.1g-r0"

    def test_blob_matches_index_hash(self, origin):
        index = origin.index()
        blob = origin.package_blob("openssl")
        assert sha256_hex(blob) == index.get("openssl").sha256

    def test_historical_snapshots_retained(self, origin):
        old = origin.snapshot_at(1)
        assert RepositoryIndex.from_bytes(old.index_bytes).get(
            "openssl").version == "1.1.1f-r0"


class TestMirrorBehaviors:
    def test_honest_mirror_serves_latest(self, origin):
        net, mirrors = _network_with(origin, [
            MirrorSpec("m1", Continent.EUROPE),
        ])
        response = net.call("tsr.eu", Request("m1", "get_index"))
        index = RepositoryIndex.from_bytes(response.payload)
        assert index.serial == 2

    def test_freeze_mirror_stays_stale(self, origin, rsa_key):
        net, mirrors = _network_with(origin, [
            MirrorSpec("frozen", Continent.EUROPE,
                       behavior=MirrorBehavior.FREEZE, pinned_serial=1),
        ])
        origin.publish(ApkPackage(name="zlib", version="1-r0"))
        sync_all(mirrors)  # freeze mirror ignores the sync
        response = net.call("tsr.eu", Request("frozen", "get_index"))
        index = RepositoryIndex.from_bytes(response.payload)
        assert index.serial == 1
        # Crucially, the stale index still carries a valid signature.
        assert index.verify(rsa_key.public_key)

    def test_replay_mirror_serves_old_packages(self, origin):
        net, mirrors = _network_with(origin, [
            MirrorSpec("replay", Continent.EUROPE,
                       behavior=MirrorBehavior.REPLAY, pinned_serial=1),
        ])
        blob = net.call("tsr.eu", Request("replay", "get_package",
                                          payload="openssl")).payload
        assert b"vulnerable" in ApkPackage.parse(blob).package.files[0].content

    def test_corrupt_mirror_tamper_detected_by_hash(self, origin):
        net, mirrors = _network_with(origin, [
            MirrorSpec("bad", Continent.EUROPE, behavior=MirrorBehavior.CORRUPT),
        ])
        blob = net.call("tsr.eu", Request("bad", "get_package",
                                          payload="openssl")).payload
        assert sha256_hex(blob) != origin.index().get("openssl").sha256


def _entries(specs):
    return [MirrorPolicyEntry(hostname=s.name, continent=s.continent)
            for s in specs]


class TestQuorum:
    def test_all_honest_agree(self, origin, rsa_key):
        specs = [MirrorSpec(f"m{i}", Continent.EUROPE) for i in range(3)]
        net, _ = _network_with(origin, specs)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        assert result.index.serial == 2
        assert result.contacted == 2  # f+1 = 2 sufficed
        assert len(result.agreeing_mirrors) >= 2

    def test_minority_freeze_outvoted(self, origin, rsa_key):
        specs = [
            MirrorSpec("honest-1", Continent.EUROPE),
            MirrorSpec("honest-2", Continent.EUROPE),
            MirrorSpec("frozen", Continent.EUROPE,
                       behavior=MirrorBehavior.FREEZE, pinned_serial=1),
        ]
        net, _ = _network_with(origin, specs)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        assert result.index.serial == 2  # the latest state won

    def test_majority_freeze_cannot_fool_quorum(self, origin, rsa_key):
        """With f+1 colluding stale mirrors out of 2f+1, the quorum *can*
        accept the stale index — which is why the threat model caps the
        adversary at f. Verify the arithmetic boundary."""
        specs = [
            MirrorSpec("frozen-1", Continent.EUROPE,
                       behavior=MirrorBehavior.FREEZE, pinned_serial=1),
            MirrorSpec("frozen-2", Continent.EUROPE,
                       behavior=MirrorBehavior.FREEZE, pinned_serial=1),
            MirrorSpec("honest", Continent.EUROPE),
        ]
        net, _ = _network_with(origin, specs)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        assert result.index.serial == 1  # adversary above threshold wins

    def test_unreachable_mirrors_tolerated(self, origin, rsa_key):
        specs = [MirrorSpec(f"m{i}", Continent.EUROPE) for i in range(5)]
        net, _ = _network_with(origin, specs)
        net.set_down("m0")
        net.set_down("m1")
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        assert result.index.serial == 2

    def test_no_quorum_raises(self, origin, rsa_key):
        specs = [MirrorSpec(f"m{i}", Continent.EUROPE) for i in range(3)]
        net, _ = _network_with(origin, specs)
        for name in ("m0", "m1"):
            net.set_down(name)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        with pytest.raises(QuorumError):
            reader.read_index()

    def test_forged_index_signature_ignored(self, origin, rsa_key,
                                            rsa_key_alt):
        """A mirror serving an index signed by the wrong key is treated as
        invalid even if several mirrors collude on the same forgery."""
        forged = origin.index()
        forged.add(type(forged.get("openssl"))(
            name="backdoor", version="1-r0", size=10, sha256="ff" * 32))
        forged.sign(rsa_key_alt)
        forged_bytes = forged.to_bytes()

        specs = [MirrorSpec(f"m{i}", Continent.EUROPE) for i in range(3)]
        net, mirrors = _network_with(origin, specs)
        for name in ("m0", "m1"):
            mirrors[name].handle = lambda op, payload: (forged_bytes,
                                                        len(forged_bytes))
            net.host(name).handler = mirrors[name].handle
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        with pytest.raises(QuorumError):
            reader.read_index()

    def test_fastest_mirrors_contacted_first(self, origin, rsa_key):
        specs = [
            MirrorSpec("asia-1", Continent.ASIA),
            MirrorSpec("eu-1", Continent.EUROPE),
            MirrorSpec("eu-2", Continent.EUROPE),
        ]
        net, mirrors = _network_with(origin, specs)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        # EU mirrors suffice; the Asian one is never contacted.
        assert mirrors["asia-1"].requests_served == 0
        assert result.contacted == 2

    def test_disagreement_widens_contact_set(self, origin, rsa_key):
        specs = [
            MirrorSpec("frozen-eu", Continent.EUROPE,
                       behavior=MirrorBehavior.FREEZE, pinned_serial=1),
            MirrorSpec("honest-eu", Continent.EUROPE),
            MirrorSpec("honest-na", Continent.NORTH_AMERICA),
        ]
        net, _ = _network_with(origin, specs)
        reader = QuorumReader(net, "tsr.eu", _entries(specs),
                              [rsa_key.public_key])
        result = reader.read_index()
        assert result.index.serial == 2
        assert result.contacted == 3  # needed the NA mirror to break the tie
        assert "frozen-eu" in result.dissenting_mirrors

    def test_shared_downlink_contention_slows_quorum(self, origin, rsa_key):
        """The quorum reader runs on the shared transfer schedule: when the
        TSR host's downlink is throttled, the concurrent first-wave index
        downloads share it max-min fairly and the read slows down."""
        specs = [MirrorSpec(f"m{i}", Continent.EUROPE) for i in range(5)]
        net_free, _ = _network_with(origin, specs)
        free = QuorumReader(net_free, "tsr.eu", _entries(specs),
                            [rsa_key.public_key]).read_index()

        net_tight, _ = _network_with(origin, specs)
        index_size = len(origin.index_bytes())
        net_tight.host("tsr.eu").downlink_bandwidth = index_size / 2.0
        tight = QuorumReader(net_tight, "tsr.eu", _entries(specs),
                             [rsa_key.public_key]).read_index()

        # Verdicts are schedule-independent...
        assert tight.index.serial == free.index.serial
        assert tight.agreeing_mirrors == free.agreeing_mirrors
        assert tight.contacted == free.contacted
        # ...timing is not: 3 concurrent index downloads through a link
        # that moves half an index per second take ~6 s of transfer.
        assert tight.elapsed > free.elapsed + 4.0

    def test_cross_continent_quorum_slower(self, origin, rsa_key):
        eu_specs = [MirrorSpec(f"eu-{i}", Continent.EUROPE) for i in range(3)]
        net_eu, _ = _network_with(origin, eu_specs)
        QuorumReader(net_eu, "tsr.eu", _entries(eu_specs),
                     [rsa_key.public_key]).read_index()
        eu_elapsed = net_eu.clock.now()

        asia_specs = [MirrorSpec(f"as-{i}", Continent.ASIA) for i in range(3)]
        net_as, _ = _network_with(origin, asia_specs)
        QuorumReader(net_as, "tsr.eu", _entries(asia_specs),
                     [rsa_key.public_key]).read_index()
        assert net_as.clock.now() > eu_elapsed


def _signed_by(origin, key):
    index = origin.index()
    index.sign(key)
    return index.to_bytes()


# case -> payload built from (origin, a key outside the policy)
_GATE_CASES = {
    "not bytes": lambda origin, other: origin.index_bytes().decode(),
    "garbage": lambda origin, other: b"\x00\xffnot an index",
    "non-policy key": lambda origin, other: _signed_by(origin, other),
    "tampered body": lambda origin, other: origin.index_bytes().replace(
        b"1.1.1g-r0", b"1.1.1h-r0"),
    "valid": lambda origin, other: origin.index_bytes(),
}


class TestValidateSignedIndex:
    @pytest.mark.parametrize("case", list(_GATE_CASES))
    def test_only_a_policy_signed_index_passes(self, origin, rsa_key,
                                               rsa_key_alt, case):
        payload = _GATE_CASES[case](origin, rsa_key_alt)
        if case in ("non-policy key", "tampered body"):
            # Well-formed, so the gate must refuse it on the signature.
            assert payload != origin.index_bytes()
            RepositoryIndex.from_bytes(payload)
        index = validate_signed_index(payload, [rsa_key.public_key])
        if case == "valid":
            assert index is not None
            assert index.body_bytes() == origin.index().body_bytes()
        else:
            assert index is None

    def test_any_policy_key_suffices(self, origin, rsa_key, rsa_key_alt):
        payload = _signed_by(origin, rsa_key_alt)
        both = [rsa_key.public_key, rsa_key_alt.public_key]
        assert validate_signed_index(payload, both) is not None
        assert validate_signed_index(payload, both[:1]) is None

    def test_no_policy_keys_accepts_nothing(self, origin):
        assert validate_signed_index(origin.index_bytes(), []) is None


def _frozen_fastest_scenario():
    """The default three-mirror scenario with its fastest mirror
    (``mirror-eu-1``) frozen at serial 1 and one more release published,
    so the first wave disagrees and the quorum must widen."""
    specs = (MirrorSpec("mirror-eu-1.example", Continent.EUROPE,
                        behavior=MirrorBehavior.FREEZE, pinned_serial=1),
             *DEFAULT_MIRROR_SPECS[1:])
    scenario = build_scenario(
        packages=[ApkPackage(name="musl", version="1.1.24-r2",
                             files=[PackageFile("/lib/ld-musl.so",
                                                b"\x7fELF musl")])],
        mirror_specs=specs, refresh=False, with_monitor=False)
    scenario.origin.publish(ApkPackage(
        name="zlib", version="1.2.11-r3",
        files=[PackageFile("/lib/libz.so", b"\x7fELF zlib")]))
    scenario.sync_mirrors()
    return scenario


class TestPhasedQuorumIsTheReader:
    def test_phased_refresh_times_and_answers_match_quorum_reader(self):
        """The phased refresh's quorum read is :class:`QuorumReader`: the
        same widening, the same answers in contact order, and the same
        simulated seconds, bit for bit."""
        refreshed = _frozen_fastest_scenario()
        report = refreshed.tsr.refresh(refreshed.repo_id)

        read_only = _frozen_fastest_scenario()
        read = QuorumReader(read_only.network, read_only.tsr.hostname,
                            read_only.policy.mirrors,
                            read_only.policy.signers_keys).read_index()

        assert read.contacted == 3
        assert report.serial == read.index.serial == 2
        assert report.quorum_elapsed == read.elapsed
        assert [host for host, _ in read.responses] == [
            "mirror-eu-1.example", "mirror-eu-2.example",
            "mirror-na-1.example"]
        assert read.dissenting_mirrors == ["mirror-eu-1.example"]
