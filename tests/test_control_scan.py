"""The write path decodes each package once.

* The account scan (``TsrProgram._scan_record``, behind
  ``scan_for_accounts``, ``scan_package`` and ``analyze_blob``) decodes
  only an apk's signature and control members (:class:`ApkControl`); its
  record must equal the one a full :meth:`ApkPackage.parse` gives, on a
  population covering every script category.
* The data member is then checked once, by the sanitize ecall's full
  parse: an upstream apk the quorum index pins whose data member is
  corrupt still aborts the refresh with :class:`PackagingError`, in the
  phased and the overlapped engine alike, and nothing is published or
  sealed.
* An upstream blob is found in its accepted index through one
  (sha256, size) lookup that returns what the linear scan it replaced
  returned.
* The primary hashes a cached sanitized copy again only when it is not
  the ``bytes`` object last found matching its pin, so a tampered cache
  write is always hashed and never served; a publication keeps that
  record for the unchanged copies it shares with the one before it.
"""

from dataclasses import replace

import pytest

from repro.archive.apk import ApkControl, ApkPackage, PackageFile
from repro.archive.gz import gzip_compress, split_gzip_streams
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.core import publications as publications_module
from repro.core.catalog import extract_scan_delta
from repro.core.program import TsrProgram, _RepositoryState
from repro.core.service import SEALED_STATE_PATH
from repro.crypto.hashes import sha256_hex
from repro.scripts.classify import OperationType, classify_package_scripts
from repro.util.errors import (
    IntegrityError,
    NetworkError,
    PackagingError,
    PolicyError,
    ScriptError,
)
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario

#: A hook ``parse_script`` rejects: the scan records nothing for it and
#: sanitization refuses the package.
_UNPARSEABLE = 'echo "never closed\n'


def _population():
    """Every generated script category (the CVE-2019-5021 pattern and the
    unsupported config and shell scripts among them) plus one package
    whose hook does not parse."""
    workload = generate_workload(scale=0.004, seed=7, with_content=False)
    packages = list(workload.packages) + [ApkPackage(
        name="unparseable", version="1-r0",
        scripts={".post-install": _UNPARSEABLE},
        files=[PackageFile("/usr/bin/u", b"u")])]
    return workload, packages


def _full_parse_record(blob: bytes) -> dict:
    """The scan record as computed from a full parse (the decode the
    scan made before it read only the control segment)."""
    package = ApkPackage.parse(blob).package
    try:
        profile = classify_package_scripts(package.scripts)
        needs_catalog = OperationType.USER_GROUP_CREATION in profile.operations
    except ScriptError:
        needs_catalog = False
    return {"delta": extract_scan_delta(package),
            "needs_catalog": needs_catalog}


class TestControlOnlyScan:
    @pytest.fixture(scope="class")
    def blobs(self, rsa_key):
        workload, packages = _population()
        return workload, [package.build(rsa_key) for package in packages]

    def test_population_covers_every_category(self, blobs):
        workload, built = blobs
        assert {"user_group", "user_group_config", "config_only", "shell",
                "fs_only", "text_only", "empty", "empty_file", None} <= \
            set(workload.category.values())
        assert workload.expectation.insecure >= 1
        records = [_full_parse_record(blob) for blob in built]
        ops = {op[0] for record in records for op in record["delta"].ops}
        assert {"user", "group", "passwd_deleted"} <= ops
        assert {record["needs_catalog"] for record in records} == \
            {True, False}

    def test_scan_record_equals_full_parse_record(self, blobs):
        _, built = blobs
        program = TsrProgram(key_bits=1024)
        for blob in built:
            record, hit = program._scan_record(blob, sha256_hex(blob))
            assert not hit
            assert record == _full_parse_record(blob)

    def test_control_equals_full_parse_but_files(self, blobs):
        _, built = blobs
        for blob in built:
            control = ApkControl.read(blob)
            parsed = ApkPackage.parse(blob)
            assert control.package == replace(parsed.package, files=[])
            assert (control.signature, control.signer_name,
                    control.control_gz, control.datahash) == \
                (parsed.signature, parsed.signer_name, parsed.control_gz,
                 parsed.datahash)

    def test_control_read_leaves_the_data_member_alone(self, rsa_key):
        good = ApkPackage(name="pkg", version="1-r0",
                          scripts={".pre-install": "adduser -S svc\n"},
                          files=[PackageFile("/f", b"x" * 100)]).build(rsa_key)
        for broken in _broken_data_members(good):
            assert ApkControl.read(broken) == ApkControl.read(good)
            with pytest.raises(PackagingError):
                ApkPackage.parse(broken)

    @pytest.mark.parametrize("members", [0, 1])
    def test_control_read_needs_two_members(self, rsa_key, members):
        blob = ApkPackage(name="pkg", version="1-r0").build(rsa_key)
        head = b"".join(gz for gz, _ in split_gzip_streams(blob)[:members])
        with pytest.raises(PackagingError):
            ApkControl.read(head)


def _broken_data_members(blob: bytes) -> list[bytes]:
    """``blob`` with its data member corrupted three ways: a CRC32 that
    does not match, a payload that is not a tar, and no data member."""
    (signature_gz, _), (control_gz, _), (data_gz, _) = \
        split_gzip_streams(blob, expected=3)
    head = signature_gz + control_gz
    bad_crc = data_gz[:-8] + bytes([data_gz[-8] ^ 0xFF]) + data_gz[-7:]
    return [head + bad_crc, head + gzip_compress(b"not a tar"), head]


def _plain_packages():
    return [
        ApkPackage(name="musl", version="1-r0",
                   files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl")]),
        ApkPackage(name="nginx", version="1-r0", depends=["musl"],
                   scripts={".pre-install": "addgroup -S www\n"
                                            "adduser -S -G www nginx\n"},
                   files=[PackageFile("/usr/sbin/nginx", b"\x7fELF nginx")]),
    ]


class TestCorruptDataMember:
    """The control-only scan passes such a blob; the sanitize ecall's full
    parse still refuses it before anything is published or sealed."""

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("breakage", [0, 1, 2])
    def test_first_refresh_aborts_and_publishes_nothing(self, pipelined,
                                                        breakage):
        scenario = build_scenario(packages=_plain_packages(), key_bits=1024,
                                  refresh=False, with_monitor=False)
        good = ApkPackage(name="zz-broken", version="1-r0",
                          files=[PackageFile("/f", b"payload")]).build(
                              scenario.distro_key)
        scenario.origin.publish_blob("zz-broken", "1-r0",
                                     _broken_data_members(good)[breakage])
        scenario.sync_mirrors()
        with pytest.raises(PackagingError):
            scenario.refresh(pipelined=pipelined)
        tsr = scenario.tsr
        assert not tsr.cache.disk.isfile(SEALED_STATE_PATH)
        with pytest.raises(PolicyError):
            tsr.get_index_bytes(scenario.repo_id)
        assert tsr.publications(scenario.repo_id) == []

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_later_refresh_aborts_and_seals_nothing(self, pipelined):
        scenario = build_scenario(packages=_plain_packages(), key_bits=1024,
                                  with_monitor=False)
        tsr = scenario.tsr
        sealed = tsr.cache.disk.read_file(SEALED_STATE_PATH)
        good = ApkPackage(name="musl", version="2-r0",
                          files=[PackageFile("/lib/ld-musl.so", b"v2")]).build(
                              scenario.distro_key)
        scenario.origin.publish_blob("musl", "2-r0",
                                     _broken_data_members(good)[0])
        scenario.sync_mirrors()
        with pytest.raises(PackagingError):
            scenario.refresh(pipelined=pipelined)
        assert tsr.cache.disk.read_file(SEALED_STATE_PATH) == sealed
        assert tsr.publications(scenario.repo_id) == []


class TestUpstreamBlobLookup:
    """``_check_upstream_blob`` answers from a (sha256, size) map built
    when an index is accepted, with the linear scan's first match."""

    BLOB = b"package bytes"
    OTHER = b"other bytes"

    @staticmethod
    def _state(entries) -> _RepositoryState:
        index = RepositoryIndex(serial=1)
        for entry in entries:
            index.add(entry)
        state = _RepositoryState("repo-0001", policy=None, signing_key=None)
        state.accept_upstream(index)
        return state

    @staticmethod
    def _linear_scan(state, blob):
        """The loop the lookup replaced (``None`` where it raised)."""
        digest = sha256_hex(blob)
        for entry in state.upstream_index.entries.values():
            if entry.sha256 == digest and entry.size == len(blob):
                return entry
        return None

    def _lookup(self, state, blob):
        try:
            return TsrProgram()._check_upstream_blob(state, blob)
        except IntegrityError:
            return None

    @pytest.mark.parametrize("case", ["duplicates", "size", "missing",
                                      "size-then-match"])
    def test_lookup_matches_the_linear_scan(self, case):
        sha, size = sha256_hex(self.BLOB), len(self.BLOB)
        entries, found = {
            "duplicates": ([IndexEntry("b", "1", size, sha),
                            IndexEntry("a", "1", size, sha)], "b"),
            "size": ([IndexEntry("a", "1", size + 1, sha)], None),
            "missing": ([IndexEntry("a", "1", len(self.OTHER),
                                    sha256_hex(self.OTHER))], None),
            "size-then-match": ([IndexEntry("a", "1", size - 1, sha),
                                 IndexEntry("b", "1", size, sha),
                                 IndexEntry("c", "1", size, sha)], "b"),
        }[case]
        state = self._state(entries)
        expected = self._linear_scan(state, self.BLOB)
        assert self._lookup(state, self.BLOB) is expected
        assert (expected and expected.name) == found

    def test_lookup_follows_each_accepted_index(self):
        sha, size = sha256_hex(self.BLOB), len(self.BLOB)
        state = self._state([IndexEntry("a", "1", size, sha)])
        state.accept_upstream(RepositoryIndex(serial=2))
        assert self._lookup(state, self.BLOB) is None

    def test_lookup_rebuilt_on_restore(self):
        scenario = build_scenario(packages=_plain_packages(), key_bits=1024,
                                  with_monitor=False)
        tsr = scenario.tsr
        tsr.restart()
        blob = scenario.origin.package_blob("musl")
        tsr._enclave.ecall("scan_for_accounts", scenario.repo_id, blob)
        with pytest.raises(IntegrityError):
            tsr._enclave.ecall("scan_for_accounts", scenario.repo_id,
                               blob + b"x")


class TestServeDigest:
    """Serving a publication through the primary's cache."""

    @pytest.fixture()
    def served(self, monkeypatch):
        scenario = build_scenario(packages=_plain_packages(), key_bits=1024,
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        hashed = []
        real = publications_module.sha256_hex

        def counting(data):
            hashed.append(data)
            return real(data)

        monkeypatch.setattr(publications_module, "sha256_hex", counting)
        return scenario, hashed

    def _serve(self, scenario):
        return scenario.tsr.serve_package_at(scenario.repo_id, "musl", 0.0)

    def test_repeat_serves_of_the_checked_copy_hash_nothing(self, served):
        scenario, hashed = served
        first = self._serve(scenario)
        assert self._serve(scenario) is first
        assert hashed == []
        assert scenario.tsr.serve_cache_hits == 2

    def test_tampered_copy_is_hashed_again_and_never_served(self, served):
        scenario, hashed = served
        good = self._serve(scenario)
        tampered = good[:-4] + b"\x00\x00\x00\x00"
        scenario.tsr.cache.tamper_sanitized(scenario.repo_id, "musl",
                                            tampered)
        for serve in range(1, 4):
            assert self._serve(scenario) == good
            assert hashed == [tampered] * serve
        assert scenario.tsr.serve_cache_hits == 1
        assert scenario.tsr.serve_fallbacks == 1  # one re-sanitize queued

    def test_equal_bytes_in_a_new_object_are_hashed_once(self, served):
        scenario, hashed = served
        good = self._serve(scenario)
        rewritten = bytes(bytearray(good))
        scenario.tsr.cache.tamper_sanitized(scenario.repo_id, "musl",
                                            rewritten)
        assert self._serve(scenario) is rewritten
        assert self._serve(scenario) is rewritten
        assert hashed == [rewritten]

    def test_next_publication_keeps_the_check_of_an_unchanged_copy(
            self, served):
        scenario, hashed = served
        first = self._serve(scenario)
        scenario.tsr.record_publication(scenario.repo_id, 1.0)
        assert scenario.tsr.serve_package_at(scenario.repo_id, "musl",
                                             1.0) is first
        assert hashed == []

    def test_replaced_captured_copy_is_not_kept_unchecked(self, served):
        scenario, hashed = served
        good = self._serve(scenario)
        tampered = good[:-4] + b"\x00\x00\x00\x00"
        scenario.tsr.publications(scenario.repo_id)[-1].blobs["musl"] = \
            tampered
        publication = scenario.tsr.record_publication(scenario.repo_id, 1.0)
        assert publication.blobs["musl"] is tampered
        with pytest.raises(NetworkError):
            publication.captured_blob("musl")
        assert hashed == [tampered]
