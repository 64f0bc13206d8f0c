"""Tests for the OS: measured boot, versions, the package database."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ima.subsystem import AppraisalMode, replay_measurement_list
from repro.osim.fs import SimFileSystem
from repro.osim.os import BASELINE_FILES, IntegrityEnforcedOS
from repro.osim import pkgdb as pkgdb_module
from repro.osim.pkgdb import DB_PATH, InstalledPackage, PackageDatabase
from repro.osim.version import Version, is_newer
from repro.tpm.device import IMA_PCR_INDEX, verify_quote
from repro.util.errors import PackageManagerError, ReproError


class TestVersion:
    @pytest.mark.parametrize("older,newer", [
        ("1.0.0-r0", "1.0.0-r1"),
        ("1.0.0-r5", "1.0.1-r0"),
        ("1.2-r0", "1.2.1-r0"),
        ("1.9-r0", "1.10-r0"),
        ("2.0-r0", "2.0a-r0"),
        ("1.1.1f-r0", "1.1.1g-r0"),
    ])
    def test_ordering(self, older, newer):
        assert Version(older) < Version(newer)
        assert is_newer(newer, older)
        assert not is_newer(older, newer)

    def test_equality(self):
        assert Version("1.2.3-r1") == Version("1.2.3-r1")
        assert not is_newer("1.2.3-r1", "1.2.3-r1")

    def test_unparseable_rejected(self):
        with pytest.raises(PackageManagerError):
            Version("not-a-version")

    def test_hashable(self):
        assert len({Version("1.0-r0"), Version("1.0-r0")}) == 1

    def test_trailing_zero_segments_are_padding(self):
        # Shorter cores are zero-padded, so 1.2 and 1.2.0 are one version:
        # equal, equal hashes, and neither newer than the other.
        assert Version("1.2") == Version("1.2.0")
        assert hash(Version("1.2")) == hash(Version("1.2.0"))
        assert not is_newer("1.2", "1.2.0")
        assert not is_newer("1.2.0", "1.2")
        assert Version("1.2.0") < Version("1.2a")
        assert Version("0") == Version("0.0-r0")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from([0, 1, 2, 10]), min_size=1, max_size=4),
        st.sampled_from(["", "a"]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    ), min_size=2, max_size=2), st.integers(min_value=1, max_value=2))
    def test_total_order_consistent_with_eq_and_hash(self, specs, zeros):
        """Exactly one of <, == and > holds between any two versions,
        both ways round, and equal versions hash equal.  The first
        version also meets itself padded with ``zeros`` zero segments."""
        texts = [".".join(map(str, core)) + letter
                 + ("" if release is None else f"-r{release}")
                 for core, letter, release in specs]
        core, letter, release = specs[0]
        texts.append(".".join(map(str, core + [0] * zeros)) + letter
                     + ("" if release is None else f"-r{release}"))
        versions = [Version(text) for text in texts]
        for x, y in itertools.permutations(versions, 2):
            assert [x < y, x == y, x > y].count(True) == 1
            assert (x < y) == (y > x)
            if x == y:
                assert hash(x) == hash(y)


class TestBoot:
    def test_boot_populates_baseline(self):
        node = IntegrityEnforcedOS("node-a")
        node.boot()
        for path in BASELINE_FILES:
            assert node.fs.isfile(path)
        assert node.booted

    def test_boot_measures_chain(self):
        node = IntegrityEnforcedOS("node-b")
        node.boot()
        assert node.tpm.pcr_bank.read(0) != bytes(32)
        assert node.tpm.pcr_bank.read(4) != bytes(32)
        assert node.tpm.pcr_bank.read(IMA_PCR_INDEX) != bytes(32)

    def test_boot_aggregate_first_entry(self):
        node = IntegrityEnforcedOS("node-c")
        node.boot()
        assert node.ima.measurements[0].path == "boot_aggregate"

    def test_double_boot_rejected(self):
        node = IntegrityEnforcedOS("node-d")
        node.boot()
        with pytest.raises(ReproError):
            node.boot()

    def test_identical_nodes_identical_pcrs(self):
        a = IntegrityEnforcedOS("twin-1")
        b = IntegrityEnforcedOS("twin-2")
        a.boot()
        b.boot()
        assert a.tpm.pcr_bank.read(IMA_PCR_INDEX) == b.tpm.pcr_bank.read(IMA_PCR_INDEX)

    def test_policy_config_overrides_baseline(self):
        node = IntegrityEnforcedOS(
            "node-e", init_config_files={"/etc/passwd": "root:x:0:0::/root:/bin/ash\n"}
        )
        node.boot()
        assert node.fs.read_file("/etc/passwd") == b"root:x:0:0::/root:/bin/ash\n"

    def test_vendor_key_signs_baseline(self, rsa_key):
        node = IntegrityEnforcedOS("node-f", appraisal=AppraisalMode.ENFORCE,
                                   vendor_key=rsa_key)
        node.boot()  # would raise if baseline files failed appraisal
        assert node.ima.appraisal_failures == []


class TestAttestation:
    def test_evidence_verifies(self):
        node = IntegrityEnforcedOS("node-att")
        node.boot()
        evidence = node.attest(nonce=b"verifier-nonce")
        pcrs = verify_quote(evidence.quote, evidence.attestation_key,
                            b"verifier-nonce")
        assert pcrs[IMA_PCR_INDEX] == replay_measurement_list(evidence.ima_log)

    def test_new_measurement_changes_quote(self):
        node = IntegrityEnforcedOS("node-att2")
        node.boot()
        before = node.attest(b"n").quote.pcr_values[IMA_PCR_INDEX]
        node.fs.write_file("/bin/new-tool", b"new binary")
        node.load_file("/bin/new-tool")
        after = node.attest(b"n").quote.pcr_values[IMA_PCR_INDEX]
        assert before != after


class TestPackageDatabase:
    @pytest.fixture()
    def db(self):
        return PackageDatabase(SimFileSystem())

    def _pkg(self, name="musl", version="1.1.24-r2"):
        return InstalledPackage(name=name, version=version,
                                content_hash="ab" * 32,
                                files=("/lib/libc.so", "/lib/ld.so"))

    def test_add_get_roundtrip(self, db):
        db.add(self._pkg())
        record = db.get("musl")
        assert record is not None
        assert record.version == "1.1.24-r2"
        assert record.files == ("/lib/libc.so", "/lib/ld.so")

    def test_persisted_in_filesystem(self):
        fs = SimFileSystem()
        db = PackageDatabase(fs)
        db.add(self._pkg())
        # A second database instance over the same fs sees the record.
        assert PackageDatabase(fs).get("musl") is not None
        assert b"musl" in fs.read_file("/lib/apk/db/installed")

    def test_remove(self, db):
        db.add(self._pkg())
        db.remove("musl")
        assert db.get("musl") is None

    def test_remove_missing_rejected(self, db):
        with pytest.raises(PackageManagerError):
            db.remove("ghost")

    def test_all_sorted(self, db):
        db.add(self._pkg("zlib"))
        db.add(self._pkg("musl"))
        assert [p.name for p in db.all()] == ["musl", "zlib"]

    def test_mark_outdated_tampers_version(self, db):
        db.add(self._pkg())
        db.mark_outdated("musl")
        record = db.get("musl")
        assert record.version == "0.0.0-r0"
        assert record.content_hash == "0" * 64
        assert record.files  # files list preserved

    def test_mark_outdated_missing_rejected(self, db):
        with pytest.raises(PackageManagerError):
            db.mark_outdated("ghost")

    def test_writes_the_oracle_bytes(self):
        """Every write equals the text the oracle writer formats afresh
        from every record, through adds, an upgrade, Fig. 11 tampering,
        a removal and a raw rewrite."""
        fs = SimFileSystem()
        db = PackageDatabase(fs)
        model = {}

        def check():
            assert fs.read_file(DB_PATH) == _render(model)

        for name in ("zlib", "musl", "a|b", "unicode-\u00e9"):
            model[name] = self._pkg(name)
            db.add(model[name])
            check()
        model["musl"] = self._pkg("musl", "1.2.0-r0")
        db.add(model["musl"])
        check()
        db.mark_outdated("zlib")
        model["zlib"] = dataclasses.replace(
            model["zlib"], version="0.0.0-r0", content_hash="0" * 64)
        check()
        db.remove("a|b")
        del model["a|b"]
        check()
        fs.write_file(DB_PATH, _render({"musl": model["musl"]}))
        model = {"musl": model["musl"], "tool": self._pkg("tool")}
        db.add(model["tool"])
        check()

    def test_each_record_is_formatted_once(self, db, monkeypatch):
        """Installing n packages formats n records, where formatting
        every record on every write formatted n(n+1)/2."""
        formatted = []
        real = pkgdb_module._format_record
        monkeypatch.setattr(pkgdb_module, "_format_record",
                            lambda package: formatted.append(package.name)
                            or real(package))
        names = [f"pkg{i:02d}" for i in range(12)]
        for name in names:
            db.add(self._pkg(name))
        assert formatted == names
        db.mark_outdated("pkg03")
        db.remove("pkg05")
        db.get("pkg07")
        assert formatted == names + ["pkg03"]

    @pytest.mark.parametrize("separator", [
        "|", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
        "\u2028", "\u2029", ":",
    ])
    def test_paths_round_trip_with_any_separator(self, separator):
        """Only ``"\\n"`` ends a line: ``|`` and every other character
        ``str.splitlines`` breaks at stay inside the path, and cannot
        override a field."""
        fs = SimFileSystem()
        files = ("/usr/bin/tool", f"/usr/share/a{separator}b",
                 f"/usr/share/{separator}V:9")
        PackageDatabase(fs).add(InstalledPackage(
            name="tool", version="1.0-r0", content_hash="ab" * 32,
            files=files))
        record = PackageDatabase(fs).get("tool")
        assert record.files == files
        assert record.version == "1.0-r0"


def _render(records: dict[str, InstalledPackage]) -> bytes:
    """Database text in the documented layout, as a tamperer writes it and
    as ``PackageDatabase._store`` wrote it before records kept their
    formatted text: the oracle for the bytes the database writes."""
    blocks = []
    for name in sorted(records):
        record = records[name]
        lines = [f"P:{record.name}", f"V:{record.version}",
                 f"C:{record.content_hash}"]
        lines += [f"R:{path}" for path in record.files]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks).encode()


_DB_NAMES = st.sampled_from(["musl", "zlib", "openssl"])
_DB_RECORDS = st.builds(
    InstalledPackage,
    name=_DB_NAMES,
    version=st.sampled_from(["1.0-r0", "1.1-r0", "2.0-r3"]),
    content_hash=st.sampled_from(["ab" * 32, "cd" * 32]),
    files=st.lists(st.sampled_from(["/lib/a.so", "/usr/a|b", "/etc/k:v",
                                    "/x\r\x85\u2028y"]),
                   max_size=3, unique=True).map(tuple),
)


class PackageDatabaseMachine(RuleBasedStateMachine):
    """Adds, removals, Fig. 11 tampering, raw rewrites of the file and
    reads, in any order: after every step the database agrees with a
    model of the records and with a fresh parse of the current bytes."""

    def __init__(self):
        super().__init__()
        self.fs = SimFileSystem()
        self.db = PackageDatabase(self.fs)
        self.model: dict[str, InstalledPackage] = {}

    @rule(record=_DB_RECORDS)
    def add(self, record):
        self.db.add(record)
        self.model[record.name] = record

    @rule(name=_DB_NAMES)
    def remove(self, name):
        if name not in self.model:
            with pytest.raises(PackageManagerError):
                self.db.remove(name)
            return
        self.db.remove(name)
        del self.model[name]

    @rule(name=_DB_NAMES)
    def mark_outdated(self, name):
        if name not in self.model:
            with pytest.raises(PackageManagerError):
                self.db.mark_outdated(name)
            return
        self.db.mark_outdated(name)
        self.model[name] = dataclasses.replace(
            self.model[name], version="0.0.0-r0", content_hash="0" * 64)

    @rule(records=st.lists(_DB_RECORDS, max_size=3))
    def raw_write(self, records):
        self.model = {record.name: record for record in records}
        self.fs.write_file(DB_PATH, _render(self.model))

    @rule(name=_DB_NAMES)
    def read_and_scribble(self, name):
        assert self.db.get(name) == self.model.get(name)
        self.db.all().clear()
        self.db.installed_names().add("ghost")

    @invariant()
    def writes_the_oracle_bytes(self):
        assert self.fs.read_file(DB_PATH) == _render(self.model)

    @invariant()
    def agrees_with_model_and_fresh_parse(self):
        expected = sorted(self.model.values(), key=lambda p: p.name)
        assert self.db.all() == expected
        assert self.db.installed_names() == set(self.model)
        for name, record in self.model.items():
            assert self.db.get(name) == record
        assert PackageDatabase(self.fs).all() == expected


TestPackageDatabaseMachine = PackageDatabaseMachine.TestCase
TestPackageDatabaseMachine.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None)
