"""Tests for the apk-like package manager against an in-memory repository."""

import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.crypto.hashes import sha256_hex
from repro.ima.subsystem import AppraisalMode, ima_signature_for
from repro.osim.os import IntegrityEnforcedOS
from repro.osim.pkgdb import DB_PATH
from repro.osim.pkgmgr import PackageManager
from repro.util.errors import (
    IntegrityError,
    PackageManagerError,
    SignatureError,
)
from repro.workload.scenario import build_scenario


class MemoryRepository:
    """A trivial in-process repository client for unit tests."""

    def __init__(self, signing_key, serial=1):
        self._key = signing_key
        self.serial = serial
        self._blobs: dict[str, bytes] = {}
        self._index = RepositoryIndex(serial=serial)

    def publish(self, package: ApkPackage):
        blob = package.build(self._key)
        self._blobs[package.name] = blob
        self._index.add(IndexEntry(
            name=package.name,
            version=package.version,
            size=len(blob),
            sha256=sha256_hex(blob),
            depends=tuple(package.depends),
        ))
        self._index.sign(self._key)

    def fetch_index(self) -> bytes:
        return self._index.to_bytes()

    def fetch_package(self, name: str) -> bytes:
        return self._blobs[name]


@pytest.fixture()
def repo(rsa_key):
    repo = MemoryRepository(rsa_key)
    repo.publish(ApkPackage(
        name="musl", version="1.1.24-r2",
        files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl")],
    ))
    repo.publish(ApkPackage(
        name="zlib", version="1.2.11-r3", depends=["musl"],
        files=[PackageFile("/lib/libz.so.1", b"\x7fELF zlib")],
    ))
    repo.publish(ApkPackage(
        name="openssl", version="1.1.1g-r0", depends=["zlib", "musl"],
        scripts={".post-install": "mkdir -p /etc/ssl\n"},
        files=[PackageFile("/usr/lib/libssl.so.1.1", b"\x7fELF ssl")],
    ))
    return repo


@pytest.fixture()
def node():
    machine = IntegrityEnforcedOS("pm-node")
    machine.boot()
    return machine


@pytest.fixture()
def pm(node, repo, rsa_key):
    manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
    manager.update()
    return manager


class TestIndexHandling:
    def test_update_verifies_signature(self, pm):
        assert pm.index.serial == 1

    def test_untrusted_index_rejected(self, node, repo, rsa_key_alt):
        manager = PackageManager(node, repo, trusted_keys=[rsa_key_alt.public_key])
        with pytest.raises(SignatureError):
            manager.update()

    def test_index_required_before_install(self, node, repo, rsa_key):
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        with pytest.raises(PackageManagerError):
            manager.install("musl")


class TestInstall:
    def test_install_extracts_files(self, pm, node):
        pm.install("musl")
        assert node.fs.read_file("/lib/ld-musl.so") == b"\x7fELF musl"
        assert node.pkgdb.get("musl").version == "1.1.24-r2"

    def test_install_resolves_dependencies(self, pm, node):
        stats = pm.install("openssl")
        assert node.pkgdb.installed_names() == {"musl", "zlib", "openssl"}
        assert stats.packages == 3

    def test_dependency_order(self, pm):
        order = [e.name for e in pm.resolve_install_order("openssl")]
        assert order.index("musl") < order.index("zlib")
        assert order.index("zlib") < order.index("openssl")

    def test_install_runs_scripts(self, pm, node):
        pm.install("openssl")
        assert node.fs.isdir("/etc/ssl")

    def test_install_idempotent(self, pm):
        pm.install("musl")
        stats = pm.install("musl")
        assert stats.packages == 0

    def test_missing_dependency_rejected(self, pm, repo, rsa_key):
        repo.publish(ApkPackage(name="broken", version="1-r0",
                                depends=["no-such-pkg"]))
        pm.update()
        with pytest.raises(PackageManagerError):
            pm.install("broken")

    def test_dependency_cycle_rejected(self, pm, repo):
        repo.publish(ApkPackage(name="a", version="1-r0", depends=["b"]))
        repo.publish(ApkPackage(name="b", version="1-r0", depends=["a"]))
        pm.update()
        with pytest.raises(PackageManagerError):
            pm.install("a")

    def test_size_mismatch_rejected(self, pm, repo):
        # Endless-data defence: blob longer than the signed index size.
        repo._blobs["musl"] += b"\x00" * 10
        with pytest.raises(IntegrityError):
            pm.install("musl")

    def test_hash_mismatch_rejected(self, pm, repo, rsa_key):
        other = ApkPackage(name="musl", version="1.1.24-r2",
                           files=[PackageFile("/lib/evil.so", b"evil")])
        blob = other.build(rsa_key)
        entry = pm.index.get("musl")
        repo._blobs["musl"] = blob + b"\x00" * (entry.size - len(blob)) \
            if len(blob) < entry.size else blob[:entry.size]
        with pytest.raises(IntegrityError):
            pm.install("musl")

    def test_untrusted_package_signature_rejected(self, pm, repo, rsa_key_alt):
        evil = ApkPackage(name="musl", version="1.1.24-r2",
                          files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl")])
        blob = evil.build(rsa_key_alt)  # attacker's key
        repo._blobs["musl"] = blob
        entry = pm.index.get("musl")
        # Even with a matching index entry the signature must fail.
        repo._index.add(IndexEntry(name="musl", version="1.1.24-r2",
                                   size=len(blob), sha256=sha256_hex(blob)))
        repo._index.sign(repo._key)
        pm.update()
        with pytest.raises(SignatureError):
            pm.install("musl")

    def test_ima_xattrs_materialized(self, pm, node, repo, rsa_key):
        content = b"\x7fELF signed tool"
        package = ApkPackage(
            name="tool", version="1-r0",
            files=[PackageFile("/usr/bin/tool", content,
                               ima_signature=ima_signature_for(content, rsa_key))],
        )
        repo.publish(package)
        pm.update()
        pm.install("tool")
        assert node.fs.get_xattr("/usr/bin/tool", "security.ima") is not None

    def test_failing_script_aborts(self, pm, repo):
        repo.publish(ApkPackage(name="bad", version="1-r0",
                                scripts={".post-install": "exit 1\n"}))
        pm.update()
        with pytest.raises(PackageManagerError):
            pm.install("bad")


class TestUpgrade:
    def test_upgrade_replaces_files(self, pm, node, repo):
        pm.install("musl")
        repo.publish(ApkPackage(
            name="musl", version="1.1.24-r3",
            files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl v2")],
        ))
        pm.update()
        upgrades = pm.available_upgrades()
        assert [e.version for e in upgrades] == ["1.1.24-r3"]
        pm.upgrade_all()
        assert node.fs.read_file("/lib/ld-musl.so") == b"\x7fELF musl v2"
        assert node.pkgdb.get("musl").version == "1.1.24-r3"

    def test_upgrade_removes_dropped_files(self, pm, node, repo):
        repo.publish(ApkPackage(
            name="app", version="1-r0",
            files=[PackageFile("/usr/bin/app", b"v1"),
                   PackageFile("/usr/share/app/legacy.dat", b"old")],
        ))
        pm.update()
        pm.install("app")
        repo.publish(ApkPackage(
            name="app", version="2-r0",
            files=[PackageFile("/usr/bin/app", b"v2")],
        ))
        pm.update()
        pm.upgrade_all()
        assert not node.fs.exists("/usr/share/app/legacy.dat")

    def test_upgrade_runs_upgrade_scripts(self, pm, node, repo):
        repo.publish(ApkPackage(name="svc", version="1-r0"))
        pm.update()
        pm.install("svc")
        repo.publish(ApkPackage(
            name="svc", version="2-r0",
            scripts={".post-upgrade": "touch /var/svc-upgraded\n"},
        ))
        pm.update()
        pm.upgrade_all()
        assert node.fs.exists("/var/svc-upgraded")

    def test_no_upgrades_when_current(self, pm):
        pm.install("musl")
        assert pm.available_upgrades() == []

    @staticmethod
    def _tool_1_2_with_index_at_1_2_0(rsa_key):
        """A node with ``tool 1.2`` installed whose index now pins ``1.2.0``."""
        repo = MemoryRepository(rsa_key)
        repo.publish(ApkPackage(name="tool", version="1.2",
                                files=[PackageFile("/usr/bin/tool", b"v")]))
        node = IntegrityEnforcedOS("pad-node")
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        manager.install("tool")
        repo.publish(ApkPackage(name="tool", version="1.2.0",
                                files=[PackageFile("/usr/bin/tool", b"v")]))
        manager.update()
        return repo, node, manager

    def test_padded_version_is_not_an_upgrade(self, rsa_key):
        """An index pinning ``1.2.0`` offers nothing to a ``1.2`` install,
        and ``1.2.1`` still is an upgrade."""
        repo, _, manager = self._tool_1_2_with_index_at_1_2_0(rsa_key)
        assert manager.available_upgrades() == []
        repo.publish(ApkPackage(name="tool", version="1.2.1",
                                files=[PackageFile("/usr/bin/tool", b"w")]))
        manager.update()
        assert [e.version for e in manager.available_upgrades()] == ["1.2.1"]

    def test_padded_version_install_is_a_no_op(self, rsa_key):
        """Installing ``tool`` again when the index pins ``1.2.0`` over an
        installed ``1.2`` re-runs nothing: the versions are equal."""
        _, node, manager = self._tool_1_2_with_index_at_1_2_0(rsa_key)
        database = node.fs.read_file(DB_PATH)
        assert manager.install("tool").operations == []
        assert node.fs.read_file(DB_PATH) == database
        assert node.pkgdb.get("tool").version == "1.2"

    def test_tampered_db_triggers_upgrade(self, pm, node):
        """The Fig. 11 methodology: fake an outdated version in the DB."""
        pm.install("musl")
        node.pkgdb.mark_outdated("musl")
        assert [e.name for e in pm.available_upgrades()] == ["musl"]


class TestUninstall:
    def test_uninstall_removes_files(self, pm, node):
        pm.install("musl")
        pm.uninstall("musl")
        assert not node.fs.exists("/lib/ld-musl.so")
        assert node.pkgdb.get("musl") is None

    def test_uninstall_missing_rejected(self, pm):
        with pytest.raises(PackageManagerError):
            pm.uninstall("ghost")


def _hooked(version, mark=None):
    """``svc`` at ``version``; with a ``mark``, its de-install hooks touch
    ``/var/pre-<mark>`` and ``/var/post-<mark>``."""
    scripts = {} if mark is None else {
        ".pre-deinstall": f"touch /var/pre-{mark}\n",
        ".post-deinstall": f"touch /var/post-{mark}\n",
    }
    payload = random.Random(version).randbytes(8 * 1024)
    return ApkPackage(name="svc", version=version, scripts=scripts,
                      files=[PackageFile("/usr/bin/svc", payload)])


def _hooks_run(node):
    return sorted(path for path in ("/var/pre-a", "/var/post-a",
                                    "/var/pre-b", "/var/post-b")
                  if node.fs.exists(path))


class TestUninstallRunsTheInstalledHooks:
    """``uninstall`` runs the de-install hooks of the version installed,
    kept on the node at install time, and fetches nothing."""

    @staticmethod
    def _svc_1_0_with_index_at_1_1(rsa_key, newer_mark="b"):
        repo = MemoryRepository(rsa_key)
        repo.publish(_hooked("1.0-r0", "a"))
        node = IntegrityEnforcedOS("hook-node")
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        manager.install("svc")
        repo.publish(_hooked("1.1-r0", newer_mark))
        manager.update()
        return repo, node, manager

    def test_runs_the_installed_versions_hooks(self, rsa_key):
        _, node, manager = self._svc_1_0_with_index_at_1_1(rsa_key)
        stats = manager.uninstall("svc")
        assert _hooks_run(node) == ["/var/post-a", "/var/pre-a"]
        assert stats.scripts_run == 2
        assert stats.bytes_downloaded == 0
        assert not node.fs.exists("/lib/apk/db/svc.pre-deinstall")
        assert not node.fs.exists("/lib/apk/db/svc.post-deinstall")

    def test_an_upgrade_replaces_or_drops_the_kept_hooks(self, rsa_key):
        repo, node, manager = self._svc_1_0_with_index_at_1_1(rsa_key)
        manager.upgrade_all()
        manager.uninstall("svc")
        assert _hooks_run(node) == ["/var/post-b", "/var/pre-b"]

        repo.publish(_hooked("1.2-r0"))
        manager.update()
        manager.install("svc")
        node.fs.remove("/var/pre-b")
        node.fs.remove("/var/post-b")
        repo.publish(_hooked("1.3-r0", "a"))
        manager.update()
        manager.upgrade_all()
        repo.publish(_hooked("1.4-r0"))  # ships no de-install hook
        manager.update()
        manager.upgrade_all()
        manager.uninstall("svc")
        assert _hooks_run(node) == []

    @staticmethod
    def _delta_client_with_update_pending():
        scenario = build_scenario(packages=[_hooked("1.0-r0", "a")],
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        node, manager = scenario.new_node("remover", delta_updates=True)
        manager.update()
        manager.install("svc")
        newer = _hooked("1.1-r0", "b")
        scenario.origin.publish_many([(newer, None)])
        scenario.population["svc"] = newer
        scenario.sync_mirrors()
        scenario.refresh()
        scenario.tsr.record_publication(scenario.repo_id,
                                        scenario.clock.now())
        manager.update()
        assert manager.index.get("svc").version == "1.1-r0"
        return scenario, node, manager

    def test_fetches_nothing_and_leaves_delta_stats_alone(self, monkeypatch):
        _, node, manager = self._delta_client_with_update_pending()
        calls = []
        for name in ("fetch_package", "fetch_package_delta",
                     "fetch_package_origin"):
            def recording(*args, _name=name):
                calls.append(_name)
                raise AssertionError(f"uninstall called {_name}")

            monkeypatch.setattr(manager.client, name, recording)
        before = manager.delta_stats.as_dict()
        manager.uninstall("svc")
        assert calls == []
        assert manager.delta_stats.as_dict() == before
        assert _hooks_run(node) == ["/var/post-a", "/var/pre-a"]

    def test_runs_the_hooks_with_the_tsr_down(self):
        scenario, node, manager = self._delta_client_with_update_pending()
        scenario.network.set_down(scenario.tsr.hostname)
        manager.uninstall("svc")
        assert _hooks_run(node) == ["/var/post-a", "/var/pre-a"]
        assert node.pkgdb.get("svc") is None

    def test_a_package_name_must_be_a_file_name(self, rsa_key):
        repo = MemoryRepository(rsa_key)
        repo.publish(ApkPackage(name="../escape", version="1.0-r0",
                                scripts={".pre-deinstall": "true\n"}))
        node = IntegrityEnforcedOS("name-node")
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        with pytest.raises(PackageManagerError, match="not a file name"):
            manager.install("../escape")
        assert node.pkgdb.all() == []
        assert not node.fs.exists("/lib/apk/escape.pre-deinstall")


class TestDatabaseRecordsFromFileNames:
    """File names come from signed tar entries: no name may change how
    the package database reads back."""

    def test_pipe_in_a_path_survives_uninstall_and_upgrade(self, rsa_key):
        repo = MemoryRepository(rsa_key)
        files = [PackageFile("/usr/bin/pipe", b"v1"),
                 PackageFile("/usr/share/pipe/a|b", b"doc")]
        repo.publish(ApkPackage(name="pipe", version="1.0-r0", files=files))
        node = IntegrityEnforcedOS("pipe-node")
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        manager.install("pipe")
        assert node.pkgdb.get("pipe").files == (
            "/usr/bin/pipe", "/usr/share/pipe/a|b")

        repo.publish(ApkPackage(name="pipe", version="1.1-r0",
                                files=[PackageFile("/usr/bin/pipe", b"v2")]))
        manager.update()
        manager.upgrade_all()
        assert node.pkgdb.get("pipe").version == "1.1-r0"
        assert not node.fs.exists("/usr/share/pipe/a|b")

        repo.publish(ApkPackage(name="pipe", version="1.2-r0", files=files))
        manager.update()
        manager.upgrade_all()
        manager.uninstall("pipe")
        assert node.pkgdb.get("pipe") is None
        assert not node.fs.exists("/usr/share/pipe/a|b")
        assert not node.fs.exists("/usr/bin/pipe")

    def test_newline_in_a_path_cannot_hide_a_security_update(self, rsa_key):
        repo = MemoryRepository(rsa_key)
        repo.publish(ApkPackage(
            name="openssl", version="1.0-r0",
            files=[PackageFile("/usr/lib/libssl.so", b"\x7fELF old")]))
        repo.publish(ApkPackage(
            name="zz-docs", version="1.0-r0",
            scripts={".pre-install": "touch /var/zz-docs-hook\n"},
            files=[PackageFile("/x\n\nP:openssl\nV:99.0-r0\nC:x", b"doc")]))
        node = IntegrityEnforcedOS("newline-node")
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        manager.install("openssl")
        database = node.fs.read_file(DB_PATH)

        # Refused after verification, before any hook or file write.
        with pytest.raises(PackageManagerError, match="newline"):
            manager.install("zz-docs")
        assert not node.fs.exists("/var/zz-docs-hook")
        assert not node.fs.exists("/x\n\nP:openssl\nV:99.0-r0\nC:x")
        assert node.fs.read_file(DB_PATH) == database
        assert [(p.name, p.version) for p in node.pkgdb.all()] == \
            [("openssl", "1.0-r0")]

        repo.publish(ApkPackage(
            name="openssl", version="1.1-r0",
            files=[PackageFile("/usr/lib/libssl.so", b"\x7fELF fixed")]))
        manager.update()
        assert [e.version for e in manager.available_upgrades()] == ["1.1-r0"]
        manager.upgrade_all()
        assert node.fs.read_file("/usr/lib/libssl.so") == b"\x7fELF fixed"


class TestIntegrityInteraction:
    def test_exercise_measures_package_files(self, pm, node):
        pm.install("musl")
        before = {m.path for m in node.ima.measurements}
        assert "/lib/ld-musl.so" not in before
        pm.exercise("musl")
        after = {m.path for m in node.ima.measurements}
        assert "/lib/ld-musl.so" in after

    def test_unsigned_update_breaks_appraisal(self, repo, rsa_key):
        """End-to-end: enforcing node rejects files from un-sanitized
        packages — the core problem the paper solves."""
        node = IntegrityEnforcedOS("strict", appraisal=AppraisalMode.ENFORCE,
                                   vendor_key=rsa_key)
        node.boot()
        manager = PackageManager(node, repo, trusted_keys=[rsa_key.public_key])
        manager.update()
        manager.install("musl")  # extracts fine: writes are not appraised
        from repro.util.errors import FileSystemError
        with pytest.raises(FileSystemError):
            node.load_file("/lib/ld-musl.so")  # no security.ima -> denied
