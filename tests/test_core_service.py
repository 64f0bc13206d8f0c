"""Tests for the TSR service: deployment, refresh, serving, rollback."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.gz import gzip_compress
from repro.archive.index import RepositoryIndex
from repro.archive.tar import TarEntry, write_tar
from repro.core.client import deploy_policy_with_attestation
from repro.core.service import SEALED_STATE_PATH
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.mirrors.mirror import MirrorBehavior
from repro.mirrors.builder import MirrorSpec
from repro.simnet.latency import Continent
from repro.simnet.network import Host, Request
from repro.util.errors import NetworkError, PackagingError, RollbackError
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario


def _mini_packages():
    return [
        ApkPackage(name="musl", version="1.1.24-r2",
                   files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl")]),
        ApkPackage(name="nginx", version="1.16-r0", depends=["musl"],
                   scripts={".pre-install": "addgroup -S www\nadduser -S -G www nginx\n"},
                   files=[PackageFile("/usr/sbin/nginx", b"\x7fELF nginx")]),
        ApkPackage(name="badpkg", version="1-r0",
                   scripts={".post-install": "add-shell /bin/badsh\n"}),
    ]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(packages=_mini_packages(), key_bits=1024)


class TestDeployment:
    def test_policy_deployment_returns_key_and_quote(self, scenario):
        assert scenario.repo_id.startswith("repo-")
        assert isinstance(scenario.tsr_public_key, RsaPublicKey)

    def test_attested_deployment_from_remote_owner(self, scenario):
        scenario.network.add_host(Host("os-owner", Continent.EUROPE))
        repo_id, key = deploy_policy_with_attestation(
            scenario.network, "os-owner", scenario.tsr.hostname,
            scenario.policy.to_yaml(), scenario.attestation_service,
            expected_mrenclave=scenario.tsr._enclave.mrenclave,
        )
        assert repo_id != scenario.repo_id  # a second, isolated tenant
        assert key != scenario.tsr_public_key  # distinct per-tenant keys

    def test_signing_key_not_in_host_memory(self, scenario):
        dump = repr(scenario.tsr._enclave.host_memory_dump())
        assert "signing" not in dump
        assert scenario.tsr_public_key.fingerprint() not in dump


class TestRefresh:
    def test_refresh_sanitizes_and_rejects(self, scenario):
        report = scenario.refresh_report
        assert report.sanitized == 2
        assert [name for name, _ in report.rejected] == ["badpkg"]
        assert report.serial == scenario.origin.serial

    def test_sanitized_index_signed_by_tsr(self, scenario):
        index = RepositoryIndex.from_bytes(
            scenario.tsr.get_index_bytes(scenario.repo_id)
        )
        assert index.verify(scenario.tsr_public_key)
        assert set(index.entries) == {"musl", "nginx"}

    def test_rejected_package_not_served(self, scenario):
        with pytest.raises(NetworkError):
            scenario.tsr.serve_package(scenario.repo_id, "badpkg")

    def test_incremental_refresh_only_changed(self, scenario):
        scenario.origin.publish(ApkPackage(
            name="musl", version="1.1.24-r3",
            files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl r3")],
        ))
        scenario.sync_mirrors()
        report = scenario.tsr.refresh(scenario.repo_id)
        assert report.changed_packages == ["musl"]
        assert report.sanitized == 1

    def test_undecodable_hook_aborts_refresh_with_packaging_error(self):
        fresh = build_scenario(packages=_mini_packages()[:1], key_bits=1024)
        builder = generate_keypair(1024, seed=0xCAFE)
        data_gz = gzip_compress(write_tar([]))
        pkginfo = ("pkgname = cafe\npkgver = 1-r0\n"
                   f"datahash = {sha256_hex(data_gz)}\n").encode()
        control_gz = gzip_compress(write_tar([
            TarEntry(name=".PKGINFO", data=pkginfo),
            TarEntry(name=".post-install", data=b"echo caf\xe9\n"),
        ]))
        signature_gz = gzip_compress(write_tar([TarEntry(
            name=".SIGN.RSA.builder.rsa.pub", data=builder.sign(control_gz))]))
        fresh.origin.publish_blob("cafe", "1-r0",
                                  signature_gz + control_gz + data_gz)
        fresh.sync_mirrors()
        with pytest.raises(PackagingError, match="post-install"):
            fresh.tsr.refresh(fresh.repo_id)

    def test_served_package_verifies_under_tsr_key(self, scenario):
        blob = scenario.tsr.serve_package(scenario.repo_id, "nginx")
        parsed = ApkPackage.parse(blob)
        assert parsed.verify([scenario.tsr_public_key])


class TestRollbackProtection:
    def test_cache_tamper_detected(self, scenario):
        good = scenario.tsr.serve_package(scenario.repo_id, "nginx")
        scenario.tsr.cache.tamper_sanitized(
            scenario.repo_id, "nginx", good[:-4] + b"\x00\x00\x00\x00"
        )
        with pytest.raises(RollbackError):
            scenario.tsr.serve_package(scenario.repo_id, "nginx")
        # Restore for later tests.
        scenario.tsr.cache.put_sanitized(scenario.repo_id, "nginx", good)

    def test_cache_rollback_to_old_version_detected(self, scenario):
        current = scenario.tsr.serve_package(scenario.repo_id, "musl")
        scenario.origin.publish(ApkPackage(
            name="musl", version="1.1.24-r4",
            files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl r4")],
        ))
        scenario.sync_mirrors()
        scenario.tsr.refresh(scenario.repo_id)
        new = scenario.tsr.serve_package(scenario.repo_id, "musl")
        assert new != current
        # Adversary rolls the cache back to the older sanitized blob.
        scenario.tsr.cache.tamper_sanitized(scenario.repo_id, "musl", current)
        with pytest.raises(RollbackError):
            scenario.tsr.serve_package(scenario.repo_id, "musl")
        scenario.tsr.cache.put_sanitized(scenario.repo_id, "musl", new)

    def test_restart_restores_state(self, scenario):
        before = scenario.tsr.get_index_bytes(scenario.repo_id)
        scenario.tsr.restart()
        after = scenario.tsr.get_index_bytes(scenario.repo_id)
        assert before == after
        # Serving still works and still verifies cached blobs.
        blob = scenario.tsr.serve_package(scenario.repo_id, "nginx")
        assert ApkPackage.parse(blob).verify([scenario.tsr_public_key])

    def test_restart_with_stale_sealed_state_rejected(self, scenario):
        stale = scenario.tsr.cache.disk.read_file(SEALED_STATE_PATH)
        # A refresh advances the monotonic counter and reseals.
        scenario.origin.publish(ApkPackage(name="zlib", version="1-r0"))
        scenario.sync_mirrors()
        scenario.tsr.refresh(scenario.repo_id)
        # Adversary rolls the sealed state file back to the stale copy.
        scenario.tsr.cache.disk.write_file(SEALED_STATE_PATH, stale)
        with pytest.raises(RollbackError):
            scenario.tsr.restart()
        # Recover: reseal current state for any following tests.
        scenario.tsr._enclave = type(scenario.tsr._enclave)(
            scenario.tsr._cpu, type(scenario.tsr._enclave._program),
            key_bits=1024,
        )


class TestEndToEndInstall:
    def test_node_installs_and_attests_clean(self):
        workload = generate_workload(scale=0.004, seed=5)
        scenario = build_scenario(workload=workload, key_bits=1024)
        node, pm = scenario.new_node()
        pm.update()
        # Install a sanitizable package with user creation if available,
        # otherwise any sanitized package.
        index = pm.index
        target = next(
            (name for name, kind in workload.category.items()
             if kind == "user_group" and index.get(name) is not None),
            index.package_names()[0],
        )
        pm.install(target)
        pm.exercise(target)
        node.load_file("/etc/passwd")
        report = scenario.monitor.verify_node(node)
        assert report.trusted, report.violations
