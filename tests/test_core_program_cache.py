"""Unit tests for the enclave program surface, cache, and freshness."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.core.cache import PackageCache
from repro.core.freshness import FreshnessManager
from repro.core.program import TsrProgram
from repro.crypto.rsa import RsaPublicKey
from repro.mirrors.repository import OriginalRepository
from repro.sgx.enclave import Enclave, EnclaveError
from repro.sgx.platform import AttestationService, SgxCpu
from repro.tpm.device import Tpm
from repro.util.errors import (
    IntegrityError,
    PolicyError,
    QuorumError,
    RollbackError,
)


@pytest.fixture(scope="module")
def cpu():
    return SgxCpu("prog-cpu", AttestationService(), key_bits=512)


@pytest.fixture()
def enclave(cpu):
    return Enclave(cpu, TsrProgram, key_bits=1024)


class _OtherBuild:
    """Another enclave build: its MRENCLAVE, so its sealing key, differ."""


def _policy_yaml(rsa_key) -> str:
    pem = "\n".join("    " + line
                    for line in rsa_key.public_key.to_pem().splitlines())
    return (
        "mirrors:\n"
        "  - hostname: m0\n  - hostname: m1\n  - hostname: m2\n"
        f"signers_keys:\n  - |-\n{pem}\n"
    )


@pytest.fixture()
def origin(rsa_key):
    repo = OriginalRepository(rsa_key)
    repo.publish(ApkPackage(name="musl", version="1-r0",
                            files=[PackageFile("/lib/x.so", b"\x7fELF")]))
    return repo


class TestProgramSurface:
    def test_deploy_returns_distinct_tenants(self, enclave, rsa_key):
        first = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        second = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        assert first["repo_id"] != second["repo_id"]
        assert first["public_key_pem"] != second["public_key_pem"]
        assert first["fault_tolerance"] == 1

    def test_key_rederived_from_sealing_key(self, cpu, rsa_key):
        a = Enclave(cpu, TsrProgram, key_bits=1024)
        b = Enclave(cpu, TsrProgram, key_bits=1024)
        pem_a = a.ecall("deploy_policy", _policy_yaml(rsa_key))["public_key_pem"]
        pem_b = b.ecall("deploy_policy", _policy_yaml(rsa_key))["public_key_pem"]
        assert pem_a == pem_b  # same CPU + same enclave build + same repo id

    def test_unknown_repo_rejected(self, enclave):
        with pytest.raises(PolicyError):
            enclave.ecall("public_key_pem", "repo-9999")

    def test_private_state_not_reachable_as_ecall(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ecall("_sealing_key")
        with pytest.raises(EnclaveError):
            enclave.ecall("_repos")

    def test_host_cannot_rebind_enclave_facilities(self, cpu, enclave,
                                                   rsa_key):
        """``_bind_enclave`` hands the program its sealing-key source; a
        host able to call it could swap in its own and learn every key
        derived afterwards."""
        rogue = Enclave(cpu, _OtherBuild)
        with pytest.raises(EnclaveError):
            enclave.ecall("_bind_enclave", rogue)
        with pytest.raises(EnclaveError):
            enclave.ecall("_repo", "repo-0001")
        first = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        twin = Enclave(cpu, TsrProgram, key_bits=1024)
        assert twin.ecall("deploy_policy", _policy_yaml(rsa_key)) == first

    def test_quorum_requires_majority(self, enclave, rsa_key, origin):
        deployed = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        blob = origin.index_bytes()
        with pytest.raises(QuorumError):
            enclave.ecall("evaluate_quorum", repo_id, [("m0", blob)])
        result = enclave.ecall("evaluate_quorum", repo_id,
                               [("m0", blob), ("m1", blob)])
        assert result["serial"] == origin.serial
        assert result["changed"] == ["musl"]

    def test_quorum_replay_to_older_serial_rejected(self, enclave, rsa_key,
                                                    origin):
        deployed = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        old_blob = origin.index_bytes()
        origin.publish(ApkPackage(name="zlib", version="1-r0"))
        new_blob = origin.index_bytes()
        enclave.ecall("evaluate_quorum", repo_id,
                      [("m0", new_blob), ("m1", new_blob)])
        with pytest.raises(RollbackError):
            enclave.ecall("evaluate_quorum", repo_id,
                          [("m0", old_blob), ("m1", old_blob)])

    def test_sanitize_requires_catalog(self, enclave, rsa_key, origin):
        deployed = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        blob = origin.index_bytes()
        enclave.ecall("evaluate_quorum", repo_id,
                      [("m0", blob), ("m1", blob)])
        with pytest.raises(PolicyError):
            enclave.ecall("sanitize_package", repo_id,
                          origin.package_blob("musl"))

    def test_unlisted_blob_rejected(self, enclave, rsa_key, origin):
        deployed = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        blob = origin.index_bytes()
        enclave.ecall("evaluate_quorum", repo_id,
                      [("m0", blob), ("m1", blob)])
        with pytest.raises(IntegrityError):
            enclave.ecall("scan_for_accounts", repo_id, b"not-a-real-package")

    def test_full_tenant_pipeline(self, enclave, rsa_key, origin):
        deployed = enclave.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        index_blob = origin.index_bytes()
        enclave.ecall("evaluate_quorum", repo_id,
                      [("m0", index_blob), ("m1", index_blob)])
        pkg_blob = origin.package_blob("musl")
        enclave.ecall("scan_for_accounts", repo_id, pkg_blob)
        info = enclave.ecall("finish_catalog", repo_id)
        assert info["users"] == 0
        result = enclave.ecall("sanitize_package", repo_id, pkg_blob)
        sanitized_index = RepositoryIndex.from_bytes(
            enclave.ecall("finalize_index", repo_id)
        )
        key = RsaPublicKey.from_pem(deployed["public_key_pem"])
        assert sanitized_index.verify(key)
        assert enclave.ecall("check_cached_blob", repo_id, "musl", result.blob)
        with pytest.raises(RollbackError):
            enclave.ecall("check_cached_blob", repo_id, "musl",
                          result.blob + b"x")

    def test_state_export_restore_roundtrip(self, cpu, rsa_key, origin):
        first = Enclave(cpu, TsrProgram, key_bits=1024)
        deployed = first.ecall("deploy_policy", _policy_yaml(rsa_key))
        repo_id = deployed["repo_id"]
        blob = origin.index_bytes()
        first.ecall("evaluate_quorum", repo_id, [("m0", blob), ("m1", blob)])
        first.ecall("finish_catalog", repo_id)
        first.ecall("sanitize_package", repo_id, origin.package_blob("musl"))
        first.ecall("finalize_index", repo_id)
        snapshot = first.ecall("export_state")

        second = Enclave(cpu, TsrProgram, key_bits=1024)
        second.ecall("restore_state", snapshot)
        assert second.ecall("repository_ids") == [repo_id]
        assert second.ecall("sanitized_index_bytes", repo_id) == \
            first.ecall("sanitized_index_bytes", repo_id)


class TestPackageCache:
    def test_roundtrip_both_kinds(self):
        cache = PackageCache()
        cache.put_original("r1", "musl", b"orig")
        cache.put_sanitized("r1", "musl", b"sane")
        assert cache.get_original("r1", "musl") == b"orig"
        assert cache.get_sanitized("r1", "musl") == b"sane"
        assert cache.has_original("r1", "musl")
        assert cache.has_sanitized("r1", "musl")

    def test_missing_is_none(self):
        cache = PackageCache()
        assert cache.get_original("r1", "ghost") is None
        assert not cache.has_sanitized("r1", "ghost")

    def test_repo_isolation(self):
        cache = PackageCache()
        cache.put_sanitized("r1", "musl", b"tenant1")
        assert cache.get_sanitized("r2", "musl") is None

    def test_invalidate_removes_both(self):
        cache = PackageCache()
        cache.put_original("r1", "musl", b"o")
        cache.put_sanitized("r1", "musl", b"s")
        cache.invalidate("r1", "musl")
        assert cache.get_original("r1", "musl") is None
        assert cache.get_sanitized("r1", "musl") is None

    def test_tamper_helper_overwrites(self):
        cache = PackageCache()
        cache.put_sanitized("r1", "musl", b"good")
        cache.tamper_sanitized("r1", "musl", b"evil")
        assert cache.get_sanitized("r1", "musl") == b"evil"


class TestFreshness:
    def test_persist_restore_roundtrip(self):
        tpm = Tpm("fresh-tpm", key_bits=512)
        manager = FreshnessManager(tpm)
        key = bytes(range(32))
        blob = manager.persist(key, {"serial": 7})
        assert manager.restore(key, blob) == {"serial": 7}

    def test_stale_blob_rejected(self):
        tpm = Tpm("fresh-tpm2", key_bits=512)
        manager = FreshnessManager(tpm)
        key = bytes(range(32))
        old = manager.persist(key, {"serial": 1})
        manager.persist(key, {"serial": 2})
        with pytest.raises(RollbackError):
            manager.restore(key, old)

    def test_tampered_blob_rejected(self):
        tpm = Tpm("fresh-tpm3", key_bits=512)
        manager = FreshnessManager(tpm)
        key = bytes(range(32))
        blob = bytearray(manager.persist(key, {"serial": 1}))
        blob[10] ^= 0x01
        with pytest.raises(RollbackError):
            manager.restore(key, bytes(blob))

    def test_wrong_key_rejected(self):
        tpm = Tpm("fresh-tpm4", key_bits=512)
        manager = FreshnessManager(tpm)
        blob = manager.persist(bytes(range(32)), {"x": 1})
        with pytest.raises(RollbackError):
            manager.restore(bytes(32), blob)

    def test_counter_survives_manager_recreation(self):
        """A new FreshnessManager over the same TPM must keep the counter
        (the TPM is the persistent root, not the Python object)."""
        tpm = Tpm("fresh-tpm5", key_bits=512)
        key = bytes(range(32))
        first = FreshnessManager(tpm)
        blob = first.persist(key, {"serial": 9})
        second = FreshnessManager(tpm)
        assert second.restore(key, blob) == {"serial": 9}
