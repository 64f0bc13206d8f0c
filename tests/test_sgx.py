"""Tests for the SGX simulator: enclaves, sealing, attestation, EPC model."""

import hashlib
import importlib.util
import inspect
import sys

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.core.program import TsrProgram
from repro.crypto.rsa import generate_keypair
from repro.sgx import enclave as enclave_module
from repro.sgx.enclave import Enclave, EnclaveError, measure_program
from repro.sgx.epc import DEFAULT_EPC_BYTES, EpcModel
from repro.sgx.platform import AttestationService, SgxCpu
from repro.sgx.sealing import seal, unseal
from repro.util.errors import AttestationError, SealingError
from repro.workload.scenario import build_scenario


class KeyVaultProgram:
    """A minimal enclave program holding a secret signing key."""

    def __init__(self):
        self._signing_key = generate_keypair(512, seed=777)

    def public_key_pem(self) -> str:
        return self._signing_key.public_key.to_pem()

    def sign(self, message: bytes) -> bytes:
        return self._signing_key.sign(message)

    def _secret_key(self):
        return self._signing_key


def _program_in_first():
    class Program:
        def noop(self):
            return None

    return Program


def _program_in_second():
    class Program:
        def noop(self):
            return None

    return Program


@pytest.fixture(scope="module")
def service():
    return AttestationService()


@pytest.fixture(scope="module")
def cpu(service):
    return SgxCpu("cpu-001", service, key_bits=512)


@pytest.fixture()
def enclave(cpu):
    return Enclave(cpu, KeyVaultProgram)


class TestEnclaveBoundary:
    def test_ecall_public_entry_point(self, enclave):
        pem = enclave.ecall("public_key_pem")
        assert "PUBLIC KEY" in pem

    def test_signing_works_through_ecall(self, enclave):
        from repro.crypto.rsa import RsaPublicKey
        pub = RsaPublicKey.from_pem(enclave.ecall("public_key_pem"))
        signature = enclave.ecall("sign", b"message")
        assert pub.verify(b"message", signature)

    def test_private_entry_point_blocked(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ecall("_secret_key")

    def test_unknown_entry_point_blocked(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ecall("does_not_exist")

    def test_host_memory_dump_hides_key(self, enclave):
        dump = enclave.host_memory_dump()
        flattened = repr(dump)
        assert "signing_key" not in flattened
        assert "RsaPrivateKey" not in flattened
        assert set(dump) == {"enclave_loaded", "mrenclave", "cpu_id"}

    def test_destroy_loses_state(self, enclave):
        enclave.destroy()
        assert not enclave.alive
        with pytest.raises(EnclaveError):
            enclave.ecall("sign", b"x")
        with pytest.raises(EnclaveError):
            enclave.sealing_key()


class TestMeasurement:
    def test_same_program_same_measurement(self, cpu):
        a = Enclave(cpu, KeyVaultProgram)
        b = Enclave(cpu, KeyVaultProgram)
        assert a.mrenclave == b.mrenclave

    def test_different_program_different_measurement(self):
        class OtherProgram:
            def noop(self):
                return None

        assert measure_program(KeyVaultProgram) != measure_program(OtherProgram)

    @pytest.mark.parametrize("program", ["tsr", "key-vault", "local"])
    def test_cached_value_is_the_source_measurement(self, program):
        class LocalProgram:
            def noop(self):
                return None

        cls = {"tsr": TsrProgram, "key-vault": KeyVaultProgram,
               "local": LocalProgram}[program]
        identity = (f"{cls.__module__}.{cls.__qualname__}\n"
                    f"{inspect.getsource(cls)}")
        expected = hashlib.sha256(identity.encode()).digest()
        assert measure_program(cls) == expected
        assert measure_program(cls) == expected  # the memoized value

    def test_identical_bodies_with_other_qualnames_differ(self):
        first, second = _program_in_first(), _program_in_second()
        assert first.__name__ == second.__name__
        assert inspect.getsource(first) == inspect.getsource(second)
        assert measure_program(first) != measure_program(second)

    def test_restart_and_second_enclave_read_no_source(self, cpu,
                                                       monkeypatch):
        scenario = build_scenario(
            packages=[ApkPackage(name="musl", version="1-r0",
                                 files=[PackageFile("/lib/ld-musl.so",
                                                    b"\x7fELF")])],
            key_bits=1024, with_monitor=False)
        before = scenario.tsr._enclave.mrenclave
        reads = []
        getsource = inspect.getsource
        monkeypatch.setattr(inspect, "getsource",
                            lambda obj: reads.append(obj) or getsource(obj))
        class_source = enclave_module._class_source
        monkeypatch.setattr(
            enclave_module, "_class_source",
            lambda cls: reads.append(cls) or class_source(cls))
        second = Enclave(cpu, TsrProgram, key_bits=1024)
        scenario.tsr.restart()
        assert reads == []
        assert second.mrenclave == scenario.tsr._enclave.mrenclave == before
        quote = scenario.tsr._enclave.ecall(
            "quote_for_repo", scenario.repo_id)["quote"]
        assert quote.verify(scenario.attestation_service,
                            expected_mrenclave=before)


#: A module whose classes sit where ``inspect.getblock`` is subtle; the
#: file is written without a final newline.
_SPAN_CASES = """\
import functools


def registered(cls):
    return cls


@registered
@functools.total_ordering
class Decorated:
    def __lt__(self, other):
        return False


def first_scope():
    class Twin:
        where = "first"
    return Twin


def second_scope():
    class Twin:
        where = "second"

    return Twin


class Twin:
    where = "module"


def make_local():
    class Outer:
        class Inner:
            value = 1
    return Outer


class TrailingComment:
    def method(self):
        return 1
    # kept: as deep as the body
# skipped: at column 0
        # kept, and so is the line above

value = TrailingComment


class OneLine: value = 1
                    # dropped: a one-line class has no body column


if value:
    class InBlock:
        value = 2
            # kept: deeper than the body
    other = 3


class Last:
    value = 4"""


@pytest.fixture()
def span_cases(tmp_path, monkeypatch):
    """The module above, imported from a file of its own."""
    path = tmp_path / "span_cases.py"
    path.write_text(_SPAN_CASES)
    spec = importlib.util.spec_from_file_location("span_cases", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "span_cases", module)
    spec.loader.exec_module(module)
    return module


class TestMeasurementSpan:
    """MRENCLAVE hashes the text ``inspect.getsource`` returns, read from
    one AST parse; these pin the two equal."""

    #: ``measure_program(TsrProgram)``: tenant keys derive from it, so any
    #: drift in the text it hashes fails here first.
    TSR_MRENCLAVE = (
        "e7ea9739707b507455100fffcd4e2b0d4bd0441d6bc2f20c0b70ab753bd2d467")

    def test_tsr_program_measurement_is_pinned(self):
        assert measure_program(TsrProgram).hex() == self.TSR_MRENCLAVE

    @pytest.mark.parametrize("cls", [TsrProgram, KeyVaultProgram,
                                     _program_in_first(),
                                     _program_in_second()])
    def test_program_classes_match_inspect(self, cls):
        assert enclave_module._class_source(cls) == inspect.getsource(cls)

    def test_subtle_spans_match_inspect(self, span_cases):
        classes = {
            "Decorated": span_cases.Decorated,
            "first Twin": span_cases.first_scope(),
            "second Twin": span_cases.second_scope(),
            "module Twin": span_cases.Twin,
            "Outer": span_cases.make_local(),
            "Inner": span_cases.make_local().Inner,
            "TrailingComment": span_cases.TrailingComment,
            "OneLine": span_cases.OneLine,
            "InBlock": span_cases.InBlock,
            "Last": span_cases.Last,
        }
        spans = {name: enclave_module._class_source(cls)
                 for name, cls in classes.items()}
        assert spans == {name: inspect.getsource(cls)
                         for name, cls in classes.items()}
        # The cases are the subtle ones they claim to be.
        assert spans["Decorated"].startswith("@registered\n@functools")
        assert [spans[twin].split('"')[1] for twin in
                ("first Twin", "second Twin", "module Twin")] == [
            "first", "second", "module"]
        assert spans["Inner"].startswith("        class Inner:")
        assert spans["TrailingComment"].endswith(
            "# skipped: at column 0\n        # kept, and so is the line "
            "above\n")
        assert spans["OneLine"] == "class OneLine: value = 1\n"
        assert spans["InBlock"].endswith("# kept: deeper than the body\n")
        assert spans["Last"] == "class Last:\n    value = 4\n"

    def test_classes_without_source_measure_their_repr(self):
        made = type("Made", (), {"__module__": __name__})
        for cls in (int, made):
            with pytest.raises((OSError, TypeError)):
                inspect.getsource(cls)
            identity = f"{cls.__module__}.{cls.__qualname__}\n{cls!r}"
            assert measure_program(cls) == hashlib.sha256(
                identity.encode()).digest()


class TestSealing:
    def test_seal_unseal_roundtrip(self):
        key = bytes(range(32))
        blob = seal(key, b"metadata indexes + counter 7")
        assert unseal(key, blob) == b"metadata indexes + counter 7"

    def test_wrong_key_rejected(self):
        blob = seal(bytes(32), b"secret")
        with pytest.raises(SealingError):
            unseal(bytes([1] * 32), blob)

    def test_tampered_blob_rejected(self):
        key = bytes(range(32))
        blob = bytearray(seal(key, b"secret"))
        blob[20] ^= 0x01
        with pytest.raises(SealingError):
            unseal(key, bytes(blob))

    def test_context_binding(self):
        key = bytes(range(32))
        blob = seal(key, b"data", context=b"repo-1")
        with pytest.raises(SealingError):
            unseal(key, blob, context=b"repo-2")
        assert unseal(key, blob, context=b"repo-1") == b"data"

    def test_enclave_binding_end_to_end(self, cpu, service):
        enclave_a = Enclave(cpu, KeyVaultProgram)

        class DifferentProgram:
            def noop(self):
                return None

        enclave_b = Enclave(cpu, DifferentProgram)
        blob = seal(enclave_a.sealing_key(), b"state")
        # The same CPU but a different enclave build cannot unseal.
        with pytest.raises(SealingError):
            unseal(enclave_b.sealing_key(), blob)

    def test_cpu_binding_end_to_end(self, service):
        cpu_a = SgxCpu("cpu-a", service, key_bits=512)
        cpu_b = SgxCpu("cpu-b", service, key_bits=512)
        enclave_a = Enclave(cpu_a, KeyVaultProgram)
        enclave_b = Enclave(cpu_b, KeyVaultProgram)
        blob = seal(enclave_a.sealing_key(), b"state")
        with pytest.raises(SealingError):
            unseal(enclave_b.sealing_key(), blob)

    def test_empty_plaintext(self):
        key = bytes(32)
        assert unseal(key, seal(key, b"")) == b""

    def test_bad_key_size_rejected(self):
        with pytest.raises(SealingError):
            seal(b"short", b"x")


class TestRemoteAttestation:
    def test_quote_verifies_on_genuine_cpu(self, enclave, service):
        quote = enclave.quote(report_data=b"tsr-pubkey-fingerprint")
        assert quote.verify(service, expected_mrenclave=enclave.mrenclave)

    def test_report_data_bound(self, enclave, service):
        quote = enclave.quote(report_data=b"original")
        forged = type(quote)(
            cpu_id=quote.cpu_id,
            mrenclave=quote.mrenclave,
            report_data=b"swapped",
            signature=quote.signature,
        )
        with pytest.raises(AttestationError):
            forged.verify(service)

    def test_unknown_cpu_rejected(self, enclave):
        empty_service = AttestationService()
        quote = enclave.quote(b"data")
        with pytest.raises(AttestationError):
            quote.verify(empty_service)

    def test_wrong_mrenclave_rejected(self, enclave, service):
        quote = enclave.quote(b"data")
        with pytest.raises(AttestationError):
            quote.verify(service, expected_mrenclave=b"\x00" * 32)


class TestEpcModel:
    def test_below_epc_base_factor(self):
        model = EpcModel()
        assert model.overhead_factor(1024) == pytest.approx(1.18)
        assert model.overhead_factor(DEFAULT_EPC_BYTES) == pytest.approx(1.18)

    def test_above_epc_grows(self):
        model = EpcModel()
        half_over = model.overhead_factor(int(DEFAULT_EPC_BYTES * 1.5))
        assert 1.18 < half_over < 1.96

    def test_saturates_at_max(self):
        model = EpcModel()
        assert model.overhead_factor(10 * DEFAULT_EPC_BYTES) == pytest.approx(1.96)

    def test_paper_shape_median_vs_tail(self):
        """Fig. 12: small packages ~1.18x, EPC-exceeding packages ~1.96x."""
        model = EpcModel()
        small = model.simulated_duration(1.0, 10 * 1024 * 1024)
        huge = model.simulated_duration(1.0, 4 * DEFAULT_EPC_BYTES)
        assert small == pytest.approx(1.18)
        assert huge == pytest.approx(1.96)

    def test_exceeds_epc_predicate(self):
        model = EpcModel(epc_bytes=100)
        assert not model.exceeds_epc(100)
        assert model.exceeds_epc(101)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EpcModel().overhead_factor(-1)
        with pytest.raises(ValueError):
            EpcModel().simulated_duration(-1.0, 10)
