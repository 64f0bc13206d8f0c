"""The TSR enclave's host interface stays narrow and never carries a
tenant signing key.

The host reaches :class:`TsrProgram` only through :meth:`Enclave.ecall`.
These tests pin the set of exported entry points, and record every ecall
of a multi-tenant refresh, a trace replay and a sealed-state restart to
check that no argument or result holds a tenant's private key, neither as
an object nor serialized."""

import dataclasses
import pickle

from repro.archive.apk import ApkPackage, PackageFile
from repro.core.program import TsrProgram
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.sgx.enclave import Enclave
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    multi_tenant_refresh,
)

EXPORTED = {
    "analyze_blob",
    "begin_shared_refresh",
    "check_cached_blob",
    "deploy_policy",
    "end_shared_refresh",
    "evaluate_quorum",
    "export_state",
    "finalize_index",
    "finish_catalog",
    "public_key_pem",
    "quote_for_repo",
    "repository_ids",
    "restore_state",
    "sanitize_package",
    "sanitize_package_precatalog",
    "sanitized_index_bytes",
    "scan_for_accounts",
    "scan_package",
}


def test_exported_entry_points_are_the_allow_list():
    """Exactly what :meth:`Enclave.ecall` would dispatch: public callable
    attributes of the program.  A new entry point must be added here on
    purpose."""
    program = TsrProgram(key_bits=1024)
    exported = {name for name in dir(program)
                if not name.startswith("_")
                and callable(getattr(program, name))}
    assert exported == EXPORTED


def _packages(count=6):
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"adduser -S svc{i}\n"}
        packages.append(ApkPackage(
            name=f"pkg-{i:02d}", version="1.0-r0", scripts=scripts,
            files=[PackageFile(f"/usr/bin/pkg{i}",
                               (b"\x7fELF" + bytes([i])) * 300)]))
    return packages


def _tenant_keys(scenario) -> list[RsaPrivateKey]:
    repos = scenario.tsr._enclave._program._repos
    return [repos[repo_id].signing_key for repo_id in sorted(repos)]


def _secrets(key: RsaPrivateKey) -> tuple[list[bytes], list[str]]:
    """Byte and text patterns a serialized copy of ``key`` would contain:
    its PEM, and each secret number in both byte orders, in decimal and
    in hex."""
    pem = key.to_pem()
    raw, text = [pem.encode()], [pem]
    for value in (key.d, key.p, key.q):
        size = (value.bit_length() + 7) // 8
        raw += [value.to_bytes(size, "big"), value.to_bytes(size, "little")]
        text += [str(value), format(value, "x")]
    return raw, text


def _leaks(obj, raw, text, seen):
    """Yield what in ``obj`` holds a private key or its secret numbers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, RsaPrivateKey):
        yield obj
    elif isinstance(obj, (bytes, bytearray)):
        yield from (s for s in raw if s in obj)
    elif isinstance(obj, str):
        yield from (s for s in text if s in obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaks(key, raw, text, seen)
            yield from _leaks(value, raw, text, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            yield from _leaks(value, raw, text, seen)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _leaks(getattr(obj, field.name), raw, text, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _leaks(value, raw, text, seen)


def test_no_ecall_carries_a_tenant_private_key(monkeypatch):
    traffic = []
    dispatch = Enclave.ecall

    def recording(self, entry_point, *args, **kwargs):
        result = dispatch(self, entry_point, *args, **kwargs)
        traffic.append((entry_point, args, kwargs, result))
        return result

    monkeypatch.setattr(Enclave, "ecall", recording)
    scenario = build_multi_tenant_scenario(tenants=2, overlap=0.5,
                                           packages=_packages())
    multi_tenant_refresh(scenario)
    trace = generate_trace(rounds=2, interval=30.0, publish_fraction=0.3,
                           sync_lag=2.0, refresh_lag=6.0, pull_lag=20.0,
                           seed=5)
    report = replay_trace(scenario, trace, clients=4)
    assert report.installs > 0
    keys = _tenant_keys(scenario)
    scenario.tsr.restart()
    # Re-derived from the sealing key after the restart, not unsealed.
    assert [k.d for k in _tenant_keys(scenario)] == [k.d for k in keys]

    entry_points = {call[0] for call in traffic}
    assert {"deploy_policy", "evaluate_quorum", "sanitize_package",
            "export_state", "restore_state"} <= entry_points
    assert entry_points <= EXPORTED
    for key in keys:
        raw, text = _secrets(key)
        for entry_point, args, kwargs, result in traffic:
            found = list(_leaks((args, kwargs, result), raw, text, set()))
            assert not found, f"{entry_point} carries tenant key material"


def test_leak_walk_finds_a_key_wherever_it_hides():
    """The walk above sees a key in any of the shapes ecalls use: as an
    object, nested in containers or a dataclass, or serialized."""
    key = generate_keypair(512, seed=7)
    raw, text = _secrets(key)
    for shape in ([{"k": key}],
                  _Holder(payload={"inner": (key,)}),
                  {"pem": key.to_pem()},
                  ("hex", "00" + format(key.d, "x")),
                  b"prefix" + raw[1],
                  bytearray(pickle.dumps(key.d))):
        assert list(_leaks(shape, raw, text, set())), shape
    public = key.public_key
    assert not list(_leaks((public, public.to_pem(), public.n), raw, text,
                           set()))


@dataclasses.dataclass
class _Holder:
    payload: dict
