"""Differential suites pinning the host-time fast paths byte-identical.

The raw-speed pass (memoized crypto, incremental repack, chunk offsets
memo) is only admissible if every fast path is *indistinguishable*
from the cold path it replaces.  These tests are the
pin:

* **Incremental repack** — 50 seeded catalog mutations, each built twice:
  once against warm compress/chunk memos and once fully cold (memos
  cleared).  Signed apk blobs and signed index bytes must match exactly.
* **Memoized verify** — a signature that verified once must keep
  verifying via the memo, and a signature tampered *after* that first
  success must still fail: the memo key covers the signature bytes, so
  tampering can never alias a cached success.  Sign and verify memos are
  scoped to their key, and sign hits replay the recorded cost.
* **Content memos** — compress hits equal a fresh deflate and replay
  its measured cost; a seeded keypair regenerates identically once its
  memo entry is gone; an index parse hit is a private copy, and a
  failed parse is not cached.
* **Delta reconstruction** — a client patching a package delta
  re-deflates through the compress memo: cold and warm reconstructions
  are byte-identical, a warm one deflates nothing, and a tampered literal
  misses the memo and still fails the envelope's hash check.
* **Chunk offsets memo** — a memo hit equals the cold scan and hands
  out a private copy (the scan itself is pinned against the scalar
  oracle in ``tests/test_chunks.py``).
* **Client install memos** — a verified-blob parse hit is a private copy
  that still faces each manager's own keyring and is never consulted for
  bytes that miss the signed hash; script and chunk-map memos keep every
  failure and tamper check; a multi-node install and delta upgrade with
  live memos leaves the state of the same run with cold memos.
* **Delta apply memo** — a repeat of (base, envelope) returns the cold
  rebuild without touching the chunk map; a tampered, truncated or
  over-inflating envelope raises on every call and stores nothing, and
  an inflation bomb is refused before it inflates, by the function and
  by a manager, which then pulls in full.
"""

import random
import tracemalloc
import zlib

import pytest

from repro.archive import chunks
from repro.archive import gz as gz_module
from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.chunks import decode_ops, encode_ops
from repro.archive.gz import (
    gzip_compress,
    gzip_compress_cached,
    gzip_compress_cached_with_cost,
    gzip_decompress,
)
from repro.archive.index import IndexEntry, RepositoryIndex, parse_index_cached
from repro.core import delta as delta_module
from repro.core.delta import (
    apply_package_delta,
    blob_manifest,
    build_package_delta,
    package_full_envelope,
)
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import generate_keypair
from repro.ima.subsystem import ima_signature_for
from repro.osim.fs import SimFileSystem
from repro.osim.os import IntegrityEnforcedOS
from repro.osim.pkgdb import DB_PATH
from repro.osim.pkgmgr import InstallStats, PackageManager
from repro.scripts.interpreter import Interpreter
from repro.util import memo
from repro.util.errors import (
    DeltaError,
    IntegrityError,
    PackagingError,
    ScriptError,
    SignatureError,
)

KEY = generate_keypair(bits=1024, seed=71)
OTHER_KEY = generate_keypair(bits=1024, seed=72)
MUTATIONS = 50


def _traffic(table: str) -> tuple[int, int, int]:
    """Hits, misses and entries of one process-wide memo."""
    counts = memo.stats()[table]
    return counts["hits"], counts["misses"], counts["entries"]


def _base_catalog(rng: random.Random) -> list[ApkPackage]:
    packages = []
    for i in range(6):
        files = [PackageFile(f"/usr/bin/tool{i}",
                             rng.randbytes(rng.randint(800, 6000)))]
        files += [PackageFile(f"/usr/lib/tool{i}/lib{j}.so",
                              bytes([i, j]) * rng.randint(50, 400))
                  for j in range(3)]
        scripts = {}
        if i % 2 == 0:
            scripts = {".post-install": f"adduser -S svc{i}\n"}
        packages.append(ApkPackage(name=f"tool-{i}", version="1.0-r0",
                                   scripts=scripts, files=files))
    return packages


def _mutate(packages: list[ApkPackage], rng: random.Random,
            serial: int) -> list[ApkPackage]:
    """One publication step: bump a version, rewrite a payload, or add a
    package — the shapes the refresh rounds actually produce."""
    packages = list(packages)
    kind = rng.randrange(3)
    if kind == 0:  # version bump, identical payload (pure-memo repack)
        i = rng.randrange(len(packages))
        old = packages[i]
        packages[i] = ApkPackage(
            name=old.name, version=f"1.0-r{serial}", scripts=old.scripts,
            files=old.files)
    elif kind == 1:  # payload edit (partial memo reuse)
        i = rng.randrange(len(packages))
        old = packages[i]
        files = list(old.files)
        j = rng.randrange(len(files))
        files[j] = PackageFile(files[j].path,
                               files[j].content + rng.randbytes(64))
        packages[i] = ApkPackage(
            name=old.name, version=f"1.1-r{serial}", scripts=old.scripts,
            files=files)
    else:  # new package
        packages.append(ApkPackage(
            name=f"extra-{serial}", version="0.1-r0",
            files=[PackageFile(f"/opt/extra{serial}",
                               rng.randbytes(rng.randint(700, 3000)))]))
    return packages


def _publish(packages: list[ApkPackage], serial: int) -> tuple[list, bytes]:
    """Build every apk and the signed index over them, as the TSR does."""
    blobs = [pkg.build(KEY, key_name="tsr") for pkg in packages]
    index = RepositoryIndex(serial=serial)
    for pkg, blob in zip(packages, blobs):
        index.add(IndexEntry(name=pkg.name, version=pkg.version,
                             size=len(blob), sha256=sha256_hex(blob)))
    index.sign(KEY)
    return blobs, index.to_bytes()


class TestIncrementalRepackDifferential:
    def test_fifty_mutations_byte_identical_to_cold(self):
        """Warm-memo publication of 50 mutated catalogs == cold rebuild."""
        rng = random.Random(2020)
        packages = _base_catalog(rng)
        catalogs = [packages]
        for serial in range(1, MUTATIONS):
            catalogs.append(_mutate(catalogs[-1], rng, serial))

        # Warm pass: memos accumulate across publications, exactly as the
        # refresh orchestrator reuses them across rounds.
        warm = [_publish(cat, serial) for serial, cat in enumerate(catalogs)]

        # Cold pass: every publication rebuilt from scratch.
        cold = []
        for serial, cat in enumerate(catalogs):
            memo.clear_all()
            cold.append(_publish(cat, serial))

        for (warm_blobs, warm_index), (cold_blobs, cold_index) in zip(
                warm, cold):
            assert warm_blobs == cold_blobs
            assert warm_index == cold_index

    def test_warm_blobs_still_verify_and_parse(self):
        rng = random.Random(7)
        packages = _mutate(_base_catalog(rng), rng, serial=1)
        blobs, index_bytes = _publish(packages, serial=1)
        public = KEY.public_key
        for pkg, blob in zip(packages, blobs):
            parsed = ApkPackage.parse(blob)
            signer, _ = parsed.verify_with_cost([public])
            assert signer is public
        restored = RepositoryIndex.from_bytes(index_bytes)
        assert restored.verify(public)


class TestMemoizedVerifyEquivalence:
    def test_memo_hit_matches_fresh_verdict(self):
        public = KEY.public_key
        message = b"signed index body"
        signature = KEY.sign(message)
        fresh, cost = public.verify_with_cost(message, signature)
        hit, hit_cost = public.verify_with_cost(message, signature)
        assert fresh is True and hit is True
        # Memo hits replay the measured cost of the original verdict so
        # enclave-time charging stays faithful.
        assert hit_cost == cost

    def test_tamper_after_prior_success_still_fails(self):
        """The attack the memo must not enable: verify a good signature
        (priming the cache), then flip bits in it — the tampered bytes
        must be re-verified, and must fail."""
        public = KEY.public_key
        message = b"index body under attack"
        signature = KEY.sign(message)
        assert public.verify(message, signature)
        for pos in (0, len(signature) // 2, len(signature) - 1):
            tampered = bytearray(signature)
            tampered[pos] ^= 0x41
            assert not public.verify(message, bytes(tampered))

    def test_cross_message_aliasing_rejected(self):
        public = KEY.public_key
        sig_a = KEY.sign(b"message a")
        assert public.verify(b"message a", sig_a)
        assert not public.verify(b"message b", sig_a)

    def test_sign_memo_reproduces_bytes(self):
        first, _ = KEY.sign_with_cost(b"deterministic pkcs1 v1.5")
        second, _ = KEY.sign_with_cost(b"deterministic pkcs1 v1.5")
        assert first == second
        assert KEY.public_key.verify(b"deterministic pkcs1 v1.5", first)

    def test_sign_memo_hit_replays_cost(self):
        signature, cost = KEY.sign_with_cost(b"charged once, replayed after")
        hit, hit_cost = KEY.sign_with_cost(b"charged once, replayed after")
        assert hit == signature
        assert cost > 0.0
        assert hit_cost == cost

    def test_verify_memo_scoped_to_public_key(self):
        """A verdict cached under one key never answers for another key
        of the same size."""
        message = b"index body, two tenants"
        signature = KEY.sign(message)
        assert KEY.public_key.verify(message, signature)
        assert OTHER_KEY.public_key.size_bytes == KEY.public_key.size_bytes
        assert not OTHER_KEY.public_key.verify(message, signature)

    def test_sign_memo_scoped_to_private_key(self):
        message = b"same digest, different tenant key"
        mine, theirs = KEY.sign(message), OTHER_KEY.sign(message)
        assert mine != theirs
        assert KEY.public_key.verify(message, mine)
        assert not KEY.public_key.verify(message, theirs)
        assert OTHER_KEY.public_key.verify(message, theirs)


class TestCompressMemoEquivalence:
    DATA = bytes(range(256)) * 400

    def test_hit_matches_fresh_deflate_and_replays_cost(self):
        memo.clear_all()
        compressed, cost = gzip_compress_cached_with_cost(self.DATA, 6)
        assert compressed == gzip_compress(self.DATA, 6)
        # Cost honesty: the recorded cost is the measured deflate time,
        # and a hit charges exactly that time again.
        assert cost > 0.0
        assert gzip_compress_cached_with_cost(self.DATA, 6) == \
            (compressed, cost)

    def test_levels_are_separate_entries(self):
        memo.clear_all()
        fast = gzip_compress_cached(self.DATA, 1)
        best = gzip_compress_cached(self.DATA, 9)
        assert fast == gzip_compress(self.DATA, 1)
        assert best == gzip_compress(self.DATA, 9)
        assert fast != best

    def test_cleared_memo_recompresses_identically(self):
        warm = gzip_compress_cached(self.DATA, 6)
        memo.clear_all()
        cold, cost = gzip_compress_cached_with_cost(self.DATA, 6)
        assert cold == warm
        assert cost > 0.0
        assert gzip_decompress(cold) == self.DATA


def _flip_first_literal(envelope: bytes) -> bytes:
    """A ``pdelta`` envelope with one bit of its first literal flipped: it
    still decodes, and only the final hash check can catch it."""
    header, _, inner_gz = envelope.partition(b"\n")
    inner = gzip_decompress(inner_gz)
    ops_at = 0
    for _ in ("signature", "control"):
        newline = inner.index(b"\n", ops_at)
        ops_at = newline + 1 + int(inner[ops_at + 2:newline])
    ops = decode_ops(inner[ops_at:])
    at = next(i for i, (kind, _) in enumerate(ops) if kind == "literal")
    literal = ops[at][1]
    ops[at] = ("literal", bytes([literal[0] ^ 0x01]) + literal[1:])
    return header + b"\n" + gzip_compress(inner[:ops_at] + encode_ops(ops))


def _inflating(envelope: bytes, size: int | None = None) -> bytes:
    """``envelope``'s header, declaring ``size`` bytes if given, over a
    64 KB gzip member of 64 MiB of zeros, deflated a MiB at a time."""
    target = envelope.partition(b"\n")[0]
    if size is not None:
        target = target.rpartition(b":")[0] + b":%d" % size
    deflate = zlib.compressobj(9, zlib.DEFLATED, 31)
    zeros = bytes(1 << 20)
    member = b"".join(deflate.compress(zeros) for _ in range(64))
    return target + b"\n" + member + deflate.flush()


class TestDeltaReconstructionThroughMemo:
    """Client-side delta reconstruction re-deflates the patched data tar
    through the compress memo that the target's build already filled."""

    def _pair(self) -> tuple[bytes, bytes, bytes]:
        """(base blob, target blob, pdelta envelope); building the target
        leaves its data segment's deflate in a freshly cleared memo."""
        memo.clear_all()
        payload = random.Random("memo-delta").randbytes(24 * 1024)
        base = ApkPackage(name="tool", version="1.0-r0", files=[
            PackageFile("/usr/bin/tool", payload)]).build(KEY)
        patched = payload[:9000] + b"patched release" + payload[9000:]
        target = ApkPackage(name="tool", version="1.0-r1", files=[
            PackageFile("/usr/bin/tool", patched)]).build(KEY)
        envelope = build_package_delta(blob_manifest(base), target)
        assert envelope is not None
        return base, target, envelope

    @staticmethod
    def _count_deflates(monkeypatch) -> list[int]:
        calls: list[int] = []

        def counting(data, level=6):
            calls.append(len(data))
            return gzip_compress(data, level)

        monkeypatch.setattr(gz_module, "gzip_compress", counting)
        monkeypatch.setattr(delta_module, "gzip_compress", counting)
        return calls

    def test_cold_and_warm_memo_reconstruct_identical_bytes(self):
        base, target, envelope = self._pair()
        memo.clear_all()
        cold = apply_package_delta(base, envelope, sha256_hex(base))
        warm = apply_package_delta(base, envelope, sha256_hex(base))
        assert cold == warm == target

    def test_warm_memo_reconstruction_deflates_nothing(self, monkeypatch):
        base, target, envelope = self._pair()
        calls = self._count_deflates(monkeypatch)
        assert apply_package_delta(base, envelope, sha256_hex(base)) == target
        assert calls == []

    def test_flipped_literal_byte_misses_memo_and_fails(self, monkeypatch):
        base, target, envelope = self._pair()
        tampered = _flip_first_literal(envelope)
        calls = self._count_deflates(monkeypatch)
        with pytest.raises(DeltaError):
            apply_package_delta(base, tampered, sha256_hex(base))
        assert len(calls) == 1  # the tampered data tar missed the memo
        assert apply_package_delta(base, envelope, sha256_hex(base)) == target
        assert len(calls) == 1


class TestKeypairMemo:
    def test_seeded_keypair_regenerates_identically(self):
        first = generate_keypair(bits=512, seed=4242)
        memo.clear_all()
        again = generate_keypair(bits=512, seed=4242)
        assert again is not first
        assert (again.n, again.e, again.d, again.p, again.q) == \
            (first.n, first.e, first.d, first.p, first.q)
        assert generate_keypair(bits=512, seed=4242) is again

    def test_unseeded_keypairs_are_fresh(self):
        before = _traffic("crypto.rsa.keygen")
        a, b = generate_keypair(bits=512), generate_keypair(bits=512)
        assert a.n != b.n
        assert _traffic("crypto.rsa.keygen") == before


class TestIndexParseMemo:
    def _index_bytes(self) -> bytes:
        index = RepositoryIndex(serial=5)
        index.add(IndexEntry(name="musl", version="1.2-r0", size=10,
                             sha256="ab" * 32))
        index.sign(KEY)
        return index.to_bytes()

    def test_hit_is_a_private_copy(self):
        blob = self._index_bytes()
        first = parse_index_cached(blob)
        first.add(IndexEntry(name="injected", version="1-r0", size=1,
                             sha256="cd" * 32))
        again = parse_index_cached(blob)
        assert len(again.entries) == 1
        assert again.to_bytes() == blob
        assert again.verify(KEY.public_key)

    def test_parse_failure_is_not_cached(self):
        blob = b"no signature header\nserial:1\n"
        hits, misses, entries = _traffic("archive.index.parse")
        for _ in range(2):
            with pytest.raises(PackagingError):
                parse_index_cached(blob)
        assert _traffic("archive.index.parse") == (hits, misses + 2, entries)


class TestChunkerEngineDifferential:
    def test_offsets_memo_transparent(self):
        rng = random.Random(47)
        data = rng.randbytes(20_000)
        memo.clear_all()
        cold = chunks.chunk_offsets(data)
        warm = chunks.chunk_offsets(data)
        assert warm == cold
        expected = list(cold)
        # Callers get a copy, on a miss and on a hit, not the memo entry.
        cold.append((0, 0))
        warm.append((1, 1))
        assert chunks.chunk_offsets(data) == expected


# -- client install memos ------------------------------------------------------


class _Repository:
    """In-memory repository client serving full blobs and package deltas;
    ``corrupt`` (if set) rewrites every delta envelope it serves."""

    def __init__(self, index_key):
        self._index_key = index_key
        self._index = RepositoryIndex(serial=0)
        self._blobs: dict[str, bytes] = {}
        self._by_digest: dict[str, bytes] = {}
        self.corrupt = None

    def publish_blob(self, name: str, version: str, blob: bytes,
                     depends=()):
        self._blobs[name] = blob
        self._by_digest[sha256_hex(blob)] = blob
        self._index.add(IndexEntry(name=name, version=version,
                                   size=len(blob), sha256=sha256_hex(blob),
                                   depends=tuple(depends)))
        self._index.serial += 1
        self._index.sign(self._index_key)

    def publish(self, package: ApkPackage) -> bytes:
        blob = package.build(KEY)
        self.publish_blob(package.name, package.version, blob,
                          package.depends)
        return blob

    def serve_instead(self, name: str, blob: bytes):
        """Answer downloads of ``name`` with ``blob`` (index unchanged)."""
        self._blobs[name] = blob

    def fetch_index(self) -> bytes:
        return self._index.to_bytes()

    def fetch_package(self, name: str) -> bytes:
        return self._blobs[name]

    def fetch_package_delta(self, name: str, base_sha256: str) -> bytes:
        target = self._blobs[name]
        base = self._by_digest.get(base_sha256)
        envelope = None
        if base is not None:
            envelope = build_package_delta(blob_manifest(base), target)
        if envelope is None:
            return package_full_envelope("unknown-base", target)
        return self.corrupt(envelope) if self.corrupt else envelope


def _tool(version: str, payload: bytes, hook: str | None = None,
          depends=()) -> ApkPackage:
    files = [PackageFile("/usr/bin/tool", payload, mode=0o755,
                         ima_signature=ima_signature_for(payload, KEY)),
             PackageFile("/etc/tool.conf", b"level=" + version.encode())]
    scripts = {".post-install": hook} if hook else {}
    return ApkPackage(name="tool", version=version, files=files,
                      scripts=scripts, depends=list(depends))


def _node(name: str, repo: _Repository, trusted=None,
          delta_updates: bool = False) -> PackageManager:
    node = IntegrityEnforcedOS(name)
    node.boot()
    manager = PackageManager(node, repo,
                             trusted_keys=trusted or [KEY.public_key],
                             delta_updates=delta_updates)
    manager.update()
    return manager


def _node_state(manager: PackageManager) -> dict:
    """Every file's bytes, mode and xattrs (the package database too),
    read without firing the IMA open hooks."""
    fs = manager._node.fs
    return {path: (fs._walk_to(path).content, fs.file_mode(path),
                   fs.list_xattrs(path))
            for path in fs.walk_files()}


PKG_PARSE = "osim.pkgmgr.parse"
AST = "scripts.interpreter.ast"
BASE_CHUNKS = "core.delta.base_chunks"
APPLY = "core.delta.package_apply"


class TestVerifiedParseMemo:
    PAYLOAD = random.Random("parse-memo").randbytes(6000)

    def test_hit_is_a_private_copy(self):
        repo = _Repository(KEY)
        blob = repo.publish(_tool("1.0-r0", self.PAYLOAD,
                                  hook="mkdir -p /var/lib/tool\n"))
        manager = _node("copy", repo)
        entry = manager.index.get("tool")
        first = manager._download_verified(entry, InstallStats())
        hits, misses, _ = _traffic(PKG_PARSE)
        first.package.files[0].content = b"poisoned"
        first.package.files.append(PackageFile("/etc/injected", b"x"))
        first.package.scripts[".post-install"] = "rm -rf /\n"
        second = manager._download_verified(entry, InstallStats())
        assert _traffic(PKG_PARSE)[:2] == (hits + 1, misses)
        assert second.package == ApkPackage.parse(blob).package
        manager.install("tool")
        fs = manager._node.fs
        assert fs._walk_to("/usr/bin/tool").content == self.PAYLOAD
        assert not fs.exists("/etc/injected")
        assert fs.isdir("/var/lib/tool")

    def test_memo_hit_still_checks_this_managers_keyring(self):
        """The blob is signed by KEY; the B manager trusts only OTHER_KEY
        and must refuse it even though the A manager's install left its
        parse in the memo."""
        blob = _tool("1.0-r0", self.PAYLOAD).build(KEY)
        repo_a, repo_b = _Repository(KEY), _Repository(OTHER_KEY)
        for repo in (repo_a, repo_b):
            repo.publish_blob("tool", "1.0-r0", blob)
        manager_a = _node("trusts-a", repo_a, trusted=[KEY.public_key])
        manager_a.install("tool")
        hits, misses, _ = _traffic(PKG_PARSE)
        manager_b = _node("trusts-b", repo_b, trusted=[OTHER_KEY.public_key])
        with pytest.raises(SignatureError):
            manager_b.install("tool")
        assert _traffic(PKG_PARSE)[:2] == (hits + 1, misses)
        assert manager_b._node.pkgdb.get("tool") is None

    @pytest.mark.usefixtures("cold_memos")
    def test_altered_blob_fails_the_index_hash_before_any_lookup(self):
        repo = _Repository(KEY)
        blob = repo.publish(_tool("1.0-r0", self.PAYLOAD))
        _node("warm", repo).install("tool")
        assert _traffic(PKG_PARSE)[2] == 1  # the genuine parse is held
        altered = bytearray(blob)
        altered[len(blob) // 2] ^= 0x01
        repo.serve_instead("tool", bytes(altered))
        manager = _node("victim", repo)
        before = _traffic(PKG_PARSE)
        with pytest.raises(IntegrityError, match="content hash"):
            manager.install("tool")
        assert _traffic(PKG_PARSE) == before

    def test_parse_failure_is_not_cached(self):
        repo = _Repository(KEY)
        garbage = b"\x1f\x8b not an apk at all"
        repo.publish_blob("tool", "1.0-r0", garbage)
        manager = _node("garbage", repo)
        hits, misses, entries = _traffic(PKG_PARSE)
        for _ in range(2):
            with pytest.raises(PackagingError):
                manager.install("tool")
        assert _traffic(PKG_PARSE) == (hits, misses + 2, entries)


class TestScriptAstMemo:
    def test_parse_failure_raises_every_run_and_is_not_cached(self):
        source = "#!/bin/sh\nif test -f /etc/motd\necho missing then\n"
        hits, misses, entries = _traffic(AST)
        for _ in range(2):
            with pytest.raises(ScriptError):
                Interpreter(SimFileSystem()).run(source)
        assert _traffic(AST) == (hits, misses + 2, entries)

    def test_shared_ast_runs_independently_per_host(self):
        source = ("#!/bin/sh\n"
                  "if test -f /etc/flag; then echo flagged > /out\n"
                  "else echo clean > /out; fi\n"
                  "echo done\n")
        flagged, clean = SimFileSystem(), SimFileSystem()
        flagged.write_file("/etc/flag", b"")
        first = Interpreter(flagged).run(source)
        hits, misses, _ = _traffic(AST)
        second = Interpreter(clean).run(source)
        assert _traffic(AST)[:2] == (hits + 1, misses)  # the shared AST
        assert flagged.read_file("/out") == b"flagged\n"
        assert clean.read_file("/out") == b"clean\n"
        assert not clean.exists("/etc/flag")
        assert first.stdout == second.stdout == "done\n"
        again = Interpreter(flagged).run(source)
        assert flagged.read_file("/out") == b"flagged\n"
        assert again == first


class TestBaseChunkMapMemo:
    def _pair(self) -> tuple[bytes, bytes, bytes]:
        payload = random.Random("chunk-map-memo").randbytes(24 * 1024)
        base = _tool("1.0-r0", payload).build(KEY)
        target = _tool("1.0-r1", payload[:7000] + b"patch"
                       + payload[7000:]).build(KEY)
        envelope = build_package_delta(blob_manifest(base), target)
        assert envelope is not None
        return base, target, envelope

    def test_cold_and_warm_reconstruction_byte_identical(self):
        """A repeat of (base, envelope) hits the apply memo and leaves the
        chunk map alone; another envelope over the same base misses the
        apply memo and finds the base's chunk map."""
        base, target, envelope = self._pair()
        payload, = (f.content for f in ApkPackage.parse(base).package.files
                    if f.path == "/usr/bin/tool")
        other = _tool("1.0-r2", payload + b"again").build(KEY)
        other_envelope = build_package_delta(blob_manifest(base), other)
        memo.clear_all()
        chunk_hits, chunk_misses, _ = _traffic(BASE_CHUNKS)
        hits, misses, _ = _traffic(APPLY)
        cold = apply_package_delta(base, envelope, sha256_hex(base))
        warm = apply_package_delta(base, envelope, sha256_hex(base))
        assert cold == warm == target
        assert _traffic(APPLY) == (hits + 1, misses + 1, 1)
        assert _traffic(BASE_CHUNKS) == (chunk_hits, chunk_misses + 1, 1)
        assert apply_package_delta(base, other_envelope,
                                   sha256_hex(base)) == other
        assert _traffic(APPLY) == (hits + 1, misses + 2, 2)
        assert _traffic(BASE_CHUNKS) == (chunk_hits + 1, chunk_misses + 1, 1)

    def test_tampered_delta_after_warm_hit_still_fails(self):
        base, target, envelope = self._pair()
        assert apply_package_delta(base, envelope, sha256_hex(base)) == target
        with pytest.raises(DeltaError):
            apply_package_delta(base, _flip_first_literal(envelope),
                                sha256_hex(base))
        assert apply_package_delta(base, envelope, sha256_hex(base)) == target

    def test_manager_recovers_through_a_full_pull(self):
        payload = random.Random("chunk-map-recovery").randbytes(24 * 1024)
        repo = _Repository(KEY)
        repo.publish(_tool("1.0-r0", payload))
        honest = _node("honest", repo, delta_updates=True)
        victim = _node("victim", repo, delta_updates=True)
        honest.install("tool")
        victim.install("tool")
        repo.publish(_tool("1.0-r1", payload[:9000] + b"fix"
                           + payload[9000:]))
        honest.update()
        honest.upgrade_all()  # fills the memo with the shared base
        assert honest.delta_stats.package_deltas == 1
        repo.corrupt = _flip_first_literal
        victim.update()
        victim.upgrade_all()
        assert victim.delta_stats.package_rejected == 1
        assert victim.delta_stats.package_full == {"no-base": 1,
                                                   "rejected": 1}
        assert _node_state(victim) == _node_state(honest)


def _peak_bytes(call) -> int:
    """The most memory ``call()`` held at once, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPackageApplyMemo:
    PAYLOAD = random.Random("apply-memo").randbytes(24 * 1024)

    def _pair(self) -> tuple[bytes, bytes, bytes]:
        base = _tool("1.0-r0", self.PAYLOAD).build(KEY)
        target = _tool("1.0-r1", self.PAYLOAD[:5000] + b"edit"
                       + self.PAYLOAD[5000:]).build(KEY)
        envelope = build_package_delta(blob_manifest(base), target)
        assert envelope is not None
        return base, target, envelope

    def test_warm_hit_returns_the_cold_bytes(self):
        base, target, envelope = self._pair()
        memo.clear_all()
        cold = apply_package_delta(base, envelope, sha256_hex(base))
        hits, misses, entries = _traffic(APPLY)
        warm = apply_package_delta(base, envelope, sha256_hex(base))
        assert warm is cold and cold == target
        assert _traffic(APPLY) == (hits + 1, misses, entries)

    @pytest.mark.parametrize("spoil", [
        _flip_first_literal, lambda envelope: envelope[:-8], _inflating,
    ], ids=["tampered", "truncated", "over-inflating"])
    def test_a_failing_envelope_raises_every_call_and_stores_nothing(
            self, spoil):
        """The over-inflating envelope is 64 KB that inflate to 64 MiB,
        for a 25 KB target: being no shorter than its target, it is
        refused before it inflates."""
        base, target, envelope = self._pair()
        spoiled = spoil(envelope)
        hits, misses, entries = _traffic(APPLY)

        def apply():
            with pytest.raises(DeltaError):
                apply_package_delta(base, spoiled, sha256_hex(base))

        assert _peak_bytes(apply) < 4 << 20
        apply()
        assert _traffic(APPLY) == (hits, misses + 2, entries)
        assert apply_package_delta(base, envelope, sha256_hex(base)) == target

    @pytest.mark.parametrize("declared", [None, 1 << 30],
                             ids=["signed-size", "other-size"])
    def test_manager_refuses_a_bomb_and_pulls_in_full(self, declared):
        """Declaring the signed size, the bomb is no shorter than its
        target; declaring a larger one, it is not the signed package.
        Either way the manager inflates nothing, counts a rejected delta
        and installs the signed bytes through one full pull."""
        repo = _Repository(KEY)
        repo.publish(_tool("1.0-r0", self.PAYLOAD))
        manager = _node("victim", repo, delta_updates=True)
        manager.install("tool")
        repo.publish(_tool("1.0-r1", self.PAYLOAD + b"fix"))
        manager.update()
        repo.corrupt = lambda envelope: _inflating(envelope, declared)
        assert _peak_bytes(manager.upgrade_all) < 4 << 20
        assert manager.delta_stats.package_rejected == 1
        assert manager.delta_stats.package_full == {"no-base": 1,
                                                    "rejected": 1}
        entry = manager.index.get("tool")
        assert manager._node.pkgdb.get("tool").content_hash == entry.sha256


class TestClientMemoDifferential:
    """A catalog installed and upgraded on several nodes with the client
    memos live must leave exactly the state of installs that each start
    from empty memos."""

    NODES = 4

    def _catalog(self, version: int) -> list[ApkPackage]:
        rng = random.Random(f"fleet-catalog-{version // 2}")
        packages = []
        for i in range(4):
            payload = rng.randbytes(12_000)
            if version:
                payload = payload[:4000] + b"r%d" % version + payload[4000:]
            files = [PackageFile(f"/usr/bin/app{i}", payload, mode=0o755,
                                 ima_signature=ima_signature_for(payload,
                                                                 KEY)),
                     PackageFile(f"/etc/app{i}.conf", b"v%d\n" % version)]
            scripts = {".post-install":
                       f"#!/bin/sh\naddgroup -S grp{i}\n"
                       f"adduser -S -G grp{i} svc{i}\n"
                       f"mkdir -p /var/lib/app{i}\n",
                       ".post-upgrade":
                       f"#!/bin/sh\necho upgraded >> /var/lib/app{i}/log\n"}
            depends = [f"app-{i - 1}"] if i else []
            packages.append(ApkPackage(name=f"app-{i}",
                                       version=f"1.{version}-r0",
                                       files=files, scripts=scripts,
                                       depends=depends))
        return packages

    def _fleet(self, cold: bool) -> list[dict]:
        memo.clear_all()
        repo = _Repository(KEY)
        for package in self._catalog(0):
            repo.publish(package)
        managers = [_node(f"node{i}", repo, delta_updates=True)
                    for i in range(self.NODES)]
        for manager in managers:
            for name in ("app-3", "app-1"):
                if cold:
                    memo.clear_all()
                manager.install(name)
        for package in self._catalog(1):
            repo.publish(package)
        for manager in managers:
            manager.update()
            for entry in manager.available_upgrades():
                if cold:
                    memo.clear_all()
                manager.install(entry.name)
        assert all(m.delta_stats.package_deltas == 4 for m in managers)
        return [_node_state(manager) for manager in managers]

    def test_live_memos_leave_the_cold_state(self):
        warm = self._fleet(cold=False)
        # Live memos: one parse per distinct blob, one chunk map per base.
        assert [_traffic(table)[2] for table in (PKG_PARSE, BASE_CHUNKS,
                                                 AST)] == [8, 4, 8]
        cold = self._fleet(cold=True)
        assert warm == cold
        for state in warm:
            assert state[DB_PATH] == warm[0][DB_PATH]
            assert state["/usr/bin/app2"][2]["security.ima"]
            assert b"svc3" in state["/etc/passwd"][0]
