"""Differential suites pinning the host-time fast paths byte-identical.

The raw-speed pass (memoized crypto, incremental repack, vectorized
chunker and solver) is only admissible if every fast path is
*indistinguishable* from the cold path it replaces.  These tests are the
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
* **Solver engines** — the numpy vectorized core vs the pure-Python
  incremental solver vs the dense reference, across fleet shapes.
* **Chunker engines** — the vectorized steady-state gear scan vs the
  scalar rolling loop, on random, adversarial, and odd-parameter inputs.
"""

import os
import random

import pytest

from repro.archive import chunks
from repro.archive import index as index_module
from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.gz import (
    clear_compress_memo,
    gzip_compress,
    gzip_compress_cached,
    gzip_compress_cached_with_cost,
    gzip_decompress,
)
from repro.archive.index import IndexEntry, RepositoryIndex, parse_index_cached
from repro.crypto import rsa
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import generate_keypair
from repro.simnet.schedule import ParallelTransferSchedule
from repro.simnet.schedule import _np as solver_np
from repro.util.errors import PackagingError

KEY = generate_keypair(bits=1024, seed=71)
OTHER_KEY = generate_keypair(bits=1024, seed=72)
MUTATIONS = 50


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
            clear_compress_memo()
            chunks.clear_chunk_memo()
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
        clear_compress_memo()
        compressed, cost = gzip_compress_cached_with_cost(self.DATA, 6)
        assert compressed == gzip_compress(self.DATA, 6)
        # Cost honesty: the recorded cost is the measured deflate time,
        # and a hit charges exactly that time again.
        assert cost > 0.0
        assert gzip_compress_cached_with_cost(self.DATA, 6) == \
            (compressed, cost)

    def test_levels_are_separate_entries(self):
        clear_compress_memo()
        fast = gzip_compress_cached(self.DATA, 1)
        best = gzip_compress_cached(self.DATA, 9)
        assert fast == gzip_compress(self.DATA, 1)
        assert best == gzip_compress(self.DATA, 9)
        assert fast != best

    def test_cleared_memo_recompresses_identically(self):
        warm = gzip_compress_cached(self.DATA, 6)
        clear_compress_memo()
        cold, cost = gzip_compress_cached_with_cost(self.DATA, 6)
        assert cold == warm
        assert cost > 0.0
        assert gzip_decompress(cold) == self.DATA


class TestKeypairMemo:
    def test_seeded_keypair_regenerates_identically(self):
        first = generate_keypair(bits=512, seed=4242)
        rsa._KEYPAIR_MEMO.pop((512, 4242))
        again = generate_keypair(bits=512, seed=4242)
        assert again is not first
        assert (again.n, again.e, again.d, again.p, again.q) == \
            (first.n, first.e, first.d, first.p, first.q)
        assert generate_keypair(bits=512, seed=4242) is again

    def test_unseeded_keypairs_are_fresh(self):
        before = len(rsa._KEYPAIR_MEMO)
        a, b = generate_keypair(bits=512), generate_keypair(bits=512)
        assert a.n != b.n
        assert len(rsa._KEYPAIR_MEMO) == before


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
        for _ in range(2):
            with pytest.raises(PackagingError):
                parse_index_cached(blob)
        assert blob not in index_module._PARSE_MEMO


def _fleet(channels: int, items: int, seed: int) -> ParallelTransferSchedule:
    rng = random.Random(seed)
    schedule = ParallelTransferSchedule(
        downlink_bandwidth=100 * 1024 * 1024)
    for c in range(channels):
        channel = f"c{c:04d}"
        if rng.random() < 0.7:
            schedule.limit_channel(channel,
                                   rng.choice((1, 2, 4, 8)) * 1024 * 1024)
        for i in range(items):
            schedule.enqueue(channel, (channel, i),
                             setup=rng.random() * 0.05,
                             size_bytes=rng.randint(5_000, 400_000),
                             bandwidth=3 * 1024 * 1024)
    return schedule


@pytest.mark.skipif(solver_np is None, reason="numpy unavailable")
class TestSolverEngineDifferential:
    SHAPES = [(1, 500, 1), (2, 200, 3), (3, 64, 5), (4, 1000, 1)]

    def _solve_with_engine(self, schedule, engine, monkeypatch):
        if engine is None:
            monkeypatch.delenv("REPRO_SOLVER", raising=False)
        else:
            monkeypatch.setenv("REPRO_SOLVER", engine)
        return schedule.solve()

    @pytest.mark.parametrize("seed,channels,items", SHAPES)
    def test_numpy_matches_pure(self, seed, channels, items, monkeypatch):
        pure = self._solve_with_engine(
            _fleet(channels, items, seed), None, monkeypatch)
        fast = self._solve_with_engine(
            _fleet(channels, items, seed), "numpy", monkeypatch)
        assert pure.keys() == fast.keys()
        worst = max(max(abs(pure[k].start - fast[k].start),
                        abs(pure[k].finish - fast[k].finish))
                    for k in pure)
        assert worst < 1e-9

    def test_numpy_matches_reference(self, monkeypatch):
        schedule = _fleet(300, 2, seed=9)
        reference = schedule.solve_reference()
        monkeypatch.setenv("REPRO_SOLVER", "numpy")
        fast = _fleet(300, 2, seed=9).solve()
        worst = max(max(abs(reference[k].start - fast[k].start),
                        abs(reference[k].finish - fast[k].finish))
                    for k in reference)
        assert worst < 1e-6


class TestChunkerEngineDifferential:
    def _cases(self):
        rng = random.Random(41)
        cases = [
            rng.randbytes(40_000),                    # generic random blob
            bytes(64_000),                            # zero run (no cuts)
            b"\x00\xff" * 32_000,                     # two-byte period
            rng.randbytes(1_000) * 48,                # long repeated period
            rng.randbytes(chunks._NUMPY_THRESHOLD),   # exactly at threshold
            rng.randbytes(chunks._NUMPY_THRESHOLD + 1),
        ]
        # Blobs stitched so boundary candidates crowd the warm window.
        probe = rng.randbytes(30_000)
        cases.append(probe + probe[:500] + probe)
        return cases

    @pytest.mark.skipif(chunks._np is None, reason="numpy unavailable")
    def test_vector_matches_scalar(self):
        for data in self._cases():
            scalar = chunks._chunk_offsets_scalar(
                data, chunks.MIN_CHUNK, chunks.MAX_CHUNK, chunks._MASK)
            vector = chunks._chunk_offsets_vector(
                data, chunks.MIN_CHUNK, chunks.MAX_CHUNK, chunks._MASK)
            assert vector == scalar

    @pytest.mark.skipif(chunks._np is None, reason="numpy unavailable")
    def test_vector_matches_scalar_odd_params(self):
        rng = random.Random(43)
        data = rng.randbytes(50_000)
        for min_size, max_size, mask in (
                (1, 17, 0x3),          # tiny windows, dense cuts
                (64, 65, 0xff),        # max barely above min
                (100, 10_000, 0x1),    # near-every-byte boundary fire
                (512, 4096, (1 << 13) - 1),  # sparse cuts, long chunks
                (2000, 3000, 0x7ff)):
            scalar = chunks._chunk_offsets_scalar(
                data, min_size, max_size, mask)
            vector = chunks._chunk_offsets_vector(
                data, min_size, max_size, mask)
            assert vector == scalar, (min_size, max_size, mask)

    def test_offsets_memo_transparent(self):
        rng = random.Random(47)
        data = rng.randbytes(20_000)
        chunks.clear_chunk_memo()
        cold = chunks.chunk_offsets(data)
        warm = chunks.chunk_offsets(data)
        assert warm == cold
        warm.append((0, 0))  # callers get a copy, not the memo entry
        assert chunks.chunk_offsets(data) == cold
