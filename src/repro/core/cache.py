"""TSR's on-disk package cache (paper section 5.5).

The cache lives on the *untrusted* local disk of the machine hosting TSR:
an adversary with root can read, replace, or roll back its contents at
will.  TSR therefore treats cache reads as untrusted input — before serving
a cached sanitized package, the enclave re-checks its hash against the
in-enclave sanitized index (see :mod:`repro.core.program`).

Both the original upstream blob and the sanitized blob are cached: the
former avoids re-downloading on re-sanitization, the latter turns a
download request into a disk read (Fig. 10's 129x).

Sharding: package blobs are spread over ``shards`` independent stores
(hash of ``repo_id/name``), so the overlapped refresh can account
concurrent reads and writes on different shards as overlapping — a lookup
no longer serializes behind an insert hitting another shard.  Shard 0's
filesystem doubles as the root ``disk`` holding non-package state (the
sealed freshness file), which keeps the single-disk layout of the paper's
deployment observable to tests.

Content-addressed store: alongside the per-repo named entries, blobs can
be stored under their SHA-256 (``put_content``/``get_content``).  This is
the dedupe substrate of the multi-tenant orchestrator
(:mod:`repro.core.orchestrator`): two tenant repositories whose quorum
indexes pin the same upstream blob resolve to one cached copy, so the
shared package is downloaded (and its bytes stored) once per TSR instead
of once per tenant.  Content entries shard by the blob hash.

Eviction: each shard optionally carries a byte budget
(``shard_budget_bytes``).  Inserts that push a shard over its budget evict
blobs until the shard fits again; the just-written blob itself is never
evicted, so a single oversized blob degrades the budget gracefully instead
of thrashing.  Only blobs the cache manages are eviction candidates —
non-package state on the root disk (e.g. the sealed freshness file) is
written directly via ``disk`` and never tracked.  Evictions are counted
per shard (:class:`ShardStats`), and the identities of evicted entries are
remembered so a later re-download caused by eviction can be surfaced in
refresh accounting (``RefreshReport.evicted_redownloads``):
``original_was_evicted`` / ``content_was_evicted`` pop the marker, so
each eviction is attributed at most once.

Eviction policy: the default, ``policy="lru2"``, is a scan-resistant
LRU-2 (segmented LRU): a blob enters a per-shard *probation* queue on
first insert and is promoted to the *protected* queue on its second touch
(a read, or a re-write).  Victims come from the probation tail first, so
one tenant's long exclusive tail — touched exactly once during its own
refresh — cycles through probation without displacing the cross-tenant
content core, whose blobs every later refresh re-reads (and thereby
protects).  When probation is empty, the protected tail is evicted.
``policy="lru"`` keeps the plain single-queue LRU (reads and writes both
refresh recency) for comparison — the replay bench measures both
(EXPERIMENTS.md §7).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.hashes import sha256_bytes, sha256_hex  # noqa: F401
from repro.osim.fs import SimFileSystem
from repro.util.errors import FileSystemError

ORIGINAL_PREFIX = "/var/cache/tsr/original"
SANITIZED_PREFIX = "/var/cache/tsr/sanitized"
CONTENT_PREFIX = "/var/cache/tsr/content"
CHUNK_PREFIX = "/var/cache/tsr/chunks"

DEFAULT_SHARDS = 8


EVICTION_POLICIES = ("lru2", "lru")


@dataclass
class ShardStats:
    """Per-shard operation counters (reads include misses)."""

    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    #: Probation -> protected promotions (LRU-2 policy only).
    promotions: int = 0


class PackageCache:
    """Name- and content-addressed blob store over the untrusted host fs."""

    def __init__(self, disk: SimFileSystem | None = None,
                 shards: int = DEFAULT_SHARDS,
                 shard_budget_bytes: int | None = None,
                 policy: str = "lru2"):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1: {shards}")
        if shard_budget_bytes is not None and shard_budget_bytes <= 0:
            raise ValueError(
                f"shard budget must be positive: {shard_budget_bytes}"
            )
        if policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {policy!r} "
                f"(expected one of {EVICTION_POLICIES})"
            )
        self.disk = disk or SimFileSystem()
        self.policy = policy
        self._shards: list[SimFileSystem] = [self.disk]
        self._shards.extend(SimFileSystem() for _ in range(shards - 1))
        self._stats = [ShardStats() for _ in range(shards)]
        self._budget = shard_budget_bytes
        #: Per-shard recency queues of managed blobs: path -> size, oldest
        #: first.  Under "lru" only ``_probation`` is used (one plain LRU
        #: queue); under "lru2" a second touch moves a blob from
        #: ``_probation`` into ``_protected``.
        self._probation: list[OrderedDict[str, int]] = [
            OrderedDict() for _ in range(shards)
        ]
        self._protected: list[OrderedDict[str, int]] = [
            OrderedDict() for _ in range(shards)
        ]
        self._used = [0] * shards
        #: Paths evicted and not yet re-queried (re-download attribution).
        self._evicted_paths: set[str] = set()
        #: Chunk-manifest writes (kept out of :class:`ShardStats` — the
        #: shard counters feed the eviction experiments, and manifests
        #: are untracked metadata, not blob traffic).
        self.manifest_writes = 0

    @property
    def shard_budget_bytes(self) -> int | None:
        return self._budget

    def shard_index(self, repo_id: str, name: str) -> int:
        """Stable shard assignment for one package's blobs."""
        digest = sha256_bytes(f"{repo_id}/{name}".encode())
        return int.from_bytes(digest[:4], "big") % len(self._shards)

    def content_shard_index(self, sha256: str) -> int:
        """Stable shard assignment for one content-addressed blob."""
        return int(sha256[:8], 16) % len(self._shards)

    def shard_stats(self) -> list[ShardStats]:
        return list(self._stats)

    def _shard(self, repo_id: str, name: str) -> tuple[SimFileSystem, ShardStats]:
        index = self.shard_index(repo_id, name)
        return self._shards[index], self._stats[index]

    @staticmethod
    def _path(prefix: str, repo_id: str, name: str) -> str:
        return f"{prefix}/{repo_id}/{name}.apk"

    @staticmethod
    def _content_path(sha256: str) -> str:
        return f"{CONTENT_PREFIX}/{sha256}.blob"

    # -- recency bookkeeping (LRU / LRU-2) -----------------------------------

    def _track(self, shard_index: int, path: str, size: int):
        """Record a managed write and evict blobs past the budget.

        Under LRU-2 a first write lands in probation; a re-write of a
        tracked blob counts as its second touch and promotes it.
        """
        probation = self._probation[shard_index]
        protected = self._protected[shard_index]
        previous = probation.get(path, protected.get(path, 0))
        self._used[shard_index] += size - previous
        if path in protected:
            protected[path] = size
            protected.move_to_end(path)
        elif self.policy == "lru2" and path in probation:
            del probation[path]
            protected[path] = size
            self._stats[shard_index].promotions += 1
        else:
            probation[path] = size
            probation.move_to_end(path)
        self._evict(shard_index, keep=path)

    def _evict(self, shard_index: int, keep: str):
        """Sweep one shard down to its budget; never evicts ``keep``."""
        if self._budget is None:
            return
        shard = self._shards[shard_index]
        stats = self._stats[shard_index]
        probation = self._probation[shard_index]
        protected = self._protected[shard_index]
        while (self._used[shard_index] > self._budget
               and len(probation) + len(protected) > 1):
            # Probation tail first (scan resistance), then protected tail.
            victim = None
            for queue in (probation, protected):
                for candidate in queue:
                    if candidate != keep:
                        victim = (queue, candidate)
                        break
                    break  # ``keep`` is the queue's own LRU: try the other
                if victim is not None:
                    break
            if victim is None:
                # Only ``keep`` is left over budget: never self-evict.
                break
            queue, path = victim
            victim_size = queue.pop(path)
            self._used[shard_index] -= victim_size
            if shard.isfile(path):
                shard.remove(path)
            stats.evictions += 1
            stats.evicted_bytes += victim_size
            self._evicted_paths.add(path)

    def _touch(self, shard_index: int, path: str):
        probation = self._probation[shard_index]
        protected = self._protected[shard_index]
        if path in protected:
            protected.move_to_end(path)
        elif path in probation:
            if self.policy == "lru2":
                # Second touch: promote out of the probation queue.
                protected[path] = probation.pop(path)
                self._stats[shard_index].promotions += 1
            else:
                probation.move_to_end(path)

    def _untrack(self, shard_index: int, path: str):
        size = self._probation[shard_index].pop(path, None)
        if size is None:
            size = self._protected[shard_index].pop(path, None)
        if size is not None:
            self._used[shard_index] -= size
        self._evicted_paths.discard(path)

    def shard_used_bytes(self, shard_index: int) -> int:
        """Bytes of managed blobs currently held by one shard."""
        return self._used[shard_index]

    # -- eviction attribution ----------------------------------------------

    def original_was_evicted(self, repo_id: str, name: str) -> bool:
        """Was this original evicted since last asked?  Pops the marker."""
        return self._pop_evicted(self._path(ORIGINAL_PREFIX, repo_id, name))

    def content_was_evicted(self, sha256: str) -> bool:
        return self._pop_evicted(self._content_path(sha256))

    def _pop_evicted(self, path: str) -> bool:
        if path in self._evicted_paths:
            self._evicted_paths.discard(path)
            return True
        return False

    # -- originals ----------------------------------------------------------

    def put_original(self, repo_id: str, name: str, blob: bytes):
        index = self.shard_index(repo_id, name)
        self._stats[index].writes += 1
        path = self._path(ORIGINAL_PREFIX, repo_id, name)
        self._shards[index].write_file(path, blob)
        self._track(index, path, len(blob))

    def get_original(self, repo_id: str, name: str) -> bytes | None:
        return self._read(repo_id, name, ORIGINAL_PREFIX)

    def has_original(self, repo_id: str, name: str) -> bool:
        shard, _ = self._shard(repo_id, name)
        return shard.isfile(self._path(ORIGINAL_PREFIX, repo_id, name))

    # -- sanitized ------------------------------------------------------------

    def put_sanitized(self, repo_id: str, name: str, blob: bytes):
        index = self.shard_index(repo_id, name)
        self._stats[index].writes += 1
        path = self._path(SANITIZED_PREFIX, repo_id, name)
        self._shards[index].write_file(path, blob)
        self._track(index, path, len(blob))

    def get_sanitized(self, repo_id: str, name: str) -> bytes | None:
        return self._read(repo_id, name, SANITIZED_PREFIX)

    def peek_sanitized(self, repo_id: str, name: str) -> bytes | None:
        """Read a sanitized blob without refreshing recency or counters.

        A measurement tap for publication capture
        (:meth:`repro.core.service.TrustedSoftwareRepository.record_publication`):
        snapshotting the served state must not promote every blob into the
        protected queue, or eviction dynamics would no longer reflect the
        refresh/serving traffic the experiments study.
        """
        shard, _ = self._shard(repo_id, name)
        try:
            return shard.read_file(self._path(SANITIZED_PREFIX, repo_id, name))
        except FileSystemError:
            return None

    def has_sanitized(self, repo_id: str, name: str) -> bool:
        shard, _ = self._shard(repo_id, name)
        return shard.isfile(self._path(SANITIZED_PREFIX, repo_id, name))

    def invalidate(self, repo_id: str, name: str):
        index = self.shard_index(repo_id, name)
        shard = self._shards[index]
        for prefix in (ORIGINAL_PREFIX, SANITIZED_PREFIX):
            path = self._path(prefix, repo_id, name)
            if shard.isfile(path):
                shard.remove(path)
            self._untrack(index, path)

    # -- combined lookup ------------------------------------------------------

    def lookup_blob(self, repo_id: str, name: str,
                    expected: dict) -> tuple[bytes | None, str | None, bool]:
        """Resolve one quorum-pinned blob: named entry, then content store.

        ``expected`` is the quorum-validated ``{"sha256", "size"}`` entry;
        a cached blob only counts when it matches it (stale versions of an
        updated package never satisfy a lookup).  Returns ``(blob, source,
        evicted)``: ``source`` is ``"named"`` or ``"content"`` (None on a
        miss), and ``evicted`` is True when the miss is attributable to
        eviction (the markers are popped, so each eviction is counted at
        most once).  Time accounting is the caller's job — every refresh
        path charges the read against its own shard/clock model.
        """
        cached = self.get_original(repo_id, name)
        if cached is not None and self._matches(cached, expected):
            return cached, "named", False
        evicted = self.original_was_evicted(repo_id, name)
        sha = expected["sha256"]
        content = self.get_content(sha)
        if content is not None and self._matches(content, expected):
            return content, "content", False
        evicted = self.content_was_evicted(sha) or evicted
        return None, None, evicted

    @staticmethod
    def _matches(blob: bytes, expected: dict) -> bool:
        return len(blob) == expected["size"] \
            and sha256_hex(blob) == expected["sha256"]

    # -- content-addressed store ---------------------------------------------

    def put_content(self, blob: bytes, sha256: str | None = None) -> str:
        """Store a blob under its SHA-256; returns the hex digest."""
        digest = sha256 or sha256_hex(blob)
        index = self.content_shard_index(digest)
        self._stats[index].writes += 1
        path = self._content_path(digest)
        self._shards[index].write_file(path, blob)
        self._track(index, path, len(blob))
        return digest

    def get_content(self, sha256: str) -> bytes | None:
        index = self.content_shard_index(sha256)
        stats = self._stats[index]
        stats.reads += 1
        try:
            blob = self._shards[index].read_file(self._content_path(sha256))
        except FileSystemError:
            stats.misses += 1
            return None
        stats.hits += 1
        self._touch(index, self._content_path(sha256))
        return blob

    def has_content(self, sha256: str) -> bool:
        index = self.content_shard_index(sha256)
        return self._shards[index].isfile(self._content_path(sha256))

    # -- chunk manifests (delta-update retention) ----------------------------

    def put_chunk_manifest(self, sha256: str, manifest: bytes):
        """Retain a blob's chunk manifest, keyed by the blob's SHA-256.

        Manifests are what lets the TSR serve a chunk delta against a
        *prior* publication whose blob bytes may long be evicted: a
        manifest is a few hundred bytes of chunk ids, so retention is
        deliberately **outside** the byte-budget recency queues — keeping
        every base's manifest alive for the next round must not perturb
        the LRU/LRU-2 eviction dynamics the replay experiments measure
        (and a manifest is never worth evicting to fit one more blob).
        """
        index = self.content_shard_index(sha256)
        self._shards[index].write_file(self._manifest_path(sha256), manifest)
        self.manifest_writes += 1

    def get_chunk_manifest(self, sha256: str) -> bytes | None:
        index = self.content_shard_index(sha256)
        try:
            return self._shards[index].read_file(self._manifest_path(sha256))
        except FileSystemError:
            return None

    def drop_chunk_manifest(self, sha256: str):
        """Forget a manifest whose base publication was pruned
        (idempotent; clients based on it fall back to full pulls)."""
        index = self.content_shard_index(sha256)
        path = self._manifest_path(sha256)
        if self._shards[index].isfile(path):
            self._shards[index].remove(path)

    @staticmethod
    def _manifest_path(sha256: str) -> str:
        return f"{CHUNK_PREFIX}/{sha256}.manifest"

    # -- adversary surface -------------------------------------------------------

    def tamper_sanitized(self, repo_id: str, name: str, blob: bytes):
        """Root-adversary helper used by tests/benches: replace a cached
        sanitized package (e.g. with an outdated version) behind TSR's back."""
        shard, _ = self._shard(repo_id, name)
        shard.write_file(self._path(SANITIZED_PREFIX, repo_id, name), blob)

    def _read(self, repo_id: str, name: str, prefix: str) -> bytes | None:
        index = self.shard_index(repo_id, name)
        stats = self._stats[index]
        stats.reads += 1
        path = self._path(prefix, repo_id, name)
        try:
            blob = self._shards[index].read_file(path)
        except FileSystemError:
            stats.misses += 1
            return None
        stats.hits += 1
        self._touch(index, path)
        return blob
