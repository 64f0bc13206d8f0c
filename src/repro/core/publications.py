"""The publication log: one read path for every tier that serves TSR output.

The primary TSR and each edge replica (:mod:`repro.core.replica`) own one
:class:`PublicationLog` and answer the publication-backed endpoints through
it — ``get_index`` / ``get_package`` at ``as_of``, ``get_index_delta`` and
``get_package_delta`` — so the same log gives the same bytes on either tier.
The primary appends to and prunes its log as refresh rounds finish
(:meth:`~repro.core.service.TrustedSoftwareRepository.record_publication`);
a replica's log is the verified copy it adopts on sync, together with the
pruning watermark it mirrors from the primary.

Only two things differ per server, and neither is decided here:

* where a served package's bytes come from — the ``package_bytes`` callable
  (the primary reads through its sanitize cache and queues a re-sanitize on
  a miss; a replica uses the publication's captured copy, the default);
* the primary's live ``no-publication`` fallback for untimed delta requests
  before its first publication, which its delta endpoints handle before
  delegating here.

Content-keyed state stays single and owned by the primary deployment: the
delta depth bound, both delta memos, the parsed-index cache, the chunk
manifests and the set of manifest shas retention pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.index import parse_index_cached
from repro.core.delta import (
    build_index_delta,
    build_package_delta,
    index_body_sha256,
    index_full_envelope,
    index_unchanged_envelope,
    package_full_envelope,
)
from repro.crypto.hashes import sha256_hex
from repro.util.errors import DeltaError, NetworkError


@dataclass
class Publication:
    """One tenant repository's served state, frozen at a plan instant.

    The multi-round trace replay (:mod:`repro.workload.replay`) measures
    *staleness*: clients pulling at plan time T must see the newest signed
    index whose refresh had **finished** by T — not whatever the enclave
    happens to hold while a later round is still in flight.  Refresh
    rounds therefore
    :meth:`~repro.core.service.TrustedSoftwareRepository.record_publication`
    their outputs with the round's completion offset, and time-stamped
    client requests (``as_of``) are served from the publication log.
    Blob maps share unchanged entries with the previous publication, so a
    20-round log does not copy the repository 20 times.
    """

    available_at: float
    serial: int
    index_bytes: bytes
    #: package name -> (size, sha256) pinned by the signed index.
    entries: dict[str, tuple[int, str]]
    #: package name -> sanitized blob (entries absent when the blob was
    #: already evicted at capture time — those fail closed when served).
    blobs: dict[str, bytes]
    #: package name -> the ``(blob, size, sha256)`` that :meth:`pins`
    #: last found matching, so a repeat serve re-checks the pair without
    #: re-hashing the blob.
    _checked: dict[str, tuple[bytes, int, str]] = field(
        default_factory=dict, repr=False, compare=False)

    def pins(self, name: str, blob: bytes) -> bool:
        """Whether ``blob`` is the copy of ``name`` the signed index pins.

        The blob is hashed again whenever it is not the exact ``bytes``
        object last found matching or its pin changed; a mutable blob is
        hashed on every call.
        """
        size, sha = self.entries[name]
        checked = self._checked.get(name)
        if checked is not None and checked[0] is blob \
                and checked[1] == size and checked[2] == sha:
            return True
        if len(blob) != size or sha256_hex(blob) != sha:
            return False
        if type(blob) is bytes:
            self._checked[name] = (blob, size, sha)
        return True

    def keep(self, previous: "Publication", name: str) -> bool:
        """Share ``previous``'s captured copy of ``name`` when both pin the
        same (size, sha256), with the record of its last matching check.
        """
        kept = previous.blobs.get(name)
        if kept is None or previous.entries.get(name) != self.entries[name]:
            return False
        self.blobs[name] = kept
        checked = previous._checked.get(name)
        if checked is not None and checked[0] is kept:
            self._checked[name] = checked
        return True

    def captured_blob(self, name: str) -> bytes:
        """The captured copy of ``name``, checked by :meth:`pins`."""
        blob = self.blobs.get(name)
        if blob is None:
            raise NetworkError(
                f"package {name!r} not available from the t="
                f"{self.available_at:.3f} publication"
            )
        if not self.pins(name, blob):
            raise NetworkError(
                f"published package {name!r} does not match its signed index"
            )
        return blob


class PublicationLog:
    """Per-repository publications of one server, and the read path over
    them."""

    def __init__(self, primary, package_bytes=None):
        #: The primary deployment, owner of the shared content-keyed state.
        self._primary = primary
        #: ``(repo_id, name, publication, as_of) -> bytes`` for a package
        #: the publication pins; the default serves the captured copy.
        self._package_bytes = package_bytes or (
            lambda repo_id, name, publication, as_of:
            publication.captured_blob(name))
        #: repo_id -> publications ordered by ``available_at``.
        self._publications: dict[str, list[Publication]] = {}
        #: repo_id -> newest pruned publication serial.
        self.pruned_through: dict[str, int] = {}
        #: Delta-serving accounting: envelopes served by kind, fallback
        #: reasons, and the wire bytes deltas saved vs full responses.
        self.delta_index_serves = 0
        self.delta_index_unchanged = 0
        self.delta_index_fallbacks: dict[str, int] = {}
        self.delta_package_serves = 0
        self.delta_package_fallbacks: dict[str, int] = {}
        self.delta_bytes_saved = 0
        #: Full index pulls forced because the client's base publication
        #: had been pruned from the bounded log (plus package full pulls
        #: whose delta base manifest was pruned with its publication).
        self.retention_full_pulls = 0

    # -- the log itself ------------------------------------------------------

    def repo_ids(self) -> list[str]:
        return sorted(self._publications)

    def publications(self, repo_id: str) -> list[Publication]:
        return list(self._publications.get(repo_id, []))

    def newest(self, repo_id: str) -> Publication | None:
        log = self._publications.get(repo_id)
        return log[-1] if log else None

    def append(self, repo_id: str, publication: Publication,
               retention: int) -> list[Publication]:
        """Record a publication, then prune the log to its newest
        ``retention`` entries; returns the pruned ones, oldest first."""
        log = self._publications.setdefault(repo_id, [])
        log.append(publication)
        dropped = log[:max(0, len(log) - retention)]
        del log[:len(dropped)]
        for old in dropped:
            if old.serial > self.pruned_through.get(repo_id, -1):
                self.pruned_through[repo_id] = old.serial
        return dropped

    def adopt(self, repo_id: str, publications: list[Publication],
              pruned_through: int | None):
        """Replace one repository's log with a verified copy (replica
        sync), mirroring the primary's pruning watermark so fallback
        reasons stay byte-identical."""
        if publications:
            self._publications[repo_id] = list(publications)
        if pruned_through is not None:
            self.pruned_through[repo_id] = pruned_through

    def blob_with_sha(self, sha256: str) -> bytes | None:
        """A retained captured blob pinned as ``sha256`` in any
        repository's log (blobs are content-keyed), or ``None``."""
        return next((publication.blobs[name]
                     for log in self._publications.values()
                     for publication in log
                     for name, (_, pinned) in publication.entries.items()
                     if pinned == sha256 and name in publication.blobs),
                    None)

    def publication_at(self, repo_id: str,
                       as_of: float) -> Publication | None:
        """Newest publication available at plan time ``as_of``."""
        log = self._publications.get(repo_id, [])
        best = None
        for publication in log:
            if publication.available_at <= as_of:
                best = publication
            else:
                break
        if best is None and log and repo_id in self.pruned_through:
            # Every publication as old as ``as_of`` has been pruned: a
            # real repository deleted those bytes, so laggards get the
            # oldest copy that still exists.
            return log[0]
        return best

    def _target(self, repo_id: str, as_of: float | None) -> Publication:
        """The publication a request resolves against: the newest at
        ``as_of``, or the newest overall for an untimed request."""
        if as_of is None:
            publication = self.newest(repo_id)
        else:
            publication = self.publication_at(repo_id, as_of)
        if publication is None:
            when = "" if as_of is None else f" at t={as_of:.3f}"
            raise NetworkError(
                f"repository {repo_id!r} has no publication{when}")
        return publication

    def _parsed(self, repo_id: str, publication: Publication):
        """Parsed index of one publication, cached on the primary by
        serial (stable under retention pruning, unlike log positions;
        same-serial publications carry byte-identical index bytes)."""
        cache = self._primary._publication_indexes
        key = (repo_id, publication.serial)
        parsed = cache.get(key)
        if parsed is None:
            parsed = cache[key] = parse_index_cached(publication.index_bytes)
        return parsed

    # -- full serves ---------------------------------------------------------

    def index_bytes_at(self, repo_id: str, as_of: float | None) -> bytes:
        return self._target(repo_id, as_of).index_bytes

    def serve_package_at(self, repo_id: str, name: str,
                         as_of: float | None) -> bytes:
        return self._serve(repo_id, name, self._target(repo_id, as_of), as_of)

    def _serve(self, repo_id: str, name: str, publication: Publication,
               as_of: float | None) -> bytes:
        if name not in publication.entries:
            raise NetworkError(
                f"package {name!r} not in the t="
                f"{publication.available_at:.3f} publication"
            )
        return self._package_bytes(repo_id, name, publication, as_of)

    # -- delta serves --------------------------------------------------------

    def full_index(self, reason: str, index_bytes: bytes) -> bytes:
        """A counted ``ifull`` fallback envelope."""
        counters = self.delta_index_fallbacks
        counters[reason] = counters.get(reason, 0) + 1
        return index_full_envelope(reason, index_bytes)

    def full_package(self, reason: str, blob: bytes) -> bytes:
        """A counted ``pfull`` fallback envelope."""
        counters = self.delta_package_fallbacks
        counters[reason] = counters.get(reason, 0) + 1
        return package_full_envelope(reason, blob)

    def index_delta_at(self, repo_id: str, base_serial: int,
                       as_of: float | None = None) -> bytes:
        """Serve a signed index diff from ``base_serial`` to the newest
        publication at ``as_of`` (see :mod:`repro.core.delta` for the
        envelope kinds and fallback rules)."""
        target = self._target(repo_id, as_of)
        depth = self._primary.delta_log_depth
        if depth <= 0:
            return self.full_index("disabled", target.index_bytes)
        if target.serial == base_serial:
            self.delta_index_unchanged += 1
            envelope = index_unchanged_envelope(
                base_serial, index_body_sha256(target.index_bytes))
            self.delta_bytes_saved += max(
                0, len(target.index_bytes) - len(envelope))
            return envelope
        log = self._publications[repo_id]
        target_pos = next(i for i in range(len(log) - 1, -1, -1)
                          if log[i] is target)
        base_pos = next((i for i in range(target_pos, -1, -1)
                         if log[i].serial == base_serial), None)
        if base_pos is None:
            pruned = self.pruned_through.get(repo_id)
            if pruned is not None and base_serial <= pruned:
                # The base aged out of the bounded publication log.  When
                # even an unbounded log would have answered with a full
                # pull (the hypothetical gap exceeds the depth bound),
                # keep the historical "depth" reason; otherwise the
                # retention knob itself forced the full pull.
                self.retention_full_pulls += 1
                reason = "depth" if target_pos + 1 > depth else "retention"
            else:
                reason = "unknown-base"
            return self.full_index(reason, target.index_bytes)
        if target_pos - base_pos > depth:
            return self.full_index("depth", target.index_bytes)
        memo = self._primary._index_delta_memo
        memo_key = (repo_id, base_serial, target.serial)
        envelope = memo.get(memo_key)
        if envelope is None:
            envelope = memo[memo_key] = build_index_delta(
                self._parsed(repo_id, log[base_pos]),
                self._parsed(repo_id, target),
            )
        if len(envelope) >= len(target.index_bytes):
            return self.full_index("not-smaller", target.index_bytes)
        self.delta_index_serves += 1
        self.delta_bytes_saved += len(target.index_bytes) - len(envelope)
        return envelope

    def package_delta_at(self, repo_id: str, name: str, base_sha256: str,
                         as_of: float | None = None) -> bytes:
        """Serve one package as a chunk delta against the client's cached
        base (identified by its SHA-256), or as a tagged full blob when no
        usable delta exists."""
        target = self._target(repo_id, as_of)
        blob = self._serve(repo_id, name, target, as_of)
        new_sha = target.entries[name][1]
        primary = self._primary
        if primary.delta_log_depth <= 0:
            return self.full_package("disabled", blob)
        if base_sha256 == new_sha:
            return self.full_package("same", blob)
        manifest = primary.chunk_manifest(base_sha256)
        if manifest is None:
            if base_sha256 in primary._pruned_manifest_shas:
                self.retention_full_pulls += 1
            return self.full_package("unknown-base", blob)
        memo = primary._package_delta_memo
        memo_key = (base_sha256, new_sha)
        if memo_key in memo:
            envelope = memo[memo_key]
        else:
            try:
                envelope = build_package_delta(manifest, blob)
            except DeltaError:
                envelope = None
            memo[memo_key] = envelope
        if envelope is None:
            return self.full_package("not-smaller", blob)
        self.delta_package_serves += 1
        self.delta_bytes_saved += len(blob) - len(envelope)
        return envelope
