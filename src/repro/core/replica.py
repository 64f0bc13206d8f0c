"""Edge-replica serving tier: CDN-style pull fanout off the primary TSR.

A :class:`ReplicaTSR` is a read-only network endpoint holding a *verified
copy* of the primary's publication log.  Replicas answer the delta surface
(``get_index_delta`` / ``get_package_delta``) plus the time-stamped full
endpoints with byte-identical envelopes — enclave signatures pass through
unchanged, so a client cannot tell (and need not care) which tier served
it: every answer still verifies against the tenant's enclave key.

Replicas never sanitize and hold no enclave.  They sync from the primary
over the same signed index-diff path clients use
(:mod:`repro.core.delta`), so a replica adopts a new publication only
after the diff splices onto its previous verified index (or a full
envelope re-verifies from scratch) — the ``RollbackError`` oracle applies
to the replica tier exactly as it does to clients.  Publication blob maps
are then shared *by reference* with the primary, the simulation shorthand
for the chunk-delta body transfer the envelope authenticates.

Freshness is enforced pull-side: before a wave routes clients at a
replica, :func:`check_replica_freshness` re-validates the replica's served
index with the same :func:`~repro.core.quorum.validate_signed_index` gate
quorum mirror reads use, and refuses replicas that lag past their
staleness bound or replay an older serial than a fresher view of the
primary — refused replicas lose the wave's traffic to the primary.
"""

from __future__ import annotations

from repro.core.quorum import validate_signed_index
from repro.core.service import Publication, TrustedSoftwareRepository
from repro.simnet.network import Host, Request
from repro.util.errors import NetworkError, RollbackError


class ReplicaTSR:
    """A read-only edge replica of one primary TSR deployment."""

    def __init__(self, hostname: str, primary: TrustedSoftwareRepository,
                 continent=None, bandwidth: float | None = None,
                 sync_cadence: float = 1.0,
                 staleness_bound: float | None = None):
        from repro.simnet.latency import Continent

        self.hostname = hostname
        self._primary = primary
        self._network = primary._network
        #: Heartbeat interval of the replica's background sync loop; the
        #: replay drives syncs on publish *and* on this cadence, so a
        #: healthy replica's ``synced_through`` never trails the plan
        #: clock by more than one cadence.
        self.sync_cadence = sync_cadence
        #: Lag past which the freshness check refuses the replica
        #: (defaults to two missed heartbeats).
        self.staleness_bound = (staleness_bound if staleness_bound is not None
                                else 2.0 * sync_cadence)
        #: Plan instant of the last completed sync.
        self.synced_through = 0.0
        #: Adversarial switch: a frozen replica stops syncing entirely
        #: (its adopted log and ``synced_through`` stall) but keeps
        #: serving — the freshness check must catch it.
        self.frozen = False
        #: repo_id -> verified point-in-time copy of the primary's
        #: publication log (publication objects shared by reference).
        self._publications: dict[str, list[Publication]] = {}
        #: repo_id -> newest pruned serial, mirrored at sync time so the
        #: replica's full-pull reasons stay byte-identical to the
        #: primary's ("retention"/"depth" vs "unknown-base").
        self._pruned_through: dict[str, int] = {}
        # Serving accounting (the replica's share of the fleet traffic).
        self.serve_count = 0
        self.delta_index_serves = 0
        self.delta_index_unchanged = 0
        self.delta_index_fallbacks: dict[str, int] = {}
        self.delta_package_serves = 0
        self.delta_package_fallbacks: dict[str, int] = {}
        self.delta_bytes_saved = 0
        # Sync accounting.
        self.sync_count = 0
        self.sync_bytes = 0
        self.sync_failures = 0
        #: Pull waves that refused this replica for staleness/rollback.
        self.refusals = 0
        self._sync_seq = 0
        host = Host(name=hostname,
                    continent=continent
                    or self._network.host(primary.hostname).continent
                    or Continent.EUROPE,
                    handler=self._handle_request)
        if bandwidth is not None:
            host.bandwidth = bandwidth
        self._network.add_host(host)

    # -- client-facing API (network handler) ----------------------------------

    def _handle_request(self, operation: str,
                        payload: object) -> tuple[object, int]:
        if operation == "get_index":
            if isinstance(payload, dict) and payload.get("as_of") is not None:
                blob = self.index_bytes_at(payload["repo"], payload["as_of"])
            else:
                repo_id = (payload["repo"] if isinstance(payload, dict)
                           else str(payload))
                blob = self._newest_publication(repo_id).index_bytes
            self.serve_count += 1
            return blob, len(blob)
        if operation == "get_package":
            blob = self.serve_package_at(payload["repo"], payload["name"],
                                         payload.get("as_of"))
            self.serve_count += 1
            return blob, len(blob)
        if operation == "get_index_delta":
            blob = self.index_delta_at(payload["repo"], payload["base_serial"],
                                       payload.get("as_of"))
            self.serve_count += 1
            return blob, len(blob)
        if operation == "get_package_delta":
            blob = self.package_delta_at(payload["repo"], payload["name"],
                                         payload["base_sha256"],
                                         payload.get("as_of"))
            self.serve_count += 1
            return blob, len(blob)
        raise NetworkError(
            f"replica {self.hostname}: unknown operation {operation!r}")

    # -- verified sync from the primary ----------------------------------------

    def sync_from_primary(self, at: float, repo_ids=None,
                          schedule=None) -> int:
        """Pull the primary's new publications through the signed diff path.

        Fetches one index-delta envelope per repository (handler executed
        via :meth:`Network.probe` — no clock advance; the wire cost lands
        on ``schedule`` as a fresh ``("sync", <replica>, <seq>)`` channel
        when one is given, contending on the primary's uplink pool), verifies it
        against the replica's previous adopted index, and adopts the
        primary's publication objects up to ``at``.  Returns the number
        of repositories that adopted a newer publication.  A frozen or
        partitioned replica adopts nothing and its ``synced_through``
        stalls — the freshness check then refuses it.
        """
        if self.frozen:
            return 0
        if repo_ids is None:
            repo_ids = sorted(self._primary._publications)
        from repro.util.errors import DeltaError

        adopted = 0
        for repo_id in repo_ids:
            try:
                adopted += 1 if self._sync_repo(repo_id, at, schedule) else 0
            except (NetworkError, RollbackError, DeltaError):
                self.sync_failures += 1
                return adopted  # stay stale; do not advance synced_through
        if at > self.synced_through:
            self.synced_through = at
        return adopted

    def _sync_repo(self, repo_id: str, at: float, schedule) -> bool:
        primary_log = self._primary._publications.get(repo_id)
        if not primary_log:
            return False
        ours = self._publications.get(repo_id)
        base_serial = ours[-1].serial if ours else -1
        request = Request(self._primary.hostname, "get_index_delta",
                          payload={"repo": repo_id,
                                   "base_serial": base_serial,
                                   "as_of": at})
        probe = self._network.probe(self.hostname, request)
        self.sync_count += 1
        self.sync_bytes += probe.size_bytes
        if schedule is not None:
            # Each sync is its own fresh channel: the solver anchors a new
            # channel's setup phase at the schedule's start time, so a
            # setup of ``at + probe.setup`` begins the payload exactly at
            # the sync instant plus the request latency — identically in
            # materialized solves and on a live stream (where ``at`` sits
            # at or past the frontier, keeping the enqueue admissible).
            self._sync_seq += 1
            key = ("sync", self.hostname, self._sync_seq)
            schedule.enqueue(key, key, at + probe.setup, probe.size_bytes,
                             probe.bandwidth)
        self._verify_envelope(repo_id, ours, probe.payload)
        # Envelope verified: adopt the primary's publications up to the
        # sync instant (shared by reference — the envelope authenticates
        # the state the bodies materialize) and mirror its pruning
        # watermark so fallback reasons stay byte-identical.
        adopted = [p for p in primary_log if p.available_at <= at]
        changed = bool(adopted) and (not ours
                                     or adopted[-1] is not ours[-1]
                                     or len(adopted) != len(ours))
        if adopted:
            self._publications[repo_id] = adopted
        pruned = self._primary._pruned_through.get(repo_id)
        if pruned is not None:
            self._pruned_through[repo_id] = pruned
        return changed

    def _verify_envelope(self, repo_id: str, ours, payload: object):
        """Authenticate one sync answer before adopting anything.

        A delta envelope must splice onto our previous verified index
        (:func:`apply_index_delta` raises :class:`RollbackError` when the
        serial does not advance — the rollback oracle); a full envelope
        must carry a valid enclave signature and a serial no older than
        what we already hold.
        """
        from repro.archive.index import parse_index_cached
        from repro.core.delta import apply_index_delta, \
            parse_index_delta_envelope

        if not isinstance(payload, (bytes, bytearray)):
            raise NetworkError("replica sync: non-bytes envelope")
        envelope = parse_index_delta_envelope(bytes(payload))
        keys = [self._primary_key(repo_id)]
        if envelope.kind == "same":
            return
        if envelope.kind == "delta":
            if not ours:
                raise NetworkError("replica sync: delta without a base")
            base = parse_index_cached(ours[-1].index_bytes)
            index = apply_index_delta(base, envelope)
        else:  # full
            index = validate_signed_index(envelope.full_bytes, keys)
            if index is None:
                raise NetworkError(
                    "replica sync: full index failed verification")
            if ours and index.serial < ours[-1].serial:
                raise RollbackError(
                    f"replica sync: serial went backwards "
                    f"({index.serial} < {ours[-1].serial})")
        if not index.verify(keys[0]):
            raise NetworkError("replica sync: spliced index unverifiable")

    def _primary_key(self, repo_id: str):
        from repro.crypto.rsa import RsaPublicKey
        return RsaPublicKey.from_pem(self._primary.public_key_pem(repo_id))

    # -- serving from the adopted log ------------------------------------------
    #
    # These mirror the primary's publication-backed serving exactly (same
    # envelope builders, shared content-addressed memos), so a replica
    # answer is byte-identical to what the primary would have served for
    # the same request — the differential suite pins this.

    def _newest_publication(self, repo_id: str) -> Publication:
        log = self._publications.get(repo_id)
        if not log:
            raise NetworkError(
                f"replica {self.hostname}: repository {repo_id!r} has no "
                f"adopted publication")
        return log[-1]

    def publication_at(self, repo_id: str,
                       as_of: float) -> Publication | None:
        log = self._publications.get(repo_id, [])
        best = None
        for publication in log:
            if publication.available_at <= as_of:
                best = publication
            else:
                break
        if best is None and log and repo_id in self._pruned_through:
            return log[0]
        return best

    def index_bytes_at(self, repo_id: str, as_of: float) -> bytes:
        publication = self.publication_at(repo_id, as_of)
        if publication is None:
            raise NetworkError(
                f"repository {repo_id!r} has no published index at "
                f"t={as_of:.3f}"
            )
        return publication.index_bytes

    def serve_package_at(self, repo_id: str, name: str,
                         as_of: float | None) -> bytes:
        """Serve a package from the adopted publication's captured copy.

        Replicas hold no sanitize cache and no enclave: a blob the
        publication did not capture fails closed, and the client's full
        pull falls back to the primary (whose serve may then queue a
        re-sanitize).
        """
        if as_of is not None:
            publication = self.publication_at(repo_id, as_of)
            if publication is None:
                raise NetworkError(
                    f"repository {repo_id!r} has no publication at "
                    f"t={as_of:.3f}")
        else:
            publication = self._newest_publication(repo_id)
        expected = publication.entries.get(name)
        if expected is None:
            raise NetworkError(
                f"package {name!r} not in the t="
                f"{publication.available_at:.3f} publication"
            )
        return self._publication_blob(name, publication, expected)

    def _publication_blob(self, name: str, publication: Publication,
                          expected: tuple[int, str]) -> bytes:
        from repro.crypto.hashes import sha256_hex

        blob = publication.blobs.get(name)
        if blob is None:
            raise NetworkError(
                f"package {name!r} not available from the t="
                f"{publication.available_at:.3f} publication"
            )
        if len(blob) != expected[0] or sha256_hex(blob) != expected[1]:
            raise NetworkError(
                f"published package {name!r} does not match its signed index"
            )
        return blob

    def _delta_target(self, repo_id: str,
                      as_of: float | None) -> Publication:
        if as_of is not None:
            publication = self.publication_at(repo_id, as_of)
            if publication is None:
                raise NetworkError(
                    f"repository {repo_id!r} has no publication at "
                    f"t={as_of:.3f}"
                )
            return publication
        return self._newest_publication(repo_id)

    def _publication_index(self, repo_id: str, position: int):
        """Parsed publication index, sharing the primary's serial-keyed
        cache (the adopted publications *are* the primary's objects)."""
        from repro.archive.index import parse_index_cached

        publication = self._publications[repo_id][position]
        key = (repo_id, publication.serial)
        cache = self._primary._publication_indexes
        cached = cache.get(key)
        if cached is None:
            cached = parse_index_cached(publication.index_bytes)
            cache[key] = cached
        return cached

    def _count_fallback(self, counters: dict[str, int], reason: str):
        counters[reason] = counters.get(reason, 0) + 1

    def index_delta_at(self, repo_id: str, base_serial: int,
                       as_of: float | None = None) -> bytes:
        from repro.core.delta import (
            build_index_delta,
            index_body_sha256,
            index_full_envelope,
            index_unchanged_envelope,
        )

        target = self._delta_target(repo_id, as_of)
        depth = self._primary.delta_log_depth
        if depth <= 0:
            self._count_fallback(self.delta_index_fallbacks, "disabled")
            return index_full_envelope("disabled", target.index_bytes)
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
            pruned = self._pruned_through.get(repo_id)
            if pruned is not None and base_serial <= pruned:
                reason = ("depth" if target_pos + 1 > depth
                          else "retention")
            else:
                reason = "unknown-base"
            self._count_fallback(self.delta_index_fallbacks, reason)
            return index_full_envelope(reason, target.index_bytes)
        if target_pos - base_pos > depth:
            self._count_fallback(self.delta_index_fallbacks, "depth")
            return index_full_envelope("depth", target.index_bytes)
        memo = self._primary._index_delta_memo
        memo_key = (repo_id, base_serial, target.serial)
        envelope = memo.get(memo_key)
        if envelope is None:
            envelope = build_index_delta(
                self._publication_index(repo_id, base_pos),
                self._publication_index(repo_id, target_pos),
            )
            memo[memo_key] = envelope
        if len(envelope) >= len(target.index_bytes):
            self._count_fallback(self.delta_index_fallbacks, "not-smaller")
            return index_full_envelope("not-smaller", target.index_bytes)
        self.delta_index_serves += 1
        self.delta_bytes_saved += len(target.index_bytes) - len(envelope)
        return envelope

    def package_delta_at(self, repo_id: str, name: str, base_sha256: str,
                         as_of: float | None = None) -> bytes:
        from repro.core.delta import build_package_delta, \
            package_full_envelope
        from repro.util.errors import DeltaError

        target = self._delta_target(repo_id, as_of)
        expected = target.entries.get(name)
        if expected is None:
            raise NetworkError(
                f"package {name!r} not in the t="
                f"{target.available_at:.3f} publication"
            )
        blob = self._publication_blob(name, target, expected)
        new_sha = expected[1]
        if self._primary.delta_log_depth <= 0:
            self._count_fallback(self.delta_package_fallbacks, "disabled")
            return package_full_envelope("disabled", blob)
        if base_sha256 == new_sha:
            self._count_fallback(self.delta_package_fallbacks, "same")
            return package_full_envelope("same", blob)
        # The manifest store is content-addressed and synced alongside
        # publications; the simulation shares the primary's copy, which
        # the primary builds on the first request against the base.
        manifest = self._primary.chunk_manifest(base_sha256)
        if manifest is None:
            self._count_fallback(self.delta_package_fallbacks, "unknown-base")
            return package_full_envelope("unknown-base", blob)
        memo = self._primary._package_delta_memo
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
            self._count_fallback(self.delta_package_fallbacks, "not-smaller")
            return package_full_envelope("not-smaller", blob)
        self.delta_package_serves += 1
        self.delta_bytes_saved += len(blob) - len(envelope)
        return envelope


def check_replica_freshness(replica: ReplicaTSR, repo_id: str, as_of: float,
                            index_keys) -> int:
    """Quorum-style freshness probe of one replica, pull-wave side.

    Raises :class:`RollbackError` — the same oracle the client delta path
    uses — when the replica (a) lags past its staleness bound, (b) serves
    an index that fails :func:`validate_signed_index`, or (c) serves an
    older serial than a fresher view of the primary reports for the same
    instant (an old-serial replay).  Returns the verified serial.
    """
    lag = as_of - replica.synced_through
    if lag > replica.staleness_bound + 1e-9:
        raise RollbackError(
            f"replica {replica.hostname} lags {lag:.3f}s behind t="
            f"{as_of:.3f} (bound {replica.staleness_bound:.3f}s)")
    try:
        payload = replica.index_bytes_at(repo_id, as_of)
    except NetworkError as exc:
        raise RollbackError(
            f"replica {replica.hostname} serves no index for "
            f"{repo_id!r} at t={as_of:.3f}") from exc
    index = validate_signed_index(payload, list(index_keys))
    if index is None:
        raise RollbackError(
            f"replica {replica.hostname} served an unverifiable index "
            f"for {repo_id!r}")
    expected = replica._primary.publication_at(repo_id, as_of)
    if expected is not None and index.serial < expected.serial:
        raise RollbackError(
            f"replica {replica.hostname} replays serial {index.serial} "
            f"for {repo_id!r}; primary publishes {expected.serial} at "
            f"t={as_of:.3f}")
    return index.serial
