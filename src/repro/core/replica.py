"""Edge-replica serving tier: CDN-style pull fanout off the primary TSR.

A :class:`ReplicaTSR` is a read-only network endpoint holding a *verified
copy* of the primary's publication log.  It answers the delta surface
(``get_index_delta`` / ``get_package_delta``) plus the time-stamped full
endpoints through the same :class:`~repro.core.publications.PublicationLog`
code the primary serves with, so its envelopes are byte-identical to the
primary's for the same log — enclave signatures pass through unchanged, so
a client cannot tell (and need not care) which tier served it: every
answer still verifies against the tenant's enclave key.  A replica serves
packages from the publications' captured copies only.

Replicas never sanitize and hold no enclave.  They sync from the primary
over the same signed index-diff path clients use
(:mod:`repro.core.delta`), so a replica adopts a new publication only
after the diff splices onto its previous verified index (or a full
envelope re-verifies from scratch) — the ``RollbackError`` oracle applies
to the replica tier exactly as it does to clients.  Adoption stops at the
serial the envelope authenticated: an ``isame`` answer must name the held
serial and index body, and publications newer than the authenticated
serial are never adopted, however many the primary holds.  Publication
blob maps are then shared *by reference* with the primary, the simulation
shorthand for the chunk-delta body transfer the envelope authenticates.

Freshness is enforced pull-side: before a wave routes clients at a
replica, :func:`check_replica_freshness` re-validates the replica's served
index with the same :func:`~repro.core.quorum.validate_signed_index` gate
quorum mirror reads use, and refuses replicas that lag past their
staleness bound or replay an older serial than a fresher view of the
primary — refused replicas lose the wave's traffic to the primary.
"""

from __future__ import annotations

from repro.archive.index import parse_index_cached
from repro.core.delta import (
    apply_index_delta,
    index_body_sha256,
    parse_index_delta_envelope,
)
from repro.core.publications import PublicationLog
from repro.core.quorum import validate_signed_index
from repro.core.service import TrustedSoftwareRepository
from repro.crypto.rsa import RsaPublicKey
from repro.simnet.latency import Continent
from repro.simnet.network import Host, Request
from repro.util.errors import DeltaError, NetworkError, RollbackError


class ReplicaTSR:
    """A read-only edge replica of one primary TSR deployment."""

    def __init__(self, hostname: str, primary: TrustedSoftwareRepository,
                 continent=None, bandwidth: float | None = None,
                 sync_cadence: float = 1.0,
                 staleness_bound: float | None = None):
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
        #: Verified point-in-time copy of the primary's publication log
        #: (publication objects shared by reference) plus its mirrored
        #: pruning watermark; serves captured copies only.
        self.publication_log = PublicationLog(primary)
        #: Requests this replica answered (its share of the fleet traffic).
        self.serve_count = 0
        # Sync accounting.
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
        log = self.publication_log
        if operation == "get_index":
            if isinstance(payload, dict):
                blob = log.index_bytes_at(payload["repo"],
                                          payload.get("as_of"))
            else:
                blob = log.index_bytes_at(str(payload), None)
        elif operation == "get_package":
            blob = log.serve_package_at(payload["repo"], payload["name"],
                                        payload.get("as_of"))
        elif operation == "get_index_delta":
            blob = log.index_delta_at(payload["repo"], payload["base_serial"],
                                      payload.get("as_of"))
        elif operation == "get_package_delta":
            blob = log.package_delta_at(payload["repo"], payload["name"],
                                        payload["base_sha256"],
                                        payload.get("as_of"))
        else:
            raise NetworkError(
                f"replica {self.hostname}: unknown operation {operation!r}")
        self.serve_count += 1
        return blob, len(blob)

    # -- verified sync from the primary ----------------------------------------

    def sync_from_primary(self, at: float, repo_ids=None,
                          schedule=None) -> int:
        """Pull the primary's new publications through the signed diff path.

        Fetches one index-delta envelope per repository (handler executed
        via :meth:`Network.probe` — no clock advance; the wire cost lands
        on ``schedule`` as a fresh ``("sync", <replica>, <seq>)`` channel
        when one is given, contending on the primary's uplink pool),
        verifies it against the replica's previous adopted index, and
        adopts the primary's publications up to ``at`` whose serial the
        envelope authenticated.  Returns the number of repositories that
        adopted a newer publication.  A frozen or partitioned replica
        adopts nothing and its ``synced_through`` stalls — the freshness
        check then refuses it.
        """
        if self.frozen:
            return 0
        if repo_ids is None:
            repo_ids = self._primary.publication_log.repo_ids()
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
        primary_log = self._primary.publication_log
        if primary_log.newest(repo_id) is None:
            return False
        ours = self.publication_log.newest(repo_id)
        request = Request(self._primary.hostname, "get_index_delta",
                          payload={"repo": repo_id,
                                   "base_serial": (ours.serial if ours
                                                   else -1),
                                   "as_of": at})
        probe = self._network.probe(self.hostname, request)
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
        serial = self._verify_envelope(repo_id, ours, probe.payload)
        # Envelope verified: adopt the primary's publications up to the
        # sync instant and the authenticated serial (shared by reference
        # — the envelope authenticates the state the bodies materialize).
        adopted = [p for p in primary_log.publications(repo_id)
                   if p.available_at <= at and p.serial <= serial]
        held = self.publication_log.publications(repo_id)
        changed = bool(adopted) and (not held
                                     or adopted[-1] is not held[-1]
                                     or len(adopted) != len(held))
        self.publication_log.adopt(repo_id, adopted,
                                   primary_log.pruned_through.get(repo_id))
        return changed

    def _verify_envelope(self, repo_id: str, ours, payload: object) -> int:
        """Authenticate one sync answer before adopting anything; returns
        the serial it authenticated.

        An ``isame`` answer must name the serial and index body we hold;
        a delta envelope must splice onto our previous verified index
        (:func:`apply_index_delta` raises :class:`RollbackError` when the
        serial does not advance — the rollback oracle); a full envelope
        must carry a valid enclave signature and a serial no older than
        what we already hold.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise NetworkError("replica sync: non-bytes envelope")
        envelope = parse_index_delta_envelope(bytes(payload))
        key = RsaPublicKey.from_pem(self._primary.public_key_pem(repo_id))
        if envelope.kind == "same":
            if ours is None or envelope.serial != ours.serial \
                    or envelope.body_sha256 != index_body_sha256(
                        ours.index_bytes):
                raise NetworkError(
                    "replica sync: isame does not name the held index")
            return ours.serial
        if envelope.kind == "delta":
            if ours is None:
                raise NetworkError("replica sync: delta without a base")
            base = parse_index_cached(ours.index_bytes)
            index = apply_index_delta(base, envelope)
        else:  # full
            index = validate_signed_index(envelope.full_bytes, [key])
            if index is None:
                raise NetworkError(
                    "replica sync: full index failed verification")
            if ours is not None and index.serial < ours.serial:
                raise RollbackError(
                    f"replica sync: serial went backwards "
                    f"({index.serial} < {ours.serial})")
        if not index.verify(key):
            raise NetworkError("replica sync: spliced index unverifiable")
        return index.serial


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
        payload = replica.publication_log.index_bytes_at(repo_id, as_of)
    except NetworkError as exc:
        raise RollbackError(
            f"replica {replica.hostname} serves no index for "
            f"{repo_id!r} at t={as_of:.3f}") from exc
    index = validate_signed_index(payload, list(index_keys))
    if index is None:
        raise RollbackError(
            f"replica {replica.hostname} served an unverifiable index "
            f"for {repo_id!r}")
    primary_log = replica._primary.publication_log
    expected = primary_log.publication_at(repo_id, as_of)
    if expected is not None and index.serial < expected.serial:
        raise RollbackError(
            f"replica {replica.hostname} replays serial {index.serial} "
            f"for {repo_id!r}; primary publishes {expected.serial} at "
            f"t={as_of:.3f}")
    return index.serial
