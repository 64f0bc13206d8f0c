"""The host-side TSR service (paper Figure 6, component D).

Runs on an untrusted cloud machine: performs network and disk I/O, hosts
the enclave, and exposes the repository API on the simulated network.
Trust-relevant decisions all happen inside the enclave program; the service
moves bytes.

Time accounting: network and disk operations advance the simulated clock;
sanitization is *really executed* (real CPU work) and its measured duration
is injected into the simulated clock, scaled by the EPC cost model when SGX
is enabled.  EXPERIMENTS.md documents this split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import PackageCache
from repro.core.freshness import FreshnessManager
from repro.core.policy import SecurityPolicy
from repro.core.program import TsrProgram
from repro.core.publications import Publication, PublicationLog
from repro.core.quorum import QuorumReader
from repro.core.sanitizer import SanitizationRejected, SanitizationResult
from repro.crypto.hashes import sha256_hex
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcModel
from repro.sgx.platform import SgxCpu
from repro.simnet.latency import (
    LOCAL_DISK_BANDWIDTH_BYTES_PER_S,
    LOCAL_DISK_SEEK_S,
)
from repro.simnet.network import Host, Network, Request
from repro.tpm.device import Tpm
from repro.util.errors import NetworkError, RollbackError

SEALED_STATE_PATH = "/var/lib/tsr/state.sealed"


def matches_expected(blob: bytes, expected: dict) -> bool:
    """Does a blob match its quorum-validated index entry (size + hash)?"""
    return len(blob) == expected["size"] \
        and sha256_hex(blob) == expected["sha256"]


@dataclass
class RefreshReport:
    """What one repository refresh did (drives Table 3 and Fig. 10)."""

    serial: int
    changed_packages: list[str]
    sanitized: int
    rejected: list[tuple[str, str]]
    downloaded_bytes: int
    quorum_elapsed: float
    download_elapsed: float
    sanitize_elapsed: float
    insecure_findings: list[tuple[str, str]] = field(default_factory=list)
    results: list[SanitizationResult] = field(default_factory=list)
    #: Simulated wall-clock of the whole refresh.  In sequential mode the
    #: phases simply add up; an overlapped refresh runs them concurrently,
    #: so its wall-clock is recorded explicitly and is less than the phase
    #: sum.
    wall_elapsed: float | None = None
    #: This refresh ran overlapped, as a
    #: :class:`repro.core.orchestrator.RefreshOrchestrator` round.
    pipelined: bool = False
    #: Package name -> serving mirror (overlapped refreshes only).
    mirror_assignments: dict[str, str] = field(default_factory=dict)
    #: Packages sanitized before the catalog barrier (overlapped
    #: refreshes only).
    sanitized_early: int = 0
    #: Packages whose download was satisfied by another tenant's transfer
    #: or the content-addressed cache, and the bytes that did not have to
    #: move again because of it.
    deduped_downloads: int = 0
    deduped_download_bytes: int = 0
    #: Packages whose catalog scan replayed a memoized delta.
    deduped_scans: int = 0
    #: Packages whose sanitization reused a shared content analysis.
    shared_sanitize: int = 0
    #: Downloads that started on first-wave entry agreement, while quorum
    #: extension reads were still in flight.
    interleaved_downloads: int = 0
    #: Re-downloads forced because the cached blob had been evicted.
    evicted_redownloads: int = 0
    #: Cached blobs whose content analysis was pre-scanned on the enclave
    #: while this repository's quorum was still widening (zero network).
    prescanned: int = 0
    #: Simulated seconds this repository's serving-induced re-sanitize
    #: jobs spent between being queued (an evicted-blob serve) and
    #: leaving the enclave channel this round — the measurable coupling
    #: of serving load back into refresh wall-clock (overlapped
    #: refreshes only).
    resanitize_wait_s: float = 0.0

    @property
    def phase_sum(self) -> float:
        """Resource-seconds across phases (ignores any overlap)."""
        return self.quorum_elapsed + self.download_elapsed + self.sanitize_elapsed

    @property
    def total_elapsed(self) -> float:
        """Simulated wall-clock this refresh took end to end."""
        if self.wall_elapsed is not None:
            return self.wall_elapsed
        return self.phase_sum

    @property
    def overlap_saved(self) -> float:
        """Seconds the overlap saved versus running the phases back to back."""
        return max(0.0, self.phase_sum - self.total_elapsed)


@dataclass(eq=False)
class ResanitizeJob:
    """One serving-induced enclave job.

    A time-stamped serve found the sanitized blob evicted from the disk
    cache: the simulation serves the publication's captured copy (bytes
    are identical either way), but a real TSR would have to re-run
    sanitization to restore its cached artifact — so the serve queues
    this job, and the next orchestrated refresh round drains the queue
    FIFO on the serial enclave channel *ahead of* that round's own
    sanitize work.  Serving load thereby couples back into refresh
    wall-clock, which is exactly the number the replica tier wins back.
    """

    repo_id: str
    name: str
    #: Plan instant of the serve that queued the job.
    queued_at: float
    #: Simulated enclave seconds the job occupies (the last measured
    #: sanitize duration for this package, or a bytes-rate estimate when
    #: this deployment never sanitized it).
    duration: float
    size_bytes: int
    #: The verified published blob to restore into the cache.
    blob: bytes


@dataclass(frozen=True)
class RepoConfig:
    """Resolved per-repository refresh configuration.

    Hoisted out of :meth:`TrustedSoftwareRepository.refresh`, which used
    to re-export the enclave state, re-parse the policy YAML, and re-sort
    the mirror set on *every* call.  Policies are immutable after
    deployment, so this is resolved once per repository and shared by the
    phased and overlapped refresh paths (the cache is
    dropped on :meth:`TrustedSoftwareRepository.restart`).
    """

    repo_id: str
    #: The parsed policy (host-deployed, nothing secret in it): the
    #: orchestrator needs the signer keys to validate index responses
    #: host-side before counting optimistic entry votes, and the package
    #: filter to skip downloads the enclave would discard anyway.
    policy: SecurityPolicy
    #: Policy mirrors in policy order ({"hostname", "continent"} dicts).
    mirrors: tuple[dict, ...]
    #: The same mirrors, fastest-first from the TSR host.
    ordered_mirrors: tuple[dict, ...]


class TrustedSoftwareRepository:
    """A TSR deployment: enclave + cache + network endpoint."""

    def __init__(self, hostname: str, network: Network, cpu: SgxCpu, tpm: Tpm,
                 continent=None, key_bits: int = 1024,
                 sgx_enabled: bool = True, epc_model: EpcModel | None = None,
                 cache: PackageCache | None = None,
                 delta_log_depth: int = 8):
        from repro.simnet.latency import Continent

        self.hostname = hostname
        self._network = network
        self._cpu = cpu
        self._tpm = tpm
        self._key_bits = key_bits
        self.sgx_enabled = sgx_enabled
        self.epc_model = epc_model or EpcModel()
        self.cache = cache or PackageCache()
        self._repo_configs: dict[str, RepoConfig] = {}
        #: This deployment's publications (multi-round replay) and the
        #: read path over them; packages are served cache-first.
        self.publication_log = PublicationLog(
            self, package_bytes=self._publication_blob)
        #: Time-stamped serving: cache hits vs publication-copy fallbacks
        #: (a fallback is a serve the cache could not satisfy — evicted or
        #: already overwritten by a newer round).  Every fallback queues a
        #: re-sanitize job, so ``serve_fallbacks`` counts *queued*
        #: re-sanitizes: a second fallback serve of an already-queued
        #: package rides the pending job and is not recounted.
        self.serve_cache_hits = 0
        self.serve_fallbacks = 0
        #: Serving-debt policy: when True (default), every fallback serve
        #: queues a re-sanitize job that the next orchestrated refresh
        #: drains on the serial enclave channel — serving load couples
        #: into refresh wall-clock.  False serves the captured copy
        #: without restoring the cached artifact (fallbacks still count);
        #: benches that compare refresh *scheduling* disable it so both
        #: arms carry identical enclave work.
        self.resanitize_serves = True
        #: FIFO re-sanitize queue plus the (repo, package) keys currently
        #: in it; drained by :meth:`take_resanitize_jobs`.
        self._resanitize_jobs: list[ResanitizeJob] = []
        self._resanitize_queued: set[tuple[str, str]] = set()
        #: (repo_id, package) -> last measured simulated sanitize
        #: duration, plus an aggregate seconds-per-byte rate for packages
        #: this process has not sanitized yet.
        self._sanitize_cost: dict[tuple[str, str], float] = {}
        self._sanitize_rate_s = 0.0
        self._sanitize_rate_bytes = 0
        #: How many publications :meth:`record_publication` retains per
        #: repository.  ``None`` resolves to ``delta_log_depth + 1`` at
        #: prune time (so post-construction depth changes are honoured);
        #: the newest publication is always kept.
        self.publication_retention: int | None = None
        #: Chunk-manifest shas dropped by retention pruning (distinguishes
        #: a pruned base from one this TSR never published).
        self._pruned_manifest_shas: set[str] = set()
        #: How many publications back the delta endpoints will diff
        #: against (the publication-log depth bound: clients further
        #: behind get a full pull).  ``0`` disables delta serving.
        self.delta_log_depth = delta_log_depth
        #: (repo_id, base_serial, target_serial) -> index delta envelope;
        #: (base_sha, target_sha) -> package delta envelope.  N clients at
        #: the same base, on either tier, cost one diff computation per
        #: round, not N (replica logs share this deployment's memos,
        #: parsed-index cache and chunk manifests).
        self._index_delta_memo: dict[tuple[str, int, int], bytes] = {}
        self._package_delta_memo: dict[tuple[str, str], bytes | None] = {}
        #: (repo_id, serial) -> parsed publication index (diffing needs
        #: entries; same-serial publications carry byte-identical index
        #: bytes, and serial keys survive retention pruning's position
        #: shifts where log positions would not).
        self._publication_indexes: dict[tuple[str, int], object] = {}
        self._freshness = FreshnessManager(tpm)
        self._enclave = Enclave(cpu, TsrProgram, key_bits=key_bits)
        network.add_host(Host(
            name=hostname,
            continent=continent or Continent.EUROPE,
            handler=self._handle_request,
        ))

    # -- client-facing API (network handler) ---------------------------------------

    def _handle_request(self, operation: str, payload: object) -> tuple[object, int]:
        if operation == "deploy_policy":
            response = self.deploy_policy(str(payload))
            return response, 2048
        if operation == "get_index":
            if isinstance(payload, dict) and payload.get("as_of") is not None:
                blob = self.index_bytes_at(payload["repo"], payload["as_of"])
            else:
                repo_id = (payload["repo"] if isinstance(payload, dict)
                           else str(payload))
                blob = self._enclave.ecall("sanitized_index_bytes", repo_id)
            return blob, len(blob)
        if operation == "get_package":
            repo_id = payload["repo"]
            name = payload["name"]
            if payload.get("as_of") is not None:
                blob = self.serve_package_at(repo_id, name, payload["as_of"])
            else:
                blob = self.serve_package(repo_id, name)
            return blob, len(blob)
        if operation == "get_index_delta":
            blob = self.index_delta_at(payload["repo"], payload["base_serial"],
                                       payload.get("as_of"))
            return blob, len(blob)
        if operation == "get_package_delta":
            blob = self.package_delta_at(payload["repo"], payload["name"],
                                         payload["base_sha256"],
                                         payload.get("as_of"))
            return blob, len(blob)
        if operation == "attest":
            return self._enclave.ecall("quote_for_repo", str(payload)), 2048
        raise NetworkError(f"TSR {self.hostname}: unknown operation {operation!r}")

    # -- policy deployment -------------------------------------------------------------

    def deploy_policy(self, policy_yaml: str) -> dict:
        """Tenant onboarding: returns repo id, public key, and the quote."""
        deployed = self._enclave.ecall("deploy_policy", policy_yaml)
        attestation = self._enclave.ecall("quote_for_repo", deployed["repo_id"])
        deployed["quote"] = attestation["quote"]
        return deployed

    def repository_ids(self) -> list[str]:
        return self._enclave.ecall("repository_ids")

    def public_key_pem(self, repo_id: str) -> str:
        return self._enclave.ecall("public_key_pem", repo_id)

    # -- refresh (batch sanitization) ------------------------------------------------------

    def refresh(self, repo_id: str, parallel_downloads: int = 1,
                pipelined: bool = False) -> RefreshReport:
        """Quorum-read the upstream index, sanitize changed packages,
        publish a new sanitized index, and seal state.

        ``parallel_downloads`` spreads package fetches over that many
        concurrent mirror connections — the optimization the paper leaves
        as future work (Table 3 discussion); 1 reproduces the paper's
        sequential behaviour.

        ``pipelined`` runs the overlapped refresh instead: a one-tenant
        :class:`repro.core.orchestrator.RefreshOrchestrator` round, whose
        report this returns.  Index reads and downloads share one
        schedule, downloads fan out over every policy mirror concurrently,
        and sanitization starts while later packages are still in flight.
        Verdicts and sanitized bytes are identical to sequential mode;
        only the schedule differs.
        """
        if parallel_downloads < 1:
            raise ValueError("parallel_downloads must be >= 1")
        if pipelined:
            from repro.core.orchestrator import RefreshOrchestrator

            return RefreshOrchestrator(self, [repo_id]).run().reports[repo_id]

        policy_mirrors = self._policy_mirrors(repo_id)
        quorum_start = self._network.clock.now()
        quorum = self._read_quorum(repo_id)
        quorum_elapsed = self._network.clock.now() - quorum_start

        download_elapsed = 0.0
        sanitize_elapsed = 0.0
        downloaded = 0
        evicted_redownloads = 0
        deduped_downloads = 0
        deduped_download_bytes = 0
        rejected: list[tuple[str, str]] = []
        results: list[SanitizationResult] = []

        # Pass 1: make sure every changed package blob is available locally
        # (cache hit, content-store hit, or mirror download), verified
        # against the quorum index.  Content-store hits are blobs another
        # tenant's orchestrated refresh already landed (cross-tenant
        # dedupe reaching the single-repo path).
        blobs: dict[str, bytes] = {}
        to_download: list[str] = []
        for name in quorum["changed"]:
            expected = quorum["expected"][name]
            blob, source, evicted = self.cache.lookup_blob(repo_id, name,
                                                           expected)
            if blob is not None:
                self._advance_disk_read(len(blob))
                blobs[name] = blob
                if source == "content":
                    deduped_downloads += 1
                    deduped_download_bytes += len(blob)
                continue
            if evicted:
                evicted_redownloads += 1
            to_download.append(name)

        if parallel_downloads == 1:
            for name in to_download:
                start = self._network.clock.now()
                blob = self._download_package(policy_mirrors, name,
                                              quorum["expected"][name])
                download_elapsed += self._network.clock.now() - start
                downloaded += len(blob)
                self.cache.put_original(repo_id, name, blob)
                blobs[name] = blob
        elif to_download:
            start = self._network.clock.now()
            fetched = self._download_parallel(policy_mirrors, to_download,
                                              quorum["expected"],
                                              parallel_downloads)
            download_elapsed += self._network.clock.now() - start
            for name, blob in fetched.items():
                downloaded += len(blob)
                self.cache.put_original(repo_id, name, blob)
                blobs[name] = blob

        # Pass 2: account catalog over the whole upstream set (first refresh)
        # or just the changed set (incremental refreshes keep the catalog).
        for name, blob in blobs.items():
            self._enclave.ecall("scan_for_accounts", repo_id, blob)
        catalog_info = self._enclave.ecall("finish_catalog", repo_id)

        # Pass 3: sanitize.
        for name, blob in blobs.items():
            try:
                result = self._enclave.ecall("sanitize_package", repo_id, blob)
            except SanitizationRejected as exc:
                rejected.append((name, exc.reason))
                continue
            duration = self._simulated_sanitize_time(result)
            sanitize_elapsed += duration
            self.note_sanitize_cost(repo_id, name, len(blob), duration)
            self.cache.put_sanitized(repo_id, name, result.blob)
            results.append(result)

        index_bytes = self._enclave.ecall("finalize_index", repo_id)
        del index_bytes  # published on demand via get_index
        self._seal_state()
        return RefreshReport(
            serial=quorum["serial"],
            changed_packages=list(quorum["changed"]),
            sanitized=len(results),
            rejected=rejected,
            downloaded_bytes=downloaded,
            quorum_elapsed=quorum_elapsed,
            download_elapsed=download_elapsed,
            sanitize_elapsed=sanitize_elapsed,
            insecure_findings=catalog_info["insecure_findings"],
            results=results,
            evicted_redownloads=evicted_redownloads,
            deduped_downloads=deduped_downloads,
            deduped_download_bytes=deduped_download_bytes,
        )

    def repo_config(self, repo_id: str) -> RepoConfig:
        """Resolved refresh configuration for one repository, cached.

        One enclave state export + policy parse + RTT sort per repository
        instead of per refresh; the orchestrator and the single-repo
        paths share the same resolution.
        """
        config = self._repo_configs.get(repo_id)
        if config is None:
            deployed = self._enclave.ecall("export_state")
            policy = SecurityPolicy.from_yaml(deployed[repo_id]["policy_yaml"])
            mirrors = [
                {"hostname": m.hostname, "continent": m.continent}
                for m in policy.mirrors
            ]
            ordered = self.mirrors_by_rtt(mirrors)
            config = RepoConfig(
                repo_id=repo_id,
                policy=policy,
                mirrors=tuple(mirrors),
                ordered_mirrors=tuple(ordered),
            )
            self._repo_configs[repo_id] = config
        return config

    def _policy_mirrors(self, repo_id: str) -> list[dict]:
        return list(self.repo_config(repo_id).mirrors)

    def mirrors_by_rtt(self, mirrors: list[dict]) -> list[dict]:
        """Policy mirrors sorted fastest-first from this host."""
        src_continent = self._network.host(self.hostname).continent
        return sorted(
            mirrors,
            key=lambda m: self._network.latency.base_rtt(src_continent,
                                                         m["continent"]),
        )

    def _read_quorum(self, repo_id: str) -> dict:
        """Read the upstream index from the fastest f+1 policy mirrors,
        widening one mirror at a time until f+1 signed answers agree
        (section 4.5), then let the enclave count those answers and
        decide."""
        policy = self.repo_config(repo_id).policy
        read = QuorumReader(self._network, self.hostname, policy.mirrors,
                            policy.signers_keys).read_index()
        return self._enclave.ecall("evaluate_quorum", repo_id,
                                   read.responses)

    def _download_package(self, mirrors: list[dict], name: str,
                          expected: dict) -> bytes:
        """Packages come from any single mirror; the quorum-validated index
        pins their hash, so corrupt downloads are detected immediately and
        retried on the next-fastest mirror."""
        ordered = self.mirrors_by_rtt(mirrors)
        last_error: Exception | str | None = None
        for mirror in ordered:
            try:
                response = self._network.call(
                    self.hostname, Request(mirror["hostname"], "get_package",
                                           payload=name)
                )
            except NetworkError as exc:
                last_error = exc
                continue
            blob = response.payload
            if not matches_expected(blob, expected):
                last_error = (
                    f"mirror {mirror['hostname']} served a blob that does "
                    "not match the quorum-validated index"
                )
                continue
            return blob
        raise NetworkError(
            f"package {name!r} unavailable from every policy mirror: {last_error}"
        )

    def _download_parallel(self, mirrors: list[dict], names: list[str],
                           expected: dict, width: int) -> dict[str, bytes]:
        """Fetch packages in concurrent waves, round-robining mirrors.

        Each wave issues up to ``width`` requests at once via the
        transport's schedule-backed gather (the clock advances by the
        slowest transfer of the wave, not the sum; concurrent payloads
        share the host's downlink with exact max-min accounting).  Failed
        or corrupt responses fall back to the verified sequential path.
        """
        ordered = self.mirrors_by_rtt(mirrors)
        fetched: dict[str, bytes] = {}
        pending = list(names)
        while pending:
            wave, pending = pending[:width], pending[width:]
            requests = [
                Request(ordered[i % len(ordered)]["hostname"], "get_package",
                        payload=name)
                for i, name in enumerate(wave)
            ]
            responses = self._network.gather(self.hostname, requests)
            for name, response in zip(wave, responses):
                want = expected[name]
                if (not isinstance(response, NetworkError)
                        and matches_expected(response.payload, want)):
                    fetched[name] = response.payload
                else:
                    fetched[name] = self._download_package(mirrors, name, want)
        return fetched

    # -- serving -----------------------------------------------------------------------------

    def serve_package(self, repo_id: str, name: str) -> bytes:
        """Serve a sanitized package from cache, re-verified in-enclave."""
        blob = self.cache.get_sanitized(repo_id, name)
        if blob is None:
            raise NetworkError(f"package {name!r} not available (not sanitized)")
        self._advance_disk_read(len(blob))
        self._enclave.ecall("check_cached_blob", repo_id, name, blob)
        return blob

    def get_index_bytes(self, repo_id: str) -> bytes:
        return self._enclave.ecall("sanitized_index_bytes", repo_id)

    # -- serving-induced re-sanitization --------------------------------------

    def note_sanitize_cost(self, repo_id: str, name: str, size_bytes: int,
                           duration: float):
        """Record one measured sanitize duration (the refresh paths call
        this) so a later re-sanitize of the same package is charged its
        real cost rather than a rate estimate."""
        self._sanitize_cost[(repo_id, name)] = duration
        self._sanitize_rate_s += duration
        self._sanitize_rate_bytes += size_bytes

    def _estimate_sanitize_cost(self, repo_id: str, name: str,
                                size_bytes: int) -> float:
        known = self._sanitize_cost.get((repo_id, name))
        if known is not None:
            return known
        if self._sanitize_rate_bytes > 0:
            return size_bytes * (self._sanitize_rate_s
                                 / self._sanitize_rate_bytes)
        return 0.0

    def _queue_resanitize(self, repo_id: str, name: str, blob: bytes,
                          at: float) -> bool:
        key = (repo_id, name)
        if key in self._resanitize_queued:
            return False
        self._resanitize_queued.add(key)
        self._resanitize_jobs.append(ResanitizeJob(
            repo_id=repo_id,
            name=name,
            queued_at=at,
            duration=self._estimate_sanitize_cost(repo_id, name, len(blob)),
            size_bytes=len(blob),
            blob=blob,
        ))
        return True

    def take_resanitize_jobs(self) -> list[ResanitizeJob]:
        """Drain the pending re-sanitize queue (FIFO by serve time).

        The orchestrated refresh calls this at round start and places the
        jobs on the serial enclave channel ahead of the round's own
        sanitize work; once drained, a package may queue again."""
        jobs = self._resanitize_jobs
        self._resanitize_jobs = []
        for job in jobs:
            self._resanitize_queued.discard((job.repo_id, job.name))
        return jobs

    def complete_resanitize(self, job: ResanitizeJob):
        """Restore a re-sanitized blob into the disk cache."""
        self.cache.put_sanitized(job.repo_id, job.name, job.blob)

    # -- versioned publications (multi-round replay) -------------------------

    def record_publication(self, repo_id: str,
                           available_at: float) -> Publication:
        """Freeze the repository's current served state at a plan instant.

        Captures the signed sanitized index plus the sanitized blobs it
        pins (sharing unchanged blob objects, and their pin checks, with
        the previous publication; reads bypass recency so snapshotting
        does not skew eviction) and appends it to
        :attr:`publication_log`, which serves it to clients and which
        edge replicas copy on sync.
        ``available_at`` is clamped monotonic: a round that finished out
        of order can never publish *before* its predecessor.  No chunk
        manifest is built here: :meth:`chunk_manifest` builds a base's
        manifest from these captured blobs on the first delta request
        against it, so publications nobody diffs against cost no
        chunking.

        The log is bounded: once it exceeds ``publication_retention``
        (default ``delta_log_depth + 1`` — every base within the delta
        depth bound stays diffable), the oldest publications are pruned
        together with the chunk manifests only they pinned and the delta
        envelopes built from or to them, and clients based that far back
        are answered with counted full pulls.
        """
        from repro.archive.index import parse_index_cached

        log = self.publication_log
        index_bytes = self._enclave.ecall("sanitized_index_bytes", repo_id)
        index = parse_index_cached(index_bytes)
        previous = log.newest(repo_id)
        if previous is not None:
            available_at = max(available_at, previous.available_at)
        publication = Publication(
            available_at=available_at,
            serial=index.serial,
            index_bytes=index_bytes,
            entries={name: (e.size, e.sha256)
                     for name, e in index.entries.items()},
            blobs={},
        )
        for name in publication.entries:
            if previous is not None and publication.keep(previous, name):
                continue
            blob = self.cache.peek_sanitized(repo_id, name)
            if blob is not None and publication.pins(name, blob):
                publication.blobs[name] = blob
        retention = self.publication_retention
        if retention is None:
            retention = self.delta_log_depth + 1
        dropped = log.append(repo_id, publication, max(1, retention))
        if dropped:
            retained = {sha for kept in log.publications(repo_id)
                        for _, sha in kept.entries.values()}
            for old in dropped:
                self._publication_indexes.pop((repo_id, old.serial), None)
                for _, sha in old.entries.values():
                    if sha not in retained:
                        self.cache.drop_chunk_manifest(sha)
                        self._pruned_manifest_shas.add(sha)
            self._prune_delta_memos(repo_id)
        return publication

    def _prune_delta_memos(self, repo_id: str) -> None:
        """Drop the delta envelopes whose base or target left retention:
        ``repo_id``'s index diffs from or to a pruned serial, and package
        diffs from or to a blob no tenant's log pins any more.  Both memos
        are pure, so a later request recomputes the same bytes."""
        log = self.publication_log
        serials = {kept.serial for kept in log.publications(repo_id)}
        for key in [key for key in self._index_delta_memo
                    if key[0] == repo_id
                    and not (key[1] in serials and key[2] in serials)]:
            del self._index_delta_memo[key]
        pinned = {sha for tenant in log.repo_ids()
                  for kept in log.publications(tenant)
                  for _, sha in kept.entries.values()}
        for key in [key for key in self._package_delta_memo
                    if not (key[0] in pinned and key[1] in pinned)]:
            del self._package_delta_memo[key]

    def publications(self, repo_id: str) -> list[Publication]:
        return self.publication_log.publications(repo_id)

    def index_bytes_at(self, repo_id: str, as_of: float) -> bytes:
        return self.publication_log.index_bytes_at(repo_id, as_of)

    def serve_package_at(self, repo_id: str, name: str,
                         as_of: float) -> bytes:
        """Serve a sanitized package as of a plan instant (see
        :meth:`_publication_blob` for where the bytes come from)."""
        return self.publication_log.serve_package_at(repo_id, name, as_of)

    def _publication_blob(self, repo_id: str, name: str,
                          publication: Publication,
                          at: float | None) -> bytes:
        """The primary's package byte source for publication serves.

        Reads through the disk cache first: serving is the cache's hot
        traffic, whose hit pattern under refresh churn the LRU/LRU-2
        ablation measures.  When the cached blob was evicted or replaced
        by a later round, serves the publication's captured copy and
        queues a re-sanitize job stamped with the serve instant ``at``
        (the clock for live serves) that the next refresh round pays for
        on the enclave channel (``serve_fallbacks`` counts these).  Both
        paths are checked against the signed index by
        :meth:`Publication.pins`, which hashes a blob again only when it
        is not the ``bytes`` object last found matching, so the bytes
        never depend on cache state and a tampered cache write (always a
        new object) is hashed and refused.  No clock advance: the replay
        plan accounts the transfer on its schedule.
        """
        cached = self.cache.get_sanitized(repo_id, name)
        if cached is not None and publication.pins(name, cached):
            self.serve_cache_hits += 1
            return cached
        blob = publication.captured_blob(name)
        if at is None:
            at = self._network.clock.now()
        if not self.resanitize_serves:
            self.serve_fallbacks += 1
        elif self._queue_resanitize(repo_id, name, blob, at):
            self.serve_fallbacks += 1
        return blob

    # -- delta serving (publication-log diffs) --------------------------------

    def chunk_manifest(self, sha256: str) -> bytes | None:
        """The chunk manifest of delta base ``sha256``, built on first use.

        Returns the cached manifest, else builds one from a retained
        publication's copy of the blob and caches it, else ``None`` (the
        base was never published, was pruned with its publication, or is
        not a chunkable apk).  Every tenant's log is searched because
        manifests are keyed by content.
        """
        manifest = self.cache.get_chunk_manifest(sha256)
        if manifest is not None:
            return manifest
        from repro.core.delta import blob_manifest
        from repro.util.errors import DeltaError, PackagingError
        blob = self.publication_log.blob_with_sha(sha256)
        if blob is None:
            return None
        try:
            manifest = blob_manifest(blob)
        except (DeltaError, PackagingError):
            return None  # unmanifestable blob: delta requests fall back
        self.cache.put_chunk_manifest(sha256, manifest)
        return manifest

    def index_delta_at(self, repo_id: str, base_serial: int,
                       as_of: float | None = None) -> bytes:
        """Serve a signed index diff from the publication log; an untimed
        request before the first publication gets the live enclave index
        as a ``no-publication`` full envelope."""
        log = self.publication_log
        if as_of is None and log.newest(repo_id) is None:
            return log.full_index("no-publication",
                                  self.get_index_bytes(repo_id))
        return log.index_delta_at(repo_id, base_serial, as_of)

    def package_delta_at(self, repo_id: str, name: str, base_sha256: str,
                         as_of: float | None = None) -> bytes:
        """Serve a package chunk delta from the publication log; an untimed
        request before the first publication gets the live cache blob as
        a ``no-publication`` full envelope."""
        log = self.publication_log
        if as_of is None and log.newest(repo_id) is None:
            return log.full_package("no-publication",
                                    self.serve_package(repo_id, name))
        return log.package_delta_at(repo_id, name, base_sha256, as_of)

    # -- restart & freshness ---------------------------------------------------------------------

    def _seal_state(self):
        state = self._enclave.ecall("export_state")
        sealed = self._freshness.persist(self._enclave.sealing_key(), state)
        self.cache.disk.write_file(SEALED_STATE_PATH, sealed)

    def restart(self):
        """Stop the enclave and bring up a fresh one from sealed state.

        Raises :class:`RollbackError` if the on-disk sealed state is stale
        or tampered (the adversary rolled the cache back).
        """
        self._repo_configs.clear()
        self._enclave.destroy()
        self._enclave = Enclave(self._cpu, TsrProgram, key_bits=self._key_bits)
        if not self.cache.disk.isfile(SEALED_STATE_PATH):
            raise RollbackError("sealed state missing after restart")
        sealed = self.cache.disk.read_file(SEALED_STATE_PATH)
        state = self._freshness.restore(self._enclave.sealing_key(), sealed)
        self._enclave.ecall("restore_state", state)

    # -- time accounting ---------------------------------------------------------------------------

    def _advance_disk_read(self, size: int):
        self._network.clock.advance(
            LOCAL_DISK_SEEK_S + size / LOCAL_DISK_BANDWIDTH_BYTES_PER_S
        )

    def simulated_sanitize_duration(self, result: SanitizationResult) -> float:
        """Measured native sanitize time mapped onto the simulated clock
        (EPC-scaled when SGX is on); does not advance the clock."""
        native = result.timings.total
        if not self.sgx_enabled:
            return native
        return self.epc_model.simulated_duration(
            native, result.working_set_bytes
        )

    def _simulated_sanitize_time(self, result: SanitizationResult) -> float:
        duration = self.simulated_sanitize_duration(result)
        self._network.clock.advance(duration)
        return duration
