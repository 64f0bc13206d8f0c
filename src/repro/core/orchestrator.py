"""Multi-tenant refresh orchestration: one plan, one enclave, N tenants.

A TSR hosts many tenant repositories behind one enclave (paper section
5.2), but the refresh path used to be strictly single-repo and strictly
phased: a TSR serving N tenants ran N full quorum → download → catalog →
sanitize sequences back to back, re-downloading and re-analyzing identical
upstream packages once per tenant and idling the network whenever the
enclave worked.  :class:`RefreshOrchestrator` schedules the refreshes of
*multiple* repositories as one plan on a single
:class:`repro.simnet.schedule.ParallelTransferSchedule` timeline:

* **interleaved quorums** — every tenant's first quorum wave starts at
  plan time zero; extension reads compose onto the shared timeline, and
  all index transfers share the TSR downlink with exact max-min
  accounting.  The widening loop and the ``evaluate_quorum`` ecalls are
  the same as the phased path's, fed the same responses in the same
  order, so *verdicts are identical* — only the clock accounting differs.
* **quorum/download interleaving** — while a tenant's quorum is still
  widening, package downloads start for index entries already agreed by
  f+1 signature-valid responses (:func:`repro.core.quorum.entry_agreement`
  proves such entries must appear in any eventual winning index).  The
  refresh head no longer serializes behind the slowest mirror's answer.
* **cross-tenant download dedupe** — blobs are content-addressed in the
  :class:`repro.core.cache.PackageCache`: when two tenants' quorum
  indexes pin the same upstream blob, the second tenant rides the first
  tenant's in-flight transfer (or the content store) instead of opening
  its own, with per-tenant accounting preserved in each
  :class:`repro.core.service.RefreshReport`.
* **cross-tenant scan/analysis dedupe** — inside a
  ``begin_shared_refresh`` window the enclave memoizes the
  content-determined halves of catalog scanning and sanitization
  (:mod:`repro.core.program`); the per-repository halves (catalog delta
  replay, prelude splicing, signing, repacking) always run per tenant,
  so sanitized outputs stay byte-identical to N separate phased
  refreshes.
* **the enclave as the shared serial resource** — sanitize jobs from all
  tenants queue on one serial enclave channel, FIFO by blob readiness,
  with per-tenant catalog barriers; the recorded ``enclave_timeline``
  exposes the serialization for tests.

The differential property the tests pin: for identically built
deployments, an orchestrated multi-tenant refresh produces byte-identical
sanitized indexes and packages, and identical quorum verdicts, to running
the N phased refreshes serially — while finishing in a fraction of the
simulated wall-clock (`benchmarks/bench_multi_tenant_refresh.py`).

This is the repository's one overlapped refresh engine: a single
repository's ``refresh(pipelined=True)`` runs it as a one-tenant round,
next to the paper's phased ``refresh()``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.archive.index import RepositoryIndex
from repro.core.pipeline import MirrorDownloadScheduler
from repro.core.quorum import entry_agreement, validate_signed_index
from repro.core.sanitizer import SanitizationRejected, SanitizationResult
from repro.core.service import RefreshReport, matches_expected
from repro.simnet.latency import (
    LOCAL_DISK_BANDWIDTH_BYTES_PER_S,
    LOCAL_DISK_SEEK_S,
)
from repro.simnet.network import Request
from repro.util.errors import NetworkError, QuorumError


@dataclass
class MultiTenantRefreshReport:
    """One orchestrated (or phased-serial baseline) multi-tenant refresh."""

    #: repo_id -> that tenant's refresh report.
    reports: dict[str, RefreshReport]
    #: Simulated wall-clock of the whole plan (relative to its origin).
    wall_elapsed: float
    orchestrated: bool = True
    #: (repo_id, package, start, finish) of every sanitize job on the
    #: serial enclave channel, in execution order.
    enclave_timeline: list[tuple[str, str, float, float]] = \
        field(default_factory=list)
    #: Enclave memo counters from ``end_shared_refresh``.
    memo_stats: dict = field(default_factory=dict)
    #: Plan-time offset this round started at (multi-round plans place
    #: successive rounds at their trace instants; standalone runs at 0).
    origin: float = 0.0
    #: Absolute plan-time offset the round's last activity ended at.
    finished_at: float = 0.0

    @property
    def phase_sum(self) -> float:
        """Resource-seconds across all tenants (ignores any overlap)."""
        return sum(r.phase_sum for r in self.reports.values())

    @property
    def downloads_deduped(self) -> int:
        return sum(r.deduped_downloads for r in self.reports.values())

    @property
    def dedupe_bytes_saved(self) -> int:
        return sum(r.deduped_download_bytes for r in self.reports.values())

    @property
    def scans_deduped(self) -> int:
        return sum(r.deduped_scans for r in self.reports.values())

    @property
    def sanitize_shared(self) -> int:
        return sum(r.shared_sanitize for r in self.reports.values())

    @property
    def interleaved_downloads(self) -> int:
        return sum(r.interleaved_downloads for r in self.reports.values())

    @property
    def evicted_redownloads(self) -> int:
        return sum(r.evicted_redownloads for r in self.reports.values())

    @property
    def prescans(self) -> int:
        return sum(r.prescanned for r in self.reports.values())

    @property
    def sanitized(self) -> int:
        return sum(r.sanitized for r in self.reports.values())

    @property
    def resanitize_wait_s(self) -> float:
        return sum(r.resanitize_wait_s for r in self.reports.values())

    @property
    def downloaded_bytes(self) -> int:
        return sum(r.downloaded_bytes for r in self.reports.values())


@dataclass
class RefreshPlanState:
    """Cross-round state of a resumable refresh plan.

    A multi-round driver (the trace replay engine,
    :mod:`repro.workload.replay`) creates one of these and passes it to
    every :class:`RefreshOrchestrator` round: successive rounds then
    *extend* the same :class:`~repro.core.pipeline.MirrorDownloadScheduler`
    schedule (per-mirror channels stay serialized across rounds), see the
    same in-flight transfer table (a later round rides an earlier round's
    still-moving blob), and queue behind the same enclave and cache-shard
    frontiers — instead of every round being rebuilt from a cold, empty
    plan at time zero.
    """

    #: Shared download scheduler; created by the first round that runs.
    scheduler: object | None = None
    #: Cache shard -> busy-until, carried across rounds.
    shard_free: dict[int, float] = field(default_factory=dict)
    #: The serial enclave channel's busy-until, carried across rounds.
    enclave_free: float = 0.0
    #: sha256 -> _Source of the transfers currently moving.  Spans the
    #: tenants of one round and is cleared when the round resolves:
    #: cross-round reuse must flow through the content-addressed cache,
    #: which owns eviction — a long-gone transfer must never serve bytes
    #: the cache has since evicted.
    inflight: dict[str, "_Source"] = field(default_factory=dict)
    #: Index-wave channel sequence (keeps channels unique across rounds).
    idx_seq: int = 0
    rounds: int = 0
    #: Keep the enclave's shared-refresh memos alive across rounds: each
    #: round bumps the window's generation instead of discarding it, so
    #: steady-state rounds replay unchanged blobs' analyses (charged at
    #: their originally recorded costs — simulated time and per-round
    #: dedupe accounting are unchanged) instead of re-parsing them.  The
    #: driver that sets this owns closing the window when the plan ends.
    persistent_enclave_memo: bool = False


@dataclass(eq=False)
class _Source:
    """One in-flight transfer other acquisitions may ride."""

    batch: object  # DownloadBatch
    name: str
    owner: str     # repo_id that pays for the transfer
    optimistic: bool = False


@dataclass(eq=False)
class _SanJob:
    """One (repo, package) travelling to the enclave channel."""

    name: str
    blob: bytes
    ready: float
    needs_catalog: bool = False


@dataclass(eq=False)
class _TenantPlan:
    """Per-repository progress through the orchestrated plan."""

    index: int
    repo_id: str
    config: object  # RepoConfig
    ordered: list[dict]
    needed: int
    #: Quorum state — mirrors the phased widening loop exactly.
    responses: list[tuple[str, bytes]] = field(default_factory=list)
    valid_indexes: list[RepositoryIndex] = field(default_factory=list)
    frontier: float = 0.0
    cursor: int = 0
    quorum: dict | None = None
    quorum_elapsed: float = 0.0
    optimistic_names: set[str] = field(default_factory=set)
    #: package -> acquisition: ("blob", bytes, ready) | ("src", _Source).
    acquire: dict[str, tuple] = field(default_factory=dict)
    jobs: dict[str, _SanJob] = field(default_factory=dict)
    barrier: float = 0.0
    end: float = 0.0
    catalog_info: dict | None = None
    #: Accounting (lands in this tenant's RefreshReport).
    downloaded_bytes: int = 0
    download_elapsed: float = 0.0
    sanitize_elapsed: float = 0.0
    deduped_downloads: int = 0
    deduped_download_bytes: int = 0
    deduped_scans: int = 0
    shared_sanitize: int = 0
    interleaved_downloads: int = 0
    evicted_redownloads: int = 0
    prescanned: int = 0
    sanitized_early: int = 0
    rejected: list[tuple[str, str]] = field(default_factory=list)
    results: list[SanitizationResult] = field(default_factory=list)
    mirror_assignments: dict[str, str] = field(default_factory=dict)


class RefreshOrchestrator:
    """Plans and executes one multi-tenant refresh on a shared timeline."""

    def __init__(self, service, repo_ids: list[str], origin: float = 0.0,
                 plan_state: RefreshPlanState | None = None):
        if not repo_ids:
            raise ValueError("orchestrator needs at least one repository")
        if len(set(repo_ids)) != len(repo_ids):
            raise ValueError(f"duplicate repository ids: {repo_ids}")
        if origin < 0:
            raise ValueError(f"plan origin must be >= 0: {origin}")
        self._service = service
        self._network = service._network
        #: Plan-time offset this round's first quorum waves start at.
        self._origin = origin
        #: Standalone rounds advance the clock by their own makespan; a
        #: multi-round driver (a ``plan_state`` round) owns the clock and
        #: advances it once at the end of the whole trace.
        self._plan_state = plan_state
        self._plans: list[_TenantPlan] = []
        for index, repo_id in enumerate(repo_ids):
            config = service.repo_config(repo_id)
            self._plans.append(_TenantPlan(
                index=index,
                repo_id=repo_id,
                config=config,
                ordered=[dict(m) for m in config.ordered_mirrors],
                needed=config.policy.quorum_size(),
                frontier=origin,
            ))
        state = plan_state or RefreshPlanState()
        #: sha256 -> _Source for every transfer issued by this plan.
        self._inflight: dict[str, _Source] = state.inflight
        #: Cache shard -> busy-until (shared across all tenants' disk I/O).
        self._shard_free: dict[int, float] = state.shard_free
        self._timeline: list[tuple[str, str, float, float]] = []
        self._idx_seq = state.idx_seq
        #: Enclave busy-until while pre-scans run during quorum widening.
        self._enclave_busy = state.enclave_free
        self._prescanned: set[str] = set()
        #: repo_id -> summed (finish - queued_at) of the serving-induced
        #: re-sanitize jobs this round drained for that repository.
        self._resanitize_waits: dict[str, float] = {}
        #: (plan, batch) for every batch issued by THIS round.  On a
        #: shared multi-round scheduler, materialization must never walk
        #: earlier rounds' dead batches — that would resurrect blobs the
        #: cache has since evicted (and grow each round's work with plan
        #: length).
        self._round_batches: list[tuple[_TenantPlan, object]] = []

    # -- public entry -------------------------------------------------------

    def run(self) -> MultiTenantRefreshReport:
        """Execute the whole plan; advances the clock by its makespan
        (standalone rounds only — plan-state rounds leave the clock to
        the multi-round driver)."""
        state = self._plan_state
        if state is not None and state.scheduler is not None:
            scheduler = state.scheduler
        else:
            scheduler = MirrorDownloadScheduler(self._service)
            if state is not None:
                state.scheduler = scheduler
        self._resanitize_phase()
        enclave = self._service._enclave
        keep_memo = state is not None and state.persistent_enclave_memo
        enclave.ecall("begin_shared_refresh", keep_memo)
        try:
            self._quorum_phase(scheduler)
            self._download_phase(scheduler)
            self._scan_phase()
            enclave_free = self._sanitize_phase()
        finally:
            memo_stats = enclave.ecall("end_shared_refresh", keep_memo)
        for plan in self._plans:
            if plan.catalog_info is None:
                plan.catalog_info = enclave.ecall("finish_catalog",
                                                  plan.repo_id)
            index_bytes = enclave.ecall("finalize_index", plan.repo_id)
            del index_bytes  # published on demand via get_index
        self._service._seal_state()

        makespan = max([
            self._origin,
            enclave_free,
            *(plan.end for plan in self._plans),
            *self._shard_free.values(),
        ])
        if state is not None:
            state.enclave_free = enclave_free
            state.idx_seq = self._idx_seq
            state.rounds += 1
        # Every batch resolved: later rounds read landed blobs from the
        # content store (eviction-aware), not from dead _Source records.
        self._inflight.clear()
        # This round has consumed its download results; freeze its
        # batches so cross-round schedulers stop recomputing them (and,
        # on a schedule whose stream is advanced, can retire their keys
        # once drained).
        scheduler.settle_round()
        if state is None:
            self._network.clock.advance(makespan - self._origin)
        reports = {
            plan.repo_id: self._report_for(plan) for plan in self._plans
        }
        return MultiTenantRefreshReport(
            reports=reports,
            wall_elapsed=makespan - self._origin,
            orchestrated=True,
            enclave_timeline=list(self._timeline),
            memo_stats=memo_stats,
            origin=self._origin,
            finished_at=makespan,
        )

    # -- serving-induced re-sanitize queue ----------------------------------

    def _resanitize_phase(self):
        """Drain the primary's re-sanitize queue ahead of this round.

        Evicted-blob serves since the last round queued real enclave
        work (:meth:`TrustedSoftwareRepository.take_resanitize_jobs`);
        it runs FIFO on the same serial enclave channel the round's
        refresh sanitize jobs are about to queue on, so serving load
        couples directly into refresh wall-clock.  No enclave ecall is
        issued — the sanitized bytes are already pinned by the signed
        publication; only the simulated enclave occupancy and the disk
        write restoring the cached copy are charged.
        """
        service = self._service
        cache = service.cache
        plans = {plan.repo_id: plan for plan in self._plans}
        for job in service.take_resanitize_jobs():
            start = max(self._enclave_busy, self._origin, job.queued_at)
            finish = start + job.duration
            self._enclave_busy = finish
            service.complete_resanitize(job)
            self._charge_shard(plans.get(job.repo_id),
                               cache.shard_index(job.repo_id, job.name),
                               job.size_bytes, finish)
            self._timeline.append((job.repo_id, f"resanitize:{job.name}",
                                   start, finish))
            self._resanitize_waits[job.repo_id] = \
                self._resanitize_waits.get(job.repo_id, 0.0) \
                + (finish - job.queued_at)

    # -- quorum phase -------------------------------------------------------

    def _issue_index_wave(self, plan: _TenantPlan, mirrors: list[dict],
                          start_at: float, scheduler) -> list[tuple]:
        """Probe index reads and place them on the shared timeline.

        Each request gets its own schedule channel (independent
        connections, as in the phased ``gather``); ``start_at`` delays the
        setup phase so extension reads begin at the frontier that
        triggered them.
        """
        issued = []
        for mirror in mirrors:
            self._idx_seq += 1
            channel = ("idx", self._idx_seq)
            key = ("idx", plan.repo_id, self._idx_seq)
            try:
                probe = self._network.probe(
                    self._service.hostname,
                    Request(mirror["hostname"], "get_index"),
                )
            except NetworkError:
                issued.append((mirror, None, None))
                continue
            scheduler.schedule.enqueue(channel, key, start_at + probe.setup,
                                       probe.size_bytes, probe.bandwidth)
            issued.append((mirror, key, probe.payload))
        return issued

    def _host_validate(self, plan: _TenantPlan, payload: object):
        """Host-side parse + signature check, for optimistic vote counting.

        Only signature-valid indexes vote (the enclave applies the same
        check in ``evaluate_quorum``), which keeps the entry-agreement
        pigeonhole argument sound and stops a forged response from
        triggering downloads of fabricated entries.
        """
        index = validate_signed_index(payload,
                                      plan.config.policy.signers_keys)
        if index is not None:
            plan.valid_indexes.append(index)

    def _quorum_phase(self, scheduler):
        """All tenants' widening loops, interleaved on one timeline."""
        waves: dict[_TenantPlan, list[tuple]] = {}
        for plan in self._plans:
            first = plan.ordered[:plan.needed]
            plan.cursor = len(first)
            waves[plan] = self._issue_index_wave(plan, first, self._origin,
                                                 scheduler)
        active = list(self._plans)
        while active:
            timings = scheduler.schedule.solve()
            next_waves: dict[_TenantPlan, list[tuple]] = {}
            for plan in list(active):
                wave = waves[plan]
                finishes = [timings[key].finish
                            for _, key, _ in wave if key is not None]
                plan.frontier = (max(finishes) if finishes
                                 else plan.frontier + self._network.timeout)
                for mirror, key, payload in wave:
                    if key is None:
                        continue
                    plan.responses.append((mirror["hostname"], payload))
                    self._host_validate(plan, payload)
                try:
                    plan.quorum = self._service._enclave.ecall(
                        "evaluate_quorum", plan.repo_id, plan.responses)
                    plan.quorum_elapsed = plan.frontier
                    plan.end = max(plan.end, plan.frontier)
                    active.remove(plan)
                    continue
                except QuorumError:
                    if plan.cursor >= len(plan.ordered):
                        raise
                self._launch_optimistic(plan, scheduler)
                next_waves[plan] = self._issue_index_wave(
                    plan, [plan.ordered[plan.cursor]], plan.frontier,
                    scheduler)
                plan.cursor += 1
            waves = next_waves

    def _launch_optimistic(self, plan: _TenantPlan, scheduler):
        """Start downloads for entries the partial quorum already pins.

        Entries whose blob is *already local* need no transfer; instead
        their content-determined analysis is pre-scanned on the enclave
        while the quorum keeps widening (zero network), so incremental
        rounds hit a warm memo when the sanitize phase opens.
        """
        cache = self._service.cache
        agreed = entry_agreement(plan.valid_indexes, plan.needed)
        names: list[str] = []
        expected: dict[str, dict] = {}
        for name in sorted(agreed):
            entry = agreed[name]
            sha = entry["sha256"]
            if not plan.config.policy.allows_package(name):
                continue
            if name in plan.optimistic_names or sha in self._inflight:
                continue
            if cache.has_content(sha):
                blob = cache.get_content(sha)
                if blob is not None and matches_expected(blob, entry):
                    self._prescan(plan, sha, blob,
                                  cache.content_shard_index(sha))
                continue
            # A named original only satisfies the entry when it matches
            # the *agreed* hash — a stale cached version of an updated
            # package must not suppress its interleaved download.
            cached = cache.get_original(plan.repo_id, name)
            if cached is not None and matches_expected(cached, entry):
                self._prescan(plan, sha, cached,
                              cache.shard_index(plan.repo_id, name))
                continue
            names.append(name)
            expected[name] = dict(entry)
        if not names:
            return
        batch = scheduler.add_batch(
            names, expected, mirrors=list(plan.ordered),
            not_before=plan.frontier, best_effort=True)
        self._round_batches.append((plan, batch))
        for name in names:
            self._inflight[expected[name]["sha256"]] = _Source(
                batch=batch, name=name, owner=plan.repo_id, optimistic=True)
            plan.optimistic_names.add(name)
        plan.interleaved_downloads += len(names)

    def _prescan(self, plan: _TenantPlan, sha: str, blob: bytes, shard: int):
        """Warm the enclave's shared analysis memo for one cached blob.

        Runs during quorum widening, so the analysis cost is paid on the
        otherwise-idle enclave ahead of the sanitize phase; sanitizing the
        same blob later replays the memo (:meth:`TsrProgram.analyze_blob`
        cannot change verdicts or bytes — only the schedule).
        """
        if sha in self._prescanned:
            return
        self._prescanned.add(sha)
        info = self._service._enclave.ecall("analyze_blob", plan.repo_id,
                                            blob)
        plan.prescanned += 1
        if info["deduped"]:
            return
        # Disk read off the blob's shard, then the serial enclave channel.
        ready = self._charge_shard(plan, shard, len(blob), plan.frontier)
        duration = self._service.epc_model.simulated_duration(
            info["native"], info["working_set"]
        ) if self._service.sgx_enabled else info["native"]
        self._enclave_busy = max(self._enclave_busy, ready) + duration

    # -- download phase -----------------------------------------------------

    def _download_phase(self, scheduler):
        """Per-tenant batches, deduped by content, on the shared schedule."""
        cache = self._service.cache
        order = sorted(self._plans,
                       key=lambda p: (p.quorum_elapsed, p.index))
        for plan in order:
            expected = plan.quorum["expected"]
            to_fetch: list[str] = []
            for name in plan.quorum["changed"]:
                want = expected[name]
                sha = want["sha256"]
                blob, hit, evicted = cache.lookup_blob(plan.repo_id, name,
                                                       want)
                if blob is not None:
                    if hit == "named":
                        shard = cache.shard_index(plan.repo_id, name)
                    else:
                        shard = cache.content_shard_index(sha)
                        plan.deduped_downloads += 1
                        plan.deduped_download_bytes += len(blob)
                    ready = self._charge_shard(plan, shard, len(blob),
                                               plan.quorum_elapsed)
                    plan.acquire[name] = ("blob", blob, ready)
                    continue
                source = self._inflight.get(sha)
                if source is not None:
                    plan.acquire[name] = ("src", source)
                    continue
                if evicted:
                    plan.evicted_redownloads += 1
                to_fetch.append(name)
            if to_fetch:
                batch = scheduler.add_batch(
                    to_fetch, {n: expected[n] for n in to_fetch},
                    mirrors=list(plan.ordered),
                    not_before=plan.quorum_elapsed)
                self._round_batches.append((plan, batch))
                for name in to_fetch:
                    source = _Source(batch=batch, name=name,
                                     owner=plan.repo_id)
                    self._inflight[expected[name]["sha256"]] = source
                    plan.acquire[name] = ("src", source)
        scheduler.resolve()
        self._refetch_failed(scheduler)
        self._materialize(scheduler)

    def _refetch_failed(self, scheduler):
        """Re-issue needed packages whose best-effort fetch failed.

        An optimistic transfer may exhaust its mirrors without raising
        (``best_effort``); a tenant that depended on it falls back to a
        normal batch here.  Starts after the current schedule drains (the
        failure was detected no earlier), and the replacement batch is
        *not* best-effort, so genuine unavailability still raises as in
        the phased path.
        """
        while True:
            missing: dict[_TenantPlan, list[str]] = {}
            for plan in self._plans:
                for name, acq in plan.acquire.items():
                    if acq[0] != "src":
                        continue
                    source = acq[1]
                    if source.name not in source.batch.fetched:
                        missing.setdefault(plan, []).append(name)
            if not missing:
                return
            frees = scheduler.channel_frees()
            detect = max(frees.values(), default=0.0)
            for plan, names in missing.items():
                expected = plan.quorum["expected"]
                batch = scheduler.add_batch(
                    names, {n: expected[n] for n in names},
                    mirrors=list(plan.ordered), not_before=detect)
                self._round_batches.append((plan, batch))
                for name in names:
                    source = _Source(batch=batch, name=name,
                                     owner=plan.repo_id)
                    self._inflight[expected[name]["sha256"]] = source
                    plan.acquire[name] = ("src", source)
            scheduler.resolve()

    def _materialize(self, scheduler):
        """Turn resolved acquisitions into sanitize jobs + accounting."""
        cache = self._service.cache
        # Every blob fetched by THIS round enters the content-addressed
        # store once, charged to its landing shard as it completes.  On a
        # shared multi-round scheduler, earlier rounds' batches are dead:
        # walking them would resurrect blobs the cache evicted since.
        written: set[str] = set()
        for owner, batch in self._round_batches:
            for name, blob in batch.fetched.items():
                sha = batch.expected[name]["sha256"]
                if sha in written or cache.has_content(sha):
                    continue
                cache.put_content(blob, sha)
                self._charge_shard(owner, cache.content_shard_index(sha),
                                   len(blob), batch.finishes[name])
                written.add(sha)

        for plan in self._plans:
            for name in plan.quorum["changed"]:
                acq = plan.acquire[name]
                if acq[0] == "blob":
                    _, blob, ready = acq
                else:
                    source = acq[1]
                    blob = source.batch.fetched[source.name]
                    finish = source.batch.finishes[source.name]
                    if source.owner == plan.repo_id:
                        plan.downloaded_bytes += len(blob)
                        plan.download_elapsed += \
                            source.batch.durations[source.name]
                        plan.mirror_assignments[name] = \
                            source.batch.assignments[source.name]
                        # An optimistic blob may land before its quorum
                        # completes; the enclave only verifies it against
                        # an *accepted* index, so it queues no earlier.
                        ready = max(finish, plan.quorum_elapsed)
                    else:
                        # Another tenant paid for the transfer; this one
                        # reads the landed blob off the content shard.
                        plan.deduped_downloads += 1
                        plan.deduped_download_bytes += len(blob)
                        sha = plan.quorum["expected"][name]["sha256"]
                        ready = self._charge_shard(
                            plan, cache.content_shard_index(sha), len(blob),
                            max(finish, plan.quorum_elapsed))
                plan.jobs[name] = _SanJob(name=name, blob=blob, ready=ready)

    # -- scan + sanitize phases ---------------------------------------------

    def _scan_phase(self):
        """Account-scan every tenant's blobs (memoized across tenants)."""
        enclave = self._service._enclave
        for plan in self._plans:
            for name in plan.quorum["changed"]:
                job = plan.jobs[name]
                info = enclave.ecall("scan_package", plan.repo_id, job.blob)
                job.needs_catalog = info["needs_catalog"]
                if info.get("deduped"):
                    plan.deduped_scans += 1
            plan.barrier = max(
                (job.ready for job in plan.jobs.values()), default=0.0)
            plan.end = max(plan.end, plan.barrier)

    def _sanitize_phase(self) -> float:
        """All tenants' sanitize jobs on one serial enclave channel.

        FIFO by availability (blob readiness; catalog-dependent jobs wait
        for their tenant's barrier), ties broken by tenant order then
        package name.  Host-side ecall order follows the simulated order,
        so the shared-analysis memo charges the first tenant to reach a
        blob — exactly what the timeline says.
        """
        enclave = self._service._enclave
        heap: list[tuple[float, int, str]] = []
        for plan in self._plans:
            for name in plan.quorum["changed"]:
                job = plan.jobs[name]
                avail = (max(plan.barrier, job.ready) if job.needs_catalog
                         else job.ready)
                heapq.heappush(heap, (avail, plan.index, name))
        enclave_free = self._enclave_busy
        cache = self._service.cache
        while heap:
            avail, plan_index, name = heapq.heappop(heap)
            plan = self._plans[plan_index]
            job = plan.jobs[name]
            if job.needs_catalog and plan.catalog_info is None:
                plan.catalog_info = enclave.ecall("finish_catalog",
                                                  plan.repo_id)
            precatalog = plan.catalog_info is None
            start = max(enclave_free, avail)
            try:
                result = enclave.ecall(
                    "sanitize_package_precatalog" if precatalog
                    else "sanitize_package",
                    plan.repo_id, job.blob)
            except SanitizationRejected as exc:
                plan.rejected.append((name, exc.reason))
                continue
            duration = self._service.simulated_sanitize_duration(result)
            self._service.note_sanitize_cost(plan.repo_id, name,
                                             len(job.blob), duration)
            finish = start + duration
            enclave_free = finish
            cache.put_sanitized(plan.repo_id, name, result.blob)
            self._charge_shard(plan, cache.shard_index(plan.repo_id, name),
                               len(result.blob), finish)
            plan.results.append(result)
            plan.sanitize_elapsed += duration
            if precatalog:
                plan.sanitized_early += 1
            if result.shared_analysis:
                plan.shared_sanitize += 1
            self._timeline.append((plan.repo_id, name, start, finish))
        return enclave_free

    # -- shared accounting ---------------------------------------------------

    def _charge_shard(self, plan: _TenantPlan | None, shard: int,
                      size: int, at: float) -> float:
        """Serialize one disk operation on a cache shard (all tenants).

        The tenant whose package the operation moves (``plan``; None for
        a re-sanitize job of a repository outside this round) ends no
        earlier than the operation does.
        """
        start = max(self._shard_free.get(shard, 0.0), at)
        finish = start + LOCAL_DISK_SEEK_S \
            + size / LOCAL_DISK_BANDWIDTH_BYTES_PER_S
        self._shard_free[shard] = finish
        if plan is not None:
            plan.end = max(plan.end, finish)
        return finish

    def _report_for(self, plan: _TenantPlan) -> RefreshReport:
        return RefreshReport(
            serial=plan.quorum["serial"],
            changed_packages=list(plan.quorum["changed"]),
            sanitized=len(plan.results),
            rejected=plan.rejected,
            downloaded_bytes=plan.downloaded_bytes,
            quorum_elapsed=plan.quorum_elapsed - self._origin,
            download_elapsed=plan.download_elapsed,
            sanitize_elapsed=plan.sanitize_elapsed,
            insecure_findings=plan.catalog_info["insecure_findings"],
            results=plan.results,
            wall_elapsed=plan.end - self._origin,
            pipelined=True,
            mirror_assignments=plan.mirror_assignments,
            sanitized_early=plan.sanitized_early,
            deduped_downloads=plan.deduped_downloads,
            deduped_download_bytes=plan.deduped_download_bytes,
            deduped_scans=plan.deduped_scans,
            shared_sanitize=plan.shared_sanitize,
            interleaved_downloads=plan.interleaved_downloads,
            evicted_redownloads=plan.evicted_redownloads,
            prescanned=plan.prescanned,
            resanitize_wait_s=self._resanitize_waits.get(plan.repo_id, 0.0),
        )
