"""End-to-end scenario builder: repository, mirrors, TSR, nodes, monitor.

One call assembles the whole Figure-6 deployment so examples, integration
tests, and benches share identical wiring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attest.monitor import MonitoringSystem, baseline_whitelist
from repro.core.cache import PackageCache
from repro.core.client import TsrRepositoryClient
from repro.core.orchestrator import MultiTenantRefreshReport, RefreshOrchestrator
from repro.core.policy import SecurityPolicy, MirrorPolicyEntry
from repro.core.service import RefreshReport, TrustedSoftwareRepository
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.ima.subsystem import AppraisalMode
from repro.mirrors.builder import MirrorSpec, build_mirror_network, sync_all
from repro.mirrors.mirror import Mirror
from repro.mirrors.repository import OriginalRepository
from repro.osim.os import IntegrityEnforcedOS
from repro.osim.pkgmgr import PackageManager
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcModel
from repro.sgx.platform import AttestationService, SgxCpu
from repro.simnet.latency import Continent
from repro.simnet.network import Host, Network, ScheduledFetchSession
from repro.tpm.device import Tpm
from repro.util.errors import PackageManagerError
from repro.workload.generator import GeneratedWorkload

DEFAULT_MIRROR_SPECS = (
    MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
    MirrorSpec("mirror-eu-2.example", Continent.EUROPE),
    MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
)


@dataclass
class Scenario:
    """A fully wired deployment."""

    network: Network
    origin: OriginalRepository
    mirrors: dict[str, Mirror]
    tsr: TrustedSoftwareRepository
    attestation_service: AttestationService
    distro_key: RsaPrivateKey
    policy: SecurityPolicy
    repo_id: str
    tsr_public_key: RsaPublicKey
    refresh_report: RefreshReport | None = None
    monitor: MonitoringSystem | None = None
    nodes: dict[str, IntegrityEnforcedOS] = field(default_factory=dict)
    workload: GeneratedWorkload | None = None
    #: Latest published release of every package (name -> ApkPackage);
    #: multi-round traces evolve this population release by release.
    population: dict[str, object] = field(default_factory=dict)
    #: Every deployed repository id, in deployment order (the first is
    #: ``repo_id``, the default tenant).
    tenants: list[str] = field(default_factory=list)
    #: repo_id -> that tenant's attested public signing key.
    tenant_keys: dict[str, RsaPublicKey] = field(default_factory=dict)
    _node_count: int = 0

    @property
    def clock(self):
        return self.network.clock

    # -- node management -----------------------------------------------------

    def new_node(self, name: str | None = None,
                 continent: Continent = Continent.EUROPE,
                 appraisal: AppraisalMode = AppraisalMode.OFF,
                 use_tsr: bool = True,
                 session: ScheduledFetchSession | None = None,
                 downlink_bandwidth: float | None = None,
                 repo_id: str | None = None,
                 delta_updates: bool = False,
                 tpm_attestation_seed: int | None = None,
                 ) -> tuple[IntegrityEnforcedOS, PackageManager]:
        """Boot a node and attach a package manager (TSR or mirror-direct).

        ``session`` routes the node's fetches onto a fleet-wide transfer
        schedule (see :func:`fleet_refresh`) instead of the per-call clock.
        ``downlink_bandwidth`` models the node's NIC: on a scheduled
        session the node's channel is capped at it (layered under the
        shared-uplink fair share).  ``repo_id`` picks the tenant
        repository the node subscribes to (default: the scenario's
        primary tenant).  ``delta_updates`` turns on the manager's
        delta-update path (index diffs + chunked package patches).
        ``tpm_attestation_seed`` makes this node share a (memoized)
        attestation keypair with every other node built from the same
        seed — see :class:`~repro.tpm.device.Tpm`.
        """
        self._node_count += 1
        name = name or f"node-{self._node_count:03d}"
        node = IntegrityEnforcedOS(
            name, appraisal=appraisal,
            vendor_key=self.distro_key,
            init_config_files=self.policy.init_config_files,
            tpm_attestation_seed=tpm_attestation_seed,
        )
        node.boot()
        self.network.add_host(Host(name=name, continent=continent,
                                   downlink_bandwidth=downlink_bandwidth))
        if use_tsr:
            tenant = repo_id if repo_id is not None else self.repo_id
            key = self.tenant_keys.get(tenant, self.tsr_public_key)
            client = TsrRepositoryClient(self.network, name,
                                         self.tsr.hostname, tenant,
                                         session=session)
            trusted = [key]
            node.ima.trust_key(key)
        else:
            from repro.core.client import MirrorRepositoryClient
            first_mirror = next(iter(self.mirrors))
            client = MirrorRepositoryClient(self.network, name, first_mirror,
                                            session=session)
            trusted = [self.distro_key.public_key]
        manager = PackageManager(node, client, trusted_keys=trusted,
                                 delta_updates=delta_updates)
        self.nodes[name] = node
        if self.monitor is not None:
            self.monitor.enroll_node(name, node.tpm.attestation_public_key)
        return node, manager

    def sync_mirrors(self):
        sync_all(self.mirrors)

    # -- tenants --------------------------------------------------------------

    def add_tenant(self, policy: SecurityPolicy | None = None, *,
                   package_whitelist=None,
                   init_config_files: dict[str, str] | None = None) -> str:
        """Deploy one more tenant repository on the shared TSR.

        Builds a policy over the scenario's existing mirror set (unless an
        explicit ``policy`` is given), deploys it, and verifies the
        attestation quote before trusting the returned key — the same
        onboarding flow as the primary tenant.  Returns the new repo id.
        """
        if policy is None:
            kwargs = {}
            if init_config_files is not None:
                kwargs["init_config_files"] = dict(init_config_files)
            policy = SecurityPolicy(
                mirrors=list(self.policy.mirrors),
                signers_keys=[self.distro_key.public_key],
                package_whitelist=(frozenset(package_whitelist)
                                   if package_whitelist is not None else None),
                **kwargs,
            )
        deployed = self.tsr.deploy_policy(policy.to_yaml())
        deployed["quote"].verify(
            self.attestation_service,
            expected_mrenclave=self.tsr._enclave.mrenclave,
        )
        repo_id = deployed["repo_id"]
        self.tenants.append(repo_id)
        self.tenant_keys[repo_id] = RsaPublicKey.from_pem(
            deployed["public_key_pem"])
        return repo_id

    def refresh(self, pipelined: bool = False,
                max_streams: int | None = None,
                parallel_downloads: int = 1) -> RefreshReport:
        self.refresh_report = self.tsr.refresh(
            self.repo_id, parallel_downloads=parallel_downloads,
            pipelined=pipelined, max_streams=max_streams,
        )
        return self.refresh_report


def default_policy(mirror_specs, distro_public: RsaPublicKey,
                   package_whitelist=None) -> SecurityPolicy:
    return SecurityPolicy(
        mirrors=[
            MirrorPolicyEntry(hostname=spec.name, continent=spec.continent)
            for spec in mirror_specs
        ],
        signers_keys=[distro_public],
        package_whitelist=(frozenset(package_whitelist)
                           if package_whitelist is not None else None),
    )


def build_scenario(workload: GeneratedWorkload | None = None,
                   packages: list | None = None,
                   mirror_specs=DEFAULT_MIRROR_SPECS,
                   key_bits: int = 1024,
                   tsr_key_bits: int | None = None,
                   sgx_enabled: bool = True,
                   epc_bytes: int | None = None,
                   refresh: bool = True,
                   with_monitor: bool = True,
                   seed: int = 99,
                   package_whitelist=None,
                   cache_budget_bytes: int | None = None,
                   cache_shards: int | None = None,
                   cache_policy: str | None = None) -> Scenario:
    """Assemble origin + mirrors + TSR (+ monitor), deploy the default
    policy, and optionally run the first refresh.

    ``package_whitelist`` restricts the default tenant's policy;
    ``cache_budget_bytes``/``cache_shards``/``cache_policy`` configure
    the TSR package cache (per-shard byte budgets and LRU/LRU-2 eviction
    — see :class:`PackageCache`).
    """
    network = Network()
    distro_key = generate_keypair(key_bits, seed=seed)
    origin = OriginalRepository(distro_key)
    to_publish = list(packages or (workload.packages if workload else []))
    if to_publish:
        origin.publish_many([(package, None) for package in to_publish])
    mirrors = build_mirror_network(origin, list(mirror_specs), network)
    sync_all(mirrors)

    attestation_service = AttestationService()
    cpu = SgxCpu("tsr-cpu-01", attestation_service, key_bits=key_bits)
    tpm = Tpm("tpm-tsr-host", key_bits=key_bits)
    if epc_bytes is None and workload is not None:
        epc_bytes = workload.suggested_epc_bytes
    cache = None
    if (cache_budget_bytes is not None or cache_shards is not None
            or cache_policy is not None):
        cache = PackageCache(
            shards=cache_shards if cache_shards is not None else 8,
            shard_budget_bytes=cache_budget_bytes,
            policy=cache_policy if cache_policy is not None else "lru2",
        )
    tsr = TrustedSoftwareRepository(
        "tsr.example", network, cpu, tpm,
        key_bits=tsr_key_bits or key_bits, sgx_enabled=sgx_enabled,
        epc_model=EpcModel(epc_bytes=epc_bytes) if epc_bytes else None,
        cache=cache,
    )
    policy = default_policy(mirror_specs, distro_key.public_key,
                            package_whitelist=package_whitelist)
    deployed = tsr.deploy_policy(policy.to_yaml())
    deployed["quote"].verify(attestation_service,
                             expected_mrenclave=tsr._enclave.mrenclave)
    repo_id = deployed["repo_id"]
    tsr_public_key = RsaPublicKey.from_pem(deployed["public_key_pem"])

    monitor = None
    if with_monitor:
        monitor = MonitoringSystem(
            whitelist=baseline_whitelist(
                init_config_files=policy.init_config_files
            ),
            trusted_signing_keys=[tsr_public_key, distro_key.public_key],
        )

    scenario = Scenario(
        network=network,
        origin=origin,
        mirrors=mirrors,
        tsr=tsr,
        attestation_service=attestation_service,
        distro_key=distro_key,
        policy=policy,
        repo_id=repo_id,
        tsr_public_key=tsr_public_key,
        monitor=monitor,
        workload=workload,
        population={package.name: package for package in to_publish},
        tenants=[repo_id],
        tenant_keys={repo_id: tsr_public_key},
    )
    if refresh and to_publish:
        scenario.refresh()
    return scenario


def build_multi_tenant_scenario(tenants: int = 2, overlap: float = 0.5,
                                workload: GeneratedWorkload | None = None,
                                packages: list | None = None,
                                mirror_specs=DEFAULT_MIRROR_SPECS,
                                key_bits: int = 1024,
                                cache_budget_bytes: int | None = None,
                                cache_shards: int | None = None,
                                cache_policy: str | None = None,
                                seed: int = 99) -> Scenario:
    """N tenant repositories over one origin with overlapping catalogs.

    ``overlap`` is the fraction of the published package population every
    tenant shares (the common core); the remainder is partitioned
    round-robin into per-tenant exclusive slices.  Tenant whitelists are
    ``core + slice_i``, so any two tenants overlap in at least the core —
    the workload shape the cross-tenant dedupe of
    :func:`multi_tenant_refresh` exploits.  No refresh is run.
    """
    if tenants < 1:
        raise ValueError("need at least one tenant")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be within [0, 1]: {overlap}")
    to_publish = list(packages or (workload.packages if workload else []))
    if not to_publish:
        raise ValueError("multi-tenant scenario needs published packages")
    names = [package.name for package in to_publish]
    core_count = round(overlap * len(names))
    core = names[:core_count]
    rest = names[core_count:]
    slices = [rest[i::tenants] for i in range(tenants)]

    scenario = build_scenario(
        workload=workload, packages=packages, mirror_specs=mirror_specs,
        key_bits=key_bits, refresh=False, with_monitor=False, seed=seed,
        package_whitelist=frozenset(core + slices[0]),
        cache_budget_bytes=cache_budget_bytes, cache_shards=cache_shards,
        cache_policy=cache_policy,
    )
    for i in range(1, tenants):
        scenario.add_tenant(package_whitelist=frozenset(core + slices[i]))
    return scenario


def multi_tenant_refresh(scenario: Scenario,
                         repo_ids: list[str] | None = None,
                         orchestrated: bool = True,
                         max_streams: int | None = None,
                         interleave: bool = True) -> MultiTenantRefreshReport:
    """Refresh several tenant repositories of one TSR.

    ``orchestrated`` (default) plans all refreshes as one
    :class:`repro.core.orchestrator.RefreshOrchestrator` schedule —
    interleaved quorums, cross-tenant download/scan/analysis dedupe, one
    serial enclave channel.  ``orchestrated=False`` is the baseline the
    ablation measures: the N phased refreshes run serially, exactly as N
    separate ``tsr.refresh(repo_id)`` calls — same verdicts and
    byte-identical sanitized outputs, vastly different wall-clock
    (EXPERIMENTS.md §5).
    """
    repo_ids = list(repo_ids if repo_ids is not None else scenario.tenants)
    if orchestrated:
        return RefreshOrchestrator(
            scenario.tsr, repo_ids, max_streams=max_streams,
            interleave=interleave,
        ).run()
    start = scenario.clock.now()
    reports = {
        repo_id: scenario.tsr.refresh(repo_id) for repo_id in repo_ids
    }
    return MultiTenantRefreshReport(
        reports=reports,
        wall_elapsed=scenario.clock.now() - start,
        orchestrated=False,
    )


@dataclass
class FleetClient:
    """One fleet node: OS + package manager bound to a tenant repository."""

    name: str
    repo_id: str
    node: IntegrityEnforcedOS
    manager: PackageManager


class ClientFleet:
    """N update clients wired for scheduled fan-out, reusable across waves.

    Construction boots the nodes once (names ``{prefix}-{i:03d}``), wires
    their package managers onto ``session`` (a
    :class:`~repro.simnet.network.ScheduledFetchSession` for a one-shot
    fan-out, a :class:`~repro.simnet.network.PlanFetchSession` for
    multi-wave replay, or ``None`` for clock-serialized clients) and
    spreads them round-robin over ``tenants``.  ``client_downlink``
    models per-node NICs exactly as in :func:`fleet_refresh` (scalar, or
    a sequence cycled across the fleet).

    ``lazy=True`` defers every boot: a node comes up the first time
    :meth:`client` asks for its index (same name, tenant, and NIC it
    would have had eagerly — booting is per-node deterministic, so boot
    *order* cannot change behaviour) and :meth:`retire` tears it down
    once a rotation schedule guarantees it will never pull again.  A
    10^5-client fleet then only ever holds the active wave's nodes.

    ``shared_tpm_seed`` gives every node the same (memoized) TPM
    attestation keypair, turning 10^5 prime searches into one.  Update
    and transfer metrics never touch the attestation key, so replay
    results are unchanged; leave it ``None`` for attestation experiments
    where per-node identity matters.

    ``replicas`` spreads the fleet's *delta* traffic over an edge-replica
    tier (:class:`repro.core.replica.ReplicaTSR`): each client hashes by
    name onto one replica and keeps that assignment for life, so its
    delta bases stay wherever its serving history is warm.  Replicas that
    fail a wave's freshness check are denied via
    :meth:`set_replica_refusals` and their clients pull from the primary
    until the replica passes again.
    """

    def __init__(self, scenario: Scenario, clients: int,
                 name_prefix: str = "fleet",
                 session=None, client_downlink=None,
                 tenants: list[str] | None = None,
                 delta_updates: bool = False,
                 lazy: bool = False,
                 shared_tpm_seed: int | None = None,
                 replicas=None):
        if clients < 1:
            raise ValueError("fleet needs at least one client")
        if (client_downlink is not None
                and not isinstance(client_downlink, (int, float))
                and not len(client_downlink)):
            raise ValueError("client_downlink sequence must be non-empty")
        self.scenario = scenario
        self.size = clients
        self.lazy = lazy
        self._prefix = name_prefix
        self._session = session
        self._client_downlink = client_downlink
        self._tenants = list(tenants) if tenants else [scenario.repo_id]
        self._delta_updates = delta_updates
        self._shared_tpm_seed = shared_tpm_seed
        self._replicas = list(replicas) if replicas else []
        self._replica_denied: set[str] = set()
        self._as_of: float | None = None
        self._by_index: dict[int, FleetClient] = {}
        self._booted_total = 0
        self._retired_delta_stats = None
        if not lazy:
            for i in range(clients):
                self._boot(i)

    @property
    def clients(self) -> list[FleetClient]:
        """The currently booted clients, in index order."""
        return [self._by_index[i] for i in sorted(self._by_index)]

    def _boot(self, i: int) -> FleetClient:
        name = f"{self._prefix}-{i:03d}"
        repo_id = self._tenants[i % len(self._tenants)]
        node, manager = self.scenario.new_node(
            name, session=self._session, repo_id=repo_id,
            downlink_bandwidth=self._nic(self._client_downlink, i),
            delta_updates=self._delta_updates,
            tpm_attestation_seed=self._shared_tpm_seed)
        manager.client.as_of = self._as_of
        replica = self._replica_for(name)
        if replica is not None:
            manager.client.replica_host = (
                None if replica.hostname in self._replica_denied
                else replica.hostname)
        client = FleetClient(name=name, repo_id=repo_id,
                             node=node, manager=manager)
        self._by_index[i] = client
        self._booted_total += 1
        return client

    def _replica_for(self, name: str):
        """The replica a client is pinned to (stable name hash)."""
        if not self._replicas:
            return None
        import zlib
        return self._replicas[zlib.crc32(name.encode("ascii"))
                              % len(self._replicas)]

    def set_replica_refusals(self, refused):
        """Deny the given replica hostnames for the coming wave.

        Clients hashed onto a denied replica fall back to the primary
        (their ``replica_host`` is cleared); everyone else is (re)pointed
        at their assigned replica.  Called by the replay after each
        wave's freshness check.
        """
        self._replica_denied = set(refused)
        for client in self._by_index.values():
            replica = self._replica_for(client.name)
            if replica is None:
                continue
            client.manager.client.replica_host = (
                None if replica.hostname in self._replica_denied
                else replica.hostname)

    def client(self, i: int) -> FleetClient:
        """The ``i``-th client, booting it now if the fleet is lazy."""
        if not 0 <= i < self.size:
            raise IndexError(f"client index out of range: {i}")
        existing = self._by_index.get(i)
        if existing is not None:
            return existing
        if not self.lazy:
            raise KeyError(f"client {i} was retired")
        return self._boot(i)

    def subset(self, indices) -> list[FleetClient]:
        return [self.client(i) for i in indices]

    def retire(self, i: int, plan_session=None):
        """Tear down one client that will never pull again.

        Drops the node, manager, and network host; folds the manager's
        delta accounting into the retired total so fleet-wide stats stay
        complete; and — when ``plan_session`` is given — releases the
        client's channel bookkeeping there too.
        """
        client = self._by_index.pop(i, None)
        if client is None:
            return
        if self._retired_delta_stats is None:
            from repro.osim.pkgmgr import DeltaStats
            self._retired_delta_stats = DeltaStats()
        self._retired_delta_stats.merge(client.manager.delta_stats)
        client.node.teardown()
        self.scenario.nodes.pop(client.name, None)
        self.scenario.network.remove_host(client.name)
        if plan_session is not None:
            plan_session.retire_client(client.name)

    @property
    def booted_total(self) -> int:
        """How many boots ever happened (includes retired clients)."""
        return self._booted_total

    @property
    def active_count(self) -> int:
        return len(self._by_index)

    @staticmethod
    def _nic(client_downlink, i: int) -> float | None:
        if client_downlink is None:
            return None
        if isinstance(client_downlink, (int, float)):
            return float(client_downlink)
        return float(client_downlink[i % len(client_downlink)])

    def use_session(self, session):
        self._session = session
        for client in self._by_index.values():
            client.manager.client.use_session(session)

    def set_as_of(self, as_of: float | None):
        """Time-stamp every client's next requests on the plan timeline."""
        self._as_of = as_of
        for client in self._by_index.values():
            client.manager.client.as_of = as_of

    def delta_stats(self):
        """Fleet-wide delta-update accounting (sums every manager's,
        including clients retired from a lazy fleet)."""
        from repro.osim.pkgmgr import DeltaStats

        total = DeltaStats()
        if self._retired_delta_stats is not None:
            total.merge(self._retired_delta_stats)
        for client in self._by_index.values():
            total.merge(client.manager.delta_stats)
        return total


@dataclass
class FleetWaveOutcome:
    """What one pull wave did (before transfer timings are resolved)."""

    installs: int = 0
    #: client name -> authenticated index serial this wave served.
    served_serial: dict[str, int] = field(default_factory=dict)
    #: client name -> schedule key of the index fetch (plan sessions
    #: only) — the transfer whose completion is the client's staleness
    #: transition instant.
    index_keys: dict[str, object] = field(default_factory=dict)
    #: client name -> the wave's last schedule key (plan sessions only).
    last_keys: dict[str, object] = field(default_factory=dict)
    #: client name -> clock-measured elapsed (unscheduled clients only).
    client_elapsed: dict[str, float] = field(default_factory=dict)
    #: Clients whose index pull failed (no publication visible yet).
    failed_pulls: int = 0
    #: Install attempts that failed at the transfer layer (tolerant waves
    #: only — e.g. a blob the publication could no longer serve because
    #: eviction pressure removed it before capture).
    failed_installs: int = 0


def run_pull_wave(clients: list[FleetClient], rng: random.Random,
                  installs_per_client: int,
                  installable: list[str] | None = None,
                  measure_clock=None,
                  plan_session=None,
                  tolerate_failures: bool = False) -> FleetWaveOutcome:
    """Drive one pull wave: every client updates its index and installs.

    The wave planner behind both :func:`fleet_refresh` (one wave on a
    private session) and the trace replay (many waves composed onto one
    plan-wide schedule).  Install choices flow through the *explicit*
    ``rng`` — no module or ambient RNG state — so interleaving two
    replays in one process cannot couple their randomness.

    ``installable`` restricts choices to packages known servable (empty /
    ``None`` falls back to each client's own index).  ``measure_clock``
    (a :class:`SimClock`) records per-client elapsed for clock-serialized
    clients; ``plan_session`` records each client's last schedule key so
    the replay can resolve wave completion offsets after the full plan is
    solved.  ``tolerate_failures`` turns an unanswerable index pull into
    a counted failure instead of an exception (a replay client pulling
    before the first publication exists simply stays stale).
    """
    from repro.util.errors import NetworkError

    outcome = FleetWaveOutcome()
    for client in clients:
        start = measure_clock.now() if measure_clock is not None else None
        try:
            index = client.manager.update()
        except NetworkError:
            if not tolerate_failures:
                raise
            outcome.failed_pulls += 1
            if plan_session is not None:
                key = plan_session.last_key(client.name)
                if key is not None:
                    outcome.last_keys[client.name] = key
            continue
        outcome.served_serial[client.name] = index.serial
        if plan_session is not None:
            key = plan_session.last_key(client.name)
            if key is not None:
                outcome.index_keys[client.name] = key
        choices = list(installable or index.package_names())
        rng.shuffle(choices)
        done = 0
        for pkg_name in choices:
            if done >= installs_per_client:
                break
            try:
                client.manager.install(pkg_name)
            except PackageManagerError:
                # Closure includes a package TSR rejected — not installable
                # through the sanitized repository; pick another.
                continue
            except NetworkError:
                # A blob this publication can no longer serve (evicted
                # before capture): tolerant clients move on, strict
                # callers (fleet_refresh) keep the historical raise.
                if not tolerate_failures:
                    raise
                outcome.failed_installs += 1
                continue
            done += 1
            outcome.installs += 1
        if measure_clock is not None:
            outcome.client_elapsed[client.name] = \
                measure_clock.now() - start
        if plan_session is not None:
            key = plan_session.last_key(client.name)
            if key is not None:
                outcome.last_keys[client.name] = key
    return outcome


@dataclass
class FleetRefreshReport:
    """One fleet-refresh round: a repository refresh plus N client updates."""

    refresh: RefreshReport
    clients: int
    installs: int
    updated_packages: list[str]
    #: Simulated seconds from the start of the refresh until the last
    #: client finished installing.
    wall_elapsed: float
    #: Per-client simulated install durations (same order as the nodes).
    client_elapsed: list[float] = field(default_factory=list)
    #: Whether the fan-out ran on the shared transfer schedule.
    scheduled: bool = False
    #: Simulated seconds the whole client fan-out took (schedule makespan
    #: in scheduled mode, sum of per-client slices in serial mode).
    fanout_elapsed: float = 0.0

    @property
    def slowest_client(self) -> float:
        return max(self.client_elapsed, default=0.0)


def fleet_refresh(scenario: Scenario, clients: int = 8,
                  installs_per_client: int = 2,
                  update_fraction: float = 0.05,
                  pipelined: bool = True,
                  seed: int = 11,
                  scheduled: bool = True,
                  client_downlink=None,
                  rng: random.Random | None = None) -> FleetRefreshReport:
    """Publish an update batch, refresh TSR, and drive a client fleet.

    The flow the north star cares about: upstream releases land, the
    (pipelined) refresh engine re-sanitizes them, and ``clients`` nodes
    update their indexes and install from the refreshed repository.  The
    report separates refresh latency from fan-out latency so benches can
    show where pipelining moves the needle.  The fleet machinery itself
    — node construction (:class:`ClientFleet`) and the pull wave
    (:func:`run_pull_wave`) — is shared with the multi-round trace
    replay (:mod:`repro.workload.replay`), which composes many such
    waves onto one plan-wide schedule; this function runs exactly one.

    With ``scheduled`` (the default) every client's fetches run as one
    channel on a shared :class:`ScheduledFetchSession` whose capacity is
    the TSR host's uplink: tens of thousands of nodes resolve in a single
    incremental event-driven ``solve`` and their per-client timings
    reflect shared-link contention.  ``scheduled=False`` keeps the old
    behaviour — clients advance the clock one after another — for
    comparison benches.

    ``client_downlink`` models the clients' NIC downlinks: a single
    bandwidth (bytes/s) applied to every client, or a sequence cycled
    across the fleet (heterogeneous NICs).  Each client host carries its
    value as ``downlink_bandwidth`` and, in scheduled mode, its session
    channel is capped at it — the layered-capacity rate model
    ``min(TSR bandwidth, client NIC, fair uplink share)``.

    The fleet's own randomness (install choices) flows through one
    *explicit* ``random.Random`` — ``rng``, defaulting to
    ``random.Random(seed)`` — never through module-level RNG state, so
    concurrent scenarios in one process stay independently reproducible;
    ``generate_update_batch`` seeds its internal RNG from the same
    ``seed``.  Repeated calls with equal arguments on identically built
    scenarios are therefore reproducible.
    """
    from repro.workload.generator import generate_update_batch

    if clients < 1:
        raise ValueError("fleet needs at least one client")
    if (client_downlink is not None
            and not isinstance(client_downlink, (int, float))
            and not len(client_downlink)):
        raise ValueError("client_downlink sequence must be non-empty")
    rng = rng if rng is not None else random.Random(seed)
    workload = getattr(scenario, "workload", None)
    updated: list[str] = []
    if workload is not None:
        batch = generate_update_batch(workload, fraction=update_fraction,
                                      seed=seed)
        scenario.origin.publish_many([(package, None) for package in batch])
        for package in batch:
            scenario.population[package.name] = package
        updated = [package.name for package in batch]
        scenario.sync_mirrors()

    start = scenario.clock.now()
    report = scenario.refresh(pipelined=pipelined)

    installable = [
        name for name in report.changed_packages
        if scenario.tsr.cache.has_sanitized(scenario.repo_id, name)
    ]
    session = None
    if scheduled:
        uplink = scenario.network.host(scenario.tsr.hostname).bandwidth
        session = ScheduledFetchSession(scenario.network,
                                        shared_bandwidth=uplink)
    fanout_start = scenario.clock.now()
    fleet = ClientFleet(scenario, clients, name_prefix=f"fleet-{seed}",
                        session=session, client_downlink=client_downlink)
    wave = run_pull_wave(
        fleet.clients, rng, installs_per_client, installable=installable,
        measure_clock=None if scheduled else scenario.clock,
    )
    if scheduled:
        session.solve()
        client_elapsed = [session.channel_finish(client.name)
                          for client in fleet.clients]
        fanout_elapsed = session.makespan
        scenario.clock.advance(fanout_elapsed)
    else:
        client_elapsed = [wave.client_elapsed[client.name]
                          for client in fleet.clients]
        fanout_elapsed = scenario.clock.now() - fanout_start
    return FleetRefreshReport(
        refresh=report,
        clients=clients,
        installs=wave.installs,
        updated_packages=updated,
        wall_elapsed=scenario.clock.now() - start,
        client_elapsed=client_elapsed,
        scheduled=scheduled,
        fanout_elapsed=fanout_elapsed,
    )
