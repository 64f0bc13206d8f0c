"""Repository clients used by package managers (over the simulated network).

``TsrRepositoryClient`` talks to a TSR instance; ``MirrorRepositoryClient``
talks directly to a mirror (the baseline setup) — package managers cannot
tell them apart, which is the paper's transparency claim (section 4.3).

Clients fetch one request at a time, as an ordinary package manager does:
through :meth:`Network.call`, which advances the clock by the transfer, or
— when a :class:`~repro.simnet.network.PlanFetchSession` is attached — as
one channel of the session's schedule, so tens of thousands of clients
share the repository's uplink instead of serializing on the clock, each
capped by its own NIC downlink when the host declares one.
"""

from __future__ import annotations

from repro.crypto.rsa import RsaPublicKey
from repro.sgx.enclave import EnclaveQuote
from repro.sgx.platform import AttestationService
from repro.simnet.network import Network, PlanFetchSession, Request
from repro.util.errors import AttestationError


class _ScheduledClientBase:
    """Shared client surface: one fetch path, routed through the session.

    Subclasses only define how requests are built (``_index_request`` /
    ``_package_request``); every fetch goes through :meth:`_fetch`, so the
    TSR and mirror clients cannot diverge.
    """

    _network: Network
    _src: str

    def __init__(self, network: Network, src_host: str,
                 session: PlanFetchSession | None = None):
        self._network = network
        self._src = src_host
        self._session = session

    def _index_request(self) -> Request:
        raise NotImplementedError

    def _package_request(self, name: str) -> Request:
        raise NotImplementedError

    def use_session(self, session: PlanFetchSession | None):
        """Attach (or detach) a fleet-wide fetch session."""
        self._session = session

    def _fetch(self, request: Request) -> bytes:
        if self._session is not None:
            return self._session.fetch(self._src, request)
        return self._network.call(self._src, request).payload

    def fetch_index(self) -> bytes:
        return self._fetch(self._index_request())

    def fetch_package(self, name: str) -> bytes:
        return self._fetch(self._package_request(name))


class TsrRepositoryClient(_ScheduledClientBase):
    """A package manager's view of one TSR tenant repository.

    ``as_of`` time-stamps the client's requests on a plan timeline: when
    set, the TSR serves the newest *publication* available at that plan
    instant (see :meth:`TrustedSoftwareRepository.record_publication`)
    instead of its live enclave state — how the multi-round trace replay
    keeps a pull that starts while a refresh is still in flight from
    anachronistically seeing that refresh's output.  ``None`` (default)
    keeps the live-serving behaviour.
    """

    def __init__(self, network: Network, src_host: str, tsr_host: str,
                 repo_id: str,
                 session: PlanFetchSession | None = None,
                 as_of: float | None = None,
                 replica_host: str | None = None):
        super().__init__(network, src_host, session=session)
        self._tsr = tsr_host
        self.repo_id = repo_id
        self.as_of = as_of
        #: Edge replica serving this client's ordinary traffic (index,
        #: package, and delta endpoints alike — the CDN model: the edge
        #: absorbs every routine pull).  The ``*_origin`` fetches always
        #: target the primary, and the package manager uses them for
        #: recovery re-pulls after a rejected or rolled-back answer, so
        #: a misbehaving replica is automatically escaped.  ``None``
        #: routes everything at the primary; the fleet layer re-points
        #: this per pull wave as replicas pass or fail their freshness
        #: check.
        self.replica_host = replica_host

    @property
    def _serving_host(self) -> str:
        return self.replica_host or self._tsr

    def _index_request(self, target: str | None = None) -> Request:
        target = target or self._serving_host
        if self.as_of is not None:
            return Request(target, "get_index",
                           payload={"repo": self.repo_id,
                                    "as_of": self.as_of})
        return Request(target, "get_index", payload=self.repo_id)

    def _package_request(self, name: str,
                         target: str | None = None) -> Request:
        payload = {"repo": self.repo_id, "name": name}
        if self.as_of is not None:
            payload["as_of"] = self.as_of
        return Request(target or self._serving_host, "get_package",
                       payload=payload)

    # -- origin (primary) pulls: the recovery path around a bad replica -------

    def fetch_index_origin(self) -> bytes:
        """Full index straight from the primary, bypassing any replica."""
        return self._fetch(self._index_request(target=self._tsr))

    def fetch_package_origin(self, name: str) -> bytes:
        """Full package straight from the primary, bypassing any replica."""
        return self._fetch(self._package_request(name, target=self._tsr))

    # -- delta-update surface (TSR-only; mirror clients lack it, which is
    # how the package manager detects delta capability) ----------------------

    def fetch_index_delta(self, base_serial: int) -> bytes:
        """Fetch a signed index diff from ``base_serial`` to the newest
        publication at this client's ``as_of`` instant (or the newest
        overall for live clients).  Returns a delta envelope — see
        :mod:`repro.core.delta` for the kinds and fallback rules."""
        payload: dict = {"repo": self.repo_id, "base_serial": base_serial}
        if self.as_of is not None:
            payload["as_of"] = self.as_of
        return self._fetch(Request(self._serving_host,
                                   "get_index_delta", payload=payload))

    def fetch_package_delta(self, name: str, base_sha256: str) -> bytes:
        """Fetch one package as a chunk delta against the cached base blob
        identified by ``base_sha256`` (server may answer with a tagged
        full blob when no usable delta exists)."""
        payload: dict = {"repo": self.repo_id, "name": name,
                         "base_sha256": base_sha256}
        if self.as_of is not None:
            payload["as_of"] = self.as_of
        return self._fetch(Request(self._serving_host,
                                   "get_package_delta", payload=payload))


class MirrorRepositoryClient(_ScheduledClientBase):
    """Direct-to-mirror client: the conventional (baseline) configuration."""

    def __init__(self, network: Network, src_host: str, mirror_host: str,
                 session: PlanFetchSession | None = None):
        super().__init__(network, src_host, session=session)
        self._mirror = mirror_host

    def _index_request(self) -> Request:
        return Request(self._mirror, "get_index")

    def _package_request(self, name: str) -> Request:
        return Request(self._mirror, "get_package", payload=name)


def deploy_policy_with_attestation(network: Network, src_host: str,
                                   tsr_host: str, policy_yaml: str,
                                   attestation_service: AttestationService,
                                   expected_mrenclave: bytes | None = None,
                                   ) -> tuple[str, RsaPublicKey]:
    """The OS-owner onboarding flow (paper Figure 7).

    Deploys a policy and verifies, via SGX remote attestation, that the
    public signing key returned really comes from the expected enclave on a
    genuine CPU.  Returns ``(repo_id, trusted_public_key)``.
    """
    response = network.call(
        src_host, Request(tsr_host, "deploy_policy", payload=policy_yaml,
                          size_bytes=len(policy_yaml))
    ).payload
    quote: EnclaveQuote = response["quote"]
    quote.verify(attestation_service, expected_mrenclave=expected_mrenclave)
    public_key = RsaPublicKey.from_pem(response["public_key_pem"])
    if quote.report_data.decode() != public_key.fingerprint():
        raise AttestationError(
            "attestation quote does not bind the returned public key"
        )
    return response["repo_id"], public_key
