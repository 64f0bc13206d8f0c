"""Quorum reads of the repository metadata index (paper section 4.5).

TSR never trusts an individual mirror.  It contacts the fastest f+1 of the
policy's 2f+1 mirrors; if their (signature-valid) indexes disagree, it
contacts additional mirrors until some index value is reported by f+1
mirrors.  Packages themselves may then come from any single mirror because
the quorum-validated index pins their sizes and hashes.

:class:`QuorumReader` is the one blocking quorum loop: the phased
refresh (:meth:`TrustedSoftwareRepository._read_quorum`) runs it and
hands its :attr:`QuorumResult.responses` to the enclave, which counts
them again and decides.  The host only decides when to stop adding
mirrors, with the same check the enclave applies
(:func:`validate_signed_index`).  The overlapped refresh
(:mod:`repro.core.orchestrator`) widens on its plan schedule instead,
interleaved with downloads.

Transfer accounting runs on the shared event-driven engine: each wave is
one :meth:`Network.gather`, whose concurrent index downloads share the
TSR host's downlink with exact max-min accounting — the same model
overlapped refresh downloads use — and the clock advances by the wave's
slowest answer before the next wave is sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.index import RepositoryIndex, parse_index_cached
from repro.core.policy import MirrorPolicyEntry, tolerated_faults
from repro.crypto.rsa import RsaPublicKey
from repro.simnet.network import Network, Request
from repro.util.errors import NetworkError, QuorumError


def validate_signed_index(payload: object,
                          index_keys: list[RsaPublicKey]
                          ) -> RepositoryIndex | None:
    """Parse + verify one served index payload; ``None`` if unusable.

    The single trust gate every index answer passes through — mirror
    quorum responses and replica freshness probes alike.  Both halves
    are batched across envelopes: parsing goes through the process-wide
    blob memo and signature verdicts through the RSA verify memo, so N
    endpoints echoing the same signed index cost one parse and one
    modular exponentiation total.
    """
    if not isinstance(payload, (bytes, bytearray)):
        return None
    try:
        index = parse_index_cached(bytes(payload))
    except Exception:
        return None
    if not any(index.verify(key) for key in index_keys):
        return None
    return index


def entry_agreement(indexes: list[RepositoryIndex],
                    needed: int) -> dict[str, dict]:
    """Index entries already certain to be in any eventual quorum value.

    Counts, for every (name, sha256, size) triple, how many of the given
    per-mirror indexes carry it identically, and returns the triples with
    at least ``needed`` (= f+1) votes as ``name -> {"sha256", "size"}``.

    Soundness (pigeonhole): with a 2f+1-mirror policy, the f+1 mirrors
    that eventually vote for the winning index and the f+1 mirrors
    carrying the entry overlap in at least one mirror — and that mirror's
    *single* index response is both the winner and a carrier, so the
    entry is in the winner.  Starting a package download for such an
    entry while quorum extension reads are still in flight is therefore
    pure schedule optimization: it can never change the accepted index or
    the verdicts derived from it (and every optimistically fetched blob
    is still hash-checked against the final quorum index before use).
    """
    votes: dict[tuple[str, str, int], int] = {}
    for index in indexes:
        for entry in index.entries.values():
            key = (entry.name, entry.sha256, entry.size)
            votes[key] = votes.get(key, 0) + 1
    agreed: dict[str, dict] = {}
    for (name, sha256, size), count in votes.items():
        if count >= needed and name not in agreed:
            agreed[name] = {"sha256": sha256, "size": size}
    return agreed


@dataclass
class QuorumResult:
    """Outcome of a quorum read."""

    index: RepositoryIndex
    agreeing_mirrors: list[str]
    contacted: int
    elapsed: float
    #: Mirrors whose answers were invalid or divergent (Byzantine evidence).
    dissenting_mirrors: list[str] = field(default_factory=list)
    #: Every (hostname, payload) answer, in the order the mirrors were
    #: contacted — what the phased refresh passes to the enclave.
    responses: list[tuple[str, object]] = field(default_factory=list)


class QuorumReader:
    """Reads the metadata index with 2f+1 fault tolerance."""

    def __init__(self, network: Network, src_host: str,
                 mirrors: list[MirrorPolicyEntry],
                 index_keys: list[RsaPublicKey]):
        if not mirrors:
            raise QuorumError("no mirrors configured")
        self._network = network
        self._src = src_host
        self._mirrors = list(mirrors)
        self._index_keys = list(index_keys)

    @property
    def fault_tolerance(self) -> int:
        return tolerated_faults(len(self._mirrors))

    def _mirrors_fastest_first(self) -> list[MirrorPolicyEntry]:
        """Order mirrors by expected RTT from the TSR host's continent."""
        src_continent = self._network.host(self._src).continent
        return sorted(
            self._mirrors,
            key=lambda m: self._network.latency.base_rtt(src_continent,
                                                         m.continent),
        )

    def read_index(self) -> QuorumResult:
        """Establish the quorum; raises :class:`QuorumError` if impossible."""
        start = self._network.clock.now()
        ordered = self._mirrors_fastest_first()
        needed = self.fault_tolerance + 1
        votes: dict[str, list[str]] = {}          # body hash -> mirror names
        indexes: dict[str, RepositoryIndex] = {}  # body hash -> parsed index
        dissenting: list[str] = []
        responses: list[tuple[str, object]] = []

        def tally(batch: list[MirrorPolicyEntry]):
            answers = self._network.gather(
                self._src, [Request(m.hostname, "get_index") for m in batch])
            for mirror, answer in zip(batch, answers):
                if isinstance(answer, NetworkError):
                    dissenting.append(mirror.hostname)
                    continue
                responses.append((mirror.hostname, answer.payload))
                index = self._validate(answer.payload)
                if index is None:
                    dissenting.append(mirror.hostname)
                    continue
                votes.setdefault(index.body_hash(), []).append(mirror.hostname)
                indexes.setdefault(index.body_hash(), index)

        # First wave: the fastest f+1 mirrors, contacted concurrently.
        cursor = needed
        tally(ordered[:cursor])
        # Extend one mirror at a time until some value reaches f+1 votes.
        while not any(len(v) >= needed for v in votes.values()):
            if cursor >= len(ordered):
                raise QuorumError(
                    f"no index value reached {needed} matching responses "
                    f"({cursor} mirrors contacted, "
                    f"{len(dissenting)} invalid/unreachable)"
                )
            tally([ordered[cursor]])
            cursor += 1

        winning_hash = next(h for h, v in votes.items() if len(v) >= needed)
        agreeing = votes[winning_hash]
        dissenting.extend(
            name for h, names in votes.items() if h != winning_hash
            for name in names
        )
        return QuorumResult(
            index=indexes[winning_hash],
            agreeing_mirrors=agreeing,
            contacted=cursor,
            elapsed=self._network.clock.now() - start,
            dissenting_mirrors=dissenting,
            responses=responses,
        )

    def _validate(self, payload: object) -> RepositoryIndex | None:
        """Parse + verify one mirror's answer; None if unusable."""
        return validate_signed_index(payload, self._index_keys)
