"""TSR — the Trusted Software Repository (the paper's contribution).

A shielded proxy between package managers and community repositories:

* :mod:`repro.core.policy` — per-client security policies (Listing 1),
* :mod:`repro.core.quorum` — 2f+1 mirror agreement on the metadata index,
* :mod:`repro.core.catalog` — repository-wide user/group discovery,
* :mod:`repro.core.sanitizer` — package sanitization (section 4.2 / 5.3),
* :mod:`repro.core.cache` / :mod:`repro.core.freshness` — untrusted-disk
  cache with sealed, monotonic-counter-protected freshness (section 5.5),
* :mod:`repro.core.program` — the code that runs *inside* the enclave,
* :mod:`repro.core.service` — the host-side service + network endpoint,
* :mod:`repro.core.publications` — the publication log, the one read path
  (time-stamped and delta serves) of the primary and of every replica,
* :mod:`repro.core.replica` — read-only edge replicas that adopt the
  primary's publications through verified sync,
* :mod:`repro.core.orchestrator` — the overlapped refresh engine, for one
  tenant (``refresh(pipelined=True)``) or many (shared-enclave
  scheduling, cross-tenant dedupe, quorum/download interleaving),
* :mod:`repro.core.pipeline` — its batch mirror-download scheduler,
* :mod:`repro.core.client` — the package-manager-facing repository client.
"""

from repro.core.policy import SecurityPolicy, MirrorPolicyEntry
from repro.core.quorum import QuorumReader, QuorumResult, entry_agreement
from repro.core.catalog import PackageScanDelta, RepositoryCatalog, extract_scan_delta
from repro.core.orchestrator import MultiTenantRefreshReport, RefreshOrchestrator
from repro.core.pipeline import DownloadBatch, MirrorDownloadScheduler
from repro.core.sanitizer import Sanitizer, SanitizationResult, SanitizationRejected
from repro.core.service import RefreshReport, RepoConfig, TrustedSoftwareRepository
from repro.core.client import TsrRepositoryClient, MirrorRepositoryClient

__all__ = [
    "SecurityPolicy",
    "MirrorPolicyEntry",
    "QuorumReader",
    "QuorumResult",
    "entry_agreement",
    "PackageScanDelta",
    "RepositoryCatalog",
    "extract_scan_delta",
    "MultiTenantRefreshReport",
    "RefreshOrchestrator",
    "DownloadBatch",
    "MirrorDownloadScheduler",
    "Sanitizer",
    "SanitizationResult",
    "SanitizationRejected",
    "RefreshReport",
    "RepoConfig",
    "TrustedSoftwareRepository",
    "TsrRepositoryClient",
    "MirrorRepositoryClient",
]
