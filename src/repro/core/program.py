"""The code that runs *inside* the SGX enclave.

Everything security-critical happens here: per-repository signing keys are
generated and used only inside; mirror responses are signature-checked and
quorum-counted inside; cached blobs are hash-checked against the in-enclave
sanitized index before being released to clients; state leaves the enclave
only sealed.

The host (``repro.core.service``) performs all I/O — network, disk, TPM —
and feeds results in through ecalls, the standard SGX partitioning.
"""

from __future__ import annotations

from repro.archive.index import IndexEntry, RepositoryIndex, parse_index_cached
from repro.core.catalog import RepositoryCatalog, extract_scan_delta
from repro.core.policy import SecurityPolicy
from repro.core.sanitizer import PackageAnalysis, SanitizationResult, Sanitizer
from repro.crypto.hashes import hmac_sha256, sha256_hex
from repro.crypto.rsa import generate_keypair
from repro.scripts.accounts import GroupSpec, UserSpec
from repro.util.errors import (
    IntegrityError,
    PolicyError,
    QuorumError,
    RollbackError,
)


class _RepositoryState:
    """In-enclave state of one tenant repository."""

    def __init__(self, repo_id: str, policy: SecurityPolicy, signing_key):
        self.repo_id = repo_id
        self.policy = policy
        self.signing_key = signing_key
        self.upstream_index: RepositoryIndex | None = None
        #: (sha256, size) -> the first entry of :attr:`upstream_index`
        #: that pins a blob with that digest and length.
        self.upstream_blobs: dict[tuple[str, int], IndexEntry] = {}
        self.sanitized_index = RepositoryIndex(serial=0)
        self.catalog = RepositoryCatalog()
        self.sanitizer: Sanitizer | None = None
        #: Provisional sanitizer for the overlapped refresh: usable before
        #: the catalog is frozen, but only on packages whose rewrite does
        #: not read the catalog (no account-creation commands).
        self.early_sanitizer: Sanitizer | None = None

    def accept_upstream(self, index: RepositoryIndex):
        """Adopt a quorum-validated upstream index and its blob lookup."""
        self.upstream_index = index
        self.upstream_blobs = {}
        for entry in index.entries.values():
            self.upstream_blobs.setdefault((entry.sha256, entry.size), entry)

    def build_sanitizer(self) -> Sanitizer:
        sanitizer = Sanitizer(
            signing_key=self.signing_key,
            trusted_signers=self.policy.signers_keys,
            catalog=self.catalog,
            init_config=self.policy.init_config_files,
        )
        return sanitizer


class _SharedRefreshContext:
    """Cross-tenant dedupe memos for one orchestrated refresh plan.

    Scoped to a single ``begin_shared_refresh`` / ``end_shared_refresh``
    window so the single-repository refresh paths keep their historical
    per-call cost; everything memoized here is *content-determined*:

    * scan records — the account-operation delta and catalog dependency
      of one blob (pure function of the bytes), replayed per repository
      via :meth:`RepositoryCatalog.apply_delta`;
    * package analyses — the parse/verify/classify/filter half of
      sanitization, keyed by blob hash *and* trusted-signer set (two
      tenants trusting different signers never share a verification).
    """

    def __init__(self):
        #: blob hash -> (generation, scan record).
        self.scan_memo: dict[str, tuple[int, dict]] = {}
        #: (blob hash, signer set) -> (generation, analysis, prescan info).
        self.analysis_memo: dict[tuple, tuple[int, PackageAnalysis, dict]] = {}
        #: Persistent windows (multi-round replay plans) bump this per
        #: round.  A hit from the *current* generation is a cross-tenant
        #: dedupe and accounts as before; a hit from an *earlier*
        #: generation is a cross-round replay — it skips the host work
        #: but reports the recorded costs of the original computation, so
        #: per-round counters and simulated enclave time are identical to
        #: recomputing from scratch.
        self.generation = 0
        self.scan_hits = 0
        self.scan_misses = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.scan_replays = 0
        self.analysis_replays = 0

    def renew(self):
        """Start the next round of a persistent window."""
        self.generation += 1
        self.scan_hits = 0
        self.scan_misses = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.scan_replays = 0
        self.analysis_replays = 0

    def stats(self) -> dict:
        return {
            "scan_hits": self.scan_hits,
            "scan_misses": self.scan_misses,
            "analysis_hits": self.analysis_hits,
            "analysis_misses": self.analysis_misses,
            "scan_replays": self.scan_replays,
            "analysis_replays": self.analysis_replays,
        }


class TsrProgram:
    """Enclave program implementing the TSR trusted core."""

    def __init__(self, key_bits: int = 2048):
        self._key_bits = key_bits
        self._repos: dict[str, _RepositoryState] = {}
        self._enclave = None  # bound via _bind_enclave (EGETKEY analog)
        self._shared: _SharedRefreshContext | None = None

    def _bind_enclave(self, enclave):
        self._enclave = enclave

    def _sealing_key(self) -> bytes:
        if self._enclave is None:
            raise PolicyError("enclave facilities not bound")
        return self._enclave.sealing_key()

    def _repo(self, repo_id: str) -> _RepositoryState:
        if repo_id not in self._repos:
            raise PolicyError(f"unknown repository id: {repo_id}")
        return self._repos[repo_id]

    # -- policy deployment ------------------------------------------------------

    def deploy_policy(self, policy_yaml: str) -> dict:
        """Create a tenant repository; returns id + public signing key.

        The signing key is derived deterministically from the enclave
        sealing key and the repository id: it exists only inside this
        enclave on this CPU, and the same enclave can re-derive it after a
        restart even without sealed state.
        """
        policy = SecurityPolicy.from_yaml(policy_yaml)
        repo_id = f"repo-{len(self._repos) + 1:04d}"
        seed = int.from_bytes(
            hmac_sha256(self._sealing_key(), b"signing-key:" + repo_id.encode())[:8],
            "big",
        )
        signing_key = generate_keypair(self._key_bits, seed=seed)
        self._repos[repo_id] = _RepositoryState(repo_id, policy, signing_key)
        return {
            "repo_id": repo_id,
            "public_key_pem": signing_key.public_key.to_pem(),
            "mirrors": [
                {"hostname": m.hostname, "continent": m.continent.value}
                for m in policy.mirrors
            ],
            "fault_tolerance": policy.fault_tolerance,
        }

    def public_key_pem(self, repo_id: str) -> str:
        return self._repo(repo_id).signing_key.public_key.to_pem()

    # -- quorum evaluation ---------------------------------------------------------

    def evaluate_quorum(self, repo_id: str,
                        responses: list[tuple[str, bytes]]) -> dict:
        """Count mirror index responses inside the enclave.

        ``responses`` are (hostname, raw index bytes) pairs collected by the
        untrusted host.  Returns the accepted serial and the list of
        packages that changed vs. the enclave's known upstream index, or
        raises :class:`QuorumError` if no value has f+1 valid votes.
        """
        state = self._repo(repo_id)
        needed = state.policy.fault_tolerance + 1
        votes: dict[str, list[str]] = {}
        parsed: dict[str, RepositoryIndex] = {}
        # Batched verification: the widening host re-submits the full
        # accumulated response set each round, and f+1 honest mirrors echo
        # identical bytes — the blob-level parse memo and the RSA verify
        # memo make every repeat a dictionary hit, so each distinct signed
        # index costs one parse and one modular exponentiation per process
        # no matter how many envelopes carry it.
        for hostname, blob in responses:
            try:
                index = parse_index_cached(bytes(blob))
            except Exception:
                continue
            if not any(index.verify(k) for k in state.policy.signers_keys):
                continue
            votes.setdefault(index.body_hash(), []).append(hostname)
            parsed.setdefault(index.body_hash(), index)
        winner = next(
            (h for h, names in votes.items() if len(names) >= needed), None
        )
        if winner is None:
            raise QuorumError(
                f"no index value reached {needed} matching valid responses "
                f"out of {len(responses)}"
            )
        accepted = parsed[winner]
        if state.upstream_index is None:
            changed = sorted(accepted.entries)
        else:
            if accepted.serial < state.upstream_index.serial:
                raise RollbackError(
                    f"quorum index serial {accepted.serial} older than known "
                    f"serial {state.upstream_index.serial} (replay attack)"
                )
            changed = [e.name for e in accepted.diff_updated(state.upstream_index)]
        changed = [name for name in changed if state.policy.allows_package(name)]
        state.accept_upstream(accepted)
        return {
            "serial": accepted.serial,
            "changed": changed,
            "agreeing": votes[winner],
            # Expected blob identities, so the host can validate its cache
            # before re-downloading (the enclave re-checks regardless).
            "expected": {
                name: {"sha256": accepted.entries[name].sha256,
                       "size": accepted.entries[name].size}
                for name in changed
            },
        }

    # -- shared refresh (multi-tenant dedupe) ------------------------------------------

    def begin_shared_refresh(self, keep: bool = False):
        """Open a cross-tenant dedupe window (orchestrated refresh plans).

        While open, content-determined scan records and package analyses
        are memoized by blob hash and shared across repositories; the
        per-repository halves (catalog replay, prelude splicing, signing,
        repacking) always run per tenant, so outputs are byte-identical
        to unshared refreshes.

        With ``keep=True`` the window is *persistent* across rounds of a
        multi-round replay: if one is already open its generation is
        bumped and its per-round counters reset instead of raising.
        Cross-generation memo hits replay the stored analysis *with its
        original recorded timings* — charged exactly like recomputing —
        and report ``deduped=False``, so per-round accounting and every
        simulated duration are identical to cold rounds; only redundant
        host work is skipped.
        """
        if self._shared is not None:
            if not keep:
                raise PolicyError("a shared refresh is already in progress")
            self._shared.renew()
            return
        self._shared = _SharedRefreshContext()

    def end_shared_refresh(self, keep: bool = False) -> dict:
        """Close the dedupe window; returns its hit/miss counters.

        With ``keep=True`` (persistent windows) the round's counters are
        returned but the memos survive for the next round."""
        if self._shared is None:
            raise PolicyError("no shared refresh in progress")
        stats = self._shared.stats()
        if not keep:
            self._shared = None
        return stats

    def _scan_record(self, blob: bytes, digest: str) -> tuple[dict, bool]:
        """(scan record, memo hit?) for one blob whose SHA-256 the calling
        ecall computed; memoized under it when shared.

        Only the signature and control members are decoded: the scan
        reads the scripts, and the sanitize ecall's full parse checks
        the data member."""
        from repro.archive.apk import ApkControl
        from repro.scripts.classify import OperationType, classify_package_scripts
        from repro.util.errors import ScriptError

        shared = self._shared
        if shared is not None:
            cached = shared.scan_memo.get(digest)
            if cached is not None:
                generation, record = cached
                if generation == shared.generation:
                    shared.scan_hits += 1
                    return record, True
                # Cross-round replay: account as a fresh scan (the round
                # is charged identically) but skip the parse/classify.
                shared.scan_memo[digest] = (shared.generation, record)
                shared.scan_misses += 1
                shared.scan_replays += 1
                return record, False
        package = ApkControl.read(blob).package
        delta = extract_scan_delta(package)
        try:
            profile = classify_package_scripts(package.scripts)
            needs_catalog = OperationType.USER_GROUP_CREATION in profile.operations
        except ScriptError:
            # Unparseable/unsupported scripts are rejected during
            # sanitization regardless of catalog state.
            needs_catalog = False
        record = {"delta": delta, "needs_catalog": needs_catalog}
        if shared is not None:
            shared.scan_memo[digest] = (shared.generation, record)
            shared.scan_misses += 1
        return record, False

    def analyze_blob(self, repo_id: str, blob: bytes) -> dict:
        """Optimistic pre-scan: warm the shared memos for a local blob.

        Called by the orchestrator while a quorum is still *widening*, for
        f+1-agreed index entries whose original blob is already in the
        package cache — zero network, and the parse/verify/classify work
        moves off the sanitize-phase queue head.  Only the
        content-determined halves run: nothing is verified against an
        accepted index (there is none yet) and no per-repository state is
        touched, so a pre-scan can never change verdicts or output bytes.
        A wrong blob fed by a malicious host memoizes under *its own*
        hash, which the real sanitize pass then never looks up.

        Returns the simulated-cost inputs for the enclave channel:
        ``native`` seconds of analysis work actually performed (0.0 on a
        memo hit) and the analysis working-set estimate.
        """
        if self._shared is None:
            raise PolicyError(
                "analyze_blob requires an open shared refresh window"
            )
        state = self._repo(repo_id)
        blob = bytes(blob)
        shared = self._shared
        digest = sha256_hex(blob)
        self._scan_record(blob, digest)  # memoized for scan_package; not applied
        key = (
            digest,
            tuple(k.fingerprint() for k in state.policy.signers_keys),
        )
        cached = shared.analysis_memo.get(key)
        if cached is not None:
            generation, analysis, info = cached
            if generation == shared.generation:
                return {"deduped": True, "native": 0.0, "working_set": 0}
            # Cross-round replay: report the originally recorded analysis
            # cost and working set, exactly as a cold recomputation would.
            shared.analysis_memo[key] = (shared.generation, analysis, info)
            shared.analysis_misses += 1
            shared.analysis_replays += 1
            return {"deduped": False, **info}
        if state.early_sanitizer is None:
            state.early_sanitizer = state.build_sanitizer()
        analysis = state.early_sanitizer.analyze_blob(blob)
        uncompressed = sum(len(f.content) for f in analysis.package.files)
        info = {
            "native": analysis.timings.total,
            "working_set": analysis.original_size + uncompressed,
        }
        shared.analysis_memo[key] = (shared.generation, analysis, info)
        shared.analysis_misses += 1
        return {"deduped": False, **info}

    # -- catalog & sanitization -------------------------------------------------------

    def scan_for_accounts(self, repo_id: str, blob: bytes):
        """Feed one upstream package through the account scanner."""
        state = self._repo(repo_id)
        blob = bytes(blob)
        entry = self._check_upstream_blob(state, blob)
        record, _ = self._scan_record(blob, entry.sha256)
        state.catalog.apply_delta(record["delta"])

    def scan_package(self, repo_id: str, blob: bytes) -> dict:
        """Account-scan one package and report its catalog dependency.

        ``needs_catalog`` is True when the package's scripts contain
        account-creation commands: sanitizing it splices in the
        repository-wide deterministic prelude, so it must wait for
        :meth:`finish_catalog`.  Everything else can be sanitized the
        moment its blob arrives — the pipelined refresh engine uses this to
        overlap sanitization with ongoing downloads.

        Inside a shared refresh the parse/extract half is memoized by
        blob hash (``deduped`` reports a hit); the delta replay against
        this repository's catalog always runs.
        """
        state = self._repo(repo_id)
        blob = bytes(blob)
        entry = self._check_upstream_blob(state, blob)
        record, deduped = self._scan_record(blob, entry.sha256)
        state.catalog.apply_delta(record["delta"])
        return {"name": entry.name,
                "needs_catalog": record["needs_catalog"],
                "deduped": deduped}

    def finish_catalog(self, repo_id: str) -> dict:
        """Freeze the catalog and build the sanitizer."""
        state = self._repo(repo_id)
        state.sanitizer = state.build_sanitizer()
        state.early_sanitizer = None
        return {
            "users": len(state.catalog.users),
            "groups": len(state.catalog.groups),
            "insecure_findings": list(state.catalog.insecure_findings),
        }

    def sanitize_package(self, repo_id: str, blob: bytes) -> SanitizationResult:
        """Verify an upstream blob against the quorum index and sanitize it."""
        state = self._repo(repo_id)
        if state.sanitizer is None:
            raise PolicyError("catalog not finalized: call finish_catalog first")
        return self._sanitize_with(state, state.sanitizer, blob)

    def sanitize_package_precatalog(self, repo_id: str,
                                    blob: bytes) -> SanitizationResult:
        """Sanitize a catalog-independent package before ``finish_catalog``.

        Legal only for packages :meth:`scan_package` reported as
        ``needs_catalog=False``: their rewrite never reads the account
        catalog, so the output is byte-identical whether the catalog is
        empty, partial, or frozen.  A package that turns out to splice the
        account prelude is refused — the host scheduler made an illegal
        overlap.
        """
        from repro.scripts.classify import OperationType

        state = self._repo(repo_id)
        if state.early_sanitizer is None:
            state.early_sanitizer = state.build_sanitizer()
        return self._sanitize_with(
            state, state.early_sanitizer, blob,
            forbid=OperationType.USER_GROUP_CREATION,
        )

    def _sanitize_with(self, state: _RepositoryState, sanitizer: Sanitizer,
                       blob: bytes, forbid=None) -> SanitizationResult:
        blob = bytes(blob)
        entry = self._check_upstream_blob(state, blob)
        shared = self._shared
        if shared is None:
            result = sanitizer.sanitize_blob(blob)
        else:
            # Shared refresh: the content-determined analysis (parse,
            # verify, classify, filter — including a recorded rejection)
            # is memoized per (blob, trusted signer set); the repository-
            # determined half (prelude, signatures, repack) always runs.
            key = (
                entry.sha256,
                tuple(k.fingerprint() for k in state.policy.signers_keys),
            )
            cached = shared.analysis_memo.get(key)
            if cached is None:
                analysis = sanitizer.analyze_blob(blob)
                uncompressed = sum(
                    len(f.content) for f in analysis.package.files)
                info = {
                    "native": analysis.timings.total,
                    "working_set": analysis.original_size + uncompressed,
                }
                shared.analysis_memo[key] = (shared.generation, analysis,
                                             info)
                shared.analysis_misses += 1
                result = sanitizer.finish_from_analysis(analysis)
            elif cached[0] == shared.generation:
                shared.analysis_hits += 1
                result = sanitizer.finish_from_analysis(cached[1].charged())
                result.shared_analysis = True
            else:
                # Cross-round replay: the stored analysis keeps its
                # original recorded timings, so the result is charged as
                # if recomputed from scratch; only host work is skipped.
                analysis = cached[1]
                shared.analysis_memo[key] = (shared.generation, analysis,
                                             cached[2])
                shared.analysis_misses += 1
                shared.analysis_replays += 1
                result = sanitizer.finish_from_analysis(analysis)
        if forbid is not None and forbid in result.profile.operations:
            raise PolicyError(
                "catalog-dependent package sanitized before finish_catalog "
                "(pipeline scheduling bug)"
            )
        state.sanitized_index.add(IndexEntry(
            name=entry.name,
            version=entry.version,
            size=len(result.blob),
            sha256=sha256_hex(result.blob),
            depends=entry.depends,
        ))
        return result

    def finalize_index(self, repo_id: str) -> bytes:
        """Sign the sanitized index; serial mirrors the upstream serial."""
        state = self._repo(repo_id)
        if state.upstream_index is None:
            raise PolicyError("no upstream index accepted yet")
        state.sanitized_index.serial = state.upstream_index.serial
        state.sanitized_index.sign(state.signing_key)
        return state.sanitized_index.to_bytes()

    def sanitized_index_bytes(self, repo_id: str) -> bytes:
        state = self._repo(repo_id)
        if state.sanitized_index.signature is None:
            raise PolicyError("sanitized index not finalized yet")
        return state.sanitized_index.to_bytes()

    def check_cached_blob(self, repo_id: str, name: str, blob: bytes) -> bool:
        """Rollback defence: a cached blob must match the in-enclave index."""
        state = self._repo(repo_id)
        entry = state.sanitized_index.get(name)
        if entry is None:
            raise IntegrityError(f"package {name!r} not in sanitized index")
        if len(blob) != entry.size or sha256_hex(bytes(blob)) != entry.sha256:
            raise RollbackError(
                f"cached package {name!r} does not match the sanitized index "
                "(tampered or rolled-back cache)"
            )
        return True

    def _check_upstream_blob(self, state: _RepositoryState,
                             blob: bytes) -> IndexEntry:
        """The upstream entry pinning ``blob``; its ``sha256`` is the
        blob's digest, so the calling ecall need not hash it again."""
        if state.upstream_index is None:
            raise PolicyError("no upstream index accepted yet")
        entry = state.upstream_blobs.get((sha256_hex(blob), len(blob)))
        if entry is not None:
            return entry
        raise IntegrityError(
            "upstream blob does not match any entry of the quorum-validated "
            "index (corrupt mirror download)"
        )

    # -- attestation -------------------------------------------------------------------

    def quote_for_repo(self, repo_id: str) -> dict:
        """Remote-attestation quote binding this enclave to the repo key."""
        state = self._repo(repo_id)
        fingerprint = state.signing_key.public_key.fingerprint()
        quote = self._enclave.quote(report_data=fingerprint.encode())
        return {
            "quote": quote,
            "public_key_pem": state.signing_key.public_key.to_pem(),
        }

    # -- sealing ------------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of all tenant state (sealed by the host
        flow in :class:`FreshnessManager`; keys are re-derived, not stored)."""
        snapshot: dict = {}
        for repo_id, state in self._repos.items():
            snapshot[repo_id] = {
                "policy_yaml": state.policy.to_yaml(),
                "upstream_index": (
                    state.upstream_index.to_bytes().hex()
                    if state.upstream_index is not None else None
                ),
                "sanitized_index": (
                    state.sanitized_index.to_bytes().hex()
                    if state.sanitized_index.signature is not None else None
                ),
                "catalog": _catalog_to_dict(state.catalog),
            }
        return snapshot

    def restore_state(self, snapshot: dict):
        """Rebuild tenant state from an (already freshness-checked) export."""
        for repo_id, raw in snapshot.items():
            policy = SecurityPolicy.from_yaml(raw["policy_yaml"])
            seed = int.from_bytes(
                hmac_sha256(self._sealing_key(),
                            b"signing-key:" + repo_id.encode())[:8],
                "big",
            )
            signing_key = generate_keypair(self._key_bits, seed=seed)
            state = _RepositoryState(repo_id, policy, signing_key)
            if raw.get("upstream_index"):
                state.accept_upstream(RepositoryIndex.from_bytes(
                    bytes.fromhex(raw["upstream_index"])
                ))
            if raw.get("sanitized_index"):
                state.sanitized_index = RepositoryIndex.from_bytes(
                    bytes.fromhex(raw["sanitized_index"])
                )
            state.catalog = _catalog_from_dict(raw.get("catalog", {}))
            state.sanitizer = state.build_sanitizer()
            self._repos[repo_id] = state

    def repository_ids(self) -> list[str]:
        return sorted(self._repos)


def _catalog_to_dict(catalog: RepositoryCatalog) -> dict:
    return {
        "users": [
            {
                "name": u.name, "uid": u.uid, "gid": u.gid, "home": u.home,
                "shell": u.shell, "gecos": u.gecos,
            }
            for u in catalog.users.values()
        ],
        "groups": [
            {"name": g.name, "gid": g.gid, "members": list(g.members)}
            for g in catalog.groups.values()
        ],
        "primary": dict(catalog.user_primary_group),
        "insecure": [list(pair) for pair in catalog.insecure_findings],
    }


def _catalog_from_dict(raw: dict) -> RepositoryCatalog:
    catalog = RepositoryCatalog()
    for user in raw.get("users", []):
        catalog.users[user["name"]] = UserSpec(
            name=user["name"], uid=user["uid"], gid=user["gid"],
            home=user["home"], shell=user["shell"], gecos=user["gecos"],
        )
    for group in raw.get("groups", []):
        catalog.groups[group["name"]] = GroupSpec(
            name=group["name"], gid=group["gid"],
            members=tuple(group["members"]),
        )
    catalog.user_primary_group = dict(raw.get("primary", {}))
    catalog.insecure_findings = [tuple(pair) for pair in raw.get("insecure", [])]
    return catalog
