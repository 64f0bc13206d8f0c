"""The apk-like package manager.

Implements the client side of the update pipeline (paper section 2.2):
fetch and verify the signed metadata index, resolve dependencies, download
packages, verify size + hash against the index and the package signature
against the trusted keyring, run installation scripts through the shell
interpreter, and extract files — transparently materialising PAX
``security.ima`` records as filesystem xattrs, exactly what GNU tar does on
a real system (paper section 5.3).

TSR transparency (paper section 4.3) shows up here as an interface: the
package manager talks to any :class:`RepositoryClient`, and a TSR instance
is just another repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.archive.apk import ApkPackage, ParsedApk
from repro.archive.index import (
    IndexEntry,
    RepositoryIndex,
    parse_index_cached,
)
from repro.core.delta import (
    apply_index_delta,
    apply_package_delta,
    parse_index_delta_envelope,
    parse_package_delta_envelope,
)
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import RsaPublicKey
from repro.osim.os import IntegrityEnforcedOS
from repro.osim.pkgdb import InstalledPackage
from repro.osim.version import is_newer
from repro.scripts.interpreter import Interpreter
from repro.util.errors import (
    DeltaError,
    IntegrityError,
    PackageManagerError,
    PackagingError,
    RollbackError,
    SignatureError,
)


#: Full-pull reasons that mean "the answer I just got was bad", not
#: merely "no delta was possible".  These re-pulls bypass an edge
#: replica via the client's ``fetch_*_origin`` surface (when it has
#: one), so a tampering or rolled-back replica cannot answer its own
#: recovery traffic.
_RECOVERY_REASONS = frozenset({"rejected", "rollback-rejected"})


class RepositoryClient(Protocol):
    """Anything a package manager can download from.

    Clients may additionally offer the scheduled batch surface
    (``fetch_packages`` / ``fetch_index_and_packages``, as the clients in
    :mod:`repro.core.client` do); :meth:`PackageManager.install_batch`
    detects and uses it to overlap the index refresh with package
    downloads on one transfer schedule, and falls back to serial fetches
    otherwise.
    """

    def fetch_index(self) -> bytes: ...
    def fetch_package(self, name: str) -> bytes: ...


@dataclass
class InstallStats:
    """Accounting for one package-manager operation (feeds the latency
    cost model of the Fig. 11 bench)."""

    packages: int = 0
    files_written: int = 0
    bytes_written: int = 0
    xattrs_written: int = 0
    scripts_run: int = 0
    bytes_downloaded: int = 0
    #: Bytes that actually crossed the network for this operation.  Equal
    #: to ``bytes_downloaded`` (logical blob bytes) for full pulls;
    #: smaller when delta updates reconstructed blobs from deltas.
    bytes_on_wire: int = 0
    operations: list[str] = field(default_factory=list)


@dataclass
class DeltaStats:
    """One package manager's delta-update accounting across operations.

    Fallback dicts count full pulls by reason — the server-tagged reasons
    (``depth``, ``unknown-base``, ``not-smaller``, …) plus the client-side
    ``no-base`` (nothing cached to delta against) and ``rejected`` (an
    envelope that failed to apply or verify; the adversarial tests pin
    that every rejection is followed by a clean full-pull recovery).
    """

    index_deltas: int = 0
    index_unchanged: int = 0
    index_rejected: int = 0
    index_rollbacks: int = 0
    index_full: dict[str, int] = field(default_factory=dict)
    package_deltas: int = 0
    package_rejected: int = 0
    package_full: dict[str, int] = field(default_factory=dict)
    #: Installs satisfied by the cached base without any transfer.
    base_reuses: int = 0
    index_wire_bytes: int = 0
    package_wire_bytes: int = 0

    @staticmethod
    def _bump(counter: dict[str, int], reason: str):
        counter[reason] = counter.get(reason, 0) + 1

    def merge(self, other: "DeltaStats"):
        self.index_deltas += other.index_deltas
        self.index_unchanged += other.index_unchanged
        self.index_rejected += other.index_rejected
        self.index_rollbacks += other.index_rollbacks
        self.package_deltas += other.package_deltas
        self.package_rejected += other.package_rejected
        self.base_reuses += other.base_reuses
        self.index_wire_bytes += other.index_wire_bytes
        self.package_wire_bytes += other.package_wire_bytes
        for reason, count in other.index_full.items():
            self.index_full[reason] = self.index_full.get(reason, 0) + count
        for reason, count in other.package_full.items():
            self.package_full[reason] = \
                self.package_full.get(reason, 0) + count

    def as_dict(self) -> dict:
        return {
            "index_deltas": self.index_deltas,
            "index_unchanged": self.index_unchanged,
            "index_rejected": self.index_rejected,
            "index_rollbacks": self.index_rollbacks,
            "index_full": dict(self.index_full),
            "package_deltas": self.package_deltas,
            "package_rejected": self.package_rejected,
            "package_full": dict(self.package_full),
            "base_reuses": self.base_reuses,
            "index_wire_bytes": self.index_wire_bytes,
            "package_wire_bytes": self.package_wire_bytes,
        }


class PackageManager:
    """The OS-side update client."""

    def __init__(self, node: IntegrityEnforcedOS, client: RepositoryClient,
                 trusted_keys: list[RsaPublicKey],
                 delta_updates: bool = False):
        self._node = node
        self._client = client
        self.trusted_keys = list(trusted_keys)
        self._index: RepositoryIndex | None = None
        self._interpreter = Interpreter(node.fs)
        #: Blobs downloaded ahead of time by :meth:`install_batch`;
        #: consumed (and verified) by ``_download_verified``.
        self._prefetched: dict[str, bytes] = {}
        #: Delta updates: fetch index diffs and chunked package patches
        #: against locally cached bases when the client supports it,
        #: falling back to full pulls whenever a delta is unavailable or
        #: fails to verify.  Installed bytes are identical either way.
        self.delta_updates = delta_updates
        self.delta_stats = DeltaStats()
        #: Last verified full blob per package name — the patch bases.
        self._delta_bases: dict[str, bytes] = {}

    @property
    def client(self) -> RepositoryClient:
        """The repository client this manager downloads through (fleet
        drivers re-route it across sessions / time-stamp its requests)."""
        return self._client

    # -- index handling -----------------------------------------------------------

    def _authenticate_index(self, blob: bytes) -> RepositoryIndex:
        # A whole fleet authenticating one pull wave parses and verifies
        # the same signed bytes: the blob-level parse memo and the RSA
        # verify memo make the repeats dictionary hits (each client still
        # gets its own index copy).
        index = parse_index_cached(blob)
        if not any(index.verify(key) for key in self.trusted_keys):
            raise SignatureError("repository index signature not trusted")
        self._index = index
        return index

    def update(self) -> RepositoryIndex:
        """``apk update``: fetch and authenticate the metadata index.

        With :attr:`delta_updates` enabled, asks the repository for a
        signed diff against the currently held index serial instead of
        the full index; any envelope that is stale, malformed, or fails
        signature verification falls back to a full pull, so an update
        never ends worse than the baseline.
        """
        if self.delta_updates:
            return self._update_delta()
        return self._authenticate_index(self._client.fetch_index())

    def _update_full(self, reason: str) -> RepositoryIndex:
        """Delta-mode full-index fallback, counted under ``reason``."""
        DeltaStats._bump(self.delta_stats.index_full, reason)
        fetch = self._client.fetch_index
        if reason in _RECOVERY_REASONS:
            fetch = getattr(self._client, "fetch_index_origin", fetch)
        blob = fetch()
        self.delta_stats.index_wire_bytes += len(blob)
        return self._authenticate_index(blob)

    def _update_delta(self) -> RepositoryIndex:
        fetch_delta = getattr(self._client, "fetch_index_delta", None)
        if fetch_delta is None or self._index is None:
            return self._update_full("no-base")
        base = self._index
        payload = fetch_delta(base.serial)
        self.delta_stats.index_wire_bytes += len(payload)
        try:
            envelope = parse_index_delta_envelope(payload)
        except DeltaError:
            self.delta_stats.index_rejected += 1
            return self._update_full("rejected")
        if envelope.kind == "full":
            # Server-side fallback: the tagged full index authenticates
            # exactly like a baseline pull (failures propagate).
            DeltaStats._bump(self.delta_stats.index_full,
                             envelope.reason or "server")
            return self._authenticate_index(envelope.full_bytes)
        try:
            if envelope.kind == "same":
                if envelope.serial != base.serial \
                        or envelope.body_sha256 != base.body_hash():
                    raise DeltaError(
                        "unchanged-index envelope does not match the "
                        "held index"
                    )
                self.delta_stats.index_unchanged += 1
                return base
            rebuilt = apply_index_delta(base, envelope)
            index = self._authenticate_index(rebuilt.to_bytes())
        except RollbackError:
            # A validly-addressed delta targeting an older serial: the
            # paper's rollback attack.  Refuse it, then recover via the
            # full path (whose signed index the client still verifies).
            self.delta_stats.index_rollbacks += 1
            return self._update_full("rollback-rejected")
        except (DeltaError, PackagingError, SignatureError):
            self.delta_stats.index_rejected += 1
            return self._update_full("rejected")
        self.delta_stats.index_deltas += 1
        return index

    @property
    def index(self) -> RepositoryIndex:
        if self._index is None:
            raise PackageManagerError("no index: run update() first")
        return self._index

    def available_upgrades(self) -> list[IndexEntry]:
        """Installed packages with a newer version in the index."""
        upgrades = []
        for installed in self._node.pkgdb.all():
            entry = self.index.get(installed.name)
            if entry is not None and is_newer(entry.version, installed.version):
                upgrades.append(entry)
        return upgrades

    # -- resolution ------------------------------------------------------------------

    def resolve_install_order(self, name: str) -> list[IndexEntry]:
        """Dependencies-first order for a package and its closure.

        Iterative DFS on an explicit frame stack: a recursive inner
        function would close over itself (and the manager), leaving a
        dead reference cycle behind on every install — retired fleet
        nodes would then linger until a cycle-GC pass instead of freeing
        by refcount.
        """
        order: list[IndexEntry] = []
        visiting: set[str] = set()
        done: set[str] = set()
        #: [pkg_name, index entry, remaining-deps iterator]; the last
        #: two stay None until the frame is expanded.
        stack: list[list] = [[name, None, None]]
        while stack:
            frame = stack[-1]
            pkg_name, entry, deps = frame
            if deps is None:
                if pkg_name in done:
                    stack.pop()
                    continue
                if pkg_name in visiting:
                    raise PackageManagerError(
                        f"dependency cycle involving {pkg_name!r}"
                    )
                entry = self.index.get(pkg_name)
                if entry is None:
                    raise PackageManagerError(
                        f"unsatisfiable dependency: {pkg_name!r}")
                visiting.add(pkg_name)
                frame[1] = entry
                frame[2] = iter(entry.depends)
                continue
            for dep in deps:
                stack.append([dep, None, None])
                break
            else:
                stack.pop()
                visiting.discard(pkg_name)
                done.add(pkg_name)
                order.append(entry)
        return order

    # -- download & verification --------------------------------------------------------

    def _fetch_full(self, entry: IndexEntry, stats: InstallStats,
                    reason: str) -> bytes:
        """Delta-mode full-blob fallback, counted under ``reason``."""
        DeltaStats._bump(self.delta_stats.package_full, reason)
        fetch = self._client.fetch_package
        if reason in _RECOVERY_REASONS:
            fetch = getattr(self._client, "fetch_package_origin", fetch)
        blob = fetch(entry.name)
        self._account_wire(stats, len(blob))
        return blob

    def _account_wire(self, stats: InstallStats, size: int):
        stats.bytes_on_wire += size
        self.delta_stats.package_wire_bytes += size

    def _fetch_blob(self, entry: IndexEntry, stats: InstallStats) -> bytes:
        """Fetch one package's bytes, via the delta path when possible.

        Whatever this returns is verified against the signed index by the
        caller, so a reconstructed blob is accepted iff a full pull of
        the same bytes would be.
        """
        if not self.delta_updates:
            blob = self._client.fetch_package(entry.name)
            self._account_wire(stats, len(blob))
            return blob
        fetch_delta = getattr(self._client, "fetch_package_delta", None)
        base = self._delta_bases.get(entry.name)
        if fetch_delta is None or base is None:
            return self._fetch_full(entry, stats, "no-base")
        if sha256_hex(base) == entry.sha256:
            # The cached base *is* the pinned version: no transfer at all.
            self.delta_stats.base_reuses += 1
            return base
        payload = fetch_delta(entry.name, sha256_hex(base))
        self._account_wire(stats, len(payload))
        try:
            kind, reason, rest = parse_package_delta_envelope(payload)
            if kind == "full":
                DeltaStats._bump(self.delta_stats.package_full,
                                 reason or "server")
                return rest
            blob = apply_package_delta(base, payload)
        except (DeltaError, PackagingError):
            self.delta_stats.package_rejected += 1
            return self._fetch_full(entry, stats, "rejected")
        self.delta_stats.package_deltas += 1
        return blob

    def _download_verified(self, entry: IndexEntry, stats: InstallStats) -> ParsedApk:
        blob = self._prefetched.pop(entry.name, None)
        if blob is None:
            blob = self._fetch_blob(entry, stats)
        else:
            self._account_wire(stats, len(blob))  # prefetched over the wire
        stats.bytes_downloaded += len(blob)
        if len(blob) != entry.size:
            raise IntegrityError(
                f"{entry.describe()}: size {len(blob)} != index size {entry.size} "
                "(endless-data defence)"
            )
        if sha256_hex(blob) != entry.sha256:
            raise IntegrityError(
                f"{entry.describe()}: content hash does not match signed index"
            )
        parsed = ApkPackage.parse(blob)
        parsed.verify(self.trusted_keys)
        if parsed.package.name != entry.name:
            raise IntegrityError(
                f"index entry {entry.name!r} delivered package "
                f"{parsed.package.name!r}"
            )
        if self.delta_updates:
            # Only fully verified blobs become patch bases, so a poisoned
            # delta can never linger: the next delta diffs against bytes
            # the signed index vouched for.
            self._delta_bases[entry.name] = blob
        return parsed

    # -- install / upgrade / remove --------------------------------------------------------

    def install(self, name: str, stats: InstallStats | None = None) -> InstallStats:
        """Install a package and its dependency closure."""
        stats = stats if stats is not None else InstallStats()
        for entry in self.resolve_install_order(name):
            installed = self._node.pkgdb.get(entry.name)
            if installed is not None:
                if installed.version == entry.version:
                    continue
                self._upgrade_one(entry, stats)
            else:
                self._install_one(entry, stats)
        return stats

    def install_batch(self, names: list[str], connections: int = 1,
                      stats: InstallStats | None = None) -> InstallStats:
        """Install several packages with overlapped index + downloads.

        Refreshes the metadata index concurrently with optimistic downloads
        of the named packages (one transfer schedule — safe, because every
        blob is verified against the fresh index before use), resolves the
        dependency closures against that index, fetches any missing
        dependencies in a second scheduled wave, and installs everything
        from the prefetched pool.  Produces the same installed state as
        ``update()`` followed by serial ``install()`` calls; only the
        transfer schedule differs.
        """
        stats = stats if stats is not None else InstallStats()
        if not names:
            return stats
        fetch_bundle = getattr(self._client, "fetch_index_and_packages", None)
        if fetch_bundle is not None:
            index_blob, blobs = fetch_bundle(list(names),
                                             connections=connections)
        else:
            index_blob, blobs = self._client.fetch_index(), {}
        self._authenticate_index(index_blob)

        needed: list[str] = []
        for name in names:
            for entry in self.resolve_install_order(name):
                if entry.name in needed:
                    continue
                installed = self._node.pkgdb.get(entry.name)
                if installed is not None and installed.version == entry.version:
                    continue
                needed.append(entry.name)
        missing = [name for name in needed if name not in blobs]
        if missing:
            fetch_many = getattr(self._client, "fetch_packages", None)
            if fetch_many is not None:
                blobs.update(fetch_many(missing, connections=connections))
            else:
                blobs.update({name: self._client.fetch_package(name)
                              for name in missing})
        self._prefetched.update(
            {name: blobs[name] for name in needed if name in blobs}
        )
        try:
            for name in names:
                self.install(name, stats)
        finally:
            self._prefetched.clear()
        return stats

    def upgrade_all(self) -> InstallStats:
        """``apk upgrade``: bring every installed package to index version."""
        stats = InstallStats()
        for entry in self.available_upgrades():
            self.install(entry.name, stats)
        return stats

    def uninstall(self, name: str) -> InstallStats:
        stats = InstallStats()
        installed = self._node.pkgdb.get(name)
        if installed is None:
            raise PackageManagerError(f"package not installed: {name}")
        # Re-fetch the package to obtain its de-installation scripts.
        entry = self.index.get(name)
        scripts = {}
        if entry is not None:
            try:
                scripts = self._download_verified(entry, InstallStats()).package.scripts
            except (IntegrityError, SignatureError):
                scripts = {}
        self._run_script(scripts, ".pre-deinstall", stats)
        for path in installed.files:
            if self._node.fs.exists(path):
                self._node.fs.remove(path)
        self._run_script(scripts, ".post-deinstall", stats)
        self._node.pkgdb.remove(name)
        stats.packages += 1
        stats.operations.append(f"del {name}")
        return stats

    def _install_one(self, entry: IndexEntry, stats: InstallStats):
        parsed = self._download_verified(entry, stats)
        package = parsed.package
        self._run_script(package.scripts, ".pre-install", stats)
        self._extract(package, stats)
        self._run_script(package.scripts, ".post-install", stats)
        self._record(package, entry, parsed)
        stats.packages += 1
        stats.operations.append(f"add {entry.describe()}")

    def _upgrade_one(self, entry: IndexEntry, stats: InstallStats):
        parsed = self._download_verified(entry, stats)
        package = parsed.package
        previous = self._node.pkgdb.get(entry.name)
        self._run_script(package.scripts, ".pre-upgrade", stats)
        self._extract(package, stats)
        # Remove files the new version no longer ships.
        new_paths = {f.path for f in package.files}
        if previous is not None:
            for path in previous.files:
                if path not in new_paths and self._node.fs.exists(path):
                    self._node.fs.remove(path)
        self._run_script(package.scripts, ".post-upgrade", stats)
        self._record(package, entry, parsed)
        stats.packages += 1
        stats.operations.append(f"upg {entry.describe()}")

    def _extract(self, package: ApkPackage, stats: InstallStats):
        """Extract data-segment files; PAX security.ima records become
        filesystem xattrs (the GNU-tar behaviour TSR relies on)."""
        for pkg_file in package.files:
            self._node.fs.write_file(pkg_file.path, pkg_file.content,
                                     mode=pkg_file.mode)
            stats.files_written += 1
            stats.bytes_written += len(pkg_file.content)
            if pkg_file.ima_signature is not None:
                self._node.fs.set_xattr(pkg_file.path, "security.ima",
                                        pkg_file.ima_signature)
                stats.xattrs_written += 1

    def _run_script(self, scripts: dict[str, str], hook: str, stats: InstallStats):
        source = scripts.get(hook)
        if source is None:
            return
        # Scripts run in the package-manager context: their transient reads
        # are not measured (the dont_measure policy rule; see ImaSubsystem).
        with self._node.ima.measurement_exempt():
            result = self._interpreter.run(source)
        stats.scripts_run += 1
        if result.exit_code != 0:
            raise PackageManagerError(
                f"installation script {hook} failed with exit {result.exit_code}"
            )

    def _record(self, package: ApkPackage, entry: IndexEntry, parsed: ParsedApk):
        self._node.pkgdb.add(InstalledPackage(
            name=package.name,
            version=package.version,
            content_hash=entry.sha256,
            files=tuple(sorted(f.path for f in package.files)),
        ))

    # -- post-install exercising -----------------------------------------------------------

    def exercise(self, name: str):
        """Open every file of an installed package (services restarting),
        which drives the IMA measurements verifiers will see."""
        installed = self._node.pkgdb.get(name)
        if installed is None:
            raise PackageManagerError(f"package not installed: {name}")
        self._node.exercise_paths(list(installed.files))
