"""Package sanitization (paper sections 4.2 and 5.3).

Sanitizing a package means:

1. **verify** its authenticity and integrity (signature over the control
   segment, datahash over the data segment) against the policy's trusted
   signer keys;
2. **classify** its installation scripts (Table 2) and reject the package
   if any operation is neither safe nor sanitizable (configuration
   changes, shell activation);
3. **rewrite** the scripts: account-creation commands are replaced by the
   repository-wide deterministic prelude; ``passwd -d`` (the
   CVE-2019-5021 pattern) is dropped; predicted configuration files and
   ``touch``-created empty files get ``setfattr`` lines installing TSR's
   IMA signatures;
4. **sign** every file in the data segment (256-byte RSA signatures into
   PAX ``security.ima`` records);
5. **repack** and re-sign the package with the repository's key.

Each phase is timed individually — Table 4's correlations and Fig. 8/12
are computed from these timings.

The pipeline is split at the trust-relevant boundary between
*content-determined* and *repository-determined* work:

* :meth:`Sanitizer.analyze_blob` — parse, verify, classify, and filter
  the scripts.  The result (:class:`PackageAnalysis`) depends only on the
  package bytes and the trusted signer set, so a multi-tenant TSR can
  compute it once per unique upstream blob and share it across tenant
  repositories (the enclave memoizes it under the blob hash — see
  :mod:`repro.core.program`).  Rejections are content-determined too and
  are recorded in the analysis for replay.
* :meth:`Sanitizer.finish_from_analysis` — everything keyed to one
  repository: splice this repository's account prelude and IMA signature
  lines into the filtered scripts, sign every file with the repository
  key, and repack.  Output bytes are identical whether the analysis was
  computed fresh or replayed from the memo.

:meth:`Sanitizer.sanitize_blob` composes the two (the single-tenant
path); its output is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.archive.apk import ApkPackage, ParsedApk
from repro.core.catalog import RepositoryCatalog
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.ima.subsystem import ima_signature_for, ima_signature_with_cost
from repro.scripts.classify import OperationType, ScriptProfile, classify_script
from repro.scripts.parser import parse_script
from repro.scripts.shell_ast import (
    ConditionalList,
    IfStatement,
    Pipeline,
    Script,
    Statement,
)
from repro.util.errors import ReproError, ScriptError

_ACCOUNT_COMMANDS = frozenset({"adduser", "addgroup", "passwd"})

CONFIG_PATHS = ("/etc/passwd", "/etc/shadow", "/etc/group")


class SanitizationRejected(ReproError):
    """The package cannot be made safe; TSR refuses to publish it."""

    def __init__(self, package: str, reason: str):
        super().__init__(f"package {package!r} rejected: {reason}")
        self.package = package
        self.reason = reason


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each sanitization phase."""

    verify: float = 0.0
    archive: float = 0.0
    scripts: float = 0.0
    sign: float = 0.0

    @property
    def total(self) -> float:
        return self.verify + self.archive + self.scripts + self.sign

    def proportions(self) -> dict[str, float]:
        total = self.total or 1e-12
        return {
            "verify": self.verify / total,
            "archive": self.archive / total,
            "scripts": self.scripts / total,
            "sign": self.sign / total,
        }


@dataclass
class SanitizationResult:
    """A sanitized package plus the measurements the evaluation needs."""

    package: ApkPackage
    blob: bytes
    original_size: int
    sanitized_size: int
    file_count: int
    uncompressed_size: int
    timings: PhaseTimings
    profile: ScriptProfile
    insecure_findings: list[tuple[str, str]] = field(default_factory=list)
    #: True when the content-determined analysis came from the shared
    #: refresh memo (another tenant already paid for parse/verify/classify).
    shared_analysis: bool = False

    @property
    def size_overhead(self) -> float:
        """Fractional growth, e.g. 0.12 for +12 % (Fig. 9)."""
        if self.original_size == 0:
            return 0.0
        return (self.sanitized_size - self.original_size) / self.original_size

    @property
    def working_set_bytes(self) -> int:
        """Peak enclave memory estimate: compressed blob + extracted data."""
        return self.original_size + self.uncompressed_size


@dataclass
class HookAnalysis:
    """Content-determined rewrite state of one installation script."""

    profile: ScriptProfile
    #: Verbatim source for safe scripts (no rewrite needed); None when the
    #: script was filtered and must be re-rendered per repository.
    source: str | None = None
    #: Statements retained after dropping account pipelines (unsafe-but-
    #: sanitizable scripts only).
    kept: list[Statement] = field(default_factory=list)
    #: Original shebang (falls back to ``#!/bin/sh`` at render time).
    shebang: str | None = None
    #: Paths ``touch``-created by the retained statements.
    touched: list[str] = field(default_factory=list)


@dataclass
class PackageAnalysis:
    """Everything about one blob that does not depend on the repository.

    Shareable across tenants whose policies trust the same signer set;
    ``timings`` records the parse/verify/classify cost so the *first*
    repository to sanitize the blob accounts it and memo hits do not.
    """

    package: ApkPackage
    original_size: int
    profile: ScriptProfile
    hooks: dict[str, HookAnalysis]
    timings: PhaseTimings
    #: (package name, reason) when classification rejected the package.
    rejection: tuple[str, str] | None = None

    def charged(self) -> "PackageAnalysis":
        """A view of this analysis whose shared cost is already paid."""
        return PackageAnalysis(
            package=self.package,
            original_size=self.original_size,
            profile=self.profile,
            hooks=self.hooks,
            timings=PhaseTimings(),
            rejection=self.rejection,
        )


class Sanitizer:
    """Sanitizes packages for one TSR repository (one policy)."""

    def __init__(self, signing_key: RsaPrivateKey,
                 trusted_signers: list[RsaPublicKey],
                 catalog: RepositoryCatalog,
                 init_config: dict[str, str]):
        self._signing_key = signing_key
        self._trusted_signers = list(trusted_signers)
        self._catalog = catalog
        self._predicted_config = catalog.predict_config(init_config)
        self._config_signatures = {
            path: ima_signature_for(content.encode(), signing_key)
            for path, content in self._predicted_config.items()
        }
        self._prelude_lines = catalog.prelude_script_lines()
        self._empty_file_signature = ima_signature_for(b"", signing_key)

    @property
    def predicted_config(self) -> dict[str, str]:
        return dict(self._predicted_config)

    @property
    def public_key(self) -> RsaPublicKey:
        return self._signing_key.public_key

    # -- the pipeline ------------------------------------------------------------

    def sanitize_blob(self, blob: bytes) -> SanitizationResult:
        """Run the full sanitization pipeline on raw apk bytes."""
        return self.finish_from_analysis(self.analyze_blob(blob))

    def analyze_blob(self, blob: bytes) -> PackageAnalysis:
        """The content-determined half: parse, verify, classify, filter.

        Never raises for rejected packages — the rejection is recorded so
        a memoized analysis replays it identically per repository.
        """
        timings = PhaseTimings()

        start = time.perf_counter()
        parsed = ApkPackage.parse(blob)
        timings.archive += time.perf_counter() - start

        start = time.perf_counter()
        _, verify_cost = parsed.verify_with_cost(self._trusted_signers)
        # A memoized verdict returns in microseconds but represents the
        # same enclave work as the first computation: charge whichever is
        # larger, so memo hits and fresh verifies account identically.
        timings.verify += max(time.perf_counter() - start, verify_cost)

        package = parsed.package

        start = time.perf_counter()
        profile = ScriptProfile()
        hooks: dict[str, HookAnalysis] = {}
        rejection: tuple[str, str] | None = None
        for hook, source in package.scripts.items():
            try:
                script = parse_script(source)
                hook_profile = classify_script(script)
            except ScriptError as exc:
                rejection = (package.name,
                             f"unparseable script {hook}: {exc}")
                break
            profile = profile.merge(hook_profile)
            if not hook_profile.sanitizable:
                bad = ", ".join(sorted(
                    op.label for op in hook_profile.unsafe_operations
                    if not op.sanitizable
                ))
                rejection = (package.name, f"script {hook} performs: {bad}")
                break
            if hook_profile.safe:
                hooks[hook] = HookAnalysis(profile=hook_profile,
                                           source=source)
                continue
            kept = _filter_statements(script.statements)
            hooks[hook] = HookAnalysis(
                profile=hook_profile,
                kept=kept,
                shebang=script.shebang,
                touched=_touched_paths(kept),
            )
        timings.scripts += time.perf_counter() - start

        return PackageAnalysis(
            package=package,
            original_size=len(blob),
            profile=profile,
            hooks=hooks,
            timings=timings,
            rejection=rejection,
        )

    def finish_from_analysis(self,
                             analysis: PackageAnalysis) -> SanitizationResult:
        """The repository-determined half: render, sign, repack.

        Raises :class:`SanitizationRejected` when the analysis recorded a
        rejection; the shared parse/verify/classify cost carried in
        ``analysis.timings`` is folded into the result's timings (a memo
        hit passes a zero-cost :meth:`PackageAnalysis.charged` view).
        """
        if analysis.rejection is not None:
            raise SanitizationRejected(*analysis.rejection)
        package = analysis.package
        timings = PhaseTimings(
            verify=analysis.timings.verify,
            archive=analysis.timings.archive,
            scripts=analysis.timings.scripts,
        )

        start = time.perf_counter()
        new_scripts: dict[str, str] = {}
        profile = analysis.profile
        for hook, hook_analysis in analysis.hooks.items():
            if hook_analysis.source is not None:
                new_scripts[hook] = hook_analysis.source  # nothing to change
            else:
                new_scripts[hook] = self._render_hook(hook_analysis)
        timings.scripts += time.perf_counter() - start

        start = time.perf_counter()
        signed_files = []
        sign_cost = 0.0
        for pkg_file in package.files:
            signature, cost = ima_signature_with_cost(pkg_file.content,
                                                      self._signing_key)
            sign_cost += cost
            signed_files.append(type(pkg_file)(
                path=pkg_file.path,
                content=pkg_file.content,
                mode=pkg_file.mode,
                ima_signature=signature,
            ))
        config_signatures = {}
        if OperationType.USER_GROUP_CREATION in profile.operations:
            config_signatures = dict(self._config_signatures)
        # Memoized signatures return instantly but stand for real enclave
        # signing work: charge the recorded fresh cost when it dominates.
        timings.sign += max(time.perf_counter() - start, sign_cost)

        sanitized = ApkPackage(
            name=package.name,
            version=package.version,
            arch=package.arch,
            description=package.description,
            depends=list(package.depends),
            scripts=new_scripts,
            files=signed_files,
            config_signatures=config_signatures,
        )

        start = time.perf_counter()
        sanitized_blob, repack_cost = sanitized.build_with_cost(
            self._signing_key, key_name="tsr")
        # Spliced (memoized) segments charge their recorded deflate cost.
        timings.archive += max(time.perf_counter() - start, repack_cost)

        uncompressed = sum(len(f.content) for f in package.files)
        findings = [
            (pkg, user) for pkg, user in self._catalog.insecure_findings
            if pkg == package.name
        ]
        return SanitizationResult(
            package=sanitized,
            blob=sanitized_blob,
            original_size=analysis.original_size,
            sanitized_size=len(sanitized_blob),
            file_count=len(package.files),
            uncompressed_size=uncompressed,
            timings=timings,
            profile=profile,
            insecure_findings=findings,
        )

    # -- script rewriting -----------------------------------------------------------

    def _render_hook(self, analysis: HookAnalysis) -> str:
        """Render one filtered script with this repository's prelude and
        IMA signature lines (the repository-determined rewrite half)."""
        lines: list[str] = []
        if OperationType.USER_GROUP_CREATION in analysis.profile.operations:
            # Deterministic account prelude replaces the script's own
            # adduser/addgroup/passwd commands.
            lines.extend(self._prelude_lines)
        rewritten = Script(statements=analysis.kept,
                           shebang=analysis.shebang or "#!/bin/sh")
        body = rewritten.render().splitlines()
        if body and body[0].startswith("#!"):
            shebang, body = body[0], body[1:]
        else:
            shebang = "#!/bin/sh"
        lines = [shebang, *lines, *body]
        if OperationType.USER_GROUP_CREATION in analysis.profile.operations:
            for path in CONFIG_PATHS:
                signature = self._config_signatures[path]
                lines.append(
                    f"setfattr -n security.ima -v 0x{signature.hex()} {path}"
                )
        for path in analysis.touched:
            lines.append(
                "setfattr -n security.ima -v "
                f"0x{self._empty_file_signature.hex()} {path}"
            )
        return "\n".join(lines) + "\n"


def _filter_statements(statements: list[Statement]) -> list[Statement]:
    """Drop account-management pipelines; recurse into if-statements."""
    kept: list[Statement] = []
    for statement in statements:
        if isinstance(statement, IfStatement):
            then_body = _filter_statements(statement.then_body)
            else_body = _filter_statements(statement.else_body)
            if not then_body and not else_body:
                continue
            kept.append(IfStatement(condition=statement.condition,
                                    then_body=then_body, else_body=else_body))
            continue
        filtered = _filter_conditional(statement)
        if filtered is not None:
            kept.append(filtered)
    return kept


def _filter_conditional(conditional: ConditionalList) -> ConditionalList | None:
    pipelines: list[Pipeline] = []
    connectors: list[str] = []
    previous_connector: str | None = None
    for index, pipeline in enumerate(conditional.pipelines):
        connector = conditional.connectors[index - 1] if index else None
        if _is_account_pipeline(pipeline):
            # Dropping `adduser x && mkdir y` must keep `mkdir y`
            # unconditional; the prelude guarantees the account exists.
            previous_connector = ";" if connector is not None else None
            continue
        if pipelines:
            connectors.append(previous_connector or connector or ";")
        pipelines.append(pipeline)
        previous_connector = None
    if not pipelines:
        return None
    return ConditionalList(pipelines=pipelines, connectors=connectors)


def _is_account_pipeline(pipeline: Pipeline) -> bool:
    return any(cmd.name in _ACCOUNT_COMMANDS for cmd in pipeline.commands)


def _touched_paths(statements: list[Statement]) -> list[str]:
    """Paths created by ``touch`` in the retained statements."""
    touched: list[str] = []
    for command in Script(statements=statements).iter_commands():
        if command.name == "touch":
            touched.extend(arg for arg in command.args if not arg.startswith("-"))
    return touched
