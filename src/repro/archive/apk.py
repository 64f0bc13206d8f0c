"""The apk v2 package container (paper Figure 3).

An ``.apk`` is three concatenated gzip streams:

1. **signature segment** — a tar holding ``.SIGN.RSA.<key-name>``: an RSA
   signature issued over the *compressed control segment bytes*;
2. **control segment** — a tar holding ``.PKGINFO`` (name, version, deps,
   and ``datahash`` — the SHA-256 of the compressed data segment) plus the
   installation scripts (``.pre-install``, ``.post-install``, …);
3. **data segment** — a tar with the software-specific files; after
   sanitization each file entry carries its IMA signature in a
   ``SCHILY.xattr.security.ima`` PAX record.

The signature therefore certifies the control segment, and the control
segment's ``datahash`` certifies the data segment — exactly the chain the
paper describes under Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.gz import (
    gzip_compress_cached,
    gzip_compress_cached_with_cost,
    gzip_decompress,
    split_gzip_streams,
)
from repro.archive.tar import TarEntry, read_tar, write_tar
from repro.crypto.hashes import sha256_bytes, sha256_hex
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.util.errors import IntegrityError, PackagingError, SignatureError

SIGNATURE_PAX_KEY = "SCHILY.xattr.security.ima"

#: Script hook names apk supports, in the order the package manager runs them.
SCRIPT_HOOKS = (
    ".pre-install",
    ".post-install",
    ".pre-upgrade",
    ".post-upgrade",
    ".pre-deinstall",
    ".post-deinstall",
)


@dataclass
class PackageFile:
    """One file shipped in the data segment."""

    path: str
    content: bytes
    mode: int = 0o644
    ima_signature: bytes | None = None


@dataclass
class ApkPackage:
    """In-memory representation of an apk package."""

    name: str
    version: str
    arch: str = "x86_64"
    description: str = ""
    depends: list[str] = field(default_factory=list)
    scripts: dict[str, str] = field(default_factory=dict)
    files: list[PackageFile] = field(default_factory=list)
    #: Signatures over predicted config files, installed by sanitized
    #: scripts (paper section 4.2); maps target path -> signature bytes.
    config_signatures: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self):
        for hook in self.scripts:
            if hook not in SCRIPT_HOOKS:
                raise PackagingError(f"unknown script hook {hook!r}")

    @property
    def full_name(self) -> str:
        return f"{self.name}-{self.version}"

    def file_map(self) -> dict[str, PackageFile]:
        return {f.path: f for f in self.files}

    # -- serialization -----------------------------------------------------

    def _control_tar(self, data_blob: bytes) -> bytes:
        pkginfo_lines = [
            f"pkgname = {self.name}",
            f"pkgver = {self.version}",
            f"arch = {self.arch}",
            f"pkgdesc = {self.description}",
            f"datahash = {sha256_hex(data_blob)}",
        ]
        pkginfo_lines.extend(f"depend = {dep}" for dep in self.depends)
        entries = [TarEntry(name=".PKGINFO",
                            data="\n".join(pkginfo_lines).encode() + b"\n")]
        for hook in SCRIPT_HOOKS:
            if hook in self.scripts:
                entries.append(TarEntry(name=hook, mode=0o755,
                                        data=self.scripts[hook].encode()))
        if self.config_signatures:
            for path in sorted(self.config_signatures):
                entry = TarEntry(name=f".config-sig{path}",
                                 data=self.config_signatures[path])
                entries.append(entry)
        return write_tar(entries)

    def _data_tar(self) -> bytes:
        entries = []
        for pkg_file in sorted(self.files, key=lambda f: f.path):
            entry = TarEntry(
                name=pkg_file.path.lstrip("/"),
                data=pkg_file.content,
                mode=pkg_file.mode,
            )
            if pkg_file.ima_signature is not None:
                entry.set_xattr("security.ima", pkg_file.ima_signature)
            entries.append(entry)
        return write_tar(entries)

    def _data_tar_gz(self) -> bytes:
        return gzip_compress_cached(self._data_tar())

    def build_segments(self, signing_key: RsaPrivateKey,
                       key_name: str = "builder") -> tuple[bytes, bytes, bytes]:
        """The three compressed segments (signature, control, data).

        Incremental repack: each segment compresses through the
        deterministic-gzip memo, so a rebuild only re-deflates the
        segments whose members actually changed — an unchanged data tar
        splices its previously compressed bytes even when the control
        segment (and therefore the signature) was rewritten.  The
        resulting bytes are pinned identical to a cold full repack by the
        differential suite.
        """
        segments, _ = self._build_segments_with_cost(signing_key, key_name)
        return segments

    def _build_segments_with_cost(
            self, signing_key: RsaPrivateKey,
            key_name: str) -> tuple[tuple[bytes, bytes, bytes], float]:
        data_gz, data_cost = gzip_compress_cached_with_cost(self._data_tar())
        control_gz, control_cost = gzip_compress_cached_with_cost(
            self._control_tar(data_gz))
        signature = signing_key.sign(control_gz)
        signature_tar = write_tar(
            [TarEntry(name=f".SIGN.RSA.{key_name}.rsa.pub", data=signature)]
        )
        signature_gz, signature_cost = gzip_compress_cached_with_cost(
            signature_tar)
        cost = data_cost + control_cost + signature_cost
        return (signature_gz, control_gz, data_gz), cost

    def build(self, signing_key: RsaPrivateKey, key_name: str = "builder") -> bytes:
        """Serialize and sign, producing the on-the-wire apk bytes."""
        signature_gz, control_gz, data_gz = self.build_segments(
            signing_key, key_name=key_name)
        return signature_gz + control_gz + data_gz

    def build_with_cost(self, signing_key: RsaPrivateKey,
                        key_name: str = "builder") -> tuple[bytes, float]:
        """Like :meth:`build`, also reporting the host seconds the deflate
        work originally cost (memo hits report the recorded fresh cost)."""
        segments, cost = self._build_segments_with_cost(signing_key, key_name)
        return b"".join(segments), cost

    # -- parsing / verification --------------------------------------------

    @classmethod
    def parse(cls, blob: bytes) -> "ParsedApk":
        """Split an apk into its segments and decode metadata."""
        segments = split_gzip_streams(blob, expected=3)
        signature_entries = read_tar(gzip_decompress(segments[0]))
        control_entries = read_tar(gzip_decompress(segments[1]))
        signature = None
        signer_name = None
        for entry in signature_entries:
            if entry.name.startswith(".SIGN.RSA."):
                signature = entry.data
                signer_name = entry.name[len(".SIGN.RSA."):]
        if signature is None:
            raise PackagingError("apk missing .SIGN.RSA signature entry")
        pkginfo = None
        scripts: dict[str, str] = {}
        config_signatures: dict[str, bytes] = {}
        for entry in control_entries:
            if entry.name == ".PKGINFO":
                pkginfo = entry.data.decode()
            elif entry.name in SCRIPT_HOOKS:
                scripts[entry.name] = entry.data.decode()
            elif entry.name.startswith(".config-sig"):
                config_signatures[entry.name[len(".config-sig"):]] = entry.data
        if pkginfo is None:
            raise PackagingError("apk control segment missing .PKGINFO")
        meta = _parse_pkginfo(pkginfo)
        data_entries = read_tar(gzip_decompress(segments[2]))
        files = []
        for entry in data_entries:
            if not entry.is_file:
                continue
            files.append(PackageFile(
                path="/" + entry.name.lstrip("/"),
                content=entry.data,
                mode=entry.mode,
                ima_signature=entry.xattrs().get("security.ima"),
            ))
        package = cls(
            name=meta["pkgname"],
            version=meta["pkgver"],
            arch=meta.get("arch", "x86_64"),
            description=meta.get("pkgdesc", ""),
            depends=meta.get("depends", []),
            scripts=scripts,
            files=files,
            config_signatures=config_signatures,
        )
        return ParsedApk(
            package=package,
            signature=signature,
            signer_name=signer_name,
            control_gz=segments[1],
            data_gz=segments[2],
            datahash=meta["datahash"],
        )


@dataclass
class ParsedApk:
    """A parsed apk: the package plus the raw segments needed to verify it."""

    package: ApkPackage
    signature: bytes
    signer_name: str | None
    control_gz: bytes
    data_gz: bytes
    datahash: str

    def verify(self, trusted_keys: list[RsaPublicKey]) -> RsaPublicKey:
        """Full chain check: signature over control, datahash over data.

        Returns the key that verified the signature, or raises.
        """
        return self.verify_with_cost(trusted_keys)[0]

    def verify_with_cost(
            self, trusted_keys: list[RsaPublicKey]
    ) -> tuple[RsaPublicKey, float]:
        """Like :meth:`verify`, also reporting the host seconds the chain
        check originally cost (signature verdicts are memoized; the
        recorded cost lets enclave-time models charge hits as fresh)."""
        signer = None
        cost = 0.0
        for key in trusted_keys:
            ok, verify_cost = key.verify_with_cost(self.control_gz,
                                                   self.signature)
            cost += verify_cost
            if ok:
                signer = key
                break
        if signer is None:
            raise SignatureError(
                f"package {self.package.full_name}: control segment signature "
                "did not verify under any trusted key"
            )
        actual = sha256_hex(self.data_gz)
        if actual != self.datahash:
            raise IntegrityError(
                f"package {self.package.full_name}: datahash mismatch "
                f"(control says {self.datahash[:12]}…, data is {actual[:12]}…)"
            )
        return signer, cost


def _parse_pkginfo(text: str) -> dict:
    """Parse the ``key = value`` lines of .PKGINFO."""
    meta: dict = {"depends": []}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PackagingError(f"malformed .PKGINFO line: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "depend":
            meta["depends"].append(value)
        else:
            meta[key] = value
    for required in ("pkgname", "pkgver", "datahash"):
        if required not in meta:
            raise PackagingError(f".PKGINFO missing required field {required!r}")
    return meta


def package_content_hash(blob: bytes) -> str:
    """Hash of the full apk file, as recorded in the repository index."""
    return sha256_hex(blob)


def package_size(blob: bytes) -> int:
    return len(blob)


__all__ = [
    "ApkPackage",
    "PackageFile",
    "ParsedApk",
    "SCRIPT_HOOKS",
    "SIGNATURE_PAX_KEY",
    "package_content_hash",
    "package_size",
    "sha256_bytes",
]
