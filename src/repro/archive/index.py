"""The repository metadata index (APKINDEX equivalent).

The index lists every package with its size and content hash; the whole
index is digitally signed by the repository owner.  Pinning sizes and hashes
in signed metadata is what defeats the endless-data and extraneous-
dependencies attacks (paper section 5.4), and the signed ``serial`` is what
the quorum protocol and the rollback defence compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.util.errors import PackagingError, SignatureError
from repro.util.memo import Memo


@dataclass(frozen=True)
class IndexEntry:
    """One package line in the metadata index."""

    name: str
    version: str
    size: int
    sha256: str
    depends: tuple[str, ...] = ()

    def key(self) -> str:
        return self.name

    def describe(self) -> str:
        return f"{self.name}-{self.version}"


@lru_cache(maxsize=1 << 16)
def format_entry_line(entry: IndexEntry) -> str:
    """The canonical ``P:|V:|S:|H:|D:`` body line for one entry.

    Shared by the signed index body and the index-delta envelope
    (:mod:`repro.core.delta`), so a delta's ``U:`` records splice into a
    reconstructed body byte-identically.  Entries are frozen, so the
    line caches per entry: unchanged packages re-serialize for free
    across publications, quorum responses, and delta envelopes.
    """
    deps = ",".join(entry.depends)
    return (f"P:{entry.name}|V:{entry.version}|S:{entry.size}"
            f"|H:{entry.sha256}|D:{deps}")


@lru_cache(maxsize=1 << 16)
def parse_entry_line(line: str) -> IndexEntry:
    """Parse one canonical body line (inverse of :func:`format_entry_line`).

    Cached per line: an unchanged package contributes the same line to
    every publication and every mirror's response, so steady-state
    re-parses are dictionary hits (malformed lines are not cached —
    ``lru_cache`` does not memoize exceptions).
    """
    try:
        fields = dict(part.split(":", 1) for part in line.split("|"))
        return IndexEntry(
            name=fields["P"],
            version=fields["V"],
            size=int(fields["S"]),
            sha256=fields["H"],
            depends=tuple(d for d in fields["D"].split(",") if d),
        )
    except (KeyError, ValueError) as exc:
        raise PackagingError(f"malformed index line {line!r}: {exc}") from exc


@dataclass
class RepositoryIndex:
    """A signed snapshot of the repository contents.

    ``serial`` increases monotonically with every upstream publication; two
    honest mirrors serving the same snapshot present the same serial and
    the same body hash.
    """

    serial: int
    entries: dict[str, IndexEntry] = field(default_factory=dict)
    signature: bytes | None = None
    signer_fingerprint: str | None = None
    #: Lazily built canonical body; invalidated whenever ``serial`` or
    #: ``entries`` are rebound (``__setattr__``) or grown (``add``).
    _body: bytes | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __setattr__(self, name, value):
        if name == "serial" or name == "entries":
            object.__setattr__(self, "_body", None)
        object.__setattr__(self, name, value)

    def add(self, entry: IndexEntry):
        self.entries[entry.key()] = entry
        self._body = None
        self.signature = None  # adding entries invalidates any signature

    def get(self, name: str) -> IndexEntry | None:
        return self.entries.get(name)

    def package_names(self) -> list[str]:
        return sorted(self.entries)

    def total_size(self) -> int:
        return sum(entry.size for entry in self.entries.values())

    # -- canonical body ----------------------------------------------------

    def body_bytes(self) -> bytes:
        """Canonical serialized body that the signature covers."""
        body = self._body
        if body is None:
            lines = [f"serial:{self.serial}"]
            for name in sorted(self.entries):
                lines.append(format_entry_line(self.entries[name]))
            body = ("\n".join(lines) + "\n").encode()
            object.__setattr__(self, "_body", body)
        return body

    def body_hash(self) -> str:
        return sha256_hex(self.body_bytes())

    # -- signing -----------------------------------------------------------

    def sign(self, key: RsaPrivateKey):
        self.signature = key.sign(self.body_bytes())
        self.signer_fingerprint = key.public_key.fingerprint()

    def verify(self, key: RsaPublicKey) -> bool:
        if self.signature is None:
            return False
        return key.verify(self.body_bytes(), self.signature)

    # -- wire format ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        if self.signature is None:
            raise SignatureError("refusing to serialize an unsigned index")
        header = f"sig:{self.signature.hex()}\n".encode()
        return header + self.body_bytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RepositoryIndex":
        """Parse the wire format; any malformation raises
        :class:`PackagingError`."""
        try:  # UnicodeDecodeError, fromhex and int all raise ValueError
            lines = blob.decode().splitlines()
            if len(lines) < 2 or not lines[0].startswith("sig:"):
                raise PackagingError("malformed index: missing signature header")
            signature = bytes.fromhex(lines[0][len("sig:"):])
            if not lines[1].startswith("serial:"):
                raise PackagingError("malformed index: missing serial")
            serial = int(lines[1][len("serial:"):])
        except ValueError as exc:
            raise PackagingError(f"malformed index header: {exc}") from exc
        index = cls(serial=serial)
        for line in lines[2:]:
            if not line.strip():
                continue
            entry = parse_entry_line(line)
            index.entries[entry.key()] = entry
        index.signature = signature
        return index

    def copy(self) -> "RepositoryIndex":
        clone = RepositoryIndex(serial=self.serial, entries=dict(self.entries))
        clone.signature = self.signature
        clone.signer_fingerprint = self.signer_fingerprint
        object.__setattr__(clone, "_body", self._body)
        return clone

    def diff_updated(self, older: "RepositoryIndex") -> list[IndexEntry]:
        """Entries that are new or changed relative to ``older``."""
        changed = []
        for name, entry in self.entries.items():
            previous = older.entries.get(name)
            if previous is None or previous.sha256 != entry.sha256:
                changed.append(entry)
        return sorted(changed, key=lambda e: e.name)


_PARSE_MEMO = Memo("archive.index.parse", 512)


def parse_index_cached(blob: bytes) -> RepositoryIndex:
    """Parse ``blob`` through a process-wide memo keyed by exact bytes.

    Quorum evaluation re-reads the same serialized index from every
    mirror in every widening wave, and the publication log replays the
    same blobs across rounds; this collapses those to one parse each.
    Returns a private :meth:`RepositoryIndex.copy` so callers may mutate
    the result without poisoning the memo.  Parse failures propagate and
    are not cached.
    """
    return _PARSE_MEMO.lookup(
        blob, lambda: RepositoryIndex.from_bytes(blob)).copy()
