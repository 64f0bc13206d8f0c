"""A from-scratch ustar reader/writer with PAX extended headers.

Implements the subset of POSIX.1-2001 pax interchange format the paper's
mechanism needs:

* plain ustar entries (regular files, directories, symlinks),
* per-entry ``x`` extended headers carrying ``key=value`` records,
* the ``SCHILY.xattr.*`` convention GNU tar uses to map PAX records to
  filesystem extended attributes — which is exactly how TSR ships
  ``security.ima`` signatures to the target OS (paper section 5.3).

Values in PAX records may be raw bytes (signatures are binary); records are
length-prefixed so parsing stays unambiguous.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.util.errors import PackagingError

BLOCK_SIZE = 512

TYPE_REGULAR = b"0"
TYPE_SYMLINK = b"2"
TYPE_DIRECTORY = b"5"
TYPE_PAX_HEADER = b"x"

_USTAR_MAGIC = b"ustar\x0000"


@dataclass
class TarEntry:
    """One archive member, with optional PAX extended headers."""

    name: str
    data: bytes = b""
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    mtime: int = 0
    typeflag: bytes = TYPE_REGULAR
    linkname: str = ""
    uname: str = "root"
    gname: str = "root"
    pax_headers: dict[str, bytes] = field(default_factory=dict)

    @property
    def is_file(self) -> bool:
        return self.typeflag == TYPE_REGULAR

    @property
    def is_dir(self) -> bool:
        return self.typeflag == TYPE_DIRECTORY

    @property
    def is_symlink(self) -> bool:
        return self.typeflag == TYPE_SYMLINK

    def xattrs(self) -> dict[str, bytes]:
        """Extended attributes carried via SCHILY.xattr.* PAX records."""
        prefix = "SCHILY.xattr."
        return {
            key[len(prefix):]: value
            for key, value in self.pax_headers.items()
            if key.startswith(prefix)
        }

    def set_xattr(self, name: str, value: bytes):
        """Attach an extended attribute (e.g. ``security.ima``)."""
        self.pax_headers[f"SCHILY.xattr.{name}"] = value

    def text(self) -> str:
        """The member's data decoded as UTF-8."""
        return _utf8(self.data, f"tar member {self.name!r}")


def _octal_field(value: int, width: int) -> bytes:
    """NUL-terminated zero-padded octal, the classic tar numeric encoding."""
    if value < 0:
        raise PackagingError(f"tar numeric fields must be non-negative: {value}")
    text = b"%0*o\x00" % (width - 1, value)
    if len(text) > width:
        raise PackagingError(f"value {value} does not fit in {width}-byte octal field")
    return text


def _string_field(value: str, width: int, what: str) -> bytes:
    """``value``'s UTF-8 bytes, unpadded (NUL padding adds nothing to the
    header checksum, so the caller pads while joining)."""
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise PackagingError(f"{what} too long for tar header: {value!r}")
    return raw


#: Header bytes no entry changes: the devmajor and devminor fields (octal
#: zero), then the empty prefix and the padding to 512 bytes.
_HEADER_TAIL = b"0000000\x00" * 2 + b"\x00" * (155 + 12)
#: Their share of the checksum, with the ustar magic's and that of the
#: checksum field itself, which counts as eight spaces.
_FIXED_CHECKSUM = sum(_USTAR_MAGIC) + sum(_HEADER_TAIL) + 8 * ord(" ")


def _build_header(name: str, size: int, entry: TarEntry, typeflag: bytes) -> bytes:
    """One ustar header block, each field encoded once.  The checksum is
    the sum of the header's bytes with its own field read as spaces: the
    variable fields' bytes plus :data:`_FIXED_CHECKSUM`."""
    name_raw = _string_field(name, 100, "entry name")
    numbers = (_octal_field(entry.mode & 0o7777, 8)
               + _octal_field(entry.uid, 8)
               + _octal_field(entry.gid, 8)
               + _octal_field(size, 12)
               + _octal_field(entry.mtime, 12))
    linkname = _string_field(entry.linkname, 100, "link name")
    uname = _string_field(entry.uname, 32, "user name")
    gname = _string_field(entry.gname, 32, "group name")
    checksum = (_FIXED_CHECKSUM + sum(name_raw) + sum(numbers)
                + sum(typeflag) + sum(linkname) + sum(uname) + sum(gname))
    header = b"".join((
        name_raw.ljust(100, b"\x00"), numbers, b"%06o\x00 " % checksum,
        typeflag, linkname.ljust(100, b"\x00"), _USTAR_MAGIC,
        uname.ljust(32, b"\x00"), gname.ljust(32, b"\x00"), _HEADER_TAIL))
    assert len(header) == BLOCK_SIZE
    return header


def _padding(size: int) -> bytes:
    """The NUL bytes that fill a ``size``-byte body to whole blocks."""
    return b"\x00" * (-size % BLOCK_SIZE)


def _encode_pax_records(records: dict[str, bytes]) -> bytes:
    """Encode PAX records: ``<len> <key>=<value>\\n`` with len counting itself."""
    out = bytearray()
    for key, value in sorted(records.items()):
        body = key.encode("utf-8") + b"=" + value + b"\n"
        # Total length includes the decimal length field and the space.
        length = len(body) + 3  # minimum guess: 2 digits + space
        while len(str(length)) + 1 + len(body) != length:
            length = len(str(length)) + 1 + len(body)
        out += str(length).encode("ascii") + b" " + body
    return bytes(out)


def _decode_pax_records(data: bytes) -> dict[str, bytes]:
    records: dict[str, bytes] = {}
    offset = 0
    while offset < len(data):
        space = data.find(b" ", offset)
        if space < 0:
            raise PackagingError("PAX record missing its length field")
        length_field = data[offset:space]
        if not length_field.isdigit():
            raise PackagingError(f"malformed PAX record length {length_field!r}")
        length = int(length_field)
        if offset + length > len(data):
            raise PackagingError("PAX record length exceeds the header")
        record = data[space + 1:offset + length]
        if not record.endswith(b"\n"):
            raise PackagingError("PAX record missing trailing newline")
        key_bytes, _, value = record[:-1].partition(b"=")
        records[_utf8(key_bytes, "PAX record key")] = value
        offset += length
    return records


def write_tar(entries: list[TarEntry]) -> bytes:
    """Serialize entries to a tar stream (with PAX headers where needed)."""
    out = []
    for entry in entries:
        if entry.pax_headers:
            pax_body = _encode_pax_records(entry.pax_headers)
            pax_name = f"./PaxHeaders/{entry.name[:85]}"
            out += (_build_header(pax_name, len(pax_body), entry, TYPE_PAX_HEADER),
                    pax_body, _padding(len(pax_body)))
        size = len(entry.data) if entry.is_file else 0
        if not entry.is_file and entry.data:
            raise PackagingError(
                f"non-regular entry {entry.name!r} cannot carry data"
            )
        out.append(_build_header(entry.name, size, entry, entry.typeflag))
        if entry.is_file:
            out += (entry.data, _padding(size))
    out.append(b"\x00" * (2 * BLOCK_SIZE))  # end-of-archive marker
    return b"".join(out)


def _parse_octal(raw: bytes, what: str) -> int:
    text = raw.rstrip(b"\x00 ").lstrip()
    if not text:
        return 0
    try:
        return int(text, 8)
    except ValueError:
        raise PackagingError(f"bad octal in tar {what}: {raw!r}") from None


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackagingError(
            f"{what} is not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


#: The ustar header fields a reader uses, in block order: name, mode,
#: uid, gid, size, mtime, checksum, typeflag, linkname, magic and
#: version, uname, gname (devmajor, devminor and prefix are not read).
_HEADER = struct.Struct("100s8s8s8s12s12s8sc100s8s32s32s")
_END_BLOCK = b"\x00" * BLOCK_SIZE
_HALF_BLOCK = BLOCK_SIZE // 2


def read_tar(data: bytes) -> list[TarEntry]:
    """Parse a tar stream produced by :func:`write_tar` (or compatible).

    Each header unpacks in one :data:`_HEADER` call.  Its checksum is the
    sum of its 512 bytes with the checksum field read as eight spaces;
    each 256-byte half sums to at most 65,280, below Adler-32's modulus
    of 65,521, so the low half of ``zlib.adler32(half, 0)`` is that
    half's exact byte sum.
    """
    entries: list[TarEntry] = []
    pending_pax: dict[str, bytes] = {}
    unpack = _HEADER.unpack_from
    offset = 0
    while offset + BLOCK_SIZE <= len(data):
        (name, mode, uid, gid, size, mtime, checksum, typeflag, linkname,
         magic, uname, gname) = unpack(data, offset)
        if magic != _USTAR_MAGIC:
            if data[offset:offset + BLOCK_SIZE] == _END_BLOCK:
                break  # end-of-archive
            raise PackagingError(f"bad ustar magic at offset {offset}")
        middle = offset + _HALF_BLOCK
        actual_checksum = ((zlib.adler32(data[offset:middle], 0) & 0xFFFF)
                           + (zlib.adler32(data[middle:offset + BLOCK_SIZE],
                                           0) & 0xFFFF)
                           - sum(checksum) + 8 * ord(" "))
        if _parse_octal(checksum, "checksum") != actual_checksum:
            raise PackagingError(f"tar header checksum mismatch at offset {offset}")
        size = _parse_octal(size, "size")
        start = offset + BLOCK_SIZE
        body = data[start:start + size]
        if len(body) != size:
            raise PackagingError("truncated tar entry body")
        offset = start + (size + BLOCK_SIZE - 1) // BLOCK_SIZE * BLOCK_SIZE
        if typeflag == TYPE_PAX_HEADER:
            pending_pax = _decode_pax_records(body)
            continue
        try:
            entry = TarEntry(
                name=name.rstrip(b"\x00").decode("utf-8"),
                data=body if typeflag == TYPE_REGULAR else b"",
                mode=_parse_octal(mode, "mode"),
                uid=_parse_octal(uid, "uid"),
                gid=_parse_octal(gid, "gid"),
                mtime=_parse_octal(mtime, "mtime"),
                typeflag=typeflag,
                linkname=linkname.rstrip(b"\x00").decode("utf-8"),
                uname=uname.rstrip(b"\x00").decode("utf-8"),
                gname=gname.rstrip(b"\x00").decode("utf-8"),
                pax_headers=pending_pax,
            )
        except UnicodeDecodeError as exc:
            raise PackagingError(
                f"tar header string is not valid UTF-8 ({exc.reason})"
            ) from exc
        pending_pax = {}
        entries.append(entry)
    else:
        raise PackagingError("tar stream missing end-of-archive marker")
    return entries
