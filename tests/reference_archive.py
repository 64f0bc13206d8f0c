"""The field-by-field tar writer and reader and the ``GzipFile`` gzip
writer: the oracles the archive tests use.

:func:`reference_write_tar` is the writer :mod:`repro.archive.tar` once
ran: every header appends its sixteen fields to a ``bytearray``, sums
all 512 bytes with an eight-space checksum placeholder and splices the
checksum in.  :func:`reference_read_tar` is the reader it once ran, PAX record
decoder included: each header is sliced field by field and its checksum
is a per-byte ``sum``.
:func:`reference_gzip_compress` is the ``gzip.GzipFile(mtime=0)`` body
:func:`repro.archive.gz.gzip_compress` once had.  They are kept only so
tests can check the library's one-pass writers against them byte for
byte (and error text for error text), and its reader entry for entry
and verdict for verdict.
"""

from __future__ import annotations

import gzip
import io

from repro.archive.tar import (
    BLOCK_SIZE,
    TYPE_PAX_HEADER,
    TYPE_REGULAR,
    TarEntry,
    _encode_pax_records,
)
from repro.util.errors import PackagingError

_USTAR_MAGIC = b"ustar\x0000"


def _octal_field(value: int, width: int) -> bytes:
    """NUL-terminated zero-padded octal, the classic tar numeric encoding."""
    if value < 0:
        raise PackagingError(f"tar numeric fields must be non-negative: {value}")
    text = oct(value)[2:]
    if len(text) > width - 1:
        raise PackagingError(f"value {value} does not fit in {width}-byte octal field")
    return text.rjust(width - 1, "0").encode("ascii") + b"\x00"


def _string_field(value: str, width: int, what: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise PackagingError(f"{what} too long for tar header: {value!r}")
    return raw.ljust(width, b"\x00")


def reference_build_header(name: str, size: int, entry: TarEntry,
                           typeflag: bytes) -> bytes:
    header = bytearray()
    header += _string_field(name, 100, "entry name")
    header += _octal_field(entry.mode & 0o7777, 8)
    header += _octal_field(entry.uid, 8)
    header += _octal_field(entry.gid, 8)
    header += _octal_field(size, 12)
    header += _octal_field(entry.mtime, 12)
    header += b"        "  # checksum placeholder: 8 spaces
    header += typeflag
    header += _string_field(entry.linkname, 100, "link name")
    header += _USTAR_MAGIC
    header += _string_field(entry.uname, 32, "user name")
    header += _string_field(entry.gname, 32, "group name")
    header += _octal_field(0, 8)  # devmajor
    header += _octal_field(0, 8)  # devminor
    header += _string_field("", 155, "prefix")
    header += b"\x00" * 12
    assert len(header) == BLOCK_SIZE
    checksum = sum(header)
    header[148:156] = f"{checksum:06o}".encode("ascii") + b"\x00 "
    return bytes(header)


def _pad_to_block(data: bytes) -> bytes:
    remainder = len(data) % BLOCK_SIZE
    if remainder:
        return data + b"\x00" * (BLOCK_SIZE - remainder)
    return data


def reference_write_tar(entries: list[TarEntry]) -> bytes:
    """Serialize entries to a tar stream (with PAX headers where needed)."""
    out = bytearray()
    for index, entry in enumerate(entries):
        if entry.pax_headers:
            pax_body = _encode_pax_records(entry.pax_headers)
            pax_name = f"./PaxHeaders/{entry.name[:85]}"
            out += reference_build_header(pax_name, len(pax_body), entry,
                                          TYPE_PAX_HEADER)
            out += _pad_to_block(pax_body)
        size = len(entry.data) if entry.is_file else 0
        if not entry.is_file and entry.data:
            raise PackagingError(
                f"non-regular entry {entry.name!r} cannot carry data"
            )
        out += reference_build_header(entry.name, size, entry, entry.typeflag)
        if entry.is_file:
            out += _pad_to_block(entry.data)
        del index
    out += b"\x00" * (2 * BLOCK_SIZE)  # end-of-archive marker
    return bytes(out)


def reference_gzip_compress(data: bytes, level: int = 6) -> bytes:
    """Compress with a deterministic gzip container (mtime pinned to 0)."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", compresslevel=level, mtime=0) as gz:
        gz.write(data)
    return buffer.getvalue()


def _parse_octal(raw: bytes, what: str) -> int:
    text = raw.rstrip(b"\x00 ").lstrip()
    if not text:
        return 0
    try:
        return int(text, 8)
    except ValueError:
        raise PackagingError(f"bad octal in tar {what}: {raw!r}") from None


def _parse_string(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackagingError(
            f"{what} is not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


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


def reference_read_tar(data: bytes) -> list[TarEntry]:
    """Parse a tar stream produced by ``write_tar`` (or compatible)."""
    entries: list[TarEntry] = []
    pending_pax: dict[str, bytes] = {}
    offset = 0
    while offset + BLOCK_SIZE <= len(data):
        header = data[offset:offset + BLOCK_SIZE]
        if header == b"\x00" * BLOCK_SIZE:
            break  # end-of-archive
        if header[257:265] != _USTAR_MAGIC:
            raise PackagingError(f"bad ustar magic at offset {offset}")
        stored_checksum = _parse_octal(header[148:156], "checksum")
        actual_checksum = sum(header) - sum(header[148:156]) + 8 * ord(" ")
        if stored_checksum != actual_checksum:
            raise PackagingError(f"tar header checksum mismatch at offset {offset}")
        size = _parse_octal(header[124:136], "size")
        typeflag = header[156:157]
        body = data[offset + BLOCK_SIZE:offset + BLOCK_SIZE + size]
        if len(body) != size:
            raise PackagingError("truncated tar entry body")
        offset += BLOCK_SIZE + (size + BLOCK_SIZE - 1) // BLOCK_SIZE * BLOCK_SIZE
        if typeflag == TYPE_PAX_HEADER:
            pending_pax = _decode_pax_records(body)
            continue
        try:
            entry = TarEntry(
                name=_parse_string(header[0:100]),
                data=body if typeflag == TYPE_REGULAR else b"",
                mode=_parse_octal(header[100:108], "mode"),
                uid=_parse_octal(header[108:116], "uid"),
                gid=_parse_octal(header[116:124], "gid"),
                mtime=_parse_octal(header[136:148], "mtime"),
                typeflag=typeflag,
                linkname=_parse_string(header[157:257]),
                uname=_parse_string(header[265:297]),
                gname=_parse_string(header[297:329]),
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
