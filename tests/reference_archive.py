"""The field-by-field tar writer and the ``GzipFile`` gzip writer: the
oracles the archive byte-identity tests use.

:func:`reference_write_tar` is the writer :mod:`repro.archive.tar` once
ran: every header appends its sixteen fields to a ``bytearray``, sums
all 512 bytes with an eight-space checksum placeholder and splices the
checksum in.  :func:`reference_gzip_compress` is the
``gzip.GzipFile(mtime=0)`` body :func:`repro.archive.gz.gzip_compress`
once had.  They are kept only so tests can check the library's one-pass
writers against them byte for byte (and error text for error text).
"""

from __future__ import annotations

import gzip
import io

from repro.archive.tar import (
    BLOCK_SIZE,
    TYPE_PAX_HEADER,
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
