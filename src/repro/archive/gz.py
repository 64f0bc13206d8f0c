"""Deterministic gzip segments and concatenated-stream splitting.

Alpine's apk format is three *concatenated* gzip streams (signature,
control, data).  Package hashes must be stable across rebuilds, so
compression is deterministic: fixed mtime, no filename, fixed OS byte.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections.abc import Iterator

from repro.util.errors import PackagingError
from repro.util.memo import Memo

_GZIP_MAGIC = b"\x1f\x8b"


def gzip_compress(data: bytes, level: int = 6) -> bytes:
    """Compress with a deterministic gzip container (mtime pinned to 0).

    The member is the one ``gzip.GzipFile(mtime=0)`` writes, built
    directly: a 10-byte header with no file name, mtime 0, the extra
    flags byte GzipFile derives from the level and OS byte 255; one raw
    deflate stream; the CRC32 and length trailer.  The deflate stream
    comes from a ``compressobj`` fed the whole input and then flushed,
    as GzipFile does, because at level 0 a one-shot ``zlib.compress``
    splits its stored blocks elsewhere.
    """
    extra_flags = b"\x02" if level == 9 else b"\x04" if level == 1 else b"\x00"
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return b"".join((
        b"\x1f\x8b\x08\x00\x00\x00\x00\x00", extra_flags, b"\xff",
        deflate.compress(data), deflate.flush(),
        struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)))


# Compression is deterministic (pinned mtime/OS byte), so a segment whose
# uncompressed bytes are unchanged recompresses to exactly the bytes
# produced last time.  The memo keys on the input's SHA-256 instead of the
# input itself so unchanged-segment splicing (archive.apk incremental
# repack) does not pin large uncompressed tars in memory.
_COMPRESS_MEMO = Memo("archive.gz.compress", 512)


def gzip_compress_cached(data: bytes, level: int = 6) -> bytes:
    """Memoized :func:`gzip_compress`; byte-identical output."""
    return gzip_compress_cached_with_cost(data, level)[0]


def gzip_compress_cached_with_cost(data: bytes,
                                   level: int = 6) -> tuple[bytes, float]:
    """Memoized compress plus the host seconds the deflate originally
    cost, so enclave-time models can charge memo hits as fresh work."""
    return _COMPRESS_MEMO.timed(
        (hashlib.sha256(data).digest(), len(data), level),
        lambda: gzip_compress(data, level))


def gzip_decompress(data: bytes) -> bytes:
    """Decompress a single gzip stream; rejects a stream cut short of its
    CRC32/ISIZE trailer and trailing garbage."""
    decompressor = zlib.decompressobj(wbits=31)
    try:
        out = decompressor.decompress(data)
        out += decompressor.flush()
    except zlib.error as exc:
        raise PackagingError(f"corrupt gzip stream: {exc}") from exc
    if not decompressor.eof:
        raise PackagingError("truncated gzip stream")
    if decompressor.unused_data:
        raise PackagingError("trailing data after gzip stream")
    return out


def iter_gzip_members(data: bytes) -> Iterator[tuple[bytes, bytes]]:
    """Concatenated gzip streams, one ``(compressed, inflated)`` pair per
    member, each inflated only when the caller asks for it.

    ``compressed`` is the member's raw byte range (the apk signature is
    issued over the compressed control segment, so byte ranges matter)
    and ``inflated`` its payload.  Finding where a member ends means
    inflating it anyway, so callers take the payload from here instead of
    running :func:`gzip_decompress` again; zlib checks each member's
    CRC32 and ISIZE trailer as it goes.  A caller that stops early never
    inflates, or checks, the members after the last one it took.
    """
    if not data.startswith(_GZIP_MAGIC):
        raise PackagingError("payload does not start with a gzip stream")
    view = memoryview(data)
    offset = 0
    while offset < len(data):
        if data[offset:offset + 2] != _GZIP_MAGIC:
            raise PackagingError(f"garbage between gzip streams at offset {offset}")
        decompressor = zlib.decompressobj(wbits=31)
        try:
            inflated = decompressor.decompress(view[offset:])
            inflated += decompressor.flush()
        except zlib.error as exc:
            raise PackagingError(f"corrupt gzip stream at offset {offset}: {exc}") from exc
        if not decompressor.eof:
            raise PackagingError(f"truncated gzip stream at offset {offset}")
        consumed = len(data) - offset - len(decompressor.unused_data)
        yield data[offset:offset + consumed], inflated
        offset += consumed


def split_gzip_streams(data: bytes, expected: int | None = None,
                       ) -> list[tuple[bytes, bytes]]:
    """Every member of :func:`iter_gzip_members`, inflated; with
    ``expected``, exactly that many."""
    streams = list(iter_gzip_members(data))
    if expected is not None and len(streams) != expected:
        raise PackagingError(
            f"expected {expected} concatenated gzip streams, found {len(streams)}"
        )
    return streams
