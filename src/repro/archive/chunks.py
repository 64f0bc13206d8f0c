"""Content-defined chunking (CDC) and chunk-level diff/patch.

The delta-update path (:mod:`repro.core.delta`) ships package payloads as
chunk deltas against the client's cached prior version.  Fixed-size
blocks would be useless here: one inserted byte shifts every later block
boundary and the whole payload re-transfers.  Content-defined boundaries
are chosen by a rolling hash of the *data itself*, so they re-synchronize
within one chunk of an insert/delete/replace edit and everything after
the edit dedupes against the old version again.

The boundary test is a gear hash (FastCDC's primitive): a 256-entry
random table, ``h = (h << 1) + GEAR[byte] mod 2^64``, restarted at
``h = 0`` a chunk's ``MIN_CHUNK`` bytes in and cut where the low
``AVG_BITS`` bits are zero.  The left-shift ages a byte out of those low
bits after ``AVG_BITS`` positions, which is exactly what makes the cut
points local (and the chunking self-synchronizing).  The gear table is
derived from SHA-256 so every honest party — the TSR building deltas and
thousands of clients applying them — chunks identically without shipping
the table.

Because only the low bits are tested, a scan that has consumed at least
``AVG_BITS`` bytes tests ``L(i) = sum_{k<AVG_BITS} g[i-k] << k (mod
2^AVG_BITS)`` at position ``i``, with ``g[j] = GEAR[data[j]] & _MASK`` —
a value of ``i`` alone, not of where the scan started.  That sum is a
convolution, so :func:`_cut_candidates` finds every position where it is
zero with one big-integer multiplication: ``g`` packed one value per
``_LANE``-byte lane, times a kernel whose lag-``k`` term moves a lane
``k`` lanes up and doubles it ``k`` times.  No lane's sum reaches
``2^(8*_LANE)``, so no carry crosses lanes and every lane of the product
holds its own ``L(i)`` exactly.  Each chunk then replays only the first
``AVG_BITS - 1`` positions, where its window is still filling, and takes
the first tabulated candidate after them.

Chunks are identified by the first 16 hex digits of their SHA-256.  The
truncation is safe because delta application always ends with a full-blob
hash check against the signed index (:mod:`repro.core.delta`): a
truncated-id collision can only yield a reconstruction that *fails* that
check and falls back to a full pull, never wrong accepted bytes.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.crypto.hashes import sha256_bytes, sha256_hex
from repro.util.errors import DeltaError
from repro.util.memo import Memo

#: Bytes below which no boundary is considered (also skips hashing work).
MIN_CHUNK = 512
#: Hard ceiling: a chunk is cut here even if the hash never fires.
MAX_CHUNK = 4096
#: Boundary fires when the low AVG_BITS bits of the gear hash are zero,
#: i.e. with probability 2^-AVG_BITS per byte past MIN_CHUNK; the
#: expected chunk size is MIN_CHUNK + 2^AVG_BITS ≈ 1.5 KiB.
AVG_BITS = 10

_MASK = (1 << AVG_BITS) - 1

#: Hex digits of SHA-256 kept as a chunk identifier.
CHUNK_ID_HEX = 16

_GEAR = tuple(
    int.from_bytes(sha256_bytes(b"tsr-gear-v1:" + bytes([i]))[:8], "big")
    for i in range(256)
)

# The scan packs g = GEAR & _MASK as a low byte and a high byte per lane
# and finds zero lanes through their low byte, hence 8 <= AVG_BITS <= 16.
assert 8 <= AVG_BITS <= 16
#: Bytes per scan lane: a lane's window sum stays below 2^(2*AVG_BITS).
_LANE = (2 * AVG_BITS + 7) // 8
#: ``bytes.translate`` tables: low byte and high bits of GEAR[b] & _MASK.
_G_LOW = bytes(g & 0xFF for g in _GEAR)
_G_HIGH = bytes((g & _MASK) >> 8 for g in _GEAR)
#: Lag k of the window sum: k lanes up (8*_LANE*k bits), doubled k times.
_KERNEL = sum(1 << ((8 * _LANE + 1) * k) for k in range(AVG_BITS))

#: Chunk boundaries are a pure function of content: refresh rounds and
#: replay modes re-manifest the same blob versions over and over, so the
#: offsets are memoized by content digest.
_OFFSETS_MEMO = Memo("archive.chunks.offsets", 512)


def chunk_offsets(data: bytes) -> list[tuple[int, int]]:
    """Cut ``data`` into content-defined ``(start, end)`` ranges.

    Deterministic, order-preserving, and exhaustive: the ranges tile the
    input exactly.  Every chunk is within ``[MIN_CHUNK, MAX_CHUNK]``
    except a final (or sole) chunk shorter than ``MIN_CHUNK``.
    """
    return list(_OFFSETS_MEMO.lookup(sha256_bytes(data),
                                     lambda: _scan(data)))


def _scan(data: bytes) -> list[tuple[int, int]]:
    candidates = _cut_candidates(data)
    warm = AVG_BITS - 1
    offsets: list[tuple[int, int]] = []
    n = len(data)
    start = 0
    while start < n:
        end = min(start + MAX_CHUNK, n)
        pos = start + MIN_CHUNK
        if pos >= end:
            offsets.append((start, end))
            break
        boundary = end
        # The window is still filling for the first ``warm`` positions:
        # replay the recurrence there (its low bits are all it tests).
        h = 0
        for i in range(pos, min(pos + warm, end)):
            h = ((h << 1) + _GEAR[data[i]]) & _MASK
            if h == 0:
                boundary = i + 1
                break
        else:  # window full from pos + warm on: first tabulated cut
            j = bisect_left(candidates, pos + warm)
            if j < len(candidates) and candidates[j] < end:
                boundary = candidates[j] + 1
        offsets.append((start, boundary))
        start = boundary
    return offsets


def _cut_candidates(data: bytes) -> list[int]:
    """Ascending positions ``i`` of ``data`` where ``L(i)`` is zero (see
    the module docstring); below ``AVG_BITS - 1`` the window is partial
    and the positions are never consulted."""
    n = len(data)
    lanes = bytearray(_LANE * n)
    lanes[0::_LANE] = data.translate(_G_LOW)
    lanes[1::_LANE] = data.translate(_G_HIGH)
    window = int.from_bytes(lanes, "little") * _KERNEL
    product = window.to_bytes(_LANE * (n + AVG_BITS), "little")
    low = product[0:_LANE * n:_LANE]
    high_mask = _MASK >> 8
    candidates = []
    i = low.find(0)
    while i >= 0:
        if product[_LANE * i + 1] & high_mask == 0:
            candidates.append(i)
        i = low.find(0, i + 1)
    return candidates


def chunk_id(chunk: bytes) -> str:
    """Truncated-SHA-256 identifier of one chunk."""
    return sha256_hex(chunk)[:CHUNK_ID_HEX]


def chunk_ids(data: bytes) -> list[str]:
    """Ordered chunk identifiers of ``data`` (a chunk *manifest*)."""
    return [chunk_id(data[s:e]) for s, e in chunk_offsets(data)]


def chunk_map(data: bytes) -> dict[str, bytes]:
    """Chunk id -> chunk bytes for ``data`` (the patch-side lookup)."""
    pieces = [data[s:e] for s, e in chunk_offsets(data)]
    return {chunk_id(piece): piece for piece in pieces}


# -- chunk-level diff / patch -------------------------------------------------


def build_chunk_ops(base_ids: set[str],
                    target: bytes) -> list[tuple[str, object]]:
    """Diff ``target`` against a base known only by its chunk ids.

    Returns an op list reconstructing ``target``: ``("copy", id)`` for a
    chunk the base already holds, ``("literal", bytes)`` otherwise
    (adjacent literals are merged).  The base's *bytes* are never needed
    on the diffing side — the TSR retains only manifests.
    """
    ops: list[tuple[str, object]] = []
    for start, end in chunk_offsets(target):
        piece = target[start:end]
        piece_id = chunk_id(piece)
        if piece_id in base_ids:
            ops.append(("copy", piece_id))
        elif ops and ops[-1][0] == "literal":
            ops[-1] = ("literal", ops[-1][1] + piece)
        else:
            ops.append(("literal", piece))
    return ops


def apply_chunk_ops(ops: list[tuple[str, object]],
                    base_chunks: dict[str, bytes]) -> bytes:
    """Patch: materialize an op list against the base's chunk map."""
    parts: list[bytes] = []
    for kind, value in ops:
        if kind == "copy":
            chunk = base_chunks.get(value)  # type: ignore[arg-type]
            if chunk is None:
                raise DeltaError(f"delta references unknown chunk {value!r}")
            parts.append(chunk)
        elif kind == "literal":
            parts.append(value)  # type: ignore[arg-type]
        else:
            raise DeltaError(f"unknown delta op {kind!r}")
    return b"".join(parts)


def encode_ops(ops: list[tuple[str, object]]) -> bytes:
    """Wire-encode an op list (real bytes, so transfer sizes are honest).

    ``R:<16 hex>\\n`` copies a base chunk, ``L:<len>\\n<bytes>`` inlines a
    literal, ``E:\\n`` terminates.
    """
    out: list[bytes] = []
    for kind, value in ops:
        if kind == "copy":
            out.append(b"R:" + str(value).encode() + b"\n")
        elif kind == "literal":
            out.append(b"L:%d\n" % len(value) + value)  # type: ignore[arg-type]
        else:
            raise DeltaError(f"unknown delta op {kind!r}")
    out.append(b"E:\n")
    return b"".join(out)


def decode_ops(blob: bytes) -> list[tuple[str, object]]:
    """Parse :func:`encode_ops` output; raises :class:`DeltaError` on any
    malformation (truncation, bad lengths, missing terminator)."""
    ops: list[tuple[str, object]] = []
    offset = 0
    n = len(blob)
    while True:
        newline = blob.find(b"\n", offset)
        if newline < 0:
            raise DeltaError("truncated delta op stream")
        line = blob[offset:newline]
        offset = newline + 1
        if line == b"E:":
            if offset != n:
                raise DeltaError("trailing bytes after delta terminator")
            return ops
        if line.startswith(b"R:"):
            ref = line[2:].decode("ascii", errors="replace")
            if len(ref) != CHUNK_ID_HEX or ref.strip("0123456789abcdef"):
                raise DeltaError(f"malformed chunk reference {ref!r}")
            ops.append(("copy", ref))
        elif line.startswith(b"L:"):
            try:
                length = int(line[2:])
            except ValueError as exc:
                raise DeltaError(f"malformed literal length {line!r}") from exc
            if length < 0 or offset + length > n:
                raise DeltaError("literal length exceeds delta payload")
            ops.append(("literal", blob[offset:offset + length]))
            offset += length
        else:
            raise DeltaError(f"unknown delta op line {line!r}")
