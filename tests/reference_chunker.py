"""The scalar gear-hash chunker: the oracle the chunk tests use.

This is the plain byte-at-a-time loop :mod:`repro.archive.chunks` once
ran: each chunk restarts ``h = 0`` at ``start + MIN_CHUNK`` and steps
``h = (h << 1) + GEAR[byte] mod 2^64`` until the low ``AVG_BITS`` bits
are zero or ``MAX_CHUNK`` is reached.  It derives its own gear table, so
a differential against it pins the table, the recurrence and the chunk
rules at once.  It is kept only so tests can check the library's scan
against it byte for byte.
"""

from __future__ import annotations

import hashlib

from repro.archive.chunks import AVG_BITS, MAX_CHUNK, MIN_CHUNK

GEAR = tuple(
    int.from_bytes(hashlib.sha256(b"tsr-gear-v1:" + bytes([i])).digest()[:8],
                   "big")
    for i in range(256)
)
MASK = (1 << AVG_BITS) - 1
HASH_MOD = (1 << 64) - 1


def reference_chunk_offsets(data: bytes) -> list[tuple[int, int]]:
    """Content-defined ``(start, end)`` ranges of ``data``, one byte at a
    time."""
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
        h = 0
        for i in range(pos, end):
            h = ((h << 1) + GEAR[data[i]]) & HASH_MOD
            if h & MASK == 0:
                boundary = i + 1
                break
        offsets.append((start, boundary))
        start = boundary
    return offsets
