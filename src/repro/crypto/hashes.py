"""Digest helpers: SHA-256 and HMAC-SHA-256.

``hashlib`` provides the compression function; everything above it
(IMA measurement formats, apk datahashes, sealing MACs) is built here.
"""

from __future__ import annotations

import hashlib

SHA256_DIGEST_SIZE = 32


def sha256_bytes(data: bytes) -> bytes:
    """Raw 32-byte SHA-256 digest."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"sha256 expects bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest, the format IMA logs and APKINDEX use."""
    return sha256_bytes(data).hex()


# Keystream generation (sgx.sealing) calls HMAC once per 32-byte block
# with the same key, so the padded-key hash states are precomputed once
# per key and ``.copy()``-ed per message.  Output is bit-identical to the
# textbook construction below.
_HMAC_PAD_CACHE: dict[bytes, tuple["hashlib._Hash", "hashlib._Hash"]] = {}


def _hmac_pads(key: bytes) -> tuple["hashlib._Hash", "hashlib._Hash"]:
    cached = _HMAC_PAD_CACHE.get(key)
    if cached is None:
        block_size = 64
        padded = sha256_bytes(key) if len(key) > block_size else key
        padded = padded.ljust(block_size, b"\x00")
        inner = hashlib.sha256(bytes(b ^ 0x36 for b in padded))
        outer = hashlib.sha256(bytes(b ^ 0x5C for b in padded))
        if len(_HMAC_PAD_CACHE) >= 256:
            _HMAC_PAD_CACHE.clear()
        _HMAC_PAD_CACHE[key] = cached = (inner, outer)
    return cached


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256, used by SGX sealing to authenticate sealed blobs.

    Equivalent to ``sha256(opad || sha256(ipad || data))`` with the
    RFC 2104 padded key; the padded-key prefixes are cached per key.
    """
    inner_proto, outer_proto = _hmac_pads(bytes(key))
    inner = inner_proto.copy()
    inner.update(data)
    outer = outer_proto.copy()
    outer.update(inner.digest())
    return outer.digest()
