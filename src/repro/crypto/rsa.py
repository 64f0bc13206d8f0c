"""RSA signatures: keygen, PKCS#1 v1.5 sign/verify, serialization.

This mirrors what Alpine Linux's ``abuild-sign`` produces: RSA keys whose
SHA-256 PKCS#1 v1.5 signatures are ``modulus_size`` bytes long (256 bytes for
RSA-2048).  Signing uses the CRT optimization, and both of its half-size
private exponentiations run in one call to OpenSSL's constant-time kernel
(:meth:`repro.crypto.bignum.ModExp.pair`).  Verification is a single
public-exponent exponentiation (e = 65537) on OpenSSL's variable-time
kernel (:meth:`repro.crypto.bignum.ModExp.public`), which is safe because
the exponent, modulus and signature are all public.  Both return exactly
what built-in ``pow`` returns.  A key builds its :class:`ModExp` objects
(p with dp and q with dq for signing, n with e for verification) on its
first fresh operation and keeps them, with their OpenSSL Montgomery
contexts, for as long as the key lives; a private key also keeps the one
public key its self-checks verify with.

Keys serialize to a PEM-like container (see :mod:`repro.crypto.pem`) so that
security policies can embed them exactly as the paper's Listing 1 shows.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from repro.crypto.bignum import ModExp
from repro.crypto.hashes import SHA256_DIGEST_SIZE, sha256_bytes
from repro.crypto.pem import pem_decode, pem_encode
from repro.crypto.primes import generate_prime
from repro.util.errors import SignatureError
from repro.util.memo import Memo

PUBLIC_EXPONENT = 65537

# DER prefix for a SHA-256 DigestInfo, per RFC 8017 section 9.2.
_SHA256_DIGEST_INFO_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

# PKCS#1 v1.5 signatures are deterministic, so both halves memoize cleanly:
# a (key, digest, signature) triple always verifies the same way, and a
# (key, digest) pair always signs to the same bytes.  Entries carry the
# measured host cost of the original computation so callers that model
# enclave time (core.sanitizer) can charge a memo hit as if it were fresh.
_VERIFY_MEMO = Memo("crypto.rsa.verify", 1 << 15)
_SIGN_MEMO = Memo("crypto.rsa.sign", 1 << 15)
# Seeded generation is a pure function of (bits, seed): twin scenarios
# rebuilding the same deployment reuse the keypair instead of re-running
# Miller-Rabin from scratch.
_KEYPAIR_MEMO = Memo("crypto.rsa.keygen", 1024)


def _i2osp(value: int, length: int) -> bytes:
    """Integer-to-octet-string (big endian, fixed length)."""
    return value.to_bytes(length, "big")


def _os2ip(data: bytes) -> int:
    """Octet-string-to-integer (big endian)."""
    return int.from_bytes(data, "big")


@functools.cache
def _emsa_prefix(em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding is digest || fixed padding: everything
    except the trailing SHA-256 digest depends only on the modulus size."""
    t_len = len(_SHA256_DIGEST_INFO_PREFIX) + SHA256_DIGEST_SIZE
    if em_len < t_len + 11:
        raise SignatureError("intended encoded message length too short")
    return (b"\x00\x01" + b"\xff" * (em_len - t_len - 3) + b"\x00"
            + _SHA256_DIGEST_INFO_PREFIX)


def _emsa_pkcs1_v15(message: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest (RFC 8017 section 9.2)."""
    return _emsa_prefix(em_len) + sha256_bytes(message)


@dataclass(frozen=True)
class RsaPublicKey:
    """Public portion of an RSA key; verifies PKCS#1 v1.5 signatures."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        """Length of the modulus (and of every signature) in bytes."""
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        return self.verify_with_cost(message, signature)[0]

    def verify_with_cost(self, message: bytes,
                         signature: bytes) -> tuple[bool, float]:
        """Memoized verify plus the host seconds the verdict originally
        cost, so enclave-time models can charge memo hits as fresh work."""
        if len(signature) != self.size_bytes:
            return False, 0.0
        return _VERIFY_MEMO.timed(
            (self.n, self.e, sha256_bytes(message), signature),
            lambda: self._verify_uncached(message, signature))

    def _verify_uncached(self, message: bytes, signature: bytes) -> bool:
        s = _os2ip(signature)
        if s >= self.n:
            return False
        em = _i2osp(self._exponentiation().public(s), self.size_bytes)
        try:
            expected = _emsa_pkcs1_v15(message, self.size_bytes)
        except SignatureError:
            return False
        return em == expected

    def _exponentiation(self) -> ModExp:
        """``s^e mod n``, built on the first fresh verification."""
        cached = self.__dict__.get("_exp")
        if cached is None:
            cached = ModExp(self.e, self.n)
            object.__setattr__(self, "_exp", cached)
        return cached

    def fingerprint(self) -> str:
        """Short stable identifier used in policies and IMA key rings."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            material = (self.n.to_bytes(self.size_bytes, "big")
                        + self.e.to_bytes(4, "big"))
            cached = sha256_bytes(material)[:8].hex()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def to_pem(self) -> str:
        body = _encode_integers([self.n, self.e])
        return pem_encode("PUBLIC KEY", body)

    @classmethod
    def from_pem(cls, pem: str) -> "RsaPublicKey":
        label, body = pem_decode(pem)
        if label != "PUBLIC KEY":
            raise SignatureError(f"expected PUBLIC KEY PEM, got {label}")
        n, e = _decode_integers(body, 2)
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def public_key(self) -> RsaPublicKey:
        """The one public key of this key, so self-checks reuse its
        verification context."""
        cached = self.__dict__.get("_public")
        if cached is None:
            cached = RsaPublicKey(n=self.n, e=self.e)
            object.__setattr__(self, "_public", cached)
        return cached

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5 SHA-256 signature, ``size_bytes`` long."""
        return self.sign_with_cost(message)[0]

    def sign_with_cost(self, message: bytes) -> tuple[bytes, float]:
        """Memoized sign plus the host seconds the signature originally
        cost (PKCS#1 v1.5 is deterministic, so re-signing the same digest
        always reproduces the same bytes)."""
        digest = sha256_bytes(message)
        return _SIGN_MEMO.timed((self.n, digest),
                                lambda: self._sign_uncached(message, digest))

    def _sign_uncached(self, message: bytes, digest: bytes) -> bytes:
        em = _emsa_prefix(self.size_bytes) + digest
        m = _os2ip(em)
        # CRT: two half-size exponentiations instead of one full-size.
        exp_p, exp_q, q_inv = self._crt_params()
        m1, m2 = exp_p.pair(m, exp_q, m)
        h = (q_inv * (m1 - m2)) % self.p
        s = m2 + h * self.q
        signature = _i2osp(s, self.size_bytes)
        # Sanity check guards against fault attacks corrupting the CRT path
        # (and seeds the verify memo with this key/message/signature).
        ok, _ = self.public_key.verify_with_cost(message, signature)
        if not ok:
            raise SignatureError("self-check of freshly produced signature failed")
        return signature

    def _crt_params(self) -> tuple[ModExp, ModExp, int]:
        """``m^dp mod p`` and ``m^dq mod q``, and ``q^-1 mod p``; built on
        the first fresh signature."""
        cached = self.__dict__.get("_crt")
        if cached is None:
            cached = (ModExp(self.d % (self.p - 1), self.p),
                      ModExp(self.d % (self.q - 1), self.q),
                      pow(self.q, -1, self.p))
            object.__setattr__(self, "_crt", cached)
        return cached

    def to_pem(self) -> str:
        body = _encode_integers([self.n, self.e, self.d, self.p, self.q])
        return pem_encode("RSA PRIVATE KEY", body)

    @classmethod
    def from_pem(cls, pem: str) -> "RsaPrivateKey":
        label, body = pem_decode(pem)
        if label != "RSA PRIVATE KEY":
            raise SignatureError(f"expected RSA PRIVATE KEY PEM, got {label}")
        n, e, d, p, q = _decode_integers(body, 5)
        return cls(n=n, e=e, d=d, p=p, q=q)


def generate_keypair(bits: int = 2048, seed: int | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair.

    ``bits`` is the modulus size; 2048 yields the paper's 256-byte
    signatures.  ``seed`` makes generation deterministic, which the test
    suite and the workload generator use for reproducibility.  Production
    deployments (the real TSR) would of course use an entropy-backed RNG —
    inside the enclave simulator the seed is derived from the enclave
    identity, preserving the "key never leaves the enclave" property.
    """
    if bits < 512:
        raise ValueError(f"RSA modulus below 512 bits is not supported: {bits}")
    if bits % 2:
        raise ValueError("RSA modulus size must be even")
    if seed is not None:
        return _KEYPAIR_MEMO.lookup(
            (bits, seed), lambda: _generate_keypair(bits, random.Random(seed)))
    return _generate_keypair(bits, random.SystemRandom())


def _generate_keypair(bits: int, rng: random.Random) -> RsaPrivateKey:
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; re-draw primes
        n = p * q
        if n.bit_length() != bits:
            continue
        return RsaPrivateKey(n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q)


def _encode_integers(values: list[int]) -> bytes:
    """Length-prefixed big-endian integer list (a DER-lite container)."""
    chunks = []
    for value in values:
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        chunks.append(len(raw).to_bytes(4, "big"))
        chunks.append(raw)
    return b"".join(chunks)


def _decode_integers(body: bytes, expected: int) -> list[int]:
    values = []
    offset = 0
    while offset < len(body):
        if offset + 4 > len(body):
            raise SignatureError("truncated key body")
        length = int.from_bytes(body[offset:offset + 4], "big")
        offset += 4
        if offset + length > len(body):
            raise SignatureError("truncated key body")
        values.append(int.from_bytes(body[offset:offset + length], "big"))
        offset += length
    if len(values) != expected:
        raise SignatureError(f"expected {expected} integers in key, got {len(values)}")
    return values
