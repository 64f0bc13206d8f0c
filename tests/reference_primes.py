"""The single-gcd prime search on built-in ``pow``: the oracle the prime
tests use.

:func:`is_probable_prime`, :func:`_round_passes` and :func:`generate_prime`
are the search :mod:`repro.crypto.primes` once ran, verbatim except that
each round's witness exponentiation is ``pow`` instead of the one-off
OpenSSL call it was: a 70-step trial division by the primes up to 349, one
gcd against the 93,561-bit product of the odd primes below 2^16, and 40
Miller-Rabin rounds, each run modulo the factor that gcd found (if any)
before the candidate.  It keeps its own prime table and product, so a
differential against it pins the library's tables, verdicts and rng stream
at once.  It is kept only so tests can check the library's search against
it, witness draw by witness draw.

:data:`PINNED_KEY_SEEDS` and :data:`PINNED_KEYS_DIGEST` pin 36 seeded RSA
keys as this search generates them; the RSA-kernel bench checks its keys
against the same digest.  :data:`PINNED_STATES_DIGEST` pins the rng state
each of those keygens leaves, which the keys alone do not: nothing is
drawn after a key's second prime.
"""

from __future__ import annotations

import hashlib
import math
import random

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349,
]

MILLER_RABIN_ROUNDS = 40


def _odd_primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, limit, 2 * i)))
    return [p for p in range(3, limit, 2) if sieve[p]]


#: Product of the odd primes below 2^16: one gcd with it finds a factor
#: that trial division missed in about half of the composites that reach
#: the witness loop.
_SIEVE_PRODUCT = math.prod(_odd_primes_below(1 << 16))


def _round_passes(witness: int, d: int, r: int, modulus: int) -> bool:
    """One Miller-Rabin round for ``modulus - 1 == d * 2**r``, ``d`` odd."""
    x = pow(witness, d, modulus)
    if x in (1, modulus - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, modulus)
        if x == modulus - 1:
            return True
    return False


def is_probable_prime(candidate: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with a small-prime pre-filter."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    rng = rng or random.Random()
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # A round that passes modulo ``candidate`` also passes modulo each of
    # its factors.  So a round that fails modulo a small factor fails in
    # full, after the same witness draw: verdicts and the rng stream, and
    # with them every seeded key, are those of the plain witness loop.
    factor = math.gcd(candidate, _SIEVE_PRODUCT)
    for _ in range(MILLER_RABIN_ROUNDS):
        witness = rng.randrange(2, candidate - 1)
        if factor > 1 and not _round_passes(witness, d, r, factor):
            return False
        if not _round_passes(witness, d, r, candidate):
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits and top two bits set.

    Setting the two most significant bits guarantees that the product of two
    such primes has exactly ``2 * bits`` bits, which keeps RSA modulus (and
    therefore signature) sizes deterministic — the paper's 256-byte
    signatures per file depend on that.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2))  # exact bit length
        candidate |= 1  # odd
        if is_probable_prime(candidate, rng):
            return candidate


#: (modulus bits, seed) of each pinned key: 32 RSA-1024 and 4 RSA-2048.
PINNED_KEY_SEEDS = ([(1024, seed) for seed in range(32)]
                    + [(2048, seed) for seed in range(4)])

#: :func:`keys_digest` of ``generate_keypair(bits, seed=seed)`` over
#: :data:`PINNED_KEY_SEEDS`, computed with the search above.
PINNED_KEYS_DIGEST = (
    "832c0cdad2fa0c0b49e70f4d18e2155bb297c1e493f8d186df11290e48d8ee90")


#: :func:`states_digest` of ``rng.getstate()`` after
#: ``rsa._generate_keypair(bits, rng)`` with ``rng = random.Random(seed)``,
#: over :data:`PINNED_KEY_SEEDS`, with ``rsa.generate_prime`` replaced by
#: the search above.
PINNED_STATES_DIGEST = (
    "e80302385c09b83aba60a792c6c4d5d4aa0567449667421501cb03f047d7dbec")


def keys_digest(keys) -> str:
    """SHA-256 hex over ``bits:seed:n:d`` lines, one per
    ``((bits, seed), key)`` pair, in order."""
    h = hashlib.sha256()
    for (bits, seed), key in keys:
        h.update(f"{bits}:{seed}:{key.n:x}:{key.d:x}\n".encode())
    return h.hexdigest()


def states_digest(states) -> str:
    """SHA-256 hex over ``bits:seed:state`` lines, one per
    ``((bits, seed), rng.getstate())`` pair, in order."""
    h = hashlib.sha256()
    for (bits, seed), state in states:
        h.update(f"{bits}:{seed}:{state!r}\n".encode())
    return h.hexdigest()
