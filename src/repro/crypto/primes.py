"""Probabilistic prime generation for RSA key material.

Miller-Rabin with 40 rounds gives a < 2^-80 error probability, which is the
standard engineering choice. A small-prime sieve rejects most candidates
cheaply before the expensive witness loop runs, and a factor below 2^16
lets about half of the remaining composites fail their first round modulo
that factor instead of the full-size candidate.
"""

from __future__ import annotations

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
