"""Probabilistic prime generation for RSA key material.

Miller-Rabin with 40 rounds gives a < 2^-80 error probability, which is the
standard engineering choice.  Two gcds sieve each candidate before its
witness loop:

* One against the product of the primes up to 349 (:data:`_SMALL_PRIMES`)
  rejects every candidate with a factor among them, about four odd
  candidates in five, before any witness is drawn.  A candidate up to 349
  is prime exactly when it is one of them.
* One against the product of the primes in (349, :data:`_FACTOR_BOUND`]
  finds a factor of about three in ten of the composites that survive.
  Their rounds run modulo that factor first: a round that passes modulo
  the candidate passes modulo each of its factors, so a round that fails
  modulo the factor fails in full, after the same witness draw.

Neither gcd decides a verdict that the witness loop would not, and neither
draws from the rng, so verdicts, the rng stream and with them every seeded
key are those of the plain witness loop whatever the bound.  The bound
only moves work between the gcd, which costs more as the product grows,
and the full-size rounds it spares; 2^12 was the fastest of 2^10 to 2^14
(EXPERIMENTS.md §9i).  The product of every odd prime below 2^16, which
the search once used, is 93.6 kbit: one gcd with it found a factor in
about half of the survivors, but cost 100 µs on a 512-bit candidate,
more than two 512-bit rounds.

Each round's witness exponentiation runs on a :class:`ModExp` held for the
candidate, and for its factor where one was found, through the
constant-time :meth:`ModExp.private`, which returns exactly what ``pow``
does.  The candidate's is built only once the factor round has passed, so
a composite rejected modulo its factor never sets up a full-size context.
The squarings that follow stay on ``pow``.
"""

from __future__ import annotations

import math
import random

from repro.crypto.bignum import ModExp

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349,
]

MILLER_RABIN_ROUNDS = 40

_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

#: The largest factor the second gcd looks for (see the module docstring).
_FACTOR_BOUND = 1 << 12


def _primes_above_small(limit: int) -> list[int]:
    """The primes in (349, ``limit``]."""
    sieve = bytearray([1]) * (limit + 1)
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, limit + 1, 2 * i)))
    return [p for p in range(_SMALL_PRIMES[-1] + 2, limit + 1, 2)
            if sieve[p]]


_FACTOR_PRODUCT = math.prod(_primes_above_small(_FACTOR_BOUND))


def _round_passes(held: ModExp, witness: int, r: int) -> bool:
    """One Miller-Rabin round for a candidate ``n - 1 == d * 2**r``, ``d``
    odd, modulo ``held.modulus``: ``n`` or a factor of it.  ``held`` holds
    ``d`` as its exponent."""
    modulus = held.modulus
    x = held.private(witness)
    if x in (1, modulus - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, modulus)
        if x == modulus - 1:
            return True
    return False


def is_probable_prime(candidate: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test behind a two-gcd sieve."""
    if candidate <= _SMALL_PRIMES[-1]:
        return candidate in _SMALL_PRIMES
    if math.gcd(candidate, _SMALL_PRODUCT) > 1:
        return False
    rng = rng or random.Random()
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    factor = math.gcd(candidate, _FACTOR_PRODUCT)
    modulo_factor = ModExp(d, factor) if factor > 1 else None
    modulo_candidate = None
    for _ in range(MILLER_RABIN_ROUNDS):
        witness = rng.randrange(2, candidate - 1)
        if modulo_factor is not None and not _round_passes(
                modulo_factor, witness, r):
            return False
        if modulo_candidate is None:
            modulo_candidate = ModExp(d, candidate)
        if not _round_passes(modulo_candidate, witness, r):
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
