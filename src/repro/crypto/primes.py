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

A round modulo the full candidate exponentiates on a :class:`ModExp`
held for the candidate, through the constant-time kernels, which return
exactly what ``pow`` does.  It is built only once the factor round has
passed, so a composite rejected modulo its factor never sets up a
full-size context.  A round modulo a factor runs on ``pow``: for a prime
factor f, with the exponent reduced modulo f - 1 (exact for every
witness, see :class:`_Candidate`), which takes under a microsecond where
a constant-time call with the full exponent took about 30 µs.  Such a
candidate is a known composite, so its rounds hold no secret; they run
only because their witness draws are part of the rng stream.  The
squarings that follow stay on ``pow``.

**Two full-size rounds per call.**  From :data:`_PAIRED_BITS` up (the
1,024-bit primes of RSA-2048), :func:`_search` runs the rounds modulo
the full candidate two per :meth:`ModExp.pair` call, which OpenSSL runs
as one AVX-512 IFMA pass that costs about as much as a single round
(EXPERIMENTS.md §9j).  Whether a round happens at all, and which draws
precede it, depends on the verdict of the round before, so the second
round of a pair is a guess: the search guesses the first round's verdict
and goes on from that guess, drawing from the rng exactly as it would
after that verdict, up to the next full-size round.  A candidate's first
round is guessed to fail, as it does for nearly every candidate that
reaches it, so it pairs with the next candidate's first round; a later
round is guessed to pass, as a candidate that passed one is nearly
always prime, so it pairs with the same candidate's next round.  The
rng's state is saved before the guess, and where the guess is wrong
``rng.setstate`` undoes every draw made after it and the search resumes
from the true verdict.  Verdicts, the rng stream and every seeded key
are therefore those of one round per call.

Smaller candidates keep one round per call: x2 does not fuse 512-bit
halves, so a pair costs two rounds there, and pairing them made RSA-1024
keygen 8 % slower.  So does an rng without state to restore
(:class:`random.SystemRandom`, unseeded keygen), which the search never
asks for one.  :func:`is_probable_prime` runs the same loop on one
candidate: from 1,024 bits, its first round alone and then two rounds
per call.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

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

#: The smallest candidate, in bits, whose full-size rounds run two per
#: :meth:`ModExp.pair` call (see the module docstring).
_PAIRED_BITS = 1024


def _primes_above_small(limit: int) -> list[int]:
    """The primes in (349, ``limit``]."""
    sieve = bytearray([1]) * (limit + 1)
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, limit + 1, 2 * i)))
    return [p for p in range(_SMALL_PRIMES[-1] + 2, limit + 1, 2)
            if sieve[p]]


_FACTOR_PRIMES = frozenset(_primes_above_small(_FACTOR_BOUND))
_FACTOR_PRODUCT = math.prod(_FACTOR_PRIMES)


class _Candidate:
    """A candidate past the small-prime gcd, ``value - 1 == d * 2**r``
    with ``d`` odd: the factor the second gcd found (1 without one) with
    the exponent its rounds use, and from the first full-size round on
    ``d`` held modulo ``value``."""

    __slots__ = ("value", "d", "r", "factor", "factor_exponent",
                 "modulo_value")

    def __init__(self, value: int):
        self.value = value
        self.r = ((value - 1) & (1 - value)).bit_length() - 1
        self.d = (value - 1) >> self.r
        self.factor = math.gcd(value, _FACTOR_PRODUCT)
        # Modulo a prime factor f, w**d == w**(d % (f - 1)) for every w:
        # by Fermat where f does not divide w, and both are 0 where it
        # does, as d % (f - 1) is odd.  A product of several factors keeps
        # the full exponent.
        self.factor_exponent = (self.d % (self.factor - 1)
                                if self.factor in _FACTOR_PRIMES else self.d)
        self.modulo_value = None


class _Round(NamedTuple):
    """A full-size round the search has reached: ``passed`` rounds of
    ``candidate`` passed before it, and its witness is drawn."""

    candidate: _Candidate
    passed: int
    witness: int


def _sieved(value: int) -> _Candidate | bool:
    """``value`` ready for its witness rounds, or the verdict of the small
    gcd: whether a value up to 349 is prime, False for a value with a
    factor up to 349."""
    if value <= _SMALL_PRIMES[-1]:
        return value in _SMALL_PRIMES
    if math.gcd(value, _SMALL_PRODUCT) > 1:
        return False
    return _Candidate(value)


def _round_passes(x: int, r: int, modulus: int) -> bool:
    """Whether a Miller-Rabin round passes modulo ``modulus``, the
    candidate ``n`` or a factor of it, given ``x == witness**d % modulus``
    for ``n - 1 == d * 2**r``."""
    if x in (1, modulus - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, modulus)
        if x == modulus - 1:
            return True
    return False


def _verdicts(*rounds: _Round) -> list[bool]:
    """Each round's verdict modulo its full candidate: one
    :meth:`ModExp.private` call for one round, one :meth:`ModExp.pair`
    call for two."""
    if len(rounds) == 1:
        [(candidate, _, witness)] = rounds
        return [_round_passes(candidate.modulo_value.private(witness),
                              candidate.r, candidate.value)]
    (first, _, witness), (second, _, other_witness) = rounds
    x, other_x = first.modulo_value.pair(witness, second.modulo_value,
                                         other_witness)
    return [_round_passes(x, first.r, first.value),
            _round_passes(other_x, second.r, second.value)]


def _advance(rng: random.Random, draws, candidate: _Candidate | None,
             passed: int) -> _Round | int | None:
    """Run the search from ``candidate`` after ``passed`` of its full-size
    rounds passed, or from the next value ``draws`` yields when it is
    None (``passed`` then counts nothing), up to the next full-size round.

    Returns that round, or the search's answer: a value decided prime, or
    None once ``draws`` runs out.
    """
    while True:
        if candidate is None:
            value = next(draws, None)
            if value is None:
                return None
            sieved = _sieved(value)
            if isinstance(sieved, bool):
                if sieved:
                    return value
                continue
            candidate, passed = sieved, 0
        if passed == MILLER_RABIN_ROUNDS:
            return candidate.value
        witness = rng.randrange(2, candidate.value - 1)
        factor = candidate.factor
        if factor > 1 and not _round_passes(
                pow(witness, candidate.factor_exponent, factor),
                candidate.r, factor):
            candidate = None
            continue
        if candidate.modulo_value is None:
            candidate.modulo_value = ModExp(candidate.d, candidate.value)
        return _Round(candidate, passed, witness)


def _search(rng: random.Random, draws, width: int) -> int | None:
    """The first value ``draws`` yields that passes every round, or None
    once ``draws`` runs out; ``width`` full-size rounds per call, one or
    two (see the module docstring)."""
    step = _advance(rng, draws, None, 0)
    while type(step) is _Round:
        # A first round is guessed to fail, a later one to pass.
        guess = step.passed > 0
        follow = None
        if width == 2:
            state = rng.getstate()
            follow = _advance(rng, draws, step.candidate if guess else None,
                              step.passed + 1)
            if type(follow) is not _Round:
                rng.setstate(state)  # an answer follows: no round to pair
                follow = None
        if follow is None:
            [verdict] = _verdicts(step)
        else:
            verdict, follow_verdict = _verdicts(step, follow)
            if verdict == guess:
                step, verdict = follow, follow_verdict
            else:
                rng.setstate(state)  # undo every draw made after the guess
        step = _advance(rng, draws, step.candidate if verdict else None,
                        step.passed + 1)
    return step


def _width(bits: int, rng: random.Random) -> int:
    """Full-size rounds per call for ``bits``-bit candidates drawn from
    ``rng``: two from :data:`_PAIRED_BITS` up where the rng has a state to
    restore, one otherwise."""
    if bits >= _PAIRED_BITS and not isinstance(rng, random.SystemRandom):
        return 2
    return 1


def is_probable_prime(candidate: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test behind a two-gcd sieve."""
    if rng is None:
        rng = random.Random()
    return _search(rng, iter((candidate,)),
                   _width(candidate.bit_length(), rng)) is not None


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits and top two bits set.

    Setting the two most significant bits guarantees that the product of two
    such primes has exactly ``2 * bits`` bits, which keeps RSA modulus (and
    therefore signature) sizes deterministic — the paper's 256-byte
    signatures per file depend on that.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    # Exact bit length, odd.
    fixed = (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    draws = iter(lambda: rng.getrandbits(bits) | fixed, None)
    return _search(rng, draws, _width(bits, rng))
