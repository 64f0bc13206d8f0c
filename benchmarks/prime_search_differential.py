"""The paired prime search against the reference search, seed by seed.

    PYTHONPATH=src python -m pytest benchmarks/prime_search_differential.py -q

For each seed, the two prime searches of a seeded RSA-2048 keypair (two
1,024-bit primes drawn from one ``random.Random(seed)``, as
``generate_keypair(2048, seed=seed)`` draws them) run twice: in
:mod:`repro.crypto.primes`, which runs two full-size Miller-Rabin rounds
per x2 call and rolls the rng back after a wrong guess, and in
``tests/reference_primes.py``, the single-gcd search on built-in ``pow``
that runs one round at a time.  Each prime, and the rng state after it,
must be equal.  The seeds start after RSA-2048 seeds 0-3, which the
pinned key digest covers.  The reference costs about 0.5 s per seed.
"""

from __future__ import annotations

import random

import pytest

import reference_primes  # tests/, which conftest.py puts on sys.path
from repro.crypto.primes import generate_prime


@pytest.mark.parametrize("seed", range(4, 20))
def test_seeded_rsa2048_primes_match_the_reference(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    for half in ("p", "q"):
        assert generate_prime(1024, mine) == \
            reference_primes.generate_prime(1024, theirs), half
        assert mine.getstate() == theirs.getstate(), half
