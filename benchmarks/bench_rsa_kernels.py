"""RSA modular-exponentiation kernels and seeded key generation.

    PYTHONPATH=src python benchmarks/bench_rsa_kernels.py

Times, at RSA-1024 and RSA-2048 on seeded keys, in median microseconds
per operation:

* both CRT halves of a signature: one ``ModExp.pair`` call
  (``BN_mod_exp_mont_consttime_x2``) on the key's held Montgomery
  contexts, the same call on contexts built for it (what every signature
  paid before keys held them), two ``ModExp.private`` calls
  (``BN_mod_exp_mont_consttime``) on the held contexts and on contexts
  built for them (what a one-off ``powmod`` cost before it was deleted),
  and two built-in ``pow`` calls;
* two exponentiations with a base each, on the same held contexts: one
  ``ModExp.pair`` call and two ``ModExp.private`` calls.  In the RSA-2048
  column the moduli are 1,024-bit, as in a pair of Miller-Rabin rounds
  of RSA-2048 keygen;
* the public operation ``s^65537 mod n``: ``ModExp.public``
  (``BN_mod_exp_mont``) on the key's held context, the same on a context
  built for the call, and built-in ``pow``;
* a fresh ``sign`` (which includes its self-check verify) and a fresh
  ``verify`` through keys that already hold their contexts, with both
  RSA memos cleared before every call.

Then seeded key generation, with every memo cleared before each key: the
median milliseconds of one seeded ``generate_keypair`` over the 32
RSA-1024 and 4 RSA-2048 keys that ``tests/reference_primes.py`` pins,
each checked against its digest, and the prime search's work per key:
candidates drawn, candidates the small-prime gcd rejects, candidates a
round modulo the factor the second gcd found rejects, Miller-Rabin
rounds modulo the full candidate, and the ``ModExp.pair`` calls that ran
two of those rounds at once (from 1,024-bit candidates up).  The counts
are the work done, so they include what a rollback of the paired search
discards: a candidate drawn to pair with one that then passed is drawn,
sieved and tested again.  The same counts for the RSA-2048 tenant key
that ``build_scenario`` (and so perfbench's repo-init) derives from
MRENCLAVE: an edit to ``TsrProgram`` re-rolls that key, and shows here as
a new candidate count.

Every kernel result is checked against ``pow``; there is no timing gate.
The header names the kernels this host has: ``bignum.BACKEND``, the OpenSSL
version, whether the ``BN_MONT_CTX_*`` symbols and the optional x2 symbol
(OpenSSL >= 3.0) resolved and whether the CPU lists ``avx512ifma``.
OpenSSL runs the x2 call as one AVX-512 IFMA pass only for 1024-bit
halves on such a CPU, so only the RSA-2048 pairs are expected to beat
two ``private`` calls; elsewhere it runs the same two constant-time
exponentiations.  OpenSSL 3.0.4 alone had a memory-corruption bug in that
IFMA path (CVE-2022-2274).
"""

from __future__ import annotations

import contextlib
import platform
import random
import ssl
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from repro.crypto import bignum, primes, rsa
from repro.crypto.bignum import ModExp
from repro.crypto.rsa import generate_keypair
from repro.util import memo
from repro.workload.scenario import build_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_primes import (  # noqa: E402
    PINNED_KEY_SEEDS,
    PINNED_KEYS_DIGEST,
    keys_digest,
)

REPS = 101
KEYS = {"RSA-1024": (1024, 1024), "RSA-2048": (2048, 2048)}
WORK = ("candidates", "small-gcd rejects", "factor-round rejects",
        "full MR rounds", "x2 calls")


def cpu_has_ifma() -> str:
    """``yes``/``no`` from ``/proc/cpuinfo``, ``unknown`` without it."""
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.is_file():
        return "unknown"
    for line in cpuinfo.read_text().splitlines():
        if line.startswith("flags"):
            return "yes" if "avx512ifma" in line.split() else "no"
    return "unknown"


def timed_run(operation, inputs, untimed=None) -> tuple[float, list]:
    """Median microseconds of ``operation(x)`` over ``inputs``, and the
    results in input order; ``untimed()`` runs before each call, outside
    the timed region."""
    samples, results = [], []
    for value in inputs:
        if untimed is not None:
            untimed()
        started = time.perf_counter()
        results.append(operation(value))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6, results


def measure(key) -> dict[str, float]:
    rng = random.Random(key.n)
    bases = [rng.randrange(key.n) for _ in range(REPS)]
    witnesses = [(rng.randrange(2, key.p - 1), rng.randrange(2, key.q - 1))
                 for _ in range(REPS)]
    messages = [b"kernel-bench-%d" % i for i in range(REPS)]
    signed = list(zip(messages, map(key.sign, messages)))
    public = key.public_key
    held_p, held_q, _ = key._crt_params()
    held_n = public._exponentiation()
    dp, dq = held_p.exponent, held_q.exponent

    kernels = {  # name: (operation, the pow operation it must equal)
        "CRT pair, held x2":
            (lambda m: held_p.pair(m, held_q, m), "CRT pair, two pow"),
        "CRT pair, x2 on new contexts":
            (lambda m: ModExp(dp, key.p).pair(m, ModExp(dq, key.q), m),
             "CRT pair, two pow"),
        "CRT pair, two held private":
            (lambda m: (held_p.private(m), held_q.private(m)),
             "CRT pair, two pow"),
        "CRT pair, two private on new contexts":
            (lambda m: (ModExp(dp, key.p).private(m),
                        ModExp(dq, key.q).private(m)),
             "CRT pair, two pow"),
        "CRT pair, two pow":
            (lambda m: (pow(m, dp, key.p), pow(m, dq, key.q)), None),
        "s^e mod n, held":
            (lambda s: held_n.public(s), "s^e mod n, pow"),
        "s^e mod n, new context":
            (lambda s: ModExp(key.e, key.n).public(s), "s^e mod n, pow"),
        "s^e mod n, pow": (lambda s: pow(s, key.e, key.n), None),
    }
    two_bases = {  # a base per slot, as two Miller-Rabin rounds pass
        "two bases, held x2":
            (lambda w: held_p.pair(w[0], held_q, w[1]), "two bases, two pow"),
        "two bases, two held private":
            (lambda w: (held_p.private(w[0]), held_q.private(w[1])),
             "two bases, two pow"),
        "two bases, two pow":
            (lambda w: (pow(w[0], dp, key.p), pow(w[1], dq, key.q)), None),
    }
    medians, outputs = {}, {}
    for table, inputs in ((kernels, bases), (two_bases, witnesses)):
        for name, (operation, _) in table.items():
            medians[name], outputs[name] = timed_run(operation, inputs)
        for name, (_, reference) in table.items():
            if reference is not None and outputs[name] != outputs[reference]:
                raise AssertionError(f"{name} differs from {reference}")

    medians["fresh sign, held (with self-check)"], signatures = timed_run(
        key.sign, messages, memo.clear_all)
    if signatures != [signature for _, signature in signed]:
        raise AssertionError("a fresh signature differs from the first")
    medians["fresh verify, held"], verdicts = timed_run(
        lambda pair: public.verify(*pair), signed, memo.clear_all)
    if not all(verdicts):
        raise AssertionError("a genuine signature failed to verify")
    return medians


@contextlib.contextmanager
def counting_search(counts: Counter):
    """Add the prime search's work to ``counts`` while the block runs (see
    ``WORK``), by wrapping the three functions the search calls through
    its module: the small-prime sieve, the round check and the call that
    runs one or two full-size rounds."""
    sieved, round_passes, verdicts = (primes._sieved, primes._round_passes,
                                      primes._verdicts)
    full_size = []  # not empty while the search runs full-size rounds

    def counting_sieve(value):
        result = sieved(value)
        counts["candidates"] += 1
        counts["small-gcd rejects"] += result is False
        return result

    def counting_round(x, r, modulus):
        verdict = round_passes(x, r, modulus)
        if full_size:
            counts["full MR rounds"] += 1
        else:  # a round modulo the factor the second gcd found
            counts["factor-round rejects"] += not verdict
        return verdict

    def counting_verdicts(*rounds):
        counts["x2 calls"] += len(rounds) == 2
        full_size.append(rounds)
        try:
            return verdicts(*rounds)
        finally:
            full_size.pop()

    originals = (sieved, round_passes, verdicts)
    primes._sieved, primes._round_passes, primes._verdicts = (
        counting_sieve, counting_round, counting_verdicts)
    try:
        yield
    finally:
        primes._sieved, primes._round_passes, primes._verdicts = originals


def seeded_keygen() -> list[tuple[str, str, dict[str, float]]]:
    """(label, median ms, mean work per key) for each pinned key size,
    after checking every key against the pinned digest, and the work of
    the tenant key repo-init derives."""
    rows, keys = [], {}
    for bits in sorted({bits for bits, _ in PINNED_KEY_SEEDS}):
        seeds = [seed for b, seed in PINNED_KEY_SEEDS if b == bits]
        median_us, generated = timed_run(
            lambda seed: generate_keypair(bits, seed=seed), seeds,
            memo.clear_all)
        keys.update(((bits, seed), key)
                    for seed, key in zip(seeds, generated))
        counts = Counter()
        for seed in seeds:
            memo.clear_all()
            with counting_search(counts):
                generate_keypair(bits, seed=seed)
        rows.append((f"RSA-{bits} x{len(seeds)} (pinned)",
                     f"{median_us / 1e3:.1f}",
                     {name: counts[name] / len(seeds) for name in WORK}))
    digest = keys_digest((pinned, keys[pinned]) for pinned in PINNED_KEY_SEEDS)
    if digest != PINNED_KEYS_DIGEST:
        raise AssertionError(f"seeded keys moved: digest {digest}")

    tenant = {}
    generate = rsa._generate_keypair

    def counting_keygen(bits, rng):
        counts = Counter()
        with counting_search(counts):
            key = generate(bits, rng)
        tenant.setdefault(bits, []).append(counts)
        return key

    memo.clear_all()
    rsa._generate_keypair = counting_keygen
    try:  # the CPU, TPM and distro keys are RSA-1024, the tenant's 2048
        build_scenario(packages=[], tsr_key_bits=2048, refresh=False,
                       with_monitor=False)
    finally:
        rsa._generate_keypair = generate
    [counts] = tenant[2048]
    rows.append(("repo-init tenant key (2048)", "-",
                 {name: counts[name] for name in WORK}))
    return rows


def main() -> None:
    print(f"modexp backend: {bignum.BACKEND}; {ssl.OPENSSL_VERSION}; "
          f"BN_MONT_CTX: {'yes' if bignum._LIB is not None else 'no'}; "
          f"x2 symbol: {'yes' if bignum._EXP_X2 is not None else 'no'}; "
          f"cpu avx512ifma: {cpu_has_ifma()}; "
          f"Python {platform.python_version()}")
    columns = {label: measure(generate_keypair(bits, seed=seed))
               for label, (bits, seed) in KEYS.items()}
    print(f"median us per operation over {REPS} operands "
          "(every kernel result checked against pow)")
    print(f"{'operation':<40}" + "".join(f"{label:>10}" for label in columns))
    for name in next(iter(columns.values())):
        print(f"{name:<40}"
              + "".join(f"{column[name]:>10.1f}" for column in columns.values()))
    print()
    print("seeded keygen: median ms per key, every memo cleared before each "
          "(pinned keys checked against their digest); work per key, mean "
          "over the keys")
    print(f"{'keys':<30}{'ms/key':>8}" + "".join(f"{n:>21}" for n in WORK))
    for label, median_ms, work in seeded_keygen():
        print(f"{label:<30}{median_ms:>8}"
              + "".join(f"{work[n]:>21.1f}" for n in WORK))


if __name__ == "__main__":
    main()
