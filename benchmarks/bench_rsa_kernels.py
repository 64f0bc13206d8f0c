"""RSA modular-exponentiation kernels: median microseconds per operation.

    PYTHONPATH=src python benchmarks/bench_rsa_kernels.py

Times, at RSA-1024 and RSA-2048 on seeded keys:

* both CRT halves of a signature: one ``ModExp.pair`` call
  (``BN_mod_exp_mont_consttime_x2``) on the key's held Montgomery
  contexts, the same call on contexts built for it (what every signature
  paid before keys held them), two one-off ``powmod`` calls
  (``BN_mod_exp_mont_consttime``) and two built-in ``pow`` calls;
* the public operation ``s^65537 mod n``: ``ModExp.public``
  (``BN_mod_exp_mont``) on the key's held context, the same on a context
  built for the call, and built-in ``pow``;
* a fresh ``sign`` (which includes its self-check verify) and a fresh
  ``verify`` through keys that already hold their contexts, with both
  RSA memos cleared before every call.

Every kernel result is checked against ``pow``; there is no timing gate.
The header names the kernels this host has: ``bignum.BACKEND``, the OpenSSL
version, whether the ``BN_MONT_CTX_*`` symbols and the optional x2 symbol
(OpenSSL >= 3.0) resolved and whether the CPU lists ``avx512ifma``.
OpenSSL runs the x2 call as one AVX-512 IFMA pass only for 1024-bit
halves on such a CPU, so only the RSA-2048 pair is expected to beat two
``powmod`` calls; elsewhere it runs the same two constant-time
exponentiations.  OpenSSL 3.0.4 alone had a memory-corruption bug in that
IFMA path (CVE-2022-2274).
"""

from __future__ import annotations

import platform
import random
import ssl
import statistics
import time
from pathlib import Path

from repro.crypto import bignum
from repro.crypto.bignum import ModExp, powmod
from repro.crypto.rsa import generate_keypair
from repro.util import memo

REPS = 101
KEYS = {"RSA-1024": (1024, 1024), "RSA-2048": (2048, 2048)}


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
    messages = [b"kernel-bench-%d" % i for i in range(REPS)]
    signed = list(zip(messages, map(key.sign, messages)))
    public = key.public_key
    held_p, held_q, _ = key._crt_params()
    held_n = public._exponentiation()
    dp, dq = held_p.exponent, held_q.exponent

    kernels = {  # name: (operation, the pow operation it must equal)
        "CRT pair, held x2":
            (lambda m: held_p.pair(m, held_q), "CRT pair, two pow"),
        "CRT pair, x2 on new contexts":
            (lambda m: ModExp(dp, key.p).pair(m, ModExp(dq, key.q)),
             "CRT pair, two pow"),
        "CRT pair, two powmod":
            (lambda m: (powmod(m, dp, key.p), powmod(m, dq, key.q)),
             "CRT pair, two pow"),
        "CRT pair, two pow":
            (lambda m: (pow(m, dp, key.p), pow(m, dq, key.q)), None),
        "s^e mod n, held":
            (lambda s: held_n.public(s), "s^e mod n, pow"),
        "s^e mod n, new context":
            (lambda s: ModExp(key.e, key.n).public(s), "s^e mod n, pow"),
        "s^e mod n, pow": (lambda s: pow(s, key.e, key.n), None),
    }
    medians, outputs = {}, {}
    for name, (operation, _) in kernels.items():
        medians[name], outputs[name] = timed_run(operation, bases)
    for name, (_, reference) in kernels.items():
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
    print(f"{'operation':<36}" + "".join(f"{label:>10}" for label in columns))
    for name in next(iter(columns.values())):
        print(f"{name:<36}"
              + "".join(f"{column[name]:>10.1f}" for column in columns.values()))


if __name__ == "__main__":
    main()
