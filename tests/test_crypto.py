"""Tests for the from-scratch crypto stack (hashes, RSA, PEM, certificates)."""

import copy
import functools
import gc
import hashlib
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_primes
from repro.crypto import bignum, primes, rsa
from repro.crypto.bignum import ModExp
from repro.crypto.certs import CertificateAuthority, Certificate, verify_chain
from repro.crypto.hashes import hmac_sha256, sha256_bytes, sha256_hex
from repro.crypto.pem import pem_decode, pem_encode
from repro.crypto.primes import _SMALL_PRIMES, generate_prime, is_probable_prime
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.util import memo
from repro.util.errors import SignatureError

import random


class TestHashes:
    def test_sha256_known_vector(self):
        # NIST vector for "abc".
        assert sha256_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha256_type_error(self):
        with pytest.raises(TypeError):
            sha256_bytes("not bytes")  # type: ignore[arg-type]

    def test_hmac_known_vector(self):
        # RFC 4231 test case 2.
        digest = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert digest.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_hmac_long_key(self):
        # Keys longer than the block size are hashed first (RFC 4231 case 6).
        digest = hmac_sha256(b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First")
        assert digest.hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )


#: Primes on both sides of 349 and of 4096, the bounds of the two sieve
#: gcds: their products straddle each bound or sit on one side of it.
_FACTORS_NEAR_BOUNDS = [331, 337, 347, 349, 353, 359, 367, 733, 4079, 4091,
                        4093, 4099, 4111, 65521, 65537]

#: Carmichael numbers, and strong pseudoprimes to every prime base up to 7
#: and up to 31 (3,215,031,751 = 151 * 751 * 28,351 and
#: 3,825,123,056,546,413,051 = 149,491 * 747,451 * 34,233,211).
_PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                 825265, 3_215_031_751, 3_825_123_056_546_413_051]


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 104729, (1 << 61) - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 561, 104730, (1 << 61)):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        for c in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(c)

    def test_generated_prime_has_exact_bits(self):
        rng = random.Random(7)
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))

    def test_small_factor_check_keeps_verdicts_and_rng_stream(self):
        """Seeded keys must not depend on the small-factor shortcut: the
        verdict and every witness drawn equal the plain witness loop."""
        def plain(candidate, rng):
            d, r = candidate - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            for _ in range(40):
                x = pow(rng.randrange(2, candidate - 1), d, candidate)
                if x in (1, candidate - 1):
                    continue
                for _ in range(r - 1):
                    x = pow(x, 2, candidate)
                    if x == candidate - 1:
                        break
                else:
                    return False
            return True

        pick = random.Random(11)
        # 367 * 733: a quarter of all witnesses are strong liars, so
        # rejections often take several rounds.
        candidates = [367 * 733] * 50
        candidates += [generate_prime(128, pick) for _ in range(5)]
        for i in range(1000):
            candidate = pick.getrandbits(pick.choice((24, 64, 256))) | 1
            if i % 2:
                candidate *= pick.choice((353, 7919, 65521))
            candidates.append(candidate)
        # Trial division settles the rest before any witness is drawn.
        candidates = [c for c in candidates
                      if all(c % p for p in _SMALL_PRIMES)]
        assert len(candidates) > 150
        for seed, candidate in enumerate(candidates):
            mine, theirs = random.Random(seed), random.Random(seed)
            assert is_probable_prime(candidate, mine) == \
                plain(candidate, theirs)
            assert mine.getrandbits(64) == theirs.getrandbits(64)

    @given(candidate=st.one_of(
        st.integers(0, 5000),
        st.integers(9, 1024).flatmap(
            lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
        ).map(lambda n: n | 1),
        st.tuples(st.sampled_from(_FACTORS_NEAR_BOUNDS),
                  st.sampled_from(_FACTORS_NEAR_BOUNDS)).map(
            lambda pair: pair[0] * pair[1]),
        st.sampled_from(_PSEUDOPRIMES)),
        seed=st.integers(0, 2 ** 32))
    @example(candidate=347 * 353, seed=0)
    @example(candidate=4093 * 4099, seed=0)
    @example(candidate=367 * 733, seed=0)
    @example(candidate=3_215_031_751, seed=0)
    @example(candidate=3_825_123_056_546_413_051, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_search_matches_the_reference_draw_for_draw(self, candidate,
                                                        seed):
        """The two-gcd sieve and the held contexts change no verdict and
        no witness draw of the single-gcd search on ``pow``."""
        mine, theirs = random.Random(seed), random.Random(seed)
        assert is_probable_prime(candidate, mine) == \
            reference_primes.is_probable_prime(candidate, theirs)
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("factors", [(353,), (4093,), (353, 359),
                                         (4091, 4093)])
    def test_factor_rounds_reduce_the_exponent_exactly(self, factors):
        """Modulo a prime factor f the exponent is reduced modulo f - 1,
        which moves no power, multiples of f included; a product of
        factors keeps the full exponent."""
        rng = random.Random(sum(factors))
        sieve = primes._SMALL_PRODUCT * primes._FACTOR_PRODUCT
        cofactor = next(c for c in iter(lambda: rng.getrandbits(256) | 1, 0)
                        if math.gcd(c, sieve) == 1)
        factor = math.prod(factors)
        held = primes._Candidate(factor * cofactor)
        assert held.factor == factor
        assert (held.factor_exponent < held.d) == (len(factors) == 1)
        witnesses = [rng.randrange(2, held.value - 1) for _ in range(40)]
        witnesses += [f * k for f in factors for k in (1, 2, cofactor)]
        for witness in witnesses:
            assert pow(witness, held.factor_exponent, factor) == \
                pow(witness, held.d, factor)

    @pytest.mark.parametrize("backend", ["x2", "x2 removed",
                                         "no libcrypto"])
    def test_seeded_keys_match_the_pinned_digest(self, backend,
                                                 monkeypatch):
        """32 RSA-1024 and 4 RSA-2048 seeded keys, as the single-gcd
        search on ``pow`` generated them, each from the keygen that
        ``generate_keypair(bits, seed=seed)`` runs on a memo miss, and the
        rng state each keygen leaves.  Without the x2 symbol a pair is two
        constant-time calls, and without libcrypto it is two ``pow``
        calls; nothing moves.  The states catch a search that finds the
        right second prime from the wrong place in the rng stream, which
        the keys cannot."""
        if backend != "x2":
            monkeypatch.setattr(bignum, "_EXP_X2", None)
        if backend == "no libcrypto":
            monkeypatch.setattr(bignum, "_LIB", None)
        keys, states = [], []
        for bits, seed in reference_primes.PINNED_KEY_SEEDS:
            rng = random.Random(seed)
            keys.append(((bits, seed), rsa._generate_keypair(bits, rng)))
            states.append(((bits, seed), rng.getstate()))
        assert reference_primes.keys_digest(keys) == \
            reference_primes.PINNED_KEYS_DIGEST
        assert reference_primes.states_digest(states) == \
            reference_primes.PINNED_STATES_DIGEST


#: k of the Monier semiprime (2k + 1)(4k + 1), k odd, both factors
#: prime: 1,024 bits with its top two bits set, so a candidate of
#: ``generate_prime(1024)``, with no factor below 2^12.  Its ``n - 1`` is
#: twice an odd number, and exactly a quarter of all bases are strong
#: liars (2k^2 of the 8k^2 units), as for 367 * 733.
_MONIER_K = int(
    "55145b03305d97b015b2181ad8b90144d46546a3c5a25b02c50c10a4db7db09b"
    "ce0d9d1c685d88f960092756cbccce0b85972713feaa797fd2de8f32724ac30d", 16)

#: A prime m = 1 (mod 22) with 353 * m 1,024 bits wide and its top two
#: bits set.  The second gcd finds 353, and 11 divides both 352 and the
#: odd part of 353 * m - 1, so an element of order 11 is a strong liar
#: modulo the factor and modulo the candidate.
_COFACTOR_OF_353 = int(
    "98618819d8efd97adb411182b840ad20c4a7bde14791e5d1cb52bb56c499adaf"
    "1cc7e6fff61e5bc2fac7c17aaa3d797b9b94678f9fdeaaa76900e43ad4a20d0e"
    "2d02b6de68cab4d44ed6d50aef01ed21ff4159686dba3b011df84ca3c30fef61"
    "84dae72713e00c09c6ee218a10a3f87375c3698dd527e61f7941ee8929eb2f", 16)


class ScriptedRandom(random.Random):
    """A Mersenne Twister whose first ``getrandbits`` calls return
    ``script`` instead.  ``getstate``/``setstate`` carry the position in
    the script, so a rollback replays it."""

    def __init__(self, seed, script=()):
        self.script, self.position = list(script), 0
        super().__init__(seed)

    def getrandbits(self, k):
        if self.position < len(self.script):
            self.position += 1
            return self.script[self.position - 1]
        return super().getrandbits(k)

    def getstate(self):
        return super().getstate(), self.position

    def setstate(self, state):
        state, self.position = state
        super().setstate(state)


def _witness_script(witnesses):
    """What ``getrandbits`` returns so that a search draws ``witnesses``:
    ``randrange(2, n - 1)`` adds 2 to one ``getrandbits`` below
    ``n - 3``."""
    return [witness - 2 for witness in witnesses]


def _passes_round(candidate, witness, modulus=None):
    """One plain Miller-Rabin round for ``candidate`` on ``pow``, modulo
    ``modulus`` (a factor of it) or the candidate itself."""
    d, r = candidate - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return reference_primes._round_passes(witness, d, r,
                                          modulus or candidate)


@functools.cache
def _scripted_composites():
    """(candidate, liars, a base that is not a liar) for the Monier
    semiprime and for 353 * m; for 353 * m the non-liar already fails
    modulo 353."""
    k = _MONIER_K
    monier = (2 * k + 1) * (4 * k + 1)
    pick = random.Random(4)
    bases = [pick.randrange(2, monier - 1) for _ in range(24)]
    liars = [base for base in bases if _passes_round(monier, base)]
    other = next(base for base in bases if base not in liars)
    cases = [(monier, liars[:2], other)]
    with_factor = 353 * _COFACTOR_OF_353
    exponent = math.lcm(352, _COFACTOR_OF_353 - 1) // 11
    liars = sorted({pow(base, exponent, with_factor)
                    for base in range(2, 9)} - {1})[:2]
    other = next(base for base in range(2, 99)
                 if not _passes_round(with_factor, base, 353))
    cases.append((with_factor, liars, other))
    for candidate, liars, other in cases:
        assert candidate.bit_length() == 1024 and candidate >> 1022 == 3
        assert all(_passes_round(candidate, liar) for liar in liars)
        assert len(set(liars)) == 2 and other not in liars
        assert not _passes_round(candidate, other)
    return cases


class TestPairedSearch:
    """From 1,024 bits the search runs two full-size rounds per x2 call
    and rolls the rng back wherever the round it guessed went the other
    way; the single-gcd search on ``pow`` is the oracle, verdict, prime
    and ``getstate()`` alike."""

    def test_the_composites_are_what_they_claim(self):
        k = _MONIER_K
        assert k % 2 == 1
        for factor in (2 * k + 1, 4 * k + 1, _COFACTOR_OF_353):
            assert reference_primes.is_probable_prime(factor,
                                                      random.Random(1))
        assert _COFACTOR_OF_353 % 22 == 1
        assert len(_scripted_composites()) == 2

    def test_monier_semiprime_matches_the_reference_draw_for_draw(self):
        """A quarter of the bases are liars, so over these seeds the
        search rejects the semiprime in its first round, in the first
        round of a pair (the second draw is rolled back) and in the
        second round of a pair."""
        monier = _scripted_composites()[0][0]
        rejected_in = Counter()
        for seed in range(160):
            mine, theirs = random.Random(seed), random.Random(seed)
            assert is_probable_prime(monier, mine) is False
            assert reference_primes.is_probable_prime(monier, theirs) is False
            assert mine.getstate() == theirs.getstate()
            probe, rounds = random.Random(seed), 0
            while probe.getstate() != theirs.getstate():
                probe.randrange(2, monier - 1)
                rounds += 1
            rejected_in[rounds] += 1
        assert {1, 2, 3, 4} <= set(rejected_in)

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("later", ["pass then fail", "fail"])
    def test_scripted_witnesses_match_the_reference(self, case, later):
        """Liars for the first rounds, then a base that fails (modulo 353
        for the second composite) either in the second round of a pair or
        in the first."""
        candidate, liars, other = _scripted_composites()[case]
        witnesses = liars if later == "pass then fail" else liars[:1]
        script = _witness_script(witnesses + [other])
        for seed in (0, 1):
            mine = ScriptedRandom(seed, script)
            theirs = ScriptedRandom(seed, script)
            assert is_probable_prime(candidate, mine) is False
            assert reference_primes.is_probable_prime(candidate,
                                                      theirs) is False
            assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("later", ["pass then fail", "fail"])
    def test_a_composite_pending_candidate_rolls_back(self, case, later):
        """The composite is ``generate_prime``'s first candidate and a
        liar passes its first round, so the next candidate, drawn to pair
        with it, is rolled back; then its rounds run in pairs until one
        fails.  The prime found and the rng state equal the reference's.
        """
        candidate, liars, other = _scripted_composites()[case]
        witnesses = liars if later == "pass then fail" else liars[:1]
        script = [candidate] + _witness_script(witnesses + [other])
        mine, theirs = ScriptedRandom(5, script), ScriptedRandom(5, script)
        prime = generate_prime(1024, mine)
        assert prime == reference_primes.generate_prime(1024, theirs)
        assert prime != candidate
        assert mine.getstate() == theirs.getstate()

    def test_unseeded_keygen_on_system_random(self):
        """``SystemRandom`` has no state to roll back: its search runs one
        round per call and never asks for one."""
        key = generate_keypair(2048)
        assert key.n.bit_length() == 2048
        assert key.p.bit_length() == key.q.bit_length() == 1024
        signature = key.sign(b"unseeded")
        assert key.public_key.verify(b"unseeded", signature)
        assert not key.public_key.verify(b"unseeded!", signature)


class TestRsa:
    def test_sign_verify_roundtrip(self, rsa_key):
        message = b"sanitized package content"
        signature = rsa_key.sign(message)
        assert rsa_key.public_key.verify(message, signature)

    def test_signature_length_matches_modulus(self, rsa_key):
        assert len(rsa_key.sign(b"x")) == rsa_key.size_bytes

    def test_2048_bit_key_gives_256_byte_signatures(self):
        key = generate_keypair(2048, seed=42)
        assert key.size_bytes == 256
        assert len(key.sign(b"paper constant")) == 256

    def test_tampered_message_rejected(self, rsa_key):
        signature = rsa_key.sign(b"original")
        assert not rsa_key.public_key.verify(b"tampered", signature)

    def test_tampered_signature_rejected(self, rsa_key):
        signature = bytearray(rsa_key.sign(b"msg"))
        signature[0] ^= 0xFF
        assert not rsa_key.public_key.verify(b"msg", bytes(signature))

    def test_wrong_key_rejected(self, rsa_key, rsa_key_alt):
        signature = rsa_key.sign(b"msg")
        assert not rsa_key_alt.public_key.verify(b"msg", signature)

    def test_wrong_length_signature_rejected(self, rsa_key):
        assert not rsa_key.public_key.verify(b"msg", b"short")

    def test_deterministic_generation(self):
        a = generate_keypair(512, seed=123)
        b = generate_keypair(512, seed=123)
        assert (a.n, a.d) == (b.n, b.d)

    def test_distinct_seeds_distinct_keys(self):
        assert generate_keypair(512, seed=1).n != generate_keypair(512, seed=2).n

    def test_private_pem_roundtrip(self, rsa_key):
        restored = RsaPrivateKey.from_pem(rsa_key.to_pem())
        assert restored == rsa_key

    def test_public_pem_roundtrip(self, rsa_key):
        pub = rsa_key.public_key
        assert RsaPublicKey.from_pem(pub.to_pem()) == pub

    def test_public_pem_label_checked(self, rsa_key):
        with pytest.raises(SignatureError):
            RsaPublicKey.from_pem(rsa_key.to_pem())

    def test_fingerprint_stability(self, rsa_key):
        assert rsa_key.public_key.fingerprint() == rsa_key.public_key.fingerprint()
        assert len(rsa_key.public_key.fingerprint()) == 16

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    @given(st.binary(min_size=0, max_size=512))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_message(self, message):
        key = generate_keypair(512, seed=99)
        assert key.public_key.verify(message, key.sign(message))

    def test_golden_keys_and_signatures(self):
        """Seeded keys and their signatures are byte-identical to those of
        the pure-``pow`` implementation, whichever modexp kernel runs."""
        h = hashlib.sha256()
        for bits, seed in [(1024, s) for s in range(4)] + [(2048, 2048)]:
            k = generate_keypair(bits, seed=seed)
            h.update(f"{bits}:{seed}:{k.n:x}:{k.d:x}\n".encode())
            for i in range(16):
                h.update(k.sign(b"golden-%d" % i))
        assert h.hexdigest() == (
            "8a19bc81de300f06e380c1850af7495bd579199fe4ba42d1068f68634543a29f"
        )

    @pytest.mark.usefixtures("cold_memos")
    def test_self_check_catches_a_faulty_kernel(self, rsa_key, monkeypatch):
        pair = ModExp.pair
        for faulted in (0, 1):
            def faulty(held, base, other, other_base):
                halves = list(pair(held, base, other, other_base))
                modulus = (held.modulus, other.modulus)[faulted]
                halves[faulted] = (halves[faulted] + 1) % modulus
                return tuple(halves)

            memo.clear_all()
            monkeypatch.setattr(ModExp, "pair", faulty)
            with pytest.raises(
                    SignatureError,
                    match="self-check of freshly produced signature failed"):
                rsa_key.sign(b"faulted CRT half")

    @pytest.mark.usefixtures("cold_memos")
    def test_faulty_public_kernel_fails_closed(self, rsa_key, monkeypatch):
        """A wrong ``s^e mod n`` rejects a genuine signature, and signing
        refuses because its self-check cannot verify."""
        genuine = rsa_key.sign(b"genuine")
        public = ModExp.public
        memo.clear_all()
        monkeypatch.setattr(
            ModExp, "public",
            lambda held, base: (public(held, base) + 1) % held.modulus)
        assert not rsa_key.public_key.verify(b"genuine", genuine)
        with pytest.raises(SignatureError,
                           match="self-check of freshly produced signature failed"):
            rsa_key.sign(b"faulted public kernel")


def _unheld(key):
    """An equal private key that has built no held state yet."""
    return RsaPrivateKey(n=key.n, e=key.e, d=key.d, p=key.p, q=key.q)


def _textbook_signature(key, message):
    """The PKCS#1 v1.5 signature from one full-size ``pow``."""
    em = rsa._emsa_pkcs1_v15(message, key.size_bytes)
    return pow(int.from_bytes(em, "big"), key.d, key.n).to_bytes(
        key.size_bytes, "big")


class _LibShim:
    """libcrypto as the held kernels see it, recording every allocation
    of a BIGNUM or BN_CTX and every release."""

    def __init__(self, lib):
        self._lib = lib
        self.allocated, self.released = [], []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def _allocation(self, pointer):
        self.allocated.append(pointer)
        return pointer

    def BN_new(self):
        return self._allocation(self._lib.BN_new())

    def BN_bin2bn(self, *args):
        return self._allocation(self._lib.BN_bin2bn(*args))

    def BN_CTX_new(self):
        return self._allocation(self._lib.BN_CTX_new())

    def BN_CTX_free(self, ctx):
        self.released.append(ctx)
        self._lib.BN_CTX_free(ctx)

    def BN_clear_free(self, bn):
        self.released.append(bn)
        self._lib.BN_clear_free(bn)

    def BN_MONT_CTX_free(self, mont):
        self.released.append(mont)
        self._lib.BN_MONT_CTX_free(mont)


@pytest.mark.usefixtures("cold_memos")
class TestHeldKeyState:
    """RSA keys keep their OpenSSL Montgomery state for their lifetime."""

    def test_dropping_a_key_releases_its_held_state(self, monkeypatch):
        if bignum._LIB is None:
            pytest.skip("no libcrypto: keys hold no native state")
        shim = _LibShim(bignum._LIB)
        monkeypatch.setattr(bignum, "_LIB", shim)
        key = _unheld(generate_keypair(1024, seed=21))
        key.sign(b"build the held state")
        exp_p, exp_q, _ = key._crt_params()
        held = [exp_p, exp_q, key.public_key._exponentiation()]
        handles = {handle for modexp in held for handle in modexp._handles}
        assert len(handles) == 9
        del exp_p, exp_q, held
        shim.released.clear()
        del key
        gc.collect()
        assert sorted(shim.released) == sorted(handles)

    def test_public_key_is_one_object_equal_by_value(self, rsa_key):
        public = rsa_key.public_key
        assert rsa_key.public_key is public
        assert public == RsaPublicKey(n=rsa_key.n, e=rsa_key.e)
        assert hash(public) == hash(RsaPublicKey(n=rsa_key.n, e=rsa_key.e))

    def test_copies_sign_identically_after_the_original_is_freed(self):
        key = _unheld(generate_keypair(1024, seed=22))
        messages = [b"copy-%d" % i for i in range(3)]
        expected = [_textbook_signature(key, m) for m in messages]
        key.sign(b"build the held state")
        copies = [copy.copy(key), copy.deepcopy(key),
                  pickle.loads(pickle.dumps(key))]
        held = key._crt_params()[0]
        assert copies[0]._crt_params()[0] is held
        assert copies[1]._crt_params()[0] is held
        assert copies[2]._crt_params()[0] is not held
        assert copies[2]._crt_params()[0].exponent == held.exponent
        assert copy.deepcopy(held) is held
        del key, held
        gc.collect()
        for twin in copies:
            memo.clear_all()
            assert [twin.sign(m) for m in messages] == expected
            assert all(twin.public_key.verify(m, s)
                       for m, s in zip(messages, expected))

    @pytest.mark.parametrize("removed", ["_LIB", "_EXP_X2"])
    def test_signatures_without_a_kernel_are_pows(self, monkeypatch,
                                                   removed):
        monkeypatch.setattr(bignum, removed, None)
        for bits, seed in ((1024, 23), (2048, 2048)):
            key = _unheld(generate_keypair(bits, seed=seed))
            for i in range(3):
                message = b"fallback-%d" % i
                assert key.sign(message) == _textbook_signature(key, message)
            if removed == "_LIB":
                assert key._crt_params()[0]._handles is None

    def test_two_fresh_signatures_build_the_pair_once(self, monkeypatch):
        built = []

        class CountingModExp(ModExp):
            __slots__ = ()

            def __init__(self, exponent, modulus):
                built.append(modulus)
                super().__init__(exponent, modulus)

        monkeypatch.setattr(rsa, "ModExp", CountingModExp)
        key = _unheld(generate_keypair(1024, seed=24))
        key.sign(b"first")
        key.sign(b"second")
        assert built == [key.p, key.q, key.n]


def _held_private(base, exponent, modulus):
    return ModExp(exponent, modulus).private(base)


def _same_as_pow(base, exponent, modulus, function=_held_private):
    try:
        expected = pow(base, exponent, modulus)
    except ValueError:  # negative exponent without an inverse
        with pytest.raises(ValueError):
            function(base, exponent, modulus)
    else:
        assert function(base, exponent, modulus) == expected


def _held_public(base, exponent, modulus):
    return ModExp(exponent, modulus).public(base)


def _pair_same_as_pow(base, exponent1, modulus1, exponent2, modulus2,
                      other_base=None):
    """One ``pair`` call against two ``pow`` calls; the second slot takes
    ``base`` too unless ``other_base`` is given."""
    other_base = base if other_base is None else other_base
    first, second = ModExp(exponent1, modulus1), ModExp(exponent2, modulus2)
    try:
        expected = (pow(base, exponent1, modulus1),
                    pow(other_base, exponent2, modulus2))
    except ValueError:  # negative exponent without an inverse
        with pytest.raises(ValueError):
            first.pair(base, second, other_base)
    else:
        assert first.pair(base, second, other_base) == expected


class TestBignum:
    def test_backend_is_reported(self):
        assert bignum.BACKEND in ("openssl", "python")

    def test_matches_pow_on_small_operands_exhaustively(self):
        """Moduli 1 and 2, even moduli and negative exponents take the
        ``pow`` fallback; the rest run on the kernel."""
        for modulus in range(1, 34):
            for exponent in (-2, -1, 0, 1, 2, 3, 7, 64):
                for base in range(-40, 41):
                    _same_as_pow(base, exponent, modulus)

    @pytest.mark.parametrize(
        "bits", [2, 3, 8, 31, 32, 33, 64, 65, 127, 512, 1024, 2048, 4096])
    def test_matches_pow_on_seeded_operands(self, bits):
        rng = random.Random(bits)
        odd = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        for shift, modulus in enumerate((odd, odd - 1)):
            exponents = [0, 1, rng.getrandbits(4), rng.getrandbits(bits),
                         rng.getrandbits(bits + 67)]
            bases = [rng.randrange(modulus), 0, modulus,
                     modulus + rng.randrange(modulus),
                     -rng.randrange(1, modulus * modulus + 2)]
            for i, exponent in enumerate(exponents):
                _same_as_pow(bases[(i + shift) % 5], exponent, modulus)

    @pytest.mark.parametrize("half_bits", [256, 512, 768, 1024, 1536, 2048])
    def test_pair_matches_pow_on_seeded_operands(self, half_bits):
        """Full-width operands are the ones OpenSSL's AVX-512 IFMA branch
        takes at 1024 bits; a base one word short sends it down the
        generic branch."""
        rng = random.Random(half_bits)

        def full_width():
            return rng.getrandbits(half_bits) | 1 << (half_bits - 1)

        m1, m2 = full_width() | 1, full_width() | 1
        short = rng.getrandbits(half_bits // 3) | 1 << (half_bits // 3 - 1) | 1
        cases = [
            (rng.randrange(1 << (half_bits - 1), min(m1, m2)),
             full_width(), m1, full_width(), m2),
            (rng.getrandbits(half_bits - 64), full_width(), m1,
             full_width(), m2),
            (0, full_width(), m1, full_width(), m2),
            (m1, full_width(), m1, full_width(), m2),
            (m1 + rng.randrange(m1 * m2), full_width(), m1,
             full_width(), m2),
            (-rng.randrange(1, m1 * m2), full_width(), m1,
             full_width(), m2),
            (rng.randrange(m1), 0, m1, 1, m2),
            (rng.randrange(m1), 1, m1, 0, m2),
            (rng.randrange(m1 * short), full_width(), m1,
             rng.getrandbits(half_bits // 3), short),
            (rng.randrange(m1 * short), rng.getrandbits(half_bits // 3),
             short, rng.getrandbits(half_bits + 67), m1),
        ]
        for case in cases:
            _pair_same_as_pow(*case)

    @pytest.mark.parametrize("half_bits", [256, 512, 1024, 2048])
    def test_one_held_pair_serves_many_bases(self, half_bits):
        """A held pair answers every base like ``pow``, including 0, the
        moduli themselves and bases above both."""
        rng = random.Random(half_bits + 1)
        m1, m2 = (rng.getrandbits(half_bits) | 1 << (half_bits - 1) | 1
                  for _ in range(2))
        e1, e2 = rng.getrandbits(half_bits), rng.getrandbits(half_bits)
        first, second = ModExp(e1, m1), ModExp(e2, m2)
        bases = [0, 1, m1, m2, m1 * m2, m1 * m2 + 7]
        bases += [rng.randrange(m1 * m2 * 4) for _ in range(20)]
        for base in bases:
            assert first.pair(base, second, base) == (pow(base, e1, m1),
                                                      pow(base, e2, m2))

    @pytest.mark.parametrize("half_bits", [512, 1024])
    def test_pair_takes_one_base_per_slot(self, half_bits):
        """Two Miller-Rabin rounds pass a witness each: every slot
        answers for its own base, full-width or short, zero or above its
        modulus."""
        rng = random.Random(half_bits + 2)
        m1, m2 = (rng.getrandbits(half_bits) | 1 << (half_bits - 1) | 1
                  for _ in range(2))
        e1, e2 = m1 >> 1, rng.getrandbits(half_bits)
        bases = [rng.randrange(2, m1 - 1), rng.randrange(2, m2 - 1),
                 rng.getrandbits(half_bits - 64), 0, m1, m2 + 3]
        for base in bases:
            for other_base in bases:
                _pair_same_as_pow(base, e1, m1, e2, m2, other_base)

    def test_pair_falls_back_to_pow_per_slot(self):
        """An even modulus, a modulus of 1 or 2, or a negative exponent in
        either slot gives ``pow``'s answer, or its ``ValueError``."""
        rng = random.Random(7)
        odd = rng.getrandbits(512) | 1 << 511 | 1
        kernel = (rng.getrandbits(512), odd)
        fallbacks = [(rng.getrandbits(512), odd - 1), (5, 1), (5, 2),
                     (-1, odd), (-3, odd - 1), (-1, 1)]
        for base in (rng.randrange(odd), 0, 2, -rng.randrange(odd)):
            for fallback in fallbacks:
                for slots in (fallback + kernel, kernel + fallback,
                              fallback + fallback):
                    _pair_same_as_pow(base, *slots)

    def test_public_kernel_matches_pow_on_small_operands_exhaustively(self):
        for modulus in range(1, 34):
            for exponent in (-2, -1, 0, 1, 2, 3, 7, 64):
                held = ModExp(exponent, modulus)
                for base in range(-40, 41):
                    _same_as_pow(base, exponent, modulus,
                                 lambda b, e, m: held.public(b))

    @pytest.mark.parametrize("bits", [512, 1024, 2048, 3072, 4096])
    def test_public_kernel_matches_pow_on_seeded_operands(self, bits):
        rng = random.Random(bits)
        odd = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        for shift, modulus in enumerate((odd, odd - 1)):
            bases = [rng.randrange(modulus), 0, modulus, modulus + 5,
                     -rng.randrange(1, modulus)]
            for exponent in (0, 1, 3, 65537, rng.getrandbits(17)):
                held = ModExp(exponent, modulus)
                for base in bases:
                    assert held.public(base) == pow(base, exponent, modulus)
            _same_as_pow(bases[shift], rng.getrandbits(bits), modulus,
                         _held_public)

    def test_missing_symbols_fall_back_to_pow(self, monkeypatch):
        rng = random.Random(5)
        m1, m2 = (rng.getrandbits(1024) | 1 << 1023 | 1 for _ in range(2))
        base, e1, e2 = (rng.getrandbits(1024) for _ in range(3))
        expected = (pow(base, e1, m1), pow(base, e2, m2))
        monkeypatch.setattr(bignum, "_LIB", None)
        first, second = ModExp(e1, m1), ModExp(e2, m2)
        assert first._handles is None and second._handles is None
        assert first.pair(base, second, base) == expected
        assert first.public(base) == expected[0]
        assert first.private(base) == expected[0]

    def test_pair_without_x2_is_two_consttime_calls(self, monkeypatch):
        if bignum._LIB is None:
            pytest.skip("no libcrypto")
        rng = random.Random(6)
        m1, m2 = (rng.getrandbits(1024) | 1 << 1023 | 1 for _ in range(2))
        base, e1, e2 = (rng.getrandbits(1024) for _ in range(3))
        expected = (pow(base, e1, m1), pow(base, e2, m2))
        first, second = ModExp(e1, m1), ModExp(e2, m2)
        real, calls = bignum._LIB, []
        shim = _LibShim(real)

        def counting_consttime(*args):
            calls.append(args[5])  # the held Montgomery context
            return real.BN_mod_exp_mont_consttime(*args)

        shim.BN_mod_exp_mont_consttime = counting_consttime
        monkeypatch.setattr(bignum, "_LIB", shim)
        assert first.pair(base, second, base) == expected
        if bignum._EXP_X2 is not None:
            assert calls == []  # one x2 call
        monkeypatch.setattr(bignum, "_EXP_X2", None)
        assert first.pair(base, second, base) == expected
        assert calls == [first._handles[2], second._handles[2]]

    def test_private_releases_exactly_its_held_handles(self, monkeypatch):
        """A call frees what it allocated and nothing it holds; the
        finalizer frees what it holds and nothing else."""
        if bignum._LIB is None:
            pytest.skip("no libcrypto: nothing is held")
        shim = _LibShim(bignum._LIB)
        monkeypatch.setattr(bignum, "_LIB", shim)
        rng = random.Random(9)
        modulus = rng.getrandbits(1024) | 1 << 1023 | 1
        exponent = rng.getrandbits(1024)
        held = ModExp(exponent, modulus)
        handles = set(held._handles)
        for base in (rng.randrange(modulus), 0, modulus + 3, -5):
            assert held.private(base) == pow(base, exponent, modulus)
        assert shim.released and not handles & set(shim.released)
        shim.released.clear()
        del held
        gc.collect()
        assert sorted(shim.released) == sorted(handles)

    def test_two_base_pair_frees_everything_it_allocates(self,
                                                        monkeypatch):
        """Per call: two bases, two results and a BN_CTX, each cleared
        and freed before the call returns, and nothing either object
        holds."""
        if bignum._LIB is None:
            pytest.skip("no libcrypto: nothing is allocated")
        rng = random.Random(12)
        m1, m2 = (rng.getrandbits(1024) | 1 << 1023 | 1 for _ in range(2))
        e1, e2 = m1 >> 1, m2 >> 1
        first, second = ModExp(e1, m1), ModExp(e2, m2)
        held = set(first._handles) | set(second._handles)
        shim = _LibShim(bignum._LIB)
        monkeypatch.setattr(bignum, "_LIB", shim)
        for x2 in (bignum._EXP_X2, None):
            monkeypatch.setattr(bignum, "_EXP_X2", x2)
            for base, other_base in ((rng.randrange(m1), rng.randrange(m2)),
                                     (0, m2 + 3), (-5, 2)):
                shim.allocated.clear()
                shim.released.clear()
                assert first.pair(base, second, other_base) == (
                    pow(base, e1, m1), pow(other_base, e2, m2))
                assert len(shim.allocated) == 5
                assert sorted(shim.released) == sorted(shim.allocated)
                assert not held & set(shim.released)

    @pytest.mark.parametrize("kernel", ["private", "public"])
    def test_copies_compute_after_the_original_is_freed(self, kernel):
        """``copy`` and pickling rebuild from (exponent, modulus) with
        handles of their own; ``deepcopy`` returns the object itself, as
        the copies of a key that share its CRT pair rely on."""
        rng = random.Random(10)
        modulus = rng.getrandbits(1024) | 1 << 1023 | 1
        exponent = rng.getrandbits(1024)
        bases = [rng.randrange(modulus) for _ in range(3)]
        expected = [pow(base, exponent, modulus) for base in bases]
        held = ModExp(exponent, modulus)
        copies = [copy.copy(held), copy.deepcopy(held),
                  pickle.loads(pickle.dumps(held))]
        assert copies[1] is held
        for twin in (copies[0], copies[2]):
            assert twin is not held
            assert (twin.exponent, twin.modulus) == (exponent, modulus)
            if held._handles is not None:
                assert not set(twin._handles) & set(held._handles)
        del held
        gc.collect()
        for twin in copies:
            assert [getattr(twin, kernel)(b) for b in bases] == expected


class TestPem:
    def test_roundtrip(self):
        body = bytes(range(100))
        label, decoded = pem_decode(pem_encode("PUBLIC KEY", body))
        assert label == "PUBLIC KEY"
        assert decoded == body

    def test_line_wrapping(self):
        pem = pem_encode("CERTIFICATE", b"\x00" * 200)
        body_lines = pem.splitlines()[1:-1]
        assert all(len(line) <= 64 for line in body_lines)

    def test_label_mismatch_rejected(self):
        pem = pem_encode("A", b"data").replace("END A", "END B")
        with pytest.raises(SignatureError):
            pem_decode(pem)

    def test_bad_base64_rejected(self):
        with pytest.raises(SignatureError):
            pem_decode("-----BEGIN X-----\n!!!not base64!!!\n-----END X-----")

    def test_whitespace_tolerated(self):
        pem = "  " + pem_encode("X", b"hi").replace("\n", "\n  ") + "  \n"
        assert pem_decode(pem) == ("X", b"hi")

    def test_lowercase_label_rejected_on_encode(self):
        with pytest.raises(ValueError):
            pem_encode("lower", b"x")


class TestCertificates:
    @pytest.fixture(scope="class")
    def ca(self):
        return CertificateAuthority("repro-root", key_bits=512, seed=5)

    def test_issue_and_verify_chain(self, ca):
        key, cert = ca.issue_endpoint("mirror.example", key_bits=512, seed=6)
        assert verify_chain([cert, ca.certificate], ca.public_key)
        assert key.public_key == cert.public_key

    def test_subject_pinning(self, ca):
        _, cert = ca.issue_endpoint("mirror.example", key_bits=512, seed=7)
        chain = [cert, ca.certificate]
        assert verify_chain(chain, ca.public_key, expected_subject="mirror.example")
        assert not verify_chain(chain, ca.public_key, expected_subject="evil.example")

    def test_wrong_root_rejected(self, ca):
        other = CertificateAuthority("other-root", key_bits=512, seed=8)
        _, cert = ca.issue_endpoint("mirror.example", key_bits=512, seed=9)
        assert not verify_chain([cert, ca.certificate], other.public_key)

    def test_forged_leaf_rejected(self, ca):
        _, cert = ca.issue_endpoint("mirror.example", key_bits=512, seed=10)
        forged = Certificate(
            subject="evil.example",
            issuer=cert.issuer,
            public_key=cert.public_key,
            signature=cert.signature,
        )
        assert not verify_chain([forged, ca.certificate], ca.public_key)

    def test_empty_chain_rejected(self, ca):
        assert not verify_chain([], ca.public_key)

    def test_pem_roundtrip(self, ca):
        _, cert = ca.issue_endpoint("mirror.example", key_bits=512, seed=11)
        assert Certificate.from_pem(cert.to_pem()) == cert
