"""Tests for the from-scratch crypto stack (hashes, RSA, PEM, certificates)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.certs import CertificateAuthority, Certificate, verify_chain
from repro.crypto.hashes import hmac_sha256, sha256_bytes, sha256_hex
from repro.crypto.pem import pem_decode, pem_encode
from repro.crypto.primes import _SMALL_PRIMES, generate_prime, is_probable_prime
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
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
