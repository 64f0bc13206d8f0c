"""Shared fixtures: deterministic RSA keys are expensive, so generate once."""

import pytest

from repro.crypto.rsa import generate_keypair

# 1024-bit keys keep unit tests fast; the bench suite uses 2048-bit keys so
# signatures are the paper's 256 bytes.
TEST_KEY_BITS = 1024


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: runs a shipped example end to end in a subprocess "
        "(deselect with -m 'not slow')",
    )


@pytest.fixture(scope="session")
def rsa_key():
    """A deterministic session-wide RSA key for signature tests."""
    return generate_keypair(TEST_KEY_BITS, seed=0xA11CE)


@pytest.fixture(scope="session")
def rsa_key_alt():
    """A second, distinct deterministic key (for wrong-key tests)."""
    return generate_keypair(TEST_KEY_BITS, seed=0xB0B)
