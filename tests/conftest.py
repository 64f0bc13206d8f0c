"""Shared fixtures: deterministic RSA keys are expensive, so generate once."""

import pytest
from hypothesis import settings

from repro.crypto.rsa import generate_keypair
from repro.util import memo

# 1024-bit keys keep unit tests fast; the bench suite uses 2048-bit keys so
# signatures are the paper's 256 bytes.
TEST_KEY_BITS = 1024

#: ``pytest --hypothesis-profile=deep`` runs every property test that does
#: not pin its own budget with 20x hypothesis's default example count and
#: no deadline (CI fuzzes the archive codec this way).
settings.register_profile("deep", max_examples=2000, deadline=None)


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


@pytest.fixture
def cold_memos():
    """Every process-wide memo starts the test empty, and whatever the
    test stores in one (a verdict under a faulted kernel, say) is dropped
    after it.  Not autouse: clearing the keypair memo makes the next
    seeded ``generate_keypair`` search for primes again."""
    memo.clear_all()
    yield
    memo.clear_all()
