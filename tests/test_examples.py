"""Smoke tests: the shipped examples must run end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "trusted=True" in result.stdout
        assert "quickstart complete." in result.stdout

    def test_byzantine_mirrors(self):
        result = _run("byzantine_mirrors.py")
        assert result.returncode == 0, result.stderr
        assert "outvoted" in result.stdout

    def test_multitenant_policies(self):
        result = _run("multitenant_policies.py")
        assert result.returncode == 0, result.stderr
        assert "multi-tenant demo complete" in result.stdout

    def test_multi_tenant_refresh(self):
        result = _run("multi_tenant_refresh.py")
        assert result.returncode == 0, result.stderr
        assert "cross-tenant dedupe" in result.stdout
        assert "multi-tenant orchestrated refresh complete" in result.stdout

    def test_fleet_attestation(self):
        result = _run("fleet_attestation.py")
        assert result.returncode == 0, result.stderr
        assert "mirror-channel nodes are all false positives" in result.stdout
        assert "the one red TSR node is the real implant" in result.stdout

    def test_trace_replay(self):
        result = _run("trace_replay.py")
        assert result.returncode == 0, result.stderr
        assert "per-client staleness" in result.stdout
        assert "plan-wide interleaving" in result.stdout
        assert "trace replay complete." in result.stdout
