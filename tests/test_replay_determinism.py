"""Discrete outcomes of a trace replay are a pure function of (scenario,
trace, seed): two replays with every content memo cold agree, and a replay
over memos warmed by an earlier one agrees with a cold one, in the
interleaved, serial and streaming modes, and in a streaming fleet that
upgrades through package deltas from one edge replica.  The fingerprint
covers the signed indexes, every publication's index and blobs, the
install, wire and delta counters, and each client's serial sequence."""

import hashlib
import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.core.replica import ReplicaTSR
from repro.util import memo
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    multi_tenant_refresh,
)

STREAMING = dict(mode="streaming", clients=12, fleet_size=12,
                 clients_per_wave=4, streaming=True)
#: Four clients that return every wave, each pinned to the one edge
#: replica, on random payloads so that a delta beats a full pull.
DELTA_STREAMING = dict(mode="streaming", clients=4, fleet_size=4,
                       clients_per_wave=4, streaming=True,
                       delta_updates=True)


def _packages(count=6, reps=600, files=3, noise=0):
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * reps
                                 + random.Random(i).randbytes(noise))]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 64)
                      for j in range(files - 1)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   scripts=scripts, files=pkg_files))
    return packages


def _replay(mode="interleaved", clients=6, seed=11, delta_updates=False,
            **trace_kwargs):
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.5,
        packages=_packages(noise=8192 if delta_updates else 0))
    multi_tenant_refresh(scenario)
    # Wide simulated margins: sanitize costs charged to the simulated
    # clock are host-measured, so an event too close to an availability
    # boundary could land on a different serial from run to run.
    trace = generate_trace(rounds=3, interval=30.0, publish_fraction=0.3,
                           sync_lag=2.0, refresh_lag=6.0, pull_lag=20.0,
                           seed=seed, **trace_kwargs)
    replicas = []
    if delta_updates:
        replicas = [ReplicaTSR("edge-00.example", scenario.tsr,
                               sync_cadence=1.0)]
    report = replay_trace(scenario, trace, clients=clients, mode=mode,
                          delta_updates=delta_updates, replicas=replicas)
    if delta_updates:
        assert report.delta_stats["package_deltas"] > 0
    return _fingerprint(scenario, report)


def _fingerprint(scenario, report):
    h = hashlib.sha256()
    for repo_id in scenario.tenants:
        h.update(scenario.tsr.get_index_bytes(repo_id))
        for publication in scenario.tsr.publications(repo_id):
            h.update(str(publication.serial).encode())
            h.update(publication.index_bytes)
            for name in sorted(publication.blobs):
                h.update(name.encode())
                h.update(publication.blobs[name])
    h.update(str((report.installs, report.failed_installs,
                  report.client_wire_bytes, report.publishes,
                  report.delta_stats)).encode())
    for name in sorted(report.timelines):
        serials = [s for _, s in report.timelines[name].transitions]
        h.update(f"{name}:{serials}".encode())
    assert report.installs > 0
    return h.hexdigest()


@pytest.mark.parametrize(
    "kwargs", [{}, dict(mode="serial"), STREAMING, DELTA_STREAMING],
    ids=["interleaved", "serial", "streaming", "streaming-delta"])
class TestReplayDeterminism:
    def test_cold_replays_agree(self, kwargs):
        memo.clear_all()
        first = _replay(**kwargs)
        memo.clear_all()
        assert _replay(**kwargs) == first

    def test_warm_memos_keep_outcomes(self, kwargs):
        memo.clear_all()
        cold = _replay(**kwargs)
        # The second run reads every result the first one memoized.
        assert _replay(**kwargs) == cold


def test_fingerprint_follows_the_trace_seed():
    """The fingerprint is not vacuous: another trace publishes other
    packages, and the fingerprint moves with it."""
    assert _replay(seed=11) != _replay(seed=12)
