"""Delta updates — fleet uplink bytes, full pulls vs signed diffs (§8).

The trace replay (§7) made the TSR uplink the fleet-scale cost: every
pull wave re-transfers the full signed index and whole packages to every
client.  This bench replays the same multi-round trace twice on twin
deployments — once with baseline full pulls, once with the delta path
(signed index diffs + content-defined chunk patches, ``core/delta``) —
and measures the ablation:

* **bytes per client per round** on the TSR uplink, all waves and
  steady-state (wave 1 is cold either way: no client holds a base yet);
* simulated **wall-clock** and the staleness/availability story, which
  must NOT change — deltas deliver byte-identical indexes and packages
  (pinned by ``tests/test_delta_updates.py``), so only wire sizes move.

The headline acceptance bar: >= 5x steady-state uplink reduction at
unchanged staleness.  CI runs this emitting ``BENCH_delta_updates.json``.
"""

import os
import time
import random

from repro.archive.apk import ApkPackage, PackageFile
from repro.bench.report import PaperTable, record_table
from repro.util.stats import human_bytes, human_duration
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import build_scenario

ROUNDS = int(os.environ.get("REPRO_DELTA_ROUNDS", "10"))
CLIENTS = int(os.environ.get("REPRO_DELTA_CLIENTS", "16"))
PACKAGES = 8
#: One large incompressible payload per package: the realistic delta
#: shape (a binary whose release flips a few bytes).  Compressible
#: repeated-byte payloads would understate full-pull cost and overstate
#: nothing — deltas win on *unchanged chunks*, not compressibility.
PAYLOAD_BYTES = 48 * 1024
INTERVAL = 0.6
#: A provisioned uplink (transfer time small against the wave interval):
#: the staleness comparison isolates *bytes*, not queueing — on a
#: saturated NIC deltas additionally shorten waves, which would make
#: "unchanged staleness" untestable.
LINK_BANDWIDTH = 256 * 2 ** 20
#: Acceptance bar: steady-state uplink reduction.
MIN_REDUCTION = 5.0


def _population(count=PACKAGES, payload=PAYLOAD_BYTES):
    packages = []
    for i in range(count):
        packages.append(ApkPackage(
            name=f"blob-{i:02d}", version="1.0-r0",
            files=[
                PackageFile(f"/usr/lib/blob{i}.bin",
                            random.Random(9000 + i).randbytes(payload)),
                PackageFile(f"/etc/blob{i}.conf", b"mode=fast\n" * 4),
            ],
        ))
    return packages


def _trace():
    # Every client tracks the full catalog (installs_per_client covers
    # the population): wave 1 installs everything, later waves upgrade
    # whatever each publish evolved — the distro-tracking fleet shape.
    return generate_trace(rounds=ROUNDS, interval=INTERVAL,
                          publish_fraction=0.5, seed=17,
                          installs_per_client=PACKAGES)


def _replay(delta: bool):
    scenario = build_scenario(packages=_population(), with_monitor=False)
    report = replay_trace(scenario, _trace(), clients=CLIENTS,
                          mode="interleaved", delta_updates=delta,
                          link_bandwidth=LINK_BANDWIDTH)
    return scenario, report


def test_delta_updates_ablation(benchmark, maybe_profile):
    def sweep():
        results = {}
        for mode in ("full", "delta"):
            results[mode] = _replay(delta=(mode == "delta"))
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(maybe_profile("test_delta_updates_ablation", sweep),
                                 rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)
    (_, full), (tsr_scenario, delta) = results["full"], results["delta"]

    full_steady = full.steady_state_bytes_per_client_per_round()
    delta_steady = delta.steady_state_bytes_per_client_per_round()
    reduction = full_steady / max(1.0, delta_steady)

    table = PaperTable(
        experiment="Delta updates",
        title=f"{ROUNDS}-round / {CLIENTS}-client fleet trace: "
              "full pulls vs signed index diffs + chunk patches",
        columns=["mode", "bytes/client/round", "steady-state", "total wire",
                 "wall", "staleness mean", "avail mean", "installs"],
    )
    for mode, (_, report) in results.items():
        table.add_row(
            mode,
            human_bytes(report.bytes_per_client_per_round),
            human_bytes(report.steady_state_bytes_per_client_per_round()),
            human_bytes(report.client_wire_bytes),
            human_duration(report.wall_elapsed),
            human_duration(report.staleness_mean),
            human_duration(report.availability_mean),
            report.installs,
        )
    stats = delta.delta_stats
    log = tsr_scenario.tsr.publication_log
    table.note(f"steady-state uplink reduction: {reduction:.1f}x "
               f"(index diffs {stats['index_deltas']}, package patches "
               f"{stats['package_deltas']}, base reuses "
               f"{stats['base_reuses']}, server bytes saved "
               f"{human_bytes(log.delta_bytes_saved)}); "
               "installed bytes and staleness identical by construction")
    record_table(table)

    # Structural equivalence: the delta path changed wire sizes only.
    assert delta.installs == full.installs
    assert delta.failed_pulls == full.failed_pulls
    assert delta.publishes == full.publishes
    assert abs(delta.staleness_mean - full.staleness_mean) \
        <= 0.02 * max(full.staleness_mean, 1e-9)
    assert abs(delta.availability_mean - full.availability_mean) \
        <= 0.02 * max(full.availability_mean, 1e-9)
    # Cold first wave costs the same; the delta path never serves a
    # *larger* wave than full pulls (fallbacks are tagged full blobs).
    assert delta.pull_wire_bytes[0] == full.pull_wire_bytes[0]
    assert all(d <= f for d, f in zip(delta.pull_wire_bytes,
                                      full.pull_wire_bytes))
    # The headline: >= 5x steady-state uplink reduction.
    assert reduction >= MIN_REDUCTION, \
        f"steady-state reduction only {reduction:.1f}x " \
        f"({human_bytes(full_steady)} -> {human_bytes(delta_steady)})"
    # The delta machinery actually engaged (no vacuous pass through
    # fallbacks).
    assert stats["index_deltas"] > 0
    assert stats["package_deltas"] > 0
    assert stats["index_rejected"] == 0
    assert stats["package_rejected"] == 0
