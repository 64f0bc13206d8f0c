"""Simulated transfer outcomes under a deterministic host clock.

    PYTHONPATH=src python benchmarks/transfer_outcomes.py > outcomes.txt

Sanitize time is host-measured and charged to the simulated clock, so two
runs of the same refresh differ in their low digits.  This script replaces
``time.perf_counter`` with a counter that advances 1 ms per read *before*
``repro`` is imported, and then prints one line per run, with every float
as its ``repr``:

* the phased refresh: seeds 4, 5 and 6 of ``generate_workload(scale=
  0.004)``, four mirror sets (all honest; the fastest mirror frozen at
  serial 1 with one more package published; the fastest mirror corrupt;
  five mirrors with the fastest one down) and ``parallel_downloads``
  1, 2 and 4: serial, phase times, clock advance, rejections, the
  signed index's SHA-256 and downloaded bytes;
* the quorum reader as the Fig. 13 bench builds it (four mirror sets,
  1-10 mirrors) and as ablation A1 builds it (0-4 frozen of 5 mirrors):
  elapsed, mirrors contacted, agreeing and dissenting mirrors;
* ``fleet_refresh`` in four configurations: per-client finishes,
  fan-out and wall times.

The runs share one process in a fixed order, so earlier runs warm the
process-wide memos and a line's sanitize time depends on its position.
Run it on two checkouts and diff the outputs: a change that keeps every
simulated number prints identical lines.
"""

import itertools
import sys
import time
from pathlib import Path

_TICKS = itertools.count()
time.perf_counter = lambda: next(_TICKS) * 1e-3

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_ablation_quorum  # noqa: E402
import bench_fig13_quorum_latency as fig13  # noqa: E402
from repro.archive.apk import ApkPackage, PackageFile  # noqa: E402
from repro.archive.index import IndexEntry, RepositoryIndex  # noqa: E402
from repro.core.quorum import QuorumReader  # noqa: E402
from repro.crypto.hashes import sha256_hex  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402
from repro.mirrors.builder import MirrorSpec  # noqa: E402
from repro.mirrors.mirror import MirrorBehavior  # noqa: E402
from repro.simnet.latency import Continent  # noqa: E402
from repro.util.errors import QuorumError  # noqa: E402
from repro.workload.generator import generate_workload  # noqa: E402
from repro.workload.scenario import (  # noqa: E402
    DEFAULT_MIRROR_SPECS,
    build_scenario,
    fleet_refresh,
)

EU1 = "mirror-eu-1.example"

MIRROR_SETS = {
    "honest": DEFAULT_MIRROR_SPECS,
    "frozen": (MirrorSpec(EU1, Continent.EUROPE,
                          behavior=MirrorBehavior.FREEZE, pinned_serial=1),
               *DEFAULT_MIRROR_SPECS[1:]),
    "corrupt": (MirrorSpec(EU1, Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
                *DEFAULT_MIRROR_SPECS[1:]),
    "five-eu1-down": (*DEFAULT_MIRROR_SPECS,
                      MirrorSpec("mirror-na-2.example",
                                 Continent.NORTH_AMERICA),
                      MirrorSpec("mirror-asia-1.example", Continent.ASIA)),
}


def phased_refresh(seed: int, mirror_set: str, width: int) -> str:
    workload = generate_workload(scale=0.004, seed=seed, with_content=True)
    scenario = build_scenario(workload=workload, key_bits=1024,
                              refresh=False, with_monitor=False,
                              mirror_specs=MIRROR_SETS[mirror_set])
    if mirror_set == "frozen":
        scenario.origin.publish(ApkPackage(
            name="extra-pkg", version="1.0-r0",
            files=[PackageFile("/usr/share/extra", b"one more release")]))
        scenario.sync_mirrors()
    if mirror_set == "five-eu1-down":
        scenario.network.set_down(EU1)
    start = scenario.clock.now()
    report = scenario.tsr.refresh(scenario.repo_id, parallel_downloads=width)
    index = scenario.tsr.get_index_bytes(scenario.repo_id)
    return (f"refresh seed={seed} mirrors={mirror_set} width={width} "
            f"serial={report.serial} quorum={report.quorum_elapsed!r} "
            f"download={report.download_elapsed!r} "
            f"sanitize={report.sanitize_elapsed!r} "
            f"clock={scenario.clock.now() - start!r} "
            f"rejected={sorted(report.rejected)} "
            f"index={sha256_hex(index)} bytes={report.downloaded_bytes}")


def _quorum_line(label: str, reader: QuorumReader) -> str:
    try:
        read = reader.read_index()
    except QuorumError:
        return f"{label} no-quorum"
    return (f"{label} serial={read.index.serial} elapsed={read.elapsed!r} "
            f"contacted={read.contacted} agreeing={read.agreeing_mirrors} "
            f"dissenting={read.dissenting_mirrors}")


def fig13_index():
    key = generate_keypair(1024, seed=13)
    index = RepositoryIndex(serial=42)
    for i in range(11581):
        index.add(IndexEntry(name=f"pkg-{i:05d}", version="1.0-r0",
                             size=250_000, sha256=f"{i:064x}"))
    index.sign(key)
    return index.to_bytes(), key.public_key


def quorum_reads() -> list[str]:
    lines = []
    index_bytes, public_key = fig13_index()
    for name, continents in fig13._SCENARIOS.items():
        for count in range(1, 11):
            network, mirrors = fig13._build(index_bytes, continents, count)
            reader = QuorumReader(network, "tsr.eu", mirrors, [public_key])
            lines.append(_quorum_line(f"fig13 {name} n={count}", reader))
    for frozen in range(5):
        _, network, entries, key = bench_ablation_quorum._deploy(frozen)
        reader = QuorumReader(network, "tsr.eu", entries, [key.public_key])
        lines.append(_quorum_line(f"a1 frozen={frozen}", reader))
    return lines


FLEETS = {
    "scheduled-16": dict(clients=16),
    "scheduled-16-nic64K": dict(clients=16, client_downlink=64 * 1024),
    "scheduled-64": dict(clients=64),
    "mixed-nic-8": dict(clients=8,
                        client_downlink=[32 * 1024, 256 * 1024, 4 * 2**20]),
}


def fleet(label: str) -> str:
    workload = generate_workload(scale=0.004, seed=5, with_content=True)
    scenario = build_scenario(workload=workload, key_bits=1024,
                              with_monitor=False)
    report = fleet_refresh(scenario, installs_per_client=1, **FLEETS[label])
    return (f"fleet {label} installs={report.installs} "
            f"fanout={report.fanout_elapsed!r} "
            f"wall={report.wall_elapsed!r} "
            f"clients={[repr(x) for x in report.client_elapsed]}")


def main():
    for seed in (4, 5, 6):
        for mirror_set in MIRROR_SETS:
            for width in (1, 2, 4):
                print(phased_refresh(seed, mirror_set, width), flush=True)
    for line in quorum_reads():
        print(line, flush=True)
    for label in FLEETS:
        print(fleet(label), flush=True)


if __name__ == "__main__":
    main()
