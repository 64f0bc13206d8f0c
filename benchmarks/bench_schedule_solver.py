"""Solver scaling — incremental event-heap solve vs the dense reference.

Fleet-shaped schedules (N client channels sharing one repository uplink,
heterogeneous per-client NIC caps, a few transfers per client) are solved
with both solvers:

* the incremental solver (``ParallelTransferSchedule.solve``): heap of
  next-completion events + water-level dirty-set rebalance, O(log n) per
  event;
* the dense reference oracle (``tests/reference_solver.py``): full
  per-event rate recomputation with a sort, O(n log n) per event —
  measured up to ``REFERENCE_CEILING`` channels and extrapolated beyond
  with the exponent fitted to the measured points.

These timings are **host wall-clock** (solver runtime), not simulated
seconds: the point is that a 10k-channel fleet's transfer timeline now
resolves in a couple of host seconds.  The bench also differentially
checks both solvers agree to 1e-6 s at the largest directly-measured
scale, and adds a 100k-channel single-item fan-out row (the fleet
index-pull shape).

``REPRO_SOLVER_CHANNELS`` overrides the largest multi-item fleet
(default 10000); ``REPRO_SOLVER_FANOUT`` the fan-out row (default
100000).
"""

from __future__ import annotations

import gc
import math
import os
import random
import time

from repro.bench.report import PaperTable, record_table
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.stats import human_duration

from reference_solver import ReferenceSchedule

MAX_CHANNELS = int(os.environ.get("REPRO_SOLVER_CHANNELS", "10000"))
FANOUT_CHANNELS = int(os.environ.get("REPRO_SOLVER_FANOUT", "100000"))
SCALES = tuple(sorted({256, 1024, MAX_CHANNELS}))
#: Largest scale the O(events x channels log channels) reference solves
#: directly in reasonable bench time.
REFERENCE_CEILING = 1024
ITEMS_PER_CLIENT = 3
UPLINK = 100 * 1024 * 1024  # 100 MB/s repository uplink
PEER_BANDWIDTH = 3 * 1024 * 1024  # Table 3 anchor: ~3 MB/s per stream
NIC_CHOICES = (1, 2, 4, 8)  # MB/s — heterogeneous client downlinks
#: CI host-time regression ceilings (generous: the measured times are
#: ~0.4 s and ~1.1 s on a 2-vCPU container, but CI runners are shared).
MAX_CHANNELS_CEILING_S = 2.0
FANOUT_CEILING_S = 2.0


def _fleet_schedule(channels: int, seed: int = 7,
                    items: int = ITEMS_PER_CLIENT,
                    solver=ParallelTransferSchedule):
    """A fleet-refresh-shaped workload: index + package pulls per client.

    ``solver=ReferenceSchedule`` builds the same workload for the oracle.
    """
    rng = random.Random(seed)
    schedule = solver(downlink_bandwidth=UPLINK)
    for c in range(channels):
        channel = f"client-{c:05d}"
        schedule.limit_channel(channel,
                               rng.choice(NIC_CHOICES) * 1024 * 1024)
        for i in range(items):
            schedule.enqueue(channel, (channel, i),
                             setup=0.03 + rng.random() * 0.02,
                             size_bytes=rng.randint(20_000, 600_000),
                             bandwidth=PEER_BANDWIDTH)
    return schedule


def _timed(solve) -> tuple[float, dict]:
    begin = time.perf_counter()
    timings = solve()
    return time.perf_counter() - begin, timings


def test_solver_scaling(benchmark, maybe_profile):
    def sweep():
        results = {}
        reference_walls = {}
        for channels in SCALES:
            schedule = _fleet_schedule(channels)
            wall, timings = _timed(schedule.solve)
            results[channels] = {
                "incremental_wall": wall,
                "items": len(timings),
                "makespan": max(t.finish for t in timings.values()),
            }
            if channels <= REFERENCE_CEILING:
                oracle = _fleet_schedule(channels, solver=ReferenceSchedule)
                ref_wall, ref_timings = _timed(oracle.solve)
                results[channels]["reference_wall"] = ref_wall
                reference_walls[channels] = ref_wall
                worst = max(
                    max(abs(timings[k].start - ref_timings[k].start),
                        abs(timings[k].finish - ref_timings[k].finish))
                    for k in ref_timings
                )
                results[channels]["worst_delta"] = worst
        # Fit t = c * n^alpha to the measured reference points and
        # extrapolate to the unmeasured scales.
        (n0, t0), (n1, t1) = sorted(reference_walls.items())[-2:]
        alpha = math.log(t1 / t0) / math.log(n1 / n0)
        for channels, row in results.items():
            if "reference_wall" not in row:
                row["reference_extrapolated"] = t1 * (channels / n1) ** alpha
        results["alpha"] = alpha
        # Fan-out row: one index pull per client (the fleet refresh wave
        # shape) at 100k channels, where the batched tail drain
        # completes the all-level-bound endgame.  Best of two solves
        # with the collector paused: the ceiling is about the solver,
        # not the host — a single shot swings +-0.3 s on shared runners,
        # and a gen-2 collection triggered mid-solve scans the whole
        # test session's heap (standalone the same solve never pays
        # that).  Min + gc-off is the standard microbenchmark discipline
        # (pytest-benchmark's --benchmark-disable-gc does exactly this).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            wall = math.inf
            for _ in range(2):
                schedule = _fleet_schedule(FANOUT_CHANNELS, items=1)
                attempt, timings = _timed(schedule.solve)
                wall = min(wall, attempt)
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        results["fanout"] = {
            "incremental_wall": wall,
            "items": len(timings),
            "makespan": max(t.finish for t in timings.values()),
            "reference_extrapolated":
                t1 * (FANOUT_CHANNELS / (n1 * ITEMS_PER_CLIENT)) ** alpha,
        }
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(maybe_profile("schedule solver scaling sweep", sweep),
                                 rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)
    alpha = results.pop("alpha")
    fanout = results.pop("fanout")
    benchmark.extra_info["fanout_solve_s"] = round(
        fanout["incremental_wall"], 3)
    benchmark.extra_info["max_scale_solve_s"] = round(
        results[MAX_CHANNELS]["incremental_wall"], 3)

    table = PaperTable(
        experiment="Solver scaling",
        title="Transfer-schedule solve: incremental vs dense reference "
              "(host wall-clock)",
        columns=["channels", "items", "incremental", "reference", "speedup",
                 "simulated makespan"],
    )
    fanout_rows = [(f"{FANOUT_CHANNELS} (fan-out x1)", fanout)]
    for channels, row in sorted(results.items()) + fanout_rows:
        if "reference_wall" in row:
            reference = row["reference_wall"]
            ref_label = human_duration(reference)
        else:
            reference = row["reference_extrapolated"]
            ref_label = f"~{human_duration(reference)} (extrapolated)"
        table.add_row(
            channels,
            row["items"],
            human_duration(row["incremental_wall"]),
            ref_label,
            f"{reference / row['incremental_wall']:.0f}x",
            human_duration(row["makespan"]),
        )
    table.note(f"reference cost fitted as n^{alpha:.2f} from the measured "
               f"scales <= {REFERENCE_CEILING} (fan-out row extrapolated "
               "by total item count); timings are solver runtime on the "
               "host, not simulated seconds")
    table.note("differential check: both solvers agree within 1e-6 s at "
               "every directly-measured scale")
    record_table(table)

    largest = results[MAX_CHANNELS]
    reference = largest.get("reference_wall",
                            largest.get("reference_extrapolated"))
    assert reference / largest["incremental_wall"] >= 10.0
    assert fanout["items"] == FANOUT_CHANNELS
    # Acceptance (host-time regression smoke): the 10k-channel fleet and
    # the 100k-channel fan-out each solve within the CI ceiling.  Skipped
    # under ``--profile``, whose instrumentation inflates every wall.
    if not maybe_profile.enabled:
        assert largest["incremental_wall"] <= MAX_CHANNELS_CEILING_S
        assert fanout["incremental_wall"] <= FANOUT_CEILING_S
    for row in results.values():
        if "worst_delta" in row:
            assert row["worst_delta"] < 1e-6
