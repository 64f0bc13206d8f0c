"""Fleet refresh — one update round fanned out to a client fleet.

The end-to-end flow the north star cares about (publish → refresh →
fleet pull), every client a concurrent channel on the shared transfer
schedule, at two scales:

* *fleet scale* — a 16-client fleet and a >= 256-client fan-out
  (``REPRO_FLEET_CLIENTS`` overrides): all clients resolve in one
  incremental event-driven ``solve`` (see ``bench_schedule_solver.py``
  for the solver's own scaling curve) and their per-client timings
  reflect shared-uplink contention rather than per-client serialization;
* *layered NICs* — the 16-client fleet with low-end 64 KB/s client
  downlinks (``client_downlink``), showing the per-client capacity layer
  binding below the uplink fair share.
"""

import os
import time

from repro.bench.report import PaperTable, record_table
from repro.util.stats import human_duration
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario, fleet_refresh

FLEET_CLIENTS = int(os.environ.get("REPRO_FLEET_CLIENTS", "256"))


def _scenario():
    workload = generate_workload(scale=0.004, seed=5, with_content=True)
    return build_scenario(workload=workload, key_bits=1024,
                          with_monitor=False)


def test_fleet_refresh_scaling(benchmark, maybe_profile):
    def sweep():
        results = {}
        results["scheduled-16"] = fleet_refresh(
            _scenario(), clients=16, installs_per_client=1)
        results["scheduled-16-nic64K"] = fleet_refresh(
            _scenario(), clients=16, installs_per_client=1,
            client_downlink=64 * 1024)
        results[f"scheduled-{FLEET_CLIENTS}"] = fleet_refresh(
            _scenario(), clients=FLEET_CLIENTS, installs_per_client=1)
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(maybe_profile("test_fleet_refresh_scaling", sweep),
                                 rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)

    table = PaperTable(
        experiment="Fleet refresh",
        title="Update fan-out on the shared transfer schedule",
        columns=["configuration", "fan-out wall", "slowest client",
                 "mean client", "client-seconds", "installs"],
    )
    for label, fleet in results.items():
        mean = sum(fleet.client_elapsed) / len(fleet.client_elapsed)
        table.add_row(
            label,
            human_duration(fleet.fanout_elapsed),
            human_duration(fleet.slowest_client),
            human_duration(mean),
            human_duration(sum(fleet.client_elapsed)),
            fleet.installs,
        )
    table.note("scheduled clients share the TSR uplink max-min fairly: "
               "client-seconds exceed the fan-out wall-clock (overlap), "
               "and per-client latency grows with fleet size (contention); "
               "the nic64K row layers 64 KB/s client downlinks under the "
               "uplink fair share")
    record_table(table)

    scheduled = results["scheduled-16"]
    nic_capped = results["scheduled-16-nic64K"]
    large = results[f"scheduled-{FLEET_CLIENTS}"]
    # Low-end NICs bind below the 16-way uplink share and slow the fleet.
    assert nic_capped.fanout_elapsed > scheduled.fanout_elapsed
    # Contention, not serialization: resource-seconds exceed the makespan,
    # and every client stays in flight until near the end.
    assert sum(large.client_elapsed) > 2 * large.fanout_elapsed
    assert large.clients >= 256 or FLEET_CLIENTS < 256
    assert len(large.client_elapsed) == large.clients
    # Shared-uplink contention: the large fleet's slowest client waits
    # longer than the small fleet's.
    assert large.slowest_client > scheduled.slowest_client
