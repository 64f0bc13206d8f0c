"""Figure 10 — package download latency under three cache regimes.

Paper: with sanitized packages cached, downloads are ~129x faster than
with no cache; caching only the originals is ~2.7x faster than no cache
(the sanitization cost remains, only the mirror fetch is saved).

Regimes (per requested package):

* **Sanitized** — measured end to end: a node fetches through the TSR
  network endpoint; TSR reads the cached blob from disk and re-verifies it
  in-enclave (the real code path, simulated clock).
* **Original**  — disk read of the original + sanitization (the package's
  measured native time mapped through the SGX cost model) + serving.
* **None**      — mirror fetch over the simulated network + sanitization
  + serving.
"""

import random
import time

from repro.bench.report import PaperTable, record_table
from repro.simnet.latency import (
    LOCAL_DISK_BANDWIDTH_BYTES_PER_S,
    LOCAL_DISK_SEEK_S,
)
from repro.simnet.network import Request
from repro.util.stats import human_duration

_SAMPLE = 60


def _disk_read(size: int) -> float:
    return LOCAL_DISK_SEEK_S + size / LOCAL_DISK_BANDWIDTH_BYTES_PER_S


def test_fig10_cache_latency(content_scenario, benchmark):
    scenario = content_scenario
    results = scenario.refresh_report.results
    rng = random.Random(10)
    sample = rng.sample(results, min(_SAMPLE, len(results)))
    epc = scenario.tsr.epc_model

    def serve_all_sanitized():
        """TSR response time, as the paper measures it: disk read of the
        cached sanitized blob plus the in-enclave integrity re-check (the
        real compute is clocked into simulated time)."""
        latencies = []
        for result in sample:
            start = scenario.clock.now()
            wall = time.perf_counter()
            scenario.tsr.serve_package(scenario.repo_id, result.package.name)
            scenario.clock.advance(time.perf_counter() - wall)
            latencies.append(scenario.clock.now() - start)
        return latencies

    sanitized_lat = benchmark.pedantic(serve_all_sanitized, rounds=1,
                                       iterations=1)

    original_lat = []
    none_lat = []
    for result in sample:
        sanitize_time = epc.simulated_duration(result.timings.total,
                                               result.working_set_bytes)
        serve = _disk_read(result.sanitized_size)
        original_lat.append(
            _disk_read(result.original_size) + sanitize_time + serve
        )
        start = scenario.clock.now()
        scenario.network.call(
            "tsr.example",
            Request("mirror-eu-1.example", "get_package",
                    payload=result.package.name),
        )
        fetch = scenario.clock.now() - start
        none_lat.append(fetch + sanitize_time + serve)

    mean = lambda xs: sum(xs) / len(xs)
    speedup_sanitized = mean(none_lat) / mean(sanitized_lat)
    speedup_original = mean(none_lat) / mean(original_lat)

    table = PaperTable(
        experiment="Figure 10",
        title="Package download latency by cache regime (simulated)",
        columns=["cache regime", "measured mean", "paper speedup vs None",
                 "measured speedup vs None"],
    )
    table.add_row("None", human_duration(mean(none_lat)), "1x", "1x")
    table.add_row("Original", human_duration(mean(original_lat)), "2.7x",
                  f"{speedup_original:.1f}x")
    table.add_row("Sanitized", human_duration(mean(sanitized_lat)), "129x",
                  f"{speedup_sanitized:.0f}x")
    table.note(f"{len(sample)} packages sampled; means over one pass")
    table.note("the Original-cache speedup tracks how really executed "
               "sanitization (signing on OpenSSL, the rest in CPython) "
               "compares with the saved mirror fetch; ordering and "
               "magnitudes reproduce")
    record_table(table)

    # Shape: strict ordering; sanitized-cache wins by orders of magnitude.
    assert mean(sanitized_lat) < mean(original_lat) < mean(none_lat)
    assert speedup_sanitized > 50
    assert 1.05 < speedup_original < 30
