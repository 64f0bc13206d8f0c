"""Figure 8 — per-package sanitization time vs file count and size.

Paper: sanitization time is heavily skewed — 11 ms (p50), 36 ms (p75),
422 ms (p95), up to 30 s (p100) — and grows with both the number of files
(signing) and the package size (archive processing).

Signing and verification exponentiate on OpenSSL's Montgomery kernels
(``repro.crypto.bignum``), native like the paper's Rust prototype, so p50
and p75 land below the paper's: 6.4 ms and 21.5 ms against its 11 ms and
36 ms, at the default scale on a 2-vCPU Xeon with AVX-512 IFMA, where
OpenSSL runs both CRT halves of an RSA-2048 signature in one pass on
Montgomery contexts each key holds for its lifetime.  The
rest of the pipeline is CPython, so absolute numbers are not expected to
match.  The skew and the growth directions are the reproduced shape.
Timings are *native* (outside the simulated enclave), like the paper's
instrumentation.
"""

from repro.bench.report import PaperTable, record_table
from repro.util.stats import human_duration, percentile

_PAPER_PERCENTILES = {"p50": 0.011, "p75": 0.036, "p95": 0.422, "p100": 30.0}


def test_fig8_sanitization_time_distribution(content_scenario, benchmark):
    results = content_scenario.refresh_report.results
    times = [r.timings.total for r in results]

    table = PaperTable(
        experiment="Figure 8",
        title="Sanitization time distribution (native, real CPU time)",
        columns=["percentile", "paper", "measured", "paper/p50 ratio",
                 "measured/p50 ratio"],
    )
    measured = {
        "p50": percentile(times, 50),
        "p75": percentile(times, 75),
        "p95": percentile(times, 95),
        "p100": max(times),
    }
    for name, paper_value in _PAPER_PERCENTILES.items():
        table.add_row(
            name,
            human_duration(paper_value),
            human_duration(measured[name]),
            f"{paper_value / _PAPER_PERCENTILES['p50']:.0f}x",
            f"{measured[name] / measured['p50']:.0f}x",
        )

    # Growth with file count: bucket packages by file count.
    buckets = [(1, 4), (5, 16), (17, 64), (65, 10_000)]
    for low, high in buckets:
        bucket_times = [r.timings.total for r in results
                        if low <= r.file_count <= high]
        if bucket_times:
            table.note(
                f"files {low}-{high}: median "
                f"{human_duration(percentile(bucket_times, 50))} "
                f"over {len(bucket_times)} packages"
            )
    record_table(table)

    # Benchmark the hot path itself: re-sanitize a median-sized package.
    by_size = sorted(results, key=lambda r: r.original_size)
    median_pkg = by_size[len(by_size) // 2]
    blob = content_scenario.origin.package_blob(median_pkg.package.name)
    program = content_scenario.tsr._enclave._program
    state = program._repos[content_scenario.repo_id]
    benchmark(state.sanitizer.sanitize_blob, blob)

    # Shape assertions: the skew (p95 >> p50) and monotone growth.
    assert measured["p95"] > 5 * measured["p50"]
    assert measured["p100"] > 20 * measured["p50"]
    small = [r.timings.total for r in results if r.file_count <= 4]
    large = [r.timings.total for r in results if r.file_count >= 65]
    if small and large:
        assert percentile(large, 50) > percentile(small, 50)
