"""Ablation A3 — where refresh time goes, phase by phase.

Backs Table 4's correlation story with the raw split: archive processing
and signature generation dominate; integrity checking and script
rewriting are minor.  Also isolates the per-file signing cost (the paper's
dominant factor for many-file packages), and — new — measures how much of
the phased wall-clock the overlapped refresh (``refresh(pipelined=True)``)
claws back by overlapping downloads and sanitization (identical verdicts
in both modes).
"""

from repro.bench.report import PaperTable, record_table
from repro.crypto.rsa import generate_keypair
from repro.ima.subsystem import ima_signature_for
from repro.util.stats import human_duration
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario


def test_ablation_phase_split(content_scenario, benchmark):
    results = content_scenario.refresh_report.results

    totals = {"verify": 0.0, "archive": 0.0, "scripts": 0.0, "sign": 0.0}
    for result in results:
        totals["verify"] += result.timings.verify
        totals["archive"] += result.timings.archive
        totals["scripts"] += result.timings.scripts
        totals["sign"] += result.timings.sign
    grand_total = sum(totals.values())

    table = PaperTable(
        experiment="Ablation A3",
        title="Sanitization time split by phase (whole repository)",
        columns=["phase", "time", "share"],
    )
    for phase in ("archive", "sign", "verify", "scripts"):
        table.add_row(phase, human_duration(totals[phase]),
                      f"{100 * totals[phase] / grand_total:.1f}%")
    table.add_row("total", human_duration(grand_total), "100%")
    table.note("paper: archive+signing dominate (Table 4 discussion); "
               "signing cost is per-file (256-byte RSA-2048 signatures)")
    record_table(table)

    # Micro-benchmark the per-file signing primitive in isolation.
    key = generate_keypair(2048, seed=33)
    payload = b"\x7fELF" + bytes(4096)
    benchmark(ima_signature_for, payload, key)

    # Shape: archive + signing dominate the pipeline.
    assert totals["archive"] + totals["sign"] > 0.6 * grand_total
    assert totals["scripts"] < 0.2 * grand_total


def test_ablation_pipeline_overlap():
    """Sequential vs pipelined refresh over the same multi-package workload.

    The pipelined engine must (a) reach the same sanitization verdicts and
    (b) beat the sequential schedule on simulated wall-clock, because the
    phases overlap instead of running back to back.
    """
    workload = generate_workload(scale=0.008, seed=4, with_content=True)

    sequential = build_scenario(workload=workload, key_bits=1024,
                                refresh=False, with_monitor=False)
    seq_report = sequential.tsr.refresh(sequential.repo_id)

    pipelined = build_scenario(workload=workload, key_bits=1024,
                               refresh=False, with_monitor=False)
    pipe_report = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)

    table = PaperTable(
        experiment="Ablation A3b",
        title="Phased vs pipelined refresh (same workload, same verdicts)",
        columns=["mode", "download", "sanitize", "wall-clock", "overlap saved"],
    )
    for label, report in (("sequential", seq_report),
                          ("pipelined", pipe_report)):
        table.add_row(label,
                      human_duration(report.download_elapsed),
                      human_duration(report.sanitize_elapsed),
                      human_duration(report.total_elapsed),
                      human_duration(report.overlap_saved))
    table.note(f"pipelined sanitized {pipe_report.sanitized_early} of "
               f"{pipe_report.sanitized} packages before the catalog "
               "barrier; verdict sets are asserted identical")
    record_table(table)

    # Identical verdicts: same sanitized package set, same rejections.
    assert ({r.package.name for r in seq_report.results}
            == {r.package.name for r in pipe_report.results})
    assert (dict(seq_report.rejected) == dict(pipe_report.rejected))
    # The pipeline beats the phased schedule on simulated wall-clock.
    assert pipe_report.total_elapsed < seq_report.total_elapsed
    # Overlap really happened: resource-seconds exceed the wall-clock.
    assert (pipe_report.download_elapsed + pipe_report.sanitize_elapsed
            > pipe_report.total_elapsed - pipe_report.quorum_elapsed)
