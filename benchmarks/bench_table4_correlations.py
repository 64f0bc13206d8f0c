"""Table 4 — Spearman correlations between package properties and the
proportional time contribution of sanitization phases.

Paper (ρ values):

                        number of files   package size
    archive, compress        .46              .61
    check integrity         -.62             -.93
    generate signatures      .69              .03
    modify scripts          -.27             -.33
"""

from scipy import stats as scipy_stats

from repro.bench.report import PaperTable, record_table

_PAPER_RHO = {
    "archive": (0.46, 0.61),
    "verify": (-0.62, -0.93),
    "sign": (0.69, 0.03),
    "scripts": (-0.27, -0.33),
}


def _correlations(results):
    files = [r.file_count for r in results]
    sizes = [r.original_size for r in results]
    rho = {}
    for phase in ("archive", "verify", "sign", "scripts"):
        proportions = [r.timings.proportions()[phase] for r in results]
        rho_files = scipy_stats.spearmanr(files, proportions).statistic
        rho_sizes = scipy_stats.spearmanr(sizes, proportions).statistic
        rho[phase] = (rho_files, rho_sizes)
    return rho


def test_table4_phase_correlations(content_scenario, benchmark):
    results = content_scenario.refresh_report.results
    rho = benchmark.pedantic(_correlations, args=(results,),
                             rounds=1, iterations=1)

    table = PaperTable(
        experiment="Table 4",
        title="Spearman rho: package properties vs phase time proportion",
        columns=["phase", "paper rho(files)", "measured rho(files)",
                 "paper rho(size)", "measured rho(size)"],
    )
    labels = {
        "archive": "archive, compress",
        "verify": "check integrity",
        "sign": "generate signatures",
        "scripts": "modify scripts",
    }
    for phase, (paper_files, paper_size) in _PAPER_RHO.items():
        measured_files, measured_size = rho[phase]
        table.add_row(labels[phase], f"{paper_files:+.2f}",
                      f"{measured_files:+.2f}", f"{paper_size:+.2f}",
                      f"{measured_size:+.2f}")
    table.note(
        "deviation: per-file RSA signing still costs a larger share of a "
        "many-file package than in the paper's Rust prototype, so the "
        "*archive* share anti-correlates with file count here; signing "
        "runs on OpenSSL's Montgomery kernel, so its share barely tracks "
        "package size, as in the paper; the narrative-carrying signs "
        "(signing dominates many-file packages, integrity checking and "
        "script rewriting fade) reproduce — see EXPERIMENTS.md"
    )
    record_table(table)

    # Shape assertions on the signs that carry the paper's narrative:
    # signature generation dominates as file count grows; the integrity
    # check's and script rewriting's shares shrink as packages grow.
    assert rho["sign"][0] > 0.5
    assert rho["verify"][0] < -0.3
    assert rho["scripts"][0] < -0.2
    assert rho["scripts"][1] < -0.2
