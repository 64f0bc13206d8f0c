"""Memo traffic: every process-wide memo's hits and misses on one
repetition of each benchmark workload.

    PYTHONPATH=src python benchmarks/memo_traffic.py [--seed 1001] \
        [--size full|tiny]

Each workload that ``BENCHMARK.json`` declares runs once in a fresh
interpreter, with the environment ``perfbench/run.py`` pins, exactly as
``perfbench/worker.py`` runs a repetition: set-up, the timed call and the
evaluation.  The interpreter then reports :func:`repro.util.memo.stats`.
The script prints one ``hits/misses`` column per workload and one row
per memo, then each workload's outcome fingerprint and attempted/failed
operations, so a change that must keep the traffic can be diffed against
its parent.  ``--workload NAME`` runs one workload in this interpreter
and prints the worker's JSON record and then the memo stats as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402


def repetition(workload: str, seed: int, size: str) -> None:
    """One repetition in this interpreter, then its memo counters."""
    import worker

    from repro.util import memo

    worker.main(["--workload", workload, "--seed", str(seed),
                 "--size", size])
    print(json.dumps(memo.stats()))


def traffic(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """The worker record and memo stats of a repetition in a fresh
    interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(seed), "--size", size],
        cwd=ROOT, env=perfbench.child_env(), capture_output=True, text=True,
        check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed (exit {done.returncode}):\n"
                         f"{done.stderr[-2000:]}")
    record, stats = done.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    parser.add_argument("--workload",
                        help="run this workload here and print JSON")
    args = parser.parse_args(argv)
    if args.workload:
        repetition(args.workload, args.seed, args.size)
        return 0
    names = [workload["name"]
             for workload in perfbench.load_spec()["workloads"]]
    runs = [traffic(name, args.seed, args.size) for name in names]
    records = [record for record, _ in runs]
    stats = [counts for _, counts in runs]

    def row(label: str, cells: list[str]) -> None:
        print(f"{label:26}" + "".join(f"{cell:>14}" for cell in cells))

    print(f"memo hits/misses, seed {args.seed}, size {args.size}")
    row("", names)
    for table in sorted(stats[0]):
        row(table, [f"{counts[table]['hits']}/{counts[table]['misses']}"
                    for counts in stats])
    row("fingerprint", [record["fingerprint"][:12] for record in records])
    row("attempted/failed", [f"{record['attempted']}/{record['failed']}"
                             for record in records])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
