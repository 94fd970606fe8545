"""One-command full reproduction driver.

Runs the bench session — ``benchmarks/bench_study.py`` (one test per
row of ``repro.harness.STUDY``: the paper's twenty tables and figures,
each with its shape assertion) plus the three extension benches — which
builds the zoo models it needs on first use and archives every table as
``artifacts/results/<id>.txt``, then regenerates the tables of
EXPERIMENTS.md from them.

    python scripts/run_full_study.py                # bench scale
    python scripts/run_full_study.py --trials 500 --examples 50   # paper-ish
    python scripts/run_full_study.py -k "fig05 or fig13"          # a subset

``--trials`` / ``--examples`` set ``REPRO_BENCH_TRIALS`` /
``REPRO_BENCH_EXAMPLES`` for the session; every other argument goes to
pytest as is.  Tables print as they finish and pytest's duration report
lists each one's wall-clock.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int)
    parser.add_argument("--examples", type=int)
    args, pytest_args = parser.parse_known_args()

    env = dict(os.environ)
    if args.trials is not None:
        env["REPRO_BENCH_TRIALS"] = str(args.trials)
    if args.examples is not None:
        env["REPRO_BENCH_EXAMPLES"] = str(args.examples)
    benches = ROOT / "benchmarks"
    session = subprocess.run(
        [
            sys.executable, "-m", "pytest", str(benches),
            f"--ignore={benches / 'ledger'}", "-s", "--durations=0",
            *pytest_args,
        ],
        env=env,
    )

    # Regenerate the paper-vs-measured report, also after a failed shape
    # assertion: its table is archived before the assertion runs.
    script = Path(__file__).with_name("write_experiments_md.py")
    subprocess.run([sys.executable, str(script)], check=True)
    return session.returncode


if __name__ == "__main__":
    raise SystemExit(main())
